package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeComputeVsMemoryBound(t *testing.T) {
	s := Spec{SIMTFLOPS: 1e12, TensorCoreFLOPS: 8e12, MemBandwidth: 1e11, NumUnits: 100}
	// compute-bound: 1e12 FLOPs, tiny bytes → 1 second
	tc := s.Time(Kernel{FLOPs: 1e12, Bytes: 1})
	if math.Abs(tc-1) > 1e-9 {
		t.Fatalf("compute-bound time = %v, want 1", tc)
	}
	// memory-bound: tiny FLOPs, 1e11 bytes → 1 second
	tm := s.Time(Kernel{FLOPs: 1, Bytes: 1e11})
	if math.Abs(tm-1) > 1e-9 {
		t.Fatalf("memory-bound time = %v, want 1", tm)
	}
	// max, not sum
	both := s.Time(Kernel{FLOPs: 1e12, Bytes: 1e11})
	if math.Abs(both-1) > 1e-9 {
		t.Fatalf("roofline must take max: %v", both)
	}
}

func TestTensorCorePathFaster(t *testing.T) {
	s := A100()
	k := Kernel{FLOPs: 1e12}
	slow := s.Time(k)
	k.TensorCore = true
	fast := s.Time(k)
	if fast >= slow {
		t.Fatalf("tensor-core path must be faster: %v vs %v", fast, slow)
	}
	if math.Abs(slow/fast-s.TensorCoreFLOPS/s.SIMTFLOPS) > 0.01 {
		t.Fatalf("speedup %v, want %v", slow/fast, s.TensorCoreFLOPS/s.SIMTFLOPS)
	}
}

func TestLowParallelismPenalty(t *testing.T) {
	s := A100()
	full := s.Time(Kernel{FLOPs: 1e12, Parallelism: float64(s.NumUnits)})
	half := s.Time(Kernel{FLOPs: 1e12, Parallelism: float64(s.NumUnits) / 2})
	single := s.Time(Kernel{FLOPs: 1e12, Parallelism: 1})
	if !(single > half && half > full) {
		t.Fatalf("parallelism penalty not monotone: %v %v %v", single, half, full)
	}
	if math.Abs(half/full-2) > 0.01 {
		t.Fatalf("half parallelism should double time: %v", half/full)
	}
}

func TestMakespanBasics(t *testing.T) {
	// 4 equal items on 2 units → 2 rounds
	if m := Makespan([]float64{1, 1, 1, 1}, 2); math.Abs(m-2) > 1e-9 {
		t.Fatalf("makespan = %v, want 2", m)
	}
	// long item last creates a tail: [1,1,1,9] on 2 units in order → 1+9=10
	tail := Makespan([]float64{1, 1, 1, 9}, 2)
	lpt := Makespan([]float64{9, 1, 1, 1}, 2)
	if lpt >= tail {
		t.Fatalf("longest-first must beat in-order for tail-heavy loads: %v vs %v", lpt, tail)
	}
	if math.Abs(lpt-9) > 1e-9 {
		t.Fatalf("longest-first makespan = %v, want 9", lpt)
	}
	if Makespan(nil, 4) != 0 {
		t.Fatal("empty makespan must be 0")
	}
}

func TestMakespanSingleUnitIsSum(t *testing.T) {
	m := Makespan([]float64{1, 2, 3}, 1)
	if math.Abs(m-6) > 1e-9 {
		t.Fatalf("single unit = %v, want 6", m)
	}
}

func TestDeviceAccumulation(t *testing.T) {
	d := New(Spec{SIMTFLOPS: 1e12, TensorCoreFLOPS: 1e12, MemBandwidth: 1e12, LaunchOverhead: 0.5, NumUnits: 1})
	d.Launch(Kernel{Name: "k1", Cat: CatNeural, FLOPs: 1e12})
	d.Launch(Kernel{Name: "k2", Cat: CatIndexing, Bytes: 1e12})
	st := d.Stats()
	if st.Kernels != 2 {
		t.Fatalf("kernels = %d", st.Kernels)
	}
	// each kernel: 0.5 launch + 1.0 work
	if math.Abs(st.SimSeconds-3) > 1e-9 {
		t.Fatalf("sim time = %v, want 3", st.SimSeconds)
	}
	if math.Abs(st.ByCategory["neural"]-1.5) > 1e-9 || math.Abs(st.ByCategory["indexing"]-1.5) > 1e-9 {
		t.Fatalf("category split: %v", st.ByCategory)
	}
	if d.ComputeMemoryRatio() != 1 {
		t.Fatalf("compute/memory = %v", d.ComputeMemoryRatio())
	}
	d.Reset()
	if d.Stats().SimSeconds != 0 || d.Stats().Kernels != 0 {
		t.Fatal("reset failed")
	}
}

func TestA100SanityNumbers(t *testing.T) {
	s := A100()
	if s.TensorCoreFLOPS <= s.SIMTFLOPS {
		t.Fatal("tensor core peak must exceed SIMT peak")
	}
	if r := s.SIMTFLOPS / s.MemBandwidth; r < 5 || r > 50 {
		t.Fatalf("A100 balance point %v FLOP/B out of plausible range", r)
	}
}

// Property: makespan is bounded below by both max(item) and sum/units, and
// above by sum (classic list-scheduling bounds).
func TestPropMakespanBounds(t *testing.T) {
	f := func(raw []uint16, unitsSmall uint8) bool {
		if len(raw) == 0 {
			return true
		}
		units := int(unitsSmall%8) + 1
		times := make([]float64, len(raw))
		var sum, max float64
		for i, r := range raw {
			times[i] = float64(r%1000) / 100
			sum += times[i]
			if times[i] > max {
				max = times[i]
			}
		}
		m := Makespan(times, units)
		lower := sum / float64(units)
		if max > lower {
			lower = max
		}
		return m >= lower-1e-9 && m <= sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LPT satisfies Graham's list-scheduling bound
// makespan ≤ sum/m + (m-1)/m · maxItem, which holds for ANY order —
// unlike the 4/3 ratio, this is checkable without knowing OPT.
func TestPropLPTQuality(t *testing.T) {
	f := func(raw []uint16, unitsSmall uint8) bool {
		if len(raw) == 0 {
			return true
		}
		units := int(unitsSmall%8) + 1
		times := make([]float64, len(raw))
		var sum, max float64
		for i, r := range raw {
			times[i] = float64(r%1000)/100 + 0.01
			sum += times[i]
			if times[i] > max {
				max = times[i]
			}
		}
		m := float64(units)
		bound := sum/m + (m-1)/m*max
		return Makespan(times, units) <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelStats checks the per-kernel-name accounting that feeds the
// /metrics per-gTask kernel counters.
func TestKernelStats(t *testing.T) {
	d := New(A100())
	k1 := Kernel{Name: "gtask.fused", Cat: CatNeural, FLOPs: 1e9, Bytes: 1e6}
	k2 := Kernel{Name: "sage.self", Cat: CatNeural, FLOPs: 2e9, Bytes: 2e6, TensorCore: true}
	d.Launch(k1)
	d.Launch(k1)
	d.Launch(k2)

	ks := d.KernelStats()
	if len(ks) != 2 {
		t.Fatalf("got %d kernel entries, want 2: %v", len(ks), ks)
	}
	fused := ks["gtask.fused"]
	if fused.Launches != 2 || fused.FLOPs != 2e9 || fused.Bytes != 2e6 {
		t.Errorf("gtask.fused stats = %+v", fused)
	}
	wantT := 2 * (d.Spec.LaunchOverhead + d.Spec.Time(k1))
	if math.Abs(fused.SimSeconds-wantT) > 1e-12 {
		t.Errorf("gtask.fused SimSeconds = %v, want %v", fused.SimSeconds, wantT)
	}
	if ks["sage.self"].Launches != 1 {
		t.Errorf("sage.self launches = %d, want 1", ks["sage.self"].Launches)
	}
	// Snapshot is a copy: mutating it must not affect the device.
	fused.Launches = 99
	if d.KernelStats()["gtask.fused"].Launches != 2 {
		t.Error("KernelStats snapshot aliases internal state")
	}
	// Zero-value Device (no New) must not panic.
	var dz Device
	dz.Spec = A100()
	dz.Launch(k1)
	if dz.KernelStats()["gtask.fused"].Launches != 1 {
		t.Error("zero-value Device did not account the kernel")
	}
	d.Reset()
	if len(d.KernelStats()) != 0 {
		t.Error("Reset did not clear kernel stats")
	}
}
