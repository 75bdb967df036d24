// Package device simulates the accelerator the paper runs on. The paper's
// numbers come from NVIDIA A100 GPUs; this environment has no GPU, so every
// kernel executes its numeric work for real on CPU workers while an analytic
// timing model accounts what the same kernel would cost on the modeled
// device: launch overhead, compute time on the SIMT or tensor-core path,
// memory traffic against HBM bandwidth, and parallelism efficiency across
// execution units.
//
// The model is deliberately simple — per kernel,
//
//	t = launch + max(FLOPs / (peak·eff), Bytes / bandwidth)
//
// with eff = min(1, parallelism/units) — because every effect the paper
// measures (compute/memory ratio, kernel-count overhead, batching, load
// imbalance, communication volume) is a first-order function of exactly
// these quantities. Absolute times are not meaningful; ratios are.
package device

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"wisegraph/internal/fault"
)

// Spec describes a simulated accelerator.
type Spec struct {
	Name string
	// TensorCoreFLOPS is the dense-matmul (TF32 tensor core) peak, FLOP/s.
	TensorCoreFLOPS float64
	// SIMTFLOPS is the scalar-path peak, FLOP/s.
	SIMTFLOPS float64
	// MemBandwidth is device-memory bandwidth, bytes/s.
	MemBandwidth float64
	// LaunchOverhead is fixed per-kernel launch latency, seconds.
	LaunchOverhead float64
	// NumUnits is the number of execution units (SMs).
	NumUnits int
}

// A100 returns the spec of the paper's evaluation GPU (A100-PCIe-40GB).
func A100() Spec {
	return Spec{
		Name:            "A100-PCIe",
		TensorCoreFLOPS: 156e12,
		SIMTFLOPS:       19.5e12,
		MemBandwidth:    1555e9,
		LaunchOverhead:  5e-6,
		NumUnits:        108,
	}
}

// Category classifies kernels for time-breakdown reporting (Figure 3b and
// Figure 17 split execution into indexing vs neural time).
type Category int

const (
	CatIndexing Category = iota
	CatNeural
	numCategories
)

// String names the category.
func (c Category) String() string {
	if c == CatIndexing {
		return "indexing"
	}
	return "neural"
}

// Kernel describes one launch for the timing model.
type Kernel struct {
	Name string
	Cat  Category
	// FLOPs is the floating-point work of the kernel.
	FLOPs float64
	// Bytes is total device-memory traffic (reads + writes).
	Bytes float64
	// Parallelism is the number of independent work items the kernel can
	// spread across execution units (e.g. number of gTasks, rows, edges).
	// Zero means fully parallel.
	Parallelism float64
	// TensorCore selects the dense-matmul peak instead of the SIMT peak.
	// Only batched matrix work qualifies (paper §5.3: batching enables
	// tensor cores).
	TensorCore bool
	// UnitTimes, if non-nil, gives per-work-item times; the kernel's
	// duration is then the makespan of list-scheduling those items onto
	// NumUnits units (models the long-tail effect of outlier gTasks).
	UnitTimes []float64
}

// Time returns the modeled duration of k on spec (excluding launch).
func (s Spec) Time(k Kernel) float64 {
	if k.UnitTimes != nil {
		return Makespan(k.UnitTimes, s.NumUnits)
	}
	peak := s.SIMTFLOPS
	if k.TensorCore {
		peak = s.TensorCoreFLOPS
	}
	eff := 1.0
	if k.Parallelism > 0 && k.Parallelism < float64(s.NumUnits) {
		eff = k.Parallelism / float64(s.NumUnits)
	}
	tc := 0.0
	if k.FLOPs > 0 {
		tc = k.FLOPs / (peak * eff)
	}
	tm := 0.0
	if k.Bytes > 0 {
		tm = k.Bytes / s.MemBandwidth
	}
	if tm > tc {
		return tm
	}
	return tc
}

// Makespan list-schedules per-item times onto units in the given order
// (each item goes to the earliest-free unit) and returns the finish time.
// Order matters: scheduling long items late produces the long-tail effect
// the paper's differentiated execution removes.
//
// Only the multiset of unit loads decides where the next item goes and
// what it adds, so a run of equal times (every task of an edge-centric
// plan) is dealt round by round where it can be (fillRun), and the rest
// goes through a binary heap one item at a time; both give the per-item
// heap's loads, bit for bit.
func Makespan(times []float64, units int) float64 {
	if units < 1 {
		units = 1
	}
	if len(times) == 0 {
		return 0
	}
	h := make([]float64, units) // a min-heap of the unit loads
	for i := 0; i < len(times); {
		t := times[i]
		r := 1
		for i+r < len(times) && math.Float64bits(times[i+r]) == math.Float64bits(t) {
			r++
		}
		if r < units || !fillRun(h, t, r) {
			for range r {
				// pop min (h[0]), add t, push back
				h[0] += t
				siftDown(h)
			}
		}
		i += r
	}
	var max float64
	for _, v := range h {
		if v > max {
			max = v
		}
	}
	return max
}

// fillRun adds a run of r items of time t to the loads h as r heap steps
// would, and reports whether it could; h is left sorted, which is a heap.
// It can when, once h is sorted, the largest load is at most the smallest
// plus t. Then the heap deals the run round by round in load order —
// rounding is monotone, so each round keeps the order and the spread —
// and only each unit's count of additions is left to find: r/len(h) each,
// and one more for the r%len(h) least loaded. Units with equal loads add
// the same sequence, so it is summed once. A NaN time or load fails the
// check (the heap holds a NaN only at its root, where sorting puts it
// too), and so does a negative time unless every load is one it leaves
// unchanged.
func fillRun(h []float64, t float64, r int) bool {
	slices.Sort(h)
	if !(h[len(h)-1] <= h[0]+t) {
		return false
	}
	rounds := r / len(h)
	var load, sum float64
	for k, x := range h {
		if k == 0 || x != load {
			load, sum = x, x
			for range rounds {
				sum += t
			}
		}
		h[k] = sum
	}
	for k := range r % len(h) {
		h[k] += t
	}
	slices.Sort(h)
	return true
}

func siftDown(h []float64) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// KernelStats accumulates the timing-model accounting for one kernel
// name — the per-kernel breakdown the observability layer exposes on
// /metrics (FeatGraph-style per-kernel characterization).
type KernelStats struct {
	Launches   int64
	SimSeconds float64
	FLOPs      float64
	Bytes      float64
}

// Device accumulates simulated time and traffic across kernel launches.
// It is safe for concurrent use.
type Device struct {
	Spec Spec

	mu       sync.Mutex
	simTime  float64
	kernels  int64
	flops    float64
	bytes    float64
	byCat    [numCategories]float64
	byKernel map[string]*KernelStats

	// fault accounting: injected launch failures are modeled as a
	// relaunch (the launch overhead and kernel time are paid twice) and
	// injected stragglers as extra kernel time. The numeric work always
	// runs exactly once — faults perturb the timing model, never results.
	relaunches       int64
	stragglerSeconds float64
}

// New returns a device with the given spec.
func New(spec Spec) *Device {
	return &Device{Spec: spec, byKernel: make(map[string]*KernelStats)}
}

// Launch accounts kernel k. The modeled time includes the fixed launch
// overhead — the cost the tensor-centric approach pays once per operation
// and fused gTask kernels pay once per partition.
func (d *Device) Launch(k Kernel) {
	t := d.Spec.LaunchOverhead + d.Spec.Time(k)
	var relaunch int64
	var straggle float64
	if f := fault.Check(fault.SiteDeviceLaunch); f != nil {
		switch f.Kind {
		case fault.KindError, fault.KindCorrupt:
			// Failed (or corrupted-and-discarded) launch: the retry pays
			// the whole kernel again.
			relaunch, t = 1, 2*t
		case fault.KindLatency:
			straggle = f.Delay.Seconds()
			t += straggle
		}
	}
	d.mu.Lock()
	d.relaunches += relaunch
	d.stragglerSeconds += straggle
	d.simTime += t
	d.kernels++
	d.flops += k.FLOPs
	d.bytes += k.Bytes
	if k.Cat >= 0 && k.Cat < numCategories {
		d.byCat[k.Cat] += t
	}
	ks := d.byKernel[k.Name]
	if ks == nil {
		// One allocation per distinct kernel name for the device's
		// lifetime; steady-state launches only update counters in place.
		ks = &KernelStats{}
		if d.byKernel == nil {
			d.byKernel = make(map[string]*KernelStats)
		}
		d.byKernel[k.Name] = ks
	}
	ks.Launches++
	ks.SimSeconds += t
	ks.FLOPs += k.FLOPs
	ks.Bytes += k.Bytes
	d.mu.Unlock()
}

// Stats is a snapshot of accumulated accounting.
type Stats struct {
	SimSeconds float64
	Kernels    int64
	FLOPs      float64
	Bytes      float64
	ByCategory map[string]float64
	// Relaunches counts injected launch failures absorbed by relaunching;
	// StragglerSeconds is the simulated time injected latency spikes added.
	Relaunches       int64
	StragglerSeconds float64
}

// Stats returns a snapshot.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	by := make(map[string]float64, int(numCategories))
	for c := Category(0); c < numCategories; c++ {
		if d.byCat[c] != 0 {
			by[c.String()] = d.byCat[c]
		}
	}
	return Stats{
		SimSeconds: d.simTime, Kernels: d.kernels, FLOPs: d.flops, Bytes: d.bytes, ByCategory: by,
		Relaunches: d.relaunches, StragglerSeconds: d.stragglerSeconds,
	}
}

// KernelStats returns a snapshot of the per-kernel-name accounting.
func (d *Device) KernelStats() map[string]KernelStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]KernelStats, len(d.byKernel))
	for name, ks := range d.byKernel {
		out[name] = *ks
	}
	return out
}

// Reset zeroes all counters.
func (d *Device) Reset() {
	d.mu.Lock()
	d.simTime, d.kernels, d.flops, d.bytes = 0, 0, 0, 0
	d.relaunches, d.stragglerSeconds = 0, 0
	d.byCat = [numCategories]float64{}
	d.byKernel = make(map[string]*KernelStats)
	d.mu.Unlock()
}

// ComputeMemoryRatio returns accumulated FLOPs per byte, the metric of the
// paper's Figure 3(a).
func (d *Device) ComputeMemoryRatio() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bytes == 0 {
		return 0
	}
	return d.flops / d.bytes
}

// String describes the spec.
func (s Spec) String() string {
	return fmt.Sprintf("%s{%.0fTF simt, %.0fTF tc, %.0fGB/s, %d units}",
		s.Name, s.SIMTFLOPS/1e12, s.TensorCoreFLOPS/1e12, s.MemBandwidth/1e9, s.NumUnits)
}
