package main

import (
	"math"
	"sync"
	"time"
)

// The box this runs on changes speed under the program: the same request,
// repeated on one thread, takes 45 ms for minutes, then 56 ms for minutes,
// with seconds at 65 ms in between, while the guest sees no steal — its
// vCPUs share physical cores with other tenants. A 20 s run sits inside one
// such mode, so no statistic over the run's own windows removes it.
//
// The speedometer is the benchmark's answer: a fixed piece of arithmetic in
// the benchmark's own code (never the program's, so no change to the program
// moves it), timed twenty times a second on the same Ps, next to the work it
// calibrates. Throughput and CPU cost — the metrics that are nothing but CPU
// speed — are reported at reference speed: multiplied or divided by how much
// slower than refNominalMs the kernel ran in the same window. Latencies are
// not: they contain timers and queueing that do not scale with the CPU.
//
// refNominalMs is the kernel's time on the defining box when undisturbed, so
// that on a quiet box the normalised figures read as measured.
const refNominalMs = 0.64

const (
	refM, refK, refN = 64, 128, 64 // ≈ 80 KB of operands: stays in L1/L2
	refEvery         = 50 * time.Millisecond
)

// speedometer times the reference kernel on a ticker until stopped. The
// kernel runs once untimed, to pull its operands back into cache after the
// program has had the core, and twice timed: ≈ 0.5 ms every 50 ms, 1 % of
// one core.
type speedometer struct {
	a, b, c []float32
	done    chan struct{}
	wg      sync.WaitGroup
	speed   speedSamples
}

// speedSamples are the reference timings of one phase.
type speedSamples struct {
	offMs []float64 // when each sample was taken, into the phase
	durMs []float64 // what the timed kernel passes took
}

func startSpeedometer() *speedometer {
	s := &speedometer{
		a: make([]float32, refM*refK), b: make([]float32, refK*refN), c: make([]float32, refM*refN),
		done: make(chan struct{}),
	}
	for i := range s.a {
		s.a[i] = float32(i%7) * 0.25
	}
	for i := range s.b {
		s.b[i] = float32(i%5) * 0.5
	}
	start := time.Now()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				s.kernel()
				t0 := time.Now()
				s.kernel()
				s.kernel()
				s.speed.durMs = append(s.speed.durMs, float64(time.Since(t0))/1e6)
				s.speed.offMs = append(s.speed.offMs, float64(t0.Sub(start))/1e6)
			}
		}
	}()
	return s
}

// kernel is C = A·B in the row-times-panel form of the program's own matmul:
// independent multiply-adds the core can overlap, so it slows down with the
// program when a neighbour takes the core's other thread.
func (s *speedometer) kernel() {
	for i := 0; i < refM; i++ {
		ci := s.c[i*refN : (i+1)*refN]
		clear(ci)
		for p := 0; p < refK; p++ {
			av := s.a[i*refK+p]
			for j, bv := range s.b[p*refN : (p+1)*refN] {
				ci[j] += av * bv
			}
		}
	}
}

// stop ends the sampling and returns the phase's samples.
func (s *speedometer) stop() speedSamples {
	close(s.done)
	s.wg.Wait()
	return s.speed
}

// slowdown is how many times slower than nominal the reference kernel ran
// between lo and hi ms into the phase: the median of the samples taken
// there, or of the whole phase when the span holds fewer than three (a
// freeze). 1 when the phase has no sample at all.
func (sp speedSamples) slowdown(loMs, hiMs float64) float64 {
	var in []float64
	for i, off := range sp.offMs {
		if off >= loMs && off < hiMs {
			in = append(in, sp.durMs[i])
		}
	}
	if len(in) < 3 {
		in = sp.durMs
	}
	if len(in) == 0 {
		return 1
	}
	return median(in) / refNominalMs
}

// costMs is the CPU the speedometer itself used between lo and hi: three
// kernel passes a sample, two of them timed.
func (sp speedSamples) costMs(loMs, hiMs float64) float64 {
	var ms float64
	for i, off := range sp.offMs {
		if off >= loMs && off < hiMs {
			ms += 1.5 * sp.durMs[i]
		}
	}
	return ms
}

// overall is the slowdown over the whole phase.
func (sp speedSamples) overall() float64 { return sp.slowdown(0, math.Inf(1)) }

// latencyAtRefSpeed scales a serving latency to reference speed. The one
// timer on a request's path — the batcher's fill delay, which at the paced
// rates every request waits out — does not run faster on a faster box, so
// only what the latency holds beyond it is scaled.
func latencyAtRefSpeed(ms, slowdown float64) float64 {
	return fillDelayMs + (ms-fillDelayMs)/slowdown
}

// timedAtRefSpeed runs fn (a set-up: CPU work on one goroutine) under a
// speedometer of its own and returns its wall time in seconds, as measured
// and at reference speed.
func timedAtRefSpeed(fn func()) (measured, atRef float64) {
	spd := startSpeedometer()
	t0 := time.Now()
	fn()
	measured = time.Since(t0).Seconds()
	return measured, measured / spd.stop().overall()
}
