package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wisegraph/internal/serve"
	"wisegraph/internal/tensor"
)

// load is everything a serving run sends, materialised from the seed before
// any clock starts: the generator does no RNG draw, zipf search or
// allocation inside a timed phase, and the program only ever sees these
// generated inputs.
type load struct {
	probe []int32         // output-check vertex set
	warm  []int32         // count-based warm-up ids
	sat   [][]int32       // one wrapping id stream per closed-loop client
	paced []int32         // node id of each open-loop request
	due   []time.Duration // its due time, as an offset into the paced phase
}

// Distinct streams of one seed (splitmix64 finaliser over seed+stream).
func streamRNG(seed, stream uint64) *tensor.RNG {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return tensor.NewRNG(z ^ (z >> 31))
}

// picker draws node ids: uniform, or zipf with node id r drawn ∝
// 1/(r+1)^z — the id-is-rank convention of the repo's own load generator.
type picker struct {
	n   int
	cum []float64
}

func newPicker(n int, zipf float64) *picker {
	p := &picker{n: n}
	if zipf > 0 {
		p.cum = make([]float64, n)
		total := 0.0
		for r := range p.cum {
			total += 1 / math.Pow(float64(r+1), zipf)
			p.cum[r] = total
		}
	}
	return p
}

func (p *picker) pick(rng *tensor.RNG) int32 {
	if p.cum == nil {
		return int32(rng.Intn(p.n))
	}
	return int32(sort.SearchFloat64s(p.cum, rng.Float64()*p.cum[p.n-1]))
}

func (p *picker) fill(ids []int32, rng *tensor.RNG) []int32 {
	for i := range ids {
		ids[i] = p.pick(rng)
	}
	return ids
}

func genLoad(seed uint64, vertices int, w workload, sz sizes, paced time.Duration) *load {
	p := newPicker(vertices, w.zipf)
	l := &load{
		probe: newPicker(vertices, 0).fill(make([]int32, probeSet), streamRNG(seed, 1)),
		warm:  p.fill(make([]int32, max(w.warm/sz.warmDiv, clients)), streamRNG(seed, 2)),
		sat:   make([][]int32, clients),
	}
	for c := range l.sat {
		l.sat[c] = p.fill(make([]int32, sz.satStream), streamRNG(seed, 100+uint64(c)))
	}
	// Poisson arrivals at the workload's fixed rate.
	rng := streamRNG(seed, 3)
	for t := 0.0; ; {
		t += -math.Log(1-rng.Float64()) / w.rate
		if t >= paced.Seconds() {
			break
		}
		l.due = append(l.due, time.Duration(t*float64(time.Second)))
	}
	l.paced = p.fill(make([]int32, len(l.due)), streamRNG(seed, 4))
	return l
}

// predictFn sends one single-node request and reports how it ended.
type predictFn func(node int32) error

// shedBackoff is how long a closed-loop client sleeps after being shed, so
// a full queue is bounded retry pressure and not a busy spin.
const shedBackoff = 500 * time.Microsecond

// outcome counts how a phase's requests ended.
type outcome struct {
	completed, shed, errs uint64
	elapsed               time.Duration
}

func (o outcome) attempted() uint64 { return o.completed + o.shed + o.errs }

func (o *outcome) record(err error) (wasShed bool) {
	switch {
	case err == nil:
		o.completed++
	case errors.Is(err, serve.ErrOverloaded):
		o.shed++
		return true
	default: // deadline exceeded, draining, forward failure
		o.errs++
	}
	return false
}

func (o *outcome) merge(p outcome) {
	o.completed, o.shed, o.errs = o.completed+p.completed, o.shed+p.shed, o.errs+p.errs
}

// runCount sends every id once from `clients` closed-loop goroutines
// (client c takes ids c, c+clients, …): a warm-up that leaves the same
// cache state however fast the box is.
func runCount(ids []int32, do predictFn) outcome {
	per := make([]outcome, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ids); i += clients {
				if per[c].record(do(ids[i])) {
					time.Sleep(shedBackoff)
				}
			}
		}(c)
	}
	wg.Wait()
	o := outcome{elapsed: time.Since(t0)}
	for _, p := range per {
		o.merge(p)
	}
	return o
}

// closedResult is one saturation phase: the totals, and the completions
// that landed in each of its equal windows.
type closedResult struct {
	outcome
	window time.Duration
	perWin []float64
	speed  speedSamples
}

// windowRates is each window's completions per second, as measured.
func (r closedResult) windowRates() []float64 {
	rates := make([]float64, len(r.perWin))
	for i, n := range r.perWin {
		rates[i] = n / r.window.Seconds()
	}
	return rates
}

// ratesAtRefSpeed is each window's completions per second at reference
// speed: the measured rate times how much slower than nominal the reference
// kernel ran in that window (see speed.go).
func (r closedResult) ratesAtRefSpeed() []float64 {
	rates := r.windowRates()
	ms := float64(r.window) / 1e6
	for i := range rates {
		rates[i] *= r.speed.slowdown(float64(i)*ms, float64(i+1)*ms)
	}
	return rates
}

// runClosed is the saturation phase: one goroutine per stream, each sending
// its next request as soon as the previous one answers, for dur. Counters
// are per client and merged afterwards, so the generator adds no shared
// cache line to the path it measures.
func runClosed(streams [][]int32, dur time.Duration, windows int, clientDo func(client int) predictFn) closedResult {
	res := closedResult{window: dur / time.Duration(windows), perWin: make([]float64, windows)}
	per := make([]outcome, len(streams))
	perWin := make([][]uint32, len(streams))
	var wg sync.WaitGroup
	spd := startSpeedometer()
	t0 := time.Now()
	for c, ids := range streams {
		perWin[c] = make([]uint32, windows)
		wg.Add(1)
		go func(c int, ids []int32) {
			defer wg.Done()
			do := clientDo(c)
			answered := false
			for i := 0; ; i++ {
				// One clock read both closes the previous request's window
				// and decides whether to send another.
				since := time.Since(t0)
				if w := int(since / res.window); answered && w < windows {
					perWin[c][w]++
				}
				if since >= dur {
					return
				}
				err := do(ids[i%len(ids)])
				answered = err == nil
				if per[c].record(err) {
					time.Sleep(shedBackoff)
				}
			}
		}(c, ids)
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	res.speed = spd.stop()
	for c := range per {
		res.merge(per[c])
		for w, n := range perWin[c] {
			res.perWin[w] += float64(n)
		}
	}
	return res
}

// pacedResult holds one open-loop phase, sample by sample.
type pacedResult struct {
	outcome
	dueMs  []float64 // due offset of each completed request
	latMs  []float64 // its latency, timed from the due time
	lateUs []float64 // how late the dispatcher sent each request
	over   uint64    // completed, but slower than the workload's limit
	cpu    []cpuWindow
	speed  speedSamples
}

// cpuPerReq is each window's CPU per completed request, less what the
// speedometer itself burned: at reference speed, and as measured.
func (r pacedResult) cpuPerReq() (atRef, measured []float64) {
	for _, w := range r.cpu {
		if w.completed > 0 {
			ms := (w.cpuMs - r.speed.costMs(w.fromMs, w.toMs)) / float64(w.completed)
			measured = append(measured, ms)
			atRef = append(atRef, ms/r.speed.slowdown(w.fromMs, w.toMs))
		}
	}
	return atRef, measured
}

// cpuWindow is the process's user+sys CPU over one window of the paced
// phase and the requests completed in it.
type cpuWindow struct {
	fromMs, toMs float64 // the window, into the phase
	cpuMs        float64
	completed    uint64
}

// runPaced is the open loop: one dispatcher sends request i at due[i]
// whatever happened to request i-1, handing it to a pool of parked
// goroutines. Latency runs from the due time, not the send time, so a stall
// shows up in every request that was due while it lasted.
func runPaced(ids []int32, due []time.Duration, dur time.Duration, windows, pool int, limit time.Duration, do predictFn) pacedResult {
	n := len(ids)
	lat := make([]time.Duration, n)
	errs := make([]error, n)
	res := pacedResult{lateUs: make([]float64, n)}
	// Sized to the number of sends, so the dispatcher never blocks on a
	// slow program.
	ch := make(chan int32, n)
	var done atomic.Uint64
	var wg sync.WaitGroup
	spd := startSpeedometer()
	start := time.Now()
	for g := 0; g < pool; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				errs[i] = do(ids[i])
				lat[i] = time.Since(start) - due[i]
				done.Add(1)
			}
		}()
	}
	// The CPU sampler reads the process clock and the completion count at
	// each window boundary; a late tick only moves the boundary, both
	// readings still belong to the same instant.
	stop := make(chan struct{})
	sampled := make(chan []cpuWindow)
	go func() {
		var wins []cpuWindow
		tick := time.NewTicker(dur / time.Duration(windows))
		defer tick.Stop()
		t0, cpu0, done0 := time.Duration(0), cpuTime(), uint64(0)
		read := func() {
			t1, cpu1, done1 := time.Since(start), cpuTime(), done.Load()
			wins = append(wins, cpuWindow{fromMs: float64(t0) / 1e6, toMs: float64(t1) / 1e6,
				cpuMs: float64(cpu1-cpu0) / 1e6, completed: done1 - done0})
			t0, cpu0, done0 = t1, cpu1, done1
		}
		for {
			select {
			case <-tick.C:
				read()
			case <-stop:
				// A phase shorter than one tick still yields its one window.
				if len(wins) == 0 {
					read()
				}
				sampled <- wins
				return
			}
		}
	}()
	timer := newDueTimer()
	defer timer.close()
	for i := range ids {
		timer.sleepUntil(start.Add(due[i]))
		res.lateUs[i] = float64(time.Since(start)-due[i]) / 1e3
		ch <- int32(i)
	}
	close(ch)
	wg.Wait()
	res.elapsed = time.Since(start)
	close(stop)
	res.cpu = <-sampled
	res.speed = spd.stop()
	for i := range ids {
		res.record(errs[i])
		if errs[i] != nil {
			continue
		}
		res.dueMs = append(res.dueMs, float64(due[i])/1e6)
		res.latMs = append(res.latMs, float64(lat[i])/1e6)
		if lat[i] > limit {
			res.over++
		}
	}
	return res
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTicks reads the box's cumulative CPU ticks and the share of them the
// hypervisor gave to other tenants (Linux /proc/stat; zeros elsewhere).
func stolenTicks() (total, stolen uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var f [8]uint64 // user nice system idle iowait irq softirq steal
	fmt.Sscanf(string(raw), "cpu %d %d %d %d %d %d %d %d", &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7])
	for _, x := range f {
		total += x
	}
	return total, f[7]
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
