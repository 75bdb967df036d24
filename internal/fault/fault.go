// Package fault is a process-global, deterministic fault injector: the
// chaos half of the resilience layer. Subsystems consult named sites on
// their hot paths (device kernel launch, collective exchange, serve batch
// execution, checkpoint I/O, train step); a schedule installed via Set —
// parsed from a -fault-spec flag or built by tests — decides, per draw,
// whether that operation fails, straggles, or detects corruption.
//
// Determinism is the whole point: the decision for draw n at site s under
// seed k is the pure function decide(k, hash(s), n), so identical seeds
// produce identical per-site fault sequences regardless of goroutine
// scheduling (concurrent callers race only for sequence numbers, never
// for the decision attached to each number). That is what lets the test
// battery assert that retries, failover and checkpoint recovery reproduce
// unfaulted numerics bit-for-bit.
//
// The disabled fast path is one atomic pointer load, so instrumented hot
// paths pay nothing in production.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names. Constants live here (the leaf package) so every subsystem
// can reference them without import cycles.
const (
	// SiteDeviceLaunch fires per simulated kernel launch (internal/device).
	SiteDeviceLaunch = "device.launch"
	// SiteExchange fires per peer fetch attempt in the distributed halo
	// exchange, at the simulated link (internal/dist.Engine.fetchPeer).
	SiteExchange = "dist.exchange"
	// SiteServeBatch fires per micro-batch forward attempt
	// (internal/serve.runBatch).
	SiteServeBatch = "serve.batch"
	// SiteCheckpoint fires per checkpoint save/load (internal/nn).
	SiteCheckpoint = "nn.checkpoint"
	// SiteTrainStep fires per training epoch/step (internal/train).
	SiteTrainStep = "train.step"
	// SiteShardRPC fires per router→shard RPC attempt, at the transport
	// (the Conn decorator internal/shard.faultConn).
	SiteShardRPC = "shard.rpc"
)

// Kind classifies an injected fault.
type Kind int

const (
	// KindError is a hard failure: the faulted operation reports an error.
	KindError Kind = iota
	// KindLatency is a straggler: the operation succeeds after a spike.
	KindLatency
	// KindCorrupt is detected corruption: the operation's payload fails
	// its integrity check and must be retried or rejected.
	KindCorrupt
	numKinds
)

// String names the kind as it appears in specs and metrics labels.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault describes one injected fault at one site.
type Fault struct {
	Site string
	Kind Kind
	// Seq is the site-local draw index that produced this fault.
	Seq uint64
	// Delay is the straggler spike for KindLatency faults (jittered
	// deterministically in [0.5, 1.5)× the site's configured delay).
	Delay time.Duration
}

// InjectedError is the error an injected KindError/KindCorrupt fault
// surfaces through the faulted operation's normal error path.
type InjectedError struct{ Fault Fault }

// Error formats the fault.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %v at %s (draw %d)", e.Fault.Kind, e.Fault.Site, e.Fault.Seq)
}

// IsInjected reports whether err (anywhere in its chain) came from the
// injector — tests and accounting use it to tell chaos from real bugs.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// SiteConfig sets the per-draw fault probabilities for one site. Rates
// are evaluated in order error, corrupt, latency over a single uniform
// draw, so their sum must stay ≤ 1.
type SiteConfig struct {
	ErrorRate   float64
	CorruptRate float64
	LatencyRate float64
	// Delay is the straggler spike magnitude for latency faults
	// (default 2ms).
	Delay time.Duration
}

// Schedule is a seed plus per-site configurations.
type Schedule struct {
	Seed  uint64
	Sites map[string]SiteConfig
}

// String renders the schedule in -fault-spec syntax.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	names := make([]string, 0, len(s.Sites))
	for name := range s.Sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := s.Sites[name]
		var kvs []string
		if c.ErrorRate > 0 {
			kvs = append(kvs, fmt.Sprintf("error=%g", c.ErrorRate))
		}
		if c.CorruptRate > 0 {
			kvs = append(kvs, fmt.Sprintf("corrupt=%g", c.CorruptRate))
		}
		if c.LatencyRate > 0 {
			kvs = append(kvs, fmt.Sprintf("latency=%g", c.LatencyRate))
		}
		if c.Delay > 0 {
			kvs = append(kvs, fmt.Sprintf("delay=%v", c.Delay))
		}
		parts = append(parts, name+":"+strings.Join(kvs, ","))
	}
	return strings.Join(parts, ";")
}

// Parse reads a -fault-spec string:
//
//	seed=42;dist.exchange:error=0.05,latency=0.1,delay=2ms;serve.batch:error=0.02
//
// Clauses are semicolon-separated. "seed=N" seeds the decision stream
// (default 1). A site clause is "site:key=value,...": keys error, corrupt
// and latency are per-draw probabilities in [0,1]; delay is the straggler
// spike duration. An empty spec returns nil (injection disabled).
func Parse(spec string) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := &Schedule{Seed: 1, Sites: map[string]SiteConfig{}}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %w", v, err)
			}
			s.Seed = seed
			continue
		}
		site, kvs, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q is neither seed=N nor site:rates", clause)
		}
		site = strings.TrimSpace(site)
		if site == "" {
			return nil, fmt.Errorf("fault: empty site name in %q", clause)
		}
		cfg := s.Sites[site]
		for _, kv := range strings.Split(kvs, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("fault: bad key=value %q in site %s", kv, site)
			}
			switch key {
			case "error", "corrupt", "latency":
				rate, err := strconv.ParseFloat(val, 64)
				if err != nil || rate < 0 || rate > 1 {
					return nil, fmt.Errorf("fault: %s rate %q must be in [0,1]", key, val)
				}
				switch key {
				case "error":
					cfg.ErrorRate = rate
				case "corrupt":
					cfg.CorruptRate = rate
				case "latency":
					cfg.LatencyRate = rate
				}
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("fault: bad delay %q", val)
				}
				cfg.Delay = d
			default:
				return nil, fmt.Errorf("fault: unknown key %q in site %s (want error, corrupt, latency, delay)", key, site)
			}
		}
		if sum := cfg.ErrorRate + cfg.CorruptRate + cfg.LatencyRate; sum > 1 {
			return nil, fmt.Errorf("fault: site %s rates sum to %g > 1", site, sum)
		}
		s.Sites[site] = cfg
	}
	if len(s.Sites) == 0 {
		return nil, fmt.Errorf("fault: spec %q names no sites", spec)
	}
	return s, nil
}

// siteRuntime is the live per-site state: an atomic draw counter and
// injection counters per kind.
type siteRuntime struct {
	cfg      SiteConfig
	hash     uint64
	seq      atomic.Uint64
	injected [numKinds]atomic.Uint64
}

type runtime struct {
	seed  uint64
	sites map[string]*siteRuntime
}

var active atomic.Pointer[runtime]

const defaultDelay = 2 * time.Millisecond

// Set installs s as the process-global schedule (nil disables injection).
// Draw counters start at zero, so two runs that Set the same schedule see
// the same fault sequence.
func Set(s *Schedule) {
	if s == nil || len(s.Sites) == 0 {
		active.Store(nil)
		return
	}
	rt := &runtime{seed: s.Seed, sites: make(map[string]*siteRuntime, len(s.Sites))}
	for name, cfg := range s.Sites {
		if cfg.Delay <= 0 {
			cfg.Delay = defaultDelay
		}
		rt.sites[name] = &siteRuntime{cfg: cfg, hash: hashString(name)}
	}
	active.Store(rt)
}

// Enabled reports whether any schedule is installed.
func Enabled() bool { return active.Load() != nil }

// WithSchedule installs s, runs fn, and restores the previous schedule —
// the test API. The previous runtime (with its draw counters) is restored
// as-is, so an enclosing schedule keeps its sequence position.
func WithSchedule(s *Schedule, fn func()) {
	prev := active.Load()
	Set(s)
	defer active.Store(prev)
	fn()
}

// Check consults the active schedule for one draw at site. It returns nil
// (almost always, and always when no schedule is installed) or the fault
// that fires at this draw. Callers decide what a kind means for them;
// latency faults' sleeping is the caller's job too (or use Sleep).
func Check(site string) *Fault {
	rt := active.Load()
	if rt == nil {
		return nil
	}
	s := rt.sites[site]
	if s == nil {
		return nil
	}
	seq := s.seq.Add(1) - 1
	u := unit(mix3(rt.seed, s.hash, seq))
	c := s.cfg
	var kind Kind
	switch {
	case u < c.ErrorRate:
		kind = KindError
	case u < c.ErrorRate+c.CorruptRate:
		kind = KindCorrupt
	case u < c.ErrorRate+c.CorruptRate+c.LatencyRate:
		kind = KindLatency
	default:
		return nil
	}
	s.injected[kind].Add(1)
	f := &Fault{Site: site, Kind: kind, Seq: seq}
	if kind == KindLatency {
		// Deterministic jitter in [0.5, 1.5)× the configured spike.
		j := 0.5 + unit(mix3(rt.seed^0x6a697474, s.hash, seq))
		f.Delay = time.Duration(float64(c.Delay) * j)
	}
	return f
}

// CheckErr is Check for call sites whose only failure mode is an error
// return: latency faults are slept through here, error and corruption
// faults come back as an *InjectedError.
func CheckErr(site string) error {
	f := Check(site)
	if f == nil {
		return nil
	}
	if f.Kind == KindLatency {
		time.Sleep(f.Delay)
		return nil
	}
	return &InjectedError{Fault: *f}
}

// Err wraps the fault as an *InjectedError.
func (f *Fault) Err() error { return &InjectedError{Fault: *f} }

// Counts is a per-site injection snapshot.
type Counts struct {
	Draws     uint64
	Errors    uint64
	Corrupts  uint64
	Latencies uint64
}

// Snapshot returns per-site draw and injection counts for the active
// schedule (nil when disabled). Serving /metrics exports these.
func Snapshot() map[string]Counts {
	rt := active.Load()
	if rt == nil {
		return nil
	}
	out := make(map[string]Counts, len(rt.sites))
	for name, s := range rt.sites {
		out[name] = Counts{
			Draws:     s.seq.Load(),
			Errors:    s.injected[KindError].Load(),
			Corrupts:  s.injected[KindCorrupt].Load(),
			Latencies: s.injected[KindLatency].Load(),
		}
	}
	return out
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix3 collapses (seed, site, seq) into one well-mixed 64-bit value via
// two rounds of splitmix64 finalization.
func mix3(seed, site, seq uint64) uint64 {
	x := seed ^ rot(site, 23) ^ rot(seq, 47)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rot(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// unit maps 64 random bits to a float64 in [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }
