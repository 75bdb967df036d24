package obs

import (
	"fmt"
	"io"
	"sort"

	"wisegraph/internal/fault"
)

// PromWriter emits the Prometheus text exposition format (version 0.0.4)
// without any dependency on a client library. It tracks which metric
// families have had their # TYPE line written so callers can emit the
// same family under several label sets, and latches the first write
// error so call sites stay unchecked.
type PromWriter struct {
	w     io.Writer
	err   error
	typed map[string]struct{}
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, typed: make(map[string]struct{})}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// typeLine writes the # TYPE header once per metric family.
func (p *PromWriter) typeLine(name, typ string) {
	if _, ok := p.typed[name]; ok {
		return
	}
	p.typed[name] = struct{}{}
	p.printf("# TYPE %s %s\n", name, typ)
}

func (p *PromWriter) sample(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %g\n", name, v)
		return
	}
	p.printf("%s{%s} %g\n", name, labels, v)
}

// Counter emits one counter sample. labels is the raw pair list without
// braces (`kernel="gtask.fused"`), or empty.
func (p *PromWriter) Counter(name, labels string, v float64) {
	p.typeLine(name, "counter")
	p.sample(name, labels, v)
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name, labels string, v float64) {
	p.typeLine(name, "gauge")
	p.sample(name, labels, v)
}

// Histogram emits h as a Prometheus histogram in seconds: cumulative
// buckets at the power-of-two nanosecond bounds (empty leading/trailing
// buckets elided — any subset of bounds is legal as long as +Inf is
// present), then _sum and _count.
func (p *PromWriter) Histogram(name, labels string, h *Histogram) {
	counts, total, sumNs := h.Snapshot()
	p.typeLine(name, "histogram")
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for b, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		p.printf("%s_bucket{%s%sle=\"%g\"} %d\n",
			name, labels, sep, float64(BucketUpperNs(b))/1e9, cum)
	}
	p.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, total)
	p.sample(name+"_sum", labels, float64(sumNs)/1e9)
	p.sample(name+"_count", labels, float64(total))
}

// HistogramFromBuckets emits a histogram from explicit (bound, count)
// pairs — used for distributions that are not latency histograms, like
// the micro-batch size distribution. counts[i] is the number of
// observations with value <= bounds[i] and > bounds[i-1].
func (p *PromWriter) HistogramFromBuckets(name, labels string, bounds []float64, counts []uint64, sum float64) {
	p.typeLine(name, "histogram")
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if c == 0 && i != len(counts)-1 {
			continue
		}
		p.printf("%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, bounds[i], cum)
	}
	p.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	p.sample(name+"_sum", labels, sum)
	p.sample(name+"_count", labels, float64(cum))
}

// StageHistograms emits every stage's latency histogram under one family
// with a stage label.
func (p *PromWriter) StageHistograms(name string) {
	for s := Stage(0); s < NumStages; s++ {
		p.Histogram(name, fmt.Sprintf("stage=%q", s.String()), StageHistogram(s))
	}
}

// FaultCounters emits the active fault schedule's per-site draw and
// injection counters — nothing when no schedule is installed.
func (p *PromWriter) FaultCounters() {
	snap := fault.Snapshot()
	sites := make([]string, 0, len(snap))
	for site := range snap {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		c := snap[site]
		p.Counter("wisegraph_fault_draws_total", `site="`+site+`"`, float64(c.Draws))
		p.Counter("wisegraph_fault_injected_total", `site="`+site+`",kind="error"`, float64(c.Errors))
		p.Counter("wisegraph_fault_injected_total", `site="`+site+`",kind="corrupt"`, float64(c.Corrupts))
		p.Counter("wisegraph_fault_injected_total", `site="`+site+`",kind="latency"`, float64(c.Latencies))
	}
}
