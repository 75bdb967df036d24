package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"wisegraph/internal/obs"
)

// The harness-side tracer. A traced run wraps every call the benchmark
// makes into a layer of the program in a span {name, start, end, parent,
// request id}; spans live in a pre-allocated slice until the phases end.
// A nil *recorder is the untraced run: begin and end do nothing, so the
// end-to-end numbers are measured with no tracing at all.

const (
	spanCap = 1 << 19 // spans kept in memory (≈ 25 MB); later ones are counted, not stored
	// spanReserve slots are kept from request spans, so a phase that
	// completes millions of requests cannot crowd out the probes after it.
	spanReserve = 1 << 12
	// requestSpanBudget is how many request spans the traced saturation
	// phase may record; the paced phase's (known count) and the probes'
	// share the rest.
	requestSpanBudget = 1 << 18
	// traceFileEvents caps the request spans written out: the cached
	// workload alone completes > 10^5 requests a second.
	traceFileEvents = 20_000
	obsRing         = 1 << 14
)

type spanRec struct {
	name       string
	parent     int32
	req        uint64
	start, end int64 // ns since the recorder's epoch
}

type recorder struct {
	epoch   time.Time
	spans   []spanRec
	next    atomic.Int64
	dropped atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]spanRec, spanCap)}
}

// tracedClients is how many closed-loop clients get a span per request in
// the traced saturation phase, given how many requests each completed in the
// untraced one (doubled, for headroom). A client's spans lie end to end, so
// one client's already cover the phase; all 32 at 10^5 req/s would overflow.
func tracedClients(perClient uint64) int {
	return int(min(clients, max(1, requestSpanBudget/max(2*perClient, 1))))
}

// begin opens a span and returns its handle (-1 when untraced or full).
// Each handle is a private slot, so concurrent clients never share one;
// readers run only after the goroutines that wrote have been waited for.
func (r *recorder) begin(name string, parent int32, req uint64) int32 {
	if r == nil {
		return -1
	}
	limit := int64(len(r.spans))
	if req != 0 {
		limit -= spanReserve
	}
	if r.next.Load() >= limit {
		r.dropped.Add(1)
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = spanRec{name: name, parent: parent, req: req, start: int64(time.Since(r.epoch))}
	return int32(i)
}

func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
}

// span times fn as a child of parent.
func (r *recorder) span(name string, parent int32, fn func()) time.Duration {
	h := r.begin(name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(h)
	return d
}

func (r *recorder) recorded() []spanRec {
	return r.spans[:min(r.next.Load(), int64(len(r.spans)))]
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes folds the spans by name. A span's self time is its duration
// minus the part of that interval its children cover (children of one
// phase overlap — 32 clients — so the cover is the union, not the sum).
func (r *recorder) selfTimes() []layerTime {
	spans := r.recorded()
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range spans {
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			byName[s.name] = lt
		}
		dur := s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered, reach int64 = 0, s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		lt.count++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(dur - covered)
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

// writeTrace writes the harness spans and the program's own obs ring as
// one Chrome trace-event file (pid 1 = harness, pid 2 = obs stages). It
// runs after every phase has ended.
func (r *recorder) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	event := func(pid int, name string, tid uint64, startNs, durNs int64, id int, parent int32) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, `{"name":%q,"cat":"wisegraph","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d}}`,
			name, float64(startNs)/1e3, float64(durNs)/1e3, pid, tid, id, parent)
		bw.WriteByte('\n')
	}
	// Phase, set-up and probe spans first, all of them; then the request
	// spans, thinned evenly so the file covers every traced phase.
	spans := r.recorded()
	requests := 0
	for i, s := range spans {
		if s.req == 0 {
			event(1, s.name, uint64(i)+1<<32, s.start, s.end-s.start, i, s.parent) // a row of its own
		} else {
			requests++
		}
	}
	stride, seen := (requests+traceFileEvents-1)/traceFileEvents, 0
	for i, s := range spans {
		if s.req == 0 {
			continue
		}
		if seen%stride == 0 {
			event(1, s.name, s.req, s.start, s.end-s.start, i, s.parent)
		}
		seen++
	}
	for _, o := range obs.Spans() {
		event(2, o.Stage.String(), o.ID, int64(o.Start), int64(o.Dur), -1, -1)
	}
	fmt.Fprintf(bw, `],"otherData":{"harness_spans":%d,"harness_spans_dropped":%d}}`+"\n", len(spans), r.dropped.Load())
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
