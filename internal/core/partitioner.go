package core

import (
	"math"

	"wisegraph/internal/graph"
	"wisegraph/internal/parallel"
	"wisegraph/internal/tensor"
)

// This file is the optimized partition engine behind PartitionGraph. It
// replaces the reference implementation's two super-linear pieces:
//
//   - the comparator sort.SliceStable over key columns becomes a stable
//     LSD radix sort over the precomputed int32 columns (8- or 16-bit
//     digits, histogram passes parallelized over fixed edge segments);
//   - the per-edge map[int32]struct{} unique trackers become epoch-stamped
//     dense arrays: attribute values are bounded (ids by V or E, types by
//     NumTypes, degrees by the max degree), so membership is one array
//     read against a generation counter and "clear" is gen++.
//
// The greedy scan itself is split across workers on fixed segments of the
// sorted order. Each worker scans its segment as if a task started at its
// first position; a sequential stitch pass then repairs the seams exactly:
// it re-scans the open task crossing each seam and, as soon as one of its
// task closes lands on a position the segment's local scan also treated as
// a task start, the greedy process — which is memoryless from any task
// start — is provably identical from there on, so the rest of the
// segment's local boundaries and unique counts are adopted wholesale.
// The result is byte-identical to the sequential specification the tests
// keep (PartitionGraphReference in reference_test.go) for every plan and
// worker count (see partition_parity_test.go).
//
// All scratch ([]int32 columns, radix histograms, stamp arrays) comes from
// internal/tensor's int32 recycle pool. A Partitioner retains it between
// calls, so steady-state repartitioning (sampled-training pipelines, the
// joint search's plan sweep) allocates only the returned Partition.

// Partitioner partitions graphs while reusing internal scratch buffers
// across calls. Not safe for concurrent use; create one per goroutine
// (the package-level PartitionGraph draws from a sync.Pool of them).
type Partitioner struct {
	cols [][]int32 // sort-key value columns
	tmp  []int32   // radix ping-pong buffer
	hist []int32   // radix histograms (per-segment concatenated)

	// Persistent stamp arrays with monotonically increasing generations:
	// a value is "in the current task" iff stamps[v] == gen. Generations
	// never reset while a buffer lives, so stale stamps from earlier
	// calls (or earlier tasks) can never alias the current generation.
	stamps [NumAttrs][]int32
	gens   [NumAttrs]int32
}

// NewPartitioner returns an empty Partitioner; scratch is acquired from
// the shared pool on first use and retained between calls.
func NewPartitioner() *Partitioner { return &Partitioner{} }

// Release returns all retained scratch to the shared pool. The
// Partitioner remains usable; the next call re-acquires buffers.
func (pt *Partitioner) Release() {
	for i := range pt.cols {
		tensor.PutI32(pt.cols[i])
		pt.cols[i] = nil
	}
	pt.cols = pt.cols[:0]
	tensor.PutI32(pt.tmp)
	pt.tmp = nil
	tensor.PutI32(pt.hist)
	pt.hist = nil
	for a := range pt.stamps {
		tensor.PutI32(pt.stamps[a])
		pt.stamps[a] = nil
		pt.gens[a] = 0
	}
}

// Partition applies plan to g exactly like PartitionGraph (it is its
// implementation) while reusing this Partitioner's scratch buffers.
func (pt *Partitioner) Partition(g *graph.Graph, plan GraphPlan, statAttrs []Attr) *Partition {
	e := g.NumEdges()
	reader := NewAttrReader(g)
	key := sortKey(plan)

	order := make([]int32, e)
	parallel.ForRange(e, 1<<15, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			order[i] = int32(i)
		}
	})

	// Materialize key columns once (they feed both the sort and the scan)
	// and radix-sort the identity order into the plan's edge order.
	colOf := map[Attr][]int32{}
	if len(key) > 0 && e > 1 {
		for i, a := range key {
			if i < len(pt.cols) {
				pt.cols[i] = growI32(pt.cols[i], e)
			} else {
				pt.cols = append(pt.cols, tensor.GetI32(e))
			}
			col := pt.cols[i]
			attr := a
			parallel.ForRange(e, 1<<14, func(lo, hi int) {
				for ei := lo; ei < hi; ei++ {
					col[ei] = reader.Value(attr, ei)
				}
			})
			colOf[a] = col
		}
		pt.radixSort(order, pt.cols[:len(key)])
	}

	// Tracker configuration: statAttrs plus restricted attrs, in ascending
	// attribute order (the order per-task Uniq rows are emitted in).
	var want [NumAttrs]bool
	for _, a := range statAttrs {
		want[a] = true
	}
	for _, r := range plan.Restrictions {
		want[r.Attr] = true
	}
	var cfgs []trackCfg
	for a := Attr(0); a < NumAttrs; a++ {
		if !want[a] {
			continue
		}
		limit := int32(0)
		for _, r := range plan.Restrictions {
			if r.Attr == a && r.Kind == Exact {
				limit = int32(r.Limit)
			}
		}
		cfgs = append(cfgs, trackCfg{attr: a, limit: limit, col: colOf[a], bound: attrBound(reader, g, a)})
	}

	p := &Partition{Plan: plan, Graph: g, Order: order}
	if e == 0 {
		p.TaskOffsets = []int32{0}
		for _, c := range cfgs {
			p.Uniq[c.attr] = []int32{}
		}
		return p
	}
	offsets, uniq := pt.scan(reader, order, cfgs, e)
	p.TaskOffsets = offsets
	for i, c := range cfgs {
		p.Uniq[c.attr] = uniq[i]
	}
	return p
}

// trackCfg describes one tracked attribute for a scan.
type trackCfg struct {
	attr  Attr
	limit int32   // 0 ⇒ stats only, no closing
	col   []int32 // cached key column, nil ⇒ read through AttrReader
	bound int     // stamp-array size (max value + 1); 0 for edge-id
}

// attrBound returns an exclusive upper bound on the attribute's values.
func attrBound(reader *AttrReader, g *graph.Graph, a Attr) int {
	switch a {
	case AttrEdgeID:
		return 0 // counter-tracked: every edge id is distinct
	case AttrSrcID, AttrDstID:
		return g.NumVertices
	case AttrEdgeType:
		if g.NumTypes < 1 {
			return 1
		}
		return g.NumTypes
	case AttrSrcDegree:
		return int(maxI32(reader.outDeg)) + 1
	case AttrDstDegree:
		return int(maxI32(reader.inDeg)) + 1
	default:
		return g.NumVertices
	}
}

func maxI32(xs []int32) int32 {
	var m int32
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// growI32 resizes buf to length n, reallocating from the pool when the
// capacity is insufficient. Contents are unspecified; callers overwrite.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	tensor.PutI32(buf)
	return tensor.GetI32(n)
}

// ---- radix sort ----

const (
	radixBitsLarge  = 16
	radixBitsSmall  = 8
	radixSmallLimit = 1 << 14 // below this, 8-bit digits beat histogram cost
	segMinEdges     = 1 << 14 // minimum edges per parallel segment
)

// segmentsFor picks a fixed segment count for e items: bounded by the
// worker cap and by a minimum per-segment size.
func segmentsFor(e int) int {
	s := parallel.MaxWorkers()
	if m := e / segMinEdges; m < s {
		s = m
	}
	if s < 1 {
		s = 1
	}
	return s
}

// radixSort stably sorts order by the concatenated columns (first column
// most significant; ties keep the current — identity — order, matching
// the reference comparator's final edge-id tie-break). Values must be
// non-negative, which holds for every attribute (ids, types, degrees).
func (pt *Partitioner) radixSort(order []int32, cols [][]int32) {
	e := len(order)
	pt.tmp = growI32(pt.tmp, e)
	bits := radixBitsLarge
	if e < radixSmallLimit {
		bits = radixBitsSmall
	}
	radix := 1 << bits
	cur, alt := order, pt.tmp
	for c := len(cols) - 1; c >= 0; c-- {
		col := cols[c]
		maxv := maxI32(col)
		if maxv == 0 {
			continue // constant column: stability keeps the order as is
		}
		for shift := uint(0); shift == 0 || maxv>>shift != 0; shift += uint(bits) {
			pt.countingPass(cur, alt, col, shift, radix)
			cur, alt = alt, cur
		}
	}
	if len(cur) > 0 && &cur[0] != &order[0] {
		copy(order, cur)
	}
}

// countingPass scatters src into dst ordered stably by the digit
// (col[x]>>shift)&(radix-1). Large inputs histogram and scatter in
// parallel over fixed segments; the per-(segment, digit) slot ranges are
// disjoint and ordered segment-major, so the output is identical to the
// sequential pass for any worker count.
func (pt *Partitioner) countingPass(src, dst, col []int32, shift uint, radix int) {
	e := len(src)
	mask := int32(radix - 1)
	segs := segmentsFor(e)
	if segs <= 1 {
		pt.hist = growI32(pt.hist, radix)
		hist := pt.hist
		clear(hist)
		for _, x := range src {
			hist[(col[x]>>shift)&mask]++
		}
		run := int32(0)
		for d := range hist {
			c := hist[d]
			hist[d] = run
			run += c
		}
		for _, x := range src {
			d := (col[x] >> shift) & mask
			dst[hist[d]] = x
			hist[d]++
		}
		return
	}
	per := (e + segs - 1) / segs
	segs = (e + per - 1) / per // re-derive so the last segment is non-empty
	pt.hist = growI32(pt.hist, segs*radix)
	hist := pt.hist
	clear(hist)
	parallel.For(segs, 1, func(s int) {
		h := hist[s*radix : (s+1)*radix]
		lo, hi := s*per, (s+1)*per
		if hi > e {
			hi = e
		}
		for _, x := range src[lo:hi] {
			h[(col[x]>>shift)&mask]++
		}
	})
	run := int32(0)
	for d := 0; d < radix; d++ {
		for s := 0; s < segs; s++ {
			i := s*radix + d
			c := hist[i]
			hist[i] = run
			run += c
		}
	}
	parallel.For(segs, 1, func(s int) {
		h := hist[s*radix : (s+1)*radix]
		lo, hi := s*per, (s+1)*per
		if hi > e {
			hi = e
		}
		for _, x := range src[lo:hi] {
			d := (col[x] >> shift) & mask
			dst[h[d]] = x
			h[d]++
		}
	})
}

// ---- greedy scan ----

// scanTrack is one attribute's unique tracker during a scan.
type scanTrack struct {
	attr    Attr
	limit   int32
	col     []int32
	isCount bool // edge-id: all values distinct, a counter suffices
	stamps  []int32
	gen     int32
	count   int32
}

func (t *scanTrack) value(reader *AttrReader, edge int32) int32 {
	if t.col != nil {
		return t.col[edge]
	}
	return reader.Value(t.attr, int(edge))
}

// scanState is one scanner's tracker set (a worker's or the stitcher's).
type scanState struct {
	tracks []scanTrack
}

// newTask resets every tracker for a fresh task (gen++ is the O(1) clear).
func (st *scanState) newTask() {
	for i := range st.tracks {
		t := &st.tracks[i]
		t.gen++
		t.count = 0
	}
}

// violates reports whether adding edge would exceed an Exact limit.
func (st *scanState) violates(reader *AttrReader, edge int32) bool {
	for i := range st.tracks {
		t := &st.tracks[i]
		if t.limit == 0 {
			continue
		}
		if t.isCount {
			if t.count >= t.limit {
				return true
			}
			continue
		}
		if v := t.value(reader, edge); t.stamps[v] != t.gen && t.count >= t.limit {
			return true
		}
	}
	return false
}

// add records edge in every tracker.
func (st *scanState) add(reader *AttrReader, edge int32) {
	for i := range st.tracks {
		t := &st.tracks[i]
		if t.isCount {
			t.count++
			continue
		}
		if v := t.value(reader, edge); t.stamps[v] != t.gen {
			t.stamps[v] = t.gen
			t.count++
		}
	}
}

// segOut collects one segment's locally closed tasks: boundary positions
// plus, per tracker, the closed task's unique count.
type segOut struct {
	closes []int32
	uniq   [][]int32
}

func newSegOut(tracks int) *segOut {
	return &segOut{uniq: make([][]int32, tracks)}
}

func (o *segOut) close(st *scanState, pos int32) {
	o.closes = append(o.closes, pos)
	for i := range st.tracks {
		o.uniq[i] = append(o.uniq[i], st.tracks[i].count)
	}
}

// scanSegment runs the greedy scan over positions [lo, hi) of order,
// assuming a task starts at lo with st freshly reset. forceEnd closes the
// trailing task at hi (used by the final segment, where hi is the edge
// count — mirroring the reference's unconditional final close).
func scanSegment(st *scanState, reader *AttrReader, order []int32, lo, hi int, forceEnd bool, out *segOut) {
	st.newTask()
	start := lo
	for pos := lo; pos < hi; pos++ {
		edge := order[pos]
		if pos > start && st.violates(reader, edge) {
			out.close(st, int32(pos))
			st.newTask()
			start = pos
		}
		st.add(reader, edge)
	}
	if forceEnd && hi > start {
		out.close(st, int32(hi))
	}
}

// stitchState builds a scanState over the Partitioner's persistent stamp
// buffers, growing them (zero-filled) as needed and continuing their
// generation counters.
func (pt *Partitioner) stitchState(cfgs []trackCfg, e int) *scanState {
	st := &scanState{tracks: make([]scanTrack, len(cfgs))}
	for i, c := range cfgs {
		t := &st.tracks[i]
		t.attr, t.limit, t.col = c.attr, c.limit, c.col
		if c.attr == AttrEdgeID {
			t.isCount = true
			continue
		}
		s := pt.stamps[c.attr]
		switch {
		case cap(s) < c.bound:
			tensor.PutI32(s)
			s = tensor.GetI32(c.bound) // zero-filled
			pt.gens[c.attr] = 0
		case len(s) < c.bound:
			old := len(s)
			s = s[:c.bound]
			clear(s[old:]) // pool capacity beyond the old length is stale
		}
		// A call closes at most e+1 tasks; re-zero if gen could overflow.
		if pt.gens[c.attr] > math.MaxInt32-int32(e)-2 {
			clear(s)
			pt.gens[c.attr] = 0
		}
		pt.stamps[c.attr] = s
		t.stamps = s
		t.gen = pt.gens[c.attr]
	}
	return st
}

// saveGens persists the stitch state's generations back to the
// Partitioner so the next call continues (never reuses) them.
func (pt *Partitioner) saveGens(st *scanState) {
	for i := range st.tracks {
		if t := &st.tracks[i]; !t.isCount {
			pt.gens[t.attr] = t.gen
		}
	}
}

// newWorkerState builds a transient scanState with pooled (zero-filled)
// stamp buffers; release returns them.
func newWorkerState(cfgs []trackCfg) *scanState {
	st := &scanState{tracks: make([]scanTrack, len(cfgs))}
	for i, c := range cfgs {
		t := &st.tracks[i]
		t.attr, t.limit, t.col = c.attr, c.limit, c.col
		if c.attr == AttrEdgeID {
			t.isCount = true
			continue
		}
		t.stamps = tensor.GetI32(c.bound)
	}
	return st
}

func (st *scanState) release() {
	for i := range st.tracks {
		if t := &st.tracks[i]; !t.isCount {
			tensor.PutI32(t.stamps)
			t.stamps = nil
		}
	}
}

// scan produces the task offsets ([0, ..., e]) and per-tracker unique
// counts for the sorted order. e must be > 0.
func (pt *Partitioner) scan(reader *AttrReader, order []int32, cfgs []trackCfg, e int) ([]int32, [][]int32) {
	anyExact := false
	for _, c := range cfgs {
		if c.limit > 0 {
			anyExact = true
			break
		}
	}
	if !anyExact {
		// No Exact restriction ⇒ a single task holding every edge; the
		// per-attribute stats are global distinct counts, computed with
		// one stamp pass per tracker (trackers run concurrently).
		st := pt.stitchState(cfgs, e)
		st.newTask()
		parallel.For(len(st.tracks), 1, func(i int) {
			t := &st.tracks[i]
			if t.isCount {
				t.count = int32(e)
				return
			}
			for ei := 0; ei < e; ei++ {
				var v int32
				if t.col != nil {
					v = t.col[ei]
				} else {
					v = reader.Value(t.attr, ei)
				}
				if t.stamps[v] != t.gen {
					t.stamps[v] = t.gen
					t.count++
				}
			}
		})
		uniq := make([][]int32, len(cfgs))
		for i := range uniq {
			uniq[i] = []int32{st.tracks[i].count}
		}
		pt.saveGens(st)
		return []int32{0, int32(e)}, uniq
	}

	segs := segmentsFor(e)
	if segs <= 1 {
		st := pt.stitchState(cfgs, e)
		out := newSegOut(len(cfgs))
		scanSegment(st, reader, order, 0, e, true, out)
		pt.saveGens(st)
		offsets := make([]int32, 0, len(out.closes)+1)
		offsets = append(offsets, 0)
		offsets = append(offsets, out.closes...)
		return offsets, out.uniq
	}

	per := (e + segs - 1) / segs
	segs = (e + per - 1) / per // last segment must be non-empty
	outs := make([]*segOut, segs)
	parallel.For(segs, 1, func(s int) {
		lo, hi := s*per, (s+1)*per
		if hi > e {
			hi = e
		}
		st := newWorkerState(cfgs)
		out := newSegOut(len(cfgs))
		scanSegment(st, reader, order, lo, hi, s == segs-1, out)
		st.release()
		outs[s] = out
	})
	return pt.stitch(reader, order, cfgs, outs, per, e)
}

// stitch repairs segment seams sequentially and assembles the global
// offsets and unique counts. A segment whose start coincides with the
// current task start is adopted wholesale; otherwise the open task is
// re-scanned until one of its closes lands on a position the segment's
// local scan treated as a task start — from a shared task start the
// greedy process is deterministic, so the segment's remaining local
// results are exact and adopted without re-scanning.
func (pt *Partitioner) stitch(reader *AttrReader, order []int32, cfgs []trackCfg, outs []*segOut, per, e int) ([]int32, [][]int32) {
	st := pt.stitchState(cfgs, e)
	offsets := []int32{0}
	uniq := make([][]int32, len(cfgs))
	for i := range uniq {
		uniq[i] = []int32{}
	}
	adopt := func(out *segOut, from int) {
		offsets = append(offsets, out.closes[from:]...)
		for i := range uniq {
			uniq[i] = append(uniq[i], out.uniq[i][from:]...)
		}
	}
	closeGlobal := func(pos int32) {
		offsets = append(offsets, pos)
		for i := range uniq {
			uniq[i] = append(uniq[i], st.tracks[i].count)
		}
	}

	segs := len(outs)
	cur := 0 // start position of the current open task
	for s := 0; s < segs; s++ {
		lo, hi := s*per, (s+1)*per
		if hi > e {
			hi = e
		}
		out := outs[s]
		if cur == lo {
			// Aligned: the local scan's assumption held exactly.
			adopt(out, 0)
			if n := len(out.closes); n > 0 {
				cur = int(out.closes[n-1])
			}
			continue
		}
		// Re-scan the open task from cur; hand off to the local results at
		// the first close that matches a local task start.
		st.newTask()
		start := cur
		resynced := false
		for pos := cur; pos < hi; pos++ {
			edge := order[pos]
			if pos > start && st.violates(reader, edge) {
				p := int32(pos)
				closeGlobal(p)
				st.newTask()
				start = pos
				if pos >= lo {
					if idx := adoptIndex(out, p, int32(lo)); idx >= 0 {
						adopt(out, idx)
						if len(out.closes) > idx {
							cur = int(out.closes[len(out.closes)-1])
						} else {
							cur = pos
						}
						resynced = true
						break
					}
				}
			}
			st.add(reader, edge)
		}
		if !resynced {
			if s == segs-1 && hi > start {
				closeGlobal(int32(hi))
				start = hi
			}
			cur = start
		}
	}
	pt.saveGens(st)
	return offsets, uniq
}

// adoptIndex returns the index into out.closes from which the segment's
// local results may be adopted after the stitcher closed a task at p, or
// -1 if p is not a local task start. Local task starts are the segment's
// first position lo (the local scan's assumption) and every local close.
func adoptIndex(out *segOut, p, lo int32) int {
	if p == lo {
		return 0
	}
	n := len(out.closes)
	i, j := 0, n
	for i < j {
		h := (i + j) / 2
		if out.closes[h] < p {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < n && out.closes[i] == p {
		return i + 1
	}
	return -1
}
