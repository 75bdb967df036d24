package core

import (
	"fmt"
	"math"

	"wisegraph/internal/graph"
	"wisegraph/internal/tensor"
)

// This file is the optimized partition engine behind PartitionGraph. It
// replaces the reference implementation's two super-linear pieces:
//
//   - the comparator sort.SliceStable over key columns becomes a stable
//     LSD radix sort over the precomputed int32 columns (8- or 16-bit
//     digits);
//   - the per-edge map[int32]struct{} unique trackers become epoch-stamped
//     dense arrays: attribute values are bounded (ids by V or E, types by
//     NumTypes, degrees by the max degree), so membership is one array
//     read against a generation counter and "clear" is gen++.
//
// The pass itself is sequential: one radix sort (skipped when the edges
// already arrive in key order), one greedy scan. A graph whose edges come
// grouped by destination under a plan whose one restriction is
// uniq(dst-id)=K skips both: PartitionRows reads the tasks off the row
// pointers its builder recorded, as the serving blocks do. The
// parallelism is its callers' — joint.Search over candidate plans, the
// sampled-training pipeline and the serving workers over subgraphs — each
// with a Partitioner of its own. The result is byte-identical to the
// sequential specification the tests keep (PartitionGraphReference in
// reference_test.go) for every plan (see partition_parity_test.go).
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
	hist []int32   // radix histogram

	// Persistent stamp arrays with monotonically increasing generations:
	// a value is "in the current task" iff stamps[v] == gen. Generations
	// never reset while a buffer lives, so stale stamps from earlier
	// calls (or earlier tasks) can never alias the current generation.
	stamps [NumAttrs][]int32
	gens   [NumAttrs]int32

	// ident is the identity order PartitionRows hands out, grow-only and
	// never written once filled: partitions share views of it, so it is a
	// plain allocation that Release leaves alone.
	ident []int32
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
	for i := range order {
		order[i] = int32(i)
	}

	// Materialize key columns once (they feed both the sort and the scan)
	// and radix-sort the identity order into the plan's edge order — unless
	// the edges already arrive in key order, where the stable sort would
	// return the identity it was given.
	var colOf [NumAttrs][]int32
	if len(key) > 0 && e > 1 {
		for i, a := range key {
			if i < len(pt.cols) {
				pt.cols[i] = growI32(pt.cols[i], e)
			} else {
				pt.cols = append(pt.cols, tensor.GetI32(e))
			}
			col := pt.cols[i]
			for ei := range col {
				col[ei] = reader.Value(a, ei)
			}
			colOf[a] = col
		}
		if cols := pt.cols[:len(key)]; !sortedBy(cols) {
			pt.radixSort(order, cols)
		}
	}

	cfgs := trackCfgs(reader, g, plan, statAttrs, &colOf)
	p := &Partition{Plan: plan, Graph: g, Order: order}
	if e == 0 {
		return p.noTasks(cfgs)
	}
	offsets, uniq := pt.scan(reader, order, cfgs, e)
	p.TaskOffsets = offsets
	for i, c := range cfgs {
		p.Uniq[c.attr] = uniq[i]
	}
	return p
}

// PartitionRows is Partition for a graph whose edges arrive grouped by
// destination as rowPtr records — row r's edges are rowPtr[r] ..
// rowPtr[r+1], all ending in one destination, the destinations strictly
// ascending from row to row, a row possibly empty — under a plan whose one
// restriction is uniq(dst-id)=K (GraphPlan.DstBatch). Such edges are in
// the plan's key order already, so the order is the identity, and task t
// closes after its K-th row that has edges; nothing is sorted, and no
// scan decides where a task closes. The other tracked attributes are
// counted by one stamp pass per column over each task. For such a graph
// the result is Partition's, field for field. It panics on any other plan
// and on row pointers that do not run from 0 to g's edge count.
func (pt *Partitioner) PartitionRows(g *graph.Graph, plan GraphPlan, statAttrs []Attr, rowPtr []int32) *Partition {
	k, ok := plan.DstBatch()
	if !ok {
		panic(fmt.Sprintf("core: PartitionRows needs a uniq(dst-id)=K plan, got %v", plan))
	}
	e := g.NumEdges()
	if len(rowPtr) == 0 || rowPtr[0] != 0 || int(rowPtr[len(rowPtr)-1]) != e {
		panic(fmt.Sprintf("core: %d row pointers do not run from 0 to %d edges", len(rowPtr), e))
	}
	reader := NewAttrReader(g)
	// Every id column is read in place; an untyped graph's nil type column
	// reads through the reader, as Partition reads every column not in its
	// sort key.
	colOf := [NumAttrs][]int32{AttrSrcID: g.Src, AttrDstID: g.Dst, AttrEdgeType: g.Type}
	cfgs := trackCfgs(reader, g, plan, statAttrs, &colOf)
	p := &Partition{Plan: plan, Graph: g, Order: pt.identity(e)}
	if e == 0 {
		return p.noTasks(cfgs)
	}

	// Partition's scan closes a task at the first edge of a (K+1)-th
	// destination, and the last task at e; the destinations are the rows
	// that have edges.
	offsets, dsts := []int32{0}, []int32{}
	n := int32(0)
	for r := 1; r < len(rowPtr); r++ {
		if rowPtr[r] == rowPtr[r-1] {
			continue
		}
		if n == int32(k) {
			offsets, dsts, n = append(offsets, rowPtr[r-1]), append(dsts, n), 0
		}
		n++
	}
	offsets, dsts = append(offsets, int32(e)), append(dsts, n)
	p.TaskOffsets = offsets

	var rest []trackCfg
	for _, c := range cfgs {
		if c.attr == AttrDstID {
			p.Uniq[c.attr] = dsts
		} else {
			rest = append(rest, c)
		}
	}
	st := pt.newScanState(rest, e)
	defer pt.saveGens(st)
	for i := range st.tracks {
		t := &st.tracks[i]
		uniq := make([]int32, len(dsts))
		for ti := range uniq {
			lo, hi := offsets[ti], offsets[ti+1]
			if t.isCount {
				uniq[ti] = hi - lo
				continue
			}
			t.gen++
			t.count = 0
			for ei := lo; ei < hi; ei++ {
				if v := t.value(reader, ei); t.stamps[v] != t.gen {
					t.stamps[v] = t.gen
					t.count++
				}
			}
			uniq[ti] = t.count
		}
		p.Uniq[t.attr] = uniq
	}
	return p
}

// identity returns the order 0..e-1 as a view of pt.ident, growing it
// (into a new allocation: views already handed out keep theirs) when it
// is shorter than e.
func (pt *Partitioner) identity(e int) []int32 {
	if pt.ident == nil || len(pt.ident) < e {
		pt.ident = make([]int32, max(e, 2*len(pt.ident)))
		for i := range pt.ident {
			pt.ident[i] = int32(i)
		}
	}
	return pt.ident[:e:e]
}

// noTasks completes the partition of a graph without edges: no task, and
// an empty statistics row per tracked attribute.
func (p *Partition) noTasks(cfgs []trackCfg) *Partition {
	p.TaskOffsets = []int32{0}
	for _, c := range cfgs {
		p.Uniq[c.attr] = []int32{}
	}
	return p
}

// trackCfgs lists what a partition tracks — statAttrs plus the restricted
// attributes — in ascending attribute order (the order per-task Uniq rows
// are emitted in), each with its Exact limit and its column from colOf
// (nil: read through the reader).
func trackCfgs(reader *AttrReader, g *graph.Graph, plan GraphPlan, statAttrs []Attr, colOf *[NumAttrs][]int32) []trackCfg {
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
	return cfgs
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
		return int(maxI32(reader.outDegrees())) + 1
	case AttrDstDegree:
		return int(maxI32(reader.inDegrees())) + 1
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
)

// sortedBy reports whether the edges are already in non-descending
// lexicographic order of the columns (first column most significant),
// exiting at the first descent. When they are, the stable radix sort of
// the identity order is the identity, so skipping it changes nothing.
func sortedBy(cols [][]int32) bool {
	e := len(cols[0])
	for i := 1; i < e; i++ {
		for _, col := range cols {
			if col[i] != col[i-1] {
				if col[i] < col[i-1] {
					return false
				}
				break
			}
		}
	}
	return true
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
// (col[x]>>shift)&(radix-1).
func (pt *Partitioner) countingPass(src, dst, col []int32, shift uint, radix int) {
	mask := int32(radix - 1)
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

// scanState is the scan's tracker set.
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

// newScanState builds a scanState over the Partitioner's persistent stamp
// buffers, growing them (zero-filled) as needed and continuing their
// generation counters.
func (pt *Partitioner) newScanState(cfgs []trackCfg, e int) *scanState {
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

// saveGens persists the scan state's generations back to the Partitioner
// so the next call continues (never reuses) them.
func (pt *Partitioner) saveGens(st *scanState) {
	for i := range st.tracks {
		if t := &st.tracks[i]; !t.isCount {
			pt.gens[t.attr] = t.gen
		}
	}
}

// scan runs the greedy scan over the sorted order and returns the task
// offsets ([0, ..., e]) and per-tracker unique counts: a task closes at
// the first edge that would exceed an Exact limit, and the last task
// closes at e. e must be > 0.
func (pt *Partitioner) scan(reader *AttrReader, order []int32, cfgs []trackCfg, e int) ([]int32, [][]int32) {
	st := pt.newScanState(cfgs, e)
	defer pt.saveGens(st)
	st.newTask()
	uniq := make([][]int32, len(cfgs))

	anyExact := false
	for _, c := range cfgs {
		if c.limit > 0 {
			anyExact = true
			break
		}
	}
	if !anyExact {
		// No Exact restriction ⇒ a single task holding every edge; the
		// per-attribute stats are global distinct counts, one stamp pass
		// per tracker in edge-id order.
		for i := range st.tracks {
			t := &st.tracks[i]
			if t.isCount {
				t.count = int32(e)
			} else {
				for ei := int32(0); ei < int32(e); ei++ {
					if v := t.value(reader, ei); t.stamps[v] != t.gen {
						t.stamps[v] = t.gen
						t.count++
					}
				}
			}
			uniq[i] = []int32{t.count}
		}
		return []int32{0, int32(e)}, uniq
	}

	offsets := []int32{0}
	closeTask := func(pos int) {
		offsets = append(offsets, int32(pos))
		for i := range st.tracks {
			uniq[i] = append(uniq[i], st.tracks[i].count)
		}
	}
	start := 0
	for pos, edge := range order {
		if pos > start && st.violates(reader, edge) {
			closeTask(pos)
			st.newTask()
			start = pos
		}
		st.add(reader, edge)
	}
	closeTask(e)
	return offsets, uniq
}
