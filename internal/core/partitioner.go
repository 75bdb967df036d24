package core

import (
	"fmt"
	"math"
	"sync"

	"wisegraph/internal/graph"
	"wisegraph/internal/tensor"
)

// This file is the optimized partition engine behind PartitionGraph. It
// replaces the reference implementation's two super-linear pieces:
//
//   - the comparator sort.SliceStable over key columns becomes a stable
//     LSD radix sort over the attribute columns (8- or 16-bit digits);
//   - the per-edge map[int32]struct{} unique trackers become epoch-stamped
//     dense arrays: attribute values are bounded (ids by V or E, types by
//     NumTypes, degrees by the max degree), so membership is one array
//     read against a generation counter and "clear" is gen++.
//
// Every attribute is a plain []int32 column read in place: the graph's own
// Src, Dst and Type, and its cached per-edge degrees (graph.DstDegrees,
// graph.SrcDegrees); edge-id is a counter. A partition is three sequential
// steps:
//
//   - the order: one radix sort per distinct sort key, skipped when the
//     edges already arrive in key order, and shared by every plan of one
//     Table whose key is the same;
//   - the boundaries: a greedy scan over the Exact trackers alone decides
//     where each task closes (a lone Exact tracker has a loop of its own);
//   - the statistics: every other tracked attribute is counted by one
//     stamp pass per column over each task.
//
// A graph whose edges come grouped by destination under a plan whose one
// restriction is uniq(dst-id)=K skips the first two: PartitionRows reads
// the tasks off the row pointers its builder recorded, as the serving
// blocks do. The parallelism is its callers' — joint.Search over candidate
// plans, the sampled-training pipeline and the serving workers over
// subgraphs — each with a Partitioner of its own. The result is
// byte-identical to the sequential specification the tests keep
// (PartitionGraphReference in reference_test.go) for every plan (see
// partition_parity_test.go).
//
// All scratch (radix buffers, stamp arrays) comes from internal/tensor's
// int32 recycle pool. A Partitioner retains it between calls, so
// steady-state repartitioning (sampled-training pipelines, the joint
// search's plan sweep) allocates only the returned Partition and, for a
// key whose edges are not already in order, its sorted order.

// Partitioner partitions graphs while reusing internal scratch buffers
// across calls. Not safe for concurrent use; create one per goroutine
// (the package-level PartitionGraph draws from a sync.Pool of them).
type Partitioner struct {
	tmp  []int32 // radix ping-pong buffer
	hist []int32 // radix histogram

	// Persistent stamp arrays with monotonically increasing generations:
	// a value is "in the current task" iff stamps[v] == gen. Generations
	// never reset while a buffer lives, so stale stamps from earlier
	// calls (or earlier tasks) can never alias the current generation.
	stamps [NumAttrs][]int32
	gens   [NumAttrs]int32

	// ident is the identity order handed out for unsorted plans and
	// already-sorted edges, grow-only and never written once filled:
	// partitions share views of it, so it is a plain allocation that
	// Release leaves alone.
	ident []int32
}

// NewPartitioner returns an empty Partitioner; scratch is acquired from
// the shared pool on first use and retained between calls.
func NewPartitioner() *Partitioner { return &Partitioner{} }

// Release returns all retained scratch to the shared pool. The
// Partitioner remains usable; the next call re-acquires buffers.
func (pt *Partitioner) Release() {
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

// Table is one graph's partition table as the partitioner reads it (paper
// Figure 5): the attribute columns, and the graph's edges sorted by each
// sort key a plan has asked for. Each order is sorted once, by the first
// partition that needs it, and then only read: every partition of the
// Table whose plan has that key shares it. Safe for concurrent use; the
// joint search partitions all its candidate plans through one.
type Table struct {
	g      *graph.Graph
	mu     sync.Mutex
	orders map[string]*keyOrder
}

// keyOrder is one sort key's order, sorted under once.
type keyOrder struct {
	once  sync.Once
	order []int32
}

// NewTable returns the empty table of g.
func NewTable(g *graph.Graph) *Table { return &Table{g: g} }

// Partition applies plan to the table's graph exactly like PartitionGraph,
// on a pooled Partitioner.
func (t *Table) Partition(plan GraphPlan, statAttrs []Attr) *Partition {
	pt := partitionerPool.Get().(*Partitioner)
	p := pt.partition(t, plan, statAttrs)
	partitionerPool.Put(pt)
	return p
}

// order returns the graph's edges in key order, sorting them with pt's
// scratch on the key's first use.
func (t *Table) order(pt *Partitioner, key []Attr) []int32 {
	e := t.g.NumEdges()
	if len(key) == 0 || e < 2 {
		return pt.identity(e)
	}
	id := make([]byte, len(key))
	for i, a := range key {
		id[i] = byte(a)
	}
	t.mu.Lock()
	if t.orders == nil {
		t.orders = map[string]*keyOrder{}
	}
	ko := t.orders[string(id)]
	if ko == nil {
		ko = &keyOrder{}
		t.orders[string(id)] = ko
	}
	t.mu.Unlock()
	ko.once.Do(func() { ko.order = pt.sortedOrder(t.g, key) })
	return ko.order
}

// column returns attribute a's per-edge values, read in place: nil for
// edge-id, which is counted, and for the edge type of an untyped graph,
// which is 0 on every edge.
func column(g *graph.Graph, a Attr) []int32 {
	switch a {
	case AttrSrcID:
		return g.Src
	case AttrDstID:
		return g.Dst
	case AttrEdgeType:
		return g.Type
	case AttrSrcDegree:
		return g.SrcDegrees()
	case AttrDstDegree:
		return g.DstDegrees()
	}
	return nil
}

// Partition applies plan to g exactly like PartitionGraph (it is its
// implementation) while reusing this Partitioner's scratch buffers.
func (pt *Partitioner) Partition(g *graph.Graph, plan GraphPlan, statAttrs []Attr) *Partition {
	return pt.partition(NewTable(g), plan, statAttrs)
}

// partition is Partition over the orders of tab.
func (pt *Partitioner) partition(tab *Table, plan GraphPlan, statAttrs []Attr) *Partition {
	g := tab.g
	cfgs := trackCfgs(g, plan, statAttrs)
	p := &Partition{Plan: plan, Graph: g, Order: tab.order(pt, sortKey(plan))}
	if g.NumEdges() == 0 {
		return p.noTasks(cfgs)
	}
	// Only an Exact restriction on a varying attribute closes a task.
	var exact, rest []trackCfg
	for _, c := range cfgs {
		if c.limit > 0 && (c.attr == AttrEdgeID || c.col != nil) {
			exact = append(exact, c)
		} else {
			rest = append(rest, c)
		}
	}
	tracks := pt.newTracks(exact, g.NumEdges())
	p.TaskOffsets = closeTasks(p.Order, tracks)
	for i := range tracks {
		p.Uniq[tracks[i].attr] = tracks[i].row
	}
	pt.saveGens(tracks)
	pt.countTasks(p, rest)
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
// counted as Partition counts them. For such a graph the result is
// Partition's, field for field. It panics on any other plan and on row
// pointers that do not run from 0 to g's edge count.
func (pt *Partitioner) PartitionRows(g *graph.Graph, plan GraphPlan, statAttrs []Attr, rowPtr []int32) *Partition {
	k, ok := plan.DstBatch()
	if !ok {
		panic(fmt.Sprintf("core: PartitionRows needs a uniq(dst-id)=K plan, got %v", plan))
	}
	e := g.NumEdges()
	if len(rowPtr) == 0 || rowPtr[0] != 0 || int(rowPtr[len(rowPtr)-1]) != e {
		panic(fmt.Sprintf("core: %d row pointers do not run from 0 to %d edges", len(rowPtr), e))
	}
	cfgs := trackCfgs(g, plan, statAttrs)
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
	p.TaskOffsets = append(offsets, int32(e))
	p.Uniq[AttrDstID] = append(dsts, n)

	var rest []trackCfg
	for _, c := range cfgs {
		if c.attr != AttrDstID {
			rest = append(rest, c)
		}
	}
	pt.countTasks(p, rest)
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
// attributes — in ascending attribute order, each with its Exact limit
// and its column.
func trackCfgs(g *graph.Graph, plan GraphPlan, statAttrs []Attr) []trackCfg {
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
		if limit < 0 {
			limit = 1 // closes a task at every new value, as 1 does
		}
		cfgs = append(cfgs, trackCfg{attr: a, limit: limit, col: column(g, a), bound: attrBound(g, a)})
	}
	return cfgs
}

// trackCfg describes one tracked attribute.
type trackCfg struct {
	attr  Attr
	limit int32   // 0 ⇒ stats only, no closing
	col   []int32 // the attribute's column (see column)
	bound int     // stamp-array size (max value + 1); 0 for edge-id
}

// attrBound returns an exclusive upper bound on the attribute's values.
func attrBound(g *graph.Graph, a Attr) int {
	switch a {
	case AttrEdgeID:
		return 0 // counter-tracked: every edge id is distinct
	case AttrEdgeType:
		return max(g.NumTypes, 1)
	case AttrSrcDegree:
		return int(maxI32(g.OutDegrees())) + 1
	case AttrDstDegree:
		return int(g.MaxInDegree()) + 1
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

// sortedOrder returns g's edges stably sorted by the key's columns, or the
// identity when they already arrive in that order.
func (pt *Partitioner) sortedOrder(g *graph.Graph, key []Attr) []int32 {
	var cols [][]int32
	for _, a := range key {
		if col := column(g, a); col != nil { // nil: constant, orders nothing
			cols = append(cols, col)
		}
	}
	if len(cols) == 0 || sortedBy(cols) {
		return pt.identity(g.NumEdges())
	}
	order := make([]int32, g.NumEdges())
	for i := range order {
		order[i] = int32(i)
	}
	pt.radixSort(order, cols)
	return order
}

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

// scanTrack is one attribute's unique tracker: a counter for edge-id, else
// stamps over the attribute's column.
type scanTrack struct {
	attr    Attr
	limit   int32
	col     []int32
	isCount bool // edge-id: all values distinct, a counter suffices
	stamps  []int32
	gen     int32
	count   int32
	row     []int32 // the count of each closed task
}

// newTracks builds trackers over the Partitioner's persistent stamp
// buffers, growing them (zero-filled) as needed and continuing their
// generation counters; saveGens hands the generations back.
func (pt *Partitioner) newTracks(cfgs []trackCfg, e int) []scanTrack {
	tracks := make([]scanTrack, len(cfgs))
	for i, c := range cfgs {
		t := &tracks[i]
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
		// A call opens at most e+1 tasks; re-zero if gen could overflow.
		if pt.gens[c.attr] > math.MaxInt32-int32(e)-2 {
			clear(s)
			pt.gens[c.attr] = 0
		}
		pt.stamps[c.attr] = s
		t.stamps = s
		t.gen = pt.gens[c.attr]
	}
	return tracks
}

// saveGens persists the trackers' generations back to the Partitioner so
// the next call continues (never reuses) them.
func (pt *Partitioner) saveGens(tracks []scanTrack) {
	for i := range tracks {
		if t := &tracks[i]; !t.isCount {
			pt.gens[t.attr] = t.gen
		}
	}
}

// closeTasks runs the greedy scan over order with the Exact trackers and
// returns the task offsets ([0, ..., e]), each tracker's row filled: a
// task closes at the first edge that would exceed an Exact limit, and
// the last task closes at e. Without a tracker the graph is one task.
func closeTasks(order []int32, tracks []scanTrack) []int32 {
	e := len(order)
	offsets := []int32{0}
	if len(tracks) == 1 {
		t := &tracks[0]
		if t.isCount {
			for pos := t.limit; pos < int32(e); pos += t.limit {
				offsets, t.row = append(offsets, pos), append(t.row, t.limit)
			}
			t.row = append(t.row, int32(e)-offsets[len(offsets)-1])
			return append(offsets, int32(e))
		}
		// A new value closes a full task before it opens the next; the
		// count never exceeds the limit.
		col, stamps, limit := t.col, t.stamps, t.limit
		gen, n := t.gen+1, int32(0)
		for pos, x := range order {
			v := col[x]
			if stamps[v] == gen {
				continue
			}
			if n == limit {
				offsets, t.row = append(offsets, int32(pos)), append(t.row, n)
				gen, n = gen+1, 0
			}
			stamps[v] = gen
			n++
		}
		t.gen, t.row = gen, append(t.row, n)
		return append(offsets, int32(e))
	}

	newTask := func() {
		for i := range tracks {
			tracks[i].gen++
			tracks[i].count = 0
		}
	}
	closeTask := func(pos int) {
		offsets = append(offsets, int32(pos))
		for i := range tracks {
			tracks[i].row = append(tracks[i].row, tracks[i].count)
		}
	}
	newTask()
	start := 0
	for pos, x := range order {
		if pos > start && violates(tracks, x) {
			closeTask(pos)
			newTask()
			start = pos
		}
		for i := range tracks {
			t := &tracks[i]
			if t.isCount {
				t.count++
			} else if v := t.col[x]; t.stamps[v] != t.gen {
				t.stamps[v] = t.gen
				t.count++
			}
		}
	}
	closeTask(e)
	return offsets
}

// violates reports whether adding edge x would exceed an Exact limit.
func violates(tracks []scanTrack, x int32) bool {
	for i := range tracks {
		t := &tracks[i]
		if t.isCount {
			if t.count >= t.limit {
				return true
			}
		} else if v := t.col[x]; t.stamps[v] != t.gen && t.count >= t.limit {
			return true
		}
	}
	return false
}

// countTasks fills p.Uniq for each cfg over p's tasks: task lengths for
// edge-id, 1 per task for a constant column, else one stamp pass per task.
func (pt *Partitioner) countTasks(p *Partition, cfgs []trackCfg) {
	tracks := pt.newTracks(cfgs, len(p.Order))
	defer pt.saveGens(tracks)
	n := p.NumTasks()
	for i := range tracks {
		t := &tracks[i]
		row := make([]int32, n)
		for ti := range row {
			edges := p.TaskEdges(ti)
			switch {
			case t.isCount:
				row[ti] = int32(len(edges))
			case t.col == nil:
				row[ti] = 1
			default:
				t.gen++
				c := int32(0)
				for _, x := range edges {
					if v := t.col[x]; t.stamps[v] != t.gen {
						t.stamps[v] = t.gen
						c++
					}
				}
				row[ti] = c
			}
		}
		p.Uniq[t.attr] = row
	}
}
