package kernels

import (
	"fmt"
	"strings"
	"sync"

	"wisegraph/internal/core"
	"wisegraph/internal/dfg"
	"wisegraph/internal/nn"
	"wisegraph/internal/opt"
)

// StageKind classifies a micro-kernel (paper §5.3: "multiple
// micro-kernels for data loading and computation, each representing a
// specific operation"; composing them yields the fused gTask kernel).
type StageKind int

const (
	// StageLoad streams rows from global memory, one per edge.
	StageLoad StageKind = iota
	// StageLoadUnique loads each unique row once (duplicated-data reuse).
	StageLoadUnique
	// StageLoadWeights fetches weight matrices.
	StageLoadWeights
	// StageLoadIndex reads index/mapping arrays.
	StageLoadIndex
	// StageCompute performs arithmetic (matmul, additions, cell steps).
	StageCompute
	// StageStore writes per-edge results.
	StageStore
	// StageReduce accumulates into per-destination rows.
	StageReduce
)

var stageKindNames = [...]string{"load", "load-unique", "load-weights", "load-index", "compute", "store", "reduce"}

// String names the stage kind.
func (k StageKind) String() string { return stageKindNames[k] }

// Stage is one micro-kernel: its memory footprint and arithmetic work as
// functions of the gTask's statistics.
type Stage struct {
	Kind StageKind
	Name string
	// Elems returns the number of float32/int32 elements the stage moves
	// through global memory.
	Elems func(TaskStatsOf) float64
	// FLOPs returns the stage's arithmetic work (nil for pure movement).
	FLOPs func(TaskStatsOf) float64
	// Indexing marks a stage compiled from an indexing node (a gather or
	// the aggregation), the indexing half of the paper's Fig. 3b/17 split.
	Indexing bool
}

// Work returns the stage's arithmetic and global-memory bytes for a task.
func (s Stage) Work(st TaskStatsOf) (flops, bytes float64) {
	if s.Elems != nil {
		bytes = s.Elems(st) * fb
	}
	if s.FLOPs != nil {
		flops = s.FLOPs(st)
	}
	return flops, bytes
}

// Program is a composed fused kernel: the stage sequence plus the row
// counts of its batched matrix micro-kernels, which qualify the compute
// stages for tensor cores when one fills a 16-row tile.
//
// Dense holds the DFG's nodes outside the fused kernel, compiled the same
// way at the rows the DFG gives them: nodes over fixed rows (GCN's XW) and
// nodes after the aggregation (SAGE's neighbour weight once indexing
// swapping moved it there). DenseKernels launches that work, so Totals,
// TC and every task price leave it out; it lets two DFGs of one layer be
// compared on the same work (Fig. 17).
type Program struct {
	Stages []Stage
	Dense  []Stage
	mmRows []dfg.Card
}

// Totals sums the fused kernel's work over a task's statistics. It prices
// every task of every call, so it sums in place rather than through Work.
func (p Program) Totals(st TaskStatsOf) (flops, bytes float64) {
	for _, s := range p.Stages {
		if s.Elems != nil {
			bytes += s.Elems(st) * fb
		}
		if s.FLOPs != nil {
			flops += s.FLOPs(st)
		}
	}
	return flops, bytes
}

// TC reports tensor-core eligibility for the task.
func (p Program) TC(st TaskStatsOf) bool {
	for _, rows := range p.mmRows {
		if st.rows(rows) >= 16 {
			return true
		}
	}
	return false
}

// String lists the composed stages.
func (p Program) String() string {
	names := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		names[i] = s.Name
	}
	return "[" + strings.Join(names, " → ") + "]"
}

type programKey struct {
	sh   LayerShape
	plan Plan
}

// programs memoises Compose, a pure function of the layer shape and the
// operation plan: serving prices every Compute's tasks, and a program is
// compiled from a DFG once per (shape, plan), not per call.
var programs = struct {
	sync.Mutex
	m map[programKey]Program
}{m: map[programKey]Program{}}

// dedupKeys are the index keys a Dedup plan extracts the unique values of:
// the source-side rows a task loads. A task's destinations are its output
// rows, loaded by nothing, so a repeated dst-id is no duplicated data to
// the program.
var dedupKeys = [...]string{"src-id", "edge-type"}

// DedupInfo returns the transformation input for the dedupKeys: a key is
// duplicated when dup holds for its edge attribute. The search passes the
// plan's data pattern, Compose the plan's Dedup flag.
func DedupInfo(dup func(core.Attr) bool) opt.Info {
	attrOf := nn.AttrOfKeys()
	marked := make(map[string]bool, len(dedupKeys))
	for _, k := range dedupKeys {
		marked[k] = dup(attrOf[k])
	}
	return opt.Info{AttrOf: attrOf, Dup: marked}
}

// Transformed returns the DFG an operation plan compiles from g: g as the
// transformations of §5.2 leave it (the last candidate of opt.Transform),
// with plan.Dedup after unique extraction of the dedupKeys, without it
// after indexing swapping alone.
func Transformed(g *dfg.Graph, plan Plan) *dfg.Graph {
	chain := opt.Transform(g, DedupInfo(func(core.Attr) bool { return plan.Dedup }))
	return chain[len(chain)-1]
}

// Compose builds the fused-kernel program for a layer under an operation
// plan — the kernel-generation step of the paper's Figure 10: the layer's
// DFG (nn.LayerDFG), Transformed under the plan, compiled by CompileDFG.
func Compose(sh LayerShape, plan Plan) Program {
	programs.Lock()
	defer programs.Unlock()
	p, ok := programs.m[programKey{sh, plan}]
	if !ok {
		p = CompileDFG(Transformed(nn.LayerDFG(sh.Kind, 1, sh.Types, sh.F, sh.Fp), plan), plan.Batched)
		programs.m[programKey{sh, plan}] = p
	}
	return p
}

// compiler turns DFG nodes into micro-kernel stages, one node at a time
// in dependency order. Nodes that compile to the same micro-kernel add
// their work to its one stage.
type compiler struct {
	batched  bool
	prog     Program
	stage    map[string]int     // stage name → index in prog.Stages
	loaded   map[string]bool    // index arrays already read by the task
	after    map[*dfg.Node]bool // visited nodes: whether each follows the aggregation
	dense    *compiler          // compiles the nodes outside the fused kernel
	indexing bool               // the node being compiled is an indexing one
}

func newCompiler(batched bool) *compiler {
	return &compiler{batched: batched, stage: map[string]int{}, loaded: map[string]bool{}, after: map[*dfg.Node]bool{}}
}

// CompileDFG compiles a layer DFG into its gTask program, walking from the
// output, inputs first. batched compiles batch-loading and matrix
// micro-kernels, its absence the edge-by-edge fallback.
func CompileDFG(g *dfg.Graph, batched bool) Program {
	c := newCompiler(batched)
	c.dense = newCompiler(batched)
	c.visit(g.Output)
	c.prog.Dense = c.dense.prog.Stages
	return c.prog
}

// visit compiles n's inputs, then n, and reports whether n follows the
// aggregation. Nodes over fixed rows (dense kernels such as GCN's XW) and
// nodes that follow the aggregation (SAGE's Linear once swapped) are
// DenseKernels' and compile to Program.Dense; inputs compile to nothing.
func (c *compiler) visit(n *dfg.Node) bool {
	if after, ok := c.after[n]; ok {
		return after
	}
	after := false
	for _, in := range n.Inputs {
		a := c.visit(in)
		after = after || a || in.Kind == dfg.OpIndexAdd || in.Kind == dfg.OpLSTM
	}
	c.after[n] = after
	switch {
	case n.Kind == dfg.OpInput:
	case n.Rows.Kind == dfg.CardFixed || after:
		c.dense.node(n)
	default:
		c.node(n)
	}
	return after
}

// node compiles one gTask-level node (see DESIGN.md's node → stage table).
func (c *compiler) node(n *dfg.Node) {
	c.indexing = n.Kind.IsIndexing()
	in := n.Inputs[0]
	rows, inner := n.Rows, float64(n.InnerSize())
	per := func(card dfg.Card, k float64) func(TaskStatsOf) float64 {
		return func(st TaskStatsOf) float64 { return st.rows(card) * k }
	}
	switch n.Kind {
	case dfg.OpIndex:
		base, suffix, _ := strings.Cut(n.IdxKey, ".")
		switch {
		case len(in.Cols) == 2: // a weight per row: [rows, F, F']
			if !c.batched {
				c.add(StageLoadWeights, "reload-weights-per-edge", per(rows, inner), nil)
			} else {
				c.add(StageLoadWeights, "load-type-weights", per(dfg.Card{Kind: dfg.CardUniq, Attr: nn.AttrOfKeys()[base]}, inner), nil)
			}
		case suffix == "unique":
			c.add(StageLoadUnique, "load-unique-"+strings.TrimSuffix(base, "-id"), per(rows, inner), nil)
		case suffix == "map":
			// the unique rows are the task's own: only the map crosses memory
			c.index("load-maps", n.IdxKey)
		default:
			c.add(StageLoad, "load-"+strings.TrimSuffix(base, "-id"), per(rows, inner), nil)
			c.index("load-ids", n.IdxKey)
		}
	case dfg.OpIndex2D:
		// the pair products stay in the task's buffer: the two maps move
		c.index("load-2d-maps", n.IdxKey)
		c.index("load-2d-maps", n.IdxKey2)
	case dfg.OpLinear, dfg.OpBMM, dfg.OpOuterMM:
		mm := 2 * float64(in.InnerSize()) * inner
		if n.Kind == dfg.OpLinear {
			// one shared weight: fetched once by a batch, per row without one
			w := float64(n.Inputs[1].InnerSize()) * float64(n.Inputs[1].Rows.N)
			if c.batched {
				c.add(StageLoadWeights, "load-weights", func(TaskStatsOf) float64 { return w }, nil)
			} else {
				c.add(StageLoadWeights, "reload-weights-per-edge", per(rows, w), nil)
			}
		}
		switch {
		case !c.batched:
			c.add(StageCompute, "vec-mat-per-edge", nil, per(rows, mm))
		case n.Kind == dfg.OpOuterMM:
			c.add(StageCompute, "outer-mm", nil, per(rows, mm))
		default:
			c.add(StageCompute, "batched-mm", nil, per(rows, mm))
		}
		if c.batched {
			c.prog.mmRows = append(c.prog.mmRows, rows)
		}
	case dfg.OpEWAdd, dfg.OpLeakyReLU:
		c.add(StageCompute, n.Kind.String(), nil, per(rows, inner))
	case dfg.OpSegmentSoftmax:
		c.add(StageCompute, n.Kind.String(), nil, per(rows, 4*inner))
	case dfg.OpScale:
		c.add(StageCompute, "weighted-sum", nil, per(rows, inner))
	case dfg.OpIndexAdd:
		// Gathered rows are summed by their own micro-kernel; a computed
		// message is summed in the computing kernel's accumulator.
		if in.Kind == dfg.OpIndex {
			c.add(StageCompute, "accumulate", nil, per(in.Rows, inner))
		}
		if c.batched {
			c.add(StageReduce, "reduce-dst", per(rows, inner), nil)
		} else {
			c.add(StageStore, "store-edge", per(in.Rows, inner), nil)
		}
	case dfg.OpLSTM:
		weights := (float64(in.InnerSize()) + inner) * 4 * inner
		if c.batched {
			// the task's destinations step together, padded to the longest
			// sequence: one weight fetch per step, shared across the batch
			c.add(StageLoadWeights, "load-cell-weights-per-step", func(st TaskStatsOf) float64 { return float64(st.MaxDeg) * weights / 8 }, nil)
			c.add(StageCompute, "lockstep-cells", nil, func(st TaskStatsOf) float64 { return st.rows(rows) * float64(st.MaxDeg) * 2 * weights })
			c.add(StageStore, "store-hidden", per(rows, inner), nil)
			c.prog.mmRows = append(c.prog.mmRows, rows)
		} else {
			c.add(StageLoadWeights, "reload-cell-weights", per(in.Rows, weights), nil)
			c.add(StageCompute, "sequential-cells", nil, per(in.Rows, 2*weights))
			c.add(StageStore, "store-hidden", per(in.Rows, inner), nil)
		}
	default:
		panic(fmt.Sprintf("kernels: no micro-kernel for DFG node %v", n.Kind))
	}
}

// index reads the index array key once per task, one element per edge.
func (c *compiler) index(name, key string) {
	if !c.loaded[key] {
		c.loaded[key] = true
		c.add(StageLoadIndex, name, func(st TaskStatsOf) float64 { return float64(st.Edges) }, nil)
	}
}

// add charges elems and flops to the stage name, appending it on first use.
func (c *compiler) add(kind StageKind, name string, elems, flops func(TaskStatsOf) float64) {
	i, ok := c.stage[name]
	if !ok {
		c.stage[name] = len(c.prog.Stages)
		c.prog.Stages = append(c.prog.Stages, Stage{Kind: kind, Name: name, Elems: elems, FLOPs: flops, Indexing: c.indexing})
		return
	}
	s := &c.prog.Stages[i]
	s.Elems, s.FLOPs = sum(s.Elems, elems), sum(s.FLOPs, flops)
}

func sum(a, b func(TaskStatsOf) float64) func(TaskStatsOf) float64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(st TaskStatsOf) float64 { return a(st) + b(st) }
}

// rows resolves a DFG row count against the task's statistics.
func (st TaskStatsOf) rows(c dfg.Card) float64 {
	switch c.Kind {
	case dfg.CardEdges:
		return float64(st.Edges)
	case dfg.CardUniqPair:
		return st.rows(dfg.Card{Kind: dfg.CardUniq, Attr: c.Attr}) * st.rows(dfg.Card{Kind: dfg.CardUniq, Attr: c.Attr2})
	case dfg.CardFixed:
		return float64(c.N)
	}
	switch c.Attr {
	case core.AttrSrcID:
		return float64(st.UniqSrc)
	case core.AttrDstID:
		return float64(st.UniqDst)
	case core.AttrEdgeType:
		return float64(st.UniqType)
	}
	panic(fmt.Sprintf("kernels: no task statistic for uniq(%v)", c.Attr))
}
