// Package opt implements WiseGraph's DFG transformations (paper §5.2),
// driven by the gTask-level duplicated-data pattern:
//
//   - unique value extraction (Figure 8a): an indexing operation over a
//     duplicated attribute is decomposed into a gather of the attribute's
//     unique values followed by a mapping gather, exposing the unique data
//     on the DFG;
//   - indexing swapping (Figure 8b): a rowwise neural operation consuming
//     an indexing operation's output is re-ordered to run on the indexing
//     operation's *input*, so the computation happens once per unique
//     value instead of once per edge. Two indexed inputs merge into an
//     Index-2D over an all-pairs (OuterMM) computation.
//
// Transform generates the chain of candidate DFGs these rules produce
// (paper Figure 9 steps a→e); SelectBest picks the cheapest under the
// workload cost model for a given gTask's statistics.
package opt

import (
	"slices"
	"strings"

	"wisegraph/internal/core"
	"wisegraph/internal/dfg"
)

// Info carries what the transformations need to know about the graph
// partition plan: which edge attribute each index key reads, and which
// attributes the gTask pattern marks as duplicated (uniq(attr) < edges).
type Info struct {
	AttrOf map[string]core.Attr
	Dup    map[string]bool
}

// MaxSwapSteps caps the indexing-swapping fixpoint iteration.
const MaxSwapSteps = 8

// Transform returns the candidate DFG chain: the original, the DFG after
// unique-value extraction, and one candidate per indexing-swapping step.
// Candidates share no mutable state with g.
func Transform(g *dfg.Graph, info Info) []*dfg.Graph {
	candidates := []*dfg.Graph{g}
	cur := ExtractUnique(g, info)
	if cur != nil {
		candidates = append(candidates, cur)
	} else {
		cur = g
	}
	for step := 0; step < MaxSwapSteps; step++ {
		next := cur.Clone()
		if !swapOnce(next, info) {
			break
		}
		next.Prune()
		candidates = append(candidates, next)
		cur = next
	}
	return candidates
}

// SelectBest returns the candidate with the least modeled FLOPs+bytes time
// proxy for the given stats, together with its workload.
func SelectBest(candidates []*dfg.Graph, stats dfg.TaskStats) (*dfg.Graph, dfg.Workload) {
	best := candidates[0]
	bestW := best.Cost(stats)
	bestScore := score(bestW)
	for _, c := range candidates[1:] {
		w := c.Cost(stats)
		if s := score(w); s < bestScore {
			best, bestW, bestScore = c, w, s
		}
	}
	return best, bestW
}

// score is a simple device-free proxy: FLOPs weighted by a nominal 10
// FLOP/byte balance so pure data movement is not free.
func score(w dfg.Workload) float64 { return w.FLOPs + 10*w.Bytes }

// ExtractUnique applies unique-value extraction to every Index node whose
// key is marked duplicated and marks the result Extracted, so every
// candidate Transform derives from it reports the extraction. Returns nil
// if nothing applied.
func ExtractUnique(g *dfg.Graph, info Info) *dfg.Graph {
	out := g.Clone()
	applied := false
	// range over a copy: each extraction inserts a node into out.Nodes
	for _, n := range slices.Clone(out.Nodes) {
		if n.Kind != dfg.OpIndex || strings.Contains(n.IdxKey, ".") {
			continue
		}
		if !info.Dup[n.IdxKey] {
			continue
		}
		attr, ok := info.AttrOf[n.IdxKey]
		if !ok {
			continue
		}
		// n: Index(data, key) becomes Index(Index(data, key.unique),
		// key.map). Mutate n into the outer map-gather and splice a new
		// inner unique-gather before it. To keep g.Nodes topologically
		// ordered we re-purpose n as the outer node and insert the inner
		// node just before it in the slice.
		inner := &dfg.Node{
			Kind:   dfg.OpIndex,
			Inputs: []*dfg.Node{n.Inputs[0]},
			IdxKey: n.IdxKey + ".unique",
			Rows:   dfg.Card{Kind: dfg.CardUniq, Attr: attr},
			Cols:   append([]int(nil), n.Cols...),
		}
		n.Inputs = []*dfg.Node{inner}
		n.IdxKey = n.IdxKey + ".map"
		insertBefore(out, inner, n)
		applied = true
	}
	if !applied {
		return nil
	}
	out.Extracted = true
	return out
}

// insertBefore splices newNode into g.Nodes immediately before anchor and
// assigns it a fresh id.
func insertBefore(g *dfg.Graph, newNode, anchor *dfg.Node) {
	newNode.ID = slices.MaxFunc(g.Nodes, func(a, b *dfg.Node) int { return a.ID - b.ID }).ID + 1
	g.Nodes = slices.Insert(g.Nodes, slices.Index(g.Nodes, anchor), newNode)
}

// swapOnce applies the first applicable indexing swap in topological order
// and reports whether anything changed. The graph is mutated in place.
func swapOnce(g *dfg.Graph, info Info) bool {
	consumers := g.Consumers()
	single := func(n *dfg.Node) bool { return len(consumers[n]) == 1 }
	// Rule 3 (highest priority): linear–aggregation commutation.
	// IndexAdd(Linear(x, W)) ≡ Linear(IndexAdd(x), W) because summation
	// commutes with a shared linear map; the Linear then runs once per
	// unique destination instead of once per edge. This is the rewrite
	// behind the paper's SAGE result on PA-S (fewer destinations than
	// sources, Figure 17b). It dominates hoisting the Linear to the
	// source side, since uniq(dst) ≤ |V| always.
	for _, op := range g.Nodes {
		if op.Kind != dfg.OpIndexAdd {
			continue
		}
		lin := op.Inputs[0]
		if lin.Kind != dfg.OpLinear || !single(lin) || lin.Inputs[1].Kind.IsIndexing() {
			continue
		}
		swapLinearAgg(op, lin)
		return true
	}
	for _, op := range g.Nodes {
		if !op.Kind.Rowwise() {
			continue
		}
		switch op.Kind {
		case dfg.OpLinear, dfg.OpReLU, dfg.OpLeakyReLU, dfg.OpTanh, dfg.OpSigmoid:
			// Unary-in-data rowwise op over an Index: OP(Index(A), …) →
			// Index(OP(A, …)). For Linear the weight input must not be
			// edge-indexed (it is a shared parameter).
			idx := op.Inputs[0]
			if idx.Kind != dfg.OpIndex || !single(idx) {
				continue
			}
			if op.Kind == dfg.OpLinear && op.Inputs[1].Kind.IsIndexing() {
				continue
			}
			swapUnary(op, idx)
			return true
		case dfg.OpEWAdd, dfg.OpEWMul:
			a, b := op.Inputs[0], op.Inputs[1]
			if a.Kind == dfg.OpIndex && b.Kind == dfg.OpIndex && a.IdxKey == b.IdxKey &&
				single(a) && single(b) && a != b {
				// OP(Index(A,k), Index(B,k)) → Index(OP(A,B), k).
				swapBinarySameKey(op, a, b)
				return true
			}
		case dfg.OpBMM:
			a, b := op.Inputs[0], op.Inputs[1]
			if a.Kind != dfg.OpIndex || b.Kind != dfg.OpIndex || !single(a) || !single(b) || a == b {
				continue
			}
			if a.IdxKey == b.IdxKey {
				swapBinarySameKey(op, a, b)
				return true
			}
			// The pair merge is only generated over unique-extracted
			// inputs (".map" keys): the OuterMM output then has
			// uniq(A)×uniq(B) rows, which is what makes it profitable
			// and what CardUniqPair prices.
			if !strings.HasSuffix(a.IdxKey, ".map") || !strings.HasSuffix(b.IdxKey, ".map") {
				continue
			}
			attrA, okA := keyAttr(info, a.IdxKey)
			attrB, okB := keyAttr(info, b.IdxKey)
			if !okA || !okB {
				continue
			}
			// BMM(Index(A,kA), Index(C,kC)) → Index2D(OuterMM(A,C), kA, kC)
			// (paper Figure 8b): compute A⊗C once per unique pair, then
			// 2-D index the result. a becomes the OuterMM node, op the
			// Index2D node.
			kA, kC := a.IdxKey, b.IdxKey
			a.Kind, a.Inputs, a.IdxKey = dfg.OpOuterMM, []*dfg.Node{a.Inputs[0], b.Inputs[0]}, ""
			a.Rows = dfg.Card{Kind: dfg.CardUniqPair, Attr: attrA, Attr2: attrB}
			a.Cols = []int{op.Cols[len(op.Cols)-1]}
			op.Kind, op.Inputs, op.IdxKey, op.IdxKey2 = dfg.OpIndex2D, []*dfg.Node{a}, kA, kC
			return true // b is now dead; Prune removes it
		}
	}
	return false
}

// swapUnary re-orders OP(Index(A,k), rest…) into Index(OP(A, rest…), k) by
// role exchange: idx becomes the op (preserving topo order) and op becomes
// the index.
func swapUnary(op, idx *dfg.Node) {
	k := idx.IdxKey
	data := idx.Inputs[0]
	outRows := op.Rows
	outCols := append([]int(nil), op.Cols...)
	rest := append([]*dfg.Node(nil), op.Inputs[1:]...)

	idx.Kind = op.Kind
	idx.Inputs = append([]*dfg.Node{data}, rest...)
	idx.IdxKey = ""
	idx.Slope = op.Slope
	idx.Rows = data.Rows
	idx.Cols = outCols

	op.Kind = dfg.OpIndex
	op.Inputs = []*dfg.Node{idx}
	op.IdxKey = k
	op.Slope = 0
	op.Rows = outRows
	op.Cols = append([]int(nil), outCols...)
}

// swapLinearAgg re-orders IndexAdd(Linear(x, W)) into
// Linear(IndexAdd(x), W) by role exchange: lin becomes the IndexAdd
// (preserving topological order) and agg becomes the Linear.
func swapLinearAgg(agg, lin *dfg.Node) {
	x, w := lin.Inputs[0], lin.Inputs[1]
	outRows := agg.Rows
	outCols := append([]int(nil), agg.Cols...)
	idxKey, outKey := agg.IdxKey, agg.OutRowsKey

	lin.Kind = dfg.OpIndexAdd
	lin.Inputs = []*dfg.Node{x}
	lin.IdxKey = idxKey
	lin.OutRowsKey = outKey
	lin.Rows = outRows
	lin.Cols = append([]int(nil), x.Cols...)

	agg.Kind = dfg.OpLinear
	agg.Inputs = []*dfg.Node{lin, w}
	agg.IdxKey = ""
	agg.OutRowsKey = ""
	agg.Rows = outRows
	agg.Cols = outCols
}

// swapBinarySameKey re-orders OP(Index(A,k), Index(B,k)) into
// Index(OP(A,B), k), reusing a as the op node and op as the index node; b
// is dead after the rewrite, and Prune removes it.
func swapBinarySameKey(op, a, b *dfg.Node) {
	k := a.IdxKey
	dataA, dataB := a.Inputs[0], b.Inputs[0]
	outRows := op.Rows
	outCols := append([]int(nil), op.Cols...)

	a.Kind = op.Kind
	a.Inputs = []*dfg.Node{dataA, dataB}
	a.IdxKey = ""
	a.Rows = dataA.Rows
	a.Cols = outCols

	op.Kind = dfg.OpIndex
	op.Inputs = []*dfg.Node{a}
	op.IdxKey = k
	op.Rows = outRows
	op.Cols = append([]int(nil), outCols...)
}

// keyAttr resolves an index key (possibly a ".unique"/".map" derivative)
// to its base attribute.
func keyAttr(info Info, key string) (core.Attr, bool) {
	base, _, _ := strings.Cut(key, ".")
	a, ok := info.AttrOf[base]
	return a, ok
}
