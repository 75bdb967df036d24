// Package dfg implements the data-flow-graph representation of GNN layers
// (paper §2.1): indexing operations intertwined with neural operations.
// The DFG is the object WiseGraph's operation partition works on — the
// transformation rules of §5.2 rewrite it (internal/opt), the gTask
// compiler of internal/kernels turns it into the micro-kernel program the
// cost model of §6.3 prices, and the interpreter executes it to verify the
// rewrites are equivalent.
package dfg

import (
	"fmt"

	"wisegraph/internal/core"
)

// OpKind enumerates DFG operation kinds.
type OpKind int

const (
	// OpInput is a named dense-tensor input (vertex embeddings H, weights W).
	OpInput OpKind = iota
	// OpIndex gathers rows of its input by an index array: out[i] = in[idx[i]].
	OpIndex
	// OpIndex2D gathers with paired indices: out[i] = in[r[i], c[i]].
	OpIndex2D
	// OpIndexAdd scatter-adds rows into a fresh output: out[idx[i]] += in[i].
	OpIndexAdd
	// OpLinear multiplies each row by a shared weight: out = in × W
	// (inputs: x, W). Rowwise in x.
	OpLinear
	// OpBMM multiplies per-row: out[i] = x[i] × W[i] for x [R,F] and
	// W [R,F,F'] (inputs: x, w). Rowwise in both.
	OpBMM
	// OpOuterMM forms all pairs: out[i,j] = x[i] × W[j] for x [m,F],
	// W [n,F,F'] giving [m,n,F']. Produced by indexing swapping.
	OpOuterMM
	// OpEWAdd adds two same-shape tensors rowwise.
	OpEWAdd
	// OpEWMul multiplies two same-shape tensors rowwise.
	OpEWMul
	// OpReLU / OpLeakyReLU / OpTanh / OpSigmoid are rowwise activations.
	OpReLU
	OpLeakyReLU
	OpTanh
	OpSigmoid
	// OpSegmentSoftmax normalizes each column over the segments of rows
	// an index array groups (GAT's attention over a destination's
	// in-edges). Not rowwise: a row's value depends on its segment.
	OpSegmentSoftmax
	// OpScale weights row i's column blocks by w[i] (inputs: x [R,F], w
	// [R,H]): GAT's attention weighting. Not rowwise in the swapping
	// sense: w is per row, so no index moves across it.
	OpScale
	// OpLSTM runs an LSTM cell (inputs: x [R,F], Wx [F,4H], Wh [H,4H])
	// over each segment's rows in order, x·Wx per row inside the cell,
	// into the last hidden state per segment: SAGE-LSTM's aggregation.
	OpLSTM
)

var opNames = [...]string{"input", "index", "index2d", "index-add", "linear", "bmm", "outer-mm",
	"ew-add", "ew-mul", "relu", "leaky-relu", "tanh", "sigmoid", "segment-softmax", "scale", "lstm"}

// String names the kind.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(k))
	}
	return opNames[k]
}

// IsIndexing reports whether the op moves data by graph structure.
func (k OpKind) IsIndexing() bool {
	return k == OpIndex || k == OpIndex2D || k == OpIndexAdd
}

// Rowwise reports whether the op applies independently per leading-dim row
// — the legality condition for indexing swapping (§5.2): the neural
// operation must be invariant to the dimension the indexing op permutes.
func (k OpKind) Rowwise() bool {
	switch k {
	case OpLinear, OpBMM, OpEWAdd, OpEWMul, OpReLU, OpLeakyReLU, OpTanh, OpSigmoid:
		return true
	}
	return false
}

// CardKind says how a node's leading-dimension size depends on the gTask.
type CardKind int

const (
	// CardEdges: one row per edge of the gTask.
	CardEdges CardKind = iota
	// CardUniq: one row per unique value of Attr within the gTask.
	CardUniq
	// CardUniqPair: uniq(Attr) × uniq(Attr2) rows (OuterMM outputs).
	CardUniqPair
	// CardFixed: a constant number of rows (parameters, full embeddings).
	CardFixed
)

// Card is a symbolic leading-dimension size: the cost model resolves it
// against a gTask's statistics (kernels.TaskStatsOf).
type Card struct {
	Kind  CardKind
	Attr  core.Attr
	Attr2 core.Attr
	N     int
}

// Node is one DFG operation.
type Node struct {
	ID     int
	Kind   OpKind
	Inputs []*Node

	// Name labels OpInput nodes and is the binding key in Env.
	Name string
	// IdxKey / IdxKey2 name the index arrays (Env.Indices) consumed by
	// OpIndex / OpIndex2D / OpIndexAdd.
	IdxKey  string
	IdxKey2 string
	// OutRowsKey names the Env.Sizes entry giving OpIndexAdd's output
	// row count.
	OutRowsKey string
	// Slope parameterizes OpLeakyReLU.
	Slope float32

	// Rows is the symbolic leading-dimension size of the output.
	Rows Card
	// Cols is the per-row shape of the output (e.g. [F] or [F, F']).
	Cols []int
}

// InnerSize returns the number of elements per output row.
func (n *Node) InnerSize() int {
	s := 1
	for _, c := range n.Cols {
		s *= c
	}
	return s
}

// Graph is a DFG: nodes in topological order with one designated output.
type Graph struct {
	Nodes  []*Node
	Output *Node
	nextID int
}

// add appends a node, assigning its id.
func (g *Graph) add(n *Node) *Node {
	n.ID = g.nextID
	g.nextID++
	g.Nodes = append(g.Nodes, n)
	return n
}

// Input declares a dense input with fixed rows and per-row shape.
func (g *Graph) Input(name string, rows int, cols ...int) *Node {
	return g.add(&Node{Kind: OpInput, Name: name, Rows: Card{Kind: CardFixed, N: rows}, Cols: cols})
}

// Index gathers rows of data by the index array named idxKey; attr is the
// edge attribute the key corresponds to and rows the symbolic output size.
func (g *Graph) Index(data *Node, idxKey string, rows Card) *Node {
	return g.add(&Node{Kind: OpIndex, Inputs: []*Node{data}, IdxKey: idxKey, Rows: rows, Cols: data.Cols})
}

// Index2D gathers data[r[i], c[i]]; data's first two dims collapse.
func (g *Graph) Index2D(data *Node, rKey, cKey string, rows Card) *Node {
	if len(data.Cols) < 1 {
		panic("dfg: Index2D needs data with ≥2 leading dims")
	}
	return g.add(&Node{Kind: OpIndex2D, Inputs: []*Node{data}, IdxKey: rKey, IdxKey2: cKey, Rows: rows, Cols: data.Cols[1:]})
}

// IndexAdd scatter-adds in's rows into a new tensor with Env.Sizes[outKey]
// rows, indexed by idxKey.
func (g *Graph) IndexAdd(in *Node, idxKey, outKey string, rows Card) *Node {
	return g.add(&Node{Kind: OpIndexAdd, Inputs: []*Node{in}, IdxKey: idxKey, OutRowsKey: outKey, Rows: rows, Cols: in.Cols})
}

// Linear multiplies x [R,F] by the shared weight w [F,F'].
func (g *Graph) Linear(x, w *Node) *Node {
	if len(w.Cols) != 1 {
		panic("dfg: Linear weight must be 2-D (rows × cols)")
	}
	return g.add(&Node{Kind: OpLinear, Inputs: []*Node{x, w}, Rows: x.Rows, Cols: []int{w.Cols[0]}})
}

// BMM multiplies per-row: x [R,F] × w [R,F,F'] → [R,F'].
func (g *Graph) BMM(x, w *Node) *Node {
	if len(w.Cols) != 2 {
		panic("dfg: BMM weight must be [R,F,F']")
	}
	return g.add(&Node{Kind: OpBMM, Inputs: []*Node{x, w}, Rows: x.Rows, Cols: []int{w.Cols[1]}})
}

// OuterMM forms all-pairs products: x [m,F] × w [n,F,F'] → [m,n,F'].
func (g *Graph) OuterMM(x, w *Node, rows Card) *Node {
	if len(w.Cols) != 2 {
		panic("dfg: OuterMM weight must be [n,F,F']")
	}
	return g.add(&Node{Kind: OpOuterMM, Inputs: []*Node{x, w}, Rows: rows, Cols: []int{w.Cols[1]}})
}

// EWAdd adds two same-shape nodes.
func (g *Graph) EWAdd(a, b *Node) *Node {
	return g.add(&Node{Kind: OpEWAdd, Inputs: []*Node{a, b}, Rows: a.Rows, Cols: a.Cols})
}

// Activation applies a rowwise activation.
func (g *Graph) Activation(kind OpKind, x *Node, slope float32) *Node {
	switch kind {
	case OpReLU, OpLeakyReLU, OpTanh, OpSigmoid:
	default:
		panic(fmt.Sprintf("dfg: %v is not an activation", kind))
	}
	return g.add(&Node{Kind: kind, Inputs: []*Node{x}, Slope: slope, Rows: x.Rows, Cols: x.Cols})
}

// SegmentSoftmax normalizes x's columns over the segments of rows the
// index array idxKey groups.
func (g *Graph) SegmentSoftmax(x *Node, idxKey string) *Node {
	return g.add(&Node{Kind: OpSegmentSoftmax, Inputs: []*Node{x}, IdxKey: idxKey, Rows: x.Rows, Cols: x.Cols})
}

// Scale weights each row of x by the matching row of w, one weight per
// column block.
func (g *Graph) Scale(x, w *Node) *Node {
	return g.add(&Node{Kind: OpScale, Inputs: []*Node{x, w}, Rows: x.Rows, Cols: x.Cols})
}

// LSTM runs the cell with weights wx [F,4H] and wh [H,4H] over x's rows
// in each segment of idxKey, into Env.Sizes[outKey] hidden states of
// width H.
func (g *Graph) LSTM(x, wx, wh *Node, idxKey, outKey string, rows Card) *Node {
	return g.add(&Node{Kind: OpLSTM, Inputs: []*Node{x, wx, wh}, IdxKey: idxKey, OutRowsKey: outKey, Rows: rows, Cols: []int{wh.Rows.N}})
}

// SetOutput designates the DFG output.
func (g *Graph) SetOutput(n *Node) { g.Output = n }

// Clone deep-copies the DFG (nodes and edges; names are shared strings).
func (g *Graph) Clone() *Graph {
	out := &Graph{nextID: g.nextID}
	m := make(map[*Node]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		c := *n
		c.Inputs = make([]*Node, len(n.Inputs))
		for i, in := range n.Inputs {
			c.Inputs[i] = m[in]
		}
		c.Cols = append([]int(nil), n.Cols...)
		m[n] = &c
		out.Nodes = append(out.Nodes, &c)
	}
	if g.Output != nil {
		out.Output = m[g.Output]
	}
	return out
}

// Consumers returns, for each node, the nodes that read it.
func (g *Graph) Consumers() map[*Node][]*Node {
	out := make(map[*Node][]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			out[in] = append(out[in], n)
		}
	}
	return out
}

// Prune removes nodes unreachable from the output, keeping topological
// order. Inputs are kept only if reachable.
func (g *Graph) Prune() {
	if g.Output == nil {
		return
	}
	live := map[*Node]bool{}
	var mark func(n *Node)
	mark = func(n *Node) {
		if live[n] {
			return
		}
		live[n] = true
		for _, in := range n.Inputs {
			mark(in)
		}
	}
	mark(g.Output)
	kept := g.Nodes[:0]
	for _, n := range g.Nodes {
		if live[n] {
			kept = append(kept, n)
		}
	}
	g.Nodes = kept
}

// String renders the DFG one node per line.
func (g *Graph) String() string {
	s := ""
	for _, n := range g.Nodes {
		s += fmt.Sprintf("%3d %-10s", n.ID, n.Kind)
		if n.Name != "" {
			s += " " + n.Name
		}
		if n.IdxKey != "" {
			s += "[" + n.IdxKey
			if n.IdxKey2 != "" {
				s += "," + n.IdxKey2
			}
			s += "]"
		}
		for _, in := range n.Inputs {
			s += fmt.Sprintf(" ←%d", in.ID)
		}
		if n == g.Output {
			s += "  (output)"
		}
		s += "\n"
	}
	return s
}
