package nn

import (
	"wisegraph/internal/core"
	"wisegraph/internal/dfg"
)

// IndexAttrs returns the edge attributes a model's indexing operations
// consume — the key attributes WiseGraph identifies from the DFG (paper
// §4.1) and feeds into graph partition plan generation.
func (k ModelKind) IndexAttrs() []core.Attr {
	switch k {
	case RGCN:
		return []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType}
	default:
		return []core.Attr{core.AttrSrcID, core.AttrDstID}
	}
}

// LayerDFG builds the symbolic data-flow graph of one conv layer, the
// input to DFG transformation, the cost model and the gTask program
// kernels.Compose compiles. numV/numTypes size the fixed inputs; in/out
// are feature dimensions.
//
// Per-model notes:
//   - GCN is written transform-then-aggregate (Linear already per-vertex),
//     so operation partition finds little to improve — matching Figure 16d.
//   - SAGE is written per-edge (Linear after the src gather); indexing
//     swapping commutes the Linear past the aggregation, the order the
//     layer executes (aggregate, then transform once per destination).
//   - RGCN is Equation (1) verbatim: the BMM over per-edge (h[src],
//     W[type]) pairs that unique extraction + Index-2D rewrites into an
//     outer product (Figure 9).
//   - GAT: the attention projections, then the per-destination segment
//     softmax of the edge scores and the weighted sum of the source rows.
//     The projections swap onto the vertices; nothing moves across the
//     softmax or the weighting.
//   - SAGE-LSTM: the recurrent cell over each destination's gathered
//     source rows, its input projection x·Wx taken per edge inside the
//     cell as the layer runs it, then the neighbour weight. The cell is
//     sequential per destination, which is why the paper finds operation
//     partition contributes little for LSTM (Figure 16c) while graph
//     partition (degree batching) contributes a lot.
func LayerDFG(k ModelKind, numV, numTypes, in, out int) *dfg.Graph {
	g := &dfg.Graph{}
	edges := dfg.Card{Kind: dfg.CardEdges}
	dsts := dfg.Card{Kind: dfg.CardUniq, Attr: core.AttrDstID}
	switch k {
	case GCN:
		xw := g.Linear(g.Input("H", numV, in), g.Input("W", in, out))
		g.SetOutput(g.IndexAdd(g.Index(xw, "src-id", edges), "dst-id", "num-dst", dsts))
	case SAGE:
		h := g.Input("H", numV, in)
		w := g.Input("Wneigh", in, out)
		msg := g.Linear(g.Index(h, "src-id", edges), w)
		g.SetOutput(g.IndexAdd(msg, "dst-id", "num-dst", dsts))
	case SAGELSTM:
		hs := g.Index(g.Input("H", numV, in), "src-id", edges)
		cell := g.LSTM(hs, g.Input("Wx", in, 4*out), g.Input("Wh", out, 4*out), "dst-id", "num-dst", dsts)
		g.SetOutput(g.Linear(cell, g.Input("Wneigh", out, out)))
	case GAT:
		h := g.Input("H", numV, in)
		w := g.Input("W", in, out)
		al := g.Input("aL", out, 1)
		ar := g.Input("aR", out, 1)
		z := g.Linear(h, w)
		zs := g.Index(z, "src-id", edges)
		zd := g.Index(z, "dst-id", edges)
		pl := g.Linear(zs, al)
		pr := g.Linear(zd, ar)
		s := g.Activation(dfg.OpLeakyReLU, g.EWAdd(pl, pr), 0.2)
		alpha := g.SegmentSoftmax(s, "dst-id")
		g.SetOutput(g.IndexAdd(g.Scale(g.Index(z, "src-id", edges), alpha), "dst-id", "num-dst", dsts))
	case RGCN:
		hs := g.Index(g.Input("H", numV, in), "src-id", edges)
		wt := g.Index(g.Input("W", numTypes, in, out), "edge-type", edges)
		g.SetOutput(g.IndexAdd(g.BMM(hs, wt), "dst-id", "num-dst", dsts))
	}
	return g
}

// AttrOfKeys maps the index keys used by LayerDFG to edge attributes, the
// binding DFG transformations need.
func AttrOfKeys() map[string]core.Attr {
	return map[string]core.Attr{
		"src-id":    core.AttrSrcID,
		"dst-id":    core.AttrDstID,
		"edge-type": core.AttrEdgeType,
	}
}
