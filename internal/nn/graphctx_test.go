package nn

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"wisegraph/internal/graph"
	"wisegraph/internal/tensor"
)

// rowBlock builds a block the way a serving shard does: targets ascending,
// each one's in-edges contiguous with a fan-out in 0..maxFan drawn from
// all n vertices, typed when types > 1. It returns the block, its targets
// and the row pointers recorded while building it.
func rowBlock(seed uint64, n, types, maxFan int) (*graph.Graph, []int32, []int32) {
	rng := tensor.NewRNG(seed)
	g := &graph.Graph{NumVertices: n, NumTypes: types}
	var rows []int32
	rowPtr := []int32{0}
	for v := 0; v < n; v++ {
		if rng.Intn(3) != 0 {
			continue
		}
		rows = append(rows, int32(v))
		for k := rng.Intn(maxFan + 1); k > 0; k-- {
			g.Src = append(g.Src, int32(rng.Intn(n)))
			g.Dst = append(g.Dst, int32(v))
			if types > 1 {
				g.Type = append(g.Type, int32(rng.Intn(types)))
			}
		}
		rowPtr = append(rowPtr, int32(g.NumEdges()))
	}
	return g, rows, rowPtr
}

// requireSameInt32 fails unless got and want hold the same values, nil
// matching only nil.
func requireSameInt32(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("%s: %v, want %v", what, head32(got), head32(want))
	}
}

func head32(xs []int32) []int32 { return xs[:min(len(xs), 12)] }

// TestGraphCtxRowsBitwiseEqualOrder holds the context a block's row
// pointers state (NewGraphCtxRows) to the one NewGraphCtxOrder builds over
// the block in edge-id order: every array equal, InvDeg by bits, on typed
// and untyped blocks with destinations that have no edges, on a block with
// no edges, and over every vertex as a row; every model's layer then runs
// to the same bits over either. Row pointers that do not describe the
// block are refused.
func TestGraphCtxRowsBitwiseEqualOrder(t *testing.T) {
	type block struct {
		name         string
		g            *graph.Graph
		rows, rowPtr []int32
	}
	var blocks []block
	for _, types := range []int{1, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			g, rows, rowPtr := rowBlock(seed, 60+int(seed)*11, types, 9)
			blocks = append(blocks, block{fmt.Sprintf("types=%d/seed=%d", types, seed), g, rows, rowPtr})
		}
	}
	g, rows, rowPtr := rowBlock(9, 30, 3, 0)
	blocks = append(blocks, block{"no-edges", g, rows, rowPtr})
	// Every vertex a row: the per-vertex grouping of a dst-sorted graph.
	tg := testGraph()
	sorted := &graph.Graph{NumVertices: tg.NumVertices, NumTypes: tg.NumTypes}
	all := []int32{0}
	for v := int32(0); v < int32(tg.NumVertices); v++ {
		for e, d := range tg.Dst {
			if d == v {
				sorted.Src = append(sorted.Src, tg.Src[e])
				sorted.Dst = append(sorted.Dst, d)
				sorted.Type = append(sorted.Type, tg.Type[e])
			}
		}
		all = append(all, int32(sorted.NumEdges()))
	}
	every := make([]int32, tg.NumVertices)
	for v := range every {
		every[v] = int32(v)
	}
	blocks = append(blocks, block{"every-vertex", sorted, every, all})

	empty := 0
	for _, b := range blocks {
		for r := range b.rows {
			if b.rowPtr[r] == b.rowPtr[r+1] {
				empty++
			}
		}
		want, err := NewGraphCtxOrder(b.g, nil, b.rows)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		got, err := NewGraphCtxRows(b.g, b.rows, b.rowPtr)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if got.G != want.G || !slices.Equal(got.Rows, want.Rows) {
			t.Fatalf("%s: graph or rows differ", b.name)
		}
		for _, a := range []struct {
			what      string
			got, want []int32
		}{
			{"RowPtr", got.CSR.RowPtr, want.CSR.RowPtr},
			{"Col", got.CSR.Col, want.CSR.Col},
			{"EdgeID", got.CSR.EdgeID, want.CSR.EdgeID},
			{"EType", got.CSR.EType, want.CSR.EType},
			{"SrcByDst", got.SrcByDst, want.SrcByDst},
			{"DstByDst", got.DstByDst, want.DstByDst},
			{"TypeOrder", got.TypeOrder, want.TypeOrder},
			{"TypeOffsets", got.TypeOffsets, want.TypeOffsets},
			{"TypePos", got.TypePos, want.TypePos},
		} {
			requireSameInt32(t, b.name+" "+a.what, a.got, a.want)
		}
		requireBitwise(t, b.name+" InvDeg", got.InvDeg, want.InvDeg)
		if b.g.NumTypes == 3 && b.g.NumEdges() > 0 {
			for kind := ModelKind(0); kind < NumModels; kind++ {
				l := inferModel(t, kind).Layers()[0]
				x := testInput(b.g.NumVertices, l.InDim(), 71)
				ow, og := l.Infer(want, x), l.Infer(got, x)
				requireBitwise(t, fmt.Sprintf("%s %v Infer", b.name, kind), og.Data(), ow.Data())
				tensor.Put(ow)
				tensor.Put(og)
			}
		}
		want.Release()
		got.Release()
	}
	if empty == 0 {
		t.Fatal("no block has a destination without edges")
	}

	g, rows, rowPtr = blocks[3].g, blocks[3].rows, blocks[3].rowPtr
	last := len(rows) - 1 // the last row with edges
	for rowPtr[last] == rowPtr[last+1] {
		last--
	}
	moved := slices.Clone(rowPtr)
	for r := 1; r < len(moved)-1; r++ {
		if moved[r] > moved[r-1] {
			moved[r]-- // the row's last edge now sits in the next row
			break
		}
	}
	for _, c := range []struct {
		name, want   string
		rows, rowPtr []int32
	}{
		{"short", "row pointers for", rows, rowPtr[:len(rowPtr)-1]},
		{"edges outside", "edges end outside", rows[:last], rowPtr[:last+1]},
		{"past the edges", "row pointers leave", rows, append(slices.Clone(rowPtr[:len(rowPtr)-1]), rowPtr[len(rowPtr)-1]+1)},
		{"edge in the wrong row", "not in the row's destination", rows, moved},
		{"descending rows", "strictly ascending", append([]int32{rows[1]}, rows[1:]...), rowPtr},
	} {
		if gc, err := NewGraphCtxRows(g, c.rows, c.rowPtr); err == nil || !strings.Contains(err.Error(), c.want) {
			if gc != nil {
				gc.Release()
			}
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
