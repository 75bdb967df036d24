package bench

import (
	"fmt"

	"wisegraph/internal/core"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
)

// engineAttrs are the partition attributes the engines experiment indexes.
var engineAttrs = []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree}

// ExtEngines compares the execution engines' modeled global-memory traffic
// for the aggregation path on every model. Every engine runs the model's
// one layer body on the CPU, so there is no wall clock to compare. The blocked model
// walks memory roughly three times per edge (gather pass, per-edge
// read-modify-write, per-edge weight refetch for RGCN); the fused model
// streams every operand once plus one accumulator load+store per
// destination run; "costmodel" is the composed micro-kernel program's
// prediction for the paper's target kernel (what the device engine
// accounts stage by stage).
func ExtEngines(c Config) (*Table, error) {
	ds, err := c.loadDataset("AR")
	if err != nil {
		return nil, err
	}
	hidden := c.hidden()
	gp := core.VertexCentric()
	part := core.PartitionGraph(ds.Graph, gp, engineAttrs)
	t := &Table{
		ID:     "ext-engines",
		Title:  fmt.Sprintf("execution engines: blocked vs fused on AR, F=%d (modeled aggregation-path MB)", hidden),
		Header: []string{"model", "blocked MB", "fused MB", "bytes x", "costmodel MB"},
	}
	for _, kind := range evalModels() {
		op := kernels.Plan{Batched: true}
		if kind == nn.RGCN {
			op.Dedup = true
		}
		m, err := nn.NewModel(nn.Config{
			Kind: kind, InDim: ds.Dim(), Hidden: hidden, OutDim: ds.Classes(),
			Layers: c.layers(), NumTypes: ds.Graph.NumTypes, Seed: c.Seed,
		})
		if err != nil {
			return nil, err
		}
		layerBytes := func(engine string) (float64, error) {
			eng, err := kernels.Select(engine)
			if err != nil {
				return 0, err
			}
			var total float64
			for _, l := range m.Layers() {
				sh := kernels.LayerShape{Kind: kind, F: l.InDim(), Fp: l.OutDim(), Types: m.Cfg.NumTypes}
				total += eng.LayerBytes(sh, part, op)
			}
			return total, nil
		}
		blockedB, err := layerBytes("blocked")
		if err != nil {
			return nil, err
		}
		fusedB, err := layerBytes("fused")
		if err != nil {
			return nil, err
		}
		costB, err := layerBytes("device")
		if err != nil {
			return nil, err
		}
		t.AddRow(kind.String(), f2(blockedB/1e6), f2(fusedB/1e6), f2(blockedB/fusedB), f2(costB/1e6))
	}
	t.Notes = append(t.Notes,
		"every engine runs the model's one layer body in the same edge order, so outputs are bitwise-identical (see TestEnginesBitwiseParityAcrossPlansAndWorkers); an engine is only an accounting",
		"fused wins bytes-moved on the bandwidth-bound shapes (GCN/GraphSAGE at F>=64): one stream per edge plus one accumulator load+store per destination run, vs three memory walks per edge blocked",
		"SAGE-LSTM shows bytes x = 1.00 by design: the recurrence already streams one source row per step with (h,c) register-resident, so there is nothing left to fuse",
		"GAT's win is smaller: the score/softmax passes are shared between engines, so fusion only removes the aggregation pass's per-edge read-modify-write",
	)
	return t, nil
}
