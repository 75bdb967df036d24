package bench

import (
	"fmt"
	"sort"
)

// Experiment is a runnable paper experiment.
type Experiment struct {
	ID    string
	Desc  string
	Run   func(Config) (*Table, error)
	Heavy bool // skipped by "all" in quick mode
}

// Experiments returns the full registry, sorted by id.
func Experiments() []Experiment {
	exps := []Experiment{
		{ID: "table1", Desc: "dataset statistics (paper Table 1)", Run: Table1},
		{ID: "fig3a", Desc: "compute/memory ratio of graph-centric approaches (paper Fig. 3a)", Run: Fig3a},
		{ID: "fig3b", Desc: "tensor-centric time breakdown (paper Fig. 3b)", Run: Fig3b},
		{ID: "fig13", Desc: "single-GPU per-iteration comparison (paper Fig. 13)", Run: Fig13, Heavy: true},
		{ID: "table2", Desc: "multi-GPU epoch time (paper Table 2)", Run: Table2},
		{ID: "fig14", Desc: "accuracy parity DGL vs WiseGraph (paper Fig. 14a)", Run: Fig14, Heavy: true},
		{ID: "fig14b", Desc: "accuracy curve SAGE on AR (paper Fig. 14b)", Run: Fig14b},
		{ID: "fig15", Desc: "graph partition plans per model (paper Fig. 15)", Run: Fig15, Heavy: true},
		{ID: "fig16", Desc: "throughput vs search steps (paper Fig. 16)", Run: Fig16},
		{ID: "fig17", Desc: "DFG transformation ablation (paper Fig. 17)", Run: Fig17},
		{ID: "fig18", Desc: "batching factor sweep (paper Fig. 18)", Run: Fig18},
		{ID: "fig19", Desc: "differentiated outlier execution (paper Fig. 19)", Run: Fig19},
		{ID: "fig20", Desc: "placement vs hidden dimension (paper Fig. 20)", Run: Fig20},
		{ID: "fig21", Desc: "sampled-graph plan reuse and overlap (paper Fig. 21)", Run: Fig21},
		{ID: "table3", Desc: "pre-processing overhead (paper Table 3)", Run: Table3},
		{ID: "ext-reorder", Desc: "EXTENSION: reorder + gTask composition (paper §4.3)", Run: ExtReorder},
		{ID: "ext-engine", Desc: "EXTENSION: executable multi-device engine, measured volumes", Run: ExtEngine},
		{ID: "ext-engines", Desc: "EXTENSION: blocked vs fused vs device execution engines (modeled bytes-moved)", Run: ExtEngines},
		{ID: "ext-pipeline", Desc: "EXTENSION: async sampling pipeline wall-clock", Run: ExtPipeline},
		{ID: "ext-stages", Desc: "EXTENSION: composed micro-kernel stage breakdown (paper §5.3)", Run: ExtStages},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
