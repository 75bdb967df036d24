package opt_test

import (
	"testing"

	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/opt"
)

// TestTransformReducesNeuralWorkloadWithDuplication compiles RGCN's layer
// DFG and the last candidate of its transformation chain into gTask
// programs: on a task with heavy duplication the transformed program does
// a small fraction of the original's arithmetic.
func TestTransformReducesNeuralWorkloadWithDuplication(t *testing.T) {
	g := nn.LayerDFG(nn.RGCN, 100, 4, 32, 16)
	info := opt.Info{AttrOf: nn.AttrOfKeys(), Dup: map[string]bool{"src-id": true, "edge-type": true}}
	cands := opt.Transform(g, info)
	// heavy duplication: 1000 edges but only 10 unique srcs, 1 type
	st := kernels.NewTaskStats(1000, 10, 50, 1)
	origFLOPs, _ := kernels.CompileDFG(g, true).Totals(st)
	bestFLOPs, _ := kernels.CompileDFG(cands[len(cands)-1], true).Totals(st)
	// Paper Figure 17: RGCN on AR reduces neural computation by ~92.7%.
	// With 10×1 unique pairs vs 1000 edges the reduction is 99%.
	if reduction := 1 - bestFLOPs/origFLOPs; reduction < 0.9 {
		t.Fatalf("neural reduction = %.3f (%v → %v FLOPs), want ≥ 0.9", reduction, origFLOPs, bestFLOPs)
	}
}
