package bench

import (
	"errors"
	"fmt"
	"math"

	"wisegraph/internal/baseline"
	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
)

// trainMultiplier scales a forward-pass time to a full training iteration
// (forward + two backward matmul-equivalents), matching the per-category
// multipliers the baseline executors use.
const trainMultiplier = 3.0

// WiseIteration tunes the joint plan once for (g, kind) and prices one
// training iteration across the given layer dims. It returns the modeled
// seconds and the search result (for reuse and reporting).
func WiseIteration(sp device.Spec, g *graph.Graph, kind nn.ModelKind, dims []int, numTypes int) (float64, *joint.Result) {
	hidden := dims[len(dims)/2]
	res := joint.Search(g, kind, hidden, hidden, numTypes, joint.Options{Spec: sp})
	var total float64
	for li := 0; li+1 < len(dims); li++ {
		sh := kernels.LayerShape{Kind: kind, F: dims[li], Fp: dims[li+1], Types: numTypes}
		var sched joint.Schedule
		if res.Differentiated {
			sched, _ = joint.BestSchedule(sp, res.Partition, sh, res.OpPlan, res.Classification)
		} else {
			sched = joint.UniformSchedule(sp, res.Partition, sh, res.OpPlan)
		}
		total += joint.LayerTime(sp, sh, g.NumVertices, sched)
	}
	return total * trainMultiplier, res
}

// baselineIteration prices one training iteration of sys on the dataset's
// model; returns (seconds, oom, unsupported).
func baselineIteration(sys baseline.System, ds *dataset.Dataset, kind nn.ModelKind, hidden, layers int) (float64, bool, bool) {
	m, err := nn.NewModel(nn.Config{
		Kind: kind, InDim: ds.Dim(), Hidden: hidden, OutDim: ds.Classes(),
		Layers: layers, NumTypes: ds.Graph.NumTypes, Seed: 1,
	})
	if err != nil {
		return 0, false, true
	}
	gc := nn.NewGraphCtx(ds.Graph)
	ctx := exec.NewCtx(device.New(spec()))
	ctx.Compute = false
	ctx.Training = true
	ctx.PaperScale = float64(ds.Scale)
	_, err = sys.RunModel(ctx, gc, m, nil)
	switch {
	case errors.Is(err, exec.ErrOOM):
		return 0, true, false
	case errors.Is(err, baseline.ErrUnsupported):
		return 0, false, true
	case err != nil:
		return 0, false, true
	}
	return ctx.Dev.Stats().SimSeconds, false, false
}

// Fig13 reproduces the single-GPU per-iteration comparison: five models ×
// five datasets × the baseline systems and WiseGraph (simulated ms;
// "OOM" marks the paper's white blocks).
func Fig13(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "single-GPU per-iteration time (simulated ms)",
		Header: []string{"model", "dataset", "PyG-T", "DGL", "Seastar-G", "GNNA-G", "TCGNN-G", "Our-gT", "speedup"},
	}
	var spAll, spComplex, spSimple []float64
	for _, kind := range evalModels() {
		rows, speedups, err := fig13Rows(cfg, kind)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			t.AddRow(r...)
		}
		spAll = append(spAll, speedups...)
		if kind.Complex() {
			spComplex = append(spComplex, speedups...)
		} else {
			spSimple = append(spSimple, speedups...)
		}
		if cfg.Quick {
			break // one model is enough for smoke tests
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("geomean speedup vs best baseline: all=%.2fx complex=%.2fx simple=%.2fx (paper: 2.04x / 2.64x / 1.13x)",
			geomean(spAll), geomean(spComplex), geomean(spSimple)))
	return t, nil
}

// fig13Rows returns Fig13's rows for one model, a row per dataset, and
// the speedup over the best baseline on every dataset where one ran.
func fig13Rows(cfg Config, kind nn.ModelKind) ([][]string, []float64, error) {
	var rows [][]string
	var speedups []float64
	for _, dsName := range singleGPUDatasets() {
		ds, err := cfg.loadDataset(dsName)
		if err != nil {
			return nil, nil, err
		}
		row := []string{kind.String(), dsName}
		best := 0.0
		for _, sys := range baseline.Systems() {
			secs, oom, unsup := baselineIteration(sys, ds, kind, cfg.hidden(), cfg.layers())
			switch {
			case unsup:
				row = append(row, "-")
			case oom:
				row = append(row, "OOM")
			default:
				row = append(row, ms(secs))
				if best == 0 || secs < best {
					best = secs
				}
			}
		}
		dims := modelDims(ds.Dim(), cfg.hidden(), ds.Classes(), cfg.layers())
		wise, _ := WiseIteration(spec(), ds.Graph, kind, dims, ds.Graph.NumTypes)
		row = append(row, ms(wise))
		if best > 0 && wise > 0 {
			row = append(row, f2(best/wise)+"x")
			speedups = append(speedups, best/wise)
		} else {
			row = append(row, "-")
		}
		rows = append(rows, row)
	}
	return rows, speedups, nil
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
