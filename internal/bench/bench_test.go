package bench

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1, Epochs: 10} }

// quickTables memoises each experiment's quickCfg run: every test in this
// file asks for the same deterministic table, and the experiments are the
// whole cost of the package (tests here never run in parallel).
var quickTables = map[string]*Table{}

// quickTable returns experiment id's table under quickCfg, running it on
// first use.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	if tb, ok := quickTables[id]; ok {
		return tb
	}
	e, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := e.Run(quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quickTables[id] = tb
	return tb
}

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return v
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			tb := quickTable(t, e.ID)
			if tb.ID != e.ID {
				t.Fatalf("experiment %s returned table %s", e.ID, tb.ID)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			if len(tb.Header) == 0 {
				t.Fatalf("%s: missing header", e.ID)
			}
			// every row has at most header width (ragged short rows allowed)
			for _, r := range tb.Rows {
				if len(r) > len(tb.Header) {
					t.Fatalf("%s: row wider than header: %v", e.ID, r)
				}
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	if _, err := Find("fig18"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "b"}}
	tb.AddRow("1", "2,3")
	var sb strings.Builder
	tb.Fprint(&sb)
	if !strings.Contains(sb.String(), "== x: t ==") {
		t.Fatalf("rendering: %q", sb.String())
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "\"2,3\"") {
		t.Fatalf("CSV escaping: %q", csv)
	}
}

func TestFig13ShapeWiseGraphWins(t *testing.T) {
	tb := quickTable(t, "fig13")
	// quick mode runs RGCN only; WiseGraph must beat the best baseline
	// on every dataset (the paper's complex-model claim).
	for _, r := range tb.Rows {
		sp := r[len(r)-1]
		if sp == "-" {
			continue
		}
		if v := cell(t, sp); v < 1.0 {
			t.Fatalf("WiseGraph lost on %s/%s: speedup %v", r[0], r[1], v)
		}
	}
}

func TestFig13OOMPattern(t *testing.T) {
	tb := quickTable(t, "fig13")
	// tensor-centric must OOM on the paper-scale dense graphs (PR, RE)
	// for RGCN while WiseGraph never does.
	oomSeen := false
	for _, r := range tb.Rows {
		if r[1] == "PR" || r[1] == "RE" {
			if r[2] == "OOM" {
				oomSeen = true
			}
		}
		if r[len(r)-2] == "OOM" {
			t.Fatalf("WiseGraph OOM on %s/%s", r[0], r[1])
		}
	}
	if !oomSeen {
		t.Fatal("expected tensor-centric OOM on PR/RE at paper scale")
	}
}

func TestTable2ShapeWiseGraphBest(t *testing.T) {
	tb := quickTable(t, "table2")
	for _, r := range tb.Rows {
		wise := cell(t, r[5])
		for i := 1; i <= 4; i++ {
			if r[i] == "N/A" {
				continue
			}
			if v := cell(t, r[i]); v < wise {
				t.Fatalf("%s: %s (%v) beat WiseGraph (%v)", r[0], tb.Header[i], v, wise)
			}
		}
	}
}

func TestFig3aShapeGapGrowsWithComplexity(t *testing.T) {
	tb := quickTable(t, "fig3a")
	// relative gap (optimal / vertex-centric) must grow Addition → MHA → MLP
	var gaps []float64
	for _, r := range tb.Rows {
		vc := cell(t, r[1])
		opt := cell(t, r[3])
		gaps = append(gaps, opt/vc)
	}
	if !(gaps[0] < gaps[1] && gaps[1] < gaps[2]) {
		t.Fatalf("gap must grow with op complexity: %v", gaps)
	}
}

func TestFig3bShapeNeuralMinority(t *testing.T) {
	tb := quickTable(t, "fig3b")
	for _, r := range tb.Rows {
		if v := cell(t, r[1]); v >= 50 {
			t.Fatalf("%s: neural fraction %v%%, want < 50%% (paper: < 40%%)", r[0], v)
		}
	}
}

// TestFig17GATNeuralWorkReduced: indexing swapping moves GAT's attention
// projections from every edge onto the vertices, so on AR and PA-S, whose
// edges outnumber their vertices, the transformed DFG must price less
// neural work than the original over the same layer.
func TestFig17GATNeuralWorkReduced(t *testing.T) {
	tb := quickTable(t, "fig17")
	seen := 0
	for _, r := range tb.Rows {
		if r[1] != "GAT" {
			continue
		}
		seen++
		if v := cell(t, r[6]); v <= 0 {
			t.Fatalf("%s GAT: NN-reduction %v%%, want > 0", r[0], v)
		}
	}
	if seen != 2 {
		t.Fatalf("fig17 has %d GAT rows, want 2", seen)
	}
}

func TestFig18ShapeBatchedPeak(t *testing.T) {
	tb := quickTable(t, "fig18")
	// For each model: K=1 must be far below the best K, and INF (when
	// present) below the best K too (the crossover shape of Figure 18).
	best := map[string]float64{}
	k1 := map[string]float64{}
	inf := map[string]float64{}
	for _, r := range tb.Rows {
		v := cell(t, r[2])
		if v > best[r[0]] {
			best[r[0]] = v
		}
		switch r[1] {
		case "1":
			k1[r[0]] = v
		case "INF":
			inf[r[0]] = v
		}
	}
	for model, b := range best {
		if k1[model]*4 > b {
			t.Fatalf("%s: K=1 (%v) not ≥4x below peak (%v); paper reports 4.33x/6.10x gains", model, k1[model], b)
		}
		if v, ok := inf[model]; ok && v >= b {
			t.Fatalf("%s: INF (%v) should lose to batched peak (%v)", model, v, b)
		}
	}
}

func TestFig14AccuracyParity(t *testing.T) {
	tb := quickTable(t, "fig14")
	for _, r := range tb.Rows {
		if d := cell(t, r[4]); d > 0.01 || d < -0.01 {
			t.Fatalf("%s/%s: accuracy delta %v exceeds 1%%", r[0], r[1], d)
		}
	}
}

func TestFig16ThroughputMonotone(t *testing.T) {
	tb := quickTable(t, "fig16")
	last := map[string]float64{}
	final := map[string]float64{}
	dgl := map[string]float64{}
	for _, r := range tb.Rows {
		v := cell(t, r[4])
		if v+1e-9 < last[r[0]] {
			t.Fatalf("%s: best-so-far throughput decreased", r[0])
		}
		last[r[0]] = v
		final[r[0]] = v
		dgl[r[0]] = cell(t, r[5])
	}
	// the search must end above the DGL reference for every model
	for m, v := range final {
		if v <= dgl[m] {
			t.Fatalf("%s: final throughput %v did not beat DGL %v", m, v, dgl[m])
		}
	}
}
