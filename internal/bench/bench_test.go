package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"wisegraph/internal/nn"
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

// TestTable2ShapeWiseGraphBest: WiseGraph has the lowest epoch time on
// every dataset; on the full graphs ROC < DGL < DGCL, and on the sampled
// ones P3 loses to plain data parallel (DGL), as the paper reports.
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
		dgl := cell(t, r[1])
		if r[2] != "N/A" {
			if roc, dgcl := cell(t, r[2]), cell(t, r[3]); !(roc < dgl && dgl < dgcl) {
				t.Fatalf("%s: ROC %v, DGL %v, DGCL %v, want ROC < DGL < DGCL", r[0], roc, dgl, dgcl)
			}
		}
		if r[4] != "N/A" {
			if p3 := cell(t, r[4]); p3 <= dgl {
				t.Fatalf("%s: P3 %v beat DGL %v", r[0], p3, dgl)
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
	// Addition near optimal, MHA about a 5x gap, MLP about 58x (the
	// paper: graph-centric MLP reaches about 1 % of peak).
	if gaps[0] > 1.05 || gaps[1] < 4 || gaps[2] < 50 {
		t.Fatalf("gaps (optimal / vertex-centric) %v, want Addition ≤ 1.05x, MHA ≥ 4x, MLP ≥ 50x", gaps)
	}
}

func TestFig3bShapeNeuralMinority(t *testing.T) {
	tb := quickTable(t, "fig3b")
	for _, r := range tb.Rows {
		if v := cell(t, r[1]); v >= 40 {
			t.Fatalf("%s: neural fraction %v%%, want < 40%% (the paper's bound)", r[0], v)
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

// TestFig15PlansGroupAsThePaperFinds reads the plan each model's search
// picks on AR: RGCN groups by edge type (uniq(edge-type)=1), GAT by shared
// sources (src-id restricted), SAGE-LSTM by destination (dst-id
// restricted), and SAGE and GCN bound the edges of a task (dst-id
// restricted with src-id or edge-id).
func TestFig15PlansGroupAsThePaperFinds(t *testing.T) {
	tb := quickTable(t, "fig15")
	want := map[string][]string{
		"gTask/RGCN":      {"uniq(edge-type)=1"},
		"gTask/GAT":       {"uniq(src-id)="},
		"gTask/SAGE-LSTM": {"uniq(dst-id)="},
		"gTask/SAGE":      {"uniq(dst-id)=", "uniq(src-id)=|uniq(edge-id)="},
		"gTask/GCN":       {"uniq(dst-id)=", "uniq(src-id)=|uniq(edge-id)="},
	}
	seen := 0
	for _, r := range tb.Rows {
		subs, ok := want[r[0]]
		if !ok {
			continue
		}
		seen++
		for _, sub := range subs {
			hit := false
			for _, alt := range strings.Split(sub, "|") {
				hit = hit || strings.Contains(r[1], alt)
			}
			if !hit {
				t.Errorf("%s: plan %s has no %s restriction", r[0], r[1], sub)
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("fig15 has %d of the %d model rows", seen, len(want))
	}
}

// TestFig17PASSAGEMatchesPaper: on PA-S, whose fan-out replica has few
// destinations, SAGE's linear–aggregation commutation removes most of the
// neural work, within 10 points of the paper's 78.5 %.
func TestFig17PASSAGEMatchesPaper(t *testing.T) {
	tb := quickTable(t, "fig17")
	for _, r := range tb.Rows {
		if r[0] == "PA-S" && r[1] == "SAGE" {
			if v := cell(t, r[6]); v < 68.5 || v > 88.5 {
				t.Fatalf("PA-S SAGE: NN-reduction %v%%, want 78.5 ± 10 %%", v)
			}
			return
		}
	}
	t.Fatal("fig17 has no PA-S SAGE row")
}

// TestFig19DifferentiatedCutsLSTM: differentiated execution cuts the
// makespan of SAGE-LSTM, the paper's long-tail case, and is never slower
// than uniform execution (the guarded selection keeps the better one).
func TestFig19DifferentiatedCutsLSTM(t *testing.T) {
	tb := quickTable(t, "fig19")
	lstm := false
	for _, r := range tb.Rows {
		uni, diff := cell(t, r[3]), cell(t, r[4])
		if diff > uni {
			t.Errorf("%s: differentiated %v µs, uniform %v µs", r[0], diff, uni)
		}
		if r[0] == "SAGE-LSTM" {
			lstm = true
			if diff >= uni {
				t.Errorf("SAGE-LSTM: differentiated %v µs does not cut uniform %v µs", diff, uni)
			}
		}
	}
	if !lstm {
		t.Fatal("fig19 has no SAGE-LSTM row")
	}
}

// TestFig20AdaptivePlacementLowest: WiseGraph's adaptive placement is
// lowest at every hidden dimension on PA-S and FS-S, where the static DGL
// and P3 strategies each lose somewhere.
func TestFig20AdaptivePlacementLowest(t *testing.T) {
	tb := quickTable(t, "fig20")
	rows := map[string]int{}
	for _, r := range tb.Rows {
		rows[r[0]]++
		our := cell(t, r[4])
		if dgl, p3 := cell(t, r[2]), cell(t, r[3]); our >= dgl || our >= p3 {
			t.Errorf("%s hidden %s: ours %v ms, DGL %v, P3 %v", r[0], r[1], our, dgl, p3)
		}
	}
	if rows["PA-S"] == 0 || rows["FS-S"] == 0 {
		t.Fatalf("fig20 rows per dataset %v, want PA-S and FS-S", rows)
	}
}

// TestFig21PlanReuseKeepsNinetyPercent: the plan tuned once and reused on
// every sampled subgraph keeps at least 0.9x the performance of a search
// per subgraph (the paper: about 0.91x), on PA and FS.
func TestFig21PlanReuseKeepsNinetyPercent(t *testing.T) {
	tb := quickTable(t, "fig21")
	seen := 0
	for _, r := range tb.Rows {
		if r[1] != "reuse relative performance" {
			continue
		}
		seen++
		if v := cell(t, strings.Fields(r[2])[0]); v < 0.9 {
			t.Errorf("%s: plan reuse %vx of per-subgraph search, want ≥ 0.9x", r[0], v)
		}
	}
	if seen != 2 {
		t.Fatalf("fig21 has %d reuse rows, want 2", seen)
	}
}

// TestTable3SearchShareOfConvergence: the joint optimization modeled on PA
// costs under 2 % of the paper's measured SAGE convergence (paperConvPA),
// and environment setup ≪ joint optimization ≪ convergence. Against the
// replica's modeled convergence, which leaves out the host-side work the
// paper's wall time includes, the search is a much larger share; that
// share is pinned, so a change to either model shows here.
func TestTable3SearchShareOfConvergence(t *testing.T) {
	tb := quickTable(t, "table3")
	pa := map[string]float64{}
	for _, r := range tb.Rows {
		pa[r[0]] = cell(t, r[1])
	}
	setup, conv, opt := pa["environment setup"], pa["convergence (100 epochs)"], pa["joint optimization"]
	if share := opt / paperConvPA; share >= 0.02 {
		t.Errorf("PA: joint optimization %v s is %.2f %% of the paper's convergence, want < 2 %%", opt, share*100)
	}
	if !(setup < opt && opt < conv) {
		t.Errorf("PA: setup %v s, joint optimization %v s, convergence %v s, want setup < joint < convergence", setup, opt, conv)
	}
	if got := fmt.Sprintf("%.0f", opt/conv*100); got != "26" {
		t.Errorf("PA: joint optimization is %s %% of the modeled convergence, pinned 26 %%", got)
	}
}

// TestFig13SimpleGeomeanPinned pins a known divergence: on the simple
// models (SAGE, GCN) WiseGraph's geomean speedup over the best baseline is
// 1.05x against the paper's 1.13x (both executions stream about the same
// bytes). It runs Fig13's rows for those two models, which quick mode
// skips.
func TestFig13SimpleGeomeanPinned(t *testing.T) {
	var speedups []float64
	for _, kind := range []nn.ModelKind{nn.SAGE, nn.GCN} {
		_, sp, err := fig13Rows(quickCfg(), kind)
		if err != nil {
			t.Fatal(err)
		}
		speedups = append(speedups, sp...)
	}
	if got := fmt.Sprintf("%.2f", geomean(speedups)); got != "1.05" {
		t.Fatalf("simple-model geomean speedup %sx over %d rows, pinned 1.05x", got, len(speedups))
	}
}
