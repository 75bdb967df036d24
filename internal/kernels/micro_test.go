package kernels

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/dfg"
	"wisegraph/internal/nn"
	"wisegraph/internal/opt"
)

func TestComposeProgramsForAllModelsAndPlans(t *testing.T) {
	st := TaskStatsOf{Edges: 100, UniqSrc: 40, UniqDst: 20, UniqType: 2, MaxDeg: 5}
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		sh := LayerShape{Kind: kind, F: 32, Fp: 16, Types: 4}
		for _, plan := range []Plan{{}, {Batched: true}, {Batched: true, Dedup: true}} {
			p := Compose(sh, plan)
			if len(p.Stages) < 3 {
				t.Fatalf("%v %v: degenerate program %v", kind, plan, p)
			}
			flops, bytes := p.Totals(st)
			if flops <= 0 || bytes <= 0 {
				t.Fatalf("%v %v: zero work (flops=%v bytes=%v)", kind, plan, flops, bytes)
			}
			// a program must contain at least one compute stage and one
			// load stage
			var hasCompute, hasLoad bool
			for _, s := range p.Stages {
				switch s.Kind {
				case StageCompute:
					hasCompute = true
				case StageLoad, StageLoadUnique:
					hasLoad = true
				}
			}
			if !hasCompute || !hasLoad {
				t.Fatalf("%v %v: missing stages in %v", kind, plan, p)
			}
		}
	}
}

func TestDedupProgramsLoadUnique(t *testing.T) {
	sh := LayerShape{Kind: nn.RGCN, F: 32, Fp: 16, Types: 4}
	dedup := Compose(sh, Plan{Batched: true, Dedup: true})
	if !strings.Contains(dedup.String(), "load-unique") {
		t.Fatalf("dedup program %v lacks unique loading", dedup)
	}
	if !strings.Contains(dedup.String(), "outer-mm") {
		t.Fatalf("dedup program %v lacks the outer-product micro-kernel", dedup)
	}
	edge := Compose(sh, Plan{})
	if !strings.Contains(edge.String(), "reload-weights-per-edge") {
		t.Fatalf("edge-wise program %v must reload weights per edge", edge)
	}
}

func TestProgramTotalsMatchDuplicationIntuition(t *testing.T) {
	// With heavy duplication the dedup program must do strictly less
	// compute AND less traffic than the batched one, which must beat the
	// edge-wise one on traffic.
	sh := LayerShape{Kind: nn.RGCN, F: 64, Fp: 64, Types: 8}
	st := TaskStatsOf{Edges: 512, UniqSrc: 32, UniqDst: 64, UniqType: 1, MaxDeg: 8}
	fd, bd := Compose(sh, Plan{Batched: true, Dedup: true}).Totals(st)
	fbt, bbt := Compose(sh, Plan{Batched: true}).Totals(st)
	fe, be := Compose(sh, Plan{}).Totals(st)
	if !(fd < fbt && fbt == fe) {
		t.Fatalf("flops ordering: dedup %v, batched %v, edge %v", fd, fbt, fe)
	}
	if !(bd < bbt && bbt < be) {
		t.Fatalf("bytes ordering: dedup %v, batched %v, edge %v", bd, bbt, be)
	}
}

func TestTensorCoreEligibility(t *testing.T) {
	sh := LayerShape{Kind: nn.RGCN, F: 32, Fp: 16, Types: 4}
	p := Compose(sh, Plan{Batched: true, Dedup: true})
	big := TaskStatsOf{Edges: 100, UniqSrc: 8, UniqDst: 4, UniqType: 4}
	small := TaskStatsOf{Edges: 4, UniqSrc: 2, UniqDst: 2, UniqType: 1}
	if !p.TC(big) {
		t.Fatal("32 unique pairs should use tensor cores")
	}
	if p.TC(small) {
		t.Fatal("2-row batch cannot fill a tensor-core tile")
	}
	// addition kernels never use tensor cores
	add := Compose(LayerShape{Kind: nn.GCN, F: 32, Fp: 16}, Plan{Batched: true})
	if add.TC(big) {
		t.Fatal("addition micro-kernels have no matrix work")
	}
}

func TestStageKindNames(t *testing.T) {
	for k := StageLoad; k <= StageReduce; k++ {
		if k.String() == "" {
			t.Fatalf("stage kind %d unnamed", k)
		}
	}
}

// TestTaskStatsRows resolves every kind of DFG row count against a task's
// statistics.
func TestTaskStatsRows(t *testing.T) {
	st := NewTaskStats(10, 3, 4, 2)
	for _, c := range []struct {
		card dfg.Card
		want float64
	}{
		{dfg.Card{Kind: dfg.CardEdges}, 10},
		{dfg.Card{Kind: dfg.CardUniq, Attr: core.AttrSrcID}, 3},
		{dfg.Card{Kind: dfg.CardUniq, Attr: core.AttrDstID}, 4},
		{dfg.Card{Kind: dfg.CardUniq, Attr: core.AttrEdgeType}, 2},
		{dfg.Card{Kind: dfg.CardUniqPair, Attr: core.AttrSrcID, Attr2: core.AttrEdgeType}, 6},
		{dfg.Card{Kind: dfg.CardFixed, N: 7}, 7},
	} {
		if got := st.rows(c.card); got != c.want {
			t.Fatalf("rows(%+v) = %v, want %v", c.card, got, c.want)
		}
	}
	if st.MaxDeg != 3 {
		t.Fatalf("MaxDeg = %d, want ⌈10 ÷ 4⌉ = 3", st.MaxDeg)
	}
}

// TestEveryCandidateCompiles compiles every candidate of every model's
// transformation chain — no key, each key and all keys duplicated —
// batched and edge by edge: each program has a stage, and every stage,
// in the fused kernel or outside it, does non-negative work.
func TestEveryCandidateCompiles(t *testing.T) {
	dups := []map[string]bool{{}}
	all := map[string]bool{}
	for key := range nn.AttrOfKeys() {
		dups = append(dups, map[string]bool{key: true})
		all[key] = true
	}
	dups = append(dups, all)
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		for _, dup := range dups {
			for ci, c := range opt.Transform(nn.LayerDFG(kind, 10, 4, 32, 16), opt.Info{AttrOf: nn.AttrOfKeys(), Dup: dup}) {
				for _, batched := range []bool{false, true} {
					p := CompileDFG(c, batched)
					what := fmt.Sprintf("%v dup=%v candidate %d batched=%v", kind, dup, ci, batched)
					if len(p.Stages) == 0 {
						t.Fatalf("%s: no stage", what)
					}
					for _, s := range slices.Concat(p.Stages, p.Dense) {
						for _, st := range goldenPoints {
							if flops, bytes := s.Work(st); !(flops >= 0 && bytes >= 0) {
								t.Fatalf("%s: stage %s flops=%v bytes=%v", what, s.Name, flops, bytes)
							}
						}
					}
				}
			}
		}
	}
}

// TestDedupProgramWinsOnlyWhenPairsFew prices RGCN's dedup program against
// the batched one: cheaper on a task whose (src, type) pairs are few,
// dearer when the pairs far outnumber the edges, where the outer product
// spends its work on combinations no edge uses.
func TestDedupProgramWinsOnlyWhenPairsFew(t *testing.T) {
	sh := LayerShape{Kind: nn.RGCN, F: 32, Fp: 16, Types: 128}
	spec := device.A100()
	secs := func(st TaskStatsOf, plan Plan) float64 { return CostTask(spec, sh, st, plan).Seconds }
	few := NewTaskStats(2000, 20, 100, 1)
	if d, b := secs(few, Plan{Batched: true, Dedup: true}), secs(few, Plan{Batched: true}); d >= b {
		t.Fatalf("20 pairs over 2000 edges: dedup %v s, batched %v s", d, b)
	}
	many := NewTaskStats(50, 50, 50, 100)
	if d, b := secs(many, Plan{Batched: true, Dedup: true}), secs(many, Plan{Batched: true}); d <= b {
		t.Fatalf("5000 pairs over 50 edges: dedup %v s, batched %v s", d, b)
	}
}

// TestStagesSplitIndexingFromNeural: a stage is an indexing one exactly
// when an indexing node compiled to it — SAGE's gathers and aggregation,
// not its neighbour weight, before and after the weight moves past the
// aggregation.
func TestStagesSplitIndexingFromNeural(t *testing.T) {
	orig := CompileDFG(nn.LayerDFG(nn.SAGE, 1, 1, 32, 16), true)
	swapped := Compose(LayerShape{Kind: nn.SAGE, F: 32, Fp: 16}, Plan{Batched: true})
	want := map[string]bool{"load-src": true, "load-ids": true, "accumulate": true, "reduce-dst": true,
		"load-weights": false, "batched-mm": false}
	for _, s := range slices.Concat(orig.Stages, orig.Dense, swapped.Stages, swapped.Dense) {
		if w, ok := want[s.Name]; !ok || s.Indexing != w {
			t.Fatalf("stage %s: indexing=%v, want %v (known %v)", s.Name, s.Indexing, w, ok)
		}
	}
}

// TestCompiledLayerSplitsNeuralAndIndexing prices SAGE's and RGCN's
// compiled layers on one task and splits their work by the stages'
// Indexing flag: the work is non-degenerate and the neural stages carry at
// least the batched matmul's 2·E·F·F' FLOPs. SAGE loads its neighbour
// weight as a plain input, so its indexing stages move some but not all of
// the bytes; RGCN gathers its weight by edge type, so every byte it moves
// is indexing traffic.
func TestCompiledLayerSplitsNeuralAndIndexing(t *testing.T) {
	st := NewTaskStats(50, 20, 10, 2)
	for _, kind := range []nn.ModelKind{nn.SAGE, nn.RGCN} {
		p := CompileDFG(nn.LayerDFG(kind, 100, 4, 16, 8), true)
		flops, bytes := p.Totals(st)
		if flops <= 0 || bytes <= 0 {
			t.Fatalf("%v: degenerate work: flops=%v bytes=%v", kind, flops, bytes)
		}
		var neuralFLOPs, indexBytes float64
		for _, s := range p.Stages {
			f, b := s.Work(st)
			if s.Indexing {
				indexBytes += b
			} else {
				neuralFLOPs += f
			}
		}
		if neuralFLOPs < 2*50*16*8 {
			t.Fatalf("%v: neural FLOPs %v, want ≥ 2·50·16·8 = 12800 (program %v)", kind, neuralFLOPs, p)
		}
		if kind == nn.RGCN {
			if indexBytes != bytes {
				t.Fatalf("RGCN: indexing bytes %v of %v (program %v)", indexBytes, bytes, p)
			}
		} else if indexBytes <= 0 || indexBytes >= bytes {
			t.Fatalf("%v: indexing bytes %v of %v (program %v)", kind, indexBytes, bytes, p)
		}
	}
}
