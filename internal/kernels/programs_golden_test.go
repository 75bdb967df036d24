package kernels

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wisegraph/internal/nn"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenPoints are the task statistics every program is priced at: a
// task large enough for tensor cores and one below a tensor-core tile.
var goldenPoints = []TaskStatsOf{
	{Edges: 100, UniqSrc: 40, UniqDst: 20, UniqType: 2, MaxDeg: 5},
	{Edges: 12, UniqSrc: 6, UniqDst: 4, UniqType: 2, MaxDeg: 3},
}

// TestProgramsGolden holds every composed program — model × operation
// plan, stage by stage — to testdata/programs.golden: each stage's name,
// kind, elements and FLOPs, then the program's totals and tensor-core
// eligibility, at goldenPoints. Then, per model, the stages outside the
// fused kernel (Program.Dense) of each composed program, and the programs
// of the untransformed layer DFG, edge by edge and batched, that Fig. 17
// compares the composed ones with. A change to the cost model shows as a
// diff of that file; go test -run ProgramsGolden -update rewrites it.
func TestProgramsGolden(t *testing.T) {
	var b strings.Builder
	stages := func(head string, ss []Stage) {
		for _, s := range ss {
			fmt.Fprintf(&b, "%s %s %s", head, s.Name, s.Kind)
			for _, st := range goldenPoints {
				flops, bytes := s.Work(st)
				fmt.Fprintf(&b, " | elems=%g flops=%g", bytes/fb, flops)
			}
			b.WriteString("\n")
		}
	}
	program := func(head string, p Program) {
		stages(head, p.Stages)
		fmt.Fprintf(&b, "%s TOTAL", head)
		for _, st := range goldenPoints {
			flops, bytes := p.Totals(st)
			fmt.Fprintf(&b, " | flops=%g bytes=%g tc=%v", flops, bytes, p.TC(st))
		}
		b.WriteString("\n")
	}
	plans := []Plan{{}, {Batched: true}, {Batched: true, Dedup: true}}
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		sh := LayerShape{Kind: kind, F: 32, Fp: 16, Types: 4}
		for _, plan := range plans {
			program(fmt.Sprintf("%v dedup=%v batched=%v", kind, plan.Dedup, plan.Batched), Compose(sh, plan))
		}
	}
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		sh := LayerShape{Kind: kind, F: 32, Fp: 16, Types: 4}
		for _, plan := range plans {
			stages(fmt.Sprintf("%v dedup=%v batched=%v dense", kind, plan.Dedup, plan.Batched), Compose(sh, plan).Dense)
		}
		for _, batched := range []bool{false, true} {
			p := CompileDFG(nn.LayerDFG(kind, 1, sh.Types, sh.F, sh.Fp), batched)
			head := fmt.Sprintf("%v original batched=%v", kind, batched)
			program(head, p)
			stages(head+" dense", p.Dense)
		}
	}
	checkGolden(t, "testdata/programs.golden", b.String())
}

// checkGolden compares got with the golden file, or rewrites it under
// -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
			}
		}
		t.Fatalf("%s differs (go test -run %s -update rewrites it)", path, t.Name())
	}
}
