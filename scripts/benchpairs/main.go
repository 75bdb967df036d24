// Command benchpairs turns the result files of scripts/bench_pairs.sh into
// one appended entry of BENCH_e2e.json (paired end-to-end runs: median,
// quartiles and wins per workload × metric) and one of BENCH_layers.json
// (every per-layer row of one traced run per side). It reads metric names,
// directions and bounds from BENCHMARK.json and prints the verdict table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// run is one result line of `go run ./benchmark`: workload → outcome.
type run map[string]struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type side struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type e2eMetric struct {
	Unit   string `json:"unit"`
	Parent side   `json:"parent"`
	Change side   `json:"change"`
	Wins   int    `json:"wins"` // pairs the change won; ties count for neither
	Losses int    `json:"losses"`
}

type e2eEntry struct {
	PR        int                             `json:"pr"`
	Parent    string                          `json:"parent"`
	Change    string                          `json:"change"`
	Pairs     int                             `json:"pairs"`
	Incorrect int                             `json:"incorrect_runs"`
	Failed    uint64                          `json:"failed_ops"`
	Workloads map[string]map[string]e2eMetric `json:"workloads"`
}

type layerRow struct {
	Unit   string  `json:"unit"`
	Parent float64 `json:"parent"`
	Change float64 `json:"change"`
}

type layersEntry struct {
	PR        int                            `json:"pr"`
	Parent    string                         `json:"parent"`
	Change    string                         `json:"change"`
	Workloads map[string]map[string]layerRow `json:"workloads"`
}

func main() {
	pr := flag.Int("pr", 0, "PR number of the entry")
	parent := flag.String("parent", "", "parent commit")
	change := flag.String("change", "", "change commit, or a description of the working tree")
	dir := flag.String("dir", "", "directory holding parent_N.json, change_N.json and {parent,change}_trace.json")
	pairs := flag.Int("pairs", 0, "number of pairs (seeds 1..pairs)")
	flag.Parse()
	var sp spec
	readJSON("BENCHMARK.json", &sp)

	e := e2eEntry{PR: *pr, Parent: *parent, Change: *change, Pairs: *pairs, Workloads: map[string]map[string]e2eMetric{}}
	p, c := make([]run, *pairs), make([]run, *pairs)
	for i := range p {
		readJSON(filepath.Join(*dir, fmt.Sprintf("parent_%d.json", i+1)), &p[i])
		readJSON(filepath.Join(*dir, fmt.Sprintf("change_%d.json", i+1)), &c[i])
		for _, r := range []run{p[i], c[i]} {
			for _, w := range r {
				if !w.Correct {
					e.Incorrect++
				}
				e.Failed += w.Failed
			}
		}
	}
	fmt.Printf("%-18s %-8s %34s %34s %7s %6s\n", "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "delta", "wins")
	for _, w := range sp.Workloads {
		e.Workloads[w.Name] = map[string]e2eMetric{}
		for _, m := range sp.EndToEnd {
			pv, cv := make([]float64, *pairs), make([]float64, *pairs)
			met := e2eMetric{Unit: m.Unit}
			for i := range pv {
				pv[i], cv[i] = p[i][w.Name].Metrics[m.Name].Value, c[i][w.Name].Metrics[m.Name].Value
				better := cv[i] < pv[i]
				if m.Better == "higher" {
					better = cv[i] > pv[i]
				}
				switch {
				case better:
					met.Wins++
				case cv[i] != pv[i]:
					met.Losses++
				}
			}
			met.Parent, met.Change = summarize(pv), summarize(cv)
			e.Workloads[w.Name][m.Name] = met
			delta := met.Change.Median/met.Parent.Median - 1
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  WORSE THAN BOUND"
			}
			fmt.Printf("%-18s %-8s %34s %34s %+6.1f%% %3d/%d%s\n", w.Name, m.Name, met.Parent, met.Change, 100*delta, met.Wins, *pairs, verdict)
		}
	}
	fmt.Printf("incorrect runs %d, failed operations %d\n", e.Incorrect, e.Failed)
	appendJSON("BENCH_e2e.json", e)

	var pt, ct run
	readJSON(filepath.Join(*dir, "parent_trace.json"), &pt)
	readJSON(filepath.Join(*dir, "change_trace.json"), &ct)
	l := layersEntry{PR: *pr, Parent: *parent, Change: *change, Workloads: map[string]map[string]layerRow{}}
	for _, w := range sp.Workloads {
		l.Workloads[w.Name] = map[string]layerRow{}
		for _, m := range sp.PerLayer {
			l.Workloads[w.Name][m.Name] = layerRow{Unit: m.Unit, Parent: sig5(pt[w.Name].Metrics[m.Name].Value), Change: sig5(ct[w.Name].Metrics[m.Name].Value)}
		}
	}
	appendJSON("BENCH_layers.json", l)
}

// summarize returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) gives them — the definition of
// quartileSpread in benchmark/stats.go (package main there, so not
// importable), so these figures compare with `benchmark -agree` output.
// Needs two values.
func summarize(xs []float64) side {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return sig5((s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4)
	}
	return side{Median: at(2), Q1: at(1), Q3: at(3)}
}

// sig5 rounds x to five significant digits: the files are read by people
// and no run repeats beyond the third.
func sig5(x float64) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	scale := math.Pow(10, 4-math.Floor(math.Log10(math.Abs(x))))
	return math.Round(x*scale) / scale
}

func (s side) String() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3) }

func readJSON(path string, v any) {
	b, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
}

// appendJSON appends entry to the JSON array in path (created if absent),
// one entry per line so the file diffs by PR.
func appendJSON(path string, entry any) {
	var entries []json.RawMessage
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &entries); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		log.Fatal(err)
	}
	b, err := json.Marshal(entry)
	if err != nil {
		log.Fatal(err)
	}
	entries = append(entries, b)
	out := []byte("[\n")
	for i, e := range entries {
		out = append(out, e...)
		if i < len(entries)-1 {
			out = append(out, ',')
		}
		out = append(out, '\n')
	}
	out = append(out, "]\n"...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		log.Fatal(err)
	}
}
