// Command benchmark is the repository's one seeded benchmark: four
// workloads over the whole stack, four end-to-end metrics, a per-layer
// table and a traced run. See README.md in this directory.
//
//	go run ./benchmark -workload <name|all> -seed N [-seconds S] [-trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string // where the traced run writes <workload>.trace.json
}

// phase is a share of the measured run length.
func (c runConfig) phase(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func (c runConfig) recorder() *recorder {
	if !c.trace {
		return nil
	}
	return newRecorder()
}

// finishTrace writes the trace file and the self-time table of a traced run.
func (c runConfig) finishTrace(res *runResult, rec *recorder) error {
	if rec == nil {
		return nil
	}
	for _, lt := range rec.selfTimes() {
		res.note("self."+lt.name, fmt.Sprintf("n=%d total=%v self=%v", lt.count, lt.total.Round(time.Microsecond), lt.self.Round(time.Microsecond)))
	}
	return rec.writeTrace(filepath.Join(c.outDir, res.workload+".trace.json"))
}

// runResult is what one workload measured.
type runResult struct {
	workload   string
	tally      tally
	e2e, layer map[string]float64
	notes      map[string]string // context for a reader; never a metric
}

func newResult(w workload) *runResult {
	r := &runResult{workload: w.name, e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]string{}}
	for _, d := range perLayer {
		r.layer[d.name] = 0 // a layer the workload does not cross reads 0
	}
	return r
}

func (r *runResult) note(key, text string) { r.notes[key] = text }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's result object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) line(trace bool) resultLine {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
		vals["load.fail_frac"] = r.tally.failFrac()
	}
	out := resultLine{Correct: r.tally.wrong == 0, Attempted: r.tally.attempted, Failed: r.tally.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	total0, stolen0 := stolenTicks()
	run := runServing
	if w.kind == training {
		run = runTraining
	}
	res, err := run(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if total, stolen := stolenTicks(); total > total0 {
		res.note("box", fmt.Sprintf("%.1f%% of the box's CPU time was stolen by other tenants during this run", 100*float64(stolen-stolen0)/float64(total-total0)))
	}
	keys := make([]string, 0, len(res.notes))
	for k := range res.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "# %s %s: %s\n", w.name, k, res.notes[k])
	}
	return res, nil
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seeds the load (node ids, arrival schedule, probe set) and the model's initial weights")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run: shortened phases, obs enabled, per-layer metrics and a trace file")
		smoke   = flag.Bool("smoke", false, "tiny graph and counts, for go test")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files")
		agreeN  = flag.Int("agree", 0, "run two alternating sets of N runs per workload, each run on another seed, and compare set medians against the bounds")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, outDir: *outDir}
	if cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and there are no positional arguments")
		os.Exit(2)
	}
	run := []workload{}
	if *name == "all" {
		run = workloads
	} else if w, ok := workloadByName(*name); ok {
		run = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *agreeN == 1 || *agreeN < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -agree needs at least 2 runs per set")
		os.Exit(2)
	}
	if *agreeN > 0 {
		os.Exit(agree(run, cfg, *agreeN))
	}

	correct := true
	lines := map[string]resultLine{}
	for _, w := range run {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		lines[w.name] = res.line(cfg.trace)
		correct = correct && lines[w.name].Correct
	}
	var out any = lines
	if len(run) == 1 {
		out = lines[run[0].name]
	}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if !correct {
		fmt.Fprintln(os.Stderr, "benchmark: an output check failed")
		os.Exit(1)
	}
}
