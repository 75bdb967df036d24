// Command wgbench regenerates the paper's evaluation tables and figures
// on the simulated substrate.
//
// Usage:
//
//	wgbench -list                       # enumerate experiments
//	wgbench -exp fig13                  # run one experiment
//	wgbench -exp all                    # run everything
//	wgbench -exp fig18 -csv out/        # also write CSV files
//	wgbench -exp fig13 -scale 100       # override dataset scale divisor
//
// Results print as aligned tables; the note lines state the paper claim
// each experiment reproduces. EXPERIMENTS.md records paper-vs-measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wisegraph/internal/bench"
)

// benchResult is the BENCH_<id>.json schema: the table plus the run
// configuration that produced it, so result trajectories are attributable.
type benchResult struct {
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	Scale      int        `json:"scale,omitempty"`
	Hidden     int        `json:"hidden,omitempty"`
	Layers     int        `json:"layers,omitempty"`
	Seed       uint64     `json:"seed"`
	Quick      bool       `json:"quick,omitempty"`
	Header     []string   `json:"header"`
	Rows       [][]string `json:"rows"`
	Notes      []string   `json:"notes,omitempty"`
	DurationMS int64      `json:"duration_ms"`
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		scale   = flag.Int("scale", 0, "dataset scale divisor override (0 = default)")
		hidden  = flag.Int("hidden", 0, "hidden dimension (0 = 64)")
		layers  = flag.Int("layers", 0, "model layers (0 = 3)")
		epochs  = flag.Int("epochs", 0, "epochs for accuracy experiments (0 = 40)")
		seed    = flag.Uint64("seed", 1, "random seed")
		csvDir  = flag.String("csv", "", "directory to write CSV results into")
		jsonDir = flag.String("json", "", "directory to write BENCH_<id>.json results into")
		quick   = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	cfg := bench.Config{
		Scale: *scale, Hidden: *hidden, Layers: *layers,
		Epochs: *epochs, Seed: *seed, Quick: *quick,
	}
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Experiments()
	} else {
		e, err := bench.Find(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		t, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		t.Fprint(os.Stdout)
		fmt.Printf("(%s ran in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		if *jsonDir != "" {
			if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			res := benchResult{
				ID: t.ID, Title: t.Title,
				Scale: cfg.Scale, Hidden: cfg.Hidden, Layers: cfg.Layers,
				Seed: cfg.Seed, Quick: cfg.Quick,
				Header: t.Header, Rows: t.Rows, Notes: t.Notes,
				DurationMS: elapsed.Milliseconds(),
			}
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*jsonDir, "BENCH_"+e.ID+".json")
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
}
