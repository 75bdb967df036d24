package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// agree is the A/A evidence that the bounds are real on this box, taken the
// way the contract's driver takes it: two sets of n runs of the same code,
// each run a fresh process on another seed, alternating between the sets.
// For every end-to-end metric it prints each set's median and quartiles and
// a verdict — disagree when the two medians differ, either way, by more than
// the bound; unresolved when a set's quartile spread exceeds the bound — and
// returns non-zero on any disagree. n is at least 2: one value has no spread.
func agree(run []workload, cfg runConfig, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, w := range run {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := range sets {
				seed := cfg.seed + uint64(set*n+i)
				line, err := childRun(self, w.name, seed, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				for name, mv := range line.Metrics {
					sets[set][name] = append(sets[set][name], mv.Value)
				}
			}
		}
		fmt.Printf("%s (2 sets of %d runs, seeds %d..%d, %g s each)\n", w.name, n, cfg.seed, cfg.seed+uint64(2*n)-1, cfg.seconds)
		for _, d := range endToEnd {
			q1a, ma, q3a, sa := quartileSpread(sets[0][d.name])
			q1b, mb, q3b, sb := quartileSpread(sets[1][d.name])
			diff := (mb - ma) / math.Abs(ma)
			verdict := aaVerdict(diff, max(sa, sb), d.bound)
			if verdict == "disagree" {
				status = 1
			}
			fmt.Printf("  %-15s %-4s A %.5g [%.5g, %.5g] spread %.1f%%   B %.5g [%.5g, %.5g] spread %.1f%%   B - A %+.1f%%   bound %.0f%%   %s\n",
				d.name, d.unit, ma, q1a, q3a, 100*sa, mb, q1b, q3b, 100*sb, 100*diff, 100*d.bound, verdict)
		}
	}
	return status
}

// childRun starts one untraced run as a child process, waits for it and
// decodes the last line it printed.
func childRun(self, name string, seed uint64, cfg runConfig) (resultLine, error) {
	var line resultLine
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0"}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr // the child's phase summaries and per-window values
	if err := cmd.Run(); err != nil {
		return line, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("decoding result line: %w", err)
	}
	if !line.Correct {
		return line, fmt.Errorf("output check failed")
	}
	return line, nil
}
