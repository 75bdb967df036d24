// Package bench regenerates every table and figure of the paper's
// evaluation (§2.2 and §7) on the simulated substrate. Each experiment
// returns a Table that cmd/wgbench prints and optionally writes as CSV;
// root-level testing.B benchmarks wrap the same entry points.
//
// Absolute numbers are simulated milliseconds on the modeled A100 — the
// claims under test are the *shapes*: who wins, by what factor, and where
// the crossovers sit. EXPERIMENTS.md records paper-vs-measured for each.
package bench

import (
	"fmt"
	"io"
	"strings"

	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/nn"
)

// Config controls experiment scale.
type Config struct {
	// Scale overrides the per-dataset scale divisor (0 = default).
	Scale int
	// Hidden is the hidden dimension (0 = 64; the paper uses 256 on the
	// full-size datasets).
	Hidden int
	// Layers is the model depth (0 = 3, as in the paper).
	Layers int
	// Epochs for accuracy experiments (0 = 40).
	Epochs int
	Seed   uint64
	// Quick shrinks sweeps for test runs.
	Quick bool
}

func (c Config) hidden() int {
	if c.Hidden == 0 {
		return 64
	}
	return c.Hidden
}

func (c Config) layers() int {
	if c.Layers == 0 {
		return 3
	}
	return c.Layers
}

func (c Config) epochs() int {
	if c.Epochs == 0 {
		return 40
	}
	return c.Epochs
}

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "fig13"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		esc := make([]string, len(r))
		for i, c := range r {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			esc[i] = c
		}
		b.WriteString(strings.Join(esc, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// ms formats seconds as milliseconds.
func ms(secs float64) string { return fmt.Sprintf("%.3f", secs*1e3) }

// f2 formats with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// spec returns the modeled device.
func spec() device.Spec { return device.A100() }

// loadDataset materializes a (possibly scaled) dataset for experiments.
func (c Config) loadDataset(name string) (*dataset.Dataset, error) {
	return dataset.Load(name, dataset.Options{Scale: c.Scale, Seed: c.Seed})
}

// singleGPUDatasets lists the Figure 13 datasets.
func singleGPUDatasets() []string { return []string{"AR", "PR", "RE", "PA-S", "FS-S"} }

// evalModels lists the five evaluated models (complex first, as in the
// paper's figure order).
func evalModels() []nn.ModelKind {
	return []nn.ModelKind{nn.RGCN, nn.GAT, nn.SAGELSTM, nn.SAGE, nn.GCN}
}

// modelDims builds the layer dimension chain for a model on a dataset:
// input → hidden×(layers-1) → classes.
func modelDims(inDim, hidden, classes, layers int) []int {
	dims := []int{inDim}
	for i := 0; i < layers-1; i++ {
		dims = append(dims, hidden)
	}
	return append(dims, classes)
}

// specAlias mirrors dataset.Spec for table rendering.
type specAlias = dataset.Spec

func specAliases() []specAlias { return dataset.Specs }
