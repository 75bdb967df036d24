// Package exec defines the shared execution context for conv executors:
// kernel accounting against the simulated device, training-mode backward
// accounting, and device-memory (OOM) tracking at paper scale.
//
// Executors come in three families, mirroring the paper's taxonomy:
// tensor-centric (internal/baseline), graph-centric (internal/baseline)
// and gTask-based (internal/kernels). The baseline executors only account
// the kernels their strategy would launch; the gTask executors also
// compute: the model's nn layer over the partition's edge order, each
// destination's in-edges summed as one CSR run, bit for bit the reference
// layer implementation (internal/nn) over that order.
package exec

import (
	"errors"
	"fmt"

	"wisegraph/internal/device"
)

// ErrOOM is returned when an executor's modeled workspace exceeds the
// device memory at paper scale (the white blocks of paper Figure 13).
var ErrOOM = errors.New("exec: device out of memory at paper scale")

// memCap is the modeled device memory in bytes: the paper's A100, 40 GB.
const memCap = 40e9

// Ctx carries the device, the execution mode, and the memory model.
type Ctx struct {
	Dev *device.Device
	// Training accounts the backward pass too: a neural kernel's
	// gradient needs two extra matmuls (3× FLOPs total) and an indexing
	// kernel's transpose doubles its traffic (2×) — the standard
	// fwd+bwd accounting.
	Training bool
	// Compute controls whether executors produce real numeric outputs
	// (tests, training) or only account kernels (search, large benches).
	Compute bool
	// PaperScale multiplies workspace sizes to model the paper-scale
	// dataset on the memCap device; 0 or 1 means no scaling.
	PaperScale float64
	// TraceID, when non-zero, groups the spans an executor records under
	// one logical request/step in the observability layer (internal/obs).
	// Callers that own a trace (a serve micro-batch, a train step) set it
	// before invoking an executor so the exec-stage span lands on the same
	// timeline as the caller's sample/partition/demux spans.
	TraceID uint64
	// Engine names the execution engine the gTask executor runs layers
	// with. Every engine runs the model's one layer body in the same edge
	// order; an engine is only how the device is charged: "" or "blocked" is one
	// fused kernel per layer, "fused" one streaming kernel priced by one
	// row load and store per destination run, "device" one kernel per
	// micro-stage. The name is resolved by internal/kernels (exec cannot
	// import it); an unknown name fails the executor call with a
	// descriptive error rather than silently running the default.
	Engine string

	peakWorkspace float64
}

// NewCtx returns a context over dev that computes at the current scale.
func NewCtx(dev *device.Device) *Ctx {
	return &Ctx{Dev: dev, Compute: true, PaperScale: 1}
}

// Launch accounts kernel k with training multipliers applied.
func (c *Ctx) Launch(k device.Kernel) {
	if c.Training {
		switch k.Cat {
		case device.CatNeural:
			k.FLOPs *= 3
			k.Bytes *= 3
		case device.CatIndexing:
			k.FLOPs *= 2
			k.Bytes *= 2
		}
		if k.UnitTimes != nil {
			scaled := make([]float64, len(k.UnitTimes))
			mult := 2.0
			if k.Cat == device.CatNeural {
				mult = 3.0
			}
			for i, t := range k.UnitTimes {
				scaled[i] = t * mult
			}
			k.UnitTimes = scaled
		}
	}
	c.Dev.Launch(k)
}

// Alloc models allocating a workspace of the given size (in bytes at the
// *current* dataset scale); it scales to paper size and fails with ErrOOM
// past the capacity. Workspaces within one executor call are treated as
// live simultaneously (peak = running max of cumulative allocations is
// approximated by the largest single allocation plus persistent state,
// which is what matters for the [E,F] materializations that dominate).
func (c *Ctx) Alloc(bytes float64) error {
	scale := c.PaperScale
	if scale <= 0 {
		scale = 1
	}
	scaled := bytes * scale
	if scaled > c.peakWorkspace {
		c.peakWorkspace = scaled
	}
	if c.peakWorkspace > memCap {
		return fmt.Errorf("%w: workspace %.1f GB > %.1f GB", ErrOOM, c.peakWorkspace/1e9, memCap/1e9)
	}
	return nil
}
