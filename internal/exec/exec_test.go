package exec

import (
	"errors"
	"testing"

	"wisegraph/internal/device"
)

func testCtx() *Ctx {
	return NewCtx(device.New(device.Spec{
		SIMTFLOPS: 1e12, TensorCoreFLOPS: 1e12, MemBandwidth: 1e12,
		LaunchOverhead: 0, NumUnits: 1,
	}))
}

func TestTrainingMultipliers(t *testing.T) {
	// neural kernels ×3, indexing ×2
	base := func(cat device.Category) float64 {
		ctx := testCtx()
		ctx.Launch(device.Kernel{Cat: cat, FLOPs: 1e12})
		return ctx.Dev.Stats().SimSeconds
	}
	train := func(cat device.Category) float64 {
		ctx := testCtx()
		ctx.Training = true
		ctx.Launch(device.Kernel{Cat: cat, FLOPs: 1e12})
		return ctx.Dev.Stats().SimSeconds
	}
	if r := train(device.CatNeural) / base(device.CatNeural); r < 2.99 || r > 3.01 {
		t.Fatalf("neural training multiplier %v, want 3", r)
	}
	if r := train(device.CatIndexing) / base(device.CatIndexing); r < 1.99 || r > 2.01 {
		t.Fatalf("indexing training multiplier %v, want 2", r)
	}
}

func TestTrainingScalesUnitTimes(t *testing.T) {
	ctx := testCtx()
	ctx.Training = true
	ctx.Launch(device.Kernel{Cat: device.CatNeural, UnitTimes: []float64{1, 1}})
	// 2 items × 3 multiplier on 1 unit = 6 seconds
	if got := ctx.Dev.Stats().SimSeconds; got < 5.99 || got > 6.01 {
		t.Fatalf("unit-time training scaling: %v, want 6", got)
	}
}

func TestAllocOOM(t *testing.T) {
	ctx := testCtx()
	ctx.PaperScale = 1000
	if err := ctx.Alloc(39e6); err != nil { // 39e6 × 1000 = 39 GB < 40 GB
		t.Fatalf("unexpected OOM: %v", err)
	}
	err := ctx.Alloc(41e6) // 41 GB > 40 GB
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}
