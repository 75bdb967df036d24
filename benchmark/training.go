package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
	"wisegraph/internal/train"
)

// trainingSystem is the paper's own loop, built: the full-graph trainer and
// the joint plan its gTask forward runs under.
type trainingSystem struct {
	ds   *dataset.Dataset
	fg   *train.FullGraph
	plan *joint.Result
	ectx *exec.Ctx
}

// buildTraining is what setup_s times for train-fullgraph: dataset load,
// trainer, and the joint search (the paper's Table 3 overhead is set-up to
// a training user: paid once, before the first epoch).
func buildTraining(sz sizes, seed uint64, rec *recorder, parent int32) (*trainingSystem, time.Duration, time.Duration, error) {
	s := &trainingSystem{ectx: exec.NewCtx(device.New(device.A100()))}
	var err error
	loadDur := rec.span("dataset.Load", parent, func() { s.ds, err = loadDataset(sz) })
	if err != nil {
		return nil, 0, 0, err
	}
	rec.span("train.NewFullGraph", parent, func() {
		s.fg, err = train.NewFullGraph(s.ds, modelConfig(s.ds, nn.SAGE, seed), learnRate)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	tuneDur := rec.span("train.FullGraph.Tune", parent, func() { s.plan = s.fg.Tune(device.A100()) })
	return s, loadDur, tuneDur, nil
}

// forward is the gTask evaluation pass under the tuned plan.
func (s *trainingSystem) forward() (*tensor.Tensor, error) {
	return kernels.RunModel(s.ectx, s.fg.GC, s.fg.Model, s.ds.Features, s.plan.Partition, s.plan.OpPlan)
}

func testAccuracy(ds *dataset.Dataset, logits *tensor.Tensor) float64 {
	pred := tensor.ArgMaxRows(logits)
	hit := 0
	for _, v := range ds.TestMask {
		if pred[v] == ds.Labels[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(ds.TestMask))
}

// trainPhase is one closed loop of one client whose request is an Epoch
// followed by the gTask evaluation forward — what a training loop that
// reports accuracy every epoch does.
type trainPhase struct {
	startMs               []float64 // when each request started, into the phase
	reqMs, epochMs, fwdMs []float64
	cpuMs                 []float64 // process user+sys CPU of each request
	losses                []float64
	elapsed               time.Duration
	speed                 speedSamples
}

// atRefSpeed scales each request's figure (a time or a CPU time) to
// reference speed by how much slower than nominal the reference kernel ran
// while that request did (see speed.go).
func (p trainPhase) atRefSpeed(perReq []float64) []float64 {
	out := make([]float64, len(perReq))
	for i, v := range perReq {
		out[i] = v / p.speed.slowdown(p.startMs[i], p.startMs[i]+p.reqMs[i])
	}
	return out
}

func (s *trainingSystem) run(dur time.Duration, rec *recorder, parent int32, t *tally) (trainPhase, error) {
	var p trainPhase
	runtime.GC()
	spd := startSpeedometer()
	start := time.Now()
	for req := uint64(1); time.Since(start) < dur || req == 1; req++ {
		h := rec.begin("train.request", parent, req)
		t0, cpu0 := time.Now(), cpuTime()
		var loss float64
		ep := rec.span("train.FullGraph.Epoch", h, func() { loss = s.fg.Epoch() })
		var logits *tensor.Tensor
		var err error
		fw := rec.span("kernels.RunModel", h, func() { logits, err = s.forward() })
		if err != nil {
			spd.stop()
			return p, fmt.Errorf("gTask forward: %w", err)
		}
		tensor.Put(logits)
		p.reqMs = append(p.reqMs, float64(time.Since(t0))/1e6)
		rec.end(h)
		p.startMs = append(p.startMs, float64(t0.Sub(start))/1e6)
		p.cpuMs = append(p.cpuMs, float64(cpuTime()-cpu0)/1e6)
		p.epochMs = append(p.epochMs, float64(ep)/1e6)
		p.fwdMs = append(p.fwdMs, float64(fw)/1e6)
		p.losses = append(p.losses, loss)
		t.check(!math.IsNaN(loss) && !math.IsInf(loss, 0))
	}
	p.elapsed = time.Since(start)
	p.speed = spd.stop()
	// The speedometer's own CPU is not the request's.
	for i := range p.cpuMs {
		p.cpuMs[i] -= p.speed.costMs(p.startMs[i], p.startMs[i]+p.reqMs[i])
	}
	return p, nil
}

func runTraining(w workload, cfg runConfig) (*runResult, error) {
	res := newResult(w)
	sz := sizesFor(cfg.smoke)
	rec := cfg.recorder()
	root := rec.begin("run."+w.name, -1, 0)

	var sys *trainingSystem
	var setups, setupsMeasured, loads, tunes []float64
	for rep := 0; rep < sz.setupReps; rep++ {
		h := rec.begin("setup", root, 0)
		var loadDur, tuneDur time.Duration
		var err error
		measured, atRef := timedAtRefSpeed(func() { sys, loadDur, tuneDur, err = buildTraining(sz, cfg.seed, rec, h) })
		if err != nil {
			return nil, err
		}
		rec.end(h)
		setups, setupsMeasured = append(setups, atRef), append(setupsMeasured, measured)
		loads, tunes = append(loads, float64(loadDur)/1e6), append(tunes, float64(tuneDur)/1e6)
	}
	res.e2e["setup_s"] = median(setups)
	res.layer["load.setup_s_measured"] = median(setupsMeasured)
	res.layer["dataset.load_ms"] = median(loads)
	res.layer["train.tune_ms"] = median(tunes)

	dur := cfg.phase(1)
	if cfg.trace {
		dur = cfg.phase(0.25)
	}
	h := rec.begin("train", root, 0)
	p, err := sys.run(dur, rec, h, &res.tally)
	rec.end(h)
	if err != nil {
		return nil, err
	}
	all := p
	dev0 := sys.ectx.Dev.Stats()
	if cfg.trace {
		obs.Enable(obsRing)
		defer obs.Disable()
		h := rec.begin("train.traced", root, 0)
		traced, err := sys.run(dur, rec, h, &res.tally)
		rec.end(h)
		if err != nil {
			return nil, err
		}
		all.reqMs = append(all.reqMs, traced.reqMs...)
		all.epochMs = append(all.epochMs, traced.epochMs...)
		all.fwdMs = append(all.fwdMs, traced.fwdMs...)
		all.losses = append(all.losses, traced.losses...)

		m := res.layer
		m["train.epoch_ms"] = median(all.epochMs)
		m["train.gtask_forward_ms"] = median(all.fwdMs)
		m["obs.trace_overhead_frac"] = 1 - median(p.reqMs)/median(traced.reqMs)
		// Modelled device work of one gTask forward, and the model's
		// calibration against the CPU it really ran on: both spans of a
		// traced request (Epoch and RunModel) record under StageExec, so
		// the forward's wall clock is taken from the harness's own timing.
		dev := sys.ectx.Dev.Stats()
		n := float64(len(traced.fwdMs))
		sim := dev.SimSeconds - dev0.SimSeconds
		m["device.sim_us_per_forward"] = sim * 1e6 / n
		m["device.flops_per_req"] = (dev.FLOPs - dev0.FLOPs) / n
		m["device.bytes_per_req"] = (dev.Bytes - dev0.Bytes) / n
		if sim > 0 {
			var wall float64
			for _, f := range traced.fwdMs {
				wall += f / 1e3
			}
			m["device.wall_over_sim"] = wall / sim
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m["proc.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
		m["proc.peak_rss_mb"] = peakRSSMiB()
	}

	// Output checks: the loss went down, and the gTask path predicts what
	// the reference forward predicts.
	n := len(all.losses)
	res.tally.check(n > 1 && all.losses[n-1] < all.losses[0])
	logits, err := sys.forward()
	if err != nil {
		return nil, fmt.Errorf("gTask forward: %w", err)
	}
	gtaskAcc := testAccuracy(sys.ds, logits)
	tensor.Put(logits)
	refAcc := testAccuracy(sys.ds, sys.fg.Model.Forward(sys.fg.GC, sys.ds.Features))
	res.tally.check(gtaskAcc == refAcc)

	// One client, ≈ 15 requests: the figures are taken over the requests of
	// the untraced phase, not over windows, each request scaled to
	// reference speed by the slowdown while it ran. Throughput is the
	// reciprocal of the median request.
	atRef := sortedCopy(p.atRefSpeed(p.reqMs))
	measured := sortedCopy(p.reqMs)
	res.e2e["qps"] = 1e3 / median(atRef)
	res.e2e["p50_ms"] = median(atRef)
	res.e2e["tail_ms"] = quantile(atRef, w.tailQ)
	res.layer["load.cpu_ms_per_req"] = median(p.atRefSpeed(p.cpuMs))
	res.layer["load.qps_measured"] = 1e3 / median(measured)
	res.layer["load.p50_ms_measured"] = median(measured)
	res.layer["load.tail_ms_measured"] = quantile(measured, w.tailQ)
	res.layer["load.cpu_ms_per_req_measured"] = median(p.cpuMs)
	res.layer["load.ref_slowdown_sat"] = p.speed.overall()
	res.layer["load.p99_ms_whole"] = measured[len(measured)-1]

	// Loss bits after a fixed epoch count, so two runs of one seed compare
	// exactly however many epochs the clock allowed.
	k := min(n, 10)
	res.note("loss", fmt.Sprintf("epoch 1 %.6f, epoch %d %.6f (bits %016x), epoch %d %.6f; test accuracy gTask %.4f reference %.4f",
		all.losses[0], k, all.losses[k-1], math.Float64bits(all.losses[k-1]), n, all.losses[n-1], gtaskAcc, refAcc))
	res.note("speed", fmt.Sprintf("reference kernel ran %.3f × nominal", res.layer["load.ref_slowdown_sat"]))
	res.note("requests", fmt.Sprintf("ms %.4g; cpu ms %.4g", p.reqMs, p.cpuMs))
	res.note("phases", fmt.Sprintf("%d requests (Epoch + gTask forward) in %v; median epoch %.1f ms, forward %.1f ms, tune %.1f ms",
		len(p.reqMs), p.elapsed.Round(time.Millisecond), median(all.epochMs), median(all.fwdMs), median(tunes)))

	if cfg.trace {
		if err := layerProbes(res, sys.ds, nil, w, sz, cfg, rec, root); err != nil {
			return nil, err
		}
	}
	rec.end(root)
	return res, cfg.finishTrace(res, rec)
}
