package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/serve"
	"wisegraph/internal/shard"
)

// servingSystem is one built serving stack: the engine and, for the fleet
// workload, the in-process shard servers behind their loopback listeners.
// In-process servers (not child daemons) keep the run one process and let
// the harness read each shard's cache.
type servingSystem struct {
	ds      *dataset.Dataset
	model   *nn.Model
	eng     *serve.Engine
	servers []*shard.Server
	lns     []net.Listener
	serveWG sync.WaitGroup
}

func loadDataset(sz sizes) (*dataset.Dataset, error) {
	return dataset.Load(datasetName, dataset.Options{
		Scale: sz.scale, Seed: datasetSeed, Homophily: homophily, FeatureNoise: featureNoise,
	})
}

func modelConfig(ds *dataset.Dataset, k nn.ModelKind, seed uint64) nn.Config {
	return nn.Config{
		Kind: k, InDim: ds.Dim(), Hidden: modelHidden, OutDim: ds.Classes(),
		Layers: modelLayers, NumTypes: ds.Graph.NumTypes, Seed: seed,
	}
}

// buildServing is what setup_s times: dataset load, model, CSR, one-shot
// plan tune, worker pool — and for the fleet the listeners, servers and
// Hello handshakes — up to the first request answered.
func buildServing(w workload, sz sizes, seed uint64, rec *recorder, parent int32) (*servingSystem, time.Duration, error) {
	s := &servingSystem{}
	var err error
	loadDur := rec.span("dataset.Load", parent, func() { s.ds, err = loadDataset(sz) })
	if err != nil {
		return nil, 0, err
	}
	if s.model, err = nn.NewModel(modelConfig(s.ds, nn.SAGE, seed)); err != nil {
		return nil, 0, err
	}
	opts := serve.Options{Seed: samplerSeed, CacheBudget: w.cacheBudget,
		QueueDepth: queueDepth, Deadline: requestDeadline, ShardTimeout: rpcTimeout}
	if w.tcpShards > 0 {
		h := rec.begin("shard.Server.start", parent, 0)
		csr := s.ds.Graph.BuildCSRByDst()
		for i := 0; i < w.tcpShards; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				s.close()
				return nil, 0, err
			}
			sv := shard.NewServer(csr, s.ds.Features, s.ds.Graph.NumTypes, s.model,
				shard.NodeConfig{Workers: 2, CacheBudget: fleetCacheBudget})
			s.lns, s.servers = append(s.lns, ln), append(s.servers, sv)
			opts.ShardAddrs = append(opts.ShardAddrs, ln.Addr().String())
			s.serveWG.Add(1)
			go func() {
				defer s.serveWG.Done()
				sv.Serve(ln) // returns nil once close() shuts the listener
			}()
		}
		rec.end(h)
	}
	rec.span("serve.NewEngine", parent, func() { s.eng, err = serve.NewEngine(s.ds, s.model, opts) })
	if err != nil {
		s.close()
		return nil, 0, err
	}
	rec.span("serve.Predict.first", parent, func() { _, err = s.eng.Predict(context.Background(), []int32{0}, false) })
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return s, loadDur, nil
}

// close stops the engine, then the listeners and servers, and waits for
// every goroutine the set-up started.
func (s *servingSystem) close() {
	if s.eng != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.eng.Shutdown(ctx)
		cancel()
	}
	for i, ln := range s.lns {
		ln.Close()
		s.servers[i].Close()
	}
	s.serveWG.Wait()
}

func (s *servingSystem) predict(node int32) error {
	_, err := s.eng.Predict(context.Background(), []int32{node}, false)
	return err
}

// referenceLogits answers the probe set on the parity reference: a
// single-node, cache-off, one-worker, BatchCap-1 engine over the same
// model under the same frozen plan (the plan fixes the summation order).
// Warm caches, batch composition and the TCP fleet may change timing,
// never bits.
func referenceLogits(sys *servingSystem, probe []int32) ([][]float32, error) {
	ref, err := serve.NewEngine(sys.ds, sys.model, serve.Options{
		Seed: samplerSeed, Workers: 1, BatchCap: 1, Plan: sys.eng.Plan(),
	})
	if err != nil {
		return nil, err
	}
	defer ref.Shutdown(context.Background())
	pred, err := ref.Predict(context.Background(), probe, true)
	if err != nil {
		return nil, err
	}
	return pred.Logits, nil
}

// checkParity counts one output check per probe vertex.
func (s *servingSystem) checkParity(probe []int32, want [][]float32, t *tally) {
	pred, err := s.eng.Predict(context.Background(), probe, true)
	for i := range probe {
		ok := err == nil && len(pred.Logits[i]) == len(want[i])
		for j := 0; ok && j < len(want[i]); j++ {
			ok = math.Float32bits(pred.Logits[i][j]) == math.Float32bits(want[i][j])
		}
		t.check(ok)
	}
}

// snapshot is every public counter the phases are differenced over.
type snapshot struct {
	stats  serve.Snapshot
	dev    device.Stats
	stages [obs.NumStages]time.Duration
	batchN uint64 // StageBatch span count
	mem    runtime.MemStats
}

func (s *servingSystem) snapshot() snapshot {
	var sn snapshot
	sn.stats = s.eng.Stats()
	sn.dev, _ = s.eng.DeviceStats()
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		sn.stages[st] = obs.StageHistogram(st).Sum()
	}
	sn.batchN = obs.StageHistogram(obs.StageBatch).Count()
	runtime.ReadMemStats(&sn.mem)
	return sn
}

// servingPhases is what the timed phases of one serving run produced, with
// the counter snapshots taken between them.
type servingPhases struct {
	sat, satTraced                                     closedResult // satTraced only in a traced run
	paced                                              pacedResult
	before, afterSat, beforeTraced, beforePaced, after snapshot
}

// runServing runs one serving workload: set-up (several times), warm-up,
// output check, saturation, paced, output check. The traced run shortens
// the phases, repeats saturation with obs enabled and fills the per-layer
// table.
func runServing(w workload, cfg runConfig) (*runResult, error) {
	res := newResult(w)
	sz := sizesFor(cfg.smoke)
	rec := cfg.recorder()
	root := rec.begin("run."+w.name, -1, 0)

	satDur, pacedDur := cfg.phase(0.3), cfg.phase(0.7)
	if cfg.trace {
		satDur, pacedDur = cfg.phase(0.15), cfg.phase(0.3)
	}

	// Set-up, setupReps times; the last system built is the one measured.
	var sys *servingSystem
	var setups, setupsMeasured, loads []float64
	for rep := 0; rep < sz.setupReps; rep++ {
		if sys != nil {
			sys.close()
		}
		h := rec.begin("setup", root, 0)
		var s *servingSystem
		var loadDur time.Duration
		var err error
		measured, atRef := timedAtRefSpeed(func() { s, loadDur, err = buildServing(w, sz, cfg.seed, rec, h) })
		if err != nil {
			return nil, err
		}
		setups, setupsMeasured = append(setups, atRef), append(setupsMeasured, measured)
		loads = append(loads, float64(loadDur)/1e6)
		rec.end(h)
		sys = s
	}
	defer sys.close()
	res.e2e["setup_s"] = median(setups)
	res.layer["load.setup_s_measured"] = median(setupsMeasured)
	res.layer["dataset.load_ms"] = median(loads)

	ld := genLoad(cfg.seed, sys.ds.Graph.NumVertices, w, sz, pacedDur)
	want, err := referenceLogits(sys, ld.probe)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}

	// Only the traced saturation and the paced phase carry a span per
	// request: the warm-up and the untraced saturation are measured with no
	// recorder in the path, and would fill it before the traced phases start.
	var reqID atomic.Uint64
	phaseSpan := int32(-1)
	tracedDo := func(node int32) error {
		h := rec.begin("serve.Predict", phaseSpan, reqID.Add(1))
		err := sys.predict(node)
		rec.end(h)
		return err
	}
	plain := func(int) predictFn { return sys.predict }
	phase := func(name string, fn func()) {
		runtime.GC()
		phaseSpan = rec.begin(name, root, 0)
		fn()
		rec.end(phaseSpan)
	}

	var warm outcome
	var ph servingPhases
	phase("warm", func() { warm = runCount(ld.warm, sys.predict) })
	sys.checkParity(ld.probe, want, &res.tally)

	ph.before = sys.snapshot()
	phase("sat", func() { ph.sat = runClosed(ld.sat, satDur, satWindows, plain) })
	ph.afterSat = sys.snapshot()
	if cfg.trace {
		obs.Enable(obsRing)
		defer obs.Disable()
		ph.beforeTraced = sys.snapshot()
		nTraced := tracedClients(ph.sat.completed / clients)
		res.note("trace", fmt.Sprintf("sat.traced: the requests of %d of %d clients carry a span", nTraced, clients))
		phase("sat.traced", func() {
			ph.satTraced = runClosed(ld.sat, satDur, satWindows, func(c int) predictFn {
				if c < nTraced {
					return tracedDo
				}
				return sys.predict
			})
		})
	}
	ph.beforePaced = sys.snapshot()
	pacedDo := sys.predict
	if rec != nil {
		pacedDo = tracedDo
	}
	phase("paced", func() {
		ph.paced = runPaced(ld.paced, ld.due, pacedDur, pacedWindows, pacedPool, pacedLimit, pacedDo)
	})
	ph.after = sys.snapshot()
	sys.checkParity(ld.probe, want, &res.tally)
	sat, satTraced, paced := ph.sat, ph.satTraced, ph.paced

	for _, o := range []outcome{warm, sat.outcome, satTraced.outcome, paced.outcome} {
		res.tally.add(o.attempted(), o.shed+o.errs)
	}
	res.tally.overLimit = paced.over
	if len(paced.latMs) == 0 || sat.completed == 0 {
		return nil, fmt.Errorf("no request completed (sat %d, paced %d)", sat.completed, len(paced.latMs))
	}

	// Every timed figure is taken per window and scaled to reference speed
	// by that window's slowdown (see speed.go); the metric is the median
	// over the windows. The per-layer load.*_measured rows are the same
	// medians before scaling.
	pacedMs := float64(pacedDur) / 1e6
	winMs := pacedMs / pacedWindows
	p50s := windowQuantiles(paced.dueMs, paced.latMs, pacedMs, pacedWindows, 0.5)
	tails := windowQuantiles(paced.dueMs, paced.latMs, pacedMs, pacedWindows, w.tailQ)
	res.layer["load.p50_ms_measured"], res.layer["load.tail_ms_measured"] = median(p50s.vals), median(tails.vals)
	for _, q := range []windowed{p50s, tails} {
		for i, win := range q.window {
			q.vals[i] = latencyAtRefSpeed(q.vals[i], paced.speed.slowdown(float64(win)*winMs, float64(win+1)*winMs))
		}
	}
	cpus, cpusMeasured := paced.cpuPerReq()
	if len(cpus) == 0 {
		return nil, fmt.Errorf("no paced window completed a request")
	}
	res.e2e["qps"] = median(sat.ratesAtRefSpeed())
	res.e2e["p50_ms"] = median(p50s.vals)
	res.e2e["tail_ms"] = median(tails.vals)
	res.layer["load.cpu_ms_per_req"] = median(cpus)
	res.layer["load.qps_measured"] = median(sat.windowRates())
	res.layer["load.cpu_ms_per_req_measured"] = median(cpusMeasured)
	res.layer["load.ref_slowdown_sat"] = sat.speed.overall()
	res.layer["load.ref_slowdown_paced"] = paced.speed.overall()
	res.layer["load.p99_ms_whole"] = quantile(sortedCopy(paced.latMs), 0.99)
	res.note("speed", fmt.Sprintf("reference kernel ran %.3f × nominal in sat, %.3f × in paced",
		res.layer["load.ref_slowdown_sat"], res.layer["load.ref_slowdown_paced"]))
	res.note("windows", fmt.Sprintf("sat req/s measured %.4g, at reference speed %.4g; traced sat req/s %.4g; at reference speed: paced p50 ms %.4g, tail ms %.4g, cpu ms/req %.4g",
		sat.windowRates(), sat.ratesAtRefSpeed(), satTraced.windowRates(), p50s.vals, tails.vals, cpus))

	// The generator's own health: how late the dispatcher sent each request,
	// per window like every other timed figure.
	dueAllMs := make([]float64, len(ld.due))
	for i, d := range ld.due {
		dueAllMs[i] = float64(d) / 1e6
	}
	lateP99s := windowQuantiles(dueAllMs, paced.lateUs, pacedMs, pacedWindows, 0.99).vals
	late := median(lateP99s)
	res.layer["proc.gen_late_p99_us"] = late
	res.layer["proc.gen_late_p50_us"] = quantile(sortedCopy(paced.lateUs), 0.5)
	res.layer["load.paced_samples"] = float64(len(paced.latMs))
	res.note("phases", fmt.Sprintf("warm %d req in %v; sat %d req in %v; paced %d due, %d completed, %d over %v, %d shed, %d errors",
		warm.completed, warm.elapsed.Round(time.Millisecond), sat.completed, sat.elapsed.Round(time.Millisecond),
		len(ld.paced), paced.completed, paced.over, pacedLimit, paced.shed, paced.errs))
	res.note("generator", fmt.Sprintf("dispatch lateness us: p50 %.0f, whole-phase p99 %.0f, per-window p99 %.4g",
		res.layer["proc.gen_late_p50_us"], quantile(sortedCopy(paced.lateUs), 0.99), lateP99s))

	if cfg.trace {
		servingLayers(res, sys, ph)
		if err := layerProbes(res, sys.ds, sys.eng.Plan(), w, sz, cfg, rec, root); err != nil {
			return nil, err
		}
	}
	rec.end(root)
	return res, cfg.finishTrace(res, rec)
}

// servingLayers derives the per-layer metrics that come from the phases'
// own counters, read from outside through the public accessors.
func servingLayers(res *runResult, sys *servingSystem, ph servingPhases) {
	sat, satTraced, paced := ph.sat, ph.satTraced, ph.paced
	before, afterSat, beforeTraced, beforePaced, after := ph.before, ph.afterSat, ph.beforeTraced, ph.beforePaced, ph.after
	m := res.layer
	perReq := func(x float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}

	// Whole measured span: batching and shedding.
	dBatches := after.stats.Batches - before.stats.Batches
	dCompleted := after.stats.Completed - before.stats.Completed
	dShed := after.stats.Shed - before.stats.Shed
	m["serve.batch_size_mean"] = perReq(float64(dCompleted), dBatches)
	m["serve.shed_frac"] = perReq(float64(dShed), dCompleted+dShed)

	// Untraced saturation: allocation and modelled device work per request.
	m["serve.allocs_per_req"] = perReq(float64(afterSat.mem.Mallocs-before.mem.Mallocs), sat.completed)
	m["serve.alloc_kb_per_req"] = perReq(float64(afterSat.mem.TotalAlloc-before.mem.TotalAlloc)/1024, sat.completed)
	satBatches := afterSat.stats.Batches - before.stats.Batches
	m["device.sim_us_per_forward"] = perReq((afterSat.dev.SimSeconds-before.dev.SimSeconds)*1e6, satBatches)
	m["device.flops_per_req"] = perReq(afterSat.dev.FLOPs-before.dev.FLOPs, sat.completed)
	m["device.bytes_per_req"] = perReq(afterSat.dev.Bytes-before.dev.Bytes, sat.completed)

	// Traced window (sat.traced + paced): obs stage sums per request.
	traced := satTraced.completed + paced.completed
	stage := func(st obs.Stage) float64 {
		return float64(after.stages[st]-beforeTraced.stages[st]) / 1e3 // us
	}
	var inner float64
	for _, sm := range []struct {
		name string
		st   obs.Stage
	}{
		{"serve.demux_us_per_req", obs.StageDemux}, {"serve.sample_us_per_req", obs.StageSample},
		{"serve.cache_us_per_req", obs.StageCache}, {"serve.partition_us_per_req", obs.StagePartition},
		{"serve.exec_us_per_req", obs.StageExec}, {"serve.collective_us_per_req", obs.StageCollective},
	} {
		m[sm.name] = perReq(stage(sm.st), traced)
		inner += stage(sm.st)
	}
	if b := stage(obs.StageBatch); b > 0 {
		m["serve.stage_cover_frac"] = inner / b
	}
	if sim := after.dev.SimSeconds - beforeTraced.dev.SimSeconds; sim > 0 {
		m["device.wall_over_sim"] = stage(obs.StageExec) / 1e6 / sim
	}
	// Fill wait: what a paced request waits outside its batch's span.
	if n := after.batchN - beforePaced.batchN; n > 0 {
		var sum float64
		for _, l := range paced.latMs {
			sum += l
		}
		meanBatchUs := float64(after.stages[obs.StageBatch]-beforePaced.stages[obs.StageBatch]) / 1e3 / float64(n)
		m["serve.fill_wait_us"] = sum/float64(len(paced.latMs))*1e3 - meanBatchUs
	}
	m["obs.trace_overhead_frac"] = 1 - median(satTraced.ratesAtRefSpeed())/median(sat.ratesAtRefSpeed())

	// Cache state after the phases: the engine's own cache, or the shards'.
	cs := sys.eng.Cache().Snapshot()
	for _, sv := range sys.servers {
		sc := sv.Shard().Cache().Snapshot()
		cs.Hits, cs.Misses = cs.Hits+sc.Hits, cs.Misses+sc.Misses
		cs.Evicted, cs.Bytes = cs.Evicted+sc.Evicted, cs.Bytes+sc.Bytes
	}
	if probes := cs.Hits + cs.Misses; probes > 0 {
		m["hotcache.hit_rate"] = float64(cs.Hits) / float64(probes)
	}
	m["hotcache.evict_per_kreq"] = perReq(float64(cs.Evicted)*1000, after.stats.Completed)
	m["hotcache.resident_mb"] = float64(cs.Bytes) / (1 << 20)

	// Router-side fleet counters over the measured span.
	if f := sys.eng.Fleet(); f != nil {
		var rpcs, in, out uint64
		for i, st := range after.stats.PerShard {
			b := before.stats.PerShard[i]
			rpcs += st.RPCs - b.RPCs
			in += st.BytesIn - b.BytesIn
			out += st.BytesOut - b.BytesOut
			m["shard.rpc_p50_ms"] = max(m["shard.rpc_p50_ms"], st.P50Ms)
			m["shard.rpc_p99_ms"] = max(m["shard.rpc_p99_ms"], st.P99Ms)
		}
		m["shard.rpcs_per_batch"] = perReq(float64(rpcs), dBatches)
		m["shard.bytes_out_per_req"] = perReq(float64(out), dCompleted)
		m["shard.bytes_in_per_req"] = perReq(float64(in), dCompleted)
		r, h, t, fl := f.Resilience()
		m["shard.retries"], m["shard.hedges"], m["shard.timeouts"], m["shard.failures"] =
			float64(r), float64(h), float64(t), float64(fl)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.gc_pause_ms"] = float64(ms.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["proc.peak_rss_mb"] = peakRSSMiB()
}
