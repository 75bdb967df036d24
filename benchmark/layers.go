package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"wisegraph/internal/core"
	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph"
	"wisegraph/internal/hotcache"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/shard"
	"wisegraph/internal/shard/wire"
	"wisegraph/internal/tensor"
	"wisegraph/internal/train"
)

// The per-layer probes: each layer of the program timed from outside, by
// calling its public functions on inputs drawn from the workload's seeded
// stream. They do not depend on the workload's phases, so every traced run
// fills the same rows; nothing here changes a file outside benchmark/.

// partitionAttrs are the statistics train.ReusePlan and joint.Search
// collect with every partition.
var partitionAttrs = []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree}

type prober struct {
	rec  *recorder
	span int32
}

// measure runs fn reps times under one span and returns the mean wall time
// of a repetition with its heap allocations and allocated bytes.
func (p prober) measure(name string, reps int, fn func()) (perRep time.Duration, allocs, allocBytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := p.rec.span(name, p.span, func() {
		for i := 0; i < reps; i++ {
			fn()
		}
	})
	runtime.ReadMemStats(&m1)
	n := float64(reps)
	return d / time.Duration(reps), float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

// perKey calls fn(0) … fn(n-1) under one span and returns the mean wall time
// and heap allocations of a call.
func (p prober) perKey(name string, n int, fn func(i int)) (perCall time.Duration, allocs float64) {
	i := 0
	d, a, _ := p.measure(name, n, func() {
		fn(i)
		i++
	})
	return d, a
}

// measureFor repeats fn for about budget (at least once) and returns the
// mean wall time and heap allocations of a repetition.
func (p prober) measureFor(name string, budget time.Duration, fn func()) (perRep time.Duration, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reps := 0
	d := p.rec.span(name, p.span, func() {
		for t0 := time.Now(); reps == 0 || time.Since(t0) < budget; reps++ {
			fn()
		}
	})
	runtime.ReadMemStats(&m1)
	return d / time.Duration(reps), float64(m1.Mallocs-m0.Mallocs) / float64(reps)
}

// medianOf times fn `reps` times, one span each, and returns the median ms.
func (p prober) medianOf(name string, reps int, fn func()) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		ms[i] = float64(p.rec.span(name, p.span, fn)) / 1e6
	}
	return median(ms)
}

func fanouts() []int {
	f := make([]int, modelLayers)
	for i := range f {
		f[i] = fanout
	}
	return f
}

func dedup(ids []int32) []int32 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return slices.Compact(out)
}

// plan is the serving engine's frozen plan — the one every block of the
// workload was partitioned and run under; nil (training, which has no
// engine) falls back to the plan the sampled-subgraph search below finds.
func layerProbes(res *runResult, ds *dataset.Dataset, plan *joint.Result, w workload, sz sizes, cfg runConfig, rec *recorder, root int32) error {
	p := prober{rec: rec, span: rec.begin("layers", root, 0)}
	defer rec.end(p.span)
	m := res.layer
	g := ds.Graph
	pick := newPicker(g.NumVertices, w.zipf)
	keys := pick.fill(make([]int32, sz.probeVerts), streamRNG(cfg.seed, 5))

	// tensor: the box-drift yardstick, reported beside every traced run so
	// cross-day numbers can be normalised by a reader; never used to rescale.
	a, b := tensor.New(4096, 128), tensor.New(128, 64)
	tensor.Uniform(a, streamRNG(cfg.seed, 6), -1, 1)
	tensor.Uniform(b, streamRNG(cfg.seed, 7), -1, 1)
	c := tensor.New(4096, 64)
	tensor.MatMul(c, a, b)
	mm, _, _ := p.measure("tensor.MatMul", sz.matmulReps, func() { tensor.MatMul(c, a, b) })
	m["tensor.matmul_gflops"] = 2 * 4096 * 128 * 64 / float64(mm)

	// graph
	var csr *graph.CSR
	m["graph.csr_build_ms"] = p.medianOf("graph.BuildCSRByDst", sz.reps, func() { csr = g.BuildCSRByDst() })
	ds1, dsAllocs := p.perKey("graph.DetSample", len(keys), func(i int) {
		graph.DetSample(nil, csr, keys[i], fanout, samplerSeed) // nil dst, as the leveled forward calls it
	})
	m["graph.detsample_ns_per_vertex"] = float64(ds1)
	m["graph.detsample_allocs_per_vertex"] = dsAllocs

	hotcacheProbes(p, m, csr, keys, g.NumVertices)

	// joint: the search serve.NewEngine runs once at start-up, on the same
	// representative sampled subgraph (serve's tunePlan recipe: BatchCap ×
	// MaxNodes strided seeds, the sampler key's RNG). Only this row and its
	// two counts depend on the copied recipe.
	n := min(16*256, g.NumVertices)
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i * (g.NumVertices / n) % g.NumVertices)
	}
	var sampled *joint.Result
	m["joint.search_ms_sampled"] = p.medianOf("joint.Search", sz.reps, func() {
		sub := graph.NeighborSample(g, csr, seeds, fanouts(), tensor.NewRNG(samplerSeed^0x73657276))
		sampled = joint.Search(sub.Graph, nn.SAGE, modelHidden, modelHidden, g.NumTypes, joint.Options{Spec: device.A100()})
	})
	m["joint.plans_tried"] = float64(sampled.PlansTried)
	m["joint.partition_cache_hits"] = float64(sampled.CacheHits)
	if plan == nil {
		plan = sampled
	}

	// core: the O(E) plan-reuse partition serving pays per block, and the
	// full-graph partition the training tune pays.
	rng := streamRNG(cfg.seed, 8)
	blocks := make([]*graph.Graph, sz.probeBlocks)
	edges := 0
	for i := range blocks {
		blocks[i] = graph.NeighborSample(g, csr, dedup(pick.fill(make([]int32, sz.blockSeeds), rng)), fanouts(), rng).Graph
		edges += len(blocks[i].Src)
	}
	pt := core.NewPartitioner()
	defer pt.Release()
	reuse, _ := p.perKey("train.ReusePlanWith", len(blocks), func(i int) { train.ReusePlanWith(pt, plan, blocks[i]) })
	m["core.reuse_partition_ns_per_edge"] = float64(reuse) * float64(len(blocks)) / float64(edges)
	full := joint.Search(g, nn.SAGE, modelHidden, modelHidden, g.NumTypes, joint.Options{Spec: device.A100()})
	fullMs := p.medianOf("core.PartitionGraph", sz.reps, func() { core.PartitionGraph(g, full.GraphPlan, partitionAttrs) })
	m["core.full_partition_ns_per_edge"] = fullMs * 1e6 / float64(len(g.Src))

	if err := kernelProbes(p, m, ds, blocks[0], plan, cfg.seed, sz.kernelBudget); err != nil {
		return err
	}

	// nn: the reference forward and the training step on the full graph.
	fg, err := train.NewFullGraph(ds, modelConfig(ds, nn.SAGE, cfg.seed), learnRate)
	if err != nil {
		return err
	}
	fg.Epoch() // first step sizes the sticky buffers
	fwd := p.medianOf("nn.Model.Forward", sz.reps, func() { fg.Model.Forward(fg.GC, ds.Features) })
	epoch, epochAllocs, _ := p.measure("train.FullGraph.Epoch", sz.reps, func() { fg.Epoch() })
	m["nn.forward_ms"] = fwd
	m["nn.backward_step_ms"] = float64(epoch)/1e6 - fwd
	m["nn.trainstep_allocs"] = epochAllocs

	if err := fleetProbes(p, m, ds, csr, plan, keys, sz, cfg.seed); err != nil {
		return err
	}
	return wireProbes(p, m, blocks[0], cfg.seed)
}

// hotcacheProbes drives a standalone cache with (level, vertex) keys from
// the workload's stream: rows are as wide as the level they belong to.
func hotcacheProbes(p prober, m map[string]float64, csr *graph.CSR, keys []int32, vertices int) {
	dims := []int{128, modelHidden, modelHidden, 40}
	row := make([]float32, 128)
	level := func(i int) int { return i % len(dims) }
	deg := func(v int32) int32 { return csr.RowPtr[v+1] - csr.RowPtr[v] }

	empty := hotcache.New(hotcache.Config{Budget: cacheBudgetAll})
	miss, _ := p.perKey("hotcache.Get.miss", len(keys), func(i int) {
		empty.Get(0, level(i), keys[i], row[:dims[level(i)]])
	})
	big := hotcache.New(hotcache.Config{Budget: cacheBudgetAll})
	put, _ := p.perKey("hotcache.Put", len(keys), func(i int) {
		big.Put(0, level(i), keys[i], deg(keys[i]), row[:dims[level(i)]])
	})
	hit, _ := p.perKey("hotcache.Get.hit", len(keys), func(i int) {
		big.Get(0, level(i), keys[i], row[:dims[level(i)]])
	})
	// A full 2 MiB cache: distinct hidden-width keys until nothing more
	// fits, then time the Puts that must evict or be refused.
	small := hotcache.New(hotcache.Config{Budget: fleetCacheBudget})
	fill := fleetCacheBudget / (modelHidden * 4) // more rows than the budget holds
	next := 0
	putNext := func() {
		v := int32(next % vertices)
		small.Put(0, 1+next/vertices, v, deg(v), row[:modelHidden])
		next++
	}
	for range fill {
		putNext()
	}
	evict, _, _ := p.measure("hotcache.Put.evict", len(keys), putNext)
	m["hotcache.get_miss_ns"], m["hotcache.put_ns"] = float64(miss), float64(put)
	m["hotcache.get_hit_ns"], m["hotcache.put_evict_ns"] = float64(hit), float64(evict)
}

// kernelProbes runs one hidden→hidden layer per (engine, model) on one
// fixed sampled block — the only view of the engines and models the
// end-to-end shape does not run.
func kernelProbes(p prober, m map[string]float64, ds *dataset.Dataset, block *graph.Graph, plan *joint.Result, seed uint64, budget time.Duration) error {
	pt := core.NewPartitioner()
	defer pt.Release()
	part := pt.Partition(block, plan.GraphPlan, partitionAttrs)
	gc := nn.NewGraphCtx(block)
	x := tensor.New(block.NumVertices, modelHidden)
	tensor.Uniform(x, streamRNG(seed, 9), -1, 1)
	edges := float64(len(block.Src))

	for _, k := range []struct {
		engine string
		kind   nn.ModelKind
		metric string
	}{
		{"blocked", nn.SAGE, "kernels.blocked.sage_ns_per_edge"},
		{"fused", nn.SAGE, "kernels.fused.sage_ns_per_edge"},
		{"device", nn.SAGE, "kernels.device.sage_ns_per_edge"},
		{"fused", nn.GCN, "kernels.fused.gcn_ns_per_edge"},
		{"fused", nn.GAT, "kernels.fused.gat_ns_per_edge"},
		{"fused", nn.RGCN, "kernels.fused.rgcn_ns_per_edge"},
		{"blocked", nn.RGCN, "kernels.blocked.rgcn_ns_per_edge"},
	} {
		model, err := nn.NewModel(modelConfig(ds, k.kind, seed))
		if err != nil {
			return err
		}
		ectx := exec.NewCtx(device.New(device.A100()))
		ectx.Engine = k.engine
		run := func() {
			out, rerr := kernels.RunModelLayer(ectx, gc, model, 1, x, part, plan.OpPlan)
			if rerr != nil {
				err = rerr
				return
			}
			tensor.Put(out)
		}
		if run(); err != nil { // warms the tensor pool; surfaces a plan the engine cannot run
			return fmt.Errorf("%s %v layer: %w", k.engine, k.kind, err)
		}
		d, allocs := p.measureFor("kernels.RunModelLayer."+k.engine+"."+k.kind.String(), budget, run)
		m[k.metric] = float64(d) / edges
		if k.metric == "kernels.blocked.sage_ns_per_edge" {
			m["kernels.layer_allocs"] = allocs
		}
	}
	// Computed from the engines' cost model, not measured.
	sh := kernels.LayerShape{Kind: nn.SAGE, F: modelHidden, Fp: modelHidden, Types: block.NumTypes}
	for _, name := range []string{"blocked", "fused"} {
		eng, err := kernels.Select(name)
		if err != nil {
			return err
		}
		m["kernels."+name+".bytes_per_edge"] = eng.LayerBytes(sh, part, plan.OpPlan) / edges
	}
	return nil
}

// fleetProbes calls Fleet.Forward directly, caches off, on an in-process
// fleet and on a loopback-TCP fleet over the same batches, alternating — a
// same-run control, so the ratio survives box drift.
func fleetProbes(p prober, m map[string]float64, ds *dataset.Dataset, csr *graph.CSR, plan *joint.Result, keys []int32, sz sizes, seed uint64) error {
	model, err := nn.NewModel(modelConfig(ds, nn.SAGE, seed))
	if err != nil {
		return err
	}
	// The probe times Forward, not the resilience ladder: a deadline no
	// slow box (or race-detector build) reaches, so no batch is retried.
	cfg := shard.Config{Shards: fleetShards, Workers: 2, Fanouts: fanouts(), Seed: samplerSeed, Timeout: rpcTimeout}
	inproc, err := shard.NewFleet(csr, ds.Features, ds.Graph.NumTypes, model, plan, cfg)
	if err != nil {
		return err
	}
	defer inproc.Close()

	var addrs []string
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < fleetShards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		sv := shard.NewServer(csr, ds.Features, ds.Graph.NumTypes, model, shard.NodeConfig{Workers: 2})
		wg.Add(1)
		go func() {
			defer wg.Done()
			sv.Serve(ln)
		}()
		defer sv.Close()
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	tcp, err := shard.NewRemoteFleet(csr, ds.Features, ds.Graph.NumTypes, model, plan, cfg, addrs)
	if err != nil {
		return err
	}
	defer tcp.Close()

	forward := func(f *shard.Fleet, seeds []int32) error {
		id := obs.NewID()
		logits, _, err := f.Forward(id, 0, seeds, obs.Begin(obs.StageSample, id))
		if err == nil {
			tensor.Put(logits)
		}
		return err
	}
	var inprocUs, tcpUs, allocs float64
	for b := 0; b < sz.fwdBatches; b++ {
		off := b * sz.blockSeeds % (len(keys) - sz.blockSeeds)
		seeds := dedup(keys[off : off+sz.blockSeeds])
		d, a, _ := p.measure("shard.Fleet.Forward.inproc", 1, func() { err = forward(inproc, seeds) })
		if err != nil {
			return fmt.Errorf("in-process Fleet.Forward: %w", err)
		}
		inprocUs, allocs = inprocUs+float64(d)/1e3, allocs+a
		d, _, _ = p.measure("shard.Fleet.Forward.tcp", 1, func() { err = forward(tcp, seeds) })
		if err != nil {
			return fmt.Errorf("TCP Fleet.Forward: %w", err)
		}
		tcpUs += float64(d) / 1e3
	}
	nb := float64(sz.fwdBatches)
	m["shard.forward_inproc_us_per_batch"] = inprocUs / nb
	m["shard.forward_tcp_us_per_batch"] = tcpUs / nb
	m["shard.tcp_cost_ratio"] = tcpUs / inprocUs
	m["shard.forward_allocs_per_batch"] = allocs / nb
	return nil
}

// wireProbes encodes, frames and decodes a ComputeArgs and an ExpandReply
// of the shape one 16-seed batch's first layer produces.
func wireProbes(p prober, m map[string]float64, block *graph.Graph, seed uint64) error {
	nIn := block.NumVertices
	nOut := max(1, nIn/(fanout+1))
	ids := func(n int) []int32 {
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(i)
		}
		return v
	}
	rows := func(n int) []float32 {
		t := tensor.New(n)
		tensor.Uniform(t, streamRNG(seed, 10), -1, 1)
		return t.Data()
	}
	ca := &wire.ComputeArgs{Batch: 1, Level: 1, InDim: 128, OutDim: modelHidden, Verts: ids(nOut), In: ids(nIn), Rows: rows(nIn * 128)}
	er := &wire.ExpandReply{Hit: make([]bool, nOut), Rows: rows(nOut * modelHidden), Srcs: make([][]int32, nOut)}
	for i := range er.Srcs {
		er.Srcs[i] = ids(fanout)
	}
	const reps = 20
	var caFrame, erFrame []byte
	enc, _, _ := p.measure("wire.Append", reps, func() {
		caFrame = wire.AppendComputeArgs(caFrame[:0], 1, ca)
		erFrame = wire.AppendExpandReply(erFrame[:0], 2, er)
	})
	kb := float64(len(caFrame)+len(erFrame)) / 1024
	var caPayload, erPayload []byte
	var err error
	_, _, readBytes := p.measure("wire.ReadFrame", reps, func() {
		if _, _, caPayload, err = wire.ReadFrame(bytes.NewReader(caFrame)); err == nil {
			_, _, erPayload, err = wire.ReadFrame(bytes.NewReader(erFrame))
		}
	})
	if err != nil {
		return fmt.Errorf("wire.ReadFrame: %w", err)
	}
	dec, decAllocs, _ := p.measure("wire.Decode", reps, func() {
		if _, err = wire.DecodeComputeArgs(caPayload); err == nil {
			_, err = wire.DecodeExpandReply(erPayload)
		}
	})
	if err != nil {
		return fmt.Errorf("wire.Decode: %w", err)
	}
	m["wire.encode_ns_per_kb"] = float64(enc) / kb
	m["wire.decode_ns_per_kb"] = float64(dec) / kb
	m["wire.decode_allocs_per_frame"] = decAllocs / 2
	m["wire.readframe_alloc_kb"] = readBytes / 2 / 1024
	return nil
}
