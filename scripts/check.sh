#!/usr/bin/env bash
# Repository health check: vet, build, and the full test suite under the
# race detector. CI and pre-commit both run this; it must stay fast enough
# to run on every change (timed at PR 25 on the 2-vCPU CI box, build cache
# warm: 3 min 28 s wall with go's test cache empty, 2 min 2 s with it warm).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# The vector kernel is assembly on amd64 only; every other platform runs
# the generic loops in internal/tensor/kernel.go. Cross-vet and cross-build
# one of them so that path keeps compiling.
echo "== GOARCH=arm64 go vet + go build (generic kernel path)"
GOOS=linux GOARCH=arm64 go vet ./...
GOOS=linux GOARCH=arm64 go build ./...
# Initial weights must be the same bits on every architecture (shard.ParamSum
# compares them at the Hello handshake), so arm64 must not fuse the multiply
# and the add of tensor.Uniform into one FMADD.
UNIFORM_ASM="${TMPDIR:-/tmp}/uniform_arm64.s"
GOOS=linux GOARCH=arm64 go build -gcflags=-S ./internal/tensor 2>&1 |
  awk '/^wisegraph\/internal\/tensor\.Uniform STEXT/ { on = 1 } on && / STEXT / && !/tensor\.Uniform STEXT/ { on = 0 } on' \
  >"$UNIFORM_ASM"
[ -s "$UNIFORM_ASM" ] || { echo "FAIL: no arm64 listing of tensor.Uniform"; exit 1; }
if grep -E 'FN?MADD|FN?MSUB' "$UNIFORM_ASM"; then
  echo "FAIL: arm64 fuses a multiply-add in tensor.Uniform"; exit 1
fi
# The row kernels are a VMULPS then a VADDPS, never a fused multiply-add,
# and the Box–Muller kernel rounds where math.Log and math.Cos do: one
# rounding instead of two would break their bitwise parity with the
# generic loops (DESIGN "The one vector kernel").
if grep -nE 'VFN?M(ADD|SUB)' internal/tensor/*.s; then
  echo "FAIL: fused multiply-add in the tensor assembly"; exit 1
fi

echo "== go test -race ./... (all but ./benchmark)"
# internal/bench runs ~24s without the race detector; the ~15-20x race
# multiplier on a one-core box puts it near go test's default 10m
# per-package timeout, so give the full race pass explicit headroom.
# ./benchmark stays out of the race pass: its tests smoke the workloads,
# which drive serve, shard and train — packages this pass and the batteries
# below already run under -race — and cost ~50 s here for no new coverage.
go test -race -timeout 30m $(go list ./... | grep -v '/benchmark$')

echo "== go test ./benchmark"
go test -count=1 ./benchmark

# The set-up benchmarks (BenchmarkJointSearch, whose train-fullgraph case
# is the end-to-end benchmark's set-up tune, BenchmarkPartitionGraph
# against the reference, BenchmarkLoad, the benchmark's dataset load, and
# BenchmarkMakespan, an edge-centric schedule and a random one) run once
# each, so they keep compiling and running; their timings are read by
# hand, never here.
echo "== set-up benchmarks, once"
go test -count=1 -run '^$' -bench 'JointSearch|PartitionGraph|Load|Makespan' -benchtime 1x \
  ./internal/joint/ ./internal/core/ ./internal/dataset/ ./internal/device/ >/dev/null

# The race pass above ran every suite at the box's own width; the steps
# below re-run the scheduling-sensitive ones at the other extreme, one P.

# run_filtered LABEL REGEX PKG...: go test -race -run REGEX over the
# packages at GOMAXPROCS=1. go test exits 0 with "[no tests to run]" when
# a package matches nothing, so a renamed or deleted test would silently
# drop out of the step; here a listed package that runs nothing fails it.
run_filtered() {
  local label="$1" regex="$2" log="${TMPDIR:-/tmp}/filtered_tests.txt"
  shift 2
  echo "== $label under -race (GOMAXPROCS=1)"
  GOMAXPROCS=1 go test -race -count=1 -run "$regex" "$@" 2>&1 | tee "$log"
  if grep -qF '[no tests to run]' "$log"; then
    echo "FAIL: -run '$regex' matches no test in the package(s) above"
    return 1
  fi
}

# The partitioner (radix sort, stamped trackers, scratch reuse) must be
# byte-identical to the reference for every plan, and the concurrent joint
# search must return the same Result at every width; the determinism tests
# set their own widths, so this leg adds the start from one P. The parity
# graphs include copies already in dst and (dst, src) order, so every plan
# keyed on that prefix runs the sorted-input skip (sortedBy: no radix sort
# when the edges arrive in key order) against the reference, the rest the
# sort; TestSortedBy pins the check itself. Every plan of the search space
# is also partitioned through one Table in a shuffled order, sharing one
# sorted order per sort key (cut at edge-id, TestSortKeyCutsAtEdgeID), and
# from several goroutines at once (TestTableConcurrentPartitions). On every graph grouped by
# destination the born partition a serving block gets under a
# destination-batch plan (PartitionRows: read off the row pointers, no
# sort, no scan) must equal the reference and Partition too, in the
# reuse test interleaved with Partition on one Partitioner so the two
# share stamp generations. The composed programs
# (internal/kernels/testdata/programs.golden) and the plans the search
# picks (internal/joint/testdata/picks.golden) must hold at one P too, and
# so must the benchmark's dataset, hashed array by array (TestLoadGolden).
run_filtered "parity/determinism" 'Parity|Determin|Reuse|Concurrent|SortedBy|SortKey|Golden' \
  ./internal/core/ ./internal/graph/ ./internal/joint/ ./internal/kernels/ ./internal/dataset/

# The row kernels against their generic oracles — each assembly kernel the
# CPU has, as a subtest: .../avx512 (where CPUID reports AVX-512) and
# .../avx2 of TestMulAddRow{,Strided}BitwiseEqualScalar,
# TestMulAddRowZeroSkipBitwise and TestMatMulTransABitwiseEqualTransposed
# (unit-stride and strided, every tile, the masked tail and remainder,
# ±0/NaN/Inf, a skipped term against Inf/NaN), MatMulTransA against
# MatMulAcc over an explicit transpose (also as .../dispatch, on whatever
# mulAddRow picks, on every platform); the aggregation run kernel in
# TestAccumRunBitwise (.../avx512, .../avx2 and .../dispatch against the
# per-edge walk, widths 1–130, runs of 0–17 sources, ±0/±Inf/NaN) and
# TestAccumRunPanicsOnBadArgs; the float64 Box–Muller kernel in
# TestBoxMullerBitwise (.../avx512 and .../dispatch against math.Log and
# math.Cos: 10⁷ stream draws, u and v at their edges, rows of 1–130) and
# TestBoxMullerPanicsOnShortInput; EdgeSpMM in TestEdgeSpMMBitwise (forward,
# transpose and a destination-row subset at 1, 2 and 4 workers against
# the per-edge walk) and the bias gradient's row adds in
# TestAccumBiasGradBitwise; every layer's backward without the input
# gradient against the one with it, and every layer's Infer — the gTask
# and serving entry — against Forward, against itself from concurrent
# callers, over destination-row subsets and around a backward — bit for
# bit; and the context a serving block's row pointers state
# (TestGraphCtxRowsBitwiseEqualOrder) against NewGraphCtxOrder, array for
# array. The race pass above ran them at the box's width; this leg runs
# them on one P.
run_filtered "kernel oracles / first-layer backward / Infer" 'Bitwise|Panics|FirstLayer|Infer' \
  ./internal/tensor/ ./internal/nn/

# Multi-device forward parity: every model's distributed forward — the nn
# layer run on each device's owned-destination block after the halo
# exchange — against the single-device layer, bit for bit, at 1/2/4
# devices under every placement that executes; the GCN and SAGE layer
# tests hold the same at 4 devices on an untyped graph.
run_filtered "multi-device forward parity" 'ForwardBitwise|ForwardMatchesReference' ./internal/dist/

# Cross-engine parity: the gTask output must be m.Forward over the
# partition's edge order bit for bit across models, plans, worker counts
# and destination-row sets, under every engine name exec.Ctx can carry.
# The executor reads no name (an engine is only a LayerBytes model), so
# these loops are vacuous and go with Ctx.Engine. A frozen partition's
# forwards must run over the one task-ordered context the first built
# (TestGTaskExecutionReusesOrderedContext).
run_filtered "cross-engine parity" 'Engine|DestinationRows|GTaskExecution|ParityAllPlans' ./internal/kernels/

# One accounting: every layer the gTask executor runs charges the device
# exactly what the search prices it at — joint.LayerTime over
# joint.UniformSchedule, the FLOPs and bytes of the dense kernels plus
# CostPartition's tasks — for every model under its searched plan, and on
# a destination-row subset with the dense kernels at the subset's rows.
run_filtered "executor charge = search price" 'ExecutorChargesWhatSearchPrices' ./internal/joint/

# Serving is one forward — the serve engine's admission/batching/drain
# machinery over the shard fleet's leveled forward and the shards'
# hot-vertex caches — so its suites run together, whole, under the race
# detector on one P: the serving concurrency and chaos drain tests, the
# bitwise parity matrices (shards x replicas x workers, cached vs
# uncached, each held to the per-vertex reference run on every engine),
# reload coherence, placement/ownership/reply validation, the one RPC
# ladder (faults injected at the conn, in-process and over sockets) and
# the TCP transport, the router's pooled frontier bitmaps (union parity,
# concurrent forwards, a forward after a failed one), the cache package's
# own suite, and the two cache
# gates (TestCacheGate*): what the cache and the fleet's aggregate capacity
# save, asserted on hit, RPC, eviction and FLOP counters — no step of this
# script compares two timings.
echo "== serving, fleet and hot-vertex cache under -race (GOMAXPROCS=1)"
GOMAXPROCS=1 go test -race -count=1 \
  ./internal/serve/ ./internal/shard/... ./internal/hotcache/

# The observability layer's lock-free tracer and histograms are written to
# by every pipeline stage concurrently; its suite must stay clean under
# the race detector on one P too.
echo "== observability under -race (GOMAXPROCS=1)"
GOMAXPROCS=1 go test -race -count=1 ./internal/obs/

# The fault-injection and resilience battery: deterministic injector, the
# shared retry policy, distributed parity under straggler/error schedules
# (halo exchange and its reverse, one fault draw per peer fetch), serving chaos drain
# invariants, auto-checkpoint recovery, dense gradient checks. The
# bit-identical claims must hold under the race detector on one P as at
# the box's width — scheduling may reorder fault draws but never change
# numerics or leak a request.
run_filtered "fault/resilience battery" \
  'Fault|Chaos|Resilient|GradCheck|ParityAcross|Store|Injected|Schedule|Sequence|Rates|Jitter|Exhaustion|Retry' \
  ./internal/fault/ ./internal/retry/ ./internal/dist/ ./internal/serve/ ./internal/train/ ./internal/nn/

# Fuzz smokes: a short budget on every fuzz target. Checkpoint decoding
# must never panic on mutated bytes; CSR construction must preserve the
# degree-sum and permutation invariants on arbitrary COO input.
echo "== fuzz smokes (5s each)"
go test ./internal/nn/ -run '^$' -fuzz '^FuzzCheckpointLoad$' -fuzztime=5s >/dev/null
go test ./internal/nn/ -run '^$' -fuzz '^FuzzConfigRoundTrip$' -fuzztime=5s >/dev/null
go test ./internal/graph/ -run '^$' -fuzz '^FuzzCSRBuild$' -fuzztime=5s >/dev/null
# The shard wire codec faces the network: any accepted payload must be
# canonical (decode∘encode is the identity), every reqid-tagged frame
# must echo its id on re-encode, and no hostile length/reqid combination
# may panic or allocate unboundedly.
go test ./internal/shard/wire/ -run '^$' -fuzz '^FuzzDecode$' -fuzztime=5s >/dev/null
# The assembly row and run kernels must match the scalar loops bit for bit
# on any floats, row width, k range, run and alignment the fuzzer can build.
go test ./internal/tensor/ -run '^$' -fuzz '^FuzzMulAddRow$' -fuzztime=5s >/dev/null
go test ./internal/tensor/ -run '^$' -fuzz '^FuzzAccumRun$' -fuzztime=5s >/dev/null
go test ./internal/tensor/ -run '^$' -fuzz '^FuzzReLU$' -fuzztime=5s >/dev/null
echo "fuzz smokes OK"

# End-to-end serving smoke test: train a tiny checkpoint, serve it over
# HTTP on an ephemeral port, drive real load, then SIGTERM and assert the
# graceful drain left zero requests in flight.
echo "== serve smoke test (train -> serve -> bench -> drain)"
SMOKE=".smoke"
# Every process the smokes below put in the background is recorded here,
# so a failure at any line leaves no server, shard daemon, load client or
# trainer running once $SMOKE is gone.
BG_PIDS=()
cleanup() {
  if [ "${#BG_PIDS[@]}" -gt 0 ]; then
    kill "${BG_PIDS[@]}" 2>/dev/null || true
    wait 2>/dev/null || true
  fi
  rm -rf "$SMOKE"
}
trap cleanup EXIT
# wait_for_line LOG SED_EXPR: poll LOG for up to 10 s until the sed -n
# program SED_EXPR prints something, and print that; prints nothing when
# the line never came, which every caller treats as a failed start.
wait_for_line() {
  local out=""
  for _ in $(seq 1 100); do
    out="$(sed -n "$2" "$1")"
    [ -n "$out" ] && break
    sleep 0.1
  done
  echo "$out"
}
rm -rf "$SMOKE" && mkdir -p "$SMOKE"
go build -o "$SMOKE/" ./cmd/...
# A flag is an option: every binary's flag count is committed, so adding or
# removing one is a visible edit of scripts/flags.golden, never a side effect.
echo "== cmd flag counts against scripts/flags.golden"
for d in cmd/*/; do
  b="$(basename "$d")"
  echo "$b $("$SMOKE/$b" -h 2>&1 | grep -c '^  -')"
done >"$SMOKE/flags.txt"
diff -u scripts/flags.golden "$SMOKE/flags.txt" \
  || { echo "FAIL: cmd flag counts differ from scripts/flags.golden"; exit 1; }
# Code only tests run is committed too. Every main package is linked with
# inlining off, so a function is in some binary exactly when some program
# can call it. Each function or method of internal/ with a body in the
# build's own files (kernel_noasm.go is not among them here) that no
# binary links must be listed, with its reason, in scripts/testonly.golden.
# Generic instantiations fold to their function, closures to the function
# around them and pointer wrappers to their method.
echo "== internal/ functions no binary links against scripts/testonly.golden"
mkdir -p "$SMOKE/reach"
go build -gcflags=all=-l -o "$SMOKE/reach/" $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
for b in "$SMOKE"/reach/*; do go tool nm "$b"; done |
  sed -nE 's#^.* T wisegraph/internal/##p' | sed -E ':a; s/\[[^][]*\]//g; ta' |
  sed -E 's/\(\*([^)]*)\)/\1/; s/(\.(func|gowrap|deferwrap)[0-9]+|-range[0-9]+|-fm|\.abi0).*$//' |
  LC_ALL=C sort -u >"$SMOKE/reached.txt"
# A declaration has a body when the line that closes its parameter and
# result lists ends in "{" (or "}" for a one-line body).
go list -f '{{range .GoFiles}}{{$.ImportPath}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
  while read -r pkg file; do
    awk -v pkg="${pkg#wisegraph/internal/}" '
      function declname(s,   recv, w, n) {
        recv = ""
        if (s ~ /^func \(/) {
          recv = substr(s, 7); sub(/\).*/, "", recv); sub(/\[.*/, "", recv)
          n = split(recv, w, /[ *]+/); recv = w[n] "."
          s = substr(s, index(s, ")") + 2)
        } else s = substr(s, 6)
        sub(/[[(].*/, "", s)
        return recv s
      }
      /^func / { sig = ""; depth = 0; on = 1 }
      on {
        sig = sig $0; depth += gsub(/\(/, "(") - gsub(/\)/, ")")
        if (depth == 0) { on = 0; if ($0 ~ /[{}]$/ && declname(sig) != "init") print pkg "." declname(sig) }
      }' "$file"
  done | LC_ALL=C sort -u >"$SMOKE/defined.txt"
LC_ALL=C comm -23 "$SMOKE/defined.txt" "$SMOKE/reached.txt" >"$SMOKE/testonly.txt"
diff -u <(awk '!/^#/ && NF { print $1 }' scripts/testonly.golden | LC_ALL=C sort) "$SMOKE/testonly.txt" \
  || { echo "FAIL: functions no binary links differ from scripts/testonly.golden"; exit 1; }
# The committed tables are what the experiments print: results/ holds one
# CSV per experiment, and every one but the three that time this box
# (ext-pipeline, fig21, table3) must equal wgbench's output byte for byte.
echo "== wgbench -exp all -csv against results/"
"$SMOKE/wgbench" -exp all -csv "$SMOKE/results" >/dev/null
diff -u <(ls results/) <(ls "$SMOKE/results/") \
  || { echo "FAIL: results/ does not hold one CSV per experiment"; exit 1; }
for f in "$SMOKE"/results/*.csv; do
  b="$(basename "$f")"
  case "$b" in ext-pipeline.csv | fig21.csv | table3.csv) continue ;; esac
  diff -u "results/$b" "$f" \
    || { echo "FAIL: results/$b differs from wgbench -exp all -csv (regenerate it)"; exit 1; }
done
"$SMOKE/wisegraph-train" -dataset AR -scale 400 -sampled -epochs 2 \
  -save-checkpoint "$SMOKE/model.ckpt" -trace "$SMOKE/train.trace" >/dev/null
grep -q '"traceEvents"' "$SMOKE/train.trace" \
  || { echo "FAIL: wisegraph-train -trace wrote no trace events"; exit 1; }
"$SMOKE/wisegraph-serve" -dataset AR -scale 400 -checkpoint "$SMOKE/model.ckpt" \
  -addr 127.0.0.1:0 -cache-budget 16MiB >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!
BG_PIDS+=("$!")
ADDR="$(wait_for_line "$SMOKE/serve.log" 's#.*listening on http://##p')"
[ -n "$ADDR" ] || { echo "FAIL: serve did not start"; cat "$SMOKE/serve.log"; exit 1; }
"$SMOKE/wgserve-bench" -url "http://$ADDR" -clients 8 -duration 2s -zipf 1.2 >/dev/null

# Scrape /metrics while the server is live: the exposition must parse,
# every serving counter must be present, and all values non-negative.
curl -sf "http://$ADDR/metrics" >"$SMOKE/metrics.txt" \
  || { echo "FAIL: /metrics scrape failed"; cat "$SMOKE/serve.log"; exit 1; }
for metric in wisegraph_serve_uptime_seconds wisegraph_serve_admitted_total \
  wisegraph_serve_completed_total wisegraph_serve_canceled_total \
  wisegraph_serve_shed_total wisegraph_serve_rejected_draining_total \
  wisegraph_serve_batches_total wisegraph_serve_in_flight \
  wisegraph_serve_queue_depth wisegraph_serve_latency_seconds_count \
  wisegraph_serve_queue_wait_seconds_count wisegraph_serve_batch_size_count wisegraph_stage_duration_seconds_count \
  wisegraph_device_kernels_total wisegraph_serve_cache_hits_total \
  wisegraph_serve_cache_misses_total wisegraph_serve_cache_admitted_total \
  wisegraph_serve_cache_bytes_resident wisegraph_serve_cache_entries \
  wisegraph_serve_cache_capacity_bytes; do
  grep -q "^$metric" "$SMOKE/metrics.txt" \
    || { echo "FAIL: /metrics missing $metric"; cat "$SMOKE/metrics.txt"; exit 1; }
done
awk '/^#/ || NF == 0 { next }
  { v = $NF }
  v != "+Inf" && v != "NaN" && v + 0 < 0 { print "negative metric: " $0; bad = 1 }
  END { exit bad }' "$SMOKE/metrics.txt" \
  || { echo "FAIL: /metrics has negative values"; exit 1; }
# A micro-batch traced end to end is reachable over HTTP too.
curl -sf "http://$ADDR/debug/trace" | grep -q '"traceEvents"' \
  || { echo "FAIL: /debug/trace not serving trace JSON"; exit 1; }
echo "metrics scrape OK"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: serve exited non-zero"; cat "$SMOKE/serve.log"; exit 1; }
grep -q 'drained: in-flight=0' "$SMOKE/serve.log" \
  || { echo "FAIL: drain left requests in flight"; cat "$SMOKE/serve.log"; exit 1; }
# Zipf-1.2 load against a 16MiB cache must actually hit: the drain line
# carries the steady-state hit rate, and an idle cache means the serving
# forward stopped probing it.
grep -q 'cache-hit-rate=' "$SMOKE/serve.log" \
  || { echo "FAIL: drain line has no cache stats despite -cache-budget"; cat "$SMOKE/serve.log"; exit 1; }
echo "serve smoke OK"

# TCP cross-process sharding smoke: two wisegraph-shard daemons serving
# the trained checkpoint over localhost, a router pointed at them with
# -shard-addrs, and a single-node reference on the same checkpoint. The
# logits over the wire must be byte-identical to single-node, and a
# SIGTERM must drain router and both daemons to in-flight=0.
echo "== TCP sharded serving smoke (2 daemons + router, logits parity)"
SHARD_PIDS=()
SHARD_ADDRS=()
for i in 1 2; do
  "$SMOKE/wisegraph-shard" -dataset AR -scale 400 -checkpoint "$SMOKE/model.ckpt" \
    -addr 127.0.0.1:0 >"$SMOKE/tcpshard$i.log" 2>&1 &
  SHARD_PIDS+=($!)
  BG_PIDS+=("$!")
done
for i in 1 2; do
  A="$(wait_for_line "$SMOKE/tcpshard$i.log" 's/^wisegraph-shard listening on //p')"
  [ -n "$A" ] || { echo "FAIL: shard daemon $i did not start"; cat "$SMOKE/tcpshard$i.log"; exit 1; }
  SHARD_ADDRS+=("$A")
done
"$SMOKE/wisegraph-serve" -dataset AR -scale 400 -checkpoint "$SMOKE/model.ckpt" \
  -addr 127.0.0.1:0 -shard-addrs "${SHARD_ADDRS[0]},${SHARD_ADDRS[1]}" \
  >"$SMOKE/tcprouter.log" 2>&1 &
SERVE_PID=$!
BG_PIDS+=("$!")
ADDR="$(wait_for_line "$SMOKE/tcprouter.log" 's#.*listening on http://##p')"
[ -n "$ADDR" ] || { echo "FAIL: TCP router did not start"; cat "$SMOKE/tcprouter.log"; exit 1; }
"$SMOKE/wisegraph-serve" -dataset AR -scale 400 -checkpoint "$SMOKE/model.ckpt" \
  -addr 127.0.0.1:0 >"$SMOKE/tcpref.log" 2>&1 &
REF_PID=$!
BG_PIDS+=("$!")
REF_ADDR="$(wait_for_line "$SMOKE/tcpref.log" 's#.*listening on http://##p')"
[ -n "$REF_ADDR" ] || { echo "FAIL: reference serve did not start"; cat "$SMOKE/tcpref.log"; exit 1; }
REQ='{"nodes":[0,7,42,100,311],"logits":true}'
logits_of() { curl -sf "http://$1/predict" -d "$REQ" | sed -n 's/.*"logits":\(.*\),"latencyMs".*/\1/p'; }
TCP_LOGITS="$(logits_of "$ADDR")"
REF_LOGITS="$(logits_of "$REF_ADDR")"
[ -n "$TCP_LOGITS" ] || { echo "FAIL: TCP router returned no logits"; cat "$SMOKE/tcprouter.log"; exit 1; }
[ "$TCP_LOGITS" = "$REF_LOGITS" ] \
  || { echo "FAIL: TCP logits differ from single-node"; echo "tcp: $TCP_LOGITS"; echo "ref: $REF_LOGITS"; exit 1; }
kill -TERM "$REF_PID" && wait "$REF_PID" \
  || { echo "FAIL: reference serve exited non-zero"; cat "$SMOKE/tcpref.log"; exit 1; }
kill -TERM "$SERVE_PID" && wait "$SERVE_PID" \
  || { echo "FAIL: TCP router exited non-zero"; cat "$SMOKE/tcprouter.log"; exit 1; }
grep -q 'drained: in-flight=0' "$SMOKE/tcprouter.log" \
  || { echo "FAIL: TCP router drain left requests in flight"; cat "$SMOKE/tcprouter.log"; exit 1; }
for i in 1 2; do
  kill -TERM "${SHARD_PIDS[$((i-1))]}"
  wait "${SHARD_PIDS[$((i-1))]}" \
    || { echo "FAIL: shard daemon $i exited non-zero"; cat "$SMOKE/tcpshard$i.log"; exit 1; }
  grep -q 'drained: in-flight=0' "$SMOKE/tcpshard$i.log" \
    || { echo "FAIL: shard daemon $i drain left RPCs in flight"; cat "$SMOKE/tcpshard$i.log"; exit 1; }
done
echo "TCP sharded serving smoke OK"

# Replica chaos smoke: 2 spans x 2 replicas of wisegraph-shard daemons,
# a router with -replicas 2, real bench load, and one replica SIGKILLed
# mid-run. The bench must finish with zero errors, logits after the kill
# must equal logits before it, a survivor's /metrics must scrape as text
# exposition 0.0.4, and router + all three survivors must drain to
# in-flight=0 (the killed daemon, by definition, drains nothing).
echo "== replica failover smoke (2x2 daemons, SIGKILL one mid-load)"
RSHARD_PIDS=()
RSHARD_ADDRS=()
for i in 1 2 3 4; do
  "$SMOKE/wisegraph-shard" -dataset AR -scale 400 -checkpoint "$SMOKE/model.ckpt" \
    -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 >"$SMOKE/rshard$i.log" 2>&1 &
  RSHARD_PIDS+=($!)
  BG_PIDS+=("$!")
done
for i in 1 2 3 4; do
  A="$(wait_for_line "$SMOKE/rshard$i.log" 's/^wisegraph-shard listening on //p')"
  [ -n "$A" ] || { echo "FAIL: replica daemon $i did not start"; cat "$SMOKE/rshard$i.log"; exit 1; }
  RSHARD_ADDRS+=("$A")
done
"$SMOKE/wisegraph-serve" -dataset AR -scale 400 -checkpoint "$SMOKE/model.ckpt" \
  -addr 127.0.0.1:0 -replicas 2 \
  -shard-addrs "${RSHARD_ADDRS[0]},${RSHARD_ADDRS[1]},${RSHARD_ADDRS[2]},${RSHARD_ADDRS[3]}" \
  >"$SMOKE/rrouter.log" 2>&1 &
SERVE_PID=$!
BG_PIDS+=("$!")
ADDR="$(wait_for_line "$SMOKE/rrouter.log" 's#.*listening on http://##p')"
[ -n "$ADDR" ] || { echo "FAIL: replica router did not start"; cat "$SMOKE/rrouter.log"; exit 1; }
grep -q 'sharded tier: 2 shards x 2 replicas' "$SMOKE/rrouter.log" \
  || { echo "FAIL: router did not build a 2x2 fleet"; cat "$SMOKE/rrouter.log"; exit 1; }
PRE_LOGITS="$(logits_of "$ADDR")"
[ -n "$PRE_LOGITS" ] || { echo "FAIL: replica router returned no logits"; cat "$SMOKE/rrouter.log"; exit 1; }
"$SMOKE/wgserve-bench" -url "http://$ADDR" -clients 8 -duration 2s -zipf 1.2 \
  >"$SMOKE/rbench.txt" 2>&1 &
BENCH_PID=$!
BG_PIDS+=("$!")
sleep 0.7
kill -9 "${RSHARD_PIDS[1]}" 2>/dev/null || true  # span 0, replica 1
wait "$BENCH_PID" \
  || { echo "FAIL: bench failed (or completed nothing) across the replica kill"; cat "$SMOKE/rbench.txt"; exit 1; }
grep -Eq ' err=0 ' "$SMOKE/rbench.txt" \
  || { echo "FAIL: requests errored across the replica kill"; cat "$SMOKE/rbench.txt"; exit 1; }
grep -Eq ' shard-failures=0( |$)' "$SMOKE/rbench.txt" \
  || { echo "FAIL: replica failover surfaced a shard failure"; cat "$SMOKE/rbench.txt"; exit 1; }
POST_LOGITS="$(logits_of "$ADDR")"
[ "$PRE_LOGITS" = "$POST_LOGITS" ] \
  || { echo "FAIL: logits changed after replica kill"; echo "pre:  $PRE_LOGITS"; echo "post: $POST_LOGITS"; exit 1; }
# A survivor's /metrics endpoint: valid exposition content type, the
# daemon-side RPC counters present, no negative values.
MADDR="$(sed -n 's/^wisegraph-shard metrics on //p' "$SMOKE/rshard1.log")"
[ -n "$MADDR" ] || { echo "FAIL: survivor reported no metrics address"; cat "$SMOKE/rshard1.log"; exit 1; }
curl -sf -D "$SMOKE/rmetrics.hdr" "http://$MADDR/metrics" >"$SMOKE/rmetrics.txt" \
  || { echo "FAIL: survivor /metrics scrape failed"; exit 1; }
grep -qi 'content-type: *text/plain; *version=0.0.4' "$SMOKE/rmetrics.hdr" \
  || { echo "FAIL: /metrics Content-Type is not exposition 0.0.4"; cat "$SMOKE/rmetrics.hdr"; exit 1; }
for metric in wisegraph_node_shard_id wisegraph_node_replica wisegraph_node_rpcs_total \
  wisegraph_node_bytes_in_total wisegraph_node_in_flight \
  wisegraph_node_rpc_duration_seconds_count; do
  grep -q "^$metric" "$SMOKE/rmetrics.txt" \
    || { echo "FAIL: shard /metrics missing $metric"; cat "$SMOKE/rmetrics.txt"; exit 1; }
done
awk '/^# TYPE /      { typed[$3] = 1; next }
  /^#/ || NF == 0    { next }
  { name = $1; sub(/\{.*/, "", name); v = $NF
    base = name; sub(/_(bucket|sum|count)$/, "", base)
    if (!(name in typed) && !(base in typed)) { print "sample without TYPE: " $0; bad = 1 }
    if (v != "+Inf" && v != "NaN" && v + 0 < 0) { print "negative metric: " $0; bad = 1 } }
  END { exit bad }' "$SMOKE/rmetrics.txt" \
  || { echo "FAIL: shard /metrics is not valid exposition"; exit 1; }
curl -sf "http://$MADDR/healthz" | grep -q ok \
  || { echo "FAIL: survivor /healthz not ok"; exit 1; }
kill -TERM "$SERVE_PID" && wait "$SERVE_PID" \
  || { echo "FAIL: replica router exited non-zero"; cat "$SMOKE/rrouter.log"; exit 1; }
grep -q 'drained: in-flight=0' "$SMOKE/rrouter.log" \
  || { echo "FAIL: replica router drain left requests in flight"; cat "$SMOKE/rrouter.log"; exit 1; }
for i in 1 3 4; do  # daemon 2 was SIGKILLed
  kill -TERM "${RSHARD_PIDS[$((i-1))]}"
  wait "${RSHARD_PIDS[$((i-1))]}" \
    || { echo "FAIL: replica daemon $i exited non-zero"; cat "$SMOKE/rshard$i.log"; exit 1; }
  grep -q 'drained: in-flight=0' "$SMOKE/rshard$i.log" \
    || { echo "FAIL: replica daemon $i drain left RPCs in flight"; cat "$SMOKE/rshard$i.log"; exit 1; }
  grep -q 'replica=' "$SMOKE/rshard$i.log" \
    || { echo "FAIL: replica daemon $i drain line has no replica identity"; cat "$SMOKE/rshard$i.log"; exit 1; }
done
echo "replica failover smoke OK"

# Kill/restart resume smoke: a training run with per-epoch
# auto-checkpoints is killed (-9) mid-run, then restarted with -resume.
# The resumed run must pick up from the checkpoint and land on a final
# epoch whose loss/val/test are bit-identical to an uninterrupted
# reference run. The killed run is slowed by an injected per-epoch
# latency fault (sleep only — latency draws never change numerics) so
# the kill reliably lands mid-training on any machine.
echo "== kill/restart resume smoke"
TRAIN_ARGS=(-dataset AR -scale 400 -epochs 8 -hidden 16 -layers 2)
"$SMOKE/wisegraph-train" "${TRAIN_ARGS[@]}" >"$SMOKE/ref.log"
"$SMOKE/wisegraph-train" "${TRAIN_ARGS[@]}" \
  -auto-checkpoint "$SMOKE/state.wsgt" -checkpoint-every 1 \
  -fault-spec 'seed=1;train.step:latency=1,delay=200ms' \
  >"$SMOKE/killed.log" 2>&1 &
TRAIN_PID=$!
BG_PIDS+=("$!")
sleep 0.6
kill -9 "$TRAIN_PID" 2>/dev/null || true
wait "$TRAIN_PID" 2>/dev/null || true
[ -f "$SMOKE/state.wsgt" ] \
  || { echo "FAIL: no auto-checkpoint on disk after kill"; exit 1; }
"$SMOKE/wisegraph-train" "${TRAIN_ARGS[@]}" \
  -auto-checkpoint "$SMOKE/state.wsgt" -resume >"$SMOKE/resumed.log"
grep -q 'resumed from epoch' "$SMOKE/resumed.log" \
  || { echo "FAIL: restart did not resume from the checkpoint"; cat "$SMOKE/resumed.log"; exit 1; }
# Compare the final epoch line minus the (timing-dependent) duration.
last_epoch() { grep '^epoch' "$1" | tail -1 | awk '{print $1,$2,$3,$4,$5,$6,$7,$8}'; }
REF_LAST="$(last_epoch "$SMOKE/ref.log")"
RES_LAST="$(last_epoch "$SMOKE/resumed.log")"
[ -n "$REF_LAST" ] && [ "$REF_LAST" = "$RES_LAST" ] \
  || { echo "FAIL: resumed trajectory diverged"; echo "ref: $REF_LAST"; echo "got: $RES_LAST"; exit 1; }
echo "kill/restart resume OK"

echo "OK"
