#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree, kept
# as data: appends one entry to BENCH_e2e.json (N alternating pairs of
# `./benchmark -workload all`, seeds 1..N, order flipped every pair) and
# one to BENCH_layers.json (every per-layer row of one traced run per
# side, seed 1). The PR number of the entries is the one in ISSUE.md.
#
#   scripts/bench_pairs.sh PARENT_REF N
#
# About 2 min per run, so N=10 takes ~40 min; run nothing else on the box
# meanwhile.
set -euo pipefail
cd "$(dirname "$0")/.."

PARENT_REF="${1:?usage: scripts/bench_pairs.sh PARENT_REF N}"
N="${2:?usage: scripts/bench_pairs.sh PARENT_REF N}"
PR="$(sed -n '1s/^# ISSUE \([0-9]*\).*/\1/p' ISSUE.md)"
PARENT="$(git rev-parse "$PARENT_REF")"
CHANGE="$(git describe --always --dirty --abbrev=40)"

WORK="${TMPDIR:-/tmp}/bench_pairs"
rm -rf "$WORK"
mkdir -p "$WORK/parent" "$WORK/runs"
git archive "$PARENT" | tar -x -C "$WORK/parent"
(cd "$WORK/parent" && go build -o "$WORK/bench_parent" ./benchmark)
go build -o "$WORK/bench_change" ./benchmark

# Each side runs from its own source tree, as `go run ./benchmark` would.
run() { # side extra-args... ; result line to stdout
  local side="$1" dir="."
  shift
  [ "$side" = parent ] && dir="$WORK/parent"
  (cd "$dir" && "$WORK/bench_$side" -out "$WORK/out_$side" "$@" 2>>"$WORK/runs/$side.err")
}

for i in $(seq 1 "$N"); do
  order="parent change"
  [ $((i % 2)) -eq 0 ] && order="change parent"
  for side in $order; do
    echo "pair $i/$N: $side (seed $i)"
    run "$side" -seed "$i" >"$WORK/runs/${side}_$i.json"
  done
done
for side in parent change; do
  echo "traced run: $side"
  run "$side" -seed 1 -trace 1 >"$WORK/runs/${side}_trace.json"
done

go run ./scripts/benchpairs -pr "$PR" -parent "$PARENT" -change "$CHANGE" \
  -dir "$WORK/runs" -pairs "$N"
