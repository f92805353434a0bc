#!/usr/bin/env bash
# Paired benchmark gate: is the working tree slower than a base commit?
#
#   scripts/bench_gate.sh <base-commit>
#
# Builds perfbench twice with BENCHMARK.json's `command`: from the base
# commit (a `git archive` of it) and from the working tree, each into
# its own target directory under .bench_build/gate/. Then, for every
# BENCHMARK.json workload, it runs K pairs untraced and K pairs with
# `--trace 1`, each run `run_seconds` long. Pair i runs both sides on
# seed i, the base first in odd pairs and the working tree first in
# even ones, so that a steady drift of host speed favours neither side.
#
# The gate fails (exit 1) when
#   - a run fails its output checks (perfbench exits non-zero);
#   - the working tree fails a larger share of ops than the base;
#   - an end-to-end metric's median paired ratio, working tree over
#     base, is worse than that metric's BENCHMARK.json bound;
#   - a traced `*_ns_per_sample` layer's median paired ratio, taken
#     relative to its pair's common swing, is worse than 0.08.
#
# A shared host runs faster or slower from one run to the next by up to
# a fifth, and every layer of a run shares that swing. A pair's common
# swing is the median ratio over the timed layers (the ms, us and
# ns/sample metrics) whose source files the change leaves untouched,
# less those that time other layers' work again or derive from them.
# Dividing by it, one layer that got slower stands out, and a run that
# met a slow spell does not; a change that speeds up some layers leaves
# the yardstick of the others alone. A change that slows every layer
# alike shows in the end-to-end metrics instead. scripts/bench_report.jq
# computes the verdict, and holds the table of each layer's source
# files.
#
# Per-pair ratios and the verdict go to stderr. The last stdout line is
# a JSON record of both sides' medians and each workload's swing
# layers; BENCH_perfbench.json keeps it, pretty-printed with `jq .`,
# from the latest change's run. Needs bash, git, jq and cargo. The two
# builds take a few minutes, and each workload 4·K runs of
# `run_seconds` plus their set-up.
set -euo pipefail

K=3

[ $# -eq 1 ] || { echo "usage: $0 <base-commit>" >&2; exit 2; }
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
BASE="$(git rev-parse --verify "$1^{commit}")"
HEAD="$(git describe --always --dirty --abbrev=40)"
OUT="$ROOT/.bench_build/gate"
mapfile -t CMD < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json)
RUN_S="$(jq -r '.run_seconds' BENCHMARK.json)"

rm -rf "$OUT/base-tree" "$OUT/logs" "$OUT/runs.jsonl" "$OUT/touched.txt"
mkdir -p "$OUT/base-tree" "$OUT/logs"
git archive "$BASE" | tar -x -C "$OUT/base-tree"

tree_of() { if [ "$1" = base ]; then echo "$OUT/base-tree"; else echo "$ROOT"; fi; }

# A bare call builds perfbench, which then answers with its usage
# (exit 2); anything else is a failed build.
for side in base head; do
    echo "bench_gate: building $side" >&2
    status=0
    (cd "$(tree_of $side)" && CARGO_TARGET_DIR="$OUT/$side" "${CMD[@]}") \
        >/dev/null 2>"$OUT/logs/build-$side.log" || status=$?
    [ "$status" -eq 2 ] || { cat "$OUT/logs/build-$side.log" >&2; exit 1; }
done

# run <side> <workload> <trace> <pair>: appends one record to runs.jsonl.
run() {
    local log="$OUT/logs/$2-trace$3-seed$4-$1.log" out status=0
    out="$(cd "$(tree_of "$1")" && CARGO_TARGET_DIR="$OUT/$1" "${CMD[@]}" \
        --workload "$2" --seed "$4" --seconds "$RUN_S" --trace "$3" 2>"$log")" || status=$?
    [ "$status" -eq 0 ] || cat "$log" >&2
    printf '%s\n' "$out" | tail -n 1 | jq -cR --arg side "$1" --arg w "$2" --argjson trace "$3" \
        --argjson pair "$4" --argjson status "$status" \
        '{workload: $w, trace: $trace, pair: $pair, side: $side, status: $status,
          run: (fromjson? // null)}' >>"$OUT/runs.jsonl"
}

for w in "${WORKLOADS[@]}"; do
    for pair in $(seq "$K"); do
        for trace in 0 1; do
            echo "bench_gate: $w, pair $pair of $K, trace $trace" >&2
            if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
            for side in $order; do run "$side" "$w" "$trace" "$pair"; done
        done
    done
done

# The files the working tree changes against the base, untracked ones
# included: bench_report.jq takes the common swing only from layers
# whose sources are not among them.
{ git diff --name-only "$BASE"; git ls-files --others --exclude-standard; } | sort -u \
    >"$OUT/touched.txt"
# Every line but the last is the human-readable report; the last is the
# record.
report="$(jq -nr --slurpfile runs "$OUT/runs.jsonl" --slurpfile bench BENCHMARK.json \
    --rawfile touched "$OUT/touched.txt" --arg base "$BASE" --arg head "$HEAD" \
    -f scripts/bench_report.jq)"
printf '%s\n' "$report" | sed '$d' >&2
printf '%s\n' "$report" | tail -n 1
[ "$(printf '%s\n' "$report" | tail -n 1 | jq .pass)" = true ]
