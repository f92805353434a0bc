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
#     relative to its pair's common swing, is worse than LAYER_BOUND.
#
# A shared host runs faster or slower from one run to the next by up to
# a fifth, and every layer of a run shares that swing. A pair's common
# swing is the median ratio over all its timed layers (the ms, us and
# ns/sample metrics). Dividing by it, one layer that got slower stands
# out, and a run that met a slow spell does not. A change that slows
# every layer alike shows in the end-to-end metrics instead.
#
# Per-pair ratios and the verdict go to stderr. The last stdout line is
# a JSON record of both sides' medians; BENCH_perfbench.json keeps it,
# pretty-printed with `jq .`, from the latest change's run. Needs bash,
# git, jq and cargo. The two builds take a few minutes, and each
# workload 4·K runs of `run_seconds` plus their set-up.
set -euo pipefail

K=3
LAYER_BOUND=0.08

[ $# -eq 1 ] || { echo "usage: $0 <base-commit>" >&2; exit 2; }
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
BASE="$(git rev-parse --verify "$1^{commit}")"
HEAD="$(git describe --always --dirty --abbrev=40)"
OUT="$ROOT/.bench_build/gate"
mapfile -t CMD < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json)
RUN_S="$(jq -r '.run_seconds' BENCHMARK.json)"

rm -rf "$OUT/base-tree" "$OUT/logs" "$OUT/runs.jsonl"
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

# Every line but the last is the human-readable report; the last is the
# record.
report="$(jq -nr --slurpfile runs "$OUT/runs.jsonl" --slurpfile bench BENCHMARK.json \
    --arg base "$BASE" --arg head "$HEAD" --argjson k "$K" --argjson lb "$LAYER_BOUND" '
def median: sort | if length == 0 then null
    elif length % 2 == 1 then .[(length - 1) / 2]
    else (.[length / 2 - 1] + .[length / 2]) / 2 end;
def value($m): .run.metrics[$m].value // 0;
# Over a {base, head} pair of runs: the head-over-base ratio of metric
# $m, or nothing when either side reads 0 (a layer the op never calls).
def ratio($m): (.head | value($m)) as $h | (.base | value($m)) as $b
    | if $h > 0 and $b > 0 then $h / $b else empty end;
def worse($better; $bound):
    if $better == "higher" then . < 1 - $bound else . > 1 + $bound end;
def share: (map(.run.attempted // 0) | add) as $n
    | if $n > 0 then (map(.run.failed // 0) | add) / $n else 0 end;
# The median of each metric in $names over these runs at $trace.
def medians($trace; $names):
    . as $runs | $names | map({key: ., value: (. as $m
        | $runs | map(select(.trace == $trace) | value($m)) | median)}) | from_entries;
def fmt: . * 1000 | round / 1000 | tostring;

$bench[0] as $bench
| ($bench.end_to_end | map(.name)) as $e2e
| ($bench.per_layer | map(.name)) as $per_layer
| ($bench.per_layer | map(select(.unit | IN("ms", "us", "ns/sample")) | .name)) as $timed
| [$bench.workloads[].name as $w
    | [$runs[] | select(.workload == $w)] as $all
    | ($all | map(select(.side == "base"))) as $base_runs
    | ($all | map(select(.side == "head"))) as $head_runs
    | def pairs($trace): $all | map(select(.trace == $trace)) | group_by(.pair)
        | map({base: map(select(.side == "base"))[0], head: map(select(.side == "head"))[0]});
      pairs(0) as $untraced
    | (pairs(1) | map(. + {swing: ([ratio($timed[])] | median)})) as $traced
    | ([$bench.end_to_end[] as $m
        | {name: $m.name, better: $m.better, bound: $m.bound,
           ratios: [$untraced[] | ratio($m.name)]}]
      + [$bench.per_layer[] | select(.name | endswith("_ns_per_sample")) as $m
        | {name: $m.name, better: $m.better, bound: $lb,
           ratios: [$traced[] | select(.swing != null) | ratio($m.name) / .swing]}]
      | map(select(.ratios != []) | . + {median: (.ratios | median)})) as $gated
    | {name: $w,
       lines: (["\($w): common swing of each traced pair \($traced | map(.swing // 0 | fmt) | join(" "))"]
           + ($gated | map("  \(.name): pairs \(.ratios | map(fmt) | join(" ")), median \(.median | fmt), bound \(.bound)"))),
       failures: ([$all[] | select(.status != 0 or .run.correct != true)
             | "\($w): the \(.side) run on seed \(.pair) with --trace \(.trace) failed its checks"]
           + (if ($head_runs | share) > ($base_runs | share)
              then ["\($w): the working tree failed \($head_runs | share | fmt) of its ops, the base \($base_runs | share | fmt)"]
              else [] end)
           + [$gated[] | select(. as $g | $g.median | worse($g.better; $g.bound))
             | "\($w): \(.name) median paired ratio \(.median | fmt) is worse than its bound \(.bound)"]),
       record: {
           failed_share: {base: ($base_runs | share), head: ($head_runs | share)},
           base: (($base_runs | medians(0; $e2e)) + ($base_runs | medians(1; $per_layer))),
           head: (($head_runs | medians(0; $e2e)) + ($head_runs | medians(1; $per_layer))),
           ratio: ($gated | map({key: .name, value: .median}) | from_entries)}}] as $results
| ($results | map(.failures[])) as $failures
| ($results[] | .lines[]),
  (if $failures == [] then "bench_gate: pass" else ($failures[] | "bench_gate: FAIL \(.)") end),
  ({base: $base, head: $head, pairs: $k, run_seconds: $bench.run_seconds, layer_bound: $lb,
    pass: ($failures == []), failures: $failures,
    workloads: ($results | map({key: .name, value: .record}) | from_entries)} | tojson)
')"
printf '%s\n' "$report" | sed '$d' >&2
printf '%s\n' "$report" | tail -n 1
[ "$(printf '%s\n' "$report" | tail -n 1 | jq .pass)" = true ]
