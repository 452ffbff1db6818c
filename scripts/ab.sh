#!/usr/bin/env bash
# A/B campaign on the benchmark harness: a base revision against this
# checkout's working tree, in alternating pairs.
#
#   scripts/ab.sh <base-rev> [--pairs N] [--workloads w1,w2,...] [--workdir DIR]
#
# Exports <base-rev> with `git archive` into DIR/base (nothing is written to
# the repository's .git, and a dirty checkout is fine), builds each side's
# harness into its own target directory (DIR/target-base, DIR/target-change),
# then, per workload, runs N pairs of
#     benchmark/run.sh --workload <w> --seed 4242 --seconds <run_seconds> --trace 0
# one base run and one change run per pair, the base first in even pairs and
# the change first in odd ones. Each run's JSON result line is kept under
# DIR/runs/. For every end-to-end metric the table gives, per side, the
# median and quartiles over the N runs, the change's median against the
# base's (delta), how many pairs the change won (the metric's better
# direction, from BENCHMARK.json), and whether the medians lie further apart
# than the base's interquartile range; then every result_digest seen per
# side.
#
# run_seconds is BENCHMARK.json's. Defaults: 10 pairs, every workload in
# BENCHMARK.json, DIR a fresh directory under ${TMPDIR:-/tmp}.
# Wraps benchmark/ and edits nothing under it. Needs git, jq and python3.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh <base-rev> [--pairs N] [--workloads w1,w2,...]" \
        "[--workdir DIR]" >&2
    exit 2
}

[[ $# -ge 1 && "$1" != -* ]] || usage
BASE_REV="$1"
shift
PAIRS=10
WORKLOADS="$(jq -r '[.workloads[].name] | join(",")' BENCHMARK.json)"
SECONDS_PER_RUN="$(jq -r '.run_seconds' BENCHMARK.json)"
WORKDIR=""
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case "$1" in
    --pairs) PAIRS="$2" ;;
    --workloads) WORKLOADS="$2" ;;
    --workdir) WORKDIR="$2" ;;
    *) usage ;;
    esac
    shift 2
done
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || {
    echo "ab.sh: --pairs must be a positive integer, got '$PAIRS'" >&2
    exit 2
}
BASE_SHA="$(git rev-parse --verify "$BASE_REV^{commit}")" || {
    echo "ab.sh: '$BASE_REV' names no commit" >&2
    exit 2
}
[[ -n "$WORKDIR" ]] || WORKDIR="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
mkdir -p "$WORKDIR/runs"
WORKDIR="$(cd "$WORKDIR" && pwd -P)"

echo "==> exporting $BASE_REV ($BASE_SHA) into $WORKDIR/base" >&2
rm -rf "$WORKDIR/base"
mkdir -p "$WORKDIR/base"
git archive "$BASE_SHA" | tar -x -C "$WORKDIR/base"

# side -> (checkout root, target directory)
root_of() { if [[ "$1" == base ]]; then echo "$WORKDIR/base"; else pwd -P; fi; }
target_of() { echo "$WORKDIR/target-$1"; }

run_side() { # side workload pair
    local side="$1" workload="$2" pair="$3"
    local out="$WORKDIR/runs/$workload.$side.$pair.json"
    CARGO_TARGET_DIR="$(target_of "$side")" bash "$(root_of "$side")/benchmark/run.sh" \
        --workload "$workload" --seed 4242 --seconds "$SECONDS_PER_RUN" --trace 0 \
        >"$out.txt" 2>"$out.log"
    tail -n 1 "$out.txt" >"$out"
    jq -e '.correct' "$out" >/dev/null || {
        echo "ab.sh: $side run $pair of $workload failed; see $out.log" >&2
        exit 1
    }
}

for side in base change; do
    echo "==> building the $side harness" >&2
    CARGO_TARGET_DIR="$(target_of "$side")" cargo build --release --offline --quiet \
        --manifest-path "$(root_of "$side")/benchmark/Cargo.toml" >&2
done

IFS=, read -r -a LIST <<<"$WORKLOADS"
for workload in "${LIST[@]}"; do
    for ((pair = 0; pair < PAIRS; pair++)); do
        if ((pair % 2 == 0)); then order=(base change); else order=(change base); fi
        echo "==> $workload pair $((pair + 1))/$PAIRS: ${order[*]}" >&2
        for side in "${order[@]}"; do
            run_side "$side" "$workload" "$pair"
        done
    done
done

# The table: per workload and end-to-end metric.
python3 - "$WORKDIR/runs" "$PAIRS" "$WORKLOADS" "$BASE_SHA" <<'PY'
import json, statistics, sys

runs, pairs, workloads, base = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(","), sys.argv[4]
spec = json.load(open("BENCHMARK.json"))

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

print(f"A/B: base {base[:12]} vs working tree, {pairs} alternating pairs per workload")
for w in workloads:
    read = lambda side, i: json.load(open(f"{runs}/{w}.{side}.{i}.json"))["metrics"]
    base_runs = [read("base", i) for i in range(pairs)]
    change_runs = [read("change", i) for i in range(pairs)]
    print(f"\n{w}")
    print(f"  {'metric':<20} {'base median [q1-q3]':>34} {'change median [q1-q3]':>34} {'delta':>8} {'wins':>6}  apart")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        b = [r[name]["value"] for r in base_runs]
        c = [r[name]["value"] for r in change_runs]
        (b1, bm, b3), (c1, cm, c3) = quartiles(b), quartiles(c)
        delta = (cm - bm) / bm * 100 if bm else 0.0
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        apart = "yes" if abs(cm - bm) > (b3 - b1) else "no"
        fmt = lambda q1, med, q3: f"{med:.6g} [{q1:.6g}-{q3:.6g}]"
        print(f"  {name:<20} {fmt(b1, bm, b3):>34} {fmt(c1, cm, c3):>34} {delta:>+7.2f}% {wins:>3}/{pairs}  {apart}")
    for side in ("base", "change"):
        digests = set()
        for i in range(pairs):
            head = open(f"{runs}/{w}.{side}.{i}.json.txt").readline().split()
            digests.update(head[k + 1] for k, word in enumerate(head[:-1]) if word == "result_digest")
        print(f"  result_digest {side}: {' '.join(sorted(digests))}")
PY
