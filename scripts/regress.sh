#!/usr/bin/env bash
# Regression gate: re-run the pinned baseline experiment, regenerate its
# metrics snapshot, and diff it — plus the recorded kernel-bench JSON —
# against the committed baseline under results/baseline/ using the
# per-metric tolerances in results/baseline/tolerances.json. Any tolerance
# breach (or a metric that vanished) exits non-zero via adaqp-regress.
#
# The kernel-bench record holds the twelve operands of the six ratio gates
# and the rest of the assigner round (see scripts/bench.sh). Host timings
# drift with the machine, so each `ns` is held only to a loose relative
# tolerance; the gates, which compare two timings of one run, are what a
# slower kernel fails. The obs crate's tier-1 tests hold the committed
# records to the same gates.
#
#   scripts/regress.sh --smoke   metrics snapshot + committed bench record
#                                (fast; scripts/check.sh runs this)
#   scripts/regress.sh --full    regenerates results/BENCH_kernels.json via
#                                scripts/bench.sh before diffing the timings
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=smoke
case "${1:-}" in
--full) MODE=full ;;
--smoke | "") MODE=smoke ;;
*)
    echo "usage: scripts/regress.sh [--smoke|--full]" >&2
    exit 2
    ;;
esac

BASE=results/baseline
TOL="$BASE/tolerances.json"
for f in "$BASE/metrics.snapshot.json" "$TOL"; do
    [[ -f "$f" ]] || {
        echo "regress: missing $f (commit a baseline first)" >&2
        exit 2
    }
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The pinned baseline experiment: tiny, fixed seed. Every metric in the
# default snapshot is simulation-derived, so the fresh snapshot must match
# the committed one to the tight default tolerance on any machine.
echo "==> regenerating metrics snapshot (pinned tiny run)" >&2
cargo run -q --release --offline -p adaqp --bin adaqp -- run \
    --dataset tiny --method adaqp --machines 1 --devices 2 \
    --epochs 6 --hidden 16 --period 3 --seed 4242 \
    --metrics "$TMP/metrics" >/dev/null

echo "==> adaqp-regress: fresh snapshot vs $BASE/metrics.snapshot.json" >&2
cargo run -q --release --offline -p obs --bin adaqp-regress -- \
    "$BASE/metrics.snapshot.json" "$TMP/metrics.json" --tolerances "$TOL"

if [[ "$MODE" == full ]]; then
    echo "==> regenerating kernel bench record (scripts/bench.sh)" >&2
    scripts/bench.sh
fi
echo "==> adaqp-regress: results/BENCH_kernels.json vs baseline" >&2
cargo run -q --release --offline -p obs --bin adaqp-regress -- \
    "$BASE/BENCH_kernels.json" results/BENCH_kernels.json --tolerances "$TOL"

echo "regress ($MODE): no regressions detected."
