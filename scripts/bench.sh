#!/usr/bin/env bash
# Kernel benchmark record: runs every criterion bench target of
# crates/bench (read from `cargo metadata`, so the list cannot drift from
# Cargo.toml) and records each reported mean into
# results/BENCH_kernels.json as {bench -> {ns}}.
#
# What is recorded is what something reads: the operands of the six
# ratio gates in results/baseline/tolerances.json (codec_vs_fp32,
# matmul_transposed, halo_exchange, dense_tail and two of assigner_round),
# plus the rest of assigner_round, the master round's stage-by-stage
# calibration input. Every other kernel number is one of the benchmark
# harness's per-layer probes (benchmark/src/probes.rs).
#
#   scripts/bench.sh           run every target, rewrite the record
#   scripts/bench.sh --smoke   run assigner_round at 32 devices and
#                              dense_tail, and write nothing (scripts/check.sh)
set -euo pipefail
cd "$(dirname "$0")/.."

# Sanitized runs re-execute every instrumented kernel under adversarial
# schedules — their timings are meaningless as benchmarks. Refuse to record.
if [[ -n "${ADAQP_SAN:-}" && "${ADAQP_SAN}" != "0" ]]; then
    echo "bench.sh: refusing to benchmark with ADAQP_SAN set;" \
        "sanitized runs measure the sanitizer, not the kernels" >&2
    exit 2
fi

case "${1:-}" in
"") SMOKE=0 ;;
--smoke) SMOKE=1 ;;
*)
    echo "usage: scripts/bench.sh [--smoke]" >&2
    exit 2
    ;;
esac

if [[ "$SMOKE" == 1 ]]; then
    # The assigner's round end to end (build, solve, write, in-place
    # decode), executed rather than merely compiled.
    echo "==> cargo bench -p bench --bench assigner_round -- 32" >&2
    cargo bench --offline -q -p bench --bench assigner_round -- 32
    # The dropout kernels the dense_tail ratio gate reads.
    echo "==> cargo bench -p bench --bench dense_tail" >&2
    cargo bench --offline -q -p bench --bench dense_tail
    exit 0
fi

OUT_DIR=results
OUT="$OUT_DIR/BENCH_kernels.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# Every bench target crates/bench/Cargo.toml declares.
mapfile -t BENCHES < <(cargo metadata --offline --no-deps --format-version 1 |
    jq -r '.packages[] | select(.name == "bench") | .targets[]
        | select(.kind == ["bench"]) | .name')
[[ ${#BENCHES[@]} -gt 0 ]] || {
    echo "bench.sh: cargo metadata lists no bench targets" >&2
    exit 1
}
for b in "${BENCHES[@]}"; do
    echo "==> cargo bench -p bench --bench $b" >&2
    cargo bench --offline -q -p bench --bench "$b" | tee -a "$RAW"
done

mkdir -p "$OUT_DIR"
# Host metadata for the recorded JSON. The `_` prefix keeps these keys out
# of adaqp-regress diffs (machine-dependent, not a regression signal).
CPUS="$(nproc)"
AT="${ADAQP_THREADS:-}"
[[ "$AT" =~ ^[0-9]+$ ]] || AT=null
# Effective worker-thread default: ADAQP_THREADS, else machine parallelism,
# capped at the runtime's MAX_THREADS = 8 (crates/tensor/src/par.rs).
EFFECTIVE="$CPUS"
[[ "$AT" != null ]] && EFFECTIVE="$AT"
((EFFECTIVE > 8)) && EFFECTIVE=8
# Shim stdout rows look like:
#   group/name        [      min       mean        max] ns/iter
# Keep the id and the mean.
awk -v cpus="$CPUS" -v adaqp_threads="$AT" -v effective="$EFFECTIVE" '
    /ns\/iter/ {
        # Bench ids may contain spaces, so split on the [min mean max]
        # bracket instead of whitespace fields.
        if (!match($0, /\[[^\]]+\]/)) next
        body = substr($0, RSTART + 1, RLENGTH - 2)
        id = substr($0, 1, RSTART - 1)
        gsub(/[ \t]+$/, "", id)
        split(body, nums, " ")
        printf ",\n  \"%s\": {\"ns\": %s}", id, nums[2]
    }
    BEGIN {
        printf "{"
        printf "\n  \"_meta\": {\"cpus\": %s, \"default_worker_threads\": %s, \"adaqp_threads_env\": %s}", \
            cpus, effective, adaqp_threads
    }
    END { printf "\n}\n" }
' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"ns"' "$OUT") benches)" >&2
