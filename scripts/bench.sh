#!/usr/bin/env bash
# Kernel benchmark harness: runs every criterion bench target of
# crates/bench (read from `cargo metadata`, so the list cannot drift from
# Cargo.toml) in quick mode and records every reported mean into
# results/BENCH_kernels.json as {bench -> {ns, threads}}.
#
# threads is parsed from the `_t<N>` suffix the agg_parallel benches encode
# in their ids (null for thread-agnostic benches). Pass --full for the
# longer default sampling windows, or --smoke (used by scripts/check.sh) to
# run only agg_parallel on a tiny problem, assigner_round at 32 devices,
# dense_tail at its small shape and the 256-part partition case with its
# assignment digest check, and leave the recorded JSON alone.
set -euo pipefail
cd "$(dirname "$0")/.."

# Sanitized runs re-execute every instrumented kernel under adversarial
# schedules — their timings are meaningless as benchmarks. Refuse to record.
if [[ -n "${ADAQP_SAN:-}" && "${ADAQP_SAN}" != "0" ]]; then
    echo "bench.sh: refusing to benchmark with ADAQP_SAN set;" \
        "sanitized runs measure the sanitizer, not the kernels" >&2
    exit 2
fi

QUICK=1
SMOKE=0
case "${1:-}" in
--full) QUICK=0 ;;
--smoke) SMOKE=1 ;;
esac

OUT_DIR=results
OUT="$OUT_DIR/BENCH_kernels.json"
if [[ "$SMOKE" == 1 ]]; then
    export ADAQP_BENCH_ROWS="${ADAQP_BENCH_ROWS:-4096}"
    OUT="$(mktemp)"
fi
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

if [[ "$SMOKE" == 1 ]]; then
    BENCHES=(agg_parallel)
else
    # Every bench target crates/bench/Cargo.toml declares.
    mapfile -t BENCHES < <(cargo metadata --offline --no-deps --format-version 1 |
        jq -r '.packages[] | select(.name == "bench") | .targets[]
            | select(.kind == ["bench"]) | .name')
    [[ ${#BENCHES[@]} -gt 0 ]] || {
        echo "bench.sh: cargo metadata lists no bench targets" >&2
        exit 1
    }
fi
for b in "${BENCHES[@]}"; do
    echo "==> cargo bench -p bench --bench $b" >&2
    ADAQP_BENCH_QUICK=$QUICK cargo bench --offline -q -p bench --bench "$b" \
        | tee -a "$RAW"
done
if [[ "$SMOKE" == 1 ]]; then
    # The assigner's flat path end to end (build, solve_flat, in-place
    # decode), executed rather than merely compiled.
    echo "==> cargo bench -p bench --bench assigner_round -- 32" >&2
    cargo bench --offline -q -p bench --bench assigner_round -- 32 | tee -a "$RAW"
    # The fused tail kernels at the halo32 per-device shape.
    echo "==> cargo bench -p bench --bench dense_tail -- 188" >&2
    cargo bench --offline -q -p bench --bench dense_tail -- 188 | tee -a "$RAW"
    # The 256-way fleet partition, checked against its pinned assignment
    # digest before it is timed, and build_partitions over it.
    echo "==> cargo bench -p bench --bench partition -- 256" >&2
    cargo bench --offline -q -p bench --bench partition -- 256 | tee -a "$RAW"
fi

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
# Keep the id and the mean; derive threads from a trailing _t<N>.
awk -v cpus="$CPUS" -v adaqp_threads="$AT" -v effective="$EFFECTIVE" '
    /ns\/iter/ {
        # Bench ids may contain spaces, so split on the [min mean max]
        # bracket instead of whitespace fields.
        if (!match($0, /\[[^\]]+\]/)) next
        body = substr($0, RSTART + 1, RLENGTH - 2)
        id = substr($0, 1, RSTART - 1)
        gsub(/[ \t]+$/, "", id)
        split(body, nums, " ")
        mean = nums[2]
        threads = "null"
        if (match(id, /_t[0-9]+$/)) {
            threads = substr(id, RSTART + 2)
        }
        sep = first ? "," : ""
        first = 1
        printf "%s\n  \"%s\": {\"ns\": %s, \"threads\": %s}", sep, id, mean, threads
    }
    BEGIN {
        printf "{"
        printf "\n  \"_meta\": {\"cpus\": %s, \"default_worker_threads\": %s, \"adaqp_threads_env\": %s}", \
            cpus, effective, adaqp_threads
        first = 1
    }
    END { printf "\n}\n" }
' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"ns"' "$OUT") benches)" >&2
if [[ "$SMOKE" == 1 ]]; then
    rm -f "$OUT"
fi
