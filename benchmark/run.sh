#!/usr/bin/env bash
# Builds adaqp-bench (release, offline) and runs it, pinned to one CPU, with
# the given arguments.
#
#   benchmark/run.sh                        every workload -> benchmark/out/results.json
#   benchmark/run.sh --smoke                the same four configs at 2 epochs / 2 reps
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                           one workload; last stdout line is its JSON result
#   benchmark/run.sh compare A.json B.json  apply BENCHMARK.json's bounds to two ledgers
#
# Run from anywhere inside the repository; cargo is invoked from the
# repository root so that .cargo/config.toml (x86-64-v2) applies to the
# harness exactly as it does to the shipped binaries.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: stdout belongs to the results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# One CPU for the whole measurement (README "One CPU"). The program runs one
# OS thread per simulated device and hands control from thread to thread;
# across two vCPUs of a shared host every hand-off is an inter-processor
# wake-up whose cost follows the neighbours' load, not the program. The last
# allowed CPU, because interrupts and whoever started us tend to sit on the
# first.
pin=()
if command -v taskset >/dev/null; then
    allowed="$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status)"
    pin=(taskset -c "${allowed##*[,-]}")
else
    echo "run.sh: no taskset; running unpinned, host times will not compare with pinned ones" >&2
fi
exec "${pin[@]}" "$CARGO_TARGET_DIR/release/adaqp-bench" "$@"
