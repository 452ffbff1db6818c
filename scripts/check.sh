#!/usr/bin/env bash
# Repo hygiene gate: formatting, lints, tests. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links resolve, no private links in public docs)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> benchmark harness compiles against the workspace (--locked: dependency lists match benchmark/Cargo.lock)"
CARGO_TARGET_DIR=benchmark/target cargo check --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> adaqp-lint (simulation invariants; ratcheted against results/LINT_baseline.json)"
mkdir -p results
cargo run --offline --release -p analysis -- --workspace --json \
    --baseline results/LINT_baseline.json \
    | tee results/LINT_findings.json

echo "==> adaqp-lint --explain smoke"
cargo run --offline -q --release -p analysis -- --explain collective-divergence >/dev/null

echo "==> sanitizer smoke (ADAQP_SAN=1 pinned tiny run)"
ADAQP_SAN=1 cargo run --offline -q --release -p adaqp --bin adaqp -- \
    run --dataset tiny --method adaqp --machines 1 --devices 2 \
    --epochs 3 --hidden 16 --period 2 --seed 7 >/dev/null

echo "==> cargo test -q"
cargo test --offline -q

echo "==> sanitized codec and dense-kernel tests (ADAQP_SAN=1: reference-pinning proptests under adversarial schedules)"
ADAQP_SAN=1 cargo test --offline -q -p quant -p tensor

# .cargo/config.toml builds for x86-64-v3 (AVX2). A pre-AVX2 build must give
# the same bits, so the reference-pinning tests and the golden run digests
# run optimised — where the vectorizer's choices differ between the two —
# on the shipped build and on an x86-64-v2 build, against the same
# committed goldens. The v2 build's own target directory keeps the two from
# evicting each other.
echo "==> cross-ISA identity (release builds at x86-64-v3 and x86-64-v2: codec and dense-kernel tests, golden run digests)"
pinned_bits() {
    cargo test --offline -q --release -p quant -p tensor
    cargo test --offline -q --release -p adaqp --test integration_determinism \
        golden_run_digests_survive_refactors
}
pinned_bits
(
    export RUSTFLAGS="-C target-cpu=x86-64-v2" CARGO_TARGET_DIR=target/x86-64-v2
    pinned_bits
)

echo "==> scalability smoke (64 devices on the event core, racks + oversub; the one-registry fold and both metric writers at that device count)"
SCALE_TMP="$(mktemp -d)"
cargo run --offline -q --release -p adaqp --bin adaqp -- \
    run --dataset tiny --method adaqp --machines 16 --devices 4 \
    --epochs 2 --hidden 8 --seed 11 --rack-size 2 --oversub 4 \
    --metrics "$SCALE_TMP/metrics" >/dev/null
[[ -s "$SCALE_TMP/metrics.json" && -s "$SCALE_TMP/metrics.prom" ]] || {
    echo "check: the 64-device run wrote no metric snapshot" >&2
    exit 1
}
rm -rf "$SCALE_TMP"

echo "==> critical-path smoke (pinned Vanilla tiny run vs committed baseline; one run, every view of its one log)"
CP_TMP="$(mktemp -d)"
cargo run --offline -q --release -p adaqp --bin adaqp -- \
    run --dataset tiny --method vanilla --machines 1 --devices 2 \
    --epochs 6 --hidden 16 --seed 4242 \
    --critical-path "$CP_TMP/critpath.json" --trace "$CP_TMP/trace.json" \
    --events "$CP_TMP/events.jsonl" --metrics "$CP_TMP/metrics" >/dev/null
for view in critpath.json trace.json events.jsonl metrics.json metrics.prom; do
    [[ -s "$CP_TMP/$view" ]] || {
        echo "check: the run wrote no $view" >&2
        exit 1
    }
done
cargo run --offline -q --release -p obs --bin adaqp-regress -- \
    results/baseline/critpath.snapshot.json "$CP_TMP/critpath.json" \
    --tolerances results/baseline/tolerances.json
rm -rf "$CP_TMP"

echo "==> kernel bench smoke (scripts/bench.sh --smoke)"
scripts/bench.sh --smoke

echo "==> regression gate (scripts/regress.sh --smoke)"
scripts/regress.sh --smoke

echo "==> size (scripts/loc.sh; informational)"
scripts/loc.sh

echo "All checks passed."
