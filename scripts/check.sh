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

# Every dependency resolves to a path package in this checkout (the crates
# and the offline shims under shims/), so the build never reaches a registry.
# A registry dependency does not resolve offline, which fails `cargo metadata`
# itself; a path dependency outside the repo fails the jq test.
echo "==> dependency hygiene (cargo metadata: every package is a path package inside the repo)"
metadata="$(cargo metadata --offline --format-version 1)"
repo_root="$(pwd -P)/"
jq -e --arg root "$repo_root" \
    'all(.packages[]; .source == null and (.manifest_path | startswith($root)))' \
    <<<"$metadata" >/dev/null || {
    echo "check: packages from outside the repo:" >&2
    jq -r --arg root "$repo_root" '.packages[]
        | select(.source != null or (.manifest_path | startswith($root) | not))
        | "  \(.name) \(.version): \(.source // .manifest_path)"' <<<"$metadata" >&2
    exit 1
}

echo "==> sanitizer smoke (ADAQP_SAN=1 pinned tiny run)"
ADAQP_SAN=1 cargo run --offline -q --release -p adaqp --bin adaqp -- \
    run --dataset tiny --method adaqp --machines 1 --devices 2 \
    --epochs 3 --hidden 16 --period 2 --seed 7 >/dev/null

echo "==> CLI smoke (a misspelt flag, a zero part count or a NaN oversubscription exits non-zero, named on stderr, without a panic)"
if cli_err="$(cargo run --offline -q --release -p adaqp --bin adaqp -- \
    run --dataset tiny --epoch 3 2>&1 >/dev/null)"; then
    echo "check: adaqp run accepted the unknown flag --epoch" >&2
    exit 1
fi
grep -qF -- '`--epoch`' <<<"$cli_err" || {
    echo "check: the error does not name --epoch: $cli_err" >&2
    exit 1
}
if cli_err="$(cargo run --offline -q --release -p adaqp --bin adaqp -- \
    partition --dataset tiny --parts 0 2>&1 >/dev/null)"; then
    echo "check: adaqp partition accepted --parts 0" >&2
    exit 1
fi
if ! grep -qF -- '--parts' <<<"$cli_err" || grep -qF 'panicked' <<<"$cli_err"; then
    echo "check: --parts 0 did not end in an error naming --parts: $cli_err" >&2
    exit 1
fi
if cli_err="$(cargo run --offline -q --release -p adaqp --bin adaqp -- \
    run --dataset tiny --oversub nan 2>&1 >/dev/null)"; then
    echo "check: adaqp run accepted --oversub nan" >&2
    exit 1
fi
if ! grep -qF -- '--oversub' <<<"$cli_err" || grep -qF 'panicked' <<<"$cli_err"; then
    echo "check: --oversub nan did not end in an error naming --oversub: $cli_err" >&2
    exit 1
fi

echo "==> cargo test -q"
cargo test --offline -q

echo "==> sanitized codec, dense-kernel and aggregation tests (ADAQP_SAN=1: reference-pinning proptests under adversarial schedules)"
ADAQP_SAN=1 cargo test --offline -q -p quant -p tensor -p gnn

# .cargo/config.toml builds for x86-64-v3 (AVX2). A pre-AVX2 build must give
# the same bits (the aggregation's column tiles, for one, vectorise at 128
# bits there), so the reference-pinning tests, the solver's bit-for-bit
# oracle proptests and the golden run and width digests run optimised —
# where the vectorizer's choices differ between the two — on the shipped
# build and on an x86-64-v2 build, against the same committed goldens. The
# v2 build's own target directory keeps the two from evicting each other.
echo "==> cross-ISA identity (release builds at x86-64-v3 and x86-64-v2: codec, dense-kernel, aggregation and solver tests, golden run and assigner digests)"
pinned_bits() {
    cargo test --offline -q --release -p quant -p tensor -p gnn -p solver
    cargo test --offline -q --release -p adaqp --test integration_determinism \
        golden_run_digests_survive_refactors
    cargo test --offline -q --release -p adaqp --test integration_assigner -- --exact \
        golden_assignment_digests_on_four_devices golden_widths_on_a_racked_64_device_fleet
}
pinned_bits
(
    export RUSTFLAGS="-C target-cpu=x86-64-v2" CARGO_TARGET_DIR=target/x86-64-v2
    pinned_bits
)

echo "==> scalability smoke (64 devices on the event core, racks + oversub; the one-registry fold, both metric writers and the span view at that device count, the snapshot bounded in devices)"
SCALE_TMP="$(mktemp -d)"
SCALE_DEVICES=64
SCALE_EPOCHS=2
cargo run --offline -q --release -p adaqp --bin adaqp -- \
    run --dataset tiny --method adaqp --machines 16 --devices 4 \
    --epochs "$SCALE_EPOCHS" --hidden 8 --seed 11 --rack-size 2 --oversub 4 \
    --metrics "$SCALE_TMP/metrics" --trace "$SCALE_TMP/trace.json" \
    >/dev/null 2>"$SCALE_TMP/stderr"
[[ -s "$SCALE_TMP/metrics.json" && -s "$SCALE_TMP/metrics.prom" ]] || {
    echo "check: the 64-device run wrote no metric snapshot" >&2
    exit 1
}
[[ -s "$SCALE_TMP/trace.json" ]] || {
    echo "check: the 64-device run wrote no Chrome trace" >&2
    exit 1
}
# The snapshot is bounded in devices, not in pairs. Per device: one
# `adaqp_comm_sent_bytes_total` and one `adaqp_comm_messages_total`, one
# `adaqp_halo_sent_bytes_total` per width it sent at (2, 4, 8, 32, mixed:
# at most 5), and the two `_critpath_{idle_fraction,busy_seconds}` of a
# profiled run: 9. Per run: 4 `adaqp_quant_*` families x 3 widths, 3
# `adaqp_solver_*`, 4 `adaqp_epoch_*` per epoch, `adaqp_best_val_score`,
# `adaqp_test_at_best`, and `_critpath_{total_seconds,
# collective_wait_share}` plus 5 `_critpath_class_seconds`: 12 + 3 + 4 x
# epochs + 2 + 7.
SERIES="$(sed -n 's/^wrote \([0-9]*\) metric series.*/\1/p' "$SCALE_TMP/stderr")"
SERIES_BOUND=$((9 * SCALE_DEVICES + 12 + 3 + 4 * SCALE_EPOCHS + 2 + 7))
[[ -n "$SERIES" && "$SERIES" -le "$SERIES_BOUND" ]] || {
    echo "check: the 64-device snapshot has ${SERIES:-no} series, bound $SERIES_BOUND" >&2
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
