//! Regression gate CLI: diff a fresh metrics snapshot or kernel-bench JSON
//! against a committed baseline and exit non-zero on any tolerance breach.
//!
//! Usage:
//!
//! ```text
//! adaqp-regress <baseline.json> <current.json>
//!               [--tolerances <thresholds.json>] [--default-rel <f64>]
//! ```
//!
//! The thresholds file deserializes into [`obs::regress::Thresholds`]
//! (`{"default_rel": 1e-9, "per_metric": {"ns": 3.0}}`); `--default-rel`
//! overrides its default tolerance. `_meta` keys are ignored on both sides.
//!
//! `ratio_gates` entries in the thresholds file additionally pin quotients
//! of two metrics in the *current* file (e.g. the 2-bit quantize / fp32
//! serialize timing ratio) — an invariant of the fresh measurement that a
//! relative-drift tolerance cannot express. Exceeding `max_ratio` fails the
//! gate exactly like a regression.

use obs::regress::{check_ratio_gates, compare, Thresholds};
use serde::value::Value;
use std::process::ExitCode;

/// Whether a gate's metrics belong to this artifact at all: a thresholds
/// file is shared between the metrics snapshot and the kernel-bench record,
/// so a gate referencing leaves that exist in neither is ignored here (its
/// leaves vanishing from the artifact it *does* govern is still caught by
/// the baseline diff). Referencing exactly one side is always a violation —
/// that's a typo or a renamed bench, not a different artifact.
fn applies_to(gate: &obs::regress::RatioGate, current: &Value) -> bool {
    let flat = obs::regress::flatten(current);
    flat.contains_key(&gate.numerator) || flat.contains_key(&gate.denominator)
}

fn load_value(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run(args: &[String]) -> Result<usize, String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut thresholds = Thresholds::default();
    let mut default_rel_override: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerances" => {
                let path = args
                    .get(i + 1)
                    .ok_or("--tolerances needs a file argument")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                thresholds =
                    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
                i += 2;
            }
            "--default-rel" => {
                let raw = args.get(i + 1).ok_or("--default-rel needs a value")?;
                let v: f64 = raw
                    .parse()
                    .map_err(|_| format!("--default-rel: not a number: {raw}"))?;
                default_rel_override = Some(v);
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            _ => {
                positional.push(&args[i]);
                i += 1;
            }
        }
    }
    if positional.len() != 2 {
        return Err("usage: adaqp-regress <baseline.json> <current.json> \
             [--tolerances <thresholds.json>] [--default-rel <f64>]"
            .to_string());
    }
    if let Some(v) = default_rel_override {
        thresholds.default_rel = v;
    }
    let baseline = load_value(positional[0])?;
    let current = load_value(positional[1])?;
    let regressions = compare(&baseline, &current, &thresholds);
    for r in &regressions {
        eprintln!("REGRESSION {r}");
    }
    // Ratio gates assert invariants of the fresh measurement itself (e.g.
    // quantize within 2x of fp32 serialize), so they only see `current`.
    // Gates referencing metrics absent from this artifact are skipped: the
    // same thresholds file governs both the metrics snapshot and the
    // kernel-bench record, and the gate's paths pick which one it applies
    // to — but a gate whose paths match *neither* side would never fire, so
    // only denominator-and-numerator-present or wholly-absent is tolerated.
    let gate_hits = check_ratio_gates(&current, &thresholds)
        .into_iter()
        .filter(|v| v.observed.is_some() || applies_to(&v.gate, &current))
        .collect::<Vec<_>>();
    for v in &gate_hits {
        eprintln!("RATIO GATE {v}");
    }
    Ok(regressions.len() + gate_hits.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(0) => {
            println!("adaqp-regress: no regressions");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            eprintln!("adaqp-regress: {n} regression(s)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("adaqp-regress: {msg}");
            ExitCode::from(2)
        }
    }
}
