//! Regression gate: diff two JSON artifacts (a metrics snapshot or the
//! kernel-bench record) numerically against per-metric tolerances.
//!
//! Both files are flattened to `path -> number` maps (object keys joined
//! with `.`, array indices as `[i]`); keys starting with `_` (`_meta`, host
//! metadata) are skipped. A baseline leaf missing from the current file is a
//! regression; extra leaves in the current file are ignored (new metrics
//! are not regressions). Tolerances are relative:
//! `|current - baseline| <= tol * max(|baseline|, 1e-12)`, looked up by
//! exact path first, then by the path's final segment (`ns`, `value`, ...),
//! then the default.
//!
//! The tolerances file is the one JSON file the program reads back into a
//! typed value: [`Thresholds::from_json`] picks it out of the parsed tree by
//! key, and rejects any key, type or bound it does not know.

use serde::value::{Map, Value};
use std::collections::BTreeMap;

/// Tolerance configuration for a regression diff.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// Relative tolerance applied when no per-metric override matches.
    pub default_rel: f64,
    /// Overrides by exact flattened path or by final path segment.
    pub per_metric: BTreeMap<String, f64>,
    /// Absolute ratio ceilings checked against the *current* file alone
    /// (see [`check_ratio_gates`]). A relative tolerance can't express
    /// "quantize must stay within K× of fp32 serialize" — both sides drift
    /// together on a noisy host, so the gate pins their quotient instead.
    pub ratio_gates: Vec<RatioGate>,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            default_rel: 1e-9,
            per_metric: BTreeMap::new(),
            ratio_gates: Vec::new(),
        }
    }
}

/// An upper bound on the quotient of two metrics in the same artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioGate {
    /// Flattened path of the numerator leaf (e.g. `codec_vs_fp32/quantize_2bit.ns`).
    pub numerator: String,
    /// Flattened path of the denominator leaf.
    pub denominator: String,
    /// Maximum allowed `numerator / denominator`.
    pub max_ratio: f64,
}

impl RatioGate {
    /// Reads the gate at `at` (`ratio_gates[i]`) of a tolerances file.
    fn from_json(v: &Value, at: &str) -> Result<Self, String> {
        let (mut numerator, mut denominator, mut max_ratio) = (None, None, None);
        for (key, x) in object(v, at)?.iter() {
            let path = format!("{at}.{key}");
            let leaf = || {
                x.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| wrong_type(&path, "a string", x))
            };
            match key.as_str() {
                "numerator" => numerator = Some(leaf()?),
                "denominator" => denominator = Some(leaf()?),
                "max_ratio" => max_ratio = Some(bound(x, &path)?),
                _ => return Err(format!("unknown key `{path}`")),
            }
        }
        let missing = |key: &str| format!("missing key `{at}.{key}`");
        Ok(RatioGate {
            numerator: numerator.ok_or_else(|| missing("numerator"))?,
            denominator: denominator.ok_or_else(|| missing("denominator"))?,
            max_ratio: max_ratio.ok_or_else(|| missing("max_ratio"))?,
        })
    }
}

/// `x` as the tolerance or ratio ceiling named `key`: finite and not
/// negative. [`compare`] and [`check_ratio_gates`] fail only when a quotient
/// *exceeds* its bound, and nothing exceeds NaN or infinity, so either
/// would pass every change.
pub fn checked_bound(key: &str, x: f64) -> Result<f64, String> {
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(format!("`{key}` must be finite and not negative, got {x}"))
    }
}

fn bound(v: &Value, key: &str) -> Result<f64, String> {
    let x = v.as_f64().ok_or_else(|| wrong_type(key, "a number", v))?;
    checked_bound(key, x)
}

fn object<'a>(v: &'a Value, key: &str) -> Result<&'a Map, String> {
    v.as_object().ok_or_else(|| wrong_type(key, "an object", v))
}

fn wrong_type(key: &str, want: &str, got: &Value) -> String {
    format!("`{key}` must be {want}, got {}", got.type_name())
}

/// One violated [`RatioGate`]: the quotient exceeded its ceiling, or one of
/// the referenced leaves is missing from the artifact (a gate that silently
/// stops measuring anything would be worse than a failing one).
#[derive(Debug, Clone, PartialEq)]
pub struct RatioViolation {
    /// The gate that failed.
    pub gate: RatioGate,
    /// Observed quotient; `None` when a referenced leaf is missing.
    pub observed: Option<f64>,
}

impl std::fmt::Display for RatioViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.observed {
            Some(r) => write!(
                f,
                "{} / {} = {:.3} exceeds max ratio {:.3}",
                self.gate.numerator, self.gate.denominator, r, self.gate.max_ratio
            ),
            None => write!(
                f,
                "{} / {}: metric missing from current file",
                self.gate.numerator, self.gate.denominator
            ),
        }
    }
}

/// Evaluates every ratio gate in `thresholds` against `current` and returns
/// the violations in gate order. Gates look only at the current artifact:
/// they assert an invariant of the measurement itself, not drift from a
/// baseline.
pub fn check_ratio_gates(current: &Value, thresholds: &Thresholds) -> Vec<RatioViolation> {
    let cur = flatten(current);
    let mut out = Vec::new();
    for gate in &thresholds.ratio_gates {
        match (cur.get(&gate.numerator), cur.get(&gate.denominator)) {
            (Some(&n), Some(&d)) => {
                let r = n / d.abs().max(1e-12);
                if r > gate.max_ratio {
                    out.push(RatioViolation {
                        gate: gate.clone(),
                        observed: Some(r),
                    });
                }
            }
            _ => out.push(RatioViolation {
                gate: gate.clone(),
                observed: None,
            }),
        }
    }
    out
}

impl Thresholds {
    /// Reads a tolerances file's tree: an object with a `default_rel`, an
    /// optional `per_metric` object of tolerances, and an optional
    /// `ratio_gates` array of `{numerator, denominator, max_ratio}` objects.
    /// An unknown key, a value of the wrong type, a missing required key and
    /// a tolerance or `max_ratio` that [`checked_bound`] refuses are each an
    /// error naming the key: a misspelt `ratio_gates` would otherwise turn
    /// every gate off without a word.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let mut default_rel = None;
        let mut th = Thresholds::default();
        for (key, x) in object(v, "the tolerances file")?.iter() {
            match key.as_str() {
                "default_rel" => default_rel = Some(bound(x, key)?),
                "per_metric" => {
                    for (metric, t) in object(x, key)?.iter() {
                        let tol = bound(t, &format!("per_metric.{metric}"))?;
                        th.per_metric.insert(metric.clone(), tol);
                    }
                }
                "ratio_gates" => {
                    let gates = x.as_array().ok_or_else(|| wrong_type(key, "an array", x))?;
                    th.ratio_gates = gates
                        .iter()
                        .enumerate()
                        .map(|(i, g)| RatioGate::from_json(g, &format!("ratio_gates[{i}]")))
                        .collect::<Result<_, _>>()?;
                }
                _ => return Err(format!("unknown key `{key}`")),
            }
        }
        th.default_rel = default_rel.ok_or("missing key `default_rel`")?;
        Ok(th)
    }

    /// The tolerance governing `path`.
    pub fn tolerance_for(&self, path: &str) -> f64 {
        if let Some(&t) = self.per_metric.get(path) {
            return t;
        }
        let last = path.rsplit('.').next().unwrap_or(path);
        if let Some(&t) = self.per_metric.get(last) {
            return t;
        }
        self.default_rel
    }
}

/// One metric that moved beyond its tolerance (or disappeared).
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Flattened path of the offending leaf.
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value; `None` when the leaf vanished.
    pub current: Option<f64>,
    /// Observed relative deviation.
    pub rel: f64,
    /// Tolerance that was exceeded.
    pub tol: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.current {
            Some(c) => write!(
                f,
                "{}: baseline {} -> current {} (rel {:.3e} > tol {:.3e})",
                self.path, self.baseline, c, self.rel, self.tol
            ),
            None => write!(f, "{}: baseline {} -> missing", self.path, self.baseline),
        }
    }
}

/// Flattens every numeric leaf of `v` into `path -> value`, skipping object
/// keys that start with `_` (metadata by convention).
pub fn flatten(v: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(v, String::new(), &mut out);
    out
}

fn walk(v: &Value, prefix: String, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Object(map) => {
            for (k, child) in map.iter() {
                if k.starts_with('_') {
                    continue;
                }
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(child, path, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                walk(child, format!("{prefix}[{i}]"), out);
            }
        }
        Value::Number(n) => {
            out.insert(prefix, n.as_f64());
        }
        _ => {}
    }
}

/// Diffs `current` against `baseline` and returns every tolerance breach,
/// in path order.
pub fn compare(baseline: &Value, current: &Value, thresholds: &Thresholds) -> Vec<Regression> {
    let base = flatten(baseline);
    let cur = flatten(current);
    let mut out = Vec::new();
    for (path, &b) in &base {
        let tol = thresholds.tolerance_for(path);
        match cur.get(path) {
            None => out.push(Regression {
                path: path.clone(),
                baseline: b,
                current: None,
                rel: f64::INFINITY,
                tol,
            }),
            Some(&c) => {
                let rel = (c - b).abs() / b.abs().max(1e-12);
                if rel > tol {
                    out.push(Regression {
                        path: path.clone(),
                        baseline: b,
                        current: Some(c),
                        rel,
                        tol,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).expect("valid JSON")
    }

    #[test]
    fn identical_files_pass() {
        let v = parse(r#"{"a": {"ns": 100.0, "threads": 8}, "b": {"ns": 3.5}}"#);
        assert!(compare(&v, &v, &Thresholds::default()).is_empty());
    }

    #[test]
    fn doctored_value_beyond_tolerance_fails() {
        let base = parse(r#"{"m": {"value": 100.0}}"#);
        let bad = parse(r#"{"m": {"value": 150.0}}"#);
        let regs = compare(&base, &bad, &Thresholds::default());
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "m.value");
        assert!((regs[0].rel - 0.5).abs() < 1e-12);
        // Within a loose tolerance the same doctoring passes.
        let loose = Thresholds {
            default_rel: 1.0,
            ..Thresholds::default()
        };
        assert!(compare(&base, &bad, &loose).is_empty());
    }

    #[test]
    fn missing_leaf_is_a_regression_and_extra_is_not() {
        let base = parse(r#"{"a": 1.0, "b": 2.0}"#);
        let cur = parse(r#"{"a": 1.0, "c": 9.0}"#);
        let regs = compare(&base, &cur, &Thresholds::default());
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "b");
        assert!(regs[0].current.is_none());
    }

    #[test]
    fn meta_keys_are_skipped() {
        let base = parse(r#"{"a": 1.0, "_meta": {"cpus": 1}}"#);
        let cur = parse(r#"{"a": 1.0, "_meta": {"cpus": 64}}"#);
        assert!(compare(&base, &cur, &Thresholds::default()).is_empty());
    }

    #[test]
    fn per_metric_override_by_segment_and_path() {
        let base = parse(r#"{"bench": {"ns": 100.0, "threads": 8.0}}"#);
        let cur = parse(r#"{"bench": {"ns": 250.0, "threads": 8.0}}"#);
        // Default tolerance flags the ns drift...
        assert_eq!(compare(&base, &cur, &Thresholds::default()).len(), 1);
        // ...a final-segment override absorbs it...
        let mut per = BTreeMap::new();
        per.insert("ns".to_string(), 3.0);
        let th = Thresholds {
            default_rel: 1e-9,
            per_metric: per.clone(),
            ratio_gates: Vec::new(),
        };
        assert!(compare(&base, &cur, &th).is_empty());
        // ...and an exact-path override wins over the segment one.
        per.insert("bench.ns".to_string(), 0.1);
        let th = Thresholds {
            default_rel: 1e-9,
            per_metric: per,
            ratio_gates: Vec::new(),
        };
        let regs = compare(&base, &cur, &th);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].tol, 0.1);
    }

    #[test]
    fn arrays_flatten_with_indices() {
        let v = parse(r#"{"xs": [1.0, 2.0, {"y": 3.0}]}"#);
        let flat = flatten(&v);
        assert_eq!(flat.get("xs[0]"), Some(&1.0));
        assert_eq!(flat.get("xs[2].y"), Some(&3.0));
    }

    fn gate(numerator: &str, denominator: &str, max_ratio: f64) -> RatioGate {
        RatioGate {
            numerator: numerator.to_string(),
            denominator: denominator.to_string(),
            max_ratio,
        }
    }

    #[test]
    fn the_committed_tolerances_parse_to_a_literal() {
        let text = include_str!("../../../results/baseline/tolerances.json");
        let th = Thresholds::from_json(&parse(text)).expect("the committed file is valid");
        let per_metric = [
            ("ns", 3.0),
            ("idle_fraction", 1e-6),
            ("collective_wait_share", 1e-6),
        ];
        let expected = Thresholds {
            default_rel: 1e-9,
            per_metric: per_metric.map(|(k, t)| (k.to_string(), t)).into(),
            ratio_gates: vec![
                gate(
                    "codec_vs_fp32/quantize_2bit.ns",
                    "codec_vs_fp32/fp32_serialize.ns",
                    2.0,
                ),
                gate(
                    "assigner_round/control_plane/256.ns",
                    "assigner_round/master_solve/256.ns",
                    1.86,
                ),
                gate(
                    "assigner_round/worker_decode/256.ns",
                    "assigner_round/reply_encode/256.ns",
                    2.5,
                ),
                gate(
                    "matmul_transposed/g_times_w_t (input grads).ns",
                    "matmul_transposed/a_t_times_g (weight grads).ns",
                    1.5,
                ),
                gate(
                    "halo_exchange/fleet_quant.ns",
                    "halo_exchange/fleet_fp32.ns",
                    2.05,
                ),
                gate(
                    "dense_tail/dropout_forward/750x128.ns",
                    "dense_tail/mask_draw/750x128.ns",
                    1.43,
                ),
            ],
        };
        assert_eq!(th, expected);
        // per_metric and ratio_gates are optional on disk.
        let sparse = Thresholds::from_json(&parse(r#"{"default_rel": 0.5}"#)).expect("parses");
        assert_eq!(
            sparse,
            Thresholds {
                default_rel: 0.5,
                ..Thresholds::default()
            }
        );
    }

    #[test]
    fn malformed_tolerances_are_errors_naming_the_key() {
        let gate = r#"{"numerator": "a", "denominator": "b", "max_ratio": 2.0}"#;
        let cases = [
            (r#"{"default_rel": 0.1, "ratio_gate": []}"#.to_string(), "unknown key `ratio_gate`"),
            (r#"{"per_metric": {}}"#.to_string(), "missing key `default_rel`"),
            (r#"{"default_rel": "0.1"}"#.to_string(), "`default_rel` must be a number, got string"),
            (r#"{"default_rel": 1e999}"#.to_string(), "`default_rel` must be finite and not negative, got inf"),
            (r#"{"default_rel": -0.5}"#.to_string(), "`default_rel` must be finite and not negative, got -0.5"),
            (r#"{"default_rel": 0, "per_metric": {"ns": null}}"#.to_string(), "`per_metric.ns` must be a number, got null"),
            (r#"{"default_rel": 0, "per_metric": {"ns": -3}}"#.to_string(), "`per_metric.ns` must be finite and not negative, got -3"),
            (r#"{"default_rel": 0, "per_metric": [1]}"#.to_string(), "`per_metric` must be an object, got array"),
            (r#"{"default_rel": 0, "ratio_gates": {}}"#.to_string(), "`ratio_gates` must be an array, got object"),
            (r#"{"default_rel": 0, "ratio_gates": [1]}"#.to_string(), "`ratio_gates[0]` must be an object, got number"),
            (
                format!(r#"{{"default_rel": 0, "ratio_gates": [{gate}, {{"numerator": "a", "max_ratio": 2}}]}}"#),
                "missing key `ratio_gates[1].denominator`",
            ),
            (
                r#"{"default_rel": 0, "ratio_gates": [{"numerator": "a", "denominator": "b", "max_ratio": -1}]}"#.to_string(),
                "`ratio_gates[0].max_ratio` must be finite and not negative, got -1",
            ),
            (
                r#"{"default_rel": 0, "ratio_gates": [{"numerator": 1, "denominator": "b", "max_ratio": 1}]}"#.to_string(),
                "`ratio_gates[0].numerator` must be a string, got number",
            ),
            (
                r#"{"default_rel": 0, "ratio_gates": [{"numerator": "a", "denominator": "b", "max": 1}]}"#.to_string(),
                "unknown key `ratio_gates[0].max`",
            ),
            ("[]".to_string(), "`the tolerances file` must be an object, got array"),
        ];
        for (text, message) in cases {
            assert_eq!(
                Thresholds::from_json(&parse(&text)),
                Err(message.to_string()),
                "{text}"
            );
        }
        for x in [f64::NAN, f64::INFINITY, -1e-12] {
            assert!(checked_bound("--default-rel", x).is_err(), "{x}");
        }
        assert_eq!(checked_bound("--default-rel", 0.0), Ok(0.0));
    }

    #[test]
    fn ratio_gate_flags_excess_and_passes_within_bound() {
        let th = Thresholds::from_json(&parse(
            r#"{"default_rel": 1e-9, "ratio_gates": [{
                "numerator": "codec_vs_fp32.quantize_2bit.ns",
                "denominator": "codec_vs_fp32.fp32_serialize.ns",
                "max_ratio": 2.0
            }]}"#,
        ))
        .expect("parses");
        let ok = parse(
            r#"{"codec_vs_fp32": {"quantize_2bit": {"ns": 110.0}, "fp32_serialize": {"ns": 60.0}}}"#,
        );
        assert!(check_ratio_gates(&ok, &th).is_empty());
        let bad = parse(
            r#"{"codec_vs_fp32": {"quantize_2bit": {"ns": 130.0}, "fp32_serialize": {"ns": 60.0}}}"#,
        );
        let v = check_ratio_gates(&bad, &th);
        assert_eq!(v.len(), 1);
        let r = v[0].observed.expect("both metrics present");
        assert!((r - 130.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_gate_missing_metric_is_a_violation() {
        let th = Thresholds {
            default_rel: 1e-9,
            per_metric: BTreeMap::new(),
            ratio_gates: vec![RatioGate {
                numerator: "a.ns".to_string(),
                denominator: "gone.ns".to_string(),
                max_ratio: 2.0,
            }],
        };
        let cur = parse(r#"{"a": {"ns": 1.0}}"#);
        let v = check_ratio_gates(&cur, &th);
        assert_eq!(v.len(), 1);
        assert!(v[0].observed.is_none());
        assert!(v[0].to_string().contains("missing"));
    }
}
