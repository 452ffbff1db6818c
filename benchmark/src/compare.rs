//! `adaqp-bench compare A.json B.json`: applies each end-to-end metric's
//! bound from `BENCHMARK.json` to two ledger files and prints one row per
//! (workload, metric): better / same / worse / unresolved. What it compares
//! is each metric's reported `value`: the median of its samples, or for the
//! whole-run host times the fastest repetition (`Summary::fastest`).
//!
//! Metrics the catalogue marks exact (simulated time, counts, quality) are
//! held to a bound of 0 when both files used one seed: a change meant only
//! to speed up the simulator must leave them bit-identical. Exact per-layer
//! metrics are checked the same way and listed only when they moved. Across
//! seeds the inputs differ, so only the bounds `BENCHMARK.json` lists apply
//! and the exact metrics it does not list are skipped.

use crate::spec::{self, Clock, MetricDef};
use crate::stats::{verdict, worsening, Summary, Verdict};
use serde_json::Value;
use std::path::Path;

/// One printed row.
#[derive(Debug)]
struct Row {
    workload: String,
    metric: String,
    a: f64,
    b: f64,
    unit: &'static str,
    bound: f64,
    worsening: f64,
    verdict: Verdict,
}

fn end_to_end_def(name: &str) -> Option<&'static MetricDef> {
    spec::find(spec::END_TO_END, name)
        .or_else(|| spec::find(spec::QUALITY, name))
        .or_else(|| {
            [&spec::FAILED_SHARE, &spec::SIM_SPEEDUP]
                .into_iter()
                .find(|d| d.name == name)
        })
}

/// `name -> bound` from `BENCHMARK.json`'s `end_to_end` list.
fn bounds_of(spec_json: &Value) -> Result<Vec<(String, f64)>, String> {
    spec_json["end_to_end"]
        .as_array()
        .ok_or("the spec has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("a spec metric has no name")?;
            let bound = m["bound"]
                .as_f64()
                .ok_or_else(|| format!("spec metric {name} has no bound"))?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn compare_section(
    rows: &mut Vec<Row>,
    workload: &str,
    a: &Value,
    b: &Value,
    lookup: impl Fn(&str) -> Option<&'static MetricDef>,
    bound_for: impl Fn(&MetricDef) -> Option<f64>,
) -> Result<(), String> {
    let Some(metrics) = a.as_object() else {
        return Ok(());
    };
    for (name, av) in metrics.iter() {
        let Some(def) = lookup(name) else {
            return Err(format!("{workload}: {name} is not in the metric catalogue"));
        };
        let Some(bound) = bound_for(def) else {
            continue;
        };
        let bv = b
            .get(name)
            .ok_or_else(|| format!("{workload}: {name} is missing from the second file"))?;
        // Off the host clock a summary's quartiles are the seed panel's
        // spread — different inputs, not noise — so only the value counts.
        let read = |v: &Value| match Summary::from_json(v) {
            Some(s) if def.clock == Clock::Host => Ok(s),
            Some(s) => Ok(Summary::exact(s.value)),
            None => Err(format!("{workload}: {name} is malformed")),
        };
        let (sa, sb) = (read(av)?, read(bv)?);
        rows.push(Row {
            workload: workload.to_string(),
            metric: name.clone(),
            a: sa.value,
            b: sb.value,
            unit: def.unit,
            bound,
            worsening: worsening(sa.value, sb.value, def.better),
            verdict: verdict(&sa, &sb, def.better, bound),
        });
    }
    Ok(())
}

fn compare(a: &Value, b: &Value, spec_json: &Value) -> Result<Vec<Row>, String> {
    let bounds = bounds_of(spec_json)?;
    let same_seed = a["seed"].as_u64().is_some() && a["seed"] == b["seed"];
    let workloads = a["workloads"]
        .as_object()
        .ok_or("the first file has no workloads")?;
    let mut rows = Vec::new();
    for (name, wa) in workloads.iter() {
        let wb = b["workloads"]
            .get(name)
            .ok_or_else(|| format!("workload {name} is missing from the second file"))?;
        compare_section(
            &mut rows,
            name,
            &wa["end_to_end"],
            &wb["end_to_end"],
            end_to_end_def,
            |def| {
                // A failed repetition is a failure on any seed.
                if (def.exact && same_seed) || def.name == spec::FAILED_SHARE.name {
                    return Some(0.0);
                }
                // The other ledger-only metrics are exact and have no listed
                // bound: on two seeds there is nothing to hold them to.
                let listed = bounds.iter().find(|(n, _)| n == def.name);
                listed.map(|(_, bound)| *bound)
            },
        )?;
        let mut per_layer = Vec::new();
        compare_section(
            &mut per_layer,
            name,
            &wa["per_layer"],
            &wb["per_layer"],
            |n| spec::find(spec::PER_LAYER, n),
            |def| (def.exact && same_seed).then_some(0.0),
        )?;
        // Exact per-layer metrics are only worth a row when they moved.
        rows.extend(per_layer.into_iter().filter(|r| r.verdict != Verdict::Same));
    }
    Ok(rows)
}

fn print(rows: &[Row]) {
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:<8} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "unit", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<28} {:>14.6} {:>14.6} {:<8} {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            r.worsening * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} same, {} worse, {} unresolved",
        count(Verdict::Better),
        count(Verdict::Same),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
}

/// Entry point of the `compare` subcommand; `Ok(false)` when any metric is
/// worse than its bound allows.
pub fn main(argv: &[String]) -> Result<bool, String> {
    let [a, b] = argv else {
        return Err("usage: adaqp-bench compare A.json B.json".to_string());
    };
    let rows = compare(
        &crate::read_json(Path::new(a))?,
        &crate::read_json(Path::new(b))?,
        &crate::read_json(Path::new("BENCHMARK.json"))?,
    )?;
    print(&rows);
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn metric(median: f64, q1: f64, q3: f64) -> Value {
        Summary {
            value: median,
            median,
            q1,
            q3,
            min: q1,
            max: q3,
            n: 7,
        }
        .to_json()
    }

    fn ledger(seed: u64, host_run: Value, sim_epoch: f64, halo_rows: f64) -> Value {
        // final_loss is ledger-only: exact, and absent from the spec's bounds.
        let end_to_end = json!({
            "host_run_s": host_run,
            "sim_epoch_s": Summary::exact(sim_epoch).to_json(),
            "final_loss": Summary::exact(sim_epoch * 20.0).to_json(),
            "failed_share": Summary::exact(0.0).to_json(),
        });
        let per_layer = json!({
            "decompose.halo_rows": Summary::exact(halo_rows).to_json(),
            "tensor.matmul_s": metric(0.1, 0.09, 0.11),
        });
        let workload = json!({ "end_to_end": end_to_end, "per_layer": per_layer });
        let workloads = json!({ "dense8_vanilla": workload });
        json!({ "seed": seed, "workloads": workloads })
    }

    fn spec_json() -> Value {
        let host = json!({ "name": "host_run_s", "bound": 0.1 });
        let sim = json!({ "name": "sim_epoch_s", "bound": 0.05 });
        json!({ "end_to_end": [host, sim] })
    }

    fn verdict_of<'a>(rows: &'a [Row], metric: &str) -> Option<&'a Row> {
        rows.iter().find(|r| r.metric == metric)
    }

    #[test]
    fn same_commit_twice_is_all_same() {
        let a = ledger(1, metric(5.0, 4.95, 5.05), 0.05, 900.0);
        let b = ledger(1, metric(5.1, 5.0, 5.2), 0.05, 900.0);
        let rows = compare(&a, &b, &spec_json()).unwrap();
        assert_eq!(
            rows.len(),
            4,
            "end-to-end rows only; per-layer did not move"
        );
        assert!(rows.iter().all(|r| r.verdict == Verdict::Same));
    }

    #[test]
    fn host_regression_and_noise_are_told_apart() {
        let a = ledger(1, metric(5.0, 4.95, 5.05), 0.05, 900.0);
        let slow = ledger(1, metric(5.8, 5.7, 5.9), 0.05, 900.0);
        let rows = compare(&a, &slow, &spec_json()).unwrap();
        assert_eq!(
            verdict_of(&rows, "host_run_s").unwrap().verdict,
            Verdict::Worse
        );
        let noisy = ledger(1, metric(5.1, 4.4, 5.8), 0.05, 900.0);
        let rows = compare(&a, &noisy, &spec_json()).unwrap();
        assert_eq!(
            verdict_of(&rows, "host_run_s").unwrap().verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_get_no_slack_on_one_seed() {
        let a = ledger(1, metric(5.0, 4.95, 5.05), 0.05, 900.0);
        let drift = ledger(1, metric(5.0, 4.95, 5.05), 0.0501, 901.0);
        let rows = compare(&a, &drift, &spec_json()).unwrap();
        for metric in ["sim_epoch_s", "final_loss"] {
            assert_eq!(verdict_of(&rows, metric).unwrap().verdict, Verdict::Worse);
        }
        // The moved exact per-layer count is listed; the host probe is not.
        assert_eq!(
            verdict_of(&rows, "decompose.halo_rows").unwrap().verdict,
            Verdict::Worse
        );
        assert!(verdict_of(&rows, "tensor.matmul_s").is_none());
        // Across seeds the inputs differ, so the spec's bound applies.
        let other_seed = ledger(2, metric(5.0, 4.95, 5.05), 0.0501, 901.0);
        let rows = compare(&a, &other_seed, &spec_json()).unwrap();
        assert_eq!(
            verdict_of(&rows, "sim_epoch_s").unwrap().verdict,
            Verdict::Same
        );
        assert!(verdict_of(&rows, "decompose.halo_rows").is_none());
        // An exact metric the spec gives no bound has nothing to be held to.
        assert!(verdict_of(&rows, "final_loss").is_none());
        assert_eq!(
            verdict_of(&rows, "failed_share").unwrap().verdict,
            Verdict::Same
        );
    }

    #[test]
    fn panel_spread_of_a_simulated_metric_is_not_noise() {
        let mut a = ledger(1, metric(5.0, 4.95, 5.05), 0.05, 900.0);
        // sim_epoch_s reported as a panel median with wide quartiles.
        let panel = metric(0.05, 0.04, 0.06);
        let workload = a["workloads"]["dense8_vanilla"].clone();
        let mut end_to_end = workload["end_to_end"].as_object().unwrap().clone();
        end_to_end.insert("sim_epoch_s".to_string(), panel);
        let per_layer = workload["per_layer"].clone();
        let workload = json!({ "end_to_end": Value::Object(end_to_end), "per_layer": per_layer });
        let workloads = json!({ "dense8_vanilla": workload });
        a = json!({ "seed": 1, "workloads": workloads });
        let rows = compare(&a, &a, &spec_json()).unwrap();
        assert_eq!(
            verdict_of(&rows, "sim_epoch_s").unwrap().verdict,
            Verdict::Same
        );
    }

    #[test]
    fn missing_pieces_are_errors() {
        let a = ledger(1, metric(5.0, 4.95, 5.05), 0.05, 900.0);
        let empty = json!({ "seed": 1, "workloads": json!({}) });
        assert!(compare(&a, &empty, &spec_json())
            .unwrap_err()
            .contains("missing"));
        assert!(compare(&a, &a, &json!({}))
            .unwrap_err()
            .contains("end_to_end"));
        for argv in [&["a.json"][..], &["a.json", "b.json", "--spec"][..]] {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            assert!(main(&argv).unwrap_err().contains("usage"));
        }
    }
}
