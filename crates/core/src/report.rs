//! Human-readable reporting: render one or more [`RunResult`]s as aligned
//! text or Markdown tables (the CLI and bench harness both use these).

use crate::metrics::RunResult;

/// One rendered comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Method name.
    pub method: String,
    /// Best validation score, percent.
    pub val_pct: f64,
    /// Test score at the best-validation epoch, percent.
    pub test_pct: f64,
    /// Simulated throughput, epochs/second.
    pub throughput: f64,
    /// Speedup over the first row.
    pub speedup: f64,
    /// Simulated wall-clock seconds.
    pub wallclock_s: f64,
    /// Megabytes moved.
    pub mb_moved: f64,
}

/// Builds comparison rows from runs; the first run is the speedup baseline.
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn comparison_rows(runs: &[RunResult]) -> Vec<ReportRow> {
    assert!(!runs.is_empty(), "need at least one run to report");
    let base_tp = runs[0].throughput.max(1e-12);
    runs.iter()
        .map(|r| ReportRow {
            method: r.method.clone(),
            val_pct: r.best_val * 100.0,
            test_pct: r.test_at_best * 100.0,
            throughput: r.throughput,
            speedup: r.throughput / base_tp,
            wallclock_s: r.total_sim_seconds,
            mb_moved: r.total_bytes as f64 / 1e6,
        })
        .collect()
}

/// Renders runs as a GitHub-flavored Markdown table.
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn markdown_table(runs: &[RunResult]) -> String {
    let rows = comparison_rows(runs);
    let mut out = String::new();
    out.push_str(&format!(
        "Dataset: **{}** ({})\n\n",
        runs[0].dataset, runs[0].partition
    ));
    out.push_str(
        "| Method | Val acc | Test acc | Throughput | Speedup | Wall-clock | MB moved |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.2}% | {:.2}% | {:.2} ep/s | {:.2}x | {:.3}s | {:.2} |\n",
            r.method, r.val_pct, r.test_pct, r.throughput, r.speedup, r.wallclock_s, r.mb_moved
        ));
    }
    out
}

/// Renders an epoch-vs-validation-accuracy curve as a compact sparkline
/// string (8 levels), for terminal convergence summaries.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

/// Summarizes a run in a few lines of plain text.
pub fn summary(run: &RunResult) -> String {
    let curve: Vec<f64> = run.per_epoch.iter().map(|e| e.val_score).collect();
    format!(
        "{} on {} ({}): val {:.2}% / test {:.2}%, {:.2} ep/s, {:.3}s total, comm {:.1}%\n  val curve: {}",
        run.method,
        run.dataset,
        run.partition,
        run.best_val * 100.0,
        run.test_at_best * 100.0,
        run.throughput,
        run.total_sim_seconds,
        run.comm_fraction() * 100.0,
        sparkline(&curve)
    )
}

/// Best-effort short git revision of the working tree, for the `_meta`
/// block of a JSON export; `None` outside a checkout or without a `git`
/// binary.
pub fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?;
    let rev = rev.trim();
    if rev.is_empty() {
        None
    } else {
        Some(rev.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EpochMetrics;

    fn fake_run(method: &str, tp: f64, val: f64) -> RunResult {
        RunResult {
            method: method.to_string(),
            dataset: "tiny".into(),
            partition: "1M-2D".into(),
            per_epoch: (0..5)
                .map(|e| EpochMetrics {
                    epoch: e,
                    loss: 1.0 / (e + 1) as f64,
                    val_score: val * (e + 1) as f64 / 5.0,
                    test_score: val,
                    sim_seconds: 1.0 / tp,
                    breakdown: obs::time::TimeBreakdown::new(),
                    bytes_sent: 1000,
                })
                .collect(),
            best_val: val,
            test_at_best: val,
            total_sim_seconds: 5.0 / tp,
            throughput: tp,
            total_breakdown: obs::time::TimeBreakdown::new(),
            total_bytes: 5000,
            telemetry: None,
            metrics: None,
        }
    }

    #[test]
    fn comparison_rows_speedup_relative_to_first() {
        let runs = vec![
            fake_run("Vanilla", 10.0, 0.9),
            fake_run("AdaQP", 25.0, 0.89),
        ];
        let rows = comparison_rows(&runs);
        assert_eq!(rows[0].speedup, 1.0);
        assert!((rows[1].speedup - 2.5).abs() < 1e-9);
        assert!((rows[1].val_pct - 89.0).abs() < 1e-9);
    }

    #[test]
    fn markdown_table_contains_all_methods() {
        let runs = vec![
            fake_run("Vanilla", 10.0, 0.9),
            fake_run("AdaQP", 25.0, 0.89),
        ];
        let md = markdown_table(&runs);
        assert!(md.contains("| Vanilla |"));
        assert!(md.contains("| AdaQP |"));
        assert!(md.contains("2.50x"));
        assert!(md.starts_with("Dataset: **tiny**"));
    }

    #[test]
    fn sparkline_shape() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        let chars: Vec<char> = s.chars().collect();
        assert!(chars[0] < chars[2], "sparkline should ascend");
        // Constant input does not panic (span clamped).
        assert_eq!(sparkline(&[2.0, 2.0]).chars().count(), 2);
    }

    #[test]
    fn summary_mentions_method_and_dataset() {
        let s = summary(&fake_run("AdaQP", 10.0, 0.8));
        assert!(s.contains("AdaQP on tiny"));
        assert!(s.contains("80.00%"));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_runs_panic() {
        let _ = comparison_rows(&[]);
    }
}
