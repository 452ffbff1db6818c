//! `adaqp-bench`: the host-time + simulated-time ledger. See README.md for
//! the workloads, the metric tables and how the numbers interact.
//!
//! ```text
//! adaqp-bench --workload <name> [--seed N] [--seconds S | --reps N] [--trace 0|1] [--smoke] [--out FILE]
//! adaqp-bench [--seed N] [--reps N] [--smoke]          # every workload, each in its own process
//! adaqp-bench compare A.json B.json
//! ```

mod compare;
mod e2e;
mod probes;
mod spec;
mod stats;
mod traced;
mod workloads;

use e2e::Budget;
use serde_json::{json, Map, Value};
use spec::MetricDef;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

const DEFAULT_SEED: u64 = 4242;
/// Measured repetitions per workload when the ledger is run by hand.
const LEDGER_REPS: usize = 7;
/// Untraced/traced repetitions each in the ledger's traced process.
const LEDGER_TRACE_REPS: usize = 2;
const RESULTS_PATH: &str = "benchmark/out/results.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        reps: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = parse(flag, value()?)?,
            "--seconds" => {
                let s: f64 = parse(flag, value()?)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                args.seconds = Some(s);
            }
            "--reps" => {
                let n: usize = parse(flag, value()?)?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                args.reps = Some(n);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_some() && args.reps.is_some() {
        return Err("--seconds and --reps are two ways to say how long; give one".to_string());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read {text:?}"))
}

/// Sanitized and profiled runs measure the sanitizer and the recorder, not
/// the program; `scripts/bench.sh` refuses them for the same reason.
fn refuse_instrumented_env() -> Result<(), String> {
    for var in ["ADAQP_SAN", "ADAQP_PROFILE"] {
        if std::env::var(var).is_ok_and(|v| !v.is_empty() && v != "0") {
            return Err(format!(
                "refusing to benchmark with {var} set: it would time the instrumentation"
            ));
        }
    }
    if cfg!(debug_assertions) {
        return Err("refusing to benchmark a debug build; use benchmark/run.sh".to_string());
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (out.status.success() && !text.is_empty()).then(|| text.to_string())
}

/// The CPUs this process may run on (`run.sh` pins it to one), as the
/// kernel lists them.
fn cpu_affinity() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_string())
}

/// Where and how the numbers were produced. Never compared.
fn meta() -> Value {
    let or_null = |s: Option<String>| s.map_or(Value::Null, Value::String);
    let mut env = Map::new();
    for (k, v) in std::env::vars().filter(|(k, _)| k.starts_with("ADAQP_")) {
        env.insert(k, Value::String(v));
    }
    json!({
        "cpus": std::thread::available_parallelism().map_or(0, usize::from),
        "cpu_affinity": or_null(cpu_affinity()),
        "kernel_threads": tensor::par::current_threads(),
        "rustc": or_null(command_line("rustc", &["--version"])),
        "git_rev": or_null(command_line("git", &["rev-parse", "--short=12", "HEAD"])),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "env": Value::Object(env),
    })
}

/// Everything one process measured for one workload.
struct Report {
    /// `result_digest` of the run on `--seed` itself (panel seed 0).
    digest: Option<u64>,
    attempted: usize,
    failures: Vec<String>,
    /// The contract's metrics for this `--trace` value.
    metrics: Vec<(&'static MetricDef, Summary)>,
    /// Measured with the end-to-end metrics, but only the ledger carries
    /// them (`spec::QUALITY`).
    ledger_only: Vec<(&'static MetricDef, Summary)>,
}

impl Report {
    fn of(run: &e2e::Untraced) -> Self {
        Report {
            digest: run.digests[0],
            attempted: run.attempted,
            failures: run.failures.clone(),
            metrics: Vec::new(),
            ledger_only: Vec::new(),
        }
    }
}

/// Pairs measured values with their catalogue entries, demanding every
/// metric of `table` exactly once and returning them in catalogue order.
fn with_defs(
    table: &'static [MetricDef],
    metrics: Vec<(&'static str, Summary)>,
) -> Result<Vec<(&'static MetricDef, Summary)>, String> {
    if let Some((name, _)) = metrics.iter().find(|(n, _)| spec::find(table, n).is_none()) {
        return Err(format!("metric {name} is not in the catalogue"));
    }
    table
        .iter()
        .map(|d| {
            let mut hits = metrics.iter().filter(|(n, _)| *n == d.name);
            match (hits.next(), hits.next()) {
                (Some(&(_, s)), None) => Ok((d, s)),
                (None, _) => Err(format!("metric {} was not measured", d.name)),
                (Some(_), Some(_)) => Err(format!("metric {} was measured twice", d.name)),
            }
        })
        .collect()
}

fn run_end_to_end(
    cfg: &adaqp::ExperimentConfig,
    test_floor: f64,
    plan: &e2e::Plan,
) -> Result<Report, String> {
    let run = e2e::run_untraced(cfg, test_floor, plan)?;
    // Read before anything else allocates: the peak is the run's, not the
    // report's.
    let rss = e2e::peak_rss_mb()?;
    let mut report = Report::of(&run);
    if let Some((metrics, quality)) = e2e::end_to_end_metrics(cfg, &run, rss) {
        report.metrics = with_defs(spec::END_TO_END, metrics)?;
        report.ledger_only = with_defs(spec::QUALITY, quality)?;
    }
    Ok(report)
}

/// Untraced repetitions (the reference tracing overhead is measured
/// against), as many traced ones on the same panel seeds, then the layer
/// probes on `--seed`'s own graph.
fn run_traced(
    cfg: &adaqp::ExperimentConfig,
    test_floor: f64,
    plan: &e2e::Plan,
    probe_reps: usize,
) -> Result<Report, String> {
    let untraced = e2e::run_untraced(cfg, test_floor, plan)?;
    let mut report = Report::of(&untraced);
    if !report.failures.is_empty() {
        return Ok(report);
    }
    let setup_s = untraced.setup_s();

    let mut traced_s = Vec::new();
    let mut first = None;
    for rep in 0..untraced.reps.len() {
        report.attempted += 1;
        let index = rep % e2e::PANEL;
        let run = traced::run(&e2e::on_panel(cfg, index))?;
        let digest = untraced.digests[index].expect("an untraced repetition ran on this seed");
        if let Some(why) = traced::check(&run, digest) {
            report
                .failures
                .push(format!("traced rep {}: {why}", rep + 1));
            return Ok(report);
        }
        traced_s.push(run.host_run_s);
        first.get_or_insert(run);
    }
    let first = first.ok_or("no untraced repetition to trace against")?;

    // Fastest repetition on both sides, as `host_run_s` itself is reported.
    let fastest = |secs: &[f64]| stats::summarize(secs).min;
    let untraced_s = fastest(&untraced.host_run_s());
    let mut metrics = traced::metrics(cfg, first, setup_s)?;
    metrics.push((
        "trace.overhead_share",
        Summary::exact(fastest(&traced_s) / untraced_s - 1.0),
    ));
    let stage = |f: fn(&e2e::SetupTimes) -> f64| {
        stats::summarize(&untraced.setup_times.iter().map(f).collect::<Vec<_>>())
    };
    metrics.push(("graph.synth_s", stage(|t| t.synth_s)));
    metrics.push(("graph.partition_s", stage(|t| t.partition_s)));
    metrics.push(("decompose.build_s", stage(|t| t.build_s)));

    let probed = probes::run(cfg, &untraced.setup, probe_reps)?;
    metrics.extend(probed.metrics);
    metrics.push((
        "core.unattributed_share",
        Summary::exact(1.0 - probed.attributed_run_s / (untraced_s - setup_s)),
    ));
    report.metrics = with_defs(spec::PER_LAYER, metrics)?;
    Ok(report)
}

fn metric_json(def: &MetricDef, s: Summary) -> Value {
    let mut v = s.to_json();
    let obj = v.as_object_mut().expect("summaries serialise as objects");
    obj.insert("unit".to_string(), json!(def.unit));
    obj.insert("clock".to_string(), json!(def.clock.label()));
    v
}

fn print_metrics(metrics: &[(&'static MetricDef, Summary)]) {
    for (def, s) in metrics {
        let spread = if s.n > 1 {
            format!(
                "  median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
                s.median, s.q1, s.q3, s.min, s.max, s.n
            )
        } else {
            String::new()
        };
        println!(
            "  {:<32} {:>16.6} {:<8} [{}]{spread}",
            def.name,
            s.value,
            def.unit,
            def.clock.label()
        );
    }
}

/// One workload in this process. Prints every metric by name and unit, then
/// the contract's one-line JSON result as the last line of stdout.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let cfg = workload.config(args.seed, args.smoke);
    let budget = match (args.reps, args.seconds) {
        (Some(n), _) => Budget::Reps(n),
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) => Budget::Reps(LEDGER_REPS),
    };
    let floor = workload.test_floor(args.smoke);
    // Smoke runs trade steadiness for speed: no warm-up, one set-up, one
    // probe repetition.
    let thorough = !args.smoke;
    let report = if args.trace {
        let plan = e2e::Plan {
            budget: budget.halved(),
            min_reps: 1,
            thorough,
        };
        let probe_reps = if thorough { probes::PROBE_REPS } else { 1 };
        run_traced(&cfg, floor, &plan, probe_reps)?
    } else {
        let plan = e2e::Plan {
            budget,
            min_reps: e2e::PANEL,
            thorough,
        };
        run_end_to_end(&cfg, floor, &plan)?
    };

    let failed = report.failures.len();
    let correct = failed == 0 && !report.metrics.is_empty();
    let digest = report.digest.map(|d| format!("{d:016x}"));
    println!(
        "workload {name}  seed {}  trace {}  result_digest {}  attempted {}  failed {failed}  on cpu {}",
        args.seed,
        u8::from(args.trace),
        digest.as_deref().unwrap_or("-"),
        report.attempted,
        cpu_affinity().as_deref().unwrap_or("?"),
    );
    for why in &report.failures {
        println!("  FAILED {why}");
    }
    print_metrics(&report.metrics);
    print_metrics(&report.ledger_only);

    if let Some(path) = &args.out {
        let mut metrics = Map::new();
        for (def, s) in report.metrics.iter().chain(&report.ledger_only) {
            metrics.insert(def.name.to_string(), metric_json(def, *s));
        }
        let detail = json!({
            "workload": name,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "result_digest": digest,
            "attempted": report.attempted,
            "failed": failed,
            "failures": report.failures,
            "metrics": Value::Object(metrics),
        });
        write_json(path, &detail)?;
    }

    let mut metrics = Map::new();
    for (def, s) in &report.metrics {
        metrics.insert(
            def.name.to_string(),
            json!({ "value": s.value, "unit": def.unit }),
        );
    }
    let line = json!({
        "correct": correct,
        "attempted": report.attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| format!("cannot print the result: {e}"))?
    );
    Ok(correct)
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialise {}: {e}", path.display()))?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// Runs one workload at one `--trace` value in a child process and returns
/// the detail file it wrote.
fn run_child(args: &Args, workload: &Workload, trace: bool, reps: usize) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = PathBuf::from(format!(
        "benchmark/out/{}.trace{}.json",
        workload.name,
        u8::from(trace)
    ));
    let _ = std::fs::remove_file(&out);
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--reps", &reps.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child's stdout is this process's: it prints the metrics.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start the {} process: {e}", workload.name))?;
    match read_json(&out) {
        Ok(detail) => Ok(detail),
        Err(e) => Err(format!(
            "{} (trace {}) {status}: {e}",
            workload.name,
            u8::from(trace)
        )),
    }
}

/// The whole ledger: every workload, each `--trace` value in a process of
/// its own, merged into `benchmark/out/results.json`.
fn run_ledger(args: &Args) -> Result<bool, String> {
    if args.seconds.is_some() {
        return Err("the ledger takes --reps; --seconds is for single-workload runs".to_string());
    }
    let (reps, trace_reps) = match (args.reps, args.smoke) {
        (Some(n), _) => (n, LEDGER_TRACE_REPS.min(n)),
        (None, true) => (2, 1),
        (None, false) => (LEDGER_REPS, LEDGER_TRACE_REPS),
    };
    let mut all_correct = true;
    // (workload, its end-to-end metrics, the rest of its results entry).
    let mut entries: Vec<(&Workload, Map, Map)> = Vec::new();
    for workload in workloads::ALL {
        let end_to_end = run_child(args, workload, false, reps)?;
        let per_layer = run_child(args, workload, true, trace_reps)?;
        let count = |v: &Value, key: &str| v[key].as_u64().unwrap_or(0);
        let attempted = count(&end_to_end, "attempted") + count(&per_layer, "attempted");
        let failed = count(&end_to_end, "failed") + count(&per_layer, "failed");
        let measured = |v: &Value| v["metrics"].as_object().is_some_and(|m| !m.is_empty());
        if failed > 0 || !measured(&end_to_end) || !measured(&per_layer) {
            all_correct = false;
        }
        if end_to_end["result_digest"] != per_layer["result_digest"] {
            all_correct = false;
            println!(
                "FAILED {}: the two processes disagree on result_digest",
                workload.name
            );
        }
        let mut failures = Vec::new();
        for side in [&end_to_end, &per_layer] {
            failures.extend(side["failures"].as_array().cloned().unwrap_or_default());
        }
        let mut metrics = end_to_end["metrics"]
            .as_object()
            .cloned()
            .unwrap_or_default();
        let share = failed as f64 / attempted.max(1) as f64;
        metrics.insert(
            spec::FAILED_SHARE.name.to_string(),
            metric_json(&spec::FAILED_SHARE, Summary::exact(share)),
        );
        let mut rest = Map::new();
        rest.insert("why".to_string(), json!(workload.why));
        rest.insert(
            "result_digest".to_string(),
            end_to_end["result_digest"].clone(),
        );
        rest.insert("attempted".to_string(), json!(attempted));
        rest.insert("failed".to_string(), json!(failed));
        rest.insert("failures".to_string(), Value::Array(failures));
        rest.insert("per_layer".to_string(), per_layer["metrics"].clone());
        entries.push((workload, metrics, rest));
    }

    // The one end-to-end metric that needs two workloads.
    let (vanilla, adaqp) = spec::SPEEDUP_PAIR;
    let sim = |name: &str| {
        let (_, metrics, _) = entries.iter().find(|e| e.0.name == name)?;
        metrics.get("sim_epoch_s")?["value"].as_f64()
    };
    if let (Some(v), Some(a)) = (sim(vanilla), sim(adaqp)) {
        let def = &spec::SIM_SPEEDUP;
        println!("{adaqp}: {} = {:.4} {}", def.name, v / a, def.unit);
        let (_, metrics, _) = entries
            .iter_mut()
            .find(|e| e.0.name == adaqp)
            .expect("found by sim() above");
        metrics.insert(
            def.name.to_string(),
            metric_json(def, Summary::exact(v / a)),
        );
    }
    let mut workloads_json = Map::new();
    for (workload, metrics, mut rest) in entries {
        rest.insert("end_to_end".to_string(), Value::Object(metrics));
        workloads_json.insert(workload.name.to_string(), Value::Object(rest));
    }

    let results = json!({
        "_meta": meta(),
        "seed": args.seed,
        "smoke": args.smoke,
        "reps": reps,
        "claim": Value::Null,
        "workloads": Value::Object(workloads_json),
    });
    write_json(Path::new(RESULTS_PATH), &results)?;
    println!("wrote {RESULTS_PATH}");
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = parse_args(&argv)?;
    refuse_instrumented_env()?;
    match &args.workload {
        Some(name) => run_workload(&args, name),
        None => run_ledger(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("adaqp-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn repo_file(relative: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// `[table] -> {key -> value}` for every table whose header starts with
    /// `prefix`. Enough TOML for profile tables: one `key = value` per line.
    fn toml_tables(text: &str, prefix: &str) -> BTreeMap<String, BTreeMap<String, String>> {
        let mut tables = BTreeMap::new();
        let mut current: Option<String> = None;
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                current = header.starts_with(prefix).then(|| header.to_string());
                if let Some(name) = &current {
                    tables.insert(name.clone(), BTreeMap::new());
                }
            } else if let (Some(name), Some((k, v))) = (&current, line.split_once('=')) {
                tables
                    .get_mut(name)
                    .expect("inserted at its header")
                    .insert(k.trim().to_string(), v.trim().to_string());
            }
        }
        tables
    }

    #[test]
    fn release_profile_mirrors_root() {
        let root = toml_tables(&repo_file("../Cargo.toml"), "profile.release");
        let ours = toml_tables(&repo_file("Cargo.toml"), "profile.release");
        assert!(
            root.contains_key("profile.release.package.quant"),
            "the parser lost the root's codec override: {root:?}"
        );
        assert_eq!(
            ours, root,
            "benchmark/Cargo.toml's release profile drifted from the root manifest: the harness \
             would time code the shipped binaries do not run"
        );
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let spec_json: Value = serde_json::from_str(&repo_file("../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = spec_json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(spec_json["paths"][0].as_str(), Some("benchmark"));

        let listed: Vec<(&str, &str)> = spec_json["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (w["name"].as_str().unwrap(), w["why"].as_str().unwrap()))
            .collect();
        let ours: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
        for (_, why) in &listed {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }

        for (key, table) in [
            ("end_to_end", spec::END_TO_END),
            ("per_layer", spec::PER_LAYER),
        ] {
            let listed: Vec<(&str, &str, &str)> = spec_json[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap(),
                        m["unit"].as_str().unwrap(),
                        m["better"].as_str().unwrap(),
                    )
                })
                .collect();
            let label = |b: stats::Better| match b {
                stats::Better::Lower => "lower",
                stats::Better::Higher => "higher",
            };
            let ours: Vec<(&str, &str, &str)> = table
                .iter()
                .map(|d| (d.name, d.unit, label(d.better)))
                .collect();
            assert_eq!(listed, ours, "{key} drifted from spec.rs");
        }
        for m in spec_json["end_to_end"].as_array().unwrap() {
            let bound = m["bound"].as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
        assert!(spec_json["per_layer"].as_array().unwrap().len() <= 128);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload halo32_adaqp --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("halo32_adaqp"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(15.0), true));
        let a = parse_args(&argv("--smoke")).unwrap();
        assert!(a.smoke && a.workload.is_none() && a.seed == DEFAULT_SEED);
        for bad in [
            "--seconds 0",
            "--reps 0",
            "--trace 2",
            "--seed",
            "--seconds 5 --reps 3",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn catalogue_lookup_demands_every_metric_once() {
        let all: Vec<(&'static str, Summary)> = spec::END_TO_END
            .iter()
            .map(|d| (d.name, Summary::exact(1.0)))
            .collect();
        assert_eq!(
            with_defs(spec::END_TO_END, all.clone()).unwrap().len(),
            spec::END_TO_END.len()
        );
        assert!(with_defs(spec::END_TO_END, all[1..].to_vec())
            .unwrap_err()
            .contains("not measured"));
        let mut twice = all.clone();
        twice.push(all[0]);
        assert!(with_defs(spec::END_TO_END, twice)
            .unwrap_err()
            .contains("twice"));
        let mut unknown = all;
        unknown.push(("no.such_metric", Summary::exact(0.0)));
        assert!(with_defs(spec::END_TO_END, unknown)
            .unwrap_err()
            .contains("catalogue"));
    }
}
