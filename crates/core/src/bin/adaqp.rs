//! `adaqp` — command-line front end for the reproduction.
//!
//! ```text
//! adaqp run   --dataset ogbn-products-sim --method adaqp --machines 2 --devices 2 [--epochs N] ...
//! adaqp tune  --dataset yelp-sim --machines 2 --devices 2 [--epochs N]
//! adaqp partition --dataset reddit-sim --parts 4
//! adaqp datasets
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency budget has no
//! room for clap); see `adaqp help` for the full surface.

use adaqp::{ExperimentConfig, Method, TopologySpec, TrainingConfig};
use graph::DatasetSpec;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&flags),
        "compare" => cmd_compare(&flags),
        "tune" => cmd_tune(&flags),
        "partition" => cmd_partition(&flags),
        "datasets" => cmd_datasets(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
adaqp — distributed full-graph GNN training with adaptive message quantization

USAGE:
  adaqp run --dataset <name> [--method <m>] [--machines N] [--devices N]
            [--epochs N] [--hidden N] [--sage] [--seed N] [--lambda X]
            [--group-size N] [--period N] [--no-overlap] [--error-feedback]
            [--grouped-wire] [--stream-quant]
            [--rack-size N] [--oversub X] [--scale X] [--json] [--telemetry]
            [--trace <file.json>] [--events <file.jsonl>] [--metrics <path>]
            [--san] [--critical-path <file.json>] [--flow-trace <file.json>]
  adaqp compare --dataset <name> [--machines N] [--devices N] [--epochs N]
            [--rack-size N] [--oversub X] [--scale X] [--markdown]
  adaqp tune --dataset <name> [--machines N] [--devices N] [--epochs N] [--scale X]
  adaqp partition --dataset <name> [--parts N] [--scale X] [--seed N]
  adaqp datasets
  adaqp help

METHODS: vanilla | adaqp | adaqp-uniform | pipegcn | sancus
DATASETS: reddit-sim | yelp-sim | ogbn-products-sim | amazon-products-sim | tiny";

/// Parsed `--key value` / `--switch` flags.
type Flags = BTreeMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    const SWITCHES: &[&str] = &[
        "sage",
        "no-overlap",
        "error-feedback",
        "json",
        "markdown",
        "grouped-wire",
        "stream-quant",
        "telemetry",
        "san",
    ];
    let mut flags = Flags::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{arg}`"));
        };
        if SWITCHES.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
            i += 2;
        }
    }
    Ok(flags)
}

fn parse_num<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{raw}`")),
    }
}

fn dataset_from(flags: &Flags) -> Result<DatasetSpec, String> {
    let name = flags
        .get("dataset")
        .ok_or("--dataset is required")?
        .as_str();
    let spec = match name {
        "reddit-sim" => DatasetSpec::reddit_sim(),
        "yelp-sim" => DatasetSpec::yelp_sim(),
        "ogbn-products-sim" => DatasetSpec::ogbn_products_sim(),
        "amazon-products-sim" => DatasetSpec::amazon_products_sim(),
        "tiny" => DatasetSpec::tiny(),
        other => return Err(format!("unknown dataset `{other}`")),
    };
    let scale: f64 = parse_num(flags, "scale", 1.0)?;
    if scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    Ok(spec.scaled(scale))
}

fn method_from(flags: &Flags) -> Result<Method, String> {
    match flags.get("method").map_or("adaqp", String::as_str) {
        "vanilla" => Ok(Method::Vanilla),
        "adaqp" => Ok(Method::AdaQp),
        "adaqp-uniform" => Ok(Method::AdaQpUniform),
        "pipegcn" => Ok(Method::PipeGcn),
        "sancus" => Ok(Method::Sancus),
        other => Err(format!("unknown method `{other}`")),
    }
}

fn experiment_from(flags: &Flags) -> Result<ExperimentConfig, String> {
    let dataset = dataset_from(flags)?;
    let mut training = TrainingConfig::paper_preset(&dataset.name);
    training.epochs = parse_num(flags, "epochs", 40usize)?;
    training.hidden = parse_num(flags, "hidden", training.hidden)?;
    training.lambda = parse_num(flags, "lambda", training.lambda)?;
    training.group_size = parse_num(flags, "group-size", training.group_size)?;
    training.reassign_period = parse_num(flags, "period", training.reassign_period)?;
    training.use_sage = flags.contains_key("sage");
    training.disable_overlap = flags.contains_key("no-overlap");
    training.error_feedback = flags.contains_key("error-feedback");
    training.grouped_wire = flags.contains_key("grouped-wire");
    training.stream_quant = flags.contains_key("stream-quant");
    // Recording is implied by asking for an export.
    training.telemetry = flags.contains_key("telemetry")
        || flags.contains_key("trace")
        || flags.contains_key("events");
    training.metrics = flags.contains_key("metrics");
    training.sanitize = flags.contains_key("san");
    // Profiling, like telemetry, is implied by asking for an export.
    training.profile = flags.contains_key("critical-path") || flags.contains_key("flow-trace");
    // `--rack-size 0` (or leaving both flags off) keeps the flat
    // single-rack network; any other value installs a topology section.
    let rack_size = parse_num(flags, "rack-size", 0usize)?;
    let oversub = parse_num(flags, "oversub", 1.0f64)?;
    if oversub < 1.0 {
        return Err("--oversub must be >= 1".into());
    }
    if rack_size > 0 || oversub > 1.0 {
        let mut spec = TopologySpec::from_training(&training);
        if rack_size > 0 {
            spec.machines_per_rack = Some(rack_size);
        }
        if oversub > 1.0 {
            spec = spec.oversubscription(oversub);
        }
        training.topology = Some(spec);
    }
    Ok(ExperimentConfig {
        dataset,
        machines: parse_num(flags, "machines", 2usize)?,
        devices_per_machine: parse_num(flags, "devices", 2usize)?,
        method: method_from(flags)?,
        training,
        seed: parse_num(flags, "seed", 42u64)?,
    })
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let cfg = experiment_from(flags)?;
    eprintln!(
        "running {} on {} ({} devices, {} epochs)...",
        cfg.method,
        cfg.dataset.name,
        cfg.num_devices(),
        cfg.training.epochs
    );
    let (r, profile) = adaqp::run_experiment_profiled(&cfg).map_err(|e| e.to_string())?;
    if cfg.training.sanitize || tensor::san::enabled() {
        // run_experiment fails on violations, so reaching here means clean.
        let rep = tensor::san::report();
        eprintln!(
            "sanitizer:    clean ({} kernel launches, {} adversarial schedules)",
            rep.kernels_checked, rep.schedules_checked
        );
    }
    if let Some(log) = &r.telemetry {
        if let Some(path) = flags.get("trace") {
            log.write_chrome_trace(path).map_err(|e| e.to_string())?;
            eprintln!("wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)");
        }
        if let Some(path) = flags.get("events") {
            log.write_jsonl(path).map_err(|e| e.to_string())?;
            eprintln!("wrote {} telemetry events to {path}", log.num_events());
        }
    }
    if let Some(p) = &profile {
        if let Some(path) = flags.get("critical-path") {
            let json = serde_json::to_string_pretty(&p.report).map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote critical-path report ({} segments) to {path}",
                p.report.segments.len()
            );
        }
        if let Some(path) = flags.get("flow-trace") {
            let trace = obs::critpath::chrome_trace_flow(&p.flight);
            std::fs::write(path, trace).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote causal flow trace ({} flight events) to {path} \
                 (open in Perfetto or chrome://tracing)",
                p.flight.num_events()
            );
        }
    }
    if let (Some(snap), Some(path)) = (&r.metrics, flags.get("metrics")) {
        // The snapshot gains a regress-exempt `_meta` block describing the
        // run environment; `adaqp-regress` skips `_`-prefixed keys, so this
        // never trips a numeric gate.
        let mut doc = match serde_json::to_value(snap) {
            serde_json::Value::Object(m) => m,
            // A struct snapshot always serializes to an object.
            other => return Err(format!("snapshot serialized to a non-object: {other:?}")),
        };
        doc.insert("_meta".to_string(), run_meta(&cfg));
        let json = serde_json::to_string_pretty(&serde_json::Value::Object(doc))
            .map_err(|e| e.to_string())?;
        std::fs::write(format!("{path}.json"), json).map_err(|e| e.to_string())?;
        std::fs::write(format!("{path}.prom"), snap.to_prometheus()).map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} metric series to {path}.json and {path}.prom",
            snap.metrics.len()
        );
    }
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&r).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if let Some(p) = &profile {
        println!("{}", p.report.summary());
    }
    println!("method:       {}", r.method);
    println!("dataset:      {} ({})", r.dataset, r.partition);
    println!("best val:     {:.2}%", r.best_val * 100.0);
    println!("test @ best:  {:.2}%", r.test_at_best * 100.0);
    println!("throughput:   {:.2} epochs/s (simulated)", r.throughput);
    println!(
        "wall-clock:   {:.3}s (simulated, incl. assignment)",
        r.total_sim_seconds
    );
    println!("comm share:   {:.1}%", r.comm_fraction() * 100.0);
    println!("data moved:   {:.2} MB", r.total_bytes as f64 / 1e6);
    Ok(())
}

/// The regress-exempt `_meta` block attached to `--metrics` JSON exports:
/// run-environment facts (backend, thread count, sanitizer, streaming
/// codec, git revision) that describe *how* the numbers were produced
/// without ever being compared as numbers.
fn run_meta(cfg: &ExperimentConfig) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    m.insert("backend".to_string(), serde_json::to_value("event"));
    m.insert(
        "threads".to_string(),
        serde_json::to_value(&cfg.training.threads),
    );
    m.insert(
        "adaqp_san".to_string(),
        serde_json::Value::Bool(cfg.training.sanitize || tensor::san::enabled()),
    );
    m.insert(
        "stream_quant".to_string(),
        serde_json::Value::Bool(cfg.training.stream_quant),
    );
    m.insert(
        "git_rev".to_string(),
        git_rev().map_or(serde_json::Value::Null, serde_json::Value::String),
    );
    serde_json::Value::Object(m)
}

/// Best-effort short git revision of the working tree; `None` outside a
/// checkout or without a `git` binary.
fn git_rev() -> Option<String> {
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

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    let base = experiment_from(flags)?;
    let methods = [
        Method::Vanilla,
        Method::PipeGcn,
        Method::Sancus,
        Method::AdaQp,
    ];
    let mut runs = Vec::new();
    for method in methods {
        let mut cfg = base.clone();
        cfg.method = method;
        eprintln!("running {method}...");
        runs.push(adaqp::run_experiment(&cfg).map_err(|e| e.to_string())?);
    }
    if flags.contains_key("markdown") {
        println!("{}", adaqp::report::markdown_table(&runs));
    } else {
        for run in &runs {
            println!("{}", adaqp::report::summary(run));
        }
    }
    Ok(())
}

fn cmd_tune(flags: &Flags) -> Result<(), String> {
    let mut base = experiment_from(flags)?;
    base.method = Method::AdaQp;
    let grid = adaqp::tune::TuneGrid::default();
    eprintln!(
        "grid-searching {} combinations on {}...",
        grid.len(),
        base.dataset.name
    );
    let report = adaqp::tune::grid_search(&base, &grid, 0.002).map_err(|e| e.to_string())?;
    println!(
        "{:>8} {:>8} {:>8} {:>12} {:>14}",
        "group", "lambda", "period", "val acc", "throughput"
    );
    for (i, t) in report.trials.iter().enumerate() {
        let marker = if i == report.best { "  <= best" } else { "" };
        println!(
            "{:>8} {:>8.2} {:>8} {:>11.2}% {:>10.2} ep/s{marker}",
            t.group_size,
            t.lambda,
            t.period,
            t.val_score * 100.0,
            t.throughput
        );
    }
    Ok(())
}

fn cmd_partition(flags: &Flags) -> Result<(), String> {
    let spec = dataset_from(flags)?;
    let parts: usize = parse_num(flags, "parts", 4)?;
    let seed: u64 = parse_num(flags, "seed", 42)?;
    let ds = spec.generate(seed);
    let mut rng = tensor::Rng::seed_from(seed ^ 0x5EED_CAFE);
    let partition = graph::partition::metis_like(&ds.graph, parts, &mut rng);
    let stats = graph::stats::remote_neighbor_stats(&ds.graph, &partition);
    println!("dataset:           {} ({} nodes)", ds.name, ds.num_nodes());
    println!("parts:             {parts}");
    println!(
        "edge cut:          {}",
        graph::stats::edge_cut(&ds.graph, &partition)
    );
    println!("imbalance:         {:.3}", partition.imbalance());
    println!(
        "remote ratio:      {:.1}%",
        stats.remote_neighbor_ratio * 100.0
    );
    println!(
        "marginal fraction: {:.1}%",
        stats.marginal_node_fraction * 100.0
    );
    let b = graph::stats::BoundaryInfo::build(&ds.graph, &partition);
    println!("messages per layer, by pair:");
    for p in 0..parts {
        let row: Vec<String> = (0..parts)
            .map(|q| format!("{:>7}", b.count(p, q)))
            .collect();
        println!("  {p}: {}", row.join(" "));
    }
    Ok(())
}

// Infallible, but keeps the signature uniform with the other subcommands.
#[allow(clippy::unnecessary_wraps)]
fn cmd_datasets() -> Result<(), String> {
    println!(
        "{:<22} {:>8} {:>9} {:>6} {:>8} {:>12}",
        "name", "nodes", "edges~", "feat", "classes", "task"
    );
    for spec in DatasetSpec::paper_suite() {
        let edges =
            (spec.num_nodes as f64 * (spec.avg_in_degree + spec.avg_out_degree) / 2.0) as u64;
        println!(
            "{:<22} {:>8} {:>9} {:>6} {:>8} {:>12}",
            spec.name,
            spec.num_nodes,
            edges,
            spec.feature_dim,
            spec.num_classes,
            match spec.task {
                graph::Task::SingleLabel => "single-label",
                graph::Task::MultiLabel => "multi-label",
            }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(pairs: &[&str]) -> Flags {
        parse_flags(&pairs.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("valid flags")
    }

    #[test]
    fn parse_flags_values_and_switches() {
        let f = flags_of(&["--dataset", "tiny", "--sage", "--epochs", "7"]);
        assert_eq!(f.get("dataset").map(String::as_str), Some("tiny"));
        assert_eq!(f.get("sage").map(String::as_str), Some("true"));
        assert_eq!(f.get("epochs").map(String::as_str), Some("7"));
    }

    #[test]
    fn parse_flags_rejects_bare_values() {
        let args = vec!["oops".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_rejects_missing_value() {
        let args = vec!["--epochs".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn experiment_from_defaults() {
        let f = flags_of(&["--dataset", "tiny"]);
        let cfg = experiment_from(&f).expect("valid config");
        assert_eq!(cfg.dataset.name, "tiny");
        assert_eq!(cfg.method, Method::AdaQp);
        assert_eq!(cfg.num_devices(), 4);
        assert_eq!(cfg.training.epochs, 40);
        assert!(!cfg.training.use_sage);
    }

    #[test]
    fn experiment_from_overrides() {
        let f = flags_of(&[
            "--dataset",
            "yelp-sim",
            "--method",
            "pipegcn",
            "--machines",
            "1",
            "--devices",
            "3",
            "--sage",
            "--epochs",
            "5",
            "--no-overlap",
            "--scale",
            "0.1",
            "--lambda",
            "0.25",
        ]);
        let cfg = experiment_from(&f).expect("valid config");
        assert_eq!(cfg.method, Method::PipeGcn);
        assert_eq!(cfg.num_devices(), 3);
        assert!(cfg.training.use_sage);
        assert!(cfg.training.disable_overlap);
        assert_eq!(cfg.training.lambda, 0.25);
        assert_eq!(cfg.dataset.num_nodes, 1000); // 10_000 * 0.1
    }

    #[test]
    fn metrics_flag_takes_a_path_and_enables_recording() {
        let f = flags_of(&["--dataset", "tiny", "--metrics", "out/metrics"]);
        assert_eq!(f.get("metrics").map(String::as_str), Some("out/metrics"));
        let cfg = experiment_from(&f).expect("valid config");
        assert!(cfg.training.metrics);
        assert!(!cfg.training.telemetry);
        let off = experiment_from(&flags_of(&["--dataset", "tiny"])).expect("valid config");
        assert!(!off.training.metrics);
    }

    #[test]
    fn profile_exports_imply_profiling() {
        let f = flags_of(&["--dataset", "tiny", "--critical-path", "out/cp.json"]);
        let cfg = experiment_from(&f).expect("valid config");
        assert!(cfg.training.profile);
        let f = flags_of(&["--dataset", "tiny", "--flow-trace", "out/flow.json"]);
        let cfg = experiment_from(&f).expect("valid config");
        assert!(cfg.training.profile);
        let off = experiment_from(&flags_of(&["--dataset", "tiny"])).expect("valid config");
        assert!(!off.training.profile);
    }

    #[test]
    fn run_meta_names_the_environment_without_numbers_to_regress() {
        let f = flags_of(&["--dataset", "tiny", "--stream-quant", "--method", "adaqp"]);
        let cfg = experiment_from(&f).expect("valid config");
        let serde_json::Value::Object(meta) = run_meta(&cfg) else {
            panic!("meta must be an object");
        };
        assert_eq!(meta.get("backend"), Some(&serde_json::to_value("event")));
        assert_eq!(
            meta.get("stream_quant"),
            Some(&serde_json::Value::Bool(true))
        );
        assert!(meta.get("threads").is_some());
        assert!(meta.get("adaqp_san").is_some());
        // Present even when unknown (null outside a git checkout).
        assert!(meta.get("git_rev").is_some());
    }

    #[test]
    fn san_switch_enables_the_sanitizer() {
        let f = flags_of(&["--dataset", "tiny", "--san"]);
        let cfg = experiment_from(&f).expect("valid config");
        assert!(cfg.training.sanitize);
        let off = experiment_from(&flags_of(&["--dataset", "tiny"])).expect("valid config");
        assert!(!off.training.sanitize);
    }

    #[test]
    fn rack_and_oversub_flags_install_a_topology_section() {
        let f = flags_of(&["--dataset", "tiny", "--machines", "8", "--rack-size", "2"]);
        let cfg = experiment_from(&f).expect("valid config");
        let spec = cfg.training.topology.as_ref().expect("section installed");
        assert_eq!(spec.machines_per_rack, Some(2));
        assert_eq!(spec.spine_bw, None);
        assert_eq!(cfg.network_topology().num_racks(), 4);

        let f = flags_of(&["--dataset", "tiny", "--oversub", "4"]);
        let cfg = experiment_from(&f).expect("valid config");
        let spec = cfg.training.topology.as_ref().expect("section installed");
        assert_eq!(spec.spine_bw, Some(spec.inter_bw() / 4.0));

        let off = experiment_from(&flags_of(&["--dataset", "tiny"])).expect("valid config");
        assert!(off.training.topology.is_none());

        let bad = flags_of(&["--dataset", "tiny", "--oversub", "0.5"]);
        assert!(experiment_from(&bad).is_err());
    }

    #[test]
    fn bad_method_and_dataset_are_reported() {
        let f = flags_of(&["--dataset", "nope"]);
        assert!(dataset_from(&f).is_err());
        let f = flags_of(&["--dataset", "tiny", "--method", "sgd"]);
        assert!(experiment_from(&f).is_err());
    }

    #[test]
    fn negative_scale_rejected() {
        let f = flags_of(&["--dataset", "tiny", "--scale", "-2"]);
        assert!(dataset_from(&f).is_err());
    }
}
