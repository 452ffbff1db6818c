//! `adaqp` — command-line front end for the reproduction.
//!
//! ```text
//! adaqp run   --dataset ogbn-products-sim --method adaqp --machines 2 --devices 2 [--epochs N] ...
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
            [--rack-size N] [--oversub X] [--scale X] [--json] [--telemetry]
            [--trace <file.json>] [--events <file.jsonl>] [--metrics <path>]
            [--san] [--critical-path <file.json>]
  adaqp compare --dataset <name> [--machines N] [--devices N] [--epochs N]
            [--rack-size N] [--oversub X] [--scale X] [--markdown]
  adaqp partition --dataset <name> [--parts N] [--scale X] [--seed N]
  adaqp datasets
  adaqp help

METHODS: vanilla | adaqp | adaqp-uniform | pipegcn | sancus
DATASETS: reddit-sim | yelp-sim | ogbn-products-sim | amazon-products-sim | tiny";

/// Parsed `--key value` / `--switch` flags.
type Flags = BTreeMap<String, String>;

/// The `--key value` flags [`USAGE`] lists.
const VALUE_FLAGS: &[&str] = &[
    "dataset",
    "method",
    "machines",
    "devices",
    "epochs",
    "hidden",
    "seed",
    "lambda",
    "group-size",
    "period",
    "rack-size",
    "oversub",
    "scale",
    "trace",
    "events",
    "metrics",
    "critical-path",
    "parts",
];

/// The `--switch` flags [`USAGE`] lists.
const SWITCHES: &[&str] = &[
    "sage",
    "no-overlap",
    "error-feedback",
    "json",
    "markdown",
    "telemetry",
    "san",
];

/// Parses `args` into flags, refusing a flag [`USAGE`] does not list: a
/// misspelt one would otherwise be ignored, and swallow the next argument
/// as its value.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
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
        } else if !VALUE_FLAGS.contains(&key) {
            return Err(format!("unknown flag `--{key}`"));
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
    if !scale.is_finite() || scale <= 0.0 {
        return Err(format!("--scale must be finite and positive (got {scale})"));
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
    // Recording is implied by asking for an export.
    training.telemetry = flags.contains_key("telemetry")
        || flags.contains_key("trace")
        || flags.contains_key("events");
    training.metrics = flags.contains_key("metrics");
    training.sanitize = flags.contains_key("san");
    // Profiling, like telemetry, is implied by asking for an export.
    training.profile = flags.contains_key("critical-path");
    // `--rack-size 0` (or leaving both flags off) keeps the paper-preset
    // single-rack network; any other value installs a topology section.
    let rack_size = parse_num(flags, "rack-size", 0usize)?;
    let oversub = parse_num(flags, "oversub", 1.0f64)?;
    if !oversub.is_finite() || oversub < 1.0 {
        return Err(format!("--oversub must be finite and >= 1 (got {oversub})"));
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
/// run-environment facts (backend, thread count, sanitizer, git revision)
/// that describe *how* the numbers were produced without ever being
/// compared as numbers.
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
        "git_rev".to_string(),
        adaqp::report::git_rev().map_or(serde_json::Value::Null, serde_json::Value::String),
    );
    serde_json::Value::Object(m)
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

fn cmd_partition(flags: &Flags) -> Result<(), String> {
    let spec = dataset_from(flags)?;
    let parts: usize = parse_num(flags, "parts", 4)?;
    let seed: u64 = parse_num(flags, "seed", 42)?;
    let ds = spec.generate(seed);
    let partition = adaqp::partition_graph(&ds.graph, parts, seed)
        .map_err(|e| format!("--parts {parts}: {e}"))?;
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
    fn partition_reports_a_bad_part_count() {
        for parts in ["0", "100000"] {
            let flags = flags_of(&["--dataset", "tiny", "--parts", parts]);
            let err = cmd_partition(&flags).expect_err(parts);
            assert!(err.starts_with(&format!("--parts {parts}: ")), "{err}");
        }
    }

    #[test]
    fn parse_flags_rejects_unknown_flags_by_name() {
        for flag in [
            "--epoch",
            "--grouped-wire",
            "--stream-quant",
            "--flow-trace",
        ] {
            let args: Vec<String> = ["--dataset", "tiny", flag, "5"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = parse_flags(&args).expect_err(flag);
            assert!(err.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn every_flag_in_usage_parses() {
        let listed: std::collections::BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        // Nothing parses that USAGE does not list, and the reverse.
        assert_eq!(listed.len(), VALUE_FLAGS.len() + SWITCHES.len());
        for key in listed {
            let mut args = vec![format!("--{key}")];
            if VALUE_FLAGS.contains(&key) {
                args.push("1".to_string());
            }
            let flags = parse_flags(&args).unwrap_or_else(|e| panic!("--{key}: {e}"));
            assert!(flags.contains_key(key), "--{key}");
        }
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
        let off = experiment_from(&flags_of(&["--dataset", "tiny"])).expect("valid config");
        assert!(!off.training.profile);
    }

    #[test]
    fn run_meta_names_the_environment_without_numbers_to_regress() {
        let f = flags_of(&["--dataset", "tiny", "--method", "adaqp"]);
        let cfg = experiment_from(&f).expect("valid config");
        let serde_json::Value::Object(meta) = run_meta(&cfg) else {
            panic!("meta must be an object");
        };
        assert_eq!(meta.get("backend"), Some(&serde_json::to_value("event")));
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

        // NaN compares false against 1, so it must be refused by name, not
        // run as a flat network.
        for raw in ["0.5", "NaN", "nan", "inf", "-inf"] {
            let bad = flags_of(&["--dataset", "tiny", "--oversub", raw]);
            let err = experiment_from(&bad).expect_err(raw);
            assert!(err.contains("--oversub"), "{raw}: {err}");
        }
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
        // Non-finite scales too: NaN would shrink the graph to one node per
        // class, inf would ask for `usize::MAX` nodes.
        for raw in ["-2", "0", "NaN", "inf", "-inf"] {
            let f = flags_of(&["--dataset", "tiny", "--scale", raw]);
            let err = dataset_from(&f).expect_err(raw);
            assert!(err.contains("--scale"), "{raw}: {err}");
        }
    }
}
