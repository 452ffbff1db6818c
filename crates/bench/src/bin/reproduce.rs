//! Reproduces the paper's tables and figures (`bench::tables::ALL`), or
//! those `--only a,b,..` names, over one `bench::Runs` cache: a run two
//! tables read is run once. Each table prints to stdout and its host time
//! to stderr; its JSON lands, with a `_meta` block, in `--out <dir>`
//! (default: the checkout's `results/`, which holds the committed files).
//!
//! `ADAQP_SCALE=0.35 ADAQP_SEEDS=1 ADAQP_EPOCHS=40 reproduce --only table4_main`
//! `ADAQP_SCALE=0.02 reproduce --only table3_datasets --out /tmp/results`

use bench::tables::{Table, ALL};
use bench::{Runs, Setup};
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut names: Vec<String> = ALL.iter().map(|t| t.0.to_string()).collect();
    let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--only", Some(v)) => names = v.split(',').map(String::from).collect(),
            ("--out", Some(v)) => out = PathBuf::from(v),
            _ => return usage(&format!("unexpected argument `{flag}`")),
        }
    }
    if let Some(bad) = names.iter().find(|n| !ALL.iter().any(|t| t.0 == *n)) {
        let known: Vec<&str> = ALL.iter().map(|t| t.0).collect();
        return usage(&format!(
            "unknown table `{bad}` (known: {})",
            known.join(", ")
        ));
    }
    let selected: Vec<&Table> = ALL
        .iter()
        .filter(|t| names.iter().any(|n| n == t.0))
        .collect();
    let setup = match Setup::from_env() {
        Ok(setup) => setup,
        Err(e) => return usage(&e),
    };
    let mut runs = Runs::new(setup);
    let ((), host) = comm::timing::measure(|| {
        for (name, table) in &selected {
            let (files, host) = comm::timing::measure(|| table(&mut runs));
            eprintln!("[{name}: HostSeconds {:.3}]", host.secs());
            for (file, json) in files {
                save(&out, file, json, &setup);
            }
            println!();
        }
    });
    let (tables, distinct, secs) = (selected.len(), runs.distinct(), host.secs());
    eprintln!("[{tables} table(s), {distinct} distinct run(s): HostSeconds {secs:.3}]");
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}");
    eprintln!(
        "usage: [ADAQP_SCALE=<x>] [ADAQP_SEEDS=<n>] [ADAQP_EPOCHS=<n>] \
         reproduce [--only <table>[,<table>...]] [--out <dir>]"
    );
    ExitCode::FAILURE
}

/// Writes `json` to `<dir>/<file>.json` with `setup`'s `_meta` block: an
/// array becomes the `rows` of an object, an object keeps its keys. Traces
/// are written compact, the rest pretty-printed.
fn save(dir: &Path, file: &str, json: Value, setup: &Setup) {
    let mut doc = match json {
        Value::Object(fields) => fields,
        rows => Map::from_iter([("rows".to_string(), rows)]),
    };
    doc.insert("_meta".into(), setup.meta());
    let doc = Value::Object(doc);
    let text = if file.ends_with("_trace") {
        serde_json::to_string(&doc)
    } else {
        serde_json::to_string_pretty(&doc)
    }
    .expect("a JSON value serialises");
    let path = dir.join(format!("{file}.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}
