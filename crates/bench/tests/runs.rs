//! The run cache: a config is run once however many tables ask for it, a
//! cached run is the run `adaqp::run_experiment` returns, and the tables
//! that share Table 4's configs read Table 4's runs. A malformed setup
//! variable stops `reproduce` before any table runs, and `--out` keeps its
//! files out of the checkout's `results/`.

use adaqp::Method;
use bench::tables::{self, Files};
use bench::{Runs, Setup};
use graph::DatasetSpec;
use std::rc::Rc;

/// Small enough that Table 4's 48 configs train in seconds unoptimised.
const TINY: Setup = Setup {
    scale: 0.01,
    seeds: 1,
    epochs: 1,
};

fn rows(files: &Files) -> &[serde_json::Value] {
    files[0].1.as_array().expect("a table's rows")
}

#[test]
fn a_config_asked_twice_runs_once_and_is_the_fresh_run() {
    let mut runs = Runs::new(TINY);
    let cfg = TINY.experiment(DatasetSpec::tiny(), 1, 2, Method::Vanilla, false, 7);
    let first = runs.run(&cfg);
    let second = runs.run(&cfg);
    assert!(Rc::ptr_eq(&first, &second));
    assert_eq!(runs.distinct(), 1);
    let fresh = adaqp::run_experiment(&cfg).expect("valid config");
    assert_eq!(
        serde_json::to_string(&first.result).expect("serialises"),
        serde_json::to_string(&fresh).expect("serialises")
    );
}

#[test]
fn each_distinct_config_runs_once_across_the_tables() {
    let mut runs = Runs::new(TINY);
    // Distinct configs each table adds to those before it: Table 4's grid
    // (4 datasets x 2 settings x 2 models x 3 methods); Table 5 and Fig. 9
    // none; Table 6 its 4 uniform rows; Fig. 10 its 8 recorded runs; Fig. 11
    // its 13 points less the 3 defaults (one Table 4 run); the ablation its
    // no-overlap and error-feedback rows.
    let want = [48, 0, 4, 0, 8, 10, 2];
    let names = "table4_main table5_wallclock table6_uniform_vs_adaptive fig9_convergence \
                 fig10_breakdown fig11_sensitivity ablation_design";
    let mut files = Vec::new();
    for (name, added) in names.split_whitespace().zip(want) {
        let before = runs.distinct();
        let table = tables::ALL.iter().find(|t| t.0 == name).expect("a table");
        files.push((table.1)(&mut runs));
        assert_eq!(runs.distinct() - before, added, "{name}");
    }
    assert_eq!(runs.distinct(), want.iter().sum::<usize>());

    // Table 5's rows are Table 4's wall-clock, bit for bit.
    let (t4, t5) = (rows(&files[0]), rows(&files[1]));
    assert_eq!(t4.len(), t5.len());
    for (a, b) in t4.iter().zip(t5) {
        for key in ["dataset", "setting", "model", "method"] {
            assert_eq!(a[key], b[key]);
        }
        let wall = |r: &serde_json::Value| r["wallclock_s"].as_f64().map(f64::to_bits);
        assert_eq!(wall(a), wall(b), "{a:?}");
    }
}

#[test]
fn a_malformed_setup_variable_exits_1_naming_it() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .env("ADAQP_SCALE", "0,02")
        .output()
        .expect("reproduce starts");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ADAQP_SCALE=\"0,02\""), "{stderr}");
    assert!(!stderr.contains("HostSeconds"), "a table ran: {stderr}");
}

/// Every file directly under the checkout's `results/`, with its bytes.
fn committed_results() -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("the checkout has results/")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.is_file())
        .map(|p| {
            let bytes = std::fs::read(&p).expect("readable");
            (p, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn out_writes_there_and_leaves_the_committed_results_alone() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("reproduce_out");
    let _ = std::fs::remove_dir_all(&out);
    let before = committed_results();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--only", "table3_datasets", "--out"])
        .arg(&out)
        .env("ADAQP_SCALE", "0.01")
        .output()
        .expect("reproduce starts");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let written = std::fs::read_to_string(out.join("table3_datasets.json")).expect("written");
    let doc: serde_json::Value = serde_json::from_str(&written).expect("JSON");
    assert_eq!(doc["_meta"]["scale"].as_f64(), Some(0.01));
    assert_eq!(committed_results(), before);
}
