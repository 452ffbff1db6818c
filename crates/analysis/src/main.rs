//! `adaqp-lint` CLI. See the library docs for the rule inventory.

use analysis::{explain_rule, find_root, scan_path, scan_workspace, to_json, Finding};
use std::path::PathBuf;

const USAGE: &str = "\
adaqp-lint: workspace static analysis enforcing simulation invariants

USAGE:
    cargo run -p analysis --release -- [--json] --workspace
    cargo run -p analysis --release -- [--json] [PATH.rs | PATH.toml]...
    cargo run -p analysis --release -- --explain <rule>

Rules: dep-hygiene, collective-divergence (rustc and clippy carry the
rest; see clippy.toml and DESIGN.md section 7).
Suppress with `// lint:allow(<rule>): <reason>` on the offending line;
stale and reason-less directives are themselves violations.
--explain <rule> prints the rule's rationale with a minimal bad/good pair.
--json prints findings as a JSON array on stdout (summary on stderr).
Exit status: 0 clean, 1 violations found, 2 usage or I/O error.";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return if args.is_empty() { 2 } else { 0 };
    }
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        let Some(rule) = args.get(pos + 1) else {
            eprintln!("--explain needs a rule name\n{USAGE}");
            return 2;
        };
        let Some(doc) = explain_rule(rule) else {
            eprintln!(
                "unknown rule `{rule}` (known: {})",
                analysis::RULE_NAMES.join(", ")
            );
            return 2;
        };
        println!("{}", analysis::explain::render(doc));
        return 0;
    }
    let json = args.iter().any(|a| a == "--json");
    let mut findings: Vec<Finding> = Vec::new();
    let mut scanned_workspace = false;
    let mut scanned_anything = false;
    for arg in &args {
        let result = if arg == "--json" {
            continue;
        } else if arg == "--workspace" {
            scanned_workspace = true;
            find_root().and_then(|root| scan_workspace(&root))
        } else if arg.starts_with('-') {
            eprintln!("unknown flag `{arg}`\n{USAGE}");
            return 2;
        } else {
            scan_path(&PathBuf::from(arg))
        };
        scanned_anything = true;
        match result {
            Ok(f) => findings.extend(f),
            Err(e) => {
                eprintln!("adaqp-lint: {e}");
                return 2;
            }
        }
    }
    if !scanned_anything {
        eprintln!("nothing to scan\n{USAGE}");
        return 2;
    }
    if json {
        print!("{}", to_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
    }
    if findings.is_empty() {
        let scope = if scanned_workspace {
            "workspace"
        } else {
            "inputs"
        };
        eprintln!("adaqp-lint: {scope} clean (0 violations)");
        0
    } else {
        eprintln!("adaqp-lint: {} violation(s)", findings.len());
        1
    }
}
