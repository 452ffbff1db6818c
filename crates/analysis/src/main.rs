//! `adaqp-lint` CLI. See the library docs for the rule inventory.

use analysis::{explain_rule, find_root, scan_path, scan_workspace, to_json, Finding};
use std::path::PathBuf;

const USAGE: &str = "\
adaqp-lint: workspace static analysis enforcing simulation invariants

USAGE:
    cargo run -p analysis --release -- [--json] --workspace
    cargo run -p analysis --release -- [--json] [PATH.rs | PATH.toml]...
    cargo run -p analysis --release -- --explain <rule>

Rules: dep-hygiene, par-disjoint, unit-confusion, no-host-block,
collective-divergence (clippy carries the rest; see clippy.toml and
DESIGN.md section 7).
Suppress with `// lint:allow(<rule>): <reason>` on the offending line;
stale and reason-less directives are themselves violations.
--explain <rule> prints the rule's rationale with a minimal bad/good pair.
--json prints findings as a JSON array on stdout (summary on stderr).
--baseline <file> ratchets against a committed --json artifact: findings
whose stable id appears in the baseline are grandfathered (reported but
not failing); only *new* findings exit 1.
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
    let baseline_ids = match load_baseline(&args) {
        Ok(ids) => ids,
        Err(code) => return code,
    };
    let mut findings: Vec<Finding> = Vec::new();
    let mut scanned_workspace = false;
    let mut scanned_anything = false;
    let mut skip_next = false;
    for arg in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        let result = if arg == "--json" {
            continue;
        } else if arg == "--baseline" {
            skip_next = true;
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
    }
    let (grandfathered, new): (Vec<&Finding>, Vec<&Finding>) = findings
        .iter()
        .partition(|f| baseline_ids.as_ref().is_some_and(|ids| ids.contains(&f.id)));
    if !json {
        for f in &grandfathered {
            println!("{f}  (baseline)");
        }
        for f in &new {
            println!("{f}");
        }
    }
    if new.is_empty() {
        let scope = if scanned_workspace {
            "workspace"
        } else {
            "inputs"
        };
        if grandfathered.is_empty() {
            eprintln!("adaqp-lint: {scope} clean (0 violations)");
        } else {
            eprintln!(
                "adaqp-lint: {scope} clean ({} grandfathered via baseline, 0 new)",
                grandfathered.len()
            );
        }
        0
    } else {
        eprintln!(
            "adaqp-lint: {} new violation(s){}",
            new.len(),
            if grandfathered.is_empty() {
                String::new()
            } else {
                format!(" ({} grandfathered)", grandfathered.len())
            }
        );
        1
    }
}

/// Reads `--baseline <file>` if present and extracts the `"id"` values from
/// the committed `--json` artifact. Returns `None` when no baseline was
/// requested; `Err` carries the exit code for usage/IO failures.
fn load_baseline(args: &[String]) -> Result<Option<std::collections::BTreeSet<String>>, i32> {
    let Some(pos) = args.iter().position(|a| a == "--baseline") else {
        return Ok(None);
    };
    let Some(path) = args.get(pos + 1) else {
        eprintln!("--baseline needs a file path\n{USAGE}");
        return Err(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("adaqp-lint: {path}: {e}");
            return Err(2);
        }
    };
    let mut ids = std::collections::BTreeSet::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find("\"id\": \"") {
        rest = &rest[at + 7..];
        if let Some(end) = rest.find('"') {
            ids.insert(rest[..end].to_string());
            rest = &rest[end..];
        }
    }
    Ok(Some(ids))
}
