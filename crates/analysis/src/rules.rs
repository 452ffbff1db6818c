//! The rule engine: one rule over `Cargo.toml` text and one over the
//! token stream, file classification, `#[cfg(test)]` exemption and
//! `lint:allow` suppression handling. What rustc and clippy can check —
//! panics, prints, truncating casts, `HashMap`/`HashSet`, host clocks, host
//! blocking, disjoint parallel writes and host seconds kept off the
//! simulated clock — is left to them (DESIGN.md §7).
//!
//! | rule        | what it guards                                              |
//! |-------------|-------------------------------------------------------------|
//! | `dep-hygiene`| crate deps route through `[workspace.dependencies]`        |
//! | `collective-divergence` | no rank-dependent branch changes a device body's collectives |
//!
//! `collective-divergence` reads structure, not tokens alone:
//! [`crate::protocol`] extracts the awaited-collective *skeleton* of each
//! `async` device body and checks its rank-dependent branches.
//!
//! A violation is suppressed only by `// lint:allow(<rule>): <reason>` on
//! the offending line (or, for multi-line expressions, a standalone comment
//! on the line directly above). The reason is mandatory: an allow without
//! one is itself reported — and so is an allow that suppresses nothing
//! (`stale-allow`), so suppressions cannot outlive the code they excused.

use crate::lexer::{lex, Tok, TokKind};
use crate::protocol;

/// Names of all rules, in reporting order.
pub const RULE_NAMES: [&str; 2] = ["dep-hygiene", "collective-divergence"];

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path as reported (workspace-relative for `--workspace` scans).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How a `.rs` file is treated by the per-file rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`crates/<dir>/src`, excluding `src/bin` and
    /// `src/main.rs`), or an explicitly passed scratch/fixture file: every
    /// rule applies.
    Library,
    /// Bins, tests, benches and examples: no Rust rule, only `lint:allow`
    /// hygiene (the rules guard the code that ships).
    Other,
}

impl FileClass {
    /// Classifies a workspace-relative, `/`-separated path.
    pub fn classify(rel: &str) -> Option<Self> {
        if rel.starts_with("shims/") || rel.contains("/fixtures/") {
            return None; // outside the invariant boundary / lint test data
        }
        if rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/")
            || rel.starts_with("tests/")
            || rel.starts_with("examples/")
        {
            return Some(FileClass::Other);
        }
        let in_crate = rel.strip_prefix("crates/")?.split_once('/')?.1;
        if in_crate.starts_with("src/bin/") || in_crate == "src/main.rs" {
            Some(FileClass::Other)
        } else if in_crate.starts_with("src/") {
            Some(FileClass::Library)
        } else {
            None
        }
    }
}

/// A `lint:allow` directive parsed out of a comment.
#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    line: u32,
    has_reason: bool,
}

fn collect_allows(toks: &[Tok]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in toks.iter().filter(|t| t.kind == TokKind::Comment) {
        collect_allows_in_text(&t.text, t.line, &mut allows);
    }
    allows
}

/// Parses every `lint:allow(<rule>): <reason>` occurrence in `text`.
/// Shared with the TOML scanner, where `text` is a `#` comment.
fn collect_allows_in_text(text: &str, line: u32, out: &mut Vec<Allow>) {
    let mut rest = text;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        // Prose *about* the syntax (`lint:allow(<rule>)`) is not a directive.
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            rest = &rest[close + 1..];
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let has_reason = after
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        out.push(Allow {
            rule,
            line,
            has_reason,
        });
        rest = &rest[close + 1..];
    }
}

/// Line ranges (inclusive) covered by `#[cfg(test)]`-gated items, which
/// `collective-divergence` exempts.
pub(crate) fn test_exempt_ranges(code: &[&Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Scan the attribute group for `cfg` + `test` (but not `not(test)`).
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1usize;
        let (mut saw_cfg, mut saw_test, mut saw_not) = (false, false, false);
        while j < code.len() && depth > 0 {
            if code[j].is_punct('[') {
                depth += 1;
            } else if code[j].is_punct(']') {
                depth -= 1;
            } else if code[j].is_ident("cfg") {
                saw_cfg = true;
            } else if code[j].is_ident("test") {
                saw_test = true;
            } else if code[j].is_ident("not") {
                saw_not = true;
            }
            j += 1;
        }
        i = j;
        if !(saw_cfg && saw_test && !saw_not) {
            continue;
        }
        // The gated item: skip any further attributes, then brace-match its
        // body (a `;`-terminated item has no body to exempt).
        let mut k = j;
        while k < code.len() && !code[k].is_punct('{') && !code[k].is_punct(';') {
            k += 1;
        }
        if k < code.len() && code[k].is_punct('{') {
            let mut depth = 1usize;
            let mut m = k + 1;
            while m < code.len() && depth > 0 {
                if code[m].is_punct('{') {
                    depth += 1;
                } else if code[m].is_punct('}') {
                    depth -= 1;
                }
                m += 1;
            }
            let end = code.get(m - 1).map_or(u32::MAX, |t| t.line);
            ranges.push((code[attr_start].line, end));
            i = m;
        }
    }
    ranges
}

/// Scans one Rust source file, returning unsuppressed findings (plus
/// findings for malformed suppressions).
pub fn scan_rust(display_path: &str, class: FileClass, src: &str) -> Vec<Finding> {
    let toks = lex(src);
    let allows = collect_allows(&toks);
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let exempt = test_exempt_ranges(&code);

    let mut raw = Vec::new();
    if class == FileClass::Library {
        protocol::check(display_path, &code, &exempt, &mut raw);
    }

    apply_allows(raw, &allows, display_path)
}

/// Scans one crate manifest for the `dep-hygiene` rule: every dependency
/// must resolve through `[workspace.dependencies]` so the offline shim
/// substitution stays total.
pub fn scan_manifest(display_path: &str, src: &str) -> Vec<Finding> {
    let mut raw = Vec::new();
    let mut allows = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw_line) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw_line.trim();
        if let Some(pos) = line.find('#') {
            collect_allows_in_text(&line[pos..], lineno, &mut allows);
        }
        let code = line.split('#').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        if code.starts_with('[') {
            // `[dependencies.foo]` sub-tables count as dependency entries
            // themselves; plain `[dependencies]` just opens the section.
            let section = code.trim_matches(['[', ']']);
            in_dep_section = section.ends_with("dependencies");
            if in_dep_section && section.contains("dependencies.") {
                raw.push(Finding {
                    file: display_path.to_string(),
                    line: lineno,
                    rule: "dep-hygiene",
                    message: format!(
                        "dependency sub-table `{code}`; use `name = {{ workspace = true }}`"
                    ),
                });
            }
            continue;
        }
        if in_dep_section && code.contains('=') && !code.contains("workspace = true") {
            raw.push(Finding {
                file: display_path.to_string(),
                line: lineno,
                rule: "dep-hygiene",
                message: format!(
                    "dependency `{}` does not use `workspace = true`; all deps must \
                     route through [workspace.dependencies] so the offline shim \
                     substitution stays total",
                    code.split('=').next().unwrap_or(code).trim()
                ),
            });
        }
    }
    apply_allows(raw, &allows, display_path)
}

/// Renders findings as a stable JSON array (one object per finding with
/// `file`/`line`/`rule`/`message`), for the `adaqp-lint --json` CI
/// artifact.
/// Hand-rolled so the analysis crate stays dependency-free; the escaper
/// covers quotes, backslashes and control characters.
pub fn to_json(findings: &[Finding]) -> String {
    fn escape(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("  {\"file\": ");
        escape(&f.file, &mut out);
        out.push_str(&format!(", \"line\": {}, \"rule\": ", f.line));
        escape(f.rule, &mut out);
        out.push_str(", \"message\": ");
        escape(&f.message, &mut out);
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Drops findings covered by a well-formed allow on the same line (or the
/// line directly above, for multi-line expressions); reports reason-less
/// allows as violations in their own right.
fn apply_allows(raw: Vec<Finding>, allows: &[Allow], display_path: &str) -> Vec<Finding> {
    let mut used = vec![false; allows.len()];
    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let mut suppressed = false;
            // Mark *every* matching allow used, not just the first: two
            // directives covering one finding are both live, not one stale.
            for (i, a) in allows.iter().enumerate() {
                if a.rule == f.rule && a.has_reason && (a.line == f.line || a.line + 1 == f.line) {
                    used[i] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();
    for (i, a) in allows.iter().enumerate() {
        if !a.has_reason {
            out.push(Finding {
                file: display_path.to_string(),
                line: a.line,
                rule: "lint-allow",
                message: format!(
                    "lint:allow({}) without a reason; write `// lint:allow({}): <why>`",
                    a.rule, a.rule
                ),
            });
        } else if !RULE_NAMES.contains(&a.rule.as_str()) {
            out.push(Finding {
                file: display_path.to_string(),
                line: a.line,
                rule: "lint-allow",
                message: format!(
                    "lint:allow({}) names an unknown rule (known: {})",
                    a.rule,
                    RULE_NAMES.join(", ")
                ),
            });
        } else if !used[i] {
            out.push(Finding {
                file: display_path.to_string(),
                line: a.line,
                rule: "stale-allow",
                message: format!(
                    "lint:allow({}) suppresses no finding; remove the stale directive",
                    a.rule
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}
