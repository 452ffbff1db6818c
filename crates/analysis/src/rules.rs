//! The rule engine: four rules over the token stream (plus one over
//! `Cargo.toml` text), file classification, `#[cfg(test)]` exemption and
//! `lint:allow` suppression handling. What rustc and clippy can check by
//! type — panics, prints, truncating casts, `HashMap`/`HashSet` and host
//! clocks — is left to them (DESIGN.md §7).
//!
//! | rule        | what it guards                                              |
//! |-------------|-------------------------------------------------------------|
//! | `dep-hygiene`| crate deps route through `[workspace.dependencies]`        |
//! | `par-disjoint` | parallel-kernel closures index output by chunk-derived ids |
//! | `unit-confusion` | host wall-clock and sim-clock seconds never meet        |
//! | `no-host-block` | device code awaits the cluster instead of blocking the host |
//! | `collective-divergence` | no rank-dependent branch changes a device body's collectives |
//!
//! `par-disjoint` and `unit-confusion` are *scope-aware*: they consume the brace-tree pass in
//! [`crate::scopes`] instead of the flat token stream, so derivation and
//! unit taint are tracked per function or per closure body.
//! `collective-divergence` goes further: [`crate::protocol`] extracts the
//! awaited-collective *skeleton* of each `async` device body and checks its
//! rank-dependent branches.
//!
//! A violation is suppressed only by `// lint:allow(<rule>): <reason>` on
//! the offending line (or, for multi-line expressions, a standalone comment
//! on the line directly above). The reason is mandatory: an allow without
//! one is itself reported — and so is an allow that suppresses nothing
//! (`stale-allow`), so suppressions cannot outlive the code they excused.

use crate::lexer::{lex, Tok, TokKind};
use crate::protocol;
use crate::scopes;
use std::collections::BTreeSet;

/// Names of all rules, in reporting order.
pub const RULE_NAMES: [&str; 5] = [
    "dep-hygiene",
    "par-disjoint",
    "unit-confusion",
    "no-host-block",
    "collective-divergence",
];

/// Entry points of the deterministic parallel runtime whose closures the
/// `par-disjoint` rule analyzes. Their shared closure convention: the first
/// two flattened parameters are the chunk's row range, everything after is
/// an owned output slice.
const PAR_ENTRYPOINTS: [&str; 3] = ["par_chunks_deterministic", "run_range_tasks", "run_tasks"];

/// Blocking host primitives flagged by `no-host-block` inside device code
/// (`DeviceProgram` impls and `async` bodies) when directly called (followed
/// by `(`). A device must express every wait as an awaited device
/// operation; parking the host thread deadlocks the single-threaded event
/// loop.
const HOST_BLOCK_CALLS: [&str; 6] = [
    "sleep",
    "park",
    "park_timeout",
    "recv_timeout",
    "recv_deadline",
    "wait_timeout",
];

/// Identifiers that never count toward an index expression's derivation
/// status: cast keywords and primitive type names.
const INDEX_NEUTRAL: [&str; 15] = [
    "as", "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
    "f32", "f64",
];

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable content-derived id (see [`assign_ids`]); empty until assigned.
    pub id: String,
    /// Path as reported (workspace-relative for `--workspace` scans).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Assigns stable content-derived ids: FNV-1a over
/// `rule|file|normalized snippet`, where the snippet is the finding's
/// source line with whitespace collapsed, plus an occurrence counter so
/// identical lines in one file stay distinct. Line numbers are deliberately
/// excluded — inserting code above a finding must not churn its id, or the
/// baseline ratchet (`--baseline`) would flag grandfathered findings as
/// new on every unrelated edit.
pub fn assign_ids(findings: &mut [Finding], src: &str) {
    let lines: Vec<&str> = src.lines().collect();
    let mut seen: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    for f in findings {
        let snippet = f
            .line
            .checked_sub(1)
            .and_then(|i| lines.get(i as usize))
            .copied()
            .unwrap_or("");
        let normalized = snippet.split_whitespace().collect::<Vec<_>>().join(" ");
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in f
            .rule
            .bytes()
            .chain([b'|'])
            .chain(f.file.bytes())
            .chain([b'|'])
            .chain(normalized.bytes())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let occurrence = seen.entry(hash).or_insert(0);
        f.id = format!("{hash:016x}-{occurrence}");
        *occurrence += 1;
    }
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
    /// Bins, tests, benches and examples: no token rule, only `lint:allow`
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
/// every token rule exempts.
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

fn in_ranges(line: u32, ranges: &[(u32, u32)]) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
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
        // Rules that key off specific call sites, identifiers or device
        // bodies, so running them in every library crate costs nothing
        // where those never appear.
        par_disjoint(display_path, &code, &exempt, &mut raw);
        unit_confusion(display_path, &code, &exempt, &mut raw);
        no_host_block(display_path, &code, &exempt, &mut raw);
        protocol::check(display_path, &code, &exempt, &mut raw);
    }

    let mut findings = apply_allows(raw, &allows, display_path);
    assign_ids(&mut findings, src);
    findings
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
                    id: String::new(),
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
                id: String::new(),
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
    let mut findings = apply_allows(raw, &allows, display_path);
    assign_ids(&mut findings, src);
    findings
}

/// `SCREAMING_CASE` identifiers are constants: deterministic by definition,
/// so they never change an index expression's derivation status.
fn is_screaming_const(text: &str) -> bool {
    text.chars().any(|c| c.is_ascii_uppercase())
        && text
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
}

/// Collects a closure's parameter identifiers, flattened in source order
/// (tuple patterns contribute each binding; type ascriptions are skipped).
/// `open` indexes the opening `|`; returns the idents and the index of the
/// closing `|` (or `code.len()` on malformed input).
fn closure_params(code: &[&Tok], open: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut in_type = false;
    let mut j = open + 1;
    while j < code.len() {
        let t = code[j];
        if depth == 0 && t.is_punct('|') {
            return (idents, j);
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(':') {
            in_type = true;
        } else if depth == 0 && t.is_punct(',') {
            in_type = false;
        } else if !in_type
            && t.kind == TokKind::Ident
            && !matches!(t.text.as_str(), "mut" | "ref" | "move")
        {
            idents.push(t.text.clone());
        }
        j += 1;
    }
    (idents, code.len())
}

/// True when the identifier at `idx` participates in an index expression's
/// derivation status (not a field/method after `.`, not a cast keyword or
/// primitive, not a constant).
fn counts_for_derivation(code: &[&Tok], idx: usize) -> bool {
    let t = code[idx];
    t.kind == TokKind::Ident
        && (idx == 0 || !code[idx - 1].is_punct('.'))
        && !INDEX_NEUTRAL.contains(&t.text.as_str())
        && !is_screaming_const(&t.text)
}

/// Grows the derived-identifier set over a closure body: `let` bindings
/// whose initializer mentions a derived identifier (or no identifier at all
/// — chunk-relative constants are deterministic), `for`-loop bindings, and
/// inner-closure parameters all become derived.
fn grow_derived(code: &[&Tok], body: (usize, usize), derived: &mut BTreeSet<String>) {
    let mut i = body.0;
    while i < body.1.min(code.len()) {
        let t = code[i];
        if t.is_ident("let") {
            let mut pat = Vec::new();
            let mut j = i + 1;
            let mut in_type = false;
            while j < body.1 && !code[j].is_punct('=') && !code[j].is_punct(';') {
                if code[j].is_punct(':') {
                    in_type = true;
                } else if !in_type
                    && code[j].kind == TokKind::Ident
                    && !matches!(code[j].text.as_str(), "mut" | "ref")
                {
                    pat.push(code[j].text.clone());
                }
                j += 1;
            }
            if j < body.1 && code[j].is_punct('=') {
                // Initializer runs to the `;` (or a block `{`, for `if let`
                // and friends — stop there and leave the block to the walk).
                let mut depth = 0usize;
                let mut k = j + 1;
                let mut mentions_any = false;
                let mut mentions_derived = false;
                while k < body.1 {
                    let it = code[k];
                    if it.is_punct('(') || it.is_punct('[') {
                        depth += 1;
                    } else if it.is_punct(')') || it.is_punct(']') {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && (it.is_punct(';') || it.is_punct('{')) {
                        break;
                    } else if counts_for_derivation(code, k) {
                        mentions_any = true;
                        if derived.contains(&it.text) {
                            mentions_derived = true;
                        }
                    }
                    k += 1;
                }
                if mentions_derived || !mentions_any {
                    derived.extend(pat);
                }
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        if t.is_ident("for") {
            let mut j = i + 1;
            while j < body.1 && !code[j].is_ident("in") && !code[j].is_punct('{') {
                if code[j].kind == TokKind::Ident && !matches!(code[j].text.as_str(), "mut" | "ref")
                {
                    derived.insert(code[j].text.clone());
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        // Inner-closure parameters (e.g. `.for_each(|(j, v)| …)`) are local
        // to one chunk by construction.
        if t.is_punct('|') {
            let starts_closure = i == body.0
                || code[i - 1].is_punct('(')
                || code[i - 1].is_punct(',')
                || code[i - 1].is_punct('=')
                || code[i - 1].is_ident("move");
            if starts_closure {
                let (params, close) = closure_params(code, i);
                derived.extend(params);
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// The `par-disjoint` rule: at every call to a parallel-runtime entry point
/// ([`PAR_ENTRYPOINTS`]) whose closure follows the `(range…, outputs…)`
/// parameter convention, flag any indexing of an output parameter whose
/// index expression mentions identifiers but none *derived from the chunk
/// range* — the token-level shadow of the runtime's disjoint-writes
/// contract (a global or captured index is how chunks come to alias).
fn par_disjoint(display_path: &str, code: &[&Tok], exempt: &[(u32, u32)], raw: &mut Vec<Finding>) {
    for idx in 0..code.len() {
        if !PAR_ENTRYPOINTS.iter().any(|n| code[idx].is_ident(n))
            || !code.get(idx + 1).is_some_and(|t| t.is_punct('('))
            || in_ranges(code[idx].line, exempt)
        {
            continue;
        }
        let close = scopes::matching(code, idx + 1);
        // Locate the closure argument: the first `|` at argument depth.
        let mut depth = 0usize;
        let mut bar = None;
        for (k, t) in code.iter().enumerate().take(close).skip(idx + 2) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct('|') {
                bar = Some(k);
                break;
            }
        }
        let Some(bar) = bar else { continue };
        let (params, bar_close) = closure_params(code, bar);
        if params.len() < 3 || bar_close >= close {
            // Fewer than three bindings means no named output after the
            // range pair — nothing to check.
            continue;
        }
        let outputs: BTreeSet<&str> = params[2..].iter().map(String::as_str).collect();
        let mut derived: BTreeSet<String> = params.iter().cloned().collect();
        let body = (bar_close + 1, close);
        grow_derived(code, body, &mut derived);
        let mut m = body.0;
        while m < body.1 {
            let t = code[m];
            let is_output_index = t.kind == TokKind::Ident
                && outputs.contains(t.text.as_str())
                && !(m > 0 && code[m - 1].is_punct('.'))
                && code.get(m + 1).is_some_and(|n| n.is_punct('['));
            if !is_output_index {
                m += 1;
                continue;
            }
            let bracket_close = scopes::matching(code, m + 1);
            let mut seen_ident = false;
            let mut any_derived = false;
            for n in (m + 2)..bracket_close.min(code.len()) {
                if !counts_for_derivation(code, n) {
                    continue;
                }
                seen_ident = true;
                if derived.contains(&code[n].text) {
                    any_derived = true;
                }
            }
            if seen_ident && !any_derived {
                raw.push(Finding {
                    id: String::new(),
                    file: display_path.to_string(),
                    line: t.line,
                    rule: "par-disjoint",
                    message: format!(
                        "output `{}` indexed by identifiers not derived from the \
                         chunk-range parameters; chunks may alias",
                        t.text
                    ),
                });
            }
            m = bracket_close;
        }
    }
}

/// The `no-host-block` rule: inside device code — `impl … DeviceProgram …
/// for …` blocks, `async fn` bodies and `async` blocks — flag direct calls
/// to host-blocking primitives ([`HOST_BLOCK_CALLS`]) and `.recv(…)` method
/// calls (channel receives park the OS thread). Devices advance under a
/// single-threaded event loop: every wait must be an awaited device
/// operation so the scheduler can interleave devices; any host-side block
/// stalls the whole cluster. Token-level approximation: an impl header
/// mentioning both `DeviceProgram` and `for` before its `{` is treated as a
/// trait impl.
fn no_host_block(display_path: &str, code: &[&Tok], exempt: &[(u32, u32)], raw: &mut Vec<Finding>) {
    let mut device = vec![false; code.len()];
    for open in (0..code.len()).filter_map(|i| device_body(code, i)) {
        device[open + 1..scopes::matching(code, open)].fill(true);
    }
    for (k, t) in code.iter().enumerate() {
        let called = code.get(k + 1).is_some_and(|n| n.is_punct('('));
        if !device[k] || !called || t.kind != TokKind::Ident || in_ranges(t.line, exempt) {
            continue;
        }
        let method_recv = t.is_ident("recv") && k > 0 && code[k - 1].is_punct('.');
        if HOST_BLOCK_CALLS.iter().any(|n| t.is_ident(n)) || method_recv {
            raw.push(Finding {
                id: String::new(),
                file: display_path.to_string(),
                line: t.line,
                rule: "no-host-block",
                message: format!(
                    "`{}` blocks the host thread inside device code; await a device \
                     operation and let the event loop schedule the wait",
                    t.text
                ),
            });
        }
    }
}

/// The `{` opening the device code that starts at token `i`: the body of
/// an `impl … DeviceProgram … for …` block, of an `async fn`, or of an
/// `async` / `async move` block.
pub(crate) fn device_body(code: &[&Tok], i: usize) -> Option<usize> {
    let header_end =
        |from| (from..code.len()).find(|&j| code[j].is_punct('{') || code[j].is_punct(';'));
    let open = if code[i].is_ident("impl") {
        let j = header_end(i + 1)?;
        let names = |name| code[i + 1..j].iter().any(|t| t.is_ident(name));
        (names("DeviceProgram") && names("for")).then_some(j)?
    } else if code[i].is_ident("async") {
        let next = i + 1 + usize::from(code.get(i + 1).is_some_and(|t| t.is_ident("move")));
        if code.get(next)?.is_ident("fn") {
            header_end(next)?
        } else {
            next
        }
    } else {
        return None;
    };
    code.get(open)?.is_punct('{').then_some(open)
}

/// Identifiers carrying host wall-clock seconds: the `host_seconds`
/// telemetry convention plus the std origin APIs and the one sanctioned
/// measurement shim (`comm::timing::measure`).
fn is_host_marked(text: &str) -> bool {
    text.contains("host_seconds")
        || text.contains("host_secs")
        || text == "Instant"
        || text == "SystemTime"
        || text == "as_secs_f64"
        || text == "measure"
}

/// Identifiers carrying simulated-clock seconds (the `sim_seconds` /
/// `total_sim_seconds` result convention).
fn is_sim_marked(text: &str) -> bool {
    text.contains("sim_seconds") || text.contains("sim_secs")
}

/// Classification of one operand's identifiers against the unit markers and
/// the scope's taint sets.
fn classify_units(
    texts: &[&str],
    host_taint: &BTreeSet<String>,
    sim_taint: &BTreeSet<String>,
) -> (bool, bool) {
    let host = texts
        .iter()
        .any(|t| is_host_marked(t) || host_taint.contains(*t));
    let sim = texts
        .iter()
        .any(|t| is_sim_marked(t) || sim_taint.contains(*t));
    (host, sim)
}

/// Identifiers of the primary expression ending just before `op` (walking
/// back over field/path chains and matched groups).
fn operand_idents_back<'a>(code: &[&'a Tok], op: usize, lo: usize) -> Vec<&'a str> {
    let mut idents = Vec::new();
    let mut k = op;
    while k > lo {
        k -= 1;
        let t = code[k];
        if t.is_punct(')') || t.is_punct(']') {
            let (open_c, close_c) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 1usize;
            let mut j = k;
            while j > lo && depth > 0 {
                j -= 1;
                if code[j].is_punct(close_c) {
                    depth += 1;
                } else if code[j].is_punct(open_c) {
                    depth -= 1;
                }
            }
            for t in &code[j..k] {
                if t.kind == TokKind::Ident {
                    idents.push(t.text.as_str());
                }
            }
            k = j;
            continue;
        }
        if t.kind == TokKind::Ident {
            idents.push(t.text.as_str());
            continue;
        }
        if t.kind == TokKind::Number || t.is_punct('.') || t.is_punct(':') {
            continue;
        }
        break;
    }
    idents
}

/// Identifiers of the primary expression starting at `start` (skipping
/// unary prefixes, walking field/path chains and matched groups).
fn operand_idents_fwd<'a>(code: &[&'a Tok], start: usize, hi: usize) -> Vec<&'a str> {
    let mut idents = Vec::new();
    let mut k = start;
    while k < hi
        && (code[k].is_punct('-')
            || code[k].is_punct('*')
            || code[k].is_punct('&')
            || code[k].is_punct('!'))
    {
        k += 1;
    }
    while k < hi.min(code.len()) {
        let t = code[k];
        if t.is_punct('(') || t.is_punct('[') {
            let close = scopes::matching(code, k);
            for t in &code[(k + 1)..close.min(hi)] {
                if t.kind == TokKind::Ident {
                    idents.push(t.text.as_str());
                }
            }
            k = close + 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            idents.push(t.text.as_str());
            k += 1;
            continue;
        }
        if t.kind == TokKind::Number || t.is_punct('.') || t.is_punct(':') {
            k += 1;
            continue;
        }
        break;
    }
    idents
}

/// The `unit-confusion` rule: within each function scope, identifiers
/// carrying host wall-clock seconds and identifiers carrying simulated-clock
/// seconds may not meet in arithmetic or assignment. Taint propagates
/// through `let` bindings inside the scope; struct literals (`field: value`)
/// are deliberately out of scope — that is how `host_seconds` diagnostics
/// are *recorded*, which is fine; mixing them into sim arithmetic is not.
fn unit_confusion(
    display_path: &str,
    code: &[&Tok],
    exempt: &[(u32, u32)],
    raw: &mut Vec<Finding>,
) {
    // Nested fns make body ranges overlap; report each offending line once.
    let mut reported: BTreeSet<u32> = BTreeSet::new();
    for scope in scopes::fn_scopes(code) {
        let (b0, b1) = scope.body;
        let hi = b1.min(code.len());
        let mut host_taint: BTreeSet<String> = BTreeSet::new();
        let mut sim_taint: BTreeSet<String> = BTreeSet::new();
        // Taint pass: a `let` whose initializer mentions a host- (sim-)
        // carrying identifier taints its bindings.
        let mut i = b0;
        while i < hi {
            if !code[i].is_ident("let") {
                i += 1;
                continue;
            }
            let mut pat = Vec::new();
            let mut j = i + 1;
            let mut in_type = false;
            while j < hi && !code[j].is_punct('=') && !code[j].is_punct(';') {
                if code[j].is_punct(':') {
                    in_type = true;
                } else if !in_type
                    && code[j].kind == TokKind::Ident
                    && !matches!(code[j].text.as_str(), "mut" | "ref")
                {
                    pat.push(code[j].text.clone());
                }
                j += 1;
            }
            if j < hi && code[j].is_punct('=') {
                let (mut h, mut s) = (false, false);
                let mut depth = 0usize;
                let mut k = j + 1;
                while k < hi {
                    let it = code[k];
                    if it.is_punct('(') || it.is_punct('[') {
                        depth += 1;
                    } else if it.is_punct(')') || it.is_punct(']') {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && (it.is_punct(';') || it.is_punct('{')) {
                        break;
                    } else if it.kind == TokKind::Ident {
                        h = h || is_host_marked(&it.text) || host_taint.contains(&it.text);
                        s = s || is_sim_marked(&it.text) || sim_taint.contains(&it.text);
                    }
                    k += 1;
                }
                if h {
                    host_taint.extend(pat.iter().cloned());
                }
                if s {
                    sim_taint.extend(pat.iter().cloned());
                }
                i = k;
                continue;
            }
            i = j;
        }
        // Operator pass: arithmetic and assignment where the units meet.
        for i in b0..hi {
            let t = code[i];
            if t.kind != TokKind::Punct || in_ranges(t.line, exempt) || reported.contains(&t.line) {
                continue;
            }
            let op = t.text.as_str();
            let next_is = |c: char| code.get(i + 1).is_some_and(|n| n.is_punct(c));
            let prev = i.checked_sub(1).and_then(|p| code.get(p));
            let rhs_start = match op {
                "+" | "-" | "*" | "/" => {
                    if op == "-" && next_is('>') {
                        continue; // `->` arrow
                    }
                    // Binary only: the previous token must end an operand.
                    let binary = prev.is_some_and(|p| {
                        (p.kind == TokKind::Ident
                            && !matches!(
                                p.text.as_str(),
                                "return" | "if" | "else" | "match" | "in" | "move"
                            ))
                            || p.kind == TokKind::Number
                            || p.is_punct(')')
                            || p.is_punct(']')
                    });
                    if !binary {
                        continue;
                    }
                    if next_is('=') {
                        i + 2 // compound assignment `+=` etc.
                    } else {
                        i + 1
                    }
                }
                "=" => {
                    // Skip `==`, `=>`, and the `=` of compound/comparison
                    // operators (those are handled at their first char).
                    if next_is('=') || next_is('>') {
                        continue;
                    }
                    let compound = prev.is_some_and(|p| {
                        ["=", "<", ">", "!", "+", "-", "*", "/", "%", "&", "|", "^"]
                            .contains(&p.text.as_str())
                            && p.kind == TokKind::Punct
                    });
                    if compound {
                        continue;
                    }
                    i + 1
                }
                _ => continue,
            };
            let left = operand_idents_back(code, i, b0);
            let right = operand_idents_fwd(code, rhs_start, b1);
            let (lh, ls) = classify_units(&left, &host_taint, &sim_taint);
            let (rh, rs) = classify_units(&right, &host_taint, &sim_taint);
            if (lh && rs) || (ls && rh) {
                reported.insert(t.line);
                raw.push(Finding {
                    id: String::new(),
                    file: display_path.to_string(),
                    line: t.line,
                    rule: "unit-confusion",
                    message: format!(
                        "host wall-clock seconds meet simulated-clock seconds in `{}`; \
                         keep the units apart (host_seconds is diagnostic-only)",
                        scope.name
                    ),
                });
            }
        }
    }
}

/// Renders findings as a stable JSON array (one object per finding with
/// `id`/`file`/`line`/`rule`/`message`), for `adaqp-lint --json` CI
/// artifacts and the `--baseline` ratchet.
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
        out.push_str("  {\"id\": ");
        escape(&f.id, &mut out);
        out.push_str(", \"file\": ");
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
                id: String::new(),
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
                id: String::new(),
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
                id: String::new(),
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
