//! Lexer and rule-engine tests, driven by the fixtures under
//! `tests/fixtures/` (which the workspace walker deliberately skips).

use analysis::lexer::{lex, TokKind};
use analysis::{find_root, scan_path, scan_workspace, Finding};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scan_fixture(name: &str) -> Vec<Finding> {
    scan_path(&fixture(name)).expect("fixture readable")
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- lexer

#[test]
fn line_and_nested_block_comments_are_single_tokens() {
    let toks = lex("a // unwrap() here\nb /* outer /* inner */ still */ c");
    let idents: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(idents, ["a", "b", "c"]);
    let comments: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Comment)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(
        comments,
        ["// unwrap() here", "/* outer /* inner */ still */"]
    );
}

#[test]
fn string_escapes_do_not_terminate_the_literal() {
    let toks = lex(r#"let s = "quote \" unwrap() inside"; done"#);
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Str && t.text.contains("unwrap")));
    // The unwrap inside the string must not surface as an identifier.
    assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
    assert!(toks.iter().any(|t| t.is_ident("done")));
}

#[test]
fn raw_strings_respect_hash_depth() {
    let toks = lex(r###"let s = r##"has "# inside HashMap"##; after"###);
    let strs: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(strs.len(), 1);
    assert!(strs[0].contains("HashMap"));
    assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
    assert!(toks.iter().any(|t| t.is_ident("after")));
}

#[test]
fn lifetimes_are_distinguished_from_char_literals() {
    let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
    let lifetimes: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, ["'a", "'a"]);
    let chars: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::CharLit)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, ["'x'"]);
}

#[test]
fn escaped_char_literals_lex_as_one_token() {
    let toks = lex(r"let c = '\''; let n = '\n'; rest");
    let chars: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::CharLit)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, [r"'\''", r"'\n'"]);
    assert!(toks.iter().any(|t| t.is_ident("rest")));
}

#[test]
fn token_lines_are_tracked_across_multiline_literals() {
    let toks = lex("one\n\"a\nb\"\nthree");
    let three = toks.iter().find(|t| t.is_ident("three")).expect("lexed");
    assert_eq!(three.line, 4);
}

// --------------------------------------------------- skeleton extraction
// Edge cases where sloppy tokenization would corrupt brace matching or
// invent phantom yields: raw strings, nested block comments, and char/byte
// literals that contain braces or Command-construction text.

fn skeletons_of(src: &str) -> Vec<analysis::Skeleton> {
    let toks = lex(src);
    let code: Vec<&analysis::lexer::Tok> =
        toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    analysis::extract_skeletons(&code)
}

#[test]
fn raw_strings_with_braces_do_not_corrupt_the_skeleton() {
    let src = r####"
impl DeviceProgram for RawStr {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        let banner = r#"{ Command::Send { dst: 0, tag: 1 } } }"#;
        drop((banner, ctx, input));
        Step::Yield(Command::Barrier)
    }
}
"####;
    let skels = skeletons_of(src);
    assert_eq!(skels.len(), 1);
    assert_eq!(skels[0].impl_name, "RawStr");
    // Only the real Barrier yield survives; the Send text inside the raw
    // string (with its unbalanced braces) is inert.
    assert_eq!(
        skels[0].nodes,
        [analysis::protocol::Node::Yield(
            analysis::protocol::CommOp::Collective {
                kind: "Barrier".into(),
                line: 7,
            }
        )]
    );
}

#[test]
fn nested_block_comments_with_braces_are_invisible_to_the_skeleton() {
    let src = "
impl DeviceProgram for Commented {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        /* outer { /* inner Command::Recv { src: 9, tag: 9 } } */ still } */
        drop((ctx, input));
        Step::Yield(Command::Barrier)
    }
}
";
    let skels = skeletons_of(src);
    assert_eq!(skels.len(), 1);
    assert_eq!(skels[0].nodes.len(), 1, "only the real yield: {skels:?}");
    assert!(matches!(
        skels[0].nodes[0],
        analysis::protocol::Node::Yield(analysis::protocol::CommOp::Collective { ref kind, .. })
            if kind == "Barrier"
    ));
}

#[test]
fn char_and_byte_literals_with_braces_do_not_shift_scopes() {
    let src = "
impl DeviceProgram for CharBraces {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        let open = '{';
        let close = b'}';
        drop((open, close, ctx, input));
        Step::Yield(Command::RingAll2All { sends: Vec::new() })
    }
}
fn after() {}
";
    let skels = skeletons_of(src);
    assert_eq!(skels.len(), 1, "impl body ends where it should: {skels:?}");
    assert_eq!(skels[0].impl_name, "CharBraces");
    assert_eq!(skels[0].nodes.len(), 1);
    assert!(matches!(
        skels[0].nodes[0],
        analysis::protocol::Node::Yield(analysis::protocol::CommOp::Collective { ref kind, .. })
            if kind == "RingAll2All"
    ));
}

// ------------------------------------------------------------ rule fixtures

#[test]
fn sim_clock_fixture_pair() {
    let bad = scan_fixture("sim_clock_bad.rs");
    assert!(rules_of(&bad).contains(&"sim-clock"), "findings: {bad:?}");
    assert_eq!(bad[0].line, 3, "Instant::now() is on line 3");
    assert!(scan_fixture("sim_clock_ok.rs").is_empty());
}

#[test]
fn no_panic_fixture_pair() {
    let bad = scan_fixture("no_panic_bad.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "no-panic").count(),
        3,
        "unwrap + expect + panic!: {bad:?}"
    );
    // Suppressed expect and #[cfg(test)] unwrap must both stay silent.
    assert!(scan_fixture("no_panic_ok.rs").is_empty());
}

#[test]
fn det_iter_fixture_pair() {
    let bad = scan_fixture("det_iter_bad.rs");
    assert!(rules_of(&bad).contains(&"det-iter"), "findings: {bad:?}");
    assert!(scan_fixture("det_iter_ok.rs").is_empty());
}

#[test]
fn lossy_cast_fixture_pair() {
    let bad = scan_fixture("lossy_cast_bad.rs");
    assert!(rules_of(&bad).contains(&"lossy-cast"), "findings: {bad:?}");
    assert!(scan_fixture("lossy_cast_ok.rs").is_empty());
}

#[test]
fn no_stray_print_fixture_pair() {
    let bad = scan_fixture("no_stray_print_bad.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "no-stray-print").count(),
        2,
        "println! + eprintln!: {bad:?}"
    );
    // Suppressed eprintln, writeln-into-buffer and #[cfg(test)] prints all
    // stay silent.
    assert!(scan_fixture("no_stray_print_ok.rs").is_empty());
}

#[test]
fn dep_hygiene_fixture_pair() {
    let bad = scan_fixture("dep_hygiene_bad.toml");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "dep-hygiene").count(),
        2,
        "both non-workspace deps flagged: {bad:?}"
    );
    assert!(scan_fixture("dep_hygiene_ok.toml").is_empty());
}

#[test]
fn par_disjoint_fixture_pair() {
    let bad = scan_fixture("par_disjoint_bad.rs");
    assert!(
        rules_of(&bad).contains(&"par-disjoint"),
        "findings: {bad:?}"
    );
    assert_eq!(bad[0].line, 6, "the captured-cursor index is on line 6");
    assert!(scan_fixture("par_disjoint_ok.rs").is_empty());
}

#[test]
fn unit_confusion_fixture_pair() {
    let bad = scan_fixture("unit_confusion_bad.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "unit-confusion").count(),
        2,
        "direct mix + taint through a binding: {bad:?}"
    );
    // The message names the enclosing function.
    assert!(bad.iter().any(|f| f.message.contains("direct")));
    assert!(bad.iter().any(|f| f.message.contains("via_binding")));
    assert!(scan_fixture("unit_confusion_ok.rs").is_empty());
}

#[test]
fn no_host_block_fixture_pair() {
    let bad = scan_fixture("no_host_block_bad.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "no-host-block").count(),
        2,
        "thread::sleep + .recv(): {bad:?}"
    );
    assert_eq!(bad[0].line, 6, "the sleep is on line 6");
    assert_eq!(bad[1].line, 7, "the recv is on line 7");
    // Inherent-impl recv and the suppressed rendezvous both stay silent.
    assert!(scan_fixture("no_host_block_ok.rs").is_empty());
}

#[test]
fn collective_divergence_fixture_pair() {
    let bad = scan_fixture("collective_divergence_bad.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == "collective-divergence")
            .count(),
        4,
        "gated Barrier + gated Gather + tainted-loop Barrier + gated sparse ring: {bad:?}"
    );
    let lines: Vec<u32> = bad.iter().map(|f| f.line).collect();
    assert_eq!(lines, [14, 27, 43, 56], "one finding per collective yield");
    assert!(bad[0].message.contains("SkipBarrier"));
    assert!(bad[1].message.contains("GatedGather"));
    assert!(bad[2].message.contains("LoopBarrier"));
    // A rank with nothing to send still has to enter the ring: an empty
    // `sends` list is the way to send nothing, not skipping the yield.
    assert!(bad[3].message.contains("GatedSparseRing"));
    // Symmetric master/worker Gather and a uniform loop bound stay silent.
    assert!(scan_fixture("collective_divergence_ok.rs").is_empty());
}

#[test]
fn unmatched_comm_fixture_pair() {
    let bad = scan_fixture("unmatched_comm_bad.rs");
    let rules = rules_of(&bad);
    assert_eq!(
        rules.iter().filter(|r| **r == "unmatched-comm").count(),
        3,
        "reversed ring + tag typo + recv-before-send cycle: {bad:?}"
    );
    assert_eq!(bad[0].line, 12, "ReversedRing recv is on line 12");
    assert!(bad[0].message.contains("reversed ring"));
    assert_eq!(bad[1].line, 26, "TagTypo recv is on line 26");
    assert!(bad[1].message.contains("tag typo"));
    assert_eq!(bad[2].line, 39, "RecvFirst first recv is on line 39");
    assert!(bad[2].message.contains("recv-before-send cycle"));
    // Correct ring, data-assigned peers, and the allow-annotated reversal
    // all stay silent.
    assert!(scan_fixture("unmatched_comm_ok.rs").is_empty());
}

#[test]
fn stale_allow_fixture_pair() {
    let bad = scan_fixture("stale_allow_bad.rs");
    let rules = rules_of(&bad);
    assert_eq!(rules, ["stale-allow"], "findings: {bad:?}");
    assert_eq!(bad[0].line, 4, "the stale directive is on line 4");
    assert!(scan_fixture("stale_allow_ok.rs").is_empty());
}

#[test]
fn peer_subtract_fixture_pair() {
    // Grouped subtrahend offsets — `(rank + n - (2 - 1)) % n` — must fold
    // to Offset(-1), not silently degrade to an unanalyzable peer.
    let bad = scan_fixture("peer_subtract_bad.rs");
    assert_eq!(rules_of(&bad), ["unmatched-comm"], "findings: {bad:?}");
    assert!(
        bad[0].message.contains("reversed ring"),
        "message names the shape: {}",
        bad[0].message
    );
    assert!(scan_fixture("peer_subtract_ok.rs").is_empty());
}

#[test]
fn interproc_fixture_pair() {
    // The recv lives in a same-file free helper; only interprocedural
    // extraction (inlining with argument substitution) can flag it.
    let bad = scan_fixture("interproc_bad.rs");
    assert_eq!(rules_of(&bad), ["unmatched-comm"], "findings: {bad:?}");
    assert!(scan_fixture("interproc_ok.rs").is_empty());
}

#[test]
fn finding_ids_are_content_derived_and_line_stable() {
    let bad = scan_fixture("peer_subtract_bad.rs");
    assert!(!bad[0].id.is_empty(), "ids assigned after scan");
    // Rescanning the same content yields the same id; shifting the code
    // down a line must not change it (ids hash content, not position).
    let src = std::fs::read_to_string(fixture("peer_subtract_bad.rs")).unwrap();
    let direct = analysis::rules::scan_rust(
        "crates/analysis/tests/fixtures/peer_subtract_bad.rs",
        "crates/analysis/tests/fixtures/peer_subtract_bad.rs",
        &analysis::rules::FileClass::Explicit,
        &src,
    );
    let shifted = analysis::rules::scan_rust(
        "crates/analysis/tests/fixtures/peer_subtract_bad.rs",
        "crates/analysis/tests/fixtures/peer_subtract_bad.rs",
        &analysis::rules::FileClass::Explicit,
        &format!("// an extra leading comment line\n{src}"),
    );
    assert_eq!(direct[0].id, shifted[0].id, "line shifts keep ids stable");
    assert_eq!(direct[0].line + 1, shifted[0].line);
    // The JSON artifact leads with the id, so baselines can be harvested.
    let json = analysis::to_json(&direct);
    assert!(
        json.contains(&format!("{{\"id\": \"{}\"", direct[0].id)),
        "{json}"
    );
}

#[test]
fn to_json_escapes_and_orders_findings() {
    let findings = vec![
        Finding {
            id: "deadbeef-0".into(),
            file: "a.rs".into(),
            line: 3,
            rule: "no-panic",
            message: "say \"no\" to panics\tplease".into(),
        },
        Finding {
            id: "deadbeef-1".into(),
            file: "b\\c.rs".into(),
            line: 7,
            rule: "sim-clock",
            message: "wall clock".into(),
        },
    ];
    let json = analysis::to_json(&findings);
    assert!(json.starts_with('['), "array output: {json}");
    assert!(json.contains(r#""file": "a.rs", "line": 3, "rule": "no-panic""#));
    assert!(json.contains(r#"say \"no\" to panics\tplease"#));
    assert!(json.contains(r#""b\\c.rs""#));
    // Input order is preserved (scan output is already sorted).
    assert!(json.find("a.rs").unwrap() < json.find("sim-clock").unwrap());
    assert_eq!(analysis::to_json(&[]), "[\n]\n");
}

#[test]
fn protocol_findings_round_trip_through_json() {
    let mut findings = scan_fixture("collective_divergence_bad.rs");
    findings.extend(scan_fixture("unmatched_comm_bad.rs"));
    let json = analysis::to_json(&findings);
    // Minimal round-trip: pull each {"file": …, "line": …, "rule": …}
    // record back out and compare against the scan results field by field.
    let records: Vec<&str> = json
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .collect();
    assert_eq!(records.len(), findings.len());
    for (rec, f) in records.iter().zip(&findings) {
        let field = |key: &str| -> &str {
            let start = rec.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
            let rest = &rec[start..];
            let end = rest.find(", \"").or_else(|| rest.rfind('}')).expect(key);
            rest[..end].trim().trim_matches('"')
        };
        assert!(field("file").ends_with(&f.file), "{rec}");
        assert_eq!(field("line"), f.line.to_string(), "{rec}");
        assert_eq!(field("rule"), f.rule, "{rec}");
    }
    assert!(json.contains(r#""rule": "collective-divergence""#));
    assert!(json.contains(r#""rule": "unmatched-comm""#));
}

#[test]
fn findings_render_as_file_line_rule() {
    let bad = scan_fixture("lossy_cast_bad.rs");
    let line = bad[0].to_string();
    assert!(
        line.contains("lossy_cast_bad.rs:3: [lossy-cast]"),
        "rendered: {line}"
    );
}

// ------------------------------------------------------------ deadlock gallery

/// Every exhibit in `examples/deadlock_gallery.rs` must be rediscovered by
/// the scanner once its `lint:allow` escape is stripped — same rule, and a
/// span on the line directly below where the (removed) allow sat. This pins
/// the static half of the static/dynamic pairing; the example binary itself
/// pins the runtime half.
#[test]
fn gallery_is_flagged_statically() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/deadlock_gallery.rs");
    let src = std::fs::read_to_string(&path).expect("gallery example exists");
    let mut expected: Vec<(u32, &str)> = Vec::new();
    let mut stripped = String::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(rest) = line.trim_start().strip_prefix("// lint:allow(") {
            let rule = rest.split(')').next().expect("allow names a rule");
            expected.push((
                i as u32 + 2, // the flagged yield sits on the next line
                match rule {
                    "unmatched-comm" => "unmatched-comm",
                    "collective-divergence" => "collective-divergence",
                    other => panic!("unexpected gallery rule {other}"),
                },
            ));
            stripped.push_str("// (allow stripped for the static test)\n");
        } else {
            stripped.push_str(line);
            stripped.push('\n');
        }
    }
    assert_eq!(expected.len(), 4, "four exhibits in the gallery");
    // Example class, not Explicit: proves the protocol rules run on the
    // file class the real workspace walk assigns to examples/.
    let findings = analysis::rules::scan_rust(
        "examples/deadlock_gallery.rs",
        "examples/deadlock_gallery.rs",
        &analysis::rules::FileClass::Example,
        &stripped,
    );
    let got: Vec<(u32, &str)> = findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(got, expected, "findings: {findings:#?}");
}

// ------------------------------------------------------------ whole workspace

#[test]
fn workspace_scan_is_clean() {
    let root = find_root().expect("workspace root");
    let findings = scan_workspace(&root).expect("workspace scans");
    assert!(
        findings.is_empty(),
        "workspace must stay at zero unsuppressed violations:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
