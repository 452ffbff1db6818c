//! Lexer and rule-engine tests, driven by the fixtures under
//! `tests/fixtures/` (which the workspace walker deliberately skips).

use analysis::lexer::{lex, TokKind};
use analysis::protocol::Node;
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
// invent phantom awaits: raw strings, nested block comments, and char/byte
// literals that contain braces or await text.

fn skeletons_of(src: &str) -> Vec<analysis::Skeleton> {
    let toks = lex(src);
    let code: Vec<&analysis::lexer::Tok> =
        toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    analysis::extract_skeletons(&code)
}

/// The awaited callees of a skeleton's top level.
fn callees(sk: &analysis::Skeleton) -> Vec<&str> {
    sk.nodes
        .iter()
        .filter_map(|n| match n {
            Node::Await { callee, .. } => Some(callee.as_str()),
            _ => None,
        })
        .collect()
}

#[test]
fn raw_strings_with_braces_do_not_corrupt_the_skeleton() {
    let src = r####"
async fn raw_str(dev: &mut AsyncDevice) {
    let banner = r#"{ dev.gather(0, x).await } }"#;
    drop(banner);
    dev.ring_exchange(Vec::new()).await;
}
"####;
    let skels = skeletons_of(src);
    assert_eq!(skels.len(), 1);
    // Only the real await survives; the gather text inside the raw string
    // (with its unbalanced braces) is inert.
    assert_eq!(
        skels[0].nodes,
        [Node::Await {
            callee: "ring_exchange".into(),
            line: 5,
            tainted_root: false,
        }]
    );
}

#[test]
fn nested_block_comments_with_braces_are_invisible_to_the_skeleton() {
    let src = "
async fn commented(dev: &mut AsyncDevice) {
    /* outer { /* inner dev.scatter(9, None).await } */ still } */
    dev.broadcast(0, None).await;
}
";
    let skels = skeletons_of(src);
    assert_eq!(skels.len(), 1);
    assert_eq!(
        callees(&skels[0]),
        ["broadcast"],
        "only the real await: {skels:?}"
    );
}

#[test]
fn char_and_byte_literals_with_braces_do_not_shift_scopes() {
    let src = "
async fn char_braces(dev: &mut AsyncDevice) {
    let open = '{';
    let close = b'}';
    drop((open, close));
    dev.ring_exchange(Vec::new()).await;
}
async fn after(dev: &mut AsyncDevice) {
    dev.gather(0, Bytes::new()).await;
}
";
    let skels = skeletons_of(src);
    assert_eq!(
        skels.len(),
        2,
        "the first body ends where it should: {skels:?}"
    );
    assert_eq!(callees(&skels[0]), ["ring_exchange"]);
    assert_eq!(callees(&skels[1]), ["gather"]);
}

#[test]
fn branches_flatten_else_if_chains_and_give_a_bare_if_an_empty_arm() {
    let src = "
async fn shapes(dev: &mut AsyncDevice, rank: usize) {
    let gathered = dev.gather(0, Bytes::new()).await?;
    if rank == 0 {
        dev.broadcast(0, None).await;
    } else if rank == 1 {
        return;
    } else {
        dev.scatter(0, None).await;
    }
    match gathered {
        Some(all) => dev.ring_exchange(all).await,
        None => Vec::new(),
    };
    if ready { dev.ring_exchange(Vec::new()).await; }
}
";
    let skels = skeletons_of(src);
    let [_, Node::Branch {
        tainted: true,
        arms,
        ..
    }, Node::Branch {
        tainted: true,
        arms: m,
        ..
    }, Node::Branch {
        tainted: false,
        arms: bare,
        ..
    }] = skels[0].nodes.as_slice()
    else {
        panic!("gather, chain, match, bare if: {skels:?}");
    };
    assert_eq!(arms.len(), 3);
    assert_eq!(arms[1], [Node::Return]);
    assert_eq!(m.len(), 2, "the `Option` a gather returns taints the match");
    assert_eq!((bare.len(), bare[1].len()), (2, 0));
}

// ------------------------------------------------------------ rule fixtures

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
    // Chunk-derived indices and the same captured cursor under
    // #[cfg(test)] both stay silent.
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
    // In `async` device code: the sleep and the channel recv in the `async
    // fn`, the recv_timeout in the `async move` block; awaited collectives and
    // a plain fn stay silent.
    let bad = scan_fixture("no_host_block_async_bad.rs");
    assert!(bad.iter().all(|f| f.rule == "no-host-block"));
    assert_eq!(bad.iter().map(|f| f.line).collect::<Vec<_>>(), [4, 5, 8]);
    assert!(scan_fixture("no_host_block_async_ok.rs").is_empty());
}

#[test]
fn collective_divergence_fixture_pair() {
    let bad = scan_fixture("collective_divergence_bad.rs");
    assert!(
        bad.iter().all(|f| f.rule == "collective-divergence"),
        "{bad:?}"
    );
    let lines: Vec<u32> = bad.iter().map(|f| f.line).collect();
    assert_eq!(lines, [5, 13, 17], "one finding per plant: {bad:?}");
    // The skipped allreduce: one arm awaits it, the fall-through does not.
    assert!(bad[0].message.contains("[allreduce_sum_f32] vs []"));
    // The rank-dependent broadcast root.
    assert!(bad[1]
        .message
        .contains("`broadcast` root is rank-dependent"));
    // Reassign-before-evaluate on one rank: same callees, other order.
    assert!(bad[2]
        .message
        .contains("[reassign, evaluate] vs [evaluate, reassign]"));
    // The assigner round as shipped, `?` included, and a rank-dependent
    // branch with no awaits stay silent.
    assert!(scan_fixture("collective_divergence_ok.rs").is_empty());
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
fn finding_ids_are_content_derived_and_line_stable() {
    let bad = scan_fixture("collective_divergence_bad.rs");
    assert!(!bad[0].id.is_empty(), "ids assigned after scan");
    // Rescanning the same content yields the same id; shifting the code
    // down a line must not change it (ids hash content, not position).
    let src = std::fs::read_to_string(fixture("collective_divergence_bad.rs")).unwrap();
    let direct = analysis::rules::scan_rust(
        "crates/analysis/tests/fixtures/collective_divergence_bad.rs",
        analysis::rules::FileClass::Library,
        &src,
    );
    let shifted = analysis::rules::scan_rust(
        "crates/analysis/tests/fixtures/collective_divergence_bad.rs",
        analysis::rules::FileClass::Library,
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
            rule: "par-disjoint",
            message: "say \"no\" to panics\tplease".into(),
        },
        Finding {
            id: "deadbeef-1".into(),
            file: "b\\c.rs".into(),
            line: 7,
            rule: "unit-confusion",
            message: "wall clock".into(),
        },
    ];
    let json = analysis::to_json(&findings);
    assert!(json.starts_with('['), "array output: {json}");
    assert!(json.contains(r#""file": "a.rs", "line": 3, "rule": "par-disjoint""#));
    assert!(json.contains(r#"say \"no\" to panics\tplease"#));
    assert!(json.contains(r#""b\\c.rs""#));
    // Input order is preserved (scan output is already sorted).
    assert!(json.find("a.rs").unwrap() < json.find("unit-confusion").unwrap());
    assert_eq!(analysis::to_json(&[]), "[\n]\n");
}

#[test]
fn protocol_findings_round_trip_through_json() {
    let mut findings = scan_fixture("collective_divergence_bad.rs");
    findings.extend(scan_fixture("no_host_block_bad.rs"));
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
    assert!(json.contains(r#""rule": "no-host-block""#));
}

#[test]
fn findings_render_as_file_line_rule() {
    let bad = scan_fixture("par_disjoint_bad.rs");
    let line = bad[0].to_string();
    assert!(
        line.contains("par_disjoint_bad.rs:6: [par-disjoint]"),
        "rendered: {line}"
    );
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
