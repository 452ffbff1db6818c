//! Integration tests for the `adaqp-model` checker: the deadlock gallery's
//! planted exhibits must all be rediscovered with counterexamples whose
//! blamed ranks match the runtime `WaitGraph` diagnosis exhibit-for-exhibit,
//! and every shipped (non-planted) `DeviceProgram` must certify clean at
//! n = 2..4.

use analysis::model::{check_source, ModelOptions, Verdict, ViolationReport};
use analysis::{certificates_json, find_root, workspace_sources};
use comm::WaitCause;
use std::path::PathBuf;

fn gallery_source() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/deadlock_gallery.rs");
    std::fs::read_to_string(&path).expect("gallery example exists")
}

/// Strips the gallery's `model:allow` directives so the checker re-reports
/// every planted exhibit (the strip-the-allows discipline: suppression must
/// be the *only* reason the committed gallery passes).
fn stripped_gallery() -> String {
    let mut stripped = String::new();
    let mut removed = 0;
    for line in gallery_source().lines() {
        if line.trim_start().starts_with("// model:allow(") {
            stripped.push_str("// (model allow stripped for the static test)\n");
            removed += 1;
        } else {
            stripped.push_str(line);
            stripped.push('\n');
        }
    }
    assert_eq!(removed, 4, "four model:allow directives in the gallery");
    stripped
}

fn violation_at(report: &analysis::ProgramReport, n: usize) -> ViolationReport {
    match report.results.iter().find(|(rn, _)| *rn == n) {
        Some((_, Verdict::Violation(v))) => (**v).clone(),
        other => panic!(
            "{}: expected violation at n={n}, got {other:?}",
            report.impl_name
        ),
    }
}

#[test]
fn stripped_gallery_flags_all_four_exhibits_with_runtime_matching_blame() {
    let rep = check_source(
        "examples/deadlock_gallery.rs",
        &stripped_gallery(),
        &ModelOptions::default(),
    );
    assert!(rep.problems.is_empty(), "{:?}", rep.problems);
    let by_name = |name: &str| {
        rep.programs
            .iter()
            .find(|p| p.impl_name == name)
            .unwrap_or_else(|| panic!("{name} extracted"))
    };

    // Exhibit 1 — ReversedRing at n = 4: the runtime graph blocks all four
    // ranks on recv(src = rank+1, tag 7) with four unclaimed tag-7 messages
    // from the left (see the assertions in examples/deadlock_gallery.rs).
    let v = violation_at(by_name("ReversedRing"), 4);
    assert_eq!(v.rule, "deadlock");
    let blocked: Vec<usize> = v.graph.blocked.iter().map(|b| b.rank).collect();
    assert_eq!(blocked, [0, 1, 2, 3]);
    for b in &v.graph.blocked {
        assert_eq!(
            b.cause,
            WaitCause::Recv {
                src: (b.rank + 1) % 4,
                tag: 7
            }
        );
    }
    assert_eq!(v.graph.unclaimed.len(), 4);
    for m in &v.graph.unclaimed {
        assert_eq!((m.src, m.tag), ((m.dst + 3) % 4, 7));
    }
    // A reversed ring is genuinely correct at n = 2 (left == right).
    assert!(matches!(
        by_name("ReversedRing").results[0],
        (2, Verdict::Proved { .. })
    ));

    // Exhibit 2 — TagTypo: everyone blocks on the mistyped tag 8 while the
    // tag-7 sends sit unclaimed.
    let v = violation_at(by_name("TagTypo"), 4);
    assert_eq!(v.rule, "deadlock");
    assert!(v
        .graph
        .blocked
        .iter()
        .all(|b| matches!(b.cause, WaitCause::Recv { tag: 8, .. })));
    assert!(v.graph.unclaimed.iter().all(|m| m.tag == 7));

    // Exhibit 3 — SkippedBarrier: ranks 1..4 park at the barrier front,
    // rank 0 finishes without it — byte-for-byte the runtime attribution.
    let v = violation_at(by_name("SkippedBarrier"), 4);
    assert_eq!(v.rule, "deadlock");
    let blocked: Vec<usize> = v.graph.blocked.iter().map(|b| b.rank).collect();
    assert_eq!(blocked, [1, 2, 3]);
    assert_eq!(v.graph.finished, vec![0]);
    let front = v.graph.collective.expect("collective front recorded");
    assert_eq!(
        (front.kind, front.reached, front.absent),
        ("barrier", vec![1, 2, 3], vec![0])
    );

    // Exhibit 4 — RecvFirstRing: all four ranks block with every mailbox
    // empty (nobody ever sent anything).
    let v = violation_at(by_name("RecvFirstRing"), 4);
    assert_eq!(v.rule, "deadlock");
    assert_eq!(v.graph.blocked.len(), 4);
    assert!(v.graph.unclaimed.is_empty());

    // Every counterexample is an ordered trace from the initial state.
    for name in ["ReversedRing", "TagTypo", "SkippedBarrier", "RecvFirstRing"] {
        let v = violation_at(by_name(name), 4);
        assert!(!v.trace.is_empty(), "{name} carries a trace");
        assert!(
            v.trace.len() <= 8,
            "{name}: shortest trace, got {}",
            v.trace.len()
        );
    }
}

#[test]
fn committed_gallery_is_fully_suppressed() {
    let rep = check_source(
        "examples/deadlock_gallery.rs",
        &gallery_source(),
        &ModelOptions::default(),
    );
    assert!(
        rep.problems.is_empty(),
        "no stale/reason-less allows: {:?}",
        rep.problems
    );
    for p in &rep.programs {
        assert!(
            !p.has_violation() || p.suppressed,
            "{} must be proved or suppressed",
            p.impl_name
        );
        assert!(
            !p.has_unverifiable(),
            "{} is inside the model fragment",
            p.impl_name
        );
    }
    // The control group is proved outright, including the helper-hidden
    // recv in HaloExchange (interprocedural extraction).
    for name in ["HaloExchange", "AssignerRound", "GhostSync"] {
        let p = rep
            .programs
            .iter()
            .find(|p| p.impl_name == name)
            .expect(name);
        assert!(!p.has_violation(), "{name} is correct");
        for (n, v) in &p.results {
            assert!(
                matches!(v, Verdict::Proved { .. }),
                "{name} proved at n={n}"
            );
        }
    }
}

#[test]
fn workspace_programs_certify_clean_or_suppressed() {
    let root = find_root().expect("workspace root");
    let opts = ModelOptions::default();
    let mut programs = Vec::new();
    for (rel, path) in workspace_sources(&root).expect("workspace sources") {
        let src = std::fs::read_to_string(&path).expect("source readable");
        let rep = check_source(&rel, &src, &opts);
        assert!(
            rep.problems.is_empty(),
            "{rel}: directive problems: {:?}",
            rep.problems
        );
        programs.extend(rep.programs);
    }
    assert!(
        programs.len() >= 10,
        "the walk sees the shipped programs, got {}",
        programs.len()
    );
    for p in &programs {
        assert!(
            !p.has_violation() || p.suppressed,
            "{}::{} has an unsuppressed violation",
            p.file,
            p.impl_name
        );
        assert!(
            !p.has_unverifiable(),
            "{}::{} fell outside the model fragment",
            p.file,
            p.impl_name
        );
    }
    // At least the cluster's own adapters (the async one runs every shipped
    // trainer) plus the gallery control group are proved at every n.
    let proved: Vec<&str> = programs
        .iter()
        .filter(|p| !p.has_violation() && !p.has_unverifiable())
        .map(|p| p.impl_name.as_str())
        .collect();
    let adapter = proved.contains(&"AsyncProgram");
    assert!(proved.len() >= 4 && adapter, "got {proved:?}");

    // The certificate artifact round-trips: every program keyed, balanced
    // JSON, `_`-prefixed proof sizes present.
    let json = certificates_json(&programs, &opts);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    for p in &programs {
        assert!(
            json.contains(&format!("{}::{}", p.file, p.impl_name)),
            "{} keyed",
            p.impl_name
        );
    }
    assert!(json.contains("\"_states\""));
    assert!(json.contains("\"summary\""));
}
