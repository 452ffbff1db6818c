//! `adaqp-lint --explain <rule>`: per-rule rationale with a minimal
//! bad/good example pair, sourced verbatim from the fixture files the
//! scanner tests pin — so the explanation can never drift from what the
//! rule actually flags.

/// One rule's documentation: why it exists plus a flagged and a clean
/// example (the `tests/fixtures` pair).
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// The rule name as used in findings and `lint:allow`.
    pub name: &'static str,
    /// Why the rule exists — what failure it prevents.
    pub rationale: &'static str,
    /// A minimal flagged example.
    pub bad: &'static str,
    /// The corresponding clean example.
    pub good: &'static str,
}

/// Documentation for every rule, in [`crate::RULE_NAMES`] order.
pub const RULE_DOCS: [RuleDoc; 11] = [
    RuleDoc {
        name: "sim-clock",
        rationale: "All time must flow through the simulated clock (obs::time). One \
                    stray Instant::now() or SystemTime mixes host wall-clock into the \
                    modeled timings and silently corrupts every reported figure.",
        bad: include_str!("../tests/fixtures/sim_clock_bad.rs"),
        good: include_str!("../tests/fixtures/sim_clock_ok.rs"),
    },
    RuleDoc {
        name: "no-panic",
        rationale: "Library code reports errors through typed Results; .unwrap()/.expect() \
                    and panic!/todo!/unimplemented! abort the whole experiment instead of \
                    letting the caller handle the failure. #[cfg(test)] code is exempt.",
        bad: include_str!("../tests/fixtures/no_panic_bad.rs"),
        good: include_str!("../tests/fixtures/no_panic_ok.rs"),
    },
    RuleDoc {
        name: "det-iter",
        rationale: "Result-producing crates must iterate deterministically. HashMap/HashSet \
                    iteration order varies run to run, which changes partition boundaries, \
                    bit-width assignments, and every downstream number; use BTreeMap/BTreeSet.",
        bad: include_str!("../tests/fixtures/det_iter_bad.rs"),
        good: include_str!("../tests/fixtures/det_iter_ok.rs"),
    },
    RuleDoc {
        name: "lossy-cast",
        rationale: "Narrowing `as` casts in quant kernels truncate silently. Quantization \
                    deliberately narrows, but each site must say so: annotate deliberate \
                    truncation with lint:allow(lossy-cast) and a reason.",
        bad: include_str!("../tests/fixtures/lossy_cast_bad.rs"),
        good: include_str!("../tests/fixtures/lossy_cast_ok.rs"),
    },
    RuleDoc {
        name: "no-stray-print",
        rationale: "Library crates stay silent: stdout/stderr belong to the CLI layer. \
                    println!/eprintln! in a library bypass the typed telemetry/metrics \
                    exporters and garble machine-read output.",
        bad: include_str!("../tests/fixtures/no_stray_print_bad.rs"),
        good: include_str!("../tests/fixtures/no_stray_print_ok.rs"),
    },
    RuleDoc {
        name: "dep-hygiene",
        rationale: "Every crate dependency must route through [workspace.dependencies] \
                    (`name = { workspace = true }`) so the offline shim substitution \
                    stays total — a version or path written in a member manifest escapes it.",
        bad: include_str!("../tests/fixtures/dep_hygiene_bad.toml"),
        good: include_str!("../tests/fixtures/dep_hygiene_ok.toml"),
    },
    RuleDoc {
        name: "par-disjoint",
        rationale: "Closures handed to the deterministic parallel runtime may only index \
                    their output slices with identifiers derived from the chunk-range \
                    parameters; a captured or global index is how chunks come to alias, \
                    which the byte-determinism contract forbids.",
        bad: include_str!("../tests/fixtures/par_disjoint_bad.rs"),
        good: include_str!("../tests/fixtures/par_disjoint_ok.rs"),
    },
    RuleDoc {
        name: "unit-confusion",
        rationale: "Host wall-clock seconds (host_seconds, Instant deltas) and simulated \
                    seconds (sim_seconds) must never meet in arithmetic or assignment: \
                    summing them produces a number that is neither, and it looks plausible.",
        bad: include_str!("../tests/fixtures/unit_confusion_bad.rs"),
        good: include_str!("../tests/fixtures/unit_confusion_ok.rs"),
    },
    RuleDoc {
        name: "no-host-block",
        rationale: "A DeviceProgram advances under a single-threaded event loop: every wait \
                    must be a yielded Command. thread::sleep, channel .recv() or timeout \
                    waits inside resume() park the host thread and stall the whole cluster.",
        bad: include_str!("../tests/fixtures/no_host_block_bad.rs"),
        good: include_str!("../tests/fixtures/no_host_block_ok.rs"),
    },
    RuleDoc {
        name: "collective-divergence",
        rationale: "A Barrier/collective yield guarded by a branch or loop whose condition \
                    is rank-tainted (rank, is_master, or data derived from them) means some \
                    ranks may never join the rendezvous — the cluster deadlocks with part \
                    of the fleet parked at the collective. Exhaustive branches whose arms \
                    all yield the same collective trace (master/worker payload splits) are \
                    exempt; a rank-dependent early return poisons everything after it.",
        bad: include_str!("../tests/fixtures/collective_divergence_bad.rs"),
        good: include_str!("../tests/fixtures/collective_divergence_ok.rs"),
    },
    RuleDoc {
        name: "unmatched-comm",
        rationale: "In a lockstep phase (one program on all ranks), a Recv whose peer \
                    normalizes to rank-offset arithmetic needs a Send with the mirrored \
                    offset and the same tag — `recv from rank-1` pairs with `send to \
                    rank+1`. Reversed rings, tag typos, and programs whose every \
                    first-resume path yields Recv (nobody can send first) all deadlock at \
                    runtime with unclaimed mailbox keys. Peers that are not rank \
                    arithmetic are unverifiable and never flagged.",
        bad: include_str!("../tests/fixtures/unmatched_comm_bad.rs"),
        good: include_str!("../tests/fixtures/unmatched_comm_ok.rs"),
    },
];

/// Looks up the documentation for `rule`, if it names a known rule.
pub fn explain_rule(rule: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.name == rule)
}

/// Renders one rule's documentation as the `--explain` output text.
pub fn render(doc: &RuleDoc) -> String {
    format!(
        "rule: {}\n\n{}\n\n--- flagged ---------------------------------------------------\n{}\n--- clean -----------------------------------------------------\n{}",
        doc.name, doc.rationale, doc.bad, doc.good
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RULE_NAMES;

    #[test]
    fn every_rule_has_a_doc_and_every_doc_a_rule() {
        let doc_names: Vec<&str> = RULE_DOCS.iter().map(|d| d.name).collect();
        assert_eq!(doc_names.as_slice(), RULE_NAMES.as_slice());
        for doc in &RULE_DOCS {
            assert!(!doc.rationale.is_empty());
            assert!(!doc.bad.is_empty(), "{} bad example missing", doc.name);
            assert!(!doc.good.is_empty(), "{} good example missing", doc.name);
        }
    }

    #[test]
    fn lookup_finds_known_rules_only() {
        assert!(explain_rule("unmatched-comm").is_some());
        assert!(explain_rule("collective-divergence").is_some());
        assert!(explain_rule("no-such-rule").is_none());
        let out = render(explain_rule("sim-clock").expect("known rule"));
        assert!(out.contains("rule: sim-clock"));
        assert!(out.contains("flagged"));
    }
}
