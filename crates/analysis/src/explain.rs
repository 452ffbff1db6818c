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
pub const RULE_DOCS: [RuleDoc; 2] = [
    RuleDoc {
        name: "dep-hygiene",
        rationale: "Every crate dependency must route through [workspace.dependencies] \
                    (`name = { workspace = true }`) so the offline shim substitution \
                    stays total — a version or path written in a member manifest escapes it.",
        bad: include_str!("../tests/fixtures/dep_hygiene_bad.toml"),
        good: include_str!("../tests/fixtures/dep_hygiene_ok.toml"),
    },
    RuleDoc {
        name: "collective-divergence",
        rationale: "Every .await in an async device body is a cluster wait, so the sequence \
                    of awaited callees is the body's collective protocol. A branch whose \
                    condition is rank-tainted (rank, .rank(), part.rank, is_master, the \
                    Option a gather returns, or a let derived from them) must await the same \
                    callee sequence on every arm; a rank-tainted loop must not await; the \
                    root of a gather/scatter/broadcast must not be rank-tainted. Otherwise \
                    ranks enter different collectives (a CollectiveMismatch) or some never \
                    enter one (a Deadlock). A `?` exit is an error path, not a skipped \
                    collective: the runner reports the lowest failing rank's error ahead of \
                    the stall its peers then hit. An explicit `return` counts.",
        bad: include_str!("../tests/fixtures/collective_divergence_bad.rs"),
        good: include_str!("../tests/fixtures/collective_divergence_ok.rs"),
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
        assert!(explain_rule("collective-divergence").is_some());
        assert!(explain_rule("no-such-rule").is_none());
        let out = render(explain_rule("dep-hygiene").expect("known rule"));
        assert!(out.contains("rule: dep-hygiene"));
        assert!(out.contains("flagged"));
    }
}
