//! Property tests for skeleton extraction: the awaited-collective skeleton
//! of an `async` device body is purely structural. Inserting comments or
//! blank lines, re-indenting, and moving `lint:allow` directives around
//! must never change the extracted skeletons (modulo source line numbers),
//! or `collective-divergence` findings would flap under cosmetic edits.

use analysis::lexer::{lex, Tok, TokKind};
use analysis::protocol::extract_skeletons;
use proptest::prelude::*;
use std::path::PathBuf;

/// Renders a source file's skeletons with every `line: N` / `end_line: N`
/// occurrence blanked, so positionally-shifted but structurally identical
/// extractions compare equal.
fn skeleton_fingerprint(src: &str) -> String {
    let toks = lex(src);
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let rendered = format!("{:#?}", extract_skeletons(&code));
    let mut out = String::new();
    let mut rest = rendered.as_str();
    while let Some(pos) = rest.find("line: ") {
        out.push_str(&rest[..pos + 6]);
        out.push('_');
        rest = &rest[pos + 6..];
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        rest = &rest[digits..];
    }
    out.push_str(rest);
    out
}

/// Applies a perturbation plan. Each step is `(position seed, kind)`:
/// kind 0 inserts a comment line, kind 1 a blank line, kind 2 re-indents a
/// line, kind 3 moves one `lint:allow` comment line somewhere else. All
/// four are token-stream no-ops for the skeleton extractor on sources
/// without multi-line string literals (true of both pinned files).
fn perturb(src: &str, plan: &[(usize, usize)]) -> String {
    let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
    for &(seed, kind) in plan {
        match kind {
            0 => {
                let at = seed % (lines.len() + 1);
                lines.insert(at, format!("// perturbation noise {seed}"));
            }
            1 => {
                let at = seed % (lines.len() + 1);
                lines.insert(at, String::new());
            }
            2 => {
                let at = seed % lines.len();
                lines[at] = format!("    {}", lines[at]);
            }
            _ => {
                let allow_at: Vec<usize> = lines
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.trim_start().starts_with("// lint:allow("))
                    .map(|(i, _)| i)
                    .collect();
                if allow_at.is_empty() {
                    continue;
                }
                let from = allow_at[seed % allow_at.len()];
                let moved = lines.remove(from);
                let to = seed.wrapping_mul(7) % (lines.len() + 1);
                lines.insert(to, moved.trim_start().to_string());
            }
        }
    }
    lines.join("\n")
}

fn pinned_source(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shipped_skeletons_survive_cosmetic_perturbation(
        plan in proptest::collection::vec((0usize..1000, 0usize..4), 1..10),
    ) {
        let src = pinned_source("crates/core/src/trainers.rs");
        let base = skeleton_fingerprint(&src);
        // The trainer's epoch: halo exchanges, the gradient allreduce and
        // the assigner round — a nontrivial baseline.
        prop_assert!(base.contains("allreduce_sum_f32"));
        prop_assert!(base.contains("reassign"));
        let shaken = skeleton_fingerprint(&perturb(&src, &plan));
        prop_assert_eq!(base, shaken, "plan {:?} changed the skeletons", plan);
    }

    #[test]
    fn planted_test_skeletons_survive_cosmetic_perturbation(
        plan in proptest::collection::vec((0usize..700, 0usize..4), 1..10),
    ) {
        let src = pinned_source("crates/analysis/tests/fixtures/collective_divergence_bad.rs");
        let base = skeleton_fingerprint(&src);
        prop_assert!(base.contains("allreduce_sum_f32"));
        let shaken = skeleton_fingerprint(&perturb(&src, &plan));
        prop_assert_eq!(base, shaken, "plan {:?} changed the skeletons", plan);
    }
}
