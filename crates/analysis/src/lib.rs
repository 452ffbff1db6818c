//! # adaqp-lint — workspace static analysis for simulation invariants
//!
//! The reproduction's headline numbers rest on a simulated clock and on
//! bit-deterministic, deadlock-free device programs. What a type can say —
//! no `Instant`/`SystemTime` and no `HashMap`/`HashSet` (clippy's
//! `disallowed_types`, configured in `clippy.toml`), no panics, prints or
//! unmarked truncating casts in library code — rustc and clippy check. This
//! crate checks the rest: parallel closures that write disjoint chunks,
//! host and simulated seconds that never meet, device code that never
//! blocks the host, and `async` device bodies whose rank-dependent
//! branches reach the same collectives. It is offline and dependency-free: with no network or
//! registry there is no `syn`, so a hand-rolled
//! comment/string/raw-string-aware token scanner ([`lexer`]) feeds a small
//! rule engine ([`rules`]).
//!
//! Run it over the workspace:
//!
//! ```text
//! cargo run -p analysis --release -- --workspace
//! ```
//!
//! or over scratch files / fixtures (all token rules active):
//!
//! ```text
//! cargo run -p analysis --release -- path/to/file.rs
//! ```
//!
//! Exit status is nonzero when any unsuppressed violation exists; each is
//! reported as `file:line: [rule] message`. Violations are suppressed only
//! by `// lint:allow(<rule>): <reason>` on the offending line, so every
//! exception carries its justification in-tree. See `DESIGN.md` §7 for the
//! rule inventory and rationale.

// Library code returns errors and stays silent (DESIGN.md §7);
// `#[cfg(test)]` code, bins and tests are exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]
#![warn(missing_docs)]

pub mod explain;
pub mod lexer;
pub mod protocol;
pub mod rules;
pub mod scopes;
pub mod workspace;

pub use explain::{explain_rule, RuleDoc};
pub use protocol::{extract_skeletons, Skeleton};
pub use rules::{to_json, Finding, RULE_NAMES};
pub use workspace::{find_root, scan_path, scan_workspace, ScanError};
