//! # adaqp-lint — workspace static analysis for simulation invariants
//!
//! The reproduction's headline numbers rest on a simulated clock and on
//! bit-deterministic, deadlock-free device programs. What the compiler can
//! hold, it holds: no `Instant`/`SystemTime` and no `HashMap`/`HashSet`
//! (clippy's `disallowed_types`), no host-blocking calls (clippy's
//! `disallowed_methods`, both configured in `clippy.toml`), host seconds
//! typed apart from simulated ones (`obs::time::HostSeconds`), disjoint
//! parallel writes (safe Rust's borrow rules), and no panics, prints or
//! unmarked truncating casts in library code. This crate checks the two
//! things no type can say: that every crate routes its dependencies
//! through the workspace (`dep-hygiene`), and that `async` device bodies
//! reach the same collectives on every rank (`collective-divergence`). It
//! is offline and dependency-free: with no network or registry there is no
//! `syn`, so a hand-rolled comment/string/raw-string-aware token scanner
//! ([`lexer`]) feeds a small rule engine ([`rules`]).
//!
//! Run it over the workspace:
//!
//! ```text
//! cargo run -p analysis --release -- --workspace
//! ```
//!
//! or over scratch files / fixtures (every rule active):
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
pub mod workspace;

pub use explain::{explain_rule, RuleDoc};
pub use protocol::{extract_skeletons, Skeleton};
pub use rules::{to_json, Finding, RULE_NAMES};
pub use workspace::{find_root, scan_path, scan_workspace, ScanError};
