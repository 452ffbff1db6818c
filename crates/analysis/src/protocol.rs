//! The `collective-divergence` rule over the `async` device bodies that
//! ship.
//!
//! Every `.await` in a device body (an `async fn` or `async` block, found by
//! the same walker `no-host-block` uses) is a cluster wait: the adapter that
//! polls a body (`comm::cluster::AsyncProgram`) treats a body that waits on
//! anything but the cluster as unreachable. So the sequence of awaited
//! callees *is* the body's collective protocol, and one program on every
//! rank stays in lockstep exactly when no rank-dependent decision changes
//! that sequence. This module extracts, per device body, a **skeleton** —
//! the awaited callees in source order, with the branches and loops around
//! them — and flags three shapes:
//!
//! * a rank-tainted branch (`if`/`else` chain or `match`) whose arms await
//!   different callee sequences: ranks that take different arms enter
//!   different collectives (a mismatch) or one never enters it (a stall);
//! * a rank-tainted loop whose body awaits: ranks run it a different number
//!   of times;
//! * a rank-tainted `root` (first argument) of `gather`, `scatter` or
//!   `broadcast`: every rank must name the same root.
//!
//! Taint sources are the identifiers `rank` (`rank`, `.rank()`,
//! `part.rank`) and `is_master`, a `gather` (the `Option` it returns is
//! `Some` on the root only), and every `let` binding whose initializer
//! mentions a tainted identifier. A `?` exit is an error path, not a skipped
//! collective: it is not part of the sequence (the runner reports the
//! lowest failing rank's error ahead of the stall its peers then hit). An
//! explicit `return` is: a rank that returns early never reaches what
//! follows. The analysis is per body — an awaited helper is one callee,
//! and the helper's own body is checked where it is defined.

use crate::lexer::{Tok, TokKind};
use crate::rules::{device_body, Finding};
use crate::scopes::matching;
use std::collections::BTreeSet;

/// Collectives whose first argument is the root every rank must agree on.
const ROOTED: [&str; 3] = ["gather", "scatter", "broadcast"];

/// One node of a device body's skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An `.await` on `callee` (the called function or method, or the
    /// awaited local); `tainted_root` marks a rooted collective whose root
    /// argument is rank-dependent.
    Await {
        /// The awaited callee's name.
        callee: String,
        /// 1-based source line of the `await`.
        line: u32,
        /// A `gather`/`scatter`/`broadcast` whose root is rank-tainted.
        tainted_root: bool,
    },
    /// An explicit `return`.
    Return,
    /// An `if`/`else` chain or `match`; a chain without a final `else`
    /// gets an empty arm for the fall-through.
    Branch {
        /// 1-based line of the `if` / `match` keyword.
        line: u32,
        /// The condition, scrutinee or a guard is rank-tainted.
        tainted: bool,
        /// The arms, in source order.
        arms: Vec<Vec<Node>>,
    },
    /// A `for` / `while` / `loop`.
    Loop {
        /// 1-based line of the loop keyword.
        line: u32,
        /// The header is rank-tainted.
        tainted: bool,
        /// The body.
        body: Vec<Node>,
    },
}

/// The skeleton of one device body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skeleton {
    /// 1-based line where the body starts.
    pub line: u32,
    /// Top-level nodes in source order.
    pub nodes: Vec<Node>,
}

/// Extracts the skeleton of every outermost device body in a comment-free
/// token slice (an `async` block inside an `async fn` is part of the fn's).
pub fn extract_skeletons(code: &[&Tok]) -> Vec<Skeleton> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let Some(open) = device_body(code, i) else {
            i += 1;
            continue;
        };
        let close = matching(code, open);
        let mut walker = Walker {
            code,
            taint: BTreeSet::new(),
        };
        out.push(Skeleton {
            line: code[i].line,
            nodes: walker.seq(open + 1, close),
        });
        i = close + 1;
    }
    out
}

struct Walker<'a> {
    code: &'a [&'a Tok],
    /// `let` bindings derived from rank-local values.
    taint: BTreeSet<String>,
}

impl Walker<'_> {
    fn tainted(&self, lo: usize, hi: usize) -> bool {
        self.code[lo..hi.min(self.code.len())].iter().any(|t| {
            t.kind == TokKind::Ident
                && (matches!(t.text.as_str(), "rank" | "is_master" | "gather")
                    || self.taint.contains(&t.text))
        })
    }

    /// The first `c` at bracket depth 0 (parens and brackets only, so a
    /// condition's `{` is found past any closure arguments) in `lo..hi`.
    fn find(&self, lo: usize, hi: usize, c: char, braces: bool) -> usize {
        let mut depth = 0usize;
        for k in lo..hi.min(self.code.len()) {
            let t = self.code[k];
            if t.is_punct('(') || t.is_punct('[') || (braces && t.is_punct('{')) {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || (braces && t.is_punct('}')) {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(c) {
                return k;
            }
        }
        hi
    }

    fn seq(&mut self, lo: usize, hi: usize) -> Vec<Node> {
        let mut nodes = Vec::new();
        let mut i = lo;
        while i < hi.min(self.code.len()) {
            let t = self.code[i];
            if t.is_ident("let") {
                // Taint the pattern, then walk on into the initializer.
                let end = self.find(i + 1, hi, ';', true);
                let eq = self.find(i + 1, end, '=', false);
                if self.tainted(eq, end) {
                    let pattern = &self.code[i + 1..eq];
                    let idents = pattern.iter().filter(|t| t.kind == TokKind::Ident);
                    self.taint.extend(idents.map(|t| t.text.clone()));
                }
                i = eq + 1;
            } else if t.is_ident("if") || t.is_ident("match") {
                i = self.branch(i, hi, &mut nodes);
            } else if t.is_ident("for") || t.is_ident("while") || t.is_ident("loop") {
                let open = self.find(i + 1, hi, '{', false);
                if open >= hi {
                    break;
                }
                let close = matching(self.code, open);
                let tainted = self.tainted(i + 1, open);
                let mut body = self.seq(i + 1, open);
                body.extend(self.seq(open + 1, close));
                let line = t.line;
                nodes.push(Node::Loop {
                    line,
                    tainted,
                    body,
                });
                i = close + 1;
            } else if t.is_ident("return") {
                nodes.push(Node::Return);
                i += 1;
            } else if t.is_ident("await") && i > 0 && self.code[i - 1].is_punct('.') {
                nodes.push(self.await_node(i));
                i += 1;
            } else {
                i += 1;
            }
        }
        nodes
    }

    /// The `Await` node for the `await` at `i`: the callee is the name in
    /// front of the call's argument list, or the awaited local itself.
    fn await_node(&self, i: usize) -> Node {
        let before = i.saturating_sub(2);
        let (callee_at, args) = if self.code[before].is_punct(')') {
            let mut open = before;
            let mut depth = 0usize;
            while open > 0 {
                if self.code[open].is_punct(')') {
                    depth += 1;
                } else if self.code[open].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                open -= 1;
            }
            (open.saturating_sub(1), Some((open + 1, before)))
        } else {
            (before, None)
        };
        let callee = self.code[callee_at].text.clone();
        let tainted_root = ROOTED.contains(&callee.as_str())
            && args.is_some_and(|(lo, hi)| self.tainted(lo, self.find(lo, hi, ',', true)));
        let line = self.code[i].line;
        Node::Await {
            callee,
            line,
            tainted_root,
        }
    }

    /// Walks the `if`/`else` chain or `match` at `i`, pushing the awaits of
    /// its condition (or scrutinee) and then the branch; returns the index
    /// past it.
    fn branch(&mut self, i: usize, hi: usize, nodes: &mut Vec<Node>) -> usize {
        let line = self.code[i].line;
        let mut tainted = false;
        let mut arms = Vec::new();
        let mut at = i;
        let next = loop {
            // `at` is an `if` or `match` keyword.
            let open = self.find(at + 1, hi, '{', false);
            if open >= hi {
                break hi;
            }
            let close = matching(self.code, open);
            tainted |= self.tainted(at + 1, open);
            nodes.extend(self.seq(at + 1, open));
            if self.code[at].is_ident("match") {
                tainted |= self.match_arms(open, close, &mut arms);
                break close + 1;
            }
            arms.push(self.seq(open + 1, close));
            let after = close + 1;
            if !self.code.get(after).is_some_and(|t| t.is_ident("else")) {
                arms.push(Vec::new());
                break after;
            }
            if self.code.get(after + 1).is_some_and(|t| t.is_ident("if")) {
                at = after + 1;
                continue;
            }
            let close = matching(self.code, after + 1);
            arms.push(self.seq(after + 2, close));
            break close + 1;
        };
        nodes.push(Node::Branch {
            line,
            tainted,
            arms,
        });
        next
    }

    /// Pushes the arms of the `match` body `open..close`; returns whether a
    /// guard is rank-tainted.
    fn match_arms(&mut self, open: usize, close: usize, arms: &mut Vec<Vec<Node>>) -> bool {
        let mut tainted = false;
        let mut k = open + 1;
        while k < close {
            let arrow = (k..close)
                .find(|&j| {
                    self.code[j].is_punct('=')
                        && self.code.get(j + 1).is_some_and(|t| t.is_punct('>'))
                })
                .unwrap_or(close);
            let guard = (k..arrow).find(|&j| self.code[j].is_ident("if"));
            tainted |= guard.is_some_and(|g| self.tainted(g, arrow));
            let body = arrow + 2;
            let end = if self.code.get(body).is_some_and(|t| t.is_punct('{')) {
                matching(self.code, body) + 1
            } else {
                self.find(body, close, ',', true)
            };
            arms.push(self.seq(body, end.min(close)));
            k = end + usize::from(self.code.get(end).is_some_and(|t| t.is_punct(',')));
        }
        tainted
    }
}

/// The awaited-callee sequence of `nodes`, nested branches and loops
/// rendered structurally, for comparing arms.
fn signature(nodes: &[Node]) -> String {
    let parts: Vec<String> = nodes
        .iter()
        .map(|node| match node {
            Node::Await { callee, .. } => callee.clone(),
            Node::Return => "return".into(),
            Node::Branch { arms, .. } => {
                let arms: Vec<String> = arms.iter().map(|a| signature(a)).collect();
                if arms.windows(2).all(|w| w[0] == w[1]) {
                    arms.first().cloned().unwrap_or_default()
                } else {
                    format!("({})", arms.join(" | "))
                }
            }
            Node::Loop { body, .. } => match signature(body) {
                inner if inner.is_empty() => inner,
                inner => format!("loop({inner})"),
            },
        })
        .filter(|s| !s.is_empty())
        .collect();
    parts.join(", ")
}

/// Runs `collective-divergence` over every device body in `code` outside
/// the `#[cfg(test)]` ranges, appending raw findings.
pub fn check(display_path: &str, code: &[&Tok], exempt: &[(u32, u32)], raw: &mut Vec<Finding>) {
    let mut push = |line: u32, message: String| {
        raw.push(Finding {
            id: String::new(),
            file: display_path.to_string(),
            line,
            rule: "collective-divergence",
            message,
        });
    };
    for sk in extract_skeletons(code) {
        if !exempt.iter().any(|&(a, b)| sk.line >= a && sk.line <= b) {
            walk(&sk.nodes, &mut push);
        }
    }
}

fn walk(nodes: &[Node], push: &mut impl FnMut(u32, String)) {
    for node in nodes {
        match node {
            Node::Await {
                callee,
                line,
                tainted_root: true,
            } => push(
                *line,
                format!(
                    "`{callee}` root is rank-dependent; every rank must name the same root \
                     or the collective is a mismatch"
                ),
            ),
            Node::Await { .. } | Node::Return => {}
            Node::Branch {
                line,
                tainted,
                arms,
            } => {
                let sigs: Vec<String> =
                    arms.iter().map(|a| format!("[{}]", signature(a))).collect();
                if *tainted && sigs.windows(2).any(|w| w[0] != w[1]) {
                    push(
                        *line,
                        format!(
                            "rank-dependent branch awaits {} on different arms; ranks that \
                             take different arms reach different collectives and the cluster \
                             stalls or mismatches",
                            sigs.join(" vs ")
                        ),
                    );
                }
                for arm in arms {
                    walk(arm, push);
                }
            }
            Node::Loop {
                line,
                tainted,
                body,
            } => {
                let sig = signature(body);
                if *tainted && !sig.is_empty() {
                    push(
                        *line,
                        format!(
                            "rank-dependent loop awaits [{sig}] each iteration; ranks that \
                             iterate a different number of times desynchronize their collectives"
                        ),
                    );
                }
                walk(body, push);
            }
        }
    }
}
