//! Communication-skeleton extraction and protocol-conformance rules.
//!
//! Every [`crate::rules`] rule so far asks a *local* question ("may this
//! identifier appear here?"). Deadlocks are not local: a `DeviceProgram`
//! whose ring exchange flips a peer expression, or whose `Barrier` hides
//! under a rank-dependent branch, compiles fine and only fails at runtime
//! as a `ClusterError::Deadlock`. This module extracts a per-impl
//! **communication skeleton** — a small control-flow tree over the yield
//! points (`Command::{Send,Recv,Barrier,…}` constructions), branches and
//! loops of each `impl … DeviceProgram for …` block — and checks it as two
//! rules:
//!
//! * **`collective-divergence`** — a collective yield reachable under a
//!   branch or loop whose condition is tainted by rank-local data (`rank`,
//!   `is_master`, or a `let` derived from them), so some ranks may never
//!   join the rendezvous. Exhaustive branches whose arms all yield the
//!   same collective trace are exempt (the master/worker `Gather` idiom
//!   diverges in payload, not in protocol). A rank-tainted early exit
//!   poisons the rest of the sequence: ranks that returned cannot join a
//!   later collective.
//! * **`unmatched-comm`** — within a lockstep phase (one program on all
//!   ranks), a `Recv { src, tag }` whose peer normalizes to rank-offset
//!   arithmetic (`(rank + k) % n`) that no reachable `Send` mirrors with
//!   the opposite offset and the same tag — catching reversed rings and
//!   tag typos — plus a first-yield pass: if *every* first-resume path
//!   yields a `Recv`, no rank can ever produce the first message
//!   (recv-before-send cycle).
//!
//! Both rules are deliberately conservative. Peers that do not normalize
//! to `rank ± k (mod n)` with `|k| <= 2` are unverifiable and never
//! flagged; impls with no `Send` at all are assumed to be one half of a
//! heterogeneous pairing and skipped by the mirror check; anything the
//! extractor cannot see (commands built outside the impl, trait-object
//! indirection) yields an empty skeleton, which is always clean. The
//! escape hatch is the standard `// lint:allow(<rule>): <reason>`. The
//! runtime twin of this pass is `comm::waitgraph` — the wait-for graph a
//! real deadlock produces names the same ranks these rules predict
//! (`examples/deadlock_gallery.rs` pins the pairing).

use crate::lexer::{Tok, TokKind};
use crate::rules::Finding;
use crate::scopes;
use std::collections::{BTreeMap, BTreeSet};

/// `Resume` variants that answer a previous yield: a match arm naming one
/// of these (and not `Start`) cannot be taken on the first resumption.
pub(crate) const RESPONSE_VARIANTS: [&str; 8] = [
    "Sent",
    "Received",
    "BarrierDone",
    "RingDone",
    "BroadcastDone",
    "GatherDone",
    "ScatterDone",
    "Advanced",
];

/// Command kinds that park every rank at a rendezvous.
const COLLECTIVE_KINDS: [&str; 5] = ["Barrier", "RingAll2All", "Broadcast", "Gather", "Scatter"];

/// A peer expression, normalized for mirror-matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Peer {
    /// `(rank + k) % n` for `|k| <= 2` (`n`-multiples contribute 0). Only
    /// expressions carrying an explicit `% n` wrap normalize here; an
    /// unwrapped `rank + k` can leave `0..n` at the edge ranks and stays
    /// [`Peer::Other`].
    Offset(i64),
    /// A constant rank (roots, masters).
    Literal(i64),
    /// `n + k` without a wrap: a constant relative to the device count
    /// (`n - 1` is the last rank; `n + 2` is out of range on every
    /// cluster, the shape behind `ClusterError::InvalidPeer`).
    NRelative(i64),
    /// Anything the normalizer cannot verify; never flagged.
    Other(String),
}

impl Peer {
    /// Concretely evaluates the peer for `rank` out of `n`. `Offset` wraps
    /// into the ring and is always in range; `Literal` and `NRelative`
    /// evaluate as written and may land outside `0..n` (the model checker
    /// turns that into an `invalid-peer` violation). `Other` is
    /// unverifiable and evaluates to `None`.
    pub fn eval(&self, rank: usize, n: usize) -> Option<i64> {
        match self {
            Peer::Offset(k) => {
                let n = n as i64;
                Some(((rank as i64 + k) % n + n) % n)
            }
            Peer::Literal(v) => Some(*v),
            Peer::NRelative(k) => Some(n as i64 + k),
            Peer::Other(_) => None,
        }
    }
}

/// One yield point of the skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommOp {
    /// `Command::Send { dst, tag, .. }` construction.
    Send {
        /// Normalized destination.
        peer: Peer,
        /// Tag expression text (after one `let` resolution).
        tag: String,
        /// 1-based source line.
        line: u32,
    },
    /// `Command::Recv { src, tag }` construction.
    Recv {
        /// Normalized source.
        peer: Peer,
        /// Tag expression text (after one `let` resolution).
        tag: String,
        /// 1-based source line.
        line: u32,
    },
    /// A collective construction (`Barrier`, `RingAll2All`, …).
    Collective {
        /// The command kind identifier.
        kind: String,
        /// 1-based source line.
        line: u32,
    },
}

/// One node of the communication skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A yield point.
    Yield(CommOp),
    /// An `if`/`else` chain or `match`.
    Branch(Branch),
    /// A `for`/`while`/`loop` body.
    Loop(LoopNode),
}

/// A branch over arms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    /// 1-based line of the branch keyword.
    pub line: u32,
    /// Condition/scrutinee mentions rank-local data.
    pub rank_tainted: bool,
    /// Every control path goes through an arm (`match`, or `if` with a
    /// final `else`).
    pub exhaustive: bool,
    /// The branch dispatches on the `Resume` input (so at the first
    /// resumption exactly one arm — the one matching `Start` — is live).
    pub resume_match: bool,
    /// The arms, in source order.
    pub arms: Vec<Arm>,
}

/// How a branch arm is selected, for concrete per-rank resolution in the
/// model checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArmCond {
    /// A `match` arm: dispatch is by pattern (see [`Arm::variants`]).
    Pattern,
    /// An `if`/`else if` arm; `Some` when the condition resolves to a
    /// concrete rank test, `None` when it is opaque.
    If(Option<RankCond>),
    /// The final `else` arm: taken whenever no earlier arm was.
    Else,
}

/// A branch condition that resolves to a concrete test on the rank — the
/// declared master/worker split the model checker instantiates exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankCond {
    /// True exactly on this rank (`is_master`, `rank == 0`, …).
    IsRank(i64),
    /// True on every rank but this one (`!is_master`, `rank != 0`,
    /// `rank > 0`).
    IsNotRank(i64),
}

impl RankCond {
    /// Whether the condition holds on `rank`.
    pub fn holds(&self, rank: usize) -> bool {
        match self {
            RankCond::IsRank(r) => rank as i64 == *r,
            RankCond::IsNotRank(r) => rank as i64 != *r,
        }
    }
}

/// One branch arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arm {
    /// This arm can be taken on the very first resumption.
    pub live_at_first: bool,
    /// The arm body mentions `return` or `Done` (it may end the program
    /// or exit `resume` early).
    pub has_exit: bool,
    /// How the arm is selected (`match` pattern, `if` condition, `else`).
    pub cond: ArmCond,
    /// `Start`/response variants named by the pattern or condition; empty
    /// means a wildcard or binding pattern that matches anything.
    pub variants: Vec<String>,
    /// The `match` pattern carries an `if` guard, so matching the variant
    /// does not guarantee the arm is taken.
    pub guarded: bool,
    /// Nested skeleton nodes.
    pub nodes: Vec<Node>,
}

/// A loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNode {
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// The bound/condition mentions rank-local data.
    pub rank_tainted: bool,
    /// Nested skeleton nodes.
    pub nodes: Vec<Node>,
}

/// The communication skeleton of one `DeviceProgram` impl.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skeleton {
    /// The implementing type's name.
    pub impl_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// 1-based line of the impl block's closing brace.
    pub end_line: u32,
    /// Top-level nodes in source order.
    pub nodes: Vec<Node>,
}

/// A same-file free helper function whose body contains `Command`
/// constructions: a yield point hidden behind a call. Skeleton extraction
/// inlines these at their call sites (with argument substitution, so peer
/// offsets survive), closing the soundness hole where a reversed recv
/// inside a helper was invisible to the protocol rules. Methods (any `fn`
/// with a `self` receiver, like the `DeviceCtx` command wrappers) are
/// deliberately excluded: only plain `name(args)` calls inline.
struct Helper {
    /// Parameter names in order.
    params: Vec<String>,
    /// Token indices of the body's `{` and matching `}`.
    body: (usize, usize),
}

/// Collects every same-file free `fn` (except `resume` itself) whose body
/// constructs `Command`s, keyed by name.
fn collect_helpers(code: &[&Tok]) -> BTreeMap<String, Helper> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if !code[i].is_ident("fn") || code[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = code[i + 1].text.clone();
        // Find the parameter list, stopping at a body or item end so a
        // malformed header cannot send us scanning the whole file.
        let mut j = i + 2;
        while j < code.len()
            && !code[j].is_punct('(')
            && !code[j].is_punct('{')
            && !code[j].is_punct(';')
        {
            j += 1;
        }
        if j >= code.len() || !code[j].is_punct('(') {
            i += 1;
            continue;
        }
        let close_paren = scopes::matching(code, j);
        let mut params = Vec::new();
        let mut has_receiver = false;
        let mut k = j + 1;
        while k < close_paren {
            let end = {
                // Split one parameter at the next depth-0 comma.
                let mut depth = 0usize;
                let mut e = k;
                while e < close_paren {
                    let t = code[e];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && t.is_punct(',') {
                        break;
                    }
                    e += 1;
                }
                e
            };
            let seg = &code[k..end];
            let colon = seg.iter().position(|t| t.is_punct(':'));
            let name_tok = seg[..colon.unwrap_or(seg.len())]
                .iter()
                .find(|t| t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref"));
            if seg.iter().any(|t| t.is_ident("self")) {
                has_receiver = true;
            } else if let Some(t) = name_tok {
                params.push(t.text.clone());
            }
            k = end + 1;
        }
        // The body `{` follows the return type (whose `Step<()>` parens are
        // already balanced); a `;` first means a bodyless declaration.
        let mut b = close_paren + 1;
        while b < code.len() && !code[b].is_punct('{') && !code[b].is_punct(';') {
            b += 1;
        }
        if b >= code.len() || !code[b].is_punct('{') {
            i = close_paren + 1;
            continue;
        }
        let body_close = scopes::matching(code, b);
        let has_commands = (b..body_close.min(code.len())).any(|x| {
            code[x].is_ident("Command")
                && code.get(x + 1).is_some_and(|t| t.is_punct(':'))
                && code.get(x + 2).is_some_and(|t| t.is_punct(':'))
        });
        if has_commands && !has_receiver && name != "resume" {
            out.insert(
                name,
                Helper {
                    params,
                    body: (b, body_close),
                },
            );
        }
        // Continue from inside the header so nested fns are still found.
        i = b + 1;
    }
    out
}

/// Extracts the communication skeleton of every `impl … DeviceProgram …
/// for …` block in a comment-free token slice. Calls to same-file helper
/// functions containing `Command` constructions are inlined with argument
/// substitution (see `Helper`).
pub fn extract_skeletons(code: &[&Tok]) -> Vec<Skeleton> {
    let helpers = collect_helpers(code);
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let impl_line = code[i].line;
        let mut j = i + 1;
        let (mut saw_trait, mut for_at) = (false, None);
        while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
            if code[j].is_ident("DeviceProgram") {
                saw_trait = true;
            } else if code[j].is_ident("for") && for_at.is_none() {
                for_at = Some(j);
            }
            j += 1;
        }
        let (Some(for_at), true) = (for_at, saw_trait) else {
            i = j + 1;
            continue;
        };
        if j >= code.len() || !code[j].is_punct('{') {
            i = j + 1;
            continue;
        }
        let impl_name = code[(for_at + 1)..j]
            .iter()
            .find(|t| t.kind == TokKind::Ident)
            .map_or_else(|| "?".to_string(), |t| t.text.clone());
        let close = scopes::matching(code, j);
        let mut parser = Parser {
            code,
            taint: BTreeSet::new(),
            defs: BTreeMap::new(),
            helpers: &helpers,
            inlining: Vec::new(),
        };
        let end_line = code
            .get(close.min(code.len().saturating_sub(1)))
            .map_or(impl_line, |t| t.line);
        out.push(Skeleton {
            impl_name,
            line: impl_line,
            end_line,
            nodes: parser.parse_seq(j + 1, close.min(code.len())),
        });
        i = close + 1;
    }
    out
}

/// True when `text` is intrinsically rank-local.
fn is_rank_marker(text: &str) -> bool {
    text == "rank" || text == "is_master"
}

struct Parser<'a> {
    code: &'a [&'a Tok],
    /// Identifiers carrying rank-local values (markers plus `let` taint).
    taint: BTreeSet<String>,
    /// Single-binding `let` initializers, for peer/tag resolution.
    defs: BTreeMap<String, Vec<String>>,
    /// Same-file command-bearing helpers, inlined at call sites.
    helpers: &'a BTreeMap<String, Helper>,
    /// Helper names currently being inlined (recursion/depth guard).
    inlining: Vec<String>,
}

impl Parser<'_> {
    fn mentions_rank(&self, lo: usize, hi: usize) -> bool {
        self.code[lo..hi.min(self.code.len())].iter().any(|t| {
            t.kind == TokKind::Ident && (is_rank_marker(&t.text) || self.taint.contains(&t.text))
        })
    }

    fn mentions_ident(&self, lo: usize, hi: usize, name: &str) -> bool {
        self.code[lo..hi.min(self.code.len())]
            .iter()
            .any(|t| t.is_ident(name))
    }

    fn mentions_response_variant(&self, lo: usize, hi: usize) -> bool {
        self.code[lo..hi.min(self.code.len())]
            .iter()
            .any(|t| RESPONSE_VARIANTS.iter().any(|v| t.is_ident(v)))
    }

    /// Scans forward to the first occurrence of `c` at delimiter depth 0,
    /// starting at `lo`; returns `hi` if not found.
    fn find_at_depth(&self, lo: usize, hi: usize, c: char) -> usize {
        let mut depth = 0usize;
        for (k, t) in self
            .code
            .iter()
            .enumerate()
            .take(hi.min(self.code.len()))
            .skip(lo)
        {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(c) {
                return k;
            }
        }
        hi
    }

    /// Parses a statement/expression sequence into skeleton nodes. Plain
    /// braces are transparent; `let`, branches, loops and `Command`
    /// constructions are structured.
    fn parse_seq(&mut self, lo: usize, hi: usize) -> Vec<Node> {
        let mut nodes = Vec::new();
        let mut i = lo;
        while i < hi.min(self.code.len()) {
            let t = self.code[i];
            if t.is_ident("let") {
                i = self.handle_let(i, hi);
            } else if t.is_ident("if") {
                let (branch, next) = self.parse_if(i, hi);
                nodes.push(Node::Branch(branch));
                i = next;
            } else if t.is_ident("match") {
                let (branch, next) = self.parse_match(i, hi);
                nodes.push(Node::Branch(branch));
                i = next;
            } else if t.is_ident("for") || t.is_ident("while") || t.is_ident("loop") {
                let (lp, next) = self.parse_loop(i, hi);
                nodes.push(Node::Loop(lp));
                i = next;
            } else if t.is_ident("Command")
                && self.code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && self.code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                let (op, next) = self.parse_command(i, hi);
                if let Some(op) = op {
                    nodes.push(Node::Yield(op));
                }
                i = next;
            } else if t.is_ident("fn")
                && self
                    .code
                    .get(i + 1)
                    .is_some_and(|t| self.helpers.contains_key(&t.text))
            {
                // A helper *definition* nested in the walked range: its body
                // is spliced at call sites, so walking it here would double
                // count its yields.
                let open = self.find_at_depth(i + 2, hi, '{');
                i = if open >= hi {
                    open
                } else {
                    scopes::matching(self.code, open) + 1
                };
            } else if t.kind == TokKind::Ident
                && self.code.get(i + 1).is_some_and(|n| n.is_punct('('))
                && self.helpers.contains_key(&t.text)
                && !self.code.get(i.wrapping_sub(1)).is_some_and(|p| {
                    // Only plain free-function calls inline: not a
                    // definition (`fn name(`), a path call (`T::name(`) or
                    // a method call (`x.name(`).
                    p.is_ident("fn") || p.is_punct(':') || p.is_punct('.')
                })
            {
                let next = self.inline_call(&t.text.clone(), i, &mut nodes);
                i = next;
            } else {
                i += 1;
            }
        }
        nodes
    }

    /// Inlines a call to a command-bearing helper at token `i` (the callee
    /// ident, followed by `(`): parses the helper body with the call's
    /// argument tokens substituted for its parameters, splicing the
    /// resulting nodes in place. Recursive or deeply nested helper chains
    /// fall back to the old opaque-call behavior.
    fn inline_call(&mut self, name: &str, i: usize, nodes: &mut Vec<Node>) -> usize {
        let close = scopes::matching(self.code, i + 1);
        let helper = match self.helpers.get(name) {
            Some(h) if !self.inlining.iter().any(|s| s == name) && self.inlining.len() < 3 => h,
            _ => return i + 1,
        };
        // Split the argument list at depth-0 commas.
        let mut args: Vec<Vec<String>> = Vec::new();
        let mut k = i + 2;
        while k < close {
            let end = self.find_at_depth_all(k, close, ',');
            let texts: Vec<String> = self.code[k..end.min(self.code.len())]
                .iter()
                .map(|t| t.text.clone())
                .collect();
            if !texts.is_empty() {
                args.push(texts);
            }
            k = end + 1;
        }
        let mut child = Parser {
            code: self.code,
            taint: self.taint.clone(),
            defs: self.defs.clone(),
            helpers: self.helpers,
            inlining: {
                let mut s = self.inlining.clone();
                s.push(name.to_string());
                s
            },
        };
        for (param, arg) in helper.params.iter().zip(&args) {
            let tainted = arg
                .iter()
                .any(|t| is_rank_marker(t) || self.taint.contains(t));
            if tainted {
                child.taint.insert(param.clone());
            }
            child.defs.insert(param.clone(), arg.clone());
        }
        nodes.extend(child.parse_seq(helper.body.0 + 1, helper.body.1));
        close + 1
    }

    /// Records a `let` binding's taint and (for single-ident patterns) its
    /// initializer tokens, then resumes the walk *inside* the initializer
    /// so commands and branches there are still seen.
    fn handle_let(&mut self, i: usize, hi: usize) -> usize {
        let mut pat = Vec::new();
        let mut j = i + 1;
        let mut in_type = false;
        while j < hi && !self.code[j].is_punct('=') && !self.code[j].is_punct(';') {
            let t = self.code[j];
            if t.is_punct(':') {
                in_type = true;
            } else if !in_type
                && t.kind == TokKind::Ident
                && !matches!(t.text.as_str(), "mut" | "ref")
            {
                pat.push(t.text.clone());
            }
            j += 1;
        }
        if j >= hi || !self.code[j].is_punct('=') {
            return j + 1;
        }
        // Read ahead over the initializer (to the `;` at depth 0) without
        // consuming it: the caller re-walks it for nested structure.
        let mut depth = 0usize;
        let mut k = j + 1;
        let mut texts = Vec::new();
        let mut tainted = false;
        while k < hi.min(self.code.len()) {
            let t = self.code[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(';') {
                break;
            }
            if t.kind == TokKind::Ident && (is_rank_marker(&t.text) || self.taint.contains(&t.text))
            {
                tainted = true;
            }
            texts.push(t.text.clone());
            k += 1;
        }
        if tainted {
            self.taint.extend(pat.iter().cloned());
        }
        if pat.len() == 1 && !texts.is_empty() {
            self.defs.insert(pat.remove(0), texts);
        }
        j + 1
    }

    /// Resolves a branch condition to a concrete rank test when it is one
    /// of the recognized master/worker forms (`is_master`, `rank == k`,
    /// `rank != k`, `rank > 0`, negations, or a `let` alias of one).
    fn rank_cond(&self, lo: usize, hi: usize) -> Option<RankCond> {
        let mut texts: Vec<String> = self.code[lo..hi.min(self.code.len())]
            .iter()
            .map(|t| t.text.clone())
            .filter(|t| !matches!(t.as_str(), "ctx" | "self" | "." | "(" | ")"))
            .collect();
        if texts.len() == 1 && !is_rank_marker(&texts[0]) {
            if let Some(def) = self.defs.get(&texts[0]) {
                texts = def
                    .iter()
                    .filter(|t| !matches!(t.as_str(), "ctx" | "self" | "." | "(" | ")"))
                    .cloned()
                    .collect();
            }
        }
        let s: Vec<&str> = texts.iter().map(String::as_str).collect();
        let num = |t: &str| t.parse::<i64>().ok();
        match s.as_slice() {
            ["is_master"] => Some(RankCond::IsRank(0)),
            ["!", "is_master"] => Some(RankCond::IsNotRank(0)),
            ["rank", "=", "=", k] | [k, "=", "=", "rank"] => num(k).map(RankCond::IsRank),
            ["rank", "!", "=", k] | [k, "!", "=", "rank"] => num(k).map(RankCond::IsNotRank),
            ["rank", ">", "0"] | ["0", "<", "rank"] => Some(RankCond::IsNotRank(0)),
            _ => None,
        }
    }

    /// `Start`/response variants named in a token range, for resume-arm
    /// dispatch in the model checker.
    fn variants_in(&self, lo: usize, hi: usize) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.code[lo..hi.min(self.code.len())] {
            if t.kind == TokKind::Ident
                && (t.text == "Start" || RESPONSE_VARIANTS.contains(&t.text.as_str()))
                && !out.contains(&t.text)
            {
                out.push(t.text.clone());
            }
        }
        out
    }

    fn parse_if(&mut self, i: usize, hi: usize) -> (Branch, usize) {
        let line = self.code[i].line;
        let open = self.find_at_depth(i + 1, hi, '{');
        let cond = (i + 1, open);
        let mut branch = Branch {
            line,
            rank_tainted: self.mentions_rank(cond.0, cond.1),
            exhaustive: false,
            resume_match: false,
            arms: Vec::new(),
        };
        if open >= hi {
            return (branch, hi);
        }
        // An arm guarded by a response-variant condition (and not `Start`)
        // cannot be taken on the first resumption.
        let then_live = !self.mentions_response_variant(cond.0, cond.1)
            || self.mentions_ident(cond.0, cond.1, "Start");
        let then_cond = ArmCond::If(self.rank_cond(cond.0, cond.1));
        let then_variants = self.variants_in(cond.0, cond.1);
        let close = scopes::matching(self.code, open);
        branch.arms.push(self.parse_arm(
            open + 1,
            close,
            then_live,
            then_cond,
            then_variants,
            false,
        ));
        let mut next = close + 1;
        if self.code.get(next).is_some_and(|t| t.is_ident("else")) {
            if self.code.get(next + 1).is_some_and(|t| t.is_ident("if")) {
                // Flatten the `else if` chain into one arm list.
                let (rest, after) = self.parse_if(next + 1, hi);
                branch.rank_tainted |= rest.rank_tainted;
                branch.exhaustive = rest.exhaustive;
                branch.arms.extend(rest.arms);
                next = after;
            } else if self.code.get(next + 1).is_some_and(|t| t.is_punct('{')) {
                let eclose = scopes::matching(self.code, next + 1);
                branch.arms.push(self.parse_arm(
                    next + 2,
                    eclose,
                    true,
                    ArmCond::Else,
                    Vec::new(),
                    false,
                ));
                branch.exhaustive = true;
                next = eclose + 1;
            }
        }
        (branch, next)
    }

    fn parse_match(&mut self, i: usize, hi: usize) -> (Branch, usize) {
        let line = self.code[i].line;
        let open = self.find_at_depth(i + 1, hi, '{');
        let scrutinee = (i + 1, open);
        let mut branch = Branch {
            line,
            rank_tainted: self.mentions_rank(scrutinee.0, scrutinee.1),
            // A Rust `match` is exhaustive by construction.
            exhaustive: true,
            resume_match: self.mentions_ident(scrutinee.0, scrutinee.1, "input"),
            arms: Vec::new(),
        };
        if open >= hi {
            return (branch, hi);
        }
        let close = scopes::matching(self.code, open);
        let mut patterns: Vec<(usize, usize)> = Vec::new();
        let mut k = open + 1;
        while k < close.min(self.code.len()) {
            // Pattern: tokens to the `=>` arrow (lexed as `=` `>`) at depth 0.
            let pat_lo = k;
            let mut depth = 0usize;
            while k < close {
                let t = self.code[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                } else if depth == 0
                    && t.is_punct('=')
                    && self.code.get(k + 1).is_some_and(|n| n.is_punct('>'))
                {
                    break;
                }
                k += 1;
            }
            if k >= close {
                break;
            }
            let pat = (pat_lo, k);
            k += 2; // past `=>`
            let (body_lo, body_hi, after) = if self.code.get(k).is_some_and(|t| t.is_punct('{')) {
                let bclose = scopes::matching(self.code, k);
                let after = if self.code.get(bclose + 1).is_some_and(|t| t.is_punct(',')) {
                    bclose + 2
                } else {
                    bclose + 1
                };
                (k + 1, bclose, after)
            } else {
                let end = self.find_at_depth_all(k, close, ',');
                (k, end, end + 1)
            };
            branch.rank_tainted |=
                self.mentions_rank(pat.0, pat.1) && self.mentions_ident(pat.0, pat.1, "if");
            if !branch.resume_match && self.mentions_ident(pat.0, pat.1, "Resume") {
                branch.resume_match = true;
            }
            let variants = self.variants_in(pat.0, pat.1);
            let guarded = self.mentions_ident(pat.0, pat.1, "if");
            patterns.push(pat);
            branch.arms.push(self.parse_arm(
                body_lo,
                body_hi,
                true,
                ArmCond::Pattern,
                variants,
                guarded,
            ));
            k = after;
        }
        if branch.resume_match {
            // First-match semantics: the first arm whose pattern can match
            // `Start` (names it, or names no response variant — wildcards
            // and bindings) is the only arm live at the first resumption.
            let mut start_taken = false;
            for (arm, pat) in branch.arms.iter_mut().zip(&patterns) {
                let can_match_start = self.mentions_ident(pat.0, pat.1, "Start")
                    || !self.mentions_response_variant(pat.0, pat.1);
                arm.live_at_first = can_match_start && !start_taken;
                start_taken |= can_match_start;
            }
        }
        (branch, close + 1)
    }

    /// Like [`Self::find_at_depth`] but also depth-tracks braces (for match
    /// arm expressions containing struct literals).
    fn find_at_depth_all(&self, lo: usize, hi: usize, c: char) -> usize {
        let mut depth = 0usize;
        for (k, t) in self
            .code
            .iter()
            .enumerate()
            .take(hi.min(self.code.len()))
            .skip(lo)
        {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(c) {
                return k;
            }
        }
        hi
    }

    fn parse_arm(
        &mut self,
        lo: usize,
        hi: usize,
        live_at_first: bool,
        cond: ArmCond,
        variants: Vec<String>,
        guarded: bool,
    ) -> Arm {
        let has_exit = self.code[lo..hi.min(self.code.len())]
            .iter()
            .any(|t| t.is_ident("return") || t.is_ident("Done"));
        Arm {
            live_at_first,
            has_exit,
            cond,
            variants,
            guarded,
            nodes: self.parse_seq(lo, hi),
        }
    }

    fn parse_loop(&mut self, i: usize, hi: usize) -> (LoopNode, usize) {
        let line = self.code[i].line;
        let open = self.find_at_depth(i + 1, hi, '{');
        // `for pat in bound {` / `while cond {` / `loop {`: the taint source
        // is everything between the keyword and the block (for `for`, the
        // binding left of `in` is harmless to include — `rank` there is
        // rank-dependent anyway).
        let rank_tainted = self.mentions_rank(i + 1, open);
        if open >= hi {
            return (
                LoopNode {
                    line,
                    rank_tainted,
                    nodes: Vec::new(),
                },
                hi,
            );
        }
        let close = scopes::matching(self.code, open);
        let nodes = self.parse_seq(open + 1, close);
        (
            LoopNode {
                line,
                rank_tainted,
                nodes,
            },
            close + 1,
        )
    }

    /// Parses a `Command::Kind { … }` construction at `i` (`i` indexes the
    /// `Command` ident). Returns `None` for non-command paths and for
    /// shapes that look like patterns (missing peer field).
    fn parse_command(&mut self, i: usize, hi: usize) -> (Option<CommOp>, usize) {
        let Some(kind_tok) = self.code.get(i + 3) else {
            return (None, i + 3);
        };
        let kind = kind_tok.text.clone();
        let line = kind_tok.line;
        let braced = self.code.get(i + 4).is_some_and(|t| t.is_punct('{'));
        if COLLECTIVE_KINDS.contains(&kind.as_str()) {
            let next = if braced {
                scopes::matching(self.code, i + 4) + 1
            } else {
                i + 4
            };
            return (Some(CommOp::Collective { kind, line }), next);
        }
        if kind != "Send" && kind != "Recv" {
            return (None, i + 4);
        }
        if !braced {
            // A bare `Command::Send` path (e.g. in a `matches!`) is not a
            // construction.
            return (None, i + 4);
        }
        let close = scopes::matching(self.code, i + 4);
        let fields = self.parse_fields(i + 5, close.min(hi.min(self.code.len())));
        let peer_field = if kind == "Send" { "dst" } else { "src" };
        let Some(peer_texts) = fields.get(peer_field) else {
            // No peer field: a `..` rest pattern or a malformed shape.
            return (None, close + 1);
        };
        let peer = self.normalize_peer(peer_texts);
        let tag = self.resolve_tag(fields.get("tag").cloned().unwrap_or_default());
        let op = if kind == "Send" {
            CommOp::Send { peer, tag, line }
        } else {
            CommOp::Recv { peer, tag, line }
        };
        (Some(op), close + 1)
    }

    /// Splits a brace-enclosed field list into `name -> expression tokens`
    /// (shorthand fields map to their own name).
    fn parse_fields(&self, lo: usize, hi: usize) -> BTreeMap<String, Vec<String>> {
        let mut fields = BTreeMap::new();
        let mut k = lo;
        while k < hi {
            let end = self.find_at_depth_all(k, hi, ',');
            let slice = &self.code[k..end.min(self.code.len())];
            if let Some(name_tok) = slice.first().filter(|t| t.kind == TokKind::Ident) {
                let expr: Vec<String> = if slice.get(1).is_some_and(|t| t.is_punct(':'))
                    && !slice.get(2).is_some_and(|t| t.is_punct(':'))
                {
                    slice[2..].iter().map(|t| t.text.clone()).collect()
                } else {
                    vec![name_tok.text.clone()]
                };
                if !expr.is_empty() {
                    fields.insert(name_tok.text.clone(), expr);
                }
            }
            k = end + 1;
        }
        fields
    }

    /// Resolves a single-identifier expression through the `let` map, up to
    /// three hops (`let n = ctx.num_devices(); let right = (rank + 1) % n;`).
    fn resolve_texts(&self, texts: &[String], depth: usize) -> Vec<String> {
        if depth == 0 || texts.len() != 1 {
            return texts.to_vec();
        }
        match self.defs.get(&texts[0]) {
            Some(def) => self.resolve_texts(def, depth - 1),
            None => texts.to_vec(),
        }
    }

    fn resolve_tag(&self, texts: Vec<String>) -> String {
        self.resolve_texts(&texts, 1).join(" ")
    }

    /// Normalizes a peer expression to [`Peer`]. The evaluator understands
    /// `rank`/`ctx.rank()` terms, integer constants, `n`/`num_devices`
    /// terms, and a trailing `% n` wrap; `ctx` and `self` receivers are
    /// transparent. Subtraction distributes over parenthesized groups, so
    /// the subtract-form offsets `(rank + n - k) % n` and grouped variants
    /// like `(rank + n - (2 - 1)) % n` all normalize to `Offset(-k)`.
    /// `Offset` requires the explicit wrap — an unwrapped `rank + k` can
    /// leave `0..n` at the edge ranks, so it stays `Other` — and a net
    /// offset with magnitude above 2, which real neighbor exchanges never
    /// use, also degrades to `Other`.
    fn normalize_peer(&self, texts: &[String]) -> Peer {
        let texts = self.resolve_texts(texts, 3);
        let joined = texts.join(" ");
        // Split a trailing `% n` wrap off the expression body: everything
        // after the *last* `%` must be `n`-ish or transparent.
        let transparent = |t: &str| {
            matches!(
                t,
                "(" | ")" | "." | "ctx" | "self" | "as" | "usize" | "i64" | "u64" | "u32" | "i32"
            )
        };
        let n_ish = |t: &str| t == "n" || t == "num_devices";
        let (body, wrapped, bad_mod) = match texts.iter().rposition(|t| t == "%") {
            None => (&texts[..], false, false),
            Some(pos) => {
                let tail = &texts[pos + 1..];
                let tail_is_n = tail.iter().any(|t| n_ish(t))
                    && tail.iter().all(|t| n_ish(t) || transparent(t));
                if tail_is_n {
                    (&texts[..pos], true, false)
                } else {
                    (&texts[..], false, true)
                }
            }
        };
        // Sign-aware accumulation with a parenthesis stack, so `- (a - b)`
        // contributes `-a + b`.
        let mut sign = 1i64;
        let mut mul = 1i64;
        let mut stack: Vec<i64> = Vec::new();
        let mut rank_terms = 0i64;
        let mut n_terms = 0i64;
        let mut konst = 0i64;
        let mut unknown = bad_mod;
        for t in body {
            match t.as_str() {
                "(" => {
                    stack.push(mul);
                    mul *= sign;
                    sign = 1;
                }
                ")" => mul = stack.pop().unwrap_or(1),
                "+" => sign = 1,
                "-" => sign = -1,
                // An inner `%` (not the trailing wrap) is unsupported.
                "%" => unknown = true,
                "rank" => {
                    rank_terms += sign * mul;
                    sign = 1;
                }
                s if n_ish(s) => {
                    n_terms += sign * mul;
                    sign = 1;
                }
                s if transparent(s) => {}
                s if s.chars().next().is_some_and(|c| c.is_ascii_digit()) => {
                    match s.replace('_', "").parse::<i64>() {
                        Ok(v) => {
                            konst += sign * mul * v;
                            sign = 1;
                        }
                        Err(_) => unknown = true,
                    }
                }
                _ => unknown = true,
            }
        }
        if unknown {
            Peer::Other(joined)
        } else if wrapped {
            // Under `% n`, whole multiples of `n` contribute 0.
            if rank_terms == 1 && konst.abs() <= 2 {
                Peer::Offset(konst)
            } else if rank_terms == 0 && n_terms == 0 {
                Peer::Literal(konst)
            } else {
                Peer::Other(joined)
            }
        } else if rank_terms == 0 && n_terms == 0 {
            Peer::Literal(konst)
        } else if rank_terms == 0 && n_terms == 1 {
            Peer::NRelative(konst)
        } else {
            Peer::Other(joined)
        }
    }
}

// --------------------------------------------------------------- the rules

/// Runs both protocol rules over every `DeviceProgram` impl in `code`,
/// appending raw findings (suppression is the caller's job). Impls whose
/// header line falls in a `#[cfg(test)]` range are skipped, consistent
/// with the other structural rules.
pub fn check(display_path: &str, code: &[&Tok], exempt: &[(u32, u32)], raw: &mut Vec<Finding>) {
    for sk in extract_skeletons(code) {
        if exempt.iter().any(|&(a, b)| sk.line >= a && sk.line <= b) {
            continue;
        }
        check_divergence(display_path, &sk, raw);
        check_unmatched(display_path, &sk, raw);
    }
}

/// The collectives a node sequence yields, rendered as a structural trace
/// string for arm-symmetry comparison.
fn collective_trace(nodes: &[Node]) -> String {
    let mut out = String::new();
    for node in nodes {
        match node {
            Node::Yield(CommOp::Collective { kind, .. }) => {
                out.push_str(kind);
                out.push(';');
            }
            Node::Yield(_) => {}
            Node::Branch(b) => {
                let arms: Vec<String> = b.arms.iter().map(|a| collective_trace(&a.nodes)).collect();
                out.push('(');
                out.push_str(&arms.join("|"));
                out.push(')');
            }
            Node::Loop(l) => {
                out.push_str("loop(");
                out.push_str(&collective_trace(&l.nodes));
                out.push(')');
            }
        }
    }
    out
}

/// Walks the skeleton flagging collective yields reachable under
/// rank-divergent control flow.
fn check_divergence(display_path: &str, sk: &Skeleton, raw: &mut Vec<Finding>) {
    walk_divergence(display_path, &sk.impl_name, &sk.nodes, false, raw);
}

fn walk_divergence(
    display_path: &str,
    impl_name: &str,
    nodes: &[Node],
    diverged: bool,
    raw: &mut Vec<Finding>,
) {
    let mut diverged = diverged;
    for node in nodes {
        match node {
            Node::Yield(CommOp::Collective { kind, line }) if diverged => {
                raw.push(Finding {
                    id: String::new(),
                    file: display_path.to_string(),
                    line: *line,
                    rule: "collective-divergence",
                    message: format!(
                        "`{kind}` yield in impl `{impl_name}` is guarded by rank-dependent \
                         control flow; ranks that skip it never join the rendezvous \
                         and the cluster deadlocks"
                    ),
                });
            }
            Node::Yield(_) => {}
            Node::Branch(b) => {
                let any_exit = b.arms.iter().any(|a| a.has_exit);
                let all_exit = b.arms.iter().all(|a| a.has_exit);
                // Master/worker symmetry: an exhaustive rank-branch whose
                // arms all yield the same collective trace (and none exits)
                // keeps every rank at the same rendezvous — payloads
                // diverge, the protocol does not.
                let symmetric = b.rank_tainted
                    && b.exhaustive
                    && !any_exit
                    && !b.arms.is_empty()
                    && b.arms
                        .windows(2)
                        .all(|w| collective_trace(&w[0].nodes) == collective_trace(&w[1].nodes));
                let arm_diverged = diverged || (b.rank_tainted && !symmetric);
                for arm in &b.arms {
                    walk_divergence(display_path, impl_name, &arm.nodes, arm_diverged, raw);
                }
                // Early-exit poison: if rank decides who returns, ranks
                // that exited cannot join any later collective.
                if b.rank_tainted && any_exit && !(b.exhaustive && all_exit) {
                    diverged = true;
                }
            }
            Node::Loop(l) => {
                let body_diverged = diverged || l.rank_tainted;
                walk_divergence(display_path, impl_name, &l.nodes, body_diverged, raw);
            }
        }
    }
}

fn collect_ops<'a>(nodes: &'a [Node], sends: &mut Vec<&'a CommOp>, recvs: &mut Vec<&'a CommOp>) {
    for node in nodes {
        match node {
            Node::Yield(op @ CommOp::Send { .. }) => sends.push(op),
            Node::Yield(op @ CommOp::Recv { .. }) => recvs.push(op),
            Node::Yield(CommOp::Collective { .. }) => {}
            Node::Branch(b) => {
                for arm in &b.arms {
                    collect_ops(&arm.nodes, sends, recvs);
                }
            }
            Node::Loop(l) => collect_ops(&l.nodes, sends, recvs),
        }
    }
}

/// First-yield summary of a node sequence: the yields any rank's *first*
/// `resume` call can produce, whether some path falls through without
/// yielding, and whether some path exits without yielding.
struct FirstYield<'a> {
    ops: Vec<&'a CommOp>,
    may_pass: bool,
    may_exit: bool,
}

fn first_yields(nodes: &[Node]) -> FirstYield<'_> {
    let mut ops = Vec::new();
    let mut may_exit = false;
    for node in nodes {
        match node {
            Node::Yield(op) => {
                ops.push(op);
                return FirstYield {
                    ops,
                    may_pass: false,
                    may_exit,
                };
            }
            Node::Branch(b) => {
                let mut pass = !b.exhaustive;
                for arm in b.arms.iter().filter(|a| a.live_at_first) {
                    let f = first_yields(&arm.nodes);
                    ops.extend(f.ops);
                    may_exit |= f.may_exit;
                    if f.may_pass {
                        if arm.has_exit {
                            // The fall-through contains a `return`/`Done`
                            // the extractor cannot place; treat it as an
                            // exit path (conservative: suppresses, never
                            // invents, a finding).
                            may_exit = true;
                        } else {
                            pass = true;
                        }
                    }
                }
                if !pass {
                    return FirstYield {
                        ops,
                        may_pass: false,
                        may_exit,
                    };
                }
            }
            Node::Loop(l) => {
                // The loop body may run on the first resumption — or not at
                // all (zero iterations), so the sequence continues.
                let f = first_yields(&l.nodes);
                ops.extend(f.ops);
                may_exit |= f.may_exit;
            }
        }
    }
    FirstYield {
        ops,
        may_pass: true,
        may_exit,
    }
}

fn peer_desc(peer: &Peer) -> String {
    match peer {
        Peer::Offset(k) if *k >= 0 => format!("rank+{k}"),
        Peer::Offset(k) => format!("rank{k}"),
        Peer::Literal(v) => format!("rank {v}"),
        Peer::NRelative(k) if *k >= 0 => format!("rank n+{k}"),
        Peer::NRelative(k) => format!("rank n{k}"),
        Peer::Other(s) => format!("`{s}`"),
    }
}

/// Mirror-matching over rank-offset peers plus the first-yield cycle check.
fn check_unmatched(display_path: &str, sk: &Skeleton, raw: &mut Vec<Finding>) {
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    collect_ops(&sk.nodes, &mut sends, &mut recvs);

    // (a) Every offset recv needs a send with the opposite offset and the
    // same tag. Skipped entirely for send-less impls (one half of a
    // heterogeneous pairing) and for unverifiable peers.
    if !sends.is_empty() {
        for op in &recvs {
            let CommOp::Recv {
                peer: Peer::Offset(d),
                tag,
                line,
            } = op
            else {
                continue;
            };
            let same_tag: Vec<&&CommOp> = sends
                .iter()
                .filter(|s| matches!(s, CommOp::Send { tag: st, .. } if st == tag))
                .collect();
            if same_tag.is_empty() {
                let send_tags: BTreeSet<&str> = sends
                    .iter()
                    .filter_map(|s| match s {
                        CommOp::Send { tag, .. } => Some(tag.as_str()),
                        _ => None,
                    })
                    .collect();
                raw.push(Finding {
                    id: String::new(),
                    file: display_path.to_string(),
                    line: *line,
                    rule: "unmatched-comm",
                    message: format!(
                        "recv with tag `{tag}` in impl `{}` has no send using that tag \
                         (sends use {}); a tag typo leaves the message unclaimed forever",
                        sk.impl_name,
                        send_tags
                            .iter()
                            .map(|t| format!("`{t}`"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                });
                continue;
            }
            let mirrored = same_tag.iter().any(|s| match s {
                CommOp::Send {
                    peer: Peer::Offset(e),
                    ..
                } => *e == -d,
                // Literal/unverifiable send targets may reach anyone.
                CommOp::Send { .. } => true,
                _ => false,
            });
            if !mirrored {
                let offsets: Vec<String> = same_tag
                    .iter()
                    .filter_map(|s| match s {
                        CommOp::Send { peer, .. } => Some(peer_desc(peer)),
                        _ => None,
                    })
                    .collect();
                raw.push(Finding {
                    id: String::new(),
                    file: display_path.to_string(),
                    line: *line,
                    rule: "unmatched-comm",
                    message: format!(
                        "recv from {} (tag `{tag}`) in impl `{}` is never mirrored: \
                         sends with that tag target {}, but delivery needs a send to {} \
                         (reversed ring?)",
                        peer_desc(&Peer::Offset(*d)),
                        sk.impl_name,
                        offsets.join(", "),
                        peer_desc(&Peer::Offset(-d)),
                    ),
                });
            }
        }
    }

    // (b) Recv-before-send cycle: if every first-resume path yields a Recv,
    // no rank can ever produce the message another is waiting for.
    let first = first_yields(&sk.nodes);
    if !first.may_pass && !first.may_exit && !first.ops.is_empty() {
        let all_recv = first.ops.iter().all(|op| matches!(op, CommOp::Recv { .. }));
        if all_recv {
            let line = first
                .ops
                .iter()
                .map(|op| match op {
                    CommOp::Recv { line, .. } => *line,
                    _ => u32::MAX,
                })
                .min()
                .unwrap_or(sk.line);
            raw.push(Finding {
                id: String::new(),
                file: display_path.to_string(),
                line,
                rule: "unmatched-comm",
                message: format!(
                    "every first-resume path of impl `{}` yields `Recv` before any \
                     `Send`; with one program on all ranks nobody can produce the \
                     first message (recv-before-send cycle)",
                    sk.impl_name
                ),
            });
        }
    }
}
