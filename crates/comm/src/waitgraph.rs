//! Deadlock diagnostics: the wait-for graph the event scheduler constructs
//! when the cluster stalls.
//!
//! A stall means no device is runnable and not every device is parked at a
//! collective: some rank returned (or failed) while the others wait for it
//! at a rendezvous. [`WaitGraph`] captures the whole frontier at the moment
//! of the stall, not just the lowest suspended rank:
//!
//! * every suspended rank and the collective it waits at ([`BlockedRank`]);
//! * which ranks already reached the collective and which never will
//!   ([`CollectiveFront`]);
//! * which ranks finished outright (a rank that returns without joining a
//!   collective is how `collective-divergence` bugs present at runtime).
//!
//! The graph renders as DOT ([`WaitGraph::to_dot`]) for visual inspection
//! and as JSON ([`WaitGraph::to_json`]) for tooling; its [`WaitGraph::summary`]
//! is what [`crate::ClusterError::Deadlock`] displays. The static side of
//! this contract is adaqp-lint's `collective-divergence` rule
//! (`crates/analysis`), which flags the same defect shapes in the shipped
//! `async` device bodies before they ever run.

/// What one suspended rank is waiting for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitCause {
    /// Parked at a collective some rank never joins.
    Collective {
        /// The collective's kind name (`gather`, `ring_all2all`, …).
        kind: &'static str,
    },
}

impl std::fmt::Display for WaitCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitCause::Collective { kind } => write!(f, "collective `{kind}`"),
        }
    }
}

/// One suspended rank in the wait-for graph.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedRank {
    /// The suspended rank.
    pub rank: usize,
    /// What it waits on.
    pub cause: WaitCause,
    /// Its simulated clock at the stall, seconds.
    pub clock: f64,
}

/// The collective frontier at the stall: who reached it, who never will.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveFront {
    /// Kind name of the collective the lowest parked rank entered.
    pub kind: &'static str,
    /// Ranks parked at a collective, ascending.
    pub reached: Vec<usize>,
    /// Ranks not parked at the collective (already finished), ascending —
    /// the ranks the collective is waiting for.
    pub absent: Vec<usize>,
}

/// The full wait-for graph of a stalled cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitGraph {
    /// Every suspended rank, ascending by rank.
    pub blocked: Vec<BlockedRank>,
    /// Ranks that finished before the stall, ascending.
    pub finished: Vec<usize>,
    /// The collective frontier, when any rank is collective-parked.
    pub collective: Option<CollectiveFront>,
}

impl WaitGraph {
    /// Assembles a graph from a stall frontier: the blocked ranks (ascending
    /// by rank) and the finished ranks. The collective front is derived
    /// here — `kind` comes from the lowest collective-parked rank, `absent`
    /// is every rank of `0..n` not parked at a collective.
    pub fn from_frontier(n: usize, blocked: Vec<BlockedRank>, finished: Vec<usize>) -> WaitGraph {
        let mut reached = Vec::new();
        let mut kind: Option<&'static str> = None;
        for b in &blocked {
            let WaitCause::Collective { kind: k } = &b.cause;
            reached.push(b.rank);
            kind.get_or_insert(*k);
        }
        let collective = kind.map(|kind| CollectiveFront {
            kind,
            absent: (0..n).filter(|r| !reached.contains(r)).collect(),
            reached,
        });
        WaitGraph {
            blocked,
            finished,
            collective,
        }
    }

    /// The ranks `rank` waits on: every rank absent from the collective it
    /// is parked at. Empty for ranks that are not blocked.
    pub fn waits_on(&self, rank: usize) -> Vec<usize> {
        match (
            &self.collective,
            self.blocked.iter().any(|b| b.rank == rank),
        ) {
            (Some(front), true) => front.absent.clone(),
            _ => Vec::new(),
        }
    }

    /// One-line-per-fact prose rendering, used by the `Deadlock` error
    /// display. Names every blocked rank — never just the first.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let causes: Vec<String> = self
            .blocked
            .iter()
            .map(|b| format!("rank {} waits on {}", b.rank, b.cause))
            .collect();
        out.push_str(&format!(
            "{} rank(s) blocked [{}]",
            self.blocked.len(),
            causes.join("; ")
        ));
        if !self.finished.is_empty() {
            out.push_str(&format!("; finished ranks {:?}", self.finished));
        }
        if let Some(c) = &self.collective {
            out.push_str(&format!(
                "; `{}` reached by ranks {:?}, never by ranks {:?}",
                c.kind, c.reached, c.absent
            ));
        }
        out
    }

    /// Graphviz DOT rendering: one node per rank, one edge per wait-for
    /// dependency, labeled with the collective kind. All interpolated label
    /// text is escaped with [`dot_escape`], so the output stays well-formed
    /// DOT whatever the cause text contains.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph wait_for {\n");
        for b in &self.blocked {
            out.push_str(&format!(
                "  r{} [label=\"rank {}\\n{}\"];\n",
                b.rank,
                b.rank,
                dot_escape(&b.cause.to_string())
            ));
        }
        for rank in &self.finished {
            out.push_str(&format!(
                "  r{rank} [label=\"rank {rank}\\nfinished\", style=dashed];\n"
            ));
        }
        for b in &self.blocked {
            let WaitCause::Collective { kind } = &b.cause;
            for absent in self.collective.iter().flat_map(|c| c.absent.iter()) {
                out.push_str(&format!(
                    "  r{} -> r{} [label=\"{}\", style=dotted];\n",
                    b.rank,
                    absent,
                    dot_escape(kind)
                ));
            }
        }
        out.push_str("}\n");
        out
    }

    /// JSON rendering (stable field order, no external dependencies), for
    /// machine consumption of deadlock reports.
    pub fn to_json(&self) -> String {
        fn ranks(list: &[usize]) -> String {
            let items: Vec<String> = list.iter().map(ToString::to_string).collect();
            format!("[{}]", items.join(", "))
        }
        let blocked: Vec<String> = self
            .blocked
            .iter()
            .map(|b| {
                let WaitCause::Collective { kind } = &b.cause;
                let cause = format!("{{\"kind\": \"collective\", \"collective\": \"{kind}\"}}");
                format!(
                    "{{\"rank\": {}, \"cause\": {}, \"clock\": {}}}",
                    b.rank,
                    cause,
                    // The debug float form keeps a trailing `.0`, so the
                    // field stays a float in every JSON parser.
                    format_args!("{:?}", b.clock)
                )
            })
            .collect();
        let collective = match &self.collective {
            Some(c) => format!(
                "{{\"kind\": \"{}\", \"reached\": {}, \"absent\": {}}}",
                c.kind,
                ranks(&c.reached),
                ranks(&c.absent)
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"blocked\": [{}], \"finished\": {}, \"collective\": {}}}",
            blocked.join(", "),
            ranks(&self.finished),
            collective
        )
    }
}

/// Escapes text for use inside a double-quoted DOT string: backslashes and
/// quotes are escaped, newlines become the DOT line-break escape `\n`.
pub fn dot_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WaitGraph {
        WaitGraph {
            blocked: vec![
                BlockedRank {
                    rank: 1,
                    cause: WaitCause::Collective { kind: "gather" },
                    clock: 0.5,
                },
                BlockedRank {
                    rank: 2,
                    cause: WaitCause::Collective { kind: "gather" },
                    clock: 1.0,
                },
            ],
            finished: vec![0],
            collective: Some(CollectiveFront {
                kind: "gather",
                reached: vec![1, 2],
                absent: vec![0],
            }),
        }
    }

    #[test]
    fn from_frontier_derives_the_collective_front() {
        let want = sample();
        let got = WaitGraph::from_frontier(3, want.blocked.clone(), want.finished.clone());
        assert_eq!(got, want);
        // No collective-parked rank => no front at all.
        let none = WaitGraph::from_frontier(2, Vec::new(), vec![0, 1]);
        assert!(none.collective.is_none());
    }

    #[test]
    fn waits_on_follows_cause_edges() {
        let g = sample();
        assert_eq!(g.waits_on(1), vec![0]);
        assert_eq!(g.waits_on(2), vec![0]);
        assert!(g.waits_on(0).is_empty());
    }

    #[test]
    fn summary_names_every_blocked_rank() {
        let s = sample().summary();
        assert!(s.contains("2 rank(s) blocked"), "summary: {s}");
        assert!(s.contains("rank 1 waits on collective `gather`"));
        assert!(s.contains("rank 2 waits on collective `gather`"));
        assert!(s.contains("finished ranks [0]"));
        assert!(s.contains("`gather` reached by ranks [1, 2], never by ranks [0]"));
    }

    #[test]
    fn dot_render_has_nodes_and_edges() {
        let dot = sample().to_dot();
        assert!(dot.starts_with("digraph wait_for {"));
        assert!(dot.contains("r1 -> r0 [label=\"gather\", style=dotted]"));
        assert!(dot.contains("style=dashed"), "finished rank style: {dot}");
        assert!(dot.contains("r2 -> r0"), "collective edge: {dot}");
        assert_eq!(dot_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_render_is_well_formed_and_complete() {
        let json = sample().to_json();
        assert!(json.contains("\"blocked\": [{\"rank\": 1"));
        assert!(json.contains("\"cause\": {\"kind\": \"collective\", \"collective\": \"gather\"}"));
        assert!(json.contains("\"clock\": 0.5"));
        assert!(json.contains(
            "\"collective\": {\"kind\": \"gather\", \"reached\": [1, 2], \"absent\": [0]}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
