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
//! * which ranks finished outright (a rank that skipped a collective, or
//!   ran it fewer times than its peers, returns without joining it).
//!
//! Its [`WaitGraph::summary`] is what [`crate::ClusterError::Deadlock`]
//! displays. Together with `CollectiveMismatch` this is the workspace's one
//! check of the collective protocol: `crates/comm/tests/planted.rs` pins
//! the ranks it names for each rank-dependent shape, and a config sweep
//! (`tests/proptest_core.rs`) drives every shipped protocol path through it.

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
    fn summary_names_every_blocked_rank() {
        let s = sample().summary();
        assert!(s.contains("2 rank(s) blocked"), "summary: {s}");
        assert!(s.contains("rank 1 waits on collective `gather`"));
        assert!(s.contains("rank 2 waits on collective `gather`"));
        assert!(s.contains("finished ranks [0]"));
        assert!(s.contains("`gather` reached by ranks [1, 2], never by ranks [0]"));
    }
}
