//! Runtime deadlock detection.
//!
//! When the engine finds no runnable, no trapped, and at least one blocked
//! process, the run cannot make progress. The report captures each blocked
//! process's wait and the wait-for cycle if one exists — "the debugger is
//! also able to detect deadlocks due to circular dependency in sends or
//! receives" (§4.4). Figure 5's Strassen bug manifests here as the cycle
//! {0, 7}.

use crate::message::MatchSpec;
use std::fmt;
use tracedbg_trace::Rank;

/// One blocked process's wait.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitForEdge {
    pub waiter: Rank,
    /// The specific source being waited on (`None` for a wildcard receive,
    /// which waits on "anyone").
    pub awaited: Option<Rank>,
    /// Marker of the blocked receive post.
    pub marker: u64,
}

/// Why and where the run stopped making progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockReport {
    /// All blocked processes with their waits.
    pub waits: Vec<WaitForEdge>,
    /// Ranks on a circular wait (empty when the stall is not a cycle, e.g.
    /// a process waiting for a message nobody will ever send).
    pub cycle: Vec<Rank>,
}

impl DeadlockReport {
    /// Build a report from the engine's blocked set.
    pub fn analyze(blocked: &[(Rank, MatchSpec, u64)]) -> Self {
        let waits: Vec<WaitForEdge> = blocked
            .iter()
            .map(|(r, spec, marker)| WaitForEdge {
                waiter: *r,
                awaited: spec.forced.map(|(s, _)| s).or(spec.src),
                marker: *marker,
            })
            .collect();
        let cycle = find_cycle(&waits);
        DeadlockReport { waits, cycle }
    }

    pub fn blocked_ranks(&self) -> Vec<Rank> {
        self.waits.iter().map(|w| w.waiter).collect()
    }

    pub fn is_cyclic(&self) -> bool {
        !self.cycle.is_empty()
    }
}

/// Find a cycle among specific-source waits (wildcards cannot close a
/// cycle: they can be satisfied by any future sender). Of several, the one
/// through the lowest rank, so the report does not depend on map order.
fn find_cycle(waits: &[WaitForEdge]) -> Vec<Rank> {
    use std::collections::BTreeMap;
    let edge: BTreeMap<Rank, Rank> = waits
        .iter()
        .filter_map(|w| w.awaited.map(|a| (w.waiter, a)))
        .collect();
    // In rank order, the first waiter whose waits lead back to it.
    for &start in edge.keys() {
        let mut cycle = vec![start];
        let mut cur = edge[&start];
        // Stop on leaving the blocked set, or in a cycle `start` is not on.
        while cur != start && cycle.len() <= edge.len() {
            let Some(&next) = edge.get(&cur) else { break };
            cycle.push(cur);
            cur = next;
        }
        if cur == start {
            cycle.sort();
            return cycle;
        }
    }
    Vec::new()
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "deadlock: {} blocked process(es)", self.waits.len())?;
        for w in &self.waits {
            match w.awaited {
                Some(a) => writeln!(
                    f,
                    "  {:?} blocked in receive from {:?} (marker {})",
                    w.waiter, a, w.marker
                )?,
                None => writeln!(
                    f,
                    "  {:?} blocked in wildcard receive (marker {})",
                    w.waiter, w.marker
                )?,
            }
        }
        if self.is_cyclic() {
            write!(f, "  circular wait: ")?;
            for (i, r) in self.cycle.iter().enumerate() {
                if i > 0 {
                    write!(f, " <-> ")?;
                }
                write!(f, "{r:?}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(src: Option<u32>) -> MatchSpec {
        MatchSpec::new(src.map(Rank), None)
    }

    #[test]
    fn two_cycle_detected() {
        // The Figure 5 shape: 0 waits on 7, 7 waits on 0.
        let blocked = vec![(Rank(0), spec(Some(7)), 10), (Rank(7), spec(Some(0)), 12)];
        let rep = DeadlockReport::analyze(&blocked);
        assert!(rep.is_cyclic());
        assert_eq!(rep.cycle, vec![Rank(0), Rank(7)]);
        let s = format!("{rep}");
        assert!(s.contains("circular wait"), "{s}");
    }

    #[test]
    fn chain_without_cycle() {
        // 1 waits on 2, 2 waits on 3, 3 not blocked (sender just absent).
        let blocked = vec![(Rank(1), spec(Some(2)), 1), (Rank(2), spec(Some(3)), 1)];
        let rep = DeadlockReport::analyze(&blocked);
        assert!(!rep.is_cyclic());
        assert_eq!(rep.blocked_ranks(), vec![Rank(1), Rank(2)]);
    }

    #[test]
    fn wildcard_does_not_close_cycle() {
        let blocked = vec![(Rank(0), spec(Some(1)), 1), (Rank(1), spec(None), 1)];
        let rep = DeadlockReport::analyze(&blocked);
        assert!(!rep.is_cyclic());
    }

    #[test]
    fn three_cycle() {
        let blocked = vec![
            (Rank(0), spec(Some(1)), 1),
            (Rank(1), spec(Some(2)), 1),
            (Rank(2), spec(Some(0)), 1),
        ];
        let rep = DeadlockReport::analyze(&blocked);
        assert_eq!(rep.cycle, vec![Rank(0), Rank(1), Rank(2)]);
    }

    #[test]
    fn of_two_cycles_the_one_through_the_lowest_rank_is_reported() {
        let waits = |edges: &[(u32, u32)]| -> Vec<_> {
            edges
                .iter()
                .map(|&(w, a)| (Rank(w), spec(Some(a)), 1))
                .collect()
        };
        let two = waits(&[(0, 1), (1, 0), (2, 3), (3, 2)]);
        for _ in 0..64 {
            assert_eq!(DeadlockReport::analyze(&two).cycle, vec![Rank(0), Rank(1)]);
        }
        // Rank 0 waits into the {5, 6} cycle; {1, 2} is still the lower.
        let tail = waits(&[(0, 5), (5, 6), (6, 5), (2, 1), (1, 2)]);
        assert_eq!(DeadlockReport::analyze(&tail).cycle, vec![Rank(1), Rank(2)]);
    }

    #[test]
    fn self_wait_is_a_cycle() {
        let blocked = vec![(Rank(3), spec(Some(3)), 1)];
        let rep = DeadlockReport::analyze(&blocked);
        assert_eq!(rep.cycle, vec![Rank(3)]);
    }
}
