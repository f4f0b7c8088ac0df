//! Forcing of receive matches (§4.2).
//!
//! "In a replay, the behavior of nondeterministic statements (such as
//! statements using the MPI_ANY_SOURCE wild card) can be controlled by p2d2
//! with the information available in the program trace. This ensures that
//! the replay has identical event causality with the original program
//! execution."
//!
//! The engine's decision log is its one record of nondeterminism; a
//! [`ReplayLog`] is the per-receiver view of that log's `Match` decisions.
//! It is immutable: a re-execution asks it which message a receiver's
//! `k`-th match was ([`ReplayLog::pin`]) and keeps the count `k` itself, so
//! one log is shared by every engine, checkpoint and session that replays
//! the run.

use serde::{Deserialize, Serialize};
use tracedbg_trace::schedule::{Decision, DecisionPoint};
use tracedbg_trace::Rank;

/// One recorded receive match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordedMatch {
    pub src: Rank,
    /// Per-(src, receiver) send sequence number.
    pub seq: u64,
}

/// A run's match history, per receiver in program order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplayLog {
    per_rank: Vec<Vec<RecordedMatch>>,
}

impl ReplayLog {
    /// The `Match` decisions of a run's decision log, by receiver.
    pub fn from_decisions<'a>(
        n_ranks: usize,
        decisions: impl IntoIterator<Item = &'a DecisionPoint>,
    ) -> Self {
        let mut per_rank = vec![Vec::new(); n_ranks];
        for d in decisions {
            if let Decision::Match { dst, src, seq } = d.chosen {
                per_rank[dst.ix()].push(RecordedMatch { src, seq });
            }
        }
        ReplayLog { per_rank }
    }

    /// The message `receiver`'s next receive must match, given how many
    /// matches it has made. `None` once the replay runs past the recorded
    /// history — receives become free again.
    pub fn pin(&self, receiver: Rank, matches_made: u32) -> Option<RecordedMatch> {
        self.per_rank[receiver.ix()]
            .get(matches_made as usize)
            .copied()
    }

    /// Recorded receive count for a rank.
    pub fn len_for(&self, receiver: Rank) -> usize {
        self.per_rank[receiver.ix()].len()
    }

    pub fn n_ranks(&self) -> usize {
        self.per_rank.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::schedule::{Alternatives, RankSet, ReadyChanges, ReadyDelta};

    fn chose(chosen: Decision) -> DecisionPoint {
        let alternatives = match chosen {
            Decision::Turn { .. } => Alternatives::Turns(ReadyDelta::new(
                &RankSet::full(2),
                &mut ReadyChanges::new(2),
            )),
            Decision::Match { .. } => Alternatives::Matches([chosen].into()),
        };
        DecisionPoint {
            chosen,
            alternatives,
        }
    }

    fn matched(dst: u32, src: u32, seq: u64) -> DecisionPoint {
        chose(Decision::Match {
            dst: Rank(dst),
            src: Rank(src),
            seq,
        })
    }

    #[test]
    fn record_and_replay_in_order() {
        let log = ReplayLog::from_decisions(
            2,
            &[
                chose(Decision::Turn { rank: Rank(0) }),
                matched(1, 0, 0),
                chose(Decision::Turn { rank: Rank(1) }),
                matched(1, 0, 1),
            ],
        );
        assert_eq!(log.len_for(Rank(1)), 2);
        assert_eq!(log.pin(Rank(1), 0).unwrap().seq, 0);
        assert_eq!(log.pin(Rank(1), 1).unwrap().seq, 1);
        assert!(log.pin(Rank(1), 2).is_none(), "exhausted");
        assert!(log.pin(Rank(0), 0).is_none(), "rank 0 recorded nothing");
    }

    #[test]
    fn serde_roundtrip() {
        let log = ReplayLog::from_decisions(1, &[matched(0, 0, 9)]);
        let json = serde_json::to_string(&log).unwrap();
        let back: ReplayLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_ranks(), 1);
        assert_eq!(back.pin(Rank(0), 0).unwrap().seq, 9);
    }
}
