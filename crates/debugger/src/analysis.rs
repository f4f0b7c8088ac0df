//! History analysis (§4.4): communication supervision reports.
//!
//! "The debugger maintains a list of unmatched sends and receives. ... As
//! soon as the communication graph has been built, the user is informed
//! about the unmatched send/receives. ... the debugger is also able to
//! detect deadlocks due to circular dependency in sends or receives."

use std::fmt;
use tracedbg_causality::{detect_circular_waits, detect_races, CircularWait, HbIndex, MessageRace};
use tracedbg_trace::{Rank, TraceStore};
use tracedbg_tracegraph::{
    find_intertwined, Intertwining, MessageMatching, UnmatchedRecv, UnmatchedSend,
};

/// Everything §4.4 reports about a trace.
pub struct HistoryReport {
    pub n_ranks: usize,
    pub messages_matched: usize,
    pub unmatched_sends: Vec<UnmatchedSend>,
    pub unmatched_recvs: Vec<UnmatchedRecv>,
    pub circular_waits: Vec<CircularWait>,
    pub races: Vec<MessageRace>,
    /// Same-channel messages received out of send order (§4.4's
    /// "intertwined messages" — legal under tag-selective receives).
    pub intertwined: Vec<Intertwining>,
    /// Messages delivered into each rank.
    pub received_counts: Vec<usize>,
}

impl HistoryReport {
    /// Analyze a complete trace.
    pub fn analyze(store: &TraceStore) -> Self {
        let matching = MessageMatching::build(store);
        let hb = HbIndex::build(store, &matching);
        Self::from_indexes(store, matching, &hb)
    }

    /// [`HistoryReport::analyze`] for a caller that already built the
    /// trace's matching and happens-before index (to check the trace is
    /// causal before reporting on it).
    pub fn from_indexes(store: &TraceStore, matching: MessageMatching, hb: &HbIndex<'_>) -> Self {
        let races = detect_races(store, &matching, hb);
        let circular_waits = detect_circular_waits(store, &matching);
        let intertwined = find_intertwined(store, &matching);
        let received_counts = matching.received_counts(store.n_ranks(), store);
        HistoryReport {
            n_ranks: store.n_ranks(),
            messages_matched: matching.matched.len(),
            unmatched_sends: matching.unmatched_sends,
            unmatched_recvs: matching.unmatched_recvs,
            circular_waits,
            races,
            intertwined,
            received_counts,
        }
    }

    /// Is the history free of anomalies?
    pub fn is_clean(&self) -> bool {
        self.unmatched_sends.is_empty()
            && self.unmatched_recvs.is_empty()
            && self.circular_waits.is_empty()
            && self.races.is_empty()
    }

    /// Ranks that received fewer messages than the given expectation — the
    /// Figure 6 diagnosis ("processes 1-6 each receive 2 messages and
    /// process 7 only receives 1").
    pub fn underfed_ranks(&self, expected: &[usize]) -> Vec<Rank> {
        self.received_counts
            .iter()
            .zip(expected)
            .enumerate()
            .filter(|(_, (got, want))| got < want)
            .map(|(r, _)| Rank(r as u32))
            .collect()
    }
}

impl fmt::Display for HistoryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "history: {} matched message(s), {} unmatched send(s), {} blocked receive(s)",
            self.messages_matched,
            self.unmatched_sends.len(),
            self.unmatched_recvs.len()
        )?;
        for u in &self.unmatched_sends {
            writeln!(
                f,
                "  LOST: P{} -> P{} tag{} #{} was never received",
                u.info.src, u.info.dst, u.info.tag, u.info.seq
            )?;
        }
        for u in &self.unmatched_recvs {
            match u.src {
                Some(s) => writeln!(f, "  BLOCKED: P{} waiting on P{}", u.rank, s)?,
                None => writeln!(f, "  BLOCKED: P{} waiting on ANY_SOURCE", u.rank)?,
            }
        }
        for c in &self.circular_waits {
            write!(f, "  DEADLOCK cycle:")?;
            for r in &c.ranks {
                write!(f, " P{r}")?;
            }
            writeln!(f)?;
        }
        for r in &self.races {
            writeln!(
                f,
                "  RACE: wildcard receive (event {:?}) had {} alternative sender(s)",
                r.recv,
                r.alternatives.len()
            )?;
        }
        for t in &self.intertwined {
            writeln!(
                f,
                "  INTERTWINED: on channel P{}->P{} a later send was received first",
                t.src, t.dst
            )?;
        }
        write!(f, "  received per rank: {:?}", self.received_counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{EventKind, MsgInfo, SiteTable, Tag, TraceRecord};

    fn msg(src: u32, dst: u32, seq: u64) -> MsgInfo {
        MsgInfo {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag(1),
            bytes: 8,
            seq,
        }
    }

    #[test]
    fn clean_history() {
        let m = msg(0, 1, 0);
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::Send, 1, 0)
                .with_span(0, 1)
                .with_msg(m),
            TraceRecord::basic(1u32, EventKind::RecvPost, 1, 2).with_args(0, 1),
            TraceRecord::basic(1u32, EventKind::RecvDone, 2, 2)
                .with_span(2, 3)
                .with_msg(m),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 2);
        let rep = HistoryReport::analyze(&store);
        assert!(rep.is_clean());
        assert_eq!(rep.messages_matched, 1);
        assert_eq!(rep.received_counts, vec![0, 1]);
    }

    #[test]
    fn figure6_style_report() {
        // P0 sends to P1 twice but P1 receives once; P1 then blocks on P0.
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::Send, 1, 0)
                .with_span(0, 1)
                .with_msg(msg(0, 1, 0)),
            TraceRecord::basic(0u32, EventKind::Send, 2, 1)
                .with_span(1, 2)
                .with_msg(msg(0, 1, 1)),
            TraceRecord::basic(1u32, EventKind::RecvPost, 1, 3).with_args(0, 1),
            TraceRecord::basic(1u32, EventKind::RecvDone, 2, 3)
                .with_span(3, 4)
                .with_msg(msg(0, 1, 0)),
            TraceRecord::basic(2u32, EventKind::RecvPost, 1, 5).with_args(0, 1),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 3);
        let rep = HistoryReport::analyze(&store);
        assert!(!rep.is_clean());
        assert_eq!(rep.unmatched_sends.len(), 1);
        assert_eq!(rep.unmatched_recvs.len(), 1);
        assert_eq!(rep.underfed_ranks(&[0, 1, 1]), vec![Rank(2)]);
        let txt = format!("{rep}");
        assert!(txt.contains("LOST: P0 -> P1"), "{txt}");
        assert!(txt.contains("BLOCKED: P2 waiting on P0"), "{txt}");
    }

    #[test]
    fn deadlock_cycle_reported() {
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::RecvPost, 1, 0).with_args(7, -1),
            TraceRecord::basic(7u32, EventKind::RecvPost, 1, 0).with_args(0, -1),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 8);
        let rep = HistoryReport::analyze(&store);
        assert_eq!(rep.circular_waits.len(), 1);
        assert_eq!(rep.circular_waits[0].ranks, vec![Rank(0), Rank(7)]);
        assert!(format!("{rep}").contains("DEADLOCK cycle: P0 P7"));
    }
}
