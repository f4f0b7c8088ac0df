//! Per-trace summary statistics.
//!
//! Used by the benchmark harnesses (message counts per figure) and by the
//! debugger's history reports.

use crate::event::{EventKind, TraceRecord};
use crate::source::{Select, SourceError, TraceSource};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate statistics over a set of trace records.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceStats {
    pub n_events: usize,
    pub n_ranks: usize,
    /// Event count per kind code (BTreeMap for stable display order).
    pub per_kind: BTreeMap<&'static str, usize>,
    /// Event count per rank.
    pub per_rank: BTreeMap<u32, usize>,
    /// Completed messages (RecvDone records).
    pub messages_delivered: usize,
    /// Send records emitted.
    pub sends: usize,
    /// Total payload bytes over all sends.
    pub bytes_sent: u64,
    /// Simulated makespan (max t_end - min t_start).
    pub makespan: u64,
}

/// Ranks counted in a plain array; a higher rank (a trace file can name
/// any `u32`) is counted in a map instead of sizing the array to it.
const DENSE_RANKS: usize = 1 << 16;

/// The counts of one pass, kept in arrays while the records stream by and
/// turned into [`TraceStats`]' maps once at the end.
struct Tally {
    stats: TraceStats,
    per_kind: [usize; EventKind::ALL.len()],
    per_rank: Vec<usize>,
    high_ranks: BTreeMap<u32, usize>,
    t_lo: u64,
    t_hi: u64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            stats: TraceStats::default(),
            per_kind: [0; EventKind::ALL.len()],
            per_rank: Vec::new(),
            high_ranks: BTreeMap::new(),
            t_lo: u64::MAX,
            t_hi: 0,
        }
    }

    fn fold(&mut self, r: &TraceRecord) {
        let s = &mut self.stats;
        s.n_events += 1;
        self.per_kind[r.kind.index()] += 1;
        match r.rank.ix() {
            ix if ix < DENSE_RANKS => {
                if ix >= self.per_rank.len() {
                    self.per_rank.resize(ix + 1, 0);
                }
                self.per_rank[ix] += 1;
            }
            _ => *self.high_ranks.entry(r.rank.0).or_insert(0) += 1,
        }
        self.t_lo = self.t_lo.min(r.t_start);
        self.t_hi = self.t_hi.max(r.t_end);
        match r.kind {
            EventKind::Send => {
                s.sends += 1;
                if let Some(m) = &r.msg {
                    s.bytes_sent += m.bytes as u64;
                }
            }
            EventKind::RecvDone => s.messages_delivered += 1,
            _ => {}
        }
    }

    fn seal(self) -> TraceStats {
        let mut s = self.stats;
        s.per_kind = EventKind::ALL
            .iter()
            .zip(self.per_kind)
            .filter(|&(_, n)| n > 0)
            .map(|(k, n)| (k.code(), n))
            .collect();
        s.per_rank = (0u32..)
            .zip(self.per_rank)
            .filter(|&(_, n)| n > 0)
            .chain(self.high_ranks)
            .collect();
        s.n_ranks = s.per_rank.len();
        s.makespan = if s.n_events == 0 {
            0
        } else {
            self.t_hi - self.t_lo
        };
        s
    }
}

impl TraceStats {
    /// Compute statistics from records.
    pub fn compute(records: &[TraceRecord]) -> Self {
        let mut tally = Tally::new();
        for r in records {
            tally.fold(r);
        }
        tally.seal()
    }

    /// Compute statistics by streaming any [`TraceSource`] — one pass,
    /// constant memory: an on-disk store is never materialized.
    pub fn from_source(src: &dyn TraceSource) -> Result<Self, SourceError> {
        let mut tally = Tally::new();
        for rec in src.select(Select::All)? {
            tally.fold(&rec?);
        }
        Ok(tally.seal())
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} events, {} ranks, {} sends / {} delivered, {} bytes, makespan {} ns",
            self.n_events,
            self.n_ranks,
            self.sends,
            self.messages_delivered,
            self.bytes_sent,
            self.makespan
        )?;
        for (k, n) in &self.per_kind {
            writeln!(f, "  {k}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MsgInfo, TraceRecord};
    use crate::ids::{Rank, Tag};

    fn msg(src: u32, dst: u32, bytes: u32) -> MsgInfo {
        MsgInfo {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag(0),
            bytes,
            seq: 0,
        }
    }

    #[test]
    fn counts_and_makespan() {
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::Send, 1, 10)
                .with_span(10, 12)
                .with_msg(msg(0, 1, 100)),
            TraceRecord::basic(1u32, EventKind::RecvDone, 1, 12)
                .with_span(12, 14)
                .with_msg(msg(0, 1, 100)),
            TraceRecord::basic(0u32, EventKind::Compute, 2, 12).with_span(12, 50),
        ];
        let s = TraceStats::compute(&recs);
        assert_eq!(s.n_events, 3);
        assert_eq!(s.n_ranks, 2);
        assert_eq!(s.sends, 1);
        assert_eq!(s.messages_delivered, 1);
        assert_eq!(s.bytes_sent, 100);
        assert_eq!(s.makespan, 40);
        assert_eq!(s.per_kind["SN"], 1);
    }

    #[test]
    fn ranks_past_the_array_are_counted_too() {
        let recs = vec![
            TraceRecord::basic(u32::MAX, EventKind::Compute, 1, 5),
            TraceRecord::basic(3u32, EventKind::Compute, 1, 5),
            TraceRecord::basic(u32::MAX, EventKind::Probe, 2, 7),
        ];
        let s = TraceStats::compute(&recs);
        assert_eq!(s.n_ranks, 2);
        assert_eq!(s.per_rank, BTreeMap::from([(3, 1), (u32::MAX, 2)]));
        assert_eq!(s.per_kind, BTreeMap::from([("CP", 2), ("PR", 1)]));
    }

    #[test]
    fn empty_trace() {
        let s = TraceStats::compute(&[]);
        assert_eq!(s.n_events, 0);
        assert_eq!(s.makespan, 0);
    }

    #[test]
    fn from_source_matches_compute() {
        use crate::loc::SiteTable;
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::Send, 1, 10)
                .with_span(10, 12)
                .with_msg(msg(0, 1, 100)),
            TraceRecord::basic(1u32, EventKind::RecvDone, 1, 12)
                .with_span(12, 14)
                .with_msg(msg(0, 1, 100)),
            TraceRecord::basic(0u32, EventKind::Compute, 2, 12).with_span(12, 50),
        ];
        let want = TraceStats::compute(&recs);
        let store = crate::TraceStore::build(recs, SiteTable::new(), 2);
        assert_eq!(TraceStats::from_source(&store).unwrap(), want);
    }
}
