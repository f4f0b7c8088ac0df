//! Trace comparison — verifying replay fidelity.
//!
//! §4.2 promises that a controlled replay "has identical event causality
//! with the original program execution". [`diff_traces`] checks that claim
//! mechanically: walk each rank's event lane in both traces and report the
//! first divergence (different kind, site, message, or timing) per rank.
//! The debugger uses it to validate replays; tests use it to pin down
//! determinism regressions.

use crate::event::TraceRecord;
use crate::history::TraceStore;
use crate::ids::Rank;
use std::fmt;

/// How strictly to compare events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiffMode {
    /// Kind, site, message endpoints/tag/seq, args — but not timestamps.
    Causal,
    /// Everything including simulated timestamps (bit-exact replay).
    Exact,
}

/// The first divergence found on one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    pub rank: Rank,
    /// Marker at which the traces diverge (1-based; equals the position in
    /// the lane).
    pub marker: u64,
    /// The event in the left trace, if it exists at that position.
    pub left: Option<TraceRecord>,
    /// The event in the right trace, if it exists at that position.
    pub right: Option<TraceRecord>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence on {:?} at marker {}:",
            self.rank, self.marker
        )?;
        match &self.left {
            Some(l) => writeln!(f, "  left : {l}")?,
            None => writeln!(f, "  left : <no event>")?,
        }
        match &self.right {
            Some(r) => write!(f, "  right: {r}"),
            None => write!(f, "  right: <no event>"),
        }
    }
}

fn events_equal(a: &TraceRecord, b: &TraceRecord, mode: DiffMode) -> bool {
    let causal = a.kind == b.kind
        && a.site == b.site
        && a.msg == b.msg
        && a.args == b.args
        && a.label == b.label
        && a.marker == b.marker;
    match mode {
        DiffMode::Causal => causal,
        DiffMode::Exact => causal && a.t_start == b.t_start && a.t_end == b.t_end,
    }
}

/// Compare two traces rank by rank; one divergence (the first) per rank.
/// Empty result = the traces agree under `mode`.
pub fn diff_traces(left: &TraceStore, right: &TraceStore, mode: DiffMode) -> Vec<Divergence> {
    let n = left.n_ranks().max(right.n_ranks());
    let mut out = Vec::new();
    for r in 0..n {
        let rank = Rank(r as u32);
        let llane: Vec<&TraceRecord> = if r < left.n_ranks() {
            left.by_rank(rank)
                .iter()
                .map(|&id| left.record(id))
                .collect()
        } else {
            Vec::new()
        };
        let rlane: Vec<&TraceRecord> = if r < right.n_ranks() {
            right
                .by_rank(rank)
                .iter()
                .map(|&id| right.record(id))
                .collect()
        } else {
            Vec::new()
        };
        let len = llane.len().max(rlane.len());
        for i in 0..len {
            match (llane.get(i), rlane.get(i)) {
                (Some(l), Some(rr)) if events_equal(l, rr, mode) => continue,
                (l, rr) => {
                    out.push(Divergence {
                        rank,
                        marker: i as u64 + 1,
                        left: l.map(|e| (*e).clone()),
                        right: rr.map(|e| (*e).clone()),
                    });
                    break;
                }
            }
        }
    }
    out
}

/// A stable 64-bit digest of a record sequence (FNV-1a over each record's
/// canonical display form). Two runs with equal digests produced the same
/// observable execution; the explorer uses this to prune equivalent
/// schedules and the golden corpus uses it as a cheap identity check.
pub fn trace_digest(records: &[TraceRecord]) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for rec in records {
        // `Display` streams straight into the hash: no `String` per record.
        writeln!(h, "{rec}").expect("hashing cannot fail");
    }
    h.0
}

/// FNV-1a as a formatting sink.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::loc::SiteTable;

    fn store(markers: &[(u32, u64, EventKind, u64)]) -> TraceStore {
        let recs = markers
            .iter()
            .map(|&(r, m, k, t)| TraceRecord::basic(r, k, m, t).with_span(t, t + 1))
            .collect();
        TraceStore::build(recs, SiteTable::new(), 0)
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        use EventKind::*;
        let spec = [(0, 1, Compute, 0), (0, 2, Send, 10), (1, 1, RecvDone, 5)];
        let a = store(&spec);
        let b = store(&spec);
        assert!(diff_traces(&a, &b, DiffMode::Exact).is_empty());
        assert!(diff_traces(&a, &b, DiffMode::Causal).is_empty());
    }

    #[test]
    fn kind_change_detected() {
        use EventKind::*;
        let a = store(&[(0, 1, Compute, 0), (0, 2, Send, 10)]);
        let b = store(&[(0, 1, Compute, 0), (0, 2, Probe, 10)]);
        let d = diff_traces(&a, &b, DiffMode::Causal);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rank, Rank(0));
        assert_eq!(d[0].marker, 2);
        assert_eq!(d[0].left.as_ref().unwrap().kind, Send);
        let text = format!("{}", d[0]);
        assert!(text.contains("marker 2"), "{text}");
    }

    #[test]
    fn timing_only_difference_is_causal_equal() {
        use EventKind::*;
        let a = store(&[(0, 1, Compute, 0)]);
        let b = store(&[(0, 1, Compute, 99)]);
        assert!(diff_traces(&a, &b, DiffMode::Causal).is_empty());
        let d = diff_traces(&a, &b, DiffMode::Exact);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn shorter_lane_reports_missing_event() {
        use EventKind::*;
        let a = store(&[(0, 1, Compute, 0), (0, 2, Compute, 10)]);
        let b = store(&[(0, 1, Compute, 0)]);
        let d = diff_traces(&a, &b, DiffMode::Causal);
        assert_eq!(d.len(), 1);
        assert!(d[0].right.is_none());
        assert_eq!(d[0].marker, 2);
    }

    #[test]
    fn extra_rank_reported() {
        use EventKind::*;
        let a = store(&[(0, 1, Compute, 0)]);
        let b = store(&[(0, 1, Compute, 0), (1, 1, Compute, 0)]);
        let d = diff_traces(&a, &b, DiffMode::Causal);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rank, Rank(1));
        assert!(d[0].left.is_none());
    }

    #[test]
    fn digest_distinguishes_and_matches() {
        use EventKind::*;
        let a = [
            TraceRecord::basic(0u32, Compute, 1, 0),
            TraceRecord::basic(0u32, Send, 2, 5),
        ];
        let b = [
            TraceRecord::basic(0u32, Compute, 1, 0),
            TraceRecord::basic(0u32, Send, 2, 5),
        ];
        let c = [
            TraceRecord::basic(0u32, Compute, 1, 0),
            TraceRecord::basic(0u32, Probe, 2, 5),
        ];
        assert_eq!(trace_digest(&a), trace_digest(&b));
        assert_ne!(trace_digest(&a), trace_digest(&c));
        assert_ne!(trace_digest(&a), trace_digest(&a[..1]));
    }

    #[test]
    fn one_divergence_per_rank() {
        use EventKind::*;
        let a = store(&[(0, 1, Compute, 0), (0, 2, Compute, 1), (0, 3, Compute, 2)]);
        let b = store(&[(0, 1, Probe, 0), (0, 2, Probe, 1), (0, 3, Probe, 2)]);
        let d = diff_traces(&a, &b, DiffMode::Causal);
        assert_eq!(d.len(), 1, "only the first divergence per rank");
        assert_eq!(d[0].marker, 1);
    }
}
