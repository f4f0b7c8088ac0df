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

/// A 64-bit digest of a record sequence, hashed field by field over
/// exactly what a record's `Display` form prints: kind code, rank, marker,
/// `t_start`, `t_end`, the message's `src`/`dst`/`tag`/`seq` and the label
/// bytes. `site`, `args` and `msg.bytes` are *not* part of it — two runs
/// that differ only there are the same observable execution.
///
/// Only the equivalence classes matter: the explorer prunes schedules
/// whose digest it has seen, `localize` keeps one passing reference per
/// digest, and confirm runs compare two digests of one process. The value
/// itself is written nowhere, so the mixing function is free to change;
/// the set of hashed fields is not (`tests/golden.rs` pins it).
pub fn trace_digest(records: &[TraceRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for rec in records {
        // Word 0 carries the kind code and which optional parts follow,
        // so a record's word sequence is self-delimiting.
        let code = rec.kind.code().as_bytes();
        h = mix(
            h,
            code[0] as u64
                | (code[1] as u64) << 8
                | (rec.msg.is_some() as u64) << 16
                | (rec.label.is_some() as u64) << 17
                | (rec.rank.0 as u64) << 32,
        );
        h = mix(h, rec.marker);
        h = mix(h, rec.t_start);
        h = mix(h, rec.t_end);
        if let Some(m) = &rec.msg {
            h = mix(h, m.src.0 as u64 | (m.dst.0 as u64) << 32);
            h = mix(h, m.tag.0 as u32 as u64);
            h = mix(h, m.seq);
        }
        if let Some(label) = &rec.label {
            h = mix(h, label.len() as u64);
            for chunk in label.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h = mix(h, u64::from_le_bytes(word));
            }
        }
    }
    // The multiply only carries differences upward; fold them back down.
    h ^ (h >> 32)
}

/// One word of the digest: rotate, xor, multiply (the FxHash step).
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
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
