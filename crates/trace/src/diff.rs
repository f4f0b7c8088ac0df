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
                        left: l.map(|e| **e),
                        right: rr.map(|e| **e),
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
    fold(records.iter().fold(SEED, mix_record))
}

/// [`trace_digest`]'s classes, from a run's records in the order it
/// recorded them: each rank's records, in marker order, are hashed into
/// that rank's lane, and the lanes are folded in rank order. The
/// canonical order is a function of the rank lanes and they of it (its
/// key, `(t_start, rank, marker)`, is hashed), so two runs' `run_digest`s
/// are equal exactly when the `trace_digest`s of their canonical traces
/// are — and no record is sorted or copied to learn it. The two values
/// differ; compare a `run_digest` only with another.
///
/// A run's records come in stretches of one rank (a grant records until
/// the rank's next request), so each stretch is folded in a register and
/// its lane written back once.
pub fn run_digest<'a>(records: impl IntoIterator<Item = &'a TraceRecord>, n_ranks: usize) -> u64 {
    let mut lanes = vec![(SEED, 0u64); n_ranks];
    // The stretch's rank (`usize::MAX` before the first) and its lane.
    let (mut rank, mut h, mut n) = (usize::MAX, SEED, 0u64);
    for rec in records {
        let r = rec.rank.ix();
        if r != rank {
            if let Some(lane) = lanes.get_mut(rank) {
                *lane = (h, n);
            }
            if r >= lanes.len() {
                lanes.resize(r + 1, (SEED, 0));
            }
            (rank, (h, n)) = (r, lanes[r]);
        }
        (h, n) = (mix_record(h, rec), n + 1);
    }
    if let Some(lane) = lanes.get_mut(rank) {
        *lane = (h, n);
    }
    fold(
        lanes
            .iter()
            .fold(SEED, |h, &(lane, n)| mix(mix(h, lane), n)),
    )
}

/// [`run_digest`] as it was first written, a lane read and written per
/// record: the reference its register fold is pinned to.
#[cfg(test)]
fn run_digest_by_lanes<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    n_ranks: usize,
) -> u64 {
    let mut lanes = vec![(SEED, 0u64); n_ranks];
    for rec in records {
        let rank = rec.rank.ix();
        if rank >= lanes.len() {
            lanes.resize(rank + 1, (SEED, 0));
        }
        let (h, n) = &mut lanes[rank];
        (*h, *n) = (mix_record(*h, rec), *n + 1);
    }
    fold(
        lanes
            .iter()
            .fold(SEED, |h, &(lane, n)| mix(mix(h, lane), n)),
    )
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash one record's digested fields into `h`.
#[inline]
fn mix_record(mut h: u64, rec: &TraceRecord) -> u64 {
    // Word 0 carries the kind code and which optional parts follow, so a
    // record's word sequence is self-delimiting.
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
    if let Some(label) = rec.label {
        let label = label.as_str();
        h = mix(h, label.len() as u64);
        for chunk in label.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix(h, u64::from_le_bytes(word));
        }
    }
    h
}

/// The multiply only carries differences upward; fold them back down.
fn fold(h: u64) -> u64 {
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

    /// The register fold is the lane loop it replaced, bit for bit, on
    /// every golden trace in three orders: canonical (short stretches),
    /// rank by rank (one stretch a rank) and interleaved as a run records
    /// (each rank's records in order, stretches of varying length). A
    /// width below the highest rank, and an empty trace, too.
    #[test]
    fn the_register_fold_is_the_lane_loop() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
        let mut traces = 0;
        for entry in std::fs::read_dir(dir).expect("golden dir") {
            let path = entry.expect("golden entry").path();
            if path.extension() != Some("trc".as_ref()) {
                continue;
            }
            let file = std::fs::File::open(&path).expect("golden trace");
            let trace =
                crate::file::read_text(std::io::BufReader::new(file)).expect("golden trace parses");
            let (canonical, n) = (trace.records, trace.n_ranks);
            let mut by_rank = canonical.clone();
            by_rank.sort_by_key(|r| (r.rank, r.marker));
            // Arrival-like: repeatedly take a stretch of 1 + (i % 4)
            // records from the next rank that has any left.
            let lanes = n.max(1);
            let mut queues: Vec<std::collections::VecDeque<TraceRecord>> =
                vec![Default::default(); lanes];
            for r in &by_rank {
                queues[r.rank.ix() % lanes].push_back(*r);
            }
            let mut arrival = Vec::new();
            for i in 0.. {
                if queues.iter().all(|q| q.is_empty()) {
                    break;
                }
                let q = &mut queues[i % lanes];
                let take = (1 + i % 4).min(q.len());
                arrival.extend(q.drain(..take));
            }
            for (order, recs) in [("canonical", &canonical), ("by rank", &by_rank)]
                .into_iter()
                .chain([("arrival", &arrival)])
            {
                for width in [n, n / 2] {
                    let (got, want) = (
                        run_digest(recs.iter(), width),
                        run_digest_by_lanes(recs.iter(), width),
                    );
                    assert_eq!(got, want, "{}: {order}, width {width}", path.display());
                }
            }
            traces += 1;
        }
        assert!(traces >= 10, "only {traces} golden traces");
        let none: [TraceRecord; 0] = [];
        assert_eq!(run_digest(&none, 3), run_digest_by_lanes(&none, 3));
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
    fn run_digest_ignores_how_ranks_interleave() {
        use EventKind::*;
        let r0 = [(1, 0), (2, 10)].map(|(m, t)| TraceRecord::basic(0u32, Compute, m, t));
        let r1 = [(1, 5), (2, 6)].map(|(m, t)| TraceRecord::basic(1u32, Send, m, t));
        let one = [r0[0], r1[0], r0[1], r1[1]];
        let other = [r1[0], r1[1], r0[0], r0[1]];
        assert_eq!(run_digest(&one, 2), run_digest(&other, 2));
        // A rank's own order is its program order: swapping two of its
        // records is another run.
        let swapped = [r0[0], r1[1], r0[1], r1[0]];
        assert_ne!(run_digest(&one, 2), run_digest(&swapped, 2));
        assert_ne!(run_digest(&one, 2), run_digest(&one[..3], 2));
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
