//! The merged, queryable execution history.
//!
//! A [`TraceStore`] holds every record of a run in a canonical total order
//! and provides the navigation primitives the debugger and the visualizers
//! need (§4.3 "fast navigation of history"): locating the event at a marker,
//! slicing a rank's timeline, and finding the latest event of each process
//! at or before a wall of simulated time (the vertical-stopline query).

use crate::chunk_log::ChunkLog;
use crate::event::{EventKind, TraceRecord};
use crate::ids::Rank;
use crate::loc::SiteTable;
use crate::marker::{Marker, MarkerVector};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an event in a [`TraceStore`]'s canonical order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct EventId(pub u32);

impl EventId {
    #[inline]
    pub fn ix(self) -> usize {
        self.0 as usize
    }
}

/// A complete, immutable execution history.
pub struct TraceStore {
    records: Vec<TraceRecord>,
    /// Event ids of each rank, in that rank's program (marker) order.
    per_rank: Vec<Vec<EventId>>,
    sites: SiteTable,
    n_ranks: usize,
}

/// A record's place in the canonical order; records with equal keys keep
/// the order they arrived in.
pub type Key = (u64, Rank, u64);

/// The key of the canonical order, `(t_start, rank, marker)`: total,
/// because a rank's markers are unique.
pub fn canonical_key(r: &TraceRecord) -> Key {
    (r.t_start, r.rank, r.marker)
}

/// A permutation to canonical order: entry `i` of `order` holds, in the
/// bits of `mask`, the arrival index of the record that goes to place `i`.
struct Permutation {
    order: Vec<u64>,
    mask: u64,
}

impl Permutation {
    /// The arrival index of the record that goes to `place`.
    fn arrival(&self, place: usize) -> usize {
        (self.order[place] & self.mask) as usize
    }

    /// Move each record of `records` to its place by following the
    /// permutation's cycles: one record is held aside per cycle, and a
    /// place filled is marked by pointing it at itself.
    fn apply(mut self, records: &mut [TraceRecord]) {
        for start in 0..records.len() {
            let mut from = self.arrival(start);
            if from == start {
                continue;
            }
            let held = records[start];
            let mut place = start;
            while from != start {
                records[place] = records[from];
                self.order[place] = place as u64;
                place = from;
                from = self.arrival(place);
            }
            records[place] = held;
            self.order[place] = place as u64;
        }
    }
}

/// The permutation that puts records, read in arrival order, into the
/// stable canonical order — the one place that order is made. `None` when
/// the records already are in order. `at` looks a record up by arrival
/// index.
///
/// Arrival index stands in for the marker, which is right for an engine's
/// log: within one rank, the two orders agree. `by_marker` orders records
/// that need not agree (a decoded file) by marker within a `(t_start,
/// rank)` too.
///
/// Each record becomes an 8-byte key `(t_start - t_min, rank, arrival)`,
/// each field as wide as the records need (one pass finds the widths, one
/// packs), and the keys are sorted, so no term of the cost grows with the
/// rank count. Records whose
/// three fields do not fit 64 bits are sorted as indices, reading `at`
/// (and a merge buffer as long). Scratch is at most 16 bytes a record.
fn canonical_permutation<'a>(
    records: impl Iterator<Item = &'a TraceRecord> + Clone,
    at: impl Fn(usize) -> &'a TraceRecord,
    by_marker: bool,
) -> Option<Permutation> {
    if ascending(records.clone().map(canonical_key)) {
        return None;
    }
    let (mut n, mut t_min, mut t_max, mut top) = (0u64, u64::MAX, 0, 0);
    for r in records.clone() {
        n += 1;
        t_min = t_min.min(r.t_start);
        t_max = t_max.max(r.t_start);
        top = top.max(r.rank.0);
    }
    let bits = |x: u64| u64::BITS - x.leading_zeros();
    let (ix_bits, rank_bits) = (bits(n - 1), bits(top.into()));
    if bits(t_max - t_min) + rank_bits + ix_bits >= u64::BITS {
        let mut order: Vec<u64> = (0..n).collect();
        order.sort_by_key(|&i| {
            let r = at(i as usize);
            (r.t_start, r.rank, if by_marker { r.marker } else { 0 })
        });
        return Some(Permutation {
            order,
            mask: u64::MAX,
        });
    }
    let mut order = Vec::with_capacity(n as usize);
    order.extend(records.enumerate().map(|(i, r)| {
        (r.t_start - t_min) << (rank_bits + ix_bits) | u64::from(r.rank.0) << ix_bits | i as u64
    }));
    order.sort_unstable();
    let mask = (1 << ix_bits) - 1;
    if by_marker {
        let marker = |key: &u64| at((key & mask) as usize).marker;
        let mut start = 0;
        while let Some(&first) = order.get(start) {
            let len = order[start..]
                .iter()
                .take_while(|key| *key >> ix_bits == first >> ix_bits)
                .count();
            let tie = &mut order[start..start + len];
            if !ascending(tie.iter().map(marker)) {
                tie.sort_by_key(marker);
            }
            start += len;
        }
    }
    Some(Permutation { order, mask })
}

/// Does `keys` never go down?
fn ascending<K: PartialOrd>(mut keys: impl Iterator<Item = K>) -> bool {
    let Some(mut prev) = keys.next() else {
        return true;
    };
    keys.all(|key| {
        let up = prev <= key;
        prev = key;
        up
    })
}

impl TraceStore {
    /// Build a store from raw records in any order (a decoded file),
    /// reordered in place.
    ///
    /// Records are put in the canonical order `(t_start, rank, marker)`
    /// (equal keys keep their order); `n_ranks` is inferred from the
    /// records if 0 is passed. Records that already are in that order are
    /// kept where they are. Besides the records, this holds at most 16
    /// bytes per record while it reorders them.
    pub fn build(mut records: Vec<TraceRecord>, sites: SiteTable, n_ranks: usize) -> Self {
        if let Some(order) = canonical_permutation(records.iter(), |i| &records[i], true) {
            order.apply(&mut records);
        }
        Self::from_canonical(records, sites, n_ranks)
    }

    /// Build a store from an engine's log — records in the order they
    /// were recorded, so each rank's in marker order — left as it is: the
    /// records are gathered through the permutation into the store's
    /// vector, each copied once (a debugger stop, which runs on).
    pub fn from_log(log: &ChunkLog<TraceRecord>, sites: SiteTable, n_ranks: usize) -> Self {
        let mut records = Vec::with_capacity(log.len());
        match canonical_permutation(log.iter(), |i| &log[i], false) {
            Some(order) => records.extend((0..log.len()).map(|place| log[order.arrival(place)])),
            None => records.extend(log.iter().copied()),
        }
        Self::from_canonical(records, sites, n_ranks)
    }

    /// [`TraceStore::from_log`] for a caller that is done with the log:
    /// its `Vec` is taken ([`ChunkLog::into_vec`]) and reordered in place,
    /// so besides the records only the permutation's scratch is held.
    pub fn from_owned_log(log: ChunkLog<TraceRecord>, sites: SiteTable, n_ranks: usize) -> Self {
        let mut records = log.into_vec();
        if let Some(order) = canonical_permutation(records.iter(), |i| &records[i], false) {
            order.apply(&mut records);
        }
        Self::from_canonical(records, sites, n_ranks)
    }

    /// Index records that are in canonical order.
    fn from_canonical(records: Vec<TraceRecord>, sites: SiteTable, n_ranks: usize) -> Self {
        // Use the declared rank count, but never less than the records
        // actually reference (robustness against undersized headers). A
        // lane starts with room for an even share of the records.
        let share = records.len() / n_ranks.max(1);
        let mut per_rank: Vec<Vec<EventId>> =
            (0..n_ranks).map(|_| Vec::with_capacity(share)).collect();
        let mut in_marker_order = true;
        for (i, r) in records.iter().enumerate() {
            let rank = r.rank.ix();
            if rank >= per_rank.len() {
                per_rank.resize_with(rank + 1, Vec::new);
            }
            let lane = &mut per_rank[rank];
            if let Some(last) = lane.last() {
                in_marker_order &= records[last.ix()].marker <= r.marker;
            }
            lane.push(EventId(i as u32));
        }
        // Within a rank, canonical order must agree with program order.
        if !in_marker_order {
            for lane in &mut per_rank {
                lane.sort_by_key(|id| records[id.ix()].marker);
            }
        }
        let n_ranks = per_rank.len();
        TraceStore {
            records,
            per_rank,
            sites,
            n_ranks,
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// All records in canonical order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The record of an event.
    pub fn record(&self, id: EventId) -> &TraceRecord {
        &self.records[id.ix()]
    }

    /// Iterate event ids in canonical order.
    pub fn ids(&self) -> impl Iterator<Item = EventId> {
        (0..self.records.len() as u32).map(EventId)
    }

    /// Event ids of `rank` in program order.
    pub fn by_rank(&self, rank: Rank) -> &[EventId] {
        &self.per_rank[rank.ix()]
    }

    /// Locate the event with marker `m` (binary search in program order).
    pub fn find_marker(&self, m: Marker) -> Option<EventId> {
        let lane = self.per_rank.get(m.rank.ix())?;
        let pos = lane
            .binary_search_by_key(&m.count, |id| self.records[id.ix()].marker)
            .ok()?;
        Some(lane[pos])
    }

    /// For each rank, the marker of the last event that *completed*
    /// (`t_end`) at or before `t` — the vertical-slice stopline of §4.1.
    /// Ranks with no completed event by `t` get marker 0 ("stop before the
    /// first event").
    ///
    /// Completion semantics is what makes every vertical slice a consistent
    /// cut: the runtime guarantees a receive completes no earlier than its
    /// send, so "everything completed by `t`" can never contain a receive
    /// without its send.
    pub fn markers_at_time(&self, t: u64) -> MarkerVector {
        let mut v = MarkerVector::zero(self.n_ranks);
        for (r, lane) in self.per_rank.iter().enumerate() {
            // Lanes are in marker order; end times within a rank are
            // nondecreasing because a process is sequential.
            let mut last = 0;
            for id in lane {
                let rec = &self.records[id.ix()];
                if rec.t_end <= t {
                    last = rec.marker;
                } else {
                    break;
                }
            }
            v.set(Rank(r as u32), last);
        }
        v
    }

    /// Smallest `t_start` and largest `t_end` over all records.
    pub fn time_bounds(&self) -> (u64, u64) {
        let lo = self.records.iter().map(|r| r.t_start).min().unwrap_or(0);
        let hi = self.records.iter().map(|r| r.t_end).max().unwrap_or(0);
        (lo, hi)
    }

    /// Events whose `[t_start, t_end]` span intersects `[lo, hi]`.
    pub fn in_window(&self, lo: u64, hi: u64) -> Vec<EventId> {
        self.ids()
            .filter(|id| {
                let r = self.record(*id);
                r.t_start <= hi && r.t_end >= lo
            })
            .collect()
    }

    /// Events of a given kind, canonical order.
    pub fn of_kind(&self, kind: EventKind) -> Vec<EventId> {
        self.ids()
            .filter(|id| self.record(*id).kind == kind)
            .collect()
    }

    /// The latest event of each rank (end of trace), as a marker vector.
    pub fn final_markers(&self) -> MarkerVector {
        let mut v = MarkerVector::zero(self.n_ranks);
        for (r, lane) in self.per_rank.iter().enumerate() {
            if let Some(id) = lane.last() {
                v.set(Rank(r as u32), self.records[id.ix()].marker);
            }
        }
        v
    }
}

impl fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TraceStore({} events, {} ranks)",
            self.records.len(),
            self.n_ranks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind::*;

    fn mk(rank: u32, kind: crate::EventKind, marker: u64, t0: u64, t1: u64) -> TraceRecord {
        TraceRecord::basic(rank, kind, marker, t0).with_span(t0, t1)
    }

    fn sample() -> TraceStore {
        // P0: compute(0..10) send(10..12) recv(20..25)
        // P1: recv(0..15) compute(15..30)
        let recs = vec![
            mk(1, RecvDone, 1, 0, 15),
            mk(0, Compute, 1, 0, 10),
            mk(0, Send, 2, 10, 12),
            mk(1, Compute, 2, 15, 30),
            mk(0, RecvDone, 3, 20, 25),
        ];
        TraceStore::build(recs, SiteTable::new(), 0)
    }

    #[test]
    fn canonical_order_and_rank_inference() {
        let s = sample();
        assert_eq!(s.n_ranks(), 2);
        assert_eq!(s.len(), 5);
        let starts: Vec<u64> = s.records().iter().map(|r| r.t_start).collect();
        let mut sorted = starts.clone();
        sorted.sort();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn per_rank_in_program_order() {
        let s = sample();
        let p0: Vec<u64> = s
            .by_rank(Rank(0))
            .iter()
            .map(|id| s.record(*id).marker)
            .collect();
        assert_eq!(p0, vec![1, 2, 3]);
    }

    #[test]
    fn a_lane_follows_markers_where_time_disagrees() {
        let recs = vec![
            mk(0, Compute, 2, 0, 5),
            mk(0, Compute, 1, 3, 4),
            mk(2, Probe, 1, 1, 1),
        ];
        let s = TraceStore::build(recs, SiteTable::new(), 0);
        assert_eq!(s.n_ranks(), 3);
        let lane: Vec<u64> = s
            .by_rank(Rank(0))
            .iter()
            .map(|id| s.record(*id).marker)
            .collect();
        assert_eq!(lane, [1, 2]);
        assert!(s.by_rank(Rank(1)).is_empty());
    }

    #[test]
    fn find_marker_works() {
        let s = sample();
        let id = s.find_marker(Marker::new(0u32, 2)).unwrap();
        assert_eq!(s.record(id).kind, Send);
        assert!(s.find_marker(Marker::new(0u32, 9)).is_none());
        assert!(s.find_marker(Marker::new(5u32, 1)).is_none());
    }

    #[test]
    fn vertical_slice_markers() {
        let s = sample();
        // At t=13: P0 has completed compute (..10) and send (..12) →
        // marker 2; P1's first recv completes at 15 → marker 0.
        let v = s.markers_at_time(13);
        assert_eq!(v.get(Rank(0)), 2);
        assert_eq!(v.get(Rank(1)), 0);
        // At t=16 P1's recv (..15) is in.
        assert_eq!(s.markers_at_time(16).get(Rank(1)), 1);
        // Before anything completed: all zero.
        let v0 = s.markers_at_time(0);
        assert_eq!(v0.counts(), &[0, 0]);
        // At the very end: everything.
        assert_eq!(s.markers_at_time(30).counts(), &[3, 2]);
        let v_none = TraceStore::build(vec![], SiteTable::new(), 2).markers_at_time(100);
        assert_eq!(v_none.counts(), &[0, 0]);
    }

    #[test]
    fn window_and_bounds() {
        let s = sample();
        assert_eq!(s.time_bounds(), (0, 30));
        let w = s.in_window(12, 16);
        // send(10..12), recv P1 (0..15), compute P1 (15..30) intersect
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn final_markers() {
        let s = sample();
        let v = s.final_markers();
        assert_eq!(v.get(Rank(0)), 3);
        assert_eq!(v.get(Rank(1)), 2);
    }

    #[test]
    fn of_kind_filters() {
        let s = sample();
        assert_eq!(s.of_kind(Send).len(), 1);
        assert_eq!(s.of_kind(RecvDone).len(), 2);
        assert_eq!(s.of_kind(Probe).len(), 0);
    }
}
