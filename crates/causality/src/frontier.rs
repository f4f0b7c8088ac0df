//! Past/future frontiers and concurrency regions (§4.1, Figure 8).
//!
//! "In order to depict the past and future of an event we use the notion
//! of *consistent frontier*. It is defined as a set of events in which no
//! event happens before another. Lack of circular message dependencies in
//! the trace file guarantees that the set of most recent events in the
//! past is a consistent frontier (past frontier). The same is true for the
//! set of earliest events of the future (future frontier)."
//!
//! Figure 8 draws both frontiers around a user-selected event; the region
//! between them is the set of events concurrent with the selection. Each
//! frontier is one cone walk from that event ([`HbIndex::past_markers`],
//! [`HbIndex::future_markers`]) — nothing is precomputed for the events
//! the user did not select.

use crate::hb::{HbIndex, NO_SUCC};
use tracedbg_trace::{EventId, Marker, MarkerVector, Rank, TraceStore};

/// A frontier: at most one event per rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frontier {
    /// Per rank: the frontier event's marker (None = no event of that rank
    /// on this frontier).
    entries: Vec<Option<Marker>>,
}

impl Frontier {
    /// The most recent event of each rank that happens before (or is) `e`
    /// — the **past frontier**.
    pub fn past_of(hb: &HbIndex, e: EventId) -> Frontier {
        Frontier::from_markers(hb.past_markers(e), 0)
    }

    /// The earliest event of each rank that `e` happens before (or is) —
    /// the **future frontier**.
    pub fn future_of(hb: &HbIndex, e: EventId) -> Frontier {
        Frontier::from_markers(hb.future_markers(e), NO_SUCC)
    }

    fn from_markers(markers: Vec<u64>, none: u64) -> Frontier {
        Frontier {
            entries: markers
                .iter()
                .enumerate()
                .map(|(r, &m)| (m != none).then(|| Marker::new(r as u32, m)))
                .collect(),
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.entries.len()
    }

    pub fn marker_of(&self, rank: Rank) -> Option<Marker> {
        self.entries[rank.ix()]
    }

    /// Markers as a vector, with 0 for ranks without a frontier event —
    /// directly usable as a stopline ("the user could be given a choice of
    /// stopping execution in each process either immediately after the
    /// point where it could last affect the selected state or immediately
    /// before the point where it could first be affected").
    pub fn as_marker_vector(&self) -> MarkerVector {
        MarkerVector::from_counts(
            self.entries
                .iter()
                .map(|e| e.map(|m| m.count).unwrap_or(0))
                .collect(),
        )
    }

    /// The cut "everything up to and including the frontier" (used for a
    /// past-frontier stopline: stop each process immediately *after* the
    /// point where it could last affect the selected state).
    pub fn inclusive_cut(&self) -> MarkerVector {
        self.as_marker_vector()
    }

    /// The cut "everything strictly before the frontier" (used for a
    /// future-frontier stopline: stop each process immediately *before*
    /// the point where it could first be affected by the selected state).
    /// Ranks with no frontier event stop at `default` — pass the trace's
    /// final markers to let them run to completion.
    pub fn exclusive_cut(&self, default: &MarkerVector) -> MarkerVector {
        MarkerVector::from_counts(
            self.entries
                .iter()
                .enumerate()
                .map(|(r, e)| match e {
                    Some(m) => m.count.saturating_sub(1),
                    None => default.get(Rank(r as u32)),
                })
                .collect(),
        )
    }

    pub fn iter(&self) -> impl Iterator<Item = Marker> + '_ {
        self.entries.iter().flatten().copied()
    }
}

/// The three-way classification of a trace relative to a selected event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Region {
    Past,
    Concurrent,
    Future,
}

/// Concurrency region of an event: every other event classified.
pub struct ConcurrencyRegion {
    pub event: EventId,
    past: Vec<u64>,
    future: Vec<u64>,
}

impl ConcurrencyRegion {
    pub fn of(hb: &HbIndex, e: EventId) -> Self {
        ConcurrencyRegion {
            event: e,
            past: hb.past_markers(e),
            future: hb.future_markers(e),
        }
    }

    /// Classify an event by rank and marker.
    pub fn classify(&self, rank: Rank, marker: u64) -> Region {
        if marker <= self.past[rank.ix()] {
            Region::Past
        } else if marker >= self.future[rank.ix()] {
            Region::Future
        } else {
            Region::Concurrent
        }
    }

    /// Classify a store event.
    pub fn classify_event(&self, store: &TraceStore, e: EventId) -> Region {
        let rec = store.record(e);
        self.classify(rec.rank, rec.marker)
    }

    /// All events concurrent with the selection ("the user can skip events
    /// that do not affect (or are not affected by) the current event").
    pub fn concurrent_events(&self, store: &TraceStore) -> Vec<EventId> {
        store
            .ids()
            .filter(|&id| id != self.event && self.classify_event(store, id) == Region::Concurrent)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{EventKind, MsgInfo, SiteTable, Tag, TraceRecord};
    use tracedbg_tracegraph::MessageMatching;

    /// P0: c(1) send(2) c(3);  P1: c(1) recv(2) c(3);  P2: c(1)
    fn store() -> TraceStore {
        let m = MsgInfo {
            src: Rank(0),
            dst: Rank(1),
            tag: Tag(1),
            bytes: 8,
            seq: 0,
        };
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::Compute, 1, 0).with_span(0, 10),
            TraceRecord::basic(0u32, EventKind::Send, 2, 10)
                .with_span(10, 12)
                .with_msg(m),
            TraceRecord::basic(0u32, EventKind::Compute, 3, 12).with_span(12, 30),
            TraceRecord::basic(1u32, EventKind::Compute, 1, 0).with_span(0, 5),
            TraceRecord::basic(1u32, EventKind::RecvDone, 2, 5)
                .with_span(5, 20)
                .with_msg(m),
            TraceRecord::basic(1u32, EventKind::Compute, 3, 20).with_span(20, 40),
            TraceRecord::basic(2u32, EventKind::Compute, 1, 0).with_span(0, 100),
        ];
        TraceStore::build(recs, SiteTable::new(), 3)
    }

    fn index(s: &TraceStore) -> HbIndex<'_> {
        HbIndex::build(s, &MessageMatching::build(s))
    }

    fn ev(store: &TraceStore, rank: u32, marker: u64) -> EventId {
        store
            .find_marker(tracedbg_trace::Marker::new(rank, marker))
            .unwrap()
    }

    #[test]
    fn past_frontier_of_recv() {
        let s = store();
        let hb = index(&s);
        let recv = ev(&s, 1, 2);
        let f = Frontier::past_of(&hb, recv);
        assert_eq!(f.marker_of(Rank(0)), Some(Marker::new(0u32, 2)));
        assert_eq!(f.marker_of(Rank(1)), Some(Marker::new(1u32, 2)));
        assert_eq!(f.marker_of(Rank(2)), None);
        // The induced stopline cut is consistent.
        let mm = MessageMatching::build(&s);
        assert!(crate::cut::verify_cut(&s, &mm, &f.inclusive_cut()).is_empty());
    }

    #[test]
    fn future_frontier_of_send() {
        let s = store();
        let hb = index(&s);
        let send = ev(&s, 0, 2);
        let f = Frontier::future_of(&hb, send);
        assert_eq!(f.marker_of(Rank(0)), Some(Marker::new(0u32, 2)));
        assert_eq!(f.marker_of(Rank(1)), Some(Marker::new(1u32, 2)));
        assert_eq!(f.marker_of(Rank(2)), None);
        // Stopping strictly before the future frontier is consistent.
        let mm = MessageMatching::build(&s);
        let cut = f.exclusive_cut(&s.final_markers());
        assert_eq!(cut.counts(), &[1, 1, 1]);
        assert!(crate::cut::verify_cut(&s, &mm, &cut).is_empty());
    }

    #[test]
    fn frontier_as_stopline_vector() {
        let s = store();
        let hb = index(&s);
        let recv = ev(&s, 1, 2);
        let v = Frontier::past_of(&hb, recv).as_marker_vector();
        assert_eq!(v.counts(), &[2, 2, 0]);
    }

    #[test]
    fn concurrency_region_classification() {
        let s = store();
        let hb = index(&s);
        // Select P1's recv (marker 2).
        let region = ConcurrencyRegion::of(&hb, ev(&s, 1, 2));
        use Region::*;
        assert_eq!(region.classify(Rank(0), 1), Past);
        assert_eq!(region.classify(Rank(0), 2), Past);
        assert_eq!(region.classify(Rank(0), 3), Concurrent);
        assert_eq!(region.classify(Rank(1), 1), Past);
        assert_eq!(region.classify(Rank(1), 3), Future);
        assert_eq!(region.classify(Rank(2), 1), Concurrent);
    }

    #[test]
    fn concurrent_events_listed() {
        let s = store();
        let hb = index(&s);
        let region = ConcurrencyRegion::of(&hb, ev(&s, 1, 2));
        let conc = region.concurrent_events(&s);
        // P0 m3 and P2 m1
        assert_eq!(conc.len(), 2);
        let set: Vec<(u32, u64)> = conc
            .iter()
            .map(|&id| (s.record(id).rank.0, s.record(id).marker))
            .collect();
        assert!(set.contains(&(0, 3)));
        assert!(set.contains(&(2, 1)));
    }
}
