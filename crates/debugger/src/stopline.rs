//! Stoplines: breakpoints in the timeline (§4.1).
//!
//! "To set a stopline, the user identifies a particular event in the
//! timeline and then invokes the 'set stopline' operation. The meaning of
//! the stopline is that execution should stop at that point in the process
//! where the event was selected. Other processes will be stopped at a
//! point consistent with that point."
//!
//! A stopline is a [`MarkerVector`]: one `UserMonitor` threshold per
//! process. Three constructions are provided:
//!
//! * [`Stopline::vertical`] — the vertical slice at a clicked time;
//! * [`Stopline::past_frontier`] — stop each process immediately after the
//!   point where it could last affect the selected event;
//! * [`Stopline::future_frontier`] — stop each process immediately before
//!   the point where it could first be affected by the selected event.
//!
//! (The frontier variants are the extension §4.1 describes as "not
//! currently implemented" in p2d2.)

use tracedbg_causality::{verify_cut, Frontier, HbIndex};
use tracedbg_trace::{EventId, Marker, MarkerVector, Select, SourceError, TraceSource, TraceStore};
use tracedbg_tracegraph::MessageMatching;

/// A consistent set of per-process stop markers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stopline {
    pub markers: MarkerVector,
    /// Human-readable provenance ("t=1234", "past of P3@17", ...).
    pub origin: String,
}

impl Stopline {
    /// The vertical slice at simulated time `t` (the Figure 2/6 stopline).
    pub fn vertical(store: &TraceStore, t: u64) -> Stopline {
        Stopline {
            markers: store.markers_at_time(t),
            origin: format!("t={t}"),
        }
    }

    /// [`Stopline::vertical`] over any [`TraceSource`]: builds the slice
    /// by streaming the `[0, t]` time window, so an on-disk store answers
    /// from its sparse time index without materializing the trace. Within
    /// a rank markers and end times both increase in program order, so the
    /// per-rank maximum marker among events with `t_end <= t` is exactly
    /// the lane-prefix threshold `vertical` computes.
    pub fn vertical_from(src: &dyn TraceSource, t: u64) -> Result<Stopline, SourceError> {
        let mut markers = MarkerVector::zero(src.source_n_ranks());
        for rec in src.select(Select::TimeWindow(0, t))? {
            let rec = rec?;
            if rec.t_end <= t && rec.marker > markers.get(rec.rank) {
                markers.set(rec.rank, rec.marker);
            }
        }
        Ok(Stopline {
            markers,
            origin: format!("t={t}"),
        })
    }

    /// Stop at the selected event in its process and at the last point
    /// that could have affected it everywhere else.
    pub fn past_frontier(store: &TraceStore, hb: &HbIndex, event: EventId) -> Stopline {
        let f = Frontier::past_of(hb, event);
        let rec = store.record(event);
        Stopline {
            markers: f.inclusive_cut(),
            origin: format!("past of {:?}", Marker::new(rec.rank, rec.marker)),
        }
    }

    /// Stop immediately before each process could first be affected by the
    /// selected event (processes never affected run to their final
    /// marker).
    pub fn future_frontier(store: &TraceStore, hb: &HbIndex, event: EventId) -> Stopline {
        let f = Frontier::future_of(hb, event);
        let rec = store.record(event);
        Stopline {
            markers: f.exclusive_cut(&store.final_markers()),
            origin: format!("before future of {:?}", Marker::new(rec.rank, rec.marker)),
        }
    }

    /// Stop exactly at a selected event, other processes at the vertical
    /// slice through its completion time.
    pub fn at_event(store: &TraceStore, event: EventId) -> Stopline {
        let rec = store.record(event);
        let mut markers = store.markers_at_time(rec.t_end);
        // The selected process stops exactly at the event, even if later
        // events of that process completed at the same instant.
        markers.set(rec.rank, rec.marker);
        Stopline {
            markers,
            origin: format!("event {:?}", Marker::new(rec.rank, rec.marker)),
        }
    }

    /// Verify consistency against the trace: the induced cut must contain
    /// the send of every received message ("it is important for the
    /// debugger to use a consistent set of breakpoints").
    pub fn is_consistent(&self, store: &TraceStore, matching: &MessageMatching) -> bool {
        verify_cut(store, matching, &self.markers).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{EventKind, MsgInfo, Rank, SiteTable, Tag, TraceRecord};

    /// P0: c(1,0..10) send(2,10..12) c(3,12..30)
    /// P1: c(1,0..5) recv(2,5..20) c(3,20..40)
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
        ];
        TraceStore::build(recs, SiteTable::new(), 2)
    }

    #[test]
    fn vertical_stopline_is_consistent_everywhere() {
        let s = store();
        let mm = MessageMatching::build(&s);
        for t in 0..=40 {
            let sl = Stopline::vertical(&s, t);
            assert!(sl.is_consistent(&s, &mm), "t={t} {:?}", sl.markers);
        }
    }

    #[test]
    fn vertical_values() {
        let s = store();
        let sl = Stopline::vertical(&s, 13);
        assert_eq!(sl.markers.counts(), &[2, 1]);
        assert_eq!(sl.origin, "t=13");
    }

    #[test]
    fn vertical_from_source_matches_vertical() {
        let s = store();
        for t in 0..=40 {
            let sl = Stopline::vertical_from(&s, t).unwrap();
            assert_eq!(sl, Stopline::vertical(&s, t), "t={t}");
        }
    }

    #[test]
    fn past_frontier_stopline() {
        let s = store();
        let mm = MessageMatching::build(&s);
        let hb = HbIndex::build(&s, &mm);
        let recv = s.find_marker(Marker::new(1u32, 2)).unwrap();
        let sl = Stopline::past_frontier(&s, &hb, recv);
        // P0 stops at the send (2), P1 at the recv (2).
        assert_eq!(sl.markers.counts(), &[2, 2]);
        assert!(sl.is_consistent(&s, &mm));
    }

    #[test]
    fn future_frontier_stopline() {
        let s = store();
        let mm = MessageMatching::build(&s);
        let hb = HbIndex::build(&s, &mm);
        let send = s.find_marker(Marker::new(0u32, 2)).unwrap();
        let sl = Stopline::future_frontier(&s, &hb, send);
        // P0 stops before the send (1); P1 before the recv (1).
        assert_eq!(sl.markers.counts(), &[1, 1]);
        assert!(sl.is_consistent(&s, &mm));
    }

    #[test]
    fn at_event_stopline() {
        let s = store();
        let mm = MessageMatching::build(&s);
        let send = s.find_marker(Marker::new(0u32, 2)).unwrap();
        let sl = Stopline::at_event(&s, send);
        // P0 exactly at the send; P1 at its state at t=12 (compute 1).
        assert_eq!(sl.markers.counts(), &[2, 1]);
        assert!(sl.is_consistent(&s, &mm));
    }
}
