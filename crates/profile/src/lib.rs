//! Critical-path profiling and wait-state analysis (`tracedbg profile`).
//!
//! The source paper's premise is that the trace explains the run; this
//! crate turns a matched event trace into the three answers an operator
//! of a large message-passing job actually wants:
//!
//! * **where did the time go** — per-rank busy/wait accounting with every
//!   blocked interval classified Scalasca-style ([`WaitAnalysis`]);
//! * **who is to blame** — each wait's cost attributed to the *causing*
//!   rank/site, aggregated into a per-rank blame vector that `localize`
//!   consumes as its fourth ranked signal;
//! * **what bounds the makespan** — the longest weighted chain of
//!   happens-before-ordered events ([`CriticalPath`]), reported as a
//!   replayable marker chain with per-rank/per-site attribution.
//!
//! Everything lands in a sealed, digest-checked [`ProfileReport`] and an
//! optional Perfetto/Chrome trace-event export ([`perfetto_json`]).

mod path;
mod perfetto;
mod report;
mod wait;
mod waitblame;

pub use path::CriticalPath;
pub use perfetto::perfetto_json;
pub use report::{
    PathStep, ProfileInput, ProfileReport, RankProfile, SiteShare, WaitEntry, WaitKindTotal,
    PATH_CAP, PROFILE_VERSION, WAITS_CAP,
};
pub use wait::{
    WaitAnalysis, WaitInterval, WAIT_AT_COLLECTIVE, WAIT_FAULT_STALL, WAIT_LATE_RECEIVER,
    WAIT_LATE_SENDER,
};

use tracedbg_trace::TraceStore;
use tracedbg_tracegraph::MessageMatching;

/// Per-rank blamed wait cost (ns) of a trace — the localize blame signal,
/// computed without building a full report.
pub fn blame_vector(store: &TraceStore) -> Vec<u64> {
    let matching = MessageMatching::build(store);
    WaitAnalysis::build(store, &matching).blame
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{
        CollKind, EventKind, MsgInfo, Rank, SiteTable, SourceLoc, Tag, TraceRecord,
    };

    fn msg(src: u32, dst: u32, seq: u64) -> MsgInfo {
        MsgInfo {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag(7),
            bytes: 8,
            seq,
        }
    }

    /// rank 1 posts at t=0, rank 0 sends late (ends t=100), recv
    /// completes t=120 — a late-sender wait of 100ns blamed on rank 0.
    fn late_sender_store() -> TraceStore {
        let sites = SiteTable::new();
        let s_send = sites.intern(SourceLoc::new("a.c", 10, "send_late"));
        let s_recv = sites.intern(SourceLoc::new("a.c", 20, "recv_early"));
        let records = vec![
            TraceRecord::basic(0u32, EventKind::Compute, 1, 0).with_span(0, 80),
            TraceRecord::basic(0u32, EventKind::Send, 2, 80)
                .with_span(80, 100)
                .with_msg(msg(0, 1, 1))
                .with_site(s_send),
            TraceRecord::basic(1u32, EventKind::RecvPost, 1, 0).with_site(s_recv),
            TraceRecord::basic(1u32, EventKind::RecvDone, 2, 0)
                .with_span(0, 120)
                .with_msg(msg(0, 1, 1))
                .with_site(s_recv),
        ];
        TraceStore::build(records, sites, 2)
    }

    #[test]
    fn late_sender_blames_the_sender() {
        let store = late_sender_store();
        let matching = MessageMatching::build(&store);
        let w = WaitAnalysis::build(&store, &matching);
        assert_eq!(w.waits.len(), 1);
        let wait = &w.waits[0];
        assert_eq!(wait.kind, WAIT_LATE_SENDER);
        assert_eq!(wait.rank, Rank(1));
        assert_eq!(wait.cause_rank, Rank(0));
        assert_eq!(wait.cost(), 100);
        assert_eq!(w.blame, vec![100, 0]);
        assert_eq!(w.waited, vec![0, 100]);
    }

    #[test]
    fn late_receiver_blames_the_receiver() {
        // Send ends t=10; the receive is only posted at t=50.
        let sites = SiteTable::new();
        let records = vec![
            TraceRecord::basic(0u32, EventKind::Send, 1, 0)
                .with_span(0, 10)
                .with_msg(msg(0, 1, 1)),
            TraceRecord::basic(1u32, EventKind::Compute, 1, 0).with_span(0, 50),
            TraceRecord::basic(1u32, EventKind::RecvPost, 2, 50),
            TraceRecord::basic(1u32, EventKind::RecvDone, 3, 50)
                .with_span(50, 55)
                .with_msg(msg(0, 1, 1)),
        ];
        let store = TraceStore::build(records, sites, 2);
        let matching = MessageMatching::build(&store);
        let w = WaitAnalysis::build(&store, &matching);
        assert_eq!(w.waits.len(), 1);
        assert_eq!(w.waits[0].kind, WAIT_LATE_RECEIVER);
        assert_eq!(w.waits[0].rank, Rank(0), "the sender holds the buffer");
        assert_eq!(w.waits[0].cause_rank, Rank(1));
        assert_eq!(w.waits[0].cost(), 40);
    }

    #[test]
    fn collective_wait_blames_the_last_arriver() {
        let sites = SiteTable::new();
        let coll = EventKind::Collective(CollKind::Barrier);
        let records = vec![
            TraceRecord::basic(0u32, coll, 1, 10).with_span(10, 100),
            TraceRecord::basic(1u32, coll, 1, 90).with_span(90, 100),
            TraceRecord::basic(2u32, coll, 1, 40).with_span(40, 100),
        ];
        let store = TraceStore::build(records, sites, 3);
        let matching = MessageMatching::build(&store);
        let w = WaitAnalysis::build(&store, &matching);
        assert_eq!(w.waits.len(), 2, "two early arrivals wait");
        for wait in &w.waits {
            assert_eq!(wait.kind, WAIT_AT_COLLECTIVE);
            assert_eq!(wait.cause_rank, Rank(1), "rank 1 arrived last");
        }
        assert_eq!(w.blame, vec![0, 80 + 50, 0]);
    }

    #[test]
    fn unmatched_post_is_a_fault_stall() {
        let sites = SiteTable::new();
        let records = vec![
            TraceRecord::basic(0u32, EventKind::Compute, 1, 0).with_span(0, 200),
            TraceRecord::basic(1u32, EventKind::RecvPost, 1, 20).with_args(0, 7),
        ];
        let store = TraceStore::build(records, sites, 2);
        let matching = MessageMatching::build(&store);
        assert_eq!(matching.unmatched_recvs.len(), 1);
        let w = WaitAnalysis::build(&store, &matching);
        let stall = w
            .waits
            .iter()
            .find(|x| x.kind == WAIT_FAULT_STALL)
            .expect("stall classified");
        assert_eq!(stall.rank, Rank(1));
        assert_eq!(stall.t_to, 200, "stalls run to the end of the trace");
    }

    #[test]
    fn critical_path_crosses_the_message_edge() {
        let store = late_sender_store();
        let matching = MessageMatching::build(&store);
        let p = CriticalPath::build(&store, &matching);
        // Terminal is the RecvDone on rank 1; its latest predecessor is
        // the send on rank 0, then the compute before it.
        let chain = p.rank_chain(&store);
        assert_eq!(chain, vec![Rank(0), Rank(1)]);
        assert_eq!(p.len, 120, "path covers the whole makespan here");
        let (lo, hi) = store.time_bounds();
        assert!(p.len <= hi - lo);
    }

    #[test]
    fn report_invariant_and_digest() {
        let store = late_sender_store();
        let r = ProfileReport::build(
            &store,
            ProfileInput {
                source: "trace",
                workload: "unit",
                procs: 2,
                seed: 0,
                flight_dropped: 0,
            },
        );
        assert!(r.digest_ok());
        assert!(r.critical_path_len <= r.makespan);
        assert!(r.makespan <= r.busy_total + r.wait_total);
        assert_eq!(r.blame_ranking()[0], 0, "sender is the top blame");
        let back = ProfileReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn perfetto_export_is_wellformed_json() {
        let store = late_sender_store();
        let matching = MessageMatching::build(&store);
        let w = WaitAnalysis::build(&store, &matching);
        let p = CriticalPath::build(&store, &matching);
        let json = perfetto_json(&store, &matching, &w, &p);
        let v = serde_json::value_from_str(&json).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 2 rank tracks + 1 path track + 4 slices + 1 wait + 1 flow pair.
        assert!(events.len() >= 10, "{}", events.len());
        for e in events {
            assert!(e.get("ph").is_some(), "every event has a phase");
        }
        assert!(json.contains("\"cat\":\"wait\""));
        assert!(json.contains("\"cat\":\"critical\""));
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
    }
}
