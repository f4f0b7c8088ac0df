//! Scalasca-style wait-state classification over a matched trace.
//!
//! Every blocked interval a process spends inside a communication
//! construct is classified and its cost attributed to the *causing*
//! rank/site, not the waiting one:
//!
//! * **late-sender** — a receive was posted before the matching send
//!   completed; the receiver idles `[post, send_end]` and the *sender* is
//!   blamed at the send site.
//! * **late-receiver** — the matching send completed before the receive
//!   was posted; the message sat buffered for `[send_end, post]` and the
//!   *receiver* is blamed at the receive site.
//! * **wait-at-collective** — early arrivals at a collective idle until
//!   the last participant shows up; the last arriver is blamed.
//! * **fault-stall** — a posted receive that never completed (crash,
//!   hang, or deadlock upstream); the waiting rank idles from the post to
//!   the end of the trace and the expected source rank is blamed.
//!
//! Exactly one of late-sender/late-receiver is nonzero per matched pair,
//! so the per-pair costs never double-count.

use std::collections::BTreeMap;
use tracedbg_causality::collective_instances;
use tracedbg_trace::{EventId, Rank, SiteId, TraceStore};
use tracedbg_tracegraph::MessageMatching;

/// Wait-state kind tags (stable strings — they appear in the report JSON).
pub const WAIT_LATE_SENDER: &str = "late-sender";
pub const WAIT_LATE_RECEIVER: &str = "late-receiver";
pub const WAIT_AT_COLLECTIVE: &str = "wait-at-collective";
pub const WAIT_FAULT_STALL: &str = "fault-stall";

/// One classified blocked interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitInterval {
    /// One of the `WAIT_*` tags.
    pub kind: &'static str,
    /// The rank that sat idle.
    pub rank: Rank,
    /// The waiting construct's event.
    pub event: EventId,
    /// Idle interval `[t_from, t_to]` in simulated ns.
    pub t_from: u64,
    pub t_to: u64,
    /// The rank whose behavior caused the wait.
    pub cause_rank: Rank,
    /// Site of the causing construct.
    pub cause_site: SiteId,
}

impl WaitInterval {
    /// Idle time in ns.
    pub fn cost(&self) -> u64 {
        self.t_to.saturating_sub(self.t_from)
    }
}

/// All classified waits of one trace plus the derived aggregates.
#[derive(Clone, Debug, Default)]
pub struct WaitAnalysis {
    /// Every nonzero-cost wait, in canonical order (waiting event order).
    pub waits: Vec<WaitInterval>,
    /// Per-rank ns *blamed on* that rank (the localize blame vector).
    pub blame: Vec<u64>,
    /// Per-rank ns that rank spent waiting.
    pub waited: Vec<u64>,
    /// Total cost per wait kind, keyed by the `WAIT_*` tag.
    pub per_kind: BTreeMap<&'static str, (u64, u64)>,
}

impl WaitAnalysis {
    /// Classify every blocked interval of `store` under `matching`.
    pub fn build(store: &TraceStore, matching: &MessageMatching) -> Self {
        let n = store.n_ranks();
        let (_, t_hi) = store.time_bounds();
        let mut out = WaitAnalysis {
            waits: Vec::new(),
            blame: vec![0; n],
            waited: vec![0; n],
            per_kind: BTreeMap::new(),
        };

        // Matched point-to-point pairs: late sender vs late receiver.
        for m in &matching.matched {
            let recv = store.record(m.recv);
            let send = store.record(m.send);
            let post = recv.t_start; // RecvDone spans [post, completion]
            let send_end = send.t_end;
            if send_end > post {
                out.push(WaitInterval {
                    kind: WAIT_LATE_SENDER,
                    rank: recv.rank,
                    event: m.recv,
                    t_from: post,
                    t_to: send_end.min(recv.t_end),
                    cause_rank: send.rank,
                    cause_site: send.site,
                });
            } else if post > send_end {
                out.push(WaitInterval {
                    kind: WAIT_LATE_RECEIVER,
                    rank: send.rank,
                    event: m.send,
                    t_from: send_end,
                    t_to: post,
                    cause_rank: recv.rank,
                    cause_site: recv.site,
                });
            }
        }

        // Collectives: instance i = the i-th collective record on each
        // rank (the runtime serializes collectives — same convention as
        // `HbIndex`). Early arrivals wait for the last one.
        for instance in collective_instances(store) {
            if instance.len() < 2 {
                continue;
            }
            // Last arriver: max t_start, ties toward the lowest rank.
            let &last = instance
                .iter()
                .max_by_key(|&&id| {
                    (
                        store.record(id).t_start,
                        std::cmp::Reverse(store.record(id).rank.0),
                    )
                })
                .expect("nonempty instance");
            let last_rec = store.record(last);
            for &id in &instance {
                if id == last {
                    continue;
                }
                let rec = store.record(id);
                if last_rec.t_start > rec.t_start {
                    out.push(WaitInterval {
                        kind: WAIT_AT_COLLECTIVE,
                        rank: rec.rank,
                        event: id,
                        t_from: rec.t_start,
                        t_to: last_rec.t_start.min(rec.t_end),
                        cause_rank: last_rec.rank,
                        cause_site: last_rec.site,
                    });
                }
            }
        }

        // Unmatched posts: the rank is stuck from the post to trace end.
        for u in &matching.unmatched_recvs {
            let post = store.record(u.post);
            if t_hi > post.t_end {
                out.push(WaitInterval {
                    kind: WAIT_FAULT_STALL,
                    rank: u.rank,
                    event: u.post,
                    t_from: post.t_end,
                    t_to: t_hi,
                    // Blame the rank the receive was waiting on; a
                    // wildcard post can only blame the waiter itself.
                    cause_rank: u.src.unwrap_or(u.rank),
                    cause_site: post.site,
                });
            }
        }

        // Canonical order: by waiting event id (= canonical trace order),
        // then kind, so reports are byte-stable however we got here.
        out.waits
            .sort_by_key(|w| (w.event.ix(), w.kind, w.cause_rank.0));
        for w in &out.waits {
            let c = w.cost();
            out.blame[w.cause_rank.ix()] += c;
            out.waited[w.rank.ix()] += c;
            let e = out.per_kind.entry(w.kind).or_insert((0, 0));
            e.0 += 1;
            e.1 += c;
        }
        out
    }

    fn push(&mut self, w: WaitInterval) {
        if w.t_to > w.t_from {
            self.waits.push(w);
        }
    }
}
