//! Message race detection (§4.4, after Netzer et al.).
//!
//! "If however the program is multithreaded, then message racing can
//! occur. In this case the user might want to turn on the race detection
//! feature of the debugger."
//!
//! A wildcard (`MPI_ANY_SOURCE`) receive races when some *other* send
//! could have been delivered to it instead of the one that was: the
//! alternative send targets the same destination with an admissible tag,
//! was not consumed by an earlier receive, and is not causally ordered
//! after the receive's completion (if it were, it could never have
//! arrived in time in any execution).
//!
//! Only ranks that completed a wildcard receive cost anything. On such a
//! rank the receives are walked in *reverse* program order: the causal
//! future of an earlier receive contains that of every later one, so one
//! future cone is extended from receive to receive instead of rebuilt,
//! and the sends still available to a receive are a running set — a send
//! enters it when the walk passes the receive that consumed it and leaves
//! it for good once the cone swallows it.

use crate::hb::HbIndex;
use std::cmp::Reverse;
use std::collections::VecDeque;
use tracedbg_trace::{EventId, EventKind, Rank, Tag, TraceStore};
use tracedbg_tracegraph::{MatchedMessage, MessageMatching};

/// One racing wildcard receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageRace {
    /// The completed wildcard receive.
    pub recv: EventId,
    /// The send it actually matched.
    pub actual_send: EventId,
    /// Other sends that could have matched it instead.
    pub alternatives: Vec<EventId>,
}

/// A send, with what decides whether a receive could have taken it.
#[derive(Clone, Copy)]
struct Sent {
    send: EventId,
    src: Rank,
    tag: Tag,
}

/// The completed wildcard-source receives of one rank in program order:
/// each one's match and the tag it asked for (negative = any).
fn wildcard_receives(
    store: &TraceStore,
    matching: &MessageMatching,
    rank: Rank,
) -> Vec<(MatchedMessage, i64)> {
    let mut out = Vec::new();
    // Remember the wildcard flag and tag of each pending post. Posts
    // complete in post order (non-overtaking), so a FIFO pairs each done
    // with its own post even when several receives are outstanding.
    let mut pending: VecDeque<(bool, i64)> = VecDeque::new();
    for &id in store.by_rank(rank) {
        let rec = store.record(id);
        match rec.kind {
            EventKind::RecvPost => pending.push_back((rec.args[0] < 0, rec.args[1])),
            EventKind::RecvDone => {
                if let Some((true, want_tag)) = pending.pop_front() {
                    if let Some(&matched) = matching.match_of_recv(id) {
                        out.push((matched, want_tag));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Find all message races in a trace.
///
/// For each `RecvDone` whose `RecvPost` used a wildcard source, collect
/// alternative sends: different source, same destination, admissible tag,
/// not happening-after the receive, and not consumed by an *earlier*
/// receive on the same destination. Races are listed by rank, then in
/// program order; alternatives in canonical event order.
pub fn detect_races(
    store: &TraceStore,
    matching: &MessageMatching,
    hb: &HbIndex,
) -> Vec<MessageRace> {
    let mut races = Vec::new();
    // Sends by destination in event order, with their source and tag,
    // grouped when the first wildcard receive shows. The matching lists
    // every send once, so no record is read for this.
    let mut sends_to: Option<Vec<Vec<Sent>>> = None;
    for r in 0..store.n_ranks() {
        let rank = Rank(r as u32);
        let wildcards = wildcard_receives(store, matching, rank);
        if wildcards.is_empty() {
            continue;
        }
        let sends_to = sends_to.get_or_insert_with(|| {
            let mut by_dst = vec![Vec::new(); store.n_ranks()];
            let matched = matching.matched.iter().map(|m| (m.send, m.info));
            let lost = matching.unmatched_sends.iter().map(|u| (u.send, u.info));
            for (send, info) in matched.chain(lost) {
                by_dst[info.dst.ix()].push(Sent {
                    send,
                    src: info.src,
                    tag: info.tag,
                });
            }
            for sends in &mut by_dst {
                sends.sort_unstable_by_key(|s| s.send);
            }
            by_dst
        });
        // This rank's incoming sends keyed by the lane position of the
        // receive that consumed them (both events are on this rank, so
        // "consumed earlier" is program order), latest first; the never
        // received lead.
        let mut incoming: Vec<(u32, Sent)> = sends_to[r]
            .iter()
            .map(|&sent| match matching.match_of_send(sent.send) {
                Some(m) if hb.rank_of(m.recv) == rank => (hb.lane_pos(m.recv), sent),
                _ => (u32::MAX, sent),
            })
            .collect();
        incoming.sort_by_key(|&(consumed_at, _)| Reverse(consumed_at));
        let mut incoming = incoming.into_iter().peekable();

        let mut future = hb.future_cone();
        // Sends not consumed at or before the receive under the walk and
        // not causally after it.
        let mut available: Vec<Sent> = Vec::new();
        let first = races.len();
        for &(matched, want_tag) in wildcards.iter().rev() {
            let recv = matched.recv;
            future.extend(recv);
            while let Some((_, sent)) = incoming.next_if(|&(at, _)| at > hb.lane_pos(recv)) {
                available.push(sent);
            }
            available.retain(|s| !future.contains(s.send));
            let mut alternatives: Vec<EventId> = available
                .iter()
                .filter(|s| {
                    s.src != matched.info.src && (want_tag < 0 || s.tag.0 as i64 == want_tag)
                })
                .map(|s| s.send)
                .collect();
            if !alternatives.is_empty() {
                alternatives.sort_unstable();
                races.push(MessageRace {
                    recv,
                    actual_send: matched.send,
                    alternatives,
                });
            }
        }
        races[first..].reverse();
    }
    races
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{MsgInfo, SiteTable, Tag, TraceRecord};

    fn msg(src: u32, dst: u32, tag: i32, seq: u64) -> MsgInfo {
        MsgInfo {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag(tag),
            bytes: 8,
            seq,
        }
    }

    /// Two senders race to a single wildcard receive on P0.
    fn racy_store() -> TraceStore {
        let m1 = msg(1, 0, 5, 0);
        let m2 = msg(2, 0, 5, 0);
        let recs = vec![
            TraceRecord::basic(1u32, EventKind::Send, 1, 0)
                .with_span(0, 2)
                .with_msg(m1),
            TraceRecord::basic(2u32, EventKind::Send, 1, 1)
                .with_span(1, 3)
                .with_msg(m2),
            TraceRecord::basic(0u32, EventKind::RecvPost, 1, 4).with_args(-1, 5),
            TraceRecord::basic(0u32, EventKind::RecvDone, 2, 4)
                .with_span(4, 10)
                .with_msg(m1),
            // The losing message is received later by a second wildcard.
            TraceRecord::basic(0u32, EventKind::RecvPost, 3, 10).with_args(-1, 5),
            TraceRecord::basic(0u32, EventKind::RecvDone, 4, 10)
                .with_span(10, 12)
                .with_msg(m2),
        ];
        TraceStore::build(recs, SiteTable::new(), 3)
    }

    fn analyze(store: &TraceStore) -> Vec<MessageRace> {
        let mm = MessageMatching::build(store);
        let hb = HbIndex::build(store, &mm);
        detect_races(store, &mm, &hb)
    }

    #[test]
    fn wildcard_race_detected() {
        let s = racy_store();
        let races = analyze(&s);
        // The first receive raced (P2's message was also available). The
        // second receive had no choice: P1's message was already consumed
        // by the first (causally earlier) receive.
        assert_eq!(races.len(), 1);
        assert_eq!(s.record(races[0].recv).marker, 2);
        assert_eq!(races[0].alternatives.len(), 1);
        let alt = s.record(races[0].alternatives[0]);
        assert_eq!(alt.msg.unwrap().src, Rank(2));
    }

    #[test]
    fn specific_source_recv_never_races() {
        let m1 = msg(1, 0, 5, 0);
        let m2 = msg(2, 0, 5, 0);
        let recs = vec![
            TraceRecord::basic(1u32, EventKind::Send, 1, 0)
                .with_span(0, 2)
                .with_msg(m1),
            TraceRecord::basic(2u32, EventKind::Send, 1, 1)
                .with_span(1, 3)
                .with_msg(m2),
            TraceRecord::basic(0u32, EventKind::RecvPost, 1, 4).with_args(1, 5),
            TraceRecord::basic(0u32, EventKind::RecvDone, 2, 4)
                .with_span(4, 10)
                .with_msg(m1),
        ];
        let s = TraceStore::build(recs, SiteTable::new(), 3);
        assert!(analyze(&s).is_empty());
    }

    #[test]
    fn tag_mismatch_is_not_an_alternative() {
        let m1 = msg(1, 0, 5, 0);
        let m2 = msg(2, 0, 6, 0); // different tag
        let recs = vec![
            TraceRecord::basic(1u32, EventKind::Send, 1, 0)
                .with_span(0, 2)
                .with_msg(m1),
            TraceRecord::basic(2u32, EventKind::Send, 1, 1)
                .with_span(1, 3)
                .with_msg(m2),
            TraceRecord::basic(0u32, EventKind::RecvPost, 1, 4).with_args(-1, 5),
            TraceRecord::basic(0u32, EventKind::RecvDone, 2, 4)
                .with_span(4, 10)
                .with_msg(m1),
        ];
        let s = TraceStore::build(recs, SiteTable::new(), 3);
        assert!(analyze(&s).is_empty());
    }

    #[test]
    fn interleaved_posts_keep_their_own_specs() {
        // Two receives are posted back-to-back before either completes:
        // first a wildcard, then a source-specific one. The specific post
        // must not clobber the wildcard's spec — the first RecvDone still
        // belongs to the wildcard post and must be race-checked.
        let m1 = msg(1, 0, 5, 0);
        let m2 = msg(2, 0, 5, 0);
        let recs = vec![
            TraceRecord::basic(1u32, EventKind::Send, 1, 0)
                .with_span(0, 2)
                .with_msg(m1),
            TraceRecord::basic(2u32, EventKind::Send, 1, 1)
                .with_span(1, 3)
                .with_msg(m2),
            // Post #1: wildcard. Post #2: specifically from rank 2.
            TraceRecord::basic(0u32, EventKind::RecvPost, 1, 4).with_args(-1, 5),
            TraceRecord::basic(0u32, EventKind::RecvPost, 2, 5).with_args(2, 5),
            // Done #1 completes the wildcard post with P1's message.
            TraceRecord::basic(0u32, EventKind::RecvDone, 3, 6)
                .with_span(6, 7)
                .with_msg(m1),
            // Done #2 completes the specific post.
            TraceRecord::basic(0u32, EventKind::RecvDone, 4, 8)
                .with_span(8, 9)
                .with_msg(m2),
        ];
        let s = TraceStore::build(recs, SiteTable::new(), 3);
        let races = analyze(&s);
        // Exactly one race: the wildcard receive could have taken P2's
        // message instead. Before the FIFO fix the second post overwrote
        // the pending spec, the first done was treated as source-specific,
        // and no race was reported.
        assert_eq!(races.len(), 1);
        assert_eq!(s.record(races[0].recv).marker, 3);
        assert_eq!(races[0].alternatives.len(), 1);
        assert_eq!(s.record(races[0].alternatives[0]).msg.unwrap().src, Rank(2));
    }

    #[test]
    fn causally_later_send_is_not_a_race() {
        // P0 wildcard-receives from P1, then sends to P2, which triggers
        // P2's send back to P0: that send could never have raced.
        let m1 = msg(1, 0, 5, 0);
        let trigger = msg(0, 2, 9, 0);
        let m2 = msg(2, 0, 5, 0);
        let recs = vec![
            TraceRecord::basic(1u32, EventKind::Send, 1, 0)
                .with_span(0, 2)
                .with_msg(m1),
            TraceRecord::basic(0u32, EventKind::RecvPost, 1, 3).with_args(-1, 5),
            TraceRecord::basic(0u32, EventKind::RecvDone, 2, 3)
                .with_span(3, 5)
                .with_msg(m1),
            TraceRecord::basic(0u32, EventKind::Send, 3, 5)
                .with_span(5, 6)
                .with_msg(trigger),
            TraceRecord::basic(2u32, EventKind::RecvDone, 1, 7)
                .with_span(7, 8)
                .with_msg(trigger),
            TraceRecord::basic(2u32, EventKind::Send, 2, 8)
                .with_span(8, 9)
                .with_msg(m2),
        ];
        let s = TraceStore::build(recs, SiteTable::new(), 3);
        assert!(analyze(&s).is_empty());
    }
}
