//! Send/receive matching and the unmatched ledger.
//!
//! "The message 'non-overtaking' property specified in the MPI standard
//! allows a unique matching of send arcs with receive arcs incident to the
//! same channel and having the same message tag." (§3.2)
//!
//! In this trace format the runtime stamps each message with its per-
//! `(src, dst)` sequence number, so the unique key `(src, dst, seq)` pairs
//! a `Send` record with its `RecvDone` record directly: both sides are
//! sorted by that key and joined, with no hashing. The ledger of sends that
//! were never received and receives that never completed is exactly what
//! §4.4's history analysis reports ("the user is informed about the
//! unmatched send/receives") and what Figure 6 visualizes as the missed
//! message.

use tracedbg_trace::{EventId, EventKind, MsgInfo, Rank, TraceRecord, TraceStore};

/// A send paired with its receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchedMessage {
    pub send: EventId,
    pub recv: EventId,
    pub info: MsgInfo,
}

/// A send whose message was never received.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnmatchedSend {
    pub send: EventId,
    pub info: MsgInfo,
}

/// A posted receive that never completed (blocked at end of trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnmatchedRecv {
    pub post: EventId,
    pub rank: Rank,
    /// Requested source (`-1` encoded as `None` = wildcard).
    pub src: Option<Rank>,
}

/// Complete matching of a trace.
#[derive(Clone, Debug, Default)]
pub struct MessageMatching {
    pub matched: Vec<MatchedMessage>,
    pub unmatched_sends: Vec<UnmatchedSend>,
    pub unmatched_recvs: Vec<UnmatchedRecv>,
    /// Per event id, the index into `matched` of the message the event
    /// sent or received ([`NO_MATCH`] for any other event).
    match_ix: Vec<u32>,
}

/// The `match_ix` entry of an event in no matched message.
const NO_MATCH: u32 = u32::MAX;

/// A message's channel and sequence number, `((src << 32) | dst, seq)`,
/// and the event that carries it.
type Keyed = (u64, u64, EventId);

fn keyed(rec: &TraceRecord, id: EventId, what: &str) -> Keyed {
    let m = rec
        .msg
        .unwrap_or_else(|| panic!("{what} record without msg info"));
    (((m.src.0 as u64) << 32) | m.dst.0 as u64, m.seq, id)
}

impl MessageMatching {
    /// Match all sends and receives of a trace.
    ///
    /// A receive matches the send with its `(src, dst, seq)`; of two
    /// receives with one key the earlier matches, and of two sends with one
    /// key the later is the one a receive can match — the earlier is
    /// shadowed and reported unmatched, since a trace file may hold
    /// anything.
    pub fn build(store: &TraceStore) -> Self {
        let mut sends: Vec<Keyed> = Vec::new();
        let mut recvs: Vec<Keyed> = Vec::new();
        for (id, rec) in store.ids().zip(store.records()) {
            match rec.kind {
                EventKind::Send => sends.push(keyed(rec, id, "send")),
                EventKind::RecvDone => recvs.push(keyed(rec, id, "recv")),
                _ => {}
            }
        }
        // Receives are reported in event order: keep it before sorting.
        let recv_order: Vec<EventId> = recvs.iter().map(|r| r.2).collect();
        sends.sort_unstable();
        recvs.sort_unstable();
        // Join the two sorted lists; `match_ix` holds a receive's send for
        // now.
        let mut match_ix = vec![NO_MATCH; store.len()];
        let mut unmatched: Vec<EventId> = Vec::new();
        let mut r = 0;
        for (i, &(chan, seq, send)) in sends.iter().enumerate() {
            if sends
                .get(i + 1)
                .is_some_and(|next| (next.0, next.1) == (chan, seq))
            {
                unmatched.push(send);
                continue;
            }
            while recvs
                .get(r)
                .is_some_and(|recv| (recv.0, recv.1) < (chan, seq))
            {
                r += 1;
            }
            match recvs.get(r) {
                Some(&(c, s, recv)) if (c, s) == (chan, seq) => match_ix[recv.ix()] = send.0,
                _ => unmatched.push(send),
            }
        }
        let mut out = MessageMatching::default();
        for recv in recv_order {
            let send = match_ix[recv.ix()];
            if send == NO_MATCH {
                continue;
            }
            let ix = out.matched.len() as u32;
            out.matched.push(MatchedMessage {
                send: EventId(send),
                recv,
                info: store
                    .record(recv)
                    .msg
                    .expect("a keyed receive has msg info"),
            });
            match_ix[recv.ix()] = ix;
            match_ix[send as usize] = ix;
        }
        out.match_ix = match_ix;
        unmatched.sort_unstable();
        out.unmatched_sends = unmatched
            .into_iter()
            .map(|send| UnmatchedSend {
                send,
                info: store.record(send).msg.expect("a keyed send has msg info"),
            })
            .collect();
        // Receive posts not followed by a completion on the same rank: a
        // post is completed iff the next Recv* event after it in that
        // rank's lane is a RecvDone.
        for r in 0..store.n_ranks() {
            let lane = store.by_rank(Rank(r as u32));
            let mut pending_post: Option<EventId> = None;
            for &id in lane {
                let rec = store.record(id);
                match rec.kind {
                    EventKind::RecvPost => {
                        if let Some(post) = pending_post.take() {
                            out.push_unmatched_recv(store, post);
                        }
                        pending_post = Some(id);
                    }
                    EventKind::RecvDone => {
                        pending_post = None;
                    }
                    _ => {}
                }
            }
            if let Some(post) = pending_post {
                out.push_unmatched_recv(store, post);
            }
        }
        out
    }

    fn push_unmatched_recv(&mut self, store: &TraceStore, post: EventId) {
        let rec = store.record(post);
        let src = if rec.args[0] < 0 {
            None
        } else {
            Some(Rank(rec.args[0] as u32))
        };
        self.unmatched_recvs.push(UnmatchedRecv {
            post,
            rank: rec.rank,
            src,
        });
    }

    /// The matched message `event` sent or received.
    fn match_of(&self, event: EventId) -> Option<&MatchedMessage> {
        match self.match_ix.get(event.ix()) {
            Some(&ix) if ix != NO_MATCH => Some(&self.matched[ix as usize]),
            _ => None,
        }
    }

    /// The match containing this receive event, if any.
    pub fn match_of_recv(&self, recv: EventId) -> Option<&MatchedMessage> {
        self.match_of(recv).filter(|m| m.recv == recv)
    }

    /// The match containing this send event, if any.
    pub fn match_of_send(&self, send: EventId) -> Option<&MatchedMessage> {
        self.match_of(send).filter(|m| m.send == send)
    }

    /// Is the trace fully matched (no lost messages, no blocked receives)?
    pub fn is_clean(&self) -> bool {
        self.unmatched_sends.is_empty() && self.unmatched_recvs.is_empty()
    }

    /// Messages delivered into each rank (Figure 6's "processes 1-6 each
    /// receive 2 messages and process 7 only receives 1" query).
    pub fn received_counts(&self, n_ranks: usize, store: &TraceStore) -> Vec<usize> {
        let mut counts = vec![0usize; n_ranks];
        for m in &self.matched {
            counts[store.record(m.recv).rank.ix()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{SiteTable, Tag, TraceRecord};

    fn msg(src: u32, dst: u32, tag: i32, seq: u64) -> MsgInfo {
        MsgInfo {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag(tag),
            bytes: 8,
            seq,
        }
    }

    fn send(rank: u32, marker: u64, t: u64, m: MsgInfo) -> TraceRecord {
        TraceRecord::basic(rank, EventKind::Send, marker, t)
            .with_span(t, t + 1)
            .with_msg(m)
    }

    fn recv_post(rank: u32, marker: u64, t: u64, src: i64) -> TraceRecord {
        TraceRecord::basic(rank, EventKind::RecvPost, marker, t).with_args(src, -1)
    }

    fn recv_done(rank: u32, marker: u64, t: u64, m: MsgInfo) -> TraceRecord {
        TraceRecord::basic(rank, EventKind::RecvDone, marker, t)
            .with_span(t, t + 1)
            .with_msg(m)
    }

    #[test]
    fn clean_trace_matches_fully() {
        let recs = vec![
            send(0, 1, 0, msg(0, 1, 5, 0)),
            recv_post(1, 1, 2, 0),
            recv_done(1, 2, 2, msg(0, 1, 5, 0)),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 2);
        let mm = MessageMatching::build(&store);
        assert!(mm.is_clean());
        assert_eq!(mm.matched.len(), 1);
        assert_eq!(mm.received_counts(2, &store), vec![0, 1]);
    }

    #[test]
    fn lost_message_is_unmatched_send() {
        let recs = vec![send(0, 1, 0, msg(0, 1, 5, 0))];
        let store = TraceStore::build(recs, SiteTable::new(), 2);
        let mm = MessageMatching::build(&store);
        assert_eq!(mm.unmatched_sends.len(), 1);
        assert_eq!(mm.unmatched_sends[0].info.dst, Rank(1));
        assert!(!mm.is_clean());
    }

    #[test]
    fn blocked_recv_is_unmatched() {
        let recs = vec![recv_post(0, 1, 0, 7)];
        let store = TraceStore::build(recs, SiteTable::new(), 8);
        let mm = MessageMatching::build(&store);
        assert_eq!(mm.unmatched_recvs.len(), 1);
        assert_eq!(mm.unmatched_recvs[0].rank, Rank(0));
        assert_eq!(mm.unmatched_recvs[0].src, Some(Rank(7)));
    }

    #[test]
    fn wildcard_post_reported_as_wildcard() {
        let recs = vec![recv_post(2, 1, 0, -1)];
        let store = TraceStore::build(recs, SiteTable::new(), 3);
        let mm = MessageMatching::build(&store);
        assert_eq!(mm.unmatched_recvs[0].src, None);
    }

    #[test]
    fn lookup_by_send_and_recv() {
        let recs = vec![
            send(0, 1, 0, msg(0, 1, 5, 0)),
            recv_post(1, 1, 2, 0),
            recv_done(1, 2, 2, msg(0, 1, 5, 0)),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 2);
        let mm = MessageMatching::build(&store);
        let m = mm.matched[0];
        assert_eq!(mm.match_of_send(m.send), Some(&mm.matched[0]));
        assert_eq!(mm.match_of_recv(m.recv), Some(&mm.matched[0]));
        assert_eq!(mm.match_of_recv(m.send), None);
    }

    #[test]
    fn a_send_shadowed_by_a_repeated_key_is_reported_unmatched() {
        // Two sends carry (0 -> 1, seq 0), and so do two receives. The
        // later send is matched, to the earlier receive; the earlier send
        // is reported lost, in send order with a genuinely lost send (seq
        // 1).
        let recs = vec![
            send(0, 1, 0, msg(0, 1, 5, 0)),
            send(0, 2, 1, msg(0, 1, 5, 0)),
            send(0, 3, 2, msg(0, 1, 5, 1)),
            recv_post(1, 1, 3, 0),
            recv_done(1, 2, 4, msg(0, 1, 5, 0)),
            recv_post(1, 3, 5, 0),
            recv_done(1, 4, 6, msg(0, 1, 5, 0)),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 2);
        let mm = MessageMatching::build(&store);
        assert_eq!(mm.matched.len(), 1);
        assert_eq!(store.record(mm.matched[0].send).marker, 2);
        assert_eq!(store.record(mm.matched[0].recv).marker, 2);
        let lost: Vec<u64> = mm
            .unmatched_sends
            .iter()
            .map(|u| store.record(u.send).marker)
            .collect();
        assert_eq!(lost, [1, 3]);
        let shadowed = mm.unmatched_sends[0].send;
        assert_eq!(mm.match_of_send(shadowed), None);
    }

    #[test]
    fn completed_recv_between_two_posts() {
        // post, done, post (blocked) — only the second post is unmatched.
        let recs = vec![
            send(0, 1, 0, msg(0, 1, 5, 0)),
            recv_post(1, 1, 2, 0),
            recv_done(1, 2, 3, msg(0, 1, 5, 0)),
            recv_post(1, 3, 4, 0),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 2);
        let mm = MessageMatching::build(&store);
        assert_eq!(mm.matched.len(), 1);
        assert_eq!(mm.unmatched_recvs.len(), 1);
        assert_eq!(store.record(mm.unmatched_recvs[0].post).marker, 3);
    }
}
