//! The sort-join matching and the inversion sweep against the algorithms
//! they replaced, kept here as references: a hash-map join on
//! `(src, dst, seq)` and a test of every pair of messages on a channel.
//! Traces are random and hand-built: lost sends, receives posted and never
//! completed, and channels whose receives complete out of send order (what
//! a tag-selective receive does).

use proptest::prelude::*;
use std::collections::HashMap;
use tracedbg_trace::{EventId, EventKind, MsgInfo, Rank, SiteTable, Tag, TraceRecord, TraceStore};
use tracedbg_tracegraph::{
    find_intertwined, Intertwining, MatchedMessage, MessageMatching, UnmatchedRecv, UnmatchedSend,
};

/// What the hash-map build reported: matched, lost sends, blocked posts.
type Ledger = (Vec<MatchedMessage>, Vec<UnmatchedSend>, Vec<UnmatchedRecv>);

/// The hash-map build, for traces without a repeated send key (with one,
/// it lost the shadowed send).
fn reference_matching(store: &TraceStore) -> Ledger {
    let mut sends: HashMap<(Rank, Rank, u64), EventId> = HashMap::new();
    for id in store.ids() {
        let rec = store.record(id);
        if rec.kind == EventKind::Send {
            let m = rec.msg.unwrap();
            sends.insert((m.src, m.dst, m.seq), id);
        }
    }
    let mut matched = Vec::new();
    for id in store.ids() {
        let rec = store.record(id);
        if rec.kind == EventKind::RecvDone {
            let m = rec.msg.unwrap();
            if let Some(send) = sends.remove(&(m.src, m.dst, m.seq)) {
                matched.push(MatchedMessage {
                    send,
                    recv: id,
                    info: m,
                });
            }
        }
    }
    let mut lost: Vec<UnmatchedSend> = sends
        .into_values()
        .map(|send| UnmatchedSend {
            send,
            info: store.record(send).msg.unwrap(),
        })
        .collect();
    lost.sort_by_key(|u| u.send);
    let mut blocked = Vec::new();
    for r in 0..store.n_ranks() {
        let mut pending = None;
        for &id in store.by_rank(Rank(r as u32)) {
            match store.record(id).kind {
                EventKind::RecvPost => {
                    blocked.extend(pending.replace(id));
                }
                EventKind::RecvDone => pending = None,
                _ => {}
            }
        }
        blocked.extend(pending);
    }
    let blocked = blocked
        .into_iter()
        .map(|post| {
            let rec = store.record(post);
            let src = (rec.args[0] >= 0).then(|| Rank(rec.args[0] as u32));
            UnmatchedRecv {
                post,
                rank: rec.rank,
                src,
            }
        })
        .collect();
    (matched, lost, blocked)
}

/// (send seq, recv completion marker, send event) of a channel's messages.
type ChannelMsgs = Vec<(u64, u64, EventId)>;

/// Every pair of messages on a channel, tested.
fn reference_intertwined(store: &TraceStore, mm: &MessageMatching) -> Vec<Intertwining> {
    let mut per_channel: HashMap<(Rank, Rank), ChannelMsgs> = HashMap::new();
    for m in &mm.matched {
        let recv_marker = store.record(m.recv).marker;
        per_channel
            .entry((m.info.src, m.info.dst))
            .or_default()
            .push((m.info.seq, recv_marker, m.send));
    }
    let mut out = Vec::new();
    for ((src, dst), mut msgs) in per_channel {
        msgs.sort_by_key(|&(seq, _, _)| seq);
        for i in 0..msgs.len() {
            for j in i + 1..msgs.len() {
                if msgs[j].1 < msgs[i].1 {
                    out.push(Intertwining {
                        src,
                        dst,
                        first_sent: msgs[i].2,
                        overtaker: msgs[j].2,
                    });
                }
            }
        }
    }
    out.sort_by_key(|i| (i.src, i.dst, i.first_sent));
    out
}

/// One message: sender, receiver, tag, send time, and how long after it
/// the receive completes (`None`: never received).
type Msg = (u32, u32, i32, u64, Option<u64>);

/// A trace of `msgs` on `n` ranks plus `blocked` receives posted at the
/// end and never completed. Sequence numbers follow send order per
/// channel; markers follow time order per rank.
fn trace_of(n: u32, msgs: &[Msg], blocked: &[(u32, i64)]) -> TraceStore {
    let mut by_time: Vec<(u64, TraceRecord)> = Vec::new();
    let mut order: Vec<&Msg> = msgs.iter().collect();
    order.sort_by_key(|m| m.3);
    let mut next_seq: HashMap<(u32, u32), u64> = HashMap::new();
    for &&(src, dst, tag, t, delay) in &order {
        let (src, dst) = (src % n, dst % n);
        let seq = next_seq.entry((src, dst)).or_default();
        let info = MsgInfo {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag(tag),
            bytes: 8,
            seq: *seq,
        };
        *seq += 1;
        by_time.push((
            t,
            TraceRecord::basic(src, EventKind::Send, 0, t).with_msg(info),
        ));
        if let Some(d) = delay {
            let at = t + d;
            let post = TraceRecord::basic(dst, EventKind::RecvPost, 0, at)
                .with_args(src as i64, tag as i64);
            by_time.push((at, post));
            by_time.push((
                at,
                TraceRecord::basic(dst, EventKind::RecvDone, 0, at).with_msg(info),
            ));
        }
    }
    let end = by_time.iter().map(|(t, _)| *t).max().unwrap_or(0) + 1;
    for &(rank, src) in blocked {
        let post = TraceRecord::basic(rank % n, EventKind::RecvPost, 0, end).with_args(src, -1);
        by_time.push((end, post));
    }
    by_time.sort_by_key(|(t, _)| *t);
    let mut markers = vec![0u64; n as usize];
    let records = by_time
        .into_iter()
        .map(|(_, mut rec)| {
            markers[rec.rank.ix()] += 1;
            rec.marker = markers[rec.rank.ix()];
            rec
        })
        .collect();
    TraceStore::build(records, SiteTable::new(), n as usize)
}

fn arb_msgs(max: usize) -> impl Strategy<Value = Vec<Msg>> {
    proptest::collection::vec(
        // One message in five is never received.
        (
            0u32..4,
            0u32..4,
            0i32..3,
            0u64..500,
            (0u64..250).prop_map(|d| (d < 200).then_some(d)),
        ),
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn sort_join_matches_the_hash_map_build(
        n in 2u32..5,
        msgs in arb_msgs(60),
        blocked in proptest::collection::vec((0u32..4, -1i64..4), 0..4),
    ) {
        let store = trace_of(n, &msgs, &blocked);
        let mm = MessageMatching::build(&store);
        let (matched, lost, posts) = reference_matching(&store);
        prop_assert_eq!(&mm.matched, &matched);
        prop_assert_eq!(&mm.unmatched_sends, &lost);
        prop_assert_eq!(&mm.unmatched_recvs, &posts);
        for id in store.ids() {
            let by_recv = matched.iter().find(|m| m.recv == id);
            let by_send = matched.iter().find(|m| m.send == id);
            prop_assert_eq!(mm.match_of_recv(id), by_recv);
            prop_assert_eq!(mm.match_of_send(id), by_send);
        }
        prop_assert_eq!(mm.match_of_recv(EventId(store.len() as u32)), None);
    }

    /// Two ranks, long channels, receives completing in a scrambled order:
    /// many inversions per channel.
    #[test]
    fn the_inversion_sweep_finds_every_intertwined_pair(
        msgs in proptest::collection::vec(
            (0u32..2, 0u32..2, 0i32..3, 0u64..300, (0u64..400).prop_map(Some)),
            0..80,
        ),
    ) {
        let store = trace_of(2, &msgs, &[]);
        let mm = MessageMatching::build(&store);
        prop_assert_eq!(find_intertwined(&store, &mm), reference_intertwined(&store, &mm));
    }
}
