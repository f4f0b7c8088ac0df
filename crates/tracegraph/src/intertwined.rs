//! Intertwined message detection (§4.4).
//!
//! "At this point, information about intertwined messages is also
//! available to the user." — the MPI standard's discussion of order
//! ([13, p.31]) allows messages on the same channel with *different* tags
//! to be received out of send order (tag-selective receives skip over
//! earlier messages). Such inversions are legal but often surprising, so
//! the debugger surfaces them.

use crate::matching::MessageMatching;
use std::collections::BTreeSet;
use tracedbg_trace::{EventId, Rank, TraceStore};

/// Two messages on one channel received in the opposite of send order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Intertwining {
    pub src: Rank,
    pub dst: Rank,
    /// The earlier-sent message (received later).
    pub first_sent: EventId,
    /// The later-sent message (received earlier).
    pub overtaker: EventId,
}

/// Find all intertwined pairs: same (src, dst), send order and receive
/// order inverted. With the runtime's non-overtaking matching this can
/// only happen across different tags.
///
/// Each channel's messages are put in send (`seq`) order and swept from
/// the last: a set of the later messages, ordered by receive marker,
/// yields exactly the overtakers of each one, so a channel of `m` messages
/// with `k` inversions costs O(m log m + k log k), not a test of every
/// pair. Pairs come out by channel and first-sent event, overtakers in
/// send order.
pub fn find_intertwined(store: &TraceStore, matching: &MessageMatching) -> Vec<Intertwining> {
    // (src, dst, send seq, recv completion marker, send event) per message.
    let mut msgs: Vec<(Rank, Rank, u64, u64, EventId)> = matching
        .matched
        .iter()
        .map(|m| {
            let recv_marker = store.record(m.recv).marker;
            (m.info.src, m.info.dst, m.info.seq, recv_marker, m.send)
        })
        .collect();
    msgs.sort_unstable();
    let mut out = Vec::new();
    let mut later: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut overtakers: Vec<usize> = Vec::new();
    let mut start = 0;
    while start < msgs.len() {
        let (src, dst) = (msgs[start].0, msgs[start].1);
        let len = msgs[start..].partition_point(|m| (m.0, m.1) == (src, dst));
        let channel = &msgs[start..start + len];
        start += len;
        if channel.windows(2).all(|w| w[0].3 <= w[1].3) {
            continue; // received in send order
        }
        later.clear();
        let mut min_later = u64::MAX;
        for (i, &(_, _, _, recv_marker, first_sent)) in channel.iter().enumerate().rev() {
            // Sent after i and received before it.
            if min_later < recv_marker {
                overtakers.clear();
                overtakers.extend(later.range(..(recv_marker, 0)).map(|&(_, j)| j));
                overtakers.sort_unstable();
                out.extend(overtakers.iter().map(|&j| Intertwining {
                    src,
                    dst,
                    first_sent,
                    overtaker: channel[j].4,
                }));
            }
            later.insert((recv_marker, i));
            min_later = min_later.min(recv_marker);
        }
    }
    out.sort_by_key(|i| (i.src, i.dst, i.first_sent));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{EventKind, MsgInfo, SiteTable, Tag, TraceRecord};

    fn msg(tag: i32, seq: u64) -> MsgInfo {
        MsgInfo {
            src: Rank(0),
            dst: Rank(1),
            tag: Tag(tag),
            bytes: 8,
            seq,
        }
    }

    #[test]
    fn tag_selective_receive_intertwines() {
        // P0 sends tag 5 (seq 0) then tag 6 (seq 1); P1 receives tag 6
        // first.
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::Send, 1, 0)
                .with_span(0, 1)
                .with_msg(msg(5, 0)),
            TraceRecord::basic(0u32, EventKind::Send, 2, 1)
                .with_span(1, 2)
                .with_msg(msg(6, 1)),
            TraceRecord::basic(1u32, EventKind::RecvDone, 1, 3)
                .with_span(3, 4)
                .with_msg(msg(6, 1)),
            TraceRecord::basic(1u32, EventKind::RecvDone, 2, 4)
                .with_span(4, 5)
                .with_msg(msg(5, 0)),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 2);
        let mm = MessageMatching::build(&store);
        let tw = find_intertwined(&store, &mm);
        assert_eq!(tw.len(), 1);
        assert_eq!(tw[0].src, Rank(0));
        assert_eq!(store.record(tw[0].overtaker).msg.unwrap().tag, Tag(6));
    }

    #[test]
    fn in_order_channel_is_clean() {
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::Send, 1, 0).with_msg(msg(5, 0)),
            TraceRecord::basic(0u32, EventKind::Send, 2, 1).with_msg(msg(5, 1)),
            TraceRecord::basic(1u32, EventKind::RecvDone, 1, 3).with_msg(msg(5, 0)),
            TraceRecord::basic(1u32, EventKind::RecvDone, 2, 4).with_msg(msg(5, 1)),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 2);
        let mm = MessageMatching::build(&store);
        assert!(find_intertwined(&store, &mm).is_empty());
    }

    #[test]
    fn separate_channels_do_not_interfere() {
        let m01 = msg(5, 0);
        let m21 = MsgInfo {
            src: Rank(2),
            dst: Rank(1),
            tag: Tag(5),
            bytes: 8,
            seq: 0,
        };
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::Send, 1, 0).with_msg(m01),
            TraceRecord::basic(2u32, EventKind::Send, 1, 1).with_msg(m21),
            TraceRecord::basic(1u32, EventKind::RecvDone, 1, 3).with_msg(m21),
            TraceRecord::basic(1u32, EventKind::RecvDone, 2, 4).with_msg(m01),
        ];
        let store = TraceStore::build(recs, SiteTable::new(), 3);
        let mm = MessageMatching::build(&store);
        assert!(find_intertwined(&store, &mm).is_empty());
    }
}
