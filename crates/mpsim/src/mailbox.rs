//! Per-process mailboxes with MPI non-overtaking matching.
//!
//! Each destination owns one FIFO queue per source that has ever sent to
//! it. Matching scans a source's queue in send order and takes the *first*
//! envelope the spec admits; together with per-source FIFO order this
//! enforces the standard's non-overtaking rule (two messages from the same
//! sender that both match a receive are received in send order) — the
//! property the paper leans on to match send and receive arcs uniquely in
//! the trace graph (§3.2).
//!
//! Channels are created by their first message, so a mailbox's size — and
//! the cost of cloning it into a checkpoint — follows the communication
//! pattern (4 sources in a stencil, log n in a butterfly), not the rank
//! count.

use crate::message::{Envelope, MatchSpec};
use std::collections::VecDeque;
use tracedbg_trace::Rank;

/// A matchable message: where it sits and what it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    pub src: Rank,
    /// Position within the source's queue (0 = oldest).
    pub pos: usize,
    pub arrival: u64,
    pub seq: u64,
}

/// One `src → dst` channel: its undelivered messages and the sequence
/// number its next message will carry.
#[derive(Clone, Debug)]
struct Channel {
    src: Rank,
    next_seq: u64,
    queue: VecDeque<Envelope>,
}

/// The incoming-message store of one destination process.
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    /// The channels that have carried a message, ascending by source.
    channels: Vec<Channel>,
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox::default()
    }

    fn channel(&self, src: Rank) -> Option<&Channel> {
        let i = self.channels.binary_search_by_key(&src, |c| c.src).ok()?;
        Some(&self.channels[i])
    }

    /// The channel from `src`, opened on first use.
    fn channel_mut(&mut self, src: Rank) -> &mut Channel {
        let i = match self.channels.binary_search_by_key(&src, |c| c.src) {
            Ok(i) => i,
            Err(i) => {
                let fresh = Channel {
                    src,
                    next_seq: 0,
                    queue: VecDeque::new(),
                };
                self.channels.insert(i, fresh);
                i
            }
        };
        &mut self.channels[i]
    }

    /// Allocate the sequence number of the next message from `src`.
    pub fn next_seq(&mut self, src: Rank) -> u64 {
        let ch = self.channel_mut(src);
        ch.next_seq += 1;
        ch.next_seq - 1
    }

    /// `(source, messages sent so far)` of every channel, ascending by
    /// source.
    pub fn sent_counts(&self) -> impl Iterator<Item = (Rank, u64)> + '_ {
        self.channels.iter().map(|c| (c.src, c.next_seq))
    }

    /// Deposit a sent message.
    pub fn push(&mut self, env: Envelope) {
        self.channel_mut(env.src).queue.push_back(env);
    }

    /// All envelopes a spec could match right now: for each source, the
    /// first admitted envelope in that source's queue (non-overtaking),
    /// ascending by source. A spec naming its source looks at that one
    /// channel only.
    pub fn candidates(&self, spec: &MatchSpec) -> Vec<Candidate> {
        let channels = match spec.src {
            Some(src) => self.channel(src).map_or(&[][..], std::slice::from_ref),
            None => &self.channels,
        };
        let mut out = Vec::new();
        for ch in channels {
            for (pos, env) in ch.queue.iter().enumerate() {
                if spec.admits(env) {
                    out.push(Candidate {
                        src: ch.src,
                        pos,
                        arrival: env.arrival,
                        seq: env.seq,
                    });
                    break;
                }
            }
        }
        out
    }

    /// Remove and return the envelope at a candidate position.
    pub fn take(&mut self, c: Candidate) -> Envelope {
        self.channel_mut(c.src)
            .queue
            .remove(c.pos)
            .expect("candidate position vanished")
    }

    /// Snapshot of undelivered envelopes (for unmatched-send reports).
    pub fn undelivered(&self) -> Vec<&Envelope> {
        self.channels.iter().flat_map(|c| &c.queue).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use tracedbg_trace::{SiteId, Tag};

    fn env(src: u32, tag: i32, seq: u64, arrival: u64) -> Envelope {
        Envelope {
            src: Rank(src),
            dst: Rank(0),
            tag: Tag(tag),
            seq,
            arrival,
            send_marker: 0,
            send_site: SiteId::UNKNOWN,
            synchronous: false,
            payload: Payload::empty(),
        }
    }

    #[test]
    fn fifo_per_source_same_tag() {
        let mut mb = Mailbox::new();
        mb.push(env(1, 5, 0, 10));
        mb.push(env(1, 5, 1, 20));
        let spec = MatchSpec::exact(Rank(1), Tag(5));
        let cs = mb.candidates(&spec);
        assert_eq!(cs.len(), 1, "only the head of the queue is matchable");
        assert_eq!(cs[0].seq, 0);
        let e = mb.take(cs[0]);
        assert_eq!(e.seq, 0);
        let cs2 = mb.candidates(&spec);
        assert_eq!(cs2[0].seq, 1);
    }

    #[test]
    fn tag_skipping_is_allowed() {
        // A later message with a *different* tag may be received first.
        let mut mb = Mailbox::new();
        mb.push(env(1, 5, 0, 10));
        mb.push(env(1, 6, 1, 20));
        let spec6 = MatchSpec::exact(Rank(1), Tag(6));
        let cs = mb.candidates(&spec6);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].seq, 1);
        mb.take(cs[0]);
        assert_eq!(mb.undelivered().len(), 1);
    }

    #[test]
    fn wildcard_source_sees_one_candidate_per_source() {
        let mut mb = Mailbox::new();
        mb.push(env(1, 5, 0, 30));
        mb.push(env(1, 5, 1, 40));
        mb.push(env(2, 5, 0, 10));
        let spec = MatchSpec::new(None, Some(Tag(5)));
        let cs = mb.candidates(&spec);
        assert_eq!(cs.len(), 2);
        let srcs: Vec<u32> = cs.iter().map(|c| c.src.0).collect();
        assert_eq!(srcs, vec![1, 2]);
    }

    #[test]
    fn any_tag_takes_queue_head() {
        let mut mb = Mailbox::new();
        mb.push(env(1, 9, 0, 10));
        mb.push(env(1, 5, 1, 20));
        let spec = MatchSpec::new(Some(Rank(1)), None);
        let cs = mb.candidates(&spec);
        assert_eq!(cs[0].seq, 0, "ANY_TAG must take the oldest message");
    }

    #[test]
    fn forced_match_skips_to_pinned_seq() {
        let mut mb = Mailbox::new();
        mb.push(env(1, 5, 0, 10));
        mb.push(env(1, 5, 1, 20));
        let mut spec = MatchSpec::any();
        spec.forced = Some((Rank(1), 1));
        // The pinned message is behind seq 0 with the same tag: candidates
        // finds it because `admits` rejects seq 0.
        let cs = mb.candidates(&spec);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].seq, 1);
    }

    #[test]
    fn pending_and_undelivered() {
        let mut mb = Mailbox::new();
        assert!(mb.undelivered().is_empty());
        mb.push(env(0, 1, 0, 5));
        mb.push(env(1, 1, 0, 5));
        assert_eq!(mb.undelivered().len(), 2);
    }
}
