//! Per-process mailboxes with MPI non-overtaking matching.
//!
//! Each destination keeps its undelivered messages in one queue, in the
//! order they were deposited, so each source's messages are in send
//! order. Matching takes, per source, the *first* envelope the spec
//! admits; together with per-source FIFO order this enforces the
//! standard's non-overtaking rule (two messages from the same sender that
//! both match a receive are received in send order) — the property the
//! paper leans on to match send and receive arcs uniquely in the trace
//! graph (§3.2).
//!
//! Channels (a source and its sequence counter) are created by their
//! first message, so a mailbox's size follows the communication pattern
//! (4 sources in a stencil, log n in a butterfly), not the rank count,
//! and copying one out of a checkpoint copies two vectors, whatever the
//! number of messages queued or sources they came from.

use crate::message::{Envelope, MatchSpec};
use tracedbg_trace::Rank;

/// A matchable message: where it sits and what it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    pub src: Rank,
    /// Position within the mailbox's queue (0 = oldest).
    pub pos: usize,
    pub arrival: u64,
    pub seq: u64,
}

/// The incoming-message store of one destination process.
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    /// Each source that has sent a message here, with the sequence number
    /// its next message will carry, ascending by source.
    channels: Vec<(Rank, u64)>,
    /// Undelivered messages, oldest deposit first.
    queue: Vec<Envelope>,
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Allocate the sequence number of the next message from `src`,
    /// opening its channel on first use.
    pub fn next_seq(&mut self, src: Rank) -> u64 {
        let i = match self.channels.binary_search_by_key(&src, |&(s, _)| s) {
            Ok(i) => i,
            Err(i) => {
                self.channels.insert(i, (src, 0));
                i
            }
        };
        let next = &mut self.channels[i].1;
        *next += 1;
        *next - 1
    }

    /// `(source, messages sent so far)` of every channel, ascending by
    /// source.
    pub fn sent_counts(&self) -> impl Iterator<Item = (Rank, u64)> + '_ {
        self.channels.iter().copied()
    }

    /// Deposit a sent message.
    pub fn push(&mut self, env: Envelope) {
        self.queue.push(env);
    }

    /// All envelopes a spec could match right now, into `out` (emptied
    /// first, and grown at most once, to the number of channels): for each
    /// source, the first admitted envelope from that source
    /// (non-overtaking), ascending by source.
    pub fn candidates(&self, spec: &MatchSpec, out: &mut Vec<Candidate>) {
        out.clear();
        if self.queue.is_empty() {
            return;
        }
        out.reserve(self.channels.len());
        for (pos, env) in self.queue.iter().enumerate() {
            if spec.admits(env) && !out.iter().any(|c| c.src == env.src) {
                out.push(Candidate {
                    src: env.src,
                    pos,
                    arrival: env.arrival,
                    seq: env.seq,
                });
                if spec.src.is_some() {
                    break;
                }
            }
        }
        out.sort_unstable_by_key(|c| c.src);
    }

    /// Remove and return the envelope at a candidate position.
    pub fn take(&mut self, c: Candidate) -> Envelope {
        assert!(c.pos < self.queue.len(), "candidate position vanished");
        self.queue.remove(c.pos)
    }

    /// Snapshot of undelivered envelopes (for unmatched-send reports),
    /// ascending by source, each source's in send order.
    pub fn undelivered(&self) -> Vec<&Envelope> {
        let mut out: Vec<&Envelope> = self.queue.iter().collect();
        out.sort_by_key(|e| (e.src, e.seq));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use tracedbg_trace::{SiteId, Tag};

    fn cands(mb: &Mailbox, spec: &MatchSpec) -> Vec<Candidate> {
        let mut out = Vec::new();
        mb.candidates(spec, &mut out);
        out
    }

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
        let cs = cands(&mb, &spec);
        assert_eq!(cs.len(), 1, "only the head of the queue is matchable");
        assert_eq!(cs[0].seq, 0);
        let e = mb.take(cs[0]);
        assert_eq!(e.seq, 0);
        let cs2 = cands(&mb, &spec);
        assert_eq!(cs2[0].seq, 1);
    }

    #[test]
    fn tag_skipping_is_allowed() {
        // A later message with a *different* tag may be received first.
        let mut mb = Mailbox::new();
        mb.push(env(1, 5, 0, 10));
        mb.push(env(1, 6, 1, 20));
        let spec6 = MatchSpec::exact(Rank(1), Tag(6));
        let cs = cands(&mb, &spec6);
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
        let cs = cands(&mb, &spec);
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
        let cs = cands(&mb, &spec);
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
        let cs = cands(&mb, &spec);
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
