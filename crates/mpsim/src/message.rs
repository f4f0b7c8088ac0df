//! Messages in transit and receive match specifications.

use crate::payload::Payload;
use serde::{Deserialize, Serialize};
use tracedbg_trace::{MsgInfo, Rank, SiteId, Tag};

/// A message sitting in a mailbox (sent but not yet received).
#[derive(Clone, Debug)]
pub struct Envelope {
    pub src: Rank,
    pub dst: Rank,
    pub tag: Tag,
    /// Per-(src,dst) send sequence number, assigned by the engine. The MPI
    /// non-overtaking rule is enforced in terms of this sequence.
    pub seq: u64,
    /// Simulated time at which the message becomes available at `dst`.
    pub arrival: u64,
    /// Sender-side execution marker of the send event.
    pub send_marker: u64,
    /// Source location of the send call.
    pub send_site: SiteId,
    /// Synchronous (rendezvous) send: the sender blocks until this
    /// envelope is received.
    pub synchronous: bool,
    pub payload: Payload,
}

impl Envelope {
    pub fn msg_info(&self) -> MsgInfo {
        MsgInfo {
            src: self.src,
            dst: self.dst,
            tag: self.tag,
            bytes: self.payload.len() as u32,
            seq: self.seq,
        }
    }
}

/// A delivered message, as seen by the receiving program.
#[derive(Clone, Debug)]
pub struct Message {
    pub src: Rank,
    pub tag: Tag,
    pub seq: u64,
    pub payload: Payload,
}

impl From<Envelope> for Message {
    fn from(e: Envelope) -> Self {
        Message {
            src: e.src,
            tag: e.tag,
            seq: e.seq,
            payload: e.payload,
        }
    }
}

/// What a posted receive is willing to match — `None` components are the
/// `MPI_ANY_SOURCE` / `MPI_ANY_TAG` wildcards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchSpec {
    pub src: Option<Rank>,
    pub tag: Option<Tag>,
    /// Replay pinning: when set, only the message with this exact
    /// (src, seq) may match — §4.2's nondeterminism control narrows a
    /// wildcard receive to the recorded match.
    pub forced: Option<(Rank, u64)>,
}

impl MatchSpec {
    pub fn new(src: Option<Rank>, tag: Option<Tag>) -> Self {
        MatchSpec {
            src,
            tag,
            forced: None,
        }
    }

    pub fn exact(src: Rank, tag: Tag) -> Self {
        Self::new(Some(src), Some(tag))
    }

    pub fn any() -> Self {
        Self::new(None, None)
    }

    /// Does `env` satisfy the (src, tag, forced) constraints?
    pub fn admits(&self, env: &Envelope) -> bool {
        if let Some((fsrc, fseq)) = self.forced {
            if env.src != fsrc || env.seq != fseq {
                return false;
            }
        }
        if let Some(s) = self.src {
            if env.src != s {
                return false;
            }
        }
        if let Some(t) = self.tag {
            if env.tag != t {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u32, tag: i32, seq: u64) -> Envelope {
        Envelope {
            src: Rank(src),
            dst: Rank(0),
            tag: Tag(tag),
            seq,
            arrival: 0,
            send_marker: 1,
            send_site: SiteId::UNKNOWN,
            synchronous: false,
            payload: Payload::empty(),
        }
    }

    #[test]
    fn exact_spec() {
        let s = MatchSpec::exact(Rank(2), Tag(7));
        assert!(s.admits(&env(2, 7, 0)));
        assert!(!s.admits(&env(1, 7, 0)));
        assert!(!s.admits(&env(2, 8, 0)));
    }

    #[test]
    fn wildcards() {
        let any = MatchSpec::any();
        assert!(any.admits(&env(5, 99, 3)));
        let any_src = MatchSpec::new(None, Some(Tag(1)));
        assert!(any_src.admits(&env(9, 1, 0)));
        assert!(!any_src.admits(&env(9, 2, 0)));
    }

    #[test]
    fn forced_narrows() {
        let mut s = MatchSpec::any();
        s.forced = Some((Rank(3), 7));
        assert!(s.admits(&env(3, 0, 7)));
        assert!(!s.admits(&env(3, 0, 8)));
        assert!(!s.admits(&env(4, 0, 7)));
    }

    #[test]
    fn envelope_to_message_and_msginfo() {
        let e = env(2, 7, 5);
        let info = e.msg_info();
        assert_eq!(info.src, Rank(2));
        assert_eq!(info.seq, 5);
        let m: Message = e.into();
        assert_eq!(m.src, Rank(2));
        assert_eq!(m.tag, Tag(7));
    }
}
