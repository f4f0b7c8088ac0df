//! The grant protocol between rank tasks and the engine.
//!
//! A rank runs only while it holds the turn. It releases the turn by
//! returning a [`Request`] from its step and stays suspended until the
//! engine hands it a [`Reply`] — which the engine does when (a) the
//! request can be satisfied and (b) the scheduler grants the rank its next
//! turn. This single-running-process discipline is what makes execution
//! controlled and replayable.

use crate::message::{Envelope, MatchSpec};
use crate::payload::Payload;
use tracedbg_trace::{CollKind, Rank, SiteId, Tag};

/// Point-to-point send semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendMode {
    /// Completes locally as soon as the message is buffered (`MPI_Send`
    /// with buffering, the default).
    Buffered,
    /// Rendezvous: completes only when the matching receive takes the
    /// message (`MPI_Ssend`). Enables send-side circular waits.
    Synchronous,
}

/// A request from a process to the engine (sent with the process's rank).
#[derive(Debug)]
pub enum Request {
    /// Point-to-point send; completion depends on `mode`.
    Send {
        dst: Rank,
        tag: Tag,
        payload: Payload,
        /// Sender-local start time of the send call.
        t0: u64,
        send_marker: u64,
        site: SiteId,
        mode: SendMode,
    },
    /// Blocking receive.
    Recv {
        spec: MatchSpec,
        /// Post time (receiver-local).
        t_post: u64,
    },
    /// Collective operation; blocks until all ranks arrive.
    Collective {
        kind: CollKind,
        root: Rank,
        payload: Payload,
        op: Option<crate::collective::ReduceOp>,
        t_enter: u64,
    },
    /// The marker threshold fired: process pauses for the debugger.
    MarkerTrap { marker: u64 },
    /// Process function returned normally.
    Finished { t_end: u64 },
    /// Process function panicked.
    Panicked { message: String },
}

/// The engine's grant back to a process (`Clone` because a ready rank's
/// pending reply is part of every checkpoint).
#[derive(Clone, Debug)]
pub enum Reply {
    /// Initial grant / resume after a trap or a send.
    Proceed,
    /// A send completed; carries the assigned per-channel sequence number
    /// and the sender-side completion time (for a synchronous send this is
    /// the rendezvous instant).
    SendDone { seq: u64, t_done: u64 },
    /// A receive matched.
    RecvDone { env: Envelope, t_done: u64 },
    /// A collective completed; `result` is this rank's share.
    CollDone { result: Payload, t_done: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_debug_formats() {
        let r = Request::Recv {
            spec: MatchSpec::any(),
            t_post: 5,
        };
        assert!(format!("{r:?}").contains("Recv"));
        let f = Request::Finished { t_end: 10 };
        assert!(format!("{f:?}").contains("Finished"));
    }
}
