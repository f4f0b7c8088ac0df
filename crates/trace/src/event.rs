//! Trace records — one per executed instrumented construct (§3).
//!
//! "A record identifies the construct by giving its program location, the
//! id of the process that executed the construct, and the start and end
//! time of the construct execution. In addition, if the construct is a
//! message passing operation, the record contains the message tag together
//! with the source and destination of the message."

use crate::ids::{Rank, SiteId, Tag};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Collective operations the runtime can trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CollKind {
    Barrier,
    Bcast,
    Reduce,
    AllReduce,
    Gather,
    Scatter,
}

/// The kind of an instrumented construct.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum EventKind {
    /// Process began execution.
    ProcStart,
    /// Process finished execution normally.
    ProcEnd,
    /// Function entry (UserMonitor / construct instrumentation).
    FnEnter,
    /// Function exit.
    FnExit,
    /// A send completed locally (buffered) or was matched (synchronous).
    Send,
    /// A receive was posted; `t_end` of this record is the post time.
    RecvPost,
    /// A receive completed; the matched message is in `msg`.
    RecvDone,
    /// A block of local computation (carries its simulated duration).
    Compute,
    /// A user probe: label + value snapshot, the state-inspection hook the
    /// debugger's `step` views use.
    Probe,
    /// A collective operation completed.
    Collective(CollKind),
}

impl EventKind {
    /// Is this a message-passing construct (carries `MsgInfo`)?
    pub fn is_comm(self) -> bool {
        matches!(
            self,
            EventKind::Send | EventKind::RecvPost | EventKind::RecvDone | EventKind::Collective(_)
        )
    }

    /// Short code used by the text trace format.
    pub fn code(self) -> &'static str {
        match self {
            EventKind::ProcStart => "PS",
            EventKind::ProcEnd => "PE",
            EventKind::FnEnter => "FE",
            EventKind::FnExit => "FX",
            EventKind::Send => "SN",
            EventKind::RecvPost => "RP",
            EventKind::RecvDone => "RD",
            EventKind::Compute => "CP",
            EventKind::Probe => "PR",
            EventKind::Collective(CollKind::Barrier) => "CB",
            EventKind::Collective(CollKind::Bcast) => "CC",
            EventKind::Collective(CollKind::Reduce) => "CR",
            EventKind::Collective(CollKind::AllReduce) => "CA",
            EventKind::Collective(CollKind::Gather) => "CG",
            EventKind::Collective(CollKind::Scatter) => "CS",
        }
    }

    /// Inverse of [`EventKind::code`].
    pub fn from_code(code: &str) -> Option<EventKind> {
        Some(match code {
            "PS" => EventKind::ProcStart,
            "PE" => EventKind::ProcEnd,
            "FE" => EventKind::FnEnter,
            "FX" => EventKind::FnExit,
            "SN" => EventKind::Send,
            "RP" => EventKind::RecvPost,
            "RD" => EventKind::RecvDone,
            "CP" => EventKind::Compute,
            "PR" => EventKind::Probe,
            "CB" => EventKind::Collective(CollKind::Barrier),
            "CC" => EventKind::Collective(CollKind::Bcast),
            "CR" => EventKind::Collective(CollKind::Reduce),
            "CA" => EventKind::Collective(CollKind::AllReduce),
            "CG" => EventKind::Collective(CollKind::Gather),
            "CS" => EventKind::Collective(CollKind::Scatter),
            _ => return None,
        })
    }

    /// This kind's position in [`EventKind::ALL`] (pinned by
    /// `file::tests::kind_codes_are_dense_and_stable`).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            EventKind::ProcStart => 0,
            EventKind::ProcEnd => 1,
            EventKind::FnEnter => 2,
            EventKind::FnExit => 3,
            EventKind::Send => 4,
            EventKind::RecvPost => 5,
            EventKind::RecvDone => 6,
            EventKind::Compute => 7,
            EventKind::Probe => 8,
            EventKind::Collective(coll) => 9 + coll as usize,
        }
    }

    /// All kinds; a kind's position here is its one-byte code in the
    /// binary record layout, so the order is part of the file formats.
    pub const ALL: [EventKind; 15] = {
        use CollKind::*;
        use EventKind::*;
        [
            ProcStart,
            ProcEnd,
            FnEnter,
            FnExit,
            Send,
            RecvPost,
            RecvDone,
            Compute,
            Probe,
            Collective(Barrier),
            Collective(Bcast),
            Collective(Reduce),
            Collective(AllReduce),
            Collective(Gather),
            Collective(Scatter),
        ]
    };

    /// All kinds, for exhaustive property tests.
    pub fn all() -> Vec<EventKind> {
        Self::ALL.to_vec()
    }
}

/// Message endpoints + tag carried by communication records.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct MsgInfo {
    pub src: Rank,
    pub dst: Rank,
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Per-(src,dst) send sequence number; with the MPI non-overtaking
    /// guarantee this is what matches a send record to its receive record.
    pub seq: u64,
}

/// One trace record.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Executing process.
    pub rank: Rank,
    /// Construct kind.
    pub kind: EventKind,
    /// Execution-marker count of `rank` at this event (1-based: the first
    /// event a process executes has marker 1).
    pub marker: u64,
    /// Simulated start time (ns).
    pub t_start: u64,
    /// Simulated end time (ns). For a `RecvPost` that never completed this
    /// equals `t_start`; analyses treat the construct as open-ended.
    pub t_end: u64,
    /// Interned source location of the construct.
    pub site: SiteId,
    /// Message info for communication constructs.
    pub msg: Option<MsgInfo>,
    /// First two integer arguments of the instrumented call (the
    /// `UserMonitor` contract of §2.2) or the probe value in `args[0]`.
    pub args: [i64; 2],
    /// Optional label (probe name, collective name, ...).
    pub label: Option<String>,
}

impl TraceRecord {
    /// A minimal record for tests and synthetic traces.
    pub fn basic(rank: impl Into<Rank>, kind: EventKind, marker: u64, t: u64) -> Self {
        TraceRecord {
            rank: rank.into(),
            kind,
            marker,
            t_start: t,
            t_end: t,
            site: SiteId::UNKNOWN,
            msg: None,
            args: [0, 0],
            label: None,
        }
    }

    pub fn with_span(mut self, t_start: u64, t_end: u64) -> Self {
        self.t_start = t_start;
        self.t_end = t_end;
        self
    }

    pub fn with_msg(mut self, msg: MsgInfo) -> Self {
        self.msg = Some(msg);
        self
    }

    pub fn with_site(mut self, site: SiteId) -> Self {
        self.site = site;
        self
    }

    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    pub fn with_args(mut self, a: i64, b: i64) -> Self {
        self.args = [a, b];
        self
    }

    /// The execution marker this record carries.
    pub fn marker_of(&self) -> crate::Marker {
        crate::Marker {
            rank: self.rank,
            count: self.marker,
        }
    }

    /// Duration of the construct (0 for instantaneous / unfinished).
    pub fn duration(&self) -> u64 {
        self.t_end.saturating_sub(self.t_start)
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {:?} m{} {}..{}]",
            self.kind.code(),
            self.rank,
            self.marker,
            self.t_start,
            self.t_end
        )?;
        if let Some(m) = &self.msg {
            write!(f, " {}->{} tag{} seq{}", m.src, m.dst, m.tag, m.seq)?;
        }
        if let Some(l) = &self.label {
            write!(f, " '{l}'")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip_for_all_kinds() {
        for k in EventKind::all() {
            assert_eq!(EventKind::from_code(k.code()), Some(k), "kind {k:?}");
        }
        assert_eq!(EventKind::from_code("ZZ"), None);
    }

    #[test]
    fn comm_classification() {
        assert!(EventKind::Send.is_comm());
        assert!(EventKind::RecvDone.is_comm());
        assert!(EventKind::Collective(CollKind::Barrier).is_comm());
        assert!(!EventKind::FnEnter.is_comm());
        assert!(!EventKind::Compute.is_comm());
    }

    #[test]
    fn builder_chain() {
        let r = TraceRecord::basic(2u32, EventKind::Send, 5, 100)
            .with_span(100, 120)
            .with_msg(MsgInfo {
                src: Rank(2),
                dst: Rank(0),
                tag: Tag(7),
                bytes: 64,
                seq: 3,
            })
            .with_args(7, 0)
            .with_label("result");
        assert_eq!(r.duration(), 20);
        assert_eq!(r.marker_of(), crate::Marker::new(2u32, 5));
        assert_eq!(r.msg.unwrap().tag, Tag(7));
        let s = format!("{r}");
        assert!(s.contains("SN"), "{s}");
        assert!(s.contains("2->0"), "{s}");
    }

    #[test]
    fn unfinished_recv_has_zero_duration() {
        let r = TraceRecord::basic(0u32, EventKind::RecvPost, 1, 50);
        assert_eq!(r.duration(), 0);
    }
}
