//! Trace providers and consumers behind one interface.
//!
//! The debugger, the lint engine, and the statistics/viz paths all consume
//! a trace; historically each of them took a `&TraceStore`, which forces
//! the entire run into memory before any question can be asked. The
//! [`TraceSource`] trait decouples "where the events live" from "how they
//! are queried": the in-memory [`TraceStore`] is the *reference
//! implementation* (every query is definable as a linear scan in canonical
//! order), and the on-disk indexed store in `crates/store` must return
//! byte-identical sequences for every selection — an index, never a
//! filter.
//!
//! [`TraceSink`] is the write-side counterpart: a consumer a debugger
//! session hands the records of a run when the sink is detached, so a
//! session's run can be persisted through the same interface whatever
//! stores it.
//!
//! Ordering contract, shared by every implementation:
//!
//! * [`Select::All`], [`Select::Tag`], [`Select::Kind`] and
//!   [`Select::TimeWindow`] yield events in *canonical* order — the stable
//!   sort by `(t_start, rank, marker)` that [`TraceStore::build`]
//!   establishes (ties broken by arrival order);
//! * [`Select::Rank`] yields that rank's events in *program* (marker)
//!   order, matching [`TraceStore::by_rank`].

use crate::event::{EventKind, TraceRecord};
use crate::history::TraceStore;
use crate::ids::{Rank, Tag};
use crate::loc::SiteTable;
use std::fmt;

/// One selection over a trace: which events, in the contract order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Select {
    /// Every event, canonical order.
    All,
    /// One rank's events, program (marker) order.
    Rank(Rank),
    /// Events whose message carries this tag, canonical order.
    Tag(Tag),
    /// Events of one construct kind, canonical order.
    Kind(EventKind),
    /// Events whose `[t_start, t_end]` span intersects `[lo, hi]`,
    /// canonical order.
    TimeWindow(u64, u64),
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Select::All => write!(f, "all"),
            Select::Rank(r) => write!(f, "rank {r}"),
            Select::Tag(t) => write!(f, "tag {t}"),
            Select::Kind(k) => write!(f, "kind {}", k.code()),
            Select::TimeWindow(lo, hi) => write!(f, "window {lo}:{hi}"),
        }
    }
}

/// Why a source could not produce events.
///
/// The in-memory reference implementation never fails; disk-backed sources
/// surface I/O and corruption errors through this type so consumers stay
/// implementation-agnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceError {
    msg: String,
}

impl SourceError {
    pub fn new(msg: impl Into<String>) -> Self {
        SourceError { msg: msg.into() }
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for SourceError {}

/// An iterator of events from a source; each item can fail independently
/// (a disk-backed cursor discovers corruption lazily).
pub type EventIter<'a> = Box<dyn Iterator<Item = Result<TraceRecord, SourceError>> + 'a>;

/// Direction of a [`CommEdge`] as seen from the rank it was iterated at.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeDir {
    /// The rank sent a message to `peer`.
    Send,
    /// The rank completed a receive of a message from `peer`.
    Recv,
}

impl fmt::Display for EdgeDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeDir::Send => write!(f, "send"),
            EdgeDir::Recv => write!(f, "recv"),
        }
    }
}

/// One communication edge observed at a rank — the per-rank projection of
/// the message graph that `tracedbg localize` aligns between a failing and
/// a passing run. A `Send` event contributes an edge toward its
/// destination; a `RecvDone` event contributes an edge from its source
/// (the *completed* match, not the posted intent).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CommEdge {
    pub dir: EdgeDir,
    /// The peer rank: destination of a send, source of a completed recv.
    pub peer: Rank,
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Per-channel send sequence number of the message.
    pub seq: u64,
    /// Marker of the event at the iterated rank (program order).
    pub marker: u64,
}

impl CommEdge {
    /// The identity the graph differ keys multisets by: direction, peer
    /// and tag — *which* communication happened, not when or with what
    /// payload.
    pub fn key(&self) -> (EdgeDir, Rank, Tag) {
        (self.dir, self.peer, self.tag)
    }
}

impl fmt::Display for CommEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrow = match self.dir {
            EdgeDir::Send => "->",
            EdgeDir::Recv => "<-",
        };
        write!(f, "{} {arrow} {:?} tag {}", self.dir, self.peer, self.tag)
    }
}

/// A queryable provider of one run's trace.
pub trait TraceSource {
    /// Number of process ranks in the run.
    fn source_n_ranks(&self) -> usize;

    /// Total number of events.
    fn source_len(&self) -> u64;

    /// The interned source locations referenced by the events.
    fn source_sites(&self) -> SiteTable;

    /// Smallest `t_start` and largest `t_end` over all events.
    fn source_time_bounds(&self) -> Result<(u64, u64), SourceError>;

    /// Stream the events matching `sel`, in the contract order.
    fn select(&self, sel: Select) -> Result<EventIter<'_>, SourceError>;

    /// All events, canonical order, collected.
    fn events(&self) -> Result<Vec<TraceRecord>, SourceError> {
        collect(self.select(Select::All)?)
    }

    /// One rank's events in program order, collected.
    fn by_rank(&self, rank: Rank) -> Result<Vec<TraceRecord>, SourceError> {
        collect(self.select(Select::Rank(rank))?)
    }

    /// Events carrying `tag`, canonical order, collected.
    fn by_tag(&self, tag: Tag) -> Result<Vec<TraceRecord>, SourceError> {
        collect(self.select(Select::Tag(tag))?)
    }

    /// Events of construct `kind`, canonical order, collected.
    fn by_construct(&self, kind: EventKind) -> Result<Vec<TraceRecord>, SourceError> {
        collect(self.select(Select::Kind(kind))?)
    }

    /// Events intersecting `[lo, hi]`, canonical order, collected.
    fn by_time_window(&self, lo: u64, hi: u64) -> Result<Vec<TraceRecord>, SourceError> {
        collect(self.select(Select::TimeWindow(lo, hi))?)
    }

    /// One rank's communication edges in program order: every `Send` and
    /// completed receive (`RecvDone`), projected to [`CommEdge`]s.
    ///
    /// Streams the rank's cursor and keeps only the communication events.
    /// A disk-backed store answers one call from its rank index without
    /// materializing the trace, but each call walks every segment the
    /// rank's events fall in: a caller that asks for every rank (the
    /// localize graph differ) materializes the store once instead.
    fn comm_edges(&self, rank: Rank) -> Result<Vec<CommEdge>, SourceError> {
        let mut out = Vec::new();
        for rec in self.select(Select::Rank(rank))? {
            let rec = rec?;
            let dir = match rec.kind {
                EventKind::Send => EdgeDir::Send,
                EventKind::RecvDone => EdgeDir::Recv,
                _ => continue,
            };
            let Some(msg) = &rec.msg else { continue };
            out.push(CommEdge {
                dir,
                peer: match dir {
                    EdgeDir::Send => msg.dst,
                    EdgeDir::Recv => msg.src,
                },
                tag: msg.tag,
                bytes: msg.bytes,
                seq: msg.seq,
                marker: rec.marker,
            });
        }
        Ok(out)
    }
}

/// Collect a selection, allocating once for as many events as the
/// source promises (`collect::<Result<Vec<_>, _>>()` sees no lower bound
/// through its error adapter and regrows the vector as it goes).
fn collect(iter: EventIter<'_>) -> Result<Vec<TraceRecord>, SourceError> {
    let mut out = Vec::with_capacity(iter.size_hint().0);
    for rec in iter {
        out.push(rec?);
    }
    Ok(out)
}

/// A consumer of trace records (the write side of a store).
///
/// A debugger session hands an attached sink the records its engine
/// incarnation logged since the attach, in the order the ranks recorded
/// them, when the sink is detached or the incarnation is replaced; the
/// engine itself tees nothing. Implementations must tolerate records
/// arriving out of canonical order and establish their own order on
/// finish.
pub trait TraceSink: Send {
    fn accept(&mut self, rec: &TraceRecord);

    /// Accept `recs` in order: a session hands its log over a chunk at a
    /// time. The default accepts them one by one; a sink that pays per
    /// call (a lock, a syscall) pays once per batch by overriding it.
    fn accept_batch(&mut self, recs: &[TraceRecord]) {
        recs.iter().for_each(|rec| self.accept(rec));
    }
}

/// Collect a source into the in-memory reference store.
///
/// This is the bridge for consumers that need random access (`EventId`
/// navigation, marker lookup) rather than streaming selection.
pub fn materialize(src: &dyn TraceSource) -> Result<TraceStore, SourceError> {
    Ok(TraceStore::build(
        src.events()?,
        src.source_sites(),
        src.source_n_ranks(),
    ))
}

impl TraceSource for TraceStore {
    fn source_n_ranks(&self) -> usize {
        self.n_ranks()
    }

    fn source_len(&self) -> u64 {
        self.len() as u64
    }

    fn source_sites(&self) -> SiteTable {
        self.sites().clone()
    }

    fn source_time_bounds(&self) -> Result<(u64, u64), SourceError> {
        Ok(self.time_bounds())
    }

    fn select(&self, sel: Select) -> Result<EventIter<'_>, SourceError> {
        let iter: EventIter<'_> = match sel {
            Select::All => Box::new(self.records().iter().copied().map(Ok)),
            Select::Rank(rank) => {
                if rank.ix() >= self.n_ranks() {
                    Box::new(std::iter::empty())
                } else {
                    Box::new(
                        self.by_rank(rank)
                            .iter()
                            .map(move |id| Ok(*self.record(*id))),
                    )
                }
            }
            Select::Tag(tag) => Box::new(
                self.records()
                    .iter()
                    .filter(move |r| r.msg.as_ref().is_some_and(|m| m.tag == tag))
                    .cloned()
                    .map(Ok),
            ),
            Select::Kind(kind) => Box::new(
                self.records()
                    .iter()
                    .filter(move |r| r.kind == kind)
                    .cloned()
                    .map(Ok),
            ),
            Select::TimeWindow(lo, hi) => Box::new(
                self.records()
                    .iter()
                    .filter(move |r| r.t_start <= hi && r.t_end >= lo)
                    .cloned()
                    .map(Ok),
            ),
        };
        Ok(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind::*;
    use crate::event::MsgInfo;

    fn sample() -> TraceStore {
        let recs = vec![
            TraceRecord::basic(1u32, RecvDone, 1, 0)
                .with_span(0, 15)
                .with_msg(MsgInfo {
                    src: Rank(0),
                    dst: Rank(1),
                    tag: Tag(7),
                    bytes: 8,
                    seq: 1,
                }),
            TraceRecord::basic(0u32, Compute, 1, 0).with_span(0, 10),
            TraceRecord::basic(0u32, Send, 2, 10)
                .with_span(10, 12)
                .with_msg(MsgInfo {
                    src: Rank(0),
                    dst: Rank(1),
                    tag: Tag(7),
                    bytes: 8,
                    seq: 1,
                }),
            TraceRecord::basic(1u32, Compute, 2, 15).with_span(15, 30),
        ];
        TraceStore::build(recs, SiteTable::new(), 0)
    }

    #[test]
    fn reference_select_matches_inherent_queries() {
        let s = sample();
        let src: &dyn TraceSource = &s;
        assert_eq!(src.source_n_ranks(), 2);
        assert_eq!(src.source_len(), 4);
        assert_eq!(src.source_time_bounds().unwrap(), s.time_bounds());
        assert_eq!(src.events().unwrap(), s.records().to_vec());
        for rank in [Rank(0), Rank(1)] {
            let want: Vec<TraceRecord> = s.by_rank(rank).iter().map(|id| *s.record(*id)).collect();
            assert_eq!(src.by_rank(rank).unwrap(), want);
        }
        // Out-of-range rank is empty, not a panic.
        assert!(src.by_rank(Rank(9)).unwrap().is_empty());
        let want: Vec<TraceRecord> = s.of_kind(Send).iter().map(|id| *s.record(*id)).collect();
        assert_eq!(src.by_construct(Send).unwrap(), want);
        let want: Vec<TraceRecord> = s
            .in_window(12, 16)
            .iter()
            .map(|id| *s.record(*id))
            .collect();
        assert_eq!(src.by_time_window(12, 16).unwrap(), want);
        assert_eq!(src.by_tag(Tag(7)).unwrap().len(), 2);
        assert!(src.by_tag(Tag(99)).unwrap().is_empty());
    }

    #[test]
    fn comm_edges_projects_sends_and_completed_recvs_in_program_order() {
        let s = sample();
        let src: &dyn TraceSource = &s;
        // Rank 0: Compute (skipped) then Send to rank 1.
        let e0 = src.comm_edges(Rank(0)).unwrap();
        assert_eq!(e0.len(), 1);
        assert_eq!(e0[0].dir, EdgeDir::Send);
        assert_eq!(e0[0].peer, Rank(1));
        assert_eq!(e0[0].tag, Tag(7));
        assert_eq!(e0[0].seq, 1);
        assert_eq!(e0[0].marker, 2);
        // Rank 1: RecvDone from rank 0, Compute skipped.
        let e1 = src.comm_edges(Rank(1)).unwrap();
        assert_eq!(e1.len(), 1);
        assert_eq!(e1[0].dir, EdgeDir::Recv);
        assert_eq!(e1[0].peer, Rank(0));
        assert_eq!(e1[0].marker, 1);
        assert_eq!(e1[0].key(), (EdgeDir::Recv, Rank(0), Tag(7)));
        // Out-of-range rank is empty, matching `by_rank`.
        assert!(src.comm_edges(Rank(9)).unwrap().is_empty());
    }

    #[test]
    fn materialize_roundtrips_the_reference() {
        let s = sample();
        let m = materialize(&s).unwrap();
        assert_eq!(m.records(), s.records());
        assert_eq!(m.n_ranks(), s.n_ranks());
    }
}
