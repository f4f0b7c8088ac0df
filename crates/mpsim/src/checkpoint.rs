//! Engine checkpoints: O(delta) replay for undo, stoplines and
//! prefix-shared exploration.
//!
//! The paper's §4.2 bounds replay cost with a "logarithmic backlog" of
//! saved states; [`EngineCheckpoint`] is that saved state. It captures
//! everything the engine owns — process states, each rank's frame stack,
//! instrumentation recorder and mailbox (with its per-channel sequence
//! counters), what the debugger armed, collective state, the scheduler
//! (RNG + script cursor), per-rank match counts, fault-plan progress, the
//! collected trace and the decision log; the replay log is immutable and
//! shared, not copied. Nothing is re-executed on restore.
//!
//! A checkpoint shares what did not change. A snapshot puts each rank's
//! [`RankState`] and each rank's [`Mailbox`] behind an `Arc`, which the
//! engine un-shares where it writes to that rank: the grant copies the
//! rank's state, a delivery into or out of its mailbox copies the
//! mailbox. The ranks, their mailboxes, the process states and what the
//! debugger armed are shared a block of ranks at a time, and each table's
//! list of blocks once more ([`RankTable`]); the collected trace and the
//! decision log are [`ChunkLog`]s, shared chunk by chunk. So taking a
//! checkpoint moves what the engine owned behind `Arc`s, restoring one
//! copies a pointer per table and per log and allocates nothing, and a
//! `step` afterwards copies only the lists, blocks, ranks and mailboxes
//! it writes. A rank's copy is its program: a box and its frame stack,
//! two allocations (the recorder's call ring is inline). A mailbox's copy
//! is its channel list and its one queue, two allocations however many
//! messages are queued, each payload inline or shared. An engine that
//! never snapshots owns every list and block, and every rank and mailbox
//! inline, and shares nothing.
//!
//! Determinism contract: a restored engine continued to the end produces
//! a byte-identical trace to the uncheckpointed run — the property the
//! `prop_checkpoint` suite pins, including under fault injection; the
//! `prop_cow` suite pins that driving an engine on never writes through
//! to a checkpoint it shares ranks and chunks with.

use crate::collective::PendingCollective;
use crate::engine::ProcState;
use crate::fault::FaultPlan;
use crate::mailbox::Mailbox;
use crate::record::ReplayLog;
use crate::sched::Scheduler;
use crate::task::TaskHarness;
use std::ops::Index;
use std::sync::Arc;
use tracedbg_instrument::{Armed, Recorder};
use tracedbg_trace::schedule::{DecisionPoint, ReadyChanges};
use tracedbg_trace::{ChunkLog, MarkerVector, Rank, SitePrefix, SiteTable, TraceRecord};

/// Ranks per [`RankTable`] block.
const BLOCK: usize = 64;

/// A value the engine owns, or behind an `Arc` that checkpoints share until
/// the engine next writes to it. A [`RankTable`]'s list of blocks is one
/// over a `Vec` of blocks and each block one over a `Vec`; a rank
/// ([`RankCell`]) is one over its [`RankState`] and a mailbox
/// ([`MailboxCell`]) one over its [`Mailbox`], held inline so an engine
/// that never snapshots allocates nothing per rank.
#[derive(Clone)]
pub(crate) enum CowCell<T> {
    Own(T),
    Shared(Arc<T>),
}

impl<T: Clone> CowCell<T> {
    /// The value to write to, copied out of the checkpoints that share it.
    /// With [`RankTable::get_mut`] the one way to write to a rank.
    #[inline]
    pub(crate) fn make_mut(&mut self) -> &mut T {
        if let CowCell::Shared(shared) = self {
            *self = CowCell::Own(T::clone(shared));
        }
        match self {
            CowCell::Own(value) => value,
            CowCell::Shared(_) => unreachable!("copied out above"),
        }
    }
}

impl<T> CowCell<T> {
    /// The value behind an `Arc`, passed through `seal` on the way if the
    /// engine owned it.
    fn share(self, seal: impl FnOnce(T) -> T) -> Self {
        match self {
            CowCell::Own(value) => CowCell::Shared(Arc::new(seal(value))),
            shared => shared,
        }
    }
}

impl<T> std::ops::Deref for CowCell<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        match self {
            CowCell::Own(value) => value,
            CowCell::Shared(value) => value,
        }
    }
}

/// A per-rank table checkpoints can share, in blocks of `BLOCK` ranks.
/// An engine that never snapshots owns the list and every block, so the
/// table is one vector per block. [`RankTable::share`] puts each block
/// the engine owns, and then the list, behind an `Arc`, after which a
/// clone copies one pointer, and writing an entry first copies the list
/// and its block out of the checkpoints that share them (for `ranks`,
/// that copies each [`RankCell`]'s `Arc`, not the rank behind it). A
/// shared list holds only shared blocks.
#[derive(Clone)]
pub(crate) struct RankTable<T>(CowCell<Vec<CowCell<Vec<T>>>>);

impl<T: Clone> RankTable<T> {
    pub(crate) fn new(entries: impl IntoIterator<Item = T>) -> Self {
        let mut entries = entries.into_iter().peekable();
        let mut blocks = Vec::new();
        while entries.peek().is_some() {
            blocks.push(CowCell::Own(entries.by_ref().take(BLOCK).collect()));
        }
        RankTable(CowCell::Own(blocks))
    }

    /// The entry of rank `i`, its block copied out of any checkpoint that
    /// shares it.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.0.make_mut()[i / BLOCK].make_mut()[i % BLOCK]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flat_map(|block| block.iter())
    }

    /// Move every block the engine owns behind an `Arc`, passing each
    /// entry through `share_entry` on the way, and then the list, so
    /// clones share it.
    fn share(&mut self, mut share_entry: impl FnMut(T) -> T) {
        let taken = std::mem::replace(&mut self.0, CowCell::Own(Vec::new()));
        self.0 = taken.share(|blocks| {
            (blocks.into_iter())
                .map(|block| {
                    block.share(|entries| entries.into_iter().map(&mut share_entry).collect())
                })
                .collect()
        });
    }
}

impl<T> Index<usize> for RankTable<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.0[i / BLOCK][i % BLOCK]
    }
}

/// A rank's scheduling state and the counters the engine writes with it:
/// every change of either counter comes with a transition of the rank,
/// which writes its block anyway.
#[derive(Clone, Debug)]
pub(crate) struct Proc {
    /// Written only through `Engine::set_state`.
    pub state: ProcState,
    /// Receive matches made: the rank's position in `replay`.
    pub matched: u32,
    /// Runtime operations (send/recv/collective) submitted, for fault
    /// thresholds.
    pub ops: u64,
}

/// One rank's share of the run: its execution point and what it has
/// recorded. The messages queued for it are its [`MailboxCell`], which
/// a send copies instead of the rank.
#[derive(Clone)]
pub(crate) struct RankState {
    /// Frame stack, clock, grant position.
    pub task: TaskHarness,
    pub recorder: Recorder,
}

/// A rank's [`RankState`]: the engine's own, or shared with checkpoints
/// until the engine next writes to the rank.
pub(crate) type RankCell = CowCell<RankState>;

/// A rank's [`Mailbox`] (with its per-channel sequence counters): the
/// engine's own, or shared with checkpoints until a message enters or
/// leaves it.
pub(crate) type MailboxCell = CowCell<Mailbox>;

/// A full deterministic snapshot of a running [`crate::Engine`] — the
/// engine keeps its own state in one, so taking a checkpoint is cloning it
/// and no field can be left out.
///
/// Self-contained: [`crate::Engine::restore`] rebuilds a live engine from
/// it alone.
#[derive(Clone)]
pub struct EngineCheckpoint {
    pub(crate) n_ranks: usize,
    /// Every transition goes through `Engine::set_state` (and every pause
    /// through `Engine::set_paused`), which keep the ready set in step.
    pub(crate) states: RankTable<Proc>,
    pub(crate) paused: RankTable<bool>,
    /// Each rank's threshold and breakpoints, outside its shared
    /// [`RankState`]: arming or disarming a rank does not un-share it,
    /// and running it only reads them.
    pub(crate) armed: RankTable<Armed>,
    /// Un-shared at the grant.
    pub(crate) ranks: RankTable<RankCell>,
    /// Un-shared where a message enters or leaves the rank's mailbox.
    pub(crate) mailboxes: RankTable<MailboxCell>,
    pub(crate) scheduler: Scheduler,
    pub(crate) replay: Option<Arc<ReplayLog>>,
    pub(crate) sites: SiteTable,
    /// The sites `sites` held when the checkpoint was taken, which a
    /// fork's table starts from ([`crate::Engine::fork`]). The engine's
    /// own state leaves it empty.
    pub(crate) sites_at: SitePrefix,
    pub(crate) pending_coll: Option<PendingCollective>,
    /// Every kept trace record, in the order the ranks recorded them; a
    /// rank's grant (`TaskHarness::after_observe`) is the one writer.
    pub(crate) collected: ChunkLog<TraceRecord>,
    pub(crate) faults: FaultPlan,
    /// Every scheduling decision of the run with its alternatives — the
    /// raw material of schedule artifacts and systematic exploration, and
    /// the run's one record of nondeterminism.
    pub(crate) decision_log: ChunkLog<DecisionPoint>,
    /// The ready set the log's last `Turn` point stored and the ranks
    /// whose ready bit changed since: what the next `Turn` point's delta
    /// is made of, so a restored engine continues the log's chain.
    pub(crate) ready_changes: ReadyChanges,
}

impl EngineCheckpoint {
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Execution markers at the snapshot point (the cache key the
    /// debugger's backlog of stops dominates against).
    pub fn markers(&self) -> MarkerVector {
        let mut v = MarkerVector::zero(self.n_ranks);
        for (i, r) in self.ranks.iter().enumerate() {
            v.set(Rank(i as u32), r.recorder.marker());
        }
        v
    }

    /// Move everything shareable behind `Arc`s — the per-rank tables'
    /// blocks, the ranks and mailboxes in them and the logs' open tails —
    /// so a clone shares it.
    pub(crate) fn share(&mut self) {
        self.states.share(|state| state);
        self.paused.share(|paused| paused);
        self.armed.share(|armed| armed);
        self.ranks.share(|rank| rank.share(|rank| rank));
        self.mailboxes
            .share(|mailbox| mailbox.share(|mailbox| mailbox));
        self.collected.seal();
        self.decision_log.seal();
    }

    /// Scheduling decisions taken before the snapshot (the explorer forks
    /// sibling schedules with the script cursor set to this length).
    pub fn decision_len(&self) -> usize {
        self.decision_log.len()
    }

    /// A copy that shares nothing an engine may write with `self`: every
    /// rank's state and mailbox copied, and both run logs copied entry by entry. The
    /// oracle the copy-on-write property test compares shared checkpoints
    /// against.
    #[cfg(test)]
    pub(crate) fn deep_clone(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            states: RankTable::new(self.states.iter().cloned()),
            paused: RankTable::new(self.paused.iter().cloned()),
            armed: RankTable::new(self.armed.iter().cloned()),
            ranks: RankTable::new(
                self.ranks
                    .iter()
                    .map(|r| RankCell::Own(RankState::clone(r))),
            ),
            mailboxes: RankTable::new(
                (self.mailboxes.iter()).map(|m| MailboxCell::Own(Mailbox::clone(m))),
            ),
            collected: self.collected.iter().cloned().collect(),
            decision_log: self.decision_log.iter().cloned().collect(),
            ..self.clone()
        }
    }
}

// The explore pool moves engines and checkpoints across worker threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<crate::Engine>();
    assert_send::<EngineCheckpoint>();
};

#[cfg(test)]
mod prop_cow;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineCheckpoint>();
    }
}
