//! Engine checkpoints: O(delta) replay for undo, stoplines and
//! prefix-shared exploration.
//!
//! The paper's §4.2 bounds replay cost with a "logarithmic backlog" of
//! saved states; [`EngineCheckpoint`] is that saved state. It captures
//! everything the engine owns — process states, each rank's frame stack
//! and instrumentation recorder, mailboxes (with their per-channel
//! sequence counters), collective state, the scheduler (RNG + script
//! cursor), per-rank match counts, fault-plan progress, the collected
//! trace and the decision log; the replay log is immutable and shared, not
//! copied. Taking one is a clone of owned state; restoring one is another
//! clone — nothing is re-executed.
//!
//! Determinism contract: a restored engine continued to the end produces
//! a byte-identical trace to the uncheckpointed run — the property the
//! `prop_checkpoint` suite pins, including under fault injection.

use crate::clock::CostModel;
use crate::collective::PendingCollective;
use crate::engine::ProcState;
use crate::fault::FaultPlan;
use crate::mailbox::Mailbox;
use crate::record::ReplayLog;
use crate::sched::Scheduler;
use crate::task::TaskHarness;
use std::sync::Arc;
use tracedbg_instrument::Recorder;
use tracedbg_trace::schedule::DecisionPoint;
use tracedbg_trace::{MarkerVector, Rank, SiteTable, TraceRecord};

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
    pub(crate) states: Vec<ProcState>,
    pub(crate) paused: Vec<bool>,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) scheduler: Scheduler,
    /// Receive matches made per rank: each rank's position in `replay`.
    pub(crate) matched: Vec<u32>,
    pub(crate) replay: Option<Arc<ReplayLog>>,
    pub(crate) recorders: Vec<Recorder>,
    pub(crate) sites: SiteTable,
    pub(crate) cost: CostModel,
    pub(crate) pending_coll: Option<PendingCollective>,
    /// Trace records that left their rank's buffer (finished, flushed or
    /// gathered), in arrival order; `engine::flush_rank` is the one writer.
    pub(crate) collected: Vec<TraceRecord>,
    pub(crate) faults: FaultPlan,
    /// Runtime operations (send/recv/collective) submitted per rank, for
    /// fault thresholds.
    pub(crate) ops: Vec<u64>,
    /// Every scheduling decision of the run with its alternatives — the
    /// raw material of schedule artifacts and systematic exploration, and
    /// the run's one record of nondeterminism.
    pub(crate) decision_log: Vec<DecisionPoint>,
    /// Each rank's execution point (frame stack, clock, grant position).
    pub(crate) tasks: Vec<TaskHarness>,
}

impl EngineCheckpoint {
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Execution markers at the snapshot point (the cache key the
    /// debugger's checkpoint cache dominates against).
    pub fn markers(&self) -> MarkerVector {
        let mut v = MarkerVector::zero(self.n_ranks);
        for (i, r) in self.recorders.iter().enumerate() {
            v.set(Rank(i as u32), r.marker());
        }
        v
    }

    /// Scheduling decisions taken before the snapshot (the explorer forks
    /// sibling schedules with the script cursor set to this length).
    pub fn decision_len(&self) -> usize {
        self.decision_log.len()
    }
}

// The explore pool moves engines and checkpoints across worker threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<crate::Engine>();
    assert_send::<EngineCheckpoint>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineCheckpoint>();
    }
}
