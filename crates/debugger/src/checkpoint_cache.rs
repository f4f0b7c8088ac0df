//! A logarithmic backlog of engine checkpoints (§4.2/§6).
//!
//! The paper bounds replay cost by "keeping a logarithmic backlog" of
//! saved states. [`UndoStack`](crate::undo::UndoStack) applies that idea
//! to stop *markers*; this cache applies it to whole
//! [`EngineCheckpoint`]s: every debugger stop may deposit a snapshot, and
//! `replay_to`/`undo` restore the *nearest dominated* checkpoint instead
//! of re-executing from process creation — O(delta) replay.
//!
//! Entries are keyed by their marker vector. A checkpoint is usable for a
//! stopline target iff its markers are component-wise ≤ the target
//! (`MarkerVector::le`): every process in the snapshot still has the
//! target ahead of it. Among usable entries the one with the largest
//! marker sum wins (least remaining re-execution).
//!
//! Thinning mirrors the undo stack: when the cache outgrows its bound the
//! newest half is kept intact and the older half keeps every other entry,
//! so long sessions retain exponentially-spaced restore points. An entry
//! shares every rank and log chunk that did not change with its
//! neighbours, but still costs tens of kilobytes at a few hundred ranks,
//! so without the bound a session would grow with every stop
//! (EXPERIMENTS.md §3).

use std::sync::Arc;
use tracedbg_mpsim::EngineCheckpoint;
use tracedbg_trace::MarkerVector;

/// Lookup behaviour of a [`CheckpointCache`]: how often `best_for` found a
/// usable checkpoint and how much re-execution the served checkpoints
/// still left (summed marker distance from checkpoint to target — the
/// paper's replay cost, in events).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLookupStats {
    pub hits: u64,
    pub misses: u64,
    pub restore_distance: u64,
}

/// Bounded store of stop-state checkpoints, insertion-ordered (oldest
/// first — debugger stops have monotonically nondecreasing marker sums
/// within an incarnation, so order roughly tracks execution depth).
pub struct CheckpointCache {
    entries: Vec<(MarkerVector, Arc<EngineCheckpoint>)>,
    max_len: usize,
    stats: CacheLookupStats,
}

impl CheckpointCache {
    pub fn new() -> Self {
        Self::with_capacity(32)
    }

    /// `max_len` ≥ 4: how many checkpoints to keep before thinning.
    pub fn with_capacity(max_len: usize) -> Self {
        CheckpointCache {
            entries: Vec::new(),
            max_len: max_len.max(4),
            stats: CacheLookupStats::default(),
        }
    }

    /// Is a checkpoint with exactly these markers already cached? Ask
    /// before paying for a snapshot: a replay that lands exactly on a
    /// cached stop has nothing new to deposit.
    pub fn contains(&self, markers: &MarkerVector) -> bool {
        self.entries.iter().any(|(m, _)| m == markers)
    }

    /// Deposit a checkpoint taken at `markers` (its
    /// [`EngineCheckpoint::markers`], which the caller already holds).
    /// Re-stopping at already-cached markers is a no-op.
    pub fn insert(&mut self, markers: MarkerVector, cp: EngineCheckpoint) {
        debug_assert_eq!(markers, cp.markers());
        if self.contains(&markers) {
            return;
        }
        self.entries.push((markers, Arc::new(cp)));
        if self.entries.len() > self.max_len {
            self.compact();
        }
    }

    /// The best checkpoint to restore for a replay to `target`: dominated
    /// by the target on every rank, maximizing progress already made.
    pub fn best_for(&mut self, target: &MarkerVector) -> Option<Arc<EngineCheckpoint>> {
        let best = self
            .entries
            .iter()
            .filter(|(m, _)| m.len() == target.len() && m.le(target))
            .max_by_key(|(m, _)| m.counts().iter().sum::<u64>());
        match best {
            Some((m, cp)) => {
                self.stats.hits += 1;
                let target_sum: u64 = target.counts().iter().sum();
                let cp_sum: u64 = m.counts().iter().sum();
                self.stats.restore_distance += target_sum.saturating_sub(cp_sum);
                Some(Arc::clone(cp))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Lookup telemetry so far. Survives [`CheckpointCache::clear`]: the
    /// counters describe the cache's whole lifetime, not one generation of
    /// entries.
    pub fn stats(&self) -> CacheLookupStats {
        self.stats
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Keep the newest half intact; thin the older half to every other
    /// entry (exponential spacing over repeated compactions).
    fn compact(&mut self) {
        let keep_recent = self.max_len / 2;
        let old = self.entries.len() - keep_recent;
        let mut thinned = Vec::with_capacity(old / 2 + keep_recent + 1);
        for (i, e) in self.entries.drain(..).enumerate() {
            if i >= old || i % 2 == 0 {
                thinned.push(e);
            }
        }
        self.entries = thinned;
    }
}

impl Default for CheckpointCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{Engine, EngineConfig, Prog, RankProgram, RecorderConfig, TaskOp};
    use tracedbg_trace::Rank;

    /// One rank running twenty computes.
    fn program() -> Vec<RankProgram> {
        let compute = Prog::op(|_: &mut (), v| TaskOp::Compute {
            cost_ns: 10,
            site: v.site("cc.rs", 1, "p0"),
        });
        vec![RankProgram::task(
            (),
            Prog::for_range(|_, _| (0, 20), |_, _| {}, compute),
        )]
    }

    fn checkpoint_at(threshold: u64) -> EngineCheckpoint {
        let mut e = Engine::launch(
            EngineConfig {
                checkpoints: true,
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            program(),
        );
        e.set_threshold(Rank(0), Some(threshold));
        assert!(e.run().is_stopped());
        e.snapshot()
    }

    fn mv(c: u64) -> MarkerVector {
        MarkerVector::from_counts(vec![c])
    }

    /// Deposit the checkpoint of a stop at `threshold`.
    fn insert_at(cache: &mut CheckpointCache, threshold: u64) {
        cache.insert(mv(threshold), checkpoint_at(threshold));
    }

    #[test]
    fn best_for_picks_deepest_dominated() {
        let mut cache = CheckpointCache::new();
        for t in [3, 6, 9] {
            insert_at(&mut cache, t);
        }
        let best = cache.best_for(&mv(7)).expect("6 is dominated by 7");
        assert_eq!(best.markers(), mv(6));
        let exact = cache.best_for(&mv(9)).expect("exact hit");
        assert_eq!(exact.markers(), mv(9));
        assert!(cache.best_for(&mv(2)).is_none(), "nothing at/below 2");
    }

    #[test]
    fn duplicate_markers_are_not_stored_twice() {
        let mut cache = CheckpointCache::new();
        insert_at(&mut cache, 5);
        insert_at(&mut cache, 5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn compaction_bounds_size_and_keeps_newest() {
        let mut cache = CheckpointCache::with_capacity(4);
        for t in 1..=12 {
            insert_at(&mut cache, t);
        }
        assert!(cache.len() <= 5, "len {}", cache.len());
        // The newest checkpoint always survives thinning.
        assert_eq!(cache.best_for(&mv(50)).unwrap().markers(), mv(12));
    }

    #[test]
    fn lookup_stats_track_hits_misses_and_distance() {
        let mut cache = CheckpointCache::new();
        insert_at(&mut cache, 3);
        assert!(cache.best_for(&mv(2)).is_none());
        assert!(cache.best_for(&mv(7)).is_some());
        let st = cache.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.restore_distance, 4, "target 7 minus checkpoint 3");
    }

    #[test]
    fn restored_cache_entry_is_runnable() {
        let mut cache = CheckpointCache::new();
        insert_at(&mut cache, 4);
        let cp = cache.best_for(&mv(10)).unwrap();
        let mut e = Engine::restore(&cp, Vec::new());
        e.clear_thresholds();
        e.resume_trapped();
        assert!(e.run().is_completed());
        assert_eq!(e.markers().get(Rank(0)), 22);
    }
}
