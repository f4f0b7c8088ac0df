//! The backlog of debugger stops (§4.2, §6).
//!
//! "Every time a target process stops, p2d2 records its execution marker.
//! If an undo operation is requested, the debugger replays the program,
//! setting the threshold variables of UserMonitor." An entry is such a
//! stop: its markers and, at every `checkpoint_every`th stop that left the
//! program stopped, the [`EngineCheckpoint`] taken there, which replays
//! restore instead of re-executing from process creation.
//!
//! §6's "logarithmic backlog" bounds it: past [`BOUND`] entries the newest
//! half is kept and the older half keeps every other entry. An entry still
//! costs tens of kilobytes at a few hundred ranks (EXPERIMENTS.md §3).

use std::sync::Arc;
use tracedbg_mpsim::EngineCheckpoint;
use tracedbg_trace::MarkerVector;

/// Stops kept before thinning.
const BOUND: usize = 64;

/// How often a replay found a checkpoint to start from, and how much
/// re-execution those still left (summed marker distance to the target).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLookupStats {
    pub hits: u64,
    pub misses: u64,
    pub restore_distance: u64,
}

/// One debugger stop.
struct Stop {
    markers: MarkerVector,
    checkpoint: Option<Arc<EngineCheckpoint>>,
}

/// A session's stops, oldest first.
#[derive(Default)]
pub(crate) struct Backlog {
    stops: Vec<Stop>,
    /// The stop the last undo dropped: no longer an undo target, but a
    /// restore point until a different stop is recorded, so a replay
    /// straight back to it restores (and the undo does not free it).
    undone: Option<Stop>,
    /// Snapshot at every `every`th stopped stop; 0 never snapshots.
    every: usize,
    /// Stopped stops since launch or restart.
    stop_count: usize,
    /// Survives [`Backlog::clear`]: the counters describe the session.
    pub(crate) stats: CacheLookupStats,
    /// Snapshots taken, and their wall-clock nanoseconds; these survive
    /// [`Backlog::clear`] too.
    pub(crate) snapshots: u64,
    pub(crate) snapshot_ns: u64,
}

impl Backlog {
    pub(crate) fn new(every: usize) -> Self {
        Backlog {
            every,
            ..Default::default()
        }
    }

    /// Record a stop at `markers`. Re-stopping at the newest entry's
    /// markers (a replay landing on the stop it targets) adds no undo
    /// level. A stop due a checkpoint shares the one an entry already
    /// holds at these markers, and only otherwise calls `snapshot`.
    pub(crate) fn record(
        &mut self,
        markers: MarkerVector,
        stopped: bool,
        snapshot: impl FnOnce() -> EngineCheckpoint,
    ) {
        self.stop_count += usize::from(stopped);
        let due = stopped && self.every > 0 && self.stop_count % self.every == 0;
        let checkpoint = due.then(|| {
            let held = self
                .restore_points()
                .find_map(|s| s.checkpoint.as_ref().filter(|_| s.markers == markers))
                .map(Arc::clone);
            held.unwrap_or_else(|| {
                let started = std::time::Instant::now();
                let cp = snapshot();
                self.snapshots += 1;
                self.snapshot_ns += started.elapsed().as_nanos() as u64;
                debug_assert_eq!(cp.markers(), markers);
                Arc::new(cp)
            })
        });
        if self.stops.last().map(|s| &s.markers) != Some(&markers) {
            self.undone = None;
        }
        self.push(Stop {
            markers,
            checkpoint,
        });
    }

    /// Every stop a replay may start from.
    fn restore_points(&self) -> impl Iterator<Item = &Stop> {
        self.stops.iter().chain(&self.undone)
    }

    /// Push `stop`, or merge it into the newest entry if that one has the
    /// same markers.
    fn push(&mut self, stop: Stop) {
        match self.stops.last_mut() {
            Some(last) if last.markers == stop.markers => {
                last.checkpoint = last.checkpoint.take().or(stop.checkpoint);
            }
            _ => {
                self.stops.push(stop);
                if self.stops.len() > BOUND {
                    self.compact();
                }
            }
        }
    }

    /// The checkpoint to replay to `target` from: dominated by the target
    /// on every rank, with the most progress already made.
    pub(crate) fn best_for(&mut self, target: &MarkerVector) -> Option<Arc<EngineCheckpoint>> {
        let best = self
            .restore_points()
            .filter_map(|s| Some((&s.markers, s.checkpoint.as_ref()?)))
            .filter(|(m, _)| m.len() == target.len() && m.le(target))
            .map(|(m, cp)| (m.counts().iter().sum::<u64>(), cp))
            .max_by_key(|&(sum, _)| sum)
            .map(|(sum, cp)| (sum, Arc::clone(cp)));
        match best {
            Some((cp_sum, cp)) => {
                self.stats.hits += 1;
                let target_sum: u64 = target.counts().iter().sum();
                self.stats.restore_distance += target_sum.saturating_sub(cp_sum);
                Some(cp)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// An undo: the stop beneath the newest, and the checkpoint to replay
    /// to it from. The origin is chosen while the newest stop still holds
    /// its checkpoint, and that stop is dropped only then. The target
    /// stays for the replay to land on, merged into the stop beneath it if
    /// thinning left the two equal. `None` without an earlier stop.
    pub(crate) fn undo(&mut self) -> Option<(MarkerVector, Option<Arc<EngineCheckpoint>>)> {
        let [.., target, _] = self.stops.as_slice() else {
            return None;
        };
        let markers = target.markers.clone();
        let origin = self.best_for(&markers);
        self.undone = self.stops.pop();
        let target = self.stops.pop()?;
        self.push(target);
        Some((markers, origin))
    }

    /// Stops that hold a checkpoint.
    pub(crate) fn checkpoints(&self) -> usize {
        self.restore_points()
            .filter(|s| s.checkpoint.is_some())
            .count()
    }

    /// Forget every stop: a restart records a new history.
    pub(crate) fn clear(&mut self) {
        self.stops.clear();
        self.undone = None;
        self.stop_count = 0;
    }

    /// Keep the newest half intact; thin the older half to every other
    /// entry (exponential spacing over repeated compactions).
    fn compact(&mut self) {
        let old = self.stops.len() - BOUND / 2;
        let mut i = 0;
        self.stops.retain(|_| {
            i += 1;
            i > old || i % 2 == 1
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_mpsim::{Engine, EngineConfig, Prog, RankProgram, RecorderConfig, TaskOp};
    use tracedbg_trace::Rank;

    fn mv(counts: &[u64]) -> MarkerVector {
        MarkerVector::from_counts(counts.to_vec())
    }

    fn never() -> EngineCheckpoint {
        unreachable!("no snapshot is due")
    }

    /// A backlog that never checkpoints, holding a stop per marker vector.
    fn markers_only(stops: &[&[u64]]) -> Backlog {
        let mut b = Backlog::new(0);
        for s in stops {
            b.record(mv(s), true, never);
        }
        b
    }

    fn undo_target(b: &mut Backlog) -> Option<MarkerVector> {
        b.undo().map(|(target, _)| target)
    }

    #[test]
    fn undo_pops_two() {
        let mut b = markers_only(&[&[1, 1], &[2, 1], &[3, 1]]);
        assert_eq!(undo_target(&mut b), Some(mv(&[2, 1])));
        assert_eq!(b.stops.len(), 2, "the undone stop goes, its target stays");
        // The replay lands on the target: no new level.
        b.record(mv(&[2, 1]), true, never);
        assert_eq!(b.stops.len(), 2);
        assert_eq!(undo_target(&mut b), Some(mv(&[1, 1])));
    }

    #[test]
    fn undo_merges_a_target_thinning_left_next_to_its_twin() {
        // Thinning [A, B, A, ..] keeps the two A's and drops the B between.
        let (a, x) = (mv(&[1, 1]), mv(&[9, 9]));
        let mut b = markers_only(&[]);
        b.stops = [&a, &a, &x]
            .map(|m| Stop {
                markers: m.clone(),
                checkpoint: None,
            })
            .into();
        assert_eq!(undo_target(&mut b), Some(a.clone()));
        assert_eq!(b.stops.len(), 1, "one level for the one state");
        assert_eq!(undo_target(&mut b), None);
    }

    #[test]
    fn single_stop_cannot_undo() {
        let mut b = markers_only(&[]);
        assert_eq!(undo_target(&mut b), None);
        b.record(mv(&[1, 1]), true, never);
        assert_eq!(undo_target(&mut b), None);
        assert_eq!(b.stops.len(), 1);
    }

    #[test]
    fn duplicate_stops_are_coalesced() {
        let b = markers_only(&[&[1, 1], &[1, 1]]);
        assert_eq!(b.stops.len(), 1);
    }

    #[test]
    fn compaction_bounds_length_and_keeps_recent() {
        let mut b = markers_only(&[]);
        for i in 0..200 {
            b.record(mv(&[i, 0]), true, never);
        }
        assert!(b.stops.len() <= BOUND, "len {}", b.stops.len());
        // The most recent stop survives intact.
        assert_eq!(b.stops.last().map(|s| &s.markers), Some(&mv(&[199, 0])));
    }

    #[test]
    fn compaction_preserves_order() {
        let mut b = markers_only(&[]);
        for i in 0..500 {
            b.record(mv(&[i, 0]), true, never);
        }
        // Drain the backlog: retained stops must be strictly decreasing.
        let mut seq = Vec::new();
        while let Some(t) = undo_target(&mut b) {
            seq.push(t.get(Rank(0)));
            b.record(t, true, never); // the replay lands on the target
        }
        assert!(seq.len() >= BOUND / 2, "{seq:?}");
        assert!(seq.windows(2).all(|w| w[0] > w[1]), "{seq:?}");
    }

    /// One rank running a hundred computes.
    fn program() -> Vec<RankProgram> {
        let compute = Prog::op(|_: &mut (), v| TaskOp::Compute {
            cost_ns: 10,
            site: v.site("cc.rs", 1, "p0"),
        });
        vec![RankProgram::task(
            (),
            Prog::for_range(|_, _| (0, 100), |_, _| {}, compute),
        )]
    }

    fn checkpoint_at(threshold: u64) -> EngineCheckpoint {
        let mut e = Engine::launch(
            EngineConfig {
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            program(),
        );
        e.set_threshold(Rank(0), Some(threshold));
        assert!(e.run().is_stopped());
        e.snapshot()
    }

    /// A backlog that checkpoints every stop, stopped at each threshold.
    fn checkpointed(thresholds: impl IntoIterator<Item = u64>) -> Backlog {
        let mut b = Backlog::new(1);
        for t in thresholds {
            b.record(mv(&[t]), true, || checkpoint_at(t));
        }
        b
    }

    #[test]
    fn best_for_picks_deepest_dominated() {
        let mut b = checkpointed([3, 6, 9]);
        let best = b.best_for(&mv(&[7])).expect("6 is dominated by 7");
        assert_eq!(best.markers(), mv(&[6]));
        let exact = b.best_for(&mv(&[9])).expect("exact hit");
        assert_eq!(exact.markers(), mv(&[9]));
        assert!(b.best_for(&mv(&[2])).is_none(), "nothing at/below 2");
    }

    #[test]
    fn duplicate_markers_are_not_stored_twice() {
        let mut b = checkpointed([5, 6]);
        // Back at 5 after 6: a new undo level, sharing the checkpoint the
        // first stop at 5 took instead of taking another.
        b.record(mv(&[5]), true, never);
        assert_eq!(b.stops.len(), 3);
        let [first, _, again] = b.stops.as_slice() else {
            unreachable!()
        };
        let shared = |s: &Stop| s.checkpoint.clone().expect("checkpointed");
        assert!(Arc::ptr_eq(&shared(first), &shared(again)));
        b.record(mv(&[5]), true, never);
        assert_eq!(b.stops.len(), 3, "coalesced");
    }

    #[test]
    fn compaction_bounds_size_and_keeps_newest() {
        let mut b = checkpointed(1..=100);
        assert!(b.stops.len() <= BOUND, "len {}", b.stops.len());
        assert_eq!(
            b.checkpoints(),
            b.stops.len(),
            "a checkpoint goes with its stop"
        );
        // The newest checkpoint always survives thinning.
        assert_eq!(b.best_for(&mv(&[500])).unwrap().markers(), mv(&[100]));
    }

    #[test]
    fn lookup_stats_track_hits_misses_and_distance() {
        let mut b = checkpointed([3]);
        assert!(b.best_for(&mv(&[2])).is_none());
        assert!(b.best_for(&mv(&[7])).is_some());
        b.clear();
        let st = b.stats;
        assert_eq!(st.hits, 1, "the counters survive a restart");
        assert_eq!(st.misses, 1);
        assert_eq!(st.restore_distance, 4, "target 7 minus checkpoint 3");
    }

    #[test]
    fn restored_cache_entry_is_runnable() {
        let mut b = checkpointed([4]);
        let cp = b.best_for(&mv(&[10])).unwrap();
        let mut e = Engine::restore(&cp, Vec::new());
        e.clear_thresholds();
        e.resume_trapped();
        assert!(e.run().is_completed());
        assert_eq!(e.markers().get(Rank(0)), 102);
    }

    #[test]
    fn every_nth_stopped_stop_takes_a_checkpoint() {
        let mut b = Backlog::new(3);
        for t in 1..=7 {
            b.record(mv(&[t]), true, || checkpoint_at(t));
        }
        // A stop that did not leave the program stopped is not counted.
        b.record(mv(&[102]), false, never);
        b.record(mv(&[8]), true, never);
        b.record(mv(&[9]), true, || checkpoint_at(9));
        let held: Vec<u64> = b
            .stops
            .iter()
            .filter(|s| s.checkpoint.is_some())
            .map(|s| s.markers.get(Rank(0)))
            .collect();
        assert_eq!(held, [3, 6, 9]);
    }

    #[test]
    fn undo_replays_from_the_undone_stop_when_it_is_the_best_origin() {
        // A completed run, then a replay back to 6: undoing returns to the
        // end, and the stop being undone is the checkpoint to start from.
        let mut b = Backlog::new(1);
        b.record(mv(&[102]), false, never);
        b.record(mv(&[6]), true, || checkpoint_at(6));
        let (target, origin) = b.undo().expect("an earlier stop");
        assert_eq!(target, mv(&[102]));
        assert_eq!(origin.map(|cp| cp.markers()), Some(mv(&[6])));
        assert_eq!(b.stops.len(), 1);
        // The undone stop's checkpoint outlives the undo until a different
        // stop is recorded.
        assert_eq!(b.checkpoints(), 1);
        b.record(mv(&[102]), false, never);
        assert_eq!(b.checkpoints(), 1, "the undo's own landing keeps it");
        b.record(mv(&[6]), true, never);
        assert_eq!(b.checkpoints(), 1, "a stop back at it shares it");
        b.record(mv(&[7]), false, never);
        assert!(b.undone.is_none());
    }
}
