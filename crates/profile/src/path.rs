//! Critical-path extraction: the longest weighted chain of
//! happens-before-ordered events that bounds the makespan.
//!
//! The walk starts from the terminal event (max `t_end`, deterministic
//! tie-break) and steps backwards through the event graph, at each event
//! choosing among its immediate predecessors — the same-rank program
//! predecessor, the matched send (for a completed receive), or the
//! last-arriving participant (for a collective) — the one that finished
//! latest. That predecessor is the reason this event could not have
//! completed earlier, which is exactly the critical-path recurrence.
//!
//! Each path event contributes `t_end - max(t_start, prev.t_end)` ns: the
//! stretch of wall time only it covers. Because `t_end` is nonincreasing
//! along the backward walk, those stretches are disjoint subintervals of
//! the run, so `critical_path_len = Σ contributions ≤ makespan` holds by
//! construction (and is property-tested, not just argued).

use tracedbg_causality::collective_instances;
use tracedbg_trace::{EventId, Rank, TraceStore};
use tracedbg_tracegraph::MessageMatching;

/// The extracted critical path, start → terminal.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Path events in execution order.
    pub steps: Vec<EventId>,
    /// Exclusive time attributed to each step (same indexing).
    pub contributions: Vec<u64>,
    /// Σ contributions.
    pub len: u64,
}

impl CriticalPath {
    /// Extract the critical path of `store` under `matching`.
    pub fn build(store: &TraceStore, matching: &MessageMatching) -> Self {
        if store.is_empty() {
            return CriticalPath::default();
        }
        // Collective instance lookup: event -> its instance participants.
        let instances = collective_instances(store);
        let mut instance_of = vec![usize::MAX; store.len()];
        for (i, inst) in instances.iter().enumerate() {
            for id in inst {
                instance_of[id.ix()] = i;
            }
        }

        // Terminal: max t_end, ties toward the lowest rank then marker —
        // the same event whichever input plane delivered the records.
        let terminal = store
            .ids()
            .max_by_key(|&id| {
                let r = store.record(id);
                (
                    r.t_end,
                    std::cmp::Reverse(r.rank.0),
                    std::cmp::Reverse(r.marker),
                )
            })
            .expect("nonempty store");

        let mut rev = Vec::new();
        let mut visited = vec![false; store.len()];
        let mut cur = terminal;
        loop {
            rev.push(cur);
            visited[cur.ix()] = true;
            let rec = store.record(cur);
            // Candidate predecessors: (event, same_rank).
            let mut cands: Vec<(EventId, bool)> = Vec::new();
            if rec.marker > 1 {
                let lane = store.by_rank(rec.rank);
                cands.push((lane[(rec.marker - 2) as usize], true));
            }
            if let Some(m) = matching.match_of_recv(cur) {
                cands.push((m.send, false));
            }
            let inst = instance_of[cur.ix()];
            if inst != usize::MAX {
                // The last-arriving participant gates the collective.
                if let Some(&gate) = instances[inst].iter().max_by_key(|&&id| {
                    (
                        store.record(id).t_start,
                        std::cmp::Reverse(store.record(id).rank.0),
                    )
                }) {
                    if gate != cur {
                        cands.push((gate, false));
                    }
                }
            }
            // Latest-finishing predecessor; ties prefer staying on-rank,
            // then the lowest rank.
            let next = cands.into_iter().max_by_key(|&(id, same)| {
                let r = store.record(id);
                (r.t_end, same, std::cmp::Reverse(r.rank.0))
            });
            match next {
                // The gate edge of a zero-duration collective region can
                // point at an event the walk already holds; stop rather
                // than revisit.
                Some((id, _)) if !visited[id.ix()] => cur = id,
                _ => break,
            }
        }
        rev.reverse();

        let mut contributions = Vec::with_capacity(rev.len());
        let mut len = 0u64;
        let mut prev_end = store.time_bounds().0;
        for &id in &rev {
            let r = store.record(id);
            let from = r.t_start.max(prev_end);
            let c = r.t_end.saturating_sub(from);
            contributions.push(c);
            len += c;
            prev_end = prev_end.max(r.t_end);
        }
        CriticalPath {
            steps: rev,
            contributions,
            len,
        }
    }

    /// Aggregate path contribution per rank.
    pub fn per_rank(&self, store: &TraceStore) -> Vec<u64> {
        let mut v = vec![0u64; store.n_ranks()];
        for (i, &id) in self.steps.iter().enumerate() {
            v[store.record(id).rank.ix()] += self.contributions[i];
        }
        v
    }

    /// The terminal event of the path, if any.
    pub fn terminal(&self) -> Option<EventId> {
        self.steps.last().copied()
    }

    /// The ranks the path visits, in path order (deduplicated runs).
    pub fn rank_chain(&self, store: &TraceStore) -> Vec<Rank> {
        let mut out: Vec<Rank> = Vec::new();
        for &id in &self.steps {
            let r = store.record(id).rank;
            if out.last() != Some(&r) {
                out.push(r);
            }
        }
        out
    }
}
