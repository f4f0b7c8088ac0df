//! Source-location breakpoints and value watchpoints.
//!
//! The marker threshold of §2.2 stops a process at a *count*; a classical
//! state-based debugger also stops at a *place* (breakpoint) or on a
//! *value condition* (watchpoint — the software-instruction-counter paper
//! the authors build on used its counter "for replaying parallel programs
//! and for organizing watchpoints"). Both are implemented here as extra
//! tests inside the per-process recorder: a breakpoint fires when an event
//! is generated at a registered [`SiteId`]; a watchpoint fires when a
//! probe with a registered label satisfies its condition.
//!
//! What the debugger arms on a process — these and the marker threshold —
//! is an [`Armed`], which the engine keeps beside the process's recorder
//! and lends to each observation.

use tracedbg_trace::SiteId;

/// Why a recorder reported a trap.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TrapCause {
    /// The marker counter reached the replay/stopline threshold.
    Threshold(u64),
    /// An event executed at a breakpointed source location.
    Breakpoint(SiteId),
    /// A watched probe satisfied its condition.
    Watch { label: String, value: i64 },
}

/// A watchpoint condition on a probe label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WatchCond {
    /// Fire whenever the probed value differs from the previous one.
    Change,
    /// Fire when the probed value equals this.
    Equals(i64),
    /// Fire when the probed value does not equal this (assertion
    /// watchpoint: trap on violation).
    NotEquals(i64),
}

/// One armed watchpoint.
#[derive(Clone, Debug)]
pub struct Watch {
    pub label: String,
    pub cond: WatchCond,
    /// Set by [`BreakSet::add_watch`]: the key of the value this watch
    /// last saw in a process's [`WatchMemory`].
    id: u64,
}

impl Watch {
    pub fn new(label: impl Into<String>, cond: WatchCond) -> Self {
        Watch {
            label: label.into(),
            cond,
            id: 0,
        }
    }

    /// Test a probed value; a change watch compares it with the value it
    /// last saw, which `memory` keeps.
    fn fires(&self, value: i64, memory: &mut WatchMemory) -> bool {
        match self.cond {
            WatchCond::Change => memory
                .swap(self.id, value)
                .is_some_and(|last| last != value),
            WatchCond::Equals(x) => value == x,
            WatchCond::NotEquals(x) => value != x,
        }
    }
}

/// The value each change watchpoint last saw on one process. That is
/// execution state, not something the debugger armed, so it lives in the
/// process's [`Recorder`](crate::Recorder) and running a process only
/// reads its [`Armed`]. Keyed by watch id, which a [`BreakSet`] never
/// reuses, so a watch armed again starts afresh.
#[derive(Clone, Debug, Default)]
pub(crate) struct WatchMemory(Vec<(u64, i64)>);

impl WatchMemory {
    /// Remember `value` for watch `id`, returning the one it replaces.
    fn swap(&mut self, id: u64, value: i64) -> Option<i64> {
        match self.0.iter_mut().find(|(watch, _)| *watch == id) {
            Some((_, last)) => Some(std::mem::replace(last, value)),
            None => {
                self.0.push((id, value));
                None
            }
        }
    }
}

/// Everything the debugger has armed on one process: the `UserMonitor`
/// threshold and the break/watch set. Kept apart from the
/// [`Recorder`](crate::Recorder), which holds what the process *did*, so
/// arming and disarming never write to recorded state a checkpoint shares.
#[derive(Clone, Debug, Default)]
pub struct Armed {
    /// Trap at the first event whose marker reaches this value.
    pub threshold: Option<u64>,
    pub breaks: BreakSet,
}

/// Breakpoint + watchpoint state of one process. Both lists are short and
/// usually empty, and an empty set copies for free: every process of a
/// checkpoint carries one.
#[derive(Clone, Debug, Default)]
pub struct BreakSet {
    /// Ascending, without duplicates.
    sites: Vec<SiteId>,
    watches: Vec<Watch>,
    /// The id the next watch gets.
    next_id: u64,
}

impl BreakSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_site(&mut self, site: SiteId) {
        if let Err(at) = self.sites.binary_search(&site) {
            self.sites.insert(at, site);
        }
    }

    pub fn add_watch(&mut self, mut watch: Watch) {
        watch.id = self.next_id;
        self.next_id += 1;
        self.watches.push(watch);
    }

    pub fn clear(&mut self) {
        self.sites.clear();
        self.watches.clear();
    }

    pub fn is_empty(&self) -> bool {
        self.sites.is_empty() && self.watches.is_empty()
    }

    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Test a non-probe event at `site`.
    #[inline]
    pub fn test_site(&self, site: SiteId) -> Option<TrapCause> {
        if self.sites.binary_search(&site).is_ok() {
            Some(TrapCause::Breakpoint(site))
        } else {
            None
        }
    }

    /// Test a probe event (label + value) against the watches, with what
    /// they last saw on this process in `memory`; also applies the site
    /// test.
    pub(crate) fn test_probe(
        &self,
        site: SiteId,
        label: &str,
        value: i64,
        memory: &mut WatchMemory,
    ) -> Option<TrapCause> {
        for w in &self.watches {
            if w.label == label && w.fires(value, memory) {
                return Some(TrapCause::Watch {
                    label: label.to_string(),
                    value,
                });
            }
        }
        self.test_site(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test a probe event at site 0 on a process whose watches remember
    /// what they saw in `m`.
    fn probe(b: &BreakSet, m: &mut WatchMemory, label: &str, value: i64) -> Option<TrapCause> {
        b.test_probe(SiteId(0), label, value, m)
    }

    #[test]
    fn site_breakpoint_fires() {
        let mut b = BreakSet::new();
        b.add_site(SiteId(5));
        assert_eq!(
            b.test_site(SiteId(5)),
            Some(TrapCause::Breakpoint(SiteId(5)))
        );
        assert_eq!(b.test_site(SiteId(6)), None);
    }

    #[test]
    fn watch_change_needs_two_samples() {
        let (mut b, m) = (BreakSet::new(), &mut WatchMemory::default());
        b.add_watch(Watch::new("x", WatchCond::Change));
        assert!(probe(&b, m, "x", 1).is_none(), "first sample arms");
        assert!(probe(&b, m, "x", 1).is_none(), "no change");
        let t = probe(&b, m, "x", 2);
        assert_eq!(
            t,
            Some(TrapCause::Watch {
                label: "x".into(),
                value: 2
            })
        );
    }

    #[test]
    fn watch_equals_and_not_equals() {
        let (mut b, m) = (BreakSet::new(), &mut WatchMemory::default());
        b.add_watch(Watch::new("dest", WatchCond::Equals(0)));
        assert!(probe(&b, m, "dest", 3).is_none());
        assert!(probe(&b, m, "dest", 0).is_some());
        let mut b2 = BreakSet::new();
        b2.add_watch(Watch::new("inv", WatchCond::NotEquals(7)));
        assert!(probe(&b2, m, "inv", 7).is_none());
        assert!(probe(&b2, m, "inv", 8).is_some());
    }

    #[test]
    fn unrelated_labels_ignored() {
        let mut b = BreakSet::new();
        b.add_watch(Watch::new("x", WatchCond::Equals(1)));
        assert!(probe(&b, &mut WatchMemory::default(), "y", 1).is_none());
    }

    #[test]
    fn clear_empties() {
        let mut b = BreakSet::new();
        b.add_site(SiteId(1));
        b.add_watch(Watch::new("x", WatchCond::Change));
        assert!(!b.is_empty());
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn a_change_watch_armed_again_starts_afresh() {
        let (mut b, m) = (BreakSet::new(), &mut WatchMemory::default());
        b.add_watch(Watch::new("x", WatchCond::Change));
        assert!(probe(&b, m, "x", 1).is_none());
        b.clear();
        b.add_watch(Watch::new("x", WatchCond::Change));
        assert!(probe(&b, m, "x", 2).is_none(), "first sample arms");
        // A second watch leaves what the first saw alone.
        b.add_watch(Watch::new("x", WatchCond::Equals(9)));
        assert!(probe(&b, m, "x", 3).is_some());
    }

    #[test]
    fn probe_falls_back_to_site_test() {
        let mut b = BreakSet::new();
        b.add_site(SiteId(9));
        assert_eq!(
            b.test_probe(SiteId(9), "whatever", 0, &mut WatchMemory::default()),
            Some(TrapCause::Breakpoint(SiteId(9)))
        );
    }
}
