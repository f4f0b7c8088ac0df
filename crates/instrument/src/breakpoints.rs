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

use std::collections::HashSet;
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
    last: Option<i64>,
}

impl Watch {
    pub fn new(label: impl Into<String>, cond: WatchCond) -> Self {
        Watch {
            label: label.into(),
            cond,
            last: None,
        }
    }

    /// Test a probed value, updating change-tracking state.
    fn fires(&mut self, value: i64) -> bool {
        let fired = match self.cond {
            WatchCond::Change => self.last.is_some() && self.last != Some(value),
            WatchCond::Equals(x) => value == x,
            WatchCond::NotEquals(x) => value != x,
        };
        self.last = Some(value);
        fired
    }
}

/// Breakpoint + watchpoint state of one process.
#[derive(Clone, Debug, Default)]
pub struct BreakSet {
    sites: HashSet<SiteId>,
    watches: Vec<Watch>,
}

impl BreakSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_site(&mut self, site: SiteId) {
        self.sites.insert(site);
    }

    pub fn remove_site(&mut self, site: SiteId) {
        self.sites.remove(&site);
    }

    pub fn add_watch(&mut self, watch: Watch) {
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
        if self.sites.contains(&site) {
            Some(TrapCause::Breakpoint(site))
        } else {
            None
        }
    }

    /// Test a probe event (label + value); also applies the site test.
    pub fn test_probe(&mut self, site: SiteId, label: &str, value: i64) -> Option<TrapCause> {
        for w in &mut self.watches {
            if w.label == label && w.fires(value) {
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

    #[test]
    fn site_breakpoint_fires() {
        let mut b = BreakSet::new();
        b.add_site(SiteId(5));
        assert_eq!(
            b.test_site(SiteId(5)),
            Some(TrapCause::Breakpoint(SiteId(5)))
        );
        assert_eq!(b.test_site(SiteId(6)), None);
        b.remove_site(SiteId(5));
        assert_eq!(b.test_site(SiteId(5)), None);
    }

    #[test]
    fn watch_change_needs_two_samples() {
        let mut b = BreakSet::new();
        b.add_watch(Watch::new("x", WatchCond::Change));
        assert!(
            b.test_probe(SiteId(0), "x", 1).is_none(),
            "first sample arms"
        );
        assert!(b.test_probe(SiteId(0), "x", 1).is_none(), "no change");
        let t = b.test_probe(SiteId(0), "x", 2);
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
        let mut b = BreakSet::new();
        b.add_watch(Watch::new("dest", WatchCond::Equals(0)));
        assert!(b.test_probe(SiteId(0), "dest", 3).is_none());
        assert!(b.test_probe(SiteId(0), "dest", 0).is_some());
        let mut b2 = BreakSet::new();
        b2.add_watch(Watch::new("inv", WatchCond::NotEquals(7)));
        assert!(b2.test_probe(SiteId(0), "inv", 7).is_none());
        assert!(b2.test_probe(SiteId(0), "inv", 8).is_some());
    }

    #[test]
    fn unrelated_labels_ignored() {
        let mut b = BreakSet::new();
        b.add_watch(Watch::new("x", WatchCond::Equals(1)));
        assert!(b.test_probe(SiteId(0), "y", 1).is_none());
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
    fn probe_falls_back_to_site_test() {
        let mut b = BreakSet::new();
        b.add_site(SiteId(9));
        assert_eq!(
            b.test_probe(SiteId(9), "whatever", 0),
            Some(TrapCause::Breakpoint(SiteId(9)))
        );
    }
}
