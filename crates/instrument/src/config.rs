//! Instrumentation strategy selection (§2's spectrum of approaches).

use std::collections::HashSet;
use tracedbg_trace::{EventKind, SiteId, SiteTable};

/// Which of the paper's instrumentation strategies is active for a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// §2.1 — AIMS-like construct-level tracing: full records for every
    /// construct selected by the [`ConstructFilter`].
    #[default]
    Full,
    /// §2.3 — PMPI-style wrappers: only communication constructs produce
    /// trace records ("by reducing the granularity of the history
    /// generation we can provide a highly portable trace collection
    /// mechanism").
    CommOnly,
    /// §2.2 — `UserMonitor` only: the marker counter, threshold test and
    /// call ring run, but no trace record is kept. This is
    /// the cheapest mode that still supports replay/undo.
    MarkersOnly,
    /// No instrumentation at all (the Table 1 baseline). Marker counters do
    /// not advance; replay features are unavailable.
    Off,
}

/// Selective construct filtering for [`Strategy::Full`] — "the size of the
/// trace file can be controlled by selectively instrumenting constructs"
/// (§3).
#[derive(Clone, Debug, Default)]
pub struct ConstructFilter {
    /// Suppress function enter/exit records.
    pub skip_functions: bool,
    /// Suppress compute-block records.
    pub skip_compute: bool,
    /// Suppress probe records.
    pub skip_probes: bool,
    /// If non-empty, only these sites produce records (communication and
    /// process start/end records are always kept so the history stays
    /// navigable).
    pub site_allowlist: HashSet<SiteId>,
    /// These sites never produce records.
    pub site_denylist: HashSet<SiteId>,
}

impl ConstructFilter {
    /// Allow everything (the default).
    pub fn all() -> Self {
        Self::default()
    }

    /// Build an allowlist of every site of the named functions.
    pub fn allow_functions(table: &SiteTable, funcs: &[&str]) -> Self {
        let mut allow = HashSet::new();
        for (i, loc) in table.snapshot().iter().enumerate() {
            if funcs.contains(&loc.func.as_str()) {
                allow.insert(SiteId(i as u32));
            }
        }
        ConstructFilter {
            site_allowlist: allow,
            ..Default::default()
        }
    }

    /// Does the filter select this (kind, site) pair?
    pub fn selects(&self, kind: EventKind, site: SiteId) -> bool {
        match kind {
            EventKind::FnEnter | EventKind::FnExit if self.skip_functions => return false,
            EventKind::Compute if self.skip_compute => return false,
            EventKind::Probe if self.skip_probes => return false,
            _ => {}
        }
        if self.site_denylist.contains(&site) {
            return false;
        }
        // Comm + lifecycle records ignore the allowlist: without them the
        // trace graph loses its message arcs.
        let structural =
            kind.is_comm() || matches!(kind, EventKind::ProcStart | EventKind::ProcEnd);
        if !structural && !self.site_allowlist.is_empty() {
            return self.site_allowlist.contains(&site);
        }
        true
    }
}

/// Full recorder configuration for one run.
#[derive(Clone, Debug, Default)]
pub struct RecorderConfig {
    pub strategy: Strategy,
    pub filter: ConstructFilter,
    /// Capacity of the `UserMonitor` recent-call ring, at most
    /// [`RING_MAX`](crate::RING_MAX) (0 is taken as 1).
    pub ring_capacity: usize,
}

impl RecorderConfig {
    pub fn full() -> Self {
        RecorderConfig {
            strategy: Strategy::Full,
            filter: ConstructFilter::all(),
            ring_capacity: crate::RING_MAX,
        }
    }

    pub fn comm_only() -> Self {
        RecorderConfig {
            strategy: Strategy::CommOnly,
            ..Self::full()
        }
    }

    pub fn markers_only() -> Self {
        RecorderConfig {
            strategy: Strategy::MarkersOnly,
            ..Self::full()
        }
    }

    pub fn off() -> Self {
        RecorderConfig {
            strategy: Strategy::Off,
            ..Self::full()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::SourceLoc;

    #[test]
    fn default_filter_selects_everything() {
        let f = ConstructFilter::all();
        for k in EventKind::all() {
            assert!(f.selects(k, SiteId(3)), "{k:?}");
        }
    }

    #[test]
    fn kind_skips() {
        let f = ConstructFilter {
            skip_functions: true,
            skip_compute: true,
            ..Default::default()
        };
        assert!(!f.selects(EventKind::FnEnter, SiteId(0)));
        assert!(!f.selects(EventKind::FnExit, SiteId(0)));
        assert!(!f.selects(EventKind::Compute, SiteId(0)));
        assert!(f.selects(EventKind::Probe, SiteId(0)));
        assert!(f.selects(EventKind::Send, SiteId(0)));
    }

    #[test]
    fn allowlist_keeps_comm_always() {
        let t = SiteTable::new();
        let keep = t.intern(SourceLoc::new("a.c", 1, "MatrSend"));
        let drop_ = t.intern(SourceLoc::new("a.c", 2, "other"));
        let f = ConstructFilter::allow_functions(&t, &["MatrSend"]);
        assert!(f.selects(EventKind::FnEnter, keep));
        assert!(!f.selects(EventKind::FnEnter, drop_));
        // comm at a non-allowlisted site still recorded
        assert!(f.selects(EventKind::Send, drop_));
        assert!(f.selects(EventKind::ProcEnd, drop_));
    }

    #[test]
    fn denylist_beats_allowlist() {
        let mut f = ConstructFilter::all();
        f.site_denylist.insert(SiteId(5));
        assert!(!f.selects(EventKind::FnEnter, SiteId(5)));
        assert!(!f.selects(EventKind::Send, SiteId(5)));
    }
}
