//! The per-process recorder: marker counting, threshold traps, and
//! strategy-dependent trace emission.

use crate::breakpoints::{BreakSet, TrapCause, Watch};
use crate::config::{RecorderConfig, Strategy};
use crate::user_monitor::UserMonitor;
use tracedbg_trace::{EventKind, Rank, SiteId, TraceBuffer, TraceRecord};

/// What the engine must do after an instrumentation event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Disposition {
    /// Keep running.
    Continue,
    /// The marker threshold fired: pause this process and hand control to
    /// the debugger.
    Trap,
}

/// All instrumentation state of one simulated process.
#[derive(Clone)]
pub struct Recorder {
    rank: Rank,
    config: RecorderConfig,
    monitor: UserMonitor,
    buffer: TraceBuffer,
    breaks: BreakSet,
    last_trap: Option<TrapCause>,
}

impl Recorder {
    pub fn new(rank: Rank, config: RecorderConfig) -> Self {
        let cap = config.ring_capacity.max(1);
        Recorder {
            rank,
            config,
            monitor: UserMonitor::new(cap),
            buffer: TraceBuffer::new(),
            breaks: BreakSet::new(),
            last_trap: None,
        }
    }

    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    /// Is instrumentation entirely off (Table 1 baseline)?
    #[inline]
    pub fn is_off(&self) -> bool {
        self.config.strategy == Strategy::Off
    }

    /// Observe one instrumentation event.
    ///
    /// `rec.marker` is filled in from the monitor counter; the record is
    /// buffered if the strategy selects it. Returns [`Disposition::Trap`]
    /// when the debugger-armed threshold fires.
    pub fn observe(&mut self, mut rec: TraceRecord) -> (u64, Disposition) {
        debug_assert_eq!(rec.rank, self.rank);
        if self.is_off() {
            return (0, Disposition::Continue);
        }
        let threshold_hit = self.monitor.invoke(rec.site, rec.args[0], rec.args[1]);
        let marker = self.monitor.counter();
        rec.marker = marker;
        // Breakpoint / watchpoint tests (cheap when nothing is armed).
        let mut cause = if threshold_hit {
            Some(TrapCause::Threshold(marker))
        } else {
            None
        };
        if cause.is_none() && !self.breaks.is_empty() {
            cause = if rec.kind == EventKind::Probe {
                self.breaks
                    .test_probe(rec.site, rec.label.as_deref().unwrap_or(""), rec.args[0])
            } else {
                self.breaks.test_site(rec.site)
            };
        }
        let keep = match self.config.strategy {
            Strategy::Full => self.config.filter.selects(rec.kind, rec.site),
            Strategy::CommOnly => {
                rec.kind.is_comm() || matches!(rec.kind, EventKind::ProcStart | EventKind::ProcEnd)
            }
            Strategy::MarkersOnly => false,
            Strategy::Off => false,
        };
        if keep {
            self.buffer.push(rec);
        }
        let disp = match cause {
            Some(c) => {
                self.last_trap = Some(c);
                Disposition::Trap
            }
            None => Disposition::Continue,
        };
        (marker, disp)
    }

    /// Why the most recent trap fired.
    pub fn last_trap(&self) -> Option<&TrapCause> {
        self.last_trap.as_ref()
    }

    /// Arm a source-location breakpoint.
    pub fn add_breakpoint(&mut self, site: SiteId) {
        self.breaks.add_site(site);
    }

    /// Disarm a source-location breakpoint.
    pub fn remove_breakpoint(&mut self, site: SiteId) {
        self.breaks.remove_site(site);
    }

    /// Arm a watchpoint on a probe label.
    pub fn add_watch(&mut self, watch: Watch) {
        self.breaks.add_watch(watch);
    }

    /// Disarm every breakpoint and watchpoint.
    pub fn clear_breaks(&mut self) {
        self.breaks.clear();
    }

    /// The break/watch set, for inspection.
    pub fn breaks(&self) -> &BreakSet {
        &self.breaks
    }

    /// Current execution-marker counter of this process.
    #[inline]
    pub fn marker(&self) -> u64 {
        self.monitor.counter()
    }

    /// Arm/disarm the replay threshold.
    pub fn set_threshold(&mut self, t: Option<u64>) {
        match t {
            Some(v) => self.monitor.set_threshold(v),
            None => self.monitor.clear_threshold(),
        }
    }

    pub fn threshold(&self) -> Option<u64> {
        self.monitor.threshold()
    }

    /// The `UserMonitor`, for stop reports (recent call ring).
    pub fn monitor(&self) -> &UserMonitor {
        &self.monitor
    }

    /// Toggle trace collection (the AIMS monitor toggle).
    pub fn set_tracing_enabled(&mut self, on: bool) {
        self.buffer.set_enabled(on);
    }

    /// Drain all buffered records (on-demand flush, end of run).
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        self.buffer.take()
    }

    /// Peek at buffered records.
    pub fn records(&self) -> &[TraceRecord] {
        self.buffer.records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{MsgInfo, Tag};

    fn rec(kind: EventKind) -> TraceRecord {
        let mut r = TraceRecord::basic(0u32, kind, 0, 10);
        if kind.is_comm() {
            r = r.with_msg(MsgInfo {
                src: Rank(0),
                dst: Rank(1),
                tag: Tag(0),
                bytes: 8,
                seq: 0,
            });
        }
        r
    }

    #[test]
    fn full_strategy_records_everything_and_assigns_markers() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::full());
        let (m1, d1) = r.observe(rec(EventKind::FnEnter));
        let (m2, _) = r.observe(rec(EventKind::Send));
        assert_eq!((m1, m2), (1, 2));
        assert_eq!(d1, Disposition::Continue);
        assert_eq!(r.records().len(), 2);
        assert_eq!(r.records()[0].marker, 1);
        assert_eq!(r.records()[1].marker, 2);
    }

    #[test]
    fn comm_only_drops_function_events() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::comm_only());
        r.observe(rec(EventKind::FnEnter));
        r.observe(rec(EventKind::Send));
        r.observe(rec(EventKind::Compute));
        r.observe(rec(EventKind::RecvDone));
        assert_eq!(r.records().len(), 2);
        // but markers advance for all events
        assert_eq!(r.marker(), 4);
    }

    #[test]
    fn markers_only_records_nothing_but_counts() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::markers_only());
        for _ in 0..5 {
            r.observe(rec(EventKind::FnEnter));
        }
        assert_eq!(r.records().len(), 0);
        assert_eq!(r.marker(), 5);
        assert_eq!(r.monitor().invocations(), 5);
    }

    #[test]
    fn off_strategy_is_inert() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::off());
        let (m, d) = r.observe(rec(EventKind::FnEnter));
        assert_eq!(m, 0);
        assert_eq!(d, Disposition::Continue);
        assert_eq!(r.marker(), 0);
        assert!(r.is_off());
    }

    #[test]
    fn threshold_trap_fires_at_marker() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::markers_only());
        r.set_threshold(Some(3));
        assert_eq!(r.observe(rec(EventKind::FnEnter)).1, Disposition::Continue);
        assert_eq!(r.observe(rec(EventKind::FnEnter)).1, Disposition::Continue);
        let (m, d) = r.observe(rec(EventKind::FnEnter));
        assert_eq!(m, 3);
        assert_eq!(d, Disposition::Trap);
        r.set_threshold(None);
        assert_eq!(r.observe(rec(EventKind::FnEnter)).1, Disposition::Continue);
        assert_eq!(r.threshold(), None);
    }

    #[test]
    fn flush_on_demand() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::full());
        r.observe(rec(EventKind::Compute));
        assert_eq!(r.take_records().len(), 1);
        assert_eq!(r.records().len(), 0);
        r.observe(rec(EventKind::Compute));
        assert_eq!(r.take_records()[0].marker, 2, "markers run on");
    }

    #[test]
    fn toggling_suppresses_records() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::full());
        r.set_tracing_enabled(false);
        r.observe(rec(EventKind::Compute));
        r.set_tracing_enabled(true);
        r.observe(rec(EventKind::Compute));
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.marker(), 2, "markers advance even while untraced");
    }
}
