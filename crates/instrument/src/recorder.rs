//! The per-process recorder: marker counting, threshold traps, and
//! strategy-dependent trace emission.

use crate::breakpoints::{Armed, TrapCause, WatchMemory};
use crate::config::{RecorderConfig, Strategy};
use crate::user_monitor::{UserMonitor, NO_THRESHOLD};
use tracedbg_trace::{EventKind, Rank, TraceRecord};

/// What the engine must do after an instrumentation event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Disposition {
    /// Keep running.
    Continue,
    /// The marker threshold fired: pause this process and hand control to
    /// the debugger.
    Trap,
}

/// What one simulated process has recorded: its marker counter and call
/// ring, whether its trace collection is on, what its change watchpoints
/// last saw, and why it last trapped. The records it keeps go straight
/// to the run's one log, in the order they are recorded. What the
/// debugger has armed on it is an [`Armed`] that each observation reads.
#[derive(Clone)]
pub struct Recorder {
    rank: Rank,
    config: RecorderConfig,
    monitor: UserMonitor,
    /// The AIMS monitor toggle: records are kept only while it is on.
    tracing: bool,
    watched: WatchMemory,
    last_trap: Option<TrapCause>,
}

impl Recorder {
    /// A recorder for `rank`. Panics if `config.ring_capacity` is more
    /// than [`RING_MAX`](crate::RING_MAX): the ring's slots are inline.
    pub fn new(rank: Rank, config: RecorderConfig) -> Self {
        let cap = config.ring_capacity.max(1);
        Recorder {
            rank,
            config,
            monitor: UserMonitor::new(cap),
            tracing: true,
            watched: WatchMemory::default(),
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
    /// `rec.marker` is filled in from the monitor counter. Returns the
    /// marker, [`Disposition::Trap`] when the threshold, a breakpoint or a
    /// watchpoint `armed` holds fires, and the record when the strategy and
    /// the toggle keep it — the caller appends it to the run's log.
    pub fn observe(
        &mut self,
        mut rec: TraceRecord,
        armed: &Armed,
    ) -> (u64, Disposition, Option<TraceRecord>) {
        debug_assert_eq!(rec.rank, self.rank);
        if self.is_off() {
            return (0, Disposition::Continue, None);
        }
        let threshold = armed.threshold.unwrap_or(NO_THRESHOLD);
        let threshold_hit = self
            .monitor
            .invoke(rec.site, rec.args[0], rec.args[1], threshold);
        let marker = self.monitor.counter();
        rec.marker = marker;
        // Breakpoint / watchpoint tests (cheap when nothing is armed).
        let mut cause = if threshold_hit {
            Some(TrapCause::Threshold(marker))
        } else {
            None
        };
        if cause.is_none() && !armed.breaks.is_empty() {
            cause = if rec.kind == EventKind::Probe {
                let watched = &mut self.watched;
                armed
                    .breaks
                    .test_probe(rec.site, rec.label, rec.args[0], watched)
            } else {
                armed.breaks.test_site(rec.site)
            };
        }
        let keep = self.tracing
            && match self.config.strategy {
                Strategy::Full => self.config.filter.selects(rec.kind, rec.site),
                Strategy::CommOnly => {
                    rec.kind.is_comm()
                        || matches!(rec.kind, EventKind::ProcStart | EventKind::ProcEnd)
                }
                Strategy::MarkersOnly => false,
                Strategy::Off => false,
            };
        let disp = match cause {
            Some(c) => {
                self.last_trap = Some(c);
                Disposition::Trap
            }
            None => Disposition::Continue,
        };
        (marker, disp, keep.then_some(rec))
    }

    /// Why the most recent trap fired.
    pub fn last_trap(&self) -> Option<&TrapCause> {
        self.last_trap.as_ref()
    }

    /// Current execution-marker counter of this process.
    #[inline]
    pub fn marker(&self) -> u64 {
        self.monitor.counter()
    }

    /// The `UserMonitor`, for stop reports (recent call ring).
    pub fn monitor(&self) -> &UserMonitor {
        &self.monitor
    }

    /// Toggle trace collection (the AIMS monitor toggle); markers keep
    /// advancing while it is off.
    pub fn set_tracing_enabled(&mut self, on: bool) {
        self.tracing = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{MsgInfo, Tag};

    /// Observe with nothing armed, appending what is kept to `kept`.
    fn observe(r: &mut Recorder, rec: TraceRecord, kept: &mut Vec<TraceRecord>) -> u64 {
        let (marker, disposition, rec) = r.observe(rec, &Armed::default());
        assert_eq!(disposition, Disposition::Continue);
        kept.extend(rec);
        marker
    }

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
        let mut kept = Vec::new();
        let m1 = observe(&mut r, rec(EventKind::FnEnter), &mut kept);
        let m2 = observe(&mut r, rec(EventKind::Send), &mut kept);
        assert_eq!((m1, m2), (1, 2));
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].marker, 1);
        assert_eq!(kept[1].marker, 2);
    }

    #[test]
    fn comm_only_drops_function_events() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::comm_only());
        let mut kept = Vec::new();
        for kind in [
            EventKind::FnEnter,
            EventKind::Send,
            EventKind::Compute,
            EventKind::RecvDone,
        ] {
            observe(&mut r, rec(kind), &mut kept);
        }
        assert_eq!(kept.len(), 2);
        // but markers advance for all events
        assert_eq!(r.marker(), 4);
    }

    #[test]
    fn markers_only_records_nothing_but_counts() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::markers_only());
        let mut kept = Vec::new();
        for _ in 0..5 {
            observe(&mut r, rec(EventKind::FnEnter), &mut kept);
        }
        assert!(kept.is_empty());
        assert_eq!(r.marker(), 5);
        assert_eq!(r.monitor().invocations(), 5);
    }

    #[test]
    fn off_strategy_is_inert() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::off());
        let mut kept = Vec::new();
        assert_eq!(observe(&mut r, rec(EventKind::FnEnter), &mut kept), 0);
        assert!(kept.is_empty());
        assert_eq!(r.marker(), 0);
        assert!(r.is_off());
    }

    #[test]
    fn threshold_trap_fires_at_marker() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::markers_only());
        let mut armed = Armed {
            threshold: Some(3),
            ..Armed::default()
        };
        assert_eq!(
            r.observe(rec(EventKind::FnEnter), &armed).1,
            Disposition::Continue
        );
        assert_eq!(
            r.observe(rec(EventKind::FnEnter), &armed).1,
            Disposition::Continue
        );
        let (m, d, _) = r.observe(rec(EventKind::FnEnter), &armed);
        assert_eq!(m, 3);
        assert_eq!(d, Disposition::Trap);
        assert_eq!(r.last_trap(), Some(&TrapCause::Threshold(3)));
        armed.threshold = None;
        assert_eq!(
            r.observe(rec(EventKind::FnEnter), &armed).1,
            Disposition::Continue
        );
    }

    /// Nothing waits in the recorder for a flush: a kept record is handed
    /// over by the observation that records it.
    #[test]
    fn flush_on_demand() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::full());
        let (_, _, first) = r.observe(rec(EventKind::Compute), &Armed::default());
        assert_eq!(first.map(|k| k.marker), Some(1));
        let (_, _, second) = r.observe(rec(EventKind::Compute), &Armed::default());
        assert_eq!(second.map(|k| k.marker), Some(2), "markers run on");
    }

    #[test]
    fn toggling_suppresses_records() {
        let mut r = Recorder::new(Rank(0), RecorderConfig::full());
        let mut kept = Vec::new();
        r.set_tracing_enabled(false);
        observe(&mut r, rec(EventKind::Compute), &mut kept);
        r.set_tracing_enabled(true);
        observe(&mut r, rec(EventKind::Compute), &mut kept);
        assert_eq!(kept.len(), 1);
        assert_eq!(r.marker(), 2, "markers advance even while untraced");
    }
}
