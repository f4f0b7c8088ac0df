//! Bounded span ring-buffer — the "flight recorder".
//!
//! Keeps the last N engine-level spans (turn grants, matches, blocks,
//! faults, panics) as purely *numeric* records keyed by decision
//! index and simulated time, never wall clock. The engine records none:
//! the explorer rebuilds a failing run's spans from its decision log and
//! trace and feeds them through here, so the dump of a failing run is
//! byte-identical no matter which worker or job count produced it.
//! Rendering to text happens only at [`FlightRecorder::dump`].

use std::collections::VecDeque;

/// What a recorded span describes, in the order one decision's lines go
/// (its turn or match, then what followed). Arguments: [`Span::render`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A rank was granted a turn: `a` = rank.
    Turn,
    /// A message matched: `a` = dst rank, `b` = src rank, `c` = seq.
    Match,
    /// A rank blocked in recv: `a` = rank, `b` = expected src (u64::MAX
    /// for wildcard).
    Block,
    /// An injected fault fired: `a` = rank, `b` = op index, `c` = extra
    /// delay.
    Fault,
    /// A process panicked: `a` = rank.
    Panic,
}

/// One flight-recorder entry, all-numeric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Decision-log length when the span happened (the logical clock the
    /// replayer understands).
    pub decision: u64,
    /// Simulated time (ns).
    pub sim_time: u64,
    pub kind: SpanKind,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

impl Span {
    /// Render one span as a stable text line.
    pub fn render(&self) -> String {
        let code = match self.kind {
            SpanKind::Turn => "turn",
            SpanKind::Match => "match",
            SpanKind::Block => "block",
            SpanKind::Fault => "fault",
            SpanKind::Panic => "panic",
        };
        let head = format!("d{:<6} t{:<8} {code:<5}", self.decision, self.sim_time);
        match self.kind {
            SpanKind::Turn | SpanKind::Panic => format!("{head} rank={}", self.a),
            SpanKind::Match => format!("{head} dst={} src={} seq={}", self.a, self.b, self.c),
            SpanKind::Block if self.b == u64::MAX => format!("{head} rank={} from=*", self.a),
            SpanKind::Block => format!("{head} rank={} from={}", self.a, self.b),
            SpanKind::Fault => format!("{head} rank={} op={} delay={}", self.a, self.b, self.c),
        }
    }
}

/// Default number of spans retained.
pub const FLIGHT_CAP: usize = 64;

/// Bounded ring of the most recent [`Span`]s.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: VecDeque<Span>,
    cap: usize,
    /// Total spans ever recorded (≥ `ring.len()`).
    total: u64,
}

impl FlightRecorder {
    pub fn new() -> Self {
        Self::with_capacity(FLIGHT_CAP)
    }

    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        let ring = VecDeque::with_capacity(cap);
        FlightRecorder {
            ring,
            cap,
            total: 0,
        }
    }

    pub fn record(&mut self, span: Span) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(span);
        self.total += 1;
    }

    /// Spans currently retained, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.ring.iter().copied().collect()
    }

    /// Total spans ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact number of spans evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.total - self.ring.len() as u64
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Render the retained spans as text lines, oldest first. The first
    /// line notes how many spans were dropped, if any.
    pub fn dump(&self) -> Vec<String> {
        let dropped = self.dropped();
        let note = (dropped > 0).then(|| format!("... {dropped} earlier spans dropped"));
        note.into_iter()
            .chain(self.ring.iter().map(Span::render))
            .collect()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(decision: u64, kind: SpanKind, a: u64) -> Span {
        Span {
            decision,
            sim_time: decision * 10,
            kind,
            a,
            b: 0,
            c: 0,
        }
    }

    #[test]
    fn ring_keeps_the_newest_cap_spans() {
        let mut fr = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            fr.record(span(i, SpanKind::Turn, i));
        }
        let spans = fr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans.iter().map(|s| s.decision).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest first"
        );
        assert_eq!(fr.total(), 10);
    }

    #[test]
    fn dump_notes_dropped_spans() {
        let mut fr = FlightRecorder::with_capacity(2);
        for i in 0..5 {
            fr.record(span(i, SpanKind::Turn, 0));
        }
        let dump = fr.dump();
        assert_eq!(dump.len(), 3);
        assert!(dump[0].contains("3 earlier spans dropped"), "{:?}", dump[0]);
    }

    #[test]
    fn render_is_stable_per_kind() {
        let m = Span {
            decision: 7,
            sim_time: 120,
            kind: SpanKind::Match,
            a: 1,
            b: 0,
            c: 3,
        };
        assert_eq!(m.render(), "d7      t120      match dst=1 src=0 seq=3");
        let b = Span {
            decision: 2,
            sim_time: 30,
            kind: SpanKind::Block,
            a: 4,
            b: u64::MAX,
            c: 0,
        };
        assert!(b.render().ends_with("rank=4 from=*"), "{}", b.render());
    }

    #[test]
    fn dropped_counter_is_exact_across_the_capacity_edge() {
        let mut fr = FlightRecorder::with_capacity(3);
        assert_eq!(fr.dropped(), 0);
        for i in 0..3 {
            fr.record(span(i, SpanKind::Turn, i));
            assert_eq!(fr.dropped(), 0, "no drop until the ring overflows");
        }
        // The capacity edge: the very next record evicts exactly one.
        fr.record(span(3, SpanKind::Turn, 3));
        assert_eq!(fr.dropped(), 1);
        for i in 4..103 {
            fr.record(span(i, SpanKind::Turn, i));
        }
        assert_eq!(fr.dropped(), 100);
        assert_eq!(fr.total(), 103);
        assert_eq!(fr.len(), 3);
        // The text note and the numeric counter agree.
        assert!(fr.dump()[0].contains("100 earlier spans dropped"));
    }

    #[test]
    fn under_capacity_dump_has_no_drop_line() {
        let mut fr = FlightRecorder::new();
        fr.record(span(0, SpanKind::Panic, 2));
        let dump = fr.dump();
        assert_eq!(dump.len(), 1);
        assert!(dump[0].contains("panic"));
    }
}
