//! The "flight recorder": the last engine-level spans of a run (turn
//! grants, matches, blocks, faults, panics) as text.
//!
//! A span is a purely *numeric* record keyed by decision index and
//! simulated time, never wall clock. The engine records none: the
//! explorer rebuilds a failing run's spans from its decision log and
//! trace and hands them to [`dump`], so the dump of a failing run is
//! byte-identical no matter which worker or job count produced it.

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

/// How many spans a [`dump`] keeps.
pub const FLIGHT_CAP: usize = 64;

/// The last [`FLIGHT_CAP`] of `spans` rendered as text lines, oldest
/// first; the first line notes how many earlier spans were dropped, if
/// any.
pub fn dump(spans: &[Span]) -> Vec<String> {
    let kept = &spans[spans.len().saturating_sub(FLIGHT_CAP)..];
    let dropped = spans.len() - kept.len();
    let note = (dropped > 0).then(|| format!("... {dropped} earlier spans dropped"));
    note.into_iter()
        .chain(kept.iter().map(Span::render))
        .collect()
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

    /// `n` turn spans, decisions `0..n`.
    fn turns(n: u64) -> Vec<Span> {
        (0..n).map(|i| span(i, SpanKind::Turn, i)).collect()
    }

    #[test]
    fn ring_keeps_the_newest_cap_spans() {
        let dump = dump(&turns(FLIGHT_CAP as u64 + 6));
        assert_eq!(dump.len(), 1 + FLIGHT_CAP);
        let kept: Vec<String> = (6..FLIGHT_CAP as u64 + 6)
            .map(|i| span(i, SpanKind::Turn, i).render())
            .collect();
        assert_eq!(dump[1..], kept, "the newest, oldest first");
    }

    #[test]
    fn dump_notes_dropped_spans() {
        let dump = dump(&turns(FLIGHT_CAP as u64 + 3));
        assert_eq!(dump.len(), 1 + FLIGHT_CAP);
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
        let cap = FLIGHT_CAP as u64;
        for n in 0..=cap {
            let dump = dump(&turns(n));
            assert_eq!(dump.len() as u64, n, "no drop line up to the cap");
        }
        // The capacity edge: one span more drops exactly one.
        assert!(dump(&turns(cap + 1))[0].starts_with("... 1 earlier spans dropped"));
        let dump = dump(&turns(cap + 100));
        assert_eq!(dump.len(), 1 + FLIGHT_CAP);
        assert!(dump[0].contains("100 earlier spans dropped"));
        assert!(dump[1].starts_with("d100 "), "{}", dump[1]);
    }

    #[test]
    fn under_capacity_dump_has_no_drop_line() {
        let dump = dump(&[span(0, SpanKind::Panic, 2)]);
        assert_eq!(dump.len(), 1);
        assert!(dump[0].contains("panic"));
    }
}
