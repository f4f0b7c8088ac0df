//! The `UserMonitor` function (§2.2).
//!
//! "In its current implementation, the function increments a single global
//! counter, records the address it was called from together with the first
//! two arguments passed to it, and tests to see if the global counter has
//! reached a threshold value which can be set by the debugger."
//!
//! In the simulated runtime each process has its own monitor (our "global"
//! counter is global *to the process*, which is what the original per-
//! address-space counter was). The call-site "address" is an interned
//! [`SiteId`].

use tracedbg_trace::SiteId;

/// Threshold value meaning "no trap armed".
pub const NO_THRESHOLD: u64 = u64::MAX;

/// One remembered monitor invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingEntry {
    /// Which instrumentation point called the monitor.
    pub site: SiteId,
    /// First two integer arguments of the instrumented call.
    pub args: [i64; 2],
    /// The marker counter value at the invocation.
    pub marker: u64,
}

/// The most entries a [`CallRing`] holds.
pub const RING_MAX: usize = 16;

/// Fixed-size ring of the most recent monitor invocations, consulted by the
/// debugger when a process stops ("where was I, and with what arguments?").
/// The slots are inline: copying a ring, as copying a rank out of a
/// checkpoint does, allocates nothing.
#[derive(Clone, Debug)]
pub struct CallRing {
    /// Slots `..pos` hold pushed entries, and so do the rest of the first
    /// `capacity` once `wrapped`; until then the rest is filler that is
    /// never read.
    entries: [RingEntry; RING_MAX],
    capacity: usize,
    pos: usize,
    wrapped: bool,
}

impl CallRing {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(
            capacity <= RING_MAX,
            "ring capacity {capacity} is more than {RING_MAX}"
        );
        let filler = RingEntry {
            site: SiteId(0),
            args: [0; 2],
            marker: 0,
        };
        CallRing {
            entries: [filler; RING_MAX],
            capacity,
            pos: 0,
            wrapped: false,
        }
    }

    #[inline]
    pub fn push(&mut self, e: RingEntry) {
        self.entries[self.pos] = e;
        self.pos += 1;
        if self.pos == self.capacity {
            self.pos = 0;
            self.wrapped = true;
        }
    }

    /// Most recent entries, newest first.
    pub fn recent(&self) -> Vec<RingEntry> {
        let (newer, older) = self.entries[..self.capacity].split_at(self.pos);
        let older = if self.wrapped { older } else { &[] };
        newer
            .iter()
            .rev()
            .chain(older.iter().rev())
            .copied()
            .collect()
    }

    /// The single most recent entry.
    pub fn last(&self) -> Option<RingEntry> {
        match self.pos.checked_sub(1) {
            Some(ix) => Some(self.entries[ix]),
            None if self.wrapped => Some(self.entries[self.capacity - 1]),
            None => None,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Per-process `UserMonitor` state: the execution-marker counter and the
/// recent-call ring. The threshold the counter is tested against is the
/// debugger's, kept in the process's [`Armed`](crate::Armed) state and
/// passed to each call.
#[derive(Clone, Debug)]
pub struct UserMonitor {
    counter: u64,
    ring: CallRing,
}

impl UserMonitor {
    pub fn new(ring_capacity: usize) -> Self {
        UserMonitor {
            counter: 0,
            ring: CallRing::new(ring_capacity),
        }
    }

    /// The monitor call itself. Returns `true` when the counter has reached
    /// `threshold` (a debugger trap; [`NO_THRESHOLD`] when none is armed).
    /// The test is `>=`: a process keeps trapping until the debugger
    /// disarms it. This is the replay/stopline mechanism: "the debugger
    /// ... stores the execution markers in the UserMonitor threshold
    /// variables" (§4.1).
    #[inline]
    pub fn invoke(&mut self, site: SiteId, a0: i64, a1: i64, threshold: u64) -> bool {
        self.counter += 1;
        self.ring.push(RingEntry {
            site,
            args: [a0, a1],
            marker: self.counter,
        });
        self.counter >= threshold
    }

    /// Current marker counter (number of instrumentation events executed).
    #[inline]
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Total monitor invocations (Table 1's "Number of calls" row): every
    /// invocation bumps the marker counter once.
    pub fn invocations(&self) -> u64 {
        self.counter
    }

    /// Recent-call ring, for the debugger's stop reports.
    pub fn ring(&self) -> &CallRing {
        &self.ring
    }
}

impl Default for UserMonitor {
    fn default() -> Self {
        UserMonitor::new(RING_MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_increments() {
        let mut m = UserMonitor::default();
        assert!(!m.invoke(SiteId(0), 1, 2, NO_THRESHOLD));
        assert!(!m.invoke(SiteId(1), 3, 4, NO_THRESHOLD));
        assert_eq!(m.counter(), 2);
        assert_eq!(m.invocations(), 2);
    }

    #[test]
    fn threshold_traps_exactly_once_armed() {
        let mut m = UserMonitor::default();
        assert!(!m.invoke(SiteId(0), 0, 0, 3));
        assert!(!m.invoke(SiteId(0), 0, 0, 3));
        assert!(m.invoke(SiteId(0), 0, 0, 3), "3rd event must trap");
        // Threshold is >= so subsequent events keep trapping until cleared —
        // the debugger clears it on stop.
        assert!(m.invoke(SiteId(0), 0, 0, 3));
        assert!(!m.invoke(SiteId(0), 0, 0, NO_THRESHOLD));
    }

    #[test]
    fn ring_keeps_newest_first() {
        let mut m = UserMonitor::new(3);
        for i in 0..5 {
            m.invoke(SiteId(i), i as i64, 0, NO_THRESHOLD);
        }
        let recent = m.ring().recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].site, SiteId(4));
        assert_eq!(recent[1].site, SiteId(3));
        assert_eq!(recent[2].site, SiteId(2));
        assert_eq!(recent[0].marker, 5);
        assert_eq!(m.ring().last().unwrap().site, SiteId(4));
    }

    #[test]
    fn ring_partial_fill() {
        let mut m = UserMonitor::new(8);
        m.invoke(SiteId(9), 7, 8, NO_THRESHOLD);
        let recent = m.ring().recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].args, [7, 8]);
    }

    #[test]
    fn ring_exactly_full_reads_back_from_the_last_slot() {
        let mut m = UserMonitor::new(3);
        assert_eq!(m.ring().last(), None);
        for i in 0..3 {
            m.invoke(SiteId(i), 0, 0, NO_THRESHOLD);
        }
        let sites: Vec<u32> = m.ring().recent().iter().map(|e| e.site.0).collect();
        assert_eq!(sites, [2, 1, 0]);
        assert_eq!(m.ring().last().unwrap().marker, 3);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_ring_panics() {
        CallRing::new(0);
    }

    #[test]
    #[should_panic(expected = "ring capacity 17 is more than 16")]
    fn a_ring_past_its_inline_slots_is_refused() {
        CallRing::new(RING_MAX + 1);
    }

    #[test]
    fn a_full_size_ring_wraps_within_its_slots() {
        let mut m = UserMonitor::new(RING_MAX);
        for i in 0..RING_MAX as u32 + 3 {
            m.invoke(SiteId(i), 0, 0, NO_THRESHOLD);
        }
        let sites: Vec<u32> = m.ring().recent().iter().map(|e| e.site.0).collect();
        let want: Vec<u32> = (3..RING_MAX as u32 + 3).rev().collect();
        assert_eq!(sites, want);
        assert_eq!(m.ring().capacity(), RING_MAX);
    }
}
