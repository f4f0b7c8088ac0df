//! Per-process trace buffers with on-demand flush.
//!
//! AIMS was built for post-mortem analysis; the paper's first integration
//! problem (§2.1) was that the debugger needs the trace *during* execution,
//! solved "by adding a monitor function that flushes trace information on
//! demand". [`TraceBuffer`] is that monitor-side buffer: each simulated
//! process appends records locally (no cross-process synchronization on the
//! hot path) and whoever owns the run's collection — the engine — drains it
//! with [`TraceBuffer::take`], on demand or at the end of the run. The
//! records sit in a [`ChunkLog`], so a full chunk is handed over (and
//! shared with any checkpoint of the run) without being copied.
//!
//! "The size of trace file can be controlled by ... toggling the collection
//! on and off in the monitor" — see [`TraceBuffer::set_enabled`].

use crate::chunk_log::ChunkLog;
use crate::event::TraceRecord;

/// A per-process append-only record buffer.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer {
    records: ChunkLog<TraceRecord>,
    enabled: bool,
    /// Records dropped while collection was toggled off.
    suppressed: u64,
}

impl TraceBuffer {
    pub fn new() -> Self {
        TraceBuffer {
            records: ChunkLog::new(),
            enabled: true,
            suppressed: 0,
        }
    }

    /// Toggle collection. While disabled, [`TraceBuffer::push`] counts but
    /// does not store records.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Append one record (subject to the toggle).
    #[inline]
    pub fn push(&mut self, rec: TraceRecord) {
        if self.enabled {
            self.records.push(rec);
        } else {
            self.suppressed += 1;
        }
    }

    /// Records currently buffered (not yet flushed).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of records suppressed by the toggle.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Drain the buffer (on-demand flush, end-of-run collection).
    pub fn take(&mut self) -> ChunkLog<TraceRecord> {
        std::mem::take(&mut self.records)
    }

    /// Move the records buffered since the last seal into a shared chunk
    /// ([`ChunkLog::seal`]): a copy of the buffer then shares every record.
    pub fn seal(&mut self) {
        self.records.seal();
    }

    /// Peek at buffered records without draining.
    pub fn records(&self) -> &ChunkLog<TraceRecord> {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn rec(marker: u64) -> TraceRecord {
        TraceRecord::basic(0u32, EventKind::Compute, marker, marker * 10)
    }

    #[test]
    fn push_and_take() {
        let mut b = TraceBuffer::new();
        b.push(rec(1));
        b.push(rec(2));
        assert_eq!(b.len(), 2);
        let v = b.take();
        assert_eq!(v.len(), 2);
        assert!(b.is_empty());
    }

    #[test]
    fn toggle_suppresses() {
        let mut b = TraceBuffer::new();
        b.push(rec(1));
        b.set_enabled(false);
        b.push(rec(2));
        b.push(rec(3));
        b.set_enabled(true);
        b.push(rec(4));
        assert_eq!(b.len(), 2);
        assert_eq!(b.suppressed(), 2);
        let markers: Vec<u64> = b.records().iter().map(|r| r.marker).collect();
        assert_eq!(markers, vec![1, 4]);
    }

    #[test]
    fn flush_on_demand() {
        let mut b = TraceBuffer::new();
        b.push(rec(1));
        assert_eq!(b.take().len(), 1);
        // The buffer keeps collecting behind a flush; an empty one flushes
        // nothing.
        assert!(b.take().is_empty());
        b.push(rec(2));
        assert_eq!(b.take()[0].marker, 2);
    }
}
