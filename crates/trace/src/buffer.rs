//! Per-process trace buffers with on-demand flush.
//!
//! AIMS was built for post-mortem analysis; the paper's first integration
//! problem (§2.1) was that the debugger needs the trace *during* execution,
//! solved "by adding a monitor function that flushes trace information on
//! demand". [`TraceBuffer`] is that monitor-side buffer: each simulated
//! process appends records locally (no cross-process synchronization on the
//! hot path) and the debugger drains everything collected so far through a
//! shared [`FlushHandle`].
//!
//! "The size of trace file can be controlled by ... toggling the collection
//! on and off in the monitor" — see [`TraceBuffer::set_enabled`].

use crate::event::TraceRecord;
use crate::source::TraceSink;
use std::sync::{Arc, Mutex};

/// Shared drain target for all per-process buffers of one run.
///
/// Optionally tees every record through an attached [`TraceSink`] (a
/// streaming store writer) at flush time — persistence happens while the
/// run executes, without perturbing what the debugger drains.
#[derive(Clone, Default)]
pub struct FlushHandle {
    sink: Arc<Mutex<Vec<TraceRecord>>>,
    tee: Arc<Mutex<Option<Box<dyn TraceSink>>>>,
}

impl FlushHandle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a streaming sink; every record subsequently flushed is also
    /// forwarded to it. Replaces any previously attached sink.
    pub fn set_tee(&self, sink: Box<dyn TraceSink>) {
        *self.tee.lock().unwrap() = Some(sink);
    }

    /// Detach and return the attached sink (so its owner can finish it).
    pub fn take_tee(&self) -> Option<Box<dyn TraceSink>> {
        self.tee.lock().unwrap().take()
    }

    /// Forward records to the attached sink without storing them here.
    /// Used for records that reach the collector on a path that bypasses
    /// [`FlushHandle::accept`] (end-of-run recorder drains).
    pub fn tee_records(&self, records: &[TraceRecord]) {
        if let Some(t) = self.tee.lock().unwrap().as_mut() {
            for r in records {
                t.accept(r);
            }
        }
    }

    /// Append a batch of flushed records.
    pub fn accept(&self, mut records: Vec<TraceRecord>) {
        self.tee_records(&records);
        self.sink.lock().unwrap().append(&mut records);
    }

    /// Take everything flushed so far (leaves the sink empty).
    pub fn drain(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.sink.lock().unwrap())
    }

    /// Number of records currently waiting in the sink.
    pub fn pending(&self) -> usize {
        self.sink.lock().unwrap().len()
    }

    /// Copy everything flushed so far without draining it (checkpoint
    /// capture: the snapshot must not perturb the live run).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.sink.lock().unwrap().clone()
    }
}

/// A per-process append-only record buffer.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
    enabled: bool,
    /// Records dropped while collection was toggled off.
    suppressed: u64,
}

impl TraceBuffer {
    pub fn new() -> Self {
        TraceBuffer {
            records: Vec::new(),
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

    /// Drain this buffer into the shared handle (on-demand flush).
    pub fn flush_into(&mut self, handle: &FlushHandle) {
        if !self.records.is_empty() {
            handle.accept(std::mem::take(&mut self.records));
        }
    }

    /// Drain into a plain vector (end-of-run collection).
    pub fn take(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }

    /// Peek at buffered records without draining.
    pub fn records(&self) -> &[TraceRecord] {
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
    fn tee_sees_accepts_and_explicit_forwards() {
        use crate::source::TraceSink;
        use std::sync::{Arc, Mutex};
        struct CountSink(Arc<Mutex<Vec<u64>>>);
        impl TraceSink for CountSink {
            fn accept(&mut self, r: &TraceRecord) {
                self.0.lock().unwrap().push(r.marker);
            }
        }
        let h = FlushHandle::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        h.set_tee(Box::new(CountSink(seen.clone())));
        h.accept(vec![rec(1), rec(2)]);
        h.tee_records(&[rec(3)]);
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
        // tee_records does not store; accept does.
        assert_eq!(h.pending(), 2);
        assert!(h.take_tee().is_some());
        h.accept(vec![rec(4)]);
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn flush_on_demand() {
        let h = FlushHandle::new();
        let mut b0 = TraceBuffer::new();
        let mut b1 = TraceBuffer::new();
        b0.push(rec(1));
        b1.push(rec(2));
        b0.flush_into(&h);
        assert_eq!(h.pending(), 1);
        b1.flush_into(&h);
        assert_eq!(h.pending(), 2);
        let drained = h.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(h.pending(), 0);
        // flushing an empty buffer is a no-op
        b0.flush_into(&h);
        assert_eq!(h.pending(), 0);
    }
}
