//! On-disk indexed trace store.
//!
//! The paper treats the trace as the debugging substrate; this crate makes
//! that substrate persistent and random-access. A *store directory* holds
//! a run's events in append-only binary segments plus fixed-width zone
//! indexes (per rank, per tag, per construct) and a sparse time index, so
//! the questions the debugger asks — "rank 3's events in program order",
//! "everything with tag 20", "what intersects `[t0, t1]`" — are index
//! lookups over a cold file, not linear scans over a materialized vector.
//!
//! Three entry points:
//!
//! * [`ingest_store`] / [`ingest_records`] / [`StoreWriter::write_records`]
//!   — write a finished trace in one streaming pass, in canonical order,
//!   so one trace always gives one store image; a [`SharedWriter`] (the
//!   sink a debugger session hands its records to when the sink is
//!   detached) collects records one at a time and hands them to the same
//!   writer when it finishes;
//! * [`DiskStore`] — the reader: cheap [`DiskStore::open`], segments
//!   streamed and CRC-verified as they are read (never held whole),
//!   cursor-based queries, and a
//!   [`TraceSource`](tracedbg_trace::TraceSource) impl so every consumer
//!   of the in-memory reference store works against disk unchanged.
//!
//! Every query returns events byte-identical to the same selection over
//! the in-memory [`TraceStore`](tracedbg_trace::TraceStore) — the store
//! is a pure index, never a filter; `crates/store/tests` holds the
//! property battery that pins this.

pub mod crc;
pub mod error;
pub mod frame;
pub mod layout;
pub mod reader;
pub mod writer;

pub use error::StoreError;
pub use reader::{DiskStore, EventCursor};
pub use writer::{
    ingest_records, ingest_store, SharedWriter, StoreOptions, StoreWriter, WriteSummary,
};
