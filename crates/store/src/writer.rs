//! Building a store directory: streaming ingestion and index construction.
//!
//! [`StoreWriter`] accepts records one at a time in *arrival* order (the
//! order the engine's flush path emits them), spilling full segments to
//! disk as it goes; only a small fixed-width key per event is retained in
//! memory. [`StoreWriter::finish`] then computes the canonical
//! permutation and the zone indexes and writes `index.tds` +
//! `manifest.tds`.
//!
//! Because execution markers are unique within a rank, the canonical key
//! `(t_start, rank, marker)` is total — sorting the retained keys
//! reproduces exactly the order [`TraceStore::build`] establishes, no
//! matter how flush batches interleaved.
//!
//! [`TraceStore::build`]: tracedbg_trace::TraceStore::build

use crate::error::StoreError;
use crate::frame::{encode_frame, kind_code};
use crate::layout::{
    segment_file, Builder, DIR_ENTRY_LEN, INDEX_FILE, INDEX_MAGIC, MANIFEST_FILE, MANIFEST_MAGIC,
    SEC_CANON, SEC_KIND, SEC_RANK, SEC_TAG, SEC_TIME, SEGMENT_MAGIC, TIME_STRIDE, VERSION,
};
use crate::{crc::crc32, reader::DiskStore};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tracedbg_trace::{SiteTable, TraceRecord, TraceSink, TraceStore};

/// Tunables for a store being written.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Events per segment file (the unit of lazy loading and CRC
    /// verification on the read side).
    pub segment_events: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_events: 65_536,
        }
    }
}

/// What a finished write produced.
#[derive(Clone, Copy, Debug)]
pub struct WriteSummary {
    pub n_events: u64,
    pub n_segments: u32,
    pub n_ranks: usize,
    /// Total bytes across all files of the directory.
    pub bytes: u64,
}

/// The per-event key retained in memory for index construction.
struct EventKey {
    t_start: u64,
    rank: u32,
    marker: u64,
    t_end: u64,
    tag: Option<i32>,
    kind: u8,
}

/// Streaming store builder. See the module docs for the protocol.
pub struct StoreWriter {
    dir: PathBuf,
    opts: StoreOptions,
    keys: Vec<EventKey>,
    /// The current segment's offset table as it goes to disk: one `u32`
    /// per frame, relative to the payload start.
    cur_offsets: Builder,
    /// The current segment's payload; frames are encoded straight into it.
    cur_payload: Vec<u8>,
    /// Arrival id of the current segment's first event.
    cur_first: u64,
    /// (first_event, frame_count) of every flushed segment.
    segs: Vec<(u64, u32)>,
    bytes: u64,
}

impl StoreWriter {
    /// Create (or reset) a store directory and return a writer for it.
    /// Any `*.tds` files already present are removed so a shorter rewrite
    /// can never leave stale segments behind.
    pub fn create(dir: &Path, opts: StoreOptions) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(dir, e))?;
            let p = entry.path();
            if p.extension().is_some_and(|x| x == "tds") {
                std::fs::remove_file(&p).map_err(|e| StoreError::io(&p, e))?;
            }
        }
        Ok(StoreWriter {
            dir: dir.to_path_buf(),
            opts: StoreOptions {
                segment_events: opts.segment_events.max(1),
            },
            keys: Vec::new(),
            cur_offsets: Builder::new(),
            cur_payload: Vec::new(),
            cur_first: 0,
            segs: Vec::new(),
            bytes: 0,
        })
    }

    /// Number of events pushed so far.
    pub fn len(&self) -> u64 {
        self.keys.len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Append one record (arrival order).
    pub fn push(&mut self, rec: &TraceRecord) -> Result<(), StoreError> {
        self.cur_offsets.u32(self.cur_payload.len() as u32);
        encode_frame(&mut self.cur_payload, rec);
        self.keys.push(EventKey {
            t_start: rec.t_start,
            rank: rec.rank.0,
            marker: rec.marker,
            t_end: rec.t_end,
            tag: rec.msg.as_ref().map(|m| m.tag.0),
            kind: kind_code(rec.kind),
        });
        if self.cur_frames() >= self.opts.segment_events {
            self.flush_segment()?;
        }
        Ok(())
    }

    /// Frames in the current (unflushed) segment.
    fn cur_frames(&self) -> usize {
        self.cur_offsets.buf.len() / 4
    }

    fn flush_segment(&mut self) -> Result<(), StoreError> {
        let frames = self.cur_frames() as u32;
        if frames == 0 {
            return Ok(());
        }
        let seg_ix = self.segs.len() as u32;
        let mut header = Builder::new();
        header.bytes(&SEGMENT_MAGIC);
        header.u32(VERSION);
        header.u32(seg_ix);
        header.u32(frames);
        header.u64(self.cur_payload.len() as u64);
        header.u32(crc32(&self.cur_payload));
        header.u32(crc32(&self.cur_offsets.buf));
        header.u64(self.cur_first);
        // Three writes of the parts as they stand; no second image of the
        // payload is assembled.
        let path = self.dir.join(segment_file(seg_ix));
        let parts = [&header.buf, &self.cur_offsets.buf, &self.cur_payload];
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&path)?;
            parts.iter().try_for_each(|part| f.write_all(part))
        };
        write().map_err(|e| StoreError::io(&path, e))?;
        self.bytes += parts.iter().map(|part| part.len() as u64).sum::<u64>();
        self.segs.push((self.cur_first, frames));
        self.cur_first += frames as u64;
        self.cur_offsets.buf.clear();
        self.cur_payload.clear();
        Ok(())
    }

    /// Flush the tail segment, build the indexes, and write the manifest.
    ///
    /// `n_ranks` is the declared rank count (0 to infer); like
    /// `TraceStore::build`, the writer never records fewer ranks than the
    /// events reference.
    pub fn finish(mut self, sites: &SiteTable, n_ranks: usize) -> Result<WriteSummary, StoreError> {
        self.flush_segment()?;
        let n = self.keys.len();
        let inferred = self
            .keys
            .iter()
            .map(|k| k.rank as usize + 1)
            .max()
            .unwrap_or(0);
        let n_ranks = n_ranks.max(inferred);

        // Canonical permutation: arrival ids sorted by the total key.
        let mut canon: Vec<u32> = (0..n as u32).collect();
        canon.sort_by_key(|&i| {
            let k = &self.keys[i as usize];
            (k.t_start, k.rank, k.marker)
        });
        // Per-rank lanes: canonical order restricted to the rank, then
        // stable-sorted by marker (program order) — the exact recipe of
        // `TraceStore::build`.
        let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
        for &i in &canon {
            lanes[self.keys[i as usize].rank as usize].push(i);
        }
        for lane in &mut lanes {
            lane.sort_by_key(|&i| self.keys[i as usize].marker);
        }
        // Tag and construct postings, canonical order.
        let mut tags: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        let mut kinds: BTreeMap<u8, Vec<u32>> = BTreeMap::new();
        for &i in &canon {
            let k = &self.keys[i as usize];
            if let Some(t) = k.tag {
                tags.entry(t as i64).or_default().push(i);
            }
            kinds.entry(k.kind).or_default().push(i);
        }
        // Sparse time samples: (t_start, canon position) every stride.
        let mut samples: Vec<(u64, u64)> = Vec::new();
        let mut pos = 0u64;
        while (pos as usize) < n {
            let id = canon[pos as usize] as usize;
            samples.push((self.keys[id].t_start, pos));
            pos += TIME_STRIDE;
        }
        let t_lo = self.keys.iter().map(|k| k.t_start).min().unwrap_or(0);
        let t_hi = self.keys.iter().map(|k| k.t_end).max().unwrap_or(0);

        // ---- index.tds ----
        struct Section {
            kind: u8,
            key: i64,
            entry_bytes: u32,
            data: Vec<u8>,
            n_items: u64,
        }
        fn ids_section(kind: u8, key: i64, ids: &[u32]) -> Section {
            let mut b = Builder::new();
            for &i in ids {
                b.u32(i);
            }
            Section {
                kind,
                key,
                entry_bytes: 4,
                n_items: ids.len() as u64,
                data: b.buf,
            }
        }
        let mut sections = Vec::new();
        sections.push(ids_section(SEC_CANON, 0, &canon));
        for (r, lane) in lanes.iter().enumerate() {
            sections.push(ids_section(SEC_RANK, r as i64, lane));
        }
        for (tag, ids) in &tags {
            sections.push(ids_section(SEC_TAG, *tag, ids));
        }
        for (kind, ids) in &kinds {
            sections.push(ids_section(SEC_KIND, *kind as i64, ids));
        }
        {
            let mut b = Builder::new();
            for &(t, p) in &samples {
                b.u64(t);
                b.u64(p);
            }
            sections.push(Section {
                kind: SEC_TIME,
                key: TIME_STRIDE as i64,
                entry_bytes: 16,
                n_items: samples.len() as u64,
                data: b.buf,
            });
        }

        let header_len = 4 + 4 + 8 + 4;
        let dir_len = sections.len() * DIR_ENTRY_LEN;
        let mut offset = (header_len + dir_len + 4) as u64;
        let mut dir = Builder::new();
        for s in &sections {
            dir.u8(s.kind);
            dir.i64(s.key);
            dir.u32(s.entry_bytes);
            dir.u64(s.n_items);
            dir.u64(offset);
            dir.u32(crc32(&s.data));
            offset += s.data.len() as u64;
        }
        let mut idx = Builder::new();
        idx.bytes(&INDEX_MAGIC);
        idx.u32(VERSION);
        idx.u64(n as u64);
        idx.u32(sections.len() as u32);
        idx.bytes(&dir.buf);
        idx.u32(crc32(&dir.buf));
        for s in &sections {
            idx.bytes(&s.data);
        }
        let idx_path = self.dir.join(INDEX_FILE);
        std::fs::write(&idx_path, &idx.buf).map_err(|e| StoreError::io(&idx_path, e))?;
        self.bytes += idx.buf.len() as u64;

        // ---- manifest.tds ----
        let mut body = Builder::new();
        body.u32(n_ranks as u32);
        body.u64(n as u64);
        body.u32(self.segs.len() as u32);
        body.u64(t_lo);
        body.u64(t_hi);
        for &(first, frames) in &self.segs {
            body.u64(first);
            body.u32(frames);
        }
        let snapshot = sites.snapshot();
        body.u32(snapshot.len() as u32);
        for s in &snapshot {
            body.u32(s.line);
            body.string(&s.file);
            body.string(&s.func);
        }
        let mut man = Builder::new();
        man.bytes(&MANIFEST_MAGIC);
        man.u32(VERSION);
        man.u64(body.buf.len() as u64);
        man.u32(crc32(&body.buf));
        man.bytes(&body.buf);
        let man_path = self.dir.join(MANIFEST_FILE);
        std::fs::write(&man_path, &man.buf).map_err(|e| StoreError::io(&man_path, e))?;
        self.bytes += man.buf.len() as u64;

        Ok(WriteSummary {
            n_events: n as u64,
            n_segments: self.segs.len() as u32,
            n_ranks,
            bytes: self.bytes,
        })
    }
}

/// Write a whole in-memory store to `dir` and reopen it.
pub fn ingest_store(
    store: &TraceStore,
    dir: &Path,
    opts: StoreOptions,
) -> Result<DiskStore, StoreError> {
    let mut w = StoreWriter::create(dir, opts)?;
    for r in store.records() {
        w.push(r)?;
    }
    w.finish(store.sites(), store.n_ranks())?;
    DiskStore::open(dir)
}

/// Ingest loose records (e.g. a parsed trace file) into `dir`.
pub fn ingest_records(
    records: &[TraceRecord],
    sites: &SiteTable,
    n_ranks: usize,
    dir: &Path,
    opts: StoreOptions,
) -> Result<WriteSummary, StoreError> {
    let mut w = StoreWriter::create(dir, opts)?;
    for r in records {
        w.push(r)?;
    }
    w.finish(sites, n_ranks)
}

/// A cloneable, engine-attachable wrapper around [`StoreWriter`].
///
/// The engine owns the attached sink for the duration of a run; the CLI
/// keeps the other handle and calls [`SharedWriter::finish`] once the run
/// is collected. Write errors are sticky and surface at finish — the
/// simulation is never interrupted by a disk problem.
#[derive(Clone)]
pub struct SharedWriter {
    inner: Arc<Mutex<SharedInner>>,
}

struct SharedInner {
    writer: Option<StoreWriter>,
    err: Option<StoreError>,
}

impl SharedWriter {
    pub fn new(writer: StoreWriter) -> Self {
        SharedWriter {
            inner: Arc::new(Mutex::new(SharedInner {
                writer: Some(writer),
                err: None,
            })),
        }
    }

    /// Finish the underlying writer (first sticky error wins).
    pub fn finish(&self, sites: &SiteTable, n_ranks: usize) -> Result<WriteSummary, StoreError> {
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.err.take() {
            return Err(e);
        }
        let dir = PathBuf::new();
        let w = g
            .writer
            .take()
            .ok_or_else(|| StoreError::mismatch(&dir, "store writer already finished"))?;
        w.finish(sites, n_ranks)
    }
}

impl TraceSink for SharedWriter {
    fn accept(&mut self, rec: &TraceRecord) {
        let mut g = self.inner.lock().unwrap();
        if g.err.is_some() {
            return;
        }
        if let Some(w) = g.writer.as_mut() {
            if let Err(e) = w.push(rec) {
                g.err = Some(e);
            }
        }
    }
}
