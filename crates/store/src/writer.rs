//! Building a store directory: one streaming pass over a finished trace.
//!
//! Every store is written by one routine, from a slice of records that is
//! already complete — the trace of a run that has ended, or a trace file
//! that was read. Frames go to disk in the canonical order `(t_start,
//! rank, marker)` ([`canonical_key`]), so an event's id in the store is
//! its canonical position and one trace always gives one store image,
//! whatever order its records arrived in. A slice that is already
//! canonical (one O(n) check; a [`TraceStore`] always is) is read as it
//! is; any other is read through a `u32` permutation sorted once by keys
//! read from the slice.
//!
//! Besides the slice, the writer holds one segment's offset table (4 B a
//! frame), one reused buffer of about [`CHUNK`] bytes that frames and
//! index entries are encoded into on their way to disk, and the zone
//! indexes' postings (4 B per listed event, allocated at their exact
//! size). The canonical section is the identity and is never allocated.
//! Every file is streamed: the parts that need a checksum of what follows
//! them (a segment's header and offset table, the index's header and
//! directory) are written last, in place, so no image of a file is
//! assembled.
//!
//! A [`SharedWriter`] collects records one at a time into its
//! [`StoreWriter`]; its `finish` hands the collected slice to the same
//! routine.
//!
//! [`TraceStore`]: tracedbg_trace::TraceStore

use crate::crc::{crc32, Crc32};
use crate::error::StoreError;
use crate::frame::{encode_frame, kind_code};
use crate::layout::{
    segment_file, Builder, DIR_ENTRY_LEN, INDEX_FILE, INDEX_MAGIC, MANIFEST_FILE, MANIFEST_MAGIC,
    SEC_CANON, SEC_KIND, SEC_RANK, SEC_TAG, SEC_TIME, SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
    TIME_STRIDE, VERSION,
};
use crate::reader::DiskStore;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tracedbg_trace::history::canonical_key;
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

/// Encoded bytes gather in one buffer until it holds this many; then they
/// are checksummed and written.
const CHUNK: usize = 64 * 1024;

/// A store directory, reset and ready to be written once.
///
/// [`StoreWriter::write_records`] writes a finished trace;
/// [`StoreWriter::finish`] writes the records a [`SharedWriter`] collected
/// into it (88 B each) one at a time.
pub struct StoreWriter {
    dir: PathBuf,
    opts: StoreOptions,
    /// Records collected so far, in arrival order.
    records: Vec<TraceRecord>,
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
            records: Vec::new(),
        })
    }

    /// Number of events collected so far.
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Write the collected records as the store.
    ///
    /// `n_ranks` is the declared rank count (0 to infer); like
    /// `TraceStore::build`, the writer never records fewer ranks than the
    /// events reference.
    pub fn finish(self, sites: &SiteTable, n_ranks: usize) -> Result<WriteSummary, StoreError> {
        write_dir(&self.dir, self.opts, &self.records, sites, n_ranks)
    }

    /// Write `records` (any order) as the store. Nothing may have been
    /// collected: the store is one trace, not two.
    pub fn write_records(
        self,
        records: &[TraceRecord],
        sites: &SiteTable,
        n_ranks: usize,
    ) -> Result<WriteSummary, StoreError> {
        if !self.records.is_empty() {
            return Err(StoreError::mismatch(
                &self.dir,
                "records were pushed to this writer; finish it instead",
            ));
        }
        write_dir(&self.dir, self.opts, records, sites, n_ranks)
    }
}

/// Write a whole in-memory store to `dir` and reopen it.
pub fn ingest_store(
    store: &TraceStore,
    dir: &Path,
    opts: StoreOptions,
) -> Result<DiskStore, StoreError> {
    StoreWriter::create(dir, opts)?.write_records(
        store.records(),
        store.sites(),
        store.n_ranks(),
    )?;
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
    StoreWriter::create(dir, opts)?.write_records(records, sites, n_ranks)
}

/// The records in canonical order — the slice itself, or the slice read
/// through a permutation sorted by [`canonical_key`] — and what one pass
/// over them learns. The sort is stable, so records with equal keys keep
/// their slice order, as in `TraceStore::build`.
struct Canonical<'a> {
    records: &'a [TraceRecord],
    perm: Option<Vec<u32>>,
    /// One past the highest rank a record names.
    ranks_seen: usize,
    /// Smallest `t_start` and largest `t_end` (0 and 0 when empty).
    t_lo: u64,
    t_hi: u64,
}

impl<'a> Canonical<'a> {
    fn new(records: &'a [TraceRecord]) -> Self {
        let (mut sorted, mut ranks_seen) = (true, 0);
        let (mut t_lo, mut t_hi) = (u64::MAX, 0);
        for (i, r) in records.iter().enumerate() {
            sorted &= i == 0 || canonical_key(&records[i - 1]) <= canonical_key(r);
            ranks_seen = ranks_seen.max(r.rank.ix() + 1);
            t_lo = t_lo.min(r.t_start);
            t_hi = t_hi.max(r.t_end);
        }
        let perm = (!sorted).then(|| {
            let mut perm: Vec<u32> = (0..records.len() as u32).collect();
            perm.sort_by_key(|&i| canonical_key(&records[i as usize]));
            perm
        });
        Canonical {
            records,
            perm,
            ranks_seen,
            t_lo: if records.is_empty() { 0 } else { t_lo },
            t_hi,
        }
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    /// The record at canonical position `p`.
    #[inline]
    fn at(&self, p: usize) -> &'a TraceRecord {
        match &self.perm {
            None => &self.records[p],
            Some(perm) => &self.records[perm[p] as usize],
        }
    }
}

/// The one store writer: segments, then `index.tds`, then `manifest.tds`.
fn write_dir(
    dir: &Path,
    opts: StoreOptions,
    records: &[TraceRecord],
    sites: &SiteTable,
    n_ranks: usize,
) -> Result<WriteSummary, StoreError> {
    let canon = Canonical::new(records);
    let n_ranks = n_ranks.max(canon.ranks_seen);
    let mut buf = Vec::with_capacity(CHUNK + 1024);
    let segs = write_segments(dir, opts.segment_events, &canon, &mut buf)?;
    let mut bytes = segs.iter().map(|s| s.bytes).sum::<u64>();
    bytes += write_index(dir, &canon, n_ranks, &mut buf)?;
    bytes += write_manifest(dir, &canon, n_ranks, &segs, sites)?;
    Ok(WriteSummary {
        n_events: records.len() as u64,
        n_segments: segs.len() as u32,
        n_ranks,
        bytes,
    })
}

/// One written segment file.
struct Segment {
    first: u64,
    frames: u32,
    bytes: u64,
}

/// Write the frames in canonical order, `per` to a segment file. The
/// payload streams through `buf` with a running checksum; the header and
/// the offset table follow with one positioned write when a segment
/// closes.
fn write_segments(
    dir: &Path,
    per: usize,
    canon: &Canonical<'_>,
    buf: &mut Vec<u8>,
) -> Result<Vec<Segment>, StoreError> {
    let mut segs = Vec::new();
    for (ix, first) in (0..canon.len()).step_by(per).enumerate() {
        let frames = per.min(canon.len() - first);
        let path = dir.join(segment_file(ix as u32));
        let mut write = || -> std::io::Result<Segment> {
            let table_end = SEGMENT_HEADER_LEN + 4 * frames;
            let mut head = Vec::with_capacity(table_end);
            head.resize(SEGMENT_HEADER_LEN, 0);
            let mut f = File::create(&path)?;
            f.seek(SeekFrom::Start(table_end as u64))?;
            let (mut crc, mut payload_len) = (Crc32::new(), 0u64);
            let mut flush = |buf: &mut Vec<u8>| -> std::io::Result<()> {
                crc.update(buf);
                f.write_all(buf)?;
                buf.clear();
                Ok(())
            };
            buf.clear();
            for p in first..first + frames {
                head.extend_from_slice(&(payload_len as u32).to_le_bytes());
                let at = buf.len();
                encode_frame(buf, canon.at(p));
                payload_len += (buf.len() - at) as u64;
                if buf.len() >= CHUNK {
                    flush(buf)?;
                }
            }
            flush(buf)?;
            let mut header = Builder::new();
            header.bytes(&SEGMENT_MAGIC);
            header.u32(VERSION);
            header.u32(ix as u32);
            header.u32(frames as u32);
            header.u64(payload_len);
            header.u32(crc.value());
            header.u32(crc32(&head[SEGMENT_HEADER_LEN..]));
            header.u64(first as u64);
            head[..SEGMENT_HEADER_LEN].copy_from_slice(&header.buf);
            f.seek(SeekFrom::Start(0))?;
            f.write_all(&head)?;
            Ok(Segment {
                first: first as u64,
                frames: frames as u32,
                bytes: head.len() as u64 + payload_len,
            })
        };
        segs.push(write().map_err(|e| StoreError::io(&path, e))?);
    }
    Ok(segs)
}

/// Canonical positions grouped by a dense key, each group ascending: a
/// counting sort into one allocation of one `u32` per listed position.
/// Count every position first, then [`alloc`](Postings::alloc), then
/// place them in canonical order.
struct Postings {
    starts: Vec<usize>,
    /// Where each group's next position goes, while placing.
    next: Vec<usize>,
    ids: Vec<u32>,
}

impl Postings {
    fn new(groups: usize) -> Self {
        Postings {
            starts: vec![0; groups + 1],
            next: Vec::new(),
            ids: Vec::new(),
        }
    }

    #[inline]
    fn count(&mut self, g: usize) {
        self.starts[g + 1] += 1;
    }

    fn alloc(&mut self) {
        for g in 1..self.starts.len() {
            self.starts[g] += self.starts[g - 1];
        }
        self.next = self.starts.clone();
        self.ids = vec![0; self.starts[self.starts.len() - 1]];
    }

    #[inline]
    fn place(&mut self, g: usize, p: usize) {
        self.ids[self.next[g]] = p as u32;
        self.next[g] += 1;
    }

    fn group(&self, g: usize) -> &[u32] {
        &self.ids[self.starts[g]..self.starts[g + 1]]
    }

    fn group_mut(&mut self, g: usize) -> &mut [u32] {
        &mut self.ids[self.starts[g]..self.starts[g + 1]]
    }
}

/// What an index section lists.
enum Body<'p> {
    /// Canonical positions `0..n`: the canonical-order section.
    Identity(u32),
    Ids(&'p [u32]),
    /// `(t_start, canonical position)` every [`TIME_STRIDE`] positions.
    TimeSamples,
}

struct Section<'p> {
    kind: u8,
    key: i64,
    entry_bytes: u32,
    n_items: u64,
    body: Body<'p>,
}

impl Section<'_> {
    fn ids(kind: u8, key: i64, ids: &[u32]) -> Section<'_> {
        Section {
            kind,
            key,
            entry_bytes: 4,
            n_items: ids.len() as u64,
            body: Body::Ids(ids),
        }
    }

    /// Append the section's bytes to `buf`, handing it to `flush` (which
    /// empties it) whenever it holds a [`CHUNK`].
    fn encode(
        &self,
        canon: &Canonical<'_>,
        buf: &mut Vec<u8>,
        flush: &mut impl FnMut(&mut Vec<u8>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut put = |buf: &mut Vec<u8>, bytes: &[u8]| -> std::io::Result<()> {
            buf.extend_from_slice(bytes);
            if buf.len() >= CHUNK {
                flush(buf)?;
            }
            Ok(())
        };
        match self.body {
            Body::Identity(n) => (0..n).try_for_each(|p| put(buf, &p.to_le_bytes())),
            Body::Ids(ids) => ids.iter().try_for_each(|p| put(buf, &p.to_le_bytes())),
            Body::TimeSamples => (0..canon.len())
                .step_by(TIME_STRIDE as usize)
                .try_for_each(|p| {
                    put(buf, &canon.at(p).t_start.to_le_bytes())?;
                    put(buf, &(p as u64).to_le_bytes())
                }),
        }
    }
}

/// Build the zone indexes over canonical positions and stream
/// `index.tds`. Returns the bytes written.
fn write_index(
    dir: &Path,
    canon: &Canonical<'_>,
    n_ranks: usize,
    buf: &mut Vec<u8>,
) -> Result<u64, StoreError> {
    let n = canon.len();
    // Two passes over the records: count, then place. Tags are mapped to
    // dense groups in ascending order once all are known.
    let mut lanes = Postings::new(n_ranks);
    let mut kinds = Postings::new(256);
    let mut tag_counts: BTreeMap<i32, usize> = BTreeMap::new();
    for p in 0..n {
        let r = canon.at(p);
        lanes.count(r.rank.ix());
        kinds.count(kind_code(r.kind) as usize);
        if let Some(m) = &r.msg {
            *tag_counts.entry(m.tag.0).or_default() += 1;
        }
    }
    let tags: Vec<i32> = tag_counts.keys().copied().collect();
    let mut tag_lists = Postings::new(tags.len());
    for (g, &c) in tag_counts.values().enumerate() {
        tag_lists.starts[g + 1] = c;
    }
    for postings in [&mut lanes, &mut kinds, &mut tag_lists] {
        postings.alloc();
    }
    for p in 0..n {
        let r = canon.at(p);
        lanes.place(r.rank.ix(), p);
        kinds.place(kind_code(r.kind) as usize, p);
        if let Some(m) = &r.msg {
            let g = tags.binary_search(&m.tag.0).expect("counted above");
            tag_lists.place(g, p);
        }
    }
    // A lane is canonical order restricted to its rank, then stably
    // sorted by marker (program order) — the recipe of
    // `TraceStore::build`.
    for r in 0..n_ranks {
        let lane = lanes.group_mut(r);
        let marker = |p: &u32| canon.at(*p as usize).marker;
        if lane.windows(2).any(|w| marker(&w[0]) > marker(&w[1])) {
            lane.sort_by_key(marker);
        }
    }

    let mut sections = vec![Section {
        kind: SEC_CANON,
        key: 0,
        entry_bytes: 4,
        n_items: n as u64,
        body: Body::Identity(n as u32),
    }];
    sections.extend((0..n_ranks).map(|r| Section::ids(SEC_RANK, r as i64, lanes.group(r))));
    sections.extend(
        (tags.iter().zip(0..)).map(|(&t, g)| Section::ids(SEC_TAG, t as i64, tag_lists.group(g))),
    );
    sections.extend(
        (0..256)
            .filter(|&k| !kinds.group(k).is_empty())
            .map(|k| Section::ids(SEC_KIND, k as i64, kinds.group(k))),
    );
    sections.push(Section {
        kind: SEC_TIME,
        key: TIME_STRIDE as i64,
        entry_bytes: 16,
        n_items: n.div_ceil(TIME_STRIDE as usize) as u64,
        body: Body::TimeSamples,
    });

    let path = dir.join(INDEX_FILE);
    let write = |buf: &mut Vec<u8>| -> std::io::Result<u64> {
        // The sections go after room for the header and the directory,
        // each checksummed as it is written (small ones gather in the
        // `BufWriter`); the header and the directory, which need every
        // section's checksum, follow with one positioned write.
        let mut head = Builder::new();
        head.bytes(&INDEX_MAGIC);
        head.u32(VERSION);
        head.u64(n as u64);
        head.u32(sections.len() as u32);
        let dir_at = head.buf.len();
        let mut offset = (dir_at + sections.len() * DIR_ENTRY_LEN + 4) as u64;
        let mut out = BufWriter::with_capacity(CHUNK, File::create(&path)?);
        out.seek(SeekFrom::Start(offset))?;
        for s in &sections {
            let mut crc = Crc32::new();
            let mut flush = |buf: &mut Vec<u8>| -> std::io::Result<()> {
                crc.update(buf);
                out.write_all(buf)?;
                buf.clear();
                Ok(())
            };
            buf.clear();
            s.encode(canon, buf, &mut flush)?;
            flush(buf)?;
            head.u8(s.kind);
            head.i64(s.key);
            head.u32(s.entry_bytes);
            head.u64(s.n_items);
            head.u64(offset);
            head.u32(crc.value());
            offset += s.entry_bytes as u64 * s.n_items;
        }
        let dir_crc = crc32(&head.buf[dir_at..]);
        head.u32(dir_crc);
        out.seek(SeekFrom::Start(0))?;
        out.write_all(&head.buf)?;
        out.flush()?;
        Ok(offset)
    };
    write(buf).map_err(|e| StoreError::io(&path, e))
}

/// Write `manifest.tds`: run metadata, the segment list and the site
/// table. Returns the bytes written.
fn write_manifest(
    dir: &Path,
    canon: &Canonical<'_>,
    n_ranks: usize,
    segs: &[Segment],
    sites: &SiteTable,
) -> Result<u64, StoreError> {
    let mut body = Builder::new();
    body.u32(n_ranks as u32);
    body.u64(canon.len() as u64);
    body.u32(segs.len() as u32);
    body.u64(canon.t_lo);
    body.u64(canon.t_hi);
    for s in segs {
        body.u64(s.first);
        body.u32(s.frames);
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
    let path = dir.join(MANIFEST_FILE);
    std::fs::write(&path, &man.buf).map_err(|e| StoreError::io(&path, e))?;
    Ok(man.buf.len() as u64)
}

/// A cloneable [`TraceSink`] around a [`StoreWriter`].
///
/// It writes nothing as records arrive: each goes into the writer's
/// collection, in the order it is handed over. A debugger session hands
/// an attached sink the records of its engine incarnation when the sink
/// is detached (or the incarnation is replaced); the other handle then
/// calls [`SharedWriter::finish`], which writes the store as
/// [`StoreWriter::finish`] does.
#[derive(Clone)]
pub struct SharedWriter {
    inner: Arc<Mutex<Option<StoreWriter>>>,
}

impl SharedWriter {
    pub fn new(writer: StoreWriter) -> Self {
        SharedWriter {
            inner: Arc::new(Mutex::new(Some(writer))),
        }
    }

    /// Write the collected records as the store.
    pub fn finish(&self, sites: &SiteTable, n_ranks: usize) -> Result<WriteSummary, StoreError> {
        let w =
            self.inner.lock().unwrap().take().ok_or_else(|| {
                StoreError::mismatch(Path::new(""), "store writer already finished")
            })?;
        w.finish(sites, n_ranks)
    }
}

impl TraceSink for SharedWriter {
    fn accept(&mut self, rec: &TraceRecord) {
        if let Some(w) = self.inner.lock().unwrap().as_mut() {
            w.records.push(*rec);
        }
    }
}
