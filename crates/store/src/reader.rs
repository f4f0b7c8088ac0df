//! Opening and querying a store directory.
//!
//! [`DiskStore::open`] is cheap by design: it reads the manifest in full
//! (small — run metadata plus the site table), the index *directory* (a
//! few dozen fixed-width entries), and each segment's 40-byte header.
//! Everything else — index sections, segment payloads — is read on
//! demand and CRC-verified as it is read, so opening a multi-million-event
//! store costs well under a millisecond while no corruption can ever
//! reach a caller as silent garbage.
//!
//! A segment is never held whole. Every read of one — a cursor's, a
//! [`DiskStore::fetch`], [`DiskStore::verify`], `events()` — is one walk
//! front to back through a single 64 KiB buffer: the offset table and
//! the payload are read in step, each folded into its checksum as it
//! passes, and only the frames the reader asked for are kept (a cursor
//! copies their encoded bytes out; `events()` and `verify()` decode
//! frames straight out of the buffer). Nothing a walk read reaches a
//! caller before the walk's end has checked both checksums and the
//! table's order: verify, then yield. A cursor walks the segments its ids
//! fall in, in file order, one segment at a time when its list visits
//! them in that order (every list of a canonical-order store does) and
//! all at once otherwise, and yields in list order — so a selection costs
//! one sequential read and checksum pass per segment it touches, the
//! bytes of its own frames, and one decode per event it returns.

use crate::crc::{crc32, Crc32};
use crate::error::StoreError;
use crate::frame::{decode_body, frame_body, kind_code, FrameError};
use crate::layout::{
    segment_file, Cursor, DIR_ENTRY_LEN, INDEX_FILE, INDEX_MAGIC, MANIFEST_FILE, MANIFEST_MAGIC,
    SEC_CANON, SEC_KIND, SEC_RANK, SEC_TAG, SEC_TIME, SEGMENT_HEADER_LEN, SEGMENT_MAGIC, VERSION,
};
use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tracedbg_trace::file::peek_span;
use tracedbg_trace::{
    EventIter, EventKind, Rank, Select, SiteTable, SourceError, SourceLoc, Tag, TraceRecord,
    TraceSource,
};

/// The one buffer every walk over a file reads through.
const WALK_BUF: usize = 64 * 1024;
/// The offset table's share of a segment walk's buffer; the payload
/// gets the rest. A table entry is 4 bytes, a frame some 80: one refill
/// of the table lasts about as long as twelve of the payload.
const TABLE_SHARE: usize = 8 * 1024;

/// Metadata of one segment, from the manifest + its validated header.
#[derive(Clone, Debug)]
struct SegMeta {
    first_event: u64,
    frames: u32,
    payload_len: u64,
    payload_crc: u32,
    offsets_crc: u32,
}

impl SegMeta {
    /// One past the last arrival id in the segment.
    fn end_event(&self) -> u64 {
        self.first_event + self.frames as u64
    }
}

/// One index directory entry.
#[derive(Clone, Copy, Debug)]
struct DirEntry {
    kind: u8,
    key: i64,
    entry_bytes: u32,
    n_items: u64,
    offset: u64,
    crc: u32,
}

impl DirEntry {
    /// The section's size in bytes; `None` if the declared width times
    /// the item count overflows (a hostile entry, refused at open).
    fn byte_len(&self) -> Option<u64> {
        u64::from(self.entry_bytes).checked_mul(self.n_items)
    }

    fn overflow(&self, path: &Path) -> StoreError {
        StoreError::mismatch(
            path,
            format!(
                "section (kind {}, key {}) declares {} items of {} bytes",
                self.kind, self.key, self.n_items, self.entry_bytes
            ),
        )
    }
}

type IdsList = Arc<Vec<u32>>;
type TimeSamples = Arc<Vec<(u64, u64)>>;

/// An open on-disk trace store.
pub struct DiskStore {
    dir: PathBuf,
    n_ranks: usize,
    n_events: u64,
    t_lo: u64,
    t_hi: u64,
    sites: SiteTable,
    segs: Vec<SegMeta>,
    index: Vec<DirEntry>,
    sections: Mutex<HashMap<(u8, i64), IdsList>>,
    time_samples: Mutex<Option<TimeSamples>>,
}

fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    std::fs::read(path).map_err(|e| StoreError::io(path, e))
}

/// A buffer to stream index section `e` through: the section's size up
/// to a walk buffer's (a store has a section per rank, most of them
/// small), never less than one entry.
fn section_buffer(e: &DirEntry) -> Vec<u8> {
    let len = e.byte_len().unwrap_or(0).max(e.entry_bytes.into());
    vec![0; len.min(WALK_BUF as u64) as usize]
}

/// Fill `buf` from `file` at offset `at`.
fn read_at(file: &File, at: u64, buf: &mut [u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, at)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(at))?;
        f.read_exact(buf)
    }
}

fn check_magic(path: &Path, c: &mut Cursor<'_>, want: [u8; 4]) -> Result<(), StoreError> {
    let got = c.take(4, "magic")?;
    if got != want {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
            found: [got[0], got[1], got[2], got[3]],
        });
    }
    let version = c.u32("version")?;
    if version != VERSION {
        return Err(StoreError::BadVersion {
            path: path.to_path_buf(),
            found: version,
            want: VERSION,
        });
    }
    Ok(())
}

impl DiskStore {
    /// Open a store directory: validate the manifest, the index
    /// directory, and every segment header. Payloads stay on disk.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        // ---- manifest ----
        let man_path = dir.join(MANIFEST_FILE);
        let man = read_file(&man_path)?;
        let mut c = Cursor::new(&man, &man_path);
        check_magic(&man_path, &mut c, MANIFEST_MAGIC)?;
        let body_len = c.u64("manifest body length")?;
        let body_crc = c.u32("manifest body crc")?;
        if body_len != c.remaining() as u64 {
            return Err(StoreError::mismatch(
                &man_path,
                format!(
                    "manifest declares {body_len}-byte body, file has {}",
                    c.remaining()
                ),
            ));
        }
        let body = c.take(body_len as usize, "manifest body")?;
        let got = crc32(body);
        if got != body_crc {
            return Err(StoreError::crc(&man_path, "manifest body", body_crc, got));
        }
        let mut b = Cursor::new(body, &man_path);
        let n_ranks = b.u32("n_ranks")? as usize;
        let n_events = b.u64("n_events")?;
        let n_segments = b.u32("n_segments")?;
        let t_lo = b.u64("t_lo")?;
        let t_hi = b.u64("t_hi")?;
        let mut segs = Vec::new();
        let mut expect_first = 0u64;
        for i in 0..n_segments {
            let first_event = b.u64("segment first_event")?;
            let frames = b.u32("segment frame count")?;
            if first_event != expect_first {
                return Err(StoreError::mismatch(
                    &man_path,
                    format!("segment {i} first_event {first_event}, expected {expect_first}"),
                ));
            }
            expect_first += frames as u64;
            segs.push(SegMeta {
                first_event,
                frames,
                payload_len: 0,
                payload_crc: 0,
                offsets_crc: 0,
            });
        }
        if expect_first != n_events {
            return Err(StoreError::mismatch(
                &man_path,
                format!("segments cover {expect_first} events, manifest declares {n_events}"),
            ));
        }
        let n_sites = b.u32("site count")? as usize;
        let mut sites = Vec::with_capacity(n_sites.min(1 << 20));
        for _ in 0..n_sites {
            let line = b.u32("site line")?;
            let file = b.string("site file")?;
            let func = b.string("site func")?;
            sites.push(SourceLoc::new(file, line, func));
        }
        if b.remaining() != 0 {
            return Err(StoreError::mismatch(
                &man_path,
                format!("manifest body has {} trailing bytes", b.remaining()),
            ));
        }

        // ---- segment headers ----
        for (i, seg) in segs.iter_mut().enumerate() {
            let path = dir.join(segment_file(i as u32));
            let mut f = std::fs::File::open(&path).map_err(|e| StoreError::io(&path, e))?;
            let file_len = f.metadata().map_err(|e| StoreError::io(&path, e))?.len();
            let mut hdr = [0u8; SEGMENT_HEADER_LEN];
            f.read_exact(&mut hdr)
                .map_err(|e| StoreError::from_read(&path, "segment header", e))?;
            let mut h = Cursor::new(&hdr, &path);
            check_magic(&path, &mut h, SEGMENT_MAGIC)?;
            let seg_ix = h.u32("segment index")?;
            let frames = h.u32("segment frame count")?;
            let payload_len = h.u64("segment payload length")?;
            let payload_crc = h.u32("segment payload crc")?;
            let offsets_crc = h.u32("segment offsets crc")?;
            let first_event = h.u64("segment first event")?;
            if seg_ix != i as u32 {
                return Err(StoreError::mismatch(
                    &path,
                    format!("header says segment {seg_ix}, filename says {i}"),
                ));
            }
            if frames != seg.frames || first_event != seg.first_event {
                return Err(StoreError::mismatch(
                    &path,
                    format!(
                        "header ({frames} frames from {first_event}) disagrees with \
                         manifest ({} frames from {})",
                        seg.frames, seg.first_event
                    ),
                ));
            }
            let want_len = SEGMENT_HEADER_LEN as u64 + 4 * frames as u64 + payload_len;
            if file_len != want_len {
                return Err(StoreError::mismatch(
                    &path,
                    format!("file is {file_len} bytes, header implies {want_len}"),
                ));
            }
            seg.payload_len = payload_len;
            seg.payload_crc = payload_crc;
            seg.offsets_crc = offsets_crc;
        }

        // ---- index directory ----
        let idx_path = dir.join(INDEX_FILE);
        let mut f = std::fs::File::open(&idx_path).map_err(|e| StoreError::io(&idx_path, e))?;
        let index_len = f
            .metadata()
            .map_err(|e| StoreError::io(&idx_path, e))?
            .len();
        let mut hdr = [0u8; 20];
        f.read_exact(&mut hdr)
            .map_err(|e| StoreError::from_read(&idx_path, "index header", e))?;
        let mut h = Cursor::new(&hdr, &idx_path);
        check_magic(&idx_path, &mut h, INDEX_MAGIC)?;
        let idx_events = h.u64("index event count")?;
        if idx_events != n_events {
            return Err(StoreError::mismatch(
                &idx_path,
                format!("index covers {idx_events} events, manifest declares {n_events}"),
            ));
        }
        let n_entries = h.u32("index entry count")? as usize;
        if n_entries > 1 << 20 {
            return Err(StoreError::mismatch(
                &idx_path,
                format!("index entry count {n_entries} unreasonable"),
            ));
        }
        let mut dir_bytes = vec![0u8; n_entries * DIR_ENTRY_LEN];
        f.read_exact(&mut dir_bytes)
            .map_err(|e| StoreError::from_read(&idx_path, "index directory", e))?;
        let mut crc_bytes = [0u8; 4];
        f.read_exact(&mut crc_bytes)
            .map_err(|e| StoreError::from_read(&idx_path, "index directory crc", e))?;
        let want = u32::from_le_bytes(crc_bytes);
        let got = crc32(&dir_bytes);
        if got != want {
            return Err(StoreError::crc(&idx_path, "index directory", want, got));
        }
        let mut d = Cursor::new(&dir_bytes, &idx_path);
        let mut index = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let e = DirEntry {
                kind: d.u8("entry kind")?,
                key: d.i64("entry key")?,
                entry_bytes: d.u32("entry width")?,
                n_items: d.u64("entry item count")?,
                offset: d.u64("entry offset")?,
                crc: d.u32("entry crc")?,
            };
            let size = e.byte_len().ok_or_else(|| e.overflow(&idx_path))?;
            let end = e
                .offset
                .checked_add(size)
                .ok_or_else(|| StoreError::mismatch(&idx_path, "index section offset overflow"))?;
            if end > index_len {
                return Err(StoreError::mismatch(
                    &idx_path,
                    format!(
                        "section (kind {}, key {}) spans {}..{end}, file is {index_len} bytes",
                        e.kind, e.key, e.offset
                    ),
                ));
            }
            index.push(e);
        }

        Ok(DiskStore {
            dir: dir.to_path_buf(),
            n_ranks,
            n_events,
            t_lo,
            t_hi,
            sites: SiteTable::from_snapshot(sites),
            segs,
            index,
            sections: Mutex::new(HashMap::new()),
            time_samples: Mutex::new(None),
        })
    }

    pub fn n_events(&self) -> u64 {
        self.n_events
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// Smallest `t_start` and largest `t_end` over all events.
    pub fn time_bounds(&self) -> (u64, u64) {
        (self.t_lo, self.t_hi)
    }

    // ---- section loading ----

    /// Stream index section `e` through `buf`, one `e.entry_bytes`-wide
    /// entry at a time into `each`, and check its checksum after the
    /// last: nothing `each` saw may be trusted unless this returns Ok.
    fn stream_section(
        &self,
        e: &DirEntry,
        buf: &mut [u8],
        mut each: impl FnMut(&[u8]),
    ) -> Result<(), StoreError> {
        let idx_path = self.dir.join(INDEX_FILE);
        let file = File::open(&idx_path).map_err(|e| StoreError::io(&idx_path, e))?;
        let len = e.byte_len().ok_or_else(|| e.overflow(&idx_path))?;
        let width = e.entry_bytes as usize;
        let mut r = Region::new(buf, e.offset, len, "index section");
        while width > 0 && r.fill(&file, &idx_path, width)? {
            each(&r.bytes()[..width]);
            r.consume(width);
        }
        let got = r.crc.value();
        if got != e.crc {
            return Err(StoreError::crc(
                &idx_path,
                format!("index section (kind {}, key {})", e.kind, e.key),
                e.crc,
                got,
            ));
        }
        Ok(())
    }

    fn find_entry(&self, kind: u8, key: i64) -> Option<&DirEntry> {
        self.index.iter().find(|e| e.kind == kind && e.key == key)
    }

    /// Load (or fetch cached) an id-list section. A missing postings
    /// section means "no events with this key" — an empty list.
    fn ids_section(&self, kind: u8, key: i64) -> Result<IdsList, StoreError> {
        if let Some(s) = self.sections.lock().unwrap().get(&(kind, key)) {
            return Ok(s.clone());
        }
        let idx_path = self.dir.join(INDEX_FILE);
        let ids = match self.find_entry(kind, key) {
            None if kind == SEC_CANON => {
                return Err(StoreError::mismatch(
                    &idx_path,
                    "index has no canonical-order section",
                ))
            }
            None => Arc::new(Vec::new()),
            Some(e) => {
                if e.entry_bytes != 4 {
                    return Err(StoreError::mismatch(
                        &idx_path,
                        format!("id section has entry width {}", e.entry_bytes),
                    ));
                }
                // The item count was held to the file's size at open.
                let mut ids = Vec::with_capacity(e.n_items as usize);
                let mut stray = None;
                self.stream_section(e, &mut section_buffer(e), |b| {
                    let id = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                    if id as u64 >= self.n_events {
                        stray.get_or_insert(id);
                    }
                    ids.push(id);
                })?;
                if let Some(id) = stray {
                    return Err(StoreError::mismatch(
                        &idx_path,
                        format!("index references event {id}, store has {}", self.n_events),
                    ));
                }
                Arc::new(ids)
            }
        };
        self.sections
            .lock()
            .unwrap()
            .insert((kind, key), ids.clone());
        Ok(ids)
    }

    /// The sparse `(t_start, canonical position)` samples.
    fn time_section(&self) -> Result<TimeSamples, StoreError> {
        if let Some(s) = self.time_samples.lock().unwrap().as_ref() {
            return Ok(s.clone());
        }
        let idx_path = self.dir.join(INDEX_FILE);
        let samples = match self.index.iter().find(|e| e.kind == SEC_TIME) {
            None => Arc::new(Vec::new()),
            Some(e) => {
                if e.entry_bytes != 16 {
                    return Err(StoreError::mismatch(
                        &idx_path,
                        format!("time section has entry width {}", e.entry_bytes),
                    ));
                }
                let mut v = Vec::with_capacity(e.n_items as usize);
                let mut stray = None;
                self.stream_section(e, &mut section_buffer(e), |b| {
                    let t = u64::from_le_bytes(b[0..8].try_into().unwrap());
                    let pos = u64::from_le_bytes(b[8..16].try_into().unwrap());
                    if pos >= self.n_events {
                        stray.get_or_insert(pos);
                    }
                    v.push((t, pos));
                })?;
                if let Some(pos) = stray {
                    return Err(StoreError::mismatch(
                        &idx_path,
                        format!("time sample points at position {pos} of {}", self.n_events),
                    ));
                }
                Arc::new(v)
            }
        };
        *self.time_samples.lock().unwrap() = Some(samples.clone());
        Ok(samples)
    }

    /// Whether the canonical order is the arrival order — always so for
    /// a store this crate writes — checked by streaming the section
    /// through `buf`, so that `events()` never holds the list. `false`
    /// on anything unexpected: the caller then goes through the list and
    /// its errors.
    fn canonical_is_arrival_order(&self, buf: &mut [u8]) -> bool {
        if let Some(ids) = self.sections.lock().unwrap().get(&(SEC_CANON, 0)) {
            return ids.len() as u64 == self.n_events
                && ids.iter().enumerate().all(|(i, &id)| i == id as usize);
        }
        let Some(e) = self.find_entry(SEC_CANON, 0) else {
            return false;
        };
        if e.entry_bytes != 4 || e.n_items != self.n_events {
            return false;
        }
        let (mut next, mut same) = (0u32, true);
        let streamed = self.stream_section(e, buf, |b| {
            same &= u32::from_le_bytes([b[0], b[1], b[2], b[3]]) == next;
            next = next.wrapping_add(1);
        });
        streamed.is_ok() && same
    }

    // ---- segment walks ----

    fn segment_path(&self, seg_ix: u32) -> PathBuf {
        self.dir.join(segment_file(seg_ix))
    }

    /// The segment holding arrival id `id` (below `n_events`): the last
    /// one starting at or before it, right even if a manifest lists an
    /// empty segment.
    fn segment_of(&self, id: u64) -> usize {
        self.segs.partition_point(|s| s.first_event <= id) - 1
    }

    /// Stream segment `seg_ix` through `buf` and keep the frames `frames`
    /// (indices within the segment, ascending and distinct): their bytes
    /// are appended to `kept`, and one [`Kept`] per frame to `spans`. A
    /// frame's length prefix is held to the payload before a byte of its
    /// body is kept, and `kept` grows by at most the payload's length.
    /// With a `window`, a frame whose body is in the buffer as it passes
    /// and whose span ends before the window (and does not start after
    /// it) is not kept but marked [`Kept::SKIPPED`]: the window cursor
    /// would skip it on that same peek. What the walk kept is only good
    /// if it returns Ok.
    fn keep_frames(
        &self,
        seg_ix: u32,
        frames: impl Iterator<Item = u32>,
        window: Option<(u64, u64)>,
        buf: &mut [u8],
        kept: &mut Vec<u8>,
        spans: &mut Vec<Kept>,
    ) -> Result<(), StoreError> {
        let mut w = SegWalk::open(self, seg_ix, buf)?;
        let payload_len = w.payload_len;
        w.kept_cap = kept.len().saturating_add(payload_len as usize);
        // The payload from `run_at` up to `keep_end` is kept from
        // `kept[run_kept]` on: what the walk has passed of it already,
        // the rest as the walk moves on. The walk moves on only when a
        // frame's prefix lies past the buffer or a kept frame starts past
        // a gap, so frames back to back cost one copy per buffer, and a
        // frame passed over costs no copy at all. Every offset is at or
        // past the walk's position unless the table runs backwards.
        let (mut run_at, mut run_kept, mut keep_end) = (0u64, kept.len(), 0u64);
        for f in frames {
            w.skip_to(f)?;
            let o = w.next_offset()?;
            if o >= payload_len || o < w.pos {
                // Out of bounds, or behind the walk: the table check
                // fails the walk.
                spans.push(Kept::LOST);
                continue;
            }
            if payload_len - o < 4 {
                spans.push(Kept::NO_LENGTH);
                continue;
            }
            if (o - w.pos) as usize + 4 > w.payload.bytes().len() {
                w.advance(o, keep_end, kept)?;
                w.payload.fill(&w.file, &w.path, 4)?;
            }
            let d = (o - w.pos) as usize;
            let ahead = w.payload.bytes();
            let len = u32::from_le_bytes([ahead[d], ahead[d + 1], ahead[d + 2], ahead[d + 3]]);
            let len = len as u64;
            if len > payload_len - o - 4 {
                spans.push(Kept::PAST_END);
                continue;
            }
            if let Some((lo, hi)) = window {
                let body = ahead.get(d + 4..d + 4 + len as usize);
                let span = body.and_then(peek_span);
                if matches!(span, Some((t_start, t_end)) if t_start <= hi && t_end < lo) {
                    spans.push(Kept::SKIPPED);
                    continue;
                }
            }
            if o > keep_end {
                w.advance(o, keep_end, kept)?;
                (run_at, run_kept) = (o, kept.len());
            }
            keep_end = keep_end.max(o + 4 + len);
            spans.push(Kept((run_kept + (o - run_at) as usize) as u64));
        }
        w.advance(keep_end, keep_end, kept)?;
        w.finish()
    }

    /// Decode every frame of segment `seg_ix`, in frame order, into
    /// `each(arrival id, record)`. Frames laid back to back, as the
    /// writer lays them, are decoded straight out of the walk buffer; a
    /// segment laid out any other way, one with a frame larger than the
    /// buffer, or one that fails a check is walked again through
    /// [`DiskStore::keep_frames`], which gives the answer and the error.
    /// So `each` may see a segment's first frames twice, always in order
    /// from its first; a record it sees is only good if this returns Ok.
    fn each_frame(
        &self,
        seg_ix: u32,
        walk: &mut WalkBufs,
        mut each: impl FnMut(u64, TraceRecord),
    ) -> Result<(), StoreError> {
        walk.ready();
        let meta = &self.segs[seg_ix as usize];
        let first = meta.first_event;
        if self.decode_in_place(seg_ix, &mut walk.buf, &mut |i, rec| each(first + i, rec)) {
            return Ok(());
        }
        let frames = 0..meta.frames;
        self.keep_frames(
            seg_ix,
            frames,
            None,
            &mut walk.buf,
            &mut walk.kept,
            &mut walk.spans,
        )?;
        for (i, span) in walk.spans.iter().enumerate() {
            let rec = span
                .body(&walk.kept)
                .and_then(decode_body)
                .map_err(|e| self.frame_error(seg_ix, e))?;
            each(first + i as u64, rec);
        }
        Ok(())
    }

    /// [`DiskStore::each_frame`]'s fast path: `true` if every frame lay
    /// where the one before it ended, fit the buffer and decoded, and the
    /// segment passed its checks.
    fn decode_in_place(
        &self,
        seg_ix: u32,
        buf: &mut [u8],
        each: &mut impl FnMut(u64, TraceRecord),
    ) -> bool {
        let Ok(mut w) = SegWalk::open(self, seg_ix, buf) else {
            return false;
        };
        let room = w.payload.buf.len();
        for i in 0..w.frames {
            if !matches!(w.next_offset(), Ok(o) if o == w.pos) {
                return false;
            }
            if !matches!(w.payload.fill(&w.file, &w.path, 4), Ok(true)) {
                return false;
            }
            let b = w.payload.bytes();
            let frame = 4 + u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
            if frame > room || !matches!(w.payload.fill(&w.file, &w.path, frame), Ok(true)) {
                return false;
            }
            let Ok(rec) = frame_body(w.payload.bytes()).and_then(decode_body) else {
                return false;
            };
            w.payload.consume(frame);
            w.pos += frame as u64;
            each(i as u64, rec);
        }
        w.finish().is_ok()
    }

    /// Decode the event with arrival id `id`: one walk of its segment.
    pub fn fetch(&self, id: u64) -> Result<TraceRecord, StoreError> {
        let Some(ix) = u32::try_from(id)
            .ok()
            .filter(|&i| (i as u64) < self.n_events)
        else {
            return Err(StoreError::mismatch(
                &self.dir,
                format!("event id {id} out of range ({} events)", self.n_events),
            ));
        };
        let mut cursor = EventCursor::new(self, Arc::new(vec![ix]), None, None);
        cursor.next().expect("a cursor over one id yields once")
    }

    /// Name the file only once there is an error to report: the hot path
    /// formats no path.
    #[cold]
    fn frame_error(&self, seg_ix: u32, e: FrameError) -> StoreError {
        e.at(&self.segment_path(seg_ix))
    }

    /// Whether `ids` visits the segments in file order, each in one run.
    fn in_file_order(&self, ids: &[u32]) -> bool {
        let (mut lo, mut hi) = (0u64, 0u64);
        for &id in ids {
            let id = id as u64;
            if id >= lo && id < hi {
                continue;
            }
            if id < lo {
                return false;
            }
            let meta = &self.segs[self.segment_of(id)];
            (lo, hi) = (meta.first_event, meta.end_event());
        }
        true
    }

    // ---- queries ----

    /// Stream the events matching `sel` (see [`Select`] for the order
    /// contract). Segments are walked as the cursor reaches them, and
    /// each frame is decoded as it is yielded.
    pub fn cursor(&self, sel: Select) -> Result<EventCursor<'_>, StoreError> {
        let ids = match sel {
            Select::All | Select::TimeWindow(..) => self.ids_section(SEC_CANON, 0)?,
            Select::Rank(r) if r.ix() >= self.n_ranks => Arc::new(Vec::new()),
            Select::Rank(r) => self.ids_section(SEC_RANK, r.0 as i64)?,
            Select::Tag(t) => self.ids_section(SEC_TAG, t.0 as i64)?,
            Select::Kind(k) => self.ids_section(SEC_KIND, kind_code(k) as i64)?,
        };
        let window = match sel {
            Select::TimeWindow(lo, hi) => Some((lo, hi)),
            _ => None,
        };
        let mut end = None;
        if let Some((_, hi)) = window {
            // Sparse cutoff: the first sample past `hi` bounds the
            // canonical prefix that can possibly start within the
            // window; the cursor still early-stops exactly.
            let samples = self.time_section()?;
            if let Some(&(_, pos)) = samples.get(samples.partition_point(|&(t, _)| t <= hi)) {
                end = Some(pos as usize);
            }
        }
        Ok(EventCursor::new(self, ids, end, window))
    }

    /// One rank's events, program (marker) order.
    pub fn by_rank(&self, rank: Rank) -> Result<EventCursor<'_>, StoreError> {
        self.cursor(Select::Rank(rank))
    }

    /// Events carrying `tag`, canonical order.
    pub fn by_tag(&self, tag: Tag) -> Result<EventCursor<'_>, StoreError> {
        self.cursor(Select::Tag(tag))
    }

    /// Events of construct `kind`, canonical order.
    pub fn by_construct(&self, kind: EventKind) -> Result<EventCursor<'_>, StoreError> {
        self.cursor(Select::Kind(kind))
    }

    /// Events whose span intersects `[lo, hi]`, canonical order.
    pub fn by_time_window(&self, lo: u64, hi: u64) -> Result<EventCursor<'_>, StoreError> {
        self.cursor(Select::TimeWindow(lo, hi))
    }

    /// Full integrity pass: every section is loaded and CRC-checked,
    /// every segment walked, checked and decoded, and everything
    /// cross-checked against the manifest. Expensive by design — this is
    /// the corruption audit, not the query path.
    pub fn verify(&self) -> Result<(), StoreError> {
        let idx_path = self.dir.join(INDEX_FILE);
        // Canonical order must be a permutation of all arrival ids.
        let canon = self.ids_section(SEC_CANON, 0)?;
        if canon.len() as u64 != self.n_events {
            return Err(StoreError::mismatch(
                &idx_path,
                format!(
                    "canonical section lists {} of {} events",
                    canon.len(),
                    self.n_events
                ),
            ));
        }
        let mut seen = vec![false; canon.len()];
        for &id in canon.iter() {
            if seen[id as usize] {
                return Err(StoreError::mismatch(
                    &idx_path,
                    format!("event {id} appears twice in canonical order"),
                ));
            }
            seen[id as usize] = true;
        }
        // Every other id section must load (bounds + crc checked there).
        let entries: Vec<DirEntry> = self.index.clone();
        let mut rank_total = 0u64;
        for e in &entries {
            match e.kind {
                SEC_CANON | SEC_TIME => {}
                SEC_RANK | SEC_TAG | SEC_KIND => {
                    let ids = self.ids_section(e.kind, e.key)?;
                    if e.kind == SEC_RANK {
                        rank_total += ids.len() as u64;
                    }
                }
                other => {
                    return Err(StoreError::mismatch(
                        &idx_path,
                        format!("unknown index section kind {other}"),
                    ));
                }
            }
        }
        if rank_total != self.n_events {
            return Err(StoreError::mismatch(
                &idx_path,
                format!(
                    "rank postings cover {rank_total} of {} events",
                    self.n_events
                ),
            ));
        }
        // Every frame of every segment must decode, and the time samples
        // must agree with the records they point at: `(arrival id,
        // t_start, canonical position)`, checked as the frames pass.
        let mut samples: Vec<(u64, u64, u64)> = self
            .time_section()?
            .iter()
            .map(|&(t, pos)| (canon[pos as usize] as u64, t, pos))
            .collect();
        samples.sort_unstable();
        let mut walk = WalkBufs::default();
        // The first sample whose id is not below the last record seen;
        // a segment walked a second time starts it over.
        let (mut next, mut last) = (0, None);
        for seg_ix in 0..self.segs.len() as u32 {
            let mut off = None;
            self.each_frame(seg_ix, &mut walk, |id, rec| {
                if last.is_some_and(|l| id <= l) {
                    next = samples.partition_point(|s| s.0 < id);
                }
                last = Some(id);
                while samples.get(next).is_some_and(|s| s.0 < id) {
                    next += 1;
                }
                while let Some(&(_, t, pos)) = samples.get(next).filter(|s| s.0 == id) {
                    if rec.t_start != t && off.is_none() {
                        off = Some((pos, t, rec.t_start));
                    }
                    next += 1;
                }
            })?;
            if let Some((pos, t, got)) = off {
                return Err(StoreError::mismatch(
                    &idx_path,
                    format!("time sample at position {pos} says t_start {t}, record says {got}"),
                ));
            }
        }
        Ok(())
    }
}

/// Where a kept frame starts in a walk's kept bytes — its length
/// prefix, then its body, both kept — or why its prefix gives it no body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Kept(u64);

impl Kept {
    /// Fewer than four payload bytes from the frame's offset on.
    const NO_LENGTH: Kept = Kept(u64::MAX);
    /// The length prefix runs past the end of the payload.
    const PAST_END: Kept = Kept(u64::MAX - 1);
    /// The offset breaks the table's order; the walk that met it fails.
    const LOST: Kept = Kept(u64::MAX - 2);
    /// Not kept: the frame ends before the cursor's window.
    const SKIPPED: Kept = Kept(u64::MAX - 3);

    /// The frame's body in `kept`: what [`frame_body`] gives for the
    /// payload from the frame's offset on.
    #[inline]
    fn body(self, kept: &[u8]) -> Result<&[u8], FrameError> {
        match self {
            Kept::NO_LENGTH => Err(FrameError::Truncated("frame length")),
            Kept::PAST_END => Err(FrameError::Truncated("frame body")),
            Kept::LOST => Err(FrameError::Mismatch("frame offset out of order".into())),
            Kept::SKIPPED => Err(FrameError::Mismatch("frame skipped on its span".into())),
            Kept(at) => frame_body(&kept[at as usize..]),
        }
    }
}

/// The buffers a reader walks segments with: the one walk buffer, the
/// bytes of the frames it keeps, and where each one's body lies.
#[derive(Default)]
struct WalkBufs {
    buf: Vec<u8>,
    kept: Vec<u8>,
    spans: Vec<Kept>,
}

impl WalkBufs {
    fn ready(&mut self) {
        if self.buf.is_empty() {
            self.buf = vec![0; WALK_BUF];
        }
        self.kept.clear();
        self.spans.clear();
    }
}

/// One stretch of a file read front to back through a slice of a walk
/// buffer, folded into its checksum as its bytes arrive.
struct Region<'b> {
    buf: &'b mut [u8],
    /// The bytes read and not yet consumed are `buf[lo..hi]`.
    lo: usize,
    hi: usize,
    /// File offset of the first byte not yet read, and how many are left.
    at: u64,
    left: u64,
    crc: Crc32,
    what: &'static str,
}

impl<'b> Region<'b> {
    fn new(buf: &'b mut [u8], at: u64, len: u64, what: &'static str) -> Self {
        Region {
            buf,
            lo: 0,
            hi: 0,
            at,
            left: len,
            crc: Crc32::new(),
            what,
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.lo..self.hi]
    }

    fn consume(&mut self, n: usize) {
        self.lo += n;
    }

    /// Have at least `n` (at most the buffer's length) unconsumed bytes
    /// at hand, reading as far on as the buffer allows; `false` if the
    /// stretch ends first.
    #[inline]
    fn fill(&mut self, file: &File, path: &Path, n: usize) -> Result<bool, StoreError> {
        if self.hi - self.lo >= n {
            return Ok(true);
        }
        self.read_more(file, path, n)
    }

    #[inline(never)]
    fn read_more(&mut self, file: &File, path: &Path, n: usize) -> Result<bool, StoreError> {
        if self.left == 0 {
            return Ok(false);
        }
        self.buf.copy_within(self.lo..self.hi, 0);
        (self.hi, self.lo) = (self.hi - self.lo, 0);
        let k = ((self.buf.len() - self.hi) as u64).min(self.left) as usize;
        let fresh = &mut self.buf[self.hi..self.hi + k];
        read_at(file, self.at, fresh).map_err(|e| StoreError::from_read(path, self.what, e))?;
        self.crc.update(fresh);
        self.hi += k;
        self.at += k as u64;
        self.left -= k as u64;
        Ok(self.hi - self.lo >= n)
    }
}

/// One segment streamed once, front to back: its offset table and its
/// payload read in step through one buffer, each folded into its
/// checksum as it passes, a frame's offset read just before the payload
/// reaches the frame. The checks that need the whole segment — both
/// checksums and the table's order — are [`SegWalk::finish`]'s.
struct SegWalk<'b> {
    file: File,
    path: PathBuf,
    frames: u32,
    payload_len: u64,
    offsets_crc: u32,
    payload_crc: u32,
    table: Region<'b>,
    payload: Region<'b>,
    /// Payload position of the first unconsumed payload byte.
    pos: u64,
    /// Offsets read so far, the last of them, and the first one that
    /// broke the order (ascending, inside the payload).
    read: u32,
    last: u32,
    disorder: Option<u32>,
    /// The most `advance` lets its `kept` grow to.
    kept_cap: usize,
}

impl<'b> SegWalk<'b> {
    fn open(store: &DiskStore, seg_ix: u32, buf: &'b mut [u8]) -> Result<Self, StoreError> {
        let meta = &store.segs[seg_ix as usize];
        let path = store.segment_path(seg_ix);
        let file = File::open(&path).map_err(|e| StoreError::io(&path, e))?;
        let (table_buf, payload_buf) = buf.split_at_mut(TABLE_SHARE);
        let table_at = SEGMENT_HEADER_LEN as u64;
        let table_len = 4 * meta.frames as u64;
        Ok(SegWalk {
            file,
            path,
            frames: meta.frames,
            payload_len: meta.payload_len,
            offsets_crc: meta.offsets_crc,
            payload_crc: meta.payload_crc,
            table: Region::new(table_buf, table_at, table_len, "segment offset table"),
            payload: Region::new(
                payload_buf,
                table_at + table_len,
                meta.payload_len,
                "segment payload",
            ),
            pos: 0,
            read: 0,
            last: 0,
            disorder: None,
            kept_cap: usize::MAX,
        })
    }

    /// The next frame's offset (below the frame count), held to the
    /// order as it passes; a break is [`SegWalk::finish`]'s error.
    #[inline]
    fn next_offset(&mut self) -> Result<u64, StoreError> {
        if !self.table.fill(&self.file, &self.path, 4)? {
            return Err(StoreError::truncated(&self.path, "segment offset table"));
        }
        let b = self.table.bytes();
        let o = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        self.table.consume(4);
        self.check(o);
        Ok(o as u64)
    }

    /// Read the offsets of the frames before frame `f`, holding each to
    /// the order, a buffer's worth at a time.
    fn skip_to(&mut self, f: u32) -> Result<(), StoreError> {
        while self.read < f {
            if !self.table.fill(&self.file, &self.path, 4)? {
                return Err(StoreError::truncated(&self.path, "segment offset table"));
            }
            let n = (self.table.bytes().len() / 4).min((f - self.read) as usize);
            let (lo, hi) = (self.table.lo, self.table.lo + 4 * n);
            for i in (lo..hi).step_by(4) {
                let b = &self.table.buf[i..i + 4];
                self.check(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            }
            self.table.consume(4 * n);
        }
        Ok(())
    }

    /// Count offset `o` read and hold it to the order: ascending, inside
    /// the payload.
    #[inline(always)]
    fn check(&mut self, o: u32) {
        let out = o as u64 >= self.payload_len.max(1) || (self.read > 0 && o <= self.last);
        if out && self.disorder.is_none() {
            self.disorder = Some(o);
        }
        self.read += 1;
        self.last = o;
    }

    /// Move the payload on to position `to` (at most its length),
    /// appending what passes below `keep_end` to `kept`.
    #[inline]
    fn advance(&mut self, to: u64, keep_end: u64, kept: &mut Vec<u8>) -> Result<(), StoreError> {
        while self.pos < to {
            if !self.payload.fill(&self.file, &self.path, 1)? {
                return Err(StoreError::truncated(&self.path, "segment payload"));
            }
            let n = (self.payload.hi - self.payload.lo).min((to - self.pos) as usize);
            if self.pos < keep_end {
                let k = n.min((keep_end - self.pos) as usize);
                if kept.capacity() - kept.len() < k {
                    self.grow(kept, k);
                }
                kept.extend_from_slice(&self.payload.bytes()[..k]);
            }
            self.payload.consume(n);
            self.pos += n as u64;
        }
        Ok(())
    }

    /// Make room for `k` more kept bytes: double, but never past what
    /// the payload can fill.
    #[cold]
    fn grow(&self, kept: &mut Vec<u8>, k: usize) {
        let cap = self.kept_cap.saturating_sub(kept.len()).max(k);
        kept.reserve_exact(kept.capacity().max(k).min(cap));
    }

    /// Read the rest of the segment and make the checks that need all of
    /// it, in the order a reader reports them: the offset table's
    /// checksum, the payload's, the table's order.
    fn finish(mut self) -> Result<(), StoreError> {
        self.skip_to(self.frames)?;
        self.advance(self.payload_len, 0, &mut Vec::new())?;
        let got = self.table.crc.value();
        if got != self.offsets_crc {
            return Err(StoreError::crc(
                &self.path,
                "segment offset table",
                self.offsets_crc,
                got,
            ));
        }
        let got = self.payload.crc.value();
        if got != self.payload_crc {
            return Err(StoreError::crc(
                &self.path,
                "segment payload",
                self.payload_crc,
                got,
            ));
        }
        if let Some(o) = self.disorder {
            return Err(StoreError::mismatch(
                &self.path,
                format!("frame offset {o} out of order or out of bounds"),
            ));
        }
        Ok(())
    }
}

/// A lazy iterator over a selection's events.
pub struct EventCursor<'a> {
    store: &'a DiskStore,
    ids: IdsList,
    pos: usize,
    /// The cursor visits `ids[pos..end]`.
    end: usize,
    /// Set for time-window selections: `(lo, hi)` span filter with
    /// early stop once `t_start` passes `hi`.
    window: Option<(u64, u64)>,
    done: bool,
    /// Whether `ids[..end]` visits the segments in file order: then a
    /// batch is one segment's run of ids, else everything left.
    in_file_order: bool,
    batch: Batch,
    /// Frames fully decoded so far: what the work-count tests pin.
    #[cfg(test)]
    decoded: usize,
}

/// The ids a cursor walked for at once and what the walks kept.
#[derive(Default)]
struct Batch {
    /// The batch answers the list from `start` up to `end`.
    start: usize,
    end: usize,
    /// Its distinct ids, ascending, when its run of the list is not:
    /// `walk.spans[k]` is the frame of `ids[k]`, or of the list's
    /// `start + k`th id when `ids` is empty.
    ids: Vec<u32>,
    walk: WalkBufs,
    /// Segments whose walk failed, and the error, given to the first of
    /// their ids the cursor reaches.
    failed: Vec<(usize, Option<StoreError>)>,
    /// Where the last lookup in `ids` landed: the next usually follows.
    hint: usize,
}

impl<'a> EventCursor<'a> {
    fn new(
        store: &'a DiskStore,
        ids: IdsList,
        end: Option<usize>,
        window: Option<(u64, u64)>,
    ) -> Self {
        let end = end.map_or(ids.len(), |e| e.min(ids.len()));
        EventCursor {
            store,
            in_file_order: store.in_file_order(&ids[..end]),
            ids,
            pos: 0,
            end,
            window,
            done: false,
            batch: Batch::default(),
            #[cfg(test)]
            decoded: 0,
        }
    }

    /// Ids this cursor will visit (before any window filtering).
    pub fn remaining_ids(&self) -> usize {
        if self.done {
            0
        } else {
            self.end - self.pos
        }
    }

    /// Walk the segments of the next batch of ids, from `pos` on.
    fn next_batch(&mut self) {
        let store = self.store;
        let b = &mut self.batch;
        let mut list = &self.ids[self.pos..self.end];
        if self.in_file_order {
            let meta = &store.segs[store.segment_of(list[0] as u64)];
            let run = list
                .iter()
                .position(|&id| !(meta.first_event..meta.end_event()).contains(&(id as u64)));
            list = &list[..run.unwrap_or(list.len())];
        }
        (b.start, b.end, b.hint) = (self.pos, self.pos + list.len(), 0);
        // A list that ascends is its own lookup table; any other is
        // sorted once for the walks.
        b.ids.clear();
        if !list.windows(2).all(|p| p[0] < p[1]) {
            b.ids.extend_from_slice(list);
            b.ids.sort_unstable();
            b.ids.dedup();
        }
        let sel = if b.ids.is_empty() { list } else { &b.ids[..] };
        b.walk.ready();
        b.failed.clear();
        // One walk per segment, in file order.
        let mut at = 0;
        while at < sel.len() {
            let seg_ix = store.segment_of(sel[at] as u64);
            let meta = &store.segs[seg_ix];
            let n = sel[at..].partition_point(|&id| (id as u64) < meta.end_event());
            let frames = sel[at..at + n]
                .iter()
                .map(|&id| (id as u64 - meta.first_event) as u32);
            let w = &mut b.walk;
            let spans_at = w.spans.len();
            let walked = store.keep_frames(
                seg_ix as u32,
                frames,
                self.window,
                &mut w.buf,
                &mut w.kept,
                &mut w.spans,
            );
            if let Err(e) = walked {
                w.spans.truncate(spans_at);
                w.spans.resize(spans_at + n, Kept::LOST);
                b.failed.push((seg_ix, Some(e)));
            }
            at += n;
        }
    }

    /// The error that ends the cursor at `id`, whose frame is `kept`.
    #[cold]
    fn failure(&mut self, id: u32, kept: Kept) -> StoreError {
        self.done = true;
        let seg_ix = self.store.segment_of(id as u64);
        let failed = self.batch.failed.iter_mut().find(|(s, _)| *s == seg_ix);
        match failed.and_then(|(_, e)| e.take()) {
            Some(e) => e,
            None => {
                let e = kept
                    .body(&self.batch.walk.kept)
                    .expect_err("a frame with no body");
                self.store.frame_error(seg_ix as u32, e)
            }
        }
    }
}

impl Iterator for EventCursor<'_> {
    type Item = Result<TraceRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done && self.pos < self.end {
            if self.pos >= self.batch.end {
                self.next_batch();
            }
            let id = self.ids[self.pos];
            self.pos += 1;
            let b = &mut self.batch;
            let k = if b.ids.is_empty() {
                self.pos - 1 - b.start
            } else {
                let k = match b.ids.get(b.hint) {
                    Some(&hit) if hit == id => b.hint,
                    _ => b.ids.binary_search(&id).expect("a batch holds its ids"),
                };
                b.hint = k + 1;
                k
            };
            let kept = b.walk.spans[k];
            if kept == Kept::SKIPPED {
                continue;
            }
            let Ok(body) = kept.body(&b.walk.kept) else {
                return Some(Err(self.failure(id, kept)));
            };
            if let Some((lo, hi)) = self.window {
                // The span sits at a fixed place in the (checksummed)
                // body; one too short to hold it goes on to the decoder
                // and its error.
                if let Some((t_start, t_end)) = peek_span(body) {
                    if t_start > hi {
                        // Canonical order is sorted by t_start: no later
                        // event can intersect the window. The frame that
                        // ends the scan has to be a well-formed one.
                        self.done = true;
                        #[cfg(test)]
                        {
                            self.decoded += 1;
                        }
                        let e = decode_body(body).err()?;
                        let seg_ix = self.store.segment_of(id as u64) as u32;
                        return Some(Err(self.store.frame_error(seg_ix, e)));
                    }
                    if t_end < lo {
                        continue;
                    }
                }
            }
            #[cfg(test)]
            {
                self.decoded += 1;
            }
            return Some(decode_body(body).map_err(|e| {
                self.done = true;
                let seg_ix = self.store.segment_of(id as u64) as u32;
                self.store.frame_error(seg_ix, e)
            }));
        }
        None
    }

    /// At most one event per remaining id; exactly that many when no
    /// window filters them (a decode error ends the stream early).
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining_ids();
        (if self.window.is_some() { 0 } else { n }, Some(n))
    }
}

impl TraceSource for DiskStore {
    fn source_n_ranks(&self) -> usize {
        self.n_ranks
    }

    fn source_len(&self) -> u64 {
        self.n_events
    }

    fn source_sites(&self) -> SiteTable {
        self.sites.clone()
    }

    fn source_time_bounds(&self) -> Result<(u64, u64), SourceError> {
        Ok((self.t_lo, self.t_hi))
    }

    fn select(&self, sel: Select) -> Result<EventIter<'_>, SourceError> {
        let cur = self.cursor(sel).map_err(SourceError::from)?;
        Ok(Box::new(cur.map(|r| r.map_err(SourceError::from))))
    }

    /// Everything, decoded straight out of the walk buffer into one
    /// allocation of the final size: what `materialize` pays. A store in
    /// canonical order (every store this crate writes) is walked segment
    /// by segment with nothing held but the output and the buffer; any
    /// other goes through the canonical list's cursor.
    fn events(&self) -> Result<Vec<TraceRecord>, SourceError> {
        let mut walk = WalkBufs::default();
        walk.ready();
        if !self.canonical_is_arrival_order(&mut walk.buf) {
            let cursor = self.cursor(Select::All)?;
            let mut out = Vec::with_capacity(cursor.remaining_ids());
            for rec in cursor {
                out.push(rec?);
            }
            return Ok(out);
        }
        let mut out = Vec::with_capacity(self.n_events as usize);
        for seg_ix in 0..self.segs.len() as u32 {
            // A segment walked twice starts over at its first id.
            self.each_frame(seg_ix, &mut walk, |id, rec| {
                out.truncate(id as usize);
                out.push(rec);
            })?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TIME_STRIDE;
    use crate::writer::{ingest_records, StoreOptions};

    /// 10 000 events on four ranks, ten time units apart, each five long,
    /// in three segments.
    fn store_10k(label: &str) -> (PathBuf, DiskStore) {
        let recs: Vec<TraceRecord> = (0..10_000u64)
            .map(|i| {
                TraceRecord::basic((i % 4) as u32, EventKind::Compute, i / 4 + 1, i * 10)
                    .with_span(i * 10, i * 10 + 5)
            })
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "tracedbg-store-unit-{label}-{}",
            std::process::id()
        ));
        let opts = StoreOptions {
            segment_events: 4096,
        };
        ingest_records(&recs, &SiteTable::new(), 4, &dir, opts).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn a_late_window_decodes_what_it_returns_not_what_precedes_it() {
        let (dir, store) = store_10k("late-window");
        let (lo, hi) = store.time_bounds();
        let mut cursor = store.by_time_window(hi - (hi - lo) / 8, hi).unwrap();
        let matches = cursor.by_ref().filter(|r| r.is_ok()).count();
        assert!((1_249..=1_251).contains(&matches), "{matches} matches");
        // Seven eighths of the store precede the window and are skipped
        // on their peeked span; the bound leaves room for the frames a
        // sparse index could only ever save (a sample stride either end).
        assert!(
            cursor.decoded <= matches + 2 * TIME_STRIDE as usize,
            "decoded {} frames for {matches} matches",
            cursor.decoded
        );
        drop(cursor);
        // An early window is cut by the sparse index and stops on the
        // first frame past it: one decode more than it returns.
        let mut cursor = store.by_time_window(lo, lo + 95).unwrap();
        assert_eq!(cursor.remaining_ids(), TIME_STRIDE as usize);
        assert_eq!(cursor.by_ref().count(), 10);
        assert_eq!(cursor.decoded, 11);
        drop(cursor);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_size_hint_is_the_remaining_ids_and_collecting_allocates_once() {
        let (dir, store) = store_10k("size-hint");
        let mut cursor = store.cursor(Select::All).unwrap();
        assert_eq!(cursor.size_hint(), (10_000, Some(10_000)));
        cursor.next().unwrap().unwrap();
        assert_eq!(cursor.size_hint(), (9_999, Some(cursor.remaining_ids())));
        // A window may filter any of its ids away: no lower bound.
        let cursor = store.by_time_window(50_000, 60_000).unwrap();
        assert_eq!(cursor.size_hint(), (0, Some(cursor.remaining_ids())));
        // The hint survives the boxed `select` adapter, so what
        // `materialize` and the collecting accessors build is allocated
        // once, at its final size.
        let src: &dyn TraceSource = &store;
        assert_eq!(
            src.select(Select::Rank(Rank(1))).unwrap().size_hint(),
            (2_500, Some(2_500))
        );
        let events = src.events().unwrap();
        assert_eq!((events.len(), events.capacity()), (10_000, 10_000));
        let lane = src.by_rank(Rank(1)).unwrap();
        assert_eq!((lane.len(), lane.capacity()), (2_500, 2_500));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
