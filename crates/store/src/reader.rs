//! Opening and querying a store directory.
//!
//! [`DiskStore::open`] is cheap by design: it reads the manifest in full
//! (small — run metadata plus the site table), the index *directory* (a
//! few dozen fixed-width entries), and each segment's 40-byte header.
//! Everything else — index sections, segment payloads — is loaded lazily
//! on first touch and CRC-verified at that point, so opening a
//! multi-million-event store costs well under a millisecond while no
//! corruption can ever reach a caller as silent garbage.
//!
//! Queries return [`EventCursor`]s that decode one frame at a time;
//! nothing materializes the whole trace unless the caller collects it.
//! A loaded segment is the buffer `fs::read` returned — offsets and
//! frames are read from it in place — so a cold selection costs one read
//! and one checksum pass per segment it touches plus one decode per
//! event it returns.

use crate::crc::crc32;
use crate::error::StoreError;
use crate::frame::{decode_body, frame_body, kind_code, FrameError};
use crate::layout::{
    segment_file, Cursor, DIR_ENTRY_LEN, INDEX_FILE, INDEX_MAGIC, MANIFEST_FILE, MANIFEST_MAGIC,
    SEC_CANON, SEC_KIND, SEC_RANK, SEC_TAG, SEC_TIME, SEGMENT_HEADER_LEN, SEGMENT_MAGIC, VERSION,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tracedbg_trace::file::peek_span;
use tracedbg_trace::{
    EventIter, EventKind, Rank, Select, SiteTable, SourceError, SourceLoc, Tag, TraceRecord,
    TraceSource,
};

/// How many decoded segments the in-memory cache keeps (FIFO).
const SEGMENT_CACHE_CAP: usize = 16;

/// Metadata of one segment, from the manifest + its validated header.
#[derive(Clone, Debug)]
struct SegMeta {
    first_event: u64,
    frames: u32,
    payload_len: u64,
    payload_crc: u32,
    offsets_crc: u32,
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

/// A fully loaded, CRC-verified segment: the file as read, nothing
/// copied out of it.
struct LoadedSeg {
    bytes: Vec<u8>,
    /// Where the payload lies in `bytes`; the offset table (validated at
    /// load: ascending, inside the payload) sits between header and it.
    payload: Range<usize>,
}

impl LoadedSeg {
    /// The payload from frame `i`'s length prefix on, for `i` below the
    /// segment's frame count.
    fn frame(&self, i: usize) -> &[u8] {
        let at = SEGMENT_HEADER_LEN + 4 * i;
        let b = &self.bytes[at..at + 4];
        let off = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        &self.bytes[self.payload.start + off..self.payload.end]
    }
}

type IdsList = Arc<Vec<u32>>;
type TimeSamples = Arc<Vec<(u64, u64)>>;

#[derive(Default)]
struct SegCache {
    map: HashMap<u32, Arc<LoadedSeg>>,
    fifo: VecDeque<u32>,
}

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
    seg_cache: Mutex<SegCache>,
    sections: Mutex<HashMap<(u8, i64), IdsList>>,
    time_samples: Mutex<Option<TimeSamples>>,
}

fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    std::fs::read(path).map_err(|e| StoreError::io(path, e))
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
            seg_cache: Mutex::new(SegCache::default()),
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

    fn read_section_bytes(&self, e: &DirEntry) -> Result<Vec<u8>, StoreError> {
        let idx_path = self.dir.join(INDEX_FILE);
        let mut f = std::fs::File::open(&idx_path).map_err(|e| StoreError::io(&idx_path, e))?;
        f.seek(SeekFrom::Start(e.offset))
            .map_err(|err| StoreError::io(&idx_path, err))?;
        let len = e.byte_len().ok_or_else(|| e.overflow(&idx_path))?;
        let mut buf = vec![0u8; len as usize];
        f.read_exact(&mut buf)
            .map_err(|err| StoreError::from_read(&idx_path, "index section", err))?;
        let got = crc32(&buf);
        if got != e.crc {
            return Err(StoreError::crc(
                &idx_path,
                format!("index section (kind {}, key {})", e.kind, e.key),
                e.crc,
                got,
            ));
        }
        Ok(buf)
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
                let bytes = self.read_section_bytes(e)?;
                let mut ids = Vec::with_capacity(e.n_items as usize);
                for ch in bytes.chunks_exact(4) {
                    let id = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
                    if id as u64 >= self.n_events {
                        return Err(StoreError::mismatch(
                            &idx_path,
                            format!("index references event {id}, store has {}", self.n_events),
                        ));
                    }
                    ids.push(id);
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
                let bytes = self.read_section_bytes(e)?;
                let mut v = Vec::with_capacity(e.n_items as usize);
                for ch in bytes.chunks_exact(16) {
                    let t = u64::from_le_bytes(ch[0..8].try_into().unwrap());
                    let pos = u64::from_le_bytes(ch[8..16].try_into().unwrap());
                    if pos >= self.n_events {
                        return Err(StoreError::mismatch(
                            &idx_path,
                            format!("time sample points at position {pos} of {}", self.n_events),
                        ));
                    }
                    v.push((t, pos));
                }
                Arc::new(v)
            }
        };
        *self.time_samples.lock().unwrap() = Some(samples.clone());
        Ok(samples)
    }

    // ---- segment loading ----

    fn segment_path(&self, seg_ix: u32) -> PathBuf {
        self.dir.join(segment_file(seg_ix))
    }

    fn load_segment(&self, seg_ix: u32) -> Result<Arc<LoadedSeg>, StoreError> {
        {
            let cache = self.seg_cache.lock().unwrap();
            if let Some(s) = cache.map.get(&seg_ix) {
                return Ok(s.clone());
            }
        }
        let meta = &self.segs[seg_ix as usize];
        let path = self.segment_path(seg_ix);
        let bytes = read_file(&path)?;
        let mut c = Cursor::new(&bytes, &path);
        c.take(SEGMENT_HEADER_LEN, "segment header")?;
        let offsets = c.take(4 * meta.frames as usize, "segment offset table")?;
        let got = crc32(offsets);
        if got != meta.offsets_crc {
            return Err(StoreError::crc(
                &path,
                "segment offset table",
                meta.offsets_crc,
                got,
            ));
        }
        let payload_start = c.pos();
        let payload = c.take(meta.payload_len as usize, "segment payload")?;
        let got = crc32(payload);
        if got != meta.payload_crc {
            return Err(StoreError::crc(
                &path,
                "segment payload",
                meta.payload_crc,
                got,
            ));
        }
        let mut prev = 0u32;
        for (i, ch) in offsets.chunks_exact(4).enumerate() {
            let o = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
            if o as u64 >= meta.payload_len.max(1) || (i > 0 && o <= prev) {
                return Err(StoreError::mismatch(
                    &path,
                    format!("frame offset {o} out of order or out of bounds"),
                ));
            }
            prev = o;
        }
        let payload = payload_start..payload_start + payload.len();
        let loaded = Arc::new(LoadedSeg { bytes, payload });
        let mut cache = self.seg_cache.lock().unwrap();
        if !cache.map.contains_key(&seg_ix) {
            while cache.fifo.len() >= SEGMENT_CACHE_CAP {
                if let Some(old) = cache.fifo.pop_front() {
                    cache.map.remove(&old);
                }
            }
            cache.fifo.push_back(seg_ix);
            cache.map.insert(seg_ix, loaded.clone());
        }
        Ok(loaded)
    }

    /// Decode the event with arrival id `id`.
    pub fn fetch(&self, id: u64) -> Result<TraceRecord, StoreError> {
        let mut memo = None;
        let (body, seg_ix) = self.body_memo(id, &mut memo)?;
        decode_body(body).map_err(|e| self.frame_error(seg_ix, e))
    }

    /// The body of event `id`'s frame and the index of its segment,
    /// through a caller-held segment memo. Index selections visit ids in
    /// ascending arrival order, so consecutive calls almost always land
    /// in the same segment; the memo skips the segment binary search and
    /// the shared cache lock on those hits. Inlined into the cursor's
    /// `next` by force: as calls, this and `decode_body` each cost a copy
    /// of the record per event (43 → 30 ns per event, measured at 112 bytes).
    #[inline(always)]
    fn body_memo<'m>(
        &self,
        id: u64,
        memo: &'m mut Option<SegMemo>,
    ) -> Result<(&'m [u8], u32), StoreError> {
        let hit = memo
            .as_ref()
            .is_some_and(|m| id >= m.first_event && id < m.end_event);
        if !hit {
            *memo = Some(self.seg_memo(id)?);
        }
        let m = memo.as_ref().expect("memo covers id");
        match frame_body(m.seg.frame((id - m.first_event) as usize)) {
            Ok(body) => Ok((body, m.seg_ix)),
            Err(e) => Err(self.frame_error(m.seg_ix, e)),
        }
    }

    /// Load (or fetch cached) the segment holding event `id`.
    fn seg_memo(&self, id: u64) -> Result<SegMemo, StoreError> {
        if id >= self.n_events {
            return Err(StoreError::mismatch(
                &self.dir,
                format!("event id {id} out of range ({} events)", self.n_events),
            ));
        }
        // The last segment starting at or before `id`: right even if a
        // manifest lists an empty segment.
        let seg_ix = self.segs.partition_point(|s| s.first_event <= id) - 1;
        let meta = &self.segs[seg_ix];
        Ok(SegMemo {
            first_event: meta.first_event,
            end_event: meta.first_event + meta.frames as u64,
            seg_ix: seg_ix as u32,
            seg: self.load_segment(seg_ix as u32)?,
        })
    }

    /// Name the file only once there is an error to report: the hot path
    /// formats no path.
    #[cold]
    fn frame_error(&self, seg_ix: u32, e: FrameError) -> StoreError {
        e.at(&self.segment_path(seg_ix))
    }

    // ---- queries ----

    /// Stream the events matching `sel` (see [`Select`] for the order
    /// contract). Decoding is lazy: one frame per `next()`.
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
        let mut end = ids.len();
        if let Some((_, hi)) = window {
            // Sparse cutoff: the first sample past `hi` bounds the
            // canonical prefix that can possibly start within the
            // window; the cursor still early-stops exactly.
            let samples = self.time_section()?;
            if let Some(&(_, pos)) = samples.get(samples.partition_point(|&(t, _)| t <= hi)) {
                end = end.min(pos as usize);
            }
        }
        Ok(EventCursor {
            store: self,
            ids,
            pos: 0,
            end,
            window,
            done: false,
            memo: None,
            #[cfg(test)]
            decoded: 0,
        })
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

    /// Full integrity pass: every section and every segment is loaded,
    /// CRC-checked, decoded, and cross-checked against the manifest.
    /// Expensive by design — this is the corruption audit, not the query
    /// path.
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
        // Time samples must agree with the records they point at.
        let samples = self.time_section()?;
        for &(t, pos) in samples.iter() {
            let rec = self.fetch(canon[pos as usize] as u64)?;
            if rec.t_start != t {
                return Err(StoreError::mismatch(
                    &idx_path,
                    format!(
                        "time sample at position {pos} says t_start {t}, record says {}",
                        rec.t_start
                    ),
                ));
            }
        }
        // Every frame of every segment must decode.
        for seg_ix in 0..self.segs.len() as u32 {
            let seg = self.load_segment(seg_ix)?;
            for i in 0..self.segs[seg_ix as usize].frames as usize {
                frame_body(seg.frame(i))
                    .and_then(decode_body)
                    .map_err(|e| self.frame_error(seg_ix, e))?;
            }
        }
        Ok(())
    }
}

/// The cursor's cached current segment (see [`DiskStore::body_memo`]).
struct SegMemo {
    first_event: u64,
    /// One past the last arrival id in the segment.
    end_event: u64,
    seg_ix: u32,
    seg: Arc<LoadedSeg>,
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
    memo: Option<SegMemo>,
    /// Frames fully decoded so far: what the work-count tests pin.
    #[cfg(test)]
    decoded: usize,
}

impl EventCursor<'_> {
    /// Ids this cursor will visit (before any window filtering).
    pub fn remaining_ids(&self) -> usize {
        if self.done {
            0
        } else {
            self.end - self.pos
        }
    }
}

impl Iterator for EventCursor<'_> {
    type Item = Result<TraceRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done && self.pos < self.end {
            let id = self.ids[self.pos] as u64;
            self.pos += 1;
            let (body, seg_ix) = match self.store.body_memo(id, &mut self.memo) {
                Ok(found) => found,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
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

    /// Everything, straight off the cursor into one allocation: what
    /// `materialize` pays, without a boxed iterator and an error re-wrap
    /// per event in between.
    fn events(&self) -> Result<Vec<TraceRecord>, SourceError> {
        let cursor = self.cursor(Select::All)?;
        let mut out = Vec::with_capacity(cursor.remaining_ids());
        for rec in cursor {
            out.push(rec?);
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
