//! Trace file formats.
//!
//! Two interchangeable on-disk representations of a run's history:
//!
//! * a compact, line-oriented **text format** (`.trc`) in the spirit of the
//!   AIMS trace files the paper consumed — easy to diff, grep, and feed to
//!   the visualizers;
//! * a fixed-field little-endian **binary format** (`.tbin`).
//!
//! Both carry the site table inline so a trace file is self-contained.

use crate::event::{EventKind, MsgInfo, TraceRecord};
use crate::ids::{Rank, SiteId, Tag};
use crate::label::Label;
use crate::loc::{SiteTable, SourceLoc};
use std::io::{self, BufRead, Read, Write};

/// Everything a trace file stores.
#[derive(Debug)]
pub struct TraceFile {
    pub records: Vec<TraceRecord>,
    pub sites: SiteTable,
    pub n_ranks: usize,
}

impl TraceFile {
    pub fn new(records: Vec<TraceRecord>, sites: SiteTable, n_ranks: usize) -> Self {
        TraceFile {
            records,
            sites,
            n_ranks,
        }
    }

    /// Convert into a queryable store.
    pub fn into_store(self) -> crate::TraceStore {
        crate::TraceStore::build(self.records, self.sites, self.n_ranks)
    }

    /// The file's contents, borrowed for writing.
    pub fn borrowed(&self) -> TraceRef<'_> {
        TraceRef {
            records: &self.records,
            sites: &self.sites,
            n_ranks: self.n_ranks,
        }
    }
}

/// What a trace file stores, borrowed from wherever it lives: the writers
/// encode from it, so writing a store's trace copies no record.
#[derive(Clone, Copy, Debug)]
pub struct TraceRef<'a> {
    pub records: &'a [TraceRecord],
    pub sites: &'a SiteTable,
    pub n_ranks: usize,
}

impl<'a> TraceRef<'a> {
    /// A store's records, in its canonical order, with its sites.
    pub fn of_store(store: &'a crate::TraceStore) -> Self {
        TraceRef {
            records: store.records(),
            sites: store.sites(),
            n_ranks: store.n_ranks(),
        }
    }

    /// Write the text format.
    ///
    /// Layout:
    /// ```text
    /// #tracedbg v1
    /// #ranks <n>
    /// S <id> <line> <file>|<func>
    /// R <rank> <code> <marker> <t0> <t1> <site|-> <a> <b> [M <src> <dst> <tag> <bytes> <seq>] [L <label>]
    /// ```
    pub fn write_text<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "#tracedbg v1")?;
        writeln!(w, "#ranks {}", self.n_ranks)?;
        for (i, s) in self.sites.snapshot().iter().enumerate() {
            writeln!(w, "S {} {} {}|{}", i, s.line, s.file, s.func)?;
        }
        for r in self.records {
            write!(
                w,
                "R {} {} {} {} {} ",
                r.rank.0,
                r.kind.code(),
                r.marker,
                r.t_start,
                r.t_end
            )?;
            if r.site == SiteId::UNKNOWN {
                write!(w, "- ")?;
            } else {
                write!(w, "{} ", r.site.0)?;
            }
            write!(w, "{} {}", r.args[0], r.args[1])?;
            if let Some(m) = &r.msg {
                write!(
                    w,
                    " M {} {} {} {} {}",
                    m.src.0, m.dst.0, m.tag.0, m.bytes, m.seq
                )?;
            }
            // Labels are written trimmed; a label that is empty after trimming
            // is unrepresentable in a line-oriented format and reads back as
            // absent.
            if let Some(l) = r.label {
                let l = l.as_str().trim_end();
                if !l.is_empty() {
                    write!(w, " L {l}")?;
                }
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Write the compact binary format (`.tbin`). Fixed little-endian fields;
    /// roughly 4–6× denser than the text format on message-heavy traces.
    pub fn write_binary<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(BIN_MAGIC)?;
        w_u32(w, self.n_ranks as u32)?;
        let sites = self.sites.snapshot();
        w_u32(w, sites.len() as u32)?;
        for s in &sites {
            w_u32(w, s.line)?;
            w_str(w, &s.file)?;
            w_str(w, &s.func)?;
        }
        w_u64(w, self.records.len() as u64)?;
        for r in self.records {
            write_record(w, r)?;
        }
        Ok(())
    }
}

/// Errors from reading a trace file.
#[derive(Debug)]
pub enum ReadError {
    Io(io::Error),
    /// Malformed line, with its 1-based line number and a description.
    Parse(usize, String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Parse(line, msg) => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Write the text format ([`TraceRef::write_text`]).
pub fn write_text<W: Write>(w: &mut W, file: &TraceFile) -> io::Result<()> {
    file.borrowed().write_text(w)
}

fn parse_err(ln: usize, msg: impl Into<String>) -> ReadError {
    ReadError::Parse(ln, msg.into())
}

fn next_field<'a, I: Iterator<Item = &'a str>>(
    it: &mut I,
    ln: usize,
    what: &str,
) -> Result<&'a str, ReadError> {
    it.next()
        .ok_or_else(|| parse_err(ln, format!("missing {what}")))
}

fn parse_num<T: std::str::FromStr>(s: &str, ln: usize, what: &str) -> Result<T, ReadError> {
    s.parse()
        .map_err(|_| parse_err(ln, format!("bad {what}: {s:?}")))
}

/// Read the text format. Lines are read into one buffer, and a label is
/// interned from it: no record costs an allocation of its own.
pub fn read_text<R: BufRead>(mut r: R) -> Result<TraceFile, ReadError> {
    let mut n_ranks = 0usize;
    let mut sites: Vec<SourceLoc> = Vec::new();
    let mut records = Vec::new();
    let mut buf = String::new();
    let mut ln = 0;
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        ln += 1;
        let line = buf.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("#ranks ") {
            n_ranks = parse_num(rest.trim(), ln, "rank count")?;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("S ") {
            // S <id> <line> <file>|<func>
            let mut it = rest.splitn(3, ' ');
            let id: usize = parse_num(next_field(&mut it, ln, "site id")?, ln, "site id")?;
            let lno: u32 = parse_num(next_field(&mut it, ln, "site line")?, ln, "site line")?;
            let tail = next_field(&mut it, ln, "site file|func")?;
            let (f, func) = tail
                .split_once('|')
                .ok_or_else(|| parse_err(ln, "site missing '|'"))?;
            if id != sites.len() {
                return Err(parse_err(ln, format!("site id {id} out of order")));
            }
            sites.push(SourceLoc::new(f, lno, func));
            continue;
        }
        if let Some(rest) = line.strip_prefix("R ") {
            // Label is free text: split it off first.
            let (head, label) = match rest.split_once(" L ") {
                Some((h, l)) => (h, Some(Label::new(l))),
                None => (rest, None),
            };
            let mut it = head.split_ascii_whitespace();
            let rank: u32 = parse_num(next_field(&mut it, ln, "rank")?, ln, "rank")?;
            let code = next_field(&mut it, ln, "kind")?;
            let kind = EventKind::from_code(code)
                .ok_or_else(|| parse_err(ln, format!("unknown kind {code:?}")))?;
            let marker: u64 = parse_num(next_field(&mut it, ln, "marker")?, ln, "marker")?;
            let t0: u64 = parse_num(next_field(&mut it, ln, "t_start")?, ln, "t_start")?;
            let t1: u64 = parse_num(next_field(&mut it, ln, "t_end")?, ln, "t_end")?;
            let site_s = next_field(&mut it, ln, "site")?;
            let site = if site_s == "-" {
                SiteId::UNKNOWN
            } else {
                SiteId(parse_num(site_s, ln, "site")?)
            };
            let a: i64 = parse_num(next_field(&mut it, ln, "arg0")?, ln, "arg0")?;
            let b: i64 = parse_num(next_field(&mut it, ln, "arg1")?, ln, "arg1")?;
            let msg = match it.next() {
                Some("M") => {
                    let src: u32 = parse_num(next_field(&mut it, ln, "src")?, ln, "src")?;
                    let dst: u32 = parse_num(next_field(&mut it, ln, "dst")?, ln, "dst")?;
                    let tag: i32 = parse_num(next_field(&mut it, ln, "tag")?, ln, "tag")?;
                    let bytes: u32 = parse_num(next_field(&mut it, ln, "bytes")?, ln, "bytes")?;
                    let seq: u64 = parse_num(next_field(&mut it, ln, "seq")?, ln, "seq")?;
                    Some(MsgInfo {
                        src: Rank(src),
                        dst: Rank(dst),
                        tag: Tag(tag),
                        bytes,
                        seq,
                    })
                }
                Some(tok) => return Err(parse_err(ln, format!("unexpected token {tok:?}"))),
                None => None,
            };
            records.push(TraceRecord {
                rank: Rank(rank),
                kind,
                marker,
                t_start: t0,
                t_end: t1,
                site,
                msg,
                args: [a, b],
                label,
            });
            continue;
        }
        return Err(parse_err(ln, format!("unrecognized line: {line:?}")));
    }
    Ok(TraceFile {
        records,
        sites: SiteTable::from_snapshot(sites),
        n_ranks,
    })
}

// ------------------------------------------------------------- binary

const BIN_MAGIC: &[u8; 6] = b"TDBG1\n";

/// The one-byte code of an event kind in the binary record layout (its
/// index in [`EventKind::ALL`]).
#[inline]
pub fn kind_code_u8(kind: EventKind) -> u8 {
    kind.index() as u8
}

fn kind_from_u8(code: u8, ln: usize) -> Result<EventKind, ReadError> {
    EventKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| parse_err(ln, format!("bad kind code {code}")))
}

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let b = s.as_bytes();
    w_u32(w, b.len() as u32)?;
    w.write_all(b)
}

/// The message `read_exact` reports at end of input; a slice that ends
/// early is the same failure.
fn eof() -> ReadError {
    ReadError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "failed to fill whole buffer",
    ))
}

/// A checked little-endian reader over bytes already in memory: every
/// read is a `Result`, none can panic.
struct BinReader<'a> {
    buf: &'a [u8],
}

impl<'a> BinReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if self.buf.len() < n {
            return Err(eof());
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        self.take(N)?.try_into().map_err(|_| eof())
    }

    fn u8(&mut self) -> Result<u8, ReadError> {
        self.array().map(u8::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A length-prefixed string, borrowed from the input; its length is
    /// checked against what is left before anything is read. `at` names
    /// the record (0 for the header) in an encoding error.
    fn str(&mut self, at: usize) -> Result<&'a str, ReadError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| parse_err(at, "invalid UTF-8"))
    }
}

/// Write the binary format ([`TraceRef::write_binary`]).
pub fn write_binary<W: Write>(w: &mut W, file: &TraceFile) -> io::Result<()> {
    file.borrowed().write_binary(w)
}

/// Byte length of a record's fixed prefix: rank `u32`, kind `u8`, marker,
/// `t_start`, `t_end` `u64`, site `u32`, two `i64` args, flags `u8`.
const RECORD_FIXED_LEN: usize = 50;
/// Byte offset of `t_start` in a record; `t_end` follows it.
const RECORD_SPAN_AT: usize = 13;
/// Byte length of the optional message block: src, dst, tag, bytes `u32`,
/// seq `u64`.
const RECORD_MSG_LEN: usize = 24;

/// Write one record in the binary record layout — the body of a `.tbin`
/// record and of a store frame alike, so the two formats stay convertible
/// without re-quantizing anything.
pub fn write_record<W: Write>(w: &mut W, r: &TraceRecord) -> io::Result<()> {
    w_u32(w, r.rank.0)?;
    w.write_all(&[kind_code_u8(r.kind)])?;
    w_u64(w, r.marker)?;
    w_u64(w, r.t_start)?;
    w_u64(w, r.t_end)?;
    w_u32(w, r.site.0)?;
    w_u64(w, r.args[0] as u64)?;
    w_u64(w, r.args[1] as u64)?;
    let flags = (r.msg.is_some() as u8) | ((r.label.is_some() as u8) << 1);
    w.write_all(&[flags])?;
    if let Some(m) = &r.msg {
        w_u32(w, m.src.0)?;
        w_u32(w, m.dst.0)?;
        w_u32(w, m.tag.0 as u32)?;
        w_u32(w, m.bytes)?;
        w_u64(w, m.seq)?;
    }
    if let Some(l) = r.label {
        w_str(w, l.as_str())?;
    }
    Ok(())
}

/// Read the binary format. The input is decoded a block at a time
/// through one reused buffer ([`Blocks`]): records decode from a slice,
/// not through one small `read` per field, and the file is never held
/// whole beside the records decoded from it.
pub fn read_binary<R: Read>(r: R) -> Result<TraceFile, ReadError> {
    let mut input = Blocks::new(r);
    let (n_ranks, sites, n_records) = input.decode(|buf| {
        let mut br = BinReader { buf };
        if br.take(BIN_MAGIC.len())? != BIN_MAGIC {
            return Err(parse_err(0, "not a tracedbg binary trace (bad magic)"));
        }
        let n_ranks = br.u32()? as usize;
        let n_sites = br.u32()? as usize;
        let mut sites = Vec::with_capacity(n_sites.min(1 << 20));
        for _ in 0..n_sites {
            let line = br.u32()?;
            let file = br.str(0)?;
            let func = br.str(0)?;
            sites.push(SourceLoc::new(file, line, func));
        }
        let n_records = br.u64()? as usize;
        *buf = br.buf;
        Ok((n_ranks, sites, n_records))
    })?;
    let mut records = Vec::new();
    for i in 0..n_records {
        let rec = input.decode(|buf| read_record(buf, i))?;
        if records.len() == records.capacity() {
            // Grow geometrically up to the declared count, but never past
            // what the bytes read so far can hold (no record is shorter
            // than its fixed prefix), so a hostile count reserves no more
            // than the input backs.
            let cap = (2 * records.len())
                .max(1024)
                .min(n_records)
                .min(input.read / RECORD_FIXED_LEN);
            records.reserve_exact(cap - records.len());
        }
        records.push(rec);
    }
    Ok(TraceFile {
        records,
        sites: SiteTable::from_snapshot(sites),
        n_ranks,
    })
}

/// Bytes one refill of [`Blocks`] reads at least.
const BLOCK: usize = 64 * 1024;

/// An input decoded a block at a time: one buffer, reused, holds what was
/// read and not yet decoded — a block, and the start of an item the
/// block's end cut.
struct Blocks<R> {
    r: R,
    buf: Vec<u8>,
    /// Bytes of `buf` already decoded.
    at: usize,
    /// Bytes read from `r` so far.
    read: usize,
    /// `r` is at its end.
    done: bool,
}

impl<R: Read> Blocks<R> {
    fn new(r: R) -> Self {
        Blocks {
            r,
            buf: Vec::new(),
            at: 0,
            read: 0,
            done: false,
        }
    }

    /// Decode one item off the front of the undecoded input, advancing
    /// past it. An item `decode` runs out of bytes for is decoded again
    /// after a refill; once the input is at its end, whatever `decode`
    /// returns stands, exactly as if the whole input had been in memory.
    fn decode<T>(
        &mut self,
        mut decode: impl FnMut(&mut &[u8]) -> Result<T, ReadError>,
    ) -> Result<T, ReadError> {
        loop {
            let mut rest = &self.buf[self.at..];
            match decode(&mut rest) {
                Err(ReadError::Io(_)) if !self.done => self.refill()?,
                out => {
                    self.at = self.buf.len() - rest.len();
                    return out;
                }
            }
        }
    }

    /// Drop the decoded bytes and read a block more, or as much again as
    /// is left, so an item longer than a block takes a number of refills
    /// logarithmic in its length.
    fn refill(&mut self) -> io::Result<()> {
        self.buf.drain(..self.at);
        self.at = 0;
        let want = BLOCK.max(self.buf.len());
        let got = (&mut self.r).take(want as u64).read_to_end(&mut self.buf)?;
        self.read += got;
        self.done = got < want;
        Ok(())
    }
}

/// Read one record of the binary record layout ([`write_record`]) off
/// the front of `buf`, advancing it; `index` labels its errors. Only
/// flag bits 1 (message) and 2 (label) are defined: any other is
/// refused, never ignored.
pub fn read_record(buf: &mut &[u8], index: usize) -> Result<TraceRecord, ReadError> {
    let mut br = BinReader { buf };
    if br.buf.len() < RECORD_FIXED_LEN {
        // Fields are validated in layout order: a short record whose kind
        // byte is present and undefined is a bad kind, not an early end.
        if let Some(&code) = br.buf.get(4) {
            kind_from_u8(code, index)?;
        }
        return Err(eof());
    }
    let mut fixed = BinReader {
        buf: br.take(RECORD_FIXED_LEN)?,
    };
    let rank = Rank(fixed.u32()?);
    let kind = kind_from_u8(fixed.u8()?, index)?;
    let marker = fixed.u64()?;
    let (t_start, t_end) = (fixed.u64()?, fixed.u64()?);
    let site = SiteId(fixed.u32()?);
    let args = [fixed.u64()? as i64, fixed.u64()? as i64];
    let flags = fixed.u8()?;
    if flags & !3 != 0 {
        return Err(parse_err(index, format!("bad record flags {flags:#04x}")));
    }
    let msg = if flags & 1 != 0 {
        let mut m = BinReader {
            buf: br.take(RECORD_MSG_LEN)?,
        };
        Some(MsgInfo {
            src: Rank(m.u32()?),
            dst: Rank(m.u32()?),
            tag: Tag(m.u32()? as i32),
            bytes: m.u32()?,
            seq: m.u64()?,
        })
    } else {
        None
    };
    let label = if flags & 2 != 0 {
        Some(Label::new(br.str(index)?))
    } else {
        None
    };
    *buf = br.buf;
    Ok(TraceRecord {
        rank,
        kind,
        marker,
        t_start,
        t_end,
        site,
        msg,
        args,
        label,
    })
}

/// `(t_start, t_end)` of the record starting at `body[0]`, read at their
/// fixed offsets without decoding the record; `None` when `body` is too
/// short to hold them. Says nothing about whether the record is valid —
/// [`read_record`] remains the check.
#[inline]
pub fn peek_span(body: &[u8]) -> Option<(u64, u64)> {
    let mut span = BinReader {
        buf: body.get(RECORD_SPAN_AT..)?,
    };
    Some((span.u64().ok()?, span.u64().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind::*;

    fn sample() -> TraceFile {
        let sites = SiteTable::new();
        let s0 = sites.site("strassen.c", 161, "MatrSend");
        let recs = vec![
            TraceRecord::basic(0u32, FnEnter, 1, 0)
                .with_site(s0)
                .with_args(7, 3),
            TraceRecord::basic(0u32, Send, 2, 5)
                .with_span(5, 8)
                .with_site(s0)
                .with_msg(MsgInfo {
                    src: Rank(0),
                    dst: Rank(7),
                    tag: Tag(11),
                    bytes: 1024,
                    seq: 4,
                }),
            TraceRecord::basic(1u32, Probe, 1, 9)
                .with_args(42, 0)
                .with_label(Label::new("jres value at loop")),
        ];
        TraceFile::new(recs, sites, 8)
    }

    /// Records cut by a block's end, a label longer than a block, and a
    /// truncation anywhere in a long file decode as from one slice.
    #[test]
    fn a_file_longer_than_a_block_decodes_across_refills() {
        let long = Label::new(&"x".repeat(3 * BLOCK));
        let mut recs: Vec<TraceRecord> = (0..4000u64)
            .map(|i| {
                let rec = sample().records[i as usize % 3];
                TraceRecord {
                    marker: i + 1,
                    ..rec
                }
            })
            .collect();
        recs[2500] = recs[2500].with_label(long);
        let file = TraceFile::new(recs, sample().sites, 8);
        let mut whole = Vec::new();
        write_binary(&mut whole, &file).unwrap();
        assert!(whole.len() > 5 * BLOCK);
        let back = read_binary(io::Cursor::new(&whole)).unwrap();
        assert_eq!(back.records, file.records);
        assert_eq!(back.records.capacity(), file.records.len());
        for cut in [BLOCK - 3, BLOCK + 17, 2 * BLOCK, whole.len() - 1] {
            let got = read_binary(io::Cursor::new(&whole[..cut]));
            assert!(matches!(got, Err(ReadError::Io(_))), "cut at {cut}");
        }
    }

    #[test]
    fn text_roundtrip() {
        let f = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &f).unwrap();
        let back = read_text(io::Cursor::new(&buf)).unwrap();
        assert_eq!(back.n_ranks, 8);
        assert_eq!(back.records, f.records);
        assert_eq!(back.sites.len(), 1);
        assert_eq!(back.sites.resolve(SiteId(0)).unwrap().func, "MatrSend");
    }

    #[test]
    fn label_with_spaces_survives_text() {
        let f = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &f).unwrap();
        let back = read_text(io::Cursor::new(&buf)).unwrap();
        assert_eq!(
            back.records[2].label.map(Label::as_str),
            Some("jres value at loop")
        );
    }

    #[test]
    fn bad_lines_are_reported_with_line_numbers() {
        let txt = "#tracedbg v1\n#ranks 2\nR 0 ZZ 1 0 0 - 0 0\n";
        match read_text(io::Cursor::new(txt)) {
            Err(ReadError::Parse(3, msg)) => assert!(msg.contains("ZZ"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
        }
        let txt2 = "garbage\n";
        assert!(matches!(
            read_text(io::Cursor::new(txt2)),
            Err(ReadError::Parse(1, _))
        ));
    }

    #[test]
    fn empty_text_file_is_empty_trace() {
        let f = read_text(io::Cursor::new("#tracedbg v1\n#ranks 0\n")).unwrap();
        assert!(f.records.is_empty());
        assert_eq!(f.n_ranks, 0);
    }

    #[test]
    fn into_store() {
        let s = sample().into_store();
        assert_eq!(s.n_ranks(), 8);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn binary_roundtrip() {
        let f = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &f).unwrap();
        let back = read_binary(io::Cursor::new(&buf)).unwrap();
        assert_eq!(back.n_ranks, 8);
        assert_eq!(back.records, f.records);
        assert_eq!(back.sites.len(), f.sites.len());
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(matches!(
            read_binary(io::Cursor::new(b"NOTATRACE")),
            Err(ReadError::Parse(0, _))
        ));
        // Truncated file -> IO error.
        let f = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &f).unwrap();
        let whole = buf.clone();
        buf.truncate(buf.len() / 2);
        assert!(matches!(
            read_binary(io::Cursor::new(&buf)),
            Err(ReadError::Io(_))
        ));
        // An undefined flag bit (only 1 = msg and 2 = label exist) is a
        // typed error naming the record, as in the store's frame decoder.
        // The last record is label-only: its flag byte precedes the
        // length-prefixed label.
        let mut bad = whole;
        let flag_at = bad.len() - (4 + "jres value at loop".len()) - 1;
        assert_eq!(bad[flag_at], 0x02);
        bad[flag_at] = 0x07;
        match read_binary(io::Cursor::new(&bad)) {
            Err(ReadError::Parse(2, msg)) => assert!(msg.contains("0x07"), "{msg}"),
            other => panic!("expected a flags error at record 2, got {other:?}"),
        }
    }

    #[test]
    fn hostile_labels_are_typed_errors() {
        let mut whole = Vec::new();
        write_binary(&mut whole, &sample()).unwrap();
        // The last record is label-only: its label is the file's tail.
        let text_len = "jres value at loop".len();
        let len_at = whole.len() - text_len - 4;
        assert_eq!(whole[len_at..len_at + 4], (text_len as u32).to_le_bytes());
        // A length running past the end of the input is an early end.
        for len in [text_len as u32 + 1, u32::MAX] {
            let mut long = whole.clone();
            long[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
            match read_binary(io::Cursor::new(&long)) {
                Err(ReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("expected an early end, got {other:?}"),
            }
        }
        // A label that is not UTF-8 is a parse error naming the record.
        let mut bad = whole;
        bad[len_at + 4] = 0xff;
        match read_binary(io::Cursor::new(&bad)) {
            Err(ReadError::Parse(2, msg)) => assert!(msg.contains("UTF-8"), "{msg}"),
            other => panic!("expected a UTF-8 error at record 2, got {other:?}"),
        }
    }

    #[test]
    fn peeked_span_is_the_decoded_span() {
        for rec in sample().records {
            let mut body = Vec::new();
            write_record(&mut body, &rec).unwrap();
            assert_eq!(peek_span(&body), Some((rec.t_start, rec.t_end)));
            let mut rest = body.as_slice();
            assert_eq!(read_record(&mut rest, 0).unwrap(), rec);
            assert!(rest.is_empty(), "decoding consumes exactly the record");
            // Too short for the span: no peek; for the record: an early
            // end, not a panic.
            assert_eq!(peek_span(&body[..28]), None);
            for cut in [0, 4, 5, 28, 49, body.len() - 1] {
                let mut short = &body[..cut];
                assert!(matches!(read_record(&mut short, 0), Err(ReadError::Io(_))));
            }
        }
    }

    #[test]
    fn binary_denser_than_text_on_messages() {
        // A message-heavy trace: binary should not be larger than text.
        let sites = SiteTable::new();
        let s0 = sites.site("x.c", 1, "f");
        let recs: Vec<TraceRecord> = (0..200u64)
            .map(|i| {
                TraceRecord::basic(0u32, Send, i + 1, i * 10)
                    .with_span(i * 10, i * 10 + 5)
                    .with_site(s0)
                    .with_msg(MsgInfo {
                        src: Rank(0),
                        dst: Rank(1),
                        tag: Tag(3),
                        bytes: 4096,
                        seq: i,
                    })
            })
            .collect();
        let f = TraceFile::new(recs, sites, 2);
        let mut tbin = Vec::new();
        write_binary(&mut tbin, &f).unwrap();
        let mut ttxt = Vec::new();
        write_text(&mut ttxt, &f).unwrap();
        assert!(
            tbin.len() < ttxt.len() * 2,
            "binary {} vs text {}",
            tbin.len(),
            ttxt.len()
        );
        let back = read_binary(io::Cursor::new(&tbin)).unwrap();
        assert_eq!(back.records.len(), 200);
    }

    #[test]
    fn kind_codes_are_dense_and_stable() {
        for (i, k) in EventKind::all().iter().enumerate() {
            assert_eq!(kind_code_u8(*k) as usize, i);
            assert_eq!(kind_from_u8(i as u8, 0).unwrap(), *k);
        }
        assert!(kind_from_u8(200, 0).is_err());
    }
}
