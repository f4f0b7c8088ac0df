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
use crate::loc::{SiteTable, SourceLoc};
use std::io::{self, BufRead, Write};

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
            if let Some(l) = &r.label {
                let l = l.trim_end();
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

/// Read the text format.
pub fn read_text<R: BufRead>(r: R) -> Result<TraceFile, ReadError> {
    let mut n_ranks = 0usize;
    let mut sites: Vec<SourceLoc> = Vec::new();
    let mut records = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let ln = i + 1;
        let line = line?;
        let line = line.trim_end();
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
                Some((h, l)) => (h, Some(l.to_string())),
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

/// A checked little-endian reader over bytes already in memory.
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

    fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32_at(self.take(4)?, 0))
    }

    fn u64(&mut self) -> Result<u64, ReadError> {
        Ok(u64_at(self.take(8)?, 0))
    }

    fn string(&mut self) -> Result<String, ReadError> {
        let len = self.u32()? as usize;
        if len > 1 << 24 {
            return Err(parse_err(0, format!("string length {len} unreasonable")));
        }
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| parse_err(0, "invalid UTF-8"))
    }
}

/// The `u32` at `b[at..at + 4]`; the caller has checked the length.
#[inline]
fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("four bytes"))
}

/// The `u64` at `b[at..at + 8]`; the caller has checked the length.
#[inline]
fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"))
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
    if let Some(l) = &r.label {
        w_str(w, l)?;
    }
    Ok(())
}

/// Read the binary format. The input is read to its end first and parsed
/// from memory: records decode from a slice, not through one small
/// `read` per field.
pub fn read_binary<R: io::Read>(mut r: R) -> Result<TraceFile, ReadError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let mut br = BinReader { buf: &bytes };
    if br.take(BIN_MAGIC.len())? != BIN_MAGIC {
        return Err(parse_err(0, "not a tracedbg binary trace (bad magic)"));
    }
    let n_ranks = br.u32()? as usize;
    let n_sites = br.u32()? as usize;
    let mut sites = Vec::with_capacity(n_sites.min(1 << 20));
    for _ in 0..n_sites {
        let line = br.u32()?;
        let file = br.string()?;
        let func = br.string()?;
        sites.push(SourceLoc::new(file, line, func));
    }
    let n_records = br.u64()? as usize;
    // No record is shorter than its fixed prefix, which bounds the count
    // a hostile header can make this reserve for.
    let mut records = Vec::with_capacity(n_records.min(br.buf.len() / RECORD_FIXED_LEN));
    for i in 0..n_records {
        records.push(read_record(&mut br.buf, i)?);
    }
    Ok(TraceFile {
        records,
        sites: SiteTable::from_snapshot(sites),
        n_ranks,
    })
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
    let fixed = br.take(RECORD_FIXED_LEN)?;
    let kind = kind_from_u8(fixed[4], index)?;
    let flags = fixed[49];
    if flags & !3 != 0 {
        return Err(parse_err(index, format!("bad record flags {flags:#04x}")));
    }
    let msg = if flags & 1 != 0 {
        let m = br.take(RECORD_MSG_LEN)?;
        Some(MsgInfo {
            src: Rank(u32_at(m, 0)),
            dst: Rank(u32_at(m, 4)),
            tag: Tag(u32_at(m, 8) as i32),
            bytes: u32_at(m, 12),
            seq: u64_at(m, 16),
        })
    } else {
        None
    };
    let label = if flags & 2 != 0 {
        Some(br.string()?)
    } else {
        None
    };
    *buf = br.buf;
    Ok(TraceRecord {
        rank: Rank(u32_at(fixed, 0)),
        kind,
        marker: u64_at(fixed, 5),
        t_start: u64_at(fixed, RECORD_SPAN_AT),
        t_end: u64_at(fixed, RECORD_SPAN_AT + 8),
        site: SiteId(u32_at(fixed, 29)),
        msg,
        args: [u64_at(fixed, 33) as i64, u64_at(fixed, 41) as i64],
        label,
    })
}

/// `(t_start, t_end)` of the record starting at `body[0]`, read at their
/// fixed offsets without decoding the record; `None` when `body` is too
/// short to hold them. Says nothing about whether the record is valid —
/// [`read_record`] remains the check.
#[inline]
pub fn peek_span(body: &[u8]) -> Option<(u64, u64)> {
    let span = body.get(RECORD_SPAN_AT..RECORD_SPAN_AT + 16)?;
    Some((u64_at(span, 0), u64_at(span, 8)))
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
                .with_label("jres value at loop"),
        ];
        TraceFile::new(recs, sites, 8)
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
        assert_eq!(back.records[2].label.as_deref(), Some("jres value at loop"));
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
