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

/// Write the text format.
///
/// Layout:
/// ```text
/// #tracedbg v1
/// #ranks <n>
/// S <id> <line> <file>|<func>
/// R <rank> <code> <marker> <t0> <t1> <site|-> <a> <b> [M <src> <dst> <tag> <bytes> <seq>] [L <label>]
/// ```
pub fn write_text<W: Write>(w: &mut W, file: &TraceFile) -> io::Result<()> {
    writeln!(w, "#tracedbg v1")?;
    writeln!(w, "#ranks {}", file.n_ranks)?;
    for (i, s) in file.sites.snapshot().iter().enumerate() {
        writeln!(w, "S {} {} {}|{}", i, s.line, s.file, s.func)?;
    }
    for r in &file.records {
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
/// index in [`EventKind::all`]).
pub fn kind_code_u8(kind: EventKind) -> u8 {
    EventKind::all()
        .iter()
        .position(|k| *k == kind)
        .expect("kind in table") as u8
}

fn kind_from_u8(code: u8, ln: usize) -> Result<EventKind, ReadError> {
    EventKind::all()
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

struct BinReader<R> {
    r: R,
}

impl<R: io::Read> BinReader<R> {
    fn u32(&mut self) -> Result<u32, ReadError> {
        let mut b = [0u8; 4];
        self.r.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, ReadError> {
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn i64(&mut self) -> Result<i64, ReadError> {
        Ok(self.u64()? as i64)
    }

    fn u8(&mut self) -> Result<u8, ReadError> {
        let mut b = [0u8; 1];
        self.r.read_exact(&mut b)?;
        Ok(b[0])
    }

    fn string(&mut self) -> Result<String, ReadError> {
        let len = self.u32()? as usize;
        if len > 1 << 24 {
            return Err(parse_err(0, format!("string length {len} unreasonable")));
        }
        let mut b = vec![0u8; len];
        self.r.read_exact(&mut b)?;
        String::from_utf8(b).map_err(|_| parse_err(0, "invalid UTF-8"))
    }
}

/// Write the compact binary format (`.tbin`). Fixed little-endian fields;
/// roughly 4–6× denser than the text format on message-heavy traces.
pub fn write_binary<W: Write>(w: &mut W, file: &TraceFile) -> io::Result<()> {
    w.write_all(BIN_MAGIC)?;
    w_u32(w, file.n_ranks as u32)?;
    let sites = file.sites.snapshot();
    w_u32(w, sites.len() as u32)?;
    for s in &sites {
        w_u32(w, s.line)?;
        w_str(w, &s.file)?;
        w_str(w, &s.func)?;
    }
    w_u64(w, file.records.len() as u64)?;
    for r in &file.records {
        write_record(w, r)?;
    }
    Ok(())
}

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

/// Read the binary format.
pub fn read_binary<R: io::Read>(r: R) -> Result<TraceFile, ReadError> {
    let mut br = BinReader { r };
    let mut magic = [0u8; 6];
    br.r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
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
    let mut records = Vec::with_capacity(n_records.min(1 << 24));
    for i in 0..n_records {
        records.push(read_record(&mut br.r, i)?);
    }
    Ok(TraceFile {
        records,
        sites: SiteTable::from_snapshot(sites),
        n_ranks,
    })
}

/// Read one record of the binary record layout ([`write_record`]);
/// `index` labels its errors. Only flag bits 1 (message) and 2 (label)
/// are defined: any other is refused, never ignored.
pub fn read_record<R: io::Read>(r: R, index: usize) -> Result<TraceRecord, ReadError> {
    let mut br = BinReader { r };
    let rank = Rank(br.u32()?);
    let kind = kind_from_u8(br.u8()?, index)?;
    let marker = br.u64()?;
    let t_start = br.u64()?;
    let t_end = br.u64()?;
    let site = SiteId(br.u32()?);
    let args = [br.i64()?, br.i64()?];
    let flags = br.u8()?;
    if flags & !3 != 0 {
        return Err(parse_err(index, format!("bad record flags {flags:#04x}")));
    }
    let msg = if flags & 1 != 0 {
        Some(MsgInfo {
            src: Rank(br.u32()?),
            dst: Rank(br.u32()?),
            tag: Tag(br.u32()? as i32),
            bytes: br.u32()?,
            seq: br.u64()?,
        })
    } else {
        None
    };
    let label = if flags & 2 != 0 {
        Some(br.string()?)
    } else {
        None
    };
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
