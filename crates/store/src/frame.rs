//! The per-event frame codec.
//!
//! A frame body carries one [`TraceRecord`] in the `.tbin` record layout,
//! written and read by the one codec of that layout
//! (`tracedbg_trace::file::{write_record, read_record}`). Inside a
//! segment, each frame is length-prefixed (`u32` body length, then the
//! body) so a cursor can skip records without decoding them.

use crate::error::StoreError;
use crate::layout::{Builder, Cursor};
use tracedbg_trace::file::{read_record, write_record, ReadError};
use tracedbg_trace::TraceRecord;

pub(crate) use tracedbg_trace::file::kind_code_u8 as kind_code;

/// Append one record's frame (length prefix + body) to `out`.
pub fn encode_frame(out: &mut Builder, r: &TraceRecord) {
    let mut body = Vec::new();
    write_record(&mut body, r).expect("writing to a Vec cannot fail");
    out.u32(body.len() as u32);
    out.bytes(&body);
}

/// Decode one frame (length prefix + body) from the cursor.
pub fn decode_frame(c: &mut Cursor<'_>, path: &std::path::Path) -> Result<TraceRecord, StoreError> {
    let len = c.u32("frame length")? as usize;
    if len > c.remaining() {
        return Err(StoreError::truncated(path, "frame body"));
    }
    let mut body = c.take(len, "frame body")?;
    let rec = read_record(&mut body, 0).map_err(|e| match e {
        ReadError::Io(_) => StoreError::truncated(path, "frame body"),
        ReadError::Parse(_, msg) => StoreError::mismatch(path, msg),
    })?;
    if !body.is_empty() {
        return Err(StoreError::mismatch(
            path,
            format!("frame body has {} trailing bytes", body.len()),
        ));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tracedbg_trace::{EventKind, MsgInfo, Rank, SiteId, Tag};

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::basic(0u32, EventKind::Compute, 1, 0).with_span(0, 10),
            TraceRecord::basic(3u32, EventKind::Send, 2, 10)
                .with_span(10, 12)
                .with_site(SiteId(5))
                .with_args(-4, 7)
                .with_msg(MsgInfo {
                    src: Rank(3),
                    dst: Rank(0),
                    tag: Tag(-1),
                    bytes: 64,
                    seq: 9,
                }),
            TraceRecord::basic(1u32, EventKind::Probe, 3, 20).with_label("checkpoint α"),
        ]
    }

    #[test]
    fn roundtrip_every_shape() {
        let path = PathBuf::from("seg");
        for rec in sample() {
            let mut b = Builder::new();
            encode_frame(&mut b, &rec);
            let mut c = Cursor::new(&b.buf, &path);
            let back = decode_frame(&mut c, &path).unwrap();
            assert_eq!(back, rec);
            assert_eq!(c.remaining(), 0);
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_error() {
        let path = PathBuf::from("seg");
        let mut b = Builder::new();
        encode_frame(&mut b, &sample()[1]);
        for cut in [0, 3, 4, 10, b.buf.len() - 1] {
            let mut c = Cursor::new(&b.buf[..cut], &path);
            assert!(decode_frame(&mut c, &path).is_err(), "cut at {cut}");
        }
        // A frame longer than its body declares is a mismatch.
        let mut long = b.buf.clone();
        let len = u32::from_le_bytes([long[0], long[1], long[2], long[3]]);
        long[0..4].copy_from_slice(&(len + 1).to_le_bytes());
        long.push(0);
        let mut c = Cursor::new(&long, &path);
        assert!(decode_frame(&mut c, &path).is_err());
    }
}
