//! The per-event frame codec.
//!
//! A frame body carries one [`TraceRecord`] in the `.tbin` record layout,
//! written and read by the one codec of that layout
//! (`tracedbg_trace::file::{write_record, read_record}`). Inside a
//! segment, each frame is length-prefixed (`u32` body length, then the
//! body) so a cursor can skip records without decoding them.

use crate::error::StoreError;
use std::path::Path;
use tracedbg_trace::file::{read_record, write_record, ReadError};
use tracedbg_trace::TraceRecord;

pub(crate) use tracedbg_trace::file::kind_code_u8 as kind_code;

/// Append one record's frame (length prefix + body) to `out`: the body
/// is written in place and the prefix patched once its length is known.
pub fn encode_frame(out: &mut Vec<u8>, r: &TraceRecord) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    write_record(out, r).expect("writing to a Vec cannot fail");
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Why a frame did not decode. Decoding runs once per event and knows
/// no file name; [`FrameError::at`] adds it when there is an error.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// The payload ended before this part of the frame.
    Truncated(&'static str),
    /// The body is not one well-formed record.
    Mismatch(String),
}

impl FrameError {
    /// The store error for a frame of the segment file `path`.
    pub(crate) fn at(self, path: &Path) -> StoreError {
        match self {
            FrameError::Truncated(what) => StoreError::truncated(path, what),
            FrameError::Mismatch(what) => StoreError::mismatch(path, what),
        }
    }
}

/// The body of the frame whose length prefix starts `buf`.
#[inline]
pub(crate) fn frame_body(buf: &[u8]) -> Result<&[u8], FrameError> {
    let len = buf.get(..4).ok_or(FrameError::Truncated("frame length"))?;
    let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
    buf[4..]
        .get(..len)
        .ok_or(FrameError::Truncated("frame body"))
}

/// Decode a frame body: exactly one record, nothing after it. (Forced
/// inline: as a call it costs a copy of the record per event on the
/// readers' per-frame paths.)
#[inline(always)]
pub(crate) fn decode_body(mut body: &[u8]) -> Result<TraceRecord, FrameError> {
    let rec = read_record(&mut body, 0).map_err(|e| match e {
        ReadError::Io(_) => FrameError::Truncated("frame body"),
        ReadError::Parse(_, msg) => FrameError::Mismatch(msg),
    })?;
    if !body.is_empty() {
        return Err(FrameError::Mismatch(format!(
            "frame body has {} trailing bytes",
            body.len()
        )));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracedbg_trace::{EventKind, Label, MsgInfo, Rank, SiteId, Tag};

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
            TraceRecord::basic(1u32, EventKind::Probe, 3, 20)
                .with_label(Label::new("checkpoint α")),
        ]
    }

    fn decode_frame(buf: &[u8]) -> Result<TraceRecord, FrameError> {
        decode_body(frame_body(buf)?)
    }

    #[test]
    fn roundtrip_every_shape() {
        // Frames back to back, as in a segment payload: each prefix is
        // patched in place and delimits exactly its own body.
        let mut buf = Vec::new();
        let mut starts = Vec::new();
        for rec in sample() {
            starts.push(buf.len());
            encode_frame(&mut buf, &rec);
        }
        starts.push(buf.len());
        for (i, rec) in sample().into_iter().enumerate() {
            let body = frame_body(&buf[starts[i]..]).unwrap();
            assert_eq!(starts[i] + 4 + body.len(), starts[i + 1]);
            assert_eq!(decode_body(body).unwrap(), rec);
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_error() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, &sample()[1]);
        for cut in [0, 3, 4, 10, buf.len() - 1] {
            assert!(
                matches!(decode_frame(&buf[..cut]), Err(FrameError::Truncated(_))),
                "cut at {cut}"
            );
        }
        // A frame longer than its body declares is a mismatch.
        let mut long = buf.clone();
        let len = u32::from_le_bytes([long[0], long[1], long[2], long[3]]);
        long[0..4].copy_from_slice(&(len + 1).to_le_bytes());
        long.push(0);
        assert!(matches!(decode_frame(&long), Err(FrameError::Mismatch(_))));
    }
}
