//! One envelope for every sealed report (`LocalizeReport`,
//! `ProfileReport`): JSON whose last field, `digest`, is the FNV-1a 64 of
//! the report's own encoding with that field zeroed. Sealing, checking
//! and loading are defined here once; a report states only its name, its
//! schema version and its digest field ([`Sealed`]).

use serde::{Deserialize, Serialize};

/// A report sealed by its own digest, which it serializes last.
pub trait Sealed: Serialize + Deserialize {
    /// Type name, for error messages.
    const NAME: &'static str;
    /// Schema version this build writes and accepts.
    const VERSION: u32;
    fn version(&self) -> u32;
    fn digest(&mut self) -> &mut u64;
}

/// A report's encoding and where its digest's digits start in it: the
/// text ends `"digest":N}`.
fn encode<R: Sealed>(report: &R) -> (String, usize) {
    let text = serde_json::to_string(report).expect("a report serializes");
    let head = text[..text.len() - 1].trim_end_matches(|c: char| c.is_ascii_digit());
    assert!(head.ends_with("\"digest\":"), "digest is not last");
    let at = head.len();
    (text, at)
}

/// Seal `report` with one encode: encode it with the digest zeroed, hash
/// that text, and write the digest into the report and into the text,
/// which is returned.
pub fn seal<R: Sealed>(report: &mut R) -> String {
    *report.digest() = 0;
    let (mut text, at) = encode(report);
    let digest = fnv1a64(text.as_bytes());
    *report.digest() = digest;
    text.replace_range(at.., &format!("{digest}}}"));
    text
}

/// Does `report`'s digest cover the rest of it? One encode, no copy: the
/// zeroed encoding is the report's own with the digest's digits read as 0.
pub fn digest_ok<R: Sealed>(report: &R) -> bool {
    let (text, at) = encode(report);
    let zeroed = fnv1a64_extend(fnv1a64(&text.as_bytes()[..at]), b"0}");
    text[at..text.len() - 1].parse() == Ok(zeroed)
}

/// Parse a sealed report, then refuse a foreign schema version, then a
/// digest that does not cover the contents — in that order, so a report
/// of another schema is named as such, not as tampered. `origin` (a path,
/// or the type's name) leads the digest error.
pub fn load<R: Sealed>(text: &str, origin: &str) -> Result<R, String> {
    let report: R = serde_json::from_str(text).map_err(|e| format!("bad {}: {e:?}", R::NAME))?;
    let (name, version, want) = (R::NAME, report.version(), R::VERSION);
    let err = if version != want {
        format!("{name} version {version} unsupported (expected {want})")
    } else if !digest_ok(&report) {
        format!("{origin}: report digest does not match its contents")
    } else {
        return Ok(report);
    };
    Err(err)
}

/// FNV-1a 64 over raw bytes — stable, dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a 64 hash `h` over more bytes.
fn fnv1a64_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Note {
        version: u32,
        text: String,
        digest: u64,
    }

    impl Sealed for Note {
        const NAME: &'static str = "Note";
        const VERSION: u32 = 3;
        fn version(&self) -> u32 {
            self.version
        }
        fn digest(&mut self) -> &mut u64 {
            &mut self.digest
        }
    }

    fn note(text: &str) -> Note {
        Note {
            version: 3,
            text: text.into(),
            digest: 7,
        }
    }

    #[test]
    fn fnv_continues_over_a_split() {
        assert_eq!(fnv1a64_extend(fnv1a64(b"ab"), b"c"), fnv1a64(b"abc"));
        assert_eq!(fnv1a64_extend(fnv1a64(b""), b""), fnv1a64(b""));
    }

    #[test]
    fn seal_hashes_the_zeroed_encoding_and_returns_the_sealed_one() {
        let mut n = note("x");
        let text = seal(&mut n);
        assert_eq!(n.digest, fnv1a64(br#"{"version":3,"text":"x","digest":0}"#));
        assert_eq!(text, serde_json::to_string(&n).unwrap());
        assert!(digest_ok(&n));
        n.text.push('y');
        assert!(!digest_ok(&n));
        n.text.pop();
        n.digest ^= 1;
        assert!(!digest_ok(&n));
    }

    #[test]
    fn load_checks_parse_then_version_then_digest() {
        let mut n = note("a");
        let text = seal(&mut n);
        assert_eq!(load::<Note>(&text, "n.json").unwrap(), n);
        let err = load::<Note>(&text[..10], "n.json").unwrap_err();
        assert!(err.starts_with("bad Note:"), "{err}");
        // A foreign version is named as such even when the digest breaks.
        let v9 = text.replacen("\"version\":3", "\"version\":9", 1);
        let err = load::<Note>(&v9, "n.json").unwrap_err();
        assert_eq!(err, "Note version 9 unsupported (expected 3)");
        let tampered = text.replacen("\"a\"", "\"b\"", 1);
        let err = load::<Note>(&tampered, "n.json").unwrap_err();
        assert_eq!(err, "n.json: report digest does not match its contents");
    }
}
