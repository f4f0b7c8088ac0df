//! Message payloads.
//!
//! Payloads are opaque, immutable bytes (as they are to MPI); helpers
//! cover the element types the workloads use. All encodings are
//! little-endian.
//!
//! A payload of up to [`INLINE`] bytes lives in the value itself, and a
//! longer one behind an `Arc`, so copying a payload never allocates: a
//! queued message, a delivered one and a rank's checkpointed reply each
//! hold the bytes by value or by pointer.

use std::fmt;
use std::sync::Arc;

/// The longest payload held inline: a `Payload` is 24 bytes either way.
pub const INLINE: usize = 22;

/// An immutable message payload.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Shared(Arc<[u8]>),
}

const _: () = assert!(std::mem::size_of::<Payload>() == 24);

impl Payload {
    pub fn empty() -> Self {
        Payload(Repr::Inline {
            len: 0,
            bytes: [0; INLINE],
        })
    }

    /// A payload holding a copy of `bytes`: inline up to [`INLINE`]
    /// bytes, else one shared allocation.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE {
            let mut inline = [0; INLINE];
            inline[..bytes.len()].copy_from_slice(bytes);
            Payload(Repr::Inline {
                len: bytes.len() as u8,
                bytes: inline,
            })
        } else {
            Payload(Repr::Shared(Arc::from(bytes)))
        }
    }

    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(bytes) => bytes,
        }
    }

    /// The payload of `words` 8-byte little-endian values.
    fn from_words(words: impl ExactSizeIterator<Item = [u8; 8]>) -> Self {
        let mut b = Vec::with_capacity(words.len() * 8);
        words.for_each(|w| b.extend_from_slice(&w));
        Payload::from(b)
    }

    /// The bytes as 8-byte words; `None` if the length is not a multiple
    /// of 8.
    fn words(&self) -> Option<impl Iterator<Item = [u8; 8]> + '_> {
        let bytes = self.bytes();
        (bytes.len() % 8 == 0).then(|| bytes.chunks_exact(8).map(|c| c.try_into().unwrap()))
    }

    // --- f64 slices (matrix blocks) ---

    pub fn from_f64s(v: &[f64]) -> Self {
        Payload::from_words(v.iter().map(|x| x.to_le_bytes()))
    }

    /// Decode as a slice of f64; returns `None` if the length is not a
    /// multiple of 8.
    pub fn to_f64s(&self) -> Option<Vec<f64>> {
        Some(self.words()?.map(f64::from_le_bytes).collect())
    }

    // --- i64 scalars / slices ---

    pub fn from_i64(x: i64) -> Self {
        Payload::from_bytes(&x.to_le_bytes())
    }

    pub fn to_i64(&self) -> Option<i64> {
        let arr: [u8; 8] = self.bytes().try_into().ok()?;
        Some(i64::from_le_bytes(arr))
    }

    pub fn from_i64s(v: &[i64]) -> Self {
        Payload::from_words(v.iter().map(|x| x.to_le_bytes()))
    }

    pub fn to_i64s(&self) -> Option<Vec<i64>> {
        Some(self.words()?.map(i64::from_le_bytes).collect())
    }

    /// Split into `n` equal chunks (scatter); panics if not divisible.
    pub fn split_n(&self, n: usize) -> Vec<Payload> {
        assert!(n > 0);
        let bytes = self.bytes();
        assert_eq!(
            bytes.len() % n,
            0,
            "payload of {} bytes not divisible into {} chunks",
            bytes.len(),
            n
        );
        let k = bytes.len() / n;
        (0..n)
            .map(|i| Payload::from_bytes(&bytes[i * k..(i + 1) * k]))
            .collect()
    }

    /// Concatenate chunks (gather).
    pub fn concat(parts: &[Payload]) -> Payload {
        let mut b = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            b.extend_from_slice(p.bytes());
        }
        Payload::from(b)
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

/// Equal bytes are equal payloads, whichever way each holds them.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from_bytes(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| i as u8).collect()
    }

    fn is_inline(p: &Payload) -> bool {
        matches!(p.0, Repr::Inline { .. })
    }

    #[test]
    fn f64_roundtrip() {
        let v = vec![1.5, -2.25, 0.0, 1e300];
        let p = Payload::from_f64s(&v);
        assert_eq!(p.len(), 32);
        assert_eq!(p.to_f64s().unwrap(), v);
    }

    #[test]
    fn f64_bad_length() {
        let p = Payload::from(vec![0u8; 9]);
        assert!(p.to_f64s().is_none());
    }

    #[test]
    fn i64_roundtrip() {
        assert_eq!(Payload::from_i64(-42).to_i64(), Some(-42));
        assert_eq!(Payload::from_i64(i64::MAX).to_i64(), Some(i64::MAX));
        assert!(Payload::from(vec![1, 2]).to_i64().is_none());
        let v = vec![1i64, -5, 7];
        assert_eq!(Payload::from_i64s(&v).to_i64s().unwrap(), v);
    }

    #[test]
    fn split_and_concat() {
        let p = Payload::from_i64s(&[1, 2, 3, 4]);
        let parts = p.split_n(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[2].to_i64(), Some(3));
        assert_eq!(Payload::concat(&parts), p);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn split_indivisible_panics() {
        Payload::from(vec![0u8; 10]).split_n(3);
    }

    /// Up to 22 bytes are held inline and 23 or more shared, and the two
    /// are told apart by nothing a caller sees.
    #[test]
    fn the_representation_is_invisible() {
        for n in [0, 1, 8, INLINE - 1, INLINE, INLINE + 1, 24, 100] {
            let (a, b) = (Payload::from(bytes(n)), Payload::from_bytes(&bytes(n)));
            assert_eq!(is_inline(&a), n <= INLINE, "{n} bytes");
            assert_eq!(a.bytes(), &bytes(n)[..]);
            assert_eq!(a, b);
            assert_eq!(a.clone(), a);
            assert_eq!(a.len(), n);
            assert_eq!(a.is_empty(), n == 0);
            assert_eq!(format!("{a:?}"), format!("Payload({n} bytes)"));
        }
        // A shared payload equals an inline one of the same bytes.
        let shared = Payload(Repr::Shared(Arc::from(&bytes(5)[..])));
        assert_eq!(shared, Payload::from_bytes(&bytes(5)));
        assert_eq!(format!("{shared:?}"), "Payload(5 bytes)");
        assert_ne!(Payload::from(bytes(23)), Payload::from(bytes(22)));
        assert_ne!(Payload::from(bytes(3)), Payload::from(vec![9, 9, 9]));
        assert_eq!(Payload::default(), Payload::empty());
    }

    /// Splitting and concatenating keep the bytes across the boundary:
    /// a shared payload splits into inline parts and inline parts gather
    /// into a shared one.
    #[test]
    fn split_and_concat_cross_the_inline_boundary() {
        for (n, parts) in [
            (44, 2),
            (46, 2),
            (23, 1),
            (22, 1),
            (69, 3),
            (24, 3),
            (66, 3),
        ] {
            let whole = Payload::from(bytes(n));
            let split = whole.split_n(parts);
            assert_eq!(split.len(), parts);
            for (i, part) in split.iter().enumerate() {
                let k = n / parts;
                assert_eq!(part.bytes(), &bytes(n)[i * k..(i + 1) * k], "{n}/{parts}");
                assert_eq!(is_inline(part), k <= INLINE);
            }
            let gathered = Payload::concat(&split);
            assert_eq!(gathered, whole);
            assert_eq!(is_inline(&gathered), n <= INLINE);
        }
    }
}
