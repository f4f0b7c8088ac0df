//! Message payloads.
//!
//! Payloads are opaque byte vectors (as they are to MPI); helpers cover the
//! element types the workloads use. All encodings are little-endian.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An owned message payload.
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Payload(pub Vec<u8>);

impl Payload {
    pub fn empty() -> Self {
        Payload(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    // --- f64 slices (matrix blocks) ---

    pub fn from_f64s(v: &[f64]) -> Self {
        let mut b = Vec::with_capacity(v.len() * 8);
        for x in v {
            b.extend_from_slice(&x.to_le_bytes());
        }
        Payload(b)
    }

    /// Decode as a slice of f64; returns `None` if the length is not a
    /// multiple of 8.
    pub fn to_f64s(&self) -> Option<Vec<f64>> {
        if self.0.len() % 8 != 0 {
            return None;
        }
        Some(
            self.0
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        )
    }

    // --- i64 scalars / slices ---

    pub fn from_i64(x: i64) -> Self {
        Payload(x.to_le_bytes().to_vec())
    }

    pub fn to_i64(&self) -> Option<i64> {
        let arr: [u8; 8] = self.0.as_slice().try_into().ok()?;
        Some(i64::from_le_bytes(arr))
    }

    pub fn from_i64s(v: &[i64]) -> Self {
        let mut b = Vec::with_capacity(v.len() * 8);
        for x in v {
            b.extend_from_slice(&x.to_le_bytes());
        }
        Payload(b)
    }

    pub fn to_i64s(&self) -> Option<Vec<i64>> {
        if self.0.len() % 8 != 0 {
            return None;
        }
        Some(
            self.0
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        )
    }

    /// Split into `n` equal chunks (scatter); panics if not divisible.
    pub fn split_n(&self, n: usize) -> Vec<Payload> {
        assert!(n > 0);
        assert_eq!(
            self.0.len() % n,
            0,
            "payload of {} bytes not divisible into {} chunks",
            self.0.len(),
            n
        );
        let k = self.0.len() / n;
        (0..n)
            .map(|i| Payload(self.0[i * k..(i + 1) * k].to_vec()))
            .collect()
    }

    /// Concatenate chunks (gather).
    pub fn concat(parts: &[Payload]) -> Payload {
        let mut b = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            b.extend_from_slice(&p.0);
        }
        Payload(b)
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.0.len())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let v = vec![1.5, -2.25, 0.0, 1e300];
        let p = Payload::from_f64s(&v);
        assert_eq!(p.len(), 32);
        assert_eq!(p.to_f64s().unwrap(), v);
    }

    #[test]
    fn f64_bad_length() {
        let p = Payload(vec![0u8; 9]);
        assert!(p.to_f64s().is_none());
    }

    #[test]
    fn i64_roundtrip() {
        assert_eq!(Payload::from_i64(-42).to_i64(), Some(-42));
        assert_eq!(Payload::from_i64(i64::MAX).to_i64(), Some(i64::MAX));
        assert!(Payload(vec![1, 2]).to_i64().is_none());
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
        Payload(vec![0u8; 10]).split_n(3);
    }
}
