//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Every file in a store directory carries checksums so corruption is
//! detected at open or first access rather than surfacing as garbage
//! events. A cold reader checksums every segment it touches in full, so
//! this runs at memory speed: slicing-by-16 (sixteen input bytes per
//! step through sixteen tables generated at compile time), portable safe
//! code, no external dependency.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets one step fold
/// sixteen bytes with sixteen independent lookups.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Four input bytes (as a little-endian word) through the four tables
/// for a word followed by `t` more bytes of the block.
#[inline(always)]
fn fold(t: usize, w: u32) -> u32 {
    (TABLES[t + 3][(w & 0xff) as usize] ^ TABLES[t + 2][((w >> 8) & 0xff) as usize])
        ^ (TABLES[t + 1][((w >> 16) & 0xff) as usize] ^ TABLES[t][(w >> 24) as usize])
}

/// A CRC-32 folded over its input one chunk at a time: the writer checks
/// a segment's payload as it streams to disk. Any split of the input, empty
/// chunks included, gives the one-shot [`crc32`] of the whole.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    /// The register before the final inversion.
    c: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32 { c: !0 }
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32::default()
    }

    /// Fold the next chunk of the input.
    pub fn update(&mut self, data: &[u8]) {
        let word =
            |b: &[u8], at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        let mut c = self.c;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            // Only the first word waits for the running CRC. The other
            // twelve bytes are looked up while the previous block still
            // finishes, and the first word is folded in last: the chain
            // from block to block is one lookup and two xors deep, not
            // sixteen xors in a row — worth a factor of two.
            let rest = (fold(8, word(b, 4)) ^ fold(4, word(b, 8))) ^ fold(0, word(b, 12));
            c = fold(12, word(b, 0) ^ c) ^ rest;
        }
        for &b in blocks.remainder() {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.c = c;
    }

    /// The CRC of everything folded so far.
    pub fn value(&self) -> u32 {
        !self.c
    }
}

/// CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop [`crc32`] used to be: the oracle.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn block_boundaries_match_the_reference() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [0, 15, 16, 17, 31, 32, 33] {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_reference(&bytes[..len]),
                "{len} bytes"
            );
        }
        // Known value past one block, independent of the oracle.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    proptest! {
        /// Any split of any input — empty chunks and chunks shorter than
        /// one sixteen-byte block included — folds to the one-shot value.
        #[test]
        fn running_equals_one_shot(
            bytes in proptest::collection::vec(any::<u8>(), 0..=1024),
            cuts in proptest::collection::vec(0usize..=1024, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                crc.update(&bytes[at..cut]);
                crc.update(&[]);
                at = cut;
            }
            prop_assert_eq!(crc.value(), crc32(&bytes));
        }

        /// Up to 4096 random bytes, hashed at every start offset 0..16 of
        /// a larger allocation: every tail remainder and every
        /// misalignment of the sixteen-byte blocks against the allocation.
        #[test]
        fn sliced_equals_bytewise(bytes in proptest::collection::vec(any::<u8>(), 0..=4096)) {
            let want = crc32_reference(&bytes);
            let mut backing = vec![0u8; bytes.len() + 16];
            for start in 0..16 {
                let data = &mut backing[start..start + bytes.len()];
                data.copy_from_slice(&bytes);
                prop_assert_eq!(crc32(data), want, "start {}", start);
            }
        }
    }
}
