//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Every file in a store directory carries checksums so corruption is
//! detected at open or first access rather than surfacing as garbage
//! events. A cold reader checksums every segment it touches in full, so
//! this runs at memory speed. On x86-64 CPUs with carry-less multiply
//! (`PCLMULQDQ`, detected at run time) runs of 64 bytes and more fold
//! four 16-byte lanes at a time (Gopal et al., "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009); the
//! tail, short inputs and every other CPU go through slicing-by-16
//! (sixteen input bytes per step through sixteen tables generated at
//! compile time). No external dependency.

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

/// Fold `data` into the register `c` by slicing-by-16: the path for
/// short inputs, tails and CPUs without carry-less multiply.
fn update_table(mut c: u32, data: &[u8]) -> u32 {
    let word = |b: &[u8], at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
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
    c
}

/// The carry-less-multiply path: four 128-bit lanes folded 64 bytes at a
/// time, reduced to one lane, then to 32 bits by Barrett reduction. The
/// constants are the bit-reflected ones of the Intel paper for this
/// polynomial: `k1`/`k2` fold a lane 512 bits on, `k3`/`k4` 128 bits on,
/// `k5` 64 bits on; `P'` is the polynomial with its x^32 term and `MU`
/// ⌊x^64 / P⌋, both reflected.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// The shortest input worth the set-up and the final reduction.
    pub(super) const MIN_LEN: usize = 64;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU has the instructions [`fold`] needs (the answer
    /// is cached by the standard library after the first call).
    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Sixteen bytes as one lane, first byte lowest: an unaligned load
    /// through the slice, no pointer.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    unsafe fn load(b: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(b[..8].try_into().unwrap());
        let hi = i64::from_le_bytes(b[8..16].try_into().unwrap());
        _mm_set_epi64x(hi, lo)
    }

    /// `x` carried 128 (or, with `k1k2`, 512) bits on, plus `y`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    unsafe fn fold16(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(hi, lo), y)
    }

    /// Fold `data` into the register `crc`. `data` is at least
    /// [`MIN_LEN`] bytes long and a multiple of 16.
    ///
    /// # Safety
    ///
    /// The CPU must have `pclmulqdq` and `sse4.1` ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN && data.len() % 16 == 0);
        let mut x1 = _mm_xor_si128(load(&data[0..]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&data[16..]);
        let mut x3 = load(&data[32..]);
        let mut x4 = load(&data[48..]);
        let mut rest = &data[64..];
        let k1k2 = _mm_set_epi64x(K2, K1);
        while rest.len() >= 64 {
            x1 = fold16(x1, k1k2, load(&rest[0..]));
            x2 = fold16(x2, k1k2, load(&rest[16..]));
            x3 = fold16(x3, k1k2, load(&rest[32..]));
            x4 = fold16(x4, k1k2, load(&rest[48..]));
            rest = &rest[64..];
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        x1 = fold16(x1, k3k4, x2);
        x1 = fold16(x1, k3k4, x3);
        x1 = fold16(x1, k3k4, x4);
        while rest.len() >= 16 {
            x1 = fold16(x1, k3k4, load(rest));
            rest = &rest[16..];
        }
        // 128 bits to 64, then to 32 + 32 for the reduction.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
        let x2 = _mm_srli_si128(x1, 4);
        x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), _mm_set_epi64x(0, K5), 0x00);
        x1 = _mm_xor_si128(x1, x2);
        // Barrett reduction to the 32-bit register.
        let poly = _mm_set_epi64x(MU, P);
        let mut t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
        t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x1, t), 1) as u32
    }
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
    pub fn update(&mut self, mut data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul::available() {
            let whole = data.len() & !15;
            // SAFETY: `available` found `pclmulqdq` and `sse4.1` on this
            // CPU, the only requirement of a `target_feature` function;
            // `fold` reads nothing but its slice, of at least `MIN_LEN`
            // bytes and a multiple of 16, as it asks.
            self.c = unsafe { clmul::fold(self.c, &data[..whole]) };
            data = &data[whole..];
        }
        self.c = update_table(self.c, data);
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

    /// Every length 0..=4096 at every misalignment 0..16 of a larger
    /// allocation, through each path the CPU has: the table path called
    /// directly (so it is covered on every CPU, even where `update` would
    /// never reach it past 64 bytes), the carry-less-multiply path where
    /// it is available, and `crc32`. The reference is folded once, a byte
    /// at a time, so the register after `len` bytes is at hand for each.
    #[test]
    fn both_paths_equal_the_bytewise_reference_at_every_length_and_misalignment() {
        const MAX: usize = 4096;
        let bytes: Vec<u8> = (0..MAX as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut want = Vec::with_capacity(MAX + 1);
        let mut c = !0u32;
        want.push(!c);
        for &b in &bytes {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
            want.push(!c);
        }
        assert_eq!(want[MAX], crc32_reference(&bytes));
        let mut backing = vec![0u8; MAX + 16];
        for start in 0..16 {
            backing[start..start + MAX].copy_from_slice(&bytes);
            for (len, &want) in want.iter().enumerate() {
                let data = &backing[start..start + len];
                assert_eq!(
                    !update_table(!0, data),
                    want,
                    "table: {len} bytes at +{start}"
                );
                assert_eq!(crc32(data), want, "crc32: {len} bytes at +{start}");
                #[cfg(target_arch = "x86_64")]
                if clmul::available() && len >= clmul::MIN_LEN {
                    let whole = len & !15;
                    // SAFETY: the features were just detected; `whole` is
                    // at least `MIN_LEN` and a multiple of 16.
                    let c = unsafe { clmul::fold(!0, &data[..whole]) };
                    assert_eq!(
                        !update_table(c, &data[whole..]),
                        want,
                        "clmul: {len} bytes at +{start}"
                    );
                }
            }
        }
    }

    /// Chunked updates whose sizes sit either side of the fast path's
    /// threshold and its 16-byte granule: the register handed from one
    /// path to the other must carry over exactly.
    #[test]
    fn chunks_straddling_the_fast_path_threshold_fold_to_the_reference() {
        let bytes: Vec<u8> = (0..2048u32).map(|i| (i * 97 + 5) as u8).collect();
        let sizes = [
            0, 1, 15, 16, 17, 47, 48, 63, 64, 65, 79, 80, 127, 128, 129, 200,
        ];
        for first in sizes {
            for second in sizes {
                let mut crc = Crc32::new();
                let mut at = 0;
                // Alternate the two sizes until the input runs out.
                for size in [first, second].into_iter().cycle().take(64) {
                    let end = (at + size).min(bytes.len());
                    crc.update(&bytes[at..end]);
                    at = end;
                }
                crc.update(&bytes[at..]);
                assert_eq!(
                    crc.value(),
                    crc32_reference(&bytes),
                    "chunks {first}, {second}"
                );
            }
        }
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
