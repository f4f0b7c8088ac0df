//! Fixed log-2-bucket histogram.
//!
//! AIMS statistics views summarize distributions (message sizes, blocking
//! durations) rather than raw samples; a 65-bucket power-of-two histogram
//! keeps that summary O(1) per sample and O(1) space with no floating
//! point anywhere — merges and serialized form stay byte-deterministic.
//!
//! Bucket layout: bucket 0 holds exactly the value 0; bucket `i` (1..=63)
//! holds values in `[2^(i-1), 2^i - 1]`; bucket 64 holds `u64::MAX` alone
//! (the only value whose `ilog2` is 63 *and* that does not fit the
//! half-open scheme — in practice, the saturation bucket).

use serde::{Deserialize, Serialize};

/// Number of buckets: {0}, 63 power-of-two ranges, and a saturation
/// bucket for `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// A log-2-bucket histogram over `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Per-bucket sample counts; see module docs for the layout.
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        match value {
            0 => 0,
            u64::MAX => HIST_BUCKETS - 1,
            v => v.ilog2() as usize + 1,
        }
    }

    /// Inclusive value range `[lo, hi]` covered by bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (u64::MAX, u64::MAX),
            _ => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one (element-wise bucket sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Integer mean of the samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_goes_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 0);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn u64_max_goes_to_saturation_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(h.max, u64::MAX);
        // A second MAX saturates the sum instead of wrapping.
        h.record(u64::MAX);
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn power_of_two_boundaries() {
        // 2^i opens bucket i+1; 2^i - 1 closes bucket i.
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(255), 8);
        assert_eq!(Histogram::bucket_of(256), 9);
        assert_eq!(Histogram::bucket_of(u64::MAX - 1), 64);
        assert_eq!(Histogram::bucket_of(1u64 << 63), 64);
        assert_eq!(Histogram::bucket_of((1u64 << 63) - 1), 63);
    }

    #[test]
    fn ranges_tile_the_domain() {
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(Histogram::bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_of(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn merge_is_elementwise_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0, 1, 5, 1000] {
            a.record(v);
        }
        for v in [3, 5, u64::MAX] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 7);
        assert_eq!(merged.max, u64::MAX);
        let mut all = Histogram::new();
        for v in [0, 1, 5, 1000, 3, 5, u64::MAX] {
            all.record(v);
        }
        assert_eq!(merged, all);
    }

    #[test]
    fn mean_is_integer_division() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(4);
        assert_eq!(h.mean(), 3);
        assert_eq!(Histogram::new().mean(), 0);
    }
}
