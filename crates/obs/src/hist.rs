//! [`LatencyHistogram`] — log2-bucketed integer-nanosecond latency
//! distribution, HdrHistogram-style.
//!
//! Bucket `i` holds samples whose value has highest set bit `i`, i.e. the
//! range `[2^i, 2^(i+1))` (bucket 0 holds 0 and 1 ns), so recording is a
//! `leading_zeros` and buckets from independent runs merge by addition.
//! Percentiles are read from the bucket upper bound clamped into the
//! observed `[min, max]`, so every reported figure is deterministic given
//! the recorded samples.
//!
//! Wall-clock latency can never be reproducible, so a histogram is an
//! in-memory accumulator only — [`SpanLatencyProbe`](crate::SpanLatencyProbe)
//! keeps one per span — and has no serialized form: no deterministic
//! report can hold one.

use std::time::Duration;

/// Number of log2 buckets — one per possible highest set bit of a `u64`.
pub const N_BUCKETS: usize = 64;

/// A mergeable latency distribution over integer nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    count: u64,
    total_ns: u64,
    min_ns: u64, // u64::MAX while empty, so min() folds correctly on merge
    max_ns: u64,
    buckets: [u64; N_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; N_BUCKETS],
        }
    }

    const fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        }
    }

    const fn bucket_upper(index: usize) -> u64 {
        if index >= N_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (index + 1)) - 1
        }
    }

    /// Records one sample of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    /// Records one sample (saturating at `u64::MAX` ns ≈ 584 years).
    pub fn record(&mut self, elapsed: Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds `other`'s samples into `self` — bucket-wise addition, so
    /// merging per-trial histograms equals recording every sample into
    /// one histogram (up to the saturating total).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples, ns (saturating).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Smallest sample, ns (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest sample, ns.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean sample, ns — 0 when nothing was recorded (never a division
    /// by zero).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The value at or below which `pct`% of samples fall, read from the
    /// log2 buckets (upper bound of the rank's bucket, clamped into the
    /// observed `[min, max]`). `pct` is clamped to 1–100; 0 when empty.
    pub fn percentile_ns(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pct = pct.clamp(1, 100);
        let rank = self.count.saturating_mul(pct).div_ceil(100);
        let rank = rank.clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Self::bucket_upper(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median sample, ns (log2-bucket resolution).
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(50)
    }

    /// 90th-percentile sample, ns (log2-bucket resolution).
    pub fn p90_ns(&self) -> u64 {
        self.percentile_ns(90)
    }

    /// 99th-percentile sample, ns (log2-bucket resolution).
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99)
    }

    /// Occupied buckets as `(bucket_index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u32, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0, "zero count must not divide");
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn records_land_in_log2_buckets() {
        let mut h = LatencyHistogram::new();
        for ns in [0, 1, 2, 3, 4, 1000, 1024] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 1024);
        let buckets = h.nonzero_buckets();
        // 0,1 → bucket 0; 2,3 → bucket 1; 4 → bucket 2; 1000 → bucket 9;
        // 1024 → bucket 10.
        assert_eq!(buckets, vec![(0, 2), (1, 2), (2, 1), (9, 1), (10, 1)]);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record_ns(ns * 17);
        }
        let (p50, p90, p99) = (h.p50_ns(), h.p90_ns(), h.p99_ns());
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max_ns());
        assert!(p50 >= h.min_ns());
        assert_eq!(h.percentile_ns(100), h.max_ns());
    }

    #[test]
    fn merge_equals_recording_everything_once() {
        let samples_a = [3u64, 900, 40_000, 7];
        let samples_b = [1u64, 65_000, 12];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for &s in &samples_a {
            a.record_ns(s);
            all.record_ns(s);
        }
        for &s in &samples_b {
            b.record_ns(s);
            all.record_ns(s);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram changes nothing.
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, all);
    }
}
