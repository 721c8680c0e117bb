//! Order statistics: medians and quartiles across repeats, and the
//! percentile rule for latency samples within one repeat.

/// Samples that must lie beyond a percentile before it is reported: the
/// highest percentile of `n` samples is the one with at least this many
/// samples above it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `pct`-th percentile (nearest rank) of `sorted`, or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie beyond it — a p99 of 500 samples
/// would be decided by five of them.
pub fn percentile(sorted: &[u64], pct: u32) -> Option<u64> {
    debug_assert!(pct > 0 && pct < 100);
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = (n * pct as usize).div_ceil(100).max(1);
    (n >= rank + MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts `samples` and returns its `pct`-th percentile in microseconds;
/// 0 when the percentile rule refuses it (too few samples).
pub fn percentile_us(samples: &mut [u64], pct: u32) -> f64 {
    samples.sort_unstable();
    percentile(samples, pct).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// Lowers each element of `best` to the matching element of `repeat`; an
/// empty `best` becomes a copy of `repeat`. Every repeat of a run executes
/// the same ops against the same states, so element `j` of every repeat
/// timed the same work, and the smallest reading is the one host
/// interference disturbed least.
pub fn fold_min(best: &mut Vec<u64>, repeat: &[u64]) {
    if best.is_empty() {
        best.extend_from_slice(repeat);
    }
    for (best, &new) in best.iter_mut().zip(repeat) {
        *best = (*best).min(new);
    }
}

/// Median, quartiles and count of one metric's values across repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of repeats summarised.
    pub n: usize,
}

impl Summary {
    /// Summarises `values` (at least one). Quartiles interpolate linearly
    /// between closest ranks, so one repeat gives `q1 == median == q3`.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a metric needs at least one repeat");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Summary {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n: sorted.len(),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let samples: Vec<u64> = (1..=999).collect();
        // p99 of 999 samples has 9 beyond it: refused.
        assert_eq!(percentile(&samples, 99), None);
        let samples: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 samples is the 990th with exactly 10 beyond: allowed.
        assert_eq!(percentile(&samples, 99), Some(990));
        assert_eq!(percentile(&samples, 50), Some(500));
        // A median needs 10 samples beyond it too.
        let few: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&few, 50), Some(10));
        assert_eq!(percentile(&few[..19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn fold_min_keeps_the_least_disturbed_reading_of_each_element() {
        let mut best = Vec::new();
        fold_min(&mut best, &[5, 9, 7]);
        fold_min(&mut best, &[6, 3, 7]);
        fold_min(&mut best, &[50, 90, 2]);
        assert_eq!(best, [5, 3, 2]);
    }

    #[test]
    fn summary_takes_median_and_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.median, 2.5);
        let one = Summary::of(&[7.0]);
        assert_eq!((one.median, one.q1, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
