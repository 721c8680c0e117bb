//! Run-length encoded phase vectors — the paper's `⟨x^n, y^m⟩` notation.
//!
//! CSDF actors cycle through a fixed sequence of *phases*; each phase carries
//! a worst-case execution time and, per channel, a token production or
//! consumption count. The DATE 2008 paper writes these as `⟨x^n, y^m⟩`,
//! meaning `n` phases with value `x` followed by `m` phases with value `y`
//! (Table 1). [`PhaseVec`] stores exactly that encoding.

use serde::{de, Deserialize, Serialize, Value};
use std::fmt;

/// A single run of identical phase values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Run {
    /// The per-phase value (token count or WCET in cycles).
    pub value: u64,
    /// How many consecutive phases carry this value. Always ≥ 1.
    pub count: u32,
}

/// A cyclo-static phase vector: a non-empty sequence of `u64` values with
/// run-length compression, matching the paper's `⟨x^n, y^m⟩` notation.
///
/// # Example
///
/// ```
/// use rtsm_dataflow::PhaseVec;
///
/// // ⟨8^2, (8,0)^8⟩ — prefix-removal input rates on the ARM (Table 1).
/// let v = PhaseVec::uniform(8, 2).concat(&PhaseVec::repeat_pattern(&[8, 0], 8));
/// assert_eq!(v.len(), 18);
/// assert_eq!(v.total(), 80);
/// assert_eq!(v.get(0), 8);
/// assert_eq!(v.get(3), 0);
/// ```
///
/// A file's phase vector is held to the constructors' rules on the way in:
/// at least one run, no run of zero phases, and `len` the sum of the runs'
/// counts; and no phase value above `u32::MAX`, so that totals and times
/// in picoseconds stay within `u64`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct PhaseVec {
    runs: Vec<Run>,
    /// Total number of phases (cached).
    len: u32,
}

/// What a file holds of a [`PhaseVec`], before its checks.
#[derive(Deserialize)]
struct PhaseVecSerde {
    runs: Vec<Run>,
    len: u32,
}

impl Deserialize for PhaseVec {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        let PhaseVecSerde { runs, len } = PhaseVecSerde::from_value(value)?;
        let phases: u64 = runs.iter().map(|r| u64::from(r.count)).sum();
        let refusal = if runs.is_empty() {
            "no runs".to_string()
        } else if runs.iter().any(|r| r.count == 0) {
            "a run of 0 phases".to_string()
        } else if let Some(r) = runs.iter().find(|r| r.value > u64::from(u32::MAX)) {
            format!("a phase value of {} above 2^32 - 1", r.value)
        } else if phases != u64::from(len) {
            format!("runs of {phases} phases under a len of {len}")
        } else {
            return Ok(PhaseVec { runs, len });
        };
        Err(de::Error::msg(format!("invalid phase vector: {refusal}")))
    }
}

impl PhaseVec {
    /// A vector of `count` phases, all with the same `value` — the paper's
    /// `⟨value^count⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`; phase vectors are never empty.
    pub fn uniform(value: u64, count: u32) -> Self {
        assert!(count > 0, "phase vectors must be non-empty");
        PhaseVec {
            runs: vec![Run { value, count }],
            len: count,
        }
    }

    /// A single-phase vector `⟨value⟩`.
    pub fn single(value: u64) -> Self {
        Self::uniform(value, 1)
    }

    /// Builds a vector from explicit per-phase values, compressing runs.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_slice(values: &[u64]) -> Self {
        assert!(!values.is_empty(), "phase vectors must be non-empty");
        let mut runs: Vec<Run> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some(r) if r.value == v => r.count += 1,
                _ => runs.push(Run { value: v, count: 1 }),
            }
        }
        PhaseVec {
            len: values.len() as u32,
            runs,
        }
    }

    /// Repeats `pattern` `times` times — the paper's `⟨(a,b)^n⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is empty or `times == 0`.
    pub fn repeat_pattern(pattern: &[u64], times: u32) -> Self {
        assert!(!pattern.is_empty() && times > 0, "empty pattern repetition");
        let mut values = Vec::with_capacity(pattern.len() * times as usize);
        for _ in 0..times {
            values.extend_from_slice(pattern);
        }
        Self::from_slice(&values)
    }

    /// Concatenates two phase vectors: `⟨a…⟩ ⧺ ⟨b…⟩`.
    #[must_use]
    pub fn concat(&self, other: &PhaseVec) -> PhaseVec {
        let mut runs = self.runs.clone();
        for r in &other.runs {
            match runs.last_mut() {
                Some(last) if last.value == r.value => last.count += r.count,
                _ => runs.push(*r),
            }
        }
        PhaseVec {
            runs,
            len: self.len + other.len,
        }
    }

    /// Number of phases.
    #[allow(clippy::len_without_is_empty)] // never empty by construction
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Value at phase `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> u64 {
        let mut remaining = i;
        for r in &self.runs {
            if remaining < r.count as usize {
                return r.value;
            }
            remaining -= r.count as usize;
        }
        panic!("phase index {i} out of bounds (len {})", self.len);
    }

    /// Sum of all phase values — e.g. total tokens moved per actor iteration.
    pub fn total(&self) -> u64 {
        self.runs.iter().map(|r| r.value * u64::from(r.count)).sum()
    }

    /// The largest single-phase value.
    pub fn max(&self) -> u64 {
        self.runs.iter().map(|r| r.value).max().unwrap_or(0)
    }

    /// Cumulative sum of the first `n` phases (`n` may exceed one cycle, in
    /// which case whole-cycle totals are added).
    ///
    /// This is the `γ` function used in CSDF→HSDF expansion: tokens moved by
    /// the first `n` firings of an actor on a channel.
    pub fn cumulative(&self, n: u64) -> u64 {
        let cycle = self.len as u64;
        let full_cycles = n / cycle;
        let rem = (n % cycle) as usize;
        let mut acc = full_cycles * self.total();
        let mut taken = 0usize;
        for r in &self.runs {
            if taken >= rem {
                break;
            }
            let take = (r.count as usize).min(rem - taken);
            acc += r.value * take as u64;
            taken += take;
        }
        acc
    }

    /// Iterates over per-phase values (expanded).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.value, r.count as usize))
    }

    /// The compressed runs.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Returns a copy with every value scaled by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: u64) -> PhaseVec {
        PhaseVec {
            runs: self
                .runs
                .iter()
                .map(|r| Run {
                    value: r.value * factor,
                    count: r.count,
                })
                .collect(),
            len: self.len,
        }
    }
}

impl fmt::Display for PhaseVec {
    /// Formats in the paper's notation, e.g. `⟨8^2, 0^8⟩` or `⟨18^18⟩`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if r.count == 1 {
                write!(f, "{}", r.value)?;
            } else {
                write!(f, "{}^{}", r.value, r.count)?;
            }
        }
        write!(f, "⟩")
    }
}

impl From<u64> for PhaseVec {
    fn from(value: u64) -> Self {
        PhaseVec::single(value)
    }
}

impl<'a> FromIterator<&'a u64> for PhaseVec {
    fn from_iter<T: IntoIterator<Item = &'a u64>>(iter: T) -> Self {
        let values: Vec<u64> = iter.into_iter().copied().collect();
        PhaseVec::from_slice(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_basics() {
        let v = PhaseVec::uniform(18, 18);
        assert_eq!(v.len(), 18);
        assert_eq!(v.total(), 324);
        assert_eq!(v.runs().len(), 1);
        assert_eq!(v.to_string(), "⟨18^18⟩");
    }

    #[test]
    fn from_slice_compresses_runs() {
        let v = PhaseVec::from_slice(&[8, 8, 8, 0, 0, 8]);
        assert_eq!(v.runs().len(), 3);
        assert_eq!(v.len(), 6);
        assert_eq!(v.get(2), 8);
        assert_eq!(v.get(4), 0);
        assert_eq!(v.get(5), 8);
    }

    #[test]
    fn repeat_pattern_matches_paper_notation() {
        // ⟨(8,0)^8⟩
        let v = PhaseVec::repeat_pattern(&[8, 0], 8);
        assert_eq!(v.len(), 16);
        assert_eq!(v.total(), 64);
        assert_eq!(v.get(0), 8);
        assert_eq!(v.get(1), 0);
        assert_eq!(v.get(14), 8);
    }

    #[test]
    fn concat_merges_adjacent_runs() {
        let a = PhaseVec::uniform(1, 3);
        let b = PhaseVec::uniform(1, 2);
        let c = a.concat(&b);
        assert_eq!(c.runs().len(), 1);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn cumulative_within_and_across_cycles() {
        let v = PhaseVec::from_slice(&[3, 0, 1]);
        assert_eq!(v.cumulative(0), 0);
        assert_eq!(v.cumulative(1), 3);
        assert_eq!(v.cumulative(2), 3);
        assert_eq!(v.cumulative(3), 4);
        assert_eq!(v.cumulative(4), 7); // one full cycle + first phase
        assert_eq!(v.cumulative(7), 11);
    }

    #[test]
    fn display_single_count_omits_exponent() {
        let v = PhaseVec::from_slice(&[66, 4250, 54]);
        assert_eq!(v.to_string(), "⟨66, 4250, 54⟩");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        PhaseVec::single(1).get(1);
    }

    #[test]
    fn iter_expands_runs() {
        let v = PhaseVec::from_slice(&[2, 2, 5]);
        let expanded: Vec<u64> = v.iter().collect();
        assert_eq!(expanded, vec![2, 2, 5]);
    }

    #[test]
    fn scaled_multiplies_values() {
        let v = PhaseVec::from_slice(&[1, 2, 3]).scaled(4);
        assert_eq!(v.total(), 24);
        assert_eq!(v.max(), 12);
    }
}
