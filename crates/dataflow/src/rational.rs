//! Minimal exact rational arithmetic for repetition-vector computation.
//!
//! Balance equations over CSDF graphs are solved exactly with rationals;
//! `i128` intermediates keep realistic graphs far from overflow.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// An exact rational number `num/den` in lowest terms with `den > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ratio {
    num: i128,
    den: i128,
}

/// Greatest common divisor (non-negative).
pub fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple.
///
/// # Panics
///
/// Panics on overflow.
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates `num/den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd_i128(num, den).max(1);
        Ratio {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Creates the integer ratio `n/1`.
    pub fn integer(n: i128) -> Self {
        Ratio { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// `self * other`.
    #[must_use]
    pub fn mul(&self, other: Ratio) -> Ratio {
        Ratio::new(self.num * other.num, self.den * other.den)
    }

    /// `self / other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[must_use]
    pub fn div(&self, other: Ratio) -> Ratio {
        assert!(other.num != 0, "division by rational zero");
        Ratio::new(self.num * other.den, self.den * other.num)
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: Ratio) -> Ratio {
        Ratio::new(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_lowest_terms() {
        let r = Ratio::new(4, 8);
        assert_eq!(r.numer(), 1);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    fn sign_normalisation() {
        let r = Ratio::new(3, -6);
        assert_eq!(r.numer(), -1);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 6);
        assert_eq!(a.add(b), Ratio::new(1, 2));
        assert_eq!(a.mul(b), Ratio::new(1, 18));
        assert_eq!(a.div(b), Ratio::integer(2));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 5), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(3, 2).to_string(), "3/2");
        assert_eq!(Ratio::integer(5).to_string(), "5");
    }
}
