//! Exact rational relative loads.
//!
//! Congestion is a maximum of fractions `load / bandwidth`. Comparing such
//! fractions in floating point can mis-order values that differ by less
//! than an ulp — which matters for the exact solvers and for the
//! NP-hardness experiment, where the yes/no answer hinges on an exact
//! threshold (`congestion ≤ 4k`). [`LoadRatio`] compares fractions exactly
//! by `u128` cross-multiplication.

use std::cmp::Ordering;

/// A non-negative fraction `load / bandwidth` with exact ordering.
#[derive(Debug, Clone, Copy)]
pub struct LoadRatio {
    /// Numerator: the (possibly doubled, for buses) load.
    pub load: u64,
    /// Denominator: the (possibly doubled) bandwidth; must be non-zero.
    pub bandwidth: u64,
}

impl LoadRatio {
    /// The zero ratio.
    pub const ZERO: LoadRatio = LoadRatio { load: 0, bandwidth: 1 };

    /// Build a ratio; `bandwidth` must be non-zero.
    #[inline]
    pub fn new(load: u64, bandwidth: u64) -> Self {
        debug_assert!(bandwidth > 0, "bandwidth must be positive");
        LoadRatio { load, bandwidth }
    }

    /// An integral ratio `n / 1`.
    #[inline]
    pub fn integral(n: u64) -> Self {
        LoadRatio { load: n, bandwidth: 1 }
    }

    /// The value as `f64` (for reporting only; comparisons stay exact).
    #[inline]
    pub fn as_f64(&self) -> f64 {
        self.load as f64 / self.bandwidth as f64
    }

    /// Exactly `self ≤ factor · other`? Used for approximation-ratio
    /// assertions like `C ≤ 7 · C_opt` without any rounding.
    pub fn le_scaled(&self, factor: u64, other: LoadRatio) -> bool {
        // self.load / self.bw ≤ factor * other.load / other.bw
        (self.load as u128) * (other.bandwidth as u128)
            <= (factor as u128) * (other.load as u128) * (self.bandwidth as u128)
    }

    /// The exact ratio `self / other` as `f64`, `None` when `other` is zero.
    pub fn ratio_to(&self, other: LoadRatio) -> Option<f64> {
        if other.load == 0 {
            return None;
        }
        Some(self.as_f64() / other.as_f64())
    }
}

impl PartialEq for LoadRatio {
    fn eq(&self, other: &Self) -> bool {
        (self.load as u128) * (other.bandwidth as u128)
            == (other.load as u128) * (self.bandwidth as u128)
    }
}

impl Eq for LoadRatio {}

impl PartialOrd for LoadRatio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LoadRatio {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = (self.load as u128) * (other.bandwidth as u128);
        let rhs = (other.load as u128) * (self.bandwidth as u128);
        lhs.cmp(&rhs)
    }
}

impl std::fmt::Display for LoadRatio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.bandwidth == 1 {
            write!(f, "{}", self.load)
        } else {
            write!(f, "{}/{}", self.load, self.bandwidth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_exact() {
        // 1/3 < 3333.../10^k style near-ties order correctly.
        let a = LoadRatio::new(1, 3);
        let b = LoadRatio::new(333_333_333_333_333_333, 10u64.pow(18));
        assert!(b < a);
        assert!(a > b);
        assert_eq!(LoadRatio::new(2, 4), LoadRatio::new(1, 2));
    }

    #[test]
    fn ordering_survives_huge_values() {
        let a = LoadRatio::new(u64::MAX, 1);
        let b = LoadRatio::new(u64::MAX - 1, 1);
        assert!(b < a);
        let c = LoadRatio::new(u64::MAX, u64::MAX);
        assert_eq!(c, LoadRatio::integral(1));
    }

    #[test]
    fn le_scaled_matches_rationals() {
        // 10/3 ≤ 7 * 1/2  <=>  20 ≤ 21.
        assert!(LoadRatio::new(10, 3).le_scaled(7, LoadRatio::new(1, 2)));
        // 11/3 ≤ 7 * 1/2  <=>  22 ≤ 21 fails.
        assert!(!LoadRatio::new(11, 3).le_scaled(7, LoadRatio::new(1, 2)));
        // Zero cases.
        assert!(LoadRatio::ZERO.le_scaled(0, LoadRatio::ZERO));
        assert!(!LoadRatio::integral(1).le_scaled(7, LoadRatio::ZERO));
    }

    #[test]
    fn ratio_to_and_display() {
        assert_eq!(LoadRatio::new(6, 2).ratio_to(LoadRatio::new(3, 2)), Some(2.0));
        assert_eq!(LoadRatio::integral(1).ratio_to(LoadRatio::ZERO), None);
        assert_eq!(LoadRatio::new(5, 1).to_string(), "5");
        assert_eq!(LoadRatio::new(5, 2).to_string(), "5/2");
    }

    #[test]
    fn as_f64_matches() {
        assert!((LoadRatio::new(7, 2).as_f64() - 3.5).abs() < 1e-12);
    }
}
