//! Floating-point abstraction so every kernel, net, and descriptor can be
//! instantiated in double (`f64`) or single (`f32`) precision.
//!
//! The paper's mixed-precision mode (§5.2.3) keeps geometry in `f64` and runs
//! the networks in `f32`; the conversion points live in `deepmd-core`, and
//! this trait is what lets both paths share one implementation.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Scalar type usable in all kernels: `f32` or `f64`.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialOrd
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    const ZERO: Self;
    const ONE: Self;
    const TWO: Self;
    const HALF: Self;
    /// Machine epsilon of the representation.
    const EPSILON: Self;
    /// π in this precision.
    const PI: Self;

    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }

    fn abs(self) -> Self;
    fn sqrt(self) -> Self;
    fn tanh(self) -> Self;
    fn exp(self) -> Self;
    fn ln(self) -> Self;
    fn cos(self) -> Self;
    fn sin(self) -> Self;
    fn powi(self, n: i32) -> Self;
    fn floor(self) -> Self;
    fn min(self, other: Self) -> Self;
    fn max(self, other: Self) -> Self;
    fn is_finite(self) -> bool;
    fn mul_add(self, a: Self, b: Self) -> Self;
}

macro_rules! impl_real {
    ($t:ty, $pi:expr) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const HALF: Self = 0.5;
            const EPSILON: Self = <$t>::EPSILON;
            const PI: Self = $pi;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn tanh(self) -> Self {
                <$t>::tanh(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn cos(self) -> Self {
                <$t>::cos(self)
            }
            #[inline(always)]
            fn sin(self) -> Self {
                <$t>::sin(self)
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }
            #[inline(always)]
            fn floor(self) -> Self {
                <$t>::floor(self)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
        }
    };
}

impl_real!(f32, std::f32::consts::PI);
impl_real!(f64, std::f64::consts::PI);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_roundtrip() {
        assert_eq!(<f64 as Real>::ZERO, 0.0);
        assert_eq!(<f32 as Real>::ONE, 1.0);
        assert!((f64::PI - std::f64::consts::PI).abs() < 1e-15);
        assert_eq!(f64::from_usize(7), 7.0);
    }

    #[test]
    fn ops_match_std() {
        let x = 0.73_f64;
        assert_eq!(Real::tanh(x), x.tanh());
        assert_eq!(Real::sqrt(x), x.sqrt());
        let y = 0.73_f32;
        assert_eq!(Real::cos(y), y.cos());
    }
}
