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

/// Truncate an `f64` to the representable range/precision of IEEE half
/// precision (fp16) while keeping the value as `f64`.
///
/// Used by the fp16 ablation (§5.2.3): the paper reports that half precision
/// on V100 tensor cores cannot preserve the accuracy of energies and forces.
/// We emulate fp16 storage by rounding the significand to 10 bits and
/// clamping the exponent to the fp16 range.
pub fn truncate_to_f16(x: f64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    const F16_MAX: f64 = 65504.0;
    const F16_MIN_NORMAL: f64 = 6.103515625e-5;
    if x.abs() > F16_MAX {
        return F16_MAX.copysign(x);
    }
    if x.abs() < F16_MIN_NORMAL {
        // Flush denormals to zero, as fast fp16 hardware paths commonly do.
        return 0.0;
    }
    // Round the mantissa to 10 explicit bits: scale so the value is in
    // [2^52, 2^53), add/subtract to force rounding at the fp16 precision.
    let bits = x.to_bits();
    let mantissa_drop = 52 - 10;
    let round = 1u64 << (mantissa_drop - 1);
    let truncated = (bits.wrapping_add(round)) & !((1u64 << mantissa_drop) - 1);
    f64::from_bits(truncated)
}

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

    #[test]
    fn f16_truncation_is_idempotent() {
        for &x in &[1.0, -3.17159, 0.001, 1234.5, -0.49999] {
            let once = truncate_to_f16(x);
            let twice = truncate_to_f16(once);
            assert_eq!(once, twice, "x={x}");
        }
    }

    #[test]
    fn f16_truncation_loses_precision() {
        // fp16 has ~3 decimal digits; a change in the 5th digit must vanish.
        let a = truncate_to_f16(1.00001);
        let b = truncate_to_f16(1.00002);
        assert_eq!(a, b);
        // ...but a change at fp16 resolution must survive.
        let c = truncate_to_f16(1.0);
        let d = truncate_to_f16(1.01);
        assert_ne!(c, d);
    }

    #[test]
    fn f16_truncation_clamps_range() {
        assert_eq!(truncate_to_f16(1e6), 65504.0);
        assert_eq!(truncate_to_f16(-1e6), -65504.0);
        assert_eq!(truncate_to_f16(1e-9), 0.0);
        assert_eq!(truncate_to_f16(0.0), 0.0);
    }

    #[test]
    fn f16_error_bounded_by_relative_eps() {
        // Relative error of fp16 rounding is at most 2^-11.
        for i in 1..1000 {
            let x = i as f64 * 0.37;
            let t = truncate_to_f16(x);
            assert!(
                (t - x).abs() <= x.abs() * 4.9e-4 + 1e-12,
                "x={x} t={t}"
            );
        }
    }
}
