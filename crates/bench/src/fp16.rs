//! Emulated half precision (§5.2.3): the mode the paper tried and
//! rejected because 16-bit range cannot hold the required energy and force
//! accuracy. Only the `mixed_precision` experiment reproduces it, so it is
//! built here from public pieces instead of being a library precision mode.

use deepmd_core::codec::Codec;
use deepmd_core::eval::{evaluate, EvalOutput};
use deepmd_core::format::format_optimized;
use deepmd_core::DpModel;
use dp_md::{NeighborList, System};

/// Energy, forces and virial with the network parameters and the
/// environment matrix rounded to fp16 resolution and the nets evaluated in
/// f32 — `PrecisionMode::Mixed` with fp16 storage of its inputs.
pub fn evaluate_fp16(model: &DpModel<f64>, sys: &System, nl: &NeighborList) -> EvalOutput {
    let mut half = model.clone();
    let params: Vec<f64> = half
        .flat_params()
        .into_iter()
        .map(truncate_to_f16)
        .collect();
    half.set_flat_params(&params);
    let cfg = &model.config;
    let codec = Codec::auto(cfg.n_types(), sys.len(), cfg.rcut);
    let mut fmt = format_optimized(sys, nl, cfg, codec);
    for x in &mut fmt.env {
        *x = truncate_to_f16(*x);
    }
    let types = &sys.types[..sys.n_local];
    evaluate(&half.cast::<f32>(), &fmt, types, sys.len(), None)
}

/// Truncate an `f64` to the representable range/precision of IEEE half
/// precision (fp16) while keeping the value as `f64`.
///
/// fp16 storage is emulated by rounding the significand to 10 bits and
/// clamping the exponent to the fp16 range.
fn truncate_to_f16(x: f64) -> f64 {
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
    use deepmd_core::{DeepPotential, DpConfig, PrecisionMode};
    use dp_md::rng::for_cases;
    use dp_md::{lattice, units, CounterRng, Potential};

    fn max_dev(a: &[[f64; 3]], b: &[[f64; 3]]) -> f64 {
        let pairs = a.iter().flatten().zip(b.iter().flatten());
        pairs.map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn fp16_is_clearly_worse_than_mixed() {
        // the paper's negative result, on 108 copper atoms
        let mut rng = CounterRng::new(31);
        let model = DpModel::<f64>::new_random(DpConfig::small(1, 4.5, 16), &mut rng);
        let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        sys.perturb(0.1, &mut rng);
        let mut dp = DeepPotential::new(model, PrecisionMode::Double);
        let nl = NeighborList::build(&sys, dp.cutoff());
        let double = dp.compute(&sys, &nl);
        dp.set_mode(PrecisionMode::Mixed);
        let mixed = dp.compute(&sys, &nl);
        let half = evaluate_fp16(dp.model(), &sys, &nl);

        let dev_mixed = max_dev(&double.forces, &mixed.forces);
        let dev_half = max_dev(&double.forces, &half.forces);
        assert!(
            dev_half > 5.0 * dev_mixed,
            "fp16 dev {dev_half} not clearly worse than mixed {dev_mixed}"
        );
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
            assert!((t - x).abs() <= x.abs() * 4.9e-4 + 1e-12, "x={x} t={t}");
        }
    }

    #[test]
    fn f16_truncation_monotone_pairs() {
        let draw = |rng: &mut CounterRng| (rng.range(-1e4, 1e4), rng.range(-1e4, 1e4));
        for_cases(0x6E09, 256, draw, |&(a, b)| {
            // Rounding to fp16 must preserve (weak) ordering.
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(truncate_to_f16(lo) <= truncate_to_f16(hi));
        });
    }
}
