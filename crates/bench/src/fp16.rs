//! Emulated half precision (§5.2.3): the mode the paper tried and
//! rejected because 16-bit range cannot hold the required energy and force
//! accuracy. Only the `mixed_precision` experiment reproduces it, so it is
//! built here from public pieces instead of being a library precision mode.

use deepmd_core::codec::Codec;
use deepmd_core::eval::{evaluate, EvalOutput};
use deepmd_core::format::format_optimized;
use deepmd_core::DpModel;
use dp_linalg::real::truncate_to_f16;
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

#[cfg(test)]
mod tests {
    use super::*;
    use deepmd_core::{DeepPotential, DpConfig, PrecisionMode};
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
}
