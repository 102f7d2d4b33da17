//! Ensemble force deviation — the selection signal of the concurrent
//! learning scheme (DP-GEN) that generated the paper's training sets
//! (§3.2, ref 68).
//!
//! Several models trained from different initializations agree where the
//! training data covers the configuration space and disagree where it does
//! not; the maximum per-atom standard deviation of their force predictions
//! is the canonical "label this configuration" trigger.

use deepmd_core::eval::evaluate;
use deepmd_core::format::format_optimized;
use deepmd_core::model::DpModel;
use dp_md::{NeighborList, System};

/// Maximum over atoms of the standard deviation of force predictions
/// across an ensemble of models (eV/Å).
pub fn max_force_deviation(models: &[DpModel<f64>], sys: &System) -> f64 {
    assert!(models.len() >= 2, "need an ensemble");
    let outs: Vec<Vec<[f64; 3]>> = models
        .iter()
        .map(|m| {
            let nl = NeighborList::build(sys, m.config.rcut);
            let fmt = format_optimized(sys, &nl, &m.config, m.config.codec(sys.len()));
            evaluate(m, &fmt, &sys.types[..sys.n_local], sys.len(), None).forces
        })
        .collect();
    let n_models = models.len() as f64;
    let mut max_dev: f64 = 0.0;
    for i in 0..sys.n_local {
        let mut mean = [0.0f64; 3];
        for out in &outs {
            for k in 0..3 {
                mean[k] += out[i][k];
            }
        }
        for m in &mut mean {
            *m /= n_models;
        }
        let mut var = 0.0;
        for out in &outs {
            for k in 0..3 {
                var += (out[i][k] - mean[k]).powi(2);
            }
        }
        max_dev = max_dev.max((var / n_models).sqrt());
    }
    max_dev
}

/// Split candidate configurations by deviation thresholds, as DP-GEN does:
/// below `lo` = accurate (skip), between = candidate (label it), above
/// `hi` = failed (too far out; discard).
pub fn select_candidates<'a>(
    models: &[DpModel<f64>],
    candidates: &'a [System],
    lo: f64,
    hi: f64,
) -> (Vec<&'a System>, Vec<&'a System>, Vec<&'a System>) {
    let mut accurate = Vec::new();
    let mut selected = Vec::new();
    let mut failed = Vec::new();
    for sys in candidates {
        let dev = max_force_deviation(models, sys);
        if dev < lo {
            accurate.push(sys);
        } else if dev < hi {
            selected.push(sys);
        } else {
            failed.push(sys);
        }
    }
    (accurate, selected, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmd_core::config::DpConfig;
    use dp_md::CounterRng;
    use dp_md::{lattice, units};

    fn ensemble(n: usize) -> Vec<DpModel<f64>> {
        let cfg = DpConfig::small(1, 4.0, 14);
        (0..n)
            .map(|k| {
                let mut rng = CounterRng::new(100 + k as u64);
                DpModel::<f64>::new_random(cfg.clone(), &mut rng)
            })
            .collect()
    }

    #[test]
    fn identical_models_have_zero_deviation() {
        let cfg = DpConfig::small(1, 4.0, 14);
        let mut rng = CounterRng::new(1);
        let m = DpModel::<f64>::new_random(cfg, &mut rng);
        let models = vec![m.clone(), m];
        let mut sys = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
        sys.perturb(0.1, &mut CounterRng::new(2));
        assert!(max_force_deviation(&models, &sys) < 1e-12);
    }

    #[test]
    fn random_models_disagree() {
        let models = ensemble(3);
        let mut sys = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
        sys.perturb(0.1, &mut CounterRng::new(3));
        assert!(max_force_deviation(&models, &sys) > 1e-6);
    }

    #[test]
    fn selection_thresholds_are_half_open() {
        // Pin the bucket boundaries: dev < lo => accurate, lo <= dev < hi
        // => selected, dev >= hi => failed. Probe with thresholds placed
        // exactly AT the measured deviation to catch off-by-one
        // comparisons.
        let models = ensemble(2);
        let mut sys = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
        sys.perturb(0.15, &mut CounterRng::new(9));
        let dev = max_force_deviation(&models, &sys);
        assert!(dev > 0.0 && dev.is_finite());
        let candidates = vec![sys];
        let next = f64::from_bits(dev.to_bits() + 1);

        // lo just above dev -> accurate
        let (a, s, f) = select_candidates(&models, &candidates, next, next);
        assert_eq!((a.len(), s.len(), f.len()), (1, 0, 0));
        // lo exactly dev -> NOT accurate (strict <), lands in selected
        let (a, s, f) = select_candidates(&models, &candidates, dev, next);
        assert_eq!((a.len(), s.len(), f.len()), (0, 1, 0));
        // hi exactly dev -> NOT selected (strict <), lands in failed
        let (a, s, f) = select_candidates(&models, &candidates, dev / 2.0, dev);
        assert_eq!((a.len(), s.len(), f.len()), (0, 0, 1));
    }

    #[test]
    fn ensemble_batched_evaluation_matches_serial_byte_for_byte() {
        // The replica engine screens snapshots it advanced through
        // cross-replica batched evaluation; this pins the contract that
        // batching N ensemble members' snapshots changes NOTHING: forces
        // and energies are byte-identical to evaluating each snapshot
        // alone, so deviation-based selection is independent of batching.
        use deepmd_core::{BatchItem, DeepPotential, PrecisionMode};
        use dp_md::Potential;

        let cfg = DpConfig::small(1, 4.0, 14);
        let mut rng = CounterRng::new(41);
        let model = DpModel::<f64>::new_random(cfg, &mut rng);
        let snapshots: Vec<System> = (0..4)
            .map(|_| {
                let mut s = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
                s.perturb(0.12, &mut rng);
                s
            })
            .collect();
        for mode in [PrecisionMode::Double, PrecisionMode::Mixed] {
            let pot = DeepPotential::new(model.clone(), mode);
            let nls: Vec<NeighborList> = snapshots
                .iter()
                .map(|s| NeighborList::build(s, pot.cutoff()))
                .collect();
            let items: Vec<BatchItem> = snapshots
                .iter()
                .zip(&nls)
                .map(|(sys, nl)| BatchItem { sys, nl })
                .collect();
            let batched = pot.compute_batch(&items, mode);
            for ((sys, nl), res) in snapshots.iter().zip(&nls).zip(&batched) {
                let solo = pot.compute(sys, nl);
                assert_eq!(
                    res.energy.to_bits(),
                    solo.energy.to_bits(),
                    "energy diverged in {mode:?}"
                );
                for (a, b) in res.forces.iter().zip(&solo.forces) {
                    for d in 0..3 {
                        assert_eq!(a[d].to_bits(), b[d].to_bits(), "force diverged in {mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn selection_buckets_partition() {
        let models = ensemble(2);
        let mut rng = CounterRng::new(4);
        let candidates: Vec<_> = (0..4)
            .map(|_| {
                let mut s = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
                s.perturb(0.2, &mut rng);
                s
            })
            .collect();
        let (a, s, f) = select_candidates(&models, &candidates, 1e-3, 1e3);
        assert_eq!(a.len() + s.len() + f.len(), candidates.len());
    }
}
