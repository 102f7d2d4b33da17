//! DP-GEN-style active learning driven by the ensemble engine (§3.2 /
//! ref 68 of the paper), the workspace's one concurrent-learning loop.
//! The engine makes two things cheap: *exploration* runs across the whole
//! temperature ladder at once (one batched evaluation per tick instead of
//! one serial MD segment), and the retrained model is *hot-swapped* into
//! the running engine so later rounds explore with the improved potential
//! without rebuilding replica state.
//!
//! Per round: advance the engine `steps_per_round` ticks, harvesting a
//! snapshot of every replica each `sample_every` steps; train an ensemble
//! of models from different initializations on the current dataset;
//! screen the snapshots by maximum ensemble force deviation
//! (`dp_train::deviation::select_candidates` — below `lo` accurate,
//! above `hi` failed, between selected); label selected snapshots with
//! the reference potential; then swap the round's lead model into the
//! engine.

use crate::engine::EnsembleEngine;
use crate::metrics;
use deepmd_core::{DeepPotential, DpConfig, DpModel};
use dp_md::{CounterRng, Potential, System};
use dp_train::deviation::select_candidates;
use dp_train::{Frame, LossWeights, Trainer};
use std::sync::Arc;

/// Parameters of one active-learning campaign over the engine.
#[derive(Debug, Clone, Copy)]
pub struct ActiveLearnOptions {
    /// Screening-ensemble size (DP-GEN uses 4; 2 is the useful minimum).
    pub n_models: usize,
    /// Adam steps per training round.
    pub train_steps: usize,
    /// Engine ticks per exploration round.
    pub steps_per_round: usize,
    /// Harvest a snapshot of every replica each `sample_every` ticks.
    pub sample_every: usize,
    /// Deviation thresholds (eV/Å).
    pub lo: f64,
    pub hi: f64,
    /// Learning rate for each round's trainers.
    pub lr: f64,
    pub seed: u64,
}

impl Default for ActiveLearnOptions {
    fn default() -> Self {
        Self {
            n_models: 2,
            train_steps: 60,
            steps_per_round: 20,
            sample_every: 10,
            lo: 0.05,
            hi: 5.0,
            lr: 0.02,
            seed: 0,
        }
    }
}

/// Outcome of one round.
#[derive(Debug, Clone, Copy)]
pub struct ActiveRound {
    pub round: usize,
    /// Dataset size after this round's labeling.
    pub dataset_size: usize,
    /// Snapshots harvested across the ensemble this round.
    pub harvested: usize,
    /// Snapshots labeled with the reference and added to the dataset.
    pub candidates_added: usize,
    /// Snapshots past `hi` (model too far out; discarded).
    pub failed: usize,
    /// Largest ensemble deviation seen this round.
    pub max_deviation_seen: f64,
}

/// Run `n_rounds` of the loop, mutating `engine` (its trajectories
/// advance and its model is hot-swapped each round). Returns the grown
/// dataset and the per-round reports.
pub fn run_active_learning(
    engine: &mut EnsembleEngine,
    cfg: &DpConfig,
    reference: &dyn Potential,
    initial_frames: Vec<Frame>,
    n_rounds: usize,
    opts: &ActiveLearnOptions,
) -> (Vec<Frame>, Vec<ActiveRound>) {
    assert!(opts.n_models >= 2, "ensemble needs at least two models");
    assert!(opts.sample_every > 0, "sample_every must be positive");
    let mut frames = initial_frames;
    let mut reports = Vec::with_capacity(n_rounds);
    let mode = engine.potential().mode;

    for round in 0..n_rounds {
        // --- explore across the whole ladder, harvesting snapshots ---
        let mut candidates: Vec<System> = Vec::new();
        for s in 1..=opts.steps_per_round {
            engine.tick();
            if s % opts.sample_every == 0 {
                candidates.extend(engine.replicas.iter().map(|r| r.sys.clone()));
            }
        }

        // --- train a screening ensemble from different initializations ---
        let mut models: Vec<DpModel<f64>> = (0..opts.n_models)
            .map(|k| {
                let mut init_rng = CounterRng::new(opts.seed ^ (round as u64 * 97 + k as u64));
                let model = DpModel::<f64>::new_random(cfg.clone(), &mut init_rng);
                let mut trainer = Trainer::new(model, &frames, opts.lr, LossWeights::default());
                trainer.run(opts.train_steps);
                trainer.model
            })
            .collect();

        // --- screen by ensemble force deviation, label the candidates ---
        let (accurate, selected, failed) =
            select_candidates(&models, &candidates, opts.lo, opts.hi);
        let max_dev = if candidates.is_empty() {
            0.0
        } else {
            // re-derive the round's max deviation from the partition sizes'
            // source data (select_candidates already computed per-system
            // deviations; recompute only over the informative buckets)
            selected
                .iter()
                .chain(failed.iter())
                .chain(accurate.iter())
                .map(|sys| dp_train::deviation::max_force_deviation(&models, sys))
                .fold(0.0f64, f64::max)
        };
        let added = selected.len();
        for sys in &selected {
            frames.push(Frame::label(sys, reference));
        }
        dp_obs::counter(metrics::ACTIVE_LABELED).add(added as u64);

        // --- hot-swap the round's lead model into the running engine ---
        let lead = models.swap_remove(0);
        engine.swap_model(Arc::new(DeepPotential::new(lead, mode)));
        dp_obs::counter(metrics::ACTIVE_ROUNDS).add(1);

        reports.push(ActiveRound {
            round,
            dataset_size: frames.len(),
            harvested: candidates.len(),
            candidates_added: added,
            failed: failed.len(),
            max_deviation_seen: max_dev,
        });
    }

    (frames, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{replica_seed, EnsembleOptions};
    use deepmd_core::PrecisionMode;
    use dp_md::potential::pair::LennardJones;
    use dp_md::{lattice, units};
    use dp_train::dataset::perturbed_frames;

    #[test]
    fn loop_grows_dataset_and_swaps_models() {
        let reference = LennardJones::new(0.2, 2.6, 3.9);
        let base = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
        let cfg = DpConfig::small(1, 3.9, 14);
        let mut rng = CounterRng::new(1);
        let frames = perturbed_frames(&base, &reference, 4, 0.15, &mut rng);
        let n0 = frames.len();

        let mut init = CounterRng::new(2);
        let pot = Arc::new(DeepPotential::new(
            DpModel::<f64>::new_random(cfg.clone(), &mut init),
            PrecisionMode::Double,
        ));
        let systems: Vec<System> = (0..3)
            .map(|k| {
                let mut sys = base.clone();
                let mut r = CounterRng::new(replica_seed(50, k));
                sys.perturb(0.05, &mut r);
                sys.init_velocities(120.0, &mut r);
                sys
            })
            .collect();
        let opts = EnsembleOptions {
            dt: 1.0e-3,
            skin: 0.08,
            berendsen_tau: Some(0.1),
            mode: PrecisionMode::Double,
            seed: 50,
            ..EnsembleOptions::default()
        };
        let mut engine = EnsembleEngine::new(pot.clone(), systems, &[100.0, 150.0, 200.0], opts);
        let before = Arc::as_ptr(engine.potential());

        let al = ActiveLearnOptions {
            n_models: 2,
            train_steps: 15,
            steps_per_round: 6,
            sample_every: 3,
            lo: 1e-5, // aggressive: barely-trained models must flag something
            hi: 1e3,
            lr: 0.02,
            seed: 3,
        };
        let (dataset, reports) = run_active_learning(&mut engine, &cfg, &reference, frames, 2, &al);

        assert_eq!(reports.len(), 2);
        assert!(dataset.len() >= n0);
        for r in &reports {
            assert_eq!(r.harvested, 3 * 2); // 3 replicas × 2 harvests
            assert!(r.candidates_added + r.failed <= r.harvested);
            assert!(r.max_deviation_seen.is_finite());
        }
        assert!(
            reports.iter().any(|r| r.candidates_added > 0),
            "no candidates selected: {reports:?}"
        );
        // the engine's model was hot-swapped
        assert_ne!(before, Arc::as_ptr(engine.potential()));
        assert_eq!(engine.step, 12);
        for rep in &engine.replicas {
            assert!(rep.potential_energy.is_finite());
        }
    }
}
