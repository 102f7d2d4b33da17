//! Concurrent-learning loop (DP-GEN, §3.2 / ref 68 of the paper).
//!
//! The paper's production models come from an active-learning cycle:
//! train an ensemble from the current dataset, *explore* configuration
//! space by running MD with one of the models, flag configurations where
//! the ensemble's force predictions disagree (the model is extrapolating),
//! *label* those with the first-principles reference, and retrain. The
//! loop terminates when exploration stops producing candidates — yielding
//! "a minimal set of training data with a guarantee of uniform accuracy".

use crate::dataset::Frame;
use crate::deviation::max_force_deviation;
use crate::trainer::{LossWeights, Trainer};
use deepmd_core::config::DpConfig;
use deepmd_core::model::DpModel;
use deepmd_core::{DeepPotential, PrecisionMode};
use dp_md::integrate::{run_md, Berendsen, MdOptions};
use dp_md::{CounterRng, Potential, System};

/// Parameters of one active-learning campaign.
#[derive(Debug, Clone)]
pub struct DpGenOptions {
    /// Ensemble size (DP-GEN uses 4; 2 is the useful minimum).
    pub n_models: usize,
    /// Adam steps per training round.
    pub train_steps: usize,
    /// Exploration MD segments per round.
    pub n_explore: usize,
    /// MD steps per exploration segment.
    pub explore_steps: usize,
    /// Exploration temperature (K).
    pub temperature: f64,
    /// Deviation thresholds (eV/Å): below `lo` = accurate, above `hi` =
    /// failed (discard), between = label and add to the dataset.
    pub lo: f64,
    pub hi: f64,
    /// Learning rate for each round's trainer.
    pub lr: f64,
    pub seed: u64,
}

impl Default for DpGenOptions {
    fn default() -> Self {
        Self {
            n_models: 2,
            train_steps: 60,
            n_explore: 4,
            explore_steps: 25,
            temperature: 300.0,
            lo: 0.05,
            hi: 5.0,
            lr: 0.02,
            seed: 0,
        }
    }
}

/// Outcome of one DP-GEN round.
#[derive(Debug, Clone, Copy)]
pub struct RoundReport {
    pub round: usize,
    pub dataset_size: usize,
    pub candidates_added: usize,
    pub failed: usize,
    pub max_deviation_seen: f64,
}

/// Run `n_rounds` of the concurrent-learning loop. Returns the final
/// (best-effort) model, the accumulated dataset, and per-round reports.
pub fn run_dpgen(
    cfg: &DpConfig,
    reference: &dyn Potential,
    initial_frames: Vec<Frame>,
    base: &System,
    n_rounds: usize,
    opts: &DpGenOptions,
) -> (DpModel<f64>, Vec<Frame>, Vec<RoundReport>) {
    assert!(opts.n_models >= 2, "ensemble needs at least two models");
    let mut frames = initial_frames;
    let mut reports = Vec::with_capacity(n_rounds);
    let mut rng = CounterRng::new(opts.seed);
    let mut final_model: Option<DpModel<f64>> = None;

    for round in 0..n_rounds {
        // --- train an ensemble from different initializations ---
        let mut models = Vec::with_capacity(opts.n_models);
        for k in 0..opts.n_models {
            let mut init_rng = CounterRng::new(opts.seed ^ (round as u64 * 97 + k as u64));
            let model = DpModel::<f64>::new_random(cfg.clone(), &mut init_rng);
            let mut trainer = Trainer::new(model, &frames, opts.lr, LossWeights::default());
            trainer.run(opts.train_steps);
            models.push(trainer.model);
        }

        // --- explore with the first model, screen with the ensemble ---
        let driver = DeepPotential::new(models[0].clone(), PrecisionMode::Double);
        let md = MdOptions {
            dt: 1.0e-3,
            skin: ((base.cell.max_cutoff() - cfg.rcut) * 0.9).clamp(0.0, 2.0),
            thermostat: Some(Berendsen {
                target_t: opts.temperature,
                tau: 0.1,
            }),
            ..MdOptions::default()
        };
        let mut added = 0usize;
        let mut failed = 0usize;
        let mut max_dev_seen = 0.0f64;
        let mut sys = base.clone();
        sys.init_velocities(opts.temperature, &mut rng);
        // small random twist so repeated rounds explore different paths
        sys.perturb(0.02 + 0.01 * rng.range(0.0, 1.0), &mut rng);
        for _ in 0..opts.n_explore {
            run_md(&mut sys, &driver, &md, opts.explore_steps, |_| {});
            let dev = max_force_deviation(&models, &sys);
            max_dev_seen = max_dev_seen.max(dev);
            if dev >= opts.hi {
                failed += 1;
            } else if dev >= opts.lo {
                // label with the reference ("call DFT") and add
                frames.push(Frame::label(&sys, reference));
                added += 1;
            }
        }

        reports.push(RoundReport {
            round,
            dataset_size: frames.len(),
            candidates_added: added,
            failed,
            max_deviation_seen: max_dev_seen,
        });
        final_model = Some(models.swap_remove(0));
    }

    (
        final_model.expect("at least one round"),
        frames,
        reports,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::perturbed_frames;
    use dp_md::potential::pair::LennardJones;
    use dp_md::{lattice, units};

    fn setup() -> (DpConfig, LennardJones, System, Vec<Frame>) {
        let reference = LennardJones::new(0.2, 2.6, 3.9);
        let base = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
        let mut rng = CounterRng::new(1);
        let frames = perturbed_frames(&base, &reference, 4, 0.15, &mut rng);
        let cfg = DpConfig::small(1, 3.9, 14);
        (cfg, reference, base, frames)
    }

    #[test]
    fn dpgen_runs_and_grows_or_keeps_dataset() {
        let (cfg, reference, base, frames) = setup();
        let n0 = frames.len();
        let opts = DpGenOptions {
            train_steps: 25,
            n_explore: 2,
            explore_steps: 10,
            temperature: 150.0,
            lo: 1e-4, // aggressive: force candidate selection
            ..DpGenOptions::default()
        };
        let (_model, dataset, reports) =
            run_dpgen(&cfg, &reference, frames, &base, 2, &opts);
        assert_eq!(reports.len(), 2);
        assert!(dataset.len() >= n0);
        // with such a low threshold the barely-trained ensemble must flag
        // at least one candidate
        assert!(
            reports.iter().any(|r| r.candidates_added > 0),
            "no candidates selected: {reports:?}"
        );
    }

    #[test]
    fn round_reports_are_internally_consistent() {
        let (cfg, reference, base, frames) = setup();
        let n0 = frames.len();
        let opts = DpGenOptions {
            train_steps: 20,
            n_explore: 3,
            explore_steps: 8,
            temperature: 100.0,
            lo: 1e-4,
            ..DpGenOptions::default()
        };
        let (model, dataset, reports) = run_dpgen(&cfg, &reference, frames, &base, 2, &opts);
        // bookkeeping invariants
        let mut expected = n0;
        for r in &reports {
            assert!(r.candidates_added + r.failed <= opts.n_explore);
            expected += r.candidates_added;
            assert_eq!(r.dataset_size, expected);
            assert!(r.max_deviation_seen.is_finite());
        }
        assert_eq!(dataset.len(), expected);
        // the returned model evaluates finitely on the base system
        let dp = DeepPotential::new(model, PrecisionMode::Double);
        let nl = dp_md::NeighborList::build(&base, cfg.rcut);
        assert!(dp.compute(&base, &nl).energy.is_finite());
    }
}
