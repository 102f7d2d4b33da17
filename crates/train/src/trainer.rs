//! Adam training loop with energy + force matching.

use crate::adam::Adam;
use crate::dataset::Frame;
use deepmd_core::eval::{evaluate_into, EvalOutput};
use deepmd_core::format::{format_optimized, FormattedEnv};
use deepmd_core::model::DpModel;
use deepmd_core::train_grad::{loss_grad_into, Labels, TrainWorkspace};
use deepmd_core::EvalWorkspace;
use dp_md::System;
use dp_obs::par;
use std::time::{Duration, Instant};

pub use deepmd_core::train_grad::LossWeights;

/// Progress report of one training step.
#[derive(Debug, Clone, Copy)]
pub struct TrainReport {
    pub step: usize,
    pub loss: f64,
    pub lr: f64,
    /// L2 norm of the mean gradient this step descended (the standard
    /// divergence/plateau signal on a training dashboard).
    pub grad_norm: f64,
    /// Wall time of this step (gradient pass + optimizer update).
    pub wall: Duration,
}

/// RMSE of a model against labelled frames.
#[derive(Debug, Clone, Copy)]
pub struct Rmse {
    /// Energy RMSE per atom (eV/atom).
    pub energy_per_atom: f64,
    /// Component-wise force RMSE (eV/Å).
    pub force: f64,
}

/// A frame with its precomputed formatted environment (formatting is
/// geometry-only, so it is done once per frame, not per step).
struct PreparedFrame {
    fmt: FormattedEnv,
    types: Vec<usize>,
    energy: f64,
    forces: Vec<[f64; 3]>,
}

fn prepare(model: &DpModel<f64>, frames: &[Frame]) -> Vec<PreparedFrame> {
    par::map(frames.len(), |i| {
        let f = &frames[i];
        let sys = frame_system(f);
        let nl = dp_md::NeighborList::build(&sys, model.config.rcut);
        let fmt = format_optimized(&sys, &nl, &model.config, model.config.codec(sys.len()));
        PreparedFrame {
            fmt,
            types: f.types.clone(),
            energy: f.energy,
            forces: f.forces.clone(),
        }
    })
}

/// Adam-based trainer for a Deep Potential model.
pub struct Trainer {
    pub model: DpModel<f64>,
    pub weights: LossWeights,
    adam: Adam,
    prepared: Vec<PreparedFrame>,
    steps: usize,
    /// Flat parameter and mean-gradient buffers, refilled every step.
    params: Vec<f64>,
    grads: Vec<f64>,
    /// The gradient pass's buffers, reused by every frame and step.
    ws: TrainWorkspace,
}

impl Trainer {
    /// Create a trainer over a fixed dataset. Also initializes the model's
    /// per-type energy shift `e0` to the dataset mean energy per atom,
    /// which centres the fitting-net output around zero.
    pub fn new(mut model: DpModel<f64>, frames: &[Frame], lr: f64, weights: LossWeights) -> Self {
        assert!(!frames.is_empty(), "no training frames");
        let mean_e: f64 =
            frames.iter().map(|f| f.energy_per_atom()).sum::<f64>() / frames.len() as f64;
        for e in &mut model.e0 {
            *e = mean_e;
        }
        let prepared = prepare(&model, frames);
        let n_params = model.num_params();
        Self {
            ws: TrainWorkspace::new(&model.config),
            model,
            weights,
            adam: Adam::new(n_params, lr),
            prepared,
            steps: 0,
            params: Vec::with_capacity(n_params),
            grads: vec![0.0; n_params],
        }
    }

    /// One full-batch Adam step; returns the mean loss before the update.
    pub fn step(&mut self) -> TrainReport {
        let span = dp_obs::span("train_step");
        let start = Instant::now();
        // Frames add their gradients in frame order, so the step is
        // bit-reproducible.
        self.grads.fill(0.0);
        let mut total_loss = 0.0;
        for pf in &self.prepared {
            let labels = Labels {
                energy: pf.energy,
                forces: &pf.forces,
            };
            total_loss += loss_grad_into(
                &self.model,
                &pf.fmt,
                &pf.types,
                labels,
                self.weights,
                &mut self.ws,
                &mut self.grads,
            )
            .loss;
        }
        let nf = self.prepared.len() as f64;
        let mean_loss = total_loss / nf;
        for g in &mut self.grads {
            *g /= nf;
        }
        let grad_norm = self.grads.iter().map(|g| g * g).sum::<f64>().sqrt();

        self.model.flat_params_into(&mut self.params);
        self.adam.step(&mut self.params, &self.grads);
        self.model.set_flat_params(&self.params);
        self.steps += 1;
        drop(span);
        let report = TrainReport {
            step: self.steps,
            loss: mean_loss,
            lr: self.adam.lr(),
            grad_norm,
            wall: start.elapsed(),
        };
        // Per-step training telemetry into whatever metrics sink the app
        // installed; inert (one relaxed load) when none is.
        if dp_obs::metrics::active() {
            dp_obs::metrics::emit_line(&format!(
                "{{\"event\":\"train_step\",\"step\":{},\"loss\":{:e},\"grad_norm\":{:e},\
                 \"lr\":{:e},\"wall_s\":{:e}}}",
                report.step,
                report.loss,
                report.grad_norm,
                report.lr,
                report.wall.as_secs_f64()
            ));
        }
        report
    }

    /// Run `n` steps, returning the per-step losses.
    pub fn run(&mut self, n: usize) -> Vec<TrainReport> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Optimizer steps completed so far (monotone across restores).
    pub fn steps_taken(&self) -> usize {
        self.steps
    }

    /// Snapshot the complete training state: model weights, Adam moments
    /// and the step counter. Restoring it (into a trainer over the same
    /// dataset and hyperparameters) continues the loss curve where this
    /// trainer left off.
    pub fn checkpoint(&self) -> crate::checkpoint::TrainCheckpoint {
        crate::checkpoint::TrainCheckpoint::capture(&self.model, self.adam.state(), self.steps)
    }

    /// Restore a checkpoint taken by [`Trainer::checkpoint`]. Replaces the
    /// model (including the `e0` shifts captured at save time — the dataset
    /// mean computed by [`Trainer::new`] is overwritten, not re-derived)
    /// and the optimizer moments; the prepared frames are kept, since they
    /// depend only on geometry and the model configuration — which must
    /// therefore be the one this trainer was built with.
    pub fn restore(&mut self, ckpt: &crate::checkpoint::TrainCheckpoint) {
        let model = ckpt.model.clone();
        assert_eq!(
            model.config, self.model.config,
            "checkpoint is for a different model configuration"
        );
        self.model = model;
        self.adam.restore_state(ckpt.adam.clone());
        self.steps = ckpt.steps;
    }

    /// Energy/force RMSE of the current model on the training frames.
    pub fn rmse(&self) -> Rmse {
        rmse_of(&self.model, &self.prepared)
    }
}

fn frame_system(f: &Frame) -> System {
    // masses are irrelevant for labelling; use unit masses per type
    let n_types = f.types.iter().copied().max().unwrap_or(0) + 1;
    System::new(
        f.cell,
        f.positions.clone(),
        f.types.clone(),
        vec![1.0; n_types],
    )
}

fn rmse_of(model: &DpModel<f64>, frames: &[PreparedFrame]) -> Rmse {
    let mut se_e = 0.0;
    let mut se_f = 0.0;
    let mut n_f = 0usize;
    // One workspace for all frames: a fresh one per frame is mostly page
    // faults on memory the allocator just handed back to the OS.
    let mut ws = EvalWorkspace::new(&model.config);
    let mut out = EvalOutput::default();
    for pf in frames {
        evaluate_into(
            model,
            &pf.fmt,
            &pf.types,
            pf.types.len(),
            None,
            &mut ws,
            &mut out,
        );
        let n = pf.types.len() as f64;
        se_e += ((out.energy - pf.energy) / n).powi(2);
        for (f, f_ref) in out.forces.iter().zip(&pf.forces) {
            for (a, b) in f.iter().zip(f_ref) {
                se_f += (a - b).powi(2);
                n_f += 1;
            }
        }
    }
    Rmse {
        energy_per_atom: (se_e / frames.len() as f64).sqrt(),
        force: (se_f / n_f as f64).sqrt(),
    }
}

/// Public RMSE helper for already-trained models on fresh frames.
pub fn rmse_on_frames(model: &DpModel<f64>, frames: &[Frame]) -> Rmse {
    rmse_of(model, &prepare(model, frames))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::perturbed_frames;
    use deepmd_core::config::DpConfig;
    use dp_md::potential::pair::{LennardJones, PairKind, PairTable};
    use dp_md::CounterRng;
    use dp_md::{lattice, units};

    fn tiny_dataset() -> Vec<Frame> {
        let base = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
        let lj = LennardJones::new(0.2, 2.6, 3.9);
        let mut rng = CounterRng::new(51);
        perturbed_frames(&base, &lj, 6, 0.25, &mut rng)
    }

    #[test]
    fn loss_decreases_over_training() {
        let frames = tiny_dataset();
        let cfg = DpConfig::small(1, 4.0, 14);
        let mut rng = CounterRng::new(52);
        let model = DpModel::<f64>::new_random(cfg, &mut rng);
        let mut trainer = Trainer::new(model, &frames, 0.01, LossWeights::default());
        let first_report = trainer.step();
        assert!(
            first_report.grad_norm.is_finite() && first_report.grad_norm > 0.0,
            "a step that moved the loss must have a nonzero gradient norm"
        );
        let first = first_report.loss;
        let reports = trainer.run(40);
        let last = reports.last().unwrap().loss;
        assert!(last < first * 0.5, "loss did not halve: {first} -> {last}");
    }

    #[test]
    fn rmse_improves_with_training() {
        let frames = tiny_dataset();
        let cfg = DpConfig::small(1, 4.0, 14);
        let mut rng = CounterRng::new(53);
        let model = DpModel::<f64>::new_random(cfg, &mut rng);
        let mut trainer = Trainer::new(model, &frames, 0.01, LossWeights::default());
        let before = trainer.rmse();
        trainer.run(60);
        let after = trainer.rmse();
        assert!(
            after.force < before.force,
            "force RMSE {} -> {}",
            before.force,
            after.force
        );
        assert!(after.energy_per_atom < before.energy_per_atom);
    }

    #[test]
    fn checkpoint_resume_is_loss_continuous() {
        let frames = tiny_dataset();
        let cfg = DpConfig::small(1, 4.0, 14);
        let mut rng = CounterRng::new(55);
        let model = DpModel::<f64>::new_random(cfg.clone(), &mut rng);

        // Straight run: 20 steps.
        let mut straight = Trainer::new(model.clone(), &frames, 0.01, LossWeights::default());
        let straight_losses: Vec<f64> = straight.run(20).iter().map(|r| r.loss).collect();

        // Interrupted run: 10 steps, checkpoint, fresh trainer, restore,
        // 10 more steps.
        let mut first = Trainer::new(model.clone(), &frames, 0.01, LossWeights::default());
        first.run(10);
        let ckpt = first.checkpoint();
        assert_eq!(ckpt.steps, 10);

        let mut resumed = Trainer::new(model, &frames, 0.01, LossWeights::default());
        resumed.restore(&ckpt);
        assert_eq!(resumed.steps_taken(), 10);
        let tail = resumed.run(10);
        assert_eq!(tail.first().unwrap().step, 11);

        // Frame gradients are summed in frame order, so the resumed loss
        // curve is the straight one bit for bit.
        for (r, s) in tail.iter().zip(&straight_losses[10..]) {
            assert_eq!(
                r.loss.to_bits(),
                s.to_bits(),
                "loss diverged after resume: {} vs {s}",
                r.loss
            );
        }
        // And the learning-rate schedule must continue, not reset.
        assert!((tail.last().unwrap().lr - straight.adam.lr()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "different model configuration")]
    fn restore_rejects_a_different_config_of_equal_size() {
        let frames = tiny_dataset();
        let mut rng = CounterRng::new(56);
        let cfg = DpConfig::small(1, 4.0, 14);
        // Same nets, so the same parameter count, but frames formatted for
        // this `sel` would be misread by a model expecting another.
        let other = DpConfig::small(1, 4.0, 12);
        let model = DpModel::<f64>::new_random(cfg, &mut rng);
        let other_model = DpModel::<f64>::new_random(other, &mut rng);
        assert_eq!(model.num_params(), other_model.num_params());

        let ckpt = Trainer::new(other_model, &frames, 0.01, LossWeights::default()).checkpoint();
        Trainer::new(model, &frames, 0.01, LossWeights::default()).restore(&ckpt);
    }

    #[test]
    fn eleven_species_frames_train_and_deviate() {
        // more types than the decimal neighbor codec holds (ten): the
        // frames must be formatted with the binary codec
        let fcc = lattice::fcc(4.0, [2, 2, 2], units::MASS_CU);
        let types = (0..fcc.len()).map(|i| i % 11).collect();
        let base = System::new(fcc.cell, fcc.positions, types, vec![units::MASS_CU; 11]);
        let lj = PairTable::new(
            11,
            PairKind::LennardJones {
                eps: 0.2,
                sigma: 2.6,
            },
            3.9,
            "lj",
        );
        let mut rng = CounterRng::new(57);
        let frames = perturbed_frames(&base, &lj, 2, 0.2, &mut rng);
        let cfg = DpConfig {
            rcut: 4.0,
            rcut_smth: 1.0,
            sel: vec![4; 11],
            embedding: vec![2, 4],
            fitting: vec![4],
            axis_neurons: 2,
        };
        let models: Vec<_> = (0..2)
            .map(|_| DpModel::<f64>::new_random(cfg.clone(), &mut rng))
            .collect();
        let mut trainer = Trainer::new(models[0].clone(), &frames, 0.01, LossWeights::default());
        assert!(trainer.step().loss.is_finite());
        assert!(trainer.rmse().force.is_finite());
        let dev = crate::deviation::max_force_deviation(&models, &base);
        assert!(dev.is_finite() && dev > 0.0);
    }

    #[test]
    fn e0_initialized_to_mean_energy() {
        let frames = tiny_dataset();
        let cfg = DpConfig::small(1, 4.0, 14);
        let mut rng = CounterRng::new(54);
        let model = DpModel::<f64>::new_random(cfg, &mut rng);
        let trainer = Trainer::new(model, &frames, 0.01, LossWeights::default());
        let mean: f64 =
            frames.iter().map(|f| f.energy_per_atom()).sum::<f64>() / frames.len() as f64;
        assert!((trainer.model.e0[0] - mean).abs() < 1e-12);
    }
}
