//! Trained scaled-down DP models, cached on disk.
//!
//! Each harness needs a model whose MD is physically sensible (stable
//! trajectories, realistic RDFs); training takes a minute or two, so the
//! result is cached under `target/dp-models/` and reused.

use crate::workloads;
use deepmd_core::model::DpModel;
use dp_md::potential::eam::SuttonChen;
use dp_md::potential::pair::PairTable;
use dp_md::CounterRng;
use dp_md::Potential;
use dp_train::dataset::{md_frames, perturbed_frames};
use dp_train::{LossWeights, Trainer};
use std::path::PathBuf;

fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/dp-models");
    std::fs::create_dir_all(&dir).expect("create model cache dir");
    dir
}

fn load(name: &str) -> Option<DpModel<f64>> {
    let path = cache_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    DpModel::from_json(&text).ok()
}

fn store(name: &str, model: &DpModel<f64>) {
    let path = cache_dir().join(format!("{name}.json"));
    std::fs::write(path, model.to_json()).expect("write model cache");
}

fn train(
    name: &str,
    cfg: deepmd_core::DpConfig,
    base: dp_md::System,
    reference: &dyn Potential,
    steps: usize,
    seed: u64,
) -> DpModel<f64> {
    if let Some(m) = load(name) {
        eprintln!("[models] loaded cached {name}");
        return m;
    }
    eprintln!("[models] training {name} ({steps} steps)...");
    let mut rng = CounterRng::new(seed);
    let mut frames = perturbed_frames(&base, reference, 8, 0.35, &mut rng);
    frames.extend(md_frames(&base, reference, 300.0, 4, 25, 5e-4, &mut rng));
    let model = DpModel::<f64>::new_random(cfg, &mut rng);
    let mut trainer = Trainer::new(model, &frames, 0.015, LossWeights::default());
    let mut last = f64::INFINITY;
    for k in 0..steps {
        let r = trainer.step();
        if k % 50 == 0 {
            eprintln!("[models]   step {k}: loss {:.3e}", r.loss);
        }
        last = r.loss;
    }
    let rmse = trainer.rmse();
    eprintln!(
        "[models] {name}: final loss {last:.3e}, E RMSE {:.2e} eV/atom, F RMSE {:.2e} eV/Å",
        rmse.energy_per_atom, rmse.force
    );
    store(name, &trainer.model);
    trainer.model
}

/// Scaled-down water DP model trained against the pairwise water
/// reference (the DFT stand-in).
pub fn water_model() -> DpModel<f64> {
    // cutoff matched to the scaled-down DP config (and to the training box)
    let reference = PairTable::water_reference().with_cutoff(4.5);
    train(
        "water-small",
        workloads::water_config_small(),
        workloads::water_training_base(),
        &reference,
        300,
        2024,
    )
}

/// Scaled-down copper DP model trained against Sutton–Chen EAM.
pub fn copper_model() -> DpModel<f64> {
    let reference = SuttonChen::copper_short();
    train(
        "copper-small",
        workloads::copper_config_small(),
        workloads::copper_training_base(),
        &reference,
        400,
        4048,
    )
}

/// Untrained model with the paper's exact water hyper-parameters
/// (embedding 25×50×100, fitting 240³, sel {46,92}) — used by harnesses
/// that measure kernels, where weights don't matter.
pub fn water_model_paper_size(seed: u64) -> DpModel<f64> {
    let mut rng = CounterRng::new(seed);
    DpModel::new_random(deepmd_core::DpConfig::water_paper(), &mut rng)
}

/// Untrained model with the paper's copper hyper-parameters (sel 500).
pub fn copper_model_paper_size(seed: u64) -> DpModel<f64> {
    let mut rng = CounterRng::new(seed);
    DpModel::new_random(deepmd_core::DpConfig::copper_paper(), &mut rng)
}
