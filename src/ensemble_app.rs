//! `dpmd ensemble` — drive the multi-replica engine from a JSON deck.
//!
//! ```json
//! {
//!   "replicas": 8,
//!   "system": {"kind": "fcc", "a0": 5.26, "reps": [2,2,2], "mass": 63.546},
//!   "model": {"kind": "synthetic", "seed": 7, "rcut": 4.0},
//!   "t_min": 100.0,
//!   "t_max": 400.0,
//!   "steps": 20,
//!   "dt_fs": 2.0,
//!   "exchange_every": 10,
//!   "swap_log": "swaps.jsonl",
//!   "seed": 1
//! }
//! ```
//!
//! The deck builds a geometric temperature ladder `T_k = t_min ·
//! (t_max/t_min)^(k/(n−1))`, clones the base system into one replica per
//! rung (each with its own deterministic `CounterRng` stream for jitter
//! and velocities), and advances all of them against one shared
//! [`DeepPotential`] through the cross-replica batched evaluation of
//! [`dp_replica::EnsembleEngine`]. Replica exchange, whole-ensemble
//! checkpoint/resume, and the swap-log JSONL are driven by the deck keys
//! below; an optional `"active_learning"` section runs the DP-GEN-style
//! loop of [`dp_replica::run_active_learning`] instead of a plain run.
//!
//! The same decks run server-side: `POST /v1/jobs` detects a top-level
//! `"replicas"` key and routes the job here (see `crate::serve_app`).

use crate::app::{self, AppError, PotentialSpec, SystemSpec};
use deepmd_core::config::DpConfig;
use deepmd_core::model::{DpModel, DpModelData};
use deepmd_core::{DeepPotential, PrecisionMode};
use dp_md::{CounterRng, System};
use dp_replica::{
    replica_seed, run_active_learning, ActiveLearnOptions, EnsembleEngine, EnsembleOptions,
};
use dp_train::dataset::perturbed_frames;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Deserialize;
use std::io::Write as _;
use std::sync::Arc;

/// Which Deep Potential model the whole ensemble shares.
#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ModelSpec {
    /// A deterministic untrained model (weights from `seed`); the
    /// arithmetic is the real thing, so smoke tests and benchmarks work
    /// without a training run.
    Synthetic {
        seed: u64,
        #[serde(default = "default_rcut")]
        rcut: f64,
    },
    /// A trained model file (JSON `DpModelData`).
    File { path: String },
}

fn default_rcut() -> f64 {
    4.5
}

/// The optional `"active_learning"` deck section: run the concurrent
/// learning loop (explore → screen by ensemble deviation → label with the
/// reference → retrain → hot-swap) instead of a plain ensemble run.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ActiveLearnConfig {
    /// Labeling potential standing in for the paper's DFT.
    pub reference: PotentialSpec,
    pub rounds: usize,
    #[serde(default = "default_n_models")]
    pub n_models: usize,
    #[serde(default = "default_train_steps")]
    pub train_steps: usize,
    #[serde(default = "default_steps_per_round")]
    pub steps_per_round: usize,
    #[serde(default = "default_sample_every")]
    pub sample_every: usize,
    #[serde(default = "default_lo")]
    pub lo: f64,
    #[serde(default = "default_hi")]
    pub hi: f64,
    #[serde(default = "default_lr")]
    pub lr: f64,
    /// Seed frames labeled with the reference before round 1.
    #[serde(default = "default_initial_frames")]
    pub initial_frames: usize,
    /// Position jitter (Å) of the seed frames.
    #[serde(default = "default_frame_perturb")]
    pub frame_perturb: f64,
}

fn default_n_models() -> usize {
    2
}
fn default_train_steps() -> usize {
    60
}
fn default_steps_per_round() -> usize {
    20
}
fn default_sample_every() -> usize {
    10
}
fn default_lo() -> f64 {
    0.05
}
fn default_hi() -> f64 {
    5.0
}
fn default_lr() -> f64 {
    0.02
}
fn default_initial_frames() -> usize {
    4
}
fn default_frame_perturb() -> f64 {
    0.15
}

/// The whole ensemble deck. Unknown keys are rejected, like `AppConfig`.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EnsembleConfig {
    /// Ladder size (one replica per rung).
    pub replicas: usize,
    /// Base system every replica is cloned from.
    pub system: SystemSpec,
    pub model: ModelSpec,
    /// Ladder endpoints (K); the rungs are geometric between them.
    pub t_min: f64,
    pub t_max: f64,
    pub steps: usize,
    pub dt_fs: f64,
    /// `"langevin"` (default) or `"berendsen"` — the engine needs a
    /// thermostat to hold each rung at its ladder temperature.
    #[serde(default)]
    pub thermostat: Option<String>,
    /// Langevin friction (1/ps).
    #[serde(default = "default_gamma")]
    pub gamma: f64,
    /// Berendsen coupling time (ps).
    #[serde(default = "default_tau")]
    pub tau: f64,
    #[serde(default = "default_thermo_every")]
    pub thermo_every: usize,
    /// Steps between exchange rounds (0 = no replica exchange).
    #[serde(default)]
    pub exchange_every: usize,
    /// OS threads for the batched evaluation (0 = one per core,
    /// 1 = in-thread). Results are bit-identical either way.
    #[serde(default)]
    pub eval_threads: usize,
    /// Per-replica initial position jitter (Å), so rungs decorrelate.
    #[serde(default)]
    pub perturb: f64,
    #[serde(default)]
    pub mixed_precision: bool,
    #[serde(default)]
    pub seed: u64,
    /// Write one JSON line per attempted exchange here.
    #[serde(default)]
    pub swap_log: Option<String>,
    /// Write JSONL metrics for the run here: per-rank histogram rows,
    /// active-learning `train_step` lines (loss, grad norm, wall), and
    /// the closing `ensemble_summary`. Enables span/histogram collection
    /// for the run's duration.
    #[serde(default)]
    pub metrics_path: Option<String>,
    /// Steps between whole-ensemble checkpoints (0 = none).
    #[serde(default)]
    pub checkpoint_every: usize,
    #[serde(default)]
    pub checkpoint_path: Option<String>,
    #[serde(default = "default_checkpoint_keep")]
    pub checkpoint_keep: usize,
    /// Resume from `checkpoint_path` instead of building fresh replicas.
    /// Also settable as `dpmd ensemble <deck> --resume`.
    #[serde(default)]
    pub resume: bool,
    #[serde(default)]
    pub active_learning: Option<ActiveLearnConfig>,
}

fn default_gamma() -> f64 {
    2.0
}
fn default_tau() -> f64 {
    0.1
}
fn default_thermo_every() -> usize {
    20
}
fn default_checkpoint_keep() -> usize {
    3
}

/// What an ensemble run produced (the serve job summary renders this).
#[derive(Debug)]
pub struct EnsembleSummary {
    pub replicas: usize,
    /// Engine step reached (every replica is at this step).
    pub steps: usize,
    pub exchange_attempts: u64,
    pub exchange_accepted: u64,
    /// Final ladder temperature of each replica (exchange permutes them).
    pub final_temps: Vec<f64>,
    /// Active learning only: frames in the grown dataset.
    pub dataset_size: Option<usize>,
}

/// Parse an ensemble deck (same serde error surfacing as `app`).
pub fn parse_config(text: &str) -> Result<EnsembleConfig, AppError> {
    serde_json::from_str(text).map_err(|e| AppError::Deck(format!("bad ensemble deck: {e}")))
}

/// Is this deck for the ensemble runner rather than a plain MD run? The
/// discriminator is the top-level `"replicas"` key, which `AppConfig`
/// rejects and `EnsembleConfig` requires.
pub fn is_ensemble_deck(text: &str) -> bool {
    serde_json::from_str::<serde_json::Value>(text)
        .ok()
        .is_some_and(|v| v.get("replicas").is_some())
}

/// The geometric ladder `T_k = t_min · (t_max/t_min)^(k/(n−1))` — equal
/// acceptance-probability spacing for a system with
/// temperature-independent heat capacity.
pub fn temperature_ladder(t_min: f64, t_max: f64, n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![t_min];
    }
    let ratio = t_max / t_min;
    (0..n)
        .map(|k| t_min * ratio.powf(k as f64 / (n - 1) as f64))
        .collect()
}

fn build_model(spec: &ModelSpec) -> Result<DpModel<f64>, AppError> {
    match spec {
        ModelSpec::Synthetic { seed, rcut } => {
            if !(rcut.is_finite() && *rcut > 0.0) {
                return Err(AppError::Deck(format!("bad synthetic model rcut {rcut}")));
            }
            let cfg = DpConfig::small(1, *rcut, 16);
            Ok(DpModel::new_random(cfg, &mut StdRng::seed_from_u64(*seed)))
        }
        ModelSpec::File { path } => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| AppError::Io(format!("cannot read model {path}: {e}")))?;
            let data: DpModelData = serde_json::from_str(&text)
                .map_err(|e| AppError::Deck(format!("bad model {path}: {e}")))?;
            Ok(DpModel::from_data(&data))
        }
    }
}

fn engine_options(cfg: &EnsembleConfig, skin: f64, mode: PrecisionMode) -> Result<EnsembleOptions, AppError> {
    let mut opts = EnsembleOptions {
        dt: cfg.dt_fs * 1e-3,
        skin,
        thermo_every: cfg.thermo_every,
        mode,
        exchange_every: cfg.exchange_every,
        seed: cfg.seed,
        eval_threads: cfg.eval_threads,
        ..EnsembleOptions::default()
    };
    match cfg.thermostat.as_deref() {
        None | Some("langevin") => opts.langevin_gamma = Some(cfg.gamma),
        Some("berendsen") => opts.berendsen_tau = Some(cfg.tau),
        Some(other) => {
            return Err(AppError::Deck(format!(
                "unknown thermostat '{other}' (ensemble runs take \"langevin\" or \"berendsen\")"
            )))
        }
    }
    Ok(opts)
}

/// Run the deck; `log` receives progress lines. The run is deterministic
/// in the deck: same deck, same swap log, byte-for-byte.
pub fn run(cfg: &EnsembleConfig, mut log: impl FnMut(&str)) -> Result<EnsembleSummary, AppError> {
    if cfg.replicas == 0 {
        return Err(AppError::Deck("\"replicas\" must be at least 1".into()));
    }
    if !(cfg.t_min.is_finite() && cfg.t_min > 0.0 && cfg.t_max.is_finite() && cfg.t_max >= cfg.t_min)
    {
        return Err(AppError::Deck(format!(
            "bad ladder: need 0 < t_min <= t_max, got t_min {} t_max {}",
            cfg.t_min, cfg.t_max
        )));
    }
    if !(cfg.dt_fs.is_finite() && cfg.dt_fs > 0.0) {
        return Err(AppError::Deck(format!("bad dt_fs {}", cfg.dt_fs)));
    }
    if cfg.thermo_every == 0 {
        return Err(AppError::Deck("thermo_every must be at least 1".into()));
    }
    if cfg.checkpoint_every > 0 && cfg.checkpoint_path.is_none() {
        return Err(AppError::Deck(
            "checkpoint_every is set but there is no checkpoint_path to write to".into(),
        ));
    }
    if cfg.resume && cfg.checkpoint_path.is_none() {
        return Err(AppError::Deck(
            "resume needs a checkpoint_path to resume from".into(),
        ));
    }
    if cfg.active_learning.is_some() && cfg.checkpoint_every > 0 {
        return Err(AppError::Deck(
            "active_learning and checkpoint_every are mutually exclusive (the loop owns the \
             step schedule)"
                .into(),
        ));
    }

    // Same obs lifecycle as `app::run`: a metrics sink for the run's
    // duration, torn down afterwards (teardown errors never mask the
    // run's own error).
    let obs_on = cfg.metrics_path.is_some();
    if obs_on {
        if let Some(path) = &cfg.metrics_path {
            dp_obs::metrics::install(path)
                .map_err(|e| AppError::Io(format!("cannot open metrics file {path}: {e}")))?;
        }
        dp_obs::enable();
    }
    let result = run_engine(cfg, &mut log);
    if obs_on {
        dp_obs::disable();
        let teardown = dp_obs::metrics::uninstall().map_or(Ok(()), |r| {
            r.map_err(|e| AppError::Io(format!("metrics write failed: {e}")))
        });
        let summary = result?;
        teardown?;
        return Ok(summary);
    }
    result
}

fn run_engine(
    cfg: &EnsembleConfig,
    log: &mut impl FnMut(&str),
) -> Result<EnsembleSummary, AppError> {
    let model = build_model(&cfg.model)?;
    let model_cfg = model.config.clone();
    let mode = if cfg.mixed_precision {
        PrecisionMode::Mixed
    } else {
        PrecisionMode::Double
    };
    let pot = Arc::new(DeepPotential::new(model, mode));

    let base = app::build_system(&cfg.system);
    let halo_limit = base.cell.max_cutoff();
    if model_cfg.rcut > halo_limit {
        return Err(AppError::Deck(format!(
            "model cutoff {} exceeds the minimum-image limit {halo_limit:.3} of this box",
            model_cfg.rcut
        )));
    }
    let skin = ((halo_limit - model_cfg.rcut) * 0.9).clamp(0.0, 2.0);
    let opts = engine_options(cfg, skin, mode)?;
    let temps = temperature_ladder(cfg.t_min, cfg.t_max, cfg.replicas);

    let mut engine = if cfg.resume {
        let path = cfg.checkpoint_path.as_deref().expect("checked above");
        let engine =
            EnsembleEngine::resume(Arc::clone(&pot), opts, path.as_ref(), cfg.checkpoint_keep)
                .map_err(|e| AppError::Ckpt(format!("cannot resume from {path}: {e}")))?;
        if engine.n_replicas() != cfg.replicas {
            return Err(AppError::Ckpt(format!(
                "checkpoint holds {} replicas, deck wants {}",
                engine.n_replicas(),
                cfg.replicas
            )));
        }
        if engine.step > cfg.steps {
            return Err(AppError::Ckpt(format!(
                "checkpoint is at step {}, but the deck only runs to step {}",
                engine.step, cfg.steps
            )));
        }
        log(&format!(
            "resuming from {path} (step {}, {} replicas)",
            engine.step,
            engine.n_replicas()
        ));
        engine
    } else {
        let systems: Vec<System> = (0..cfg.replicas)
            .map(|k| {
                let mut sys = base.clone();
                let mut rng = CounterRng::new(replica_seed(cfg.seed, k));
                if cfg.perturb > 0.0 {
                    sys.perturb(cfg.perturb, &mut rng);
                }
                sys.init_velocities(temps[k], &mut rng);
                sys
            })
            .collect();
        EnsembleEngine::new(Arc::clone(&pot), systems, &temps, opts)
    };

    log(&format!(
        "ensemble: {} replicas x {} atoms, ladder {:.1}..{:.1} K, steps {}..{}, exchange every {}",
        engine.n_replicas(),
        base.len(),
        cfg.t_min,
        cfg.t_max,
        engine.step,
        cfg.steps,
        cfg.exchange_every
    ));

    // --- advance: active-learning loop, or plain run with checkpoints ---
    let mut dataset_size = None;
    if let Some(al) = &cfg.active_learning {
        if al.n_models < 2 {
            return Err(AppError::Deck("active_learning.n_models must be >= 2".into()));
        }
        if al.sample_every == 0 {
            return Err(AppError::Deck("active_learning.sample_every must be positive".into()));
        }
        let reference = app::build_potential(&al.reference)?;
        let mut frame_rng = StdRng::seed_from_u64(cfg.seed ^ 0xF4A3);
        let frames = perturbed_frames(
            &base,
            reference.as_ref(),
            al.initial_frames,
            al.frame_perturb,
            &mut frame_rng,
        );
        let al_opts = ActiveLearnOptions {
            n_models: al.n_models,
            train_steps: al.train_steps,
            steps_per_round: al.steps_per_round,
            sample_every: al.sample_every,
            lo: al.lo,
            hi: al.hi,
            lr: al.lr,
            seed: cfg.seed,
        };
        let (dataset, reports) = run_active_learning(
            &mut engine,
            &model_cfg,
            reference.as_ref(),
            frames,
            al.rounds,
            &al_opts,
        );
        for r in &reports {
            log(&format!(
                "round {:3}  dataset {:5}  harvested {:4}  labeled {:4}  failed {:4}  max dev {:.3e}",
                r.round, r.dataset_size, r.harvested, r.candidates_added, r.failed,
                r.max_deviation_seen
            ));
        }
        dataset_size = Some(dataset.len());
    } else {
        while engine.step < cfg.steps {
            let remaining = cfg.steps - engine.step;
            let chunk = if cfg.checkpoint_every > 0 {
                remaining.min(cfg.checkpoint_every)
            } else {
                remaining
            };
            engine.run(chunk);
            if cfg.checkpoint_every > 0 {
                let path = cfg.checkpoint_path.as_deref().expect("checked above");
                engine
                    .save_checkpoint(path.as_ref(), cfg.checkpoint_keep)
                    .map_err(|e| AppError::Io(format!("checkpoint write failed: {e}")))?;
            }
        }
    }

    // --- report ---
    for (k, r) in engine.replicas.iter().enumerate() {
        if let Some(t) = r.thermo.last() {
            log(&format!(
                "replica {k:3}  step {:6}  target {:6.1} K  PE {:+.4} eV  T {:6.1} K",
                t.step, r.target_t, t.potential_energy, t.temperature
            ));
        }
    }
    if cfg.exchange_every > 0 {
        log(&format!(
            "exchange: {} accepted / {} attempted",
            engine.exchange_accepted, engine.exchange_attempts
        ));
    }
    if let Some(path) = &cfg.swap_log {
        let mut f = std::fs::File::create(path)
            .map_err(|e| AppError::Io(format!("cannot open swap log {path}: {e}")))?;
        for ev in &engine.swap_log {
            writeln!(f, "{}", ev.to_json())
                .map_err(|e| AppError::Io(format!("swap log write failed: {e}")))?;
        }
        log(&format!("swap log: {} events -> {path}", engine.swap_log.len()));
    }

    if dp_obs::metrics::active() {
        dp_obs::metrics::emit_line(&format!(
            "{{\"event\":\"ensemble_summary\",\"replicas\":{},\"steps\":{},\
             \"exchange_attempts\":{},\"exchange_accepted\":{}}}",
            engine.n_replicas(),
            engine.step,
            engine.exchange_attempts,
            engine.exchange_accepted
        ));
    }

    Ok(EnsembleSummary {
        replicas: engine.n_replicas(),
        steps: engine.step,
        exchange_attempts: engine.exchange_attempts,
        exchange_accepted: engine.exchange_accepted,
        final_temps: engine.replicas.iter().map(|r| r.target_t).collect(),
        dataset_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Deck JSON parsing needs real serde_json and is exercised by the
    // tier-1 ensemble smoke; these tests drive the library surface the
    // deck maps onto.

    fn config() -> EnsembleConfig {
        EnsembleConfig {
            replicas: 3,
            system: SystemSpec::Fcc {
                a0: 5.3,
                reps: [2, 2, 2],
                mass: 63.546,
            },
            model: ModelSpec::Synthetic { seed: 7, rcut: 4.5 },
            t_min: 100.0,
            t_max: 300.0,
            steps: 6,
            dt_fs: 2.0,
            thermostat: None,
            gamma: 2.0,
            tau: 0.1,
            thermo_every: 3,
            exchange_every: 3,
            eval_threads: 0,
            perturb: 0.05,
            mixed_precision: false,
            seed: 9,
            swap_log: None,
            metrics_path: None,
            checkpoint_every: 0,
            checkpoint_path: None,
            checkpoint_keep: 3,
            resume: false,
            active_learning: None,
        }
    }

    #[test]
    fn ladder_is_geometric_and_hits_both_endpoints() {
        let t = temperature_ladder(100.0, 400.0, 3);
        assert_eq!(t.len(), 3);
        assert!((t[0] - 100.0).abs() < 1e-12);
        assert!((t[1] - 200.0).abs() < 1e-9);
        assert!((t[2] - 400.0).abs() < 1e-12);
        assert_eq!(temperature_ladder(150.0, 600.0, 1), vec![150.0]);
    }

    #[test]
    fn run_is_deterministic_in_the_deck() {
        let summarize = || {
            let mut lines = Vec::new();
            let s = run(&config(), |l| lines.push(l.to_string())).unwrap();
            (s, lines)
        };
        let (a, la) = summarize();
        let (b, lb) = summarize();
        assert_eq!(a.replicas, 3);
        assert_eq!(a.steps, 6);
        assert_eq!(a.exchange_attempts, b.exchange_attempts);
        assert_eq!(a.exchange_accepted, b.exchange_accepted);
        for (x, y) in a.final_temps.iter().zip(&b.final_temps) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(la, lb, "progress lines must be reproducible");
        // exchange ran: 2 rounds x 1 pair each (alternating phase, 3 rungs)
        assert_eq!(a.exchange_attempts, 2);
    }

    #[test]
    fn checkpointed_run_resumes_to_the_same_final_state() {
        let dir = std::env::temp_dir().join(format!("dp-ensemble-app-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("ens.ckpt").to_string_lossy().into_owned();

        let mut straight = config();
        straight.steps = 8;
        let s = run(&straight, |_| {}).unwrap();

        let mut first = config();
        first.steps = 4;
        first.checkpoint_every = 4;
        first.checkpoint_path = Some(base.clone());
        run(&first, |_| {}).unwrap();

        let mut second = config();
        second.steps = 8;
        second.checkpoint_every = 4;
        second.checkpoint_path = Some(base.clone());
        second.resume = true;
        let r = run(&second, |_| {}).unwrap();

        assert_eq!(r.steps, 8);
        for (x, y) in s.final_temps.iter().zip(&r.final_temps) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(s.exchange_attempts, r.exchange_attempts);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_decks_are_typed_errors() {
        let mut zero = config();
        zero.replicas = 0;
        assert!(matches!(run(&zero, |_| {}), Err(AppError::Deck(_))));

        let mut ladder = config();
        ladder.t_min = 300.0;
        ladder.t_max = 100.0;
        assert!(matches!(run(&ladder, |_| {}), Err(AppError::Deck(_))));

        let mut cutoff = config();
        cutoff.system = SystemSpec::Fcc {
            a0: 3.0,
            reps: [2, 2, 2],
            mass: 63.546,
        };
        assert!(matches!(run(&cutoff, |_| {}), Err(AppError::Deck(_))));

        let mut orphan = config();
        orphan.checkpoint_every = 5;
        assert!(matches!(run(&orphan, |_| {}), Err(AppError::Deck(_))));

        let mut thermostat = config();
        thermostat.thermostat = Some("nose-hoover".into());
        assert!(matches!(run(&thermostat, |_| {}), Err(AppError::Deck(_))));

        let mut stride = config();
        stride.thermo_every = 0;
        assert!(matches!(run(&stride, |_| {}), Err(AppError::Deck(_))));
    }

    #[test]
    fn active_learning_deck_grows_a_dataset() {
        let mut cfg = config();
        cfg.model = ModelSpec::Synthetic { seed: 7, rcut: 3.9 };
        cfg.active_learning = Some(ActiveLearnConfig {
            reference: PotentialSpec::LennardJones {
                eps: 0.2,
                sigma: 2.6,
                rcut: 3.9,
            },
            rounds: 1,
            n_models: 2,
            train_steps: 10,
            steps_per_round: 4,
            sample_every: 2,
            lo: 1e-5,
            hi: 1e3,
            lr: 0.02,
            initial_frames: 3,
            frame_perturb: 0.15,
        });
        let s = run(&cfg, |_| {}).unwrap();
        assert_eq!(s.steps, 4);
        let n = s.dataset_size.expect("active learning reports a dataset");
        assert!(n >= 3, "dataset shrank: {n}");
    }
}
