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

use crate::app::{self, AppError};
use crate::deck::{self, Fields, PotentialSpec, RunKeys, COUNT, FLAG, NUM, TEXT};
use deepmd_core::{DeepPotential, PrecisionMode};
use dp_md::{CounterRng, System};
use dp_replica::{
    replica_seed, run_active_learning, ActiveLearnOptions, EnsembleEngine, EnsembleOptions,
};
use dp_train::dataset::perturbed_frames;
use std::io::Write as _;
use std::sync::Arc;

pub use crate::deck::ModelSpec;

/// The optional `"active_learning"` deck section: run the concurrent
/// learning loop (explore → screen by ensemble deviation → label with the
/// reference → retrain → hot-swap) instead of a plain ensemble run.
#[derive(Debug, Clone)]
pub struct ActiveLearnConfig {
    /// Labeling potential standing in for the paper's DFT.
    pub reference: PotentialSpec,
    pub rounds: usize,
    /// The keys `n_models`, `train_steps`, `steps_per_round`,
    /// `sample_every`, `lo`, `hi`, `lr` (defaults:
    /// `ActiveLearnOptions::default()`); `seed` is the deck's.
    pub opts: ActiveLearnOptions,
    /// Seed frames labeled with the reference before round 1 (default 4).
    pub initial_frames: usize,
    /// Position jitter (Å) of the seed frames (default 0.15).
    pub frame_perturb: f64,
}

impl ActiveLearnConfig {
    fn read(mut f: Fields, seed: u64) -> Result<Self, AppError> {
        let d = ActiveLearnOptions::default();
        let cfg = Self {
            reference: PotentialSpec::read(f.req_obj("reference")?)?,
            rounds: f.req("rounds", COUNT)?,
            opts: ActiveLearnOptions {
                n_models: f.or("n_models", COUNT, d.n_models)?,
                train_steps: f.or("train_steps", COUNT, d.train_steps)?,
                steps_per_round: f.or("steps_per_round", COUNT, d.steps_per_round)?,
                sample_every: f.or("sample_every", COUNT, d.sample_every)?,
                lo: f.or("lo", NUM, d.lo)?,
                hi: f.or("hi", NUM, d.hi)?,
                lr: f.or("lr", NUM, d.lr)?,
                seed,
            },
            initial_frames: f.or("initial_frames", COUNT, 4)?,
            frame_perturb: f.or("frame_perturb", NUM, 0.15)?,
        };
        f.finish()?;
        Ok(cfg)
    }
}

/// An ensemble deck: the shared [`RunKeys`] plus the keys only this
/// runner reads. Unknown keys are rejected (see [`crate::deck`]).
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// `system` (the base every replica is cloned from), `steps`, `dt_fs`,
    /// `thermo_every`, `thermostat` (`"langevin"`, the default, or
    /// `"berendsen"` — the engine needs one to hold each rung at its
    /// ladder temperature), `seed`, `checkpoint_*` (whole-ensemble
    /// checkpoints), `metrics_path` (per-rank histogram rows,
    /// active-learning `train_step` lines and the closing
    /// `ensemble_summary`).
    pub run: RunKeys,
    /// Ladder size (one replica per rung).
    pub replicas: usize,
    pub model: ModelSpec,
    /// Ladder endpoints (K); the rungs are geometric between them.
    pub t_min: f64,
    pub t_max: f64,
    /// Langevin friction (1/ps, default 2).
    pub gamma: f64,
    /// Berendsen coupling time (ps, default 0.1).
    pub tau: f64,
    /// Steps between exchange rounds (0 = no replica exchange).
    pub exchange_every: usize,
    /// OS threads for the batched evaluation (0 = one per core,
    /// 1 = in-thread). Results are bit-identical either way.
    pub eval_threads: usize,
    /// Per-replica initial position jitter (Å), so rungs decorrelate.
    pub perturb: f64,
    pub mixed_precision: bool,
    /// Write one JSON line per attempted exchange here.
    pub swap_log: Option<String>,
    /// Resume from `checkpoint_path` instead of building fresh replicas.
    /// Also settable as `dpmd ensemble <deck> --resume`.
    pub resume: bool,
    pub active_learning: Option<ActiveLearnConfig>,
}

impl EnsembleConfig {
    /// The ensemble-only keys of a deck whose shared keys are already read.
    pub(crate) fn read(run: RunKeys, f: &mut Fields) -> Result<Self, AppError> {
        let seed = run.seed;
        Ok(Self {
            run,
            replicas: f.req("replicas", COUNT)?,
            model: ModelSpec::read(f.req_obj("model")?)?,
            t_min: f.req("t_min", NUM)?,
            t_max: f.req("t_max", NUM)?,
            gamma: f.or("gamma", NUM, 2.0)?,
            tau: f.or("tau", NUM, 0.1)?,
            exchange_every: f.or("exchange_every", COUNT, 0)?,
            eval_threads: f.or("eval_threads", COUNT, 0)?,
            perturb: f.or("perturb", NUM, 0.0)?,
            mixed_precision: f.or("mixed_precision", FLAG, false)?,
            swap_log: f.opt("swap_log", TEXT)?,
            resume: f.or("resume", FLAG, false)?,
            active_learning: f
                .opt_obj("active_learning")?
                .map(|al| ActiveLearnConfig::read(al, seed))
                .transpose()?,
        })
    }
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

/// Parse an ensemble deck (see [`crate::deck`] for the rules).
pub fn parse_config(text: &str) -> Result<EnsembleConfig, AppError> {
    match deck::parse(text)? {
        deck::Deck::Ensemble(cfg) => Ok(cfg),
        deck::Deck::Md(_) => Err(AppError::Deck(
            "bad input deck: an ensemble deck needs a \"replicas\" key".into(),
        )),
    }
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

fn engine_options(
    cfg: &EnsembleConfig,
    skin: f64,
    mode: PrecisionMode,
) -> Result<EnsembleOptions, AppError> {
    let mut opts = EnsembleOptions {
        dt: cfg.run.dt_fs * 1e-3,
        skin,
        thermo_every: cfg.run.thermo_every,
        mode,
        exchange_every: cfg.exchange_every,
        seed: cfg.run.seed,
        eval_threads: cfg.eval_threads,
        ..EnsembleOptions::default()
    };
    match cfg.run.thermostat(&["langevin", "berendsen"])? {
        Some("berendsen") => opts.berendsen_tau = Some(cfg.tau),
        _ => opts.langevin_gamma = Some(cfg.gamma),
    }
    Ok(opts)
}

/// Run the deck; `log` receives progress lines. The run is deterministic
/// in the deck: same deck, same swap log, byte-for-byte.
pub fn run(cfg: &EnsembleConfig, mut log: impl FnMut(&str)) -> Result<EnsembleSummary, AppError> {
    if cfg.replicas == 0 {
        return Err(AppError::Deck("\"replicas\" must be at least 1".into()));
    }
    if !(cfg.t_min.is_finite()
        && cfg.t_min > 0.0
        && cfg.t_max.is_finite()
        && cfg.t_max >= cfg.t_min)
    {
        return Err(AppError::Deck(format!(
            "bad ladder: need 0 < t_min <= t_max, got t_min {} t_max {}",
            cfg.t_min, cfg.t_max
        )));
    }
    cfg.run.validate(None)?;
    if cfg.resume && cfg.run.checkpoint_path.is_none() {
        return Err(AppError::Deck(
            "resume needs a checkpoint_path to resume from".into(),
        ));
    }
    if cfg.active_learning.is_some() && cfg.run.checkpoint_every > 0 {
        return Err(AppError::Deck(
            "active_learning and checkpoint_every are mutually exclusive (the loop owns the \
             step schedule)"
                .into(),
        ));
    }

    // The metrics sink lives for the run's duration; a teardown error
    // never masks the run's own.
    let metrics = cfg.run.metrics_path.as_deref();
    app::obs_start(metrics, None)?;
    let result = run_engine(cfg, &mut log);
    let teardown = app::obs_finish(metrics, None, &mut log);
    let summary = result?;
    teardown?;
    Ok(summary)
}

fn run_engine(
    cfg: &EnsembleConfig,
    log: &mut impl FnMut(&str),
) -> Result<EnsembleSummary, AppError> {
    let model = cfg.model.load()?;
    let model_cfg = model.config.clone();
    let mode = if cfg.mixed_precision {
        PrecisionMode::Mixed
    } else {
        PrecisionMode::Double
    };
    let pot = Arc::new(DeepPotential::new(model, mode));

    let base = app::build_system(&cfg.run.system);
    let skin = deck::skin(&base, model_cfg.rcut, "model")?;
    let opts = engine_options(cfg, skin, mode)?;
    let temps = temperature_ladder(cfg.t_min, cfg.t_max, cfg.replicas);

    let mut engine = if cfg.resume {
        let path = cfg.run.checkpoint_path.as_deref().expect("checked above");
        let engine = EnsembleEngine::resume(
            Arc::clone(&pot),
            opts,
            path.as_ref(),
            cfg.run.checkpoint_keep,
        )
        .map_err(|e| AppError::Ckpt(format!("cannot resume from {path}: {e}")))?;
        if engine.n_replicas() != cfg.replicas {
            return Err(AppError::Ckpt(format!(
                "checkpoint holds {} replicas, deck wants {}",
                engine.n_replicas(),
                cfg.replicas
            )));
        }
        if engine.step > cfg.run.steps {
            return Err(AppError::Ckpt(format!(
                "checkpoint is at step {}, but the deck only runs to step {}",
                engine.step, cfg.run.steps
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
                let mut rng = CounterRng::new(replica_seed(cfg.run.seed, k));
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
        cfg.run.steps,
        cfg.exchange_every
    ));

    // --- advance: active-learning loop, or plain run with checkpoints ---
    let mut dataset_size = None;
    if let Some(al) = &cfg.active_learning {
        if al.opts.n_models < 2 {
            return Err(AppError::Deck(
                "active_learning.n_models must be >= 2".into(),
            ));
        }
        if al.opts.sample_every == 0 {
            return Err(AppError::Deck(
                "active_learning.sample_every must be positive".into(),
            ));
        }
        let reference = app::build_potential(&al.reference)?;
        let mut frame_rng = CounterRng::new(cfg.run.seed ^ 0xF4A3);
        let frames = perturbed_frames(
            &base,
            reference.as_ref(),
            al.initial_frames,
            al.frame_perturb,
            &mut frame_rng,
        );
        let (dataset, reports) = run_active_learning(
            &mut engine,
            &model_cfg,
            reference.as_ref(),
            frames,
            al.rounds,
            &al.opts,
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
        while engine.step < cfg.run.steps {
            let remaining = cfg.run.steps - engine.step;
            let chunk = if cfg.run.checkpoint_every > 0 {
                remaining.min(cfg.run.checkpoint_every)
            } else {
                remaining
            };
            engine.run(chunk);
            if cfg.run.checkpoint_every > 0 {
                let path = cfg.run.checkpoint_path.as_deref().expect("checked above");
                engine
                    .save_checkpoint(path.as_ref(), cfg.run.checkpoint_keep)
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
        log(&format!(
            "swap log: {} events -> {path}",
            engine.swap_log.len()
        ));
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

    fn config() -> EnsembleConfig {
        parse_config(
            r#"{"replicas": 3, "steps": 6, "dt_fs": 2.0, "thermo_every": 3, "seed": 9,
                "system": {"kind": "fcc", "a0": 5.3, "reps": [2, 2, 2], "mass": 63.546},
                "model": {"kind": "synthetic", "seed": 7},
                "t_min": 100.0, "t_max": 300.0, "exchange_every": 3, "perturb": 0.05}"#,
        )
        .unwrap()
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
        straight.run.steps = 8;
        let s = run(&straight, |_| {}).unwrap();

        let mut first = config();
        first.run.steps = 4;
        first.run.checkpoint_every = 4;
        first.run.checkpoint_path = Some(base.clone());
        run(&first, |_| {}).unwrap();

        let mut second = config();
        second.run.steps = 8;
        second.run.checkpoint_every = 4;
        second.run.checkpoint_path = Some(base.clone());
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
        cutoff.run.system = deck::SystemSpec::Fcc {
            a0: 3.0,
            reps: [2, 2, 2],
            mass: 63.546,
        };
        assert!(matches!(run(&cutoff, |_| {}), Err(AppError::Deck(_))));

        let mut orphan = config();
        orphan.run.checkpoint_every = 5;
        assert!(matches!(run(&orphan, |_| {}), Err(AppError::Deck(_))));

        let mut thermostat = config();
        thermostat.run.thermostat = Some("nose-hoover".into());
        assert!(matches!(run(&thermostat, |_| {}), Err(AppError::Deck(_))));

        let mut stride = config();
        stride.run.thermo_every = 0;
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
            opts: ActiveLearnOptions {
                train_steps: 10,
                steps_per_round: 4,
                sample_every: 2,
                lo: 1e-5,
                hi: 1e3,
                seed: cfg.run.seed,
                ..ActiveLearnOptions::default()
            },
            initial_frames: 3,
            frame_perturb: 0.15,
        });
        let s = run(&cfg, |_| {}).unwrap();
        assert_eq!(s.steps, 4);
        let n = s.dataset_size.expect("active learning reports a dataset");
        assert!(n >= 3, "dataset shrank: {n}");
    }
}
