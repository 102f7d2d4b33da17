//! The `dpmd` application layer: run an MD simulation from a JSON input
//! deck, the way LAMMPS drives DeePMD-kit from a script.
//!
//! ```json
//! {
//!   "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
//!   "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
//!   "temperature": 40.0,
//!   "thermostat": null,
//!   "dt_fs": 2.0,
//!   "steps": 200,
//!   "thermo_every": 20,
//!   "trajectory": "run.xyz",
//!   "seed": 1
//! }
//! ```
//!
//! `potential.kind` may also be `"deep_potential"` with a `"model"` path to
//! a JSON model produced by training (see `DpModel::to_json`), or
//! `"sutton_chen_cu"` / `"water_reference"`.
//!
//! Adding `"grid": [nx, ny, nz]` runs the deck on the fault-tolerant
//! parallel driver instead of the serial integrator: rank threads under a
//! supervisor that recovers from rank failures via the checkpoint rotation
//! (see `dp_parallel`). The `fault_*` keys inject deterministic faults into
//! such a run for recovery drills. `"report_every": N` adds a live
//! load-balance heartbeat, and `"imbalance_report": true` prints the §7.3
//! cross-rank compute/comm/wait breakdown after the run.
//!
//! Every failure is a typed [`AppError`]; `dpmd` maps the variants to
//! distinct process exit codes (see [`AppError::exit_code`]).

use crate::deck::{self, Fields, RunKeys, COUNT, FLAG, INT, NUM, PAIR, TEXT, TRIPLE};
use deepmd_core::{DeepPotential, PrecisionMode};
use dp_ckpt::Rotation;
use dp_md::checkpoint::MdCheckpoint;
use dp_md::integrate::{
    run_md_resumable, Berendsen, CheckpointSink, MdOptions, MdProgress, ThermoSample,
};
use dp_md::potential::eam::SuttonChen;
use dp_md::potential::pair::{LennardJones, PairTable};
use dp_md::rng::CounterRng;
use dp_md::{lattice, Potential, System};
use dp_obs::report::{RooflineReport, RooflineRow};
use dp_obs::ImbalanceReport;
use dp_parallel::{
    expand_chaos, run_parallel_md, BreakInvariant, ChaosSpec, FaultPlan, KillSpec, ParallelCkpt,
    ParallelOptions, RunError,
};
use dp_perfmodel::{Roofline, SystemModel};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

pub use crate::deck::{PotentialSpec, SystemSpec};

/// An MD input deck: the shared [`RunKeys`] plus the keys only this
/// runner reads. Unknown keys are rejected (see [`crate::deck`]).
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// `system`, `steps`, `dt_fs`, `thermo_every`, `thermostat`
    /// (`"berendsen"` or null/absent for NVE), `seed`, `checkpoint_*`,
    /// `metrics_path`.
    pub run: RunKeys,
    pub potential: PotentialSpec,
    /// Initial (and thermostat target) temperature, K.
    pub temperature: f64,
    /// Optional extended-XYZ trajectory output path.
    pub trajectory: Option<String>,
    /// Parallel runs only: also write one per-rank shard next to every
    /// checkpoint generation, enabling *localized* recovery — a dead rank
    /// is rebuilt in place from its shard and the survivors' state, with
    /// no global reload (see `dp_parallel`'s fault-tolerance docs).
    pub checkpoint_shards: bool,
    /// Resume from this checkpoint (rotation base path) instead of
    /// building a fresh system; corrupt generations fall back to older
    /// ones. Also settable as `dpmd --resume <file>`.
    pub resume: Option<String>,
    /// Write a chrome://tracing JSON trace of the run here. Also settable
    /// as `dpmd --trace <file>`.
    pub trace_path: Option<String>,
    /// Rank grid `[nx, ny, nz]`: run on the fault-tolerant parallel driver
    /// with nx*ny*nz rank threads. Absent = serial integrator.
    pub grid: Option<[usize; 3]>,
    /// Fault injection (parallel runs only): kill this rank...
    pub fault_kill_rank: Option<usize>,
    /// ...at this absolute step. Both or neither must be set.
    pub fault_kill_step: Option<usize>,
    /// Re-kill in every recovered epoch (exhausts the retry budget; used
    /// to drill the typed-error exit path).
    pub fault_kill_every_epoch: bool,
    /// Chaos mode (parallel runs only): expand a seed into a deterministic
    /// randomized schedule of rank kills, message drops, and message delays
    /// spread over the run — a long-soak drill in one deck key. Kills and
    /// drops require checkpointing; the schedule is constructed so every
    /// fault is survivable (see `dp_parallel::chaos`), and the retry budget
    /// is automatically sized to cover it.
    pub fault_chaos: Option<ChaosSpec>,
    /// Soak mode (parallel runs only): `fault_chaos` plus torn per-rank
    /// shard writes, with the periodic invariant auditor switched on —
    /// the long-haul compound-fault drill in one deck key. Requires
    /// checkpointing; `checkpoint_shards` should be on for the localized
    /// tier to be exercised.
    pub chaos_soak: Option<ChaosSpec>,
    /// Test-only hook `[rank, step]`: corrupt that rank's report in the
    /// first invariant audit at or after `step`, proving the auditor
    /// fails fast with a typed error (exit 6). Never touches real state.
    pub fault_break_invariant: Option<[usize; 2]>,
    /// Parallel runs only: audit conservation-class invariants
    /// (atom-count conservation, ghost/owner consistency, step-counter
    /// uniformity, seq-gap-free comm) every this many steps. 0 = off;
    /// `chaos_soak` supplies its own stride when this is 0.
    pub audit_every: usize,
    /// How many failed epochs the supervisor may recover from before the
    /// run fails with a typed error (default 2).
    pub fault_max_retries: usize,
    /// Receive/reduce deadline in milliseconds (default 30000): how long a
    /// rank waits for a peer before declaring it dead.
    pub fault_comm_deadline_ms: Option<u64>,
    /// Parallel runs only: every `report_every` steps the ranks gather
    /// per-phase time deltas and rank 0 prints a live load-balance
    /// heartbeat (also an `imbalance_heartbeat` metrics event). 0 = off.
    pub report_every: usize,
    /// Parallel runs only: print the §7.3-style cross-rank breakdown
    /// table (compute/comm/wait, imbalance ratios, achieved vs. modeled
    /// GFLOPS) after the run. Also settable as `dpmd --imbalance-report`.
    pub imbalance_report: bool,
    /// Parallel runs only: print the roofline attribution table after the
    /// run — per-phase achieved vs. modeled GFLOPS, arithmetic intensity,
    /// and the memory/compute-bound verdict against the paper's V100
    /// roofline. Also settable as `dpmd --profile-report`.
    pub profile_report: bool,
    /// Write a Prometheus text-format (0.0.4) snapshot of every counter,
    /// histogram, and published gauge here after the run. Also settable
    /// as `dpmd --prom-dump <file>`.
    pub prom_dump: Option<String>,
}

impl AppConfig {
    /// The MD-only keys of a deck whose shared keys are already read.
    pub(crate) fn read(run: RunKeys, f: &mut Fields) -> Result<Self, AppError> {
        Ok(Self {
            run,
            potential: PotentialSpec::read(f.req_obj("potential")?)?,
            temperature: f.req("temperature", NUM)?,
            trajectory: f.opt("trajectory", TEXT)?,
            checkpoint_shards: f.or("checkpoint_shards", FLAG, false)?,
            resume: f.opt("resume", TEXT)?,
            trace_path: f.opt("trace_path", TEXT)?,
            grid: f.opt("grid", TRIPLE)?,
            fault_kill_rank: f.opt("fault_kill_rank", COUNT)?,
            fault_kill_step: f.opt("fault_kill_step", COUNT)?,
            fault_kill_every_epoch: f.or("fault_kill_every_epoch", FLAG, false)?,
            fault_chaos: f
                .opt_obj("fault_chaos")?
                .map(|f| deck::read_chaos(f, false))
                .transpose()?,
            chaos_soak: f
                .opt_obj("chaos_soak")?
                .map(|f| deck::read_chaos(f, true))
                .transpose()?,
            fault_break_invariant: f.opt("fault_break_invariant", PAIR)?,
            audit_every: f.or("audit_every", COUNT, 0)?,
            fault_max_retries: f.or("fault_max_retries", COUNT, 2)?,
            fault_comm_deadline_ms: f.opt("fault_comm_deadline_ms", INT)?,
            report_every: f.or("report_every", COUNT, 0)?,
            imbalance_report: f.or("imbalance_report", FLAG, false)?,
            profile_report: f.or("profile_report", FLAG, false)?,
            prom_dump: f.opt("prom_dump", TEXT)?,
        })
    }
}

/// Why a run could not start or finish. Variants map to distinct `dpmd`
/// exit codes so scripts can tell a bad deck from a fault-tolerance
/// failure without parsing stderr.
#[derive(Debug)]
pub enum AppError {
    /// The input deck is malformed or internally inconsistent (exit 2).
    Deck(String),
    /// A file could not be read or written (exit 3).
    Io(String),
    /// A checkpoint could not be loaded, or does not fit the deck (exit 4).
    Ckpt(String),
    /// The supervised parallel run failed for good — rank failure with no
    /// checkpointing, unrecoverable checkpoints, or retries exhausted
    /// (exit 5). An invariant-audit failure ([`RunError::Audit`]) is its
    /// own class: exit 6, because it means the run's physics can no longer
    /// be trusted, not merely that a resource died.
    Fault(RunError),
    /// Any other runtime failure (exit 1).
    Run(String),
}

impl AppError {
    /// The process exit code `dpmd` reports for this failure class.
    pub fn exit_code(&self) -> i32 {
        match self {
            AppError::Deck(_) => 2,
            AppError::Io(_) => 3,
            AppError::Ckpt(_) => 4,
            AppError::Fault(RunError::Audit { .. }) => 6,
            AppError::Fault(_) => 5,
            AppError::Run(_) => 1,
        }
    }
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Deck(msg) | AppError::Io(msg) | AppError::Ckpt(msg) | AppError::Run(msg) => {
                write!(f, "{msg}")
            }
            AppError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AppError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AppError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct RunSummary {
    pub thermo: Vec<ThermoSample>,
    pub final_system: System,
    pub potential_name: &'static str,
    /// Failed epochs the parallel supervisor recovered from via global
    /// checkpoint reload (0 for serial runs and clean parallel runs).
    pub recoveries: usize,
    /// §7.3 cross-rank phase breakdown with achieved and (when the system
    /// has a paper calibration) modeled GFLOPS columns. `None` for serial
    /// runs.
    pub imbalance: Option<ImbalanceReport>,
}

pub(crate) fn build_system(spec: &SystemSpec) -> System {
    match *spec {
        SystemSpec::Fcc { a0, reps, mass } => lattice::fcc(a0, reps, mass),
        SystemSpec::Water {
            mols_per_axis,
            spacing,
        } => lattice::water_box(mols_per_axis, spacing),
    }
}

pub(crate) fn build_potential(spec: &PotentialSpec) -> Result<Box<dyn Potential>, AppError> {
    Ok(match spec {
        PotentialSpec::LennardJones { eps, sigma, rcut } => {
            Box::new(LennardJones::new(*eps, *sigma, *rcut))
        }
        PotentialSpec::SuttonChenCu { short } => Box::new(if *short {
            SuttonChen::copper_short()
        } else {
            SuttonChen::copper()
        }),
        PotentialSpec::WaterReference { rcut } => {
            Box::new(PairTable::water_reference().with_cutoff(*rcut))
        }
        PotentialSpec::DeepPotential {
            model,
            mixed_precision,
        } => {
            let mode = if *mixed_precision {
                PrecisionMode::Mixed
            } else {
                PrecisionMode::Double
            };
            Box::new(DeepPotential::new(deck::load_model(model)?, mode))
        }
    })
}

/// Species labels for trajectory output.
fn type_names(spec: &SystemSpec) -> Vec<&'static str> {
    match spec {
        SystemSpec::Fcc { .. } => vec!["Cu"],
        SystemSpec::Water { .. } => vec!["O", "H"],
    }
}

/// Scan an existing extended-XYZ trajectory for the highest `step=N`
/// comment, so an appending resume never duplicates a frame.
fn last_trajectory_step(path: &str) -> Option<usize> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .filter_map(|line| {
            let at = line.rfind("step=")?;
            line[at + "step=".len()..]
                .split_whitespace()
                .next()?
                .parse::<usize>()
                .ok()
        })
        .max()
}

/// Assemble the deterministic fault plan from the deck's `fault_*` keys;
/// `None` when no fault key is set (the hot path stays branch-free).
fn build_fault_plan(cfg: &AppConfig, grid: [usize; 3]) -> Result<Option<FaultPlan>, AppError> {
    let n_ranks = grid[0] * grid[1] * grid[2];
    let mut plan = FaultPlan::default();
    let in_grid = |key: &str, rank: usize| {
        if rank < n_ranks {
            return Ok(());
        }
        Err(AppError::Deck(format!(
            "{key} rank {rank} is out of range for grid {grid:?} ({n_ranks} ranks)"
        )))
    };
    match (cfg.fault_kill_rank, cfg.fault_kill_step) {
        (None, None) => {}
        (Some(rank), Some(step)) => {
            in_grid("fault_kill_rank", rank)?;
            plan.kills.push(KillSpec {
                rank,
                step,
                every_epoch: cfg.fault_kill_every_epoch,
            });
        }
        _ => {
            return Err(AppError::Deck(
                "fault_kill_rank and fault_kill_step must be set together".into(),
            ))
        }
    }
    if let Some([rank, step]) = cfg.fault_break_invariant {
        in_grid("fault_break_invariant", rank)?;
        plan.break_invariant = Some(BreakInvariant { rank, step });
    }
    let sections = [
        ("fault_chaos", &cfg.fault_chaos),
        ("chaos_soak", &cfg.chaos_soak),
    ];
    for (key, spec) in sections {
        let Some(spec) = spec else { continue };
        let expanded = expand_chaos(spec, n_ranks, cfg.run.steps, cfg.run.checkpoint_every)
            .map_err(|e| AppError::Deck(format!("{key}: {e}")))?;
        plan.kills.extend(expanded.kills);
        plan.drops.extend(expanded.drops);
        plan.delays.extend(expanded.delays);
        plan.torn_shards.extend(expanded.torn_shards);
    }
    Ok((!plan.is_empty()).then_some(plan))
}

fn any_fault_key(cfg: &AppConfig) -> bool {
    cfg.fault_kill_rank.is_some()
        || cfg.fault_kill_step.is_some()
        || cfg.fault_chaos.is_some()
        || cfg.chaos_soak.is_some()
        || cfg.fault_break_invariant.is_some()
}

/// Run the deck; `log` receives one line per thermo sample.
pub fn run(cfg: &AppConfig, mut log: impl FnMut(&str)) -> Result<RunSummary, AppError> {
    cfg.run.validate(cfg.resume.as_deref())?;
    let pot = build_potential(&cfg.potential)?;
    if cfg.grid.is_none() && any_fault_key(cfg) {
        return Err(AppError::Deck(
            "fault_* keys require a parallel run: set \"grid\": [nx, ny, nz]".into(),
        ));
    }
    if cfg.grid.is_none() && (cfg.report_every > 0 || cfg.imbalance_report || cfg.profile_report) {
        return Err(AppError::Deck(
            "report_every/imbalance_report/profile_report require a parallel run: \
             set \"grid\": [nx, ny, nz]"
                .into(),
        ));
    }
    if cfg.grid.is_none() && (cfg.checkpoint_shards || cfg.audit_every > 0) {
        return Err(AppError::Deck(
            "checkpoint_shards/audit_every require a parallel run: set \"grid\": [nx, ny, nz]"
                .into(),
        ));
    }
    if cfg.checkpoint_shards && cfg.run.checkpoint_every == 0 {
        return Err(AppError::Deck(
            "checkpoint_shards is set but checkpoint_every is 0 (no checkpoints to shard)".into(),
        ));
    }

    // Fresh start, or restore atoms + step counter + RNG position from the
    // newest valid checkpoint generation.
    let (mut sys, progress) = match &cfg.resume {
        Some(path) => {
            let rot = Rotation::new(path, cfg.run.checkpoint_keep);
            let (snap, from) = MdCheckpoint::load(&rot)
                .map_err(|e| AppError::Ckpt(format!("cannot resume from {path}: {e}")))?;
            log(&format!(
                "resuming from {} (step {}, {} atoms)",
                from.display(),
                snap.progress.step,
                snap.positions.len()
            ));
            snap.restore()
        }
        None => {
            let mut sys = build_system(&cfg.run.system);
            let mut rng = CounterRng::new(cfg.run.seed);
            sys.init_velocities(cfg.temperature, &mut rng);
            (sys, MdProgress::default())
        }
    };
    if progress.step > cfg.run.steps {
        return Err(AppError::Ckpt(format!(
            "checkpoint is at step {}, but the deck only runs to step {}",
            progress.step, cfg.run.steps
        )));
    }

    let opts = MdOptions {
        dt: cfg.run.dt_fs * 1e-3,
        skin: deck::skin(&sys, pot.cutoff(), "potential")?,
        thermostat: cfg.run.thermostat(&["berendsen"])?.map(|_| Berendsen {
            target_t: cfg.temperature,
            tau: 0.1,
        }),
        thermo_every: cfg.run.thermo_every,
        ..MdOptions::default()
    };

    // A resume APPENDS to an existing trajectory instead of truncating it,
    // and a step-number guard skips any frame the interrupted run already
    // wrote (the newest checkpoint can be older than the newest frame).
    let mut last_frame_step: Option<usize> = None;
    let mut traj = match &cfg.trajectory {
        Some(path) => {
            let file = if cfg.resume.is_some() {
                last_frame_step = last_trajectory_step(path);
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
            } else {
                std::fs::File::create(path)
            };
            Some(file.map_err(|e| AppError::Io(format!("cannot open {path}: {e}")))?)
        }
        None => None,
    };
    let names = type_names(&cfg.run.system);

    // Checkpoints write to `checkpoint_path`, or continue the rotation
    // being resumed from when only `resume` is given.
    let rotation = cfg
        .run
        .checkpoint_base(cfg.resume.as_deref())?
        .map(|base| Rotation::new(base, cfg.run.checkpoint_keep));

    log(&format!(
        "dpmd: {} atoms, potential {}, dt {} fs, steps {}..{}",
        sys.len(),
        pot.name(),
        cfg.run.dt_fs,
        progress.step,
        cfg.run.steps
    ));

    let metrics = cfg.run.metrics_path.as_deref();
    let trace = cfg.trace_path.as_deref();
    obs_start(metrics, trace)?;

    // The simulation proper, serial or supervised-parallel.
    let result: Result<RunSummary, AppError> = if let Some(grid) = cfg.grid {
        run_parallel_deck(
            cfg,
            &sys,
            pot,
            &opts,
            grid,
            progress,
            rotation,
            traj.as_mut(),
            &mut last_frame_step,
            &names,
            &mut log,
        )
    } else {
        run_serial_deck(
            cfg,
            &mut sys,
            pot,
            &opts,
            progress,
            rotation,
            traj.as_mut(),
            &mut last_frame_step,
            &names,
            &mut log,
        )
    };

    // The Prometheus snapshot and the obs teardown still run after a failed
    // run — a fault drill's counters and metrics are the interesting part —
    // but their errors never mask the run's own. (Counters are always on,
    // so the dump is useful for un-instrumented runs too.)
    let prom = write_prom_dump(cfg, &mut log);
    let teardown = obs_finish(metrics, trace, &mut log);
    let summary = result?;
    teardown?;
    prom?;
    Ok(summary)
}

/// Start what the deck's observability keys ask for — the `metrics_path`
/// JSONL sink, the `trace_path` recording, span collection — and nothing
/// when neither is set, so plain runs keep the near-free disabled path.
pub(crate) fn obs_start(metrics: Option<&str>, trace: Option<&str>) -> Result<(), AppError> {
    if let Some(path) = metrics {
        dp_obs::metrics::install(path)
            .map_err(|e| AppError::Io(format!("cannot open metrics file {path}: {e}")))?;
    }
    if trace.is_some() {
        dp_obs::trace::start_recording(dp_obs::trace::DEFAULT_CAPACITY);
    }
    if metrics.or(trace).is_some() {
        dp_obs::enable();
    }
    Ok(())
}

/// Undo [`obs_start`]: stop span collection, write the trace, flush and
/// close the metrics sink.
pub(crate) fn obs_finish(
    metrics: Option<&str>,
    trace: Option<&str>,
    log: &mut impl FnMut(&str),
) -> Result<(), AppError> {
    if metrics.or(trace).is_some() {
        dp_obs::disable();
    }
    if let Some(path) = trace {
        let dropped = dp_obs::trace::dropped_events();
        let events = dp_obs::trace::stop_recording();
        dp_obs::trace::write_chrome_trace(path, &events)
            .map_err(|e| AppError::Io(format!("cannot write trace {path}: {e}")))?;
        let note = match dropped {
            0 => String::new(),
            n => format!(" ({n} oldest dropped)"),
        };
        log(&format!("trace: {} events -> {path}{note}", events.len()));
    }
    match metrics.and_then(|_| dp_obs::metrics::uninstall()) {
        Some(Err(e)) => Err(AppError::Io(format!("metrics write failed: {e}"))),
        _ => Ok(()),
    }
}

fn write_prom_dump(cfg: &AppConfig, log: &mut impl FnMut(&str)) -> Result<(), AppError> {
    let Some(path) = &cfg.prom_dump else {
        return Ok(());
    };
    std::fs::write(path, dp_obs::prom::render())
        .map_err(|e| AppError::Io(format!("cannot write prom dump {path}: {e}")))?;
    log(&format!("prom: text-format snapshot -> {path}"));
    Ok(())
}

fn write_frame_dedup(
    f: &mut std::fs::File,
    sys: &System,
    names: &[&str],
    step: usize,
    last: &mut Option<usize>,
) -> std::io::Result<()> {
    if last.is_some_and(|l| step <= l) {
        return Ok(());
    }
    dp_md::xyz::write_frame(f, sys, names, &format!("step={step}"))?;
    f.flush().ok();
    *last = Some(step);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_serial_deck(
    cfg: &AppConfig,
    sys: &mut System,
    pot: Box<dyn Potential>,
    opts: &MdOptions,
    progress: MdProgress,
    rotation: Option<Rotation>,
    mut traj: Option<&mut std::fs::File>,
    last_frame_step: &mut Option<usize>,
    names: &[&'static str],
    log: &mut impl FnMut(&str),
) -> Result<RunSummary, AppError> {
    let mut io_error: Option<String> = None;
    let mut save = |sys: &System, p: MdProgress| {
        if let Some(rot) = &rotation {
            let snap = MdCheckpoint::capture(sys, p);
            if let Err(e) = snap.save(rot) {
                eprintln!(
                    "warning: checkpoint write at step {} failed ({e}); run continues",
                    p.step
                );
            }
        }
        if let Some(f) = traj.as_deref_mut() {
            if let Err(e) = write_frame_dedup(f, sys, names, p.step, last_frame_step) {
                io_error.get_or_insert(format!("trajectory write failed: {e}"));
            }
        }
    };
    let sink = (cfg.run.checkpoint_every > 0).then_some(CheckpointSink {
        every: cfg.run.checkpoint_every,
        save: &mut save,
    });

    let run_result = run_md_resumable(
        sys,
        pot.as_ref(),
        opts,
        cfg.run.steps,
        progress,
        |_| {},
        sink,
    );

    if let Some(e) = io_error {
        return Err(AppError::Io(e));
    }
    for s in &run_result.thermo {
        log(&format!(
            "step {:6}  PE {:+.4} eV  KE {:.4} eV  T {:6.1} K  P {:+.0} bar",
            s.step, s.potential_energy, s.kinetic_energy, s.temperature, s.pressure
        ));
    }
    if let Some(f) = traj {
        write_frame_dedup(f, sys, names, cfg.run.steps, last_frame_step)
            .map_err(|e| AppError::Io(format!("trajectory write failed: {e}")))?;
    }
    log(&format!(
        "done: {} evaluations, {} neighbor rebuilds, loop {:?} ({:.2e} s/step/atom)",
        run_result.evaluations,
        run_result.neighbor_rebuilds,
        run_result.loop_time,
        run_result.time_to_solution(sys.len())
    ));

    Ok(RunSummary {
        thermo: run_result.thermo,
        final_system: sys.clone(),
        potential_name: pot.name(),
        recoveries: 0,
        imbalance: None,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_parallel_deck(
    cfg: &AppConfig,
    sys: &System,
    pot: Box<dyn Potential>,
    opts: &MdOptions,
    grid: [usize; 3],
    progress: MdProgress,
    rotation: Option<Rotation>,
    traj: Option<&mut std::fs::File>,
    last_frame_step: &mut Option<usize>,
    names: &[&'static str],
    log: &mut impl FnMut(&str),
) -> Result<RunSummary, AppError> {
    let faults = build_fault_plan(cfg, grid)?;
    // A chaos schedule may carry more faults than the deck's default retry
    // budget; grow the budget to cover the whole schedule so "chaos with N
    // faults" never fails just because N > fault_max_retries.
    let max_recoveries = faults.as_ref().map_or(cfg.fault_max_retries, |p| {
        cfg.fault_max_retries.max(p.max_failures())
    });
    // Localized respawns get the same treatment: the default budget, grown
    // to cover every scheduled kill so a soak never fails on budget alone.
    let defaults = ParallelOptions::default();
    let max_local_recoveries = faults.as_ref().map_or(defaults.max_local_recoveries, |p| {
        defaults.max_local_recoveries.max(p.max_failures())
    });
    // chaos_soak supplies the audit stride unless the deck sets one itself.
    let audit_every = if cfg.audit_every > 0 {
        cfg.audit_every
    } else {
        cfg.chaos_soak.as_ref().map_or(0, |s| s.audit_every)
    };
    let popts = ParallelOptions {
        md: *opts,
        start_step: progress.step,
        start_rng_draws: progress.rng_draws,
        checkpoint: rotation.map(|rotation| ParallelCkpt {
            every: cfg.run.checkpoint_every,
            rotation,
            shards: cfg.checkpoint_shards,
        }),
        faults,
        max_recoveries,
        max_local_recoveries,
        audit_every,
        comm_deadline: cfg
            .fault_comm_deadline_ms
            .map_or(dp_parallel::DEFAULT_DEADLINE, Duration::from_millis),
        report_every: cfg.report_every,
    };
    let name = pot.name();
    let pot: Arc<dyn Potential> = Arc::from(pot);
    let n_steps = cfg.run.steps - progress.step;
    let run = run_parallel_md(sys, pot, grid, &popts, n_steps).map_err(|e| match e {
        RunError::Config(msg) => AppError::Deck(msg),
        other => AppError::Fault(other),
    })?;

    for s in &run.thermo {
        log(&format!(
            "step {:6}  PE {:+.4} eV  KE {:.4} eV  T {:6.1} K  P {:+.0} bar",
            s.step, s.potential_energy, s.kinetic_energy, s.temperature, s.pressure
        ));
    }
    if run.local_recoveries > 0 {
        log(&format!(
            "recovered {} dead rank(s) in place via localized respawn (no global reload)",
            run.local_recoveries
        ));
    }
    if run.recoveries > 0 {
        let from: Vec<String> = run
            .recovered_from
            .iter()
            .map(|p| p.display().to_string())
            .collect();
        log(&format!(
            "recovered from {} failed epoch(s) via checkpoint reload ({})",
            run.recoveries,
            from.join(", ")
        ));
    }
    if let Some(f) = traj {
        write_frame_dedup(f, &run.system, names, cfg.run.steps, last_frame_step)
            .map_err(|e| AppError::Io(format!("trajectory write failed: {e}")))?;
    }
    log(&format!(
        "done: {} ranks, {} reductions, loop {:?} ({:.2e} s/step/atom)",
        run.rank_stats.len(),
        run.reduce_operations,
        run.loop_time,
        run.time_to_solution(run.system.len())
    ));

    // §7.3 analyzer output: attach the perfmodel's modeled-GFLOPS column
    // (the rate the paper's per-atom work estimate would demand of the
    // same compute window), emit the summary into the metrics stream,
    // and print the breakdown table when the deck asks for it.
    let mut imbalance = run.imbalance.clone();
    let model = match &cfg.run.system {
        SystemSpec::Water { .. } => SystemModel::by_name("water"),
        SystemSpec::Fcc { .. } => SystemModel::by_name("copper"),
    };
    let window_steps = imbalance.steps as f64;
    if let (Some(m), Some(p)) = (model.as_ref(), imbalance.phase_mut("compute")) {
        if p.mean_s > 0.0 {
            p.modeled_gflops = Some(m.step_flops(run.system.len()) * window_steps / p.mean_s / 1e9);
        }
    }
    if dp_obs::metrics::active() {
        dp_obs::metrics::emit_line(&imbalance.to_json("imbalance", None));
    }
    if cfg.imbalance_report {
        for line in imbalance.to_table().lines() {
            log(line);
        }
    }

    // Roofline attribution: place each phase's achieved rate against the
    // paper's V100 roofline (§6.3 / Fig. 3). Compute gets the FLOP counter
    // and the perfmodel's per-atom traffic estimate; comm gets the ghost
    // stream (3 f64 coordinates per forwarded atom); wait moves nothing.
    let device = Roofline::v100();
    let ghost_bytes: u64 = run.rank_stats.iter().map(|s| s.ghost_atoms_sent * 24).sum();
    let mut rows = Vec::new();
    for p in &imbalance.phases {
        let (flops, bytes) = match p.name {
            "compute" => (
                run.flops,
                model.as_ref().map_or(0, |m| {
                    (m.bytes_per_atom() * run.system.len() as f64 * window_steps) as u64
                }),
            ),
            "comm" => (0, ghost_bytes),
            _ => (0, 0),
        };
        let mut row = RooflineRow::from_attribution(p.name, p.mean_s, flops, bytes);
        row.modeled_gflops = p.modeled_gflops;
        if let Some(ai) = row.arithmetic_intensity {
            row.attainable_gflops = Some(device.attainable_gflops(ai));
            row.bound = device.bound(ai);
        }
        rows.push(row);
    }
    let roofline = RooflineReport { rows };
    if dp_obs::metrics::active() {
        for r in &roofline.rows {
            dp_obs::metrics::emit_line(&r.to_json());
        }
    }
    for r in &roofline.rows {
        dp_obs::prom::publish_gauge(
            "roofline.achieved_gflops",
            &[("phase", r.phase)],
            r.achieved_gflops,
        );
        if let Some(att) = r.attainable_gflops {
            dp_obs::prom::publish_gauge("roofline.attainable_gflops", &[("phase", r.phase)], att);
        }
    }
    if cfg.profile_report {
        for line in roofline.to_table().lines() {
            log(line);
        }
    }

    let recovery_tier = match (run.recoveries, run.local_recoveries) {
        (0, 0) => "none",
        (0, _) => "local",
        _ => "global",
    };
    if dp_obs::metrics::active() {
        dp_obs::metrics::emit_line(&format!(
            "{{\"event\":\"recovery_summary\",\"tier\":\"{recovery_tier}\",\"local\":{},\"global\":{}}}",
            run.local_recoveries, run.recoveries
        ));
    }
    Ok(RunSummary {
        thermo: run.thermo,
        final_system: run.system,
        potential_name: name,
        recoveries: run.recoveries,
        imbalance: Some(imbalance),
    })
}

/// Parse an MD input deck (see [`crate::deck`] for the rules). Unknown
/// keys, missing keys and type mismatches name the offending key path.
pub fn parse_config(text: &str) -> Result<AppConfig, AppError> {
    match deck::parse(text)? {
        deck::Deck::Md(cfg) => Ok(cfg),
        deck::Deck::Ensemble(_) => Err(AppError::Deck(
            "this is an ensemble deck (it has a \"replicas\" key): run it with `dpmd ensemble`"
                .into(),
        )),
    }
}
