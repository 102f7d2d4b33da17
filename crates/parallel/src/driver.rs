//! The parallel Velocity–Verlet driver with supervised fault recovery.
//!
//! One OS thread per rank; each step performs the LAMMPS communication
//! cycle the paper inherits (§5.4): forward ghost refresh → force
//! evaluation → reverse force communication → (optionally deferred)
//! global reductions. Neighbor-list rebuild decisions are collective, so
//! the message schedule is identical on every rank.
//!
//! # Supervision
//!
//! [`run_parallel_md`] is an *epoch loop*. Each epoch scatters the current
//! state onto the rank grid and runs the rank threads under
//! `catch_unwind`. A rank that dies (injected fault, panic, or a
//! [`CommError`] from a dead peer) poisons the reduction barriers and
//! drops its mesh endpoints on the way out, so every surviving rank
//! unwinds with a typed error within the comm deadline instead of
//! deadlocking. The supervisor then reloads the newest *valid* checkpoint
//! generation (the rotation steps over torn or corrupted ones), rebuilds
//! the mesh, and resumes — bounded by `max_recoveries`, after which a
//! typed [`RunError`] surfaces.
//!
//! # Bit-exact recovery
//!
//! A recovered run must be indistinguishable from an uninterrupted one.
//! Three mechanisms make that literal, to the last float bit:
//!
//! * [`Allreduce`] folds per-rank slots in rank order, so global sums
//!   don't depend on thread arrival order;
//! * after every checkpoint gather the ranks *realign*: migrate (forces
//!   ride along), sort locals by global atom id, and re-exchange — exactly
//!   the state a restart reconstructs by scattering the checkpoint;
//! * a resumed epoch reuses the checkpointed forces instead of
//!   re-evaluating them, and all schedules (thermo, rebuild, checkpoint)
//!   are keyed on the absolute step number.
//!
//! # Per-rank observability
//!
//! Each epoch creates one `dp_obs` [`Registry`] per rank and installs it
//! thread-locally in the rank thread: spans, latency histograms
//! (`comm.send_ns`, `comm.recv_wait_ns`, `comm.reduce_wait_ns`,
//! `comm.ghost_bytes`, `step_wall_ns`) and trace events land in per-rank
//! tables tagged with the rank id. After every epoch — clean or failed —
//! the supervisor merges the rank trace lanes into the global recording
//! (each rank is its own chrome-trace `tid`) and emits per-rank histogram
//! summary lines into the metrics stream. `report_every` adds a live
//! §7.3 heartbeat; the final [`ParallelRun::imbalance`] report breaks the
//! run into compute/comm/wait across ranks.

use crate::comm::{lock, Allreduce, CkptAtom, CommError, Msg, RankComm};
use crate::fault::{self, FaultPlan, FaultState};
use crate::grid::DomainGrid;
use crate::halo::{
    add_reverse_forces, exchange, forward_comm, migrate, reverse_comm, RankState,
};
use crate::shard::RankShard;
use dp_ckpt::{CkptError, Rotation, ShardSet};
use dp_md::checkpoint::MdCheckpoint;
use dp_md::integrate::{self, MdOptions, MdProgress, ThermoSample};
use dp_md::{units, NeighborList, NlScratch, Potential, PotentialOutput, System};
use dp_obs::{ImbalanceReport, Registry};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Periodic global checkpointing for a parallel run. Every `every` steps
/// each rank ships its locally-owned atoms to rank 0, which assembles the
/// global state in original atom order and writes it into the rotation —
/// the thread-mesh analogue of LAMMPS `restart N file` (§5.4). Because the
/// checkpoint is global and owner-order-free, a run restarted from it may
/// use a different rank grid than the one that wrote it.
#[derive(Debug, Clone)]
pub struct ParallelCkpt {
    /// Steps between checkpoints (0 disables).
    pub every: usize,
    /// Rotation the gathered snapshots are written into (by rank 0).
    pub rotation: Rotation,
    /// Also write one per-rank domain shard (`<base>.rank<r>`) at every
    /// checkpoint step. Shards enable the *localized* recovery tier: a
    /// single dead rank is respawned from its own shard while the
    /// survivors rewind in memory, instead of tearing the whole epoch
    /// down and reloading the global checkpoint.
    pub shards: bool,
}

/// Options for a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    pub md: MdOptions,
    /// `true`: allreduce thermodynamic output every step (the baseline
    /// behaviour whose implicit barrier the paper works around);
    /// `false`: reduce only on output steps (reduced output frequency +
    /// `MPI_Iallreduce`, §5.4).
    pub blocking_reduce: bool,
    /// Absolute step number of the input state. Thermo samples and
    /// checkpoints are labelled with absolute steps, so a resumed run
    /// continues the original numbering instead of restarting at zero.
    pub start_step: usize,
    /// RNG draws already consumed by the trajectory being resumed. The
    /// parallel loop draws no random numbers itself, so this is carried
    /// through unchanged into every checkpoint it writes — a restart that
    /// hands the state back to a serial Langevin run continues the
    /// identical random stream.
    pub start_rng_draws: u64,
    /// Optional periodic global checkpointing.
    pub checkpoint: Option<ParallelCkpt>,
    /// Deterministic faults to inject (tests and chaos drills); `None`
    /// costs one branch per step.
    pub faults: Option<FaultPlan>,
    /// How many failed epochs the supervisor may recover from before
    /// giving up with [`RunError::RetriesExhausted`].
    pub max_recoveries: usize,
    /// Deadline for point-to-point receives and reductions; a rank that
    /// hears nothing for this long declares the peer dead.
    pub comm_deadline: Duration,
    /// Live load-balance heartbeat stride: every `report_every` steps the
    /// ranks gather their per-phase time deltas (an extra width-4
    /// allgather on the same collective schedule) and rank 0 prints a
    /// one-line §7.3-style breakdown, also emitted into the metrics
    /// stream as an `imbalance_heartbeat` event. 0 disables (default).
    pub report_every: usize,
    /// How many localized (shard-based, in-epoch) recoveries the
    /// supervisor may perform per epoch before escalating to a global
    /// checkpoint reload. Only meaningful with [`ParallelCkpt::shards`].
    pub max_local_recoveries: usize,
    /// Invariant-audit stride: every `audit_every` steps the ranks run a
    /// collective conservation audit (atom-count conservation across
    /// migrate/re-scatter, ghost/owner consistency, monotone and uniform
    /// step counters, seq-gap-free comm) over a dedicated allreduce. A
    /// violation fails the run fast with a typed [`RunError::Audit`] —
    /// it is evidence of corruption, so it is deliberately *not*
    /// recoverable. 0 disables (default).
    pub audit_every: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            md: MdOptions::default(),
            blocking_reduce: false,
            start_step: 0,
            start_rng_draws: 0,
            checkpoint: None,
            faults: None,
            max_recoveries: 2,
            comm_deadline: crate::comm::DEFAULT_DEADLINE,
            report_every: 0,
            max_local_recoveries: 8,
            audit_every: 0,
        }
    }
}

/// A conservation-class invariant the periodic auditor found violated.
/// Carried through [`RunError::Audit`]; an audit failure means the live
/// state can no longer be trusted, so the supervisor fails fast instead
/// of recovering over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFailure {
    /// Rank that detected the violation (every rank sees the same
    /// reduced totals, so this is simply the first reporter).
    pub rank: usize,
    /// Absolute step of the audit.
    pub step: usize,
    /// Which invariant failed (`atom_count`, `ghost_owner`,
    /// `step_monotone`, `step_uniform`, `seq_gap`).
    pub check: &'static str,
    pub detail: String,
}

impl std::fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant audit '{}' failed on rank {} at step {}: {}",
            self.check, self.rank, self.step, self.detail
        )
    }
}

/// Why a supervised parallel run failed for good.
#[derive(Debug)]
pub enum RunError {
    /// The run configuration is invalid (bad grid, halo too large, ...).
    Config(String),
    /// A rank failed and no checkpointing was configured, so there is
    /// nothing to recover from.
    RankFailure { failure: String },
    /// A rank failed and reloading a checkpoint for recovery also failed
    /// (no valid generation, or the snapshot is outside the run window).
    Recovery { failure: String, source: CkptError },
    /// The supervisor recovered `attempts` times and the run still failed.
    RetriesExhausted { attempts: usize, last: String },
    /// The periodic invariant auditor found a conservation-class
    /// violation. Never recovered from: corrupted state must not be
    /// checkpointed over.
    Audit { failure: AuditFailure },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(msg) => write!(f, "invalid parallel configuration: {msg}"),
            RunError::RankFailure { failure } => {
                write!(f, "{failure}; no checkpointing configured, cannot recover")
            }
            RunError::Recovery { failure, source } => {
                write!(f, "{failure}; recovery failed: {source}")
            }
            RunError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "retries exhausted after {attempts} recoveries; last failure: {last}"
                )
            }
            RunError::Audit { failure } => write!(f, "{failure}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Recovery { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Per-rank communication/computation statistics (Table 4 columns).
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    pub rank: usize,
    pub final_local: usize,
    /// Ghost count at the last exchange.
    pub last_ghosts: usize,
    pub max_ghosts: usize,
    pub ghost_atoms_sent: u64,
    pub rebuilds: usize,
    pub compute_time: Duration,
    pub comm_time: Duration,
    pub reduce_time: Duration,
    /// Neighbor-list (re)build time. Not part of the three-phase
    /// imbalance taxonomy (it rides inside the step between comm and
    /// compute) but broken out for the flight recorder's step records.
    pub neigh_time: Duration,
    /// Checkpoint/shard I/O time. Also accumulated into `comm_time`
    /// (the §7.3 imbalance taxonomy folds I/O into comm), so subtract
    /// when a disjoint breakdown is needed.
    pub io_time: Duration,
    /// Invariant audits this rank completed successfully.
    pub audits_passed: usize,
}

/// Result of a parallel run.
#[derive(Debug)]
pub struct ParallelRun {
    pub thermo: Vec<ThermoSample>,
    pub steps: usize,
    pub loop_time: Duration,
    pub rank_stats: Vec<RankStats>,
    /// Final state gathered across ranks, in original atom order.
    pub system: System,
    /// Completed thermo reductions (allreduce traffic indicator).
    pub reduce_operations: u64,
    /// Epochs the supervisor recovered from via a *global* checkpoint
    /// reload (0 for a clean run).
    pub recoveries: usize,
    /// Rank deaths the supervisor absorbed *inside* an epoch by
    /// respawning the dead rank from its per-rank shard while the
    /// survivors rewound in memory (the localized recovery tier).
    pub local_recoveries: usize,
    /// Checkpoint generation each recovery reloaded, in order. A path
    /// with a `.1`/`.2` suffix means the newest generation was unusable
    /// and the rotation fell back.
    pub recovered_from: Vec<PathBuf>,
    /// §7.3 cross-rank phase breakdown (compute/comm/wait) for the final
    /// clean epoch. The compute row carries the achieved GFLOPS rate; the
    /// modeled column is left for the caller to fill from `dp-perfmodel`.
    pub imbalance: ImbalanceReport,
    /// FLOPs the final clean epoch performed (the `"flops"` counter delta
    /// over that epoch — consistent with the window `imbalance` covers).
    pub flops: u64,
}

impl ParallelRun {
    pub fn time_to_solution(&self, n_atoms: usize) -> f64 {
        self.loop_time.as_secs_f64() / self.steps.max(1) as f64 / n_atoms as f64
    }
}

/// What one rank thread produced, successful or not.
struct RankOutcome {
    rank: usize,
    state: RankState,
    stats: RankStats,
    /// Thermo samples recorded before any failure. Every sample here went
    /// through a completed (hence globally identical) reduction, so any
    /// rank's vector is a prefix of the true sequence.
    thermo: Vec<ThermoSample>,
    failure: Option<String>,
}

struct EpochOutcome {
    outcomes: Vec<RankOutcome>,
    reduce_operations: u64,
    wall: Duration,
    /// Per-rank observability registries the rank threads recorded into
    /// (spans, latency histograms, trace lanes), indexed by rank.
    registries: Vec<Arc<Registry>>,
    /// Rank deaths absorbed inside this epoch via localized respawn.
    local_recoveries: usize,
    /// First invariant-audit violation, if the epoch died to one.
    audit: Option<AuditFailure>,
}

impl EpochOutcome {
    fn failure(&self) -> Option<&str> {
        let failures = || self.outcomes.iter().filter_map(|o| o.failure.as_deref());
        // "peer rank N failed" is a cascade: a survivor noticing someone
        // else's death. Diagnose with the root cause — the failing rank's
        // own report — and fall back to the cascade only if the dead
        // rank's thread never produced one.
        failures()
            .find(|f| !f.contains("peer rank"))
            .or_else(|| failures().next())
    }

    /// Longest recorded thermo prefix across ranks.
    fn best_thermo(&self) -> &[ThermoSample] {
        self.outcomes
            .iter()
            .map(|o| o.thermo.as_slice())
            .max_by_key(|t| t.len())
            .unwrap_or(&[])
    }

    fn last_step(&self, fallback: usize) -> usize {
        self.best_thermo().last().map_or(fallback, |s| s.step)
    }
}

/// Run MD to absolute step `opts.start_step + n_steps` under supervision.
/// The input system defines the initial state; the returned
/// [`ParallelRun::system`] carries the final one.
pub fn run_parallel_md(
    sys: &System,
    pot: Arc<dyn Potential>,
    grid_dims: [usize; 3],
    opts: &ParallelOptions,
    n_steps: usize,
) -> Result<ParallelRun, RunError> {
    if sys.n_local != sys.len() {
        return Err(RunError::Config("input must have no ghosts".into()));
    }
    if grid_dims.iter().any(|&d| d == 0) {
        return Err(RunError::Config(format!(
            "rank grid {grid_dims:?} has a zero dimension"
        )));
    }
    let grid = DomainGrid::new(sys.cell, grid_dims);
    let halo = pot.cutoff() + opts.md.skin;
    if halo > sys.cell.max_cutoff() {
        return Err(RunError::Config(format!(
            "halo {halo} exceeds minimum-image limit {}",
            sys.cell.max_cutoff()
        )));
    }
    if opts.md.langevin.is_some() {
        return Err(RunError::Config(
            "the Langevin thermostat is not available on a rank grid (Berendsen is)".into(),
        ));
    }
    let end_step = opts.start_step + n_steps;
    let faults = opts
        .faults
        .as_ref()
        .filter(|p| !p.is_empty())
        .map(|p| Arc::new(FaultState::new(p.clone(), grid.n_ranks())));

    // fresh flight-recorder rings: a dump from this run must never mix in
    // a previous run's history
    dp_obs::flight::reset();

    let start = Instant::now();
    let mut restored: Option<System> = None;
    let mut start_step = opts.start_step;
    let mut start_rng = opts.start_rng_draws;
    let mut accum: BTreeMap<usize, ThermoSample> = BTreeMap::new();
    let mut recoveries = 0usize;
    let mut local_recoveries = 0usize;
    let mut recovered_from: Vec<PathBuf> = Vec::new();
    let mut reduce_operations = 0u64;

    loop {
        let epoch_sys = restored.as_ref().unwrap_or(sys);
        let epoch_flops0 = dp_obs::counter("flops").get();
        let epoch = run_epoch(
            epoch_sys,
            &pot,
            &grid,
            opts,
            start_step,
            start_rng,
            end_step,
            halo,
            faults.clone(),
        );
        reduce_operations += epoch.reduce_operations;
        local_recoveries += epoch.local_recoveries;
        // publish per-rank trace lanes and histogram summaries for clean
        // AND failed epochs: a dying epoch's partial observability is
        // often the most interesting part of the run
        publish_epoch_obs(&epoch);
        let audits: usize = epoch
            .outcomes
            .iter()
            .map(|o| o.stats.audits_passed)
            .max()
            .unwrap_or(0);
        if audits > 0 {
            dp_obs::counter("audit.passed").add(audits as u64);
        }

        let Some(failure) = epoch.failure().map(String::from) else {
            // clean epoch: the run is complete
            if recoveries > 0 {
                dp_obs::counter("recovery.success").add(1);
            }
            if dp_obs::metrics::active() {
                dp_obs::metrics::record_step(end_step as u64, sys.len(), epoch.wall);
            }
            for s in epoch.best_thermo() {
                accum.insert(s.step, *s);
            }
            let mut positions = vec![[0.0; 3]; sys.len()];
            let mut velocities = vec![[0.0; 3]; sys.len()];
            let mut types = vec![0usize; sys.len()];
            let mut rank_stats = Vec::with_capacity(epoch.outcomes.len());
            for o in &epoch.outcomes {
                for (k, &id) in o.state.ids.iter().enumerate() {
                    let id = id as usize;
                    if id < sys.len() {
                        positions[id] = o.state.sys.positions[k];
                        velocities[id] = o.state.sys.velocities[k];
                        types[id] = o.state.sys.types[k];
                    }
                }
                rank_stats.push(o.stats.clone());
            }
            rank_stats.sort_by_key(|s| s.rank);
            let flops = dp_obs::counter("flops").get().saturating_sub(epoch_flops0);
            let imbalance = build_imbalance(
                &rank_stats,
                grid.n_ranks(),
                (end_step - start_step) as u64,
                flops,
            );
            let mut final_sys = System::new(sys.cell, positions, types, sys.masses.clone());
            final_sys.velocities = velocities;
            return Ok(ParallelRun {
                thermo: accum.into_values().collect(),
                steps: n_steps,
                loop_time: start.elapsed(),
                rank_stats,
                system: final_sys,
                reduce_operations,
                recoveries,
                local_recoveries,
                recovered_from,
                imbalance,
                flops,
            });
        };

        // failed epoch: count it, then try to recover
        dp_obs::counter("fault.detected").add(1);
        // an invariant-audit violation is evidence of state corruption:
        // fail fast with the typed report instead of recovering — a
        // checkpoint written after the violation cannot be trusted either
        if let Some(af) = epoch.audit.clone() {
            dp_obs::counter("audit.failed").add(1);
            emit_flight_lines(dp_obs::flight::dump("audit_failure"));
            record_failed_epoch_metrics(&epoch, start_step, sys.len());
            return Err(RunError::Audit { failure: af });
        }
        let Some(ck) = opts.checkpoint.as_ref().filter(|c| c.every > 0) else {
            emit_flight_lines(dp_obs::flight::dump("rank_failure"));
            record_failed_epoch_metrics(&epoch, start_step, sys.len());
            return Err(RunError::RankFailure { failure });
        };
        if recoveries >= opts.max_recoveries {
            emit_flight_lines(dp_obs::flight::dump("retries_exhausted"));
            record_failed_epoch_metrics(&epoch, start_step, sys.len());
            return Err(RunError::RetriesExhausted {
                attempts: recoveries,
                last: failure,
            });
        }
        dp_obs::counter("recovery.attempt").add(1);
        emit_flight_lines(dp_obs::flight::dump("recovery_escalation"));
        record_failed_epoch_metrics(&epoch, start_step, sys.len());
        recoveries += 1;

        let _span = dp_obs::span("recovery_reload");
        let reload_t0 = Instant::now();
        let (snap, from) = MdCheckpoint::load(&ck.rotation).map_err(|e| RunError::Recovery {
            failure: failure.clone(),
            source: e,
        })?;
        if snap.progress.step < opts.start_step || snap.progress.step > end_step {
            return Err(RunError::Recovery {
                failure,
                source: CkptError::Malformed(format!(
                    "checkpoint at step {} is outside the run window {}..{}",
                    snap.progress.step, opts.start_step, end_step
                )),
            });
        }
        if from != ck.rotation.slot_path(0) {
            dp_obs::counter("recovery.ckpt_fallback").add(1);
        }
        // Keep only samples at or before the reload point; the recovered
        // epoch regenerates everything after it (bit-identically).
        for s in epoch.best_thermo() {
            if s.step <= snap.progress.step {
                accum.insert(s.step, *s);
            }
        }
        let (sys2, progress) = snap.restore();
        restored = Some(sys2);
        start_step = progress.step;
        start_rng = progress.rng_draws;
        recovered_from.push(from);
        record_recovery_latency(reload_t0);
    }
}

/// Close out one recovery of either tier: its cost goes into the shared
/// `recovery.latency_us` histogram, so the tiers compare directly. The
/// supervisor is no rank, so the sample lands in the process-global table
/// (what Prometheus renders); only rank registries are summarised into
/// the `--metrics` stream, so the histogram's running summary is written
/// there from here, rank-less.
fn record_recovery_latency(t0: Instant) {
    if !dp_obs::enabled() {
        return;
    }
    let hist = dp_obs::hist::global("recovery.latency_us");
    hist.record(t0.elapsed().as_micros() as u64);
    if dp_obs::metrics::active() {
        dp_obs::metrics::emit_line(&format!(
            "{{\"event\":\"hist\",\"name\":\"recovery.latency_us\",{}}}",
            hist.snapshot().json_fields()
        ));
    }
}

/// Route flight-recorder JSONL lines to wherever this run's observability
/// goes: the metrics sink when one is installed (flushed immediately — a
/// dump usually precedes process death), stderr otherwise.
fn emit_flight_lines(lines: Vec<String>) {
    if lines.is_empty() {
        return;
    }
    if dp_obs::metrics::active() {
        for l in &lines {
            dp_obs::metrics::emit_line(l);
        }
        dp_obs::metrics::flush();
    } else {
        for l in &lines {
            eprintln!("{l}");
        }
    }
}

fn record_failed_epoch_metrics(epoch: &EpochOutcome, start_step: usize, n_atoms: usize) {
    if dp_obs::metrics::active() {
        dp_obs::metrics::record_step(epoch.last_step(start_step) as u64, n_atoms, epoch.wall);
        // The sink's writer is buffered and a failed epoch may be the
        // last thing this process does: flush so the fault/recovery
        // counters and the dying epoch's histogram rows reach disk even
        // if uninstall never runs.
        dp_obs::metrics::flush();
    }
}

/// Publish one epoch's per-rank observability: merge the rank trace lanes
/// into the global recording (each rank keeps its own `tid`), emit one
/// histogram-summary line per (rank, histogram) into the metrics stream
/// and publish the same snapshots as `rank`-labeled Prometheus series.
fn publish_epoch_obs(epoch: &EpochOutcome) {
    if dp_obs::trace::is_recording() {
        let (events, _dropped) = dp_obs::registry::merge_traces(&epoch.registries);
        dp_obs::trace::inject(events);
    }
    if !dp_obs::enabled() {
        return;
    }
    for reg in &epoch.registries {
        let rank = reg.tag().to_string();
        for (name, snap) in reg.hist_snapshots() {
            if snap.count == 0 {
                continue;
            }
            if dp_obs::metrics::active() {
                dp_obs::metrics::emit_line(&format!(
                    "{{\"event\":\"hist\",\"name\":\"{name}\",\"rank\":{rank},{}}}",
                    snap.json_fields()
                ));
            }
            // rank registries are not in the process-global table the
            // Prometheus renderer walks: publish them as labeled series
            // (a later epoch's snapshot replaces an earlier one's)
            dp_obs::prom::publish_hist(name, &[("rank", &rank)], snap);
        }
    }
}

/// Build the end-of-run §7.3 breakdown from the final epoch's rank stats.
/// The compute row gets the achieved aggregate GFLOPS (FLOPs over the
/// mean per-rank compute seconds); the modeled column stays `None` for
/// the caller to fill from `dp-perfmodel`.
fn build_imbalance(
    rank_stats: &[RankStats],
    n_ranks: usize,
    steps: u64,
    flops: u64,
) -> ImbalanceReport {
    let secs = |f: fn(&RankStats) -> Duration| -> Vec<f64> {
        rank_stats.iter().map(|s| f(s).as_secs_f64()).collect()
    };
    let mut report = ImbalanceReport::from_phase_times(
        n_ranks,
        steps,
        &[
            ("compute", secs(|s| s.compute_time)),
            ("comm", secs(|s| s.comm_time)),
            ("wait", secs(|s| s.reduce_time)),
        ],
    );
    if let Some(p) = report.phase_mut("compute") {
        if flops > 0 && p.mean_s > 0.0 {
            p.gflops = Some(flops as f64 / p.mean_s / 1e9);
        }
    }
    report
}

/// Why one `rank_loop` segment ended early.
#[derive(Debug)]
enum RankError {
    Comm(CommError),
    Audit(AuditFailure),
}

impl From<CommError> for RankError {
    fn from(e: CommError) -> Self {
        RankError::Comm(e)
    }
}

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::Comm(e) => write!(f, "{e}"),
            RankError::Audit(a) => write!(f, "{a}"),
        }
    }
}

/// Control events the rank threads send the in-epoch supervisor.
enum Ctl {
    /// This rank failed on its own (injected kill, panic, protocol
    /// violation, timeout, or an audit violation). Sent only when
    /// localized recovery is enabled; always followed by `Finished`.
    Dead {
        rank: usize,
        audit: Option<AuditFailure>,
        recoverable: bool,
    },
    /// A survivor noticed a peer death, dropped its mesh endpoints (so
    /// chain-blocked partners disconnect instead of timing out), and
    /// parked at the recovery barrier. `snap_step` labels its in-memory
    /// shard snapshot (`None` before the first checkpoint of the epoch).
    Paused { rank: usize, snap_step: Option<usize> },
    /// The thread is exiting for good.
    Finished(Box<RankOutcome>),
}

/// The barrier paused survivors park at while the supervisor decides
/// between localized respawn and escalation to the global tier.
struct Recovery {
    /// Localized recovery configured (checkpointing with shards on).
    enabled: bool,
    state: Mutex<RecoveryState>,
    cv: Condvar,
    /// How long a parked survivor waits for a directive before treating
    /// the recovery as failed and exiting with its cascade error.
    pause_deadline: Duration,
}

struct RecoveryState {
    /// Sticky: once the supervisor escalates, all present and future
    /// parkers exit instead of waiting.
    aborted: bool,
    resume_step: usize,
    /// Fresh mesh endpoints (one slot per rank) for the survivors; the
    /// dead rank's endpoint goes to the respawned thread directly.
    comms: Vec<Option<RankComm>>,
}

impl Recovery {
    fn new(enabled: bool, n_ranks: usize, pause_deadline: Duration) -> Self {
        Self {
            enabled,
            state: Mutex::new(RecoveryState {
                aborted: false,
                resume_step: 0,
                comms: (0..n_ranks).map(|_| None).collect(),
            }),
            cv: Condvar::new(),
            pause_deadline,
        }
    }

    /// Survivor side: park until the supervisor publishes a directive.
    /// Returns the fresh mesh endpoint and the step to rewind to, or
    /// `None` if the supervisor escalated (or never answered).
    fn await_directive(&self, rank: usize) -> Option<(RankComm, usize)> {
        // Wait on this rank's endpoint slot, not on a wakeup count: the
        // supervisor may publish between this rank's `Paused` message
        // and its arrival here, and that directive must not be missed.
        let (mut st, _) = self
            .cv
            .wait_timeout_while(lock(&self.state), self.pause_deadline, |s| {
                s.comms[rank].is_none() && !s.aborted
            })
            .unwrap_or_else(PoisonError::into_inner);
        if st.aborted {
            return None;
        }
        let step = st.resume_step;
        st.comms[rank].take().map(|c| (c, step))
    }

    /// Supervisor side: hand every survivor its fresh endpoint and wake
    /// them to rewind to `step`. Only sound at the quiescent barrier.
    fn resume(&self, step: usize, comms: Vec<Option<RankComm>>) {
        let mut st = lock(&self.state);
        st.resume_step = step;
        st.comms = comms;
        self.cv.notify_all();
    }

    /// Supervisor side: give up on localized recovery; parked survivors
    /// exit with their cascade errors and the epoch fails as a whole.
    fn abort(&self) {
        let mut st = lock(&self.state);
        st.aborted = true;
        self.cv.notify_all();
    }
}

/// Everything a rank thread needs besides its own mutable state; cloned
/// once per spawned thread (localized-recovery respawns included). All
/// referents live in `run_epoch`'s frame, which outlives the scope.
#[derive(Clone)]
struct RankCtx<'a> {
    grid: &'a DomainGrid,
    pot: &'a Arc<dyn Potential>,
    opts: &'a ParallelOptions,
    start_rng: u64,
    end_step: usize,
    halo: f64,
    /// Global atom count (the atom-count conservation target).
    n_atoms: usize,
    thermo_reduce: &'a Allreduce,
    flag_reduce: &'a Allreduce,
    stats_gather: &'a Allreduce,
    audit_reduce: &'a Allreduce,
    faults: Option<&'a FaultState>,
    shards: Option<&'a ShardSet>,
    recovery: &'a Recovery,
    ctl: Sender<Ctl>,
}

fn poison_all(ctx: &RankCtx<'_>, rank: usize) {
    ctx.thermo_reduce.poison(rank);
    ctx.flag_reduce.poison(rank);
    ctx.stats_gather.poison(rank);
    ctx.audit_reduce.poison(rank);
}

/// The body of one rank thread: run `rank_loop` segments until the epoch
/// completes or the rank dies for good. With localized recovery enabled,
/// a segment ending in a *cascade* error (a peer died) parks at the
/// recovery barrier; if the supervisor pulls off a localized respawn of
/// the dead rank, this thread rewinds to its in-memory shard snapshot,
/// takes a fresh mesh endpoint, and replays — bit-exactly, because the
/// snapshot is the realigned post-checkpoint state a restart would
/// scatter.
fn rank_thread(
    ctx: RankCtx<'_>,
    registry: Arc<Registry>,
    mut st: RankState,
    mut thermo: Vec<ThermoSample>,
    mut start_step: usize,
    comm: RankComm,
    mut snap: Option<RankShard>,
) {
    let rank = st.rank;
    let mut stats = RankStats {
        rank,
        ..RankStats::default()
    };
    let _obs_scope = dp_obs::scope(registry);
    let mut comm = Some(comm);
    let failure: Option<String> = loop {
        let Some(c) = comm.take() else {
            break Some(format!("rank {rank}: lost mesh endpoint"));
        };
        let res = catch_unwind(AssertUnwindSafe(|| {
            rank_loop(
                &mut st,
                &c,
                &ctx,
                start_step,
                &mut stats,
                &mut thermo,
                &mut snap,
            )
        }));
        let cascade = matches!(
            &res,
            Ok(Err(RankError::Comm(CommError::PeerFailed { .. })))
        );
        match res {
            Ok(Ok(())) => break None,
            Ok(Err(e)) if cascade && ctx.recovery.enabled => {
                // a peer died, not us: wake partners blocked on our
                // channels, then park and let the supervisor decide
                drop(c);
                let snap_step = snap.as_ref().map(|s| s.step as usize);
                let _ = ctx.ctl.send(Ctl::Paused { rank, snap_step });
                match ctx.recovery.await_directive(rank) {
                    Some((fresh, resume_step)) => match snap.as_ref() {
                        Some(s) if s.step as usize == resume_step => {
                            st.restore_from_shard(s);
                            thermo.retain(|t| t.step <= resume_step);
                            start_step = resume_step;
                            comm = Some(fresh);
                            continue;
                        }
                        _ => break Some(format!("rank {rank}: {e} (resume snapshot mismatch)")),
                    },
                    None => break Some(format!("rank {rank}: {e}")),
                }
            }
            Ok(Err(e)) => {
                let (audit, recoverable) = match &e {
                    RankError::Audit(af) => (Some(af.clone()), false),
                    RankError::Comm(_) => (None, true),
                };
                poison_all(&ctx, rank);
                drop(c);
                // an audit failure must reach the supervisor even with
                // localized recovery off, or the epoch is "recovered" by
                // a global reload instead of failing with exit 6
                if ctx.recovery.enabled || audit.is_some() {
                    let _ = ctx.ctl.send(Ctl::Dead {
                        rank,
                        audit,
                        recoverable,
                    });
                }
                break Some(format!("rank {rank}: {e}"));
            }
            Err(payload) => {
                let msg = fault::describe_panic(rank, payload.as_ref());
                poison_all(&ctx, rank);
                drop(c);
                if ctx.recovery.enabled {
                    let _ = ctx.ctl.send(Ctl::Dead {
                        rank,
                        audit: None,
                        recoverable: true,
                    });
                }
                break Some(msg);
            }
        }
    };
    stats.final_local = st.ids.len();
    let _ = ctx.ctl.send(Ctl::Finished(Box::new(RankOutcome {
        rank,
        state: st,
        stats,
        thermo,
        failure,
    })));
}

/// Scatter the state, spawn one thread per rank, run the step loop under
/// `catch_unwind`, and collect every rank's outcome (never panics).
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    sys: &System,
    pot: &Arc<dyn Potential>,
    grid: &DomainGrid,
    opts: &ParallelOptions,
    start_step: usize,
    start_rng: u64,
    end_step: usize,
    halo: f64,
    faults: Option<Arc<FaultState>>,
) -> EpochOutcome {
    let n_ranks = grid.n_ranks();
    // scatter atoms to owners, in global-id order (the same order a
    // checkpoint restart produces, so recovery replays are bit-exact)
    let empty_state = |rank: usize| {
        let partners = grid.neighbors_within(rank, halo);
        RankState::empty(rank, partners, sys.cell, sys.masses.clone())
    };
    let mut initial: Vec<RankState> = (0..n_ranks).map(empty_state).collect();
    for i in 0..sys.len() {
        initial[grid.rank_of_position(sys.positions[i])].push_owned(
            i as u64,
            sys.types[i],
            sys.cell.wrap(sys.positions[i]),
            sys.velocities[i],
            sys.forces[i],
        );
    }

    let mesh = RankComm::mesh_with(n_ranks, opts.comm_deadline, faults.clone());
    let thermo_reduce = Arc::new(Allreduce::with_deadline(n_ranks, 9, opts.comm_deadline));
    let flag_reduce = Arc::new(Allreduce::with_deadline(n_ranks, 1, opts.comm_deadline));
    // dedicated barrier for the heartbeat allgather ([compute, comm,
    // wait, wall] seconds per rank) so it never shares a generation with
    // the thermo/flag reductions
    let stats_gather = Arc::new(Allreduce::with_deadline(n_ranks, 4, opts.comm_deadline));
    // one observability registry per rank: installed thread-locally in
    // the rank thread, so its spans/histograms land in a per-rank table
    // tagged with the rank id (the chrome-trace tid lane after merging)
    let tracing = dp_obs::trace::is_recording();
    let trace_cap = (dp_obs::trace::DEFAULT_CAPACITY / n_ranks).max(4096);
    let registries: Vec<Arc<Registry>> = (0..n_ranks)
        .map(|rank| {
            let reg = Arc::new(Registry::new(rank as u64));
            if tracing {
                reg.enable_trace(trace_cap);
            }
            reg
        })
        .collect();

    // localized recovery needs per-rank shards next to the rotation; any
    // shard files left over from a previous (failed) epoch are stale
    // relative to this epoch's replay position, so clear them first
    let shard_set = opts
        .checkpoint
        .as_ref()
        .filter(|c| c.every > 0 && c.shards)
        .map(|c| ShardSet::new(c.rotation.base()));
    if let Some(set) = &shard_set {
        for r in 0..n_ranks {
            let _ = std::fs::remove_file(set.path(r));
        }
    }
    let local_enabled = shard_set.is_some();
    // dedicated barrier for the invariant audit (width 4) so it never
    // shares a generation with the thermo/flag/heartbeat reductions
    let audit_reduce = Arc::new(Allreduce::with_deadline(n_ranks, 4, opts.comm_deadline));
    let (ctl_tx, ctl_rx) = channel::<Ctl>();
    // parked survivors wait long enough to cover a peer that only
    // notices the death via its own comm deadline
    let pause_deadline = opts.comm_deadline * 2 + Duration::from_secs(5);
    let recovery = Recovery::new(local_enabled, n_ranks, pause_deadline);
    let base_ctx = RankCtx {
        grid,
        pot,
        opts,
        start_rng,
        end_step,
        halo,
        n_atoms: sys.len(),
        thermo_reduce: &thermo_reduce,
        flag_reduce: &flag_reduce,
        stats_gather: &stats_gather,
        audit_reduce: &audit_reduce,
        faults: faults.as_deref(),
        shards: shard_set.as_ref(),
        recovery: &recovery,
        ctl: ctl_tx,
    };
    let mut epoch_local_recoveries = 0usize;
    let mut epoch_audit: Option<AuditFailure> = None;
    let start = Instant::now();

    let outcome_slots: Vec<Option<RankOutcome>> = std::thread::scope(|scope| {
        for (state, comm) in initial.drain(..).zip(mesh) {
            let ctx = base_ctx.clone();
            let registry = registries[state.rank].clone();
            scope.spawn(move || {
                rank_thread(ctx, registry, state, Vec::new(), start_step, comm, None)
            });
        }

        // ---- in-epoch supervisor ------------------------------------
        // Collects rank outcomes; on a root-cause death with localized
        // recovery enabled it assembles the recovery barrier (all
        // survivors parked, dead thread exited), reloads the dead rank's
        // shard, rebuilds the mesh, and respawns — otherwise it aborts
        // the epoch and the outer loop escalates to the global tier.
        let mut outcomes: Vec<Option<RankOutcome>> = (0..n_ranks).map(|_| None).collect();
        let mut live = n_ranks;
        let mut parked = vec![false; n_ranks];
        let mut snap_steps: Vec<Option<usize>> = vec![None; n_ranks];
        // (dead rank, barrier-assembly start) of the recovery in flight
        let mut pending: Option<(usize, Instant)> = None;
        let mut aborted = false;
        let mut attempts = 0usize;
        while live > 0 {
            let Ok(ev) = ctl_rx.recv() else { break };
            match ev {
                Ctl::Finished(o) => {
                    let r = o.rank;
                    outcomes[r] = Some(*o);
                    live -= 1;
                }
                Ctl::Paused { rank, snap_step } => {
                    parked[rank] = true;
                    snap_steps[rank] = snap_step;
                }
                Ctl::Dead {
                    rank,
                    audit,
                    recoverable,
                } => {
                    // post-mortem first: the dead rank's last-N-steps
                    // window, dumped before any recovery decision (a
                    // localized respawn keeps writing to this ring)
                    emit_flight_lines(
                        dp_obs::flight::dump_rank(rank, "rank_death")
                            .into_iter()
                            .collect(),
                    );
                    if audit.is_some() && epoch_audit.is_none() {
                        epoch_audit = audit;
                    }
                    let local_ok = recoverable
                        && !aborted
                        && pending.is_none()
                        && epoch_audit.is_none()
                        && attempts < opts.max_local_recoveries;
                    if local_ok {
                        dp_obs::counter("recovery.local.attempt").add(1);
                        pending = Some((rank, Instant::now()));
                    } else {
                        if pending.take().is_some() {
                            dp_obs::counter("recovery.local.fallback").add(1);
                        }
                        if recovery.enabled && !aborted {
                            recovery.abort();
                        }
                        aborted = true;
                    }
                }
            }

            // try to complete the recovery in flight
            let Some((dead, t0)) = pending else { continue };
            if aborted {
                pending = None;
                continue;
            }
            if (0..n_ranks).any(|r| r != dead && outcomes[r].is_some()) {
                // a second rank died outright while the barrier was
                // assembling: one shard cannot fill two holes — escalate
                dp_obs::counter("recovery.local.fallback").add(1);
                recovery.abort();
                aborted = true;
                pending = None;
                continue;
            }
            let others_parked = (0..n_ranks).filter(|&r| r != dead).all(|r| parked[r]);
            if outcomes[dead].is_none() || !others_parked {
                continue; // barrier still assembling
            }
            // all survivors parked with their snapshot labels; their
            // snapshots must agree on a single step for a consistent cut
            let mut agreed: Result<Option<usize>, ()> = Ok(None);
            for r in (0..n_ranks).filter(|&r| r != dead) {
                agreed = match (agreed, snap_steps[r]) {
                    (Ok(None), Some(s)) => Ok(Some(s)),
                    (Ok(Some(a)), Some(s)) if s == a => Ok(Some(a)),
                    _ => Err(()),
                };
                if agreed.is_err() {
                    break;
                }
            }
            let respawn = (|| -> Result<(RankShard, usize), String> {
                let set = shard_set
                    .as_ref()
                    .ok_or_else(|| "no shard set configured".to_string())?;
                let shard = RankShard::load(set, dead).map_err(|e| e.to_string())?;
                let s = shard.step as usize;
                if s <= start_step || s >= end_step {
                    return Err(format!(
                        "shard step {s} outside the epoch window {start_step}..{end_step}"
                    ));
                }
                match agreed {
                    Ok(Some(a)) if a == s => {}
                    Ok(None) if n_ranks == 1 => {}
                    _ => return Err("survivor snapshots disagree with the shard step".into()),
                }
                Ok((shard, s))
            })();
            match respawn {
                Ok((shard, s)) => {
                    let mut nst = empty_state(dead);
                    nst.restore_from_shard(&shard);
                    // Fresh mesh: every point-to-point pair restarts at
                    // sequence 0 and stale in-flight messages die with
                    // the old channels, so the respawned rank's first
                    // exchange cannot trip seq-gap detection against the
                    // dead rank's retired sequence counters.
                    let mut slots: Vec<Option<RankComm>> =
                        RankComm::mesh_with(n_ranks, opts.comm_deadline, faults.clone())
                            .into_iter()
                            .map(Some)
                            .collect();
                    let dead_comm = slots[dead].take();
                    // the barrier is quiescent (dead thread exited, all
                    // survivors parked outside any reduction): re-arm
                    // the poisoned reduction barriers
                    thermo_reduce.reset();
                    flag_reduce.reset();
                    stats_gather.reset();
                    audit_reduce.reset();
                    // the dead thread's thermo prefix rides into the
                    // replacement so rank-local history stays complete
                    // even on a single-rank grid
                    let mut dthermo = outcomes[dead]
                        .take()
                        .map(|o| o.thermo)
                        .unwrap_or_default();
                    dthermo.retain(|t| t.step <= s);
                    live += 1;
                    recovery.resume(s, slots);
                    if let Some(comm) = dead_comm {
                        let ctx = base_ctx.clone();
                        let registry = registries[dead].clone();
                        let seed = Some(shard);
                        scope.spawn(move || {
                            rank_thread(ctx, registry, nst, dthermo, s, comm, seed)
                        });
                    }
                    attempts += 1;
                    epoch_local_recoveries += 1;
                    // a death repaired in place never fails its epoch,
                    // so it is counted here (an escalated one is counted
                    // once, with the failed epoch)
                    dp_obs::counter("fault.detected").add(1);
                    dp_obs::counter("recovery.local.success").add(1);
                    record_recovery_latency(t0);
                    parked = vec![false; n_ranks];
                    snap_steps = vec![None; n_ranks];
                    pending = None;
                }
                Err(why) => {
                    eprintln!(
                        "warning: localized recovery of rank {dead} failed ({why}); \
                         escalating to global checkpoint reload"
                    );
                    dp_obs::counter("recovery.local.fallback").add(1);
                    recovery.abort();
                    aborted = true;
                    pending = None;
                }
            }
        }
        outcomes
    });

    let outcomes: Vec<RankOutcome> = outcome_slots
        .into_iter()
        .enumerate()
        .map(|(rank, o)| {
            o.unwrap_or_else(|| RankOutcome {
                rank,
                state: empty_state(rank),
                stats: RankStats {
                    rank,
                    ..RankStats::default()
                },
                thermo: Vec::new(),
                failure: Some(format!("rank {rank} thread aborted outside catch_unwind")),
            })
        })
        .collect();
    EpochOutcome {
        outcomes,
        reduce_operations: thermo_reduce.operations(),
        wall: start.elapsed(),
        registries,
        local_recoveries: epoch_local_recoveries,
        audit: epoch_audit,
    }
}

#[allow(clippy::too_many_arguments)]
fn rank_loop(
    st: &mut RankState,
    comm: &RankComm,
    ctx: &RankCtx<'_>,
    start_step: usize,
    stats: &mut RankStats,
    thermo: &mut Vec<ThermoSample>,
    snap: &mut Option<RankShard>,
) -> Result<(), RankError> {
    let grid = ctx.grid;
    let pot: &dyn Potential = ctx.pot.as_ref();
    let opts = ctx.opts;
    let start_rng = ctx.start_rng;
    let end_step = ctx.end_step;
    let halo = ctx.halo;
    let thermo_reduce = ctx.thermo_reduce;
    let flag_reduce = ctx.flag_reduce;
    let stats_gather = ctx.stats_gather;
    let faults = ctx.faults;
    let dt = opts.md.dt;
    let n_ranks = comm.to.len();
    let mut last_audit_step: Option<usize> = None;
    // heartbeat bookkeeping: phase-time marks at the last report, plus a
    // reusable allgather buffer (step-determined schedule, so the gather
    // is collective without extra synchronization)
    let hb_every = opts.report_every;
    let mut hb_all = vec![0.0f64; if hb_every > 0 { 4 * n_ranks } else { 0 }];
    let mut hb_marks = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut hb_wall = Instant::now();

    // initial exchange + list build; the neighbor list (plus scratch) and
    // force output allocated here are reused by every later step (§5.2.2
    // arena reuse), and the force provider reads the rank's own `System`
    let (res, d) = dp_obs::timed("ghost_exchange", || exchange(st, comm, grid, halo, stats));
    stats.comm_time += d;
    res?;
    let mut nl_scratch = NlScratch::default();
    let mut nl = NeighborList::empty();
    rebuild_list(&mut nl, &mut nl_scratch, st, halo, stats);
    let mut out = PotentialOutput::zeros(st.sys.len());
    if start_step == 0 {
        // fresh run: evaluate initial forces and record the step-0 sample
        eval_forces(st, comm, pot, &nl, &mut out, stats)?;
        record(0, st, &out, thermo_reduce, stats, thermo)?;
    }
    // A resumed epoch (start_step > 0) reuses the forces the checkpoint
    // carried (scattered with the atoms) instead of re-evaluating: the
    // force summation order at the checkpoint instant is thereby replayed
    // exactly, and the sample the original run already recorded at the
    // checkpoint step is not re-emitted. The collective schedule stays
    // identical because start_step is rank-uniform.

    for step in start_step + 1..=end_step {
        let step_t0 = dp_obs::enabled().then(Instant::now);
        // phase-time marks for the flight recorder: deltas over this step
        // become one StepRecord in this rank's post-mortem ring
        let fr_marks = step_t0.map(|_| {
            (
                stats.compute_time,
                stats.comm_time,
                stats.reduce_time,
                stats.neigh_time,
                stats.io_time,
                stats.ghost_atoms_sent,
                dp_obs::counter("flops").get(),
            )
        });
        if let Some(f) = faults {
            if f.should_kill(st.rank, step) {
                fault::kill_current_rank(st.rank, step);
            }
        }

        {
            let _span = dp_obs::span("integrate");
            integrate::kick_drift(&mut st.sys, dt);
        }

        // collective rebuild decision on the paper's schedule (absolute
        // steps, so a recovered epoch keeps the original cadence)
        let rebuild = if step % opts.md.rebuild_every == 0 {
            let moved = st.needs_rebuild(opts.md.skin);
            let mut flag = [0.0];
            let (res, d) = dp_obs::timed("reduce", || {
                flag_reduce.reduce_into(st.rank, &[if moved { 1.0 } else { 0.0 }], &mut flag)
            });
            stats.reduce_time += d;
            res?;
            flag[0] > 0.0
        } else {
            false
        };

        if rebuild {
            let (res, d) = dp_obs::timed("ghost_exchange", || {
                migrate(st, comm, grid)?;
                exchange(st, comm, grid, halo, stats)
            });
            stats.comm_time += d;
            res?;
            rebuild_list(&mut nl, &mut nl_scratch, st, halo, stats);
        } else {
            let (res, d) = dp_obs::timed("comm", || forward_comm(st, comm));
            stats.comm_time += d;
            res?;
        }

        eval_forces(st, comm, pot, &nl, &mut out, stats)?;

        {
            let _span = dp_obs::span("integrate");
            integrate::kick(&mut st.sys, dt);
        }

        // global Berendsen thermostat: the temperature is all-reduced
        if let Some(b) = opts.md.thermostat {
            let mut payload = [0.0; 9];
            payload[0] = st.sys.kinetic_energy();
            payload[1] = st.ids.len() as f64;
            let mut tot = [0.0; 9];
            let (res, d) = dp_obs::timed("reduce", || {
                thermo_reduce.reduce_into(st.rank, &payload, &mut tot)
            });
            stats.reduce_time += d;
            res?;
            let temp = units::temperature(tot[0], tot[1] as usize);
            integrate::berendsen_rescale(&mut st.sys, b, dt, temp);
        }

        // thermodynamic output: every step in blocking mode, else on stride
        if opts.blocking_reduce || step % opts.md.thermo_every == 0 || step == end_step {
            record(step, st, &out, thermo_reduce, stats, thermo)?;
        }

        // global checkpoint gather: the schedule is step-determined, so
        // every rank participates without any extra synchronization
        if let Some(ck) = &opts.checkpoint {
            if ck.every > 0 && step % ck.every == 0 {
                let (res, d) = dp_obs::timed("io", || {
                    gather_checkpoint(st, comm, step, start_rng, ck, faults)
                });
                stats.comm_time += d;
                stats.io_time += d;
                res?;
                if step < end_step {
                    // realign to the exact state a restart from this
                    // checkpoint reconstructs: owner = rank_of_position,
                    // locals in global-id order, fresh exchange + list.
                    // From here the straight run and any recovered run
                    // traverse identical states, bit for bit.
                    let (res, d) = dp_obs::timed("ghost_exchange", || {
                        migrate(st, comm, grid)?;
                        st.sort_locals_by_id();
                        Ok::<(), CommError>(())
                    });
                    stats.comm_time += d;
                    res?;
                    // per-rank shard at the realigned instant: exactly
                    // the state a localized respawn must reconstruct.
                    // The same payload stays in memory so survivors can
                    // rewind to the identical cut without touching disk.
                    if let Some(set) = ctx.shards {
                        let shard = st.capture_shard(step, start_rng);
                        let ((), d) = dp_obs::timed("io", || match shard.save(set) {
                            Ok(path) => {
                                let torn = faults
                                    .is_some_and(|f| f.shard_sabotage(st.rank, step));
                                if torn
                                    && fault::sabotage_file(
                                        &path,
                                        crate::fault::CkptSabotage::TornWrite,
                                    )
                                    .is_ok()
                                {
                                    dp_obs::counter("fault.shard_sabotaged").add(1);
                                }
                            }
                            Err(e) => {
                                eprintln!(
                                    "warning: rank {} shard write at step {step} failed \
                                     ({e}); localized recovery may fall back",
                                    st.rank
                                );
                            }
                        });
                        stats.comm_time += d;
                        stats.io_time += d;
                        *snap = Some(shard);
                    }
                    let (res, d) = dp_obs::timed("ghost_exchange", || {
                        exchange(st, comm, grid, halo, stats)
                    });
                    stats.comm_time += d;
                    res?;
                    rebuild_list(&mut nl, &mut nl_scratch, st, halo, stats);
                }
            }
        }

        // periodic conservation audit on a step-determined (hence
        // collective) schedule; violations are typed and fail fast
        if opts.audit_every > 0 && step % opts.audit_every == 0 {
            audit_step(st, comm, ctx, step, &mut last_audit_step, stats)?;
            stats.audits_passed += 1;
        }

        // live load-balance heartbeat on a step-determined (hence
        // collective) schedule: allgather this interval's per-phase time
        // deltas, rank 0 reports
        if hb_every > 0 && step % hb_every == 0 {
            let contribution = [
                (stats.compute_time - hb_marks.0).as_secs_f64(),
                (stats.comm_time - hb_marks.1).as_secs_f64(),
                (stats.reduce_time - hb_marks.2).as_secs_f64(),
                hb_wall.elapsed().as_secs_f64(),
            ];
            let (res, d) = dp_obs::timed("reduce", || {
                stats_gather.gather_into(st.rank, &contribution, &mut hb_all)
            });
            stats.reduce_time += d;
            res?;
            if st.rank == 0 {
                emit_heartbeat(step, n_ranks, hb_every, &hb_all);
            }
            hb_marks = (stats.compute_time, stats.comm_time, stats.reduce_time);
            hb_wall = Instant::now();
        }

        if let (Some(t0), Some(m)) = (step_t0, fr_marks) {
            dp_obs::hist::record("step_wall_ns", t0.elapsed().as_nanos() as u64);
            let us = |d: Duration| d.as_micros() as u64;
            let comm_us = us(stats.comm_time - m.1);
            let io_us = us(stats.io_time - m.4);
            let ghosts = stats.ghost_atoms_sent - m.5;
            dp_obs::flight::record(
                st.rank,
                dp_obs::flight::StepRecord {
                    step: step as u64,
                    wall_us: t0.elapsed().as_micros() as u64,
                    compute_us: us(stats.compute_time - m.0),
                    // io rides inside comm_time (the §7.3 fold); report
                    // the two disjointly here
                    comm_us: comm_us.saturating_sub(io_us),
                    wait_us: us(stats.reduce_time - m.2),
                    neigh_us: us(stats.neigh_time - m.3),
                    io_us,
                    ghost_atoms: ghosts,
                    // 3 f64 coordinates per ghost atom forwarded
                    bytes: ghosts * 24,
                    flops: dp_obs::counter("flops").get().saturating_sub(m.6),
                },
            );
        }
    }

    stats.final_local = st.ids.len();
    Ok(())
}

/// Rebuild the rank's neighbor list over its owned atoms + ghosts.
fn rebuild_list(
    nl: &mut NeighborList,
    scratch: &mut NlScratch,
    st: &RankState,
    halo: f64,
    stats: &mut RankStats,
) {
    let ((), d) = dp_obs::timed("neighbor_rebuild", || nl.build_into(&st.sys, halo, scratch));
    stats.neigh_time += d;
    stats.rebuilds += 1;
}

/// The rank's force call: evaluate over owned atoms + ghosts, store into
/// `st.sys.forces`, then reverse-communicate the ghost share to its owners.
fn eval_forces(
    st: &mut RankState,
    comm: &RankComm,
    pot: &dyn Potential,
    nl: &NeighborList,
    out: &mut PotentialOutput,
    stats: &mut RankStats,
) -> Result<(), CommError> {
    let ((), d) = dp_obs::timed("force_eval", || pot.compute_into(&st.sys, nl, out));
    stats.compute_time += d;
    st.sys.forces.clone_from(&out.forces);
    reverse_comm(st, comm)?;
    add_reverse_forces(st, comm)
}

/// One collective conservation audit over the dedicated width-4 barrier:
/// `[owned atoms, ghost violations, step, seq gaps]` per rank. Checks
/// atom-count conservation across migrate/re-scatter, ghost/owner
/// containment, monotone + rank-uniform step counters, and gap-free
/// message sequencing. Every rank sees the same reduced totals, so a
/// violation fails all ranks with the same typed report.
fn audit_step(
    st: &RankState,
    comm: &RankComm,
    ctx: &RankCtx<'_>,
    step: usize,
    last: &mut Option<usize>,
    stats: &mut RankStats,
) -> Result<(), RankError> {
    let rank = st.rank;
    let fail = |check: &'static str, detail: String| {
        Err(RankError::Audit(AuditFailure {
            rank,
            step,
            check,
            detail,
        }))
    };
    // local: the audit step counter advances strictly
    if let Some(prev) = *last {
        if step <= prev {
            return fail(
                "step_monotone",
                format!("audit at step {step} after one at step {prev}"),
            );
        }
    }
    *last = Some(step);
    // local: every ghost lies within the halo shell of our own domain,
    // with slack for drift since the last exchange (the rebuild trigger
    // bounds local movement to ~skin/4, and ghosts move symmetrically on
    // their owners)
    let n_local = st.ids.len();
    let slack = ctx.opts.md.skin;
    let mut ghost_violations = 0usize;
    for p in &st.sys.positions[n_local..] {
        if ctx.grid.distance_to_domain(*p, rank) > ctx.halo + slack {
            ghost_violations += 1;
        }
    }
    let mut reported_local = n_local as f64;
    if let Some(f) = ctx.faults {
        if f.break_invariant(rank, step) {
            // test-only sabotage of the *report* (never the simulation
            // state): proves a violation surfaces as a typed failure
            reported_local += 1.0;
        }
    }
    let payload = [
        reported_local,
        ghost_violations as f64,
        step as f64,
        comm.seq_gap_count() as f64,
    ];
    let mut tot = [0.0; 4];
    let (res, d) = dp_obs::timed("reduce", || {
        ctx.audit_reduce.reduce_into(rank, &payload, &mut tot)
    });
    stats.reduce_time += d;
    res?;
    let n_ranks = comm.to.len();
    if tot[0] as usize != ctx.n_atoms {
        return fail(
            "atom_count",
            format!(
                "{} atoms owned globally, expected {}",
                tot[0] as usize,
                ctx.n_atoms
            ),
        );
    }
    if tot[1] > 0.0 {
        return fail(
            "ghost_owner",
            format!("{} ghosts outside their halo shell", tot[1] as usize),
        );
    }
    if tot[2] as usize != n_ranks * step {
        return fail(
            "step_uniform",
            format!(
                "ranks disagree on the audit step (sum {}, expected {})",
                tot[2] as usize,
                n_ranks * step
            ),
        );
    }
    if tot[3] > 0.0 {
        return fail(
            "seq_gap",
            format!("{} message sequence gaps observed on the mesh", tot[3] as usize),
        );
    }
    Ok(())
}

/// Rank 0's heartbeat output: `gathered` holds `[compute, comm, wait,
/// wall]` seconds per rank (rank-major) for the last `every` steps. One
/// human line on stdout, one `imbalance_heartbeat` event in the metrics
/// stream.
fn emit_heartbeat(step: usize, n_ranks: usize, every: usize, gathered: &[f64]) {
    let col = |i: usize| -> Vec<f64> { (0..n_ranks).map(|r| gathered[r * 4 + i]).collect() };
    let report = ImbalanceReport::from_phase_times(
        n_ranks,
        every as u64,
        &[("compute", col(0)), ("comm", col(1)), ("wait", col(2))],
    );
    let share = |name: &str| report.phase(name).map_or(0.0, |p| p.share * 100.0);
    println!(
        "[dpmd] step {step}: compute {:.1}% comm {:.1}% wait {:.1}% | imbalance {:.2} ({n_ranks} ranks, {every} steps)",
        share("compute"),
        share("comm"),
        share("wait"),
        report.imbalance,
    );
    if dp_obs::metrics::active() {
        dp_obs::metrics::emit_line(&report.to_json("imbalance_heartbeat", Some(step as u64)));
    }
}

/// Reduce `[pe, ke, virial(6), n]` and append one global thermo sample.
fn record(
    step: usize,
    st: &RankState,
    out: &PotentialOutput,
    thermo_reduce: &Allreduce,
    stats: &mut RankStats,
    thermo: &mut Vec<ThermoSample>,
) -> Result<(), CommError> {
    let mut payload = [0.0; 9];
    payload[0] = out.energy;
    payload[1] = st.sys.kinetic_energy();
    payload[2..8].copy_from_slice(&out.virial);
    payload[8] = st.ids.len() as f64;
    let mut tot = [0.0; 9];
    let (res, d) = dp_obs::timed("reduce", || {
        thermo_reduce.reduce_into(st.rank, &payload, &mut tot)
    });
    stats.reduce_time += d;
    res?;
    let n = tot[8] as usize;
    let temperature = units::temperature(tot[1], n);
    let virial = [tot[2], tot[3], tot[4], tot[5], tot[6], tot[7]];
    thermo.push(ThermoSample {
        step,
        potential_energy: tot[0],
        kinetic_energy: tot[1],
        temperature,
        pressure: units::pressure(n, temperature, &virial, st.sys.cell.volume()),
    });
    Ok(())
}

/// Gather every rank's local atoms to rank 0 and write one global
/// checkpoint. Non-zero ranks send and return immediately; rank 0 scatters
/// the atoms back into original id order (the order `run_parallel_md`
/// accepts as input, so restarts may re-decompose onto any grid). Write
/// failures are reported but never abort the run — losing one checkpoint
/// generation is strictly better than losing the trajectory.
fn gather_checkpoint(
    st: &RankState,
    comm: &RankComm,
    step: usize,
    rng_draws: u64,
    ck: &ParallelCkpt,
    faults: Option<&FaultState>,
) -> Result<(), CommError> {
    let mine: Vec<CkptAtom> = (0..st.ids.len())
        .map(|k| CkptAtom {
            id: st.ids[k],
            ty: st.sys.types[k] as u32,
            position: st.sys.positions[k],
            velocity: st.sys.velocities[k],
            force: st.sys.forces[k],
        })
        .collect();
    if st.rank != 0 {
        return comm.send(0, Msg::CkptAtoms(mine));
    }
    let n_ranks = comm.to.len();
    let mut atoms = mine;
    for src in 1..n_ranks {
        match comm.recv(src)? {
            Msg::CkptAtoms(v) => atoms.extend(v),
            _ => {
                return Err(CommError::Protocol {
                    from: src,
                    expected: "CkptAtoms",
                })
            }
        }
    }
    let n = atoms.len();
    let mut positions = vec![[0.0; 3]; n];
    let mut velocities = vec![[0.0; 3]; n];
    let mut forces = vec![[0.0; 3]; n];
    let mut types = vec![0usize; n];
    for a in &atoms {
        let id = a.id as usize;
        if id >= n {
            return Err(CommError::Protocol {
                from: 0,
                expected: "gathered atom ids within 0..n_atoms",
            });
        }
        positions[id] = a.position;
        velocities[id] = a.velocity;
        forces[id] = a.force;
        types[id] = a.ty as usize;
    }
    let snap = MdCheckpoint {
        progress: MdProgress { step, rng_draws },
        cell: st.sys.cell,
        positions,
        velocities,
        forces,
        types,
        masses: st.sys.masses.clone(),
    };
    match snap.save(&ck.rotation) {
        Ok(path) => {
            if let Some(f) = faults {
                if let Some(what) = f.ckpt_sabotage(step) {
                    // damage the generation just written — the rotation
                    // fallback must survive this on the next reload
                    if fault::sabotage_file(&path, what).is_ok() {
                        dp_obs::counter("fault.ckpt_sabotaged").add(1);
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("warning: checkpoint write at step {step} failed ({e}); run continues");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_md::integrate::{run_md, MdOptions};
    use dp_md::lattice;
    use dp_md::potential::pair::LennardJones;
    use dp_md::CounterRng;

    fn test_system() -> System {
        let mut sys = lattice::fcc(5.26, [4, 4, 4], 39.948);
        let mut rng = CounterRng::new(7);
        sys.init_velocities(30.0, &mut rng);
        sys
    }

    fn lj() -> Arc<LennardJones> {
        Arc::new(LennardJones::new(0.0104, 3.405, 6.0))
    }

    #[test]
    fn zero_step_forces_match_serial() {
        let sys = test_system();
        let pot = lj();
        let nl = NeighborList::build(&sys, pot.cutoff() + 2.0);
        let serial = pot.compute(&sys, &nl);

        let run =
            run_parallel_md(&sys, pot.clone(), [2, 2, 2], &ParallelOptions::default(), 0).unwrap();
        // thermo[0] carries the reduced energy
        let pe = run.thermo[0].potential_energy;
        assert!(
            (pe - serial.energy).abs() < 1e-9,
            "parallel {pe} vs serial {}",
            serial.energy
        );
    }

    #[test]
    fn trajectory_matches_serial() {
        let pot = lj();
        let opts = ParallelOptions {
            md: MdOptions {
                dt: 2.0e-3,
                rebuild_every: 10,
                thermo_every: 10,
                ..MdOptions::default()
            },
            blocking_reduce: false,
            ..ParallelOptions::default()
        };
        let steps = 30;

        let mut serial_sys = test_system();
        run_md(&mut serial_sys, pot.as_ref(), &opts.md, steps, |_| {});

        let par = run_parallel_md(&test_system(), pot.clone(), [2, 2, 1], &opts, steps).unwrap();

        let mut max_d = 0.0f64;
        for i in 0..serial_sys.len() {
            let d2 = serial_sys
                .cell
                .distance2(serial_sys.positions[i], par.system.positions[i]);
            max_d = max_d.max(d2.sqrt());
        }
        assert!(max_d < 1e-7, "trajectories diverged: {max_d} Å");
    }

    #[test]
    fn parallel_nve_conserves_energy() {
        let pot = lj();
        let opts = ParallelOptions {
            md: MdOptions {
                dt: 2.0e-3,
                rebuild_every: 20,
                thermo_every: 20,
                ..MdOptions::default()
            },
            blocking_reduce: false,
            ..ParallelOptions::default()
        };
        let run = run_parallel_md(&test_system(), pot, [2, 2, 2], &opts, 200).unwrap();
        let e0 = run.thermo.first().unwrap().total_energy();
        let e1 = run.thermo.last().unwrap().total_energy();
        let n = run.system.len() as f64;
        assert!(
            ((e1 - e0) / n).abs() < 2e-5,
            "parallel NVE drift {} eV/atom",
            (e1 - e0) / n
        );
    }

    #[test]
    fn atoms_conserved_through_migration() {
        let pot = lj();
        let mut sys = test_system();
        let mut rng = CounterRng::new(9);
        sys.init_velocities(120.0, &mut rng); // hot: plenty of migration
        let opts = ParallelOptions {
            md: MdOptions {
                dt: 2.0e-3,
                rebuild_every: 5,
                ..MdOptions::default()
            },
            blocking_reduce: false,
            ..ParallelOptions::default()
        };
        let run = run_parallel_md(&sys, pot, [2, 2, 2], &opts, 100).unwrap();
        let total: usize = run.rank_stats.iter().map(|s| s.final_local).sum();
        assert_eq!(total, sys.len());
        // migrations definitely happened at 120 K over 100 steps
        assert!(run.rank_stats.iter().all(|s| s.rebuilds >= 1));
    }

    #[test]
    fn deferred_reduce_is_less_chatty() {
        let pot = lj();
        let sys = test_system();
        let mut opts = ParallelOptions {
            md: MdOptions {
                thermo_every: 20,
                ..MdOptions::default()
            },
            blocking_reduce: true,
            ..ParallelOptions::default()
        };
        let blocking = run_parallel_md(&sys, pot.clone(), [2, 1, 1], &opts, 40).unwrap();
        opts.blocking_reduce = false;
        let deferred = run_parallel_md(&sys, pot, [2, 1, 1], &opts, 40).unwrap();
        assert!(
            deferred.reduce_operations < blocking.reduce_operations,
            "deferred {} !< blocking {}",
            deferred.reduce_operations,
            blocking.reduce_operations
        );
    }

    #[test]
    fn checkpoint_resume_with_different_grid_agrees() {
        let dir = std::env::temp_dir().join("dp-parallel-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let rot = Rotation::new(dir.join("par.ckpt"), 2);
        for i in 0..2 {
            let _ = std::fs::remove_file(rot.slot_path(i));
        }

        let pot = lj();
        let md = MdOptions {
            dt: 2.0e-3,
            rebuild_every: 10,
            thermo_every: 10,
            ..MdOptions::default()
        };

        // Straight 40 steps on a 2x2x1 grid, checkpointing on the same
        // stride as the interrupted run (checkpoint gathers realign the
        // decomposition, so the schedules must match for comparison).
        let straight = run_parallel_md(
            &test_system(),
            pot.clone(),
            [2, 2, 1],
            &ParallelOptions {
                md,
                checkpoint: Some(ParallelCkpt {
                    every: 20,
                    rotation: Rotation::new(dir.join("straight.ckpt"), 2),
                    shards: false,
                }),
                ..ParallelOptions::default()
            },
            40,
        )
        .unwrap();

        // Same ICs, 20 steps, checkpointing at step 20.
        let first = run_parallel_md(
            &test_system(),
            pot.clone(),
            [2, 2, 1],
            &ParallelOptions {
                md,
                checkpoint: Some(ParallelCkpt {
                    every: 20,
                    rotation: rot.clone(),
                    shards: false,
                }),
                ..ParallelOptions::default()
            },
            20,
        )
        .unwrap();
        drop(first);

        // Resume on a DIFFERENT grid: the checkpoint is global, so the
        // restart re-decomposes onto 1x2x2.
        let (snap, _) = MdCheckpoint::load(&rot).unwrap();
        assert_eq!(snap.progress.step, 20);
        let (restored, progress) = snap.restore();
        let resumed = run_parallel_md(
            &restored,
            pot,
            [1, 2, 2],
            &ParallelOptions {
                md,
                start_step: progress.step,
                ..ParallelOptions::default()
            },
            20,
        )
        .unwrap();

        // Step numbering continues from the checkpoint.
        assert_eq!(resumed.thermo.last().unwrap().step, 40);

        // Decomposition changes reorder force summation, so agreement is
        // tolerance-based, not bitwise.
        let n = straight.system.len() as f64;
        let e_straight = straight.thermo.last().unwrap().total_energy();
        let e_resumed = resumed.thermo.last().unwrap().total_energy();
        assert!(
            ((e_straight - e_resumed) / n).abs() < 1e-6,
            "energy diverged after resume: {e_straight} vs {e_resumed}"
        );
        let mut max_d = 0.0f64;
        for i in 0..straight.system.len() {
            let d2 = straight
                .system
                .cell
                .distance2(straight.system.positions[i], resumed.system.positions[i]);
            max_d = max_d.max(d2.sqrt());
        }
        assert!(max_d < 1e-6, "positions diverged after resume: {max_d} Å");

        for i in 0..2 {
            let _ = std::fs::remove_file(rot.slot_path(i));
        }
    }

    #[test]
    fn migration_beyond_halo_partners_is_routed() {
        // Ballistic atoms (eps = 0 ⇒ zero forces) moving fast enough to
        // cross 2–3 subdomains between rebuilds: with a 4-rank grid and a
        // 4 Å halo on 5.26 Å subdomains, the destination rank is NOT a
        // halo partner. The old partners-only migrate schedule panicked
        // here; the full-mesh schedule must route every atom to its owner.
        let pot = Arc::new(LennardJones::new(0.0, 3.405, 2.0));
        let mut sys = lattice::fcc(5.26, [4, 4, 4], 39.948);
        for v in &mut sys.velocities {
            *v = [260.0, 3.0, 0.0];
        }
        let opts = ParallelOptions {
            md: MdOptions {
                dt: 2.0e-3,
                rebuild_every: 25,
                ..MdOptions::default()
            },
            ..ParallelOptions::default()
        };
        let run = run_parallel_md(&sys, pot, [4, 1, 1], &opts, 25).unwrap();
        let total: usize = run.rank_stats.iter().map(|s| s.final_local).sum();
        assert_eq!(total, sys.len(), "atoms lost during long-range migration");
    }

    #[test]
    fn resumed_run_skips_checkpoint_step_sample() {
        // A rank loop started at start_step > 0 must not re-record the
        // sample the original run already emitted at the checkpoint step.
        let pot = lj();
        let opts = ParallelOptions {
            md: MdOptions {
                dt: 2.0e-3,
                thermo_every: 10,
                ..MdOptions::default()
            },
            start_step: 20,
            ..ParallelOptions::default()
        };
        let run = run_parallel_md(&test_system(), pot, [2, 1, 1], &opts, 10).unwrap();
        let steps: Vec<usize> = run.thermo.iter().map(|t| t.step).collect();
        assert_eq!(
            steps,
            vec![30],
            "expected only the step-30 sample, got {steps:?}"
        );
    }

    #[test]
    fn checkpoint_carries_resumed_rng_draws() {
        // The parallel loop draws no randoms itself, so the draw count a
        // resumed trajectory brought in must round-trip into every
        // checkpoint (it used to be hard-coded to zero).
        let dir = std::env::temp_dir().join("dp-parallel-rng-draws-test");
        std::fs::create_dir_all(&dir).unwrap();
        let rot = Rotation::new(dir.join("draws.ckpt"), 2);
        for i in 0..2 {
            let _ = std::fs::remove_file(rot.slot_path(i));
        }
        let pot = lj();
        let opts = ParallelOptions {
            md: MdOptions {
                dt: 2.0e-3,
                ..MdOptions::default()
            },
            start_step: 100,
            start_rng_draws: 4242,
            checkpoint: Some(ParallelCkpt {
                every: 10,
                rotation: rot.clone(),
                shards: false,
            }),
            ..ParallelOptions::default()
        };
        let _ = run_parallel_md(&test_system(), pot, [2, 1, 1], &opts, 10).unwrap();
        let (snap, _) = MdCheckpoint::load(&rot).unwrap();
        assert_eq!(snap.progress.step, 110);
        assert_eq!(
            snap.progress.rng_draws, 4242,
            "rng draw count dropped by the checkpoint gather"
        );
        for i in 0..2 {
            let _ = std::fs::remove_file(rot.slot_path(i));
        }
    }

    #[test]
    fn ghost_counts_scale_with_halo_surface() {
        let pot = lj();
        let sys = test_system();
        let run = run_parallel_md(&sys, pot, [2, 2, 2], &ParallelOptions::default(), 0).unwrap();
        for s in &run.rank_stats {
            assert!(s.max_ghosts > 0, "rank {} saw no ghosts", s.rank);
            // sub-box is 10.52 Å; halo 8 Å: ghosts can exceed locals but
            // must stay below the whole rest of the system
            assert!(s.max_ghosts < sys.len());
        }
    }

    #[test]
    fn imbalance_report_covers_every_phase() {
        let pot = lj();
        let opts = ParallelOptions {
            md: MdOptions {
                dt: 2.0e-3,
                thermo_every: 10,
                ..MdOptions::default()
            },
            report_every: 5, // exercise the heartbeat allgather path
            ..ParallelOptions::default()
        };
        let run = run_parallel_md(&test_system(), pot, [2, 1, 1], &opts, 10).unwrap();
        let rep = &run.imbalance;
        assert_eq!(rep.n_ranks, 2);
        assert_eq!(rep.steps, 10);
        for phase in ["compute", "comm", "wait"] {
            let p = rep
                .phase(phase)
                .unwrap_or_else(|| panic!("missing {phase}"));
            assert!(
                p.min_s <= p.mean_s && p.mean_s <= p.max_s,
                "{phase}: min {} mean {} max {}",
                p.min_s,
                p.mean_s,
                p.max_s
            );
        }
        assert!(rep.phase("compute").unwrap().mean_s > 0.0);
        assert!(
            rep.imbalance >= 1.0,
            "max/mean busy below 1: {}",
            rep.imbalance
        );
        let shares: f64 = rep.phases.iter().map(|p| p.share).sum();
        assert!((shares - 1.0).abs() < 1e-9, "phase shares sum to {shares}");
    }

    /// Absolute result pinned at the commit before `rank_loop` moved onto
    /// `dp_md::integrate`: 20 NVE steps on 2×1×1 from uniform `CounterRng`
    /// velocities (raw `next_u64`), with a rebuild (migrate + exchange) and
    /// a sharded checkpoint realignment on the way. The 5.0 Å cutoff keeps
    /// every pair out of the cosine switch window, so the run touches no
    /// libm beyond `sqrt` and one constant holds on any host.
    #[test]
    fn golden_bits_2x1x1_nve() {
        let dir = std::env::temp_dir().join(format!("dp-parallel-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sys = lattice::fcc(5.26, [4, 4, 4], 39.948);
        let mut rng = dp_md::CounterRng::new(2020);
        for v in &mut sys.velocities {
            for d in 0..3 {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                v[d] = 4.0 * (u - 0.5);
            }
        }
        sys.zero_momentum();
        let opts = ParallelOptions {
            md: MdOptions {
                dt: 2.0e-3,
                skin: 0.1,
                rebuild_every: 5,
                thermo_every: 10,
                ..MdOptions::default()
            },
            checkpoint: Some(ParallelCkpt {
                every: 10,
                rotation: Rotation::new(dir.join("golden.ckpt"), 2),
                shards: true,
            }),
            ..ParallelOptions::default()
        };
        let pot = Arc::new(LennardJones::new(0.0104, 3.405, 5.0));
        let run = run_parallel_md(&sys, pot, [2, 1, 1], &opts, 20).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // initial build + checkpoint realignment + at least one skin trigger
        assert!(run.rank_stats.iter().all(|s| s.rebuilds > 2));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let s = &run.system;
        for x in s.positions.iter().chain(&s.velocities).flatten() {
            h = (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h, 15_030_932_595_364_496_346);
    }

    #[test]
    fn bad_grid_is_a_config_error() {
        let err = run_parallel_md(
            &test_system(),
            lj(),
            [0, 2, 2],
            &ParallelOptions::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "got {err:?}");
    }

    /// The rank loop has no Langevin stream; accepting the option and
    /// running NVE would silently drop the thermostat.
    #[test]
    fn langevin_on_a_grid_is_a_config_error() {
        let opts = ParallelOptions {
            md: MdOptions {
                langevin: Some(dp_md::integrate::Langevin {
                    target_t: 30.0,
                    gamma: 1.0,
                    seed: 1,
                }),
                ..MdOptions::default()
            },
            ..ParallelOptions::default()
        };
        let err = run_parallel_md(&test_system(), lj(), [2, 1, 1], &opts, 1).unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "got {err:?}");
    }
}
