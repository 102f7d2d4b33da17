//! The parallel Velocity–Verlet driver with supervised fault recovery.
//!
//! One OS thread per rank (the rank side lives in `rank.rs`); each step
//! is `dp_md::integrate`'s, with the LAMMPS communication cycle the paper
//! inherits around the force call (§5.4): forward ghost refresh → force
//! evaluation → reverse force communication, and global reductions on the
//! output stride. Neighbor-list rebuild decisions are collective and every
//! step follows one `Schedule`, so the message schedule is identical on
//! every rank. This module holds the public types and the supervisor.
//!
//! # Supervision
//!
//! [`run_parallel_md`] is an *epoch loop*. Each epoch scatters the current
//! state onto the rank grid and runs the rank threads under
//! `catch_unwind`. A rank that dies (injected fault, panic, or a
//! [`CommError`](crate::CommError) from a dead peer) poisons the
//! reduction barriers and drops its mesh endpoints on the way out, so
//! every surviving rank unwinds with a typed error within the comm
//! deadline instead of deadlocking. Every failure ends the epoch. The
//! supervisor then reloads one checkpoint and starts the next epoch from
//! it, on a fresh mesh. It tries two sources, each with its own budget,
//! and a typed [`RunError`] surfaces once both are spent:
//!
//! * the *shards* ([`ParallelCkpt::shards`], `max_local_recoveries`):
//!   when exactly one rank failed on its own, the survivors' in-memory
//!   snapshots and the dead rank's shard file, all taken at one
//!   checkpoint step, assemble into that step's global checkpoint;
//! * the *rotation* (`max_recoveries`): the newest valid global
//!   generation (the rotation steps over torn or corrupted ones).
//!
//! # Bit-exact recovery
//!
//! A recovered run must be indistinguishable from an uninterrupted one.
//! Three mechanisms make that literal, to the last float bit:
//!
//! * [`Allreduce`](crate::Allreduce) folds per-rank slots in rank order,
//!   so global sums don't depend on thread arrival order;
//! * after every checkpoint gather the ranks *realign*: migrate (forces
//!   ride along), sort locals by global atom id, and re-exchange — exactly
//!   the state a restart reconstructs by scattering the checkpoint;
//! * a resumed epoch reuses the checkpointed forces instead of
//!   re-evaluating them, and all schedules (thermo, rebuild, checkpoint)
//!   are keyed on the absolute step number.
//!
//! # Per-rank observability
//!
//! Each epoch creates one [`dp_obs::Registry`] per rank and installs it
//! thread-locally in the rank thread: spans, latency histograms
//! (`comm.send_ns`, `comm.recv_wait_ns`, `comm.reduce_wait_ns`,
//! `comm.ghost_bytes`, `step_wall_ns`) and trace events land in per-rank
//! tables tagged with the rank id. After every epoch — clean or failed —
//! the supervisor merges the rank trace lanes into the global recording
//! (each rank is its own chrome-trace `tid`) and emits per-rank histogram
//! summary lines into the metrics stream. `report_every` adds a live
//! §7.3 heartbeat; the final [`ParallelRun::imbalance`] report breaks the
//! run into compute/comm/wait across ranks.

use crate::fault::{FaultPlan, FaultState};
use crate::grid::DomainGrid;
use crate::rank::{run_epoch, EpochOutcome};
use crate::shard::{assemble, RankShard};
use dp_ckpt::{CkptError, Rotation};
use dp_md::checkpoint::MdCheckpoint;
use dp_md::integrate::{MdOptions, MdProgress, Schedule, ThermoSample};
use dp_md::{Potential, System};
use dp_obs::ImbalanceReport;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
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
    /// checkpoint step. Shards are the *localized* recovery tier: after a
    /// single rank death the next epoch starts from the dead rank's shard
    /// plus the survivors' in-memory copies of theirs, without reading
    /// the global checkpoint.
    pub shards: bool,
}

/// Options for a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Integration options. Thermodynamic output is reduced only on the
    /// thermo steps (the paper's reduced output frequency, §5.4).
    pub md: MdOptions,
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
    /// How many failed epochs the supervisor may restart from the global
    /// rotation before giving up with [`RunError::RetriesExhausted`].
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
    /// How many failed epochs the supervisor may restart from the shards
    /// in one run; past it every failure goes to the global rotation.
    /// Only meaningful with [`ParallelCkpt::shards`].
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
    /// Failed epochs the supervisor restarted from the per-rank shards
    /// (the localized recovery tier) instead of the global rotation.
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
    if grid_dims.contains(&0) {
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
    let mut schedule =
        Schedule::new(opts.md.rebuild_every, opts.md.thermo_every).map_err(RunError::Config)?;
    schedule.end = end_step;
    schedule.checkpoint_every = opts.checkpoint.as_ref().map_or(0, |c| c.every);
    schedule.audit_every = opts.audit_every;
    schedule.report_every = opts.report_every;
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
            &schedule,
            halo,
            faults.clone(),
        );
        reduce_operations += epoch.reduce_operations;
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
            let progress = MdProgress {
                step: end_step,
                rng_draws: start_rng,
            };
            let atoms = epoch.outcomes.iter().flat_map(|o| o.state.owned_atoms());
            let Some(last) = assemble(atoms, sys.len(), sys.cell, &sys.masses, progress) else {
                // only reachable if migrate lost or duplicated an atom
                let failure = AuditFailure {
                    rank: 0,
                    step: end_step,
                    check: "atom_count",
                    detail: "the final gather does not hold every atom id once".into(),
                };
                return Err(RunError::Audit { failure });
            };
            let mut rank_stats: Vec<RankStats> =
                epoch.outcomes.iter().map(|o| o.stats.clone()).collect();
            rank_stats.sort_by_key(|s| s.rank);
            let flops = dp_obs::counter("flops").get().saturating_sub(epoch_flops0);
            let imbalance = build_imbalance(
                &rank_stats,
                grid.n_ranks(),
                (end_step - start_step) as u64,
                flops,
            );
            return Ok(ParallelRun {
                thermo: accum.into_values().collect(),
                steps: n_steps,
                loop_time: start.elapsed(),
                rank_stats,
                system: last.restore().0,
                reduce_operations,
                recoveries,
                local_recoveries,
                recovered_from,
                imbalance,
                flops,
            });
        };

        // failed epoch: count it and leave the dead rank's last-N-steps
        // window behind before deciding anything
        dp_obs::counter("fault.detected").add(1);
        for o in epoch.root_causes() {
            let dump = dp_obs::flight::dump_rank(o.rank, "rank_death");
            emit_flight_lines(dump.into_iter().collect());
        }
        record_failed_epoch_metrics(&epoch, start_step, sys.len());
        // an invariant-audit violation is evidence of state corruption:
        // fail fast with the typed report instead of recovering — a
        // checkpoint written after the violation cannot be trusted either
        if let Some(failure) = epoch.outcomes.iter().find_map(|o| o.audit.clone()) {
            dp_obs::counter("audit.failed").add(1);
            emit_flight_lines(dp_obs::flight::dump("audit_failure"));
            return Err(RunError::Audit { failure });
        }
        let Some(ck) = opts.checkpoint.as_ref().filter(|c| c.every > 0) else {
            emit_flight_lines(dp_obs::flight::dump("rank_failure"));
            return Err(RunError::RankFailure { failure });
        };

        let _span = dp_obs::span("recovery_reload");
        let t0 = Instant::now();
        let mut from_shards = None;
        if ck.shards && local_recoveries < opts.max_local_recoveries {
            dp_obs::counter("recovery.local.attempt").add(1);
            match shard_checkpoint(&epoch, ck, sys, start_step, end_step) {
                Ok(snap) => from_shards = Some(snap),
                Err(why) => {
                    eprintln!(
                        "warning: localized recovery failed ({why}); \
                         escalating to global checkpoint reload"
                    );
                    dp_obs::counter("recovery.local.fallback").add(1);
                }
            }
        }
        let snap = if let Some(snap) = from_shards {
            dp_obs::counter("recovery.local.success").add(1);
            local_recoveries += 1;
            snap
        } else {
            if recoveries >= opts.max_recoveries {
                emit_flight_lines(dp_obs::flight::dump("retries_exhausted"));
                return Err(RunError::RetriesExhausted {
                    attempts: recoveries,
                    last: failure,
                });
            }
            dp_obs::counter("recovery.attempt").add(1);
            emit_flight_lines(dp_obs::flight::dump("recovery_escalation"));
            recoveries += 1;
            let (snap, from) =
                MdCheckpoint::load(&ck.rotation).map_err(|e| RunError::Recovery {
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
            recovered_from.push(from);
            snap
        };
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
        record_recovery_latency(t0);
    }
}

/// The shard source: the global checkpoint of checkpoint step `s`,
/// assembled from the dead rank's shard file and every survivor's
/// in-memory copy of its own. It holds exactly what the global generation
/// written at `s` holds — both are taken after the step-`s` gather, and
/// the realignment between them only changes which rank owns an atom — so
/// the rotation's bit-exact replay argument covers it too. Refused unless
/// exactly one rank failed on its own and every piece is at one step `s`
/// inside the epoch window.
fn shard_checkpoint(
    epoch: &EpochOutcome,
    ck: &ParallelCkpt,
    sys: &System,
    start_step: usize,
    end_step: usize,
) -> Result<MdCheckpoint, String> {
    let mut dead = epoch.root_causes();
    let (Some(dead), None) = (dead.next(), dead.next()) else {
        return Err("not exactly one rank failed on its own".into());
    };
    let shard = RankShard::load(ck.rotation.base(), dead.rank)
        .map_err(|e| format!("rank {}'s shard: {e}", dead.rank))?;
    let progress = shard.state.progress;
    let s = progress.step;
    if s <= start_step || s >= end_step {
        return Err(format!(
            "shard step {s} outside the epoch window {start_step}..{end_step}"
        ));
    }
    let mut pieces = vec![&shard];
    for o in epoch.outcomes.iter().filter(|o| o.rank != dead.rank) {
        match &o.snap {
            Some(snap) if snap.state.progress.step == s => pieces.push(snap),
            _ => return Err(format!("rank {}'s snapshot is not at step {s}", o.rank)),
        }
    }
    let atoms = pieces.into_iter().flat_map(RankShard::atoms);
    assemble(atoms, sys.len(), sys.cell, &sys.masses, progress)
        .ok_or_else(|| format!("the step-{s} shards do not hold every atom once"))
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
        let last_step = epoch.best_thermo().last().map_or(start_step, |s| s.step);
        dp_obs::metrics::record_step(last_step as u64, n_atoms, epoch.wall);
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

// the unit tests reach the serial reference list through `super::*`
#[cfg(test)]
use dp_md::NeighborList;

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
            ..ParallelOptions::default()
        };
        let run = run_parallel_md(&sys, pot, [2, 2, 2], &opts, 100).unwrap();
        let total: usize = run.rank_stats.iter().map(|s| s.final_local).sum();
        assert_eq!(total, sys.len());
        // migrations definitely happened at 120 K over 100 steps
        assert!(run.rank_stats.iter().all(|s| s.rebuilds >= 1));
    }

    /// Thermo output is reduced only on the thermo steps (§5.4): 40 NVE
    /// steps at a stride of 20 reduce at steps 0, 20 and 40, nowhere else.
    #[test]
    fn thermo_reduces_only_on_output_steps() {
        let opts = ParallelOptions {
            md: MdOptions {
                thermo_every: 20,
                ..MdOptions::default()
            },
            ..ParallelOptions::default()
        };
        let run = run_parallel_md(&test_system(), lj(), [2, 1, 1], &opts, 40).unwrap();
        assert_eq!(run.reduce_operations, 3);
    }

    /// A zero rebuild-check or thermo stride is refused before any rank
    /// starts, not left to a rank's `step % 0`.
    #[test]
    fn zero_stride_is_a_config_error() {
        for (rebuild_every, thermo_every) in [(0, 20), (50, 0)] {
            let opts = ParallelOptions {
                md: MdOptions {
                    rebuild_every,
                    thermo_every,
                    ..MdOptions::default()
                },
                ..ParallelOptions::default()
            };
            let err = run_parallel_md(&test_system(), lj(), [2, 1, 1], &opts, 1).unwrap_err();
            assert!(matches!(err, RunError::Config(_)), "got {err:?}");
        }
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

    /// 20 steps on 2×1×1 from uniform `CounterRng` velocities (raw
    /// `next_u64`), with a rebuild (migrate + exchange) and a sharded
    /// checkpoint realignment on the way; returns the FNV-1a fold of
    /// `to_bits` over the final positions then velocities. The 5.0 Å cutoff
    /// keeps every pair out of the cosine switch window, so the run touches
    /// no libm beyond `sqrt` and one constant holds on any host.
    fn golden_run_2x1x1(tag: &str, thermostat: Option<dp_md::integrate::Berendsen>) -> u64 {
        let dir =
            std::env::temp_dir().join(format!("dp-parallel-golden-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sys = lattice::fcc(5.26, [4, 4, 4], 39.948);
        let mut rng = dp_md::CounterRng::new(2020);
        for v in &mut sys.velocities {
            for vd in v.iter_mut() {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                *vd = 4.0 * (u - 0.5);
            }
        }
        sys.zero_momentum();
        let opts = ParallelOptions {
            md: MdOptions {
                dt: 2.0e-3,
                skin: 0.1,
                rebuild_every: 5,
                thermo_every: 10,
                thermostat,
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
        h
    }

    /// Absolute result, re-pinned when the rank's rebuild trigger became
    /// the serial skin/2 rule.
    #[test]
    fn golden_bits_2x1x1_nve() {
        assert_eq!(golden_run_2x1x1("nve", None), 16_291_711_637_411_177_287);
    }

    /// Absolute result of the global Berendsen rescale from the all-reduced
    /// kinetic energy, re-pinned when the rank's rebuild trigger became the
    /// serial skin/2 rule.
    #[test]
    fn golden_bits_2x1x1_berendsen() {
        let b = dp_md::integrate::Berendsen {
            target_t: 60.0,
            tau: 0.05,
        };
        assert_eq!(
            golden_run_2x1x1("berendsen", Some(b)),
            2_112_133_884_823_662_884
        );
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
