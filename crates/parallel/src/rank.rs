//! One rank's side of an epoch: the rank threads [`run_epoch`] spawns,
//! the Velocity–Verlet step loop each runs, and the outcome each hands
//! back to the supervisor in [`crate::driver`].
//!
//! A rank drives `dp_md::integrate`'s [`Stepper`] on its [`Schedule`];
//! [`Rank`] is the [`Domain`] that makes the step collective. The loop adds
//! only the fault hooks, the force call with its reverse comm, the reduced
//! thermo record, the checkpoint gather, the audit, the heartbeat and the
//! flight record.

use crate::audit::audit_step;
use crate::comm::{Allreduce, CommError, Msg, OwnedAtom, RankComm};
use crate::driver::{AuditFailure, ParallelCkpt, ParallelOptions, RankStats};
use crate::fault::{self, FaultState};
use crate::grid::DomainGrid;
use crate::halo::{exchange, forward_comm, migrate, reverse_comm, RankState};
use crate::shard::{assemble, shard_rotation, RankShard};
use dp_md::integrate::{Domain, MdProgress, Schedule, Stepper, ThermoSample};
use dp_md::{units, NeighborList, Potential, PotentialOutput, System};
use dp_obs::{ImbalanceReport, Registry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one rank thread produced, successful or not.
pub(crate) struct RankOutcome {
    pub(crate) rank: usize,
    pub(crate) state: RankState,
    pub(crate) stats: RankStats,
    /// Thermo samples recorded before any failure. Every sample here went
    /// through a completed (hence globally identical) reduction, so any
    /// rank's vector is a prefix of the true sequence.
    pub(crate) thermo: Vec<ThermoSample>,
    pub(crate) failure: Option<String>,
    /// The failure is a cascade: this rank saw a peer die
    /// ([`CommError::PeerFailed`]) rather than failing on its own.
    pub(crate) cascade: bool,
    /// The invariant-audit violation this rank failed with, if any.
    pub(crate) audit: Option<AuditFailure>,
    /// In-memory copy of the shard this rank wrote at its last checkpoint
    /// step of the epoch (shards on only).
    pub(crate) snap: Option<RankShard>,
}

pub(crate) struct EpochOutcome {
    pub(crate) outcomes: Vec<RankOutcome>,
    pub(crate) reduce_operations: u64,
    pub(crate) wall: Duration,
    /// Per-rank observability registries the rank threads recorded into
    /// (spans, latency histograms, trace lanes), indexed by rank.
    pub(crate) registries: Vec<Arc<Registry>>,
}

impl EpochOutcome {
    /// The ranks that failed on their own, not by cascade.
    pub(crate) fn root_causes(&self) -> impl Iterator<Item = &RankOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.failure.is_some() && !o.cascade)
    }

    /// Diagnose with the root cause — the failing rank's own report — and
    /// fall back to a cascade only if no rank failed on its own.
    pub(crate) fn failure(&self) -> Option<&str> {
        self.root_causes()
            .chain(self.outcomes.iter())
            .find_map(|o| o.failure.as_deref())
    }

    /// Longest recorded thermo prefix across ranks.
    pub(crate) fn best_thermo(&self) -> &[ThermoSample] {
        self.outcomes
            .iter()
            .map(|o| o.thermo.as_slice())
            .max_by_key(|t| t.len())
            .unwrap_or(&[])
    }
}

/// Why `rank_loop` ended early.
#[derive(Debug)]
pub(crate) enum RankError {
    Comm(CommError),
    Audit(AuditFailure),
}

impl From<CommError> for RankError {
    fn from(e: CommError) -> Self {
        RankError::Comm(e)
    }
}

/// Everything a rank thread needs besides its own mutable state. All
/// referents live in `run_epoch`'s frame, which outlives the scope.
pub(crate) struct RankCtx<'a> {
    pub(crate) grid: &'a DomainGrid,
    pot: &'a Arc<dyn Potential>,
    pub(crate) opts: &'a ParallelOptions,
    start_rng: u64,
    schedule: &'a Schedule,
    pub(crate) halo: f64,
    /// Global atom count (the atom-count conservation target).
    pub(crate) n_atoms: usize,
    thermo_reduce: &'a Allreduce,
    flag_reduce: &'a Allreduce,
    stats_gather: &'a Allreduce,
    pub(crate) audit_reduce: &'a Allreduce,
    pub(crate) faults: Option<&'a FaultState>,
    /// Base path of the per-rank shard files (shards on only).
    shards: Option<&'a Path>,
}

fn poison_all(ctx: &RankCtx<'_>, rank: usize) {
    ctx.thermo_reduce.poison(rank);
    ctx.flag_reduce.poison(rank);
    ctx.stats_gather.poison(rank);
    ctx.audit_reduce.poison(rank);
}

/// The body of one rank thread: run `rank_loop` under `catch_unwind` and
/// report how it ended. A failing rank poisons the reduction barriers and
/// drops its mesh endpoint on the way out, so every peer blocked on it
/// wakes with [`CommError::PeerFailed`] instead of waiting out the
/// deadline.
fn rank_thread(
    ctx: &RankCtx<'_>,
    registry: Arc<Registry>,
    mut st: RankState,
    comm: RankComm,
    start_step: usize,
) -> RankOutcome {
    let _obs_scope = dp_obs::scope(registry);
    let rank = st.rank;
    let mut stats = RankStats {
        rank,
        ..RankStats::default()
    };
    let (mut thermo, mut snap) = (Vec::new(), None);
    let mut r = Rank {
        st: &mut st,
        stats: &mut stats,
        thermo: &mut thermo,
        snap: &mut snap,
        comm: &comm,
        ctx,
    };
    let res = catch_unwind(AssertUnwindSafe(|| rank_loop(&mut r, start_step)));
    let (failure, cascade, audit) = match res {
        Ok(Ok(())) => (None, false, None),
        Ok(Err(RankError::Comm(e))) => (
            Some(format!("rank {rank}: {e}")),
            matches!(e, CommError::PeerFailed { .. }),
            None,
        ),
        Ok(Err(RankError::Audit(af))) => (Some(format!("rank {rank}: {af}")), false, Some(af)),
        Err(payload) => (
            Some(fault::describe_panic(rank, payload.as_ref())),
            false,
            None,
        ),
    };
    if failure.is_some() {
        poison_all(ctx, rank);
    }
    drop(comm);
    stats.final_local = st.ids.len();
    RankOutcome {
        rank,
        state: st,
        stats,
        thermo,
        failure,
        cascade,
        audit,
        snap,
    }
}

/// Scatter the state, spawn one thread per rank, run the step loop under
/// `catch_unwind`, and collect every rank's outcome (never panics).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_epoch(
    sys: &System,
    pot: &Arc<dyn Potential>,
    grid: &DomainGrid,
    opts: &ParallelOptions,
    start_step: usize,
    start_rng: u64,
    schedule: &Schedule,
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
        initial[grid.rank_of_position(sys.positions[i])].push_owned(OwnedAtom {
            id: i as u64,
            ty: sys.types[i] as u32,
            position: sys.cell.wrap(sys.positions[i]),
            velocity: sys.velocities[i],
            force: sys.forces[i],
        });
    }

    let mesh = RankComm::mesh_with(n_ranks, opts.comm_deadline, faults.clone());
    let thermo_reduce = Allreduce::with_deadline(n_ranks, 9, opts.comm_deadline);
    let flag_reduce = Allreduce::with_deadline(n_ranks, 1, opts.comm_deadline);
    // dedicated barrier for the heartbeat allgather ([compute, comm,
    // wait, wall] seconds per rank) so it never shares a generation with
    // the thermo/flag reductions
    let stats_gather = Allreduce::with_deadline(n_ranks, 4, opts.comm_deadline);
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

    // per-rank shards next to the rotation; any shard files left over
    // from a previous (failed) epoch are stale relative to this epoch's
    // replay position, so clear them first
    let shard_base = opts
        .checkpoint
        .as_ref()
        .filter(|c| c.every > 0 && c.shards)
        .map(|c| c.rotation.base());
    if let Some(base) = shard_base {
        for r in 0..n_ranks {
            let _ = std::fs::remove_file(shard_rotation(base, r).base());
        }
    }
    // dedicated barrier for the invariant audit (width 4) so it never
    // shares a generation with the thermo/flag/heartbeat reductions
    let audit_reduce = Allreduce::with_deadline(n_ranks, 4, opts.comm_deadline);
    let ctx = RankCtx {
        grid,
        pot,
        opts,
        start_rng,
        schedule,
        halo,
        n_atoms: sys.len(),
        thermo_reduce: &thermo_reduce,
        flag_reduce: &flag_reduce,
        stats_gather: &stats_gather,
        audit_reduce: &audit_reduce,
        faults: faults.as_deref(),
        shards: shard_base,
    };
    let start = Instant::now();

    let outcomes: Vec<RankOutcome> = std::thread::scope(|scope| {
        let threads: Vec<_> = initial
            .into_iter()
            .zip(mesh)
            .map(|(state, comm)| {
                let (ctx, registry) = (&ctx, registries[state.rank].clone());
                scope.spawn(move || rank_thread(ctx, registry, state, comm, start_step))
            })
            .collect();
        threads
            .into_iter()
            .enumerate()
            .map(|(rank, thread)| {
                thread.join().unwrap_or_else(|_| RankOutcome {
                    rank,
                    state: empty_state(rank),
                    stats: RankStats {
                        rank,
                        ..RankStats::default()
                    },
                    thermo: Vec::new(),
                    failure: Some(format!("rank {rank} thread aborted outside catch_unwind")),
                    cascade: false,
                    audit: None,
                    snap: None,
                })
            })
            .collect()
    });
    EpochOutcome {
        outcomes,
        reduce_operations: thermo_reduce.operations(),
        wall: start.elapsed(),
        registries,
    }
}

/// One rank's atoms, statistics and output, with the mesh and the epoch
/// context: the [`Domain`] the rank's [`Stepper`] advances.
pub(crate) struct Rank<'a> {
    pub(crate) st: &'a mut RankState,
    stats: &'a mut RankStats,
    /// Thermo samples recorded so far (see [`RankOutcome::thermo`]).
    thermo: &'a mut Vec<ThermoSample>,
    /// The shard of the last realignment (see [`RankOutcome::snap`]).
    snap: &'a mut Option<RankShard>,
    pub(crate) comm: &'a RankComm,
    pub(crate) ctx: &'a RankCtx<'a>,
}

impl Rank<'_> {
    /// `f` as one communication phase: a `name` span, its time in
    /// `comm_time` (and in `io_time` too for `"io"`).
    fn comm_phase<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> Result<R, CommError>,
    ) -> Result<R, CommError> {
        let (res, d) = dp_obs::timed(name, || f(self));
        self.stats.comm_time += d;
        if name == "io" {
            self.stats.io_time += d;
        }
        res
    }

    /// Sum `x` over the ranks into `sum` through `on`.
    pub(crate) fn reduce(
        &mut self,
        on: &Allreduce,
        x: &[f64],
        sum: &mut [f64],
    ) -> Result<(), CommError> {
        let (res, d) = dp_obs::timed("reduce", || on.reduce_into(self.st.rank, x, sum));
        self.stats.reduce_time += d;
        res
    }
}

/// A rank of the decomposed box: the skin test (the serial skin/2 rule over
/// the owned atoms, see [`NeighborList::needs_rebuild`]) and the
/// temperature are all-reduced, a list build follows a migrate and a full
/// ghost exchange, every other step refreshes the ghost positions.
impl Domain for Rank<'_> {
    type Error = CommError;

    fn sys(&mut self) -> &mut System {
        &mut self.st.sys
    }

    fn refresh(&mut self, nl: &NeighborList, skin: f64, check: bool) -> Result<bool, CommError> {
        let mut flag = [0.0];
        if check {
            let moved = f64::from(u8::from(nl.needs_rebuild(&self.st.sys, skin)));
            self.reduce(self.ctx.flag_reduce, &[moved], &mut flag)?;
        }
        let (grid, halo) = (self.ctx.grid, self.ctx.halo);
        if flag[0] > 0.0 {
            self.comm_phase("ghost_exchange", |r| {
                migrate(r.st, r.comm, grid)?;
                exchange(r.st, r.comm, grid, halo, r.stats)
            })?;
        } else {
            self.comm_phase("comm", |r| forward_comm(r.st, r.comm))?;
        }
        Ok(flag[0] > 0.0)
    }

    fn temperature(&mut self) -> Result<f64, CommError> {
        let mut payload = [0.0; 9];
        payload[0] = self.st.sys.kinetic_energy();
        payload[1] = self.st.ids.len() as f64;
        let mut tot = [0.0; 9];
        self.reduce(self.ctx.thermo_reduce, &payload, &mut tot)?;
        Ok(units::temperature(tot[0], tot[1] as usize))
    }

    /// Owner = rank_of_position, locals in global-id order (this rank's
    /// shard written and kept in memory at that instant), fresh exchange:
    /// the state a restart from the checkpoint reconstructs, bit for bit.
    fn realign(&mut self, step: usize) -> Result<(), CommError> {
        let (ctx, grid) = (self.ctx, self.ctx.grid);
        self.comm_phase("ghost_exchange", |r| {
            migrate(r.st, r.comm, grid)?;
            r.st.sort_locals_by_id();
            Ok(())
        })?;
        if let Some(base) = ctx.shards {
            let (rank, shard) = (self.st.rank, self.st.capture_shard(step, ctx.start_rng));
            self.comm_phase("io", |_| {
                match shard.save(base) {
                    Ok(path) => {
                        let torn = ctx.faults.is_some_and(|f| f.shard_sabotage(rank, step));
                        if torn
                            && fault::sabotage_file(&path, fault::CkptSabotage::TornWrite).is_ok()
                        {
                            dp_obs::counter("fault.shard_sabotaged").add(1);
                        }
                    }
                    Err(e) => eprintln!(
                        "warning: rank {rank} shard write at step {step} failed ({e}); \
                         localized recovery may fall back"
                    ),
                }
                Ok(())
            })?;
            *self.snap = Some(shard);
        }
        self.comm_phase("ghost_exchange", |r| {
            exchange(r.st, r.comm, grid, ctx.halo, r.stats)
        })
    }

    fn built(&mut self, d: Duration) {
        self.stats.neigh_time += d;
        self.stats.rebuilds += 1;
    }
}

fn rank_loop(r: &mut Rank<'_>, start_step: usize) -> Result<(), RankError> {
    let ctx = r.ctx;
    let (md, schedule, faults) = (&ctx.opts.md, ctx.schedule, ctx.faults);
    let pot: &dyn Potential = ctx.pot.as_ref();
    let n_ranks = r.comm.to.len();
    let mut last_audit_step: Option<usize> = None;
    // heartbeat bookkeeping: the stats and time of the last report, plus
    // a reusable allgather buffer
    let mut hb_all = vec![0.0f64; 4 * n_ranks];
    let (mut hb_mark, mut hb_wall) = (r.stats.clone(), Instant::now());

    // initial exchange + list build; the neighbor list (plus scratch) and
    // force output allocated here are reused by every later step (§5.2.2
    // arena reuse), and the force provider reads the rank's own `System`
    r.comm_phase("ghost_exchange", |r| {
        exchange(r.st, r.comm, ctx.grid, ctx.halo, r.stats)
    })?;
    let mut stepper = Stepper::new(r, pot.cutoff(), md, ctx.start_rng);
    let mut out = PotentialOutput::zeros(r.st.sys.len());
    if start_step == 0 {
        // fresh run: evaluate initial forces and record the step-0 sample
        eval_forces(r, pot, stepper.neighbor_list(), &mut out)?;
        record(r, 0, &out)?;
    }
    // A resumed epoch (start_step > 0) reuses the forces the checkpoint
    // carried (scattered with the atoms) instead of re-evaluating: the
    // force summation order at the checkpoint instant is thereby replayed
    // exactly, and the sample the original run already recorded at the
    // checkpoint step is not re-emitted. The collective schedule stays
    // identical because start_step is rank-uniform.

    for step in start_step + 1..=schedule.end {
        let step_t0 = dp_obs::enabled().then(Instant::now);
        // marks for the flight recorder: deltas over this step become one
        // StepRecord in this rank's post-mortem ring
        let fr_mark = step_t0.map(|_| (r.stats.clone(), dp_obs::counter("flops").get()));
        if faults.is_some_and(|f| f.should_kill(r.st.rank, step)) {
            fault::kill_current_rank(r.st.rank, step);
        }

        stepper.advance_to_force(r, md, step)?;
        eval_forces(r, pot, stepper.neighbor_list(), &mut out)?;
        stepper.finish(r, md)?;
        if schedule.thermo(step) {
            record(r, step, &out)?;
        }

        // global checkpoint gather, then the realignment every rank (and a
        // restart from the checkpoint) shares
        if let (true, Some(ck)) = (schedule.checkpoint(step), &ctx.opts.checkpoint) {
            r.comm_phase("io", |r| gather_checkpoint(r, step, ck))?;
            if step < schedule.end {
                stepper.checkpoint(r, step)?;
            }
        }

        // periodic conservation audit; violations are typed and fail fast
        if schedule.audit(step) {
            audit_step(r, step, &mut last_audit_step)?;
            r.stats.audits_passed += 1;
        }

        // live load-balance heartbeat: allgather this interval's per-phase
        // time deltas, rank 0 reports
        if schedule.heartbeat(step) {
            let (s, m) = (&r.stats, &hb_mark);
            let contribution = [
                (s.compute_time - m.compute_time).as_secs_f64(),
                (s.comm_time - m.comm_time).as_secs_f64(),
                (s.reduce_time - m.reduce_time).as_secs_f64(),
                hb_wall.elapsed().as_secs_f64(),
            ];
            let (res, d) = dp_obs::timed("reduce", || {
                ctx.stats_gather
                    .gather_into(r.st.rank, &contribution, &mut hb_all)
            });
            r.stats.reduce_time += d;
            res?;
            if r.st.rank == 0 {
                emit_heartbeat(step, n_ranks, schedule.report_every, &hb_all);
            }
            (hb_mark, hb_wall) = (r.stats.clone(), Instant::now());
        }

        if let (Some(t0), Some((m, flops))) = (step_t0, fr_mark) {
            dp_obs::hist::record("step_wall_ns", t0.elapsed().as_nanos() as u64);
            let us = |d: Duration| d.as_micros() as u64;
            let s = &r.stats;
            let comm_us = us(s.comm_time - m.comm_time);
            let io_us = us(s.io_time - m.io_time);
            let ghosts = s.ghost_atoms_sent - m.ghost_atoms_sent;
            dp_obs::flight::record(
                r.st.rank,
                dp_obs::flight::StepRecord {
                    step: step as u64,
                    wall_us: t0.elapsed().as_micros() as u64,
                    compute_us: us(s.compute_time - m.compute_time),
                    // io rides inside comm_time (the §7.3 fold); report
                    // the two disjointly here
                    comm_us: comm_us.saturating_sub(io_us),
                    wait_us: us(s.reduce_time - m.reduce_time),
                    neigh_us: us(s.neigh_time - m.neigh_time),
                    io_us,
                    ghost_atoms: ghosts,
                    // 3 f64 coordinates per ghost atom forwarded
                    bytes: ghosts * 24,
                    flops: dp_obs::counter("flops").get().saturating_sub(flops),
                },
            );
        }
    }
    Ok(())
}

/// The rank's force call: evaluate over owned atoms + ghosts, store into
/// the rank's forces, then reverse-communicate the ghost share to its
/// owners.
fn eval_forces(
    r: &mut Rank<'_>,
    pot: &dyn Potential,
    nl: &NeighborList,
    out: &mut PotentialOutput,
) -> Result<(), CommError> {
    let ((), d) = dp_obs::timed("force_eval", || pot.compute_into(&r.st.sys, nl, out));
    r.stats.compute_time += d;
    r.st.sys.forces.clone_from(&out.forces);
    reverse_comm(r.st, r.comm)
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
fn record(r: &mut Rank<'_>, step: usize, out: &PotentialOutput) -> Result<(), CommError> {
    let mut payload = [0.0; 9];
    payload[0] = out.energy;
    payload[1] = r.st.sys.kinetic_energy();
    payload[2..8].copy_from_slice(&out.virial);
    payload[8] = r.st.ids.len() as f64;
    let mut tot = [0.0; 9];
    r.reduce(r.ctx.thermo_reduce, &payload, &mut tot)?;
    let n = tot[8] as usize;
    let temperature = units::temperature(tot[1], n);
    let virial = [tot[2], tot[3], tot[4], tot[5], tot[6], tot[7]];
    r.thermo.push(ThermoSample {
        step,
        potential_energy: tot[0],
        kinetic_energy: tot[1],
        temperature,
        pressure: units::pressure(n, temperature, &virial, r.st.sys.cell.volume()),
    });
    Ok(())
}

/// Gather every rank's local atoms to rank 0 and write one global
/// checkpoint. Non-zero ranks send and return immediately; rank 0 scatters
/// the atoms back into original id order (the order `run_parallel_md`
/// accepts as input, so restarts may re-decompose onto any grid). Write
/// failures are reported but never abort the run — losing one checkpoint
/// generation is strictly better than losing the trajectory.
fn gather_checkpoint(r: &Rank<'_>, step: usize, ck: &ParallelCkpt) -> Result<(), CommError> {
    let (st, comm) = (&*r.st, r.comm);
    let mine: Vec<_> = st.owned_atoms().collect();
    if st.rank != 0 {
        return comm.send(0, Msg::CkptAtoms(mine));
    }
    let n_ranks = comm.to.len();
    let mut atoms = mine;
    for src in 1..n_ranks {
        match comm.recv(src)? {
            Msg::CkptAtoms(v) => atoms.extend(v),
            _ => return Err(CommError::protocol(src, "CkptAtoms")),
        }
    }
    let (n, cell) = (atoms.len(), st.sys.cell);
    let progress = MdProgress {
        step,
        rng_draws: r.ctx.start_rng,
    };
    let snap = assemble(atoms, n, cell, &st.sys.masses, progress);
    let snap = snap.ok_or(CommError::protocol(0, "every atom id exactly once"))?;
    match snap.save(&ck.rotation) {
        // damage the generation just written — the rotation fallback must
        // survive this on the next reload
        Ok(path) => {
            if let Some(what) = r.ctx.faults.and_then(|f| f.ckpt_sabotage(step)) {
                if fault::sabotage_file(&path, what).is_ok() {
                    dp_obs::counter("fault.ckpt_sabotaged").add(1);
                }
            }
        }
        Err(e) => eprintln!("warning: checkpoint write at step {step} failed ({e}); run continues"),
    }
    Ok(())
}
