//! One rank's side of an epoch: the rank threads [`run_epoch`] spawns,
//! the Velocity–Verlet step loop each runs, and the outcome each hands
//! back to the supervisor in [`crate::driver`].

use crate::audit::audit_step;
use crate::comm::{Allreduce, CommError, Msg, OwnedAtom, RankComm};
use crate::driver::{AuditFailure, ParallelCkpt, ParallelOptions, RankStats};
use crate::fault::{self, FaultState};
use crate::grid::DomainGrid;
use crate::halo::{add_reverse_forces, exchange, forward_comm, migrate, reverse_comm, RankState};
use crate::shard::{assemble, shard_rotation, RankShard};
use dp_md::integrate::{self, MdProgress, ThermoSample};
use dp_md::{units, NeighborList, NlScratch, Potential, PotentialOutput, System};
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

    pub(crate) fn audit(&self) -> Option<&AuditFailure> {
        self.outcomes.iter().find_map(|o| o.audit.as_ref())
    }

    /// Longest recorded thermo prefix across ranks.
    pub(crate) fn best_thermo(&self) -> &[ThermoSample] {
        self.outcomes
            .iter()
            .map(|o| o.thermo.as_slice())
            .max_by_key(|t| t.len())
            .unwrap_or(&[])
    }

    pub(crate) fn last_step(&self, fallback: usize) -> usize {
        self.best_thermo().last().map_or(fallback, |s| s.step)
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

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::Comm(e) => write!(f, "{e}"),
            RankError::Audit(a) => write!(f, "{a}"),
        }
    }
}

/// Everything a rank thread needs besides its own mutable state. All
/// referents live in `run_epoch`'s frame, which outlives the scope.
pub(crate) struct RankCtx<'a> {
    pub(crate) grid: &'a DomainGrid,
    pot: &'a Arc<dyn Potential>,
    pub(crate) opts: &'a ParallelOptions,
    start_rng: u64,
    end_step: usize,
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
    let rank = st.rank;
    let mut stats = RankStats {
        rank,
        ..RankStats::default()
    };
    let mut thermo = Vec::new();
    let mut snap = None;
    let _obs_scope = dp_obs::scope(registry);
    let res = catch_unwind(AssertUnwindSafe(|| {
        rank_loop(
            &mut st,
            &comm,
            ctx,
            start_step,
            &mut stats,
            &mut thermo,
            &mut snap,
        )
    }));
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
        end_step,
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
                    // per-rank shard at the realigned instant. The same
                    // payload stays in memory: if a peer dies, this
                    // rank's piece of the shard source needs no disk.
                    if let Some(base) = ctx.shards {
                        let shard = st.capture_shard(step, start_rng);
                        let ((), d) = dp_obs::timed("io", || match shard.save(base) {
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
    let mine: Vec<_> = st.owned_atoms().collect();
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
    let (n, cell) = (atoms.len(), st.sys.cell);
    let progress = MdProgress { step, rng_draws };
    let snap = assemble(atoms, n, cell, &st.sys.masses, progress).ok_or(CommError::Protocol {
        from: 0,
        expected: "gathered atom ids covering 0..n_atoms once",
    })?;
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
