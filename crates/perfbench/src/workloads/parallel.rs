//! `parallel_2x1x1`: `run_parallel_md` on a 2×1×1 rank grid.
//!
//! 1152 copper atoms split into two slabs of 576, each seeing ~500 ghosts
//! (halo 6.8 Å of a 14.5 Å slab): the strong-scaling-limit regime of
//! §7.2, where migrate / exchange / reverse force / allreduce / shard
//! write run every step and are not hidden behind compute.

use super::{
    copper_config_small, random_potential, repeat_setup, result, run_blocks, skin_for, Ctx,
    TimedPotential,
};
use crate::alloc;
use crate::host;
use crate::metrics::{Layers, RunResult};
use crate::probes::time_median;
use crate::stats::median;
use deepmd_core::PrecisionMode;
use dp_ckpt::Rotation;
use dp_md::integrate::{MdOptions, MdProgress};
use dp_md::{lattice, CounterRng, MdCheckpoint, Potential, System};
use dp_parallel::comm::Msg;
use dp_parallel::{
    run_parallel_md, Allreduce, ParallelCkpt, ParallelOptions, ParallelRun, RankComm,
};
use std::sync::Arc;
use std::time::Instant;

const GRID: [usize; 3] = [2, 1, 1];
const STEPS_PER_BLOCK: usize = 50;
const WARMUP_STEPS: usize = 10;
const CHECK_STEPS: usize = 20;
/// Last-sample total energy of the 2×1×1 run against the 1×1×1 run of
/// the same steps, eV per atom. Not bit-equal: ghost forces are summed in
/// a different order (`tests/parallel_dp.rs` promises 1e-7 Å, not bits),
/// and the nets run in f32. Measured difference here: 0 to 1e-12.
const ENERGY_TOL_EV_PER_ATOM: f64 = 1e-8;

struct State {
    sys: System,
    pot: Arc<dyn Potential>,
    opts: ParallelOptions,
}

fn setup(ctx: &Ctx) -> State {
    let mut sys = lattice::copper([8, 6, 6]);
    let mut rng = CounterRng::new(ctx.seed);
    sys.perturb(0.05, &mut rng);
    sys.init_velocities(300.0, &mut rng);
    let pot: Arc<dyn Potential> = Arc::new(random_potential(
        copper_config_small(),
        PrecisionMode::Mixed,
        ctx.seed,
    ));
    let opts = ParallelOptions {
        md: MdOptions {
            dt: 5.0e-4,
            skin: skin_for(&sys, pot.cutoff()),
            ..MdOptions::default()
        },
        checkpoint: Some(ParallelCkpt {
            every: STEPS_PER_BLOCK,
            rotation: Rotation::new(ctx.work.join("parallel.ckpt"), 2),
            shards: true,
        }),
        ..ParallelOptions::default()
    };
    let warm = run_parallel_md(&sys, pot.clone(), GRID, &opts, WARMUP_STEPS)
        .expect("fault-free warm-up block");
    State {
        sys: warm.system,
        pot,
        opts,
    }
}

fn total_energy_per_atom(run: &ParallelRun) -> f64 {
    run.thermo.last().map_or(f64::NAN, |s| s.total_energy()) / run.system.len() as f64
}

fn block(
    sys: &mut System,
    pot: &Arc<dyn Potential>,
    grid: [usize; 3],
    opts: &ParallelOptions,
) -> (f64, Option<ParallelRun>) {
    let t = Instant::now();
    let run = run_parallel_md(sys, pot.clone(), grid, opts, STEPS_PER_BLOCK);
    let secs = t.elapsed().as_secs_f64();
    let run = run.ok().filter(|r| {
        let locals: usize = r.rank_stats.iter().map(|s| s.final_local).sum();
        r.system.len() == sys.len() && locals == sys.len() && r.steps == STEPS_PER_BLOCK
    });
    if let Some(r) = &run {
        *sys = r.system.clone();
    }
    (secs, run)
}

pub fn run(ctx: &Ctx) -> RunResult {
    // both cores running before the set-up clock starts
    host::wake_cores(GRID.iter().product());
    let (mut st, setup_times) = repeat_setup(ctx, || setup(ctx));
    let n = st.sys.len();
    let atom_steps = (n * STEPS_PER_BLOCK) as f64;

    // Output check against one rank, outside the timed phase.
    let two = run_parallel_md(&st.sys, st.pot.clone(), GRID, &st.opts, CHECK_STEPS);
    let one = run_parallel_md(&st.sys, st.pot.clone(), [1, 1, 1], &st.opts, CHECK_STEPS);
    let agree = match (&two, &one) {
        (Ok(a), Ok(b)) => {
            (total_energy_per_atom(a) - total_energy_per_atom(b)).abs() <= ENERGY_TOL_EV_PER_ATOM
        }
        _ => false,
    };

    let timed = ctx.traced.then(|| {
        let inner: Arc<dyn Potential> = Arc::new(random_potential(
            copper_config_small(),
            PrecisionMode::Mixed,
            ctx.seed,
        ));
        // size one workspace per rank before anything is attributed to it
        let _ = run_parallel_md(&st.sys, inner.clone(), GRID, &st.opts, 1);
        alloc::arm();
        Arc::new(TimedPotential::new(
            st.pot.clone(),
            inner,
            ctx.tracer.clone(),
        ))
    });

    let mut traced_runs: Vec<ParallelRun> = Vec::new();
    let mut blocks = run_blocks(ctx, ctx.seconds, |id, traced| match (&timed, traced) {
        (Some(tp), true) => {
            let span = ctx.tracer.open("block", None, id, 0);
            tp.enter_block(Some(span), id);
            let pot: Arc<dyn Potential> = tp.clone();
            let (secs, run) = block(&mut st.sys, &pot, GRID, &st.opts);
            ctx.tracer.close(span);
            let ok = run.is_some();
            traced_runs.extend(run);
            (secs, ok)
        }
        _ => {
            let (secs, run) = block(&mut st.sys, &st.pot, GRID, &st.opts);
            (secs, run.is_some())
        }
    });
    blocks.failed += u64::from(!agree);

    let mut layers = Layers::default();
    if let Some(first) = traced_runs.first() {
        let steps = STEPS_PER_BLOCK as f64;
        let secs = |f: fn(&dp_parallel::driver::RankStats) -> std::time::Duration| -> Vec<f64> {
            (0..first.rank_stats.len())
                .map(|r| {
                    traced_runs
                        .iter()
                        .map(|run| f(&run.rank_stats[r]).as_secs_f64())
                        .sum()
                })
                .collect()
        };
        let (compute, comm, reduce) = (
            secs(|s| s.compute_time),
            secs(|s| s.comm_time),
            secs(|s| s.reduce_time),
        );
        let (neigh, io) = (secs(|s| s.neigh_time), secs(|s| s.io_time));
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        // io rides inside comm_time (the §7.3 fold); split it back out
        let total = sum(&compute) + sum(&comm) + sum(&reduce) + sum(&neigh);
        layers.set("parallel.compute_frac", sum(&compute) / total);
        layers.set("parallel.comm_frac", (sum(&comm) - sum(&io)) / total);
        layers.set("parallel.reduce_frac", sum(&reduce) / total);
        layers.set("parallel.neigh_frac", sum(&neigh) / total);
        layers.set("parallel.io_frac", sum(&io) / total);
        let max = compute.iter().cloned().fold(0.0, f64::max);
        layers.set(
            "parallel.rank_imbalance",
            max / (sum(&compute) / compute.len() as f64),
        );
        let ghosts: usize = first.rank_stats.iter().map(|s| s.last_ghosts).sum();
        layers.set("parallel.ghosts_per_local", ghosts as f64 / n as f64);
        // exact counts: the first traced block only
        let sent: u64 = first.rank_stats.iter().map(|s| s.ghost_atoms_sent).sum();
        layers.set("parallel.ghost_atoms_sent_per_step", sent as f64 / steps);
        layers.set(
            "parallel.reduce_ops_per_step",
            first.reduce_operations as f64 / steps,
        );
        layers.set(
            "linalg.flops_per_atom_step",
            first.flops as f64 / atom_steps,
        );
        let rebuilds: usize = traced_runs
            .iter()
            .flat_map(|r| &r.rank_stats)
            .map(|s| s.rebuilds)
            .sum();
        let rank_steps = steps * (traced_runs.len() * first.rank_stats.len()) as f64;
        layers.set(
            "parallel.rebuilds_per_100_steps",
            100.0 * rebuilds as f64 / rank_steps,
        );
        let flops: u64 = traced_runs.iter().map(|r| r.flops).sum();
        layers.set(
            "linalg.gflops",
            flops as f64 / blocks.traced.iter().sum::<f64>() / 1e9,
        );
        let (force_secs, _, _) = timed
            .as_ref()
            .expect("traced runs imply the adapter")
            .totals();
        // both ranks' force calls overlap in time; per atom-step this is
        // rank-seconds, not wall
        layers.set(
            "md.force.us_per_atom_step",
            force_secs * 1e6 / (atom_steps * traced_runs.len() as f64),
        );

        let (one_rank, _) = block(&mut st.sys.clone(), &st.pot, [1, 1, 1], &st.opts);
        layers.set(
            "parallel.speedup_vs_1rank",
            one_rank / median(&blocks.plain),
        );
        comm_replay(ghosts / GRID.iter().product::<usize>(), &mut layers);
        checkpoint_io(ctx, &mut layers);
        layers.set("trace.overhead_frac", blocks.trace_overhead());
    }
    let mut r = result(ctx, &blocks, atom_steps, &setup_times, layers);
    r.attempted += 1; // the one-rank agreement check
    r
}

/// Two-thread replay of the mesh primitives at the workload's ghost
/// payload: a position refresh bounced between two `RankComm` endpoints,
/// and a width-8 `Allreduce`.
fn comm_replay(ghosts_per_rank: usize, out: &mut Layers) {
    const ROUNDS: usize = 2000;
    let mut mesh = RankComm::mesh(2);
    let (b, a) = (
        mesh.pop().expect("two endpoints"),
        mesh.pop().expect("two endpoints"),
    );
    let payload = vec![[0.5f64; 3]; ghosts_per_rank];
    let reduce = &Allreduce::new(2, 8);
    let (sendrecv, allreduce) = std::thread::scope(|s| {
        // endpoints are `Send`, not `Sync`: each thread owns its own
        s.spawn(move || {
            let mut buf = [0.0f64; 8];
            for _ in 0..ROUNDS {
                let msg = b.recv(0).expect("peer alive");
                b.send(0, msg).expect("peer alive");
            }
            for _ in 0..ROUNDS {
                reduce
                    .reduce_into(1, &[1.0; 8], &mut buf)
                    .expect("peer alive");
            }
        });
        let t = Instant::now();
        for _ in 0..ROUNDS {
            a.send(1, Msg::GhostPositions(payload.clone()))
                .expect("peer alive");
            std::hint::black_box(a.recv(1).expect("peer alive"));
        }
        let sendrecv = t.elapsed().as_secs_f64();
        let mut buf = [0.0f64; 8];
        let t = Instant::now();
        for _ in 0..ROUNDS {
            reduce
                .reduce_into(0, &[1.0; 8], &mut buf)
                .expect("peer alive");
        }
        (sendrecv, t.elapsed().as_secs_f64())
    });
    // one send + one receive is half a round trip
    out.set(
        "parallel.comm.sendrecv_us",
        sendrecv * 1e6 / (2 * ROUNDS) as f64,
    );
    out.set(
        "parallel.comm.allreduce_us",
        allreduce * 1e6 / ROUNDS as f64,
    );
}

/// `MdCheckpoint::save` / `load` of a 4000-atom state into a rotation.
fn checkpoint_io(ctx: &Ctx, out: &mut Layers) {
    let sys = lattice::copper([10, 10, 10]);
    let ckpt = MdCheckpoint::capture(&sys, MdProgress::default());
    let rot = Rotation::new(ctx.work.join("probe.ckpt"), 2);
    let mut path = None;
    let write = time_median(20, || path = ckpt.save(&rot).ok());
    let read = time_median(20, || {
        std::hint::black_box(MdCheckpoint::load(&rot).ok());
    });
    let bytes = path
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    out.set("ckpt.write_us", write * 1e6);
    out.set("ckpt.read_us", read * 1e6);
    out.set("ckpt.bytes", bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn traced_pass(seed: u64) -> Layers {
        let work =
            std::env::temp_dir().join(format!("perfbench-test-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        let ctx = Ctx {
            seed,
            seconds: 0.5, // the smoke scale: two blocks, one of them traced
            traced: true,
            work: work.clone(),
            dpmd: "unused".into(),
            tracer: Tracer::new(),
        };
        let r = run(&ctx);
        let _ = std::fs::remove_dir_all(&work);
        assert_eq!(r.failed, 0, "an output check failed");
        r.layers
    }

    /// The counts a later change may cite as evidence must repeat exactly:
    /// same seed, same counts. Another seed may move only what positions
    /// decide — and a 0.05 Å thermal perturbation moves no atom of this
    /// crystal across the 6.8 Å halo, so here even the ghost traffic
    /// agrees; the FLOPs of a fixed-shape model never depend on the seed.
    #[test]
    fn exact_counts_repeat_per_seed() {
        let (a, again, other) = (traced_pass(5), traced_pass(5), traced_pass(6));
        for name in [
            "linalg.flops_per_atom_step",
            "parallel.ghost_atoms_sent_per_step",
            "parallel.reduce_ops_per_step",
        ] {
            assert!(a.get(name).unwrap() > 0.0, "{name}");
            assert_eq!(
                a.get(name),
                again.get(name),
                "{name} differs between two runs of one seed"
            );
        }
        assert_eq!(
            a.get("linalg.flops_per_atom_step"),
            other.get("linalg.flops_per_atom_step")
        );
        assert_eq!(
            a.get("parallel.reduce_ops_per_step"),
            other.get("parallel.reduce_ops_per_step")
        );
        assert_ne!(
            a.get("md.force.us_per_atom_step"),
            other.get("md.force.us_per_atom_step"),
            "timings never repeat"
        );
    }
}
