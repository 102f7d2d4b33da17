//! `ensemble_8x81`: the multi-replica engine's tick loop.
//!
//! Eight 81-atom water replicas on a temperature ladder share one model;
//! every tick joins all eight formatted tables into one `core::batch`
//! evaluation (8 items per batch, against 1–2 on the serve path — the
//! same layer used differently), with an exchange round every 10 ticks.

use super::{
    random_potential, repeat_setup, result, run_blocks, skin_for, water_config_small, Ctx,
};
use crate::alloc;
use crate::metrics::{Layers, RunResult};
use crate::probes::batch_probes;
use crate::stats::median;
use deepmd_core::{DeepPotential, PrecisionMode};
use dp_linalg::FlopCounter;
use dp_md::integrate::run_md;
use dp_md::{lattice, CounterRng, Potential, System};
use dp_replica::{replica_seed, EnsembleEngine, EnsembleOptions};
use std::sync::Arc;
use std::time::Instant;

const REPLICAS: usize = 8;
const TICKS_PER_BLOCK: usize = 40;
const CHECK_TICKS: usize = 20;

fn ladder() -> Vec<f64> {
    (0..REPLICAS).map(|k| 280.0 + 10.0 * k as f64).collect()
}

fn options(
    base: &System,
    pot: &DeepPotential,
    seed: u64,
    exchange_every: usize,
) -> EnsembleOptions {
    EnsembleOptions {
        dt: 5.0e-4,
        skin: skin_for(base, pot.cutoff()),
        berendsen_tau: Some(0.1),
        mode: PrecisionMode::Mixed,
        exchange_every,
        seed,
        // threads only where the program asks for them: one evaluation
        // thread, so the batch is one join of all eight tables
        eval_threads: 1,
        ..EnsembleOptions::default()
    }
}

fn systems(seed: u64) -> Vec<System> {
    ladder()
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            let mut sys = lattice::water_box([3, 3, 3], 3.104);
            let mut rng = CounterRng::new(replica_seed(seed, k));
            sys.perturb(0.05, &mut rng);
            sys.init_velocities(t, &mut rng);
            sys
        })
        .collect()
}

struct State {
    engine: EnsembleEngine,
    pot: Arc<DeepPotential>,
}

fn setup(seed: u64) -> State {
    let pot = Arc::new(random_potential(
        water_config_small(),
        PrecisionMode::Mixed,
        seed,
    ));
    let sys = systems(seed);
    let opts = options(&sys[0], &pot, seed, 10);
    let mut engine = EnsembleEngine::new(pot.clone(), sys, &ladder(), opts);
    engine.run(TICKS_PER_BLOCK); // warm-up block
    State { engine, pot }
}

/// Exchange off, the engine's per-replica energies must be bit-equal to
/// `run_md` of each replica alone: batching may not change a single bit.
fn batched_equals_serial(pot: &Arc<DeepPotential>, seed: u64) -> bool {
    let sys = systems(seed);
    let opts = options(&sys[0], pot, seed, 0);
    let mut engine = EnsembleEngine::new(pot.clone(), sys.clone(), &ladder(), opts);
    engine.run(CHECK_TICKS);
    sys.into_iter().enumerate().all(|(k, mut s)| {
        let run = run_md(
            &mut s,
            pot.as_ref(),
            &opts.md_options_for(ladder()[k], k),
            CHECK_TICKS,
            |_| {},
        );
        let serial = run.thermo.last().expect("run_md records the last step");
        let batched = engine.replicas[k]
            .thermo
            .last()
            .expect("engine.run records the last step");
        serial.potential_energy.to_bits() == batched.potential_energy.to_bits()
            && serial.kinetic_energy.to_bits() == batched.kinetic_energy.to_bits()
    })
}

pub fn run(ctx: &Ctx) -> RunResult {
    let (mut st, setup_times) = repeat_setup(ctx, || setup(ctx.seed));
    let atoms = REPLICAS * st.engine.replicas[0].sys.len();
    let atom_steps = (atoms * TICKS_PER_BLOCK) as f64;
    let equal = batched_equals_serial(&st.pot, ctx.seed);
    if ctx.traced {
        alloc::arm();
    }

    let mut tick_secs: Vec<f64> = Vec::new();
    let (mut flops, mut first_flops) = (0u64, None);
    let (mut evals, mut rebuilds, mut traced_ticks) = (0u64, 0u64, 0usize);
    let mut blocks = run_blocks(ctx, ctx.seconds, |id, traced| {
        let engine = &mut st.engine;
        let t = Instant::now();
        if traced {
            // per-tick spans: the only difference from an untraced block
            let (e0, r0) = (engine.evaluations(), engine.nl_rebuilds());
            let fc = FlopCounter::start();
            let block = ctx.tracer.open("block", None, id, 0);
            for _ in 0..TICKS_PER_BLOCK {
                let span = ctx.tracer.open("replica.tick", Some(block), id, 0);
                let t = Instant::now();
                engine.tick();
                tick_secs.push(t.elapsed().as_secs_f64());
                ctx.tracer.close(span);
            }
            ctx.tracer.close(block);
            first_flops.get_or_insert(fc.elapsed());
            flops += fc.elapsed();
            evals += engine.evaluations() - e0;
            rebuilds += engine.nl_rebuilds() - r0;
            traced_ticks += TICKS_PER_BLOCK;
        } else {
            for _ in 0..TICKS_PER_BLOCK {
                engine.tick();
            }
        }
        let secs = t.elapsed().as_secs_f64();
        let ok = engine.replicas.iter().all(|r| {
            r.potential_energy.is_finite()
                && r.sys.positions.iter().flatten().all(|x| x.is_finite())
        });
        (secs, ok)
    });
    blocks.failed += u64::from(!equal);

    let mut layers = Layers::default();
    if ctx.traced {
        let ticks = traced_ticks as f64;
        layers.set("replica.tick_us", median(&tick_secs) * 1e6);
        layers.set("replica.evals_per_tick", evals as f64 / ticks);
        layers.set(
            "replica.nl_rebuilds_per_100_ticks",
            100.0 * rebuilds as f64 / ticks,
        );
        layers.set(
            "linalg.flops_per_atom_step",
            first_flops.unwrap_or(0) as f64 / atom_steps,
        );
        layers.set(
            "linalg.gflops",
            flops as f64 / blocks.traced.iter().sum::<f64>() / 1e9,
        );
        // the same replicas one at a time through run_md, same step count
        let serial = Instant::now();
        for (k, r) in st.engine.replicas.iter().enumerate() {
            let md = st.engine.opts.md_options_for(r.target_t, k);
            run_md(
                &mut r.sys.clone(),
                st.pot.as_ref(),
                &md,
                TICKS_PER_BLOCK,
                |_| {},
            );
        }
        let serial = serial.elapsed().as_secs_f64();
        layers.set(
            "replica.batch_speedup_vs_serial",
            serial / median(&blocks.plain),
        );
        let replicas: Vec<&System> = st.engine.replicas.iter().map(|r| &r.sys).collect();
        batch_probes(&replicas, &st.pot, st.engine.opts.skin, &mut layers);
        layers.set("trace.overhead_frac", blocks.trace_overhead());
    }
    let mut r = result(ctx, &blocks, atom_steps, &setup_times, layers);
    r.attempted += 1; // the batched-equals-serial check
    r
}
