//! `water_paper_f64` and `copper_small_f32`: serial `run_md`.
//!
//! The pair is deliberate: the first is GEMM-dominated (the paper's
//! headline model on few atoms), the second overhead-dominated (tiny nets
//! on many atoms). A kernel change should move the first and not the
//! second; a neighbor/format change the reverse.
//!
//! The measured phase is **one** `run_md` call. Its thermo observer is
//! called every `steps_per_block` steps, and a block is the gap between
//! two observer calls: steady-state steps, one force evaluation each,
//! list rebuilds only when the skin test asks for one. What a call pays
//! before its first step (list build + first evaluation) is not in any
//! block; it is the `md.entry.us_per_atom` row. The step count is set
//! from the warm-up block so that the phase lasts about `--seconds`.

use super::{
    copper_config_small, net_force_share, paired_overhead, random_potential, repeat_setup, result,
    skin_for, Blocks, Ctx, TimedPotential,
};
use crate::alloc;
use crate::metrics::{Layers, RunResult};
use crate::probes;
use deepmd_core::profile::Profiler;
use deepmd_core::{DeepPotential, DpConfig, PrecisionMode};
use dp_linalg::FlopCounter;
use dp_md::integrate::{run_md, MdOptions, MdRun};
use dp_md::{lattice, CounterRng, NeighborList, Potential, System};
use std::sync::Arc;
use std::time::Instant;

pub struct Serial {
    config: fn() -> DpConfig,
    system: fn() -> System,
    mode: PrecisionMode,
    steps_per_block: usize,
    /// Also measure `obs.enabled_overhead_frac` in the traced pass.
    obs_overhead: bool,
}

pub const WATER_PAPER_F64: Serial = Serial {
    config: DpConfig::water_paper,
    system: || lattice::water_box([5, 5, 5], 3.104),
    mode: PrecisionMode::Double,
    steps_per_block: 1,
    obs_overhead: false,
};

pub const COPPER_SMALL_F32: Serial = Serial {
    config: copper_config_small,
    system: || lattice::copper([10, 10, 10]),
    mode: PrecisionMode::Mixed,
    steps_per_block: 4,
    obs_overhead: true,
};

const TEMPERATURE: f64 = 300.0;
/// 0.5 fs, the paper's water step.
const DT: f64 = 5.0e-4;
/// NVE check over one block: |ΔKE + ΔPE| may be at most this share of
/// |ΔPE| plus a floor. A wrong-signed or missing force leaves a ratio of
/// 2 or 1; a correct one measures 1e-3 in f64. With f32 nets a block
/// drifts up to 4e-9 eV/atom whatever the weights (250 blocks, 11 seeds),
/// which is more than some seeds' untrained models change the potential
/// energy by in a block. The floor is five times that, so on those seeds
/// the check cannot fail and `FORCE_SHARE_OFF_DOUBLE` is the one with power.
const DRIFT_SHARE_OF_DPE: f64 = 0.2;
const DRIFT_FLOOR_EV_PER_ATOM: f64 = 2e-8;
/// How far a force component of the phase's potential may be from the f64
/// evaluation of the same weights, as a share of the largest f64 force
/// component (the paper's mixed-against-double comparison, §5.2.3).
/// Measured 1e-6 to 3e-4 over 37 seeds.
const FORCE_SHARE_OFF_DOUBLE: f64 = 1e-2;
/// |ΣF| as a share of Σ|F|: Newton's third law, exact up to rounding in
/// the f64 force scatter.
const NET_FORCE_SHARE: f64 = 1e-6;

struct State {
    sys: System,
    pot: Arc<DeepPotential>,
    opts: MdOptions,
    /// Seconds of the warm-up block; sets the step count of the phase.
    block_secs: f64,
}

fn setup(w: &Serial, seed: u64) -> State {
    let mut sys = (w.system)();
    let mut rng = CounterRng::new(seed);
    sys.perturb(0.05, &mut rng);
    sys.init_velocities(TEMPERATURE, &mut rng);
    let pot = Arc::new(random_potential((w.config)(), w.mode, seed));
    let opts = MdOptions {
        dt: DT,
        skin: skin_for(&sys, pot.cutoff()),
        thermo_every: w.steps_per_block,
        ..MdOptions::default()
    };
    // warm-up block: workspaces sized, weights in cache
    let warm = phase(&mut sys, pot.as_ref(), &opts, 1, |_| {});
    State {
        sys,
        pot,
        opts,
        block_secs: warm.block_secs(0),
    }
}

/// What the observer notes at a block boundary.
struct Mark {
    /// The block before the boundary ends when the observer is entered…
    enter: Instant,
    /// …and the block after it starts when the observer returns.
    exit: Instant,
    /// Process-wide FLOPs and allocation calls up to the boundary.
    flops: u64,
    allocs: u64,
}

/// One `run_md` call seen through its thermo observer.
struct Phase {
    /// From the call to the first boundary: list build + first evaluation.
    entry_secs: f64,
    /// One per thermo sample of `run`: the number of blocks plus one.
    marks: Vec<Mark>,
    run: MdRun,
}

/// `n_blocks` blocks of `opts.thermo_every` steps in one `run_md` call.
/// `at_boundary(k)` runs between block `k - 1` and block `k`, outside both.
fn phase(
    sys: &mut System,
    pot: &dyn Potential,
    opts: &MdOptions,
    n_blocks: usize,
    mut at_boundary: impl FnMut(usize),
) -> Phase {
    let fc = FlopCounter::start();
    let mut marks = Vec::with_capacity(n_blocks + 1);
    let start = Instant::now();
    let run = run_md(sys, pot, opts, n_blocks * opts.thermo_every, |_| {
        let enter = Instant::now();
        let (flops, allocs) = (fc.elapsed(), alloc::read().0);
        at_boundary(marks.len());
        marks.push(Mark {
            enter,
            flops,
            allocs,
            exit: Instant::now(),
        });
    });
    Phase {
        entry_secs: (marks[0].enter - start).as_secs_f64(),
        marks,
        run,
    }
}

impl Phase {
    fn block_secs(&self, k: usize) -> f64 {
        (self.marks[k + 1].enter - self.marks[k].exit).as_secs_f64()
    }

    /// The NVE check over block `k`.
    fn conserves_energy(&self, k: usize, n_atoms: usize) -> bool {
        let (first, last) = (self.run.thermo[k], self.run.thermo[k + 1]);
        let n = n_atoms as f64;
        let drift = (last.total_energy() - first.total_energy()).abs() / n;
        let d_pe = (last.potential_energy - first.potential_energy).abs() / n;
        drift <= DRIFT_SHARE_OF_DPE * d_pe + DRIFT_FLOOR_EV_PER_ATOM
    }
}

pub fn run(w: &Serial, ctx: &Ctx) -> RunResult {
    let (mut st, setup_times) = repeat_setup(ctx, || setup(w, ctx.seed));
    let n = st.sys.len();
    let steps = w.steps_per_block;
    let atom_steps = (n * steps) as f64;
    // a traced pass spends half its time here and half in the probes; at
    // least two blocks, so that it has one of each kind
    let budget = if ctx.traced {
        0.5 * ctx.seconds
    } else {
        ctx.seconds
    };
    let n_blocks = ((budget / st.block_secs).round() as usize).max(2);

    // Odd blocks of a traced pass run a second potential over the same
    // weights with the Fig 3 profiler installed, behind the timing adapter.
    let is_traced = |k: usize| ctx.traced && k % 2 == 1;
    let prof = Arc::new(Profiler::new());
    let timed = ctx.traced.then(|| {
        let p = random_potential((w.config)(), w.mode, ctx.seed);
        // size its workspaces before counting allocations or Fig 3 time
        run_md(&mut st.sys.clone(), &p, &st.opts, steps, |_| {});
        alloc::arm();
        TimedPotential::new(
            st.pot.clone(),
            Arc::new(p.with_profiler(prof.clone())),
            ctx.tracer.clone(),
        )
    });
    let ph = match &timed {
        Some(tp) => {
            let mut span = None;
            phase(&mut st.sys, tp, &st.opts, n_blocks, |k| {
                if let Some(ended) = span.take() {
                    ctx.tracer.close(ended);
                }
                if k < n_blocks && is_traced(k) {
                    span = Some(ctx.tracer.open("block", None, k as u32, 0));
                }
                tp.enter_block(span, k as u32);
            })
        }
        None => phase(&mut st.sys, st.pot.as_ref(), &st.opts, n_blocks, |_| {}),
    };

    let mut blocks = Blocks {
        plain: Vec::new(),
        traced: Vec::new(),
        failed: 0,
    };
    let (mut flops, mut allocs) = (0u64, 0u64);
    for k in 0..n_blocks {
        if is_traced(k) {
            blocks.traced.push(ph.block_secs(k));
            flops += ph.marks[k + 1].flops - ph.marks[k].flops;
            allocs += ph.marks[k + 1].allocs - ph.marks[k].allocs;
        } else {
            blocks.plain.push(ph.block_secs(k));
        }
        blocks.failed += u64::from(!ph.conserves_energy(k, n));
    }
    // Newton's third law, on the forces the phase ended with
    blocks.failed += u64::from(net_force_share(&st.sys.forces) > NET_FORCE_SHARE);

    let mut layers = Layers::default();
    if let Some(tp) = &timed {
        let n_traced = blocks.traced.len() as f64;
        let traced_secs: f64 = blocks.traced.iter().sum();
        let per_atom_step = 1e6 / (atom_steps * n_traced);
        let (force_secs, calls, force_allocs) = tp.totals();
        let cutoff = st.pot.cutoff() + st.opts.skin;
        let build_secs = probes::neighbor(&st.sys, cutoff, &mut layers);
        // the first build opens the call; the rest were asked for by the
        // skin test. Which blocks they fell into is not returned, so the
        // traced blocks are charged their share of the steps.
        let rebuilds = (ph.run.neighbor_rebuilds - 1) as f64;
        let rebuild_secs = rebuilds * build_secs * n_traced / n_blocks as f64;
        layers.set(
            "md.neighbor.rebuilds_per_100_steps",
            100.0 * rebuilds / (n_blocks * steps) as f64,
        );
        layers.set("md.entry.us_per_atom", ph.entry_secs * 1e6 / n as f64);
        layers.set("md.force.us_per_atom_step", force_secs * per_atom_step);
        // what is left of the step: kicks, drift, wrap, the skin test and
        // the thermo sample
        layers.set(
            "md.integrate.us_per_atom_step",
            (traced_secs - force_secs - rebuild_secs) * per_atom_step,
        );
        layers.set(
            "md.step.allocs_per_step",
            allocs as f64 / (steps as f64 * n_traced),
        );
        // exact count: one traced block, so it does not depend on how
        // many blocks fit into the run
        layers.set(
            "linalg.flops_per_atom_step",
            (ph.marks[2].flops - ph.marks[1].flops) as f64 / atom_steps,
        );
        layers.set("linalg.gflops", flops as f64 / traced_secs / 1e9);
        let p = prof.percentages();
        for (name, pct) in ["gemm", "tanh", "slice", "custom", "other"].iter().zip(p) {
            layers.set(&format!("core.eval.{name}_frac"), pct / 100.0);
        }
        layers.set(
            "core.eval.allocs_per_call",
            force_allocs as f64 / calls.max(1) as f64,
        );
        probes::format_and_eval(&st.sys, &st.pot, st.opts.skin, &mut layers);
        probes::linalg_and_host(&st.pot.model().config, w.mode, &mut layers);
        layers.set("trace.overhead_frac", blocks.trace_overhead());
        if w.obs_overhead {
            layers.set("obs.enabled_overhead_frac", obs_overhead(&mut st));
        }
    }
    let mut r = result(ctx, &blocks, atom_steps, &setup_times, layers);
    r.attempted += 1; // the net-force check

    // after `result` has read the peak memory: the f64 workspaces are the
    // check's, not the workload's
    if w.mode != PrecisionMode::Double {
        r.attempted += 1;
        r.failed += u64::from(!agrees_with_double(&st.sys, &st.pot));
    }
    r
}

/// Does `pot` agree with the f64 evaluation of its weights on `sys`?
/// A NaN on either side compares false and fails.
fn agrees_with_double(sys: &System, pot: &DeepPotential) -> bool {
    let nl = NeighborList::build(sys, pot.cutoff());
    let exact = DeepPotential::new(pot.model().clone(), PrecisionMode::Double).compute(sys, &nl);
    let got = pot.compute(sys, &nl);
    let largest = exact
        .forces
        .iter()
        .flatten()
        .fold(0.0f64, |m, f| m.max(f.abs()));
    let mut pairs = exact
        .forces
        .iter()
        .flatten()
        .zip(got.forces.iter().flatten());
    pairs.all(|(a, b)| (a - b).abs() <= FORCE_SHARE_OFF_DOUBLE * largest)
}

/// Three pairs of blocks with `dp_obs` span collection off and on.
fn obs_overhead(st: &mut State) -> f64 {
    let ph = phase(&mut st.sys, st.pot.as_ref(), &st.opts, 6, |k| {
        if k % 2 == 1 {
            dp_obs::enable();
        } else {
            dp_obs::disable();
        }
    });
    let secs = |odd: usize| -> Vec<f64> { (0..3).map(|i| ph.block_secs(2 * i + odd)).collect() };
    paired_overhead(&secs(0), &secs(1))
}
