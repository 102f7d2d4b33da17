//! The six workloads and what they share: the run context, the timed
//! block loop, and the timing adapter around a `Potential`.

pub mod ensemble;
pub mod parallel;
pub mod serial;
pub mod serve;
pub mod train;

use crate::alloc;
use crate::host;
use crate::metrics::{Layers, RunResult};
use crate::span::{SpanId, Tracer};
use crate::stats::{median, Summary};
use deepmd_core::{DeepPotential, DpConfig, DpModel, PrecisionMode};
use dp_md::{CounterRng, NeighborList, Potential, PotentialOutput, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Everything a workload is told. Inputs derive from `seed` alone.
pub struct Ctx {
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory inside the checkout (checkpoints, daemon state).
    pub work: PathBuf,
    /// The `dpmd` binary built beside the harness.
    pub dpmd: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// Set-up is repeated and its median reported, because a single
    /// set-up is the least repeatable number in the ledger. Short smoke
    /// runs and traced passes (which do not report it) set up once.
    pub fn setup_reps(&self) -> usize {
        if self.seconds >= 5.0 && !self.traced {
            3
        } else {
            1
        }
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Result<RunResult, String> {
    Ok(match name {
        "water_paper_f64" => serial::run(&serial::WATER_PAPER_F64, ctx),
        "copper_small_f32" => serial::run(&serial::COPPER_SMALL_F32, ctx),
        "parallel_2x1x1" => parallel::run(ctx),
        "serve_eval_c2" => serve::run(ctx)?,
        "ensemble_8x81" => ensemble::run(ctx),
        "train_step_8f" => train::run(ctx),
        _ => return Err(format!("unknown workload '{name}'")),
    })
}

/// Scaled-down water hyper-parameters (the `dp_bench::workloads` pair,
/// restated because the ledger must not depend on the harness it will
/// retire): same architecture shape as the paper, laptop-size widths.
pub fn water_config_small() -> DpConfig {
    DpConfig {
        rcut: 4.5,
        rcut_smth: 1.0,
        sel: vec![12, 24],
        embedding: vec![8, 16],
        fitting: vec![32, 32, 32],
        axis_neurons: 4,
    }
}

pub fn copper_config_small() -> DpConfig {
    DpConfig {
        rcut: 4.8,
        rcut_smth: 1.2,
        sel: vec![52],
        embedding: vec![8, 16],
        fitting: vec![32, 32, 32],
        axis_neurons: 4,
    }
}

/// Untrained model from the seed: weights do not change the arithmetic
/// being timed.
pub fn random_potential(cfg: DpConfig, mode: PrecisionMode, seed: u64) -> DeepPotential {
    let model = DpModel::<f64>::new_random(cfg, &mut CounterRng::new(seed));
    DeepPotential::new(model, mode)
}

/// Largest neighbor skin the box allows on top of the cutoff, at most 2 Å
/// (the paper's buffer).
pub fn skin_for(sys: &System, rcut: f64) -> f64 {
    ((sys.cell.max_cutoff() - rcut) * 0.9).clamp(0.0, 2.0)
}

/// |ΣF| ÷ Σ|F|: Newton's third law, up to rounding in the force scatter.
pub fn net_force_share(forces: &[[f64; 3]]) -> f64 {
    let norm = |f: &[f64; 3]| (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]).sqrt();
    let mut sum = [0.0f64; 3];
    for f in forces {
        for d in 0..3 {
            sum[d] += f[d];
        }
    }
    norm(&sum) / forces.iter().map(norm).sum::<f64>().max(f64::MIN_POSITIVE)
}

/// `Potential` adapter that, inside a traced block, times every force
/// call from the outside and records it as a child span of the block that
/// caused it. Outside one it forwards to the untraced potential, so one
/// `run_md` call can alternate traced and untraced blocks.
pub struct TimedPotential {
    plain: Arc<dyn Potential>,
    traced: Arc<dyn Potential>,
    tracer: Tracer,
    /// Block span the next calls belong to; `NO_SPAN` in an untraced block.
    parent: AtomicU32,
    block: AtomicU32,
    /// Next free chrome-trace lane of the current block.
    next_lane: AtomicU32,
    ns: AtomicU64,
    calls: AtomicU64,
    allocs: AtomicU64,
}

const NO_SPAN: SpanId = SpanId::MAX;

impl TimedPotential {
    /// `plain` runs the untraced blocks and `traced` the traced ones (the
    /// same weights; each keeps its own workspaces).
    pub fn new(plain: Arc<dyn Potential>, traced: Arc<dyn Potential>, tracer: Tracer) -> Self {
        Self {
            plain,
            traced,
            tracer,
            parent: AtomicU32::new(NO_SPAN),
            block: AtomicU32::new(0),
            next_lane: AtomicU32::new(1),
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    // Called on the thread that then spawns the rank threads (they start
    // after the store) or, from the serial observer, on the integrator's
    // own thread, so `Relaxed` suffices.
    pub fn enter_block(&self, span: Option<SpanId>, block: u32) {
        self.parent
            .store(span.unwrap_or(NO_SPAN), Ordering::Relaxed);
        self.block.store(block, Ordering::Relaxed);
        self.next_lane.store(1, Ordering::Relaxed);
    }

    /// Lane of the calling thread: rank threads are spawned anew for every
    /// block and take lanes 1, 2, … in order of their first force call.
    fn lane(&self) -> u32 {
        thread_local!(static LANE: Cell<Option<u32>> = const { Cell::new(None) });
        LANE.with(|l| {
            l.get().unwrap_or_else(|| {
                let lane = self.next_lane.fetch_add(1, Ordering::Relaxed);
                l.set(Some(lane));
                lane
            })
        })
    }

    /// `(seconds, calls, allocations)` spent in force calls so far.
    pub fn totals(&self) -> (f64, u64, u64) {
        (
            self.ns.load(Ordering::Relaxed) as f64 / 1e9,
            self.calls.load(Ordering::Relaxed),
            self.allocs.load(Ordering::Relaxed),
        )
    }
}

impl Potential for TimedPotential {
    fn compute(&self, sys: &System, nl: &NeighborList) -> PotentialOutput {
        let mut out = PotentialOutput::zeros(0);
        self.compute_into(sys, nl, &mut out);
        out
    }

    fn compute_into(&self, sys: &System, nl: &NeighborList, out: &mut PotentialOutput) {
        let parent = self.parent.load(Ordering::Relaxed);
        if parent == NO_SPAN {
            return self.plain.compute_into(sys, nl, out);
        }
        let block = self.block.load(Ordering::Relaxed);
        let span = self
            .tracer
            .open("md.force", Some(parent), block, self.lane());
        let t = Instant::now();
        let ((), allocs, _) = alloc::during(|| self.traced.compute_into(sys, nl, out));
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tracer.close(span);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.allocs.fetch_add(allocs, Ordering::Relaxed);
    }

    fn cutoff(&self) -> f64 {
        self.traced.cutoff()
    }

    fn name(&self) -> &'static str {
        self.traced.name()
    }
}

/// Times of the measured phase. In a traced pass, odd blocks run with
/// the instrumentation on and even blocks without, interleaved in one
/// process, so `trace.overhead_frac` compares like with like.
pub struct Blocks {
    pub plain: Vec<f64>,
    pub traced: Vec<f64>,
    pub failed: u64,
}

impl Blocks {
    pub fn attempted(&self) -> u64 {
        (self.plain.len() + self.traced.len()) as u64
    }

    /// Median over adjacent (plain, traced) block pairs of traced ÷ plain,
    /// minus one. Pairing cancels the host's slow drift, which a ratio of
    /// two medians does not.
    pub fn trace_overhead(&self) -> f64 {
        paired_overhead(&self.plain, &self.traced)
    }
}

/// Median of `on[k] ÷ off[k]` minus one (0 when there is no pair).
pub fn paired_overhead(off: &[f64], on: &[f64]) -> f64 {
    let ratios: Vec<f64> = off.iter().zip(on).map(|(a, b)| b / a).collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    }
}

/// Run `unit(block, traced)` until `secs` of wall time have passed (at
/// least two blocks, so a traced pass has one of each kind). The
/// unit returns its timed seconds and whether its output check passed;
/// the check itself runs outside the timed region but inside the phase.
pub fn run_blocks(ctx: &Ctx, secs: f64, mut unit: impl FnMut(u32, bool) -> (f64, bool)) -> Blocks {
    let mut b = Blocks {
        plain: Vec::new(),
        traced: Vec::new(),
        failed: 0,
    };
    let phase = Instant::now();
    let mut block = 0u32;
    while block < 2 || phase.elapsed().as_secs_f64() < secs {
        let traced = ctx.traced && block % 2 == 1;
        let (secs, ok) = unit(block, traced);
        if traced {
            b.traced.push(secs);
        } else {
            b.plain.push(secs);
        }
        b.failed += u64::from(!ok);
        block += 1;
    }
    b
}

/// Repeat `setup` [`Ctx::setup_reps`] times; keep the last state and
/// every duration.
pub fn repeat_setup<S>(ctx: &Ctx, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..ctx.setup_reps() {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("setup_reps is at least 1"), times)
}

/// The result of an in-process workload whose unit of work is a block of
/// `atom_steps` atom-steps: the universal end-to-end metrics from the
/// untraced pass, `layers` from the traced one.
pub fn result(ctx: &Ctx, b: &Blocks, atom_steps: f64, setup: &[f64], layers: Layers) -> RunResult {
    let e2e = if ctx.traced {
        Vec::new()
    } else {
        let rss = host::peak_rss_mb("self").expect("VmHWM in /proc/self/status (Linux)");
        vec![
            ("setup_s", Summary::of(setup)),
            (
                "us_per_atom_step",
                Summary::of(&b.plain).scaled(1e6 / atom_steps),
            ),
            ("peak_rss_mb", Summary::single(rss)),
        ]
    };
    RunResult {
        seed: ctx.seed,
        traced: ctx.traced,
        attempted: b.attempted(),
        failed: b.failed,
        e2e,
        layers,
    }
}
