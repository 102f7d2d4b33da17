//! `train_step_8f`: full-batch `Trainer::step` on the autograd tape.
//!
//! The only workload that differentiates with respect to parameters
//! *through* the force gradient (inference differentiates with respect to
//! coordinates only), so it is the only one that exercises `dp-autograd`
//! and `dp-nn`'s tape builder.

use super::{repeat_setup, result, run_blocks, water_config_small, Ctx};
use crate::alloc;
use crate::metrics::{Layers, RunResult};
use crate::probes::time_median;
use deepmd_core::DpModel;
use dp_linalg::FlopCounter;
use dp_md::potential::pair::PairTable;
use dp_md::{lattice, CounterRng};
use dp_train::dataset::perturbed_frames;
use dp_train::trainer::{LossWeights, Trainer};
use std::time::Instant;

const FRAMES: usize = 8;

fn setup(seed: u64) -> Trainer {
    let base = lattice::water_box([3, 3, 3], 3.104);
    let labels = PairTable::water_reference().with_cutoff(4.5);
    let mut rng = CounterRng::new(seed);
    let frames = perturbed_frames(&base, &labels, FRAMES, 0.15, &mut rng);
    let model = DpModel::<f64>::new_random(water_config_small(), &mut rng);
    let mut trainer = Trainer::new(model, &frames, 1e-3, LossWeights::default());
    trainer.step(); // warm-up step
    trainer
}

pub fn run(ctx: &Ctx) -> RunResult {
    let (mut trainer, setup_times) = repeat_setup(ctx, || setup(ctx.seed));
    let atom_steps = (FRAMES * lattice::water_box([3, 3, 3], 3.104).len()) as f64;
    if ctx.traced {
        alloc::arm();
    }

    let mut losses: Vec<f64> = Vec::new();
    let (mut flops, mut first_flops, mut allocs, mut bytes) = (0u64, None, 0u64, 0u64);
    let mut blocks = run_blocks(ctx, ctx.seconds, |id, traced| {
        let t = Instant::now();
        let report = if traced {
            let span = ctx.tracer.open("train.step", None, id, 0);
            let fc = FlopCounter::start();
            let (report, a, b) = alloc::during(|| trainer.step());
            ctx.tracer.close(span);
            first_flops.get_or_insert(fc.elapsed());
            flops += fc.elapsed();
            allocs += a;
            bytes += b;
            report
        } else {
            trainer.step()
        };
        let secs = t.elapsed().as_secs_f64();
        losses.push(report.loss);
        (secs, report.loss.is_finite())
    });
    // the run is only correct if it learned: last loss below the first
    let learned = losses.last() < losses.first();
    blocks.failed += u64::from(!learned);

    let mut layers = Layers::default();
    if ctx.traced {
        let steps = blocks.traced.len() as f64;
        layers.set("train.flops_per_step", first_flops.unwrap_or(0) as f64);
        layers.set(
            "train.gflops",
            flops as f64 / blocks.traced.iter().sum::<f64>() / 1e9,
        );
        layers.set("train.allocs_per_step", allocs as f64 / steps);
        layers.set(
            "train.alloc_mb_per_step",
            bytes as f64 / steps / (1u64 << 20) as f64,
        );
        let rmse = time_median(3, || {
            std::hint::black_box(trainer.rmse());
        });
        layers.set("train.rmse_eval_ms", rmse * 1e3);
        layers.set("trace.overhead_frac", blocks.trace_overhead());
    }
    let mut r = result(ctx, &blocks, atom_steps, &setup_times, layers);
    r.attempted += 1; // the loss-went-down check
    r
}
