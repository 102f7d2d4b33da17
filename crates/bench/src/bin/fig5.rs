//! Fig 5 — strong scaling.
//!
//! Two complementary reproductions:
//!
//! 1. **Emulated machine, measured work** — the paper's copper system
//!    scaled down. The box is partitioned exactly as the parallel driver
//!    partitions it; each rank's force evaluation (formatting + batched
//!    network pipeline on locals + ghosts) is timed *serially* on this
//!    host, and the parallel step time is `max over ranks` — a
//!    discrete-event emulation that is exact for the compute phase (this
//!    host exposes a single core, so thread-level wall time cannot show
//!    speedup directly). Efficiency decays as ghosts start to dominate
//!    the shrinking subdomains — the paper's strong-scaling physics.
//!
//! 2. **Projected Summit curves** via the calibrated machine model
//!    (`dp-perfmodel`): the paper's exact node counts, atom counts and
//!    precisions, printing PFLOPS and TtS like the figure labels.
//!
//! Run with: `cargo run --release -p dp-bench --bin fig5`

use deepmd_core::codec::Codec;
use deepmd_core::eval::evaluate;
use deepmd_core::format::format_optimized;
use dp_bench::report::{eng, print_table};
use dp_bench::{models, workloads};
use dp_linalg::flops;
use dp_md::NeighborList;
use dp_parallel::DomainGrid;
use dp_perfmodel as pm;
use std::time::Instant;

fn main() {
    // ---- part 1: emulated strong scaling, measured per-rank work ----
    let sys = workloads::copper_864();
    let model = models::copper_model_paper_size(21);
    let halo = model.config.rcut; // one-shot evaluation: no skin needed
    println!(
        "Emulated strong scaling: copper, {} atoms, paper hyper-parameters (sel 500)",
        sys.len()
    );

    let mut rows = Vec::new();
    let mut t1 = 0.0f64;
    for dims in [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]] {
        let grid = DomainGrid::new(sys.cell, dims);
        let parts = workloads::partition_with_ghosts(&sys, &grid, halo);
        let mut t_max = 0.0f64;
        let mut ghosts_max = 0usize;
        let mut work = 0u64;
        for part in &parts {
            let nl = NeighborList::build(part, model.config.rcut);
            let counter = flops::FlopCounter::start();
            let t = Instant::now();
            let fmt = format_optimized(part, &nl, &model.config, Codec::Binary);
            let out = evaluate(&model, &fmt, &part.types[..part.n_local], part.len(), None);
            std::hint::black_box(out.energy);
            t_max = t_max.max(t.elapsed().as_secs_f64());
            work += counter.elapsed();
            ghosts_max = ghosts_max.max(part.len() - part.n_local);
        }
        let n_ranks = grid.n_ranks();
        if n_ranks == 1 {
            t1 = t_max;
        }
        let eff = t1 / (t_max * n_ranks as f64);
        rows.push(vec![
            format!("{n_ranks}"),
            format!("{}", sys.len() / n_ranks),
            format!("{ghosts_max}"),
            format!("{:.0}", t_max * 1e3),
            format!("{:.0}%", eff * 100.0),
            format!("{}FLOPS", eng(work as f64 / t_max / n_ranks as f64)),
        ]);
    }
    print_table(
        "Emulated strong scaling (per-rank work measured, step = max over ranks)",
        &[
            "ranks",
            "atoms/rank",
            "max ghosts",
            "step [ms]",
            "efficiency",
            "achieved/rank",
        ],
        &rows,
    );

    // ---- part 2: projected Summit curves (the actual Fig 5 axes) ----
    let spec = pm::SummitSpec::default();
    for (label, model, atoms, nodes) in [
        (
            "water 12,582,912 atoms",
            pm::SystemModel::water(),
            12_582_912usize,
            vec![80usize, 160, 320, 640, 1280, 2560, 4560],
        ),
        (
            "copper 25,739,424 atoms",
            pm::SystemModel::copper(),
            25_739_424,
            vec![570, 1140, 2280, 4560],
        ),
    ] {
        for precision in [pm::Precision::Double, pm::Precision::Mixed] {
            let series = pm::strong_scaling(&spec, &model, atoms, &nodes, precision);
            let eff = pm::parallel_efficiency(&series);
            let rows: Vec<Vec<String>> = series
                .iter()
                .zip(&eff)
                .map(|(p, e)| {
                    vec![
                        format!("{}", p.nodes),
                        format!("{}FLOPS", eng(p.flops)),
                        format!("{:.0} ms", p.step_time * 1e3),
                        format!("{:.1}%", e * 100.0),
                    ]
                })
                .collect();
            print_table(
                &format!("Projected Fig 5: {label}, {precision:?}"),
                &["nodes", "perf", "TtS/step", "parallel eff"],
                &rows,
            );
        }
    }
    println!(
        "\nPaper anchors: water double 1.4P[185ms]@80 -> 27.5P[9ms]@4560 (36% eff);\n\
         copper double 11.7P[142ms]@570 -> 76.4P[22ms]@4560 (81.6% eff)."
    );
}
