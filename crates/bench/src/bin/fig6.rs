//! Fig 6 — weak scaling.
//!
//! Measured part: fixed atoms per rank, growing box; each rank's force
//! evaluation timed serially (single-core host), step time = max over
//! ranks. The claim to reproduce: constant step time / linearly growing
//! aggregate FLOPS ("both systems show perfect scaling").
//!
//! Projected part: the paper's node counts and system sizes through the
//! calibrated Summit model (water 25M→403M, copper 7M→113M atoms).
//!
//! Run with: `cargo run --release -p dp-bench --bin fig6`

use deepmd_core::codec::Codec;
use deepmd_core::eval::evaluate;
use deepmd_core::format::format_optimized;
use dp_bench::report::{eng, print_table};
use dp_bench::{models, workloads};
use dp_linalg::flops;
use dp_md::{lattice, NeighborList};
use dp_parallel::DomainGrid;
use dp_perfmodel as pm;
use std::time::Instant;

fn main() {
    // ---- measured weak scaling: one fcc block of copper per rank ----
    let model = models::copper_model_paper_size(31);
    let per_rank_reps = 6usize; // 6x6x6 cells = 864 atoms per rank
    println!("Emulated weak scaling: copper, 864 atoms/rank, paper hyper-parameters");

    let mut rows = Vec::new();
    let mut t_first = 0.0;
    for ranks in [1usize, 2, 4] {
        let sys = lattice::copper([per_rank_reps, per_rank_reps, per_rank_reps * ranks]);
        let grid = DomainGrid::new(sys.cell, [1, 1, ranks]);
        let parts = workloads::partition_with_ghosts(&sys, &grid, model.config.rcut);
        let mut t_max = 0.0f64;
        let mut work_total = 0u64;
        for part in &parts {
            let nl = NeighborList::build(part, model.config.rcut);
            let counter = flops::FlopCounter::start();
            let t = Instant::now();
            let fmt = format_optimized(part, &nl, &model.config, Codec::Binary);
            let out = evaluate(&model, &fmt, &part.types[..part.n_local], part.len(), None);
            std::hint::black_box(out.energy);
            t_max = t_max.max(t.elapsed().as_secs_f64());
            work_total += counter.elapsed();
        }
        if ranks == 1 {
            t_first = t_max;
        }
        rows.push(vec![
            format!("{ranks}"),
            format!("{}", sys.len()),
            format!("{:.0}", t_max * 1e3),
            format!("{:.0}%", t_first / t_max * 100.0),
            format!("{}FLOPS", eng(work_total as f64 / t_max)),
        ]);
    }
    print_table(
        "Emulated weak scaling (per-rank work measured, step = max over ranks)",
        &[
            "ranks",
            "atoms",
            "step [ms]",
            "weak efficiency",
            "aggregate",
        ],
        &rows,
    );

    // ---- projected Summit weak scaling (the actual Fig 6 axes) ----
    let spec = pm::SummitSpec::default();
    let nodes = [285usize, 570, 1140, 2280, 4560];
    for (label, m, atoms_per_node) in [
        (
            "water (25M -> 403M atoms)",
            pm::SystemModel::water(),
            402_653_184usize / 4560,
        ),
        (
            "copper (7M -> 113M atoms)",
            pm::SystemModel::copper(),
            113_246_208 / 4560,
        ),
    ] {
        for precision in [pm::Precision::Double, pm::Precision::Mixed] {
            let series = pm::weak_scaling(&spec, &m, atoms_per_node, &nodes, precision);
            let rows: Vec<Vec<String>> = series
                .iter()
                .map(|p| {
                    vec![
                        format!("{}", p.nodes),
                        format!("{:.1}M", p.n_atoms as f64 / 1e6),
                        format!("{}FLOPS", eng(p.flops)),
                        format!("{:.2e}", p.tts),
                    ]
                })
                .collect();
            print_table(
                &format!("Projected Fig 6: {label}, {precision:?}"),
                &["nodes", "atoms", "perf", "TtS [s/step/atom]"],
                &rows,
            );
        }
    }
    println!(
        "\nPaper anchors at 4560 nodes: water 72.6P double / 105.4P mixed;\n\
         copper 86.2P double / 137.4P mixed; TtS 2.7e-10 (water) and\n\
         7.3e-10 (copper) s/step/atom in double precision."
    );
}
