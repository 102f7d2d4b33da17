//! Table 4 — per-GPU breakdown of the water strong-scaling run.
//!
//! The paper's columns: atoms/GPU, ghosts/GPU, MD loop time, parallel
//! efficiency, PFLOPS, % of peak — showing efficiency collapsing once a
//! GPU holds under ~1,000 atoms. We print (a) the same table measured on
//! an emulated rank decomposition of a scaled-down water box, and (b) the
//! projected paper-scale table from the calibrated Summit model, whose
//! ghost and efficiency columns match the published values to a few
//! per cent (validated in dp-perfmodel's tests), then the model's §7.2.2
//! time to solution: hours per simulated nanosecond of the 113 M-atom
//! copper system.
//!
//! Run with: `cargo run --release -p dp-bench --bin table4`

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
    // ---- measured (emulated ranks) ----
    let sys = workloads::water_1536();
    let model = models::water_model_paper_size(41);
    println!("Water, {} atoms, paper hyper-parameters", sys.len());

    let mut rows = Vec::new();
    let mut t1 = 0.0f64;
    for dims in [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]] {
        let grid = DomainGrid::new(sys.cell, dims);
        let parts = workloads::partition_with_ghosts(&sys, &grid, model.config.rcut);
        let mut t_max = 0.0f64;
        let mut ghost_sum = 0usize;
        let mut work = 0u64;
        for part in &parts {
            let nl = NeighborList::build(part, model.config.rcut);
            let c = flops::FlopCounter::start();
            let t = Instant::now();
            let fmt = format_optimized(part, &nl, &model.config, Codec::Binary);
            let out = evaluate(&model, &fmt, &part.types[..part.n_local], part.len(), None);
            std::hint::black_box(out.energy);
            t_max = t_max.max(t.elapsed().as_secs_f64());
            work += c.elapsed();
            ghost_sum += part.len() - part.n_local;
        }
        let nr = grid.n_ranks();
        if nr == 1 {
            t1 = t_max;
        }
        rows.push(vec![
            format!("{nr}"),
            format!("{}", sys.len() / nr),
            format!("{}", ghost_sum / nr),
            format!("{:.0}", t_max * 1e3),
            format!("{:.2}", t1 / (t_max * nr as f64)),
            format!("{}FLOPS", eng(work as f64 / t_max / nr as f64)),
        ]);
    }
    print_table(
        "Measured (emulated ranks): water strong scaling",
        &[
            "ranks",
            "atoms/rank",
            "ghosts/rank",
            "step [ms]",
            "efficiency",
            "per-rank perf",
        ],
        &rows,
    );

    // ---- projected paper table ----
    let spec = pm::SummitSpec::default();
    let m = pm::SystemModel::water();
    let gpu_counts = [480usize, 960, 1920, 3840, 7680, 15360, 27360];
    let mut rows = Vec::new();
    let mut t1 = 0.0;
    for &gpus in &gpu_counts {
        let nodes = gpus / spec.gpus_per_node;
        let p = pm::project(&spec, &m, 12_582_912, nodes, pm::Precision::Double);
        if gpus == 480 {
            t1 = p.step_time * gpus as f64;
        }
        rows.push(vec![
            format!("{gpus}"),
            format!("{:.0}", p.atoms_per_gpu),
            format!("{:.0}", p.ghosts_per_gpu),
            format!("{:.2}", p.step_time * 500.0), // paper reports 500-step loop seconds
            format!("{:.2}", t1 / (p.step_time * gpus as f64)),
            format!("{:.2}", p.flops / 1e15),
            format!("{:.2}", p.fraction_of_peak * 100.0),
        ]);
    }
    print_table(
        "Projected Table 4: 12,582,912-atom water on Summit (double precision)",
        &[
            "#GPUs",
            "#atoms",
            "#ghosts",
            "MD time [s]",
            "efficiency",
            "PFLOPS",
            "% of peak",
        ],
        &rows,
    );
    println!(
        "\nPaper row anchors: 480 GPUs: 26214 atoms / 25566 ghosts / 92.31 s / 1.00 /\n\
         1.35 PFLOPS / 38.54%; 27360 GPUs: 459 / 3039 / 4.53 s / 0.36 / 27.51 / 13.75%."
    );

    // §7.2.2's time to solution on the weak-scaling endpoint
    let cu = pm::SystemModel::copper();
    let p = pm::project(&spec, &cu, 113_246_208, 4560, pm::Precision::Double);
    println!(
        "\n113,246,208-atom copper on 4560 nodes (double): 1 ns of MD in {:.1} h \
         (paper §7.2.2: ~23 h).",
        p.hours_per_ns(cu.timestep_fs)
    );
}
