//! Outside calls into single layers: each probe times one public
//! function on the calling workload's own shapes and returns a median.

use crate::host;
use crate::metrics::Layers;
use crate::stats::median;
use deepmd_core::batch::{append_joined, reset_joined};
use deepmd_core::codec::Codec;
use deepmd_core::eval::{chunk_size, evaluate_into, EvalOutput};
use deepmd_core::format::{format_optimized_into, FormattedEnv};
use deepmd_core::{
    BatchItem, BatchOutput, DeepPotential, DpConfig, DpModel, EvalWorkspace, PrecisionMode,
};
use dp_linalg::fused::tanh_fused_into;
use dp_linalg::gemm::gemm_bias_into;
use dp_linalg::{Matrix, Real};
use dp_md::{NeighborList, NlScratch, System};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `f` over `reps` calls after one untimed call.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Repetitions that fit a probe of `once` seconds into about 0.3 s.
pub fn reps_for(once: f64) -> usize {
    ((0.3 / once.max(1e-9)) as usize).clamp(3, 200)
}

fn filled<T: Real>(rows: usize, cols: usize, salt: usize) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |i, j| {
        T::from_f64(((i * cols + j + salt) % 97) as f64 * 0.02 - 0.97)
    })
}

struct Kernels {
    emb_gflops: f64,
    emb_flops_per_byte: f64,
    fit_gflops: f64,
    fit_flops_per_byte: f64,
    tanh_gelem_s: f64,
}

/// `gemm_bias_into` on the tallest embedding GEMM (one chunk of atoms ×
/// the widest `sel`, last embedding layer) and on the first square
/// fitting layer (one chunk of atoms), and `tanh_fused_into` on the
/// embedding activation block, all in precision `T`.
fn kernels<T: Real>(cfg: &DpConfig) -> Kernels {
    let max_sel = cfg.sel.iter().copied().max().unwrap_or(1);
    let chunk = chunk_size(max_sel);
    let gemm = |m: usize, k: usize, n: usize| {
        let (a, b) = (filled::<T>(m, k, 1), filled::<T>(k, n, 2));
        let bias = vec![T::HALF; n];
        let mut c = Matrix::zeros(m, n);
        let flops = (2 * m * k * n + m * n) as f64;
        let once = time_median(1, || gemm_bias_into(&a, &b, &bias, &mut c));
        let secs = time_median(reps_for(once), || {
            gemm_bias_into(black_box(&a), &b, &bias, &mut c);
            black_box(&mut c);
        });
        let bytes = ((m * k + k * n + m * n) * std::mem::size_of::<T>()) as f64;
        (flops / secs / 1e9, flops / bytes)
    };
    let e = cfg.embedding.len();
    let (ek, en) = if e >= 2 {
        (cfg.embedding[e - 2], cfg.embedding[e - 1])
    } else {
        (1, cfg.embedding[0])
    };
    let emb_rows = chunk * max_sel;
    let (emb_gflops, emb_flops_per_byte) = gemm(emb_rows, ek, en);
    let f = &cfg.fitting;
    let (fit_gflops, fit_flops_per_byte) = gemm(chunk, f[0], f[f.len().min(2) - 1]);

    let x = filled::<T>(emb_rows, en, 3);
    let (mut t, mut g) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let once = time_median(1, || tanh_fused_into(&x, &mut t, &mut g));
    let secs = time_median(reps_for(once), || {
        tanh_fused_into(black_box(&x), &mut t, &mut g);
        black_box((&mut t, &mut g));
    });
    Kernels {
        emb_gflops,
        emb_flops_per_byte,
        fit_gflops,
        fit_flops_per_byte,
        tanh_gelem_s: x.len() as f64 / secs / 1e9,
    }
}

/// `linalg.gemm_*`, `linalg.tanh.*` and the `host.*` ceilings they are
/// placed against. The f64 FMA peak is doubled for f32 kernels (twice
/// the lanes per vector).
pub fn linalg_and_host(cfg: &DpConfig, mode: PrecisionMode, out: &mut Layers) {
    let (k, lanes) = match mode {
        PrecisionMode::Double => (kernels::<f64>(cfg), 1.0),
        _ => (kernels::<f32>(cfg), 2.0),
    };
    let peak = host::peak_fma_gflops();
    let stream = host::stream();
    let roof = |flops_per_byte: f64| (peak * lanes).min(flops_per_byte * stream.gbs);
    out.set("host.peak_fma_gflops", peak);
    out.set("host.stream_gbs", stream.gbs);
    out.set("host.llc_mb", stream.llc_bytes as f64 / (1u64 << 20) as f64);
    out.set(
        "host.stream_array_mb",
        stream.array_bytes as f64 / (1u64 << 20) as f64,
    );
    out.set("linalg.gemm_emb.gflops", k.emb_gflops);
    out.set("linalg.gemm_fit.gflops", k.fit_gflops);
    out.set("linalg.tanh.gelem_s", k.tanh_gelem_s);
    out.set("linalg.gemm_emb.flops_per_byte", k.emb_flops_per_byte);
    out.set(
        "linalg.gemm_emb.roofline_frac",
        k.emb_gflops / roof(k.emb_flops_per_byte),
    );
    out.set(
        "linalg.gemm_fit.roofline_frac",
        k.fit_gflops / roof(k.fit_flops_per_byte),
    );
}

/// `md.neighbor.build_us_per_atom` and `pairs_per_atom`: the cell-list
/// build `run_md` performs, on the same system and cutoff + skin.
pub fn neighbor(sys: &System, cutoff: f64, out: &mut Layers) -> f64 {
    let mut nl = NeighborList::empty();
    let mut scratch = NlScratch::default();
    let once = time_median(1, || nl.build_into(sys, cutoff, &mut scratch));
    let secs = time_median(reps_for(once), || {
        nl.build_into(black_box(sys), cutoff, &mut scratch)
    });
    let n = sys.n_local as f64;
    out.set("md.neighbor.build_us_per_atom", secs * 1e6 / n);
    out.set("md.neighbor.pairs_per_atom", nl.num_pairs() as f64 / n);
    secs
}

fn eval_secs<T: Real>(model: &DpModel<T>, fmt: &FormattedEnv, sys: &System) -> f64 {
    let mut ws = EvalWorkspace::new(&model.config);
    let mut eo = EvalOutput {
        energy: 0.0,
        per_atom_energy: Vec::new(),
        forces: Vec::new(),
        virial: [0.0; 6],
    };
    let types = &sys.types[..sys.n_local];
    let mut call = || {
        evaluate_into(
            model,
            black_box(fmt),
            types,
            sys.len(),
            None,
            &mut ws,
            &mut eo,
        )
    };
    let once = time_median(1, &mut call);
    time_median(reps_for(once).min(20), call)
}

/// `core.format.*` and `core.eval.us_per_atom`: the two halves of one
/// force call, each timed alone on the workload's system.
pub fn format_and_eval(sys: &System, pot: &DeepPotential, skin: f64, out: &mut Layers) {
    let cfg = &pot.model().config;
    let nl = NeighborList::build(sys, cfg.rcut + skin);
    let codec = Codec::auto(cfg.n_types(), sys.len(), cfg.rcut);
    let mut fmt = FormattedEnv::alloc(sys.n_local, cfg);
    let once = time_median(1, || format_optimized_into(&mut fmt, sys, &nl, cfg, codec));
    let secs = time_median(reps_for(once), || {
        format_optimized_into(&mut fmt, black_box(sys), &nl, cfg, codec)
    });
    let n = sys.n_local as f64;
    let slots = (sys.n_local * cfg.nm()) as f64;
    out.set("core.format.us_per_atom", secs * 1e6 / n);
    out.set(
        "core.format.pad_frac",
        1.0 - fmt.real_neighbors() as f64 / slots,
    );
    out.set("core.format.overflowed", fmt.overflowed as f64);
    let secs = match pot.mode {
        PrecisionMode::Double => eval_secs(pot.model(), &fmt, sys),
        _ => eval_secs(&pot.model().cast::<f32>(), &fmt, sys),
    };
    out.set("core.eval.us_per_atom", secs * 1e6 / n);
}

/// `core.batch.join_us`: concatenating the already formatted per-request
/// tables into one joined table. `core.batch.eval_us_per_atom`: one
/// `compute_batch_into` of the same requests, per atom.
pub fn batch_probes(requests: &[&System], pot: &DeepPotential, skin: f64, out: &mut Layers) {
    let cfg = &pot.model().config;
    let lists: Vec<NeighborList> = requests
        .iter()
        .map(|s| NeighborList::build(s, cfg.rcut + skin))
        .collect();
    let tables: Vec<FormattedEnv> = requests
        .iter()
        .zip(&lists)
        .map(|(s, nl)| {
            let mut fmt = FormattedEnv::alloc(s.n_local, cfg);
            format_optimized_into(
                &mut fmt,
                s,
                nl,
                cfg,
                Codec::auto(cfg.n_types(), s.len(), cfg.rcut),
            );
            fmt
        })
        .collect();
    let mut joined = FormattedEnv::alloc(0, cfg);
    let mut join = || {
        reset_joined(&mut joined, cfg);
        let mut off = 0;
        for t in &tables {
            append_joined(&mut joined, t, off);
            off += t.n_atoms;
        }
    };
    let once = time_median(1, &mut join);
    out.set(
        "core.batch.join_us",
        time_median(reps_for(once), join) * 1e6,
    );

    let items: Vec<BatchItem> = requests
        .iter()
        .zip(&lists)
        .map(|(sys, nl)| BatchItem { sys, nl })
        .collect();
    let mut res = BatchOutput::new();
    let mut eval = || pot.compute_batch_into(&items, pot.mode, &mut res);
    let once = time_median(1, &mut eval);
    let atoms: usize = requests.iter().map(|s| s.len()).sum();
    out.set(
        "core.batch.eval_us_per_atom",
        time_median(reps_for(once), eval) * 1e6 / atoms as f64,
    );
}
