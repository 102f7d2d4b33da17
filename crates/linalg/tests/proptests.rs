//! Property tests for the linear-algebra kernels: seeded case loops on
//! `dp_md::CounterRng` (no generator crate, no shrinking — a failure names
//! the case, which replays alone).

use dp_linalg::batch::{gemm_batch_nn, gemm_batch_nt, gemm_batch_tn};
use dp_linalg::gemm::{gemm_bias_into, gemm_ex, matmul_nt_into, Transpose};
use dp_linalg::simd::{self, Acc, Backend, Panel, PanelGemm};
use dp_linalg::{Matrix, Real};
use dp_md::rng::for_cases;
use dp_md::CounterRng;

const CASES: u64 = 256;

fn dim(rng: &mut CounterRng, max: usize) -> usize {
    1 + rng.below(max as u64) as usize
}

fn matrix(rng: &mut CounterRng, rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| rng.range(-10.0, 10.0))
}

/// Any shape up to `max × max`.
fn any_matrix(max: usize) -> impl Fn(&mut CounterRng) -> Matrix<f64> {
    move |rng| {
        let (r, c) = (dim(rng, max), dim(rng, max));
        matrix(rng, r, c)
    }
}

/// `(m×k, k×n)` with every dimension up to `max`.
fn compatible_pair(max: usize) -> impl Fn(&mut CounterRng) -> (Matrix<f64>, Matrix<f64>) {
    move |rng| {
        let (m, k, n) = (dim(rng, max), dim(rng, max), dim(rng, max));
        (matrix(rng, m, k), matrix(rng, k, n))
    }
}

/// Textbook `C = A x B`, the reference of the fast kernels.
fn naive_gemm(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    assert_eq!(a.cols(), b.rows(), "gemm inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            for j in 0..n {
                c[(i, j)] += aip * b[(p, j)];
            }
        }
    }
    c
}

/// `op(A) x op(B)` into a fresh matrix through `gemm_ex`.
fn product(ta: Transpose, tb: Transpose, a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let rows = if ta == Transpose::No {
        a.rows()
    } else {
        a.cols()
    };
    let cols = if tb == Transpose::No {
        b.cols()
    } else {
        b.rows()
    };
    let mut c = Matrix::zeros(rows, cols);
    gemm_ex(ta, tb, 1.0, a, b, 0.0, &mut c);
    c
}

fn matmul(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    product(Transpose::No, Transpose::No, a, b)
}

#[test]
fn gemm_matches_naive() {
    for_cases(0x6E01, CASES, compatible_pair(12), |(a, b)| {
        assert!(matmul(a, b).max_abs_diff(&naive_gemm(a, b)) < 1e-9);
    });
}

#[test]
fn transpose_is_involution() {
    for_cases(0x6E02, CASES, any_matrix(16), |m| {
        assert_eq!(&m.transpose().transpose(), m);
    });
}

#[test]
fn gemm_transpose_identity() {
    for_cases(0x6E03, CASES, compatible_pair(10), |(a, b)| {
        // (A x B)^T == B^T x A^T
        let left = matmul(a, b).transpose();
        let right = matmul(&b.transpose(), &a.transpose());
        assert!(left.max_abs_diff(&right) < 1e-9);
    });
}

#[test]
fn tn_nt_consistency() {
    for_cases(0x6E04, CASES, compatible_pair(10), |(a, b)| {
        // A^T x C with A stored untransposed == matmul of explicit transpose
        let tn = product(Transpose::Yes, Transpose::No, a, &matmul(a, b));
        let explicit = matmul(&a.transpose(), &matmul(a, b));
        assert!(tn.max_abs_diff(&explicit) < 1e-8);

        let nt = product(Transpose::No, Transpose::Yes, b, b);
        let explicit = matmul(b, &b.transpose());
        assert!(nt.max_abs_diff(&explicit) < 1e-8);
    });
}

// ---------------------------------------------------------------------------
// The GEMM panels against the per-row composition they replaced: a row
// kernel per output row, a dot per output element. Bit for bit, on every
// backend the host runs.
// ---------------------------------------------------------------------------

/// Which batched GEMM a panel case runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Nn,
    Tn,
    Nt,
}

/// One batched problem. Operand values come from `data`, so a failing
/// case prints in one line and replays alone.
#[derive(Debug)]
struct PanelCase {
    op: Op,
    f32: bool,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    /// `alpha = 1 / nm`, or 1 when `None` (the descriptor's two scalings)
    nm: Option<usize>,
    add: bool,
    /// extra leading-dimension columns of A, B and C
    pad: [usize; 3],
    data: u64,
}

fn panel_case(rng: &mut CounterRng) -> PanelCase {
    let op = [Op::Nn, Op::Tn, Op::Nt][rng.below(3) as usize];
    let m = dim(rng, 9);
    let k = width(rng, 20);
    let n = dot_width(rng);
    case(rng, op, m, k, n)
}

/// The narrow-layer shapes of the AVX2 panels: row GEMMs with
/// `n ∈ {8, 16}` over two four-row groups and a remainder, dots with
/// `8 ≤ k ≤ 16`.
fn narrow_case(rng: &mut CounterRng) -> PanelCase {
    let op = [Op::Nn, Op::Tn, Op::Nt][rng.below(3) as usize];
    let (m, k, n) = if op == Op::Nt {
        (dim(rng, 9), 7 + dim(rng, 9), dot_width(rng))
    } else {
        (
            8 + dim(rng, 3),
            width(rng, 20),
            [8, 16][rng.below(2) as usize],
        )
    };
    case(rng, op, m, k, n)
}

/// The §5.2.1 width 4 a third of the time; odd sizes up to `max` otherwise.
fn width(rng: &mut CounterRng, max: usize) -> usize {
    if rng.below(3) == 0 {
        4
    } else {
        dim(rng, max)
    }
}

/// One time in six past a 64-column dot tile, else `width(rng, 40)`.
fn dot_width(rng: &mut CounterRng) -> usize {
    if rng.below(6) == 0 {
        60 + dim(rng, 90)
    } else {
        width(rng, 40)
    }
}

/// The rest of a case of shape `m×k×n`: precision, batch, α, `Acc`,
/// padding and data.
fn case(rng: &mut CounterRng, op: Op, m: usize, k: usize, n: usize) -> PanelCase {
    PanelCase {
        op,
        f32: rng.below(2) == 0,
        batch: dim(rng, 4),
        m,
        k,
        n,
        nm: (rng.below(2) == 0).then(|| dim(rng, 150)),
        add: rng.below(2) == 0,
        pad: [0; 3].map(|_| rng.below(3) as usize),
        data: rng.next_u64(),
    }
}

/// A case's operands, laid out as its panels read them.
struct Operands<T> {
    g: PanelGemm<T>,
    a: Vec<T>,
    b: Vec<T>,
    c: Vec<T>,
}

fn operands<T: Real>(case: &PanelCase) -> Operands<T> {
    let (m, k, n) = (case.m, case.k, case.n);
    // stored (rows, cols) of A and B
    let (a_shape, b_shape) = match case.op {
        Op::Nn => ((m, k), (k, n)),
        Op::Tn => ((k, m), (k, n)),
        Op::Nt => ((m, k), (n, k)),
    };
    let mut rng = CounterRng::new(case.data);
    let mut fill = |(rows, cols): (usize, usize), pad: usize| {
        let ld = cols + pad;
        let p = Panel {
            ld,
            stride: rows * ld + pad,
        };
        let v = (0..case.batch * p.stride)
            .map(|_| T::from_f64(rng.range(-2.0, 2.0)))
            .collect();
        (p, v)
    };
    let (pa, a) = fill(a_shape, case.pad[0]);
    let (pb, b) = fill(b_shape, case.pad[1]);
    let (pc, c) = fill((m, n), case.pad[2]);
    let alpha = case.nm.map_or(T::ONE, |nm| T::ONE / T::from_usize(nm));
    let acc = if case.add { Acc::Add } else { Acc::Overwrite };
    Operands {
        g: PanelGemm {
            m,
            k,
            n,
            alpha,
            a: pa,
            b: pb,
            c: pc,
            acc,
        },
        a,
        b,
        c,
    }
}

/// The per-row composition on `backend`: `row_gemm_strided_with` per C
/// row, `alpha · dot_with` per C element, then `+ c` when accumulating.
fn oracle<T: Real>(backend: Backend, op: Op, batch: usize, x: &Operands<T>) -> Vec<T> {
    let Operands { g, a, b, .. } = x;
    let mut c = x.c.clone();
    for i in 0..batch {
        let (a_i, b_i) = (&a[i * g.a.stride..], &b[i * g.b.stride..]);
        for r in 0..g.m {
            let at = i * g.c.stride + r * g.c.ld;
            let c_row = &mut c[at..at + g.n];
            if op == Op::Nt {
                let a_row = &a_i[r * g.a.ld..r * g.a.ld + g.k];
                for (j, cj) in c_row.iter_mut().enumerate() {
                    let d = g.alpha
                        * simd::dot_with(backend, a_row, &b_i[j * g.b.ld..j * g.b.ld + g.k]);
                    *cj = if g.acc == Acc::Add { *cj + d } else { d };
                }
                continue;
            }
            if g.acc == Acc::Overwrite {
                c_row.fill(T::ZERO);
            }
            let (a_r, a_stride) = match op {
                Op::Tn => (&a_i[r..], g.a.ld),
                _ => (&a_i[r * g.a.ld..], 1),
            };
            simd::row_gemm_strided_with(backend, c_row, g.k, a_r, a_stride, b_i, g.b.ld, g.alpha);
        }
    }
    c
}

fn bits<T: Real>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn check_panel_case<T: Real>(case: &PanelCase) {
    let x = operands::<T>(case);
    let Operands { g, a, b, .. } = &x;
    for backend in simd::available() {
        let mut c = x.c.clone();
        match case.op {
            Op::Nt => simd::dot_panel_with(backend, g, 0..case.batch, a, b, &mut c),
            op => simd::row_panel_with(backend, g, op == Op::Tn, 0..case.batch, a, b, &mut c),
        }
        assert_eq!(
            bits(&c),
            bits(&oracle(backend, case.op, case.batch, &x)),
            "{backend:?} panel"
        );
    }
    // the public entry points, on the active backend
    let kernel = match case.op {
        Op::Nn => gemm_batch_nn::<T>,
        Op::Tn => gemm_batch_tn::<T>,
        Op::Nt => gemm_batch_nt::<T>,
    };
    let mut c = x.c.clone();
    kernel(
        case.batch, g.m, g.k, g.n, g.alpha, a, g.a, b, g.b, &mut c, g.c, g.acc,
    );
    let want = oracle(simd::active(), case.op, case.batch, &x);
    assert_eq!(bits(&c), bits(&want), "gemm_batch_{:?}", case.op);
}

fn check_any_panel_case(case: &PanelCase) {
    if case.f32 {
        check_panel_case::<f32>(case)
    } else {
        check_panel_case::<f64>(case)
    }
}

#[test]
fn batched_panels_match_the_per_row_composition_bitwise() {
    for_cases(0x6E0A, CASES, panel_case, check_any_panel_case);
    for_cases(0x6E0C, CASES / 2, narrow_case, check_any_panel_case);
}

/// `gemm_bias_into` and `matmul_nt_into` in `T` against the per-row
/// composition on the active backend.
fn check_bias_and_nt<T: Real>(m: usize, k: usize, n: usize, data: u64) {
    let mut rng = CounterRng::new(data);
    let a = matrix(&mut rng, m, k).cast::<T>();
    let w = matrix(&mut rng, k, n).cast::<T>();
    let bias: Vec<T> = (0..n).map(|_| T::from_f64(rng.range(-1.0, 1.0))).collect();
    let backend = simd::active();

    let mut c = matrix(&mut rng, 3, 2).cast::<T>();
    gemm_bias_into(&a, &w, &bias, &mut c);
    let mut want = Matrix::from_fn(m, n, |_, j| bias[j]);
    for r in 0..m {
        simd::row_gemm_strided_with(
            backend,
            want.row_mut(r),
            k,
            a.row(r),
            1,
            w.as_slice(),
            n,
            T::ONE,
        );
    }
    assert_eq!(bits(c.as_slice()), bits(want.as_slice()), "gemm_bias_into");

    let bt = w.transpose(); // n × k, rows contiguous
    matmul_nt_into(&a, &bt, &mut c);
    let want = Matrix::from_fn(m, n, |r, j| simd::dot_with(backend, a.row(r), bt.row(j)));
    assert_eq!(bits(c.as_slice()), bits(want.as_slice()), "matmul_nt_into");
}

#[test]
fn gemm_bias_and_nt_into_match_the_per_row_composition_bitwise() {
    // a third of the cases on the narrow shapes: n ∈ {8, 16} over more
    // than one 32-row bias block, and k ∈ 8..=16
    let draw = |rng: &mut CounterRng| {
        let f32 = rng.below(2) == 0;
        if rng.below(3) == 0 {
            let (m, k) = (dim(rng, 40), 7 + dim(rng, 9));
            (f32, m, k, [8, 16][rng.below(2) as usize], rng.next_u64())
        } else {
            (
                f32,
                dim(rng, 9),
                width(rng, 20),
                width(rng, 40),
                rng.next_u64(),
            )
        }
    };
    for_cases(0x6E0B, CASES, draw, |&(f32, m, k, n, data)| {
        if f32 {
            check_bias_and_nt::<f32>(m, k, n, data)
        } else {
            check_bias_and_nt::<f64>(m, k, n, data)
        }
    });
}

/// A padded slot's all-zero R̃ row against a NaN must still give NaN on
/// the fixed-width paths (no zero-skip, see `gemm.rs`): the k = 4 dot
/// (`dG = R̃·dT1ᵀ`) and the n = 4 row GEMM (`dG += R̃·dT2`).
fn zero_row_times_nan<T: Real>() {
    let ld = |ld| Panel { ld, stride: 0 };
    // R̃: three neighbor rows, the middle one padding
    let env: Vec<T> = [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.5, 0.25, 2.0]
        .map(T::from_f64)
        .to_vec();
    let mut dt = vec![T::from_f64(0.5); 9 * 4];
    dt[5 * 4 + 2] = T::from_f64(f64::NAN);
    for backend in simd::available() {
        // dot, k = 4: C (3 × 9) = R̃ × dT1ᵀ, dT1 stored 9 × 4
        let g = PanelGemm {
            m: 3,
            k: 4,
            n: 9,
            alpha: T::ONE,
            a: ld(4),
            b: ld(4),
            c: ld(9),
            acc: Acc::Overwrite,
        };
        let mut c = vec![T::ZERO; 27];
        simd::dot_panel_with(backend, &g, 0..1, &env, &dt, &mut c);
        assert!(
            c[9 + 5].to_f64().is_nan(),
            "{backend:?} k = 4 dot: 0·NaN must be NaN"
        );
        assert_eq!(c[9 + 4].to_f64(), 0.0, "{backend:?} k = 4 dot");
        // row, n = 4: C (3 × 4) = R̃ × dT2, dT2 = dt[16..] is 4 × 4 with the NaN at (1, 2)
        let g = PanelGemm {
            n: 4,
            c: ld(4),
            ..g
        };
        let mut c = vec![T::ZERO; 12];
        simd::row_panel_with(backend, &g, false, 0..1, &env, &dt[16..], &mut c);
        assert!(
            c[4 + 2].to_f64().is_nan(),
            "{backend:?} n = 4 row: 0·NaN must be NaN"
        );
        assert_eq!(c[4].to_f64(), 0.0, "{backend:?} n = 4 row");
    }
}

#[test]
fn zero_env_row_against_nan_gives_nan_on_width_4_paths() {
    zero_row_times_nan::<f32>();
    zero_row_times_nan::<f64>();
}

/// The same contract on the narrow-layer paths: a zero A row against a
/// NaN in B through the `8 ≤ k ≤ 16` column-lane dots and the
/// `n ∈ {8, 16}` row GEMMs, with zero rows inside a four-row group (1)
/// and in the remainder (8).
fn zero_row_times_nan_narrow<T: Real>() {
    let ld = |ld| Panel { ld, stride: 0 };
    let m = 9;
    let a_of = |k: usize| -> Vec<T> {
        (0..m * k)
            .map(|i| match i / k {
                1 | 8 => T::ZERO,
                _ => T::from_f64(0.25 + i as f64 * 0.01),
            })
            .collect()
    };
    for backend in simd::available() {
        // dot: C (m × n) = A × Bᵀ, B stored n × k; NaN in a lane partial
        // of column 1 and in the last term of column n − 2
        for (k, n) in [(8, 8), (13, 12), (16, 8), (11, 70)] {
            let g = PanelGemm {
                m,
                k,
                n,
                alpha: T::ONE,
                a: ld(k),
                b: ld(k),
                c: ld(n),
                acc: Acc::Overwrite,
            };
            let mut b = vec![T::from_f64(0.5); n * k];
            b[k + 2] = T::from_f64(f64::NAN);
            b[(n - 2) * k + k - 1] = T::from_f64(f64::NAN);
            let mut c = vec![T::ONE; m * n];
            simd::dot_panel_with(backend, &g, 0..1, &a_of(k), &b, &mut c);
            for r in [1, 8] {
                for j in [1, n - 2] {
                    assert!(
                        c[r * n + j].to_f64().is_nan(),
                        "{backend:?} k = {k} dot ({r}, {j}): 0·NaN must be NaN"
                    );
                }
                assert_eq!(c[r * n].to_f64(), 0.0, "{backend:?} k = {k} dot");
            }
        }
        // row: C (m × n) = A × B, B stored 3 × n with the NaN at (1, n − 3)
        for n in [8, 16] {
            let k = 3;
            let g = PanelGemm {
                m,
                k,
                n,
                alpha: T::ONE,
                a: ld(k),
                b: ld(n),
                c: ld(n),
                acc: Acc::Add,
            };
            let mut b = vec![T::from_f64(0.5); k * n];
            b[n + n - 3] = T::from_f64(f64::NAN);
            let mut c = vec![T::ZERO; m * n];
            simd::row_panel_with(backend, &g, false, 0..1, &a_of(k), &b, &mut c);
            for r in [1, 8] {
                assert!(
                    c[r * n + n - 3].to_f64().is_nan(),
                    "{backend:?} n = {n} row {r}: 0·NaN must be NaN"
                );
                assert_eq!(c[r * n].to_f64(), 0.0, "{backend:?} n = {n} row");
            }
        }
    }
}

#[test]
fn zero_row_against_nan_gives_nan_on_narrow_paths() {
    zero_row_times_nan_narrow::<f32>();
    zero_row_times_nan_narrow::<f64>();
}
