//! Property validation of the tape against finite differences: seeded
//! case loops on `dp_md::CounterRng` (no generator crate, no shrinking — a
//! failure names the case, which replays alone).

use dp_autograd::gradcheck::{assert_two_orders, numeric_grad, relative_error};
use dp_autograd::{SparseLinear, Tape, Trans, Var};
use dp_linalg::Matrix;
use dp_md::rng::for_cases;
use dp_md::CounterRng;
use std::sync::Arc;

const CASES: u64 = 32;

fn small_matrix(rng: &mut CounterRng, rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| rng.range(-1.5, 1.5))
}

/// Values and all input gradients of `sum(f²)` for a fused op and for the
/// composite of primitives it replaces, on one tape.
fn assert_same_as_composite(
    inputs: &[Matrix<f64>],
    tol: f64,
    fused: impl Fn(&mut Tape, &[Var]) -> Var,
    composite: impl Fn(&mut Tape, &[Var]) -> Var,
) {
    let mut t = Tape::new();
    let v: Vec<Var> = inputs.iter().map(|m| t.leaf(m)).collect();
    let (a, b) = (fused(&mut t, &v), composite(&mut t, &v));
    assert!(t.value(a).max_abs_diff(t.value(b)) < tol);
    let (ya, yb) = (t.sum_squares(a), t.sum_squares(b));
    let (ga, gb) = (t.grad(ya, &v), t.grad(yb, &v));
    for (ga, gb) in ga.iter().zip(&gb) {
        assert!(t.value(*ga).max_abs_diff(t.value(*gb)) < 100.0 * tol);
    }
}

/// Row block `i` (of `rows` rows) of `x`, transposed on request.
fn block(x: &Matrix<f64>, i: usize, rows: usize, transposed: bool) -> Matrix<f64> {
    let b = Matrix::from_fn(rows, x.cols(), |r, c| x[(i * rows + r, c)]);
    if transposed {
        b.transpose()
    } else {
        b
    }
}

/// A two-block `bmm` to both orders, and against the per-block plain
/// products of explicitly transposed blocks.
fn check_bmm(trans: Trans, a: &Matrix<f64>, b: &Matrix<f64>) {
    assert_two_orders(&[a.clone(), b.clone()], 1e-6, |t, v| {
        let c = t.bmm(v[0], v[1], trans, 2);
        let c = t.tanh(c);
        t.sum_squares(c)
    });
    let mut t = Tape::new();
    let (av, bv) = (t.leaf(a), t.leaf(b));
    let c = t.bmm(av, bv, trans, 2);
    let m = t.value(c).rows() / 2;
    for i in 0..2 {
        let ai = t.leaf(&block(a, i, a.rows() / 2, trans == Trans::TN));
        let bi = t.leaf(&block(b, i, b.rows() / 2, trans == Trans::NT));
        let ci = t.matmul(ai, bi);
        assert!(block(t.value(c), i, m, false).max_abs_diff(t.value(ci)) < 1e-12);
    }
}

// ---- the fused / batched ops, to first and second order ------------

#[test]
fn bmm_every_layout() {
    let draw = |rng: &mut CounterRng| {
        [(8, 3), (8, 2), (6, 2), (4, 3)].map(|(r, c)| small_matrix(rng, r, c))
    };
    for_cases(0xA601, CASES, draw, |[a, b_tn, b_nn, b_nt]| {
        // two blocks of A (4x3) against: Aᵀ(3x4)·(4x2), A·(3x2), A·(2x3)ᵀ
        check_bmm(Trans::TN, a, b_tn);
        check_bmm(Trans::NN, a, b_nn);
        check_bmm(Trans::NT, a, b_nt);
    });
}

#[test]
fn dense_layer() {
    let draw = |rng: &mut CounterRng| {
        let inputs = [(4, 3), (3, 2), (1, 2)].map(|(r, c)| small_matrix(rng, r, c));
        (inputs, rng.below(2) == 1)
    };
    for_cases(0xA602, CASES, draw, |(inputs, tanh)| {
        let tanh = *tanh;
        assert_two_orders(inputs, 1e-6, |t, v| {
            let h = t.dense(v[0], v[1], v[2], tanh);
            t.sum_squares(h)
        });
        // MATMUL + broadcast SUM + TANH; 1e-13 is the vectorised tanh
        assert_same_as_composite(
            inputs,
            1e-13,
            |t, v| t.dense(v[0], v[1], v[2], tanh),
            |t, v| {
                let xw = t.matmul(v[0], v[1]);
                let bb = t.broadcast_row(v[2], 4);
                let pre = t.add(xw, bb);
                if tanh {
                    t.tanh(pre)
                } else {
                    pre
                }
            },
        );
    });
}

#[test]
fn tanh_backward_node() {
    let draw = |rng: &mut CounterRng| [small_matrix(rng, 3, 2), small_matrix(rng, 3, 2)];
    for_cases(0xA603, CASES, draw, |inputs| {
        assert_two_orders(inputs, 1e-6, |t, v| {
            let d = t.tanh_bwd(v[0], v[1]);
            t.sum_squares(d)
        });
        assert_same_as_composite(
            inputs,
            1e-14,
            |t, v| t.tanh_bwd(v[0], v[1]),
            |t, v| {
                let y2 = t.mul(v[1], v[1]);
                let ones = t.leaf(&Matrix::full(3, 2, 1.0));
                let dt = t.sub(ones, y2);
                t.mul(v[0], dt)
            },
        );
    });
}

#[test]
fn growth_skip() {
    let draw = |rng: &mut CounterRng| [small_matrix(rng, 3, 2), small_matrix(rng, 3, 4)];
    for_cases(0xA604, CASES, draw, |inputs| {
        assert_two_orders(inputs, 1e-6, |t, v| {
            let s = t.dup_add(v[0], v[1]);
            let s = t.tanh(s);
            let f = t.fold_cols(s);
            t.sum_squares(f)
        });
        // CONCAT(x, x) + y and its adjoint, from column pads and slices
        assert_same_as_composite(
            inputs,
            1e-14,
            |t, v| t.dup_add(v[0], v[1]),
            |t, v| {
                let (lo, hi) = (t.pad_cols(v[0], 0, 4), t.pad_cols(v[0], 2, 4));
                let xx = t.add(lo, hi);
                t.add(xx, v[1])
            },
        );
        assert_same_as_composite(
            &inputs[1..],
            1e-14,
            |t, v| t.fold_cols(v[0]),
            |t, v| {
                let (lo, hi) = (t.slice_cols(v[0], 0, 2), t.slice_cols(v[0], 2, 4));
                t.add(lo, hi)
            },
        );
    });
}

#[test]
fn row_select_and_scatter() {
    let draw = |rng: &mut CounterRng| {
        let x = small_matrix(rng, 5, 2);
        let picks: Vec<u32> = (0..1 + rng.below(5)).map(|_| rng.below(5) as u32).collect();
        (x, picks)
    };
    for_cases(0xA605, CASES, draw, |(x, picks)| {
        let idx: Arc<[u32]> = picks.as_slice().into();
        let rows = idx.len();
        assert_two_orders(std::slice::from_ref(x), 1e-6, |t, v| {
            let s = t.select_rows(v[0], idx.clone());
            let s = t.tanh(s);
            let back = t.scatter_rows(s, idx.clone(), 5);
            let back = t.tanh(back);
            t.sum_squares(back)
        });
        // the same selection as a constant sparse map, and its transpose
        let mut map = SparseLinear::new((5, 2), (rows, 2));
        for (r, &i) in idx.iter().enumerate() {
            for c in 0..2 {
                map.push((r, c), (i as usize, c), 1.0);
            }
        }
        let map = Arc::new(map);
        assert_same_as_composite(
            std::slice::from_ref(x),
            1e-14,
            |t, v| t.select_rows(v[0], idx.clone()),
            |t, v| t.sparse_apply(v[0], map.clone()),
        );
        let picked = Matrix::from_fn(rows, 2, |r, c| x[(idx[r] as usize, c)]);
        assert_same_as_composite(
            &[picked],
            1e-14,
            |t, v| t.scatter_rows(v[0], idx.clone(), 5),
            |t, v| t.sparse_apply_transpose(v[0], map.clone()),
        );
    });
}

// ---- the tape as a whole -------------------------------------------

#[test]
fn mlp_grad_matches_fd() {
    let draw = |rng: &mut CounterRng| (small_matrix(rng, 3, 4), small_matrix(rng, 4, 2));
    for_cases(0xA606, CASES, draw, |(x0, w0)| {
        let f = |x: &Matrix<f64>| {
            let mut t = Tape::new();
            let xv = t.leaf(x);
            let wv = t.leaf(w0);
            let h = t.matmul(xv, wv);
            let a = t.tanh(h);
            let y = t.sum_squares(a);
            t.value(y)[(0, 0)]
        };
        let mut t = Tape::new();
        let xv = t.leaf(x0);
        let wv = t.leaf(w0);
        let h = t.matmul(xv, wv);
        let a = t.tanh(h);
        let y = t.sum_squares(a);
        let g = t.grad(y, &[xv, wv]);
        let gx_num = numeric_grad(x0, 1e-5, f);
        assert!(relative_error(t.value(g[0]), &gx_num) < 1e-6);

        let fw = |w: &Matrix<f64>| {
            let mut t = Tape::new();
            let xv = t.leaf(x0);
            let wv = t.leaf(w);
            let h = t.matmul(xv, wv);
            let a = t.tanh(h);
            let y = t.sum_squares(a);
            t.value(y)[(0, 0)]
        };
        let gw_num = numeric_grad(w0, 1e-5, fw);
        assert!(relative_error(t.value(g[1]), &gw_num) < 1e-6);
    });
}

#[test]
fn second_order_matches_fd_of_first() {
    for_cases(
        0xA607,
        CASES,
        |rng| small_matrix(rng, 2, 2),
        |x0| {
            // scalar = sum(tanh(x)^2); hessian diagonal via FD on the gradient
            let grad_at = |x: &Matrix<f64>| -> Matrix<f64> {
                let mut t = Tape::new();
                let xv = t.leaf(x);
                let a = t.tanh(xv);
                let y = t.sum_squares(a);
                let g = t.grad(y, &[xv])[0];
                t.value(g).clone()
            };
            // analytic second derivative w.r.t. x[0,0] of the gradient's [0,0]:
            let mut t = Tape::new();
            let xv = t.leaf(x0);
            let a = t.tanh(xv);
            let y = t.sum_squares(a);
            let g = t.grad(y, &[xv])[0];
            // select g[0,0] by slicing then summing the first element
            let col0 = t.slice_cols(g, 0, 1);
            let s = t.sum_all(col0); // = g[0,0] + g[1,0]
            let h = t.grad(s, &[xv])[0];

            let eps = 1e-5;
            let mut xp = x0.clone();
            xp.as_mut_slice()[0] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[0] -= eps;
            let gp = grad_at(&xp);
            let gm = grad_at(&xm);
            let fd = (gp.as_slice()[0] + gp.as_slice()[2] - gm.as_slice()[0] - gm.as_slice()[2])
                / (2.0 * eps);
            assert!(
                (t.value(h).as_slice()[0] - fd).abs() < 1e-5,
                "analytic {} vs fd {}",
                t.value(h).as_slice()[0],
                fd
            );
        },
    );
}

#[test]
fn sparse_roundtrip_inner_product() {
    let draw = |rng: &mut CounterRng| Matrix::from_fn(3, 2, |_, _| rng.range(-2.0, 2.0));
    for_cases(0xA608, CASES, draw, |x0| {
        // <L x, L x> >= 0 and grad of it is 2 LᵀL x
        let mut map = SparseLinear::new((3, 2), (4, 1));
        map.push((0, 0), (0, 0), 1.0);
        map.push((1, 0), (1, 1), -2.0);
        map.push((2, 0), (2, 0), 0.5);
        map.push((3, 0), (0, 1), 1.5);
        let map = Arc::new(map);

        let mut t = Tape::new();
        let xv = t.leaf(x0);
        let lx = t.sparse_apply(xv, map.clone());
        let y = t.sum_squares(lx);
        assert!(t.value(y)[(0, 0)] >= 0.0);
        let g = t.grad(y, &[xv])[0];

        let num = numeric_grad(x0, 1e-6, |x: &Matrix<f64>| {
            let lx = map.apply(x);
            lx.as_slice().iter().map(|a| a * a).sum()
        });
        assert!(relative_error(t.value(g), &num) < 1e-6);
    });
}

#[test]
fn grad_is_linear_in_seed_direction() {
    let draw = |rng: &mut CounterRng| (small_matrix(rng, 2, 3), rng.range(0.1, 3.0));
    for_cases(0xA609, CASES, draw, |(x0, c)| {
        let c = *c;
        // grad(c * f) = c * grad(f)
        let build = |t: &mut Tape, xv| {
            let a = t.tanh(xv);
            t.sum_squares(a)
        };
        let mut t1 = Tape::new();
        let x1 = t1.leaf(x0);
        let y1 = build(&mut t1, x1);
        let g1 = t1.grad(y1, &[x1])[0];

        let mut t2 = Tape::new();
        let x2 = t2.leaf(x0);
        let y2 = build(&mut t2, x2);
        let cy = t2.scale(y2, c);
        let g2 = t2.grad(cy, &[x2])[0];

        let mut scaled = t1.value(g1).clone();
        scaled.scale(c);
        assert!(scaled.max_abs_diff(t2.value(g2)) < 1e-10);
    });
}
