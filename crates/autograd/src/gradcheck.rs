//! Finite-difference gradient checking.
//!
//! Every analytic gradient in the workspace — the tape's own backward pass
//! and the hand-fused kernels in `deepmd-core` — is validated against
//! central differences through these helpers.

use crate::tape::{Tape, Var};
use dp_linalg::Matrix;

/// Central-difference gradient of `f` with respect to `x0`.
///
/// `f` must be a pure function of its input (it is re-evaluated ~2·len
/// times).
pub fn numeric_grad(
    x0: &Matrix<f64>,
    eps: f64,
    mut f: impl FnMut(&Matrix<f64>) -> f64,
) -> Matrix<f64> {
    let mut g = Matrix::zeros(x0.rows(), x0.cols());
    for idx in 0..x0.len() {
        let mut xp = x0.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x0.clone();
        xm.as_mut_slice()[idx] -= eps;
        g.as_mut_slice()[idx] = (f(&xp) - f(&xm)) / (2.0 * eps);
    }
    g
}

/// Relative error between an analytic and a numeric gradient, scaled by the
/// larger of the two norms (plus a floor to avoid 0/0).
pub fn relative_error(analytic: &Matrix<f64>, numeric: &Matrix<f64>) -> f64 {
    assert_eq!(analytic.shape(), numeric.shape());
    let mut diff = analytic.clone();
    diff.axpy(-1.0, numeric);
    let scale = analytic.norm().max(numeric.norm()).max(1e-8);
    diff.norm() / scale
}

/// Assert that the analytic gradient matches central differences.
pub fn assert_grad_close(analytic: &Matrix<f64>, numeric: &Matrix<f64>, tol: f64) {
    let err = relative_error(analytic, numeric);
    assert!(
        err < tol,
        "gradient check failed: relative error {err:.3e} >= {tol:.1e}\nanalytic: {analytic:?}\nnumeric: {numeric:?}"
    );
}

/// Check a scalar function built on a tape from several matrix inputs
/// against central differences, to first **and** second order.
///
/// First order compares `∂f/∂x_i` from [`Tape::grad`] with central
/// differences of `f`. Second order contracts those gradients with fixed
/// directions, `h = Σ_i ⟨c_i, ∂f/∂x_i⟩`, differentiates `h` on the tape
/// (grad-of-grad) and compares with central differences of `h` itself —
/// the path the force-matching loss takes through every op.
pub fn assert_two_orders(
    inputs: &[Matrix<f64>],
    tol: f64,
    build: impl Fn(&mut Tape, &[Var]) -> Var,
) {
    let directions: Vec<Matrix<f64>> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            Matrix::from_fn(x.rows(), x.cols(), |r, c| {
                0.3 + 0.7 * (1.7 * (r * x.cols() + c) as f64 + i as f64).sin()
            })
        })
        .collect();
    // Build f and its contracted gradient h on a fresh tape.
    let on_tape = |xs: &[Matrix<f64>]| -> (Tape, Vec<Var>, Var, Var) {
        let mut t = Tape::new();
        let vars: Vec<Var> = xs.iter().map(|x| t.leaf(x)).collect();
        let f = build(&mut t, &vars);
        let grads = t.grad(f, &vars);
        let mut h = t.scalar(0.0);
        for (g, c) in grads.iter().zip(&directions) {
            let c = t.leaf(c);
            let gc = t.mul(*g, c);
            let term = t.sum_all(gc);
            h = t.add(h, term);
        }
        (t, vars, f, h)
    };
    let perturbed = |i: usize, xi: &Matrix<f64>| -> Vec<Matrix<f64>> {
        let mut xs = inputs.to_vec();
        xs[i] = xi.clone();
        xs
    };

    let (mut t, vars, f, h) = on_tape(inputs);
    let df = t.grad(f, &vars);
    let dh = t.grad(h, &vars);
    for (i, x0) in inputs.iter().enumerate() {
        let df_num = numeric_grad(x0, 1e-5, |xi| {
            let (t, _, f, _) = on_tape(&perturbed(i, xi));
            t.value(f)[(0, 0)]
        });
        assert_grad_close(t.value(df[i]), &df_num, tol);
        let dh_num = numeric_grad(x0, 1e-5, |xi| {
            let (t, _, _, h) = on_tape(&perturbed(i, xi));
            t.value(h)[(0, 0)]
        });
        assert_grad_close(t.value(dh[i]), &dh_num, tol);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_grad_matches_fd_on_composite() {
        // f(X) = sum(tanh(X W) ∘ tanh(X W)) for fixed W
        let w0 = Matrix::from_fn(3, 2, |i, j| 0.3 * (i as f64) - 0.2 * (j as f64) + 0.1);
        let x0 = Matrix::from_fn(4, 3, |i, j| 0.05 * ((i * 3 + j) as f64) - 0.3);

        let f = |x: &Matrix<f64>| {
            let mut t = Tape::new();
            let xv = t.leaf(x);
            let wv = t.leaf(&w0);
            let h = t.matmul(xv, wv);
            let a = t.tanh(h);
            let y = t.sum_squares(a);
            t.value(y)[(0, 0)]
        };

        let mut t = Tape::new();
        let xv = t.leaf(&x0);
        let wv = t.leaf(&w0);
        let h = t.matmul(xv, wv);
        let a = t.tanh(h);
        let y = t.sum_squares(a);
        let g = t.grad(y, &[xv])[0];

        let numeric = numeric_grad(&x0, 1e-6, f);
        assert_grad_close(t.value(g), &numeric, 1e-7);
    }

    #[test]
    fn second_order_matches_fd_of_grad() {
        // g(x) = d/dx [x^3] = 3x^2 ; check dg/dx = 6x by FD on g.
        let x0 = Matrix::from_vec(1, 1, vec![1.7]);
        let grad_fn = |x: &Matrix<f64>| {
            let mut t = Tape::new();
            let xv = t.leaf(x);
            let x2 = t.mul(xv, xv);
            let x3 = t.mul(x2, xv);
            let d = t.grad(x3, &[xv])[0];
            t.value(d)[(0, 0)]
        };

        let mut t = Tape::new();
        let xv = t.leaf(&x0);
        let x2 = t.mul(xv, xv);
        let x3 = t.mul(x2, xv);
        let d1 = t.grad(x3, &[xv])[0];
        let d2 = t.grad(d1, &[xv])[0];

        let numeric = numeric_grad(&x0, 1e-6, grad_fn);
        assert_grad_close(t.value(d2), &numeric, 1e-6);
        assert!((t.value(d2)[(0, 0)] - 6.0 * 1.7).abs() < 1e-10);
    }

    #[test]
    fn relative_error_of_identical_is_zero() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(relative_error(&a, &a), 0.0);
    }
}
