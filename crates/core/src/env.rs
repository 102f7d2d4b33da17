//! The smoothed environment weight `s(r)` and per-neighbor environment
//! rows of the DeepPot-SE descriptor.
//!
//! For a neighbor at displacement `d` (center → neighbor), the environment
//! matrix row is `(s, s·x/r, s·y/r, s·z/r)` where `s(r)` is `1/r` smoothly
//! switched to zero between `rcut_smth` and `rcut`.
//!
//! The definitions live beside their vector twin in
//! [`dp_linalg::simd::env`]: the optimized formatter sweeps whole type
//! blocks with [`dp_linalg::simd::env::env_rows_with`], which gives the bits
//! of these scalar functions on every backend, and the baseline formatter
//! calls them slot by slot. The shipped table keeps only `(1/r, s′)` of a
//! row's Jacobian ([`crate::ops`] builds the rest from `s` and `d`);
//! [`env_row_jacobian`] is the full `∂row/∂d` the baseline stores.

pub use dp_linalg::simd::env::{env_row, smooth_weight};

/// The Jacobian `∂row_m/∂d_k` of the row at displacement `d`, distance `r`,
/// with `s(r)` and `s′`: `∂s/∂d_k = s′·u_k` and
/// `∂(s·u_m)/∂d_k = s′·u_k·u_m + s·(δ_mk − u_m·u_k)/r`, `u = d/r`.
pub fn env_row_jacobian(d: [f64; 3], r: f64, s: f64, ds: f64) -> [[f64; 3]; 4] {
    let inv_r = 1.0 / r;
    let u = d.map(|x| x * inv_r);
    let delta = |m: usize, k: usize| if m == k { 1.0 } else { 0.0 };
    let row =
        |m: usize| [0, 1, 2].map(|k| ds * u[k] * u[m] + s * (delta(m, k) - u[m] * u[k]) * inv_r);
    [u.map(|uk| ds * uk), row(0), row(1), row(2)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_is_inverse_r_inside() {
        let (s, ds) = smooth_weight(2.0, 3.0, 6.0);
        assert!((s - 0.5).abs() < 1e-12);
        assert!((ds + 0.25).abs() < 1e-12);
    }

    #[test]
    fn weight_vanishes_at_cutoff() {
        let (s, ds) = smooth_weight(6.0, 3.0, 6.0);
        assert_eq!(s, 0.0);
        assert_eq!(ds, 0.0);
        // approaching the cutoff from inside: continuous to 0
        let (s, _) = smooth_weight(5.999, 3.0, 6.0);
        assert!(s.abs() < 1e-3);
    }

    #[test]
    fn weight_is_continuous_at_smth() {
        let (s_in, ds_in) = smooth_weight(3.0 - 1e-9, 3.0, 6.0);
        let (s_out, ds_out) = smooth_weight(3.0 + 1e-9, 3.0, 6.0);
        assert!((s_in - s_out).abs() < 1e-8);
        assert!((ds_in - ds_out).abs() < 1e-6);
    }

    #[test]
    fn weight_derivative_matches_fd() {
        for &r in &[1.5, 3.5, 4.7, 5.5] {
            let (_, ds) = smooth_weight(r, 3.0, 6.0);
            let h = 1e-7;
            let fd =
                (smooth_weight(r + h, 3.0, 6.0).0 - smooth_weight(r - h, 3.0, 6.0).0) / (2.0 * h);
            assert!((ds - fd).abs() < 1e-6, "r={r}: {ds} vs {fd}");
        }
    }

    #[test]
    fn env_row_jacobian_matches_fd() {
        let d0: [f64; 3] = [1.2, -0.7, 2.1];
        let rcs = 1.0;
        let rc = 6.0;
        let row_of = |d: [f64; 3]| {
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            env_row(d, r, smooth_weight(r, rcs, rc).0)
        };
        let r0 = (d0[0] * d0[0] + d0[1] * d0[1] + d0[2] * d0[2]).sqrt();
        let (s0, ds0) = smooth_weight(r0, rcs, rc);
        let dw = env_row_jacobian(d0, r0, s0, ds0);
        let h = 1e-7;
        for k in 0..3 {
            let mut dp = d0;
            dp[k] += h;
            let mut dm = d0;
            dm[k] -= h;
            let wp = row_of(dp);
            let wm = row_of(dm);
            for m in 0..4 {
                let fd = (wp[m] - wm[m]) / (2.0 * h);
                assert!(
                    (fd - dw[m][k]).abs() < 1e-6,
                    "m={m} k={k}: fd {fd} vs {}",
                    dw[m][k]
                );
            }
        }
    }

    #[test]
    fn rotation_covariance_of_row() {
        // s-part invariant, vector part rotates with d.
        let d: [f64; 3] = [0.5, 1.0, -0.3];
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        let (s, _) = smooth_weight(r, 1.0, 6.0);
        let w = env_row(d, r, s);
        // rotate 90° about z: (x,y,z) -> (-y,x,z)
        let dr = [-d[1], d[0], d[2]];
        let wr = env_row(dr, r, s);
        assert!((w[0] - wr[0]).abs() < 1e-12);
        assert!((wr[1] + w[2]).abs() < 1e-12);
        assert!((wr[2] - w[1]).abs() < 1e-12);
        assert!((wr[3] - w[3]).abs() < 1e-12);
    }
}
