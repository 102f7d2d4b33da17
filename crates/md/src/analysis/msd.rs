//! Mean-squared displacement — the standard diffusion observable for
//! liquid benchmarks like the paper's water system.
//!
//! Tracks unwrapped displacements relative to a reference frame (periodic
//! wrapping is undone by accumulating minimum-image steps between
//! successive samples, valid while per-sample motion stays below half the
//! box).

use crate::system::System;

/// Accumulates unwrapped displacements from a reference configuration.
#[derive(Debug, Clone)]
pub struct Msd {
    reference: Vec<[f64; 3]>,
    last: Vec<[f64; 3]>,
    unwrapped: Vec<[f64; 3]>,
    /// (time, msd) samples, one per `sample` call.
    pub series: Vec<(f64, f64)>,
}

impl Msd {
    /// Start tracking from the system's current positions.
    pub fn new(sys: &System) -> Self {
        Self {
            reference: sys.positions[..sys.n_local].to_vec(),
            last: sys.positions[..sys.n_local].to_vec(),
            unwrapped: sys.positions[..sys.n_local].to_vec(),
            series: Vec::new(),
        }
    }

    /// Record one sample at simulation time `t` (ps). Must be called often
    /// enough that no atom moves more than half a box edge between calls.
    pub fn sample(&mut self, sys: &System, t: f64) -> f64 {
        let n = self.reference.len();
        assert!(sys.n_local >= n, "system shrank under MSD tracking");
        let mut acc = 0.0;
        for i in 0..n {
            let step = sys.cell.displacement(self.last[i], sys.positions[i]);
            for (u, s) in self.unwrapped[i].iter_mut().zip(step) {
                *u += s;
            }
            self.last[i] = sys.positions[i];
            let dx = [
                self.unwrapped[i][0] - self.reference[i][0],
                self.unwrapped[i][1] - self.reference[i][1],
                self.unwrapped[i][2] - self.reference[i][2],
            ];
            acc += dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
        }
        let msd = acc / n as f64;
        self.series.push((t, msd));
        msd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::units;

    fn drifting_system(v: f64) -> (System, Msd) {
        let positions = vec![[5.0, 5.0, 5.0], [2.0, 8.0, 3.0]];
        let sys = System::new(
            Cell::cubic(10.0),
            positions,
            vec![0, 0],
            vec![units::MASS_CU],
        );
        let msd = Msd::new(&sys);
        let _ = v;
        (sys, msd)
    }

    #[test]
    fn stationary_system_has_zero_msd() {
        let (sys, mut msd) = drifting_system(0.0);
        for k in 1..5 {
            assert_eq!(msd.sample(&sys, k as f64), 0.0);
        }
    }

    #[test]
    fn ballistic_drift_is_quadratic_and_unwraps() {
        // constant velocity 0.8 Å/sample crosses the 10 Å boundary; the
        // unwrapped MSD must keep growing as (0.8 k)^2
        let (mut sys, mut msd) = drifting_system(0.8);
        for k in 1..=20 {
            for p in &mut sys.positions {
                p[0] += 0.8;
            }
            sys.wrap_positions();
            let m = msd.sample(&sys, k as f64);
            let expect = (0.8 * k as f64).powi(2);
            assert!((m - expect).abs() < 1e-9, "k={k}: {m} vs {expect}");
        }
    }
}
