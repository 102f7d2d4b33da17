//! Radial distribution function g(r) between two species.
//!
//! Fig 4 of the paper compares g_OO, g_OH and g_HH of liquid water between
//! the double- and mixed-precision codes; this module produces those
//! curves. Histograms can be accumulated over many frames and normalized at
//! the end.

use crate::neighbor::NeighborList;
use crate::system::System;

/// Accumulating RDF histogram for one (type_a, type_b) pair.
#[derive(Debug, Clone)]
pub struct Rdf {
    pub type_a: usize,
    pub type_b: usize,
    pub r_max: f64,
    pub bins: Vec<f64>,
    frames: usize,
    /// (n_a, n_b, volume) accumulated per frame for normalization.
    norm: (f64, f64, f64),
}

impl Rdf {
    pub fn new(type_a: usize, type_b: usize, r_max: f64, n_bins: usize) -> Self {
        assert!(r_max > 0.0 && n_bins > 0);
        Self {
            type_a,
            type_b,
            r_max,
            bins: vec![0.0; n_bins],
            frames: 0,
            norm: (0.0, 0.0, 0.0),
        }
    }

    /// Bin width.
    pub fn dr(&self) -> f64 {
        self.r_max / self.bins.len() as f64
    }

    /// Accumulate one frame. The neighbor list must cover `r_max`.
    pub fn accumulate(&mut self, sys: &System, nl: &NeighborList) {
        assert!(
            nl.cutoff >= self.r_max,
            "neighbor list cutoff {} < r_max {}",
            nl.cutoff,
            self.r_max
        );
        let dr = self.dr();
        let mut n_a = 0usize;
        for i in 0..sys.n_local {
            if sys.types[i] != self.type_a {
                continue;
            }
            n_a += 1;
            for &j in nl.neighbors_of(i) {
                let j = j as usize;
                if sys.types[j] != self.type_b {
                    continue;
                }
                let r = sys
                    .cell
                    .distance2(sys.positions[i], sys.positions[j])
                    .sqrt();
                if r < self.r_max {
                    self.bins[(r / dr) as usize] += 1.0;
                }
            }
        }
        let n_b = sys.types[..sys.n_local]
            .iter()
            .filter(|&&t| t == self.type_b)
            .count();
        self.frames += 1;
        self.norm.0 += n_a as f64;
        self.norm.1 += n_b as f64;
        self.norm.2 += sys.cell.volume();
    }

    /// Normalized g(r) as (r_mid, g) pairs.
    pub fn finish(&self) -> Vec<(f64, f64)> {
        assert!(self.frames > 0, "no frames accumulated");
        let frames = self.frames as f64;
        let n_a = self.norm.0 / frames;
        let n_b = self.norm.1 / frames;
        let vol = self.norm.2 / frames;
        let rho_b = n_b / vol;
        let dr = self.dr();
        self.bins
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let r_lo = k as f64 * dr;
                let r_hi = r_lo + dr;
                let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
                let ideal = n_a * rho_b * shell * frames;
                let g = if ideal > 0.0 { count / ideal } else { 0.0 };
                (r_lo + 0.5 * dr, g)
            })
            .collect()
    }

    /// Maximum |g₁ − g₂| between two finished RDFs over the same grid.
    pub fn max_deviation(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(&(_, ga), &(_, gb))| (ga - gb).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::units;
    use crate::CounterRng;

    #[test]
    fn ideal_gas_rdf_is_one() {
        let mut rng = CounterRng::new(17);
        let n = 4000;
        let l = 30.0;
        let positions: Vec<[f64; 3]> = (0..n)
            .map(|_| [rng.range(0.0, l), rng.range(0.0, l), rng.range(0.0, l)])
            .collect();
        let sys = System::new(Cell::cubic(l), positions, vec![0; n], vec![units::MASS_CU]);
        let nl = NeighborList::build(&sys, 8.0);
        let mut rdf = Rdf::new(0, 0, 8.0, 40);
        rdf.accumulate(&sys, &nl);
        let g = rdf.finish();
        // beyond the first couple of bins, g ≈ 1 for uncorrelated positions
        for &(r, gv) in g.iter().skip(5) {
            assert!((gv - 1.0).abs() < 0.25, "g({r}) = {gv}");
        }
    }

    #[test]
    fn fcc_first_shell_peak() {
        let sys = crate::lattice::fcc(3.615, [4, 4, 4], units::MASS_CU);
        let nl = NeighborList::build(&sys, 6.0);
        let mut rdf = Rdf::new(0, 0, 6.0, 120);
        rdf.accumulate(&sys, &nl);
        let g = rdf.finish();
        // sharpest peak at the nearest-neighbor distance a/√2 ≈ 2.556
        let (r_peak, _) = g
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(
            (r_peak - 3.615 / 2f64.sqrt()).abs() < 0.06,
            "peak at {r_peak}"
        );
    }

    #[test]
    fn cross_species_counts_both_directions() {
        // one O at center, two H at distance 1: g_OH integrates to 2 H.
        let sys = System::new(
            Cell::cubic(12.0),
            vec![[6.0, 6.0, 6.0], [7.0, 6.0, 6.0], [5.0, 6.0, 6.0]],
            vec![0, 1, 1],
            vec![units::MASS_O, units::MASS_H],
        );
        let nl = NeighborList::build(&sys, 5.0);
        let mut rdf = Rdf::new(0, 1, 5.0, 50);
        rdf.accumulate(&sys, &nl);
        let g = rdf.finish();
        // coordination number: sum over bins of g * rho_b * shell = 2
        let rho_b = 2.0 / sys.cell.volume();
        let dr = rdf.dr();
        let coord: f64 = g
            .iter()
            .map(|&(r, gv)| {
                let r_lo = r - 0.5 * dr;
                let r_hi = r + 0.5 * dr;
                gv * rho_b * 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3))
            })
            .sum();
        assert!((coord - 2.0).abs() < 1e-9, "coordination {coord}");
    }

    #[test]
    fn deviation_of_identical_is_zero() {
        let a = vec![(0.5, 1.0), (1.5, 2.0)];
        assert_eq!(Rdf::max_deviation(&a, &a), 0.0);
    }
}
