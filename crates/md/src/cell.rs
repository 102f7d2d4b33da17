//! Orthorhombic simulation cell with periodic boundary conditions.

/// Orthorhombic box `[0, lx) × [0, ly) × [0, lz)`, fully periodic or open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub lengths: [f64; 3],
    pub periodic: bool,
}

impl Cell {
    pub fn orthorhombic(lx: f64, ly: f64, lz: f64) -> Self {
        assert!(lx > 0.0 && ly > 0.0 && lz > 0.0, "cell lengths must be positive");
        Self {
            lengths: [lx, ly, lz],
            periodic: true,
        }
    }

    pub fn cubic(l: f64) -> Self {
        Self::orthorhombic(l, l, l)
    }

    /// Open (non-periodic) bounding box, used for rank-local sub-regions
    /// where ghosts make wrapping unnecessary.
    pub fn open(lx: f64, ly: f64, lz: f64) -> Self {
        Self {
            lengths: [lx, ly, lz],
            periodic: false,
        }
    }

    pub fn volume(&self) -> f64 {
        self.lengths[0] * self.lengths[1] * self.lengths[2]
    }

    /// Wrap a position into the primary image.
    pub fn wrap(&self, r: [f64; 3]) -> [f64; 3] {
        if !self.periodic {
            return r;
        }
        let mut out = r;
        for d in 0..3 {
            let l = self.lengths[d];
            out[d] -= l * (out[d] / l).floor();
            // Guard against -0.0 and the r == l edge after rounding.
            if out[d] >= l {
                out[d] -= l;
            }
            if out[d] < 0.0 {
                out[d] += l;
            }
        }
        out
    }

    /// Minimum-image displacement `b - a`.
    #[inline]
    pub fn displacement(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let mut d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
        if self.periodic {
            for k in 0..3 {
                let l = self.lengths[k];
                d[k] -= l * (d[k] / l).round();
            }
        }
        d
    }

    /// Squared minimum-image distance.
    #[inline]
    pub fn distance2(&self, a: [f64; 3], b: [f64; 3]) -> f64 {
        let d = self.displacement(a, b);
        d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    }

    /// Largest cutoff for which the minimum-image convention is valid.
    pub fn max_cutoff(&self) -> f64 {
        0.5 * self.lengths.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Scale all lengths (and implicitly every fractional coordinate) by
    /// per-axis factors — used by the tensile-deformation driver.
    pub fn scaled(&self, factors: [f64; 3]) -> Self {
        Self {
            lengths: [
                self.lengths[0] * factors[0],
                self.lengths[1] * factors[1],
                self.lengths[2] * factors[2],
            ],
            periodic: self.periodic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_into_box() {
        let c = Cell::cubic(10.0);
        assert_eq!(c.wrap([11.0, -1.0, 5.0]), [1.0, 9.0, 5.0]);
        assert_eq!(c.wrap([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0]);
        let w = c.wrap([10.0, 20.0, -10.0]);
        for d in 0..3 {
            assert!((0.0..10.0).contains(&w[d]), "{w:?}");
        }
    }

    #[test]
    fn minimum_image() {
        let c = Cell::cubic(10.0);
        let d = c.displacement([9.5, 0.0, 0.0], [0.5, 0.0, 0.0]);
        assert!((d[0] - 1.0).abs() < 1e-12);
        let d = c.displacement([0.5, 0.0, 0.0], [9.5, 0.0, 0.0]);
        assert!((d[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn open_cell_no_wrap() {
        let c = Cell::open(10.0, 10.0, 10.0);
        assert_eq!(c.wrap([11.0, 0.0, 0.0]), [11.0, 0.0, 0.0]);
        let d = c.displacement([9.5, 0.0, 0.0], [0.5, 0.0, 0.0]);
        assert!((d[0] + 9.0).abs() < 1e-12);
    }

    #[test]
    fn distance_symmetry() {
        let c = Cell::orthorhombic(8.0, 12.0, 16.0);
        let a = [7.9, 11.9, 0.1];
        let b = [0.1, 0.3, 15.8];
        assert!((c.distance2(a, b) - c.distance2(b, a)).abs() < 1e-12);
    }

    #[test]
    fn max_cutoff_is_half_shortest() {
        let c = Cell::orthorhombic(8.0, 12.0, 16.0);
        assert_eq!(c.max_cutoff(), 4.0);
    }

    #[test]
    fn scaled_cell() {
        let c = Cell::cubic(10.0).scaled([1.0, 1.0, 1.1]);
        assert!((c.lengths[2] - 11.0).abs() < 1e-12);
        assert!((c.volume() - 1100.0).abs() < 1e-9);
    }
}
