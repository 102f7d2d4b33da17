//! Orthorhombic simulation cell with periodic boundary conditions.

/// Orthorhombic box `[0, lx) × [0, ly) × [0, lz)`, fully periodic or open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub lengths: [f64; 3],
    pub periodic: bool,
}

impl Cell {
    pub fn orthorhombic(lx: f64, ly: f64, lz: f64) -> Self {
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "cell lengths must be positive"
        );
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
        for (x, &l) in out.iter_mut().zip(&self.lengths) {
            *x -= l * (*x / l).floor();
            // Guard against -0.0 and the r == l edge after rounding.
            if *x >= l {
                *x -= l;
            }
            if *x < 0.0 {
                *x += l;
            }
        }
        out
    }

    /// Minimum-image displacement `b - a`.
    ///
    /// Per axis this is `d − l·round(d/l)`. When `|d| ≤ l/4` the quotient
    /// lies in `[−¼, ¼]` and rounds to a zero of `d`'s sign, so the
    /// expression is `d − (±0)`: `d` itself, except that `−0.0` becomes
    /// `+0.0`. `d + 0.0` gives exactly those bits without the divide and
    /// the round — the common case, since most listed pairs are far
    /// closer than a quarter box.
    #[inline]
    pub fn displacement(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let mut d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
        if self.periodic {
            for (dk, &l) in d.iter_mut().zip(&self.lengths) {
                *dk = min_image_axis(*dk, l);
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

/// `d − l·round(d/l)`, bit for bit, skipping the divide when `|d| ≤ l/4`
/// (see [`Cell::displacement`]). The formatter's SIMD gather
/// (`dp_linalg::simd::env`) repeats this expression, since dp-md does not
/// depend on dp-linalg; its tests compare the two bit for bit.
#[inline]
fn min_image_axis(d: f64, l: f64) -> f64 {
    if d.abs() <= 0.25 * l {
        d + 0.0
    } else {
        d - l * (d / l).round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::for_cases;

    /// The fast path returns the bits of the full expression, signed
    /// zeros included: random displacements at several box lengths plus
    /// the edges — `±0`, one ulp either side of `±l/4`, around `±l/2`.
    #[test]
    fn minimum_image_fast_path_is_bit_exact() {
        let full = |d: f64, l: f64| d - l * (d / l).round();
        let next = |x: f64, up: bool| {
            let b = x.to_bits();
            // toward larger magnitude when `up`, for either sign
            f64::from_bits(if up { b + 1 } else { b - 1 })
        };
        for_cases(
            0x3ca1,
            64,
            |rng| {
                let l = rng.range(0.5, 200.0);
                let mut ds: Vec<f64> = (0..64).map(|_| rng.range(-l, l)).collect();
                for q in [0.25 * l, 0.5 * l] {
                    for x in [q, -q] {
                        ds.extend([x, next(x, true), next(x, false)]);
                    }
                }
                ds.extend([0.0, -0.0, f64::MIN_POSITIVE, -f64::MIN_POSITIVE]);
                (l, ds)
            },
            |(l, ds)| {
                for &d in ds {
                    let (fast, want) = (min_image_axis(d, *l), full(d, *l));
                    assert_eq!(
                        fast.to_bits(),
                        want.to_bits(),
                        "d {d:e} l {l}: {fast:e} vs {want:e}"
                    );
                }
            },
        );
    }

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
