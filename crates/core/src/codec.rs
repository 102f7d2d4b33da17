//! 64-bit compressed neighbor encoding (§5.2.2).
//!
//! Formatting the neighbor list requires sorting each atom's neighbors
//! first by type, then by distance. The paper replaces the AoS struct sort
//! with a scalar sort by packing `(type, distance, index)` into one
//! unsigned 64-bit integer:
//!
//! > `α(j) × 10¹⁵ + ⌊|r_ij| × 10⁸⌋ × 10⁵ + j` — 4 digits for the atomic
//! > type, 10 digits for the atomic distance, and 5 digits for the atomic
//! > index.
//!
//! "Sorting the compressed neighbor list reduces the number of comparisons
//! by half" — one u64 compare replaces a type compare plus a distance
//! compare — and turns the sort into a flat, branch-free scalar sort.
//!
//! The decimal layout caps the local atom index at 10⁵ and the distance at
//! ~92 Å (1.8×10¹⁹ / 10¹⁵ ≈ 18 type values); both hold on the paper's
//! per-GPU sub-regions and on ours. For serial runs beyond 100k atoms we
//! provide an equivalent *binary* layout (6 type bits / 27 distance bits /
//! 31 index bits) with the same ordering semantics.
//!
//! The formatter's keys carry a neighbor's position in its atom's gather
//! list where the paper's carry the atom index `j`; that position is below
//! the system's atom count, so the index field's bound is the same. A key
//! outside a codec's fields aliases another, and the encoders only check
//! in debug builds: [`Codec::check`] tests a whole system (species, atoms
//! with ghosts, cutoff) once per formatting call, in release builds too,
//! and [`Codec::auto`] picks the decimal codec exactly when it fits.

/// Packed neighbor key. Ordering = (type, quantized distance, index).
pub type Key = u64;

/// The paper's decimal encoding. Panics (debug) outside its valid ranges:
/// `ty < 10`, `r < 92 Å`, `j < 100_000`.
#[inline]
pub fn encode_paper(ty: usize, r: f64, j: usize) -> Key {
    debug_assert!(ty < 10, "decimal codec supports < 10 types");
    debug_assert!((0.0..92.0).contains(&r), "decimal codec distance range");
    debug_assert!(j < 100_000, "decimal codec index range");
    // `as` truncates toward zero and saturates below at 0, so for any `r`
    // (NaN included) it gives `floor`'s key without the libm call
    ty as u64 * 1_000_000_000_000_000 + (r * 1.0e8) as u64 * 100_000 + j as u64
}

/// Decode the paper's decimal encoding into (type, distance, index). The
/// distance comes back quantized to 10⁻⁸ Å.
#[inline]
pub fn decode_paper(key: Key) -> (usize, f64, usize) {
    let ty = key / 1_000_000_000_000_000;
    let rest = key % 1_000_000_000_000_000;
    let rq = rest / 100_000;
    let j = rest % 100_000;
    (ty as usize, rq as f64 * 1.0e-8, j as usize)
}

/// Binary-split encoding: 6 bits type (64 types), 27 bits distance
/// (quantized at 2⁻²⁰ Å up to 128 Å), 31 bits index (2.1 G atoms).
#[inline]
pub fn encode_binary(ty: usize, r: f64, j: usize) -> Key {
    debug_assert!(ty < 64);
    debug_assert!((0.0..128.0).contains(&r));
    debug_assert!(j < (1usize << 31));
    let rq = (r * (1u64 << 20) as f64) as u64; // needs 27 bits for r<128
    ((ty as u64) << 58) | (rq << 31) | j as u64
}

/// Decode the binary encoding.
#[inline]
pub fn decode_binary(key: Key) -> (usize, f64, usize) {
    let ty = (key >> 58) as usize;
    let rq = (key >> 31) & ((1u64 << 27) - 1);
    let j = (key & ((1u64 << 31) - 1)) as usize;
    (ty, rq as f64 / (1u64 << 20) as f64, j)
}

/// Which codec a formatting pass should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// The paper's decimal layout (§5.2.2) — exact reproduction.
    PaperDecimal,
    /// Binary layout for systems beyond the decimal ranges.
    Binary,
}

impl Codec {
    /// Pick the decimal codec whenever its ranges allow, mirroring the
    /// paper; fall back to binary otherwise.
    pub fn auto(n_types: usize, n_atoms: usize, rcut: f64) -> Codec {
        if Codec::PaperDecimal.fits(n_types, n_atoms, rcut).is_ok() {
            Codec::PaperDecimal
        } else {
            Codec::Binary
        }
    }

    /// Whether keys of a system with `n_types` species and `n_atoms` atoms
    /// (ghosts included), neighbors within `rcut`, fit this codec's
    /// fields; the error names the bound crossed. Decimal: fewer than 10
    /// species, 100 000 atoms and 92 Å; binary: 64 species, 2³¹ atoms and
    /// 128 Å.
    pub fn fits(self, n_types: usize, n_atoms: usize, rcut: f64) -> Result<(), String> {
        let (types, atoms, r_max) = match self {
            Codec::PaperDecimal => (10, 100_000, 92.0),
            Codec::Binary => (64, 1 << 31, 128.0),
        };
        if n_types >= types {
            Err(format!(
                "{self:?} codec holds < {types} types, the system has {n_types}"
            ))
        } else if n_atoms >= atoms {
            Err(format!(
                "{self:?} codec holds < {atoms} atoms, the system has {n_atoms}"
            ))
        } else if rcut >= r_max || rcut.is_nan() {
            Err(format!(
                "{self:?} codec holds distances < {r_max} Å, the cutoff is {rcut}"
            ))
        } else {
            Ok(())
        }
    }

    /// [`Codec::fits`], panicking with the bound crossed. The encoders
    /// check their ranges in debug builds only, and a key outside them
    /// aliases another, so a formatter calls this once per call.
    pub fn check(self, n_types: usize, n_atoms: usize, rcut: f64) {
        if let Err(e) = self.fits(n_types, n_atoms, rcut) {
            panic!("{e}");
        }
    }

    #[inline]
    pub fn encode(self, ty: usize, r: f64, j: usize) -> Key {
        match self {
            Codec::PaperDecimal => encode_paper(ty, r, j),
            Codec::Binary => encode_binary(ty, r, j),
        }
    }

    #[inline]
    pub fn decode(self, key: Key) -> (usize, f64, usize) {
        match self {
            Codec::PaperDecimal => decode_paper(key),
            Codec::Binary => decode_binary(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_roundtrip() {
        let key = encode_paper(3, 5.4321, 98_765);
        let (ty, r, j) = decode_paper(key);
        assert_eq!(ty, 3);
        assert_eq!(j, 98_765);
        assert!((r - 5.4321).abs() < 1e-7);
    }

    #[test]
    fn binary_roundtrip() {
        let key = encode_binary(17, 63.25, 2_000_000_000);
        let (ty, r, j) = decode_binary(key);
        assert_eq!(ty, 17);
        assert_eq!(j, 2_000_000_000);
        assert!((r - 63.25).abs() < 2e-6);
    }

    #[test]
    fn ordering_is_type_then_distance_then_index() {
        for codec in [Codec::PaperDecimal, Codec::Binary] {
            // type dominates
            assert!(codec.encode(0, 80.0, 99_000) < codec.encode(1, 0.1, 0));
            // then distance
            assert!(codec.encode(1, 2.0, 99_000) < codec.encode(1, 2.5, 0));
            // then index
            assert!(codec.encode(1, 2.0, 5) < codec.encode(1, 2.0, 6));
        }
    }

    #[test]
    fn sorting_keys_equals_sorting_structs() {
        // the paper's claim: scalar sort gives the same order as the
        // struct comparator (type, then distance, then index)
        let mut structs: Vec<(usize, f64, usize)> = vec![
            (1, 3.0, 4),
            (0, 5.5, 2),
            (1, 2.9, 9),
            (0, 5.5, 1),
            (2, 0.1, 0),
            (0, 0.2, 7),
        ];
        for codec in [Codec::PaperDecimal, Codec::Binary] {
            let mut keys: Vec<Key> = structs
                .iter()
                .map(|&(t, r, j)| codec.encode(t, r, j))
                .collect();
            keys.sort_unstable();
            let decoded: Vec<(usize, usize)> = keys
                .iter()
                .map(|&k| {
                    let (t, _, j) = codec.decode(k);
                    (t, j)
                })
                .collect();
            structs.sort_by(|a, b| {
                a.0.cmp(&b.0)
                    .then(a.1.partial_cmp(&b.1).unwrap())
                    .then(a.2.cmp(&b.2))
            });
            let expect: Vec<(usize, usize)> = structs.iter().map(|&(t, _, j)| (t, j)).collect();
            assert_eq!(decoded, expect, "{codec:?}");
        }
    }

    #[test]
    fn auto_selects_decimal_then_binary() {
        assert_eq!(Codec::auto(2, 12_288, 6.0), Codec::PaperDecimal);
        assert_eq!(Codec::auto(2, 500_000, 6.0), Codec::Binary);
        assert_eq!(Codec::auto(12, 1_000, 6.0), Codec::Binary);
    }

    #[test]
    fn distance_quantization_error_bounded() {
        for codec in [Codec::PaperDecimal, Codec::Binary] {
            for i in 0..100 {
                let r = i as f64 * 0.0777;
                let (_, rq, _) = codec.decode(codec.encode(0, r, 0));
                assert!((rq - r).abs() < 2e-6, "{codec:?} r={r} rq={rq}");
            }
        }
    }
}
