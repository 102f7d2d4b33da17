//! The Environment operator's two per-center primitives (§5.2.1, §5.2.2),
//! runtime-dispatched like the rest of [`crate::simd`]:
//!
//! * [`gather_with`] turns one center's candidate list into its kept
//!   neighbors: displacement (minimum image when periodic), the keep test
//!   `1e-12 ≤ r² < r_c²`, compaction by index, and `√` for kept neighbors
//!   only. No branch depends on a candidate: every candidate is written at
//!   the kept count, which then grows by the keep bit.
//! * [`env_rows_with`] is one switch + environment-row sweep over kept
//!   neighbors in slot order: `s(r)`, `s′ = ds/dr`, the row `(s, s·d/r)`
//!   and the pair `(1/r, s′)` its Jacobian `∂row/∂d` is built from (with
//!   `s` and `d`), written straight into a table's slots.
//!
//! [`smooth_weight`] and [`env_row`] are the scalar definitions both
//! backends reproduce. `Scalar` and `Avx2` give the same bits: the vector
//! lanes are independent slots running the scalar expression, with no FMA
//! and no reordered sum. Lanes whose displacement exceeds a quarter box
//! take the minimum image's long form `d − l·round(d/l)`, four at a time
//! with `round` as LLVM lowers it.

use super::Backend;

/// The kept neighbors of one center, struct of arrays, in candidate order:
/// displacement `d = r_j − r_i`, distance and atom index of each. Filled
/// by [`gather_with`]; the arrays keep their capacity across centers.
#[derive(Debug, Default, Clone)]
pub struct Gathered {
    n: usize,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    r: Vec<f64>,
    j: Vec<u32>,
}

impl Gathered {
    /// Kept neighbors.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Displacement components, one of each per kept neighbor.
    pub fn d(&self) -> [&[f64]; 3] {
        let n = self.n;
        [&self.x[..n], &self.y[..n], &self.z[..n]]
    }

    /// Distances, one per kept neighbor.
    pub fn r(&self) -> &[f64] {
        &self.r[..self.n]
    }

    /// Atom indices, one per kept neighbor.
    pub fn j(&self) -> &[u32] {
        &self.j[..self.n]
    }

    // every array at least `m` long: the gather writes each candidate at
    // the kept count before deciding whether to keep it
    fn reserve(&mut self, m: usize) {
        if self.j.len() < m {
            for v in [&mut self.x, &mut self.y, &mut self.z, &mut self.r] {
                v.resize(m, 0.0);
            }
            self.j.resize(m, 0);
        }
    }
}

/// `d − l·round(d/l)`, bit for bit, skipping the divide when `|d| ≤ l/4`:
/// the quotient then rounds to a zero of `d`'s sign, so the result is `d`
/// with `−0.0` made `+0.0`, which `d + 0.0` gives. The per-axis minimum
/// image of `dp_md::Cell::displacement`.
#[inline]
fn min_image(d: f64, l: f64) -> f64 {
    if d.abs() <= 0.25 * l {
        d + 0.0
    } else {
        d - l * (d / l).round()
    }
}

// the keep test; NaN distances are kept, as the formatter always did
#[inline(always)]
fn keep(r2: f64, c2: f64) -> bool {
    !(r2 >= c2 || r2 < 1e-12)
}

/// The neighbors `j ∈ cand` of a center at `center` that lie within
/// `rcut`, into `out` in candidate order: `d = positions[j] − center`
/// (minimum image per axis when `periodic` holds the box lengths),
/// `r = √(d·d)`. Candidates closer than `1e-6` (coincident atoms) are
/// dropped. Panics if a candidate indexes past `positions`.
pub fn gather_with(
    backend: Backend,
    out: &mut Gathered,
    center: [f64; 3],
    positions: &[[f64; 3]],
    cand: &[u32],
    periodic: Option<[f64; 3]>,
    rcut: f64,
) {
    out.reserve(cand.len());
    let c2 = rcut * rcut;
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if super::x86::detected() => {
            // SAFETY: avx2 is detected on this host; `reserve` made every
            // array at least `cand.len()` long, which bounds the kernel's
            // stores.
            unsafe { x86::gather(out, center, positions, cand, periodic, c2) }
        }
        _ => gather_scalar(out, center, positions, cand, periodic, c2),
    }
}

fn gather_scalar(
    out: &mut Gathered,
    center: [f64; 3],
    positions: &[[f64; 3]],
    cand: &[u32],
    periodic: Option<[f64; 3]>,
    c2: f64,
) {
    let mut n = 0;
    for &j in cand {
        let p = positions[j as usize];
        let mut d = [p[0] - center[0], p[1] - center[1], p[2] - center[2]];
        if let Some(l) = periodic {
            for k in 0..3 {
                d[k] = min_image(d[k], l[k]);
            }
        }
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        out.x[n] = d[0];
        out.y[n] = d[1];
        out.z[n] = d[2];
        out.r[n] = r2;
        out.j[n] = j;
        n += keep(r2, c2) as usize;
    }
    for r in &mut out.r[..n] {
        *r = r.sqrt();
    }
    out.n = n;
}

/// `s(r)` and `ds/dr`: `1/r` inside `rcut_smth`, zero from `rcut` on, and
/// in between `1/r` times the DeepPot-SE cosine switch
/// `u = ½cos(πx) + ½`, `x = (r − rcut_smth)/(rcut − rcut_smth)`, with
/// `cos` and `sin` from [`sincos_pi`] and one divide, `1/r` (the window's
/// reciprocal is a constant of the sweep).
#[inline]
pub fn smooth_weight(r: f64, rcut_smth: f64, rcut: f64) -> (f64, f64) {
    debug_assert!(r > 0.0);
    let inv_r = 1.0 / r;
    if r >= rcut {
        (0.0, 0.0)
    } else if r <= rcut_smth {
        (inv_r, -inv_r * inv_r)
    } else {
        let inv_w = 1.0 / (rcut - rcut_smth);
        let x = (r - rcut_smth) * inv_w;
        let (sin, cos) = sincos_pi(x);
        let u = 0.5 * cos + 0.5;
        let du = -0.5 * std::f64::consts::PI * inv_w * sin;
        (u * inv_r, (du - u * inv_r) * inv_r)
    }
}

/// Cephes `sin.c` minimax polynomials on `[0, π/4]`: `sin z = z + z³·S(z²)`,
/// `cos z = 1 − z²/2 + z⁴·C(z²)`, highest degree first.
const SIN: [f64; 6] = [
    1.589_623_015_765_465_6e-10,
    -2.505_074_776_285_780_7e-8,
    2.755_731_362_138_572_2e-6,
    -1.984_126_982_958_954e-4,
    8.333_333_333_322_118e-3,
    -1.666_666_666_666_663e-1,
];
const COS: [f64; 6] = [
    -1.135_853_652_138_768_2e-11,
    2.087_570_084_197_473e-9,
    -2.755_731_417_929_674e-7,
    2.480_158_728_885_170_4e-5,
    -1.388_888_888_887_305_6e-3,
    4.166_666_666_666_659_5e-2,
];

/// `(sin πx, cos πx)` for `x ∈ [0, 1]`, within a few ulp of 1 of libm,
/// in plain multiplies and adds (no FMA, no table), so that a vector
/// lane reproduces it bit for bit. `sin π(1−x) = sin πx` and
/// `cos π(1−x) = −cos πx` fold `x` into `[0, ½]`, then
/// `sin π(½−a) = cos πa` into `[0, ¼]`; both subtractions are exact there.
#[inline]
fn sincos_pi(x: f64) -> (f64, f64) {
    let hi = x > 0.5;
    let a = if hi { 1.0 - x } else { x };
    let swap = a > 0.25;
    let b = if swap { 0.5 - a } else { a };
    let z = std::f64::consts::PI * b;
    let zz = z * z;
    let horner = |p: &[f64; 6]| p.iter().fold(0.0, |acc, &c| acc * zz + c);
    let sin = z + z * zz * horner(&SIN);
    let cos = 1.0 - 0.5 * zz + zz * zz * horner(&COS);
    let (sin, cos) = if swap { (cos, sin) } else { (sin, cos) };
    (sin, if hi { -cos } else { cos })
}

/// Environment row `w = (s, s·d/r)`.
#[inline]
pub fn env_row(d: [f64; 3], r: f64, s: f64) -> [f64; 4] {
    let inv_r = 1.0 / r;
    [
        s,
        s * (d[0] * inv_r),
        s * (d[1] * inv_r),
        s * (d[2] * inv_r),
    ]
}

/// For each neighbor `s` of `r.len()`, at displacement
/// `(d[0][s], d[1][s], d[2][s])` and distance `r[s]`: the environment row
/// `(s, s·d/r)` into `env[4s..4s+4]` and `(1/r, s′)` into
/// `radial[2s..2s+2]`, with `s(r)` and `s′` from [`smooth_weight`] — the
/// bits of [`env_row`] and of `1.0 / r` on every backend.
pub fn env_rows_with(
    backend: Backend,
    rcut_smth: f64,
    rcut: f64,
    d: [&[f64]; 3],
    r: &[f64],
    env: &mut [f64],
    radial: &mut [f64],
) {
    let n = r.len();
    assert!(
        d.iter().all(|c| c.len() == n),
        "one displacement per distance"
    );
    assert!(
        env.len() == 4 * n && radial.len() == 2 * n,
        "4 + 2 outputs per row"
    );
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if super::x86::detected() => {
            // SAFETY: avx2 is detected; the lengths were checked above.
            unsafe { x86::env_rows(rcut_smth, rcut, d, r, env, radial) }
        }
        _ => env_rows_scalar(rcut_smth, rcut, d, r, env, radial),
    }
}

// `env_rows_with`, one slot at a time
fn env_rows_scalar(
    rcut_smth: f64,
    rcut: f64,
    d: [&[f64]; 3],
    r: &[f64],
    env: &mut [f64],
    radial: &mut [f64],
) {
    for s in 0..r.len() {
        let (sw, dsw) = smooth_weight(r[s], rcut_smth, rcut);
        env[4 * s..4 * s + 4].copy_from_slice(&env_row([d[0][s], d[1][s], d[2][s]], r[s], sw));
        radial[2 * s..2 * s + 2].copy_from_slice(&[1.0 / r[s], dsw]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{keep, min_image, Gathered, COS, SIN};
    use std::arch::x86_64::*;

    /// Left-pack permutations for `_mm256_permutevar8x32_*`, by keep mask
    /// (bit `l` = lane `l` kept): f64 lanes as 32-bit pairs, then u32 lanes.
    const PACK: ([[i32; 8]; 16], [[i32; 8]; 16]) = {
        let mut pd = [[0i32; 8]; 16];
        let mut ps = [[0i32; 8]; 16];
        let mut m = 0;
        while m < 16 {
            let (mut t, mut l) = (0, 0usize);
            while l < 4 {
                if (m >> l) & 1 == 1 {
                    pd[m][2 * t] = 2 * l as i32;
                    pd[m][2 * t + 1] = 2 * l as i32 + 1;
                    ps[m][t] = l as i32;
                    t += 1;
                }
                l += 1;
            }
            m += 1;
        }
        (pd, ps)
    };

    // one axis of four displacements, `min_image` lane by lane: `d + 0`
    // within a quarter box, else `d − l·round(d/l)`, `round` (half away from
    // zero) as LLVM lowers it, `trunc(q + copysign(0.5 − 2⁻⁵⁴, q))`
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn min_image4(d: __m256d, l: __m256d, quarter: __m256d) -> __m256d {
        let sign = _mm256_set1_pd(-0.0);
        let abs = _mm256_andnot_pd(sign, d);
        // not-less-or-equal: NaN lanes take the long form, as in `min_image`
        let far = _mm256_cmp_pd::<_CMP_NLE_UQ>(abs, quarter);
        let near = _mm256_add_pd(d, _mm256_setzero_pd());
        if _mm256_movemask_pd(far) == 0 {
            return near;
        }
        let q = _mm256_div_pd(d, l);
        let half = _mm256_or_pd(
            _mm256_and_pd(q, sign),
            _mm256_set1_pd(0.499_999_999_999_999_94),
        );
        let k =
            _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_pd(q, half));
        _mm256_blendv_pd(near, _mm256_sub_pd(d, _mm256_mul_pd(l, k)), far)
    }

    /// # Safety
    /// The host has avx2, and every array of `out` is at least
    /// `cand.len()` long.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather(
        out: &mut Gathered,
        center: [f64; 3],
        positions: &[[f64; 3]],
        cand: &[u32],
        periodic: Option<[f64; 3]>,
        c2: f64,
    ) {
        let c = center.map(|x| _mm256_set1_pd(x));
        let l = periodic.unwrap_or([0.0; 3]);
        let quarter = l.map(|x| _mm256_set1_pd(0.25 * x));
        let l = l.map(|x| _mm256_set1_pd(x));
        let (c2v, tiny) = (_mm256_set1_pd(c2), _mm256_set1_pd(1e-12));
        let (xp, yp, zp, rp) = (
            out.x.as_mut_ptr(),
            out.y.as_mut_ptr(),
            out.z.as_mut_ptr(),
            out.r.as_mut_ptr(),
        );
        let jp = out.j.as_mut_ptr();
        let mut n = 0;
        let blocks = cand.chunks_exact(4);
        let tail = blocks.remainder();
        for js in blocks {
            let (p0, p1, p2, p3) = (
                &positions[js[0] as usize],
                &positions[js[1] as usize],
                &positions[js[2] as usize],
                &positions[js[3] as usize],
            );
            let axis = |k: usize| _mm256_sub_pd(_mm256_set_pd(p3[k], p2[k], p1[k], p0[k]), c[k]);
            let (mut dx, mut dy, mut dz) = (axis(0), axis(1), axis(2));
            if periodic.is_some() {
                dx = min_image4(dx, l[0], quarter[0]);
                dy = min_image4(dy, l[1], quarter[1]);
                dz = min_image4(dz, l[2], quarter[2]);
            }
            let r2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            );
            let drop = _mm256_or_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(r2, c2v),
                _mm256_cmp_pd::<_CMP_LT_OQ>(r2, tiny),
            );
            let mask = (_mm256_movemask_pd(drop) ^ 0xf) as usize;
            let pd = _mm256_loadu_si256(PACK.0[mask].as_ptr().cast());
            let pack =
                |v: __m256d| _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(v), pd));
            // n ≤ candidates before this block, so [n, n + 4) lies within
            // the `cand.len()` entries the caller guarantees
            _mm256_storeu_pd(xp.add(n), pack(dx));
            _mm256_storeu_pd(yp.add(n), pack(dy));
            _mm256_storeu_pd(zp.add(n), pack(dz));
            _mm256_storeu_pd(rp.add(n), pack(r2));
            let j4 = _mm256_castsi128_si256(_mm_loadu_si128(js.as_ptr().cast()));
            let ps = _mm256_loadu_si256(PACK.1[mask].as_ptr().cast());
            let jv = _mm256_permutevar8x32_epi32(j4, ps);
            _mm_storeu_si128(jp.add(n).cast(), _mm256_castsi256_si128(jv));
            n += mask.count_ones() as usize;
        }
        for &j in tail {
            let q = positions[j as usize];
            let mut d = [q[0] - center[0], q[1] - center[1], q[2] - center[2]];
            if let Some(l) = periodic {
                for k in 0..3 {
                    d[k] = min_image(d[k], l[k]);
                }
            }
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            *xp.add(n) = d[0];
            *yp.add(n) = d[1];
            *zp.add(n) = d[2];
            *rp.add(n) = r2;
            *jp.add(n) = j;
            n += keep(r2, c2) as usize;
        }
        let mut k = 0;
        while k + 4 <= n {
            _mm256_storeu_pd(rp.add(k), _mm256_sqrt_pd(_mm256_loadu_pd(rp.add(k))));
            k += 4;
        }
        while k < n {
            *rp.add(k) = (*rp.add(k)).sqrt();
            k += 1;
        }
        out.n = n;
    }

    // rows of four f64 vectors, lane l of row q going to `dst[l·stride + q]`
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store_transposed(v: [__m256d; 4], dst: *mut f64, stride: usize) {
        let t0 = _mm256_unpacklo_pd(v[0], v[1]);
        let t1 = _mm256_unpackhi_pd(v[0], v[1]);
        let t2 = _mm256_unpacklo_pd(v[2], v[3]);
        let t3 = _mm256_unpackhi_pd(v[2], v[3]);
        _mm256_storeu_pd(dst, _mm256_permute2f128_pd::<0x20>(t0, t2));
        _mm256_storeu_pd(dst.add(stride), _mm256_permute2f128_pd::<0x20>(t1, t3));
        _mm256_storeu_pd(dst.add(2 * stride), _mm256_permute2f128_pd::<0x31>(t0, t2));
        _mm256_storeu_pd(dst.add(3 * stride), _mm256_permute2f128_pd::<0x31>(t1, t3));
    }

    /// `sincos_pi` on four lanes: the same operations, selects as blends.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sincos_pi4(x: __m256d) -> (__m256d, __m256d) {
        let (one, half) = (_mm256_set1_pd(1.0), _mm256_set1_pd(0.5));
        let hi = _mm256_cmp_pd::<_CMP_GT_OQ>(x, half);
        let a = _mm256_blendv_pd(x, _mm256_sub_pd(one, x), hi);
        let swap = _mm256_cmp_pd::<_CMP_GT_OQ>(a, _mm256_set1_pd(0.25));
        let b = _mm256_blendv_pd(a, _mm256_sub_pd(half, a), swap);
        let z = _mm256_mul_pd(_mm256_set1_pd(std::f64::consts::PI), b);
        let zz = _mm256_mul_pd(z, z);
        let horner = |p: &[f64; 6]| {
            p.iter().fold(_mm256_setzero_pd(), |acc, &c| {
                _mm256_add_pd(_mm256_mul_pd(acc, zz), _mm256_set1_pd(c))
            })
        };
        let sin = _mm256_add_pd(z, _mm256_mul_pd(_mm256_mul_pd(z, zz), horner(&SIN)));
        let cos = _mm256_add_pd(
            _mm256_sub_pd(one, _mm256_mul_pd(half, zz)),
            _mm256_mul_pd(_mm256_mul_pd(zz, zz), horner(&COS)),
        );
        let (sin, cos) = (
            _mm256_blendv_pd(sin, cos, swap),
            _mm256_blendv_pd(cos, sin, swap),
        );
        let neg = _mm256_and_pd(hi, _mm256_set1_pd(-0.0));
        (sin, _mm256_xor_pd(cos, neg))
    }

    /// `smooth_weight` on four lanes, `inv_r = 1/r`: every branch computed,
    /// then blended in the scalar's order of precedence.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn switch(r: __m256d, inv_r: __m256d, rcut_smth: f64, rcut: f64) -> (__m256d, __m256d) {
        let inv_w = 1.0 / (rcut - rcut_smth);
        let x = _mm256_mul_pd(
            _mm256_sub_pd(r, _mm256_set1_pd(rcut_smth)),
            _mm256_set1_pd(inv_w),
        );
        let (sin, cos) = sincos_pi4(x);
        let half = _mm256_set1_pd(0.5);
        let u = _mm256_add_pd(_mm256_mul_pd(half, cos), half);
        let du = _mm256_mul_pd(_mm256_set1_pd(-0.5 * std::f64::consts::PI * inv_w), sin);
        let u_r = _mm256_mul_pd(u, inv_r);
        let mut ds = _mm256_mul_pd(_mm256_sub_pd(du, u_r), inv_r);
        let inside = _mm256_cmp_pd::<_CMP_LE_OQ>(r, _mm256_set1_pd(rcut_smth));
        let s = _mm256_blendv_pd(u_r, inv_r, inside);
        let neg_inv_r = _mm256_xor_pd(inv_r, _mm256_set1_pd(-0.0));
        ds = _mm256_blendv_pd(ds, _mm256_mul_pd(neg_inv_r, inv_r), inside);
        let outside = _mm256_cmp_pd::<_CMP_GE_OQ>(r, _mm256_set1_pd(rcut));
        (_mm256_andnot_pd(outside, s), _mm256_andnot_pd(outside, ds))
    }

    /// # Safety
    /// The host has avx2; `d[k]` and `r` hold `n` entries, `env` `4n` and
    /// `radial` `2n`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn env_rows(
        rcut_smth: f64,
        rcut: f64,
        d: [&[f64]; 3],
        r: &[f64],
        env: &mut [f64],
        radial: &mut [f64],
    ) {
        let n = r.len();
        let (ep, jp) = (env.as_mut_ptr(), radial.as_mut_ptr());
        let mut s0 = 0;
        while s0 + 4 <= n {
            let load = |v: &[f64]| _mm256_loadu_pd(v.as_ptr().add(s0));
            let dv = [load(d[0]), load(d[1]), load(d[2])];
            rows4(load(r), dv, rcut_smth, rcut, ep.add(4 * s0), jp.add(2 * s0));
            s0 += 4;
        }
        if s0 < n {
            // the last 1–3 rows as a block of four padded with r = 1,
            // through a stack buffer: lanes are independent, so the bits
            // are those of a full block
            let m = n - s0;
            let pad = |v: &[f64], fill: f64| {
                let mut x = [fill; 4];
                x[..m].copy_from_slice(&v[s0..]);
                _mm256_loadu_pd(x.as_ptr())
            };
            let dv = [pad(d[0], 0.0), pad(d[1], 0.0), pad(d[2], 0.0)];
            let (mut e, mut j) = ([0.0; 16], [0.0; 8]);
            rows4(
                pad(r, 1.0),
                dv,
                rcut_smth,
                rcut,
                e.as_mut_ptr(),
                j.as_mut_ptr(),
            );
            env[4 * s0..].copy_from_slice(&e[..4 * m]);
            radial[2 * s0..].copy_from_slice(&j[..2 * m]);
        }
    }

    /// Four consecutive rows: distances `r`, displacements `d`, rows to
    /// `env` (16 values) and `(1/r, s′)` pairs to `radial` (8).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn rows4(
        r: __m256d,
        d: [__m256d; 3],
        rcut_smth: f64,
        rcut: f64,
        env: *mut f64,
        radial: *mut f64,
    ) {
        let inv_r = _mm256_div_pd(_mm256_set1_pd(1.0), r);
        let (s, ds) = switch(r, inv_r, rcut_smth, rcut);
        let u = d.map(|x| _mm256_mul_pd(x, inv_r));
        let w = [
            s,
            _mm256_mul_pd(s, u[0]),
            _mm256_mul_pd(s, u[1]),
            _mm256_mul_pd(s, u[2]),
        ];
        store_transposed(w, env, 4);
        // lanes (0, 2) and (1, 3) interleaved, then halves regrouped
        let (lo, hi) = (_mm256_unpacklo_pd(inv_r, ds), _mm256_unpackhi_pd(inv_r, ds));
        _mm256_storeu_pd(radial, _mm256_permute2f128_pd::<0x20>(lo, hi));
        _mm256_storeu_pd(radial.add(4), _mm256_permute2f128_pd::<0x31>(lo, hi));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::available;
    use dp_md::rng::for_cases;
    use dp_md::{lattice, Cell, CounterRng, NeighborList, System};

    /// One property-suite input: a system, the cutoff its list is built at
    /// (cutoff + skin) and the formatting cutoff.
    #[derive(Debug)]
    struct Case {
        what: &'static str,
        sys: System,
        list_cut: f64,
        rcut: f64,
    }

    fn draw(rng: &mut CounterRng) -> Case {
        let jiggle = |mut sys: System, rng: &mut CounterRng| {
            sys.perturb(rng.range(0.0, 0.3), rng);
            sys
        };
        match rng.below(4) {
            // 9.31 Å box at 4.5 Å: most pairs lie beyond a quarter box,
            // so the minimum image takes its long form in many lanes
            0 => Case {
                what: "water 9.31 Å",
                sys: jiggle(lattice::water_box([3, 3, 3], 3.104), rng),
                list_cut: 4.6,
                rcut: 4.5,
            },
            // an open cell: raw displacements, no minimum image
            1 => {
                let mut sys = jiggle(lattice::fcc(3.615, [3, 3, 3], 63.5), rng);
                sys.cell = Cell::open(10.845, 10.845, 10.845);
                Case {
                    what: "open fcc",
                    sys,
                    list_cut: 5.0,
                    rcut: 4.5,
                }
            }
            // ghosts: the last third of an open cluster is not formatted
            // but is gathered
            2 => {
                let mut sys = jiggle(lattice::fcc(3.615, [4, 3, 3], 63.5), rng);
                sys.cell = Cell::open(14.46, 10.845, 10.845);
                sys.n_local = sys.len() * 2 / 3;
                Case {
                    what: "ghosts",
                    sys,
                    list_cut: 5.0,
                    rcut: 4.8,
                }
            }
            // coincident atoms: a copy of atom 0 on top of it (r² < 1e-12),
            // and a list cutoff that also lists pairs the gather drops
            _ => {
                let mut sys = jiggle(lattice::fcc(3.615, [3, 3, 3], 63.5), rng);
                let p = sys.positions[0];
                sys.positions.push([p[0], p[1], p[2] + 1e-8]);
                sys.types.push(0);
                sys.velocities.push([0.0; 3]);
                sys.forces.push([0.0; 3]);
                sys.n_local += 1;
                Case {
                    what: "coincident",
                    sys,
                    list_cut: 5.4,
                    rcut: 3.0,
                }
            }
        }
    }

    fn gathered(backend: Backend, c: &Case, nl: &NeighborList, i: usize) -> Gathered {
        let mut g = Gathered::default();
        let periodic = c.sys.cell.periodic.then_some(c.sys.cell.lengths);
        let cand = nl.neighbors_of(i);
        gather_with(
            backend,
            &mut g,
            c.sys.positions[i],
            &c.sys.positions,
            cand,
            periodic,
            c.rcut,
        );
        g
    }

    fn bits(g: &Gathered) -> Vec<u64> {
        let mut v: Vec<u64> = g
            .d()
            .iter()
            .flat_map(|c| c.iter().map(|x| x.to_bits()))
            .collect();
        v.extend(g.r().iter().map(|r| r.to_bits()));
        v.extend(g.j().iter().map(|&j| j as u64));
        v
    }

    /// Every backend keeps the neighbors `Cell::displacement` keeps, in
    /// list order, with its bits; then each backend's row sweep over them,
    /// whole and cut short at a `sel`-like width that is no multiple of 4,
    /// gives the scalar bits.
    #[test]
    fn gather_and_rows_agree_bitwise_across_backends() {
        for_cases(0xe1f0, 24, draw, |c| {
            let nl = NeighborList::build(&c.sys, c.list_cut);
            let mut seen = [0usize; 2];
            for i in 0..c.sys.n_local {
                let want = gathered(Backend::Scalar, c, &nl, i);
                // the reference: the displacement the MD substrate uses
                let mut n = 0;
                for &j in nl.neighbors_of(i) {
                    let d = c
                        .sys
                        .cell
                        .displacement(c.sys.positions[i], c.sys.positions[j as usize]);
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    if r2 >= c.rcut * c.rcut || r2 < 1e-12 {
                        seen[1] += (r2 < 1e-12) as usize;
                        continue;
                    }
                    assert_eq!(want.j()[n], j, "{}: atom {i}", c.what);
                    let got = want.d().map(|c| c[n].to_bits());
                    assert_eq!(got, d.map(f64::to_bits), "{}: atom {i}", c.what);
                    assert_eq!(want.r()[n].to_bits(), r2.sqrt().to_bits());
                    seen[0] += d
                        .iter()
                        .zip(c.sys.cell.lengths)
                        .any(|(x, l)| x.abs() > 0.25 * l) as usize;
                    n += 1;
                }
                assert_eq!(want.len(), n, "{}: atom {i}", c.what);
                let rows = |backend: Backend, m: usize| {
                    let [x, y, z] = want.d().map(|c| &c[..m]);
                    let (mut env, mut radial) = (vec![0.0; 4 * m], vec![0.0; 2 * m]);
                    env_rows_with(
                        backend,
                        1.0,
                        c.rcut,
                        [x, y, z],
                        &want.r()[..m],
                        &mut env,
                        &mut radial,
                    );
                    env.iter()
                        .chain(&radial)
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                };
                let cut = want.len().min(11);
                for backend in available() {
                    assert_eq!(
                        bits(&gathered(backend, c, &nl, i)),
                        bits(&want),
                        "{}: {backend:?}",
                        c.what
                    );
                    for m in [want.len(), cut] {
                        assert_eq!(
                            rows(backend, m),
                            rows(Backend::Scalar, m),
                            "{}: {backend:?} {m}",
                            c.what
                        );
                    }
                }
            }
            match c.what {
                "water 9.31 Å" => assert!(seen[0] > 0, "no long-form lanes"),
                "coincident" => assert!(seen[1] > 0, "no coincident pair"),
                _ => {}
            }
        });
    }

    /// The row sweep is `smooth_weight` + `env_row` and `(1/r, s′)` slot by
    /// slot, on both sides of the switch window and at its edges.
    #[test]
    fn rows_are_the_scalar_definitions() {
        let (rcs, rc) = (1.2, 4.8);
        let r: Vec<f64> = [0.5, 1.2, 1.3, 2.0, 3.9, 4.7999, 4.8, 5.0, 2.5].to_vec();
        let d: [Vec<f64>; 3] = [
            r.iter().map(|x| 0.6 * x).collect(),
            r.iter().map(|x| -0.8 * x).collect(),
            vec![0.0; r.len()],
        ];
        for backend in available() {
            let (mut env, mut radial) = (vec![0.0; 4 * r.len()], vec![0.0; 2 * r.len()]);
            env_rows_with(
                backend,
                rcs,
                rc,
                [&d[0], &d[1], &d[2]],
                &r,
                &mut env,
                &mut radial,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (s, &rs) in r.iter().enumerate() {
                let (sw, dsw) = smooth_weight(rs, rcs, rc);
                let w = env_row([d[0][s], d[1][s], d[2][s]], rs, sw);
                assert_eq!(bits(&env[4 * s..4 * s + 4]), bits(&w), "{backend:?} r {rs}");
                assert_eq!(
                    bits(&radial[2 * s..2 * s + 2]),
                    bits(&[1.0 / rs, dsw]),
                    "{backend:?} r {rs}"
                );
            }
        }
    }

    /// The polynomial switch against libm on a dense grid of each window
    /// `[rcut_smth, rcut]` the models here use: `u` and `du·(rcut −
    /// rcut_smth)` within 4 ulp of 1.
    #[test]
    fn polynomial_switch_matches_libm() {
        use std::f64::consts::PI;
        let tol = 4.0 * f64::EPSILON;
        for (rcs, rc) in [(0.5, 6.0), (1.2, 4.8), (1.0, 4.5), (0.5, 4.5), (1.125, 4.5)] {
            let n = 200_000;
            for i in 0..=n {
                let r = rcs + (rc - rcs) * i as f64 / n as f64;
                let x = (r - rcs) / (rc - rcs);
                let (sin, cos) = sincos_pi(x);
                let u = 0.5 * cos + 0.5;
                let du_w = -0.5 * PI * sin;
                let (u_ref, du_w_ref) = (0.5 * (PI * x).cos() + 0.5, -0.5 * PI * (PI * x).sin());
                assert!(
                    (u - u_ref).abs() <= tol,
                    "u at r {r} ({rcs}, {rc}): {u} vs {u_ref}"
                );
                assert!(
                    (du_w - du_w_ref).abs() <= tol,
                    "du at r {r} ({rcs}, {rc}): {du_w} vs {du_w_ref}"
                );
            }
        }
    }

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
