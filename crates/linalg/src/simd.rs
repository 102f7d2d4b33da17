//! Runtime-dispatched SIMD primitives for the linalg hot kernels.
//!
//! The SC '20 paper earns its Table 3 speedups (130×/17×/38× on
//! Environment/ProdForce/ProdVirial) with hand-written CUDA kernels; this
//! module is the CPU analogue: `target_feature`-gated AVX2 (x86_64) and
//! NEON (aarch64) micro-kernels behind a runtime dispatch shim, with the
//! portable scalar loop kept as the correctness baseline. Every GEMM-class
//! kernel in [`crate::gemm`], [`crate::fused`], and [`crate::batch`] funnels
//! through the primitives here, so one dispatch decision covers the whole
//! crate.
//!
//! ## Dispatch
//!
//! The active backend is chosen once (cached) from the `DPMD_SIMD`
//! environment variable and CPU feature detection:
//!
//! * `DPMD_SIMD=off|0|scalar` — force the scalar fallback (CI runs the
//!   whole linalg suite this way so both paths stay green),
//! * `DPMD_SIMD=avx2` / `DPMD_SIMD=neon` — request a specific backend,
//!   silently falling back to scalar when the host lacks it,
//! * unset or `auto` — best backend the host supports.
//!
//! Every primitive also has a `_with(backend, ...)` variant so the
//! feature-matrix tests can pit backends against each other directly
//! without racing on global state.
//!
//! ## Panels
//!
//! The GEMM family runs as two **panel** kernels, [`row_panel`] (NN, and
//! TN through a column stride on `A`) and [`dot_panel`] (NT). A panel is
//! a whole batched GEMM — every item of a range, every row — resolved to
//! a backend once and run inside one `target_feature` function, with the
//! element kernels inlined. The AVX2 panels specialise by shape alone on
//! the shapes the §5.2.1 fixed-shape layout and the narrow embedding nets
//! make common:
//!
//! * dot panels with a short reduction — `k = 4` (the 4-wide R̃ axis)
//!   and, when `n ≥ 4`, `8 ≤ k ≤ 16` (the 8- and 16-wide embedding
//!   layers) — run their lanes across output columns from B's first `k`
//!   columns, transposed per item into a stack tile: they repeat the
//!   vector `dot`'s lane partials, add tree and fma tail column by column
//!   instead of calling it per element;
//! * an f32 row panel with `n = 4` packs two C rows into each 8-lane
//!   register, and a row panel with `n ∈ {8, 16}` runs several C rows
//!   per pass (four; two for f64 `n = 16`), each row in registers across
//!   the whole reduction.
//!
//! NEON and the scalar baseline run the same item × row loop over their
//! per-row kernels.
//!
//! ## Environment
//!
//! [`env`] holds the Environment operator's per-center primitives: the
//! candidate gather and the switch + environment-row sweep (§5.2.1), which
//! writes each slot's row `(s, s·d/r)` and the pair `(1/r, s′)` its
//! Jacobian is built from. Their AVX2 lanes are independent neighbors
//! running the scalar expression with plain multiplies and adds, so every
//! backend gives the same bits.
//!
//! ## Numerical contract
//!
//! Every output element has one floating-point expression per backend,
//! and the golden `to_bits` folds in `deepmd-core` pin it; a new kernel
//! must reproduce it exactly, whatever its lane layout:
//!
//! * **Row GEMM** ([`row_panel`], [`row_gemm_strided_with`], `axpy`):
//!   `c ← fma(b_p, alpha·a_p, c)` for `p` ascending, starting from C's
//!   initial value (zero when overwriting). The same on every backend —
//!   vector lanes are independent output columns, never a reordered
//!   reduction.
//! * **Dot** ([`dot`], [`dot_panel`]): the backend's own `dot` of the A
//!   row with the B row, then `alpha·d` when `alpha ≠ 1`, then `c + d`
//!   when accumulating. The dot itself:
//!   - `Scalar`, and `Avx2` with `k < 8` in f32 or `k < 4` in f64: an
//!     fma chain from `+0` in index order;
//!   - `Avx2` in f64 with `k = 4`: `((p0 + p2) + (p1 + p3)) + 0` with
//!     `p_q = fma(a_q, b_q, +0)` (the `+ 0` stands for `dot_f64`'s three
//!     zero accumulators: it turns a sum of four `-0` into `+0`);
//!   - longer `Avx2` dots: 4 (f64) or 2 (f32) lane accumulators, summed
//!     as in `x86::dot_f64` / `dot_f32`, then an fma tail — a few ULPs
//!     from the scalar chain, not bitwise. With `p_q = fma(a_q, b_q, +0)`:
//!     for `8 ≤ k ≤ 16`, `dot_f64`'s lane `l` holds the terms
//!     `q ≡ l (mod 4)` (four accumulators added pairwise when `k = 16`,
//!     else one fma chain over the 4-blocks plus `+0`s), the lanes fold
//!     as `(A0 + A2) + (A1 + A3)`, and the last `k mod 4` terms are
//!     fma-added after; for `8 ≤ k ≤ 16`, `dot_f32`'s lane `l` is
//!     `l_l = p_l + p_{l+8}` (`+0` for `p_{l+8}` below 16 terms), the
//!     lanes fold as `(s0 + s2) + (s1 + s3)` with `s_i = l_i + l_{i+4}`,
//!     and below 16 terms `8..k` are fma-added after. The column-lane
//!     dot panels repeat these operations, one output column per lane.
//!
//! `tanh_fused` uses a Cephes-style polynomial `exp` in the vector path
//! whose error against `std` `tanh` is a few ULPs (< 1e-13 in f64).
//! Non-finite inputs propagate per IEEE-754 on every path:
//! `tanh(NaN) = NaN`, `tanh(±inf) = ±1`, and no kernel here skips
//! multiply-adds on zero operands (`0 · inf` and `0 · NaN` must produce
//! NaN, as cuBLAS would).

use crate::real::Real;
use std::any::TypeId;
use std::ops::Range;
use std::sync::OnceLock;

pub mod env;

/// A vectorization backend. `Scalar` exists everywhere; the SIMD variants
/// are only *selectable* on hosts that support them (see [`available`]),
/// but the enum is architecture-independent so tests and diagnostics can
/// name all of them on any build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops — the correctness baseline.
    Scalar,
    /// AVX2 + FMA (x86_64), 4×f64 / 8×f32 lanes.
    Avx2,
    /// NEON (aarch64), 2×f64 / 4×f32 lanes.
    Neon,
}

impl Backend {
    /// Short name used in logs and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// All backends the running host can execute, scalar first. The last
/// entry is the best (what `auto` picks).
pub fn available() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    #[cfg(target_arch = "x86_64")]
    if x86::detected() {
        v.push(Backend::Avx2);
    }
    #[cfg(target_arch = "aarch64")]
    v.push(Backend::Neon);
    v
}

/// The backend every non-`_with` primitive uses. Resolved once from
/// `DPMD_SIMD` + feature detection and cached for the process lifetime.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let req = std::env::var("DPMD_SIMD")
            .map(|v| v.to_ascii_lowercase())
            .unwrap_or_default();
        let detected = available();
        match req.as_str() {
            "off" | "0" | "scalar" => Backend::Scalar,
            "avx2" if detected.contains(&Backend::Avx2) => Backend::Avx2,
            "neon" if detected.contains(&Backend::Neon) => Backend::Neon,
            // Unknown/unavailable request or auto: best detected.
            _ => *detected.last().unwrap_or(&Backend::Scalar),
        }
    })
}

#[inline(always)]
fn is<T: 'static, U: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<U>()
}

/// Reinterpret a slice of `T` as a slice of `U`.
///
/// # Safety
/// Caller must have checked `TypeId::of::<T>() == TypeId::of::<U>()`
/// (same type, so layout is trivially identical).
#[inline(always)]
unsafe fn cast<T, U>(s: &[T]) -> &[U] {
    std::slice::from_raw_parts(s.as_ptr().cast(), s.len())
}

/// Mutable variant of [`cast`]; same safety contract.
#[inline(always)]
unsafe fn cast_mut<T, U>(s: &mut [T]) -> &mut [U] {
    std::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), s.len())
}

// ---------------------------------------------------------------------------
// row_gemm: c[j] += Σ_p (alpha · a[p·a_stride]) · b[p·ldb + j]
// ---------------------------------------------------------------------------

/// Accumulate one GEMM output row on an explicit backend:
/// `c[j] += Σ_p (alpha·a[p·a_stride]) · B[p][j]` over a reduction of
/// length `k`, with `B` row-major at leading dimension `ldb` (only the
/// first `c.len()` columns of each `B` row are touched). One FMA per
/// output element, `p` ascending — bit-identical across backends. The
/// panels inline the same per-backend row kernels; this entry point
/// stays public as the per-row reference their tests compare against.
#[allow(
    clippy::too_many_arguments,
    reason = "public API: the per-row reference every panel test calls"
)]
pub fn row_gemm_strided_with<T: Real>(
    backend: Backend,
    c: &mut [T],
    k: usize,
    a: &[T],
    a_stride: usize,
    b: &[T],
    ldb: usize,
    alpha: T,
) {
    if k == 0 || c.is_empty() {
        return;
    }
    assert!(a.len() > (k - 1) * a_stride, "A panel too short");
    assert!(b.len() >= (k - 1) * ldb + c.len(), "B panel too short");
    match backend {
        Backend::Scalar => row_gemm_scalar(c, k, a, a_stride, b, ldb, alpha),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if x86::detected() => unsafe {
            if is::<T, f64>() {
                x86::row_gemm_f64(
                    cast_mut(c),
                    k,
                    cast(a),
                    a_stride,
                    cast(b),
                    ldb,
                    alpha.to_f64(),
                )
            } else if is::<T, f32>() {
                x86::row_gemm_f32(
                    cast_mut(c),
                    k,
                    cast(a),
                    a_stride,
                    cast(b),
                    ldb,
                    alpha.to_f64() as f32,
                )
            } else {
                row_gemm_scalar(c, k, a, a_stride, b, ldb, alpha)
            }
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe {
            if is::<T, f64>() {
                arm::row_gemm_f64(
                    cast_mut(c),
                    k,
                    cast(a),
                    a_stride,
                    cast(b),
                    ldb,
                    alpha.to_f64(),
                )
            } else if is::<T, f32>() {
                arm::row_gemm_f32(
                    cast_mut(c),
                    k,
                    cast(a),
                    a_stride,
                    cast(b),
                    ldb,
                    alpha.to_f64() as f32,
                )
            } else {
                row_gemm_scalar(c, k, a, a_stride, b, ldb, alpha)
            }
        },
        // A backend this build can't execute (e.g. Avx2 named on aarch64):
        // fall back to the baseline rather than panic.
        #[allow(unreachable_patterns)]
        _ => row_gemm_scalar(c, k, a, a_stride, b, ldb, alpha),
    }
}

fn row_gemm_scalar<T: Real>(
    c: &mut [T],
    k: usize,
    a: &[T],
    a_stride: usize,
    b: &[T],
    ldb: usize,
    alpha: T,
) {
    for p in 0..k {
        let s = alpha * a[p * a_stride];
        let b_row = &b[p * ldb..p * ldb + c.len()];
        for (cj, &bj) in c.iter_mut().zip(b_row.iter()) {
            *cj = bj.mul_add(s, *cj);
        }
    }
}

// ---------------------------------------------------------------------------
// dot
// ---------------------------------------------------------------------------

/// Dot product `Σ_i a[i]·b[i]`. Vector paths split the reduction over
/// four accumulators, so results agree with scalar to a few ULPs only.
#[inline]
pub fn dot<T: Real>(a: &[T], b: &[T]) -> T {
    dot_with(active(), a, b)
}

/// [`dot`] on an explicit backend.
pub fn dot_with<T: Real>(backend: Backend, a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len());
    match backend {
        Backend::Scalar => dot_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if x86::detected() => unsafe {
            if is::<T, f64>() {
                T::from_f64(x86::dot_f64(cast(a), cast(b)))
            } else if is::<T, f32>() {
                T::from_f64(x86::dot_f32(cast(a), cast(b)) as f64)
            } else {
                dot_scalar(a, b)
            }
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe {
            if is::<T, f64>() {
                T::from_f64(arm::dot_f64(cast(a), cast(b)))
            } else if is::<T, f32>() {
                T::from_f64(arm::dot_f32(cast(a), cast(b)) as f64)
            } else {
                dot_scalar(a, b)
            }
        },
        #[allow(unreachable_patterns)]
        _ => dot_scalar(a, b),
    }
}

fn dot_scalar<T: Real>(a: &[T], b: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&av, &bv) in a.iter().zip(b.iter()) {
        acc = av.mul_add(bv, acc);
    }
    acc
}

// ---------------------------------------------------------------------------
// panels: one dispatch per batched GEMM
// ---------------------------------------------------------------------------

/// Whether a panel overwrites `C` or accumulates into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acc {
    /// `C = alpha · A×B` (existing contents ignored).
    Overwrite,
    /// `C += alpha · A×B`.
    Add,
}

/// Operand layout for one batched problem, all in elements:
/// item `i` starts at `i * stride` and rows are `ld` apart.
#[derive(Debug, Clone, Copy)]
pub struct Panel {
    pub ld: usize,
    pub stride: usize,
}

/// One batched GEMM as the panels see it: for each item `i` of a range,
/// `C_i (+)= alpha · op(A_i) × op(B_i)` with `C_i` `m×n`, a reduction of
/// length `k`, and each operand laid out by its [`Panel`].
#[derive(Debug, Clone, Copy)]
pub struct PanelGemm<T> {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub alpha: T,
    pub a: Panel,
    pub b: Panel,
    pub c: Panel,
    pub acc: Acc,
}

impl<T: Real> PanelGemm<T> {
    /// The same problem typed for a kernel (only called with `U == T`, so
    /// `alpha` round-trips exactly).
    fn cast<U: Real>(&self) -> PanelGemm<U> {
        let Self {
            m,
            k,
            n,
            a,
            b,
            c,
            acc,
            ..
        } = *self;
        PanelGemm {
            m,
            k,
            n,
            alpha: U::from_f64(self.alpha.to_f64()),
            a,
            b,
            c,
            acc,
        }
    }

    /// The dot panel's epilogue: `alpha·d` when `alpha ≠ 1`, then `c + d`
    /// when accumulating.
    #[inline(always)]
    fn finish(&self, d: T, c: T) -> T {
        let d = if self.alpha == T::ONE {
            d
        } else {
            self.alpha * d
        };
        match self.acc {
            Acc::Overwrite => d,
            Acc::Add => c + d,
        }
    }
}

/// Elements an operand of `rows × cols` per item spans over items
/// `..end`; `usize::MAX` on overflow, so the bounds asserts fail.
fn extent(p: Panel, end: usize, rows: usize, cols: usize) -> usize {
    if end == 0 || rows == 0 || cols == 0 {
        return 0;
    }
    (end - 1)
        .checked_mul(p.stride)
        .and_then(|x| x.checked_add((rows - 1).checked_mul(p.ld)?))
        .and_then(|x| x.checked_add(cols))
        .unwrap_or(usize::MAX)
}

/// Row-GEMM panel over `items`: `C_i (+)= alpha · A_i × B_i` with `B_i`
/// `k×n` row-major and `A_i` `m×k` row-major, or stored `k×m` and read
/// down its columns when `trans_a` (no transpose is materialized). Each
/// element is the row-GEMM expression of the numerical contract.
#[inline]
pub fn row_panel<T: Real>(
    g: &PanelGemm<T>,
    trans_a: bool,
    items: Range<usize>,
    a: &[T],
    b: &[T],
    c: &mut [T],
) {
    row_panel_with(active(), g, trans_a, items, a, b, c)
}

/// [`row_panel`] on an explicit backend.
pub fn row_panel_with<T: Real>(
    backend: Backend,
    g: &PanelGemm<T>,
    trans_a: bool,
    items: Range<usize>,
    a: &[T],
    b: &[T],
    c: &mut [T],
) {
    let (m, k, n) = (g.m, g.k, g.n);
    if items.is_empty() || m == 0 || n == 0 {
        return;
    }
    let (a_rows, a_cols) = if trans_a { (k, m) } else { (m, k) };
    // The AVX2 kernels index through raw pointers: this covers every
    // element they touch.
    assert!(
        a.len() >= extent(g.a, items.end, a_rows, a_cols)
            && b.len() >= extent(g.b, items.end, k, n)
            && c.len() >= extent(g.c, items.end, m, n),
        "row panel operand too short"
    );
    // A(r, p) of an item sits at r·step.0 + p·step.1
    let step = if trans_a { (1, g.a.ld) } else { (g.a.ld, 1) };
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2+fma are detected on this host, the bounds are
        // asserted above, and `is` proves `T` is the kernel's type.
        Backend::Avx2 if x86::detected() => unsafe {
            if is::<T, f64>() {
                return x86::row_panel_f64(&g.cast(), step, items, cast(a), cast(b), cast_mut(c));
            } else if is::<T, f32>() {
                return x86::row_panel_f32(&g.cast(), step, items, cast(a), cast(b), cast_mut(c));
            }
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is mandatory on aarch64; `is` proves the type.
        Backend::Neon => unsafe {
            if is::<T, f64>() {
                let g = g.cast::<f64>();
                return row_loop(
                    &g,
                    step,
                    items,
                    cast(a),
                    cast(b),
                    cast_mut(c),
                    |c_row, a_r, b_i| {
                        arm::row_gemm_f64(c_row, k, a_r, step.1, b_i, g.b.ld, g.alpha)
                    },
                );
            } else if is::<T, f32>() {
                let g = g.cast::<f32>();
                return row_loop(
                    &g,
                    step,
                    items,
                    cast(a),
                    cast(b),
                    cast_mut(c),
                    |c_row, a_r, b_i| {
                        arm::row_gemm_f32(c_row, k, a_r, step.1, b_i, g.b.ld, g.alpha)
                    },
                );
            }
        },
        _ => {}
    }
    row_loop(g, step, items, a, b, c, |c_row, a_r, b_i| {
        row_gemm_scalar(c_row, k, a_r, step.1, b_i, g.b.ld, g.alpha)
    })
}

/// The item × row loop of a row panel over one backend's row kernel
/// `row(c_row, a_r, b_i)`, with `a_r` starting at A(r, 0).
#[inline(always)]
fn row_loop<T: Real>(
    g: &PanelGemm<T>,
    step: (usize, usize),
    items: Range<usize>,
    a: &[T],
    b: &[T],
    c: &mut [T],
    mut row: impl FnMut(&mut [T], &[T], &[T]),
) {
    for i in items {
        let (a_i, b_i) = (&a[i * g.a.stride..], &b[i * g.b.stride..]);
        for r in 0..g.m {
            let at = i * g.c.stride + r * g.c.ld;
            let c_row = &mut c[at..at + g.n];
            if g.acc == Acc::Overwrite {
                c_row.fill(T::ZERO);
            }
            row(c_row, &a_i[r * step.0..], b_i);
        }
    }
}

/// Dot panel over `items`: `C_i (+)= alpha · A_i × B_iᵀ` with `A_i` `m×k`
/// and `B_i` stored `n×k`, both row-major, so every element is a dot of
/// two contiguous rows — the dot expression of the numerical contract.
#[inline]
pub fn dot_panel<T: Real>(g: &PanelGemm<T>, items: Range<usize>, a: &[T], b: &[T], c: &mut [T]) {
    dot_panel_with(active(), g, items, a, b, c)
}

/// [`dot_panel`] on an explicit backend.
pub fn dot_panel_with<T: Real>(
    backend: Backend,
    g: &PanelGemm<T>,
    items: Range<usize>,
    a: &[T],
    b: &[T],
    c: &mut [T],
) {
    let (m, k, n) = (g.m, g.k, g.n);
    if items.is_empty() || m == 0 || n == 0 {
        return;
    }
    // as in `row_panel_with`: the AVX2 kernels rely on this
    assert!(
        a.len() >= extent(g.a, items.end, m, k)
            && b.len() >= extent(g.b, items.end, n, k)
            && c.len() >= extent(g.c, items.end, m, n),
        "dot panel operand too short"
    );
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `row_panel_with`.
        Backend::Avx2 if x86::detected() => unsafe {
            if is::<T, f64>() {
                return x86::dot_panel_f64(&g.cast(), items, cast(a), cast(b), cast_mut(c));
            } else if is::<T, f32>() {
                return x86::dot_panel_f32(&g.cast(), items, cast(a), cast(b), cast_mut(c));
            }
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as in `row_panel_with`.
        Backend::Neon => unsafe {
            if is::<T, f64>() {
                let g = g.cast::<f64>();
                return dot_loop(&g, items, cast(a), cast(b), cast_mut(c), |x, y| {
                    arm::dot_f64(x, y)
                });
            } else if is::<T, f32>() {
                let g = g.cast::<f32>();
                return dot_loop(&g, items, cast(a), cast(b), cast_mut(c), |x, y| {
                    arm::dot_f32(x, y)
                });
            }
        },
        _ => {}
    }
    dot_loop(g, items, a, b, c, dot_scalar)
}

/// The item × row × column loop of a dot panel over one backend's `dot`.
#[inline(always)]
fn dot_loop<T: Real>(
    g: &PanelGemm<T>,
    items: Range<usize>,
    a: &[T],
    b: &[T],
    c: &mut [T],
    dot: impl Fn(&[T], &[T]) -> T,
) {
    let k = g.k;
    for i in items {
        let (a_i, b_i) = (&a[i * g.a.stride..], &b[i * g.b.stride..]);
        for r in 0..g.m {
            let a_row = &a_i[r * g.a.ld..r * g.a.ld + k];
            let at = i * g.c.stride + r * g.c.ld;
            for (j, cj) in c[at..at + g.n].iter_mut().enumerate() {
                *cj = g.finish(dot(a_row, &b_i[j * g.b.ld..j * g.b.ld + k]), *cj);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// axpy / scale
// ---------------------------------------------------------------------------

/// `y[i] += alpha · x[i]`, one FMA per element — bit-identical across
/// backends (and an exact add when `alpha == 1`).
#[inline]
pub fn axpy<T: Real>(alpha: T, x: &[T], y: &mut [T]) {
    axpy_with(active(), alpha, x, y)
}

/// [`axpy`] on an explicit backend.
pub fn axpy_with<T: Real>(backend: Backend, alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len());
    match backend {
        Backend::Scalar => axpy_scalar(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if x86::detected() => unsafe {
            if is::<T, f64>() {
                x86::axpy_f64(alpha.to_f64(), cast(x), cast_mut(y))
            } else if is::<T, f32>() {
                x86::axpy_f32(alpha.to_f64() as f32, cast(x), cast_mut(y))
            } else {
                axpy_scalar(alpha, x, y)
            }
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe {
            if is::<T, f64>() {
                arm::axpy_f64(alpha.to_f64(), cast(x), cast_mut(y))
            } else if is::<T, f32>() {
                arm::axpy_f32(alpha.to_f64() as f32, cast(x), cast_mut(y))
            } else {
                axpy_scalar(alpha, x, y)
            }
        },
        #[allow(unreachable_patterns)]
        _ => axpy_scalar(alpha, x, y),
    }
}

fn axpy_scalar<T: Real>(alpha: T, x: &[T], y: &mut [T]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi.mul_add(alpha, *yi);
    }
}

/// `x[i] *= alpha` — a plain multiply on every path, bit-identical.
#[inline]
pub fn scale<T: Real>(x: &mut [T], alpha: T) {
    scale_with(active(), x, alpha)
}

/// [`scale`] on an explicit backend.
pub fn scale_with<T: Real>(backend: Backend, x: &mut [T], alpha: T) {
    match backend {
        Backend::Scalar => {
            for v in x.iter_mut() {
                *v *= alpha;
            }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if x86::detected() => unsafe {
            if is::<T, f64>() {
                x86::scale_f64(cast_mut(x), alpha.to_f64())
            } else if is::<T, f32>() {
                x86::scale_f32(cast_mut(x), alpha.to_f64() as f32)
            } else {
                scale_with(Backend::Scalar, x, alpha)
            }
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe {
            if is::<T, f64>() {
                arm::scale_f64(cast_mut(x), alpha.to_f64())
            } else if is::<T, f32>() {
                arm::scale_f32(cast_mut(x), alpha.to_f64() as f32)
            } else {
                scale_with(Backend::Scalar, x, alpha)
            }
        },
        #[allow(unreachable_patterns)]
        _ => scale_with(Backend::Scalar, x, alpha),
    }
}

// ---------------------------------------------------------------------------
// tanh_fused
// ---------------------------------------------------------------------------

/// `t[i] = tanh(x[i])`, `g[i] = 1 − tanh²(x[i])` in one pass. The AVX2
/// path uses a Cephes-style vector `exp` (error vs `std` tanh ≲ 1e-13 in
/// f64); NaN and ±inf inputs propagate exactly like `std` (`NaN → NaN`,
/// `±inf → ±1`). NEON falls back to the scalar loop — tanh is
/// compute-bound enough that the 2-lane win doesn't pay for a second
/// polynomial implementation.
#[inline]
pub fn tanh_fused<T: Real>(x: &[T], t: &mut [T], g: &mut [T]) {
    tanh_fused_with(active(), x, t, g)
}

/// [`tanh_fused`] on an explicit backend.
pub fn tanh_fused_with<T: Real>(backend: Backend, x: &[T], t: &mut [T], g: &mut [T]) {
    assert!(x.len() == t.len() && x.len() == g.len());
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if x86::detected() => unsafe {
            if is::<T, f64>() {
                x86::tanh_fused_f64(cast(x), cast_mut(t), cast_mut(g))
            } else if is::<T, f32>() {
                x86::tanh_fused_f32(cast(x), cast_mut(t), cast_mut(g))
            } else {
                tanh_fused_scalar(x, t, g)
            }
        },
        _ => tanh_fused_scalar(x, t, g),
    }
}

fn tanh_fused_scalar<T: Real>(x: &[T], t: &mut [T], g: &mut [T]) {
    for ((out_t, out_g), &v) in t.iter_mut().zip(g.iter_mut()).zip(x.iter()) {
        let tv = v.tanh();
        *out_t = tv;
        *out_g = T::ONE - tv * tv;
    }
}

// ---------------------------------------------------------------------------
// AVX2 micro-kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{dot_loop, row_loop, Acc, PanelGemm};
    use crate::real::Real;
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Whether this host can run the kernels below (avx2 + fma).
    pub fn detected() -> bool {
        !super::avx2_hidden() && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// # Safety: caller guarantees avx2+fma and the panel bounds checked
    /// by the dispatcher (`a.len() ≥ (k−1)·a_stride+1`,
    /// `b.len() ≥ (k−1)·ldb + c.len()`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_gemm_f64(
        c: &mut [f64],
        k: usize,
        a: &[f64],
        a_stride: usize,
        b: &[f64],
        ldb: usize,
        alpha: f64,
    ) {
        let n = c.len();
        let cp = c.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut j = 0;
        // 16-column tiles: four ymm accumulators live across the whole
        // p loop, so each C element is loaded/stored once per call.
        while j + 16 <= n {
            let mut c0 = _mm256_loadu_pd(cp.add(j));
            let mut c1 = _mm256_loadu_pd(cp.add(j + 4));
            let mut c2 = _mm256_loadu_pd(cp.add(j + 8));
            let mut c3 = _mm256_loadu_pd(cp.add(j + 12));
            for p in 0..k {
                let s = _mm256_set1_pd(alpha * *ap.add(p * a_stride));
                let br = bp.add(p * ldb + j);
                c0 = _mm256_fmadd_pd(_mm256_loadu_pd(br), s, c0);
                c1 = _mm256_fmadd_pd(_mm256_loadu_pd(br.add(4)), s, c1);
                c2 = _mm256_fmadd_pd(_mm256_loadu_pd(br.add(8)), s, c2);
                c3 = _mm256_fmadd_pd(_mm256_loadu_pd(br.add(12)), s, c3);
            }
            _mm256_storeu_pd(cp.add(j), c0);
            _mm256_storeu_pd(cp.add(j + 4), c1);
            _mm256_storeu_pd(cp.add(j + 8), c2);
            _mm256_storeu_pd(cp.add(j + 12), c3);
            j += 16;
        }
        while j + 4 <= n {
            let mut c0 = _mm256_loadu_pd(cp.add(j));
            for p in 0..k {
                let s = _mm256_set1_pd(alpha * *ap.add(p * a_stride));
                c0 = _mm256_fmadd_pd(_mm256_loadu_pd(bp.add(p * ldb + j)), s, c0);
            }
            _mm256_storeu_pd(cp.add(j), c0);
            j += 4;
        }
        // Remainder columns: scalar FMA, same rounding sequence.
        while j < n {
            let mut acc = *cp.add(j);
            for p in 0..k {
                acc = (*bp.add(p * ldb + j)).mul_add(alpha * *ap.add(p * a_stride), acc);
            }
            *cp.add(j) = acc;
            j += 1;
        }
    }

    /// # Safety: as [`row_gemm_f64`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_gemm_f32(
        c: &mut [f32],
        k: usize,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        ldb: usize,
        alpha: f32,
    ) {
        let n = c.len();
        let cp = c.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 32 <= n {
            let mut c0 = _mm256_loadu_ps(cp.add(j));
            let mut c1 = _mm256_loadu_ps(cp.add(j + 8));
            let mut c2 = _mm256_loadu_ps(cp.add(j + 16));
            let mut c3 = _mm256_loadu_ps(cp.add(j + 24));
            for p in 0..k {
                let s = _mm256_set1_ps(alpha * *ap.add(p * a_stride));
                let br = bp.add(p * ldb + j);
                c0 = _mm256_fmadd_ps(_mm256_loadu_ps(br), s, c0);
                c1 = _mm256_fmadd_ps(_mm256_loadu_ps(br.add(8)), s, c1);
                c2 = _mm256_fmadd_ps(_mm256_loadu_ps(br.add(16)), s, c2);
                c3 = _mm256_fmadd_ps(_mm256_loadu_ps(br.add(24)), s, c3);
            }
            _mm256_storeu_ps(cp.add(j), c0);
            _mm256_storeu_ps(cp.add(j + 8), c1);
            _mm256_storeu_ps(cp.add(j + 16), c2);
            _mm256_storeu_ps(cp.add(j + 24), c3);
            j += 32;
        }
        while j + 8 <= n {
            let mut c0 = _mm256_loadu_ps(cp.add(j));
            for p in 0..k {
                let s = _mm256_set1_ps(alpha * *ap.add(p * a_stride));
                c0 = _mm256_fmadd_ps(_mm256_loadu_ps(bp.add(p * ldb + j)), s, c0);
            }
            _mm256_storeu_ps(cp.add(j), c0);
            j += 8;
        }
        while j < n {
            let mut acc = *cp.add(j);
            for p in 0..k {
                acc = (*bp.add(p * ldb + j)).mul_add(alpha * *ap.add(p * a_stride), acc);
            }
            *cp.add(j) = acc;
            j += 1;
        }
    }

    /// Kept out of line: inlined into the dot panel's element loop, its
    /// 16-term loop picks up extra induction variables, and the
    /// paper-width embedding backward measured about 20 % slower.
    ///
    /// # Safety: caller guarantees avx2+fma and `a.len() == b.len()`.
    #[inline(never)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
        let k = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut p = 0;
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        while p + 16 <= k {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(p)), _mm256_loadu_pd(bp.add(p)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(p + 4)),
                _mm256_loadu_pd(bp.add(p + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(p + 8)),
                _mm256_loadu_pd(bp.add(p + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(p + 12)),
                _mm256_loadu_pd(bp.add(p + 12)),
                acc3,
            );
            p += 16;
        }
        while p + 4 <= k {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(p)), _mm256_loadu_pd(bp.add(p)), acc0);
            p += 4;
        }
        let acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
        let hi = _mm256_extractf128_pd::<1>(acc);
        let lo = _mm256_castpd256_pd128(acc);
        let sum2 = _mm_add_pd(lo, hi);
        let mut out = _mm_cvtsd_f64(_mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2)));
        while p < k {
            out = (*ap.add(p)).mul_add(*bp.add(p), out);
            p += 1;
        }
        out
    }

    /// Out of line for the reason given at [`dot_f64`].
    ///
    /// # Safety: as [`dot_f64`].
    #[inline(never)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
        let k = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut p = 0;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        while p + 16 <= k {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(p)), _mm256_loadu_ps(bp.add(p)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(p + 8)),
                _mm256_loadu_ps(bp.add(p + 8)),
                acc1,
            );
            p += 16;
        }
        while p + 8 <= k {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(p)), _mm256_loadu_ps(bp.add(p)), acc0);
            p += 8;
        }
        let acc = _mm256_add_ps(acc0, acc1);
        let hi = _mm256_extractf128_ps::<1>(acc);
        let lo = _mm256_castps256_ps128(acc);
        let sum4 = _mm_add_ps(lo, hi);
        let sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
        let mut out = _mm_cvtss_f32(_mm_add_ss(sum2, _mm_shuffle_ps::<0b01>(sum2, sum2)));
        while p < k {
            out = (*ap.add(p)).mul_add(*bp.add(p), out);
            p += 1;
        }
        out
    }

    /// One vector register of `T` lanes, so the narrow panels below are
    /// written once for both precisions and widths.
    ///
    /// # Safety: every method needs avx2+fma; `load` and `store` need
    /// `L` valid elements at the pointer.
    trait Lanes: Copy {
        type T: Real;
        /// lanes per register
        const L: usize;
        unsafe fn zero() -> Self;
        unsafe fn splat(x: Self::T) -> Self;
        unsafe fn load(p: *const Self::T) -> Self;
        unsafe fn store(self, p: *mut Self::T);
        /// `a·b + c`, one rounding
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
        unsafe fn add(a: Self, b: Self) -> Self;
        unsafe fn mul(a: Self, b: Self) -> Self;
    }

    macro_rules! lanes {
        ($v:ty, $t:ty, $l:expr, $zero:ident, $splat:ident, $load:ident, $store:ident,
         $fma:ident, $add:ident, $mul:ident) => {
            impl Lanes for $v {
                type T = $t;
                const L: usize = $l;
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn zero() -> Self {
                    $zero()
                }
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn splat(x: $t) -> Self {
                    $splat(x)
                }
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn load(p: *const $t) -> Self {
                    $load(p)
                }
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn store(self, p: *mut $t) {
                    $store(p, self)
                }
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
                    $fma(a, b, c)
                }
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn add(a: Self, b: Self) -> Self {
                    $add(a, b)
                }
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn mul(a: Self, b: Self) -> Self {
                    $mul(a, b)
                }
            }
        };
    }
    lanes!(
        __m256d,
        f64,
        4,
        _mm256_setzero_pd,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_fmadd_pd,
        _mm256_add_pd,
        _mm256_mul_pd
    );
    lanes!(
        __m256,
        f32,
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_fmadd_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    );
    lanes!(
        __m128,
        f32,
        4,
        _mm_setzero_ps,
        _mm_set1_ps,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_fmadd_ps,
        _mm_add_ps,
        _mm_mul_ps
    );

    /// C rows per pass of the narrow row panels, where the per-row kernel
    /// runs one: four rows of one or two registers keep four to eight
    /// independent FMA chains in flight. An f64 row of `n = 16` spans
    /// four registers, so it takes half as many rows: sixteen
    /// accumulators spill, and on a 4 056-row copper-shaped GEMM two rows
    /// per pass measured about 30 % faster than four.
    const ROWS: usize = 4;

    /// The narrow row panels (`n = V·L`): per item, `R` C rows at a
    /// time, then the leftover rows one by one, each row held in `V`
    /// registers across the whole `p` loop.
    ///
    /// # Safety: avx2+fma, and operands covering `items` (asserted by
    /// `row_panel_with`).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn narrow_rows<X: Lanes, const R: usize, const V: usize>(
        g: &PanelGemm<X::T>,
        step: (usize, usize),
        items: Range<usize>,
        a: &[X::T],
        b: &[X::T],
        c: &mut [X::T],
    ) {
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        for i in items {
            let (a_i, b_i, c_i) = (
                ap.add(i * g.a.stride),
                bp.add(i * g.b.stride),
                cp.add(i * g.c.stride),
            );
            let mut r = 0;
            while r + R <= g.m {
                rows_pass::<X, R, V>(g, step, a_i.add(r * step.0), b_i, c_i.add(r * g.c.ld));
                r += R;
            }
            for r in r..g.m {
                rows_pass::<X, 1, V>(g, step, a_i.add(r * step.0), b_i, c_i.add(r * g.c.ld));
            }
        }
    }

    /// `R` consecutive C rows from A(r, 0) at `a_r` and C(r, 0) at `c_r`:
    /// every element is `fma(b_p, alpha·a_p, c)` for `p` ascending from
    /// C's initial value (zero when overwriting), as in the per-row
    /// [`row_gemm_f32`] and [`row_gemm_f64`].
    ///
    /// # Safety: as [`narrow_rows`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rows_pass<X: Lanes, const R: usize, const V: usize>(
        g: &PanelGemm<X::T>,
        step: (usize, usize),
        a_r: *const X::T,
        b_i: *const X::T,
        c_r: *mut X::T,
    ) {
        let mut acc = [[X::zero(); V]; R];
        if g.acc == Acc::Add {
            for (q, row) in acc.iter_mut().enumerate() {
                for (v, x) in row.iter_mut().enumerate() {
                    *x = X::load(c_r.add(q * g.c.ld + v * X::L));
                }
            }
        }
        for p in 0..g.k {
            let b_p = b_i.add(p * g.b.ld);
            let mut bv = [X::zero(); V];
            for (v, b) in bv.iter_mut().enumerate() {
                *b = X::load(b_p.add(v * X::L));
            }
            for (q, row) in acc.iter_mut().enumerate() {
                let s = X::splat(g.alpha * *a_r.add(q * step.0 + p * step.1));
                for (x, &b) in row.iter_mut().zip(&bv) {
                    *x = X::fma(b, s, *x);
                }
            }
        }
        for (q, row) in acc.iter().enumerate() {
            for (v, x) in row.iter().enumerate() {
                x.store(c_r.add(q * g.c.ld + v * X::L));
            }
        }
    }

    /// Row panel in f64: `n = 8` and `16` take [`narrow_rows`] (`n = 4`
    /// is already one register per row).
    ///
    /// # Safety: caller guarantees avx2+fma and operands covering `items`
    /// (asserted by `row_panel_with`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_panel_f64(
        g: &PanelGemm<f64>,
        step: (usize, usize),
        items: Range<usize>,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
    ) {
        match g.n {
            8 => narrow_rows::<__m256d, ROWS, 2>(g, step, items, a, b, c),
            16 => narrow_rows::<__m256d, { ROWS / 2 }, 4>(g, step, items, a, b, c),
            _ => row_loop(g, step, items, a, b, c, |c_row, a_r, b_i| {
                row_gemm_f64(c_row, g.k, a_r, step.1, b_i, g.b.ld, g.alpha)
            }),
        }
    }

    /// Row panel in f32: `n = 8` and `16` take [`narrow_rows`]. With
    /// `n = 4`, rows `r` and `r+1` share one register as
    /// `[row r | row r+1]`; each lane is still one FMA chain over `p`
    /// ascending, as in [`row_gemm_f32`].
    ///
    /// # Safety: as [`row_panel_f64`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_panel_f32(
        g: &PanelGemm<f32>,
        step: (usize, usize),
        items: Range<usize>,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        match g.n {
            4 => {}
            8 => return narrow_rows::<__m256, ROWS, 1>(g, step, items, a, b, c),
            16 => return narrow_rows::<__m256, ROWS, 2>(g, step, items, a, b, c),
            _ => {
                return row_loop(g, step, items, a, b, c, |c_row, a_r, b_i| {
                    row_gemm_f32(c_row, g.k, a_r, step.1, b_i, g.b.ld, g.alpha)
                })
            }
        }
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let (ldb, ldc, alpha, add) = (g.b.ld, g.c.ld, g.alpha, g.acc == Acc::Add);
        for i in items {
            let (a_i, b_i, c_i) = (
                ap.add(i * g.a.stride),
                bp.add(i * g.b.stride),
                cp.add(i * g.c.stride),
            );
            let mut r = 0;
            while r + 2 <= g.m {
                let (a0, a1) = (a_i.add(r * step.0), a_i.add((r + 1) * step.0));
                let (c0, c1) = (c_i.add(r * ldc), c_i.add((r + 1) * ldc));
                let mut acc = if add {
                    _mm256_loadu2_m128(c1, c0)
                } else {
                    _mm256_setzero_ps()
                };
                for p in 0..g.k {
                    let s = _mm256_set_m128(
                        _mm_set1_ps(alpha * *a1.add(p * step.1)),
                        _mm_set1_ps(alpha * *a0.add(p * step.1)),
                    );
                    let bq = _mm_loadu_ps(b_i.add(p * ldb));
                    acc = _mm256_fmadd_ps(_mm256_set_m128(bq, bq), s, acc);
                }
                _mm256_storeu2_m128(c1, c0, acc);
                r += 2;
            }
            if r < g.m {
                let (a0, c0) = (a_i.add(r * step.0), c_i.add(r * ldc));
                let mut acc = if add {
                    _mm_loadu_ps(c0)
                } else {
                    _mm_setzero_ps()
                };
                for p in 0..g.k {
                    let s = _mm_set1_ps(alpha * *a0.add(p * step.1));
                    acc = _mm_fmadd_ps(_mm_loadu_ps(b_i.add(p * ldb)), s, acc);
                }
                _mm_storeu_ps(c0, acc);
            }
        }
    }

    /// Output columns per transposed B tile of the column-lane dot panels.
    const TILE: usize = 64;

    /// The frame of the column-lane dot panels (`k ≤ K`): per item, B's
    /// first `k` columns are transposed `TILE` output columns at a time
    /// into a stack tile, and `cols(x, tile, w, c_r)` writes the `w` C
    /// elements at `c_r` from the `k` entries of the A row at `x`, lanes
    /// running across columns.
    ///
    /// # Safety: operands cover `items` (asserted by `dot_panel_with`).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn col_tiles<T: Copy + Default, const K: usize>(
        g: &PanelGemm<T>,
        items: Range<usize>,
        a: &[T],
        b: &[T],
        c: &mut [T],
        mut cols: impl FnMut(*const T, &[[T; TILE]; K], usize, *mut T),
    ) {
        let k = g.k;
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let mut tile = [[T::default(); TILE]; K];
        for i in items {
            let (a_i, b_i, c_i) = (
                ap.add(i * g.a.stride),
                bp.add(i * g.b.stride),
                cp.add(i * g.c.stride),
            );
            for j0 in (0..g.n).step_by(TILE) {
                let w = TILE.min(g.n - j0);
                for j in 0..w {
                    let b_j = b_i.add((j0 + j) * g.b.ld);
                    for (q, t) in tile[..k].iter_mut().enumerate() {
                        t[j] = *b_j.add(q);
                    }
                }
                for r in 0..g.m {
                    cols(a_i.add(r * g.a.ld), &tile, w, c_i.add(r * g.c.ld + j0));
                }
            }
        }
    }

    /// The dot panels' epilogue on a register of output columns at `c`:
    /// `alpha·d` when `alpha ≠ 1`, then `c + d` when accumulating, stored.
    ///
    /// # Safety: avx2+fma; `c` covers `X::L` elements.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn finish_cols<X: Lanes>(g: &PanelGemm<X::T>, mut d: X, c: *mut X::T) {
        if g.alpha != X::T::ONE {
            d = X::mul(X::splat(g.alpha), d);
        }
        if g.acc == Acc::Add {
            d = X::add(X::load(c), d);
        }
        d.store(c);
    }

    /// [`dot_f64`]'s expression for one length `8 ≤ k ≤ 16`, one output
    /// column per lane: `x` points at the A row, `col(q)` loads entry `q`
    /// of the register's B columns. Its four accumulators hold the
    /// terms `q ≡ l (mod 4)` (one 16-term pass when `k = 16`, else an fma
    /// chain over the 4-blocks), added pairwise, then the fma tail.
    ///
    /// # Safety: avx2+fma.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_cols_f64<X: Lanes<T = f64>>(
        k: usize,
        x: *const f64,
        col: impl Fn(usize) -> X,
    ) -> X {
        let zero = X::zero();
        let term = |q: usize, acc| X::fma(X::splat(*x.add(q)), col(q), acc);
        let mut acc = [zero; 4];
        for (l, acc_l) in acc.iter_mut().enumerate() {
            *acc_l = if k == 16 {
                let (t0, t1) = (term(l, zero), term(4 + l, zero));
                let (t2, t3) = (term(8 + l, zero), term(12 + l, zero));
                X::add(X::add(t0, t1), X::add(t2, t3))
            } else {
                let mut t = zero;
                for q in (l..k & !3).step_by(4) {
                    t = term(q, t);
                }
                X::add(X::add(t, zero), X::add(zero, zero))
            };
        }
        let mut d = X::add(X::add(acc[0], acc[2]), X::add(acc[1], acc[3]));
        for q in k & !3..k {
            d = term(q, d);
        }
        d
    }

    /// [`dot_f32`]'s expression for one length `8 ≤ k ≤ 16`, one output
    /// column per lane of `X` (as [`dot_cols_f64`]): eight lane partials
    /// (two terms each when `k = 16`), the 8 → 4 → 2 → 1 add tree, then
    /// the fma tail.
    ///
    /// # Safety: avx2+fma.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_cols_f32<X: Lanes<T = f32>>(
        k: usize,
        x: *const f32,
        col: impl Fn(usize) -> X,
    ) -> X {
        let zero = X::zero();
        let term = |q: usize, acc| X::fma(X::splat(*x.add(q)), col(q), acc);
        let head = if k == 16 { 16 } else { 8 };
        let mut part = [zero; 8];
        for (q, p) in part.iter_mut().enumerate() {
            let hi = if k == 16 { term(q + 8, zero) } else { zero };
            *p = X::add(term(q, zero), hi);
        }
        let mut s = [zero; 4];
        for (i, s_i) in s.iter_mut().enumerate() {
            *s_i = X::add(part[i], part[i + 4]);
        }
        let mut d = X::add(X::add(s[0], s[2]), X::add(s[1], s[3]));
        for q in head..k {
            d = term(q, d);
        }
        d
    }

    /// Dot panel in f64. With `k = 4` every element is
    /// `((p0 + p2) + (p1 + p3)) + 0`, `p_q = fma(a_q, b_q, +0)`, and with
    /// `8 ≤ k ≤ 16` and `n ≥ 4` it is [`dot_cols_f64`] — [`dot_f64`]'s
    /// expressions for those lengths — four output columns per register.
    /// (`dot_cols_f64` also covers `k = 4`, but its general lane loops
    /// made water's `dG = R̃·dT1ᵀ` about twice as slow.)
    ///
    /// # Safety: as [`row_panel_f64`] (asserted by `dot_panel_with`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_panel_f64(
        g: &PanelGemm<f64>,
        items: Range<usize>,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
    ) {
        let k = g.k;
        if (8..=16).contains(&k) && g.n >= 4 {
            return col_tiles::<f64, 16>(g, items, a, b, c, |x, t, w, c_r| {
                let mut j = 0;
                while j + 4 <= w {
                    let d = dot_cols_f64(k, x, |q| __m256d::load(t[q].as_ptr().add(j)));
                    finish_cols(g, d, c_r.add(j));
                    j += 4;
                }
                while j < w {
                    let col: [f64; 16] = std::array::from_fn(|q| t[q][j]);
                    *c_r.add(j) = g.finish(
                        dot_f64(std::slice::from_raw_parts(x, k), &col[..k]),
                        *c_r.add(j),
                    );
                    j += 1;
                }
            });
        }
        if k != 4 {
            return dot_loop(g, items, a, b, c, |x, y| dot_f64(x, y));
        }
        let zero = _mm256_setzero_pd();
        col_tiles::<f64, 4>(g, items, a, b, c, |x, t, w, c_r| {
            let mut j = 0;
            while j + 4 <= w {
                let mut p = [zero; 4];
                for (q, p_q) in p.iter_mut().enumerate() {
                    let t_q = _mm256_loadu_pd(t[q].as_ptr().add(j));
                    *p_q = _mm256_fmadd_pd(_mm256_set1_pd(*x.add(q)), t_q, zero);
                }
                let d = _mm256_add_pd(_mm256_add_pd(p[0], p[2]), _mm256_add_pd(p[1], p[3]));
                finish_cols(g, _mm256_add_pd(d, zero), c_r.add(j));
                j += 4;
            }
            while j < w {
                let p: [f64; 4] = std::array::from_fn(|q| (*x.add(q)).mul_add(t[q][j], 0.0));
                *c_r.add(j) = g.finish(((p[0] + p[2]) + (p[1] + p[3])) + 0.0, *c_r.add(j));
                j += 1;
            }
        })
    }

    /// Dot panel in f32. With `k = 4` every element is an fma chain from
    /// `+0` in index order — [`dot_f32`]'s expression below eight terms —
    /// and with `8 ≤ k ≤ 16` and `n ≥ 4` it is [`dot_cols_f32`]; eight
    /// (then four) output columns per register.
    ///
    /// # Safety: as [`dot_panel_f64`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_panel_f32(
        g: &PanelGemm<f32>,
        items: Range<usize>,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let k = g.k;
        if (8..=16).contains(&k) && g.n >= 4 {
            return col_tiles::<f32, 16>(g, items, a, b, c, |x, t, w, c_r| {
                let mut j = 0;
                while j + 8 <= w {
                    let d = dot_cols_f32(k, x, |q| __m256::load(t[q].as_ptr().add(j)));
                    finish_cols(g, d, c_r.add(j));
                    j += 8;
                }
                if j + 4 <= w {
                    let d = dot_cols_f32(k, x, |q| __m128::load(t[q].as_ptr().add(j)));
                    finish_cols(g, d, c_r.add(j));
                    j += 4;
                }
                while j < w {
                    let col: [f32; 16] = std::array::from_fn(|q| t[q][j]);
                    *c_r.add(j) = g.finish(
                        dot_f32(std::slice::from_raw_parts(x, k), &col[..k]),
                        *c_r.add(j),
                    );
                    j += 1;
                }
            });
        }
        if k != 4 {
            return dot_loop(g, items, a, b, c, |x, y| dot_f32(x, y));
        }
        col_tiles::<f32, 4>(g, items, a, b, c, |x, t, w, c_r| {
            let mut j = 0;
            while j + 8 <= w {
                finish_cols(
                    g,
                    chain4(x, |q| __m256::load(t[q].as_ptr().add(j))),
                    c_r.add(j),
                );
                j += 8;
            }
            if j + 4 <= w {
                finish_cols(
                    g,
                    chain4(x, |q| __m128::load(t[q].as_ptr().add(j))),
                    c_r.add(j),
                );
                j += 4;
            }
            while j < w {
                let d = (0..4).fold(0.0f32, |d, q| (*x.add(q)).mul_add(t[q][j], d));
                *c_r.add(j) = g.finish(d, *c_r.add(j));
                j += 1;
            }
        })
    }

    /// The fma chain from `+0` over four terms, one output column per
    /// lane (as [`dot_cols_f32`]).
    ///
    /// # Safety: avx2+fma.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn chain4<X: Lanes>(x: *const X::T, col: impl Fn(usize) -> X) -> X {
        let mut d = X::zero();
        for q in 0..4 {
            d = X::fma(X::splat(*x.add(q)), col(q), d);
        }
        d
    }

    /// # Safety: caller guarantees avx2+fma and `x.len() == y.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let s = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), s, _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), v);
            i += 4;
        }
        while i < n {
            *yp.add(i) = (*xp.add(i)).mul_add(alpha, *yp.add(i));
            i += 1;
        }
    }

    /// # Safety: as [`axpy_f64`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let s = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), s, _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), v);
            i += 8;
        }
        while i < n {
            *yp.add(i) = (*xp.add(i)).mul_add(alpha, *yp.add(i));
            i += 1;
        }
    }

    /// # Safety: caller guarantees avx2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_f64(x: &mut [f64], alpha: f64) {
        let n = x.len();
        let xp = x.as_mut_ptr();
        let s = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 4 <= n {
            _mm256_storeu_pd(xp.add(i), _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), s));
            i += 4;
        }
        while i < n {
            *xp.add(i) *= alpha;
            i += 1;
        }
    }

    /// # Safety: caller guarantees avx2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_f32(x: &mut [f32], alpha: f32) {
        let n = x.len();
        let xp = x.as_mut_ptr();
        let s = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(xp.add(i), _mm256_mul_ps(_mm256_loadu_ps(xp.add(i)), s));
            i += 8;
        }
        while i < n {
            *xp.add(i) *= alpha;
            i += 1;
        }
    }

    /// Cephes-style `exp` on 4 f64 lanes. Inputs must already be clamped
    /// to a non-overflowing range (the tanh caller clamps to [0, 44]).
    ///
    /// # Safety: caller guarantees avx2+fma.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp_pd(x: __m256d) -> __m256d {
        const LOG2E: f64 = std::f64::consts::LOG2_E;
        // Cody–Waite split of ln 2 for exact argument reduction.
        const C1: f64 = 6.931_457_519_531_25e-1;
        const C2: f64 = 1.428_606_820_309_417_2e-6;
        // Cephes rational coefficients: exp(r) = 1 + 2r·P(r²)/(Q(r²) − r·P(r²)).
        const P0: f64 = 1.261_771_930_748_105_9e-4;
        const P1: f64 = 3.029_944_077_074_419_6e-2;
        // Cephes' 9.999_999_999_999_999_9e-1, which rounds to 1.0
        const P2: f64 = 1.0;
        const Q0: f64 = 3.001_985_051_386_644_6e-6;
        const Q1: f64 = 2.524_483_403_496_841e-3;
        const Q2: f64 = 2.272_655_482_081_550_3e-1;
        const Q3: f64 = 2.0;

        let half = _mm256_set1_pd(0.5);
        let n = _mm256_floor_pd(_mm256_fmadd_pd(x, _mm256_set1_pd(LOG2E), half));
        // r = x − n·ln2, in two steps so the reduction is exact.
        let mut r = _mm256_fnmadd_pd(n, _mm256_set1_pd(C1), x);
        r = _mm256_fnmadd_pd(n, _mm256_set1_pd(C2), r);
        let rr = _mm256_mul_pd(r, r);
        let mut px = _mm256_set1_pd(P0);
        px = _mm256_fmadd_pd(px, rr, _mm256_set1_pd(P1));
        px = _mm256_fmadd_pd(px, rr, _mm256_set1_pd(P2));
        px = _mm256_mul_pd(px, r);
        let mut qx = _mm256_set1_pd(Q0);
        qx = _mm256_fmadd_pd(qx, rr, _mm256_set1_pd(Q1));
        qx = _mm256_fmadd_pd(qx, rr, _mm256_set1_pd(Q2));
        qx = _mm256_fmadd_pd(qx, rr, _mm256_set1_pd(Q3));
        let e = _mm256_fmadd_pd(
            _mm256_set1_pd(2.0),
            _mm256_div_pd(px, _mm256_sub_pd(qx, px)),
            _mm256_set1_pd(1.0),
        );
        // Scale by 2^n: widen the i32 exponents to i64 and add into the
        // exponent bits of 1.0.
        let n_i32 = _mm256_cvtpd_epi32(n);
        let n_i64 = _mm256_cvtepi32_epi64(n_i32);
        let pow2 = _mm256_slli_epi64::<52>(_mm256_add_epi64(n_i64, _mm256_set1_epi64x(1023)));
        _mm256_mul_pd(e, _mm256_castsi256_pd(pow2))
    }

    /// Fused tanh + gradient on f64 lanes: `tanh(x) = sign(x)·(e−1)/(e+1)`
    /// with `e = exp(min(2|x|, 44))`. The clamp makes `±inf → ±1`; NaN
    /// inputs are restored by a final unordered-compare blend.
    ///
    /// # Safety: caller guarantees avx2+fma.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_fused_f64(x: &[f64], t: &mut [f64], g: &mut [f64]) {
        let n = x.len();
        let xp = x.as_ptr();
        let tp = t.as_mut_ptr();
        let gp = g.as_mut_ptr();
        let sign_mask = _mm256_set1_pd(-0.0);
        let one = _mm256_set1_pd(1.0);
        let clamp = _mm256_set1_pd(44.0);
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(xp.add(i));
            let sign = _mm256_and_pd(v, sign_mask);
            let av = _mm256_andnot_pd(sign_mask, v);
            let z = _mm256_min_pd(_mm256_add_pd(av, av), clamp);
            let e = exp_pd(z);
            let r = _mm256_div_pd(_mm256_sub_pd(e, one), _mm256_add_pd(e, one));
            let mut tv = _mm256_or_pd(r, sign);
            // min() replaced NaN with the clamp value; put the NaN back.
            let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(v, v);
            tv = _mm256_blendv_pd(tv, v, nan);
            _mm256_storeu_pd(tp.add(i), tv);
            _mm256_storeu_pd(gp.add(i), _mm256_fnmadd_pd(tv, tv, one));
            i += 4;
        }
        while i < n {
            let tv = (*xp.add(i)).tanh();
            *tp.add(i) = tv;
            *gp.add(i) = 1.0 - tv * tv;
            i += 1;
        }
    }

    /// `exp` on 8 f32 lanes (classic `exp_ps` construction). Inputs must
    /// be pre-clamped (the tanh caller clamps to [0, 20]).
    ///
    /// # Safety: caller guarantees avx2+fma.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        const LOG2E: f32 = std::f32::consts::LOG2_E;
        // 0.693_359_375 (= 355/512) to the nearest shorter literal
        const C1: f32 = 0.693_359_4;
        const C2: f32 = -2.121_944_4e-4;
        const P0: f32 = 1.987_569_2e-4;
        const P1: f32 = 1.398_199_9e-3;
        const P2: f32 = 8.333_452e-3;
        const P3: f32 = 4.166_579_6e-2;
        const P4: f32 = 1.666_666_6e-1;
        // the classic 5.000_000_2e-1, which rounds to 0.5 in f32
        const P5: f32 = 0.5;

        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let n = _mm256_floor_ps(_mm256_fmadd_ps(x, _mm256_set1_ps(LOG2E), half));
        let mut r = _mm256_fnmadd_ps(n, _mm256_set1_ps(C1), x);
        r = _mm256_fnmadd_ps(n, _mm256_set1_ps(C2), r);
        let rr = _mm256_mul_ps(r, r);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P1));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P2));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P4));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P5));
        y = _mm256_fmadd_ps(y, rr, _mm256_add_ps(r, one));
        let n_i32 = _mm256_cvtps_epi32(n);
        let pow2 = _mm256_slli_epi32::<23>(_mm256_add_epi32(n_i32, _mm256_set1_epi32(127)));
        _mm256_mul_ps(y, _mm256_castsi256_ps(pow2))
    }

    /// f32 variant of [`tanh_fused_f64`] (clamp at 20: past that the
    /// ratio rounds to 1.0f32).
    ///
    /// # Safety: caller guarantees avx2+fma.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_fused_f32(x: &[f32], t: &mut [f32], g: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let tp = t.as_mut_ptr();
        let gp = g.as_mut_ptr();
        let sign_mask = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let clamp = _mm256_set1_ps(20.0);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(xp.add(i));
            let sign = _mm256_and_ps(v, sign_mask);
            let av = _mm256_andnot_ps(sign_mask, v);
            let z = _mm256_min_ps(_mm256_add_ps(av, av), clamp);
            let e = exp_ps(z);
            let r = _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
            let mut tv = _mm256_or_ps(r, sign);
            let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
            tv = _mm256_blendv_ps(tv, v, nan);
            _mm256_storeu_ps(tp.add(i), tv);
            _mm256_storeu_ps(gp.add(i), _mm256_fnmadd_ps(tv, tv, one));
            i += 8;
        }
        while i < n {
            let tv = (*xp.add(i)).tanh();
            *tp.add(i) = tv;
            *gp.add(i) = 1.0 - tv * tv;
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// NEON micro-kernels (aarch64; NEON is architecturally mandatory there)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use std::arch::aarch64::*;

    /// # Safety: panel bounds checked by the dispatcher.
    #[target_feature(enable = "neon")]
    pub unsafe fn row_gemm_f64(
        c: &mut [f64],
        k: usize,
        a: &[f64],
        a_stride: usize,
        b: &[f64],
        ldb: usize,
        alpha: f64,
    ) {
        let n = c.len();
        let cp = c.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 4 <= n {
            let mut c0 = vld1q_f64(cp.add(j));
            let mut c1 = vld1q_f64(cp.add(j + 2));
            for p in 0..k {
                let s = vdupq_n_f64(alpha * *ap.add(p * a_stride));
                let br = bp.add(p * ldb + j);
                c0 = vfmaq_f64(c0, vld1q_f64(br), s);
                c1 = vfmaq_f64(c1, vld1q_f64(br.add(2)), s);
            }
            vst1q_f64(cp.add(j), c0);
            vst1q_f64(cp.add(j + 2), c1);
            j += 4;
        }
        while j < n {
            let mut acc = *cp.add(j);
            for p in 0..k {
                acc = (*bp.add(p * ldb + j)).mul_add(alpha * *ap.add(p * a_stride), acc);
            }
            *cp.add(j) = acc;
            j += 1;
        }
    }

    /// # Safety: as [`row_gemm_f64`].
    #[target_feature(enable = "neon")]
    pub unsafe fn row_gemm_f32(
        c: &mut [f32],
        k: usize,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        ldb: usize,
        alpha: f32,
    ) {
        let n = c.len();
        let cp = c.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let mut c0 = vld1q_f32(cp.add(j));
            let mut c1 = vld1q_f32(cp.add(j + 4));
            for p in 0..k {
                let s = vdupq_n_f32(alpha * *ap.add(p * a_stride));
                let br = bp.add(p * ldb + j);
                c0 = vfmaq_f32(c0, vld1q_f32(br), s);
                c1 = vfmaq_f32(c1, vld1q_f32(br.add(4)), s);
            }
            vst1q_f32(cp.add(j), c0);
            vst1q_f32(cp.add(j + 4), c1);
            j += 8;
        }
        while j < n {
            let mut acc = *cp.add(j);
            for p in 0..k {
                acc = (*bp.add(p * ldb + j)).mul_add(alpha * *ap.add(p * a_stride), acc);
            }
            *cp.add(j) = acc;
            j += 1;
        }
    }

    /// # Safety: `a.len() == b.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
        let k = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut p = 0;
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        while p + 4 <= k {
            acc0 = vfmaq_f64(acc0, vld1q_f64(ap.add(p)), vld1q_f64(bp.add(p)));
            acc1 = vfmaq_f64(acc1, vld1q_f64(ap.add(p + 2)), vld1q_f64(bp.add(p + 2)));
            p += 4;
        }
        let mut out = vaddvq_f64(vaddq_f64(acc0, acc1));
        while p < k {
            out = (*ap.add(p)).mul_add(*bp.add(p), out);
            p += 1;
        }
        out
    }

    /// # Safety: as [`dot_f64`].
    #[target_feature(enable = "neon")]
    pub unsafe fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
        let k = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut p = 0;
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        while p + 8 <= k {
            acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(p)), vld1q_f32(bp.add(p)));
            acc1 = vfmaq_f32(acc1, vld1q_f32(ap.add(p + 4)), vld1q_f32(bp.add(p + 4)));
            p += 8;
        }
        let mut out = vaddvq_f32(vaddq_f32(acc0, acc1));
        while p < k {
            out = (*ap.add(p)).mul_add(*bp.add(p), out);
            p += 1;
        }
        out
    }

    /// # Safety: `x.len() == y.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let s = vdupq_n_f64(alpha);
        let mut i = 0;
        while i + 2 <= n {
            vst1q_f64(
                yp.add(i),
                vfmaq_f64(vld1q_f64(yp.add(i)), vld1q_f64(xp.add(i)), s),
            );
            i += 2;
        }
        while i < n {
            *yp.add(i) = (*xp.add(i)).mul_add(alpha, *yp.add(i));
            i += 1;
        }
    }

    /// # Safety: as [`axpy_f64`].
    #[target_feature(enable = "neon")]
    pub unsafe fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let s = vdupq_n_f32(alpha);
        let mut i = 0;
        while i + 4 <= n {
            vst1q_f32(
                yp.add(i),
                vfmaq_f32(vld1q_f32(yp.add(i)), vld1q_f32(xp.add(i)), s),
            );
            i += 4;
        }
        while i < n {
            *yp.add(i) = (*xp.add(i)).mul_add(alpha, *yp.add(i));
            i += 1;
        }
    }

    /// # Safety: caller is on aarch64 (NEON mandatory).
    #[target_feature(enable = "neon")]
    pub unsafe fn scale_f64(x: &mut [f64], alpha: f64) {
        let n = x.len();
        let xp = x.as_mut_ptr();
        let s = vdupq_n_f64(alpha);
        let mut i = 0;
        while i + 2 <= n {
            vst1q_f64(xp.add(i), vmulq_f64(vld1q_f64(xp.add(i)), s));
            i += 2;
        }
        while i < n {
            *xp.add(i) *= alpha;
            i += 1;
        }
    }

    /// # Safety: caller is on aarch64 (NEON mandatory).
    #[target_feature(enable = "neon")]
    pub unsafe fn scale_f32(x: &mut [f32], alpha: f32) {
        let n = x.len();
        let xp = x.as_mut_ptr();
        let s = vdupq_n_f32(alpha);
        let mut i = 0;
        while i + 4 <= n {
            vst1q_f32(xp.add(i), vmulq_f32(vld1q_f32(xp.add(i)), s));
            i += 4;
        }
        while i < n {
            *xp.add(i) *= alpha;
            i += 1;
        }
    }
}

/// Outside tests nothing hides AVX2 from [`x86::detected`].
#[cfg(all(not(test), target_arch = "x86_64"))]
#[inline(always)]
fn avx2_hidden() -> bool {
    false
}

/// Test builds: whether this thread set `tests::HIDE_AVX2`, so that an
/// AVX2 host reaches the `*_with` entry points' fallback arms.
#[cfg(all(test, target_arch = "x86_64"))]
fn avx2_hidden() -> bool {
    tests::HIDE_AVX2.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_arch = "x86_64")]
    thread_local! {
        /// While set, `x86::detected` answers false on this thread.
        pub(super) static HIDE_AVX2: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    fn vec_f64(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n).map(|_| lcg(&mut s) * 3.0).collect()
    }

    /// [`row_gemm_strided_with`] on a contiguous `A` row.
    fn row_gemm_with<T: Real>(
        backend: Backend,
        c: &mut [T],
        a: &[T],
        b: &[T],
        ldb: usize,
        alpha: T,
    ) {
        row_gemm_strided_with(backend, c, a.len(), a, 1, b, ldb, alpha)
    }

    #[test]
    fn dispatch_honors_scalar_and_detection() {
        let avail = available();
        assert_eq!(avail[0], Backend::Scalar);
        // `active()` must be one of the available backends.
        assert!(avail.contains(&active()));
    }

    /// Satellite 5: feature-matrix test — every available vector backend
    /// must agree with scalar across odd shapes that exercise every
    /// remainder-lane path (f64: < 1e-12; f32: < 1e-5).
    #[test]
    fn feature_matrix_scalar_vs_vector_f64() {
        for backend in available() {
            // Odd k and n hit the 16/4/1 (f64) tile remainders.
            for &(k, n) in &[
                (1usize, 1usize),
                (3, 5),
                (7, 16),
                (13, 17),
                (31, 37),
                (64, 64),
            ] {
                let a = vec_f64(k, 1 + k as u64);
                let b = vec_f64(k * n, 2 + n as u64);
                let mut c_s = vec_f64(n, 3);
                let mut c_v = c_s.clone();
                row_gemm_with(Backend::Scalar, &mut c_s, &a, &b, n, 1.25);
                row_gemm_with(backend, &mut c_v, &a, &b, n, 1.25);
                let d = c_s
                    .iter()
                    .zip(&c_v)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0, f64::max);
                assert!(d < 1e-12, "{backend:?} row_gemm {k}x{n}: {d}");

                let ds = dot_with(Backend::Scalar, &a, &vec_f64(k, 9));
                let dv = dot_with(backend, &a, &vec_f64(k, 9));
                assert!((ds - dv).abs() < 1e-12, "{backend:?} dot k={k}");

                let mut y_s = vec_f64(n, 4);
                let mut y_v = y_s.clone();
                axpy_with(Backend::Scalar, -0.75, &c_s, &mut y_s);
                axpy_with(backend, -0.75, &c_s, &mut y_v);
                assert_eq!(y_s, y_v, "{backend:?} axpy must be bit-identical");

                let mut x_s = vec_f64(n, 5);
                let mut x_v = x_s.clone();
                scale_with(Backend::Scalar, &mut x_s, 0.37);
                scale_with(backend, &mut x_v, 0.37);
                assert_eq!(x_s, x_v, "{backend:?} scale must be bit-identical");
            }
        }
    }

    #[test]
    fn feature_matrix_scalar_vs_vector_f32() {
        for backend in available() {
            for &(k, n) in &[(1usize, 3usize), (5, 9), (17, 33), (40, 37)] {
                let a: Vec<f32> = vec_f64(k, 11).iter().map(|&v| v as f32).collect();
                let b: Vec<f32> = vec_f64(k * n, 12).iter().map(|&v| v as f32).collect();
                let mut c_s: Vec<f32> = vec_f64(n, 13).iter().map(|&v| v as f32).collect();
                let mut c_v = c_s.clone();
                row_gemm_with(Backend::Scalar, &mut c_s, &a, &b, n, 0.5f32);
                row_gemm_with(backend, &mut c_v, &a, &b, n, 0.5f32);
                let d = c_s
                    .iter()
                    .zip(&c_v)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0f32, f32::max);
                assert!(d < 1e-5, "{backend:?} f32 row_gemm {k}x{n}: {d}");

                let b2: Vec<f32> = vec_f64(k, 14).iter().map(|&v| v as f32).collect();
                let ds = dot_with(Backend::Scalar, &a, &b2);
                let dv = dot_with(backend, &a, &b2);
                assert!((ds - dv).abs() < 1e-5, "{backend:?} f32 dot k={k}");
            }
        }
    }

    #[test]
    fn feature_matrix_tanh() {
        // Include large, tiny, negative, and remainder-lane counts.
        let mut x = vec_f64(37, 21);
        x.extend_from_slice(&[0.0, -0.0, 1e-300, -25.0, 25.0, 700.0, -700.0]);
        for backend in available() {
            let mut t_s = vec![0.0; x.len()];
            let mut g_s = vec![0.0; x.len()];
            let mut t_v = t_s.clone();
            let mut g_v = g_s.clone();
            tanh_fused_with(Backend::Scalar, &x, &mut t_s, &mut g_s);
            tanh_fused_with(backend, &x, &mut t_v, &mut g_v);
            for i in 0..x.len() {
                assert!(
                    (t_s[i] - t_v[i]).abs() < 1e-12,
                    "{backend:?} tanh({}) = {} vs {}",
                    x[i],
                    t_v[i],
                    t_s[i]
                );
                assert!(
                    (g_s[i] - g_v[i]).abs() < 1e-12,
                    "{backend:?} grad({})",
                    x[i]
                );
            }
            // f32 lanes too.
            let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            let mut t32 = vec![0.0f32; x32.len()];
            let mut g32 = vec![0.0f32; x32.len()];
            tanh_fused_with(backend, &x32, &mut t32, &mut g32);
            for i in 0..x32.len() {
                assert!(
                    (t32[i] - x32[i].tanh()).abs() < 1e-5,
                    "{backend:?} f32 tanh({})",
                    x32[i]
                );
            }
        }
    }

    #[test]
    fn tanh_propagates_non_finite() {
        let x = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.5,
            -0.5,
            1.0,
            2.0,
            -3.0,
        ];
        for backend in available() {
            let mut t = vec![0.0; x.len()];
            let mut g = vec![0.0; x.len()];
            tanh_fused_with(backend, &x, &mut t, &mut g);
            assert!(t[0].is_nan(), "{backend:?}: tanh(NaN) must be NaN");
            assert!(g[0].is_nan(), "{backend:?}: grad(NaN) must be NaN");
            assert_eq!(t[1], 1.0, "{backend:?}: tanh(inf) = 1");
            assert_eq!(t[2], -1.0, "{backend:?}: tanh(-inf) = -1");
        }
    }

    #[test]
    fn row_gemm_propagates_non_finite() {
        // a contains a zero; B contains inf/NaN in that row. The product
        // must be NaN (0·inf), not the old accumulator (the zero-skip bug).
        for backend in available() {
            let a = [0.0, 1.0];
            let b = [f64::INFINITY, f64::NAN, 2.0, 3.0];
            let mut c = [1.0, 1.0];
            row_gemm_with(backend, &mut c, &a, &b, 2, 1.0);
            assert!(c[0].is_nan(), "{backend:?}: 0·inf must poison the output");
            assert!(c[1].is_nan(), "{backend:?}: NaN in B must propagate");
        }
    }

    #[test]
    fn strided_a_matches_materialized_transpose() {
        // Column access of a 7x3 A (stride 3) == contiguous column copy.
        let a = vec_f64(21, 31);
        let b = vec_f64(7 * 5, 32);
        for backend in available() {
            for col in 0..3 {
                let a_col: Vec<f64> = (0..7).map(|p| a[p * 3 + col]).collect();
                let mut c_ref = vec_f64(5, 33);
                let mut c_strided = c_ref.clone();
                row_gemm_with(backend, &mut c_ref, &a_col, &b, 5, 1.0);
                row_gemm_strided_with(backend, &mut c_strided, 7, &a[col..], 3, &b, 5, 1.0);
                assert_eq!(c_ref, c_strided, "{backend:?} col {col}");
            }
        }
    }

    #[test]
    fn dot_panel_matches_per_dot() {
        // k = 4 and 12 take the AVX2 column-lane paths, k = 17 the
        // per-element one; the second operand pair has every product
        // underflow to -0, which the f64 vector dot sums to +0
        for k in [4, 12, 17] {
            let random = (vec_f64(k, 41), vec_f64(6 * k, 42));
            let underflow = (vec![-1e-200; k], vec![1e-200; 6 * k]);
            let tight = |ld| Panel { ld, stride: 0 };
            let g = PanelGemm {
                m: 1,
                k,
                n: 6,
                alpha: 1.0,
                a: tight(k),
                b: tight(k),
                c: tight(6),
                acc: Acc::Overwrite,
            };
            for (a, b) in [random, underflow] {
                for backend in available() {
                    let mut c = vec![0.0; 6];
                    dot_panel_with(backend, &g, 0..1, &a, &b, &mut c);
                    for j in 0..6 {
                        let want = dot_with(backend, &a, &b[j * k..(j + 1) * k]);
                        assert_eq!(c[j].to_bits(), want.to_bits(), "{backend:?} k={k} j={j}");
                    }
                }
            }
        }
    }

    /// The `exp` constants shortened for clippy's `excessive_precision`
    /// parse to the same bits as the literals they replaced.
    #[test]
    fn shortened_exp_constants_keep_their_bits() {
        let f64_of = |s: &str| s.replace('_', "").parse::<f64>().unwrap();
        let f32_of = |s: &str| s.replace('_', "").parse::<f32>().unwrap();
        assert_eq!(
            f64_of("9.999_999_999_999_999_9e-1").to_bits(),
            1.0f64.to_bits()
        );
        assert_eq!(f32_of("0.693_359_375").to_bits(), 0.693_359_4f32.to_bits());
        assert_eq!(f32_of("5.000_000_2e-1").to_bits(), 0.5f32.to_bits());
    }

    #[test]
    fn env_override_forces_scalar() {
        // `active()` caches, so test the resolution logic directly via a
        // child-process-free proxy: the match arms in `active` are pure
        // string dispatch; here we only pin that "off"/"0"/"scalar" are
        // the accepted spellings (the CI step sets DPMD_SIMD=off).
        for s in ["off", "0", "scalar"] {
            let req = s.to_ascii_lowercase();
            let forced = matches!(req.as_str(), "off" | "0" | "scalar");
            assert!(forced);
        }
    }

    /// Every `*_with` entry point, called with `Backend::Avx2` while
    /// detection answers false, gives the `Backend::Scalar` bits.
    #[cfg(target_arch = "x86_64")]
    fn undetected_avx2_gives_scalar_bits<T: Real>() {
        let v = |n: usize, seed: u64| -> Vec<T> {
            vec_f64(n, seed).into_iter().map(T::from_f64).collect()
        };
        let check = |name: &str, f: &dyn Fn(Backend) -> Vec<T>| {
            let bits = |x: Vec<T>| -> Vec<u64> { x.iter().map(|y| y.to_f64().to_bits()).collect() };
            assert_eq!(bits(f(Backend::Avx2)), bits(f(Backend::Scalar)), "{name}");
        };
        // past every specialised width, with remainder lanes
        let (m, k, n) = (5, 37, 21);
        let (a, b, bt) = (v(m * k, 1), v(k * n, 2), v(n * k, 3));
        let half = T::from_f64(0.5);
        check("row_gemm_strided_with", &|be| {
            let mut c = v(n, 4);
            row_gemm_strided_with(be, &mut c, k, &a, 1, &b, n, half);
            c
        });
        check("dot_with", &|be| {
            let rows = a.chunks_exact(k).zip(bt.chunks_exact(k));
            rows.map(|(x, y)| dot_with(be, x, y)).collect()
        });
        let ld = |ld| Panel { ld, stride: 0 };
        let g = PanelGemm {
            m,
            k,
            n,
            alpha: half,
            a: ld(k),
            b: ld(n),
            c: ld(n),
            acc: Acc::Add,
        };
        check("row_panel_with", &|be| {
            let mut c = v(m * n, 5);
            row_panel_with(be, &g, false, 0..1, &a, &b, &mut c);
            c
        });
        let g = PanelGemm { b: ld(k), ..g };
        check("dot_panel_with", &|be| {
            let mut c = v(m * n, 6);
            dot_panel_with(be, &g, 0..1, &a, &bt, &mut c);
            c
        });
        check("axpy_with", &|be| {
            let mut y = v(m * k, 7);
            axpy_with(be, half, &a, &mut y);
            y
        });
        check("scale_with", &|be| {
            let mut x = a.clone();
            scale_with(be, &mut x, T::from_f64(1.7));
            x
        });
        check("tanh_fused_with", &|be| {
            let (mut t, mut g) = (vec![T::ZERO; a.len()], vec![T::ZERO; a.len()]);
            tanh_fused_with(be, &a, &mut t, &mut g);
            [t, g].concat()
        });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn undetected_avx2_falls_back_to_scalar() {
        // resolve the process-wide backend before this thread hides AVX2
        active();
        HIDE_AVX2.set(true);
        assert!(!x86::detected());
        undetected_avx2_gives_scalar_bits::<f64>();
        undetected_avx2_gives_scalar_bits::<f32>();
        HIDE_AVX2.set(false);
    }
}
