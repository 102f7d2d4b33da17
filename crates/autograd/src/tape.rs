//! The differentiation tape.
//!
//! Every operation eagerly computes its value and records its provenance.
//! [`Tape::grad`] walks the tape backwards and *emits the backward pass as
//! new tape operations*, which makes gradients first-class differentiable
//! quantities (grad-of-grad, needed for force-matching training).
//!
//! The heavy operations are whole-matrix: their forward *is* a `dp_linalg`
//! kernel ([`Tape::dense`] on `gemm_bias_into` + `tanh_fused_into`,
//! [`Tape::bmm`] on the strided batched GEMMs) and their backward emits the
//! matching hand-written nodes (`tanh_bwd`, the transposed `bmm` variants)
//! rather than a chain of primitives. Node values live in [`crate::pool`]
//! buffers that are handed back when the tape drops.

use crate::pool;
use crate::sparse::SparseLinear;
use dp_linalg::batch::{gemm_batch_nn, gemm_batch_nt, gemm_batch_tn, Acc, Panel};
use dp_linalg::fused::{dup_sum_fused_into, tanh_fused_into};
use dp_linalg::gemm::gemm_bias_into;
use dp_linalg::Matrix;
use std::sync::Arc;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Operand layout of a [`Tape::bmm`] product. The three layouts are closed
/// under differentiation, so no transpose is ever materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// `A·B`
    NN,
    /// `Aᵀ·B`
    TN,
    /// `A·Bᵀ`
    NT,
}

/// Signature shared by `dp_linalg::batch::gemm_batch_{nn,tn,nt}` at `f64`.
type BatchKernel =
    fn(usize, usize, usize, usize, f64, &[f64], Panel, &[f64], Panel, &mut [f64], Panel, Acc);

#[derive(Clone)]
enum Op {
    /// Input or constant; has no inputs and receives no backward pass.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Neg(Var),
    /// Elementwise (Hadamard) product.
    Mul(Var, Var),
    /// Multiply by a compile-time constant scalar.
    Scale(Var, f64),
    /// `batch` independent products over equal row blocks of both inputs.
    Bmm(Var, Var, Trans, usize),
    /// `x·W + 1⊗b`, followed by `tanh` when the flag is set.
    Dense(Var, Var, Var, bool),
    Tanh(Var),
    /// `g ⊙ (1 − y²)`: tanh's backward from its *output* `y`.
    TanhBwd(Var, Var),
    /// `(x, x) + y`; without `y`, the bare column duplication.
    DupAdd(Var, Option<Var>),
    /// `a[:, :k] + a[:, k:]`, the adjoint of column duplication.
    FoldCols(Var),
    /// Sum of all elements, producing a 1x1 scalar.
    SumAll(Var),
    /// Sum over rows, producing a 1 x cols row.
    SumRows(Var),
    /// Broadcast a 1 x cols row to rows x cols.
    BroadcastRow(Var, usize),
    /// Broadcast a 1x1 scalar to rows x cols.
    BroadcastScalar(Var),
    /// Columns [start, end) of the input.
    SliceCols(Var, usize, usize),
    /// Embed the input's columns at offset `start` in a wider zero matrix.
    PadCols(Var, usize, usize),
    /// Reinterpret as a different shape with the same element count.
    Reshape(Var),
    /// Row `r` of the output is row `idx[r]` of the input.
    SelectRows(Var, Arc<[u32]>),
    /// Row `r` of the input is added into row `idx[r]` of a zero matrix.
    ScatterRows(Var, Arc<[u32]>, usize),
    /// Constant sparse linear map (false) or its transpose (true).
    Sparse(Var, Arc<SparseLinear>, bool),
}

impl Op {
    fn inputs(&self) -> [Option<Var>; 3] {
        match *self {
            Op::Leaf => [None; 3],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Bmm(a, b, ..)
            | Op::TanhBwd(a, b) => [Some(a), Some(b), None],
            Op::Dense(x, w, b, _) => [Some(x), Some(w), Some(b)],
            Op::DupAdd(x, y) => [Some(x), y, None],
            Op::Neg(a)
            | Op::Scale(a, _)
            | Op::Tanh(a)
            | Op::FoldCols(a)
            | Op::SumAll(a)
            | Op::SumRows(a)
            | Op::BroadcastRow(a, _)
            | Op::BroadcastScalar(a)
            | Op::SliceCols(a, ..)
            | Op::PadCols(a, ..)
            | Op::Reshape(a)
            | Op::SelectRows(a, _)
            | Op::ScatterRows(a, ..)
            | Op::Sparse(a, ..) => [Some(a), None, None],
        }
    }
}

struct Node {
    op: Op,
    value: Matrix<f64>,
}

/// The autodiff tape. See crate docs for an end-to-end example.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Drop for Tape {
    fn drop(&mut self) {
        for node in self.nodes.drain(..) {
            pool::recycle(node.value);
        }
    }
}

impl Tape {
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Matrix<f64> {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Matrix<f64>) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// New node whose value is `f(a[i], b[i])` elementwise.
    fn zip(&mut self, op: Op, a: Var, b: Var, f: impl Fn(f64, f64) -> f64) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "elementwise shape mismatch");
        let mut out = pool::uninit(va.rows(), va.cols());
        for ((o, &x), &y) in out
            .as_mut_slice()
            .iter_mut()
            .zip(va.as_slice())
            .zip(vb.as_slice())
        {
            *o = f(x, y);
        }
        self.push(op, out)
    }

    /// New node whose value is `f(a[i])` elementwise.
    fn map(&mut self, op: Op, a: Var, f: impl Fn(f64) -> f64) -> Var {
        let va = self.value(a);
        let mut out = pool::uninit(va.rows(), va.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(va.as_slice()) {
            *o = f(x);
        }
        self.push(op, out)
    }

    // ---- graph construction -------------------------------------------

    /// New input/constant node holding a copy of `value`.
    pub fn leaf(&mut self, value: &Matrix<f64>) -> Var {
        self.leaf_slice(value.rows(), value.cols(), value.as_slice())
    }

    /// New input/constant node from row-major `data`.
    pub fn leaf_slice(&mut self, rows: usize, cols: usize, data: &[f64]) -> Var {
        let mut v = pool::uninit(rows, cols);
        v.as_mut_slice().copy_from_slice(data);
        self.push(Op::Leaf, v)
    }

    /// Constant scalar as a 1x1 leaf.
    pub fn scalar(&mut self, x: f64) -> Var {
        self.leaf_slice(1, 1, &[x])
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip(Op::Add(a, b), a, b, |x, y| x + y)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip(Op::Sub(a, b), a, b, |x, y| x - y)
    }

    pub fn neg(&mut self, a: Var) -> Var {
        self.map(Op::Neg(a), a, |x| -x)
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip(Op::Mul(a, b), a, b, |x, y| x * y)
    }

    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        self.map(Op::Scale(a, c), a, |x| x * c)
    }

    /// `A·B`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.bmm(a, b, Trans::NN, 1)
    }

    /// Block-batched product: both inputs are `batch` equal row blocks
    /// stacked vertically (the §5.2.1 fixed-shape layout), and block `i` of
    /// the output is `op(A_i)·op(B_i)`. `batch == 1` is the plain product.
    pub fn bmm(&mut self, a: Var, b: Var, trans: Trans, batch: usize) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert!(
            batch > 0 && va.rows() % batch == 0 && vb.rows() % batch == 0,
            "bmm inputs do not split into {batch} row blocks"
        );
        let (ra, ca) = (va.rows() / batch, va.cols());
        let (rb, cb) = (vb.rows() / batch, vb.cols());
        let (m, k, kb, n) = match trans {
            Trans::NN => (ra, ca, rb, cb),
            Trans::TN => (ca, ra, rb, cb),
            Trans::NT => (ra, ca, cb, rb),
        };
        assert_eq!(k, kb, "bmm inner dimension mismatch");
        let mut out = pool::uninit(batch * m, n);
        let kernel: BatchKernel = match trans {
            Trans::NN => gemm_batch_nn,
            Trans::TN => gemm_batch_tn,
            Trans::NT => gemm_batch_nt,
        };
        kernel(
            batch,
            m,
            k,
            n,
            1.0,
            va.as_slice(),
            Panel {
                ld: ca,
                stride: ra * ca,
            },
            vb.as_slice(),
            Panel {
                ld: cb,
                stride: rb * cb,
            },
            out.as_mut_slice(),
            Panel {
                ld: n,
                stride: m * n,
            },
            Acc::Overwrite,
        );
        self.push(Op::Bmm(a, b, trans, batch), out)
    }

    /// The fused dense layer `x·W + 1⊗b` (bias `b` is a `1 × n` row var),
    /// passed through `tanh` when `tanh` is set. One node, one GEMM with
    /// the bias in its epilogue, one vectorised activation pass.
    pub fn dense(&mut self, x: Var, w: Var, b: Var, tanh: bool) -> Var {
        let (vx, vw, vb) = (self.value(x), self.value(w), self.value(b));
        assert_eq!(vb.rows(), 1, "dense bias must be a row");
        let mut pre = pool::uninit(vx.rows(), vw.cols());
        gemm_bias_into(vx, vw, vb.as_slice(), &mut pre);
        let out = if tanh {
            let mut y = pool::uninit(pre.rows(), pre.cols());
            // The kernel also produces 1 − y²; the tape recomputes it in
            // `tanh_bwd` instead of keeping a second buffer per layer alive.
            let mut dy = pool::uninit(pre.rows(), pre.cols());
            tanh_fused_into(&pre, &mut y, &mut dy);
            pool::recycle(pre);
            pool::recycle(dy);
            y
        } else {
            pre
        };
        self.push(Op::Dense(x, w, b, tanh), out)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        self.map(Op::Tanh(a), a, f64::tanh)
    }

    /// `g ⊙ (1 − y²)` — the backward of `y = tanh(·)` as a single node.
    pub fn tanh_bwd(&mut self, g: Var, y: Var) -> Var {
        self.zip(Op::TanhBwd(g, y), g, y, |g, y| g * (1.0 - y * y))
    }

    /// Growth skip connection `(x, x) + y` without materialising the
    /// concatenation.
    pub fn dup_add(&mut self, x: Var, y: Var) -> Var {
        let (vx, vy) = (self.value(x), self.value(y));
        let mut out = pool::uninit(vy.rows(), vy.cols());
        dup_sum_fused_into(vx, vy, &mut out);
        self.push(Op::DupAdd(x, Some(y)), out)
    }

    /// `(x, x)`.
    fn dup_cols(&mut self, x: Var) -> Var {
        let vx = self.value(x);
        let k = vx.cols();
        let mut out = pool::uninit(vx.rows(), 2 * k);
        for i in 0..vx.rows() {
            let (lo, hi) = out.row_mut(i).split_at_mut(k);
            lo.copy_from_slice(vx.row(i));
            hi.copy_from_slice(vx.row(i));
        }
        self.push(Op::DupAdd(x, None), out)
    }

    /// `a[:, :k] + a[:, k:]` for an input of `2k` columns.
    pub fn fold_cols(&mut self, a: Var) -> Var {
        let va = self.value(a);
        assert_eq!(va.cols() % 2, 0, "fold_cols needs an even column count");
        let k = va.cols() / 2;
        let mut out = pool::uninit(va.rows(), k);
        for i in 0..va.rows() {
            let (lo, hi) = va.row(i).split_at(k);
            for ((o, &l), &h) in out.row_mut(i).iter_mut().zip(lo).zip(hi) {
                *o = l + h;
            }
        }
        self.push(Op::FoldCols(a), out)
    }

    /// Sum of all entries (1x1 result).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.value(a).sum();
        let mut out = pool::uninit(1, 1);
        out[(0, 0)] = s;
        self.push(Op::SumAll(a), out)
    }

    /// Column sums: rows x cols -> 1 x cols.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let m = self.value(a);
        let mut out = pool::zeros(1, m.cols());
        for i in 0..m.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(m.row(i)) {
                *o += x;
            }
        }
        self.push(Op::SumRows(a), out)
    }

    /// Broadcast a 1 x cols row to `rows` identical rows.
    pub fn broadcast_row(&mut self, a: Var, rows: usize) -> Var {
        let r = self.value(a);
        assert_eq!(r.rows(), 1, "broadcast_row input must be a row");
        let mut out = pool::uninit(rows, r.cols());
        for i in 0..rows {
            out.row_mut(i).copy_from_slice(r.row(0));
        }
        self.push(Op::BroadcastRow(a, rows), out)
    }

    /// Broadcast a 1x1 scalar to rows x cols.
    pub fn broadcast_scalar(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let s = self.value(a);
        assert_eq!(s.shape(), (1, 1), "broadcast_scalar input must be 1x1");
        let s = s[(0, 0)];
        let mut out = pool::uninit(rows, cols);
        out.as_mut_slice().fill(s);
        self.push(Op::BroadcastScalar(a), out)
    }

    /// Columns `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let m = self.value(a);
        assert!(start <= end && end <= m.cols(), "slice_cols out of range");
        let mut out = pool::uninit(m.rows(), end - start);
        for i in 0..m.rows() {
            out.row_mut(i).copy_from_slice(&m.row(i)[start..end]);
        }
        self.push(Op::SliceCols(a, start, end), out)
    }

    /// Place the input's columns at offset `start` inside a zero matrix of
    /// width `total`.
    pub fn pad_cols(&mut self, a: Var, start: usize, total: usize) -> Var {
        let m = self.value(a);
        assert!(start + m.cols() <= total, "pad_cols out of range");
        let mut out = pool::zeros(m.rows(), total);
        for i in 0..m.rows() {
            out.row_mut(i)[start..start + m.cols()].copy_from_slice(m.row(i));
        }
        self.push(Op::PadCols(a, start, total), out)
    }

    /// Reinterpret the (row-major) data as `rows × cols`.
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let m = self.value(a);
        assert_eq!(m.len(), rows * cols, "reshape element mismatch");
        let mut out = pool::uninit(rows, cols);
        out.as_mut_slice().copy_from_slice(m.as_slice());
        self.push(Op::Reshape(a), out)
    }

    /// Gather rows: row `r` of the result is row `idx[r]` of `a`.
    pub fn select_rows(&mut self, a: Var, idx: Arc<[u32]>) -> Var {
        let m = self.value(a);
        let mut out = pool::uninit(idx.len(), m.cols());
        for (r, &i) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(m.row(i as usize));
        }
        self.push(Op::SelectRows(a, idx), out)
    }

    /// Scatter rows: row `r` of `a` is added into row `idx[r]` of a zero
    /// matrix with `rows` rows (the adjoint of [`select_rows`](Self::select_rows)).
    pub fn scatter_rows(&mut self, a: Var, idx: Arc<[u32]>, rows: usize) -> Var {
        let m = self.value(a);
        assert_eq!(m.rows(), idx.len(), "scatter_rows index length");
        let mut out = pool::zeros(rows, m.cols());
        for (r, &i) in idx.iter().enumerate() {
            for (o, &x) in out.row_mut(i as usize).iter_mut().zip(m.row(r)) {
                *o += x;
            }
        }
        self.push(Op::ScatterRows(a, idx, rows), out)
    }

    /// Apply a constant sparse linear map.
    pub fn sparse_apply(&mut self, a: Var, map: Arc<SparseLinear>) -> Var {
        let mut out = pool::zeros(map.out_shape.0, map.out_shape.1);
        map.apply_into(self.value(a).as_slice(), out.as_mut_slice());
        self.push(Op::Sparse(a, map, false), out)
    }

    /// Apply the transpose of a constant sparse linear map.
    pub fn sparse_apply_transpose(&mut self, a: Var, map: Arc<SparseLinear>) -> Var {
        let mut out = pool::zeros(map.in_shape.0, map.in_shape.1);
        map.apply_transpose_into(self.value(a).as_slice(), out.as_mut_slice());
        self.push(Op::Sparse(a, map, true), out)
    }

    /// Sum of squares of all entries (1x1).
    pub fn sum_squares(&mut self, a: Var) -> Var {
        let sq = self.mul(a, a);
        self.sum_all(sq)
    }

    // ---- differentiation ----------------------------------------------

    /// Reverse-mode gradient of scalar `y` with respect to each var in
    /// `wrt`, returned as new tape vars (differentiable again).
    ///
    /// Only adjoints that some var in `wrt` depends on are emitted. Vars in
    /// `wrt` that `y` does not depend on get a zero gradient of the
    /// appropriate shape.
    pub fn grad(&mut self, y: Var, wrt: &[Var]) -> Vec<Var> {
        assert_eq!(
            self.value(y).shape(),
            (1, 1),
            "grad target must be a 1x1 scalar"
        );

        // needs[i]: node i lies on a path from some `wrt` var to `y`'s part
        // of the tape, so its adjoint is worth computing.
        let mut needs = vec![false; y.0 + 1];
        for w in wrt {
            if let Some(n) = needs.get_mut(w.0) {
                *n = true;
            }
        }
        for id in 0..=y.0 {
            if !needs[id] {
                needs[id] = self.nodes[id]
                    .op
                    .inputs()
                    .iter()
                    .flatten()
                    .any(|v| needs[v.0]);
            }
        }

        // adjoints[i] = Some(var holding dy/d node_i), for i <= y.0
        let mut adjoints: Vec<Option<Var>> = vec![None; y.0 + 1];
        if needs[y.0] {
            adjoints[y.0] = Some(self.scalar(1.0));
        }

        for id in (0..=y.0).rev() {
            let Some(g) = adjoints[id] else { continue };
            // Clone the op descriptor so we can mutate the tape while
            // emitting the backward ops.
            let op = self.nodes[id].op.clone();
            let mut acc = Accumulator {
                adjoints: &mut adjoints,
                needs: &needs,
            };
            match op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    acc.add(self, a, |_| g);
                    acc.add(self, b, |_| g);
                }
                Op::Sub(a, b) => {
                    acc.add(self, a, |_| g);
                    acc.add(self, b, |t| t.neg(g));
                }
                Op::Neg(a) => acc.add(self, a, |t| t.neg(g)),
                Op::Mul(a, b) => {
                    acc.add(self, a, |t| t.mul(g, b));
                    acc.add(self, b, |t| t.mul(g, a));
                }
                Op::Scale(a, c) => acc.add(self, a, |t| t.scale(g, c)),
                Op::Bmm(a, b, trans, batch) => match trans {
                    // C = A B: dA = G Bᵀ, dB = Aᵀ G
                    Trans::NN => {
                        acc.add(self, a, |t| t.bmm(g, b, Trans::NT, batch));
                        acc.add(self, b, |t| t.bmm(a, g, Trans::TN, batch));
                    }
                    // C = Aᵀ B: dA = B Gᵀ, dB = A G
                    Trans::TN => {
                        acc.add(self, a, |t| t.bmm(b, g, Trans::NT, batch));
                        acc.add(self, b, |t| t.bmm(a, g, Trans::NN, batch));
                    }
                    // C = A Bᵀ: dA = G B, dB = Gᵀ A
                    Trans::NT => {
                        acc.add(self, a, |t| t.bmm(g, b, Trans::NN, batch));
                        acc.add(self, b, |t| t.bmm(g, a, Trans::TN, batch));
                    }
                },
                Op::Dense(x, w, b, tanh) => {
                    let dpre = if tanh { self.tanh_bwd(g, Var(id)) } else { g };
                    acc.add(self, x, |t| t.bmm(dpre, w, Trans::NT, 1));
                    acc.add(self, w, |t| t.bmm(x, dpre, Trans::TN, 1));
                    acc.add(self, b, |t| t.sum_rows(dpre));
                }
                // The forward value is node `id`.
                Op::Tanh(a) => acc.add(self, a, |t| t.tanh_bwd(g, Var(id))),
                Op::TanhBwd(u, y) => {
                    acc.add(self, u, |t| t.tanh_bwd(g, y));
                    // ∂/∂y [u (1 − y²)] = −2 u y
                    acc.add(self, y, |t| {
                        let gu = t.mul(g, u);
                        let guy = t.mul(gu, y);
                        t.scale(guy, -2.0)
                    });
                }
                Op::DupAdd(x, y) => {
                    acc.add(self, x, |t| t.fold_cols(g));
                    if let Some(y) = y {
                        acc.add(self, y, |_| g);
                    }
                }
                Op::FoldCols(a) => acc.add(self, a, |t| t.dup_cols(g)),
                Op::SumAll(a) => {
                    let (rows, cols) = self.value(a).shape();
                    acc.add(self, a, |t| t.broadcast_scalar(g, rows, cols));
                }
                Op::SumRows(a) => {
                    let rows = self.value(a).rows();
                    acc.add(self, a, |t| t.broadcast_row(g, rows));
                }
                Op::BroadcastRow(a, _rows) => acc.add(self, a, |t| t.sum_rows(g)),
                Op::BroadcastScalar(a) => acc.add(self, a, |t| t.sum_all(g)),
                Op::SliceCols(a, start, _end) => {
                    let total = self.value(a).cols();
                    acc.add(self, a, |t| t.pad_cols(g, start, total));
                }
                Op::PadCols(a, start, _total) => {
                    let w = self.value(a).cols();
                    acc.add(self, a, |t| t.slice_cols(g, start, start + w));
                }
                Op::Reshape(a) => {
                    let (rows, cols) = self.value(a).shape();
                    acc.add(self, a, |t| t.reshape(g, rows, cols));
                }
                Op::SelectRows(a, idx) => {
                    let rows = self.value(a).rows();
                    acc.add(self, a, |t| t.scatter_rows(g, idx, rows));
                }
                Op::ScatterRows(a, idx, _rows) => acc.add(self, a, |t| t.select_rows(g, idx)),
                Op::Sparse(a, map, transposed) => acc.add(self, a, |t| {
                    if transposed {
                        t.sparse_apply(g, map)
                    } else {
                        t.sparse_apply_transpose(g, map)
                    }
                }),
            }
        }

        wrt.iter()
            .map(|&w| {
                adjoints.get(w.0).copied().flatten().unwrap_or_else(|| {
                    let (rows, cols) = self.value(w).shape();
                    self.push(Op::Leaf, pool::zeros(rows, cols))
                })
            })
            .collect()
    }
}

/// The adjoint table of one [`Tape::grad`] sweep.
struct Accumulator<'a> {
    adjoints: &'a mut [Option<Var>],
    needs: &'a [bool],
}

impl Accumulator<'_> {
    /// Add the contribution built by `emit` to `target`'s adjoint, unless
    /// no requested gradient depends on `target`.
    fn add(&mut self, tape: &mut Tape, target: Var, emit: impl FnOnce(&mut Tape) -> Var) {
        if !self.needs[target.0] {
            return;
        }
        let grad = emit(tape);
        // The seed is 1x1 but the first backward op may expect a wider
        // adjoint; this only happens when y IS the node, so shapes always
        // match except for the seed itself.
        let g = if tape.value(grad).shape() != tape.value(target).shape()
            && tape.value(grad).shape() == (1, 1)
        {
            let (rows, cols) = tape.value(target).shape();
            tape.broadcast_scalar(grad, rows, cols)
        } else {
            grad
        };
        self.adjoints[target.0] = Some(match self.adjoints[target.0] {
            None => g,
            Some(existing) => tape.add(existing, g),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_two_orders;

    fn mat(rows: usize, cols: usize, seed: f64) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |i, j| {
            0.8 * (seed + 1.3 * i as f64 + 0.7 * j as f64).sin()
        })
    }

    #[test]
    fn first_and_second_derivative_of_square() {
        let mut t = Tape::new();
        let x = t.scalar(3.0);
        let y = t.mul(x, x);
        let dy = t.grad(y, &[x])[0];
        assert_eq!(t.value(dy)[(0, 0)], 6.0);
        let d2y = t.grad(dy, &[x])[0];
        assert_eq!(t.value(d2y)[(0, 0)], 2.0);
    }

    #[test]
    fn grad_of_matmul_chain() {
        // y = sum(A B); dy/dA = 1 Bᵀ
        let mut t = Tape::new();
        let a = t.leaf_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t.leaf_slice(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let ab = t.matmul(a, b);
        let y = t.sum_all(ab);
        let da = t.grad(y, &[a])[0];
        // dA[i][k] = sum_j B[k][j]
        assert_eq!(t.value(da).as_slice(), &[11.0, 15.0, 11.0, 15.0]);
    }

    #[test]
    fn tanh_third_derivative() {
        // f = tanh(x); f''' (0) = -2
        let mut t = Tape::new();
        let x = t.scalar(0.0);
        let y = t.tanh(x);
        let s = t.sum_all(y);
        let d1 = t.grad(s, &[x])[0];
        let d2 = t.grad(d1, &[x])[0];
        let d3 = t.grad(d2, &[x])[0];
        assert!((t.value(d1)[(0, 0)] - 1.0).abs() < 1e-12);
        assert!(t.value(d2)[(0, 0)].abs() < 1e-12);
        assert!((t.value(d3)[(0, 0)] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn independent_var_gets_zero_grad() {
        let mut t = Tape::new();
        let x = t.scalar(2.0);
        let z = t.leaf(&Matrix::full(3, 2, 7.0));
        let y = t.mul(x, x);
        let gz = t.grad(y, &[z])[0];
        assert_eq!(t.value(gz).shape(), (3, 2));
        assert!(t.value(gz).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn grad_emits_nothing_for_unrequested_inputs() {
        // d/dx of sum(dense(x, w, b)) must not compute dW or db.
        let mut t = Tape::new();
        let x = t.leaf(&mat(5, 3, 0.1));
        let w = t.leaf(&mat(3, 4, 0.2));
        let b = t.leaf(&mat(1, 4, 0.3));
        let h = t.dense(x, w, b, true);
        let y = t.sum_all(h);
        let before = t.len();
        t.grad(y, &[x]);
        // seed, broadcast, tanh_bwd, dx
        assert_eq!(t.len() - before, 4);
    }

    #[test]
    fn slice_and_pad_are_adjoint() {
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f64));
        let s = t.slice_cols(x, 1, 3);
        assert_eq!(t.value(s).as_slice(), &[1.0, 2.0, 5.0, 6.0]);
        let y = t.sum_squares(s);
        let gx = t.grad(y, &[x])[0];
        // gradient = 2*x on sliced cols, 0 elsewhere
        assert_eq!(
            t.value(gx).as_slice(),
            &[0.0, 2.0, 4.0, 0.0, 0.0, 10.0, 12.0, 0.0]
        );
    }

    #[test]
    fn shared_input_accumulates() {
        // y = sum((x, x) + 0) => dy/dx = 2 everywhere
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::full(2, 2, 1.0));
        let z = t.leaf(&Matrix::full(2, 4, 0.0));
        let c = t.dup_add(x, z);
        let y = t.sum_all(c);
        let gx = t.grad(y, &[x])[0];
        assert!(t.value(gx).as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn dense_bias_grad_is_row_count() {
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::full(3, 2, 0.5));
        let w = t.leaf(&Matrix::eye(2));
        let b = t.leaf(&Matrix::full(1, 2, 0.0));
        let h = t.dense(x, w, b, false);
        assert_eq!(t.value(h).as_slice(), &[0.5; 6]);
        let y = t.sum_all(h);
        let gb = t.grad(y, &[b])[0];
        assert_eq!(t.value(gb).as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn sparse_map_grad() {
        let mut t = Tape::new();
        let mut map = SparseLinear::new((2, 1), (2, 1));
        map.push((0, 0), (0, 0), 2.0);
        map.push((1, 0), (1, 0), 3.0);
        let x = t.leaf_slice(2, 1, &[1.0, 1.0]);
        let y = t.sparse_apply(x, Arc::new(map));
        let s = t.sum_squares(y); // (2x0)^2 + (3x1)^2
        let gx = t.grad(s, &[x])[0];
        assert_eq!(t.value(gx).as_slice(), &[8.0, 18.0]); // 2*2*2, 2*3*3
    }

    #[test]
    fn reshape_grad_flows_through() {
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::from_fn(2, 3, |i, j| (i * 3 + j + 1) as f64));
        let r = t.reshape(x, 3, 2);
        assert_eq!(t.value(r).shape(), (3, 2));
        let y = t.sum_squares(r);
        let g = t.grad(y, &[x])[0];
        assert_eq!(t.value(g).shape(), (2, 3));
        for (i, v) in t.value(g).as_slice().iter().enumerate() {
            assert_eq!(*v, 2.0 * (i + 1) as f64);
        }
    }

    #[test]
    fn hessian_of_quartic() {
        // y = x^4 via repeated mul; check up to the third derivative.
        let mut t = Tape::new();
        let x = t.scalar(2.0);
        let x2 = t.mul(x, x);
        let x4 = t.mul(x2, x2);
        let d1 = t.grad(x4, &[x])[0]; // 4x^3 = 32
        let d2 = t.grad(d1, &[x])[0]; // 12x^2 = 48
        let d3 = t.grad(d2, &[x])[0]; // 24x = 48
        assert_eq!(t.value(d1)[(0, 0)], 32.0);
        assert_eq!(t.value(d2)[(0, 0)], 48.0);
        assert_eq!(t.value(d3)[(0, 0)], 48.0);
    }

    #[test]
    fn values_survive_buffer_reuse_across_tapes() {
        // A dropped tape's buffers are handed to the next one; stale
        // contents must never leak into a value.
        let run = || {
            let mut t = Tape::new();
            let x = t.leaf(&mat(6, 2, 0.4));
            let p = t.pad_cols(x, 1, 4);
            let idx: Arc<[u32]> = Arc::from(vec![4u32, 1]);
            let s = t.scatter_rows(p, Arc::from(vec![0u32, 2, 2, 5, 1, 0]), 7);
            let r = t.select_rows(s, idx);
            let y = t.sum_squares(r);
            let g = t.grad(y, &[x])[0];
            (t.value(y)[(0, 0)], t.value(g).clone())
        };
        let first = run();
        for _ in 0..3 {
            assert!(run() == first);
        }
    }

    /// `bmm` in every layout, against per-block products of explicitly
    /// transposed blocks.
    #[test]
    fn bmm_matches_per_block_products() {
        let (batch, m, k, n) = (3, 4, 5, 2);
        let block = |x: &Matrix<f64>, i: usize, rows: usize| {
            Matrix::from_fn(rows, x.cols(), |r, c| x[(i * rows + r, c)])
        };
        for trans in [Trans::NN, Trans::TN, Trans::NT] {
            let (ra, ca) = if trans == Trans::TN { (k, m) } else { (m, k) };
            let (rb, cb) = if trans == Trans::NT { (n, k) } else { (k, n) };
            let a = mat(batch * ra, ca, 0.5);
            let b = mat(batch * rb, cb, 0.9);
            let mut t = Tape::new();
            let (av, bv) = (t.leaf(&a), t.leaf(&b));
            let c = t.bmm(av, bv, trans, batch);
            assert_eq!(t.value(c).shape(), (batch * m, n));
            for i in 0..batch {
                let (mut ai, mut bi) = (block(&a, i, ra), block(&b, i, rb));
                if trans == Trans::TN {
                    ai = ai.transpose();
                }
                if trans == Trans::NT {
                    bi = bi.transpose();
                }
                let want = dp_linalg::gemm::naive_gemm(&ai, &bi);
                let got = block(t.value(c), i, m);
                assert!(got.max_abs_diff(&want) < 1e-13, "{trans:?} block {i}");
            }
        }
    }

    #[test]
    fn bmm_two_orders() {
        let (batch, m, k, n) = (2, 3, 4, 2);
        for trans in [Trans::NN, Trans::TN, Trans::NT] {
            let (ra, ca) = if trans == Trans::TN { (k, m) } else { (m, k) };
            let (rb, cb) = if trans == Trans::NT { (n, k) } else { (k, n) };
            let inputs = [mat(batch * ra, ca, 0.5), mat(batch * rb, cb, 0.9)];
            assert_two_orders(&inputs, 1e-6, |t, v| {
                let c = t.bmm(v[0], v[1], trans, batch);
                let c = t.tanh(c);
                t.sum_squares(c)
            });
        }
    }

    /// The primitives `dense` replaces: MATMUL, broadcast SUM, TANH.
    fn dense_composite(t: &mut Tape, x: Var, w: Var, b: Var, tanh: bool) -> Var {
        let xw = t.matmul(x, w);
        let rows = t.value(xw).rows();
        let bb = t.broadcast_row(b, rows);
        let pre = t.add(xw, bb);
        if tanh {
            t.tanh(pre)
        } else {
            pre
        }
    }

    #[test]
    fn dense_matches_composite_and_fd() {
        for tanh in [false, true] {
            let inputs = [mat(5, 3, 0.1), mat(3, 4, 0.2), mat(1, 4, 0.3)];
            assert_two_orders(&inputs, 1e-6, |t, v| {
                let h = t.dense(v[0], v[1], v[2], tanh);
                t.sum_squares(h)
            });

            let mut t = Tape::new();
            let v: Vec<Var> = inputs.iter().map(|m| t.leaf(m)).collect();
            let fused = t.dense(v[0], v[1], v[2], tanh);
            let plain = dense_composite(&mut t, v[0], v[1], v[2], tanh);
            // 1e-13: the fused activation is the vectorised tanh
            assert!(t.value(fused).max_abs_diff(t.value(plain)) < 1e-13);
            let (yf, yp) = (t.sum_squares(fused), t.sum_squares(plain));
            let (gf, gp) = (t.grad(yf, &v), t.grad(yp, &v));
            for (a, b) in gf.iter().zip(&gp) {
                assert!(t.value(*a).max_abs_diff(t.value(*b)) < 1e-12);
            }
        }
    }

    #[test]
    fn tanh_bwd_matches_composite_and_fd() {
        let inputs = [mat(3, 4, 0.6), mat(3, 4, 1.1)];
        assert_two_orders(&inputs, 1e-6, |t, v| {
            let d = t.tanh_bwd(v[0], v[1]);
            t.sum_squares(d)
        });
        let mut t = Tape::new();
        let (g, y) = (t.leaf(&inputs[0]), t.leaf(&inputs[1]));
        let fused = t.tanh_bwd(g, y);
        let y2 = t.mul(y, y);
        let ones = t.leaf(&Matrix::full(3, 4, 1.0));
        let dt = t.sub(ones, y2);
        let plain = t.mul(g, dt);
        assert!(t.value(fused).max_abs_diff(t.value(plain)) < 1e-15);
    }

    #[test]
    fn growth_skip_matches_padded_sum_and_fd() {
        let inputs = [mat(4, 3, 0.2), mat(4, 6, 0.8)];
        assert_two_orders(&inputs, 1e-6, |t, v| {
            let s = t.dup_add(v[0], v[1]);
            let f = t.fold_cols(s);
            let s = t.tanh(f);
            t.sum_squares(s)
        });
        let mut t = Tape::new();
        let (x, y) = (t.leaf(&inputs[0]), t.leaf(&inputs[1]));
        let fused = t.dup_add(x, y);
        let lo = t.pad_cols(x, 0, 6);
        let hi = t.pad_cols(x, 3, 6);
        let xx = t.add(lo, hi);
        let plain = t.add(xx, y);
        assert_eq!(t.value(fused), t.value(plain));
        let folded = t.fold_cols(fused);
        let (a, b) = (t.slice_cols(fused, 0, 3), t.slice_cols(fused, 3, 6));
        let plain = t.add(a, b);
        assert_eq!(t.value(folded), t.value(plain));
    }

    #[test]
    fn select_and_scatter_match_sparse_map_and_fd() {
        let idx: Arc<[u32]> = Arc::from(vec![3u32, 0, 4]);
        let x = mat(5, 2, 0.3);
        {
            let idx = idx.clone();
            assert_two_orders(std::slice::from_ref(&x), 1e-6, move |t, v| {
                let s = t.select_rows(v[0], idx.clone());
                let s = t.tanh(s);
                let back = t.scatter_rows(s, idx.clone(), 6);
                let back = t.tanh(back);
                t.sum_squares(back)
            });
        }
        // the same selection as a constant sparse map
        let mut map = SparseLinear::new((5, 2), (3, 2));
        for (r, &i) in idx.iter().enumerate() {
            for c in 0..2 {
                map.push((r, c), (i as usize, c), 1.0);
            }
        }
        let map = Arc::new(map);
        let mut t = Tape::new();
        let xv = t.leaf(&x);
        let sel = t.select_rows(xv, idx.clone());
        let via_map = t.sparse_apply(xv, map.clone());
        assert_eq!(t.value(sel), t.value(via_map));
        let scat = t.scatter_rows(sel, idx, 5);
        let via_map = t.sparse_apply_transpose(sel, map);
        assert_eq!(t.value(scat), t.value(via_map));
    }
}
