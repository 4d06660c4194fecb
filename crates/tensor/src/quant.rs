//! Int8 per-channel weight quantization — the memory-bandwidth lever for
//! the decode hot path.
//!
//! Every decode step streams the full decoder weight set through
//! [`vecmat`](crate::vecmat) / [`batch_matmul_packed`](crate::batch_matmul_packed);
//! at serving model sizes those reads are the step's cost. [`QuantMat`]
//! stores a weight matrix as **symmetric per-output-channel int8**: column
//! `j` of a row-major `M[k, n]` (one output channel) is scaled by
//! `s_j = max|M[:, j]| / 127` and rounded to `i8`, shrinking weight traffic
//! 4× — which is the whole speedup on a memory-bound step.
//!
//! The quantized kernels are **W8A8 with dynamic activation quantization**:
//! the activation row is quantized per call (one symmetric scale for the
//! row, [`quantize_row`]), the dot products accumulate in `i32` — exact
//! integer arithmetic, no rounding until the very end — and each output is
//! dequantized **once** by `acc · s_v · s_j`.
//!
//! # Layout
//!
//! `QuantMat` packs its `i8` data into the same tile-major panels as a
//! [`PackedMat`], `[n/16]` panels of `[k, 16]` (column remainder in a
//! final narrow panel), so the kernels stream the weights
//! perfectly sequentially, and a packed matrix quantizes element for
//! element in place ([`QuantMat::quantize_packed`]).
//!
//! # Determinism across batching and storage
//!
//! Integer addition is associative, so the `i32` accumulator is **order
//! invariant**: however the kernel blocks its loops, `acc_j` is the exact
//! sum `Σ_k q_v[k]·q_m[k][j]`, and the dequantized output is the exact
//! expression `(acc as f32) * s_v * s_j`. [`batch_matmul_q`] is therefore
//! bitwise-equal to per-row [`vecmat_q`] *by construction* — there is no
//! accumulation-order argument to make, unlike the f32 kernels — which is
//! what lets the quantized batched decode step promise that a lane's
//! logits do not depend on the other lanes.
//!
//! # Error bound
//!
//! Per channel, quantization error is rigorously bounded by the scales:
//! weight error per element is ≤ `s_j/2`, activation error per element
//! ≤ `s_v/2`, so
//!
//! ```text
//! |vecmat_q(v, M)_j − (v @ M)_j|
//!     ≤ (s_j/2)·‖v‖₁ + (s_v/2)·‖M̂[:, j]‖₁ + k·(s_v/2)·(s_j/2)
//! ```
//!
//! where `M̂` is the dequantized matrix. [`QuantMat::channel_error_bound`]
//! evaluates this bound for a given activation row; the property suite in
//! `tests/quant_props.rs` and the accuracy harness in
//! `tests/quant_accuracy.rs` enforce it.

use crate::matmul::PackedMat;
use crate::tensor::Tensor;

/// Columns per packed panel (matches `PackedMat`'s tile width — one/two
/// SIMD vectors of `i32` accumulators).
const QM_JB: usize = 16;

/// Largest inner dimension the `i32` accumulator provably cannot overflow
/// at: `k · 127 · 127 ≤ i32::MAX`.
const MAX_K: usize = (i32::MAX / (127 * 127)) as usize;

/// A weight matrix quantized to symmetric per-output-channel int8, packed
/// into tile-major panels for sequential streaming (see module docs).
#[derive(Debug, Clone)]
pub struct QuantMat {
    k: usize,
    n: usize,
    /// Tile-major `i8` panels: `[n/16]` panels of `[k, 16]`, remainder
    /// columns in a final `[k, n%16]` panel.
    data: Vec<i8>,
    /// Per-output-channel dequantization scales (`len == n`).
    scales: Vec<f32>,
}

impl QuantMat {
    /// Quantize a row-major `[k, n]` f32 matrix: per column `j`,
    /// `s_j = max|M[:, j]| / 127` (`1.0` for an all-zero column, so zeros
    /// stay exactly zero) and `q = round(M[:, j] / s_j)` — round half away
    /// from zero, clamped to `[-127, 127]`.
    ///
    /// # Panics
    ///
    /// If the matrix is not 2-D, or `k` is large enough that the `i32`
    /// accumulator could overflow (`k > i32::MAX / 127²` — far beyond any
    /// transformer projection).
    pub fn quantize(m: &Tensor) -> QuantMat {
        QuantMat::quantize_packed(&PackedMat::pack(m))
    }

    /// [`quantize`](Self::quantize) the matrix a [`PackedMat`] holds, read
    /// in place: the int8 panels have its layout, so packed element `p`
    /// quantizes to int8 element `p` (a parameter store's matrices are
    /// quantized without a row-major copy).
    ///
    /// # Panics
    ///
    /// As [`quantize`](Self::quantize).
    pub fn quantize_packed(m: &PackedMat) -> QuantMat {
        let (k, n) = m.shape();
        assert!(
            k <= MAX_K,
            "inner dim {k} could overflow the i32 accumulator (max {MAX_K})"
        );
        let mut amax = vec![0.0f32; n];
        for (p, &v) in m.data().iter().enumerate() {
            let a = &mut amax[m.column(p)];
            *a = a.max(v.abs());
        }
        let scales: Vec<f32> = amax
            .iter()
            .map(|&a| if a == 0.0 { 1.0 } else { a / 127.0 })
            .collect();
        let data = m
            .data()
            .iter()
            .enumerate()
            .map(|(p, &v)| (v / scales[m.column(p)]).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantMat { k, n, data, scales }
    }

    /// `(k, n)` of the original matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Per-output-channel scales (`len == n`).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Quantized weight of element `(kk, j)` (panel-indexed lookup; test
    /// and reference-implementation helper, not a hot path).
    pub fn q_at(&self, kk: usize, j: usize) -> i8 {
        let full = self.n / QM_JB;
        let rem = self.n - full * QM_JB;
        let jt = j / QM_JB;
        if jt < full {
            self.data[jt * self.k * QM_JB + kk * QM_JB + (j - jt * QM_JB)]
        } else {
            self.data[full * self.k * QM_JB + kk * rem + (j - full * QM_JB)]
        }
    }

    /// Reconstruct the dequantized row-major matrix `M̂[kk, j] = q·s_j`.
    /// Per element, `|M − M̂| ≤ s_j / 2` (the round-trip property).
    pub fn dequantize(&self) -> Tensor {
        let mut out = vec![0.0f32; self.k * self.n];
        for kk in 0..self.k {
            for j in 0..self.n {
                out[kk * self.n + j] = self.q_at(kk, j) as f32 * self.scales[j];
            }
        }
        Tensor::from_vec(&[self.k, self.n], out)
    }

    /// Worst-case per-channel error bound of [`vecmat_q`] against the exact
    /// f32 product, for activation row `v` (see module docs for the
    /// derivation):
    ///
    /// `bound_j = (s_j/2)·‖v‖₁ + (s_v/2)·‖M̂[:, j]‖₁ + k·(s_v/2)·(s_j/2)`
    pub fn channel_error_bound(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.k, "activation length");
        let v_amax = v.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
        let sv_half = if v_amax == 0.0 { 0.5 } else { v_amax / 254.0 };
        let v_l1: f32 = v.iter().map(|x| x.abs()).sum();
        (0..self.n)
            .map(|j| {
                let col_l1: f32 = (0..self.k)
                    .map(|kk| (self.q_at(kk, j) as f32 * self.scales[j]).abs())
                    .sum();
                let sj_half = self.scales[j] / 2.0;
                sj_half * v_l1 + sv_half * col_l1 + self.k as f32 * sv_half * sj_half
            })
            .collect()
    }
}

/// Symmetric dynamic quantization of one activation row: `s_v =
/// max|v| / 127` (`1.0` when the row is all zeros), `q = round(v / s_v)`
/// clamped to `[-127, 127]`. Returns `s_v`. Shared by every quantized
/// kernel, single-row and batched, so a given row always quantizes to the
/// same bits.
pub fn quantize_row(v: &[f32], q: &mut [i8]) -> f32 {
    assert_eq!(v.len(), q.len(), "quantize_row buffer length");
    let amax = v.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
    let scale = if amax == 0.0 { 1.0 } else { amax / 127.0 };
    let inv = 1.0 / scale;
    for (o, &x) in q.iter_mut().zip(v) {
        *o = (x * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// `i32` accumulation of one full-width panel: `acc[j] = Σ_k q[k] ·
/// panel[k][j]` over a `[k, 16]` i8 panel.
///
/// The multiplies stay 16-bit: i8·i8 products fit i16 exactly (|q| ≤ 127
/// ⇒ |product| ≤ 16129 < 2¹⁵), so SIMD gets one `pmullw` instead of
/// widening both operands to i32 first, and only the accumulate widens.
/// Blocking choices here are unobservable: integer addition is
/// associative, so `acc` is the exact sum regardless (the
/// order-invariance the module docs lean on).
#[inline]
fn panel_accumulate(q: &[i8], panel: &[i8]) -> [i32; QM_JB] {
    let mut acc = [0i32; QM_JB];
    for (kk, w) in panel.chunks_exact(QM_JB).enumerate() {
        let qv = q[kk] as i16;
        for (a, &wv) in acc.iter_mut().zip(w) {
            *a += (qv * wv as i16) as i32;
        }
    }
    acc
}

/// Quantized single-row product over a pre-quantized activation:
/// `out[j] = (Σ_k q[k]·q_m[k][j]) · v_scale · s_j`, the `i32` sum exact,
/// the two dequantization multiplies applied left to right. Slices in,
/// slice out — no allocation on the decode hot path (the caller owns the
/// `i8` scratch via [`quantize_row`]).
pub fn vecmat_q_pre(q: &[i8], v_scale: f32, m: &QuantMat, out: &mut [f32]) {
    let (k, n) = (m.k, m.n);
    assert_eq!(
        q.len(),
        k,
        "vecmat_q inner dims: [{}] @ [{k}, {n}]",
        q.len()
    );
    assert_eq!(out.len(), n, "vecmat_q output length");
    let full = n / QM_JB;
    for jt in 0..full {
        let panel = &m.data[jt * k * QM_JB..(jt + 1) * k * QM_JB];
        let acc = panel_accumulate(q, panel);
        for (o, (&a, &s)) in out[jt * QM_JB..(jt + 1) * QM_JB]
            .iter_mut()
            .zip(acc.iter().zip(&m.scales[jt * QM_JB..(jt + 1) * QM_JB]))
        {
            *o = a as f32 * v_scale * s;
        }
    }
    let rem = n - full * QM_JB;
    if rem > 0 {
        let panel = &m.data[full * k * QM_JB..];
        for j in 0..rem {
            let mut a = 0i32;
            for (kk, &qv) in q.iter().enumerate() {
                a += qv as i32 * panel[kk * rem + j] as i32;
            }
            out[full * QM_JB + j] = a as f32 * v_scale * m.scales[full * QM_JB + j];
        }
    }
}

/// Quantized single-row product `v[k] @ M̂[k, n] → out[n]`: quantizes the
/// activation (one allocation) then runs [`vecmat_q_pre`]. Convenience
/// form for tests and one-off calls; hot paths pre-quantize into reusable
/// scratch instead.
pub fn vecmat_q(v: &[f32], m: &QuantMat, out: &mut [f32]) {
    let mut q = vec![0i8; v.len()];
    let scale = quantize_row(v, &mut q);
    vecmat_q_pre(&q, scale, m, out);
}

/// Quantized packed-rows product `X[rows, k] @ M̂ → out[rows, n]`: each
/// activation row is quantized with [`quantize_row`] (into the caller's
/// scratch — `q` holds `rows·k` i8, `row_scales` `rows` f32) and
/// accumulated in `i32`. The panel loop is outermost so each weight panel
/// is read once per **step** and reused across all rows from cache — the
/// same streaming win [`batch_matmul_packed`](crate::batch_matmul_packed)
/// gets — but because integer accumulation is order-invariant, every
/// output row is **bitwise** `vecmat_q` of that row regardless of the
/// blocking (no accumulation-order caveats).
pub fn batch_matmul_q(
    x: &[f32],
    rows: usize,
    m: &QuantMat,
    q: &mut [i8],
    row_scales: &mut [f32],
    out: &mut [f32],
) {
    let (k, n) = (m.k, m.n);
    assert_eq!(
        x.len(),
        rows * k,
        "batch_matmul_q lhs: [{rows}, {k}] needs {} elements, got {}",
        rows * k,
        x.len()
    );
    assert!(q.len() >= rows * k, "batch_matmul_q i8 scratch too small");
    assert!(
        row_scales.len() >= rows,
        "batch_matmul_q scale scratch too small"
    );
    assert_eq!(out.len(), rows * n, "batch_matmul_q output length");
    for (r, row) in x.chunks_exact(k).enumerate() {
        row_scales[r] = quantize_row(row, &mut q[r * k..(r + 1) * k]);
    }
    let full = n / QM_JB;
    for jt in 0..full {
        let panel = &m.data[jt * k * QM_JB..(jt + 1) * k * QM_JB];
        let scales = &m.scales[jt * QM_JB..(jt + 1) * QM_JB];
        for r in 0..rows {
            let qr = &q[r * k..(r + 1) * k];
            let acc = panel_accumulate(qr, panel);
            for (o, (&a, &s)) in out[r * n + jt * QM_JB..r * n + (jt + 1) * QM_JB]
                .iter_mut()
                .zip(acc.iter().zip(scales))
            {
                *o = a as f32 * row_scales[r] * s;
            }
        }
    }
    let rem = n - full * QM_JB;
    if rem > 0 {
        let panel = &m.data[full * k * QM_JB..];
        for r in 0..rows {
            let qr = &q[r * k..(r + 1) * k];
            for j in 0..rem {
                let mut a = 0i32;
                for (kk, &qv) in qr.iter().enumerate() {
                    a += qv as i32 * panel[kk * rem + j] as i32;
                }
                out[r * n + full * QM_JB + j] =
                    a as f32 * row_scales[r] * m.scales[full * QM_JB + j];
            }
        }
    }
}

/// [`batch_matmul_q`] plus a broadcast bias row (bias added last, in f32 —
/// the quantized counterpart of
/// [`batch_linear_packed`](crate::batch_linear_packed)).
#[allow(clippy::too_many_arguments)]
pub fn batch_linear_q(
    x: &[f32],
    rows: usize,
    m: &QuantMat,
    b: &Tensor,
    q: &mut [i8],
    row_scales: &mut [f32],
    out: &mut [f32],
) {
    assert_eq!(b.data.len(), m.n, "batch_linear_q bias length");
    batch_matmul_q(x, rows, m, q, row_scales, out);
    for o_row in out.chunks_exact_mut(m.n) {
        for (o, &bv) in o_row.iter_mut().zip(&b.data) {
            *o += bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::vecmat;

    fn seq_tensor(shape: &[usize], start: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..n)
                .map(|i| start + (i as f32) * 0.37 - (i % 7) as f32)
                .collect(),
        )
    }

    #[test]
    fn roundtrip_error_within_half_scale_per_channel() {
        for (k, n) in [(5usize, 7usize), (16, 16), (11, 33), (1, 1)] {
            let m = seq_tensor(&[k, n], 0.3);
            let qm = QuantMat::quantize(&m);
            assert_eq!(qm.shape(), (k, n));
            let deq = qm.dequantize();
            for kk in 0..k {
                for j in 0..n {
                    let e = (m.data[kk * n + j] - deq.data[kk * n + j]).abs();
                    assert!(
                        e <= qm.scales()[j] / 2.0 + f32::EPSILON,
                        "({kk},{j}): err {e} vs scale {}",
                        qm.scales()[j]
                    );
                }
            }
        }
    }

    #[test]
    fn zero_weights_and_activations_stay_exactly_zero() {
        let mut m = seq_tensor(&[6, 20], 0.4);
        // Zero out one full column and a few scattered elements.
        for kk in 0..6 {
            m.data[kk * 20 + 3] = 0.0;
        }
        m.data[2 * 20 + 7] = 0.0;
        let qm = QuantMat::quantize(&m);
        let deq = qm.dequantize();
        for kk in 0..6 {
            assert_eq!(deq.data[kk * 20 + 3], 0.0, "zero column preserved");
        }
        assert_eq!(deq.data[2 * 20 + 7], 0.0, "scattered zero preserved");
        // An all-zero activation row quantizes to zeros with scale 1.
        let mut q = vec![7i8; 6];
        let s = quantize_row(&[0.0; 6], &mut q);
        assert_eq!(s, 1.0);
        assert!(q.iter().all(|&b| b == 0));
        let mut out = vec![1.0f32; 20];
        vecmat_q(&[0.0; 6], &qm, &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "0 @ M is exactly 0");
    }

    /// Scalar reference of the quantized product: the exact semantics
    /// every kernel must match bitwise.
    fn reference_q(v: &[f32], m: &QuantMat) -> Vec<f32> {
        let (k, n) = m.shape();
        let mut q = vec![0i8; k];
        let vs = quantize_row(v, &mut q);
        (0..n)
            .map(|j| {
                let mut acc = 0i32;
                for (kk, &qv) in q.iter().enumerate() {
                    acc += qv as i32 * m.q_at(kk, j) as i32;
                }
                acc as f32 * vs * m.scales()[j]
            })
            .collect()
    }

    #[test]
    fn vecmat_q_is_bitwise_scalar_reference() {
        for (k, n) in [(9usize, 13usize), (16, 16), (32, 48), (7, 5), (24, 17)] {
            let m = seq_tensor(&[k, n], -0.8);
            let qm = QuantMat::quantize(&m);
            let v: Vec<f32> = (0..k).map(|i| (i as f32 * 0.31).sin() * 2.0).collect();
            let mut out = vec![0.0f32; n];
            vecmat_q(&v, &qm, &mut out);
            assert_eq!(out, reference_q(&v, &qm), "k={k} n={n}");
        }
    }

    #[test]
    fn batch_rows_are_bitwise_vecmat_q() {
        let (rows, k, n) = (5usize, 12, 37);
        let x = seq_tensor(&[rows, k], 0.2);
        let m = seq_tensor(&[k, n], -0.5);
        let qm = QuantMat::quantize(&m);
        let mut q = vec![0i8; rows * k];
        let mut scales = vec![0.0f32; rows];
        let mut batched = vec![0.0f32; rows * n];
        batch_matmul_q(&x.data, rows, &qm, &mut q, &mut scales, &mut batched);
        let mut single = vec![0.0f32; n];
        for r in 0..rows {
            vecmat_q(&x.data[r * k..(r + 1) * k], &qm, &mut single);
            assert_eq!(&batched[r * n..(r + 1) * n], &single[..], "row {r}");
        }
    }

    #[test]
    fn batch_linear_q_adds_bias_last() {
        let (rows, k, n) = (3usize, 8, 21);
        let x = seq_tensor(&[rows, k], 0.6);
        let m = seq_tensor(&[k, n], 0.9);
        let b = seq_tensor(&[n], -1.1);
        let qm = QuantMat::quantize(&m);
        let mut q = vec![0i8; rows * k];
        let mut scales = vec![0.0f32; rows];
        let mut with_bias = vec![0.0f32; rows * n];
        batch_linear_q(&x.data, rows, &qm, &b, &mut q, &mut scales, &mut with_bias);
        let mut plain = vec![0.0f32; rows * n];
        batch_matmul_q(&x.data, rows, &qm, &mut q, &mut scales, &mut plain);
        for r in 0..rows {
            for j in 0..n {
                assert_eq!(with_bias[r * n + j], plain[r * n + j] + b.data[j]);
            }
        }
    }

    #[test]
    fn error_against_f32_within_channel_bound() {
        for (k, n) in [(16usize, 33usize), (64, 48), (128, 16)] {
            let m = seq_tensor(&[k, n], 0.15);
            let qm = QuantMat::quantize(&m);
            let v: Vec<f32> = (0..k).map(|i| (i as f32 * 0.47).cos() * 1.5).collect();
            let mut exact = vec![0.0f32; n];
            vecmat(&v, &m, &mut exact);
            let mut quant = vec![0.0f32; n];
            vecmat_q(&v, &qm, &mut quant);
            let bound = qm.channel_error_bound(&v);
            for j in 0..n {
                let e = (exact[j] - quant[j]).abs();
                assert!(
                    e <= bound[j] * (1.0 + 1e-5),
                    "k={k} n={n} channel {j}: err {e} vs bound {}",
                    bound[j]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn dim_mismatch_panics() {
        let qm = QuantMat::quantize(&seq_tensor(&[4, 2], 0.0));
        let mut out = vec![0.0f32; 2];
        vecmat_q(&[1.0, 2.0, 3.0], &qm, &mut out);
    }
}
