//! Matrix multiplication — the training and inference hot path.
//!
//! The `matmul` kernel uses the cache-friendly i-k-j loop order (row-major A
//! and B), which lets LLVM vectorize the inner j-loop. Above
//! `par::MATMUL_MIN_WORK` multiply-adds the output-row range is split
//! into one slice per core and run through [`par::for_each`]: each thread
//! owns a disjoint slice of the output, so there is no synchronization on
//! the hot path (the pattern the HPC guides recommend: partition output,
//! share read-only inputs). `matmul_bt` (`A·Bᵀ`) and `matmul_at` (`Aᵀ·B`)
//! use the same row-partition scheme. Every output element is accumulated
//! by one thread in the serial order, so the partition never changes a bit.
//! Called inside another parallel section (a training shard), a kernel runs
//! serially: one level of threads per process.
//!
//! For KV-cached incremental decoding, where every activation is a single
//! row, the [`vecmat`] / [`vecmat_bt`] kernels compute `v · M` and `v · Mᵀ`
//! without materializing a 1-row `Tensor` per operand: they take and return
//! plain slices, so a decode step does zero intermediate allocations beyond
//! its output buffers.

use crate::par;
use crate::tensor::Tensor;

/// The `[m, n]` product whose output rows (`n·k` multiply-adds each) are
/// cut into one slice per [`par::threads`]; `fill(row0, slice)` computes
/// the rows from `row0` on into `slice`.
fn by_rows(m: usize, n: usize, k: usize, fill: impl Fn(usize, &mut [f32]) + Sync) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    let rows_per = m.div_ceil(par::threads(m, n * k, par::MATMUL_MIN_WORK));
    par::for_each(
        out.chunks_mut((rows_per * n).max(1)).enumerate(),
        |(t, slice)| fill(t * rows_per, slice),
    );
    Tensor::from_vec(&[m, n], out)
}

/// `C[m,n] = A[m,k] @ B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D, got {:?}", a.shape);
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D, got {:?}", b.shape);
    let (m, k) = (a.shape[0], a.shape[1]);
    let (k2, n) = (b.shape[0], b.shape[1]);
    assert_eq!(k, k2, "matmul inner dims: {:?} @ {:?}", a.shape, b.shape);
    by_rows(m, n, k, |row0, out| {
        kernel(&a.data, &b.data, out, row0, out.len() / n, k, n)
    })
}

/// Serial kernel over rows `[row0, row0+rows)` writing into `out` (which
/// holds exactly `rows * n` elements).
#[inline]
fn kernel(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, rows: usize, k: usize, n: usize) {
    for i in 0..rows {
        let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
        let c_row = &mut out[i * n..i * n + n];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..kk * n + n];
            for (c, &bv) in c_row.iter_mut().zip(b_row) {
                *c += aik * bv;
            }
        }
    }
}

/// `C = A @ B^T` where `A[m,k]`, `B[n,k]` → `C[m,n]`.
/// Used by attention (`Q @ K^T`) and by matmul backward without forming an
/// explicit transpose.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2);
    assert_eq!(b.ndim(), 2);
    let (m, k) = (a.shape[0], a.shape[1]);
    let (n, k2) = (b.shape[0], b.shape[1]);
    assert_eq!(
        k, k2,
        "matmul_bt inner dims: {:?} @ {:?}^T",
        a.shape, b.shape
    );
    by_rows(m, n, k, |row0, out| {
        kernel_bt(&a.data, &b.data, out, row0, out.len() / n, k, n)
    })
}

/// Serial `A·Bᵀ` kernel over output rows `[row0, row0+rows)`.
#[inline]
fn kernel_bt(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, rows: usize, k: usize, n: usize) {
    for i in 0..rows {
        let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
        let o_row = &mut out[i * n..i * n + n];
        for (o, b_row) in o_row.iter_mut().zip(b.chunks_exact(k)) {
            *o = dot(a_row, b_row);
        }
    }
}

/// Dense dot product over 8 lane-strided partial sums.
///
/// A naive `acc += x*y` loop is a single sequential float chain — strict FP
/// semantics forbid LLVM from vectorizing it, capping attention score rows
/// (`q · Kᵀ`) at roughly one multiply-add per FMA-latency. Eight independent
/// accumulators turn the loop into one SIMD FMA per 8 elements; the lanes
/// are reduced pairwise at the end. (This changes the summation *order*
/// relative to the naive loop — fine for every consumer, which tolerate
/// f32 accumulation-order noise — but stays deterministic, and every
/// decode lane runs this one implementation, so a lane's attention scores
/// do not depend on what it is batched with.)
#[inline]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    dot_many(x, [y])[0]
}

/// `N` dot products of `x` against the rows `ys` at once, each **bitwise**
/// the [`dot`] of that row (it is `dot`'s definition): the rows' lane
/// accumulators are independent chains, so the core overlaps them where a
/// single product waits out the latency of every add.
#[inline]
fn dot_many<const N: usize>(x: &[f32], ys: [&[f32]; N]) -> [f32; N] {
    const LANES: usize = 8;
    let full = x.len() / LANES * LANES;
    let mut tail = [0.0f32; N];
    for (t, y) in tail.iter_mut().zip(&ys) {
        for (a, b) in x[full..].iter().zip(&y[full..]) {
            *t += a * b;
        }
    }
    let mut acc = [[0.0f32; LANES]; N];
    for c in (0..full).step_by(LANES) {
        let xs = &x[c..c + LANES];
        for (acc_r, y) in acc.iter_mut().zip(&ys) {
            let ys_c = &y[c..c + LANES];
            for l in 0..LANES {
                acc_r[l] += xs[l] * ys_c[l];
            }
        }
    }
    std::array::from_fn(|r| {
        let s4: [f32; 4] = std::array::from_fn(|l| acc[r][l] + acc[r][l + 4]);
        let s2 = [s4[0] + s4[2], s4[1] + s4[3]];
        s2[0] + s2[1] + tail[r]
    })
}

/// `C = A^T @ B` where `A[k,m]`, `B[k,n]` → `C[m,n]`.
/// Used by matmul backward for the weight gradient.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2);
    assert_eq!(b.ndim(), 2);
    let (k, m) = (a.shape[0], a.shape[1]);
    let (k2, n) = (b.shape[0], b.shape[1]);
    assert_eq!(
        k, k2,
        "matmul_at inner dims: {:?}^T @ {:?}",
        a.shape, b.shape
    );
    // Offset A by the part's first output row; `kernel_at` reads column `i`
    // of the shifted view.
    by_rows(m, n, k, |row0, out| {
        kernel_at(&a.data[row0..], &b.data, out, out.len() / n, k, m, n)
    })
}

/// Serial `Aᵀ·B` kernel over `rows` output rows. `a` is A's data offset so
/// that output row `i` reads column `i` of the shifted view: row `i` is
/// `Σ_k a[k·m + i] · B[k, :]` — a column-strided read of A, but each thread
/// still owns a disjoint output slice.
#[inline]
fn kernel_at(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, m: usize, n: usize) {
    for i in 0..rows {
        let o_row = &mut out[i * n..i * n + n];
        for kk in 0..k {
            let av = a[kk * m + i];
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..kk * n + n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Single-row product `v[k] @ M[k, n] → out[n]`, accumulated in i-k-j order
/// (the 1-row specialization of [`matmul`]). Slices in, slice out — no
/// tensor allocation on the incremental-decode hot path.
pub fn vecmat(v: &[f32], m: &Tensor, out: &mut [f32]) {
    assert_eq!(m.ndim(), 2, "vecmat rhs must be 2-D, got {:?}", m.shape);
    let (k, n) = (m.shape[0], m.shape[1]);
    assert_eq!(
        v.len(),
        k,
        "vecmat inner dims: [{}] @ {:?}",
        v.len(),
        m.shape
    );
    assert_eq!(out.len(), n, "vecmat output length");
    out.fill(0.0);
    vecmat_acc(v, &m.data, n, out);
}

/// Accumulating single-row product over a raw row-major block:
/// `out[j] += Σ_k v[k] · m[k·cols + j]`, rows added in ascending-`k` order
/// into the caller's accumulator.
///
/// This is [`vecmat`] minus the zero-fill, exposed on plain slices so
/// callers that store their matrix in non-contiguous blocks (the paged KV
/// cache walks a page list) can accumulate block by block and still produce
/// **bitwise** the contiguous result — each output element sees the exact
/// same single-accumulator ascending-row addition sequence no matter where
/// the block boundaries fall.
pub fn vecmat_acc(v: &[f32], m: &[f32], cols: usize, out: &mut [f32]) {
    assert_eq!(
        m.len(),
        v.len() * cols,
        "vecmat_acc block: [{}] @ [{}, {cols}]",
        v.len(),
        m.len() / cols.max(1)
    );
    assert_eq!(out.len(), cols, "vecmat_acc output length");
    for (&vv, m_row) in v.iter().zip(m.chunks_exact(cols)) {
        if vv == 0.0 {
            continue;
        }
        for (o, &mv) in out.iter_mut().zip(m_row) {
            *o += vv * mv;
        }
    }
}

/// Single-row transposed product `v[k] @ M[n, k]ᵀ → out[n]`: `out[j]` is the
/// dot product of `v` with row `j` of `M`. This is exactly the shape of
/// cached attention scores (`q · Kᵀ` with K stored row-per-position).
pub fn vecmat_bt(v: &[f32], m: &Tensor, out: &mut [f32]) {
    assert_eq!(m.ndim(), 2, "vecmat_bt rhs must be 2-D, got {:?}", m.shape);
    let (n, k) = (m.shape[0], m.shape[1]);
    assert_eq!(
        v.len(),
        k,
        "vecmat_bt inner dims: [{}] @ {:?}^T",
        v.len(),
        m.shape
    );
    assert_eq!(out.len(), n, "vecmat_bt output length");
    dot_rows(v, &m.data, out);
}

/// Per-row dot products over a raw row-major block: `out[r] = v · m[r, :]`
/// with row width `v.len()` and `out.len()` rows. The slice form of
/// [`vecmat_bt`], shared by the paged attention walk — every row's score is
/// an independent dot product (the same lane-strided `dot` kernel), so
/// splitting the rows across pages cannot change a single bit of any score.
pub fn dot_rows(v: &[f32], m: &[f32], out: &mut [f32]) {
    assert_eq!(
        m.len(),
        out.len() * v.len(),
        "dot_rows block: [{}, {}]",
        out.len(),
        v.len()
    );
    // Eight rows per `dot_many` call: enough independent accumulator chains
    // to hide the add latency, few enough to stay in registers.
    let mut rows = m.chunks_exact(v.len());
    let mut groups = out.chunks_exact_mut(8);
    for o in &mut groups {
        let ys: [&[f32]; 8] = std::array::from_fn(|_| rows.next().expect("one row per output"));
        o.copy_from_slice(&dot_many(v, ys));
    }
    for (o, m_row) in groups.into_remainder().iter_mut().zip(rows) {
        *o = dot(v, m_row);
    }
}

/// Rows per register block of [`batch_matmul`]: enough that each streamed
/// weight element feeds 8 independent FMA chains, few enough that the
/// accumulator tile stays in registers.
const BM_RB: usize = 8;
/// Columns per register block of [`batch_matmul`] (one/two SIMD vectors).
const BM_JB: usize = 16;

/// Packed-rows product `X[rows, k] @ M[k, n] → out[rows, n]` — the batched
/// generalization of [`vecmat`], built for lockstep multi-request decoding
/// where the per-request activation rows are packed into one matrix.
///
/// The kernel is **register-blocked**: an `8×8` accumulator tile lives in
/// registers while `k` runs innermost, so each weight element is loaded once
/// per 8 activation rows and feeds 8 independent FMA chains (a single-row
/// `vecmat` has no such independence to exploit — its accumulators round-trip
/// through memory with a loop-carried latency on every element). That gives
/// batched decoding two structural wins over N sequential `vecmat` calls:
/// ~8× less weight traffic when the weights don't fit in cache, and several
/// times the FLOP throughput when they do.
///
/// Each output element still accumulates its `k` terms in ascending-`k`
/// order (the blocking changes *where* partial sums live, not the order they
/// are added in), so row `i` of the result is exactly
/// `vecmat(&x[i*k..(i+1)*k], m, ..)` — bitwise, not just approximately —
/// which is what keeps a lane's logits in the batched decode step
/// independent of the other lanes.
///
/// Slices in, slice out: no tensor allocation on the decode hot path. The
/// kernel is deliberately serial — decode batches are a handful of rows, far
/// too little work to amortize thread spawns (contrast [`matmul`], which
/// threads across output rows above its work threshold).
pub fn batch_matmul(x: &[f32], rows: usize, m: &Tensor, out: &mut [f32]) {
    assert_eq!(
        m.ndim(),
        2,
        "batch_matmul rhs must be 2-D, got {:?}",
        m.shape
    );
    batch_matmul_slice(x, rows, &m.data, m.shape[1], out);
}

/// [`batch_matmul`] over a raw row-major `[k, n]` block `m` (`k` is
/// `m.len() / n`): the same register-blocked kernel, bitwise the same
/// result, for callers whose right-hand side is a slice of a larger buffer
/// (the encoder's per-head value block).
pub fn batch_matmul_slice(x: &[f32], rows: usize, m: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(out.len(), rows * n, "batch_matmul output length");
    if n == 0 {
        return;
    }
    let k = m.len() / n;
    assert_eq!(m.len(), k * n, "batch_matmul rhs: [{k}, {n}] block");
    assert_eq!(
        x.len(),
        rows * k,
        "batch_matmul lhs: [{rows}, {k}] needs {} elements, got {}",
        rows * k,
        x.len()
    );
    let mut i0 = 0;
    while i0 + BM_RB <= rows {
        bm_row_block::<BM_RB>(&x[i0 * k..], m, &mut out[i0 * n..(i0 + BM_RB) * n], k, n);
        i0 += BM_RB;
    }
    // Row remainder: progressively smaller register blocks, then
    // `vecmat_acc` (all accumulate in the same ascending-k order).
    if i0 + 4 <= rows {
        bm_row_block::<4>(&x[i0 * k..], m, &mut out[i0 * n..(i0 + 4) * n], k, n);
        i0 += 4;
    }
    if i0 + 2 <= rows {
        bm_row_block::<2>(&x[i0 * k..], m, &mut out[i0 * n..(i0 + 2) * n], k, n);
        i0 += 2;
    }
    for i in i0..rows {
        let out = &mut out[i * n..i * n + n];
        out.fill(0.0);
        vecmat_acc(&x[i * k..i * k + k], m, n, out);
    }
}

/// One `RB`-row stripe of [`batch_matmul`]: `x` holds the stripe's rows
/// (`RB × k`, starting at offset 0), `out` exactly `RB × n` elements.
#[inline]
fn bm_row_block<const RB: usize>(x: &[f32], m: &[f32], out: &mut [f32], k: usize, n: usize) {
    let x_rows: [&[f32]; RB] = std::array::from_fn(|r| &x[r * k..r * k + k]);
    let mut j0 = 0;
    while j0 + BM_JB <= n {
        let mut acc = [[0.0f32; BM_JB]; RB];
        for kk in 0..k {
            let w = &m[kk * n + j0..kk * n + j0 + BM_JB];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let xv = x_rows[r][kk];
                for (a, &wv) in acc_r.iter_mut().zip(w) {
                    *a += xv * wv;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out[r * n + j0..r * n + j0 + BM_JB].copy_from_slice(acc_r);
        }
        j0 += BM_JB;
    }
    // Column remainder: scalar accumulators, still ascending-k per element.
    for j in j0..n {
        let mut acc = [0.0f32; RB];
        for kk in 0..k {
            let wv = m[kk * n + j];
            for (a, xr) in acc.iter_mut().zip(&x_rows) {
                *a += xr[kk] * wv;
            }
        }
        for (r, &a) in acc.iter().enumerate() {
            out[r * n + j] = a;
        }
    }
}

/// [`batch_matmul`] plus a broadcast bias row: `out[i, :] = x[i, :] @ M + b`.
/// Row `i` equals a [`vecmat`]-then-add-bias sequence bitwise (same ascending
/// `k` accumulation, bias added last), whatever the other rows hold.
pub fn batch_linear(x: &[f32], rows: usize, m: &Tensor, b: &Tensor, out: &mut [f32]) {
    let n = m.shape[1];
    assert_eq!(b.data.len(), n, "batch_linear bias length");
    batch_matmul(x, rows, m, out);
    for o_row in out.chunks_exact_mut(n) {
        for (o, &bv) in o_row.iter_mut().zip(&b.data) {
            *o += bv;
        }
    }
}

/// A weight matrix repacked into tile-major panels for the batched decode
/// kernels.
///
/// [`batch_matmul`]'s register-blocked loop reads a 16-column stripe of a
/// row-major `M[k, n]` with a stride of `n` floats — for serving-scale
/// matrices (`n` in the thousands) that is one cache line per `k` step at a
/// multi-KB stride, which hardware prefetchers refuse to stream, so the
/// kernel stalls on memory latency instead of running at bandwidth.
/// Packing rewrites `M` once into `[n/16]` panels of `[k, 16]` each
/// (column remainder in a final narrow panel), making every panel walk
/// perfectly sequential.
///
/// Decode weights are constant across steps, so a scheduler packs each
/// matrix once per model and reuses it for every step of every batch —
/// the one-time copy is amortized to noise. Packing changes memory layout
/// only, never accumulation order: [`batch_matmul_packed`] remains bitwise
/// equal to [`batch_matmul`] and therefore to per-row [`vecmat`].
#[derive(Debug, Clone)]
pub struct PackedMat {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedMat {
    /// Repack a row-major `[k, n]` matrix (one sequential read pass).
    pub fn pack(m: &Tensor) -> PackedMat {
        assert_eq!(m.ndim(), 2, "PackedMat wants 2-D, got {:?}", m.shape);
        let (k, n) = (m.shape[0], m.shape[1]);
        let full = n / BM_JB;
        let rem = n - full * BM_JB;
        let mut data = vec![0.0f32; k * n];
        for (kk, row) in m.data.chunks_exact(n).enumerate() {
            for jt in 0..full {
                let dst = jt * k * BM_JB + kk * BM_JB;
                data[dst..dst + BM_JB].copy_from_slice(&row[jt * BM_JB..(jt + 1) * BM_JB]);
            }
            if rem > 0 {
                let dst = full * k * BM_JB + kk * rem;
                data[dst..dst + rem].copy_from_slice(&row[full * BM_JB..]);
            }
        }
        PackedMat { k, n, data }
    }

    /// `(k, n)` of the original matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }
}

/// [`batch_matmul`] over a pre-packed weight matrix — bitwise the same
/// result, streamed sequentially (see [`PackedMat`]).
pub fn batch_matmul_packed(x: &[f32], rows: usize, m: &PackedMat, out: &mut [f32]) {
    let (k, n) = (m.k, m.n);
    assert_eq!(
        x.len(),
        rows * k,
        "batch_matmul_packed lhs: [{rows}, {k}] needs {} elements, got {}",
        rows * k,
        x.len()
    );
    assert_eq!(out.len(), rows * n, "batch_matmul_packed output length");
    let mut i0 = 0;
    while i0 + BM_RB <= rows {
        bm_row_block_packed::<BM_RB>(&x[i0 * k..], m, &mut out[i0 * n..(i0 + BM_RB) * n]);
        i0 += BM_RB;
    }
    if i0 + 4 <= rows {
        bm_row_block_packed::<4>(&x[i0 * k..], m, &mut out[i0 * n..(i0 + 4) * n]);
        i0 += 4;
    }
    if i0 + 2 <= rows {
        bm_row_block_packed::<2>(&x[i0 * k..], m, &mut out[i0 * n..(i0 + 2) * n]);
        i0 += 2;
    }
    while i0 < rows {
        bm_row_block_packed::<1>(&x[i0 * k..], m, &mut out[i0 * n..(i0 + 1) * n]);
        i0 += 1;
    }
}

/// [`batch_matmul_packed`] plus a broadcast bias row (the packed
/// counterpart of [`batch_linear`]).
pub fn batch_linear_packed(x: &[f32], rows: usize, m: &PackedMat, b: &Tensor, out: &mut [f32]) {
    assert_eq!(b.data.len(), m.n, "batch_linear_packed bias length");
    batch_matmul_packed(x, rows, m, out);
    for o_row in out.chunks_exact_mut(m.n) {
        for (o, &bv) in o_row.iter_mut().zip(&b.data) {
            *o += bv;
        }
    }
}

/// One `RB`-row stripe over packed panels; same accumulation order as
/// `bm_row_block`, sequential panel reads.
#[inline]
fn bm_row_block_packed<const RB: usize>(x: &[f32], m: &PackedMat, out: &mut [f32]) {
    let (k, n) = (m.k, m.n);
    let x_rows: [&[f32]; RB] = std::array::from_fn(|r| &x[r * k..r * k + k]);
    let full = n / BM_JB;
    for jt in 0..full {
        let panel = &m.data[jt * k * BM_JB..(jt + 1) * k * BM_JB];
        let mut acc = [[0.0f32; BM_JB]; RB];
        for (kk, w) in panel.chunks_exact(BM_JB).enumerate() {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let xv = x_rows[r][kk];
                for (a, &wv) in acc_r.iter_mut().zip(w) {
                    *a += xv * wv;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out[r * n + jt * BM_JB..r * n + (jt + 1) * BM_JB].copy_from_slice(acc_r);
        }
    }
    let rem = n - full * BM_JB;
    if rem > 0 {
        let panel = &m.data[full * k * BM_JB..];
        for j in 0..rem {
            let mut acc = [0.0f32; RB];
            for kk in 0..k {
                let wv = panel[kk * rem + j];
                for (a, xr) in acc.iter_mut().zip(&x_rows) {
                    *a += xr[kk] * wv;
                }
            }
            for (r, &a) in acc.iter().enumerate() {
                out[r * n + full * BM_JB + j] = a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape[0], a.shape[1]);
        let n = b.shape[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at2(i, kk) * b.at2(kk, j);
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    fn seq_tensor(shape: &[usize], start: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..n)
                .map(|i| start + (i as f32) * 0.37 - (i % 7) as f32)
                .collect(),
        )
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape, b.shape);
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "elem {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn small_matmul_exact() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape, vec![2, 2]);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matches_naive_various_sizes() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (8, 8, 8), (17, 13, 19), (32, 1, 32)] {
            let a = seq_tensor(&[m, k], 0.5);
            let b = seq_tensor(&[k, n], -1.25);
            assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-5);
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Force through the parallel branch (m*n*k >= threshold).
        let a = seq_tensor(&[128, 64], 0.1);
        let b = seq_tensor(&[64, 64], 0.2);
        let big = matmul(&a, &b);
        assert_close(&big, &naive(&a, &b), 1e-3);
    }

    #[test]
    fn bt_equals_explicit_transpose() {
        let a = seq_tensor(&[5, 7], 0.3);
        let b = seq_tensor(&[4, 7], -0.6);
        assert_close(&matmul_bt(&a, &b), &matmul(&a, &b.transpose2()), 1e-5);
    }

    #[test]
    fn at_equals_explicit_transpose() {
        let a = seq_tensor(&[7, 5], 0.3);
        let b = seq_tensor(&[7, 4], -0.6);
        assert_close(&matmul_at(&a, &b), &matmul(&a.transpose2(), &b), 1e-5);
    }

    #[test]
    fn bt_parallel_path_matches_serial() {
        // 128×64×64 = 2^19 multiply-adds ≥ MATMUL_MIN_WORK → threaded branch.
        let a = seq_tensor(&[128, 64], 0.1);
        let b = seq_tensor(&[64, 64], 0.2);
        assert_close(&matmul_bt(&a, &b), &naive(&a, &b.transpose2()), 1e-3);
    }

    #[test]
    fn at_parallel_path_matches_serial() {
        let a = seq_tensor(&[64, 128], 0.1);
        let b = seq_tensor(&[64, 64], 0.2);
        assert_close(&matmul_at(&a, &b), &naive(&a.transpose2(), &b), 1e-3);
    }

    /// Inside a parallel section the kernels run serially, and the row
    /// partition never changes an element's accumulation order, so a
    /// kernel called from a training shard is bitwise the top-level call.
    #[test]
    fn kernels_inside_a_section_are_bitwise_the_threaded_kernels() {
        let a = seq_tensor(&[128, 64], 0.1);
        let b = seq_tensor(&[64, 64], 0.2);
        let top = [
            matmul(&a, &b),
            matmul_bt(&a, &b),
            matmul_at(&b, &a.transpose2()),
        ];
        par::for_each(0..2, |_| {
            assert!(par::in_region());
            let inner = [
                matmul(&a, &b),
                matmul_bt(&a, &b),
                matmul_at(&b, &a.transpose2()),
            ];
            for (x, y) in top.iter().zip(&inner) {
                assert_eq!(x.data, y.data);
            }
        });
    }

    #[test]
    fn vecmat_equals_one_row_matmul() {
        let a = seq_tensor(&[1, 9], 0.4);
        let m = seq_tensor(&[9, 13], -0.2);
        let mut out = vec![0.0f32; 13];
        vecmat(&a.data, &m, &mut out);
        assert_close(&Tensor::from_vec(&[1, 13], out), &matmul(&a, &m), 1e-5);
    }

    #[test]
    fn vecmat_bt_equals_one_row_matmul_bt() {
        let a = seq_tensor(&[1, 9], 0.4);
        let m = seq_tensor(&[13, 9], -0.2);
        let mut out = vec![0.0f32; 13];
        vecmat_bt(&a.data, &m, &mut out);
        assert_close(&Tensor::from_vec(&[1, 13], out), &matmul_bt(&a, &m), 1e-5);
    }

    /// The invariant the paged KV cache rests on: accumulating a row-major
    /// block in arbitrary row-splits via `vecmat_acc` / scoring it via
    /// `dot_rows` is *bitwise* the contiguous `vecmat` / `vecmat_bt` result,
    /// wherever the split boundaries fall.
    #[test]
    fn block_split_kernels_are_bitwise_contiguous() {
        let (rows, cols) = (23usize, 16);
        let m = seq_tensor(&[rows, cols], 0.21);
        let s: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.13).sin()).collect();
        let q: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.71).cos()).collect();

        let mut ctx_ref = vec![0.0f32; cols];
        vecmat(&s, &m, &mut ctx_ref);
        let mut scores_ref = vec![0.0f32; rows];
        vecmat_bt(&q, &m, &mut scores_ref);

        for split in [1usize, 2, 3, 5, 16] {
            let mut ctx = vec![0.0f32; cols];
            let mut scores = vec![0.0f32; rows];
            let mut r0 = 0;
            while r0 < rows {
                let r1 = (r0 + split).min(rows);
                let block = &m.data[r0 * cols..r1 * cols];
                vecmat_acc(&s[r0..r1], block, cols, &mut ctx);
                dot_rows(&q, block, &mut scores[r0..r1]);
                r0 = r1;
            }
            assert_eq!(ctx, ctx_ref, "vecmat_acc split {split}");
            assert_eq!(scores, scores_ref, "dot_rows split {split}");
        }
    }

    #[test]
    #[should_panic(expected = "vecmat_acc block")]
    fn vecmat_acc_block_mismatch_panics() {
        let mut out = vec![0.0f32; 2];
        vecmat_acc(&[1.0, 2.0], &[0.0; 5], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "dot_rows block")]
    fn dot_rows_block_mismatch_panics() {
        let mut out = vec![0.0f32; 2];
        dot_rows(&[1.0, 2.0], &[0.0; 5], &mut out);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn vecmat_dim_mismatch_panics() {
        let mut out = vec![0.0f32; 2];
        vecmat(&[1.0, 2.0, 3.0], &Tensor::zeros(&[4, 2]), &mut out);
    }

    #[test]
    fn batch_matmul_equals_matmul() {
        for (rows, k, n) in [(1usize, 5, 7), (4, 9, 13), (8, 16, 3)] {
            let x = seq_tensor(&[rows, k], 0.4);
            let m = seq_tensor(&[k, n], -0.2);
            let mut out = vec![0.0f32; rows * n];
            batch_matmul(&x.data, rows, &m, &mut out);
            assert_close(&Tensor::from_vec(&[rows, n], out), &matmul(&x, &m), 1e-5);
        }
    }

    /// The equivalence the batched decoder relies on: every packed row is
    /// *bitwise* the single-row `vecmat` result.
    #[test]
    fn batch_matmul_rows_are_bitwise_vecmat() {
        let (rows, k, n) = (6usize, 11, 9);
        let x = seq_tensor(&[rows, k], 0.15);
        let m = seq_tensor(&[k, n], -0.85);
        let mut batched = vec![0.0f32; rows * n];
        batch_matmul(&x.data, rows, &m, &mut batched);
        let mut single = vec![0.0f32; n];
        for i in 0..rows {
            vecmat(&x.data[i * k..(i + 1) * k], &m, &mut single);
            assert_eq!(&batched[i * n..(i + 1) * n], &single[..], "row {i}");
        }
    }

    /// The encoder's attention context: weight rows with exact zeros in
    /// them (which `vecmat_acc` skips and the register block adds) times a
    /// slice of a larger buffer give bitwise the per-row `vecmat_acc` sums.
    #[test]
    fn batch_matmul_slice_rows_are_bitwise_vecmat_acc_despite_zero_weights() {
        let (rows, k, n) = (11usize, 13, 20);
        let mut x = seq_tensor(&[rows, k], 0.4).data;
        for (i, w) in x.iter_mut().enumerate() {
            *w = if i % 3 == 0 { 0.0 } else { w.abs() };
        }
        let buffer = seq_tensor(&[k + 2, n], -0.6).data;
        let m = &buffer[n..(k + 1) * n];
        let mut batched = vec![0.0f32; rows * n];
        batch_matmul_slice(&x, rows, m, n, &mut batched);
        for i in 0..rows {
            let mut single = vec![0.0f32; n];
            vecmat_acc(&x[i * k..(i + 1) * k], m, n, &mut single);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&batched[i * n..(i + 1) * n]), bits(&single), "row {i}");
        }
    }

    #[test]
    fn batch_linear_adds_bias_per_row() {
        let (rows, k, n) = (3usize, 4, 5);
        let x = seq_tensor(&[rows, k], 0.3);
        let m = seq_tensor(&[k, n], 0.7);
        let b = seq_tensor(&[n], -1.5);
        let mut out = vec![0.0f32; rows * n];
        batch_linear(&x.data, rows, &m, &b, &mut out);
        let plain = matmul(&x, &m);
        for i in 0..rows {
            for j in 0..n {
                let want = plain.data[i * n + j] + b.data[j];
                assert!((out[i * n + j] - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn packed_matmul_is_bitwise_unpacked() {
        // Shapes with and without 16-column remainders, rows hitting every
        // register-block size (8/4/2/1 paths).
        for (rows, k, n) in [
            (8usize, 16, 48),
            (6, 11, 9),
            (3, 7, 33),
            (1, 5, 16),
            (11, 8, 24),
        ] {
            let x = seq_tensor(&[rows, k], 0.25);
            let m = seq_tensor(&[k, n], -0.4);
            let packed = PackedMat::pack(&m);
            assert_eq!(packed.shape(), (k, n));
            let mut a = vec![0.0f32; rows * n];
            let mut b = vec![0.0f32; rows * n];
            batch_matmul(&x.data, rows, &m, &mut a);
            batch_matmul_packed(&x.data, rows, &packed, &mut b);
            assert_eq!(a, b, "rows={rows} k={k} n={n}");
        }
    }

    #[test]
    fn packed_linear_adds_bias() {
        let (rows, k, n) = (5usize, 6, 20);
        let x = seq_tensor(&[rows, k], 0.3);
        let m = seq_tensor(&[k, n], 0.7);
        let b = seq_tensor(&[n], -1.5);
        let packed = PackedMat::pack(&m);
        let mut a = vec![0.0f32; rows * n];
        let mut p = vec![0.0f32; rows * n];
        batch_linear(&x.data, rows, &m, &b, &mut a);
        batch_linear_packed(&x.data, rows, &packed, &b, &mut p);
        assert_eq!(a, p);
    }

    #[test]
    #[should_panic(expected = "batch_matmul lhs")]
    fn batch_matmul_dim_mismatch_panics() {
        let mut out = vec![0.0f32; 4];
        batch_matmul(&[1.0, 2.0, 3.0], 2, &Tensor::zeros(&[2, 2]), &mut out);
    }

    #[test]
    fn identity_is_neutral() {
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.data[i * 4 + i] = 1.0;
        }
        let a = seq_tensor(&[4, 4], 2.0);
        assert_close(&matmul(&a, &eye), &a, 0.0);
        assert_close(&matmul(&eye, &a), &a, 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn dim_mismatch_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }
}
