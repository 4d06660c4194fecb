//! KV-cached incremental inference — the decode hot path.
//!
//! Training records every op on an autograd [`Tape`](mpirical_tensor::Tape);
//! inference needs none of that. This module implements a tape-free forward
//! path that processes **exactly one new decoder token per lane per step**
//! against a [`DecoderCache`], turning the per-token cost of autoregressive
//! generation from O(T²·L) prefix replay into O(T·L) attention over cached
//! state.
//!
//! There is one step: [`decode_step_batch`] advances N independent requests
//! in lockstep, fusing their weight projections into packed-matrix
//! [`batch_linear_packed`] calls while keeping one [`DecoderCache`] per
//! request (the engine under [`BatchDecoder`](crate::batch::BatchDecoder)).
//! A batch of one is the single-request path.
//!
//! Every weight matrix is read in place from the [`ParamStore`], which holds
//! each matrix once, in the [`PackedMat`] layout these kernels stream: the
//! f32 step, the encoder forward and the cross-K/V projection share that
//! one copy, and an embedding lookup gathers its row from the panels. Only
//! [`Precision::Int8`] prepares a weight set of its own
//! ([`QuantDecoderWeights`]).
//!
//! [`encode_source`] is the encoder's side of the same bargain: one
//! tape-free pass over all source rows per request, bitwise equal to the
//! tape's [`encode`](crate::transformer::encode).
//!
//! # Cache layout
//!
//! One `LayerCache` per decoder layer, holding:
//!
//! * **Self-attention K/V** — per attention head, the keys/values of every
//!   decoder position processed so far, appended in position order. Rows
//!   are **paged** ([`crate::paged`]): they live in fixed-size refcounted
//!   pages from a [`PagePool`], so resident memory tracks generated tokens
//!   instead of `max_dec_len`, and forks share pages copy-on-write. Because
//!   only positions `≤ t` are ever present, causal masking is implicit —
//!   there is no future to mask out.
//! * **Cross-attention K/V** — per head, a `[T_enc, d_head]` tensor
//!   projected **once** from the encoder output at cache construction.
//!   Replayed decoding recomputes these projections every step; they never
//!   change, which is most of the cross-attention savings. Clones share
//!   them via `Arc`, and they drop with the last cache that uses them.
//!
//! # Invariants
//!
//! * `len()` equals the number of tokens the cache has been stepped with;
//!   every self-attention head buffer holds exactly `len()` rows.
//! * A cache is bound to the `(store, params, cfg, encoder output)` it was
//!   built from; feeding tokens from a different model is undefined
//!   (garbage, not unsafety).
//! * A step panics if a lane is fed beyond `cfg.max_dec_len` positions,
//!   the same bound the replay path enforces.
//! * Cloning a cache (beam search forks hypotheses) shares every K/V page
//!   copy-on-write through the parent's pool and shares the immutable
//!   cross-attention K/V via `Arc`; clones evolve independently.
//! * Logits do not depend on the page size: the attention walk runs the
//!   same `dot_rows`/`vecmat_acc` kernels on each page slice in ascending
//!   row order, so any page size — including one page holding all
//!   `max_dec_len` rows, a single contiguous slab — gives **bitwise**
//!   the same logits (`tests/paged_cache_props.rs` fuzzes this; the pool
//!   must also end every schedule with zero live pages once caches drop).
//!
//! # Numerical equivalence
//!
//! The step math mirrors the tape path op for op (pre-LN blocks, tanh-GELU
//! through the tape op's own [`gelu`], `1e-5` LayerNorm epsilon,
//! `√d_model` embedding scale, sinusoidal positions), so cached logits
//! match full-replay logits to within f32 accumulation-order noise;
//! `decode::tests` asserts ≤ 1e-4 at every step, at 1 and at 3 lanes.
//!
//! # Example
//!
//! Build a cache against an encoder output, then feed decoder tokens one at
//! a time through a one-lane step:
//!
//! ```
//! use mpirical_model::decode::encode_source;
//! use mpirical_model::transformer::build_params;
//! use mpirical_model::{decode_step_batch, BatchScratch, DecoderCache, DecoderWeights, ModelConfig};
//! use mpirical_tensor::ParamStore;
//!
//! let mut cfg = ModelConfig::tiny();
//! cfg.vocab_size = 16;
//! let mut store = ParamStore::new();
//! let params = build_params(&cfg, &mut store, 1);
//! let enc_out = encode_source(&store, &params, &cfg, &[1, 6, 7, 2]);
//!
//! // f32 steps stream the store's own packed matrices: nothing to prepare.
//! let weights = DecoderWeights::F32;
//! let mut scratch = BatchScratch::new(&cfg, 1);
//! let mut cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
//! let mut logits = vec![0.0; cfg.vocab_size];
//! let mut lanes = [&mut cache];
//! // Feed <sos>.
//! decode_step_batch(
//!     &store, &params, &cfg, &weights, &mut lanes, &[1], &mut scratch, &mut logits,
//! );
//! assert!(logits.iter().all(|v| v.is_finite()));
//! assert_eq!(cache.len(), 1);
//! ```

use crate::config::ModelConfig;
use crate::paged::{PagePool, PagedRows, PoolInner};
use crate::transformer::{positional_encoding, LnParams, TransformerParams};
use mpirical_tensor::{
    batch_linear_packed, batch_linear_q, batch_matmul_slice, dot_rows, gelu, par, vecmat,
    vecmat_acc, vecmat_bt, PackedMat, ParamId, ParamStore, QuantMat, Tensor,
};
use serde::{Deserialize, Serialize};

/// Numeric precision of the decoder's weight-projection kernels.
///
/// `F32` runs the original full-precision path. `Int8` streams every
/// decoder projection through the per-channel quantized
/// [`QuantMat`] kernels (`i32` accumulation, one dequantize per output) —
/// ~4× less weight traffic on the memory-bound decode step, with logits
/// tracking the f32 path inside the scale-derived error bound that
/// `tests/quant_accuracy.rs` enforces. Attention over the KV cache,
/// LayerNorm, GELU, and the embedding lookup stay f32 in both modes (they
/// read activations, not the weight set that dominates traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Full-precision f32 projections (the default).
    #[default]
    F32,
    /// Per-channel int8 weight projections with dynamic int8 activations.
    Int8,
}

/// Per-head self-attention K/V storage — the part of the cache that grows
/// one row per decoded token, in pages of the cache's [`PagePool`]
/// ([`crate::paged`]): page-granular allocation, copy-on-write forks.
#[derive(Debug)]
struct SelfKv {
    /// One page list per head (keys, then values).
    k: Vec<PagedRows>,
    v: Vec<PagedRows>,
}

impl SelfKv {
    fn heads(&mut self) -> impl Iterator<Item = &mut PagedRows> {
        self.k.iter_mut().chain(self.v.iter_mut())
    }
}

/// Per-layer cached attention state (see module docs for layout).
#[derive(Debug)]
struct LayerCache {
    /// Self-attention K/V (grows per step).
    kv: SelfKv,
    /// Cross-attention keys, one `[T_enc, d_head]` tensor per head
    /// (projected once from the encoder output). Never mutated after
    /// construction, so clones share it via `Arc`.
    cross_k: std::sync::Arc<Vec<Tensor>>,
    /// Cross-attention values, one `[T_enc, d_head]` tensor per head.
    cross_v: std::sync::Arc<Vec<Tensor>>,
}

/// Incremental decoding state for one generation (one hypothesis).
#[derive(Debug)]
pub struct DecoderCache {
    layers: Vec<LayerCache>,
    /// Tokens processed so far (== rows in every self-attention buffer).
    len: usize,
    /// Pool behind the self-attention pages, shared with every fork.
    pool: PagePool,
}

impl Clone for DecoderCache {
    /// Fork for beam search: every K/V page is shared copy-on-write (a
    /// refcount bump per page — no row data moves), and the immutable
    /// cross-attention K/V through `Arc`s.
    fn clone(&self) -> DecoderCache {
        let mut pool = self.pool.lock();
        let layers = self
            .layers
            .iter()
            .map(|lc| LayerCache {
                kv: SelfKv {
                    k: lc.kv.k.iter().map(|b| b.fork(&mut pool)).collect(),
                    v: lc.kv.v.iter().map(|b| b.fork(&mut pool)).collect(),
                },
                cross_k: lc.cross_k.clone(),
                cross_v: lc.cross_v.clone(),
            })
            .collect();
        DecoderCache {
            layers,
            len: self.len,
            pool: self.pool.clone(),
        }
    }
}

impl DecoderCache {
    /// Drop all self-attention K/V rows, returning their pages to the
    /// pool, while keeping the shared cross-attention K/V projections. The
    /// cache re-enters the freshly-constructed state (`len == 0`): feeding
    /// the same token sequence back through rebuilds the exact same rows —
    /// cache contents are a pure function of the fed tokens — which is what
    /// lets the scheduler's page eviction replay a request bitwise.
    pub(crate) fn evict_self_kv(&mut self) {
        let mut pool = self.pool.lock();
        for lc in &mut self.layers {
            for buf in lc.kv.heads() {
                buf.release(&mut pool);
            }
        }
        self.len = 0;
    }
}

impl Drop for DecoderCache {
    /// Return every referenced page to the pool so dropped hypotheses and
    /// retired lanes never leak pages.
    fn drop(&mut self) {
        let mut pool = self.pool.lock();
        for lc in &mut self.layers {
            for buf in lc.kv.heads() {
                buf.release(&mut pool);
            }
        }
    }
}

/// Project `x[T, D]` through an attention parameter pair and split the
/// result into per-head `[T, d_head]` tensors. Uses the register-blocked
/// [`batch_linear_packed`] kernel over the store's packed weight — `x` is
/// exactly a packed-rows matrix — which streams the weight matrix once per
/// 8 rows instead of once per row,
/// cutting cache-construction latency several-fold at serving model sizes
/// (and accumulating in the same ascending-k order as `matmul`, so the
/// projected K/V are unchanged). Above a work threshold the rows are split
/// into one contiguous block per core, the rule an [`EncoderRun`] uses: each
/// row runs the same kernel whatever block it falls in, so the thread count
/// moves latency only.
fn project_per_head(
    x: &Tensor,
    w: &PackedMat,
    b: &Tensor,
    n_heads: usize,
    d_head: usize,
) -> Vec<Tensor> {
    let (t, d_in) = (x.shape[0], x.shape[1]);
    let d = w.shape().1;
    let mut full = vec![0.0f32; t * d];
    let part = rows_per_part(t, d_in * d);
    par::for_each(
        x.data.chunks(part * d_in).zip(full.chunks_mut(part * d)),
        |(x, out)| batch_linear_packed(x, x.len() / d_in, w, b, out),
    );
    (0..n_heads)
        .map(|h| {
            let mut data = Vec::with_capacity(t * d_head);
            for row in full.chunks_exact(d) {
                data.extend_from_slice(&row[h * d_head..(h + 1) * d_head]);
            }
            Tensor::from_vec(&[t, d_head], data)
        })
        .collect()
}

impl DecoderCache {
    /// Build a cache with its own fresh [`PagePool`] for decoding against
    /// `enc_out` (`[T_enc, d_model]`, the encoder's output).
    /// Cross-attention K/V are projected here, once. Beam forks (clones)
    /// share the pool — and their pages, copy-on-write.
    pub fn new(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        enc_out: &Tensor,
    ) -> DecoderCache {
        let pool = PagePool::new(cfg.d_head());
        DecoderCache::new_in_pool(store, params, cfg, enc_out, &pool)
    }

    /// Build a cache whose pages come from an existing shared `pool` (the
    /// batched scheduler allocates every lane out of one pool, so retired
    /// lanes recycle pages into newly admitted ones and beam forks share
    /// pages copy-on-write).
    ///
    /// # Panics
    ///
    /// If the pool's row width differs from `cfg.d_head()`, or `enc_out`
    /// is not `[T_enc, d_model]`.
    pub fn new_in_pool(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        enc_out: &Tensor,
        pool: &PagePool,
    ) -> DecoderCache {
        assert_eq!(
            pool.row_width(),
            cfg.d_head(),
            "pool row width must equal the head width"
        );
        assert_eq!(enc_out.ndim(), 2, "encoder output must be [T, D]");
        assert_eq!(enc_out.shape[1], cfg.d_model, "encoder width mismatch");
        let h = cfg.n_heads;
        let dh = cfg.d_head();
        let layers = params
            .dec_layers
            .iter()
            .map(|layer| {
                let ca = &layer.cross_attn;
                let cross_k =
                    project_per_head(enc_out, store.matrix(ca.wk), store.value(ca.bk), h, dh);
                let cross_v =
                    project_per_head(enc_out, store.matrix(ca.wv), store.value(ca.bv), h, dh);
                LayerCache {
                    kv: SelfKv {
                        k: (0..h).map(|_| PagedRows::new()).collect(),
                        v: (0..h).map(|_| PagedRows::new()).collect(),
                    },
                    cross_k: std::sync::Arc::new(cross_k),
                    cross_v: std::sync::Arc::new(cross_v),
                }
            })
            .collect();
        DecoderCache {
            layers,
            len: 0,
            pool: pool.clone(),
        }
    }

    /// Number of decoder tokens processed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pool backing this cache's pages. Handy for watching
    /// [`PoolStats`](crate::paged::PoolStats) across a decode — the handle
    /// stays valid after the cache drops.
    pub fn pool(&self) -> &PagePool {
        &self.pool
    }
}

/// Sum of a row over 8 lane-strided partial accumulators (a plain
/// `iter().sum()` is a sequential float chain the vectorizer must preserve,
/// ~one add per FP-latency; independent lanes turn it into one SIMD add per
/// 8 elements).
#[inline]
fn lane_sum(x: &[f32], mut f: impl FnMut(f32) -> f32) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = x.chunks_exact(LANES);
    let mut tail = 0.0f32;
    for &v in chunks.remainder() {
        tail += f(v);
    }
    for ch in chunks {
        for l in 0..LANES {
            acc[l] += f(ch[l]);
        }
    }
    let s4: [f32; 4] = std::array::from_fn(|l| acc[l] + acc[l + 4]);
    (s4[0] + s4[2]) + (s4[1] + s4[3]) + tail
}

/// LayerNorm one row with learned gain/bias (same ε as the tape op; the
/// lane-strided reductions shift the mean/variance in the last ulps relative
/// to the replay path, well inside the ≤1e-4 contract).
fn ln_row(x: &[f32], gamma: &Tensor, beta: &Tensor, out: &mut [f32]) {
    let d = x.len();
    let mean: f32 = lane_sum(x, |v| v) / d as f32;
    let var: f32 = lane_sum(x, |v| (v - mean) * (v - mean)) / d as f32;
    ln_apply(x, mean, var, gamma, beta, out);
}

/// [`ln_row`] with the tape op's **sequential** mean/variance sums. The
/// encoder forward promises bitwise equality with `transformer::encode`, and
/// a reduction's order is the one thing the two LayerNorms could differ in.
fn ln_row_seq(x: &[f32], gamma: &Tensor, beta: &Tensor, out: &mut [f32]) {
    let d = x.len();
    let mean: f32 = x.iter().sum::<f32>() / d as f32;
    let var: f32 = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
    ln_apply(x, mean, var, gamma, beta, out);
}

/// Normalize, scale and shift one row given its mean and variance.
fn ln_apply(x: &[f32], mean: f32, var: f32, gamma: &Tensor, beta: &Tensor, out: &mut [f32]) {
    const EPS: f32 = 1e-5;
    let istd = 1.0 / (var + EPS).sqrt();
    for (j, o) in out.iter_mut().enumerate() {
        *o = (x[j] - mean) * istd * gamma.data[j] + beta.data[j];
    }
}

/// In-place tanh-approximation GELU: [`gelu`], the function the tape op
/// evaluates, in a loop that vectorises.
fn gelu_row(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = gelu(*v);
    }
}

/// In-place numerically-stabilized softmax.
fn softmax_row(x: &mut [f32]) {
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - m).exp();
        z += *v;
    }
    let inv = 1.0 / z.max(1e-30);
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// Attend a single query row over per-head K/V tensors, writing the
/// concatenated head outputs into `ctx`. `scores` is scratch of at least
/// `K.rows` elements.
fn attend(
    q: &[f32],
    keys: &[Tensor],
    values: &[Tensor],
    scale: f32,
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    let dh = keys[0].shape[1];
    let t = keys[0].shape[0];
    for (head, (kh, vh)) in keys.iter().zip(values).enumerate() {
        let qh = &q[head * dh..(head + 1) * dh];
        let s = &mut scores[..t];
        vecmat_bt(qh, kh, s);
        for v in s.iter_mut() {
            *v *= scale;
        }
        softmax_row(s);
        vecmat(s, vh, &mut ctx[head * dh..(head + 1) * dh]);
    }
}

/// Attend a single query row over per-head **paged** K/V buffers. The
/// score of each position is an independent [`dot_rows`] dot product, and
/// the weighted value sum accumulates page after page in ascending row
/// order through [`vecmat_acc`] — the identical per-element addition
/// sequence [`vecmat`] performs on one slab — so the result does not depend
/// on the page size.
fn attend_paged(
    pool: &PoolInner,
    q: &[f32],
    keys: &[PagedRows],
    values: &[PagedRows],
    scale: f32,
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    let dh = pool.row_width();
    let t = keys[0].len();
    for (head, (kh, vh)) in keys.iter().zip(values).enumerate() {
        let qh = &q[head * dh..(head + 1) * dh];
        let s = &mut scores[..t];
        let mut row0 = 0;
        for page in kh.page_slices(pool) {
            let rows = page.len() / dh;
            dot_rows(qh, page, &mut s[row0..row0 + rows]);
            row0 += rows;
        }
        for v in s.iter_mut() {
            *v *= scale;
        }
        softmax_row(s);
        let ctx_h = &mut ctx[head * dh..(head + 1) * dh];
        ctx_h.fill(0.0);
        let mut row0 = 0;
        for page in vh.page_slices(pool) {
            let rows = page.len() / dh;
            vecmat_acc(&s[row0..row0 + rows], page, dh, ctx_h);
            row0 += rows;
        }
    }
}

/// Append one row per head (the row split into `d_head` slices) to the
/// per-head page lists.
fn push_head_rows(pool: &mut PoolInner, buffers: &mut [PagedRows], row: &[f32]) {
    let dh = pool.row_width();
    for (head, buf) in buffers.iter_mut().enumerate() {
        buf.push_row(pool, &row[head * dh..(head + 1) * dh]);
    }
}

/// One lane's self-attention cache update + attention: append this
/// position's K/V rows, then attend `q` over every cached row.
#[allow(clippy::too_many_arguments)]
fn self_attend_append(
    kv: &mut SelfKv,
    pool: &PagePool,
    q: &[f32],
    k_row: &[f32],
    v_row: &[f32],
    scale: f32,
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    {
        // Exclusive lock only for the append; parallel lanes contend here
        // briefly, then attend concurrently under read locks.
        let mut inner = pool.lock();
        push_head_rows(&mut inner, &mut kv.k, k_row);
        push_head_rows(&mut inner, &mut kv.v, v_row);
    }
    attend_paged(&pool.read(), q, &kv.k, &kv.v, scale, scores, ctx);
}

/// Sinusoidal positional encoding of a single position, added in place
/// (matches `transformer::positional_encoding`).
fn add_positional(x: &mut [f32], pos: usize) {
    let d = x.len();
    for i in 0..d / 2 {
        let angle = pos as f32 / 10_000f32.powf(2.0 * i as f32 / d as f32);
        x[2 * i] += angle.sin();
        if 2 * i + 1 < d {
            x[2 * i + 1] += angle.cos();
        }
    }
}

/// Every decoder-side weight matrix quantized once to per-channel int8
/// ([`QuantMat`]) for [`Precision::Int8`] serving.
///
/// The quantized panels are ~¼ the bytes of the f32 weights, and the
/// decode step streams them instead of the originals, which is the entire
/// speedup on the memory-bound step. Quantization reads the store's packed
/// matrices in place (their panels are the int8 panels' layout), in two
/// passes amortized to noise over a model's serving lifetime; biases,
/// LayerNorm parameters, cross-attention K/V projections of the *encoder
/// output* (computed per request at cache build, not per step), and the
/// embedding table stay f32.
#[derive(Debug, Clone)]
pub struct QuantDecoderWeights {
    /// Indexed by [`ParamId`]: the quantized matrix of every decoder
    /// projection, `None` for every other parameter.
    mats: Vec<Option<QuantMat>>,
    out_w: ParamId,
}

impl QuantDecoderWeights {
    /// Quantize every decoder-side weight matrix of `params`.
    pub fn new(store: &ParamStore, params: &TransformerParams) -> QuantDecoderWeights {
        let mut mats: Vec<Option<QuantMat>> = (0..store.len()).map(|_| None).collect();
        let layers = params.dec_layers.iter().flat_map(|layer| {
            let (sa, ca, ff) = (&layer.self_attn, &layer.cross_attn, &layer.ff);
            [sa.wq, sa.wk, sa.wv, sa.wo, ca.wq, ca.wo, ff.w1, ff.w2]
        });
        for id in layers.chain([params.out_w]) {
            mats[id.0] = Some(QuantMat::quantize_packed(store.matrix(id)));
        }
        QuantDecoderWeights {
            mats,
            out_w: params.out_w,
        }
    }

    /// The quantized matrix of decoder projection `id`.
    fn mat(&self, id: ParamId) -> &QuantMat {
        self.mats[id.0]
            .as_ref()
            .expect("a decoder projection matrix")
    }

    /// Per-channel scales of the final vocabulary projection — the scales
    /// the accuracy harness derives its logit error bound from.
    pub fn out_scales(&self) -> &[f32] {
        self.mat(self.out_w).scales()
    }
}

/// The decoder weight set a batched scheduler streams every step, for its
/// precision.
///
/// `F32` owns nothing: the kernels stream the [`ParamStore`]'s own packed
/// matrices in place. `Int8` holds the per-channel quantized copies,
/// prepared once per model. [`decode_step_batch`] dispatches each fused
/// projection on this enum; everything around the projections (LayerNorm,
/// attention, GELU, token selection) is the same code either way.
#[derive(Debug, Clone)]
pub enum DecoderWeights {
    /// Full-precision weights: the store's packed matrices.
    F32,
    /// Per-channel int8 quantized weights ([`QuantDecoderWeights`]).
    Int8(QuantDecoderWeights),
}

impl DecoderWeights {
    /// Prepare the weight set for `precision` (quantize once for `Int8`;
    /// nothing to prepare for `F32`).
    pub fn for_precision(
        store: &ParamStore,
        params: &TransformerParams,
        precision: Precision,
    ) -> DecoderWeights {
        match precision {
            Precision::F32 => DecoderWeights::F32,
            Precision::Int8 => DecoderWeights::Int8(QuantDecoderWeights::new(store, params)),
        }
    }

    /// The precision this weight set was prepared for.
    pub fn precision(&self) -> Precision {
        match self {
            DecoderWeights::F32 => Precision::F32,
            DecoderWeights::Int8(_) => Precision::Int8,
        }
    }
}

/// Reusable packed activation buffers for [`decode_step_batch`]: one
/// `[max_batch, dim]` slab per intermediate, so a lockstep step over N
/// requests allocates nothing.
///
/// Sized once for a `(config, max_batch)` pair; `decode_step_batch` panics
/// if handed more lanes than the scratch was built for.
#[derive(Debug)]
pub struct BatchScratch {
    x: Vec<f32>,
    normed: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    ctx: Vec<f32>,
    proj: Vec<f32>,
    ff: Vec<f32>,
    /// Per-lane attention-score rows (`[max_batch, scores_cap]`): each lane
    /// owns a disjoint slab so the per-lane attention sections can run on
    /// worker threads without sharing scratch.
    scores: Vec<f32>,
    scores_cap: usize,
    /// Memoized sinusoidal position rows (`[pos, d_model]`, grown on
    /// demand). `add_positional` burns ~d/2 `powf` calls per row; lanes in
    /// a batch usually sit at overlapping positions, so the scheduler
    /// computes each row once ever instead of once per lane per step. The
    /// memoized values are the very same expressions `add_positional`
    /// evaluates, so batched embeddings stay bitwise identical.
    pos_rows: Vec<f32>,
    /// Quantized-activation rows for the int8 path (`max_batch ×
    /// max(d, d_ff)` i8) plus one dynamic scale per lane.
    q8: Vec<i8>,
    qscales: Vec<f32>,
    d_model: usize,
    max_batch: usize,
}

impl BatchScratch {
    /// Allocate scratch for lockstep steps over at most `max_batch` lanes.
    ///
    /// # Panics
    ///
    /// If `max_batch` is 0 — a zero-lane scratch can never serve a step.
    pub fn new(cfg: &ModelConfig, max_batch: usize) -> BatchScratch {
        assert!(
            max_batch >= 1,
            "BatchScratch needs at least one lane (got max_batch = 0)"
        );
        let d = cfg.d_model;
        let slab = || vec![0.0f32; max_batch * d];
        BatchScratch {
            x: slab(),
            normed: slab(),
            q: slab(),
            k: slab(),
            v: slab(),
            ctx: slab(),
            proj: slab(),
            ff: vec![0.0; max_batch * cfg.d_ff],
            // Scores cover self-attention (≤ max_dec_len rows) and
            // cross-attention (≤ max_enc_len rows), one slab per lane so
            // lanes can attend in parallel.
            scores: vec![0.0; max_batch * cfg.max_dec_len.max(cfg.max_enc_len)],
            scores_cap: cfg.max_dec_len.max(cfg.max_enc_len),
            pos_rows: Vec::new(),
            q8: vec![0; max_batch * d.max(cfg.d_ff)],
            qscales: vec![0.0; max_batch],
            d_model: d,
            max_batch,
        }
    }

    /// The lane capacity this scratch was sized for.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The memoized positional-encoding row for `pos`, computing (and
    /// caching) any rows up to it that have not been needed yet.
    fn pos_row(&mut self, pos: usize) -> &[f32] {
        let d = self.d_model;
        while self.pos_rows.len() <= pos * d {
            let p = self.pos_rows.len() / d;
            let start = self.pos_rows.len();
            self.pos_rows.resize(start + d, 0.0);
            add_positional(&mut self.pos_rows[start..start + d], p);
        }
        &self.pos_rows[pos * d..(pos + 1) * d]
    }
}

/// One fused weight projection of [`decode_step_batch`] — weight `$w` and
/// bias `$b` (param ids) over `$rows` packed activation rows — dispatching
/// on the weight set's precision: the store's packed f32 matrix or its
/// quantized-int8 copy (the int8 arm threads the scratch's i8 row buffers
/// through). A macro rather than a function so the disjoint scratch-field
/// borrows stay visible to the borrow checker.
macro_rules! fused_linear {
    ($weights:expr, $store:expr, $s:expr, $w:expr, $b:expr, $x:expr, $rows:expr, $out:expr) => {
        match $weights {
            DecoderWeights::F32 => {
                batch_linear_packed($x, $rows, $store.matrix($w), $store.value($b), $out)
            }
            DecoderWeights::Int8(q) => batch_linear_q(
                $x,
                $rows,
                q.mat($w),
                $store.value($b),
                &mut $s.q8,
                &mut $s.qscales,
                $out,
            ),
        }
    };
}

/// Rows per part when `rows` decoder lanes or encoder rows of about
/// `work_per_row` flops each are split across [`par::threads`]. Rows never
/// share what they write, and each row's accumulation order is unchanged by
/// the partitioning, so the thread count can never perturb a bit — it is
/// purely a latency decision.
fn rows_per_part(rows: usize, work_per_row: usize) -> usize {
    rows.div_ceil(par::threads(rows, work_per_row, par::LANE_MIN_WORK))
}

/// LayerNorm one row per lane (`x[i·d..]` → `normed[i·d..]`), partitioning
/// lanes across threads when the batch is wide enough. Each row is
/// normalized by the same [`ln_row`] whatever part it falls in, so the
/// output is bitwise identical at any thread count.
fn ln_rows_batch(b: usize, d: usize, x: &[f32], gamma: &Tensor, beta: &Tensor, normed: &mut [f32]) {
    let part = rows_per_part(b, 10 * d) * d;
    par::for_each(
        x[..b * d]
            .chunks(part)
            .zip(normed[..b * d].chunks_mut(part)),
        |(x, out)| {
            for (row, out) in x.chunks(d).zip(out.chunks_mut(d)) {
                ln_row(row, gamma, beta, out);
            }
        },
    );
}

/// Process one decoder token for **each of N independent requests** in
/// lockstep, writing one logits row per lane into `logits` (`[N, vocab]`,
/// lane order).
///
/// Per-lane state (embedding lookup, LayerNorm, K/V append, attention over
/// that lane's own cache) runs per row, but every weight-matrix projection —
/// self-attention Q/K/V/O, cross-attention Q/O, both feed-forward linears,
/// and the final vocabulary projection — is fused into a single
/// [`batch_linear_packed`] call over the packed `[N, d]` activation matrix
/// against the store's packed weights ([`PackedMat`]), so each weight is
/// streamed from memory once per *step* instead of once per *request*, and
/// sequentially rather than strided.
///
/// # Equivalence
///
/// The fused kernels accumulate each output row in the same order whatever
/// the other rows hold, and every per-lane helper (`ln_row`, the attention
/// walks, `gelu_row`) reads only that lane's row and cache, so lane *i*'s
/// logits row is **bitwise identical** to what the same cache alone in a
/// one-lane step would produce. Lanes never read each other's state;
/// batching is a scheduling decision, not a numerical one. `infer::tests`
/// and `batch::tests` pin this.
///
/// The per-lane sections (LayerNorm rows, K/V append, self- and
/// cross-attention) additionally partition lanes across threads through
/// [`par::for_each`] above a work threshold — the same row-partition scheme
/// `matmul` uses. Each lane's accumulation order is fixed regardless of
/// which thread runs it, so the thread count affects latency only, never a
/// bit of the logits (`tests/parallel_engine_props.rs` pins this under a forced
/// thread-count override).
///
/// # Precision
///
/// `weights` selects the projection kernels: [`DecoderWeights::F32`] runs
/// the packed f32 kernels, [`DecoderWeights::Int8`] the per-channel
/// quantized ones. In int8 mode each lane's activation row quantizes on its
/// own (one dynamic scale per lane, [`quantize_row`](mpirical_tensor::quantize_row))
/// and the `i32` accumulator is order-invariant, so the lane-independence
/// above holds in both precisions.
///
/// # Panics
///
/// If `caches`, `tokens`, and `logits` disagree on the lane count, if the
/// lane count exceeds `scratch.max_batch()`, or if any lane is at
/// `cfg.max_dec_len` / fed an out-of-vocabulary token. `weights` must have
/// been prepared from the same `(store, params)`.
// The model triple plus the three pieces of reusable batch state; bundling
// them into a struct would just move the argument list.
#[allow(clippy::too_many_arguments)]
pub fn decode_step_batch(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    weights: &DecoderWeights,
    caches: &mut [&mut DecoderCache],
    tokens: &[usize],
    scratch: &mut BatchScratch,
    logits: &mut [f32],
) {
    let b = caches.len();
    assert!(b >= 1, "decode_step_batch needs at least one lane");
    assert!(
        b <= scratch.max_batch,
        "{b} lanes exceed scratch capacity {}",
        scratch.max_batch
    );
    assert_eq!(tokens.len(), b, "one token per lane");
    assert_eq!(
        logits.len(),
        b * cfg.vocab_size,
        "logits must be [N, vocab]"
    );
    let d = cfg.d_model;
    let dh = cfg.d_head();
    let scale = 1.0 / (dh as f32).sqrt();

    // Embedding + positional encoding, one row per lane (position rows come
    // from the scratch memo — computed once per position, not once per lane).
    let emb = store.matrix(params.tok_emb);
    let emb_scale = (d as f32).sqrt();
    let max_pos = caches.iter().map(|c| c.len).max().expect("b >= 1");
    scratch.pos_row(max_pos);
    for (i, (cache, &token)) in caches.iter().zip(tokens).enumerate() {
        let pos = cache.len;
        assert!(
            pos < cfg.max_dec_len,
            "decoder cache at {} exceeds max {}",
            pos + 1,
            cfg.max_dec_len
        );
        assert!(token < cfg.vocab_size, "token {token} out of vocab");
        let row = &mut scratch.x[i * d..(i + 1) * d];
        let pos_row = &scratch.pos_rows[pos * d..(pos + 1) * d];
        emb.gather_row(token, row);
        for (o, &p) in row.iter_mut().zip(pos_row) {
            *o = *o * emb_scale + p;
        }
    }

    let s = scratch;
    for (li, layer) in params.dec_layers.iter().enumerate() {
        // Self-attention block: fused Q/K/V projections over the packed
        // rows, then per-lane cache append + attention.
        let (g1, b1) = (store.value(layer.ln1.gamma), store.value(layer.ln1.beta));
        ln_rows_batch(b, d, &s.x, g1, b1, &mut s.normed);
        let sa = &layer.self_attn;
        fused_linear!(
            weights,
            store,
            s,
            sa.wq,
            sa.bq,
            &s.normed[..b * d],
            b,
            &mut s.q[..b * d]
        );
        fused_linear!(
            weights,
            store,
            s,
            sa.wk,
            sa.bk,
            &s.normed[..b * d],
            b,
            &mut s.k[..b * d]
        );
        fused_linear!(
            weights,
            store,
            s,
            sa.wv,
            sa.bv,
            &s.normed[..b * d],
            b,
            &mut s.v[..b * d]
        );
        // Per-lane K/V append + attention. Lanes own disjoint caches, score
        // slabs, and ctx rows, so wide batches partition lanes across
        // threads exactly like `matmul` partitions output rows; each lane's
        // accumulation order is untouched, so logits stay bitwise identical
        // at any thread count.
        let cap = s.scores_cap;
        let lanes_per = rows_per_part(b, 2 * d * (max_pos + 1));
        let (q, k, v) = (&s.q[..b * d], &s.k[..b * d], &s.v[..b * d]);
        par::for_each(
            caches
                .chunks_mut(lanes_per)
                .zip(s.ctx[..b * d].chunks_mut(lanes_per * d))
                .zip(s.scores[..b * cap].chunks_mut(lanes_per * cap))
                .enumerate(),
            |(ci, ((cache_chunk, ctx_chunk), scores_chunk))| {
                for (j, cache) in cache_chunk.iter_mut().enumerate() {
                    let i = ci * lanes_per + j;
                    let DecoderCache { layers, pool, .. } = &mut **cache;
                    self_attend_append(
                        &mut layers[li].kv,
                        pool,
                        &q[i * d..(i + 1) * d],
                        &k[i * d..(i + 1) * d],
                        &v[i * d..(i + 1) * d],
                        scale,
                        &mut scores_chunk[j * cap..(j + 1) * cap],
                        &mut ctx_chunk[j * d..(j + 1) * d],
                    );
                }
            },
        );
        fused_linear!(
            weights,
            store,
            s,
            sa.wo,
            sa.bo,
            &s.ctx[..b * d],
            b,
            &mut s.proj[..b * d]
        );
        for (xv, &a) in s.x[..b * d].iter_mut().zip(&s.proj[..b * d]) {
            *xv += a;
        }

        // Cross-attention block over each lane's precomputed encoder K/V.
        let (g2, b2) = (store.value(layer.ln2.gamma), store.value(layer.ln2.beta));
        ln_rows_batch(b, d, &s.x, g2, b2, &mut s.normed);
        let ca = &layer.cross_attn;
        fused_linear!(
            weights,
            store,
            s,
            ca.wq,
            ca.bq,
            &s.normed[..b * d],
            b,
            &mut s.q[..b * d]
        );
        // Cross-attention reads per-lane encoder K/V (shared `Arc`s, never
        // mutated), so the same lane partitioning applies.
        let t_enc = caches[0].layers[li].cross_k[0].shape[0];
        let lanes_per = rows_per_part(b, 2 * d * t_enc);
        let q = &s.q[..b * d];
        par::for_each(
            caches
                .chunks(lanes_per)
                .zip(s.ctx[..b * d].chunks_mut(lanes_per * d))
                .zip(s.scores[..b * cap].chunks_mut(lanes_per * cap))
                .enumerate(),
            |(ci, ((cache_chunk, ctx_chunk), scores_chunk))| {
                for (j, cache) in cache_chunk.iter().enumerate() {
                    let i = ci * lanes_per + j;
                    let lc = &cache.layers[li];
                    attend(
                        &q[i * d..(i + 1) * d],
                        &lc.cross_k,
                        &lc.cross_v,
                        scale,
                        &mut scores_chunk[j * cap..(j + 1) * cap],
                        &mut ctx_chunk[j * d..(j + 1) * d],
                    );
                }
            },
        );
        fused_linear!(
            weights,
            store,
            s,
            ca.wo,
            ca.bo,
            &s.ctx[..b * d],
            b,
            &mut s.proj[..b * d]
        );
        for (xv, &c) in s.x[..b * d].iter_mut().zip(&s.proj[..b * d]) {
            *xv += c;
        }

        // Feed-forward block: both linears fused across lanes; GELU is
        // elementwise, so one pass covers the whole packed slab.
        let (g3, b3) = (store.value(layer.ln3.gamma), store.value(layer.ln3.beta));
        ln_rows_batch(b, d, &s.x, g3, b3, &mut s.normed);
        let dff = cfg.d_ff;
        fused_linear!(
            weights,
            store,
            s,
            layer.ff.w1,
            layer.ff.b1,
            &s.normed[..b * d],
            b,
            &mut s.ff[..b * dff]
        );
        gelu_row(&mut s.ff[..b * dff]);
        fused_linear!(
            weights,
            store,
            s,
            layer.ff.w2,
            layer.ff.b2,
            &s.ff[..b * dff],
            b,
            &mut s.proj[..b * d]
        );
        for (xv, &f) in s.x[..b * d].iter_mut().zip(&s.proj[..b * d]) {
            *xv += f;
        }
    }

    // Final LayerNorm + fused vocabulary projection.
    let (g, be) = (
        store.value(params.dec_ln.gamma),
        store.value(params.dec_ln.beta),
    );
    ln_rows_batch(b, d, &s.x, g, be, &mut s.normed);
    fused_linear!(
        weights,
        store,
        s,
        params.out_w,
        params.out_b,
        &s.normed[..b * d],
        b,
        logits
    );

    for cache in caches.iter_mut() {
        cache.len += 1;
    }
}

/// LayerNorm every `d`-wide row of `x` into `out` with [`ln_row_seq`].
fn ln_rows_seq(x: &[f32], d: usize, p: LnParams, store: &ParamStore, out: &mut [f32]) {
    let (gamma, beta) = (store.value(p.gamma), store.value(p.beta));
    for (row, o) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        ln_row_seq(row, gamma, beta, o);
    }
}

/// `x += y`, elementwise (a residual connection).
fn add_rows(x: &mut [f32], y: &[f32]) {
    for (xv, &yv) in x.iter_mut().zip(y) {
        *xv += yv;
    }
}

/// Query rows of one head that an [`EncoderRun`] attends together: their
/// attention weights form an `[ATTN_RB, T]` slab whose product with the
/// head's values streams each value row once per slab, not once per row.
const ATTN_RB: usize = 8;

/// Every row-wise intermediate of one contiguous block of encoder rows
/// (`[rows, d]`, `ff` `[rows, d_ff]`, `scores` the attention rows of up to
/// [`ATTN_RB`] queries, `ctx_head` their context in one head), allocated
/// once per run and reused by every layer. An [`EncoderRun`] gives each
/// thread one block, so threads share nothing they write.
struct EncoderRows {
    normed: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    ctx: Vec<f32>,
    proj: Vec<f32>,
    ff: Vec<f32>,
    scores: Vec<f32>,
    ctx_head: Vec<f32>,
}

impl EncoderRows {
    fn new(rows: usize, t: usize, cfg: &ModelConfig) -> EncoderRows {
        let slab = || vec![0.0f32; rows * cfg.d_model];
        EncoderRows {
            normed: slab(),
            q: slab(),
            k: slab(),
            v: slab(),
            ctx: slab(),
            proj: slab(),
            ff: vec![0.0; rows * cfg.d_ff],
            scores: vec![0.0; ATTN_RB * t],
            ctx_head: vec![0.0; ATTN_RB * cfg.d_head()],
        }
    }
}

/// Copy rows `row0..` of a `[_, h·dh]` projection into the head-major
/// `out[h][t][dh]`, where each head's `t` rows form the contiguous block
/// [`dot_rows`] and [`batch_matmul_slice`] walk.
fn scatter_heads(x: &[f32], row0: usize, t: usize, dh: usize, out: &mut [f32]) {
    let d = out.len() / t;
    for (i, row) in x.chunks_exact(d).enumerate() {
        for (head, cols) in row.chunks_exact(dh).enumerate() {
            let at = (head * t + row0 + i) * dh;
            out[at..at + dh].copy_from_slice(cols);
        }
    }
}

/// Run the encoder once over `src_ids` and return its output activations
/// (`[T, d_model]`) — the tape-free inference forward behind every decode
/// entry point: an [`EncoderRun`] stepped through every layer.
///
/// # Panics
///
/// If `src_ids` is empty, longer than `cfg.max_enc_len`, or holds an id
/// outside the embedding table — the guards of the tape path.
pub fn encode_source(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
) -> Tensor {
    let mut run = EncoderRun::new(store, params, cfg, src_ids);
    while !run.is_done() {
        run.step_layer();
    }
    run.finish()
}

/// Check encoder ids against the guards of the tape path: non-empty, at
/// most `cfg.max_enc_len`, every id inside the embedding table.
///
/// # Panics
///
/// If any guard fails.
pub(crate) fn check_encoder_ids(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
) {
    assert!(!src_ids.is_empty(), "encoder input must be non-empty");
    assert!(
        src_ids.len() <= cfg.max_enc_len,
        "encoder input {} exceeds max {}",
        src_ids.len(),
        cfg.max_enc_len
    );
    let vocab = store.matrix(params.tok_emb).shape().0;
    if let Some(id) = src_ids.iter().find(|&&id| id >= vocab) {
        panic!("embedding id {id} out of vocab {vocab}");
    }
}

/// One encoder forward that can pause after any layer: [`new`](Self::new)
/// embeds the ids, each [`step_layer`](Self::step_layer) runs one encoder
/// layer, and [`finish`](Self::finish) applies the final LayerNorm.
/// [`encode_source`] is exactly that sequence, so a run stepped across
/// any number of pauses returns the same bits; the scheduler uses the
/// pauses to interleave a Bulk request's forward with other work (see
/// [`BatchDecoder`](crate::batch::BatchDecoder)).
///
/// The `[T, d]` activation matrix moves through each projection in
/// register-blocked [`batch_linear_packed`] calls that stream the store's
/// packed weights in place (no per-request weight copy), attention runs per
/// head over head-major K/V, eight query rows at a time (their context is one
/// register-blocked product of the weight slab and the head's values), and
/// every intermediate lives in scratch the run allocates once and reuses
/// across layers. Above a work threshold the rows are split into one
/// contiguous block per core: every stage but attention's read of all keys
/// and values is row-wise, so the blocks meet only where K/V are gathered,
/// twice per layer.
///
/// # Equivalence
///
/// The result is **bitwise identical** to [`transformer::encode`] in
/// inference mode, which stays the training path and the independent oracle
/// (`tests/encoder_props.rs`): every kernel accumulates in ascending `k` from
/// `+0.0` with the bias added last (the context kernel adds the zero weights
/// the tape's `matmul` skips, which leaves finite sums bitwise unchanged),
/// attention scores are the same `dot` products, softmax is the same
/// expression, GELU is the same function ([`gelu`], vectorised here by
/// `gelu_row`), and LayerNorm sums sequentially (`ln_row_seq`) like the tape
/// op. No row's arithmetic depends on which block it falls in, so the
/// thread count moves latency only.
///
/// [`transformer::encode`]: crate::transformer::encode
pub struct EncoderRun<'m> {
    store: &'m ParamStore,
    params: &'m TransformerParams,
    cfg: &'m ModelConfig,
    /// The `[T, d]` activation rows.
    x: Vec<f32>,
    /// Rows per block; the last block may be shorter.
    block_rows: usize,
    blocks: Vec<EncoderRows>,
    /// Head-major K/V gathered from every block, `[h][T][d_head]`.
    keys: Vec<f32>,
    values: Vec<f32>,
    /// Layers run so far.
    layers_done: usize,
}

impl<'m> EncoderRun<'m> {
    /// Embed `src_ids` (embedding rows read in place, scaled, plus the
    /// sinusoidal position row) and allocate the run's scratch. No layer
    /// runs yet.
    ///
    /// # Panics
    ///
    /// As [`encode_source`].
    pub fn new(
        store: &'m ParamStore,
        params: &'m TransformerParams,
        cfg: &'m ModelConfig,
        src_ids: &[usize],
    ) -> EncoderRun<'m> {
        check_encoder_ids(store, params, cfg, src_ids);
        let (t, d, dff) = (src_ids.len(), cfg.d_model, cfg.d_ff);
        let emb = store.matrix(params.tok_emb);
        let emb_scale = (d as f32).sqrt();
        let positions = positional_encoding(t, d);
        let mut x = vec![0.0f32; t * d];
        for ((&id, row), pos_row) in src_ids
            .iter()
            .zip(x.chunks_exact_mut(d))
            .zip(positions.data.chunks_exact(d))
        {
            emb.gather_row(id, row);
            for (o, &p) in row.iter_mut().zip(pos_row) {
                *o = *o * emb_scale + p;
            }
        }
        // One block of rows per thread; a row costs about this many
        // multiply-adds per layer (four d×d projections, two d×d_ff,
        // scores and context).
        let block_rows = rows_per_part(t, 4 * d * d + 2 * d * dff + 2 * t * d);
        let blocks = x
            .chunks(block_rows * d)
            .map(|rows| EncoderRows::new(rows.len() / d, t, cfg))
            .collect();
        EncoderRun {
            store,
            params,
            cfg,
            x,
            block_rows,
            blocks,
            keys: vec![0.0; t * d],
            values: vec![0.0; t * d],
            layers_done: 0,
        }
    }

    /// Whether every encoder layer has run.
    pub fn is_done(&self) -> bool {
        self.layers_done == self.params.enc_layers.len()
    }

    /// Run the next encoder layer.
    ///
    /// # Panics
    ///
    /// If every layer has already run.
    pub fn step_layer(&mut self) {
        assert!(!self.is_done(), "every encoder layer has run");
        let layer = &self.params.enc_layers[self.layers_done];
        let store = self.store;
        let d = self.cfg.d_model;
        let dh = self.cfg.d_head();
        let t = self.x.len() / d;
        let scale = 1.0 / (dh as f32).sqrt();
        let block = self.block_rows * d;
        // Self-attention block (pre-LN residual): project this block's rows…
        let a = &layer.attn;
        par::for_each(self.x.chunks_mut(block).zip(&mut self.blocks), |(x, s)| {
            let rows = x.len() / d;
            ln_rows_seq(x, d, layer.ln1, store, &mut s.normed);
            batch_linear_packed(
                &s.normed,
                rows,
                store.matrix(a.wq),
                store.value(a.bq),
                &mut s.q,
            );
            batch_linear_packed(
                &s.normed,
                rows,
                store.matrix(a.wk),
                store.value(a.bk),
                &mut s.k,
            );
            batch_linear_packed(
                &s.normed,
                rows,
                store.matrix(a.wv),
                store.value(a.bv),
                &mut s.v,
            );
        });
        for (i, s) in self.blocks.iter().enumerate() {
            scatter_heads(&s.k, i * self.block_rows, t, dh, &mut self.keys);
            scatter_heads(&s.v, i * self.block_rows, t, dh, &mut self.values);
        }
        // …then attend bidirectionally, every query row over all `t` keys,
        // and finish the layer row-wise.
        let f = &layer.ff;
        let (all_keys, all_values) = (&self.keys, &self.values);
        par::for_each(self.x.chunks_mut(block).zip(&mut self.blocks), |(x, s)| {
            let rows = x.len() / d;
            for head in 0..d / dh {
                let head_rows = head * t * dh..(head + 1) * t * dh;
                let (keys, values) = (&all_keys[head_rows.clone()], &all_values[head_rows]);
                for i0 in (0..rows).step_by(ATTN_RB) {
                    let rb = ATTN_RB.min(rows - i0);
                    let scores = &mut s.scores[..rb * t];
                    for (r, sc) in scores.chunks_exact_mut(t).enumerate() {
                        let q = (i0 + r) * d + head * dh;
                        dot_rows(&s.q[q..q + dh], keys, sc);
                        for v in sc.iter_mut() {
                            *v *= scale;
                        }
                        softmax_row(sc);
                    }
                    let ctx_head = &mut s.ctx_head[..rb * dh];
                    batch_matmul_slice(scores, rb, values, dh, ctx_head);
                    for (r, c) in ctx_head.chunks_exact(dh).enumerate() {
                        let at = (i0 + r) * d + head * dh;
                        s.ctx[at..at + dh].copy_from_slice(c);
                    }
                }
            }
            batch_linear_packed(
                &s.ctx,
                rows,
                store.matrix(a.wo),
                store.value(a.bo),
                &mut s.proj,
            );
            add_rows(x, &s.proj);

            // Feed-forward block.
            ln_rows_seq(x, d, layer.ln2, store, &mut s.normed);
            batch_linear_packed(
                &s.normed,
                rows,
                store.matrix(f.w1),
                store.value(f.b1),
                &mut s.ff,
            );
            gelu_row(&mut s.ff);
            batch_linear_packed(
                &s.ff,
                rows,
                store.matrix(f.w2),
                store.value(f.b2),
                &mut s.proj,
            );
            add_rows(x, &s.proj);
        });
        self.layers_done += 1;
    }

    /// The encoder output `[T, d_model]`: the final LayerNorm over the
    /// activation rows.
    ///
    /// # Panics
    ///
    /// If a layer has not run yet.
    pub fn finish(self) -> Tensor {
        assert!(self.is_done(), "finish before the last encoder layer");
        let d = self.cfg.d_model;
        let mut out = vec![0.0f32; self.x.len()];
        ln_rows_seq(&self.x, d, self.params.enc_ln, self.store, &mut out);
        Tensor::from_vec(&[self.x.len() / d, d], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::{build_params, encode, ForwardMode};
    use mpirical_tensor::Tape;

    struct Fixture {
        cfg: ModelConfig,
        store: ParamStore,
        params: TransformerParams,
        enc_out: Tensor,
    }

    fn setup() -> Fixture {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        cfg.n_dec_layers = 2; // exercise multi-layer cache plumbing
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 3);
        let mut tape = Tape::new();
        let enc = encode(
            &mut tape,
            &store,
            &params,
            &cfg,
            &[1, 7, 9, 2],
            ForwardMode::inference(),
        );
        let enc_out = tape.value(enc).clone();
        Fixture {
            cfg,
            store,
            params,
            enc_out,
        }
    }

    impl Fixture {
        fn cache(&self) -> DecoderCache {
            DecoderCache::new(&self.store, &self.params, &self.cfg, &self.enc_out)
        }

        fn cache_in(&self, pool: &PagePool) -> DecoderCache {
            DecoderCache::new_in_pool(&self.store, &self.params, &self.cfg, &self.enc_out, pool)
        }

        /// A pool whose single page holds a whole generation: one
        /// contiguous slab per head.
        fn one_page_pool(&self) -> PagePool {
            PagePool::with_page_rows(self.cfg.d_head(), self.cfg.max_dec_len)
        }

        fn weights(&self, precision: Precision) -> DecoderWeights {
            DecoderWeights::for_precision(&self.store, &self.params, precision)
        }

        /// Feed `token` to `cache` alone: the one lane of a step.
        fn step(&self, w: &DecoderWeights, cache: &mut DecoderCache, token: usize) -> Vec<f32> {
            let mut logits = vec![0.0; self.cfg.vocab_size];
            decode_step_batch(
                &self.store,
                &self.params,
                &self.cfg,
                w,
                &mut [cache],
                &[token],
                &mut BatchScratch::new(&self.cfg, 1),
                &mut logits,
            );
            logits
        }
    }

    #[test]
    fn cache_starts_empty_and_counts_steps() {
        let f = setup();
        let w = f.weights(Precision::F32);
        let mut cache = f.cache();
        assert!(cache.is_empty());
        f.step(&w, &mut cache, 1);
        f.step(&w, &mut cache, 5);
        assert_eq!(cache.len(), 2);
        for layer in &cache.layers {
            for head in layer.kv.k.iter().chain(&layer.kv.v) {
                assert_eq!(head.len(), 2);
            }
        }
    }

    /// Page size is invisible to the logits: every page size reproduces a
    /// one-page pool (the contiguous slab) **bitwise** at every step,
    /// across page boundaries, in both precisions.
    fn assert_page_size_invisible(precision: Precision, steps: usize) {
        let f = setup();
        let w = f.weights(precision);
        for page_rows in [1usize, 3, 16] {
            let pool = PagePool::with_page_rows(f.cfg.d_head(), page_rows);
            let mut paged = f.cache_in(&pool);
            let mut slab = f.cache_in(&f.one_page_pool());
            for step in 0..steps {
                let tok = 1 + (step * 5) % 23;
                let lp = f.step(&w, &mut paged, tok);
                let lr = f.step(&w, &mut slab, tok);
                assert_eq!(lp, lr, "{precision:?} page_rows={page_rows} step={step}");
            }
            drop(paged);
            assert_eq!(pool.stats().pages_live, 0, "pages returned on drop");
        }
    }

    #[test]
    fn paged_logits_are_bitwise_contiguous() {
        assert_page_size_invisible(Precision::F32, 20);
    }

    #[test]
    fn quant_paged_logits_are_bitwise_contiguous() {
        assert_page_size_invisible(Precision::Int8, 12);
    }

    /// Forks share pages COW: the clone is cheap, both sides stay
    /// bitwise-correct after diverging, and dropping everything frees
    /// every page.
    #[test]
    fn forked_paged_caches_stay_bitwise_and_leak_nothing() {
        let f = setup();
        let w = f.weights(Precision::F32);
        let mut paged = f.cache();
        let mut slab = f.cache_in(&f.one_page_pool());
        for tok in [1usize, 9, 4] {
            f.step(&w, &mut paged, tok);
            f.step(&w, &mut slab, tok);
        }
        let pool = paged.pool().clone();
        let live_before = pool.stats().pages_live;
        let mut fork = paged.clone();
        assert_eq!(
            pool.stats().pages_live,
            live_before,
            "fork allocates no pages"
        );
        let mut slab_fork = slab.clone();
        // Diverge: different tokens down each branch.
        for (tok_a, tok_b) in [(6usize, 7usize), (2, 3)] {
            assert_eq!(f.step(&w, &mut paged, tok_a), f.step(&w, &mut slab, tok_a));
            assert_eq!(
                f.step(&w, &mut fork, tok_b),
                f.step(&w, &mut slab_fork, tok_b)
            );
        }
        assert!(pool.stats().cow_copies > 0, "divergence forced COW");
        drop(paged);
        drop(fork);
        assert_eq!(pool.stats().pages_live, 0);
    }

    /// The memory claim behind paged storage: at a 64-token output the
    /// cache holds ≥2× (here ~3.5×) fewer bytes per lane than reserving
    /// `max_dec_len` rows per head up front would.
    #[test]
    fn paged_cache_uses_at_most_half_the_contiguous_reservation() {
        let mut f = setup();
        f.cfg.max_dec_len = 240;
        let w = f.weights(Precision::F32);
        let mut cache = f.cache();
        for step in 0..64usize {
            f.step(&w, &mut cache, 1 + step % 23);
        }
        let cfg = &f.cfg;
        let peak = cache.pool().stats().peak_bytes();
        let reservation = 2 // K and V
            * cfg.n_dec_layers
            * cfg.n_heads
            * cfg.max_dec_len
            * cfg.d_head()
            * std::mem::size_of::<f32>();
        assert!(
            peak * 2 <= reservation,
            "paged peak {peak}B vs max_dec_len reservation {reservation}B"
        );
    }

    /// The admission-time cross-K/V projection splits its rows into one
    /// block per core above the work threshold, the encoder's rule: at the
    /// top level (two blocks on a 2-core host) and inside a section (one
    /// thread) it is bitwise one `batch_linear_packed` over every row, head
    /// by head.
    #[test]
    fn cross_kv_projection_is_bitwise_at_any_thread_count() {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        (cfg.d_model, cfg.n_heads, cfg.d_ff) = (64, 4, 64);
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 9);
        let ids: Vec<usize> = (0..37).map(|i| 3 + i % 20).collect();
        let enc_out = encode_source(&store, &params, &cfg, &ids);
        let (t, d, dh) = (ids.len(), cfg.d_model, cfg.d_head());
        let ca = &params.dec_layers[0].cross_attn;
        let (w, b) = (store.matrix(ca.wk), store.value(ca.bk));
        let mut full = vec![0.0f32; t * d];
        batch_linear_packed(&enc_out.data, t, w, b, &mut full);
        let project = || project_per_head(&enc_out, w, b, cfg.n_heads, dh);
        let check = |heads: Vec<Tensor>| {
            for (h, head) in heads.iter().enumerate() {
                let want: Vec<u32> = full
                    .chunks_exact(d)
                    .flat_map(|row| row[h * dh..(h + 1) * dh].iter().map(|v| v.to_bits()))
                    .collect();
                let got: Vec<u32> = head.data.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "head {h}");
            }
        };
        check(project());
        par::for_each(0..2, |_| check(project()));
    }

    #[test]
    fn cross_kv_shapes_match_encoder_length() {
        let f = setup();
        let cache = f.cache();
        for layer in &cache.layers {
            assert_eq!(layer.cross_k.len(), f.cfg.n_heads);
            for head in layer.cross_k.iter() {
                assert_eq!(head.shape, vec![f.enc_out.shape[0], f.cfg.d_head()]);
            }
        }
    }

    #[test]
    fn logits_are_finite_and_vocab_sized() {
        let f = setup();
        let logits = f.step(&f.weights(Precision::F32), &mut f.cache(), 1);
        assert_eq!(logits.len(), f.cfg.vocab_size);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cloned_caches_diverge_independently() {
        let f = setup();
        let w = f.weights(Precision::F32);
        let mut a = f.cache();
        f.step(&w, &mut a, 1);
        let mut b = a.clone();
        let la = f.step(&w, &mut a, 6);
        let lb = f.step(&w, &mut b, 7);
        assert_ne!(la, lb, "different tokens give different logits");
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }

    /// Lane *i* of a 3-lane step is bitwise the same cache stepped alone,
    /// with the lanes at different positions.
    fn assert_lanes_independent(precision: Precision, steps: usize) {
        let f = setup();
        let w = f.weights(precision);
        let mut alone: Vec<DecoderCache> = (0..3).map(|_| f.cache()).collect();
        let mut batched: Vec<DecoderCache> = (0..3).map(|_| f.cache()).collect();
        // Desynchronize lane 2 by one step on both sides.
        f.step(&w, &mut alone[2], 3);
        f.step(&w, &mut batched[2], 3);

        let mut scratch = BatchScratch::new(&f.cfg, 3);
        let mut logits = vec![0.0f32; 3 * f.cfg.vocab_size];
        for step in 0..steps {
            let tokens = [1 + step, 7, 5 + step];
            let expected: Vec<Vec<f32>> = alone
                .iter_mut()
                .zip(tokens)
                .map(|(c, t)| f.step(&w, c, t))
                .collect();
            let mut lanes: Vec<&mut DecoderCache> = batched.iter_mut().collect();
            decode_step_batch(
                &f.store,
                &f.params,
                &f.cfg,
                &w,
                &mut lanes,
                &tokens,
                &mut scratch,
                &mut logits,
            );
            for (i, want) in expected.iter().enumerate() {
                let got = &logits[i * f.cfg.vocab_size..(i + 1) * f.cfg.vocab_size];
                assert_eq!(got, &want[..], "{precision:?} lane {i} step {step}");
            }
        }
        for (a, b) in alone.iter().zip(&batched) {
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn batched_step_is_bitwise_single_step() {
        assert_lanes_independent(Precision::F32, 3);
    }

    #[test]
    fn quant_batched_step_is_bitwise_quant_single_step() {
        assert_lanes_independent(Precision::Int8, 4);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn batched_step_guards_scratch_capacity() {
        let f = setup();
        let (mut a, mut b) = (f.cache(), f.cache());
        let mut logits = vec![0.0f32; 2 * f.cfg.vocab_size];
        decode_step_batch(
            &f.store,
            &f.params,
            &f.cfg,
            &f.weights(Precision::F32),
            &mut [&mut a, &mut b],
            &[1, 2],
            &mut BatchScratch::new(&f.cfg, 1),
            &mut logits,
        );
    }

    /// Quantized logits are close to — but (being quantized) not bitwise
    /// equal to — the f32 logits; a silent fall-through to the f32 kernels
    /// would make them identical, which this test rejects.
    #[test]
    fn quant_logits_differ_from_f32_but_stay_close() {
        let f = setup();
        let qw = QuantDecoderWeights::new(&f.store, &f.params);
        assert_eq!(qw.out_scales().len(), f.cfg.vocab_size);
        let (wf, wq) = (f.weights(Precision::F32), DecoderWeights::Int8(qw));
        let (mut f32_cache, mut q_cache) = (f.cache(), f.cache());
        let mut any_diff = false;
        for tok in [1usize, 8, 3, 15] {
            let lf = f.step(&wf, &mut f32_cache, tok);
            let lq = f.step(&wq, &mut q_cache, tok);
            any_diff |= lf != lq;
            for (i, (a, b)) in lf.iter().zip(&lq).enumerate() {
                assert!(
                    (a - b).abs() < 0.2,
                    "logit {i}: f32 {a} vs int8 {b} drifted too far"
                );
            }
        }
        assert!(any_diff, "int8 path must actually run quantized kernels");
    }

    /// Regression (satellite fix): zero-lane scratch is rejected at
    /// construction with a message naming the problem.
    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_scratch_is_rejected_with_clear_error() {
        BatchScratch::new(&setup().cfg, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn step_guard_at_max_len() {
        let f = setup();
        let w = f.weights(Precision::F32);
        let mut cache = f.cache();
        for _ in 0..=f.cfg.max_dec_len {
            f.step(&w, &mut cache, 1);
        }
    }
}
