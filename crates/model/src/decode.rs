//! Inference-time decoding: greedy and beam search over the KV-cached
//! incremental engine.
//!
//! The encoder runs once per input. Generation then feeds **one token per
//! step** through [`decode_step`], which attends
//! over a
//! [`DecoderCache`] of per-layer self-attention K/V plus cross-attention
//! K/V projected once from the encoder output — O(T·L) attention work per
//! token. Beam search forks hypotheses by cloning the cache — with the
//! paged storage a clone shares every K/V page copy-on-write, so a fork
//! costs refcount bumps, not row copies — and selects top-k next tokens
//! with `select_nth_unstable_by`, O(V) instead of a full-vocabulary sort.
//!
//! [`greedy_decode_replay`] / [`beam_decode_replay`] keep the original
//! cache-free path — replaying the whole decoder prefix on a fresh tape
//! every step, O(T²·L) — as the reference implementation: the equivalence
//! tests below pin the cached engine's logits to it step by step, and the
//! `decode` criterion bench group measures the speedup against it.
//!
//! For serving N concurrent generations, see
//! [`BatchDecoder`](crate::batch::BatchDecoder), which runs this module's
//! greedy semantics over many requests in lockstep.
//!
//! # Example
//!
//! ```
//! use mpirical_model::transformer::build_params;
//! use mpirical_model::{decode_with, greedy_decode, DecodeOptions, ModelConfig};
//! use mpirical_tensor::ParamStore;
//!
//! let mut cfg = ModelConfig::tiny();
//! cfg.vocab_size = 16;
//! let mut store = ParamStore::new();
//! let params = build_params(&cfg, &mut store, 3);
//! let src = [1, 6, 7, 2]; // <sos> … <eos>
//!
//! // `beam: 1` decodes exactly the greedy tokens; `min_len` can force
//! // longer outputs by suppressing `<eos>`.
//! let greedy = greedy_decode(&store, &params, &cfg, &src, 12);
//! let opts = DecodeOptions { beam: 1, min_len: 0, ..Default::default() };
//! assert_eq!(decode_with(&store, &params, &cfg, &src, 12, opts), greedy);
//! ```

use crate::config::ModelConfig;
pub use crate::infer::encode_source;
use crate::infer::{decode_step, decode_step_quant, DecoderCache, Precision, QuantDecoderWeights};
use crate::transformer::{decode as dec_forward, ForwardMode, TransformerParams};
use crate::vocab::{EOS, SOS};
use mpirical_tensor::{ParamStore, Tape, Tensor};
use serde::{Deserialize, Serialize};

/// Generation knobs shared by the greedy and beam paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeOptions {
    /// Beam width; `1` is greedy. Must be ≥ 1 — [`validate`](Self::validate)
    /// and every decode entry point reject 0 with a descriptive error.
    pub beam: usize,
    /// Suppress `<eos>` until at least this many tokens are generated
    /// (benchmarks use it to force fixed-length outputs).
    pub min_len: usize,
    /// Projection-kernel precision: full f32, or per-channel int8
    /// quantized weights ([`Precision::Int8`] — ~4× less weight traffic on
    /// the memory-bound decode step; accuracy contract enforced by
    /// `tests/quant_accuracy.rs`). Defaults on deserialize so artifacts
    /// saved before this field existed still load as f32.
    #[serde(default)]
    pub precision: Precision,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            beam: 1,
            min_len: 0,
            precision: Precision::F32,
        }
    }
}

impl DecodeOptions {
    /// Check internal consistency: the one invalid configuration is a zero
    /// beam width (there is no such thing as a 0-hypothesis search).
    /// Artifact loading and service construction call this so a bad config
    /// fails loudly at the boundary instead of deep inside a decode loop.
    pub fn validate(&self) -> Result<(), String> {
        if self.beam == 0 {
            return Err("beam width must be at least 1 (got 0); use beam = 1 for greedy".into());
        }
        Ok(())
    }
}

/// Greedy decoding: returns generated ids *without* the leading `<sos>` or
/// trailing `<eos>`.
pub fn greedy_decode(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
    max_len: usize,
) -> Vec<usize> {
    decode_with(
        store,
        params,
        cfg,
        src_ids,
        max_len,
        DecodeOptions::default(),
    )
}

/// Beam-search decoding with length-normalized scoring. `beam = 1` is
/// equivalent to greedy. Returns the best hypothesis without `<sos>`/`<eos>`.
pub fn beam_decode(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
    max_len: usize,
    beam: usize,
) -> Vec<usize> {
    decode_with(
        store,
        params,
        cfg,
        src_ids,
        max_len,
        DecodeOptions {
            beam,
            min_len: 0,
            ..Default::default()
        },
    )
}

/// KV-cached generation with explicit options: runs the encoder once, then
/// decodes via [`decode_encoded`].
pub fn decode_with(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    let enc_out = encode_source(store, params, cfg, src_ids);
    decode_encoded(store, params, cfg, &enc_out, max_len, opts)
}

/// KV-cached generation over an already-computed encoder output
/// (`[T_enc, d_model]`). This is the decode-only half of [`decode_with`]:
/// callers that manage encoder outputs themselves — the batched scheduler,
/// decode-only benchmarks, anything re-decoding the same source with
/// different options — use it to skip the encoder pass.
pub fn decode_encoded(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    enc_out: &Tensor,
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    decode_encoded_prompted(store, params, cfg, enc_out, &[SOS], max_len, opts)
}

/// [`decode_encoded`] generalized to an arbitrary forced decoder prefix:
/// `prompt` is fed token-by-token (prefill), then greedy or beam generation
/// continues from it; the returned ids exclude the prompt. With
/// `prompt == [<sos>]` this is exactly [`decode_encoded`]. `max_len` counts
/// the prompt (a prompt at or past the cap generates nothing), `min_len`
/// counts generated tokens only.
///
/// This is the single-request reference semantics for every
/// [`BatchDecoder`](crate::batch::BatchDecoder) request — the scheduler's
/// equivalence tests and the property harness pin batched outputs to it.
pub fn decode_encoded_prompted(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    enc_out: &Tensor,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    decode_prompted_impl(store, params, cfg, prompt, max_len, opts, None, || {
        DecoderCache::new(store, params, cfg, enc_out)
    })
}

/// [`decode_encoded_prompted`] running the **int8 quantized** projection
/// kernels against pre-quantized weights. Long-lived callers (the
/// assistant artifact, the service layer, benchmarks) quantize once via
/// [`QuantDecoderWeights::new`] and decode any number of requests through
/// this entry point; one-shot callers can instead set
/// [`DecodeOptions::precision`] to [`Precision::Int8`] on any decode entry
/// point and the weights are quantized per call.
#[allow(clippy::too_many_arguments)]
pub fn decode_encoded_prompted_quant(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    qw: &QuantDecoderWeights,
    enc_out: &Tensor,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    let opts = DecodeOptions {
        precision: Precision::Int8,
        ..opts
    };
    decode_prompted_impl(store, params, cfg, prompt, max_len, opts, Some(qw), || {
        DecoderCache::new(store, params, cfg, enc_out)
    })
}

/// [`decode_encoded_prompted`], but returning **every** final hypothesis'
/// generated ids, best-first by length-normalized score. Greedy decoding
/// (`beam == 1`) yields exactly one hypothesis; beam search yields the full
/// final beam (up to `opts.beam` entries). The first entry is always
/// bitwise-identical to what [`decode_encoded_prompted`] returns — the
/// closed-loop verifier relies on this to re-rank candidates without
/// perturbing the unverified output.
#[allow(clippy::too_many_arguments)]
pub fn decode_encoded_prompted_all(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    enc_out: &Tensor,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<Vec<usize>> {
    decode_prompted_all_impl(store, params, cfg, prompt, max_len, opts, None, || {
        DecoderCache::new(store, params, cfg, enc_out)
    })
}

/// [`decode_encoded_prompted_all`] running the int8 quantized projection
/// kernels against pre-quantized weights (see
/// [`decode_encoded_prompted_quant`]).
#[allow(clippy::too_many_arguments)]
pub fn decode_encoded_prompted_all_quant(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    qw: &QuantDecoderWeights,
    enc_out: &Tensor,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<Vec<usize>> {
    let opts = DecodeOptions {
        precision: Precision::Int8,
        ..opts
    };
    decode_prompted_all_impl(store, params, cfg, prompt, max_len, opts, Some(qw), || {
        DecoderCache::new(store, params, cfg, enc_out)
    })
}

/// [`decode_encoded_prompted`] on the **contiguous** reference cache layout
/// ([`DecoderCache::new_contiguous`]). Exists for the property-test harness
/// and benchmarks, which pin the paged engine's outputs (and, step by step,
/// its logits) to this path bitwise.
pub fn decode_encoded_prompted_contiguous(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    enc_out: &Tensor,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    decode_prompted_impl(store, params, cfg, prompt, max_len, opts, None, || {
        DecoderCache::new_contiguous(store, params, cfg, enc_out)
    })
}

/// One decode step at the options' precision: f32 [`decode_step`] or
/// quantized [`decode_step_quant`]. The single dispatch point for the
/// whole single-request engine (prefill, greedy, beam), so the two
/// precisions can only differ inside the projection kernels.
fn step_at(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    qw: Option<&QuantDecoderWeights>,
    cache: &mut DecoderCache,
    token: usize,
) -> Vec<f32> {
    match qw {
        None => decode_step(store, params, cfg, cache, token),
        Some(q) => decode_step_quant(store, params, cfg, q, cache, token),
    }
}

/// Shared prompted-generation driver, parameterized over the cache layout
/// and projection precision (one code path ⇒ paged and contiguous, f32 and
/// int8, can only differ inside `decode_step`'s kernels, which the
/// storage-equivalence and quant-accuracy tests cover).
#[allow(clippy::too_many_arguments)]
fn decode_prompted_impl(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
    qw: Option<&QuantDecoderWeights>,
    new_cache: impl Fn() -> DecoderCache,
) -> Vec<usize> {
    decode_prompted_all_impl(store, params, cfg, prompt, max_len, opts, qw, new_cache)
        .into_iter()
        .next()
        .unwrap_or_default()
}

/// [`decode_prompted_impl`], but returning *every* hypothesis' generated
/// ids best-first instead of only the winner. Greedy decoding yields a
/// single hypothesis; beam search yields the final ranked beam. `ranked[0]`
/// is always bitwise-identical to what [`decode_prompted_impl`] returns.
#[allow(clippy::too_many_arguments)]
fn decode_prompted_all_impl(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
    qw: Option<&QuantDecoderWeights>,
    new_cache: impl Fn() -> DecoderCache,
) -> Vec<Vec<usize>> {
    assert!(
        opts.beam >= 1,
        "beam width must be at least 1 (got 0); use beam = 1 for greedy"
    );
    assert!(!prompt.is_empty(), "prompt must hold at least <sos>");
    // Quantize on the fly when the options ask for int8 and the caller did
    // not hand over prebuilt weights (one pass over the decoder weights —
    // long-lived callers use `decode_encoded_prompted_quant` to avoid it).
    let built;
    let qw = match (opts.precision, qw) {
        (Precision::F32, _) => None,
        (Precision::Int8, Some(q)) => Some(q),
        (Precision::Int8, None) => {
            built = QuantDecoderWeights::new(store, params);
            Some(&built)
        }
    };
    let limit = max_len.min(cfg.max_dec_len);
    if prompt.len() >= limit {
        return vec![Vec::new()];
    }
    let mut cache = new_cache();
    for &tok in &prompt[..prompt.len() - 1] {
        step_at(store, params, cfg, qw, &mut cache, tok);
    }
    if opts.beam == 1 {
        vec![greedy_cached(
            store,
            params,
            cfg,
            qw,
            cache,
            prompt,
            limit,
            opts.min_len,
        )]
    } else {
        beam_cached(store, params, cfg, qw, cache, prompt, limit, opts)
    }
}

/// Argmax of a logits row, optionally banning `<eos>`. Shared with the
/// batched scheduler so lockstep token selection is identical to greedy.
pub(crate) fn argmax_token(logits: &[f32], ban_eos: bool) -> usize {
    let mut best = usize::MAX;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in logits.iter().enumerate() {
        if ban_eos && i == EOS {
            continue;
        }
        if v > best_v || best == usize::MAX {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Indices of the `k` largest entries of `row`, best first — O(V) selection
/// plus an O(k log k) sort of the survivors.
fn top_k_indices(row: &[f32], k: usize, ban_eos: bool) -> Vec<usize> {
    let desc = |&a: &usize, &b: &usize| {
        row[b]
            .partial_cmp(&row[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let mut idx: Vec<usize> = (0..row.len()).filter(|&i| !(ban_eos && i == EOS)).collect();
    let k = k.min(idx.len());
    if k == 0 {
        return idx;
    }
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, desc);
        idx.truncate(k);
    }
    idx.sort_by(desc);
    idx
}

#[allow(clippy::too_many_arguments)]
fn greedy_cached(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    qw: Option<&QuantDecoderWeights>,
    mut cache: DecoderCache,
    prompt: &[usize],
    limit: usize,
    min_len: usize,
) -> Vec<usize> {
    let mut ids = prompt.to_vec();
    while ids.len() < limit {
        let logits = step_at(store, params, cfg, qw, &mut cache, *ids.last().unwrap());
        let ban_eos = ids.len() - prompt.len() < min_len;
        let tok = argmax_token(&logits, ban_eos);
        if tok == EOS {
            break;
        }
        ids.push(tok);
    }
    ids.split_off(prompt.len())
}

/// A beam-search hypothesis carrying its own decoder cache.
///
/// `pub(crate)` because the batched scheduler
/// ([`BatchDecoder`](crate::batch::BatchDecoder)) runs the *same* beam
/// semantics over lockstep-stepped hypotheses — sharing this type and
/// [`expand_beams`] is what guarantees batched beam output is identical to
/// the single-request path.
pub(crate) struct Hypothesis {
    pub(crate) ids: Vec<usize>,
    pub(crate) log_prob: f32,
    pub(crate) done: bool,
    /// Cache state covering `ids[..len-1]`; the newest id is fed on the
    /// next expansion (`None` once done — a finished cache is dead weight).
    pub(crate) cache: Option<DecoderCache>,
}

impl Hypothesis {
    /// The root hypothesis: a prompt and its prefilled cache (covering
    /// `prompt[..len-1]`).
    pub(crate) fn root(prompt: &[usize], cache: DecoderCache) -> Hypothesis {
        Hypothesis {
            ids: prompt.to_vec(),
            log_prob: 0.0,
            done: false,
            cache: Some(cache),
        }
    }

    /// Length-normalized log-prob; shared with the batched scheduler's
    /// partial-output polls (the "current best hypothesis" of a beam
    /// request uses the same ranking as final selection).
    pub(crate) fn score(&self) -> f32 {
        self.log_prob / self.ids.len() as f32
    }
}

/// One beam-search expansion: given each hypothesis' freshly-stepped
/// next-token logits (`None` for finished hypotheses, whose candidates
/// carry forward unchanged), score `beam` continuations per live
/// hypothesis, keep the global best `beam` by length-normalized log-prob,
/// and hand out parent caches survivor-first (the last surviving child
/// *moves* the stepped cache, earlier ones clone it — with paged storage a
/// clone is a COW fork, so an expansion never copies K/V rows).
///
/// Shared by [`beam_cached`] (which steps hypotheses one at a time) and the
/// batched scheduler (which steps all live hypotheses of all requests in
/// lockstep): identical candidate ordering, tie-breaking, and cache
/// handoff by construction.
pub(crate) fn expand_beams(
    beams: Vec<Hypothesis>,
    rows: &[Option<&[f32]>],
    beam: usize,
    min_len: usize,
    prompt_len: usize,
) -> Vec<Hypothesis> {
    assert_eq!(rows.len(), beams.len(), "one logits row per hypothesis");

    // A proposed expansion, scored before any cache is copied: caches are
    // moved/cloned only for the `beam` candidates that survive truncation
    // (at most `beam - 1` clones per step, and clones share K/V pages
    // copy-on-write plus the immutable cross-attention K/V).
    struct Candidate {
        parent: usize,
        /// Token to append (`None` for finished hypotheses).
        token: Option<usize>,
        log_prob: f32,
        len: usize,
        done: bool,
    }
    impl Candidate {
        fn score(&self) -> f32 {
            self.log_prob / self.len as f32
        }
    }

    let mut beams = beams;
    let mut candidates: Vec<Candidate> = Vec::new();
    for (parent, (h, row)) in beams.iter().zip(rows).enumerate() {
        let Some(logits) = row else {
            candidates.push(Candidate {
                parent,
                token: None,
                log_prob: h.log_prob,
                len: h.ids.len(),
                done: true,
            });
            continue;
        };
        // Log-softmax normalizer of the row.
        let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let z: f32 = logits.iter().map(|x| (x - m).exp()).sum();
        let log_z = m + z.ln();
        let ban_eos = h.ids.len() - prompt_len < min_len;
        for &tok in &top_k_indices(logits, beam, ban_eos) {
            let done = tok == EOS;
            candidates.push(Candidate {
                parent,
                token: (!done).then_some(tok),
                log_prob: h.log_prob + (logits[tok] - log_z),
                len: h.ids.len() + usize::from(!done),
                done,
            });
        }
    }
    // Keep the best `beam` by length-normalized log-prob.
    candidates.sort_by(|a, b| {
        b.score()
            .partial_cmp(&a.score())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    candidates.truncate(beam);

    // Hand out parent caches: the last surviving child of a parent moves
    // the stepped cache, earlier ones clone (COW-fork) it.
    let mut live_children = vec![0usize; beams.len()];
    for c in candidates.iter().filter(|c| !c.done) {
        live_children[c.parent] += 1;
    }
    let mut parent_caches: Vec<Option<DecoderCache>> =
        beams.iter_mut().map(|h| h.cache.take()).collect();
    let mut next = Vec::with_capacity(candidates.len());
    for c in candidates {
        let mut ids = beams[c.parent].ids.clone();
        if let Some(tok) = c.token {
            ids.push(tok);
        }
        let cache = if c.done {
            None
        } else {
            live_children[c.parent] -= 1;
            if live_children[c.parent] == 0 {
                parent_caches[c.parent].take()
            } else {
                parent_caches[c.parent].clone()
            }
        };
        next.push(Hypothesis {
            ids,
            log_prob: c.log_prob,
            done: c.done,
            cache,
        });
    }
    next
}

/// Final beam ranking: every hypothesis' generated ids (prompt stripped),
/// best-first by length-normalized score. Shared with the batched scheduler
/// so single-request and batched rankings agree element-for-element.
///
/// Ties break toward the *higher* original index, which keeps `ranked[0]`
/// bitwise-identical to the historical `max_by` selection (`max_by` returns
/// the last maximum).
pub(crate) fn ranked_hypothesis_ids(beams: Vec<Hypothesis>, prompt_len: usize) -> Vec<Vec<usize>> {
    let mut indexed: Vec<(usize, Hypothesis)> = beams.into_iter().enumerate().collect();
    indexed.sort_by(|(ia, a), (ib, b)| {
        b.score()
            .partial_cmp(&a.score())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(ib.cmp(ia))
    });
    indexed
        .into_iter()
        .map(|(_, h)| {
            let mut ids = h.ids;
            ids.split_off(prompt_len)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn beam_cached(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    qw: Option<&QuantDecoderWeights>,
    cache: DecoderCache,
    prompt: &[usize],
    limit: usize,
    opts: DecodeOptions,
) -> Vec<Vec<usize>> {
    let prompt_len = prompt.len();
    let mut beams = vec![Hypothesis::root(prompt, cache)];
    for _ in prompt_len..limit {
        if beams.iter().all(|h| h.done) {
            break;
        }
        // Step every live hypothesis once, in place.
        let rows: Vec<Option<Vec<f32>>> = beams
            .iter_mut()
            .map(|h| {
                if h.done {
                    return None;
                }
                let cache = h.cache.as_mut().expect("live hypothesis has a cache");
                Some(step_at(
                    store,
                    params,
                    cfg,
                    qw,
                    cache,
                    *h.ids.last().unwrap(),
                ))
            })
            .collect();
        let row_refs: Vec<Option<&[f32]>> = rows.iter().map(|r| r.as_deref()).collect();
        beams = expand_beams(beams, &row_refs, opts.beam, opts.min_len, prompt_len);
    }
    ranked_hypothesis_ids(beams, prompt_len)
}

// ---------------------------------------------------------------------------
// Reference implementation: full prefix replay, no cache
// ---------------------------------------------------------------------------

/// Greedy decoding by full prefix replay (no KV cache — O(T²·L)). Reference
/// implementation and benchmark baseline for [`greedy_decode`].
pub fn greedy_decode_replay(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
    max_len: usize,
) -> Vec<usize> {
    replay_decode_with(
        store,
        params,
        cfg,
        src_ids,
        max_len,
        DecodeOptions::default(),
    )
}

/// Beam-search decoding by full prefix replay. Reference implementation and
/// benchmark baseline for [`beam_decode`].
pub fn beam_decode_replay(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
    max_len: usize,
    beam: usize,
) -> Vec<usize> {
    replay_decode_with(
        store,
        params,
        cfg,
        src_ids,
        max_len,
        DecodeOptions {
            beam,
            min_len: 0,
            ..Default::default()
        },
    )
}

/// Replay-path generation with explicit options (benchmarks force fixed
/// lengths through `min_len` on both engines for a fair comparison).
pub fn replay_decode_with(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    src_ids: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    assert!(
        opts.beam >= 1,
        "beam width must be at least 1 (got 0); use beam = 1 for greedy"
    );
    let enc_val = encode_source(store, params, cfg, src_ids);
    let limit = max_len.min(cfg.max_dec_len);

    if opts.beam == 1 {
        let mut out = vec![SOS];
        while out.len() < limit {
            let logits = replay_logits(store, params, cfg, &enc_val, &out);
            let ban_eos = out.len() - 1 < opts.min_len;
            let tok = argmax_token(&logits, ban_eos);
            if tok == EOS {
                break;
            }
            out.push(tok);
        }
        out.remove(0);
        return out;
    }

    struct ReplayHyp {
        ids: Vec<usize>,
        log_prob: f32,
        done: bool,
    }
    let mut beams = vec![ReplayHyp {
        ids: vec![SOS],
        log_prob: 0.0,
        done: false,
    }];
    for _ in 1..limit {
        if beams.iter().all(|h| h.done) {
            break;
        }
        let mut candidates: Vec<ReplayHyp> = Vec::new();
        for h in &beams {
            if h.done {
                candidates.push(ReplayHyp {
                    ids: h.ids.clone(),
                    log_prob: h.log_prob,
                    done: true,
                });
                continue;
            }
            let logits = replay_logits(store, params, cfg, &enc_val, &h.ids);
            let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let z: f32 = logits.iter().map(|x| (x - m).exp()).sum();
            let log_z = m + z.ln();
            let ban_eos = h.ids.len() - 1 < opts.min_len;
            for &tok in &top_k_indices(&logits, opts.beam, ban_eos) {
                let mut ids = h.ids.clone();
                let done = tok == EOS;
                if !done {
                    ids.push(tok);
                }
                candidates.push(ReplayHyp {
                    ids,
                    log_prob: h.log_prob + (logits[tok] - log_z),
                    done,
                });
            }
        }
        candidates.sort_by(|a, b| {
            let sa = a.log_prob / a.ids.len() as f32;
            let sb = b.log_prob / b.ids.len() as f32;
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
        });
        candidates.truncate(opts.beam);
        beams = candidates;
    }
    let mut best = beams
        .into_iter()
        .max_by(|a, b| {
            let sa = a.log_prob / a.ids.len() as f32;
            let sb = b.log_prob / b.ids.len() as f32;
            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|h| h.ids)
        .unwrap_or_else(|| vec![SOS]);
    best.remove(0);
    best
}

/// Last-row logits of a full decoder replay over `dec_ids` (fresh tape).
pub fn replay_logits(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    enc_val: &Tensor,
    dec_ids: &[usize],
) -> Vec<f32> {
    let mut tape = Tape::new();
    let enc_const = tape.constant(enc_val.clone());
    let logits = dec_forward(
        &mut tape,
        store,
        params,
        cfg,
        enc_const,
        dec_ids,
        ForwardMode::inference(),
    );
    let v = cfg.vocab_size;
    let rows = dec_ids.len();
    tape.value(logits).data[(rows - 1) * v..rows * v].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, Example, TrainConfig};
    use crate::transformer::build_params;

    /// Train a tiny copy model, then decode.
    fn trained_copy_model() -> (ModelConfig, ParamStore, TransformerParams) {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 16;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 11);
        let mut data = Vec::new();
        for a in 6..12usize {
            for b in 6..12usize {
                data.push(Example {
                    src: vec![SOS, a, b, EOS],
                    tgt: vec![SOS, a, b],
                });
            }
        }
        let tcfg = TrainConfig {
            epochs: 30,
            batch_size: 12,
            lr: 3e-3,
            warmup_steps: 10,
            threads: 1,
            validate: false,
            ..Default::default()
        };
        train(&mut store, &params, &cfg, &data, &[], &tcfg, |_| {});
        (cfg, store, params)
    }

    #[test]
    fn greedy_decodes_learned_mapping() {
        let (cfg, store, params) = trained_copy_model();
        let mut correct = 0;
        let mut total = 0;
        for a in 6..12usize {
            for b in 6..12usize {
                let out = greedy_decode(&store, &params, &cfg, &[SOS, a, b, EOS], 8);
                total += 1;
                if out == vec![a, b] {
                    correct += 1;
                }
            }
        }
        assert!(
            correct * 10 >= total * 8,
            "copy accuracy too low: {correct}/{total}"
        );
    }

    #[test]
    fn greedy_respects_max_len() {
        let (cfg, store, params) = trained_copy_model();
        let out = greedy_decode(&store, &params, &cfg, &[SOS, 7, 8, EOS], 2);
        assert!(out.len() <= 2);
    }

    #[test]
    fn beam_one_matches_greedy() {
        let (cfg, store, params) = trained_copy_model();
        for a in 6..9usize {
            let src = [SOS, a, a + 1, EOS];
            let g = greedy_decode(&store, &params, &cfg, &src, 8);
            let b = beam_decode(&store, &params, &cfg, &src, 8, 1);
            assert_eq!(g, b, "beam=1 must equal greedy for src {src:?}");
        }
    }

    #[test]
    fn wider_beam_never_scores_worse() {
        // Beam search with width 3 finds a hypothesis with at least the
        // greedy hypothesis' probability; on a well-trained copy task both
        // should emit the same (correct) output.
        let (cfg, store, params) = trained_copy_model();
        let src = [SOS, 9, 10, EOS];
        let g = greedy_decode(&store, &params, &cfg, &src, 8);
        let b = beam_decode(&store, &params, &cfg, &src, 8, 3);
        assert_eq!(g, b);
    }

    // -- cache equivalence -------------------------------------------------

    /// Cached incremental logits must match full-replay logits at every
    /// step of a forced token sequence.
    #[test]
    fn cached_logits_match_replay_logits_each_step() {
        let (cfg, store, params) = trained_copy_model();
        let src = [SOS, 7, 10, EOS];
        let enc_out = encode_source(&store, &params, &cfg, &src);
        let forced = [SOS, 7, 10, 9, 6, 11, 8]; // arbitrary prefix walk
        let mut cache = DecoderCache::new(&store, &params, &cfg, &enc_out);
        for step in 1..=forced.len() {
            let prefix = &forced[..step];
            let cached = decode_step(&store, &params, &cfg, &mut cache, prefix[step - 1]);
            let replayed = replay_logits(&store, &params, &cfg, &enc_out, prefix);
            assert_eq!(cached.len(), replayed.len());
            for (i, (c, r)) in cached.iter().zip(&replayed).enumerate() {
                assert!(
                    (c - r).abs() < 1e-4,
                    "step {step} logit {i}: cached {c} vs replay {r}"
                );
            }
        }
    }

    /// The cached decoders must emit exactly the replay decoders' outputs.
    #[test]
    fn cached_decoding_matches_replay_decoding() {
        let (cfg, store, params) = trained_copy_model();
        for a in 6..10usize {
            let src = [SOS, a, a + 2, EOS];
            assert_eq!(
                greedy_decode(&store, &params, &cfg, &src, 10),
                greedy_decode_replay(&store, &params, &cfg, &src, 10),
                "greedy divergence for {src:?}"
            );
            for beam in [2usize, 3] {
                assert_eq!(
                    beam_decode(&store, &params, &cfg, &src, 10, beam),
                    beam_decode_replay(&store, &params, &cfg, &src, 10, beam),
                    "beam={beam} divergence for {src:?}"
                );
            }
        }
    }

    /// Forced max-length generation exercises the cache at its capacity
    /// bound without panicking, on both engines.
    #[test]
    fn cache_handles_max_length_sequences() {
        let (cfg, store, params) = trained_copy_model();
        let src = [SOS, 6, 7, EOS];
        let opts = DecodeOptions {
            beam: 1,
            min_len: cfg.max_dec_len,
            ..Default::default()
        };
        let cached = decode_with(&store, &params, &cfg, &src, usize::MAX, opts);
        assert_eq!(cached.len(), cfg.max_dec_len - 1, "filled to the cap");
        let replayed = replay_decode_with(&store, &params, &cfg, &src, usize::MAX, opts);
        assert_eq!(cached, replayed);
    }

    #[test]
    fn min_len_suppresses_early_eos() {
        let (cfg, store, params) = trained_copy_model();
        let src = [SOS, 6, 7, EOS];
        // Unconstrained greedy stops after ~2 tokens on the copy task.
        let free = greedy_decode(&store, &params, &cfg, &src, 12);
        assert!(free.len() < 6);
        let forced = decode_with(
            &store,
            &params,
            &cfg,
            &src,
            12,
            DecodeOptions {
                beam: 1,
                min_len: 6,
                ..Default::default()
            },
        );
        assert!(forced.len() >= 6, "min_len must force length: {forced:?}");
        assert!(!forced.contains(&EOS));
    }

    /// Prompted decoding with `[<sos>]` is exactly the unprompted path, for
    /// both engines and storages.
    #[test]
    fn prompted_with_sos_matches_unprompted() {
        let (cfg, store, params) = trained_copy_model();
        let src = [SOS, 8, 11, EOS];
        let enc_out = encode_source(&store, &params, &cfg, &src);
        for beam in [1usize, 3] {
            let opts = DecodeOptions {
                beam,
                min_len: 0,
                ..Default::default()
            };
            let plain = decode_encoded(&store, &params, &cfg, &enc_out, 10, opts);
            let prompted =
                decode_encoded_prompted(&store, &params, &cfg, &enc_out, &[SOS], 10, opts);
            let contiguous = decode_encoded_prompted_contiguous(
                &store,
                &params,
                &cfg,
                &enc_out,
                &[SOS],
                10,
                opts,
            );
            assert_eq!(plain, prompted, "beam={beam}");
            assert_eq!(plain, contiguous, "beam={beam} contiguous reference");
        }
    }

    /// A longer forced prefix: the continuation excludes the prompt, stops
    /// within the cap, and the paged path equals the contiguous reference.
    #[test]
    fn prompted_continuation_respects_prompt_and_cap() {
        let (cfg, store, params) = trained_copy_model();
        let src = [SOS, 7, 9, EOS];
        let enc_out = encode_source(&store, &params, &cfg, &src);
        let prompt = [SOS, 7, 9, 6];
        for beam in [1usize, 2] {
            let opts = DecodeOptions {
                beam,
                min_len: 2,
                ..Default::default()
            };
            let out = decode_encoded_prompted(&store, &params, &cfg, &enc_out, &prompt, 12, opts);
            assert!(out.len() + prompt.len() <= 12);
            assert!(out.len() >= 2, "min_len counts generated tokens");
            assert_eq!(
                out,
                decode_encoded_prompted_contiguous(
                    &store, &params, &cfg, &enc_out, &prompt, 12, opts,
                ),
                "beam={beam}"
            );
        }
        // Prompt at the cap: nothing generated.
        let at_cap = decode_encoded_prompted(
            &store,
            &params,
            &cfg,
            &enc_out,
            &prompt,
            4,
            DecodeOptions::default(),
        );
        assert!(at_cap.is_empty());
    }

    /// Regression (satellite fix): `beam = 0` is rejected with a
    /// descriptive message at every decode entry point, and
    /// `DecodeOptions::validate` reports it as an `Err`.
    #[test]
    fn zero_beam_is_invalid_and_validate_says_why() {
        let opts = DecodeOptions {
            beam: 0,
            min_len: 0,
            ..Default::default()
        };
        let err = opts.validate().unwrap_err();
        assert!(err.contains("beam width must be at least 1"), "{err}");
        assert!(DecodeOptions::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "beam width must be at least 1")]
    fn zero_beam_cached_decode_panics_descriptively() {
        let (cfg, store, params) = trained_copy_model();
        decode_with(
            &store,
            &params,
            &cfg,
            &[SOS, 6, 7, EOS],
            8,
            DecodeOptions {
                beam: 0,
                min_len: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "beam width must be at least 1")]
    fn zero_beam_replay_decode_panics_descriptively() {
        let (cfg, store, params) = trained_copy_model();
        replay_decode_with(
            &store,
            &params,
            &cfg,
            &[SOS, 6, 7, EOS],
            8,
            DecodeOptions {
                beam: 0,
                min_len: 0,
                ..Default::default()
            },
        );
    }

    /// The quantized single-request engine is self-consistent across its
    /// entry points and cache layouts: on-the-fly quantization
    /// (`precision: Int8`), prebuilt weights
    /// (`decode_encoded_prompted_quant`), and the contiguous reference
    /// layout all emit identical tokens, for greedy and beam.
    #[test]
    fn quant_entry_points_and_layouts_agree() {
        let (cfg, store, params) = trained_copy_model();
        let src = [SOS, 8, 11, EOS];
        let enc_out = encode_source(&store, &params, &cfg, &src);
        let qw = crate::infer::QuantDecoderWeights::new(&store, &params);
        for beam in [1usize, 3] {
            let opts = DecodeOptions {
                beam,
                min_len: 2,
                precision: Precision::Int8,
            };
            let on_the_fly =
                decode_encoded_prompted(&store, &params, &cfg, &enc_out, &[SOS], 10, opts);
            let prebuilt = decode_encoded_prompted_quant(
                &store,
                &params,
                &cfg,
                &qw,
                &enc_out,
                &[SOS],
                10,
                opts,
            );
            let contiguous = decode_encoded_prompted_contiguous(
                &store,
                &params,
                &cfg,
                &enc_out,
                &[SOS],
                10,
                opts,
            );
            assert_eq!(on_the_fly, prebuilt, "beam={beam}");
            assert_eq!(on_the_fly, contiguous, "beam={beam} contiguous");
            assert!(!on_the_fly.is_empty(), "min_len forces generation");
        }
    }

    #[test]
    fn top_k_selects_largest() {
        let row = [0.1f32, 5.0, -2.0, 3.0, 4.0];
        assert_eq!(top_k_indices(&row, 3, false), vec![1, 4, 3]);
        assert_eq!(top_k_indices(&row, 1, false), vec![1]);
        assert_eq!(top_k_indices(&row, 10, false).len(), 5);
        // Banning EOS (index 2) removes it even when k covers everything.
        assert!(!top_k_indices(&row, 10, true).contains(&EOS));
    }
}
