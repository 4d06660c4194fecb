//! Decoding semantics: [`DecodeOptions`], the token-selection and
//! beam-expansion primitives the lockstep scheduler runs, and the two
//! single-request **reference** drivers the test suites and benches compare
//! that scheduler against.
//!
//! Production decoding — one buffer or many — is a
//! [`BatchDecoder`](crate::batch::BatchDecoder) request (behind an
//! [`Engine`](crate::engine::Engine) for anything long-lived): a batch of
//! one *is* the single-request path. What stays here is what that loop is
//! pinned to:
//!
//! * [`decode_reference`] — one generation over a caller-built
//!   [`DecoderCache`], one [`decode_step`] per token, greedy or beam. Beam
//!   search forks hypotheses by cloning the cache (a copy-on-write page
//!   share on the paged layout) and selects top-k next tokens with
//!   `select_nth_unstable_by`, O(V) instead of a full-vocabulary sort. The
//!   scheduler shares `argmax_token`, `expand_beams` and
//!   `ranked_hypothesis_ids` with it, so the two can only differ inside the
//!   step kernels — which the property suites pin bitwise.
//! * [`replay_decode_with`] — the cache-free path: the whole decoder prefix
//!   replayed on a fresh autograd tape every step, O(T²·L). The tests below
//!   pin the cached step's logits to it step by step, and the `decode`
//!   criterion group measures the cache's speedup against it.
//!
//! # Example
//!
//! ```
//! use mpirical_model::decode::{decode_reference, encode_source, replay_decode_with};
//! use mpirical_model::transformer::build_params;
//! use mpirical_model::vocab::SOS;
//! use mpirical_model::{DecodeOptions, DecoderCache, ModelConfig};
//! use mpirical_tensor::ParamStore;
//!
//! let mut cfg = ModelConfig::tiny();
//! cfg.vocab_size = 16;
//! let mut store = ParamStore::new();
//! let params = build_params(&cfg, &mut store, 3);
//! let src = [1, 6, 7, 2]; // <sos> … <eos>
//! let enc = encode_source(&store, &params, &cfg, &src);
//!
//! // The caller picks the cache layout; the ranked hypotheses come back
//! // best-first (greedy yields exactly one).
//! let opts = DecodeOptions::default();
//! let cache = DecoderCache::new(&store, &params, &cfg, &enc);
//! let ranked = decode_reference(&store, &params, &cfg, None, cache, &[SOS], 12, opts);
//! assert_eq!(ranked.len(), 1);
//! assert_eq!(ranked[0], replay_decode_with(&store, &params, &cfg, &src, 12, opts));
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

/// The single-request cached reference: feed `prompt` token by token into
/// `cache` (prefill), continue with greedy or beam generation, and return
/// **every** final hypothesis' generated ids (prompt excluded) best-first by
/// length-normalized score. Greedy (`beam == 1`) yields exactly one
/// hypothesis; beam search yields the final ranked beam.
///
/// This is the semantics of one [`BatchDecoder`](crate::batch::BatchDecoder)
/// request — the scheduler's unit tests, the property harnesses and the
/// benches pin its output to this function bitwise, hypothesis for
/// hypothesis. The caller chooses what is being compared:
///
/// * `cache` — a fresh cache over the request's encoder output;
///   [`DecoderCache::new`] for the paged layout the scheduler runs,
///   [`DecoderCache::new_contiguous`] for the contiguous reference layout.
/// * `qw` — prebuilt int8 weights for [`Precision::Int8`] options. `None`
///   with int8 options quantizes here, once per call; f32 options ignore it.
/// * `max_len` counts the prompt (a prompt at or past the cap generates
///   nothing), `opts.min_len` counts generated tokens only.
#[allow(clippy::too_many_arguments)]
pub fn decode_reference(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    qw: Option<&QuantDecoderWeights>,
    mut cache: DecoderCache,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<Vec<usize>> {
    assert!(
        opts.beam >= 1,
        "beam width must be at least 1 (got 0); use beam = 1 for greedy"
    );
    assert!(!prompt.is_empty(), "prompt must hold at least <sos>");
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

/// One decode step at the reference's precision: f32 [`decode_step`] or
/// quantized [`decode_step_quant`]. The single dispatch point for prefill,
/// greedy and beam, so the two precisions can only differ inside the
/// projection kernels.
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

/// Generation by full prefix replay (no KV cache — O(T²·L)): encodes
/// `src_ids`, then re-runs the whole decoder prefix on a fresh tape every
/// step. Returns the winning ids without `<sos>`/`<eos>`. Reference
/// implementation and benchmark baseline for the cached step (benchmarks
/// force fixed lengths through `min_len` on both for a fair comparison).
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
fn replay_logits(
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

    type Model = (ModelConfig, ParamStore, TransformerParams);

    /// Train a tiny copy model, then decode.
    fn trained_copy_model() -> Model {
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

    /// Winner of the cached reference over a fresh cache of the given
    /// layout.
    fn cached_on(
        m: &Model,
        cache: DecoderCache,
        qw: Option<&QuantDecoderWeights>,
        prompt: &[usize],
        max_len: usize,
        opts: DecodeOptions,
    ) -> Vec<usize> {
        let (cfg, store, params) = m;
        decode_reference(store, params, cfg, qw, cache, prompt, max_len, opts).swap_remove(0)
    }

    fn paged(m: &Model, enc_out: &Tensor) -> DecoderCache {
        DecoderCache::new(&m.1, &m.2, &m.0, enc_out)
    }

    fn contiguous(m: &Model, enc_out: &Tensor) -> DecoderCache {
        DecoderCache::new_contiguous(&m.1, &m.2, &m.0, enc_out)
    }

    /// Encode `src`, then decode from `<sos>` on the paged layout.
    fn cached(m: &Model, src: &[usize], max_len: usize, opts: DecodeOptions) -> Vec<usize> {
        let enc_out = encode_source(&m.1, &m.2, &m.0, src);
        cached_on(m, paged(m, &enc_out), None, &[SOS], max_len, opts)
    }

    fn beam(beam: usize) -> DecodeOptions {
        DecodeOptions {
            beam,
            ..Default::default()
        }
    }

    #[test]
    fn greedy_decodes_learned_mapping() {
        let m = trained_copy_model();
        let mut correct = 0;
        let mut total = 0;
        for a in 6..12usize {
            for b in 6..12usize {
                let out = cached(&m, &[SOS, a, b, EOS], 8, beam(1));
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
        let m = trained_copy_model();
        let out = cached(&m, &[SOS, 7, 8, EOS], 2, beam(1));
        assert!(out.len() <= 2);
    }

    /// The greedy driver (argmax) and the beam driver at width 1
    /// (log-softmax scoring) are separate code; they must agree. Width 1
    /// dispatches to greedy, so the beam driver is called directly.
    #[test]
    fn beam_one_matches_greedy() {
        let m = trained_copy_model();
        let (cfg, store, params) = &m;
        for a in 6..9usize {
            let src = [SOS, a, a + 1, EOS];
            let g = cached(&m, &src, 8, beam(1));
            let enc_out = encode_source(store, params, cfg, &src);
            let b = beam_cached(
                store,
                params,
                cfg,
                None,
                paged(&m, &enc_out),
                &[SOS],
                8,
                beam(1),
            );
            assert_eq!(vec![g], b, "beam=1 must equal greedy for src {src:?}");
        }
    }

    #[test]
    fn wider_beam_never_scores_worse() {
        // Beam search with width 3 finds a hypothesis with at least the
        // greedy hypothesis' probability; on a well-trained copy task both
        // should emit the same (correct) output.
        let m = trained_copy_model();
        let src = [SOS, 9, 10, EOS];
        assert_eq!(cached(&m, &src, 8, beam(1)), cached(&m, &src, 8, beam(3)));
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
        let m = trained_copy_model();
        let (cfg, store, params) = &m;
        for a in 6..10usize {
            let src = [SOS, a, a + 2, EOS];
            for width in [1usize, 2, 3] {
                assert_eq!(
                    cached(&m, &src, 10, beam(width)),
                    replay_decode_with(store, params, cfg, &src, 10, beam(width)),
                    "beam={width} divergence for {src:?}"
                );
            }
        }
    }

    /// Forced max-length generation exercises the cache at its capacity
    /// bound without panicking, on both engines.
    #[test]
    fn cache_handles_max_length_sequences() {
        let m = trained_copy_model();
        let (cfg, store, params) = &m;
        let src = [SOS, 6, 7, EOS];
        let opts = DecodeOptions {
            beam: 1,
            min_len: cfg.max_dec_len,
            ..Default::default()
        };
        let cached = cached(&m, &src, usize::MAX, opts);
        assert_eq!(cached.len(), cfg.max_dec_len - 1, "filled to the cap");
        let replayed = replay_decode_with(store, params, cfg, &src, usize::MAX, opts);
        assert_eq!(cached, replayed);
    }

    #[test]
    fn min_len_suppresses_early_eos() {
        let m = trained_copy_model();
        let src = [SOS, 6, 7, EOS];
        // Unconstrained greedy stops after ~2 tokens on the copy task.
        let free = cached(&m, &src, 12, beam(1));
        assert!(free.len() < 6);
        let forced = cached(
            &m,
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

    /// From a bare `<sos>` prompt the paged layout decodes exactly what the
    /// contiguous reference layout does, greedy and beam.
    #[test]
    fn sos_prompt_paged_matches_contiguous() {
        let m = trained_copy_model();
        let src = [SOS, 8, 11, EOS];
        let enc_out = encode_source(&m.1, &m.2, &m.0, &src);
        for width in [1usize, 3] {
            assert_eq!(
                cached_on(&m, paged(&m, &enc_out), None, &[SOS], 10, beam(width)),
                cached_on(&m, contiguous(&m, &enc_out), None, &[SOS], 10, beam(width)),
                "beam={width} contiguous reference"
            );
        }
    }

    /// A longer forced prefix: the continuation excludes the prompt, stops
    /// within the cap, and the paged path equals the contiguous reference.
    #[test]
    fn prompted_continuation_respects_prompt_and_cap() {
        let m = trained_copy_model();
        let src = [SOS, 7, 9, EOS];
        let enc_out = encode_source(&m.1, &m.2, &m.0, &src);
        let prompt = [SOS, 7, 9, 6];
        for width in [1usize, 2] {
            let opts = DecodeOptions {
                beam: width,
                min_len: 2,
                ..Default::default()
            };
            let out = cached_on(&m, paged(&m, &enc_out), None, &prompt, 12, opts);
            assert!(out.len() + prompt.len() <= 12);
            assert!(out.len() >= 2, "min_len counts generated tokens");
            assert_eq!(
                out,
                cached_on(&m, contiguous(&m, &enc_out), None, &prompt, 12, opts),
                "beam={width}"
            );
        }
        // Prompt at the cap: nothing generated.
        let at_cap = cached_on(&m, paged(&m, &enc_out), None, &prompt, 4, beam(1));
        assert!(at_cap.is_empty());
    }

    /// Regression (satellite fix): `beam = 0` is rejected with a
    /// descriptive message at every decode entry point, and
    /// `DecodeOptions::validate` reports it as an `Err`.
    #[test]
    fn zero_beam_is_invalid_and_validate_says_why() {
        let err = beam(0).validate().unwrap_err();
        assert!(err.contains("beam width must be at least 1"), "{err}");
        assert!(DecodeOptions::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "beam width must be at least 1")]
    fn zero_beam_cached_decode_panics_descriptively() {
        let m = trained_copy_model();
        cached(&m, &[SOS, 6, 7, EOS], 8, beam(0));
    }

    #[test]
    #[should_panic(expected = "beam width must be at least 1")]
    fn zero_beam_replay_decode_panics_descriptively() {
        let (cfg, store, params) = trained_copy_model();
        replay_decode_with(&store, &params, &cfg, &[SOS, 6, 7, EOS], 8, beam(0));
    }

    /// The quantized reference is self-consistent across how it gets its
    /// weights and across cache layouts: on-the-fly quantization
    /// (`precision: Int8`, no weights passed), prebuilt weights, and the
    /// contiguous reference layout all emit identical tokens, for greedy
    /// and beam.
    #[test]
    fn quant_entry_points_and_layouts_agree() {
        let m = trained_copy_model();
        let src = [SOS, 8, 11, EOS];
        let enc_out = encode_source(&m.1, &m.2, &m.0, &src);
        let qw = QuantDecoderWeights::new(&m.1, &m.2);
        for width in [1usize, 3] {
            let opts = DecodeOptions {
                beam: width,
                min_len: 2,
                precision: Precision::Int8,
            };
            let on_the_fly = cached_on(&m, paged(&m, &enc_out), None, &[SOS], 10, opts);
            let prebuilt = cached_on(&m, paged(&m, &enc_out), Some(&qw), &[SOS], 10, opts);
            let contiguous = cached_on(&m, contiguous(&m, &enc_out), None, &[SOS], 10, opts);
            assert_eq!(on_the_fly, prebuilt, "beam={width}");
            assert_eq!(on_the_fly, contiguous, "beam={width} contiguous");
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
