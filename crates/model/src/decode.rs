//! Decoding semantics: [`DecodeOptions`], the token-selection and
//! beam-expansion primitives the lockstep scheduler runs, and the tape
//! replay it is checked against.
//!
//! Production decoding — one buffer or many — is a
//! [`BatchDecoder`](crate::batch::BatchDecoder) request (behind an
//! [`Engine`](crate::engine::Engine) for anything long-lived): a batch of
//! one *is* the single-request path. What stays here:
//!
//! * `argmax_token`, `expand_beams` and `ranked_hypothesis_ids` — greedy
//!   selection, one beam-search expansion and the final beam ranking, which
//!   the scheduler runs per request. An expansion forks hypotheses by
//!   cloning their caches (a copy-on-write page share) and selects top-k
//!   next tokens with `select_nth_unstable_by`, O(V) instead of a
//!   full-vocabulary sort.
//! * [`replay_decode_with`] — the cache-free path: the whole decoder prefix
//!   replayed on a fresh autograd tape every step, O(T²·L). It runs the
//!   training forward ([`crate::transformer`]) and shares no step code with
//!   the scheduler, so it is the independent oracle: the tests below pin
//!   the batch step's logits to it step by step and the scheduler's greedy
//!   and beam output to its output, and the `decode` criterion group
//!   measures the cache's speedup against it.
//!
//! # Example
//!
//! ```
//! use mpirical_model::decode::{encode_source, replay_decode_with};
//! use mpirical_model::transformer::build_params;
//! use mpirical_model::{BatchDecoder, BatchRequest, DecodeOptions, ModelConfig};
//! use mpirical_tensor::ParamStore;
//!
//! let mut cfg = ModelConfig::tiny();
//! cfg.vocab_size = 16;
//! let mut store = ParamStore::new();
//! let params = build_params(&cfg, &mut store, 3);
//! let src = [1, 6, 7, 2]; // <sos> … <eos>
//! let enc = encode_source(&store, &params, &cfg, &src);
//!
//! // One request alone in a scheduler decodes what the tape replay does.
//! let mut dec = BatchDecoder::new(&store, &params, &cfg, 1);
//! let ids = dec.decode_all(vec![BatchRequest::greedy(enc, 12)]);
//! let opts = DecodeOptions::default();
//! assert_eq!(ids[0], replay_decode_with(&store, &params, &cfg, &src, 12, opts));
//! ```

use crate::config::ModelConfig;
pub use crate::infer::encode_source;
use crate::infer::{DecoderCache, Precision};
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

/// Argmax of a logits row, optionally banning `<eos>`: greedy selection,
/// for the scheduler and the replay alike.
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

/// A beam-search hypothesis carrying its own decoder cache — what the
/// batched scheduler ([`BatchDecoder`](crate::batch::BatchDecoder)) steps
/// in lockstep and hands to [`expand_beams`].
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
/// The scheduler steps every live hypothesis of every request in lockstep,
/// then calls this once per beam request, so candidate ordering,
/// tie-breaking and cache handoff do not depend on what else is batched.
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
/// best-first by length-normalized score.
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
    use crate::batch::{BatchDecoder, BatchRequest, SubmitOptions};
    use crate::infer::{decode_step_batch, BatchScratch, DecoderWeights, QuantDecoderWeights};
    use crate::paged::PagePool;
    use crate::train::{train, Example, TrainConfig};
    use crate::transformer::build_params;
    use std::borrow::Cow;

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

    /// Winner of one request decoded alone by a fresh scheduler that draws
    /// its pages from `pool`.
    fn alone_in(
        m: &Model,
        pool: PagePool,
        enc_out: &Tensor,
        prompt: &[usize],
        max_len: usize,
        opts: DecodeOptions,
    ) -> Vec<usize> {
        let (cfg, store, params) = m;
        let weights = DecoderWeights::for_precision(store, params, opts.precision);
        let lanes = opts.beam.max(1);
        let mut dec =
            BatchDecoder::with_shared(store, params, cfg, lanes, Cow::Owned(weights), pool);
        let req = BatchRequest {
            enc_out: enc_out.clone(),
            prompt: prompt.to_vec(),
            max_len,
            opts,
            submit: SubmitOptions::default(),
        };
        dec.decode_all(vec![req]).swap_remove(0)
    }

    /// The default paged pool (16-row pages).
    fn paged(m: &Model) -> PagePool {
        PagePool::new(m.0.d_head())
    }

    /// A pool whose single page holds a whole generation: one contiguous
    /// slab per head.
    fn one_page(m: &Model) -> PagePool {
        PagePool::with_page_rows(m.0.d_head(), m.0.max_dec_len)
    }

    /// Encode `src`, then decode from `<sos>` on the default pool.
    fn cached(m: &Model, src: &[usize], max_len: usize, opts: DecodeOptions) -> Vec<usize> {
        let enc_out = encode_source(&m.1, &m.2, &m.0, src);
        alone_in(m, paged(m), &enc_out, &[SOS], max_len, opts)
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

    /// Greedy selection (argmax) and beam expansion at width 1
    /// (log-softmax top-1) are separate code; they must agree. The
    /// scheduler sends width 1 to greedy, so the expansion is fed the same
    /// one-lane step rows here directly.
    #[test]
    fn beam_one_matches_greedy() {
        let m = trained_copy_model();
        let (cfg, store, params) = &m;
        let weights = DecoderWeights::for_precision(store, params, Precision::F32);
        let mut scratch = BatchScratch::new(cfg, 1);
        let mut row = vec![0.0; cfg.vocab_size];
        for a in 6..9usize {
            let src = [SOS, a, a + 1, EOS];
            let greedy = cached(&m, &src, 8, beam(1));
            let enc_out = encode_source(store, params, cfg, &src);
            let mut cache = DecoderCache::new(store, params, cfg, &enc_out);
            let mut h = Hypothesis {
                ids: vec![SOS],
                log_prob: 0.0,
                done: false,
                cache: None, // the step below owns the one cache
            };
            while !h.done && h.ids.len() < 8 {
                let tok = *h.ids.last().unwrap();
                let lanes = &mut [&mut cache];
                decode_step_batch(
                    store,
                    params,
                    cfg,
                    &weights,
                    lanes,
                    &[tok],
                    &mut scratch,
                    &mut row,
                );
                h = expand_beams(vec![h], &[Some(&row)], 1, 0, 1).swap_remove(0);
            }
            assert_eq!(
                h.ids[1..],
                greedy[..],
                "beam=1 must equal greedy for src {src:?}"
            );
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

    /// The batch step's logits must match full-replay logits at every step
    /// of a forced token sequence, alone and beside other lanes: at 3
    /// lanes, lane `i` joins at step `i`, so the lanes sit at staggered
    /// lengths over different encoder outputs.
    #[test]
    fn cached_logits_match_replay_logits_each_step() {
        let (cfg, store, params) = trained_copy_model();
        let weights = DecoderWeights::for_precision(&store, &params, Precision::F32);
        let forced = [SOS, 7, 10, 9, 6, 11, 8]; // arbitrary prefix walk
        let srcs = [[SOS, 7, 10, EOS], [SOS, 6, 9, EOS], [SOS, 11, 8, EOS]];
        for lanes in [1usize, 3] {
            let encs: Vec<Tensor> = srcs[..lanes]
                .iter()
                .map(|src| encode_source(&store, &params, &cfg, src))
                .collect();
            let mut caches: Vec<DecoderCache> = encs
                .iter()
                .map(|e| DecoderCache::new(&store, &params, &cfg, e))
                .collect();
            let mut scratch = BatchScratch::new(&cfg, lanes);
            for step in 0..forced.len() + lanes - 1 {
                // Lane i feeds forced[step - i] while that is in range.
                let live: Vec<usize> = (0..lanes)
                    .filter(|&i| (i..i + forced.len()).contains(&step))
                    .collect();
                let tokens: Vec<usize> = live.iter().map(|&i| forced[step - i]).collect();
                let mut batch: Vec<&mut DecoderCache> = caches
                    .iter_mut()
                    .enumerate()
                    .filter(|(i, _)| live.contains(i))
                    .map(|(_, c)| c)
                    .collect();
                let mut logits = vec![0.0; live.len() * cfg.vocab_size];
                decode_step_batch(
                    &store,
                    &params,
                    &cfg,
                    &weights,
                    &mut batch,
                    &tokens,
                    &mut scratch,
                    &mut logits,
                );
                for (lane, (&i, cached)) in
                    live.iter().zip(logits.chunks(cfg.vocab_size)).enumerate()
                {
                    let prefix = &forced[..=step - i];
                    let replayed = replay_logits(&store, &params, &cfg, &encs[i], prefix);
                    assert_eq!(cached.len(), replayed.len());
                    for (v, (c, r)) in cached.iter().zip(&replayed).enumerate() {
                        assert!(
                            (c - r).abs() < 1e-4,
                            "{lanes} lanes, lane {i} (row {lane}) step {step} logit {v}: \
                             cached {c} vs replay {r}"
                        );
                    }
                }
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

    /// From a bare `<sos>` prompt the default 16-row pages decode exactly
    /// what a one-page pool (the contiguous slab) does, greedy and beam.
    #[test]
    fn sos_prompt_paged_matches_contiguous() {
        let m = trained_copy_model();
        let src = [SOS, 8, 11, EOS];
        let enc_out = encode_source(&m.1, &m.2, &m.0, &src);
        for width in [1usize, 3] {
            assert_eq!(
                alone_in(&m, paged(&m), &enc_out, &[SOS], 10, beam(width)),
                alone_in(&m, one_page(&m), &enc_out, &[SOS], 10, beam(width)),
                "beam={width} one-page pool"
            );
        }
    }

    /// A longer forced prefix: the continuation excludes the prompt, stops
    /// within the cap, and the paged path equals the one-page pool.
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
            let out = alone_in(&m, paged(&m), &enc_out, &prompt, 12, opts);
            assert!(out.len() + prompt.len() <= 12);
            assert!(out.len() >= 2, "min_len counts generated tokens");
            assert_eq!(
                out,
                alone_in(&m, one_page(&m), &enc_out, &prompt, 12, opts),
                "beam={width}"
            );
        }
        // Prompt at the cap: nothing generated.
        let at_cap = alone_in(&m, paged(&m), &enc_out, &prompt, 4, beam(1));
        assert!(at_cap.is_empty());
    }

    /// Regression (satellite fix): `beam = 0` is rejected with a
    /// descriptive message at every decode entry point (the scheduler's
    /// `submit` guard is pinned in `batch::tests`), and
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

    /// Int8 decoding is self-consistent across how the scheduler gets its
    /// weights and across page sizes: quantized at construction
    /// (`with_precision`), prebuilt and borrowed (`with_weights`), and on a
    /// one-page pool, all emit identical tokens, for greedy and beam.
    #[test]
    fn quant_entry_points_and_layouts_agree() {
        let m = trained_copy_model();
        let (cfg, store, params) = &m;
        let src = [SOS, 8, 11, EOS];
        let enc_out = encode_source(store, params, cfg, &src);
        let prebuilt = DecoderWeights::Int8(QuantDecoderWeights::new(store, params));
        for width in [1usize, 3] {
            let opts = DecodeOptions {
                beam: width,
                min_len: 2,
                precision: Precision::Int8,
            };
            let req = || BatchRequest {
                enc_out: enc_out.clone(),
                prompt: vec![SOS],
                max_len: 10,
                opts,
                submit: SubmitOptions::default(),
            };
            let on_the_fly =
                BatchDecoder::with_precision(store, params, cfg, width, opts.precision)
                    .decode_all(vec![req()])
                    .swap_remove(0);
            let borrowed =
                BatchDecoder::with_weights(store, params, cfg, width, Cow::Borrowed(&prebuilt))
                    .decode_all(vec![req()])
                    .swap_remove(0);
            let slab = alone_in(&m, one_page(&m), &enc_out, &[SOS], 10, opts);
            assert_eq!(on_the_fly, borrowed, "beam={width}");
            assert_eq!(on_the_fly, slab, "beam={width} one-page pool");
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
