//! Property-test harness for the paged KV cache (shims/proptest).
//!
//! Four properties over randomized decode schedules:
//!
//! 1. **Bitwise storage equivalence** — for arbitrary token walks and page
//!    sizes (including 1-row pages), `decode_step` on paged storage emits
//!    logits bit-for-bit equal to the contiguous reference layout.
//! 2. **Fork soundness** — under arbitrary interleavings of step / COW-fork
//!    / drop across a population of caches sharing one pool, every cache
//!    tracks its contiguous twin bitwise, and the pool ends with zero live
//!    pages once all caches drop.
//! 3. **Scheduler equivalence** — random request mixes (prompt lengths,
//!    length caps, `min_len`, beam widths, late joins, early retirements,
//!    duplicate prompts hitting the prefix-share path) through
//!    `BatchDecoder` return exactly the per-request
//!    `decode_reference` (contiguous cache) reference outputs, again with
//!    zero leaked pages.
//!
//! 4. **Radix prefix sharing** — families of near-identical prompts (one
//!    encoder output, random single-token edits of a shared base) decode
//!    bitwise-equal to the no-sharing contiguous reference, concurrently
//!    and sequenced; the sequenced order pins the radix index's hit
//!    accounting (one cold miss, then hits/partial hits); the pool always
//!    drains to zero.
//!
//! Properties 1, 3 and 4 also run **quantized**: property 1 repeats each
//! random walk through the int8 projection kernels (`decode_step_quant`)
//! asserting paged-quant ≡ contiguous-quant bitwise per step, and
//! properties 3 and 4 replay every random schedule through an `Int8`
//! scheduler against the contiguous-quant reference — quantization swaps
//! the weight kernels but never touches the K/V storage walk, so the PR 3
//! storage-equivalence invariant must survive it unchanged.
//!
//! Case counts elevate via `PROPTEST_CASES` (CI runs the suite a second
//! time with a larger count).

use mpirical_model::decode::{decode_reference, encode_source};
use mpirical_model::transformer::{build_params, TransformerParams};
use mpirical_model::vocab::{EOS, SOS};
use mpirical_model::{
    decode_step, decode_step_quant, BatchDecoder, BatchRequest, DecodeOptions, DecoderCache,
    ModelConfig, PagePool, Precision, QuantDecoderWeights, RequestId, SubmitOptions,
};
use mpirical_tensor::{ParamStore, Tensor};
use proptest::prelude::*;
use std::sync::OnceLock;

type Fixture = (
    ModelConfig,
    ParamStore,
    TransformerParams,
    Vec<Tensor>,
    QuantDecoderWeights,
);

/// Winner of the single-request reference ([`decode_reference`]) on the
/// **contiguous** cache layout — the oracle every schedule is pinned to.
fn contiguous_reference(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    enc_out: &Tensor,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    let cache = DecoderCache::new_contiguous(store, params, cfg, enc_out);
    decode_reference(store, params, cfg, None, cache, prompt, max_len, opts).swap_remove(0)
}

/// One random multi-layer model + a few encoder outputs + its int8
/// decoder weights (quantized once, like an artifact would), built once
/// for the whole suite (equivalence properties hold for any weights).
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        cfg.n_dec_layers = 2;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 29);
        let encs: Vec<Tensor> = (0..3)
            .map(|i| encode_source(&store, &params, &cfg, &[SOS, 6 + i, 7 + 2 * i, 9, EOS]))
            .collect();
        let qw = QuantDecoderWeights::new(&store, &params);
        (cfg, store, params, encs, qw)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: arbitrary token walks, arbitrary page sizes → logits
    /// bitwise-equal to the contiguous layout at every single step, and no
    /// page outlives its cache.
    #[test]
    fn random_walks_match_contiguous_bitwise(
        page_rows in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(16)],
        tokens in proptest::collection::vec(1usize..24, 1..40),
        src in 0usize..3,
    ) {
        let (cfg, store, params, encs, qw) = fixture();
        let enc = &encs[src];
        let pool = PagePool::with_page_rows(cfg.d_head(), page_rows);
        let mut paged = DecoderCache::new_in_pool(store, params, cfg, enc, &pool);
        let mut reference = DecoderCache::new_contiguous(store, params, cfg, enc);
        for (step, &tok) in tokens.iter().enumerate() {
            let lp = decode_step(store, params, cfg, &mut paged, tok);
            let lr = decode_step(store, params, cfg, &mut reference, tok);
            prop_assert_eq!(lp, lr, "page_rows={} step={}", page_rows, step);
        }
        prop_assert!(pool.stats().pages_live > 0, "walk allocated pages");
        drop(paged);
        prop_assert_eq!(pool.stats().pages_live, 0, "pages leaked after drop");

        // The same walk through the int8 kernels: quantization must not
        // break the storage-equivalence invariant (bitwise, per step).
        let qpool = PagePool::with_page_rows(cfg.d_head(), page_rows);
        let mut qpaged = DecoderCache::new_in_pool(store, params, cfg, enc, &qpool);
        let mut qreference = DecoderCache::new_contiguous(store, params, cfg, enc);
        for (step, &tok) in tokens.iter().enumerate() {
            let lp = decode_step_quant(store, params, cfg, qw, &mut qpaged, tok);
            let lr = decode_step_quant(store, params, cfg, qw, &mut qreference, tok);
            prop_assert_eq!(lp, lr, "quant page_rows={} step={}", page_rows, step);
        }
        drop(qpaged);
        prop_assert_eq!(qpool.stats().pages_live, 0, "quant pages leaked after drop");
    }

    /// Property 2: random step/fork/drop interleavings over a shared pool.
    /// Ops decode as (kind, token, index): kind%4 ∈ {0,1 step, 2 fork,
    /// 3 drop}, so stepping is twice as likely as forking or dropping.
    #[test]
    fn random_fork_schedules_stay_bitwise_and_leak_free(
        page_rows in prop_oneof![Just(1usize), Just(3), Just(16)],
        ops in proptest::collection::vec(((0usize..4, 1usize..24), 0usize..8), 1..60),
    ) {
        let (cfg, store, params, encs, _) = fixture();
        let enc = &encs[0];
        let pool = PagePool::with_page_rows(cfg.d_head(), page_rows);
        let mut pairs = vec![(
            DecoderCache::new_in_pool(store, params, cfg, enc, &pool),
            DecoderCache::new_contiguous(store, params, cfg, enc),
        )];
        for ((kind, tok), idx) in ops {
            let i = idx % pairs.len();
            match kind {
                0 | 1 => {
                    let (paged, reference) = &mut pairs[i];
                    if paged.len() + 1 >= cfg.max_dec_len {
                        continue; // at capacity; stepping would panic
                    }
                    let lp = decode_step(store, params, cfg, paged, tok);
                    let lr = decode_step(store, params, cfg, reference, tok);
                    prop_assert_eq!(lp, lr, "cache {} diverged", i);
                }
                2 => {
                    if pairs.len() < 6 {
                        let fork = (pairs[i].0.clone(), pairs[i].1.clone());
                        pairs.push(fork);
                    }
                }
                _ => {
                    if pairs.len() > 1 {
                        pairs.swap_remove(i);
                    }
                }
            }
        }
        // Survivors must still agree after the churn.
        for (paged, reference) in &mut pairs {
            if paged.len() + 1 < cfg.max_dec_len {
                let lp = decode_step(store, params, cfg, paged, 5);
                let lr = decode_step(store, params, cfg, reference, 5);
                prop_assert_eq!(lp, lr, "post-churn divergence");
            }
        }
        drop(pairs);
        prop_assert_eq!(pool.stats().pages_live, 0, "pages leaked after churn");
    }
}

proptest! {
    // The scheduler property decodes up to 6 requests per case; fewer cases
    // keep the default run fast (CI elevates via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 3: random request schedules through `BatchDecoder` —
    /// arbitrary prompts, caps, beam widths, late joins — match the
    /// contiguous single-request reference exactly, and the pool drains.
    /// Each schedule runs **twice**: once in f32 and once through an
    /// `Int8` scheduler against the contiguous-quant reference —
    /// quantization must not break the storage-equivalence invariant.
    #[test]
    fn random_schedules_match_single_request_reference(
        specs in proptest::collection::vec(
            (
                (proptest::collection::vec(6usize..24, 0..4), 2usize..28),
                (0usize..4, 1usize..5),
                (0usize..6, 0usize..3),
            ),
            1..7,
        ),
    ) {
        let (cfg, store, params, encs, _) = fixture();
        let max_batch = 8usize; // ≥ the widest generated beam

        struct Spec {
            prompt: Vec<usize>,
            max_len: usize,
            opts: DecodeOptions,
            join: usize,
            src: usize,
        }
        let specs: Vec<Spec> = specs
            .into_iter()
            .map(|((extra, max_len), (min_len, beam), (join, src))| Spec {
                prompt: std::iter::once(SOS).chain(extra).collect(),
                max_len,
                opts: DecodeOptions { beam, min_len, ..Default::default() },
                join,
                src,
            })
            .collect();

        for precision in [Precision::F32, Precision::Int8] {
            let mut dec =
                BatchDecoder::with_precision(store, params, cfg, max_batch, precision);
            let pool = dec.pool().clone();
            let opts_at = |s: &Spec| DecodeOptions { precision, ..s.opts };

            let references: Vec<Vec<usize>> = specs
                .iter()
                .map(|s| {
                    contiguous_reference(
                        store, params, cfg, &encs[s.src], &s.prompt, s.max_len, opts_at(s),
                    )
                })
                .collect();

            // Late joins: requests are submitted at their join step while
            // the scheduler is already decoding earlier ones.
            let mut tickets: Vec<Option<RequestId>> = vec![None; specs.len()];
            let last_join = specs.iter().map(|s| s.join).max().unwrap_or(0);
            for t in 0..=last_join {
                for (i, s) in specs.iter().enumerate() {
                    if s.join == t {
                        tickets[i] = Some(dec.submit(BatchRequest {
                            enc_out: encs[s.src].clone(),
                            prompt: s.prompt.clone(),
                            max_len: s.max_len,
                            opts: opts_at(s),
                            submit: SubmitOptions::default(),
                        }));
                    }
                }
                dec.step();
            }
            dec.run();

            for (i, (ticket, want)) in tickets.iter().zip(&references).enumerate() {
                let got = dec
                    .poll(ticket.expect("submitted"))
                    .into_output()
                    .expect("retired");
                prop_assert_eq!(
                    &got, want,
                    "{:?} request {} (beam={} prompt_len={} max_len={})",
                    precision, i, specs[i].opts.beam, specs[i].prompt.len(), specs[i].max_len
                );
            }
            drop(dec);
            prop_assert_eq!(
                pool.stats().pages_live, 0,
                "{:?} scheduler leaked pages", precision
            );
        }
    }
}

proptest! {
    // Each case decodes two whole families per precision; few default
    // cases keep tier-1 fast (CI elevates via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 4: radix prefix sharing is bitwise-transparent. A family
    /// of near-identical prompts — one encoder output, random single-token
    /// edits of a shared base — decodes exactly like the contiguous
    /// single-request reference whether the members run concurrently (the
    /// scheduler may share pages mid-flight) or sequenced. The sequenced
    /// order makes the accounting deterministic: only the first member
    /// prefills cold; every later member finds the encoder group and
    /// shares at least the cross-attention projection (plus any
    /// page-aligned token prefix). The pool drains to zero either way.
    #[test]
    fn near_identical_prompt_families_share_bitwise(
        base_extra in proptest::collection::vec(6usize..24, 4..20),
        edits in proptest::collection::vec((1usize..20, 6usize..24), 1..5),
        src in 0usize..3,
    ) {
        let (cfg, store, params, encs, _) = fixture();
        let base: Vec<usize> = std::iter::once(SOS).chain(base_extra).collect();
        let mut family = vec![base.clone()];
        for (pos, val) in edits {
            let mut p = base.clone();
            let at = 1 + pos % (p.len() - 1);
            p[at] = val;
            family.push(p);
        }
        let max_len = (base.len() + 6).min(cfg.max_dec_len);
        for precision in [Precision::F32, Precision::Int8] {
            let opts = DecodeOptions { precision, ..Default::default() };
            let references: Vec<Vec<usize>> = family
                .iter()
                .map(|p| contiguous_reference(
                    store, params, cfg, &encs[src], p, max_len, opts,
                ))
                .collect();
            let request = |p: &Vec<usize>| BatchRequest {
                enc_out: encs[src].clone(),
                prompt: p.clone(),
                max_len,
                opts,
                submit: SubmitOptions::default(),
            };

            // Concurrent: the whole family in one batch. What gets shared
            // mid-flight is scheduler-internal; the tokens must not depend
            // on it.
            let mut dec = BatchDecoder::with_precision(store, params, cfg, 8, precision);
            let pool = dec.pool().clone();
            let got = dec.decode_all(family.iter().map(request).collect());
            prop_assert_eq!(
                &got, &references,
                "{:?}: concurrent radix sharing changed tokens", precision
            );
            drop(dec);
            prop_assert_eq!(
                pool.stats().pages_live, 0,
                "{:?}: concurrent family leaked pages", precision
            );

            // Sequenced: each member's retained prefill exists before the
            // next lookup, so the hit accounting is deterministic.
            let mut dec = BatchDecoder::with_precision(store, params, cfg, 8, precision);
            let pool = dec.pool().clone();
            for (p, want) in family.iter().zip(&references) {
                let id = dec.submit(request(p));
                dec.run();
                let got = dec.poll(id).into_output().expect("retired");
                prop_assert_eq!(
                    &got, want,
                    "{:?}: sequenced radix sharing changed tokens", precision
                );
            }
            let s = dec.prefix_stats();
            prop_assert_eq!(
                s.misses, 1,
                "{:?}: only the first family member prefills cold", precision
            );
            prop_assert_eq!(
                s.hits + s.partial_hits, family.len() as u64 - 1,
                "{:?}: every later member shares through the index", precision
            );
            drop(dec);
            prop_assert_eq!(
                pool.stats().pages_live, 0,
                "{:?}: sequenced family leaked pages", precision
            );
        }
    }
}
