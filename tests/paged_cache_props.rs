//! Property-test harness for the paged KV cache (shims/proptest).
//!
//! Four properties over randomized decode schedules:
//!
//! 1. **Page size is invisible** — for arbitrary token walks and page
//!    sizes (including 1-row pages), a one-lane `decode_step_batch` on
//!    paged storage emits logits bit-for-bit equal to the same walk on a
//!    one-page pool (`PagePool::with_page_rows(d_head, max_dec_len)`: one
//!    contiguous slab per head).
//! 2. **Fork soundness** — under arbitrary interleavings of step / COW-fork
//!    / drop across a population of caches sharing one pool, every cache
//!    tracks its one-page twin bitwise, and the pool ends with zero live
//!    pages once all caches drop.
//! 3. **Scheduler equivalence** — random request mixes (prompt lengths,
//!    length caps, `min_len`, beam widths, late joins, early retirements,
//!    duplicate prompts) through `BatchDecoder` return exactly what each
//!    request decodes alone in a fresh `BatchDecoder`, again with zero
//!    leaked pages.
//!
//! 4. **Repeated sources** — families of near-identical prompts (one
//!    source, random single-token edits of a shared base) take their
//!    encoder output from an encoder table (`PrefixTable`): one forward
//!    runs, every later member hits, and each member decodes
//!    bitwise-equal to itself alone over a fresh forward, concurrently and
//!    sequenced; `prefilled_rows` counts every prompt row fed; the pool
//!    always drains to zero.
//!
//! Properties 1, 3 and 4 also run **quantized**: property 1 repeats each
//! random walk through the int8 projection kernels (`DecoderWeights::Int8`)
//! asserting paged-quant ≡ one-page-quant bitwise per step, and
//! properties 3 and 4 replay every random schedule through an `Int8`
//! scheduler against the request alone in an `Int8` scheduler —
//! quantization swaps the weight kernels but never touches the K/V storage
//! walk, so the storage-equivalence invariant must survive it unchanged.
//!
//! Case counts elevate via `PROPTEST_CASES` (CI runs the suite a second
//! time with a larger count).

use mpirical_model::decode::encode_source;
use mpirical_model::prefix::PrefixTable;
use mpirical_model::transformer::{build_params, TransformerParams};
use mpirical_model::vocab::{EOS, SOS};
use mpirical_model::{
    decode_step_batch, BatchDecoder, BatchRequest, BatchScratch, DecodeOptions, DecoderCache,
    DecoderWeights, ModelConfig, PagePool, Precision, RequestId, SubmitOptions,
};
use mpirical_tensor::{ParamStore, Tensor};
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::OnceLock;

struct Fixture {
    cfg: ModelConfig,
    store: ParamStore,
    params: TransformerParams,
    /// Encoder ids of a few sources, and their encoder outputs.
    srcs: Vec<Vec<usize>>,
    encs: Vec<Tensor>,
    /// Packed f32 and int8 decoder weights, prepared once like an artifact.
    f32: DecoderWeights,
    int8: DecoderWeights,
}

/// Winner of one request decoded alone in a fresh `BatchDecoder` — the
/// reference every schedule is pinned to.
fn alone(
    fx: &Fixture,
    enc_out: &Tensor,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    let mut dec =
        BatchDecoder::with_precision(&fx.store, &fx.params, &fx.cfg, opts.beam, opts.precision);
    dec.decode_all(vec![BatchRequest {
        enc_out: enc_out.clone().into(),
        prompt: prompt.to_vec(),
        max_len,
        opts,
        submit: SubmitOptions::default(),
    }])
    .swap_remove(0)
}

impl Fixture {
    /// A pool whose single page holds a whole generation.
    fn one_page_pool(&self) -> PagePool {
        PagePool::with_page_rows(self.cfg.d_head(), self.cfg.max_dec_len)
    }

    fn cache_in(&self, src: usize, pool: &PagePool) -> DecoderCache {
        DecoderCache::new_in_pool(&self.store, &self.params, &self.cfg, &self.encs[src], pool)
    }

    /// Feed `token` to `cache` alone: the one lane of a step.
    fn step(&self, w: &DecoderWeights, cache: &mut DecoderCache, token: usize) -> Vec<f32> {
        let mut logits = vec![0.0; self.cfg.vocab_size];
        let mut scratch = BatchScratch::new(&self.cfg, 1);
        let (store, params, cfg) = (&self.store, &self.params, &self.cfg);
        let (lanes, tokens) = (&mut [cache], &[token]);
        decode_step_batch(
            store,
            params,
            cfg,
            w,
            lanes,
            tokens,
            &mut scratch,
            &mut logits,
        );
        logits
    }
}

/// One random multi-layer model + a few encoder outputs + its packed and
/// int8 decoder weights, built once for the whole suite (equivalence
/// properties hold for any weights).
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        cfg.n_dec_layers = 2;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 29);
        let srcs: Vec<Vec<usize>> = (0..3)
            .map(|i| vec![SOS, 6 + i, 7 + 2 * i, 9, EOS])
            .collect();
        let encs: Vec<Tensor> = (srcs.iter())
            .map(|src| encode_source(&store, &params, &cfg, src))
            .collect();
        let f32 = DecoderWeights::for_precision(&store, &params, Precision::F32);
        let int8 = DecoderWeights::for_precision(&store, &params, Precision::Int8);
        Fixture {
            cfg,
            store,
            params,
            srcs,
            encs,
            f32,
            int8,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: arbitrary token walks, arbitrary page sizes → logits
    /// bitwise-equal to a one-page pool (the contiguous slab) at every
    /// single step, and no page outlives its cache.
    #[test]
    fn random_walks_match_contiguous_bitwise(
        page_rows in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(16)],
        tokens in proptest::collection::vec(1usize..24, 1..40),
        src in 0usize..3,
    ) {
        let fx = fixture();
        let pool = PagePool::with_page_rows(fx.cfg.d_head(), page_rows);
        let mut paged = fx.cache_in(src, &pool);
        let mut slab = fx.cache_in(src, &fx.one_page_pool());
        for (step, &tok) in tokens.iter().enumerate() {
            let lp = fx.step(&fx.f32, &mut paged, tok);
            let lr = fx.step(&fx.f32, &mut slab, tok);
            prop_assert_eq!(lp, lr, "page_rows={} step={}", page_rows, step);
        }
        prop_assert!(pool.stats().pages_live > 0, "walk allocated pages");
        drop(paged);
        prop_assert_eq!(pool.stats().pages_live, 0, "pages leaked after drop");

        // The same walk through the int8 kernels: quantization must not
        // break the storage-equivalence invariant (bitwise, per step).
        let qpool = PagePool::with_page_rows(fx.cfg.d_head(), page_rows);
        let mut qpaged = fx.cache_in(src, &qpool);
        let mut qslab = fx.cache_in(src, &fx.one_page_pool());
        for (step, &tok) in tokens.iter().enumerate() {
            let lp = fx.step(&fx.int8, &mut qpaged, tok);
            let lr = fx.step(&fx.int8, &mut qslab, tok);
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
        let fx = fixture();
        let pool = PagePool::with_page_rows(fx.cfg.d_head(), page_rows);
        let slab = fx.one_page_pool();
        let mut pairs = vec![(fx.cache_in(0, &pool), fx.cache_in(0, &slab))];
        for ((kind, tok), idx) in ops {
            let i = idx % pairs.len();
            match kind {
                0 | 1 => {
                    let (paged, reference) = &mut pairs[i];
                    if paged.len() + 1 >= fx.cfg.max_dec_len {
                        continue; // at capacity; stepping would panic
                    }
                    let lp = fx.step(&fx.f32, paged, tok);
                    let lr = fx.step(&fx.f32, reference, tok);
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
            if paged.len() + 1 < fx.cfg.max_dec_len {
                let lp = fx.step(&fx.f32, paged, 5);
                let lr = fx.step(&fx.f32, reference, 5);
                prop_assert_eq!(lp, lr, "post-churn divergence");
            }
        }
        drop(pairs);
        prop_assert_eq!(pool.stats().pages_live, 0, "pages leaked after churn");
        prop_assert_eq!(slab.stats().pages_live, 0, "one-page pool leaked after churn");
    }
}

proptest! {
    // The scheduler property decodes up to 6 requests per case; fewer cases
    // keep the default run fast (CI elevates via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 3: random request schedules through `BatchDecoder` —
    /// arbitrary prompts, caps, beam widths, late joins — match each
    /// request decoded alone exactly, and the pool drains. Each schedule
    /// runs **twice**: once in f32 and once through an `Int8` scheduler
    /// against the request alone in an `Int8` scheduler.
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
        let fx = fixture();
        let (cfg, store, params, encs) = (&fx.cfg, &fx.store, &fx.params, &fx.encs);
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
                .map(|s| alone(fx, &encs[s.src], &s.prompt, s.max_len, opts_at(s)))
                .collect();

            // Late joins: requests are submitted at their join step while
            // the scheduler is already decoding earlier ones.
            let mut tickets: Vec<Option<RequestId>> = vec![None; specs.len()];
            let last_join = specs.iter().map(|s| s.join).max().unwrap_or(0);
            for t in 0..=last_join {
                for (i, s) in specs.iter().enumerate() {
                    if s.join == t {
                        tickets[i] = Some(dec.submit(BatchRequest {
                            enc_out: encs[s.src].clone().into(),
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

    /// Property 4: a repeated source runs one encoder forward, and what
    /// the table hands back is bitwise-transparent. A family of
    /// near-identical prompts — one source, random single-token edits of a
    /// shared base — takes each member's encoder output from one table:
    /// the first lookup runs the forward, every later one hits and runs
    /// none. Every member decodes exactly like itself alone in a fresh
    /// scheduler over a fresh forward, whether the members run
    /// concurrently or sequenced, and every prompt row is prefilled. The
    /// pool drains to zero either way.
    #[test]
    fn near_identical_prompt_families_share_bitwise(
        base_extra in proptest::collection::vec(6usize..24, 4..20),
        edits in proptest::collection::vec((1usize..20, 6usize..24), 1..5),
        src in 0usize..3,
    ) {
        let fx = fixture();
        let (cfg, store, params, encs) = (&fx.cfg, &fx.store, &fx.params, &fx.encs);
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
                .map(|p| alone(fx, &encs[src], p, max_len, opts))
                .collect();
            // One table per precision, so each run counts its own forwards.
            let table = PrefixTable::new();
            let forwards = Cell::new(0u64);
            let forward = |ids: &[usize]| {
                forwards.set(forwards.get() + 1);
                encode_source(store, params, cfg, ids)
            };
            let request = |p: &Vec<usize>| BatchRequest {
                enc_out: table.encode(&fx.srcs[src], forward),
                prompt: p.clone(),
                max_len,
                opts,
                submit: SubmitOptions::default(),
            };
            let prompt_rows: u64 = family.iter().map(|p| p.len() as u64 - 1).sum();

            // Concurrent: the whole family in one batch.
            let mut dec = BatchDecoder::with_precision(store, params, cfg, 8, precision);
            let pool = dec.pool().clone();
            let got = dec.decode_all(family.iter().map(request).collect());
            prop_assert_eq!(
                &got, &references,
                "{:?}: a table hit changed tokens", precision
            );
            prop_assert_eq!(dec.prefilled_rows(), prompt_rows);
            drop(dec);
            prop_assert_eq!(
                pool.stats().pages_live, 0,
                "{:?}: concurrent family leaked pages", precision
            );
            let s = table.stats();
            prop_assert_eq!(
                (s.misses, forwards.get()), (1, 1),
                "{:?}: only the first family member runs the forward", precision
            );
            prop_assert_eq!(
                s.hits, family.len() as u64 - 1,
                "{:?}: every later member hits the table", precision
            );

            // Sequenced: each member admitted after the previous retired.
            let mut dec = BatchDecoder::with_precision(store, params, cfg, 8, precision);
            let pool = dec.pool().clone();
            for (p, want) in family.iter().zip(&references) {
                let id = dec.submit(request(p));
                dec.run();
                let got = dec.poll(id).into_output().expect("retired");
                prop_assert_eq!(
                    &got, want,
                    "{:?}: sequenced member changed tokens", precision
                );
            }
            prop_assert_eq!(dec.prefilled_rows(), prompt_rows);
            prop_assert_eq!(forwards.get(), 1, "{:?}: the entry stayed", precision);
            drop(dec);
            prop_assert_eq!(
                pool.stats().pages_live, 0,
                "{:?}: sequenced family leaked pages", precision
            );
        }
    }
}
