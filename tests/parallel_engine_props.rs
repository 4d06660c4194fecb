//! Property harness for the sharded multi-core serving engine
//! (`mpirical_model::engine`) and the scheduler features that ride with it
//! (EDF ordering, priority-aware page eviction).
//!
//! What is pinned here:
//!
//! 1. **Worker-count invariance** — random request schedules (prompt
//!    lengths, beams 1–4, priority classes, token caps, late joins,
//!    cancellations) run through engines with 1, 2, and 4 workers, in f32
//!    AND int8. Every request that completes must be **bitwise identical**
//!    to the same request decoded alone in a fresh `BatchDecoder` — the
//!    same oracle `tests/serving_props.rs` uses — which transitively
//!    pins every pair of worker counts to each other. The suite forces the
//!    intra-step lane parallelism on (`MPIRICAL_LANE_PAR`), so the
//!    threaded per-lane attention path is exercised even at these tiny
//!    shapes. After drain + shutdown, **every worker's pool reports zero
//!    live pages**.
//! 2. **Seeded determinism** — the same engine seed, worker count, and
//!    interactive submission sequence reproduce the exact same
//!    telemetry-visible placement (`Engine::placements`), twice.
//! 3. **Concurrency hammer** — 8 client threads submit/cancel/poll against
//!    one 4-worker engine; every completion is still bitwise pinned to the
//!    reference and no page leaks. Iterations elevate via `HAMMER_ITERS`
//!    (the CI stress job raises it; tier-1 keeps it small).
//! 4. **Priority-aware eviction** — under a soft page limit, bulk groups
//!    are evicted before interactive ones (interactive telemetry shows
//!    zero evictions), evicted work replays to a bitwise-identical result,
//!    and the pool still drains to zero.
//! 5. **EDF + aging** — earlier deadlines admit first within a priority
//!    class, and a proptest over adversarial early-deadline interactive
//!    streams shows aging still bounds bulk starvation.
//! 6. **The encoder table in front of the fleet** — families of
//!    near-identical prompts over a repeated source (random single-token
//!    edits of a shared base), each member encoded through
//!    `Engine::encode`, stay bitwise pinned to the reference over a fresh
//!    forward at every worker count and precision; the first encode runs
//!    the forward and every later one hits, whichever worker decodes the
//!    member, concurrently or sequenced; every run leaves zero live pages.
//!
//! Case counts elevate via `PROPTEST_CASES` (CI runs the suite a second
//! time with a larger count).

use mpirical_model::decode::encode_source;
use mpirical_model::transformer::{build_params, TransformerParams};
use mpirical_model::vocab::{EOS, SOS};
use mpirical_model::{
    BatchDecoder, BatchRequest, DecodeOptions, Engine, EngineConfig, EngineModel, EngineTicket,
    ModelConfig, PollResult, Precision, SubmitOptions,
};
use mpirical_tensor::{ParamStore, Tensor};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

type Fixture = (
    ModelConfig,
    ParamStore,
    TransformerParams,
    Vec<Tensor>,
    Arc<EngineModel>,
    Arc<EngineModel>,
);

/// Encoder ids of the fixture's encoder output `i`.
fn src_ids(i: usize) -> Vec<usize> {
    vec![SOS, 6 + i, 8 + 2 * i, 9, EOS]
}

/// Winner of one request decoded alone in a fresh `BatchDecoder` — the
/// oracle every schedule is pinned to.
fn alone(
    store: &ParamStore,
    params: &TransformerParams,
    cfg: &ModelConfig,
    enc_out: &Tensor,
    prompt: &[usize],
    max_len: usize,
    opts: DecodeOptions,
) -> Vec<usize> {
    let mut dec = BatchDecoder::with_precision(store, params, cfg, opts.beam, opts.precision);
    dec.decode_all(vec![BatchRequest {
        enc_out: enc_out.clone(),
        prompt: prompt.to_vec(),
        max_len,
        opts,
        submit: SubmitOptions::default(),
    }])
    .swap_remove(0)
}

/// One random multi-layer model, a few encoder outputs, and prebuilt
/// f32/int8 engine bundles, built once for the whole suite (the
/// equivalence properties hold for any weights).
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        // Force the intra-step lane parallelism on before the first decode
        // anywhere in this process: the threshold would otherwise keep
        // these tiny shapes serial and the threaded per-lane path untested.
        // (Read once via OnceLock in the model crate; every test funnels
        // through this fixture first.)
        std::env::set_var("MPIRICAL_LANE_PAR", "2");
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        cfg.n_dec_layers = 2;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 47);
        let encs: Vec<Tensor> = (0..3)
            .map(|i| encode_source(&store, &params, &cfg, &src_ids(i)))
            .collect();
        let f32_model = Arc::new(EngineModel::new(
            store.clone(),
            params.clone(),
            cfg.clone(),
            Precision::F32,
        ));
        let int8_model = Arc::new(EngineModel::new(
            store.clone(),
            params.clone(),
            cfg.clone(),
            Precision::Int8,
        ));
        (cfg, store, params, encs, f32_model, int8_model)
    })
}

/// One randomized request: decode shape, class, token cap, submission
/// wave, and an optional cancellation wave.
#[derive(Debug, Clone)]
struct Spec {
    prompt: Vec<usize>,
    max_len: usize,
    opts: DecodeOptions,
    bulk: bool,
    max_new: Option<usize>,
    join: usize,
    cancel_at: Option<usize>,
    src: usize,
}

impl Spec {
    fn effective_max_len(&self) -> usize {
        match self.max_new {
            Some(cap) => self.max_len.min(self.prompt.len() + cap),
            None => self.max_len,
        }
    }

    fn request(&self, enc: &Tensor, precision: Precision) -> BatchRequest {
        let mut submit = if self.bulk {
            SubmitOptions::bulk()
        } else {
            SubmitOptions::interactive()
        };
        submit.max_new_tokens = self.max_new;
        BatchRequest {
            enc_out: enc.clone(),
            prompt: self.prompt.clone(),
            max_len: self.max_len,
            opts: DecodeOptions {
                precision,
                ..self.opts
            },
            submit,
        }
    }

    fn reference(
        &self,
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        enc: &Tensor,
        precision: Precision,
    ) -> Vec<usize> {
        alone(
            store,
            params,
            cfg,
            enc,
            &self.prompt,
            self.effective_max_len(),
            DecodeOptions {
                precision,
                ..self.opts
            },
        )
    }
}

/// Run one schedule through an engine: submit in join-wave order, fire the
/// wave's cancellations, drain, collect each request's outcome
/// (`Some(ids)` finished / `None` cancelled), and verify shutdown leaves
/// zero live pages on every worker's pool.
fn run_engine_schedule(
    model: &Arc<EngineModel>,
    specs: &[Spec],
    encs: &[Tensor],
    precision: Precision,
    workers: usize,
) -> Vec<Option<Vec<usize>>> {
    let engine = Engine::new(
        Arc::clone(model),
        EngineConfig {
            workers,
            max_batch: 8, // ≥ the widest generated beam
            aging_steps: 6,
            seed: 42,
            ..EngineConfig::default()
        },
    );
    let mut tickets: Vec<Option<EngineTicket>> = vec![None; specs.len()];
    let last_wave = specs
        .iter()
        .flat_map(|s| [s.join, s.cancel_at.unwrap_or(0)])
        .max()
        .unwrap_or(0);
    for wave in 0..=last_wave {
        for (i, s) in specs.iter().enumerate() {
            if s.join == wave {
                tickets[i] = Some(engine.submit(s.request(&encs[s.src], precision)));
            }
            if s.cancel_at == Some(wave) {
                // Aim the cancel wherever the engine put the request by
                // now: front-end queue, a worker's scheduler, mid-decode,
                // or already finished (refused).
                if let Some(t) = tickets[i] {
                    engine.cancel(t);
                }
            }
        }
    }
    engine.drain();
    assert_eq!(engine.pending(), 0, "drain() left requests pending");
    let outcomes = tickets
        .iter()
        .map(|t| {
            let t = t.expect("all specs submitted");
            match engine.poll(t) {
                PollResult::Done { ids, .. } => Some(ids),
                PollResult::Cancelled => None,
                other => panic!("{workers}-worker engine lost {t}: {other:?}"),
            }
        })
        .collect();
    assert_eq!(
        engine.shutdown().pages_live,
        0,
        "{workers}-worker engine leaked pages"
    );
    outcomes
}

/// `Option` strategy (the shim has no `proptest::option` module).
fn maybe(range: std::ops::Range<usize>) -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), range.prop_map(Some)]
}

proptest! {
    // Each case decodes up to 6 requests through 6 engines (3 worker
    // counts × 2 precisions); few default cases keep tier-1 fast (CI
    // elevates via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1: random schedules are bitwise reference-equivalent at
    /// every worker count and precision, and every pool drains to zero.
    #[test]
    fn random_schedules_are_worker_count_invariant(
        specs in proptest::collection::vec(
            (
                (proptest::collection::vec(6usize..24, 0..4), 2usize..24),
                ((0usize..4, 1usize..5), (any::<bool>(), maybe(0..10))),
                ((0usize..4, maybe(0..4)), 0usize..3),
            ),
            1..7,
        ),
    ) {
        let (cfg, store, params, encs, f32_model, int8_model) = fixture();
        let specs: Vec<Spec> = specs
            .into_iter()
            .map(|((extra, max_len), ((min_len, beam), (bulk, max_new)), ((join, cancel_at), src))| {
                Spec {
                    prompt: std::iter::once(SOS).chain(extra).collect(),
                    max_len,
                    opts: DecodeOptions { beam, min_len, ..Default::default() },
                    bulk,
                    max_new,
                    join,
                    cancel_at,
                    src,
                }
            })
            .collect();

        for (precision, model) in [
            (Precision::F32, f32_model),
            (Precision::Int8, int8_model),
        ] {
            let references: Vec<Vec<usize>> = specs
                .iter()
                .map(|s| s.reference(store, params, cfg, &encs[s.src], precision))
                .collect();
            for workers in [1usize, 2, 4] {
                let outcomes = run_engine_schedule(model, &specs, encs, precision, workers);
                for (i, (outcome, want)) in outcomes.iter().zip(&references).enumerate() {
                    // A cancelled request may still have completed (the
                    // race is documented); a completed one must be bitwise
                    // pinned to the single-request reference — which pins
                    // all worker counts to each other transitively.
                    if let Some(ids) = outcome {
                        prop_assert_eq!(
                            ids, want,
                            "{:?} {} workers, request {} (bulk={} beam={}): sharding \
                             changed the tokens",
                            precision, workers, i, specs[i].bulk, specs[i].opts.beam
                        );
                    } else {
                        prop_assert!(
                            specs[i].cancel_at.is_some(),
                            "request {} cancelled without a cancel in the schedule", i
                        );
                    }
                }
            }
        }
    }
}

/// Property 2: seeded determinism — same seed + worker count + interactive
/// submission sequence ⇒ identical placement, run twice, for every worker
/// count; and outputs stay pinned to the reference throughout.
#[test]
fn seeded_schedules_place_deterministically() {
    let (cfg, store, params, encs, f32_model, _) = fixture();
    // A fixed interactive-only schedule with mixed beam widths (bulk
    // placement is work-stealing — timing-reactive by design — so the
    // determinism contract is scoped to front-end placement).
    let beams = [1usize, 2, 1, 4, 1, 2, 1, 1, 3, 1, 2, 1];
    for workers in [1usize, 2, 4] {
        let run = |seed: u64| {
            let engine = Engine::new(
                Arc::clone(f32_model),
                EngineConfig {
                    workers,
                    max_batch: 4,
                    seed,
                    ..EngineConfig::default()
                },
            );
            let tickets: Vec<EngineTicket> = beams
                .iter()
                .enumerate()
                .map(|(i, &beam)| {
                    let mut req = BatchRequest::beam(encs[i % encs.len()].clone(), 14, beam);
                    req.opts.min_len = 0;
                    engine.submit(req)
                })
                .collect();
            engine.drain();
            for (i, t) in tickets.into_iter().enumerate() {
                let src = i % encs.len();
                let want = alone(
                    store,
                    params,
                    cfg,
                    &encs[src],
                    &[SOS],
                    14,
                    DecodeOptions {
                        beam: beams[i],
                        min_len: 0,
                        ..Default::default()
                    },
                );
                match engine.poll(t) {
                    PollResult::Done { ids, .. } => {
                        assert_eq!(ids, want, "workers={workers} request {i}")
                    }
                    other => panic!("request {i} unfinished: {other:?}"),
                }
            }
            let placements = engine.placements();
            assert_eq!(engine.shutdown().pages_live, 0, "a worker leaked pages");
            placements
        };
        let first = run(1234);
        let second = run(1234);
        assert_eq!(
            first, second,
            "workers={workers}: same seed + schedule must replay the same placement"
        );
    }
}

/// Property 3: the concurrency hammer — 8 client threads submit, cancel,
/// and poll against one 4-worker engine. Every completion is bitwise
/// pinned to the reference, every ticket resolves, and no pool leaks.
/// `HAMMER_ITERS` elevates the per-thread iteration count (CI stress job).
#[test]
fn hammer_concurrent_clients_are_race_free() {
    let (cfg, store, params, encs, f32_model, _) = fixture();
    let iters: usize = std::env::var("HAMMER_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let references: Vec<Vec<usize>> = encs
        .iter()
        .map(|e| alone(store, params, cfg, e, &[SOS], 12, DecodeOptions::default()))
        .collect();
    let engine = Engine::new(
        Arc::clone(f32_model),
        EngineConfig {
            workers: 4,
            max_batch: 4,
            ..EngineConfig::default()
        },
    );
    crossbeam::scope(|scope| {
        for client in 0..8usize {
            let engine = &engine;
            let encs = &encs;
            let references = &references;
            scope.spawn(move |_| {
                for i in 0..iters {
                    let src = (client + i) % encs.len();
                    let mut req = BatchRequest::greedy(encs[src].clone(), 12);
                    if (client + i) % 2 == 0 {
                        req = req.bulk();
                    }
                    let ticket = engine.submit(req);
                    let try_cancel = (client * 7 + i) % 3 == 0;
                    if try_cancel {
                        engine.cancel(ticket);
                    }
                    loop {
                        match engine.poll(ticket) {
                            PollResult::Done { ids, .. } => {
                                assert_eq!(
                                    ids, references[src],
                                    "client {client} iter {i}: concurrent load changed tokens"
                                );
                                break;
                            }
                            PollResult::Cancelled => {
                                assert!(try_cancel, "spurious cancellation");
                                break;
                            }
                            PollResult::Queued { .. } | PollResult::Decoding { .. } => {
                                std::thread::yield_now();
                            }
                            PollResult::Unknown => {
                                panic!("client {client} iter {i}: live ticket became Unknown")
                            }
                        }
                    }
                }
            });
        }
    })
    .expect("hammer clients do not panic");
    engine.drain();
    assert_eq!(engine.pending(), 0);
    assert_eq!(
        engine.shutdown().pages_live,
        0,
        "a worker leaked pages under hammer"
    );
}

/// Property 4: priority-aware eviction under a soft page limit. Bulk
/// groups admitted first are evicted when protected (interactive) work
/// needs the pool; interactive requests record zero evictions; evicted
/// bulk replays to bitwise-identical output; the pool drains.
#[test]
fn eviction_prefers_bulk_and_replays_bitwise() {
    let (cfg, store, params, encs, _, _) = fixture();
    let mut dec = BatchDecoder::new(store, params, cfg, 4);
    dec.set_aging_steps(8);
    // Small enough that 3 long-lived bulk lanes + interactive prefill
    // exceed it; large enough that a lone group fits comfortably.
    dec.set_page_limit(Some(10));
    let pool = dec.pool().clone();

    let long = DecodeOptions {
        beam: 1,
        min_len: 12,
        ..Default::default()
    };
    let bulk_ids: Vec<_> = (0..3)
        .map(|i| {
            dec.submit(BatchRequest {
                enc_out: encs[i % encs.len()].clone(),
                prompt: vec![SOS],
                max_len: 20,
                opts: long,
                submit: SubmitOptions::bulk(),
            })
        })
        .collect();
    // Let the bulk groups admit and grow their KV past the soft limit
    // (no protected group exists yet, so nothing is evicted).
    for _ in 0..6 {
        dec.step();
    }
    assert_eq!(dec.evictions(), 0, "no eviction without protected work");

    let interactive_ids: Vec<_> = (0..2)
        .map(|i| {
            dec.submit(BatchRequest {
                enc_out: encs[i].clone(),
                prompt: vec![SOS],
                max_len: 20,
                opts: long,
                submit: SubmitOptions::interactive(),
            })
        })
        .collect();
    let mut steps = 0;
    while dec.step() > 0 {
        steps += 1;
        assert!(steps < 4000, "eviction schedule failed to drain");
    }
    assert!(
        dec.evictions() >= 1,
        "interactive pressure over the page limit must evict bulk"
    );

    for (i, id) in interactive_ids.into_iter().enumerate() {
        match dec.poll(id) {
            PollResult::Done { ids, telemetry, .. } => {
                assert_eq!(
                    telemetry.evictions, 0,
                    "interactive request {i} must never be evicted"
                );
                let want = alone(store, params, cfg, &encs[i], &[SOS], 20, long);
                assert_eq!(ids, want, "interactive request {i} diverged");
            }
            other => panic!("interactive request {i} unfinished: {other:?}"),
        }
    }
    let mut evicted_any = false;
    for (i, id) in bulk_ids.into_iter().enumerate() {
        match dec.poll(id) {
            PollResult::Done { ids, telemetry, .. } => {
                evicted_any |= telemetry.evictions > 0;
                let want = alone(store, params, cfg, &encs[i % encs.len()], &[SOS], 20, long);
                assert_eq!(
                    ids, want,
                    "bulk request {i} (evictions={}) must replay bitwise",
                    telemetry.evictions
                );
            }
            other => panic!("bulk request {i} unfinished: {other:?}"),
        }
    }
    assert!(evicted_any, "at least one bulk request saw an eviction");
    drop(dec);
    assert_eq!(pool.stats().pages_live, 0, "eviction schedule leaked pages");
}

/// Property 5a: EDF ordering — within one priority class, queued requests
/// are ranked by deadline stamp (earlier first, `None` last), visible via
/// `Queued { position }` before any admission.
#[test]
fn earlier_deadlines_rank_first_within_a_class() {
    let (cfg, store, params, encs, _, _) = fixture();
    let mut dec = BatchDecoder::new(store, params, cfg, 1);
    let submit_with = |deadline: Option<u64>| {
        let mut s = SubmitOptions::bulk();
        s.deadline = deadline;
        s
    };
    // Occupy the single lane so the deadline trio stays queued.
    let running = dec.submit(BatchRequest::greedy(encs[0].clone(), 18));
    dec.step();
    let late = dec.submit(BatchRequest {
        enc_out: encs[0].clone(),
        prompt: vec![SOS],
        max_len: 8,
        opts: DecodeOptions::default(),
        submit: submit_with(Some(7)),
    });
    let early = dec.submit(BatchRequest {
        enc_out: encs[1].clone(),
        prompt: vec![SOS],
        max_len: 8,
        opts: DecodeOptions::default(),
        submit: submit_with(Some(3)),
    });
    let never = dec.submit(BatchRequest {
        enc_out: encs[2].clone(),
        prompt: vec![SOS],
        max_len: 8,
        opts: DecodeOptions::default(),
        submit: submit_with(None),
    });
    // Submission order was 7, 3, None — EDF must rank 3 < 7 < None.
    assert_eq!(dec.poll(early), PollResult::Queued { position: 0 });
    assert_eq!(dec.poll(late), PollResult::Queued { position: 1 });
    assert_eq!(dec.poll(never), PollResult::Queued { position: 2 });
    dec.run();
    for id in [running, late, early, never] {
        assert!(
            matches!(dec.poll(id), PollResult::Done { .. }),
            "{id} did not finish"
        );
    }
}

/// Property 5b (mechanism): once aged, a deadline-less bulk request
/// outranks even a *fresh* interactive carrying the earliest possible
/// deadline — aging beats EDF, which is exactly what prevents an
/// adversarial deadline stream from starving bulk forever.
#[test]
fn aged_bulk_outranks_fresh_earliest_deadline() {
    let (cfg, store, params, encs, _, _) = fixture();
    let aging = 4u64;
    let mut dec = BatchDecoder::new(store, params, cfg, 1);
    dec.set_aging_steps(aging);
    // Hold the single lane long enough that nothing below gets admitted
    // (interactive work never preempts interactive work).
    let running = dec.submit(BatchRequest {
        enc_out: encs[0].clone(),
        prompt: vec![SOS],
        max_len: 18,
        opts: DecodeOptions {
            min_len: 10,
            ..Default::default()
        },
        submit: SubmitOptions::interactive(),
    });
    dec.step();
    let bulk = dec.submit(BatchRequest {
        enc_out: encs[1].clone(),
        prompt: vec![SOS],
        max_len: 6,
        opts: DecodeOptions::default(),
        submit: SubmitOptions::bulk(),
    });
    assert_eq!(dec.poll(bulk), PollResult::Queued { position: 0 });
    for _ in 0..=aging {
        dec.step();
    }
    // The adversary arrives fresh with the earliest possible deadline —
    // and still ranks behind the aged bulk request.
    let mut submit = SubmitOptions::interactive();
    submit.deadline = Some(0);
    let urgent = dec.submit(BatchRequest {
        enc_out: encs[2].clone(),
        prompt: vec![SOS],
        max_len: 6,
        opts: DecodeOptions::default(),
        submit,
    });
    assert_eq!(
        dec.poll(bulk),
        PollResult::Queued { position: 0 },
        "aged bulk must outrank a fresh earliest-deadline interactive"
    );
    assert_eq!(dec.poll(urgent), PollResult::Queued { position: 1 });
    dec.run();
    for id in [running, bulk, urgent] {
        assert!(
            matches!(dec.poll(id), PollResult::Done { .. }),
            "{id} did not finish"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 5b (bound): under an adversarial stream of ever-earlier
    /// interactive deadlines, a queued bulk request's wait stays bounded
    /// by the aging threshold plus the total submitted interactive work —
    /// linear in the schedule, never indefinite. (Queued interactives age
    /// too and aged-EDF ranks their explicit deadlines ahead of the
    /// deadline-less bulk, so the per-request bound is the total backlog,
    /// not one request's length; the mechanism test above pins the
    /// class-ordering half.)
    #[test]
    fn aging_bounds_starvation_under_adversarial_deadlines(
        int_lens in proptest::collection::vec(2usize..10, 4..10),
    ) {
        let (cfg, store, params, encs, _, _) = fixture();
        let aging = 5u64;
        let total_int_work: u64 = int_lens.iter().map(|&l| l as u64 + 3).sum();
        let mut dec = BatchDecoder::new(store, params, cfg, 1);
        dec.set_aging_steps(aging);
        let bulk = dec.submit(BatchRequest {
            enc_out: encs[0].clone(),
            prompt: vec![SOS],
            max_len: 8,
            opts: DecodeOptions::default(),
            submit: SubmitOptions::bulk(),
        });
        // Adversary: every step, inject an interactive request whose
        // deadline is *earlier* than every previous one. Pure EDF would
        // never admit the (deadline-less, lower-class) bulk request.
        let mut next_deadline = int_lens.len() as u64 + 10;
        for &len in &int_lens {
            next_deadline -= 1;
            let mut submit = SubmitOptions::interactive();
            submit.deadline = Some(next_deadline);
            dec.submit(BatchRequest {
                enc_out: encs[1].clone(),
                prompt: vec![SOS],
                max_len: len.max(2),
                opts: DecodeOptions {
                    min_len: len.saturating_sub(1),
                    ..Default::default()
                },
                submit,
            });
            dec.step();
        }
        dec.run();
        match dec.poll(bulk) {
            PollResult::Done { telemetry, .. } => {
                let bound = aging + total_int_work + 8;
                prop_assert!(
                    telemetry.queue_wait_steps <= bound,
                    "bulk starved: waited {} > bound {} (aging {} + total \
                     interactive work {})",
                    telemetry.queue_wait_steps, bound, aging, total_int_work
                );
            }
            other => panic!("bulk request unfinished: {other:?}"),
        }
    }
}

proptest! {
    // Each case decodes the family through 8 engines (3 worker counts + a
    // sequenced run, × 2 precisions); few default cases keep tier-1 fast
    // (CI elevates via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 6: the encoder table is bitwise-transparent at every
    /// worker count. Each family member takes its encoder output from
    /// `Engine::encode` over one repeated source, so the first member runs
    /// the forward and every later one hits — on the calling thread, before
    /// any worker sees the request — and the tokens must equal the member
    /// decoded alone over a fresh forward, whether the members decode
    /// concurrently or sequenced across workers.
    #[test]
    fn radix_sharing_is_worker_count_invariant(
        base_extra in proptest::collection::vec(6usize..24, 4..16),
        edits in proptest::collection::vec((1usize..16, 6usize..24), 1..5),
        src in 0usize..3,
    ) {
        let (cfg, store, params, encs, f32_model, int8_model) = fixture();
        let base: Vec<usize> = std::iter::once(SOS).chain(base_extra).collect();
        let mut family = vec![base.clone()];
        for (pos, val) in edits {
            let mut p = base.clone();
            let at = 1 + pos % (p.len() - 1);
            p[at] = val;
            family.push(p);
        }
        let max_len = (base.len() + 6).min(cfg.max_dec_len);
        for (precision, model) in [
            (Precision::F32, f32_model),
            (Precision::Int8, int8_model),
        ] {
            let opts = DecodeOptions { precision, ..Default::default() };
            let references: Vec<Vec<usize>> = family
                .iter()
                .map(|p| alone(
                    store, params, cfg, &encs[src], p, max_len, opts,
                ))
                .collect();
            let request = |engine: &Engine, p: &Vec<usize>| BatchRequest {
                enc_out: engine.encode(&src_ids(src)),
                prompt: p.clone(),
                max_len,
                opts,
                submit: SubmitOptions::default(),
            };
            let hits = family.len() as u64 - 1;
            for workers in [1usize, 2, 4] {
                let engine = Engine::new(
                    Arc::clone(model),
                    EngineConfig { workers, max_batch: 4, ..EngineConfig::default() },
                );
                let reqs = family.iter().map(|p| request(&engine, p)).collect();
                let got = engine.decode_all(reqs);
                prop_assert_eq!(
                    &got, &references,
                    "{:?} {} workers: a table hit changed tokens", precision, workers
                );
                let s = engine.prefix_stats();
                prop_assert_eq!(
                    (s.misses, s.hits), (1, hits),
                    "{:?} {} workers: one forward, then hits", precision, workers
                );
                prop_assert_eq!(
                    engine.shutdown().pages_live, 0,
                    "{:?} {} workers: leaked pages", precision, workers
                );
            }

            // Sequenced across 2 workers: any worker may serve any member,
            // and each is encoded only after the previous one retired.
            let engine = Engine::new(
                Arc::clone(model),
                EngineConfig { workers: 2, max_batch: 4, ..EngineConfig::default() },
            );
            for (p, want) in family.iter().zip(&references) {
                let ticket = engine.submit(request(&engine, p));
                engine.drain();
                match engine.poll(ticket) {
                    PollResult::Done { ids, .. } => prop_assert_eq!(
                        &ids, want,
                        "{:?} sequenced: a table hit changed tokens", precision
                    ),
                    other => panic!("sequenced member unfinished: {other:?}"),
                }
            }
            let s = engine.prefix_stats();
            prop_assert_eq!(
                (s.misses, s.hits), (1, hits),
                "{:?} sequenced: one forward, then hits", precision
            );
            prop_assert_eq!(
                s.prefilled_rows,
                family.iter().map(|p| p.len() as u64 - 1).sum::<u64>(),
                "{:?} sequenced: every prompt row is prefilled", precision
            );
            prop_assert_eq!(
                engine.shutdown().pages_live, 0,
                "{:?} sequenced: leaked pages", precision
            );
        }
    }
}
