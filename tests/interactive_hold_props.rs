//! Property harness for the engine's Interactive hold: while any
//! Interactive request is in flight, no unprotected Bulk group is admitted
//! or stepped anywhere in the fleet.
//!
//! What is pinned here:
//!
//! 1. **Random Interactive/Bulk/cancel schedules on {1, 2, 4} workers**, f32
//!    AND int8: every completed request is **bitwise identical** to the
//!    request decoded alone in a fresh `BatchDecoder`; while a wave's Interactive tickets are
//!    unresolved, a client polling the Bulk tickets never sees one gain more
//!    than the single token of a step already under way when the wave was
//!    submitted (held groups neither step nor get admitted); and the
//!    engine's in-flight count is 0 once the schedule drains.
//! 2. **A reservation holds every worker** — with bulk decoding on every
//!    worker, an [`InteractiveReservation`] freezes all of it (the encoder
//!    phase of a keystroke), and dropping it lets the same bulk finish
//!    bitwise unchanged.
//! 3. **Aging still bounds starvation** — under a continuous Interactive
//!    closed loop on 1 and 2 workers (a reservation keeps the count above
//!    zero for the whole run), every Bulk ticket completes, escaping the
//!    hold only through the aging bound: the steps it spent held count as
//!    waiting, so its recorded wait reaches the bound (and, on one worker,
//!    stops there).
//!
//! Case counts elevate via `PROPTEST_CASES` (CI runs the suite a second
//! time with a larger count).
//!
//! [`InteractiveReservation`]: mpirical_model::InteractiveReservation

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
use std::time::{Duration, Instant};

type Fixture = (
    ModelConfig,
    ParamStore,
    TransformerParams,
    Vec<Tensor>,
    Arc<EngineModel>,
    Arc<EngineModel>,
);

/// Bulk requests decode this many ids at most (prompt included).
const BULK_MAX_LEN: usize = 24;

/// An aging bound no schedule here reaches: every bulk group stays
/// unprotected, so the hold applies to all of it.
const NEVER_AGES: u64 = 1 << 40;

/// One random multi-layer model, a few encoder outputs, and prebuilt
/// f32/int8 engine bundles, built once for the whole suite.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        cfg.n_dec_layers = 2;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 61);
        let encs: Vec<Tensor> = (0..3)
            .map(|i| encode_source(&store, &params, &cfg, &[SOS, 6 + i, 9 + 2 * i, 7, EOS]))
            .collect();
        let model = |precision| {
            Arc::new(EngineModel::new(
                store.clone(),
                params.clone(),
                cfg.clone(),
                precision,
            ))
        };
        let (f32_model, int8_model) = (model(Precision::F32), model(Precision::Int8));
        (cfg, store, params, encs, f32_model, int8_model)
    })
}

/// Winner of the request decoded alone in a fresh `BatchDecoder`.
fn reference(enc: &Tensor, max_len: usize, opts: DecodeOptions) -> Vec<usize> {
    let (cfg, store, params, ..) = fixture();
    let mut dec = BatchDecoder::with_precision(store, params, cfg, opts.beam, opts.precision);
    let req = BatchRequest {
        enc_out: enc.clone(),
        prompt: vec![SOS],
        max_len,
        opts,
        submit: SubmitOptions::default(),
    };
    dec.decode_all(vec![req]).swap_remove(0)
}

/// A long greedy Bulk request (`min_len` keeps it decoding).
fn bulk_request(enc: &Tensor, min_len: usize, precision: Precision) -> (BatchRequest, Vec<usize>) {
    let opts = DecodeOptions {
        beam: 1,
        min_len,
        precision,
    };
    let req = BatchRequest {
        enc_out: enc.clone(),
        prompt: vec![SOS],
        max_len: BULK_MAX_LEN,
        opts,
        submit: SubmitOptions::bulk(),
    };
    (req, reference(enc, BULK_MAX_LEN, opts))
}

fn engine(model: &Arc<EngineModel>, workers: usize, aging_steps: u64) -> Engine {
    Engine::new(
        Arc::clone(model),
        EngineConfig {
            workers,
            max_batch: 8,
            aging_steps,
            seed: 7,
            ..EngineConfig::default()
        },
    )
}

/// Generated tokens a client can see for a ticket right now, redeeming
/// (and recording) a terminal state on the way. `None` while the ticket is
/// `Queued`: a preempted ticket keeps its tokens, but a poll does not show
/// them.
fn observe(
    engine: &Engine,
    ticket: EngineTicket,
    outcome: &mut Option<Option<Vec<usize>>>,
) -> Option<usize> {
    if let Some(done) = outcome {
        return Some(done.as_ref().map_or(0, Vec::len));
    }
    match engine.poll(ticket) {
        PollResult::Queued { .. } => None,
        PollResult::Decoding { tokens_so_far } => Some(tokens_so_far.len()),
        PollResult::Done { ids, .. } => {
            let n = ids.len();
            *outcome = Some(Some(ids));
            Some(n)
        }
        PollResult::Cancelled => {
            *outcome = Some(None);
            Some(0)
        }
        PollResult::Unknown => panic!("{ticket} became Unknown while pending"),
    }
}

/// [`observe`], counting a `Queued` ticket as no tokens — exact for a
/// ticket that has not been preempted, which is all the callers see.
fn tokens(
    engine: &Engine,
    ticket: EngineTicket,
    outcome: &mut Option<Option<Vec<usize>>>,
) -> usize {
    observe(engine, ticket, outcome).unwrap_or(0)
}

/// Assert every recorded outcome is the reference (or a cancellation the
/// schedule asked for).
fn check_outcomes(
    outcomes: &[Option<Option<Vec<usize>>>],
    wants: &[Vec<usize>],
    may_cancel: &[bool],
    label: &str,
) {
    for (i, (outcome, want)) in outcomes.iter().zip(wants).enumerate() {
        match outcome {
            Some(Some(ids)) => prop_assert_eq!(ids, want, "{}: request {} diverged", label, i),
            Some(None) => prop_assert!(may_cancel[i], "{}: request {} cancelled unasked", label, i),
            None => panic!("{label}: request {i} never resolved"),
        }
    }
}

/// `Option` strategy (the shim has no `proptest::option` module).
fn maybe(range: std::ops::Range<usize>) -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), range.prop_map(Some)]
}

proptest! {
    // Each case runs the schedule through 6 engines (3 worker counts × 2
    // precisions); few default cases keep tier-1 fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 1: random Interactive/Bulk/cancel schedules — bitwise
    /// outputs, no held bulk progress while a wave is in flight, and an
    /// in-flight count of 0 after the drain.
    #[test]
    fn random_schedules_hold_bulk_while_interactive_is_in_flight(
        bulk in proptest::collection::vec((6usize..20, 0usize..3), 1..5),
        waves in proptest::collection::vec(
            proptest::collection::vec(
                ((1usize..4, 0usize..6), (maybe(1..8), (any::<bool>(), 0usize..3))),
                1..3,
            ),
            1..4,
        ),
        cancel_bulk in maybe(0..4),
    ) {
        let (_, _, _, encs, f32_model, int8_model) = fixture();
        for (precision, model) in [(Precision::F32, f32_model), (Precision::Int8, int8_model)] {
            // Every request in submission order: bulk first, then the waves.
            let mut requests: Vec<BatchRequest> = Vec::new();
            let mut wants: Vec<Vec<usize>> = Vec::new();
            let mut may_cancel: Vec<bool> = Vec::new();
            for (k, &(min_len, src)) in bulk.iter().enumerate() {
                let (req, want) = bulk_request(&encs[src], min_len, precision);
                requests.push(req);
                wants.push(want);
                may_cancel.push(cancel_bulk.is_some_and(|c| c % bulk.len() == k));
            }
            let mut wave_of: Vec<Vec<usize>> = Vec::new();
            for wave in &waves {
                let mut members = Vec::new();
                for &((beam, min_len), (max_new, (cancel, src))) in wave {
                    let max_len = 10;
                    let opts = DecodeOptions { beam, min_len, precision };
                    let mut submit = SubmitOptions::interactive();
                    submit.max_new_tokens = max_new;
                    let effective = max_new.map_or(max_len, |cap| max_len.min(1 + cap));
                    members.push(requests.len());
                    requests.push(BatchRequest {
                        enc_out: encs[src].clone(),
                        prompt: vec![SOS],
                        max_len,
                        opts,
                        submit,
                    });
                    wants.push(reference(&encs[src], effective, opts));
                    may_cancel.push(cancel);
                }
                wave_of.push(members);
            }

            for workers in [1usize, 2, 4] {
                let label = format!("{precision:?} {workers} workers");
                let engine = engine(model, workers, NEVER_AGES);
                let mut tickets: Vec<Option<EngineTicket>> = vec![None; requests.len()];
                let mut outcomes: Vec<Option<Option<Vec<usize>>>> = vec![None; requests.len()];
                // Each bulk ticket's latest visible count over the whole
                // run. A pending ticket never loses tokens (preemption
                // keeps them), so this stands in for the count a `Queued`
                // poll hides.
                let mut last: Vec<Option<usize>> = vec![None; bulk.len()];
                for (i, req) in requests.iter().enumerate().take(bulk.len()) {
                    tickets[i] = Some(engine.submit(req.clone()));
                }
                for (w, members) in wave_of.iter().enumerate() {
                    if w == 1 {
                        // Aim the bulk cancel at a held (or queued) group.
                        if let Some(c) = cancel_bulk {
                            engine.cancel(tickets[c % bulk.len()].expect("submitted"));
                        }
                    }
                    for &i in members {
                        let t = engine.submit(requests[i].clone());
                        tickets[i] = Some(t);
                        if may_cancel[i] {
                            engine.cancel(t);
                        }
                    }
                    // The window: bulk progress observed while one of this
                    // wave's tickets is still pending (so the count is > 0
                    // throughout) may include one step already under way
                    // at submission, never more. The base is a ticket's
                    // count at its first poll in the window. A ticket
                    // `Queued` then takes its latest count seen before; if
                    // no worker has preempted anything yet, it was never
                    // admitted and has none. Only a preempted ticket never
                    // seen decoding falls back to its first visible count.
                    let mut first: Option<Vec<Option<usize>>> = None;
                    loop {
                        let seen: Vec<Option<usize>> = (0..bulk.len())
                            .map(|b| observe(&engine, tickets[b].expect("submitted"), &mut outcomes[b]))
                            .collect();
                        let bases = first.get_or_insert_with(|| {
                            let unadmitted = (engine.preemptions() == 0).then_some(0);
                            seen.iter().zip(&last).map(|(&n, &l)| n.or(l).or(unadmitted)).collect()
                        });
                        for (l, &n) in last.iter_mut().zip(&seen) {
                            *l = n.or(*l);
                        }
                        let mut open = false;
                        for &i in members {
                            observe(&engine, tickets[i].expect("submitted"), &mut outcomes[i]);
                            open |= outcomes[i].is_none();
                        }
                        if !open {
                            break;
                        }
                        for (b, &n) in seen.iter().enumerate() {
                            let Some(n) = n else { continue };
                            let base = *bases[b].get_or_insert(n);
                            prop_assert!(
                                n <= base + 1,
                                "{}: bulk {} went {} -> {} tokens while wave {} was in flight",
                                label, b, base, n, w
                            );
                        }
                        std::thread::yield_now();
                    }
                }
                engine.drain();
                prop_assert_eq!(
                    engine.interactive_in_flight(), 0,
                    "{}: count left raised after the drain", &label
                );
                for (i, t) in tickets.iter().enumerate() {
                    observe(&engine, t.expect("submitted"), &mut outcomes[i]);
                }
                check_outcomes(&outcomes, &wants, &may_cancel, &label);
                prop_assert_eq!(engine.shutdown().pages_live, 0, "{}: leaked pages", &label);
            }
        }
    }
}

/// Property 2: a reservation alone — the encoder phase of a keystroke,
/// before its ticket exists — holds the bulk work of every worker; once it
/// drops, the same bulk finishes bitwise unchanged and the count is 0.
#[test]
fn reservation_holds_every_worker() {
    let (_, _, _, encs, f32_model, _) = fixture();
    for workers in [1usize, 2, 4] {
        let engine = engine(f32_model, workers, NEVER_AGES);
        let (tickets, wants): (Vec<EngineTicket>, Vec<Vec<usize>>) = (0..2 * workers)
            .map(|i| {
                let (req, want) = bulk_request(&encs[i % encs.len()], 20, Precision::F32);
                (engine.submit(req), want)
            })
            .unzip();
        let mut outcomes = vec![None; tickets.len()];
        // Wait until every bulk ticket is decoding.
        let started = Instant::now();
        while tickets
            .iter()
            .zip(&mut outcomes)
            .any(|(&t, o)| tokens(&engine, t, o) == 0)
        {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "bulk never started"
            );
            std::thread::yield_now();
        }
        let reservation = engine.reserve_interactive();
        assert_eq!(engine.interactive_in_flight(), 1);
        let first: Vec<usize> = tickets
            .iter()
            .zip(&mut outcomes)
            .map(|(&t, o)| tokens(&engine, t, o))
            .collect();
        let frozen_until = Instant::now() + Duration::from_millis(30);
        while Instant::now() < frozen_until {
            for ((&t, o), &base) in tickets.iter().zip(&mut outcomes).zip(&first) {
                let n = tokens(&engine, t, o);
                assert!(
                    n <= base + 1,
                    "{workers} workers: bulk went {base} -> {n} tokens under a reservation"
                );
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(reservation);
        engine.drain();
        assert_eq!(engine.interactive_in_flight(), 0);
        for ((&t, o), want) in tickets.iter().zip(&mut outcomes).zip(&wants) {
            observe(&engine, t, o);
            assert_eq!(o.as_ref(), Some(&Some(want.clone())), "held bulk diverged");
        }
        assert_eq!(
            engine.shutdown().pages_live,
            0,
            "{workers} workers: leaked pages"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property 3: under a continuous Interactive closed loop every Bulk
    /// ticket still completes, escaping the hold only through the aging
    /// bound. Groups already decoding when the loop starts can only finish
    /// if the steps they spend held — stepped past on their own worker or
    /// sat out on a parked one — count toward aging; tickets submitted
    /// under the hold wait in the queue for at least the bound. On one
    /// worker the clock is the worker's own steps and that wait is exact;
    /// on two, a parked worker is woken by the fleet's step clock, and how
    /// many steps the other worker runs before the wake-up lands is up to
    /// the OS, so only the lower bound is pinned there.
    #[test]
    fn aging_bounds_bulk_starvation_under_an_interactive_closed_loop(
        aging in 4u64..16,
        bulk in proptest::collection::vec((10usize..20, 0usize..3), 2..7),
        workers in 1usize..3,
    ) {
        let (_, _, _, encs, f32_model, _) = fixture();
        let engine = engine(f32_model, workers, aging);
        // The first half starts decoding before the loop does (held groups
        // in lanes), the rest is submitted under the hold (gated queue
        // entries); either way the only escape is the aging bound.
        let split = bulk.len() / 2;
        let submit_bulk = |&(min_len, src): &(usize, usize)| {
            let (req, want) = bulk_request(&encs[src], min_len, Precision::F32);
            (engine.submit(req), want)
        };
        let (mut tickets, mut wants): (Vec<EngineTicket>, Vec<Vec<usize>>) =
            bulk[..split].iter().map(submit_bulk).unzip();
        let mut early = vec![None; split];
        while tickets.iter().zip(&mut early).any(|(&t, o)| tokens(&engine, t, o) == 0) {
            std::thread::yield_now();
        }
        // Held for the whole run, so the count never touches zero between
        // keystrokes: the loop below is continuous, not merely frequent.
        let reservation = engine.reserve_interactive();
        for spec in &bulk[split..] {
            let (t, want) = submit_bulk(spec);
            tickets.push(t);
            wants.push(want);
        }
        let keystroke_opts = DecodeOptions { beam: 1, min_len: 3, ..Default::default() };
        let mut waits: Vec<Option<u64>> = vec![None; tickets.len()];
        // A fast worker may finish an early group before the hold begins.
        for ((done, want), wait) in early.iter().zip(&wants).zip(&mut waits) {
            if let Some(ids) = done {
                prop_assert_eq!(ids.as_ref(), Some(want), "bulk diverged before the hold");
                *wait = Some(0);
            }
        }
        let mut keystrokes = 0usize;
        while waits.iter().any(Option::is_none) {
            prop_assert!(keystrokes < 2_000, "bulk starved under the closed loop");
            let src = keystrokes % encs.len();
            let ticket = engine.submit(BatchRequest {
                enc_out: encs[src].clone(),
                prompt: vec![SOS],
                max_len: 6,
                opts: keystroke_opts,
                submit: SubmitOptions::interactive(),
            });
            keystrokes += 1;
            loop {
                match engine.poll(ticket) {
                    PollResult::Done { ids, .. } => {
                        prop_assert_eq!(ids, reference(&encs[src], 6, keystroke_opts));
                        break;
                    }
                    PollResult::Queued { .. } | PollResult::Decoding { .. } => {
                        std::thread::yield_now()
                    }
                    other => panic!("keystroke resolved as {other:?}"),
                }
            }
            for ((&t, want), wait) in tickets.iter().zip(&wants).zip(&mut waits) {
                if wait.is_none() {
                    if let PollResult::Done { ids, telemetry, .. } = engine.poll(t) {
                        prop_assert_eq!(&ids, want, "bulk diverged under the hold");
                        *wait = Some(telemetry.queue_wait_steps);
                    }
                }
            }
        }
        for wait in waits.into_iter().flatten().skip(split) {
            prop_assert!(
                wait >= aging,
                "bulk admitted under the hold before aging: {} < {}", wait, aging
            );
            prop_assert!(
                workers > 1 || wait <= aging + 1,
                "queued bulk waited {} past a bound of {}", wait, aging
            );
        }
        drop(reservation);
        prop_assert_eq!(engine.interactive_in_flight(), 0);
        prop_assert_eq!(engine.shutdown().pages_live, 0, "leaked pages");
    }
}
