//! Property-test harness for the v2 serving scheduler (shims/proptest):
//! random priority mixes with preemption and cancellation interleavings
//! through `BatchDecoder`.
//!
//! Two properties:
//!
//! 1. **Schedule equivalence + teardown hygiene** — random request mixes
//!    (prompt lengths, length caps, `min_len`, beam widths 1–4, priority
//!    classes, per-request token caps, late joins, cancellations aimed at
//!    queued / decoding / finished / never-submitted tickets) run through a
//!    priority scheduler with a small aging bound. Every surviving
//!    request's output must be **bitwise identical** both to the same
//!    request decoded alone in a fresh `BatchDecoder` and to the same
//!    schedule replayed through a FIFO scheduler (all requests
//!    submitted interactive, no cancellations — the v1 admission policy):
//!    priorities, preemption, aging, and cancellation are scheduling
//!    decisions, never numerical ones. Cancelled requests poll
//!    `Cancelled` exactly once, the scheduler drains within a finite step
//!    budget (no preemption livelock / starvation under the aging bound),
//!    and every schedule — including cancel-mid-flight — ends with **zero
//!    live pages**. Each schedule runs in both precisions (f32 and an
//!    `Int8` scheduler).
//! 2. **Preemption latency** — under a randomized bulk saturation of all
//!    8 lanes, every interactive arrival begins decoding on the very next
//!    step (queue wait 0, the acceptance bound), outputs stay pinned to
//!    the reference, and the pool drains.
//!
//! Case counts elevate via `PROPTEST_CASES` (CI runs the suite a second
//! time with a larger count, alongside the paged/quant suites).

use mpirical_model::decode::encode_source;
use mpirical_model::transformer::{build_params, TransformerParams};
use mpirical_model::vocab::{EOS, SOS};
use mpirical_model::{
    BatchDecoder, BatchRequest, DecodeOptions, ModelConfig, PollResult, Precision, RequestId,
    SubmitOptions,
};
use mpirical_tensor::{ParamStore, Tensor};
use proptest::prelude::*;
use std::sync::OnceLock;

type Fixture = (ModelConfig, ParamStore, TransformerParams, Vec<Tensor>);

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
        enc_out: enc_out.clone().into(),
        prompt: prompt.to_vec(),
        max_len,
        opts,
        submit: SubmitOptions::default(),
    }])
    .swap_remove(0)
}

/// One random multi-layer model + a few encoder outputs, built once for
/// the whole suite (scheduling-equivalence properties hold for any
/// weights).
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        cfg.n_dec_layers = 2;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 31);
        let encs: Vec<Tensor> = (0..3)
            .map(|i| encode_source(&store, &params, &cfg, &[SOS, 6 + i, 8 + 2 * i, 9, EOS]))
            .collect();
        (cfg, store, params, encs)
    })
}

/// One randomized request: decode shape, scheduling class, token cap,
/// join step, and an optional cancellation step.
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
    /// The length cap the scheduler derives from `max_len` + the token
    /// cap, for the single-request reference call.
    fn effective_max_len(&self) -> usize {
        match self.max_new {
            Some(cap) => self.max_len.min(self.prompt.len() + cap),
            None => self.max_len,
        }
    }

    fn request(&self, enc: &Tensor, precision: Precision, priority_run: bool) -> BatchRequest {
        let mut submit = if priority_run && self.bulk {
            SubmitOptions::bulk()
        } else {
            // The FIFO twin submits everything interactive: one class,
            // FIFO tie-break — exactly the v1 admission policy.
            SubmitOptions::interactive()
        };
        submit.max_new_tokens = self.max_new;
        BatchRequest {
            enc_out: enc.clone().into(),
            prompt: self.prompt.clone(),
            max_len: self.max_len,
            opts: DecodeOptions {
                precision,
                ..self.opts
            },
            submit,
        }
    }
}

/// Drive one scheduler over the specs' join/cancel schedule, then drain it
/// within `budget` steps (a livelock/starvation guard). Returns each
/// request's final poll state (cancel-once semantics asserted inline).
fn drive(
    dec: &mut BatchDecoder,
    specs: &[Spec],
    encs: &[Tensor],
    precision: Precision,
    priority_run: bool,
    budget: usize,
) -> Vec<PollResult> {
    let mut tickets: Vec<Option<RequestId>> = vec![None; specs.len()];
    let mut cancelled: Vec<bool> = vec![false; specs.len()];
    let last_event = specs
        .iter()
        .flat_map(|s| [s.join, s.cancel_at.unwrap_or(0)])
        .max()
        .unwrap_or(0);
    for t in 0..=last_event {
        for (i, s) in specs.iter().enumerate() {
            if s.join == t {
                tickets[i] = Some(dec.submit(s.request(&encs[s.src], precision, priority_run)));
            }
            if priority_run && s.cancel_at == Some(t) {
                // Aim cancellations wherever the schedule put the request
                // by now: queued, decoding, already finished (refused), or
                // not yet submitted (skipped).
                if let Some(id) = tickets[i] {
                    cancelled[i] = dec.cancel(id);
                }
            }
        }
        dec.step();
    }
    let mut steps = 0usize;
    while dec.step() > 0 {
        steps += 1;
        prop_assert!(
            steps <= budget,
            "scheduler failed to drain within {} steps (livelock/starvation)",
            budget
        );
    }
    tickets
        .iter()
        .zip(&cancelled)
        .map(|(ticket, &was_cancelled)| {
            let id = ticket.expect("all specs submitted");
            let first = dec.poll(id);
            if was_cancelled {
                // A successful cancel polls `Cancelled` exactly once.
                prop_assert_eq!(&first, &PollResult::Cancelled);
                prop_assert_eq!(dec.poll(id), PollResult::Unknown);
            }
            first
        })
        .collect()
}

/// `Option` strategy (the shim has no `proptest::option` module).
fn maybe(range: std::ops::Range<usize>) -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), range.prop_map(Some)]
}

proptest! {
    // Each case decodes up to 6 requests through 4 schedulers (priority +
    // FIFO twin, in two precisions); few default cases keep the run fast
    // (CI elevates via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: random priority/cancellation schedules are bitwise
    /// FIFO- and reference-equivalent for every surviving request, drain
    /// without livelock, and leak zero pages.
    #[test]
    fn random_priority_schedules_match_fifo_and_reference(
        specs in proptest::collection::vec(
            (
                (proptest::collection::vec(6usize..24, 0..4), 2usize..28),
                ((0usize..4, 1usize..5), (any::<bool>(), maybe(0..12))),
                ((0usize..6, maybe(0..9)), 0usize..3),
            ),
            1..7,
        ),
    ) {
        let (cfg, store, params, encs) = fixture();
        let max_batch = 8usize; // ≥ the widest generated beam
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
        // Generous drain budget: every request decodes at most its limit,
        // plus slack for admissions, aging promotions, and re-admissions
        // after preemption.
        let budget: usize =
            specs.iter().map(|s| s.max_len + 4).sum::<usize>() + 64;

        for precision in [Precision::F32, Precision::Int8] {
            let references: Vec<Vec<usize>> = specs
                .iter()
                .map(|s| {
                    alone(
                        store, params, cfg, &encs[s.src], &s.prompt,
                        s.effective_max_len(),
                        DecodeOptions { precision, ..s.opts },
                    )
                })
                .collect();

            // The priority scheduler under test: small aging bound so the
            // random schedules actually exercise promotion, plus real
            // preemption and cancellation.
            let mut dec =
                BatchDecoder::with_precision(store, params, cfg, max_batch, precision);
            dec.set_aging_steps(6);
            let pool = dec.pool().clone();
            let polls = drive(&mut dec, &specs, encs, precision, true, budget);

            // The FIFO twin: same requests in the same join order, one
            // class, no cancellations — the v1 scheduler's behaviour.
            let mut fifo =
                BatchDecoder::with_precision(store, params, cfg, max_batch, precision);
            let fifo_pool = fifo.pool().clone();
            let fifo_polls = drive(&mut fifo, &specs, encs, precision, false, budget);

            for (i, ((poll, fifo_poll), want)) in
                polls.iter().zip(&fifo_polls).zip(&references).enumerate()
            {
                let PollResult::Done { ids: fifo_ids, .. } = fifo_poll else {
                    panic!("{precision:?} FIFO twin lost request {i}: {fifo_poll:?}");
                };
                prop_assert_eq!(
                    fifo_ids, want,
                    "{:?} FIFO request {} diverged from the reference", precision, i
                );
                match poll {
                    PollResult::Done { ids, telemetry, .. } => {
                        prop_assert_eq!(
                            ids, fifo_ids,
                            "{:?} request {} (bulk={} beam={} cancel_at={:?}): priority \
                             scheduling changed the tokens",
                            precision, i, specs[i].bulk, specs[i].opts.beam,
                            specs[i].cancel_at
                        );
                        prop_assert!(
                            telemetry.queue_wait_steps as usize <= budget,
                            "request {} waited past the drain budget", i
                        );
                    }
                    PollResult::Cancelled => {} // verified inside drive()
                    other => panic!(
                        "{precision:?} request {i} neither finished nor cancelled: {other:?}"
                    ),
                }
            }
            drop(dec);
            drop(fifo);
            prop_assert_eq!(
                pool.stats().pages_live, 0,
                "{:?} priority scheduler leaked pages", precision
            );
            prop_assert_eq!(
                fifo_pool.stats().pages_live, 0,
                "{:?} FIFO scheduler leaked pages", precision
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 2: the acceptance bound under randomized saturation —
    /// with all 8 lanes held by bulk work of arbitrary lengths, every
    /// interactive arrival preempts and begins decoding on the very next
    /// step, with zero recorded queue wait, and no output or page-hygiene
    /// regression.
    #[test]
    fn interactive_arrivals_start_within_one_step_under_bulk_saturation(
        bulk_min_lens in proptest::collection::vec(4usize..20, 8..9),
        interleave in proptest::collection::vec(0usize..3, 1..5),
    ) {
        let (cfg, store, params, encs) = fixture();
        let lanes = 8usize;
        let mut dec = BatchDecoder::new(store, params, cfg, lanes);
        let pool = dec.pool().clone();

        let bulk_ids: Vec<(RequestId, usize, usize)> = bulk_min_lens
            .iter()
            .enumerate()
            .map(|(i, &min_len)| {
                let opts = DecodeOptions { beam: 1, min_len, ..Default::default() };
                let id = dec.submit(BatchRequest {
                    enc_out: encs[i % encs.len()].clone().into(),
                    prompt: vec![SOS],
                    max_len: 24,
                    opts,
                    submit: SubmitOptions::bulk(),
                });
                (id, i % encs.len(), min_len)
            })
            .collect();
        dec.step();
        prop_assert_eq!(dec.active(), lanes, "bulk saturates every lane");

        // Interactive arrivals at randomized gaps; each must be decoding
        // (≥ 1 token, or already done) one step after submission.
        let mut interactive_ids: Vec<(RequestId, usize)> = Vec::new();
        for (k, &gap) in interleave.iter().enumerate() {
            for _ in 0..gap {
                dec.step();
            }
            let src = k % encs.len();
            let id = dec.submit(BatchRequest::greedy(encs[src].clone(), 16));
            dec.step();
            match dec.poll(id) {
                PollResult::Decoding { tokens_so_far } => {
                    prop_assert_eq!(tokens_so_far.len(), 1, "one token per step");
                }
                // Single-token generations can finish on their first step.
                PollResult::Done { .. } => {}
                other => panic!(
                    "interactive arrival {k} not decoding one step after submit: {other:?}"
                ),
            }
            interactive_ids.push((id, src));
        }
        dec.run();

        for (id, src) in interactive_ids {
            match dec.poll(id) {
                PollResult::Done { ids, telemetry, .. } => {
                    let want = alone(
                        store, params, cfg, &encs[src], &[SOS], 16,
                        DecodeOptions::default(),
                    );
                    prop_assert_eq!(ids, want, "interactive output pinned to reference");
                    prop_assert_eq!(
                        telemetry.queue_wait_steps, 0u64,
                        "interactive work never waits in the queue"
                    );
                }
                PollResult::Unknown => {} // redeemed inside the loop above
                other => panic!("interactive request unfinished: {other:?}"),
            }
        }
        for (id, src, min_len) in bulk_ids {
            let opts = DecodeOptions { beam: 1, min_len, ..Default::default() };
            let want = alone(
                store, params, cfg, &encs[src], &[SOS], 24, opts,
            );
            let got = dec.poll(id).into_output().expect("bulk finished");
            prop_assert_eq!(got, want, "preempt/resume never changes bulk tokens");
        }
        drop(dec);
        prop_assert_eq!(pool.stats().pages_live, 0, "pages leaked");
    }
}
