//! End-to-end batched serving through the public API: one trained
//! assistant, many concurrent suggestion requests, outputs pinned to the
//! sequential path — including the v2 lifecycle (priorities, preemption,
//! streaming polls, cancellation).

use mpirical::{
    calls_from_ids, MpiRical, MpiRicalConfig, SubmitOptions, SuggestPoll, SuggestService,
    Suggestion, VerifyOptions,
};
use mpirical_corpus::{generate_dataset, CorpusConfig};
use mpirical_model::decode::encode_source;
use mpirical_model::vocab::SOS;
use mpirical_model::{BatchDecoder, BatchRequest, DecodeOptions, ModelConfig, Precision};

/// One tiny trained assistant shared by the whole file (training dominates
/// test wall-clock, so do it once).
fn tiny_assistant() -> MpiRical {
    let ccfg = CorpusConfig {
        programs: 40,
        seed: 55,
        max_tokens: 320,
        threads: 1,
    };
    let (_, ds, _) = generate_dataset(&ccfg);
    let splits = ds.split(3);
    let mut cfg = MpiRicalConfig {
        model: ModelConfig::tiny(),
        vocab_min_freq: 1,
        ..Default::default()
    };
    cfg.model.max_enc_len = 256;
    cfg.model.max_dec_len = 230;
    cfg.train.epochs = 1;
    cfg.train.batch_size = 8;
    cfg.train.threads = 1;
    cfg.train.validate = false;
    MpiRical::train(&splits.train, &splits.val, &cfg, |_| {}).0
}

/// Redeem a ticket that must be finished.
fn take(service: &mut SuggestService, id: mpirical::RequestId) -> Vec<Suggestion> {
    match service.poll(id) {
        SuggestPoll::Done { suggestions, .. } => suggestions,
        other => panic!("{id} not finished: {other:?}"),
    }
}

#[test]
fn batched_serving_is_equivalent_and_continuous() {
    let assistant = tiny_assistant();
    let buffers = [
        "int main() { int rank; printf(\"a\\n\"); return 0; }",
        "int main(int argc, char **argv) { double local = 0.0; return 0; }",
        "int main() { int size; int i; for (i = 0; i < 4; i++) {} return 0; }",
        "int main() { int x = 1; if (x", // mid-edit, unparseable tail
        "int main() { return 0; }",
    ];
    let sequential: Vec<_> = buffers.iter().map(|b| assistant.suggest(b)).collect();

    // One-shot batched API: same results, input order preserved.
    assert_eq!(assistant.suggest_batch(&buffers), sequential);

    // Submit/poll service with fewer lanes than requests (forces the
    // continuous-batching queue) and a late join mid-decode.
    let mut service = SuggestService::with_max_batch(&assistant, 2);
    let early: Vec<_> = buffers[..4].iter().map(|b| service.submit(b)).collect();
    for _ in 0..3 {
        service.step();
    }
    let late = service.submit(buffers[4]);
    assert!(service.pending() > 0);
    service.run();
    for (ticket, want) in early.into_iter().zip(&sequential[..4]) {
        assert_eq!(&take(&mut service, ticket), want);
    }
    assert_eq!(&take(&mut service, late), &sequential[4]);
    assert_eq!(service.pending(), 0);
}

#[test]
fn service_ticket_lifecycle_edge_cases() {
    let assistant = tiny_assistant();
    let buffers = [
        "int main() { int rank; return 0; }",
        "int main() { double local = 0.0; return 0; }",
        "int main() { int size; return 0; }",
    ];
    let sequential: Vec<_> = buffers.iter().map(|b| assistant.suggest(b)).collect();

    // One lane, three requests: overflow queues, tickets stay unique.
    let mut service = SuggestService::with_max_batch(&assistant, 1);
    let t0 = service.submit(buffers[0]);
    let t1 = service.submit(buffers[1]);
    assert_ne!(t0, t1, "tickets never collide");
    assert_eq!(
        service.poll(t0),
        SuggestPoll::Queued { position: 0 },
        "poll before any decoding reports the queue position"
    );
    assert_eq!(service.poll(t1), SuggestPoll::Queued { position: 1 });
    service.run();

    // Poll-after-retire survives later churn through the same lane…
    let t2 = service.submit(buffers[2]);
    service.run();
    assert_eq!(take(&mut service, t0), sequential[0]);
    assert_eq!(take(&mut service, t2), sequential[2]);
    assert_eq!(take(&mut service, t1), sequential[1]);
    // …and every ticket redeems exactly once: afterwards the state is
    // `Unknown` (distinguishable from a pending request — the v1 poll
    // ambiguity this API redesign removed).
    for t in [t0, t1, t2] {
        assert_eq!(service.poll(t), SuggestPoll::Unknown, "already redeemed");
    }
}

#[test]
fn service_reports_paged_pool_and_prefix_sharing() {
    let assistant = tiny_assistant();
    let buffer = "int main() { int rank; printf(\"a\\n\"); return 0; }";
    let expected = assistant.suggest(buffer);

    let mut service = SuggestService::with_max_batch(&assistant, 2);
    assert_eq!(service.pool_stats().pages_live, 0);
    let first = service.submit(buffer);
    service.run();
    let after_first = service.pool_stats();
    assert!(after_first.pages_peak > 0, "decoding allocated pages");
    assert_eq!(after_first.pages_live, 0, "retired lanes free their pages");

    // The IDE-retrigger pattern: the identical buffer resubmitted twice
    // skips its encoder forward both times and decodes the same.
    let again = service.submit(buffer);
    let thrice = service.submit(buffer);
    service.run();
    let prefix = service.prefix_stats();
    assert_eq!((prefix.misses, prefix.hits), (1, 2));
    assert_eq!(prefix.prefilled_rows, 0, "a <sos> prompt feeds no rows");
    for t in [first, again, thrice] {
        assert_eq!(take(&mut service, t), expected);
    }
}

/// The v2 lifecycle end to end through the public API: a bulk re-index
/// job saturates the lane, a keystroke-triggered request preempts it and
/// streams partial suggestions, a stale request is cancelled, and every
/// surviving output still equals the artifact's own sequential `suggest`.
#[test]
fn serving_v2_priorities_preemption_and_cancellation_end_to_end() {
    let assistant = tiny_assistant();
    let bulk_buf = "int main(int argc, char **argv) { double local = 0.0; return 0; }";
    let key_buf = "int main() { int rank; printf(\"a\\n\"); return 0; }";
    let stale_buf = "int main() { int size; return 0; }";
    let bulk_want = assistant.suggest(bulk_buf);
    let key_want = assistant.suggest(key_buf);

    let mut service = SuggestService::with_max_batch(&assistant, 1);
    let bulk = service.submit_with(bulk_buf, SubmitOptions::bulk());
    let stale = service.submit_with(stale_buf, SubmitOptions::bulk());
    for _ in 0..3 {
        service.step();
    }
    assert!(matches!(service.poll(bulk), SuggestPoll::Decoding { .. }));

    // The developer pauses typing: an interactive request arrives, the
    // bulk job yields its lane within one step.
    let keystroke = service.submit(key_buf);
    service.step();
    assert!(
        matches!(service.poll(keystroke), SuggestPoll::Decoding { .. }),
        "keystroke request decodes on the very next step"
    );
    assert!(
        matches!(service.poll(bulk), SuggestPoll::Queued { .. }),
        "preempted bulk job is paused with its pages intact"
    );
    assert_eq!(service.preemptions(), 1);

    // The stale request's buffer was closed — cancel it from the queue.
    assert!(service.cancel(stale));

    // Streaming: partial suggestions only ever grow; the client captures
    // the result the step it appears (a `Done` poll redeems the ticket).
    let mut last_partial = 0usize;
    let mut keystroke_done = None;
    while service.step() > 0 {
        match service.poll(keystroke) {
            SuggestPoll::Decoding { partial } => {
                assert!(partial.len() >= last_partial, "partial output only grows");
                last_partial = partial.len();
            }
            SuggestPoll::Done {
                suggestions,
                telemetry,
                ..
            } => keystroke_done = Some((suggestions, telemetry)),
            SuggestPoll::Unknown if keystroke_done.is_some() => {} // redeemed above
            other => panic!("unexpected keystroke state: {other:?}"),
        }
    }
    let (suggestions, telemetry) = keystroke_done.expect("keystroke finished mid-loop");
    assert_eq!(suggestions, key_want);
    assert_eq!(
        telemetry.queue_wait_steps, 0,
        "preemption admitted it at once"
    );

    let SuggestPoll::Done {
        suggestions,
        telemetry,
        ..
    } = service.poll(bulk)
    else {
        panic!("bulk finished");
    };
    assert_eq!(
        suggestions, bulk_want,
        "preempt/resume never changes output"
    );
    assert_eq!(telemetry.preemptions, 1);

    assert_eq!(service.poll(stale), SuggestPoll::Cancelled);
    assert_eq!(service.poll(stale), SuggestPoll::Unknown, "redeems once");
    assert_eq!(service.pool_stats().pages_live, 0, "cancel leaks no pages");
}

/// An int8-configured artifact serves end to end through the public API:
/// the one-shot batch path and the submit/poll service both run the
/// quantized lockstep kernels and agree exactly with the artifact's own
/// single-request quantized `suggest` — on a *trained* assistant, whose
/// confident logits make the agreement exact, not statistical.
#[test]
fn int8_artifact_serves_equivalently_through_batch_and_service() {
    let mut assistant = tiny_assistant();
    assistant.decode.precision = mpirical::Precision::Int8;
    let buffers = [
        "int main() { int rank; printf(\"a\\n\"); return 0; }",
        "int main(int argc, char **argv) { double local = 0.0; return 0; }",
        "int main() { int x = 1; if (x", // mid-edit, unparseable tail
    ];
    let sequential: Vec<_> = buffers.iter().map(|b| assistant.suggest(b)).collect();
    assert_eq!(assistant.suggest_batch(&buffers), sequential);

    let mut service = SuggestService::with_max_batch(&assistant, 2);
    let tickets: Vec<_> = buffers.iter().map(|b| service.submit(b)).collect();
    service.run();
    for (ticket, want) in tickets.into_iter().zip(&sequential) {
        assert_eq!(&take(&mut service, ticket), want);
    }
    assert_eq!(
        service.pool_stats().pages_live,
        0,
        "pages freed after retiring"
    );
}

/// Every one-shot prediction is an engine request; this pins that path
/// to the same request decoded alone by a bare `BatchDecoder` (no engine,
/// no service). For each precision × beam width × verification setting,
/// `predict_ids` must be element 0 of that decoder's ranked hypotheses for
/// the same encoder ids — bitwise, so a reordered or perturbed hypothesis
/// list fails — and `suggest_report`
/// must carry exactly that hypothesis' call sites. Verification runs with
/// an execution budget of zero: every hypothesis stays unverified, the
/// stable re-rank is the identity, and the stats count the hypotheses the
/// scheduler returned.
#[test]
fn one_shot_predictions_match_the_single_request_reference() {
    let mut assistant = tiny_assistant();
    let buffers = [
        "int main() { int rank; printf(\"a\\n\"); return 0; }",
        "int main(int argc, char **argv) { double local = 0.0; return 0; }",
        "int main() { int x = 1; if (x", // mid-edit, unparseable tail
    ];
    let read_only = VerifyOptions {
        max_hypotheses: 0,
        ..VerifyOptions::default()
    };
    for precision in [Precision::F32, Precision::Int8] {
        for beam in [1usize, 3] {
            for verify in [None, Some(read_only.clone())] {
                assistant.decode = DecodeOptions {
                    beam,
                    min_len: 0,
                    precision,
                };
                assistant.verify = verify;
                let case = format!(
                    "{precision:?} beam={beam} verify={}",
                    assistant.verify.is_some()
                );
                for src in buffers {
                    let m = &assistant.model;
                    let enc_out = encode_source(
                        &m.store,
                        &m.params,
                        &m.cfg,
                        &assistant.encode_source(src).ids,
                    );
                    let mut dec =
                        BatchDecoder::with_precision(&m.store, &m.params, &m.cfg, beam, precision);
                    let ranked = dec
                        .decode_all_hypotheses(vec![BatchRequest {
                            enc_out: enc_out.into(),
                            prompt: vec![SOS],
                            max_len: m.cfg.max_dec_len,
                            opts: assistant.decode,
                            submit: SubmitOptions::default(),
                        }])
                        .swap_remove(0);
                    assert_eq!(assistant.predict_ids(src), ranked[0], "{case}: {src:?}");

                    let report = assistant.suggest_report(src);
                    match &report.verify {
                        None => assert!(assistant.verify.is_none(), "{case}"),
                        Some(stats) => {
                            assert_eq!(stats.hypotheses, 0, "{case}: budget zero");
                            assert_eq!(stats.unverified, ranked.len(), "{case}: {src:?}");
                        }
                    }
                    // Demotion of degraded suggestions reorders a mid-edit
                    // buffer's list; compare order-free there.
                    let key = |s: &Suggestion| (s.line, s.function.clone());
                    let mut got: Vec<_> = report.suggestions.iter().map(key).collect();
                    let mut want: Vec<_> = calls_from_ids(&ranked[0], &m.vocab)
                        .into_iter()
                        .map(|c| key(&Suggestion::from(c)))
                        .collect();
                    if !report.health.is_clean() {
                        got.sort();
                        want.sort();
                    }
                    assert_eq!(got, want, "{case}: {src:?}");
                }
            }
        }
    }
}
