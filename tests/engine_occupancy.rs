//! An engine worker occupies its core while it steps
//! (`mpirical_tensor::par`), so a `par` section threads only onto cores no
//! other worker is stepping on, and a step that serves a keystroke takes
//! every core. What is pinned here: a keystroke that reaches a 2-worker
//! fleet while both workers step Bulk work decodes, and every Bulk request
//! finishes, bitwise as on 1 worker; both workers hold a core while they
//! step; and after drain and shutdown no core is left occupied.
//!
//! One test in a binary of its own: the occupancy count is process-wide,
//! and another test's engine stepping meanwhile would show in it.

use mpirical_model::transformer::build_params;
use mpirical_model::vocab::{EOS, SOS};
use mpirical_model::{
    DecodeOptions, Engine, EngineConfig, EngineModel, EngineTicket, ModelConfig, PollResult,
    Precision, Priority, SourceRequest, SubmitOptions,
};
use mpirical_tensor::{par, ParamStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lanes per worker; the fleet's Bulk load fills both workers.
const LANES: usize = 2;

/// Source length: the encoder's row blocks and the admission-time
/// cross-K/V projection cross `par::LANE_MIN_WORK` at this model's shape,
/// so stage 0 and admission run multi-part sections.
const SRC_LEN: usize = 64;

/// Bulk requests decode this many ids (prompt included): long enough that
/// both workers are still stepping when the keystroke arrives.
const BULK_LEN: usize = 160;

/// A model just big enough for its encoder sections to thread.
fn model() -> Arc<EngineModel> {
    let mut cfg = ModelConfig::tiny();
    cfg.vocab_size = 24;
    cfg.d_model = 64;
    cfg.d_ff = 256;
    cfg.n_enc_layers = 2;
    cfg.max_enc_len = SRC_LEN;
    cfg.max_dec_len = BULK_LEN;
    let mut store = ParamStore::new();
    let params = build_params(&cfg, &mut store, 83);
    Arc::new(EngineModel::new(store, params, cfg, Precision::F32))
}

/// Request `i` by its encoder ids: `len` ids decoded, none cut short.
fn request(i: usize, priority: Priority, len: usize) -> SourceRequest {
    let mut ids = vec![SOS];
    ids.extend((0..SRC_LEN - 2).map(|j| 4 + (i * 7 + j * 3) % 19));
    ids.push(EOS);
    SourceRequest {
        ids,
        prompt: vec![SOS],
        max_len: len,
        opts: DecodeOptions {
            beam: 1,
            min_len: len,
            precision: Precision::F32,
        },
        submit: SubmitOptions {
            priority,
            ..SubmitOptions::default()
        },
    }
}

fn poll_until_done(engine: &Engine, ticket: EngineTicket) -> Vec<usize> {
    loop {
        match engine.poll(ticket) {
            PollResult::Done { ids, .. } => return ids,
            PollResult::Queued { .. } | PollResult::Decoding { .. } => {
                std::thread::sleep(Duration::from_millis(1));
            }
            other => panic!("{ticket:?} ended {other:?}"),
        }
    }
}

fn engine(model: &Arc<EngineModel>, workers: usize) -> Engine {
    Engine::new(
        model.clone(),
        EngineConfig {
            max_batch: LANES,
            ..EngineConfig::with_workers(workers)
        },
    )
}

#[test]
fn a_keystroke_into_a_busy_fleet_is_bitwise_and_leaves_no_core_occupied() {
    let model = model();
    let bulk: Vec<SourceRequest> = (0..2 * LANES)
        .map(|i| request(i, Priority::Bulk, BULK_LEN))
        .collect();
    let keystroke = request(2 * LANES, Priority::Interactive, 8);

    let reference = engine(&model, 1);
    let want: Vec<Vec<usize>> = bulk
        .iter()
        .chain([&keystroke])
        .map(|req| reference.submit_source(req.clone()))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| poll_until_done(&reference, t))
        .collect();
    reference.shutdown();

    let fleet = engine(&model, 2);
    let bulk_tickets: Vec<EngineTicket> = bulk
        .iter()
        .map(|req| fleet.submit_source(req.clone()))
        .collect();
    // Both workers step Bulk work: every Bulk ticket holds lanes, and the
    // two workers occupy their cores at once.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !bulk_tickets
        .iter()
        .all(|&t| matches!(fleet.poll(t), PollResult::Decoding { .. }))
    {
        assert!(Instant::now() < deadline, "the Bulk work never all decoded");
        std::thread::sleep(Duration::from_micros(200));
    }
    while par::occupied() < 2 {
        assert!(
            Instant::now() < deadline,
            "the two workers never stepped at once"
        );
        std::hint::spin_loop();
    }
    let key_ticket = fleet.submit_source(keystroke);
    let got: Vec<Vec<usize>> = bulk_tickets
        .into_iter()
        .chain([key_ticket])
        .map(|t| poll_until_done(&fleet, t))
        .collect();
    assert_eq!(got, want, "bitwise the 1-worker reference");

    fleet.drain();
    assert_eq!(fleet.shutdown().pages_live, 0);
    assert_eq!(par::occupied(), 0, "no core left occupied");
}
