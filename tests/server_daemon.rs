//! Loopback integration suite for the `mpirical-server` daemon: real TCP
//! sockets against an in-process server, checked **against the in-process
//! `SuggestService` reference** — the wire must add transport, never
//! change results.
//!
//! The acceptance pins (ISSUE 10):
//!
//! * (a) responses over the wire are **bitwise identical** (serialized
//!   suggestion, parse-health and verification-stats payloads compared as
//!   JSON strings) to the caller-stepped in-process reference, for f32
//!   **and** int8 artifacts and a verifying one, under concurrent clients;
//! * (b) submissions past the admission budget receive a typed `Busy`
//!   and are *not* queued;
//! * (c) `Drain` completes all in-flight work, parks unredeemed results
//!   for late polls, and reports a final pool with **zero live pages**;
//! * (d) a malformed frame terminates only its own connection while a
//!   concurrent well-formed session completes normally;
//!
//! plus submit/cancel/poll races and reconnect-and-repoll by raw id. The
//! `smoke_sixteen_concurrent_clients_stats_and_drain` test is re-run by CI
//! in release mode as the serving smoke.

use mpirical::corpus::{generate_dataset, CorpusConfig};
use mpirical::model::{DecodeOptions, ModelConfig, Precision};
use mpirical::{
    MpiRical, MpiRicalConfig, SubmitOptions, SuggestPoll, SuggestService, VerifyOptions,
};
use mpirical_server::daemon::POLL_PACE;
use mpirical_server::{write_frame, Client, Server, ServerConfig, Submitted};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Train once for the whole suite (training dominates wall-clock); tests
/// clone the artifact (weights shared through `Arc`s inside the model).
fn tiny_assistant() -> MpiRical {
    static SHARED: OnceLock<MpiRical> = OnceLock::new();
    SHARED
        .get_or_init(|| {
            let ccfg = CorpusConfig {
                programs: 40,
                seed: 33,
                max_tokens: 320,
                threads: 1,
            };
            let (_, ds, _) = generate_dataset(&ccfg);
            let splits = ds.split(7);
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
        })
        .clone()
}

fn int8_assistant() -> MpiRical {
    let mut assistant = tiny_assistant();
    assistant.decode = DecodeOptions {
        beam: 1,
        min_len: 0,
        precision: Precision::Int8,
    };
    assistant
}

const BUFFERS: [&str; 4] = [
    "int main() { int rank; return 0; }",
    "int main() { double local = 0.0; return 0; }",
    "int main() { int x = 1; if (x", // mid-edit buffer
    "int main() { return 0; }",
];

fn start(assistant: MpiRical, budget: usize, workers: usize) -> Server {
    Server::start(
        Arc::new(assistant),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            pending_budget: budget,
            retry_after_steps: 16,
        },
    )
    .expect("bind loopback")
}

/// The in-process reference: the caller-stepped (one engine worker,
/// deterministic) `SuggestService` path, serialized exactly as the wire
/// serializes it.
fn reference_payloads(assistant: &MpiRical, buffers: &[&str]) -> Vec<String> {
    let mut service = SuggestService::new(assistant);
    let tickets: Vec<_> = buffers.iter().map(|b| service.submit(b)).collect();
    service.run();
    tickets
        .into_iter()
        .map(|t| {
            let state = service.poll(t);
            if let SuggestPoll::Done { verify, .. } = &state {
                assert_eq!(
                    verify.is_some(),
                    assistant.verify.is_some(),
                    "exactly a verifying artifact reports its stats"
                );
            }
            expect_done(state)
        })
        .collect()
}

fn expect_ticket(outcome: Submitted) -> u64 {
    match outcome {
        Submitted::Ticket(id) => id,
        other => panic!("submission not admitted: {other:?}"),
    }
}

/// The bitwise-comparison payload of a `Done` ticket: suggestions, parse
/// health and the closed-loop `VerifyStats` (`None` unless the artifact
/// verifies), serialized. Scheduling telemetry is deliberately excluded —
/// queue waits depend on the concurrent interleaving, which is the
/// scheduler's business, not the transport's.
fn expect_done(state: SuggestPoll) -> String {
    match state {
        SuggestPoll::Done {
            suggestions,
            health,
            verify,
            ..
        } => serde_json::to_string(&(suggestions, health, verify)).expect("payload serializes"),
        other => panic!("ticket not Done: {other:?}"),
    }
}

/// Drive `clients` concurrent connections, each submitting every buffer
/// and redeeming its own tickets, and pin every wire payload to the
/// in-process reference byte for byte.
fn concurrent_clients_match_reference(assistant: MpiRical, clients: usize) {
    let want = reference_payloads(&assistant, &BUFFERS);
    let server = start(assistant, 256, 2);
    let addr = server.addr();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let ids: Vec<u64> = BUFFERS
                    .iter()
                    .map(|b| expect_ticket(client.submit(b).expect("submit")))
                    .collect();
                for (id, want) in ids.into_iter().zip(&want) {
                    let got = expect_done(client.wait(id).expect("wait"));
                    assert_eq!(&got, want, "wire payload == in-process reference");
                    assert_eq!(
                        client.poll(id).expect("re-poll"),
                        SuggestPoll::Unknown,
                        "tickets redeem once over the wire too"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let mut closer = Client::connect(addr).expect("connect");
    let pool = closer.drain().expect("drain");
    assert_eq!(pool.pages_live, 0, "drained daemon leaked KV pages");
    server.shutdown();
}

/// Acceptance (a), f32: concurrent wire sessions are bitwise-equal to the
/// in-process reference.
#[test]
fn wire_matches_in_process_reference_f32() {
    concurrent_clients_match_reference(tiny_assistant(), 4);
}

/// Acceptance (a), int8: the quantized artifact serves identically over
/// the wire.
#[test]
fn wire_matches_in_process_reference_int8() {
    concurrent_clients_match_reference(int8_assistant(), 3);
}

/// A verifying artifact over the wire: concurrent wire sessions get, per
/// buffer, the in-process reference's suggestions, parse health **and**
/// closed-loop `VerifyStats`. The daemon verifies a ticket at the poll that
/// redeems it. The stats keep the check non-vacuous where this tiny
/// artifact suggests nothing.
#[test]
fn wire_matches_in_process_reference_verifying() {
    let mut assistant = tiny_assistant();
    assistant.verify = Some(VerifyOptions {
        rank_counts: vec![2],
        step_limit: 100_000,
        ..Default::default()
    });
    concurrent_clients_match_reference(assistant, 2);
}

/// Acceptance (b): the admission budget sheds with a typed `Busy` and
/// does not queue. The budget counts unredeemed tickets, so submitting
/// `budget + k` without polling yields exactly `k` sheds; redeeming
/// frees the slots again.
#[test]
fn submits_past_budget_get_typed_busy() {
    let budget = 2;
    let server = start(tiny_assistant(), budget, 2);
    let mut client = Client::connect(server.addr()).expect("connect");

    let admitted: Vec<u64> = (0..budget)
        .map(|i| expect_ticket(client.submit(BUFFERS[i % BUFFERS.len()]).expect("submit")))
        .collect();
    for i in 0..3 {
        match client.submit(BUFFERS[i % BUFFERS.len()]).expect("submit") {
            Submitted::Busy { retry_after_steps } => {
                assert_eq!(retry_after_steps, 16, "config's backoff hint");
            }
            other => panic!("submission {i} past the budget was not shed: {other:?}"),
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.counters.sheds, 3, "every shed is counted");
    assert_eq!(stats.outstanding, budget, "nothing past the budget queued");

    // Redeeming releases budget: the next submission is admitted again.
    for id in admitted {
        assert!(matches!(
            client.wait(id).expect("wait"),
            SuggestPoll::Done { .. }
        ));
    }
    let late = expect_ticket(client.submit(BUFFERS[0]).expect("submit"));
    assert!(matches!(
        client.wait(late).expect("wait"),
        SuggestPoll::Done { .. }
    ));
    let pool = client.drain().expect("drain");
    assert_eq!(pool.pages_live, 0);
}

/// Acceptance (c): `Drain` completes in-flight work, the final pool shows
/// zero live pages, late polls redeem parked results (even from a new
/// connection), and post-drain submissions are rejected.
#[test]
fn drain_completes_in_flight_work_and_parks_results() {
    let assistant = tiny_assistant();
    let want = reference_payloads(&assistant, &BUFFERS);
    let server = start(assistant, 64, 2);
    let addr = server.addr();

    let mut submitter = Client::connect(addr).expect("connect");
    let ids: Vec<u64> = BUFFERS
        .iter()
        .map(|b| expect_ticket(submitter.submit(b).expect("submit")))
        .collect();

    // Drain from a different connection while the work is in flight.
    let mut drainer = Client::connect(addr).expect("connect");
    let pool = drainer.drain().expect("drain");
    assert_eq!(pool.pages_live, 0, "drain left live pages");

    let stats = drainer.stats().expect("stats");
    assert!(stats.draining, "post-drain stats report the drained state");
    assert_eq!(stats.pending, 0);

    match submitter.submit(BUFFERS[0]).expect("submit") {
        Submitted::Rejected { reason } => {
            assert!(
                reason.contains("drain"),
                "refusal names the drain: {reason}"
            )
        }
        other => panic!("post-drain submission not rejected: {other:?}"),
    }

    // Parked results survive the engine: redeem from a brand-new
    // connection, exactly once each.
    let mut late = Client::connect(addr).expect("connect");
    for (id, want) in ids.into_iter().zip(&want) {
        let got = expect_done(late.poll(id).expect("late poll"));
        assert_eq!(&got, want, "parked result == in-process reference");
        assert_eq!(
            late.poll(id).expect("re-poll"),
            SuggestPoll::Unknown,
            "parked results redeem once"
        );
    }
    server.shutdown();
}

/// Acceptance (d): a malformed frame terminates only its own connection —
/// the daemon keeps serving a concurrent well-formed session to a correct
/// finish, and the fault is counted.
#[test]
fn malformed_frame_kills_only_its_own_connection() {
    let assistant = tiny_assistant();
    let want = reference_payloads(&assistant, &BUFFERS[..1]);
    let server = start(assistant, 64, 2);
    let addr = server.addr();

    let mut good = Client::connect(addr).expect("connect");
    let id = expect_ticket(good.submit(BUFFERS[0]).expect("submit"));

    // Fault 1: an oversize length prefix.
    let mut evil = Client::connect(addr).expect("connect");
    evil.send_raw(&u32::MAX.to_be_bytes()).expect("send prefix");
    assert!(
        evil.recv_response().is_err(),
        "oversize prefix must kill the connection"
    );

    // Fault 2: a well-framed garbage payload on a fresh connection.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, b"this is not json").expect("send garbage");
    }
    // Fault 3: a truncated frame (prefix promises more than is sent).
    {
        let mut evil = Client::connect(addr).expect("connect");
        evil.send_raw(&8u32.to_be_bytes()).expect("prefix");
        evil.send_raw(b"abc").expect("short payload");
        // Dropping the connection leaves the frame truncated.
    }

    // The well-formed session is untouched.
    let got = expect_done(good.wait(id).expect("wait"));
    assert_eq!(got, want[0], "concurrent session completes normally");
    let stats = good.stats().expect("stats");
    assert!(
        stats.counters.malformed >= 2,
        "malformed frames are counted: {:?}",
        stats.counters
    );
    let pool = good.drain().expect("drain");
    assert_eq!(pool.pages_live, 0);
    server.shutdown();
}

/// Tickets are raw `u64`s valid across connections: submit, drop the
/// connection, reconnect, and redeem — before any drain.
#[test]
fn reconnect_and_repoll_by_raw_id() {
    let assistant = tiny_assistant();
    let want = reference_payloads(&assistant, &BUFFERS[..2]);
    let server = start(assistant, 64, 2);
    let addr = server.addr();

    let ids: Vec<u64> = {
        let mut first = Client::connect(addr).expect("connect");
        BUFFERS[..2]
            .iter()
            .map(|b| expect_ticket(first.submit(b).expect("submit")))
            .collect()
        // `first` drops here: connection gone, tickets still live.
    };

    let mut second = Client::connect(addr).expect("reconnect");
    for (id, want) in ids.into_iter().zip(&want) {
        let got = expect_done(second.wait(id).expect("wait"));
        assert_eq!(&got, want, "reconnected poll == reference");
    }
    let pool = second.drain().expect("drain");
    assert_eq!(pool.pages_live, 0);
    server.shutdown();
}

/// Submit/cancel/poll races from concurrent connections: every ticket
/// resolves to exactly one terminal state, cancels never corrupt
/// survivors, and the drained pool is clean.
#[test]
fn submit_cancel_poll_races_resolve_each_ticket_once() {
    let assistant = tiny_assistant();
    let want = reference_payloads(&assistant, &BUFFERS);
    let server = start(assistant, 256, 2);
    let addr = server.addr();

    let workers: Vec<_> = (0..3)
        .map(|worker| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..4 {
                    let pick = (worker + round) % BUFFERS.len();
                    let id = expect_ticket(client.submit(BUFFERS[pick]).expect("submit"));
                    // Every other round, race a cancel against the decode.
                    let tried_cancel = round % 2 == 0 && client.cancel(id).expect("cancel");
                    match client.wait(id).expect("wait") {
                        state @ SuggestPoll::Done { .. } => {
                            assert_eq!(
                                expect_done(state),
                                want[pick],
                                "a survivor's payload stays pinned to the reference"
                            );
                        }
                        SuggestPoll::Cancelled => {
                            assert!(tried_cancel, "only cancelled tickets resolve Cancelled");
                        }
                        other => panic!("non-terminal wait result: {other:?}"),
                    }
                    assert_eq!(
                        client.poll(id).expect("re-poll"),
                        SuggestPoll::Unknown,
                        "terminal states redeem exactly once"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let mut closer = Client::connect(addr).expect("connect");
    let pool = closer.drain().expect("drain");
    assert_eq!(pool.pages_live, 0);
    server.shutdown();
}

/// The CI release smoke: 16 concurrent clients, a `Stats` health check,
/// and a drain to zero leaked pages.
#[test]
fn smoke_sixteen_concurrent_clients_stats_and_drain() {
    let assistant = tiny_assistant();
    let want = reference_payloads(&assistant, &BUFFERS);
    let server = start(assistant, 256, 2);
    let addr = server.addr();

    let clients = 16;
    let workers: Vec<_> = (0..clients)
        .map(|worker| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let pick = worker % BUFFERS.len();
                let id = expect_ticket(
                    client
                        .submit_with(
                            BUFFERS[pick],
                            if worker % 2 == 0 {
                                SubmitOptions::interactive()
                            } else {
                                SubmitOptions::bulk()
                            },
                        )
                        .expect("submit"),
                );
                let got = expect_done(client.wait(id).expect("wait"));
                assert_eq!(&got, &want[pick], "smoke payload == reference");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.counters.connections >= clients as u64,
        "every client connection counted: {:?}",
        stats.counters
    );
    assert!(
        stats.counters.frames >= 2 * clients as u64,
        "submit + polls all arrived as well-formed frames"
    );
    assert_eq!(stats.counters.malformed, 0);
    assert_eq!(stats.telemetry.completed, clients as u64);
    assert!(
        stats.telemetry.decode_steps >= clients as u64,
        "every completed request decoded at least one step"
    );
    assert_eq!(stats.workers, 2);
    assert!(!stats.draining);

    let pool = client.drain().expect("drain");
    assert_eq!(pool.pages_live, 0, "smoke drained to zero leaked pages");
    server.shutdown();
}

/// A client polling a pending ticket in a loop without sleeping is paced
/// by the daemon: with nothing else resolving, every poll of the pending
/// ticket waits out `POLL_PACE` (only the ticket's own resolution can end
/// one wait early), so a 50 ms loop makes at most 51 polls; the ticket
/// still resolves to the reference payload.
#[test]
fn busy_polling_a_pending_ticket_is_paced() {
    let mut assistant = tiny_assistant();
    assistant.decode.min_len = 200; // decodes long past the loop
    let want = reference_payloads(&assistant, &BUFFERS[..1]);
    let server = start(assistant, 8, 1);
    let mut client = Client::connect(server.addr()).expect("connect");
    let id = expect_ticket(client.submit(BUFFERS[0]).expect("submit"));
    let window = Duration::from_millis(50);
    let started = Instant::now();
    let (mut polls, mut state) = (0u128, None);
    while started.elapsed() < window {
        polls += 1;
        match client.poll(id).expect("poll") {
            SuggestPoll::Queued { .. } | SuggestPoll::Decoding { .. } => {}
            done => {
                state = Some(done);
                break;
            }
        }
    }
    let bound = window.as_millis() / POLL_PACE.as_millis() + 1;
    assert!(
        polls <= bound,
        "{polls} polls in {window:?} (at most {bound})"
    );
    let state = state.unwrap_or_else(|| client.wait(id).expect("wait"));
    assert_eq!(expect_done(state), want[0]);
    assert_eq!(client.drain().expect("drain").pages_live, 0);
    server.shutdown();
}
