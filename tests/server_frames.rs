//! Frame fuzzing for the daemon's wire layer: random byte soup, oversize
//! length prefixes, truncated frames, and garbage JSON payloads must
//! never crash the daemon or corrupt a concurrent well-formed session —
//! they terminate exactly the connection that sent them.
//!
//! One daemon is shared by every case and every test in this binary (the
//! point is survival under a stream of faults), so the malformed/shed
//! counters are only ever asserted to *grow*, never to hit exact values.
//! The property test honors `PROPTEST_CASES` (CI raises it to 512).
//!
//! Two regression tests pin the stall-free reply path: a frame reaches the
//! writer in exactly one `write` (counted, deterministic), and a `Stats`
//! round trip takes well under the ~40 ms a Nagle ×
//! delayed-ACK stall costs.

use mpirical::corpus::{generate_dataset, CorpusConfig};
use mpirical::model::ModelConfig;
use mpirical::{MpiRical, MpiRicalConfig, SuggestPoll};
use mpirical_server::{write_frame, Client, Server, ServerConfig, Submitted, MAX_FRAME_LEN};
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn tiny_assistant() -> MpiRical {
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
}

/// The shared daemon under bombardment. Leaked deliberately (`forget`):
/// it must outlive every test in the binary, and the OS reaps the port.
fn daemon_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let server = Server::start(
            Arc::new(tiny_assistant()),
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                pending_budget: 4096,
                retry_after_steps: 8,
            },
        )
        .expect("bind loopback");
        let addr = server.addr();
        std::mem::forget(server);
        addr
    })
}

/// One adversarial connection's worth of bytes.
#[derive(Debug, Clone)]
enum Injection {
    /// Raw byte soup, no framing discipline at all.
    RawBytes(Vec<u8>),
    /// A length prefix promising more than [`MAX_FRAME_LEN`].
    OversizePrefix(u32),
    /// A prefix promising `declared` bytes, followed by fewer, then EOF.
    Truncated { declared: u32, sent: Vec<u8> },
    /// A perfectly framed payload that is not valid JSON.
    FramedGarbage(Vec<u8>),
}

fn injections() -> impl Strategy<Value = Injection> {
    prop_oneof![
        proptest::collection::vec(0u8..=255, 0..64usize).prop_map(Injection::RawBytes),
        ((MAX_FRAME_LEN as u32 + 1)..=u32::MAX).prop_map(Injection::OversizePrefix),
        (8u32..2048, 0usize..7).prop_map(|(declared, cut)| Injection::Truncated {
            declared,
            sent: vec![b'x'; declared as usize * cut / 8],
        }),
        proptest::collection::vec(32u8..127, 0..48usize).prop_map(|mut tail| {
            // The prefix guarantees the payload cannot parse as JSON while
            // keeping it valid UTF-8, so the fuzz hits the parse path, not
            // just the UTF-8 check.
            let mut payload = b"not-json-".to_vec();
            payload.append(&mut tail);
            Injection::FramedGarbage(payload)
        }),
    ]
}

/// Deliver one injection on its own connection, then close it. Errors are
/// ignored on purpose — the daemon killing the connection mid-write is a
/// *correct* outcome.
fn inject(addr: SocketAddr, injection: &Injection) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        panic!("daemon stopped accepting connections");
    };
    let _ = stream.set_nodelay(true);
    match injection {
        Injection::RawBytes(bytes) => {
            let _ = stream.write_all(bytes);
        }
        Injection::OversizePrefix(len) => {
            let _ = stream.write_all(&len.to_be_bytes());
        }
        Injection::Truncated { declared, sent } => {
            let _ = stream.write_all(&declared.to_be_bytes());
            let _ = stream.write_all(sent);
        }
        Injection::FramedGarbage(payload) => {
            let _ = write_frame(&mut stream, payload);
        }
    }
    let _ = stream.flush();
    // Dropping the stream closes it: a handler blocked mid-frame observes
    // a truncation and terminates — itself only.
}

/// A full well-formed session must still work after the fault: stats plus
/// a tombstone poll every case, a real submit→decode→Done round-trip on a
/// sampled subset (decoding is the expensive part).
fn assert_daemon_healthy(addr: SocketAddr) {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let mut client = Client::connect(addr).expect("connect after fault");
    let stats = client.stats().expect("stats after fault");
    assert!(stats.workers >= 1, "daemon lost its engine: {stats:?}");
    assert_eq!(
        client.poll(u64::MAX).expect("poll after fault"),
        SuggestPoll::Unknown,
        "tombstone poll must cross the wire cleanly"
    );
    if CASE.fetch_add(1, Ordering::Relaxed).is_multiple_of(8) {
        let outcome = client
            .submit("int main() { int rank; return 0; }")
            .expect("submit after fault");
        let Submitted::Ticket(id) = outcome else {
            panic!("healthy submit was not admitted: {outcome:?}");
        };
        match client.wait(id).expect("wait after fault") {
            SuggestPoll::Done { .. } => {}
            other => panic!("healthy request did not finish: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn injected_faults_never_crash_or_corrupt_the_daemon(injection in injections()) {
        let addr = daemon_addr();
        inject(addr, &injection);
        assert_daemon_healthy(addr);
    }
}

/// Block until the daemon's malformed counter exceeds `floor` — handler
/// threads record faults asynchronously to the injection.
fn await_malformed_above(addr: SocketAddr, floor: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = Client::connect(addr).expect("connect");
    loop {
        let seen = client.stats().expect("stats").counters.malformed;
        if seen > floor {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "malformed frame was never counted (floor {floor}, seen {seen})"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn malformed_now(addr: SocketAddr) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    client.stats().expect("stats").counters.malformed
}

/// An oversize prefix is refused before any allocation: the connection
/// dies without a response, the fault is counted, the daemon lives.
#[test]
fn oversize_prefix_kills_connection_and_is_counted() {
    let addr = daemon_addr();
    let before = malformed_now(addr);
    let mut evil = Client::connect(addr).expect("connect");
    evil.send_raw(&u32::MAX.to_be_bytes()).expect("send prefix");
    assert!(
        evil.recv_response().is_err(),
        "oversize prefix must not get a response"
    );
    await_malformed_above(addr, before);
    assert_daemon_healthy(addr);
}

/// An empty frame (zero-length payload) is well-framed but unparseable:
/// counted as malformed, fatal only to its own connection.
#[test]
fn empty_frame_is_malformed_not_fatal() {
    let addr = daemon_addr();
    let before = malformed_now(addr);
    let mut evil = Client::connect(addr).expect("connect");
    evil.send_raw(&0u32.to_be_bytes())
        .expect("send empty frame");
    assert!(evil.recv_response().is_err());
    await_malformed_above(addr, before);
    assert_daemon_healthy(addr);
}

/// Valid JSON that is not a protocol request is still a malformed frame —
/// including 20 kB of nested arrays, which once overflowed the handler
/// thread's stack in the recursive JSON parser and aborted the daemon.
#[test]
fn wrong_shape_json_is_malformed_not_fatal() {
    let addr = daemon_addr();
    let nested = "[".repeat(10_000) + &"]".repeat(10_000);
    for payload in [&br#"{"Nope":{"id":1}}"#[..], nested.as_bytes()] {
        let before = malformed_now(addr);
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, payload).expect("send frame");
        drop(stream);
        await_malformed_above(addr, before);
        assert_daemon_healthy(addr);
    }
}

/// A submitted buffer nested far past the C parser's depth bound once
/// overflowed the service thread's stack during encoding and aborted the
/// daemon. Its over-deep region is now a parse error: the request decodes
/// and reports a degraded parse.
#[test]
fn deeply_nested_buffer_is_served_with_a_dirty_parse() {
    let addr = daemon_addr();
    let mut client = Client::connect(addr).expect("connect");
    let buffer = format!(
        "int main() {{\n    int x;\n    x = {}1{};\n    return x;\n}}\n",
        "(".repeat(2_000),
        ")".repeat(2_000)
    );
    let Submitted::Ticket(id) = client.submit(&buffer).expect("submit nested buffer") else {
        panic!("nested buffer was not admitted");
    };
    match client.wait(id).expect("wait") {
        SuggestPoll::Done { health, .. } => {
            assert!(!health.is_clean(), "over-deep region must be reported");
            assert!(health.is_dirty_line(3), "dirty: {:?}", health.dirty_lines);
        }
        other => panic!("nested buffer did not finish: {other:?}"),
    }
    assert_daemon_healthy(addr);
}

/// A fault injected *while* a well-formed request is in flight on another
/// connection does not disturb that request.
#[test]
fn fault_during_in_flight_request_does_not_disturb_it() {
    let addr = daemon_addr();
    let mut good = Client::connect(addr).expect("connect");
    let outcome = good
        .submit("int main() { double local = 0.0; return 0; }")
        .expect("submit");
    let Submitted::Ticket(id) = outcome else {
        panic!("submit was not admitted: {outcome:?}");
    };
    inject(
        addr,
        &Injection::Truncated {
            declared: 512,
            sent: vec![b'z'; 100],
        },
    );
    inject(addr, &Injection::OversizePrefix(u32::MAX));
    match good.wait(id).expect("wait") {
        SuggestPoll::Done { .. } => {}
        other => panic!("in-flight request disturbed by fault: {other:?}"),
    }
    assert_daemon_healthy(addr);
}

/// A writer that accepts everything and counts the calls it got.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A frame must reach the socket as one write: a length prefix written on
/// its own is a small segment, and the payload behind it then waits (Nagle)
/// for the peer's delayed ACK — ~40 ms per frame on Linux loopback.
#[test]
fn write_frame_issues_exactly_one_write_per_frame() {
    for payload in [&b""[..], b"x", br#"{"Stats":null}"#, &[b'y'; 70_000]] {
        let mut w = CountingWriter::default();
        write_frame(&mut w, payload).expect("write frame");
        assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
        assert_eq!(&w.bytes[..4], &(payload.len() as u32).to_be_bytes());
        assert_eq!(&w.bytes[4..], payload);
    }
}

/// The daemon answers `Stats` at loopback speed (the other tests of this
/// binary only ever give its service thread sub-millisecond work). The stall
/// this guards against is a kernel constant of ≥ 40 ms per reply and a
/// healthy round trip is ~0.05 ms, so a 20 ms bound on the median of 21 has
/// hundreds of times of headroom on either side — no wall-clock luck
/// involved.
#[test]
fn idle_stats_round_trip_is_not_stalled() {
    let mut client = Client::connect(daemon_addr()).expect("connect");
    let mut rtts: Vec<Duration> = (0..21)
        .map(|_| {
            let sent = Instant::now();
            client.stats().expect("stats");
            sent.elapsed()
        })
        .collect();
    rtts.sort();
    assert!(
        rtts[10] < Duration::from_millis(20),
        "median Stats round trip {:?} — replies are stalling (Nagle × delayed ACK?)",
        rtts[10]
    );
}
