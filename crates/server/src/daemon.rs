//! The daemon: accept loop and per-connection handlers over one locked
//! service state that owns the engine.
//!
//! # Threading model
//!
//! ```text
//!                    ┌────────────────┐   lock, run command,   ┌──────────────────────┐
//!  TCP clients ──▶   │ handler thread │ ─────── unlock ──────▶ │ Mutex<ServiceState>  │
//!   (N conns)        │ (one per conn) │ ◀──── Response ─────── │ owns SuggestService  │
//!                    └────────────────┘                        │ ::sharded (sharded   │
//!                    ┌────────────────┐                        │ Engine: W workers)   │
//!                    │ accept thread  │                        └──────────────────────┘
//!                    └────────────────┘
//! ```
//!
//! There is no service thread. A handler thread decodes a frame, locks
//! the one service state, runs the typed command on it, unlocks, and
//! writes the reply, so commands from all connections run one at a time
//! and the daemon adds one lock to the engine's own. *Admission* control
//! is the budget check (below), which produces typed
//! [`Response::Busy`] sheds instead of unbounded queueing. The engine's
//! workers decode on their own; nothing ticks while work is pending.
//!
//! A command runs no model work. A `Submit` costs the buffer's front-end —
//! tolerant parse, X-SBT, tokenize, ≈ 0.2 ms — and hands its encoder ids
//! to the engine; the encoder forward and the decode run on the engine's
//! workers (see [`SuggestService::submit_with`]). A command waiting for the
//! lock behind a `Submit` therefore waits for a front-end, not for an
//! encoder forward. Polls assemble suggestions from decoded ids, and a
//! verifying artifact's closed loop runs at the poll that redeems its
//! ticket.
//!
//! # Pending polls
//!
//! A `Poll` of a ticket that is still queued or decoding is answered after
//! the engine's next resolution (any ticket's) or [`POLL_PACE`], whichever
//! comes first: the connection's handler thread unlocks, waits on the
//! engine's [`Resolutions`], and then polls again. A client that polls in
//! a loop without sleeping thus costs the daemon one round trip per
//! resolution or per millisecond instead of spinning its handler thread
//! against the engine workers, and a ticket that resolves during the wait
//! is reported at once. Nobody waits while holding the lock.
//!
//! # Admission budget
//!
//! The budget counts **unredeemed tickets** — submitted and not yet
//! redeemed as `Done`/`Cancelled` by a poll. This makes shedding
//! deterministic (a test can submit `budget + k` buffers without polling
//! and observe exactly `k` [`Response::Busy`]) and bounds every per-ticket
//! map the daemon keeps, not just the decode queue. Clients that
//! fire-and-forget cancellations should still poll the ticket once to
//! release its budget slot.
//!
//! # Drain state machine
//!
//! ```text
//!            Drain received
//!  Serving ────────────────▶ Draining ───────────────▶ Drained
//!  (admit / shed)            admissions → Rejected     submits → Rejected
//!                            run() in-flight work      polls → parked results
//!                            park unredeemed results   stats → final snapshot
//!                            engine.shutdown()
//!                            assert 0 live pages
//! ```
//!
//! Unredeemed results are parked in a plain map before the engine dies, so
//! a client that reconnects after the drain can still redeem its ticket —
//! the same parked map serves late polls and the reconnect-and-repoll
//! contract. Without a drain, the engine shuts down when the daemon and
//! its last connection are gone.
//!
//! # Fault isolation
//!
//! A malformed frame (oversize prefix, truncation, non-JSON payload,
//! unknown request shape) bumps the `malformed` counter and terminates
//! **that connection's** handler thread. Nothing it could send reaches the
//! service state untyped, so concurrent well-formed sessions are
//! untouched — fuzz-tested in `tests/server_frames.rs`. A command that
//! panics poisons the lock; every connection that then finds it poisoned
//! ends.

use crate::framing::{read_frame, write_frame, FrameError};
use crate::protocol::{Request, Response, ServerCounters, ServerStats, TelemetryAggregate};
use mpirical::model::Resolutions;
use mpirical::{
    MpiRical, PoolStats, PrefixStats, RequestId, SubmitOptions, SuggestPoll, SuggestService,
};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest a `Poll` of a pending ticket waits for a resolution before it is
/// answered (see module docs).
pub const POLL_PACE: Duration = Duration::from_millis(1);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`Server::addr`]).
    pub addr: String,
    /// Engine worker threads (`SuggestService::sharded` backend).
    pub workers: usize,
    /// Admission budget: maximum unredeemed tickets before submissions
    /// are shed with [`Response::Busy`].
    pub pending_budget: usize,
    /// Backoff hint carried in [`Response::Busy`], in scheduler steps.
    pub retry_after_steps: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            pending_budget: 64,
            retry_after_steps: 32,
        }
    }
}

/// What the daemon and every handler thread share: the locked service
/// state, the condvar [`Server::wait_drained`] parks on, and the engine's
/// resolution signal for pacing polls.
struct Shared {
    state: Mutex<ServiceState>,
    drained: Condvar,
    resolutions: Resolutions,
}

impl Shared {
    /// The service state, or `None` once a command panicked while holding
    /// it.
    fn lock(&self) -> Option<MutexGuard<'_, ServiceState>> {
        self.state.lock().ok()
    }
}

/// A running daemon. Dropping (or [`shutdown`](Server::shutdown)) stops
/// accepting connections; a **graceful** exit is a [`Request::Drain`]
/// first, which finishes in-flight work and verifies zero leaked pages.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, build the engine, spawn the accept thread, and start serving.
    /// The service holds its own clone of the artifact, sharing the
    /// weights of `assistant`.
    pub fn start(assistant: Arc<MpiRical>, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = SuggestService::sharded(&assistant, cfg.workers.max(1));
        let shared = Arc::new(Shared {
            resolutions: service.resolutions(),
            drained: Condvar::new(),
            state: Mutex::new(ServiceState {
                workers: service.workers(),
                service: Some(service),
                cfg,
                counters: ServerCounters::default(),
                outstanding: HashSet::new(),
                parked: HashMap::new(),
                agg: TelemetryAggregate::default(),
                draining: false,
                final_pool: None,
                final_prefix: PrefixStats::default(),
                final_preemptions: 0,
            }),
        });

        let accept_handle = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared, stop))
        };

        Ok(Server {
            addr,
            stop,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The daemon's bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a [`Request::Drain`] has completed — the `serve`
    /// binary's main thread parks here. Returns at once if a command has
    /// panicked and poisoned the lock.
    pub fn wait_drained(&self) {
        let Some(mut state) = self.shared.lock() else {
            return;
        };
        // The service is taken only by a drain, which holds the lock until
        // it has finished.
        while state.service.is_some() {
            match self.shared.drained.wait(state) {
                Ok(s) => state = s,
                Err(_) => return,
            }
        }
    }

    /// Stop accepting connections. Handler threads exit as their clients
    /// disconnect; the engine shuts down once the daemon and the last
    /// handler are gone. For a *graceful* exit send [`Request::Drain`]
    /// first.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept so the loop observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stop.load(Ordering::SeqCst) {
                    return; // the wake-up connection from `stop`
                }
                // Replies are single small frames: send each at once instead
                // of letting Nagle hold it for the client's delayed ACK. A
                // socket that refuses the option still works, only slower.
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || handle_connection(stream, &shared));
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// One connection's request/response loop. Every exit path returns —
/// terminating exactly this connection, never the daemon.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let Some(mut state) = shared.lock() else {
        return;
    };
    state.counters.connections += 1;
    drop(state);
    loop {
        let request = match read_frame(&mut stream) {
            Ok(payload) => std::str::from_utf8(&payload)
                .ok()
                .and_then(|s| serde_json::from_str(s).ok()),
            Err(FrameError::Closed) => return, // clean disconnect
            // Oversize, truncated, or transport fault.
            Err(_) => None,
        };
        let Some(response) = respond(shared, request) else {
            return;
        };
        let json = serde_json::to_string(&response)
            .expect("wire responses are plain data and always serialize");
        if write_frame(&mut stream, json.as_bytes()).is_err() {
            return;
        }
    }
}

/// Run one frame's command under the lock, which is released before the
/// reply is written. `None` ends the connection: the frame was malformed
/// (counted here), or the lock is poisoned.
fn respond(shared: &Shared, request: Option<Request>) -> Option<Response> {
    let mut state = shared.lock()?;
    let Some(request) = request else {
        state.counters.malformed += 1;
        return None;
    };
    state.counters.frames += 1;
    Some(match request {
        Request::Submit { source, options } => state.submit(&source, options),
        Request::Poll { id } => {
            let seen = shared.resolutions.count();
            let response = state.poll(id);
            let Response::Poll {
                state: SuggestPoll::Queued { .. } | SuggestPoll::Decoding { .. },
            } = response
            else {
                return Some(response);
            };
            drop(state);
            shared.resolutions.wait_past(seen, POLL_PACE);
            shared.lock()?.poll(id)
        }
        Request::Cancel { id } => state.cancel(id),
        Request::Stats => state.stats(),
        Request::Drain => {
            let response = state.drain();
            shared.drained.notify_all();
            response
        }
    })
}

/// Everything the commands share. `service` is `None` once drained.
struct ServiceState {
    service: Option<SuggestService>,
    cfg: ServerConfig,
    counters: ServerCounters,
    /// Unredeemed tickets — the admission-budget currency (see module
    /// docs).
    outstanding: HashSet<u64>,
    /// Results harvested at drain time for tickets nobody had polled yet;
    /// serves post-drain polls and reconnect-and-repoll.
    parked: HashMap<u64, SuggestPoll>,
    agg: TelemetryAggregate,
    draining: bool,
    /// Final snapshots captured at drain, reported by post-drain `Stats`.
    final_pool: Option<PoolStats>,
    final_prefix: PrefixStats,
    final_preemptions: u64,
    workers: usize,
}

impl ServiceState {
    fn absorb_done(&mut self, state: &SuggestPoll) {
        if let SuggestPoll::Done { telemetry, .. } = state {
            self.agg.completed += 1;
            self.agg.queue_wait_steps += telemetry.queue_wait_steps;
            self.agg.decode_steps += telemetry.decode_steps;
            self.agg.preemptions += telemetry.preemptions;
            self.agg.evictions += telemetry.evictions;
        }
    }

    fn submit(&mut self, source: &str, options: SubmitOptions) -> Response {
        if self.draining {
            return Response::Rejected {
                reason: "daemon is draining: no new work admitted".to_string(),
            };
        }
        if self.outstanding.len() >= self.cfg.pending_budget {
            self.counters.sheds += 1;
            return Response::Busy {
                retry_after_steps: self.cfg.retry_after_steps,
            };
        }
        let service = self.service.as_mut().expect("not draining, so live");
        let id = service.submit_with(source, options).raw();
        self.outstanding.insert(id);
        Response::Submitted { id }
    }

    fn poll(&mut self, id: u64) -> Response {
        if let Some(state) = self.parked.remove(&id) {
            self.outstanding.remove(&id);
            return Response::Poll { state };
        }
        let Some(service) = self.service.as_mut() else {
            return Response::Poll {
                state: SuggestPoll::Unknown,
            };
        };
        let state = service.poll(RequestId::from_raw(id));
        match &state {
            SuggestPoll::Done { .. } => {
                self.absorb_done(&state);
                self.outstanding.remove(&id);
            }
            SuggestPoll::Cancelled | SuggestPoll::Unknown => {
                self.outstanding.remove(&id);
            }
            SuggestPoll::Queued { .. } | SuggestPoll::Decoding { .. } => {}
        }
        Response::Poll { state }
    }

    fn cancel(&mut self, id: u64) -> Response {
        let was_pending = match self.service.as_mut() {
            Some(service) => service.cancel(RequestId::from_raw(id)),
            None => false,
        };
        // The ticket stays in `outstanding` until its `Cancelled` marker
        // is redeemed — budget counts unredeemed tickets.
        Response::Cancel { was_pending }
    }

    fn stats(&mut self) -> Response {
        let stats = match self.service.as_ref() {
            Some(service) => ServerStats {
                workers: service.workers(),
                pending: service.pending(),
                outstanding: self.outstanding.len(),
                draining: self.draining,
                pool: service.pool_stats(),
                prefix: service.prefix_stats(),
                preemptions: service.preemptions(),
                telemetry: self.agg,
                counters: self.counters,
            },
            None => ServerStats {
                workers: self.workers,
                pending: 0,
                outstanding: self.outstanding.len(),
                draining: true,
                pool: self.final_pool.unwrap_or_default(),
                prefix: self.final_prefix,
                preemptions: self.final_preemptions,
                telemetry: self.agg,
                counters: self.counters,
            },
        };
        Response::Stats { stats }
    }

    /// The drain state machine's terminal transition (see module docs):
    /// finish everything, park unredeemed results, shut the engine down,
    /// verify nothing leaked.
    fn drain(&mut self) -> Response {
        self.draining = true;
        let Some(mut service) = self.service.take() else {
            return Response::Drained {
                pool: self.final_pool.unwrap_or_default(),
            };
        };
        service.run();
        let ids: Vec<u64> = {
            let mut v: Vec<u64> = self.outstanding.iter().copied().collect();
            v.sort_unstable();
            v
        };
        for id in ids {
            let state = service.poll(RequestId::from_raw(id));
            match state {
                SuggestPoll::Done { .. } | SuggestPoll::Cancelled => {
                    self.absorb_done(&state);
                    self.parked.insert(id, state);
                }
                // Redeemed through a still-open reply or never real —
                // either way there is nothing to park.
                _ => {
                    self.outstanding.remove(&id);
                }
            }
        }
        self.final_prefix = service.prefix_stats();
        self.final_preemptions = service.preemptions();
        self.workers = service.workers();
        let pool = service.shutdown();
        assert_eq!(
            pool.pages_live, 0,
            "drain completed but the engine leaked KV pages"
        );
        self.final_pool = Some(pool);
        Response::Drained { pool }
    }
}
