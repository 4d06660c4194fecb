//! The daemon: accept loop, per-connection handlers, and the service
//! thread that owns the engine.
//!
//! # Threading model
//!
//! ```text
//!                    ┌────────────────┐   bounded sync_channel    ┌─────────────────┐
//!  TCP clients ──▶   │ handler thread │ ──── Command{reply} ────▶ │ service thread  │
//!   (N conns)        │ (one per conn) │ ◀──── Response ─────────  │ owns            │
//!                    └────────────────┘      (per-command         │ SuggestService  │
//!                    ┌────────────────┐       reply channel)      │ ::sharded       │
//!                    │ accept thread  │                           │ (sharded Engine:│
//!                    └────────────────┘                           │  W workers)     │
//!                                                                 └─────────────────┘
//! ```
//!
//! Handler threads never touch the service: they decode frames, forward
//! typed commands through one **bounded** channel, and relay the typed
//! reply. All scheduling state lives on the single service thread, so the
//! daemon adds zero locking to the engine's own. The bounded channel is
//! transport backpressure; *admission* control is the service thread's
//! budget check (below), which is what produces typed
//! [`Response::Busy`] sheds instead of unbounded queueing.
//!
//! The service thread runs no model work. A `Submit` costs the buffer's
//! front-end — tolerant parse, X-SBT, tokenize, ≈ 0.2 ms — and hands its
//! encoder ids to the engine; the encoder forward and the decode run on
//! the engine's workers (see [`SuggestService::submit_with`]). A command
//! queued behind a `Submit` therefore waits for a front-end, not for an
//! encoder forward. Polls assemble suggestions from decoded ids, and a
//! verifying artifact's closed loop still runs here.
//!
//! # Pending polls
//!
//! A `Poll` of a ticket that is still queued or decoding is answered after
//! the engine's next resolution (any ticket's) or [`POLL_PACE`], whichever
//! comes first: the connection's handler thread waits on the engine's
//! [`Resolutions`] and then asks the service thread again. A client that
//! polls in a loop without sleeping thus costs the daemon one round trip
//! per resolution or per millisecond instead of spinning the handler and
//! service threads against the engine workers, and a ticket that resolves
//! during the wait is reported at once. The service thread never waits.
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
//! contract.
//!
//! # Fault isolation
//!
//! A malformed frame (oversize prefix, truncation, non-JSON payload,
//! unknown request shape) bumps the `malformed` counter and terminates
//! **that connection's** handler thread. Nothing it could send reaches the
//! service thread untyped, so concurrent well-formed sessions are
//! untouched — fuzz-tested in `tests/server_frames.rs`.

use crate::framing::{read_frame, write_frame, FrameError};
use crate::protocol::{Request, Response, ServerCounters, ServerStats, TelemetryAggregate};
use mpirical::model::Resolutions;
use mpirical::{
    MpiRical, PoolStats, PrefixStats, RequestId, SubmitOptions, SuggestPoll, SuggestService,
};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Depth of the handler → service command channel. Transport backpressure
/// only — admission control is the budget check on the service thread.
const COMMAND_DEPTH: usize = 64;

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

/// Lock-free counters shared by handler threads (frame/fault accounting)
/// and the accept thread (connections); the service thread bumps `sheds`.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    frames: AtomicU64,
    sheds: AtomicU64,
    malformed: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerCounters {
        ServerCounters {
            connections: self.connections.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
        }
    }
}

/// A typed request plus its reply channel, crossing from a handler thread
/// to the service thread.
enum Command {
    Submit {
        source: String,
        options: SubmitOptions,
        reply: Sender<Response>,
    },
    Poll {
        id: u64,
        reply: Sender<Response>,
    },
    Cancel {
        id: u64,
        reply: Sender<Response>,
    },
    Stats {
        reply: Sender<Response>,
    },
    Drain {
        reply: Sender<Response>,
    },
}

/// A running daemon. Dropping (or [`shutdown`](Server::shutdown)) stops
/// accepting connections; a **graceful** exit is a [`Request::Drain`]
/// first, which finishes in-flight work and verifies zero leaked pages.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    cmd: Option<SyncSender<Command>>,
    accept_handle: Option<JoinHandle<()>>,
    drained: Arc<(Mutex<bool>, Condvar)>,
}

impl Server {
    /// Bind, spawn the service and accept threads, and start serving.
    /// The service thread holds its own clone of the artifact, sharing
    /// the weights of `assistant`.
    pub fn start(assistant: Arc<MpiRical>, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let drained = Arc::new((Mutex::new(false), Condvar::new()));
        let (cmd_tx, cmd_rx) = sync_channel::<Command>(COMMAND_DEPTH);

        let service = SuggestService::sharded(&assistant, cfg.workers.max(1));
        let resolutions = service.resolutions();
        {
            let counters = Arc::clone(&counters);
            let drained = Arc::clone(&drained);
            let cfg = cfg.clone();
            std::thread::spawn(move || service_loop(service, cmd_rx, cfg, counters, drained));
        }

        let accept_handle = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let cmd_tx = cmd_tx.clone();
            std::thread::spawn(move || accept_loop(listener, cmd_tx, resolutions, stop, counters))
        };

        Ok(Server {
            addr,
            stop,
            cmd: Some(cmd_tx),
            accept_handle: Some(accept_handle),
            drained,
        })
    }

    /// The daemon's bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a [`Request::Drain`] has completed — the `serve`
    /// binary's main thread parks here.
    pub fn wait_drained(&self) {
        let (lock, cvar) = &*self.drained;
        let mut done = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*done {
            done = cvar
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Stop accepting connections and release the daemon's own command
    /// handle. Handler threads exit as their clients disconnect; the
    /// service thread exits (shutting the engine down) once the last
    /// handler is gone. For a *graceful* exit send [`Request::Drain`]
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
        self.cmd.take();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    cmd: SyncSender<Command>,
    resolutions: Resolutions,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stop.load(Ordering::SeqCst) {
                    return; // the wake-up connection from `stop`
                }
                counters.connections.fetch_add(1, Ordering::Relaxed);
                // Replies are single small frames: send each at once instead
                // of letting Nagle hold it for the client's delayed ACK. A
                // socket that refuses the option still works, only slower.
                let _ = stream.set_nodelay(true);
                let cmd = cmd.clone();
                let resolutions = resolutions.clone();
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || handle_connection(stream, cmd, resolutions, counters));
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Send one command to the service thread and wait for its reply; `None`
/// once the service thread is gone.
fn ask(
    cmd: &SyncSender<Command>,
    command: impl FnOnce(Sender<Response>) -> Command,
) -> Option<Response> {
    let (reply_tx, reply_rx) = channel();
    cmd.send(command(reply_tx)).ok()?;
    reply_rx.recv().ok()
}

/// One connection's request/response loop. Every exit path returns —
/// terminating exactly this connection, never the daemon.
fn handle_connection(
    mut stream: TcpStream,
    cmd: SyncSender<Command>,
    resolutions: Resolutions,
    counters: Arc<Counters>,
) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed) => return, // clean disconnect
            Err(_) => {
                // Oversize, truncated, or transport fault: count it and
                // kill only this connection.
                counters.malformed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let request: Request = match std::str::from_utf8(&payload)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok())
        {
            Some(r) => r,
            None => {
                counters.malformed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        counters.frames.fetch_add(1, Ordering::Relaxed);
        let seen = resolutions.count();
        let response = match request {
            Request::Submit { source, options } => ask(&cmd, |reply| Command::Submit {
                source,
                options,
                reply,
            }),
            Request::Poll { id } => ask(&cmd, |reply| Command::Poll { id, reply }).and_then(|r| {
                let Response::Poll { state } = &r else {
                    return Some(r);
                };
                if !matches!(
                    state,
                    SuggestPoll::Queued { .. } | SuggestPoll::Decoding { .. }
                ) {
                    return Some(r);
                }
                resolutions.wait_past(seen, POLL_PACE);
                ask(&cmd, |reply| Command::Poll { id, reply })
            }),
            Request::Cancel { id } => ask(&cmd, |reply| Command::Cancel { id, reply }),
            Request::Stats => ask(&cmd, |reply| Command::Stats { reply }),
            Request::Drain => ask(&cmd, |reply| Command::Drain { reply }),
        };
        // `None`: the service thread is gone; nothing left to serve.
        let Some(response) = response else {
            return;
        };
        let json = serde_json::to_string(&response)
            .expect("wire responses are plain data and always serialize");
        if write_frame(&mut stream, json.as_bytes()).is_err() {
            return;
        }
    }
}

/// Everything the service thread owns. `service` is `None` once drained.
struct ServiceState {
    service: Option<SuggestService>,
    cfg: ServerConfig,
    counters: Arc<Counters>,
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
            self.counters.sheds.fetch_add(1, Ordering::Relaxed);
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
                counters: self.counters.snapshot(),
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
                counters: self.counters.snapshot(),
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

fn service_loop(
    service: SuggestService,
    rx: Receiver<Command>,
    cfg: ServerConfig,
    counters: Arc<Counters>,
    drained: Arc<(Mutex<bool>, Condvar)>,
) {
    let workers = service.workers();
    let mut state = ServiceState {
        service: Some(service),
        cfg,
        counters,
        outstanding: HashSet::new(),
        parked: HashMap::new(),
        agg: TelemetryAggregate::default(),
        draining: false,
        final_pool: None,
        final_prefix: PrefixStats::default(),
        final_preemptions: 0,
        workers,
    };
    loop {
        // The 1 ms tick only ever drives in-flight work (the timeout arm
        // below): with nothing pending, sleep until a command arrives.
        let busy = state.service.as_ref().is_some_and(|s| s.pending() > 0);
        let received = if busy {
            rx.recv_timeout(Duration::from_millis(1))
        } else {
            rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        };
        match received {
            Ok(command) => {
                let (response, reply) = match command {
                    Command::Submit {
                        source,
                        options,
                        reply,
                    } => (state.submit(&source, options), reply),
                    Command::Poll { id, reply } => (state.poll(id), reply),
                    Command::Cancel { id, reply } => (state.cancel(id), reply),
                    Command::Stats { reply } => (state.stats(), reply),
                    Command::Drain { reply } => {
                        let response = state.drain();
                        let (lock, cvar) = &*drained;
                        *lock
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
                        cvar.notify_all();
                        (response, reply)
                    }
                };
                // A handler that died mid-request just drops its receiver.
                let _ = reply.send(response);
            }
            Err(RecvTimeoutError::Timeout) => {
                // Idle tick: sharded workers decode autonomously, but
                // `step` drives the verification sweep and keeps the
                // service's bookkeeping fresh.
                if let Some(service) = state.service.as_mut() {
                    if service.pending() > 0 {
                        service.step();
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Last sender gone (daemon dropped and every handler exited). If no
    // drain happened, shut the engine down so worker threads are joined.
    if let Some(service) = state.service.take() {
        service.shutdown();
    }
}
