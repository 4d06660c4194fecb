//! Sharded multi-core serving engine: N [`BatchDecoder`] workers behind one
//! admission front-end.
//!
//! One `BatchDecoder` already overlaps N requests in lockstep, but a single
//! scheduler is one thread: aggregate throughput stops at one core (plus
//! whatever the fused kernels parallelize internally). The [`Engine`] scales
//! out instead: each worker thread owns a private `BatchDecoder` scheduler
//! — its own lanes and scheduler clock — while all workers draw pages from
//! **one shared [`PagePool`]** and consult **one encoder table**
//! ([`crate::prefix`]).
//!
//! A request submitted by its encoder ids
//! ([`submit_source`](Engine::submit_source)) travels as ids: the front-end
//! only routes it, and the worker that pulls it runs its encoder forward as
//! stage 0 of its scheduler's steps — a table hit completes the stage at
//! once, an Interactive forward runs whole ahead of everything else on that
//! worker, and a Bulk forward advances one layer per step, never while Bulk
//! is held unless it aged (see [`BatchDecoder`]). A pre-encoded
//! [`BatchRequest`] ([`submit`](Engine::submit)) is the same job with stage
//! 0 already done. [`encode`](Engine::encode) runs a forward through the
//! table on the calling thread, for callers that want the output itself.
//! The front-end routes requests to workers:
//!
//! * **Priority-aware placement.** Interactive requests are placed into a
//!   specific worker's inbox at submit time, so they start decoding on the
//!   next step of that worker — never behind the bulk backlog. Placement
//!   balances *cumulative placed lanes* with a seed-rotated tie-break: a
//!   pure function of the submission sequence and the engine seed, so the
//!   same seed and worker count reproduce the same placement exactly (the
//!   property harness pins this). Reactive load-feedback placement would be
//!   timing-dependent and break that replayability; the bulk path below
//!   supplies the reactive half.
//! * **Work-stealing of bulk requests.** Bulk requests enter one shared
//!   backlog, ordered earliest-deadline-first then FIFO. Any worker with
//!   free capacity steals from it under the state lock — whichever worker
//!   drains its interactive load first absorbs the backlog, so bulk
//!   throughput tracks actual idle capacity rather than a static split.
//! * **Interactive owns the fleet while it is in flight.** The state keeps
//!   a count of Interactive requests in flight: submitting an Interactive
//!   request raises it, so the hold covers its stage 0, and the one
//!   resolution point every ticket goes through (harvest, cancel, shutdown)
//!   lowers it. While it is non-zero, every worker holds its unprotected
//!   bulk work — admitted groups keep their lanes and pages but sit steps
//!   out, queued bulk is neither admitted nor advanced a layer through its
//!   forward — and a worker with nothing else parks, so the keystroke's
//!   encoder forward and its batch-of-one decode get the cores. Aged
//!   (protected) bulk is exempt: held steps count toward aging (see
//!   [`BatchDecoder`]), and a parked worker is woken by the fleet's step
//!   clock when its held work would age, so the aging bound still bounds
//!   starvation. The price is that bulk pauses for the life of each
//!   keystroke.
//! * **A stepping worker occupies its core.** Each step holds a
//!   [`par::occupy`] guard, so the step's data-parallel sections thread
//!   only onto cores no other worker is stepping on: a fleet that fills
//!   the cores steps serially instead of spawning onto busy ones. A step
//!   whose scheduler holds an Interactive ticket counts every core as
//!   free; the hold parks the other workers at their next step boundary.
//! * **Synchronous client API.** [`submit`](Engine::submit) /
//!   [`poll`](Engine::poll) / [`cancel`](Engine::cancel) are ordinary
//!   synchronous calls from any thread (the engine is `Sync`); workers run
//!   autonomously and park on a condvar when idle.
//! * **Caller-stepped mode.** [`Engine::stepped`] builds a one-worker
//!   engine whose worker runs the same loop but only on a turn its caller
//!   grants: each [`step`](Engine::step) is exactly one pull → scheduler
//!   step (stage 0, then decode) → harvest turn, so the schedule is a pure
//!   function of the call sequence (the step-precise `SuggestService` runs
//!   on it).
//!   [`drain`](Engine::drain) grants the turns itself, so nothing ever
//!   waits for a turn nobody grants.
//!
//! # Determinism
//!
//! Every request's output is **bitwise identical** at any worker count:
//! a request decodes entirely within one worker's `BatchDecoder`, whose
//! per-lane numerics are pinned bitwise to the single-request reference
//! (see [`decode_step_batch`](crate::decode_step_batch)), and lanes never
//! read each other's state — each admission projects its own
//! cross-attention K/V from its request's `enc_out`, and a retained encoder
//! output is the very bits a forward of its ids returns, however many
//! pauses that forward took — so neither
//! placement, stealing order, nor co-scheduled traffic can perturb a
//! logit. What *does* vary with timing is scheduling telemetry (queue
//! waits, preemptions) and which worker ran a stolen bulk request.
//! `tests/parallel_engine_props.rs` drives random
//! schedules through worker counts {1, 2, 4} and asserts token equality
//! against the single-threaded references, plus zero leaked pages on every
//! pool after [`shutdown`](Engine::shutdown).
//!
//! # Cancellation races
//!
//! [`cancel`](Engine::cancel) returns `true` if the request was still
//! pending *at the time of the call*. A request already mid-step may still
//! complete; the authoritative outcome is what [`poll`](Engine::poll)
//! reports — `Cancelled`, or `Done` if the race went the other way.

use crate::batch::{
    BatchDecoder, BatchRequest, PollResult, Priority, RequestId, RequestTelemetry, SourceRequest,
    SubmitOptions, DEFAULT_AGING_STEPS, DEFAULT_MAX_BATCH, PLACEMENT_LOG_CAP,
};
use crate::config::ModelConfig;
use crate::decode::{encode_source, DecodeOptions};
use crate::infer::{check_encoder_ids, DecoderWeights, Precision};
use crate::paged::{PagePool, PoolStats};
use crate::policy::{self, Placement};
use crate::prefix::{PrefixStats, PrefixTable};
use crate::transformer::TransformerParams;
use crate::Seq2SeqModel;
use mpirical_tensor::{par, ParamStore, Tensor};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An owned, shareable model bundle for worker threads: parameters, config,
/// and the decoder weight set for the engine's precision. The parameter
/// values are the artifact's own `Arc<ParamStore>`, never a copy, and at
/// `F32` the kernels stream its packed matrices in place, so the bundle
/// adds no weights; only `Int8` prepares a weight set of its own (the
/// quantized matrices, built **once**). Workers borrow from one
/// `Arc<EngineModel>`, so N workers never re-quantize.
#[derive(Debug)]
pub struct EngineModel {
    pub store: Arc<ParamStore>,
    pub params: TransformerParams,
    pub cfg: ModelConfig,
    weights: DecoderWeights,
}

impl EngineModel {
    /// Bundle a model, preparing decoder weights for `precision` (a no-op
    /// at `F32`). Pass an `Arc<ParamStore>` to share the values, or a
    /// `ParamStore` to hand them over.
    pub fn new(
        store: impl Into<Arc<ParamStore>>,
        params: TransformerParams,
        cfg: ModelConfig,
        precision: Precision,
    ) -> EngineModel {
        let store = store.into();
        let weights = DecoderWeights::for_precision(&store, &params, precision);
        EngineModel {
            store,
            params,
            cfg,
            weights,
        }
    }

    /// Bundle an artifact's weights, sharing its parameter values.
    pub fn from_model(model: &Seq2SeqModel, precision: Precision) -> EngineModel {
        EngineModel::new(
            Arc::clone(&model.store),
            model.params.clone(),
            model.cfg.clone(),
            precision,
        )
    }

    /// The projection precision the weights were prepared for; every
    /// submitted request must match it.
    pub fn precision(&self) -> Precision {
        self.weights.precision()
    }

    /// The prepared decoder weight set.
    pub fn weights(&self) -> &DecoderWeights {
        &self.weights
    }
}

/// Engine construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (each owns a `BatchDecoder`); at least 1.
    pub workers: usize,
    /// Lanes per worker (each worker's `max_batch`).
    pub max_batch: usize,
    /// Per-worker aging bound (see [`BatchDecoder::set_aging_steps`]).
    pub aging_steps: u64,
    /// Soft page cap (see [`BatchDecoder::set_page_limit`]). Workers share
    /// one pool, so the cap counts pages **fleet-wide**: any worker over it
    /// sheds bulk lanes by its own scheduler's policy.
    pub page_limit: Option<usize>,
    /// Placement seed: rotates the tie-break order of interactive
    /// placement. Same seed + same worker count ⇒ identical placement for
    /// the same submission sequence.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 1,
            max_batch: DEFAULT_MAX_BATCH,
            aging_steps: DEFAULT_AGING_STEPS,
            page_limit: None,
            seed: 0,
        }
    }
}

impl EngineConfig {
    /// Defaults with an explicit worker count.
    pub fn with_workers(workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }
}

/// Engine-level request ticket (workers map it to their local
/// [`RequestId`]; clients only ever see this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EngineTicket(u64);

impl EngineTicket {
    /// The underlying ticket number (for logging / persistence).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a ticket from a persisted number; polling a fabricated one
    /// reports [`PollResult::Unknown`].
    pub fn from_raw(raw: u64) -> EngineTicket {
        EngineTicket(raw)
    }
}

impl fmt::Display for EngineTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eng#{}", self.0)
    }
}

/// A routed request awaiting a worker: its stage 0 still to run (its
/// encoder ids), or done (a pre-encoded request).
struct Job {
    ticket: EngineTicket,
    req: Request,
}

enum Request {
    Source(SourceRequest),
    Encoded(BatchRequest),
}

impl Request {
    fn fields(&self) -> (&DecodeOptions, &SubmitOptions) {
        match self {
            Request::Source(r) => (&r.opts, &r.submit),
            Request::Encoded(r) => (&r.opts, &r.submit),
        }
    }

    /// Hand the request to a worker's scheduler.
    fn submit_to(self, dec: &mut BatchDecoder) -> RequestId {
        match self {
            Request::Source(r) => dec.submit_source(r),
            Request::Encoded(r) => dec.submit(r),
        }
    }
}

/// A retired request's terminal state.
enum Resolution {
    Done {
        ids: Vec<usize>,
        hypotheses: Vec<Vec<usize>>,
        telemetry: RequestTelemetry,
    },
    Cancelled,
}

/// Mutable engine state behind one mutex. Workers hold it only for routing
/// bookkeeping (pops, publishes) — never across a scheduler step.
struct State {
    shutdown: bool,
    /// Interactive jobs placed per worker (deterministic front-end routing).
    inbox: Vec<VecDeque<Job>>,
    /// Bulk jobs awaiting any worker, popped earliest-deadline-first.
    backlog: Vec<Job>,
    /// Cancel requests routed to the worker that owns the ticket.
    cancels: Vec<Vec<EngineTicket>>,
    /// Terminal states awaiting their one redeeming poll.
    results: HashMap<EngineTicket, Resolution>,
    /// Tickets resolved so far (see [`Resolutions`]).
    resolved: u64,
    /// Tickets submitted and not yet resolved, with their class.
    pending: HashMap<EngineTicket, Priority>,
    /// Pending Interactive tickets, stage 0 included. While it is non-zero
    /// every worker holds its unprotected bulk work (see module docs).
    interactive: usize,
    /// Decode steps run fleet-wide — the clock a worker sitting out the
    /// hold credits its held work with (see [`BatchDecoder`] aging).
    fleet_steps: u64,
    /// Per worker: the `fleet_steps` value at which held work parked on it
    /// ages past the bound (`u64::MAX`: not parked on aging).
    wake_at: Vec<u64>,
    /// Latest harvested state of each ticket a worker holds: `Decoding`
    /// with the partial ids, or `Queued` with its worker-local position
    /// (not yet admitted, preempted, or page-evicted).
    progress: HashMap<EngineTicket, PollResult>,
    /// Worker that pulled each in-flight ticket.
    owner: HashMap<EngineTicket, usize>,
    /// Interactive placement across the workers (see [`Placement`]).
    placement: Placement,
    /// The newest [`PLACEMENT_LOG_CAP`] Interactive placements in
    /// submission order (telemetry; the determinism property asserts this
    /// is a function of seed + schedule).
    placements: VecDeque<(EngineTicket, usize)>,
    /// Bulk jobs pulled from the shared backlog by workers.
    bulk_steals: u64,
    /// Latest published per-worker scheduler telemetry. (Pool and encoder
    /// table telemetry need no publishing: both are read directly.)
    sched_stats: Vec<WorkerSched>,
    next_ticket: u64,
    /// `Some` on a caller-stepped engine (see [`Engine::stepped`]).
    turn: Option<Turn>,
    /// Workers whose loop has ended, by shutdown or by a panic.
    exited: usize,
}

/// The turn ledger of a caller-stepped engine: its worker runs one pull →
/// step → harvest turn per grant.
#[derive(Debug, Default)]
struct Turn {
    granted: u64,
    taken: u64,
    /// Hypotheses the latest turn's decode step advanced.
    advanced: usize,
}

/// Per-worker scheduler counters published each step.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerSched {
    preemptions: u64,
    prefilled_rows: u64,
    encoder_layers: u64,
}

impl WorkerSched {
    fn of(dec: &BatchDecoder) -> WorkerSched {
        WorkerSched {
            preemptions: dec.preemptions(),
            prefilled_rows: dec.prefilled_rows(),
            encoder_layers: dec.encoder_layers(),
        }
    }
}

impl State {
    fn new(workers: usize, seed: u64, turn: Option<Turn>) -> State {
        State {
            shutdown: false,
            inbox: (0..workers).map(|_| VecDeque::new()).collect(),
            backlog: Vec::new(),
            cancels: vec![Vec::new(); workers],
            results: HashMap::new(),
            resolved: 0,
            pending: HashMap::new(),
            interactive: 0,
            fleet_steps: 0,
            wake_at: vec![u64::MAX; workers],
            progress: HashMap::new(),
            owner: HashMap::new(),
            placement: Placement::new(workers, seed),
            placements: VecDeque::new(),
            bulk_steals: 0,
            sched_stats: vec![WorkerSched::default(); workers],
            next_ticket: 0,
            turn,
            exited: 0,
        }
    }

    /// Record a ticket's terminal state. Every resolution path — harvest,
    /// cancels, shutdown — ends here, so this is where an Interactive
    /// ticket leaves the in-flight count. Returns `true` when that lifted
    /// the fleet hold (the caller wakes the held workers).
    fn finish(&mut self, ticket: EngineTicket, resolution: Resolution) -> bool {
        let interactive = self.pending.remove(&ticket) == Some(Priority::Interactive);
        self.progress.remove(&ticket);
        self.owner.remove(&ticket);
        self.results.insert(ticket, resolution);
        self.resolved += 1;
        if !interactive {
            return false;
        }
        self.interactive -= 1;
        self.interactive == 0
    }
}

struct Shared {
    model: Arc<EngineModel>,
    cfg: EngineConfig,
    /// The fleet-wide page pool every worker's lanes draw from.
    pool: PagePool,
    /// The encoder table every worker's stage 0 and [`Engine::encode`]
    /// consult.
    prefix: PrefixTable,
    state: Mutex<State>,
    /// Workers park here when idle; submit/cancel/shutdown notify it.
    work: Condvar,
    /// Clients park here in [`Engine::drain`]; resolutions notify it.
    progress: Condvar,
}

/// The sharded serving engine (see module docs).
pub struct Engine {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Held by a [`step`](Engine::step) caller from its grant until its
    /// turn is taken, so concurrent callers of a caller-stepped engine each
    /// get their own turn.
    stepper: Mutex<()>,
}

impl Engine {
    /// Spawn `cfg.workers` worker threads over a shared model bundle.
    ///
    /// # Panics
    ///
    /// If `cfg.workers` or `cfg.max_batch` is 0.
    pub fn new(model: Arc<EngineModel>, cfg: EngineConfig) -> Engine {
        Engine::spawn(model, cfg, None)
    }

    /// A one-worker engine **stepped by its caller**: the worker runs the
    /// same pull → step → harvest loop as [`new`](Engine::new)'s, but one
    /// turn per [`step`](Engine::step) call and never on its own, so every
    /// poll between steps sees a schedule that depends on the call
    /// sequence alone. [`drain`](Engine::drain) grants turns itself.
    /// `cfg.workers` is ignored: the engine always has one worker.
    ///
    /// # Panics
    ///
    /// If `cfg.max_batch` is 0.
    pub fn stepped(model: Arc<EngineModel>, cfg: EngineConfig) -> Engine {
        let cfg = EngineConfig { workers: 1, ..cfg };
        Engine::spawn(model, cfg, Some(Turn::default()))
    }

    fn spawn(model: Arc<EngineModel>, cfg: EngineConfig, turn: Option<Turn>) -> Engine {
        assert!(cfg.workers >= 1, "engine needs at least one worker");
        assert!(
            cfg.max_batch >= 1,
            "engine needs at least one lane per worker (got max_batch = 0)"
        );
        let pool = PagePool::new(model.cfg.d_head());
        let shared = Arc::new(Shared {
            model,
            cfg,
            pool,
            prefix: PrefixTable::new(),
            state: Mutex::new(State::new(cfg.workers, cfg.seed, turn)),
            work: Condvar::new(),
            progress: Condvar::new(),
        });
        let handles = (0..cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            shared,
            handles,
            stepper: Mutex::new(()),
        }
    }

    /// Queue a pre-encoded request (its stage 0 done), routing it by
    /// priority class (see module docs), and return its ticket.
    ///
    /// # Panics
    ///
    /// If the request's beam width is 0 or exceeds the per-worker
    /// `max_batch`, its precision differs from the engine model's, or the
    /// engine has been shut down.
    pub fn submit(&self, req: BatchRequest) -> EngineTicket {
        self.route(Request::Encoded(req))
    }

    /// Queue a request by its encoder ids, routing it by priority class;
    /// the worker that pulls it runs its encoder forward as stage 0 (see
    /// module docs). The caller does no model work here.
    ///
    /// # Panics
    ///
    /// As [`submit`](Self::submit), and if the ids fail the encoder's
    /// guards (empty, longer than `max_enc_len`, or outside the
    /// vocabulary).
    pub fn submit_source(&self, req: SourceRequest) -> EngineTicket {
        let m = &self.shared.model;
        check_encoder_ids(&m.store, &m.params, &m.cfg, &req.ids);
        self.route(Request::Source(req))
    }

    fn route(&self, req: Request) -> EngineTicket {
        let (opts, submit) = req.fields();
        let (beam, priority) = (opts.beam, submit.priority);
        assert!(
            beam >= 1 && beam <= self.shared.cfg.max_batch,
            "beam width {} outside the engine's 1..={} lanes per worker",
            beam,
            self.shared.cfg.max_batch
        );
        assert_eq!(
            opts.precision,
            self.shared.model.precision(),
            "request precision differs from the engine model's prepared weights"
        );
        let mut st = self.shared.state.lock();
        assert!(!st.shutdown, "engine is shut down");
        let ticket = EngineTicket(st.next_ticket);
        st.next_ticket += 1;
        st.pending.insert(ticket, priority);
        match priority {
            Priority::Interactive => {
                st.interactive += 1;
                let w = st.placement.place(beam);
                if st.placements.len() == PLACEMENT_LOG_CAP {
                    st.placements.pop_front();
                }
                st.placements.push_back((ticket, w));
                st.inbox[w].push_back(Job { ticket, req });
            }
            Priority::Bulk => st.backlog.push(Job { ticket, req }),
        }
        drop(st);
        self.shared.work.notify_all();
        ticket
    }

    /// Report a ticket's lifecycle state. `Done` and `Cancelled` redeem
    /// once, exactly like [`BatchDecoder::poll`]. A ticket a worker holds
    /// reports what that worker's last harvest saw (one step stale at
    /// most): `Decoding` with the partial ids, or `Queued` with its
    /// position in the worker's queue — a preempted or page-evicted
    /// request is `Queued` again. A ticket no worker holds yet reports
    /// `Queued` with the number of front-end-queued requests ahead of it.
    pub fn poll(&self, ticket: EngineTicket) -> PollResult {
        let mut st = self.shared.state.lock();
        match st.results.remove(&ticket) {
            Some(Resolution::Done {
                ids,
                hypotheses,
                telemetry,
            }) => {
                return PollResult::Done {
                    ids,
                    hypotheses,
                    telemetry,
                }
            }
            Some(Resolution::Cancelled) => return PollResult::Cancelled,
            None => {}
        }
        if !st.pending.contains_key(&ticket) {
            return PollResult::Unknown;
        }
        if let Some(state) = st.progress.get(&ticket) {
            return state.clone();
        }
        let position = st
            .inbox
            .iter()
            .flatten()
            .chain(&st.backlog)
            .filter(|j| j.ticket.0 < ticket.0)
            .count();
        PollResult::Queued { position }
    }

    /// Cancel a request. Returns `true` if it was still pending at the time
    /// of the call: a front-end-queued job resolves `Cancelled` immediately;
    /// an in-flight one is cancelled by its worker at the next step — unless
    /// it finishes first, in which case [`poll`](Engine::poll) reports
    /// `Done` (see module docs on cancellation races).
    pub fn cancel(&self, ticket: EngineTicket) -> bool {
        let mut st = self.shared.state.lock();
        if !st.pending.contains_key(&ticket) {
            return false;
        }
        let in_inbox = st.inbox.iter_mut().find_map(|q| {
            let pos = q.iter().position(|j| j.ticket == ticket)?;
            q.remove(pos)
        });
        let in_backlog = st.backlog.iter().position(|j| j.ticket == ticket);
        if in_inbox.is_some() || in_backlog.is_some() {
            if let Some(pos) = in_backlog {
                st.backlog.remove(pos);
            }
            let lifted = st.finish(ticket, Resolution::Cancelled);
            drop(st);
            self.shared.progress.notify_all();
            if lifted {
                self.shared.work.notify_all();
            }
            return true;
        }
        if let Some(&w) = st.owner.get(&ticket) {
            st.cancels[w].push(ticket);
        }
        drop(st);
        self.shared.work.notify_all();
        true
    }

    /// Requests submitted and not yet resolved.
    pub fn pending(&self) -> usize {
        self.shared.state.lock().pending.len()
    }

    /// Interactive requests in flight: pending Interactive tickets, from
    /// submission (stage 0 included) to resolution. While it is non-zero
    /// no unprotected bulk work is admitted, stepped or advanced a layer
    /// through its forward on any worker; it is 0 whenever every
    /// Interactive ticket has resolved.
    pub fn interactive_in_flight(&self) -> usize {
        self.shared.state.lock().interactive
    }

    /// Block until every submitted request has resolved (done or
    /// cancelled). A caller-stepped engine runs the turns itself, until
    /// nothing is pending or a turn advances nothing — where
    /// [`BatchDecoder::run`] stops too.
    pub fn drain(&self) {
        let mut st = self.shared.state.lock();
        if st.turn.is_some() {
            drop(st);
            while self.pending() > 0 && self.step() > 0 {}
            return;
        }
        while !st.pending.is_empty() {
            self.shared.progress.wait(&mut st);
        }
    }

    /// Advance by one step. A caller-stepped engine grants its worker
    /// exactly one pull → step → harvest turn, waits for it, and returns
    /// the hypotheses that turn's decode step advanced (0: idle, as for
    /// [`BatchDecoder::step`]). Autonomous workers need no grant: the call
    /// [`drain`](Engine::drain)s and returns 0, so
    /// `while engine.step() > 0 {}` drives either kind to idle. Callers on
    /// several threads take turns one after another.
    ///
    /// # Panics
    ///
    /// If the worker exited (it panicked) before taking the turn.
    pub fn step(&self) -> usize {
        if self.shared.state.lock().turn.is_none() {
            self.drain();
            return 0;
        }
        let _serial = self.stepper.lock();
        let mut st = self.shared.state.lock();
        let turn = st.turn.as_mut().expect("a stepped engine stays stepped");
        turn.granted += 1;
        let granted = turn.granted;
        self.shared.work.notify_all();
        loop {
            let turn = st.turn.as_ref().expect("a stepped engine stays stepped");
            if turn.taken >= granted {
                return turn.advanced;
            }
            assert_eq!(st.exited, 0, "engine worker exited before taking its turn");
            self.shared.progress.wait(&mut st);
        }
    }

    /// The worker count this engine was built with.
    pub fn workers(&self) -> usize {
        self.shared.cfg.workers
    }

    /// The newest [`PLACEMENT_LOG_CAP`] Interactive placements
    /// `(ticket, worker)` in submission order — a pure function of the
    /// engine seed, worker count, and submission sequence (see module docs).
    pub fn placements(&self) -> Vec<(EngineTicket, usize)> {
        self.shared
            .state
            .lock()
            .placements
            .iter()
            .copied()
            .collect()
    }

    /// Bulk jobs workers have stolen from the shared backlog so far.
    pub fn bulk_steals(&self) -> u64 {
        self.shared.state.lock().bulk_steals
    }

    /// Telemetry of the fleet-wide page pool every worker draws from.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Preemptions across every worker's scheduler (bulk groups that
    /// yielded lanes to interactive arrivals).
    pub fn preemptions(&self) -> u64 {
        let st = self.shared.state.lock();
        st.sched_stats.iter().map(|s| s.preemptions).sum()
    }

    /// A handle that waits for this engine's tickets to resolve, for a
    /// thread that has no access to the engine itself.
    pub fn resolutions(&self) -> Resolutions {
        Resolutions {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Encoder layers the workers' stage 0 has run, as of each worker's
    /// latest step (see [`BatchDecoder::encoder_layers`]).
    pub fn encoder_layers(&self) -> u64 {
        let st = self.shared.state.lock();
        st.sched_stats.iter().map(|s| s.encoder_layers).sum()
    }

    /// The encoder output for `ids` (`[ids.len(), d_model]`): the one
    /// retained for the same ids (shared, not copied), or on a miss the
    /// encoder forward ([`encode_source`]) run **on the calling thread**,
    /// then retained. Bitwise the same tensor either way (see
    /// [`crate::prefix`]).
    ///
    /// # Panics
    ///
    /// As [`encode_source`]: empty ids, too many, or one outside the
    /// vocabulary.
    pub fn encode(&self, ids: &[usize]) -> Arc<Tensor> {
        let m = &self.shared.model;
        let forward = |ids: &[usize]| encode_source(&m.store, &m.params, &m.cfg, ids);
        self.shared.prefix.encode(ids, forward)
    }

    /// Telemetry of the encoder table (see [`PrefixStats`]): forwards the
    /// workers' stage 0 and [`encode`](Engine::encode) skipped and ran, LRU
    /// evictions, plus the prompt rows every worker's admissions
    /// prefilled.
    pub fn prefix_stats(&self) -> PrefixStats {
        let table = self.shared.prefix.stats();
        let st = self.shared.state.lock();
        PrefixStats {
            prefilled_rows: st.sched_stats.iter().map(|s| s.prefilled_rows).sum(),
            ..table
        }
    }

    /// The aging bound every worker's scheduler was configured with.
    pub fn aging_steps(&self) -> u64 {
        self.shared.cfg.aging_steps
    }

    /// Convenience: submit every request, drain, and return each request's
    /// winning ids in submission order — element 0 of
    /// [`decode_all_hypotheses`](Engine::decode_all_hypotheses).
    pub fn decode_all(&self, reqs: Vec<BatchRequest>) -> Vec<Vec<usize>> {
        let ranked = self.decode_all_hypotheses(reqs).into_iter();
        ranked.map(|mut hyps| hyps.swap_remove(0)).collect()
    }

    /// Submit every request, drain, and return every request's full ranked
    /// hypothesis list in submission order (the engine-level
    /// [`BatchDecoder::decode_all_hypotheses`]).
    pub fn decode_all_hypotheses(&self, reqs: Vec<BatchRequest>) -> Vec<Vec<Vec<usize>>> {
        let tickets: Vec<EngineTicket> = reqs.into_iter().map(|r| self.submit(r)).collect();
        self.drain();
        tickets
            .into_iter()
            .map(|t| match self.poll(t) {
                PollResult::Done { hypotheses, .. } => hypotheses,
                other => panic!("drain() resolves every request (got {other:?})"),
            })
            .collect()
    }

    /// Stop accepting work and begin worker shutdown: front-end-queued jobs
    /// resolve `Cancelled`; workers exit after their current step, resolving
    /// any still-decoding requests `Cancelled` too. (Call
    /// [`drain`](Engine::drain) first to let in-flight work finish.)
    fn begin_shutdown(&self) {
        let mut st = self.shared.state.lock();
        st.shutdown = true;
        let mut orphans: Vec<EngineTicket> = st
            .inbox
            .iter_mut()
            .flat_map(|q| q.drain(..))
            .map(|j| j.ticket)
            .collect();
        orphans.extend(st.backlog.drain(..).map(|j| j.ticket));
        for t in orphans {
            st.finish(t, Resolution::Cancelled);
        }
        drop(st);
        self.shared.work.notify_all();
        self.shared.progress.notify_all();
    }

    /// Shut down and join every worker, returning the shared pool's
    /// **final** telemetry, captured after every decoder dropped — so
    /// `pages_live == 0` unless pages actually leaked (the property
    /// harness's closing assertion; encoder-table entries pin no pages).
    pub fn shutdown(mut self) -> PoolStats {
        self.begin_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.shared.pool.stats()
    }
}

/// Waits for an engine's tickets to resolve (see [`Engine::resolutions`]):
/// a daemon's connection thread paces its client's polls of a pending
/// ticket with it.
#[derive(Clone)]
pub struct Resolutions {
    shared: Arc<Shared>,
}

impl Resolutions {
    /// Tickets resolved so far (done or cancelled).
    pub fn count(&self) -> u64 {
        self.shared.state.lock().resolved
    }

    /// Block until more than `seen` tickets have resolved, or `timeout`
    /// has passed.
    pub fn wait_past(&self, seen: u64, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        while st.resolved == seen {
            if self
                .shared
                .progress
                .wait_until(&mut st, deadline)
                .timed_out()
            {
                return;
            }
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.begin_shutdown();
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Counts a worker out on every exit path, unwinding included, so a caller
/// waiting for its turn fails instead of waiting forever.
struct Exit<'a>(&'a Shared);

impl Drop for Exit<'_> {
    fn drop(&mut self) {
        self.0.state.lock().exited += 1;
        self.0.progress.notify_all();
    }
}

/// One worker: a private `BatchDecoder` scheduler over the fleet-shared
/// pool and encoder table, driven by a pull-step-harvest loop — on its
/// own, or one turn per grant on a caller-stepped engine. The state lock is
/// held to pull and to publish, never during a step: stage 0 (the encoder
/// layers) and decoding both run outside it.
fn worker_loop(shared: &Shared, w: usize) {
    let _exit = Exit(shared);
    let model = &shared.model;
    let mut dec = BatchDecoder::with_shared(
        &model.store,
        &model.params,
        &model.cfg,
        shared.cfg.max_batch,
        Cow::Borrowed(&model.weights),
        shared.pool.clone(),
        shared.prefix.clone(),
    );
    dec.set_aging_steps(shared.cfg.aging_steps);
    dec.set_page_limit(shared.cfg.page_limit);
    // Tickets this worker owns, paired with their local request ids.
    let mut live: Vec<(EngineTicket, RequestId)> = Vec::new();
    // `fleet_steps` when this worker last parked; the steps other workers
    // ran meanwhile are credited to its held work on waking.
    let mut parked_at: Option<u64> = None;
    loop {
        let mut should_exit = false;
        {
            let mut st = shared.state.lock();
            loop {
                // A caller-stepped worker runs only on a granted turn.
                if st.turn.as_ref().is_some_and(|t| t.taken == t.granted) && !st.shutdown {
                    shared.work.wait(&mut st);
                    continue;
                }
                if let Some(since) = parked_at.take() {
                    dec.policy().sit_out(st.fleet_steps - since);
                }
                apply_cancels(shared, &mut st, &mut dec, &mut live, w);
                while let Some(job) = st.inbox[w].pop_front() {
                    st.owner.insert(job.ticket, w);
                    live.push((job.ticket, job.req.submit_to(&mut dec)));
                }
                // Steal bulk work while this worker plausibly has capacity
                // (the local scheduler's admission handles exact lane fit,
                // aging, and preemption; a request in stage 0 counts). A
                // caller-stepped worker is the only one: it takes the whole
                // backlog, so its scheduler sees every request, as a bare
                // `BatchDecoder` would.
                while st.turn.is_some() || dec.pending() < dec.max_batch() {
                    let key = |j: &Job| (j.req.fields().1.deadline, j.ticket.0);
                    let Some(job) = policy::pop_backlog(&mut st.backlog, key) else {
                        break;
                    };
                    st.owner.insert(job.ticket, w);
                    st.bulk_steals += 1;
                    live.push((job.ticket, job.req.submit_to(&mut dec)));
                }
                if st.shutdown {
                    should_exit = true;
                    break;
                }
                // The Interactive hold is fleet-wide: with a keystroke in
                // flight anywhere, this worker steps only protected work
                // (and runs only Interactive or aged stage 0) and otherwise
                // parks, leaving the cores to the keystroke.
                let held = st.interactive > 0;
                dec.policy().set_fleet_hold(held);
                if st.turn.is_some()
                    || (!live.is_empty() && (!held || dec.policy().has_unheld_work()))
                {
                    break;
                }
                // Parked on held work: ask to be woken when it would age
                // past the bound, so held time still bounds starvation.
                st.wake_at[w] = match dec.policy().steps_until_unheld() {
                    Some(steps) if held => st.fleet_steps + steps,
                    _ => u64::MAX,
                };
                parked_at = Some(st.fleet_steps);
                shared.work.wait(&mut st);
                st.wake_at[w] = u64::MAX;
            }
        }
        if should_exit {
            break;
        }
        // See "A stepping worker occupies its core" in the module docs.
        let advanced = {
            let _core = par::occupy(dec.policy().holds_interactive());
            dec.step()
        };
        // Harvest outside the lock, publish under it.
        let mut resolved: Vec<(EngineTicket, Resolution)> = Vec::new();
        let mut progress: Vec<(EngineTicket, PollResult)> = Vec::new();
        live.retain(|&(ticket, rid)| match dec.poll(rid) {
            PollResult::Done {
                ids,
                hypotheses,
                telemetry,
            } => {
                resolved.push((
                    ticket,
                    Resolution::Done {
                        ids,
                        hypotheses,
                        telemetry,
                    },
                ));
                false
            }
            PollResult::Cancelled | PollResult::Unknown => {
                resolved.push((ticket, Resolution::Cancelled));
                false
            }
            state => {
                progress.push((ticket, state));
                true
            }
        });
        {
            let mut st = shared.state.lock();
            st.progress.extend(progress);
            let any_resolved = !resolved.is_empty();
            let mut lifted = false;
            for (t, r) in resolved {
                lifted |= st.finish(t, r);
            }
            st.sched_stats[w] = WorkerSched::of(&dec);
            st.fleet_steps += 1;
            let aged = st.wake_at.iter().any(|&at| at <= st.fleet_steps);
            let turn_taken = st.turn.as_mut().map(|turn| {
                turn.taken += 1;
                turn.advanced = advanced;
            });
            drop(st);
            if any_resolved || turn_taken.is_some() {
                shared.progress.notify_all();
            }
            if lifted || aged {
                shared.work.notify_all();
            }
        }
    }
    // Shutdown: dropping the decoder releases every group's pages back to
    // the shared pool.
    let final_sched = WorkerSched::of(&dec);
    drop(dec);
    let mut st = shared.state.lock();
    st.sched_stats[w] = final_sched;
    for (ticket, _) in live {
        st.finish(ticket, Resolution::Cancelled);
    }
    drop(st);
    shared.progress.notify_all();
}

/// Apply cancel requests routed to worker `w`. Called under the state lock.
fn apply_cancels(
    shared: &Shared,
    st: &mut MutexGuard<'_, State>,
    dec: &mut BatchDecoder,
    live: &mut Vec<(EngineTicket, RequestId)>,
    w: usize,
) {
    let cancels: Vec<EngineTicket> = st.cancels[w].drain(..).collect();
    let mut any = false;
    for ticket in cancels {
        if let Some(pos) = live.iter().position(|&(t, _)| t == ticket) {
            let (_, rid) = live[pos];
            if dec.cancel(rid) {
                // Consume the local Cancelled marker so the worker's
                // scheduler never accumulates unredeemed markers.
                let _ = dec.poll(rid);
                live.remove(pos);
                if st.finish(ticket, Resolution::Cancelled) {
                    shared.work.notify_all();
                }
                any = true;
            }
            // cancel() == false ⇒ the request just finished; the next
            // harvest records its Done resolution instead.
        }
    }
    if any {
        shared.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SourceRequest;
    use crate::decode::{encode_source, DecodeOptions};
    use crate::prefix::PREFIX_CACHE_CAP;
    use crate::transformer::build_params;
    use crate::vocab::{EOS, SOS};
    use crate::SubmitOptions;
    use mpirical_tensor::Tensor;

    /// A random (untrained) multi-layer model — the engine's equivalence
    /// properties hold for any weights. Two encoder layers, so a Bulk
    /// forward pauses between them.
    fn setup() -> (ModelConfig, ParamStore, TransformerParams) {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        cfg.n_enc_layers = 2;
        cfg.n_dec_layers = 2;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 13);
        (cfg, store, params)
    }

    fn enc(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        seed: usize,
    ) -> Tensor {
        let src = vec![SOS, 6 + (seed % 5), 7 + (seed % 7), 9, EOS];
        encode_source(store, params, cfg, &src)
    }

    /// Winner of the same request decoded alone by a fresh scheduler.
    fn reference_ids(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        enc_out: &Tensor,
        prompt: &[usize],
        max_len: usize,
        opts: DecodeOptions,
    ) -> Vec<usize> {
        let mut dec = BatchDecoder::with_precision(store, params, cfg, opts.beam, opts.precision);
        let req = BatchRequest {
            enc_out: enc_out.clone().into(),
            prompt: prompt.to_vec(),
            max_len,
            opts,
            submit: SubmitOptions::default(),
        };
        dec.decode_all(vec![req]).swap_remove(0)
    }

    fn model_over(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
    ) -> Arc<EngineModel> {
        Arc::new(EngineModel::new(
            store.clone(),
            params.clone(),
            cfg.clone(),
            Precision::F32,
        ))
    }

    fn engine_over(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        econf: EngineConfig,
    ) -> Engine {
        Engine::new(model_over(store, params, cfg), econf)
    }

    #[test]
    fn single_worker_engine_matches_batch_decoder() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..4).map(|i| enc(&store, &params, &cfg, i)).collect();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
        let reference = dec.decode_all(
            encs.iter()
                .map(|e| BatchRequest::greedy(e.clone(), 20))
                .collect(),
        );
        let engine = engine_over(
            &store,
            &params,
            &cfg,
            EngineConfig {
                workers: 1,
                max_batch: 4,
                ..EngineConfig::default()
            },
        );
        let out = engine.decode_all(
            encs.into_iter()
                .map(|e| BatchRequest::greedy(e, 20))
                .collect(),
        );
        assert_eq!(out, reference);
        let stats = engine.shutdown();
        assert_eq!(stats.pages_live, 0, "single worker leaked pages");
    }

    #[test]
    fn multi_worker_engine_is_bitwise_identical_to_serial_decode() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..6).map(|i| enc(&store, &params, &cfg, i)).collect();
        let singles: Vec<Vec<usize>> = encs
            .iter()
            .map(|e| {
                reference_ids(
                    &store,
                    &params,
                    &cfg,
                    e,
                    &[SOS],
                    20,
                    DecodeOptions::default(),
                )
            })
            .collect();
        let engine = engine_over(
            &store,
            &params,
            &cfg,
            EngineConfig {
                workers: 3,
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let out = engine.decode_all(
            encs.into_iter()
                .map(|e| BatchRequest::greedy(e, 20))
                .collect(),
        );
        assert_eq!(out, singles);
        assert_eq!(engine.shutdown().pages_live, 0, "a worker leaked pages");
    }

    fn src(seed: usize) -> Vec<usize> {
        vec![SOS, 6 + (seed % 5), 7 + (seed % 7), 9, EOS]
    }

    /// Submit one request and drain, returning its winner.
    fn decode_one(engine: &Engine, req: BatchRequest) -> Vec<usize> {
        let ticket = engine.submit(req);
        engine.drain();
        match engine.poll(ticket) {
            PollResult::Done { ids, .. } => ids,
            other => panic!("sequenced request not done: {other:?}"),
        }
    }

    /// The encoder table sits in front of every worker: a repeated source
    /// runs one forward and then hits, whichever worker decodes it, and
    /// each member — prompted, edited or resubmitted — decodes bitwise
    /// like the reference over a fresh forward.
    #[test]
    fn prefix_table_is_shared_across_workers() {
        let (cfg, store, params) = setup();
        let e = encode_source(&store, &params, &cfg, &src(3));
        let base: Vec<usize> = std::iter::once(SOS)
            .chain((0..17).map(|i| 3 + i % 20))
            .collect();
        let mut edited = base.clone();
        edited[16] += 1;
        let reference = |prompt: &[usize]| {
            reference_ids(
                &store,
                &params,
                &cfg,
                &e,
                prompt,
                24,
                DecodeOptions::default(),
            )
        };
        let engine = engine_over(
            &store,
            &params,
            &cfg,
            EngineConfig {
                workers: 2,
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let request = |prompt: &[usize]| {
            let enc_out = engine.encode(&src(3));
            assert_eq!(enc_out.data, e.data, "a hit returns the forward's bits");
            BatchRequest {
                enc_out,
                prompt: prompt.to_vec(),
                max_len: 24,
                opts: DecodeOptions::default(),
                submit: SubmitOptions::default(),
            }
        };
        // Drains between submits let different workers serve each request.
        assert_eq!(decode_one(&engine, request(&base)), reference(&base));
        assert_eq!(decode_one(&engine, request(&edited)), reference(&edited));
        assert_eq!(decode_one(&engine, request(&base)), reference(&base));
        let s = engine.prefix_stats();
        assert_eq!((s.misses, s.hits), (1, 2), "only the first encode runs");
        assert_eq!((s.shared_rows, s.prefilled_rows), (0, 3 * 17));
        assert_eq!(engine.shutdown().pages_live, 0, "a worker leaked pages");
    }

    /// The fleet's encoder table holds at most `PREFIX_CACHE_CAP` entries
    /// in LRU order: a hot buffer resubmitted between `PREFIX_CACHE_CAP`
    /// distinct cold ones survives and the one capacity eviction takes the
    /// coldest. A full table pins no pages: the idle pool is empty.
    #[test]
    fn prefix_table_is_lru_bounded_and_pins_no_pages() {
        let (cfg, store, params) = setup();
        let engine = engine_over(
            &store,
            &params,
            &cfg,
            EngineConfig {
                workers: 2,
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let submit_one = |seed: usize| {
            decode_one(&engine, BatchRequest::greedy(engine.encode(&src(seed)), 8));
            assert!(engine.shared.prefix.len() <= PREFIX_CACHE_CAP);
            engine.prefix_stats()
        };
        submit_one(0);
        for seed in 1..=PREFIX_CACHE_CAP {
            submit_one(0);
            submit_one(seed);
        }
        let s = engine.prefix_stats();
        let cap = PREFIX_CACHE_CAP as u64;
        assert_eq!((s.hits, s.misses, s.evictions), (cap, cap + 1, 1));
        assert_eq!(submit_one(0).hits, s.hits + 1, "the hot entry survived");
        assert_eq!(
            submit_one(1).misses,
            s.misses + 1,
            "the coldest was evicted"
        );
        assert_eq!(engine.shared.prefix.len(), PREFIX_CACHE_CAP);
        assert_eq!(engine.pool_stats().pages_live, 0, "entries pin no pages");
        assert_eq!(engine.shutdown().pages_live, 0);
    }

    /// A resubmitted source — its encoder forward skipped — decodes to the
    /// same ranked hypotheses as the same source on a fresh engine, in F32
    /// and Int8, greedy and at beam 4.
    #[test]
    fn resubmitted_source_decodes_like_a_fresh_engine() {
        let (cfg, store, params) = setup();
        for precision in [Precision::F32, Precision::Int8] {
            let model = Arc::new(EngineModel::new(
                store.clone(),
                params.clone(),
                cfg.clone(),
                precision,
            ));
            for beam in [1, 4] {
                let opts = DecodeOptions {
                    beam,
                    precision,
                    ..DecodeOptions::default()
                };
                let decode = |engine: &Engine| {
                    let mut req = BatchRequest::greedy(engine.encode(&src(2)), 16);
                    req.opts = opts;
                    engine.decode_all_hypotheses(vec![req]).swap_remove(0)
                };
                let econf = EngineConfig {
                    workers: 2,
                    max_batch: 4,
                    ..EngineConfig::default()
                };
                let fresh = Engine::new(Arc::clone(&model), econf);
                let want = decode(&fresh);
                let engine = Engine::new(Arc::clone(&model), econf);
                assert_eq!(decode(&engine), want, "{precision:?} beam {beam}: first");
                assert_eq!(decode(&engine), want, "{precision:?} beam {beam}: resubmit");
                let s = engine.prefix_stats();
                assert_eq!((s.misses, s.hits), (1, 1), "{precision:?} beam {beam}");
                assert_eq!(engine.shutdown().pages_live, 0);
                assert_eq!(fresh.shutdown().pages_live, 0);
            }
        }
    }

    #[test]
    fn bulk_backlog_is_stolen_and_decoded() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..4).map(|i| enc(&store, &params, &cfg, i)).collect();
        let singles: Vec<Vec<usize>> = encs
            .iter()
            .map(|e| {
                reference_ids(
                    &store,
                    &params,
                    &cfg,
                    e,
                    &[SOS],
                    16,
                    DecodeOptions::default(),
                )
            })
            .collect();
        let engine = engine_over(
            &store,
            &params,
            &cfg,
            EngineConfig {
                workers: 2,
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let out = engine.decode_all(
            encs.into_iter()
                .map(|e| BatchRequest::greedy(e, 16).bulk())
                .collect(),
        );
        assert_eq!(out, singles);
        assert_eq!(
            engine.bulk_steals(),
            4,
            "every bulk request reaches a worker through the shared backlog"
        );
        assert!(
            engine.placements().is_empty(),
            "bulk is never front-end placed"
        );
        engine.shutdown();
    }

    #[test]
    fn interactive_placement_is_a_function_of_seed_and_schedule() {
        let (cfg, store, params) = setup();
        let run = |seed: u64| {
            let engine = engine_over(
                &store,
                &params,
                &cfg,
                EngineConfig {
                    workers: 3,
                    max_batch: 2,
                    seed,
                    ..EngineConfig::default()
                },
            );
            let _tickets: Vec<EngineTicket> = (0..9)
                .map(|i| engine.submit(BatchRequest::greedy(enc(&store, &params, &cfg, i), 10)))
                .collect();
            engine.drain();
            let placements = engine.placements();
            engine.shutdown();
            placements
        };
        assert_eq!(run(7), run(7), "same seed must replay the same placement");
        // Placement balances cumulative lanes: 9 equal requests over 3
        // workers land 3 per worker regardless of seed.
        let mut per_worker = [0usize; 3];
        for (_, w) in run(11) {
            per_worker[w] += 1;
        }
        assert_eq!(per_worker, [3, 3, 3]);
    }

    /// The placement log keeps only the newest `PLACEMENT_LOG_CAP`
    /// entries, so a daemon's engine does not grow one per keystroke for
    /// the life of the process.
    #[test]
    fn placement_log_keeps_the_newest_entries_up_to_the_cap() {
        let (cfg, store, params) = setup();
        let engine = engine_over(&store, &params, &cfg, EngineConfig::with_workers(2));
        let e = enc(&store, &params, &cfg, 0);
        let extra = 5;
        // A `<sos>` prompt at a length cap of 1 retires at admission.
        let tickets: Vec<EngineTicket> = (0..PLACEMENT_LOG_CAP + extra)
            .map(|_| engine.submit(BatchRequest::greedy(e.clone(), 1)))
            .collect();
        let placements = engine.placements();
        assert_eq!(placements.len(), PLACEMENT_LOG_CAP);
        let kept: Vec<EngineTicket> = placements.iter().map(|&(t, _)| t).collect();
        assert_eq!(kept, tickets[extra..], "the newest placements, in order");
        engine.drain();
        engine.shutdown();
    }

    #[test]
    fn cancel_and_poll_lifecycle() {
        let (cfg, store, params) = setup();
        let engine = engine_over(
            &store,
            &params,
            &cfg,
            EngineConfig {
                workers: 1,
                max_batch: 1,
                ..EngineConfig::default()
            },
        );
        assert!(
            !engine.cancel(EngineTicket::from_raw(999)),
            "unknown tickets are not cancellable"
        );
        let tickets: Vec<EngineTicket> = (0..3)
            .map(|i| engine.submit(BatchRequest::greedy(enc(&store, &params, &cfg, i), 16)))
            .collect();
        let was_pending = engine.cancel(tickets[2]);
        engine.drain();
        match engine.poll(tickets[2]) {
            PollResult::Cancelled => assert!(was_pending),
            PollResult::Done { .. } => {} // finished before the cancel landed
            other => panic!("cancelled ticket resolved as {other:?}"),
        }
        for &t in &tickets[..2] {
            assert!(
                matches!(engine.poll(t), PollResult::Done { .. }),
                "untouched requests still finish"
            );
        }
        assert!(
            matches!(engine.poll(tickets[0]), PollResult::Unknown),
            "Done redeems exactly once"
        );
        let stats = engine.shutdown();
        assert_eq!(stats.pages_live, 0);
    }

    /// A request over `src(seed)` submitted by its encoder ids.
    /// (`enc(.., seed)` is the output of its forward.)
    fn source(seed: usize, max_len: usize) -> SourceRequest {
        SourceRequest {
            ids: src(seed),
            prompt: vec![SOS],
            max_len,
            opts: DecodeOptions::default(),
            submit: SubmitOptions::default(),
        }
    }

    /// Every way an Interactive ticket can resolve releases its count —
    /// harvest, a cancel from the inbox or mid-flight, and shutdown — for
    /// pre-encoded and id-submitted tickets alike, and Bulk is never
    /// counted.
    #[test]
    fn interactive_count_is_released_on_every_resolution_path() {
        let (cfg, store, params) = setup();
        let engine = engine_over(
            &store,
            &params,
            &cfg,
            EngineConfig {
                workers: 2,
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let mut bulk = source(0, 16);
        bulk.submit = SubmitOptions::bulk();
        let bulk = engine.submit_source(bulk);
        assert_eq!(engine.interactive_in_flight(), 0, "bulk is not counted");
        let tickets: Vec<EngineTicket> = (0..4)
            .map(|i| match i % 2 {
                0 => engine.submit(BatchRequest::greedy(enc(&store, &params, &cfg, i), 16)),
                _ => engine.submit_source(source(i, 16)),
            })
            .collect();
        engine.cancel(tickets[0]);
        engine.cancel(tickets[3]);
        engine.drain();
        assert_eq!(engine.interactive_in_flight(), 0, "harvest and cancels");
        for t in tickets.into_iter().chain([bulk]) {
            assert!(!engine.poll(t).is_pending());
        }
        // Shutdown with Interactive work still queued, encoding or decoding.
        for i in 0..6 {
            engine.submit(BatchRequest::greedy(enc(&store, &params, &cfg, i), 16));
            engine.submit_source(source(i, 16));
        }
        let mut engine = engine;
        engine.begin_shutdown();
        for h in engine.handles.drain(..) {
            h.join().expect("worker exits cleanly");
        }
        assert_eq!(engine.interactive_in_flight(), 0, "shutdown");
        assert_eq!(engine.pending(), 0);
    }

    /// A Bulk ticket a keystroke preempts polls `Queued` again — not the
    /// `Decoding` partial its worker published before the preemption.
    #[test]
    fn preempted_bulk_ticket_polls_queued() {
        let (mut cfg, _, _) = setup();
        // Long enough that neither request can finish inside the polls.
        cfg.max_dec_len = 512;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 13);
        let engine = engine_over(
            &store,
            &params,
            &cfg,
            EngineConfig {
                workers: 1,
                max_batch: 1,
                ..EngineConfig::default()
            },
        );
        let long = |seed: usize| {
            let mut req = BatchRequest::greedy(enc(&store, &params, &cfg, seed), cfg.max_dec_len);
            req.opts.min_len = cfg.max_dec_len;
            req
        };
        let until_decoding = |ticket: EngineTicket| loop {
            match engine.poll(ticket) {
                PollResult::Decoding { .. } => break,
                PollResult::Queued { .. } => std::thread::yield_now(),
                other => panic!("{ticket} resolved early: {other:?}"),
            }
        };
        let bulk = engine.submit(long(0).bulk());
        until_decoding(bulk);
        // Held from its submission on — its encoder forward on the worker
        // included — the keystroke keeps the bulk request from finishing or
        // resuming before the assertion below.
        let mut keystroke = source(1, cfg.max_dec_len);
        keystroke.opts.min_len = cfg.max_dec_len;
        let keystroke = engine.submit_source(keystroke);
        until_decoding(keystroke);
        assert_eq!(
            engine.poll(bulk),
            PollResult::Queued { position: 0 },
            "the preempted bulk ticket waits, first in its worker's queue"
        );
        engine.drain();
        assert_eq!(engine.preemptions(), 1);
        assert_eq!(engine.shutdown().pages_live, 0);
    }

    /// A caller-stepped engine is a `BatchDecoder` behind the engine's
    /// routing: fed the same submissions between the same steps, every
    /// step advances the same hypotheses and encoder layers and every
    /// ticket polls the same state — queue positions, partial ids, stage
    /// 0, preemption and all. Odd requests go by their encoder ids, so the
    /// worker runs their forwards inside its turns.
    #[test]
    fn stepped_engine_replays_a_batch_decoder_step_for_step() {
        let (cfg, store, params) = setup();
        let req = |i: usize| {
            let mut req = BatchRequest::greedy(enc(&store, &params, &cfg, i), 20);
            req.opts.min_len = 4 + i;
            req
        };
        let by_ids = |r: BatchRequest, i: usize| SourceRequest {
            ids: src(i),
            prompt: r.prompt,
            max_len: r.max_len,
            opts: r.opts,
            submit: r.submit,
        };
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        let engine = Engine::stepped(
            model_over(&store, &params, &cfg),
            EngineConfig {
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let mut pairs: Vec<(RequestId, EngineTicket)> = Vec::new();
        for step in 0.. {
            let arrivals = match step {
                0 => (0..3).map(|i| (i, req(i).bulk())).collect(),
                3 => vec![(3, req(3)), (4, req(4).bulk())],
                _ => Vec::new(),
            };
            for (i, r) in arrivals {
                pairs.push(match i % 2 {
                    0 => (dec.submit(r.clone()), engine.submit(r)),
                    _ => {
                        let r = by_ids(r, i);
                        (dec.submit_source(r.clone()), engine.submit_source(r))
                    }
                });
            }
            let advanced = dec.step();
            assert_eq!(engine.step(), advanced, "step {step}");
            for &(id, ticket) in &pairs {
                assert_eq!(engine.poll(ticket), dec.poll(id), "step {step}, {ticket}");
            }
            if advanced == 0 {
                break;
            }
        }
        assert_eq!(engine.preemptions(), dec.preemptions());
        assert!(engine.preemptions() > 0, "the keystroke preempted bulk");
        assert_eq!(engine.encoder_layers(), dec.encoder_layers());
        assert_eq!(engine.encoder_layers(), 2 * 2, "two forwards of two layers");
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.shutdown().pages_live, 0);
    }

    /// Stage 0 runs on the worker, inside the turns: nothing is looked up
    /// or encoded before the first turn, a Bulk forward cancelled part-way
    /// resolves `Cancelled`, and a shutdown with a forward paused, one not
    /// started and a keystroke never pulled resolves each `Cancelled`,
    /// with the count back at 0 and no live page.
    #[test]
    fn stage_0_cancels_and_shutdown_resolve_cancelled() {
        let (cfg, store, params) = setup();
        let engine = Engine::stepped(
            model_over(&store, &params, &cfg),
            EngineConfig {
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let bulk = |seed: usize| SourceRequest {
            submit: SubmitOptions::bulk(),
            ..source(seed, 16)
        };
        let a = engine.submit_source(bulk(0));
        assert_eq!(engine.prefix_stats().lookups(), 0, "submit encodes nothing");
        assert_eq!(engine.step(), 1, "one layer of a's forward");
        assert!(engine.cancel(a));
        assert_eq!(engine.step(), 0, "the turn applies the cancel");
        assert_eq!(engine.poll(a), PollResult::Cancelled);
        let paused = engine.submit_source(bulk(1));
        let unstarted = engine.submit_source(bulk(2));
        assert_eq!(engine.step(), 1, "one layer of the first forward");
        let keystroke = engine.submit_source(source(3, 16));
        assert_eq!(engine.interactive_in_flight(), 1, "counted before stage 0");
        let mut engine = engine;
        engine.begin_shutdown();
        for h in engine.handles.drain(..) {
            h.join().expect("worker exits cleanly");
        }
        for t in [paused, unstarted, keystroke] {
            assert_eq!(engine.poll(t), PollResult::Cancelled, "{t}");
        }
        assert_eq!((engine.interactive_in_flight(), engine.pending()), (0, 0));
        assert_eq!(engine.encoder_layers(), 2);
        assert_eq!(engine.pool_stats().pages_live, 0);
    }

    /// A table hit shares the retained output: `Engine::encode` of the same
    /// ids twice returns one buffer, the one a worker's stage 0 retained
    /// for an id-submitted request over those ids.
    #[test]
    fn encoder_table_hits_share_one_buffer() {
        let (cfg, store, params) = setup();
        let engine = engine_over(&store, &params, &cfg, EngineConfig::with_workers(2));
        let ticket = engine.submit_source(source(2, 8));
        engine.drain();
        assert!(matches!(engine.poll(ticket), PollResult::Done { .. }));
        let (first, again) = (engine.encode(&src(2)), engine.encode(&src(2)));
        assert!(Arc::ptr_eq(&first, &again), "a hit is an Arc bump");
        assert_eq!(first.data, enc(&store, &params, &cfg, 2).data);
        let s = engine.prefix_stats();
        assert_eq!((s.misses, s.hits), (1, 2), "stage 0 ran the one forward");
        assert_eq!(engine.encoder_layers(), 2);
        assert_eq!(engine.shutdown().pages_live, 0);
    }

    /// Threads stepping one caller-stepped engine at once each get a turn
    /// of their own: together they run the schedule a single caller runs,
    /// every call reporting one distinct turn's count.
    #[test]
    fn stepped_engine_gives_concurrent_callers_one_turn_each() {
        let (cfg, store, params) = setup();
        let reqs: Vec<BatchRequest> = (0..4)
            .map(|i| {
                let mut req = BatchRequest::greedy(enc(&store, &params, &cfg, i), 20);
                req.opts.min_len = 6 + i;
                req
            })
            .collect();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        let ids: Vec<RequestId> = reqs.iter().map(|r| dec.submit(r.clone())).collect();
        let mut want: Vec<usize> = std::iter::from_fn(|| Some(dec.step()))
            .take_while(|&n| n > 0)
            .collect();
        // Two callers, an equal number of turns each, the last ones idle.
        want.resize(want.len() + 2 - want.len() % 2, 0);
        let engine = Engine::stepped(
            model_over(&store, &params, &cfg),
            EngineConfig {
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<EngineTicket> = reqs.into_iter().map(|r| engine.submit(r)).collect();
        let mut got: Vec<usize> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        (0..want.len() / 2)
                            .map(|_| engine.step())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            callers
                .into_iter()
                .flat_map(|c| c.join().expect("caller returns"))
                .collect()
        });
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "each call reports its own turn");
        for (id, ticket) in ids.into_iter().zip(tickets) {
            assert_eq!(engine.poll(ticket), dec.poll(id), "{ticket}");
        }
        assert_eq!(engine.shutdown().pages_live, 0);
    }

    /// Nothing waits for a turn nobody grants: `drain` runs the turns of a
    /// caller-stepped engine itself, and shutdown with work still queued
    /// returns at once and cancels it.
    #[test]
    fn stepped_engine_drains_and_shuts_down_without_grants() {
        let (cfg, store, params) = setup();
        let engine = Engine::stepped(
            model_over(&store, &params, &cfg),
            EngineConfig {
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let encs: Vec<Tensor> = (0..3).map(|i| enc(&store, &params, &cfg, i)).collect();
        let out = engine.decode_all(
            encs.iter()
                .map(|e| BatchRequest::greedy(e.clone(), 16))
                .collect(),
        );
        for (e, got) in encs.iter().zip(out) {
            let alone = reference_ids(
                &store,
                &params,
                &cfg,
                e,
                &[SOS],
                16,
                DecodeOptions::default(),
            );
            assert_eq!(got, alone);
        }
        let stranded = engine.submit(BatchRequest::greedy(encs[0].clone(), 16));
        assert!(engine.poll(stranded).is_pending());
        assert_eq!(engine.shutdown().pages_live, 0);
    }

    /// A worker that dies mid-turn (here on a request its scheduler
    /// rejects) fails the caller waiting for the turn instead of hanging
    /// it.
    #[test]
    #[should_panic(expected = "exited before taking its turn")]
    fn stepped_engine_reports_a_dead_worker() {
        let (cfg, store, params) = setup();
        let engine = Engine::stepped(model_over(&store, &params, &cfg), EngineConfig::default());
        let mut req = BatchRequest::greedy(enc(&store, &params, &cfg, 0), 8);
        req.prompt.clear();
        engine.submit(req);
        engine.step();
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn submit_rejects_precision_mismatch() {
        let (cfg, store, params) = setup();
        let engine = engine_over(&store, &params, &cfg, EngineConfig::default());
        let mut req = BatchRequest::greedy(enc(&store, &params, &cfg, 0), 8);
        req.opts.precision = Precision::Int8;
        engine.submit(req);
    }

    #[test]
    #[should_panic(expected = "beam width")]
    fn submit_rejects_oversized_beam() {
        let (cfg, store, params) = setup();
        let engine = engine_over(
            &store,
            &params,
            &cfg,
            EngineConfig {
                workers: 1,
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        engine.submit(BatchRequest::beam(enc(&store, &params, &cfg, 0), 8, 4));
    }
}
