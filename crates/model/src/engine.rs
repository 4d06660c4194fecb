//! Sharded multi-core serving engine: N [`BatchDecoder`] workers behind one
//! admission front-end.
//!
//! One `BatchDecoder` already overlaps N requests in lockstep, but a single
//! scheduler is one thread: aggregate throughput stops at one core (plus
//! whatever the fused kernels parallelize internally). The [`Engine`] scales
//! out instead: each worker thread owns a private `BatchDecoder` scheduler
//! — its own lanes and scheduler clock — while all workers draw pages from
//! **one shared [`PagePool`]** and cross-attention K/V from **one shared
//! [`PrefixTable`]** (see [`crate::prefix`]): an encoder output projected
//! by any worker is shared by an identical resubmit landing on any other.
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
//!   a count of Interactive requests in flight: [`submit`](Engine::submit)
//!   of an Interactive request raises it, and so does an
//!   [`InteractiveReservation`] a front-end takes before it runs the
//!   request's encoder forward; the one resolution point every ticket goes
//!   through (harvest, cancel, shutdown) lowers it. While it is non-zero,
//!   every worker holds its unprotected bulk work — admitted groups keep
//!   their lanes and pages but sit steps out, queued bulk is not admitted —
//!   and a worker with nothing else parks, so the keystroke's encoder and
//!   its batch-of-one decode get the cores. Aged (protected) bulk is
//!   exempt: held steps count toward aging (see [`BatchDecoder`]), and a
//!   parked worker is woken by the fleet's step clock when its held work
//!   would age, so the aging bound still bounds starvation. The price is
//!   that bulk pauses for the life of each keystroke.
//! * **Synchronous client API.** [`submit`](Engine::submit) /
//!   [`poll`](Engine::poll) / [`cancel`](Engine::cancel) are ordinary
//!   synchronous calls from any thread (the engine is `Sync`); workers run
//!   autonomously and park on a condvar when idle.
//!
//! # Determinism
//!
//! Every request's output is **bitwise identical** at any worker count:
//! a request decodes entirely within one worker's `BatchDecoder`, whose
//! per-lane numerics are pinned bitwise to the single-request reference
//! (see [`decode_step_batch`](crate::decode_step_batch)), and lanes never
//! read each other's *mutable* state — shared cross-attention K/V are
//! immutable and a pure function of `enc_out`, identical no matter which
//! worker projected them — so neither placement, stealing order, nor
//! co-scheduled traffic can perturb a logit. What *does* vary with timing
//! is scheduling telemetry (queue waits, preemptions) and which worker ran
//! a stolen bulk request. `tests/parallel_engine_props.rs` drives random
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
    BatchDecoder, BatchRequest, PollResult, Priority, RequestId, DEFAULT_AGING_STEPS,
    DEFAULT_MAX_BATCH,
};
use crate::config::ModelConfig;
use crate::infer::{DecoderWeights, Precision};
use crate::paged::{PagePool, PoolStats};
use crate::prefix::{PrefixStats, PrefixTable};
use crate::transformer::TransformerParams;
use crate::Seq2SeqModel;
use mpirical_tensor::ParamStore;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An owned, shareable model bundle for worker threads: parameters, config,
/// and the decoder weights prepared **once** for the engine's precision.
/// Workers borrow from one `Arc<EngineModel>`, so N workers never re-pack or
/// re-quantize weights.
#[derive(Debug)]
pub struct EngineModel {
    pub store: ParamStore,
    pub params: TransformerParams,
    pub cfg: ModelConfig,
    weights: DecoderWeights,
}

impl EngineModel {
    /// Bundle a model, preparing decoder weights for `precision`.
    pub fn new(
        store: ParamStore,
        params: TransformerParams,
        cfg: ModelConfig,
        precision: Precision,
    ) -> EngineModel {
        let weights = DecoderWeights::for_precision(&store, &params, precision);
        EngineModel {
            store,
            params,
            cfg,
            weights,
        }
    }

    /// Bundle a model around an already-prepared weight set (an artifact's
    /// load-time quantized weights). `weights` must come from the same
    /// `(store, params)`.
    pub fn with_weights(
        store: ParamStore,
        params: TransformerParams,
        cfg: ModelConfig,
        weights: DecoderWeights,
    ) -> EngineModel {
        EngineModel {
            store,
            params,
            cfg,
            weights,
        }
    }

    /// Bundle a copy of a checkpointed artifact.
    pub fn from_model(model: &Seq2SeqModel, precision: Precision) -> EngineModel {
        EngineModel::new(
            model.store.clone(),
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
    /// sheds prefix-table entries / bulk lanes by its own scheduler's policy.
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

/// A routed request awaiting a worker.
struct Job {
    ticket: EngineTicket,
    req: BatchRequest,
}

/// A retired request's terminal state.
enum Resolution {
    Done {
        ids: Vec<usize>,
        hypotheses: Vec<Vec<usize>>,
        telemetry: crate::batch::RequestTelemetry,
    },
    Cancelled,
}

/// Mutable engine state behind one mutex. Workers hold it only for routing
/// bookkeeping (pops, publishes) — never across a decode step.
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
    /// Tickets submitted and not yet resolved, with their class.
    pending: HashMap<EngineTicket, Priority>,
    /// Interactive requests in flight: pending Interactive tickets plus
    /// outstanding [`InteractiveReservation`]s. While it is non-zero every
    /// worker holds its unprotected bulk work (see module docs).
    interactive: usize,
    /// Decode steps run fleet-wide — the clock a worker sitting out the
    /// hold credits its held work with (see [`BatchDecoder`] aging).
    fleet_steps: u64,
    /// Per worker: the `fleet_steps` value at which held work parked on it
    /// ages past the bound (`u64::MAX`: not parked on aging).
    wake_at: Vec<u64>,
    /// Latest streamed partial ids per decoding ticket.
    progress_tokens: HashMap<EngineTicket, Vec<usize>>,
    /// Worker that pulled each in-flight ticket.
    owner: HashMap<EngineTicket, usize>,
    /// Cumulative lanes placed per worker by the front-end (interactive
    /// only — monotone, so placement is a pure function of the submission
    /// sequence; bulk stealing provides the timing-reactive balance).
    placed_lanes: Vec<u64>,
    /// Interactive placements in submission order (telemetry; the
    /// determinism property asserts this is a function of seed + schedule).
    placements: Vec<(EngineTicket, usize)>,
    /// Bulk jobs pulled from the shared backlog by workers.
    bulk_steals: u64,
    /// Latest published per-worker scheduler telemetry. (Pool and prefix
    /// telemetry need no publishing: the shared pool and table are read
    /// directly.)
    sched_stats: Vec<WorkerSched>,
    next_ticket: u64,
}

/// Per-worker scheduler counters published each step.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerSched {
    preemptions: u64,
}

impl State {
    fn new(workers: usize) -> State {
        State {
            shutdown: false,
            inbox: (0..workers).map(|_| VecDeque::new()).collect(),
            backlog: Vec::new(),
            cancels: vec![Vec::new(); workers],
            results: HashMap::new(),
            pending: HashMap::new(),
            interactive: 0,
            fleet_steps: 0,
            wake_at: vec![u64::MAX; workers],
            progress_tokens: HashMap::new(),
            owner: HashMap::new(),
            placed_lanes: vec![0; workers],
            placements: Vec::new(),
            bulk_steals: 0,
            sched_stats: vec![WorkerSched::default(); workers],
            next_ticket: 0,
        }
    }

    /// Record a ticket's terminal state. Every resolution path — harvest,
    /// cancels, shutdown — ends here, so this is where an Interactive
    /// ticket leaves the in-flight count. Returns `true` when that lifted
    /// the fleet hold (the caller wakes the held workers).
    fn finish(&mut self, ticket: EngineTicket, resolution: Resolution) -> bool {
        let interactive = self.pending.remove(&ticket) == Some(Priority::Interactive);
        self.progress_tokens.remove(&ticket);
        self.owner.remove(&ticket);
        self.results.insert(ticket, resolution);
        interactive && self.release_interactive()
    }

    /// Drop one Interactive request from the in-flight count; `true` when
    /// the count reached zero.
    fn release_interactive(&mut self) -> bool {
        self.interactive -= 1;
        self.interactive == 0
    }

    /// Pop the best bulk job: earliest deadline stamp first, then FIFO.
    fn pop_backlog(&mut self) -> Option<Job> {
        let best = self
            .backlog
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| (j.req.submit.deadline.unwrap_or(u64::MAX), j.ticket.0))
            .map(|(i, _)| i)?;
        Some(self.backlog.remove(best))
    }
}

struct Shared {
    model: Arc<EngineModel>,
    cfg: EngineConfig,
    /// The fleet-wide page pool every worker's lanes draw from.
    pool: PagePool,
    /// The fleet-wide prefix table.
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
    /// Seed-derived starting offset for the placement tie-break rotation.
    rotation: usize,
}

/// splitmix64 — decorrelates the raw seed into a rotation offset.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl Engine {
    /// Spawn `cfg.workers` worker threads over a shared model bundle.
    ///
    /// # Panics
    ///
    /// If `cfg.workers` is 0 (delegated lane checks — `max_batch` ≥ 1 —
    /// panic in the workers' `BatchDecoder` constructors).
    pub fn new(model: Arc<EngineModel>, cfg: EngineConfig) -> Engine {
        assert!(cfg.workers >= 1, "engine needs at least one worker");
        let pool = PagePool::new(model.cfg.d_head());
        let shared = Arc::new(Shared {
            model,
            cfg,
            pool,
            prefix: PrefixTable::new(),
            state: Mutex::new(State::new(cfg.workers)),
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
            rotation: (splitmix64(cfg.seed) % cfg.workers as u64) as usize,
        }
    }

    /// Queue a request, routing it by priority class (see module docs), and
    /// return its ticket.
    ///
    /// # Panics
    ///
    /// If the request's beam width is 0 or exceeds the per-worker
    /// `max_batch`, its precision differs from the engine model's, or the
    /// engine has been shut down.
    pub fn submit(&self, req: BatchRequest) -> EngineTicket {
        assert!(
            req.opts.beam >= 1 && req.opts.beam <= self.shared.cfg.max_batch,
            "beam width {} outside the engine's 1..={} lanes per worker",
            req.opts.beam,
            self.shared.cfg.max_batch
        );
        assert_eq!(
            req.opts.precision,
            self.shared.model.precision(),
            "request precision differs from the engine model's prepared weights"
        );
        let mut st = self.shared.state.lock();
        assert!(!st.shutdown, "engine is shut down");
        let ticket = EngineTicket(st.next_ticket);
        st.next_ticket += 1;
        st.pending.insert(ticket, req.submit.priority);
        match req.submit.priority {
            Priority::Interactive => {
                st.interactive += 1;
                let workers = self.shared.cfg.workers;
                let w = (0..workers)
                    .map(|i| (i + self.rotation) % workers)
                    .min_by_key(|&w| st.placed_lanes[w])
                    .expect("at least one worker");
                st.placed_lanes[w] += req.opts.beam as u64;
                st.placements.push((ticket, w));
                st.inbox[w].push_back(Job { ticket, req });
            }
            Priority::Bulk => st.backlog.push(Job { ticket, req }),
        }
        drop(st);
        self.shared.work.notify_all();
        ticket
    }

    /// Report a ticket's lifecycle state. `Done` and `Cancelled` redeem
    /// once, exactly like [`BatchDecoder::poll`]. `Decoding` streams the
    /// latest partial ids the owning worker published (one step stale at
    /// most); a ticket still queued — in the front-end or inside its
    /// worker — reports `Queued` with the number of front-end-queued
    /// requests ahead of it.
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
        if let Some(tokens) = st.progress_tokens.get(&ticket) {
            return PollResult::Decoding {
                tokens_so_far: tokens.clone(),
            };
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

    /// Count an Interactive request as in flight before it is submitted,
    /// so the fleet's bulk work is held while its front-end and encoder
    /// forward run (a keystroke's encoder shares the cores with the
    /// workers). The reservation ends when the returned guard drops;
    /// submit the request before that, and its ticket carries the hold on.
    pub fn reserve_interactive(&self) -> InteractiveReservation {
        self.shared.state.lock().interactive += 1;
        InteractiveReservation {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Interactive requests in flight — pending Interactive tickets plus
    /// outstanding reservations. While it is non-zero no unprotected bulk
    /// group is admitted or stepped on any worker; it is 0 whenever every
    /// Interactive ticket has resolved and no reservation is held.
    pub fn interactive_in_flight(&self) -> usize {
        self.shared.state.lock().interactive
    }

    /// Block until every submitted request has resolved (done or
    /// cancelled).
    pub fn drain(&self) {
        let mut st = self.shared.state.lock();
        while !st.pending.is_empty() {
            self.shared.progress.wait(&mut st);
        }
    }

    /// [`drain`](Engine::drain) with a timeout; `true` if fully drained.
    pub fn drain_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        while !st.pending.is_empty() {
            if self
                .shared
                .progress
                .wait_until(&mut st, deadline)
                .timed_out()
            {
                return st.pending.is_empty();
            }
        }
        true
    }

    /// The worker count this engine was built with.
    pub fn workers(&self) -> usize {
        self.shared.cfg.workers
    }

    /// Interactive placements `(ticket, worker)` in submission order — a
    /// pure function of the engine seed, worker count, and submission
    /// sequence (see module docs).
    pub fn placements(&self) -> Vec<(EngineTicket, usize)> {
        self.shared.state.lock().placements.clone()
    }

    /// Bulk jobs workers have stolen from the shared backlog so far.
    pub fn bulk_steals(&self) -> u64 {
        self.shared.state.lock().bulk_steals
    }

    /// Telemetry of the fleet-wide page pool (every worker draws from one
    /// shared pool, so this is a single-entry list — the shape is kept for
    /// callers that sum over entries).
    pub fn pool_stats(&self) -> Vec<PoolStats> {
        vec![self.shared.pool.stats()]
    }

    /// Preemptions across every worker's scheduler (bulk groups that
    /// yielded lanes to interactive arrivals).
    pub fn preemptions(&self) -> u64 {
        let st = self.shared.state.lock();
        st.sched_stats.iter().map(|s| s.preemptions).sum()
    }

    /// Telemetry of the fleet-wide prefix table: hits, misses, prefilled
    /// rows (see [`PrefixStats`]). The table is shared by every worker, so
    /// a hit occurs no matter which worker each request landed on.
    pub fn prefix_stats(&self) -> PrefixStats {
        self.shared.prefix.stats()
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
    /// **final** telemetry (a single-entry list), captured after every
    /// decoder dropped — so `pages_live == 0` unless pages actually leaked
    /// (the property harness's closing assertion; prefix-table entries pin
    /// no pages).
    pub fn shutdown(mut self) -> Vec<PoolStats> {
        self.begin_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        vec![self.shared.pool.stats()]
    }
}

/// An Interactive request counted in flight ahead of its submission (see
/// [`Engine::reserve_interactive`]); dropping it releases the count.
pub struct InteractiveReservation {
    shared: Arc<Shared>,
}

impl Drop for InteractiveReservation {
    fn drop(&mut self) {
        let lifted = self.shared.state.lock().release_interactive();
        if lifted {
            self.shared.work.notify_all();
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

/// One worker: a private `BatchDecoder` scheduler over the fleet-shared
/// pool and prefix table, driven by a pull-step-harvest loop.
fn worker_loop(shared: &Shared, w: usize) {
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
                if let Some(since) = parked_at.take() {
                    dec.sit_out(st.fleet_steps - since);
                }
                apply_cancels(shared, &mut st, &mut dec, &mut live, w);
                while let Some(job) = st.inbox[w].pop_front() {
                    st.owner.insert(job.ticket, w);
                    let rid = dec.submit(job.req);
                    live.push((job.ticket, rid));
                }
                // Steal bulk work while this worker plausibly has capacity
                // (the local scheduler's admission handles exact lane fit,
                // aging, and preemption).
                while dec.pending() < dec.max_batch() {
                    let Some(job) = st.pop_backlog() else { break };
                    st.owner.insert(job.ticket, w);
                    st.bulk_steals += 1;
                    let rid = dec.submit(job.req);
                    live.push((job.ticket, rid));
                }
                if st.shutdown {
                    should_exit = true;
                    break;
                }
                // The Interactive hold is fleet-wide: with a keystroke in
                // flight anywhere, this worker steps only protected work
                // and otherwise parks, leaving the cores to the keystroke.
                let held = st.interactive > 0;
                dec.set_fleet_hold(held);
                if !live.is_empty() && (!held || dec.has_unheld_work()) {
                    break;
                }
                // Parked on held work: ask to be woken when it would age
                // past the bound, so held time still bounds starvation.
                st.wake_at[w] = match dec.steps_until_unheld() {
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
        dec.step();
        // Harvest outside the lock, publish under it.
        let mut resolved: Vec<(EngineTicket, Resolution)> = Vec::new();
        let mut partials: Vec<(EngineTicket, Vec<usize>)> = Vec::new();
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
            PollResult::Decoding { tokens_so_far } => {
                partials.push((ticket, tokens_so_far));
                true
            }
            PollResult::Queued { .. } => true,
        });
        {
            let mut st = shared.state.lock();
            for (t, p) in partials {
                st.progress_tokens.insert(t, p);
            }
            let any_resolved = !resolved.is_empty();
            let mut lifted = false;
            for (t, r) in resolved {
                lifted |= st.finish(t, r);
            }
            st.sched_stats[w] = WorkerSched {
                preemptions: dec.preemptions(),
            };
            st.fleet_steps += 1;
            let aged = st.wake_at.iter().any(|&at| at <= st.fleet_steps);
            drop(st);
            if any_resolved {
                shared.progress.notify_all();
            }
            if lifted || aged {
                shared.work.notify_all();
            }
        }
    }
    // Shutdown: dropping the decoder releases every group's pages back to
    // the shared pool.
    let final_sched = WorkerSched {
        preemptions: dec.preemptions(),
    };
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
    use crate::decode::{encode_source, DecodeOptions};
    use crate::prefix::PREFIX_CACHE_CAP;
    use crate::transformer::build_params;
    use crate::vocab::{EOS, SOS};
    use crate::SubmitOptions;
    use mpirical_tensor::Tensor;

    /// A random (untrained) multi-layer model — the engine's equivalence
    /// properties hold for any weights.
    fn setup() -> (ModelConfig, ParamStore, TransformerParams) {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
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
            enc_out: enc_out.clone(),
            prompt: prompt.to_vec(),
            max_len,
            opts,
            submit: SubmitOptions::default(),
        };
        dec.decode_all(vec![req]).swap_remove(0)
    }

    fn engine_over(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        econf: EngineConfig,
    ) -> Engine {
        let model = Arc::new(EngineModel::new(
            store.clone(),
            params.clone(),
            cfg.clone(),
            Precision::F32,
        ));
        Engine::new(model, econf)
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
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].pages_live, 0, "single worker leaked pages");
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
        for (w, s) in engine.shutdown().into_iter().enumerate() {
            assert_eq!(s.pages_live, 0, "worker {w} leaked pages");
        }
    }

    /// Cross-K/V projected by whichever worker admits first are visible to
    /// every other worker through the shared prefix table: sequenced
    /// resubmits over the same encoder output hit no matter which worker
    /// picks them up, with outputs bitwise equal to the unshared reference.
    #[test]
    fn prefix_table_is_shared_across_workers() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 3);
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
        let submit_one = |prompt: &[usize]| {
            let ticket = engine.submit(BatchRequest {
                enc_out: e.clone(),
                prompt: prompt.to_vec(),
                max_len: 24,
                opts: DecodeOptions::default(),
                submit: SubmitOptions::default(),
            });
            engine.drain();
            match engine.poll(ticket) {
                PollResult::Done { ids, .. } => ids,
                other => panic!("sequenced request not done: {other:?}"),
            }
        };
        // Sequenced so the entry exists before the next lookup; drains
        // between submits let different workers serve each request.
        assert_eq!(submit_one(&base), reference(&base));
        assert_eq!(submit_one(&edited), reference(&edited));
        assert_eq!(submit_one(&base), reference(&base));
        let s = engine.prefix_stats();
        assert_eq!(
            (s.misses, s.hits),
            (1, 2),
            "only the first admission projects"
        );
        assert_eq!((s.shared_rows, s.prefilled_rows), (0, 3 * 17));
        for (w, s) in engine.shutdown().into_iter().enumerate() {
            assert_eq!(s.pages_live, 0, "worker {w} leaked pages");
        }
    }

    /// The fleet's prefix table holds at most `PREFIX_CACHE_CAP` entries in
    /// LRU order: a hot buffer resubmitted between `PREFIX_CACHE_CAP`
    /// distinct cold ones survives, the one capacity eviction takes the
    /// coldest, pressure eviction frees one entry per call until it reports
    /// empty, and no page is live after shutdown.
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
            let ticket = engine.submit(BatchRequest::greedy(enc(&store, &params, &cfg, seed), 8));
            engine.drain();
            assert!(matches!(engine.poll(ticket), PollResult::Done { .. }));
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
        let mut freed = 0;
        while engine.shared.prefix.evict_coldest() {
            freed += 1;
            assert!(freed <= PREFIX_CACHE_CAP, "table outgrew its cap");
        }
        assert_eq!(
            freed, PREFIX_CACHE_CAP,
            "a full table frees one entry per call"
        );
        submit_one(2);
        assert_eq!(engine.shutdown()[0].pages_live, 0);
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
        assert_eq!(stats[0].pages_live, 0);
    }

    #[test]
    fn backlog_pops_earliest_deadline_then_fifo() {
        let (cfg, store, params) = setup();
        let mut st = State::new(1);
        let deadlines = [Some(5u64), None, Some(2), Some(5)];
        for (i, dl) in deadlines.into_iter().enumerate() {
            let mut req = BatchRequest::greedy(enc(&store, &params, &cfg, i), 8).bulk();
            req.submit.deadline = dl;
            st.backlog.push(Job {
                ticket: EngineTicket(i as u64),
                req,
            });
        }
        let order: Vec<u64> = std::iter::from_fn(|| st.pop_backlog())
            .map(|j| j.ticket.raw())
            .collect();
        assert_eq!(
            order,
            vec![2, 0, 3, 1],
            "earliest deadline first, FIFO within ties, None last"
        );
    }

    /// Every way an Interactive ticket can resolve releases its count —
    /// harvest, a cancel from the inbox or mid-flight, and shutdown — and
    /// a reservation counts exactly while it is held.
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
        let reservation = engine.reserve_interactive();
        assert_eq!(engine.interactive_in_flight(), 1);
        let bulk = engine.submit(BatchRequest::greedy(enc(&store, &params, &cfg, 0), 16).bulk());
        assert_eq!(engine.interactive_in_flight(), 1, "bulk is not counted");
        let tickets: Vec<EngineTicket> = (0..4)
            .map(|i| engine.submit(BatchRequest::greedy(enc(&store, &params, &cfg, i), 16)))
            .collect();
        engine.cancel(tickets[0]);
        engine.cancel(tickets[3]);
        drop(reservation);
        engine.drain();
        assert_eq!(engine.interactive_in_flight(), 0, "harvest and cancels");
        for t in tickets.into_iter().chain([bulk]) {
            assert!(!engine.poll(t).is_pending());
        }
        // Shutdown with Interactive work still queued or decoding.
        for i in 0..6 {
            engine.submit(BatchRequest::greedy(enc(&store, &params, &cfg, i), 16));
        }
        let mut engine = engine;
        engine.begin_shutdown();
        for h in engine.handles.drain(..) {
            h.join().expect("worker exits cleanly");
        }
        assert_eq!(engine.interactive_in_flight(), 0, "shutdown");
        assert_eq!(engine.pending(), 0);
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
