//! Batched multi-request decoding with continuous batching, request
//! priorities, preemption, and a typed request lifecycle — the serving
//! layer the ROADMAP's "heavy traffic" north star asks for.
//!
//! The KV-cached engine in [`infer`](crate::infer) decodes one generation at
//! a time; a shared assistance service sees N concurrent `suggest` calls.
//! [`BatchDecoder`] runs those N generations in **lockstep**: every
//! scheduler step advances each active request by one token through
//! [`decode_step_batch`], which fuses the per-request weight projections
//! into packed-matrix kernels so each weight matrix is streamed once per
//! step instead of once per request.
//!
//! # Request lifecycle (serving API v2)
//!
//! Every submitted request moves through a typed state machine that
//! [`poll`](BatchDecoder::poll) reports as a [`PollResult`]:
//!
//! ```text
//!                 admit (priority order)          retire
//! submit ──▶ Queued ───────────────▶ Decoding ───────────▶ Done
//!              ▲                        │  ▲
//!              │   preempt (bulk lanes  │  │ resume: lane reassignment,
//!              └────────yield)──────────┘  │ K/V pages stay alive (COW
//!              cancel ──▶ Cancelled ◀── cancel   refcounts, no re-prefill)
//! ```
//!
//! * **Typed submission** — [`BatchRequest`] carries [`SubmitOptions`]: a
//!   [`Priority`] ([`Interactive`](Priority::Interactive) keystroke-latency
//!   work vs [`Bulk`](Priority::Bulk) background re-indexing) and an
//!   optional per-request cap on *generated* tokens.
//! * **Priority admission** — the queue is a priority queue: highest
//!   effective class first, FIFO ([`RequestId`] order) within a class. An
//!   **aging** rule promotes any request that has waited
//!   [`aging_steps`](BatchDecoder::aging_steps) scheduler steps to the
//!   interactive class (and admits it preemption-immune), so bulk work can
//!   never starve.
//! * **Preemption** — when an interactive-class candidate (a fresh
//!   interactive submission, or a request promoted by aging) finds every
//!   lane held and unprotected bulk groups are running, the
//!   youngest-admitted of them yield their lanes and re-enter the queue
//!   *paused*: their paged KV caches stay alive (pages are refcounted), so
//!   resuming is a lane reassignment, not a re-prefill, and the final
//!   tokens are unchanged.
//! * **Interactive hold** — while any Interactive request is in flight
//!   (queued or decoding here, or — under the sharded
//!   [`Engine`](crate::engine::Engine) — anywhere in the fleet), no
//!   unprotected bulk group is admitted or stepped: held groups keep their
//!   lanes, caches and pages and sit steps out, so the keystroke decodes
//!   in a batch of its own instead of beside up to `max_batch - 1` bulk
//!   lanes. Held steps count toward aging like queued ones: a group held
//!   for [`aging_steps`](BatchDecoder::aging_steps) steps in a row is
//!   promoted (protected) and steps again, so the aging bound still bounds
//!   starvation, while a group that steps between keystrokes starts its
//!   count afresh.
//! * **Typed results + control** — [`poll`](BatchDecoder::poll)
//!   distinguishes `Queued { position }`, `Decoding { tokens_so_far }`
//!   (streaming partial output), `Done { ids, telemetry }`, `Cancelled`,
//!   and `Unknown` (a ticket this scheduler never issued, or one already
//!   redeemed — a daemon can now detect client bugs).
//!   [`cancel`](BatchDecoder::cancel) retires a request from the queue or
//!   mid-flight, returning every page it held to the pool.
//!
//! # Continuous batching
//!
//! The batch is not fixed at submission time. Requests queue via
//! [`BatchDecoder::submit`] and are admitted into free *lanes* at the start
//! of the next step; a request that finishes (emits `<eos>` or hits its
//! length cap) retires immediately, freeing its lanes for the next queued
//! request **mid-flight** — no head-of-line blocking on the slowest
//! generation, and a late `submit` joins the very next lockstep step.
//!
//! # Batched beam search
//!
//! A request may decode with any `beam ≤ max_batch`. The scheduler reserves
//! `beam` lanes for it and runs the *exact* single-request beam semantics —
//! `expand_beams` and `ranked_hypothesis_ids` are literally shared with
//! [`decode_reference`](crate::decode::decode_reference) — over
//! hypotheses that are stepped in lockstep with every other request's.
//! Hypothesis forks are copy-on-write page shares (all lanes draw from one
//! [`PagePool`]), so a beam expansion bumps refcounts instead of copying
//! K/V rows.
//!
//! # Prefix sharing
//!
//! A fresh request is admitted through the [`PrefixTable`] (see
//! [`crate::prefix`]): when a byte-identical encoder output was admitted
//! recently — the IDE retrigger of an unchanged buffer — the request
//! starts from a 0-row fork of that output's cross-attention K/V instead
//! of projecting them again, then feeds its prompt as usual. The hash is
//! only a filter (encoder equality is verified in full) and the shared
//! projections are immutable, so outputs are unchanged. A fleet of
//! schedulers built by the [`Engine`](crate::engine::Engine) shares one
//! table; [`BatchDecoder::prefix_stats`] counts its hits and misses.
//!
//! # Equivalence
//!
//! Batching — and now scheduling order, preemption, and cancellation of
//! *other* requests — is a scheduling decision, not a numerical one: each
//! hypothesis owns its [`DecoderCache`], per-element accumulation order in
//! the fused kernels matches the single-request `vecmat` path exactly,
//! token selection shares greedy's argmax and beam's expansion code, and
//! paged storage is bitwise-equal to the contiguous reference. A request
//! decoded in a full batch — even one preempted and resumed mid-flight —
//! returns **the same ranked hypotheses** as
//! [`decode_reference`](crate::decode::decode_reference)
//! would alone, for any beam width; the tests here and the property
//! harnesses in `tests/paged_cache_props.rs` and `tests/serving_props.rs`
//! assert it.
//!
//! # Example
//!
//! ```
//! use mpirical_model::{
//!     BatchDecoder, BatchRequest, DecodeOptions, DecoderCache, ModelConfig, PollResult,
//! };
//! use mpirical_model::decode::{decode_reference, encode_source};
//! use mpirical_model::transformer::build_params;
//! use mpirical_model::vocab::SOS;
//! use mpirical_tensor::ParamStore;
//!
//! let mut cfg = ModelConfig::tiny();
//! cfg.vocab_size = 16;
//! let mut store = ParamStore::new();
//! let params = build_params(&cfg, &mut store, 7);
//! let enc = encode_source(&store, &params, &cfg, &[1, 6, 7, 2]);
//!
//! let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
//! // A background job and two keystroke-triggered requests: the
//! // interactive ones are admitted first, and the bulk job waits until
//! // they retire (it would hold its lanes if it were already decoding).
//! let bulk = dec.submit(BatchRequest::greedy(enc.clone(), 12).bulk());
//! let a = dec.submit(BatchRequest::greedy(enc.clone(), 12));
//! let b = dec.submit(BatchRequest::beam(enc.clone(), 12, 3));
//! dec.run();
//!
//! // Batched outputs are exactly the single-request reference's, down
//! // to the order of the final beam.
//! let reference = |opts| {
//!     let cache = DecoderCache::new(&store, &params, &cfg, &enc);
//!     decode_reference(&store, &params, &cfg, None, cache, &[SOS], 12, opts)
//! };
//! let greedy = reference(DecodeOptions::default());
//! let beamed = reference(DecodeOptions { beam: 3, ..Default::default() });
//! let PollResult::Done { ids, telemetry, .. } = dec.poll(a) else { panic!("retired") };
//! assert_eq!(ids, greedy[0]);
//! assert!(telemetry.decode_steps > 0);
//! let PollResult::Done { hypotheses, .. } = dec.poll(b) else { panic!("retired") };
//! assert_eq!(hypotheses, beamed);
//! assert_eq!(dec.poll(bulk).into_output().unwrap(), greedy[0]);
//! assert!(matches!(dec.poll(a), PollResult::Unknown), "ticket already redeemed");
//! ```

use crate::config::ModelConfig;
use crate::decode::{argmax_token, expand_beams, ranked_hypothesis_ids, Hypothesis};
use crate::infer::{decode_step_batch, BatchScratch, DecoderCache, DecoderWeights, Precision};
use crate::paged::{PagePool, PoolStats};
use crate::prefix::{PrefixStats, PrefixTable};
use crate::transformer::TransformerParams;
use crate::vocab::{EOS, SOS};
use crate::DecodeOptions;
use mpirical_tensor::{ParamStore, Tensor};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Ticket identifying a submitted request; redeem with
/// [`BatchDecoder::poll`].
///
/// A newtype (not a bare `u64`) so tickets cannot be confused with counts,
/// indices, or lane numbers at compile time. Construct one only by
/// submitting a request; [`raw`](Self::raw)/[`from_raw`](Self::from_raw)
/// exist for daemons that persist tickets across process boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The underlying ticket number (for logging / persistence).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a ticket from a persisted number. Polling a fabricated id
    /// is safe: the scheduler reports it as [`PollResult::Unknown`].
    pub fn from_raw(raw: u64) -> RequestId {
        RequestId(raw)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Scheduling class of a request. Ordered: `Interactive > Bulk`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Priority {
    /// Background work (corpus re-index, batch generation): decodes when
    /// lanes are free, yields its lanes to interactive arrivals, and is
    /// protected from starvation by the aging rule.
    Bulk,
    /// Latency-sensitive work (a keystroke-triggered suggestion): admitted
    /// before queued bulk work and allowed to preempt running bulk lanes.
    /// The default, so v1 `submit` callers keep their FIFO behaviour.
    #[default]
    Interactive,
}

/// Per-request submission knobs, carried by [`BatchRequest`] and flowing
/// through `MpiRical::request_from_encoded` → [`BatchDecoder::submit`] and the
/// service layer's `submit_with`. Serializable so a network daemon can
/// carry it verbatim inside its wire `Submit` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SubmitOptions {
    /// Scheduling class (see [`Priority`]).
    pub priority: Priority,
    /// Optional cap on **generated** tokens, applied on top of the
    /// request's `max_len` and the model's `max_dec_len` (an interactive
    /// client often wants only the first few tokens fast).
    pub max_new_tokens: Option<usize>,
    /// Optional deadline stamp for earliest-deadline-first ordering
    /// **within** a priority class: among queued requests of the same
    /// effective class, lower stamps are admitted first (`None` ranks after
    /// every explicit deadline). The unit is caller-defined — epoch
    /// milliseconds, a step count, any monotone urgency number — the
    /// scheduler only compares stamps, never reads a clock. Aging still
    /// outranks EDF: a request queued past the aging bound is admitted
    /// before fresher entries regardless of their deadlines, so an
    /// adversarial stream of early deadlines cannot starve anyone.
    pub deadline: Option<u64>,
}

impl SubmitOptions {
    /// Interactive priority, no token cap (the default).
    pub fn interactive() -> SubmitOptions {
        SubmitOptions::default()
    }

    /// Bulk priority, no token cap.
    pub fn bulk() -> SubmitOptions {
        SubmitOptions {
            priority: Priority::Bulk,
            ..SubmitOptions::default()
        }
    }

    /// Cap generated tokens at `n`.
    pub fn with_max_new_tokens(mut self, n: usize) -> SubmitOptions {
        self.max_new_tokens = Some(n);
        self
    }

    /// Set the EDF deadline stamp (see [`SubmitOptions::deadline`]).
    pub fn with_deadline(mut self, deadline: u64) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }
}

/// Per-request scheduling telemetry, reported with the finished output so
/// a serving daemon can export queue-health metrics per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RequestTelemetry {
    /// Scheduler steps that ran while this request sat in the queue
    /// (initial wait plus any paused-after-preemption waits).
    pub queue_wait_steps: u64,
    /// Lockstep steps this request participated in (prefill included, and
    /// replay steps after a page eviction count again).
    pub decode_steps: u64,
    /// Times this request's lanes were preempted by interactive work.
    pub preemptions: u64,
    /// Times this request's KV pages were evicted under pool memory
    /// pressure (the request re-entered the queue and replayed its tokens).
    pub evictions: u64,
}

/// Typed lifecycle state returned by [`BatchDecoder::poll`].
///
/// `Done` and `Cancelled` redeem **once**: the first poll takes the state,
/// later polls of the same ticket report `Unknown` — which is also what a
/// ticket this scheduler never issued reports, so a daemon can distinguish
/// "still pending" from "your client made this id up" (the v1 API's
/// `Option<Vec<usize>>` conflated them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollResult {
    /// Waiting for lanes; `position` is the number of queued requests that
    /// would currently be admitted before this one (0 = next). A preempted
    /// request re-enters this state but keeps its partial K/V pages.
    Queued { position: usize },
    /// Holding lanes and decoding; `tokens_so_far` streams the partial
    /// generated ids. Append-only for greedy requests; a beam request
    /// reports its *current best* hypothesis, which can switch between
    /// polls — treat each poll as a snapshot, not a growing suffix.
    Decoding { tokens_so_far: Vec<usize> },
    /// Finished: generated ids (prompt stripped, no `<eos>`) plus
    /// scheduling telemetry. Redeems once. `hypotheses` carries *every*
    /// final hypothesis' generated ids best-first — for greedy requests a
    /// single entry, for beam requests the full final beam; `hypotheses[0]`
    /// is always identical to `ids`. The closed-loop verifier re-ranks
    /// these by observed semantics.
    Done {
        ids: Vec<usize>,
        hypotheses: Vec<Vec<usize>>,
        telemetry: RequestTelemetry,
    },
    /// Retired by [`BatchDecoder::cancel`]; every page it held is back in
    /// the pool. Redeems once. Markers for never-polled cancellations are
    /// bounded: past [`CANCELLED_MARKER_CAP`] outstanding markers the
    /// oldest report `Unknown` instead.
    Cancelled,
    /// Not a live ticket: never issued by this scheduler, or already
    /// redeemed.
    Unknown,
}

impl PollResult {
    /// The finished output, if this is `Done` — the v1 `Option` shape for
    /// callers that only care about completion.
    pub fn into_output(self) -> Option<Vec<usize>> {
        match self {
            PollResult::Done { ids, .. } => Some(ids),
            _ => None,
        }
    }

    /// True while the request is still queued or decoding.
    pub fn is_pending(&self) -> bool {
        matches!(
            self,
            PollResult::Queued { .. } | PollResult::Decoding { .. }
        )
    }
}

/// Default lane count for convenience constructors in the service layer.
pub const DEFAULT_MAX_BATCH: usize = 8;

/// Default aging bound: a queued request that has waited this many
/// scheduler steps is promoted to the interactive class (and admitted
/// preemption-immune), bounding bulk starvation. Tune per scheduler via
/// [`BatchDecoder::set_aging_steps`].
pub const DEFAULT_AGING_STEPS: u64 = 64;

/// Most `Cancelled` markers retained for unpolled cancellations; past this
/// the oldest degrade to [`PollResult::Unknown`], keeping fire-and-forget
/// [`cancel`](BatchDecoder::cancel) memory-bounded in a long-lived daemon.
pub const CANCELLED_MARKER_CAP: usize = 1024;

/// One queued generation request.
///
/// Each request carries its *own* encoder output — requests in a batch are
/// fully independent (different sources, different lengths) — plus a forced
/// decoder prefix, per-request decoding knobs, and scheduling options.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Encoder output `[T_enc, d_model]` for this request's source.
    pub enc_out: Tensor,
    /// Forced decoder prefix, fed token-by-token before generation starts
    /// (the prefill phase). Almost always `[<sos>]`; longer prompts let a
    /// caller resume a partially-decoded sequence. Must be non-empty.
    pub prompt: Vec<usize>,
    /// Length cap counting the prompt, clamped to `cfg.max_dec_len`
    /// (mirrors the `max_len` of [`decode_reference`](crate::decode::decode_reference)).
    pub max_len: usize,
    /// Per-request decoding knobs: any `1 ≤ beam ≤ max_batch` (the request
    /// reserves `beam` lanes); `min_len` suppresses `<eos>` until that many
    /// tokens are generated.
    pub opts: DecodeOptions,
    /// Scheduling knobs: priority class and optional generated-token cap.
    pub submit: SubmitOptions,
}

impl BatchRequest {
    /// A plain greedy request: `<sos>` prompt, default options,
    /// interactive priority.
    pub fn greedy(enc_out: Tensor, max_len: usize) -> BatchRequest {
        BatchRequest {
            enc_out,
            prompt: vec![SOS],
            max_len,
            opts: DecodeOptions::default(),
            submit: SubmitOptions::default(),
        }
    }

    /// A beam-search request: `<sos>` prompt, the given beam width.
    pub fn beam(enc_out: Tensor, max_len: usize, beam: usize) -> BatchRequest {
        BatchRequest {
            enc_out,
            prompt: vec![SOS],
            max_len,
            opts: DecodeOptions {
                beam,
                min_len: 0,
                ..Default::default()
            },
            submit: SubmitOptions::default(),
        }
    }

    /// Builder: replace the scheduling options wholesale.
    pub fn with_submit(mut self, submit: SubmitOptions) -> BatchRequest {
        self.submit = submit;
        self
    }

    /// Builder: set the priority class.
    pub fn with_priority(mut self, priority: Priority) -> BatchRequest {
        self.submit.priority = priority;
        self
    }

    /// Builder: mark as background work ([`Priority::Bulk`]).
    pub fn bulk(self) -> BatchRequest {
        self.with_priority(Priority::Bulk)
    }

    /// Builder: cap generated tokens at `n`.
    pub fn with_max_new_tokens(mut self, n: usize) -> BatchRequest {
        self.submit.max_new_tokens = Some(n);
        self
    }

    /// Builder: set the EDF deadline stamp (see [`SubmitOptions::deadline`]).
    pub fn with_deadline(mut self, deadline: u64) -> BatchRequest {
        self.submit.deadline = Some(deadline);
        self
    }
}

/// One admitted request: its hypotheses (one for greedy, up to `beam` once
/// a beam request starts expanding) plus the bookkeeping to replay the
/// single-request semantics exactly.
struct Group {
    id: RequestId,
    /// Lanes reserved for this request (= its beam width) for its lifetime.
    reserved: usize,
    /// Scheduling class this request was submitted with.
    priority: Priority,
    /// Immune to preemption: interactive requests always, and bulk
    /// requests admitted through the aging rule (their starvation bound
    /// would be meaningless if they could be evicted again).
    protected: bool,
    /// Admission order stamp; preemption evicts the youngest-admitted
    /// unprotected bulk group first.
    admit_seq: u64,
    /// Live and finished hypotheses, in [`expand_beams`] order. Greedy
    /// groups keep exactly one.
    beams: Vec<Hypothesis>,
    /// Beam expansions performed so far (the single-request loop runs
    /// `limit - prompt_len` of them at most).
    expansions: usize,
    prompt_len: usize,
    min_len: usize,
    /// Generation stops once ids reach this length (prompt included).
    limit: usize,
    finished: bool,
    /// EDF deadline stamp carried from [`SubmitOptions::deadline`] (kept on
    /// the group so pauses/evictions re-enter the queue with it intact).
    deadline: Option<u64>,
    /// Steps in a row this group has sat out under the Interactive hold;
    /// at the aging bound it is promoted (protected). Reset whenever the
    /// group steps.
    held_steps: u64,
    /// Telemetry accumulators (see [`RequestTelemetry`]).
    queue_wait_steps: u64,
    decode_steps: u64,
    preemptions: u64,
    evictions: u64,
}

impl Group {
    fn is_beam(&self) -> bool {
        self.reserved > 1
    }

    /// Sit out `steps` steps under the Interactive hold; held to the aging
    /// bound, the group is promoted and escapes the hold.
    fn hold(&mut self, steps: u64, aging_steps: u64) {
        self.held_steps += steps;
        self.protected = self.held_steps >= aging_steps;
    }

    /// Generated ids so far (prompt stripped): the single hypothesis for
    /// greedy, the current best-scoring hypothesis for beam.
    fn partial_ids(&self) -> Vec<usize> {
        let best = if self.is_beam() {
            self.beams.iter().max_by(|a, b| {
                a.score()
                    .partial_cmp(&b.score())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        } else {
            self.beams.first()
        };
        best.map(|h| h.ids[self.prompt_len..].to_vec())
            .unwrap_or_default()
    }

    fn telemetry(&self) -> RequestTelemetry {
        RequestTelemetry {
            queue_wait_steps: self.queue_wait_steps,
            decode_steps: self.decode_steps,
            preemptions: self.preemptions,
            evictions: self.evictions,
        }
    }
}

/// A queue entry: a fresh request awaiting prefill, or a paused group
/// preempted mid-flight (its caches — and their pool pages — stay alive,
/// so resuming is a lane reassignment, not a re-prefill).
enum QueueItem {
    Fresh(BatchRequest),
    Paused(Box<Group>),
}

struct QueueEntry {
    id: RequestId,
    priority: Priority,
    /// EDF deadline stamp (see [`SubmitOptions::deadline`]).
    deadline: Option<u64>,
    /// `step_count` when this entry (re-)entered the queue.
    enqueued_step: u64,
    item: QueueItem,
}

impl QueueEntry {
    fn lanes_needed(&self) -> usize {
        match &self.item {
            QueueItem::Fresh(req) => req.opts.beam,
            QueueItem::Paused(g) => g.reserved,
        }
    }

    /// Queue-wait steps accrued in *earlier* queue stints (paused groups
    /// carry their history; fresh requests have none).
    fn accrued_wait(&self) -> u64 {
        match &self.item {
            QueueItem::Fresh(_) => 0,
            QueueItem::Paused(g) => g.queue_wait_steps,
        }
    }
}

/// A retired request's output, parked until its ticket is polled: the
/// winning ids, every beam hypothesis (best first), and the scheduling
/// telemetry.
type RetiredOutput = (Vec<usize>, Vec<Vec<usize>>, RequestTelemetry);

/// Lockstep multi-request decoder with continuous batching, batched beam
/// search, priority-aware admission, preemption, and cancellation (see
/// module docs for the scheduling model).
///
/// Borrowing rather than owning the model lets one trained model serve any
/// number of decoders — the service layer holds the artifact, schedulers
/// come and go per worker.
pub struct BatchDecoder<'m> {
    store: &'m ParamStore,
    params: &'m TransformerParams,
    cfg: &'m ModelConfig,
    /// Decoder weights prepared once for the scheduler's precision:
    /// tile-packed f32, or per-channel int8 for [`Precision::Int8`]
    /// serving (see [`DecoderWeights`]). Owned when prepared at
    /// construction, borrowed when the caller already holds a prepared
    /// set (an artifact's load-time quantized weights).
    weights: Cow<'m, DecoderWeights>,
    max_batch: usize,
    /// One page pool for every lane: retired requests recycle pages into
    /// newly admitted ones, and beam forks share pages COW.
    /// Private by default; [`with_shared`](Self::with_shared) lets a fleet
    /// of schedulers draw from one pool.
    pool: PagePool,
    groups: Vec<Group>,
    queue: Vec<QueueEntry>,
    done: HashMap<RequestId, RetiredOutput>,
    cancelled: BTreeSet<RequestId>,
    /// Cross-K/V of recent encoder outputs (see [`crate::prefix`]);
    /// private by default, fleet-shared via [`with_shared`](Self::with_shared).
    prefix: PrefixTable,
    scratch: BatchScratch,
    logits: Vec<f32>,
    next_id: u64,
    /// Completed [`step`](Self::step) calls — the clock for aging and
    /// queue-wait telemetry.
    step_count: u64,
    aging_steps: u64,
    /// Monotone admission stamp (see [`Group::admit_seq`]).
    admit_count: u64,
    /// Total lane preemptions performed by this scheduler.
    preemption_count: u64,
    /// Soft cap on live pool pages; `None` = unbounded. See
    /// [`set_page_limit`](Self::set_page_limit).
    page_limit: Option<usize>,
    /// Total page evictions performed under pool memory pressure.
    eviction_count: u64,
    /// Interactive work is in flight elsewhere in the fleet (set by the
    /// [`Engine`](crate::engine::Engine) worker that owns this scheduler):
    /// unprotected bulk work is held exactly as if it were in flight here.
    fleet_hold: bool,
}

impl<'m> BatchDecoder<'m> {
    /// Create an f32 scheduler over a trained model with at most
    /// `max_batch` concurrent lanes.
    ///
    /// # Panics
    ///
    /// If `max_batch` is 0 (a zero-lane scheduler can never decode) or
    /// `cfg.vocab_size` is unset.
    pub fn new(
        store: &'m ParamStore,
        params: &'m TransformerParams,
        cfg: &'m ModelConfig,
        max_batch: usize,
    ) -> BatchDecoder<'m> {
        BatchDecoder::with_precision(store, params, cfg, max_batch, Precision::F32)
    }

    /// [`new`](Self::new) with an explicit projection precision: the
    /// decoder weights are packed (f32) or quantized (int8) **once here**
    /// — artifact-load/service-startup time — and streamed by every step
    /// of every batch thereafter. Every submitted request must carry the
    /// same [`DecodeOptions::precision`]; [`submit`](Self::submit) rejects
    /// mismatches (one fused kernel pass covers all lanes, so a step
    /// cannot mix precisions).
    ///
    /// # Panics
    ///
    /// If `max_batch` is 0 or `cfg.vocab_size` is unset.
    pub fn with_precision(
        store: &'m ParamStore,
        params: &'m TransformerParams,
        cfg: &'m ModelConfig,
        max_batch: usize,
        precision: Precision,
    ) -> BatchDecoder<'m> {
        BatchDecoder::with_weights(
            store,
            params,
            cfg,
            max_batch,
            Cow::Owned(DecoderWeights::for_precision(store, params, precision)),
        )
    }

    /// [`with_precision`](Self::with_precision) over a weight set prepared
    /// elsewhere — `Cow::Borrowed` lets a long-lived owner (an artifact
    /// whose int8 weights were quantized once at load) hand the same
    /// prepared set to any number of schedulers without re-packing or
    /// re-quantizing per scheduler. `weights` must come from the same
    /// `(store, params)`.
    ///
    /// # Panics
    ///
    /// If `max_batch` is 0 or `cfg.vocab_size` is unset.
    pub fn with_weights(
        store: &'m ParamStore,
        params: &'m TransformerParams,
        cfg: &'m ModelConfig,
        max_batch: usize,
        weights: Cow<'m, DecoderWeights>,
    ) -> BatchDecoder<'m> {
        BatchDecoder::with_shared(
            store,
            params,
            cfg,
            max_batch,
            weights,
            PagePool::new(cfg.d_head()),
            PrefixTable::new(),
        )
    }

    /// [`with_weights`](Self::with_weights) drawing pages from a caller's
    /// [`PagePool`] and shared cross-K/V from a caller's [`PrefixTable`] —
    /// the fleet constructor: the sharded [`Engine`](crate::engine::Engine)
    /// hands every worker the same pool and table. Sharing is
    /// bitwise-transparent, so fleet outputs equal the private-pool outputs
    /// exactly.
    ///
    /// # Panics
    ///
    /// If `max_batch` is 0, `cfg.vocab_size` is unset, or the pool's row
    /// width differs from `cfg.d_head()`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_shared(
        store: &'m ParamStore,
        params: &'m TransformerParams,
        cfg: &'m ModelConfig,
        max_batch: usize,
        weights: Cow<'m, DecoderWeights>,
        pool: PagePool,
        prefix: PrefixTable,
    ) -> BatchDecoder<'m> {
        assert!(
            max_batch >= 1,
            "BatchDecoder needs at least one lane (got max_batch = 0)"
        );
        assert!(cfg.vocab_size > 0, "model config has no vocabulary");
        assert_eq!(
            pool.row_width(),
            cfg.d_head(),
            "pool row width must match the model's head width"
        );
        BatchDecoder {
            store,
            params,
            cfg,
            weights,
            max_batch,
            pool,
            groups: Vec::new(),
            queue: Vec::new(),
            done: HashMap::new(),
            cancelled: BTreeSet::new(),
            prefix,
            scratch: BatchScratch::new(cfg, max_batch),
            logits: vec![0.0; max_batch * cfg.vocab_size],
            next_id: 0,
            step_count: 0,
            aging_steps: DEFAULT_AGING_STEPS,
            admit_count: 0,
            preemption_count: 0,
            page_limit: None,
            eviction_count: 0,
            fleet_hold: false,
        }
    }

    /// Queue a request; it joins the batch at the next [`step`](Self::step)
    /// with enough free lanes (a request reserves `beam` of them),
    /// priority-first — an [`Interactive`](Priority::Interactive) request
    /// may preempt running bulk lanes to start within one step. Returns
    /// the ticket for [`poll`](Self::poll).
    ///
    /// # Panics
    ///
    /// If `opts.beam` is 0 or exceeds `max_batch`, the prompt is empty, or
    /// the request's precision differs from the scheduler's prepared
    /// weights.
    pub fn submit(&mut self, req: BatchRequest) -> RequestId {
        assert!(
            req.opts.beam >= 1,
            "beam width must be at least 1 (got 0); use beam = 1 for greedy"
        );
        assert_eq!(
            req.opts.precision,
            self.weights.precision(),
            "request precision differs from the scheduler's prepared weights; \
             build the BatchDecoder with BatchDecoder::with_precision"
        );
        assert!(
            req.opts.beam <= self.max_batch,
            "beam width {} exceeds the scheduler's {} lanes",
            req.opts.beam,
            self.max_batch
        );
        assert!(!req.prompt.is_empty(), "prompt must hold at least <sos>");
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.queue.push(QueueEntry {
            id,
            priority: req.submit.priority,
            deadline: req.submit.deadline,
            enqueued_step: self.step_count,
            item: QueueItem::Fresh(req),
        });
        id
    }

    /// Cancel a request: removes it from the queue or from its lanes
    /// mid-flight, dropping its caches so every page it held returns to
    /// the pool. Returns `true` if the request was still pending (it will
    /// now poll as [`PollResult::Cancelled`], once); `false` if it had
    /// already finished (its output stays redeemable), was already
    /// cancelled, or was never submitted.
    ///
    /// Fire-and-forget is safe: the `Cancelled` marker a later poll would
    /// redeem is retained for at most [`CANCELLED_MARKER_CAP`] requests —
    /// beyond that the **oldest** markers degrade to
    /// [`PollResult::Unknown`] — so a long-lived daemon that cancels
    /// without polling never grows unbounded state.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        if let Some(pos) = self.queue.iter().position(|e| e.id == id) {
            self.queue.remove(pos);
            self.mark_cancelled(id);
            return true;
        }
        if let Some(pos) = self.groups.iter().position(|g| g.id == id) {
            self.groups.remove(pos);
            self.mark_cancelled(id);
            return true;
        }
        false
    }

    /// Record a `Cancelled` marker, evicting the oldest (smallest ticket)
    /// past [`CANCELLED_MARKER_CAP`] so fire-and-forget cancellation is
    /// memory-bounded.
    fn mark_cancelled(&mut self, id: RequestId) {
        self.cancelled.insert(id);
        while self.cancelled.len() > CANCELLED_MARKER_CAP {
            self.cancelled.pop_first();
        }
    }

    /// Requests currently decoding in lanes.
    pub fn active(&self) -> usize {
        self.groups.len()
    }

    /// Requests waiting for lanes (fresh submissions and preempted-paused
    /// groups alike).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Requests submitted but not yet retired (active + queued).
    pub fn pending(&self) -> usize {
        self.groups.len() + self.queue.len()
    }

    /// The lane capacity this scheduler was built with.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Completed [`step`](Self::step) calls, plus the steps an engine
    /// worker sat out under the fleet-wide Interactive hold — the scheduler
    /// clock that aging and queue-wait telemetry count in.
    pub fn steps_run(&self) -> u64 {
        self.step_count
    }

    /// The aging bound: a queued request whose total wait reaches this
    /// many steps is promoted to the interactive class and admitted
    /// preemption-immune (see module docs).
    pub fn aging_steps(&self) -> u64 {
        self.aging_steps
    }

    /// Set the aging bound. `0` promotes every request immediately —
    /// pure submission-order FIFO across classes, no preemption targets.
    pub fn set_aging_steps(&mut self, steps: u64) {
        self.aging_steps = steps;
    }

    /// Total lane preemptions performed (bulk groups that yielded lanes to
    /// interactive arrivals).
    pub fn preemptions(&self) -> u64 {
        self.preemption_count
    }

    /// Soft cap on live pool pages (see [`set_page_limit`](Self::set_page_limit)).
    pub fn page_limit(&self) -> Option<usize> {
        self.page_limit
    }

    /// Set a soft cap on live pool pages, enabling priority-aware KV-page
    /// eviction under memory pressure. While live pages exceed the cap *and*
    /// a protected (interactive or aged-promoted) group is decoding, the
    /// scheduler frees memory at each step in priority order: retained
    /// prefix-table entries first (pure optimization state), then the
    /// **youngest-admitted unprotected bulk greedy** groups — each evicted
    /// group drops its self-attention KV pages, keeps its generated ids and
    /// shared cross-K/V, and re-enters the queue paused; on re-admission it
    /// replays its tokens through the normal prefill path, which rebuilds
    /// the exact cache state bitwise, so the resumed output is identical to
    /// an uninterrupted run. While over the cap, fresh *bulk* admissions are
    /// also gated (interactive and aged entries still admit), so evicted
    /// work does not thrash back in while pressure persists.
    ///
    /// The cap is soft in exactly one case: interactive pages are **never**
    /// evicted, and a lone bulk group (no protected group present) may
    /// exceed the cap, because evicting it cannot reduce its own
    /// requirement — it would only replay into the same pressure forever.
    /// Bulk *beam* groups are preempted (pages kept) but not page-evicted;
    /// greedy replay is a pure token-feed, while beam replay would need the
    /// full expansion history.
    pub fn set_page_limit(&mut self, limit: Option<usize>) {
        self.page_limit = limit;
    }

    /// Total page evictions performed under pool memory pressure.
    pub fn evictions(&self) -> u64 {
        self.eviction_count
    }

    /// Lanes currently reserved by admitted requests (capacity telemetry
    /// for an admission front-end placing work across schedulers).
    pub fn lanes_in_use(&self) -> usize {
        self.lanes_used()
    }

    /// The projection precision this scheduler's weights were prepared
    /// for; every submitted request must match it.
    pub fn precision(&self) -> Precision {
        self.weights.precision()
    }

    /// The page pool behind every lane's cache. Cloning the handle keeps it
    /// valid after the scheduler drops (the property harness uses that to
    /// assert zero leaked pages).
    pub fn pool(&self) -> &PagePool {
        &self.pool
    }

    /// Current page-pool telemetry: live/peak/shared pages, COW copies.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Telemetry of the prefix table behind this scheduler: hits, misses,
    /// prefilled rows (see [`PrefixStats`]). Table-global — inside an
    /// [`Engine`](crate::engine::Engine) the counts cover the whole fleet.
    pub fn prefix_stats(&self) -> PrefixStats {
        self.prefix.stats()
    }

    /// Lanes currently reserved by admitted requests.
    fn lanes_used(&self) -> usize {
        self.groups.iter().map(|g| g.reserved).sum()
    }

    /// Total queue wait of an entry: accrued history plus the current
    /// stint.
    fn entry_wait(&self, e: &QueueEntry) -> u64 {
        e.accrued_wait() + (self.step_count - e.enqueued_step)
    }

    /// Admission sort key: `(class, aged, deadline, submission order)`.
    /// Class 0 is interactive-effective (submitted interactive, or aged
    /// past the bound). Within a class, entries aged past the bound admit
    /// before fresher ones — the starvation guarantee EDF cannot be allowed
    /// to break — then earliest deadline first (`None` after every explicit
    /// stamp), then FIFO by ticket number. Smaller admits first.
    fn entry_rank(&self, e: &QueueEntry) -> (u8, u8, u64, u64) {
        let aged = self.entry_wait(e) >= self.aging_steps;
        let interactive = e.priority == Priority::Interactive || aged;
        (
            u8::from(!interactive),
            u8::from(!aged),
            e.deadline.unwrap_or(u64::MAX),
            e.id.0,
        )
    }

    /// Best-ranked queue entry admissible right now: under pool pressure or
    /// the Interactive hold, bulk-class entries stay queued (interactive
    /// and aged-promoted entries always admit).
    fn best_admissible(&self) -> Option<usize> {
        let gated = self.pressure_gated() || self.bulk_held();
        (0..self.queue.len())
            .filter(|&i| !gated || self.entry_rank(&self.queue[i]).0 == 0)
            .min_by_key(|&i| self.entry_rank(&self.queue[i]))
    }

    /// 0-based admission position of a queued request (0 = next).
    fn queue_position(&self, id: RequestId) -> Option<usize> {
        let target = self.queue.iter().find(|e| e.id == id)?;
        let rank = self.entry_rank(target);
        Some(
            self.queue
                .iter()
                .filter(|e| self.entry_rank(e) < rank)
                .count(),
        )
    }

    /// Evict unprotected bulk groups (youngest-admitted first) until at
    /// least `short` more lanes are free. The evicted groups re-enter the
    /// queue paused — hypotheses, caches, and pool pages intact — and
    /// resume later from exactly where they stopped. Returns `false`
    /// (doing nothing) if the preemptable lanes cannot cover `short`.
    fn preempt_for(&mut self, mut short: usize) -> bool {
        let mut victims: Vec<(u64, RequestId, usize)> = self
            .groups
            .iter()
            .filter(|g| g.priority == Priority::Bulk && !g.protected)
            .map(|g| (g.admit_seq, g.id, g.reserved))
            .collect();
        if victims.iter().map(|&(_, _, lanes)| lanes).sum::<usize>() < short {
            return false;
        }
        victims.sort_by_key(|&(seq, _, _)| std::cmp::Reverse(seq));
        for (_, id, lanes) in victims {
            if short == 0 {
                break;
            }
            let pos = self
                .groups
                .iter()
                .position(|g| g.id == id)
                .expect("victim is an active group");
            let mut group = self.groups.remove(pos);
            group.preemptions += 1;
            self.preemption_count += 1;
            self.queue.push(QueueEntry {
                id: group.id,
                priority: Priority::Bulk,
                deadline: group.deadline,
                enqueued_step: self.step_count,
                item: QueueItem::Paused(Box::new(group)),
            });
            short = short.saturating_sub(lanes);
        }
        true
    }

    /// Whether bulk admissions are currently gated by pool pressure.
    fn pressure_gated(&self) -> bool {
        self.page_limit
            .is_some_and(|limit| self.pool.stats().pages_live >= limit)
    }

    /// The Interactive hold (see module docs): while an Interactive request
    /// is in flight — queued or decoding here, or anywhere in the fleet per
    /// [`set_fleet_hold`](Self::set_fleet_hold) — unprotected bulk groups
    /// sit out [`step`](Self::step) and bulk-class entries are not admitted.
    fn bulk_held(&self) -> bool {
        self.fleet_hold
            || self
                .groups
                .iter()
                .any(|g| g.priority == Priority::Interactive)
            || self
                .queue
                .iter()
                .any(|e| e.priority == Priority::Interactive)
    }

    /// Hold this scheduler's bulk work for Interactive work in flight on
    /// other schedulers of the same fleet (the engine's fleet-wide count).
    pub(crate) fn set_fleet_hold(&mut self, held: bool) {
        self.fleet_hold = held;
    }

    /// Whether [`step`](Self::step) would advance anything despite the
    /// hold: a protected group, or a queue entry the hold still admits.
    pub(crate) fn has_unheld_work(&self) -> bool {
        self.groups.iter().any(|g| g.protected) || self.best_admissible().is_some()
    }

    /// Scheduler steps until the first held group or queued bulk entry
    /// ages past the bound and escapes the hold (`None`: nothing is held).
    pub(crate) fn steps_until_unheld(&self) -> Option<u64> {
        let held_groups = self
            .groups
            .iter()
            .filter(|g| !g.protected)
            .map(|g| g.held_steps);
        let queued = self
            .queue
            .iter()
            .filter(|e| self.entry_rank(e).0 != 0)
            .map(|e| self.entry_wait(e));
        held_groups
            .chain(queued)
            .map(|wait| self.aging_steps.saturating_sub(wait).max(1))
            .min()
    }

    /// Advance the clock by `steps` the whole scheduler sat out under the
    /// fleet hold while other workers decoded: queued entries and held
    /// groups age by them exactly as if `steps` held steps had run here,
    /// so the aging bound keeps bounding starvation.
    pub(crate) fn sit_out(&mut self, steps: u64) {
        if steps == 0 || self.pending() == 0 {
            return;
        }
        self.step_count += steps;
        for g in self.groups.iter_mut().filter(|g| !g.protected) {
            g.hold(steps, self.aging_steps);
        }
    }

    /// Enforce the soft page cap (see [`set_page_limit`](Self::set_page_limit)):
    /// drop prefix-table entries coldest-first while over the cap (they pin
    /// no pages, so pressure that persists empties the table), then evict
    /// unprotected bulk greedy groups youngest-first while a protected
    /// group needs the headroom.
    fn evict_for_pressure(&mut self) {
        let Some(limit) = self.page_limit else { return };
        if self.pool.stats().pages_live <= limit {
            return;
        }
        while self.pool.stats().pages_live > limit && self.prefix.evict_coldest() {}
        while self.pool.stats().pages_live > limit {
            // Eviction only helps if a never-evictable (protected) group
            // benefits from the freed pages; a lone bulk group would just
            // replay into the same pressure (see set_page_limit docs).
            if !self.groups.iter().any(|g| g.protected) {
                break;
            }
            let victim = self
                .groups
                .iter()
                .filter(|g| g.priority == Priority::Bulk && !g.protected && !g.is_beam())
                .max_by_key(|g| g.admit_seq)
                .map(|g| g.id);
            let Some(id) = victim else { break };
            self.evict_group(id);
        }
    }

    /// Evict one active greedy group's KV pages: the group keeps its ids
    /// (prompt + generated so far) and shared cross-K/V, drops its
    /// self-attention pages back to the pool, and re-enters the queue
    /// paused. Re-admission replays the ids through the ordinary prefill
    /// path; cache contents are a pure function of the fed token sequence,
    /// so the rebuilt state — and the continued generation — is bitwise
    /// identical to an uninterrupted run.
    fn evict_group(&mut self, id: RequestId) {
        let pos = self
            .groups
            .iter()
            .position(|g| g.id == id)
            .expect("eviction victim is an active group");
        let mut group = self.groups.remove(pos);
        for h in &mut group.beams {
            if let Some(cache) = h.cache.as_mut() {
                cache.evict_self_kv();
            }
        }
        group.evictions += 1;
        self.eviction_count += 1;
        self.queue.push(QueueEntry {
            id: group.id,
            priority: Priority::Bulk,
            deadline: group.deadline,
            enqueued_step: self.step_count,
            item: QueueItem::Paused(Box::new(group)),
        });
    }

    /// Move queued requests into free lanes (continuous batching's "join"
    /// half), best-ranked first: interactive class before bulk, FIFO
    /// within a class, aged bulk promoted. An interactive-*class*
    /// candidate (submitted interactive, or promoted by aging) that does
    /// not fit may evict unprotected bulk lanes
    /// ([`preempt_for`](Self::preempt_for)); a plain bulk candidate blocks
    /// at the head of its class. Requests whose prompt already meets their
    /// length cap retire immediately with an empty generation, exactly
    /// like the single-request loop, which never steps in that case.
    fn admit(&mut self) {
        while let Some(best) = self.best_admissible() {
            let needed = self.queue[best].lanes_needed();
            let free = self.max_batch - self.lanes_used();
            if needed > free {
                // Eviction rights follow the *effective* class: a promoted
                // (aged) entry may evict too — otherwise an aged bulk entry
                // at the head of the queue would block every interactive
                // arrival behind it from ever preempting (head-of-line).
                // Starvation-freedom survives because each promoted or
                // interactive admission is protected, so the pool of
                // evictable lanes only shrinks.
                let evicts = self.entry_rank(&self.queue[best]).0 == 0;
                if evicts && self.preempt_for(needed - free) {
                    // Preemption may have re-ranked the queue (a paused
                    // entry can age into the interactive class and outrank
                    // the evictor), so loop back: the capacity check must
                    // cover whatever is admitted next.
                    continue;
                }
                break;
            }
            let entry = self.queue.remove(best);
            self.admit_entry(entry);
        }
    }

    /// Place one queue entry into lanes: resume a paused group as-is (lane
    /// reassignment — its caches never left the pool), or prefill a fresh
    /// request.
    fn admit_entry(&mut self, entry: QueueEntry) {
        let wait_now = self.step_count - entry.enqueued_step;
        let aged = self.entry_wait(&entry) >= self.aging_steps;
        self.admit_count += 1;
        let admit_seq = self.admit_count;
        match entry.item {
            QueueItem::Paused(mut group) => {
                group.queue_wait_steps += wait_now;
                group.protected = group.protected || aged;
                group.admit_seq = admit_seq;
                self.groups.push(*group);
            }
            QueueItem::Fresh(req) => {
                let mut limit = req.max_len.min(self.cfg.max_dec_len);
                if let Some(cap) = req.submit.max_new_tokens {
                    limit = limit.min(req.prompt.len() + cap);
                }
                if req.prompt.len() >= limit {
                    self.done.insert(
                        entry.id,
                        (
                            Vec::new(),
                            vec![Vec::new()],
                            RequestTelemetry {
                                queue_wait_steps: wait_now,
                                ..Default::default()
                            },
                        ),
                    );
                    return;
                }
                // The root feeds `ids[cache.len()..]`: the whole prompt.
                let cache = self
                    .prefix
                    .share(req.enc_out, req.prompt.len() - 1, |enc_out| {
                        DecoderCache::new_in_pool(
                            self.store,
                            self.params,
                            self.cfg,
                            enc_out,
                            &self.pool,
                        )
                    });
                self.groups.push(Group {
                    id: entry.id,
                    reserved: req.opts.beam,
                    priority: entry.priority,
                    protected: entry.priority == Priority::Interactive || aged,
                    admit_seq,
                    beams: vec![Hypothesis::root(&req.prompt, cache)],
                    expansions: 0,
                    prompt_len: req.prompt.len(),
                    min_len: req.opts.min_len,
                    limit,
                    finished: false,
                    deadline: entry.deadline,
                    held_steps: 0,
                    queue_wait_steps: wait_now,
                    decode_steps: 0,
                    preemptions: 0,
                    evictions: 0,
                });
            }
        }
    }

    /// Run one lockstep step: admit queued requests (priority order,
    /// preempting bulk lanes for interactive arrivals), advance every live
    /// hypothesis by one token — except unprotected bulk groups held for
    /// Interactive work in flight — and expand/retire finished requests.
    /// Returns the number of hypotheses advanced (0 means the scheduler is
    /// idle and [`run`](Self::run) would stop).
    pub fn step(&mut self) -> usize {
        self.evict_for_pressure();
        self.admit();
        // Gather every live hypothesis across the groups that step, in
        // group/beam order; under the Interactive hold unprotected bulk
        // groups sit this step out.
        let held = self.bulk_held();
        let sits_out = |g: &Group| held && !g.protected;
        let tokens: Vec<usize> = self
            .groups
            .iter()
            .filter(|g| !sits_out(g))
            .flat_map(|g| g.beams.iter())
            .filter_map(|h| h.cache.as_ref().map(|c| h.ids[c.len()]))
            .collect();
        let b = tokens.len();
        if b == 0 {
            return 0;
        }
        let vocab = self.cfg.vocab_size;
        let mut caches: Vec<&mut DecoderCache> = self
            .groups
            .iter_mut()
            .filter(|g| !sits_out(g))
            .flat_map(|g| g.beams.iter_mut())
            .filter_map(|h| h.cache.as_mut())
            .collect();
        decode_step_batch(
            self.store,
            self.params,
            self.cfg,
            &self.weights,
            &mut caches,
            &tokens,
            &mut self.scratch,
            &mut self.logits[..b * vocab],
        );
        drop(caches);

        // Consume logits in the same group/beam order the lanes were
        // gathered in.
        let mut row = 0usize;
        let mut groups = std::mem::take(&mut self.groups);
        for group in &mut groups {
            if sits_out(group) {
                group.hold(1, self.aging_steps);
                continue;
            }
            group.held_steps = 0;
            let live: Vec<bool> = group.beams.iter().map(|h| h.cache.is_some()).collect();
            if live.iter().any(|&l| l) {
                group.decode_steps += 1;
            }
            // Prefilling: the root hypothesis has prompt tokens left to
            // feed; its logits row is intentionally unused.
            let prefilling = group
                .beams
                .iter()
                .any(|h| h.cache.as_ref().is_some_and(|c| c.len() < h.ids.len()));
            if prefilling {
                row += live.iter().filter(|&&l| l).count();
                continue;
            }
            let mut rows: Vec<Option<&[f32]>> = Vec::with_capacity(live.len());
            for &l in &live {
                rows.push(l.then(|| {
                    let r = &self.logits[row * vocab..(row + 1) * vocab];
                    row += 1;
                    r
                }));
            }
            if group.is_beam() {
                let beams = std::mem::take(&mut group.beams);
                group.beams = expand_beams(
                    beams,
                    &rows,
                    group.reserved,
                    group.min_len,
                    group.prompt_len,
                );
                group.expansions += 1;
                if group.beams.iter().all(|h| h.done)
                    || group.expansions >= group.limit - group.prompt_len
                {
                    let beams = std::mem::take(&mut group.beams);
                    let ranked = ranked_hypothesis_ids(beams, group.prompt_len);
                    let ids = ranked[0].clone();
                    self.done.insert(group.id, (ids, ranked, group.telemetry()));
                    group.finished = true;
                }
            } else {
                // Greedy: exactly the single-request argmax loop.
                let h = &mut group.beams[0];
                let logits = rows[0].expect("greedy group has one live hypothesis");
                let generated = h.ids.len() - group.prompt_len;
                let tok = argmax_token(logits, generated < group.min_len);
                if tok == EOS {
                    group.finished = true;
                } else {
                    h.ids.push(tok);
                    if h.ids.len() >= group.limit {
                        group.finished = true;
                    }
                }
                if group.finished {
                    let ids = h.ids[group.prompt_len..].to_vec();
                    self.done
                        .insert(group.id, (ids.clone(), vec![ids], group.telemetry()));
                }
            }
        }
        groups.retain(|g| !g.finished);
        self.groups = groups;
        self.step_count += 1;
        b
    }

    /// Report a request's lifecycle state (see [`PollResult`]). `Done` and
    /// `Cancelled` redeem **once** — the poll that observes them takes the
    /// output/marker, and later polls of the same ticket report `Unknown`.
    /// `Queued`/`Decoding` polls are free to repeat (a streaming client
    /// polls `Decoding` every step for the growing partial output).
    pub fn poll(&mut self, id: RequestId) -> PollResult {
        if let Some((ids, hypotheses, telemetry)) = self.done.remove(&id) {
            return PollResult::Done {
                ids,
                hypotheses,
                telemetry,
            };
        }
        if self.cancelled.remove(&id) {
            return PollResult::Cancelled;
        }
        if let Some(group) = self.groups.iter().find(|g| g.id == id) {
            return PollResult::Decoding {
                tokens_so_far: group.partial_ids(),
            };
        }
        if let Some(position) = self.queue_position(id) {
            return PollResult::Queued { position };
        }
        PollResult::Unknown
    }

    /// Step until every submitted request has retired.
    pub fn run(&mut self) {
        while self.step() > 0 {}
    }

    /// Convenience: submit every request, run to completion, and return
    /// each request's winning ids in submission order — element 0 of
    /// [`decode_all_hypotheses`](Self::decode_all_hypotheses).
    pub fn decode_all(&mut self, reqs: Vec<BatchRequest>) -> Vec<Vec<usize>> {
        let ranked = self.decode_all_hypotheses(reqs).into_iter();
        ranked.map(|mut hyps| hyps.swap_remove(0)).collect()
    }

    /// Submit every request, run to completion, and return every request's
    /// full ranked hypothesis list in submission order (score-descending,
    /// never empty; a greedy request has exactly one) — consumers that
    /// re-rank the beam by external evidence use this instead of polling
    /// by hand.
    pub fn decode_all_hypotheses(&mut self, reqs: Vec<BatchRequest>) -> Vec<Vec<Vec<usize>>> {
        let ids: Vec<RequestId> = reqs.into_iter().map(|r| self.submit(r)).collect();
        self.run();
        ids.into_iter()
            .map(|id| match self.poll(id) {
                PollResult::Done { hypotheses, .. } => hypotheses,
                other => panic!("run() retires every request (got {other:?})"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_reference, encode_source};
    use crate::prefix::PREFIX_CACHE_CAP;
    use crate::transformer::build_params;
    use crate::vocab::SOS;

    /// A random (untrained) multi-layer model — equivalence properties hold
    /// for any weights, and skipping training keeps these tests fast.
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

    /// Winner of the single-request reference on the paged layout the
    /// scheduler itself runs.
    fn reference_ids(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        enc_out: &Tensor,
        prompt: &[usize],
        max_len: usize,
        opts: DecodeOptions,
    ) -> Vec<usize> {
        let cache = DecoderCache::new(store, params, cfg, enc_out);
        decode_reference(store, params, cfg, None, cache, prompt, max_len, opts).swap_remove(0)
    }

    /// Redeem a ticket that must be finished.
    fn take(dec: &mut BatchDecoder, id: RequestId) -> Vec<usize> {
        match dec.poll(id) {
            PollResult::Done { ids, .. } => ids,
            other => panic!("{id} not finished: {other:?}"),
        }
    }

    #[test]
    fn batch_of_one_equals_single_request_path() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 1);
        let single = reference_ids(
            &store,
            &params,
            &cfg,
            &e,
            &[SOS],
            20,
            DecodeOptions::default(),
        );
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 1);
        let out = dec.decode_all(vec![BatchRequest::greedy(e, 20)]);
        assert_eq!(out[0], single);
    }

    #[test]
    fn batch_of_eight_equals_eight_single_requests() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..8).map(|i| enc(&store, &params, &cfg, i)).collect();
        let singles: Vec<Vec<usize>> = encs
            .iter()
            .map(|e| {
                reference_ids(
                    &store,
                    &params,
                    &cfg,
                    e,
                    &[SOS],
                    24,
                    DecodeOptions::default(),
                )
            })
            .collect();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 8);
        let reqs = encs
            .into_iter()
            .map(|e| BatchRequest::greedy(e, 24))
            .collect();
        let batched = dec.decode_all(reqs);
        assert_eq!(batched, singles);
    }

    #[test]
    fn mixed_prompt_lengths_match_per_request_references() {
        let (cfg, store, params) = setup();
        let prompts: [&[usize]; 3] = [&[SOS], &[SOS, 7, 9], &[SOS, 6, 8, 10, 12]];
        let encs: Vec<Tensor> = (0..3).map(|i| enc(&store, &params, &cfg, i)).collect();
        let refs: Vec<Vec<usize>> = prompts
            .iter()
            .zip(&encs)
            .map(|(p, e)| reference_ids(&store, &params, &cfg, e, p, 18, DecodeOptions::default()))
            .collect();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 3);
        let reqs = prompts
            .iter()
            .zip(encs)
            .map(|(p, e)| BatchRequest {
                enc_out: e,
                prompt: p.to_vec(),
                max_len: 18,
                opts: DecodeOptions::default(),
                submit: SubmitOptions::default(),
            })
            .collect();
        assert_eq!(dec.decode_all(reqs), refs);
    }

    #[test]
    fn per_request_length_caps_retire_independently() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..3).map(|i| enc(&store, &params, &cfg, i)).collect();
        // Lane 0 hits a tight cap, lane 1 is forced long via min_len, lane 2
        // runs to the model-wide max — all while sharing lockstep steps.
        let specs = [(4usize, 0usize), (20, 12), (cfg.max_dec_len, 0)];
        let refs: Vec<Vec<usize>> = specs
            .iter()
            .zip(&encs)
            .map(|(&(max_len, min_len), e)| {
                let opts = DecodeOptions {
                    beam: 1,
                    min_len,
                    ..Default::default()
                };
                reference_ids(&store, &params, &cfg, e, &[SOS], max_len, opts)
            })
            .collect();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 3);
        let reqs = specs
            .iter()
            .zip(encs)
            .map(|(&(max_len, min_len), e)| BatchRequest {
                enc_out: e,
                prompt: vec![SOS],
                max_len,
                opts: DecodeOptions {
                    beam: 1,
                    min_len,
                    ..Default::default()
                },
                submit: SubmitOptions::default(),
            })
            .collect();
        assert_eq!(dec.decode_all(reqs), refs);
        // min_len forced lane 1 past where lane 0 was allowed to stop.
        assert!(refs[1].len() >= 12 && refs[0].len() <= 3);
    }

    #[test]
    fn late_join_continuous_batching_matches_references() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..3).map(|i| enc(&store, &params, &cfg, i)).collect();
        let refs: Vec<Vec<usize>> = encs
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
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
        let a = dec.submit(BatchRequest::greedy(encs[0].clone(), 16));
        let b = dec.submit(BatchRequest::greedy(encs[1].clone(), 16));
        for _ in 0..5 {
            dec.step();
        }
        assert_eq!(dec.active(), 2, "both early requests still decoding");
        // Join mid-flight: the new request is admitted on the next step and
        // decodes alongside the in-progress lanes.
        let c = dec.submit(BatchRequest::greedy(encs[2].clone(), 16));
        dec.step();
        assert_eq!(dec.active(), 3);
        dec.run();
        assert_eq!(take(&mut dec, a), refs[0]);
        assert_eq!(take(&mut dec, b), refs[1]);
        assert_eq!(take(&mut dec, c), refs[2]);
    }

    #[test]
    fn queue_overflow_drains_through_freed_lanes() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..5).map(|i| enc(&store, &params, &cfg, i)).collect();
        let refs: Vec<Vec<usize>> = encs
            .iter()
            .map(|e| {
                reference_ids(
                    &store,
                    &params,
                    &cfg,
                    e,
                    &[SOS],
                    10,
                    DecodeOptions::default(),
                )
            })
            .collect();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        let ids: Vec<RequestId> = encs
            .iter()
            .map(|e| dec.submit(BatchRequest::greedy(e.clone(), 10)))
            .collect();
        assert_eq!(dec.pending(), 5);
        while dec.step() > 0 {
            assert!(dec.active() <= 2, "lane cap respected throughout");
        }
        for (id, want) in ids.into_iter().zip(refs) {
            assert_eq!(take(&mut dec, id), want);
        }
    }

    #[test]
    fn prompt_at_cap_retires_without_stepping() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 0);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        let id = dec.submit(BatchRequest {
            enc_out: e,
            prompt: vec![SOS, 6, 7],
            max_len: 3,
            opts: DecodeOptions::default(),
            submit: SubmitOptions::default(),
        });
        assert_eq!(dec.step(), 0, "nothing to decode");
        assert_eq!(take(&mut dec, id), Vec::<usize>::new());
    }

    #[test]
    fn poll_redeems_once_and_reports_lifecycle_states() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 2);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 1);
        let id = dec.submit(BatchRequest::greedy(e, 8));
        assert_eq!(
            dec.poll(id),
            PollResult::Queued { position: 0 },
            "queued until the first step admits it"
        );
        dec.step();
        let PollResult::Decoding { tokens_so_far } = dec.poll(id) else {
            panic!("decoding after one step");
        };
        assert_eq!(tokens_so_far.len(), 1, "one token per lockstep step");
        dec.run();
        assert!(matches!(dec.poll(id), PollResult::Done { .. }));
        assert_eq!(dec.poll(id), PollResult::Unknown, "ticket already redeemed");
    }

    /// The v1-ambiguity satellite: an id this scheduler never issued is
    /// `Unknown`, a pending id is `Queued`/`Decoding` — a daemon can now
    /// tell a slow request from a client-side ticket bug.
    #[test]
    fn unknown_ticket_is_distinguishable_from_pending() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 1);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 1);
        let id = dec.submit(BatchRequest::greedy(e, 8));
        let bogus = RequestId::from_raw(id.raw() + 1000);
        assert_eq!(dec.poll(bogus), PollResult::Unknown);
        assert!(dec.poll(id).is_pending());
        assert!(!dec.cancel(bogus), "cancelling an unknown id is a no-op");
    }

    // -- priorities, preemption, cancellation ------------------------------

    /// The acceptance pin: with every lane held by bulk work, a newly
    /// submitted interactive request preempts a bulk group and begins
    /// decoding on the very next step (queue wait 0), and *every* final
    /// output — including the preempted-and-resumed bulk request's — stays
    /// bitwise identical to the single-request reference.
    #[test]
    fn interactive_preempts_bulk_saturated_lanes_within_one_step() {
        let (cfg, store, params) = setup();
        let lanes = 8usize;
        let encs: Vec<Tensor> = (0..=lanes).map(|i| enc(&store, &params, &cfg, i)).collect();
        let long = DecodeOptions {
            beam: 1,
            min_len: 20,
            ..Default::default()
        };
        let refs: Vec<Vec<usize>> = encs
            .iter()
            .take(lanes)
            .map(|e| reference_ids(&store, &params, &cfg, e, &[SOS], 24, long))
            .collect();
        let interactive_ref = reference_ids(
            &store,
            &params,
            &cfg,
            &encs[lanes],
            &[SOS],
            24,
            DecodeOptions::default(),
        );

        let mut dec = BatchDecoder::new(&store, &params, &cfg, lanes);
        let bulk_ids: Vec<RequestId> = encs
            .iter()
            .take(lanes)
            .map(|e| {
                dec.submit(BatchRequest {
                    enc_out: e.clone(),
                    prompt: vec![SOS],
                    max_len: 24,
                    opts: long,
                    submit: SubmitOptions::bulk(),
                })
            })
            .collect();
        for _ in 0..3 {
            dec.step();
        }
        assert_eq!(dec.active(), lanes, "bulk work saturates every lane");

        let fast = dec.submit(BatchRequest::greedy(encs[lanes].clone(), 24));
        dec.step();
        let PollResult::Decoding { tokens_so_far } = dec.poll(fast) else {
            panic!("interactive request must decode on the next step");
        };
        assert_eq!(tokens_so_far.len(), 1, "generated a token immediately");
        assert_eq!(dec.preemptions(), 1, "exactly one bulk group yielded");
        let paused = bulk_ids
            .iter()
            .filter(|&&id| matches!(dec.poll(id), PollResult::Queued { .. }))
            .count();
        assert_eq!(paused, 1, "the evicted bulk group is queued, not lost");

        dec.run();
        let PollResult::Done { ids, telemetry, .. } = dec.poll(fast) else {
            panic!("interactive finished");
        };
        assert_eq!(ids, interactive_ref);
        assert_eq!(telemetry.queue_wait_steps, 0, "zero steps in the queue");
        let mut resumed_preemptions = 0;
        for (id, want) in bulk_ids.into_iter().zip(refs) {
            let PollResult::Done { ids, telemetry, .. } = dec.poll(id) else {
                panic!("bulk finished");
            };
            assert_eq!(ids, want, "preempt/resume never changes tokens");
            resumed_preemptions += telemetry.preemptions;
        }
        assert_eq!(resumed_preemptions, 1);
    }

    /// Priority admission: queued interactive work is admitted before
    /// queued bulk work regardless of submission order, FIFO within each
    /// class, and `Queued { position }` reports that order.
    #[test]
    fn admission_is_priority_first_fifo_within_class() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 0);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 1);
        let hold = dec.submit(BatchRequest::greedy(e.clone(), 12));
        dec.step(); // occupy the single lane
        let b1 = dec.submit(BatchRequest::greedy(e.clone(), 12).bulk());
        let b2 = dec.submit(BatchRequest::greedy(e.clone(), 12).bulk());
        let i1 = dec.submit(BatchRequest::greedy(e.clone(), 12));
        let i2 = dec.submit(BatchRequest::greedy(e, 12));
        assert_eq!(dec.poll(i1), PollResult::Queued { position: 0 });
        assert_eq!(dec.poll(i2), PollResult::Queued { position: 1 });
        assert_eq!(dec.poll(b1), PollResult::Queued { position: 2 });
        assert_eq!(dec.poll(b2), PollResult::Queued { position: 3 });
        // Interactive never preempts interactive: the running request keeps
        // its lane and the queue drains in class/FIFO order.
        dec.run();
        assert_eq!(dec.preemptions(), 0);
        for id in [hold, i1, i2, b1, b2] {
            assert!(matches!(dec.poll(id), PollResult::Done { .. }));
        }
    }

    /// The aging bound: under a continuous interactive flood, a queued
    /// bulk request is promoted after `aging_steps` and admitted
    /// preemption-immune — it finishes while the flood continues, with a
    /// queue wait close to the bound (no starvation).
    #[test]
    fn aged_bulk_is_admitted_and_protected_under_interactive_flood() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 3);
        let bulk_ref = reference_ids(
            &store,
            &params,
            &cfg,
            &e,
            &[SOS],
            12,
            DecodeOptions {
                beam: 1,
                min_len: 6,
                ..Default::default()
            },
        );
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 1);
        dec.set_aging_steps(4);
        let bulk = dec.submit(BatchRequest {
            enc_out: e.clone(),
            prompt: vec![SOS],
            max_len: 12,
            opts: DecodeOptions {
                beam: 1,
                min_len: 6,
                ..Default::default()
            },
            submit: SubmitOptions::bulk(),
        });
        // Flood: one fresh interactive request per step, long enough that
        // without aging the bulk request would wait forever.
        let mut done_tel = None;
        for step in 0..64 {
            dec.submit(BatchRequest::greedy(e.clone(), 4).with_max_new_tokens(2));
            dec.step();
            if let PollResult::Done { ids, telemetry, .. } = dec.poll(bulk) {
                assert_eq!(ids, bulk_ref, "aged bulk output unchanged");
                done_tel = Some(telemetry);
                break;
            }
            assert!(step < 40, "bulk request starved under interactive flood");
        }
        let telemetry = done_tel.expect("bulk finished mid-flood");
        assert!(
            telemetry.queue_wait_steps >= 4,
            "bulk waited at least the aging bound: {telemetry:?}"
        );
        assert!(
            telemetry.queue_wait_steps <= 8,
            "aged bulk admitted promptly after promotion: {telemetry:?}"
        );
        assert_eq!(
            telemetry.preemptions, 0,
            "aging-admitted bulk is immune to preemption"
        );
    }

    /// Cancellation from every pending state: queued requests vanish
    /// before taking lanes, mid-flight requests release their lanes and
    /// pages, and both poll `Cancelled` exactly once. Finished requests
    /// refuse cancellation and stay redeemable.
    #[test]
    fn cancel_retires_queued_and_mid_flight_requests_and_frees_pages() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..4).map(|i| enc(&store, &params, &cfg, i)).collect();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        let pool = dec.pool().clone();
        let long = DecodeOptions {
            beam: 1,
            min_len: 16,
            ..Default::default()
        };
        let mk = |e: &Tensor| BatchRequest {
            enc_out: e.clone(),
            prompt: vec![SOS],
            max_len: 20,
            opts: long,
            submit: SubmitOptions::default(),
        };
        let running = dec.submit(mk(&encs[0]));
        let doomed_mid = dec.submit(mk(&encs[1]));
        let doomed_queued = dec.submit(mk(&encs[2]));
        let survivor = dec.submit(mk(&encs[3]));
        for _ in 0..4 {
            dec.step();
        }
        let live_before = pool.stats().pages_live;
        assert!(dec.cancel(doomed_mid), "mid-flight cancel succeeds");
        assert!(
            pool.stats().pages_live < live_before,
            "cancelled lanes return pages immediately"
        );
        assert!(dec.cancel(doomed_queued), "queued cancel succeeds");
        assert_eq!(dec.poll(doomed_mid), PollResult::Cancelled);
        assert_eq!(dec.poll(doomed_mid), PollResult::Unknown, "redeems once");
        dec.run();
        assert_eq!(dec.poll(doomed_queued), PollResult::Cancelled);
        for id in [running, survivor] {
            let got = take(&mut dec, id);
            assert_eq!(
                got,
                reference_ids(
                    &store,
                    &params,
                    &cfg,
                    &encs[if id == running { 0 } else { 3 }],
                    &[SOS],
                    20,
                    long
                ),
                "cancellation of others never changes survivors"
            );
        }
        assert!(
            !dec.cancel(running),
            "finished requests cannot be cancelled"
        );
        drop(dec);
        assert_eq!(pool.stats().pages_live, 0, "cancel leaks no pages");
    }

    /// `max_new_tokens` caps generation below `max_len`, and the capped
    /// output is the reference output truncated at the cap boundary
    /// (greedy is prefix-stable).
    #[test]
    fn max_new_tokens_caps_generation() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 1);
        let opts = DecodeOptions {
            beam: 1,
            min_len: 10,
            ..Default::default()
        };
        let full = reference_ids(&store, &params, &cfg, &e, &[SOS], 20, opts);
        assert!(full.len() >= 10);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        let capped = dec.submit(BatchRequest {
            enc_out: e.clone(),
            prompt: vec![SOS],
            max_len: 20,
            opts,
            submit: SubmitOptions::interactive().with_max_new_tokens(4),
        });
        let zero = dec.submit(BatchRequest {
            enc_out: e,
            prompt: vec![SOS],
            max_len: 20,
            opts,
            submit: SubmitOptions::interactive().with_max_new_tokens(0),
        });
        dec.run();
        // Cap counts generated tokens: prompt(1) + 4 = 5 ids total, so 4
        // generated — exactly the first 4 of the uncapped trajectory.
        assert_eq!(take(&mut dec, capped), full[..4].to_vec());
        assert_eq!(take(&mut dec, zero), Vec::<usize>::new());
    }

    // -- batched beam search -----------------------------------------------

    /// The lifted restriction: beam requests decode in the lockstep batch
    /// and return exactly the single-request beam output.
    #[test]
    fn batched_beam_matches_single_request_beam() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..3).map(|i| enc(&store, &params, &cfg, i)).collect();
        for beam in [2usize, 3, 4] {
            let opts = DecodeOptions {
                beam,
                min_len: 0,
                ..Default::default()
            };
            let refs: Vec<Vec<usize>> = encs
                .iter()
                .map(|e| reference_ids(&store, &params, &cfg, e, &[SOS], 16, opts))
                .collect();
            let mut dec = BatchDecoder::new(&store, &params, &cfg, 3 * beam);
            let reqs = encs
                .iter()
                .map(|e| BatchRequest {
                    enc_out: e.clone(),
                    prompt: vec![SOS],
                    max_len: 16,
                    opts,
                    submit: SubmitOptions::default(),
                })
                .collect();
            assert_eq!(dec.decode_all(reqs), refs, "beam={beam}");
        }
    }

    /// Greedy and beam requests share one batch; each matches its own
    /// single-request reference, including min_len-forced beams.
    #[test]
    fn mixed_greedy_and_beam_batch_matches_references() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..4).map(|i| enc(&store, &params, &cfg, i)).collect();
        let specs = [
            DecodeOptions {
                beam: 1,
                min_len: 0,
                ..Default::default()
            },
            DecodeOptions {
                beam: 3,
                min_len: 0,
                ..Default::default()
            },
            DecodeOptions {
                beam: 1,
                min_len: 6,
                ..Default::default()
            },
            DecodeOptions {
                beam: 2,
                min_len: 4,
                ..Default::default()
            },
        ];
        let refs: Vec<Vec<usize>> = specs
            .iter()
            .zip(&encs)
            .map(|(&opts, e)| reference_ids(&store, &params, &cfg, e, &[SOS], 14, opts))
            .collect();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 8);
        let reqs = specs
            .iter()
            .zip(encs)
            .map(|(&opts, enc_out)| BatchRequest {
                enc_out,
                prompt: vec![SOS],
                max_len: 14,
                opts,
                submit: SubmitOptions::default(),
            })
            .collect();
        assert_eq!(dec.decode_all(reqs), refs);
    }

    /// Beam requests with forced prompts follow the prompted reference.
    #[test]
    fn batched_beam_with_prompt_matches_prompted_reference() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 2);
        let prompt = [SOS, 7, 11];
        let opts = DecodeOptions {
            beam: 3,
            min_len: 2,
            ..Default::default()
        };
        let reference = reference_ids(&store, &params, &cfg, &e, &prompt, 15, opts);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
        let out = dec.decode_all(vec![BatchRequest {
            enc_out: e,
            prompt: prompt.to_vec(),
            max_len: 15,
            opts,
            submit: SubmitOptions::default(),
        }]);
        assert_eq!(out[0], reference);
    }

    /// Beam requests queue when their reserved lanes don't fit, and drain
    /// through freed lanes like any other request. A preempting
    /// interactive beam request evicts as many bulk groups as its width
    /// needs.
    #[test]
    fn beam_reservation_respects_lane_capacity_and_preempts_wide() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..3).map(|i| enc(&store, &params, &cfg, i)).collect();
        let opts = DecodeOptions {
            beam: 2,
            min_len: 0,
            ..Default::default()
        };
        let refs: Vec<Vec<usize>> = encs
            .iter()
            .map(|e| reference_ids(&store, &params, &cfg, e, &[SOS], 12, opts))
            .collect();
        // 3 beam-2 requests through 4 lanes: at most two decode at a time.
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
        let ids: Vec<RequestId> = encs
            .iter()
            .map(|e| {
                dec.submit(BatchRequest {
                    enc_out: e.clone(),
                    prompt: vec![SOS],
                    max_len: 12,
                    opts,
                    submit: SubmitOptions::default(),
                })
            })
            .collect();
        while dec.step() > 0 {
            assert!(dec.active() <= 2, "beam reservations cap concurrency");
        }
        for (id, want) in ids.into_iter().zip(&refs) {
            assert_eq!(&take(&mut dec, id), want);
        }

        // Wide preemption: 2 bulk beam-2 groups hold all 4 lanes; an
        // interactive beam-4 request needs every lane, so both yield.
        let long = DecodeOptions {
            beam: 2,
            min_len: 10,
            ..Default::default()
        };
        let b0 = dec.submit(BatchRequest {
            enc_out: encs[0].clone(),
            prompt: vec![SOS],
            max_len: 12,
            opts: long,
            submit: SubmitOptions::bulk(),
        });
        let b1 = dec.submit(BatchRequest {
            enc_out: encs[1].clone(),
            prompt: vec![SOS],
            max_len: 12,
            opts: long,
            submit: SubmitOptions::bulk(),
        });
        dec.step();
        assert_eq!(dec.active(), 2);
        let wide_opts = DecodeOptions {
            beam: 4,
            min_len: 0,
            ..Default::default()
        };
        let wide_ref = reference_ids(&store, &params, &cfg, &encs[2], &[SOS], 12, wide_opts);
        let wide = dec.submit(BatchRequest {
            enc_out: encs[2].clone(),
            prompt: vec![SOS],
            max_len: 12,
            opts: wide_opts,
            submit: SubmitOptions::default(),
        });
        dec.step();
        assert!(matches!(dec.poll(wide), PollResult::Decoding { .. }));
        assert_eq!(dec.preemptions(), 2, "both bulk groups yielded");
        dec.run();
        assert_eq!(take(&mut dec, wide), wide_ref);
        assert_eq!(
            take(&mut dec, b0),
            reference_ids(&store, &params, &cfg, &encs[0], &[SOS], 12, long)
        );
        assert_eq!(
            take(&mut dec, b1),
            reference_ids(&store, &params, &cfg, &encs[1], &[SOS], 12, long)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the scheduler")]
    fn beam_wider_than_lanes_is_rejected() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 0);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        dec.submit(BatchRequest::beam(e, 8, 3));
    }

    /// Regression (satellite fix): a zero-lane scheduler fails loudly at
    /// construction with a message naming the problem.
    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_scheduler_is_rejected_with_clear_error() {
        let (cfg, store, params) = setup();
        BatchDecoder::new(&store, &params, &cfg, 0);
    }

    /// Regression (satellite fix): a `beam = 0` request fails at submit
    /// with a descriptive message, not deep inside a decode loop.
    #[test]
    #[should_panic(expected = "beam width must be at least 1")]
    fn zero_beam_request_is_rejected_with_clear_error() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 0);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        dec.submit(BatchRequest {
            enc_out: e,
            prompt: vec![SOS],
            max_len: 8,
            opts: DecodeOptions {
                beam: 0,
                min_len: 0,
                ..Default::default()
            },
            submit: SubmitOptions::default(),
        });
    }

    // -- int8 quantized scheduling -------------------------------------------

    /// An `Int8` scheduler returns exactly the single-request quantized
    /// reference for greedy and beam requests alike — the batched quant
    /// path has no private numerics (its step is bitwise the single quant
    /// step, and token selection is shared code).
    #[test]
    fn quant_scheduler_matches_quant_single_request_reference() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..4).map(|i| enc(&store, &params, &cfg, i)).collect();
        let specs = [(1usize, 0usize), (3, 0), (1, 6), (2, 4)];
        let refs: Vec<Vec<usize>> = specs
            .iter()
            .zip(&encs)
            .map(|(&(beam, min_len), e)| {
                let opts = DecodeOptions {
                    beam,
                    min_len,
                    precision: Precision::Int8,
                };
                reference_ids(&store, &params, &cfg, e, &[SOS], 14, opts)
            })
            .collect();
        let mut dec = BatchDecoder::with_precision(&store, &params, &cfg, 8, Precision::Int8);
        assert_eq!(dec.precision(), Precision::Int8);
        let reqs = specs
            .iter()
            .zip(encs)
            .map(|(&(beam, min_len), enc_out)| BatchRequest {
                enc_out,
                prompt: vec![SOS],
                max_len: 14,
                opts: DecodeOptions {
                    beam,
                    min_len,
                    precision: Precision::Int8,
                },
                submit: SubmitOptions::default(),
            })
            .collect();
        assert_eq!(dec.decode_all(reqs), refs);
        drop(dec);
    }

    /// A precision mismatch between request and scheduler is a loud error
    /// — a lockstep step fuses all lanes into one kernel pass, so it can
    /// never serve mixed precisions.
    #[test]
    #[should_panic(expected = "precision differs")]
    fn precision_mismatch_is_rejected() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 0);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2); // f32 weights
        dec.submit(BatchRequest {
            enc_out: e,
            prompt: vec![SOS],
            max_len: 8,
            opts: DecodeOptions {
                beam: 1,
                min_len: 0,
                precision: Precision::Int8,
            },
            submit: SubmitOptions::default(),
        });
    }

    // -- paged pool + prefix sharing ---------------------------------------

    /// Identical encoder outputs share the retained cross-K/V projections
    /// — and still return identical output.
    #[test]
    fn identical_prompts_share_prefill_pages() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 3);
        let reference = reference_ids(
            &store,
            &params,
            &cfg,
            &e,
            &[SOS],
            18,
            DecodeOptions::default(),
        );
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
        let a = dec.submit(BatchRequest::greedy(e.clone(), 18));
        dec.run();
        assert_eq!(dec.prefix_stats().hits, 0, "first submission projects");
        let b = dec.submit(BatchRequest::greedy(e.clone(), 18));
        let c = dec.submit(BatchRequest::greedy(e, 18));
        dec.run();
        assert_eq!(dec.prefix_stats().hits, 2, "twins share the projections");
        assert_eq!(take(&mut dec, a), reference);
        assert_eq!(take(&mut dec, b), reference);
        assert_eq!(take(&mut dec, c), reference);
    }

    /// Prompted requests over one encoder output share its cross-K/V from
    /// the table and prefill their whole prompt from there, so an edited
    /// prompt and an identical resubmit both decode bitwise like a
    /// from-scratch decode.
    #[test]
    fn prompted_requests_share_cross_kv_and_prefill_their_prompt() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 2);
        // 18-token prompts: 17 prefill rows = one full 16-row page + 1.
        let base: Vec<usize> = std::iter::once(SOS)
            .chain((0..17).map(|i| 3 + i % 20))
            .collect();
        let mut edited = base.clone();
        edited[16] += 1; // diverge *after* the first page's 16 fed tokens
        let refs: Vec<Vec<usize>> = [&base, &edited]
            .iter()
            .map(|p| reference_ids(&store, &params, &cfg, &e, p, 24, DecodeOptions::default()))
            .collect();

        let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
        let mut req = BatchRequest::greedy(e.clone(), 24);
        req.prompt = base.clone();
        let a = dec.submit(req);
        dec.run();
        let after_first = dec.prefix_stats();
        assert_eq!(after_first.misses, 1, "an empty table misses");
        assert_eq!(after_first.prefilled_rows, 17);

        let mut req = BatchRequest::greedy(e.clone(), 24);
        req.prompt = edited.clone();
        let b = dec.submit(req);
        let mut req = BatchRequest::greedy(e, 24);
        req.prompt = base;
        let c = dec.submit(req);
        dec.run();
        let s = dec.prefix_stats();
        assert_eq!((s.hits, s.misses), (2, 1), "both later requests share");
        assert_eq!(s.shared_rows, 0, "no token rows are shared");
        assert_eq!(s.prefilled_rows, 3 * 17, "every prompt is prefilled");

        assert_eq!(take(&mut dec, a), refs[0]);
        assert_eq!(take(&mut dec, b), refs[1], "shared cross-K/V stay bitwise");
        assert_eq!(take(&mut dec, c), refs[0]);
    }

    /// Regression: eviction at capacity must be LRU, not FIFO — the hot
    /// entry (the buffer being actively edited, resubmitted between every
    /// churn insertion) survives `PREFIX_CACHE_CAP` insertions of distinct
    /// cold entries.
    #[test]
    fn hot_prefix_entry_survives_cap_churn() {
        let (cfg, store, params) = setup();
        let hot = enc(&store, &params, &cfg, 0);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
        dec.decode_all(vec![BatchRequest::greedy(hot.clone(), 10)]);
        assert_eq!(dec.prefix_stats().hits, 0, "first submission misses");
        for seed in 1..=PREFIX_CACHE_CAP {
            // Re-touch the hot prompt, then churn in a distinct one.
            dec.decode_all(vec![
                BatchRequest::greedy(hot.clone(), 10),
                BatchRequest::greedy(enc(&store, &params, &cfg, seed), 10),
            ]);
        }
        let hits_before = dec.prefix_stats().hits;
        assert_eq!(hits_before, PREFIX_CACHE_CAP as u64, "every re-touch hit");
        dec.decode_all(vec![BatchRequest::greedy(hot, 10)]);
        assert_eq!(
            dec.prefix_stats().hits,
            hits_before + 1,
            "hot entry survived PREFIX_CACHE_CAP insertions (LRU, not FIFO)"
        );
        assert!(dec.prefix_stats().evictions >= 1, "capacity did evict");
    }

    /// Every page goes back to the pool once the scheduler drops —
    /// including pages shared by beam forks.
    #[test]
    fn pool_drains_once_scheduler_drops() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..4).map(|i| enc(&store, &params, &cfg, i)).collect();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 6);
        let pool = dec.pool().clone();
        let reqs = encs
            .iter()
            .enumerate()
            .map(|(i, e)| BatchRequest {
                enc_out: e.clone(),
                prompt: vec![SOS],
                max_len: 12,
                opts: DecodeOptions {
                    beam: 1 + i % 3,
                    min_len: 0,
                    ..Default::default()
                },
                submit: SubmitOptions::default(),
            })
            .collect();
        dec.decode_all(reqs);
        let mid = pool.stats();
        assert!(mid.pages_peak > 0, "decoding allocated pages");
        drop(dec);
        assert_eq!(pool.stats().pages_live, 0, "no page outlives its owners");
    }

    /// Regression (review): an *aged* bulk entry at the head of the queue
    /// must not block preemption — its promotion carries eviction rights,
    /// so it evicts an unprotected running bulk lane itself (and is
    /// admitted protected), instead of head-of-line-blocking every
    /// interactive arrival behind it until the running job drains.
    #[test]
    fn aged_bulk_at_queue_head_preempts_instead_of_blocking() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 0);
        let long = DecodeOptions {
            beam: 1,
            min_len: 20,
            ..Default::default()
        };
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 1);
        dec.set_aging_steps(3);
        let running = dec.submit(BatchRequest {
            enc_out: e.clone(),
            prompt: vec![SOS],
            max_len: 24,
            opts: long,
            submit: SubmitOptions::bulk(),
        });
        dec.step();
        let aged = dec.submit(BatchRequest::greedy(e.clone(), 12).bulk());
        for _ in 0..4 {
            dec.step(); // `aged` waits past the 3-step aging bound
        }
        let interactive = dec.submit(BatchRequest::greedy(e.clone(), 12));
        dec.step();
        // The promoted entry outranks the interactive (older ticket) and
        // evicted the running bulk job rather than blocking the queue.
        assert!(
            matches!(dec.poll(aged), PollResult::Decoding { .. }),
            "promoted bulk decodes via its own eviction rights"
        );
        assert!(matches!(dec.poll(running), PollResult::Queued { .. }));
        assert_eq!(dec.preemptions(), 1);
        dec.run();
        // Everyone still finishes with reference-identical output.
        let short_ref = reference_ids(
            &store,
            &params,
            &cfg,
            &e,
            &[SOS],
            12,
            DecodeOptions::default(),
        );
        assert_eq!(take(&mut dec, aged), short_ref);
        assert_eq!(take(&mut dec, interactive), short_ref);
        assert_eq!(
            take(&mut dec, running),
            reference_ids(&store, &params, &cfg, &e, &[SOS], 24, long)
        );
    }

    /// Regression (review): fire-and-forget cancellation is memory-bounded
    /// — past [`CANCELLED_MARKER_CAP`] unpolled markers the oldest degrade
    /// to `Unknown` while the newest still redeem `Cancelled`.
    #[test]
    fn unpolled_cancel_markers_are_bounded() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 1);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 1);
        let ids: Vec<RequestId> = (0..CANCELLED_MARKER_CAP + 8)
            .map(|_| {
                let id = dec.submit(BatchRequest::greedy(e.clone(), 8));
                assert!(dec.cancel(id), "queued cancel succeeds");
                id
            })
            .collect();
        assert_eq!(
            dec.poll(ids[0]),
            PollResult::Unknown,
            "oldest markers evicted at the cap"
        );
        assert_eq!(
            dec.poll(*ids.last().unwrap()),
            PollResult::Cancelled,
            "recent markers still redeem"
        );
        assert_eq!(dec.pending(), 0, "every request left the queue");
    }

    #[test]
    fn page_limit_accessor_roundtrip() {
        let (cfg, store, params) = setup();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        assert_eq!(dec.page_limit(), None, "no cap by default");
        assert_eq!(dec.evictions(), 0);
        dec.set_page_limit(Some(12));
        assert_eq!(dec.page_limit(), Some(12));
        dec.set_page_limit(None);
        assert_eq!(dec.page_limit(), None);
        assert_eq!(dec.evictions(), 0, "setting a cap alone evicts nothing");
    }

    #[test]
    fn deadlines_order_admission_within_class_not_across() {
        let (cfg, store, params) = setup();
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 1);
        let hold = dec.submit(BatchRequest {
            enc_out: enc(&store, &params, &cfg, 0),
            prompt: vec![SOS],
            max_len: 18,
            opts: DecodeOptions {
                min_len: 10,
                ..Default::default()
            },
            submit: SubmitOptions::default(),
        });
        dec.step();
        // Same class: earliest deadline first, `None` after every stamp.
        let late = dec.submit(
            BatchRequest::greedy(enc(&store, &params, &cfg, 1), 8)
                .bulk()
                .with_deadline(9),
        );
        let open = dec.submit(BatchRequest::greedy(enc(&store, &params, &cfg, 2), 8).bulk());
        let early = dec.submit(
            BatchRequest::greedy(enc(&store, &params, &cfg, 3), 8)
                .bulk()
                .with_deadline(2),
        );
        assert_eq!(dec.poll(early), PollResult::Queued { position: 0 });
        assert_eq!(dec.poll(late), PollResult::Queued { position: 1 });
        assert_eq!(dec.poll(open), PollResult::Queued { position: 2 });
        // Across classes: a fresh interactive with no deadline still admits
        // before every deadline-stamped bulk request.
        let vip = dec.submit(BatchRequest::greedy(enc(&store, &params, &cfg, 4), 8));
        assert_eq!(dec.poll(vip), PollResult::Queued { position: 0 });
        assert_eq!(dec.poll(early), PollResult::Queued { position: 1 });
        dec.run();
        for id in [hold, late, open, early, vip] {
            take(&mut dec, id);
        }
    }

    #[test]
    fn page_pressure_evicts_bulk_then_replays_bitwise() {
        let (cfg, store, params) = setup();
        let eb = enc(&store, &params, &cfg, 5);
        let opts = DecodeOptions {
            min_len: 12,
            ..Default::default()
        };
        let reference = reference_ids(&store, &params, &cfg, &eb, &[SOS], 20, opts);
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        dec.set_aging_steps(6);
        let bulk = dec.submit(
            BatchRequest {
                enc_out: eb,
                prompt: vec![SOS],
                max_len: 20,
                opts,
                submit: SubmitOptions::default(),
            }
            .bulk(),
        );
        for _ in 0..3 {
            dec.step();
        }
        assert_eq!(dec.evictions(), 0, "no protected group, no eviction yet");
        let inter = dec.submit(BatchRequest {
            enc_out: enc(&store, &params, &cfg, 6),
            prompt: vec![SOS],
            max_len: 20,
            opts: DecodeOptions {
                min_len: 10,
                ..Default::default()
            },
            submit: SubmitOptions::default(),
        });
        dec.set_page_limit(Some(1));
        dec.run();
        assert!(dec.evictions() >= 1, "pressure must evict the bulk group");
        match dec.poll(bulk) {
            PollResult::Done { ids, telemetry, .. } => {
                assert_eq!(ids, reference, "replay after eviction is bitwise");
                assert!(telemetry.evictions >= 1, "victim telemetry records it");
            }
            other => panic!("bulk unfinished: {other:?}"),
        }
        match dec.poll(inter) {
            PollResult::Done { telemetry, .. } => {
                assert_eq!(telemetry.evictions, 0, "interactive is never evicted");
            }
            other => panic!("interactive unfinished: {other:?}"),
        }
    }

    // -- the Interactive hold ------------------------------------------------

    /// While an interactive request decodes, running bulk groups keep their
    /// lanes but generate nothing and queued bulk is not admitted (its
    /// queue wait runs on); once the keystroke retires every bulk request
    /// resumes and finishes bitwise unchanged.
    #[test]
    fn bulk_sits_out_while_interactive_decodes() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..4).map(|i| enc(&store, &params, &cfg, i)).collect();
        let long = DecodeOptions {
            beam: 1,
            min_len: 16,
            ..Default::default()
        };
        let bulk_req = |e: &Tensor| BatchRequest {
            enc_out: e.clone(),
            prompt: vec![SOS],
            max_len: 20,
            opts: long,
            submit: SubmitOptions::bulk(),
        };
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
        let running: Vec<RequestId> = encs[..2].iter().map(|e| dec.submit(bulk_req(e))).collect();
        dec.step();
        let key_opts = DecodeOptions {
            beam: 1,
            min_len: 6,
            ..Default::default()
        };
        let key = dec.submit(BatchRequest {
            enc_out: encs[3].clone(),
            prompt: vec![SOS],
            max_len: 8,
            opts: key_opts,
            submit: SubmitOptions::interactive(),
        });
        let queued = dec.submit(bulk_req(&encs[2]));
        let mut key_steps = 0u64;
        while dec.poll(key).is_pending() {
            assert_eq!(dec.step(), 1, "the keystroke decodes in a batch of one");
            key_steps += 1;
            for &id in &running {
                let PollResult::Decoding { tokens_so_far } = dec.poll(id) else {
                    panic!("held bulk keeps its lanes");
                };
                assert_eq!(tokens_so_far.len(), 1, "held bulk generates nothing");
            }
            assert!(matches!(dec.poll(queued), PollResult::Queued { .. }));
        }
        assert_eq!(dec.preemptions(), 0, "free lanes: nothing was preempted");
        dec.run();
        for (i, id) in running.into_iter().chain([queued]).enumerate() {
            let PollResult::Done { ids, telemetry, .. } = dec.poll(id) else {
                panic!("bulk {i} finished");
            };
            let e = &encs[if i < 2 { i } else { 2 }];
            assert_eq!(
                ids,
                reference_ids(&store, &params, &cfg, e, &[SOS], 20, long)
            );
            let queued_for = if i < 2 { 0 } else { key_steps };
            assert_eq!(
                telemetry.queue_wait_steps, queued_for,
                "bulk {i}: held in lanes is not queued"
            );
        }
    }

    /// The engine-facing half of the hold: a fleet hold parks unprotected
    /// bulk work even with no interactive request here, and steps sat out
    /// while other workers decode age the held group and the queued entry
    /// alike, so both escape exactly at the aging bound.
    #[test]
    fn sitting_out_a_fleet_hold_counts_toward_aging() {
        let (cfg, store, params) = setup();
        let encs: Vec<Tensor> = (0..2).map(|i| enc(&store, &params, &cfg, i)).collect();
        let long = DecodeOptions {
            beam: 1,
            min_len: 12,
            ..Default::default()
        };
        let bulk_req = |e: &Tensor| BatchRequest {
            enc_out: e.clone(),
            prompt: vec![SOS],
            max_len: 16,
            opts: long,
            submit: SubmitOptions::bulk(),
        };
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 4);
        dec.set_aging_steps(5);
        let group = dec.submit(bulk_req(&encs[0]));
        dec.step();
        dec.set_fleet_hold(true);
        let entry = dec.submit(bulk_req(&encs[1]));
        assert!(!dec.has_unheld_work(), "everything here is held");
        assert_eq!(dec.step(), 0, "a held scheduler advances nothing");
        assert_eq!(dec.steps_until_unheld(), Some(5));
        dec.sit_out(4);
        assert!(!dec.has_unheld_work());
        assert_eq!(dec.steps_until_unheld(), Some(1));
        dec.sit_out(1);
        assert!(dec.has_unheld_work(), "both aged past the bound");
        assert_eq!(dec.steps_until_unheld(), None);
        assert_eq!(
            dec.step(),
            2,
            "the aged group and entry step under the hold"
        );
        dec.run();
        for (id, e) in [group, entry].into_iter().zip(&encs) {
            let PollResult::Done { ids, telemetry, .. } = dec.poll(id) else {
                panic!("{id} finished");
            };
            assert_eq!(
                ids,
                reference_ids(&store, &params, &cfg, e, &[SOS], 16, long)
            );
            let queued_for = if id == entry { 5 } else { 0 };
            assert_eq!(
                telemetry.queue_wait_steps, queued_for,
                "{id}: escaped exactly at the bound"
            );
        }
    }

    /// Held steps count toward aging: a running bulk group held for
    /// `aging_steps` steps in a row is promoted and steps beside the
    /// keystroke that held it, with its output unchanged.
    #[test]
    fn held_bulk_escapes_after_aging_steps_in_a_row() {
        let (cfg, store, params) = setup();
        let e = enc(&store, &params, &cfg, 1);
        let long = DecodeOptions {
            beam: 1,
            min_len: 16,
            ..Default::default()
        };
        let mut dec = BatchDecoder::new(&store, &params, &cfg, 2);
        dec.set_aging_steps(3);
        let bulk = dec.submit(BatchRequest {
            enc_out: e.clone(),
            prompt: vec![SOS],
            max_len: 20,
            opts: long,
            submit: SubmitOptions::bulk(),
        });
        dec.step();
        dec.submit(BatchRequest {
            enc_out: e.clone(),
            prompt: vec![SOS],
            max_len: 10,
            opts: DecodeOptions {
                min_len: 8,
                ..Default::default()
            },
            submit: SubmitOptions::interactive(),
        });
        let mut tokens = Vec::new();
        for _ in 0..5 {
            dec.step();
            let PollResult::Decoding { tokens_so_far } = dec.poll(bulk) else {
                panic!("bulk keeps decoding");
            };
            tokens.push(tokens_so_far.len());
        }
        assert_eq!(tokens, [1, 1, 1, 2, 3], "held 3 steps, then promoted");
        dec.run();
        let PollResult::Done { ids, telemetry, .. } = dec.poll(bulk) else {
            panic!("bulk finished");
        };
        assert_eq!(
            ids,
            reference_ids(&store, &params, &cfg, &e, &[SOS], 20, long)
        );
        assert_eq!(telemetry.preemptions, 0);
    }
}
