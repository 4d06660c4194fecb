//! Batched multi-request decoding with continuous batching, request
//! priorities, preemption, and a typed request lifecycle — the serving
//! layer the ROADMAP's "heavy traffic" north star asks for.
//!
//! A shared assistance service sees N concurrent `suggest` calls;
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
//! * **Scheduling** — admission order, aging, preemption, page-pressure
//!   victims and the Interactive hold are decided by the scheduler's
//!   [`policy`](crate::policy) over integer tickets and step counts. This
//!   module carries the decisions out: it fills lanes, keeps a paused or
//!   held group's caches and pages alive (resuming is a lane reassignment,
//!   not a re-prefill), drops an evicted group's self-attention pages, and
//!   steps only the groups the policy lets step.
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
//! `beam` lanes for it and runs one beam expansion per step
//! (`expand_beams`, then `ranked_hypothesis_ids` at the end, both in
//! [`decode`](crate::decode)) over hypotheses that are stepped in lockstep
//! with every other request's.
//! Hypothesis forks are copy-on-write page shares (all lanes draw from one
//! [`PagePool`]), so a beam expansion bumps refcounts instead of copying
//! K/V rows.
//!
//! # Admission
//!
//! A fresh request brings its encoder output in [`BatchRequest::enc_out`];
//! admission projects that output's cross-attention K/V into a new cache
//! and feeds the prompt as usual
//! ([`BatchDecoder::prefilled_rows`] counts the prompt rows fed). What
//! repeats across an IDE's retriggers is the encoder forward, not the
//! projection: the [`Engine`](crate::engine::Engine)'s encoder table
//! ([`crate::prefix`]) skips that forward in front of the scheduler, so
//! the scheduler holds no table and no projection outlives its lanes.
//!
//! # Equivalence
//!
//! Batching — and now scheduling order, preemption, and cancellation of
//! *other* requests — is a scheduling decision, not a numerical one: each
//! hypothesis owns its [`DecoderCache`], a lane's logits row in
//! [`decode_step_batch`] does not depend on the other lanes, token
//! selection runs per request, and the page size never changes a logit. A
//! request decoded in a full batch — even one preempted and resumed
//! mid-flight — returns **the same ranked hypotheses** as it would alone in
//! a fresh scheduler, for any beam width; the tests here and the property
//! harnesses in `tests/paged_cache_props.rs` and `tests/serving_props.rs`
//! assert it.
//!
//! # Example
//!
//! ```
//! use mpirical_model::{BatchDecoder, BatchRequest, ModelConfig, PollResult};
//! use mpirical_model::decode::encode_source;
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
//! // Batched outputs are exactly what each request decodes alone, down to
//! // the order of the final beam.
//! let alone = |req| BatchDecoder::new(&store, &params, &cfg, 3).decode_all_hypotheses(vec![req]);
//! let greedy = alone(BatchRequest::greedy(enc.clone(), 12)).remove(0);
//! let beamed = alone(BatchRequest::beam(enc.clone(), 12, 3)).remove(0);
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
use crate::policy::Policy;
pub use crate::policy::{Priority, RequestTelemetry, DEFAULT_AGING_STEPS};
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

/// Most `Cancelled` markers retained for unpolled cancellations; past this
/// the oldest degrade to [`PollResult::Unknown`], keeping fire-and-forget
/// [`cancel`](BatchDecoder::cancel) memory-bounded in a long-lived daemon.
pub const CANCELLED_MARKER_CAP: usize = 1024;

/// Most Interactive placements an [`Engine`](crate::engine::Engine) keeps
/// for [`placements`](crate::engine::Engine::placements); past this the
/// oldest are dropped, keeping a long-lived daemon's engine bounded.
pub const PLACEMENT_LOG_CAP: usize = 1024;

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
    /// Length cap counting the prompt, clamped to `cfg.max_dec_len` (a
    /// prompt at or past the cap generates nothing).
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

/// One admitted request — decoding, held, or paused in the queue: its
/// hypotheses (one for greedy, up to `beam` once a beam request starts
/// expanding) plus its generation bookkeeping.
struct Group {
    id: RequestId,
    /// Lanes reserved for this request (= its beam width) while it decodes.
    reserved: usize,
    /// Live and finished hypotheses, in [`expand_beams`] order. Greedy
    /// groups keep exactly one.
    beams: Vec<Hypothesis>,
    /// Beam expansions performed so far (at most `limit - prompt_len`).
    expansions: usize,
    prompt_len: usize,
    min_len: usize,
    /// Generation stops once ids reach this length (prompt included).
    limit: usize,
    finished: bool,
    /// See [`RequestTelemetry::decode_steps`].
    decode_steps: u64,
}

impl Group {
    fn is_beam(&self) -> bool {
        self.reserved > 1
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
    /// One page pool for every lane: retired requests recycle pages into
    /// newly admitted ones, and beam forks share pages COW.
    /// Private by default; [`with_shared`](Self::with_shared) lets a fleet
    /// of schedulers draw from one pool.
    pool: PagePool,
    /// Every scheduling decision: admission, preemption, eviction victims
    /// and the Interactive hold (see [`crate::policy`]).
    policy: Policy,
    /// Admitted groups, decoding or paused; the policy says which step.
    groups: Vec<Group>,
    /// Submitted requests not yet admitted.
    fresh: HashMap<RequestId, BatchRequest>,
    done: HashMap<RequestId, RetiredOutput>,
    cancelled: BTreeSet<RequestId>,
    /// See [`prefilled_rows`](Self::prefilled_rows).
    prefilled_rows: u64,
    scratch: BatchScratch,
    logits: Vec<f32>,
    next_id: u64,
    /// Soft cap on live pool pages; `None` = unbounded. See
    /// [`set_page_limit`](Self::set_page_limit).
    page_limit: Option<usize>,
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
        )
    }

    /// [`with_weights`](Self::with_weights) drawing pages from a caller's
    /// [`PagePool`] — the fleet constructor: the sharded
    /// [`Engine`](crate::engine::Engine) hands every worker the same pool.
    /// Sharing is bitwise-transparent, so fleet outputs equal the
    /// private-pool outputs exactly.
    ///
    /// # Panics
    ///
    /// If `max_batch` is 0, `cfg.vocab_size` is unset, or the pool's row
    /// width differs from `cfg.d_head()`.
    pub(crate) fn with_shared(
        store: &'m ParamStore,
        params: &'m TransformerParams,
        cfg: &'m ModelConfig,
        max_batch: usize,
        weights: Cow<'m, DecoderWeights>,
        pool: PagePool,
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
            pool,
            policy: Policy::new(max_batch),
            groups: Vec::new(),
            fresh: HashMap::new(),
            done: HashMap::new(),
            cancelled: BTreeSet::new(),
            prefilled_rows: 0,
            scratch: BatchScratch::new(cfg, max_batch),
            logits: vec![0.0; max_batch * cfg.vocab_size],
            next_id: 0,
            page_limit: None,
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
            req.opts.beam <= self.max_batch(),
            "beam width {} exceeds the scheduler's {} lanes",
            req.opts.beam,
            self.max_batch()
        );
        assert!(!req.prompt.is_empty(), "prompt must hold at least <sos>");
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let SubmitOptions {
            priority, deadline, ..
        } = req.submit;
        self.policy.submit(id.0, priority, req.opts.beam, deadline);
        self.fresh.insert(id, req);
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
        if self.policy.retire(id.0).is_none() {
            return false;
        }
        if self.fresh.remove(&id).is_none() {
            self.groups.retain(|g| g.id != id);
        }
        self.mark_cancelled(id);
        true
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
        self.policy.active()
    }

    /// Requests submitted but not yet retired (active + queued).
    pub fn pending(&self) -> usize {
        self.policy.pending()
    }

    /// The lane capacity this scheduler was built with.
    pub fn max_batch(&self) -> usize {
        self.policy.max_batch
    }

    /// The aging bound: a queued request whose total wait reaches this
    /// many steps is promoted to the interactive class and admitted
    /// preemption-immune (see module docs).
    pub fn aging_steps(&self) -> u64 {
        self.policy.aging_steps
    }

    /// Set the aging bound. `0` promotes every request immediately —
    /// pure submission-order FIFO across classes, no preemption targets.
    pub fn set_aging_steps(&mut self, steps: u64) {
        self.policy.aging_steps = steps;
    }

    /// Total lane preemptions performed (bulk groups that yielded lanes to
    /// interactive arrivals).
    pub fn preemptions(&self) -> u64 {
        self.policy.preemptions
    }

    /// Set a soft cap on live pool pages, enabling priority-aware KV-page
    /// eviction under memory pressure. While live pages exceed the cap *and*
    /// a protected (interactive or aged-promoted) group is decoding, the
    /// scheduler frees memory at each step by evicting the
    /// **youngest-admitted unprotected bulk greedy** groups — each evicted
    /// group drops its self-attention KV pages, keeps its generated ids and
    /// cross-K/V, and re-enters the queue paused; on re-admission it
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
        self.policy.evictions
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

    /// Prompt rows the admitted requests fed before generating
    /// (`prompt.len() - 1` each, so 0 for the one-token `<sos>` prompt) —
    /// the `prefilled_rows` of [`PrefixStats`](crate::PrefixStats).
    pub fn prefilled_rows(&self) -> u64 {
        self.prefilled_rows
    }

    /// The scheduling policy, for the [`Engine`](crate::engine::Engine)
    /// worker that sets the fleet hold and credits the steps it sat out.
    pub(crate) fn policy(&mut self) -> &mut Policy {
        &mut self.policy
    }

    /// Whether bulk admissions are currently gated by pool pressure.
    fn pressure_gated(&self) -> bool {
        self.page_limit
            .is_some_and(|limit| self.pool.stats().pages_live >= limit)
    }

    /// Enforce the soft page cap (see [`set_page_limit`](Self::set_page_limit)):
    /// drop the self-attention pages of the groups the policy evicts.
    fn evict_for_pressure(&mut self) {
        let Some(limit) = self.page_limit else { return };
        while self.pool.stats().pages_live > limit {
            let Some(id) = self.policy.evict() else { break };
            let group = self.groups.iter_mut().find(|g| g.id.0 == id);
            let group = group.expect("an eviction victim is an admitted group");
            for cache in group.beams.iter_mut().filter_map(|h| h.cache.as_mut()) {
                cache.evict_self_kv();
            }
        }
    }

    /// Move the requests the policy admits into lanes (continuous
    /// batching's "join" half): a paused group resumes in place — its
    /// caches never left the pool — and a fresh request is prefilled.
    /// Requests whose prompt already meets their length cap retire
    /// immediately with an empty generation, without a step.
    fn admit(&mut self) {
        while let Some(id) = self.policy.admit_next(self.pressure_gated()) {
            let id = RequestId(id);
            let Some(req) = self.fresh.remove(&id) else {
                continue;
            };
            let mut limit = req.max_len.min(self.cfg.max_dec_len);
            if let Some(cap) = req.submit.max_new_tokens {
                limit = limit.min(req.prompt.len() + cap);
            }
            if req.prompt.len() >= limit {
                let telemetry = self.policy.retire(id.0).expect("admitted");
                self.done
                    .insert(id, (Vec::new(), vec![Vec::new()], telemetry));
                continue;
            }
            // The root feeds `ids[cache.len()..]`: the whole prompt.
            let cache = DecoderCache::new_in_pool(
                self.store,
                self.params,
                self.cfg,
                &req.enc_out,
                &self.pool,
            );
            self.prefilled_rows += req.prompt.len() as u64 - 1;
            self.groups.push(Group {
                id,
                reserved: req.opts.beam,
                beams: vec![Hypothesis::root(&req.prompt, cache)],
                expansions: 0,
                prompt_len: req.prompt.len(),
                min_len: req.opts.min_len,
                limit,
                finished: false,
                decode_steps: 0,
            });
        }
    }

    /// Run one lockstep step: admit queued requests (priority order,
    /// preempting bulk lanes for interactive arrivals), advance every live
    /// hypothesis of the groups the policy lets step by one token, and
    /// expand/retire finished requests. Returns the number of hypotheses
    /// advanced (0 means the scheduler is idle and [`run`](Self::run)
    /// would stop).
    pub fn step(&mut self) -> usize {
        self.evict_for_pressure();
        self.admit();
        // Gather every live hypothesis across the groups that step, in
        // group/beam order; paused groups wait in the queue, and under the
        // Interactive hold unprotected bulk groups sit this step out.
        let held = self.policy.bulk_held();
        let (mut groups, idle): (Vec<Group>, Vec<Group>) = std::mem::take(&mut self.groups)
            .into_iter()
            .partition(|g| self.policy.steps(g.id.0, held));
        self.groups = idle;
        let tokens: Vec<usize> = (groups.iter().flat_map(|g| g.beams.iter()))
            .filter_map(|h| h.cache.as_ref().map(|c| h.ids[c.len()]))
            .collect();
        let b = tokens.len();
        if b == 0 {
            self.groups.append(&mut groups);
            return 0;
        }
        let vocab = self.cfg.vocab_size;
        let mut caches: Vec<&mut DecoderCache> = (groups.iter_mut())
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
        for group in &mut groups {
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
            // Every hypothesis of a finished request, best first.
            let ranked = if group.is_beam() {
                let beams = std::mem::take(&mut group.beams);
                group.beams = expand_beams(
                    beams,
                    &rows,
                    group.reserved,
                    group.min_len,
                    group.prompt_len,
                );
                group.expansions += 1;
                let done = group.beams.iter().all(|h| h.done)
                    || group.expansions >= group.limit - group.prompt_len;
                done.then(|| {
                    ranked_hypothesis_ids(std::mem::take(&mut group.beams), group.prompt_len)
                })
            } else {
                // Greedy: argmax, `<eos>` or the cap ends the request.
                let h = &mut group.beams[0];
                let logits = rows[0].expect("greedy group has one live hypothesis");
                let generated = h.ids.len() - group.prompt_len;
                let tok = argmax_token(logits, generated < group.min_len);
                if tok != EOS {
                    h.ids.push(tok);
                }
                (tok == EOS || h.ids.len() >= group.limit)
                    .then(|| vec![h.ids[group.prompt_len..].to_vec()])
            };
            if let Some(ranked) = ranked {
                let telemetry = RequestTelemetry {
                    decode_steps: group.decode_steps,
                    ..self.policy.retire(group.id.0).expect("stepped")
                };
                self.done
                    .insert(group.id, (ranked[0].clone(), ranked, telemetry));
                group.finished = true;
            }
        }
        groups.retain(|g| !g.finished);
        self.groups.append(&mut groups);
        self.policy.end_step(held);
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
        if let Some(position) = self.policy.queue_position(id.0) {
            return PollResult::Queued { position };
        }
        if let Some(group) = self.groups.iter().find(|g| g.id == id) {
            return PollResult::Decoding {
                tokens_so_far: group.partial_ids(),
            };
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
    use crate::decode::encode_source;
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

    // -- paged pool + admission -------------------------------------------

    /// Requests over one encoder output each project their own
    /// cross-attention K/V at admission: twins admitted after the first
    /// retired decode exactly like it, and every page returns to the pool.
    #[test]
    fn identical_requests_project_their_own_cross_kv() {
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
        let b = dec.submit(BatchRequest::greedy(e.clone(), 18));
        let c = dec.submit(BatchRequest::greedy(e, 18));
        dec.run();
        assert_eq!(take(&mut dec, a), reference);
        assert_eq!(take(&mut dec, b), reference);
        assert_eq!(take(&mut dec, c), reference);
        assert_eq!(dec.prefilled_rows(), 0, "a <sos> prompt feeds no rows");
        assert_eq!(dec.pool_stats().pages_live, 0, "retired lanes free pages");
    }

    /// Prompted requests over one encoder output prefill their whole
    /// prompt — `prefilled_rows` counts every fed row — so an edited prompt
    /// and an identical resubmit both decode bitwise like a from-scratch
    /// decode.
    #[test]
    fn prompted_requests_prefill_their_whole_prompt() {
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
        assert_eq!(dec.prefilled_rows(), 17);

        let mut req = BatchRequest::greedy(e.clone(), 24);
        req.prompt = edited.clone();
        let b = dec.submit(req);
        let mut req = BatchRequest::greedy(e, 24);
        req.prompt = base;
        let c = dec.submit(req);
        dec.run();
        assert_eq!(dec.prefilled_rows(), 3 * 17, "every prompt is prefilled");

        assert_eq!(take(&mut dec, a), refs[0]);
        assert_eq!(take(&mut dec, b), refs[1]);
        assert_eq!(take(&mut dec, c), refs[0]);
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
        dec.policy().set_fleet_hold(true);
        let entry = dec.submit(bulk_req(&encs[1]));
        assert_eq!(dec.step(), 0, "a held scheduler advances nothing");
        dec.policy().sit_out(4);
        assert_eq!(dec.step(), 0, "still held one step short of the bound");
        dec.policy().sit_out(1);
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
