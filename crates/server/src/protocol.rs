//! Wire message types: what goes inside a frame.
//!
//! Every frame payload is one JSON-serialized [`Request`] (client → daemon)
//! or [`Response`] (daemon → client). Enums use serde's external tagging —
//! `"Stats"` for unit variants, `{"Submit": {…}}` for data variants — so
//! a request is self-describing and an IDE plugin in any language can speak
//! the protocol with a stock JSON library.
//!
//! The response payload for a poll is the core crate's [`SuggestPoll`]
//! **verbatim** (streaming `Decoding` partials included): the daemon adds
//! transport, never a second result model. Ticket ids travel as the raw
//! `u64` of [`RequestId::raw`](mpirical::RequestId::raw), which is exactly
//! what makes reconnect-and-repoll work — a client may drop its TCP
//! connection, reconnect, and redeem the same id.

use mpirical::{PoolStats, PrefixStats, SubmitOptions, SuggestPoll};
use serde::{Deserialize, Serialize};

/// One client request (the payload of a client → daemon frame).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Queue a C buffer for suggestion. Answered with
    /// [`Response::Submitted`], [`Response::Busy`] (admission budget
    /// exhausted — retry later), or [`Response::Rejected`] (draining).
    Submit {
        /// Raw, possibly mid-edit C source.
        source: String,
        /// Scheduling class, token cap, EDF deadline — carried verbatim
        /// into the engine scheduler.
        options: SubmitOptions,
    },
    /// Report a ticket's lifecycle state. Answered with
    /// [`Response::Poll`]; `Done`/`Cancelled` redeem once, exactly as
    /// in-process.
    Poll {
        /// The raw ticket from [`Response::Submitted`].
        id: u64,
    },
    /// Retire a queued or mid-flight request. Answered with
    /// [`Response::Cancel`].
    Cancel {
        /// The raw ticket from [`Response::Submitted`].
        id: u64,
    },
    /// Snapshot the daemon's serving telemetry. Answered with
    /// [`Response::Stats`].
    Stats,
    /// Graceful shutdown (the SIGTERM path): stop admitting, finish every
    /// in-flight request, park unredeemed results for late polls, shut the
    /// engine down. Answered with [`Response::Drained`] once complete.
    Drain,
}

/// One daemon response (the payload of a daemon → client frame).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The submission was admitted; redeem `id` with [`Request::Poll`].
    Submitted {
        /// Raw ticket id — stable across reconnects.
        id: u64,
    },
    /// Load shed: the admission budget (unredeemed tickets) is exhausted.
    /// The request was **not** queued; retry after roughly
    /// `retry_after_steps` scheduler steps.
    Busy {
        /// Server's backoff hint, in scheduler steps.
        retry_after_steps: u64,
    },
    /// The submission was refused outright (the daemon is draining).
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// The ticket's lifecycle state, verbatim from the service layer.
    Poll {
        /// Queued / streaming-Decoding / Done / Cancelled / Unknown.
        state: SuggestPoll,
    },
    /// Cancellation outcome: `was_pending` is `true` if the request was
    /// still queued or decoding (it will poll `Cancelled` once).
    Cancel {
        /// Whether the cancel landed on live work.
        was_pending: bool,
    },
    /// Serving telemetry snapshot.
    Stats {
        /// The full aggregate (see [`ServerStats`]).
        stats: ServerStats,
    },
    /// Drain complete: every in-flight request finished, the engine shut
    /// down. `pool` is the **final** page-pool telemetry, taken after all
    /// decoders dropped — `pages_live` must be 0 unless pages leaked.
    Drained {
        /// Final fleet-wide pool stats.
        pool: PoolStats,
    },
}

/// Aggregate per-request scheduling telemetry over every request the
/// daemon has redeemed as `Done` — queue-health totals a dashboard divides
/// by `completed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetryAggregate {
    /// Requests redeemed as `Done` so far.
    pub completed: u64,
    /// Sum of per-request queue-wait steps.
    pub queue_wait_steps: u64,
    /// Sum of per-request decode steps.
    pub decode_steps: u64,
    /// Sum of per-request preemption counts.
    pub preemptions: u64,
    /// Sum of per-request page-eviction counts.
    pub evictions: u64,
}

/// Server-level counters: connection and frame traffic plus the two fault
/// counters the production behaviors revolve around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerCounters {
    /// TCP connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Well-formed frames received.
    pub frames: u64,
    /// Submissions refused with [`Response::Busy`] (admission control).
    pub sheds: u64,
    /// Malformed frames (oversize, truncated, non-JSON, unknown shape) —
    /// each one also terminated its own connection.
    pub malformed: u64,
}

/// Everything the [`Request::Stats`] endpoint reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Engine worker threads decoding for this daemon.
    pub workers: usize,
    /// Requests submitted but not yet finished.
    pub pending: usize,
    /// Unredeemed tickets counted against the admission budget.
    pub outstanding: usize,
    /// `true` once a [`Request::Drain`] was accepted — no new admissions.
    pub draining: bool,
    /// Fleet-wide KV page-pool telemetry (live/peak/shared/COW).
    pub pool: PoolStats,
    /// Encoder-table telemetry: forwards skipped (hits) and run (misses),
    /// hit rate, evictions.
    pub prefix: PrefixStats,
    /// Bulk-lane preemptions performed by the engine so far.
    pub preemptions: u64,
    /// Aggregate per-request telemetry over completed requests.
    pub telemetry: TelemetryAggregate,
    /// Connection/frame/shed/malformed counters.
    pub counters: ServerCounters,
}
