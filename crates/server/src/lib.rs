//! # mpirical-server
//!
//! The network face of the assistant: a TCP daemon that exposes the whole
//! serving stack — sharded multi-worker [`Engine`](mpirical::Engine),
//! priority scheduling with preemption, an encoder table, closed-loop
//! verification — behind a small length-prefixed JSON protocol, so an
//! editor/IDE process (the deployment shape MPI-RICAL, Schneider et al.,
//! SC 2023, describes) talks to one long-lived daemon instead of linking
//! the library.
//!
//! The production behaviors are built in, not bolted on:
//!
//! * **Admission control** — a bounded unredeemed-ticket budget; past it,
//!   submissions get a typed [`Response::Busy`] instead of queueing
//!   unboundedly ([`protocol`]).
//! * **Fault isolation** — a malformed frame (oversized, truncated,
//!   non-JSON) terminates only its own connection, never the daemon
//!   ([`framing`]).
//! * **Graceful drain** — [`Request::Drain`] stops admissions, completes
//!   in-flight work, parks unredeemed results for late polls, shuts the
//!   engine down, and asserts zero leaked KV pages ([`daemon`]).
//! * **Stats** — pool/prefix/preemption telemetry, per-request aggregates,
//!   and server counters (connections, frames, sheds, malformed) over the
//!   wire ([`Request::Stats`]).
//!
//! ```no_run
//! use mpirical::MpiRical;
//! use mpirical_server::{Client, Server, ServerConfig, Submitted, SuggestPoll};
//! use std::sync::Arc;
//!
//! let assistant = Arc::new(MpiRical::load("model.json").unwrap());
//! let server = Server::start(assistant, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! let Submitted::Ticket(id) = client.submit("int main() { int rank; return 0; }").unwrap()
//! else {
//!     panic!("shed");
//! };
//! match client.wait(id).unwrap() {
//!     SuggestPoll::Done { suggestions, .. } => {
//!         for s in &suggestions {
//!             println!("insert {} at line {}", s.function, s.line);
//!         }
//!     }
//!     other => panic!("unexpected: {other:?}"),
//! }
//! let pool = client.drain().unwrap();
//! assert_eq!(pool.pages_live, 0);
//! ```

pub mod client;
pub mod daemon;
pub mod framing;
pub mod protocol;

pub use client::{Client, Submitted};
pub use daemon::{Server, ServerConfig};
pub use framing::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use protocol::{Request, Response, ServerCounters, ServerStats, TelemetryAggregate};

// Re-export the service-layer types that ride the wire, so protocol users
// need only this crate.
pub use mpirical::{PoolStats, PrefixStats, SubmitOptions, SuggestPoll, Suggestion};
