//! `dp-serve` — Deep Potential inference as a long-running service.
//!
//! An MD engine built for the paper's week-scale campaigns loads its
//! model once and runs for days; the obvious complement is a daemon
//! that does the same for *inference*: load models once, keep the
//! §5.2.2 evaluation workspaces warm, and multiplex many callers over
//! one process instead of paying model setup per invocation. This
//! crate is the daemon's machinery; the root crate wires it to real
//! models and decks behind `dpmd serve`.
//!
//! Modules, bottom-up:
//!
//! * [`json`] — re-export of the workspace codec, [`dp_obs::json`]
//!   (exact `f64` round-tripping: textual equality of two responses
//!   implies bit equality of their numbers).
//! * [`http`] — hand-rolled HTTP/1.1: `Connection: close`,
//!   `Content-Length` framing, hard size limits.
//! * [`router`] — the closed set of endpoints, matched in one place.
//! * [`batch`] — the coalescing scheduler: concurrent `/v1/eval`
//!   requests against one model are drained into a single backend call
//!   that concatenates their fixed-shape padded environment tables
//!   (§5.2.1) and evaluates once, with bounded queue depth (429 on
//!   overflow). The worker is work-conserving: a batch is whatever
//!   queued while the previous one ran, so no request waits on a timer.
//! * [`job`] — asynchronous deck jobs: FIFO store, worker pool,
//!   `queued → running → done | failed`, panic containment, drain.
//! * [`server`] — accept loop over TCP or Unix sockets, thread per
//!   connection, graceful shutdown that finishes in-flight work.
//!
//! Everything here is dependency-free (std + `dp-obs` only) and fully
//! exercised by unit tests without a network beyond loopback.

pub mod batch;
pub mod http;
pub mod job;
pub mod json;
pub mod router;
pub mod server;

pub use batch::{BatchBackend, BatchOptions, Batcher, SubmitError};
pub use http::{Request, Response};
pub use job::{JobFailure, JobRunner, JobState, JobStore, JobView};
pub use json::Json;
pub use router::{route, Route, RouteError};
pub use server::{Bind, Bound, Handler, Server, ShutdownHandle};
