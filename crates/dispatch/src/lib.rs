//! # rix-dispatch: multi-process and multi-host experiment dispatch
//!
//! The experiment layer's service tier: one [`pool`] coordinator that
//! shards independent grid cells across **worker processes** it spawns
//! (over stdio) or **remote workers** that dial in (over TCP, see
//! [`net`]), the one [`worker`] session loop both kinds of worker run, a
//! [`transport`] abstraction under both, and a content-addressed result
//! [`cache`] the caller consults so a re-run only simulates what
//! changed.
//!
//! The crate is deliberately generic — it knows nothing about
//! simulators, benchmarks or sweeps. A *plan* is an opaque JSON value
//! the caller serialises, a *cell* is a `u64` index into work only the
//! caller can interpret, and a *payload* is whatever JSON the worker's
//! executor returns for a cell. `rix-bench` layers the (benchmark ×
//! config) grid semantics on top, and owns the cache: it prefilters
//! hits before dispatch and stores each result as it streams back, so
//! only results for assigned cells, under keys it computed, are ever
//! written. Anything else with independent, deterministic, numberable
//! work units can reuse the same pool.
//!
//! ## Protocol (`rix-dispatch/2`)
//!
//! Newline-delimited JSON frames, each at most
//! [`transport::MAX_FRAME`] bytes. For a spawned worker the channel is
//! its stdin/stdout (stderr passes through to the coordinator's, so
//! worker diagnostics stay visible); for a remote worker it is one
//! socket per connection. The frames:
//!
//! ```text
//! worker → coordinator   {"schema":"rix-dispatch/2","type":"hello",
//!                         "name":"w4242","role":"worker","token":"…"}   (TCP only)
//! coordinator → worker   {"schema":"rix-dispatch/2","type":"init","worker":0,
//!                         "heartbeat_ms":2000,"plan":{…}}
//! coordinator → worker   {"type":"cell","cell":5}
//! worker → coordinator   {"type":"result","cell":5,"payload":{…}}
//! worker → coordinator   {"type":"error","cell":5,"message":"…"}
//! either direction       {"type":"ping","n":7}                          (TCP only)
//! coordinator → worker   {"type":"shutdown"}
//! coordinator → worker   {"type":"quarantine"}                          (TCP only)
//! ```
//!
//! A spawned worker is sent `init` with `heartbeat_ms:0` at birth. A
//! TCP connection opens with the worker's `hello` (a `"role":"status"`
//! hello instead receives one `rix-dispatch-status/1` document and is
//! closed — that is how `exp workers --status` works). When the
//! coordinator was started with a shared secret (`--token` /
//! `RIX_DISPATCH_TOKEN`), every hello — worker and status alike — must
//! carry a matching `"token"` field; a missing or mismatched token is
//! answered with a single cell-less `{"type":"error"}` frame and the
//! connection is closed before any work is offered. The coordinator
//! then sends one `cell` at a time per worker (every worker stays
//! single-occupied, so a slow cell never queues behind a fast one). Any
//! received frame proves the peer alive; `ping` frames exist so that
//! proof keeps arriving while a long cell runs. `shutdown` (or, for a
//! spawned worker, its stdin closing) ends a worker cleanly (exit 0);
//! `quarantine` tells a peer the coordinator gave up on it (exit 3). A
//! worker that cannot follow the protocol answers with a cell-less
//! `error` frame and exits 1.
//!
//! ## Fault model
//!
//! | fault | spawned (stdio) | remote (TCP) |
//! |---|---|---|
//! | worker dies mid-cell (EOF) | cell requeued on a survivor, bounded per-cell retry budget | same; the worker reconnects with backoff + jitter ([`transport::Backoff`]) |
//! | worker hangs | per-cell deadline: process killed, cell requeued | per-cell deadline: connection closed, cell requeued |
//! | half-open link / partition | cannot happen (pipes EOF) | silent past 4× the heartbeat ⇒ lost, cell requeued |
//! | repeat offender | — (a dead process never returns) | K consecutive failures ⇒ peer quarantined, its cells drain elsewhere |
//! | retry budget spent | cell handed back unfinished | cell handed back unfinished |
//! | no live worker | queue handed back at once | queue handed back after `worker_wait` |
//! | executor `error` | **fatal** to the run, no retry | **fatal** to the run, no retry |
//!
//! Cells are deterministic, so an error one worker can report is an
//! error every retry would hit too. What happens to handed-back cells
//! is the caller's choice ([`pool::PoolOutcome`]): `rix-bench` fails a
//! spawned run, naming the cell whose budget ran out, and finishes a
//! served run's cells in-process (graceful degradation).
//!
//! Fault injection for tests: `RIX_DISPATCH_FAULT` takes the
//! process-level specs (`abort:K` / `stall:K`, interpreted by the
//! executor layer) and the network-level specs
//! ([`transport::NetFault`]: `net-drop:N[:repeat]` / `net-stall:N` /
//! `net-exit:N`, fired by the remote worker at its `N`th actionable
//! frame).
//!
//! [`hash::fnv128`] is the shared 128-bit FNV-1a used for cache keys
//! and spec fingerprints.

pub mod cache;
pub mod hash;
pub mod net;
pub mod pool;
pub mod transport;
pub mod worker;

pub use cache::{CacheStats, ResultCache};
pub use net::{connect_worker, query_status};
pub use pool::{
    dispatch_cells, PoolConfig, PoolError, PoolOutcome, PoolSummary, WorkerStat, Workers,
};
pub use transport::{Backoff, NetFault, NetFaultKind};
pub use worker::serve;

/// The hidden first argument a coordinator's caller passes when
/// self-exec'ing a worker (`current_exe() __rix-worker`). Binaries that
/// can act as workers check for it first thing in `main` (before any
/// other flag parsing) and enter their serve loop.
pub const WORKER_ARG: &str = "__rix-worker";

/// The protocol schema this build speaks (named in `init` and `hello`).
pub const PROTOCOL_SCHEMA: &str = "rix-dispatch/2";

/// The schema of the status document served to a `"role":"status"`
/// hello (see [`net::query_status`]).
pub const STATUS_SCHEMA: &str = "rix-dispatch-status/1";
