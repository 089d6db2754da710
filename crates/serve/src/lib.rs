//! `espresso-serve`: the strategy-decision service.
//!
//! The paper's pitch for its decision algorithms is that they are cheap —
//! milliseconds, not the hours of a full profile-and-search loop — which
//! makes the planner viable as an *online service*: many training jobs
//! ask "what should I run right now?" whenever their model, cluster, or
//! observed health changes. This crate is that service, std-only:
//!
//! * [`server`] — HTTP/1.1 over `std::net`, a fixed worker pool fed by a
//!   bounded queue (overflow answers 503), per-request deadlines, and
//!   graceful shutdown,
//! * [`http`] — a defensive request parser: arbitrary bytes either parse,
//!   are incomplete, or map to a definite 4xx/5xx — never a panic,
//! * [`cache`] — a sharded LRU over canonical request texts; identical
//!   requests (whatever their JSON key order) are answered bit-identically
//!   without re-running the algorithms,
//! * [`metrics`] — counters and log-bucketed latency histograms behind
//!   `/metrics`,
//! * [`client`] — a tiny blocking HTTP client used by the load generator,
//!   the smoke tests, and embedders who want one.
//!
//! The two binaries are `espresso-cli` (the decision front-end, plus the
//! `serve` subcommand that runs this server) and `espresso-loadgen` (the
//! loopback load harness that writes `BENCH_serve.json`).

// Request paths must not panic: a poisoned worker takes its whole thread
// (and under a mutex, the server) with it. `warn` here is promoted to
// `deny` by CI's `clippy -- -D warnings`; tests keep their unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod fleet;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod retry;
pub mod server;
pub mod signal;

pub use cache::{fnv1a64, CacheStats, ShardedLru};
pub use fleet::{FleetConfig, FleetController, FleetStats};
pub use http::{parse_request, HttpError, Limits, Parsed, Request};
pub use journal::{Journal, SnapshotStore};
pub use metrics::{Histogram, Metrics};
pub use retry::{retry_with_backoff, DeadLetter, RetryPolicy};
pub use server::{ServeConfig, Server};
