//! Long-running simulation job server and open-loop bench driver.
//!
//! The north star is a serving system: many independent protocol
//! executions (Becchetti et al.'s gossip-model framing) over shared,
//! prebuilt substrate.  This crate supplies the three pieces:
//!
//! * [`spec`] — the wire [`JobSpec`] (dynamics ×
//!   topology × exchange mode × failure scenario × stop rule) and the
//!   **shared builders** the CLI subcommands also call, so a spec
//!   resolves to bit-identical trajectories on either path;
//! * [`cache`] — the spec-keyed prebuilt-state cache (topologies,
//!   alias tables, failure edge tables), shared via `Arc` across the
//!   worker pool;
//! * [`server`] / [`mod@bench`] — `plurality serve` (NDJSON jobs over TCP,
//!   streamed per-trial results) and `plurality bench-client` (open-loop
//!   load at a target frequency, latency percentiles from the PR 6
//!   telemetry histograms, cold-vs-warm cache probe).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cache;
pub mod exec;
pub mod server;
pub mod spec;
pub mod wire;

pub use bench::{run_bench, send_shutdown, BenchConfig, BenchReport};
pub use cache::{CacheStats, Lookup, StateCache};
pub use exec::{prepare, run_job, JobError, JobOutcome, PreparedJob, TrialRow};
pub use server::Server;
pub use spec::{auto_bias, build_dynamics, EngineKind, JobSpec};
