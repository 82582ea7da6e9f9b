//! The repository's seeded benchmark: three workloads timed end to end
//! with tracing off, and a separate traced run that times each layer's
//! public entry points.  See `README.md` for the metric definitions.

#![forbid(unsafe_code)]

pub mod agent;
pub mod gates;
pub mod host;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workloads;
