//! # locus-service
//!
//! Routing as a service for the `locusroute-rs` reproduction of
//! Martonosi & Gupta (ICPP 1989): a traffic-driven job server over the
//! workspace's table of routing engines (an [`EngineFactory`] per name).
//!
//! The paper studies one circuit at a time; this crate studies the
//! *serving* problem layered on top — what happens when routing jobs
//! arrive as traffic. A run wires five pieces together:
//!
//! 1. [`workload`] — a seeded discrete-event arrival-trace generator on
//!    a virtual millisecond clock: exponential inter-arrivals shaped by
//!    rush-hour burst windows, job classes mixing circuit families
//!    (paper presets plus the scale-free power-law family) × engines ×
//!    processor counts.
//! 2. [`pool`] — a scoped-thread worker pool (the workspace's third
//!    audited spawn site) that routes every job in the trace, claiming
//!    work off a shared counter and reassembling results in input order.
//! 3. [`runner`] — the deterministic cost model pricing each routed job
//!    in virtual ms (the engine's simulated clock when it has one, a
//!    cells-examined work model otherwise).
//! 4. [`server`] — a bounded admission queue with configurable
//!    backpressure (block / shed-oldest / reject-with-retry-hint) and a
//!    virtual-time dispatch simulation over `workers` simulated servers,
//!    stamping every job's enqueue/dispatch/complete times: one timed
//!    event queue over one state struct.
//! 5. [`health`] — the optional policy layer the replay consults: retry
//!    with backoff, worker quarantine, per-class circuit breaker.
//!
//! Because arrival times and service prices are both virtual, the whole
//! pipeline is a closed deterministic simulation: same seed ⇒ same
//! trace ⇒ same admission/shed decisions ⇒ byte-identical reports,
//! independent of the host and of the execution pool's thread count.
//! Queueing delays, service latencies, throughput, shed/reject counts,
//! and utilization flow out both as [`locus_obs`] events/counters and
//! in the server's own [`ServiceStats`] (cross-checked in tests).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod health;
pub mod pool;
pub mod runner;
pub mod server;
pub mod workload;

pub use health::{HealthPolicy, WorkerState};
pub use pool::WorkerPool;
pub use runner::{EngineFactory, EngineRunner, JobExecution, JobRunner, DEFAULT_CELLS_PER_MS};
pub use server::{
    Backpressure, JobOutcome, JobRecord, JobServer, ServiceConfig, ServiceOutcome, ServiceStats,
};
pub use workload::{generate, Burst, CircuitFamily, JobClass, JobSpec, WorkloadConfig};
