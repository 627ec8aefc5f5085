//! # locusroute
//!
//! Facade crate for `locusroute-rs` — a reproduction of Martonosi & Gupta,
//! *"Tradeoffs in Message Passing and Shared Memory Implementations of a
//! Standard Cell Router"* (ICPP 1989).
//!
//! This crate re-exports the workspace members under stable module names
//! and provides a [`prelude`] for examples and downstream users.
//!
//! ## Crate map
//!
//! * [`circuit`] — standard-cell circuit model and synthetic benchmarks.
//! * [`router`] — the LocusRoute routing core (cost array, two-bend locus
//!   routing, rip-up & re-route, quality metrics, wire assignment).
//! * [`mesh`] — CBS-style discrete-event 2-D mesh architecture simulator.
//! * [`msgpass`] — the message-passing LocusRoute implementation.
//! * [`shmem`] — the shared-memory implementation (traced emulator and
//!   real threaded executor).
//! * [`coherence`] — memory-system models over shared-data reference
//!   traces: the Write-Back-with-Invalidate bus, a write-through
//!   ablation, directory-based MSI, and a directoryless shared LLC,
//!   behind one [`MemoryModel`](locus_coherence::MemoryModel) registry.
//! * [`obs`] — unified observability: typed events, metrics registry,
//!   Chrome-trace / metrics-JSON / ASCII-timeline exporters.
//! * [`analysis`] — barrier-epoch race detection over coherence traces
//!   and benign/quality-affecting classification of the races found.
//! * [`service`] — the scoped-thread [`WorkerPool`](locus_service::WorkerPool)
//!   the experiment sweeps run their independent points on.
//! * [`engines`] — one table of plain functions, name → run, over every
//!   routing engine in the workspace, each returning an
//!   [`EngineRun`](locus_router::EngineRun).
//!
//! ## Quickstart
//!
//! ```
//! use locusroute::prelude::*;
//!
//! // Route the tiny demo circuit sequentially.
//! let circuit = locusroute::circuit::presets::tiny();
//! let outcome = SequentialRouter::new(&circuit, RouterParams::default()).run();
//! assert!(outcome.quality.circuit_height > 0);
//!
//! // Route it with the message-passing implementation on 4 simulated
//! // processors using sender-initiated updates every 2 wires.
//! let cfg = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 5));
//! let parallel = run_msgpass(&circuit, cfg);
//! assert!(!parallel.deadlocked);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod engines;

pub use locus_analysis as analysis;
pub use locus_circuit as circuit;
pub use locus_coherence as coherence;
pub use locus_mesh as mesh;
pub use locus_msgpass as msgpass;
pub use locus_obs as obs;
pub use locus_router as router;
pub use locus_service as service;
pub use locus_shmem as shmem;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use locus_circuit::{Circuit, CircuitGenerator, GeneratorConfig};
    pub use locus_coherence::traffic_by_line_size;
    pub use locus_mesh::FaultPlan;
    pub use locus_msgpass::{run_msgpass, MsgPassConfig, RecoveryConfig, UpdateSchedule};
    pub use locus_obs::SharedSink;
    pub use locus_router::{assign, AssignmentStrategy, RegionMap, RouterParams, SequentialRouter};
    pub use locus_service::WorkerPool;
    pub use locus_shmem::{ShmemConfig, ShmemEmulator, ThreadedRouter};

    pub use crate::engines::registry;
}

#[cfg(test)]
mod engine;
