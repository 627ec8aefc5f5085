//! # locus-service
//!
//! The scoped-thread [`WorkerPool`] the experiment sweeps of
//! `locus-bench` run their independent points on (as `Harness`):
//! parallelism across runs, never inside one.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

mod pool;

pub use pool::WorkerPool;
