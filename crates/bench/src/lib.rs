//! # locus-bench
//!
//! The experiment harness: one study per table/figure of Martonosi &
//! Gupta (ICPP 1989), returning each engine's own outcome keyed by its
//! sweep coordinate (`experiments`, `chaos`), and one pipeline that
//! turns any of them into what the `locus-experiments` CLI prints and
//! writes: [`catalog`] declares each experiment's columns once, reading
//! them off the outcomes, and [`report`] renders them as an aligned text
//! table and, through the workspace's one JSON writer, as a report file.
//!
//! Absolute values are not expected to match the 1989 testbed; the
//! *shape* of each result (orderings, ratios, crossovers) is the
//! reproduction target. `EXPERIMENTS.md` records paper-vs-measured values
//! for every experiment id.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod catalog;
mod chaos;
mod experiments;
#[cfg(test)]
mod harness;
pub mod report;

pub use experiments::{COMPARE_ENGINES, PAPER_PROCS};
/// The scoped-thread pool sweep points run on:
/// [`locus_service::WorkerPool`], under the name the experiments use.
pub use locus_service::WorkerPool as Harness;
