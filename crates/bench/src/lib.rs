//! # locus-bench
//!
//! The experiment harness for every table and figure of Martonosi &
//! Gupta (ICPP 1989): [`catalog`] holds one function per experiment id,
//! which runs its sweep and declares its table's columns once, and
//! [`report`] renders every table as aligned text and, through the
//! workspace's one JSON writer, as a report file.
//!
//! Absolute values are not expected to match the 1989 testbed; the
//! *shape* of each result (orderings, ratios, crossovers) is the
//! reproduction target. `EXPERIMENTS.md` records paper-vs-measured values
//! for every experiment id.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod catalog;
#[cfg(test)]
mod harness;
pub mod report;

pub use catalog::{COMPARE_ENGINES, PAPER_PROCS};
/// The scoped-thread pool sweep points run on:
/// [`locus_service::WorkerPool`], under the name the experiments use.
pub use locus_service::WorkerPool as Harness;
