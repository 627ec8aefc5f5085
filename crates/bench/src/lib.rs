//! # locus-bench
//!
//! The experiment harness: one function per table/figure of Martonosi &
//! Gupta (ICPP 1989) producing typed rows ([`experiments`], [`chaos`],
//! [`serve`]), and one pipeline that turns any of them into what the
//! `locus-experiments` CLI prints and writes: [`catalog`] declares each
//! experiment's columns once, [`report`] renders them as an aligned text
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
pub mod chaos;
pub mod experiments;
pub mod report;
pub mod serve;

pub use experiments::{
    blocking_study, compare_paradigms, table1, table4, table6, COMPARE_ENGINES, PAPER_PROCS,
};
/// The scoped-thread pool sweep points run on: the job server's
/// [`locus_service::WorkerPool`], under the name the experiments use.
pub use locus_service::WorkerPool as Harness;
