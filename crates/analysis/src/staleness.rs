//! Replica-staleness aggregation for the message-passing router.
//!
//! Every processor in the message-passing implementation routes against
//! a *replica* of the cost array that is only reconciled by explicit
//! update packets (§4.3) — staleness is the design's whole bargain.
//! With [`locus_msgpass::MsgPassConfig::with_audit_every`] set, each
//! node periodically diffs its replica against the ground-truth array
//! and records a [`ReplicaSnapshot`]. This module folds those snapshots
//! into the "cells × age" staleness summary the analysis report and the
//! `analyze` subcommand print: how many cells were stale, by how much,
//! and for how long.

use locus_msgpass::ReplicaSnapshot;
use locus_obs::Histogram;

/// Aggregated staleness over all audits of one run.
#[derive(Debug)]
pub struct StalenessReport {
    /// Snapshots folded in.
    pub audits: usize,
    /// Distinct auditing processors.
    pub procs: usize,
    /// Largest diverged-cell count any single audit saw.
    pub max_diverged_cells: u32,
    /// Mean diverged-cell count per audit.
    pub mean_diverged_cells: f64,
    /// Largest absolute per-cell divergence seen anywhere.
    pub max_abs_divergence: u32,
    /// Sum of absolute divergences over all audits (the "cells ×
    /// magnitude" integral).
    pub total_abs_divergence: u64,
    /// Largest per-audit mean stale-cell age (ns).
    pub max_mean_age_ns: u64,
    /// Log₂ histogram of diverged-cell counts per audit.
    pub cells_hist: Histogram,
    /// Log₂ histogram of per-audit mean stale-cell age (ns).
    pub age_hist: Histogram,
}

impl StalenessReport {
    /// Folds `audits` (as produced on
    /// [`locus_msgpass::MsgPassOutcome::replica_audits`]) into a report.
    pub(crate) fn build(audits: &[ReplicaSnapshot]) -> Self {
        let mut cells_hist = Histogram::default();
        let mut age_hist = Histogram::default();
        let mut procs: Vec<usize> = Vec::new();
        let mut max_diverged_cells = 0u32;
        let mut max_abs_divergence = 0u32;
        let mut total_abs_divergence = 0u64;
        let mut total_diverged = 0u64;
        let mut max_mean_age_ns = 0u64;
        for s in audits {
            cells_hist.record(s.diverged_cells as u64);
            age_hist.record(s.mean_age_ns());
            if !procs.contains(&s.proc) {
                procs.push(s.proc);
            }
            max_diverged_cells = max_diverged_cells.max(s.diverged_cells);
            max_abs_divergence = max_abs_divergence.max(s.max_abs_divergence);
            total_abs_divergence += s.total_abs_divergence;
            total_diverged += s.diverged_cells as u64;
            max_mean_age_ns = max_mean_age_ns.max(s.mean_age_ns());
        }
        StalenessReport {
            audits: audits.len(),
            procs: procs.len(),
            max_diverged_cells,
            mean_diverged_cells: if audits.is_empty() {
                0.0
            } else {
                total_diverged as f64 / audits.len() as f64
            },
            max_abs_divergence,
            total_abs_divergence,
            max_mean_age_ns,
            cells_hist,
            age_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(proc: usize, diverged: u32, max_div: u32, total: u64, age_sum: u64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            proc,
            at_ns: 1_000 * proc as u64,
            wires_routed: 4,
            diverged_cells: diverged,
            total_abs_divergence: total,
            max_abs_divergence: max_div,
            stale_age_sum_ns: age_sum,
        }
    }

    #[test]
    fn empty_audit_set_folds_to_zeros() {
        let r = StalenessReport::build(&[]);
        assert_eq!(r.audits, 0);
        assert_eq!(r.procs, 0);
        assert_eq!(r.mean_diverged_cells, 0.0);
        assert_eq!((r.cells_hist.quantile(0.99), r.age_hist.quantile(0.5)), (0, 0));
    }

    #[test]
    fn aggregates_cover_all_snapshots() {
        let audits = [snap(0, 10, 2, 14, 5_000), snap(1, 4, 1, 4, 800), snap(0, 0, 0, 0, 0)];
        let r = StalenessReport::build(&audits);
        assert_eq!(r.audits, 3);
        assert_eq!(r.procs, 2);
        assert_eq!(r.max_diverged_cells, 10);
        assert_eq!(r.max_abs_divergence, 2);
        assert_eq!(r.total_abs_divergence, 18);
        assert!((r.mean_diverged_cells - 14.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.cells_hist.count(), 3);
        // snap(0,..) has mean age 500 ns; snap(1,..) 200 ns.
        assert_eq!(r.max_mean_age_ns, 500);
    }
}
