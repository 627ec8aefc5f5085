//! Trace analyses: the line-size sweep of Table 3, for the paper's WBI
//! bus and for any registered memory backend.

use locus_obs::Obs;

use crate::model::{build_memory_model, Backend, MemoryConfig, MemoryOutcome, RunAcc};
use crate::protocol::TrafficStats;
use crate::trace::Trace;

/// Runs the WBI protocol over `trace` once per line size and returns
/// `(line_size, stats)` pairs — the rows of Table 3.
///
/// This is the paper's original sweep, pinned to the snooped WBI bus; it
/// replays through the same loop as `bus-wbi` but prices nothing, so it
/// keeps no request log. [`traffic_by_backend`] generalizes it to any
/// registered backend with identical stats for `bus-wbi`.
///
/// # Panics
/// Panics if a line size is not a nonzero power of two, or if a reference
/// names processor 64 or above (the holder bitmask has 64 bits).
pub fn traffic_by_line_size(trace: &Trace, line_sizes: &[u32]) -> Vec<(u32, TrafficStats)> {
    let off = Obs::off();
    line_sizes
        .iter()
        .map(|&ls| {
            let bus = Backend::bus_wbi(MemoryConfig::paper(1, ls));
            (ls, RunAcc::new(&bus, &off).replay(trace, |_, _, _, _, _| {}))
        })
        .collect()
}

/// Runs the registered backend `backend` over `trace` once per line size
/// and returns `(line_size, outcome)` rows — Table 3 generalized to any
/// memory system. The processor count is taken from the trace (largest
/// referencing processor + 1), so identical traces are priced over
/// identical machines regardless of backend.
///
/// Returns an error naming the known backends when `backend` is not
/// registered, and `MemoryConfig::validate`'s error when the backend
/// cannot price the machine: a line size that is not a power of two, or a
/// trace naming more processors than the backend can tell apart.
pub fn traffic_by_backend(
    backend: &str,
    trace: &Trace,
    line_sizes: &[u32],
) -> Result<Vec<(u32, MemoryOutcome)>, String> {
    // Read from the burst headers. Processor u32::MAX saturates to a count
    // that every backend rejects.
    let n_procs =
        trace.burst_counts().map(|(proc, ..)| proc).max().map_or(1, |p| p.saturating_add(1));
    line_sizes
        .iter()
        .map(|&ls| {
            let model = build_memory_model(backend, MemoryConfig::paper(n_procs, ls))?;
            Ok((ls, model.run(trace)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MemRef, RefKind};

    /// A churn-heavy trace: several processors repeatedly read a region
    /// that one processor keeps writing — the access pattern of the
    /// unlocked shared cost array.
    fn churn_trace() -> Trace {
        let mut t = Trace::new();
        let mut time = 0u64;
        for round in 0..30u32 {
            for p in 0..4u32 {
                for cell in 0..32u32 {
                    t.push(MemRef::new(time, p, cell * 2, RefKind::Read));
                    time += 1;
                }
            }
            // The "winning" processor updates a few cells.
            for i in 0..6u32 {
                t.push(MemRef::new(time, round % 4, ((round * 5 + i) % 32) * 2, RefKind::Write));
                time += 1;
            }
        }
        t
    }

    #[test]
    fn traffic_increases_with_line_size() {
        // Table 3's headline effect: bigger lines, more bytes.
        let trace = churn_trace();
        let rows = traffic_by_line_size(&trace, &[4, 8, 16, 32]);
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(
                w[1].1.total_bytes > w[0].1.total_bytes,
                "line {} -> {} bytes, line {} -> {} bytes",
                w[0].0,
                w[0].1.total_bytes,
                w[1].0,
                w[1].1.total_bytes
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let trace = churn_trace();
        let a = traffic_by_line_size(&trace, &[4, 32]);
        let b = traffic_by_line_size(&trace, &[4, 32]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_yields_zero_traffic() {
        let rows = traffic_by_line_size(&Trace::new(), &[4, 8]);
        for (_, stats) in rows {
            assert_eq!(stats.total_bytes, 0);
        }
    }

    #[test]
    fn backend_sweep_on_bus_wbi_matches_the_legacy_sweep() {
        let trace = churn_trace();
        let legacy = traffic_by_line_size(&trace, &[4, 8, 16, 32]);
        let general = traffic_by_backend("bus-wbi", &trace, &[4, 8, 16, 32]).expect("registered");
        assert_eq!(legacy.len(), general.len());
        for ((ls_a, stats), (ls_b, outcome)) in legacy.iter().zip(general.iter()) {
            assert_eq!(ls_a, ls_b);
            assert_eq!(*stats, outcome.stats, "line {ls_a}");
        }
    }

    #[test]
    fn backend_sweep_rejects_unknown_backends() {
        assert!(traffic_by_backend("nope", &churn_trace(), &[8]).is_err());
    }

    #[test]
    fn dls_rows_are_flat_across_line_sizes() {
        let rows = traffic_by_backend("dls", &churn_trace(), &[4, 8, 16, 32]).expect("registered");
        for w in rows.windows(2) {
            assert_eq!(w[0].1.stats.total_bytes, w[1].1.stats.total_bytes);
        }
    }
}
