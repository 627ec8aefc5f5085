//! The metrics registry: named counters and log-scale histograms.
//!
//! Counter and histogram names are `&'static str` so registering is
//! allocation-free on the hot path after the first observation of each
//! name. Which counters and histograms an event feeds is its kind's row
//! of the table in `export` (the only names there are), so every sink
//! that feeds a registry produces the same counters — this is what lets
//! obs counters cross-check exactly against the engines' own
//! `NetStats`/`PacketCounts` accounting.

use std::collections::BTreeMap;

use crate::export::{COUNTERS, HISTOGRAMS};

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, and `u64::MAX` lands in bucket 64.
pub(crate) const N_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; N_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// The bucket index of `v`: 0 for 0, otherwise `⌊log₂ v⌋ + 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The smallest value bucket `i` can hold.
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// The largest value bucket `i` can hold.
pub fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub(crate) fn buckets(&self) -> &[u64; N_BUCKETS] {
        &self.buckets
    }

    /// Upper bound of the bucket where the cumulative count reaches
    /// `q · count` — a log₂-resolution quantile estimate. Returns 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let target = target.max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_hi(i).min(self.max);
            }
        }
        self.max
    }
}

/// A registry of named counters and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to the counter `name` (saturating).
    #[inline]
    pub(crate) fn add(&mut self, name: &'static str, delta: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Current value of counter `name` (0 until an event moves it).
    ///
    /// # Panics
    /// Panics if no event kind declares a counter `name`, so a misspelled
    /// name fails instead of reading 0.
    pub fn counter(&self, name: &str) -> u64 {
        assert!(COUNTERS.contains(&name), "no event kind counts {name:?}");
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if anything was recorded into it.
    ///
    /// # Panics
    /// Panics if no event kind declares a histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        assert!(HISTOGRAMS.contains(&name), "no event kind records {name:?}");
        self.histograms.get(name)
    }

    /// Records `value` into histogram `name`.
    #[inline]
    pub(crate) fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        assert_eq!((bucket_lo(0), bucket_hi(0)), (0, 0));
        assert_eq!((bucket_lo(1), bucket_hi(1)), (1, 1));
        assert_eq!((bucket_lo(2), bucket_hi(2)), (2, 3));
        assert_eq!((bucket_lo(10), bucket_hi(10)), (512, 1023));
        assert_eq!(bucket_hi(64), u64::MAX);
        for i in 1..64 {
            assert_eq!(bucket_lo(i + 1), bucket_hi(i) + 1, "gap after bucket {i}");
        }
        // Every value lands inside its bucket's bounds.
        for v in [0u64, 1, 2, 3, 5, 100, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v && v <= bucket_hi(i), "value {v} bucket {i}");
        }
    }

    #[test]
    fn histogram_tracks_summary_stats() {
        let mut h = Histogram::default();
        assert_eq!(h.min(), None);
        for v in [3u64, 9, 0, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1012);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean() - 253.0).abs() < 1e-9);
        assert_eq!(h.buckets()[bucket_index(0)], 1);
        assert_eq!(h.buckets()[bucket_index(3)], 1);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = Histogram::default();
        for v in 0..100u64 {
            h.record(v);
        }
        assert!(h.quantile(0.5) <= h.quantile(0.9));
        assert!(h.quantile(0.9) <= h.quantile(1.0));
        assert_eq!(h.quantile(1.0), 99);
        // p50 of 0..100 lies in the bucket containing ~50.
        let p50 = h.quantile(0.5);
        assert!((32..=127).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn counters_saturate() {
        let mut m = Metrics::new();
        m.add("bytes_sent", u64::MAX);
        m.add("bytes_sent", 10);
        assert_eq!(m.counter("bytes_sent"), u64::MAX);
        assert_eq!(m.counter("bytes_delivered"), 0);
    }

    #[test]
    #[should_panic(expected = "no event kind counts \"byte_sent\"")]
    fn a_counter_no_kind_declares_is_a_panic() {
        Metrics::new().counter("byte_sent");
    }

    #[test]
    #[should_panic(expected = "no event kind records \"latency\"")]
    fn a_histogram_no_kind_declares_is_a_panic() {
        Metrics::new().histogram("latency");
    }

    fn counted(events: &[EventKind]) -> Metrics {
        let mut m = Metrics::new();
        events.iter().for_each(|kind| crate::export::count(kind, &mut m));
        m
    }

    #[test]
    fn observe_maps_packet_events_to_byte_counters() {
        let sent = EventKind::PacketSent { dst: 2, payload_bytes: 40, wire_bytes: 44, hops: 3 };
        let m = counted(&[sent, sent]);
        assert_eq!(m.counter("packets_sent"), 2);
        assert_eq!(m.counter("bytes_sent"), 80);
        assert_eq!(m.counter("wire_bytes_sent"), 88);
        assert_eq!(m.histogram("hop_distance").map(Histogram::count), Some(2));
        assert_eq!(m.histogram("latency_ns"), None, "declared, but nothing recorded");
    }

    #[test]
    fn observe_moves_a_counter_for_every_kind() {
        for kind in crate::event::tests::all_kinds() {
            let m = counted(&[kind]);
            assert!(m.counters.values().any(|&v| v > 0), "{kind:?} counts nothing");
            assert!(m.counters.keys().all(|n| COUNTERS.contains(n)));
            assert!(m.histograms.keys().all(|n| HISTOGRAMS.contains(n)));
        }
    }

    #[test]
    fn observe_maps_analysis_events() {
        let m = counted(&[
            EventKind::ReplicaAudit { diverged_cells: 7, max_divergence: 3, mean_age_ns: 40 },
            EventKind::ReplicaAudit { diverged_cells: 0, max_divergence: 0, mean_age_ns: 0 },
        ]);
        assert_eq!(m.counter("replica_audits"), 2);
        assert_eq!(m.counter("stale_cells"), 7);
        assert_eq!(m.histogram("stale_age_ns").map(Histogram::sum), Some(40));
    }

    #[test]
    fn a_bool_counts_only_the_events_where_it_holds() {
        use crate::event::FaultKind;
        let mem = |critical| EventKind::MemRequest { resource: 0, bytes: 8, critical };
        let m = counted(&[mem(false)]);
        assert_eq!(m.counter("mem_requests"), 1);
        assert!(!m.counters.contains_key("mem_critical_requests"), "untouched, not exported");
        let fault =
            |fault| EventKind::FaultInjected { dst: 1, payload_bytes: 8, fault, extra_ns: 0 };
        let m = counted(&[mem(true), mem(false), fault(FaultKind::Drop), fault(FaultKind::Drop)]);
        assert_eq!(m.counter("mem_critical_requests"), 1);
        assert_eq!(m.counter("faults_injected"), 2);
        assert_eq!(m.counter("packets_dropped"), 2);
        let moved: Vec<&str> = m.counters.keys().copied().collect();
        assert_eq!(
            moved,
            [
                "faults_injected",
                "mem_critical_requests",
                "mem_request_bytes",
                "mem_requests",
                "packets_dropped"
            ]
        );
    }
}
