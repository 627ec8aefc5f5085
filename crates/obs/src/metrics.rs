//! The metrics registry: named counters and log-scale histograms.
//!
//! Counter and histogram names are `&'static str` so registering is
//! allocation-free on the hot path after the first observation of each
//! name. The standard event-to-metric mapping lives in
//! `Metrics::observe`, so every sink that feeds a registry produces the
//! same counters — this is what lets obs counters cross-check exactly
//! against the engines' own `NetStats`/`PacketCounts` accounting.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

/// Well-known counter names produced by `Metrics::observe`.
pub mod names {
    /// Packets injected into the mesh.
    pub const PACKETS_SENT: &str = "packets_sent";
    /// Application payload bytes injected (matches `NetStats::payload_bytes`).
    pub const BYTES_SENT: &str = "bytes_sent";
    /// Payload plus framing bytes injected (matches `NetStats::wire_bytes`).
    pub const WIRE_BYTES_SENT: &str = "wire_bytes_sent";
    /// Packets delivered to their destination.
    pub const PACKETS_DELIVERED: &str = "packets_delivered";
    /// Payload bytes delivered.
    pub const BYTES_DELIVERED: &str = "bytes_delivered";
    /// Header stalls on busy channels.
    pub(crate) const CONTENTION_EVENTS: &str = "contention_events";
    /// Total stall time (matches `NetStats::contention_ns`).
    pub const CONTENTION_NS: &str = "contention_ns";
    /// Routes committed.
    pub const WIRES_ROUTED: &str = "wires_routed";
    /// Cells covered by committed routes.
    pub(crate) const ROUTE_CELLS: &str = "route_cells";
    /// Routes ripped up.
    pub const RIP_UPS: &str = "rip_ups";
    /// Cells uncovered by rip-ups.
    pub(crate) const RIPPED_CELLS: &str = "ripped_cells";
    /// Requests issued to memory-system service points (bus, directory
    /// home nodes, LLC home tiles).
    pub const MEM_REQUESTS: &str = "mem_requests";
    /// Memory-system requests flagged critical (rip-up/commit stores).
    pub const MEM_CRITICAL_REQUESTS: &str = "mem_critical_requests";
    /// Payload bytes moved by memory-system requests.
    pub(crate) const MEM_REQUEST_BYTES: &str = "mem_request_bytes";
    /// Phases begun.
    pub const PHASES_BEGUN: &str = "phases_begun";
    /// Phases ended.
    pub const PHASES_ENDED: &str = "phases_ended";
    /// Candidate routes examined by the evaluation kernel.
    pub(crate) const KERNEL_CANDIDATES: &str = "kernel_candidates";
    /// Route evaluations that took the per-cell span fallback.
    pub(crate) const PERCELL_EVALS: &str = "percell_evals";
    /// Replica-vs-truth audits performed by message-passing nodes.
    pub(crate) const REPLICA_AUDITS: &str = "replica_audits";
    /// Diverged replica cells summed across audits.
    pub(crate) const STALE_CELLS: &str = "stale_cells";
    /// Faults of any kind injected by the mesh fault layer.
    pub const FAULTS_INJECTED: &str = "faults_injected";
    /// Deliveries silently discarded (matches `NetStats::packets_dropped`).
    pub const PACKETS_DROPPED: &str = "packets_dropped";
    /// Extra envelope copies injected (matches `NetStats::packets_duplicated`).
    pub const PACKETS_DUPLICATED: &str = "packets_duplicated";
    /// Deliveries pushed back by injected latency.
    pub(crate) const PACKETS_DELAYED: &str = "packets_delayed";
    /// Deliveries held long enough to be overtaken.
    pub(crate) const PACKETS_REORDERED: &str = "packets_reordered";
    /// Frames re-sent by the reliability layer.
    pub const PACKETS_RETRANSMITTED: &str = "packets_retransmitted";
    /// Cumulative acknowledgements sent by the reliability layer.
    pub const ACKS_SENT: &str = "acks_sent";
    /// Wires the watchdog routed locally after a degraded network run.
    pub const WATCHDOG_RECOVERIES: &str = "watchdog_recoveries";
    /// Node crashes injected by the node-fault layer (matches
    /// `NetStats::node_crashes`).
    pub const NODE_CRASHES: &str = "node_crashes";
    /// Crashed nodes that came back up (matches `NetStats::node_restarts`).
    pub const NODE_RESTARTS: &str = "node_restarts";
    /// Checkpoints taken by message-passing nodes.
    pub const CHECKPOINTS_TAKEN: &str = "checkpoints_taken";
    /// Serialized checkpoint bytes charged to the network.
    pub const CHECKPOINT_BYTES: &str = "checkpoint_bytes";
    /// Wires reassigned from dead nodes to live adopters.
    pub const WIRES_REASSIGNED: &str = "wires_reassigned";
    /// Coordinator failovers (a worker assumed coordinator duty).
    pub const COORDINATOR_FAILOVERS: &str = "coordinator_failovers";
}

/// Well-known histogram names produced by `Metrics::observe`.
pub mod hists {
    /// Payload size of sent packets (bytes).
    pub(crate) const PACKET_SIZE: &str = "packet_size_bytes";
    /// Mesh distance of sent packets (hops).
    pub(crate) const HOP_DISTANCE: &str = "hop_distance";
    /// Injection-to-arrival latency of delivered packets (ns).
    pub(crate) const LATENCY_NS: &str = "latency_ns";
    /// Receiver inbox depth at delivery.
    pub(crate) const QUEUE_DEPTH: &str = "queue_depth";
    /// Channel stall durations (ns).
    pub(crate) const STALL_NS: &str = "stall_ns";
    /// Cells per committed route.
    pub(crate) const ROUTE_CELLS: &str = "route_cells";
    /// Diverged cells per replica audit.
    pub(crate) const STALE_CELLS: &str = "stale_cells";
    /// Mean staleness age per replica audit (ns).
    pub(crate) const STALE_AGE_NS: &str = "stale_age_ns";
    /// Payload bytes per memory-system request.
    pub(crate) const MEM_REQUEST_BYTES: &str = "mem_request_bytes";
}

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

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if anything was recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Records `value` into histogram `name`.
    #[inline]
    pub(crate) fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Applies the standard event-to-metric mapping for `event`.
    pub(crate) fn observe(&mut self, event: &Event) {
        match event.kind {
            EventKind::PacketSent { payload_bytes, wire_bytes, hops, .. } => {
                self.add(names::PACKETS_SENT, 1);
                self.add(names::BYTES_SENT, payload_bytes as u64);
                self.add(names::WIRE_BYTES_SENT, wire_bytes as u64);
                self.record(hists::PACKET_SIZE, payload_bytes as u64);
                self.record(hists::HOP_DISTANCE, hops as u64);
            }
            EventKind::PacketDelivered { payload_bytes, latency_ns, queue_depth, .. } => {
                self.add(names::PACKETS_DELIVERED, 1);
                self.add(names::BYTES_DELIVERED, payload_bytes as u64);
                self.record(hists::LATENCY_NS, latency_ns);
                self.record(hists::QUEUE_DEPTH, queue_depth as u64);
            }
            EventKind::ChannelContended { stall_ns, .. } => {
                self.add(names::CONTENTION_EVENTS, 1);
                self.add(names::CONTENTION_NS, stall_ns);
                self.record(hists::STALL_NS, stall_ns);
            }
            EventKind::WireRouted { cells, .. } => {
                self.add(names::WIRES_ROUTED, 1);
                self.add(names::ROUTE_CELLS, cells as u64);
                self.record(hists::ROUTE_CELLS, cells as u64);
            }
            EventKind::RipUp { cells, .. } => {
                self.add(names::RIP_UPS, 1);
                self.add(names::RIPPED_CELLS, cells as u64);
            }
            EventKind::MemRequest { bytes, critical, .. } => {
                self.add(names::MEM_REQUESTS, 1);
                if critical {
                    self.add(names::MEM_CRITICAL_REQUESTS, 1);
                }
                self.add(names::MEM_REQUEST_BYTES, bytes as u64);
                self.record(hists::MEM_REQUEST_BYTES, bytes as u64);
            }
            EventKind::PhaseBegin { .. } => self.add(names::PHASES_BEGUN, 1),
            EventKind::PhaseEnd { .. } => self.add(names::PHASES_ENDED, 1),
            EventKind::KernelStats { candidates, percell_evals } => {
                self.add(names::KERNEL_CANDIDATES, candidates);
                self.add(names::PERCELL_EVALS, percell_evals);
            }
            EventKind::ReplicaAudit { diverged_cells, mean_age_ns, .. } => {
                self.add(names::REPLICA_AUDITS, 1);
                self.add(names::STALE_CELLS, diverged_cells as u64);
                self.record(hists::STALE_CELLS, diverged_cells as u64);
                self.record(hists::STALE_AGE_NS, mean_age_ns);
            }
            EventKind::FaultInjected { fault, .. } => {
                self.add(names::FAULTS_INJECTED, 1);
                self.add(
                    match fault {
                        crate::event::FaultKind::Drop => names::PACKETS_DROPPED,
                        crate::event::FaultKind::Duplicate => names::PACKETS_DUPLICATED,
                        crate::event::FaultKind::Delay => names::PACKETS_DELAYED,
                        crate::event::FaultKind::Reorder => names::PACKETS_REORDERED,
                    },
                    1,
                );
            }
            EventKind::PacketRetransmitted { .. } => {
                self.add(names::PACKETS_RETRANSMITTED, 1);
            }
            EventKind::AckSent { .. } => {
                self.add(names::ACKS_SENT, 1);
            }
            EventKind::WatchdogRecovery { .. } => {
                self.add(names::WATCHDOG_RECOVERIES, 1);
            }
            EventKind::NodeCrashed { .. } => {
                self.add(names::NODE_CRASHES, 1);
            }
            EventKind::NodeRestarted { .. } => {
                self.add(names::NODE_RESTARTS, 1);
            }
            EventKind::CheckpointTaken { bytes } => {
                self.add(names::CHECKPOINTS_TAKEN, 1);
                self.add(names::CHECKPOINT_BYTES, bytes as u64);
            }
            EventKind::WireReassigned { .. } => {
                self.add(names::WIRES_REASSIGNED, 1);
            }
            EventKind::CoordinatorFailover { .. } => {
                self.add(names::COORDINATOR_FAILOVERS, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        m.add("x", u64::MAX);
        m.add("x", 10);
        assert_eq!(m.counter("x"), u64::MAX);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn observe_maps_packet_events_to_byte_counters() {
        let mut m = Metrics::new();
        let ev = Event {
            at_ns: 10,
            node: 1,
            kind: EventKind::PacketSent { dst: 2, payload_bytes: 40, wire_bytes: 44, hops: 3 },
        };
        m.observe(&ev);
        m.observe(&ev);
        assert_eq!(m.counter(names::PACKETS_SENT), 2);
        assert_eq!(m.counter(names::BYTES_SENT), 80);
        assert_eq!(m.counter(names::WIRE_BYTES_SENT), 88);
        assert_eq!(m.histograms[hists::HOP_DISTANCE].count(), 2);
    }

    #[test]
    fn observe_moves_a_counter_for_every_kind() {
        for kind in crate::event::tests::all_kinds() {
            let mut m = Metrics::new();
            m.observe(&Event { at_ns: 1, node: 0, kind });
            assert!(m.counters.values().any(|&v| v > 0), "{kind:?} counts nothing");
        }
    }

    #[test]
    fn observe_maps_analysis_events() {
        let mut m = Metrics::new();
        m.observe(&Event {
            at_ns: 5,
            node: 1,
            kind: EventKind::ReplicaAudit { diverged_cells: 7, max_divergence: 3, mean_age_ns: 40 },
        });
        assert_eq!(m.counter(names::REPLICA_AUDITS), 1);
        assert_eq!(m.counter(names::STALE_CELLS), 7);
        assert_eq!(m.histograms[hists::STALE_AGE_NS].sum(), 40);
    }
}
