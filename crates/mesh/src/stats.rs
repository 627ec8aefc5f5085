//! Network and timing statistics.

use crate::time::SimTime;

/// Aggregate statistics of a simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetStats {
    /// Packets injected into the network.
    pub packets: u64,
    /// Total payload bytes sent (the "MBytes Xfrd." metric of the
    /// paper's tables counts application bytes moved between processors).
    pub payload_bytes: u64,
    /// Total wire bytes (payload + framing).
    pub wire_bytes: u64,
    /// Σ over packets of `wire_bytes × hops` — channel occupancy.
    pub byte_hops: u64,
    /// Total time packets spent blocked on busy channels (contention).
    pub contention_ns: u64,
    /// Packets injected by each node (sums to `packets`).
    pub packets_by_node: Vec<u64>,
    /// Payload bytes injected by each node (sums to `payload_bytes`).
    pub payload_bytes_by_node: Vec<u64>,
    /// Per-node busy time (application work + send/receive overheads).
    pub busy_ns: Vec<u64>,
    /// Time each node finished (`Step::Done`).
    pub done_at: Vec<SimTime>,
    /// Completion time of the whole program: max over nodes of `done_at`,
    /// or, when the event limit cut the run off, the time of its last
    /// event if that is later.
    pub completion: SimTime,
    /// True if the run ended with nodes blocked forever (deadlock) or
    /// messages undeliverable.
    pub deadlocked: bool,
    /// True if the run was cut off by the kernel's event limit rather
    /// than a genuine deadlock (`deadlocked` is also set in that case;
    /// this flag tells the two apart).
    pub event_limit_hit: bool,
    /// Deliveries discarded by the fault layer (the injection itself is
    /// still counted in `packets`).
    pub packets_dropped: u64,
    /// Extra envelope copies injected by the fault layer (each copy is
    /// also counted in `packets` — it consumed real bandwidth).
    pub packets_duplicated: u64,
    /// Deliveries given extra latency by the fault layer.
    pub packets_delayed: u64,
    /// Deliveries held for overtaking by the fault layer.
    pub packets_reordered: u64,
    /// Node crashes injected by the node-fault layer (fail-stop and the
    /// down phase of fail-recover).
    pub node_crashes: u64,
    /// Crashed nodes that came back up.
    pub node_restarts: u64,
    /// Deliveries lost because an endpoint was down: inbound packets to
    /// a crashed node plus outbound packets a node had in flight when it
    /// crashed.
    pub packets_lost_to_crash: u64,
    /// Which nodes ended the run crashed (down and never restarted).
    pub crashed: Vec<bool>,
}

impl NetStats {
    /// Creates zeroed stats for `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        NetStats {
            packets_by_node: vec![0; n],
            payload_bytes_by_node: vec![0; n],
            busy_ns: vec![0; n],
            done_at: vec![SimTime::ZERO; n],
            crashed: vec![false; n],
            ..Default::default()
        }
    }

    /// Accounts one packet injected by `src`. All counters saturate: a
    /// pathological run must degrade the statistics, never wrap them
    /// into nonsense the downstream cross-checks would trip over.
    pub(crate) fn record_packet(&mut self, src: usize, payload: u64, wire: u64, hops: u64) {
        self.packets = self.packets.saturating_add(1);
        self.payload_bytes = self.payload_bytes.saturating_add(payload);
        self.wire_bytes = self.wire_bytes.saturating_add(wire);
        self.byte_hops = self.byte_hops.saturating_add(wire.saturating_mul(hops));
        self.packets_by_node[src] = self.packets_by_node[src].saturating_add(1);
        self.payload_bytes_by_node[src] = self.payload_bytes_by_node[src].saturating_add(payload);
    }

    /// Accounts channel-contention stall time (saturating).
    pub(crate) fn add_contention(&mut self, stall_ns: u64) {
        self.contention_ns = self.contention_ns.saturating_add(stall_ns);
    }

    /// Debug-asserts that the per-node breakdowns sum to the global
    /// totals — the invariant the observability cross-checks rely on.
    pub(crate) fn debug_assert_consistent(&self) {
        debug_assert_eq!(
            self.packets_by_node.iter().fold(0u64, |a, &b| a.saturating_add(b)),
            self.packets,
            "per-node packet counts must sum to the global total"
        );
        debug_assert_eq!(
            self.payload_bytes_by_node.iter().fold(0u64, |a, &b| a.saturating_add(b)),
            self.payload_bytes,
            "per-node payload bytes must sum to the global total"
        );
    }

    /// Total faults of all kinds injected by the fault layer.
    pub fn faults_injected(&self) -> u64 {
        self.packets_dropped
            .saturating_add(self.packets_duplicated)
            .saturating_add(self.packets_delayed)
            .saturating_add(self.packets_reordered)
    }

    /// Payload traffic in megabytes (10^6 bytes, as the paper reports).
    pub fn mbytes_transferred(&self) -> f64 {
        self.payload_bytes as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbytes_conversion() {
        let mut s = NetStats::new(2);
        s.payload_bytes = 1_400_000;
        assert!((s.mbytes_transferred() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn record_packet_keeps_per_node_and_global_in_sync() {
        let mut s = NetStats::new(3);
        s.record_packet(0, 40, 44, 2);
        s.record_packet(2, 10, 14, 1);
        s.record_packet(2, 6, 10, 3);
        assert_eq!(s.packets, 3);
        assert_eq!(s.payload_bytes, 56);
        assert_eq!(s.wire_bytes, 68);
        assert_eq!(s.byte_hops, 44 * 2 + 14 + 10 * 3);
        assert_eq!(s.packets_by_node, vec![1, 0, 2]);
        assert_eq!(s.payload_bytes_by_node, vec![40, 0, 16]);
        s.debug_assert_consistent();
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut s = NetStats::new(1);
        s.payload_bytes = u64::MAX - 1;
        s.payload_bytes_by_node[0] = u64::MAX - 1;
        s.record_packet(0, 100, 100, u64::MAX);
        assert_eq!(s.payload_bytes, u64::MAX);
        assert_eq!(s.payload_bytes_by_node[0], u64::MAX);
        assert_eq!(s.byte_hops, u64::MAX, "wire × hops must saturate");
        s.contention_ns = u64::MAX;
        s.add_contention(5);
        assert_eq!(s.contention_ns, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "per-node packet counts")]
    #[cfg(debug_assertions)]
    fn inconsistent_breakdown_is_caught() {
        let mut s = NetStats::new(2);
        s.record_packet(0, 1, 2, 1);
        s.packets_by_node[1] = 7;
        s.debug_assert_consistent();
    }
}
