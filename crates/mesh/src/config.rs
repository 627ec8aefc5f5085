//! Mesh machine configuration.

use crate::fault::FaultPlan;

/// Parameters of the simulated machine.
///
/// Defaults follow the paper's CBS setup (§2.1): one-byte-wide channels,
/// `HopTime = 100 ns`, `ProcessTime = 2000 ns` (Ametek Series 2010), a
/// two-dimensional mesh, and contention modelling enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshConfig {
    /// Processor-mesh rows.
    pub rows: usize,
    /// Processor-mesh columns.
    pub cols: usize,
    /// Time for one byte to travel one hop (ns).
    pub hop_time_ns: u64,
    /// Time for an entire message to be copied between a processor node
    /// and the network (ns); paid once at each end.
    pub process_time_ns: u64,
    /// Extra bytes added to every packet for header/envelope (route,
    /// type, bounding-box coordinates are accounted by the application;
    /// this is the transport-level framing).
    pub header_bytes: u32,
    /// Per-byte cost of disassembling a received packet into application
    /// state (ns/byte), charged to the receiving node's busy time. The
    /// paper notes packet assembly/disassembly reaches a quarter of
    /// processing time at high update rates.
    pub recv_per_byte_ns: u64,
    /// Whether channel contention is modelled (CBS models it; turning it
    /// off recovers the pure latency law and is used in tests/ablations).
    pub contention: bool,
    /// Deterministic fault schedule ([`FaultPlan::none`] by default; an
    /// idle plan costs nothing — the kernel builds no injector for it).
    pub faults: FaultPlan,
}

impl MeshConfig {
    /// The paper's machine for `rows × cols` processors.
    pub fn ametek(rows: usize, cols: usize) -> Self {
        MeshConfig {
            rows,
            cols,
            hop_time_ns: 100,
            process_time_ns: 2000,
            header_bytes: 8,
            recv_per_byte_ns: 20,
            contention: true,
            faults: FaultPlan::none(),
        }
    }

    /// Number of processors.
    pub fn n_nodes(&self) -> usize {
        self.rows * self.cols
    }

    /// Uncontended end-to-end latency of an `l`-byte payload over `d`
    /// hops: `2·ProcessTime + HopTime·(D + L)` with framing included.
    pub fn uncontended_latency_ns(&self, d: u32, payload_bytes: u32) -> u64 {
        let l = (payload_bytes + self.header_bytes) as u64;
        2 * self.process_time_ns + self.hop_time_ns * (d as u64 + l)
    }

    /// Returns `self` with contention disabled.
    pub fn without_contention(mut self) -> Self {
        self.contention = false;
        self
    }
}

impl Default for MeshConfig {
    /// The paper's default evaluation machine: 16 processors, 4×4.
    fn default() -> Self {
        MeshConfig::ametek(4, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MeshConfig::default();
        assert_eq!(c.n_nodes(), 16);
        assert_eq!(c.hop_time_ns, 100);
        assert_eq!(c.process_time_ns, 2000);
        assert!(c.contention);
    }

    #[test]
    fn latency_law() {
        let c = MeshConfig::ametek(4, 4);
        // 2*2000 + 100*(D + L), L includes 8 framing bytes.
        assert_eq!(c.uncontended_latency_ns(3, 12), 4000 + 100 * (3 + 20));
        assert_eq!(c.uncontended_latency_ns(0, 0), 4000 + 100 * 8);
    }
}
