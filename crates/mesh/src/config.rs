//! Mesh machine configuration.

use crate::fault::FaultPlan;
use crate::kernel::{HEADER_BYTES, HOP_TIME_NS, PROCESS_TIME_NS};

/// Parameters of the simulated machine.
///
/// The machine is the paper's CBS setup (§2.1): one-byte-wide channels on
/// a two-dimensional mesh of Ametek Series 2010 nodes, whose timings are
/// the kernel's constants ([`HOP_TIME_NS`], [`PROCESS_TIME_NS`],
/// [`HEADER_BYTES`], [`RECV_PER_BYTE_NS`](crate::kernel::RECV_PER_BYTE_NS)),
/// with contention modelling enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshConfig {
    /// Processor-mesh rows.
    pub rows: usize,
    /// Processor-mesh columns.
    pub cols: usize,
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
        MeshConfig { rows, cols, contention: true, faults: FaultPlan::none() }
    }

    /// Number of processors.
    pub fn n_nodes(&self) -> usize {
        self.rows * self.cols
    }

    /// Uncontended end-to-end latency of an `l`-byte payload over `d`
    /// hops: `2·ProcessTime + HopTime·(D + L)` with framing included.
    pub fn uncontended_latency_ns(&self, d: u32, payload_bytes: u32) -> u64 {
        let l = (payload_bytes + HEADER_BYTES) as u64;
        2 * PROCESS_TIME_NS + HOP_TIME_NS * (d as u64 + l)
    }

    /// Returns `self` with contention disabled.
    pub fn without_contention(mut self) -> Self {
        self.contention = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MeshConfig::ametek(4, 4);
        assert_eq!(c.n_nodes(), 16);
        assert_eq!(HOP_TIME_NS, 100);
        assert_eq!(PROCESS_TIME_NS, 2000);
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
