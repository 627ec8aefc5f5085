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

    /// Checks that the mesh has at least one node, that its node count
    /// fits a `u32` (the kernel's queue keys name nodes in 32 bits), and
    /// that the fault plan is valid and faults only nodes that exist.
    pub fn validate(&self) -> Result<(), String> {
        let (rows, cols) = (self.rows, self.cols);
        if rows == 0 || cols == 0 {
            return Err(format!("MeshConfig::rows × cols = {rows} × {cols} has no node"));
        }
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("MeshConfig::rows × cols = {rows} × {cols} overflows"))?;
        if u32::try_from(n).is_err() {
            return Err(format!(
                "MeshConfig::rows × cols = {rows} × {cols} = {n} nodes exceeds u32::MAX"
            ));
        }
        self.faults.validate().map_err(|msg| format!("MeshConfig::faults: {msg}"))?;
        let nodes = self.faults.node_faults().map(|(node, _)| node);
        if let Some(node) = nodes.filter(|&node| node as usize >= n).max() {
            return Err(format!(
                "MeshConfig::faults: a node fault targets node {node}, but the mesh has {n} nodes"
            ));
        }
        Ok(())
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
    fn validate_names_each_invalid_mesh() {
        use crate::fault::{FaultPlan, NodeFault};
        let ok = MeshConfig::ametek(4, 4);
        assert_eq!(ok.validate(), Ok(()));
        assert_eq!(MeshConfig::ametek(1, u32::MAX as usize).validate(), Ok(()));
        let crash = |node| FaultPlan::none().with_node_fault(node, NodeFault::Crash { at_ns: 0 });
        assert_eq!(MeshConfig { faults: crash(15), ..ok }.validate(), Ok(()));
        for (mesh, says) in [
            (MeshConfig::ametek(0, 4), "0 × 4 has no node"),
            (MeshConfig::ametek(4, 0), "4 × 0 has no node"),
            (MeshConfig::ametek(usize::MAX, 2), "overflows"),
            (MeshConfig::ametek(1 << 16, 1 << 16), "4294967296 nodes exceeds u32::MAX"),
            (
                MeshConfig { faults: FaultPlan::uniform_loss(1, 10_001), ..ok },
                "faults: FaultPlan::drop_bp",
            ),
            (MeshConfig { faults: crash(16), ..ok }, "targets node 16, but the mesh has 16 nodes"),
        ] {
            let err = mesh.validate().expect_err(says);
            assert!(err.contains(says), "{err}");
        }
    }

    #[test]
    fn latency_law() {
        let c = MeshConfig::ametek(4, 4);
        // 2*2000 + 100*(D + L), L includes 8 framing bytes.
        assert_eq!(c.uncontended_latency_ns(3, 12), 4000 + 100 * (3 + 20));
        assert_eq!(c.uncontended_latency_ns(0, 0), 4000 + 100 * 8);
    }
}
