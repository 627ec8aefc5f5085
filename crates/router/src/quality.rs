//! Solution-quality measures (paper §3).
//!
//! * **Circuit height**: for each channel, the number of routing tracks it
//!   requires is the maximum number of wires running through it at any
//!   point; circuit height is the sum over channels. Proportional to
//!   circuit area — lower is better.
//! * **Occupancy factor**: the sum, over all wires, of the chosen path's
//!   cost at the moment the wire was routed. Captures how congested the
//!   chosen paths looked when they were picked — lower is better.

use crate::cost_array::CostArray;

/// The two quality measures reported throughout the paper's tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct QualityMetrics {
    /// Total routing tracks over all channels (lower = smaller circuit).
    pub circuit_height: u64,
    /// Sum of path costs at routing time over the final iteration.
    pub occupancy_factor: u64,
}

impl QualityMetrics {
    /// Builds metrics from the final cost array and the accumulated
    /// occupancy of the last routing iteration.
    pub fn from_final_state(cost: &CostArray, occupancy_factor: u64) -> Self {
        QualityMetrics { circuit_height: cost.circuit_height(), occupancy_factor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::GridCell;

    #[test]
    fn from_final_state_reads_height() {
        let mut a = CostArray::new(3, 8);
        a.set(GridCell::new(0, 2), 4);
        a.set(GridCell::new(2, 7), 2);
        let q = QualityMetrics::from_final_state(&a, 123);
        assert_eq!(q.circuit_height, 6);
        assert_eq!(q.occupancy_factor, 123);
    }
}
