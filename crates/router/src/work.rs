//! Work accounting shared by all router implementations.
//!
//! Both simulators (mesh and shared-memory) convert routing work into
//! modelled execution time. The unit of work is *cost-array cells
//! examined* during candidate evaluation, which tracks the real router's
//! inner loop the same way the paper's Encore/CBS measurements track
//! instruction counts.

use std::ops::AddAssign;

/// Counters describing how much routing work was performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Wires routed (counting each re-route in later iterations).
    pub wires_routed: u64,
    /// Two-pin connections evaluated.
    pub connections: u64,
    /// Candidate routes examined.
    pub candidates: u64,
    /// Cost-array cells examined over all candidates — the primary work
    /// unit for the execution-time models.
    pub cells_examined: u64,
    /// Cells written (route increments plus rip-up decrements).
    pub cells_written: u64,
}

impl AddAssign for WorkStats {
    fn add_assign(&mut self, rhs: WorkStats) {
        self.wires_routed += rhs.wires_routed;
        self.connections += rhs.connections;
        self.candidates += rhs.candidates;
        self.cells_examined += rhs.cells_examined;
        self.cells_written += rhs.cells_written;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_fields() {
        let mut a = WorkStats {
            wires_routed: 1,
            connections: 2,
            candidates: 3,
            cells_examined: 4,
            cells_written: 5,
        };
        a += WorkStats {
            wires_routed: 10,
            connections: 20,
            candidates: 30,
            cells_examined: 40,
            cells_written: 50,
        };
        assert_eq!(a.wires_routed, 11);
        assert_eq!(a.connections, 22);
        assert_eq!(a.candidates, 33);
        assert_eq!(a.cells_examined, 44);
        assert_eq!(a.cells_written, 55);
    }
}
