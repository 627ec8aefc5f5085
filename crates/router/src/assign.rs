//! Wire-assignment strategies (§4.2).
//!
//! The paper contrasts a locality-oblivious **round robin** assignment
//! with a locality-based one: each wire is assigned to the owner processor
//! of its *leftmost pin*, except that wires whose length-based cost
//! measure exceeds **ThresholdCost** — long wires with little locality to
//! exploit anyway — are held back and assigned in a final pass purely to
//! balance the load. `ThresholdCost = ∞` is the extreme local assignment;
//! small values approach pure load balancing.

use locus_circuit::{Circuit, WireId};

use crate::region::{ProcId, RegionMap};

/// How wires are distributed among processors before routing begins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssignmentStrategy {
    /// Wire `i` goes to processor `i mod P` — the extreme non-local case
    /// of Table 4/5.
    RoundRobin,
    /// Locality-based assignment with the ThresholdCost escape hatch;
    /// `threshold_cost: None` means ∞ (pure locality).
    Locality {
        /// Wires with `cost_measure() < threshold` follow their leftmost
        /// pin; longer ones are load-balanced. `None` = infinity.
        threshold_cost: Option<u32>,
    },
}

impl AssignmentStrategy {
    /// The four rows of Tables 4 and 5, in paper order.
    pub fn table45_rows() -> [(&'static str, AssignmentStrategy); 4] {
        [
            ("round robin", AssignmentStrategy::RoundRobin),
            ("ThresholdCost = 30", AssignmentStrategy::Locality { threshold_cost: Some(30) }),
            ("ThresholdCost = 1000", AssignmentStrategy::Locality { threshold_cost: Some(1000) }),
            ("ThresholdCost = inf.", AssignmentStrategy::Locality { threshold_cost: None }),
        ]
    }
}

/// The result of the static wire-assignment phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Wires owned by each processor, in routing order.
    pub wires_per_proc: Vec<Vec<WireId>>,
    /// Inverse map: the processor routing each wire.
    pub proc_of_wire: Vec<ProcId>,
}

impl Assignment {
    /// Per-processor load, measured as Σ (cost_measure + 1) so even
    /// zero-length wires carry weight.
    pub(crate) fn loads(&self, circuit: &Circuit) -> Vec<u64> {
        self.wires_per_proc
            .iter()
            .map(|ws| ws.iter().map(|&w| circuit.wire(w).cost_measure() as u64 + 1).sum())
            .collect()
    }

    /// Load imbalance: `max_load / mean_load` (1.0 = perfectly balanced).
    pub fn imbalance(&self, circuit: &Circuit) -> f64 {
        let loads = self.loads(circuit);
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Runs the static assignment phase.
pub fn assign(circuit: &Circuit, regions: &RegionMap, strategy: AssignmentStrategy) -> Assignment {
    let n_procs = regions.n_procs();
    let mut wires_per_proc: Vec<Vec<WireId>> = vec![Vec::new(); n_procs];
    let mut proc_of_wire = vec![0 as ProcId; circuit.wire_count()];

    match strategy {
        AssignmentStrategy::RoundRobin => {
            for wire in &circuit.wires {
                let p = wire.id % n_procs;
                wires_per_proc[p].push(wire.id);
                proc_of_wire[wire.id] = p;
            }
        }
        AssignmentStrategy::Locality { threshold_cost } => {
            // Phase 1: short wires follow their leftmost pin.
            let mut deferred: Vec<WireId> = Vec::new();
            for wire in &circuit.wires {
                let local = match threshold_cost {
                    None => true,
                    Some(t) => wire.cost_measure() < t,
                };
                if local {
                    let p = regions.owner_of(wire.leftmost_pin().cell());
                    wires_per_proc[p].push(wire.id);
                    proc_of_wire[wire.id] = p;
                } else {
                    deferred.push(wire.id);
                }
            }
            // Phase 2: long wires balance the load, ignoring locality
            // (§4.2). Longest-first greedy onto the least-loaded
            // processor — the classic LPT heuristic.
            deferred.sort_by_key(|&w| std::cmp::Reverse(circuit.wire(w).cost_measure()));
            let mut loads: Vec<u64> = wires_per_proc
                .iter()
                .map(|ws| ws.iter().map(|&w| circuit.wire(w).cost_measure() as u64 + 1).sum())
                .collect();
            for w in deferred {
                let p = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &l)| l)
                    .map(|(p, _)| p)
                    .expect("at least one processor");
                wires_per_proc[p].push(w);
                proc_of_wire[w] = p;
                loads[p] += circuit.wire(w).cost_measure() as u64 + 1;
            }
            // Restore routing order (wire-id order) within each processor
            // so iteration order is independent of the assignment phases.
            for ws in &mut wires_per_proc {
                ws.sort_unstable();
            }
        }
    }

    Assignment { wires_per_proc, proc_of_wire }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::presets;

    fn setup() -> (locus_circuit::Circuit, RegionMap) {
        let c = presets::bnr_e();
        let m = RegionMap::new(c.channels, c.grids, 16);
        (c, m)
    }

    #[test]
    fn round_robin_is_perfectly_spread() {
        let (c, m) = setup();
        let a = assign(&c, &m, AssignmentStrategy::RoundRobin);
        let counts: Vec<usize> = a.wires_per_proc.iter().map(|w| w.len()).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1);
        for w in 0..c.wire_count() {
            assert_eq!(a.proc_of_wire[w], w % 16);
        }
    }

    #[test]
    fn every_wire_assigned_exactly_once() {
        let (c, m) = setup();
        for strategy in [
            AssignmentStrategy::RoundRobin,
            AssignmentStrategy::Locality { threshold_cost: Some(30) },
            AssignmentStrategy::Locality { threshold_cost: None },
        ] {
            let a = assign(&c, &m, strategy);
            let total: usize = a.wires_per_proc.iter().map(|w| w.len()).sum();
            assert_eq!(total, c.wire_count());
            let mut seen = vec![false; c.wire_count()];
            for (p, ws) in a.wires_per_proc.iter().enumerate() {
                for &w in ws {
                    assert!(!seen[w], "wire {w} assigned twice");
                    seen[w] = true;
                    assert_eq!(a.proc_of_wire[w], p);
                }
            }
        }
    }

    #[test]
    fn infinite_threshold_follows_leftmost_pin() {
        let (c, m) = setup();
        let a = assign(&c, &m, AssignmentStrategy::Locality { threshold_cost: None });
        for wire in &c.wires {
            assert_eq!(
                a.proc_of_wire[wire.id],
                m.owner_of(wire.leftmost_pin().cell()),
                "wire {} should follow its leftmost pin",
                wire.id
            );
        }
    }

    #[test]
    fn lower_threshold_improves_balance() {
        let (c, m) = setup();
        let inf = assign(&c, &m, AssignmentStrategy::Locality { threshold_cost: None });
        let t30 = assign(&c, &m, AssignmentStrategy::Locality { threshold_cost: Some(30) });
        assert!(
            t30.imbalance(&c) <= inf.imbalance(&c),
            "threshold 30 ({:.3}) should balance at least as well as infinity ({:.3})",
            t30.imbalance(&c),
            inf.imbalance(&c)
        );
    }

    #[test]
    fn threshold_splits_populations() {
        let (c, m) = setup();
        let t = 30u32;
        let a = assign(&c, &m, AssignmentStrategy::Locality { threshold_cost: Some(t) });
        // Every short wire must follow its leftmost pin.
        for wire in &c.wires {
            if wire.cost_measure() < t {
                assert_eq!(a.proc_of_wire[wire.id], m.owner_of(wire.leftmost_pin().cell()));
            }
        }
    }

    #[test]
    fn per_proc_lists_are_in_routing_order() {
        let (c, m) = setup();
        let a = assign(&c, &m, AssignmentStrategy::Locality { threshold_cost: Some(30) });
        for ws in &a.wires_per_proc {
            assert!(ws.windows(2).all(|w| w[0] < w[1]), "wire lists must be sorted");
        }
    }

    #[test]
    fn imbalance_of_round_robin_is_moderate() {
        let (c, m) = setup();
        let rr = assign(&c, &m, AssignmentStrategy::RoundRobin);
        let imb = rr.imbalance(&c);
        assert!(imb < 1.6, "round robin imbalance unexpectedly high: {imb}");
    }
}
