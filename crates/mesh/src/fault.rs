//! Deterministic fault injection for the mesh.
//!
//! A [`FaultPlan`] attached to [`crate::MeshConfig`] tells the kernel to
//! **drop**, **duplicate**, **delay**, or **reorder** envelopes as they
//! are injected. The plan is fully deterministic: rates are expressed in
//! basis points (1/10 000, keeping `MeshConfig: Copy + Eq` without any
//! floating point), and every random decision comes from a seeded
//! [`rand::rngs::StdRng`] stream — the same seed always yields the same
//! fault sequence, so faulted runs are exactly reproducible.
//!
//! Faults act on *deliveries*, after the send already consumed network
//! bandwidth: a dropped envelope was injected (and is counted in
//! `NetStats::packets`) but never arrives; a duplicated envelope is
//! injected a second time behind the first, consuming real bandwidth for
//! the copy. At most one fault applies per envelope, decided in the
//! fixed precedence order drop → duplicate → delay → reorder so the
//! random stream is stable when individual rates are toggled.

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Rates are per-ten-thousand; this is the 100% value.
pub(crate) const BP_SCALE: u32 = 10_000;

/// Maximum node-scoped faults one plan can carry (a fixed-size array
/// keeps [`FaultPlan`] `Copy + Eq`).
pub(crate) const MAX_NODE_FAULTS: usize = 4;

/// A scheduled node-level failure: fail-stop, fail-recover, or
/// fail-slow. Unlike the link faults, node faults fire at fixed
/// simulated times taken straight from the plan — they consume no
/// randomness, so they compose with the seeded link-fault stream
/// without perturbing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFault {
    /// Fail-stop: the node goes down at `at_ns` and never comes back.
    /// All in-flight and future packets to or from it are lost.
    Crash {
        /// Crash time (ns).
        at_ns: u64,
    },
    /// Fail-recover: down at `at_ns`, back up `downtime_ns` later with
    /// its local state intact (the kernel calls
    /// [`crate::Node::on_restart`] so the actor can roll back to a
    /// checkpoint).
    CrashRestart {
        /// Crash time (ns).
        at_ns: u64,
        /// How long the node stays down.
        downtime_ns: u64,
    },
    /// Fail-slow: from `at_ns` for `duration_ns`, every step's service
    /// cost (receive overhead, application work, per-send processing) is
    /// multiplied by `factor`.
    Stall {
        /// Stall onset (ns).
        at_ns: u64,
        /// Service-cost multiplier (≥ 1; 1 is a no-op).
        factor: u32,
        /// How long the stall lasts.
        duration_ns: u64,
    },
}

impl NodeFault {
    /// Whether the afflicted node is down (crashed, not yet restarted)
    /// at time `t_ns`.
    pub(crate) fn down_at(&self, t_ns: u64) -> bool {
        match *self {
            NodeFault::Crash { at_ns } => t_ns >= at_ns,
            NodeFault::CrashRestart { at_ns, downtime_ns } => {
                t_ns >= at_ns && t_ns < at_ns.saturating_add(downtime_ns)
            }
            NodeFault::Stall { .. } => false,
        }
    }

    /// The service-cost multiplier this fault imposes at time `t_ns`
    /// (1 when inactive).
    pub(crate) fn stall_factor_at(&self, t_ns: u64) -> u64 {
        match *self {
            NodeFault::Stall { at_ns, factor, duration_ns }
                if t_ns >= at_ns && t_ns < at_ns.saturating_add(duration_ns) =>
            {
                factor.max(1) as u64
            }
            _ => 1,
        }
    }
}

/// A deterministic, seeded fault schedule for one kernel run.
///
/// All rates are basis points (per 10 000 injected envelopes). The zero plan — [`FaultPlan::none`] — is the default and is
/// completely invisible: the kernel does not even construct an injector
/// for it, so fault-free runs are byte-identical to runs that predate
/// the fault layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Probability of silently discarding a delivery (basis points).
    pub drop_bp: u32,
    /// Probability of injecting a second copy (basis points).
    pub duplicate_bp: u32,
    /// Upper bound on the injection gap between original and duplicate
    /// (ns); the gap is drawn uniformly from `1..=duplicate_gap_ns`.
    pub duplicate_gap_ns: u64,
    /// Probability of adding extra delivery latency (basis points).
    pub delay_bp: u32,
    /// Upper bound of the extra latency (ns), drawn uniformly from
    /// `1..=delay_ns_max`.
    pub delay_ns_max: u64,
    /// Probability of holding an envelope past later traffic (basis
    /// points).
    pub reorder_bp: u32,
    /// How long a reordered envelope is held (ns); long enough for
    /// several subsequent envelopes to overtake it.
    pub reorder_hold_ns: u64,
    /// Scheduled node-level failures: `(node, fault)` pairs, at most
    /// `MAX_NODE_FAULTS` of them. `None` slots are inert.
    pub node_faults: [Option<(u32, NodeFault)>; MAX_NODE_FAULTS],
}

impl FaultPlan {
    /// The inert plan: no faults, no injector, no RNG stream.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_bp: 0,
            duplicate_bp: 0,
            duplicate_gap_ns: 50_000,
            delay_bp: 0,
            delay_ns_max: 100_000,
            reorder_bp: 0,
            reorder_hold_ns: 200_000,
            node_faults: [None; MAX_NODE_FAULTS],
        }
    }

    /// Uniform packet loss at `drop_bp` basis points (e.g. 1000 = 10%).
    pub fn uniform_loss(seed: u64, drop_bp: u32) -> Self {
        FaultPlan { seed, drop_bp, ..FaultPlan::none() }
    }

    /// Returns `self` with duplication at `bp` basis points and the
    /// given maximum injection gap.
    pub fn with_duplicates(mut self, bp: u32, max_gap_ns: u64) -> Self {
        self.duplicate_bp = bp;
        self.duplicate_gap_ns = max_gap_ns;
        self
    }

    /// Returns `self` with reordering holds at `bp` basis points of
    /// `hold_ns` each.
    pub fn with_reorders(mut self, bp: u32, hold_ns: u64) -> Self {
        self.reorder_bp = bp;
        self.reorder_hold_ns = hold_ns;
        self
    }

    /// Returns `self` with a different decision-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns `self` with `fault` scheduled on `node` in the first free
    /// slot.
    ///
    /// # Panics
    /// Panics when all `MAX_NODE_FAULTS` slots are taken.
    pub fn with_node_fault(mut self, node: u32, fault: NodeFault) -> Self {
        let slot = self
            .node_faults
            .iter_mut()
            .find(|s| s.is_none())
            .unwrap_or_else(|| panic!("FaultPlan holds at most {MAX_NODE_FAULTS} node faults"));
        *slot = Some((node, fault));
        self
    }

    /// Whether the plan can never fire (no link-fault rates and no node
    /// faults). Idle plans are skipped entirely by the kernel.
    pub fn is_idle(&self) -> bool {
        self.drop_bp == 0
            && self.duplicate_bp == 0
            && self.delay_bp == 0
            && self.reorder_bp == 0
            && self.node_faults.iter().all(Option::is_none)
    }

    /// Whether any node fault is scheduled.
    pub fn has_node_faults(&self) -> bool {
        self.node_faults.iter().any(Option::is_some)
    }

    /// The scheduled node faults, in slot order.
    pub(crate) fn node_faults(&self) -> impl Iterator<Item = (u32, NodeFault)> + '_ {
        self.node_faults.iter().filter_map(|s| *s)
    }

    /// Whether `node` is down (crashed and not yet restarted) at `t_ns`
    /// under this plan. A pure function of the plan, so both the kernel
    /// and post-run analysis agree on down intervals.
    pub(crate) fn node_down_at(&self, node: u32, t_ns: u64) -> bool {
        self.node_faults().any(|(n, f)| n == node && f.down_at(t_ns))
    }

    /// The combined service-cost multiplier on `node` at `t_ns` (1 when
    /// no stall is active).
    pub(crate) fn stall_factor_at(&self, node: u32, t_ns: u64) -> u64 {
        self.node_faults()
            .filter(|&(n, _)| n == node)
            .map(|(_, f)| f.stall_factor_at(t_ns))
            .max()
            .unwrap_or(1)
    }

    /// Checks that every rate is a valid probability (≤ 10 000 bp) and
    /// every node fault is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        for (name, bp) in [
            ("drop_bp", self.drop_bp),
            ("duplicate_bp", self.duplicate_bp),
            ("delay_bp", self.delay_bp),
            ("reorder_bp", self.reorder_bp),
        ] {
            if bp > BP_SCALE {
                return Err(format!("FaultPlan::{name} = {bp} exceeds {BP_SCALE} basis points"));
            }
        }
        for (node, fault) in self.node_faults() {
            match fault {
                NodeFault::CrashRestart { downtime_ns: 0, .. } => {
                    return Err(format!("node {node}: CrashRestart downtime must be nonzero"));
                }
                NodeFault::Stall { factor: 0, .. } => {
                    return Err(format!("node {node}: Stall factor must be ≥ 1"));
                }
                NodeFault::Stall { duration_ns: 0, .. } => {
                    return Err(format!("node {node}: Stall duration must be nonzero"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// One concrete fault decision for one envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Discard the delivery (the injection already happened).
    Drop,
    /// Inject a second copy `gap_ns` after the original.
    Duplicate {
        /// Injection gap between the original and the copy.
        gap_ns: u64,
    },
    /// Push the arrival back by `extra_ns`.
    Delay {
        /// Added latency.
        extra_ns: u64,
    },
    /// Hold the arrival for `hold_ns` so later traffic overtakes it.
    Reorder {
        /// Hold duration.
        hold_ns: u64,
    },
}

/// The kernel-side decision engine: a plan plus its seeded RNG stream.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultInjector {
    /// Builds the injector for `plan` (callers skip idle plans).
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, rng: StdRng::seed_from_u64(plan.seed) }
    }

    /// One uniform draw in `[0, BP_SCALE)`.
    fn draw_bp(&mut self) -> u32 {
        (self.rng.next_u64() % BP_SCALE as u64) as u32
    }

    /// Decides the fate of one envelope: one draw per enabled category
    /// in precedence order, so disabling a category never perturbs the
    /// draws of the ones before it.
    pub(crate) fn decide(&mut self) -> Option<Fault> {
        if self.plan.drop_bp > 0 && self.draw_bp() < self.plan.drop_bp {
            return Some(Fault::Drop);
        }
        if self.plan.duplicate_bp > 0 && self.draw_bp() < self.plan.duplicate_bp {
            let gap_ns = self.rng.random_range(1..=self.plan.duplicate_gap_ns.max(1));
            return Some(Fault::Duplicate { gap_ns });
        }
        if self.plan.delay_bp > 0 && self.draw_bp() < self.plan.delay_bp {
            let extra_ns = self.rng.random_range(1..=self.plan.delay_ns_max.max(1));
            return Some(Fault::Delay { extra_ns });
        }
        if self.plan.reorder_bp > 0 && self.draw_bp() < self.plan.reorder_bp {
            return Some(Fault::Reorder { hold_ns: self.plan.reorder_hold_ns });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_idle_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_idle());
        assert!(p.validate().is_ok());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn rates_above_scale_are_rejected() {
        let p = FaultPlan::uniform_loss(1, BP_SCALE + 1);
        assert!(p.validate().is_err());
        assert!(FaultPlan::uniform_loss(1, BP_SCALE).validate().is_ok());
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan {
            delay_bp: 500,
            delay_ns_max: 50_000,
            ..FaultPlan::uniform_loss(42, 2_000).with_duplicates(500, 10_000)
        };
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for i in 0..10_000u32 {
            assert_eq!(a.decide(), b.decide(), "envelope {i}");
        }
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let mut inj = FaultInjector::new(FaultPlan::uniform_loss(7, 1_000));
        let n = 20_000;
        let drops = (0..n).filter(|_| inj.decide() == Some(Fault::Drop)).count();
        let rate = drops as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "10% nominal, got {rate:.4}");
    }

    #[test]
    fn node_faults_make_a_plan_non_idle() {
        let p = FaultPlan::none().with_node_fault(2, NodeFault::Crash { at_ns: 1_000 });
        assert!(!p.is_idle(), "a node-fault-only plan must not be idle");
        assert!(p.has_node_faults());
        assert!(p.validate().is_ok());
        assert_eq!(p.node_faults().count(), 1);
    }

    #[test]
    fn down_intervals_follow_the_schedule() {
        let p = FaultPlan::none()
            .with_node_fault(0, NodeFault::Crash { at_ns: 100 })
            .with_node_fault(1, NodeFault::CrashRestart { at_ns: 50, downtime_ns: 25 });
        assert!(!p.node_down_at(0, 99));
        assert!(p.node_down_at(0, 100));
        assert!(p.node_down_at(0, u64::MAX), "fail-stop never recovers");
        assert!(!p.node_down_at(1, 49));
        assert!(p.node_down_at(1, 50));
        assert!(p.node_down_at(1, 74));
        assert!(!p.node_down_at(1, 75), "restarted at at_ns + downtime_ns");
        assert!(!p.node_down_at(2, 100), "unafflicted node is never down");
    }

    #[test]
    fn stall_factor_applies_only_inside_the_window() {
        let p = FaultPlan::none()
            .with_node_fault(3, NodeFault::Stall { at_ns: 10, factor: 4, duration_ns: 20 });
        assert_eq!(p.stall_factor_at(3, 9), 1);
        assert_eq!(p.stall_factor_at(3, 10), 4);
        assert_eq!(p.stall_factor_at(3, 29), 4);
        assert_eq!(p.stall_factor_at(3, 30), 1);
        assert_eq!(p.stall_factor_at(0, 15), 1, "other nodes unaffected");
        assert!(!p.node_down_at(3, 15), "a stalled node is slow, not down");
    }

    #[test]
    fn malformed_node_faults_are_rejected() {
        let zero_down = FaultPlan::none()
            .with_node_fault(0, NodeFault::CrashRestart { at_ns: 5, downtime_ns: 0 });
        assert!(zero_down.validate().is_err());
        let zero_factor = FaultPlan::none()
            .with_node_fault(0, NodeFault::Stall { at_ns: 5, factor: 0, duration_ns: 10 });
        assert!(zero_factor.validate().is_err());
        let zero_duration = FaultPlan::none()
            .with_node_fault(0, NodeFault::Stall { at_ns: 5, factor: 2, duration_ns: 0 });
        assert!(zero_duration.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn node_fault_slots_are_bounded() {
        let mut p = FaultPlan::none();
        for i in 0..=MAX_NODE_FAULTS as u32 {
            p = p.with_node_fault(i, NodeFault::Crash { at_ns: 1 });
        }
    }
}
