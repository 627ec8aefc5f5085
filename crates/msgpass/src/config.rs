//! Configuration of a message-passing routing run.

use locus_mesh::{FaultPlan, MeshConfig, HEADER_BYTES, PROCESS_TIME_NS, RECV_PER_BYTE_NS};
use locus_router::{mesh_dims, AssignmentStrategy, RouterParams};

use crate::packet::Packet;
use crate::reliable::SEND_PER_BYTE_NS;
use crate::schedule::UpdateSchedule;

/// The update-packet structure (§4.3.1). The paper describes three and
/// chooses the third; the other two are provided for the ablation bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PacketStructure {
    /// The paper's choice: scan the delta array and send the rectangular
    /// bounding box of all changes in the target region (absolute data
    /// for own-region pushes, deltas otherwise). Costs a scan at the
    /// sender; minimizes bytes.
    #[default]
    BoundingBox,
    /// Structure 2: updates carry an *entire region* — "simple for the
    /// sender and receiver to process [...] on the other hand, it uses a
    /// large number of bytes".
    FullRegion,
    /// Structure 1: updates carry the raw routing events — start/end
    /// coordinates of each segment plus a routed/ripped-up flag. No
    /// delta cancellation is possible, so rip-up + re-route of an
    /// unchanged cell still crosses the network twice.
    WireBased,
}

/// How processors obtain wires to route (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WireSource {
    /// Static assignment computed before routing (the paper's choice).
    #[default]
    Static,
    /// Dynamic distribution over the network: processors request wires
    /// from an assignment processor (node 0), which also routes wires
    /// itself and serves requests only between wires — the paper's first
    /// §4.2 scheme, rejected because "a processor may have to wait for an
    /// entire wire to be routed before the wire assignment processor even
    /// retrieves the task request". Implemented for single-iteration runs
    /// (re-routing a wire that a *different* processor routed last
    /// iteration would require migrating its rip-up state, which the
    /// static scheme exists to avoid).
    Dynamic,
}

/// Checkpoint/restart and failure-detection knobs of the recovery layer.
///
/// With recovery on, every node periodically serializes its durable
/// state (its owned cost-array shard plus per-wire progress) to modelled
/// stable storage, heartbeats the coordinator, and participates in
/// coordinator-driven failure handling: a node silent for
/// `suspect_after` heartbeat periods is declared dead, its unfinished
/// wires (past its last reported checkpoint) are reassigned to live
/// nodes, and a dead coordinator is replaced by the lowest live rank.
/// All of it is deterministic — the schedule depends only on simulated
/// time — so recovered runs replay bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Wires routed between checkpoints. A final checkpoint is always
    /// taken when a node finishes its assignment, and every adopted
    /// (reassigned) wire is checkpointed as soon as it is routed.
    pub checkpoint_every: u32,
    /// Heartbeat period (ns): workers beat to the coordinator and the
    /// coordinator beats back to every worker. At least 1 ms, and at
    /// least twice the coordinator's heartbeat load, (P − 1) × 124 µs.
    pub heartbeat_ns: u64,
    /// Silence threshold, in heartbeat periods, before a peer is
    /// declared dead.
    pub suspect_after: u32,
    /// Modelled cost of serializing one checkpoint byte to stable
    /// store (ns/byte).
    pub checkpoint_per_byte_ns: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_every: 8,
            heartbeat_ns: 10_000_000,
            suspect_after: 5,
            checkpoint_per_byte_ns: 50,
        }
    }
}

/// Simulated time the coordinator of `n_procs` nodes spends on heartbeats
/// in one period: every peer's beat costs it `ProcessTime` plus the
/// per-byte disassembly of the framed beat, and its own beat back to each
/// peer `ProcessTime` plus the per-byte assembly. At 16 processors that is
/// 15 × (102 µs + 22 µs) = 1.86 ms.
fn heartbeat_load_ns(n_procs: usize) -> u128 {
    let beat = u64::from(Packet::Heartbeat.payload_bytes());
    let recv = PROCESS_TIME_NS + RECV_PER_BYTE_NS * (beat + u64::from(HEADER_BYTES));
    let send = PROCESS_TIME_NS + SEND_PER_BYTE_NS * beat;
    (n_procs as u128).saturating_sub(1) * u128::from(recv + send)
}

/// The heartbeat period must be at least this many times the
/// coordinator's heartbeat load, so heartbeats take at most half of it.
/// A fault-free run at 16 processors declares nodes dead at periods up to
/// 1.05 times the load (the coordinator saturates and stops hearing
/// anyone) and none from 1.08 times on.
const HEARTBEAT_LOAD_MARGIN: u128 = 2;

impl RecoveryConfig {
    /// Checks the knobs are internally consistent for a machine of
    /// `n_procs` nodes.
    pub(crate) fn validate(&self, n_procs: usize) -> Result<(), String> {
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be >= 1".into());
        }
        // A heartbeat under 1 ms declares nodes that are only busy
        // routing dead over and over; a checkpoint dearer than 2^16 ns a
        // byte is stepped through half a heartbeat at a time, so host
        // time grows with its price.
        if self.heartbeat_ns < 1_000_000 {
            return Err("heartbeat_ns must be at least 1 ms".into());
        }
        if self.heartbeat_ns > 1 << 40 {
            return Err("heartbeat_ns must be at most 2^40 ns".into());
        }
        let load = heartbeat_load_ns(n_procs);
        let bound = HEARTBEAT_LOAD_MARGIN * load;
        if u128::from(self.heartbeat_ns) < bound {
            return Err(format!(
                "heartbeat_ns {} is below the heartbeat bound of {bound} ns: at {n_procs} \
                 processors the coordinator spends {load} ns of every period receiving and \
                 answering heartbeats, and that may take at most half the period",
                self.heartbeat_ns,
            ));
        }
        if self.suspect_after == 0 {
            return Err("suspect_after must be >= 1".into());
        }
        if self.checkpoint_per_byte_ns > 1 << 16 {
            return Err("checkpoint_per_byte_ns must be at most 2^16".into());
        }
        Ok(())
    }

    /// The silence window after which a peer is presumed dead (ns).
    pub(crate) fn suspect_window_ns(&self) -> u64 {
        self.heartbeat_ns.saturating_mul(self.suspect_after as u64)
    }
}

/// Everything that defines one message-passing experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MsgPassConfig {
    /// Number of processors (arranged via [`mesh_dims`]).
    pub n_procs: usize,
    /// Update strategy and frequencies.
    pub schedule: UpdateSchedule,
    /// Static wire assignment strategy (§4.2).
    pub assignment: AssignmentStrategy,
    /// Core routing parameters (iterations, candidate overshoot).
    pub params: RouterParams,
    /// Update-packet structure (§4.3.1); the paper's bounding-box scheme
    /// by default.
    pub structure: PacketStructure,
    /// How wires reach processors (§4.2); static by default.
    pub wire_source: WireSource,
    /// When `Some(n)`, every node diffs its replica against the
    /// ground-truth cost array after each `n` wires it routes, recording
    /// a staleness snapshot (diverged cells, divergence magnitudes, cell
    /// ages) and emitting a `ReplicaAudit` obs event. `None` (default)
    /// keeps the hot path audit-free.
    pub audit_every: Option<u32>,
    /// Fault schedule injected into the mesh ([`FaultPlan::none`] by
    /// default — the fault-free machine is byte-identical to one that
    /// predates the fault layer).
    pub faults: FaultPlan,
    /// End-to-end reliable delivery (sequence numbers, acks,
    /// timeout/retransmit). Off (default) runs the original protocol,
    /// which assumes the network never loses packets; enable it whenever
    /// `faults` can drop or duplicate traffic.
    pub reliability: bool,
    /// Checkpoint/restore recovery with heartbeat failure detection.
    /// `None` (default) runs the protocol exactly as it existed before
    /// the recovery layer; enable it whenever `faults` can crash nodes.
    /// Requires reliability, static wire assignment, a single routing
    /// iteration, and a non-blocking schedule.
    pub recovery: Option<RecoveryConfig>,
}

impl MsgPassConfig {
    /// Default experiment configuration for `n_procs` processors with the
    /// given schedule: locality assignment with the paper's usual
    /// `ThresholdCost = 1000`.
    pub fn new(n_procs: usize, schedule: UpdateSchedule) -> Self {
        MsgPassConfig {
            n_procs,
            schedule,
            assignment: AssignmentStrategy::Locality { threshold_cost: Some(1000) },
            params: RouterParams::default(),
            structure: PacketStructure::BoundingBox,
            wire_source: WireSource::Static,
            audit_every: None,
            faults: FaultPlan::none(),
            reliability: false,
            recovery: None,
        }
    }

    /// The mesh machine for this configuration.
    pub fn mesh_config(&self) -> MeshConfig {
        let (rows, cols) = mesh_dims(self.n_procs);
        MeshConfig { faults: self.faults, ..MeshConfig::ametek(rows, cols) }
    }

    /// Returns `self` with a different assignment strategy.
    pub fn with_assignment(mut self, assignment: AssignmentStrategy) -> Self {
        self.assignment = assignment;
        self
    }

    /// Returns `self` with different router parameters.
    pub fn with_params(mut self, params: RouterParams) -> Self {
        self.params = params;
        self
    }

    /// Returns `self` with a different update-packet structure.
    pub fn with_structure(mut self, structure: PacketStructure) -> Self {
        self.structure = structure;
        self
    }

    /// Returns `self` with dynamic over-the-network wire distribution
    /// (single-iteration runs only; see [`WireSource::Dynamic`]).
    pub fn with_dynamic_wires(mut self) -> Self {
        self.wire_source = WireSource::Dynamic;
        self.params = self.params.with_iterations(1);
        self
    }

    /// Returns `self` auditing replica staleness every `n` routed wires.
    pub fn with_audit_every(mut self, n: u32) -> Self {
        self.audit_every = Some(n);
        self
    }

    /// Returns `self` with the given mesh fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns `self` with the reliable-delivery protocol on.
    pub fn with_reliability(mut self) -> Self {
        self.reliability = true;
        self
    }

    /// Returns `self` with checkpoint/restore recovery tuned by `cfg` (a
    /// single iteration is forced; recovery requires it).
    pub fn with_recovery_config(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self.params = self.params.with_iterations(1);
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_procs == 0 {
            return Err("n_procs is 0: need at least one processor".into());
        }
        self.params.validate()?;
        if self.audit_every == Some(0) {
            return Err("audit_every must be >= 1 when set".into());
        }
        if self.wire_source == WireSource::Dynamic {
            if self.params.iterations != 1 {
                return Err("dynamic wire distribution supports exactly one iteration".into());
            }
            if self.schedule.is_receiver_initiated() {
                return Err("dynamic wire distribution is incompatible with receiver-initiated \
                     updates (request-ahead needs a static wire list)"
                    .into());
            }
            if self.n_procs < 2 {
                return Err("dynamic wire distribution needs a worker besides the master".into());
            }
        }
        if self.structure == PacketStructure::WireBased
            && (self.schedule.send_rmt_data.is_none() || self.schedule.is_receiver_initiated())
        {
            return Err("the wire-based packet structure requires a pure sender-initiated \
                 schedule with send_rmt_data set (events are emitted on that cadence)"
                .into());
        }
        self.faults.validate()?;
        let nodes = self.faults.node_faults.iter().flatten().map(|&(node, _)| node);
        if let Some(node) = nodes.filter(|&node| node as usize >= self.n_procs).max() {
            return Err(format!(
                "a node fault targets node {node}, but n_procs is {}",
                self.n_procs
            ));
        }
        if let Some(rc) = &self.recovery {
            rc.validate(self.n_procs)?;
            if !self.reliability {
                return Err("recovery requires the reliability layer (checkpoint, reassignment \
                     and failover traffic must survive loss)"
                    .into());
            }
            if self.wire_source != WireSource::Static {
                return Err("recovery requires static wire assignment (reassignment recomputes \
                     the dead node's static wire list)"
                    .into());
            }
            if self.params.iterations != 1 {
                return Err("recovery supports exactly one routing iteration (rollback across \
                     rip-up iterations is not modelled)"
                    .into());
            }
            if self.schedule.blocking {
                return Err("recovery is incompatible with the blocking receiver-initiated \
                     schedule (a request to a dead owner would block forever)"
                    .into());
            }
        }
        self.schedule.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_mesh::NodeFault;

    #[test]
    fn default_config_is_valid_and_paper_shaped() {
        let c = MsgPassConfig::new(16, UpdateSchedule::sender_initiated(10, 10));
        c.validate().unwrap();
        let m = c.mesh_config();
        assert_eq!((m.rows, m.cols), (4, 4));
    }

    #[test]
    fn wire_based_requires_pure_sender_schedule() {
        let ok = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10))
            .with_structure(PacketStructure::WireBased);
        assert!(ok.validate().is_ok());
        let bad = MsgPassConfig::new(4, UpdateSchedule::receiver_initiated(1, 5))
            .with_structure(PacketStructure::WireBased);
        assert!(bad.validate().is_err());
        let mixed = MsgPassConfig::new(4, UpdateSchedule::mixed_paper())
            .with_structure(PacketStructure::WireBased);
        assert!(mixed.validate().is_err());
    }

    #[test]
    fn dynamic_wire_source_constraints() {
        let ok =
            MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10)).with_dynamic_wires();
        assert!(ok.validate().is_ok());
        assert_eq!(ok.params.iterations, 1);
        let mut bad = ok;
        bad.params = RouterParams::default().with_iterations(2);
        assert!(bad.validate().is_err());
        let bad =
            MsgPassConfig::new(4, UpdateSchedule::receiver_initiated(1, 5)).with_dynamic_wires();
        assert!(bad.validate().is_err());
        let bad = MsgPassConfig::new(1, UpdateSchedule::never()).with_dynamic_wires();
        assert!(bad.validate().is_err());
    }

    /// One config per `Err` that `validate` (msgpass, recovery, schedule)
    /// can return.
    fn every_invalid_config() -> Vec<MsgPassConfig> {
        let sender = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10));
        let receiver = MsgPassConfig::new(4, UpdateSchedule::receiver_initiated(1, 5));
        let recovering = sender.with_reliability().with_recovery_config(RecoveryConfig::default());
        let two_iterations = RouterParams::default().with_iterations(2);
        let schedule = |s: UpdateSchedule| MsgPassConfig::new(4, s);
        vec![
            MsgPassConfig { n_procs: 0, ..sender },
            MsgPassConfig { params: RouterParams { iterations: 0, ..sender.params }, ..sender },
            MsgPassConfig { audit_every: Some(0), ..sender },
            MsgPassConfig { params: two_iterations, ..sender.with_dynamic_wires() },
            receiver.with_dynamic_wires(),
            MsgPassConfig::new(1, UpdateSchedule::never()).with_dynamic_wires(),
            receiver.with_structure(PacketStructure::WireBased),
            recovering.with_recovery_config(RecoveryConfig {
                checkpoint_every: 0,
                ..RecoveryConfig::default()
            }),
            recovering.with_recovery_config(RecoveryConfig {
                heartbeat_ns: 0,
                ..RecoveryConfig::default()
            }),
            recovering.with_recovery_config(RecoveryConfig {
                heartbeat_ns: (1 << 40) + 1,
                ..RecoveryConfig::default()
            }),
            recovering.with_recovery_config(RecoveryConfig {
                suspect_after: 0,
                ..RecoveryConfig::default()
            }),
            MsgPassConfig { n_procs: 16, ..sender }.with_reliability().with_recovery_config(
                RecoveryConfig { heartbeat_ns: 1_000_000, ..RecoveryConfig::default() },
            ),
            recovering.with_recovery_config(RecoveryConfig {
                checkpoint_per_byte_ns: (1 << 16) + 1,
                ..RecoveryConfig::default()
            }),
            sender.with_recovery_config(RecoveryConfig::default()),
            MsgPassConfig { wire_source: WireSource::Dynamic, ..recovering },
            MsgPassConfig { params: two_iterations, ..recovering },
            schedule(UpdateSchedule::receiver_initiated_blocking(1, 1))
                .with_reliability()
                .with_recovery_config(RecoveryConfig::default()),
            schedule(UpdateSchedule { send_loc_data: Some(0), ..UpdateSchedule::never() }),
            schedule(UpdateSchedule { blocking: true, ..UpdateSchedule::never() }),
            sender.with_faults(FaultPlan::none().with_node_fault(4, NodeFault::Crash { at_ns: 1 })),
        ]
    }

    #[test]
    fn invalid_configs_rejected() {
        let configs = every_invalid_config();
        let mut messages = std::collections::BTreeSet::new();
        for c in &configs {
            let message = c.validate().expect_err("every config here is invalid");
            assert!(!message.contains("  "), "run of spaces in {message:?}");
            messages.insert(message);
        }
        assert_eq!(messages.len(), configs.len(), "one config per message");
    }

    #[test]
    fn recovery_constraints_are_enforced() {
        let ok = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10))
            .with_reliability()
            .with_recovery_config(RecoveryConfig::default());
        ok.validate().unwrap();
        assert_eq!(ok.params.iterations, 1, "recovery forces a single iteration");

        let no_rel = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10))
            .with_recovery_config(RecoveryConfig::default());
        assert!(no_rel.validate().is_err(), "recovery without reliability must be rejected");

        let mut multi_iter = ok;
        multi_iter.params = RouterParams::default().with_iterations(2);
        assert!(multi_iter.validate().is_err());

        let blocking = MsgPassConfig::new(4, UpdateSchedule::receiver_initiated_blocking(1, 1))
            .with_reliability()
            .with_recovery_config(RecoveryConfig::default());
        assert!(blocking.validate().is_err());

        let mut dynamic = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10))
            .with_dynamic_wires()
            .with_reliability();
        dynamic.recovery = Some(RecoveryConfig::default());
        assert!(dynamic.validate().is_err());

        let bad = RecoveryConfig { checkpoint_every: 0, ..RecoveryConfig::default() };
        assert!(bad.validate(4).is_err());
        let bad = RecoveryConfig { heartbeat_ns: 0, ..RecoveryConfig::default() };
        assert!(bad.validate(4).is_err());
        let bad = RecoveryConfig { suspect_after: 0, ..RecoveryConfig::default() };
        assert!(bad.validate(4).is_err());
        assert_eq!(RecoveryConfig::default().suspect_window_ns(), 50_000_000);
    }

    #[test]
    fn the_heartbeat_covers_twice_the_coordinators_heartbeat_load() {
        // 15 peers × (2 µs + 10 µs × 10 framed bytes in, 2 µs + 10 µs × 2
        // bytes out) = 1.86 ms a period, doubled.
        let bound = 3_720_000;
        let at = |n_procs, heartbeat_ns| {
            MsgPassConfig::new(n_procs, UpdateSchedule::sender_paper())
                .with_reliability()
                .with_recovery_config(RecoveryConfig { heartbeat_ns, ..RecoveryConfig::default() })
                .validate()
        };
        for heartbeat_ns in [1_000_000, 1_500_000, bound - 1] {
            let err = at(16, heartbeat_ns).expect_err("below the bound");
            assert!(err.contains("below the heartbeat bound of 3720000 ns"), "{err}");
        }
        at(16, bound).expect("at the bound");
        // The bound grows with the machine; the 1 ms floor still holds.
        at(4, 1_000_000).expect("3 peers load 372 µs a period");
        assert!(at(9, 1_000_000).is_err() && at(9, 1_984_000).is_ok());
        assert!(at(4, 999_999).expect_err("the floor").contains("at least 1 ms"));
        let err = at(usize::MAX, 1 << 40).expect_err("no heartbeat covers that many peers");
        assert!(err.contains("heartbeat bound"), "{err}");
    }

    #[test]
    fn audit_every_bounds() {
        let c = MsgPassConfig::new(4, UpdateSchedule::never()).with_audit_every(10);
        assert_eq!(c.audit_every, Some(10));
        c.validate().unwrap();
        let mut bad = c;
        bad.audit_every = Some(0);
        assert!(bad.validate().is_err());
    }
}
