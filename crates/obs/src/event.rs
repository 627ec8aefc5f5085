//! The typed event vocabulary shared by every simulator layer.
//!
//! One `Event` is one observable occurrence: a packet entering the mesh,
//! a wire committing to the cost array, a memory request queueing at a
//! directory home. Every event is stamped with the layer's notion of time
//! (simulated nanoseconds for the mesh and emulators, wall nanoseconds
//! for the threaded executor, work-units for the sequential router) and
//! the node/processor it happened on, so traces from different engines
//! render the same way.

/// Identifies a mesh node, logical processor, or OS thread.
pub(crate) type NodeId = u32;

/// Which failure the mesh fault layer injected into a delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The envelope was silently discarded after injection.
    Drop,
    /// A second copy of the envelope was injected behind the first.
    Duplicate,
    /// The envelope's arrival was pushed back by extra latency.
    Delay,
    /// The envelope was held long enough for later traffic to overtake it.
    Reorder,
}

impl FaultKind {
    /// Short stable name (used by exporters).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
            FaultKind::Reorder => "reorder",
        }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A packet was injected into the network by `Event::node`.
    PacketSent {
        /// Destination node.
        dst: NodeId,
        /// Application payload bytes.
        payload_bytes: u32,
        /// Payload plus framing as it travels the wire.
        wire_bytes: u32,
        /// Mesh distance to the destination.
        hops: u16,
    },
    /// A packet arrived at `Event::node`.
    PacketDelivered {
        /// Sending node.
        src: NodeId,
        /// Application payload bytes.
        payload_bytes: u32,
        /// Injection-to-arrival time.
        latency_ns: u64,
        /// Inbox depth at the receiver after this packet was queued.
        queue_depth: u32,
    },
    /// A packet's header stalled on a busy channel (wormhole blocking).
    ChannelContended {
        /// The contended unidirectional channel.
        channel: u32,
        /// How long the header waited.
        stall_ns: u64,
    },
    /// A wire's route was committed by `Event::node`.
    WireRouted {
        /// Wire id.
        wire: u32,
        /// Cells the committed route covers.
        cells: u32,
    },
    /// A previous route was ripped up before re-routing.
    RipUp {
        /// Wire id.
        wire: u32,
        /// Cells the removed route covered.
        cells: u32,
    },
    /// A memory-system backend sent a request to a contended service
    /// point (the bus, a directory home node, an LLC home tile).
    MemRequest {
        /// The service point the request queued on (bus = 0, otherwise a
        /// home node/tile id).
        resource: u32,
        /// Payload bytes the request moves.
        bytes: u32,
        /// Whether the request is on the router's critical path (rip-up /
        /// commit stores) rather than speculative sweep traffic.
        critical: bool,
    },
    /// A named phase (iteration, assignment, …) began on `Event::node`.
    PhaseBegin {
        /// Phase name; rendered as a duration slice in Chrome traces.
        name: &'static str,
    },
    /// The matching phase ended.
    PhaseEnd {
        /// Phase name.
        name: &'static str,
    },
    /// A message-passing node compared its cost-array replica against
    /// the ground-truth array (one event per audit stamp).
    ReplicaAudit {
        /// Cells whose replica value differed from the truth.
        diverged_cells: u32,
        /// Largest absolute per-cell divergence seen in this audit.
        max_divergence: u32,
        /// Mean staleness age of the diverged cells (ns since the truth
        /// cell last changed).
        mean_age_ns: u64,
    },
    /// The mesh fault layer injected a failure into a delivery from
    /// `Event::node`.
    FaultInjected {
        /// Destination node of the afflicted envelope.
        dst: NodeId,
        /// Application payload bytes of the afflicted envelope.
        payload_bytes: u32,
        /// Which failure was injected.
        fault: FaultKind,
        /// Extra latency added (delay/reorder holds; 0 for drop/duplicate).
        extra_ns: u64,
    },
    /// The reliability layer re-sent an unacknowledged frame.
    PacketRetransmitted {
        /// Destination node.
        dst: NodeId,
        /// Sequence number of the retransmitted frame.
        seq: u32,
        /// Retransmission attempt (1 = first resend).
        attempt: u32,
    },
    /// The reliability layer sent a cumulative acknowledgement.
    AckSent {
        /// Destination node (the original sender being acked).
        dst: NodeId,
        /// All sequence numbers below this were received and applied.
        cum_seq: u32,
    },
    /// The watchdog routed a wire locally after the network run ended
    /// without it (deadlock or event-limit degradation).
    WatchdogRecovery {
        /// Wire id recovered.
        wire: u32,
    },
    /// The node-fault layer crashed `Event::node` (fail-stop or the down
    /// phase of fail-recover); its in-flight traffic is lost.
    NodeCrashed {
        /// Whether a restart is scheduled (fail-recover) or the node is
        /// down for the rest of the run (fail-stop).
        will_restart: bool,
    },
    /// A crashed node came back up and resumed from its local state.
    NodeRestarted {
        /// How long the node was down.
        downtime_ns: u64,
    },
    /// A message-passing node checkpointed its routing state and shipped
    /// the progress record to the coordinator.
    CheckpointTaken {
        /// Serialized checkpoint size charged to the network.
        bytes: u32,
    },
    /// The coordinator reassigned a dead node's unfinished wire to a
    /// live node.
    WireReassigned {
        /// Wire id.
        wire: u32,
        /// The dead node that owned the wire.
        from: NodeId,
        /// The live node adopting it.
        to: NodeId,
    },
    /// A worker took over coordinator duty after deciding every lower
    /// rank is dead.
    CoordinatorFailover {
        /// The new coordinator (lowest presumed-live rank).
        new_coordinator: NodeId,
    },
}

/// A timestamped, node-attributed occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// When it happened, in the emitting layer's time base (ns).
    pub at_ns: u64,
    /// The mesh node / logical processor / thread it happened on.
    pub node: NodeId,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Position of a kind's variant in the declaration. The match is
    /// exhaustive, so a new variant fails to compile here until it is
    /// numbered, and then [`all_kinds`] fails until it has a value.
    fn ordinal(kind: &EventKind) -> usize {
        match kind {
            EventKind::PacketSent { .. } => 0,
            EventKind::PacketDelivered { .. } => 1,
            EventKind::ChannelContended { .. } => 2,
            EventKind::WireRouted { .. } => 3,
            EventKind::RipUp { .. } => 4,
            EventKind::MemRequest { .. } => 5,
            EventKind::PhaseBegin { .. } => 6,
            EventKind::PhaseEnd { .. } => 7,
            EventKind::ReplicaAudit { .. } => 8,
            EventKind::FaultInjected { .. } => 9,
            EventKind::PacketRetransmitted { .. } => 10,
            EventKind::AckSent { .. } => 11,
            EventKind::WatchdogRecovery { .. } => 12,
            EventKind::NodeCrashed { .. } => 13,
            EventKind::NodeRestarted { .. } => 14,
            EventKind::CheckpointTaken { .. } => 15,
            EventKind::WireReassigned { .. } => 16,
            EventKind::CoordinatorFailover { .. } => 17,
        }
    }

    /// One value of every variant, in declaration order, every field
    /// nonzero so each counter it feeds moves.
    pub(crate) fn all_kinds() -> Vec<EventKind> {
        let kinds = vec![
            EventKind::PacketSent { dst: 1, payload_bytes: 40, wire_bytes: 44, hops: 2 },
            EventKind::PacketDelivered {
                src: 1,
                payload_bytes: 40,
                latency_ns: 500,
                queue_depth: 1,
            },
            EventKind::ChannelContended { channel: 2, stall_ns: 30 },
            EventKind::WireRouted { wire: 3, cells: 14 },
            EventKind::RipUp { wire: 3, cells: 12 },
            EventKind::MemRequest { resource: 1, bytes: 8, critical: true },
            EventKind::PhaseBegin { name: "iteration" },
            EventKind::PhaseEnd { name: "iteration" },
            EventKind::ReplicaAudit { diverged_cells: 5, max_divergence: 2, mean_age_ns: 1200 },
            EventKind::FaultInjected {
                dst: 1,
                payload_bytes: 40,
                fault: FaultKind::Delay,
                extra_ns: 90,
            },
            EventKind::PacketRetransmitted { dst: 1, seq: 9, attempt: 1 },
            EventKind::AckSent { dst: 1, cum_seq: 9 },
            EventKind::WatchdogRecovery { wire: 3 },
            EventKind::NodeCrashed { will_restart: true },
            EventKind::NodeRestarted { downtime_ns: 800 },
            EventKind::CheckpointTaken { bytes: 96 },
            EventKind::WireReassigned { wire: 3, from: 2, to: 1 },
            EventKind::CoordinatorFailover { new_coordinator: 1 },
        ];
        let ordinals: Vec<usize> = kinds.iter().map(ordinal).collect();
        assert_eq!(ordinals, (0..18).collect::<Vec<_>>(), "one value per variant, in order");
        kinds
    }

    /// The name the exporters print for `kind`.
    fn name(kind: &EventKind) -> &'static str {
        crate::export::shown(kind, None).name
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            name(&EventKind::MemRequest { resource: 0, bytes: 1, critical: false }),
            "MemRequest"
        );
        assert_eq!(name(&EventKind::PhaseBegin { name: "x" }), "PhaseBegin");
    }

    #[test]
    fn every_kind_is_named_after_its_variant() {
        let kinds = all_kinds();
        for (i, kind) in kinds.iter().enumerate() {
            let debug = format!("{kind:?}");
            assert_eq!(name(kind), debug.split(' ').next().expect("a variant name"));
            assert!(kinds[..i].iter().all(|k| name(k) != name(kind)), "{} twice", name(kind));
        }
    }

    #[test]
    fn event_size_is_pinned() {
        // A time, a node and a 24-byte kind (a tag beside `PacketDelivered`'s
        // 20 bytes); 2^20 of them
        // (`DEFAULT_CAPACITY`) are 40 MiB. A new payload that grows this is
        // a deliberate change of the number, not a silent one.
        assert!(std::mem::size_of::<Event>() <= 40, "{}", std::mem::size_of::<Event>());
    }
}
