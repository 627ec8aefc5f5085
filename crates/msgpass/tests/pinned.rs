//! Digests of simulated behaviour on `presets::small()` at P=4, captured
//! from the build of d8ac9b7 before `RouterNode` was cut into layers.
//!
//! `benchmark/expected.json` pins sender (2,10), receiver (1,5) and five
//! recovery scenarios on bnrE; the goldens pin what `all --quick` prints.
//! This file pins the configurations neither reaches: every schedule
//! constructor, the two other packet structures, dynamic wires, audits,
//! reliability under loss + duplicates + reorders, and recovery under
//! each node fault. A mismatch prints the whole table as computed.

use locus_circuit::presets;
use locus_mesh::{FaultPlan, NodeFault};
use locus_msgpass::{
    run_msgpass, run_msgpass_observed, MsgPassConfig, MsgPassOutcome, PacketKind, PacketStructure,
    RecoveryConfig, UpdateSchedule,
};
use locus_obs::SharedSink;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

/// Everything simulated that a run reports.
fn digest(o: &MsgPassOutcome) -> u64 {
    let mut h = Fnv::new();
    h.word(o.routes.len() as u64);
    for r in &o.routes {
        h.word(r.len() as u64);
        h.words(r.cells().iter().map(|c| u64::from(c.channel) << 16 | u64::from(c.x)));
    }
    h.words(o.proc_of_wire.iter().map(|&p| p as u64));
    h.words([o.quality.circuit_height, o.quality.occupancy_factor]);
    let w = &o.work;
    h.words([w.wires_routed, w.connections, w.candidates, w.cells_examined, w.cells_written]);
    h.words([o.time_secs.to_bits(), o.mbytes.to_bits(), o.routing_done_secs.to_bits()]);
    h.words(o.routing_done_secs_by_proc.iter().map(|s| s.to_bits()));
    h.word(o.replica_divergence.to_bits());
    h.words(o.occupancy_by_iteration.iter().copied());
    h.words([o.deadlocked as u64, o.degraded.is_some() as u64, o.watchdog_recoveries]);

    let n = &o.net;
    h.words([n.packets, n.payload_bytes, n.wire_bytes, n.byte_hops, n.contention_ns]);
    h.words(n.packets_by_node.iter().copied());
    h.words(n.payload_bytes_by_node.iter().copied());
    h.words(n.busy_ns.iter().copied());
    h.words(n.done_at.iter().map(|t| t.as_ns()));
    h.words([n.completion.as_ns(), n.deadlocked as u64, n.event_limit_hit as u64]);
    h.words([n.packets_dropped, n.packets_duplicated, n.packets_delayed, n.packets_reordered]);
    h.words([n.node_crashes, n.node_restarts, n.packets_lost_to_crash]);
    h.words(n.crashed.iter().map(|&c| c as u64));

    for kind in PacketKind::ALL {
        h.words([o.packets.packets(kind), o.packets.bytes(kind)]);
    }
    let rel = &o.reliability;
    h.words([rel.retransmits, rel.acks_sent, rel.dup_suppressed, rel.out_of_order]);
    h.word(rel.retries_exhausted);
    let rec = &o.recovery;
    h.words([rec.checkpoints_taken, rec.checkpoint_bytes, rec.heartbeats_sent]);
    h.words([rec.nodes_declared_dead, rec.wires_reassigned, rec.wires_adopted]);
    h.words([rec.rollbacks, rec.wires_rolled_back, rec.coordinator_failovers]);
    h.word(rec.duplicate_routes);
    h.word(o.replica_audits.len() as u64);
    for s in &o.replica_audits {
        h.words([s.proc as u64, s.at_ns, s.wires_routed as u64, s.diverged_cells as u64]);
        h.words([s.total_abs_divergence, s.max_abs_divergence as u64, s.stale_age_sum_ns]);
    }
    h.0
}

/// The whole event stream of an observed run, in recording order.
fn stream_digest(config: MsgPassConfig) -> u64 {
    let sink = SharedSink::new();
    let out = run_msgpass_observed(&presets::small(), config, sink.clone());
    let mut h = Fnv::new();
    let events = sink.snapshot_events();
    h.word(events.len() as u64);
    for e in &events {
        h.words([e.at_ns, u64::from(e.node)]);
        h.words(format!("{:?}", e.kind).bytes().map(u64::from));
    }
    h.word(digest(&out));
    h.0
}

fn base(schedule: UpdateSchedule) -> MsgPassConfig {
    MsgPassConfig::new(4, schedule)
}

fn sender() -> MsgPassConfig {
    base(UpdateSchedule::sender_initiated(2, 5))
}

fn lossy_reliable() -> MsgPassConfig {
    let plan =
        FaultPlan::uniform_loss(42, 1_000).with_duplicates(500, 20_000).with_reorders(500, 50_000);
    sender().with_faults(plan).with_reliability()
}

fn recovery() -> MsgPassConfig {
    sender().with_reliability().with_recovery_config(RecoveryConfig {
        checkpoint_every: 4,
        heartbeat_ns: 20_000_000,
        suspect_after: 3,
        checkpoint_per_byte_ns: 1,
    })
}

fn with_node_fault(node: u32, fault: NodeFault) -> MsgPassConfig {
    recovery().with_faults(FaultPlan::none().with_node_fault(node, fault))
}

/// Half the completion time of the clean recovery run: every node fault
/// below lands mid-routing.
fn mid_ns() -> u64 {
    run_msgpass(&presets::small(), recovery()).net.completion.as_ns() / 2
}

fn cases() -> Vec<(&'static str, MsgPassConfig)> {
    let mid = mid_ns();
    vec![
        ("sender_initiated(2,5)", sender()),
        ("receiver_initiated(1,5)", base(UpdateSchedule::receiver_initiated(1, 5))),
        (
            "receiver_initiated_blocking(2,3)",
            base(UpdateSchedule::receiver_initiated_blocking(2, 3)),
        ),
        ("mixed_paper", base(UpdateSchedule::mixed_paper())),
        ("never", base(UpdateSchedule::never())),
        ("full-region", sender().with_structure(PacketStructure::FullRegion)),
        ("wire-based", sender().with_structure(PacketStructure::WireBased)),
        ("dynamic-wires", sender().with_dynamic_wires()),
        ("audit-every-4", sender().with_audit_every(4)),
        ("lossy-reliable", lossy_reliable()),
        ("lossy-reliable-receiver", {
            let plan = FaultPlan::uniform_loss(7, 800)
                .with_duplicates(300, 20_000)
                .with_reorders(300, 50_000);
            base(UpdateSchedule::receiver_initiated(2, 5)).with_faults(plan).with_reliability()
        }),
        ("lossy-reliable-dynamic", {
            let plan = FaultPlan::uniform_loss(11, 1_500).with_duplicates(500, 20_000);
            sender().with_dynamic_wires().with_faults(plan).with_reliability()
        }),
        ("recovery-clean", recovery()),
        ("worker-crash", with_node_fault(3, NodeFault::Crash { at_ns: mid })),
        (
            "worker-restart",
            with_node_fault(2, NodeFault::CrashRestart { at_ns: mid, downtime_ns: 50_000 }),
        ),
        (
            "worker-restart-after-death",
            with_node_fault(2, NodeFault::CrashRestart { at_ns: mid, downtime_ns: 200_000_000 }),
        ),
        (
            "worker-stall",
            with_node_fault(1, NodeFault::Stall { at_ns: mid / 2, factor: 4, duration_ns: mid }),
        ),
        ("coordinator-crash", with_node_fault(0, NodeFault::Crash { at_ns: mid })),
        (
            "coordinator-restart-after-death",
            with_node_fault(0, NodeFault::CrashRestart { at_ns: mid, downtime_ns: 200_000_000 }),
        ),
        (
            "coordinator-and-worker-crash",
            recovery().with_faults(
                FaultPlan::none()
                    .with_node_fault(0, NodeFault::Crash { at_ns: mid / 2 })
                    .with_node_fault(2, NodeFault::Crash { at_ns: mid }),
            ),
        ),
    ]
}

#[rustfmt::skip]
const OUTCOMES: &[(&str, u64)] = &[
    ("sender_initiated(2,5)", 0x375acbe9467c9a1e),
    ("receiver_initiated(1,5)", 0xcc50958170a02eb2),
    ("receiver_initiated_blocking(2,3)", 0x678d24850e3ff0ce),
    ("mixed_paper", 0xd7391943ef4332d0),
    ("never", 0xc5a2d7690c9dcda9),
    ("full-region", 0x43cc182d26fe4987),
    ("wire-based", 0x5dec3fc777836eeb),
    ("dynamic-wires", 0x023fe0290184a7f8),
    ("audit-every-4", 0xc6671c1ac588439b),
    ("lossy-reliable", 0xd5b7d2b08e31862f),
    ("lossy-reliable-receiver", 0x087f750858459674),
    ("lossy-reliable-dynamic", 0xfd8588b87999815a),
    ("recovery-clean", 0xc4cceed8cd97ab6a),
    ("worker-crash", 0x95c2fa36ce77d48a),
    ("worker-restart", 0x8036dee64b743eb6),
    ("worker-restart-after-death", 0xf91bccb080363c68),
    ("worker-stall", 0xea2c439831e2be79),
    ("coordinator-crash", 0x90fa5f9558a90d97),
    ("coordinator-restart-after-death", 0x290e31b74877a768),
    // Re-pinned when the control plane began counting grants. The old
    // pin, 0x398a1ecc6641a281, was a `Deadlock` in which the watchdog
    // routed wires 58, 82, 84, 87, 94, 97, 105, 106, 114 and 119. This
    // run does not degrade.
    ("coordinator-and-worker-crash", 0x5c6fbd6b4617177b),
];

/// Re-pinned when the end-of-run `KernelStats` events were retired: the
/// build of f582d0d, with those events left out, hashes to these values.
#[rustfmt::skip]
const STREAMS: &[(&str, u64)] = &[
    ("plain", 0xcef1ec2e736892b2),
    ("lossy-reliable", 0xf4882aacde9a623b),
    ("worker-crash", 0x00e0b7e10935064d),
];

fn check(what: &str, got: Vec<(&'static str, u64)>, want: &[(&str, u64)]) {
    let table: String = got.iter().map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n")).collect();
    let same =
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.0 == w.0 && g.1 == w.1);
    assert!(same, "{what} differ from the pinned digests; computed:\n{table}");
}

#[test]
fn outcomes_match_the_parent_build() {
    let c = presets::small();
    let got =
        cases().into_iter().map(|(name, cfg)| (name, digest(&run_msgpass(&c, cfg)))).collect();
    check("outcomes", got, OUTCOMES);
}

#[test]
fn obs_event_streams_match_the_parent_build() {
    let crash = with_node_fault(3, NodeFault::Crash { at_ns: mid_ns() });
    let got = [("plain", sender()), ("lossy-reliable", lossy_reliable()), ("worker-crash", crash)]
        .into_iter()
        .map(|(name, cfg)| (name, stream_digest(cfg)))
        .collect();
    check("event streams", got, STREAMS);
}
