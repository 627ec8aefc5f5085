//! Cross-checks the observability subsystem against the engines' own
//! statistics: the sink-derived counters must agree *exactly* with
//! `NetStats`, and the exporters must emit valid JSON.

use locusroute::msgpass::{run_msgpass_observed, MsgPassConfig, UpdateSchedule};
use locusroute::obs::{export, SharedSink};

#[test]
fn obs_counters_match_netstats_on_16_proc_bnr_e() {
    let circuit = locusroute::circuit::presets::bnr_e();
    let cfg = MsgPassConfig::new(16, UpdateSchedule::sender_initiated(2, 10));
    let sink = SharedSink::new();
    let out = run_msgpass_observed(&circuit, cfg, sink.clone());
    assert!(!out.deadlocked);

    let m = sink.metrics_snapshot();
    // The exact identity the subsystem is built around: payload bytes
    // counted by PacketSent events equal the network layer's own total.
    assert_eq!(m.counter("bytes_sent"), out.net.payload_bytes);
    assert_eq!(m.counter("packets_sent"), out.net.packets);
    assert_eq!(m.counter("wire_bytes_sent"), out.net.wire_bytes);
    assert_eq!(m.counter("contention_ns"), out.net.contention_ns);
    // Every injected packet is eventually delivered (clean termination).
    assert_eq!(m.counter("packets_delivered"), out.net.packets);
    assert_eq!(m.counter("bytes_delivered"), out.net.payload_bytes);
    // Routing-layer events flow through the same sink.
    assert_eq!(m.counter("wires_routed"), out.work.wires_routed);
}

#[test]
fn fault_counters_match_netstats_and_reliability_stats() {
    use locusroute::mesh::FaultPlan;
    let circuit = locusroute::circuit::presets::small();
    let cfg = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10))
        .with_faults(FaultPlan::uniform_loss(42, 1000).with_duplicates(300, 40_000))
        .with_reliability();
    let sink = SharedSink::new();
    let out = run_msgpass_observed(&circuit, cfg, sink.clone());
    assert!(!out.deadlocked, "reliable run must terminate");
    assert!(out.net.faults_injected() > 0, "the plan must actually fire");

    let m = sink.metrics_snapshot();
    // Sink-derived fault counters agree exactly with the network layer.
    assert_eq!(m.counter("faults_injected"), out.net.faults_injected());
    assert_eq!(m.counter("packets_dropped"), out.net.packets_dropped);
    assert_eq!(m.counter("packets_duplicated"), out.net.packets_duplicated);
    assert_eq!(m.counter("packets_sent"), out.net.packets);
    // Dropped sends consume bandwidth but never arrive.
    assert_eq!(m.counter("packets_delivered"), out.net.packets - out.net.packets_dropped);
    // And with the reliability protocol's own bookkeeping.
    assert_eq!(m.counter("packets_retransmitted"), out.reliability.retransmits);
    assert_eq!(m.counter("acks_sent"), out.reliability.acks_sent);
    assert_eq!(m.counter("watchdog_recoveries"), 0, "clean run needs no watchdog");
}

#[test]
fn watchdog_recoveries_flow_through_the_sink() {
    use locusroute::mesh::FaultPlan;
    let circuit = locusroute::circuit::presets::small();
    // Total loss with no reliability: blocking requesters strand their
    // wires and the watchdog repairs them at collection time.
    let cfg = MsgPassConfig::new(4, UpdateSchedule::receiver_initiated_blocking(1, 1))
        .with_faults(FaultPlan::uniform_loss(1, 10_000));
    let sink = SharedSink::new();
    let out = run_msgpass_observed(&circuit, cfg, sink.clone());
    assert!(out.deadlocked);
    assert!(out.watchdog_recoveries > 0);
    let m = sink.metrics_snapshot();
    assert_eq!(m.counter("watchdog_recoveries"), out.watchdog_recoveries);
    assert_eq!(m.counter("packets_dropped"), out.net.packets_dropped);
}

#[test]
fn recovery_counters_match_recovery_stats() {
    use locusroute::mesh::{FaultPlan, NodeFault};
    use locusroute::msgpass::RecoveryConfig;
    let circuit = locusroute::circuit::presets::small();
    // Kill a worker mid-run with recovery armed: the sink-derived
    // counters must agree exactly with the run's own RecoveryStats.
    let cfg = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10))
        .with_reliability()
        .with_recovery_config(RecoveryConfig {
            checkpoint_every: 4,
            heartbeat_ns: 20_000_000,
            suspect_after: 3,
            checkpoint_per_byte_ns: 1,
        })
        .with_faults(FaultPlan::none().with_node_fault(2, NodeFault::Crash { at_ns: 60_000_000 }));
    let sink = SharedSink::new();
    let out = run_msgpass_observed(&circuit, cfg, sink.clone());
    assert!(!out.deadlocked);
    assert!(out.degraded.is_none(), "recovery must absorb a single crash: {:?}", out.degraded);
    assert_eq!(out.watchdog_recoveries, 0);
    assert!(out.recovery.nodes_declared_dead >= 1, "{:?}", out.recovery);
    assert!(out.recovery.wires_reassigned > 0, "{:?}", out.recovery);

    let m = sink.metrics_snapshot();
    assert_eq!(m.counter("node_crashes"), 1);
    assert_eq!(m.counter("checkpoints_taken"), out.recovery.checkpoints_taken);
    assert_eq!(m.counter("checkpoint_bytes"), out.recovery.checkpoint_bytes);
    assert_eq!(m.counter("wires_reassigned"), out.recovery.wires_reassigned);
    assert_eq!(m.counter("coordinator_failovers"), out.recovery.coordinator_failovers);
}

#[test]
fn observed_run_matches_unobserved_run() {
    // Instrumentation must never perturb the simulation.
    let circuit = locusroute::circuit::presets::small();
    let cfg = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 5));
    let plain = locusroute::msgpass::run_msgpass(&circuit, cfg);
    let observed = run_msgpass_observed(&circuit, cfg, SharedSink::new());
    assert_eq!(plain.quality, observed.quality);
    assert_eq!(plain.routes, observed.routes);
    assert_eq!(plain.net, observed.net);
}

#[test]
fn exporters_emit_valid_json() {
    let circuit = locusroute::circuit::presets::small();
    let cfg = MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 5));
    let sink = SharedSink::new();
    let out = run_msgpass_observed(&circuit, cfg, sink.clone());
    assert!(!out.deadlocked);

    let events = sink.snapshot_events();
    assert!(!events.is_empty());
    let trace = export::chrome_trace(&events);
    export::validate_json(&trace).expect("chrome trace must be valid JSON");
    assert!(trace.starts_with('['), "trace-event format is a JSON array");

    let metrics = export::metrics_json(&sink.metrics_snapshot());
    export::validate_json(&metrics).expect("metrics must be valid JSON");

    // The ASCII timeline renders one row per active node.
    let timeline = export::ascii_timeline(&events, 72);
    assert!(timeline.contains("node"));
}
