//! Cross-engine equivalence: with one processor there is no concurrency,
//! so every engine must reduce to the identical sequential algorithm —
//! same routes, same quality, bit for bit.

use locusroute::analysis::classify::classify_races;
use locusroute::analysis::detect;
use locusroute::coherence::Trace;
use locusroute::prelude::*;

#[test]
fn registry_engines_agree_at_one_processor_on_small_and_bnre() {
    for circuit in [locusroute::circuit::presets::small(), locusroute::circuit::presets::bnr_e()] {
        let params = RouterParams::default();
        let reference =
            locusroute::engines::run("sequential", &circuit, &params, 1, false).expect("valid");
        for entry in registry() {
            let run = (entry.run)(&circuit, &params, 1, false).expect("valid");
            assert_eq!(
                run.outcome.quality, reference.outcome.quality,
                "{} != sequential on {} at P=1",
                entry.name, circuit.name
            );
            assert_eq!(
                run.outcome.routes, reference.outcome.routes,
                "{} routes diverge on {} at P=1",
                entry.name, circuit.name
            );
        }
    }
}

#[test]
fn all_four_engines_agree_at_one_processor() {
    let circuit = locusroute::circuit::presets::small();
    let params = RouterParams::default();

    let seq = SequentialRouter::new(&circuit, params).run();
    let emul = ShmemEmulator::new(&circuit, ShmemConfig::new(1)).run();
    let threads = ThreadedRouter::new(&circuit, ShmemConfig::new(1)).run();
    let msg = run_msgpass(&circuit, MsgPassConfig::new(1, UpdateSchedule::never()));

    assert_eq!(seq.quality, emul.quality, "emulator != sequential");
    assert_eq!(seq.quality, threads.quality, "threads != sequential");
    assert_eq!(seq.quality, msg.quality, "message passing != sequential");
    assert_eq!(seq.routes, emul.routes);
    assert_eq!(seq.routes, threads.routes);
    assert_eq!(seq.routes, msg.routes);
}

#[test]
fn single_proc_equivalence_holds_across_iteration_counts() {
    let circuit = locusroute::circuit::presets::tiny();
    for iterations in [1usize, 2, 4] {
        let params = RouterParams::default().with_iterations(iterations);
        let seq = SequentialRouter::new(&circuit, params).run();
        let emul = ShmemEmulator::new(&circuit, ShmemConfig::new(1).with_params(params)).run();
        let msg = run_msgpass(
            &circuit,
            MsgPassConfig::new(1, UpdateSchedule::never()).with_params(params),
        );
        assert_eq!(seq.quality, emul.quality, "iterations={iterations}");
        assert_eq!(seq.quality, msg.quality, "iterations={iterations}");
    }
}

#[test]
fn deterministic_engines_are_bitwise_repeatable() {
    let circuit = locusroute::circuit::presets::small();

    let m1 = run_msgpass(&circuit, MsgPassConfig::new(4, UpdateSchedule::mixed_paper()));
    let m2 = run_msgpass(&circuit, MsgPassConfig::new(4, UpdateSchedule::mixed_paper()));
    assert_eq!(m1.quality, m2.quality);
    assert_eq!(m1.routes, m2.routes);
    assert_eq!(m1.net, m2.net);

    let e1 = ShmemEmulator::new(&circuit, ShmemConfig::new(4).with_trace()).run();
    let e2 = ShmemEmulator::new(&circuit, ShmemConfig::new(4).with_trace()).run();
    assert_eq!(e1.quality, e2.quality);
    assert_eq!(e1.trace, e2.trace);
}

#[test]
fn sharded_threads_match_sequential_at_one_proc_and_stay_banded_above() {
    // Shard ownership (the default untraced threads path) keeps every
    // worker's replica private. At P=1 the replica sees every
    // write immediately, so the run is bit-identical to sequential; at
    // P>1 cross-worker routes land only at iteration barriers, so exact
    // equality is impossible by design — instead a static assignment
    // makes the run bitwise repeatable, and quality must stay in the
    // paper's degradation band.
    for circuit in [locusroute::circuit::presets::small(), locusroute::circuit::presets::bnr_e()] {
        let seq = SequentialRouter::new(&circuit, RouterParams::default()).run();
        for p in [1usize, 2, 4] {
            let cfg = ShmemConfig::new(p).with_static_assignment(AssignmentStrategy::RoundRobin);
            let a = ThreadedRouter::new(&circuit, cfg).run();
            if p == 1 {
                assert_eq!(a.quality, seq.quality, "sharded P=1 on {}", circuit.name);
                assert_eq!(a.routes, seq.routes, "sharded P=1 routes on {}", circuit.name);
            } else {
                let b = ThreadedRouter::new(&circuit, cfg).run();
                assert_eq!(a.quality, b.quality, "sharded P={p} repeat on {}", circuit.name);
                assert_eq!(a.routes, b.routes, "sharded P={p} routes repeat on {}", circuit.name);
                let h = a.quality.circuit_height as f64;
                let hs = seq.quality.circuit_height as f64;
                assert!(
                    h <= hs * 1.5 && h >= hs * 0.8,
                    "sharded P={p} height {h} outside band of sequential {hs} on {}",
                    circuit.name
                );
            }
        }
    }
}

#[test]
fn conservation_holds_in_every_engine() {
    use locusroute::router::CostArray;
    let circuit = locusroute::circuit::presets::small();

    let check = |routes: &[locusroute::router::Route], height: u64, label: &str| {
        let mut truth = CostArray::new(circuit.channels, circuit.grids);
        for r in routes {
            truth.add_route(r);
        }
        assert_eq!(truth.circuit_height(), height, "{label}: height mismatch");
        let coverage: u64 = routes.iter().map(|r| r.len() as u64).sum();
        assert_eq!(truth.total(), coverage, "{label}: coverage mismatch");
    };

    let seq = SequentialRouter::new(&circuit, RouterParams::default()).run();
    check(&seq.routes, seq.quality.circuit_height, "sequential");

    let emul = ShmemEmulator::new(&circuit, ShmemConfig::new(4)).run();
    check(&emul.routes, emul.quality.circuit_height, "emulator");

    let threads = ThreadedRouter::new(&circuit, ShmemConfig::new(4)).run();
    check(&threads.routes, threads.quality.circuit_height, "threads");

    let msg = run_msgpass(&circuit, MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 5)));
    check(&msg.routes, msg.quality.circuit_height, "message passing");
}

/// The reference trace `analyze` records for a shared-memory engine: the
/// emulator's, for `shmem-emul` and for `sequential` (the emulator at one
/// processor).
fn traced_run(circuit: &Circuit, procs: usize) -> Trace {
    ShmemEmulator::new(circuit, ShmemConfig::new(procs).with_trace())
        .run()
        .trace
        .expect("a traced run records a trace")
}

#[test]
fn sequential_trace_has_zero_race_pairs() {
    let circuit = locusroute::circuit::presets::small();
    let detection = detect(&traced_run(&circuit, 1));
    assert!(detection.refs > 0, "sequential trace recorded no references");
    assert_eq!(detection.races.len(), 0, "a single-threaded trace can never race");
    assert_eq!(detection.synchronized_pairs, 0, "one processor has no cross-proc pairs");
}

#[test]
fn one_processor_emulator_trace_is_race_free() {
    let circuit = locusroute::circuit::presets::small();
    let detection = detect(&traced_run(&circuit, 1));
    assert_eq!(detection.races.len(), 0, "shmem-emul at P=1 must be race-free");
}

#[test]
fn parallel_emulator_races_match_detector_and_are_classified() {
    let circuit = locusroute::circuit::presets::small();
    let trace = traced_run(&circuit, 4);
    let detection = detect(&trace);
    assert!(detection.epochs >= 1);
    let races = detection.races.clone();
    assert!(!races.is_empty(), "4 unsynchronized procs on one cost array must race");
    let overshoot = RouterParams::default().channel_overshoot;
    let classified = classify_races(&circuit, &trace, detection.races, overshoot);
    assert_eq!(classified.len(), races.len(), "every race carries a classification");
    for (verdict, race) in classified.iter().zip(&races) {
        assert_eq!(verdict.pair.key(), race.key(), "verdicts keep the detector's order");
    }
}

#[test]
fn faulted_engine_at_one_processor_matches_sequential() {
    let circuit = locusroute::circuit::presets::small();
    let reference = SequentialRouter::new(&circuit, RouterParams::default()).run();
    // 15% uniform loss with reliability on: one processor has no replica
    // staleness, so dropped-and-retransmitted packets cannot change the
    // routing result — only the simulated clock.
    let faulted = run_msgpass(
        &circuit,
        MsgPassConfig::new(1, UpdateSchedule::sender_initiated(2, 10))
            .with_faults(FaultPlan::uniform_loss(7, 1500))
            .with_reliability(),
    );
    assert_eq!(faulted.quality, reference.quality);
    assert_eq!(faulted.routes, reference.routes);
}

#[test]
fn recovery_armed_crash_free_run_matches_sequential_at_one_processor() {
    // Recovery machinery armed but never fired: checkpoints and
    // heartbeats are charged to the simulated clock only, so the
    // routing result must stay bit-identical to sequential. Recovery
    // pins the run to one iteration, so the reference gets one too.
    let circuit = locusroute::circuit::presets::small();
    let params = RouterParams::default().with_iterations(1);
    let seq = SequentialRouter::new(&circuit, params).run();
    let cfg = MsgPassConfig::new(1, UpdateSchedule::never())
        .with_reliability()
        .with_recovery_config(RecoveryConfig {
            checkpoint_every: 4,
            heartbeat_ns: 20_000_000,
            suspect_after: 3,
            checkpoint_per_byte_ns: 1,
        });
    let out = run_msgpass(&circuit, cfg);
    assert!(!out.deadlocked);
    assert_eq!(out.quality, seq.quality, "recovery-armed P=1 != sequential");
    assert_eq!(out.routes, seq.routes);
    assert!(out.recovery.checkpoints_taken > 0, "checkpointing must actually run");
    assert_eq!(out.recovery.nodes_declared_dead, 0, "nobody dies in a crash-free run");
    assert_eq!(out.recovery.coordinator_failovers, 0);
    assert_eq!(out.watchdog_recoveries, 0);
}

#[test]
fn faulted_parallel_runs_are_bitwise_repeatable() {
    let circuit = locusroute::circuit::presets::small();
    let cfg = || {
        MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10))
            .with_faults(FaultPlan::uniform_loss(11, 1000).with_duplicates(300, 40_000))
            .with_reliability()
    };
    let m1 = run_msgpass(&circuit, cfg());
    let m2 = run_msgpass(&circuit, cfg());
    assert!(!m1.deadlocked, "reliable run must terminate");
    assert_eq!(m1.quality, m2.quality);
    assert_eq!(m1.routes, m2.routes);
    assert_eq!(m1.net, m2.net);
    assert_eq!(m1.reliability, m2.reliability);
    assert!(m1.net.faults_injected() > 0, "the plan must actually fire");
}

#[test]
fn every_route_covers_its_wire_pins() {
    let circuit = locusroute::circuit::presets::small();
    let msg =
        run_msgpass(&circuit, MsgPassConfig::new(4, UpdateSchedule::receiver_initiated(1, 5)));
    for (wire, route) in circuit.wires.iter().zip(&msg.routes) {
        for pin in &wire.pins {
            assert!(
                route.cells().binary_search(&pin.cell()).is_ok(),
                "wire {} pin {pin:?} not covered by its route",
                wire.id
            );
        }
    }
}
