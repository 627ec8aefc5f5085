//! Simulation driver: runs a full message-passing routing experiment and
//! gathers the paper's metrics.

use std::cell::RefCell;
use std::sync::Arc;

use locus_circuit::Circuit;
use locus_mesh::{Kernel, NetStats};
use locus_obs::{EventKind, Obs, SharedSink};
use locus_router::locality::{locality_measure, LocalityMeasure};
use locus_router::router::route_wire_scratch;
use locus_router::{
    assign, CostArray, EvalScratch, ProcId, QualityMetrics, RegionMap, Route, WorkStats,
};

use crate::config::MsgPassConfig;
use crate::node::{ReplicaSnapshot, RouterNode};
use crate::packet::PacketCounts;
use crate::recovery::RecoveryStats;
use crate::reliable::ReliableStats;

/// Why a run failed to complete normally (see
/// [`MsgPassOutcome::degraded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedKind {
    /// Every node went idle with work outstanding — typically a critical
    /// packet (a `WireGrant`, a blocking-request response, `Finished`,
    /// `Terminate`) was lost with no reliability layer to repair it, or
    /// the sender exhausted its retries.
    Deadlock,
    /// The kernel's event limit tripped before the protocol converged.
    EventLimit,
}

/// Watchdog report of a degraded run: what went wrong and which wires
/// the simulated machine never finished (they were routed locally by the
/// watchdog so the outcome still describes a complete circuit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradedReason {
    /// What ended the run.
    pub kind: DegradedKind,
    /// Wires no processor had routed when the run stopped, in the order
    /// the watchdog recovered them.
    pub unrouted_wires: Vec<u32>,
}

/// Everything measured from one message-passing run — the columns of
/// Tables 1, 2, 4 and 6 plus diagnostics.
#[derive(Clone, Debug)]
pub struct MsgPassOutcome {
    /// Circuit height and occupancy factor.
    pub quality: QualityMetrics,
    /// Network statistics (packets, bytes, contention, completion time).
    pub net: NetStats,
    /// "Time (s)": simulated completion time.
    pub time_secs: f64,
    /// Virtual time at which the last processor completed its last
    /// routing work — the routing span. Everything between this and
    /// `time_secs` is cost-update exchange, checkpointing, and the
    /// termination protocol.
    pub routing_done_secs: f64,
    /// Per-processor routing-completion times (`routing_done_secs` is
    /// the maximum). The spread is the static assignment's load
    /// imbalance expressed in simulated time.
    pub routing_done_secs_by_proc: Vec<f64>,
    /// "MBytes Xfrd.": application payload megabytes moved.
    pub mbytes: f64,
    /// Final route of every wire.
    pub routes: Vec<Route>,
    /// Which processor routed each wire.
    pub proc_of_wire: Vec<ProcId>,
    /// Locality measure of the final solution (§5.3.3).
    pub locality: LocalityMeasure,
    /// Per-kind packet counts.
    pub packets: PacketCounts,
    /// Aggregate routing work.
    pub work: WorkStats,
    /// Occupancy factor accumulated in each iteration, summed across
    /// nodes (the last entry is the reported occupancy factor).
    pub occupancy_by_iteration: Vec<u64>,
    /// The true final cost-array state (rebuilt from the routes).
    pub cost: CostArray,
    /// Mean absolute per-cell divergence between node replicas and the
    /// true final cost array — how stale the views were at the end.
    pub replica_divergence: f64,
    /// Mid-run staleness snapshots from every node, in audit order
    /// (empty unless [`MsgPassConfig::audit_every`] was set).
    pub replica_audits: Vec<ReplicaSnapshot>,
    /// Load imbalance of the static assignment (max/mean).
    pub imbalance: f64,
    /// True if the simulation did not terminate cleanly.
    pub deadlocked: bool,
    /// `Some` when the run degraded (deadlock or event limit) and the
    /// watchdog completed it; `None` for a clean run.
    pub degraded: Option<DegradedReason>,
    /// Wires the watchdog routed locally because no processor finished
    /// them (`unrouted_wires.len()` of [`DegradedReason`]).
    pub watchdog_recoveries: u64,
    /// Aggregated reliable-transport counters across all nodes (all zero
    /// when the protocol is disabled).
    pub reliability: ReliableStats,
    /// Aggregated recovery counters across all nodes (all zero when
    /// [`MsgPassConfig::recovery`] is off).
    pub recovery: RecoveryStats,
}

/// Runs the message-passing LocusRoute on `circuit` under `config`.
///
/// # Panics
/// Panics if the configuration is invalid (see
/// [`MsgPassConfig::validate`]).
pub fn run_msgpass(circuit: &Circuit, config: MsgPassConfig) -> MsgPassOutcome {
    let mesh = config.mesh_config();
    run_inner(circuit, config, mesh, Obs::off()).expect("invalid message-passing run")
}

/// Like [`run_msgpass`] but recording every routing and network event
/// into `sink`; read results back through the caller's clone of the
/// sink after the run.
///
/// # Panics
/// Panics if the configuration is invalid.
pub fn run_msgpass_observed(
    circuit: &Circuit,
    config: MsgPassConfig,
    sink: SharedSink,
) -> MsgPassOutcome {
    let mesh = config.mesh_config();
    run_inner(circuit, config, mesh, Obs::to(&sink)).expect("invalid message-passing run")
}

/// Like [`run_msgpass`] but with an explicit mesh configuration —
/// used by the contention ablation.
///
/// # Errors
/// Returns the error of [`MsgPassConfig::validate`] or
/// [`MeshConfig::validate`](locus_mesh::MeshConfig::validate), or says
/// that the mesh does not have `config.n_procs` nodes or that the
/// circuit's surface cannot be split among them.
pub fn run_msgpass_with_mesh(
    circuit: &Circuit,
    config: MsgPassConfig,
    mesh: locus_mesh::MeshConfig,
) -> Result<MsgPassOutcome, String> {
    run_inner(circuit, config, mesh, Obs::off())
}

/// Checks the run before anything is allocated for it, then runs it.
fn run_inner(
    circuit: &Circuit,
    config: MsgPassConfig,
    mesh: locus_mesh::MeshConfig,
    obs: Obs,
) -> Result<MsgPassOutcome, String> {
    mesh.validate()?;
    config.validate()?;
    if mesh.n_nodes() != config.n_procs {
        return Err(format!(
            "the mesh has {} nodes but n_procs is {}",
            mesh.n_nodes(),
            config.n_procs
        ));
    }
    let regions = Arc::new(RegionMap::try_new(circuit.channels, circuit.grids, config.n_procs)?);
    let dynamic = config.wire_source == crate::config::WireSource::Dynamic;
    // Under dynamic distribution the static assignment phase is skipped;
    // wires flow over the network at run time.
    let assignment = if dynamic {
        locus_router::Assignment {
            wires_per_proc: vec![Vec::new(); config.n_procs],
            proc_of_wire: vec![0; circuit.wire_count()],
        }
    } else {
        assign(circuit, &regions, config.assignment)
    };
    let imbalance = if dynamic { 1.0 } else { assignment.imbalance(circuit) };
    let mut proc_of_wire = assignment.proc_of_wire;
    let plan = Arc::new(assignment.wires_per_proc);

    let oracle = RefCell::new(CostArray::new(circuit.channels, circuit.grids));
    let truth_touched = config.audit_every.map(|_| {
        let n_cells = circuit.channels as usize * circuit.grids as usize;
        RefCell::new(vec![0u64; n_cells])
    });
    let nodes: Vec<RouterNode> = (0..config.n_procs)
        .map(|p| {
            RouterNode::new(
                p,
                circuit,
                Arc::clone(&regions),
                config,
                Arc::clone(&plan),
                &oracle,
                truth_touched.as_ref(),
            )
            .with_obs(obs.clone())
        })
        .collect();

    let mut outcome = Kernel::new(mesh, nodes).with_obs(obs.clone()).run();
    let deadlocked = outcome.stats.deadlocked;

    // Collect the final routes (the actual routed circuit), and with
    // them the state the machine reached.
    let mut routes: Vec<Option<Route>> = vec![None; circuit.wire_count()];
    let mut truth = CostArray::new(circuit.channels, circuit.grids);
    let mut occupancy = 0u64;
    let mut occupancy_by_iteration: Vec<u64> = Vec::new();
    let mut work = WorkStats::default();
    let mut packets = PacketCounts::default();
    let mut replica_audits: Vec<ReplicaSnapshot> = Vec::new();
    let mut reliability = ReliableStats::default();
    let mut recovery = RecoveryStats::default();
    let mut routing_done_ns = 0u64;
    let mut routing_done_secs_by_proc = Vec::with_capacity(outcome.nodes.len());
    let recovery_on = config.recovery.is_some();
    for (p, node) in outcome.nodes.iter_mut().enumerate() {
        reliability.merge(&node.transport.stats);
        recovery.merge(&node.control.stats());
        routing_done_ns = routing_done_ns.max(node.routing_done_ns);
        routing_done_secs_by_proc.push(node.routing_done_ns as f64 / 1e9);
        replica_audits.extend_from_slice(&node.audits);
        let by_iter = node.driver.occupancy_by_iteration();
        occupancy += by_iter.last().copied().unwrap_or(0);
        if occupancy_by_iteration.len() < by_iter.len() {
            occupancy_by_iteration.resize(by_iter.len(), 0);
        }
        for (total, o) in occupancy_by_iteration.iter_mut().zip(by_iter) {
            *total += o;
        }
        work += *node.driver.work();
        packets.merge(&node.transport.sent);
        // A crashed node's post-checkpoint routes died with it; under
        // recovery a wire may also legitimately have been routed twice
        // (its owner was falsely or belatedly declared dead and an
        // adopter re-routed it) — the first writer in node order wins,
        // deterministically. Without recovery, double-routing is a bug
        // (`validate` rejects the one configuration known to cause it:
        // dynamic distribution under duplication, without reliability).
        // Either way the losing route leaves the shared truth too.
        for (w, r, survives) in node.take_routes(outcome.stats.crashed[p]) {
            if survives && routes[w].is_some() {
                assert!(recovery_on, "wire {w} routed by two processors");
                recovery.duplicate_routes += 1;
            }
            if !survives || routes[w].is_some() {
                oracle.borrow_mut().remove_route(&r);
                continue;
            }
            truth.add_route(&r);
            routes[w] = Some(r);
            proc_of_wire[w] = p;
        }
    }
    replica_audits.sort_by_key(|s| (s.at_ns, s.proc));

    // Watchdog: a lost critical packet (without the reliability layer)
    // or an exhausted retry budget can strand wires unrouted. Rather
    // than panicking, complete the circuit locally — route the missing
    // wires against the state the machine did reach — and report the
    // degradation so callers and experiments can see exactly what broke.
    let mut unrouted: Vec<u32> = Vec::new();
    let mut scratch = EvalScratch::default();
    let routes: Vec<Route> = routes
        .into_iter()
        .enumerate()
        .map(|(w, r)| match r {
            Some(r) => r,
            None => {
                unrouted.push(w as u32);
                let eval = route_wire_scratch(
                    &truth,
                    circuit.wire(w),
                    config.params.channel_overshoot,
                    &mut scratch,
                );
                truth.add_route(&eval.route);
                oracle.borrow_mut().add_route(&eval.route);
                eval.route
            }
        })
        .collect();
    let watchdog_recoveries = unrouted.len() as u64;
    // Conservation: the shared truth the nodes wrote as they committed,
    // less the routes that died with a crashed node or lost to a
    // duplicate and plus the watchdog's, holds exactly the final routes.
    assert!(*oracle.borrow() == truth, "the shared truth differs from the final routes");
    for &wire in &unrouted {
        obs.emit_on(outcome.stats.completion.as_ns(), 0, EventKind::WatchdogRecovery { wire });
    }
    let degraded = if deadlocked || !unrouted.is_empty() {
        let kind = if outcome.stats.event_limit_hit {
            DegradedKind::EventLimit
        } else {
            DegradedKind::Deadlock
        };
        Some(DegradedReason { kind, unrouted_wires: unrouted })
    } else {
        None
    };

    // With the stranded wires in, `truth` is the final cost array.
    let quality = QualityMetrics::from_final_state(&truth, occupancy);

    // Replica staleness diagnostic.
    let n_cells = circuit.channels as u64 * circuit.grids as u64;
    let mut divergence = 0.0;
    for node in &outcome.nodes {
        divergence += node.replica.abs_difference(&truth) as f64 / n_cells as f64;
    }
    divergence /= config.n_procs as f64;

    let locality = locality_measure(&routes, &proc_of_wire, &regions);

    Ok(MsgPassOutcome {
        quality,
        time_secs: outcome.stats.completion.as_secs_f64(),
        routing_done_secs: routing_done_ns as f64 / 1e9,
        routing_done_secs_by_proc,
        mbytes: outcome.stats.mbytes_transferred(),
        net: outcome.stats,
        routes,
        proc_of_wire,
        locality,
        packets,
        work,
        occupancy_by_iteration,
        cost: truth,
        replica_divergence: divergence,
        replica_audits,
        imbalance,
        deadlocked,
        degraded,
        watchdog_recoveries,
        reliability,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::schedule::UpdateSchedule;
    use locus_router::{AssignmentStrategy, RouterParams, SequentialRouter};

    fn small_config(n_procs: usize, schedule: UpdateSchedule) -> MsgPassConfig {
        MsgPassConfig::new(n_procs, schedule)
    }

    #[test]
    fn four_proc_sender_initiated_completes() {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(&c, small_config(4, UpdateSchedule::sender_initiated(2, 5)));
        assert!(!out.deadlocked, "simulation must terminate cleanly");
        assert_eq!(out.routes.len(), c.wire_count());
        assert!(out.quality.circuit_height > 0);
        assert!(out.time_secs > 0.0);
        assert!(out.mbytes > 0.0);
        assert!(out.packets.packets(PacketKind::SendRmtData) > 0);
        assert_eq!(out.packets.packets(PacketKind::ReqRmtData), 0);
    }

    #[test]
    fn a_callers_mesh_is_checked_and_its_errors_named() {
        use locus_mesh::MeshConfig;
        let c = locus_circuit::presets::tiny();
        let cfg = small_config(4, UpdateSchedule::sender_paper());
        let err = |mesh| run_msgpass_with_mesh(&c, cfg, mesh).expect_err("an invalid run");
        assert!(err(MeshConfig::ametek(1, 3)).contains("the mesh has 3 nodes but n_procs is 4"));
        assert!(err(MeshConfig::ametek(2, 0)).contains("MeshConfig::rows × cols = 2 × 0"));
        let big = usize::MAX / 2;
        let err =
            run_msgpass_with_mesh(&c, small_config(big, cfg.schedule), MeshConfig::ametek(1, big))
                .expect_err("no processor count past u32::MAX");
        assert!(err.contains("exceeds u32::MAX"), "{err}");
        let contention_off = run_msgpass_with_mesh(&c, cfg, cfg.mesh_config().without_contention())
            .expect("a valid run");
        assert_eq!(contention_off.net.contention_ns, 0);
        assert_eq!(contention_off.routes.len(), c.wire_count());
        // The contention ablation's eager sender on `small` does contend.
        let eager = small_config(4, UpdateSchedule::sender_initiated(2, 1));
        let contended = run_msgpass(&locus_circuit::presets::small(), eager);
        assert!(contended.net.contention_ns > 0, "chatty schedule must contend");
    }

    /// A duplicated `WireGrant` hands one wire to two processors, so
    /// dynamic distribution over a duplicating mesh needs the reliable
    /// layer, which delivers each packet once: without it the run is an
    /// `Err` that names the wire distribution, not a wire routed twice.
    #[test]
    fn a_duplicated_wire_grant_needs_the_reliable_layer() {
        let c = locus_circuit::presets::small();
        let dynamic = small_config(4, UpdateSchedule::sender_initiated(2, 5)).with_dynamic_wires();
        for seed in 0..5 {
            let faults =
                locus_mesh::FaultPlan::uniform_loss(seed, 0).with_duplicates(3_000, 20_000);
            let config = dynamic.with_faults(faults);
            let err =
                run_msgpass_with_mesh(&c, config, config.mesh_config()).expect_err("rejected");
            assert!(err.contains("wire distribution"), "seed {seed}: {err}");
            let out = run_msgpass(&c, config.with_reliability());
            assert_eq!(out.recovery.duplicate_routes, 0, "seed {seed}");
            assert!(out.degraded.is_none() && out.routes.iter().all(|r| !r.cells().is_empty()));
        }
    }

    #[test]
    fn four_proc_receiver_initiated_completes() {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(&c, small_config(4, UpdateSchedule::receiver_initiated(2, 5)));
        assert!(!out.deadlocked);
        assert!(out.packets.packets(PacketKind::ReqRmtData) > 0);
        assert!(out.packets.packets(PacketKind::ReqRmtDataResponse) > 0);
        assert_eq!(out.packets.packets(PacketKind::SendLocData), 0);
        assert_eq!(out.packets.packets(PacketKind::SendRmtData), 0);
    }

    #[test]
    fn blocking_receiver_completes_and_is_slower() {
        let c = locus_circuit::presets::small();
        let nb = run_msgpass(&c, small_config(4, UpdateSchedule::receiver_initiated(2, 3)));
        let bl =
            run_msgpass(&c, small_config(4, UpdateSchedule::receiver_initiated_blocking(2, 3)));
        assert!(!nb.deadlocked && !bl.deadlocked);
        assert!(
            bl.time_secs >= nb.time_secs,
            "blocking ({:.6}s) must not beat non-blocking ({:.6}s)",
            bl.time_secs,
            nb.time_secs
        );
    }

    #[test]
    fn single_processor_matches_sequential_router() {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(&c, small_config(1, UpdateSchedule::never()));
        let seq = SequentialRouter::new(&c, RouterParams::default()).run();
        assert_eq!(out.quality, seq.quality, "P=1 must reduce to the sequential algorithm");
        assert_eq!(out.routes, seq.routes);
        assert_eq!(out.net.packets, 0, "a single node never uses the network");
    }

    #[test]
    fn runs_are_deterministic() {
        let c = locus_circuit::presets::small();
        let cfg = small_config(4, UpdateSchedule::sender_initiated(2, 5));
        let a = run_msgpass(&c, cfg);
        let b = run_msgpass(&c, cfg);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.net, b.net);
        assert_eq!(a.routes, b.routes);
    }

    #[test]
    fn frequent_updates_reduce_replica_divergence() {
        let c = locus_circuit::presets::small();
        let frequent = run_msgpass(&c, small_config(4, UpdateSchedule::sender_initiated(1, 1)));
        let never = run_msgpass(&c, small_config(4, UpdateSchedule::never()));
        assert!(
            frequent.replica_divergence < never.replica_divergence,
            "frequent updates {:.4} must track truth better than none {:.4}",
            frequent.replica_divergence,
            never.replica_divergence
        );
    }

    #[test]
    fn replica_audits_record_staleness() {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(
            &c,
            small_config(4, UpdateSchedule::sender_initiated(2, 5)).with_audit_every(4),
        );
        assert!(!out.deadlocked);
        assert!(!out.replica_audits.is_empty(), "audit stamps must fire");
        // Audits arrive time-sorted and every node contributes.
        assert!(out.replica_audits.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let procs: std::collections::BTreeSet<_> =
            out.replica_audits.iter().map(|s| s.proc).collect();
        assert_eq!(procs.len(), 4);
        // With updates every few wires, some audit must catch divergence
        // on a contended circuit.
        assert!(out.replica_audits.iter().any(|s| s.diverged_cells > 0));
        for s in &out.replica_audits {
            assert!(s.total_abs_divergence >= s.max_abs_divergence as u64);
            assert!(s.diverged_cells == 0 || s.max_abs_divergence > 0);
        }
        // Auditing must not change the routed result.
        let plain = run_msgpass(&c, small_config(4, UpdateSchedule::sender_initiated(2, 5)));
        assert_eq!(out.quality, plain.quality);
        assert_eq!(out.routes, plain.routes);
    }

    #[test]
    fn no_audits_by_default() {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(&c, small_config(4, UpdateSchedule::sender_initiated(2, 5)));
        assert!(out.replica_audits.is_empty());
    }

    #[test]
    fn conservation_of_coverage() {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(&c, small_config(4, UpdateSchedule::sender_initiated(2, 5)));
        let mut truth = CostArray::new(c.channels, c.grids);
        for r in &out.routes {
            truth.add_route(r);
        }
        assert_eq!(truth.circuit_height(), out.quality.circuit_height);
    }

    #[test]
    fn round_robin_assignment_works_end_to_end() {
        let c = locus_circuit::presets::small();
        let cfg = small_config(4, UpdateSchedule::sender_initiated(2, 5))
            .with_assignment(AssignmentStrategy::RoundRobin);
        let out = run_msgpass(&c, cfg);
        assert!(!out.deadlocked);
        // Round robin has worse locality than the default locality-based
        // assignment used by `small_config`.
        let local = run_msgpass(&c, small_config(4, UpdateSchedule::sender_initiated(2, 5)));
        assert!(out.locality.mean_hops >= local.locality.mean_hops);
    }

    #[test]
    fn wire_based_structure_completes_with_event_traffic_only() {
        use crate::config::PacketStructure;
        let c = locus_circuit::presets::small();
        let schedule = UpdateSchedule::sender_initiated(2, 5);
        let bbox = run_msgpass(&c, small_config(4, schedule));
        let wire =
            run_msgpass(&c, small_config(4, schedule).with_structure(PacketStructure::WireBased));
        assert!(!wire.deadlocked);
        assert_eq!(wire.routes.len(), c.wire_count());
        assert!(wire.packets.packets(PacketKind::WireData) > 0);
        assert_eq!(wire.packets.packets(PacketKind::SendLocData), 0);
        assert_eq!(wire.packets.packets(PacketKind::SendRmtData), 0);
        // Event packets are byte-compact (they carry coordinates, not
        // cell values) but flow even when rip-up and re-route cancel;
        // they also keep replicas usefully fresh.
        assert!(wire.net.payload_bytes > 0);
        assert!(
            wire.replica_divergence
                < run_msgpass(&c, small_config(4, UpdateSchedule::never())).replica_divergence,
            "wire events must inform replicas"
        );
        // Both schemes deliver comparable solution quality.
        let ratio = wire.quality.circuit_height as f64 / bbox.quality.circuit_height as f64;
        assert!((0.8..=1.25).contains(&ratio), "quality ratio {ratio}");
    }

    #[test]
    fn full_region_structure_completes_and_moves_more_bytes() {
        use crate::config::PacketStructure;
        let c = locus_circuit::presets::small();
        let schedule = UpdateSchedule::sender_initiated(2, 5);
        let bbox = run_msgpass(&c, small_config(4, schedule));
        let full =
            run_msgpass(&c, small_config(4, schedule).with_structure(PacketStructure::FullRegion));
        assert!(!full.deadlocked);
        assert!(
            full.net.payload_bytes > bbox.net.payload_bytes,
            "full-region {} must exceed bounding-box {}",
            full.net.payload_bytes,
            bbox.net.payload_bytes
        );
        // Same transaction kinds, bigger payloads.
        assert!(full.packets.packets(PacketKind::SendLocData) > 0);
    }

    #[test]
    fn structures_route_to_comparable_quality() {
        use crate::config::PacketStructure;
        let c = locus_circuit::presets::small();
        let schedule = UpdateSchedule::sender_initiated(2, 5);
        let heights: Vec<u64> =
            [PacketStructure::BoundingBox, PacketStructure::FullRegion, PacketStructure::WireBased]
                .into_iter()
                .map(|st| {
                    run_msgpass(&c, small_config(4, schedule).with_structure(st))
                        .quality
                        .circuit_height
                })
                .collect();
        let min = *heights.iter().min().unwrap() as f64;
        let max = *heights.iter().max().unwrap() as f64;
        assert!(
            max / min < 1.2,
            "packet structure changes information timing, not semantics: {heights:?}"
        );
    }

    #[test]
    fn dynamic_distribution_routes_every_wire() {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(
            &c,
            small_config(4, UpdateSchedule::sender_initiated(2, 5)).with_dynamic_wires(),
        );
        assert!(!out.deadlocked, "dynamic run must terminate");
        assert_eq!(out.routes.len(), c.wire_count());
        // Wire requests/grants are visible as control traffic beyond the
        // 6 termination packets.
        assert!(out.packets.packets(PacketKind::Control) > 6);
        // Every processor (including the master) routed something.
        let mut counts = [0usize; 4];
        for &p in &out.proc_of_wire {
            counts[p] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn dynamic_distribution_is_deterministic() {
        let c = locus_circuit::presets::small();
        let cfg = small_config(4, UpdateSchedule::sender_initiated(2, 5)).with_dynamic_wires();
        let a = run_msgpass(&c, cfg);
        let b = run_msgpass(&c, cfg);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.proc_of_wire, b.proc_of_wire);
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn dynamic_distribution_pays_request_latency() {
        // §4.2: a worker "may have to wait for an entire wire to be
        // routed before the wire assignment processor even retrieves the
        // task request" — dynamic distribution must not beat the static
        // assignment on time for the same single-iteration schedule.
        let c = locus_circuit::presets::small();
        let params = RouterParams::default().with_iterations(1);
        let stat = run_msgpass(
            &c,
            small_config(4, UpdateSchedule::sender_initiated(2, 5)).with_params(params),
        );
        let dynamic = run_msgpass(
            &c,
            small_config(4, UpdateSchedule::sender_initiated(2, 5)).with_dynamic_wires(),
        );
        assert!(
            dynamic.time_secs >= stat.time_secs * 0.9,
            "dynamic {:.4}s should not significantly beat static {:.4}s",
            dynamic.time_secs,
            stat.time_secs
        );
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_no_plan() {
        use locus_mesh::FaultPlan;
        let c = locus_circuit::presets::small();
        let base = small_config(4, UpdateSchedule::sender_initiated(2, 5));
        let plan = FaultPlan::none().with_seed(99);
        assert!(!plan.has_node_faults(), "an empty plan carries no node faults");
        let plain = run_msgpass(&c, base);
        let with_plan = run_msgpass(&c, base.with_faults(plan));
        assert_eq!(plain.quality, with_plan.quality);
        assert_eq!(plain.net, with_plan.net);
        assert_eq!(plain.routes, with_plan.routes);
        assert_eq!(plain.packets, with_plan.packets);
        assert!(with_plan.degraded.is_none());
        assert_eq!(with_plan.reliability, ReliableStats::default());
        // Recovery off and no node faults: every recovery counter and
        // crash counter stays inert by construction.
        assert_eq!(with_plan.recovery, RecoveryStats::default());
        assert_eq!(with_plan.net.node_crashes, 0);
        assert_eq!(with_plan.net.node_restarts, 0);
        assert_eq!(with_plan.net.packets_lost_to_crash, 0);
    }

    #[test]
    fn reliable_run_survives_packet_loss() {
        use locus_mesh::FaultPlan;
        let c = locus_circuit::presets::small();
        let cfg = small_config(4, UpdateSchedule::sender_initiated(2, 5))
            .with_faults(FaultPlan::uniform_loss(42, 1_000))
            .with_reliability();
        let out = run_msgpass(&c, cfg);
        assert!(!out.deadlocked, "reliability must repair 10% loss");
        assert!(out.degraded.is_none(), "{:?}", out.degraded);
        assert_eq!(out.routes.len(), c.wire_count());
        assert!(out.net.packets_dropped > 0, "the plan must actually fire");
        assert!(out.reliability.retransmits > 0, "drops must trigger retransmissions");
        assert!(out.reliability.acks_sent > 0);
        // Solution quality survives: the protocol changes timing, never
        // semantics.
        let clean = run_msgpass(&c, small_config(4, UpdateSchedule::sender_initiated(2, 5)));
        let ratio = out.quality.circuit_height as f64 / clean.quality.circuit_height as f64;
        assert!((0.8..=1.25).contains(&ratio), "quality ratio {ratio}");
    }

    #[test]
    fn faulted_reliable_runs_are_deterministic() {
        use locus_mesh::FaultPlan;
        let c = locus_circuit::presets::small();
        let cfg = small_config(4, UpdateSchedule::receiver_initiated(2, 5))
            .with_faults(FaultPlan::uniform_loss(7, 800).with_duplicates(300, 20_000))
            .with_reliability();
        let a = run_msgpass(&c, cfg);
        let b = run_msgpass(&c, cfg);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.net, b.net);
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.reliability, b.reliability);
    }

    #[test]
    fn unreliable_total_loss_degrades_but_watchdog_completes() {
        use locus_mesh::FaultPlan;
        let c = locus_circuit::presets::small();
        // 100% loss with no reliability: blocking requesters wait forever
        // for responses that never come, and the termination protocol
        // never completes — the classic fault-induced deadlock.
        let cfg = small_config(4, UpdateSchedule::receiver_initiated_blocking(1, 1))
            .with_faults(FaultPlan::uniform_loss(1, 10_000));
        let out = run_msgpass(&c, cfg);
        assert!(out.deadlocked);
        let degraded = out.degraded.as_ref().expect("total loss must degrade the run");
        assert_eq!(degraded.kind, DegradedKind::Deadlock);
        assert_eq!(degraded.unrouted_wires.len() as u64, out.watchdog_recoveries);
        assert!(out.watchdog_recoveries > 0, "blocked nodes must strand wires");
        // The watchdog still delivered a complete circuit.
        assert_eq!(out.routes.len(), c.wire_count());
        assert!(out.quality.circuit_height > 0);
    }

    #[test]
    fn lost_termination_packets_deadlock_without_stranding_wires() {
        use locus_mesh::FaultPlan;
        let c = locus_circuit::presets::small();
        // Updates never flow; the only traffic is Finished/Terminate, all
        // of it dropped. Routing completes locally on every node, so the
        // watchdog has nothing to recover — but the run still deadlocks.
        let cfg = small_config(4, UpdateSchedule::never())
            .with_faults(FaultPlan::uniform_loss(3, 10_000));
        let out = run_msgpass(&c, cfg);
        assert!(out.deadlocked);
        let degraded = out.degraded.as_ref().expect("deadlock must be reported");
        assert_eq!(degraded.kind, DegradedKind::Deadlock);
        assert!(degraded.unrouted_wires.is_empty(), "all wires routed before the hang");
        assert_eq!(out.watchdog_recoveries, 0);
        assert_eq!(out.routes.len(), c.wire_count());
    }

    #[test]
    fn duplicated_finished_reports_do_not_end_the_run_early() {
        use locus_mesh::FaultPlan;
        // No loss, no reliability layer, half of all packets delivered
        // twice. A coordinator that counted reports instead of reporters
        // broadcast `Terminate` before the last node was done, or counted
        // past its target and never did: every one of these seeds ended
        // `deadlocked`.
        let c = locus_circuit::presets::bnr_e();
        for seed in 0..4 {
            let plan = FaultPlan::uniform_loss(seed, 0).with_duplicates(5_000, 20_000);
            let cfg = small_config(16, UpdateSchedule::sender_initiated(2, 5)).with_faults(plan);
            let out = run_msgpass(&c, cfg);
            assert!(out.net.packets_duplicated > 0, "the plan must actually fire");
            assert!(!out.deadlocked, "seed {seed} never terminated");
            assert!(out.degraded.is_none(), "seed {seed}: {:?}", out.degraded);
        }
    }

    #[test]
    fn reliability_repairs_lost_termination_packets() {
        use locus_mesh::FaultPlan;
        let c = locus_circuit::presets::small();
        // Same loss-of-control scenario, but partial: half of all traffic
        // (Finished, Terminate and the acks alike) is dropped, with
        // reliability on. Retransmissions push the protocol through.
        let cfg = small_config(4, UpdateSchedule::never())
            .with_faults(FaultPlan::uniform_loss(5, 5_000))
            .with_reliability();
        let out = run_msgpass(&c, cfg);
        assert!(out.net.packets_dropped > 0, "the plan must actually fire");
        assert!(!out.deadlocked, "retransmission must repair lost Finished packets");
        assert!(out.degraded.is_none());
        assert_eq!(out.routes.len(), c.wire_count());
    }

    // --- Recovery protocol (checkpoint / restart / reassign / failover) ---

    use crate::config::RecoveryConfig;

    /// Recovery knobs for the test circuit. The suspect window must
    /// comfortably exceed the longest single-step busy stretch (one
    /// wire's routing work, ~11 ms simulated here), or a node deep in
    /// computation reads as dead.
    fn fast_recovery() -> RecoveryConfig {
        RecoveryConfig {
            checkpoint_every: 4,
            heartbeat_ns: 20_000_000,
            suspect_after: 3,
            checkpoint_per_byte_ns: 1,
        }
    }

    fn recovery_config(n_procs: usize) -> MsgPassConfig {
        small_config(n_procs, UpdateSchedule::sender_initiated(2, 5))
            .with_reliability()
            .with_recovery_config(fast_recovery())
    }

    /// Completion time of a clean run under `cfg`, for placing crashes
    /// mid-run.
    fn clean_completion_ns(cfg: MsgPassConfig) -> u64 {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(&c, cfg);
        assert!(!out.deadlocked);
        out.net.completion.as_ns()
    }

    #[test]
    fn recovery_on_clean_run_checkpoints_and_terminates() {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(&c, recovery_config(4));
        assert!(!out.deadlocked);
        assert!(out.degraded.is_none(), "{:?}", out.degraded);
        assert_eq!(out.watchdog_recoveries, 0);
        assert!(out.recovery.checkpoints_taken > 0, "periodic checkpoints must fire");
        assert!(out.recovery.checkpoint_bytes > 0);
        assert!(out.recovery.heartbeats_sent > 0, "heartbeats must flow");
        assert_eq!(out.recovery.nodes_declared_dead, 0, "no one died");
        assert_eq!(out.recovery.wires_reassigned, 0);
        assert_eq!(out.recovery.coordinator_failovers, 0);
        // Checkpoint traffic rides the Recovery packet kind.
        assert!(out.packets.packets(PacketKind::Recovery) > 0);
        let again = run_msgpass(&c, recovery_config(4));
        assert_eq!(out.routes, again.routes);
        assert_eq!(out.net, again.net);
        assert_eq!(out.recovery, again.recovery);
    }

    #[test]
    fn worker_crash_restart_rolls_back_and_completes() {
        use locus_mesh::{FaultPlan, NodeFault};
        let c = locus_circuit::presets::small();
        let mid = clean_completion_ns(recovery_config(4)) / 2;
        // Short downtime: the worker restarts inside the suspect window,
        // rolls back to its checkpoint, and quietly re-routes — no
        // death sentence, no reassignment.
        let cfg = recovery_config(4).with_faults(
            FaultPlan::none()
                .with_node_fault(2, NodeFault::CrashRestart { at_ns: mid, downtime_ns: 50_000 }),
        );
        let out = run_msgpass(&c, cfg);
        assert!(!out.deadlocked, "restart recovery must terminate");
        assert!(out.degraded.is_none(), "{:?}", out.degraded);
        assert_eq!(out.watchdog_recoveries, 0, "the protocol, not the watchdog, recovers");
        assert_eq!(out.net.node_crashes, 1);
        assert_eq!(out.net.node_restarts, 1);
        assert_eq!(out.recovery.rollbacks, 1, "post-checkpoint work must roll back");
        assert!(out.recovery.wires_rolled_back > 0);
        assert_eq!(out.recovery.nodes_declared_dead, 0, "downtime < suspect window");
        assert_eq!(out.routes.len(), c.wire_count());
        // Bounded re-work: only wires past the last checkpoint re-route.
        assert!(out.recovery.wires_rolled_back < fast_recovery().checkpoint_every as u64 + 1);
        let again = run_msgpass(&c, cfg);
        assert_eq!(out.routes, again.routes);
        assert_eq!(out.net, again.net);
        assert_eq!(out.recovery, again.recovery);
    }

    #[test]
    fn dead_worker_wires_are_reassigned_to_live_nodes() {
        use locus_mesh::{FaultPlan, NodeFault};
        let c = locus_circuit::presets::small();
        let mid = clean_completion_ns(recovery_config(4)) / 2;
        let cfg = recovery_config(4)
            .with_faults(FaultPlan::none().with_node_fault(3, NodeFault::Crash { at_ns: mid }));
        let out = run_msgpass(&c, cfg);
        assert!(!out.deadlocked, "reassignment must terminate the run");
        assert!(out.degraded.is_none(), "{:?}", out.degraded);
        assert_eq!(out.watchdog_recoveries, 0, "the protocol, not the watchdog, recovers");
        assert_eq!(out.net.node_crashes, 1);
        assert_eq!(out.recovery.nodes_declared_dead, 1);
        assert!(out.recovery.wires_reassigned > 0, "orphans must be redistributed");
        assert_eq!(out.recovery.wires_adopted, out.recovery.wires_reassigned);
        // Every wire is routed, and the dead node owns none of the
        // post-checkpoint ones.
        assert_eq!(out.routes.len(), c.wire_count());
        let routed_by_dead = out.proc_of_wire.iter().filter(|&&p| p == 3).count();
        assert!(
            routed_by_dead as u32 <= out.recovery.checkpoints_taken as u32 * 4 + 4,
            "only the dead node's durable prefix may stand"
        );
        let again = run_msgpass(&c, cfg);
        assert_eq!(out.routes, again.routes);
        assert_eq!(out.net, again.net);
        assert_eq!(out.recovery, again.recovery);
    }

    /// The processors that the static assignment of `cfg` gives no wire.
    fn idle_processors(c: &Circuit, cfg: MsgPassConfig) -> Vec<usize> {
        let regions = RegionMap::new(c.channels, c.grids, cfg.n_procs);
        let plan = assign(c, &regions, cfg.assignment).wires_per_proc;
        (0..cfg.n_procs).filter(|&p| plan[p].is_empty()).collect()
    }

    #[test]
    fn a_processor_the_assignment_gives_no_wire_finishes_at_once() {
        let c = locus_circuit::presets::bnr_e();
        let paper =
            [UpdateSchedule::sender_initiated(2, 10), UpdateSchedule::receiver_initiated(1, 5)];
        for schedule in paper {
            let cfg = small_config(64, schedule);
            assert!(!idle_processors(&c, cfg).is_empty(), "bnrE leaves some of 64 without a wire");
            let out = run_msgpass(&c, cfg);
            assert!(!out.deadlocked && out.degraded.is_none(), "{schedule:?}: {:?}", out.degraded);
            assert_eq!(out.watchdog_recoveries, 0, "{schedule:?}: the nodes route every wire");
            assert_eq!(out.routes.len(), c.wire_count());
            assert_eq!(out.occupancy_by_iteration.len(), 2, "every node closes both iterations");
        }
    }

    #[test]
    fn a_processor_with_no_wire_checkpoints_heartbeats_and_may_crash() {
        use locus_mesh::{FaultPlan, NodeFault};
        let c = locus_circuit::presets::tiny();
        let idle = idle_processors(&c, recovery_config(8));
        assert!(!idle.is_empty(), "tiny leaves some of 8 without a wire");
        // Were the idle nodes silent, a clean run would declare them dead.
        let clean = run_msgpass(&c, recovery_config(8));
        assert!(!clean.deadlocked && clean.degraded.is_none(), "{:?}", clean.degraded);
        assert_eq!(clean.recovery.nodes_declared_dead, 0);
        assert!(clean.recovery.checkpoints_taken >= 8, "every node checkpoints when done");
        let busy = (0..8).find(|p| !idle.contains(p)).expect("a processor with wires");
        let mid = clean.net.completion.as_ns() / 2;
        for victim in [idle[0], busy] {
            let crash =
                FaultPlan::none().with_node_fault(victim as u32, NodeFault::Crash { at_ns: mid });
            let out = run_msgpass(&c, recovery_config(8).with_faults(crash));
            assert!(!out.deadlocked && out.degraded.is_none(), "{victim}: {:?}", out.degraded);
            assert_eq!(out.watchdog_recoveries, 0, "{victim}: the protocol recovers");
            assert_eq!(out.routes.len(), c.wire_count());
        }
    }

    #[test]
    fn coordinator_crash_fails_over_to_next_rank() {
        use locus_mesh::{FaultPlan, NodeFault};
        let c = locus_circuit::presets::small();
        let mid = clean_completion_ns(recovery_config(4)) / 2;
        let cfg = recovery_config(4)
            .with_faults(FaultPlan::none().with_node_fault(0, NodeFault::Crash { at_ns: mid }));
        let out = run_msgpass(&c, cfg);
        assert!(!out.deadlocked, "failover must terminate the run");
        assert!(out.degraded.is_none(), "{:?}", out.degraded);
        assert_eq!(out.watchdog_recoveries, 0);
        assert_eq!(out.recovery.coordinator_failovers, 1, "rank 1 takes over exactly once");
        assert!(out.recovery.wires_reassigned > 0, "the dead coordinator's wires move");
        assert_eq!(out.routes.len(), c.wire_count());
        let again = run_msgpass(&c, cfg);
        assert_eq!(out.routes, again.routes);
        assert_eq!(out.net, again.net);
        assert_eq!(out.recovery, again.recovery);
    }

    #[test]
    fn never_schedule_sends_only_control_traffic() {
        let c = locus_circuit::presets::small();
        let out = run_msgpass(&c, small_config(4, UpdateSchedule::never()));
        assert_eq!(
            out.packets.total_packets(),
            out.packets.packets(PacketKind::Control),
            "only Finished/Terminate expected"
        );
        // 3 Finished + 3 Terminate on 4 processors.
        assert_eq!(out.packets.packets(PacketKind::Control), 6);
    }
}
