//! Property-based tests for the message-passing building blocks.

use locus_circuit::{presets, GridCell, Rect};
use locus_mesh::{FaultPlan, MeshConfig, NodeFault};
use locus_msgpass::{
    run_msgpass, run_msgpass_with_mesh, DeltaArray, MsgPassConfig, MsgPassOutcome, Packet,
    PacketStructure, RecoveryConfig, UpdateSchedule, WireSource,
};
use locus_router::{AssignmentStrategy, RegionMap, RouterParams};
use proptest::prelude::*;

const CHANNELS: u16 = 8;
const GRIDS: u16 = 32;

fn arb_cell() -> impl Strategy<Value = GridCell> {
    (0u16..CHANNELS, 0u16..GRIDS).prop_map(|(c, x)| GridCell::new(c, x))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0u16..CHANNELS, 0u16..CHANNELS, 0u16..GRIDS, 0u16..GRIDS)
        .prop_map(|(c1, c2, x1, x2)| Rect::new(c1.min(c2), c1.max(c2), x1.min(x2), x1.max(x2)))
}

proptest! {
    /// Recording a set of changes and their exact negations leaves the
    /// delta array clean — the §5.2 cancellation mechanism.
    #[test]
    fn delta_cancellation(ops in proptest::collection::vec((arb_cell(), 1i16..4), 0..60)) {
        let mut d = DeltaArray::new(CHANNELS, GRIDS);
        for &(cell, v) in &ops {
            d.record(cell, v);
        }
        for &(cell, v) in &ops {
            d.record(cell, -v);
        }
        prop_assert!(d.is_zero());
    }

    /// `changes_in` returns the tight bounding box: every nonzero cell in
    /// the scan rect is inside it, and its edges touch nonzero cells.
    #[test]
    fn changes_bbox_is_tight(
        ops in proptest::collection::vec((arb_cell(), -3i16..=3), 1..40),
        scan in arb_rect(),
    ) {
        let mut d = DeltaArray::new(CHANNELS, GRIDS);
        for &(cell, v) in &ops {
            d.record(cell, v);
        }
        match d.changes_in(scan) {
            None => {
                for cell in scan.cells() {
                    prop_assert_eq!(d.get(cell), 0);
                }
            }
            Some(bbox) => {
                prop_assert!(scan.intersection(&bbox) == Some(bbox), "bbox inside scan");
                for cell in scan.cells() {
                    if d.get(cell) != 0 {
                        prop_assert!(bbox.contains(cell), "{cell} outside bbox {bbox}");
                    }
                }
                // Each boundary row/column holds at least one change.
                let row_has = |c: u16| (bbox.x_lo..=bbox.x_hi)
                    .any(|x| d.get(GridCell::new(c, x)) != 0);
                let col_has = |x: u16| (bbox.c_lo..=bbox.c_hi)
                    .any(|c| d.get(GridCell::new(c, x)) != 0);
                prop_assert!(row_has(bbox.c_lo) && row_has(bbox.c_hi));
                prop_assert!(col_has(bbox.x_lo) && col_has(bbox.x_hi));
            }
        }
    }

    /// Extract-and-clear returns exactly the recorded values and zeroes
    /// the rectangle while leaving everything outside untouched.
    #[test]
    fn extract_and_clear_is_local(
        ops in proptest::collection::vec((arb_cell(), -3i16..=3), 0..40),
        rect in arb_rect(),
    ) {
        let mut d = DeltaArray::new(CHANNELS, GRIDS);
        for &(cell, v) in &ops {
            d.record(cell, v);
        }
        let before: Vec<i16> = Rect::new(0, CHANNELS - 1, 0, GRIDS - 1)
            .cells()
            .map(|c| d.get(c))
            .collect();
        let vals = d.extract_and_clear(rect);
        prop_assert_eq!(vals.len() as u64, rect.area());
        for (i, cell) in Rect::new(0, CHANNELS - 1, 0, GRIDS - 1).cells().enumerate() {
            if rect.contains(cell) {
                prop_assert_eq!(d.get(cell), 0);
            } else {
                prop_assert_eq!(d.get(cell), before[i]);
            }
        }
    }

    /// The row spans never hide a change: through any interleaving of
    /// records, run records and clears, `changes_in`, `is_clean_in` and
    /// `extract_and_clear` answer as a full scan of a plain array does.
    #[test]
    fn span_index_agrees_with_a_full_scan(
        ops in proptest::collection::vec(
            prop_oneof![
                (arb_cell(), -3i16..=3).prop_map(|(cell, v)| (0u8, Rect::cell(cell), v)),
                (arb_cell(), 0u16..GRIDS, -3i16..=3).prop_map(|(cell, x, v)| {
                    let run = Rect::new(cell.channel, cell.channel, cell.x.min(x), cell.x.max(x));
                    (1u8, run, v)
                }),
                arb_rect().prop_map(|rect| (2u8, rect, 0)),
                arb_rect().prop_map(|rect| (3u8, rect, 0)),
            ],
            1..80,
        ),
    ) {
        let mut d = DeltaArray::new(CHANNELS, GRIDS);
        let mut plain = vec![0i16; CHANNELS as usize * GRIDS as usize];
        let at = |cell: GridCell| cell.channel as usize * GRIDS as usize + cell.x as usize;
        for (i, &(op, rect, v)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let cell = GridCell::new(rect.c_lo, rect.x_lo);
                    d.record(cell, v);
                    plain[at(cell)] += v;
                }
                1 => {
                    d.record_run(rect.c_lo, rect.x_lo, rect.x_hi, v);
                    for cell in rect.cells() {
                        plain[at(cell)] += v;
                    }
                }
                2 => {
                    let scanned = rect
                        .cells()
                        .filter(|&cell| plain[at(cell)] != 0)
                        .map(Rect::cell)
                        .reduce(|acc, r| acc.union(&r));
                    prop_assert_eq!(d.changes_in(rect), scanned, "op {}: scan of {}", i, rect);
                    prop_assert_eq!(d.is_clean_in(rect), scanned.is_none());
                }
                _ => {
                    let expected: Vec<i16> = rect.cells().map(|cell| plain[at(cell)]).collect();
                    prop_assert_eq!(d.extract_and_clear(rect), expected, "op {}: {}", i, rect);
                    for cell in rect.cells() {
                        plain[at(cell)] = 0;
                    }
                }
            }
        }
        let whole = Rect::new(0, CHANNELS - 1, 0, GRIDS - 1);
        for cell in whole.cells() {
            prop_assert_eq!(d.get(cell), plain[at(cell)], "{}", cell);
        }
        prop_assert_eq!(d.is_zero(), plain.iter().all(|&v| v == 0));
    }

    /// Packet payload accounting: data packets grow linearly with their
    /// payload and never undercut the header.
    #[test]
    fn packet_sizes_are_consistent(rect in arb_rect()) {
        let n = rect.area() as usize;
        let loc = Packet::LocData { rect, values: vec![0; n], response: false };
        let rmt = Packet::RmtData { rect, deltas: vec![0; n], response: false };
        prop_assert_eq!(loc.payload_bytes(), 9 + 2 * n as u32);
        prop_assert_eq!(rmt.payload_bytes(), 9 + n as u32);
        let req = Packet::ReqRmtData { rect };
        prop_assert!(req.payload_bytes() < loc.payload_bytes() || n == 0);
    }

    /// Schedule validation accepts all nonzero frequencies and rejects
    /// any zero.
    #[test]
    fn schedule_validation(a in 0u32..4, b in 0u32..4, c in 0u32..4, d in 0u32..4) {
        let schedule = UpdateSchedule {
            send_loc_data: (a > 0).then_some(a),
            send_rmt_data: (b > 0).then_some(b),
            req_loc_data: (c > 0).then_some(c),
            req_rmt_data: (d > 0).then_some(d),
            blocking: false,
        };
        prop_assert!(schedule.validate().is_ok());
        let zeroed = UpdateSchedule { send_loc_data: Some(0), ..schedule };
        prop_assert!(zeroed.validate().is_err());
    }
}

// Full-simulation properties run far fewer cases: each case routes the
// `small` preset end to end on a four-node mesh.
proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Resilience: under any seed and any uniform loss rate up to 20%,
    /// the reliability protocol terminates cleanly (no deadlock, no
    /// degraded outcome) and routes every wire of the circuit.
    #[test]
    fn reliable_delivery_survives_any_loss_seed(
        seed in any::<u64>(),
        drop_bp in 0u32..=2000,
        sender in any::<bool>(),
    ) {
        let c = presets::small();
        let schedule = if sender {
            UpdateSchedule::sender_initiated(2, 10)
        } else {
            UpdateSchedule::receiver_initiated(1, 5)
        };
        let config = MsgPassConfig::new(4, schedule)
            .with_faults(FaultPlan::uniform_loss(seed, drop_bp))
            .with_reliability();
        let out = run_msgpass(&c, config);
        prop_assert!(!out.deadlocked, "seed {seed} drop {drop_bp}bp deadlocked");
        prop_assert!(out.degraded.is_none(), "degraded: {:?}", out.degraded);
        prop_assert_eq!(out.routes.len(), c.wire_count());
    }

    /// A zero-rate fault plan is inert: whatever the seed, the run is
    /// byte-identical to one with no plan installed at all.
    #[test]
    fn zero_rate_fault_plan_is_inert(seed in any::<u64>()) {
        let c = presets::small();
        let schedule = UpdateSchedule::sender_initiated(2, 10);
        let clean = run_msgpass(&c, MsgPassConfig::new(4, schedule));
        let planned = run_msgpass(
            &c,
            MsgPassConfig::new(4, schedule).with_faults(FaultPlan::uniform_loss(seed, 0)),
        );
        prop_assert_eq!(clean.quality, planned.quality);
        prop_assert_eq!(clean.routes, planned.routes);
        prop_assert_eq!(clean.net.packets, planned.net.packets);
        prop_assert_eq!(clean.net.payload_bytes, planned.net.payload_bytes);
        prop_assert_eq!(planned.net.faults_injected(), 0);
    }
}

/// Four-node recovery configuration for the invariant proptests. The
/// suspect window (3 × 20 ms) comfortably exceeds the longest
/// single-step busy stretch on the `small` preset (~11 ms of routing
/// work per wire).
fn recovery_config() -> MsgPassConfig {
    MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10))
        .with_reliability()
        .with_recovery_config(RecoveryConfig {
            checkpoint_every: 4,
            heartbeat_ns: 20_000_000,
            suspect_after: 3,
            checkpoint_per_byte_ns: 1,
        })
}

/// Bitwise-equality fingerprint of a recovery run.
fn same_outcome(a: &MsgPassOutcome, b: &MsgPassOutcome) -> bool {
    a.routes == b.routes
        && a.quality == b.quality
        && a.recovery == b.recovery
        && a.time_secs.to_bits() == b.time_secs.to_bits()
        && a.net.packets == b.net.packets
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Recovery invariant, single fault: whatever node crashes at
    /// whatever point — fail-stop or fail-recover — the run terminates
    /// cleanly with every wire routed by the recovery protocol itself
    /// (no watchdog), and a repeat execution is bitwise identical.
    #[test]
    fn single_crash_recovers_every_wire(
        node in 0u32..4,
        at_ns in 1_000_000u64..400_000_000,
        restarts in any::<bool>(),
        downtime_ns in 1_000_000u64..200_000_000,
    ) {
        let c = presets::small();
        let fault = if restarts {
            NodeFault::CrashRestart { at_ns, downtime_ns }
        } else {
            NodeFault::Crash { at_ns }
        };
        let config = recovery_config()
            .with_faults(FaultPlan::none().with_node_fault(node, fault));
        let out = run_msgpass(&c, config);
        prop_assert!(!out.deadlocked, "node {node} at {at_ns} deadlocked");
        prop_assert!(out.degraded.is_none(), "degraded: {:?}", out.degraded);
        prop_assert_eq!(out.watchdog_recoveries, 0);
        prop_assert_eq!(out.routes.len(), c.wire_count());
        let again = run_msgpass(&c, config);
        prop_assert!(same_outcome(&out, &again), "repeat diverged");
    }

    /// Recovery invariant, double fault: two crashes on distinct nodes
    /// at arbitrary times still terminate with every wire present, and
    /// the run stays bitwise repeatable. (Adversarial timings may leave
    /// a short stranded tail to the watchdog; single faults never do.)
    #[test]
    fn double_crash_terminates_deterministically(
        a_at in 1_000_000u64..400_000_000,
        b_at in 1_000_000u64..400_000_000,
        pair_idx in 0usize..4,
        restart_b in any::<bool>(),
    ) {
        const PAIRS: [(u32, u32); 4] = [(0, 1), (0, 3), (1, 2), (2, 3)];
        let c = presets::small();
        let (a, b) = PAIRS[pair_idx];
        let b_fault = if restart_b {
            NodeFault::CrashRestart { at_ns: b_at, downtime_ns: 80_000_000 }
        } else {
            NodeFault::Crash { at_ns: b_at }
        };
        let plan = FaultPlan::none()
            .with_node_fault(a, NodeFault::Crash { at_ns: a_at })
            .with_node_fault(b, b_fault);
        let config = recovery_config().with_faults(plan);
        let out = run_msgpass(&c, config);
        prop_assert!(!out.deadlocked, "{a}@{a_at} + {b}@{b_at} deadlocked");
        prop_assert_eq!(out.routes.len(), c.wire_count());
        let again = run_msgpass(&c, config);
        prop_assert!(same_outcome(&out, &again), "repeat diverged");
    }
}

/// 0, 1, 3, 65, `u64::MAX`, and every power of two below 2^`bits` (64
/// among them).
fn edge(bits: u32) -> impl Strategy<Value = u64> {
    (0..bits + 4).prop_map(move |i| match i.checked_sub(bits) {
        None => 1 << i,
        Some(0) => 0,
        Some(1) => 3,
        Some(2) => 65,
        Some(_) => u64::MAX,
    })
}

/// [`edge`] values of a `u32` field (`u32::MAX` for `u64::MAX`).
fn edge32(bits: u32) -> impl Strategy<Value = u32> {
    edge(bits).prop_map(|v| u32::try_from(v).unwrap_or(u32::MAX))
}

/// `value`, or one drawn from `drawn`: half the cases keep a field at a
/// setting that runs, so the other fields' edges reach a run too.
fn or_edge<T: Clone + 'static>(
    value: T,
    drawn: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = T> {
    prop_oneof![Just(value), drawn]
}

/// `None`, or `Some` of a value drawn from `drawn`.
fn maybe<T: Clone + 'static>(
    drawn: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![Just(None), drawn.prop_map(Some)]
}

fn arb_schedule() -> impl Strategy<Value = UpdateSchedule> {
    let drawn =
        (maybe(edge32(32)), maybe(edge32(32)), maybe(edge32(32)), maybe(edge32(32)), any::<bool>())
            .prop_map(|(send_loc_data, send_rmt_data, req_loc_data, req_rmt_data, blocking)| {
                UpdateSchedule {
                    send_loc_data,
                    send_rmt_data,
                    req_loc_data,
                    req_rmt_data,
                    blocking,
                }
            });
    prop_oneof![
        Just(UpdateSchedule::sender_paper()),
        Just(UpdateSchedule::receiver_paper()),
        Just(UpdateSchedule::mixed_paper()),
        drawn,
    ]
}

fn arb_assignment() -> impl Strategy<Value = AssignmentStrategy> {
    prop_oneof![
        Just(AssignmentStrategy::RoundRobin),
        Just(AssignmentStrategy::Locality { threshold_cost: None }),
        edge32(32).prop_map(|t| AssignmentStrategy::Locality { threshold_cost: Some(t) }),
    ]
}

/// Iterations 0, 1, 2, 3 and 65, half of them 1, which dynamic wires and
/// recovery require (a longer run of `tiny` is valid and only slow);
/// overshoot at every edge of a `u16`.
fn arb_params() -> impl Strategy<Value = RouterParams> {
    let iterations = (0usize..8).prop_map(|i| [0, 1, 1, 1, 1, 2, 3, 65][i]);
    let overshoot = edge(16).prop_map(|o| u16::try_from(o).unwrap_or(u16::MAX));
    (iterations, or_edge(0, overshoot))
        .prop_map(|(iterations, channel_overshoot)| RouterParams { iterations, channel_overshoot })
}

fn arb_node_fault() -> impl Strategy<Value = (u32, NodeFault)> {
    let kind = prop_oneof![
        edge(64).prop_map(|at_ns| NodeFault::Crash { at_ns }),
        (edge(64), edge(64))
            .prop_map(|(at_ns, downtime_ns)| NodeFault::CrashRestart { at_ns, downtime_ns }),
        (edge(64), edge32(32), edge(64)).prop_map(|(at_ns, factor, duration_ns)| {
            NodeFault::Stall { at_ns, factor, duration_ns }
        }),
    ];
    (or_edge(1, edge32(32)), kind)
}

/// Every rate and node fault of a plan at edge values, half of the rates
/// below 2^14, where they are probabilities; the gaps and holds the rates
/// draw from, too.
fn arb_faults() -> impl Strategy<Value = FaultPlan> {
    let rate = || or_edge(0, prop_oneof![edge32(32), edge32(14)]);
    let rates = (rate(), rate(), rate(), rate());
    let spans = (edge(64), edge(64), edge(64));
    let node_faults = (0usize..3, arb_node_fault(), arb_node_fault());
    let drawn = (any::<u64>(), rates, spans, node_faults).prop_map(
        |(seed, (drop_bp, duplicate_bp, delay_bp, reorder_bp), spans, (n, a, b))| {
            let (duplicate_gap_ns, delay_ns_max, reorder_hold_ns) = spans;
            let mut plan = FaultPlan {
                seed,
                drop_bp,
                duplicate_bp,
                duplicate_gap_ns,
                delay_bp,
                delay_ns_max,
                reorder_bp,
                reorder_hold_ns,
                ..FaultPlan::none()
            };
            for (node, fault) in [a, b].into_iter().take(n) {
                plan = plan.with_node_fault(node, fault);
            }
            plan
        },
    );
    or_edge(FaultPlan::none(), drawn)
}

fn arb_recovery() -> impl Strategy<Value = RecoveryConfig> {
    (edge32(32), edge(64), edge32(32), edge(64)).prop_map(
        |(checkpoint_every, heartbeat_ns, suspect_after, checkpoint_per_byte_ns)| RecoveryConfig {
            checkpoint_every,
            heartbeat_ns,
            suspect_after,
            checkpoint_per_byte_ns,
        },
    )
}

/// Every field of a `MsgPassConfig` drawn from edge values, two thirds of
/// the processor counts below 2^6, where `tiny`'s 4 × 24 surface still
/// fits the mesh.
fn arb_msgpass_config() -> impl Strategy<Value = MsgPassConfig> {
    let structure = prop_oneof![
        Just(PacketStructure::BoundingBox),
        Just(PacketStructure::FullRegion),
        Just(PacketStructure::WireBased),
    ];
    let wire_source = prop_oneof![
        Just(WireSource::Static),
        Just(WireSource::Static),
        Just(WireSource::Static),
        Just(WireSource::Dynamic),
    ];
    // Recovery without reliability is one invalid pair among five.
    let recovering = prop_oneof![
        Just((false, None)),
        Just((true, None)),
        arb_recovery().prop_map(|r| (true, Some(r))),
        arb_recovery().prop_map(|r| (true, Some(r))),
        arb_recovery().prop_map(|r| (false, Some(r))),
    ];
    (
        (prop_oneof![edge(64), edge(6), edge(6)], arb_schedule(), arb_assignment(), arb_params()),
        (or_edge(PacketStructure::BoundingBox, structure), wire_source, maybe(edge32(32))),
        (arb_faults(), recovering),
    )
        .prop_map(
            |(
                (n_procs, schedule, assignment, params),
                (structure, wire_source, audit_every),
                (faults, (reliability, recovery)),
            )| MsgPassConfig {
                n_procs: usize::try_from(n_procs).unwrap_or(usize::MAX),
                schedule,
                assignment,
                params,
                structure,
                wire_source,
                audit_every,
                faults,
                reliability,
                recovery,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A configuration is `Ok` or an error that names a field, never a
    /// panic; and every `Ok` routes every wire of `tiny` (through the
    /// watchdog if it must).
    #[test]
    fn msgpass_configs_validate_or_fail_by_name_and_what_validates_runs(
        cfg in arb_msgpass_config(),
    ) {
        const FIELDS: [&str; 17] = [
            "n_procs", "recovery", "_data", "blocking", "iteration", "wire-based", "wire distribution",
            "audit_every", "_bp", "downtime", "factor", "duration", "reliability",
            "checkpoint_every", "heartbeat_ns", "suspect_after", "checkpoint_per_byte_ns",
        ];
        let tiny = presets::tiny();
        let checked = cfg
            .validate()
            .and_then(|()| RegionMap::try_new(tiny.channels, tiny.grids, cfg.n_procs).map(drop));
        if let Err(err) = checked {
            prop_assert!(FIELDS.iter().any(|f| err.contains(f)), "{err}");
            return;
        }
        let out = run_msgpass(&tiny, cfg);
        prop_assert_eq!(out.routes.len(), tiny.wire_count());
        prop_assert!(out.routes.iter().all(|r| !r.cells().is_empty()), "{cfg:?}");
    }
}

/// Every field of a `MeshConfig` drawn from edge values, a third of the
/// dimensions at 1 or 3 so that some meshes fit `tiny`'s 4 × 24 surface.
fn arb_mesh() -> impl Strategy<Value = MeshConfig> {
    let dim = || {
        prop_oneof![edge(64), Just(1), Just(3)]
            .prop_map(|d| usize::try_from(d).unwrap_or(usize::MAX))
    };
    (dim(), dim(), any::<bool>(), arb_faults())
        .prop_map(|(rows, cols, contention, faults)| MeshConfig { rows, cols, contention, faults })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A caller's mesh is `Ok` or an error that names what is wrong,
    /// never a panic or an abort: no node, more nodes than a `usize` or
    /// a `u32` holds, an invalid fault plan or one that faults a node the
    /// mesh lacks, or more processors than `tiny`'s surface can split.
    /// Every `Ok` is a run that routes every wire.
    #[test]
    fn meshes_validate_or_fail_by_name_and_what_validates_runs(mesh in arb_mesh()) {
        const NAMES: [&str; 3] = ["MeshConfig::rows × cols", "MeshConfig::faults", "surface"];
        let tiny = presets::tiny();
        let n_procs = mesh.rows.saturating_mul(mesh.cols);
        let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::sender_paper());
        match run_msgpass_with_mesh(&tiny, cfg, mesh) {
            Err(err) => prop_assert!(NAMES.iter().any(|name| err.contains(name)), "{err}"),
            Ok(out) => {
                prop_assert!(mesh.validate().is_ok());
                prop_assert_eq!(out.routes.len(), tiny.wire_count());
                prop_assert!(out.routes.iter().all(|r| !r.cells().is_empty()), "{mesh:?}");
            }
        }
    }
}
