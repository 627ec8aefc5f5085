//! The per-processor router actor.
//!
//! Each mesh node runs one [`RouterNode`]: it routes its statically
//! assigned wires against its local cost-array replica, keeps the delta
//! array of changes it has made to foreign regions, emits and installs
//! update packets according to the configured [`crate::UpdateSchedule`], and
//! participates in a simple termination protocol (every node reports
//! `Finished` to node 0, which broadcasts `Terminate` once all reports
//! are in — finished nodes keep serving requests until then).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use locus_circuit::{Circuit, Rect, WireId};
use locus_mesh::{Envelope, Node, Outbox, SimTime, Step};
use locus_obs::{EventKind, SharedSink};
use locus_router::engine::{IterationDriver, ObsEmitter, Stamp};
use locus_router::router::route_wire_scratch;
use locus_router::{assign, CostArray, EvalScratch, ProcId, RegionMap, Route, WorkStats};

use crate::config::{MsgPassConfig, PacketStructure, WireSource};
use crate::delta::DeltaArray;
use crate::packet::{Packet, PacketCounts, WireEvent};
use crate::reliable::{Frame, Transport, ACK_BYTES};

/// Coordinator node for the termination protocol.
const COORDINATOR: ProcId = 0;

/// One replica-vs-truth comparison taken at an audit stamp (enabled by
/// [`MsgPassConfig::audit_every`]); the raw material of the staleness
/// histograms in `locus-analysis`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaSnapshot {
    /// Auditing processor.
    pub proc: ProcId,
    /// Simulated time of the audit.
    pub at_ns: u64,
    /// Wires this node had routed when the audit ran.
    pub wires_routed: u32,
    /// Cells whose replica value differed from the truth.
    pub diverged_cells: u32,
    /// Sum of absolute per-cell divergences.
    pub total_abs_divergence: u64,
    /// Largest absolute per-cell divergence.
    pub max_abs_divergence: u32,
    /// Summed age of the diverged cells (ns since the truth cell last
    /// changed) — the "cells × age" staleness integrand.
    pub stale_age_sum_ns: u64,
}

impl ReplicaSnapshot {
    /// Mean age of the diverged cells (0 when nothing diverged).
    pub fn mean_age_ns(&self) -> u64 {
        if self.diverged_cells == 0 {
            0
        } else {
            self.stale_age_sum_ns / self.diverged_cells as u64
        }
    }
}

/// Recovery-protocol counters for one node. All zero when
/// [`MsgPassConfig::recovery`] is off; merged across nodes into the
/// run outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints taken (periodic, at-finish, and per adopted wire).
    pub checkpoints_taken: u64,
    /// Total serialized checkpoint bytes (charged to simulated time).
    pub checkpoint_bytes: u64,
    /// Heartbeat rounds sent (coordinator: one broadcast counts once).
    pub heartbeats_sent: u64,
    /// Peers this node declared dead after a silent suspect window.
    pub nodes_declared_dead: u64,
    /// Orphaned wires the coordinator redistributed to live nodes.
    pub wires_reassigned: u64,
    /// Reassigned wires this node adopted (self-targets included).
    pub wires_adopted: u64,
    /// Restart rollbacks performed (one per restart with lost work).
    pub rollbacks: u64,
    /// Routes ripped back out because they post-dated the checkpoint.
    pub wires_rolled_back: u64,
    /// Coordinator takeovers this node performed.
    pub coordinator_failovers: u64,
    /// Wires routed by more than one node (resolved first-writer-wins
    /// at collection; counted there, not per node).
    pub duplicate_routes: u64,
}

impl RecoveryStats {
    /// Accumulates `other` into `self` field by field.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.checkpoints_taken += other.checkpoints_taken;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.heartbeats_sent += other.heartbeats_sent;
        self.nodes_declared_dead += other.nodes_declared_dead;
        self.wires_reassigned += other.wires_reassigned;
        self.wires_adopted += other.wires_adopted;
        self.rollbacks += other.rollbacks;
        self.wires_rolled_back += other.wires_rolled_back;
        self.coordinator_failovers += other.coordinator_failovers;
        self.duplicate_routes += other.duplicate_routes;
    }
}

/// One processor of the message-passing router.
pub struct RouterNode {
    proc: ProcId,
    circuit: Arc<Circuit>,
    regions: Arc<RegionMap>,
    config: MsgPassConfig,
    my_region: Rect,
    mesh_neighbors: Vec<ProcId>,
    my_wires: Vec<WireId>,

    /// Metrics-only global truth, shared by every node and updated as
    /// routes commit (the kernel steps nodes in simulated-time order).
    /// Routing decisions never read it; it exists so the occupancy factor
    /// can be measured against the *actual* congestion at routing time,
    /// as the paper's §3 definition requires — a stale replica would
    /// under-report exactly the congestion staleness causes.
    oracle: Arc<Mutex<CostArray>>,
    /// Per-cell simulated time the truth last changed (allocated only
    /// when auditing; shared by all nodes like the oracle itself).
    truth_touched: Option<Arc<Mutex<Vec<u64>>>>,
    /// Staleness snapshots taken at the configured audit stamps.
    audits: Vec<ReplicaSnapshot>,

    replica: CostArray,
    /// Reusable evaluation buffers: the kernel allocates nothing per
    /// candidate, and the replica's prefix caches serve its span queries.
    scratch: EvalScratch,
    delta: DeltaArray,
    /// Bounding box of changes to the node's own region since its last
    /// `SendLocData` (kept incrementally; no scan needed).
    own_dirty: Option<Rect>,

    /// The shared execution ledger: route slots (indexed by position in
    /// `my_wires`), dynamically granted routes, work counters, per-
    /// iteration occupancy, and routing-event emission.
    driver: IterationDriver,
    iteration: usize,
    wire_idx: usize,
    wires_routed_count: u32,

    /// Routing events accumulated since the last wire-based update
    /// (only populated under [`PacketStructure::WireBased`]).
    wire_events: Vec<WireEvent>,

    // Dynamic wire distribution (§4.2).
    /// Master only: next wire id to hand out.
    dyn_pool_next: usize,
    /// Worker: a request is in flight.
    awaiting_grant: bool,
    /// Worker: a granted wire not yet routed.
    granted: Option<WireId>,

    // Receiver-initiated requester state.
    request_cursor: usize,
    touch_count: Vec<u32>,
    touch_bbox: Vec<Option<Rect>>,
    outstanding: u32,

    // Owner-side ReqLocData trigger state.
    reqs_from: Vec<u32>,

    // Termination protocol.
    finished_routing: bool,
    /// Virtual time of the step that completed this node's last routing
    /// work (static assignment or adopted backlog). The run-level
    /// maximum is the routing span — everything past it is update
    /// exchange, checkpoint, and termination tail.
    routing_done_ns: u64,
    finished_sent: bool,
    finished_seen: usize,
    terminate: bool,

    // Recovery protocol (all inert when `config.recovery` is `None`).
    /// Who this node currently believes coordinates termination and
    /// reassignment (starts at [`COORDINATOR`]; moves on failover).
    coordinator: ProcId,
    /// Simulated time at which the next heartbeat round is due.
    next_heartbeat_at: u64,
    /// Last simulated time any envelope arrived from each peer.
    last_heard: Vec<u64>,
    /// Peers declared dead (never resurrected within a run).
    presumed_dead: Vec<bool>,
    /// Dead peers whose orphaned wires were already redistributed.
    reassigned: Vec<bool>,
    /// Coordinator only: peers that reported all their work finished.
    finished_flags: Vec<bool>,
    /// Coordinator only: each peer's last checkpointed progress (wires
    /// into its static assignment that are durable).
    ckpt_known: Vec<u32>,
    /// Own durable progress: wires into `my_wires` covered by the last
    /// checkpoint (work past it dies with a crash).
    ckpt_progress: u32,
    /// Wires adopted from dead peers, awaiting routing.
    adopted: VecDeque<WireId>,
    /// The complete static assignment (every processor's wire list),
    /// recomputed locally so any node can redistribute a dead peer's
    /// wires without asking anyone. `Some` iff recovery is on.
    full_assignment: Option<Vec<Vec<WireId>>>,
    /// Coordinator only: wires this node granted to each peer through
    /// `Reassign`. If a grantee later dies, these orphans are not in its
    /// static assignment, so they must be re-granted from this ledger.
    granted_log: Vec<Vec<WireId>>,
    /// Computation time owed but not yet charged to the simulated clock.
    /// Under recovery a long busy interval is drained in heartbeat-sized
    /// chunks so the node keeps heartbeating (and acking) while it
    /// computes — the discrete-event analogue of an interrupt-driven
    /// network stack. Charging a whole wire's routing time atomically
    /// would silence the node past the suspect window on large circuits
    /// and get it falsely declared dead.
    pending_busy: u64,
    /// Recovery counters.
    recovery_stats: RecoveryStats,

    // Metrics.
    sent: PacketCounts,

    /// End-to-end reliable-delivery state (a zero-cost pass-through when
    /// `config.reliability` is `None`).
    transport: Transport,
    /// While lingering after `Done` (reliability only): the simulated
    /// time at which the node may actually stop, pushed back by any
    /// late-arriving traffic it must re-ack.
    linger_until: Option<u64>,

    /// Simulated time of the step being executed (for event stamps).
    now_ns: u64,
}

impl RouterNode {
    /// Creates the actor for processor `proc` with its assigned wires.
    /// All nodes of one run must share the same `oracle`.
    pub fn new(
        proc: ProcId,
        circuit: Arc<Circuit>,
        regions: Arc<RegionMap>,
        config: MsgPassConfig,
        my_wires: Vec<WireId>,
        oracle: Arc<Mutex<CostArray>>,
    ) -> Self {
        let n_procs = regions.n_procs();
        let (channels, grids) = regions.surface();
        let n_wires = my_wires.len();
        let full_assignment =
            config.recovery.map(|_| assign(&circuit, &regions, config.assignment).wires_per_proc);
        RouterNode {
            proc,
            my_region: regions.region(proc),
            mesh_neighbors: regions.neighbors(proc),
            oracle,
            truth_touched: None,
            audits: Vec::new(),
            circuit,
            regions,
            config,
            my_wires,
            replica: CostArray::new(channels, grids),
            scratch: EvalScratch::default(),
            delta: DeltaArray::new(channels, grids),
            own_dirty: None,
            driver: IterationDriver::new(n_wires),
            iteration: 0,
            wire_idx: 0,
            wires_routed_count: 0,
            wire_events: Vec::new(),
            dyn_pool_next: 0,
            awaiting_grant: false,
            granted: None,
            request_cursor: 0,
            touch_count: vec![0; n_procs],
            touch_bbox: vec![None; n_procs],
            outstanding: 0,
            reqs_from: vec![0; n_procs],
            finished_routing: false,
            routing_done_ns: 0,
            finished_sent: false,
            finished_seen: 0,
            terminate: false,
            coordinator: COORDINATOR,
            next_heartbeat_at: 0,
            last_heard: vec![0; n_procs],
            presumed_dead: vec![false; n_procs],
            reassigned: vec![false; n_procs],
            finished_flags: vec![false; n_procs],
            ckpt_known: vec![0; n_procs],
            ckpt_progress: 0,
            adopted: VecDeque::new(),
            full_assignment,
            granted_log: vec![Vec::new(); n_procs],
            pending_busy: 0,
            recovery_stats: RecoveryStats::default(),
            sent: PacketCounts::default(),
            transport: Transport::new(n_procs, config.reliability),
            linger_until: None,
            now_ns: 0,
        }
    }

    /// Routes this node's routing events (wire commits, rip-ups,
    /// iteration phases) into `sink`.
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.driver.set_obs(ObsEmitter::new(Box::new(sink)).for_node(self.proc as u32));
        self
    }

    /// Attaches the shared per-cell truth-change timestamps (one entry
    /// per cost cell, simulated ns). All nodes of one run must share the
    /// same map; required when `config.audit_every` is set so audits can
    /// age their diverged cells.
    pub fn with_truth_touched(mut self, touched: Arc<Mutex<Vec<u64>>>) -> Self {
        self.truth_touched = Some(touched);
        self
    }

    /// Marks this node done with routing and reports its kernel counters
    /// (candidates swept; the replica's prefix-cache activity).
    fn mark_finished_routing(&mut self) {
        self.finished_routing = true;
        self.routing_done_ns = self.now_ns;
        if self.driver.obs_on() {
            let ps = self.replica.prefix_stats();
            self.driver.kernel_stats(Stamp::At(self.now_ns), ps);
        }
    }

    /// Final routes with their wire ids (valid after the run completes).
    pub fn routes(&self) -> impl Iterator<Item = (WireId, &Route)> + '_ {
        self.my_wires
            .iter()
            .zip(self.driver.slots())
            .filter_map(|(&w, r)| r.as_ref().map(|r| (w, r)))
            .chain(self.driver.dynamic_routes().iter().map(|(w, r)| (*w, r)))
    }

    /// Occupancy factor contribution of the final iteration.
    pub fn occupancy_factor(&self) -> u64 {
        self.driver.last_occupancy()
    }

    /// Occupancy factor contribution of every iteration.
    pub fn occupancy_by_iteration(&self) -> &[u64] {
        self.driver.occupancy_by_iteration()
    }

    /// Work counters.
    pub fn work(&self) -> &WorkStats {
        self.driver.work()
    }

    /// Per-kind packet counts sent by this node.
    pub fn sent_counts(&self) -> &PacketCounts {
        &self.sent
    }

    /// This node's reliable-transport counters (all zero when the
    /// protocol is disabled).
    pub fn reliable_stats(&self) -> crate::reliable::ReliableStats {
        self.transport.stats()
    }

    /// This node's recovery counters (all zero when recovery is off).
    /// Virtual time of this node's last completed routing work.
    pub fn routing_done_ns(&self) -> u64 {
        self.routing_done_ns
    }

    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// Wires into this node's static assignment covered by its last
    /// checkpoint (its durable progress).
    pub fn checkpoint_progress(&self) -> u32 {
        self.ckpt_progress
    }

    /// Final routes as [`RouterNode::routes`], but truncated to the last
    /// checkpoint when this node `crashed`: routes committed after it
    /// were volatile and died with the node (an adopter re-routed those
    /// wires). Adopted-wire routes are checkpointed as they commit, so
    /// they always survive.
    pub fn surviving_routes(&self, crashed: bool) -> impl Iterator<Item = (WireId, &Route)> + '_ {
        let limit = if crashed { self.ckpt_progress as usize } else { self.my_wires.len() };
        self.my_wires
            .iter()
            .take(limit)
            .zip(self.driver.slots())
            .filter_map(|(&w, r)| r.as_ref().map(|r| (w, r)))
            .chain(self.driver.dynamic_routes().iter().map(|(w, r)| (*w, r)))
    }

    /// The node's final replica (for divergence diagnostics).
    pub fn replica(&self) -> &CostArray {
        &self.replica
    }

    /// Staleness snapshots taken at the configured audit stamps.
    pub fn replica_audits(&self) -> &[ReplicaSnapshot] {
        &self.audits
    }

    /// Stamps the truth-change time of every cell `route` covers (no-op
    /// unless auditing is on).
    fn touch_truth(&self, route: &Route) {
        let Some(touched) = &self.truth_touched else {
            return;
        };
        let (_, grids) = self.regions.surface();
        let mut touched = touched.lock().expect("truth touch lock");
        for &cell in route.cells() {
            touched[cell.channel as usize * grids as usize + cell.x as usize] = self.now_ns;
        }
    }

    /// Diffs the replica against the truth when an audit stamp is due,
    /// recording a [`ReplicaSnapshot`] and emitting a `ReplicaAudit`
    /// event.
    fn maybe_audit_replica(&mut self) {
        let Some(every) = self.config.audit_every else {
            return;
        };
        if !self.wires_routed_count.is_multiple_of(every) {
            return;
        }
        use locus_router::CostView;
        let (channels, grids) = self.regions.surface();
        let mut diverged = 0u32;
        let mut total = 0u64;
        let mut max = 0u32;
        let mut age_sum = 0u64;
        {
            let oracle = self.oracle.lock().expect("oracle lock");
            let touched = self.truth_touched.as_ref().map(|t| t.lock().expect("truth touch lock"));
            for c in 0..channels {
                for x in 0..grids {
                    let cell = locus_circuit::GridCell::new(c, x);
                    let d = (self.replica.cost_at(cell) as i64 - oracle.cost_at(cell) as i64)
                        .unsigned_abs() as u32;
                    if d > 0 {
                        diverged += 1;
                        total += d as u64;
                        max = max.max(d);
                        if let Some(touched) = &touched {
                            let idx = c as usize * grids as usize + x as usize;
                            age_sum += self.now_ns.saturating_sub(touched[idx]);
                        }
                    }
                }
            }
        }
        let snap = ReplicaSnapshot {
            proc: self.proc,
            at_ns: self.now_ns,
            wires_routed: self.wires_routed_count,
            diverged_cells: diverged,
            total_abs_divergence: total,
            max_abs_divergence: max,
            stale_age_sum_ns: age_sum,
        };
        self.driver.emit_event(
            Stamp::At(self.now_ns),
            EventKind::ReplicaAudit {
                diverged_cells: diverged,
                max_divergence: max,
                mean_age_ns: snap.mean_age_ns(),
            },
        );
        self.audits.push(snap);
    }

    /// Whether the node completed all its iterations.
    pub fn finished(&self) -> bool {
        self.finished_routing
    }

    /// Queues `packet` to `to`, recording stats; returns the modelled
    /// packet-assembly time. With reliability on the packet is framed
    /// with a sequence number and its retransmission timer armed; the
    /// per-kind counts record the application payload while the wire
    /// carries the framed size.
    fn send(&mut self, outbox: &mut Outbox<Frame>, to: ProcId, packet: Packet) -> u64 {
        debug_assert_ne!(to, self.proc);
        self.sent.record(&packet);
        let frame = self.transport.wrap(to, packet, self.now_ns);
        let bytes = frame.payload_bytes();
        outbox.send(to, bytes, frame);
        bytes as u64 * self.config.send_per_byte_ns
    }

    /// Queues `packet` unframed ([`Frame::Raw`]), bypassing the
    /// reliability protocol. Heartbeats ride raw: they are periodic, so
    /// a lost one is repaired by the next, and they must not occupy
    /// retransmission state (a dead peer would accumulate it forever).
    fn send_raw(&mut self, outbox: &mut Outbox<Frame>, to: ProcId, packet: Packet) -> u64 {
        debug_assert_ne!(to, self.proc);
        self.sent.record(&packet);
        let frame = Frame::Raw(packet);
        let bytes = frame.payload_bytes();
        outbox.send(to, bytes, frame);
        bytes as u64 * self.config.send_per_byte_ns
    }

    /// Queues a cumulative ack to `to`.
    fn send_ack(&mut self, outbox: &mut Outbox<Frame>, to: ProcId, cum_seq: u32) -> u64 {
        self.driver
            .emit_event(Stamp::At(self.now_ns), EventKind::AckSent { dst: to as u32, cum_seq });
        self.sent.record_ack(ACK_BYTES);
        outbox.send(to, ACK_BYTES, Frame::Ack { cum_seq });
        ACK_BYTES as u64 * self.config.send_per_byte_ns
    }

    /// Queues one retransmission of `packet` (attempt `attempt`) to `to`.
    fn resend(
        &mut self,
        outbox: &mut Outbox<Frame>,
        to: ProcId,
        seq: u32,
        attempt: u32,
        packet: Packet,
    ) -> u64 {
        self.driver.emit_event(
            Stamp::At(self.now_ns),
            EventKind::PacketRetransmitted { dst: to as u32, seq, attempt },
        );
        self.sent.record(&packet);
        let frame = Frame::Data { seq, packet };
        let bytes = frame.payload_bytes();
        outbox.send(to, bytes, frame);
        bytes as u64 * self.config.send_per_byte_ns
    }

    /// Grows the own-region dirty box to include `rect`.
    fn mark_own_dirty(&mut self, rect: Rect) {
        self.own_dirty = Some(match self.own_dirty {
            Some(d) => d.union(&rect),
            None => rect,
        });
    }

    /// Applies one routed/ripped cell change to local state: replicas
    /// always change; foreign cells also enter the delta array, own cells
    /// the dirty box.
    fn apply_cell_change(&mut self, cell: locus_circuit::GridCell, delta: i32) {
        self.replica.add(cell, delta);
        if self.my_region.contains(cell) {
            self.mark_own_dirty(Rect::cell(cell));
        } else {
            self.delta.record(cell, delta as i16);
        }
    }

    /// Handles one received packet; returns modelled processing time and
    /// queues any responses.
    fn handle_packet(&mut self, from: ProcId, packet: Packet, outbox: &mut Outbox<Frame>) -> u64 {
        let mut busy = 0u64;
        match packet {
            Packet::LocData { rect, values, response } => {
                // Absolute data for a region owned by the sender (or at
                // least not by us): replace our stale view.
                debug_assert!(
                    !rect.intersects(&self.my_region),
                    "node {} received absolute data for its own region",
                    self.proc
                );
                self.replica.install(rect, &values);
                // The owner's view cannot include changes we made but
                // have not yet sent; re-apply our pending deltas so the
                // install does not erase our own wires from our view.
                for cell in rect.cells() {
                    let d = self.delta.get(cell);
                    if d != 0 {
                        self.replica.add(cell, d as i32);
                    }
                }
                busy += rect.area() * self.config.scan_per_cell_ns;
                if response {
                    self.outstanding = self.outstanding.saturating_sub(1);
                }
            }
            Packet::RmtData { rect, deltas, response: _ } => {
                // Deltas applied by a remote processor to our region.
                debug_assert!(
                    self.my_region.intersection(&rect) == Some(rect),
                    "RmtData rect {rect} not inside own region {}",
                    self.my_region
                );
                self.replica.apply_deltas(rect, &deltas);
                self.mark_own_dirty(rect);
            }
            Packet::ReqRmtData { rect } => {
                // We are the owner: answer with absolute data.
                let r = rect
                    .intersection(&self.my_region)
                    .expect("ReqRmtData must target the owner's region");
                let values = self.replica.extract(r);
                busy += r.area() * self.config.scan_per_cell_ns;
                busy +=
                    self.send(outbox, from, Packet::LocData { rect: r, values, response: true });
                // ReqLocData trigger: a processor that keeps requesting
                // our region has been routing in it (§4.3.3).
                if let Some(threshold) = self.config.schedule.req_loc_data {
                    self.reqs_from[from] += 1;
                    if self.reqs_from[from] >= threshold {
                        self.reqs_from[from] = 0;
                        busy +=
                            self.send(outbox, from, Packet::ReqLocData { rect: self.my_region });
                    }
                }
            }
            Packet::ReqLocData { rect } => {
                // The owner of `rect` wants the deltas we hold against it.
                busy += rect.area() * self.config.scan_per_cell_ns;
                if let Some(bbox) = self.delta.changes_in(rect) {
                    let deltas = self.delta.extract_and_clear(bbox);
                    busy += self.send(
                        outbox,
                        from,
                        Packet::RmtData { rect: bbox, deltas, response: true },
                    );
                }
            }
            Packet::WireRequest => {
                // We are the assignment processor: hand out the next
                // wire, or report exhaustion. Requests are only seen
                // between our own wires — the §4.2 latency the paper
                // rejected this scheme over.
                debug_assert_eq!(self.proc, COORDINATOR);
                let wire = if self.dyn_pool_next < self.circuit.wire_count() {
                    let w = self.dyn_pool_next as u32;
                    self.dyn_pool_next += 1;
                    Some(w)
                } else {
                    None
                };
                busy += self.send(outbox, from, Packet::WireGrant { wire });
            }
            Packet::WireGrant { wire } => {
                self.awaiting_grant = false;
                match wire {
                    Some(w) => self.granted = Some(w as WireId),
                    None => {
                        self.mark_finished_routing();
                        self.driver.close_iteration();
                    }
                }
            }
            Packet::WireData { events } => {
                // Replay the sender's routing events against our view.
                for ev in events {
                    if !ev.ripped.is_empty() {
                        let ripped = Route::from_segments(ev.ripped);
                        for &cell in ripped.cells() {
                            self.replica.add(cell, -1);
                            if self.my_region.contains(cell) {
                                self.mark_own_dirty(Rect::cell(cell));
                            }
                        }
                    }
                    let routed = Route::from_segments(ev.routed);
                    for &cell in routed.cells() {
                        self.replica.add(cell, 1);
                        if self.my_region.contains(cell) {
                            self.mark_own_dirty(Rect::cell(cell));
                        }
                    }
                }
            }
            Packet::Finished => {
                if self.config.recovery.is_some() {
                    if self.proc == self.coordinator {
                        self.finished_flags[from] = true;
                    }
                    // Otherwise: a report addressed to this node while it
                    // was coordinator-apparent, since superseded; the
                    // sender will re-report via StatusReport.
                } else {
                    debug_assert_eq!(self.proc, COORDINATOR);
                    self.finished_seen += 1;
                }
            }
            Packet::Terminate => {
                self.terminate = true;
            }
            Packet::Heartbeat => {
                // Liveness is tracked per envelope in `step`. Beyond
                // that, only coordinators broadcast heartbeats, so one
                // from a lower rank than the believed coordinator is a
                // competing claim that wins (the successor rule elects
                // the lowest live rank): a split brain from cascaded
                // false suspicions re-converges on the lowest claimant,
                // and a deposed-but-alive coordinator demotes itself
                // here. The adopter re-reports its finish state so the
                // restored coordinator's ledger completes.
                if self.config.recovery.is_some() && from < self.coordinator {
                    self.presumed_dead[from] = false;
                    self.coordinator = from;
                    self.finished_sent = false;
                }
            }
            Packet::Checkpoint { progress, bytes: _ } => {
                if self.proc == self.coordinator {
                    self.ckpt_known[from] = self.ckpt_known[from].max(progress);
                }
            }
            Packet::Reassign { wires } => {
                self.recovery_stats.wires_adopted += wires.len() as u64;
                self.adopted.extend(wires.iter().map(|&w| w as WireId));
                // Fresh work un-finishes this node; it re-reports once
                // the adopted queue drains.
                self.finished_sent = false;
            }
            Packet::NewCoordinator => {
                if from != self.proc {
                    // Every rank below the announcer must be dead or the
                    // announcer would not have won the succession.
                    for p in 0..from {
                        if p != self.proc {
                            self.presumed_dead[p] = true;
                        }
                    }
                    self.coordinator = from;
                    busy += self.send(
                        outbox,
                        from,
                        Packet::StatusReport {
                            progress: self.ckpt_progress,
                            finished: self.finished_routing && self.adopted.is_empty(),
                        },
                    );
                }
            }
            Packet::StatusReport { progress, finished } => {
                if self.proc == self.coordinator {
                    self.ckpt_known[from] = self.ckpt_known[from].max(progress);
                    if finished {
                        self.finished_flags[from] = true;
                    }
                }
            }
        }
        busy
    }

    /// Issues receiver-initiated `ReqRmtData` requests for the upcoming
    /// window of wires (the paper requests five wires ahead, §4.3.3).
    fn issue_requests(&mut self, outbox: &mut Outbox<Frame>) -> u64 {
        let Some(threshold) = self.config.schedule.req_rmt_data else {
            return 0;
        };
        let mut busy = 0u64;
        let window_end =
            (self.wire_idx + self.config.request_ahead as usize).min(self.my_wires.len());
        while self.request_cursor < window_end {
            let wire = self.circuit.wire(self.my_wires[self.request_cursor]);
            let bbox = wire.bounding_box();
            for p in self.regions.owners_intersecting(bbox) {
                if p == self.proc {
                    continue;
                }
                let in_region = bbox
                    .intersection(&self.regions.region(p))
                    .expect("owner intersects the bbox by construction");
                self.touch_count[p] += 1;
                self.touch_bbox[p] = Some(match self.touch_bbox[p] {
                    Some(b) => b.union(&in_region),
                    None => in_region,
                });
                if self.touch_count[p] >= threshold {
                    let rect = self.touch_bbox[p].take().expect("bbox recorded with count");
                    self.touch_count[p] = 0;
                    busy += self.send(outbox, p, Packet::ReqRmtData { rect });
                    self.outstanding += 1;
                }
            }
            self.request_cursor += 1;
        }
        busy
    }

    /// Emits any due sender-initiated updates for the configured packet
    /// structure; returns the modelled assembly time.
    fn emit_sender_updates(&mut self, outbox: &mut Outbox<Frame>) -> u64 {
        let mut busy = 0u64;
        // Sender-initiated updates (§4.3.2): only if something changed.
        // The payload depends on the configured packet structure
        // (§4.3.1): bounding box (default), full region, or wire-based.
        match self.config.structure {
            PacketStructure::WireBased => {
                // Events replace both SendLocData and SendRmtData; they
                // are flushed on the SendRmtData cadence to every
                // processor whose region any event touches.
                let n = self
                    .config
                    .schedule
                    .send_rmt_data
                    .expect("validated: WireBased requires send_rmt_data");
                if self.wires_routed_count.is_multiple_of(n) && !self.wire_events.is_empty() {
                    let events = std::mem::take(&mut self.wire_events);
                    let mut bbox: Option<Rect> = None;
                    for ev in &events {
                        for seg in ev.ripped.iter().chain(&ev.routed) {
                            let b = seg.bounding_box();
                            bbox = Some(match bbox {
                                Some(acc) => acc.union(&b),
                                None => b,
                            });
                        }
                    }
                    let bbox = bbox.expect("events are non-empty");
                    for p in self.regions.owners_intersecting(bbox) {
                        if p == self.proc {
                            continue;
                        }
                        busy += self.send(outbox, p, Packet::WireData { events: events.clone() });
                    }
                }
            }
            PacketStructure::BoundingBox | PacketStructure::FullRegion => {
                let full = self.config.structure == PacketStructure::FullRegion;
                if let Some(n) = self.config.schedule.send_loc_data {
                    if self.wires_routed_count.is_multiple_of(n) {
                        if let Some(dirty) = self.own_dirty.take() {
                            let rect = if full { self.my_region } else { dirty };
                            let values = self.replica.extract(rect);
                            if !full {
                                busy += rect.area() * self.config.scan_per_cell_ns;
                            }
                            for nb in self.mesh_neighbors.clone() {
                                busy += self.send(
                                    outbox,
                                    nb,
                                    Packet::LocData {
                                        rect,
                                        values: values.clone(),
                                        response: false,
                                    },
                                );
                            }
                        }
                    }
                }
                if let Some(n) = self.config.schedule.send_rmt_data {
                    if self.wires_routed_count.is_multiple_of(n) {
                        for p in 0..self.regions.n_procs() {
                            if p == self.proc {
                                continue;
                            }
                            let region = self.regions.region(p);
                            if full {
                                if !self.delta.is_clean_in(region) {
                                    let deltas = self.delta.extract_and_clear(region);
                                    busy += self.send(
                                        outbox,
                                        p,
                                        Packet::RmtData { rect: region, deltas, response: false },
                                    );
                                }
                            } else {
                                busy += region.area() * self.config.scan_per_cell_ns;
                                if let Some(bbox) = self.delta.changes_in(region) {
                                    let deltas = self.delta.extract_and_clear(bbox);
                                    busy += self.send(
                                        outbox,
                                        p,
                                        Packet::RmtData { rect: bbox, deltas, response: false },
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        busy
    }

    /// Rips up (if re-routing) and routes the next wire; emits any due
    /// sender-initiated updates. Returns modelled work time.
    fn route_next_wire(&mut self, outbox: &mut Outbox<Frame>) -> u64 {
        let mut busy = self.issue_requests(outbox);
        let idx = self.wire_idx;
        let wire_id = self.my_wires[idx];
        let stamp = Stamp::At(self.now_ns);
        if idx == 0 {
            self.driver.phase_begin(stamp);
        }

        // Rip up the previous iteration's route (§3).
        let mut ripped_segments: Vec<locus_router::Segment> = Vec::new();
        if let Some(old) = self.driver.rip_up(idx, wire_id, stamp) {
            busy += old.len() as u64 * self.config.cell_write_ns;
            self.oracle.lock().expect("oracle lock").remove_route(&old);
            self.touch_truth(&old);
            if self.config.structure == PacketStructure::WireBased {
                ripped_segments = old.segments().to_vec();
            }
            for &cell in old.cells() {
                self.apply_cell_change(cell, -1);
            }
        }

        // Evaluate against the (possibly stale) replica.
        let wire = self.circuit.wire(wire_id).clone();
        let eval = route_wire_scratch(
            &self.replica,
            &wire,
            self.config.params.channel_overshoot,
            &mut self.scratch,
        );
        busy += eval.cells_examined * self.config.cell_eval_ns;
        busy += eval.route.len() as u64 * self.config.cell_write_ns;
        // Occupancy factor: the chosen path's cost against the true
        // global state at routing time (§3) — the decision above saw
        // only the replica.
        let cost_at_decision = {
            use locus_router::CostView;
            let mut oracle = self.oracle.lock().expect("oracle lock");
            let cost = oracle.route_cost(&eval.route);
            oracle.add_route(&eval.route);
            cost
        };
        self.touch_truth(&eval.route);

        for &cell in eval.route.cells() {
            self.apply_cell_change(cell, 1);
        }
        if self.config.structure == PacketStructure::WireBased {
            self.wire_events.push(WireEvent {
                ripped: ripped_segments,
                routed: eval.route.segments().to_vec(),
            });
        }
        self.driver.commit(idx, wire_id, eval, cost_at_decision, stamp);

        self.wires_routed_count += 1;
        self.maybe_audit_replica();

        busy += self.emit_sender_updates(outbox);

        // Advance the program counter.
        self.wire_idx += 1;
        let progressed = self.wire_idx as u32;
        if self.wire_idx == self.my_wires.len() {
            self.driver.phase_end(stamp);
            self.driver.close_iteration();
            self.iteration += 1;
            self.wire_idx = 0;
            self.request_cursor = 0;
            if self.iteration == self.config.params.iterations {
                self.mark_finished_routing();
            }
        }
        if let Some(rc) = self.config.recovery {
            // Validation pins recovery to a single iteration, so
            // `progressed` is this node's total static progress. The
            // at-finish checkpoint makes a finished-then-crashed node's
            // full route set durable.
            if self.finished_routing || progressed.is_multiple_of(rc.checkpoint_every) {
                busy += self.take_checkpoint(progressed, outbox);
            }
        }
        busy
    }
}

impl RouterNode {
    /// Persists the node's routing state: charges the serialized size of
    /// its owned cost shard plus the progress record to simulated time,
    /// advances the durable progress mark, and ships the progress record
    /// to the coordinator so reassignment after a crash starts from here.
    fn take_checkpoint(&mut self, progress: u32, outbox: &mut Outbox<Frame>) -> u64 {
        let rc = self.config.recovery.expect("checkpoint requires recovery");
        // Owned shard at 2 bytes per cell, plus an 8-byte progress record.
        let bytes = self.my_region.area() * 2 + 8;
        let mut busy = bytes * rc.checkpoint_per_byte_ns;
        self.ckpt_progress = progress;
        self.recovery_stats.checkpoints_taken += 1;
        self.recovery_stats.checkpoint_bytes += bytes;
        self.driver
            .emit_event(Stamp::At(self.now_ns), EventKind::CheckpointTaken { bytes: bytes as u32 });
        if self.proc == self.coordinator {
            self.ckpt_known[self.proc] = progress;
        } else {
            busy += self.send(
                outbox,
                self.coordinator,
                Packet::Checkpoint { progress, bytes: bytes as u32 },
            );
        }
        busy
    }

    /// One recovery round: emit a due heartbeat, declare silent peers
    /// dead, and (as a worker) fail over when the coordinator has gone
    /// silent. Pure no-op when recovery is off.
    fn recovery_tick(&mut self, outbox: &mut Outbox<Frame>) -> u64 {
        let Some(rc) = self.config.recovery else {
            return 0;
        };
        let mut busy = 0u64;
        // Succession invariant: the coordinator is the lowest live
        // rank. A node that finds itself ranked *below* its believed
        // coordinator got there through crossed failover claims — the
        // higher rank declared this node dead while it was merely
        // slow. This node is alive and lower, so the role is its;
        // announcing the claim demotes the higher claimant.
        if self.proc < self.coordinator {
            self.coordinator = self.proc;
            busy += self.become_coordinator(outbox);
        }
        if self.now_ns >= self.next_heartbeat_at {
            self.next_heartbeat_at = self.now_ns + rc.heartbeat_ns;
            self.recovery_stats.heartbeats_sent += 1;
            if self.proc == self.coordinator {
                // Broadcast to presumed-dead peers too: heartbeats are
                // raw and cheap, a truly dead peer just drops them, and
                // a falsely-suspected rival coordinator must hear this
                // claim to demote itself (split-brain convergence).
                for p in 0..self.regions.n_procs() {
                    if p != self.proc {
                        busy += self.send_raw(outbox, p, Packet::Heartbeat);
                    }
                }
            } else {
                busy += self.send_raw(outbox, self.coordinator, Packet::Heartbeat);
            }
        }
        let window = rc.suspect_window_ns();
        if self.proc == self.coordinator {
            for p in 0..self.regions.n_procs() {
                if p == self.proc || self.presumed_dead[p] {
                    continue;
                }
                if self.now_ns.saturating_sub(self.last_heard[p]) > window {
                    self.presumed_dead[p] = true;
                    self.recovery_stats.nodes_declared_dead += 1;
                    busy += self.reassign_wires_of(p, outbox);
                }
            }
        } else if !self.presumed_dead[self.coordinator]
            && self.now_ns.saturating_sub(self.last_heard[self.coordinator]) > window
        {
            // The coordinator has gone silent: the successor is the
            // lowest presumed-live rank. Workers only ever suspect
            // coordinators, so every live node's successor converges.
            self.presumed_dead[self.coordinator] = true;
            self.recovery_stats.nodes_declared_dead += 1;
            let successor = (0..self.regions.n_procs())
                .find(|&p| !self.presumed_dead[p])
                .expect("this node itself is alive");
            self.coordinator = successor;
            if successor == self.proc {
                busy += self.become_coordinator(outbox);
            }
        }
        busy
    }

    /// Takes over coordinator duty: announce to every peer (the deposed
    /// coordinator included — if it later restarts, the retransmitted
    /// announcement demotes it), collect status reports, and
    /// redistribute every known-dead peer's orphans.
    fn become_coordinator(&mut self, outbox: &mut Outbox<Frame>) -> u64 {
        let mut busy = 0u64;
        self.recovery_stats.coordinator_failovers += 1;
        self.driver.emit_event(
            Stamp::At(self.now_ns),
            EventKind::CoordinatorFailover { new_coordinator: self.proc as u32 },
        );
        // Fresh detection baseline: as a worker this node only heard
        // peers through data traffic, so its silence clocks are stale by
        // up to a routing stretch. Without a grace period the new
        // coordinator instantly declares every quiet-but-live worker
        // dead and orphans whatever had been granted to them.
        for t in self.last_heard.iter_mut() {
            *t = self.now_ns;
        }
        // Redistribute before announcing: streams are FIFO, so each
        // adopter holds its new work before it answers `NewCoordinator`,
        // and its `StatusReport` cannot claim a finish it no longer has.
        // The dead coordinator's checkpoint ledger died with it, so its
        // orphans are redistributed from `ckpt_known` — zero unless it
        // ever reported here, which re-routes already-durable work; the
        // duplicates resolve first-writer-wins at collection.
        for d in 0..self.regions.n_procs() {
            if self.presumed_dead[d] && !self.reassigned[d] {
                busy += self.reassign_wires_of(d, outbox);
            }
        }
        for p in 0..self.regions.n_procs() {
            if p != self.proc {
                busy += self.send(outbox, p, Packet::NewCoordinator);
            }
        }
        busy
    }

    /// Redistributes the dead peer's post-checkpoint wires round-robin
    /// over the live nodes (this node included). Idempotent per peer.
    fn reassign_wires_of(&mut self, dead: ProcId, outbox: &mut Outbox<Frame>) -> u64 {
        if self.reassigned[dead] {
            return 0;
        }
        self.reassigned[dead] = true;
        let mut orphans: Vec<WireId> = {
            let plan = self.full_assignment.as_ref().expect("recovery implies a full assignment");
            let from = self.ckpt_known[dead] as usize;
            plan[dead].get(from..).map(<[WireId]>::to_vec).unwrap_or_default()
        };
        // Wires this coordinator previously granted to the dead node are
        // in nobody's static assignment; re-grant them all — the ones
        // the dead node did route are durable (dynamic routes survive a
        // crash) and resolve as duplicates, first-writer-wins.
        orphans.extend(std::mem::take(&mut self.granted_log[dead]));
        if orphans.is_empty() {
            return 0;
        }
        let targets: Vec<ProcId> =
            (0..self.regions.n_procs()).filter(|&p| p != dead && !self.presumed_dead[p]).collect();
        let mut buckets: Vec<Vec<WireId>> = vec![Vec::new(); targets.len()];
        for (i, &w) in orphans.iter().enumerate() {
            buckets[i % targets.len()].push(w);
        }
        let mut busy = 0u64;
        for (t, wires) in targets.into_iter().zip(buckets) {
            if wires.is_empty() {
                continue;
            }
            self.recovery_stats.wires_reassigned += wires.len() as u64;
            for &w in &wires {
                self.driver.emit_event(
                    Stamp::At(self.now_ns),
                    EventKind::WireReassigned { wire: w as u32, from: dead as u32, to: t as u32 },
                );
            }
            if t == self.proc {
                self.recovery_stats.wires_adopted += wires.len() as u64;
                self.adopted.extend(wires);
                self.finished_sent = false;
            } else {
                self.finished_flags[t] = false;
                self.granted_log[t].extend(wires.iter().copied());
                busy += self.send(
                    outbox,
                    t,
                    Packet::Reassign { wires: wires.iter().map(|&w| w as u32).collect() },
                );
            }
        }
        busy
    }
}

impl RouterNode {
    /// Routes one dynamically granted wire (§4.2 dynamic scheme; single
    /// iteration, so there is never a previous route to rip up).
    fn route_granted_wire(&mut self, wire_id: WireId, outbox: &mut Outbox<Frame>) -> u64 {
        let mut busy = 0u64;
        let wire = self.circuit.wire(wire_id).clone();
        let eval = route_wire_scratch(
            &self.replica,
            &wire,
            self.config.params.channel_overshoot,
            &mut self.scratch,
        );
        busy += eval.cells_examined * self.config.cell_eval_ns;
        busy += eval.route.len() as u64 * self.config.cell_write_ns;
        let cost_at_decision = {
            use locus_router::CostView;
            let mut oracle = self.oracle.lock().expect("oracle lock");
            let cost = oracle.route_cost(&eval.route);
            oracle.add_route(&eval.route);
            cost
        };
        self.touch_truth(&eval.route);
        for &cell in eval.route.cells() {
            self.apply_cell_change(cell, 1);
        }
        if self.config.structure == PacketStructure::WireBased {
            self.wire_events
                .push(WireEvent { ripped: Vec::new(), routed: eval.route.segments().to_vec() });
        }
        self.driver.commit_dynamic(wire_id, eval, cost_at_decision, Stamp::At(self.now_ns));
        self.wires_routed_count += 1;
        self.maybe_audit_replica();
        busy += self.emit_sender_updates(outbox);
        busy
    }

    /// One step of the dynamic-distribution protocol; returns the step
    /// outcome directly.
    fn dynamic_step(&mut self, mut busy: u64, outbox: &mut Outbox<Frame>) -> Step {
        if self.proc == COORDINATOR {
            // The assignment processor routes wires from the pool itself
            // ("at a low priority": requests were already served during
            // message processing at the top of this step).
            if self.dyn_pool_next < self.circuit.wire_count() {
                let w = self.dyn_pool_next;
                self.dyn_pool_next += 1;
                busy += self.route_granted_wire(w, outbox);
            } else {
                self.mark_finished_routing();
                self.driver.close_iteration();
            }
            return Step::Continue { busy_ns: busy };
        }
        if let Some(w) = self.granted.take() {
            busy += self.route_granted_wire(w, outbox);
            // Pipeline the next request behind the routing work.
            busy += self.send(outbox, COORDINATOR, Packet::WireRequest);
            self.awaiting_grant = true;
            return Step::Continue { busy_ns: busy };
        }
        if self.awaiting_grant {
            return if busy > 0 { Step::Continue { busy_ns: busy } } else { Step::Block };
        }
        // First step: ask for work.
        busy += self.send(outbox, COORDINATOR, Packet::WireRequest);
        self.awaiting_grant = true;
        Step::Continue { busy_ns: busy }
    }
}

impl RouterNode {
    /// The router program proper: termination protocol, blocking waits,
    /// and routing work. Inbox traffic has already been unframed and
    /// applied; `busy` carries its processing time.
    fn step_inner(&mut self, mut busy: u64, outbox: &mut Outbox<Frame>) -> Step {
        // Recovery bookkeeping first: heartbeats, failure detection,
        // failover (no-op when recovery is off or the run is over).
        if !self.terminate {
            busy += self.recovery_tick(outbox);
        }

        // Work adopted from a dead peer comes before the termination
        // protocol: an adopting node is not finished.
        if self.finished_routing && !self.terminate {
            if let Some(w) = self.adopted.pop_front() {
                busy += self.route_granted_wire(w, outbox);
                self.routing_done_ns = self.now_ns;
                // Adopted routes are made durable as they commit (the
                // progress mark is unchanged; this persists the shard).
                busy += self.take_checkpoint(self.ckpt_progress, outbox);
                return Step::Continue { busy_ns: busy };
            }
        }

        // Termination protocol.
        let ready = self.finished_routing && self.adopted.is_empty();
        if ready && !self.finished_sent {
            self.finished_sent = true;
            if self.proc != self.coordinator {
                busy += self.send(outbox, self.coordinator, Packet::Finished);
            }
        }
        let all_reported = if self.config.recovery.is_some() {
            (0..self.regions.n_procs())
                .filter(|&p| p != self.proc)
                .all(|p| self.finished_flags[p] || self.presumed_dead[p])
        } else {
            self.finished_seen == self.regions.n_procs() - 1
        };
        if self.proc == self.coordinator && ready && !self.terminate && all_reported {
            // Broadcast to presumed-dead peers too: a stalled-but-alive
            // node falsely declared dead still needs to stop, and the
            // reliable layer bounds the cost against a truly dead one
            // by exhausting its retries.
            for p in 0..self.regions.n_procs() {
                if p != self.proc {
                    busy += self.send(outbox, p, Packet::Terminate);
                }
            }
            self.terminate = true;
        }
        if self.terminate {
            return Step::Done;
        }
        if self.finished_routing {
            // Keep serving requests until everyone is done.
            return if busy > 0 { Step::Continue { busy_ns: busy } } else { Step::Block };
        }

        // Blocking receiver-initiated strategy: hold until responses land.
        if self.config.schedule.blocking && self.outstanding > 0 {
            return if busy > 0 { Step::Continue { busy_ns: busy } } else { Step::Block };
        }

        match self.config.wire_source {
            WireSource::Static => {
                busy += self.route_next_wire(outbox);
                Step::Continue { busy_ns: busy }
            }
            WireSource::Dynamic => self.dynamic_step(busy, outbox),
        }
    }

    /// Reliability epilogue of one step: flush due acks and due
    /// retransmissions, then translate the inner outcome so the kernel
    /// keeps this node schedulable while transport work is pending.
    /// `Block` becomes `Sleep` until the next retransmission timer, and
    /// `Done` holds the node in a linger window so it can re-ack
    /// retransmitted traffic whose acks were lost.
    fn finish_step(&mut self, inner: Step, had_traffic: bool, outbox: &mut Outbox<Frame>) -> Step {
        if !self.transport.is_reliable() {
            return inner;
        }
        if self.terminate {
            // The run is over: stale updates no longer need repairing,
            // but the coordinator's own `Terminate` fan-out must keep
            // retrying or a worker that lost it never stops.
            self.transport.clear_inflight_except_terminate();
        }
        let mut extra = 0u64;
        for (to, cum_seq) in self.transport.take_due_acks() {
            extra += self.send_ack(outbox, to, cum_seq);
        }
        for (to, seq, attempt, packet) in self.transport.due_retransmits(self.now_ns) {
            extra += self.resend(outbox, to, seq, attempt, packet);
        }
        match inner {
            Step::Continue { busy_ns } => Step::Continue { busy_ns: busy_ns + extra },
            Step::Sleep { until } => Step::Sleep { until },
            Step::Block => {
                if extra > 0 {
                    Step::Continue { busy_ns: extra }
                } else if let Some(timer) = self.transport.next_timer_at() {
                    // `due_retransmits` above consumed every deadline
                    // <= now, so the timer is strictly in the future.
                    Step::Sleep { until: SimTime::from_ns(timer) }
                } else {
                    Step::Block
                }
            }
            Step::Done => {
                if had_traffic || self.linger_until.is_none() {
                    self.linger_until = Some(self.now_ns + self.transport.linger_ns());
                }
                let deadline = self.linger_until.expect("linger deadline just set");
                if extra > 0 {
                    return Step::Continue { busy_ns: extra };
                }
                if self.transport.has_inflight() {
                    let timer =
                        self.transport.next_timer_at().expect("inflight packets carry timers");
                    return Step::Sleep { until: SimTime::from_ns(timer.max(self.now_ns + 1)) };
                }
                if self.now_ns >= deadline {
                    Step::Done
                } else {
                    Step::Sleep { until: SimTime::from_ns(deadline) }
                }
            }
        }
    }
}

impl Node for RouterNode {
    type Msg = Frame;

    fn step(
        &mut self,
        now: SimTime,
        inbox: Vec<Envelope<Frame>>,
        outbox: &mut Outbox<Frame>,
    ) -> Step {
        self.now_ns = now.as_ns();
        let had_traffic = !inbox.is_empty();
        let recovery_on = self.config.recovery.is_some();
        let mut busy = 0u64;
        for env in inbox {
            if recovery_on {
                // Any traffic proves the sender alive — acks and raw
                // heartbeats included, which never reach `handle_packet`.
                self.last_heard[env.from] = self.now_ns;
            }
            for packet in self.transport.receive(env.from, env.msg) {
                busy += self.handle_packet(env.from, packet, outbox);
            }
        }
        let inner = if recovery_on && !self.terminate && self.pending_busy > 0 {
            // Mid-computation: stay responsive (heartbeat, detect, ack,
            // retransmit) but start no new routing work until the banked
            // busy time below drains.
            let tick = self.recovery_tick(outbox);
            Step::Continue { busy_ns: busy + tick }
        } else {
            self.step_inner(busy, outbox)
        };
        let out = self.finish_step(inner, had_traffic, outbox);
        if !recovery_on || self.terminate {
            // A `Terminate` mid-drain abandons the banked remainder: the
            // run is over and nobody is measuring this node any more.
            self.pending_busy = 0;
            return out;
        }
        let out = match out {
            // Drain computation in chunks short enough that the node
            // steps (and so heartbeats) well inside the suspect window
            // no matter how expensive a single wire is.
            Step::Continue { busy_ns } => {
                let chunk = (self.config.recovery.expect("recovery is on").heartbeat_ns / 2).max(1);
                let total = self.pending_busy + busy_ns;
                let charged = total.min(chunk);
                self.pending_busy = total - charged;
                Step::Continue { busy_ns: charged }
            }
            other => other,
        };
        // Never sleep or block past the next heartbeat: a silent node
        // would be declared dead, and a sleeping coordinator would never
        // notice a dead worker.
        let hb = SimTime::from_ns(self.next_heartbeat_at.max(self.now_ns + 1));
        match out {
            Step::Block => Step::Sleep { until: hb },
            Step::Sleep { until } => Step::Sleep { until: until.min(hb) },
            other => other,
        }
    }

    fn on_restart(&mut self, now: SimTime) {
        self.now_ns = now.as_ns();
        if self.config.recovery.is_none() {
            return;
        }
        // Routing state past the last checkpoint was volatile and died
        // with the crash: rip those routes back out of the shared truth
        // and the local view, and rewind the program counter. (The
        // durable prefix — replica shard and progress — reloads from the
        // checkpoint; the transport survives because peers retransmit
        // anything unacknowledged.)
        let stamp = Stamp::At(self.now_ns);
        let lo = self.ckpt_progress as usize;
        let hi = self.wire_idx;
        for idx in (lo..hi).rev() {
            let wire_id = self.my_wires[idx];
            if let Some(old) = self.driver.rip_up(idx, wire_id, stamp) {
                self.oracle.lock().expect("oracle lock").remove_route(&old);
                self.touch_truth(&old);
                for &cell in old.cells() {
                    self.apply_cell_change(cell, -1);
                }
            }
        }
        if hi > lo {
            self.recovery_stats.rollbacks += 1;
            self.recovery_stats.wires_rolled_back += (hi - lo) as u64;
        }
        self.wire_idx = lo;
        self.request_cursor = self.request_cursor.min(lo);
        // In-flight computation died with the crash.
        self.pending_busy = 0;
        // A fresh boot owes everyone a heartbeat, and grants every peer
        // a fresh silence clock — the old one stopped while this node
        // was down and would indict peers that never went quiet.
        self.next_heartbeat_at = self.now_ns;
        for h in &mut self.last_heard {
            *h = self.now_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::UpdateSchedule;
    use locus_circuit::presets;
    use locus_router::{assign, AssignmentStrategy};

    fn make_node(schedule: UpdateSchedule, proc: ProcId, n_procs: usize) -> RouterNode {
        let circuit = Arc::new(presets::small());
        let regions = Arc::new(RegionMap::new(circuit.channels, circuit.grids, n_procs));
        let assignment =
            assign(&circuit, &regions, AssignmentStrategy::Locality { threshold_cost: Some(1000) });
        let config = MsgPassConfig::new(n_procs, schedule);
        let oracle = Arc::new(Mutex::new(CostArray::new(circuit.channels, circuit.grids)));
        RouterNode::new(
            proc,
            circuit,
            regions,
            config,
            assignment.wires_per_proc[proc].clone(),
            oracle,
        )
    }

    #[test]
    fn node_routes_its_wires_standalone() {
        // Without any updates, a node simply routes its wires to
        // completion (single-processor semantics on its replica).
        let mut node = make_node(UpdateSchedule::never(), 0, 4);
        let n_wires = node.my_wires.len();
        assert!(n_wires > 0);
        let mut outbox = Outbox::new();
        let mut steps = 0;
        loop {
            let step = node.step(SimTime::ZERO, Vec::new(), &mut outbox);
            steps += 1;
            if node.finished_routing {
                break;
            }
            assert!(matches!(step, Step::Continue { .. }));
            assert!(steps < 100_000, "node did not converge");
        }
        assert_eq!(node.routes().count(), n_wires);
        assert!(node.occupancy_factor() > 0 || n_wires < 3);
    }

    #[test]
    fn sender_initiated_node_emits_updates() {
        let mut node = make_node(UpdateSchedule::sender_initiated(1, 1), 0, 4);
        let mut outbox = Outbox::new();
        // Route a few wires (enough to touch a neighbouring region).
        for _ in 0..12 {
            let _ = node.step(SimTime::ZERO, Vec::new(), &mut outbox);
        }
        assert!(!outbox.is_empty(), "sender-initiated schedule must emit updates while routing");
        use crate::packet::PacketKind;
        assert!(node.sent_counts().packets(PacketKind::SendRmtData) > 0);
    }

    #[test]
    fn req_rmt_data_is_answered_with_absolute_data() {
        let mut owner = make_node(UpdateSchedule::receiver_initiated(1, 5), 0, 4);
        let mut outbox = Outbox::new();
        let rect = owner.my_region;
        let busy = owner.handle_packet(1, Packet::ReqRmtData { rect }, &mut outbox);
        assert!(busy > 0);
        assert_eq!(outbox.len(), 2, "response plus ReqLocData (threshold 1)");
        assert_eq!(outbox.sends()[0].0, 1);
    }

    #[test]
    fn req_loc_data_returns_deltas_and_clears() {
        let mut node = make_node(UpdateSchedule::receiver_initiated(1, 5), 0, 4);
        // Fabricate a change to a foreign region (proc 3's region).
        let foreign = node.regions.region(3);
        let cell = locus_circuit::GridCell::new(foreign.c_lo, foreign.x_lo);
        node.apply_cell_change(cell, 1);
        let mut outbox = Outbox::new();
        let _ = node.handle_packet(3, Packet::ReqLocData { rect: foreign }, &mut outbox);
        assert_eq!(outbox.len(), 1);
        match outbox.sends()[0].2.packet().expect("data frame").clone() {
            Packet::RmtData { rect, deltas, response } => {
                assert!(response);
                assert_eq!(rect, Rect::cell(cell));
                assert_eq!(deltas, vec![1i16]);
            }
            other => panic!("expected RmtData response, got {other:?}"),
        }
        assert!(node.delta.is_zero(), "answered deltas must be cleared");
    }

    #[test]
    fn loc_data_installs_absolute_values() {
        let mut node = make_node(UpdateSchedule::never(), 0, 4);
        let foreign = node.regions.region(3);
        let rect = Rect::new(foreign.c_lo, foreign.c_lo, foreign.x_lo, foreign.x_lo + 1);
        let mut outbox = Outbox::new();
        let _ = node.handle_packet(
            3,
            Packet::LocData { rect, values: vec![7, 9], response: false },
            &mut outbox,
        );
        use locus_router::CostView;
        assert_eq!(node.replica.cost_at(locus_circuit::GridCell::new(rect.c_lo, rect.x_lo)), 7);
        assert_eq!(node.replica.cost_at(locus_circuit::GridCell::new(rect.c_lo, rect.x_lo + 1)), 9);
    }

    #[test]
    fn rmt_data_applies_deltas_to_own_region() {
        let mut node = make_node(UpdateSchedule::never(), 0, 4);
        let own = node.my_region;
        let rect = Rect::new(own.c_lo, own.c_lo, own.x_lo, own.x_lo);
        let mut outbox = Outbox::new();
        let _ = node.handle_packet(
            1,
            Packet::RmtData { rect, deltas: vec![3], response: false },
            &mut outbox,
        );
        use locus_router::CostView;
        assert_eq!(node.replica.cost_at(locus_circuit::GridCell::new(own.c_lo, own.x_lo)), 3);
        assert!(node.own_dirty.is_some(), "remote change must dirty the own region");
    }

    #[test]
    fn blocking_node_blocks_on_outstanding_requests() {
        let mut node = make_node(UpdateSchedule::receiver_initiated_blocking(1, 1), 1, 4);
        let mut outbox = Outbox::new();
        // First step issues requests for the upcoming window and routes.
        let _ = node.step(SimTime::ZERO, Vec::new(), &mut outbox);
        if node.outstanding > 0 {
            let step = node.step(SimTime::ZERO, Vec::new(), &mut Outbox::new());
            assert_eq!(step, Step::Block, "must block while responses are outstanding");
        }
    }

    #[test]
    fn response_unblocks_blocking_node() {
        let mut node = make_node(UpdateSchedule::receiver_initiated_blocking(1, 1), 1, 4);
        let mut outbox = Outbox::new();
        let _ = node.step(SimTime::ZERO, Vec::new(), &mut outbox);
        let outstanding = node.outstanding;
        if outstanding == 0 {
            return; // this processor's first wires are fully local
        }
        // Answer every outstanding request with an empty-ish response.
        let sends: Vec<_> = outbox.sends().to_vec();
        for (to, _, packet) in sends {
            if let Some(Packet::ReqRmtData { rect }) = packet.packet().cloned() {
                let values = vec![0u16; rect.area() as usize];
                let _ = node.handle_packet(
                    to,
                    Packet::LocData { rect, values, response: true },
                    &mut Outbox::new(),
                );
            }
        }
        assert_eq!(node.outstanding, 0);
        let step = node.step(SimTime::ZERO, Vec::new(), &mut Outbox::new());
        assert!(matches!(step, Step::Continue { .. }), "node must resume after responses");
    }

    #[test]
    fn coordinator_terminates_after_all_finished() {
        let mut node = make_node(UpdateSchedule::never(), 0, 4);
        // Drive the coordinator to finish its own routing.
        let mut outbox = Outbox::new();
        while !node.finished_routing {
            let _ = node.step(SimTime::ZERO, Vec::new(), &mut outbox);
        }
        // It must not terminate before hearing from the other three.
        let step = node.step(SimTime::ZERO, Vec::new(), &mut Outbox::new());
        assert_ne!(step, Step::Done);
        for _ in 0..3 {
            let _ = node.handle_packet(1, Packet::Finished, &mut Outbox::new());
        }
        let mut outbox = Outbox::new();
        let step = node.step(SimTime::ZERO, Vec::new(), &mut outbox);
        assert_eq!(step, Step::Done);
        assert_eq!(outbox.len(), 3, "terminate broadcast to the other nodes");
    }

    #[test]
    fn worker_stops_on_terminate() {
        let mut node = make_node(UpdateSchedule::never(), 1, 4);
        let mut outbox = Outbox::new();
        while !node.finished_routing {
            let _ = node.step(SimTime::ZERO, Vec::new(), &mut outbox);
        }
        let _ = node.handle_packet(0, Packet::Terminate, &mut Outbox::new());
        let step = node.step(SimTime::ZERO, Vec::new(), &mut Outbox::new());
        assert_eq!(step, Step::Done);
    }

    #[test]
    fn delta_cancellation_across_iterations() {
        // Route all wires twice with no updates: any cell whose route did
        // not move between iterations must hold delta <= 1 net change
        // (rip-up cancels re-route).
        let mut node = make_node(UpdateSchedule::never(), 0, 4);
        let mut outbox = Outbox::new();
        while !node.finished_routing {
            let _ = node.step(SimTime::ZERO, Vec::new(), &mut outbox);
        }
        // The replica's total must equal the final routes' coverage that
        // this node applied (its own wires only).
        let coverage: u64 = node.routes().map(|(_, r)| r.len() as u64).sum();
        assert_eq!(node.replica.total(), coverage);
    }
}
