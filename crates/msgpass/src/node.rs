//! The per-processor router actor: the top of the node's protocol stack.
//!
//! Each mesh node runs one [`RouterNode`], four layers deep:
//!
//! * the **transport** ([`crate::reliable`]) frames packets, counts
//!   them, and repairs loss;
//! * the **control plane** ([`crate::recovery`]) decides when the run
//!   ends: it keeps the termination ledger, and under recovery
//!   checkpoints, heartbeats, reassigns a dead peer's wires and elects
//!   coordinators;
//! * the **update protocol** ([`crate::update`]) keeps the delta array
//!   and exchanges the §4.3 update packets;
//! * the **router**, this file, places wires against its local
//!   cost-array replica from three sources — its static assignment,
//!   wires granted by the §4.2 assignment processor, wires orphaned by
//!   dead peers — and sequences one step of all four.

use std::cell::RefCell;
use std::sync::Arc;

use locus_circuit::{Circuit, WireId};
use locus_mesh::{Envelope, Node, Outbox, SimTime, Step};
use locus_obs::{EventKind, Obs};
use locus_router::engine::IterationDriver;
use locus_router::router::route_wire_scratch;
use locus_router::{CostArray, EvalScratch, ProcId, RegionMap, Route};

use crate::config::{MsgPassConfig, WireSource};
use crate::packet::Packet;
use crate::recovery::{ControlPlane, COORDINATOR};
use crate::reliable::{Frame, Transport};
use crate::update::Update;

/// Modelled time to examine one cost-array cell during candidate
/// evaluation (ns). Calibrated so 16-processor bnrE runs land in the
/// paper's 1.1–2.5 s band (the MC68020-class node of §2.1).
const CELL_EVAL_NS: u64 = 2_000;

/// Modelled time to write one cost-array cell (rip-up/route commit, ns).
const CELL_WRITE_NS: u64 = 500;

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

/// One processor of the message-passing router.
pub(crate) struct RouterNode<'a> {
    proc: ProcId,
    /// The circuit being routed, lent by the run like the oracle.
    circuit: &'a Circuit,
    regions: Arc<RegionMap>,
    config: MsgPassConfig,
    /// Every processor's static wire list, computed once for the run
    /// and shared; this node routes `plan[proc]`.
    plan: Arc<Vec<Vec<WireId>>>,

    /// Metrics-only global truth, lent to every node by the run and
    /// updated as routes commit (the kernel steps nodes one at a time, in
    /// simulated-time order, on one thread).
    /// Routing decisions never read it; it exists so the occupancy factor
    /// can be measured against the *actual* congestion at routing time,
    /// as the paper's §3 definition requires — a stale replica would
    /// under-report exactly the congestion staleness causes.
    oracle: &'a RefCell<CostArray>,
    /// Per-cell simulated time the truth last changed, one entry per cost
    /// cell (allocated only when auditing; shared by all nodes like the
    /// oracle itself).
    truth_touched: Option<&'a RefCell<Vec<u64>>>,
    /// Staleness snapshots taken at the configured audit stamps.
    pub(crate) audits: Vec<ReplicaSnapshot>,

    /// The node's view of the cost array.
    pub(crate) replica: CostArray,
    /// Reusable evaluation buffers: the kernel allocates nothing per
    /// candidate.
    scratch: EvalScratch,
    /// The shared execution ledger: work counters, per-iteration
    /// occupancy, and routing-event emission.
    pub(crate) driver: IterationDriver,
    /// Routes of the static assignment, by position in `plan[proc]`.
    static_routes: Vec<Option<Route>>,
    /// Routes of wires outside the static assignment: granted by the
    /// §4.2 assignment processor or orphaned by dead peers.
    dynamic_routes: Vec<(WireId, Route)>,
    iteration: usize,
    wire_idx: usize,
    wires_routed_count: u32,

    // Dynamic wire distribution (§4.2).
    /// Master only: next wire id to hand out.
    dyn_pool_next: usize,
    /// Worker: a request is in flight.
    awaiting_grant: bool,
    /// Worker: a granted wire not yet routed.
    granted: Option<WireId>,

    /// Virtual time of the step that completed this node's last routing
    /// work (static assignment or orphaned wires). The run-level
    /// maximum is the routing span — everything past it is update
    /// exchange, checkpoint, and termination tail.
    pub(crate) routing_done_ns: u64,

    // The layers below, top down.
    update: Update,
    pub(crate) control: ControlPlane,
    pub(crate) transport: Transport,

    /// Simulated time of the step being executed (for event stamps).
    now_ns: u64,
}

impl<'a> RouterNode<'a> {
    /// Creates the actor for processor `proc`, which routes `plan[proc]`.
    /// All nodes of one run must share the same `plan`, the same `oracle`
    /// and the same `truth_touched`, which `config.audit_every` requires
    /// so audits can age their diverged cells.
    pub(crate) fn new(
        proc: ProcId,
        circuit: &'a Circuit,
        regions: Arc<RegionMap>,
        config: MsgPassConfig,
        plan: Arc<Vec<Vec<WireId>>>,
        oracle: &'a RefCell<CostArray>,
        truth_touched: Option<&'a RefCell<Vec<u64>>>,
    ) -> Self {
        let n_procs = regions.n_procs();
        let (channels, grids) = regions.surface();
        let region_cells = regions.region(proc).area();
        let control = ControlPlane::new(proc, config.recovery, region_cells, Arc::clone(&plan));
        RouterNode {
            proc,
            oracle,
            truth_touched,
            audits: Vec::new(),
            replica: CostArray::new(channels, grids),
            scratch: EvalScratch::default(),
            driver: IterationDriver::default(),
            static_routes: vec![None; plan[proc].len()],
            dynamic_routes: Vec::new(),
            iteration: 0,
            wire_idx: 0,
            wires_routed_count: 0,
            dyn_pool_next: 0,
            awaiting_grant: false,
            granted: None,
            routing_done_ns: 0,
            update: Update::new(proc, Arc::clone(&regions), &config),
            control,
            transport: Transport::new(proc, n_procs, config.reliability),
            now_ns: 0,
            circuit,
            regions,
            config,
            plan,
        }
    }

    /// Records this node's events (wire commits, rip-ups, iteration
    /// phases; acks and retransmissions; checkpoints, reassignments and
    /// failovers) through `obs`, each layer in the order it acts.
    pub(crate) fn with_obs(mut self, obs: Obs) -> Self {
        let obs = obs.for_node(self.proc as u32);
        self.driver = self.driver.with_obs(obs.clone());
        self.transport = self.transport.with_obs(obs);
        self
    }

    /// Takes the final routes out of the node (valid after the run
    /// completes), each with its wire id and whether it survives. When
    /// this node `crashed` under recovery, the routes committed after its
    /// last checkpoint were volatile and died with the node (an adopter
    /// re-routed those wires); they come back marked dead, so the caller
    /// can take them out of the shared truth. Routes of orphaned wires
    /// are checkpointed as they commit, so they always survive.
    pub(crate) fn take_routes(
        &mut self,
        crashed: bool,
    ) -> impl Iterator<Item = (WireId, Route, bool)> + '_ {
        let my_wires = &self.plan[self.proc];
        let limit = self.control.durable_limit(crashed, my_wires.len());
        let statics = my_wires.iter().zip(self.static_routes.drain(..)).enumerate();
        let statics = statics.filter_map(move |(i, (&w, r))| r.map(|r| (w, r, i < limit)));
        statics.chain(self.dynamic_routes.drain(..).map(|(w, r)| (w, r, true)))
    }

    /// Marks this node done with routing.
    fn mark_finished_routing(&mut self) {
        self.control.finished_routing = true;
        self.routing_done_ns = self.now_ns;
    }

    /// Stamps the truth-change time of every cell `route` covers (no-op
    /// unless auditing is on).
    fn touch_truth(&self, route: &Route) {
        let Some(touched) = self.truth_touched else {
            return;
        };
        let (_, grids) = self.regions.surface();
        let mut touched = touched.borrow_mut();
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
            let oracle = self.oracle.borrow();
            let touched = self.truth_touched.map(RefCell::borrow);
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
            self.now_ns,
            EventKind::ReplicaAudit {
                diverged_cells: diverged,
                max_divergence: max,
                mean_age_ns: snap.mean_age_ns(),
            },
        );
        self.audits.push(snap);
    }

    /// Handles one received packet; returns modelled processing time and
    /// queues any responses. The dynamic-distribution packets are the
    /// router's own; termination and recovery packets go to the control
    /// plane, data packets to the update protocol.
    fn handle_packet(&mut self, from: ProcId, packet: Packet, outbox: &mut Outbox<Frame>) -> u64 {
        match packet {
            Packet::WireRequest => {
                // We are the assignment processor: hand out the next
                // wire, or report exhaustion. Requests are only seen
                // between our own wires — the §4.2 latency the paper
                // rejected this scheme over.
                debug_assert_eq!(self.proc, COORDINATOR);
                let wire = self.draw_from_pool().map(|w| w as u32);
                let mut link = self.transport.link(outbox, self.now_ns);
                return link.send(from, Packet::WireGrant { wire });
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
            other => {
                let mut link = self.transport.link(outbox, self.now_ns);
                return if ControlPlane::owns(&other) {
                    self.control.handle(from, other, &mut link)
                } else {
                    self.update.handle(from, other, &mut self.replica, &mut link)
                };
            }
        }
        0
    }

    /// Assignment processor only: takes the next wire out of the pool, if
    /// any is left.
    fn draw_from_pool(&mut self) -> Option<WireId> {
        let next = self.dyn_pool_next;
        (next < self.circuit.wire_count()).then(|| {
            self.dyn_pool_next += 1;
            next
        })
    }

    /// Takes the route in static slot `idx` back out of the shared truth
    /// and the local view.
    fn rip_up(&mut self, idx: usize) -> Option<Route> {
        let old = self.static_routes[idx].take()?;
        self.driver.rip_up(self.plan[self.proc][idx], &old, self.now_ns);
        self.oracle.borrow_mut().remove_route(&old);
        self.touch_truth(&old);
        self.update.record_route(&mut self.replica, old.cells(), -1);
        Some(old)
    }

    /// Evaluates and commits one wire, from whichever source: into static
    /// slot `slot` after ripping up the previous iteration's route (§3),
    /// or onto the list of granted and orphaned routes (single
    /// iteration, so there is never a previous route). Emits any due
    /// sender-initiated updates. Returns modelled work time.
    fn place_wire(
        &mut self,
        slot: Option<usize>,
        wire_id: WireId,
        outbox: &mut Outbox<Frame>,
    ) -> u64 {
        let mut busy = 0;
        if let Some(old) = slot.and_then(|idx| self.rip_up(idx)) {
            busy += old.len() as u64 * CELL_WRITE_NS;
            // The wire is re-routed in its own ripped-up route's buffers,
            // which fit any route it can take.
            self.update.wire_ripped(&old);
            self.scratch.recycle(old);
        }

        // Evaluate against the (possibly stale) replica.
        let eval = route_wire_scratch(
            &self.replica,
            self.circuit.wire(wire_id),
            self.config.params.channel_overshoot,
            &mut self.scratch,
        );
        busy += eval.cells_examined * CELL_EVAL_NS;
        busy += eval.route.len() as u64 * CELL_WRITE_NS;
        // Occupancy factor: the chosen path's cost against the true
        // global state at routing time (§3) — the decision above saw
        // only the replica.
        let cost_at_decision = self.oracle.borrow_mut().commit_route(&eval.route);
        self.touch_truth(&eval.route);

        self.update.record_route(&mut self.replica, eval.route.cells(), 1);
        self.update.wire_routed(&eval.route);
        let route = self.driver.commit(wire_id, eval, cost_at_decision, self.now_ns);
        match slot {
            Some(idx) => self.static_routes[idx] = Some(route),
            None => self.dynamic_routes.push((wire_id, route)),
        }

        self.wires_routed_count += 1;
        self.maybe_audit_replica();

        let mut link = self.transport.link(outbox, self.now_ns);
        busy + self.update.emit_sender_updates(self.wires_routed_count, &self.replica, &mut link)
    }

    /// Places the next wire of the static assignment, after issuing any
    /// requests its window makes due. A node the assignment gives no wire
    /// begins and ends an iteration instead. Returns modelled work time.
    fn route_next_wire(&mut self, outbox: &mut Outbox<Frame>) -> u64 {
        let idx = self.wire_idx;
        let mut busy = 0;
        if let Some(&wire_id) = self.plan[self.proc].get(idx) {
            let mut link = self.transport.link(outbox, self.now_ns);
            busy += self.update.issue_requests(self.circuit, &self.plan[self.proc], idx, &mut link);
            if idx == 0 {
                self.driver.phase_begin(self.now_ns);
            }
            busy += self.place_wire(Some(idx), wire_id, outbox);
            // Advance the program counter.
            self.wire_idx += 1;
        } else {
            self.driver.phase_begin(self.now_ns);
        }
        let progressed = self.wire_idx as u32;
        if self.wire_idx == self.plan[self.proc].len() {
            self.driver.phase_end(self.now_ns);
            self.driver.close_iteration();
            self.iteration += 1;
            self.wire_idx = 0;
            self.update.rewind_requests(0);
            if self.iteration == self.config.params.iterations {
                self.mark_finished_routing();
            }
        }
        let mut link = self.transport.link(outbox, self.now_ns);
        busy + self.control.checkpoint(Some(progressed), &mut link)
    }

    /// One step of the dynamic-distribution protocol; returns the step
    /// outcome directly.
    fn dynamic_step(&mut self, mut busy: u64, outbox: &mut Outbox<Frame>) -> Step {
        if self.proc == COORDINATOR {
            // The assignment processor routes wires from the pool itself
            // ("at a low priority": requests were already served during
            // message processing at the top of this step).
            match self.draw_from_pool() {
                Some(w) => busy += self.place_wire(None, w, outbox),
                None => {
                    self.mark_finished_routing();
                    self.driver.close_iteration();
                }
            }
            return Step::Continue { busy_ns: busy };
        }
        if let Some(w) = self.granted.take() {
            busy += self.place_wire(None, w, outbox);
        } else if self.awaiting_grant {
            return if busy > 0 { Step::Continue { busy_ns: busy } } else { Step::Block };
        }
        // Ask for work: the first step's request, or the next one
        // pipelined behind the routing work.
        busy += self.transport.link(outbox, self.now_ns).send(COORDINATOR, Packet::WireRequest);
        self.awaiting_grant = true;
        Step::Continue { busy_ns: busy }
    }

    /// The router program proper: orphaned wires, the control plane's
    /// verdict, blocking waits, and routing work. Inbox traffic has
    /// already been unframed and applied and the control plane's round
    /// run; `busy` carries their processing time.
    fn step_inner(&mut self, mut busy: u64, outbox: &mut Outbox<Frame>) -> Step {
        // A dead peer's orphaned wires come before the termination
        // protocol: a node that holds some is not finished.
        if let Some(w) = self.control.next_orphan() {
            busy += self.place_wire(None, w, outbox);
            self.routing_done_ns = self.now_ns;
            let mut link = self.transport.link(outbox, self.now_ns);
            busy += self.control.checkpoint(None, &mut link);
            return Step::Continue { busy_ns: busy };
        }

        let mut link = self.transport.link(outbox, self.now_ns);
        busy += self.control.conclude(&mut link);
        if self.control.terminated() {
            return Step::Done;
        }
        // A finished node keeps serving requests until everyone is done;
        // under the blocking receiver-initiated strategy a routing node
        // holds until its responses land.
        if self.control.finished_routing || self.update.blocked() {
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
}

impl Node for RouterNode<'_> {
    type Msg = Frame;

    fn step(
        &mut self,
        now: SimTime,
        inbox: &mut Vec<Envelope<Frame>>,
        outbox: &mut Outbox<Frame>,
    ) -> Step {
        self.now_ns = now.as_ns();
        let had_traffic = !inbox.is_empty();
        let mut busy = 0u64;
        for env in inbox.drain(..) {
            self.control.heard(env.from, self.now_ns);
            let mut deliverable = self.transport.receive(env.from, env.msg);
            while let Some(packet) = deliverable {
                busy += self.handle_packet(env.from, packet, outbox);
                deliverable = self.transport.next_buffered(env.from);
            }
        }
        // The control plane's round first: heartbeats, failure
        // detection, failover (unless the run is over).
        let draining = self.control.draining();
        busy += self.control.tick(&mut self.transport.link(outbox, self.now_ns));
        // Mid-computation: stay responsive (heartbeat, detect, ack,
        // retransmit) but start no new routing work until the banked
        // busy time drains.
        let inner =
            if draining { Step::Continue { busy_ns: busy } } else { self.step_inner(busy, outbox) };
        let terminate = self.control.terminated();
        let out = self.transport.finish_step(inner, had_traffic, terminate, self.now_ns, outbox);
        self.control.pace(out, self.now_ns)
    }

    fn on_restart(&mut self, now: SimTime) {
        self.now_ns = now.as_ns();
        // Routing state past the last checkpoint was volatile and died
        // with the crash: rip those routes back out of the shared truth
        // and the local view, and rewind the program counter. (The
        // durable prefix — replica shard and progress — reloads from the
        // checkpoint; the transport survives because peers retransmit
        // anything unacknowledged.)
        let Some(durable) = self.control.on_restart(self.now_ns, self.wire_idx) else {
            return;
        };
        for idx in (durable..self.wire_idx).rev() {
            self.rip_up(idx);
        }
        self.wire_idx = durable;
        self.update.rewind_requests(durable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecoveryConfig;
    use crate::packet::PacketKind;
    use crate::schedule::UpdateSchedule;
    use locus_circuit::presets;
    use locus_router::{assign, AssignmentStrategy};

    /// `presets::small()` and an empty shared truth for it, which each
    /// test lends to its node the way `run_inner` does.
    fn shared() -> (Circuit, RefCell<CostArray>) {
        let circuit = presets::small();
        let oracle = RefCell::new(CostArray::new(circuit.channels, circuit.grids));
        (circuit, oracle)
    }

    fn make_node<'a>(
        schedule: UpdateSchedule,
        proc: ProcId,
        n_procs: usize,
        (circuit, oracle): &'a (Circuit, RefCell<CostArray>),
    ) -> RouterNode<'a> {
        let regions = Arc::new(RegionMap::new(circuit.channels, circuit.grids, n_procs));
        let assignment =
            assign(circuit, &regions, AssignmentStrategy::Locality { threshold_cost: Some(1000) });
        let config = MsgPassConfig::new(n_procs, schedule);
        let plan = Arc::new(assignment.wires_per_proc);
        RouterNode::new(proc, circuit, regions, config, plan, oracle, None)
    }

    /// Steps `node` with empty inboxes until its routing is done.
    fn route_to_completion(node: &mut RouterNode) {
        let mut outbox = Outbox::new();
        let mut steps = 0;
        while !node.control.finished_routing {
            let step = node.step(SimTime::ZERO, &mut Vec::new(), &mut outbox);
            assert!(matches!(step, Step::Continue { .. }));
            steps += 1;
            assert!(steps < 100_000, "node did not converge");
        }
    }

    #[test]
    fn node_routes_its_wires_standalone() {
        // Without any updates, a node simply routes its wires to
        // completion (single-processor semantics on its replica).
        let shared = shared();
        let mut node = make_node(UpdateSchedule::never(), 0, 4, &shared);
        let n_wires = node.plan[0].len();
        assert!(n_wires > 0);
        route_to_completion(&mut node);
        let routes: Vec<_> = node.take_routes(false).collect();
        assert_eq!(routes.len(), n_wires);
        assert!(routes.iter().all(|&(_, _, survives)| survives));
        assert!(node.driver.occupancy_by_iteration().last() > Some(&0) || n_wires < 3);
        // Two iterations with no updates: the replica holds exactly this
        // node's final routes (every rip-up undid its route).
        let coverage: u64 = routes.iter().map(|(_, r, _)| r.len() as u64).sum();
        assert_eq!(node.replica.total(), coverage);
    }

    #[test]
    fn sender_initiated_node_emits_updates() {
        let shared = shared();
        let mut node = make_node(UpdateSchedule::sender_initiated(1, 1), 0, 4, &shared);
        let mut outbox = Outbox::new();
        // Route a few wires (enough to touch a neighbouring region).
        for _ in 0..12 {
            let _ = node.step(SimTime::ZERO, &mut Vec::new(), &mut outbox);
        }
        assert!(!outbox.is_empty(), "sender-initiated schedule must emit updates while routing");
        assert!(node.transport.sent.packets(PacketKind::SendRmtData) > 0);
    }

    #[test]
    fn blocking_node_blocks_on_outstanding_requests() {
        let shared = shared();
        let mut node = make_node(UpdateSchedule::receiver_initiated_blocking(1, 1), 1, 4, &shared);
        let mut outbox = Outbox::new();
        // First step issues requests for the upcoming window and routes.
        let _ = node.step(SimTime::ZERO, &mut Vec::new(), &mut outbox);
        if node.update.blocked() {
            let step = node.step(SimTime::ZERO, &mut Vec::new(), &mut Outbox::new());
            assert_eq!(step, Step::Block, "must block while responses are outstanding");
        }
    }

    #[test]
    fn response_unblocks_blocking_node() {
        let shared = shared();
        let mut node = make_node(UpdateSchedule::receiver_initiated_blocking(1, 1), 1, 4, &shared);
        let mut outbox = Outbox::new();
        let _ = node.step(SimTime::ZERO, &mut Vec::new(), &mut outbox);
        if !node.update.blocked() {
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
        assert!(!node.update.blocked());
        let step = node.step(SimTime::ZERO, &mut Vec::new(), &mut Outbox::new());
        assert!(matches!(step, Step::Continue { .. }), "node must resume after responses");
    }

    #[test]
    fn coordinator_terminates_after_all_finished() {
        let shared = shared();
        let mut node = make_node(UpdateSchedule::never(), 0, 4, &shared);
        route_to_completion(&mut node);
        // It must not terminate before hearing from the other three.
        let step = node.step(SimTime::ZERO, &mut Vec::new(), &mut Outbox::new());
        assert_ne!(step, Step::Done);
        // The same peer reporting three times is one report: not done.
        for _ in 0..3 {
            let _ = node.handle_packet(1, Packet::Finished { grants: 0 }, &mut Outbox::new());
        }
        let step = node.step(SimTime::ZERO, &mut Vec::new(), &mut Outbox::new());
        assert_ne!(step, Step::Done, "a duplicated Finished must not count as another peer");
        for peer in [2, 3] {
            let _ = node.handle_packet(peer, Packet::Finished { grants: 0 }, &mut Outbox::new());
        }
        let mut outbox = Outbox::new();
        let step = node.step(SimTime::ZERO, &mut Vec::new(), &mut outbox);
        assert_eq!(step, Step::Done);
        assert_eq!(outbox.len(), 3, "terminate broadcast to the other nodes");
    }

    /// Node 1 of `small` at P=4 under recovery, checkpointing every three
    /// wires: five static wires routed (the checkpoint covers three), then
    /// one wire of node 2 adopted through a `Reassign` and routed.
    fn recovering_node(
        (circuit, oracle): &(Circuit, RefCell<CostArray>),
    ) -> (RouterNode<'_>, Vec<WireId>, WireId) {
        let regions = Arc::new(RegionMap::new(circuit.channels, circuit.grids, 4));
        let assignment =
            assign(circuit, &regions, AssignmentStrategy::Locality { threshold_cost: Some(1000) });
        let recovery = RecoveryConfig { checkpoint_every: 3, ..RecoveryConfig::default() };
        let config = MsgPassConfig::new(4, UpdateSchedule::never())
            .with_reliability()
            .with_recovery_config(recovery);
        let plan = Arc::new(assignment.wires_per_proc);
        assert!(plan[1].len() > 5 && !plan[2].is_empty());
        let mut node =
            RouterNode::new(1, circuit, regions, config, Arc::clone(&plan), oracle, None);
        let mut outbox = Outbox::new();
        for _ in 0..5 {
            node.route_next_wire(&mut outbox);
        }
        let adopted = plan[2][0];
        let reassign = Packet::Reassign { wires: vec![adopted as u32] };
        let _ = node.handle_packet(COORDINATOR, reassign, &mut outbox);
        let _ = node.place_wire(None, adopted, &mut outbox);
        (node, plan[1].clone(), adopted)
    }

    #[test]
    fn surviving_routes_are_the_static_prefix_then_the_adopted_wires() {
        let shared_a = shared();
        let (mut node, mine, adopted) = recovering_node(&shared_a);
        assert_eq!(node.control.durable_limit(true, 5), 3);
        // Five static wires routed, three of them checkpointed, then one
        // adopted: a crash drops the fourth and fifth.
        let wires = [&mine[..5], &[adopted]].concat();
        let fates = |node: &mut RouterNode<'_>, crashed| -> Vec<(WireId, bool)> {
            node.take_routes(crashed).map(|(w, _, survives)| (w, survives)).collect()
        };
        let survives = [true, true, true, false, false, true];
        assert_eq!(fates(&mut node, true), wires.iter().copied().zip(survives).collect::<Vec<_>>());
        let shared_b = shared();
        let (mut node, ..) = recovering_node(&shared_b);
        assert_eq!(fates(&mut node, false), wires.iter().map(|&w| (w, true)).collect::<Vec<_>>());
    }

    #[test]
    fn a_step_that_ends_in_done_charges_none_of_its_busy_time() {
        // The coordinator's last step assembles the Terminate fan-out,
        // which costs modelled time, yet `Step::Done` carries no busy
        // time: `step_inner` drops it once the control plane terminates.
        let shared = shared();
        let mut node = make_node(UpdateSchedule::never(), 0, 4, &shared);
        route_to_completion(&mut node);
        for peer in 1..4 {
            let _ = node.handle_packet(peer, Packet::Finished { grants: 0 }, &mut Outbox::new());
        }
        let mut outbox = Outbox::new();
        assert_eq!(node.step(SimTime::ZERO, &mut Vec::new(), &mut outbox), Step::Done);
        assert_eq!(outbox.len(), 3);
        let mut probe = Transport::new(0, 4, false);
        let mut scratch = Outbox::new();
        let fan_out: u64 =
            (1..4).map(|p| probe.link(&mut scratch, 0).send(p, Packet::Terminate)).sum();
        assert!(fan_out > 0, "the uncharged fan-out has a cost");
    }

    #[test]
    fn worker_stops_on_terminate() {
        let shared = shared();
        let mut node = make_node(UpdateSchedule::never(), 1, 4, &shared);
        route_to_completion(&mut node);
        let _ = node.handle_packet(0, Packet::Terminate, &mut Outbox::new());
        let step = node.step(SimTime::ZERO, &mut Vec::new(), &mut Outbox::new());
        assert_eq!(step, Step::Done);
    }
}
