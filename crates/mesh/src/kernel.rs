//! The discrete-event simulation kernel.
//!
//! Executes a set of [`Node`] actors on the mesh, modelling:
//!
//! * **message latency** — `2·ProcessTime + HopTime·(D + L)` uncontended;
//! * **contention** — each unidirectional channel is reserved while a
//!   packet's flit stream passes; a later packet's header stalls on a busy
//!   channel (wormhole blocking approximated at packet granularity);
//! * **processor occupancy** — a node is busy for its reported work time,
//!   plus `ProcessTime` per packet sent, plus `ProcessTime` and a
//!   per-byte disassembly cost per packet received.
//!
//! Event ordering is `(time, sequence-number)`, so runs are fully
//! deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use locus_obs::{EventKind as ObsKind, FaultKind, Obs};

use crate::config::MeshConfig;
use crate::fault::{Fault, FaultInjector};
use crate::node::{Envelope, Node, Outbox, Step};
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::topology::{NodeId, Topology};

/// Time for one byte to travel one hop (ns): the Ametek Series 2010's
/// `HopTime` (§2.1).
pub const HOP_TIME_NS: u64 = 100;

/// Time for an entire message to be copied between a processor node and
/// the network (ns), paid once at each end: the Ametek's `ProcessTime`.
pub const PROCESS_TIME_NS: u64 = 2_000;

/// Extra bytes added to every packet for header/envelope (route, type,
/// bounding-box coordinates are accounted by the application; this is the
/// transport-level framing).
pub const HEADER_BYTES: u32 = 8;

/// Per-byte cost of disassembling a received packet into application
/// state (ns/byte), charged to the receiving node's busy time. Together
/// with the message-passing router's per-byte assembly cost it reproduces
/// the paper's observation that packet handling reaches a quarter of
/// processing time under frequent updates (§5.1.1).
pub const RECV_PER_BYTE_NS: u64 = 10_000;

/// Events the queue has room for per node before it grows: a 16-node
/// router run peaks at about 120 queued events, 100 of them with payloads.
const QUEUE_EVENTS_PER_NODE: usize = 8;

enum EventKind<M> {
    /// Scheduled node step. A wake carries no payload: a node can have a
    /// timer wake and a delivery wake queued at once, and only the one
    /// pushed last is live (see [`EventQueue::pop`]).
    Wake,
    Deliver(Envelope<M>),
    /// The node-fault plan takes the node down (fail-stop, or the down
    /// phase of fail-recover).
    NodeDown {
        will_restart: bool,
    },
    /// The node-fault plan brings the node back up after a
    /// `CrashRestart` downtime.
    NodeUp {
        downtime_ns: u64,
    },
}

/// `Key::slot` of a wake, which keeps no payload in the slab.
const WAKE: u32 = u32::MAX;

/// `EventQueue::latest_wake` of a node with no live wake: no pushed
/// sequence number reaches it.
const NO_WAKE: u64 = u64::MAX;

/// What the heap orders: 24 bytes, where a whole event with its envelope
/// is four times that. The payload of anything but a wake waits in the
/// slab at `slot`.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    node: u32,
    slot: u32,
}

impl Key {
    /// `(time, seq)` as one number, so that the heap's comparisons are
    /// single branch-free compares.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.at.as_ns()) << 64) | u128::from(self.seq)
    }
}

// Order by (time, seq); BinaryHeap is a max-heap so invert. `seq` is
// unique, so no two keys compare equal. The heap sifts with `<=`, which
// is spelled out rather than derived through an `Ordering`.
impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
    #[inline]
    fn le(&self, other: &Self) -> bool {
        other.rank() <= self.rank()
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}

/// The kernel's timeline: events pop in `(time, seq)` order, `seq` being
/// the push order, so equal times resolve deterministically.
struct EventQueue<M> {
    heap: BinaryHeap<Key>,
    /// Payloads of the queued deliveries and node faults; a popped
    /// event's slot goes on `free` and is reused before the slab grows.
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    seq: u64,
    /// Per node, the `seq` of its one live wake (`NO_WAKE` when it has
    /// none); every other wake of the node in the heap is stale.
    latest_wake: Vec<u64>,
}

impl<M> EventQueue<M> {
    /// An empty queue for `n` nodes with room for `capacity` events
    /// before anything grows.
    fn new(n: usize, capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            seq: 0,
            latest_wake: vec![NO_WAKE; n],
        }
    }

    /// Queues `kind` for `node` at `at`, behind everything already queued
    /// at `at`. A wake supersedes the node's earlier wakes.
    fn push(&mut self, at: SimTime, node: NodeId, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match kind {
            EventKind::Wake => {
                self.latest_wake[node] = seq;
                WAKE
            }
            kind => match self.free.pop() {
                Some(slot) => {
                    self.slab[slot as usize] = Some(kind);
                    slot
                }
                None => {
                    let slot = u32::try_from(self.slab.len()).expect("slab slots fit a u32");
                    self.slab.push(Some(kind));
                    slot
                }
            },
        };
        // `MeshConfig::validate` bounds the node count by `u32::MAX`.
        self.heap.push(Key { at, seq, node: node as u32, slot });
    }

    /// Makes every queued wake of `node` stale.
    fn cancel_wakes(&mut self, node: NodeId) {
        self.latest_wake[node] = NO_WAKE;
    }

    /// The earliest event, with its payload; `None` in the third place
    /// for a stale wake, which still counts as an event popped.
    fn pop(&mut self) -> Option<(SimTime, NodeId, Option<EventKind<M>>)> {
        let key = self.heap.pop()?;
        let node = key.node as usize;
        let kind = if key.slot == WAKE {
            (key.seq == self.latest_wake[node]).then_some(EventKind::Wake)
        } else {
            self.free.push(key.slot);
            let kind = self.slab[key.slot as usize].take();
            debug_assert!(kind.is_some(), "a queued event's slot holds its payload");
            kind
        };
        Some((key.at, node, kind))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// A wake event for the node is in the queue.
    Scheduled,
    /// Waiting for a message.
    Blocked,
    /// Waiting for a message or a timer deadline, whichever is first.
    Sleeping,
    /// Program complete.
    Done,
    /// Down under a node fault. Terminal unless a restart is scheduled;
    /// a permanently crashed node does not count as a deadlock by itself
    /// (the application layer decides whether its work was recovered).
    Crashed,
}

/// Result of running a simulation to completion.
#[derive(Debug)]
pub struct SimOutcome<N> {
    /// The node actors in their final state (carrying application
    /// results: routed wires, per-node counters, …).
    pub nodes: Vec<N>,
    /// Network and timing statistics.
    pub stats: NetStats,
    /// Total events processed.
    pub events_processed: u64,
}

/// The discrete-event simulator.
pub struct Kernel<N: Node> {
    config: MeshConfig,
    topo: Topology,
    nodes: Vec<N>,
    status: Vec<Status>,
    /// Earliest time each node may next be scheduled (it is busy before).
    free_at: Vec<SimTime>,
    inbox: Vec<Vec<Envelope<N::Msg>>>,
    /// The one outbox every step fills and the kernel drains.
    outbox: Outbox<N::Msg>,
    channel_free: Vec<SimTime>,
    queue: EventQueue<N::Msg>,
    /// Fault decision engine; `None` when the plan is idle, so
    /// fault-free runs take exactly the pre-fault-layer code path.
    injector: Option<FaultInjector>,
    /// Cached `config.faults.has_node_faults()`: the per-delivery down
    /// checks are skipped entirely when no node fault is scheduled.
    node_faults_on: bool,
    stats: NetStats,
    event_limit: u64,
    /// Instrumentation sites test `obs.is_on()` and skip event
    /// construction entirely when recording is off.
    obs: Obs,
}

impl<N: Node> Kernel<N> {
    /// Creates a kernel for `nodes` on the machine described by `config`.
    ///
    /// # Panics
    /// Panics with the error of [`MeshConfig::validate`], and unless
    /// `nodes.len() == config.n_nodes()`.
    pub fn new(config: MeshConfig, nodes: Vec<N>) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid mesh configuration: {msg}");
        }
        assert_eq!(nodes.len(), config.n_nodes(), "one actor per mesh node");
        let topo = Topology::new(config.rows, config.cols);
        let n = nodes.len();
        let injector = (!config.faults.is_idle()).then(|| FaultInjector::new(config.faults));
        let mut kernel = Kernel {
            config,
            topo,
            nodes,
            status: vec![Status::Scheduled; n],
            free_at: vec![SimTime::ZERO; n],
            inbox: (0..n).map(|_| Vec::new()).collect(),
            outbox: Outbox::new(),
            channel_free: vec![SimTime::ZERO; topo.n_channels()],
            queue: EventQueue::new(n, QUEUE_EVENTS_PER_NODE * n),
            injector,
            node_faults_on: config.faults.has_node_faults(),
            stats: NetStats::new(n),
            event_limit: 200_000_000,
            obs: Obs::off(),
        };
        // Node-fault events go in before the initial wakes so a crash
        // scheduled at a node's wake time wins the (time, seq) tie and
        // the node never steps while down.
        for (node, fault) in config.faults.node_faults() {
            let node = node as usize;
            match fault {
                crate::fault::NodeFault::Crash { at_ns } => {
                    kernel.queue.push(
                        SimTime::from_ns(at_ns),
                        node,
                        EventKind::NodeDown { will_restart: false },
                    );
                }
                crate::fault::NodeFault::CrashRestart { at_ns, downtime_ns } => {
                    kernel.queue.push(
                        SimTime::from_ns(at_ns),
                        node,
                        EventKind::NodeDown { will_restart: true },
                    );
                    kernel.queue.push(
                        SimTime::from_ns(at_ns.saturating_add(downtime_ns)),
                        node,
                        EventKind::NodeUp { downtime_ns },
                    );
                }
                // Stalls are a pure time-window query in `on_wake`.
                crate::fault::NodeFault::Stall { .. } => {}
            }
        }
        for node in 0..n {
            kernel.queue.push(SimTime::ZERO, node, EventKind::Wake);
        }
        kernel
    }

    /// Records observability events (packet injections, deliveries,
    /// channel stalls, faults) through `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    #[inline]
    fn emit(&self, at: SimTime, node: NodeId, kind: ObsKind) {
        self.obs.emit_on(at.as_ns(), node as u32, kind);
    }

    /// Runs until every node is done, the event queue drains (deadlock),
    /// or the event limit is hit.
    pub fn run(mut self) -> SimOutcome<N> {
        let mut events_processed = 0u64;
        let mut event_limit_hit = false;
        let mut last_at = SimTime::ZERO;

        while let Some((at, node, kind)) = self.queue.pop() {
            events_processed += 1;
            if events_processed > self.event_limit {
                event_limit_hit = true;
                break;
            }
            last_at = at;
            match kind {
                Some(EventKind::Deliver(env)) => self.on_deliver(at, node, env),
                Some(EventKind::Wake) => self.on_wake(at, node),
                Some(EventKind::NodeDown { will_restart }) => {
                    self.on_node_down(at, node, will_restart)
                }
                Some(EventKind::NodeUp { downtime_ns }) => self.on_node_up(at, node, downtime_ns),
                // A stale wake (superseded by a delivery, a newer timer
                // or a crash) is dropped.
                None => {}
            }
        }

        // A permanently crashed node is terminal, not deadlocked: the
        // application layer decides (via `crashed` and its own routed-wire
        // accounting) whether the run degraded.
        let deadlocked = event_limit_hit
            || self.status.iter().any(|&s| !matches!(s, Status::Done | Status::Crashed));
        self.stats.deadlocked = deadlocked;
        self.stats.event_limit_hit = event_limit_hit;
        // A run the event limit cut off ends at its last event; a drained
        // queue (done or deadlocked) at the latest finish.
        let latest_done = self.stats.done_at.iter().copied().fold(SimTime::ZERO, SimTime::max);
        self.stats.completion =
            if event_limit_hit { latest_done.max(last_at) } else { latest_done };
        self.stats.debug_assert_consistent();
        SimOutcome { nodes: self.nodes, stats: self.stats, events_processed }
    }

    fn on_deliver(&mut self, at: SimTime, node: NodeId, env: Envelope<N::Msg>) {
        if self.node_faults_on {
            // Outbound suppression: the packet left a node that was
            // already down when the send was issued (a crash interrupts
            // a send burst mid-flight, and a down node emits nothing —
            // not even acks). Inbound: a down endpoint loses all
            // in-flight and arriving traffic.
            let out_suppressed =
                self.config.faults.node_down_at(env.from as u32, env.sent_at.as_ns());
            let in_down = self.config.faults.node_down_at(node as u32, at.as_ns());
            if out_suppressed || in_down {
                self.stats.packets_lost_to_crash =
                    self.stats.packets_lost_to_crash.saturating_add(1);
                return;
            }
        }
        if self.obs.is_on() {
            let kind = ObsKind::PacketDelivered {
                src: env.from as u32,
                payload_bytes: env.bytes,
                latency_ns: (at - env.sent_at).as_ns(),
                queue_depth: self.inbox[node].len() as u32 + 1,
            };
            self.emit(at, node, kind);
        }
        self.inbox[node].push(env);
        if matches!(self.status[node], Status::Blocked | Status::Sleeping) {
            // The node may still be draining its last busy period.
            let wake_at = at.max(self.free_at[node]);
            self.status[node] = Status::Scheduled;
            self.queue.push(wake_at, node, EventKind::Wake);
        }
    }

    fn on_wake(&mut self, now: SimTime, node: NodeId) {
        debug_assert!(
            matches!(self.status[node], Status::Scheduled | Status::Sleeping),
            "woke node {node} in state {:?}",
            self.status[node]
        );

        // Fail-slow: an active stall window multiplies every service
        // cost of the step (receive overhead, application work, and the
        // per-send processing below).
        let stall = if self.node_faults_on {
            self.config.faults.stall_factor_at(node as u32, now.as_ns())
        } else {
            1
        };
        let send_pt = PROCESS_TIME_NS.saturating_mul(stall);

        // Receive overhead: ProcessTime to copy each packet off the
        // network plus per-byte disassembly.
        let mut recv_ns = 0u64;
        for env in &self.inbox[node] {
            let wire = env.bytes as u64 + HEADER_BYTES as u64;
            recv_ns += PROCESS_TIME_NS + RECV_PER_BYTE_NS * wire;
        }
        recv_ns = recv_ns.saturating_mul(stall);

        // The node drains its inbox; whatever it leaves is dropped, and
        // both buffers keep their capacity for the next step.
        let mut outbox = std::mem::take(&mut self.outbox);
        let step = self.nodes[node].step(now, &mut self.inbox[node], &mut outbox);
        self.inbox[node].clear();

        let busy_ns = match step {
            Step::Continue { busy_ns } => busy_ns.saturating_mul(stall),
            _ => 0,
        };

        // Application work happens after message processing; sends are
        // issued serially after the work, each costing ProcessTime at the
        // sender.
        let send_base = now + recv_ns + busy_ns;
        let n_sends = outbox.sends.len() as u64;
        for (i, (to, bytes, msg)) in outbox.sends.drain(..).enumerate() {
            assert_ne!(to, node, "node {node} attempted a self-send");
            assert!(to < self.topo.n_nodes(), "send to nonexistent node {to}");
            let start = send_base + (i as u64 + 1) * send_pt;
            let arrival = self.inject(node, to, bytes, start);
            let fault = match &mut self.injector {
                Some(inj) => inj.decide(),
                None => None,
            };
            match fault {
                None => self.queue.push(
                    arrival,
                    to,
                    EventKind::Deliver(Envelope { from: node, bytes, sent_at: start, msg }),
                ),
                Some(decided) => self.apply_fault(decided, node, to, bytes, start, arrival, msg),
            }
        }
        self.outbox = outbox;

        let total_busy = recv_ns + busy_ns + n_sends * send_pt;
        self.stats.busy_ns[node] += total_busy;
        let free = now + total_busy;
        self.free_at[node] = free;

        match step {
            Step::Continue { .. } => {
                self.status[node] = Status::Scheduled;
                self.queue.push(free, node, EventKind::Wake);
            }
            // No message can have raced in while the step executed: the
            // inbox was cleared above and deliveries only ever arrive as
            // heap events, which `on_deliver` turns into a fresh wake.
            Step::Block => self.status[node] = Status::Blocked,
            Step::Sleep { until } => {
                self.status[node] = Status::Sleeping;
                self.queue.push(until.max(free), node, EventKind::Wake);
            }
            Step::Done => {
                self.status[node] = Status::Done;
                self.stats.done_at[node] = free;
            }
        }
    }

    /// Takes `node` down under a node fault: its queued inbox is lost,
    /// pending wakes are invalidated, and (via the plan-based down check
    /// in [`Kernel::on_deliver`]) all in-flight and future traffic to or
    /// from it is discarded until a restart.
    fn on_node_down(&mut self, at: SimTime, node: NodeId, will_restart: bool) {
        if self.status[node] == Status::Done {
            // The program already finished; crashing a ghost is a no-op.
            return;
        }
        let lost = self.inbox[node].len() as u64;
        self.inbox[node].clear();
        self.stats.packets_lost_to_crash = self.stats.packets_lost_to_crash.saturating_add(lost);
        // Invalidate any queued wake so the node cannot step while down.
        self.queue.cancel_wakes(node);
        self.status[node] = Status::Crashed;
        self.stats.node_crashes += 1;
        self.stats.crashed[node] = true;
        self.emit(at, node, ObsKind::NodeCrashed { will_restart });
    }

    /// Brings a crashed node back up: the actor's `on_restart` hook runs
    /// (rolling back to its checkpoint), then the node is rescheduled.
    fn on_node_up(&mut self, at: SimTime, node: NodeId, downtime_ns: u64) {
        if self.status[node] != Status::Crashed {
            // The crash was a no-op (the node had already finished).
            return;
        }
        self.nodes[node].on_restart(at);
        self.status[node] = Status::Scheduled;
        self.free_at[node] = at;
        self.stats.node_restarts += 1;
        self.stats.crashed[node] = false;
        self.emit(at, node, ObsKind::NodeRestarted { downtime_ns });
        self.queue.push(at, node, EventKind::Wake);
    }

    /// Applies one fault decision to an envelope whose injection (at
    /// `start`, arriving at `arrival`) has already been accounted.
    #[allow(clippy::too_many_arguments)]
    fn apply_fault(
        &mut self,
        fault: Fault,
        node: NodeId,
        to: NodeId,
        bytes: u32,
        start: SimTime,
        arrival: SimTime,
        msg: N::Msg,
    ) {
        let emit_fault = |k: &Self, fault: FaultKind, extra_ns: u64| {
            let dst = to as u32;
            k.emit(
                start,
                node,
                ObsKind::FaultInjected { dst, payload_bytes: bytes, fault, extra_ns },
            );
        };
        match fault {
            Fault::Drop => {
                // The send consumed bandwidth; the delivery never happens.
                self.stats.packets_dropped = self.stats.packets_dropped.saturating_add(1);
                emit_fault(self, FaultKind::Drop, 0);
            }
            Fault::Duplicate { gap_ns } => {
                self.stats.packets_duplicated = self.stats.packets_duplicated.saturating_add(1);
                emit_fault(self, FaultKind::Duplicate, 0);
                self.queue.push(
                    arrival,
                    to,
                    EventKind::Deliver(Envelope {
                        from: node,
                        bytes,
                        sent_at: start,
                        msg: msg.clone(),
                    }),
                );
                // The copy is real traffic: it re-enters the network
                // behind the original and is accounted like any send.
                let start2 = start + gap_ns;
                let arrival2 = self.inject(node, to, bytes, start2);
                self.queue.push(
                    arrival2,
                    to,
                    EventKind::Deliver(Envelope { from: node, bytes, sent_at: start2, msg }),
                );
            }
            Fault::Delay { extra_ns } => {
                self.stats.packets_delayed = self.stats.packets_delayed.saturating_add(1);
                emit_fault(self, FaultKind::Delay, extra_ns);
                self.queue.push(
                    arrival + extra_ns,
                    to,
                    EventKind::Deliver(Envelope { from: node, bytes, sent_at: start, msg }),
                );
            }
            Fault::Reorder { hold_ns } => {
                self.stats.packets_reordered = self.stats.packets_reordered.saturating_add(1);
                emit_fault(self, FaultKind::Reorder, hold_ns);
                self.queue.push(
                    arrival + hold_ns,
                    to,
                    EventKind::Deliver(Envelope { from: node, bytes, sent_at: start, msg }),
                );
            }
        }
    }

    /// Injects a packet into the network at `start` (the moment the
    /// sender's `ProcessTime` copy completes begins; the copy itself is
    /// part of the latency law's first `ProcessTime`). Returns arrival
    /// time at the destination node and updates channel reservations and
    /// traffic statistics.
    fn inject(&mut self, src: NodeId, dst: NodeId, payload: u32, start: SimTime) -> SimTime {
        let wire = payload as u64 + HEADER_BYTES as u64;
        let hops = self.topo.hops(src, dst) as u64;
        self.stats.record_packet(src, payload as u64, wire, hops);
        if self.obs.is_on() {
            let kind = ObsKind::PacketSent {
                dst: dst as u32,
                payload_bytes: payload,
                wire_bytes: wire as u32,
                hops: hops as u16,
            };
            self.emit(start, src, kind);
        }

        if !self.config.contention {
            return start + 2 * PROCESS_TIME_NS + HOP_TIME_NS * (hops + wire);
        }

        let h = HOP_TIME_NS;
        // Head leaves the source after the sender-side ProcessTime copy.
        let mut t = start + PROCESS_TIME_NS;
        for ch in self.topo.route(src, dst) {
            let free = self.channel_free[ch];
            if free > t {
                let stall_ns = (free - t).as_ns();
                self.stats.add_contention(stall_ns);
                if self.obs.is_on() {
                    let kind = ObsKind::ChannelContended { channel: ch as u32, stall_ns };
                    self.emit(t, src, kind);
                }
                t = free;
            }
            t += h; // head advances one hop
                    // The channel stays busy until the tail flit passes.
            self.channel_free[ch] = t + h * wire;
        }
        // Tail drains into the destination, then the receiver-side copy.
        t + h * wire + PROCESS_TIME_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Inbox<'a> = &'a mut Vec<Envelope<()>>;

    /// Sends one `bytes`-sized packet to `to` at its first step, then
    /// completes; the receiver completes after receiving `expect` packets.
    struct OneShot {
        to: Option<(NodeId, u32)>,
        expect: usize,
        received_at: Vec<SimTime>,
        sent: bool,
    }

    impl OneShot {
        fn sender(to: NodeId, bytes: u32) -> Self {
            OneShot { to: Some((to, bytes)), expect: 0, received_at: Vec::new(), sent: false }
        }
        fn receiver(expect: usize) -> Self {
            OneShot { to: None, expect, received_at: Vec::new(), sent: false }
        }
    }

    impl Node for OneShot {
        type Msg = ();

        fn step(&mut self, now: SimTime, inbox: Inbox<'_>, outbox: &mut Outbox<()>) -> Step {
            for _ in inbox.drain(..) {
                self.received_at.push(now);
            }
            if let Some((to, bytes)) = self.to.take() {
                outbox.send(to, bytes, ());
                self.sent = true;
                return Step::Continue { busy_ns: 0 };
            }
            if self.received_at.len() >= self.expect {
                Step::Done
            } else {
                Step::Block
            }
        }
    }

    fn two_node_config() -> MeshConfig {
        MeshConfig::ametek(1, 2)
    }

    #[test]
    fn latency_law_without_contention() {
        let cfg = two_node_config().without_contention();
        let nodes = vec![OneShot::sender(1, 12), OneShot::receiver(1)];
        let out = Kernel::new(cfg, nodes).run();
        assert!(!out.stats.deadlocked);
        // Send starts after one ProcessTime of sender occupancy.
        let start = PROCESS_TIME_NS;
        let expected = start + cfg.uncontended_latency_ns(1, 12);
        // The receiver's wake happens exactly at arrival.
        assert_eq!(out.nodes[1].received_at, vec![SimTime::from_ns(expected)]);
    }

    #[test]
    fn contended_latency_matches_law_when_alone() {
        // With contention on but only one packet, the wormhole model must
        // reduce to the same law.
        let cfg = two_node_config();
        let nodes = vec![OneShot::sender(1, 12), OneShot::receiver(1)];
        let out = Kernel::new(cfg, nodes).run();
        let start = PROCESS_TIME_NS;
        let expected = start + cfg.uncontended_latency_ns(1, 12);
        assert_eq!(out.nodes[1].received_at, vec![SimTime::from_ns(expected)]);
        assert_eq!(out.stats.contention_ns, 0);
    }

    /// Two senders, one destination, shared final channel: the second
    /// packet must stall.
    #[test]
    fn contention_serializes_shared_channel() {
        // 1x3 mesh: nodes 0,1,2. Node 0 and node 1 both send to node 2;
        // both packets use channel 1->2.
        let cfg = MeshConfig::ametek(1, 3);
        let nodes = vec![OneShot::sender(2, 100), OneShot::sender(2, 100), OneShot::receiver(2)];
        let out = Kernel::new(cfg, nodes).run();
        assert!(!out.stats.deadlocked);
        assert!(
            out.stats.contention_ns > 0,
            "expected contention on the shared channel into node 2"
        );
        assert_eq!(out.nodes[2].received_at.len(), 2);
    }

    #[test]
    fn traffic_statistics_accumulate() {
        let cfg = two_node_config();
        let nodes = vec![OneShot::sender(1, 42), OneShot::receiver(1)];
        let out = Kernel::new(cfg, nodes).run();
        assert_eq!(out.stats.packets, 1);
        assert_eq!(out.stats.payload_bytes, 42);
        assert_eq!(out.stats.wire_bytes, 42 + HEADER_BYTES as u64);
        // One hop between the two nodes.
        assert_eq!(out.stats.byte_hops, 42 + HEADER_BYTES as u64);
    }

    #[test]
    fn deadlock_detected_when_blocked_forever() {
        let cfg = two_node_config();
        // Both nodes wait for a message that never comes.
        let nodes = vec![OneShot::receiver(1), OneShot::receiver(1)];
        let out = Kernel::new(cfg, nodes).run();
        assert!(out.stats.deadlocked);
    }

    #[test]
    fn receiver_busy_time_includes_disassembly() {
        let cfg = two_node_config().without_contention();
        let nodes = vec![OneShot::sender(1, 50), OneShot::receiver(1)];
        let out = Kernel::new(cfg, nodes).run();
        let wire = 50 + HEADER_BYTES as u64;
        let expected_recv = PROCESS_TIME_NS + RECV_PER_BYTE_NS * wire;
        // Receiver busy = reception overhead only (no app work, no sends).
        assert_eq!(out.stats.busy_ns[1], expected_recv);
        // Sender busy = one ProcessTime for its single send.
        assert_eq!(out.stats.busy_ns[0], PROCESS_TIME_NS);
    }

    #[test]
    fn completion_is_latest_done() {
        let cfg = two_node_config().without_contention();
        let nodes = vec![OneShot::sender(1, 12), OneShot::receiver(1)];
        let out = Kernel::new(cfg, nodes).run();
        assert_eq!(out.stats.completion, *out.stats.done_at.iter().max().unwrap());
        assert!(out.stats.completion > SimTime::ZERO);
    }

    #[test]
    fn event_limit_stops_runaway() {
        /// A node that spins forever.
        struct Spinner;
        impl Node for Spinner {
            type Msg = ();
            fn step(&mut self, _: SimTime, _: Inbox<'_>, _: &mut Outbox<()>) -> Step {
                Step::Continue { busy_ns: 1 }
            }
        }
        let cfg = two_node_config();
        let mut kernel = Kernel::new(cfg, vec![Spinner, Spinner]);
        kernel.event_limit = 1000;
        let out = kernel.run();
        assert!(out.stats.event_limit_hit);
        assert!(out.stats.deadlocked);
        // No node finished, so the run reports when it was stopped: two
        // spinners wake once a nanosecond, and the 1 000th wake is at 499.
        assert_eq!(out.stats.done_at, [SimTime::ZERO; 2]);
        assert_eq!(out.stats.completion, SimTime::from_ns(499));
    }

    #[test]
    fn determinism_across_runs() {
        let cfg = MeshConfig::ametek(1, 3);
        let mk = || vec![OneShot::sender(2, 100), OneShot::sender(2, 64), OneShot::receiver(2)];
        let a = Kernel::new(cfg, mk()).run();
        let b = Kernel::new(cfg, mk()).run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.nodes[2].received_at, b.nodes[2].received_at);
    }

    #[test]
    fn sink_observes_sends_deliveries_and_contention() {
        use locus_obs::SharedSink;
        let cfg = MeshConfig::ametek(1, 3);
        let sink = SharedSink::new();
        let nodes = vec![OneShot::sender(2, 100), OneShot::sender(2, 64), OneShot::receiver(2)];
        let out = Kernel::new(cfg, nodes).with_obs(Obs::to(&sink)).run();
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter("packets_sent"), out.stats.packets);
        assert_eq!(m.counter("bytes_sent"), out.stats.payload_bytes);
        assert_eq!(m.counter("wire_bytes_sent"), out.stats.wire_bytes);
        assert_eq!(m.counter("packets_delivered"), out.stats.packets);
        assert_eq!(m.counter("contention_ns"), out.stats.contention_ns);
        assert!(m.counter("contention_ns") > 0, "shared channel must stall");
    }

    #[test]
    fn dropped_packet_never_arrives_but_is_counted() {
        use crate::fault::FaultPlan;
        // 100% drop: the receiver never hears anything and deadlocks.
        let cfg = MeshConfig { faults: FaultPlan::uniform_loss(1, 10_000), ..two_node_config() };
        let nodes = vec![OneShot::sender(1, 42), OneShot::receiver(1)];
        let out = Kernel::new(cfg, nodes).run();
        assert!(out.stats.deadlocked);
        assert!(!out.stats.event_limit_hit, "a drained queue is not an event-limit stop");
        assert_eq!(out.stats.packets, 1, "the injection itself still happened");
        assert_eq!(out.stats.packets_dropped, 1);
        assert!(out.nodes[1].received_at.is_empty());
    }

    #[test]
    fn duplicated_packet_arrives_twice_and_counts_twice() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::none().with_duplicates(10_000, 5_000).with_seed(3);
        let cfg = MeshConfig { faults: plan, ..two_node_config() };
        let nodes = vec![OneShot::sender(1, 42), OneShot::receiver(2)];
        let out = Kernel::new(cfg, nodes).run();
        assert!(!out.stats.deadlocked);
        assert_eq!(out.stats.packets_duplicated, 1);
        assert_eq!(out.stats.packets, 2, "the copy consumed real bandwidth");
        assert_eq!(out.nodes[1].received_at.len(), 2);
    }

    #[test]
    fn delayed_packet_arrives_late() {
        use crate::fault::FaultPlan;
        let delayed_plan =
            FaultPlan { delay_bp: 10_000, delay_ns_max: 40_000, ..FaultPlan::none().with_seed(9) };
        let mk = || vec![OneShot::sender(1, 12), OneShot::receiver(1)];
        let base = Kernel::new(two_node_config().without_contention(), mk()).run();
        let cfg = MeshConfig { faults: delayed_plan, ..two_node_config().without_contention() };
        let out = Kernel::new(cfg, mk()).run();
        assert_eq!(out.stats.packets_delayed, 1);
        assert!(
            out.nodes[1].received_at[0] > base.nodes[1].received_at[0],
            "delay fault must push the arrival back"
        );
    }

    #[test]
    fn idle_plan_is_byte_identical_to_no_plan() {
        use crate::fault::FaultPlan;
        let cfg = MeshConfig::ametek(1, 3);
        let mk = || vec![OneShot::sender(2, 100), OneShot::sender(2, 64), OneShot::receiver(2)];
        let plain = Kernel::new(cfg, mk()).run();
        // Zero rates AND an empty node-fault list: inert by construction.
        let plan = FaultPlan::uniform_loss(99, 0);
        assert!(plan.node_faults.iter().all(Option::is_none));
        assert!(plan.is_idle());
        let planned = Kernel::new(MeshConfig { faults: plan, ..cfg }, mk()).run();
        assert_eq!(plain.stats, planned.stats);
        assert_eq!(plain.events_processed, planned.events_processed);
        assert_eq!(plain.nodes[2].received_at, planned.nodes[2].received_at);
    }

    #[test]
    fn crashed_receiver_loses_inbound_and_is_terminal_not_deadlocked() {
        use crate::fault::{FaultPlan, NodeFault};
        let plan = FaultPlan::none().with_node_fault(1, NodeFault::Crash { at_ns: 1 });
        let cfg = MeshConfig { faults: plan, ..two_node_config() };
        let nodes = vec![OneShot::sender(1, 42), OneShot::receiver(1)];
        let out = Kernel::new(cfg, nodes).run();
        assert_eq!(out.stats.node_crashes, 1);
        assert_eq!(out.stats.node_restarts, 0);
        assert_eq!(out.stats.crashed, vec![false, true]);
        assert_eq!(out.stats.packets_lost_to_crash, 1, "the delivery hit a down endpoint");
        assert!(out.nodes[1].received_at.is_empty());
        assert!(
            !out.stats.deadlocked,
            "sender finished and the crash is terminal — not a deadlock"
        );
    }

    #[test]
    fn crash_restart_invokes_the_restart_hook_at_the_deadline() {
        use crate::fault::{FaultPlan, NodeFault};
        /// Sleeps until restarted, then completes (`wait: false`
        /// completes on its first step).
        struct RestartProbe {
            wait: bool,
            restarted_at: Option<SimTime>,
            done_at: Option<SimTime>,
        }
        impl Node for RestartProbe {
            type Msg = ();
            fn step(&mut self, now: SimTime, _: Inbox<'_>, _: &mut Outbox<()>) -> Step {
                if !self.wait || self.restarted_at.is_some() {
                    self.done_at = Some(now);
                    return Step::Done;
                }
                Step::Sleep { until: now + 1_000_000_000 }
            }
            fn on_restart(&mut self, now: SimTime) {
                self.restarted_at = Some(now);
            }
        }
        let plan = FaultPlan::none()
            .with_node_fault(0, NodeFault::CrashRestart { at_ns: 10_000, downtime_ns: 5_000 });
        let cfg = MeshConfig { faults: plan, ..two_node_config() };
        let probe = |wait| RestartProbe { wait, restarted_at: None, done_at: None };
        let out = Kernel::new(cfg, vec![probe(true), probe(false)]).run();
        assert_eq!(out.stats.node_crashes, 1);
        assert_eq!(out.stats.node_restarts, 1);
        assert_eq!(out.stats.crashed, vec![false, false]);
        assert_eq!(out.nodes[0].restarted_at, Some(SimTime::from_ns(15_000)));
        assert_eq!(out.nodes[0].done_at, Some(SimTime::from_ns(15_000)));
        assert!(out.nodes[1].restarted_at.is_none(), "only the faulted node restarts");
    }

    #[test]
    fn stall_multiplies_service_costs() {
        use crate::fault::{FaultPlan, NodeFault};
        let mk = || vec![OneShot::sender(1, 12), OneShot::receiver(1)];
        let clean = Kernel::new(two_node_config().without_contention(), mk()).run();
        let plan = FaultPlan::none().with_node_fault(
            0,
            NodeFault::Stall { at_ns: 0, factor: 10, duration_ns: 1_000_000_000 },
        );
        let cfg = MeshConfig { faults: plan, ..two_node_config().without_contention() };
        let stalled = Kernel::new(cfg, mk()).run();
        // The sender's single send costs 10x ProcessTime, pushing the
        // arrival back by 9x ProcessTime.
        assert_eq!(stalled.stats.busy_ns[0], 10 * PROCESS_TIME_NS);
        assert_eq!(
            stalled.nodes[1].received_at[0] - clean.nodes[1].received_at[0],
            SimTime::from_ns(9 * PROCESS_TIME_NS)
        );
        assert!(!stalled.stats.deadlocked);
    }

    /// Regression test for outbound suppression:
    /// a node that crashes mid-burst must not get its still-unsent
    /// packets onto the wire — a down node emits nothing, not even acks.
    #[test]
    fn crash_suppresses_outbound_packets_issued_while_down() {
        use crate::fault::{FaultPlan, NodeFault};
        /// Sends 5 packets in one step (when active), then completes.
        struct Burst {
            active: bool,
        }
        impl Node for Burst {
            type Msg = ();
            fn step(&mut self, _: SimTime, _: Inbox<'_>, o: &mut Outbox<()>) -> Step {
                if self.active {
                    for _ in 0..5 {
                        o.send(1, 8, ());
                    }
                }
                Step::Done
            }
        }
        let cfg_plain = two_node_config().without_contention();
        // Sends are issued at (i+1) * ProcessTime; crash between the 2nd
        // and 3rd so exactly 3 are suppressed.
        let crash_at = 2 * PROCESS_TIME_NS + PROCESS_TIME_NS / 2;
        let plan = FaultPlan::none().with_node_fault(0, NodeFault::Crash { at_ns: crash_at });
        let cfg = MeshConfig { faults: plan, ..cfg_plain };
        let out = Kernel::new(cfg, vec![Burst { active: true }, Burst { active: false }]).run();
        assert_eq!(out.stats.packets, 5, "all five injections consumed bandwidth");
        assert_eq!(out.stats.packets_lost_to_crash, 3, "sends issued while down are suppressed");
        assert_eq!(
            out.stats.packets - out.stats.packets_lost_to_crash,
            2,
            "only pre-crash sends arrive"
        );
    }

    #[test]
    fn node_faulted_runs_are_deterministic_and_observable() {
        use crate::fault::{FaultPlan, NodeFault};
        use locus_obs::SharedSink;
        // Crash the receiver while it is still waiting (the senders
        // finish within ~2 µs; crashing a finished node is a no-op).
        let plan = FaultPlan::uniform_loss(11, 1_000)
            .with_node_fault(2, NodeFault::CrashRestart { at_ns: 4_000, downtime_ns: 2_000 })
            .with_node_fault(0, NodeFault::Stall { at_ns: 0, factor: 2, duration_ns: 8_000 });
        let cfg = MeshConfig { faults: plan, ..MeshConfig::ametek(1, 3) };
        let mk = || vec![OneShot::sender(2, 100), OneShot::sender(2, 64), OneShot::receiver(1)];
        let sink = SharedSink::new();
        let a = Kernel::new(cfg, mk()).with_obs(Obs::to(&sink)).run();
        let b = Kernel::new(cfg, mk()).run();
        assert_eq!(a.stats, b.stats);
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter("node_crashes"), a.stats.node_crashes);
        assert_eq!(m.counter("node_restarts"), a.stats.node_restarts);
        assert_eq!(a.stats.node_crashes, 1);
        assert_eq!(a.stats.node_restarts, 1);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::uniform_loss(11, 3_000).with_duplicates(3_000, 8_000);
        let cfg = MeshConfig { faults: plan, ..MeshConfig::ametek(1, 3) };
        let mk = || vec![OneShot::sender(2, 100), OneShot::sender(2, 64), OneShot::receiver(1)];
        let a = Kernel::new(cfg, mk()).run();
        let b = Kernel::new(cfg, mk()).run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.nodes[2].received_at, b.nodes[2].received_at);
    }

    #[test]
    fn fault_events_reach_the_sink() {
        use crate::fault::FaultPlan;
        use locus_obs::SharedSink;
        let cfg = MeshConfig { faults: FaultPlan::uniform_loss(1, 10_000), ..two_node_config() };
        let sink = SharedSink::new();
        let nodes = vec![OneShot::sender(1, 42), OneShot::receiver(1)];
        let out = Kernel::new(cfg, nodes).with_obs(Obs::to(&sink)).run();
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter("packets_dropped"), out.stats.packets_dropped);
        assert_eq!(m.counter("faults_injected"), out.stats.faults_injected());
        assert_eq!(m.counter("packets_delivered"), out.stats.packets - out.stats.packets_dropped);
    }

    #[test]
    fn sleep_wakes_at_deadline() {
        /// Sleeps 10 µs on its first step, then completes.
        struct Napper {
            woke_at: Option<SimTime>,
            slept: bool,
        }
        impl Node for Napper {
            type Msg = ();
            fn step(&mut self, now: SimTime, _: Inbox<'_>, _: &mut Outbox<()>) -> Step {
                if !self.slept {
                    self.slept = true;
                    return Step::Sleep { until: now + 10_000 };
                }
                self.woke_at = Some(now);
                Step::Done
            }
        }
        let cfg = two_node_config();
        let nodes =
            vec![Napper { woke_at: None, slept: false }, Napper { woke_at: None, slept: false }];
        let out = Kernel::new(cfg, nodes).run();
        assert!(!out.stats.deadlocked);
        assert_eq!(out.nodes[0].woke_at, Some(SimTime::from_ns(10_000)));
    }

    /// Sends once if configured, otherwise sleeps ~forever until a
    /// message arrives, then completes.
    struct SleepOrSend {
        send: Option<(NodeId, u32)>,
        woke_at: Option<SimTime>,
    }
    impl Node for SleepOrSend {
        type Msg = ();
        fn step(&mut self, now: SimTime, inbox: Inbox<'_>, o: &mut Outbox<()>) -> Step {
            if let Some((to, bytes)) = self.send.take() {
                o.send(to, bytes, ());
                return Step::Done;
            }
            if !inbox.is_empty() {
                self.woke_at = Some(now);
            }
            match self.woke_at {
                Some(_) => Step::Done,
                None => Step::Sleep { until: now + 1_000_000_000 },
            }
        }
    }

    #[test]
    fn delivery_wakes_a_sleeping_node_early() {
        let cfg = two_node_config().without_contention();
        let out = Kernel::new(
            cfg,
            vec![
                SleepOrSend { send: Some((1, 12)), woke_at: None },
                SleepOrSend { send: None, woke_at: None },
            ],
        )
        .run();
        assert!(!out.stats.deadlocked);
        let woke = out.nodes[1].woke_at.expect("sleeper must be woken by the delivery");
        assert!(
            woke < SimTime::from_ns(1_000_000_000),
            "delivery must cut the sleep short, woke at {woke:?}"
        );
    }

    #[test]
    fn an_inbox_left_undrained_is_dropped_not_delivered_again() {
        /// Sends `to_send` packets to node 1, each after a second of
        /// work; counts what each step finds in its inbox and leaves it
        /// there.
        struct Peek {
            to_send: u32,
            expect: usize,
            seen: usize,
        }
        impl Node for Peek {
            type Msg = ();
            fn step(&mut self, _: SimTime, inbox: Inbox<'_>, o: &mut Outbox<()>) -> Step {
                self.seen += inbox.len();
                if self.to_send > 0 {
                    self.to_send -= 1;
                    o.send(1, 8, ());
                    return Step::Continue { busy_ns: 1_000_000_000 };
                }
                if self.seen >= self.expect {
                    Step::Done
                } else {
                    Step::Block
                }
            }
        }
        let nodes =
            vec![Peek { to_send: 2, expect: 0, seen: 0 }, Peek { to_send: 0, expect: 2, seen: 0 }];
        let out = Kernel::new(two_node_config(), nodes).run();
        assert!(!out.stats.deadlocked);
        assert_eq!(out.nodes[1].seen, 2);
        assert!(
            out.stats.done_at[1] > SimTime::from_ns(2_000_000_000),
            "the first packet, seen twice, must not stand in for the second"
        );
    }

    /// What `EventQueue::pop` returned, without the envelope: `None` for
    /// a stale wake.
    fn popped(q: &mut EventQueue<u32>) -> Option<(u64, NodeId, Option<String>)> {
        let (at, node, kind) = q.pop()?;
        let kind = kind.map(|k| match k {
            EventKind::Wake => "wake".to_string(),
            EventKind::Deliver(env) => format!("deliver {}", env.msg),
            EventKind::NodeDown { will_restart } => format!("down {will_restart}"),
            EventKind::NodeUp { downtime_ns } => format!("up {downtime_ns}"),
        });
        Some((at.as_ns(), node, kind))
    }

    fn deliver(msg: u32) -> EventKind<u32> {
        EventKind::Deliver(Envelope { from: 0, bytes: 1, sent_at: SimTime::ZERO, msg })
    }

    #[test]
    fn equal_times_pop_in_push_order_whatever_the_kind() {
        let mut q = EventQueue::new(4, 2);
        let t = SimTime::from_ns(50);
        q.push(SimTime::from_ns(60), 0, deliver(9));
        q.push(t, 3, EventKind::NodeUp { downtime_ns: 7 });
        q.push(t, 1, deliver(1));
        q.push(t, 2, EventKind::Wake);
        q.push(t, 0, EventKind::NodeDown { will_restart: true });
        q.push(SimTime::from_ns(40), 2, deliver(2));
        q.push(t, 1, EventKind::Wake);
        q.push(t, 3, deliver(3));
        let order: Vec<_> = std::iter::from_fn(|| popped(&mut q)).collect();
        let expected = [
            (40, 2, "deliver 2"),
            (50, 3, "up 7"),
            (50, 1, "deliver 1"),
            (50, 2, "wake"),
            (50, 0, "down true"),
            (50, 1, "wake"),
            (50, 3, "deliver 3"),
            (60, 0, "deliver 9"),
        ]
        .map(|(at, node, kind)| (at, node, Some(kind.to_string())));
        assert_eq!(order, expected);
    }

    #[test]
    fn only_the_latest_wake_of_a_node_is_live() {
        let mut q: EventQueue<u32> = EventQueue::new(2, 4);
        q.push(SimTime::from_ns(10), 0, EventKind::Wake);
        q.push(SimTime::from_ns(5), 0, EventKind::Wake);
        q.push(SimTime::from_ns(7), 1, EventKind::Wake);
        q.cancel_wakes(1);
        assert_eq!(popped(&mut q), Some((5, 0, Some("wake".to_string()))));
        assert_eq!(popped(&mut q), Some((7, 1, None)), "a crash cancels the queued wake");
        assert_eq!(popped(&mut q), Some((10, 0, None)), "superseded by the wake at 5");
        assert_eq!(popped(&mut q), None);
    }

    #[test]
    fn slab_slots_are_reused_so_the_slab_never_outgrows_the_queue() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut q = EventQueue::new(8, 4);
        let (mut now, mut popped_events, mut peak) = (0u64, 0u32, 0usize);
        while popped_events < 10_000 {
            // Pushes outrun pops early on, then the queue drains.
            let pushes = if popped_events < 5_000 { rng.random_range(0..3) } else { 0 };
            for _ in 0..pushes {
                let at = SimTime::from_ns(now + rng.random_range(0..1_000));
                let node = rng.random_range(0..8);
                let kind =
                    if rng.random_bool(0.3) { EventKind::Wake } else { deliver(node as u32) };
                q.push(at, node, kind);
            }
            peak = peak.max(q.heap.len());
            let Some((at, node, _)) = q.pop() else {
                q.push(SimTime::from_ns(now), 0, deliver(0));
                continue;
            };
            assert!(at.as_ns() >= now, "event at {at:?} popped after {now} (node {node})");
            now = at.as_ns();
            popped_events += 1;
        }
        assert!(peak > 4, "the queue grew past its initial room");
        assert!(q.slab.len() <= peak, "slab {} > peak queue {peak}", q.slab.len());
    }

    /// Records the times it steps at and sleeps a second after each.
    struct Stepper {
        steps: Vec<SimTime>,
    }
    impl Node for Stepper {
        type Msg = ();
        fn step(&mut self, now: SimTime, _: Inbox<'_>, _: &mut Outbox<()>) -> Step {
            self.steps.push(now);
            if self.steps.len() < 3 {
                Step::Sleep { until: now + 1_000_000_000 }
            } else {
                Step::Done
            }
        }
    }

    #[test]
    fn a_crash_at_a_nodes_wake_time_wins_the_tie() {
        use crate::fault::{FaultPlan, NodeFault};
        let plan = FaultPlan::none()
            .with_node_fault(0, NodeFault::Crash { at_ns: 0 })
            .with_node_fault(1, NodeFault::Crash { at_ns: 1_000_000_000 });
        let cfg = MeshConfig { faults: plan, ..two_node_config() };
        let nodes = vec![Stepper { steps: Vec::new() }, Stepper { steps: Vec::new() }];
        let out = Kernel::new(cfg, nodes).run();
        assert!(out.nodes[0].steps.is_empty(), "crashed at its first wake: never steps");
        assert_eq!(
            out.nodes[1].steps,
            [SimTime::ZERO],
            "crashed at its second wake: steps only once"
        );
        assert_eq!(out.stats.crashed, [true, true]);
        // Two crashes, two initial wakes, the second wake of node 1 that
        // its crash made stale.
        assert_eq!(out.events_processed, 5);
    }

    #[test]
    fn a_wake_superseded_by_a_delivery_is_popped_counted_and_ignored() {
        let cfg = two_node_config().without_contention();
        let nodes = vec![
            SleepOrSend { send: Some((1, 12)), woke_at: None },
            SleepOrSend { send: None, woke_at: None },
        ];
        let out = Kernel::new(cfg, nodes).run();
        assert!(!out.stats.deadlocked);
        let arrival = PROCESS_TIME_NS + cfg.uncontended_latency_ns(1, 12);
        assert_eq!(out.nodes[1].woke_at, Some(SimTime::from_ns(arrival)));
        // Two initial wakes, the delivery, the wake it pushed for node 1,
        // and node 1's sleep timer, popped stale after node 1 is done.
        assert_eq!(out.events_processed, 5);
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_panics() {
        let cfg = two_node_config();
        let nodes = vec![OneShot::sender(0, 1), OneShot::receiver(0)];
        let _ = Kernel::new(cfg, nodes).run();
    }

    #[test]
    #[should_panic(expected = "one actor per mesh node")]
    fn node_count_must_match_mesh() {
        let cfg = two_node_config();
        let _ = Kernel::new(cfg, vec![OneShot::receiver(0)]);
    }
}
