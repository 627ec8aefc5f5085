//! Membership and recovery: the layer between the transport and the
//! update protocol. [`ControlPlane`] alone decides when a node's run
//! ends: it keeps the termination ledger every run keeps, handles
//! `Finished`, `Terminate` and the `Recovery` packet kind, and under
//! recovery checkpoints, heartbeats, reassigns a dead peer's wires and
//! elects coordinators. The router asks it each step whether to route,
//! adopt a wire or stop.

use std::collections::VecDeque;
use std::sync::Arc;

use locus_circuit::WireId;
use locus_mesh::{SimTime, Step};
use locus_obs::EventKind;
use locus_router::ProcId;

use crate::config::RecoveryConfig;
use crate::packet::{Packet, PacketKind};
use crate::reliable::Link;

/// Coordinator of the termination protocol when a run starts (and the
/// assignment processor of the dynamic wire source).
pub(crate) const COORDINATOR: ProcId = 0;

/// Recovery-protocol counters for one node. All zero when
/// [`crate::MsgPassConfig::recovery`] is off; merged across nodes into
/// the run outcome.
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
    pub(crate) fn merge(&mut self, other: &RecoveryStats) {
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

/// One node's control plane. Every node reports `Finished` to the
/// coordinator, which broadcasts `Terminate` once a report from every
/// peer it does not presume dead is in — finished nodes keep serving
/// requests until then. Reports are kept per peer, so a duplicated
/// `Finished` counts once. Recovery "off" is `recovery: None`, not a
/// flag tested at run time.
pub(crate) struct ControlPlane {
    proc: ProcId,
    /// Who this node currently believes coordinates termination and
    /// reassignment (starts at [`COORDINATOR`]; moves on failover).
    coordinator: ProcId,
    /// Coordinator only: peers that reported all their work finished.
    finished_flags: Vec<bool>,
    /// Peers declared dead (never resurrected within a run; only
    /// recovery declares any).
    presumed_dead: Vec<bool>,
    /// The router is through its own work: its static list, or the
    /// dynamic pool (set by the router).
    pub(crate) finished_routing: bool,
    /// Whether this node's own `Finished` is out (un-set by fresh work
    /// or a change of coordinator, so it re-reports).
    finished_sent: bool,
    /// The run is over: this node saw or sent `Terminate`.
    terminate: bool,
    recovery: Option<Recovery>,
}

/// Checkpoints, heartbeats and failure detection, reassignment of a dead
/// peer's wires, and the pacing that keeps a computing node heartbeating.
struct Recovery {
    cfg: RecoveryConfig,
    /// Serialized size of one checkpoint: the owned shard at 2 bytes per
    /// cell, plus an 8-byte progress record.
    checkpoint_bytes: u64,
    /// Simulated time at which the next heartbeat round is due.
    next_heartbeat_at: u64,
    /// Last simulated time any envelope arrived from each peer.
    last_heard: Vec<u64>,
    /// Dead peers whose orphaned wires were already redistributed.
    reassigned: Vec<bool>,
    /// Coordinator only: each peer's last checkpointed progress (wires
    /// into its static assignment that are durable).
    ckpt_known: Vec<u32>,
    /// Own durable progress: wires into the static list covered by the
    /// last checkpoint (work past it dies with a crash).
    ckpt_progress: u32,
    /// Wires adopted from dead peers, awaiting routing (the router takes
    /// them through [`ControlPlane::next_orphan`]).
    adopted: VecDeque<WireId>,
    /// The complete static assignment (every processor's wire list),
    /// known to every node so that any of them can redistribute a dead
    /// peer's wires without asking anyone.
    full_assignment: Arc<Vec<Vec<WireId>>>,
    /// Coordinator only: wires this node granted to each peer through
    /// `Reassign`. If a grantee later dies, these orphans are not in its
    /// static assignment, so they must be re-granted from this ledger.
    granted_log: Vec<Vec<WireId>>,
    /// `Reassign`s received from each peer, and sent to each peer, both
    /// wrapping. A `Finished` or `StatusReport` carries the sender's
    /// received count for its addressee, which books the finish only if
    /// that equals its own sent count: both streams are reliable FIFO,
    /// so equal counts mean no grant is in flight and no report predates
    /// one (message-counting termination detection, Mattern 1987).
    grants_received: Vec<u8>,
    grants_sent: Vec<u8>,
    /// Computation time owed but not yet charged to the simulated clock.
    /// Under recovery a long busy interval is drained in heartbeat-sized
    /// chunks so the node keeps heartbeating (and acking) while it
    /// computes — the discrete-event analogue of an interrupt-driven
    /// network stack. Charging a whole wire's routing time atomically
    /// would silence the node past the suspect window on large circuits
    /// and get it falsely declared dead.
    pending_busy: u64,
    stats: RecoveryStats,
}

impl ControlPlane {
    /// The control plane of node `proc` when a run starts, which owns
    /// `region_cells` cost cells; `plan` is every processor's static wire
    /// list. Recovery runs when `recovery` is set.
    pub(crate) fn new(
        proc: ProcId,
        recovery: Option<RecoveryConfig>,
        region_cells: u64,
        plan: Arc<Vec<Vec<WireId>>>,
    ) -> Self {
        let n_procs = plan.len();
        ControlPlane {
            proc,
            coordinator: COORDINATOR,
            finished_flags: vec![false; n_procs],
            presumed_dead: vec![false; n_procs],
            finished_routing: false,
            finished_sent: false,
            terminate: false,
            recovery: recovery.map(|cfg| Recovery {
                cfg,
                checkpoint_bytes: region_cells * 2 + 8,
                next_heartbeat_at: 0,
                last_heard: vec![0; n_procs],
                reassigned: vec![false; n_procs],
                ckpt_known: vec![0; n_procs],
                ckpt_progress: 0,
                adopted: VecDeque::new(),
                full_assignment: plan,
                granted_log: vec![Vec::new(); n_procs],
                grants_received: vec![0; n_procs],
                grants_sent: vec![0; n_procs],
                pending_busy: 0,
                stats: RecoveryStats::default(),
            }),
        }
    }

    /// This node's recovery counters (all zero when recovery is off).
    pub(crate) fn stats(&self) -> RecoveryStats {
        self.recovery.as_ref().map_or_else(RecoveryStats::default, |r| r.stats)
    }

    /// Whether the run is over for this node.
    pub(crate) fn terminated(&self) -> bool {
        self.terminate
    }

    /// How many of the `routed` static wires keep their routes: all of
    /// them, unless this node `crashed` under recovery, when only the
    /// checkpointed prefix survives.
    pub(crate) fn durable_limit(&self, crashed: bool, routed: usize) -> usize {
        match &self.recovery {
            Some(r) if crashed => r.ckpt_progress as usize,
            _ => routed,
        }
    }

    /// Whether busy time banked by [`ControlPlane::pace`] is still
    /// draining: the router then starts no new work this step.
    pub(crate) fn draining(&self) -> bool {
        !self.terminate && self.recovery.as_ref().is_some_and(|r| r.pending_busy > 0)
    }

    /// Notes an envelope from `from`. Any traffic proves the sender
    /// alive — acks and raw heartbeats included, which never reach
    /// [`ControlPlane::handle`].
    pub(crate) fn heard(&mut self, from: ProcId, now_ns: u64) {
        if let Some(r) = &mut self.recovery {
            r.last_heard[from] = now_ns;
        }
    }

    /// Whether `packet` is the control plane's: `Finished`, `Terminate`
    /// or of the `Recovery` kind.
    pub(crate) fn owns(packet: &Packet) -> bool {
        matches!(packet, Packet::Finished { .. } | Packet::Terminate)
            || packet.kind() == PacketKind::Recovery
    }

    /// Handles one packet the control plane [owns](ControlPlane::owns)
    /// (a `Recovery`-kind one is dropped when recovery is off); returns
    /// the modelled time of any response.
    pub(crate) fn handle(&mut self, from: ProcId, packet: Packet, link: &mut Link<'_>) -> u64 {
        match (packet, &mut self.recovery) {
            (Packet::Finished { grants }, r) => {
                debug_assert!(r.is_some() || self.proc == self.coordinator);
                // Otherwise: a report addressed to this node while it was
                // coordinator-apparent, since superseded; the sender will
                // re-report via StatusReport. A report that crossed a
                // grant is stale; the grantee re-reports once it drains.
                let no_grant_in_flight = r.as_ref().is_none_or(|r| r.grants_sent[from] == grants);
                if self.proc == self.coordinator && no_grant_in_flight {
                    self.finished_flags[from] = true;
                }
            }
            (Packet::Terminate, _) => self.terminate = true,
            (_, None) => {}
            (Packet::Heartbeat, Some(_)) => {
                // Liveness is tracked per envelope in `heard`. Beyond
                // that, only coordinators broadcast heartbeats, so one
                // from a lower rank than the believed coordinator is a
                // competing claim that wins (the successor rule elects
                // the lowest live rank): a split brain from cascaded
                // false suspicions re-converges on the lowest claimant,
                // and a deposed-but-alive coordinator demotes itself
                // here. The adopter re-reports its finish state so the
                // restored coordinator's ledger completes.
                if from < self.coordinator {
                    self.presumed_dead[from] = false;
                    self.coordinator = from;
                    self.finished_sent = false;
                }
            }
            (Packet::Checkpoint { progress, bytes: _ }, Some(r)) => {
                if self.proc == self.coordinator {
                    r.ckpt_known[from] = r.ckpt_known[from].max(progress);
                }
            }
            (Packet::Reassign { wires }, Some(r)) => {
                r.grants_received[from] = r.grants_received[from].wrapping_add(1);
                r.stats.wires_adopted += wires.len() as u64;
                r.adopted.extend(wires.iter().map(|&w| w as WireId));
                // Fresh work un-finishes this node; it re-reports once
                // the adopted queue drains.
                self.finished_sent = false;
            }
            (Packet::NewCoordinator, Some(r)) => {
                if from != self.proc {
                    // Every rank below the announcer must be dead or the
                    // announcer would not have won the succession.
                    for p in (0..from).filter(|&p| p != self.proc) {
                        self.presumed_dead[p] = true;
                    }
                    self.coordinator = from;
                    let (progress, grants) = (r.ckpt_progress, r.grants_received[from]);
                    let finished = self.finished_routing && r.adopted.is_empty();
                    return link.send(from, Packet::StatusReport { progress, finished, grants });
                }
            }
            (Packet::StatusReport { progress, finished, grants }, Some(r)) => {
                if self.proc == self.coordinator {
                    r.ckpt_known[from] = r.ckpt_known[from].max(progress);
                    if finished && r.grants_sent[from] == grants {
                        self.finished_flags[from] = true;
                    }
                }
            }
            (other, _) => debug_assert!(false, "{other:?} is not a control-plane packet"),
        }
        0
    }

    /// The next wire adopted from a dead peer, once the router is through
    /// its own work and the run is not over.
    pub(crate) fn next_orphan(&mut self) -> Option<WireId> {
        if !self.finished_routing || self.terminate {
            return None;
        }
        self.recovery.as_mut()?.adopted.pop_front()
    }

    /// One round of the termination protocol, for a node that has no
    /// routing work left: report `Finished` once, and as coordinator end
    /// the run when every peer has reported.
    pub(crate) fn conclude(&mut self, link: &mut Link<'_>) -> u64 {
        let ready =
            self.finished_routing && self.recovery.as_ref().is_none_or(|r| r.adopted.is_empty());
        let mut busy = 0u64;
        if ready && !self.finished_sent {
            self.finished_sent = true;
            if self.proc != self.coordinator {
                let grants =
                    self.recovery.as_ref().map_or(0, |r| r.grants_received[self.coordinator]);
                busy += link.send(self.coordinator, Packet::Finished { grants });
            }
        }
        let n_procs = self.finished_flags.len();
        let all_reported = (0..n_procs)
            .filter(|&p| p != self.proc)
            .all(|p| self.finished_flags[p] || self.presumed_dead[p]);
        if self.proc == self.coordinator && ready && !self.terminate && all_reported {
            // Broadcast to presumed-dead peers too: a stalled-but-alive
            // node falsely declared dead still needs to stop, and the
            // reliable layer bounds the cost against a truly dead one
            // by exhausting its retries.
            for p in (0..n_procs).filter(|&p| p != self.proc) {
                busy += link.send(p, Packet::Terminate);
            }
            self.terminate = true;
        }
        busy
    }

    /// Checkpoints after a wire commits, when one is due: after static
    /// wire `progressed` every `checkpoint_every` wires, and once the
    /// router has finished its list, which makes a finished-then-crashed
    /// node's full route set durable — so after every orphaned wire
    /// (`None`), which keeps the progress mark and persists the shard.
    /// (Validation pins recovery to a single iteration, so `progressed`
    /// is the node's total static progress.) A checkpoint charges the
    /// serialized shard and progress record to simulated time, and ships
    /// the progress record to the coordinator so reassignment after a
    /// crash starts from here.
    pub(crate) fn checkpoint(&mut self, progressed: Option<u32>, link: &mut Link<'_>) -> u64 {
        let Some(r) = &mut self.recovery else { return 0 };
        let progress = progressed.unwrap_or(r.ckpt_progress);
        if !self.finished_routing && !progress.is_multiple_of(r.cfg.checkpoint_every) {
            return 0;
        }
        let bytes = r.checkpoint_bytes;
        let mut busy = bytes.saturating_mul(r.cfg.checkpoint_per_byte_ns);
        r.ckpt_progress = progress;
        r.stats.checkpoints_taken += 1;
        r.stats.checkpoint_bytes += bytes;
        link.emit(EventKind::CheckpointTaken { bytes: bytes as u32 });
        if self.proc == self.coordinator {
            r.ckpt_known[self.proc] = progress;
        } else {
            let report = Packet::Checkpoint { progress, bytes: bytes as u32 };
            busy += link.send(self.coordinator, report);
        }
        busy
    }

    /// One recovery round, unless the run is over: reclaim the
    /// coordinator role when this node ranks below its holder, emit a due
    /// heartbeat, declare silent peers dead, and (as a worker) fail over
    /// when the coordinator has gone silent.
    pub(crate) fn tick(&mut self, link: &mut Link<'_>) -> u64 {
        if self.terminate || self.recovery.is_none() {
            return 0;
        }
        let (me, now_ns, n_procs) = (self.proc, link.now_ns, self.presumed_dead.len());
        let mut busy = 0u64;
        // Succession invariant: the coordinator is the lowest live
        // rank. A node that finds itself ranked *below* its believed
        // coordinator got there through crossed failover claims — the
        // higher rank declared this node dead while it was merely
        // slow. This node is alive and lower, so the role is its;
        // announcing the claim demotes the higher claimant.
        if me < self.coordinator {
            self.coordinator = me;
            busy += self.become_coordinator(link);
        }
        if let Some(r) = self.recovery.as_mut().filter(|r| now_ns >= r.next_heartbeat_at) {
            r.next_heartbeat_at = now_ns.saturating_add(r.cfg.heartbeat_ns);
            r.stats.heartbeats_sent += 1;
            if me == self.coordinator {
                // Broadcast to presumed-dead peers too: heartbeats are
                // raw and cheap, a truly dead peer just drops them, and
                // a falsely-suspected rival coordinator must hear this
                // claim to demote itself (split-brain convergence).
                for p in (0..n_procs).filter(|&p| p != me) {
                    busy += link.send_unsequenced(p, Packet::Heartbeat);
                }
            } else {
                busy += link.send_unsequenced(self.coordinator, Packet::Heartbeat);
            }
        }
        if me == self.coordinator {
            for p in (0..n_procs).filter(|&p| p != me) {
                if self.declare_if_silent(p, now_ns) {
                    busy += self.reassign_wires_of(p, link);
                }
            }
        } else if self.declare_if_silent(self.coordinator, now_ns) {
            // The coordinator has gone silent: the successor is the
            // lowest presumed-live rank. Workers only ever suspect
            // coordinators, so every live node's successor converges.
            let successor = self
                .presumed_dead
                .iter()
                .position(|dead| !dead)
                .expect("this node itself is alive");
            self.coordinator = successor;
            if successor == me {
                busy += self.become_coordinator(link);
            }
        }
        busy
    }

    /// Presumes the live peer `p` dead if it has been silent past the
    /// suspect window at `now_ns`; returns whether it did.
    fn declare_if_silent(&mut self, p: ProcId, now_ns: u64) -> bool {
        let Some(r) = &mut self.recovery else { return false };
        let silent = now_ns.saturating_sub(r.last_heard[p]) > r.cfg.suspect_window_ns();
        if self.presumed_dead[p] || !silent {
            return false;
        }
        self.presumed_dead[p] = true;
        r.stats.nodes_declared_dead += 1;
        true
    }

    /// Takes over coordinator duty: announce to every peer (the deposed
    /// coordinator included — if it later restarts, the retransmitted
    /// announcement demotes it), collect status reports, and
    /// redistribute every known-dead peer's orphans.
    fn become_coordinator(&mut self, link: &mut Link<'_>) -> u64 {
        let Some(r) = &mut self.recovery else { return 0 };
        r.stats.coordinator_failovers += 1;
        link.emit(EventKind::CoordinatorFailover { new_coordinator: self.proc as u32 });
        // Fresh detection baseline: as a worker this node only heard
        // peers through data traffic, so its silence clocks are stale by
        // up to a routing stretch. Without a grace period the new
        // coordinator instantly declares every quiet-but-live worker
        // dead and orphans whatever had been granted to them.
        r.last_heard.fill(link.now_ns);
        // Redistribute before announcing: streams are FIFO, so each
        // adopter holds its new work before it answers `NewCoordinator`,
        // and its `StatusReport` cannot claim a finish it no longer has.
        // The dead coordinator's checkpoint ledger died with it, so its
        // orphans are redistributed from `ckpt_known` — zero unless it
        // ever reported here, which re-routes already-durable work; the
        // duplicates resolve first-writer-wins at collection.
        let n_procs = self.presumed_dead.len();
        let mut busy = 0u64;
        for d in 0..n_procs {
            if self.presumed_dead[d] {
                busy += self.reassign_wires_of(d, link);
            }
        }
        for p in (0..n_procs).filter(|&p| p != self.proc) {
            busy += link.send(p, Packet::NewCoordinator);
        }
        busy
    }

    /// Redistributes the dead peer's post-checkpoint wires round-robin
    /// over the live nodes (this node included). Idempotent per peer.
    fn reassign_wires_of(&mut self, dead: ProcId, link: &mut Link<'_>) -> u64 {
        let Some(r) = &mut self.recovery else { return 0 };
        if r.reassigned[dead] {
            return 0;
        }
        r.reassigned[dead] = true;
        let from = r.ckpt_known[dead] as usize;
        let mut orphans: Vec<WireId> =
            r.full_assignment[dead].get(from..).map(<[WireId]>::to_vec).unwrap_or_default();
        // Wires this coordinator previously granted to the dead node are
        // in nobody's static assignment; re-grant them all — the ones
        // the dead node did route are durable (dynamic routes survive a
        // crash) and resolve as duplicates, first-writer-wins.
        orphans.extend(std::mem::take(&mut r.granted_log[dead]));
        if orphans.is_empty() {
            return 0;
        }
        let n_procs = self.presumed_dead.len();
        let targets: Vec<ProcId> =
            (0..n_procs).filter(|&p| p != dead && !self.presumed_dead[p]).collect();
        let mut buckets: Vec<Vec<WireId>> = vec![Vec::new(); targets.len()];
        for (i, &w) in orphans.iter().enumerate() {
            buckets[i % targets.len()].push(w);
        }
        let mut busy = 0u64;
        for (t, wires) in targets.into_iter().zip(buckets) {
            if wires.is_empty() {
                continue;
            }
            r.stats.wires_reassigned += wires.len() as u64;
            for &w in &wires {
                let (wire, from, to) = (w as u32, dead as u32, t as u32);
                link.emit(EventKind::WireReassigned { wire, from, to });
            }
            if t == self.proc {
                r.stats.wires_adopted += wires.len() as u64;
                r.adopted.extend(wires);
                self.finished_sent = false;
            } else {
                self.finished_flags[t] = false;
                r.grants_sent[t] = r.grants_sent[t].wrapping_add(1);
                r.granted_log[t].extend(wires.iter().copied());
                let wires = wires.iter().map(|&w| w as u32).collect();
                busy += link.send(t, Packet::Reassign { wires });
            }
        }
        busy
    }

    /// Paces the outcome `out` of a step at `now_ns` so the node stays
    /// inside every peer's suspect window (recovery only).
    pub(crate) fn pace(&mut self, out: Step, now_ns: u64) -> Step {
        let Some(r) = &mut self.recovery else { return out };
        if self.terminate {
            // A `Terminate` mid-drain abandons the banked remainder: the
            // run is over and nobody is measuring this node any more.
            r.pending_busy = 0;
            return out;
        }
        let out = match out {
            // Drain computation in chunks short enough that the node
            // steps (and so heartbeats) well inside the suspect window
            // no matter how expensive a single wire is.
            Step::Continue { busy_ns } => {
                let chunk = (r.cfg.heartbeat_ns / 2).max(1);
                let total = r.pending_busy + busy_ns;
                let charged = total.min(chunk);
                r.pending_busy = total - charged;
                Step::Continue { busy_ns: charged }
            }
            other => other,
        };
        // Never sleep or block past the next heartbeat: a silent node
        // would be declared dead, and a sleeping coordinator would never
        // notice a dead worker.
        let hb = SimTime::from_ns(r.next_heartbeat_at.max(now_ns + 1));
        match out {
            Step::Block => Step::Sleep { until: hb },
            Step::Sleep { until } => Step::Sleep { until: until.min(hb) },
            other => other,
        }
    }

    /// The reset half of a restart at `now_ns`, of a node that had
    /// routed `routed` wires of its static list: returns the checkpoint
    /// the router must roll back to (`None` when recovery is off).
    pub(crate) fn on_restart(&mut self, now_ns: u64, routed: usize) -> Option<usize> {
        let r = self.recovery.as_mut()?;
        let durable = r.ckpt_progress as usize;
        if routed > durable {
            r.stats.rollbacks += 1;
            r.stats.wires_rolled_back += (routed - durable) as u64;
        }
        // In-flight computation died with the crash.
        r.pending_busy = 0;
        // A fresh boot owes everyone a heartbeat, and grants every peer
        // a fresh silence clock — the old one stopped while this node
        // was down and would indict peers that never went quiet.
        r.next_heartbeat_at = now_ns;
        r.last_heard.fill(now_ns);
        Some(durable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliable::{Frame, Transport};
    use locus_mesh::Outbox;

    /// Heartbeat every 100 ns, dead after 3 silent beats.
    const CFG: RecoveryConfig = RecoveryConfig {
        checkpoint_every: 4,
        heartbeat_ns: 100,
        suspect_after: 3,
        checkpoint_per_byte_ns: 1,
    };

    /// Node `proc` of a four-node machine whose static assignment is
    /// wires 0–3, 4–5, 6–7, 8–9, with its control plane and a transport.
    fn layer(proc: ProcId) -> (ControlPlane, Transport) {
        let plan = vec![vec![0, 1, 2, 3], vec![4, 5], vec![6, 7], vec![8, 9]];
        let transport = Transport::new(proc, 4, true);
        (ControlPlane::new(proc, Some(CFG), 16, Arc::new(plan)), transport)
    }

    /// The recovery state of `c`.
    fn rec(c: &ControlPlane) -> &Recovery {
        c.recovery.as_ref().expect("recovery is on")
    }

    /// What `outbox` holds, as `(to, packet)`.
    fn sent(outbox: &Outbox<Frame>) -> Vec<(ProcId, Packet)> {
        outbox
            .sends()
            .iter()
            .map(|(to, _, f)| (*to, f.packet().expect("no acks").clone()))
            .collect()
    }

    /// Control planes over real transports and a scripted network, with
    /// no kernel: a frame waits on its sender → addressee stream, in
    /// order, until the script delivers it, at the time the script says.
    struct Machine {
        nodes: Vec<(ControlPlane, Transport)>,
        /// `streams[from][to]`: frames in flight, oldest first.
        streams: Vec<Vec<VecDeque<Frame>>>,
    }

    impl Machine {
        /// A node per entry of `plan`, under [`CFG`], each through its
        /// own routing from the start.
        fn new(plan: Vec<Vec<WireId>>) -> Self {
            let n = plan.len();
            let plan = Arc::new(plan);
            let node = |p| {
                let mut c = ControlPlane::new(p, Some(CFG), 16, Arc::clone(&plan));
                c.finished_routing = true;
                (c, Transport::new(p, n, true))
            };
            Machine {
                nodes: (0..n).map(node).collect(),
                streams: vec![vec![VecDeque::new(); n]; n],
            }
        }

        /// Node `p`'s control round at `now`, in `RouterNode::step`'s
        /// order: the recovery tick, then one orphaned wire (routed at
        /// once) or the termination protocol.
        fn step(&mut self, p: ProcId, now: u64) {
            let (c, t) = &mut self.nodes[p];
            let mut outbox = Outbox::new();
            let mut link = t.link(&mut outbox, now);
            c.tick(&mut link);
            if c.next_orphan().is_some() {
                c.checkpoint(None, &mut link);
            } else {
                c.conclude(&mut link);
            }
            self.post(p, &outbox);
        }

        /// Delivers the oldest frame on the `from` → `to` stream at
        /// `now`, as `RouterNode::step` would; returns its packet.
        fn deliver(&mut self, from: ProcId, to: ProcId, now: u64) -> Packet {
            let frame = self.streams[from][to].pop_front().expect("a frame in flight");
            let (c, t) = &mut self.nodes[to];
            let mut outbox = Outbox::new();
            c.heard(from, now);
            let packet = t.receive(from, frame).expect("streams deliver in order");
            c.handle(from, packet.clone(), &mut t.link(&mut outbox, now));
            self.post(to, &outbox);
            packet
        }

        /// Delivers every frame on the `from` → `to` stream at `now`.
        fn deliver_all(&mut self, from: ProcId, to: ProcId, now: u64) {
            while !self.streams[from][to].is_empty() {
                self.deliver(from, to, now);
            }
        }

        fn post(&mut self, from: ProcId, outbox: &Outbox<Frame>) {
            for (to, _, frame) in outbox.sends() {
                self.streams[from][*to].push_back(frame.clone());
            }
        }

        /// Whether a `Terminate` is in flight anywhere.
        fn terminating(&self) -> bool {
            let mut frames = self.streams.iter().flatten().flatten();
            frames.any(|f| f.packet() == Some(&Packet::Terminate))
        }
    }

    #[test]
    fn a_finished_report_that_crossed_a_grant_ends_nothing() {
        // Node 1 dies holding wires 1 and 2; nodes 0 and 2 are through
        // their own work, and node 2 reports so at once.
        let mut m = Machine::new(vec![vec![0], vec![1, 2], vec![3]]);
        m.step(2, 10);
        m.step(0, 10);
        // The coordinator hears node 2's heartbeat but not yet its
        // `Finished`, declares node 1 dead, routes wire 1 itself and
        // grants wire 2 to node 2.
        assert_eq!(m.deliver(2, 0, 301), Packet::Heartbeat);
        m.step(0, 301);
        assert_eq!(m.nodes[0].0.stats().wires_reassigned, 2);
        // The crossing: the `Finished` that predates the grant arrives.
        assert!(matches!(m.deliver(2, 0, 302), Packet::Finished { .. }));
        m.step(0, 303);
        assert!(!m.nodes[0].0.terminated() && !m.terminating(), "node 2 holds wire 2");
        // The grant lands: node 2 routes wire 2 and reports again, and
        // the run ends only once that report is in.
        m.deliver_all(0, 2, 310);
        m.step(2, 310);
        m.step(2, 311);
        m.step(0, 312);
        assert!(!m.nodes[0].0.terminated());
        m.deliver_all(2, 0, 313);
        m.step(0, 314);
        assert!(m.nodes[0].0.terminated() && m.terminating());
    }

    #[test]
    fn a_status_report_that_crossed_a_later_grant_ends_nothing() {
        // Coordinator 0 is dead from the start; 1, 2 and 3 are through
        // their own work and report to it in vain.
        let mut m = Machine::new(vec![vec![0], vec![1], vec![2], vec![3, 4]]);
        for p in 1..4 {
            m.step(p, 10);
        }
        // Node 2 elects node 1 on its own; node 1 takes over, routes the
        // dead coordinator's wire 0 itself and announces. Node 2 hears
        // node 1's update traffic, then beats to it.
        m.step(2, 301);
        m.step(1, 301);
        assert_eq!(m.nodes[1].0.coordinator, 1);
        m.nodes[2].0.heard(1, 400);
        m.step(2, 401);
        // Node 2 answers the announcement: finished, nothing granted. Its
        // heartbeat reaches node 1 ahead of that report.
        assert_eq!(m.deliver(1, 2, 402), Packet::NewCoordinator);
        assert_eq!(m.deliver(2, 1, 403), Packet::Heartbeat);
        // Node 3 died without answering: node 1 declares it dead, routes
        // wire 3 and grants wire 4 to node 2.
        m.step(1, 604);
        assert_eq!(m.nodes[1].0.stats().nodes_declared_dead, 2);
        // The crossing: the report that predates the grant arrives.
        assert!(matches!(m.deliver(2, 1, 605), Packet::StatusReport { finished: true, .. }));
        m.step(1, 606);
        assert!(!m.nodes[1].0.terminated() && !m.terminating(), "node 2 holds wire 4");
        // The grant lands; the run ends once node 2's next report is in.
        m.deliver_all(1, 2, 607);
        m.step(2, 607);
        m.step(2, 608);
        m.step(1, 609);
        assert!(!m.nodes[1].0.terminated());
        m.deliver_all(2, 1, 610);
        m.step(1, 611);
        assert!(m.nodes[1].0.terminated() && m.terminating());
    }

    #[test]
    fn silence_past_the_suspect_window_elects_the_lowest_live_rank() {
        // Inside the window nobody is suspected.
        let (mut c, mut t) = layer(2);
        let mut outbox = Outbox::new();
        c.tick(&mut t.link(&mut outbox, 300));
        assert_eq!(c.coordinator, 0);
        assert_eq!(sent(&outbox), [(0, Packet::Heartbeat)], "a worker beats to the coordinator");
        // Past it, rank 2 defers to rank 1 and takes no office itself.
        let mut outbox = Outbox::new();
        c.tick(&mut t.link(&mut outbox, 301));
        assert_eq!(c.coordinator, 1);
        assert!(outbox.is_empty());
        assert_eq!(c.stats().nodes_declared_dead, 1);
        assert_eq!(c.stats().coordinator_failovers, 0);

        // Rank 1 reaches the same verdict and is the successor: it hands
        // out the dead coordinator's wires before it announces itself.
        let (mut c, mut t) = layer(1);
        let mut outbox = Outbox::new();
        c.tick(&mut t.link(&mut outbox, 301));
        assert_eq!(c.coordinator, 1);
        assert_eq!(c.stats().coordinator_failovers, 1);
        assert_eq!(
            sent(&outbox),
            [
                (0, Packet::Heartbeat),
                (2, Packet::Reassign { wires: vec![1] }),
                (3, Packet::Reassign { wires: vec![2] }),
                (0, Packet::NewCoordinator),
                (2, Packet::NewCoordinator),
                (3, Packet::NewCoordinator),
            ]
        );
        assert_eq!(rec(&c).adopted, [0, 3], "its own share of the round robin");
        assert!(matches!(outbox.sends()[0].2, Frame::Raw(_)), "heartbeats ride unsequenced");
        assert!(matches!(outbox.sends()[1].2, Frame::Data { .. }));
    }

    #[test]
    fn heartbeat_from_a_lower_rank_demotes_a_claimant() {
        let (mut c, mut t) = layer(1);
        let mut outbox = Outbox::new();
        c.tick(&mut t.link(&mut outbox, 301));
        assert_eq!(c.coordinator, 1);
        c.finished_sent = true;
        // A higher rank's beat is liveness only.
        c.handle(3, Packet::Heartbeat, &mut t.link(&mut outbox, 310));
        assert_eq!(c.coordinator, 1);
        // Rank 0 was merely slow: its claim wins, and this node owes it
        // a fresh `Finished`.
        c.handle(0, Packet::Heartbeat, &mut t.link(&mut outbox, 320));
        assert_eq!(c.coordinator, 0);
        assert!(!c.presumed_dead[0]);
        assert!(!c.finished_sent);
        // And a node that finds itself below its believed coordinator
        // takes the role back on its next round.
        let (mut c, mut t) = layer(0);
        c.coordinator = 1;
        let mut outbox = Outbox::new();
        c.tick(&mut t.link(&mut outbox, 0));
        assert_eq!(c.coordinator, 0);
        assert_eq!(sent(&outbox)[..3], [1, 2, 3].map(|p| (p, Packet::NewCoordinator)));
    }

    #[test]
    fn reassignment_is_idempotent_and_regrants_a_dead_grantees_wires() {
        let (mut c, mut t) = layer(1);
        let mut outbox = Outbox::new();
        c.tick(&mut t.link(&mut outbox, 301));
        assert_eq!(c.stats().wires_reassigned, 4);
        // Asked again for the same peer: nothing moves.
        let mut outbox = Outbox::new();
        assert_eq!(c.reassign_wires_of(0, &mut t.link(&mut outbox, 302)), 0);
        assert!(outbox.is_empty());
        assert_eq!(c.stats().wires_reassigned, 4);
        // Rank 2, which was granted wire 1, now falls silent while rank 3
        // keeps talking. Wire 1 is in nobody's static list: it comes back
        // out of the grant log together with 2's own wires 6 and 7.
        c.finished_flags[2] = true;
        c.heard(3, 650);
        let mut outbox = Outbox::new();
        c.tick(&mut t.link(&mut outbox, 700));
        assert!(c.presumed_dead[2] && !c.presumed_dead[3]);
        let reassigned: Vec<_> =
            sent(&outbox).into_iter().filter(|(_, p)| *p != Packet::Heartbeat).collect();
        assert_eq!(reassigned, [(3, Packet::Reassign { wires: vec![7] })]);
        assert_eq!(rec(&c).adopted, [0, 3, 6, 1]);
        assert!(!c.finished_flags[3], "fresh work un-finishes the grantee");
        assert_eq!(rec(&c).granted_log[3], [2, 7]);
    }

    #[test]
    fn long_busy_time_is_charged_in_chunks_and_dropped_on_restart() {
        let (mut c, _) = layer(2);
        // 120 ns of work at a 100 ns heartbeat: 50 now, 70 banked.
        assert_eq!(c.pace(Step::Continue { busy_ns: 120 }, 0), Step::Continue { busy_ns: 50 });
        assert!(c.draining());
        assert_eq!(c.pace(Step::Continue { busy_ns: 0 }, 50), Step::Continue { busy_ns: 50 });
        assert!(c.draining(), "20 ns still owed");
        // The node crashes mid-drain having routed 3 wires, 0 of them
        // durable: the remainder died with it, the 3 wires roll back.
        assert_eq!(c.on_restart(90, 3), Some(0));
        assert!(!c.draining());
        assert_eq!((c.stats().rollbacks, c.stats().wires_rolled_back), (1, 3));
        // Idle outcomes never outlast the next heartbeat, due at once
        // after a restart and every 100 ns from then on.
        assert_eq!(c.pace(Step::Block, 90), Step::Sleep { until: SimTime::from_ns(91) });
        let far = Step::Sleep { until: SimTime::from_ns(10_000) };
        assert_eq!(c.pace(far, 90), Step::Sleep { until: SimTime::from_ns(91) });
        // Once the run is over the bank is abandoned and nothing is paced.
        c.pace(Step::Continue { busy_ns: 500 }, 100);
        c.terminate = true;
        assert_eq!(c.pace(Step::Block, 100), Step::Block);
        assert!(rec(&c).pending_busy == 0 && !c.draining());
    }

    #[test]
    fn terminate_waits_for_every_live_peer_and_reaches_the_dead_too() {
        let (mut c, mut t) = layer(1);
        c.coordinator = 1;
        c.presumed_dead[0] = true;
        c.finished_routing = true;
        let mut outbox = Outbox::new();
        // Rank 2 reporting twice is one report; rank 3 is still missing.
        c.handle(2, Packet::Finished { grants: 0 }, &mut t.link(&mut outbox, 0));
        c.handle(2, Packet::Finished { grants: 0 }, &mut t.link(&mut outbox, 0));
        c.conclude(&mut t.link(&mut outbox, 0));
        assert!(!c.terminated() && outbox.is_empty());
        c.handle(3, Packet::Finished { grants: 0 }, &mut t.link(&mut outbox, 0));
        c.conclude(&mut t.link(&mut outbox, 0));
        assert!(c.terminated());
        assert_eq!(sent(&outbox), [0, 2, 3].map(|p| (p, Packet::Terminate)));
    }
}
