//! Membership and recovery: the layer between the transport and the
//! update protocol. [`Termination`] is the ledger every run keeps;
//! [`Recovery`] exists only when [`crate::MsgPassConfig::recovery`] is
//! set — "off" is `None`, not a flag tested at run time — and handles
//! the `Recovery` packet kind.

use std::collections::VecDeque;
use std::sync::Arc;

use locus_circuit::WireId;
use locus_mesh::{SimTime, Step};
use locus_obs::EventKind;
use locus_router::ProcId;

use crate::config::RecoveryConfig;
use crate::packet::Packet;
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

/// The termination ledger: every node reports `Finished` to the
/// coordinator, which broadcasts `Terminate` once a report from every
/// peer it does not presume dead is in — finished nodes keep serving
/// requests until then. Reports are kept per peer, so a duplicated
/// `Finished` counts once.
pub(crate) struct Termination {
    /// Who this node currently believes coordinates termination and
    /// reassignment (starts at [`COORDINATOR`]; moves on failover).
    pub(crate) coordinator: ProcId,
    /// Coordinator only: peers that reported all their work finished.
    finished_flags: Vec<bool>,
    /// Peers declared dead (never resurrected within a run; only
    /// [`Recovery`] declares any).
    presumed_dead: Vec<bool>,
    /// Whether this node's own `Finished` is out (un-set by fresh work
    /// or a change of coordinator, so it re-reports).
    finished_sent: bool,
    /// The run is over: this node saw or sent `Terminate`.
    pub(crate) terminate: bool,
}

impl Termination {
    /// The ledger of a run of `n_procs` nodes that has just started.
    pub(crate) fn new(n_procs: usize) -> Self {
        Termination {
            coordinator: COORDINATOR,
            finished_flags: vec![false; n_procs],
            presumed_dead: vec![false; n_procs],
            finished_sent: false,
            terminate: false,
        }
    }

    /// Books a `Finished` report from `from` at node `proc`.
    pub(crate) fn report_finished(&mut self, proc: ProcId, from: ProcId) {
        // Otherwise: a report addressed to this node while it was
        // coordinator-apparent, since superseded; the sender will
        // re-report via StatusReport.
        if proc == self.coordinator {
            self.finished_flags[from] = true;
        }
    }

    /// One round of the termination protocol at node `proc`, which is
    /// `ready` when it has no routing work left: report `Finished` once,
    /// and as coordinator end the run when every peer has reported.
    pub(crate) fn conclude(&mut self, proc: ProcId, ready: bool, link: &mut Link<'_>) -> u64 {
        let mut busy = 0u64;
        if ready && !self.finished_sent {
            self.finished_sent = true;
            if proc != self.coordinator {
                busy += link.send(self.coordinator, Packet::Finished);
            }
        }
        let n_procs = self.finished_flags.len();
        let all_reported = (0..n_procs)
            .filter(|&p| p != proc)
            .all(|p| self.finished_flags[p] || self.presumed_dead[p]);
        if proc == self.coordinator && ready && !self.terminate && all_reported {
            // Broadcast to presumed-dead peers too: a stalled-but-alive
            // node falsely declared dead still needs to stop, and the
            // reliable layer bounds the cost against a truly dead one
            // by exhausting its retries.
            for p in (0..n_procs).filter(|&p| p != proc) {
                busy += link.send(p, Packet::Terminate);
            }
            self.terminate = true;
        }
        busy
    }
}

/// Checkpoints, heartbeats and failure detection, reassignment of a dead
/// peer's wires, coordinator succession, and the pacing that keeps a
/// computing node heartbeating.
pub(crate) struct Recovery {
    proc: ProcId,
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
    /// Wires adopted from dead peers, awaiting routing (by the router,
    /// which pops them).
    pub(crate) adopted: VecDeque<WireId>,
    /// The complete static assignment (every processor's wire list),
    /// known to every node so that any of them can redistribute a dead
    /// peer's wires without asking anyone.
    full_assignment: Arc<Vec<Vec<WireId>>>,
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
    pub(crate) stats: RecoveryStats,
}

impl Recovery {
    /// Recovery state of node `proc`, which owns `region_cells` cost
    /// cells; `full_assignment` is every processor's static wire list.
    pub(crate) fn new(
        proc: ProcId,
        cfg: RecoveryConfig,
        region_cells: u64,
        full_assignment: Arc<Vec<Vec<WireId>>>,
    ) -> Self {
        let n_procs = full_assignment.len();
        Recovery {
            proc,
            cfg,
            checkpoint_bytes: region_cells * 2 + 8,
            next_heartbeat_at: 0,
            last_heard: vec![0; n_procs],
            reassigned: vec![false; n_procs],
            ckpt_known: vec![0; n_procs],
            ckpt_progress: 0,
            adopted: VecDeque::new(),
            full_assignment,
            granted_log: vec![Vec::new(); n_procs],
            pending_busy: 0,
            stats: RecoveryStats::default(),
        }
    }

    /// Wires into the static assignment covered by the last checkpoint.
    pub(crate) fn durable_progress(&self) -> u32 {
        self.ckpt_progress
    }

    /// Whether busy time banked by [`Recovery::pace`] is still draining.
    pub(crate) fn draining(&self) -> bool {
        self.pending_busy > 0
    }

    /// Notes an envelope from `from`. Any traffic proves the sender
    /// alive — acks and raw heartbeats included, which never reach
    /// [`Recovery::handle`].
    pub(crate) fn heard(&mut self, from: ProcId, now_ns: u64) {
        self.last_heard[from] = now_ns;
    }

    /// Handles one received `Recovery`-kind packet; `finished_routing`
    /// says whether the router is through its static list.
    pub(crate) fn handle(
        &mut self,
        from: ProcId,
        packet: Packet,
        finished_routing: bool,
        term: &mut Termination,
        link: &mut Link<'_>,
    ) -> u64 {
        match packet {
            Packet::Heartbeat => {
                // Liveness is tracked per envelope in `heard`. Beyond
                // that, only coordinators broadcast heartbeats, so one
                // from a lower rank than the believed coordinator is a
                // competing claim that wins (the successor rule elects
                // the lowest live rank): a split brain from cascaded
                // false suspicions re-converges on the lowest claimant,
                // and a deposed-but-alive coordinator demotes itself
                // here. The adopter re-reports its finish state so the
                // restored coordinator's ledger completes.
                if from < term.coordinator {
                    term.presumed_dead[from] = false;
                    term.coordinator = from;
                    term.finished_sent = false;
                }
            }
            Packet::Checkpoint { progress, bytes: _ } => {
                if self.proc == term.coordinator {
                    self.ckpt_known[from] = self.ckpt_known[from].max(progress);
                }
            }
            Packet::Reassign { wires } => {
                self.stats.wires_adopted += wires.len() as u64;
                self.adopted.extend(wires.iter().map(|&w| w as WireId));
                // Fresh work un-finishes this node; it re-reports once
                // the adopted queue drains.
                term.finished_sent = false;
            }
            Packet::NewCoordinator => {
                if from != self.proc {
                    // Every rank below the announcer must be dead or the
                    // announcer would not have won the succession.
                    for p in (0..from).filter(|&p| p != self.proc) {
                        term.presumed_dead[p] = true;
                    }
                    term.coordinator = from;
                    let finished = finished_routing && self.adopted.is_empty();
                    let report = Packet::StatusReport { progress: self.ckpt_progress, finished };
                    return link.send(from, report);
                }
            }
            Packet::StatusReport { progress, finished } => {
                if self.proc == term.coordinator {
                    self.ckpt_known[from] = self.ckpt_known[from].max(progress);
                    if finished {
                        term.finished_flags[from] = true;
                    }
                }
            }
            other => debug_assert!(false, "{other:?} is not a recovery packet"),
        }
        0
    }

    /// Checkpoints after static wire `progressed` when one is due: every
    /// `checkpoint_every` wires, and when the list is `finished`, which
    /// makes a finished-then-crashed node's full route set durable.
    /// (Validation pins recovery to a single iteration, so `progressed`
    /// is the node's total static progress.)
    pub(crate) fn checkpoint_if_due(
        &mut self,
        progressed: u32,
        finished: bool,
        term: &Termination,
        link: &mut Link<'_>,
    ) -> u64 {
        if finished || progressed.is_multiple_of(self.cfg.checkpoint_every) {
            self.take_checkpoint(progressed, term, link)
        } else {
            0
        }
    }

    /// Persists the node's routing state: charges the serialized size of
    /// its owned cost shard plus the progress record to simulated time,
    /// advances the durable progress mark to `progress`, and ships the
    /// progress record to the coordinator so reassignment after a crash
    /// starts from here.
    pub(crate) fn take_checkpoint(
        &mut self,
        progress: u32,
        term: &Termination,
        link: &mut Link<'_>,
    ) -> u64 {
        let bytes = self.checkpoint_bytes;
        let mut busy = bytes.saturating_mul(self.cfg.checkpoint_per_byte_ns);
        self.ckpt_progress = progress;
        self.stats.checkpoints_taken += 1;
        self.stats.checkpoint_bytes += bytes;
        link.emit(EventKind::CheckpointTaken { bytes: bytes as u32 });
        if self.proc == term.coordinator {
            self.ckpt_known[self.proc] = progress;
        } else {
            let report = Packet::Checkpoint { progress, bytes: bytes as u32 };
            busy += link.send(term.coordinator, report);
        }
        busy
    }

    /// One recovery round: emit a due heartbeat, declare silent peers
    /// dead, and (as a worker) fail over when the coordinator has gone
    /// silent.
    pub(crate) fn tick(&mut self, term: &mut Termination, link: &mut Link<'_>) -> u64 {
        let now_ns = link.now_ns;
        let n_procs = self.last_heard.len();
        let mut busy = 0u64;
        // Succession invariant: the coordinator is the lowest live
        // rank. A node that finds itself ranked *below* its believed
        // coordinator got there through crossed failover claims — the
        // higher rank declared this node dead while it was merely
        // slow. This node is alive and lower, so the role is its;
        // announcing the claim demotes the higher claimant.
        if self.proc < term.coordinator {
            term.coordinator = self.proc;
            busy += self.become_coordinator(term, link);
        }
        if now_ns >= self.next_heartbeat_at {
            self.next_heartbeat_at = now_ns.saturating_add(self.cfg.heartbeat_ns);
            self.stats.heartbeats_sent += 1;
            if self.proc == term.coordinator {
                // Broadcast to presumed-dead peers too: heartbeats are
                // raw and cheap, a truly dead peer just drops them, and
                // a falsely-suspected rival coordinator must hear this
                // claim to demote itself (split-brain convergence).
                for p in (0..n_procs).filter(|&p| p != self.proc) {
                    busy += link.send_unsequenced(p, Packet::Heartbeat);
                }
            } else {
                busy += link.send_unsequenced(term.coordinator, Packet::Heartbeat);
            }
        }
        let window = self.cfg.suspect_window_ns();
        if self.proc == term.coordinator {
            for p in 0..n_procs {
                if p == self.proc || term.presumed_dead[p] {
                    continue;
                }
                if now_ns.saturating_sub(self.last_heard[p]) > window {
                    term.presumed_dead[p] = true;
                    self.stats.nodes_declared_dead += 1;
                    busy += self.reassign_wires_of(p, term, link);
                }
            }
        } else if !term.presumed_dead[term.coordinator]
            && now_ns.saturating_sub(self.last_heard[term.coordinator]) > window
        {
            // The coordinator has gone silent: the successor is the
            // lowest presumed-live rank. Workers only ever suspect
            // coordinators, so every live node's successor converges.
            term.presumed_dead[term.coordinator] = true;
            self.stats.nodes_declared_dead += 1;
            let successor =
                (0..n_procs).find(|&p| !term.presumed_dead[p]).expect("this node itself is alive");
            term.coordinator = successor;
            if successor == self.proc {
                busy += self.become_coordinator(term, link);
            }
        }
        busy
    }

    /// Takes over coordinator duty: announce to every peer (the deposed
    /// coordinator included — if it later restarts, the retransmitted
    /// announcement demotes it), collect status reports, and
    /// redistribute every known-dead peer's orphans.
    fn become_coordinator(&mut self, term: &mut Termination, link: &mut Link<'_>) -> u64 {
        let n_procs = self.last_heard.len();
        let mut busy = 0u64;
        self.stats.coordinator_failovers += 1;
        link.emit(EventKind::CoordinatorFailover { new_coordinator: self.proc as u32 });
        // Fresh detection baseline: as a worker this node only heard
        // peers through data traffic, so its silence clocks are stale by
        // up to a routing stretch. Without a grace period the new
        // coordinator instantly declares every quiet-but-live worker
        // dead and orphans whatever had been granted to them.
        self.last_heard.fill(link.now_ns);
        // Redistribute before announcing: streams are FIFO, so each
        // adopter holds its new work before it answers `NewCoordinator`,
        // and its `StatusReport` cannot claim a finish it no longer has.
        // The dead coordinator's checkpoint ledger died with it, so its
        // orphans are redistributed from `ckpt_known` — zero unless it
        // ever reported here, which re-routes already-durable work; the
        // duplicates resolve first-writer-wins at collection.
        for d in 0..n_procs {
            if term.presumed_dead[d] && !self.reassigned[d] {
                busy += self.reassign_wires_of(d, term, link);
            }
        }
        for p in (0..n_procs).filter(|&p| p != self.proc) {
            busy += link.send(p, Packet::NewCoordinator);
        }
        busy
    }

    /// Redistributes the dead peer's post-checkpoint wires round-robin
    /// over the live nodes (this node included). Idempotent per peer.
    fn reassign_wires_of(
        &mut self,
        dead: ProcId,
        term: &mut Termination,
        link: &mut Link<'_>,
    ) -> u64 {
        if self.reassigned[dead] {
            return 0;
        }
        self.reassigned[dead] = true;
        let from = self.ckpt_known[dead] as usize;
        let mut orphans: Vec<WireId> =
            self.full_assignment[dead].get(from..).map(<[WireId]>::to_vec).unwrap_or_default();
        // Wires this coordinator previously granted to the dead node are
        // in nobody's static assignment; re-grant them all — the ones
        // the dead node did route are durable (dynamic routes survive a
        // crash) and resolve as duplicates, first-writer-wins.
        orphans.extend(std::mem::take(&mut self.granted_log[dead]));
        if orphans.is_empty() {
            return 0;
        }
        let targets: Vec<ProcId> =
            (0..self.last_heard.len()).filter(|&p| p != dead && !term.presumed_dead[p]).collect();
        let mut buckets: Vec<Vec<WireId>> = vec![Vec::new(); targets.len()];
        for (i, &w) in orphans.iter().enumerate() {
            buckets[i % targets.len()].push(w);
        }
        let mut busy = 0u64;
        for (t, wires) in targets.into_iter().zip(buckets) {
            if wires.is_empty() {
                continue;
            }
            self.stats.wires_reassigned += wires.len() as u64;
            for &w in &wires {
                let (wire, from, to) = (w as u32, dead as u32, t as u32);
                link.emit(EventKind::WireReassigned { wire, from, to });
            }
            if t == self.proc {
                self.stats.wires_adopted += wires.len() as u64;
                self.adopted.extend(wires);
                term.finished_sent = false;
            } else {
                term.finished_flags[t] = false;
                self.granted_log[t].extend(wires.iter().copied());
                let wires = wires.iter().map(|&w| w as u32).collect();
                busy += link.send(t, Packet::Reassign { wires });
            }
        }
        busy
    }

    /// Paces the outcome `out` of a step at `now_ns` so the node stays
    /// inside every peer's suspect window; `terminate` says the run is
    /// over for this node.
    pub(crate) fn pace(&mut self, out: Step, terminate: bool, now_ns: u64) -> Step {
        if terminate {
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
                let chunk = (self.cfg.heartbeat_ns / 2).max(1);
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
        let hb = SimTime::from_ns(self.next_heartbeat_at.max(now_ns + 1));
        match out {
            Step::Block => Step::Sleep { until: hb },
            Step::Sleep { until } => Step::Sleep { until: until.min(hb) },
            other => other,
        }
    }

    /// The reset half of a restart at `now_ns`, of a node that had
    /// routed `routed` wires of its static list: returns the checkpoint
    /// the router must roll back to.
    pub(crate) fn on_restart(&mut self, now_ns: u64, routed: usize) -> usize {
        let durable = self.ckpt_progress as usize;
        if routed > durable {
            self.stats.rollbacks += 1;
            self.stats.wires_rolled_back += (routed - durable) as u64;
        }
        // In-flight computation died with the crash.
        self.pending_busy = 0;
        // A fresh boot owes everyone a heartbeat, and grants every peer
        // a fresh silence clock — the old one stopped while this node
        // was down and would indict peers that never went quiet.
        self.next_heartbeat_at = now_ns;
        self.last_heard.fill(now_ns);
        durable
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
    /// wires 0–3, 4–5, 6–7, 8–9, with its ledger and a transport.
    fn layer(proc: ProcId) -> (Recovery, Termination, Transport) {
        let plan = vec![vec![0, 1, 2, 3], vec![4, 5], vec![6, 7], vec![8, 9]];
        let transport = Transport::new(proc, 4, true);
        (Recovery::new(proc, CFG, 16, Arc::new(plan)), Termination::new(4), transport)
    }

    /// What `outbox` holds, as `(to, packet)`.
    fn sent(outbox: &Outbox<Frame>) -> Vec<(ProcId, Packet)> {
        outbox
            .sends()
            .iter()
            .map(|(to, _, f)| (*to, f.packet().expect("no acks").clone()))
            .collect()
    }

    #[test]
    fn silence_past_the_suspect_window_elects_the_lowest_live_rank() {
        // Inside the window nobody is suspected.
        let (mut r, mut term, mut t) = layer(2);
        let mut outbox = Outbox::new();
        r.tick(&mut term, &mut t.link(&mut outbox, 300));
        assert_eq!(term.coordinator, 0);
        assert_eq!(sent(&outbox), [(0, Packet::Heartbeat)], "a worker beats to the coordinator");
        // Past it, rank 2 defers to rank 1 and takes no office itself.
        let mut outbox = Outbox::new();
        r.tick(&mut term, &mut t.link(&mut outbox, 301));
        assert_eq!(term.coordinator, 1);
        assert!(outbox.is_empty());
        assert_eq!(r.stats.nodes_declared_dead, 1);
        assert_eq!(r.stats.coordinator_failovers, 0);

        // Rank 1 reaches the same verdict and is the successor: it hands
        // out the dead coordinator's wires before it announces itself.
        let (mut r, mut term, mut t) = layer(1);
        let mut outbox = Outbox::new();
        r.tick(&mut term, &mut t.link(&mut outbox, 301));
        assert_eq!(term.coordinator, 1);
        assert_eq!(r.stats.coordinator_failovers, 1);
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
        assert_eq!(r.adopted, [0, 3], "its own share of the round robin");
        assert!(matches!(outbox.sends()[0].2, Frame::Raw(_)), "heartbeats ride unsequenced");
        assert!(matches!(outbox.sends()[1].2, Frame::Data { .. }));
    }

    #[test]
    fn heartbeat_from_a_lower_rank_demotes_a_claimant() {
        let (mut r, mut term, mut t) = layer(1);
        let mut outbox = Outbox::new();
        r.tick(&mut term, &mut t.link(&mut outbox, 301));
        assert_eq!(term.coordinator, 1);
        term.finished_sent = true;
        // A higher rank's beat is liveness only.
        r.handle(3, Packet::Heartbeat, true, &mut term, &mut t.link(&mut outbox, 310));
        assert_eq!(term.coordinator, 1);
        // Rank 0 was merely slow: its claim wins, and this node owes it
        // a fresh `Finished`.
        r.handle(0, Packet::Heartbeat, true, &mut term, &mut t.link(&mut outbox, 320));
        assert_eq!(term.coordinator, 0);
        assert!(!term.presumed_dead[0]);
        assert!(!term.finished_sent);
        // And a node that finds itself below its believed coordinator
        // takes the role back on its next round.
        let (mut r, mut term, mut t) = layer(0);
        term.coordinator = 1;
        let mut outbox = Outbox::new();
        r.tick(&mut term, &mut t.link(&mut outbox, 0));
        assert_eq!(term.coordinator, 0);
        assert_eq!(sent(&outbox)[..3], [1, 2, 3].map(|p| (p, Packet::NewCoordinator)));
    }

    #[test]
    fn reassignment_is_idempotent_and_regrants_a_dead_grantees_wires() {
        let (mut r, mut term, mut t) = layer(1);
        let mut outbox = Outbox::new();
        r.tick(&mut term, &mut t.link(&mut outbox, 301));
        assert_eq!(r.stats.wires_reassigned, 4);
        // Asked again for the same peer: nothing moves.
        let mut outbox = Outbox::new();
        assert_eq!(r.reassign_wires_of(0, &mut term, &mut t.link(&mut outbox, 302)), 0);
        assert!(outbox.is_empty());
        assert_eq!(r.stats.wires_reassigned, 4);
        // Rank 2, which was granted wire 1, now falls silent while rank 3
        // keeps talking. Wire 1 is in nobody's static list: it comes back
        // out of the grant log together with 2's own wires 6 and 7.
        term.finished_flags[2] = true;
        r.heard(3, 650);
        let mut outbox = Outbox::new();
        r.tick(&mut term, &mut t.link(&mut outbox, 700));
        assert!(term.presumed_dead[2] && !term.presumed_dead[3]);
        let reassigned: Vec<_> =
            sent(&outbox).into_iter().filter(|(_, p)| *p != Packet::Heartbeat).collect();
        assert_eq!(reassigned, [(3, Packet::Reassign { wires: vec![7] })]);
        assert_eq!(r.adopted, [0, 3, 6, 1]);
        assert!(!term.finished_flags[3], "fresh work un-finishes the grantee");
        assert_eq!(r.granted_log[3], [2, 7]);
    }

    #[test]
    fn long_busy_time_is_charged_in_chunks_and_dropped_on_restart() {
        let (mut r, _, _) = layer(2);
        // 120 ns of work at a 100 ns heartbeat: 50 now, 70 banked.
        assert_eq!(
            r.pace(Step::Continue { busy_ns: 120 }, false, 0),
            Step::Continue { busy_ns: 50 }
        );
        assert!(r.draining());
        assert_eq!(
            r.pace(Step::Continue { busy_ns: 0 }, false, 50),
            Step::Continue { busy_ns: 50 }
        );
        assert!(r.draining(), "20 ns still owed");
        // The node crashes mid-drain having routed 3 wires, 0 of them
        // durable: the remainder died with it, the 3 wires roll back.
        assert_eq!(r.on_restart(90, 3), 0);
        assert!(!r.draining());
        assert_eq!((r.stats.rollbacks, r.stats.wires_rolled_back), (1, 3));
        // Idle outcomes never outlast the next heartbeat, due at once
        // after a restart and every 100 ns from then on.
        assert_eq!(r.pace(Step::Block, false, 90), Step::Sleep { until: SimTime::from_ns(91) });
        let far = Step::Sleep { until: SimTime::from_ns(10_000) };
        assert_eq!(r.pace(far, false, 90), Step::Sleep { until: SimTime::from_ns(91) });
        // Once the run is over the bank is abandoned and nothing is paced.
        r.pace(Step::Continue { busy_ns: 500 }, false, 100);
        assert_eq!(r.pace(Step::Block, true, 100), Step::Block);
        assert!(!r.draining());
    }

    #[test]
    fn terminate_waits_for_every_live_peer_and_reaches_the_dead_too() {
        let (_, mut term, mut t) = layer(1);
        term.coordinator = 1;
        term.presumed_dead[0] = true;
        let mut outbox = Outbox::new();
        // Rank 2 reporting twice is one report; rank 3 is still missing.
        term.report_finished(1, 2);
        term.report_finished(1, 2);
        term.conclude(1, true, &mut t.link(&mut outbox, 0));
        assert!(!term.terminate && outbox.is_empty());
        term.report_finished(1, 3);
        term.conclude(1, true, &mut t.link(&mut outbox, 0));
        assert!(term.terminate);
        assert_eq!(sent(&outbox), [0, 2, 3].map(|p| (p, Packet::Terminate)));
    }
}
