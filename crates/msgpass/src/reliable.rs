//! End-to-end reliable delivery over the (possibly faulty) mesh.
//!
//! The paper's mesh network never loses packets, so the router's update
//! protocol assumes perfect delivery. When the mesh fault layer
//! ([`locus_mesh::FaultPlan`]) drops, duplicates, or reorders envelopes,
//! that assumption breaks: a lost `WireGrant` or `Terminate` deadlocks
//! the whole machine, and a duplicated delta packet corrupts every
//! replica it lands on. This module adds the classic end-to-end fix —
//! per-peer **sequence numbers**, **cumulative acknowledgements**, and
//! **timeout/retransmit with exponential backoff** — as the bottom layer
//! of the node's protocol stack, which owns everything between a
//! [`Packet`] and the mesh outbox; the layers above never see a frame:
//!
//! * every data packet to a peer carries a per-(sender, receiver)
//!   sequence number (`Frame::Data`);
//! * the receiver delivers in order exactly once, buffering out-of-order
//!   arrivals and suppressing duplicates by sequence number, and owes a
//!   cumulative `Frame::Ack` after any progress;
//! * the sender keeps unacknowledged packets in flight and retransmits
//!   on a timer, doubling the timeout per attempt up to a cap;
//!   retransmission order is **criticality-first**: control traffic
//!   (`WireGrant`, `Finished`, `Terminate`) beats data packets because a
//!   lost control packet stalls the termination protocol, while a lost
//!   delta merely ages a replica;
//! * acks are never acked and never retransmitted — a lost ack is
//!   repaired by the data retransmission it would have suppressed.
//!
//! The layer is strictly opt-in: with reliability disabled the transport
//! wraps packets as `Frame::Raw` with zero bookkeeping, and the framed
//! byte counts equal the unframed ones, so fault-free baselines stay
//! byte-identical to runs that predate this module.

use std::collections::BTreeMap;

use locus_mesh::{Outbox, SimTime, Step};
use locus_obs::{EventKind, Obs};
use locus_router::ProcId;

use crate::packet::{Packet, PacketCounts, PacketKind};

/// Extra wire bytes for the sequence number of a [`Frame::Data`].
pub(crate) const SEQ_BYTES: u32 = 4;

/// Wire size of a [`Frame::Ack`]: 1 type byte + 4-byte cumulative seq.
pub(crate) const ACK_BYTES: u32 = 5;

/// Modelled per-byte packet-assembly cost at the sender (ns/byte).
/// Together with the mesh's receive-side disassembly cost
/// ([`locus_mesh::RECV_PER_BYTE_NS`]) this reproduces the paper's
/// observation that packet handling reaches a quarter of processing time
/// under frequent updates (§5.1.1).
pub(crate) const SEND_PER_BYTE_NS: u64 = 10_000;

// The retransmission timers look enormous next to the mesh's ~4 µs packet
// latency, but the bottleneck is the *receiver*: disassembly costs
// 10 000 ns per byte, so a single 500-byte update occupies its receiver
// for 5 ms and the ack behind it waits. Timeouts below that turnaround
// would retransmit packets that were merely queued, melting the network
// under its own repair traffic.

/// Initial retransmission timeout (ns).
pub(crate) const RETRANSMIT_TIMEOUT_NS: u64 = 20_000_000;

/// Backoff cap: the timeout doubles per attempt up to this (ns).
pub(crate) const MAX_TIMEOUT_NS: u64 = 160_000_000;

/// Retransmissions per packet before the sender gives up and counts a
/// `retries_exhausted` (the watchdog recovers the consequences).
pub(crate) const MAX_RETRIES: u32 = 10;

/// How long a finished node lingers awake to re-ack duplicate or
/// retransmitted traffic before declaring itself done (ns).
pub(crate) const LINGER_NS: u64 = 20_000_000;

/// What actually crosses the mesh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// An unsequenced packet (reliability disabled — the pre-existing
    /// wire format, byte-for-byte).
    Raw(Packet),
    /// A sequenced packet: `seq` is per-(sender, receiver), starting at 0.
    Data {
        /// Sequence number within the sender→receiver stream.
        seq: u32,
        /// The application packet.
        packet: Packet,
    },
    /// Cumulative acknowledgement: "I have delivered every sequence
    /// number below `cum_seq` on your stream to me".
    Ack {
        /// One past the highest in-order-delivered sequence number.
        cum_seq: u32,
    },
}

impl Frame {
    /// Application payload size on the wire in bytes.
    pub(crate) fn payload_bytes(&self) -> u32 {
        match self {
            Frame::Raw(p) => p.payload_bytes(),
            Frame::Data { packet, .. } => packet.payload_bytes() + SEQ_BYTES,
            Frame::Ack { .. } => ACK_BYTES,
        }
    }

    /// The inner packet, if this frame carries one.
    pub(crate) fn packet(&self) -> Option<&Packet> {
        match self {
            Frame::Raw(p) | Frame::Data { packet: p, .. } => Some(p),
            Frame::Ack { .. } => None,
        }
    }
}

/// Counters of one node's transport (merged across nodes in the run
/// outcome).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Packets retransmitted after a timeout.
    pub retransmits: u64,
    /// Cumulative acks sent.
    pub acks_sent: u64,
    /// Received packets discarded as duplicates (seq already delivered
    /// or already buffered).
    pub dup_suppressed: u64,
    /// Received packets that arrived ahead of sequence and were buffered.
    pub out_of_order: u64,
    /// Packets abandoned after `max_retries` retransmissions.
    pub retries_exhausted: u64,
}

impl ReliableStats {
    /// Adds `other` into `self`.
    pub(crate) fn merge(&mut self, other: &ReliableStats) {
        self.retransmits += other.retransmits;
        self.acks_sent += other.acks_sent;
        self.dup_suppressed += other.dup_suppressed;
        self.out_of_order += other.out_of_order;
        self.retries_exhausted += other.retries_exhausted;
    }
}

/// One unacknowledged packet at the sender.
#[derive(Clone, Debug)]
struct Inflight {
    seq: u32,
    packet: Packet,
    /// Retransmissions performed so far (0 = only the original send).
    attempts: u32,
    /// Current timeout (doubles per attempt).
    timeout_ns: u64,
    /// Absolute time of the next retransmission.
    next_retry_at: u64,
}

/// Sender-side state for one peer.
#[derive(Clone, Debug, Default)]
struct TxPeer {
    next_seq: u32,
    inflight: Vec<Inflight>,
}

/// Receiver-side state for one peer.
#[derive(Clone, Debug, Default)]
struct RxPeer {
    /// Next sequence number to deliver; everything below is delivered.
    next_expected: u32,
    /// Out-of-order arrivals waiting for the gap to fill.
    buffered: BTreeMap<u32, Packet>,
    /// Whether a cumulative ack is owed to this peer.
    ack_due: bool,
}

/// A retransmission due now: `(to, seq, attempt, packet)`.
type Retransmit = (ProcId, u32, u32, Packet);

/// Orders retransmissions control and recovery traffic first: a lost
/// grant, Terminate or Reassign stalls the whole machine, while a lost
/// delta merely ages a replica. Ties go by peer, then sequence number.
fn sort_by_criticality(due: &mut [Retransmit]) {
    due.sort_by_key(|(peer, seq, _, p)| {
        let rank = match p.kind() {
            PacketKind::Control | PacketKind::Recovery => 0u8,
            _ => 1,
        };
        (rank, *peer, *seq)
    });
}

/// One node's transport: everything between a [`Packet`] and the mesh
/// outbox. With `reliable` off the reliability protocol is a zero-cost
/// pass-through and only the framing and the sent counters remain.
pub(crate) struct Transport {
    proc: ProcId,
    reliable: bool,
    tx: Vec<TxPeer>,
    rx: Vec<RxPeer>,
    /// A lower bound on every in-flight packet's `next_retry_at`
    /// (`u64::MAX` when none can be in flight): no retransmission is due
    /// before it, so a step earlier than it skips the scan.
    retry_floor: u64,
    /// Whether `retry_floor` is the earliest deadline itself, not only a
    /// bound: true after a scan, and kept by every change but removing
    /// the packet that held the earliest deadline.
    floor_exact: bool,
    /// The peers owed a cumulative ack (each once; `RxPeer::ack_due`
    /// marks membership), flushed in ascending peer order.
    acks_owed: Vec<ProcId>,
    /// This node's transport counters.
    pub(crate) stats: ReliableStats,
    /// Per-kind counts of everything this node put on the wire.
    pub(crate) sent: PacketCounts,
    /// While lingering after `Done` (reliability only): the simulated
    /// time at which the node may actually stop, pushed back by any
    /// late-arriving traffic it must re-ack.
    linger_until: Option<u64>,
    obs: Obs,
}

/// What the layers above reach the outside through: this node's
/// transport bound to the outbox and the clock of the step being
/// executed. Sending returns the modelled packet-assembly time.
pub(crate) struct Link<'a> {
    transport: &'a mut Transport,
    outbox: &'a mut Outbox<Frame>,
    /// Simulated time of the step being executed.
    pub(crate) now_ns: u64,
}

impl Link<'_> {
    /// Queues `packet` to `to`. With reliability on the packet is framed
    /// with a sequence number and its retransmission timer armed; the
    /// per-kind counts record the application payload while the wire
    /// carries the framed size.
    pub(crate) fn send(&mut self, to: ProcId, packet: Packet) -> u64 {
        let frame = self.transport.wrap(to, packet, self.now_ns);
        self.transport.transmit(self.outbox, to, frame)
    }

    /// Queues `packet` unframed ([`Frame::Raw`]), bypassing the
    /// reliability protocol. Heartbeats ride raw: they are periodic, so
    /// a lost one is repaired by the next, and they must not occupy
    /// retransmission state (a dead peer would accumulate it forever).
    pub(crate) fn send_unsequenced(&mut self, to: ProcId, packet: Packet) -> u64 {
        self.transport.transmit(self.outbox, to, Frame::Raw(packet))
    }

    /// Records `kind` at this step's time on this node.
    pub(crate) fn emit(&mut self, kind: EventKind) {
        self.transport.obs.emit(self.now_ns, kind);
    }
}

impl Transport {
    /// Builds the transport of node `proc` in a machine of `n_procs`,
    /// running the reliability protocol when `reliable` is set.
    pub(crate) fn new(proc: ProcId, n_procs: usize, reliable: bool) -> Self {
        Transport {
            proc,
            reliable,
            tx: vec![TxPeer::default(); n_procs],
            rx: vec![RxPeer::default(); n_procs],
            retry_floor: u64::MAX,
            floor_exact: true,
            acks_owed: Vec::with_capacity(if reliable { n_procs } else { 0 }),
            stats: ReliableStats::default(),
            sent: PacketCounts::default(),
            linger_until: None,
            obs: Obs::off(),
        }
    }

    /// Records the events of this layer and of the layers that
    /// [`Link::emit`] through `obs`.
    pub(crate) fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Binds the transport to one step's outbox and clock.
    pub(crate) fn link<'a>(&'a mut self, outbox: &'a mut Outbox<Frame>, now_ns: u64) -> Link<'a> {
        Link { transport: self, outbox, now_ns }
    }

    /// Puts `frame` on the wire to `to`, recording it in the sent
    /// counters; returns the modelled assembly time. Every frame this
    /// crate sends goes through here.
    fn transmit(&mut self, outbox: &mut Outbox<Frame>, to: ProcId, frame: Frame) -> u64 {
        debug_assert_ne!(to, self.proc);
        let bytes = frame.payload_bytes();
        match frame.packet() {
            Some(packet) => self.sent.record(packet),
            None => self.sent.record_ack(bytes),
        }
        outbox.send(to, bytes, frame);
        bytes as u64 * SEND_PER_BYTE_NS
    }

    /// Frames `packet` for `to`, assigning a sequence number and arming
    /// the retransmission timer when reliability is on.
    fn wrap(&mut self, to: ProcId, packet: Packet, now_ns: u64) -> Frame {
        if !self.reliable {
            return Frame::Raw(packet);
        }
        let peer = &mut self.tx[to];
        let seq = peer.next_seq;
        peer.next_seq += 1;
        let next_retry_at = now_ns + RETRANSMIT_TIMEOUT_NS;
        peer.inflight.push(Inflight {
            seq,
            packet: packet.clone(),
            attempts: 0,
            timeout_ns: RETRANSMIT_TIMEOUT_NS,
            next_retry_at,
        });
        // The minimum of a set with one more member: exact stays exact.
        self.retry_floor = self.retry_floor.min(next_retry_at);
        Frame::Data { seq, packet }
    }

    /// Processes one received frame from `from`, returning the packet it
    /// makes deliverable to the application, if any; packets that were
    /// waiting behind it follow through [`Self::next_buffered`], so that
    /// delivery is **in sequence order, exactly once**. Acks and
    /// duplicates deliver nothing.
    pub(crate) fn receive(&mut self, from: ProcId, frame: Frame) -> Option<Packet> {
        match frame {
            Frame::Raw(p) => Some(p),
            Frame::Ack { cum_seq } => {
                self.retain_inflight(from, |f| f.seq >= cum_seq);
                None
            }
            Frame::Data { seq, packet } => {
                let rx = &mut self.rx[from];
                if !rx.ack_due {
                    rx.ack_due = true;
                    self.acks_owed.push(from);
                }
                if seq < rx.next_expected {
                    self.stats.dup_suppressed += 1;
                    return None;
                }
                if seq > rx.next_expected {
                    if rx.buffered.insert(seq, packet).is_some() {
                        self.stats.dup_suppressed += 1;
                    } else {
                        self.stats.out_of_order += 1;
                    }
                    return None;
                }
                rx.next_expected += 1;
                Some(packet)
            }
        }
    }

    /// The next packet of `from`'s stream, if it arrived ahead of
    /// sequence and the gap before it has now closed.
    pub(crate) fn next_buffered(&mut self, from: ProcId) -> Option<Packet> {
        let rx = &mut self.rx[from];
        let packet = rx.buffered.remove(&rx.next_expected)?;
        rx.next_expected += 1;
        Some(packet)
    }

    /// Keeps only the packets in flight to `peer` that `keep` accepts.
    /// Removing packets leaves `retry_floor` a lower bound; it stays
    /// exact unless the packet removed held the earliest deadline.
    fn retain_inflight(&mut self, peer: ProcId, mut keep: impl FnMut(&Inflight) -> bool) {
        let floor = self.retry_floor;
        let mut lost_floor = false;
        self.tx[peer].inflight.retain(|f| {
            let kept = keep(f);
            lost_floor |= !kept && f.next_retry_at == floor;
            kept
        });
        self.floor_exact &= !lost_floor;
    }

    /// Sends the acks owed right now, in ascending peer order; returns
    /// the assembly time.
    fn flush_acks(&mut self, now_ns: u64, outbox: &mut Outbox<Frame>) -> u64 {
        if self.acks_owed.is_empty() {
            return 0;
        }
        let mut owed = std::mem::take(&mut self.acks_owed);
        owed.sort_unstable();
        let mut busy = 0;
        for &to in &owed {
            let rx = &mut self.rx[to];
            rx.ack_due = false;
            let cum_seq = rx.next_expected;
            self.stats.acks_sent += 1;
            self.obs.emit(now_ns, EventKind::AckSent { dst: to as u32, cum_seq });
            busy += self.transmit(outbox, to, Frame::Ack { cum_seq });
        }
        owed.clear();
        self.acks_owed = owed;
        busy
    }

    /// Collects the retransmissions due at `now_ns`, arms the next
    /// timers, and drops packets that exhausted their retries; the scan
    /// leaves `retry_floor` exact. Nothing is due before the floor, so
    /// an earlier step returns at once. Criticality-first: control
    /// packets (wire grants, termination) are returned before data
    /// packets.
    fn due_retransmits(&mut self, now_ns: u64) -> Vec<Retransmit> {
        if !self.reliable || now_ns < self.retry_floor {
            return Vec::new();
        }
        let mut due: Vec<Retransmit> = Vec::new();
        let mut floor = u64::MAX;
        for (peer, tx) in self.tx.iter_mut().enumerate() {
            tx.inflight.retain_mut(|f| {
                if f.next_retry_at > now_ns {
                    floor = floor.min(f.next_retry_at);
                    return true;
                }
                if f.attempts >= MAX_RETRIES {
                    self.stats.retries_exhausted += 1;
                    return false;
                }
                f.attempts += 1;
                f.timeout_ns = (f.timeout_ns * 2).min(MAX_TIMEOUT_NS);
                f.next_retry_at = now_ns + f.timeout_ns;
                floor = floor.min(f.next_retry_at);
                self.stats.retransmits += 1;
                due.push((peer, f.seq, f.attempts, f.packet.clone()));
                true
            });
        }
        self.retry_floor = floor;
        self.floor_exact = true;
        sort_by_criticality(&mut due);
        due
    }

    /// The earliest pending retransmission deadline, if any packet is in
    /// flight: the floor itself when it is exact, else a scan that makes
    /// it exact.
    fn next_timer_at(&mut self) -> Option<u64> {
        if !self.floor_exact {
            let deadlines = self.tx.iter().flat_map(|t| t.inflight.iter().map(|f| f.next_retry_at));
            self.retry_floor = deadlines.min().unwrap_or(u64::MAX);
            self.floor_exact = true;
        }
        (self.retry_floor != u64::MAX).then_some(self.retry_floor)
    }

    /// Drains the acks owed right now as `(to, cum_seq)` pairs by a scan
    /// of every peer: the oracle the tests hold [`Self::flush_acks`] to.
    #[cfg(test)]
    fn take_due_acks(&mut self) -> Vec<(ProcId, u32)> {
        self.acks_owed.clear();
        let mut out = Vec::new();
        for (peer, rx) in self.rx.iter_mut().enumerate() {
            if rx.ack_due {
                rx.ack_due = false;
                out.push((peer, rx.next_expected));
                self.stats.acks_sent += 1;
            }
        }
        out
    }

    /// [`Self::due_retransmits`] without the floor, scanning every
    /// in-flight list at every call: the oracle the tests hold it to.
    #[cfg(test)]
    fn due_retransmits_by_scan(&mut self, now_ns: u64) -> Vec<Retransmit> {
        if !self.reliable {
            return Vec::new();
        }
        let mut due: Vec<Retransmit> = Vec::new();
        for (peer, tx) in self.tx.iter_mut().enumerate() {
            tx.inflight.retain_mut(|f| {
                if f.next_retry_at > now_ns {
                    return true;
                }
                if f.attempts >= MAX_RETRIES {
                    self.stats.retries_exhausted += 1;
                    return false;
                }
                f.attempts += 1;
                f.timeout_ns = (f.timeout_ns * 2).min(MAX_TIMEOUT_NS);
                f.next_retry_at = now_ns + f.timeout_ns;
                self.stats.retransmits += 1;
                due.push((peer, f.seq, f.attempts, f.packet.clone()));
                true
            });
        }
        sort_by_criticality(&mut due);
        due
    }

    /// [`Self::next_timer_at`] by a scan of every in-flight list: the
    /// oracle the tests hold it to.
    #[cfg(test)]
    fn next_timer_at_by_scan(&self) -> Option<u64> {
        self.tx.iter().flat_map(|t| t.inflight.iter().map(|f| f.next_retry_at)).min()
    }

    /// Abandons every unacknowledged packet except `Terminate` frames.
    /// Called when a node learns the run is over: stale data and control
    /// traffic no longer matter, but the coordinator's own `Terminate`
    /// fan-out must keep retrying or a worker that lost it never stops.
    fn clear_inflight_except_terminate(&mut self) {
        for peer in 0..self.tx.len() {
            self.retain_inflight(peer, |f| f.packet == Packet::Terminate);
        }
    }

    /// Reliability epilogue of one step: flush due acks and due
    /// retransmissions, then translate the layers' outcome `inner` so
    /// the kernel keeps this node schedulable while transport work is
    /// pending. `Block` becomes `Sleep` until the next retransmission
    /// timer, and `Done` holds the node in a linger window so it can
    /// re-ack retransmitted traffic whose acks were lost. `terminate`
    /// says the node has learned the run is over.
    pub(crate) fn finish_step(
        &mut self,
        inner: Step,
        had_traffic: bool,
        terminate: bool,
        now_ns: u64,
        outbox: &mut Outbox<Frame>,
    ) -> Step {
        if !self.reliable {
            return inner;
        }
        if terminate {
            self.clear_inflight_except_terminate();
        }
        let mut extra = self.flush_acks(now_ns, outbox);
        for (to, seq, attempt, packet) in self.due_retransmits(now_ns) {
            self.obs.emit(now_ns, EventKind::PacketRetransmitted { dst: to as u32, seq, attempt });
            extra += self.transmit(outbox, to, Frame::Data { seq, packet });
        }
        match inner {
            Step::Continue { busy_ns } => Step::Continue { busy_ns: busy_ns + extra },
            Step::Sleep { until } => Step::Sleep { until },
            Step::Block => {
                if extra > 0 {
                    Step::Continue { busy_ns: extra }
                } else if let Some(timer) = self.next_timer_at() {
                    // `due_retransmits` above consumed every deadline
                    // <= now, so the timer is strictly in the future.
                    Step::Sleep { until: SimTime::from_ns(timer) }
                } else {
                    Step::Block
                }
            }
            Step::Done => {
                if had_traffic || self.linger_until.is_none() {
                    self.linger_until = Some(now_ns + LINGER_NS);
                }
                let deadline = self.linger_until.expect("linger deadline just set");
                if extra > 0 {
                    return Step::Continue { busy_ns: extra };
                }
                if let Some(timer) = self.next_timer_at() {
                    return Step::Sleep { until: SimTime::from_ns(timer.max(now_ns + 1)) };
                }
                if now_ns >= deadline {
                    Step::Done
                } else {
                    Step::Sleep { until: SimTime::from_ns(deadline) }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node 0's transport in a four-node machine.
    fn transport(reliable: bool) -> Transport {
        Transport::new(0, 4, reliable)
    }

    fn reliable() -> Transport {
        transport(true)
    }

    /// Everything `frame` makes deliverable at `t`, in delivery order
    /// (the receive loop of `RouterNode::step`).
    fn deliver(t: &mut Transport, from: ProcId, frame: Frame) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut next = t.receive(from, frame);
        while let Some(packet) = next {
            out.push(packet);
            next = t.next_buffered(from);
        }
        out
    }

    #[test]
    fn raw_mode_is_a_pass_through() {
        let mut t = transport(false);
        let f = t.wrap(1, Packet::Finished { grants: 0 }, 0);
        assert_eq!(f, Frame::Raw(Packet::Finished { grants: 0 }));
        assert_eq!(f.payload_bytes(), Packet::Finished { grants: 0 }.payload_bytes());
        assert_eq!(deliver(&mut t, 1, f), vec![Packet::Finished { grants: 0 }]);
        assert_eq!(t.next_timer_at(), None);
        assert!(t.due_retransmits(u64::MAX).is_empty());
        assert!(t.take_due_acks().is_empty());
    }

    #[test]
    fn frames_carry_seq_overhead_and_acks_are_small() {
        let mut t = reliable();
        let f = t.wrap(1, Packet::Finished { grants: 0 }, 0);
        assert_eq!(f, Frame::Data { seq: 0, packet: Packet::Finished { grants: 0 } });
        assert_eq!(f.payload_bytes(), Packet::Finished { grants: 0 }.payload_bytes() + SEQ_BYTES);
        assert_eq!(Frame::Ack { cum_seq: 9 }.payload_bytes(), ACK_BYTES);
    }

    #[test]
    fn in_order_delivery_and_cumulative_ack() {
        let mut a = reliable();
        let mut b = reliable();
        let f0 = a.wrap(1, Packet::WireRequest, 0);
        let f1 = a.wrap(1, Packet::Finished { grants: 0 }, 0);
        assert_eq!(deliver(&mut b, 0, f0), vec![Packet::WireRequest]);
        assert_eq!(deliver(&mut b, 0, f1), vec![Packet::Finished { grants: 0 }]);
        let acks = b.take_due_acks();
        assert_eq!(acks, vec![(0, 2)]);
        assert_eq!(b.stats.acks_sent, 1, "one cumulative ack covers both");
        assert!(a.next_timer_at().is_some());
        assert!(deliver(&mut a, 1, Frame::Ack { cum_seq: 2 }).is_empty());
        assert_eq!(a.next_timer_at(), None);
    }

    #[test]
    fn out_of_order_arrivals_are_buffered_and_drained() {
        let mut b = reliable();
        assert!(deliver(&mut b, 0, Frame::Data { seq: 1, packet: Packet::Finished { grants: 0 } })
            .is_empty());
        assert_eq!(b.stats.out_of_order, 1);
        let got = deliver(&mut b, 0, Frame::Data { seq: 0, packet: Packet::WireRequest });
        assert_eq!(got, vec![Packet::WireRequest, Packet::Finished { grants: 0 }]);
        assert_eq!(b.take_due_acks(), vec![(0, 2)]);
    }

    #[test]
    fn duplicates_are_suppressed_but_reacked() {
        let mut b = reliable();
        let f = Frame::Data { seq: 0, packet: Packet::Finished { grants: 0 } };
        assert_eq!(deliver(&mut b, 0, f.clone()), vec![Packet::Finished { grants: 0 }]);
        b.take_due_acks();
        assert!(deliver(&mut b, 0, f).is_empty(), "second copy must not deliver");
        assert_eq!(b.stats.dup_suppressed, 1);
        assert_eq!(b.take_due_acks(), vec![(0, 1)], "dup still owes an ack");
    }

    #[test]
    fn retransmits_back_off_and_prioritise_control() {
        let mut t = reliable();
        let data = Packet::ReqRmtData { rect: locus_circuit::Rect::new(0, 1, 0, 1) };
        t.wrap(1, data.clone(), 0); // seq 0, data
        t.wrap(2, Packet::Terminate, 0); // control
        let first = RETRANSMIT_TIMEOUT_NS;
        assert!(t.due_retransmits(first - 1).is_empty(), "nothing due yet");
        let due = t.due_retransmits(first);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].3, Packet::Terminate, "control retransmits first");
        assert_eq!(due[1].3, data);
        assert_eq!(t.stats.retransmits, 2);
        // The timeout doubles per attempt (20, 40, 80 ms) until it reaches
        // the 160 ms cap, where it stays.
        let mut at = first;
        for timeout in [2, 4, 8, 8, 8, 8, 8, 8, 8].map(|k| k * RETRANSMIT_TIMEOUT_NS) {
            at += timeout;
            assert!(t.due_retransmits(at - 1).is_empty(), "due at {at}, not before");
            assert_eq!(t.due_retransmits(at).len(), 2);
        }
        assert_eq!(8 * RETRANSMIT_TIMEOUT_NS, MAX_TIMEOUT_NS);
        assert_eq!(t.stats.retransmits, 2 * MAX_RETRIES as u64);
        // Retries exhausted: entries dropped, counted.
        assert!(t.due_retransmits(u64::MAX).is_empty());
        assert_eq!(t.next_timer_at(), None);
        assert_eq!(t.stats.retries_exhausted, 2);
    }

    #[test]
    fn ack_clears_only_acknowledged_prefix() {
        let mut t = reliable();
        t.wrap(1, Packet::WireRequest, 0);
        t.wrap(1, Packet::Finished { grants: 0 }, 0);
        t.wrap(1, Packet::Terminate, 0);
        deliver(&mut t, 1, Frame::Ack { cum_seq: 2 });
        let due = t.due_retransmits(u64::MAX / 2);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].1, 2, "only seq 2 still in flight");
    }

    #[test]
    fn terminate_survives_inflight_clear() {
        let mut t = reliable();
        t.wrap(1, Packet::Finished { grants: 0 }, 0);
        t.wrap(2, Packet::Terminate, 0);
        t.clear_inflight_except_terminate();
        let due = t.due_retransmits(u64::MAX / 2);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].3, Packet::Terminate);
    }

    #[test]
    fn next_timer_tracks_earliest_deadline() {
        let mut t = reliable();
        assert_eq!(t.next_timer_at(), None);
        t.wrap(1, Packet::Finished { grants: 0 }, 40);
        t.wrap(2, Packet::Finished { grants: 0 }, 10);
        assert_eq!(t.next_timer_at(), Some(10 + RETRANSMIT_TIMEOUT_NS));
    }

    /// The frames queued to `outbox` so far, as `(to, frame)`.
    fn frames(outbox: &Outbox<Frame>) -> Vec<(ProcId, Frame)> {
        outbox.sends().iter().map(|(to, _, f)| (*to, f.clone())).collect()
    }

    #[test]
    fn link_counts_what_it_sends_and_charges_assembly_time() {
        let mut t = reliable();
        let mut outbox = Outbox::new();
        let mut link = t.link(&mut outbox, 0);
        // Finished is 1 byte + 4 of sequence number; a heartbeat rides
        // raw, 2 bytes, and arms no timer.
        assert_eq!(link.send(1, Packet::Finished { grants: 0 }), 5 * SEND_PER_BYTE_NS);
        assert_eq!(link.send_unsequenced(2, Packet::Heartbeat), 2 * SEND_PER_BYTE_NS);
        assert_eq!(
            frames(&outbox),
            [
                (1, Frame::Data { seq: 0, packet: Packet::Finished { grants: 0 } }),
                (2, Frame::Raw(Packet::Heartbeat)),
            ]
        );
        assert_eq!(outbox.sends()[0].1, 5, "the wire carries the framed size");
        assert_eq!(t.sent.bytes(PacketKind::Control), 1, "the counts, the payload");
        assert_eq!(t.sent.packets(PacketKind::Recovery), 1);
        assert_eq!(t.next_timer_at(), Some(RETRANSMIT_TIMEOUT_NS));
    }

    #[test]
    fn terminate_keeps_retrying_after_the_run_is_over() {
        let mut t = reliable();
        let mut outbox = Outbox::new();
        let mut link = t.link(&mut outbox, 0);
        link.send(1, Packet::Finished { grants: 0 });
        link.send(2, Packet::Terminate);
        // The node is done and knows the run is over: the stale Finished
        // is abandoned, the Terminate fan-out is not.
        let timeout = RETRANSMIT_TIMEOUT_NS;
        let step = t.finish_step(Step::Done, false, true, 0, &mut outbox);
        assert_eq!(step, Step::Sleep { until: SimTime::from_ns(timeout) });
        let mut outbox = Outbox::new();
        let step = t.finish_step(Step::Done, false, true, timeout, &mut outbox);
        assert!(matches!(step, Step::Continue { busy_ns } if busy_ns > 0));
        assert_eq!(frames(&outbox), [(2, Frame::Data { seq: 0, packet: Packet::Terminate })]);
        // Acknowledged at last: nothing left but the linger window.
        deliver(&mut t, 2, Frame::Ack { cum_seq: 1 });
        let acked = timeout + 50;
        let step = t.finish_step(Step::Done, true, true, acked, &mut Outbox::new());
        assert_eq!(step, Step::Sleep { until: SimTime::from_ns(acked + LINGER_NS) });
    }

    #[test]
    fn block_becomes_sleep_until_the_next_timer() {
        let mut t = reliable();
        let mut outbox = Outbox::new();
        assert_eq!(t.finish_step(Step::Block, false, false, 0, &mut outbox), Step::Block);
        t.link(&mut outbox, 40).send(1, Packet::WireRequest);
        let step = t.finish_step(Step::Block, false, false, 40, &mut outbox);
        assert_eq!(step, Step::Sleep { until: SimTime::from_ns(40 + RETRANSMIT_TIMEOUT_NS) });
        // An owed ack is work: the node continues instead of sleeping.
        assert_eq!(
            deliver(&mut t, 1, Frame::Data { seq: 0, packet: Packet::Finished { grants: 0 } })
                .len(),
            1
        );
        let mut outbox = Outbox::new();
        let step = t.finish_step(Step::Block, true, false, 50, &mut outbox);
        assert_eq!(step, Step::Continue { busy_ns: SEND_PER_BYTE_NS * ACK_BYTES as u64 });
        assert_eq!(frames(&outbox), [(1, Frame::Ack { cum_seq: 1 })]);
        assert_eq!(t.sent.packets(PacketKind::Ack), 1);
        // Without reliability the outcome passes through untouched.
        let mut raw = transport(false);
        raw.link(&mut outbox, 0).send(1, Packet::WireRequest);
        assert_eq!(raw.finish_step(Step::Block, false, false, 0, &mut outbox), Step::Block);
        assert_eq!(raw.finish_step(Step::Done, false, false, 0, &mut outbox), Step::Done);
    }

    #[test]
    fn done_lingers_and_late_traffic_pushes_the_deadline_back() {
        let mut t = reliable();
        let mut outbox = Outbox::new();
        let step = t.finish_step(Step::Done, false, false, 0, &mut outbox);
        assert_eq!(step, Step::Sleep { until: SimTime::from_ns(LINGER_NS) });
        // Woken early with nothing new: the deadline stands.
        let step = t.finish_step(Step::Done, false, false, 400, &mut outbox);
        assert_eq!(step, Step::Sleep { until: SimTime::from_ns(LINGER_NS) });
        // A late retransmission arrives: re-ack it and linger afresh.
        assert!(
            deliver(&mut t, 1, Frame::Data { seq: 0, packet: Packet::Finished { grants: 0 } })
                .len()
                == 1
        );
        let step = t.finish_step(Step::Done, true, false, 600, &mut outbox);
        assert!(matches!(step, Step::Continue { .. }), "the ack is work");
        let step = t.finish_step(Step::Done, false, false, 700, &mut outbox);
        assert_eq!(step, Step::Sleep { until: SimTime::from_ns(600 + LINGER_NS) });
        assert_eq!(
            t.finish_step(Step::Done, false, false, 600 + LINGER_NS, &mut outbox),
            Step::Done
        );
    }

    /// Today's `finish_step` over the scanning oracles: every step
    /// scans all peers for owed acks, due retransmissions and the next
    /// timer.
    fn finish_step_by_scan(
        t: &mut Transport,
        inner: Step,
        had_traffic: bool,
        terminate: bool,
        now_ns: u64,
        outbox: &mut Outbox<Frame>,
    ) -> Step {
        if terminate {
            t.clear_inflight_except_terminate();
        }
        let mut extra = 0u64;
        for (to, cum_seq) in t.take_due_acks() {
            extra += t.transmit(outbox, to, Frame::Ack { cum_seq });
        }
        for (to, seq, _, packet) in t.due_retransmits_by_scan(now_ns) {
            extra += t.transmit(outbox, to, Frame::Data { seq, packet });
        }
        match inner {
            Step::Continue { busy_ns } => Step::Continue { busy_ns: busy_ns + extra },
            Step::Sleep { until } => Step::Sleep { until },
            Step::Block => {
                if extra > 0 {
                    Step::Continue { busy_ns: extra }
                } else if let Some(timer) = t.next_timer_at_by_scan() {
                    Step::Sleep { until: SimTime::from_ns(timer) }
                } else {
                    Step::Block
                }
            }
            Step::Done => {
                if had_traffic || t.linger_until.is_none() {
                    t.linger_until = Some(now_ns + LINGER_NS);
                }
                let deadline = t.linger_until.expect("linger deadline just set");
                if extra > 0 {
                    return Step::Continue { busy_ns: extra };
                }
                if let Some(timer) = t.next_timer_at_by_scan() {
                    return Step::Sleep { until: SimTime::from_ns(timer.max(now_ns + 1)) };
                }
                if now_ns >= deadline {
                    Step::Done
                } else {
                    Step::Sleep { until: SimTime::from_ns(deadline) }
                }
            }
        }
    }

    /// Scripts over node 0 of a 16-node machine, replayed through the
    /// transport and through the scanning oracles: sends to random peers
    /// at rising times, acks with random `cum_seq`, in-order, duplicate
    /// and early data, in-flight clears and step epilogues of every kind.
    /// Both sides must put the same frames on the wire in the same
    /// order, count the same, end each step the same and agree on the
    /// next timer.
    #[test]
    fn the_retry_floor_and_owed_ack_list_decide_as_full_scans_do() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const PEERS: usize = 16;
        let rect = locus_circuit::Rect::new(0, 1, 0, 1);
        let packets = [
            Packet::Terminate,
            Packet::Finished { grants: 0 },
            Packet::WireRequest,
            Packet::NewCoordinator,
            Packet::ReqRmtData { rect },
            Packet::LocData { rect, values: vec![1, 2], response: false },
        ];
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut fast = Transport::new(0, PEERS, true);
            let mut scan = Transport::new(0, PEERS, true);
            // One past the highest sequence number each peer has sent us.
            let mut their_next = [0u32; PEERS];
            let mut now = 0u64;
            for op in 0..400 {
                let at = format!("case {case}, op {op}");
                now += match rng.random_range(0..4) {
                    0 => 0,
                    1 => rng.random_range(1..10_000),
                    2 => rng.random_range(1..2 * RETRANSMIT_TIMEOUT_NS),
                    _ => rng.random_range(1..2 * MAX_TIMEOUT_NS),
                };
                let peer = rng.random_range(1..PEERS);
                let (mut sent_fast, mut sent_scan) = (Outbox::new(), Outbox::new());
                match rng.random_range(0..10) {
                    0..=2 => {
                        let packet = packets[rng.random_range(0..packets.len())].clone();
                        let busy = fast.link(&mut sent_fast, now).send(peer, packet.clone());
                        assert_eq!(busy, scan.link(&mut sent_scan, now).send(peer, packet), "{at}");
                    }
                    3 | 4 => {
                        let cum_seq = rng.random_range(0..=fast.tx[peer].next_seq + 1);
                        let ack = Frame::Ack { cum_seq };
                        assert_eq!(deliver(&mut fast, peer, ack.clone()), []);
                        assert_eq!(deliver(&mut scan, peer, ack), []);
                    }
                    5 | 6 => {
                        let next = their_next[peer];
                        let seq = match rng.random_range(0..3) {
                            0 => next,
                            1 => rng.random_range(0..=next),
                            _ => next + rng.random_range(1..4),
                        };
                        their_next[peer] = next.max(seq + 1);
                        let data = Frame::Data { seq, packet: Packet::Finished { grants: 0 } };
                        let got = deliver(&mut fast, peer, data.clone());
                        assert_eq!(got, deliver(&mut scan, peer, data), "{at}");
                    }
                    7 => {
                        fast.clear_inflight_except_terminate();
                        scan.clear_inflight_except_terminate();
                    }
                    _ => {
                        let inner = match rng.random_range(0..4) {
                            0 => Step::Continue { busy_ns: rng.random_range(0..1_000) },
                            1 => Step::Block,
                            2 => Step::Sleep {
                                until: SimTime::from_ns(now + rng.random_range(0..LINGER_NS)),
                            },
                            _ => Step::Done,
                        };
                        let had_traffic = rng.random_bool(0.5);
                        let terminate = rng.random_range(0..8) == 0;
                        let step =
                            fast.finish_step(inner, had_traffic, terminate, now, &mut sent_fast);
                        let oracle = finish_step_by_scan(
                            &mut scan,
                            inner,
                            had_traffic,
                            terminate,
                            now,
                            &mut sent_scan,
                        );
                        assert_eq!(step, oracle, "{at}");
                    }
                }
                assert_eq!(frames(&sent_fast), frames(&sent_scan), "{at}");
                assert_eq!(fast.stats, scan.stats, "{at}");
                assert_eq!(fast.sent, scan.sent, "{at}");
                // Asking is a scan when the floor is inexact, so ask only
                // sometimes and leave the skip path inexact floors too.
                if rng.random_bool(0.5) {
                    assert_eq!(fast.next_timer_at(), scan.next_timer_at_by_scan(), "{at}");
                }
            }
        }
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = ReliableStats { retransmits: 1, acks_sent: 2, ..Default::default() };
        let b = ReliableStats { retransmits: 3, dup_suppressed: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.retransmits, 4);
        assert_eq!(a.acks_sent, 2);
        assert_eq!(a.dup_suppressed, 4);
    }
}
