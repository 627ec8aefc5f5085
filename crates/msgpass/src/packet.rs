//! Update packet encodings and per-type traffic accounting.
//!
//! The chosen packet structure is the paper's third option (§4.3.1): each
//! update carries "the bounding box of all the changes made within that
//! region, as well as the coordinates of the bounding box being sent".
//! Absolute data cells cost two bytes (`u16` occupancy counts); delta
//! cells cost one byte (changes between updates are small signed values);
//! every packet carries 9 bytes of type + bounding-box coordinates.

use locus_circuit::Rect;
use locus_router::Segment;

/// Per-packet application header: 1 type byte + 4 × u16 bounding box.
pub(crate) const PACKET_OVERHEAD_BYTES: u32 = 9;

/// Wire-format bytes per route segment in a wire-based update packet:
/// orientation/flag byte + start coordinate (2×u16) + extent (u16)
/// (§4.3.1's first packet structure: "coordinates of the start and end
/// points of each horizontal or vertical segment of the wire").
pub(crate) const SEGMENT_BYTES: u32 = 6;

/// One routing event in a wire-based update: the segments that were
/// ripped up (decrement) and the segments that were routed (increment),
/// with the wire-level flag byte of §4.3.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireEvent {
    /// Segments of the previous route, now removed (empty on the first
    /// iteration).
    pub ripped: Vec<Segment>,
    /// Segments of the newly chosen route.
    pub routed: Vec<Segment>,
}

impl WireEvent {
    /// Wire-format size of this event.
    pub(crate) fn bytes(&self) -> u32 {
        1 + SEGMENT_BYTES * (self.ripped.len() + self.routed.len()) as u32
    }
}

/// The messages exchanged between router nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Packet {
    /// Absolute cost-array values for `rect` (owned by the sender).
    /// Emitted by periodic `SendLocData` (to mesh neighbours) and as the
    /// response to `ReqRmtData` (with `response = true`).
    LocData {
        /// Bounding box carried.
        rect: Rect,
        /// Row-major absolute values.
        values: Vec<u16>,
        /// True when answering a `ReqRmtData` request.
        response: bool,
    },
    /// Deltas the sender accumulated against `rect` (owned by the
    /// receiver). Emitted by periodic `SendRmtData` and as the response
    /// to `ReqLocData` (with `response = true`).
    RmtData {
        /// Bounding box carried.
        rect: Rect,
        /// Row-major signed deltas.
        deltas: Vec<i16>,
        /// True when answering a `ReqLocData` request.
        response: bool,
    },
    /// Receiver-initiated request: "owner, send me absolute data for
    /// `rect` of your region".
    ReqRmtData {
        /// Region requested.
        rect: Rect,
    },
    /// Receiver-initiated request from an owner: "send me the deltas you
    /// hold against `rect` of my region".
    ReqLocData {
        /// Region requested.
        rect: Rect,
    },
    /// Wire-based update (§4.3.1 structure 1): the raw routing events
    /// since the last update, as segment lists with routed/ripped flags.
    /// Carries no cost-array values; receivers replay the events.
    WireData {
        /// The routing events, oldest first.
        events: Vec<WireEvent>,
    },
    /// Dynamic distribution (§4.2): a worker asks the assignment
    /// processor for its next wire.
    WireRequest,
    /// Dynamic distribution: the assignment processor hands out a wire,
    /// or `None` when the pool is exhausted.
    WireGrant {
        /// The granted wire id, if any remain.
        wire: Option<u32>,
    },
    /// Control: this node finished routing all its iterations (sent to
    /// the coordinator, node 0).
    Finished,
    /// Control: the coordinator saw every `Finished`; everyone may stop.
    Terminate,
    /// Recovery: liveness beacon. Workers beat to the coordinator, the
    /// coordinator beats back. Sent unsequenced (a lost heartbeat is
    /// repaired by the next one, and a retransmitted heartbeat would be
    /// stale evidence).
    Heartbeat,
    /// Recovery: "my first `progress` assigned wires are durable". The
    /// checkpoint body (the sender's cost-array shard plus per-wire
    /// progress, `bytes` serialized bytes) goes to modelled local stable
    /// store; only this progress report crosses the network.
    Checkpoint {
        /// Wires of the sender's static assignment now checkpointed.
        progress: u32,
        /// Serialized checkpoint size (for accounting).
        bytes: u32,
    },
    /// Recovery: the coordinator hands a dead node's unfinished wires to
    /// a live adopter.
    Reassign {
        /// Wire ids the receiver must route.
        wires: Vec<u32>,
    },
    /// Recovery: the sender has taken over as coordinator after the old
    /// one was presumed dead. Receivers re-aim their termination and
    /// checkpoint traffic and answer with a [`Packet::StatusReport`].
    NewCoordinator,
    /// Recovery: a worker's state summary for a freshly failed-over
    /// coordinator rebuilding its tables.
    StatusReport {
        /// Wires of the sender's static assignment checkpointed so far.
        progress: u32,
        /// Whether the sender has finished all its routing work.
        finished: bool,
    },
}

impl Packet {
    /// Application payload size on the wire in bytes.
    pub fn payload_bytes(&self) -> u32 {
        match self {
            Packet::LocData { values, .. } => PACKET_OVERHEAD_BYTES + 2 * values.len() as u32,
            Packet::RmtData { deltas, .. } => PACKET_OVERHEAD_BYTES + deltas.len() as u32,
            Packet::ReqRmtData { .. } | Packet::ReqLocData { .. } => PACKET_OVERHEAD_BYTES,
            Packet::WireData { events } => {
                PACKET_OVERHEAD_BYTES + events.iter().map(WireEvent::bytes).sum::<u32>()
            }
            Packet::WireRequest => 1,
            Packet::WireGrant { .. } => 5,
            Packet::Finished | Packet::Terminate => 1,
            Packet::Heartbeat => 2,
            Packet::Checkpoint { .. } => 9,
            Packet::Reassign { wires } => 1 + 4 * wires.len() as u32,
            Packet::NewCoordinator => 1,
            Packet::StatusReport { .. } => 6,
        }
    }

    /// The classification bucket of this packet.
    pub(crate) fn kind(&self) -> PacketKind {
        match self {
            Packet::LocData { response: false, .. } => PacketKind::SendLocData,
            Packet::LocData { response: true, .. } => PacketKind::ReqRmtDataResponse,
            Packet::RmtData { response: false, .. } => PacketKind::SendRmtData,
            Packet::RmtData { response: true, .. } => PacketKind::ReqLocDataResponse,
            Packet::ReqRmtData { .. } => PacketKind::ReqRmtData,
            Packet::ReqLocData { .. } => PacketKind::ReqLocData,
            Packet::WireData { .. } => PacketKind::WireData,
            Packet::WireRequest | Packet::WireGrant { .. } => PacketKind::Control,
            Packet::Finished | Packet::Terminate => PacketKind::Control,
            Packet::Heartbeat
            | Packet::Checkpoint { .. }
            | Packet::Reassign { .. }
            | Packet::NewCoordinator
            | Packet::StatusReport { .. } => PacketKind::Recovery,
        }
    }
}

/// Classification of packets for reporting (Figure 3 taxonomy plus the
/// request/response split and termination control traffic).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PacketKind {
    /// Periodic absolute own-region update (sender-initiated).
    SendLocData,
    /// Periodic delta update to an owner (sender-initiated).
    SendRmtData,
    /// Request for a remote owner's data (receiver-initiated).
    ReqRmtData,
    /// Absolute-data response to `ReqRmtData`.
    ReqRmtDataResponse,
    /// Owner's request for a remote processor's deltas.
    ReqLocData,
    /// Delta response to `ReqLocData`.
    ReqLocDataResponse,
    /// Wire-based routing-event update (§4.3.1 structure 1).
    WireData,
    /// Termination protocol traffic.
    Control,
    /// Reliability-layer cumulative acknowledgements (only present when
    /// the end-to-end reliable-delivery protocol is enabled).
    Ack,
    /// Recovery-layer traffic: heartbeats, checkpoint reports, wire
    /// reassignments, coordinator failover (only present when the
    /// checkpoint/restore recovery layer is enabled).
    Recovery,
}

impl PacketKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [PacketKind; 10] = [
        PacketKind::SendLocData,
        PacketKind::SendRmtData,
        PacketKind::ReqRmtData,
        PacketKind::ReqRmtDataResponse,
        PacketKind::ReqLocData,
        PacketKind::ReqLocDataResponse,
        PacketKind::WireData,
        PacketKind::Control,
        PacketKind::Ack,
        PacketKind::Recovery,
    ];

    fn index(self) -> usize {
        match self {
            PacketKind::SendLocData => 0,
            PacketKind::SendRmtData => 1,
            PacketKind::ReqRmtData => 2,
            PacketKind::ReqRmtDataResponse => 3,
            PacketKind::ReqLocData => 4,
            PacketKind::ReqLocDataResponse => 5,
            PacketKind::WireData => 6,
            PacketKind::Control => 7,
            PacketKind::Ack => 8,
            PacketKind::Recovery => 9,
        }
    }
}

/// Number of [`PacketKind`] buckets.
const N_KINDS: usize = PacketKind::ALL.len();

/// Packet and byte counts broken down by [`PacketKind`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketCounts {
    packets: [u64; N_KINDS],
    bytes: [u64; N_KINDS],
}

impl PacketCounts {
    /// Records one sent packet.
    pub(crate) fn record(&mut self, packet: &Packet) {
        let i = packet.kind().index();
        self.packets[i] += 1;
        self.bytes[i] += packet.payload_bytes() as u64;
    }

    /// Records one reliability-layer acknowledgement frame of `bytes`
    /// payload bytes (acks are frames, not [`Packet`]s).
    pub(crate) fn record_ack(&mut self, bytes: u32) {
        let i = PacketKind::Ack.index();
        self.packets[i] += 1;
        self.bytes[i] += bytes as u64;
    }

    /// Packets of `kind` recorded.
    pub fn packets(&self, kind: PacketKind) -> u64 {
        self.packets[kind.index()]
    }

    /// Bytes of `kind` recorded.
    pub fn bytes(&self, kind: PacketKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Total packets.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Merges another counter into this one.
    pub(crate) fn merge(&mut self, other: &PacketCounts) {
        for i in 0..N_KINDS {
            self.packets[i] += other.packets[i];
            self.bytes[i] += other.bytes[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect() -> Rect {
        Rect::new(0, 1, 0, 2)
    }

    #[test]
    fn payload_sizes() {
        let loc = Packet::LocData { rect: rect(), values: vec![0; 6], response: false };
        assert_eq!(loc.payload_bytes(), 9 + 12);
        let rmt = Packet::RmtData { rect: rect(), deltas: vec![0; 6], response: false };
        assert_eq!(rmt.payload_bytes(), 9 + 6);
        assert_eq!(Packet::ReqRmtData { rect: rect() }.payload_bytes(), 9);
        assert_eq!(Packet::Finished.payload_bytes(), 1);
    }

    #[test]
    fn kind_classification_distinguishes_responses() {
        let p = Packet::LocData { rect: rect(), values: vec![], response: true };
        assert_eq!(p.kind(), PacketKind::ReqRmtDataResponse);
        let p = Packet::RmtData { rect: rect(), deltas: vec![], response: true };
        assert_eq!(p.kind(), PacketKind::ReqLocDataResponse);
        assert_eq!(Packet::Terminate.kind(), PacketKind::Control);
    }

    #[test]
    fn wire_data_payload_counts_segments() {
        use locus_router::Segment;
        let ev = WireEvent {
            ripped: vec![Segment::horizontal(0, 0, 5)],
            routed: vec![Segment::horizontal(1, 0, 5), Segment::vertical(5, 0, 1)],
        };
        assert_eq!(ev.bytes(), 1 + 6 * 3);
        let p = Packet::WireData { events: vec![ev] };
        assert_eq!(p.payload_bytes(), 9 + 19);
        assert_eq!(p.kind(), PacketKind::WireData);
    }

    #[test]
    fn recovery_packets_size_and_classify() {
        assert_eq!(Packet::Heartbeat.payload_bytes(), 2);
        assert_eq!(Packet::Checkpoint { progress: 3, bytes: 500 }.payload_bytes(), 9);
        assert_eq!(Packet::Reassign { wires: vec![1, 2, 3] }.payload_bytes(), 1 + 12);
        assert_eq!(Packet::NewCoordinator.payload_bytes(), 1);
        assert_eq!(Packet::StatusReport { progress: 7, finished: true }.payload_bytes(), 6);
        for p in [
            Packet::Heartbeat,
            Packet::Checkpoint { progress: 0, bytes: 0 },
            Packet::Reassign { wires: vec![] },
            Packet::NewCoordinator,
            Packet::StatusReport { progress: 0, finished: false },
        ] {
            assert_eq!(p.kind(), PacketKind::Recovery, "{p:?}");
        }
    }

    #[test]
    fn counts_accumulate_and_merge() {
        let mut a = PacketCounts::default();
        a.record(&Packet::ReqRmtData { rect: rect() });
        a.record(&Packet::ReqRmtData { rect: rect() });
        let mut b = PacketCounts::default();
        b.record(&Packet::Finished);
        a.merge(&b);
        assert_eq!(a.packets(PacketKind::ReqRmtData), 2);
        assert_eq!(a.bytes(PacketKind::ReqRmtData), 18);
        assert_eq!(a.packets(PacketKind::Control), 1);
        assert_eq!(a.total_packets(), 3);
        assert_eq!(a.total_bytes(), 19);
    }
}
