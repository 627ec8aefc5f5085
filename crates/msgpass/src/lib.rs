//! # locus-msgpass
//!
//! The message-passing implementation of LocusRoute — the primary
//! contribution of Martonosi & Gupta (ICPP 1989) §4 — executed on the
//! CBS-style mesh simulator of `locus-mesh`.
//!
//! Every processor holds a **full replica** of the cost array but *owns*
//! one region of it ([`locus_router::RegionMap`], §4.1). Wires are
//! statically assigned (round robin or locality/`ThresholdCost`, §4.2) and
//! each processor routes its wires against its — possibly stale — replica.
//! Replicas are reconciled by explicit **update packets** (§4.3):
//!
//! | transaction  | initiated by | carries |
//! |--------------|--------------|---------|
//! | `SendLocData`| sender (owner)  | absolute values of the owner's region (sent to N/S/E/W neighbours) |
//! | `SendRmtData`| sender (non-owner) | deltas the sender made to someone else's region |
//! | `ReqRmtData` | receiver (non-owner) | request: "send me your region" → answered with absolute data |
//! | `ReqLocData` | receiver (owner)  | request: "send me your deltas to my region" → answered with deltas |
//!
//! Updates carry the **bounding box of changes** scanned from a per-node
//! **delta array** ([`DeltaArray`]); rip-up (−1) and re-route (+1) cancel
//! in the delta array before sending, which is why explicit updates move
//! orders of magnitude fewer bytes than cache-coherence traffic (§5.2).
//!
//! Receiver-initiated strategies come in **blocking** and **non-blocking**
//! variants (§4.3.3). Frequencies of all four transaction types are set
//! by [`UpdateSchedule`]; [`run_msgpass`] executes a full configuration
//! and returns the paper's metrics (circuit height, occupancy factor,
//! MBytes transferred, execution time).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod chaos;
pub mod config;
pub mod delta;
mod node;
pub mod packet;
mod recovery;
pub mod reliable;
pub mod schedule;
pub mod sim;
mod update;

pub use config::{MsgPassConfig, PacketStructure, RecoveryConfig, WireSource};
pub use delta::DeltaArray;
pub use node::ReplicaSnapshot;
pub use packet::{Packet, PacketCounts, PacketKind, WireEvent};
pub use recovery::RecoveryStats;
pub use reliable::ReliableStats;
pub use schedule::UpdateSchedule;
pub use sim::{
    run_msgpass, run_msgpass_observed, run_msgpass_with_mesh, DegradedKind, DegradedReason,
    MsgPassOutcome,
};
