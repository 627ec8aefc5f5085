//! # locus-mesh
//!
//! A discrete-event simulator for a 2-D mesh message-passing machine,
//! re-implementing the documented model of **CBS** (Nowatzyk's message
//! passing cube simulator) as used in Martonosi & Gupta (ICPP 1989) §2.1:
//!
//! * k-ary 2-dimensional mesh with unidirectional channels,
//! * deterministic (dimension-order) wormhole routing,
//! * network contention modelling,
//! * uncontended packet latency `2·ProcessTime + HopTime·(D + L)` for a
//!   packet of `L` bytes travelling `D` hops, with `HopTime = 100 ns` and
//!   `ProcessTime = 2000 ns` to model the Ametek Series 2010.
//!
//! Application code is expressed as [`Node`] actors scheduled by the
//! [`Kernel`]; the message-passing router of `locus-msgpass` is one such
//! actor program. The kernel reports network-traffic and timing
//! statistics ([`NetStats`]) corresponding to the "MBytes Xfrd." and
//! "Time (s)" columns of the paper's tables.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod arbiter;
pub mod config;
pub mod fault;
pub mod kernel;
pub mod node;
pub mod stats;
pub mod time;
pub mod topology;

pub use arbiter::{Arbiter, ResolvedContention, ServiceRequest, WaitStats};
pub use config::MeshConfig;
pub use fault::{FaultPlan, NodeFault};
pub use kernel::{
    Kernel, SimOutcome, HEADER_BYTES, HOP_TIME_NS, PROCESS_TIME_NS, RECV_PER_BYTE_NS,
};
pub use node::{Envelope, Node, Outbox, Step};
pub use stats::NetStats;
pub use time::SimTime;
pub use topology::Topology;
