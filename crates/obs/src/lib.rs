//! # locus-obs — unified observability for the locusroute simulators
//!
//! Every simulator layer (mesh kernel, message-passing nodes, shared-
//! memory emulator and threaded executor, coherence protocol, sequential
//! router) emits the same typed [`Event`]s through the same [`Obs`]
//! handle. One vocabulary, one handle, one buffer, three exporters:
//!
//! * [`Obs`] — what a layer holds: off (instrumentation costs one
//!   predictable branch per site and never constructs an event), or
//!   recording into the caller's [`SharedSink`] on behalf of a node.
//! * [`SharedSink`] — clonable `Arc<Mutex<RingBufferSink>>` the caller
//!   creates, hands out through `Obs::to`, and reads back after the run.
//! * [`RingBufferSink`] — the bounded in-memory buffer behind it, feeding
//!   a [`Metrics`] registry (named counters + log₂ histograms), which
//!   `SharedSink::metrics_snapshot` copies out.
//!
//! Exporters ([`export`]): Chrome `chrome://tracing` trace-event JSON,
//! flat metrics JSON, and an ASCII per-node timeline — all hand-rolled
//! (the workspace omits `serde`, DESIGN §7).
//!
//! ```
//! use locus_obs::{Event, EventKind, RingBufferSink};
//!
//! let mut sink = RingBufferSink::new();
//! sink.record(Event {
//!     at_ns: 125,
//!     node: 0,
//!     kind: EventKind::PacketSent { dst: 1, payload_bytes: 40, wire_bytes: 44, hops: 2 },
//! });
//! assert_eq!(sink.metrics().counter("bytes_sent"), 40);
//! let trace = locus_obs::export::chrome_trace(&sink.to_vec());
//! locus_obs::export::validate_json(&trace).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod sink;

pub use event::{Event, EventKind, FaultKind};
pub use metrics::{Histogram, Metrics};
pub use sink::{Obs, RingBufferSink, SharedSink};
