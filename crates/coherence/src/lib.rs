//! # locus-coherence
//!
//! A Write-Back-with-Invalidate (WBI) cache-coherence and bus-traffic
//! model in the style of Archibald & Baer (ACM TOCS 1986), as used for
//! the shared-memory side of Martonosi & Gupta (ICPP 1989) §5.2.
//!
//! The model consumes **shared-data reference traces** (the output of the
//! Tango-style tracer in `locus-shmem`): a time-ordered list of
//! `(time, processor, address, read|write)` records. Caches are infinite
//! (the paper's stated assumption), so all traffic is coherence traffic:
//!
//! 1. a processor's first access to a line misses and fetches it
//!    (`line_size` bytes on the bus);
//! 2. the first write to a clean line puts a 4-byte word write on the
//!    bus and invalidates every other copy;
//! 3. a processor re-accessing a line that was invalidated refetches it
//!    (`line_size` bytes) — the dominant term under write churn, which is
//!    why the paper measures >80% of bytes as write-caused.
//!
//! [`analyze::traffic_by_line_size`] reproduces Table 3's line-size sweep.
//!
//! The WBI bus is one backend of several: the [`model`] module holds the
//! [`model::MemoryModel`] trait and a name→constructor registry with the
//! snooped bus (`bus-wbi`, `bus-wt`), a directory-based MSI protocol
//! (`directory`), and a directoryless shared LLC (`dls`), all priced over
//! the mesh machine with FIFO and criticality-aware contention. The sweep
//! and the three backends with WBI line semantics replay a trace through
//! one loop; they differ only in what they price per transaction.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod analyze;
pub mod model;
pub mod protocol;
mod table;
pub mod trace;

pub use analyze::{traffic_by_backend, traffic_by_line_size};
pub use model::{
    build_memory_model, memory_registry, MemoryConfig, MemoryModel, MemoryModelEntry,
    MemoryOutcome, ProcCounts,
};
pub use protocol::TrafficStats;
pub use trace::{BurstWriter, Criticality, MemRef, RefKind, Trace, TraceRecorder};
