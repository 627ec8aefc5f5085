//! # locus-analysis
//!
//! Race-and-staleness analysis for the routing engines. Three pillars:
//!
//! * **Race detection** ([`race`]) — a FastTrack-style
//!   vector-clock detector replayed over the Tango reference traces the
//!   shared-memory engines record ([`locus_coherence::Trace`]). The
//!   routers' only synchronization is the inter-iteration barrier, so
//!   every cross-processor conflicting access pair inside one barrier
//!   epoch is a data race — exactly the races the paper *chooses* to
//!   admit by leaving the cost array unlocked (§3).
//! * **Race classification** ([`classify`]) — each detected pair is
//!   replayed: write/write pairs are checked for commuting increments,
//!   read/write pairs re-run the reading wire's two-bend evaluation
//!   under both access orders. Races that cannot change a routing
//!   decision are *benign*; the rest are *quality-affecting* — the
//!   mechanism behind the paper's "slightly stale data" quality loss.
//! * **Replica staleness** ([`staleness`]) — the message-passing
//!   engines' analogue: periodic audits diff each node's replica
//!   against ground truth ([`locus_msgpass::ReplicaSnapshot`]) and fold
//!   into cells × age staleness histograms.
//!
//! [`harness`] ties the pillars to named engines (`sequential`,
//! `shmem-emul`, `shmem-threads`, `msgpass-*`); `locus-experiments
//! analyze` turns its results into a report like every other experiment.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod classify;
pub mod harness;
pub mod race;
pub mod staleness;
mod vclock;

pub use classify::RaceClass;
pub use harness::{analyze_engine, audit_staleness, AnalysisReport};
pub use race::detect;
pub use staleness::StalenessReport;
