//! # locus-analysis
//!
//! Race-and-staleness analysis for the routing engines:
//!
//! * **Race detection** ([`race`]) — replayed over the Tango reference
//!   traces the shared-memory engines record
//!   ([`locus_coherence::Trace`]). The routers' only synchronization is
//!   the inter-iteration barrier, so an access happens-before another
//!   exactly when its barrier epoch is earlier, and every
//!   cross-processor conflicting access pair inside one epoch is a data
//!   race — exactly the races the paper *chooses* to admit by leaving
//!   the cost array unlocked (§3).
//! * **Race classification** ([`classify`]) — each detected pair is
//!   replayed: write/write pairs are checked for commuting increments,
//!   read/write pairs re-run the reading wire's two-bend evaluation
//!   under both access orders. Races that cannot change a routing
//!   decision are *benign*; the rest are *quality-affecting* — the
//!   mechanism behind the paper's "slightly stale data" quality loss.
//! * **Replica audits** ([`audit_staleness`]) — the message-passing
//!   engines' analogue: a run whose nodes periodically diff their
//!   replica against ground truth, leaving the snapshots on
//!   [`locus_msgpass::MsgPassOutcome::replica_audits`].
//!
//! [`harness`] ties them to named engines (`sequential`, `shmem-emul`,
//! `shmem-threads`, `msgpass-*`); `locus-experiments analyze` turns its
//! results into a report like every other experiment.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod classify;
pub mod harness;
pub mod race;

pub use classify::RaceClass;
pub use harness::{analyze_engine, audit_staleness, AnalysisReport};
pub use race::detect;
