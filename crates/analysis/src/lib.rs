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
//!
//! The crate analyses records and runs no engine: `locus-experiments
//! analyze` runs the engine it names, with a trace for the shared-memory
//! engines, and passes the trace to [`detect`] and
//! [`classify::classify_races`]. The message-passing engines' analogue,
//! replica staleness, needs no replay: a run with replica audits on
//! leaves its snapshots on the outcome, and the experiment folds them
//! into histograms itself.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod classify;
pub mod race;

pub use classify::RaceClass;
pub use race::detect;
