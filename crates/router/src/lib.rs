//! # locus-router
//!
//! The LocusRoute routing core, re-implemented from the description in
//! Martonosi & Gupta (ICPP 1989) §3 and the LocusRoute references it
//! summarizes (Rose, DAC'88 / PPEALS'88).
//!
//! LocusRoute is a global router for standard cells. Its central data
//! structure is the **cost array**: one cell per `(channel, grid-column)`
//! recording how many wires currently run through that position. Each wire
//! is routed along the candidate path with the minimal sum of cost-array
//! entries, chosen from the *locus* of two-bend routes between its pins.
//! Several **iterations** are performed; before re-routing a wire, its
//! previous route is *ripped up* (cost array decremented along its path).
//!
//! The crate provides:
//!
//! * [`CostArray`] and the [`CostView`] abstraction (so the shared-memory
//!   crate can instrument reads and the message-passing crate can route
//!   against per-processor replicas),
//! * [`Route`]/[`twobend`] — two-bend candidate enumeration and evaluation,
//! * [`SequentialRouter`] — the reference single-processor router,
//! * [`engine`] — the shared execution core: the [`IterationDriver`]
//!   ledger every engine routes through, and the [`EngineRun`] every
//!   engine's run reduces to,
//! * [`QualityMetrics`] — circuit height and occupancy factor (§3),
//! * [`RegionMap`] — division of the cost array into per-processor owned
//!   regions (§4.1, Figure 2),
//! * [`mod@assign`] — wire-assignment strategies: round-robin and the
//!   locality/`ThresholdCost` hybrid (§4.2),
//! * [`locality`] — the §5.3.3 locality measure, and
//! * [`render`] — ASCII renderings of Figures 1 and 2.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod assign;
pub mod cost_array;
pub mod engine;
pub mod locality;
pub mod params;
pub mod quality;
pub mod region;
pub mod render;
pub mod route;
pub mod router;
pub mod segment;
pub mod twobend;
pub mod work;

pub use assign::{assign, Assignment, AssignmentStrategy};
pub use cost_array::{CostArray, CostView, PrefixStats};
pub use engine::{EngineRun, IterationDriver, WireFeed};
pub use locality::LocalityMeasure;
pub use params::RouterParams;
pub use quality::QualityMetrics;
pub use region::{mesh_dims, ProcId, RegionMap};
pub use route::{Route, Segment};
pub use router::{EvalScratch, RouteOutcome, SequentialRouter};
pub use work::WorkStats;
