//! # locus-circuit
//!
//! Standard-cell circuit model for the `locusroute-rs` reproduction of
//! Martonosi & Gupta, *"Tradeoffs in Message Passing and Shared Memory
//! Implementations of a Standard Cell Router"* (ICPP 1989).
//!
//! A standard-cell circuit consists of rows of logic cells separated by
//! horizontal **routing channels**. The router's central data structure —
//! the *cost array* — is indexed by `(channel, grid)` where the vertical
//! dimension is the number of routing channels and the horizontal dimension
//! is the number of routing grids (paper §3, Figure 1).
//!
//! This crate provides:
//!
//! * the coordinate types ([`GridCell`], [`Rect`]) shared by every other
//!   crate in the workspace,
//! * [`Pin`] / [`Wire`] / [`Circuit`] — the netlist the router consumes,
//! * seeded synthetic benchmark generators ([`generate`]) together with
//!   presets ([`presets::bnr_e`], [`presets::mdc`]) matching the published
//!   shapes of the two proprietary benchmark circuits used in the paper,
//! * a plain-text interchange format ([`mod@format`]) so externally produced
//!   circuits can be routed, and
//! * summary statistics ([`stats`]) used for calibration.
//!
//! The original bnrE (Bell-Northern Research) and MDC (University of
//! Toronto Microelectronic Development Centre) netlists are proprietary and
//! unavailable; the generators reproduce their published aggregate shape
//! (wire count, channel/grid dimensions, wire length mix). See `DESIGN.md`
//! §5 for the substitution rationale.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod circuit;
pub mod error;
pub mod format;
pub mod generate;
pub mod geometry;
pub mod presets;
pub mod stats;
pub mod wire;

pub use circuit::Circuit;
pub use error::CircuitError;
pub use generate::{CircuitGenerator, GeneratorConfig, SpanModel};
pub use geometry::{GridCell, Rect};
pub use stats::CircuitStats;
pub use wire::{Pin, Wire, WireId};
