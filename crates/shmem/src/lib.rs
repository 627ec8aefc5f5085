//! # locus-shmem
//!
//! The shared-memory implementation of LocusRoute (Martonosi & Gupta,
//! ICPP 1989 §3) plus the Tango-style tracing apparatus of §2.2.
//!
//! Two execution engines are provided:
//!
//! * [`ShmemEmulator`] — a **deterministic concurrency emulator**. Logical
//!   processors are multiplexed over one real thread with per-processor
//!   logical clocks, exactly as Tango multiplexed processes on a
//!   uniprocessor. A processor *evaluates* a wire against the shared cost
//!   array as of the evaluation instant but *commits* its increments only
//!   when its modelled routing time elapses — reproducing the staleness
//!   window ("the processors do not know about the work other processors
//!   are doing simultaneously", §1) that degrades quality as P grows.
//!   With tracing enabled it records every shared-data reference
//!   (time, processor, address, read/write) for the coherence model in
//!   `locus-coherence`. Used for every table value.
//! * [`ThreadedRouter`] — a **real multithreaded router**: the shared cost
//!   array lives in atomics, written without locks as in the original
//!   ("accesses to the cost array are not locked", §3), and each thread
//!   evaluates against a private replica refreshed at the iteration
//!   barriers, with a distributed-loop dynamic scheduler or a static
//!   assignment. Used to demonstrate genuine wall-clock speedup; never
//!   for table values (thread interleavings are nondeterministic), and it
//!   records no trace.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub mod config;
pub mod emul;
pub mod parallel;
pub(crate) mod shard;

pub use config::{Scheduling, ShmemConfig};
pub use emul::{ShmemEmulator, ShmemOutcome};
pub use parallel::{ThreadedOutcome, ThreadedRouter};

use locus_circuit::GridCell;

/// Byte address of a cost-array cell in the shared region (`u16` cells,
/// row-major) — the address stream the Tango traces record.
#[inline]
pub fn cell_addr(channel: u16, x: u16, grids: u16) -> u32 {
    (channel as u32 * grids as u32 + x as u32) * 2
}

/// The cost-array cell at trace byte address `addr`: the inverse of
/// [`cell_addr`].
pub fn addr_cell(addr: u32, grids: u16) -> GridCell {
    let slot = addr / 2;
    GridCell::new((slot / grids as u32) as u16, (slot % grids as u32) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_addresses_are_dense_u16_slots() {
        assert_eq!(cell_addr(0, 0, 341), 0);
        assert_eq!(cell_addr(0, 1, 341), 2);
        assert_eq!(cell_addr(1, 0, 341), 682);
        assert_eq!(cell_addr(2, 5, 341), (2 * 341 + 5) * 2);
    }
}
