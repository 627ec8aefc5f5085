//! Per-shard cost-array ownership for the real threaded router.
//!
//! The shared truth stays where the paper puts it — one flat array of
//! unlocked `u16` atomics — but every worker additionally **owns** a
//! private [`CostArray`] replica that it alone reads and writes.
//! Evaluation reads the replica (plain `u16` rows summed as slices and
//! the row-slice jog sweep, where the shared array offers one relaxed
//! atomic load per cell, and no cache-line ping-pong), while commits and
//! rip-ups are applied to both the replica and the shared atomics, so the
//! truth is always the merge of every worker's writes.
//!
//! The ownership rules:
//!
//! * a worker's replica = a barrier-time snapshot of the shared array
//!   plus the worker's *own* writes since that snapshot;
//! * cross-worker visibility happens only at iteration barriers, when
//!   every worker refreshes its snapshot ([`ShardWorker::refresh`]) —
//!   within an iteration, other workers' routes are invisible (the
//!   paper's staleness tolerance, now explicit);
//! * nobody ever writes another worker's replica, so evaluation never
//!   waits on a cache line another thread is writing (no false sharing).
//!
//! Under a static wire assignment this makes a P-thread run
//! **deterministic**: every routing decision depends only on the
//! barrier snapshot and the worker's own committed writes, both of
//! which are fixed by the schedule; the shared atomics only ever absorb
//! commutative `+1`s whose matching `−1` (a rip-up in a later
//! iteration) is ordered after them by the barrier.

// Audited atomics (clippy.toml): the paper's unlocked cost array (§3),
// written by relaxed RMWs and read only at the iteration barriers.
#![expect(clippy::disallowed_types)]

use std::sync::atomic::{AtomicU16, Ordering};

use locus_circuit::GridCell;
use locus_router::{CostArray, Route};

/// The shared cost array in atomics; plain `Relaxed` loads and stores —
/// the data-race-free Rust rendering of the paper's unlocked array.
pub(crate) struct AtomicCostArray {
    channels: u16,
    grids: u16,
    cells: Vec<AtomicU16>,
}

impl AtomicCostArray {
    pub(crate) fn new(channels: u16, grids: u16) -> Self {
        let n = channels as usize * grids as usize;
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, || AtomicU16::new(0));
        AtomicCostArray { channels, grids, cells }
    }

    #[inline]
    fn index(&self, cell: GridCell) -> usize {
        cell.channel as usize * self.grids as usize + cell.x as usize
    }

    pub(crate) fn add_route(&self, route: &Route) {
        for &cell in route.cells() {
            self.cells[self.index(cell)].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn remove_route(&self, route: &Route) {
        for &cell in route.cells() {
            // Each wire is ripped up once per iteration, after a barrier
            // that follows its commit, so a cell cannot be decremented
            // past zero. The saturating RMW guards that invariant anyway:
            // a plain `fetch_sub` would wrap a zero cell to 65535 and
            // poison every later cost evaluation, where this keeps it
            // pinned at zero, and debug builds flag the occurrence.
            let prev = self.cells[self.index(cell)]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)))
                .expect("saturating decrement cannot fail");
            debug_assert!(
                prev != 0,
                "rip-up underflow: channel {} x {} decremented past zero",
                cell.channel,
                cell.x
            );
        }
    }
}

/// One worker's owned shard view: a private replica over the shared
/// atomic truth. See [module docs](self).
pub(crate) struct ShardWorker {
    /// The worker-owned replica; evaluation reads this (fast spans).
    pub(crate) local: CostArray,
}

impl ShardWorker {
    pub(crate) fn new(channels: u16, grids: u16) -> Self {
        ShardWorker { local: CostArray::new(channels, grids) }
    }

    /// Re-snapshots the replica from the shared truth (called between
    /// the iteration barriers, when no writes are in flight).
    pub(crate) fn refresh(&mut self, shared: &AtomicCostArray) {
        for c in 0..shared.channels {
            for x in 0..shared.grids {
                let cell = GridCell::new(c, x);
                self.local.set(cell, shared.cells[shared.index(cell)].load(Ordering::Relaxed));
            }
        }
    }

    /// Commits `route`: the replica and the shared truth both gain it.
    /// Returns the route's cost against the replica just before it was
    /// added.
    pub(crate) fn commit(&mut self, shared: &AtomicCostArray, route: &Route) -> u64 {
        let before = self.local.commit_route(route);
        shared.add_route(route);
        before
    }

    /// Rips `route` up from both the replica and the shared truth. The
    /// replica saturates at zero if it never saw the matching commit
    /// (possible only across refreshes, mirroring replica semantics in
    /// the message-passing engine).
    pub(crate) fn rip_up(&mut self, shared: &AtomicCostArray, route: &Route) {
        self.local.remove_route(route);
        shared.remove_route(route);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_router::{CostView, Segment};

    fn load(shared: &AtomicCostArray, cell: GridCell) -> u16 {
        shared.cells[shared.index(cell)].load(Ordering::Relaxed)
    }

    fn route(c: u16, x1: u16, x2: u16) -> Route {
        Route::from_segments(vec![Segment::horizontal(c, x1, x2)])
    }

    #[test]
    fn commit_and_ripup_mirror_into_both_arrays() {
        let shared = AtomicCostArray::new(4, 10);
        let mut w = ShardWorker::new(4, 10);
        let r = route(1, 2, 6);
        assert_eq!(w.commit(&shared, &r), 0, "the cost before the commit");
        for &cell in r.cells() {
            assert_eq!(w.local.get(cell), 1);
            assert_eq!(load(&shared, cell), 1);
        }
        w.rip_up(&shared, &r);
        assert!(w.local.is_zero());
        for &cell in r.cells() {
            assert_eq!(load(&shared, cell), 0);
        }
    }

    #[test]
    fn refresh_pulls_other_workers_routes() {
        let shared = AtomicCostArray::new(4, 10);
        let mut a = ShardWorker::new(4, 10);
        let mut b = ShardWorker::new(4, 10);
        a.commit(&shared, &route(0, 0, 3));
        b.commit(&shared, &route(0, 2, 5));
        // Before refresh, each replica only has its own route.
        assert_eq!(a.local.get(GridCell::new(0, 5)), 0);
        a.refresh(&shared);
        // After refresh, the replica equals the shared truth.
        assert_eq!(a.local.get(GridCell::new(0, 2)), 2);
        assert_eq!(a.local.get(GridCell::new(0, 5)), 1);
        assert_eq!(a.local.horizontal_cost(0, 0, 9), 2 + 2 + 2 + 1 + 1);
        // A commit prices the route against the refreshed replica.
        assert_eq!(a.commit(&shared, &route(0, 3, 5)), 2 + 1 + 1);
    }

    #[test]
    fn replica_spans_match_shared_truth_after_mixed_traffic() {
        let shared = AtomicCostArray::new(6, 16);
        let mut a = ShardWorker::new(6, 16);
        let mut b = ShardWorker::new(6, 16);
        for i in 0..8u16 {
            a.commit(&shared, &route(i % 6, i, i + 4));
            b.commit(&shared, &route((i + 3) % 6, i, i + 7));
        }
        a.refresh(&shared);
        for c in 0..6u16 {
            let naive: u64 = (0..16u16).map(|x| load(&shared, GridCell::new(c, x)) as u64).sum();
            assert_eq!(a.local.horizontal_cost(c, 0, 15), naive, "channel {c}");
        }
    }
}
