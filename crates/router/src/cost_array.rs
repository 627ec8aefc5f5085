//! The cost array: LocusRoute's central data structure.
//!
//! "LocusRoute's central data structure is a cost array that keeps a record
//! of the number of wires running through each routing grid of the circuit.
//! The vertical dimension of the array is the number of routing channels
//! [...] and the horizontal dimension is the number of routing grids"
//! (paper §3, Figure 1).
//!
//! Candidate evaluation costs routes by *span queries*: sums along a row
//! or column interval. [`CostArray`] is nothing but its cells, row-major:
//! a horizontal span is the sum of a contiguous `u16` slice (which the
//! compiler vectorizes), a vertical span one cell from each of the few
//! channels a feedthrough crosses, a channel's track count its row's
//! maximum. Writes store cells and keep no other state, so there is
//! nothing to invalidate; on arrays this small (10 × 341 on bnrE) cached
//! prefix sums cost more on the write path than they save on reads
//! (DESIGN §6c has the measurement). Instrumented views keep the per-cell
//! default implementations so their reference traces stay byte-identical
//! to a cell-by-cell evaluator.

use std::cell::Cell;

use locus_circuit::{GridCell, Rect};

use crate::route::Route;

/// Read access to cost-array state.
///
/// Route evaluation is generic over this trait so the same two-bend
/// evaluator serves three masters:
///
/// * the sequential router (reads the one true array),
/// * the shared-memory emulator (reads the shared array, through an
///   instrumented view that records a Tango-style reference trace when
///   tracing), and
/// * the message-passing nodes (read their possibly stale local replica).
pub trait CostView {
    /// Number of channels (rows).
    fn channels(&self) -> u16;
    /// Number of grid columns.
    fn grids(&self) -> u16;
    /// Current cost at `cell`.
    fn cost_at(&self, cell: GridCell) -> u32;

    /// Sum of costs along a route (each covered cell counted once).
    fn route_cost(&self, route: &Route) -> u64 {
        route.cells().iter().map(|&c| self.cost_at(c) as u64).sum()
    }

    /// Sum of costs over `(channel, x)` for `x` in `x_lo..=x_hi`.
    ///
    /// The default reads the cells one by one in ascending `x` order, so
    /// a view that instruments only [`Self::cost_at`] observes exactly the
    /// reference sequence a cell-by-cell evaluator would produce. A view
    /// that instruments spans (the shmem emulator's traced view records
    /// the cells as one run of addresses) must record them in that order.
    /// [`CostArray`] overrides this with a sum over the row slice.
    fn horizontal_cost(&self, channel: u16, x_lo: u16, x_hi: u16) -> u64 {
        (x_lo..=x_hi).map(|x| self.cost_at(GridCell::new(channel, x)) as u64).sum()
    }

    /// Sum of costs over `(c, x)` for `c` in `c_lo..=c_hi`.
    ///
    /// Default reads cells in ascending channel order (see
    /// [`Self::horizontal_cost`] for why, and for what a view that
    /// instruments spans must record). [`CostArray`] keeps this: a
    /// feedthrough crosses two or three channels, one cell in each.
    fn vertical_cost(&self, x: u16, c_lo: u16, c_hi: u16) -> u64 {
        (c_lo..=c_hi).map(|c| self.cost_at(GridCell::new(c, x)) as u64).sum()
    }

    /// Whether span queries are plain arithmetic with no per-read side
    /// effects. Enables the incremental HVH jog sweep in
    /// [`crate::twobend::best_route`], which replaces repeated span
    /// queries with O(1) running updates. Instrumented views, whether
    /// they record cells or whole spans, must keep the default `false`:
    /// the sweep queries every candidate's spans, so the recorded reads
    /// are every cell each candidate costs.
    fn fast_spans(&self) -> bool {
        false
    }
}

/// What is left of the prefix caches' counters, kept only because
/// `benchmark/src/probes.rs` reads [`CostArray::prefix_stats`] for its
/// `router.prefix_hit_ratio` and a builder PR may not edit `benchmark/`.
/// ROADMAP item 12 lists both for deletion by the next benchmark PR.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Always zero: nothing is cached, so nothing hits.
    pub hits: u64,
    /// Horizontal span sums computed from the cells.
    pub rebuilds: u64,
    /// Always zero.
    pub patches: u64,
    /// Always zero.
    pub invalidations: u64,
    /// Always zero.
    pub fallbacks: u64,
}

/// A dense `channels × grids` array of wire-occupancy counts.
///
/// Values are `u16`: even a pathological routing never stacks anywhere
/// near 65 535 wires on one grid cell for circuits of this class; the
/// debug-mode range check on every signed write would catch overflow
/// regardless.
///
/// Equality considers only the dimensions and the cell values.
#[derive(Clone, Debug)]
pub struct CostArray {
    channels: u16,
    grids: u16,
    cells: Vec<u16>,
    /// Horizontal span sums answered so far; see [`Self::prefix_stats`].
    span_sums: Cell<u64>,
}

impl PartialEq for CostArray {
    fn eq(&self, other: &Self) -> bool {
        self.channels == other.channels && self.grids == other.grids && self.cells == other.cells
    }
}

impl Eq for CostArray {}

/// `old + delta`, saturating at zero: every signed write goes through
/// here. Saturation mirrors the paper's tolerance of stale data in the
/// message-passing version: a replica can receive a decrement for a route
/// increment it never saw. The owner's authoritative copy never saturates
/// in a correct execution.
#[inline]
fn saturating(old: u16, delta: i32) -> u16 {
    let v = (old as i32 + delta).max(0);
    debug_assert!(v <= u16::MAX as i32, "cost cell overflows u16: {old} + {delta}");
    v as u16
}

impl CostArray {
    /// Creates a zeroed array for a `channels × grids` surface.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(channels: u16, grids: u16) -> Self {
        assert!(channels > 0 && grids > 0, "cost array dimensions must be nonzero");
        CostArray {
            channels,
            grids,
            cells: vec![0; channels as usize * grids as usize],
            span_sums: Cell::new(0),
        }
    }

    /// Flat index of `cell`, row(channel)-major.
    #[inline]
    fn index(&self, cell: GridCell) -> usize {
        debug_assert!(cell.channel < self.channels && cell.x < self.grids, "{cell} out of range");
        cell.channel as usize * self.grids as usize + cell.x as usize
    }

    /// The cells of channel row `c`.
    #[inline]
    fn row(&self, c: u16) -> &[u16] {
        let g = self.grids as usize;
        &self.cells[c as usize * g..(c as usize + 1) * g]
    }

    /// The cells `x_lo..x_lo + width` of channel row `c`, for writing.
    #[inline]
    fn row_span_mut(&mut self, c: u16, x_lo: u16, width: usize) -> &mut [u16] {
        let first = c as usize * self.grids as usize + x_lo as usize;
        &mut self.cells[first..first + width]
    }

    /// Current value at `cell`.
    #[inline]
    pub fn get(&self, cell: GridCell) -> u16 {
        self.cells[self.index(cell)]
    }

    /// Sets `cell` to `value` (used when installing update packets).
    #[inline]
    pub fn set(&mut self, cell: GridCell, value: u16) {
        let i = self.index(cell);
        self.cells[i] = value;
    }

    /// Adds a (possibly negative) delta to `cell`, saturating at zero.
    #[inline]
    pub fn add(&mut self, cell: GridCell, delta: i32) {
        let i = self.index(cell);
        self.cells[i] = saturating(self.cells[i], delta);
    }

    /// Adds `delta` to every cell in `cells`, saturating at zero — the
    /// twin of [`Self::add_route`]/[`Self::remove_route`] for callers that
    /// hold a deduplicated cell list instead of a [`Route`].
    pub fn apply_cells(&mut self, cells: &[GridCell], delta: i32) {
        for &cell in cells {
            self.add(cell, delta);
        }
    }

    /// Increments every cell of `route` by one (the wire is *routed*).
    pub fn add_route(&mut self, route: &Route) {
        self.apply_cells(route.cells(), 1);
    }

    /// Decrements every cell of `route` by one (the wire is *ripped up*).
    pub fn remove_route(&mut self, route: &Route) {
        self.apply_cells(route.cells(), -1);
    }

    /// Maximum value in channel row `c` — the number of routing tracks
    /// the channel requires (§3).
    pub fn channel_tracks(&self, c: u16) -> u16 {
        self.row(c).iter().copied().max().unwrap_or(0)
    }

    /// Sum over channels of [`Self::channel_tracks`] — the **circuit
    /// height** quality measure (§3).
    pub fn circuit_height(&self) -> u64 {
        (0..self.channels).map(|c| self.channel_tracks(c) as u64).sum()
    }

    /// Sum of every cell (used by conservation tests: equals the total
    /// routed cell coverage).
    pub fn total(&self) -> u64 {
        self.cells.iter().map(|&v| v as u64).sum()
    }

    /// Whether every cell is zero.
    pub fn is_zero(&self) -> bool {
        self.cells.iter().all(|&v| v == 0)
    }

    /// The benchmark's compatibility method (see [`PrefixStats`]): the
    /// number of horizontal span sums under `rebuilds`, every other field
    /// zero, so `router.prefix_hit_ratio` reads "0 hits of N lookups".
    pub fn prefix_stats(&self) -> PrefixStats {
        PrefixStats { rebuilds: self.span_sums.get(), ..PrefixStats::default() }
    }

    /// Copies the values inside `rect` into a fresh vector, row-major
    /// within the rectangle (the payload of a `SendLocData` update).
    pub fn extract(&self, rect: Rect) -> Vec<u16> {
        let mut out = Vec::with_capacity(rect.area() as usize);
        for c in rect.c_lo..=rect.c_hi {
            out.extend_from_slice(&self.row(c)[rect.x_lo as usize..=rect.x_hi as usize]);
        }
        out
    }

    /// Overwrites the values inside `rect` from `values` (installing a
    /// `SendLocData`/`ReqRmtData`-response payload).
    ///
    /// # Panics
    /// Panics if `values.len() != rect.area()`.
    pub fn install(&mut self, rect: Rect, values: &[u16]) {
        assert_eq!(values.len() as u64, rect.area(), "payload size mismatch for {rect}");
        let width = rect.width() as usize;
        for (c, row) in (rect.c_lo..=rect.c_hi).zip(values.chunks_exact(width)) {
            self.row_span_mut(c, rect.x_lo, width).copy_from_slice(row);
        }
    }

    /// Applies signed deltas to the values inside `rect`, saturating at
    /// zero like [`Self::add`] (installing a `SendRmtData` payload).
    ///
    /// # Panics
    /// Panics if `deltas.len() != rect.area()`.
    pub fn apply_deltas(&mut self, rect: Rect, deltas: &[i16]) {
        assert_eq!(deltas.len() as u64, rect.area(), "payload size mismatch for {rect}");
        let width = rect.width() as usize;
        for (c, row) in (rect.c_lo..=rect.c_hi).zip(deltas.chunks_exact(width)) {
            for (v, &d) in self.row_span_mut(c, rect.x_lo, width).iter_mut().zip(row) {
                *v = saturating(*v, d as i32);
            }
        }
    }

    /// Sum over every cell of `|self − other|`: how far two views of one
    /// surface are apart.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn abs_difference(&self, other: &CostArray) -> u64 {
        assert_eq!(
            (self.channels, self.grids),
            (other.channels, other.grids),
            "cost arrays of different surfaces"
        );
        self.cells.iter().zip(&other.cells).map(|(&a, &b)| a.abs_diff(b) as u64).sum()
    }
}

impl CostView for CostArray {
    fn channels(&self) -> u16 {
        self.channels
    }
    fn grids(&self) -> u16 {
        self.grids
    }
    #[inline]
    fn cost_at(&self, cell: GridCell) -> u32 {
        self.get(cell) as u32
    }
    #[inline]
    fn horizontal_cost(&self, channel: u16, x_lo: u16, x_hi: u16) -> u64 {
        debug_assert!(x_lo <= x_hi && x_hi < self.grids);
        self.span_sums.set(self.span_sums.get() + 1);
        self.row(channel)[x_lo as usize..=x_hi as usize].iter().map(|&v| v as u64).sum()
    }
    fn fast_spans(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{Route, Segment};

    fn cell(c: u16, x: u16) -> GridCell {
        GridCell::new(c, x)
    }

    #[test]
    fn new_array_is_zero() {
        let a = CostArray::new(4, 10);
        assert!(a.is_zero());
        assert_eq!(a.circuit_height(), 0);
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn add_and_remove_route_are_inverses() {
        let mut a = CostArray::new(4, 10);
        let r = Route::from_segments(vec![
            Segment::horizontal(1, 2, 6),
            Segment::vertical(6, 1, 3),
            Segment::horizontal(3, 6, 8),
        ]);
        a.add_route(&r);
        assert_eq!(a.total(), r.cells().len() as u64);
        assert_eq!(a.get(cell(1, 2)), 1);
        assert_eq!(a.get(cell(2, 6)), 1);
        a.remove_route(&r);
        assert!(a.is_zero());
    }

    #[test]
    fn corner_cells_counted_once() {
        let mut a = CostArray::new(4, 10);
        let r =
            Route::from_segments(vec![Segment::horizontal(1, 2, 6), Segment::vertical(6, 1, 3)]);
        a.add_route(&r);
        // (1,6) is covered by both segments but must be incremented once.
        assert_eq!(a.get(cell(1, 6)), 1);
    }

    #[test]
    fn apply_cells_matches_route_application() {
        let mut a = CostArray::new(4, 10);
        let r =
            Route::from_segments(vec![Segment::horizontal(1, 2, 6), Segment::vertical(6, 1, 3)]);
        let mut b = CostArray::new(4, 10);
        a.add_route(&r);
        b.apply_cells(r.cells(), 1);
        assert_eq!(a, b);
        b.apply_cells(r.cells(), -1);
        assert!(b.is_zero());
    }

    #[test]
    fn channel_tracks_and_height() {
        let mut a = CostArray::new(3, 8);
        a.set(cell(0, 1), 2);
        a.set(cell(0, 5), 7);
        a.set(cell(2, 0), 3);
        assert_eq!(a.channel_tracks(0), 7);
        assert_eq!(a.channel_tracks(1), 0);
        assert_eq!(a.channel_tracks(2), 3);
        assert_eq!(a.circuit_height(), 10);
    }

    #[test]
    fn channel_tracks_agrees_with_naive_scan() {
        // The row maximum must match a cell-by-cell scan through arbitrary
        // interleavings of writes and queries.
        let mut a = CostArray::new(3, 16);
        for step in 0u16..60 {
            let c = step % 3;
            let x = (step * 7) % 16;
            a.set(cell(c, x), (step * 5) % 9);
            let _ = a.channel_tracks((step + 1) % 3); // interleave queries
            for row in 0..3u16 {
                let naive = (0..16).map(|x| a.get(cell(row, x))).max().unwrap();
                assert_eq!(a.channel_tracks(row), naive, "row {row} after step {step}");
            }
            let naive_height: u64 =
                (0..3).map(|r| (0..16).map(|x| a.get(cell(r, x))).max().unwrap() as u64).sum();
            assert_eq!(a.circuit_height(), naive_height);
        }
    }

    #[test]
    fn height_reduces_over_wide_surfaces() {
        // Far more channels than any circuit here has.
        let mut a = CostArray::new(130, 4);
        for c in (0..130u16).step_by(7) {
            a.set(cell(c, c % 4), c + 1);
        }
        let naive: u64 =
            (0..130u16).map(|c| (0..4).map(|x| a.get(cell(c, x))).max().unwrap() as u64).sum();
        assert_eq!(a.circuit_height(), naive);
        // Lower a maximum and re-check.
        a.set(cell(126, 2), 0);
        let naive: u64 =
            (0..130u16).map(|c| (0..4).map(|x| a.get(cell(c, x))).max().unwrap() as u64).sum();
        assert_eq!(a.circuit_height(), naive);
    }

    #[test]
    fn add_saturates_at_zero() {
        let mut a = CostArray::new(2, 2);
        a.add(cell(0, 0), -5);
        assert_eq!(a.get(cell(0, 0)), 0);
        a.add(cell(0, 0), 3);
        a.add(cell(0, 0), -1);
        assert_eq!(a.get(cell(0, 0)), 2);
    }

    #[test]
    fn extract_install_roundtrip() {
        let mut a = CostArray::new(4, 10);
        a.set(cell(1, 2), 5);
        a.set(cell(2, 3), 9);
        let rect = Rect::new(1, 2, 2, 3);
        let vals = a.extract(rect);
        assert_eq!(vals, vec![5, 0, 0, 9]);
        let mut b = CostArray::new(4, 10);
        b.install(rect, &vals);
        assert_eq!(b.get(cell(1, 2)), 5);
        assert_eq!(b.get(cell(2, 3)), 9);
        assert_eq!(b.get(cell(1, 3)), 0);
    }

    #[test]
    fn apply_deltas_adds_signed_values() {
        let mut a = CostArray::new(2, 4);
        a.set(cell(0, 0), 3);
        let rect = Rect::new(0, 0, 0, 1);
        a.apply_deltas(rect, &[-2, 4]);
        assert_eq!(a.get(cell(0, 0)), 1);
        assert_eq!(a.get(cell(0, 1)), 4);
    }

    #[test]
    fn route_cost_via_view() {
        let mut a = CostArray::new(4, 10);
        a.set(cell(1, 2), 3);
        a.set(cell(1, 3), 4);
        let r = Route::from_segments(vec![Segment::horizontal(1, 2, 3)]);
        assert_eq!(a.route_cost(&r), 7);
    }

    #[test]
    fn span_queries_match_per_cell_sums() {
        let mut a = CostArray::new(5, 12);
        for c in 0..5u16 {
            for x in 0..12u16 {
                a.set(cell(c, x), (c * 31 + x * 7) % 13);
            }
        }
        for c in 0..5u16 {
            for lo in 0..12u16 {
                for hi in lo..12u16 {
                    let naive: u64 = (lo..=hi).map(|x| a.get(cell(c, x)) as u64).sum();
                    assert_eq!(a.horizontal_cost(c, lo, hi), naive);
                }
            }
        }
        for x in 0..12u16 {
            for lo in 0..5u16 {
                for hi in lo..5u16 {
                    let naive: u64 = (lo..=hi).map(|c| a.get(cell(c, x)) as u64).sum();
                    assert_eq!(a.vertical_cost(x, lo, hi), naive);
                }
            }
        }
    }

    #[test]
    fn writes_patch_spans() {
        let mut a = CostArray::new(3, 8);
        a.set(cell(1, 4), 5);
        assert_eq!(a.horizontal_cost(1, 0, 7), 5);
        assert_eq!(a.vertical_cost(4, 0, 2), 5);
        a.add(cell(1, 4), 2);
        assert_eq!(a.horizontal_cost(1, 0, 7), 7);
        assert_eq!(a.vertical_cost(4, 0, 2), 7);
        a.set(cell(1, 4), 0);
        assert_eq!(a.horizontal_cost(1, 0, 7), 0);
        assert_eq!(a.channel_tracks(1), 0);
    }

    #[test]
    fn clone_and_equality_ignore_cache_state() {
        let mut a = CostArray::new(3, 8);
        a.set(cell(1, 1), 4);
        let _ = a.horizontal_cost(1, 0, 7); // moves a's span-sum counter
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.horizontal_cost(1, 0, 7), 4);
        assert_eq!(b.channel_tracks(1), 4);
        assert_eq!(b.circuit_height(), 4);
        let mut c = CostArray::new(3, 8);
        c.set(cell(1, 1), 4);
        assert_ne!(a.prefix_stats(), c.prefix_stats());
        assert_eq!(a, c, "equality is the cells, not the counter");
        c.set(cell(1, 1), 5);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn install_rejects_wrong_size() {
        let mut a = CostArray::new(4, 10);
        a.install(Rect::new(0, 1, 0, 1), &[1, 2, 3]);
    }
}
