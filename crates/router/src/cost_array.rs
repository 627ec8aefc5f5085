//! The cost array: LocusRoute's central data structure.
//!
//! "LocusRoute's central data structure is a cost array that keeps a record
//! of the number of wires running through each routing grid of the circuit.
//! The vertical dimension of the array is the number of routing channels
//! [...] and the horizontal dimension is the number of routing grids"
//! (paper §3, Figure 1).
//!
//! Candidate evaluation costs routes by *span queries* — sums along a row
//! or column interval — rather than cell by cell. [`CostArray`] answers
//! them in O(1) from incrementally maintained per-row and per-column
//! prefix-sum caches. Writes no longer throw whole lines away: each line
//! carries a *watermark* (the number of cells whose prefix entries are
//! still correct) and a write at position `x` merely clamps the watermark
//! to `x` in O(1). The next query patches the stale suffix in a single
//! vectorizable pass from the watermark to the end of the line (O(W − x)
//! adds), so a burst of writes between queries is coalesced into one
//! patch. A full rebuild happens only the first time a line is ever
//! materialized. Row maxima are maintained separately and incrementally,
//! with validity bit-packed into u64 words so [`CostArray::circuit_height`]
//! reduces over whole words; only a decrease of the current maximum forces
//! a row rescan (counted as a fallback). Instrumented views keep the
//! per-cell default implementations so their reference traces stay
//! byte-identical to a cell-by-cell evaluator.

use std::cell::RefCell;
use std::fmt;

use locus_circuit::{GridCell, Rect};

use crate::route::{row_runs, Route};

/// Read access to cost-array state.
///
/// Route evaluation is generic over this trait so the same two-bend
/// evaluator serves three masters:
///
/// * the sequential router (reads the one true array),
/// * the shared-memory emulator (reads through an instrumented view that
///   records a Tango-style reference trace), and
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
    /// views that instrument [`Self::cost_at`] (trace collection, logical
    /// clocks) observe exactly the reference sequence a cell-by-cell
    /// evaluator would produce. [`CostArray`] overrides this with an O(1)
    /// prefix-sum lookup.
    fn horizontal_cost(&self, channel: u16, x_lo: u16, x_hi: u16) -> u64 {
        (x_lo..=x_hi).map(|x| self.cost_at(GridCell::new(channel, x)) as u64).sum()
    }

    /// Sum of costs over `(c, x)` for `c` in `c_lo..=c_hi`.
    ///
    /// Default reads cells in ascending channel order (see
    /// [`Self::horizontal_cost`] for why); [`CostArray`] answers in O(1).
    fn vertical_cost(&self, x: u16, c_lo: u16, c_hi: u16) -> u64 {
        (c_lo..=c_hi).map(|c| self.cost_at(GridCell::new(c, x)) as u64).sum()
    }

    /// Whether span queries are O(1) arithmetic with no per-read side
    /// effects. Enables the incremental HVH jog sweep in
    /// [`crate::twobend::best_route`], which replaces repeated span
    /// queries with O(1) running updates. Instrumented views must keep
    /// the default `false` so their per-cell read streams stay exact.
    fn fast_spans(&self) -> bool {
        false
    }
}

/// Running totals of prefix-cache activity (monotonic over the array's
/// lifetime), surfaced as kernel counters through `locus-obs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Span queries answered from a fully valid row/column cache line.
    pub hits: u64,
    /// Cold full builds: the line had never been materialized.
    pub rebuilds: u64,
    /// Incremental suffix patches: the line was valid up to a watermark
    /// and only the suffix beyond it was recomputed.
    pub patches: u64,
    /// Watermark clamps caused by writes (a write landed below a line's
    /// valid watermark, shrinking it).
    pub invalidations: u64,
    /// Row-maximum rescans: a write lowered the cell that held the row
    /// maximum, forcing a full-row scan on the next `channel_tracks`.
    pub fallbacks: u64,
}

/// Watermark sentinel: the line has never been materialized, so the next
/// query pays a full build (counted as a rebuild, not a patch).
const UNBUILT: u32 = u32::MAX;

/// Per-line incremental state: how far the prefix entries extend, plus
/// the coalesced record of writes since the last patch — their cell-index
/// range and their **net delta**. The next query recomputes only the
/// dirty range from the cells and shifts the already-materialized tail by
/// the constant delta (a pure vector add; free when the writes cancelled,
/// as a rip-up immediately followed by an identical commit does).
#[derive(Clone, Copy)]
struct LineState {
    /// Prefix entries `0..=valid` are materialized ([`UNBUILT`] if the
    /// line never was). Entries in `(dirty_lo, valid]` are stale until
    /// the next patch.
    valid: u32,
    /// Smallest cell index written since the last patch (`u32::MAX` when
    /// the line is clean).
    dirty_lo: u32,
    /// Largest cell index written since the last patch.
    dirty_hi: u32,
    /// Net sum of the writes' value changes in the dirty range.
    delta: i32,
}

impl LineState {
    fn unbuilt() -> Self {
        LineState { valid: UNBUILT, dirty_lo: u32::MAX, dirty_hi: 0, delta: 0 }
    }

    #[inline]
    fn is_dirty(&self) -> bool {
        self.dirty_lo != u32::MAX
    }

    #[inline]
    fn clean(valid: u32) -> Self {
        LineState { valid, dirty_lo: u32::MAX, dirty_hi: 0, delta: 0 }
    }
}

/// Incrementally maintained prefix sums: per-row and per-column, each
/// with a [`LineState`] tracking its materialized extent and pending
/// writes. Row maxima live beside the rows with validity bit-packed into
/// u64 words so height reductions run word-at-a-time.
struct PrefixCache {
    /// Row-major `channels × (grids + 1)` prefix sums; entry `x` of row
    /// `c` is the sum of cells `(c, 0..x)`.
    rows: Vec<u64>,
    /// Column-major `grids × (channels + 1)` prefix sums.
    cols: Vec<u64>,
    /// Per-row incremental state.
    row_state: Vec<LineState>,
    /// Per-column incremental state.
    col_state: Vec<LineState>,
    /// Maximum value of each row (the channel's track requirement).
    row_max: Vec<u16>,
    /// Bit-packed validity of `row_max`, one bit per channel, LSB-first
    /// within each u64 word; only bits below `channels` are meaningful.
    max_words: Vec<u64>,
    stats: PrefixStats,
}

impl PrefixCache {
    /// `zeroed` says whether the cells this cache will serve are all
    /// zero: a fresh array starts with every row maximum a *valid* 0,
    /// while a cache attached to existing cells (a clone) must leave the
    /// maxima invalid until first queried.
    fn new(channels: u16, grids: u16, zeroed: bool) -> Self {
        let (ch, g) = (channels as usize, grids as usize);
        PrefixCache {
            rows: vec![0; ch * (g + 1)],
            cols: vec![0; g * (ch + 1)],
            row_state: vec![LineState::unbuilt(); ch],
            col_state: vec![LineState::unbuilt(); g],
            row_max: vec![0; ch],
            max_words: vec![if zeroed { !0u64 } else { 0 }; ch.div_ceil(64)],
            stats: PrefixStats::default(),
        }
    }

    /// Patches one prefix line in place so entries `0..=need` are valid.
    /// `line` is the `len + 1` prefix entries, `cell(i)` the current
    /// value of cell `i`. Three bounded passes, each skipped when empty:
    /// recompute the dirty range, shift the materialized tail by the net
    /// delta, extend past the old watermark up to `need`.
    #[inline]
    fn patch_line(line: &mut [u64], s: LineState, need: usize, cell: impl Fn(usize) -> u64) -> u32 {
        let mut valid = s.valid as usize;
        if s.is_dirty() {
            let (lo, hi) = (s.dirty_lo as usize, s.dirty_hi as usize);
            let mut acc = line[lo];
            for i in lo..=hi {
                acc += cell(i);
                line[i + 1] = acc;
            }
            if s.delta != 0 {
                for e in &mut line[hi + 2..=valid] {
                    *e = e.wrapping_add_signed(s.delta as i64);
                }
            }
        }
        if need > valid {
            let mut acc = line[valid];
            for i in valid..need {
                acc += cell(i);
                line[i + 1] = acc;
            }
            valid = need;
        }
        valid as u32
    }

    /// Ensures row `c`'s prefix line is valid through entry `need`
    /// (exclusive cell index, i.e. the highest prefix entry the caller
    /// will read): a hit if the pending writes all land past `need`,
    /// otherwise a bounded patch via [`Self::patch_line`] — a full build
    /// only if the line was never materialized. Returns the full line;
    /// entries past the watermark are stale.
    fn row(&mut self, c: usize, cells: &[u16], grids: usize, need: usize) -> &[u64] {
        let base = c * (grids + 1);
        let s = self.row_state[c];
        if s.valid != UNBUILT && need as u32 <= s.valid && need as u32 <= s.dirty_lo {
            self.stats.hits += 1;
        } else if s.valid == UNBUILT {
            self.stats.rebuilds += 1;
            let mut acc = 0u64;
            for (i, &v) in cells[c * grids..c * grids + need].iter().enumerate() {
                acc += v as u64;
                self.rows[base + i + 1] = acc;
            }
            self.row_state[c] = LineState::clean(need as u32);
        } else {
            self.stats.patches += 1;
            let row_cells = &cells[c * grids..(c + 1) * grids];
            let valid = Self::patch_line(&mut self.rows[base..base + grids + 1], s, need, |i| {
                row_cells[i] as u64
            });
            self.row_state[c] = LineState::clean(valid);
        }
        &self.rows[base..base + grids + 1]
    }

    /// Column twin of [`Self::row`].
    fn col(
        &mut self,
        x: usize,
        cells: &[u16],
        channels: usize,
        grids: usize,
        need: usize,
    ) -> &[u64] {
        let base = x * (channels + 1);
        let s = self.col_state[x];
        if s.valid != UNBUILT && need as u32 <= s.valid && need as u32 <= s.dirty_lo {
            self.stats.hits += 1;
        } else if s.valid == UNBUILT {
            self.stats.rebuilds += 1;
            let mut acc = 0u64;
            for (c, e) in self.cols[base + 1..base + need + 1].iter_mut().enumerate() {
                acc += cells[c * grids + x] as u64;
                *e = acc;
            }
            self.col_state[x] = LineState::clean(need as u32);
        } else {
            self.stats.patches += 1;
            let valid = Self::patch_line(&mut self.cols[base..base + channels + 1], s, need, |c| {
                cells[c * grids + x] as u64
            });
            self.col_state[x] = LineState::clean(valid);
        }
        &self.cols[base..base + channels + 1]
    }

    /// O(1) write notification for row `c`: a write of net `delta` at
    /// position `x` joins the line's pending dirty range. Writes landing
    /// past the materialized extent need no record at all.
    #[inline]
    fn note_row_write(&mut self, c: usize, x: usize, delta: i32) {
        let s = &mut self.row_state[c];
        if s.valid == UNBUILT || x as u32 >= s.valid {
            return;
        }
        if !s.is_dirty() {
            self.stats.invalidations += 1;
        }
        s.dirty_lo = s.dirty_lo.min(x as u32);
        s.dirty_hi = s.dirty_hi.max(x as u32);
        s.delta += delta;
    }

    /// [`Self::note_row_write`] for a whole contiguous run `[lo, hi]` in
    /// row `c` with net delta `delta` — one state update per run instead
    /// of one per cell.
    #[inline]
    fn note_row_write_range(&mut self, c: usize, lo: usize, hi: usize, delta: i32) {
        let s = &mut self.row_state[c];
        if s.valid == UNBUILT || lo as u32 >= s.valid {
            return;
        }
        if !s.is_dirty() {
            self.stats.invalidations += 1;
        }
        s.dirty_lo = s.dirty_lo.min(lo as u32);
        s.dirty_hi = s.dirty_hi.max((hi as u32).min(s.valid - 1));
        s.delta += delta;
    }

    /// Column twin of [`Self::note_row_write`].
    #[inline]
    fn note_col_write(&mut self, x: usize, c: usize, delta: i32) {
        let s = &mut self.col_state[x];
        if s.valid == UNBUILT || c as u32 >= s.valid {
            return;
        }
        if !s.is_dirty() {
            self.stats.invalidations += 1;
        }
        s.dirty_lo = s.dirty_lo.min(c as u32);
        s.dirty_hi = s.dirty_hi.max(c as u32);
        s.delta += delta;
    }

    /// Batch row-maximum maintenance for a run whose old values peaked at
    /// `old_max` and now peak at `new_max` — same lazy policy as
    /// [`Self::note_max`], applied once per run.
    #[inline]
    fn note_max_run(&mut self, c: usize, old_max: u16, new_max: u16) {
        let (w, b) = (c / 64, c % 64);
        if self.max_words[w] & (1u64 << b) == 0 {
            return;
        }
        let m = self.row_max[c];
        if new_max >= m {
            self.row_max[c] = new_max;
        } else if old_max == m {
            self.max_words[w] &= !(1u64 << b);
        }
    }

    /// Incremental row-maximum maintenance for a write `old → new` in
    /// row `c`. Increases update the maximum in place; only lowering the
    /// cell that *held* the maximum forces a lazy rescan.
    #[inline]
    fn note_max(&mut self, c: usize, old: u16, new: u16) {
        let (w, b) = (c / 64, c % 64);
        if self.max_words[w] & (1u64 << b) == 0 {
            return; // already pending a rescan
        }
        let m = self.row_max[c];
        if new >= m {
            self.row_max[c] = new;
        } else if old == m {
            // The maximum may have moved; find out lazily.
            self.max_words[w] &= !(1u64 << b);
        }
        // old < m && new < m: the maximum is elsewhere and unchanged.
    }

    /// Returns row `c`'s maximum, rescanning the row if a write lowered
    /// the previous maximum (counted as a fallback).
    fn ensure_max(&mut self, c: usize, cells: &[u16], grids: usize) -> u16 {
        let (w, b) = (c / 64, c % 64);
        if self.max_words[w] & (1u64 << b) == 0 {
            self.stats.fallbacks += 1;
            let mut m = 0u16;
            for &v in &cells[c * grids..(c + 1) * grids] {
                m = m.max(v);
            }
            self.row_max[c] = m;
            self.max_words[w] |= 1u64 << b;
        }
        self.row_max[c]
    }
}

/// A dense `channels × grids` array of wire-occupancy counts.
///
/// Values are `u16`: even a pathological routing never stacks anywhere
/// near 65 535 wires on one grid cell for circuits of this class; the
/// debug-mode arithmetic checks would catch overflow regardless.
///
/// Equality and cloning consider only the cell values; the prefix caches
/// are an implementation detail (a clone starts with cold caches).
pub struct CostArray {
    channels: u16,
    grids: u16,
    cells: Vec<u16>,
    cache: RefCell<PrefixCache>,
}

impl Clone for CostArray {
    fn clone(&self) -> Self {
        CostArray {
            channels: self.channels,
            grids: self.grids,
            cells: self.cells.clone(),
            cache: RefCell::new(PrefixCache::new(self.channels, self.grids, false)),
        }
    }
}

impl PartialEq for CostArray {
    fn eq(&self, other: &Self) -> bool {
        self.channels == other.channels && self.grids == other.grids && self.cells == other.cells
    }
}

impl Eq for CostArray {}

impl fmt::Debug for CostArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CostArray")
            .field("channels", &self.channels)
            .field("grids", &self.grids)
            .field("cells", &self.cells)
            .finish()
    }
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
            cache: RefCell::new(PrefixCache::new(channels, grids, true)),
        }
    }

    /// Flat index of `cell`, row(channel)-major.
    #[inline]
    fn index(&self, cell: GridCell) -> usize {
        debug_assert!(cell.channel < self.channels && cell.x < self.grids, "{cell} out of range");
        cell.channel as usize * self.grids as usize + cell.x as usize
    }

    /// Bookkeeping for a write `old → new` at `cell`: joins the two
    /// affected prefix lines' dirty ranges and updates the row maximum —
    /// all O(1).
    #[inline]
    fn touch(&mut self, cell: GridCell, old: u16, new: u16) {
        let cache = self.cache.get_mut();
        let c = cell.channel as usize;
        let x = cell.x as usize;
        let delta = new as i32 - old as i32;
        cache.note_row_write(c, x, delta);
        cache.note_col_write(x, c, delta);
        cache.note_max(c, old, new);
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
        let old = self.cells[i];
        if old != value {
            self.cells[i] = value;
            self.touch(cell, old, value);
        }
    }

    /// Adds a (possibly negative) delta to `cell`, saturating at zero.
    ///
    /// Saturation mirrors the paper's tolerance of stale data in the
    /// message-passing version: a replica can receive a decrement for a
    /// route increment it never saw. The owner's authoritative copy never
    /// saturates in a correct execution (asserted in debug builds).
    #[inline]
    pub fn add(&mut self, cell: GridCell, delta: i32) {
        let i = self.index(cell);
        let old = self.cells[i];
        let v = (old as i32 + delta).max(0) as u16;
        if v != old {
            self.cells[i] = v;
            self.touch(cell, old, v);
        }
    }

    /// Adds `delta` to every cell in `cells` — the allocation-free twin
    /// of [`Self::add_route`]/[`Self::remove_route`] for callers that
    /// hold a deduplicated cell list instead of a [`Route`].
    ///
    /// Contiguous same-channel runs (the common case: route cell lists
    /// are sorted row-major, so every horizontal segment is one run) are
    /// applied in batch: one row dirty-range update and one row-maximum
    /// update per run instead of one per cell.
    pub fn apply_cells(&mut self, cells: &[GridCell], delta: i32) {
        for (c, x1, x2) in row_runs(cells) {
            self.apply_run(c, x1, x2, delta);
        }
    }

    /// Adds `delta` (saturating at zero per cell) to the contiguous run
    /// `[x1, x2]` of row `c`, with batched cache bookkeeping.
    ///
    /// A min/max pre-pass decides between two loops: when no cell would
    /// saturate (the invariant case — owners only remove routes they
    /// added), every cell changes by exactly `delta`, so the value update
    /// is a uniform branch-free sweep the compiler vectorizes and the
    /// bookkeeping needs no per-cell change detection. Saturating runs
    /// (stale-replica decrements) go cell by cell through
    /// [`Self::rewrite_row`].
    fn apply_run(&mut self, c: u16, x1: u16, x2: u16, delta: i32) {
        if delta == 0 {
            return;
        }
        let ci = c as usize;
        let g = self.grids as usize;
        let (lo, hi) = (ci * g + x1 as usize, ci * g + x2 as usize + 1);
        let mut old_min = u16::MAX;
        let mut old_max = 0u16;
        for &v in &self.cells[lo..hi] {
            old_min = old_min.min(v);
            old_max = old_max.max(v);
        }
        let cache = self.cache.get_mut();
        if old_min as i32 + delta >= 0 {
            for v in &mut self.cells[lo..hi] {
                *v = (*v as i32 + delta) as u16;
            }
            // Column notes over the run, iterated as a slice: no per-cell
            // bounds check, and the invalidation tally lands once.
            let cu = ci as u32;
            let mut invalidated = 0u64;
            for s in &mut cache.col_state[x1 as usize..=x2 as usize] {
                if s.valid == UNBUILT || cu >= s.valid {
                    continue;
                }
                if !s.is_dirty() {
                    invalidated += 1;
                }
                s.dirty_lo = s.dirty_lo.min(cu);
                s.dirty_hi = s.dirty_hi.max(cu);
                s.delta += delta;
            }
            cache.stats.invalidations += invalidated;
            // Prefix entries only see changes below the row's materialized
            // extent, so the tail-shift delta counts only those cells.
            let rv = cache.row_state[ci].valid as usize;
            let below = (x2 as usize + 1).min(rv) - (x1 as usize).min(rv);
            cache.note_row_write_range(ci, x1 as usize, x2 as usize, delta * below as i32);
            cache.note_max_run(ci, old_max, (old_max as i32 + delta) as u16);
            return;
        }
        self.rewrite_row(c, x1, hi - lo, |_, old| (old as i32 + delta).max(0) as u16);
    }

    /// Rewrites the `n` cells of row `c` from `x1` on, the `i`-th of them
    /// from `old` to `new(i, old)`, with the bookkeeping of a
    /// [`Self::set`] per changed cell done by row: one dirty-range note
    /// and one row-maximum update for the row, one column note per cell
    /// that changed. Every write that is not a uniform unsaturated run
    /// lands here: the saturating case of [`Self::apply_run`],
    /// [`Self::install`] and [`Self::apply_deltas`].
    fn rewrite_row(&mut self, c: u16, x1: u16, n: usize, new: impl Fn(usize, u16) -> u16) {
        let ci = c as usize;
        let first = ci * self.grids as usize + x1 as usize;
        let cache = self.cache.get_mut();
        let row_valid = cache.row_state[ci].valid;
        let max_bit = 1u64 << (ci % 64);
        let max_was_valid = cache.max_words[ci / 64] & max_bit != 0;
        let mut max_valid = max_was_valid;
        let mut row_max = cache.row_max[ci];
        let mut net_below = 0i32;
        let mut changed: Option<(usize, usize)> = None;
        for (i, v) in self.cells[first..first + n].iter_mut().enumerate() {
            let (old, new) = (*v, new(i, *v));
            if new == old {
                continue;
            }
            *v = new;
            let x = x1 as usize + i;
            let delta = new as i32 - old as i32;
            if (x as u32) < row_valid {
                net_below += delta;
            }
            changed = Some((changed.map_or(x, |(lo, _)| lo), x));
            cache.note_col_write(x, ci, delta);
            // `PrefixCache::note_max`, cell by cell, on locals.
            if max_valid {
                if new >= row_max {
                    row_max = new;
                } else if old == row_max {
                    max_valid = false;
                }
            }
        }
        let Some((lo, hi)) = changed else {
            return;
        };
        cache.note_row_write_range(ci, lo, hi, net_below);
        if max_was_valid {
            cache.row_max[ci] = row_max;
            if !max_valid {
                cache.max_words[ci / 64] &= !max_bit;
            }
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
    /// the channel requires (§3). Maintained incrementally: O(1) unless a
    /// write lowered the previous maximum, which triggers one row rescan.
    pub fn channel_tracks(&self, c: u16) -> u16 {
        let mut cache = self.cache.borrow_mut();
        cache.ensure_max(c as usize, &self.cells, self.grids as usize)
    }

    /// Sum over channels of [`Self::channel_tracks`] — the **circuit
    /// height** quality measure (§3). Reduces over bit-packed validity
    /// words: a fully valid word of 64 channels sums without any
    /// per-channel branching.
    pub fn circuit_height(&self) -> u64 {
        let mut cache = self.cache.borrow_mut();
        let ch = self.channels as usize;
        let g = self.grids as usize;
        let mut total = 0u64;
        for w in 0..cache.max_words.len() {
            let lo = w * 64;
            let hi = (lo + 64).min(ch);
            let mask = if hi - lo == 64 { !0u64 } else { (1u64 << (hi - lo)) - 1 };
            if cache.max_words[w] & mask == mask {
                total += cache.row_max[lo..hi].iter().map(|&m| m as u64).sum::<u64>();
            } else {
                for c in lo..hi {
                    total += cache.ensure_max(c, &self.cells, g) as u64;
                }
            }
        }
        total
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

    /// Prefix-cache activity counters (kernel observability).
    pub fn prefix_stats(&self) -> PrefixStats {
        self.cache.borrow().stats
    }

    /// Checks every cached prefix entry the next query would trust — the
    /// materialized extent of each clean line, or everything up to the
    /// dirty range of a pending one — and every valid row maximum,
    /// against a fresh recomputation from the cells. Test hook for the
    /// incremental-patch invariants; returns the first divergence found.
    #[doc(hidden)]
    pub fn validate_prefix_caches(&self) -> Result<(), String> {
        let cache = self.cache.borrow();
        let (ch, g) = (self.channels as usize, self.grids as usize);
        for c in 0..ch {
            let state = cache.row_state[c];
            if state.valid == UNBUILT {
                continue;
            }
            let base = c * (g + 1);
            if cache.rows[base] != 0 {
                return Err(format!("row {c} prefix entry 0 is {} not 0", cache.rows[base]));
            }
            let valid = (state.valid.min(state.dirty_lo) as usize).min(g);
            let mut acc = 0u64;
            for x in 0..valid {
                acc += self.cells[c * g + x] as u64;
                if cache.rows[base + x + 1] != acc {
                    return Err(format!(
                        "row {c} prefix entry {} is {} expected {acc} (watermark {valid})",
                        x + 1,
                        cache.rows[base + x + 1],
                    ));
                }
            }
        }
        for x in 0..g {
            let state = cache.col_state[x];
            if state.valid == UNBUILT {
                continue;
            }
            let base = x * (ch + 1);
            if cache.cols[base] != 0 {
                return Err(format!("col {x} prefix entry 0 is {} not 0", cache.cols[base]));
            }
            let valid = (state.valid.min(state.dirty_lo) as usize).min(ch);
            let mut acc = 0u64;
            for c in 0..valid {
                acc += self.cells[c * g + x] as u64;
                if cache.cols[base + c + 1] != acc {
                    return Err(format!(
                        "col {x} prefix entry {} is {} expected {acc} (watermark {valid})",
                        c + 1,
                        cache.cols[base + c + 1],
                    ));
                }
            }
        }
        for c in 0..ch {
            if cache.max_words[c / 64] & (1u64 << (c % 64)) == 0 {
                continue;
            }
            let naive = self.cells[c * g..(c + 1) * g].iter().copied().max().unwrap_or(0);
            if cache.row_max[c] != naive {
                return Err(format!("row {c} cached max {} expected {naive}", cache.row_max[c]));
            }
        }
        Ok(())
    }

    /// Copies the values inside `rect` into a fresh vector, row-major
    /// within the rectangle (the payload of a `SendLocData` update).
    pub fn extract(&self, rect: Rect) -> Vec<u16> {
        let mut out = Vec::with_capacity(rect.area() as usize);
        for c in rect.c_lo..=rect.c_hi {
            let base = c as usize * self.grids as usize;
            out.extend_from_slice(
                &self.cells[base + rect.x_lo as usize..=base + rect.x_hi as usize],
            );
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
            self.rewrite_row(c, rect.x_lo, width, |i, _| row[i]);
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
            self.rewrite_row(c, rect.x_lo, width, |i, old| {
                (old as i32 + row[i] as i32).max(0) as u16
            });
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
        let mut cache = self.cache.borrow_mut();
        let row = cache.row(channel as usize, &self.cells, self.grids as usize, x_hi as usize + 1);
        row[x_hi as usize + 1] - row[x_lo as usize]
    }
    #[inline]
    fn vertical_cost(&self, x: u16, c_lo: u16, c_hi: u16) -> u64 {
        debug_assert!(c_lo <= c_hi && c_hi < self.channels);
        let mut cache = self.cache.borrow_mut();
        let col = cache.col(
            x as usize,
            &self.cells,
            self.channels as usize,
            self.grids as usize,
            c_hi as usize + 1,
        );
        col[c_hi as usize + 1] - col[c_lo as usize]
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
        // The cached row maximum must match a fresh full-row scan through
        // arbitrary interleavings of writes and queries.
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
        // More than one validity word: 130 channels spans three u64 words.
        let mut a = CostArray::new(130, 4);
        for c in (0..130u16).step_by(7) {
            a.set(cell(c, c % 4), c + 1);
        }
        let naive: u64 =
            (0..130u16).map(|c| (0..4).map(|x| a.get(cell(c, x))).max().unwrap() as u64).sum();
        assert_eq!(a.circuit_height(), naive);
        // Lower a maximum and re-check (exercises the fallback path).
        a.set(cell(126, 2), 0);
        let naive: u64 =
            (0..130u16).map(|c| (0..4).map(|x| a.get(cell(c, x))).max().unwrap() as u64).sum();
        assert_eq!(a.circuit_height(), naive);
        assert!(a.prefix_stats().fallbacks >= 1);
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
        a.validate_prefix_caches().expect("caches consistent after query sweep");
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
        a.validate_prefix_caches().expect("caches consistent after patches");
    }

    #[test]
    fn prefix_stats_track_patch_policy() {
        let mut a = CostArray::new(3, 8);
        assert_eq!(a.prefix_stats(), PrefixStats::default());
        let _ = a.horizontal_cost(0, 0, 7); // cold: full build
        let _ = a.horizontal_cost(0, 2, 5); // warm: hit
        let s = a.prefix_stats();
        assert_eq!(s.rebuilds, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.patches, 0);
        a.set(cell(0, 3), 9); // clamps row 0's watermark; column 3 is unbuilt
        let s = a.prefix_stats();
        assert_eq!(s.invalidations, 1, "only the materialized row line clamps");
        let _ = a.horizontal_cost(0, 0, 7); // suffix patch, not a rebuild
        let s = a.prefix_stats();
        assert_eq!(s.rebuilds, 1, "a built line never fully rebuilds");
        assert_eq!(s.patches, 1);
        // A burst of writes to one row coalesces into a single patch.
        a.set(cell(0, 2), 1);
        a.set(cell(0, 6), 2);
        a.set(cell(0, 4), 3);
        let _ = a.horizontal_cost(0, 0, 7);
        assert_eq!(a.prefix_stats().patches, 2, "three writes, one patch");
        a.validate_prefix_caches().expect("caches consistent");
    }

    #[test]
    fn max_decrease_counts_one_fallback() {
        let mut a = CostArray::new(2, 8);
        a.set(cell(0, 3), 7);
        assert_eq!(a.channel_tracks(0), 7);
        assert_eq!(a.prefix_stats().fallbacks, 0, "increases maintain the max in place");
        a.set(cell(0, 3), 2); // lowered the max holder: next query rescans
        assert_eq!(a.channel_tracks(0), 2);
        assert_eq!(a.prefix_stats().fallbacks, 1);
        assert_eq!(a.channel_tracks(0), 2);
        assert_eq!(a.prefix_stats().fallbacks, 1, "rescans are one-shot");
    }

    #[test]
    fn clone_and_equality_ignore_cache_state() {
        let mut a = CostArray::new(3, 8);
        a.set(cell(1, 1), 4);
        let _ = a.horizontal_cost(1, 0, 7); // warm a's cache
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.horizontal_cost(1, 0, 7), 4, "cold clone answers correctly");
        assert_eq!(b.channel_tracks(1), 4, "cold clone recomputes row maxima");
        assert_eq!(b.circuit_height(), 4);
        let mut c = CostArray::new(3, 8);
        c.set(cell(1, 1), 4);
        assert_eq!(a, c);
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
