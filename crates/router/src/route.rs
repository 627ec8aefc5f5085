//! Route representation: the cells a wire occupies.
//!
//! A route is a list of horizontal (within-channel) and vertical
//! (channel-crossing feedthrough) segments. Horizontal segments occupy the
//! cells of one channel row between two columns; vertical segments occupy
//! one cell in every channel they cross at a fixed column. The covered
//! cell set is deduplicated so a cell shared by a corner is counted — and
//! costed, and incremented — exactly once.
//!
//! The cover is built from row runs, not by sorting cells: a horizontal
//! segment is one run, a feedthrough one single-cell run per channel it
//! crosses. The few runs of a route are sorted and written out in order,
//! each clamped to start after the last column already written in its
//! channel, so the cells come out sorted and unique. The routing kernel
//! lends the run buffer from its [`crate::EvalScratch`] and builds the
//! winner in the buffers of a route handed back to the scratch, so a warm
//! evaluation allocates nothing.

use locus_circuit::{GridCell, Rect};

/// One straight piece of a route.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Segment {
    /// A run along channel `channel` covering columns `x_lo..=x_hi`.
    Horizontal {
        /// Channel the run lies in.
        channel: u16,
        /// Leftmost covered column.
        x_lo: u16,
        /// Rightmost covered column (inclusive).
        x_hi: u16,
    },
    /// A feedthrough at column `x` covering channels `c_lo..=c_hi`.
    Vertical {
        /// Column the feedthrough occupies.
        x: u16,
        /// Lowest covered channel.
        c_lo: u16,
        /// Highest covered channel (inclusive).
        c_hi: u16,
    },
}

impl Segment {
    /// Horizontal segment; argument order of the columns is free.
    pub fn horizontal(channel: u16, xa: u16, xb: u16) -> Self {
        Segment::Horizontal { channel, x_lo: xa.min(xb), x_hi: xa.max(xb) }
    }

    /// Vertical segment; argument order of the channels is free.
    pub fn vertical(x: u16, ca: u16, cb: u16) -> Self {
        Segment::Vertical { x, c_lo: ca.min(cb), c_hi: ca.max(cb) }
    }

    /// Number of cells covered by the segment. Always at least one — the
    /// normalizing constructors make empty segments unrepresentable, so
    /// there is deliberately no `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub(crate) fn len(&self) -> u32 {
        match *self {
            Segment::Horizontal { x_lo, x_hi, .. } => (x_hi - x_lo) as u32 + 1,
            Segment::Vertical { c_lo, c_hi, .. } => (c_hi - c_lo) as u32 + 1,
        }
    }

    /// The cells covered by this segment, in order.
    pub fn cells(&self) -> Vec<GridCell> {
        match *self {
            Segment::Horizontal { channel, x_lo, x_hi } => {
                (x_lo..=x_hi).map(|x| GridCell::new(channel, x)).collect()
            }
            Segment::Vertical { x, c_lo, c_hi } => {
                (c_lo..=c_hi).map(|c| GridCell::new(c, x)).collect()
            }
        }
    }

    /// Bounding box of the segment.
    pub fn bounding_box(&self) -> Rect {
        match *self {
            Segment::Horizontal { channel, x_lo, x_hi } => Rect::new(channel, channel, x_lo, x_hi),
            Segment::Vertical { x, c_lo, c_hi } => Rect::new(c_lo, c_hi, x, x),
        }
    }
}

/// A complete route for one wire: its segments plus the deduplicated cell
/// cover, precomputed because every consumer (cost evaluation, cost-array
/// increments, delta recording, locality measurement) iterates it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    segments: Vec<Segment>,
    cells: Vec<GridCell>,
}

impl Route {
    /// Builds a route from segments, deduplicating corner cells.
    ///
    /// # Panics
    /// Panics if `segments` is empty.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        Self::build(segments, Vec::new(), &mut Vec::new())
    }

    /// The one constructor behind [`Route::from_segments`] and the routing
    /// kernel: covers `segments` in the buffer `cells`, with a caller-lent
    /// buffer for the row runs, each packed as `channel << 32 | x_lo << 16
    /// | x_hi` so that the keys sort in `(channel, x_lo, x_hi)` order. The
    /// contents of both buffers on entry are ignored.
    pub(crate) fn build(
        segments: Vec<Segment>,
        mut cells: Vec<GridCell>,
        runs: &mut Vec<u64>,
    ) -> Self {
        assert!(!segments.is_empty(), "route must have at least one segment");
        let key = |c: u16, x_lo: u16, x_hi: u16| {
            u64::from(c) << 32 | u64::from(x_lo) << 16 | u64::from(x_hi)
        };
        runs.clear();
        let mut total = 0usize;
        for s in &segments {
            total += s.len() as usize;
            match *s {
                Segment::Horizontal { channel, x_lo, x_hi } => runs.push(key(channel, x_lo, x_hi)),
                Segment::Vertical { x, c_lo, c_hi } => {
                    runs.extend((c_lo..=c_hi).map(|c| key(c, x, x)))
                }
            }
        }
        runs.sort_unstable();
        cells.clear();
        cells.reserve(total);
        // The channel being written and its first column not yet written;
        // `u32`s, so no channel matches before the first run and a run
        // ending at `u16::MAX` has a successor.
        let (mut channel, mut next) = (u32::MAX, 0u32);
        for &run in runs.iter() {
            let (c, x_lo, x_hi) = ((run >> 32) as u16, (run >> 16) as u16, run as u16);
            if u32::from(c) != channel {
                (channel, next) = (u32::from(c), 0);
            }
            let start = next.max(u32::from(x_lo));
            cells.extend((start..=u32::from(x_hi)).map(|x| GridCell::new(c, x as u16)));
            next = next.max(u32::from(x_hi) + 1);
        }
        Route { segments, cells }
    }

    /// Takes the route apart into its segment and cell buffers, for the
    /// next route to be built in.
    pub(crate) fn into_buffers(self) -> (Vec<Segment>, Vec<GridCell>) {
        (self.segments, self.cells)
    }

    /// The deduplicated cells this route occupies (sorted).
    #[inline]
    pub fn cells(&self) -> &[GridCell] {
        &self.cells
    }

    /// The segments of the route.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of occupied cells. Always at least one —
    /// [`Route::from_segments`] rejects empty segment lists, so emptiness
    /// is unrepresentable and there is deliberately no `is_empty`.
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Bounding box of the whole route.
    pub fn bounding_box(&self) -> Rect {
        let mut r = self.segments[0].bounding_box();
        for s in &self.segments[1..] {
            let b = s.bounding_box();
            r = r.union(&b);
        }
        r
    }
}

/// Splits a sorted cell list (a route's cover) into its maximal runs of
/// consecutive columns within one channel, as `(channel, x_lo, x_hi)`.
/// Every horizontal segment is one run; a feedthrough is a run of one
/// cell per channel it crosses.
pub fn row_runs(cells: &[GridCell]) -> impl Iterator<Item = (u16, u16, u16)> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let first = *cells.get(i)?;
        let mut last = first;
        i += 1;
        while let Some(&next) = cells.get(i) {
            if next.channel != first.channel || next.x != last.x + 1 {
                break;
            }
            last = next;
            i += 1;
        }
        Some((first.channel, first.x, last.x))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_normalizes_argument_order() {
        assert_eq!(
            Segment::horizontal(2, 9, 3),
            Segment::Horizontal { channel: 2, x_lo: 3, x_hi: 9 }
        );
        assert_eq!(Segment::vertical(5, 4, 1), Segment::Vertical { x: 5, c_lo: 1, c_hi: 4 });
    }

    #[test]
    fn segment_cells_and_len_agree() {
        let h = Segment::horizontal(1, 2, 5);
        assert_eq!(h.len(), 4);
        assert_eq!(h.cells().len(), 4);
        let v = Segment::vertical(7, 0, 3);
        assert_eq!(v.len(), 4);
        assert_eq!(
            v.cells(),
            vec![
                GridCell::new(0, 7),
                GridCell::new(1, 7),
                GridCell::new(2, 7),
                GridCell::new(3, 7),
            ]
        );
    }

    #[test]
    fn row_runs_split_at_gaps_and_channel_changes() {
        let r = Route::from_segments(vec![
            Segment::horizontal(1, 2, 4),
            Segment::vertical(4, 1, 3),
            Segment::horizontal(3, 4, 5),
            Segment::horizontal(3, 7, 7),
        ]);
        let runs: Vec<_> = row_runs(r.cells()).collect();
        assert_eq!(runs, vec![(1, 2, 4), (2, 4, 4), (3, 4, 5), (3, 7, 7)]);
        assert_eq!(row_runs(&[]).count(), 0);
    }

    #[test]
    fn route_dedups_corner() {
        let r = Route::from_segments(vec![
            Segment::horizontal(0, 0, 3),
            Segment::vertical(3, 0, 2),
            Segment::horizontal(2, 3, 5),
        ]);
        // 4 + 3 + 3 cells, minus 2 shared corners.
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn route_bounding_box_spans_segments() {
        let r =
            Route::from_segments(vec![Segment::horizontal(1, 2, 6), Segment::vertical(6, 1, 3)]);
        assert_eq!(r.bounding_box(), Rect::new(1, 3, 2, 6));
    }

    #[test]
    fn single_cell_route() {
        let r = Route::from_segments(vec![Segment::horizontal(2, 4, 4)]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.cells(), &[GridCell::new(2, 4)]);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn route_rejects_empty() {
        let _ = Route::from_segments(vec![]);
    }
}
