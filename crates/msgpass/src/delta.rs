//! The delta array (§4.1).
//!
//! "We add a new data structure, known as the delta array. The delta
//! array has the same dimensions as the cost array, and keeps track of
//! changes made to the cost array between updates."
//!
//! Rip-up decrements and re-route increments accumulate here; cells where
//! they cancel hold zero and are not transmitted — the mechanism behind
//! the paper's traffic cancellation argument (§5.2).
//!
//! The simulated node finds its changes by scanning whole regions, and
//! the caller charges it for that. The host does not repeat the scan: the
//! array keeps, per channel, the span of columns outside which the row is
//! known to be zero, and looks only there.

use locus_circuit::{GridCell, Rect};

/// A signed change overlay with the cost array's dimensions.
#[derive(Clone, Debug)]
pub struct DeltaArray {
    channels: u16,
    grids: u16,
    cells: Vec<i16>,
    /// Per channel, the columns `lo..hi` that may hold a nonzero cell;
    /// every cell of the row outside them is zero (`lo >= hi`: the whole
    /// row is). Recording widens a span, [`Self::extract_and_clear`]
    /// trims the end it clears.
    spans: Vec<(u16, u16)>,
}

/// Equality is over the deltas; how tightly the spans bracket them is
/// not part of the value.
impl PartialEq for DeltaArray {
    fn eq(&self, other: &Self) -> bool {
        self.channels == other.channels && self.grids == other.grids && self.cells == other.cells
    }
}

impl Eq for DeltaArray {}

impl DeltaArray {
    /// Creates a zeroed delta array.
    pub fn new(channels: u16, grids: u16) -> Self {
        assert!(channels > 0 && grids > 0, "delta array dimensions must be nonzero");
        DeltaArray {
            channels,
            grids,
            cells: vec![0; channels as usize * grids as usize],
            spans: vec![(0, 0); channels as usize],
        }
    }

    #[inline]
    fn index(&self, cell: GridCell) -> usize {
        debug_assert!(cell.channel < self.channels && cell.x < self.grids);
        cell.channel as usize * self.grids as usize + cell.x as usize
    }

    /// Records a change of `delta` at `cell`.
    #[inline]
    pub fn record(&mut self, cell: GridCell, delta: i16) {
        self.record_run(cell.channel, cell.x, cell.x, delta);
    }

    /// Records a change of `delta` at every cell of `channel` from
    /// column `x_lo` to `x_hi` inclusive.
    pub fn record_run(&mut self, channel: u16, x_lo: u16, x_hi: u16, delta: i16) {
        let first = self.index(GridCell::new(channel, x_lo));
        for v in &mut self.cells[first..=first + (x_hi - x_lo) as usize] {
            *v += delta;
        }
        let span = &mut self.spans[channel as usize];
        *span = if span.0 >= span.1 {
            (x_lo, x_hi + 1)
        } else {
            (span.0.min(x_lo), span.1.max(x_hi + 1))
        };
    }

    /// Current accumulated delta at `cell`.
    #[inline]
    pub fn get(&self, cell: GridCell) -> i16 {
        self.cells[self.index(cell)]
    }

    /// Bounding box of all nonzero cells within `rect`, or `None` if the
    /// region is clean. This is the scan the sending processor performs
    /// before an update ("the sender scans the delta array for changes",
    /// §4.3.1); the caller charges `rect.area()` cells of scan time,
    /// while the host reads only the part of each row inside its span.
    pub fn changes_in(&self, rect: Rect) -> Option<Rect> {
        let mut bbox: Option<Rect> = None;
        for c in rect.c_lo..=rect.c_hi {
            let (lo, hi) = self.spans[c as usize];
            let (lo, hi) = (lo.max(rect.x_lo), hi.min(rect.x_hi + 1));
            if lo >= hi {
                continue;
            }
            let base = c as usize * self.grids as usize;
            let row = &self.cells[base + lo as usize..base + hi as usize];
            let Some(first) = row.iter().position(|&v| v != 0) else {
                continue;
            };
            let last = row.iter().rposition(|&v| v != 0).expect("the row has a nonzero cell");
            let found = Rect::new(c, c, lo + first as u16, lo + last as u16);
            bbox = Some(bbox.map_or(found, |b| b.union(&found)));
        }
        bbox
    }

    /// Extracts the deltas inside `rect` (row-major) and zeroes them —
    /// the payload of a `SendRmtData` packet or a `ReqLocData` response.
    pub fn extract_and_clear(&mut self, rect: Rect) -> Vec<i16> {
        let mut out = Vec::with_capacity(rect.area() as usize);
        for c in rect.c_lo..=rect.c_hi {
            let base = c as usize * self.grids as usize;
            let row = &mut self.cells[base + rect.x_lo as usize..=base + rect.x_hi as usize];
            out.extend_from_slice(row);
            row.fill(0);
            // A cleared end of the span is known zero again; a hole in
            // its middle is not worth tracking.
            let (lo, hi) = &mut self.spans[c as usize];
            if rect.x_lo <= *lo {
                *lo = (*lo).max(rect.x_hi + 1);
            }
            if rect.x_hi + 1 >= *hi {
                *hi = (*hi).min(rect.x_lo);
            }
        }
        out
    }

    /// Whether every cell in `rect` is zero.
    pub fn is_clean_in(&self, rect: Rect) -> bool {
        self.changes_in(rect).is_none()
    }

    /// Whether the whole array is zero.
    pub fn is_zero(&self) -> bool {
        self.cells.iter().all(|&v| v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(c: u16, x: u16) -> GridCell {
        GridCell::new(c, x)
    }

    #[test]
    fn record_and_cancel() {
        let mut d = DeltaArray::new(4, 10);
        d.record(cell(1, 3), 1);
        d.record(cell(1, 3), -1);
        assert!(d.is_zero(), "rip-up and re-route on the same cell must cancel");
    }

    #[test]
    fn changes_in_finds_tight_bbox() {
        let mut d = DeltaArray::new(4, 10);
        d.record(cell(1, 3), 1);
        d.record(cell(2, 7), -1);
        let whole = Rect::new(0, 3, 0, 9);
        assert_eq!(d.changes_in(whole), Some(Rect::new(1, 2, 3, 7)));
    }

    #[test]
    fn changes_in_respects_rect_boundary() {
        let mut d = DeltaArray::new(4, 10);
        d.record(cell(0, 0), 1);
        d.record(cell(3, 9), 1);
        // Scanning only the middle region sees neither change.
        assert_eq!(d.changes_in(Rect::new(1, 2, 2, 7)), None);
        // Scanning the top-right region sees one.
        assert_eq!(d.changes_in(Rect::new(2, 3, 5, 9)), Some(Rect::cell(cell(3, 9))));
    }

    #[test]
    fn extract_and_clear_empties_the_rect() {
        let mut d = DeltaArray::new(4, 10);
        d.record(cell(1, 2), 3);
        d.record(cell(1, 3), -2);
        let rect = Rect::new(1, 1, 2, 3);
        let vals = d.extract_and_clear(rect);
        assert_eq!(vals, vec![3, -2]);
        assert!(d.is_zero());
    }

    #[test]
    fn extract_preserves_outside_cells() {
        let mut d = DeltaArray::new(4, 10);
        d.record(cell(0, 0), 5);
        d.record(cell(2, 2), 7);
        let _ = d.extract_and_clear(Rect::new(0, 0, 0, 0));
        assert_eq!(d.get(cell(2, 2)), 7);
        assert_eq!(d.get(cell(0, 0)), 0);
    }

    #[test]
    fn clean_region_reports_clean() {
        let mut d = DeltaArray::new(4, 10);
        assert!(d.is_clean_in(Rect::new(0, 3, 0, 9)));
        d.record(cell(2, 2), 1);
        assert!(!d.is_clean_in(Rect::new(0, 3, 0, 9)));
        assert!(d.is_clean_in(Rect::new(0, 1, 0, 9)));
    }
}
