//! Physical cell rows.
//!
//! The router operates purely on channel-space pins, but the synthetic
//! generator produces circuits by *placing cells into rows* first — the
//! same provenance a real standard-cell placement would have — and the
//! Figure-1 renderer draws the rows. A row of cells sits between channel
//! `row` (below it) and channel `row + 1` (above it).

/// A single placed standard cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Leftmost grid column occupied by the cell.
    pub x: u16,
    /// Width in grid columns (≥ 1).
    pub width: u16,
}

impl Cell {
    /// Rightmost occupied column (inclusive).
    #[inline]
    pub(crate) fn x_end(&self) -> u16 {
        self.x + self.width - 1
    }
}

/// A row of non-overlapping cells, sorted by `x`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellRow {
    /// Row index (row `r` lies between channels `r` and `r + 1`).
    pub row: u16,
    /// The placed cells, sorted by `x` and non-overlapping.
    pub cells: Vec<Cell>,
}

impl CellRow {
    /// Creates an empty row.
    pub(crate) fn new(row: u16) -> Self {
        CellRow { row, cells: Vec::new() }
    }

    /// Appends a cell; must not overlap the previous cell.
    ///
    /// # Panics
    /// Panics if the new cell starts at or before the end of the last cell.
    pub(crate) fn push(&mut self, cell: Cell) {
        if let Some(last) = self.cells.last() {
            assert!(
                cell.x > last.x_end(),
                "cell at x={} overlaps previous cell ending at {}",
                cell.x,
                last.x_end()
            );
        }
        self.cells.push(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_extent() {
        let c = Cell { x: 10, width: 4 };
        assert_eq!(c.x_end(), 13);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn row_rejects_overlap() {
        let mut row = CellRow::new(0);
        row.push(Cell { x: 0, width: 3 });
        row.push(Cell { x: 2, width: 2 });
    }
}
