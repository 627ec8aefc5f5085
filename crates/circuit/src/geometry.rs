//! Coordinate primitives for the routing surface.
//!
//! The routing surface is a grid of *cells*: `channel` rows (vertical axis)
//! by `grid` columns (horizontal axis). Channel `0` is the bottom-most
//! routing channel; grid `0` is the left edge of the circuit.

use std::fmt;

/// One cell of the routing surface: a `(channel, grid-column)` pair.
///
/// This is the index type of the cost array and the unit of the update
/// packets exchanged by the message-passing implementation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GridCell {
    /// Routing channel (vertical coordinate, row of the cost array).
    pub channel: u16,
    /// Routing grid column (horizontal coordinate).
    pub x: u16,
}

impl GridCell {
    /// Creates a cell at `(channel, x)`.
    #[inline]
    pub const fn new(channel: u16, x: u16) -> Self {
        GridCell { channel, x }
    }

    /// Manhattan distance between two cells, counting one step per channel
    /// hop and one per grid-column hop.
    #[inline]
    pub fn manhattan(self, other: GridCell) -> u32 {
        self.channel.abs_diff(other.channel) as u32 + self.x.abs_diff(other.x) as u32
    }
}

impl fmt::Display for GridCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.channel, self.x)
    }
}

/// An inclusive axis-aligned rectangle of grid cells.
///
/// `Rect` is used for the *bounding box of changes* carried by update
/// packets (paper §4.3.1) and for owned-region geometry. Both bounds are
/// inclusive; a rectangle always contains at least one cell.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rect {
    /// Lowest channel contained in the rectangle.
    pub c_lo: u16,
    /// Highest channel contained in the rectangle (inclusive).
    pub c_hi: u16,
    /// Leftmost grid column contained in the rectangle.
    pub x_lo: u16,
    /// Rightmost grid column contained in the rectangle (inclusive).
    pub x_hi: u16,
}

impl Rect {
    /// Creates a rectangle from inclusive bounds.
    ///
    /// # Panics
    /// Panics if `c_lo > c_hi` or `x_lo > x_hi`.
    pub fn new(c_lo: u16, c_hi: u16, x_lo: u16, x_hi: u16) -> Self {
        assert!(c_lo <= c_hi, "Rect: c_lo {c_lo} > c_hi {c_hi}");
        assert!(x_lo <= x_hi, "Rect: x_lo {x_lo} > x_hi {x_hi}");
        Rect { c_lo, c_hi, x_lo, x_hi }
    }

    /// The single-cell rectangle containing `cell`.
    pub fn cell(cell: GridCell) -> Self {
        Rect { c_lo: cell.channel, c_hi: cell.channel, x_lo: cell.x, x_hi: cell.x }
    }

    /// Number of channels covered.
    #[inline]
    pub(crate) fn height(&self) -> u32 {
        (self.c_hi - self.c_lo) as u32 + 1
    }

    /// Number of grid columns covered.
    #[inline]
    pub fn width(&self) -> u32 {
        (self.x_hi - self.x_lo) as u32 + 1
    }

    /// Number of cells covered.
    #[inline]
    pub fn area(&self) -> u64 {
        self.height() as u64 * self.width() as u64
    }

    /// Whether `cell` lies inside the rectangle.
    #[inline]
    pub fn contains(&self, cell: GridCell) -> bool {
        (self.c_lo..=self.c_hi).contains(&cell.channel) && (self.x_lo..=self.x_hi).contains(&cell.x)
    }

    /// Whether the two rectangles share at least one cell.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.c_lo <= other.c_hi
            && other.c_lo <= self.c_hi
            && self.x_lo <= other.x_hi
            && other.x_lo <= self.x_hi
    }

    /// The overlapping region of two rectangles, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            c_lo: self.c_lo.max(other.c_lo),
            c_hi: self.c_hi.min(other.c_hi),
            x_lo: self.x_lo.max(other.x_lo),
            x_hi: self.x_hi.min(other.x_hi),
        })
    }

    /// Smallest rectangle containing both rectangles.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            c_lo: self.c_lo.min(other.c_lo),
            c_hi: self.c_hi.max(other.c_hi),
            x_lo: self.x_lo.min(other.x_lo),
            x_hi: self.x_hi.max(other.x_hi),
        }
    }

    /// Grows the rectangle to include `cell`.
    pub(crate) fn expand_to(&mut self, cell: GridCell) {
        self.c_lo = self.c_lo.min(cell.channel);
        self.c_hi = self.c_hi.max(cell.channel);
        self.x_lo = self.x_lo.min(cell.x);
        self.x_hi = self.x_hi.max(cell.x);
    }

    /// Iterator over every cell of the rectangle, channel-major.
    pub fn cells(&self) -> impl Iterator<Item = GridCell> + '_ {
        let (c_lo, c_hi, x_lo, x_hi) = (self.c_lo, self.c_hi, self.x_lo, self.x_hi);
        (c_lo..=c_hi).flat_map(move |c| (x_lo..=x_hi).map(move |x| GridCell::new(c, x)))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[c{}..{}, x{}..{}]", self.c_lo, self.c_hi, self.x_lo, self.x_hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_manhattan_distance() {
        let a = GridCell::new(1, 10);
        let b = GridCell::new(4, 3);
        assert_eq!(a.manhattan(b), 3 + 7);
        assert_eq!(b.manhattan(a), 3 + 7);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn rect_contains_boundary_cells() {
        let r = Rect::new(1, 3, 4, 8);
        assert!(r.contains(GridCell::new(1, 4)));
        assert!(r.contains(GridCell::new(3, 8)));
        assert!(!r.contains(GridCell::new(0, 4)));
        assert!(!r.contains(GridCell::new(1, 9)));
    }

    #[test]
    fn rect_intersection_and_union() {
        let a = Rect::new(0, 4, 0, 10);
        let b = Rect::new(3, 7, 8, 20);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(3, 4, 8, 10));
        let u = a.union(&b);
        assert_eq!(u, Rect::new(0, 7, 0, 20));
        let c = Rect::new(10, 11, 0, 1);
        assert!(a.intersection(&c).is_none());
        assert!(!a.intersects(&c));
    }

    #[test]
    fn rect_expand_to_grows_in_all_directions() {
        let mut r = Rect::cell(GridCell::new(3, 3));
        r.expand_to(GridCell::new(1, 5));
        r.expand_to(GridCell::new(4, 0));
        assert_eq!(r, Rect::new(1, 4, 0, 5));
        assert_eq!((r.height(), r.width(), r.area()), (4, 6, 24));
    }

    #[test]
    fn rect_cells_enumerates_area_exactly() {
        let r = Rect::new(2, 3, 5, 7);
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells.len() as u64, r.area());
        assert_eq!(cells[0], GridCell::new(2, 5));
        assert_eq!(*cells.last().unwrap(), GridCell::new(3, 7));
        // Channel-major order.
        assert_eq!(cells[3], GridCell::new(3, 5));
    }

    #[test]
    #[should_panic(expected = "c_lo")]
    fn rect_rejects_inverted_channel_bounds() {
        let _ = Rect::new(3, 1, 0, 0);
    }
}
