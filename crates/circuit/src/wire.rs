//! Pins and wires (nets) of a standard-cell circuit.

use crate::geometry::{GridCell, Rect};

/// Identifier of a wire within its circuit (dense, `0..circuit.wires.len()`).
pub type WireId = usize;

/// A connection point of a wire.
///
/// Standard-cell pins sit on the top or bottom edge of a cell row and are
/// therefore adjacent to exactly one routing channel; we store them already
/// projected into channel space, i.e. as the grid cell the router must
/// reach. This matches Figure 1 of the paper, where pins are drawn directly
/// on cost-array cells.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Pin {
    /// Routing channel the pin connects to.
    pub channel: u16,
    /// Grid column of the pin.
    pub x: u16,
}

impl Pin {
    /// Creates a pin at `(channel, x)`.
    pub const fn new(channel: u16, x: u16) -> Self {
        Pin { channel, x }
    }

    /// The grid cell occupied by this pin.
    #[inline]
    pub fn cell(self) -> GridCell {
        GridCell::new(self.channel, self.x)
    }
}

/// A wire (net) connecting two or more pins.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Wire {
    /// Dense wire identifier.
    pub id: WireId,
    /// The pins of the net, in arbitrary order. Always ≥ 2.
    pub pins: Vec<Pin>,
}

impl Wire {
    /// Creates a wire from its pins.
    ///
    /// # Panics
    /// Panics if fewer than two pins are supplied.
    pub fn new(id: WireId, pins: Vec<Pin>) -> Self {
        assert!(pins.len() >= 2, "wire {id} must have at least 2 pins");
        Wire { id, pins }
    }

    /// The pin with the smallest grid column (ties broken by channel).
    ///
    /// The locality-based assignment heuristic of §4.2 assigns a wire to
    /// the owner processor of its *leftmost pin*.
    pub fn leftmost_pin(&self) -> Pin {
        *self.pins.iter().min_by_key(|p| (p.x, p.channel)).expect("wire has pins")
    }

    /// Bounding box of all pins.
    pub fn bounding_box(&self) -> Rect {
        let mut r = Rect::cell(self.pins[0].cell());
        for p in &self.pins[1..] {
            r.expand_to(p.cell());
        }
        r
    }

    /// Half-perimeter wire length of the pin bounding box.
    ///
    /// This is the *cost measure computed for each wire, based on its
    /// length* used by the `ThresholdCost` assignment strategy (§4.2):
    /// wires with `cost_measure() < threshold` are assigned by locality,
    /// longer wires by load balance.
    pub fn cost_measure(&self) -> u32 {
        let b = self.bounding_box();
        (b.width() - 1) + (b.height() - 1)
    }

    /// Horizontal extent (number of grid columns spanned, inclusive).
    pub(crate) fn x_span(&self) -> u32 {
        self.bounding_box().width()
    }

    /// Number of channels spanned (inclusive).
    pub(crate) fn channel_span(&self) -> u32 {
        self.bounding_box().height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(pins: &[(u16, u16)]) -> Wire {
        Wire::new(0, pins.iter().map(|&(c, x)| Pin::new(c, x)).collect())
    }

    #[test]
    fn leftmost_pin_breaks_ties_by_channel() {
        let wire = w(&[(3, 5), (1, 5), (2, 9)]);
        assert_eq!(wire.leftmost_pin(), Pin::new(1, 5));
    }

    #[test]
    fn bounding_box_covers_all_pins() {
        let wire = w(&[(3, 5), (1, 40), (2, 9)]);
        let b = wire.bounding_box();
        assert_eq!(b, Rect::new(1, 3, 5, 40));
        for p in &wire.pins {
            assert!(b.contains(p.cell()));
        }
    }

    #[test]
    fn cost_measure_is_half_perimeter() {
        // 2 channels and 10 columns spanned -> (10-1)+(2-1) = 10.
        let wire = w(&[(0, 0), (1, 9)]);
        assert_eq!(wire.cost_measure(), 10);
        // Single-cell net degenerate span.
        let wire = w(&[(2, 7), (2, 7)]);
        assert_eq!(wire.cost_measure(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 2 pins")]
    fn wire_requires_two_pins() {
        let _ = Wire::new(0, vec![Pin::new(0, 0)]);
    }
}
