//! Multi-pin wire decomposition into two-pin connections.
//!
//! LocusRoute routes a multi-pin wire as a chain of two-pin connections.
//! We sort the pins left-to-right (ties by channel) and connect
//! consecutive pairs, which matches the left-to-right sweep implied by the
//! paper's "leftmost pin" assignment heuristic and keeps every connection
//! within the wire's bounding box.

use locus_circuit::{Pin, Wire};

/// An ordered two-pin connection to be routed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Connection {
    /// Source pin (left of, or equal-x to, `to`).
    pub from: Pin,
    /// Destination pin.
    pub to: Pin,
}

/// Decomposes `wire` into the chain of connections LocusRoute routes,
/// written into `out` using `pins` as sort scratch. Both buffers are
/// cleared first; at steady state (buffers reused across wires, as in
/// [`crate::router::EvalScratch`]) no allocation occurs.
///
/// Duplicate pins (same cell) are collapsed first; a wire whose pins all
/// coincide yields a single degenerate connection so it still occupies its
/// cell in the cost array.
pub(crate) fn decompose_into(wire: &Wire, pins: &mut Vec<Pin>, out: &mut Vec<Connection>) {
    pins.clear();
    pins.extend_from_slice(&wire.pins);
    pins.sort_unstable_by_key(|p| (p.x, p.channel));
    pins.dedup();
    out.clear();
    if pins.len() == 1 {
        out.push(Connection { from: pins[0], to: pins[0] });
        return;
    }
    out.extend(pins.windows(2).map(|w| Connection { from: w[0], to: w[1] }));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// [`decompose_into`] with buffers of its own.
    pub(crate) fn decompose(wire: &Wire) -> Vec<Connection> {
        let mut pins = Vec::new();
        let mut out = Vec::new();
        decompose_into(wire, &mut pins, &mut out);
        out
    }

    fn wire(pins: &[(u16, u16)]) -> Wire {
        Wire::new(0, pins.iter().map(|&(c, x)| Pin::new(c, x)).collect())
    }

    #[test]
    fn two_pin_wire_single_connection() {
        let conns = decompose(&wire(&[(2, 9), (0, 1)]));
        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0].from, Pin::new(0, 1));
        assert_eq!(conns[0].to, Pin::new(2, 9));
    }

    #[test]
    fn multi_pin_wire_chains_left_to_right() {
        let conns = decompose(&wire(&[(1, 20), (3, 5), (0, 12)]));
        assert_eq!(conns.len(), 2);
        assert_eq!(conns[0].from, Pin::new(3, 5));
        assert_eq!(conns[0].to, Pin::new(0, 12));
        assert_eq!(conns[1].from, Pin::new(0, 12));
        assert_eq!(conns[1].to, Pin::new(1, 20));
    }

    #[test]
    fn equal_x_pins_ordered_by_channel() {
        let conns = decompose(&wire(&[(3, 5), (1, 5)]));
        assert_eq!(conns[0].from, Pin::new(1, 5));
        assert_eq!(conns[0].to, Pin::new(3, 5));
    }

    #[test]
    fn duplicate_pins_collapse() {
        let conns = decompose(&wire(&[(1, 5), (1, 5), (2, 8)]));
        assert_eq!(conns.len(), 1);
    }

    #[test]
    fn fully_coincident_wire_yields_degenerate_connection() {
        let conns = decompose(&wire(&[(1, 5), (1, 5)]));
        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0].from, conns[0].to);
    }

    #[test]
    fn connection_count_is_pins_minus_one() {
        let w = wire(&[(0, 1), (1, 4), (2, 9), (3, 15), (1, 30)]);
        assert_eq!(decompose(&w).len(), 4);
    }
}
