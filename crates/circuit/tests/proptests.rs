//! Property-based tests for the circuit model.

use locus_circuit::format::{from_text, to_text};
use locus_circuit::{
    presets, Circuit, CircuitError, CircuitGenerator, GeneratorConfig, GridCell, Pin, Rect, Wire,
};
use proptest::prelude::*;

/// Strategy: an arbitrary valid rectangle within a 64x64 surface.
fn arb_rect() -> impl Strategy<Value = Rect> {
    (0u16..64, 0u16..64, 0u16..64, 0u16..64)
        .prop_map(|(c1, c2, x1, x2)| Rect::new(c1.min(c2), c1.max(c2), x1.min(x2), x1.max(x2)))
}

/// Strategy: an arbitrary valid circuit (2..6 channels, 8..40 grids,
/// 1..12 wires with 2..5 in-range pins).
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2u16..6, 8u16..40).prop_flat_map(|(channels, grids)| {
        let pin = (0..channels, 0..grids).prop_map(|(c, x)| Pin::new(c, x));
        let wire = proptest::collection::vec(pin, 2..5);
        proptest::collection::vec(wire, 1..12).prop_map(move |wires| {
            let wires =
                wires.into_iter().enumerate().map(|(id, pins)| Wire::new(id, pins)).collect();
            Circuit::new("prop", channels, grids, wires).expect("constructed valid")
        })
    })
}

/// Strategy: a name of up to seven printable characters. ASCII includes
/// the space and `#` the text format cannot carry; Latin-1 and the CJK
/// symbol block each add one character Unicode counts as whitespace.
fn arb_name() -> impl Strategy<Value = String> {
    let ch = prop_oneof![0x20u32..0x7f, 0x20u32..0x7f, 0xa0u32..0x100, 0x3000u32..0x3040];
    proptest::collection::vec(ch, 0..8)
        .prop_map(|chars| chars.into_iter().filter_map(char::from_u32).collect())
}

/// A header whose counts overflow `u16` and records whose numbers
/// overflow `u16` and `usize`, for the mutation test below.
const OVERFLOWING: &str = "circuit big channels 65536 grids 70000\n\
    wire 0 : (0,1) (99999,20)\nwire 18446744073709551616 : (0,0) (1,1)\n";

/// The bytes the grammar gives meaning to; a `replace` edit writes one.
const MEANINGFUL: &[u8] = b"(),:#\n 0123456789";

/// Strategy: up to five byte-level edits, each `(kind, position, byte)`.
fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    proptest::collection::vec((0u8..4, any::<usize>(), any::<usize>()), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// 10 000 seeded mutations of each text: delete, duplicate, replace
    /// with a byte the grammar gives meaning to, truncate. The parser
    /// answers every one with `Ok` or `Err`; a panic fails the case.
    #[test]
    fn parser_never_panics_on_mutated_text(edits in arb_edits()) {
        for base in [to_text(&presets::tiny()), OVERFLOWING.to_string()] {
            let mut bytes = base.into_bytes();
            for &(kind, position, byte) in &edits {
                if bytes.is_empty() {
                    break;
                }
                let at = position % bytes.len();
                match kind {
                    0 => {
                        bytes.remove(at);
                    }
                    1 => bytes.insert(at, bytes[at]),
                    2 => bytes[at] = MEANINGFUL[byte % MEANINGFUL.len()],
                    _ => bytes.truncate(at),
                }
            }
            let text = String::from_utf8(bytes).expect("ASCII in, ASCII edits");
            let _ = from_text(&text);
        }
    }
}

proptest! {
    #[test]
    fn rect_intersection_is_contained_in_both(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersection(&b) {
            for cell in i.cells() {
                prop_assert!(a.contains(cell) && b.contains(cell));
            }
            prop_assert!(i.area() <= a.area() && i.area() <= b.area());
        }
    }

    #[test]
    fn rect_union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.area() >= a.area() && u.area() >= b.area());
        for cell in a.cells().chain(b.cells()) {
            prop_assert!(u.contains(cell));
        }
    }

    #[test]
    fn rect_area_equals_cell_count(a in arb_rect()) {
        prop_assert_eq!(a.cells().count() as u64, a.area());
    }

    #[test]
    fn rect_intersects_iff_intersection_exists(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersects(&b), a.intersection(&b).is_some());
    }

    #[test]
    fn manhattan_is_symmetric_and_triangle(
        a in (0u16..64, 0u16..64),
        b in (0u16..64, 0u16..64),
        c in (0u16..64, 0u16..64),
    ) {
        let (pa, pb, pc) = (
            GridCell::new(a.0, a.1),
            GridCell::new(b.0, b.1),
            GridCell::new(c.0, c.1),
        );
        prop_assert_eq!(pa.manhattan(pb), pb.manhattan(pa));
        prop_assert!(pa.manhattan(pc) <= pa.manhattan(pb) + pb.manhattan(pc));
    }

    #[test]
    fn text_format_roundtrips(c in arb_circuit()) {
        let text = to_text(&c);
        let parsed = from_text(&text).expect("emitted text must parse");
        prop_assert_eq!(parsed.channels, c.channels);
        prop_assert_eq!(parsed.grids, c.grids);
        prop_assert_eq!(parsed.wires, c.wires);
    }

    /// `Circuit::new` accepts a name exactly when the text format carries
    /// it; `Circuit { .. }` skips the check to ask the format directly.
    #[test]
    fn new_accepts_exactly_the_names_the_text_format_carries(
        c in arb_circuit(),
        name in arb_name(),
    ) {
        let named = Circuit { name, ..c };
        let parsed = from_text(&to_text(&named));
        match Circuit::new(named.name.clone(), named.channels, named.grids, named.wires.clone()) {
            Ok(_) => {
                let parsed = parsed.expect("emitted text must parse");
                prop_assert_eq!(parsed.name, named.name);
                prop_assert_eq!((parsed.channels, parsed.grids), (named.channels, named.grids));
                prop_assert_eq!(parsed.wires, named.wires);
            }
            Err(err) => {
                prop_assert_eq!(err, CircuitError::UnwritableName { name: named.name.clone() });
                prop_assert!(parsed.map_or(true, |p| p.name != named.name), "{:?}", named.name);
            }
        }
    }

    #[test]
    fn wire_bounding_box_contains_all_pins(c in arb_circuit()) {
        for wire in &c.wires {
            let b = wire.bounding_box();
            for pin in &wire.pins {
                prop_assert!(b.contains(pin.cell()));
            }
            prop_assert!(b.contains(wire.leftmost_pin().cell()));
            // No pin lies left of the leftmost pin.
            for pin in &wire.pins {
                prop_assert!(pin.x >= wire.leftmost_pin().x);
            }
        }
    }

    #[test]
    fn generator_produces_valid_circuits(
        channels in 3u16..12,
        grids in 16u16..128,
        n_wires in 1usize..80,
        seed in any::<u64>(),
    ) {
        let cfg = GeneratorConfig::for_surface("prop", channels, grids, n_wires, seed);
        let c = CircuitGenerator::new(cfg).generate();
        prop_assert!(c.validate().is_ok());
        prop_assert_eq!(c.wire_count(), n_wires);
    }

    #[test]
    fn cost_measure_bounded_by_surface(c in arb_circuit()) {
        for wire in &c.wires {
            prop_assert!(
                wire.cost_measure() <= (c.grids as u32 - 1) + (c.channels as u32 - 1)
            );
        }
    }
}
