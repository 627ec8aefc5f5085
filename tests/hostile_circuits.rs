//! Hostile circuits route or fail by name: every circuit that `from_text`
//! accepts either routes every wire on every registered engine, or the
//! engine returns an error saying why.
//!
//! The circuits are written as text with edge values: 1 to 8 channels,
//! 1 to the largest grid count drawn, pins at 0 or at the last channel
//! and grid, and 0 to 23 wires of 2 to 5 pins. Each runs on every engine
//! at 1 to 16 processors with traffic measured. A debug build draws
//! [`CASES`] circuits of at most 256 grids; a release build draws 1 000
//! of up to 2 047 grids:
//! `cargo test --release -p locusroute --test hostile_circuits`.

use locusroute::circuit::format::{from_text, to_text};
use locusroute::circuit::{GridCell, Pin};
use locusroute::engines::registry;
use locusroute::router::RouterParams;
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 1_000 };

/// The most grids a drawn circuit has.
const MAX_GRIDS: u16 = if cfg!(debug_assertions) { 256 } else { 2_047 };

/// One coordinate of `0..n`: the first, the last or any, as `pick` says.
fn edge(pick: u8, raw: u16, n: u16) -> u16 {
    match pick {
        0 => 0,
        1 => n - 1,
        _ => raw % n,
    }
}

/// A pin as `(channel pick, channel, grid pick, grid)`.
type RawPin = (u8, u16, u8, u16);

/// The circuit's text: `channels` by `grids`, and each wire's pins.
fn circuit_text(channels: u16, grids: u16, wires: &[Vec<RawPin>]) -> String {
    let mut text = format!("circuit hostile channels {channels} grids {grids}\n");
    for (id, pins) in wires.iter().enumerate() {
        text.push_str(&format!("wire {id} :"));
        for &(cp, c, gp, g) in pins {
            text.push_str(&format!(" ({},{})", edge(cp, c, channels), edge(gp, g, grids)));
        }
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn hostile_circuits_route_every_wire_or_fail_by_name(
        channels in prop_oneof![Just(1u16), Just(8u16), 1u16..=8],
        grids in prop_oneof![Just(1u16), Just(2u16), Just(MAX_GRIDS), 1u16..=MAX_GRIDS],
        wires in proptest::collection::vec(
            proptest::collection::vec((0u8..3, any::<u16>(), 0u8..3, any::<u16>()), 2..=5),
            0..=23,
        ),
        procs in prop_oneof![Just(1usize), Just(16usize), 1usize..=16],
    ) {
        let text = circuit_text(channels, grids, &wires);
        let circuit = from_text(&text).unwrap_or_else(|err| panic!("{err}:\n{text}"));
        prop_assert_eq!(to_text(&circuit), text.clone());
        let params = RouterParams::default();
        for entry in registry() {
            let case = format!("{} at {procs} processors on\n{text}", entry.name);
            match (entry.run)(&circuit, &params, procs, true) {
                Ok(run) => {
                    let routes = &run.outcome.routes;
                    prop_assert_eq!(routes.len(), circuit.wire_count(), "{}", case);
                    for (wire, route) in circuit.wires.iter().zip(routes) {
                        let reached = |p: &Pin| {
                            route.cells().binary_search(&GridCell::new(p.channel, p.x)).is_ok()
                        };
                        prop_assert!(wire.pins.iter().all(reached), "wire {}: {}", wire.id, case);
                    }
                }
                Err(err) => prop_assert!(!err.is_empty(), "an unnamed error: {}", case),
            }
        }
    }
}
