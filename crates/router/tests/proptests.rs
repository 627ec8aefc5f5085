//! Property-based tests for the routing core.

use std::cell::RefCell;

use locus_circuit::{GridCell, Pin, Rect, Wire};
use locus_router::locality::{locality_measure, LocalityMeasure};
use locus_router::router::route_wire;
use locus_router::segment::Connection;
use locus_router::twobend::best_route;
use locus_router::twobend::oracle::{best_route_reference, PerCell};
use locus_router::{CostArray, CostView, RegionMap, Route, Segment};
use proptest::prelude::*;

const CHANNELS: u16 = 6;
const GRIDS: u16 = 32;

fn arb_pin() -> impl Strategy<Value = Pin> {
    (0u16..CHANNELS, 0u16..GRIDS).prop_map(|(c, x)| Pin::new(c, x))
}

fn arb_cost_array() -> impl Strategy<Value = CostArray> {
    arb_cost_array_of(0u16..8)
}

/// A surface whose cells are drawn from `cell`.
fn arb_cost_array_of(cell: impl Strategy<Value = u16>) -> impl Strategy<Value = CostArray> {
    proptest::collection::vec(cell, (CHANNELS as usize) * (GRIDS as usize)).prop_map(|v| {
        let mut a = CostArray::new(CHANNELS, GRIDS);
        let mut i = 0;
        for c in 0..CHANNELS {
            for x in 0..GRIDS {
                a.set(GridCell::new(c, x), v[i]);
                i += 1;
            }
        }
        a
    })
}

/// A view that records every cell it reads through `cost_at` and has no
/// array behind it, so the kernel queries every candidate's spans and
/// the defaults read them cell by cell.
struct CellRecorder<'a> {
    costs: &'a CostArray,
    reads: RefCell<Vec<GridCell>>,
}

impl<'a> CellRecorder<'a> {
    fn new(costs: &'a CostArray) -> Self {
        CellRecorder { costs, reads: RefCell::new(Vec::new()) }
    }
}

impl CostView for CellRecorder<'_> {
    fn channels(&self) -> u16 {
        CostView::channels(self.costs)
    }
    fn grids(&self) -> u16 {
        CostView::grids(self.costs)
    }
    fn cost_at(&self, cell: GridCell) -> u32 {
        self.reads.borrow_mut().push(cell);
        self.costs.cost_at(cell)
    }
}

/// The same recorder with its array exposed: a span, queried or only
/// noted, is recorded as its cells, and a query sums it on the array.
struct SpanRecorder<'a>(CellRecorder<'a>);

impl CostView for SpanRecorder<'_> {
    fn channels(&self) -> u16 {
        self.0.channels()
    }
    fn grids(&self) -> u16 {
        self.0.grids()
    }
    fn cost_at(&self, cell: GridCell) -> u32 {
        self.0.cost_at(cell)
    }
    fn horizontal_cost(&self, channel: u16, x_lo: u16, x_hi: u16) -> u64 {
        self.note_row(channel, x_lo, x_hi);
        self.0.costs.horizontal_cost(channel, x_lo, x_hi)
    }
    fn vertical_cost(&self, x: u16, c_lo: u16, c_hi: u16) -> u64 {
        self.note_column(x, c_lo, c_hi);
        self.0.costs.vertical_cost(x, c_lo, c_hi)
    }
    fn note_row(&self, channel: u16, x_lo: u16, x_hi: u16) {
        self.0.reads.borrow_mut().extend((x_lo..=x_hi).map(|x| GridCell::new(channel, x)));
    }
    fn note_column(&self, x: u16, c_lo: u16, c_hi: u16) {
        self.0.reads.borrow_mut().extend((c_lo..=c_hi).map(|c| GridCell::new(c, x)));
    }
    fn as_array(&self) -> Option<&CostArray> {
        Some(self.0.costs)
    }
}

fn arb_route() -> impl Strategy<Value = Route> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..CHANNELS, 0u16..GRIDS, 0u16..GRIDS)
                .prop_map(|(c, a, b)| Segment::horizontal(c, a, b)),
            (0u16..GRIDS, 0u16..CHANNELS, 0u16..CHANNELS)
                .prop_map(|(x, a, b)| Segment::vertical(x, a, b)),
        ],
        1..5,
    )
    .prop_map(Route::from_segments)
}

proptest! {
    #[test]
    fn best_route_connects_the_pins(a in arb_pin(), b in arb_pin(), costs in arb_cost_array()) {
        let eval = best_route(&costs, Connection { from: a, to: b }, 1);
        let cells = eval.route.cells();
        prop_assert!(cells.binary_search(&a.cell()).is_ok(), "route misses pin {a:?}");
        prop_assert!(cells.binary_search(&b.cell()).is_ok(), "route misses pin {b:?}");
    }

    #[test]
    fn best_route_cost_matches_cells(a in arb_pin(), b in arb_pin(), costs in arb_cost_array()) {
        let eval = best_route(&costs, Connection { from: a, to: b }, 0);
        let recomputed: u64 =
            eval.route.cells().iter().map(|&c| costs.cost_at(c) as u64).sum();
        prop_assert_eq!(eval.cost, recomputed);
    }

    #[test]
    fn best_route_stays_within_overshoot_bounds(
        a in arb_pin(),
        b in arb_pin(),
        overshoot in 0u16..3,
    ) {
        let costs = CostArray::new(CHANNELS, GRIDS);
        let eval = best_route(&costs, Connection { from: a, to: b }, overshoot);
        let bbox = eval.route.bounding_box();
        let c_lo = a.channel.min(b.channel).saturating_sub(overshoot);
        let c_hi = (a.channel.max(b.channel) + overshoot).min(CHANNELS - 1);
        prop_assert!(bbox.c_lo >= c_lo && bbox.c_hi <= c_hi, "route escaped channel window");
        prop_assert!(bbox.x_lo >= a.x.min(b.x) && bbox.x_hi <= a.x.max(b.x));
    }

    #[test]
    fn best_route_is_no_worse_than_l_routes(
        a in arb_pin(),
        b in arb_pin(),
        costs in arb_cost_array(),
    ) {
        // The two L-shaped routes are always in the candidate set, so the
        // winner can never cost more than either.
        let eval = best_route(&costs, Connection { from: a, to: b }, 0);
        if a.channel != b.channel && a.x != b.x {
            let l1 = Route::from_segments(vec![
                Segment::horizontal(a.channel, a.x, b.x),
                Segment::vertical(b.x, a.channel, b.channel),
            ]);
            let l2 = Route::from_segments(vec![
                Segment::vertical(a.x, a.channel, b.channel),
                Segment::horizontal(b.channel, a.x, b.x),
            ]);
            prop_assert!(eval.cost <= costs.route_cost(&l1));
            prop_assert!(eval.cost <= costs.route_cost(&l2));
        }
    }

    #[test]
    fn add_remove_route_restores_array(base in arb_cost_array(), route in arb_route()) {
        let mut a = base.clone();
        a.add_route(&route);
        for &cell in route.cells() {
            prop_assert_eq!(a.get(cell), base.get(cell) + 1);
        }
        a.remove_route(&route);
        prop_assert_eq!(a, base);
    }

    #[test]
    fn route_cells_are_sorted_and_unique(route in arb_route()) {
        let cells = route.cells();
        prop_assert!(cells.windows(2).all(|w| w[0] < w[1]));
        // Every segment cell appears in the deduplicated cover.
        for s in route.segments() {
            for cell in s.cells() {
                prop_assert!(cells.binary_search(&cell).is_ok());
            }
        }
    }

    #[test]
    fn route_wire_covers_every_pin(
        pins in proptest::collection::vec(arb_pin(), 2..6),
        costs in arb_cost_array(),
    ) {
        let wire = Wire::new(0, pins.clone());
        let eval = route_wire(&costs, &wire, 1);
        for pin in &pins {
            prop_assert!(
                eval.route.cells().binary_search(&pin.cell()).is_ok(),
                "pin {pin:?} not covered"
            );
        }
    }

    #[test]
    fn optimized_evaluator_matches_reference(
        a in arb_pin(),
        b in arb_pin(),
        costs in prop_oneof![arb_cost_array(), arb_cost_array_of(0..=u16::MAX)],
        overshoot in 0u16..4,
    ) {
        // The span-arithmetic kernel must be bit-for-bit equivalent to the
        // retained cell-list evaluator: same route, cost, candidate count,
        // and cells-examined work measure. Checked both through the
        // slice-sum fast path and the per-cell default path.
        let conn = Connection { from: a, to: b };
        let reference = best_route_reference(&costs, conn, overshoot);
        let fast = best_route(&costs, conn, overshoot);
        let slow = best_route(&PerCell(&costs), conn, overshoot);
        for eval in [fast, slow] {
            prop_assert_eq!(&eval.route, &reference.route);
            prop_assert_eq!(eval.cost, reference.cost);
            prop_assert_eq!(eval.candidates, reference.candidates);
            prop_assert_eq!(eval.cells_examined, reference.cells_examined);
        }
    }

    #[test]
    fn an_array_backed_view_records_the_per_cell_read_sequence(
        a in arb_pin(),
        b in arb_pin(),
        costs in prop_oneof![arb_cost_array(), arb_cost_array_of(0..=u16::MAX)],
        overshoot in 0u16..4,
    ) {
        // The jog sweep notes every candidate's spans on a view with an
        // array behind it; a view that records them there reads, cell for
        // cell, what a view recording only `cost_at` reads through the
        // per-candidate loop, and both evaluate alike.
        let conn = Connection { from: a, to: b };
        let swept = SpanRecorder(CellRecorder::new(&costs));
        let queried = CellRecorder::new(&costs);
        let (fast, slow) =
            (best_route(&swept, conn, overshoot), best_route(&queried, conn, overshoot));
        prop_assert_eq!(swept.0.reads.take(), queried.reads.take());
        prop_assert_eq!(&fast.route, &slow.route);
        prop_assert_eq!(fast.cost, slow.cost);
        prop_assert_eq!(fast.candidates, slow.candidates);
        prop_assert_eq!(fast.cells_examined, slow.cells_examined);
    }

    #[test]
    fn span_queries_and_heights_match_naive_sums_under_interleaved_writes(
        base in arb_cost_array(),
        ops in proptest::collection::vec(
            prop_oneof![
                // set
                (0u16..CHANNELS, 0u16..GRIDS, 0u16..12)
                    .prop_map(|(c, x, v)| (0u8, c, x, v as i32)),
                // add (possibly saturating)
                (0u16..CHANNELS, 0u16..GRIDS, -4i32..8)
                    .prop_map(|(c, x, d)| (1u8, c, x, d)),
                // install a rect of a constant value
                (0u16..CHANNELS, 0u16..CHANNELS, 0u16..GRIDS, 0u16..GRIDS, 0u16..6)
                    .prop_map(|(c1, c2, x1, x2, v)| (2u8, c1.min(c2), x1.min(x2), v as i32)),
                // apply_deltas over a rect
                (0u16..CHANNELS, 0u16..GRIDS, -2i32..4)
                    .prop_map(|(c, x, d)| (3u8, c, x, d)),
                // add_route / remove_route
                (0u16..CHANNELS, 0u16..GRIDS, 0u16..GRIDS)
                    .prop_map(|(c, x1, x2)| (4u8, c, x1.min(x2), x2.max(x1) as i32)),
                // commit_route of a hand-built route (5) or of a best_route
                // winner (6), from (c, x) to the channel and column packed
                // in the last field
                (5u8..7, 0u16..CHANNELS, 0u16..GRIDS, 0u16..CHANNELS, 0u16..GRIDS)
                    .prop_map(|(op, c, x, c2, x2)| (op, c, x, (c2 as i32) << 16 | x2 as i32)),
            ],
            1..40,
        ),
    ) {
        // Ground truth is the array's own `get`; span and track queries
        // are interleaved with every flavour of mutation.
        let mut array = base.clone();
        let mut route_stack: Vec<Route> = Vec::new();
        for (i, &(op, c, x, v)) in ops.iter().enumerate() {
            match op {
                0 => array.set(GridCell::new(c, x), v as u16),
                1 => array.add(GridCell::new(c, x), v),
                2 => {
                    let rect = Rect::new(c, (c + 2).min(CHANNELS - 1), x, (x + 3).min(GRIDS - 1));
                    let vals = vec![v as u16; rect.area() as usize];
                    array.install(rect, &vals);
                }
                3 => {
                    let rect = Rect::new(c, (c + 1).min(CHANNELS - 1), x, (x + 2).min(GRIDS - 1));
                    let deltas = vec![v as i16; rect.area() as usize];
                    array.apply_deltas(rect, &deltas);
                }
                4 => {
                    let route = Route::from_segments(vec![
                        Segment::horizontal(c, x, v as u16),
                    ]);
                    if i % 2 == 0 {
                        array.add_route(&route);
                        route_stack.push(route);
                    } else if let Some(prev) = route_stack.pop() {
                        array.remove_route(&prev);
                    }
                }
                _ => {
                    let (c2, x2) = ((v >> 16) as u16, v as u16);
                    let route = if op == 5 {
                        Route::from_segments(vec![
                            Segment::horizontal(c, x, x2),
                            Segment::vertical(x2, c, c2),
                        ])
                    } else {
                        let k = Connection { from: Pin::new(c, x), to: Pin::new(c2, x2) };
                        best_route(&array, k, 1).route
                    };
                    let mut added = array.clone();
                    added.add_route(&route);
                    let before = array.route_cost(&route);
                    prop_assert_eq!(array.commit_route(&route), before);
                    prop_assert_eq!(&array, &added);
                    route_stack.push(route);
                }
            }
            let naive_h: u64 = (0..GRIDS).map(|xx| array.get(GridCell::new(c, xx)) as u64).sum();
            prop_assert_eq!(array.horizontal_cost(c, 0, GRIDS - 1), naive_h);
            let naive_v: u64 = (0..CHANNELS).map(|cc| array.get(GridCell::new(cc, x)) as u64).sum();
            prop_assert_eq!(array.vertical_cost(x, 0, CHANNELS - 1), naive_v);
            let naive_max = (0..GRIDS).map(|xx| array.get(GridCell::new(c, xx))).max().unwrap();
            prop_assert_eq!(array.channel_tracks(c), naive_max);
        }
        // Final state: every span agrees with a fresh per-cell scan.
        for c in 0..CHANNELS {
            let naive: u64 = (0..GRIDS).map(|x| array.get(GridCell::new(c, x)) as u64).sum();
            prop_assert_eq!(array.horizontal_cost(c, 0, GRIDS - 1), naive);
        }
        for x in 0..GRIDS {
            let naive: u64 = (0..CHANNELS).map(|c| array.get(GridCell::new(c, x)) as u64).sum();
            prop_assert_eq!(array.vertical_cost(x, 0, CHANNELS - 1), naive);
        }
        let naive_height: u64 = (0..CHANNELS)
            .map(|c| (0..GRIDS).map(|x| array.get(GridCell::new(c, x))).max().unwrap() as u64)
            .sum();
        prop_assert_eq!(array.circuit_height(), naive_height);
    }

    #[test]
    fn rect_writes_match_the_per_cell_oracle(
        base in arb_cost_array(),
        ops in proptest::collection::vec(
            prop_oneof![
                // install / apply_deltas over a rect of up to 3 x 6 cells,
                // every cell its own value; -9 saturates any base cell.
                (any::<bool>(), 0u16..CHANNELS, 0u16..GRIDS, 0u16..3, 0u16..6,
                    proptest::collection::vec(-9i32..9, 18))
                    .prop_map(|(install, c, x, h, w, vals)| {
                        (if install { 0u8 } else { 1u8 }, c, x, h, w, vals)
                    }),
                // Span queries that stop short of the line's end; then a
                // row maximum.
                (0u16..CHANNELS, 0u16..GRIDS, 0u16..CHANNELS, 0u16..GRIDS)
                    .prop_map(|(c, x, c2, x2)| (2u8, c, x, c2, x2, Vec::new())),
            ],
            1..40,
        ),
    ) {
        // `batched` takes whole rects; `oracle` the same values one
        // `set`/`add` at a time. Cells and query results must never differ.
        let mut batched = base.clone();
        let mut oracle = base.clone();
        for (i, (op, c, x, h, w, vals)) in ops.iter().enumerate() {
            let (c, x) = (*c, *x);
            if *op == 2 {
                let (c2, x2) = (*h, *w);
                let (xl, xr, cl, ch) = (x.min(x2), x.max(x2), c.min(c2), c.max(c2));
                prop_assert_eq!(batched.horizontal_cost(c, xl, xr), oracle.horizontal_cost(c, xl, xr));
                prop_assert_eq!(batched.vertical_cost(x, cl, ch), oracle.vertical_cost(x, cl, ch));
                prop_assert_eq!(batched.channel_tracks(c2), oracle.channel_tracks(c2));
            } else {
                let rect = Rect::new(c, (c + h).min(CHANNELS - 1), x, (x + w).min(GRIDS - 1));
                let vals = &vals[..rect.area() as usize];
                if *op == 0 {
                    let vals: Vec<u16> = vals.iter().map(|v| v.unsigned_abs() as u16).collect();
                    batched.install(rect, &vals);
                    for (cell, &v) in rect.cells().zip(&vals) {
                        oracle.set(cell, v);
                    }
                } else {
                    let deltas: Vec<i16> = vals.iter().map(|&v| v as i16).collect();
                    batched.apply_deltas(rect, &deltas);
                    for (cell, &d) in rect.cells().zip(&deltas) {
                        oracle.add(cell, d as i32);
                    }
                }
            }
            prop_assert_eq!(&batched, &oracle, "cells differ after op {}", i);
        }
        prop_assert_eq!(batched.circuit_height(), oracle.circuit_height());
    }

    #[test]
    fn region_map_partitions_exactly(
        channels in 4u16..16,
        grids in 8u16..64,
        procs in 1usize..8,
    ) {
        prop_assume!(channels as usize >= procs && grids as usize >= procs);
        let m = RegionMap::new(channels, grids, procs);
        let mut covered = 0u64;
        for p in 0..m.n_procs() {
            covered += m.region(p).area();
            // The region's cells all map back to p.
            for cell in m.region(p).cells() {
                prop_assert_eq!(m.owner_of(cell), p, "{}", cell);
            }
        }
        prop_assert_eq!(covered, channels as u64 * grids as u64);
    }

    #[test]
    fn mesh_distance_zero_iff_same_proc(
        procs in 2usize..10,
    ) {
        let m = RegionMap::new(16, 64, procs);
        for a in 0..m.n_procs() {
            for b in 0..m.n_procs() {
                let d = m.mesh_distance(a, b);
                prop_assert_eq!(d == 0, a == b);
                prop_assert_eq!(d, m.mesh_distance(b, a));
            }
        }
    }
}

/// One end of a small window anywhere in the `u16` plane, the first and
/// last coordinates included.
fn arb_window_start() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0u16), Just(u16::MAX - 11), any::<u16>()]
}

/// 1–40 segments packed into a 6-channel × 12-column window, so they
/// overlap, touch end to end, repeat, and cross each other's runs with
/// feedthroughs; the window may end at `u16::MAX` in either dimension.
fn arb_crowded_segments() -> impl Strategy<Value = Vec<Segment>> {
    let piece = (0u8..5, 0u16..6, 0u16..6, 0u16..12, 0u16..12);
    (arb_window_start(), arb_window_start(), proptest::collection::vec(piece, 1..=40)).prop_map(
        |(c0, x0, pieces)| {
            let mut segments: Vec<Segment> = Vec::with_capacity(pieces.len());
            for (kind, ca, cb, xa, xb) in pieces {
                let (ca, cb) = (c0.saturating_add(ca), c0.saturating_add(cb));
                let (xa, xb) = (x0.saturating_add(xa), x0.saturating_add(xb));
                let segment = match (kind, segments.last()) {
                    (0, Some(&last)) => last,
                    (1 | 2, _) => Segment::horizontal(ca, xa, xb),
                    _ => Segment::vertical(xa, ca, cb),
                };
                segments.push(segment);
            }
            segments
        },
    )
}

/// The cover by its definition: every segment's cells, sorted and
/// deduplicated.
fn cover_by_sorting(segments: &[Segment]) -> Vec<GridCell> {
    let mut cells: Vec<GridCell> = segments.iter().flat_map(Segment::cells).collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// The locality measure one cell at a time: an owner lookup per cell.
fn locality_per_cell(routes: &[Route], procs: &[usize], m: &RegionMap) -> LocalityMeasure {
    let (mut cells, mut hops, mut owned) = (0u64, 0u64, 0u64);
    for (route, &p) in routes.iter().zip(procs) {
        for &cell in route.cells() {
            let d = m.mesh_distance(p, m.owner_of(cell)) as u64;
            cells += 1;
            hops += d;
            owned += u64::from(d == 0);
        }
    }
    LocalityMeasure {
        mean_hops: if cells == 0 { 0.0 } else { hops as f64 / cells as f64 },
        total_cells: cells,
        owned_fraction: if cells == 0 { 1.0 } else { owned as f64 / cells as f64 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn route_cover_from_runs_matches_sorting_every_cell(segments in arb_crowded_segments()) {
        let route = Route::from_segments(segments.clone());
        prop_assert_eq!(route.cells(), cover_by_sorting(&segments).as_slice());
        prop_assert_eq!(route.segments(), segments.as_slice());
    }

    #[test]
    fn locality_by_runs_matches_the_per_cell_loop(
        channels in 4u16..24,
        grids in 4u16..400,
        procs in prop_oneof![Just(1usize), Just(4), Just(9), Just(16)],
        raw in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), any::<u16>(), any::<u16>(), any::<u16>()), 1..6),
            0..30,
        ),
        owners in proptest::collection::vec(any::<usize>(), 30),
    ) {
        let m = RegionMap::new(channels, grids, procs);
        let routes: Vec<Route> = raw
            .iter()
            .map(|pieces| {
                Route::from_segments(
                    pieces
                        .iter()
                        .map(|&(horizontal, a, b, k)| {
                            if horizontal {
                                Segment::horizontal(k % channels, a % grids, b % grids)
                            } else {
                                Segment::vertical(k % grids, a % channels, b % channels)
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let proc_of_wire: Vec<usize> = owners[..routes.len()].iter().map(|p| p % procs).collect();
        let by_runs = locality_measure(&routes, &proc_of_wire, &m);
        let by_cell = locality_per_cell(&routes, &proc_of_wire, &m);
        prop_assert_eq!(by_runs.total_cells, by_cell.total_cells);
        prop_assert_eq!(by_runs.mean_hops.to_bits(), by_cell.mean_hops.to_bits());
        prop_assert_eq!(by_runs.owned_fraction.to_bits(), by_cell.owned_fraction.to_bits());
    }
}
