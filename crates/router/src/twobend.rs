//! Two-bend ("locus") candidate route enumeration and evaluation.
//!
//! For a two-pin connection LocusRoute evaluates the family of routes with
//! at most two bends and picks the one with the minimal sum of cost-array
//! entries (§3). For pins `(c1,x1)` and `(c2,x2)` the candidates are:
//!
//! * **HVH** — run along channel `c1` to an intermediate column `xm`,
//!   feed through vertically to channel `c2`, run to `x2`; one candidate
//!   per `xm` in the pin bounding box.
//! * **VHV** — feed through at `x1` to an intermediate channel `cm`, run
//!   horizontally to `x2`, feed through to `c2`; one candidate per `cm` in
//!   the bounding box, optionally widened by
//!   [`RouterParams::channel_overshoot`](crate::RouterParams) channels so
//!   a wire can dodge a congested channel.
//!
//! Ties are broken toward the earliest-enumerated candidate (HVH sweep by
//! ascending `xm`, then VHV by ascending `cm`), making routing fully
//! deterministic for a given cost-array state.
//!
//! # The evaluation kernel
//!
//! [`best_route_into`] never materializes candidate routes. Each candidate
//! is decomposed into *disjoint* row/column spans covering exactly its
//! deduplicated cell set, costed through [`CostView::horizontal_cost`] /
//! [`CostView::vertical_cost`]; only the winner is rebuilt as segments at
//! the end. The spans are emitted in the candidate's sorted-cell order, so
//! against a view using the per-cell default span implementations the
//! cell-read sequence, and hence `cells_examined`, is byte-identical to
//! the historical cell-list evaluator, which the tests keep as their
//! oracle (the hidden `oracle` module below). A view that records each
//! span query's cells in span order (the shmem emulator's traced view
//! records them as one run of addresses) sees the same sequence. When the
//! view has an array behind it ([`CostView::as_array`]), the HVH jog
//! sweep sums the two pin rows once instead: as the jog moves right, one
//! horizontal run grows by a cell and the other shrinks by one, so the
//! whole sweep is one zipped pass over two row slices. It still tells
//! the view every candidate's spans, in the per-candidate order, through
//! [`CostView::note_row`] and [`CostView::note_column`]; a recording view
//! records them there, so its trace is the per-cell evaluator's while its
//! sums cost O(W) a connection, not O(W²). On a plain [`CostArray`] the
//! hooks are empty.

use locus_circuit::GridCell;

use crate::cost_array::{CostArray, CostView};
use crate::route::{Route, Segment};
use crate::segment::Connection;

/// Result of evaluating the candidate set for one connection.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The minimal-cost route.
    pub route: Route,
    /// Its cost (sum of cost-array entries over its cells) at evaluation
    /// time, *excluding* the wire itself.
    pub cost: u64,
    /// Number of candidate routes examined.
    pub candidates: usize,
    /// Total cells examined over all candidates — the work measure that
    /// drives the execution-time model of the simulators.
    pub cells_examined: u64,
}

/// The numbers of a winning candidate, without the route itself.
#[derive(Clone, Copy, Debug)]
pub struct EvalCore {
    /// Cost of the winning route at evaluation time.
    pub cost: u64,
    /// Number of candidate routes examined.
    pub candidates: usize,
    /// Total (deduplicated, per candidate) cells examined.
    pub cells_examined: u64,
}

/// Identity of a winning candidate; enough to rebuild its segments.
#[derive(Clone, Copy, Debug)]
enum Winner {
    /// Same channel: the direct horizontal run.
    DirectH,
    /// Same column, different channels: the direct feedthrough.
    DirectV,
    /// HVH with jog column `xm`.
    Hvh { xm: u16 },
    /// VHV with crossing channel `cm`.
    Vhv { cm: u16 },
}

/// Segments of a two-bend route, at most.
pub(crate) const MAX_SEGMENTS: usize = 3;

/// The summed segment lengths of any candidate for `conn`, at most:
/// `dx + dc + 3` for an HVH route, and `dx + dc + 2 · channel_overshoot +
/// 3` for a VHV one, whose crossing channel lies at most
/// `channel_overshoot` outside the pins' channels. A route's cover is no
/// longer than its segments.
pub(crate) fn max_cover(conn: Connection, channel_overshoot: u16) -> usize {
    let dx = conn.from.x.abs_diff(conn.to.x) as usize;
    let dc = conn.from.channel.abs_diff(conn.to.channel) as usize;
    dx + dc + 2 * channel_overshoot as usize + 3
}

/// Cells covered by an inclusive span.
#[inline]
fn span(lo: u16, hi: u16) -> u64 {
    (hi - lo) as u64 + 1
}

/// Evaluates all two-bend candidates for `conn` against `view`, appends
/// the winning candidate's segments to `out` (which is *not* cleared:
/// [`crate::router::route_wire_scratch`] accumulates a whole wire into
/// one buffer), and returns the evaluation numbers.
///
/// Performs no allocations beyond what `out` may need to grow.
pub fn best_route_into<V: CostView + ?Sized>(
    view: &V,
    conn: Connection,
    channel_overshoot: u16,
    out: &mut Vec<Segment>,
) -> EvalCore {
    let (c1, x1) = (conn.from.channel, conn.from.x);
    let (c2, x2) = (conn.to.channel, conn.to.x);

    let mut best_cost = 0u64;
    let mut winner: Option<Winner> = None;
    let mut candidates = 0usize;
    let mut cells_examined = 0u64;

    // Takes `n` candidates covering `cells` cells in all, of which the
    // first cheapest costs `cost`.
    let mut consider = |cost: u64, cells: u64, n: usize, w: Winner| {
        cells_examined += cells;
        candidates += n;
        if winner.is_none() || cost < best_cost {
            best_cost = cost;
            winner = Some(w);
        }
    };

    if c1 == c2 {
        // Direct horizontal run (all HVH candidates coincide).
        let (lo, hi) = (x1.min(x2), x1.max(x2));
        consider(view.horizontal_cost(c1, lo, hi), span(lo, hi), 1, Winner::DirectH);
    } else {
        // HVH: one candidate per jog column in the bounding box. Reads per
        // candidate, in sorted (channel, x) order: the lower channel's run,
        // the feedthrough's interior channels, the upper channel's run.
        let (x_lo, x_hi) = (x1.min(x2), x1.max(x2));
        let (ca, xa, cb, xb) = if c1 < c2 { (c1, x1, c2, x2) } else { (c2, x2, c1, x1) };
        let interior = (cb - ca) as u64 - 1;
        if let Some(array) = view.as_array() {
            let n = span(x_lo, x_hi);
            let (cost, xm) = hvh_sweep(view, array, (ca, xa), (cb, xb), x_lo, x_hi);
            consider(cost, n * (n + 1 + interior), n as usize, Winner::Hvh { xm });
        } else {
            for xm in x_lo..=x_hi {
                let mut cost = view.horizontal_cost(ca, xa.min(xm), xa.max(xm));
                if interior > 0 {
                    cost += view.vertical_cost(xm, ca + 1, cb - 1);
                }
                cost += view.horizontal_cost(cb, xb.min(xm), xb.max(xm));
                let cells = span(xa.min(xm), xa.max(xm)) + interior + span(xb.min(xm), xb.max(xm));
                consider(cost, cells, 1, Winner::Hvh { xm });
            }
        }
    }

    if x1 != x2 {
        // VHV: one candidate per crossing channel, widened by overshoot.
        let (c_lo, c_hi) = (c1.min(c2), c1.max(c2));
        let cm_lo = c_lo.saturating_sub(channel_overshoot);
        let cm_hi = c_hi.saturating_add(channel_overshoot).min(view.channels() - 1);
        for cm in cm_lo..=cm_hi {
            if c1 == c2 && cm == c1 {
                // Duplicate of the direct horizontal candidate already
                // considered above.
                continue;
            }
            let (cost, cells) = vhv_cost(view, c1, x1, c2, x2, cm);
            consider(cost, cells, 1, Winner::Vhv { cm });
        }
    } else if c1 != c2 {
        // Same column, different channels: direct feedthrough.
        let (lo, hi) = (c1.min(c2), c1.max(c2));
        consider(view.vertical_cost(x1, lo, hi), span(lo, hi), 1, Winner::DirectV);
    }

    let winner = winner.expect("at least one candidate is always generated");
    push_winner_segments(c1, x1, c2, x2, winner, out);
    EvalCore { cost: best_cost, candidates, cells_examined }
}

/// The HVH jog sweep over the rows of `array`, for pins `(ca, xa)` and
/// `(cb, xb)` in different channels with `x_lo..=x_hi` their columns:
/// the cost and jog column of the first cheapest candidate. The row of
/// the pin at `x_lo` is read as a growing prefix and the other as a
/// shrinking suffix, zipped in one pass; the feedthrough's interior is
/// one cell per channel between them, read per jog. `array` is `view`'s
/// array; each jog notes its candidate's spans on `view` in the order the
/// per-candidate loop queries them: row `ca`, the interior column, row
/// `cb`.
fn hvh_sweep<V: CostView + ?Sized>(
    view: &V,
    array: &CostArray,
    (ca, xa): (u16, u16),
    (cb, xb): (u16, u16),
    x_lo: u16,
    x_hi: u16,
) -> (u64, u16) {
    let (c_prefix, c_suffix) = if xa == x_lo { (ca, cb) } else { (cb, ca) };
    debug_assert!(xa.min(xb) == x_lo && xa.max(xb) == x_hi);
    let cols = usize::from(x_lo)..=usize::from(x_hi);
    let (prefix_row, suffix_row) = (&array.row(c_prefix)[cols.clone()], &array.row(c_suffix)[cols]);
    let mut prefix = 0u64;
    let mut suffix: u64 = suffix_row.iter().map(|&v| u64::from(v)).sum();
    let (mut best, mut best_jog) = (u64::MAX, 0);
    for (jog, (&p, &s)) in prefix_row.iter().zip(suffix_row).enumerate() {
        let xm = x_lo + jog as u16;
        view.note_row(ca, xa.min(xm), xa.max(xm));
        prefix += u64::from(p);
        let mut cost = prefix + suffix;
        if cb - ca > 1 {
            view.note_column(xm, ca + 1, cb - 1);
            cost += array.vertical_cost(xm, ca + 1, cb - 1);
        }
        view.note_row(cb, xb.min(xm), xb.max(xm));
        if cost < best {
            (best, best_jog) = (cost, jog);
        }
        suffix -= u64::from(s);
    }
    (best, x_lo + best_jog as u16)
}

/// Costs one VHV candidate (crossing channel `cm`) as disjoint spans over
/// its deduplicated cell set, reading in sorted (channel, x) order.
///
/// The cell set is: the feedthrough from each pin toward `cm` (exclusive
/// of row `cm`), plus the full row `cm` between the pin columns. Where the
/// two feedthroughs run side by side (both pins on the same side of `cm`,
/// beyond the nearer pin's channel), sorted order interleaves the two
/// columns per channel, so that band is read cell by cell.
fn vhv_cost<V: CostView + ?Sized>(
    view: &V,
    c1: u16,
    x1: u16,
    c2: u16,
    x2: u16,
    cm: u16,
) -> (u64, u64) {
    let (xl, xr) = (x1.min(x2), x1.max(x2));
    let mut cost = 0u64;
    let mut cells = 0u64;

    // Below row cm.
    let (b1, b2) = (c1 < cm, c2 < cm);
    if b1 && b2 {
        // Both feedthroughs approach from below: the lower pin's column is
        // alone until the higher pin's channel, then both columns run.
        let (c_near, x_near, c_far) = if c1 <= c2 { (c1, x1, c2) } else { (c2, x2, c1) };
        if c_near < c_far {
            cost += view.vertical_cost(x_near, c_near, c_far - 1);
            cells += (c_far - c_near) as u64;
        }
        for c in c_far..cm {
            cost += view.cost_at(GridCell::new(c, xl)) as u64;
            cost += view.cost_at(GridCell::new(c, xr)) as u64;
            cells += 2;
        }
    } else if b1 {
        cost += view.vertical_cost(x1, c1, cm - 1);
        cells += (cm - c1) as u64;
    } else if b2 {
        cost += view.vertical_cost(x2, c2, cm - 1);
        cells += (cm - c2) as u64;
    }

    // Row cm itself, spanning the pin columns.
    cost += view.horizontal_cost(cm, xl, xr);
    cells += span(xl, xr);

    // Above row cm (mirror of the below case).
    let (a1, a2) = (c1 > cm, c2 > cm);
    if a1 && a2 {
        let (c_near, c_far, x_far) = if c1 <= c2 { (c1, c2, x2) } else { (c2, c1, x1) };
        for c in cm + 1..=c_near {
            cost += view.cost_at(GridCell::new(c, xl)) as u64;
            cost += view.cost_at(GridCell::new(c, xr)) as u64;
            cells += 2;
        }
        if c_far > c_near {
            cost += view.vertical_cost(x_far, c_near + 1, c_far);
            cells += (c_far - c_near) as u64;
        }
    } else if a1 {
        cost += view.vertical_cost(x1, cm + 1, c1);
        cells += (c1 - cm) as u64;
    } else if a2 {
        cost += view.vertical_cost(x2, cm + 1, c2);
        cells += (c2 - cm) as u64;
    }

    (cost, cells)
}

/// Rebuilds the winning candidate's segments exactly as the historical
/// enumeration constructed them (same conditionals, same constructors), so
/// the resulting [`Route`] is identical.
fn push_winner_segments(c1: u16, x1: u16, c2: u16, x2: u16, w: Winner, out: &mut Vec<Segment>) {
    match w {
        Winner::DirectH => out.push(Segment::horizontal(c1, x1, x2)),
        Winner::DirectV => out.push(Segment::vertical(x1, c1, c2)),
        Winner::Hvh { xm } => {
            if xm != x1 {
                out.push(Segment::horizontal(c1, x1, xm));
            }
            out.push(Segment::vertical(xm, c1, c2));
            if xm != x2 {
                out.push(Segment::horizontal(c2, xm, x2));
            }
        }
        Winner::Vhv { cm } => {
            if cm != c1 {
                out.push(Segment::vertical(x1, c1, cm));
            }
            out.push(Segment::horizontal(cm, x1, x2));
            if cm != c2 {
                out.push(Segment::vertical(x2, cm, c2));
            }
        }
    }
}

/// Evaluates all two-bend candidates for `conn` against `view` and returns
/// the best.
pub fn best_route<V: CostView + ?Sized>(
    view: &V,
    conn: Connection,
    channel_overshoot: u16,
) -> Evaluation {
    let mut segments = Vec::with_capacity(3);
    let core = best_route_into(view, conn, channel_overshoot, &mut segments);
    Evaluation {
        route: Route::from_segments(segments),
        cost: core.cost,
        candidates: core.candidates,
        cells_examined: core.cells_examined,
    }
}

/// What the tests compare the kernel against; not part of the documented
/// surface. The unit tests below and `tests/proptests.rs` assert that
/// [`best_route`] matches [`oracle::best_route_reference`] bit for bit on
/// `(route, cost, candidates, cells_examined)`, through the slice-sum
/// fast path and through [`oracle::PerCell`].
#[doc(hidden)]
pub mod oracle {
    use locus_circuit::GridCell;

    use super::Evaluation;
    use crate::cost_array::{CostArray, CostView};
    use crate::route::{Route, Segment};
    use crate::segment::Connection;

    /// A view of a [`CostArray`] that answers span queries through the
    /// per-cell default implementations and returns no array, so every
    /// candidate's spans are queried: the path of a view that instruments
    /// only `cost_at`.
    pub struct PerCell<'a>(pub &'a CostArray);

    impl CostView for PerCell<'_> {
        fn channels(&self) -> u16 {
            CostView::channels(self.0)
        }
        fn grids(&self) -> u16 {
            CostView::grids(self.0)
        }
        fn cost_at(&self, cell: GridCell) -> u32 {
            self.0.cost_at(cell)
        }
    }

    /// The historical cell-list evaluator: materializes every candidate as a
    /// [`Route`] and costs it cell by cell.
    pub fn best_route_reference<V: CostView + ?Sized>(
        view: &V,
        conn: Connection,
        channel_overshoot: u16,
    ) -> Evaluation {
        let (c1, x1) = (conn.from.channel, conn.from.x);
        let (c2, x2) = (conn.to.channel, conn.to.x);

        let mut best: Option<(u64, Route)> = None;
        let mut candidates = 0usize;
        let mut cells_examined = 0u64;

        let mut consider = |route: Route| {
            cells_examined += route.len() as u64;
            candidates += 1;
            let cost = view.route_cost(&route);
            match &best {
                Some((best_cost, _)) if *best_cost <= cost => {}
                _ => best = Some((cost, route)),
            }
        };

        if c1 == c2 {
            // Direct horizontal run (all HVH candidates coincide).
            consider(Route::from_segments(vec![Segment::horizontal(c1, x1, x2)]));
        } else {
            // HVH: one candidate per jog column in the bounding box.
            let (x_lo, x_hi) = (x1.min(x2), x1.max(x2));
            for xm in x_lo..=x_hi {
                let mut segs = Vec::with_capacity(3);
                if xm != x1 {
                    segs.push(Segment::horizontal(c1, x1, xm));
                }
                segs.push(Segment::vertical(xm, c1, c2));
                if xm != x2 {
                    segs.push(Segment::horizontal(c2, xm, x2));
                }
                consider(Route::from_segments(segs));
            }
        }

        if x1 != x2 {
            // VHV: one candidate per crossing channel, widened by overshoot.
            let (c_lo, c_hi) = (c1.min(c2), c1.max(c2));
            let cm_lo = c_lo.saturating_sub(channel_overshoot);
            let cm_hi = c_hi.saturating_add(channel_overshoot).min(view.channels() - 1);
            for cm in cm_lo..=cm_hi {
                if c1 == c2 && cm == c1 {
                    // Duplicate of the direct horizontal candidate already
                    // considered in the HVH sweep.
                    continue;
                }
                let mut segs = Vec::with_capacity(3);
                if cm != c1 {
                    segs.push(Segment::vertical(x1, c1, cm));
                }
                segs.push(Segment::horizontal(cm, x1, x2));
                if cm != c2 {
                    segs.push(Segment::vertical(x2, cm, c2));
                }
                consider(Route::from_segments(segs));
            }
        } else if c1 != c2 {
            // Same column, different channels: direct feedthrough.
            consider(Route::from_segments(vec![Segment::vertical(x1, c1, c2)]));
        }

        let (cost, route) = best.expect("at least one candidate is always generated");
        Evaluation { route, cost, candidates, cells_examined }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{best_route_reference, PerCell};
    use super::*;
    use crate::cost_array::CostArray;
    use locus_circuit::{GridCell, Pin, Rect};

    fn conn(c1: u16, x1: u16, c2: u16, x2: u16) -> Connection {
        Connection { from: Pin::new(c1, x1), to: Pin::new(c2, x2) }
    }

    #[test]
    fn degenerate_connection_single_cell() {
        let a = CostArray::new(4, 10);
        let e = best_route(&a, conn(2, 3, 2, 3), 1);
        assert_eq!(e.route.cells(), &[GridCell::new(2, 3)]);
        assert_eq!(e.cost, 0);
    }

    #[test]
    fn same_channel_routes_directly_on_empty_array() {
        let a = CostArray::new(4, 10);
        let e = best_route(&a, conn(1, 2, 1, 7), 0);
        assert_eq!(e.route.segments(), &[Segment::horizontal(1, 2, 7)]);
        assert_eq!(e.cost, 0);
        assert_eq!(e.candidates, 1);
    }

    #[test]
    fn same_channel_with_overshoot_can_detour() {
        let mut a = CostArray::new(4, 10);
        // Make channel 1 very expensive between the pins.
        for x in 3..=6 {
            a.set(GridCell::new(1, x), 50);
        }
        let e = best_route(&a, conn(1, 2, 1, 7), 1);
        // Cheaper to feed through to channel 0 or 2 and run there.
        let uses_other_channel = e
            .route
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Horizontal { channel, .. } if *channel != 1));
        assert!(uses_other_channel, "route should detour: {:?}", e.route.segments());
        assert!(e.cost < 50);
    }

    #[test]
    fn same_column_routes_vertically() {
        let a = CostArray::new(4, 10);
        let e = best_route(&a, conn(0, 5, 3, 5), 1);
        assert_eq!(e.route.segments(), &[Segment::vertical(5, 0, 3)]);
        assert_eq!(e.route.len(), 4);
    }

    #[test]
    fn candidate_count_matches_enumeration() {
        let a = CostArray::new(6, 20);
        // Pins at (1,3) and (4,9): bounding box 7 columns, 4 channels.
        // HVH: 7 candidates. VHV with overshoot 1: channels 0..=5 -> 6.
        let e = best_route(&a, conn(1, 3, 4, 9), 1);
        assert_eq!(e.candidates, 7 + 6);
        // Without overshoot: 7 + 4.
        let e0 = best_route(&a, conn(1, 3, 4, 9), 0);
        assert_eq!(e0.candidates, 7 + 4);
    }

    #[test]
    fn router_avoids_congested_column() {
        let mut a = CostArray::new(4, 10);
        // A wall of cost on column 5, channels 0..=3, except we go from
        // (0,2) to (3,8): vertical crossings at column 5 are expensive.
        for c in 0..4 {
            a.set(GridCell::new(c, 5), 10);
        }
        let e = best_route(&a, conn(0, 2, 3, 8), 0);
        // The chosen route's vertical segment must not be at column 5.
        for s in e.route.segments() {
            if let Segment::Vertical { x, .. } = s {
                assert_ne!(*x, 5, "route crossed the congested column");
            }
        }
    }

    #[test]
    fn cost_excludes_the_wire_itself() {
        let a = CostArray::new(2, 4);
        let e = best_route(&a, conn(0, 0, 1, 3), 0);
        assert_eq!(e.cost, 0, "empty array means zero cost regardless of route length");
        assert!(e.route.len() >= 5);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let a = CostArray::new(4, 10);
        let e1 = best_route(&a, conn(0, 2, 3, 8), 1);
        let e2 = best_route(&a, conn(0, 2, 3, 8), 1);
        assert_eq!(e1.route, e2.route);
    }

    #[test]
    fn cells_examined_counts_all_candidates() {
        let a = CostArray::new(4, 10);
        let e = best_route(&a, conn(0, 2, 3, 8), 0);
        // Every candidate covers at least the bounding-box "L" length.
        assert!(e.cells_examined >= e.candidates as u64 * 5);
    }

    /// Exhaustive pin-pair equivalence against the reference evaluator on
    /// a patterned surface — both through the slice-sum fast path
    /// (`CostArray` directly) and through the per-cell default path.
    #[test]
    fn matches_reference_evaluator_exhaustively() {
        let mut a = CostArray::new(5, 9);
        for c in 0..5u16 {
            for x in 0..9u16 {
                a.set(GridCell::new(c, x), (c * 13 + x * 5) % 7);
            }
        }
        let slow = PerCell(&a);
        for c1 in 0..5u16 {
            for x1 in (0..9u16).step_by(2) {
                for c2 in 0..5u16 {
                    for x2 in 0..9u16 {
                        for overshoot in [0u16, 1, 3] {
                            let k = conn(c1, x1, c2, x2);
                            let r = best_route_reference(&a, k, overshoot);
                            for e in [best_route(&a, k, overshoot), best_route(&slow, k, overshoot)]
                            {
                                let segments = e.route.segments();
                                assert!(segments.len() <= MAX_SEGMENTS, "{k:?}");
                                let cover: u32 = segments.iter().map(Segment::len).sum();
                                assert!(cover as usize <= max_cover(k, overshoot), "{k:?}");
                                assert_eq!(e.route, r.route, "{k:?} overshoot {overshoot}");
                                assert_eq!(e.cost, r.cost, "{k:?} overshoot {overshoot}");
                                assert_eq!(e.candidates, r.candidates, "{k:?}");
                                assert_eq!(e.cells_examined, r.cells_examined, "{k:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// bnrE and MDC routed wire by wire, every connection evaluated by
    /// the reference, the slice-sum fast path and the per-cell path on
    /// the live surface *before* the winner is committed, so the
    /// comparison covers the congested states a real run passes through
    /// and not only patterned or random arrays.
    #[test]
    fn matches_reference_evaluator_while_routing_the_paper_circuits() {
        use crate::segment::tests::decompose;
        use locus_circuit::presets;

        for circuit in [presets::bnr_e(), presets::mdc()] {
            let mut costs = CostArray::new(circuit.channels, circuit.grids);
            let mut checked = 0;
            for wire in &circuit.wires {
                for k in decompose(wire) {
                    let r = best_route_reference(&costs, k, 1);
                    for e in [best_route(&costs, k, 1), best_route(&PerCell(&costs), k, 1)] {
                        let at = format!("{} wire {} {k:?}", circuit.name, wire.id);
                        assert_eq!(e.route, r.route, "{at}");
                        assert_eq!(e.cost, r.cost, "{at}");
                        assert_eq!(e.candidates, r.candidates, "{at}");
                        assert_eq!(e.cells_examined, r.cells_examined, "{at}");
                    }
                    costs.add_route(&r.route);
                    checked += 1;
                }
            }
            assert!(checked >= circuit.wires.len(), "{}: {checked} connections", circuit.name);
        }
    }

    /// The span decomposition must read cells in exactly the order the
    /// reference evaluator does (sorted dedup order per candidate) — the
    /// shmem emulator's reference trace depends on it.
    #[test]
    fn read_sequence_identical_to_reference() {
        use std::cell::RefCell;

        struct Recorder<'a> {
            inner: &'a CostArray,
            reads: RefCell<Vec<GridCell>>,
        }
        impl CostView for Recorder<'_> {
            fn channels(&self) -> u16 {
                CostView::channels(self.inner)
            }
            fn grids(&self) -> u16 {
                CostView::grids(self.inner)
            }
            fn cost_at(&self, cell: GridCell) -> u32 {
                self.reads.borrow_mut().push(cell);
                self.inner.cost_at(cell)
            }
        }

        let mut a = CostArray::new(6, 11);
        for c in 0..6u16 {
            for x in 0..11u16 {
                a.set(GridCell::new(c, x), (c * 3 + x) % 5);
            }
        }
        for (k, overshoot) in [
            (conn(1, 3, 4, 9), 2),  // generic HVH+VHV
            (conn(4, 9, 1, 3), 2),  // reversed pins
            (conn(2, 5, 2, 9), 3),  // same channel, overshoot detours
            (conn(0, 4, 5, 4), 1),  // same column
            (conn(3, 0, 3, 0), 4),  // degenerate
            (conn(1, 2, 1, 8), 5),  // overshoot clipped at both edges
            (conn(5, 1, 0, 10), 0), // full diagonal, no overshoot
        ] {
            let rec = Recorder { inner: &a, reads: RefCell::new(Vec::new()) };
            let e = best_route(&rec, k, overshoot);
            let optimized = rec.reads.take();
            let rec = Recorder { inner: &a, reads: RefCell::new(Vec::new()) };
            let r = best_route_reference(&rec, k, overshoot);
            let reference = rec.reads.take();
            assert_eq!(optimized, reference, "{k:?} overshoot {overshoot}");
            assert_eq!(e.route, r.route);
            assert_eq!(e.cells_examined, r.cells_examined);
        }
    }

    /// The sweep's running sums at their largest: every cell at
    /// `u16::MAX` on the widest surface, so each candidate costs more than
    /// `u32::MAX`.
    #[test]
    fn the_jog_sweep_sums_maximal_rows_exactly() {
        let grids = u16::MAX;
        let mut a = CostArray::new(4, grids);
        a.install(Rect::new(0, 3, 0, grids - 1), &vec![u16::MAX; 4 * usize::from(grids)]);
        let e = best_route(&a, conn(0, 0, 3, grids - 1), 0);
        let (max, cover) = (u64::from(u16::MAX), u64::from(grids) + 3);
        assert_eq!(cover, 65_538);
        assert_eq!(e.cost, max * cover);
        assert!(e.cost > u64::from(u32::MAX));
        assert_eq!(e.route.segments()[0], Segment::vertical(0, 0, 3), "jog 0 wins the ties");
        assert_eq!(e.candidates, usize::from(grids) + 4);
        assert_eq!(e.cells_examined, cover * (cover + 1));
    }

    #[test]
    fn best_route_into_appends_without_clearing() {
        let a = CostArray::new(4, 10);
        let mut segs = vec![Segment::horizontal(0, 0, 1)];
        let core = best_route_into(&a, conn(1, 2, 1, 7), 0, &mut segs);
        assert_eq!(segs.len(), 2, "existing contents preserved");
        assert_eq!(segs[1], Segment::horizontal(1, 2, 7));
        assert_eq!(core.candidates, 1);
    }
}
