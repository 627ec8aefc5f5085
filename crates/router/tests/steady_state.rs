//! The deterministic property of the evaluation kernel's steady state, on
//! bnrE-shaped (10×341) and MDC-shaped (12×386) congested surfaces under a
//! fixed mix of eight connection shapes (the surface and mix `benchmark/`'s
//! `kernel` probe times): a warm eval + rip-up/commit cycle performs **no
//! heap allocation**. Evaluation goes through a reused segment buffer and
//! writes store cells in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use locus_circuit::{GridCell, Pin};
use locus_router::segment::Connection;
use locus_router::twobend::best_route_into;
use locus_router::{CostArray, Route, Segment};

/// Counts the calling thread's heap allocations, so tests running on
/// other threads of this binary do not disturb a count.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: safe to touch from
    // inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state. `alloc_zeroed` and `realloc` keep their default
// bodies, which come through `alloc`, so growth is counted too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SURFACES: [(&str, u16, u16); 2] = [("bnrE", 10, 341), ("MDC", 12, 386)];

/// A congested-looking surface: deterministic mixed-magnitude pattern.
fn surface(channels: u16, grids: u16) -> CostArray {
    let mut costs = CostArray::new(channels, grids);
    for c in 0..channels {
        for x in 0..grids {
            costs.set(GridCell::new(c, x), ((x as u32 * 7 + c as u32 * 3) % 5) as u16);
        }
    }
    costs
}

/// A fixed mix of connection shapes scaled to the surface: narrow and
/// wide bounding boxes, a same-channel run, a same-column feedthrough.
fn connections(channels: u16, grids: u16) -> Vec<Connection> {
    let g = grids as u32;
    let top = channels - 1;
    let pin = |c: u16, x: u32| Pin::new(c.min(top), x.min(g - 1) as u16);
    vec![
        Connection { from: pin(2, g * 30 / 100), to: pin(top - 2, g * 39 / 100) },
        Connection { from: pin(0, g * 3 / 100), to: pin(top, g * 26 / 100) },
        Connection { from: pin(3, g * 60 / 100), to: pin(5, g * 63 / 100) },
        Connection { from: pin(1, g * 15 / 100), to: pin(top - 1, g * 50 / 100) },
        Connection { from: pin(4, g * 88 / 100), to: pin(4, g - 1) },
        Connection { from: pin(0, g * 73 / 100), to: pin(top, g * 73 / 100) },
        Connection { from: pin(2, 0), to: pin(top - 2, g * 18 / 100) },
        Connection {
            from: pin(channels / 2, g * 35 / 100),
            to: pin(channels / 2 + 1, g * 37 / 100),
        },
    ]
}

#[test]
fn a_warm_eval_and_ripup_commit_cycle_allocates_nothing() {
    for (name, channels, grids) in SURFACES {
        let mut costs = surface(channels, grids);
        let conns = connections(channels, grids);
        let mut segs: Vec<Segment> = Vec::with_capacity(8);
        // add + remove restores the surface, so each connection's winner
        // is loop-invariant and can be materialized once.
        let routes: Vec<Route> = conns
            .iter()
            .map(|&k| {
                segs.clear();
                best_route_into(&costs, k, 1, &mut segs);
                Route::from_segments(segs.clone())
            })
            .collect();
        let mut lap = |costs: &mut CostArray| {
            for (r, &k) in routes.iter().zip(&conns) {
                segs.clear();
                black_box(best_route_into(costs, k, 1, &mut segs).cost);
                costs.add_route(r);
                costs.remove_route(r);
            }
        };
        // One warm lap: segment buffer at steady capacity.
        lap(&mut costs);
        let before = ALLOCS.get();
        assert!(before > 0, "the counter saw the set-up allocate");
        for _ in 0..1000 {
            lap(&mut costs);
        }
        assert_eq!(ALLOCS.get() - before, 0, "{name}: allocations over 1000 warm cycles");
    }
}
