//! The router's per-wire loop in its steady state: once every wire of bnrE
//! has a route, an iteration of rip-up, `route_wire_scratch` and
//! `commit_route` performs **no heap allocation**. Each ripped-up route is
//! handed back to the scratch, whose spare buffers the next winner is
//! built in, and a commit writes cells in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use locus_circuit::presets;
use locus_router::router::route_wire_scratch;
use locus_router::{CostArray, EvalScratch, Route, RouterParams};

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

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state. `realloc` is counted too, so a buffer that grows
// shows up.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_second_iteration_of_bnre_allocates_nothing() {
    let circuit = presets::bnr_e();
    let overshoot = RouterParams::default().channel_overshoot;
    let mut cost = CostArray::new(circuit.channels, circuit.grids);
    let mut routes: Vec<Option<Route>> = vec![None; circuit.wire_count()];
    let mut scratch = EvalScratch::default();
    let mut occupancy = [0u64; 2];
    let mut counts = [0u64; 2];
    for (iteration, (occupancy, count)) in occupancy.iter_mut().zip(&mut counts).enumerate() {
        let before = ALLOCS.get();
        for wire in &circuit.wires {
            if let Some(old) = routes[wire.id].take() {
                cost.remove_route(&old);
                scratch.recycle(old);
            }
            let eval = route_wire_scratch(&cost, wire, overshoot, &mut scratch);
            *occupancy += cost.commit_route(&eval.route);
            routes[wire.id] = Some(eval.route);
        }
        *count = ALLOCS.get() - before;
        assert!(*occupancy > 0, "iteration {iteration} priced its routes");
    }
    assert!(counts[0] > 0, "the counter saw the first iteration build its routes");
    assert_eq!(counts[1], 0, "allocations over the second iteration of bnrE");
}
