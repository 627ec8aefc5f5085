//! The §4.3 update protocol: the layer between the transport and the
//! router.
//!
//! It owns the delta array of changes this node made to foreign regions,
//! the dirty box of its own region, the routing events of the wire-based
//! structure, and the request-ahead and `ReqLocData` trigger state. It
//! handles the five data packets (`LocData`, `RmtData`, `ReqRmtData`,
//! `ReqLocData`, `WireData`) and emits the four transaction types on the
//! configured [`crate::UpdateSchedule`]. The replica itself belongs to the
//! router, which lends it to every call.
//!
//! Modelled time and host work are kept apart here. What the simulated
//! node would spend scanning and assembling is charged from region areas
//! and byte counts, whether or not anything changed; what the host does
//! follows the record of what did change: the delta array's row spans
//! and the set of owners written to since their last flush.

use std::sync::Arc;

use locus_circuit::{Circuit, GridCell, Rect, WireId};
use locus_router::route::row_runs;
use locus_router::{CostArray, ProcId, RegionMap, Route, Segment};

use crate::config::{MsgPassConfig, PacketStructure};
use crate::delta::DeltaArray;
use crate::packet::{Packet, WireEvent};
use crate::reliable::Link;

/// Modelled time to scan one delta-array cell when assembling an update
/// (ns): the packet-assembly overhead of §5.1.1.
const SCAN_PER_CELL_NS: u64 = 60;

/// How many wires ahead receiver-initiated requests are issued; the paper
/// settles on five (§4.3.3).
const REQUEST_AHEAD: usize = 5;

/// One node's half of the update protocol.
pub(crate) struct Update {
    proc: ProcId,
    regions: Arc<RegionMap>,
    my_region: Rect,
    mesh_neighbors: Vec<ProcId>,
    config: MsgPassConfig,

    delta: DeltaArray,
    /// Owners whose region this node has written to since it last
    /// flushed them; every nonzero cell of `delta` lies in the region of
    /// one of them.
    unflushed: Vec<bool>,
    /// Bounding box of changes to the node's own region since its last
    /// `SendLocData` (kept incrementally; no scan needed).
    own_dirty: Option<Rect>,
    /// Routing events accumulated since the last wire-based update
    /// (only populated under [`PacketStructure::WireBased`]).
    wire_events: Vec<WireEvent>,
    /// The segments the wire being placed was ripped up from, until its
    /// event is noted (only populated under the wire-based structure).
    ripped: Vec<Segment>,

    // Receiver-initiated requester state.
    request_cursor: usize,
    touch_count: Vec<u32>,
    touch_bbox: Vec<Option<Rect>>,
    outstanding: u32,

    // Owner-side ReqLocData trigger state.
    reqs_from: Vec<u32>,
}

/// `acc` grown to include `rect`.
fn grown(acc: Option<Rect>, rect: Rect) -> Rect {
    acc.map_or(rect, |a| a.union(&rect))
}

impl Update {
    /// The update layer of processor `proc`.
    pub(crate) fn new(proc: ProcId, regions: Arc<RegionMap>, config: &MsgPassConfig) -> Self {
        let n_procs = regions.n_procs();
        let (channels, grids) = regions.surface();
        Update {
            proc,
            my_region: regions.region(proc),
            mesh_neighbors: regions.neighbors(proc),
            regions,
            config: *config,
            delta: DeltaArray::new(channels, grids),
            unflushed: vec![false; n_procs],
            own_dirty: None,
            wire_events: Vec::new(),
            ripped: Vec::new(),
            request_cursor: 0,
            touch_count: vec![0; n_procs],
            touch_bbox: vec![None; n_procs],
            outstanding: 0,
            reqs_from: vec![0; n_procs],
        }
    }

    /// Applies a change of `delta` along `cells`, the sorted cover of a
    /// route this node placed or ripped up, to local state: the replica
    /// always changes; foreign cells also enter the delta array, own
    /// cells the dirty box.
    pub(crate) fn record_route(&mut self, replica: &mut CostArray, cells: &[GridCell], delta: i32) {
        self.write_route(replica, cells, delta, true);
    }

    /// Adds `delta` along `cells` to the replica, run by run, and notes
    /// where it landed: own cells grow the dirty box, and when the route
    /// is `ours` foreign cells enter the delta array and leave their
    /// owner unflushed (a peer's route is its own to report).
    fn write_route(&mut self, replica: &mut CostArray, cells: &[GridCell], delta: i32, ours: bool) {
        replica.apply_cells(cells, delta);
        for (channel, x_lo, x_hi) in row_runs(cells) {
            for (owner, x_lo, x_hi) in self.regions.split_run(channel, x_lo, x_hi) {
                if owner == self.proc {
                    let piece = Rect::new(channel, channel, x_lo, x_hi);
                    self.own_dirty = Some(grown(self.own_dirty, piece));
                } else if ours {
                    self.delta.record_run(channel, x_lo, x_hi, delta as i16);
                    self.unflushed[owner] = true;
                }
            }
        }
    }

    /// [`Self::record_route`] one cell at a time, as the node used to
    /// write: the oracle the tests hold the run-based path to.
    #[cfg(test)]
    fn record_change(&mut self, replica: &mut CostArray, cell: GridCell, delta: i32) {
        replica.add(cell, delta);
        if self.my_region.contains(cell) {
            self.own_dirty = Some(grown(self.own_dirty, Rect::cell(cell)));
        } else {
            self.delta.record(cell, delta as i16);
            self.unflushed[self.regions.owner_of(cell)] = true;
        }
    }

    /// Notes, for the wire-based structure, the route the wire being
    /// placed replaces, before the route is handed back for reuse.
    pub(crate) fn wire_ripped(&mut self, ripped: &Route) {
        if self.config.structure == PacketStructure::WireBased {
            self.ripped = ripped.segments().to_vec();
        }
    }

    /// Notes one placed wire for the wire-based structure: the route it
    /// replaced, if [`Self::wire_ripped`] noted one, and the route chosen.
    pub(crate) fn wire_routed(&mut self, routed: &Route) {
        if self.config.structure == PacketStructure::WireBased {
            self.wire_events.push(WireEvent {
                ripped: std::mem::take(&mut self.ripped),
                routed: routed.segments().to_vec(),
            });
        }
    }

    /// Blocking receiver-initiated strategy: whether the router must hold
    /// until responses land.
    pub(crate) fn blocked(&self) -> bool {
        self.config.schedule.blocking && self.outstanding > 0
    }

    /// Moves the request-ahead cursor back to wire `idx` of the static
    /// list: 0 when an iteration ends, the checkpoint after a restart.
    pub(crate) fn rewind_requests(&mut self, idx: usize) {
        self.request_cursor = self.request_cursor.min(idx);
    }

    /// Handles one received data packet; returns modelled processing time
    /// and queues any responses.
    pub(crate) fn handle(
        &mut self,
        from: ProcId,
        packet: Packet,
        replica: &mut CostArray,
        link: &mut Link<'_>,
    ) -> u64 {
        let mut busy = 0u64;
        match packet {
            Packet::LocData { rect, values, response } => {
                // Absolute data for a region owned by the sender (or at
                // least not by us): replace our stale view.
                debug_assert!(
                    !rect.intersects(&self.my_region),
                    "node {} received absolute data for its own region",
                    self.proc
                );
                replica.install(rect, &values);
                // The owner's view cannot include changes we made but
                // have not yet sent; re-apply our pending deltas so the
                // install does not erase our own wires from our view.
                if let Some(pending) = self.delta.changes_in(rect) {
                    for cell in pending.cells() {
                        let d = self.delta.get(cell);
                        if d != 0 {
                            replica.add(cell, d as i32);
                        }
                    }
                }
                busy += rect.area() * SCAN_PER_CELL_NS;
                if response {
                    self.outstanding = self.outstanding.saturating_sub(1);
                }
            }
            Packet::RmtData { rect, deltas, response: _ } => {
                // Deltas applied by a remote processor to our region.
                debug_assert!(
                    self.my_region.intersection(&rect) == Some(rect),
                    "RmtData rect {rect} not inside own region {}",
                    self.my_region
                );
                replica.apply_deltas(rect, &deltas);
                self.own_dirty = Some(grown(self.own_dirty, rect));
            }
            Packet::ReqRmtData { rect } => {
                // We are the owner: answer with absolute data.
                let r = rect
                    .intersection(&self.my_region)
                    .expect("ReqRmtData must target the owner's region");
                let values = replica.extract(r);
                busy += r.area() * SCAN_PER_CELL_NS;
                busy += link.send(from, Packet::LocData { rect: r, values, response: true });
                // ReqLocData trigger: a processor that keeps requesting
                // our region has been routing in it (§4.3.3).
                if let Some(threshold) = self.config.schedule.req_loc_data {
                    self.reqs_from[from] += 1;
                    if self.reqs_from[from] >= threshold {
                        self.reqs_from[from] = 0;
                        busy += link.send(from, Packet::ReqLocData { rect: self.my_region });
                    }
                }
            }
            Packet::ReqLocData { rect } => {
                // The owner of `rect` wants the deltas we hold against it.
                busy += rect.area() * SCAN_PER_CELL_NS;
                if let Some(bbox) = self.delta.changes_in(rect) {
                    let deltas = self.delta.extract_and_clear(bbox);
                    busy += link.send(from, Packet::RmtData { rect: bbox, deltas, response: true });
                }
            }
            Packet::WireData { events } => {
                // Replay the sender's routing events against our view.
                for ev in events {
                    for (segments, delta) in [(ev.ripped, -1), (ev.routed, 1)] {
                        if segments.is_empty() {
                            continue;
                        }
                        let route = Route::from_segments(segments);
                        self.write_route(replica, route.cells(), delta, false);
                    }
                }
            }
            other => debug_assert!(false, "{other:?} is not an update packet"),
        }
        busy
    }

    /// Issues receiver-initiated `ReqRmtData` requests for the window of
    /// wires that starts at `wire_idx` of the static list `my_wires` (the
    /// paper requests five wires ahead, §4.3.3).
    pub(crate) fn issue_requests(
        &mut self,
        circuit: &Circuit,
        my_wires: &[WireId],
        wire_idx: usize,
        link: &mut Link<'_>,
    ) -> u64 {
        let Some(threshold) = self.config.schedule.req_rmt_data else {
            return 0;
        };
        let mut busy = 0u64;
        let window_end = (wire_idx + REQUEST_AHEAD).min(my_wires.len());
        while self.request_cursor < window_end {
            let bbox = circuit.wire(my_wires[self.request_cursor]).bounding_box();
            for p in self.regions.owners_intersecting(bbox) {
                if p == self.proc {
                    continue;
                }
                let in_region = bbox
                    .intersection(&self.regions.region(p))
                    .expect("owner intersects the bbox by construction");
                self.touch_count[p] += 1;
                self.touch_bbox[p] = Some(grown(self.touch_bbox[p], in_region));
                if self.touch_count[p] >= threshold {
                    let rect = self.touch_bbox[p].take().expect("bbox recorded with count");
                    self.touch_count[p] = 0;
                    busy += link.send(p, Packet::ReqRmtData { rect });
                    self.outstanding += 1;
                }
            }
            self.request_cursor += 1;
        }
        busy
    }

    /// Emits any sender-initiated updates (§4.3.2) due now that this node
    /// has routed `wires_routed` wires, and only if something changed;
    /// returns the modelled assembly time. The payload depends on the
    /// configured packet structure (§4.3.1): bounding box (default), full
    /// region, or wire-based.
    pub(crate) fn emit_sender_updates(
        &mut self,
        wires_routed: u32,
        replica: &CostArray,
        link: &mut Link<'_>,
    ) -> u64 {
        let mut busy = 0u64;
        let due = |every: Option<u32>| every.is_some_and(|n| wires_routed.is_multiple_of(n));
        if self.config.structure == PacketStructure::WireBased {
            // Events replace both SendLocData and SendRmtData; they are
            // flushed on the SendRmtData cadence (validated: WireBased
            // requires send_rmt_data) to every processor whose region
            // any event touches.
            if due(self.config.schedule.send_rmt_data) && !self.wire_events.is_empty() {
                let events = std::mem::take(&mut self.wire_events);
                let bbox = events
                    .iter()
                    .flat_map(|ev| ev.ripped.iter().chain(&ev.routed))
                    .map(|seg| seg.bounding_box())
                    .reduce(|acc, b| acc.union(&b))
                    .expect("events are non-empty");
                for p in self.regions.owners_intersecting(bbox) {
                    if p != self.proc {
                        busy += link.send(p, Packet::WireData { events: events.clone() });
                    }
                }
            }
            return busy;
        }
        let full = self.config.structure == PacketStructure::FullRegion;
        if due(self.config.schedule.send_loc_data) {
            if let Some(dirty) = self.own_dirty.take() {
                let rect = if full { self.my_region } else { dirty };
                let values = replica.extract(rect);
                if !full {
                    busy += rect.area() * SCAN_PER_CELL_NS;
                }
                for &nb in &self.mesh_neighbors {
                    let values = values.clone();
                    busy += link.send(nb, Packet::LocData { rect, values, response: false });
                }
            }
        }
        if due(self.config.schedule.send_rmt_data) {
            if !full {
                // The simulated node scans every foreign region, cell by
                // cell; the host looks only where it wrote.
                let (channels, grids) = self.regions.surface();
                let foreign_cells = channels as u64 * grids as u64 - self.my_region.area();
                busy += foreign_cells * SCAN_PER_CELL_NS;
            }
            for p in 0..self.unflushed.len() {
                if !std::mem::take(&mut self.unflushed[p]) {
                    continue;
                }
                // Rip-up and re-route may have cancelled: unflushed does
                // not mean changed.
                let region = self.regions.region(p);
                let Some(changed) = self.delta.changes_in(region) else {
                    continue;
                };
                let rect = if full { region } else { changed };
                let deltas = self.delta.extract_and_clear(rect);
                busy += link.send(p, Packet::RmtData { rect, deltas, response: false });
            }
        }
        busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliable::Transport;
    use crate::schedule::UpdateSchedule;
    use locus_circuit::presets;
    use locus_mesh::Outbox;
    use locus_router::router::route_wire_scratch;
    use locus_router::{assign, AssignmentStrategy, CostView, EvalScratch};

    /// The update layer of `proc` in a four-node machine on the `small`
    /// circuit, with the replica it works on and a transport to send
    /// through.
    fn layer(schedule: UpdateSchedule, proc: ProcId) -> (Update, CostArray, Transport) {
        let circuit = presets::small();
        let regions = Arc::new(RegionMap::new(circuit.channels, circuit.grids, 4));
        let config = MsgPassConfig::new(4, schedule);
        let update = Update::new(proc, regions, &config);
        let replica = CostArray::new(circuit.channels, circuit.grids);
        (update, replica, Transport::new(proc, 4, false))
    }

    #[test]
    fn req_rmt_data_is_answered_with_absolute_data() {
        let (mut owner, mut replica, mut transport) =
            layer(UpdateSchedule::receiver_initiated(1, 5), 0);
        let mut outbox = Outbox::new();
        let rect = owner.my_region;
        let request = Packet::ReqRmtData { rect };
        let busy = owner.handle(1, request, &mut replica, &mut transport.link(&mut outbox, 0));
        assert!(busy > 0);
        assert_eq!(outbox.len(), 2, "response plus ReqLocData (threshold 1)");
        assert_eq!(outbox.sends()[0].0, 1);
        assert!(matches!(
            outbox.sends()[0].2.packet(),
            Some(Packet::LocData { response: true, .. })
        ));
        assert_eq!(outbox.sends()[1].2.packet(), Some(&Packet::ReqLocData { rect }));
    }

    #[test]
    fn req_loc_data_returns_deltas_and_clears() {
        let (mut update, mut replica, mut transport) =
            layer(UpdateSchedule::receiver_initiated(1, 5), 0);
        // Fabricate a change to a foreign region (proc 3's region).
        let foreign = update.regions.region(3);
        let cell = GridCell::new(foreign.c_lo, foreign.x_lo);
        update.record_change(&mut replica, cell, 1);
        let mut outbox = Outbox::new();
        let request = Packet::ReqLocData { rect: foreign };
        let _ = update.handle(3, request, &mut replica, &mut transport.link(&mut outbox, 0));
        assert_eq!(outbox.len(), 1);
        match outbox.sends()[0].2.packet().expect("data frame").clone() {
            Packet::RmtData { rect, deltas, response } => {
                assert!(response);
                assert_eq!(rect, Rect::cell(cell));
                assert_eq!(deltas, vec![1i16]);
            }
            other => panic!("expected RmtData response, got {other:?}"),
        }
        assert!(update.delta.is_zero(), "answered deltas must be cleared");
    }

    #[test]
    fn loc_data_installs_absolute_values() {
        let (mut update, mut replica, mut transport) = layer(UpdateSchedule::never(), 0);
        let foreign = update.regions.region(3);
        let rect = Rect::new(foreign.c_lo, foreign.c_lo, foreign.x_lo, foreign.x_lo + 1);
        let (first, second) =
            (GridCell::new(rect.c_lo, rect.x_lo), GridCell::new(rect.c_lo, rect.x_lo + 1));
        // A change of ours the owner has not seen yet.
        update.record_change(&mut replica, second, 1);
        let install = Packet::LocData { rect, values: vec![7, 9], response: false };
        let mut outbox = Outbox::new();
        let _ = update.handle(3, install, &mut replica, &mut transport.link(&mut outbox, 0));
        assert_eq!(replica.cost_at(first), 7);
        assert_eq!(replica.cost_at(second), 10, "the install must not erase our own wire");
        assert!(outbox.is_empty());
    }

    #[test]
    fn rmt_data_applies_deltas_to_own_region() {
        let (mut update, mut replica, mut transport) = layer(UpdateSchedule::never(), 0);
        let own = update.my_region;
        let rect = Rect::new(own.c_lo, own.c_lo, own.x_lo, own.x_lo);
        let deltas = Packet::RmtData { rect, deltas: vec![3], response: false };
        let _ = update.handle(1, deltas, &mut replica, &mut transport.link(&mut Outbox::new(), 0));
        assert_eq!(replica.cost_at(GridCell::new(own.c_lo, own.x_lo)), 3);
        assert!(update.own_dirty.is_some(), "remote change must dirty the own region");
    }

    #[test]
    fn record_route_equals_the_per_cell_loop_on_a_stale_replica() {
        use locus_router::Segment;
        type Layer = (Update, CostArray, Transport);
        // Two copies of node 0: one writes whole routes, the other the
        // same cells one at a time. The route runs from the own region
        // east into region 1 and south into region 2.
        let mut by_route = layer(UpdateSchedule::never(), 0);
        let mut by_cell = layer(UpdateSchedule::never(), 0);
        let (own, east) = (by_route.0.my_region, by_route.0.regions.region(1));
        let south = by_route.0.regions.region(2);
        let route = Route::from_segments(vec![
            Segment::horizontal(own.c_hi, own.x_hi - 2, east.x_lo + 3),
            Segment::vertical(own.x_hi - 2, own.c_hi, south.c_lo + 1),
        ]);
        let write = |by_route: &mut Layer, by_cell: &mut Layer, delta: i32| {
            by_route.0.record_route(&mut by_route.1, route.cells(), delta);
            for &cell in route.cells() {
                by_cell.0.record_change(&mut by_cell.1, cell, delta);
            }
        };
        let receive = |layers: [&mut Layer; 2], packet: Packet| {
            for (update, replica, transport) in layers {
                let mut outbox = Outbox::new();
                let _ =
                    update.handle(1, packet.clone(), replica, &mut transport.link(&mut outbox, 0));
            }
        };
        let same = |a: &Layer, b: &Layer| {
            assert_eq!(a.1, b.1, "replica");
            assert_eq!(a.0.delta, b.0.delta, "delta array");
            assert_eq!(a.0.own_dirty, b.0.own_dirty, "own dirty box");
            assert_eq!(a.0.unflushed, b.0.unflushed, "unflushed owners");
        };

        write(&mut by_route, &mut by_cell, 1);
        same(&by_route, &by_cell);
        assert_eq!(by_route.0.unflushed, [false, true, true, false]);

        // The eastern owner collects the deltas held against it...
        receive([&mut by_route, &mut by_cell], Packet::ReqLocData { rect: east });
        same(&by_route, &by_cell);

        // ...but its absolute data from before it applied them is still
        // on the way, and erases the route there.
        let lost = GridCell::new(own.c_hi, east.x_lo + 1);
        let stale = Rect::new(own.c_hi, own.c_hi, east.x_lo, east.x_lo + 2);
        let install = Packet::LocData { rect: stale, values: vec![0; 3], response: false };
        receive([&mut by_route, &mut by_cell], install);
        same(&by_route, &by_cell);
        assert_eq!(by_route.1.cost_at(lost), 0);

        // The rip-up saturates where the route was erased, and what it
        // took out is still owed to the owner.
        write(&mut by_route, &mut by_cell, -1);
        same(&by_route, &by_cell);
        let (update, replica, _) = &by_route;
        assert_eq!(replica.total(), 0);
        assert_eq!(update.delta.get(lost), -1);
        assert!(update.delta.is_clean_in(south), "placing and ripping up cancelled");
        assert!(update.unflushed[2], "cancelled, but written to since the last flush");
    }

    #[test]
    fn delta_cancellation_across_iterations() {
        // Route processor 0's wires twice with no updates sent. Rip-up
        // cancels re-route: afterwards the replica holds exactly the
        // final routes, and the delta array their foreign part.
        let (mut update, mut replica, _) = layer(UpdateSchedule::never(), 0);
        let circuit = presets::small();
        let strategy = AssignmentStrategy::Locality { threshold_cost: Some(1000) };
        let wires = assign(&circuit, &update.regions, strategy).wires_per_proc[0].clone();
        let mut scratch = EvalScratch::default();
        let mut routes: Vec<Option<Route>> = vec![None; wires.len()];
        for _ in 0..2 {
            for (slot, &w) in routes.iter_mut().zip(&wires) {
                if let Some(old) = slot.take() {
                    for &cell in old.cells() {
                        update.record_change(&mut replica, cell, -1);
                    }
                }
                let route = route_wire_scratch(&replica, circuit.wire(w), 2, &mut scratch).route;
                for &cell in route.cells() {
                    update.record_change(&mut replica, cell, 1);
                }
                *slot = Some(route);
            }
        }
        let coverage: u64 = routes.iter().flatten().map(|r| r.len() as u64).sum();
        assert_eq!(replica.total(), coverage);
        for c in 0..circuit.channels {
            for x in 0..circuit.grids {
                let cell = GridCell::new(c, x);
                let foreign = !update.my_region.contains(cell);
                let expected = if foreign { replica.cost_at(cell) as i16 } else { 0 };
                assert_eq!(update.delta.get(cell), expected, "{cell}");
            }
        }
    }
}
