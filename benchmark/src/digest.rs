//! 64-bit digests of *simulated* results.
//!
//! A host-time optimisation must leave every simulated number unchanged.
//! The digest folds everything an operation reports in simulated terms
//! (routes, quality, work counters, simulated time and traffic bit
//! patterns, packet and recovery counters, memory-model counters) so one
//! integer comparison per operation enforces that.
//!
//! The fold is FNV-1a taken over 64-bit words instead of bytes: the
//! traced emulator's outcome carries millions of references, and it is
//! digested after every timed pass.

use locusroute::coherence::{MemoryOutcome, Trace};
use locusroute::mesh::ResolvedContention;
use locusroute::msgpass::MsgPassOutcome;
use locusroute::router::{QualityMetrics, Route, RouteOutcome, WorkStats};
use locusroute::shmem::ShmemOutcome;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(OFFSET)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn routes(h: &mut Fnv, routes: &[Route]) {
    h.word(routes.len() as u64);
    for r in routes {
        h.word(r.len() as u64);
        h.words(r.cells().iter().map(|c| u64::from(c.channel) << 16 | u64::from(c.x)));
    }
}

fn quality(h: &mut Fnv, q: &QualityMetrics) {
    h.words([q.circuit_height, q.occupancy_factor]);
}

fn work(h: &mut Fnv, w: &WorkStats) {
    h.words([w.wires_routed, w.connections, w.candidates, w.cells_examined, w.cells_written]);
}

fn trace(h: &mut Fnv, t: &Trace) {
    h.word(t.len() as u64);
    for r in t.refs() {
        h.word(r.time);
        h.word(u64::from(r.proc) << 32 | u64::from(r.addr));
        h.word(u64::from(r.epoch) << 32 | u64::from(r.wire));
        h.word((r.kind as u64) << 16 | (r.crit as u64) << 8 | u64::from(r.delta as u8));
    }
}

fn contention(h: &mut Fnv, c: &ResolvedContention) {
    for w in [&c.critical, &c.background] {
        h.words([w.requests, w.total_wait_ns, w.max_wait_ns]);
    }
    h.words(c.per_proc_wait_ns.iter().copied());
    h.words([c.busy_ns, c.makespan_ns]);
}

pub fn route_outcome(o: &RouteOutcome) -> u64 {
    let mut h = Fnv::new();
    routes(&mut h, &o.routes);
    quality(&mut h, &o.quality);
    work(&mut h, &o.work);
    h.words(o.occupancy_by_iteration.iter().copied());
    h.finish()
}

pub fn msgpass_outcome(o: &MsgPassOutcome) -> u64 {
    let mut h = Fnv::new();
    routes(&mut h, &o.routes);
    quality(&mut h, &o.quality);
    work(&mut h, &o.work);
    h.words([o.time_secs.to_bits(), o.mbytes.to_bits(), o.routing_done_secs.to_bits()]);
    h.words([o.packets.total_packets(), o.packets.total_bytes()]);
    h.words([o.net.packets, o.net.payload_bytes, o.net.wire_bytes, o.net.byte_hops]);
    h.words([o.net.contention_ns, o.net.packets_lost_to_crash, o.watchdog_recoveries]);
    let rel = &o.reliability;
    h.words([rel.retransmits, rel.acks_sent, rel.dup_suppressed, rel.out_of_order]);
    h.word(rel.retries_exhausted);
    let rec = &o.recovery;
    h.words([rec.checkpoints_taken, rec.checkpoint_bytes, rec.heartbeats_sent]);
    h.words([rec.nodes_declared_dead, rec.wires_reassigned, rec.wires_adopted]);
    h.words([rec.rollbacks, rec.wires_rolled_back, rec.coordinator_failovers]);
    h.word(rec.duplicate_routes);
    h.finish()
}

pub fn shmem_outcome(o: &ShmemOutcome) -> u64 {
    let mut h = Fnv::new();
    routes(&mut h, &o.routes);
    quality(&mut h, &o.quality);
    work(&mut h, &o.work);
    h.word(o.time_secs.to_bits());
    if let Some(t) = &o.trace {
        trace(&mut h, t);
    }
    h.finish()
}

pub fn memory_outcome(o: &MemoryOutcome) -> u64 {
    let mut h = Fnv::new();
    let s = &o.stats;
    h.words([s.total_bytes, s.read_caused_bytes, s.write_caused_bytes, s.line_fetches]);
    h.words([s.word_writes, s.invalidations, s.refetches, o.invalidation_traffic_bytes]);
    for p in &o.per_proc {
        h.words([p.reads, p.writes]);
    }
    contention(&mut h, &o.fifo);
    contention(&mut h, &o.critical_first);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locusroute::circuit::presets;
    use locusroute::router::{RouterParams, Segment, SequentialRouter};

    #[test]
    fn digest_is_stable_across_identical_runs() {
        let c = presets::small();
        let a = SequentialRouter::new(&c, RouterParams::default()).run();
        let b = SequentialRouter::new(&c, RouterParams::default()).run();
        assert_eq!(route_outcome(&a), route_outcome(&b));
    }

    #[test]
    fn digest_changes_when_one_route_cell_changes() {
        let c = presets::small();
        let mut o = SequentialRouter::new(&c, RouterParams::default()).run();
        // Two routes of equal length that differ in one cell only.
        let bend = |to| vec![Segment::horizontal(2, 3, 9), Segment::vertical(9, 2, to)];
        o.routes[0] = Route::from_segments(bend(3));
        let up = route_outcome(&o);
        o.routes[0] = Route::from_segments(bend(1));
        assert_eq!(o.routes[0].len(), 8);
        assert_ne!(route_outcome(&o), up);
    }

    #[test]
    fn word_order_matters() {
        let mut a = Fnv::new();
        a.words([1, 2]);
        let mut b = Fnv::new();
        b.words([2, 1]);
        assert_ne!(a.finish(), b.finish());
    }
}
