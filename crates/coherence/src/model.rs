//! Pluggable memory-system backends: the [`MemoryModel`] trait and its
//! name→constructor registry.
//!
//! The paper's shared-memory numbers come from a single 1989 design
//! point — a snooped Write-Back-with-Invalidate bus. This module turns
//! that into a family: every backend consumes the same Tango-style
//! [`Trace`] and produces a [`MemoryOutcome`] — protocol traffic
//! ([`TrafficStats`]), invalidation-transport bytes, per-processor
//! reference counts, and queueing-delay accounting from the mesh
//! [`Arbiter`], which serves the requests under both FIFO and
//! criticality-aware service.
//!
//! Registered backends:
//!
//! * `bus-wbi` — the paper's snooped WBI bus; its traffic comes from the
//!   same replay loop as Table 3's sweep (`traffic_by_line_size`);
//! * `bus-wt` — the write-through ablation on the same bus;
//! * `directory` — directory-based MSI: WBI line semantics, but line
//!   state lives at an address-interleaved home node that *unicasts*
//!   invalidations to the actual holders, so invalidation transport
//!   scales with sharing rather than with machine size;
//! * `dls` — a directoryless shared LLC (arXiv:1206.4753): shared lines
//!   are never privately cached, every access is a word transfer to the
//!   line's home tile — no invalidations, no refetches, and byte traffic
//!   that is insensitive to line size.
//!
//! ## Traffic vs transport accounting
//!
//! [`MemoryOutcome::stats`] counts *protocol data traffic* — line fetches
//! and word-write announcements — identically across WBI-semantics
//! backends, so backends are directly comparable and `bus-wbi` equals
//! Table 3's sweep. The broadcast-vs-unicast difference
//! lives in [`MemoryOutcome::invalidation_traffic_bytes`]: on the bus
//! every write announcement is snooped by all `P−1` other caches; the
//! directory sends one word per *actual* holder; DLS sends none.
//!
//! ## Contention and criticality
//!
//! Each backend pushes every transaction to the arbiter as it prices it,
//! against its contended service point (bus = one resource;
//! directory/DLS = one resource per home tile, with mesh-distance flight
//! time added to the arrival). The arbiter serves each request under FIFO
//! and under critical-first service at once, so a report can state how
//! much critical-request wait the priority arbiter removes on identical
//! traffic (arXiv:1606.05933). No request log is kept: a transaction
//! arrives no earlier than its reference's time, so on a time-ordered
//! trace that time is a horizon no later request arrives before, and the
//! arbiter makes every grant it can no longer revise as the replay runs.
//! A trace pushed out of time order gives no horizon; its requests wait
//! for the end of the replay and are served then. Criticality comes from
//! the trace: the emulator tags rip-up/commit stores
//! [`Critical`](crate::trace::Criticality::Critical).

use locus_mesh::{
    Arbiter, ResolvedContention, ServiceRequest, Topology, HEADER_BYTES, HOP_TIME_NS,
};
use locus_obs::{EventKind as ObsKind, Obs};

use crate::protocol::{transition, Protocol, TrafficStats, Transition, WORD_BYTES};
use crate::table::LineTable;
use crate::trace::{MemRef, RefKind, Trace};

/// Per-byte occupancy of a service point, payload plus framing (ns/byte):
/// the bus analogue of transfer cycles. With a line of at most 2^31 bytes
/// a transaction takes under 2^36 ns, flight included, so 2^28 of them
/// back to back still fit the arbiter's 64-bit clock.
const SERVICE_PER_BYTE_NS: u64 = 20;

/// The machine a backend prices a trace on: the processor count and the
/// line size. The protocol is the backend's own, home tiles are one per
/// processor, and messages travel the Ametek mesh of near-square shape
/// (16 → 4×4) at the mesh kernel's timings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Processors issuing references (home tiles live on the same mesh).
    pub n_procs: u32,
    /// Cache line size in bytes (Table 3 sweeps 4, 8, 16, 32).
    pub line_size: u32,
}

impl MemoryConfig {
    /// The paper's evaluation machine for `n_procs` processors with the
    /// given line size. The line size is checked when a backend is built
    /// (`validate`), not here.
    pub fn paper(n_procs: u32, line_size: u32) -> Self {
        MemoryConfig { n_procs: n_procs.max(1), line_size }
    }

    /// Checks what the public fields could have been set to that the
    /// backend `name` running `protocol` would otherwise panic on or
    /// silently mis-price: the line size, and the processor count (at
    /// most 64 where holders are a bitmask).
    pub(crate) fn validate(&self, name: &str, protocol: Protocol) -> Result<(), String> {
        if !self.line_size.is_power_of_two() {
            return Err(format!(
                "line size must be a nonzero power of two, got {}",
                self.line_size
            ));
        }
        if !(1..=protocol.max_procs()).contains(&self.n_procs) {
            return Err(format!(
                "`{name}` supports 1 to {} processors, got {}",
                protocol.max_procs(),
                self.n_procs
            ));
        }
        Ok(())
    }
}

/// Per-processor reference counts, tallied by the replay loops (the
/// backend-agreement proptests pin these to the trace).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcCounts {
    /// Read references issued by the processor.
    pub reads: u64,
    /// Write references issued by the processor.
    pub writes: u64,
}

/// What one backend produced over one trace.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryOutcome {
    /// Registry name of the backend that produced this.
    pub backend: &'static str,
    /// Protocol data traffic (line fetches + word-write announcements),
    /// accounted identically across WBI-semantics backends.
    pub stats: TrafficStats,
    /// Bytes spent *transporting* invalidation news: bus backends
    /// broadcast every announcement to all `P−1` snoopers, the directory
    /// unicasts one word per actual holder, DLS sends none.
    pub invalidation_traffic_bytes: u64,
    /// Reference counts per processor (index = processor id).
    pub per_proc: Vec<ProcCounts>,
    /// Queueing delays when service points grant in arrival order.
    pub fifo: ResolvedContention,
    /// Queueing delays when queued critical requests are granted first.
    pub critical_first: ResolvedContention,
}

impl MemoryOutcome {
    /// Coherence *events* over the trace: invalidations plus forced
    /// refetches. Zero on any single-processor trace, on every backend.
    pub fn coherence_events(&self) -> u64 {
        self.stats.invalidations + self.stats.refetches
    }

    /// Total critical-request wait the priority arbiter removes relative
    /// to FIFO on the same request log (ns).
    pub fn critical_wait_saved_ns(&self) -> u64 {
        self.fifo.critical.total_wait_ns.saturating_sub(self.critical_first.critical.total_wait_ns)
    }
}

/// A memory-system backend: replay a trace, price its traffic.
///
/// Implementations are stateless configuration objects — `run` builds all
/// per-run state internally, so one model can price many traces.
pub trait MemoryModel {
    /// Registry name of the backend.
    fn name(&self) -> &'static str;

    /// Replays `trace`, recording one [`EventKind::MemRequest`] per
    /// priced transaction through `obs`.
    ///
    /// [`EventKind::MemRequest`]: locus_obs::EventKind::MemRequest
    fn run_observed(&self, trace: &Trace, obs: &Obs) -> MemoryOutcome;

    /// Replays `trace` without observability.
    fn run(&self, trace: &Trace) -> MemoryOutcome {
        self.run_observed(trace, &Obs::off())
    }
}

/// Occupancy of a service point for `payload_bytes` plus framing.
fn service_ns(payload_bytes: u64) -> u64 {
    SERVICE_PER_BYTE_NS * (HEADER_BYTES as u64 + payload_bytes)
}

/// The most tiles [`Pricer`] keeps a flight table for: every machine a
/// holder bitmask can describe. Only `dls` runs larger ones.
const FLIGHT_TABLE_TILES: u32 = 64;

/// Where the home-tile backends send a transaction and how long it flies
/// through the mesh to get there, without a division per request.
struct Pricer {
    topo: Topology,
    /// Home tiles, one per processor tile.
    tiles: u32,
    /// `tiles - 1` when `tiles` is a power of two.
    mask: Option<u32>,
    /// The flight time from processor `p` to home `h` at `p * tiles + h`,
    /// on machines of at most [`FLIGHT_TABLE_TILES`] tiles; empty above.
    flights: Vec<u32>,
}

impl Pricer {
    fn new(cfg: &MemoryConfig) -> Self {
        let topo = Topology::for_procs(cfg.n_procs as usize);
        let tiles = cfg.n_procs;
        let mut pricer = Pricer {
            topo,
            tiles,
            mask: tiles.is_power_of_two().then(|| tiles - 1),
            flights: Vec::new(),
        };
        if tiles <= FLIGHT_TABLE_TILES {
            pricer.flights = (0..tiles * tiles)
                .map(|i| {
                    let flight = pricer.far_flight_ns(i / tiles, i % tiles);
                    u32::try_from(flight).expect("a flight across 64 tiles fits 32 bits")
                })
                .collect();
        }
        pricer
    }

    /// The home tile of `line`: lines are interleaved over the tiles.
    #[inline]
    fn home(&self, line: u32) -> u32 {
        match self.mask {
            Some(mask) => line & mask,
            None => line % self.tiles,
        }
    }

    /// Flight time from the requesting processor's tile to the home tile
    /// (dimension-order distance at `HopTime` per hop); the request only
    /// starts queueing once it arrives. `home` is one of [`Self::home`]'s,
    /// so the table has an entry exactly when `proc` is below `tiles`.
    #[inline]
    fn flight_ns(&self, proc: u32, home: u32) -> u64 {
        match self.flights.get(proc as usize * self.tiles as usize + home as usize) {
            Some(&flight) => u64::from(flight),
            None => self.far_flight_ns(proc, home),
        }
    }

    /// [`Self::flight_ns`] from the topology: a processor the machine did
    /// not announce sits on tile `proc % tiles`.
    #[cold]
    fn far_flight_ns(&self, proc: u32, home: u32) -> u64 {
        let n = self.topo.n_nodes();
        let d = self.topo.hops(proc as usize % n, home as usize % n);
        HOP_TIME_NS * d as u64
    }
}

/// Per-run accumulator shared by all backends: per-proc counts, the
/// arbiter that serves the priced requests, and the obs stream.
pub(crate) struct RunAcc<'a> {
    backend: &'a Backend,
    per_proc: Vec<ProcCounts>,
    arb: Arbiter,
    /// Whether the trace is time-ordered, so that no request priced later
    /// arrives before the reference being priced.
    sorted: bool,
    obs: &'a Obs,
}

impl<'a> RunAcc<'a> {
    pub(crate) fn new(backend: &'a Backend, obs: &'a Obs) -> Self {
        RunAcc {
            backend,
            per_proc: vec![ProcCounts::default(); backend.cfg.n_procs as usize],
            arb: Arbiter::new(),
            sorted: false,
            obs,
        }
    }

    /// Makes room for a processor the configuration did not announce,
    /// after checking that the protocol can represent it: the replay
    /// loops need no check per reference.
    #[cold]
    fn grow(&mut self, proc: u32) {
        let max_procs = self.backend.protocol.max_procs();
        assert!(
            proc < max_procs,
            "`{}` supports up to {max_procs} processors, the trace names processor {proc}",
            self.backend.name,
        );
        self.per_proc.resize(proc as usize + 1, ProcCounts::default());
    }

    /// Counts every reference of `trace` by its burst, before the replay
    /// reads one: each processor is checked as it first appears.
    fn count(&mut self, trace: &Trace) {
        self.sorted = trace.is_sorted();
        for (proc, kind, n) in trace.burst_counts() {
            if proc as usize >= self.per_proc.len() {
                self.grow(proc);
            }
            let c = &mut self.per_proc[proc as usize];
            match kind {
                RefKind::Read => c.reads += n as u64,
                RefKind::Write => c.writes += n as u64,
            }
        }
    }

    /// The one replay loop behind every number with WBI line semantics
    /// (`bus-wbi`, `bus-wt`, `directory`, and Table 3's sweep): counts
    /// the references by burst, then applies [`transition`] to each one's
    /// line, skips hits and charges the rest to the returned
    /// [`TrafficStats`]. Each such transaction — the reference, its line
    /// number, the transition and the bytes it moved — goes to `priced`,
    /// which is all that differs between the backends.
    ///
    /// # Panics
    /// Panics unless the line size is a nonzero power of two, and on a
    /// processor the protocol cannot represent.
    #[inline]
    pub(crate) fn replay(
        &mut self,
        trace: &Trace,
        mut priced: impl FnMut(&mut Self, &MemRef, u32, &Transition, u64),
    ) -> TrafficStats {
        let (cfg, protocol) = (&self.backend.cfg, self.backend.protocol);
        let mut lines = LineTable::new(cfg.line_size);
        let mut stats = TrafficStats::default();
        self.count(trace);
        trace.refs().for_each(|r| {
            let line = lines.line_of(r.addr);
            let t = transition(lines.line(line), r.proc, r.kind, protocol);
            if t.is_hit() {
                return; // served by the private cache
            }
            let moved = stats.charge(&t, r.kind, cfg);
            priced(self, &r, line, &t, moved);
        });
        stats
    }

    /// Charges one priced transaction to `resource`. It arrives at or
    /// after `r.time`; so does every transaction priced after it when the
    /// trace is time-ordered, and that is the arbiter's horizon. Out of
    /// order, the horizon is 0 and the arbiter serves nothing before
    /// [`Self::finish`].
    fn request(&mut self, resource: u32, r: &MemRef, bytes: u64, arrive_ns: u64, service_ns: u64) {
        let horizon = if self.sorted { r.time } else { 0 };
        let req = ServiceRequest {
            resource,
            proc: r.proc,
            arrive_ns,
            service_ns,
            critical: r.is_critical(),
        };
        self.arb.push(req, horizon);
        if self.obs.is_on() {
            let kind = ObsKind::MemRequest {
                resource,
                bytes: bytes.min(u32::MAX as u64) as u32,
                critical: r.is_critical(),
            };
            self.obs.emit_on(arrive_ns, r.proc, kind);
        }
    }

    fn finish(self, stats: TrafficStats, invalidation_traffic_bytes: u64) -> MemoryOutcome {
        let (fifo, critical_first) = self.arb.finish();
        MemoryOutcome {
            backend: self.backend.name,
            stats,
            invalidation_traffic_bytes,
            per_proc: self.per_proc,
            fifo,
            critical_first,
        }
    }
}

/// A registered backend built for one machine: its name, the machine
/// and the protocol it runs. What differs between the backends is how
/// [`MemoryModel::run_observed`] prices a transaction:
///
/// * the snooped buses (`bus-wbi` / `bus-wt`) log every miss or
///   announcement as one transaction on the single bus, and every
///   announcement is snooped by all other caches;
/// * `directory` runs MSI with WBI line semantics, keeps line state at one
///   home node per processor tile (line `l` lives on tile `l % P`), and
///   prices unicast invalidations through the mesh;
/// * `dls` is a directoryless shared LLC. Shared lines are never privately
///   cached — every reference is a word transfer to the line's home tile,
///   with lines interleaved over the tiles one at a time. No private
///   copies means no invalidations and no refetches, and total traffic
///   that does not depend on the line size.
///
/// Each arm passes its own pricing closure to the replay loop, so every
/// protocol's loop is compiled for it alone.
pub(crate) struct Backend {
    name: &'static str,
    cfg: MemoryConfig,
    protocol: Protocol,
}

impl Backend {
    /// The paper's snooped WBI bus on `cfg`, unchecked: Table 3's sweep
    /// replays through it and panics where the registry would refuse.
    pub(crate) fn bus_wbi(cfg: MemoryConfig) -> Self {
        let entry = &MEMORY_MODELS[0];
        Backend { name: entry.name, cfg, protocol: entry.protocol }
    }
}

impl MemoryModel for Backend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run_observed(&self, trace: &Trace, obs: &Obs) -> MemoryOutcome {
        let cfg = &self.cfg;
        let mut acc = RunAcc::new(self, obs);
        let (stats, transport) = match self.protocol {
            Protocol::WriteBackInvalidate | Protocol::WriteThrough => {
                // The bus is a single broadcast medium: no per-hop flight time.
                let stats = acc.replay(trace, |acc, r, _, _, moved| {
                    acc.request(0, r, moved, r.time, service_ns(moved));
                });
                // Every announcement is snooped by all other caches.
                let broadcast =
                    stats.word_writes * WORD_BYTES * (cfg.n_procs as u64).saturating_sub(1);
                (stats, broadcast)
            }
            Protocol::Directory => {
                let pricer = Pricer::new(cfg);
                let mut unicast_bytes = 0u64;
                let stats = acc.replay(trace, |acc, r, line, t, moved| {
                    // The home supplies the line on a miss (a dirty owner
                    // writes back through it in passing). A write sends the
                    // home one ownership word, and the home unicasts an
                    // invalidation word to each *actual* holder (no
                    // broadcast).
                    let invals = t.copies() as u64 * WORD_BYTES;
                    unicast_bytes += invals;
                    let home = pricer.home(line);
                    let arrive = r.time + pricer.flight_ns(r.proc, home);
                    acc.request(home, r, moved + invals, arrive, service_ns(moved + invals));
                });
                (stats, unicast_bytes)
            }
            Protocol::DirectorylessLlc => {
                let pricer = Pricer::new(cfg);
                let line_shift = cfg.line_size.trailing_zeros();
                let word = WORD_BYTES;
                let mut stats = TrafficStats::default();
                acc.count(trace);
                trace.refs().for_each(|r| {
                    let home = pricer.home(r.addr >> line_shift);
                    stats.total_bytes += word;
                    match r.kind {
                        RefKind::Read => stats.read_caused_bytes += word,
                        RefKind::Write => {
                            stats.write_caused_bytes += word;
                            stats.word_writes += 1;
                        }
                    }
                    let arrive = r.time + pricer.flight_ns(r.proc, home);
                    acc.request(home, &r, word, arrive, service_ns(word));
                });
                (stats, 0)
            }
        };
        acc.finish(stats, transport)
    }
}

/// One registered backend.
pub struct MemoryModelEntry {
    /// CLI/report name.
    pub name: &'static str,
    /// One-line description for `--memory help` listings.
    pub summary: &'static str,
    /// The protocol the backend runs.
    pub(crate) protocol: Protocol,
}

impl MemoryModelEntry {
    /// Builds this backend for `cfg`, or the error `MemoryConfig::validate`
    /// gives for a machine it cannot price.
    pub fn build(&self, cfg: MemoryConfig) -> Result<Box<dyn MemoryModel>, String> {
        cfg.validate(self.name, self.protocol)?;
        Ok(Box::new(Backend { name: self.name, cfg, protocol: self.protocol }))
    }
}

/// `bus-wbi` comes first: [`Backend::bus_wbi`] takes it from here.
static MEMORY_MODELS: [MemoryModelEntry; 4] = [
    MemoryModelEntry {
        name: "bus-wbi",
        summary: "snooped Write-Back-with-Invalidate bus (the paper's Table 3 memory system)",
        protocol: Protocol::WriteBackInvalidate,
    },
    MemoryModelEntry {
        name: "bus-wt",
        summary: "snooped write-through bus (Archibald & Baer ablation; every write on the bus)",
        protocol: Protocol::WriteThrough,
    },
    MemoryModelEntry {
        name: "directory",
        summary: "directory-based MSI: home-node line state, unicast invalidations over the mesh",
        protocol: Protocol::Directory,
    },
    MemoryModelEntry {
        name: "dls",
        summary: "directoryless shared LLC: no private caching, word transfers to home tiles",
        protocol: Protocol::DirectorylessLlc,
    },
];

/// All registered backends, in presentation order.
pub fn memory_registry() -> &'static [MemoryModelEntry] {
    &MEMORY_MODELS
}

/// Builds the backend registered as `name`. An unknown name is an error
/// listing the known ones, and a configuration the backend cannot run is
/// the error `MemoryConfig::validate` gives for it; neither panics.
pub fn build_memory_model(name: &str, cfg: MemoryConfig) -> Result<Box<dyn MemoryModel>, String> {
    let entry = MEMORY_MODELS.iter().find(|e| e.name == name).ok_or_else(|| {
        let known: Vec<&str> = MEMORY_MODELS.iter().map(|e| e.name).collect();
        format!("unknown memory backend `{name}` (known: {})", known.join(", "))
    })?;
    entry.build(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Criticality;

    /// A churny multi-processor trace with tagged criticality: every
    /// processor sweeps reads over a shared region (background) and the
    /// round's winner commits a few stores (critical).
    fn churn_trace(n_procs: u32) -> Trace {
        let mut t = Trace::new();
        let mut time = 0u64;
        for round in 0..20u32 {
            for p in 0..n_procs {
                for cell in 0..24u32 {
                    t.push(MemRef::new(time + (cell as u64) * 7, p, cell * 2, RefKind::Read));
                }
            }
            time += 24 * 7;
            for i in 0..5u32 {
                t.push(
                    MemRef::new(time, round % n_procs, ((round * 5 + i) % 24) * 2, RefKind::Write)
                        .with_delta(1)
                        .with_criticality(Criticality::Critical),
                );
                time += 3;
            }
        }
        t.sort_by_time();
        t
    }

    #[test]
    fn directory_data_traffic_matches_bus_wbi() {
        // Same WBI line semantics, different transport: the protocol data
        // traffic must agree; only invalidation transport differs.
        let t = churn_trace(4);
        let cfg = MemoryConfig::paper(4, 8);
        let bus = build_memory_model("bus-wbi", cfg).expect("registered").run(&t);
        let dir = build_memory_model("directory", cfg).expect("registered").run(&t);
        assert_eq!(dir.stats, bus.stats);
        assert!(dir.invalidation_traffic_bytes <= bus.invalidation_traffic_bytes);
    }

    #[test]
    fn directory_unicast_beats_broadcast_with_few_sharers() {
        // One writer, one reader, 16 processors: bus broadcast pays 15
        // snoops per announcement, the directory pays one unicast.
        let mut t = Trace::new();
        for i in 0..40u64 {
            t.push(MemRef::new(3 * i, 0, 0, RefKind::Write));
            t.push(MemRef::new(3 * i + 1, 1, 0, RefKind::Read));
        }
        let cfg = MemoryConfig::paper(16, 8);
        let bus = build_memory_model("bus-wbi", cfg).expect("registered").run(&t);
        let dir = build_memory_model("directory", cfg).expect("registered").run(&t);
        assert!(dir.invalidation_traffic_bytes < bus.invalidation_traffic_bytes / 8);
    }

    #[test]
    fn dls_has_no_coherence_traffic_and_ignores_line_size() {
        let t = churn_trace(4);
        let a = build_memory_model("dls", MemoryConfig::paper(4, 4)).expect("registered").run(&t);
        let b = build_memory_model("dls", MemoryConfig::paper(4, 32)).expect("registered").run(&t);
        assert_eq!(a.coherence_events(), 0);
        assert_eq!(a.invalidation_traffic_bytes, 0);
        assert_eq!(a.stats.total_bytes, b.stats.total_bytes, "DLS is line-size insensitive");
        assert_eq!(a.stats.total_bytes, (t.len() as u64) * 4);
    }

    #[test]
    fn per_proc_counts_agree_across_backends() {
        let t = churn_trace(4);
        let cfg = MemoryConfig::paper(4, 8);
        let outs: Vec<MemoryOutcome> =
            memory_registry().iter().map(|e| e.build(cfg).expect("valid").run(&t)).collect();
        for pair in outs.windows(2) {
            assert_eq!(
                pair[0].per_proc, pair[1].per_proc,
                "{} vs {}",
                pair[0].backend, pair[1].backend
            );
        }
        let total: u64 = outs[0].per_proc.iter().map(|c| c.reads + c.writes).sum();
        assert_eq!(total, t.len() as u64);
    }

    #[test]
    fn critical_first_reduces_critical_wait_under_churn() {
        let t = churn_trace(8);
        for name in ["bus-wbi", "directory", "dls"] {
            let out =
                build_memory_model(name, MemoryConfig::paper(8, 8)).expect("registered").run(&t);
            assert!(out.fifo.critical.requests > 0, "{name}: no critical requests priced");
            assert!(
                out.critical_first.critical.total_wait_ns <= out.fifo.critical.total_wait_ns,
                "{name}: priority must not increase critical wait"
            );
        }
        // On the contended single bus the reduction must be strict.
        let bus =
            build_memory_model("bus-wbi", MemoryConfig::paper(8, 8)).expect("registered").run(&t);
        assert!(
            bus.critical_wait_saved_ns() > 0,
            "bus churn must show a FIFO-vs-priority gap (fifo {} ns)",
            bus.fifo.critical.total_wait_ns
        );
    }

    /// Every way the public fields can describe a machine no backend can
    /// price, with the word the error must contain.
    fn absurd_configs() -> Vec<(&'static str, MemoryConfig, &'static str)> {
        let ok = MemoryConfig::paper(16, 8);
        let line = |line_size| MemoryConfig { line_size, ..ok };
        vec![
            ("bus-wbi", line(0), "line size"),
            ("bus-wt", line(12), "line size"),
            ("directory", line(48), "line size"),
            ("dls", line(0), "line size"),
            ("bus-wbi", MemoryConfig { n_procs: 0, ..ok }, "processors"),
            ("bus-wt", MemoryConfig { n_procs: 65, ..ok }, "processors"),
            ("directory", MemoryConfig { n_procs: u32::MAX, ..ok }, "processors"),
            ("dls", MemoryConfig { n_procs: 0, ..ok }, "processors"),
            ("dls", MemoryConfig { n_procs: u32::MAX, ..ok }, "processors"),
        ]
    }

    #[test]
    fn absurd_configs_are_errors_never_panics() {
        for (backend, cfg, needle) in absurd_configs() {
            let err = build_memory_model(backend, cfg).err().unwrap_or_else(|| {
                panic!("`{backend}` accepted {cfg:?}");
            });
            assert!(err.contains(needle), "`{backend}`: {err:?} should mention {needle:?}");
            // The same verdict without building anything.
            let entry = memory_registry().iter().find(|e| e.name == backend).expect("registered");
            assert_eq!(cfg.validate(entry.name, entry.protocol), Err(err));
        }
    }

    #[test]
    fn sane_configs_validate_on_every_backend() {
        for n_procs in [1, 2, 16, 64] {
            for line in [1, 4, 8, 32, 1 << 31] {
                for e in memory_registry() {
                    let cfg = MemoryConfig::paper(n_procs, line);
                    assert!(build_memory_model(e.name, cfg).is_ok(), "{} {n_procs} {line}", e.name);
                }
            }
        }
        // Nothing is privately cached under dls, so no bitmask bounds it.
        assert!(build_memory_model("dls", MemoryConfig::paper(100, 8)).is_ok());
    }

    #[test]
    fn traces_naming_more_processors_than_the_bitmask_fail_the_sweep_cleanly() {
        // Processor u32::MAX is one more than a `u32` counts: no overflow,
        // and beyond what `dls` keeps counts for as well.
        for (proc, dls_prices_it) in [(70, true), (u32::MAX, false)] {
            let mut t = Trace::new();
            t.push(MemRef::new(0, proc, 0, RefKind::Write));
            let err = crate::traffic_by_backend("directory", &t, &[8]).expect_err("too many");
            assert!(err.contains("processors"), "{err}");
            assert_eq!(crate::traffic_by_backend("dls", &t, &[8]).is_ok(), dls_prices_it, "{proc}");
        }
    }

    #[test]
    #[should_panic(expected = "64 processors")]
    fn a_processor_the_config_did_not_announce_is_checked_when_it_appears() {
        // The machine says 4 processors; the trace brings a 65th.
        let mut t = churn_trace(4);
        t.push(MemRef::new(1_000_000, 64, 0, RefKind::Read));
        let _ = build_memory_model("bus-wbi", MemoryConfig::paper(4, 8)).unwrap().run(&t);
    }

    #[test]
    fn unannounced_processors_below_the_limit_still_grow_the_counts() {
        let mut t = churn_trace(4);
        t.push(MemRef::new(1_000_000, 9, 0, RefKind::Read));
        for e in memory_registry() {
            let out = e.build(MemoryConfig::paper(4, 8)).expect("valid").run(&t);
            assert_eq!(out.per_proc.len(), 10, "{}", e.name);
            assert_eq!(out.per_proc[9], ProcCounts { reads: 1, writes: 0 }, "{}", e.name);
        }
    }

    #[test]
    fn registry_rejects_unknown_names() {
        let err = build_memory_model("mesi-torus", MemoryConfig::paper(16, 8))
            .err()
            .expect("must be unknown");
        assert!(err.contains("bus-wbi") && err.contains("dls"), "{err}");
    }

    #[test]
    fn a_trace_pushed_out_of_time_order_is_served_whole_at_finish() {
        // Reads of distinct lines miss alike in any order, so the priced
        // requests are the sorted trace's. Pushed newest first, each would
        // arrive before the horizon the one before it gave.
        let mut sorted = Trace::new();
        let mut reversed = Trace::new();
        let refs: Vec<MemRef> = (0..40u32)
            .map(|i| {
                let crit = if i % 3 == 0 { Criticality::Critical } else { Criticality::Background };
                MemRef::new(u64::from(i) * 5, i % 4, i * 64, RefKind::Read).with_criticality(crit)
            })
            .collect();
        refs.iter().for_each(|&r| sorted.push(r));
        refs.iter().rev().for_each(|&r| reversed.push(r));
        assert!(sorted.is_sorted() && !reversed.is_sorted());
        for e in memory_registry() {
            let model = e.build(MemoryConfig::paper(4, 8)).expect("valid");
            let (a, b) = (model.run(&reversed), model.run(&sorted));
            assert!(b.fifo.all().total_wait_ns > 0, "{}: the requests contend", e.name);
            assert_eq!(a, b, "{}", e.name);
        }
    }

    #[test]
    fn observed_run_streams_mem_requests() {
        use locus_obs::SharedSink;
        let t = churn_trace(4);
        let sink = SharedSink::new();
        let out = build_memory_model("directory", MemoryConfig::paper(4, 8))
            .expect("registered")
            .run_observed(&t, &Obs::to(&sink));
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter("mem_requests"), out.fifo.all().requests);
        assert_eq!(m.counter("mem_critical_requests"), out.fifo.critical.requests);
    }
}
