//! Pluggable memory-system backends: the [`MemoryModel`] trait and its
//! name→constructor registry.
//!
//! The paper's shared-memory numbers come from a single 1989 design
//! point — a snooped Write-Back-with-Invalidate bus. This module turns
//! that into a family: every backend consumes the same Tango-style
//! [`Trace`] and produces a [`MemoryOutcome`] — protocol traffic
//! ([`TrafficStats`]), invalidation-transport bytes, per-processor
//! reference counts, and queueing-delay accounting from the mesh
//! [`Arbiter`] resolved under both FIFO and criticality-aware service.
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
//! Each backend logs every transaction against its contended service
//! point (bus = one resource; directory/DLS = one resource per home
//! tile, with mesh-distance flight time added to the arrival) and the
//! log is resolved twice — [`ServicePolicy::Fifo`] and
//! [`ServicePolicy::CriticalFirst`] — so a report can state how much
//! critical-request wait the priority arbiter removes on identical
//! traffic (arXiv:1606.05933). Criticality comes from the trace: the
//! emulator tags rip-up/commit stores [`Critical`](crate::trace::Criticality::Critical).

use locus_mesh::{
    Arbiter, MeshConfig, ResolvedContention, ServicePolicy, ServiceRequest, Topology,
};
use locus_obs::{EventKind as ObsKind, Obs};

use crate::protocol::{transition, DirectoryParams, DlsParams, Protocol, TrafficStats, Transition};
use crate::table::LineTable;
use crate::trace::{MemRef, RefKind, Trace};

/// Longest one transaction may take, flight plus service (ns), about 18
/// simulated minutes: 2^23 of them back to back, three bnrE P=16 traces'
/// worth, still fit the arbiter's 64-bit clock.
const MAX_TRANSACTION_NS: u64 = 1 << 40;

/// Everything a backend needs to price a trace: processor count, line
/// and word sizes, the protocol variant with its params, and the machine
/// the messages travel on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Processors issuing references (home tiles live on the same mesh).
    pub n_procs: u32,
    /// Cache line size in bytes (Table 3 sweeps 4, 8, 16, 32).
    pub line_size: u32,
    /// Size of the bus word write used to announce writes.
    pub word_bytes: u32,
    /// Protocol family.
    pub protocol: Protocol,
    /// Machine model used to price transport and contention.
    pub mesh: MeshConfig,
}

impl MemoryConfig {
    /// The paper's evaluation machine for `n_procs` processors with the
    /// given line size: WBI protocol, 4-byte words, Ametek-style mesh of
    /// near-square shape (16 → 4×4). The line size is checked when a
    /// backend is built (`validate`), not here.
    pub fn paper(n_procs: u32, line_size: u32) -> Self {
        let n = n_procs.max(1);
        let topo = Topology::for_procs(n as usize);
        MemoryConfig {
            n_procs: n,
            line_size,
            word_bytes: 4,
            protocol: Protocol::WriteBackInvalidate,
            mesh: MeshConfig::ametek(topo.rows, topo.cols),
        }
    }

    /// Checks everything the public fields could have been set to that a
    /// backend would otherwise panic on or silently mis-price: line and
    /// word sizes, the processor count (at most 64 where holders are a
    /// bitmask), the mesh shape and timing, and the protocol variant's
    /// parameters.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let sizes = [("line size", self.line_size), ("word size", self.word_bytes)];
        if let Some((what, bytes)) = sizes.into_iter().find(|(_, bytes)| !bytes.is_power_of_two()) {
            return Err(format!("{what} must be a nonzero power of two, got {bytes}"));
        }
        let m = &self.mesh;
        if m.rows == 0 || m.cols == 0 {
            return Err(format!("mesh must be at least 1×1, got {}×{}", m.rows, m.cols));
        }
        let protocol = self.protocol;
        if !(1..=protocol.max_procs()).contains(&self.n_procs) {
            return Err(format!(
                "`{}` supports 1 to {} processors, got {}",
                protocol.backend_name(),
                protocol.max_procs(),
                self.n_procs
            ));
        }
        // The costliest transaction: a line fetch, its announcement and a
        // word per invalidated holder, sent corner to corner.
        let payload = self.line_size as u64 + 64 * self.word_bytes as u64;
        let hops = (m.rows - 1).saturating_add(m.cols - 1) as u64;
        let worst = m
            .recv_per_byte_ns
            .checked_mul(m.header_bytes as u64 + payload)
            .zip(m.hop_time_ns.checked_mul(hops))
            .and_then(|(service, flight)| service.checked_add(flight));
        if worst.is_none_or(|ns| ns > MAX_TRANSACTION_NS) {
            return Err(format!(
                "mesh recv_per_byte_ns {}, header_bytes {} and hop_time_ns {} price a \
                 {payload}-byte transaction above 2^40 ns",
                m.recv_per_byte_ns, m.header_bytes, m.hop_time_ns
            ));
        }
        match protocol {
            Protocol::Directory(p) if p.home_tiles == 0 => {
                Err("directory needs at least one home tile".into())
            }
            Protocol::DirectorylessLlc(p) if p.interleave_lines == 0 => {
                Err("dls interleave granularity must be nonzero".into())
            }
            _ => Ok(()),
        }
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

/// Shared transport pricing: how long a transaction occupies its service
/// point and how long it flies through the mesh to get there.
struct Pricer {
    mesh: MeshConfig,
    topo: Topology,
}

impl Pricer {
    fn new(cfg: &MemoryConfig) -> Self {
        Pricer { mesh: cfg.mesh, topo: Topology::new(cfg.mesh.rows, cfg.mesh.cols) }
    }

    /// Occupancy of the service point: per-byte receive/disassembly cost
    /// over payload plus framing (the bus analogue: transfer cycles).
    fn service_ns(&self, payload_bytes: u64) -> u64 {
        self.mesh.recv_per_byte_ns * (self.mesh.header_bytes as u64 + payload_bytes)
    }

    /// Flight time from the requesting processor's tile to the home tile
    /// (dimension-order distance at `hop_time_ns` per hop); the request
    /// only starts queueing once it arrives.
    fn flight_ns(&self, proc: u32, home: u32) -> u64 {
        let n = self.topo.n_nodes();
        let d = self.topo.hops(proc as usize % n, home as usize % n);
        self.mesh.hop_time_ns * d as u64
    }
}

/// Per-run accumulator shared by all backends: per-proc counts, the
/// arbiter request log, and the obs stream.
pub(crate) struct RunAcc<'a> {
    cfg: &'a MemoryConfig,
    per_proc: Vec<ProcCounts>,
    arb: Arbiter,
    obs: &'a Obs,
}

impl<'a> RunAcc<'a> {
    pub(crate) fn new(cfg: &'a MemoryConfig, obs: &'a Obs) -> Self {
        RunAcc {
            cfg,
            per_proc: vec![ProcCounts::default(); cfg.n_procs as usize],
            arb: Arbiter::new(),
            obs,
        }
    }

    /// Makes room for a processor the configuration did not announce,
    /// after checking that the protocol can represent it: the replay
    /// loops need no check per reference.
    #[cold]
    fn grow(&mut self, proc: u32) {
        let protocol = self.cfg.protocol;
        assert!(
            proc < protocol.max_procs(),
            "`{}` supports up to {} processors, the trace names processor {proc}",
            protocol.backend_name(),
            protocol.max_procs()
        );
        self.per_proc.resize(proc as usize + 1, ProcCounts::default());
    }

    #[inline]
    fn count(&mut self, r: &MemRef) {
        if r.proc as usize >= self.per_proc.len() {
            self.grow(r.proc);
        }
        let c = &mut self.per_proc[r.proc as usize];
        match r.kind {
            RefKind::Read => c.reads += 1,
            RefKind::Write => c.writes += 1,
        }
    }

    /// The one replay loop behind every number with WBI line semantics
    /// (`bus-wbi`, `bus-wt`, `directory`, and Table 3's sweep): counts
    /// each reference, applies [`transition`] to its line, skips hits and
    /// charges the rest to the returned [`TrafficStats`]. Each such
    /// transaction — the reference, its line number, the transition and
    /// the bytes it moved — goes to `priced`, which is all that differs
    /// between the backends.
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
        let cfg = self.cfg;
        let mut lines = LineTable::new(cfg.line_size);
        let mut stats = TrafficStats::default();
        trace.refs().for_each(|r| {
            self.count(&r);
            let line = lines.line_of(r.addr);
            let t = transition(lines.line(line), r.proc, r.kind, cfg.protocol);
            if t.is_hit() {
                return; // served by the private cache
            }
            let moved = stats.charge(&t, r.kind, cfg);
            priced(self, &r, line, &t, moved);
        });
        stats
    }

    /// Logs one priced transaction against `resource`.
    fn request(&mut self, resource: u32, r: &MemRef, bytes: u64, arrive_ns: u64, service_ns: u64) {
        self.arb.push(ServiceRequest {
            resource,
            proc: r.proc,
            arrive_ns,
            service_ns,
            critical: r.is_critical(),
        });
        if self.obs.is_on() {
            let kind = ObsKind::MemRequest {
                resource,
                bytes: bytes.min(u32::MAX as u64) as u32,
                critical: r.is_critical(),
            };
            self.obs.emit_on(arrive_ns, r.proc, kind);
        }
    }

    fn finish(
        mut self,
        backend: &'static str,
        stats: TrafficStats,
        invalidation_traffic_bytes: u64,
    ) -> MemoryOutcome {
        // The first resolve sorts the per-resource logs; the second reuses them.
        let fifo = self.arb.resolve(ServicePolicy::Fifo);
        let critical_first = self.arb.resolve(ServicePolicy::CriticalFirst);
        MemoryOutcome {
            backend,
            stats,
            invalidation_traffic_bytes,
            per_proc: self.per_proc,
            fifo,
            critical_first,
        }
    }
}

/// The snooped-bus backends (`bus-wbi` / `bus-wt`): every miss or
/// announcement is one transaction on the single bus.
struct BusModel {
    cfg: MemoryConfig,
}

impl MemoryModel for BusModel {
    fn name(&self) -> &'static str {
        self.cfg.protocol.backend_name()
    }

    fn run_observed(&self, trace: &Trace, obs: &Obs) -> MemoryOutcome {
        let pricer = Pricer::new(&self.cfg);
        let mut acc = RunAcc::new(&self.cfg, obs);
        // The bus is a single broadcast medium: no per-hop flight time.
        let stats = acc.replay(trace, |acc, r, _, _, moved| {
            acc.request(0, r, moved, r.time, pricer.service_ns(moved));
        });
        // Every announcement is snooped by all other caches.
        let broadcast = stats.word_writes
            * self.cfg.word_bytes as u64
            * (self.cfg.n_procs as u64).saturating_sub(1);
        acc.finish(self.name(), stats, broadcast)
    }
}

/// The `directory` backend: MSI with WBI line semantics, home-node line
/// state, and unicast invalidations priced through the mesh.
struct DirectoryModel {
    cfg: MemoryConfig,
    params: DirectoryParams,
}

impl MemoryModel for DirectoryModel {
    fn name(&self) -> &'static str {
        "directory"
    }

    fn run_observed(&self, trace: &Trace, obs: &Obs) -> MemoryOutcome {
        let word = self.cfg.word_bytes as u64;
        let pricer = Pricer::new(&self.cfg);
        let mut unicast_bytes = 0u64;
        let mut acc = RunAcc::new(&self.cfg, obs);
        let stats = acc.replay(trace, |acc, r, line, t, moved| {
            // The home supplies the line on a miss (a dirty owner writes
            // back through it in passing). A write sends the home one
            // ownership word, and the home unicasts an invalidation word
            // to each *actual* holder (no broadcast).
            let invals = t.copies() as u64 * word;
            unicast_bytes += invals;
            let home = line % self.params.home_tiles;
            let arrive = r.time + pricer.flight_ns(r.proc, home);
            acc.request(home, r, moved + invals, arrive, pricer.service_ns(moved + invals));
        });
        acc.finish(self.name(), stats, unicast_bytes)
    }
}

/// The `dls` backend: a directoryless shared LLC. Shared lines are never
/// privately cached — every reference is a word transfer to the line's
/// address-interleaved home tile. No private copies means no
/// invalidations and no refetches, and total traffic that does not
/// depend on the line size.
struct DlsModel {
    cfg: MemoryConfig,
    params: DlsParams,
}

impl MemoryModel for DlsModel {
    fn name(&self) -> &'static str {
        "dls"
    }

    fn run_observed(&self, trace: &Trace, obs: &Obs) -> MemoryOutcome {
        let line_shift = self.cfg.line_size.trailing_zeros();
        let word = self.cfg.word_bytes as u64;
        let tiles = self.cfg.n_procs;
        let pricer = Pricer::new(&self.cfg);
        let mut stats = TrafficStats::default();
        let mut acc = RunAcc::new(&self.cfg, obs);

        trace.refs().for_each(|r| {
            acc.count(&r);
            let home = ((r.addr >> line_shift) / self.params.interleave_lines) % tiles;
            stats.total_bytes += word;
            match r.kind {
                RefKind::Read => stats.read_caused_bytes += word,
                RefKind::Write => {
                    stats.write_caused_bytes += word;
                    stats.word_writes += 1;
                }
            }
            let arrive = r.time + pricer.flight_ns(r.proc, home);
            acc.request(home, &r, word, arrive, pricer.service_ns(word));
        });
        acc.finish(self.name(), stats, 0)
    }
}

/// One registered backend.
pub struct MemoryModelEntry {
    /// CLI/report name.
    pub name: &'static str,
    /// One-line description for `--memory help` listings.
    pub summary: &'static str,
    /// The protocol variant the backend runs a configuration under: the
    /// configuration's own variant when it already matches, so its params
    /// survive, else the backend's defaults.
    pub protocol: fn(&MemoryConfig) -> Protocol,
}

impl MemoryModelEntry {
    /// Builds this backend for `cfg` under [`Self::protocol`], or the
    /// error `MemoryConfig::validate` gives for a machine it cannot
    /// price.
    pub fn build(&self, cfg: MemoryConfig) -> Result<Box<dyn MemoryModel>, String> {
        let cfg = MemoryConfig { protocol: (self.protocol)(&cfg), ..cfg };
        cfg.validate()?;
        Ok(match cfg.protocol {
            Protocol::WriteBackInvalidate | Protocol::WriteThrough => Box::new(BusModel { cfg }),
            Protocol::Directory(params) => Box::new(DirectoryModel { cfg, params }),
            Protocol::DirectorylessLlc(params) => Box::new(DlsModel { cfg, params }),
        })
    }
}

static MEMORY_MODELS: [MemoryModelEntry; 4] = [
    MemoryModelEntry {
        name: "bus-wbi",
        summary: "snooped Write-Back-with-Invalidate bus (the paper's Table 3 memory system)",
        protocol: |_| Protocol::WriteBackInvalidate,
    },
    MemoryModelEntry {
        name: "bus-wt",
        summary: "snooped write-through bus (Archibald & Baer ablation; every write on the bus)",
        protocol: |_| Protocol::WriteThrough,
    },
    MemoryModelEntry {
        name: "directory",
        summary: "directory-based MSI: home-node line state, unicast invalidations over the mesh",
        protocol: |cfg| match cfg.protocol {
            own @ Protocol::Directory(_) => own,
            // One directory slice per processor tile.
            _ => Protocol::Directory(DirectoryParams { home_tiles: cfg.n_procs }),
        },
    },
    MemoryModelEntry {
        name: "dls",
        summary: "directoryless shared LLC: no private caching, word transfers to home tiles",
        protocol: |cfg| match cfg.protocol {
            own @ Protocol::DirectorylessLlc(_) => own,
            // Line-granular interleaving.
            _ => Protocol::DirectorylessLlc(DlsParams { interleave_lines: 1 }),
        },
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

    #[test]
    fn a_matching_protocol_variant_keeps_its_params() {
        // One home tile: every directory request queues at resource 0, so
        // nothing can be served faster than the whole log's busy time.
        let t = churn_trace(4);
        let cfg = MemoryConfig::paper(4, 8);
        let one = MemoryConfig {
            protocol: Protocol::Directory(DirectoryParams { home_tiles: 1 }),
            ..cfg
        };
        let spread = build_memory_model("directory", cfg).unwrap().run(&t);
        let packed = build_memory_model("directory", one).unwrap().run(&t);
        assert_eq!(packed.stats, spread.stats);
        assert!(packed.fifo.makespan_ns >= packed.fifo.busy_ns);
        assert!(packed.fifo.all().total_wait_ns > spread.fifo.all().total_wait_ns);
        // A variant of another backend is replaced by the named one's defaults.
        assert_eq!(build_memory_model("bus-wt", one).unwrap().name(), "bus-wt");
        assert_eq!(build_memory_model("dls", one).unwrap().name(), "dls");
    }

    /// Every way the public fields can describe a machine no backend can
    /// price, with the word the error must contain.
    fn absurd_configs() -> Vec<(&'static str, MemoryConfig, &'static str)> {
        let ok = MemoryConfig::paper(16, 8);
        let coherence = |line_size, word_bytes| MemoryConfig { line_size, word_bytes, ..ok };
        let timing = |recv_per_byte_ns, hop_time_ns| MemoryConfig {
            mesh: MeshConfig { recv_per_byte_ns, hop_time_ns, ..ok.mesh },
            ..ok
        };
        let directory = |home_tiles| Protocol::Directory(DirectoryParams { home_tiles });
        let dls = |interleave_lines| Protocol::DirectorylessLlc(DlsParams { interleave_lines });
        vec![
            ("bus-wbi", coherence(0, 4), "line size"),
            ("bus-wt", coherence(12, 4), "line size"),
            ("directory", coherence(48, 4), "line size"),
            ("dls", coherence(0, 4), "line size"),
            ("bus-wbi", coherence(8, 0), "word size"),
            ("dls", coherence(8, 3), "word size"),
            ("bus-wbi", MemoryConfig { n_procs: 0, ..ok }, "processors"),
            ("bus-wt", MemoryConfig { n_procs: 65, ..ok }, "processors"),
            ("directory", MemoryConfig { n_procs: u32::MAX, ..ok }, "processors"),
            ("dls", MemoryConfig { n_procs: 0, ..ok }, "processors"),
            ("dls", MemoryConfig { n_procs: u32::MAX, ..ok }, "processors"),
            ("directory", MemoryConfig { protocol: directory(0), ..ok }, "home tile"),
            ("dls", MemoryConfig { protocol: dls(0), ..ok }, "interleave"),
            ("directory", MemoryConfig { mesh: MeshConfig::ametek(0, 4), ..ok }, "mesh"),
            ("dls", MemoryConfig { mesh: MeshConfig::ametek(4, 0), ..ok }, "mesh"),
            ("bus-wbi", timing(u32::MAX as u64, 100), "recv_per_byte_ns"),
            ("directory", timing(u64::MAX, 0), "recv_per_byte_ns"),
            ("dls", timing(20, u64::MAX), "hop_time_ns"),
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
            assert_eq!(
                MemoryConfig { protocol: (entry.protocol)(&cfg), ..cfg }.validate(),
                Err(err)
            );
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
    fn observed_run_streams_mem_requests() {
        use locus_obs::{names, SharedSink};
        let t = churn_trace(4);
        let sink = SharedSink::new();
        let out = build_memory_model("directory", MemoryConfig::paper(4, 8))
            .expect("registered")
            .run_observed(&t, &Obs::to(&sink));
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter(names::MEM_REQUESTS), out.fifo.all().requests);
        assert_eq!(m.counter(names::MEM_CRITICAL_REQUESTS), out.fifo.critical.requests);
    }
}
