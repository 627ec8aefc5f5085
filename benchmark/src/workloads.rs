//! The five workloads: their operations, their set-up, and the checks
//! every operation must pass.
//!
//! One *operation* is one engine run or one backend replay. Everything
//! here goes through the stable entry points named in the README's
//! API-surface rule; nothing implements `Node`, `CostView` or `Sink`.

use std::rc::Rc;

use locusroute::circuit::presets::{bnr_e_config, mdc_config, power_law_config};
use locusroute::circuit::{Circuit, CircuitGenerator, GeneratorConfig, Wire};
use locusroute::coherence::{build_memory_model, MemoryConfig, MemoryModel, MemoryOutcome, Trace};
use locusroute::mesh::{FaultPlan, NodeFault};
use locusroute::msgpass::{
    run_msgpass, MsgPassConfig, MsgPassOutcome, RecoveryConfig, UpdateSchedule,
};
use locusroute::router::{CostArray, Route, RouteOutcome, RouterParams, SequentialRouter};
use locusroute::shmem::{ShmemConfig, ShmemEmulator, ShmemOutcome};

use crate::digest;
use crate::span::Tracer;

/// Simulated processors of every parallel operation (the paper's 16).
pub const PROCS: usize = 16;
/// Cache line size of the replayed memory models (bytes).
pub const LINE_BYTES: u32 = 8;
/// The replayed memory models, as (registry name, span name). The layer
/// probes replay all four; a pass of `memory-replay` replays the first
/// [`GATED_REPLAYS`], because the host time of `dls` does not repeat from
/// run to run (README, "Why `dls` is not in the gated pass").
pub const REPLAYS: [(&str, &str); 4] = [
    ("bus-wbi", "coherence.replay.bus-wbi"),
    ("bus-wt", "coherence.replay.bus-wt"),
    ("directory", "coherence.replay.directory"),
    ("dls", "coherence.replay.dls"),
];
/// See [`REPLAYS`].
pub const GATED_REPLAYS: usize = 3;

/// How `--seed` turns into inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inputs {
    /// No `--seed`: the preset circuits, which are the circuits behind the
    /// paper tables and the ones `expected.json` pins.
    Preset,
    /// `--seed N`: the preset circuits' wires in the order shuffle `N`
    /// gives. Routing order, processor assignment, packets and traces all
    /// change; the amount of work barely does, so host times of different
    /// seeds are comparable (README, "What a seed changes").
    Reordered(u64),
}

/// The three circuits every workload draws from.
pub struct Circuits {
    pub bnre: Rc<Circuit>,
    pub mdc: Rc<Circuit>,
    pub powerlaw: Rc<Circuit>,
}

/// SplitMix64 (Steele, Lea & Flood 2014): the shuffle's only randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How many wire orders the recovery scenarios choose among: there, seed
/// `N` picks order `N mod CHAOS_SHUFFLES`. The recovery layer deadlocks on
/// about one random wire order in three hundred (README, "Found while
/// building this"), a seed of the driver's must not land on one, and a
/// finite set can be checked in full: every scenario passes on every one
/// of these orders. Everything without recovery takes the seed as it is.
pub const CHAOS_SHUFFLES: u64 = 64;

/// `circuit` with its wires in a Fisher-Yates order drawn from `shuffle`.
fn reordered(circuit: &Circuit, shuffle: u64) -> Circuit {
    let mut order: Vec<usize> = (0..circuit.wire_count()).collect();
    let mut state = shuffle;
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    let wires = order
        .iter()
        .enumerate()
        .map(|(id, &from)| Wire::new(id, circuit.wires[from].pins.clone()))
        .collect();
    Circuit::new(circuit.name.clone(), circuit.channels, circuit.grids, wires)
        .expect("a reordered valid circuit is valid")
}

fn circuit(cfg: GeneratorConfig, inputs: Inputs) -> Rc<Circuit> {
    let generated = CircuitGenerator::new(cfg).generate();
    Rc::new(match inputs {
        Inputs::Preset => generated,
        Inputs::Reordered(shuffle) => reordered(&generated, shuffle),
    })
}

impl Circuits {
    pub fn generate(inputs: Inputs) -> Self {
        Circuits {
            bnre: circuit(bnr_e_config(), inputs),
            mdc: circuit(mdc_config(), inputs),
            powerlaw: circuit(power_law_config(), inputs),
        }
    }
}

/// bnrE as the recovery scenarios route it: in one of the
/// [`CHAOS_SHUFFLES`] checked orders.
pub fn chaos_circuit(inputs: Inputs) -> Rc<Circuit> {
    let inputs = match inputs {
        Inputs::Preset => Inputs::Preset,
        Inputs::Reordered(seed) => Inputs::Reordered(seed % CHAOS_SHUFFLES),
    };
    circuit(bnr_e_config(), inputs)
}

pub enum Op {
    Seq { circuit: Rc<Circuit> },
    MsgPass { circuit: Rc<Circuit>, cfg: Box<MsgPassConfig> },
    Emul { circuit: Rc<Circuit>, cfg: ShmemConfig },
    Replay { trace: Rc<Trace>, model: Box<dyn MemoryModel> },
}

/// An operation and the name of its span, which is also its key in
/// `expected.json`.
pub struct NamedOp {
    pub name: &'static str,
    pub op: Op,
}

pub enum Out {
    Route(Box<RouteOutcome>),
    MsgPass(Box<MsgPassOutcome>),
    Shmem(Box<ShmemOutcome>),
    Memory(Box<MemoryOutcome>),
}

impl Out {
    /// The outcome of a message-passing run.
    ///
    /// # Panics
    /// Panics, like its three siblings, on an outcome of another kind: an
    /// operation's kind fixes its outcome's kind.
    pub fn msgpass(self) -> Box<MsgPassOutcome> {
        match self {
            Out::MsgPass(o) => o,
            _ => unreachable!("not the outcome of a message-passing run"),
        }
    }

    pub fn route(self) -> Box<RouteOutcome> {
        match self {
            Out::Route(o) => o,
            _ => unreachable!("not the outcome of a sequential run"),
        }
    }

    pub fn shmem(self) -> Box<ShmemOutcome> {
        match self {
            Out::Shmem(o) => o,
            _ => unreachable!("not the outcome of an emulator run"),
        }
    }

    pub fn memory(self) -> Box<MemoryOutcome> {
        match self {
            Out::Memory(o) => o,
            _ => unreachable!("not the outcome of a replay"),
        }
    }

    pub fn digest(&self) -> u64 {
        match self {
            Out::Route(o) => digest::route_outcome(o),
            Out::MsgPass(o) => digest::msgpass_outcome(o),
            Out::Shmem(o) => digest::shmem_outcome(o),
            Out::Memory(o) => digest::memory_outcome(o),
        }
    }
}

/// The cost array a set of routes implies.
fn cost_of(circuit: &Circuit, routes: &[Route]) -> CostArray {
    let mut cost = CostArray::new(circuit.channels, circuit.grids);
    for r in routes {
        cost.add_route(r);
    }
    cost
}

pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

impl Op {
    pub fn run(&self) -> Out {
        match self {
            Op::Seq { circuit } => {
                Out::Route(Box::new(SequentialRouter::new(circuit, RouterParams::default()).run()))
            }
            Op::MsgPass { circuit, cfg } => Out::MsgPass(Box::new(run_msgpass(circuit, **cfg))),
            Op::Emul { circuit, cfg } => {
                Out::Shmem(Box::new(ShmemEmulator::new(circuit, *cfg).run()))
            }
            Op::Replay { trace, model } => Out::Memory(Box::new(model.run(trace))),
        }
    }

    /// Work units of one run: wires committed, or references replayed.
    pub fn work_units(&self, out: &Out) -> u64 {
        match (self, out) {
            (_, Out::Route(o)) => o.work.wires_routed,
            (_, Out::MsgPass(o)) => o.work.wires_routed,
            (_, Out::Shmem(o)) => o.work.wires_routed,
            (Op::Replay { trace, .. }, Out::Memory(_)) => trace.len() as u64,
            (_, Out::Memory(_)) => unreachable!("only a replay yields a memory outcome"),
        }
    }

    /// The part of the check that is cheap enough to repeat after every
    /// timed pass: every wire routed and the run not degraded.
    pub fn check_cheap(&self, out: &Out) -> Result<(), String> {
        let routed = |circuit: &Circuit, iterations: usize, routes: &[Route], wires: u64| {
            ensure(routes.len() == circuit.wire_count(), || {
                format!("{} routes for {} wires", routes.len(), circuit.wire_count())
            })?;
            let least = (circuit.wire_count() * iterations) as u64;
            ensure(wires >= least, || format!("{wires} wires committed, expected {least}"))
        };
        match (self, out) {
            (Op::Seq { circuit }, Out::Route(o)) => {
                routed(circuit, RouterParams::default().iterations, &o.routes, o.work.wires_routed)
            }
            (Op::MsgPass { circuit, cfg }, Out::MsgPass(o)) => {
                ensure(!o.deadlocked, || "deadlocked".into())?;
                ensure(o.degraded.is_none(), || format!("degraded: {:?}", o.degraded))?;
                ensure(o.watchdog_recoveries == 0, || {
                    format!("{} watchdog recoveries", o.watchdog_recoveries)
                })?;
                routed(circuit, cfg.params.iterations, &o.routes, o.work.wires_routed)
            }
            (Op::Emul { circuit, cfg }, Out::Shmem(o)) => {
                ensure(o.trace.is_some() == cfg.collect_trace, || "trace presence".into())?;
                routed(circuit, cfg.params.iterations, &o.routes, o.work.wires_routed)
            }
            (Op::Replay { trace, .. }, Out::Memory(o)) => {
                let counted: u64 = o.per_proc.iter().map(|p| p.reads + p.writes).sum();
                ensure(counted == trace.len() as u64, || {
                    format!("{counted} references counted, trace holds {}", trace.len())
                })
            }
            _ => Err("operation and outcome kinds differ".into()),
        }
    }

    /// The full check of set-up: the cheap part, plus the reported cost
    /// array must equal the one rebuilt from the reported routes.
    pub fn check_full(&self, out: &Out) -> Result<(), String> {
        self.check_cheap(out)?;
        let conserved = |circuit: &Circuit, routes: &[Route], cost: &CostArray| {
            ensure(cost_of(circuit, routes) == *cost, || {
                "cost array differs from the one its routes imply".into()
            })
        };
        match (self, out) {
            (Op::Seq { circuit }, Out::Route(o)) => conserved(circuit, &o.routes, &o.cost),
            (Op::MsgPass { circuit, .. }, Out::MsgPass(o)) => {
                conserved(circuit, &o.routes, &o.cost)
            }
            (Op::Emul { circuit, .. }, Out::Shmem(o)) => conserved(circuit, &o.routes, &o.cost),
            _ => Ok(()),
        }
    }
}

/// Operations attempted and the failures among them.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, op: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(format!("{op}: {why}"));
        }
    }
}

/// A workload after set-up: its operations, the digest each produced,
/// and the work units of one pass.
pub struct Workload {
    pub ops: Vec<NamedOp>,
    pub digests: Vec<u64>,
    pub work_units: u64,
}

fn seq(name: &'static str, circuit: &Rc<Circuit>) -> NamedOp {
    NamedOp { name, op: Op::Seq { circuit: circuit.clone() } }
}

fn msgpass(name: &'static str, circuit: &Rc<Circuit>, cfg: MsgPassConfig) -> NamedOp {
    NamedOp { name, op: Op::MsgPass { circuit: circuit.clone(), cfg: Box::new(cfg) } }
}

pub fn emul(name: &'static str, circuit: &Rc<Circuit>, trace: bool) -> NamedOp {
    let cfg = ShmemConfig::new(PROCS);
    let cfg = if trace { cfg.with_trace() } else { cfg };
    NamedOp { name, op: Op::Emul { circuit: circuit.clone(), cfg } }
}

pub fn sender_paper() -> MsgPassConfig {
    MsgPassConfig::new(PROCS, UpdateSchedule::sender_initiated(2, 10))
}

pub fn receiver_paper() -> MsgPassConfig {
    MsgPassConfig::new(PROCS, UpdateSchedule::receiver_initiated(1, 5))
}

pub fn seq_route_ops(c: &Circuits) -> Vec<NamedOp> {
    vec![
        seq("router.seq_run.bnre", &c.bnre),
        seq("router.seq_run.mdc", &c.mdc),
        seq("router.seq_run.powerlaw", &c.powerlaw),
    ]
}

pub fn msgpass_paper_ops(c: &Circuits) -> Vec<NamedOp> {
    vec![
        msgpass("msgpass.run.sender.bnre", &c.bnre, sender_paper()),
        msgpass("msgpass.run.sender.mdc", &c.mdc, sender_paper()),
        msgpass("msgpass.run.receiver.bnre", &c.bnre, receiver_paper()),
        msgpass("msgpass.run.receiver.mdc", &c.mdc, receiver_paper()),
    ]
}

/// Single-iteration sender-initiated (2,10): the base of the chaos study
/// (recovery requires monotone checkpoint progress, hence one iteration).
pub fn chaos_base() -> MsgPassConfig {
    sender_paper().with_params(RouterParams::single_iteration())
}

/// The chaos scenarios, derived from a clean probe exactly as
/// `crates/bench/src/chaos.rs` derives them: heartbeat = T/50, suspect
/// after 8 heartbeats, checkpoint every 4 wires; worker faults hit the
/// longest-routing worker halfway through its own routing span.
pub fn chaos_ops(circuit: &Rc<Circuit>, probe: &MsgPassOutcome) -> Vec<NamedOp> {
    let t_ns = (probe.time_secs * 1e9) as u64;
    let spans_ns: Vec<u64> =
        probe.routing_done_secs_by_proc.iter().map(|s| (s * 1e9) as u64).collect();
    let recovery = RecoveryConfig {
        checkpoint_every: 4,
        heartbeat_ns: (t_ns / 50).max(1_000_000),
        suspect_after: 8,
        ..RecoveryConfig::default()
    };
    let worker = spans_ns
        .iter()
        .enumerate()
        .skip(1)
        .max_by_key(|&(p, ns)| (ns, std::cmp::Reverse(p)))
        .map_or(1, |(p, _)| p as u32);
    let half = |span: u64| (span / 2).max(1);
    let worker_at = half(spans_ns[worker as usize]);
    let clean = chaos_base().with_reliability().with_recovery_config(recovery);
    let faulty = |node: u32, fault: NodeFault| {
        clean.with_faults(FaultPlan::none().with_node_fault(node, fault))
    };
    vec![
        msgpass("msgpass.run.chaos.clean", circuit, clean),
        msgpass(
            "msgpass.run.chaos.worker-crash",
            circuit,
            faulty(worker, NodeFault::Crash { at_ns: worker_at }),
        ),
        msgpass(
            "msgpass.run.chaos.worker-restart",
            circuit,
            faulty(worker, NodeFault::CrashRestart { at_ns: worker_at, downtime_ns: t_ns / 20 }),
        ),
        msgpass(
            "msgpass.run.chaos.coordinator-crash",
            circuit,
            faulty(0, NodeFault::Crash { at_ns: half(spans_ns[0]) }),
        ),
        msgpass(
            "msgpass.run.chaos.stall",
            circuit,
            faulty(worker, NodeFault::Stall { at_ns: worker_at, factor: 4, duration_ns: t_ns / 4 }),
        ),
    ]
}

pub fn replay_ops(trace: &Rc<Trace>, replays: &[(&'static str, &'static str)]) -> Vec<NamedOp> {
    replays
        .iter()
        .map(|&(backend, name)| {
            let model = build_memory_model(backend, MemoryConfig::paper(PROCS as u32, LINE_BYTES))
                .expect("backend is registered");
            NamedOp { name, op: Op::Replay { trace: trace.clone(), model } }
        })
        .collect()
}

/// Runs `op` once under a span, checks it in full, and returns its outcome.
fn verified(op: &NamedOp, tracer: &mut Tracer, tally: &mut Tally) -> Out {
    let (out, _) = tracer.time(op.name, 0, || op.op.run());
    tally.record(op.name, op.op.check_full(&out));
    out
}

/// Everything before the first timed pass: circuit generation, config and
/// probe derivation, trace collection, and for every operation one fully
/// checked run plus a twin run that must reproduce its digest.
///
/// # Panics
/// Panics on a workload name that [`crate::metrics::WORKLOADS`] lacks.
pub fn set_up(name: &str, inputs: Inputs, tracer: &mut Tracer, tally: &mut Tally) -> Workload {
    let (circuits, _) = tracer.time("circuit.generate", 0, || Circuits::generate(inputs));
    let ops = match name {
        "seq-route" => seq_route_ops(&circuits),
        "msgpass-paper" => msgpass_paper_ops(&circuits),
        "msgpass-chaos" => {
            let bnre = chaos_circuit(inputs);
            let probe = msgpass("msgpass.run.chaos.probe", &bnre, chaos_base());
            chaos_ops(&bnre, &verified(&probe, tracer, tally).msgpass())
        }
        "shmem-trace" => vec![
            emul("shmem.emul_trace_run.bnre", &circuits.bnre, true),
            emul("shmem.emul_trace_run.mdc", &circuits.mdc, true),
        ],
        "memory-replay" => {
            let collect = emul("shmem.emul_trace_run.bnre", &circuits.bnre, true);
            let traced = verified(&collect, tracer, tally).shmem();
            let trace = Rc::new(traced.trace.expect("trace collection was on"));
            replay_ops(&trace, &REPLAYS[..GATED_REPLAYS])
        }
        other => panic!("unknown workload {other:?}"),
    };
    let mut digests = Vec::with_capacity(ops.len());
    let mut work_units = 0;
    for op in &ops {
        let out = verified(op, tracer, tally);
        let digest = out.digest();
        work_units += op.op.work_units(&out);
        drop(out);
        let (twin, _) = tracer.time(op.name, 0, || op.op.run());
        tally.record(
            op.name,
            ensure(twin.digest() == digest, || "twin run differs from the first".into()),
        );
        digests.push(digest);
    }
    Workload { ops, digests, work_units }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locusroute::circuit::presets;

    fn pins_sorted(c: &Circuit) -> Vec<Vec<locusroute::circuit::Pin>> {
        let mut pins: Vec<_> = c.wires.iter().map(|w| w.pins.clone()).collect();
        pins.sort();
        pins
    }

    #[test]
    fn preset_inputs_are_the_paper_table_circuits() {
        let c = Circuits::generate(Inputs::Preset);
        assert_eq!(c.bnre.wires, presets::bnr_e().wires);
        assert_eq!(c.mdc.wires, presets::mdc().wires);
        assert_eq!(c.powerlaw.wires, presets::power_law().wires);
    }

    #[test]
    fn a_seed_reorders_the_same_wires_and_repeats_exactly() {
        let preset = presets::bnr_e();
        let a = Circuits::generate(Inputs::Reordered(7));
        let again = Circuits::generate(Inputs::Reordered(7));
        assert_eq!(a.bnre.wires, again.bnre.wires);
        assert_ne!(a.bnre.wires, preset.wires);
        assert_eq!(pins_sorted(&a.bnre), pins_sorted(&preset));
        a.bnre.validate().unwrap();
        // Every seed is an order of its own, however far apart two are.
        for other in [8, 7 + CHAOS_SHUFFLES, 7 + (1 << 32), u64::MAX] {
            let b = Circuits::generate(Inputs::Reordered(other));
            assert_ne!(a.bnre.wires, b.bnre.wires, "seed {other}");
        }
    }

    #[test]
    fn recovery_scenarios_fold_the_seed_onto_the_checked_orders() {
        let at = |seed| chaos_circuit(Inputs::Reordered(seed)).wires.clone();
        assert_eq!(at(7), Circuits::generate(Inputs::Reordered(7)).bnre.wires);
        assert_eq!(at(7), at(7 + CHAOS_SHUFFLES));
        assert_ne!(at(7), at(8));
        assert_eq!(chaos_circuit(Inputs::Preset).wires, presets::bnr_e().wires);
    }

    #[test]
    fn set_up_verifies_every_operation_and_its_twin() {
        let (mut tracer, mut tally) = (Tracer::new(false), Tally::default());
        let w = set_up("seq-route", Inputs::Preset, &mut tracer, &mut tally);
        assert_eq!(w.ops.len(), 3);
        assert_eq!(w.digests.len(), 3);
        assert_eq!(tally.attempted, 6);
        assert_eq!(tally.failures, Vec::<String>::new());
        // bnrE 420, MDC 573, powerlaw 360 wires, two iterations each.
        assert_eq!(w.work_units, 2 * (420 + 573 + 360));
    }

    #[test]
    fn a_cost_array_that_disagrees_with_its_routes_fails_the_full_check() {
        let op = seq("router.seq_run.small", &Rc::new(presets::small()));
        let mut o = op.op.run().route();
        let first = o.routes[0].cells()[0];
        o.cost.add(first, 1);
        let out = Out::Route(o);
        assert!(op.op.check_cheap(&out).is_ok());
        assert!(op.op.check_full(&out).unwrap_err().contains("cost array"));
    }

    #[test]
    fn a_missing_route_fails_the_cheap_check() {
        let op = seq("router.seq_run.small", &Rc::new(presets::small()));
        let mut o = op.op.run().route();
        o.routes.pop();
        assert!(op.op.check_cheap(&Out::Route(o)).is_err());
    }

    #[test]
    fn chaos_scenarios_come_in_the_order_the_probes_index() {
        let small = Rc::new(presets::small());
        let probe = run_msgpass(&small, chaos_base());
        let names: Vec<&str> = chaos_ops(&small, &probe).iter().map(|op| op.name).collect();
        assert_eq!(
            names,
            [
                "msgpass.run.chaos.clean",
                "msgpass.run.chaos.worker-crash",
                "msgpass.run.chaos.worker-restart",
                "msgpass.run.chaos.coordinator-crash",
                "msgpass.run.chaos.stall",
            ]
        );
    }
}
