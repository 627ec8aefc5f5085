//! Per-layer probes of a traced run.
//!
//! Each probe either times one public entry point in isolation or runs
//! the same operation with one layer switched off and takes the ratio
//! (ablation differencing). Timings are the [`crate::stats::LOW`]
//! quantile of a few repetitions, so mostly the fastest one; counts come from the outcomes and repeat exactly. The
//! probes are the same whichever workload the traced run names, because
//! the benchmark's contract wants every per-layer metric from every
//! traced run.

use std::hint::black_box;
use std::rc::Rc;

use locusroute::circuit::{Circuit, GridCell, Pin};
use locusroute::coherence::{traffic_by_line_size, Trace};
use locusroute::msgpass::{run_msgpass, run_msgpass_observed, MsgPassConfig, UpdateSchedule};
use locusroute::obs::export::chrome_trace;
use locusroute::obs::SharedSink;
use locusroute::router::segment::Connection;
use locusroute::router::twobend::best_route;
use locusroute::router::CostArray;
use locusroute::shmem::{ShmemConfig, ThreadedRouter};

use crate::metrics::Emitted;
use crate::span::Tracer;
use crate::stats::{quantile, LOW};
use crate::workloads::{
    chaos_base, chaos_circuit, chaos_ops, emul, msgpass_paper_ops, replay_ops, sender_paper,
    seq_route_ops, Circuits, Inputs, NamedOp, Op, Out, Tally, GATED_REPLAYS, PROCS, REPLAYS,
};

pub struct Probes<'a> {
    pub tracer: &'a mut Tracer,
    pub tally: &'a mut Tally,
    pub out: &'a mut Emitted,
    /// Repetition counts are stated for a 10-second run and scale with
    /// `--seconds`.
    pub scale: f64,
}

impl Probes<'_> {
    fn reps(&self, for_ten_seconds: usize) -> usize {
        ((for_ten_seconds as f64 * self.scale).ceil() as usize).max(3)
    }

    /// Runs the closures in turn, `reps` rounds of them, and returns each
    /// one's [`LOW`] quantile in milliseconds (its fastest round, up to
    /// fifty rounds) with its last result. Taking turns puts every member
    /// of a group under the same host conditions, which is what the ratios
    /// between them need.
    fn time_each<T>(
        &mut self,
        reps: usize,
        runs: &mut [(&'static str, &mut dyn FnMut() -> T)],
    ) -> Vec<(f64, T)> {
        let mut samples = vec![Vec::with_capacity(reps); runs.len()];
        let mut last: Vec<Option<T>> = runs.iter().map(|_| None).collect();
        for _ in 0..reps {
            for (i, (span, run)) in runs.iter_mut().enumerate() {
                let (result, secs) = self.tracer.time(span, 0, run);
                samples[i].push(secs * 1e3);
                last[i] = Some(result);
            }
        }
        let last = last.into_iter().map(|r| r.expect("at least three repetitions"));
        samples.iter().map(|s| quantile(s, LOW)).zip(last).collect()
    }

    fn time<T>(&mut self, span: &'static str, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
        self.time_each(reps, &mut [(span, &mut f)]).pop().expect("one closure, one result")
    }

    /// [`Self::time_each`] over operations; each one's last outcome is checked.
    fn time_ops(&mut self, reps: usize, ops: &[NamedOp]) -> Vec<(f64, Out)> {
        let mut closures: Vec<_> = ops.iter().map(|op| move || op.op.run()).collect();
        let mut runs: Vec<(&'static str, &mut dyn FnMut() -> Out)> = ops
            .iter()
            .zip(&mut closures)
            .map(|(op, c)| (op.name, c as &mut dyn FnMut() -> Out))
            .collect();
        let timed = self.time_each(reps, &mut runs);
        for (op, (_, out)) in ops.iter().zip(&timed) {
            self.tally.record(op.name, op.op.check_cheap(out));
        }
        timed
    }

    /// Runs every probe. Returns the digests of the operations that no
    /// workload runs, for `expected.json` to pin: the `dls` replay.
    pub fn run(&mut self, inputs: Inputs) -> Vec<(&'static str, u64)> {
        let reps = self.reps(20);
        let (ms, circuits) = self.time("circuit.generate", reps, || Circuits::generate(inputs));
        self.out.put("circuit.generate_ms", ms, "");
        let seq_bnre_ms = self.router(&circuits);
        self.kernel();
        self.msgpass_paper(&circuits, seq_bnre_ms);
        self.msgpass_chaos(&chaos_circuit(inputs));
        let trace = self.shmem(&circuits);
        self.coherence(&trace)
    }

    fn router(&mut self, circuits: &Circuits) -> f64 {
        const NAMES: [&str; 3] =
            ["router.seq_run_ms.bnre", "router.seq_run_ms.mdc", "router.seq_run_ms.powerlaw"];
        let reps = self.reps(30);
        let (mut examined, mut written, mut wires) = (0, 0, 0);
        let (mut hits, mut lookups) = (0, 0);
        let mut bnre_ms = 0.0;
        let ops = seq_route_ops(circuits);
        let timed = self.time_ops(reps, &ops);
        for ((ms, out), name) in timed.into_iter().zip(NAMES) {
            self.out.put(name, ms, "");
            if name == NAMES[0] {
                bnre_ms = ms;
            }
            let o = out.route();
            examined += o.work.cells_examined;
            written += o.work.cells_written;
            wires += o.work.wires_routed;
            let p = o.cost.prefix_stats();
            hits += p.hits;
            lookups += p.hits + p.rebuilds + p.patches + p.fallbacks;
        }
        self.out.put("router.cells_examined_per_pass", examined as f64, "");
        self.out.put("router.cells_written_per_pass", written as f64, "");
        self.out.put("router.wires_per_pass", wires as f64, "");
        self.out.put(
            "router.prefix_hit_ratio",
            hits as f64 / lookups as f64,
            format!("{hits} hits of {lookups} prefix lookups"),
        );
        bnre_ms
    }

    /// The `kernel-smoke` microbenchmark at bnrE's shape: its congested
    /// surface and its fixed eight-connection mix, evaluation only and
    /// evaluation plus a commit/rip-up pair.
    fn kernel(&mut self) {
        let (channels, grids) = (10u16, 341u16);
        let mut costs = CostArray::new(channels, grids);
        for c in 0..channels {
            for x in 0..grids {
                costs.set(GridCell::new(c, x), ((u32::from(x) * 7 + u32::from(c) * 3) % 5) as u16);
            }
        }
        let g = u32::from(grids);
        let top = channels - 1;
        let pin = |c: u16, x: u32| Pin::new(c.min(top), x.min(g - 1) as u16);
        let conn = |from, to| Connection { from, to };
        let conns = [
            conn(pin(2, g * 30 / 100), pin(top - 2, g * 39 / 100)),
            conn(pin(0, g * 3 / 100), pin(top, g * 26 / 100)),
            conn(pin(3, g * 60 / 100), pin(5, g * 63 / 100)),
            conn(pin(1, g * 15 / 100), pin(top - 1, g * 50 / 100)),
            conn(pin(4, g * 88 / 100), pin(4, g - 1)),
            conn(pin(0, g * 73 / 100), pin(top, g * 73 / 100)),
            conn(pin(2, 0), pin(top - 2, g * 18 / 100)),
            conn(pin(channels / 2, g * 35 / 100), pin(channels / 2 + 1, g * 37 / 100)),
        ];
        let per_call = 1e6 / conns.len() as f64;
        let laps = self.reps(500);

        let eval = |costs: &CostArray| {
            let cost: u64 = conns.iter().map(|&k| best_route(costs, k, 1).cost).sum();
            black_box(cost);
        };
        for _ in 0..200 {
            eval(&costs);
        }
        let (ms, ()) = self.time("router.eval_lap", laps, || eval(black_box(&costs)));
        self.out.put("router.eval_ns_per_call", ms * per_call, "");

        let cycle = |costs: &mut CostArray| {
            for &k in &conns {
                let e = best_route(costs, k, 1);
                costs.add_route(&e.route);
                costs.remove_route(&e.route);
                black_box(e.cost);
            }
        };
        for _ in 0..200 {
            cycle(&mut costs);
        }
        let (ms, ()) = self.time("router.ripup_commit_lap", laps, || cycle(&mut costs));
        self.out.put("router.ripup_commit_ns_per_call", ms * per_call, "");
    }

    fn msgpass_paper(&mut self, circuits: &Circuits, seq_bnre_ms: f64) {
        const NAMES: [&str; 5] = [
            "msgpass.run_ms.sender.bnre",
            "msgpass.run_ms.sender.mdc",
            "msgpass.run_ms.receiver.bnre",
            "msgpass.run_ms.receiver.mdc",
            "msgpass.flood_run_ms",
        ];
        let reps = self.reps(15);
        let mut ops = msgpass_paper_ops(circuits);
        // Twice the update packets of sender.bnre for the same routing work.
        ops.push(NamedOp {
            name: "msgpass.run.flood.bnre",
            op: Op::MsgPass {
                circuit: circuits.bnre.clone(),
                cfg: Box::new(MsgPassConfig::new(PROCS, UpdateSchedule::sender_initiated(1, 1))),
            },
        });
        let (mut packets, mut byte_hops, mut contention_ns) = (0, 0, 0);
        let mut sender_bnre = (0.0, 0);
        let timed = self.time_ops(reps, &ops);
        for ((ms, out), name) in timed.into_iter().zip(NAMES) {
            self.out.put(name, ms, "");
            let o = out.msgpass();
            if name == NAMES[0] {
                sender_bnre = (ms, o.net.packets);
            }
            if name != NAMES[4] {
                packets += o.net.packets;
                byte_hops += o.net.byte_hops;
                contention_ns += o.net.contention_ns;
            }
        }
        self.out.put("mesh.packets_per_pass", packets as f64, "");
        self.out.put("mesh.byte_hops_per_pass", byte_hops as f64, "");
        self.out.put("mesh.contention_sim_ms", contention_ns as f64 / 1e6, "");
        let (run_ms, run_packets) = sender_bnre;
        self.out.put(
            "msgpass.host_ns_per_packet",
            run_ms * 1e6 / run_packets as f64,
            format!("{run_ms:.3} ms over {run_packets} packets"),
        );
        self.out.put(
            "msgpass.routing_share",
            seq_bnre_ms / run_ms,
            format!("{seq_bnre_ms:.3} ms sequential of {run_ms:.3} ms sender.bnre"),
        );

        // sender.bnre again, without and with every event recorded.
        let circuit = &circuits.bnre;
        let mut plain = || {
            black_box(run_msgpass(circuit, sender_paper()));
            None
        };
        let mut observed = || {
            let sink = SharedSink::new();
            black_box(run_msgpass_observed(circuit, sender_paper(), sink.clone()));
            Some(sink)
        };
        let mut pair = self.time_each::<Option<SharedSink>>(
            reps,
            &mut [
                ("msgpass.run.sender.bnre", &mut plain),
                ("msgpass.run.observed.bnre", &mut observed),
            ],
        );
        let (observed_ms, sink) = pair.pop().expect("two closures, two results");
        let (plain_ms, _) = pair.pop().expect("two closures, two results");
        let sink = sink.expect("the observed run returns its sink");
        let events = {
            let ring = sink.lock();
            ring.len() as u64 + ring.dropped()
        };
        self.out.put(
            "obs.sink_overhead_ratio",
            observed_ms / plain_ms,
            format!("{observed_ms:.3} ms observed over {plain_ms:.3} ms plain"),
        );
        self.out.put("obs.events_recorded", events as f64, "");
        self.out.put(
            "obs.ns_per_event",
            (observed_ms - plain_ms) * 1e6 / events as f64,
            format!("{:.3} ms extra over {events} events", observed_ms - plain_ms),
        );
        let retained = sink.snapshot_events();
        let (ms, _) = self.time("obs.export", self.reps(5), || chrome_trace(&retained));
        self.out.put("obs.export_ms", ms, "");
    }

    fn msgpass_chaos(&mut self, bnre: &Rc<Circuit>) {
        let op = |name, cfg| NamedOp {
            name,
            op: Op::MsgPass { circuit: bnre.clone(), cfg: Box::new(cfg) },
        };
        let mut ops = vec![
            op("msgpass.run.chaos.probe", chaos_base()),
            op("msgpass.run.chaos.reliable", chaos_base().with_reliability()),
        ];
        let probe = ops[0].op.run().msgpass();
        // clean, worker-crash, worker-restart, coordinator-crash, stall
        ops.extend(chaos_ops(bnre, &probe));
        let timed = self.time_ops(self.reps(15), &ops);
        let (plain_ms, reliable_ms) = (timed[0].0, timed[1].0);
        let (clean_ms, crash_ms) = (timed[2].0, timed[3].0);
        let (mut retransmits, mut checkpoints, mut reassigned) = (0, 0, 0);
        let (mut wires, mut duplicates) = (0, 0);
        for (_, out) in timed.into_iter().skip(2) {
            let o = out.msgpass();
            retransmits += o.reliability.retransmits;
            checkpoints += o.recovery.checkpoints_taken;
            reassigned += o.recovery.wires_reassigned;
            wires += o.routes.len() as u64;
            duplicates += o.recovery.duplicate_routes;
        }
        self.out.put(
            "msgpass.reliable_overhead_ratio",
            reliable_ms / plain_ms,
            format!("{reliable_ms:.3} ms reliable over {plain_ms:.3} ms plain"),
        );
        self.out.put(
            "msgpass.recovery_overhead_ratio",
            clean_ms / reliable_ms,
            format!("{clean_ms:.3} ms with recovery over {reliable_ms:.3} ms reliable"),
        );
        self.out.put(
            "msgpass.crash_overhead_ratio",
            crash_ms / clean_ms,
            format!("{crash_ms:.3} ms worker crash over {clean_ms:.3} ms clean"),
        );
        self.out.put("msgpass.retransmits", retransmits as f64, "");
        self.out.put("msgpass.checkpoints", checkpoints as f64, "");
        self.out.put("msgpass.wires_reassigned", reassigned as f64, "");
        self.out.put(
            "msgpass.useful_route_ratio",
            wires as f64 / (wires + duplicates) as f64,
            format!("{wires} wires, {duplicates} routed twice"),
        );
    }

    /// Returns the trace of the traced bnrE run, for [`Self::coherence`].
    fn shmem(&mut self, circuits: &Circuits) -> Rc<Trace> {
        let off = emul("shmem.emul_run.bnre", &circuits.bnre, false);
        let on = emul("shmem.emul_trace_run.bnre", &circuits.bnre, true);
        let mut timed = self.time_ops(self.reps(6), &[off, on]);
        let (on_ms, out) = timed.pop().expect("two operations, two results");
        let (off_ms, _) = timed.pop().expect("two operations, two results");
        let trace = Rc::new(out.shmem().trace.expect("trace collection was on"));
        let refs = trace.len();
        self.out.put("shmem.emul_run_ms", off_ms, "");
        self.out.put("shmem.emul_trace_run_ms", on_ms, "");
        self.out.put(
            "shmem.trace_overhead_ratio",
            on_ms / off_ms,
            format!("{on_ms:.3} ms traced over {off_ms:.3} ms untraced"),
        );
        self.out.put("shmem.trace_refs", refs as f64, "");
        self.out.put(
            "shmem.trace_ns_per_ref",
            (on_ms - off_ms) * 1e6 / refs as f64,
            format!("{:.3} ms extra over {refs} references", on_ms - off_ms),
        );

        let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let bnre = &circuits.bnre;
        let mut one = || ThreadedRouter::new(bnre, ShmemConfig::new(1)).run();
        let mut all = || ThreadedRouter::new(bnre, ShmemConfig::new(host_cpus)).run();
        let spans = ["shmem.threads_run.p1", "shmem.threads_run.pN"];
        let timed =
            self.time_each(self.reps(10), &mut [(spans[0], &mut one), (spans[1], &mut all)]);
        let names = ["shmem.threads_run_ms.p1", "shmem.threads_run_ms.pN"];
        for (((ms, o), name), (span, threads)) in
            timed.into_iter().zip(names).zip(spans.into_iter().zip([1, host_cpus]))
        {
            let routed = if o.routes.len() == bnre.wire_count() {
                Ok(())
            } else {
                Err(format!("{} routes for {} wires", o.routes.len(), bnre.wire_count()))
            };
            self.tally.record(span, routed);
            self.out.put(name, ms, format!("{threads} threads on {host_cpus} host cpus"));
        }
        trace
    }

    /// The replays of `memory-replay` over the trace it replays, and
    /// `dls`, which no gated pass replays.
    fn coherence(&mut self, trace: &Rc<Trace>) -> Vec<(&'static str, u64)> {
        const NAMES: [&str; 4] = [
            "coherence.ns_per_ref.bus-wbi",
            "coherence.ns_per_ref.bus-wt",
            "coherence.ns_per_ref.directory",
            "coherence.ns_per_ref.dls",
        ];
        debug_assert!(NAMES.iter().zip(REPLAYS).all(|(n, (backend, _))| n.ends_with(backend)));
        let refs = trace.len() as f64;
        let reps = self.reps(3);
        let mut events = 0;
        let ops = replay_ops(trace, &REPLAYS);
        let timed = self.time_ops(reps, &ops);
        let ungated: Vec<_> = ops
            .iter()
            .zip(&timed)
            .skip(GATED_REPLAYS)
            .map(|(op, (_, out))| (op.name, out.digest()))
            .collect();
        for ((ms, out), name) in timed.into_iter().zip(NAMES) {
            self.out.put(name, ms * 1e6 / refs, format!("{ms:.3} ms over {refs} references"));
            events += out.memory().coherence_events();
        }
        self.out.put("coherence.events_per_pass", events as f64, "");
        let (ms, _) = self
            .time("coherence.line_sweep", reps, || traffic_by_line_size(trace, &[4, 8, 16, 32]));
        self.out.put("coherence.line_sweep_ms", ms, "");
        ungated
    }
}
