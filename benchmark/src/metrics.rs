//! The names the benchmark emits. `BENCHMARK.json` at the repository root
//! lists the same names; a test keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// `(name, why, work unit)` of each workload.
pub const WORKLOADS: &[(&str, &str, &str)] = &[
    (
        "seq-route",
        "SequentialRouter on bnrE, MDC and powerlaw: router does all the work; mesh, msgpass, \
         shmem and coherence do none",
        "wires",
    ),
    (
        "msgpass-paper",
        "run_msgpass at P=16, sender (2,10) and receiver (1,5) on bnrE and MDC: the paper's \
         headline runs; mesh + msgpass are ~80 % of host time, router ~20 %",
        "wires",
    ),
    (
        "msgpass-chaos",
        "bnrE P=16, reliability + recovery: clean, worker crash, restart, coordinator crash, \
         stall; the mesh/msgpass fault path. Seed N picks checked wire order N mod 64: \
         recovery deadlocks on 1 order in 300",
        "wires",
    ),
    (
        "shmem-trace",
        "ShmemEmulator with Tango tracing at P=16 on bnrE and MDC: per-cell kernel path plus \
         trace recording; memory backends do nothing",
        "wires",
    ),
    (
        "memory-replay",
        "the bnrE P=16 trace replayed at 8-byte lines through bus-wbi, bus-wt and directory: \
         coherence only, no routing at all. dls is per-layer only: its host time differs 9 % between \
         runs of one seed",
        "refs",
    ),
];

/// Metrics of an untraced run, in the order they are printed.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("pass_ms", "ms"),
    higher("work_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// Metrics of a traced run, in the order they are printed.
pub const PER_LAYER: &[MetricDef] = &[
    lower("circuit.generate_ms", "ms"),
    lower("router.seq_run_ms.bnre", "ms"),
    lower("router.seq_run_ms.mdc", "ms"),
    lower("router.seq_run_ms.powerlaw", "ms"),
    lower("router.eval_ns_per_call", "ns"),
    lower("router.ripup_commit_ns_per_call", "ns"),
    lower("router.cells_examined_per_pass", "count"),
    lower("router.cells_written_per_pass", "count"),
    higher("router.wires_per_pass", "count"),
    higher("router.prefix_hit_ratio", "ratio"),
    lower("msgpass.run_ms.sender.bnre", "ms"),
    lower("msgpass.run_ms.sender.mdc", "ms"),
    lower("msgpass.run_ms.receiver.bnre", "ms"),
    lower("msgpass.run_ms.receiver.mdc", "ms"),
    lower("msgpass.flood_run_ms", "ms"),
    lower("mesh.packets_per_pass", "count"),
    lower("mesh.byte_hops_per_pass", "count"),
    lower("mesh.contention_sim_ms", "ms"),
    lower("msgpass.host_ns_per_packet", "ns"),
    higher("msgpass.routing_share", "ratio"),
    lower("msgpass.reliable_overhead_ratio", "ratio"),
    lower("msgpass.recovery_overhead_ratio", "ratio"),
    lower("msgpass.crash_overhead_ratio", "ratio"),
    lower("msgpass.retransmits", "count"),
    lower("msgpass.checkpoints", "count"),
    lower("msgpass.wires_reassigned", "count"),
    higher("msgpass.useful_route_ratio", "ratio"),
    lower("shmem.emul_run_ms", "ms"),
    lower("shmem.emul_trace_run_ms", "ms"),
    lower("shmem.trace_overhead_ratio", "ratio"),
    lower("shmem.trace_refs", "count"),
    lower("shmem.trace_ns_per_ref", "ns"),
    lower("shmem.threads_run_ms.p1", "ms"),
    lower("shmem.threads_run_ms.pN", "ms"),
    lower("coherence.ns_per_ref.bus-wbi", "ns"),
    lower("coherence.ns_per_ref.bus-wt", "ns"),
    lower("coherence.ns_per_ref.directory", "ns"),
    lower("coherence.ns_per_ref.dls", "ns"),
    lower("coherence.line_sweep_ms", "ms"),
    lower("coherence.events_per_pass", "count"),
    lower("obs.sink_overhead_ratio", "ratio"),
    lower("obs.events_recorded", "count"),
    lower("obs.ns_per_event", "ns"),
    lower("obs.export_ms", "ms"),
    lower("host.allocs_per_pass", "count"),
    lower("host.alloc_bytes_per_pass", "B"),
    lower("bench.trace_overhead_ratio", "ratio"),
];

/// The values of one run, in emission order.
#[derive(Default)]
pub struct Emitted {
    values: Vec<(&'static str, f64, String)>,
}

impl Emitted {
    /// Records `name`; `base` says what a ratio was taken over (or is
    /// empty) and is printed beside the value.
    pub fn put(&mut self, name: &'static str, value: f64, base: impl Into<String>) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} emitted twice");
        self.values.push((name, value, base.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, ..)| *n == name).map(|&(_, v, _)| v)
    }

    /// The values in the order of `defs`, as `(definition, value, base)`.
    ///
    /// # Panics
    /// Panics unless exactly the metrics of `defs` were emitted: the set
    /// of names is part of the benchmark's contract.
    pub fn in_order<'a>(&'a self, defs: &'a [MetricDef]) -> Vec<(&'a MetricDef, f64, &'a str)> {
        assert_eq!(self.values.len(), defs.len(), "emitted metrics differ from the declared set");
        defs.iter()
            .map(|d| {
                let (_, v, base) = self
                    .values
                    .iter()
                    .find(|(n, ..)| *n == d.name)
                    .unwrap_or_else(|| panic!("declared metric {} was not emitted", d.name));
                (d, *v, base.as_str())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        for n in &names {
            assert!(well_formed(n), "{n}");
        }
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
    }

    #[test]
    fn units_and_reasons_fit_the_contract() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(ok),
                "{}",
                m.unit
            );
        }
        for (name, why, _) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is outside this package, so it is read from the
    /// repository root at test time.
    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        locusroute::obs::export::validate_json(&text).unwrap();
        for (name, why, _) in WORKLOADS {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // ... and nothing else: every entry there was matched above.
        let listed = text.matches("{\"name\": ").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
