//! Seeded discrete-event workload generation.
//!
//! A workload is an *arrival trace*: a list of routing jobs, each
//! stamped with a virtual-millisecond arrival time and a job class
//! (circuit family × engine × processor count × router parameters).
//! Inter-arrival gaps are exponential with a time-of-day rate profile —
//! rush-hour windows multiply the base rate, mirroring the demand curve
//! of any real request-serving system — and the whole trace is a pure
//! function of [`WorkloadConfig::seed`]: same seed, same trace, same
//! admission decisions downstream.

use locus_circuit::{presets, Circuit, CircuitGenerator, GeneratorConfig};
use locus_router::RouterParams;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which synthetic circuit population a job routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitFamily {
    /// 4×24 surface, 12 wires ([`presets::tiny_config`]).
    Tiny,
    /// 8×128 surface, 120 wires ([`presets::small_config`]).
    Small,
    /// The bnrE stand-in: 10×341, 420 wires ([`presets::bnr_e_config`]).
    BnrE,
    /// The MDC stand-in: 12×386, 573 wires ([`presets::mdc_config`]).
    Mdc,
    /// Scale-free Pareto spans: 9×288, 360 wires
    /// ([`presets::power_law_config`]).
    PowerLaw,
}

impl CircuitFamily {
    /// The family's generator configuration reseeded with `seed`, so two
    /// jobs of the same family still route distinct circuit instances.
    pub(crate) fn config(&self, seed: u64) -> GeneratorConfig {
        let mut cfg = match self {
            CircuitFamily::Tiny => presets::tiny_config(),
            CircuitFamily::Small => presets::small_config(),
            CircuitFamily::BnrE => presets::bnr_e_config(),
            CircuitFamily::Mdc => presets::mdc_config(),
            CircuitFamily::PowerLaw => presets::power_law_config(),
        };
        cfg.seed = seed;
        cfg
    }

    /// Generates the circuit instance for `seed`.
    pub(crate) fn instantiate(&self, seed: u64) -> Circuit {
        CircuitGenerator::new(self.config(seed)).generate()
    }
}

/// One kind of routing job the workload mix can draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobClass {
    /// Circuit population routed by jobs of this class.
    pub family: CircuitFamily,
    /// Engine registry name (resolved by the server's engine factory).
    pub engine: &'static str,
    /// Processor count handed to the engine.
    pub procs: usize,
    /// Router parameters for the run.
    pub params: RouterParams,
}

impl JobClass {
    /// A class routing `family` on `engine` with `procs` processors and
    /// default router parameters.
    pub fn new(family: CircuitFamily, engine: &'static str, procs: usize) -> Self {
        JobClass { family, engine, procs, params: RouterParams::default() }
    }
}

/// One routing job in the arrival trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobSpec {
    /// Trace-unique id, dense from 0 in arrival order.
    pub id: u32,
    /// Virtual arrival time (ms since trace start).
    pub arrival_ms: u64,
    /// What to route, with what.
    pub class: JobClass,
    /// Seed for this job's circuit instance.
    pub circuit_seed: u64,
}

/// A rate-multiplier window inside the simulated day.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Burst {
    /// Window start, ms into the day.
    pub start_ms: u64,
    /// Window end (exclusive), ms into the day.
    pub end_ms: u64,
    /// Arrival-rate multiplier while inside the window.
    pub factor: f64,
}

/// Parameters of the seeded arrival-trace generator.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Trace seed; equal seeds produce identical traces.
    pub seed: u64,
    /// Trace length in virtual ms.
    pub duration_ms: u64,
    /// Mean inter-arrival gap (ms) at `load = 1.0`, off-peak.
    pub mean_interarrival_ms: f64,
    /// Offered-load multiplier: 2.0 doubles the arrival rate everywhere.
    pub load: f64,
    /// Length of the simulated day the burst windows repeat over.
    pub day_ms: u64,
    /// Rush-hour windows (positions within the day).
    pub bursts: Vec<Burst>,
    /// Weighted job classes the mix draws from. Must be non-empty with a
    /// positive total weight.
    pub mix: Vec<(JobClass, u32)>,
}

impl WorkloadConfig {
    /// A demand curve with morning and evening rush hours over a
    /// compressed day, and a mix of small shared-memory jobs — a
    /// reasonable default for service studies. `duration_ms` of one
    /// `day_ms` (86_400 virtual ms ≙ 24 "hours" of 3.6 s each) covers
    /// both rush windows.
    pub fn rush_hour(seed: u64, duration_ms: u64, mean_interarrival_ms: f64) -> Self {
        let hour = 3_600;
        WorkloadConfig {
            seed,
            duration_ms,
            mean_interarrival_ms,
            load: 1.0,
            day_ms: 24 * hour,
            bursts: vec![
                Burst { start_ms: 7 * hour, end_ms: 9 * hour, factor: 2.5 },
                Burst { start_ms: 17 * hour, end_ms: 19 * hour, factor: 3.0 },
            ],
            mix: vec![
                (JobClass::new(CircuitFamily::Tiny, "sequential", 1), 4),
                (JobClass::new(CircuitFamily::Small, "sequential", 1), 3),
                (JobClass::new(CircuitFamily::PowerLaw, "sequential", 1), 2),
                (JobClass::new(CircuitFamily::Small, "shmem-emul", 4), 1),
            ],
        }
    }

    /// Instantaneous rate multiplier at virtual time `t_ms`.
    fn rate_factor(&self, t_ms: u64) -> f64 {
        let day = self.day_ms.max(1);
        let tod = t_ms % day;
        self.bursts
            .iter()
            .find(|b| (b.start_ms..b.end_ms).contains(&tod))
            .map(|b| b.factor)
            .unwrap_or(1.0)
    }
}

/// Generates the arrival trace for `cfg`. Deterministic: the trace is a
/// pure function of the configuration.
///
/// # Panics
/// Panics if the mix is empty or has zero total weight.
pub fn generate(cfg: &WorkloadConfig) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let total_weight: u64 = cfg.mix.iter().map(|&(_, w)| w as u64).sum();
    assert!(total_weight > 0, "workload mix needs positive weight");

    let mut jobs = Vec::new();
    let mut t = 0.0f64;
    loop {
        let factor = cfg.rate_factor(t as u64) * cfg.load.max(1e-6);
        let mean = (cfg.mean_interarrival_ms / factor).max(1e-3);
        // Exponential gap via inverse CDF; guard u = 0.
        let u: f64 = rng.random();
        t += -u.max(f64::MIN_POSITIVE).ln() * mean;
        if t >= cfg.duration_ms as f64 {
            break;
        }
        // Weighted class draw.
        let mut pick = rng.random_range(0..total_weight);
        let mut class = cfg.mix[0].0;
        for &(c, w) in &cfg.mix {
            let w = w as u64;
            if pick < w {
                class = c;
                break;
            }
            pick -= w;
        }
        let circuit_seed: u64 = rng.random();
        jobs.push(JobSpec { id: jobs.len() as u32, arrival_ms: t as u64, class, circuit_seed });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> WorkloadConfig {
        WorkloadConfig::rush_hour(seed, 20_000, 100.0)
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        assert_eq!(generate(&quick_cfg(5)), generate(&quick_cfg(5)));
        assert_ne!(generate(&quick_cfg(5)), generate(&quick_cfg(6)));
    }

    #[test]
    fn arrivals_are_ordered_and_inside_the_window() {
        let jobs = generate(&quick_cfg(1));
        assert!(jobs.len() > 50, "expected a real trace, got {}", jobs.len());
        for pair in jobs.windows(2) {
            assert!(pair[0].arrival_ms <= pair[1].arrival_ms);
        }
        assert!(jobs.iter().all(|j| j.arrival_ms < 20_000));
        assert!(jobs.iter().enumerate().all(|(i, j)| j.id as usize == i));
    }

    #[test]
    fn load_scales_the_arrival_count() {
        let base = generate(&quick_cfg(2)).len() as f64;
        let mut heavy = quick_cfg(2);
        heavy.load = 3.0;
        let heavy = generate(&heavy).len() as f64;
        assert!(heavy > 2.0 * base, "load 3x should roughly triple arrivals: {base} -> {heavy}");
    }

    #[test]
    fn rush_windows_concentrate_arrivals() {
        // A trace covering one full day: the 17–19h window (factor 3.0)
        // must be busier per-ms than the 0–7h off-peak stretch.
        let cfg = WorkloadConfig::rush_hour(3, 86_400, 200.0);
        let jobs = generate(&cfg);
        let in_window = |lo: u64, hi: u64| {
            jobs.iter().filter(|j| (lo..hi).contains(&j.arrival_ms)).count() as f64
                / (hi - lo) as f64
        };
        let rush = in_window(17 * 3_600, 19 * 3_600);
        let calm = in_window(0, 7 * 3_600);
        assert!(rush > 1.8 * calm, "rush density {rush:.4} vs calm {calm:.4}");
    }

    #[test]
    fn mix_draws_every_family_with_weight() {
        let jobs = generate(&WorkloadConfig::rush_hour(4, 60_000, 50.0));
        let count = |f: CircuitFamily| jobs.iter().filter(|j| j.class.family == f).count();
        assert!(count(CircuitFamily::Tiny) > count(CircuitFamily::PowerLaw));
        assert!(count(CircuitFamily::PowerLaw) > 0);
        assert!(jobs.iter().any(|j| j.class.engine == "shmem-emul"));
    }

    #[test]
    fn families_instantiate_valid_circuits() {
        for f in [
            CircuitFamily::Tiny,
            CircuitFamily::Small,
            CircuitFamily::BnrE,
            CircuitFamily::Mdc,
            CircuitFamily::PowerLaw,
        ] {
            let c = f.instantiate(77);
            c.validate().expect("family circuit is valid");
            assert!(c.wire_count() > 0);
            // Reseeding changes the instance but keeps the surface shape.
            let d = f.instantiate(78);
            assert_eq!((c.channels, c.grids), (d.channels, d.grids));
            assert_ne!(c.wires, d.wires);
        }
    }
}
