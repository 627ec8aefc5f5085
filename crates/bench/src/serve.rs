//! The routing-as-a-service study: offered load × backpressure policy.
//!
//! Sweeps the [`locus_service`] job server from underload to past
//! saturation on the rush-hour workload, reusing one execution set per
//! load across all three backpressure policies (the arrival trace and
//! the routed jobs are policy-independent; only admission differs).
//! Every quantity reported is virtual-time, so the study — and the
//! `BENCH_service.json` report built from it — is byte-identical across
//! runs, hosts, and pool sizes.

use locus_service::{
    generate, Backpressure, EngineRunner, JobOutcome, JobServer, ServiceConfig, ServiceOutcome,
    WorkerPool, WorkloadConfig,
};
use locusroute::engines;

/// Trace seed of the service study.
pub(crate) const SERVICE_SEED: u64 = 0x1989_000C;

/// Queue-wait SLO (virtual ms): a job should start routing within this
/// long of arriving. Attainment is measured against *submitted* jobs, so
/// shed and rejected work counts against the SLO.
pub(crate) const SERVICE_SLO_WAIT_MS: u64 = 2_000;

/// Mean inter-arrival gap (virtual ms) at `load = 1.0`, off-peak.
///
/// Calibrated against the rush-hour mix under the default cost model
/// (weighted mean service ≈ 1.5 virtual s per job): with the full
/// study's 4 workers, `load = 1.0` puts off-peak utilization near 0.7
/// and the ×2.5–3 rush windows briefly at saturation.
pub(crate) const SERVICE_MEAN_INTERARRIVAL_MS: f64 = 550.0;

/// Offered-load multipliers of the full study: underload (0.25×) to
/// well past saturation (4×).
pub(crate) const SERVICE_LOADS: &[f64] = &[0.25, 0.5, 1.0, 2.0, 4.0];

/// The reduced sweep for `--quick` runs and CI smoke tests; 6× is past
/// saturation even off-peak.
pub(crate) const SERVICE_LOADS_QUICK: &[f64] = &[0.5, 2.0, 6.0];

/// The three policies every load level is replayed under.
pub(crate) const SERVICE_POLICIES: [Backpressure; 3] =
    [Backpressure::Block, Backpressure::ShedOldest, Backpressure::Reject];

/// One `(load, policy)` cell of the study.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ServiceRow {
    /// Offered-load multiplier.
    pub load: f64,
    /// Backpressure policy name.
    pub policy: &'static str,
    /// Jobs in the arrival trace.
    pub submitted: u64,
    /// Jobs served to completion.
    pub completed: u64,
    /// Jobs dropped by shed-oldest.
    pub shed: u64,
    /// Jobs turned away by reject.
    pub rejected: u64,
    /// Jobs whose runner errored.
    pub failed: u64,
    /// Queueing-delay quantiles (virtual ms).
    pub p50_wait_ms: u64,
    /// 95th-percentile queueing delay.
    pub p95_wait_ms: u64,
    /// 99th-percentile queueing delay.
    pub p99_wait_ms: u64,
    /// Service-latency quantiles (virtual ms).
    pub p50_service_ms: u64,
    /// 95th-percentile service latency.
    pub p95_service_ms: u64,
    /// 99th-percentile service latency.
    pub p99_service_ms: u64,
    /// Completed jobs per virtual second.
    pub throughput_jps: f64,
    /// Busy worker·ms over offered worker·ms.
    pub utilization: f64,
    /// Fraction of *submitted* jobs completed with queue wait within
    /// [`SERVICE_SLO_WAIT_MS`].
    pub slo_ok: f64,
}

impl ServiceRow {
    fn from_outcome(load: f64, policy: Backpressure, out: &ServiceOutcome) -> Self {
        let within_slo = out
            .records
            .iter()
            .filter(|r| {
                matches!(r.outcome, JobOutcome::Completed { .. })
                    && r.queue_wait_ms().unwrap_or(u64::MAX) <= SERVICE_SLO_WAIT_MS
            })
            .count() as f64;
        let submitted = out.stats.submitted;
        ServiceRow {
            load,
            policy: policy.name(),
            submitted,
            completed: out.stats.completed,
            shed: out.stats.shed,
            rejected: out.stats.rejected,
            failed: out.stats.failed,
            p50_wait_ms: out.queue_wait.quantile(0.50),
            p95_wait_ms: out.queue_wait.quantile(0.95),
            p99_wait_ms: out.queue_wait.quantile(0.99),
            p50_service_ms: out.service.quantile(0.50),
            p95_service_ms: out.service.quantile(0.95),
            p99_service_ms: out.service.quantile(0.99),
            throughput_jps: out.throughput_jps,
            utilization: out.utilization,
            slo_ok: if submitted == 0 { 1.0 } else { within_slo / submitted as f64 },
        }
    }
}

/// The full study: every `(load, policy)` row plus the detected knee.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ServiceStudy {
    /// Rows in `(load, policy)` order (policies inner).
    pub rows: Vec<ServiceRow>,
    /// First swept load whose block-policy p95 queue wait blows through
    /// the SLO — where the latency curve bends. `None` if no swept load
    /// saturates.
    pub knee_load: Option<f64>,
    /// Simulated worker count.
    pub workers: usize,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// Trace length (virtual ms).
    pub duration_ms: u64,
}

/// Server shape of the study: `(workers, queue_capacity, duration_ms)`.
fn shape(quick: bool) -> (usize, usize, u64) {
    if quick {
        (4, 4, 12_000)
    } else {
        (4, 8, 86_400)
    }
}

/// Runs the offered-load sweep. One execution pass per load level (on
/// `pool`, with the registry-backed [`EngineRunner`]), three policy
/// replays per pass.
pub(crate) fn service_study(pool: &WorkerPool, quick: bool) -> ServiceStudy {
    let (workers, queue_capacity, duration_ms) = shape(quick);
    let loads = if quick { SERVICE_LOADS_QUICK } else { SERVICE_LOADS };
    let runner = EngineRunner::new(engines::run);

    let mut rows = Vec::with_capacity(loads.len() * SERVICE_POLICIES.len());
    for &load in loads {
        let mut wl =
            WorkloadConfig::rush_hour(SERVICE_SEED, duration_ms, SERVICE_MEAN_INTERARRIVAL_MS);
        wl.load = load;
        let jobs = generate(&wl);
        let executions = pool.map(jobs.clone(), |job| {
            use locus_service::JobRunner;
            runner.run(&job)
        });
        for policy in SERVICE_POLICIES {
            let server = JobServer::new(ServiceConfig::new(workers, queue_capacity, policy));
            let out = server.simulate(&jobs, &executions, None);
            rows.push(ServiceRow::from_outcome(load, policy, &out));
        }
    }

    let knee_load = rows
        .iter()
        .find(|r| r.policy == "block" && r.p95_wait_ms > SERVICE_SLO_WAIT_MS)
        .map(|r| r.load);
    ServiceStudy { rows, knee_load, workers, queue_capacity, duration_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_covers_underload_and_saturation() {
        let study = service_study(&WorkerPool::serial(), true);
        assert_eq!(study.rows.len(), SERVICE_LOADS_QUICK.len() * 3);

        // Underload: the block row at the lightest load completes
        // everything within the SLO.
        let light = &study.rows[0];
        assert_eq!(light.policy, "block");
        assert_eq!(light.completed + light.failed, light.submitted);
        assert!(light.slo_ok > 0.9, "underload SLO attainment {:.3}", light.slo_ok);

        // Past saturation: the bounded policies lose work, the blocking
        // policy pays in queueing delay instead.
        let heavy = &study.rows[study.rows.len() - 3..];
        assert_eq!(heavy[0].policy, "block");
        assert_eq!(heavy[0].shed + heavy[0].rejected, 0);
        assert!(heavy[0].p95_wait_ms > heavy[0].p50_service_ms, "overload must queue");
        assert!(heavy[1].shed > 0, "shed-oldest must drop work past saturation: {heavy:?}");
        assert!(heavy[2].rejected > 0, "reject must turn work away past saturation: {heavy:?}");
        assert!(study.knee_load.is_some(), "the quick sweep crosses the knee");
    }
}
