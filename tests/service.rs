//! Cross-checks the service layer against the observability subsystem:
//! the sink-derived job counters must agree *exactly* with the server's
//! own [`ServiceStats`], the latency histograms must match sample for
//! sample, and the exporters must handle service events.

use locusroute::engines;
use locusroute::obs::metrics::hists;
use locusroute::obs::{export, names, SharedSink};
use locusroute::prelude::*;
use locusroute::service::{generate, Backpressure, JobServer, ServiceConfig};

/// A short rush-hour trace at heavy load so every policy exercises its
/// full-queue branch.
fn heavy_workload() -> Vec<locusroute::service::JobSpec> {
    let mut cfg = WorkloadConfig::rush_hour(0xC0FFEE, 6_000, 550.0);
    cfg.load = 6.0;
    generate(&cfg)
}

#[test]
fn obs_job_counters_match_service_stats() {
    for policy in [Backpressure::Block, Backpressure::ShedOldest, Backpressure::Reject] {
        let jobs = heavy_workload();
        let sink = SharedSink::new();
        let server = JobServer::new(ServiceConfig::new(2, 3, policy));
        let runner = EngineRunner::new(engines::run);
        let out = server.run(&jobs, &runner, &WorkerPool::auto(), Some(sink.clone()));

        let m = sink.metrics_snapshot();
        let s = out.stats;
        assert_eq!(m.counter(names::JOBS_ENQUEUED), s.enqueued, "{policy:?}");
        assert_eq!(m.counter(names::JOBS_DISPATCHED), s.dispatched, "{policy:?}");
        assert_eq!(m.counter(names::JOBS_COMPLETED), s.completed, "{policy:?}");
        assert_eq!(m.counter(names::JOBS_SHED), s.shed, "{policy:?}");
        assert_eq!(m.counter(names::JOBS_REJECTED), s.rejected, "{policy:?}");

        // The sink's histograms see exactly the samples the server's own
        // histograms recorded.
        let queue_wait = m.histogram(hists::QUEUE_WAIT_MS).expect("jobs were dispatched");
        assert_eq!(queue_wait, &out.queue_wait, "{policy:?}");
        let service = m.histogram(hists::SERVICE_MS).expect("jobs completed");
        assert_eq!(service, &out.service, "{policy:?}");

        // Heavy load must actually exercise the policy.
        match policy {
            Backpressure::Block => assert_eq!(s.shed + s.rejected, 0),
            Backpressure::ShedOldest => assert!(s.shed > 0, "{s:?}"),
            Backpressure::Reject => assert!(s.rejected > 0, "{s:?}"),
        }
    }
}

#[test]
fn service_events_export_as_valid_json_and_render() {
    let jobs = heavy_workload();
    let sink = SharedSink::new();
    let server = JobServer::new(ServiceConfig::new(2, 3, Backpressure::ShedOldest));
    let runner = EngineRunner::new(engines::run);
    server.run(&jobs, &runner, &WorkerPool::serial(), Some(sink.clone()));

    let events = sink.snapshot_events();
    assert!(!events.is_empty());
    let trace = export::chrome_trace(&events);
    export::validate_json(&trace).expect("chrome trace is valid JSON");
    assert!(trace.contains("JobEnqueued") && trace.contains("JobShed"));

    let metrics = export::metrics_json(&sink.metrics_snapshot());
    export::validate_json(&metrics).expect("metrics are valid JSON");
    assert!(metrics.contains("jobs_enqueued"));

    let timeline = export::ascii_timeline(&events, 60);
    assert!(timeline.contains("job-enq"), "legend covers job events:\n{timeline}");
}

#[test]
fn end_to_end_run_is_deterministic_and_reports_real_quality() {
    // The facade-level determinism claim: two full runs through real
    // engines, on pools of different sizes, produce identical outcomes.
    let jobs = heavy_workload();
    let runner = EngineRunner::new(engines::run);
    let server = JobServer::new(ServiceConfig::new(2, 3, Backpressure::Reject));
    let a = server.run(&jobs, &runner, &WorkerPool::serial(), None);
    let b = server.run(&jobs, &runner, &WorkerPool::with_threads(4), None);
    assert_eq!(a.records, b.records);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.makespan_ms, b.makespan_ms);
    assert!(a.stats.failed == 0, "registry engines must route the mix: {:?}", a.stats);
    assert!(a.stats.completed > 0);
}
