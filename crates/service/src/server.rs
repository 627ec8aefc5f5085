//! The routing job server: bounded admission queue, backpressure, and a
//! deterministic virtual-time dispatch simulation.
//!
//! A run has two phases. **Execute**: every job in the arrival trace is
//! routed on the scoped-thread [`crate::pool::WorkerPool`] through a
//! [`JobRunner`], producing a deterministic virtual service time per job
//! (real threads, virtual prices — see [`runner`](crate::runner)).
//! **Simulate**: a sequential discrete-event replay on the virtual ms
//! clock admits jobs through the bounded queue under the configured
//! [`Backpressure`] policy, dispatches them to `workers` simulated
//! servers, and stamps every job's enqueue/dispatch/complete times. It is
//! one loop: pop the earliest event off one timed queue (events of one ms
//! are ordered by kind), run its handler, let the queue settle;
//! [`health`](crate::health) judges finished attempts. Because phase 2
//! depends only on the trace and the virtual service times, the whole
//! outcome is byte-identical across runs, hosts, and pool sizes.
//!
//! Jobs that end up shed or rejected were still routed in phase 1 —
//! speculative work the report's `wasted` ratio makes visible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use locus_obs::{EventKind, Histogram, Obs, SharedSink};

use crate::health::{Health, HealthPolicy, WorkerState};
use crate::pool::WorkerPool;
use crate::runner::{JobExecution, JobRunner};
use crate::workload::JobSpec;

/// What the server does when a job arrives at a full queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// The arrival waits outside the queue (the submitting client
    /// blocks) and enters as soon as a slot frees. Nothing is lost;
    /// queueing delay absorbs the overload.
    Block,
    /// The oldest *queued* job is dropped to admit the newcomer —
    /// freshest-work-wins, bounding staleness under overload.
    ShedOldest,
    /// The newcomer is turned away with a retry hint estimating when the
    /// backlog will drain.
    Reject,
}

impl Backpressure {
    /// Short stable name (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            Backpressure::Block => "block",
            Backpressure::ShedOldest => "shed-oldest",
            Backpressure::Reject => "reject",
        }
    }
}

/// Server shape: simulated worker count, queue bound, and policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Simulated routing servers draining the queue (≥ 1).
    pub workers: usize,
    /// Waiting-job bound of the admission queue (≥ 1).
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub policy: Backpressure,
    /// Health management (retries, quarantine, circuit breaker); `None`
    /// leaves the legacy dispatch byte-identical.
    pub health: Option<HealthPolicy>,
}

/// Most simulated workers a server accepts: three orders of magnitude
/// past any study here, and small enough that the per-worker tables the
/// replay allocates up front stay under a megabyte.
const MAX_WORKERS: usize = 1 << 16;

impl ServiceConfig {
    /// A server with `workers` servers, a queue of `queue_capacity`, and
    /// the given policy. Health management starts disabled.
    pub fn new(workers: usize, queue_capacity: usize, policy: Backpressure) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            queue_capacity: queue_capacity.max(1),
            policy,
            health: None,
        }
    }

    /// Returns `self` with health management enabled under `policy`.
    pub fn with_health(mut self, policy: HealthPolicy) -> Self {
        self.health = Some(policy);
        self
    }

    /// Validates the shape (the fields are public; only [`Self::new`]
    /// clamps them) and the health policy, if any.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        if self.workers > MAX_WORKERS {
            return Err(format!("{} workers; at most {MAX_WORKERS} are simulated", self.workers));
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        self.health.map_or(Ok(()), |policy| policy.validate())
    }
}

/// How one job's pass through the server ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Dispatched and served to completion.
    Completed {
        /// Virtual ms the job left the queue for a worker.
        dispatch_ms: u64,
        /// Virtual ms service finished.
        complete_ms: u64,
        /// Service duration (== `complete_ms - dispatch_ms`).
        service_ms: u64,
    },
    /// Dropped from the queue by [`Backpressure::ShedOldest`].
    Shed {
        /// Virtual ms the shed happened (a newer arrival's timestamp).
        at_ms: u64,
    },
    /// Turned away at arrival by [`Backpressure::Reject`].
    Rejected {
        /// Suggested client back-off before resubmitting (virtual ms).
        retry_hint_ms: u64,
    },
    /// The runner could not route the job (e.g. unknown engine name).
    Failed {
        /// The runner's error.
        error: String,
    },
}

/// One job's record: identity, arrival, and how it ended.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Trace job id.
    pub id: u32,
    /// Virtual arrival time (ms).
    pub arrival_ms: u64,
    /// How the pass ended.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Queueing delay for completed jobs (arrival → dispatch).
    pub fn queue_wait_ms(&self) -> Option<u64> {
        match self.outcome {
            JobOutcome::Completed { dispatch_ms, .. } => Some(dispatch_ms - self.arrival_ms),
            _ => None,
        }
    }
}

/// The server's own tally, kept independently of obs so the two can be
/// cross-checked (see `tests/service.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs in the arrival trace.
    pub submitted: u64,
    /// Jobs that entered the queue (including via the block vestibule).
    pub enqueued: u64,
    /// Jobs handed to a worker.
    pub dispatched: u64,
    /// Jobs served to completion.
    pub completed: u64,
    /// Jobs dropped by shed-oldest.
    pub shed: u64,
    /// Jobs turned away by reject.
    pub rejected: u64,
    /// Jobs whose runner errored.
    pub failed: u64,
    /// Total busy worker·ms across the run.
    pub busy_ms: u64,
    /// Retry attempts scheduled by the health policy.
    pub retried: u64,
    /// Completed jobs that overran the policy deadline.
    pub deadline_misses: u64,
    /// Times a worker entered quarantine.
    pub quarantines: u64,
    /// Times a class's circuit breaker tripped.
    pub breaker_trips: u64,
    /// Jobs failed fast at dispatch because their class's breaker was
    /// open.
    pub breaker_fast_fails: u64,
    /// Jobs that completed but whose engine run was degraded.
    pub degraded_completions: u64,
}

/// Everything a server run produces.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// Per-job records in trace order.
    pub records: Vec<JobRecord>,
    /// The server's own tally.
    pub stats: ServiceStats,
    /// Queueing-delay histogram (dispatched jobs, virtual ms).
    pub queue_wait: Histogram,
    /// Service-latency histogram (completed jobs, virtual ms).
    pub service: Histogram,
    /// Virtual ms from trace start to the last completion.
    pub makespan_ms: u64,
    /// Busy worker·ms over offered worker·ms (0..=1).
    pub utilization: f64,
    /// Completed jobs per virtual second.
    pub throughput_jps: f64,
    /// Final health state per worker (index 0 = frontend, always
    /// healthy); all-healthy when no policy is set.
    pub worker_health: Vec<WorkerState>,
}

/// The routing job server; see the [module docs](self).
pub struct JobServer {
    cfg: ServiceConfig,
}

impl JobServer {
    /// A server with the given shape.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; `try_new` says so
    /// instead.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::try_new(cfg).expect("invalid service configuration")
    }

    /// A server with the given shape, or what
    /// [`ServiceConfig::validate`] finds wrong with it.
    pub(crate) fn try_new(cfg: ServiceConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(JobServer { cfg })
    }

    /// Runs the full trace: executes every job on `pool` via `runner`,
    /// then replays admission and dispatch on the virtual clock,
    /// emitting service events into `sink` when given.
    pub fn run(
        &self,
        jobs: &[JobSpec],
        runner: &dyn JobRunner,
        pool: &WorkerPool,
        sink: Option<SharedSink>,
    ) -> ServiceOutcome {
        let executions = pool.map(jobs.to_vec(), |job| runner.run(&job));
        self.simulate(jobs, &executions, sink)
    }

    /// Phase 2 alone: replays admission/dispatch for pre-computed
    /// executions, so tests can drive the policies with hand-built service
    /// times. `jobs` may be in any order: arrivals replay by `arrival_ms`
    /// (ties in slice order) and `records` come back in slice order.
    pub fn simulate(
        &self,
        jobs: &[JobSpec],
        executions: &[Result<JobExecution, String>],
        sink: Option<SharedSink>,
    ) -> ServiceOutcome {
        assert_eq!(jobs.len(), executions.len(), "one execution per job");
        let obs = sink.as_ref().map_or_else(Obs::off, Obs::to);
        let mut sim = Sim::new(self.cfg, jobs, executions, obs);
        while let Some(Reverse((now, ev))) = sim.events.pop() {
            match ev {
                Ev::Completion { worker, job } => sim.on_completion(now, worker, job),
                Ev::Release { worker } => {
                    sim.health.release(worker);
                    sim.free_workers.push(Reverse(worker));
                }
                // Retries bypass admission control: the breaker, not the
                // queue bound, is the overload valve for repeated failures.
                Ev::Retry { job } => sim.admit(now, job),
                Ev::Arrival { job } => sim.on_arrival(now, job),
            }
            sim.settle(now);
        }
        sim.finish()
    }
}

/// A timed event of the replay; `job` indexes the trace. The derived order
/// is the tie order of one instant and part of the simulated behaviour:
/// kinds as declared, then worker id, then job index. Ordering what is
/// *pending* is enough, because no handler schedules an event at its own
/// instant that sorts before itself (service and backoff last ≥ 1 ms).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// `worker` finishes its attempt at `job`; freed capacity comes first.
    Completion { worker: u32, job: usize },
    /// A quarantine ends: even a zero-length one outlasts its instant's completions.
    Release { worker: u32 },
    /// A backed-off job re-enters the queue, ahead of a newcomer.
    Retry { job: usize },
    /// A job of the trace arrives.
    Arrival { job: usize },
}

/// Obs node of the admission frontend; workers are nodes `1..=W`.
const FRONTEND: u32 = 0;

/// Fallback mean service estimate (virtual ms) for retry hints before
/// any job has been dispatched.
const RETRY_BOOTSTRAP_MS: u64 = 10;

/// The state of one replay.
struct Sim<'a> {
    cfg: ServiceConfig,
    jobs: &'a [JobSpec],
    executions: &'a [Result<JobExecution, String>],
    obs: Obs,
    /// Everything that will happen, earliest first.
    events: BinaryHeap<Reverse<(u64, Ev)>>,
    /// Admitted jobs waiting for a worker, oldest first.
    queue: VecDeque<usize>,
    /// Arrivals blocked outside a full queue ([`Backpressure::Block`]).
    vestibule: VecDeque<usize>,
    /// Idle workers, lowest id first.
    free_workers: BinaryHeap<Reverse<u32>>,
    /// Judges finished attempts; without a policy it never has a verdict.
    health: Health<'a>,
    /// How each job's pass ended, so far: a retry overwrites it.
    outcomes: Vec<Option<JobOutcome>>,
    stats: ServiceStats,
    queue_wait: Histogram,
    service: Histogram,
    makespan_ms: u64,
    /// Σ service of dispatched jobs, for the reject hint's running mean.
    dispatched_service_sum: u64,
}

impl<'a> Sim<'a> {
    fn new(
        cfg: ServiceConfig,
        jobs: &'a [JobSpec],
        executions: &'a [Result<JobExecution, String>],
        obs: Obs,
    ) -> Self {
        let arrival = |(job, j): (usize, &JobSpec)| Reverse((j.arrival_ms, Ev::Arrival { job }));
        Sim {
            cfg,
            jobs,
            executions,
            obs,
            events: jobs.iter().enumerate().map(arrival).collect(),
            queue: VecDeque::new(),
            vestibule: VecDeque::new(),
            free_workers: (1..=cfg.workers as u32).map(Reverse).collect(),
            health: Health::new(cfg.health, jobs, executions, cfg.workers),
            outcomes: vec![None; jobs.len()],
            stats: ServiceStats { submitted: jobs.len() as u64, ..ServiceStats::default() },
            queue_wait: Histogram::default(),
            service: Histogram::default(),
            makespan_ms: 0,
            dispatched_service_sum: 0,
        }
    }

    /// Records an obs event at virtual ms `at_ms` (ns on the timeline).
    fn emit(&self, at_ms: u64, node: u32, kind: EventKind) {
        self.obs.emit_on(at_ms.saturating_mul(1_000_000), node, kind);
    }

    /// Virtual ms an attempt at `job` holds a worker. A runner failure
    /// holds it for 1 ms: the error path is cheap but not free.
    fn service_ms(&self, job: usize) -> u64 {
        self.executions[job].as_ref().map_or(1, |exec| exec.service_ms.max(1))
    }

    /// Puts `job` into the queue at `now`, counting and emitting.
    fn admit(&mut self, now: u64, job: usize) {
        self.queue.push_back(job);
        self.stats.enqueued += 1;
        let queue_depth = self.queue.len() as u32;
        self.emit(now, FRONTEND, EventKind::JobEnqueued { job: self.jobs[job].id, queue_depth });
    }

    /// Hands queued jobs to free workers, lowest worker id first.
    fn dispatch(&mut self, now: u64) {
        while !self.queue.is_empty() && !self.free_workers.is_empty() {
            let job = self.queue.pop_front().expect("queue non-empty");
            // An open class breaker fails the job fast: no worker is occupied.
            if let Some(class) = self.health.open_breaker(job, now) {
                self.stats.failed += 1;
                self.stats.breaker_fast_fails += 1;
                let error = format!("circuit breaker open for class {class}");
                self.outcomes[job] = Some(JobOutcome::Failed { error });
                continue;
            }
            let Reverse(worker) = self.free_workers.pop().expect("worker available");
            let JobSpec { id, arrival_ms, .. } = self.jobs[job];
            let queued_ms = now - arrival_ms;
            let service_ms = self.service_ms(job);
            let complete_ms = now.saturating_add(service_ms);
            self.stats.dispatched += 1;
            self.dispatched_service_sum = self.dispatched_service_sum.saturating_add(service_ms);
            self.queue_wait.record(queued_ms);
            self.outcomes[job] =
                Some(JobOutcome::Completed { dispatch_ms: now, complete_ms, service_ms });
            self.emit(now, worker, EventKind::JobDispatched { job: id, queued_ms });
            self.events.push(Reverse((complete_ms, Ev::Completion { worker, job })));
        }
    }

    /// Run after every event: dispatch frees queue slots, freed slots let
    /// blocked arrivals in, those may dispatch in turn; until neither moves.
    fn settle(&mut self, now: u64) {
        loop {
            self.dispatch(now);
            if self.queue.len() >= self.cfg.queue_capacity {
                break;
            }
            let Some(waiting) = self.vestibule.pop_front() else { break };
            self.admit(now, waiting);
        }
    }

    /// A job arrives: it is admitted, or the backpressure policy decides.
    fn on_arrival(&mut self, now: u64, job: usize) {
        if self.queue.len() < self.cfg.queue_capacity {
            return self.admit(now, job);
        }
        match self.cfg.policy {
            Backpressure::Block => self.vestibule.push_back(job),
            Backpressure::ShedOldest => {
                let victim = self.queue.pop_front().expect("full queue has a head");
                self.stats.shed += 1;
                self.outcomes[victim] = Some(JobOutcome::Shed { at_ms: now });
                self.emit(now, FRONTEND, EventKind::JobShed { job: self.jobs[victim].id });
                self.admit(now, job);
            }
            Backpressure::Reject => {
                // Estimate the backlog drain time from the mean dispatched service so far.
                let mean = self
                    .dispatched_service_sum
                    .checked_div(self.stats.dispatched)
                    .map_or(RETRY_BOOTSTRAP_MS, |m| m.max(1));
                let workers = self.cfg.workers as u64;
                let backlog = self.queue.len() as u64 + workers;
                let retry_ms = (backlog.saturating_mul(mean) / workers).max(1);
                self.stats.rejected += 1;
                self.outcomes[job] = Some(JobOutcome::Rejected { retry_hint_ms: retry_ms });
                let id = self.jobs[job].id;
                self.emit(now, FRONTEND, EventKind::JobRejected { job: id, retry_ms });
            }
        }
    }

    /// `worker` finishes its attempt at `job`: on the health layer's
    /// verdict the job retries or ends, and the worker rests or is free.
    fn on_completion(&mut self, now: u64, worker: u32, job: usize) {
        let dur = self.service_ms(job);
        self.stats.busy_ms = self.stats.busy_ms.saturating_add(dur);
        self.makespan_ms = self.makespan_ms.max(now);
        let id = self.jobs[job].id;
        let execution = &self.executions[job];
        let verdict = self.health.judge(job, worker, now, dur);
        if let Some(class) = verdict.breaker_tripped {
            self.stats.breaker_trips += 1;
            self.emit(now, FRONTEND, EventKind::BreakerTripped { class });
        }
        self.stats.deadline_misses += u64::from(verdict.deadline_miss);
        match (verdict.retry, execution) {
            (Some((attempt, due_ms)), _) => {
                self.stats.retried += 1;
                self.emit(now, worker, EventKind::JobRetried { job: id, attempt });
                self.events.push(Reverse((due_ms, Ev::Retry { job })));
            }
            (None, Ok(exec)) => {
                self.stats.completed += 1;
                self.stats.degraded_completions += u64::from(exec.degraded);
                self.service.record(dur);
                self.emit(now, worker, EventKind::JobCompleted { job: id, service_ms: dur });
            }
            (None, Err(error)) => {
                self.stats.failed += 1;
                self.outcomes[job] = Some(JobOutcome::Failed { error: error.clone() });
            }
        }
        match verdict.quarantine_until {
            Some(until) => {
                self.stats.quarantines += 1;
                self.events.push(Reverse((until, Ev::Release { worker })));
            }
            None => self.free_workers.push(Reverse(worker)),
        }
    }

    fn finish(self) -> ServiceOutcome {
        let offered = (self.cfg.workers as u64).saturating_mul(self.makespan_ms).max(1);
        let seconds = self.makespan_ms as f64 / 1_000.0;
        let records = self.jobs.iter().zip(self.outcomes).map(|(j, outcome)| JobRecord {
            id: j.id,
            arrival_ms: j.arrival_ms,
            outcome: outcome.expect("every job reaches a terminal outcome"),
        });
        ServiceOutcome {
            records: records.collect(),
            stats: self.stats,
            queue_wait: self.queue_wait,
            service: self.service,
            makespan_ms: self.makespan_ms,
            utilization: self.stats.busy_ms as f64 / offered as f64,
            throughput_jps: if seconds > 0.0 { self.stats.completed as f64 / seconds } else { 0.0 },
            worker_health: self.health.into_worker_states(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{CircuitFamily, JobClass};

    /// A runner pricing every job at a fixed virtual cost.
    struct FixedRunner(u64);
    impl JobRunner for FixedRunner {
        fn run(&self, _job: &JobSpec) -> Result<JobExecution, String> {
            Ok(JobExecution {
                service_ms: self.0,
                circuit_height: 1,
                wires_routed: 1,
                degraded: false,
            })
        }
    }

    /// `n` arrivals every `gap_ms`, all of the same (irrelevant) class.
    fn trace(n: usize, gap_ms: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                id: i as u32,
                arrival_ms: i as u64 * gap_ms,
                class: JobClass::new(CircuitFamily::Tiny, "sequential", 1),
                circuit_seed: 0,
            })
            .collect()
    }

    /// Saturation fixture: service 100 ms, arrivals every 10 ms, one
    /// worker, queue of 2 — offered load 10× capacity.
    fn saturated(policy: Backpressure) -> ServiceOutcome {
        let server = JobServer::new(ServiceConfig::new(1, 2, policy));
        server.run(&trace(20, 10), &FixedRunner(100), &WorkerPool::serial(), None)
    }

    #[test]
    fn block_policy_loses_nothing_and_waits_grow() {
        let out = saturated(Backpressure::Block);
        assert_eq!(out.stats.completed, 20);
        assert_eq!(out.stats.shed, 0);
        assert_eq!(out.stats.rejected, 0);
        // Job k dispatches at k·100 ms but arrived at k·10 ms: the last
        // job waits ~19·90 ms. The queue itself never exceeds its bound,
        // so the wait shows up as queueing delay.
        let waits: Vec<u64> = out.records.iter().filter_map(JobRecord::queue_wait_ms).collect();
        assert_eq!(*waits.last().expect("jobs completed"), 19 * 100 - 19 * 10);
        assert!(waits.windows(2).all(|w| w[0] <= w[1]), "waits must be nondecreasing");
        assert_eq!(out.makespan_ms, 20 * 100);
    }

    #[test]
    fn shed_oldest_bounds_the_queue_and_drops_stale_work() {
        let out = saturated(Backpressure::ShedOldest);
        assert!(out.stats.shed > 10, "10x overload should shed most jobs: {:?}", out.stats);
        assert_eq!(out.stats.completed + out.stats.shed, 20);
        // Shed victims are the oldest waiters; the very first job is
        // already in service, so it completes.
        assert!(matches!(out.records[0].outcome, JobOutcome::Completed { .. }));
        assert!(matches!(out.records[1].outcome, JobOutcome::Shed { .. }));
        // Every completed wait is bounded by queue_capacity · service.
        for w in out.records.iter().filter_map(JobRecord::queue_wait_ms) {
            assert!(w <= 2 * 100, "wait {w} exceeds the shed bound");
        }
    }

    #[test]
    fn reject_policy_turns_arrivals_away_with_hints() {
        let out = saturated(Backpressure::Reject);
        assert!(out.stats.rejected > 10, "{:?}", out.stats);
        assert_eq!(out.stats.completed + out.stats.rejected, 20);
        for r in &out.records {
            if let JobOutcome::Rejected { retry_hint_ms } = r.outcome {
                assert!(retry_hint_ms >= 1);
            }
        }
        // Hints reflect the measured service time once jobs dispatch:
        // backlog (2 queued + 1 in service) · 100 ms mean.
        let hints: Vec<u64> = out
            .records
            .iter()
            .filter_map(|r| match r.outcome {
                JobOutcome::Rejected { retry_hint_ms } => Some(retry_hint_ms),
                _ => None,
            })
            .collect();
        assert!(hints.contains(&300), "expected a 300 ms hint, got {hints:?}");
    }

    #[test]
    fn underload_serves_everything_immediately() {
        let server = JobServer::new(ServiceConfig::new(2, 4, Backpressure::Reject));
        let out = server.run(&trace(10, 200), &FixedRunner(50), &WorkerPool::serial(), None);
        assert_eq!(out.stats.completed, 10);
        assert_eq!(out.queue_wait.max(), Some(0), "no waiting under light load");
        assert!(out.utilization < 0.5, "utilization {:.3}", out.utilization);
    }

    #[test]
    fn failures_are_recorded_not_panicked() {
        struct FailingRunner;
        impl JobRunner for FailingRunner {
            fn run(&self, job: &JobSpec) -> Result<JobExecution, String> {
                if job.id.is_multiple_of(2) {
                    Err("boom".to_string())
                } else {
                    Ok(JobExecution {
                        service_ms: 5,
                        circuit_height: 1,
                        wires_routed: 1,
                        degraded: false,
                    })
                }
            }
        }
        let server = JobServer::new(ServiceConfig::new(1, 4, Backpressure::Block));
        let out = server.run(&trace(6, 100), &FailingRunner, &WorkerPool::serial(), None);
        assert_eq!(out.stats.failed, 3);
        assert_eq!(out.stats.completed, 3);
        assert!(out
            .records
            .iter()
            .any(|r| matches!(&r.outcome, JobOutcome::Failed { error } if error == "boom")));
    }

    #[test]
    fn simulation_is_identical_across_pool_sizes() {
        let jobs = trace(30, 15);
        let server = JobServer::new(ServiceConfig::new(2, 3, Backpressure::ShedOldest));
        let serial = server.run(&jobs, &FixedRunner(40), &WorkerPool::serial(), None);
        for threads in [2, 8] {
            let par = server.run(&jobs, &FixedRunner(40), &WorkerPool::with_threads(threads), None);
            assert_eq!(serial.records, par.records, "threads={threads}");
            assert_eq!(serial.stats, par.stats);
        }
    }

    /// A runner whose even-id jobs come back degraded.
    struct DegradedRunner(u64);
    impl JobRunner for DegradedRunner {
        fn run(&self, job: &JobSpec) -> Result<JobExecution, String> {
            Ok(JobExecution {
                service_ms: self.0,
                circuit_height: 1,
                wires_routed: 1,
                degraded: job.id.is_multiple_of(2),
            })
        }
    }

    fn lenient_health() -> HealthPolicy {
        // Generous thresholds so individual tests can tighten exactly
        // the knob under study.
        HealthPolicy {
            deadline_ms: 1_000_000,
            max_retries: 2,
            backoff_base_ms: 20,
            quarantine_ms: 200,
            failure_quarantine: 1_000,
            breaker_window: 1_000,
            breaker_threshold_pct: 100,
        }
    }

    #[test]
    fn health_none_is_byte_identical_to_legacy() {
        // ServiceConfig::new leaves health off; the outcome must carry
        // the all-healthy placeholder and no health stats.
        let out = saturated(Backpressure::Block);
        assert_eq!(out.worker_health, vec![WorkerState::Healthy; 2]);
        assert_eq!(out.stats.retried, 0);
        assert_eq!(out.stats.quarantines, 0);
        assert_eq!(out.stats.breaker_trips, 0);
    }

    #[test]
    fn degraded_jobs_are_retried_with_backoff() {
        let policy = lenient_health();
        let server =
            JobServer::new(ServiceConfig::new(2, 8, Backpressure::Block).with_health(policy));
        let out = server.run(&trace(6, 100), &DegradedRunner(10), &WorkerPool::serial(), None);
        // Even ids (3 of them) are degraded and exhaust 2 retries each.
        assert_eq!(out.stats.retried, 6, "{:?}", out.stats);
        assert_eq!(out.stats.completed, 6);
        assert_eq!(out.stats.degraded_completions, 3);
        // Every job still ends Completed (degraded runs finish).
        assert!(out.records.iter().all(|r| matches!(r.outcome, JobOutcome::Completed { .. })));
        // Retried jobs complete later than their first attempt would:
        // arrival + service + backoff at minimum.
        for r in &out.records {
            if r.id % 2 == 0 {
                if let JobOutcome::Completed { complete_ms, .. } = r.outcome {
                    assert!(
                        complete_ms >= r.arrival_ms + 10 + policy.backoff_base_ms,
                        "job {} completed at {complete_ms} without visible backoff",
                        r.id
                    );
                }
            }
        }
    }

    #[test]
    fn deadline_misses_quarantine_a_worker() {
        let mut policy = lenient_health();
        policy.deadline_ms = 50; // every 100 ms job misses
        policy.failure_quarantine = 3;
        policy.quarantine_ms = 1_000;
        let server =
            JobServer::new(ServiceConfig::new(1, 20, Backpressure::Block).with_health(policy));
        let out = server.run(&trace(8, 10), &FixedRunner(100), &WorkerPool::serial(), None);
        assert!(out.stats.deadline_misses >= 8 - 2, "{:?}", out.stats);
        assert!(out.stats.quarantines >= 1, "{:?}", out.stats);
        // Quarantine pauses service, so the makespan stretches past the
        // no-policy 8·100 ms.
        assert!(out.makespan_ms > 800, "makespan {}", out.makespan_ms);
        // All jobs still complete once the worker is released.
        assert_eq!(out.stats.completed, 8);
    }

    #[test]
    fn failing_class_trips_the_breaker_and_fails_fast() {
        struct AlwaysFails;
        impl JobRunner for AlwaysFails {
            fn run(&self, _job: &JobSpec) -> Result<JobExecution, String> {
                Err("boom".to_string())
            }
        }
        let mut policy = lenient_health();
        policy.max_retries = 0;
        policy.breaker_window = 4;
        policy.breaker_threshold_pct = 75;
        policy.quarantine_ms = 10_000; // breaker stays open to the end
        let server =
            JobServer::new(ServiceConfig::new(2, 20, Backpressure::Block).with_health(policy));
        let out = server.run(&trace(16, 5), &AlwaysFails, &WorkerPool::serial(), None);
        assert!(out.stats.breaker_trips >= 1, "{:?}", out.stats);
        assert!(out.stats.breaker_fast_fails >= 1, "{:?}", out.stats);
        assert_eq!(out.stats.completed, 0);
        assert_eq!(out.stats.failed, 16);
        assert!(out.records.iter().any(
            |r| matches!(&r.outcome, JobOutcome::Failed { error } if error.contains("breaker"))
        ));
    }

    #[test]
    fn health_simulation_is_identical_across_pool_sizes() {
        let mut policy = lenient_health();
        policy.deadline_ms = 30;
        policy.failure_quarantine = 2;
        policy.breaker_window = 6;
        policy.breaker_threshold_pct = 60;
        let jobs = trace(30, 15);
        let server =
            JobServer::new(ServiceConfig::new(2, 3, Backpressure::ShedOldest).with_health(policy));
        let serial = server.run(&jobs, &DegradedRunner(40), &WorkerPool::serial(), None);
        for threads in [2, 8] {
            let par =
                server.run(&jobs, &DegradedRunner(40), &WorkerPool::with_threads(threads), None);
            assert_eq!(serial.records, par.records, "threads={threads}");
            assert_eq!(serial.stats, par.stats);
            assert_eq!(serial.worker_health, par.worker_health);
        }
    }

    /// Executions with the given service times, none degraded.
    fn served(service_ms: &[u64]) -> Vec<Result<JobExecution, String>> {
        let exec = |&service_ms| JobExecution {
            service_ms,
            circuit_height: 1,
            wires_routed: 1,
            degraded: false,
        };
        service_ms.iter().map(exec).map(Ok).collect()
    }

    /// `trace(n, 0)` with the given arrival times.
    fn arriving(arrival_ms: &[u64]) -> Vec<JobSpec> {
        let mut jobs = trace(arrival_ms.len(), 0);
        for (job, &at) in jobs.iter_mut().zip(arrival_ms) {
            job.arrival_ms = at;
        }
        jobs
    }

    /// (dispatch, complete) of a job that was served.
    fn span(record: &JobRecord) -> (u64, u64) {
        match record.outcome {
            JobOutcome::Completed { dispatch_ms, complete_ms, .. } => (dispatch_ms, complete_ms),
            ref other => panic!("job {} was not served: {other:?}", record.id),
        }
    }

    #[test]
    fn a_shuffled_trace_replays_like_the_sorted_one() {
        // Distinct arrival times, 2× overload, so every policy acts.
        let sorted = trace(24, 7);
        let times: Vec<u64> = (0..24).map(|i| 10 + i * 13 % 40).collect();
        // 5 is coprime to 24: slot k of the shuffled trace holds job 5k mod 24.
        let from = |k: usize| k * 5 % 24;
        let shuffled: Vec<JobSpec> = (0..24).map(|k| sorted[from(k)]).collect();
        let shuffled_times: Vec<u64> = (0..24).map(|k| times[from(k)]).collect();
        for policy in [Backpressure::Block, Backpressure::ShedOldest, Backpressure::Reject] {
            let server = JobServer::new(ServiceConfig::new(2, 3, policy));
            let (a_sink, b_sink) = (SharedSink::new(), SharedSink::new());
            let a = server.simulate(&sorted, &served(&times), Some(a_sink.clone()));
            let b = server.simulate(&shuffled, &served(&shuffled_times), Some(b_sink.clone()));
            assert!(a.stats.completed < 24 || policy == Backpressure::Block, "{policy:?} acted");
            for (k, record) in b.records.iter().enumerate() {
                assert_eq!(record, &a.records[from(k)], "{policy:?}: slot {k}");
            }
            assert_eq!((a.stats, a.makespan_ms), (b.stats, b.makespan_ms), "{policy:?}");
            let events = b_sink.snapshot_events();
            assert_eq!(a_sink.snapshot_events(), events, "{policy:?}");
            assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "clock ran backwards");
        }
    }

    #[test]
    fn a_completion_frees_capacity_before_an_arrival_of_its_ms_asks_for_it() {
        // One worker, one queue slot. Job 0 is served over [0, 10), job 1
        // holds the slot, job 2 arrives at 10. The completion goes first:
        // job 1 takes the worker with no further wait and job 2 finds the
        // slot free. Were the arrival first, job 2 would be rejected.
        let server = JobServer::new(ServiceConfig::new(1, 1, Backpressure::Reject));
        let out = server.simulate(&arriving(&[0, 1, 10]), &served(&[10, 5, 5]), None);
        assert_eq!(out.stats.rejected, 0, "{:?}", out.records);
        assert_eq!(span(&out.records[1]), (10, 15));
        assert_eq!(span(&out.records[2]), (15, 20));
        // And an arrival that finds the worker just freed does not wait.
        let out = server.simulate(&arriving(&[0, 10]), &served(&[10, 5]), None);
        assert_eq!(out.records[1].queue_wait_ms(), Some(0));
    }

    #[test]
    fn a_zero_length_quarantine_releases_after_the_completions_of_its_ms() {
        // Workers 1 and 2 both finish at 10; worker 1's run was degraded
        // and quarantines it for 0 ms. Its release is due at 10 as well,
        // but sorts after worker 2's completion, so the queued job 2 goes
        // to worker 2, not back to worker 1.
        let policy = HealthPolicy {
            max_retries: 0,
            failure_quarantine: 1,
            quarantine_ms: 0,
            ..lenient_health()
        };
        let server =
            JobServer::new(ServiceConfig::new(2, 4, Backpressure::Block).with_health(policy));
        let mut executions = served(&[10, 10, 10]);
        executions[0].as_mut().expect("served").degraded = true;
        let sink = SharedSink::new();
        let out = server.simulate(&arriving(&[0, 0, 1]), &executions, Some(sink.clone()));
        assert_eq!(out.stats.quarantines, 1);
        assert_eq!(span(&out.records[2]), (10, 20));
        let took_job_2 = sink.snapshot_events().into_iter().find_map(|e| match e.kind {
            EventKind::JobDispatched { job: 2, .. } => Some(e.node),
            _ => None,
        });
        assert_eq!(took_job_2, Some(2));
        assert_eq!(out.worker_health, vec![WorkerState::Healthy; 3], "released by the end");
    }

    #[test]
    fn a_release_returns_its_worker_before_a_retry_of_its_ms_queues() {
        // Job 0's degraded run on worker 1 ends at 5: it retries at `due`
        // and worker 1 sits out until `due` too. Worker 2 is busy, job 2
        // waits. The release goes first and takes job 2 out of the queue,
        // so the retry enqueues at depth 1, not 2.
        let due = 5 + 10 + crate::health::jitter(0, 1) % 10;
        let policy = HealthPolicy {
            max_retries: 1,
            backoff_base_ms: 10,
            failure_quarantine: 1,
            quarantine_ms: due - 5,
            ..lenient_health()
        };
        let server =
            JobServer::new(ServiceConfig::new(2, 4, Backpressure::Block).with_health(policy));
        let mut executions = served(&[5, 100, 50]);
        executions[0].as_mut().expect("served").degraded = true;
        let sink = SharedSink::new();
        let out = server.simulate(&arriving(&[0, 0, 6]), &executions, Some(sink.clone()));
        assert_eq!(out.stats.retried, 1);
        assert_eq!(span(&out.records[2]), (due, due + 50));
        let depths: Vec<u32> = sink
            .snapshot_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::JobEnqueued { job: 0, queue_depth } => Some(queue_depth),
                _ => None,
            })
            .collect();
        assert_eq!(depths, [1, 1], "first arrival, then the retry");
    }

    #[test]
    fn a_retry_due_at_an_arrival_s_ms_queues_ahead_of_it() {
        // Job 0's degraded first run ends at 5; its one retry is due at
        // `due`, exactly when job 1 arrives. The retry enters the queue
        // first and takes the idle worker; job 1 waits out its 5 ms.
        let policy = HealthPolicy { max_retries: 1, backoff_base_ms: 10, ..lenient_health() };
        let due = 5 + 10 + crate::health::jitter(0, 1) % 10;
        let server =
            JobServer::new(ServiceConfig::new(1, 4, Backpressure::Block).with_health(policy));
        let mut executions = served(&[5, 5]);
        executions[0].as_mut().expect("served").degraded = true;
        let out = server.simulate(&arriving(&[0, due]), &executions, None);
        assert_eq!(out.stats.retried, 1);
        assert_eq!(span(&out.records[0]), (due, due + 5));
        assert_eq!(span(&out.records[1]), (due + 5, due + 10));
    }

    #[test]
    fn hostile_configs_are_rejected_not_replayed() {
        let shape = |workers, queue_capacity| ServiceConfig {
            workers,
            queue_capacity,
            policy: Backpressure::Reject,
            health: None,
        };
        let err = |cfg: ServiceConfig| JobServer::try_new(cfg).err().expect("hostile config");
        assert!(err(shape(0, 4)).contains("worker"), "divides by zero in the reject hint");
        assert!(err(shape(usize::MAX, 4)).contains("workers"));
        assert!(
            err(shape(2, 0)).contains("queue_capacity"),
            "strands or sheds from an empty queue"
        );
        let no_window = HealthPolicy { breaker_window: 0, ..HealthPolicy::default() };
        assert!(err(shape(2, 4).with_health(no_window)).contains("breaker_window"));
        assert!(JobServer::try_new(shape(MAX_WORKERS, 1)).is_ok());
        // What validation lets through saturates instead of overflowing:
        // job 0 errors at the end of time and quarantines the one worker
        // past it, so job 1 is served over [MAX, MAX].
        let forever = HealthPolicy {
            failure_quarantine: 1,
            quarantine_ms: crate::health::MAX_SPAN_MS,
            ..lenient_health()
        };
        let server =
            JobServer::new(ServiceConfig::new(1, 4, Backpressure::Reject).with_health(forever));
        let executions = [Err("boom".into()), served(&[u64::MAX]).remove(0)];
        let out = server.simulate(&arriving(&[u64::MAX - 3, u64::MAX - 2]), &executions, None);
        assert_eq!(span(&out.records[1]), (u64::MAX, u64::MAX));
        assert_eq!(out.stats.busy_ms, u64::MAX, "1 ms + MAX ms, saturated");
    }

    #[test]
    #[should_panic(expected = "invalid service configuration")]
    fn new_panics_where_try_new_returns_the_error() {
        JobServer::new(ServiceConfig {
            workers: 0,
            ..ServiceConfig::new(1, 1, Backpressure::Block)
        });
    }
}
