//! The routing job server: bounded admission queue, backpressure, and a
//! deterministic virtual-time dispatch simulation.
//!
//! A run has two phases. **Execute**: every job in the arrival trace is
//! routed on the scoped-thread [`crate::pool::WorkerPool`]
//! through a [`JobRunner`], producing a deterministic virtual service
//! time per job (real threads, virtual prices — see
//! [`runner`](crate::runner)). **Simulate**: a sequential discrete-event
//! replay walks the arrival trace on the virtual ms clock, admits jobs
//! through the bounded queue under the configured [`Backpressure`]
//! policy, dispatches them to `workers` simulated servers, and stamps
//! every job's enqueue/dispatch/complete times. Because phase 2 depends
//! only on the trace and the virtual service times, the whole outcome is
//! byte-identical across runs, hosts, and pool sizes.
//!
//! Jobs that end up shed or rejected were still routed in phase 1 —
//! speculative work the report's `wasted` ratio makes visible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use locus_obs::{Event, EventKind, Histogram, SharedSink, Sink};

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
    /// Simulated routing servers draining the queue.
    pub workers: usize,
    /// Waiting-job bound of the admission queue (≥ 1).
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub policy: Backpressure,
    /// Health management (retries, quarantine, circuit breaker); `None`
    /// leaves the legacy dispatch byte-identical.
    pub health: Option<HealthPolicy>,
}

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
}

/// Thresholds for service health management. Everything is measured on
/// the virtual clock, so enabling a policy keeps replay byte-identical
/// across hosts and pool sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthPolicy {
    /// A completed job slower than this (virtual ms) counts as a
    /// deadline miss against the worker that served it.
    pub deadline_ms: u64,
    /// Retry budget per job for failed or degraded runs.
    pub max_retries: u32,
    /// Base of the exponential retry backoff: retry `k` waits
    /// `base · 2^(k−1)` plus a deterministic jitter in `[0, base)`.
    pub backoff_base_ms: u64,
    /// Virtual ms a quarantined worker sits out (also how long a tripped
    /// breaker stays open).
    pub quarantine_ms: u64,
    /// Consecutive bad jobs (failed, degraded, or deadline-missed) that
    /// quarantine a worker.
    pub failure_quarantine: u32,
    /// Rolling attempt window over which each job class's failure rate
    /// is judged.
    pub breaker_window: u32,
    /// Percentage of bad attempts in a full window that trips the
    /// class's circuit breaker.
    pub breaker_threshold_pct: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            deadline_ms: 1_000,
            max_retries: 2,
            backoff_base_ms: 50,
            quarantine_ms: 500,
            failure_quarantine: 3,
            breaker_window: 8,
            breaker_threshold_pct: 50,
        }
    }
}

/// A worker's health as the policy sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WorkerState {
    /// No recent bad jobs.
    #[default]
    Healthy,
    /// At least one recent bad job; still serving.
    Degraded,
    /// Sitting out a quarantine window; receives no work.
    Quarantined,
}

/// Deterministic jitter for retry backoff: a splitmix64-style hash of
/// (job id, attempt), so the schedule reproduces on any host.
fn jitter(job: u32, attempt: u32) -> u64 {
    let mut z = (((job as u64) << 32) | attempt as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mutable health-management state for one simulate() pass.
struct HealthRt {
    policy: HealthPolicy,
    /// Retry attempts used per job (0 = first run only).
    attempts: Vec<u32>,
    /// Consecutive bad jobs per worker (index 0 = frontend, unused).
    consec_bad: Vec<u32>,
    /// Current state per worker (index 0 = frontend, unused).
    state: Vec<WorkerState>,
    /// Job index → class id (dense, discovered in trace order).
    class_of: Vec<u32>,
    /// Rolling attempt-outcome window per class (`true` = bad).
    window: Vec<VecDeque<bool>>,
    /// Virtual ms until which each class's breaker stays open.
    open_until: Vec<u64>,
}

impl HealthRt {
    /// True when `class`'s breaker is open at `now`.
    fn breaker_open(&self, class: u32, now: u64) -> bool {
        now < self.open_until[class as usize]
    }

    /// Feeds one attempt outcome into `class`'s window; returns true
    /// when this attempt trips the breaker.
    fn feed_breaker(&mut self, class: u32, bad: bool, now: u64) -> bool {
        let w = &mut self.window[class as usize];
        w.push_back(bad);
        if w.len() > self.policy.breaker_window as usize {
            w.pop_front();
        }
        if w.len() < self.policy.breaker_window as usize {
            return false;
        }
        let bad_count = w.iter().filter(|&&b| b).count() as u32;
        if bad_count * 100 >= self.policy.breaker_threshold_pct * self.policy.breaker_window {
            self.open_until[class as usize] = now + self.policy.quarantine_ms;
            self.window[class as usize].clear();
            true
        } else {
            false
        }
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

/// Fallback mean service estimate (virtual ms) for retry hints before
/// any job has been dispatched.
const RETRY_BOOTSTRAP_MS: u64 = 10;

impl JobServer {
    /// A server with the given shape.
    pub fn new(cfg: ServiceConfig) -> Self {
        JobServer { cfg }
    }

    /// Runs the full trace: executes every job on `pool` via `runner`,
    /// then replays admission and dispatch on the virtual clock,
    /// emitting service events into `sink` when given.
    ///
    /// `jobs` must be sorted by `arrival_ms` (as
    /// [`workload::generate`](crate::workload::generate) produces them).
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
    /// executions. Exposed so tests can drive the policies with
    /// hand-built service times.
    pub fn simulate(
        &self,
        jobs: &[JobSpec],
        executions: &[Result<JobExecution, String>],
        sink: Option<SharedSink>,
    ) -> ServiceOutcome {
        assert_eq!(jobs.len(), executions.len(), "one execution per job");
        let mut sink = sink.map(|s| Box::new(s) as Box<dyn Sink>);
        // Virtual ms → event timestamp ns.
        let mut emit = |at_ms: u64, node: u32, kind: EventKind| {
            if let Some(s) = sink.as_mut() {
                s.record(Event { at_ns: at_ms.saturating_mul(1_000_000), node, kind });
            }
        };
        // Node 0 is the admission frontend; workers are nodes 1..=W.
        const FRONTEND: u32 = 0;

        let mut stats = ServiceStats { submitted: jobs.len() as u64, ..ServiceStats::default() };
        let mut records: Vec<Option<JobRecord>> = vec![None; jobs.len()];
        let mut queue_wait = Histogram::default();
        let mut service = Histogram::default();

        // Simulation state.
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut vestibule: VecDeque<usize> = VecDeque::new();
        let mut free_workers: BinaryHeap<Reverse<u32>> =
            (1..=self.cfg.workers as u32).map(Reverse).collect();
        // (complete_ms, worker, job index); Reverse for a min-heap, with
        // worker/job ids as deterministic tie-breaks.
        let mut completions: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::new();
        // (retry_at_ms, job index): failed/degraded jobs waiting out
        // their backoff before re-entering the queue.
        let mut retries: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        // (release_at_ms, worker): quarantined workers waiting to
        // rejoin the free pool.
        let mut releases: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let mut makespan_ms = 0u64;
        let mut dispatched_service_sum = 0u64;

        // Health-management state; `None` leaves every legacy code path
        // untouched (the heaps above stay empty).
        let mut health_rt: Option<HealthRt> = self.cfg.health.map(|policy| {
            let mut classes: Vec<crate::workload::JobClass> = Vec::new();
            let class_of = jobs
                .iter()
                .map(|j| match classes.iter().position(|c| *c == j.class) {
                    Some(k) => k as u32,
                    None => {
                        classes.push(j.class);
                        (classes.len() - 1) as u32
                    }
                })
                .collect();
            HealthRt {
                policy,
                attempts: vec![0; jobs.len()],
                consec_bad: vec![0; self.cfg.workers + 1],
                state: vec![WorkerState::Healthy; self.cfg.workers + 1],
                class_of,
                window: vec![VecDeque::new(); classes.len()],
                open_until: vec![0; classes.len()],
            }
        });

        // Service time of job `i`; runner failures are recorded as Failed
        // and occupy a worker for 1 virtual ms (the error path is cheap
        // but not free).
        let service_ms = |i: usize| match &executions[i] {
            Ok(exec) => exec.service_ms.max(1),
            Err(_) => 1,
        };

        let mut idx = 0usize;
        loop {
            // Pick the earliest pending event. Ties are resolved by a
            // fixed priority — completion, quarantine release, retry,
            // arrival — so freed capacity is visible to whatever shares
            // its timestamp and replay stays deterministic.
            let next_arrival = jobs.get(idx).map(|j| j.arrival_ms);
            let next_completion = completions.peek().map(|Reverse((t, _, _))| *t);
            let next_release = releases.peek().map(|Reverse((t, _))| *t);
            let next_retry = retries.peek().map(|Reverse((t, _))| *t);
            let Some(best) = [next_completion, next_release, next_retry, next_arrival]
                .into_iter()
                .flatten()
                .min()
            else {
                break;
            };

            if next_completion == Some(best) {
                let Reverse((now, worker, job_i)) =
                    completions.pop().expect("peeked completion exists");
                let dispatch_ms = match &records[job_i] {
                    Some(JobRecord {
                        outcome: JobOutcome::Completed { dispatch_ms, .. }, ..
                    }) => *dispatch_ms,
                    _ => unreachable!("completion for undisp. job"),
                };
                let dur = now - dispatch_ms;
                stats.busy_ms += dur;
                makespan_ms = makespan_ms.max(now);

                // Health bookkeeping: classify the attempt, feed the
                // class breaker, maybe schedule a retry, maybe
                // quarantine the worker.
                let bad_run = match &executions[job_i] {
                    Ok(exec) => exec.degraded,
                    Err(_) => true,
                };
                let mut retried = false;
                let mut quarantined = false;
                if let Some(rt) = health_rt.as_mut() {
                    let class = rt.class_of[job_i];
                    if rt.feed_breaker(class, bad_run, now) {
                        stats.breaker_trips += 1;
                        emit(now, FRONTEND, EventKind::BreakerTripped { class });
                    }
                    if bad_run && rt.attempts[job_i] < rt.policy.max_retries {
                        rt.attempts[job_i] += 1;
                        let attempt = rt.attempts[job_i];
                        let base = rt.policy.backoff_base_ms.max(1);
                        let backoff = base.saturating_mul(1u64 << u64::from(attempt - 1).min(16));
                        let delay = backoff + jitter(jobs[job_i].id, attempt) % base;
                        retries.push(Reverse((now + delay, job_i)));
                        stats.retried += 1;
                        emit(now, worker, EventKind::JobRetried { job: jobs[job_i].id, attempt });
                        retried = true;
                    }
                    let deadline_miss = executions[job_i].is_ok() && dur > rt.policy.deadline_ms;
                    if deadline_miss {
                        stats.deadline_misses += 1;
                    }
                    let w = worker as usize;
                    if bad_run || deadline_miss {
                        rt.consec_bad[w] += 1;
                        if rt.consec_bad[w] >= rt.policy.failure_quarantine {
                            rt.state[w] = WorkerState::Quarantined;
                            rt.consec_bad[w] = 0;
                            stats.quarantines += 1;
                            releases.push(Reverse((now + rt.policy.quarantine_ms, worker)));
                            quarantined = true;
                        } else {
                            rt.state[w] = WorkerState::Degraded;
                        }
                    } else {
                        rt.consec_bad[w] = 0;
                        rt.state[w] = WorkerState::Healthy;
                    }
                }
                if !retried {
                    match &executions[job_i] {
                        Ok(exec) => {
                            stats.completed += 1;
                            if exec.degraded {
                                stats.degraded_completions += 1;
                            }
                            service.record(dur);
                            emit(
                                now,
                                worker,
                                EventKind::JobCompleted { job: jobs[job_i].id, service_ms: dur },
                            );
                        }
                        Err(e) => {
                            stats.failed += 1;
                            records[job_i] = Some(JobRecord {
                                id: jobs[job_i].id,
                                arrival_ms: jobs[job_i].arrival_ms,
                                outcome: JobOutcome::Failed { error: e.clone() },
                            });
                        }
                    }
                }
                if !quarantined {
                    free_workers.push(Reverse(worker));
                }
                // Dispatch frees queue slots, freed slots let blocked
                // arrivals in, and those may dispatch in turn — iterate
                // until neither step makes progress.
                loop {
                    self.drain(
                        now,
                        jobs,
                        &service_ms,
                        &mut queue,
                        &mut free_workers,
                        &mut completions,
                        &mut records,
                        &mut stats,
                        &mut queue_wait,
                        &mut dispatched_service_sum,
                        &mut health_rt,
                        &mut emit,
                    );
                    if queue.len() < self.cfg.queue_capacity && !vestibule.is_empty() {
                        let waiting = vestibule.pop_front().expect("vestibule non-empty");
                        self.admit(waiting, now, jobs, &mut queue, &mut stats, &mut emit);
                    } else {
                        break;
                    }
                }
                continue;
            }

            if next_release == Some(best) {
                // A quarantined worker rejoins the free pool, healthy.
                let Reverse((now, worker)) = releases.pop().expect("peeked release exists");
                if let Some(rt) = health_rt.as_mut() {
                    rt.state[worker as usize] = WorkerState::Healthy;
                }
                free_workers.push(Reverse(worker));
                loop {
                    self.drain(
                        now,
                        jobs,
                        &service_ms,
                        &mut queue,
                        &mut free_workers,
                        &mut completions,
                        &mut records,
                        &mut stats,
                        &mut queue_wait,
                        &mut dispatched_service_sum,
                        &mut health_rt,
                        &mut emit,
                    );
                    if queue.len() < self.cfg.queue_capacity && !vestibule.is_empty() {
                        let waiting = vestibule.pop_front().expect("vestibule non-empty");
                        self.admit(waiting, now, jobs, &mut queue, &mut stats, &mut emit);
                    } else {
                        break;
                    }
                }
                continue;
            }

            if next_retry == Some(best) {
                // A backed-off job re-enters the queue. Retries bypass
                // admission control: the breaker, not the queue bound,
                // is the overload valve for repeated failures.
                let Reverse((now, job_i)) = retries.pop().expect("peeked retry exists");
                self.admit(job_i, now, jobs, &mut queue, &mut stats, &mut emit);
                self.drain(
                    now,
                    jobs,
                    &service_ms,
                    &mut queue,
                    &mut free_workers,
                    &mut completions,
                    &mut records,
                    &mut stats,
                    &mut queue_wait,
                    &mut dispatched_service_sum,
                    &mut health_rt,
                    &mut emit,
                );
                continue;
            }

            // Arrival.
            let now = jobs[idx].arrival_ms;
            let job_i = idx;
            idx += 1;
            if queue.len() < self.cfg.queue_capacity {
                self.admit(job_i, now, jobs, &mut queue, &mut stats, &mut emit);
            } else {
                match self.cfg.policy {
                    Backpressure::Block => {
                        vestibule.push_back(job_i);
                    }
                    Backpressure::ShedOldest => {
                        let victim = queue.pop_front().expect("full queue has a head");
                        stats.shed += 1;
                        records[victim] = Some(JobRecord {
                            id: jobs[victim].id,
                            arrival_ms: jobs[victim].arrival_ms,
                            outcome: JobOutcome::Shed { at_ms: now },
                        });
                        emit(now, FRONTEND, EventKind::JobShed { job: jobs[victim].id });
                        self.admit(job_i, now, jobs, &mut queue, &mut stats, &mut emit);
                    }
                    Backpressure::Reject => {
                        // Estimate the backlog drain time from the mean
                        // dispatched service so far.
                        let mean = dispatched_service_sum
                            .checked_div(stats.dispatched)
                            .map_or(RETRY_BOOTSTRAP_MS, |m| m.max(1));
                        let backlog = queue.len() as u64 + self.cfg.workers as u64;
                        let hint = (backlog * mean / self.cfg.workers as u64).max(1);
                        stats.rejected += 1;
                        records[job_i] = Some(JobRecord {
                            id: jobs[job_i].id,
                            arrival_ms: now,
                            outcome: JobOutcome::Rejected { retry_hint_ms: hint },
                        });
                        emit(
                            now,
                            FRONTEND,
                            EventKind::JobRejected { job: jobs[job_i].id, retry_ms: hint },
                        );
                    }
                }
            }
            self.drain(
                now,
                jobs,
                &service_ms,
                &mut queue,
                &mut free_workers,
                &mut completions,
                &mut records,
                &mut stats,
                &mut queue_wait,
                &mut dispatched_service_sum,
                &mut health_rt,
                &mut emit,
            );
        }

        let records: Vec<JobRecord> =
            records.into_iter().map(|r| r.expect("every job reaches a terminal outcome")).collect();
        let offered = (self.cfg.workers as u64 * makespan_ms).max(1);
        let utilization = stats.busy_ms as f64 / offered as f64;
        let throughput_jps = if makespan_ms == 0 {
            0.0
        } else {
            stats.completed as f64 / (makespan_ms as f64 / 1_000.0)
        };
        let worker_health = match &health_rt {
            Some(rt) => rt.state.clone(),
            None => vec![WorkerState::Healthy; self.cfg.workers + 1],
        };
        ServiceOutcome {
            records,
            stats,
            queue_wait,
            service,
            makespan_ms,
            utilization,
            throughput_jps,
            worker_health,
        }
    }

    /// Puts `job_i` into the queue at `now`, counting and emitting.
    fn admit(
        &self,
        job_i: usize,
        now: u64,
        jobs: &[JobSpec],
        queue: &mut VecDeque<usize>,
        stats: &mut ServiceStats,
        emit: &mut impl FnMut(u64, u32, EventKind),
    ) {
        queue.push_back(job_i);
        stats.enqueued += 1;
        emit(
            now,
            0,
            EventKind::JobEnqueued { job: jobs[job_i].id, queue_depth: queue.len() as u32 },
        );
    }

    /// Hands queued jobs to free workers, lowest worker id first.
    #[allow(clippy::too_many_arguments)]
    fn drain(
        &self,
        now: u64,
        jobs: &[JobSpec],
        service_ms: &impl Fn(usize) -> u64,
        queue: &mut VecDeque<usize>,
        free_workers: &mut BinaryHeap<Reverse<u32>>,
        completions: &mut BinaryHeap<Reverse<(u64, u32, usize)>>,
        records: &mut [Option<JobRecord>],
        stats: &mut ServiceStats,
        queue_wait: &mut Histogram,
        dispatched_service_sum: &mut u64,
        health_rt: &mut Option<HealthRt>,
        emit: &mut impl FnMut(u64, u32, EventKind),
    ) {
        while !queue.is_empty() && !free_workers.is_empty() {
            let job_i = queue.pop_front().expect("queue non-empty");
            // A job whose class breaker is open fails fast without
            // occupying a worker.
            if let Some(rt) = health_rt.as_mut() {
                let class = rt.class_of[job_i];
                if rt.breaker_open(class, now) {
                    stats.failed += 1;
                    stats.breaker_fast_fails += 1;
                    records[job_i] = Some(JobRecord {
                        id: jobs[job_i].id,
                        arrival_ms: jobs[job_i].arrival_ms,
                        outcome: JobOutcome::Failed {
                            error: format!("circuit breaker open for class {class}"),
                        },
                    });
                    continue;
                }
            }
            let Reverse(worker) = free_workers.pop().expect("worker available");
            let waited = now - jobs[job_i].arrival_ms;
            let dur = service_ms(job_i);
            stats.dispatched += 1;
            *dispatched_service_sum += dur;
            queue_wait.record(waited);
            records[job_i] = Some(JobRecord {
                id: jobs[job_i].id,
                arrival_ms: jobs[job_i].arrival_ms,
                outcome: JobOutcome::Completed {
                    dispatch_ms: now,
                    complete_ms: now + dur,
                    service_ms: dur,
                },
            });
            emit(now, worker, EventKind::JobDispatched { job: jobs[job_i].id, queued_ms: waited });
            completions.push(Reverse((now + dur, worker, job_i)));
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

    #[test]
    fn retry_jitter_is_deterministic_and_spread() {
        let a = jitter(1, 1);
        assert_eq!(a, jitter(1, 1));
        assert_ne!(jitter(1, 1), jitter(1, 2));
        assert_ne!(jitter(1, 1), jitter(2, 1));
    }
}
