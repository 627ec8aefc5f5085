//! Service health management: retry with exponential backoff, worker
//! quarantine, and a per-class circuit breaker.
//!
//! `Health` owns no queue, clock or sink: the replay in
//! [`server`](crate::server) tells it of every finished attempt, turns
//! the `Verdict` into stats, obs events and timed events, asks
//! `Health::open_breaker` at dispatch and calls `Health::release` when a
//! quarantine ends. The tests below script attempts without a server.

use std::collections::VecDeque;

use crate::runner::JobExecution;
use crate::workload::{JobClass, JobSpec};

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
    /// is judged (≥ 1).
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

/// The longest span (virtual ms) the obs timeline, stamped in `u64`
/// nanoseconds, can hold; policy durations beyond it are rejected.
pub(crate) const MAX_SPAN_MS: u64 = u64::MAX / 1_000_000;

impl HealthPolicy {
    /// Validates the policy: an empty breaker window would trip on every
    /// attempt (`0 ≥ pct · 0`), and a backoff or quarantine longer than
    /// the timeline can represent is a typo, not a policy.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.breaker_window == 0 {
            return Err("breaker_window must be at least 1 attempt".into());
        }
        for (name, ms) in
            [("quarantine_ms", self.quarantine_ms), ("backoff_base_ms", self.backoff_base_ms)]
        {
            if ms > MAX_SPAN_MS {
                return Err(format!("{name} {ms} exceeds the {MAX_SPAN_MS} ms timeline"));
            }
        }
        Ok(())
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
pub(crate) fn jitter(job: u32, attempt: u32) -> u64 {
    let mut z = (((job as u64) << 32) | attempt as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the policy decides about one finished attempt; the default,
/// "nothing to do", is every verdict when there is no policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// The class whose breaker this attempt tripped.
    pub breaker_tripped: Option<u32>,
    /// The job runs again: (which retry, 1-based; virtual ms it is due).
    pub retry: Option<(u32, u64)>,
    /// The run finished, but past the deadline.
    pub deadline_miss: bool,
    /// The worker sits out until this virtual ms.
    pub quarantine_until: Option<u64>,
}

/// Health-management state for one replay of `jobs`.
pub(crate) struct Health<'a> {
    /// `None` disables health management.
    policy: Option<HealthPolicy>,
    jobs: &'a [JobSpec],
    /// What the runner returned per job: every attempt at it ends so.
    executions: &'a [Result<JobExecution, String>],
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

impl<'a> Health<'a> {
    /// Fresh state for replaying `jobs` on `workers` workers.
    pub(crate) fn new(
        policy: Option<HealthPolicy>,
        jobs: &'a [JobSpec],
        executions: &'a [Result<JobExecution, String>],
        workers: usize,
    ) -> Self {
        let mut classes: Vec<JobClass> = Vec::new();
        let class_id = |j: &JobSpec| {
            let k = classes.iter().position(|c| *c == j.class).unwrap_or(classes.len());
            if k == classes.len() {
                classes.push(j.class);
            }
            k as u32
        };
        let class_of = jobs.iter().map(class_id).collect();
        Health {
            policy,
            jobs,
            executions,
            attempts: vec![0; jobs.len()],
            consec_bad: vec![0; workers + 1],
            state: vec![WorkerState::Healthy; workers + 1],
            class_of,
            window: vec![VecDeque::new(); classes.len()],
            open_until: vec![0; classes.len()],
        }
    }

    /// The class of job `job` if its breaker is open at `now`: the job
    /// fails fast instead of occupying a worker.
    pub(crate) fn open_breaker(&self, job: usize, now: u64) -> Option<u32> {
        let class = self.class_of[job];
        (now < self.open_until[class as usize]).then_some(class)
    }

    /// Judges one finished attempt, `job` leaving `worker` at `now` after
    /// `dur` ms: feeds the class breaker, grants a retry while the budget
    /// lasts, and counts the run against the worker.
    pub(crate) fn judge(&mut self, job: usize, worker: u32, now: u64, dur: u64) -> Verdict {
        let Some(policy) = self.policy else { return Verdict::default() };
        let execution = &self.executions[job];
        let bad = execution.as_ref().map_or(true, |exec| exec.degraded);
        let class = self.class_of[job];
        let breaker_tripped = self.feed_breaker(&policy, class, bad, now).then_some(class);
        let retry = (bad && self.attempts[job] < policy.max_retries).then(|| {
            self.attempts[job] += 1;
            let attempt = self.attempts[job];
            let base = policy.backoff_base_ms.max(1);
            let backoff = base.saturating_mul(1u64 << u64::from(attempt - 1).min(16));
            let delay = backoff.saturating_add(jitter(self.jobs[job].id, attempt) % base);
            (attempt, now.saturating_add(delay))
        });
        // A runner error is a bad run, never a slow one.
        let deadline_miss = execution.is_ok() && dur > policy.deadline_ms;
        let w = worker as usize;
        let mut quarantine_until = None;
        if !(bad || deadline_miss) {
            self.consec_bad[w] = 0;
            self.state[w] = WorkerState::Healthy;
        } else if self.consec_bad[w] + 1 >= policy.failure_quarantine {
            self.consec_bad[w] = 0;
            self.state[w] = WorkerState::Quarantined;
            quarantine_until = Some(now.saturating_add(policy.quarantine_ms));
        } else {
            self.consec_bad[w] += 1;
            self.state[w] = WorkerState::Degraded;
        }
        Verdict { breaker_tripped, retry, deadline_miss, quarantine_until }
    }

    /// Feeds one attempt outcome into `class`'s window; true when it trips the breaker.
    fn feed_breaker(&mut self, policy: &HealthPolicy, class: u32, bad: bool, now: u64) -> bool {
        let size = policy.breaker_window as usize;
        let w = &mut self.window[class as usize];
        w.push_back(bad);
        if w.len() > size {
            w.pop_front();
        }
        if w.len() < size {
            return false;
        }
        let bad_count = w.iter().filter(|&&b| b).count() as u64;
        let tripped = bad_count * 100
            >= u64::from(policy.breaker_threshold_pct) * u64::from(policy.breaker_window);
        if tripped {
            self.open_until[class as usize] = now.saturating_add(policy.quarantine_ms);
            w.clear();
        }
        tripped
    }

    /// A quarantine ended: `worker` rejoins the pool healthy.
    pub(crate) fn release(&mut self, worker: u32) {
        self.state[worker as usize] = WorkerState::Healthy;
    }

    /// Final state per worker (index 0 = frontend, always healthy).
    pub(crate) fn into_worker_states(self) -> Vec<WorkerState> {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::CircuitFamily;

    /// `n` jobs with ids `100..`, alternating between two classes.
    fn jobs(n: u32) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                id: 100 + i,
                arrival_ms: 0,
                class: JobClass::new(CircuitFamily::Tiny, "sequential", 1 + (i % 2) as usize),
                circuit_seed: 0,
            })
            .collect()
    }

    /// Thresholds nothing reaches; each test tightens the knob it studies.
    fn lenient() -> HealthPolicy {
        HealthPolicy {
            deadline_ms: 1_000_000,
            max_retries: 0,
            backoff_base_ms: 20,
            quarantine_ms: 200,
            failure_quarantine: 1_000,
            breaker_window: 1_000,
            breaker_threshold_pct: 100,
        }
    }

    type Execution = Result<JobExecution, String>;

    fn ran(degraded: bool) -> Execution {
        Ok(JobExecution { service_ms: 5, circuit_height: 1, wires_routed: 1, degraded })
    }

    /// Job `job` leaving worker 1 at `now` after 5 ms.
    fn finished(h: &mut Health, job: usize, now: u64) -> Verdict {
        h.judge(job, 1, now, 5)
    }

    #[test]
    fn breaker_window_fills_then_trips_then_clears() {
        let policy = HealthPolicy { breaker_window: 3, breaker_threshold_pct: 66, ..lenient() };
        // Even jobs are class 0, odd jobs class 1; only job 2 runs clean.
        let runs = [ran(true), ran(true), ran(false), ran(true), ran(true)];
        let jobs = jobs(5);
        let mut h = Health::new(Some(policy), &jobs, &runs, 1);
        assert_eq!(finished(&mut h, 0, 10).breaker_tripped, None);
        assert_eq!(finished(&mut h, 2, 20).breaker_tripped, None, "window not full");
        assert_eq!(finished(&mut h, 1, 25).breaker_tripped, None, "another class's window");
        assert_eq!(finished(&mut h, 4, 30).breaker_tripped, Some(0), "2 of 3 bad is 66 %");
        assert_eq!(h.open_breaker(0, 30), Some(0));
        assert_eq!(h.open_breaker(2, 30 + policy.quarantine_ms - 1), Some(0));
        assert_eq!(h.open_breaker(2, 30 + policy.quarantine_ms), None, "closes by itself");
        assert_eq!(h.open_breaker(1, 30), None, "class 1 never tripped");
        // The trip emptied the window: two more bad runs do not fill it.
        assert_eq!(finished(&mut h, 0, 40).breaker_tripped, None);
        assert_eq!(finished(&mut h, 0, 50).breaker_tripped, None);
        assert_eq!(finished(&mut h, 0, 60).breaker_tripped, Some(0));
    }

    #[test]
    fn retries_back_off_exponentially_and_stop_at_the_budget() {
        let policy = HealthPolicy { max_retries: 3, backoff_base_ms: 20, ..lenient() };
        let (jobs, runs) = (jobs(2), [ran(false), ran(true)]);
        let mut h = Health::new(Some(policy), &jobs, &runs, 1);
        for k in 1..=3u32 {
            let now = 1_000 * u64::from(k);
            let due = now + 20 * (1 << (k - 1)) + jitter(101, k) % 20;
            assert_eq!(finished(&mut h, 1, now).retry, Some((k, due)), "retry {k}");
        }
        assert_eq!(finished(&mut h, 1, 9_000).retry, None, "budget spent");
        assert_eq!(finished(&mut h, 0, 9_000).retry, None, "good runs never retry");
        // A zero base still waits its 1 ms floor.
        let zero_base = HealthPolicy { backoff_base_ms: 0, ..policy };
        let mut h = Health::new(Some(zero_base), &jobs[..1], &runs[1..], 1);
        assert_eq!(finished(&mut h, 0, 7).retry, Some((1, 8)));
        assert_eq!(finished(&mut h, 0, 8).retry, Some((2, 10)));
    }

    #[test]
    fn consecutive_bad_runs_quarantine_and_one_good_run_resets_the_count() {
        let policy = HealthPolicy { failure_quarantine: 3, ..lenient() };
        let (jobs, runs) = (jobs(2), [ran(true), ran(false)]);
        let mut h = Health::new(Some(policy), &jobs, &runs, 2);
        for now in [10, 20] {
            assert_eq!(finished(&mut h, 0, now).quarantine_until, None);
        }
        assert_eq!(h.state[1], WorkerState::Degraded);
        assert_eq!(finished(&mut h, 1, 30).quarantine_until, None);
        assert_eq!(h.state[1], WorkerState::Healthy, "a good run resets the count");
        for now in [40, 50] {
            assert_eq!(finished(&mut h, 0, now).quarantine_until, None);
        }
        let third = finished(&mut h, 0, 60);
        assert_eq!(third.quarantine_until, Some(60 + policy.quarantine_ms));
        assert_eq!(h.state, [WorkerState::Healthy, WorkerState::Quarantined, WorkerState::Healthy]);
        h.release(1);
        assert_eq!(h.into_worker_states(), vec![WorkerState::Healthy; 3]);
    }

    #[test]
    fn a_runner_error_is_bad_but_never_a_deadline_miss() {
        let policy = HealthPolicy { deadline_ms: 4, max_retries: 1, ..lenient() };
        let (jobs, runs) = (jobs(2), [Err("boom".into()), ran(false)]);
        let mut h = Health::new(Some(policy), &jobs, &runs, 1);
        // Both attempts held the worker 5 ms, past the 4 ms deadline.
        let errored = finished(&mut h, 0, 10);
        assert!(!errored.deadline_miss);
        assert!(errored.retry.is_some(), "an error is a bad run: it retries");
        let slow = finished(&mut h, 1, 20);
        assert!(slow.deadline_miss);
        assert_eq!(slow.retry, None, "a slow clean run is final");
        assert_eq!(h.state[1], WorkerState::Degraded, "but it counts against the worker");
    }

    #[test]
    fn validation_rejects_policies_the_replay_cannot_honour() {
        assert_eq!(HealthPolicy::default().validate(), Ok(()));
        assert_eq!(lenient().validate(), Ok(()));
        let err = |p: HealthPolicy| p.validate().expect_err("hostile policy");
        assert!(err(HealthPolicy { breaker_window: 0, ..lenient() }).contains("breaker_window"));
        assert!(
            err(HealthPolicy { quarantine_ms: u64::MAX, ..lenient() }).contains("quarantine_ms")
        );
        let long = HealthPolicy { backoff_base_ms: MAX_SPAN_MS + 1, ..lenient() };
        assert!(err(long).contains("backoff_base_ms"));
        // Everything else saturates instead of overflowing.
        let edge = HealthPolicy {
            deadline_ms: u64::MAX,
            max_retries: u32::MAX,
            backoff_base_ms: MAX_SPAN_MS,
            quarantine_ms: MAX_SPAN_MS,
            failure_quarantine: 0,
            breaker_window: 1,
            breaker_threshold_pct: u32::MAX,
        };
        assert_eq!(edge.validate(), Ok(()));
        let (jobs, runs) = (jobs(1), [ran(true)]);
        let mut h = Health::new(Some(edge), &jobs, &runs, 1);
        let v = finished(&mut h, 0, u64::MAX - 1);
        assert_eq!(v.retry, Some((1, u64::MAX)));
        assert_eq!(v.quarantine_until, Some(u64::MAX));
    }

    #[test]
    fn retry_jitter_is_deterministic_and_spread() {
        let a = jitter(1, 1);
        assert_eq!(a, jitter(1, 1));
        assert_ne!(jitter(1, 1), jitter(1, 2));
        assert_ne!(jitter(1, 1), jitter(2, 1));
    }
}
