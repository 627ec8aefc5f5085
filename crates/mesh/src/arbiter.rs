//! Deterministic service-queue arbitration with optional criticality-aware
//! priority — the latency/contention pricing layer the pluggable memory
//! backends (`locus-coherence`) charge their messages through.
//!
//! The mesh [`Kernel`](crate::kernel::Kernel) models wormhole channel
//! blocking for the message-passing router; the memory-system backends
//! need a different, simpler resource model: a shared *service point* (the
//! snooping bus, a directory home node, an LLC home tile) that serves one
//! request at a time. Backends log every request they price —
//! `(resource, proc, arrival, service time, criticality)` — into an
//! [`Arbiter`] while replaying a trace, then [`Arbiter::resolve`] replays
//! the request log under a [`ServicePolicy`]:
//!
//! * [`ServicePolicy::Fifo`] — requests are granted in arrival order (the
//!   classic bus arbiter);
//! * [`ServicePolicy::CriticalFirst`] — at every grant instant, queued
//!   **critical** requests (rip-up/commit stores that gate a route
//!   decision) are serviced before queued background requests
//!   (speculative candidate-sweep loads), in the spirit of
//!   criticality-aware memory scheduling (arXiv:1606.05933).
//!
//! Resolving is deterministic: the same log and policy always produce the
//! same grant schedule, and both policies can be resolved from one log so
//! a study can report the FIFO-vs-priority delta on identical traffic.

/// How queued requests are granted the service point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServicePolicy {
    /// Grant strictly in arrival order.
    Fifo,
    /// Grant queued critical requests first (FIFO within each class).
    CriticalFirst,
}

/// One priced request for a service point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceRequest {
    /// The contended resource (bus = 0, or a home node/tile id).
    pub resource: u32,
    /// Requesting processor (indexes per-proc wait accounting).
    pub proc: u32,
    /// When the request reaches the service point (ns).
    pub arrive_ns: u64,
    /// How long the service point is busy with it (ns).
    pub service_ns: u64,
    /// Whether the requester is blocked on the result (rip-up/commit
    /// stores) rather than streaming speculative reads.
    pub critical: bool,
}

/// Wait accounting for one request class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Requests granted.
    pub requests: u64,
    /// Total queueing delay (grant − arrival) across them (ns).
    pub total_wait_ns: u64,
    /// Largest single queueing delay (ns).
    pub max_wait_ns: u64,
}

impl WaitStats {
    fn record(&mut self, wait_ns: u64) {
        self.requests += 1;
        self.total_wait_ns = self.total_wait_ns.saturating_add(wait_ns);
        self.max_wait_ns = self.max_wait_ns.max(wait_ns);
    }

    /// Mean queueing delay in ns (0 when no requests).
    pub fn mean_wait_ns(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_wait_ns as f64 / self.requests as f64
        }
    }
}

/// The grant schedule statistics of one [`Arbiter::resolve`] run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResolvedContention {
    /// Waits of requests flagged critical.
    pub critical: WaitStats,
    /// Waits of background requests.
    pub background: WaitStats,
    /// Total queueing delay charged to each processor (ns).
    pub per_proc_wait_ns: Vec<u64>,
    /// Total busy time across all service points (ns).
    pub busy_ns: u64,
    /// Completion time of the last grant (ns).
    pub makespan_ns: u64,
}

impl ResolvedContention {
    /// Waits over both classes combined.
    pub fn all(&self) -> WaitStats {
        WaitStats {
            requests: self.critical.requests + self.background.requests,
            total_wait_ns: self
                .critical
                .total_wait_ns
                .saturating_add(self.background.total_wait_ns),
            max_wait_ns: self.critical.max_wait_ns.max(self.background.max_wait_ns),
        }
    }
}

/// A request log plus the machinery to replay it under a policy; see
/// [module docs](self).
///
/// Requests are bucketed by resource as they are logged, so a replay
/// walks each service point's log once and costs time linear in the log.
#[derive(Clone, Debug, Default)]
pub struct Arbiter {
    /// One log per resource seen, ordered by resource id. A log is in
    /// push order until a resolve stable-sorts it by arrival.
    logs: Vec<(u32, Vec<ServiceRequest>)>,
    /// Largest requesting processor id + 1.
    n_procs: usize,
}

impl Arbiter {
    /// Creates an empty request log.
    pub fn new() -> Self {
        Arbiter::default()
    }

    /// Logs one request.
    #[inline]
    pub fn push(&mut self, req: ServiceRequest) {
        let slot = match self.logs.binary_search_by_key(&req.resource, |&(resource, _)| resource) {
            Ok(slot) => slot,
            Err(slot) => {
                self.logs.insert(slot, (req.resource, Vec::new()));
                slot
            }
        };
        self.logs[slot].1.push(req);
        self.n_procs = self.n_procs.max(req.proc as usize + 1);
    }

    /// Replays the log under `policy` and returns the wait accounting.
    ///
    /// Each resource serves one request at a time. Whenever the resource
    /// frees up (or sits idle until the next arrival), the policy picks
    /// the next queued request; ties keep log order, so resolution is
    /// deterministic regardless of equal timestamps.
    ///
    /// Each resource's log is stable-sorted by arrival first. The backends
    /// replay time-ordered traces, so log order is arrival order up to
    /// flight-time skew, and a second resolve, under either policy, finds
    /// the logs sorted already: that costs the sort one pass.
    pub fn resolve(&mut self, policy: ServicePolicy) -> ResolvedContention {
        let mut out = ResolvedContention {
            per_proc_wait_ns: vec![0; self.n_procs],
            ..ResolvedContention::default()
        };
        for (_, log) in &mut self.logs {
            log.sort_by_key(|r| r.arrive_ns);
            serve(log, policy, &mut out);
        }
        out
    }
}

/// The first request at or after `from` of the given class, or
/// `log.len()`.
fn next_of_class(log: &[ServiceRequest], from: usize, critical: bool) -> usize {
    log[from..].iter().position(|r| r.critical == critical).map_or(log.len(), |i| from + i)
}

/// Serves one resource's arrival-sorted log and adds its waits to `out`.
///
/// The service queue is two FIFO queues, critical and background. Both
/// are admitted in arrival order, so each is the run of its class in
/// `log` from a head cursor up to the last arrival at or before `now`,
/// and the whole queue's front is the smaller cursor.
fn serve(log: &[ServiceRequest], policy: ServicePolicy, out: &mut ResolvedContention) {
    let mut critical = next_of_class(log, 0, true);
    let mut background = next_of_class(log, 0, false);
    let mut now = 0u64; // resource free at `now`
    loop {
        let front = critical.min(background);
        if front == log.len() {
            break;
        }
        // An empty queue idles the resource until the next arrival; with
        // a request queued, that request arrived by `now` already.
        now = now.max(log[front].arrive_ns);
        let critical_queued = critical < log.len() && log[critical].arrive_ns <= now;
        let pick = match policy {
            ServicePolicy::CriticalFirst if critical_queued => critical,
            _ => front,
        };
        if pick == critical {
            critical = next_of_class(log, pick + 1, true);
        } else {
            background = next_of_class(log, pick + 1, false);
        }
        let r = &log[pick];
        let wait = now - r.arrive_ns;
        if r.critical {
            out.critical.record(wait);
        } else {
            out.background.record(wait);
        }
        out.per_proc_wait_ns[r.proc as usize] =
            out.per_proc_wait_ns[r.proc as usize].saturating_add(wait);
        out.busy_ns = out.busy_ns.saturating_add(r.service_ns);
        now += r.service_ns;
        out.makespan_ns = out.makespan_ns.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The arbiter this module had before requests were bucketed, kept as
    /// the oracle: it regroups the flat log by linear search, sorts indices
    /// and serves from the front of a `Vec`, quadratic in a backlog.
    fn reference_resolve(requests: &[ServiceRequest], policy: ServicePolicy) -> ResolvedContention {
        let n_procs = requests.iter().map(|r| r.proc as usize + 1).max().unwrap_or(0);
        let mut out = ResolvedContention {
            per_proc_wait_ns: vec![0; n_procs],
            ..ResolvedContention::default()
        };
        let mut by_resource: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            match by_resource.iter_mut().find(|(res, _)| *res == r.resource) {
                Some((_, v)) => v.push(i),
                None => by_resource.push((r.resource, vec![i])),
            }
        }
        for (_, idxs) in &mut by_resource {
            idxs.sort_by_key(|&i| requests[i].arrive_ns);
            let mut queue: Vec<usize> = Vec::new();
            let mut next = 0usize; // next un-admitted arrival
            let mut now = 0u64; // resource free at `now`
            while next < idxs.len() || !queue.is_empty() {
                if queue.is_empty() {
                    now = now.max(requests[idxs[next]].arrive_ns);
                }
                while next < idxs.len() && requests[idxs[next]].arrive_ns <= now {
                    queue.push(idxs[next]);
                    next += 1;
                }
                let pick_pos = match policy {
                    ServicePolicy::Fifo => 0,
                    ServicePolicy::CriticalFirst => {
                        queue.iter().position(|&i| requests[i].critical).unwrap_or(0)
                    }
                };
                let i = queue.remove(pick_pos);
                let r = &requests[i];
                let wait = now - r.arrive_ns;
                if r.critical {
                    out.critical.record(wait);
                } else {
                    out.background.record(wait);
                }
                out.per_proc_wait_ns[r.proc as usize] =
                    out.per_proc_wait_ns[r.proc as usize].saturating_add(wait);
                out.busy_ns = out.busy_ns.saturating_add(r.service_ns);
                now += r.service_ns;
                out.makespan_ns = out.makespan_ns.max(now);
            }
        }
        out
    }

    /// Random logs shaped like the backends': arrivals drift upward in log
    /// order with a skew that puts some out of order (the directory's
    /// flight time), many share a timestamp, services include zero, and
    /// `crit_mix` makes a log all-background, mixed or all-critical.
    fn arb_log() -> impl Strategy<Value = Vec<ServiceRequest>> {
        let request = (0u32..5, 0u32..6, 0u64..4, 0u64..40, 0u64..60, any::<bool>());
        (proptest::collection::vec(request, 0..120), 1u32..6, 0u32..3).prop_map(
            |(raw, n_resources, crit_mix)| {
                let mut base = 0u64;
                raw.into_iter()
                    .map(|(resource, proc, step, skew, service, coin)| {
                        base += step * 10;
                        ServiceRequest {
                            // Sparse ids, so that grouping cannot index by them.
                            resource: (resource % n_resources) * 1_000_003,
                            proc,
                            arrive_ns: base + skew,
                            service_ns: if service < 15 { 0 } else { service },
                            critical: match crit_mix {
                                0 => false,
                                1 => coin,
                                _ => true,
                            },
                        }
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bucketed_arbiter_matches_the_quadratic_reference(log in arb_log()) {
            let mut a = Arbiter::new();
            for &r in &log {
                a.push(r);
            }
            // Critical-first before FIFO and then again: the sorted logs
            // are shared, so the order of resolves must not matter.
            for policy in [ServicePolicy::CriticalFirst, ServicePolicy::Fifo, ServicePolicy::CriticalFirst] {
                prop_assert_eq!(a.resolve(policy), reference_resolve(&log, policy), "{:?}", policy);
            }
        }

        #[test]
        fn pushes_after_a_resolve_join_the_sorted_logs(log in arb_log(), cut in 0usize..120) {
            let cut = cut.min(log.len());
            let mut a = Arbiter::new();
            for &r in &log[..cut] {
                a.push(r);
            }
            prop_assert_eq!(
                a.resolve(ServicePolicy::Fifo),
                reference_resolve(&log[..cut], ServicePolicy::Fifo)
            );
            for &r in &log[cut..] {
                a.push(r);
            }
            for policy in [ServicePolicy::Fifo, ServicePolicy::CriticalFirst] {
                prop_assert_eq!(a.resolve(policy), reference_resolve(&log, policy), "{:?}", policy);
            }
        }
    }

    #[test]
    fn equal_arrivals_are_served_in_log_order() {
        // Three requests at t=5 on one resource: log order decides, and
        // the per-processor waits show which went first.
        let log = [req(0, 2, 5, 10, false), req(0, 0, 5, 10, false), req(0, 1, 5, 10, true)];
        let mut a = Arbiter::new();
        for r in log {
            a.push(r);
        }
        assert_eq!(a.resolve(ServicePolicy::Fifo).per_proc_wait_ns, vec![10, 20, 0]);
        assert_eq!(a.resolve(ServicePolicy::CriticalFirst).per_proc_wait_ns, vec![20, 0, 10]);
    }

    fn req(resource: u32, proc: u32, arrive: u64, service: u64, critical: bool) -> ServiceRequest {
        ServiceRequest { resource, proc, arrive_ns: arrive, service_ns: service, critical }
    }

    #[test]
    fn uncontended_requests_never_wait() {
        let mut a = Arbiter::new();
        a.push(req(0, 0, 0, 100, false));
        a.push(req(0, 1, 1_000, 100, true));
        for policy in [ServicePolicy::Fifo, ServicePolicy::CriticalFirst] {
            let r = a.resolve(policy);
            assert_eq!(r.all().total_wait_ns, 0, "{policy:?}");
            assert_eq!(r.busy_ns, 200);
            assert_eq!(r.makespan_ns, 1_100);
        }
    }

    #[test]
    fn fifo_waits_accumulate_in_arrival_order() {
        let mut a = Arbiter::new();
        a.push(req(0, 0, 0, 100, false));
        a.push(req(0, 1, 10, 100, false));
        a.push(req(0, 2, 20, 100, false));
        let r = a.resolve(ServicePolicy::Fifo);
        // Grants at 0, 100, 200 → waits 0, 90, 180.
        assert_eq!(r.background.total_wait_ns, 270);
        assert_eq!(r.background.max_wait_ns, 180);
        assert_eq!(r.per_proc_wait_ns, vec![0, 90, 180]);
    }

    #[test]
    fn critical_first_overtakes_queued_background() {
        let mut a = Arbiter::new();
        a.push(req(0, 0, 0, 100, false)); // in service at t=0
        a.push(req(0, 1, 10, 100, false)); // queued
        a.push(req(0, 2, 20, 100, true)); // critical, queued behind it
        let fifo = a.resolve(ServicePolicy::Fifo);
        let prio = a.resolve(ServicePolicy::CriticalFirst);
        // FIFO: critical granted at 200 (wait 180). Priority: at 100 (wait 80).
        assert_eq!(fifo.critical.total_wait_ns, 180);
        assert_eq!(prio.critical.total_wait_ns, 80);
        assert!(prio.critical.total_wait_ns < fifo.critical.total_wait_ns);
        // Conservation: total wait only shifts between classes.
        assert_eq!(
            fifo.all().total_wait_ns,
            prio.all().total_wait_ns,
            "equal service times make total wait policy-invariant"
        );
        assert_eq!(fifo.busy_ns, prio.busy_ns);
        assert_eq!(fifo.makespan_ns, prio.makespan_ns);
    }

    #[test]
    fn in_service_requests_are_not_preempted() {
        let mut a = Arbiter::new();
        a.push(req(0, 0, 0, 1_000, false)); // long background in service
        a.push(req(0, 1, 1, 10, true)); // critical arrives just after
        let prio = a.resolve(ServicePolicy::CriticalFirst);
        // Non-preemptive: the critical request still waits out the grant.
        assert_eq!(prio.critical.total_wait_ns, 999);
    }

    #[test]
    fn resources_are_independent() {
        let mut a = Arbiter::new();
        a.push(req(0, 0, 0, 100, false));
        a.push(req(1, 1, 0, 100, false));
        let r = a.resolve(ServicePolicy::Fifo);
        assert_eq!(r.all().total_wait_ns, 0, "different resources never queue on each other");
        assert_eq!(r.busy_ns, 200);
        assert_eq!(r.makespan_ns, 100);
    }

    #[test]
    fn resolve_is_deterministic_and_reusable() {
        let mut a = Arbiter::new();
        for i in 0..50u64 {
            a.push(req((i % 3) as u32, (i % 4) as u32, i * 7 % 40, 25, i % 5 == 0));
        }
        let x = a.resolve(ServicePolicy::CriticalFirst);
        let y = a.resolve(ServicePolicy::CriticalFirst);
        assert_eq!(x, y);
        // The log is still intact for the other policy.
        let f = a.resolve(ServicePolicy::Fifo);
        assert_eq!(f.all().requests, 50);
    }

    #[test]
    fn mean_wait_handles_empty_class() {
        let stats = WaitStats::default();
        assert_eq!(stats.mean_wait_ns(), 0.0);
    }
}
