//! Deterministic service-queue arbitration with optional criticality-aware
//! priority — the latency/contention pricing layer the pluggable memory
//! backends (`locus-coherence`) charge their messages through.
//!
//! The mesh [`Kernel`](crate::kernel::Kernel) models wormhole channel
//! blocking for the message-passing router; the memory-system backends
//! need a different, simpler resource model: a shared *service point* (the
//! snooping bus, a directory home node, an LLC home tile) that serves one
//! request at a time. Backends push every request they price —
//! `(resource, proc, arrival, service time, criticality)` — into an
//! [`Arbiter`] while replaying a trace, and the arbiter serves each one
//! under two policies at once:
//!
//! * **FIFO** — requests are granted in arrival order (the classic bus
//!   arbiter);
//! * **critical-first** — at every grant instant, queued **critical**
//!   requests (rip-up/commit stores that gate a route decision) are
//!   serviced before queued background requests (speculative
//!   candidate-sweep loads), in the spirit of criticality-aware memory
//!   scheduling (arXiv:1606.05933).
//!
//! Requests are served *online*: no request log is kept. Each push names
//! a *horizon*, a time before which no later request arrives. A request
//! that arrives by the horizon is fed to its resource; one that arrives
//! later waits in a buffer ordered by `(arrival, push order)` until a
//! horizon passes it. Each resource is fed in that order, so a grant
//! whose instant is before the arrival just fed can no longer change: it
//! is made at once. [`Arbiter::finish`] feeds what is left and serves
//! every queue out. A horizon of 0 throughout buffers every request until
//! then. The memory backends always pass the time of the reference they
//! price, their traces being time-ordered; horizon 0 serves only direct
//! callers and this module's tests.
//!
//! Serving is deterministic: the same requests give the same grant
//! schedule under both policies whatever horizons they were pushed with,
//! so a study can report the FIFO-vs-priority delta on identical traffic.

use std::collections::VecDeque;

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

/// The grant schedule statistics of one policy over an [`Arbiter`]'s
/// requests.
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

/// The wait accounting of one policy while requests are served: a
/// [`ResolvedContention`] with its classes indexed by `critical as usize`.
#[derive(Clone, Debug, Default)]
struct Waits {
    /// Background, then critical.
    classes: [WaitStats; 2],
    per_proc_wait_ns: Vec<u64>,
    busy_ns: u64,
    makespan_ns: u64,
}

impl Waits {
    /// Charges `r`, granted at `at`, and returns when its service ends.
    /// Every sum saturates and every request adds to it, so the order of
    /// grants does not matter.
    #[inline]
    fn grant(&mut self, r: &ServiceRequest, at: u64) -> u64 {
        let wait = at - r.arrive_ns;
        self.classes[usize::from(r.critical)].record(wait);
        let proc_wait = &mut self.per_proc_wait_ns[r.proc as usize];
        *proc_wait = proc_wait.saturating_add(wait);
        self.busy_ns = self.busy_ns.saturating_add(r.service_ns);
        let done = at + r.service_ns;
        self.makespan_ns = self.makespan_ns.max(done);
        done
    }

    fn resolved(self) -> ResolvedContention {
        let [background, critical] = self.classes;
        ResolvedContention {
            critical,
            background,
            per_proc_wait_ns: self.per_proc_wait_ns,
            busy_ns: self.busy_ns,
            makespan_ns: self.makespan_ns,
        }
    }
}

/// One service point, fed its requests in `(arrival, push order)`.
#[derive(Clone, Debug)]
struct Server {
    resource: u32,
    /// When the FIFO server is free. Feed order is FIFO order, so a
    /// request is granted the moment it is fed.
    fifo_free: u64,
    /// When the critical-first server is free.
    free: u64,
    /// The critical-first queues, background then critical: fed requests
    /// not yet granted, each in feed order.
    queues: [VecDeque<ServiceRequest>; 2],
}

impl Server {
    fn new(resource: u32) -> Self {
        Server { resource, fifo_free: 0, free: 0, queues: Default::default() }
    }

    /// Makes the critical-first grants whose instant is before `before`
    /// (every grant when `None`). When the resource frees up, or sits idle
    /// until the next arrival, a queued critical request goes first, and
    /// otherwise the earliest fed. A request fed later arrives at or after
    /// `before`, so it cannot be queued at any of these instants.
    #[inline]
    fn serve(&mut self, before: Option<u64>, out: &mut Waits) {
        loop {
            let [background, critical] = &self.queues;
            let first = match (critical.front(), background.front()) {
                (None, None) => return,
                (Some(c), None) => c.arrive_ns,
                (None, Some(b)) => b.arrive_ns,
                (Some(c), Some(b)) => c.arrive_ns.min(b.arrive_ns),
            };
            let at = self.free.max(first);
            if before.is_some_and(|t| at >= t) {
                return;
            }
            let class = critical.front().is_some_and(|c| c.arrive_ns <= at);
            let r = self.queues[usize::from(class)].pop_front().expect("a request queued at `at`");
            self.free = out.grant(&r, at);
        }
    }

    /// Takes `r`, which arrives no earlier than any request fed before it.
    #[inline]
    fn feed(&mut self, r: ServiceRequest, fifo: &mut Waits, critical_first: &mut Waits) {
        self.fifo_free = fifo.grant(&r, self.fifo_free.max(r.arrive_ns));
        self.serve(Some(r.arrive_ns), critical_first);
        if r.critical && self.queues[1].is_empty() {
            // The next grant is at `max(free, arrival)`, and `r` is queued
            // then, ahead of every critical request fed later.
            self.free = critical_first.grant(&r, self.free.max(r.arrive_ns));
        } else {
            self.queues[usize::from(r.critical)].push_back(r);
        }
    }
}

/// Serves pushed requests under FIFO and critical-first as they come; see
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct Arbiter {
    /// Requests that arrive after the horizon, in `(arrival, push order)`.
    pending: VecDeque<ServiceRequest>,
    /// The largest horizon pushed: no request pushed later arrives before it.
    horizon: u64,
    /// One server per resource seen, ordered by resource id.
    servers: Vec<Server>,
    fifo: Waits,
    critical_first: Waits,
}

impl Arbiter {
    /// Creates an arbiter with no requests.
    pub fn new() -> Self {
        Arbiter::default()
    }

    /// Takes one request. No request pushed after this one may arrive
    /// before `horizon`; 0 promises nothing.
    ///
    /// Requests wait for the horizon in arrival order. One that arrives
    /// no earlier than every waiting request joins the back; another is
    /// filed by binary search, and the buffer moves its shorter side to
    /// make room, so requests pushed nearly in order, or in reverse, are
    /// filed in a few steps each. Pushed in random order with a horizon
    /// of 0, each moves a share of the buffer: quadratic in the requests.
    ///
    /// # Panics
    /// Panics if `req` arrives before a horizon an earlier push gave.
    #[inline]
    pub fn push(&mut self, req: ServiceRequest, horizon: u64) {
        assert!(
            req.arrive_ns >= self.horizon,
            "a request arrives at {} ns, before the horizon of {} ns an earlier push gave",
            req.arrive_ns,
            self.horizon
        );
        self.horizon = self.horizon.max(horizon);
        let procs = req.proc as usize + 1;
        if procs > self.fifo.per_proc_wait_ns.len() {
            self.fifo.per_proc_wait_ns.resize(procs, 0);
            self.critical_first.per_proc_wait_ns.resize(procs, 0);
        }
        if self.pending.is_empty() && req.arrive_ns <= self.horizon {
            self.feed(req);
            return;
        }
        match self.pending.back() {
            Some(last) if last.arrive_ns > req.arrive_ns => {
                let at = self.pending.partition_point(|p| p.arrive_ns <= req.arrive_ns);
                self.pending.insert(at, req);
            }
            _ => self.pending.push_back(req),
        }
        while self.pending.front().is_some_and(|p| p.arrive_ns <= self.horizon) {
            let r = self.pending.pop_front().expect("a front request");
            self.feed(r);
        }
    }

    /// Feeds `r` to its resource's server, which is made on first use.
    /// Out of line: a replay loop that inlines [`Self::push`] keeps only
    /// its checks.
    #[inline(never)]
    fn feed(&mut self, r: ServiceRequest) {
        let slot = match self.servers.get(r.resource as usize) {
            // Resource ids from 0 up fill the slots in order.
            Some(s) if s.resource == r.resource => r.resource as usize,
            _ => match self.servers.binary_search_by_key(&r.resource, |s| s.resource) {
                Ok(slot) => slot,
                Err(slot) => {
                    self.servers.insert(slot, Server::new(r.resource));
                    slot
                }
            },
        };
        self.servers[slot].feed(r, &mut self.fifo, &mut self.critical_first);
    }

    /// Serves every request and returns the wait accounting under FIFO and
    /// under critical-first service.
    pub fn finish(mut self) -> (ResolvedContention, ResolvedContention) {
        while let Some(r) = self.pending.pop_front() {
            self.feed(r);
        }
        for server in &mut self.servers {
            server.serve(None, &mut self.critical_first);
        }
        (self.fifo.resolved(), self.critical_first.resolved())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A batch arbiter kept as the oracle: it regroups the flat log by
    /// linear search, stable-sorts each resource's requests by arrival and
    /// serves from the front of a `Vec`, quadratic in a backlog.
    fn reference_resolve(requests: &[ServiceRequest], critical_first: bool) -> ResolvedContention {
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
                let pick_pos = if critical_first {
                    queue.iter().position(|&i| requests[i].critical).unwrap_or(0)
                } else {
                    0
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
                            // Sparse ids, so that serving cannot index by them.
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

    /// A log and, for each request, a horizon that keeps the contract:
    /// 0 throughout, or else a random share (none, all or in between) of
    /// the earliest arrival pushed after it. The last request's bound lies
    /// past its own arrival.
    fn arb_pushes() -> impl Strategy<Value = Vec<(ServiceRequest, u64)>> {
        (arb_log(), proptest::collection::vec(0u64..=4, 120), any::<bool>()).prop_map(
            |(log, shares, zero)| {
                let mut later = None; // earliest arrival pushed after the request
                let mut pushes: Vec<(ServiceRequest, u64)> = log
                    .iter()
                    .rev()
                    .zip(&shares)
                    .map(|(&r, &share)| {
                        let bound: u64 = later.unwrap_or(r.arrive_ns + 50);
                        later = Some(bound.min(r.arrive_ns));
                        (r, if zero { 0 } else { bound * share / 4 })
                    })
                    .collect();
                pushes.reverse();
                pushes
            },
        )
    }

    fn served(pushes: &[(ServiceRequest, u64)]) -> (ResolvedContention, ResolvedContention) {
        let mut a = Arbiter::new();
        for &(r, horizon) in pushes {
            a.push(r, horizon);
        }
        a.finish()
    }

    fn served_at_zero(log: &[ServiceRequest]) -> (ResolvedContention, ResolvedContention) {
        served(&log.iter().map(|&r| (r, 0)).collect::<Vec<_>>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn online_arbiter_matches_the_quadratic_reference(pushes in arb_pushes()) {
            let log: Vec<ServiceRequest> = pushes.iter().map(|&(r, _)| r).collect();
            let (fifo, critical_first) = served(&pushes);
            prop_assert_eq!(fifo, reference_resolve(&log, false));
            prop_assert_eq!(critical_first, reference_resolve(&log, true));
        }

    }

    #[test]
    fn equal_arrivals_are_served_in_log_order() {
        // Three requests at t=5 on one resource: log order decides, and
        // the per-processor waits show which went first.
        let log = [req(0, 2, 5, 10, false), req(0, 0, 5, 10, false), req(0, 1, 5, 10, true)];
        for horizon in [0, 5] {
            let (fifo, critical_first) = served(&log.map(|r| (r, horizon)));
            assert_eq!(fifo.per_proc_wait_ns, vec![10, 20, 0]);
            assert_eq!(critical_first.per_proc_wait_ns, vec![20, 0, 10]);
        }
    }

    #[test]
    fn a_critical_arrival_at_a_grant_instant_is_queued_for_it() {
        // The background request frees the resource at 10, the instant the
        // critical one arrives: that grant waits for it, and goes to it.
        let log = [req(0, 0, 0, 10, false), req(0, 1, 5, 10, false), req(0, 2, 10, 10, true)];
        let (_, critical_first) = served(&log.map(|r| (r, r.arrive_ns)));
        assert_eq!(critical_first.per_proc_wait_ns, vec![0, 15, 0]);
    }

    #[test]
    #[should_panic(expected = "arrives at 4 ns, before the horizon of 7 ns")]
    fn a_request_before_an_earlier_horizon_panics_naming_both_times() {
        let mut a = Arbiter::new();
        a.push(req(0, 0, 9, 10, false), 7);
        a.push(req(1, 0, 4, 10, false), 4);
    }

    fn req(resource: u32, proc: u32, arrive: u64, service: u64, critical: bool) -> ServiceRequest {
        ServiceRequest { resource, proc, arrive_ns: arrive, service_ns: service, critical }
    }

    #[test]
    fn uncontended_requests_never_wait() {
        let (fifo, critical_first) =
            served(&[(req(0, 0, 0, 100, false), 0), (req(0, 1, 1_000, 100, true), 1_000)]);
        for r in [fifo, critical_first] {
            assert_eq!(r.all().total_wait_ns, 0);
            assert_eq!(r.busy_ns, 200);
            assert_eq!(r.makespan_ns, 1_100);
        }
    }

    #[test]
    fn fifo_waits_accumulate_in_arrival_order() {
        let (r, _) = served_at_zero(&[
            req(0, 0, 0, 100, false),
            req(0, 1, 10, 100, false),
            req(0, 2, 20, 100, false),
        ]);
        // Grants at 0, 100, 200 → waits 0, 90, 180.
        assert_eq!(r.background.total_wait_ns, 270);
        assert_eq!(r.background.max_wait_ns, 180);
        assert_eq!(r.per_proc_wait_ns, vec![0, 90, 180]);
    }

    #[test]
    fn critical_first_overtakes_queued_background() {
        let (fifo, prio) = served_at_zero(&[
            req(0, 0, 0, 100, false),  // in service at t=0
            req(0, 1, 10, 100, false), // queued
            req(0, 2, 20, 100, true),  // critical, queued behind it
        ]);
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
        let (_, prio) = served_at_zero(&[
            req(0, 0, 0, 1_000, false), // long background in service
            req(0, 1, 1, 10, true),     // critical arrives just after
        ]);
        // Non-preemptive: the critical request still waits out the grant.
        assert_eq!(prio.critical.total_wait_ns, 999);
    }

    #[test]
    fn resources_are_independent() {
        let (r, _) = served_at_zero(&[req(0, 0, 0, 100, false), req(1, 1, 0, 100, false)]);
        assert_eq!(r.all().total_wait_ns, 0, "different resources never queue on each other");
        assert_eq!(r.busy_ns, 200);
        assert_eq!(r.makespan_ns, 100);
    }

    #[test]
    fn mean_wait_handles_empty_class() {
        let stats = WaitStats::default();
        assert_eq!(stats.mean_wait_ns(), 0.0);
    }
}
