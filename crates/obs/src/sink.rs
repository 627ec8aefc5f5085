//! Where instrumented layers send their events.
//!
//! A layer holds one [`Obs`] by value and calls [`Obs::emit`]. Sites whose
//! event is not free to build test [`Obs::is_on`] first:
//!
//! ```
//! # use locus_obs::{EventKind, Obs};
//! # let (obs, at_ns, name) = (Obs::off(), 0, "route");
//! if obs.is_on() {                                     // a null test on the handle's `Arc`
//!     obs.emit(at_ns, EventKind::PhaseBegin { name }); // only then is the event constructed
//! }
//! ```
//!
//! so recording that is off costs one never-taken branch per
//! instrumentation point and zero allocations — the zero-cost-when-disabled
//! guarantee the `table1` benchmarks rely on.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::event::{Event, EventKind, NodeId};
use crate::metrics::Metrics;

/// The recording handle every instrumented layer holds: off, or a clone of
/// the caller's [`SharedSink`] plus the node its events are attributed to.
///
/// Cloning is cheap (an `Arc` bump); clones record into the same buffer.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    sink: Option<SharedSink>,
    node: NodeId,
}

impl Obs {
    /// Recording off: every `emit` is one never-taken branch.
    pub fn off() -> Self {
        Obs::default()
    }

    /// Records into `sink` (the caller keeps its own handle to read the
    /// events back), attributing events to node 0.
    pub fn to(sink: &SharedSink) -> Self {
        Obs { sink: Some(sink.clone()), node: 0 }
    }

    /// Returns `self` attributing events to `node`.
    pub fn for_node(mut self, node: NodeId) -> Self {
        self.node = node;
        self
    }

    /// Changes the node subsequent events are attributed to (for engines
    /// that multiplex several logical processors through one handle).
    #[inline]
    pub fn set_node(&mut self, node: NodeId) {
        self.node = node;
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Records `kind` at `at_ns` on this handle's node.
    #[inline]
    pub fn emit(&self, at_ns: u64, kind: EventKind) {
        self.emit_on(at_ns, self.node, kind);
    }

    /// Records `kind` at `at_ns` on an explicit node.
    #[inline]
    pub fn emit_on(&self, at_ns: u64, node: NodeId, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(Event { at_ns, node, kind });
        }
    }
}

/// Default event capacity of a [`RingBufferSink`]: 40 MiB of events when
/// full, at 40 bytes an [`Event`] (a time, a node, a 24-byte kind).
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 20;

/// A bounded in-memory sink: keeps the most recent `capacity` events in
/// arrival order and feeds every event (kept or not) into a [`Metrics`]
/// registry, so counters stay exact even when the ring wraps.
#[derive(Clone, Debug)]
pub struct RingBufferSink {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    metrics: Metrics,
}

impl Default for RingBufferSink {
    fn default() -> Self {
        RingBufferSink::new()
    }
}

impl RingBufferSink {
    /// Creates a sink with the default capacity, 2^20 events.
    pub fn new() -> Self {
        RingBufferSink::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a sink keeping at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink { events: VecDeque::new(), capacity, dropped: 0, metrics: Metrics::new() }
    }

    /// Retained events as a vector, oldest first.
    pub fn to_vec(&self) -> Vec<Event> {
        self.events.iter().copied().collect()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The metrics registry fed by every recorded event.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Records one event.
    #[inline]
    pub fn record(&mut self, event: Event) {
        crate::export::count(&event.kind, &mut self.metrics);
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// A thread-safe, cheaply clonable handle to a shared [`RingBufferSink`].
///
/// Every clone records into the same buffer; the real threaded executor
/// hands one clone to each worker thread, and single-threaded engines
/// use it so the caller can keep a handle and read the results after the
/// engine consumed its own clone.
#[derive(Clone, Debug, Default)]
pub struct SharedSink {
    inner: Arc<Mutex<RingBufferSink>>,
}

impl SharedSink {
    /// Creates a shared sink with the default capacity.
    pub fn new() -> Self {
        SharedSink::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a shared sink keeping at most `capacity` events.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        SharedSink { inner: Arc::new(Mutex::new(RingBufferSink::with_capacity(capacity))) }
    }

    /// Locks the underlying buffer for inspection.
    pub fn lock(&self) -> MutexGuard<'_, RingBufferSink> {
        self.inner.lock()
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot_events(&self) -> Vec<Event> {
        self.inner.lock().to_vec()
    }

    /// Copy of the metrics registry.
    pub fn metrics_snapshot(&self) -> Metrics {
        self.inner.lock().metrics().clone()
    }

    /// Records one event into the shared buffer.
    #[inline]
    pub(crate) fn record(&self, event: Event) {
        self.inner.lock().record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, bytes: u32) -> Event {
        Event {
            at_ns,
            node: 0,
            kind: EventKind::PacketSent {
                dst: 1,
                payload_bytes: bytes,
                wire_bytes: bytes + 4,
                hops: 1,
            },
        }
    }

    #[test]
    fn obs_off_records_nothing_and_a_node_handle_stamps_its_node() {
        let sink = SharedSink::new();
        let (off, on) = (Obs::off(), Obs::to(&sink).for_node(3));
        assert!(!off.is_on() && on.is_on());
        let kinds = crate::event::tests::all_kinds();
        for (t, &kind) in kinds.iter().enumerate() {
            off.emit(t as u64, kind);
            off.emit_on(t as u64, 5, kind);
            on.emit(t as u64, kind);
        }
        let events = sink.snapshot_events();
        assert_eq!(events.len(), kinds.len(), "only the handle that is on records");
        for (t, (ev, kind)) in events.iter().zip(&kinds).enumerate() {
            assert_eq!(*ev, Event { at_ns: t as u64, node: 3, kind: *kind });
        }
        on.emit_on(99, 7, kinds[0]);
        assert_eq!(sink.snapshot_events().last().map(|e| e.node), Some(7));
    }

    #[test]
    fn ring_preserves_arrival_order() {
        let mut s = RingBufferSink::with_capacity(10);
        for i in 0..5 {
            s.record(ev(i, i as u32));
        }
        let times: Vec<u64> = s.to_vec().iter().map(|e| e.at_ns).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_exact_metrics() {
        let mut s = RingBufferSink::with_capacity(3);
        for i in 0..5 {
            s.record(ev(i, 10));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.to_vec()[0].at_ns, 2, "oldest evicted first");
        // Metrics saw all five events despite the eviction.
        assert_eq!(s.metrics().counter("packets_sent"), 5);
        assert_eq!(s.metrics().counter("bytes_sent"), 50);
    }

    #[test]
    fn shared_sink_clones_share_the_buffer() {
        let sink = SharedSink::with_capacity(100);
        let a = sink.clone();
        let b = sink.clone();
        a.record(ev(1, 1));
        b.record(ev(2, 2));
        assert_eq!(sink.snapshot_events().len(), 2);
        assert_eq!(sink.metrics_snapshot().counter("packets_sent"), 2);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the sink under test is shared by threads")]
    fn shared_sink_records_from_threads() {
        let sink = SharedSink::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = sink.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        s.record(ev(t * 1000 + i, 1));
                    }
                });
            }
        });
        assert_eq!(sink.snapshot_events().len(), 400);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = RingBufferSink::with_capacity(0);
    }
}
