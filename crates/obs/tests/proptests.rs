//! Property tests for the observability crate.

use locus_obs::metrics::{bucket_hi, bucket_index, bucket_lo};
use locus_obs::{Event, EventKind, RingBufferSink};
use proptest::prelude::*;

fn packet_event(at_ns: u64, node: u32, seq: u32) -> Event {
    // The payload carries a sequence tag so reorderings are detectable
    // even among events with identical timestamps.
    Event {
        at_ns,
        node,
        kind: EventKind::PacketSent { dst: seq, payload_bytes: seq, wire_bytes: seq, hops: 1 },
    }
}

fn seq_of(ev: &Event) -> u32 {
    match ev.kind {
        EventKind::PacketSent { dst, .. } => dst,
        _ => unreachable!(),
    }
}

proptest! {
    /// Events recorded with equal timestamps must come back in exactly
    /// the order they were recorded (the ring is FIFO, never a sort).
    #[test]
    fn ring_buffer_never_reorders_same_timestamp_events(
        timestamps in proptest::collection::vec(0u64..8, 1..200),
        capacity in 1usize..300,
    ) {
        let mut sink = RingBufferSink::with_capacity(capacity);
        for (seq, &t) in timestamps.iter().enumerate() {
            sink.record(packet_event(t, 0, seq as u32));
        }
        let kept = sink.to_vec();
        prop_assert_eq!(kept.len(), timestamps.len().min(capacity));
        // The retained window is the most recent suffix, in order.
        let expect_start = timestamps.len() - kept.len();
        for (i, ev) in kept.iter().enumerate() {
            prop_assert_eq!(seq_of(ev) as usize, expect_start + i);
        }
        // Within every timestamp class, sequence numbers stay increasing.
        for t in 0..8u64 {
            let seqs: Vec<u32> =
                kept.iter().filter(|e| e.at_ns == t).map(seq_of).collect();
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "reordered at t={}: {:?}", t, seqs);
        }
    }

    /// Every value lands in a bucket whose bounds contain it, and bucket
    /// bounds tile the u64 range without gaps.
    #[test]
    fn bucket_bounds_contain_their_values(v in proptest::arbitrary::any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(bucket_lo(i) <= v);
        prop_assert!(v <= bucket_hi(i));
    }

    /// Metrics byte counters equal the sum of recorded payloads no
    /// matter how the ring wraps.
    #[test]
    fn metrics_survive_ring_wrap(
        payloads in proptest::collection::vec(0u32..10_000, 1..100),
        capacity in 1usize..16,
    ) {
        let mut sink = RingBufferSink::with_capacity(capacity);
        for (i, &p) in payloads.iter().enumerate() {
            sink.record(Event {
                at_ns: i as u64,
                node: 0,
                kind: EventKind::PacketSent { dst: 1, payload_bytes: p, wire_bytes: p + 4, hops: 2 },
            });
        }
        let total: u64 = payloads.iter().map(|&p| p as u64).sum();
        prop_assert_eq!(sink.metrics().counter("bytes_sent"), total);
        prop_assert_eq!(sink.metrics().counter("packets_sent"), payloads.len() as u64);
        prop_assert_eq!(sink.dropped() as usize, payloads.len().saturating_sub(capacity));
    }
}
