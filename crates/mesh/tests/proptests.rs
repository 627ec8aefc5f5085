//! Property-based tests for the mesh simulator.

use locus_mesh::topology::Topology;
use locus_mesh::{
    Envelope, Kernel, MeshConfig, Node, Outbox, SimTime, Step, HEADER_BYTES, HOP_TIME_NS,
    PROCESS_TIME_NS,
};
use proptest::prelude::*;

/// Sends `n` packets of `bytes` to `to`, then completes.
struct Sender {
    to: usize,
    bytes: u32,
    remaining: u32,
}

/// Completes after receiving `expect` packets.
struct Receiver {
    expect: usize,
    got: usize,
}

enum Actor {
    S(Sender),
    R(Receiver),
}

impl Node for Actor {
    type Msg = ();
    fn step(&mut self, _: SimTime, inbox: &mut Vec<Envelope<()>>, out: &mut Outbox<()>) -> Step {
        match self {
            Actor::S(s) => {
                if s.remaining == 0 {
                    return Step::Done;
                }
                s.remaining -= 1;
                out.send(s.to, s.bytes, ());
                Step::Continue { busy_ns: 100 }
            }
            Actor::R(r) => {
                r.got += inbox.len();
                if r.got >= r.expect {
                    Step::Done
                } else {
                    Step::Block
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn route_length_always_equals_manhattan(
        rows in 1usize..6,
        cols in 1usize..6,
        src_i in 0usize..36,
        dst_i in 0usize..36,
    ) {
        let t = Topology::new(rows, cols);
        let src = src_i % t.n_nodes();
        let dst = dst_i % t.n_nodes();
        let route: Vec<usize> = t.route(src, dst).collect();
        prop_assert_eq!(route.len() as u32, t.hops(src, dst));
        // Channels along the route are distinct (dimension order never
        // revisits a link).
        let mut seen = std::collections::BTreeSet::new();
        for ch in route {
            prop_assert!(seen.insert(ch));
        }
    }

    #[test]
    fn uncontended_latency_law_holds(
        d in 0u32..10,
        bytes in 0u32..4096,
    ) {
        let cfg = MeshConfig::ametek(4, 4);
        let expected =
            2 * PROCESS_TIME_NS + HOP_TIME_NS * (d as u64 + bytes as u64 + 8);
        prop_assert_eq!(cfg.uncontended_latency_ns(d, bytes), expected);
    }

    #[test]
    fn all_packets_delivered_and_counted(
        n_packets in 1u32..20,
        bytes in 1u32..512,
        cols in 2usize..5,
    ) {
        let cfg = MeshConfig::ametek(1, cols);
        let dst = cols - 1;
        let mut nodes: Vec<Actor> = Vec::new();
        nodes.push(Actor::S(Sender { to: dst, bytes, remaining: n_packets }));
        for _ in 1..cols - 1 {
            nodes.push(Actor::R(Receiver { expect: 0, got: 0 }));
        }
        nodes.push(Actor::R(Receiver { expect: n_packets as usize, got: 0 }));
        let out = Kernel::new(cfg, nodes).run();
        prop_assert!(!out.stats.deadlocked);
        prop_assert_eq!(out.stats.packets, n_packets as u64);
        prop_assert_eq!(out.stats.payload_bytes, n_packets as u64 * bytes as u64);
        prop_assert_eq!(
            out.stats.wire_bytes,
            n_packets as u64 * (bytes as u64 + HEADER_BYTES as u64)
        );
        // Dimension-order distance from node 0 to the last column.
        prop_assert_eq!(
            out.stats.byte_hops,
            out.stats.wire_bytes * (cols as u64 - 1)
        );
    }

    #[test]
    fn contention_never_reduces_latency(
        n_packets in 2u32..10,
        bytes in 1u32..256,
    ) {
        let with = MeshConfig::ametek(1, 3);
        let without = with.without_contention();
        let mk = |_: ()| {
            vec![
                Actor::S(Sender { to: 2, bytes, remaining: n_packets }),
                Actor::S(Sender { to: 2, bytes, remaining: n_packets }),
                Actor::R(Receiver { expect: 2 * n_packets as usize, got: 0 }),
            ]
        };
        let a = Kernel::new(with, mk(())).run();
        let b = Kernel::new(without, mk(())).run();
        prop_assert!(!a.stats.deadlocked && !b.stats.deadlocked);
        prop_assert!(a.stats.completion >= b.stats.completion);
    }

    #[test]
    fn busy_time_never_exceeds_completion(
        n_packets in 1u32..10,
        bytes in 1u32..256,
    ) {
        let cfg = MeshConfig::ametek(1, 2);
        let nodes = vec![
            Actor::S(Sender { to: 1, bytes, remaining: n_packets }),
            Actor::R(Receiver { expect: n_packets as usize, got: 0 }),
        ];
        let out = Kernel::new(cfg, nodes).run();
        for &busy in &out.stats.busy_ns {
            prop_assert!(busy <= out.stats.completion.as_ns());
        }
    }
}
