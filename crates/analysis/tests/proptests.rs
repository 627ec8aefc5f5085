//! Property-based tests for the race detector.
//!
//! The load-bearing property: producer traces merge per-processor
//! streams with `Trace::sort_by_time`, so references sharing a
//! timestamp have no canonical cross-processor order. Race verdicts
//! must therefore be invariant under any *stable* reordering of
//! same-time references (one that preserves each processor's program
//! order) — otherwise the analysis would report different races for
//! the same execution depending on merge luck.

use std::collections::BTreeSet;

use locus_analysis::race::{detect, RaceKey, RaceKind};
use locus_coherence::{MemRef, RefKind, Trace};
use proptest::prelude::*;

const PROCS: usize = 4;

/// Raw material for one reference: processor, cell slot, write?, epoch,
/// and a coarse time offset within the epoch (coarse so timestamps
/// collide often).
fn arb_refs() -> impl Strategy<Value = Vec<(u32, u32, bool, u32, u64)>> {
    proptest::collection::vec((0..PROCS as u32, 0..12u32, any::<bool>(), 0..3u32, 0..8u64), 0..120)
}

/// Builds a time-sorted trace whose epoch `e` starts at time `e * band`.
/// At `band` 1 000 the epochs occupy disjoint time bands, so every
/// processor's epochs are nondecreasing in program order (the barrier
/// invariant producers guarantee); at a `band` below the offsets' 8 the
/// bands overlap in time.
fn build_trace(raw: &[(u32, u32, bool, u32, u64)], band: u64) -> Trace {
    let mut t: Trace = raw
        .iter()
        .map(|&(proc, slot, is_write, epoch, offset)| {
            let kind = if is_write { RefKind::Write } else { RefKind::Read };
            let delta = if is_write {
                if slot % 3 == 0 {
                    -1
                } else {
                    1
                }
            } else {
                0
            };
            MemRef::new(epoch as u64 * band + offset, proc, slot * 2, kind)
                .with_epoch(epoch)
                .expect("few epochs")
                .with_wire(slot % 5)
                .with_delta(delta)
        })
        .collect();
    t.sort_by_time();
    t
}

/// Stable reordering of same-time references: within every equal-time
/// group, reorders across processors by a permutation while preserving
/// each processor's own order (stable sort on the permuted proc id).
fn reorder_same_times(trace: &Trace, perm: &[usize; PROCS]) -> Trace {
    let mut refs: Vec<MemRef> = trace.refs().collect();
    refs.sort_by_key(|r| (r.time, perm[r.proc as usize % PROCS]));
    refs.into_iter().collect()
}

fn race_keys(trace: &Trace) -> Vec<RaceKey> {
    let mut keys: Vec<RaceKey> = detect(trace).races.iter().map(|r| r.key()).collect();
    keys.sort();
    keys
}

/// Every race key by definition, in O(n²): each pair of references to
/// one address in one epoch by two processors, at least one a write.
fn brute_force_keys(trace: &Trace) -> Vec<RaceKey> {
    let refs: Vec<MemRef> = trace.refs().collect();
    let mut keys = BTreeSet::new();
    for (i, a) in refs.iter().enumerate() {
        for b in &refs[i + 1..] {
            let writes = [a, b].iter().filter(|r| r.kind == RefKind::Write).count();
            if a.addr == b.addr && a.epoch == b.epoch && a.proc != b.proc && writes > 0 {
                let kind = if writes == 2 { RaceKind::WriteWrite } else { RaceKind::ReadWrite };
                keys.insert((a.addr, a.epoch.into(), a.proc.min(b.proc), a.proc.max(b.proc), kind));
            }
        }
    }
    keys.into_iter().collect()
}

/// The 24 permutations of 4 processors, indexed densely (Lehmer code).
fn nth_perm(n: usize) -> [usize; PROCS] {
    let mut pool = vec![0, 1, 2, 3];
    let digits = [(n / 6) % 4, (n % 6) / 2, n % 2, 0];
    let mut out = [0usize; PROCS];
    for (slot, d) in out.iter_mut().zip(digits) {
        *slot = pool.remove(d.min(pool.len() - 1));
    }
    out
}

proptest! {
    #[test]
    fn race_verdicts_invariant_under_stable_same_time_reorderings(
        raw in arb_refs(),
        perm_idx in 0usize..24,
    ) {
        let original = build_trace(&raw, 1_000);
        let perm = nth_perm(perm_idx);
        let reordered = reorder_same_times(&original, &perm);
        prop_assert!(reordered.is_sorted());
        prop_assert_eq!(reordered.len(), original.len());
        prop_assert_eq!(
            race_keys(&original),
            race_keys(&reordered),
            "race set changed under a stable same-time reordering (perm {:?})",
            perm
        );
    }

    #[test]
    fn single_processor_traces_never_race(raw in arb_refs()) {
        let single: Trace = build_trace(&raw, 1_000)
            .refs()
            .map(|r| MemRef { proc: 0, ..r })
            .collect();
        let d = detect(&single);
        prop_assert!(d.races.is_empty());
        prop_assert_eq!(d.synchronized_pairs, 0);
    }

    #[test]
    fn cross_epoch_only_traces_are_race_free(raw in arb_refs()) {
        // Give each processor its own epoch: every cross-proc pair is
        // separated by at least one barrier.
        let mut t: Trace = build_trace(&raw, 1_000)
            .refs()
            .map(|r| MemRef { time: r.proc as u64 * 1_000 + r.time % 1_000, epoch: r.proc as u8, ..r })
            .collect();
        t.sort_by_time();
        prop_assert!(detect(&t).races.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The detector reports exactly the races of the definition, once
    /// each, whether the epochs' time bands are disjoint or overlap.
    #[test]
    fn race_set_is_every_same_epoch_cross_processor_conflict(
        raw in arb_refs(),
        overlapping in any::<bool>(),
    ) {
        let trace = build_trace(&raw, if overlapping { 4 } else { 1_000 });
        prop_assert_eq!(race_keys(&trace), brute_force_keys(&trace));
    }
}
