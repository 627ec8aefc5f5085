//! Property-based tests for the WBI coherence model and the registered
//! memory-system backends.

use std::collections::BTreeMap;

use locus_coherence::{
    build_memory_model, memory_registry, traffic_by_line_size, Criticality, MemRef, MemoryConfig,
    RefKind, Trace, TraceRecorder, TrafficStats,
};
use proptest::prelude::*;

/// Table 3's sweep at one line size.
fn sweep(trace: &Trace, line_size: u32) -> TrafficStats {
    traffic_by_line_size(trace, &[line_size])[0].1
}

/// The reference model for the paged line table and the shared transition
/// function: WBI and write-through written out longhand over a `BTreeMap`
/// keyed by `addr / line_size`, the way the simulator kept its lines
/// before. `(holders, dirty owner, invalidated)` per line.
fn reference_stats(trace: &Trace, line_size: u32, write_through: bool) -> TrafficStats {
    let mut lines: BTreeMap<u32, (u64, Option<u32>, u64)> = BTreeMap::new();
    let mut s = TrafficStats::default();
    let (line_bytes, word) = (line_size as u64, 4u64);
    for r in trace.refs() {
        let (holders, dirty, invalidated) = lines.entry(r.addr / line_size).or_default();
        let pbit = 1u64 << r.proc;
        let held = *holders & pbit != 0;
        if r.kind == RefKind::Read {
            if held {
                continue;
            }
            s.line_fetches += 1;
            s.total_bytes += line_bytes;
            if *invalidated & pbit != 0 {
                s.refetches += 1;
                s.write_caused_bytes += line_bytes;
            } else {
                s.read_caused_bytes += line_bytes;
            }
            *invalidated &= !pbit;
            *dirty = None;
            *holders |= pbit;
            continue;
        }
        if !write_through && *dirty == Some(r.proc) {
            continue;
        }
        if !held {
            s.line_fetches += 1;
            s.total_bytes += line_bytes;
            s.write_caused_bytes += line_bytes;
            if *invalidated & pbit != 0 {
                s.refetches += 1;
            }
            *invalidated &= !pbit;
        }
        s.word_writes += 1;
        s.total_bytes += word;
        s.write_caused_bytes += word;
        let others = *holders & !pbit;
        s.invalidations += others.count_ones() as u64;
        *invalidated |= others;
        *holders = pbit;
        *dirty = if write_through { None } else { Some(r.proc) };
    }
    s
}

/// Traces over a dense low region, a sparse scatter and the very top of
/// the 32-bit address space at once, so that lines land in many pages of
/// the table and in its last one.
fn arb_scattered_trace() -> impl Strategy<Value = Trace> {
    let addr = prop_oneof![
        0u32..512,
        any::<u32>(),
        (0u32..256).prop_map(|back| u32::MAX - back),
        (0u32..64, 0u32..64).prop_map(|(page, off)| (page << 22) + off),
    ];
    proptest::collection::vec((0u32..64, addr, any::<bool>()), 0..400).prop_map(|refs| {
        refs.into_iter()
            .enumerate()
            .map(|(i, (proc, addr, is_write))| {
                let kind = if is_write { RefKind::Write } else { RefKind::Read };
                MemRef::new(i as u64, proc, addr, kind)
            })
            .collect()
    })
}

fn arb_trace(max_procs: u32, max_addr: u32) -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0..max_procs, 0..max_addr, any::<bool>()), 0..400).prop_map(|refs| {
        refs.into_iter()
            .enumerate()
            .map(|(i, (proc, addr, is_write))| {
                // Word-align addresses like real cost-array accesses.
                MemRef::new(
                    i as u64,
                    proc,
                    addr * 2,
                    if is_write { RefKind::Write } else { RefKind::Read },
                )
            })
            .collect()
    })
}

/// Bursts as an emulator emits them, in the order it begins them: each
/// `(first reference, step, addresses)`. A processor's next burst starts
/// `gap` after the last reference of its previous one (often 0: the same
/// instant), every processor's clock starts at 0, and the processor of a
/// burst is drawn at random, so bursts that start at equal times on
/// different processors, and bursts begun later that start earlier, are
/// the common case. Steps of 0 and bursts of no references are included.
fn arb_bursts() -> impl Strategy<Value = (usize, Vec<(MemRef, u64, Vec<u32>)>)> {
    let burst = (
        0usize..8,
        prop_oneof![Just(0u64), 0u64..6],
        prop_oneof![Just(0u64), Just(4u64), 0u64..5],
        proptest::collection::vec(0u32..64, 0..7),
        any::<bool>(),
        0u32..3,
    );
    (1usize..=8, proptest::collection::vec(burst, 0..40)).prop_map(|(n_procs, raw)| {
        let mut clock = vec![0u64; n_procs];
        let bursts = raw
            .into_iter()
            .map(|(proc, gap, step, addrs, is_write, epoch)| {
                let proc = proc % n_procs;
                let t0 = clock[proc] + gap;
                clock[proc] = t0 + step * (addrs.len() as u64).saturating_sub(1);
                let first = if is_write {
                    MemRef::new(t0, proc as u32, 0, RefKind::Write)
                        .with_delta(1)
                        .with_criticality(Criticality::Critical)
                } else {
                    MemRef::new(t0, proc as u32, 0, RefKind::Read)
                };
                let first = first.with_epoch(epoch).expect("few epochs").with_wire(t0 as u32 % 5);
                (first, step, addrs.into_iter().map(|a| a * 2).collect())
            })
            .collect();
        (n_procs, bursts)
    })
}

/// The step of a burst of [`arb_sweeps`].
#[derive(Clone, Copy, Debug)]
enum SweepStep {
    /// The step every sweep shares.
    Shared,
    /// The `n`-th divisor of the shared step, counted round: the merge
    /// may give it several places in a round of sweeps.
    Divisor(usize),
    /// One more than the shared step, which it does not divide.
    Apart,
    /// A step of its own.
    Fixed(u64),
}

impl SweepStep {
    fn of(self, shared: u64) -> u64 {
        match self {
            SweepStep::Shared => shared,
            SweepStep::Divisor(n) => {
                let divisors: Vec<u64> =
                    (1..=shared).filter(|&d| shared.is_multiple_of(d)).collect();
                divisors[n % divisors.len()]
            }
            SweepStep::Apart => shared + 1,
            SweepStep::Fixed(step) => step,
        }
    }
}

/// How long a processor of [`arb_sweeps`] waits between two bursts.
#[derive(Clone, Copy, Debug)]
enum Gap {
    Ns(u64),
    /// Whole shared steps: the next burst keeps its processor's place in
    /// a rotation of sweeps, a few rounds on.
    Steps(u64),
}

impl Gap {
    fn ns(self, shared: u64) -> u64 {
        match self {
            Gap::Ns(ns) => ns,
            Gap::Steps(n) => n * shared,
        }
    }
}

/// How [`piecewise`] lays out one run of a burst's addresses.
#[derive(Clone, Copy, Debug)]
enum Piece {
    /// Fresh addresses 2 apart: a row.
    Row,
    /// One fresh address again and again.
    Same,
    /// Fresh addresses `2 × 341` apart: a column of a 341-grid surface.
    Column,
    /// Down by [`WRAP`] from just above 0, wrapping below it.
    Down,
    /// Up by [`WRAP`] from just below 2^32, wrapping past it.
    Up,
}

/// The stride of the runs that wrap. Each such run keeps to one odd
/// residue modulo it, its own, so runs that wrap share no address with
/// one another or with the even fresh addresses.
const WRAP: u32 = 1 << 13;

/// `len` addresses in runs of the given pieces, each `(layout, length)`,
/// taken in turn. Fresh addresses are even and come from `next` on, and
/// `next` moves on by `2 × 341` for each address laid, so no two runs
/// share an address while fewer than `WRAP / 2` addresses are laid.
fn piecewise(next: &mut u32, len: usize, pieces: &[(Piece, usize)]) -> Vec<u32> {
    let mut addrs = Vec::with_capacity(len);
    for &(piece, n) in pieces.iter().cycle() {
        if addrs.len() == len {
            break;
        }
        let n = n.min(len - addrs.len()) as u32;
        // The odd residue of a run that wraps: its first address's
        // number among all laid, doubled.
        let lane = (*next / (2 * 341) * 2 + 1) % WRAP;
        let (base, stride) = match piece {
            Piece::Row => (*next, 2),
            Piece::Same => (*next, 0),
            Piece::Column => (*next, 2 * 341),
            Piece::Down => (lane, WRAP.wrapping_neg()),
            Piece::Up => (lane.wrapping_sub(WRAP), WRAP),
        };
        addrs.extend((0..n).map(|i| base.wrapping_add(i.wrapping_mul(stride))));
        *next += 2 * 341 * n;
    }
    addrs
}

/// Pieces for [`piecewise`]: most often one long row, as a single span
/// query is, or several runs of any layout.
fn arb_pieces() -> impl Strategy<Value = Vec<(Piece, usize)>> {
    let piece = prop_oneof![
        Just(Piece::Row),
        Just(Piece::Same),
        Just(Piece::Column),
        Just(Piece::Down),
        Just(Piece::Up),
    ];
    prop_oneof![
        Just(vec![(Piece::Row, usize::MAX)]),
        proptest::collection::vec((piece, 1usize..20), 1..5),
    ]
}

/// Bursts shaped like the emulator's, which the merge gives in whole
/// rounds: 2–8 processors sweep long bursts (8–60 references) at one
/// shared step, from start times staggered by less than two steps and
/// often equal, so that equal times are broken by burst number. Between
/// sweeps come write bursts: long ones (8–60 references) at a step that
/// divides the shared step, like a rip-up or commit among sweeps, or at
/// one that does not, and short ones at other steps and at step 0. A
/// processor's next burst starts at its previous one's last reference,
/// a little after it, a few shared steps after it, or now and then far
/// later. Each case has 30–59 bursts: the more bursts end and begin
/// while a rotation lasts, the more often the merge must find a new one. A burst's addresses are
/// one row or several runs ([`piecewise`]: strides 0, 2 and `2 × 341`,
/// and runs that wrap), so rotations cross the ends of runs. No two runs
/// share an address (at most 3 600 are laid), so any reference moved
/// between runs shows.
fn arb_sweeps() -> impl Strategy<Value = (usize, Vec<(MemRef, u64, Vec<u32>)>)> {
    // `(step, length)` of a burst. Half the bursts are sweeps.
    let shape = prop_oneof![
        (8usize..61).prop_map(|len| (SweepStep::Shared, len)),
        (8usize..61).prop_map(|len| (SweepStep::Shared, len)),
        (8usize..61).prop_map(|len| (SweepStep::Shared, len)),
        (8usize..61).prop_map(|len| (SweepStep::Shared, len)),
        (0usize..4, 8usize..61).prop_map(|(n, len)| (SweepStep::Divisor(n), len)),
        (0usize..4, 8usize..61).prop_map(|(n, len)| (SweepStep::Divisor(n), len)),
        (0usize..4, 8usize..61).prop_map(|(n, len)| (SweepStep::Divisor(n), len)),
        (8usize..61).prop_map(|len| (SweepStep::Apart, len)),
        (0u64..9, 1usize..5).prop_map(|(step, len)| (SweepStep::Fixed(step), len)),
        (1usize..5).prop_map(|len| (SweepStep::Fixed(0), len)),
    ];
    let gap = prop_oneof![
        Just(Gap::Ns(0)),
        (0u64..3).prop_map(Gap::Ns),
        (1u64..4).prop_map(Gap::Steps),
        (0u64..400).prop_map(Gap::Ns),
    ];
    let phase = prop_oneof![Just(0u64), 0u64..16];
    (
        2usize..=8,
        1u64..9,
        proptest::collection::vec(phase, 8),
        proptest::collection::vec((0usize..8, shape, gap, arb_pieces()), 30..60),
    )
        .prop_map(|(n_procs, shared, phases, raw)| {
            let mut clock: Vec<u64> = phases[..n_procs].iter().map(|&p| p % (2 * shared)).collect();
            let mut next_addr = 0u32;
            let bursts = raw
                .into_iter()
                .map(|(proc, (step, len), gap, pieces)| {
                    let proc = proc % n_procs;
                    let t0 = clock[proc] + gap.ns(shared);
                    let first = match step {
                        SweepStep::Shared => MemRef::new(t0, proc as u32, 0, RefKind::Read),
                        _ => MemRef::new(t0, proc as u32, 0, RefKind::Write)
                            .with_delta(1)
                            .with_criticality(Criticality::Critical),
                    };
                    let step = step.of(shared);
                    clock[proc] = t0 + step * (len as u64 - 1);
                    let addrs = piecewise(&mut next_addr, len, &pieces);
                    (first.with_wire(proc as u32), step, addrs)
                })
                .collect();
            (n_procs, bursts)
        })
}

/// An order-sensitive digest of everything a reference holds, `at`
/// its position in the trace.
fn fingerprint(at: usize, r: MemRef) -> u64 {
    let fields = [
        at as u64,
        r.time,
        u64::from(r.proc) << 32 | u64::from(r.addr),
        u64::from(r.epoch) << 32 | u64::from(r.wire),
        (r.kind as u64) << 16 | (r.crit as u64) << 8 | u64::from(r.delta as u8),
    ];
    fields.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}

/// Checks `trace.refs()` split at every `k`: `k` references taken with
/// `next`, then the rest consumed in each of five ways. `for_each`, `last`
/// and the rest of `max` and `reduce` go through `fold`, which must go on
/// where `next` stopped; `==` goes through `next`.
fn check_splits(trace: &Trace) {
    let all: Vec<MemRef> = trace.refs().collect();
    prop_assert_eq!(all.len(), trace.len());
    let mix = |h: u64, x: u64| h.rotate_left(7) ^ x;
    for k in 0..=all.len() {
        let rest = &all[k..];
        let want = || rest.iter().enumerate().map(|(i, &r)| fingerprint(k + i, r));
        for way in 0..5 {
            let mut refs = trace.refs();
            for r in &all[..k] {
                prop_assert_eq!(refs.next().as_ref(), Some(r));
            }
            prop_assert_eq!(refs.size_hint(), (rest.len(), Some(rest.len())));
            let got = refs.enumerate().map(|(i, r)| fingerprint(k + i, r));
            match way {
                0 => {
                    let mut each = Vec::new();
                    got.for_each(|f| each.push(f));
                    prop_assert_eq!(each, want().collect::<Vec<_>>(), "for_each after {}", k);
                }
                1 => prop_assert_eq!(got.max(), want().max(), "max after {}", k),
                2 => prop_assert_eq!(got.reduce(mix), want().reduce(mix), "reduce after {}", k),
                3 => prop_assert_eq!(got.last(), want().next_back(), "last after {}", k),
                _ => prop_assert!(got.eq(want()), "== after {}", k),
            }
        }
    }
}

/// `addrs` as runs `(base, stride, count)` for `push_run`. A run ends
/// before address `i` when `cuts[i % cuts.len()]` is set, when the address
/// does not go on with the run's stride, or when it would carry the run
/// past `u32::MAX`, since a run given whole may not wrap.
fn runs_of(addrs: &[u32], cuts: &[bool]) -> Vec<(u32, u32, usize)> {
    let mut runs: Vec<(u32, u32, usize)> = Vec::new();
    for (i, &addr) in addrs.iter().enumerate() {
        if let Some((base, stride, count)) = runs.last_mut().filter(|_| !cuts[i % cuts.len()]) {
            let next = u64::from(*base) + u64::from(*stride) * *count as u64;
            if *count == 1 && addr >= *base {
                (*stride, *count) = (addr - *base, 2);
                continue;
            }
            if *count > 1 && u64::from(addr) == next {
                *count += 1;
                continue;
            }
        }
        runs.push((addr, 0, 1));
    }
    runs
}

/// 0, 1, 3, 12, 64, 65, every power of two up to 2^31, and `u32::MAX`.
fn edge() -> impl Strategy<Value = u32> {
    (0u32..37).prop_map(|i| match i {
        32 => 0,
        33 => 3,
        34 => 12,
        35 => 65,
        36 => u32::MAX,
        k => 1 << k,
    })
}

/// Both fields of a `MemoryConfig` drawn from [`edge`].
fn arb_memory_config() -> impl Strategy<Value = MemoryConfig> {
    (edge(), edge()).prop_map(|(n_procs, line_size)| MemoryConfig { n_procs, line_size })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sweeps_lay_every_address_in_one_run(case in arb_sweeps()) {
        // A run of one address again and again counts it once.
        let bursts = case.1;
        let mut addrs: Vec<u32> = bursts
            .iter()
            .flat_map(|(.., addrs)| {
                let mut addrs = addrs.clone();
                addrs.dedup();
                addrs
            })
            .collect();
        let laid = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        prop_assert_eq!(addrs.len(), laid);
    }

    #[test]
    fn sweeps_merge_as_a_stable_sort_through_finish_and_merge(case in arb_sweeps()) {
        // One recorder for the run: `finish` merges its processors'
        // sweeps, breaking equal times by burst number.
        let (n_procs, bursts) = case;
        let mut whole = TraceRecorder::new(n_procs);
        let mut listed = Vec::new();
        for (first, step, addrs) in &bursts {
            let mut burst = whole.begin(*first, *step);
            addrs.iter().for_each(|&addr| burst.push(addr));
            listed.extend((0..).zip(addrs).map(|(i, &addr)| MemRef {
                time: first.time + i * step,
                addr,
                ..*first
            }));
        }
        listed.sort_by_key(|r| r.time);
        prop_assert_eq!(whole.finish().refs().collect::<Vec<_>>(), listed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn refs_split_anywhere_between_next_and_fold(case in arb_sweeps(), kept in 1usize..13) {
        // One set of references stored three ways: recorded, in many
        // rounds; pushed in burst order, one round of one-reference
        // bursts; and that sorted.
        let (n_procs, mut bursts) = case;
        bursts.truncate(kept);
        let mut whole = TraceRecorder::new(n_procs);
        let mut pushed = Trace::new();
        for (first, step, addrs) in &bursts {
            let mut burst = whole.begin(*first, *step);
            addrs.iter().for_each(|&addr| burst.push(addr));
            for (i, &addr) in (0..).zip(addrs) {
                pushed.push(MemRef { time: first.time + i * step, addr, ..*first });
            }
        }
        let mut sorted = pushed.clone();
        sorted.sort_by_time();
        for trace in [whole.finish(), pushed, sorted] {
            check_splits(&trace);
        }
    }
}

proptest! {
    #[test]
    fn memory_configs_build_or_fail_and_what_builds_replays(
        cfg in arb_memory_config(),
        refs in proptest::collection::vec(
            (any::<u32>(), prop_oneof![0u32..4096, (0u32..4096).prop_map(|a| u32::MAX - a)], any::<bool>()),
            200,
        ),
    ) {
        // Neither call may panic: a configuration no backend can price is
        // `Err`, and every `Ok` model replays processors below `n_procs`.
        for e in memory_registry() {
            let Ok(model) = build_memory_model(e.name, cfg) else { continue };
            let trace: Trace = refs
                .iter()
                .enumerate()
                .map(|(i, &(proc, addr, is_write))| {
                    let kind = if is_write { RefKind::Write } else { RefKind::Read };
                    MemRef::new(i as u64, proc % cfg.n_procs, addr, kind)
                })
                .collect();
            let out = model.run(&trace);
            let counted: u64 = out.per_proc.iter().map(|c| c.reads + c.writes).sum();
            prop_assert_eq!(counted, 200, "{} {:?}", e.name, cfg);
        }
    }

    #[test]
    fn recorder_finish_equals_push_and_stable_sort(case in arb_bursts()) {
        let (n_procs, bursts) = case;
        let mut recorder = TraceRecorder::new(n_procs);
        let mut oracle = Vec::new();
        for (first, step, addrs) in &bursts {
            let mut burst = recorder.begin(*first, *step);
            for (i, &addr) in addrs.iter().enumerate() {
                burst.push(addr);
                oracle.push(MemRef { time: first.time + i as u64 * step, addr, ..*first });
            }
        }
        oracle.sort_by_key(|r| r.time);
        let recorded = recorder.finish();
        prop_assert_eq!(recorded.refs().collect::<Vec<_>>(), oracle.clone());
        prop_assert_eq!(recorded.len(), oracle.len());
        prop_assert!(recorded.is_sorted());
        let writes = oracle.iter().filter(|r| r.kind == RefKind::Write).count();
        prop_assert_eq!(recorded.write_count(), writes);
        // The same references, one burst each, are the same trace.
        let hand_built: Trace = oracle.into_iter().collect();
        prop_assert_eq!(&recorded, &hand_built);
    }

    #[test]
    fn a_run_records_what_pushing_each_address_records(
        case in arb_bursts(),
        runs in proptest::collection::vec(
            (
                prop_oneof![0u32..1024, (0u32..1024).prop_map(|back| u32::MAX - back)],
                prop_oneof![Just(0u32), Just(2u32), 0u32..1024],
            ),
            40,
        ),
    ) {
        // Each burst's references again, to a run of addresses of its
        // own, recorded as two runs (the first empty for a burst of one
        // reference or none): a run that would end beyond the 32-bit
        // space is moved down to end on `u32::MAX`.
        let (n_procs, bursts) = case;
        let mut by_runs = TraceRecorder::new(n_procs);
        let mut by_words = TraceRecorder::new(n_procs);
        for ((first, step, addrs), &(base, stride)) in bursts.iter().zip(&runs) {
            let count = addrs.len();
            let span = u64::from(stride) * count.saturating_sub(1) as u64;
            let base = u64::from(base).min(u64::from(u32::MAX) - span) as u32;
            let words: Vec<u32> = (0..count as u32).map(|i| base + i * stride).collect();
            let half = count / 2;
            let mut burst = by_runs.begin(*first, *step);
            burst.push_run(base, stride, half);
            burst.push_run(base + half as u32 * stride, stride, count - half);
            let mut burst = by_words.begin(*first, *step);
            words.iter().for_each(|&addr| burst.push(addr));
        }
        let (by_runs, by_words) = (by_runs.finish(), by_words.finish());
        prop_assert_eq!(by_runs.refs().collect::<Vec<_>>(), by_words.refs().collect::<Vec<_>>());
    }

    #[test]
    fn addresses_pushed_one_at_a_time_record_what_runs_of_them_record(
        sweeps in arb_sweeps(),
        bursts in arb_bursts(),
        cuts in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        // Every burst's addresses pushed one at a time, and the same
        // addresses given as runs cut anywhere: piecewise arithmetic
        // sweeps, and bursts of addresses drawn at random.
        for (n_procs, bursts) in [sweeps, bursts] {
            let mut by_words = TraceRecorder::new(n_procs);
            let mut by_runs = TraceRecorder::new(n_procs);
            for (first, step, addrs) in &bursts {
                let mut burst = by_words.begin(*first, *step);
                addrs.iter().for_each(|&addr| burst.push(addr));
                let mut burst = by_runs.begin(*first, *step);
                for (base, stride, count) in runs_of(addrs, &cuts) {
                    burst.push_run(base, stride, count);
                }
            }
            let (by_words, by_runs) = (by_words.finish(), by_runs.finish());
            prop_assert_eq!(by_runs.len(), by_words.len());
            prop_assert_eq!(
                by_runs.refs().collect::<Vec<_>>(),
                by_words.refs().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn merging_sorted_traces_equals_concatenating_and_stable_sorting(
        streams in proptest::collection::vec(arb_trace(4, 16), 0..6),
        recorded in arb_bursts(),
    ) {
        // `arb_trace` stamps position as time, so every stream is sorted
        // and equal times across streams are everywhere. The streams are
        // pushed onto a recorded trace, so that sorting moves bursts of
        // many references too.
        let (n_procs, bursts) = recorded;
        let mut recorder = TraceRecorder::new(n_procs);
        for (first, step, addrs) in &bursts {
            let mut burst = recorder.begin(*first, *step);
            addrs.iter().for_each(|&addr| burst.push(addr));
        }
        let mut concatenated = recorder.finish();
        let mut oracle: Vec<MemRef> = concatenated.refs().collect();
        for r in streams.iter().flat_map(Trace::refs) {
            concatenated.push(r);
            oracle.push(r);
        }
        oracle.sort_by_key(|r| r.time);
        concatenated.sort_by_time();
        prop_assert_eq!(concatenated.refs().collect::<Vec<_>>(), oracle);
    }

    #[test]
    fn hand_built_traces_behave_as_a_list_of_references(
        raw in proptest::collection::vec((0u64..40, 0u32..8, 0u32..64, any::<bool>()), 0..200),
        split in 0usize..200,
    ) {
        // Pushed out of order, with equal times: every query and
        // `sort_by_time` agree with a plain list that is stable-sorted.
        let mut list: Vec<MemRef> = raw
            .iter()
            .map(|&(time, proc, addr, is_write)| {
                let kind = if is_write { RefKind::Write } else { RefKind::Read };
                MemRef::new(time, proc, addr * 2, kind)
            })
            .collect();
        let mut pushed = Trace::new();
        list.iter().for_each(|&r| pushed.push(r));
        let collected: Trace = list.iter().copied().collect();
        prop_assert_eq!(&pushed, &collected);
        prop_assert_eq!(pushed.len(), list.len());
        prop_assert_eq!(pushed.is_empty(), list.is_empty());
        prop_assert_eq!(pushed.is_sorted(), list.windows(2).all(|w| w[0].time <= w[1].time));
        let writes = list.iter().filter(|r| r.kind == RefKind::Write).count();
        prop_assert_eq!(pushed.write_count(), writes);
        // A trace of a prefix is a different trace, unless it is all of it.
        let cut = split.min(list.len());
        let prefix: Trace = list[..cut].iter().copied().collect();
        prop_assert_eq!(prefix == pushed, cut == list.len());
        pushed.sort_by_time();
        list.sort_by_key(|r| r.time);
        prop_assert!(pushed.is_sorted());
        prop_assert_eq!(pushed.refs().collect::<Vec<_>>(), list);
    }

    #[test]
    fn paged_table_backends_match_the_btreemap_reference(
        trace in arb_scattered_trace(),
        line in 0u32..4,
    ) {
        let line_size = 4u32 << line; // 4, 8, 16, 32
        let cfg = MemoryConfig::paper(64, line_size);
        let wbi = reference_stats(&trace, line_size, false);
        let wt = reference_stats(&trace, line_size, true);
        for (backend, want) in [("bus-wbi", wbi), ("bus-wt", wt), ("directory", wbi)] {
            let got = build_memory_model(backend, cfg).unwrap().run(&trace).stats;
            prop_assert_eq!(got, want, "{} at {}-byte lines", backend, line_size);
        }
        prop_assert_eq!(sweep(&trace, line_size), wbi, "the sweep at {}-byte lines", line_size);
    }

    #[test]
    fn byte_attribution_is_exhaustive(trace in arb_trace(8, 256), line in 0u32..4) {
        let line_size = 4u32 << line; // 4, 8, 16, 32
        let stats = sweep(&trace, line_size);
        prop_assert_eq!(
            stats.total_bytes,
            stats.read_caused_bytes + stats.write_caused_bytes,
            "every byte is read- or write-caused"
        );
    }

    #[test]
    fn transfer_counts_are_consistent(trace in arb_trace(8, 256), line in 0u32..4) {
        let line_size = 4u32 << line;
        let stats = sweep(&trace, line_size);
        prop_assert_eq!(
            stats.total_bytes,
            stats.line_fetches * line_size as u64 + stats.word_writes * 4
        );
        prop_assert!(stats.refetches <= stats.line_fetches);
        prop_assert!(stats.refetches <= stats.invalidations);
    }

    #[test]
    fn model_is_deterministic(trace in arb_trace(8, 256)) {
        let a = sweep(&trace, 8);
        let b = sweep(&trace, 8);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn single_processor_never_invalidates(trace in arb_trace(1, 256), line in 0u32..4) {
        let line_size = 4u32 << line;
        let stats = sweep(&trace, line_size);
        prop_assert_eq!(stats.invalidations, 0);
        prop_assert_eq!(stats.refetches, 0);
        // With an infinite cache, one processor fetches each line at most
        // once.
        let distinct_lines = {
            let mut lines: Vec<u32> =
                trace.refs().map(|r| r.addr / line_size).collect();
            lines.sort_unstable();
            lines.dedup();
            lines.len() as u64
        };
        prop_assert!(stats.line_fetches <= distinct_lines);
    }

    #[test]
    fn doubling_line_size_never_increases_fetch_count(trace in arb_trace(8, 256)) {
        // Fetch *count* (not bytes) is monotone non-increasing in line
        // size: a larger line always covers a superset of addresses, so
        // a hit at size L is still a hit at 2L under the same protocol
        // events... which is not strictly true under invalidation, so we
        // assert the weaker, always-true bound: at most the reference
        // count.
        let refs = trace.len() as u64;
        for line_size in [4u32, 8, 16, 32] {
            let stats = sweep(&trace, line_size);
            prop_assert!(stats.line_fetches <= refs);
            prop_assert!(stats.word_writes <= trace.write_count() as u64);
        }
    }

    #[test]
    fn reads_alone_cost_one_fetch_per_line_per_proc(
        procs in 1u32..8,
        addrs in proptest::collection::vec(0u32..128, 1..100),
    ) {
        // A read-only workload has no coherence traffic beyond cold
        // misses: fetches == distinct (proc, line) pairs.
        let mut trace = Trace::new();
        for (i, &a) in addrs.iter().enumerate() {
            trace.push(MemRef::new(i as u64, i as u32 % procs, a * 2, RefKind::Read));
        }
        let stats = sweep(&trace, 8);
        let mut pairs: Vec<(u32, u32)> = trace
            .refs()
            .map(|r| (r.proc, r.addr / 8))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        prop_assert_eq!(stats.line_fetches, pairs.len() as u64);
        prop_assert_eq!(stats.word_writes, 0);
        prop_assert_eq!(stats.write_caused_bytes, 0);
    }

    #[test]
    fn every_backend_agrees_on_per_proc_counts(trace in arb_trace(6, 128), line in 0u32..3) {
        // The backends disagree on traffic, never on what the processors
        // did: per-processor read/write counts are a property of the
        // trace alone.
        let line_size = 4u32 << line;
        let n_procs = trace.refs().map(|r| r.proc + 1).max().unwrap_or(1);
        let mut per_backend = Vec::new();
        for e in memory_registry() {
            let out = e.build(MemoryConfig::paper(n_procs, line_size)).expect("valid").run(&trace);
            let reads: u64 = out.per_proc.iter().map(|p| p.reads).sum();
            let writes: u64 = out.per_proc.iter().map(|p| p.writes).sum();
            prop_assert_eq!(reads + writes, trace.len() as u64, "{}", e.name);
            per_backend.push((e.name, out.per_proc));
        }
        for pair in per_backend.windows(2) {
            prop_assert_eq!(
                &pair[0].1, &pair[1].1,
                "{} and {} disagree on per-proc counts", pair[0].0, pair[1].0
            );
        }
    }

    #[test]
    fn single_processor_traces_have_no_coherence_traffic_on_any_backend(
        trace in arb_trace(1, 128),
        line in 0u32..3,
    ) {
        // With one processor there is nobody to invalidate: every backend
        // must report zero coherence events and zero invalidation
        // transport, whatever the line size.
        for e in memory_registry() {
            let out = e.build(MemoryConfig::paper(1, 4u32 << line)).expect("valid").run(&trace);
            prop_assert_eq!(out.coherence_events(), 0, "{}", e.name);
            prop_assert_eq!(out.invalidation_traffic_bytes, 0, "{}", e.name);
        }
    }

    #[test]
    fn directory_unicast_never_exceeds_bus_broadcast(
        trace in arb_trace(8, 64),
        line in 0u32..3,
    ) {
        // The directory sends each invalidation to the actual holders
        // only; the bus broadcasts every announced write to all P-1
        // other caches. Same line semantics, so data traffic is
        // identical and the unicast transport can never cost more.
        let line_size = 4u32 << line;
        let n_procs = trace.refs().map(|r| r.proc + 1).max().unwrap_or(1);
        let cfg = MemoryConfig::paper(n_procs, line_size);
        let bus = build_memory_model("bus-wbi", cfg).unwrap().run(&trace);
        let dir = build_memory_model("directory", cfg).unwrap().run(&trace);
        prop_assert_eq!(bus.stats.clone(), dir.stats.clone());
        prop_assert!(dir.invalidation_traffic_bytes <= bus.invalidation_traffic_bytes);
    }

    #[test]
    fn criticality_tags_affect_scheduling_not_traffic(
        refs in proptest::collection::vec((0u32..6, 0u32..64, any::<bool>(), any::<bool>()), 1..300),
    ) {
        // Tagging requests critical reorders the service queue; it must
        // never change what the memory system transfers, and
        // critical-first service must never leave critical requests
        // waiting longer than FIFO did.
        let mut plain = Trace::new();
        let mut tagged = Trace::new();
        for (i, &(proc, addr, is_write, crit)) in refs.iter().enumerate() {
            let kind = if is_write { RefKind::Write } else { RefKind::Read };
            let r = MemRef::new(i as u64, proc, addr * 2, kind);
            plain.push(r);
            tagged.push(if crit { r.with_criticality(Criticality::Critical) } else { r });
        }
        for e in memory_registry() {
            let a = e.build(MemoryConfig::paper(6, 8)).expect("valid").run(&plain);
            let b = e.build(MemoryConfig::paper(6, 8)).expect("valid").run(&tagged);
            prop_assert_eq!(a.stats.clone(), b.stats.clone(), "{}", e.name);
            prop_assert_eq!(a.invalidation_traffic_bytes, b.invalidation_traffic_bytes);
            prop_assert!(
                b.critical_first.critical.total_wait_ns <= b.fifo.critical.total_wait_ns,
                "{}: critical-first hurt critical requests", e.name
            );
        }
    }
}
