//! The Write-Back-with-Invalidate protocol state machine and bus-byte
//! accounting.

use crate::model::MemoryConfig;
use crate::table::LineState;
use crate::trace::RefKind;

/// Size of the bus word write that announces a write (bytes).
pub(crate) const WORD_BYTES: u64 = 4;

/// The coherence protocol a registered backend simulates; the backend's
/// name chooses it.
///
/// The paper evaluates Write-Back-with-Invalidate (citing Archibald &
/// Baer's comparative study); the write-through variant is provided as an
/// ablation — it is the other classic point in that study's design space
/// and shows why write-back was the sensible choice for this workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Protocol {
    /// Write-Back with Invalidate: first write to a clean line announces
    /// itself with one bus word and invalidates other copies; subsequent
    /// writes to the now-dirty line are free.
    WriteBackInvalidate,
    /// Write-through: *every* write puts a word on the bus and
    /// invalidates other copies; lines are never dirty.
    WriteThrough,
    /// Directory-based MSI: WBI line semantics, but invalidations are
    /// unicast from the line's home node to the actual holders.
    Directory,
    /// Directoryless shared LLC (arXiv:1206.4753): no private copies of
    /// shared lines, every access is a word transfer to the line's home
    /// tile, so no invalidations or refetches ever happen.
    DirectorylessLlc,
}

impl Protocol {
    /// Processors the backend can tell apart: 64 where holders are a
    /// bitmask. Nothing bounds `dls` but the per-processor counts a run
    /// allocates up front, so it stops at 2^16 (1 MiB of them).
    pub(crate) fn max_procs(&self) -> u32 {
        match self {
            Protocol::DirectorylessLlc => 1 << 16,
            _ => u64::BITS,
        }
    }
}

/// Bus traffic measured over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// All bytes moved on the shared bus.
    pub total_bytes: u64,
    /// Bytes attributable to reads (cold fetches by read accesses).
    pub read_caused_bytes: u64,
    /// Bytes attributable to writes: bus word writes, write-miss fetches,
    /// and refetches of invalidated lines (§5.2's ">80% of the bytes
    /// transferred are caused by writes").
    pub write_caused_bytes: u64,
    /// Whole-line transfers.
    pub line_fetches: u64,
    /// Bus word writes (first write to a clean line).
    pub word_writes: u64,
    /// Cache-line invalidations performed in other caches.
    pub invalidations: u64,
    /// Line fetches that re-load a previously invalidated copy.
    pub refetches: u64,
}

impl TrafficStats {
    /// Traffic in megabytes (10^6 bytes), as the tables report.
    pub fn mbytes(&self) -> f64 {
        self.total_bytes as f64 / 1e6
    }

    /// Fraction of bytes caused by writes.
    pub fn write_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.write_caused_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Accounts one transition of a `kind` reference and returns the
    /// bytes it moved. A read's cold fetch is read-caused; everything
    /// else, refetches of invalidated copies included, is write-caused.
    #[inline]
    pub(crate) fn charge(&mut self, t: &Transition, kind: RefKind, cfg: &MemoryConfig) -> u64 {
        let (line, word) = (cfg.line_size as u64, WORD_BYTES);
        let mut moved = 0;
        if t.fetched {
            self.line_fetches += 1;
            self.refetches += t.refetch as u64;
            if kind == RefKind::Read && !t.refetch {
                self.read_caused_bytes += line;
            } else {
                self.write_caused_bytes += line;
            }
            moved += line;
        }
        if t.announced {
            self.word_writes += 1;
            self.write_caused_bytes += word;
            self.invalidations += t.copies() as u64;
            moved += word;
        }
        self.total_bytes += moved;
        moved
    }
}

/// What one reference did to its line, as [`transition`] reports it.
/// Byte counts and statistics are derived from this, so every backend
/// prices the same state machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Transition {
    /// The access missed and fetched the whole line.
    pub fetched: bool,
    /// The fetch re-loaded a copy an earlier write had invalidated.
    pub refetch: bool,
    /// A bus word announced the write.
    pub announced: bool,
    /// Holders whose copies the announcement invalidated.
    pub invalidated: u64,
}

impl Transition {
    /// Whether the access stayed inside the private cache.
    #[inline]
    pub(crate) fn is_hit(&self) -> bool {
        !self.fetched && !self.announced
    }

    /// Copies invalidated in other caches.
    #[inline]
    pub(crate) fn copies(&self) -> u32 {
        self.invalidated.count_ones()
    }
}

/// The one Write-Back-with-Invalidate / write-through state machine:
/// applies `proc`'s reference to the line and reports what it cost.
/// [`Protocol::WriteThrough`] never leaves a line dirty, so every write
/// is announced; every other protocol has WBI line semantics.
///
/// `proc` must be below 64 (the holder bitmask); the replay loop checks
/// that when a processor first appears, not per reference.
#[inline]
pub(crate) fn transition(
    st: &mut LineState,
    proc: u32,
    kind: RefKind,
    protocol: Protocol,
) -> Transition {
    // Wrapping, so that an out-of-range `proc` reaches the caller's check
    // instead of a debug-only overflow panic here.
    let pbit = 1u64.wrapping_shl(proc);
    let held = st.holders & pbit != 0;
    let mut t = Transition::default();
    match kind {
        RefKind::Read => {
            if held {
                return t; // hit (dirty-by-us implies the holder bit too)
            }
            // A dirty owner supplies the line, which becomes
            // shared-clean (memory is updated in passing).
            st.dirty = None;
            st.holders |= pbit;
        }
        RefKind::Write => {
            let write_through = protocol == Protocol::WriteThrough;
            if !write_through && st.dirty == Some(proc) {
                return t; // exclusive dirty hit: pure cache write
            }
            // First write to a clean copy (any write, under
            // write-through): one bus word announces it and every other
            // copy is invalidated.
            t.announced = true;
            t.invalidated = st.holders & !pbit;
            st.invalidated |= t.invalidated;
            st.holders = pbit;
            st.dirty = if write_through { None } else { Some(proc) };
        }
    }
    if !held {
        t.fetched = true;
        t.refetch = st.invalidated & pbit != 0;
        st.invalidated &= !pbit;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::traffic_by_line_size;
    use crate::model::build_memory_model;
    use crate::trace::{MemRef, Trace};
    use locus_obs::{EventKind as ObsKind, Obs, SharedSink};

    /// A bus backend fed one reference at a time, one time unit apart;
    /// [`Bus::stats`] replays everything fed so far.
    struct Bus {
        backend: &'static str,
        line: u32,
        refs: Vec<MemRef>,
    }

    impl Bus {
        fn step(&mut self, proc: u32, addr: u32, kind: RefKind) {
            self.refs.push(MemRef::new(self.refs.len() as u64, proc, addr, kind));
        }

        fn stats(&self) -> TrafficStats {
            let cfg = MemoryConfig::paper(64, self.line);
            let trace: Trace = self.refs.iter().copied().collect();
            build_memory_model(self.backend, cfg).expect("registered").run(&trace).stats
        }
    }

    fn sim(line: u32) -> Bus {
        Bus { backend: "bus-wbi", line, refs: Vec::new() }
    }

    /// The write-through ablation at `line`-byte lines.
    fn write_through(line: u32) -> Bus {
        Bus { backend: "bus-wt", ..sim(line) }
    }

    /// Table 3's sweep at one line size.
    fn sweep(trace: &Trace, line: u32) -> TrafficStats {
        traffic_by_line_size(trace, &[line])[0].1
    }

    #[test]
    fn cold_read_fetches_once() {
        let mut s = sim(8);
        s.step(0, 0, RefKind::Read);
        s.step(0, 4, RefKind::Read); // same 8-byte line: hit
        assert_eq!(s.stats().line_fetches, 1);
        assert_eq!(s.stats().total_bytes, 8);
        assert_eq!(s.stats().read_caused_bytes, 8);
    }

    #[test]
    fn write_hit_on_clean_costs_one_word() {
        let mut s = sim(8);
        s.step(0, 0, RefKind::Read); // fetch
        s.step(0, 0, RefKind::Write); // word write, now dirty
        s.step(0, 4, RefKind::Write); // dirty hit: free
        assert_eq!(s.stats().word_writes, 1);
        assert_eq!(s.stats().total_bytes, 8 + 4);
    }

    #[test]
    fn cold_write_fetches_line_and_writes_word() {
        let mut s = sim(8);
        s.step(0, 0, RefKind::Write);
        assert_eq!(s.stats().line_fetches, 1);
        assert_eq!(s.stats().word_writes, 1);
        assert_eq!(s.stats().total_bytes, 8 + 4);
        assert_eq!(s.stats().write_caused_bytes, 12);
        assert_eq!(s.stats().read_caused_bytes, 0);
    }

    #[test]
    fn write_invalidates_other_copies_and_forces_refetch() {
        let mut s = sim(8);
        s.step(0, 0, RefKind::Read);
        s.step(1, 0, RefKind::Read);
        s.step(0, 0, RefKind::Write); // invalidates proc 1
        assert_eq!(s.stats().invalidations, 1);
        let before = s.stats().total_bytes;
        s.step(1, 0, RefKind::Read); // refetch
        assert_eq!(s.stats().refetches, 1);
        assert_eq!(s.stats().total_bytes, before + 8);
        // The refetch is write-caused.
        assert_eq!(s.stats().write_caused_bytes, 4 + 8);
    }

    #[test]
    fn dirty_line_read_by_other_becomes_shared() {
        let mut s = sim(8);
        s.step(0, 0, RefKind::Write); // proc 0 dirty
        s.step(1, 0, RefKind::Read); // supplied, both clean
        let bytes = s.stats().total_bytes;
        // Proc 0 writing again must now pay the word write again.
        s.step(0, 0, RefKind::Write);
        assert_eq!(s.stats().total_bytes, bytes + 4);
        assert_eq!(s.stats().invalidations, 1, "proc 1's copy invalidated");
    }

    #[test]
    fn ping_pong_writes_generate_per_iteration_traffic() {
        let mut s = sim(8);
        s.step(0, 0, RefKind::Write);
        s.step(1, 0, RefKind::Write);
        s.step(0, 0, RefKind::Write);
        s.step(1, 0, RefKind::Write);
        // Every ownership transfer refetches the line and word-writes.
        assert_eq!(s.stats().word_writes, 4);
        assert_eq!(s.stats().line_fetches, 4);
        assert_eq!(s.stats().refetches, 2);
    }

    #[test]
    fn false_sharing_grows_with_line_size() {
        // Proc 0 writes addr 0; proc 1 reads addr 28 repeatedly. With
        // 4-byte lines they never interact; with 32-byte lines every
        // write invalidates proc 1's copy.
        let make_trace = || -> Trace {
            (0..50u64)
                .flat_map(|i| {
                    [
                        MemRef::new(2 * i, 0, 0, RefKind::Write),
                        MemRef::new(2 * i + 1, 1, 28, RefKind::Read),
                    ]
                })
                .collect()
        };
        let small = sweep(&make_trace(), 4);
        let large = sweep(&make_trace(), 32);
        assert!(
            large.total_bytes > 4 * small.total_bytes,
            "false sharing must inflate traffic: {} vs {}",
            large.total_bytes,
            small.total_bytes
        );
        assert!(large.refetches > 0);
        assert_eq!(small.refetches, 0);
    }

    #[test]
    fn write_fraction_reflects_churn() {
        // One cold read, then a long write ping-pong.
        let ping_pong = (0..100u64).map(|i| MemRef::new(i + 1, (i % 2) as u32, 0, RefKind::Write));
        let t: Trace =
            std::iter::once(MemRef::new(0, 0, 0, RefKind::Read)).chain(ping_pong).collect();
        let stats = sweep(&t, 8);
        assert!(stats.write_fraction() > 0.8, "churn trace must be write-dominated");
    }

    /// The bytes of the `MemRequest` events a bus run records sum to its
    /// traffic, one request per bus transaction.
    #[test]
    fn sink_counters_cross_check_traffic_stats() {
        let t: Trace = (0..200u64)
            .map(|i| {
                let kind = if i % 3 == 0 { RefKind::Read } else { RefKind::Write };
                MemRef::new(i, (i % 4) as u32, ((i * 7) % 96) as u32, kind)
            })
            .collect();
        for backend in ["bus-wbi", "bus-wt"] {
            let sink = SharedSink::new();
            let out = build_memory_model(backend, MemoryConfig::paper(4, 8))
                .expect("registered")
                .run_observed(&t, &Obs::to(&sink));
            let bytes: u64 = sink
                .snapshot_events()
                .iter()
                .map(|e| match e.kind {
                    ObsKind::MemRequest { bytes, .. } => bytes as u64,
                    _ => 0,
                })
                .sum();
            assert_eq!(bytes, out.stats.total_bytes, "{backend}");
            let requests = sink.metrics_snapshot().counter("mem_requests");
            assert_eq!(requests, out.fifo.all().requests, "{backend}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lines() {
        let _ = traffic_by_line_size(&Trace::new(), &[12]);
    }

    /// No shift finds the lines of a zero line size; the sweep refuses it.
    #[test]
    #[should_panic(expected = "power of two")]
    fn simulator_rejects_a_zero_line_set_through_the_public_field() {
        let _ = traffic_by_line_size(&Trace::new(), &[0]);
    }

    #[test]
    fn a_stray_address_at_the_top_of_the_space_is_just_another_line() {
        let mut s = sim(8);
        s.step(0, u32::MAX, RefKind::Read);
        s.step(1, u32::MAX - 1, RefKind::Write); // same line: fetch, word, invalidate
        s.step(0, 0, RefKind::Read);
        assert_eq!(s.stats().line_fetches, 3);
        assert_eq!(s.stats().invalidations, 1);
        assert_eq!(s.stats().total_bytes, 3 * 8 + 4);
    }

    #[test]
    #[should_panic(expected = "64 processors")]
    fn run_rejects_a_processor_the_bitmask_cannot_name() {
        let t: Trace = [
            MemRef::new(0, 3, 0, RefKind::Read),
            MemRef::new(1, 64, 0, RefKind::Write),
            MemRef::new(2, 5, 0, RefKind::Read),
        ]
        .into_iter()
        .collect();
        let _ = sweep(&t, 8);
    }

    #[test]
    fn transition_reports_what_each_access_cost() {
        let wbi = Protocol::WriteBackInvalidate;
        let mut st = LineState::default();
        let hit = Transition::default();
        let miss = Transition { fetched: true, ..hit };
        assert_eq!(transition(&mut st, 0, RefKind::Read, wbi), miss);
        assert_eq!(transition(&mut st, 0, RefKind::Read, wbi), hit);
        assert_eq!(transition(&mut st, 1, RefKind::Read, wbi), miss);
        // Processor 0 writes its clean copy: a word, and processor 1 loses its copy.
        let announce = Transition { announced: true, invalidated: 0b10, ..hit };
        assert_eq!(transition(&mut st, 0, RefKind::Write, wbi), announce);
        assert_eq!(transition(&mut st, 0, RefKind::Write, wbi), hit, "dirty hit");
        // Under write-through the same second write is announced again.
        let again = Transition { announced: true, ..hit };
        assert_eq!(transition(&mut st, 0, RefKind::Write, Protocol::WriteThrough), again);
        // Processor 1 comes back: a refetch, and as a write also an announcement.
        let back = Transition { fetched: true, refetch: true, announced: true, invalidated: 0b01 };
        assert_eq!(transition(&mut st, 1, RefKind::Write, wbi), back);
        assert!(hit.is_hit() && !miss.is_hit() && !announce.is_hit());
        assert_eq!(back.copies(), 1);
    }

    /// The bus requests of a small trace under WBI and write-through: one
    /// per miss or announcement, carrying the bytes that the miss and bus
    /// events of the same reference summed to when the simulator still
    /// recorded those (commit 6d742c0).
    #[test]
    fn obs_event_sequence_is_unchanged() {
        let refs: [(u32, u32, RefKind); 12] = [
            (0, 0, RefKind::Read),
            (1, 4, RefKind::Read),
            (0, 0, RefKind::Write),
            (0, 4, RefKind::Write),
            (1, 0, RefKind::Read),
            (2, 2, RefKind::Write),
            (1, 6, RefKind::Write),
            (0, 16, RefKind::Write),
            (2, 16, RefKind::Read),
            (2, 18, RefKind::Write),
            (0, 0, RefKind::Read),
            (0, 0, RefKind::Read),
        ];
        let trace: Trace = refs
            .iter()
            .enumerate()
            .map(|(i, &(proc, addr, kind))| MemRef::new(10 * i as u64, proc, addr, kind))
            .collect();
        let render = |e: &locus_obs::Event| match e.kind {
            ObsKind::MemRequest { resource: 0, bytes, critical: false } => {
                format!("{}@p{} {bytes}", e.at_ns, e.node)
            }
            other => format!("{other:?}"),
        };
        #[rustfmt::skip]
        let wbi = [
            "0@p0 8", "10@p1 8", "20@p0 4", "40@p1 8", "50@p2 12",
            "60@p1 12", "70@p0 12", "80@p2 8", "90@p2 4", "100@p0 8",
        ];
        // Write-through differs in one request: the store at t=30 hits a
        // line processor 0 already owns, and is announced all the same.
        let mut wt = wbi.to_vec();
        wt.insert(3, "30@p0 4");
        for (backend, want) in [("bus-wbi", wbi.to_vec()), ("bus-wt", wt)] {
            let sink = SharedSink::new();
            build_memory_model(backend, MemoryConfig::paper(3, 8))
                .expect("registered")
                .run_observed(&trace, &Obs::to(&sink));
            let got: Vec<String> = sink.snapshot_events().iter().map(render).collect();
            assert_eq!(got, want, "{backend}");
        }
    }

    #[test]
    fn write_through_pays_per_write() {
        let mut s = write_through(8);
        s.step(0, 0, RefKind::Write); // fetch + word
        s.step(0, 0, RefKind::Write); // word (no dirty state exists)
        s.step(0, 4, RefKind::Write); // word
        assert_eq!(s.stats().word_writes, 3);
        assert_eq!(s.stats().line_fetches, 1);
        assert_eq!(s.stats().total_bytes, 8 + 3 * 4);
    }

    #[test]
    fn write_through_invalidates_and_forces_refetch() {
        let mut s = write_through(8);
        s.step(1, 0, RefKind::Read);
        s.step(0, 0, RefKind::Write);
        assert_eq!(s.stats().invalidations, 1);
        s.step(1, 0, RefKind::Read);
        assert_eq!(s.stats().refetches, 1);
    }

    #[test]
    fn write_through_never_cheaper_than_write_back_on_write_heavy_traces() {
        let t: Trace = (0..200u64)
            .map(|i| {
                let kind = if i % 3 == 0 { RefKind::Read } else { RefKind::Write };
                MemRef::new(i, (i % 4) as u32, ((i * 3) % 64) as u32 * 2, kind)
            })
            .collect();
        for line in [4u32, 8, 32] {
            let wb = sweep(&t, line);
            let wt = Bus { refs: t.refs().collect(), ..write_through(line) }.stats();
            assert!(
                wt.total_bytes >= wb.total_bytes,
                "line {line}: WT {} < WB {}",
                wt.total_bytes,
                wb.total_bytes
            );
            assert!(wt.word_writes >= wb.word_writes);
        }
    }
}
