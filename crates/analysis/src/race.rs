//! Race detection over shared-reference traces.
//!
//! The detector replays a time-sorted [`Trace`] and flags every pair of
//! conflicting cost-array accesses (same address, different processors,
//! at least one write) that is not ordered by happens-before. The
//! routers synchronize only at the barrier between rip-up iterations
//! (paper §3), which the producers record as the per-reference `epoch`
//! field, so one processor's access happens-before another's exactly
//! when its epoch is earlier: a conflicting pair races iff both accesses
//! ran in one epoch.
//!
//! References are processed in barrier-epoch-major order (stable within
//! an epoch), which places every barrier exactly even when producer
//! timestamps tie across it. Because membership of a pair in a race
//! only depends on *which epoch* each access ran in and *which
//! processor* issued it — never on the sub-epoch interleaving — the set
//! of reported races is invariant under stable reorderings of same-time
//! references, a property the crate's proptests pin down.
//!
//! Shadow state is per-address, per-processor *last* read and write
//! (the FastTrack compression): a racing address is reported once per
//! `(address, epoch, processor pair, access kinds)`, not once per
//! dynamic occurrence.

use std::collections::{BTreeMap, BTreeSet};

use locus_coherence::{MemRef, RefKind, Trace};

/// Which kinds of access collide in a race pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RaceKind {
    /// Two unordered writes (rip-up / commit increments colliding).
    WriteWrite,
    /// An unordered read–write pair (a candidate evaluation racing a
    /// commit or rip-up).
    ReadWrite,
}

/// One detected (deduplicated) race pair.
#[derive(Clone, Debug)]
pub struct RacePair {
    /// Byte address of the contested cost-array cell.
    pub addr: u32,
    /// Barrier epoch both accesses ran in.
    pub epoch: u32,
    /// The access that reached the detector first, with its index into
    /// the analysed trace.
    pub first: MemRef,
    /// Trace index of `first`.
    pub first_idx: usize,
    /// The access that completed the pair.
    pub second: MemRef,
    /// Trace index of `second`.
    pub second_idx: usize,
    /// Write/write or read/write.
    pub kind: RaceKind,
}

impl RacePair {
    /// The write side of the pair (for write/write pairs: the second
    /// access, whose replay position classification uses).
    pub(crate) fn write_ref(&self) -> MemRef {
        match self.kind {
            RaceKind::WriteWrite => self.second,
            RaceKind::ReadWrite => {
                if self.first.kind == RefKind::Write {
                    self.first
                } else {
                    self.second
                }
            }
        }
    }

    /// The read side of a read/write pair.
    pub(crate) fn read_ref(&self) -> Option<MemRef> {
        match self.kind {
            RaceKind::WriteWrite => None,
            RaceKind::ReadWrite => {
                if self.first.kind == RefKind::Read {
                    Some(self.first)
                } else {
                    Some(self.second)
                }
            }
        }
    }

    /// The wire whose route decision the race touched: the read's for a
    /// read/write pair, the later access's for a write/write pair.
    pub fn wire(&self) -> u32 {
        self.read_ref().unwrap_or(self.second).wire
    }

    /// Deduplication identity: address, epoch, unordered processor
    /// pair, and access kinds.
    pub fn key(&self) -> RaceKey {
        let (lo, hi) = if self.first.proc <= self.second.proc {
            (self.first.proc, self.second.proc)
        } else {
            (self.second.proc, self.first.proc)
        };
        (self.addr, self.epoch, lo, hi, self.kind)
    }
}

/// See [`RacePair::key`].
pub type RaceKey = (u32, u32, u32, u32, RaceKind);

/// What the detector found in one trace.
#[derive(Clone, Debug, Default)]
pub struct DetectionResult {
    /// References analysed.
    pub refs: usize,
    /// Barrier epochs that appear in the trace.
    pub epochs: u32,
    /// Cross-processor conflicting pairs that *were* ordered by a
    /// barrier (counted against last-access shadow state, like the
    /// races).
    pub synchronized_pairs: u64,
    /// Unordered conflicting pairs, one per [`RacePair::key`].
    pub races: Vec<RacePair>,
}

/// Last access by one processor to one address.
#[derive(Clone, Copy)]
struct Access {
    r: MemRef,
    idx: usize,
}

/// Per-address shadow cell: last write and last read per proc.
struct Shadow {
    writes: Vec<Option<Access>>,
    reads: Vec<Option<Access>>,
}

/// Runs race detection over `trace`, in its time order.
pub fn detect(trace: &Trace) -> DetectionResult {
    let refs: Vec<MemRef> = trace.refs().collect();
    let n_procs = refs.iter().map(|r| r.proc as usize + 1).max().unwrap_or(0);
    let epochs = refs.iter().map(|r| u32::from(r.epoch) + 1).max().unwrap_or(0);
    let mut result = DetectionResult { refs: refs.len(), epochs, ..Default::default() };

    // Epoch-major processing order (stable: time order within an epoch,
    // program order per processor). For well-formed traces every
    // epoch-e timestamp precedes every epoch-(e+1) timestamp and this
    // sort is the identity; it exists to make barrier placement exact
    // when timestamps tie across a barrier.
    let mut order: Vec<usize> = (0..refs.len()).collect();
    order.sort_by_key(|&i| refs[i].epoch);

    let mut shadow: BTreeMap<u32, Shadow> = BTreeMap::new();
    let mut seen: BTreeSet<RaceKey> = BTreeSet::new();

    for &i in &order {
        let r = refs[i];
        let p = r.proc as usize;
        let cell = shadow
            .entry(r.addr)
            .or_insert_with(|| Shadow { writes: vec![None; n_procs], reads: vec![None; n_procs] });

        // Conflict checks against every other processor's last write
        // and, for a write, last read. Epoch-major order means the prior
        // access's epoch is at most this one's: a barrier orders the pair
        // iff it is earlier.
        let is_write = r.kind == RefKind::Write;
        let write_kind = if is_write { RaceKind::WriteWrite } else { RaceKind::ReadWrite };
        for q in (0..n_procs).filter(|&q| q != p) {
            let prior_read = cell.reads[q].filter(|_| is_write);
            for (prior, kind) in [(cell.writes[q], write_kind), (prior_read, RaceKind::ReadWrite)] {
                match prior {
                    Some(prior) if prior.r.epoch < r.epoch => result.synchronized_pairs += 1,
                    Some(prior) => push_race(&mut result.races, &mut seen, prior, r, i, kind),
                    None => {}
                }
            }
        }

        let access = Access { r, idx: i };
        match r.kind {
            RefKind::Write => cell.writes[p] = Some(access),
            RefKind::Read => cell.reads[p] = Some(access),
        }
    }
    result
}

fn push_race(
    races: &mut Vec<RacePair>,
    seen: &mut BTreeSet<RaceKey>,
    prior: Access,
    r: MemRef,
    idx: usize,
    kind: RaceKind,
) {
    let pair = RacePair {
        addr: r.addr,
        epoch: r.epoch.into(),
        first: prior.r,
        first_idx: prior.idx,
        second: r,
        second_idx: idx,
        kind,
    };
    if seen.insert(pair.key()) {
        races.push(pair);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wref(time: u64, proc: u32, addr: u32, epoch: u32, delta: i8) -> MemRef {
        MemRef::new(time, proc, addr, RefKind::Write).with_epoch(epoch).unwrap().with_delta(delta)
    }

    fn rref(time: u64, proc: u32, addr: u32, epoch: u32, wire: u32) -> MemRef {
        MemRef::new(time, proc, addr, RefKind::Read).with_epoch(epoch).unwrap().with_wire(wire)
    }

    #[test]
    fn empty_trace_has_no_races() {
        let d = detect(&Trace::new());
        assert_eq!(d.refs, 0);
        assert!(d.races.is_empty());
        assert_eq!(d.synchronized_pairs, 0);
    }

    #[test]
    fn single_processor_never_races() {
        let t: Trace =
            [wref(0, 0, 4, 0, 1), rref(1, 0, 4, 0, 7), wref(2, 0, 4, 0, -1), wref(3, 0, 4, 1, 1)]
                .into_iter()
                .collect();
        let d = detect(&t);
        assert!(d.races.is_empty());
        assert_eq!(d.synchronized_pairs, 0, "same-proc pairs are not counted");
    }

    #[test]
    fn same_epoch_cross_proc_conflicts_race() {
        let t: Trace =
            [wref(0, 0, 8, 0, 1), rref(5, 1, 8, 0, 3), wref(9, 1, 8, 0, 1)].into_iter().collect();
        let d = detect(&t);
        let kinds: Vec<RaceKind> = d.races.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RaceKind::ReadWrite));
        assert!(kinds.contains(&RaceKind::WriteWrite));
        assert_eq!(d.synchronized_pairs, 0);
    }

    #[test]
    fn barrier_orders_cross_epoch_conflicts() {
        let t: Trace =
            [wref(0, 0, 8, 0, 1), wref(10, 1, 8, 1, 1), rref(11, 1, 8, 1, 2)].into_iter().collect();
        let d = detect(&t);
        assert!(d.races.is_empty(), "{:?}", d.races);
        // proc 1's write and read each find proc 0's write barrier-ordered.
        assert_eq!(d.synchronized_pairs, 2);
        assert_eq!(d.epochs, 2);
    }

    #[test]
    fn reads_do_not_conflict_with_reads() {
        let t: Trace =
            [rref(0, 0, 8, 0, 1), rref(1, 1, 8, 0, 2), rref(2, 2, 8, 0, 3)].into_iter().collect();
        let d = detect(&t);
        assert!(d.races.is_empty());
        assert_eq!(d.synchronized_pairs, 0);
    }

    #[test]
    fn races_are_deduplicated_by_key() {
        // Two procs ping-ponging writes on one addr in one epoch: many
        // dynamic conflicts, one reported WW pair.
        let t: Trace = (0..10).map(|i| wref(i, (i % 2) as u32, 8, 0, 1)).collect();
        let d = detect(&t);
        assert_eq!(d.races.len(), 1);
        assert_eq!(d.races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn race_pair_accessors_identify_sides() {
        let t: Trace = [wref(0, 0, 8, 0, -1), rref(5, 1, 8, 0, 3)].into_iter().collect();
        let d = detect(&t);
        assert_eq!(d.races.len(), 1);
        let pair = &d.races[0];
        assert_eq!(pair.kind, RaceKind::ReadWrite);
        assert_eq!(pair.write_ref().delta, -1);
        assert_eq!(pair.read_ref().expect("rw pair has a read").wire, 3);
    }

    #[test]
    fn epoch_major_order_tolerates_timestamp_ties_at_barriers() {
        // An epoch-1 ref and an epoch-0 ref share time 10; whichever
        // order they appear in, the epoch-0 pair (procs 0,1 on addr 8)
        // must race and the epoch-1 access must be barrier-ordered.
        for flip in [false, true] {
            let mut a = vec![wref(0, 0, 8, 0, 1), wref(10, 1, 8, 0, 1), wref(10, 2, 8, 1, 1)];
            if flip {
                a.swap(1, 2);
            }
            let t: Trace = a.into_iter().collect();
            let d = detect(&t);
            assert_eq!(d.races.len(), 1, "flip={flip}");
            let k = d.races[0].key();
            assert_eq!((k.2, k.3), (0, 1), "flip={flip}");
        }
    }
}
