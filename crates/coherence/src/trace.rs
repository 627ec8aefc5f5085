//! Shared-data reference traces (the Tango interface, paper §2.2).
//!
//! "These traces contain all shared data references made by the program
//! during execution. For each reference, the time, address, and
//! referencing processor are recorded."
//!
//! Beyond the paper's minimal triple, each reference also carries the
//! synchronization context the race analyser needs: the barrier-delimited
//! *epoch* in which the access happened, the *wire* being routed when it
//! happened, and (for writes) the signed *delta* the store applied to the
//! cost cell. Producers that predate the analyser can leave the extras at
//! their defaults via [`MemRef::new`].
//!
//! A [`Trace`] stores *bursts*, not references. A burst is a run of
//! references by one processor that share everything but their address
//! and, linearly, their time: one rip-up, candidate sweep or commit. Its
//! header is its first [`MemRef`], its time step, its length and where
//! its addresses begin, and its addresses are *runs*: evenly spaced
//! addresses stored as a base, a stride and a count. A span query's
//! cells are one run, and so are a route's cells along a row. The order
//! of the references is stored as *batches of rounds*: a batch names a
//! rotation of bursts, and each of its rounds gives the next reference of
//! a burst for each time the rotation names it. The emulator records
//! bursts into a [`TraceRecorder`], and [`TraceRecorder::finish`] merges
//! the per-processor streams in one pass that finds those batches.
//! [`Trace::refs`] expands the order, rebuilding each [`MemRef`] from its
//! burst's header and each address from its run. Nothing in a trace is
//! stored per reference. [`Trace::push`] and `collect` make
//! one-reference bursts, for hand-built traces.

use std::fmt;

/// Whether a reference reads or writes shared data.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum RefKind {
    /// Load from shared memory.
    Read,
    /// Store to shared memory.
    Write,
}

/// How urgently the memory system must service a reference.
///
/// The router's accesses split into two classes: rip-up/commit stores on
/// the wire currently being routed gate every other processor's view of
/// the cost array (the route decision is unusable until they land), while
/// candidate-sweep loads are speculative, prefetch-like traffic — most
/// candidates lose. Criticality-aware backends service [`Critical`]
/// requests ahead of queued [`Background`] ones (arXiv:1606.05933).
///
/// [`Critical`]: Criticality::Critical
/// [`Background`]: Criticality::Background
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum Criticality {
    /// Speculative / streaming traffic; can absorb queueing delay.
    #[default]
    Background,
    /// The issuing processor (and its readers) are blocked on this.
    Critical,
}

/// One shared-data reference: 24 bytes (8 of time, 4 each of processor,
/// address and wire, one each of kind, epoch, delta and criticality). A
/// trace of millions is streamed start to end by every consumer and costs
/// more to fault in than to fill, so the record's size is host time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemRef {
    /// Logical time of the reference (ns of the emulated execution).
    pub time: u64,
    /// Referencing processor.
    pub proc: u32,
    /// Byte address within the shared region.
    pub addr: u32,
    /// Read or write.
    pub kind: RefKind,
    /// Barrier-delimited synchronization epoch (routing iteration).
    /// Accesses in different epochs are ordered by the barrier between
    /// them; accesses in the same epoch on different processors are not.
    /// Set through [`MemRef::with_epoch`], which checks the range.
    pub epoch: u8,
    /// Wire being routed when the access happened, or [`MemRef::NO_WIRE`]
    /// when the access is not attributable to a single wire.
    pub wire: u32,
    /// Signed value change applied by a write (+1 commit, -1 rip-up);
    /// zero for reads.
    pub delta: i8,
    /// Service-priority class of the reference (see [`Criticality`]).
    pub crit: Criticality,
}

impl MemRef {
    /// Sentinel for [`MemRef::wire`] when no wire is attributable.
    pub const NO_WIRE: u32 = u32::MAX;

    /// How many barrier epochs (routing iterations) [`MemRef::epoch`] can
    /// number.
    pub const MAX_EPOCHS: usize = u8::MAX as usize + 1;

    /// Whether a run of `iterations` barrier epochs can be traced: the
    /// check a producer makes before it routes anything.
    pub fn check_epochs(iterations: usize) -> Result<(), String> {
        if iterations > Self::MAX_EPOCHS {
            return Err(format!(
                "a reference trace numbers at most {} iterations, not {iterations}",
                Self::MAX_EPOCHS
            ));
        }
        Ok(())
    }

    /// A reference with no synchronization context (epoch 0, no wire,
    /// zero delta) — the paper's minimal (time, proc, addr, kind) record.
    pub fn new(time: u64, proc: u32, addr: u32, kind: RefKind) -> Self {
        MemRef {
            time,
            proc,
            addr,
            kind,
            epoch: 0,
            wire: Self::NO_WIRE,
            delta: 0,
            crit: Criticality::Background,
        }
    }

    /// Sets the barrier epoch, or says that the record cannot hold it
    /// (a trace numbers at most [`MemRef::MAX_EPOCHS`] epochs).
    pub fn with_epoch(mut self, epoch: u32) -> Result<Self, String> {
        self.epoch = u8::try_from(epoch).map_err(|_| {
            format!("epoch {epoch} is beyond the {} a trace record numbers", Self::MAX_EPOCHS)
        })?;
        Ok(self)
    }

    /// Sets the attributable wire.
    pub fn with_wire(mut self, wire: u32) -> Self {
        self.wire = wire;
        self
    }

    /// Sets the write delta.
    pub fn with_delta(mut self, delta: i8) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the service-priority class.
    pub fn with_criticality(mut self, crit: Criticality) -> Self {
        self.crit = crit;
        self
    }

    /// Whether the reference is service-critical.
    #[inline]
    pub fn is_critical(&self) -> bool {
        self.crit == Criticality::Critical
    }
}

/// A run of references by one processor that differ only in address and,
/// linearly, in time.
#[derive(Clone, Copy)]
struct Burst {
    /// The first reference. Reference `i` of the burst is `first` at
    /// `first.time + i * step` with its own address, the burst's `i`-th
    /// in its runs.
    first: MemRef,
    step: u64,
    /// How many references the burst has.
    len: usize,
    /// Where the burst's runs begin in [`Trace::spans`]. They end where
    /// the next burst's begin.
    start: usize,
}

/// The number the next burst of `bursts` gets.
///
/// # Panics
/// Panics if it does not fit the 32 bits the order has for it.
fn next_burst(bursts: &[Burst]) -> u32 {
    u32::try_from(bursts.len()).expect("a trace numbers fewer than 2^32 bursts")
}

/// `count` evenly spaced addresses: `base`, `base + stride`, `base + 2 *
/// stride` and on, wrapping at 2^32.
#[derive(Clone, Copy)]
struct Span {
    base: u32,
    stride: u32,
    count: u32,
}

impl Span {
    /// The run's address `i`.
    #[inline]
    fn at(&self, i: u32) -> u32 {
        self.base.wrapping_add(i.wrapping_mul(self.stride))
    }
}

/// `rounds` rounds of a rotation of bursts: each round gives the next
/// reference of the burst at each place of the rotation, in rotation
/// order. A rotation of more than one round spans one *period*, its
/// largest step: a burst of step `s` in it takes `period / s` places, and
/// the steps divide one another.
#[derive(Clone, Copy)]
struct Batch {
    rounds: usize,
    /// Where the rotation ends in [`Order::bursts`]; it begins where the
    /// previous batch's ends.
    end: usize,
}

/// Which burst gives each reference of a trace, as batches of rounds. A
/// burst's references keep their order among themselves, so the `i`-th
/// reference the order takes from a burst is the burst's reference `i`.
/// A rotation may name a burst more than once: references given one at a
/// time are one round of such a rotation, and so is a period of bursts
/// at different steps.
#[derive(Clone, Default)]
struct Order {
    /// The rotations, one after another.
    bursts: Vec<u32>,
    batches: Vec<Batch>,
}

impl Order {
    /// Appends `rounds` rounds of `rotation`. A round that follows a
    /// one-round batch joins it.
    fn push(&mut self, rounds: usize, rotation: impl IntoIterator<Item = u32>) {
        let start = self.bursts.len();
        self.bursts.extend(rotation);
        let end = self.bursts.len();
        match self.batches.last_mut() {
            _ if end == start => {}
            Some(last) if rounds == 1 && last.rounds == 1 => last.end = end,
            _ => self.batches.push(Batch { rounds, end }),
        }
    }

    /// The burst of each reference, in order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let starts = std::iter::once(0).chain(self.batches.iter().map(|b| b.end));
        self.batches.iter().zip(starts).flat_map(|(b, start)| {
            let rotation = &self.bursts[start..b.end];
            (0..b.rounds).flat_map(move |_| rotation.iter().copied())
        })
    }
}

/// A time-ordered sequence of shared references: burst headers, the
/// bursts' addresses as runs, and their order. Nothing is stored per
/// reference. Two traces are equal when their references are, however
/// they are split into bursts and runs.
#[derive(Clone)]
pub struct Trace {
    /// The burst headers; a burst's number is its index.
    bursts: Vec<Burst>,
    /// The bursts' runs, one burst's after another's in burst order.
    spans: Vec<Span>,
    order: Order,
    /// Number of references.
    len: usize,
    /// The time of the last reference while the references are in time
    /// order (0 when there are none), `None` once they are not.
    sorted: Option<u64>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            bursts: Vec::new(),
            spans: Vec::new(),
            order: Order::default(),
            len: 0,
            sorted: Some(0),
        }
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a reference, as a burst of its own. References may be
    /// pushed out of order; call [`Self::sort_by_time`] before analysis.
    #[inline]
    pub fn push(&mut self, r: MemRef) {
        self.order.push(1, [next_burst(&self.bursts)]);
        self.bursts.push(Burst { first: r, step: 0, len: 1, start: self.spans.len() });
        self.spans.push(Span { base: r.addr, stride: 0, count: 1 });
        self.len += 1;
        self.sorted = self.sorted.filter(|&last| r.time >= last).and(Some(r.time));
    }

    /// Stable-sorts the trace by time (ties keep insertion order, which
    /// preserves each processor's program order). A burst's references
    /// keep their order, since their times never decrease.
    pub fn sort_by_time(&mut self) {
        let mut timed: Vec<(u64, u32)> =
            self.refs().map(|r| r.time).zip(self.order.iter()).collect();
        timed.sort_by_key(|&(time, _)| time);
        self.sorted = Some(timed.last().map_or(0, |&(time, _)| time));
        self.order = Order::default();
        self.order.push(1, timed.into_iter().map(|(_, b)| b));
    }

    /// Whether the trace is time-ordered: kept as references are pushed,
    /// so it costs nothing to ask.
    pub fn is_sorted(&self) -> bool {
        self.sorted.is_some()
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The references in order, each rebuilt from its burst's header.
    pub fn refs(&self) -> impl Iterator<Item = MemRef> + '_ {
        Refs {
            trace: self,
            cursors: self.bursts.iter().map(|b| Cursor { pos: 0, next: b.start, at: 0 }).collect(),
            batch: 0,
            set_up: 0,
            members: Vec::new(),
            rounds: 0,
            period: 0,
            round: 0,
            member: 0,
            left: self.len,
        }
    }

    /// Count of write references.
    pub fn write_count(&self) -> usize {
        self.burst_counts().filter(|&(_, kind, _)| kind == RefKind::Write).map(|(.., n)| n).sum()
    }

    /// Of each burst that has references, its processor, its kind and how
    /// many references it has: what a trace says about each processor
    /// without reading a reference.
    pub(crate) fn burst_counts(&self) -> impl Iterator<Item = (u32, RefKind, usize)> + '_ {
        self.bursts.iter().filter(|b| b.len > 0).map(|b| (b.first.proc, b.first.kind, b.len))
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.refs().eq(other.refs())
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.refs()).finish()
    }
}

impl FromIterator<MemRef> for Trace {
    fn from_iter<T: IntoIterator<Item = MemRef>>(iter: T) -> Self {
        let mut trace = Trace::new();
        iter.into_iter().for_each(|r| trace.push(r));
        trace
    }
}

/// How many bursts of a one-round batch [`Refs`] sets up at a time. A
/// rotation of more rounds is set up whole.
const MEMBERS: usize = 64;

/// The run that holds a burst's reference `*at` places after the start of
/// run `*next`: moves `next` on to that run and `at` to the reference's
/// place in it. The reference must be one of the burst's.
#[inline]
fn seek(spans: &[Span], next: &mut usize, at: &mut usize) -> Span {
    loop {
        let span = spans[*next];
        if *at < span.count as usize {
            return span;
        }
        *at -= span.count as usize;
        *next += 1;
    }
}

/// Where a burst is read next: the position of its first reference not
/// yet set up, and that reference's place counted from the start of run
/// `next`, which holds it or comes before the run that does.
#[derive(Clone, Copy)]
struct Cursor {
    pos: usize,
    next: usize,
    at: usize,
}

/// One place of the rotation being read, as the rounds read it: its
/// burst's reference there in the batch's first round, and an address
/// that moves on by `step` a round up to round `end`, where the place's
/// run ends and [`move_on`] sets the line again. Every member's
/// time moves on by the batch's period a round.
#[derive(Clone, Copy)]
struct Member {
    first: MemRef,
    /// The address the place's run would give in round 0: its address in
    /// round `r` of the run is `addr0 + r * step`, wrapping.
    addr0: u32,
    step: u32,
    end: usize,
    place: Place,
}

/// What a [`Member`] reads next in its burst's runs, touched only where
/// its run ends.
#[derive(Clone, Copy)]
struct Place {
    /// How many of the burst's references the place moves on by a round.
    stride: usize,
    /// In round `end`, the place reads the reference `cursor` places
    /// after the start of run `next`.
    next: usize,
    cursor: usize,
}

impl Member {
    /// The member's reference in round `round` of its batch, which is
    /// `later` ns after round 0.
    #[inline]
    fn at(&self, round: usize, later: u64) -> MemRef {
        MemRef {
            time: self.first.time + later,
            addr: self.addr0.wrapping_add((round as u32).wrapping_mul(self.step)),
            ..self.first
        }
    }

    /// Sets the member's line to `span`, the run that holds its place's
    /// reference in `round`.
    #[inline]
    fn set_line(&mut self, span: Span, round: usize) {
        let place = &mut self.place;
        // The run's references from the place's on, and the rounds the
        // place reads among them (most places read every reference of
        // their burst, where the branch costs less than a division).
        let left = span.count as usize - place.cursor;
        let rounds = if place.stride == 1 { left } else { left.div_ceil(place.stride) };
        let step = span.stride.wrapping_mul(place.stride as u32);
        let addr = span.at(place.cursor as u32);
        place.cursor += rounds * place.stride;
        self.addr0 = addr.wrapping_sub((round as u32).wrapping_mul(step));
        (self.step, self.end) = (step, round + rounds);
    }
}

/// At round `round`, where a member's run ends: moves it on to the run
/// that holds its place's next reference. Out of line, so that the loops
/// that read the members keep only the test for it.
#[cold]
#[inline(never)]
fn move_on(member: &mut Member, spans: &[Span], round: usize) {
    let span = seek(spans, &mut member.place.next, &mut member.place.cursor);
    member.set_line(span, round);
}

/// The iterator behind [`Trace::refs`]: a cursor in the order, which
/// `next` and `fold` move alike, so that `fold` goes on where `next`
/// stopped.
struct Refs<'a> {
    trace: &'a Trace,
    /// Of each burst, where it is read next.
    cursors: Vec<Cursor>,
    /// The batch the next members come from, and where in
    /// [`Order::bursts`] the members set up so far end.
    batch: usize,
    set_up: usize,
    /// The members set up, one a place of the rotation, their round
    /// count and the time from one round to the next.
    members: Vec<Member>,
    rounds: usize,
    period: u64,
    /// The next reference: its round, and its member in the round.
    round: usize,
    member: usize,
    /// References not yet given.
    left: usize,
}

impl Refs<'_> {
    /// Sets up the next members: a whole rotation, or the next
    /// [`MEMBERS`] of a one-round batch. False at the end of the order.
    ///
    /// The `k` places of a burst in a rotation take its next `k`
    /// references in turn, and each round moves each place on by `k`.
    fn advance(&mut self) -> bool {
        let trace = self.trace;
        if self.rounds > 1 {
            // Where each burst of the rotation just read goes on: where
            // its first place would read in the round after the last.
            // Going backwards, that place is the last to write.
            let rotation = &trace.order.bursts[self.set_up - self.members.len()..self.set_up];
            for (m, &b) in self.members.iter().zip(rotation).rev() {
                let c = &mut self.cursors[b as usize];
                let past = (m.end - self.rounds) * m.place.stride;
                (c.next, c.at) = (m.place.next, m.place.cursor - past);
            }
        }
        let Some(&Batch { rounds, end }) = trace.order.batches.get(self.batch) else {
            return false;
        };
        let to = if rounds == 1 { end.min(self.set_up + MEMBERS) } else { end };
        let rotation = &trace.order.bursts[self.set_up..to];
        let period = match rounds {
            1 => 0, // a one-round batch reads round 0 alone
            _ => rotation.iter().map(|&b| trace.bursts[b as usize].step).max().unwrap_or(0),
        };
        self.members.clear();
        for &b in rotation {
            let Burst { first, step, .. } = trace.bursts[b as usize];
            let c = &mut self.cursors[b as usize];
            let first = MemRef { time: first.time + c.pos as u64 * step, ..first };
            let span = seek(&trace.spans, &mut c.next, &mut c.at);
            let stride = if rounds == 1 || step == period { 1 } else { (period / step) as usize };
            let place = Place { stride, next: c.next, cursor: c.at };
            let mut member = Member { first, addr0: 0, step: 0, end: 0, place };
            member.set_line(span, 0);
            self.members.push(member);
            (c.pos, c.at) = (c.pos + 1, c.at + 1);
        }
        if rounds > 1 {
            for &b in rotation {
                self.cursors[b as usize].pos += rounds - 1;
            }
        }
        self.set_up = to;
        self.batch += usize::from(to == end);
        (self.rounds, self.period, self.round, self.member) = (rounds, period, 0, 0);
        true
    }
}

impl Iterator for Refs<'_> {
    type Item = MemRef;

    #[inline]
    fn next(&mut self) -> Option<MemRef> {
        if self.round == self.rounds && !self.advance() {
            return None;
        }
        let round = self.round;
        let m = &mut self.members[self.member];
        if m.end == round {
            move_on(m, &self.trace.spans, round);
        }
        let r = m.at(round, round as u64 * self.period);
        self.member += 1;
        if self.member == self.members.len() {
            (self.round, self.member) = (round + 1, 0);
        }
        self.left -= 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    /// Internal iteration (`for_each` and every adapter built on `fold`),
    /// which the replay loops use: round by round over the members, from
    /// wherever `next` stopped. `f` has one call site, so that it is
    /// inlined into the loop, and the loop stores nothing but where a
    /// member's run ends.
    #[inline]
    fn fold<B, F: FnMut(B, MemRef) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        let spans = &self.trace.spans;
        loop {
            for round in self.round..self.rounds {
                let later = round as u64 * self.period;
                for m in &mut self.members[self.member..] {
                    if m.end == round {
                        move_on(m, spans, round);
                    }
                    acc = f(acc, m.at(round, later));
                }
                self.member = 0;
            }
            if !self.advance() {
                return acc;
            }
        }
    }
}

/// The open burst of a [`TraceRecorder`]: takes the burst's addresses, in
/// order, as runs.
pub struct BurstWriter<'a> {
    recorder: &'a mut TraceRecorder,
}

impl BurstWriter<'_> {
    /// Records the burst's next reference, to `addr`: the next address of
    /// the burst's last run if it continues the run (a second address
    /// sets the run's stride) and the run has room, or a run of its own.
    #[inline]
    pub fn push(&mut self, addr: u32) {
        let TraceRecorder { bursts, spans, .. } = &mut *self.recorder;
        let burst = bursts.last_mut().expect("a burst is open");
        burst.len += 1;
        let open = spans.len() > burst.start;
        match spans.last_mut() {
            Some(last) if open && last.count == 1 => {
                (last.stride, last.count) = (addr.wrapping_sub(last.base), 2);
            }
            Some(last) if open && last.count < u32::MAX && last.at(last.count) == addr => {
                last.count += 1;
            }
            _ => spans.push(Span { base: addr, stride: 0, count: 1 }),
        }
    }

    /// Records the burst's next `count` references, to `base`, `base +
    /// stride`, `base + 2 * stride` and on, as one run (as several past
    /// the 2^32 - 1 a run counts): what `count` pushes record, for the
    /// cells of one span query.
    ///
    /// # Panics
    /// Panics if the run's last address does not fit 32 bits.
    #[inline]
    pub fn push_run(&mut self, base: u32, stride: u32, count: usize) {
        let Some(before_last) = count.checked_sub(1) else { return };
        let last = u64::try_from(before_last)
            .ok()
            .and_then(|n| n.checked_mul(stride.into()))
            .and_then(|span| span.checked_add(base.into()));
        assert!(
            last.is_some_and(|last| last <= u64::from(u32::MAX)),
            "a run of {count} addresses from {base} by {stride} ends beyond the 32-bit space"
        );
        let TraceRecorder { bursts, spans, .. } = &mut *self.recorder;
        bursts.last_mut().expect("a burst is open").len += count;
        let (mut base, mut count) = (base, count);
        while count > 0 {
            let n = u32::try_from(count).unwrap_or(u32::MAX);
            spans.push(Span { base, stride, count: n });
            // Every address fits, so the next run's base does too.
            (base, count) = (base.wrapping_add(n.wrapping_mul(stride)), count - n as usize);
        }
    }
}

/// Run-length trace collection for a producer that multiplexes its
/// processors and emits references in bursts.
///
/// A burst's addresses are recorded as runs: a span query's go in as one
/// ([`BurstWriter::push_run`]), and addresses pushed one at a time
/// extend the burst's last run while they continue it, so a route's
/// cells along a row are one run too. [`Self::finish`] builds the
/// [`Trace`] that pushing every reference in burst order and
/// stable-sorting by time would have built: bursts are recorded whole, so
/// that sort orders equal-time references by burst and then by position
/// within the burst, and each processor's references are already in that
/// order. Merging the processors' streams by (time, burst number) is
/// therefore the same permutation, found in one pass that stores a burst
/// number for each reference it gives alone, and for a batch of whole
/// rounds only those of one round; it reads the bursts' lengths, never
/// their addresses. The bursts and their runs become the trace's as they
/// are.
pub struct TraceRecorder {
    /// The bursts in the order they were begun; a burst's number is its
    /// index.
    bursts: Vec<Burst>,
    /// The bursts' runs, in the order the bursts were begun.
    spans: Vec<Span>,
    /// Of each processor, the numbers of its bursts.
    by_proc: Vec<Vec<u32>>,
}

impl TraceRecorder {
    /// A recorder for processors `0..n_procs`.
    pub fn new(n_procs: usize) -> Self {
        TraceRecorder { bursts: Vec::new(), spans: Vec::new(), by_proc: vec![Vec::new(); n_procs] }
    }

    /// Begins a burst of `first.proc`: references shaped like `first`,
    /// `step` ns apart from `first.time` on, one per address pushed to
    /// the returned writer before the next `begin`.
    ///
    /// # Panics
    /// Panics if the processor is not one of the recorder's, or if the
    /// burst starts before the processor's previous burst has ended: a
    /// processor's clock never runs backwards, and the merge relies on it.
    pub fn begin(&mut self, first: MemRef, step: u64) -> BurstWriter<'_> {
        if let Some(&i) = self.by_proc[first.proc as usize].last() {
            let prev = self.bursts[i as usize];
            let prev_end = prev.first.time + prev.step * prev.len.saturating_sub(1) as u64;
            assert!(
                first.time >= prev_end,
                "processor {} begins a burst at {} before its last one ended at {prev_end}",
                first.proc,
                first.time,
            );
        }
        self.by_proc[first.proc as usize].push(next_burst(&self.bursts));
        self.bursts.push(Burst { first, step, len: 0, start: self.spans.len() });
        BurstWriter { recorder: self }
    }

    /// The recorded references as a time-ordered trace.
    pub fn finish(self) -> Trace {
        let order = self.merge().0;
        let TraceRecorder { bursts, spans, .. } = self;
        let len = bursts.iter().map(|b| b.len).sum();
        // The merge is a stable sort by time: its last reference is the
        // latest.
        let last = bursts
            .iter()
            .filter(|b| b.len > 0)
            .map(|b| b.first.time + b.step * (b.len - 1) as u64)
            .max();
        Trace { bursts, spans, order, len, sorted: Some(last.unwrap_or(0)) }
    }

    /// The order of [`Self::finish`], how many references it gives in
    /// rounds, and how many times the merge scanned for rounds.
    fn merge(&self) -> (Order, usize, usize) {
        // One processor's references in program order: its bursts one
        // after another, each a run.
        let runs = self
            .by_proc
            .iter()
            .map(|bursts| {
                bursts.iter().filter_map(|&burst| {
                    let Burst { first, step, len, .. } = self.bursts[burst as usize];
                    (len > 0).then_some(Run { time: first.time, step, burst, len })
                })
            })
            .collect();
        merge_by_time(runs)
    }
}

/// `len` references of one stream, `step` ns apart from `time` on, that
/// share their burst number: a recorded burst.
#[derive(Clone, Copy, Default)]
struct Run {
    time: u64,
    step: u64,
    burst: u32,
    len: usize,
}

/// `(time, burst, stream)`: the key of a stream's next reference, and the
/// stream. Keys of different streams differ.
type Queued = (u64, u32, usize);

/// The streams that still have a reference, sorted by the key of that
/// reference. A ring, because the front leaves and most often comes back
/// at the back.
struct MergeQueue {
    /// A power of two of slots, more than ever queued.
    slots: Vec<Queued>,
    front: usize,
    len: usize,
}

impl MergeQueue {
    fn new(mut queued: Vec<Queued>) -> Self {
        queued.sort_unstable();
        let len = queued.len();
        queued.resize((len + 1).next_power_of_two(), (0, 0, 0));
        MergeQueue { slots: queued, front: 0, len }
    }

    fn slot(&mut self, at: usize) -> &mut Queued {
        let mask = self.slots.len() - 1;
        &mut self.slots[at & mask]
    }

    /// The queued entries, front to back.
    fn iter(&self) -> impl Iterator<Item = &Queued> {
        let (head, tail) = self.slots.split_at(self.front & (self.slots.len() - 1));
        tail.iter().chain(head).take(self.len)
    }

    /// Every queued entry, front to back.
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Queued> {
        let mid = self.front & (self.slots.len() - 1);
        let (head, tail) = self.slots.split_at_mut(mid);
        tail.iter_mut().chain(head).take(self.len)
    }

    fn pop_front(&mut self) -> Option<Queued> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.front += 1;
        Some(*self.slot(self.front - 1))
    }

    /// Files `entry`, searching for its place from the back. No more
    /// entries may be queued than [`Self::new`] was given.
    fn insert(&mut self, entry: Queued) {
        let mut at = self.front + self.len;
        while at > self.front && *self.slot(at - 1) > entry {
            *self.slot(at) = *self.slot(at - 1);
            at -= 1;
        }
        *self.slot(at) = entry;
        self.len += 1;
    }

    /// How many whole rounds the front `m` streams can give without a
    /// comparison: `Ok((rounds, m, period))` with one round or more, or
    /// else `Err` of the stream that held the rounds to zero (`None` when
    /// the queue is empty).
    ///
    /// Let `(t0, b0)` be the front's key. The rotation is the front
    /// streams whose runs have a nonzero step `s` and two or more
    /// references left, whose keys are below `(t0 + s, b0)`, and whose
    /// steps divide one another; the period is the largest step. A member
    /// of step `s` then has exactly `period / s` references below `(t0 +
    /// period, b0)` and its next at or above it, so a round, the sorted
    /// window of one period, leaves the rotation's keys in their order,
    /// each one period on. The rounds stop one reference short of the
    /// shortest run, so that every member is still in its run, and while
    /// the last of the rotation stays below the stream queued after it,
    /// so that every reference given is below every key left.
    ///
    /// The stream that holds the rounds to zero is the front, when it is
    /// not in a run of a nonzero step with a reference after its next;
    /// the stream queued after the rotation, when its key is less than a
    /// period after the rotation's last; or else the member whose run
    /// ends within a period of its key. That stream has not moved until
    /// it gives its reference, and the members that give theirs before
    /// it queue again within a period of the front, so a scan before then
    /// would most often find no rounds again: [`merge_by_time`] does not
    /// run one.
    fn rounds(&self, heads: &[Run]) -> Result<(usize, usize, u64), Option<usize>> {
        let mut queued = self.iter();
        let &(t0, b0, i) = queued.next().ok_or(None)?;
        let Run { step, len, .. } = heads[i];
        if step == 0 || len < 2 {
            return Err(Some(i));
        }
        // A member's next reference is in its run, so `t0 + s <= t + s`
        // is a time of the trace and cannot wrap; nor can any key the
        // rounds reach, each being a reference's. `reach` is the least
        // time a member's run goes on past its key, and `short` that
        // member.
        let (mut period, mut reach, mut short) = (step, (len - 1) as u64 * step, i);
        let (mut last, mut m) = ((t0, b0), 1);
        let mut rounds = usize::MAX;
        for &(t, b, j) in queued {
            let Run { step: s, len, .. } = heads[j];
            if s == 0
                || len < 2
                || (t, b) >= (t0 + s, b0)
                // Most members step at the period: test that before the
                // two divisions.
                || !(s == period || period.is_multiple_of(s) || s.is_multiple_of(period))
            {
                // `last` plus `r` periods stays below `(t, b)` for `r` up
                // to this many (when `t == last.0`, `b` is above `last.1`).
                let r = (t - last.0 - u64::from(last.1 > b)) / period;
                if r == 0 {
                    return Err(Some(j));
                }
                rounds = usize::try_from(r).unwrap_or(usize::MAX);
                break;
            }
            period = period.max(s);
            let run_on = (len - 1) as u64 * s;
            if run_on < reach {
                (reach, short) = (run_on, j);
            }
            (last, m) = ((t, b), m + 1);
        }
        let whole = usize::try_from(reach / period).unwrap_or(usize::MAX);
        match rounds.min(whole) {
            0 => Err(Some(short)),
            rounds => Ok((rounds, m, period)),
        }
    }
}

/// Merges `streams`, each yielding nonempty runs whose references are in
/// time order, into one [`Order`] by time. Equal times keep each stream's
/// own order, and between streams go by burst number:
/// [`TraceRecorder::finish`] gives each processor its own bursts, numbered
/// in the order they began. Also returns how many references were given
/// in whole rounds, and how many times the queue was scanned for them.
///
/// The merge advances by whole rounds where it can: when the streams at
/// the front of the [`MergeQueue`] sweep at steps that divide one another
/// and lie within a step of the front, the next rounds repeat one sorted
/// window of the longest step ([`MergeQueue::rounds`]). The window is
/// filed as one batch while every key moves on by as many periods, and a
/// stream at a shorter step takes several places of it: a rip-up or
/// commit writing at `CELL_WRITE_NS` among sweeps reading at
/// `CELL_EVAL_NS`. Otherwise the front stream gives one reference and is
/// filed again under the key of its next, searching from the back. (A
/// binary heap would pay its full sift-down on the common case that the
/// new key is the largest.) One-reference runs never make a round.
///
/// A scan that finds no rounds names the stream that held them to zero,
/// and the merge gives single steps without scanning again until that
/// stream has given its reference. Skipping a scan cannot change the
/// references: a single step gives the least key, the reference a
/// stable sort puts next, so a round it might have batched comes out
/// the same one reference at a time, and only the order's batches
/// differ.
fn merge_by_time<I>(mut streams: Vec<I>) -> (Order, usize, usize)
where
    I: Iterator<Item = Run>,
{
    // Every queued stream's run, from the reference its key names on.
    let mut heads: Vec<Run> = streams.iter_mut().map(|s| s.next().unwrap_or_default()).collect();
    let mut queue = MergeQueue::new(
        (heads.iter().enumerate())
            .filter(|(_, run)| run.len > 0)
            .map(|(i, run)| (run.time, run.burst, i))
            .collect(),
    );
    let mut order = Order::default();
    let (mut in_rounds, mut scans) = (0, 0);
    // The stream whose reference the next scan waits for, if any.
    let mut held = None;
    // The keys of one round's references.
    let mut window: Vec<(u64, u32)> = Vec::new();
    loop {
        if held.is_none() {
            scans += 1;
            match queue.rounds(&heads) {
                Ok((rounds, m, period)) => {
                    window.clear();
                    for (time, burst, i) in queue.iter_mut().take(m) {
                        let (run, t) = (&mut heads[*i], *time);
                        let places = if run.step == period { 1 } else { period / run.step };
                        window.extend((0..places).map(|n| (t + n * run.step, *burst)));
                        run.len -= rounds * places as usize;
                        *time += rounds as u64 * period;
                    }
                    window.sort_unstable();
                    order.push(rounds, window.iter().map(|&(_, burst)| burst));
                    in_rounds += rounds * window.len();
                    continue;
                }
                Err(stream) => held = stream,
            }
        }
        let Some((time, burst, i)) = queue.pop_front() else { break };
        if held == Some(i) {
            held = None;
        }
        order.push(1, [burst]);
        let run = &mut heads[i];
        run.len -= 1;
        if run.len > 0 {
            queue.insert((time + run.step, burst, i));
        } else if let Some(next) = streams[i].next() {
            *run = next;
            queue.insert((next.time, next.burst, i));
        }
    }
    (order, in_rounds, scans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(time: u64, proc: u32, addr: u32, kind: RefKind) -> MemRef {
        MemRef::new(time, proc, addr, kind)
    }

    fn addrs(t: &Trace) -> Vec<u32> {
        t.refs().map(|r| r.addr).collect()
    }

    #[test]
    fn push_and_sort() {
        let mut t = Trace::new();
        t.push(r(5, 0, 0, RefKind::Read));
        t.push(r(1, 1, 4, RefKind::Write));
        assert!(!t.is_sorted());
        t.sort_by_time();
        assert!(t.is_sorted());
        assert_eq!(t.refs().next().map(|r| r.time), Some(1));
    }

    #[test]
    fn stable_sort_preserves_program_order_at_equal_times() {
        let mut t = Trace::new();
        t.push(r(3, 0, 0, RefKind::Read));
        t.push(r(3, 0, 4, RefKind::Write));
        t.sort_by_time();
        assert_eq!(addrs(&t), [0, 4]);
    }

    #[test]
    fn stable_sort_preserves_order_across_procs_at_equal_times() {
        // Three procs all touch at t=7, interleaved with earlier refs.
        let mut t = Trace::new();
        t.push(r(9, 0, 0, RefKind::Read));
        t.push(r(7, 2, 8, RefKind::Write));
        t.push(r(7, 0, 12, RefKind::Read));
        t.push(r(7, 1, 16, RefKind::Write));
        t.push(r(1, 1, 20, RefKind::Read));
        t.sort_by_time();
        assert!(t.is_sorted());
        // The three t=7 refs keep their relative insertion order.
        let at7: Vec<u32> = t.refs().filter(|r| r.time == 7).map(|r| r.addr).collect();
        assert_eq!(at7, vec![8, 12, 16]);
    }

    #[test]
    fn is_sorted_on_empty_and_single_traces() {
        let empty = Trace::new();
        assert!(empty.is_sorted());
        assert!(empty.is_empty());
        let single: Trace = [r(42, 3, 0, RefKind::Write)].into_iter().collect();
        assert!(single.is_sorted());
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn write_count() {
        let t: Trace =
            [r(0, 0, 0, RefKind::Read), r(1, 0, 0, RefKind::Write), r(2, 1, 4, RefKind::Write)]
                .into_iter()
                .collect();
        assert_eq!(t.write_count(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn write_count_matches_refkind_partition() {
        // write_count + read count must always equal len, and must agree
        // with a direct RefKind scan.
        let t: Trace = (0..32)
            .map(|i| {
                r(i, i as u32 % 4, (i as u32 % 8) * 2, {
                    if i % 3 == 0 {
                        RefKind::Write
                    } else {
                        RefKind::Read
                    }
                })
            })
            .collect();
        let writes = t.refs().filter(|r| r.kind == RefKind::Write).count();
        let reads = t.refs().filter(|r| r.kind == RefKind::Read).count();
        assert_eq!(t.write_count(), writes);
        assert_eq!(writes + reads, t.len());
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let plain = MemRef::new(10, 1, 4, RefKind::Read);
        assert_eq!(plain.epoch, 0);
        assert_eq!(plain.wire, MemRef::NO_WIRE);
        assert_eq!(plain.delta, 0);
        assert_eq!(plain.crit, Criticality::Background);
        assert!(!plain.is_critical());
        let full = plain
            .with_epoch(3)
            .expect("epoch 3 fits")
            .with_wire(17)
            .with_delta(-1)
            .with_criticality(Criticality::Critical);
        assert_eq!(full.epoch, 3);
        assert_eq!(full.wire, 17);
        assert_eq!(full.delta, -1);
        assert!(full.is_critical());
        // Builders leave the base triple untouched.
        assert_eq!((full.time, full.proc, full.addr, full.kind), (10, 1, 4, RefKind::Read));
    }

    #[test]
    fn a_reference_is_24_bytes() {
        assert_eq!(std::mem::size_of::<MemRef>(), 24);
        assert_eq!(std::mem::size_of::<Burst>(), 48);
    }

    #[test]
    fn an_epoch_the_record_cannot_hold_is_an_error() {
        let plain = MemRef::new(0, 0, 0, RefKind::Read);
        assert_eq!(plain.with_epoch(255).expect("the last epoch").epoch, 255);
        for epoch in [256, 257, u32::MAX] {
            let err = plain.with_epoch(epoch).expect_err("no wrap");
            assert!(err.contains(&epoch.to_string()), "{err}");
        }
        assert!(MemRef::check_epochs(0).is_ok());
        assert!(MemRef::check_epochs(MemRef::MAX_EPOCHS).is_ok());
        let err = MemRef::check_epochs(MemRef::MAX_EPOCHS + 1).expect_err("one too many");
        assert!(err.contains("257"), "{err}");
        assert!(MemRef::check_epochs(usize::MAX).is_err());
    }

    /// Records `bursts` of `(first, step, addresses)`.
    fn record(n_procs: usize, bursts: &[(MemRef, u64, Vec<u32>)]) -> TraceRecorder {
        let mut recorder = TraceRecorder::new(n_procs);
        for (first, step, addrs) in bursts {
            let mut burst = recorder.begin(*first, *step);
            addrs.iter().for_each(|&addr| burst.push(addr));
        }
        recorder
    }

    /// Records `bursts` and, as the oracle, lists the same references one
    /// by one and stable-sorts them by time.
    fn recorded_and_sorted(
        n_procs: usize,
        bursts: &[(MemRef, u64, Vec<u32>)],
    ) -> (Trace, Vec<MemRef>) {
        let mut listed: Vec<MemRef> = bursts
            .iter()
            .flat_map(|(first, step, addrs)| {
                (0..).zip(addrs).map(move |(i, &addr)| MemRef {
                    time: first.time + i * step,
                    addr,
                    ..*first
                })
            })
            .collect();
        listed.sort_by_key(|r| r.time);
        (record(n_procs, bursts).finish(), listed)
    }

    /// A candidate sweep: `len` reads by `proc`, `step` apart from `time` on.
    fn sweep(time: u64, proc: u32, step: u64, len: u32) -> (MemRef, u64, Vec<u32>) {
        (r(time, proc, 0, RefKind::Read), step, (0..len).map(|i| 2 * (100 * proc + i)).collect())
    }

    /// Checks the recorded trace against the oracle, and returns how many
    /// of its references the merge gave in whole rounds.
    fn in_rounds(n_procs: usize, bursts: &[(MemRef, u64, Vec<u32>)]) -> usize {
        let (recorded, sorted) = recorded_and_sorted(n_procs, bursts);
        assert_eq!(recorded.refs().collect::<Vec<_>>(), sorted);
        record(n_procs, bursts).merge().1
    }

    #[test]
    fn a_lone_stream_gives_its_burst_in_one_batch_of_rounds() {
        let heads = [Run { time: 7, step: 3, burst: 0, len: 6 }];
        // Every reference but the last, which the ordinary step gives.
        assert_eq!(MergeQueue::new(vec![(7, 0, 0)]).rounds(&heads), Ok((5, 1, 3)));
        assert_eq!(in_rounds(1, &[sweep(7, 0, 3, 6)]), 5);
        let batches = record(1, &[sweep(7, 0, 3, 6)]).merge().0.batches;
        let shape: Vec<(usize, usize)> = batches.iter().map(|b| (b.rounds, b.end)).collect();
        assert_eq!(shape, [(5, 1), (1, 2)], "five rounds of burst 0, then one");
        assert_eq!(in_rounds(1, &[sweep(7, 0, 0, 6)]), 0, "no rounds at step 0");
    }

    #[test]
    fn a_burst_may_begin_at_its_predecessors_last_time() {
        // Processor 0 sweeps 0..=30 and again 30..=70; processor 1 sweeps
        // 5..=75. Three rounds run up to 30, where the first burst's last
        // reference comes before the second's first, then four more.
        let bursts = [sweep(0, 0, 10, 4), sweep(5, 1, 10, 8), sweep(30, 0, 10, 5)];
        assert_eq!(in_rounds(2, &bursts), 6 + 8);
        let (trace, _) = recorded_and_sorted(2, &bursts);
        let at30: Vec<u32> = trace.refs().filter(|r| r.time == 30).map(|r| r.addr).collect();
        assert_eq!(at30, [6, 0]);
    }

    #[test]
    fn rounds_may_end_on_the_last_tick_of_the_clock() {
        let end = u64::MAX;
        // Three rounds, then single steps; the lone stream's rounds move
        // its key onto the last tick.
        assert_eq!(in_rounds(2, &[sweep(end - 40, 0, 10, 5), sweep(end - 35, 1, 10, 4)]), 6);
        assert_eq!(in_rounds(1, &[sweep(end - 20, 0, 5, 5)]), 4);
        assert_eq!(in_rounds(2, &[sweep(end - 4, 0, 1, 5), sweep(end - 4, 1, 1, 5)]), 8);
    }

    #[test]
    fn a_write_burst_arriving_mid_sweep_is_merged_by_single_steps() {
        let w = r(11, 2, 0, RefKind::Write).with_delta(1).with_criticality(Criticality::Critical);
        let bursts = [
            sweep(0, 0, 4, 20),
            sweep(1, 1, 4, 20),
            sweep(2, 2, 4, 3),
            (w, 1, vec![300, 302, 304, 306, 308, 310]), // 11..=16
            sweep(17, 2, 4, 10),
        ];
        // Two rounds of three, then single steps until the writes lead.
        // Their step divides the sweeps', so a round of one read step
        // takes four writes (11..=14) beside a read of processors 0 and 1;
        // the last two writes go singly. Then nine rounds of three once
        // processor 2 sweeps again, and five of the last two. (While a
        // rotation had to share one step, the writes led alone by a read
        // step first, and gave two rounds of one instead of one of six.)
        assert_eq!(in_rounds(3, &bursts), 6 + 6 + 27 + 10);
    }

    /// Checks the recorded trace against the oracle, and returns the
    /// merge's batches, each `(rounds, rotation length)`, and how many
    /// times it scanned for rounds.
    fn batches_and_scans(
        n_procs: usize,
        bursts: &[(MemRef, u64, Vec<u32>)],
    ) -> (Vec<(usize, usize)>, usize) {
        let (recorded, sorted) = recorded_and_sorted(n_procs, bursts);
        assert_eq!(recorded.refs().collect::<Vec<_>>(), sorted);
        let (order, _, scans) = record(n_procs, bursts).merge();
        let starts = std::iter::once(0).chain(order.batches.iter().map(|b| b.end));
        let batches = order.batches.iter().zip(starts).map(|(b, at)| (b.rounds, b.end - at));
        (batches.collect(), scans)
    }

    #[test]
    fn a_member_one_reference_from_its_runs_end_holds_the_scans_until_it_gives_it() {
        // Processors 0 and 1 sweep at step 4 from 0 and 2. Processor 2
        // writes at 1 and 3, then sweeps from 5. The writes are a member
        // whose run goes on 2 ns past its key, less than the period, so
        // the first scan finds no round and names them: processor 0's
        // read at 0 and the write at 1 go without a scan. After it, the
        // last write is queued less than a period behind processor 1's
        // read at 2 and holds the next scan until it goes, and then nine
        // rounds of the three sweeps fit. Each rotation's end is held the
        // same way.
        let w = r(1, 2, 0, RefKind::Write).with_delta(1);
        let bursts =
            [sweep(0, 0, 4, 12), sweep(2, 1, 4, 12), (w, 2, vec![300, 302]), sweep(5, 2, 4, 10)];
        let (batches, scans) = batches_and_scans(3, &bursts);
        // A merge that scans after every single step makes these batches
        // too, in 11 scans.
        assert_eq!(batches, [(1, 4), (9, 3), (1, 5)]);
        assert_eq!(scans, 7);
    }

    #[test]
    fn a_stream_queued_within_a_period_of_the_rotation_holds_the_scans_until_it_steps() {
        // Four processors sweep at step 4 from 0, 1, 2 and 3; processor 4
        // writes twice at 6, less than a period after the last sweep's
        // key. The first scan finds no round and names the writes: the
        // seven reads up to 6 go without a scan, and the writes each
        // after one. Then nine rounds of the four sweeps fit.
        let w = r(6, 4, 0, RefKind::Write).with_delta(1);
        let mut bursts: Vec<_> = (0..4).map(|p| sweep(u64::from(p), p, 4, 12)).collect();
        bursts.push((w, 0, vec![400, 402]));
        let (batches, scans) = batches_and_scans(5, &bursts);
        // A merge that scans after every single step makes these batches
        // too, in 16 scans.
        assert_eq!(batches, [(1, 9), (9, 4), (1, 5)]);
        assert_eq!(scans, 8);
    }

    fn example_bursts() -> Vec<(MemRef, u64, Vec<u32>)> {
        let w = |t, p| r(t, p, 0, RefKind::Write).with_delta(1);
        vec![
            (r(10, 1, 0, RefKind::Read), 4, vec![2, 4, 6]), // 10, 14, 18
            (w(14, 0), 0, vec![8, 10]),                     // 14, 14
            (w(2, 2), 6, vec![12, 14, 16]),                 // 2, 8, 14
            (r(22, 1, 0, RefKind::Read), 1, vec![]),
            (w(22, 1), 1, vec![18]),
        ]
    }

    #[test]
    fn recorder_orders_equal_times_by_burst_then_position() {
        let (recorded, sorted) = recorded_and_sorted(3, &example_bursts());
        assert_eq!(recorded.refs().collect::<Vec<_>>(), sorted);
        assert_eq!(addrs(&recorded), [12, 14, 2, 4, 8, 10, 16, 6, 18]);
        assert_eq!(recorded.bursts.len(), 5, "one header a burst, the empty one included");
        assert_eq!(recorded.order.iter().collect::<Vec<_>>(), [2, 2, 0, 0, 1, 1, 2, 0, 4]);
        assert_eq!(recorded.order.batches.len(), 1, "one round after another is one batch");
    }

    #[test]
    fn a_trace_is_its_references_however_they_are_split_into_bursts() {
        let (recorded, sorted) = recorded_and_sorted(3, &example_bursts());
        let collected: Trace = sorted.iter().copied().collect();
        let mut pushed = Trace::new();
        for &r in sorted.iter().rev() {
            pushed.push(r);
        }
        assert_ne!(pushed, recorded, "pushed in reverse");
        assert!(!pushed.is_sorted());
        pushed.sort_by_time();
        // Equal times reversed by the pushes stay reversed.
        assert_ne!(pushed, recorded);
        for t in [&recorded, &collected] {
            assert_eq!(*t, recorded);
            assert_eq!(format!("{t:?}"), format!("{sorted:?}"));
            assert_eq!((t.len(), t.write_count(), t.is_sorted()), (9, 6, true));
        }
        assert_eq!(collected.bursts.len(), 9, "one burst a pushed reference");
        let addresses: Vec<(u32, u32)> =
            collected.spans.iter().map(|s| (s.base, s.count)).collect();
        let one_each: Vec<(u32, u32)> = sorted.iter().map(|r| (r.addr, 1)).collect();
        assert_eq!(addresses, one_each, "its address in a run of its own");
        assert_ne!(recorded, Trace::new());
        let shorter: Trace = sorted[..8].iter().copied().collect();
        assert_ne!(recorded, shorter);
    }

    #[test]
    fn sorting_a_recorded_trace_with_pushed_references_keeps_each_burst_in_order() {
        let (mut trace, mut listed) = recorded_and_sorted(3, &example_bursts());
        for late in [
            r(0, 0, 100, RefKind::Read),
            r(14, 2, 102, RefKind::Write),
            r(30, 1, 104, RefKind::Read),
        ] {
            trace.push(late);
            listed.push(late);
        }
        trace.sort_by_time();
        listed.sort_by_key(|r| r.time);
        assert_eq!(trace.refs().collect::<Vec<_>>(), listed);
    }

    #[test]
    fn a_burst_may_end_on_the_last_tick_of_the_clock() {
        let mut recorder = TraceRecorder::new(1);
        let mut burst = recorder.begin(r(u64::MAX - 10, 0, 0, RefKind::Read), 5);
        for addr in [0, 2, 4] {
            burst.push(addr);
        }
        let trace = recorder.finish();
        let times: Vec<u64> = trace.refs().map(|r| r.time).collect();
        assert_eq!(times, [u64::MAX - 10, u64::MAX - 5, u64::MAX]);
    }

    #[test]
    fn an_idle_recorder_finishes_empty() {
        assert!(TraceRecorder::new(4).finish().is_empty());
        assert!(TraceRecorder::new(0).finish().is_empty());
    }

    /// A burst as `(first, step, runs)`, each run `(base, stride, count)`.
    type RunBurst = (MemRef, u64, Vec<(u32, u32, usize)>);

    /// Records `bursts` with one `push_run` a run, and, as the oracle,
    /// lists the same references one by one and stable-sorts them by time.
    fn recorded_runs(n_procs: usize, bursts: &[RunBurst]) -> (Trace, Vec<MemRef>) {
        let mut recorder = TraceRecorder::new(n_procs);
        let mut listed = Vec::new();
        for (first, step, runs) in bursts {
            let mut burst = recorder.begin(*first, *step);
            let addrs = runs.iter().flat_map(|&(base, stride, count)| {
                (0..count as u32).map(move |i| base.wrapping_add(i.wrapping_mul(stride)))
            });
            for (i, addr) in (0..).zip(addrs) {
                listed.push(MemRef { time: first.time + i * step, addr, ..*first });
            }
            runs.iter().for_each(|&(base, stride, count)| burst.push_run(base, stride, count));
        }
        listed.sort_by_key(|r| r.time);
        (recorder.finish(), listed)
    }

    #[test]
    fn fold_goes_on_where_next_stopped_across_the_ends_of_runs() {
        let read = |t, p| r(t, p, 0, RefKind::Read);
        let write = |t, p| r(t, p, 0, RefKind::Write).with_delta(-1);
        let bursts = [
            // Sweeps at one step, each a few runs: a row, a column of a
            // 100-grid surface, a cell read again, a run of one.
            (read(0, 0), 4, vec![(0, 2, 5), (10, 200, 4), (6, 0, 3), (50, 2, 1), (52, 2, 6)]),
            (read(1, 1), 4, vec![(400, 200, 3), (1000, 2, 9), (20, 2, 7)]),
            // Writes at a quarter of the step: four places a round.
            (write(2, 2), 1, vec![(300, 2, 6), (700, 200, 5), (90, 2, 7), (96, 0, 2)]),
            (read(21, 2), 4, vec![(5000, 2, 3), (5100, 2, 3), (5200, 200, 4)]),
            // References given one at a time: writes at step 0, at the
            // time of a sweep's last read and after it.
            (write(72, 0), 0, vec![(60, 2, 2)]),
            (write(73, 1), 0, vec![(8, 0, 1), (500, 2, 2)]),
            // A lone sweep, in rounds of one member.
            (read(74, 1), 4, vec![(3000, 2, 4), (3100, 200, 5)]),
        ];
        let (trace, listed) = recorded_runs(3, &bursts);
        assert!(trace.spans.len() > trace.bursts.len(), "bursts of several runs");
        let batches = &trace.order.batches;
        assert!(batches.iter().any(|b| b.rounds == 1), "references given one at a time");
        let starts = std::iter::once(0).chain(batches.iter().map(|b| b.end));
        let places = batches.iter().zip(starts).filter(|(b, _)| b.rounds > 1).map(|(b, start)| {
            let rotation = &trace.order.bursts[start..b.end];
            rotation.iter().filter(|&&burst| burst == 2).count()
        });
        assert_eq!(places.max(), Some(4), "a rotation with four places of the writes");
        for k in 0..=listed.len() {
            let mut refs = trace.refs();
            for (i, want) in listed[..k].iter().enumerate() {
                assert_eq!(refs.next().as_ref(), Some(want), "next {i}");
            }
            let mut rest = Vec::new();
            refs.for_each(|r| rest.push(r));
            assert_eq!(rest, listed[k..], "fold after {k}");
        }
        assert_eq!(trace.refs().collect::<Vec<_>>(), listed);
    }

    #[test]
    fn span_queries_are_stored_as_runs_whatever_they_read() {
        // A sweep of `w` span queries of `w` cells each, as a traced jog
        // sweep over `w` grids makes: `w` runs, `w²` references.
        let w = 512;
        let mut recorder = TraceRecorder::new(1);
        let mut burst = recorder.begin(r(0, 0, 0, RefKind::Read), 4);
        (0..w).for_each(|x| burst.push_run(2 * x, 2 * w, w as usize));
        let trace = recorder.finish();
        assert_eq!((trace.len(), trace.spans.len()), ((w * w) as usize, w as usize));
        let addrs = (0..w).flat_map(|x| (0..w).map(move |c| 2 * x + 2 * w * c));
        assert!(trace.refs().map(|r| r.addr).eq(addrs));
    }

    #[test]
    fn addresses_pushed_one_at_a_time_extend_the_last_run() {
        let mut recorder = TraceRecorder::new(1);
        let mut burst = recorder.begin(r(0, 0, 0, RefKind::Write), 1);
        for addr in [4, 6, 8, 8, 8, 1, u32::MAX - 1, u32::MAX - 4, 6] {
            burst.push(addr);
        }
        burst.push_run(10, 4, 2);
        burst.push(18);
        let trace = recorder.finish();
        let runs: Vec<(u32, u32, u32)> =
            trace.spans.iter().map(|s| (s.base, s.stride, s.count)).collect();
        // The second address sets a run's stride, wrapping; a run given
        // whole is one run, and a push goes on with it.
        let wraps = 3u32.wrapping_neg();
        assert_eq!(runs, [(4, 2, 3), (8, 0, 2), (1, wraps, 3), (6, 0, 1), (10, 4, 3)]);
        let addrs = [4, 6, 8, 8, 8, 1, u32::MAX - 1, u32::MAX - 4, 6, 10, 14, 18];
        assert!(trace.refs().map(|r| r.addr).eq(addrs), "{:?}", addrs);
    }

    #[test]
    fn a_run_counts_fewer_than_2_to_the_32_addresses() {
        let mut recorder = TraceRecorder::new(1);
        let mut burst = recorder.begin(r(7, 0, 0, RefKind::Read), 1);
        burst.push_run(8, 0, u32::MAX as usize);
        burst.push(8);
        burst.push_run(4, 0, u32::MAX as usize + 2);
        let trace = recorder.finish();
        assert_eq!(trace.len(), 2 * u32::MAX as usize + 3);
        let counts: Vec<(u32, RefKind, usize)> = trace.burst_counts().collect();
        assert_eq!(counts, [(0, RefKind::Read, 2 * u32::MAX as usize + 3)]);
        let runs: Vec<(u32, u32, u32)> =
            trace.spans.iter().map(|s| (s.base, s.stride, s.count)).collect();
        // A full run takes no push; a run given whole goes on in another.
        assert_eq!(runs, [(8, 0, u32::MAX), (8, 0, 1), (4, 0, u32::MAX), (4, 0, 2)]);
        let head: Vec<(u64, u32)> = trace.refs().take(2).map(|r| (r.time, r.addr)).collect();
        assert_eq!(head, [(7, 8), (8, 8)]);
    }

    #[test]
    #[should_panic(expected = "a run of 3 addresses from 4294967290 by 4 ends beyond")]
    fn a_run_that_ends_beyond_the_address_space_is_caught() {
        let mut recorder = TraceRecorder::new(1);
        let mut burst = recorder.begin(r(0, 0, 0, RefKind::Read), 10);
        burst.push_run(u32::MAX - 8, 4, 2);
        burst.push_run(u32::MAX - 5, 4, 3);
    }

    #[test]
    #[should_panic(expected = "before its last one ended")]
    fn a_processor_clock_that_runs_backwards_is_caught() {
        let mut recorder = TraceRecorder::new(1);
        let mut burst = recorder.begin(r(0, 0, 0, RefKind::Read), 10);
        burst.push(0);
        burst.push(2);
        recorder.begin(r(9, 0, 0, RefKind::Read), 10);
    }
}
