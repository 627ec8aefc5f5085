//! Vector clocks for happens-before reasoning over barrier-synchronized
//! reference traces.
//!
//! The routers under analysis use exactly one synchronization primitive:
//! the barrier between routing iterations ("processes are blocked at a
//! barrier until all the processors are finished", paper §3). The race
//! detector therefore only ever performs *full joins* — at a barrier,
//! every processor's clock absorbs every other's — but the detector is
//! written against the general vector-clock algebra so the
//! happens-before test stays the standard FastTrack-style component
//! comparison rather than an ad-hoc epoch check.

/// A vector clock: one logical-time component per processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct VectorClock {
    clocks: Vec<u64>,
}

impl VectorClock {
    /// The zero clock over `n_procs` components.
    pub(crate) fn new(n_procs: usize) -> Self {
        VectorClock { clocks: vec![0; n_procs] }
    }

    /// Component for processor `p`.
    #[cfg(test)]
    pub(crate) fn get(&self, p: usize) -> u64 {
        self.clocks[p]
    }

    /// Sets processor `p`'s component.
    pub(crate) fn set(&mut self, p: usize, value: u64) {
        self.clocks[p] = value;
    }

    /// Component-wise maximum with `other` (the join at a barrier or
    /// release edge).
    pub(crate) fn join(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.clocks.len(), other.clocks.len());
        for (mine, theirs) in self.clocks.iter_mut().zip(&other.clocks) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Whether this clock has observed at least logical time `value` of
    /// processor `p` — the FastTrack "epoch ⪯ clock" test: an access by
    /// `p` at `p`-time `value` happens-before the current point iff the
    /// current clock's `p` component has reached `value`.
    pub(crate) fn has_observed(&self, p: usize, value: u64) -> bool {
        self.clocks[p] >= value
    }

    /// Whether every component of `self` is ≤ the matching component of
    /// `other` (i.e. `self` happens-before-or-equals `other`).
    #[cfg(test)]
    pub(crate) fn leq(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.clocks.len(), other.clocks.len());
        self.clocks.iter().zip(&other.clocks).all(|(a, b)| a <= b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_componentwise_max() {
        let mut a = VectorClock::new(3);
        a.set(0, 5);
        a.set(2, 1);
        let mut b = VectorClock::new(3);
        b.set(1, 7);
        b.set(2, 4);
        a.join(&b);
        assert_eq!((a.get(0), a.get(1), a.get(2)), (5, 7, 4));
    }

    #[test]
    fn has_observed_is_the_epoch_test() {
        let mut c = VectorClock::new(2);
        c.set(1, 3);
        assert!(c.has_observed(1, 3));
        assert!(c.has_observed(1, 2));
        assert!(!c.has_observed(1, 4));
        assert!(c.has_observed(0, 0));
    }

    #[test]
    fn leq_orders_clocks_partially() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        assert!(a.leq(&b) && b.leq(&a));
        b.set(0, 1);
        assert!(a.leq(&b) && !b.leq(&a));
        a.set(1, 1);
        // Now incomparable.
        assert!(!a.leq(&b) && !b.leq(&a));
    }
}
