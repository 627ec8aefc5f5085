//! The experiments' scoped-thread worker pool.
//!
//! One of the two audited raw-spawn sites in the workspace (the other is
//! `locus_shmem::parallel`, see `clippy.toml`): workers claim jobs off a
//! shared relaxed counter — the routers' own distributed-loop scheduling
//! — and results are reassembled in input order, so the pool's output is
//! independent of the worker count and of OS scheduling. That
//! independence is what lets the sweeps in `locus-bench` print identical
//! rows while the routing work executes on however many threads the
//! host offers.

// Audited executor and atomics (clippy.toml): the pool's scoped spawns and
// the relaxed job counter its workers claim from.
#![expect(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on worker threads; each job is a full routing run, so a
/// small pool saturates quickly.
const MAX_THREADS: usize = 8;

/// A job executor: inline (one worker) or a scoped pool pulling jobs off
/// a shared counter.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Runs every job inline on the calling thread.
    pub fn serial() -> Self {
        WorkerPool { threads: 1 }
    }

    /// Sizes the pool to the host's available parallelism (capped at 8).
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        WorkerPool { threads: n.min(MAX_THREADS) }
    }

    /// A pool of exactly `threads` workers (clamped to `1..=8`).
    pub fn with_threads(threads: usize) -> Self {
        WorkerPool { threads: threads.clamp(1, MAX_THREADS) }
    }

    /// Maps `f` over `items`, preserving input order in the output.
    ///
    /// `f` must be deterministic for the output to be independent of the
    /// worker count; every sweep point of the experiments satisfies that
    /// (the registry's wall-clock engine is the documented exception, and
    /// no sweep runs it).
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let n = items.len();
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let next = AtomicUsize::new(0);
        let done: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let item = slots[idx]
                        .lock()
                        .expect("job slot mutex poisoned")
                        .take()
                        .expect("each job claimed once");
                    *done[idx].lock().expect("result mutex poisoned") = Some(f(item));
                });
            }
        });
        done.into_iter()
            .map(|m| m.into_inner().expect("result mutex poisoned").expect("every job computed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_independent_of_worker_count() {
        let items: Vec<u64> = (0..53).collect();
        let serial = WorkerPool::serial().map(items.clone(), |x| x.wrapping_mul(x) + 1);
        for threads in [2, 4, 8] {
            let parallel =
                WorkerPool::with_threads(threads).map(items.clone(), |x| x.wrapping_mul(x) + 1);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn thread_counts_are_clamped() {
        assert_eq!(WorkerPool::with_threads(0).threads, 1);
        assert_eq!(WorkerPool::with_threads(64).threads, MAX_THREADS);
        assert!(WorkerPool::auto().threads >= 1);
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let p = WorkerPool::with_threads(4);
        assert_eq!(p.map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(p.map(vec![9u32], |x| x * 2), vec![18]);
    }
}
