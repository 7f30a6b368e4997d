//! Global thread governor for nested campaign parallelism.
//!
//! A campaign fans (method × seed) runs out across job threads, and each
//! run's evaluator can itself fan workload simulations out across worker
//! threads. Without coordination the two layers multiply: 4 jobs × 8
//! evaluator workers oversubscribes a laptop by 4×, while forcing either
//! layer to 1 leaves cores idle whenever the other layer stalls. The
//! [`ThreadGovernor`] bounds the *product*: it holds a fixed pool of
//! thread permits shared by every layer, so campaign jobs plus evaluator
//! workload workers never exceed the configured total, and spare permits
//! flow to whichever layer can use them.
//!
//! Two acquisition modes keep the scheme deadlock-free:
//!
//! * [`ThreadGovernor::acquire`] — **blocking**, used by campaign jobs for
//!   their base permit. A job always eventually gets exactly one permit,
//!   so every run makes progress even when `jobs > total`.
//! * [`ThreadGovernor::try_acquire`] — **non-blocking**, used by
//!   evaluators for *extra* worker threads beyond the caller's own. It
//!   takes whatever is available up to the request (possibly zero) and
//!   never waits, so a holder of a base permit can never deadlock waiting
//!   for permits held by peers.
//!
//! Permits are released through RAII [`Lease`] guards, so a panicking
//! worker returns its permits like any other.
//!
//! Both layers fan their work out through one crate-private pool,
//! `run_ordered`, and share one poisoning policy, `lock`.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A shared pool of thread permits bounding total campaign parallelism.
#[derive(Debug)]
pub struct ThreadGovernor {
    total: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

impl ThreadGovernor {
    /// A governor with `total` permits (clamped to at least 1).
    pub fn new(total: usize) -> Arc<Self> {
        let total = total.max(1);
        Arc::new(ThreadGovernor {
            total,
            available: Mutex::new(total),
            freed: Condvar::new(),
        })
    }

    /// The configured permit total.
    #[cfg(test)]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Permits currently unclaimed.
    #[cfg(test)]
    pub fn available(&self) -> usize {
        *lock(&self.available)
    }

    /// Blocks until one permit is free and takes it. Campaign jobs call
    /// this once per run; because each job holds at most this single
    /// blocking permit, acquisition order cannot deadlock.
    pub fn acquire(self: &Arc<Self>) -> Lease {
        let mut available = lock(&self.available);
        while *available == 0 {
            available = self
                .freed
                .wait(available)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *available -= 1;
        Lease {
            governor: Arc::clone(self),
            held: 1,
        }
    }

    /// Takes up to `want` permits without blocking and returns a lease
    /// over however many were granted (possibly zero). Evaluators use
    /// this for worker threads beyond the one their caller already
    /// represents.
    pub fn try_acquire(self: &Arc<Self>, want: usize) -> Lease {
        let mut available = lock(&self.available);
        let granted = want.min(*available);
        *available -= granted;
        Lease {
            governor: Arc::clone(self),
            held: granted,
        }
    }

    fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut available = lock(&self.available);
        *available += n;
        debug_assert!(*available <= self.total, "permit over-release");
        drop(available);
        self.freed.notify_all();
    }
}

/// Locks `m`, ignoring poisoning: the crate's one poisoning policy.
/// Evaluator workers run under `catch_unwind`, and no critical section
/// here leaves its guarded data half-updated, so a poisoned lock still
/// guards a valid value and the next holder can use it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Computes `f(i)` for every `i` in `0..n` on up to `workers` scoped
/// threads and returns the results in index order. Workers pull the next
/// index from a shared counter, so uneven work balances itself.
///
/// With `workers <= 1` or `n <= 1` everything runs inline on the caller's
/// thread, in index order, so its thread-local state (the evaluator's
/// arena) carries over between calls. A panic in `f` propagates to the
/// caller once every worker has stopped.
pub(crate) fn run_ordered<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// RAII holder of governor permits; returns them on drop.
#[derive(Debug)]
pub struct Lease {
    governor: Arc<ThreadGovernor>,
    held: usize,
}

impl Lease {
    /// Permits this lease holds.
    pub fn held(&self) -> usize {
        self.held
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.governor.release(self.held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn permits_are_bounded_and_returned() {
        let g = ThreadGovernor::new(3);
        assert_eq!(g.total(), 3);
        let a = g.acquire();
        let b = g.try_acquire(5);
        assert_eq!(a.held(), 1);
        assert_eq!(b.held(), 2, "try_acquire grants only what is free");
        assert_eq!(g.available(), 0);
        let c = g.try_acquire(1);
        assert_eq!(c.held(), 0, "exhausted pool grants zero without blocking");
        drop(b);
        assert_eq!(g.available(), 2);
        drop(a);
        drop(c);
        assert_eq!(g.available(), 3);
    }

    #[test]
    fn zero_total_is_clamped_to_one() {
        let g = ThreadGovernor::new(0);
        assert_eq!(g.total(), 1);
        let lease = g.acquire();
        assert_eq!(lease.held(), 1);
    }

    #[test]
    fn blocking_acquire_never_exceeds_total() {
        let g = ThreadGovernor::new(2);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _lease = g.acquire();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "governor must bound concurrency"
        );
        assert_eq!(g.available(), 2, "all permits returned");
    }

    #[test]
    fn run_ordered_returns_index_order_under_uneven_work() {
        let spin_until = |done: &dyn Fn() -> bool| {
            while !done() {
                std::thread::yield_now();
            }
        };
        for n in [0usize, 1, 7] {
            for workers in [1, 2, n, n + 3] {
                let started_1 = AtomicBool::new(false);
                let finished = AtomicUsize::new(0);
                let out = run_ordered(n, workers, |i| {
                    // On a pool, the worker holding index 0 cannot take
                    // index 1, and index 1 finishes last: one worker hands
                    // back [0, 2, 3, ..] and another [1].
                    if workers > 1 && n > 1 {
                        match i {
                            0 => spin_until(&|| started_1.load(Ordering::SeqCst)),
                            1 => {
                                started_1.store(true, Ordering::SeqCst);
                                spin_until(&|| finished.load(Ordering::SeqCst) == n - 1);
                            }
                            _ => {}
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    i * 10
                });
                let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(out, want, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "index 3 failed")]
    fn run_ordered_propagates_a_worker_panic() {
        run_ordered(7, 3, |i| {
            if i == 3 {
                panic!("index 3 failed");
            }
            i
        });
    }

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let m = Mutex::new(41);
        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let mut guard = m.lock().unwrap();
                *guard += 1;
                panic!("holder dies with the lock held");
            })
            .join()
        });
        assert!(poisoned.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 42);
    }
}
