//! A counting latch used to implement fork/join scopes.

// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicUsize, Condvar, Mutex, Ordering};

/// A latch that counts outstanding tasks and lets one thread wait for the
/// count to reach zero.
///
/// This is the synchronisation backbone of [`crate::Scope`]: every spawned
/// task increments the latch, every completed task decrements it, and the
/// scope owner blocks (or helps execute work) until it drains.
///
/// The fast path is a lone atomic; the mutex/condvar pair is only touched
/// when a waiter is actually parked.
pub struct CountLatch {
    count: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl CountLatch {
    /// Creates a latch with an initial count of zero.
    pub fn new() -> Self {
        CountLatch {
            count: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Registers one more outstanding task.
    pub fn increment(&self) {
        // ord: Relaxed — registration precedes the task's queue
        // submission, and the queue's own synchronisation publishes it;
        // the latch only needs the count arithmetic to be atomic.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one task as finished, waking waiters if the count hits zero.
    pub fn decrement(&self) {
        // ord: Release — pairs with `count`'s Acquire load so everything
        // the finished task wrote happens-before a waiter seeing zero.
        if self.count.fetch_sub(1, Ordering::Release) == 1 {
            // Last task out: take the lock so a concurrent `wait` cannot
            // observe the zero between its check and its sleep, then wake.
            let _guard = self.lock.lock();
            self.cond.notify_all();
        }
    }

    /// Returns the current count. Zero means all registered tasks finished.
    pub fn count(&self) -> usize {
        // ord: Acquire — pairs with decrement's Release: observing zero
        // makes every finished task's writes visible to the caller.
        self.count.load(Ordering::Acquire)
    }

    /// Returns true if there is nothing outstanding.
    pub fn is_clear(&self) -> bool {
        self.count() == 0
    }

    /// Blocks the calling thread until the count reaches zero.
    ///
    /// Callers that can do useful work instead should poll [`Self::is_clear`]
    /// and only fall back to `wait` when no work is available (this is what
    /// the pool's helping loop does).
    pub fn wait(&self) {
        if self.is_clear() {
            return;
        }
        let mut guard = self.lock.lock();
        while !self.is_clear() {
            self.cond.wait(&mut guard);
        }
    }

    /// Blocks until the count reaches zero or the timeout elapses.
    /// Returns true if the latch is clear.
    pub fn wait_timeout(&self, dur: std::time::Duration) -> bool {
        if self.is_clear() {
            return true;
        }
        let mut guard = self.lock.lock();
        if self.is_clear() {
            return true;
        }
        self.cond.wait_for(&mut guard, dur);
        self.is_clear()
    }
}

impl Default for CountLatch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn starts_clear() {
        let latch = CountLatch::new();
        assert!(latch.is_clear());
        latch.wait(); // must not block
    }

    #[test]
    fn increments_and_decrements() {
        let latch = CountLatch::new();
        latch.increment();
        latch.increment();
        assert_eq!(latch.count(), 2);
        latch.decrement();
        assert_eq!(latch.count(), 1);
        latch.decrement();
        assert!(latch.is_clear());
    }

    #[test]
    fn wait_blocks_until_clear() {
        let latch = Arc::new(CountLatch::new());
        latch.increment();
        let l2 = Arc::clone(&latch);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            l2.decrement();
        });
        latch.wait();
        assert!(latch.is_clear());
        handle.join().unwrap();
    }

    #[test]
    fn wait_timeout_reports_pending() {
        let latch = CountLatch::new();
        latch.increment();
        assert!(!latch.wait_timeout(Duration::from_millis(5)));
        latch.decrement();
        assert!(latch.wait_timeout(Duration::from_millis(5)));
    }

    #[test]
    fn many_threads_drain() {
        let latch = Arc::new(CountLatch::new());
        for _ in 0..64 {
            latch.increment();
        }
        let mut handles = Vec::new();
        for _ in 0..64 {
            let l = Arc::clone(&latch);
            handles.push(thread::spawn(move || l.decrement()));
        }
        latch.wait();
        assert!(latch.is_clear());
        for h in handles {
            h.join().unwrap();
        }
    }
}

/// Exhaustive interleaving checks for the latch protocol — the edge that
/// publishes every scoped task's effects to the scope owner. Run with
/// `cargo test -p jstar-pool --features model-check`.
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use jstar_check::sync::UnsafeCell;
    use jstar_check::{thread, Checker};
    use std::sync::Arc;

    /// One result per task, as two `Scope::spawn`s would produce them.
    struct Jobs {
        first: UnsafeCell<u64>,
        second: UnsafeCell<u64>,
        latch: CountLatch,
    }
    // SAFETY: the cells are written only by their task before its latch
    // decrement and read only after the owner observes the latch clear;
    // the decrement's Release / count's Acquire pairing orders them. The
    // model tests below are exactly the proof of this claim.
    unsafe impl Sync for Jobs {}

    /// A condvar-parked waiter must see the worker's pre-decrement write
    /// once `wait` returns — the race detector fails the run otherwise.
    #[test]
    fn wait_publishes_task_effects() {
        let report = Checker::new().check(|| {
            let jobs = Arc::new(Jobs {
                first: UnsafeCell::new(0),
                second: UnsafeCell::new(0),
                latch: CountLatch::new(),
            });
            jobs.latch.increment();
            let worker = {
                let jobs = Arc::clone(&jobs);
                thread::spawn(move || {
                    // SAFETY: unique writer; published by the decrement.
                    jobs.first.with_mut(|p| unsafe { *p = 7 });
                    jobs.latch.decrement();
                })
            };
            jobs.latch.wait();
            // SAFETY: latch observed clear — the task's write is ordered
            // before this read.
            assert_eq!(jobs.first.with(|p| unsafe { *p }), 7);
            worker.join();
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }

    /// The owner's polling join (`Scope::completed` → `is_clear`) must
    /// publish the effects of two tasks: each writes its result before
    /// decrementing, and the owner spins on `is_clear` instead of
    /// parking.
    #[test]
    fn polling_join_publishes_both_lanes() {
        let report = Checker::new().check(|| {
            let jobs = Arc::new(Jobs {
                first: UnsafeCell::new(0),
                second: UnsafeCell::new(0),
                latch: CountLatch::new(),
            });
            jobs.latch.increment();
            jobs.latch.increment();
            let a = {
                let jobs = Arc::clone(&jobs);
                thread::spawn(move || {
                    // SAFETY: unique writer; published by the decrement.
                    jobs.first.with_mut(|p| unsafe { *p = 1 });
                    jobs.latch.decrement();
                })
            };
            let b = {
                let jobs = Arc::clone(&jobs);
                thread::spawn(move || {
                    // SAFETY: unique writer; published by the decrement.
                    jobs.second.with_mut(|p| unsafe { *p = 2 });
                    jobs.latch.decrement();
                })
            };
            while !jobs.latch.is_clear() {
                jstar_check::sync::spin_loop();
            }
            // SAFETY: latch observed clear — both decrements' Release
            // stores are acquired, ordering both writes before these
            // reads.
            assert_eq!(jobs.first.with(|p| unsafe { *p }), 1);
            assert_eq!(jobs.second.with(|p| unsafe { *p }), 2);
            a.join();
            b.join();
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }
}
