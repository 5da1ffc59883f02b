//! Structured fork/join scopes over the pool.

use std::any::Any;
use std::marker::PhantomData;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

// Shim mutex: parking_lot in production, model-checked under
// `--features model-check` (see crates/jstar-check).
use jstar_check::sync::Mutex;

use crate::latch::CountLatch;
use crate::pool::{Job, ThreadPool};

/// State shared by all tasks of one scope.
struct ScopeState {
    latch: CountLatch,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// A fork/join scope created by [`ThreadPool::scope`].
///
/// Closures spawned on the scope may borrow data living at least as long as
/// `'scope`; the scope guarantees they all complete before
/// [`ThreadPool::scope`] returns, which is what makes the borrows sound.
pub struct Scope<'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant over `'scope`, mirroring `std::thread::scope`'s variance
    /// trick: prevents the scope from being smuggled to a longer lifetime.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    pub(crate) fn run<F, R>(pool: &'scope ThreadPool, f: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            pool,
            state: Arc::new(ScopeState {
                latch: CountLatch::new(),
                panic: Mutex::new(None),
            }),
            _marker: PhantomData,
        };
        // Run the scope body itself under catch_unwind so that spawned tasks
        // are always waited for, even if the body panics: otherwise borrowed
        // data could be freed while tasks still run.
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));

        // Help execute work until every spawned task has finished. Helping
        // is depth-capped to bound stack growth; if the pool stalls with
        // every thread at the cap (pathologically deep nesting), force one
        // over-cap help so the system always makes progress.
        let mut stalled_waits = 0u32;
        while !scope.state.latch.is_clear() {
            if pool.shared().try_help(false) {
                stalled_waits = 0;
            } else {
                scope
                    .state
                    .latch
                    .wait_timeout(std::time::Duration::from_millis(1));
                stalled_waits += 1;
                if stalled_waits >= 2
                    && !scope.state.latch.is_clear()
                    && pool.shared().try_help(true)
                {
                    stalled_waits = 0;
                }
            }
        }

        if let Some(payload) = scope.state.panic.lock().take() {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Wraps a scoped closure as a queueable job, registering it on the
    /// latch. The increment happens here, after the caller has the
    /// closure in hand, so an iterator that panics mid-batch never
    /// leaves a phantom increment behind.
    fn wrap<F>(&self, f: F) -> Job
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.state.latch.increment();
        let state = Arc::clone(&self.state);
        let pool = self.pool;
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope = Scope {
                pool,
                state: Arc::clone(&state),
                _marker: PhantomData,
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
            if let Err(payload) = result {
                scope.state.record_panic(payload);
            }
            state.latch.decrement();
        });
        // SAFETY: `Scope::run` does not return until the latch is clear, so
        // the closure (and everything it borrows from 'scope, including the
        // pool reference) outlives the task's execution. We erase the
        // lifetime to store the job in the 'static queue, exactly like
        // rayon's scope and crossbeam's scoped threads do.
        unsafe { mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(task) }
    }

    /// Spawns a task on the pool. The closure receives the scope again so it
    /// can spawn further subtasks (nested fork/join).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let job = self.wrap(f);
        Arc::clone(self.pool.shared()).push(job);
    }

    /// Spawns a whole batch of tasks with a single queue submission and a
    /// single worker wakeup. Use this when all tasks of a fork/join step
    /// are known up front (the engine's all-minimums class execution): it
    /// removes the per-task notify storm of repeated [`Scope::spawn`].
    pub fn spawn_batch<F, I>(&self, fs: I)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
        I: IntoIterator<Item = F>,
    {
        // Drain the caller's iterator *before* touching the latch: user
        // code may panic mid-iteration, and an increment without a queued
        // job would make Scope::run wait forever.
        let fs: Vec<F> = fs.into_iter().collect();
        let jobs: Vec<Job> = fs.into_iter().map(|f| self.wrap(f)).collect();
        Arc::clone(self.pool.shared()).push_batch(jobs);
    }

    /// True when every task spawned on this scope (so far) has finished.
    ///
    /// Together with [`Scope::help`] and [`Scope::wait_timeout`] this
    /// lets the scope owner *participate* in the join instead of
    /// blocking in [`ThreadPool::scope`]'s internal loop — interleaving
    /// its own coordinator work (e.g. absorbing staged tuples) with
    /// helping, and breaking out the moment the spawned work is done.
    pub fn completed(&self) -> bool {
        self.state.latch.is_clear()
    }

    /// Executes one queued pool job if any is available. Returns false
    /// when there was
    /// nothing to help with — the caller should then do its own pending
    /// work or park via [`Scope::wait_timeout`].
    pub fn help(&self) -> bool {
        self.pool.shared().try_help(false)
    }

    /// Parks the calling thread until the scope's tasks complete or the
    /// timeout elapses; returns true when the scope is complete.
    pub fn wait_timeout(&self, dur: std::time::Duration) -> bool {
        self.state.latch.wait_timeout(dur)
    }

    /// The pool this scope runs on.
    pub fn pool(&self) -> &'scope ThreadPool {
        self.pool
    }
}

#[cfg(test)]
mod tests {
    use crate::ThreadPool;
    use jstar_check::sync::{AtomicUsize, Ordering};

    #[test]
    fn tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(2);
        let data = [1u32, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                let sum = &sum;
                s.spawn(move |_| {
                    sum.fetch_add(chunk.iter().sum::<u32>() as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pathologically_deep_nesting_makes_progress() {
        // Regression: a single chain of nested scopes deeper than the
        // helping cap used to livelock once every thread hit the cap.
        // The forced-help fallback must keep it moving.
        let pool = ThreadPool::new(1);
        fn nest(pool: &ThreadPool, depth: usize, hits: &AtomicUsize) {
            hits.fetch_add(1, Ordering::Relaxed);
            if depth == 0 {
                return;
            }
            pool.scope(|s| {
                s.spawn(move |inner| nest(inner.pool(), depth - 1, hits));
            });
        }
        let hits = AtomicUsize::new(0);
        nest(&pool, 200, &hits);
        assert_eq!(hits.load(Ordering::Relaxed), 201);
    }

    #[test]
    fn spawn_batch_iterator_panic_does_not_hang() {
        // Regression: a panicking batch iterator used to leak latch
        // increments, making Scope::run wait forever.
        let pool = ThreadPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                let ran = &ran;
                s.spawn_batch((0..10).map(move |i| {
                    if i == 5 {
                        panic!("iterator panic");
                    }
                    move |_: &crate::Scope<'_>| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            });
        }));
        assert!(result.is_err(), "the panic must propagate");
        // No task ever started: the latch was never incremented.
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scope_owner_can_participate_in_the_join() {
        let pool = ThreadPool::new(2);
        let done = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn_batch((0..64).map(|_| {
                |_: &crate::Scope<'_>| {
                    done.fetch_add(1, Ordering::Relaxed);
                }
            }));
            // Owner loop: help until the latch clears, instead of
            // returning and letting Scope::run wait.
            while !s.completed() {
                if !s.help() {
                    s.wait_timeout(std::time::Duration::from_millis(1));
                }
            }
            assert!(s.completed());
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn body_panic_still_waits_for_tasks() {
        let pool = ThreadPool::new(2);
        let flag = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                let flag = &flag;
                s.spawn(move |_| {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    // Relaxed (not SeqCst): the scope's latch join is the
                    // ordering edge; the counter only needs atomicity.
                    flag.fetch_add(1, Ordering::Relaxed);
                });
                panic!("body panic");
            });
        }));
        assert!(r.is_err());
        // The spawned task must have completed before scope unwound.
        assert_eq!(flag.load(Ordering::Relaxed), 1);
    }
}
