//! The work-stealing thread pool itself.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::scope::Scope;

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between the pool handle and its worker threads.
pub(crate) struct Shared {
    /// Global FIFO queue that external threads (and helpers) submit to.
    injector: Injector<Job>,
    /// One stealer per worker's local LIFO deque.
    stealers: Vec<Stealer<Job>>,
    /// Number of jobs submitted but not yet started; used to decide
    /// sleeping and as the adaptive chunking backlog signal.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    sleep_cond: Condvar,
}

/// A worker thread's registration: its pool, local deque, and stable index.
type LocalWorker = (Arc<Shared>, Worker<Job>, usize);

thread_local! {
    /// Local deque of the current worker thread, if this thread belongs to a
    /// pool, together with the worker's stable index within that pool. Used
    /// so that jobs spawned from inside the pool go to the fast LIFO path
    /// instead of the shared injector, and so engine code can route
    /// per-worker state (e.g. sharded Delta staging buffers) without
    /// synchronisation.
    static LOCAL: RefCell<Option<LocalWorker>> = const { RefCell::new(None) };

    /// Nesting depth of "helping" job execution on this thread. Helping
    /// recurses (a helped job can enter a scope, which helps again); an
    /// unbounded chain overflows the stack on deeply recursive fork/join
    /// programs, so waiters past [`MAX_HELP_DEPTH`] park on the latch and
    /// let other threads drain the queue instead.
    static HELP_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Deeper helping than this parks the waiter instead of executing more
/// jobs inline, letting workers and shallower waiters drain the queue.
/// If *every* thread sits at the cap (pathologically deep single-chain
/// nesting), [`Scope::run`] falls back to forced helping after a stall,
/// trading the stack-depth guarantee for guaranteed progress.
const MAX_HELP_DEPTH: usize = 48;

impl Shared {
    /// Pushes a job, preferring the current worker's local deque.
    pub(crate) fn push(self: &Arc<Self>, job: Job) {
        // ord: Release — pairs with the Acquire load in the sleep check:
        // a worker that observes the bumped count also observes the job
        // made visible by the deque push below (the deque has its own
        // internal ordering; this keeps the count itself coherent with it).
        self.pending.fetch_add(1, Ordering::Release);
        let pushed_locally = LOCAL.with(|slot| {
            if let Some((shared, worker, _)) = slot.borrow().as_ref() {
                if Arc::ptr_eq(shared, self) {
                    worker.push(job);
                    return None;
                }
            }
            Some(job)
        });
        if let Some(job) = pushed_locally {
            self.injector.push(job);
        }
        // Wake one sleeper; it will wake further sleepers if more work shows up.
        let _guard = self.sleep_lock.lock();
        self.sleep_cond.notify_all();
    }

    /// Pushes a whole batch of jobs with a single wakeup, instead of one
    /// lock/notify round-trip per job. This is the submission shape of the
    /// engine's all-minimums step: all chunks of one equivalence class are
    /// ready at once, so per-job notification is pure overhead.
    pub(crate) fn push_batch(self: &Arc<Self>, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        // ord: Release — as in `push`, one bump for the whole batch.
        self.pending.fetch_add(jobs.len(), Ordering::Release);
        let leftover = LOCAL.with(|slot| {
            if let Some((shared, worker, _)) = slot.borrow().as_ref() {
                if Arc::ptr_eq(shared, self) {
                    for job in jobs {
                        worker.push(job);
                    }
                    return None;
                }
            }
            Some(jobs)
        });
        if let Some(jobs) = leftover {
            for job in jobs {
                self.injector.push(job);
            }
        }
        let _guard = self.sleep_lock.lock();
        self.sleep_cond.notify_all();
    }

    /// Tries to take one job from anywhere: the local deque, the injector,
    /// or a sibling worker.
    pub(crate) fn find_job(&self, local: Option<&Worker<Job>>) -> Option<Job> {
        if let Some(w) = local {
            if let Some(job) = w.pop() {
                return Some(job);
            }
        }
        loop {
            match local
                .map(|w| self.injector.steal_batch_and_pop(w))
                .unwrap_or_else(|| self.injector.steal())
            {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        // Steal from siblings, scanning all of them until stable.
        loop {
            let mut retry = false;
            for st in &self.stealers {
                match st.steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
        }
    }

    fn run_job(&self, job: Job) {
        // ord: Release — settles this job's `push` increment before the
        // job body runs; an Acquire reader of 0 therefore knows every
        // submitted job has at least started.
        self.pending.fetch_sub(1, Ordering::Release);
        // Job panics are caught by the scope machinery; a bare `execute`d job
        // that panics must not take the worker thread down with it.
        let _ = panic::catch_unwind(AssertUnwindSafe(job));
    }

    /// Executes one available job. Returns false when no job was found or this thread's helping
    /// recursion is already at the depth cap (unless `force` overrides
    /// the cap to break a stall).
    pub(crate) fn try_help(&self, force: bool) -> bool {
        if !force && HELP_DEPTH.with(|d| d.get()) >= MAX_HELP_DEPTH {
            return false;
        }
        let local_job = LOCAL.with(|slot| {
            let borrow = slot.borrow();
            match borrow.as_ref() {
                Some((_, worker, _)) => self.find_job(Some(worker)),
                None => self.find_job(None),
            }
        });
        match local_job {
            Some(job) => {
                HELP_DEPTH.with(|d| d.set(d.get() + 1));
                self.run_job(job);
                HELP_DEPTH.with(|d| d.set(d.get() - 1));
                true
            }
            None => false,
        }
    }

    fn worker_loop(self: Arc<Self>, worker: Worker<Job>, index: usize) {
        LOCAL.with(|slot| {
            *slot.borrow_mut() = Some((Arc::clone(&self), worker, index));
        });
        loop {
            let job = LOCAL.with(|slot| {
                let borrow = slot.borrow();
                // lint: allow(expect): worker_loop installed the TLS slot before looping.
                let (_, worker, _) = borrow.as_ref().expect("worker registered above");
                self.find_job(Some(worker))
            });
            match job {
                Some(job) => self.run_job(job),
                None => {
                    // ord: Acquire — pairs with Drop's Release store; a
                    // worker that observes shutdown also observes every
                    // write the dropping thread made before it.
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    // Park until a push notifies us. The timeout guards
                    // against a lost wakeup between find_job and sleeping.
                    let mut guard = self.sleep_lock.lock();
                    // ord: Acquire ×2 — pair with the submitters' Release
                    // bumps (and Drop's Release store): reading 0/false
                    // here proves no submission predates this check, so
                    // sleeping cannot strand a job (the timed wait covers
                    // the remaining push-between-check-and-sleep window).
                    if self.pending.load(Ordering::Acquire) == 0
                        && !self.shutdown.load(Ordering::Acquire)
                    {
                        self.sleep_cond
                            .wait_for(&mut guard, Duration::from_millis(5));
                    }
                }
            }
        }
        LOCAL.with(|slot| {
            *slot.borrow_mut() = None;
        });
    }
}

/// A fixed-size work-stealing fork/join thread pool.
///
/// This is the Rust stand-in for the Java Fork/Join pool that the JStar
/// runtime parallelises on. Jobs spawned from inside the pool go to the
/// spawning worker's LIFO deque (good locality, like `ForkJoinTask.fork`);
/// idle workers steal FIFO from siblings or the global injector.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with exactly `threads` worker threads (minimum 1).
    ///
    /// This corresponds to the paper's `--threads=N` runtime flag.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            sleep_cond: Condvar::new(),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("jstar-worker-{i}"))
                    .spawn(move || shared.worker_loop(w, i))
                    // lint: allow(expect): pool construction; spawn failure is fatal by design.
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// The number of worker threads in this pool.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// The stable index of the calling worker thread within *this* pool:
    /// `Some(0..num_threads)` on a pool worker, `None` on any other thread
    /// (including workers of a different pool).
    ///
    /// This is what lets callers keep per-worker state — e.g. the engine's
    /// sharded Delta staging buffers — without any cross-thread
    /// synchronisation on the hot path.
    pub fn current_worker_index(&self) -> Option<usize> {
        LOCAL.with(|slot| {
            slot.borrow().as_ref().and_then(|(shared, _, index)| {
                if Arc::ptr_eq(shared, &self.shared) {
                    Some(*index)
                } else {
                    None
                }
            })
        })
    }

    /// Number of submitted-but-not-yet-started jobs — a cheap occupancy
    /// signal. The engine's adaptive scheduler uses it to pick chunk
    /// sizes: a backlog means smaller task counts (bigger chunks) waste
    /// less time queuing.
    pub fn pending_jobs(&self) -> usize {
        // ord: Acquire — pairs with the submitters' Release bumps so the
        // backlog signal is never fresher than the queues it describes.
        self.shared.pending.load(Ordering::Acquire)
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Submits a detached `'static` job.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.shared.push(Box::new(f));
    }

    /// Runs a fork/join scope: closures spawned on the [`Scope`] may borrow
    /// from the enclosing stack frame, and `scope` only returns once every
    /// spawned task (transitively) has completed.
    ///
    /// The calling thread *helps*: while waiting it executes queued jobs, so
    /// a scope entered from a worker thread cannot deadlock the pool.
    ///
    /// If any task panics, the panic is captured and resumed on the caller
    /// after all tasks finish (matching `rayon::scope` semantics).
    pub fn scope<'scope, F, R>(&'scope self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        Scope::run(self, f)
    }

    /// Classic binary fork/join: runs `a` and `b` potentially in parallel and
    /// returns both results.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        let mut rb = None;
        let ra = self.scope(|s| {
            s.spawn(|_| rb = Some(b()));
            a()
        });
        // lint: allow(expect): scope() joins the spawned task before returning.
        (ra, rb.expect("spawned task completed by scope exit"))
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // ord: Release — pairs with the workers' Acquire loads: a worker
        // that sees the flag also sees everything this thread wrote first.
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep_lock.lock();
            self.shared.sleep_cond.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// A process-wide pool sized to `std::thread::available_parallelism()`.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ThreadPool::new(n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jstar_check::sync::AtomicU64;

    #[test]
    fn executes_detached_jobs() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Drain by scoping an empty task set after the submissions.
        while counter.load(Ordering::Relaxed) < 100 {
            std::thread::yield_now();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_waits_for_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..256 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn nested_scopes_from_workers() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        pool.scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&counter);
                s.spawn(move |inner| {
                    for _ in 0..8 {
                        let c = Arc::clone(&c);
                        inner.spawn(move |_| {
                            c.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPool::new(2);
        let (a, b) = pool.join(|| 6 * 7, || "hi".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "hi");
    }

    #[test]
    fn join_works_on_single_thread_pool() {
        let pool = ThreadPool::new(1);
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let v = pool.scope(|_| 99);
        assert_eq!(v, 99);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn scope_propagates_panic() {
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
    }

    #[test]
    fn pool_survives_task_panic() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("first"));
            });
        }));
        assert!(r.is_err());
        // The pool must still execute new work after a panic.
        let ok = pool.scope(|_| 5);
        assert_eq!(ok, 5);
    }

    #[test]
    fn deep_recursion_does_not_deadlock() {
        // Spawn a task tree deeper than the thread count; helping must
        // prevent deadlock.
        let pool = ThreadPool::new(2);
        fn fib(pool: &ThreadPool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        assert_eq!(fib(&pool, 16), 987);
    }

    #[test]
    fn worker_index_is_stable_and_scoped_to_pool() {
        let pool = Arc::new(ThreadPool::new(3));
        let other = ThreadPool::new(2);
        assert_eq!(pool.current_worker_index(), None, "caller is not a worker");
        assert_eq!(other.current_worker_index(), None);
        // Detached jobs run on worker threads only (no caller helping), so
        // every one of them must observe a valid index for its own pool.
        let done = Arc::new(AtomicU64::new(0));
        let ok = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let pool2 = Arc::clone(&pool);
            let done = Arc::clone(&done);
            let ok = Arc::clone(&ok);
            pool.execute(move || {
                if matches!(pool2.current_worker_index(), Some(i) if i < 3) {
                    ok.fetch_add(1, Ordering::Relaxed);
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        while done.load(Ordering::Relaxed) < 64 {
            std::thread::yield_now();
        }
        assert_eq!(ok.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn spawn_batch_runs_every_task() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn_batch((0..128).map(|_| {
                |_: &crate::Scope<'_>| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }));
        });
        assert_eq!(counter.load(Ordering::Relaxed), 128);
    }

    #[test]
    fn pending_jobs_drains_to_zero() {
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|_| {});
            }
        });
        // After the scope, every submitted job has started (and finished).
        assert_eq!(pool.pending_jobs(), 0);
    }

    #[test]
    fn global_pool_is_usable() {
        let n = global().num_threads();
        assert!(n >= 1);
        let v = global().scope(|_| 7);
        assert_eq!(v, 7);
    }
}
