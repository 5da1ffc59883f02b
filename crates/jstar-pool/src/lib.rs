//! # jstar-pool — a work-stealing fork/join thread pool
//!
//! The JStar paper executes the tuples of each minimal Delta equivalence
//! class "in parallel" on top of the Java 7 Fork/Join framework (Lea, 2000),
//! with the pool size controlled by a `--threads=N` runtime flag.  This crate
//! is the Rust substitute for that substrate: a small work-stealing thread
//! pool built on [`crossbeam::deque`], offering
//!
//! * [`ThreadPool::scope`] — structured fork/join: spawn borrowed closures
//!   and block (while *helping*, i.e. executing queued jobs) until all of
//!   them finish, mirroring `ForkJoinTask::invokeAll`;
//! * [`ThreadPool::join`] — binary fork/join of two closures with results;
//! * [`parallel_for`] / [`parallel_for_each`] — chunked data-parallel loops,
//!   the shape used by JStar's all-minimums strategy and by the parallel CSV
//!   region readers;
//! * a configurable thread count (the `--threads=N` flag of the paper), and
//!   a process-wide [`global`] pool sized to available parallelism.
//!
//! Worker threads sleep on a condition variable when no work is available
//! and are woken on submission, so an idle pool consumes no CPU.
//!
//! ```
//! let pool = jstar_pool::ThreadPool::new(4);
//! let mut data = vec![0u64; 1024];
//! jstar_pool::parallel_for_each(&pool, &mut data, 64, |chunk, base| {
//!     for (i, x) in chunk.iter_mut().enumerate() {
//!         *x = (base + i) as u64 * 2;
//!     }
//! });
//! assert_eq!(data[513], 1026);
//! ```

mod latch;
mod parfor;
mod pool;
mod scope;

pub use latch::CountLatch;
pub use parfor::{
    adaptive_chunk, parallel_chunks, parallel_for, parallel_for_each, parallel_map,
    parallel_reduce, parallel_tasks,
};
pub use pool::{global, ThreadPool};
pub use scope::Scope;
