//! Epoch absorption: moving staged tuples into the Delta queue, either
//! serially at the step boundary or overlapped with class execution.
//!
//! Tuples a step's workers `put` are staged in the
//! [`crate::delta::ShardedInbox`], binned by key prefix at push time.
//! Absorbing them is two phases: **swap** (take the staging epoch out
//! of every shard — [`crate::delta::ShardedInbox::swap_epoch`]) and
//! **merge** (one Delta subtree per partition built on the pool, then
//! grafted by the coordinator — [`crate::delta::DeltaQueue::merge_partitioned`]).
//!
//! With [`super::EngineConfig::pipelined`] on, the coordinator also
//! absorbs *while* a forked class executes: once
//! `max(64, parallel_merge_threshold / 4)` tuples are staged it swaps
//! the epoch out and merges it right away, so the step-boundary absorb
//! finds only a small remainder. A near-empty swap would be a mutex
//! round over every shard for nothing, hence the swap point.
//!
//! The Law of Causality guarantees staged tuples never belong to the
//! *current* step, and the Delta structures are canonical sets keyed by
//! position — so absorbing epochs early (in any interleaving with
//! execution) produces exactly the queue state the step-boundary drain
//! would have, and the pop sequence is unchanged.

use crate::delta::DeltaQueue;
use jstar_check::sync::{AtomicU64, Ordering};
use jstar_pool::{Scope, ThreadPool};
use std::time::{Duration, Instant};

use super::config::EngineConfig;
use super::runtime::RunState;
use crate::orderby::OrderKey;
use crate::tuple::Tuple;

/// The smallest mid-step swap point, in staged tuples.
const MIN_SWAP_POINT: usize = 64;

/// Adds `d` to a nanosecond phase timer.
fn add_nanos(timer: &AtomicU64, d: Duration) {
    // ord: Relaxed — a profiling accumulator, read only after the run
    // has joined every thread.
    timer.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

/// Reusable absorption state: the per-partition run buffers (recycled
/// across epochs so staging allocations survive the round trip) and
/// the per-table insert counters (flushed as **one** stats update per
/// touched table per epoch).
pub(super) struct Pipeline {
    runs: Vec<Vec<(OrderKey, Tuple)>>,
    inserted_by_table: Vec<u64>,
    merge_threshold: usize,
    /// Staged tuples at which a mid-step swap triggers.
    swap_point: usize,
    pipelined: bool,
    timing: bool,
}

impl Pipeline {
    pub(super) fn new(state: &RunState, config: &EngineConfig) -> Pipeline {
        let merge_threshold = config.parallel_merge_threshold;
        Pipeline {
            runs: (0..state.inbox.partitions()).map(|_| Vec::new()).collect(),
            inserted_by_table: vec![0; state.program.defs().len()],
            merge_threshold,
            swap_point: (merge_threshold / 4).max(MIN_SWAP_POINT),
            pipelined: config.pipelined && !config.sequential,
            timing: config.record_steps,
        }
    }

    /// True when the drain/execute overlap is active.
    pub(super) fn pipelined(&self) -> bool {
        self.pipelined
    }

    /// Swaps the staging epoch out of every shard into the run
    /// buffers; false when nothing was staged.
    fn swap(&mut self, state: &RunState) -> bool {
        state.inbox.swap_epoch(&mut self.runs) > 0
    }

    /// Merges the swapped runs into the queue (emptying them, their
    /// allocations kept) and publishes the per-table insert counts.
    fn merge(&mut self, state: &RunState, tree: &mut DeltaQueue, pool: Option<&ThreadPool>) {
        tree.merge_partitioned(
            &mut self.runs,
            pool,
            &mut self.inserted_by_table,
            self.merge_threshold,
        );
        for (ti, count) in self.inserted_by_table.iter_mut().enumerate() {
            if *count > 0 {
                // ord: Relaxed — a statistics counter, read after the run.
                state.stats.tables[ti]
                    .delta_inserts
                    .fetch_add(*count, Ordering::Relaxed);
                *count = 0;
            }
        }
    }

    /// Serial absorb at the step boundary (the **absorb** phase): merges
    /// whatever is still staged — everything, when pipelining is off;
    /// the sub-swap-point remainder otherwise — so the following extract
    /// sees every tuple put by earlier steps. The swap is exact here:
    /// the scope join ordered every worker push before this read.
    pub(super) fn absorb(
        &mut self,
        state: &RunState,
        tree: &mut DeltaQueue,
        pool: Option<&ThreadPool>,
    ) {
        if state.inbox.is_empty() {
            return;
        }
        let t0 = self.timing.then(Instant::now);
        if !self.swap(state) {
            return;
        }
        let t1 = self.timing.then(Instant::now);
        self.merge(state, tree, pool);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let (swap, merge) = (t1 - t0, t1.elapsed());
            add_nanos(&state.stats.partition_nanos, swap);
            add_nanos(&state.stats.merge_nanos, merge);
            add_nanos(&state.stats.drain_nanos, swap + merge);
        }
    }

    /// Overlapped absorb (the pipelined half of the **execute** phase):
    /// runs on the coordinator inside the class's fork/join scope,
    /// absorbing each epoch that reaches the swap point and otherwise
    /// helping execute queued pool work, until every spawned chunk of
    /// the class has finished.
    pub(super) fn overlap(
        &mut self,
        scope: &Scope<'_>,
        state: &RunState,
        tree: &mut DeltaQueue,
        pool: &ThreadPool,
    ) {
        loop {
            let mut progressed = false;
            if state.inbox.len() >= self.swap_point {
                // A busy pool gains nothing from parallel subtree
                // builds: the sequential insert loop on the otherwise
                // waiting coordinator *is* the overlap (and it keeps
                // execute help out of the overlap timer).
                let merge_pool = (pool.pending_jobs() == 0).then_some(pool);
                let t0 = self.timing.then(Instant::now);
                if self.swap(state) {
                    self.merge(state, tree, merge_pool);
                    progressed = true;
                }
                if let Some(t0) = t0 {
                    add_nanos(&state.stats.overlap_nanos, t0.elapsed());
                }
            }
            if scope.completed() {
                break;
            }
            if !progressed && !scope.help() {
                // Nothing to absorb, nothing to help with: the chunks
                // are all running on workers. Park briefly; a finishing
                // chunk (or fresh staging) ends the wait.
                scope.wait_timeout(Duration::from_micros(200));
            }
        }
    }
}
