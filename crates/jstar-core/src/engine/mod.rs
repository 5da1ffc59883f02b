//! The execution engine — JStar's improved incremental pseudo-naive
//! bottom-up evaluator (§3, §5), structured as an explicit **phase
//! pipeline**.
//!
//! The tuple lifecycle (Fig. 3): a rule `put`s a tuple → it waits in the
//! Delta set → it is taken out "in an order that respects the causality
//! ordering", inserted into Gamma, and triggers applicable rules → later
//! rules may query it → (optionally) it is discarded via lifetime hints.
//!
//! Two modes mirror the paper's compiler flags:
//!
//! * **sequential** (`-sequential`): one thread, ordered stores;
//! * **parallel** (default): the *all-minimums strategy* — every tuple of
//!   the minimal Delta equivalence class is executed as a fork/join task on
//!   a [`jstar_pool::ThreadPool`] sized by `--threads=N`.
//!
//! Per-table optimisation flags are faithful to §5.1: `-noDelta T` sends
//! `T`'s tuples straight to Gamma and fires their rules immediately;
//! `-noGamma T` skips storing `T`'s tuples (they act as pure triggers).
//!
//! ## The step machine
//!
//! The step loop (the `coordinator` module) is a four-phase state
//! machine. While a forked class executes, the coordinator absorbs the
//! tuples that class stages for later steps, so the next absorb finds
//! only a small remainder ([`EngineConfig::pipelined`], on by default;
//! off is the strictly alternating loop):
//!
//! ```text
//!            workers: put → ShardedInbox (epoch E+1, binned by key prefix)
//!                                │
//!   ┌──── ABSORB ────┐   ┌─── EXTRACT ───┐   ┌─────────── EXECUTE ───────────┐
//!   │ swap the       │ → │ pop_min_class │ → │ class chunks on the pool      │
//!   │ staged remain- │   └───────────────┘   │  ∥ overlap: each time the     │
//!   │ der out, merge │                       │    swap point of tuples is    │
//!   │ it             │                       │    staged, swap the epoch out │
//!   └────────────────┘                       │    and merge it right away    │
//!            ▲                               └───────────────────────────────┘
//!            │                ┌── MAINTAIN ──┐                 │
//!            └────────────────│ hints,       │◀────────────────┘
//!                             │ compaction,  │
//!                             │ checkpoint   │
//!                             └──────────────┘
//! ```
//!
//! * **Absorb** (`pipeline::Pipeline::absorb`) — the coordinator swaps
//!   whatever is still staged out of the [`crate::delta::ShardedInbox`]
//!   and merges it ([`crate::delta::DeltaQueue::merge_partitioned`]).
//! * **Extract** — `pop_min_class` takes the minimal equivalence class,
//!   the unit of parallelism of the all-minimums strategy. The extract
//!   must reflect *every* tuple staged by earlier steps (a staged key
//!   may order before the current minimum), which is why absorb
//!   completes first.
//! * **Execute** (`schedule::Scheduler` decides the shape) — classes
//!   at or below [`EngineConfig::inline_class_threshold`] run inline on
//!   the coordinator; wider classes are chunked by measured width and
//!   pool occupancy and submitted as one batch
//!   ([`jstar_pool::Scope::spawn_batch`], a single wakeup). While a
//!   forked class runs, the pipelined coordinator loops
//!   (`pipeline::Pipeline::overlap`): once
//!   `max(64, parallel_merge_threshold / 4)` tuples are staged it swaps
//!   the epoch out ([`crate::delta::ShardedInbox::swap_epoch`]) and
//!   merges it — on the pool when the pool has no queued class chunks,
//!   on the coordinator otherwise — and in between it helps execute
//!   queued chunks. Since the Delta structures are canonical sets
//!   keyed by position, early-merged epochs reproduce exactly the state
//!   the step-boundary drain would have: the pop sequence, and
//!   therefore the run, is bit-identical with pipelining on or off
//!   (property-tested in
//!   `tests/prop_engine.rs::pipelined_matches_alternating`).
//! * **Maintain** — the coordinator's single-threaded quiescent point:
//!   tuple-lifetime hints run (§5 step 4), each at its own interval;
//!   stores whose tombstone fraction exceeds
//!   [`EngineConfig::compact_tombstones_above`] are compacted
//!   ([`crate::gamma::TableStore::maybe_compact`]); and every
//!   [`EngineConfig::checkpoint_every`] steps a checkpoint is written
//!   atomically (the Delta queue is forced fully current first; see
//!   [`crate::persist`] and [`Engine::restore_latest`]).
//!
//! **Reading the metrics.** Time spent on overlapped drain work is
//! accounted separately ([`RunReport::overlap_time`],
//! [`RunReport::overlap_fraction`]): it is hidden under the execute
//! phase's wall clock instead of stalling the coordinator, so a rising
//! overlap fraction means the pipeline is doing its job. Turn
//! pipelining off when diagnosing the engine (strictly alternating
//! phases are easier to reason about in a profile) or as the baseline
//! arm of an A/B measurement.
//!
//! ## Execution modes: per-tuple vs batched delta-join
//!
//! The execute phase chooses **how a class meets Gamma**, per class:
//!
//! * **Per-tuple** (the default, always correct): every fresh tuple of
//!   the class fires every rule on its table; a rule that joins its
//!   trigger against a Gamma table pays one indexed probe per tuple.
//! * **Delta-join** (`runtime::process_class_delta_join`): when the
//!   class's table triggers at least one rule carrying an inspectable
//!   [`crate::rule::JoinPlan`] — registered through
//!   `ProgramBuilder::rule_rel_join`, which records which trigger
//!   fields equate to which probe-table fields — and the class has at
//!   least [`EngineConfig::delta_join_threshold`] tuples, the whole
//!   class is treated as the semi-naive *delta*: fresh tuples are
//!   grouped by their join-key values in one deterministic sorted pass,
//!   one sorted column cursor is opened per probe stage, and the sorted
//!   groups are **leapfrogged** against it with seek/next motions, each
//!   match filtered and emitted against every group member. Key groups
//!   fan out across the pool like class chunks do. Opaque rules, and
//!   plans with a keyless stage (cross joins, which give a cursor
//!   nothing to seek on), still run per tuple after the walked rules.
//!
//! The static half of the choice (does any rule on this table have a
//! plan?) is computed once per run; the dynamic half (is this class
//! wide enough, and single-table?) is `schedule::Scheduler::delta_join`.
//! Mode selection is invisible in results: both modes insert the class
//! into Gamma before firing and emit through the same staging path, so
//! by set semantics the staged tuple set — and therefore the pop
//! schedule — is bit-identical (property-tested in
//! `tests/prop_engine.rs::delta_join_matches_per_tuple`).
//! [`RunReport::delta_join_classes`],
//! [`RunReport::delta_join_build_tuples`], [`RunReport::gamma_probes`],
//! [`RunReport::join_cursor_opens`] and [`RunReport::join_seeks`] put
//! the search-cost reduction on record; `bench_hotpath`'s `delta_join`
//! section A/B-measures the walk against per-tuple firing and gates
//! that the mode costs nothing on join-free programs.
//!
//! ## The index-cache lifecycle
//!
//! Leapfrog join walks open sorted per-column views
//! ([`crate::gamma::Gamma::open_cursor`]); iterative programs reopen
//! the same columns step after step over largely-unchanged tables.
//! Gamma keeps each built view in a per-table cache
//! ([`crate::gamma::IndexCache`]) stamped with the store's
//! claim-journal **generation**: a warm open sorts only the journal
//! suffix appended since the stamp and two-way merges it into the
//! cached groups, so its cost tracks the *new* tuples per step instead
//! of the live table. The catch-up runs lazily, on the opening walk.
//! Lifetime-hint `retain`s (a changed tombstone count) and quiescent
//! rebuilds — compaction, snapshot import, both of which bump the
//! store's epoch — invalidate wholesale; both happen only in the
//! maintain phase, when no walk is open. The cache is always on: a
//! store without a claim journal reports no stamp and takes the cold
//! [`crate::gamma::TableStore::open_cursor`] path, and a per-table LRU
//! bound ([`crate::gamma::DEFAULT_INDEX_CACHE_MAX_BYTES`]) caps its
//! memory.
//! [`RunReport::index_cache_hits`]/[`RunReport::index_cache_misses`]/
//! [`RunReport::index_catchup_tuples`]/[`RunReport::index_build_tuples`]
//! put the rebuild-work reduction on record, and the cached views are
//! property-tested against cold builds and per-tuple firing
//! (`tests/prop_engine.rs::cached_index_matches_cold_build`).
//!
//! ## Hot-path architecture
//!
//! The put→Delta→Gamma pipeline adds **zero coordinator-side contention**
//! per tuple:
//!
//! 1. **Partition-aware sharded staging** — a worker `put` appends
//!    `(OrderKey, Tuple)` to its own [`crate::delta::ShardedInbox`]
//!    shard (routed by the pool's stable
//!    [`jstar_pool::ThreadPool::current_worker_index`]), binned by a
//!    hash of the key's leading components at push time.
//! 2. **Partitioned, overlapped parallel drain** — pool workers build
//!    one independent subtree per key-prefix partition; the coordinator
//!    grafts them, splicing disjoint subtrees wholesale. Under
//!    pipelining most epochs are merged during the previous class's
//!    execution.
//! 3. **Reservation-based Gamma inserts** — the parallel store defaults
//!    ([`crate::gamma::ConcurrentOrderedStore`],
//!    [`crate::gamma::HashStore`]) publish tuples via CAS slot
//!    reservation; no lock remains on the tuple hot path, and readers
//!    never observe partial state.
//! 4. **Borrowed trigger keys** — `process_tuple` and [`RuleCtx`] borrow
//!    the equivalence class's `OrderKey`; triggering a rule clones
//!    nothing.
//! 5. **Per-table query plans and bind-slot prepared queries** — orderby
//!    extraction and index selection are cached once per table in a
//!    [`QueryPlan`]; per-invocation constraint values patch interned
//!    queries in place ([`RuleCtx::for_each_bound`] /
//!    [`RuleCtx::for_each_with`]).
//! 6. **Adaptive all-minimums scheduling** — see the `schedule` module.
//!
//! The module family: `config` (the paper's flags), `runtime` (the
//! shared put/trigger core), `ctx` (the rule window onto the
//! database), `schedule` (class execution planning), `pipeline`
//! (epoch absorption, serial and overlapped), `report` (run
//! results), and `coordinator` (the step loop itself). The public API
//! — [`Engine`], [`EngineConfig`], [`RuleCtx`], [`RunReport`],
//! [`QueryPlan`], [`LifetimeHint`] — is re-exported here unchanged
//! from its single-file predecessor.

mod config;
mod coordinator;
mod ctx;
mod pipeline;
mod report;
mod runtime;
mod schedule;
#[cfg(test)]
mod tests;

pub use config::{EngineConfig, LifetimeHint};
pub use coordinator::{Engine, RestoreOutcome};
pub use ctx::RuleCtx;
pub use report::RunReport;
pub use runtime::QueryPlan;
