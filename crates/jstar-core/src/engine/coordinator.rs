//! The coordinator: a configured engine instance and its step loop,
//! written as the explicit phase state machine described in the
//! [module docs](super) — absorb → extract → execute (∥ absorb when
//! pipelined) → maintain.

use crate::delta::{DeltaQueue, ShardedInbox};
use crate::error::Result;
use crate::gamma::{Gamma, StoreKind};
use crate::orderby::OrderKey;
use crate::program::Program;
use crate::relation::{Join, Join3, Relation, TableHandle, TypedQuery};
use crate::schema::TableId;
use crate::stats::{EngineStats, StepRecord};
use crate::tuple::Tuple;
use jstar_pool::ThreadPool;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::config::EngineConfig;
use super::pipeline::Pipeline;
use super::report::RunReport;
use super::runtime::{
    process_class_chunk, process_class_delta_join, process_tuple, put_tuple, QueryPlan, RunState,
};
use super::schedule::{ClassPlan, Scheduler};
use crate::error::JStarError;

/// A configured instance of a JStar program, ready to run.
pub struct Engine {
    state: Arc<RunState>,
    config: EngineConfig,
    pool: Option<Arc<ThreadPool>>,
    injected: Vec<Tuple>,
    /// Set by [`Engine::restore`]: the next [`Engine::run`] resumes
    /// from the restored state instead of re-putting the program's
    /// initial tuples (which the checkpointed run already processed).
    restored: bool,
}

/// The result of [`Engine::restore_latest`]: which checkpoint was
/// actually restored, and which newer files had to be skipped.
#[derive(Debug)]
pub struct RestoreOutcome {
    /// The checkpoint file the engine restored from.
    pub path: std::path::PathBuf,
    /// Newer checkpoints skipped as unreadable (torn by a crash,
    /// corrupted on disk), newest first, each with the reported reason
    /// — surfaced rather than silently swallowed so callers can alert
    /// on storage rot.
    pub skipped: Vec<(std::path::PathBuf, JStarError)>,
}

impl Engine {
    /// Builds an engine for `program` under `config`.
    ///
    /// Gamma stores default to the mode-appropriate structure (§5: `TreeSet`
    /// sequentially, concurrent ordered store in parallel) unless overridden
    /// per table via [`EngineConfig::store`].
    pub fn new(program: Arc<Program>, config: EngineConfig) -> Engine {
        let n = program.defs().len();
        let kinds: Vec<StoreKind> = (0..n)
            .map(|i| {
                config
                    .stores
                    .get(&TableId(i as u32))
                    .cloned()
                    .unwrap_or_else(|| StoreKind::default_for(!config.sequential))
            })
            .collect();
        let gamma = Gamma::new(program.defs(), &kinds);
        let pool = if config.sequential {
            None
        } else {
            Some(
                config
                    .pool
                    .clone()
                    .unwrap_or_else(|| Arc::new(ThreadPool::new(config.threads))),
            )
        };
        let mut no_delta = vec![false; n];
        for t in &config.no_delta {
            no_delta[t.index()] = true;
        }
        let mut no_gamma = vec![false; n];
        for t in &config.no_gamma {
            no_gamma[t.index()] = true;
        }
        let plans: Vec<QueryPlan> = (0..n)
            .map(|i| QueryPlan::new(&program.orderbys()[i], &**gamma.store(TableId(i as u32))))
            .collect();
        let workers = pool.as_ref().map(|p| p.num_threads()).unwrap_or(0);
        // Partition function for the staged-tuple bins, derived from the
        // program's orderby schema: hash enough leading key components to
        // reach the first tuple-dependent (`seq`) level of any
        // Delta-eligible table. Workloads whose tables share one stratum
        // (Dijkstra's Estimates) then still spread across partitions by
        // the seq value instead of collapsing into one bin.
        let prefix_len = (0..n)
            .filter(|i| !no_delta[*i])
            .map(|i| {
                let comps = &program.orderbys()[i].components;
                comps
                    .iter()
                    .position(|c| matches!(c, crate::orderby::ResolvedComponent::Seq { .. }))
                    .map(|p| p + 1)
                    .unwrap_or(comps.len())
            })
            .max()
            .unwrap_or(1)
            .clamp(1, 4);
        let partitions = if workers > 1 {
            (workers * 2).next_power_of_two()
        } else {
            1
        };
        let state = Arc::new(RunState {
            program: Arc::clone(&program),
            gamma,
            inbox: ShardedInbox::with_partitioning(workers, partitions, prefix_len),
            plans,
            no_delta,
            no_gamma,
            type_check: config.type_check,
            enforce_causality: config.enforce_causality,
            output: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            stats: EngineStats::new(n),
            pool: pool.clone(),
        });
        Engine {
            state,
            config,
            pool,
            injected: Vec::new(),
            restored: false,
        }
    }

    /// Queues an external event tuple (§3: "the input tuples are added to
    /// the Delta Set, and can then trigger various rules"). Must be called
    /// before [`Engine::run`].
    pub fn inject(&mut self, t: Tuple) {
        self.injected.push(t);
    }

    /// Typed [`Engine::inject`]: queues an external event relation.
    pub fn inject_rel<R: Relation>(&mut self, row: R) {
        let id = self.state.program.handle::<R>().id();
        self.injected.push(Tuple::new(id, row.into_values()));
    }

    /// Runs the program to quiescence (empty Delta set).
    ///
    /// The step loop is the four-phase machine of the
    /// [module docs](super): each iteration **absorbs** staged tuples
    /// into the Delta queue, **extracts** the minimal equivalence
    /// class, **executes** it (absorbing the next step's staged tuples
    /// meanwhile when [`EngineConfig::pipelined`]), then **maintains**
    /// the stores at the quiescent point.
    pub fn run(&mut self) -> Result<RunReport> {
        let start = Instant::now();
        let state = &*self.state;

        // Initial puts (from program source) and injected events enter at
        // the minimal key, so they may target any table. A restored
        // engine skips the initial puts — the checkpointed run already
        // processed them (its pending Delta tuples arrive through the
        // injected queue instead).
        let min = OrderKey::minimum();
        if !self.restored {
            for t in state.program.initial() {
                put_tuple(state, &min, "<init>", t.clone());
            }
        }
        for t in self.injected.drain(..) {
            put_tuple(state, &min, "<inject>", t);
        }

        let mut tree = DeltaQueue::new(self.config.delta);
        let mut pipeline = Pipeline::new(state, &self.config);
        // Which tables trigger at least one join-plan rule — the static
        // half of the delta-join eligibility check (the dynamic half is
        // the per-class size/uniformity test).
        let join_tables: Vec<bool> = (0..state.program.defs().len())
            .map(|ti| {
                state.program.rules_by_trigger()[ti]
                    .iter()
                    .any(|&ri| state.program.rules()[ri].plan.is_some())
            })
            .collect();
        let scheduler = Scheduler::new(self.config.inline_class_threshold)
            .with_delta_join(self.config.delta_join_threshold, join_tables);
        let mut steps: u64 = 0;
        let mut checkpoints: u64 = 0;
        let mut checkpoint_time = Duration::ZERO;
        // The first checkpoint discovers where the sequence left off
        // (a resumed run must number its files after the ones it
        // restored from); later ones just increment.
        let mut checkpoint_seq: Option<u64> = None;
        // The per-step phase timers share the record_steps gate:
        // profiling runs get the split; production runs pay no clock
        // reads in the coordinator loop.
        let timing = self.config.record_steps;
        loop {
            if state.has_errors() {
                break;
            }

            // ── Phase 1: absorb ─────────────────────────────────────
            // Everything staged by earlier steps must be queued before
            // the next extract — a staged key may order before the
            // current tree minimum. Under pipelining most of this
            // already happened during the previous execute phase.
            pipeline.absorb(state, &mut tree, self.pool.as_deref());

            // ── Phase 2: extract ────────────────────────────────────
            let Some((key, mut class)) = tree.pop_min_class() else {
                break;
            };
            steps += 1;
            if let Some(max) = self.config.max_steps {
                if steps > max {
                    state.record_error(JStarError::Other(format!(
                        "step limit {max} exceeded — is a rule putting tuples unconditionally?"
                    )));
                    break;
                }
            }
            let class_size = class.len();
            state.stats.record_step(class_size);
            let exec_start = timing.then(Instant::now);

            // ── Phase 3: execute (∥ absorb when pipelined) ──────────
            if scheduler.delta_join(&class) {
                // Batched semi-naive execution: the whole class is the
                // delta, and join-plan rules walk Gamma once per class
                // instead of once per tuple. Like the inline arm this
                // runs without the pipeline overlap window — the join
                // fan-out keeps the pool busy itself.
                state
                    .stats
                    .delta_join_classes
                    .fetch_add(1, Ordering::Relaxed);
                process_class_delta_join(state, &key, &class, self.pool.as_deref());
            } else {
                match scheduler.plan(self.pool.as_deref(), class_size) {
                    ClassPlan::Forked { chunk } => {
                        state.stats.forked_classes.fetch_add(1, Ordering::Relaxed);
                        // lint: allow(expect): the planner only emits Forked when a pool exists.
                        let pool = self.pool.as_ref().expect("forked plan implies a pool");
                        let key = &key;
                        let class = &class;
                        let pipeline = &mut pipeline;
                        let tree = &mut tree;
                        pool.scope(|s| {
                            // All chunks submitted as one batch: a single
                            // wakeup, no per-task notify storm.
                            s.spawn_batch(class.chunks(chunk).map(|piece| {
                                move |_: &jstar_pool::Scope<'_>| {
                                    process_class_chunk(state, key, piece);
                                }
                            }));
                            if pipeline.pipelined() {
                                // Join the class from inside the scope,
                                // interleaving epoch absorption with
                                // helping — the drain/execute overlap.
                                pipeline.overlap(s, state, tree, pool);
                            }
                        });
                    }
                    ClassPlan::Inline { sort } => {
                        // Narrow class or sequential engine: fork/join
                        // overhead exceeds the work, execute on the
                        // coordinator. The sequential engine additionally
                        // sorts for a deterministic intra-class order.
                        state.stats.inline_classes.fetch_add(1, Ordering::Relaxed);
                        if sort {
                            class.sort();
                        }
                        for t in class {
                            process_tuple(state, &key, t);
                        }
                    }
                }
            }

            if let Some(t0) = exec_start {
                let exec_elapsed = t0.elapsed();
                state
                    .stats
                    .execute_nanos
                    .fetch_add(exec_elapsed.as_nanos() as u64, Ordering::Relaxed);
                state.stats.log_step(StepRecord {
                    key: key.to_string(),
                    class_size,
                    micros: exec_elapsed.as_micros(),
                });
            }

            // ── Phase 4: maintain ───────────────────────────────────
            // The coordinator's quiescent point: workers have joined,
            // so single-threaded store surgery is safe. §5 step 4's
            // manual tuple-lifetime hints run here, followed by
            // tombstone compaction for stores the hints have hollowed
            // out.
            for (table, interval, keep) in &self.config.lifetime_hints {
                if !steps.is_multiple_of(*interval) {
                    continue;
                }
                let store = state.gamma.store(*table);
                store.retain(&**keep);
                if store.maybe_compact(self.config.compact_tombstones_above) {
                    state.stats.tables[table.index()]
                        .compactions
                        .fetch_add(1, Ordering::Relaxed);
                }
            }

            // Periodic checkpointing shares the quiescent point: the
            // Delta queue is forced fully current (every staged epoch
            // absorbed), then the
            // Gamma stores and pending tuples stream out atomically.
            // A failed write fails the run — the harness's injected
            // crashes rely on that behaving exactly like process death,
            // and a real I/O error silently skipped would leave the
            // user thinking they have a checkpoint they don't.
            if self.config.checkpoint_every > 0
                && steps.is_multiple_of(self.config.checkpoint_every)
                && self.config.checkpoint_path.is_some()
            {
                // lint: allow(expect): is_some() is part of the guard condition above.
                let dir = self.config.checkpoint_path.as_deref().expect("checked");
                let t0 = Instant::now();
                pipeline.absorb(state, &mut tree, self.pool.as_deref());
                state.inbox.assert_quiescent();
                let written = std::fs::create_dir_all(dir)
                    .map_err(|e| JStarError::Io(format!("{}: {e}", dir.display())))
                    .and_then(|()| match checkpoint_seq {
                        Some(seq) => Ok(seq),
                        None => crate::persist::next_checkpoint_seq(dir),
                    })
                    .and_then(|seq| {
                        let meta = crate::persist::SnapshotMeta {
                            steps,
                            tuples_processed: state.stats.tuples_processed.load(Ordering::Relaxed),
                        };
                        let file = dir.join(crate::persist::checkpoint_file_name(seq));
                        crate::persist::write_snapshot(
                            state.program.defs(),
                            &state.gamma,
                            &mut |emit| tree.for_each_pending(emit),
                            meta,
                            &file,
                            self.pool.as_deref(),
                        )?;
                        crate::persist::rotate_checkpoints(dir, self.config.checkpoint_keep)?;
                        Ok(seq)
                    });
                match written {
                    Ok(seq) => {
                        checkpoint_seq = Some(seq + 1);
                        checkpoints += 1;
                        checkpoint_time += t0.elapsed();
                    }
                    Err(e) => {
                        state.record_error(e);
                        break;
                    }
                }
            }
        }

        let errors = state.errors.lock();
        if let Some(first) = errors.first() {
            return Err(first.clone());
        }
        drop(errors);

        let cache_stats = state.gamma.index_cache().stats();
        Ok(RunReport {
            steps,
            tuples_processed: state.stats.tuples_processed.load(Ordering::Relaxed),
            elapsed: start.elapsed(),
            drain_time: Duration::from_nanos(state.stats.drain_nanos.load(Ordering::Relaxed)),
            partition_time: Duration::from_nanos(
                state.stats.partition_nanos.load(Ordering::Relaxed),
            ),
            merge_time: Duration::from_nanos(state.stats.merge_nanos.load(Ordering::Relaxed)),
            overlap_time: Duration::from_nanos(state.stats.overlap_nanos.load(Ordering::Relaxed)),
            execute_time: Duration::from_nanos(state.stats.execute_nanos.load(Ordering::Relaxed)),
            inline_classes: state.stats.inline_classes.load(Ordering::Relaxed),
            forked_classes: state.stats.forked_classes.load(Ordering::Relaxed),
            checkpoints,
            checkpoint_time,
            delta_join_classes: state.stats.delta_join_classes.load(Ordering::Relaxed),
            delta_join_probes: 0,
            delta_join_build_tuples: state.stats.delta_join_build_tuples.load(Ordering::Relaxed),
            gamma_probes: state
                .stats
                .tables
                .iter()
                .map(|t| t.queries.load(Ordering::Relaxed))
                .sum(),
            join_seeks: state.stats.join_seeks.load(Ordering::Relaxed),
            join_cursor_opens: state.stats.join_cursor_opens.load(Ordering::Relaxed),
            index_cache_hits: cache_stats.hits,
            index_cache_misses: cache_stats.misses,
            index_catchup_tuples: cache_stats.catchup_tuples,
            index_build_tuples: cache_stats.build_tuples,
            output: state.output.lock().clone(),
        })
    }

    /// Writes a snapshot of the current Gamma database to `path`,
    /// atomically (temp + rename). Meant for a quiescent engine — after
    /// [`Engine::run`] returns — so the pending-Delta section is empty;
    /// mid-run durability is the checkpointing path
    /// ([`EngineConfig::checkpoint`]), which also captures pending
    /// tuples.
    pub fn snapshot(&self, path: &std::path::Path) -> Result<()> {
        let meta = crate::persist::SnapshotMeta {
            steps: self.state.stats.steps.load(Ordering::Relaxed),
            tuples_processed: self.state.stats.tuples_processed.load(Ordering::Relaxed),
        };
        crate::persist::write_snapshot(
            self.state.program.defs(),
            &self.state.gamma,
            &mut |_emit| {},
            meta,
            path,
            self.pool.as_deref(),
        )
    }

    /// The order-independent digest of the live Gamma database (see
    /// [`crate::persist::gamma_digest`]). Equal logical states produce
    /// equal digests across thread counts, pipelining on or off, and
    /// checkpoint/restore cycles — determinism and recovery checks are
    /// one `u64` comparison.
    pub fn content_hash(&self) -> u64 {
        crate::persist::gamma_digest(self.state.program.defs(), &self.state.gamma)
    }

    /// Restores the snapshot at `path` into this engine, replacing the
    /// Gamma contents wholesale and queueing the snapshot's pending
    /// Delta tuples for the next [`Engine::run`] (which resumes the
    /// interrupted schedule instead of re-running the initial puts).
    ///
    /// Meant for a freshly built engine. Never panics on bad input:
    /// truncated, bit-flipped or crafted files are a reported
    /// [`JStarError::CorruptSnapshot`], and a snapshot from a different
    /// program schema is a [`JStarError::SchemaMismatch`]. Validation
    /// completes before any store is touched, so a failed restore
    /// leaves the engine unmodified.
    pub fn restore(&mut self, path: &std::path::Path) -> Result<()> {
        let snap = crate::persist::read_snapshot(path)?;
        self.apply_snapshot(snap)
    }

    /// Restores from the newest intact checkpoint in `dir`: files are
    /// tried newest-first, and one that fails to read or load —
    /// typically the newest, torn by the very crash being recovered
    /// from — is skipped (recorded in [`RestoreOutcome::skipped`]) in
    /// favour of its predecessor. A [`JStarError::SchemaMismatch`]
    /// aborts immediately: the whole directory belongs to one program,
    /// so older files cannot fare better. Errs when the directory holds
    /// no checkpoint at all, or when every checkpoint is unreadable.
    pub fn restore_latest(&mut self, dir: &std::path::Path) -> Result<RestoreOutcome> {
        let files = crate::persist::list_checkpoints(dir)?;
        if files.is_empty() {
            return Err(JStarError::Io(format!(
                "{}: no checkpoints found",
                dir.display()
            )));
        }
        let mut skipped = Vec::new();
        for path in files.into_iter().rev() {
            match crate::persist::read_snapshot(&path).and_then(|s| self.apply_snapshot(s)) {
                Ok(()) => return Ok(RestoreOutcome { path, skipped }),
                Err(e @ JStarError::SchemaMismatch(_)) => return Err(e),
                Err(e) => skipped.push((path, e)),
            }
        }
        Err(JStarError::CorruptSnapshot(format!(
            "{}: every checkpoint was unreadable ({} tried)",
            dir.display(),
            skipped.len()
        )))
    }

    /// Validates a decoded snapshot against this engine's program and
    /// applies it: bulk-imports each table's tuples into its Gamma
    /// store (a segment-level rebuild, O(live) — not per-tuple
    /// re-insertion through the dedup path) and queues the pending
    /// Delta tuples for re-injection (their order keys are recomputed
    /// from tuple fields by the normal put path).
    fn apply_snapshot(&mut self, snap: crate::persist::Snapshot) -> Result<()> {
        let defs = self.state.program.defs();
        let expected = crate::persist::schema_fingerprint(defs);
        if snap.schema_fingerprint != expected {
            return Err(JStarError::SchemaMismatch(format!(
                "snapshot fingerprint {:#018x} != this program's {expected:#018x} \
                 (table names, column types, keys or orderby lists differ)",
                snap.schema_fingerprint
            )));
        }
        if snap.tables.len() != defs.len() {
            return Err(JStarError::SchemaMismatch(format!(
                "snapshot holds {} tables, program declares {}",
                snap.tables.len(),
                defs.len()
            )));
        }
        // Decode and validate everything before touching any store, so
        // a failed restore leaves the engine unmodified.
        let mut loads: Vec<Vec<Tuple>> = Vec::with_capacity(defs.len());
        for (section, def) in snap.tables.into_iter().zip(defs) {
            if section.name != def.name {
                return Err(JStarError::SchemaMismatch(format!(
                    "snapshot table `{}` where program declares `{}`",
                    section.name, def.name
                )));
            }
            let mut tuples = Vec::with_capacity(section.tuples.len());
            for fields in section.tuples {
                def.type_check(&fields).map_err(|msg| {
                    JStarError::CorruptSnapshot(format!("table {}: {msg}", def.name))
                })?;
                tuples.push(Tuple::new(def.id, fields));
            }
            loads.push(tuples);
        }
        let mut pending = Vec::with_capacity(snap.pending.len());
        for (ti, fields) in snap.pending {
            let def = defs.get(ti as usize).ok_or_else(|| {
                JStarError::CorruptSnapshot(format!(
                    "pending tuple names table index {ti}, program has {}",
                    defs.len()
                ))
            })?;
            def.type_check(&fields)
                .map_err(|msg| JStarError::CorruptSnapshot(format!("pending: {msg}")))?;
            pending.push(Tuple::new(def.id, fields));
        }
        for (def, tuples) in defs.iter().zip(loads) {
            self.state.gamma.store(def.id).import_snapshot(tuples);
        }
        self.injected.extend(pending);
        self.restored = true;
        Ok(())
    }

    /// The Gamma database (inspect results after a run).
    pub fn gamma(&self) -> &Gamma {
        &self.state.gamma
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.state.stats
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.state.program
    }

    /// The typed handle for relation `R` (panics if unregistered).
    pub fn handle<R: Relation>(&self) -> TableHandle<R> {
        self.state.program.handle::<R>()
    }

    /// Collects and decodes every Gamma row matching a typed query —
    /// the typed read path for inspecting results after a run:
    /// `engine.collect_rel(Ship::query())`.
    pub fn collect_rel<R: Relation>(&self, q: TypedQuery<R>) -> Vec<R> {
        let q = q.lower(self.handle::<R>());
        let mut out = Vec::new();
        self.state.gamma.query(&q, &mut |t| {
            out.push(R::from_tuple(t));
            true
        });
        out
    }

    /// Streams decoded Gamma rows matching a typed query; return
    /// `false` from the callback to stop early.
    pub fn for_each_rel_gamma<R: Relation>(&self, q: TypedQuery<R>, mut f: impl FnMut(R) -> bool) {
        let q = q.lower(self.handle::<R>());
        self.state.gamma.query(&q, &mut |t| f(R::from_tuple(t)));
    }

    /// Collected output lines so far.
    pub fn output(&self) -> Vec<String> {
        self.state.output.lock().clone()
    }

    /// Evaluates a typed two-relation join over Gamma with one
    /// leapfrog sorted-merge walk: `join::<Edge, Edge>().on(..)`.
    ///
    /// Both relations' column views are opened once (each counted as a
    /// query plus a cursor open), then intersected on the first `on`
    /// pair with coordinated seek/next motions — the fixed variable
    /// order of the typed builder, no optimizer. Further `on` pairs are
    /// residual equality checks inside matched groups. Panics when no
    /// `on` pair was declared (a cross join has nothing to merge on).
    pub fn join_rel<A: Relation, B: Relation>(&self, j: Join<A, B>, mut f: impl FnMut(A, B)) {
        assert!(
            !j.on.is_empty(),
            "join::<A, B>() requires at least one on() pair"
        );
        let ta = self.handle::<A>().id();
        let tb = self.handle::<B>().id();
        let (fa, fb) = j.on[0];
        let stats = &self.state.stats;
        stats.tables[ta.index()]
            .queries
            .fetch_add(1, Ordering::Relaxed);
        stats.tables[tb.index()]
            .queries
            .fetch_add(1, Ordering::Relaxed);
        stats.join_cursor_opens.fetch_add(2, Ordering::Relaxed);
        let ia = self.state.gamma.open_cursor(ta, fa);
        let ib = self.state.gamma.open_cursor(tb, fb);
        let mut ca = ia.cursor();
        let mut cb = ib.cursor();
        while let (Some(ka), Some(kb)) = (ca.key().cloned(), cb.key().cloned()) {
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => ca.seek(&kb),
                std::cmp::Ordering::Greater => cb.seek(&ka),
                std::cmp::Ordering::Equal => {
                    if let (Some(ga), Some(gb)) = (ca.group(), cb.group()) {
                        for at in ga {
                            for bt in gb {
                                if j.on[1..].iter().all(|&(af, bf)| at.get(af) == bt.get(bf)) {
                                    f(A::from_tuple(at), B::from_tuple(bt));
                                }
                            }
                        }
                    }
                    ca.next();
                    cb.next();
                }
            }
        }
        let seeks = ca.seeks() + cb.seeks();
        if seeks > 0 {
            stats.join_seeks.fetch_add(seeks, Ordering::Relaxed);
        }
    }

    /// Evaluates a typed three-relation join over Gamma:
    /// `join3::<Edge, Edge, Edge>().on_ab(..).on_bc(..)`.
    ///
    /// `A` and `B` leapfrog on the first `on_ab` pair exactly as in
    /// [`Engine::join_rel`]; each matched `(a, b)` row then seeks a
    /// shared `C` cursor — keyed by the first `on_bc` pair, or the
    /// first `on_ac` pair when no `b`–`c` key exists — with every
    /// remaining pair checked as a residual equality. Panics without an
    /// `on_ab` pair or without any `C`-side constraint.
    pub fn join3_rel<A: Relation, B: Relation, C: Relation>(
        &self,
        j: Join3<A, B, C>,
        mut f: impl FnMut(A, B, C),
    ) {
        assert!(!j.ab.is_empty(), "join3 requires at least one on_ab() pair");
        assert!(
            !(j.bc.is_empty() && j.ac.is_empty()),
            "join3 requires an on_bc() or on_ac() pair to key C"
        );
        let ta = self.handle::<A>().id();
        let tb = self.handle::<B>().id();
        let tc = self.handle::<C>().id();
        let (fa, fb) = j.ab[0];
        // C's cursor column: prefer a b-sourced key (available at every
        // matched pair), else an a-sourced one.
        let (c_from_b, c_src, fc) = match j.bc.first() {
            Some(&(bf, cf)) => (true, bf, cf),
            None => (false, j.ac[0].0, j.ac[0].1),
        };
        let stats = &self.state.stats;
        for t in [ta, tb, tc] {
            stats.tables[t.index()]
                .queries
                .fetch_add(1, Ordering::Relaxed);
        }
        stats.join_cursor_opens.fetch_add(3, Ordering::Relaxed);
        let ia = self.state.gamma.open_cursor(ta, fa);
        let ib = self.state.gamma.open_cursor(tb, fb);
        let ic = self.state.gamma.open_cursor(tc, fc);
        let mut ca = ia.cursor();
        let mut cb = ib.cursor();
        let mut cc = ic.cursor();
        while let (Some(ka), Some(kb)) = (ca.key().cloned(), cb.key().cloned()) {
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => ca.seek(&kb),
                std::cmp::Ordering::Greater => cb.seek(&ka),
                std::cmp::Ordering::Equal => {
                    // Borrowed group slices stream straight into the
                    // residual-filter stage — no per-key materialization
                    // (`cc` is a separate cursor, so seeking it never
                    // invalidates these borrows).
                    let (ga, gb) = match (ca.group(), cb.group()) {
                        (Some(ga), Some(gb)) => (ga, gb),
                        _ => break,
                    };
                    for at in ga {
                        for bt in gb {
                            if !j.ab[1..].iter().all(|&(af, bf)| at.get(af) == bt.get(bf)) {
                                continue;
                            }
                            let target = if c_from_b {
                                bt.get(c_src)
                            } else {
                                at.get(c_src)
                            };
                            let target = target.clone();
                            if let Some(gc) = cc.seek_exact(&target) {
                                for ct in gc {
                                    let bc_ok =
                                        j.bc.iter().all(|&(bf, cf)| bt.get(bf) == ct.get(cf));
                                    let ac_ok =
                                        j.ac.iter().all(|&(af, cf)| at.get(af) == ct.get(cf));
                                    if bc_ok && ac_ok {
                                        f(A::from_tuple(at), B::from_tuple(bt), C::from_tuple(ct));
                                    }
                                }
                            }
                        }
                    }
                    ca.next();
                    cb.next();
                }
            }
        }
        let seeks = ca.seeks() + cb.seeks() + cc.seeks();
        if seeks > 0 {
            stats.join_seeks.fetch_add(seeks, Ordering::Relaxed);
        }
    }
}
