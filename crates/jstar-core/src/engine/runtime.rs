//! The shared run-time core: per-table query plans, the state every
//! worker thread sees, and the put → Delta / Gamma → trigger path that
//! both the coordinator and the rule contexts drive.

use crate::delta::ShardedInbox;
use crate::error::JStarError;
use crate::gamma::{ColumnCursor, ColumnIndex, Gamma, InsertOutcome};
use crate::orderby::{OrderKey, ResolvedComponent, ResolvedOrderBy};
use crate::program::Program;
use crate::query::Query;
use crate::rule::{JoinPlan, Rule};
use crate::stats::EngineStats;
use crate::tuple::Tuple;
use crate::value::Value;
use jstar_pool::ThreadPool;
use parking_lot::Mutex;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::ctx::RuleCtx;

/// Per-table hot-path cache, computed once at engine construction.
///
/// Consolidates everything `put` and `query` would otherwise re-derive per
/// call: the resolved orderby key extractor, the interned key for tables
/// whose ordering is tuple-independent (pure-stratum orderbys — every
/// tuple of the table shares one Delta equivalence class), and the store's
/// index-selection data (`covers_fields` input).
pub struct QueryPlan {
    /// The table's resolved orderby list (the key extractor).
    orderby: ResolvedOrderBy,
    /// Interned order key when the orderby has no tuple-dependent
    /// component; such tables form a single delta class per run.
    const_key: Option<OrderKey>,
    /// Fields the table's Gamma store is hash-indexed on, if any.
    index_fields: Option<Box<[usize]>>,
}

impl QueryPlan {
    pub(super) fn new(
        orderby: &ResolvedOrderBy,
        store: &dyn crate::gamma::TableStore,
    ) -> QueryPlan {
        let tuple_independent = orderby
            .components
            .iter()
            .all(|c| !matches!(c, ResolvedComponent::Seq { .. }));
        let const_key = tuple_independent.then(|| {
            let mut parts = Vec::new();
            for c in &orderby.components {
                match c {
                    ResolvedComponent::Strat { rank, .. } => {
                        parts.push(crate::orderby::KeyPart::Strat(*rank))
                    }
                    ResolvedComponent::Seq { .. } => unreachable!("tuple-independent"),
                    ResolvedComponent::Par { .. } => break,
                }
            }
            OrderKey(parts)
        });
        QueryPlan {
            orderby: orderby.clone(),
            const_key,
            index_fields: store.index_fields().map(|f| f.to_vec().into_boxed_slice()),
        }
    }

    /// The order key of `t` — a clone of the interned key when the table's
    /// ordering is tuple-independent, a fresh extraction otherwise.
    #[inline]
    pub fn key_for(&self, t: &Tuple) -> OrderKey {
        match &self.const_key {
            Some(k) => k.clone(),
            None => self.orderby.key_of(t),
        }
    }

    /// True when `q` binds every indexed field of the table's store with an
    /// equality constraint — the cached index-selection decision.
    #[inline]
    pub fn query_uses_index(&self, q: &Query) -> bool {
        match &self.index_fields {
            Some(fields) => q.covers_fields(fields),
            None => false,
        }
    }
}

/// Shared run-time state, accessible from worker threads.
pub(crate) struct RunState {
    pub(super) program: Arc<Program>,
    pub(super) gamma: Gamma,
    pub(super) inbox: ShardedInbox,
    pub(super) plans: Vec<QueryPlan>,
    pub(super) no_delta: Vec<bool>,
    pub(super) no_gamma: Vec<bool>,
    pub(super) type_check: bool,
    pub(super) enforce_causality: bool,
    pub(super) output: Mutex<Vec<String>>,
    pub(super) errors: Mutex<Vec<JStarError>>,
    pub(super) stats: EngineStats,
    pub(super) pool: Option<Arc<ThreadPool>>,
}

impl RunState {
    pub(super) fn record_error(&self, e: JStarError) {
        self.errors.lock().push(e);
    }

    pub(super) fn has_errors(&self) -> bool {
        !self.errors.lock().is_empty()
    }

    /// The staging shard for the calling thread: the worker's stable index
    /// on pool threads, the external shard everywhere else.
    #[inline]
    pub(super) fn staging_shard(&self) -> usize {
        self.pool
            .as_ref()
            .and_then(|p| p.current_worker_index())
            .unwrap_or_else(|| self.inbox.external_shard())
    }
}

/// Core put path, shared by `RuleCtx::put`, initial puts and injected
/// event tuples. The trigger key is borrowed; the computed key for `t`
/// moves into the staging shard without further copies.
pub(super) fn put_tuple(state: &RunState, trigger_key: &OrderKey, rule: &str, t: Tuple) {
    let table = t.table();
    let ti = table.index();
    // ord: Relaxed — every stat bump in this file is a monotonic
    // statistics counter; nothing is published through it, and it is
    // read only after the run's final pool join.
    state.stats.tables[ti].puts.fetch_add(1, Ordering::Relaxed);

    if state.type_check {
        if let Err(msg) = state.program.def(table).type_check(t.fields()) {
            state.record_error(JStarError::Type(msg));
            return;
        }
    }

    let key = state.plans[ti].key_for(&t);
    if state.enforce_causality && trigger_key.cmp(&key) == CmpOrdering::Greater {
        state.record_error(JStarError::CausalityViolation {
            rule: rule.to_string(),
            trigger_key: trigger_key.clone(),
            put_key: key,
            tuple: t.to_string(),
        });
        return;
    }

    if state.no_delta[ti] {
        // §5.1: put straight into Gamma and fire triggered rules
        // immediately on this thread.
        process_tuple(state, &key, t);
    } else {
        state.inbox.push(state.staging_shard(), key, t);
    }
}

/// Moves one tuple out of the Delta set: inserts it into Gamma (unless
/// `-noGamma`), and if it is fresh, fires every rule it triggers. `key`
/// is borrowed from the executing class — rule contexts borrow it too,
/// so triggering N rules performs zero key clones.
pub(super) fn process_tuple(state: &RunState, key: &OrderKey, t: Tuple) {
    let table = t.table();
    let ti = table.index();
    let fresh = if state.no_gamma[ti] {
        true
    } else {
        match state.gamma.insert(t.clone()) {
            InsertOutcome::Fresh => {
                // ord: Relaxed — statistics counter, read after the run.
                state.stats.tables[ti]
                    .gamma_fresh
                    .fetch_add(1, Ordering::Relaxed);
                true
            }
            InsertOutcome::Duplicate => {
                // Set-oriented semantics: duplicates neither re-trigger
                // rules nor re-enter Gamma (§6.2's SumMonth dedup).
                // ord: Relaxed — statistics counter, read after the run.
                state.stats.tables[ti]
                    .gamma_dups
                    .fetch_add(1, Ordering::Relaxed);
                false
            }
            InsertOutcome::KeyConflict => {
                state.record_error(JStarError::KeyViolation {
                    table: state.program.def(table).name.clone(),
                    detail: format!("insert of {t} violates the -> key invariant"),
                });
                false
            }
        }
    };
    if !fresh {
        return;
    }
    // ord: Relaxed — statistics counter, read after the run.
    state.stats.tables[ti].triggers.fetch_add(
        state.program.rules_by_trigger()[ti].len() as u64,
        Ordering::Relaxed,
    );
    fire_rules(state, key, &t);
}

/// Fires every rule triggered by `t` (which must be fresh). Contexts
/// borrow the class key — zero copies per trigger.
pub(super) fn fire_rules(state: &RunState, key: &OrderKey, t: &Tuple) {
    let ti = t.table().index();
    for &ri in &state.program.rules_by_trigger()[ti] {
        let rule = &state.program.rules()[ri];
        let ctx = RuleCtx::new(state, key, &rule.name);
        (rule.body)(&ctx, t);
    }
}

/// Executes one chunk of an equivalence class on a worker.
///
/// Uniform-table chunks (the overwhelmingly common case — a class is one
/// key, and most keys belong to one table) take the batch path: a single
/// [`Gamma::insert_batch`] call amortises store locking, statistics are
/// published once per chunk, and rules fire afterwards for the fresh
/// tuples. Mixed-table chunks fall back to the per-tuple path.
pub(super) fn process_class_chunk(state: &RunState, key: &OrderKey, chunk: &[Tuple]) {
    let table = chunk[0].table();
    let ti = table.index();
    let uniform =
        chunk.len() > 1 && !state.no_gamma[ti] && chunk.iter().all(|t| t.table() == table);
    if !uniform {
        for t in chunk {
            process_tuple(state, key, t.clone());
        }
        return;
    }

    let mut outcomes = Vec::with_capacity(chunk.len());
    state.gamma.insert_batch(table, chunk, &mut outcomes);
    let (mut fresh, mut dups) = (0u64, 0u64);
    for (t, outcome) in chunk.iter().zip(&outcomes) {
        match outcome {
            InsertOutcome::Fresh => fresh += 1,
            InsertOutcome::Duplicate => dups += 1,
            InsertOutcome::KeyConflict => {
                state.record_error(JStarError::KeyViolation {
                    table: state.program.def(table).name.clone(),
                    detail: format!("insert of {t} violates the -> key invariant"),
                });
            }
        }
    }
    // ord: Relaxed — per-chunk statistics counters, read after the run.
    let stats = &state.stats.tables[ti];
    if fresh > 0 {
        stats.gamma_fresh.fetch_add(fresh, Ordering::Relaxed);
        stats.triggers.fetch_add(
            fresh * state.program.rules_by_trigger()[ti].len() as u64,
            Ordering::Relaxed,
        );
    }
    if dups > 0 {
        stats.gamma_dups.fetch_add(dups, Ordering::Relaxed);
    }
    for (t, outcome) in chunk.iter().zip(&outcomes) {
        if matches!(outcome, InsertOutcome::Fresh) {
            fire_rules(state, key, t);
        }
    }
}

/// Executes a whole extracted class in **delta-join** mode — semi-naive
/// evaluation with the class as the delta.
///
/// Phase A inserts the class into Gamma in one batch and keeps the fresh
/// tuples (in class order). Phase B runs each triggered rule over the
/// fresh set: rules carrying a keyed [`JoinPlan`] are executed as one
/// batched leapfrog walk (see [`run_join_rule`]), with the sorted key
/// groups fanned out across pool workers, while opaque rules — and plans
/// with a keyless stage, which are cross joins with nothing for a cursor
/// to seek on — fall back to per-tuple firing over the same fresh set.
///
/// This is a valid serialization of the per-tuple schedule: parallel
/// per-tuple execution already inserts each chunk before firing its
/// rules and interleaves chunks arbitrarily, so intra-class visibility
/// is unspecified in both modes, and set semantics plus the Law of
/// Causality make the emitted tuple set identical (prop-tested
/// bit-identical downstream schedules).
pub(super) fn process_class_delta_join(
    state: &RunState,
    key: &OrderKey,
    class: &[Tuple],
    pool: Option<&ThreadPool>,
) {
    let table = class[0].table();
    let ti = table.index();
    let rules_here = &state.program.rules_by_trigger()[ti];

    // ── Phase A: whole-class Gamma insert, fresh tuples kept in class
    // order (the deterministic build side of the join).
    let mut fresh: Vec<&Tuple> = Vec::with_capacity(class.len());
    if state.no_gamma[ti] {
        fresh.extend(class.iter());
    } else {
        let mut outcomes = Vec::with_capacity(class.len());
        state.gamma.insert_batch(table, class, &mut outcomes);
        let (mut nf, mut nd) = (0u64, 0u64);
        for (t, outcome) in class.iter().zip(&outcomes) {
            match outcome {
                InsertOutcome::Fresh => {
                    nf += 1;
                    fresh.push(t);
                }
                InsertOutcome::Duplicate => nd += 1,
                InsertOutcome::KeyConflict => {
                    state.record_error(JStarError::KeyViolation {
                        table: state.program.def(table).name.clone(),
                        detail: format!("insert of {t} violates the -> key invariant"),
                    });
                }
            }
        }
        // ord: Relaxed — per-class statistics counters, read after the run.
        let stats = &state.stats.tables[ti];
        if nf > 0 {
            stats.gamma_fresh.fetch_add(nf, Ordering::Relaxed);
        }
        if nd > 0 {
            stats.gamma_dups.fetch_add(nd, Ordering::Relaxed);
        }
    }
    if fresh.is_empty() {
        return;
    }
    // ord: Relaxed — statistics counter, read after the run.
    state.stats.tables[ti].triggers.fetch_add(
        fresh.len() as u64 * rules_here.len() as u64,
        Ordering::Relaxed,
    );

    // ── Phase B: each triggered rule over the fresh set, in rule order.
    for &ri in rules_here {
        let rule = &state.program.rules()[ri];
        match &rule.plan {
            Some(plan) if plan.is_keyed() => run_join_rule(state, key, rule, plan, &fresh, pool),
            _ => {
                // Opaque body or cross join: per-tuple firing (same
                // context reuse as `fire_rules`).
                let ctx = RuleCtx::new(state, key, &rule.name);
                for t in &fresh {
                    (rule.body)(&ctx, t);
                }
            }
        }
    }
}

/// One keyed join-plan rule over a class's fresh tuples: a leapfrog
/// walk over sorted column cursors.
///
/// The delta is grouped by its stage-0 join-key values (a BTreeMap —
/// `Value` is `Ord` but not `Hash`, and **sorted** group order is what
/// the walk leapfrogs over). One sorted column cursor is opened per
/// stage (one store pass each, or a cache hit), and every worker walks
/// its share of the groups against the stage-0 cursor with seek/next
/// motions, descending through later stages with per-row cursor seeks.
/// Store work per class is `stages` cursor opens plus the counted
/// gallops, instead of one probe per trigger tuple.
///
/// Emissions equal the per-tuple body's; set semantics and the Law of
/// Causality make the schedule difference unobservable downstream
/// (prop-tested).
fn run_join_rule(
    state: &RunState,
    key: &OrderKey,
    rule: &Rule,
    plan: &JoinPlan,
    fresh: &[&Tuple],
    pool: Option<&ThreadPool>,
) {
    // ord: Relaxed — statistics counter, read after the run.
    state
        .stats
        .delta_join_build_tuples
        .fetch_add(fresh.len() as u64, Ordering::Relaxed);

    let stage0 = plan.first_stage();
    let mut grouped: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
    for &t in fresh {
        let k: Vec<Value> = stage0
            .keys
            .iter()
            .map(|&((_, tf), _)| t.get(tf).clone())
            .collect();
        grouped.entry(k).or_default().push(t);
    }
    let groups: Vec<(Vec<Value>, Vec<&Tuple>)> = grouped.into_iter().collect();

    // One column view per stage, opened once per (rule × class) and
    // shared by every worker. Each open is one store pass, counted as a
    // query against the probed table so `gamma_probes` stays honest.
    let stage_indexes: Vec<Arc<ColumnIndex>> = plan
        .stages
        .iter()
        .map(|s| {
            let sti = s.probe_table.index();
            // ord: Relaxed — statistics counters; the cursor itself is
            // shared through the `Arc` and the pool scope's join.
            state.stats.tables[sti]
                .queries
                .fetch_add(1, Ordering::Relaxed);
            state
                .stats
                .join_cursor_opens
                .fetch_add(1, Ordering::Relaxed);
            state.gamma.open_cursor(s.probe_table, s.keys[0].1)
        })
        .collect();

    let walk = |piece: &[(Vec<Value>, Vec<&Tuple>)]| {
        let mut cursors: Vec<ColumnCursor> = stage_indexes.iter().map(|i| i.cursor()).collect();
        let ctx = RuleCtx::new(state, key, &rule.name);
        for (group_key, members) in piece {
            // The sorted group keys sweep the stage-0 cursor mostly
            // with free next()s; only real jumps count as seeks.
            let candidates: Vec<Tuple> = match cursors[0].seek_exact(&group_key[0]) {
                Some(g) => g
                    .iter()
                    .filter(|p| stage0_residual_ok(&plan.stages[0].keys, p, group_key))
                    .cloned()
                    .collect(),
                None => continue,
            };
            if plan.stages.len() == 1 {
                for p in &candidates {
                    for &t in members.iter() {
                        let rows = [t, p];
                        if (plan.filter)(&rows) {
                            (plan.emit)(&ctx, &rows);
                        }
                    }
                }
            } else {
                for &t in members.iter() {
                    for p in &candidates {
                        let mut rows = vec![t.clone(), p.clone()];
                        leapfrog_descend(plan, &mut cursors, 1, &mut rows, &ctx);
                    }
                }
            }
        }
        let seeks: u64 = cursors.iter().map(|c| c.seeks()).sum();
        if seeks > 0 {
            // ord: Relaxed — statistics counter, read after the run.
            state.stats.join_seeks.fetch_add(seeks, Ordering::Relaxed);
        }
    };

    match pool {
        Some(pool) if groups.len() > 1 => {
            let chunk = jstar_pool::adaptive_chunk(pool, groups.len()).max(1);
            let walk = &walk;
            pool.scope(|s| {
                s.spawn_batch(
                    groups
                        .chunks(chunk)
                        .map(|piece| move |_: &jstar_pool::Scope<'_>| walk(piece)),
                );
            });
        }
        _ => walk(&groups),
    }
}

/// True when `p` satisfies every stage-0 key pair beyond the first (the
/// cursor already matched pair 0); the group key holds the source
/// values in pair order.
fn stage0_residual_ok(keys: &[((usize, usize), usize)], p: &Tuple, group_key: &[Value]) -> bool {
    keys.iter()
        .zip(group_key)
        .skip(1)
        .all(|(&(_, pf), v)| p.get(pf) == v)
}

/// Stages ≥ 1 of a leapfrog walk: seek this stage's shared cursor to
/// the row-sourced key, check residual pairs by direct field equality
/// (no store probes), recurse. `rows[k]` is stage `k`'s matched tuple
/// (row 0 the trigger), so key sources resolve by plain indexing.
fn leapfrog_descend(
    plan: &JoinPlan,
    cursors: &mut [ColumnCursor],
    stage_idx: usize,
    rows: &mut Vec<Tuple>,
    ctx: &RuleCtx<'_>,
) {
    if stage_idx == plan.stages.len() {
        let refs: Vec<&Tuple> = rows.iter().collect();
        if (plan.filter)(&refs) {
            (plan.emit)(ctx, &refs);
        }
        return;
    }
    let stage = &plan.stages[stage_idx];
    let ((srow, sf), _) = stage.keys[0];
    let target = rows[srow].get(sf).clone();
    let candidates: Vec<Tuple> = match cursors[stage_idx].seek_exact(&target) {
        Some(g) => g
            .iter()
            .filter(|p| {
                stage
                    .keys
                    .iter()
                    .skip(1)
                    .all(|&((r, f), pf)| p.get(pf) == rows[r].get(f))
            })
            .cloned()
            .collect(),
        None => return,
    };
    for p in candidates {
        rows.push(p);
        leapfrog_descend(plan, cursors, stage_idx + 1, rows, ctx);
        rows.pop();
    }
}
