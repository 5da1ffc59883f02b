//! The leapfrog join walk behind both rule-side delta joins
//! (`runtime::run_join_rule`) and read-side queries
//! ([`super::Engine::join_rel`], [`super::Engine::join3_rel`]).
//!
//! A walk has a **driver**, row 0: a sorted [`ColumnIndex`] of the rows
//! being extended (a rule class's fresh delta, or a query's `A`
//! relation). Stage `s` of its [`JoinStage`]s binds row `s + 1` from
//! one shared view of its table. Workers walk ranges of driver key
//! positions, each on its own cursors. One rule decides how every pair
//! is used:
//!
//! * **seek** — stage 0 leapfrogs the driver on its first pair (both
//!   views are keyed on it). A later stage `s` seeks its view on its
//!   first pair sourced from row `s`, else on its first pair.
//! * **intersect** — row 0 is bound as late as the plan allows: at each
//!   key if a stage seeks from it; else at the first stage with a row-0
//!   pair, whose first such pair is intersected (the key's driver group
//!   is sorted by it once, and each candidate binary-searches it); else
//!   after the last stage.
//! * **residual** — every other pair is an equality check, made when the
//!   later of its two rows is bound.

use super::runtime::RunState;
use crate::gamma::{ColumnCursor, ColumnIndex};
use crate::rule::JoinStage;
use crate::schema::TableId;
use crate::tuple::Tuple;
use crate::value::Value;
use jstar_pool::ThreadPool;
use std::cmp::Ordering as CmpOrdering;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The index of the pair stage `s` seeks on.
fn seek_index(s: usize, stage: &JoinStage) -> usize {
    stage.keys.iter().position(|k| k.0 .0 == s).unwrap_or(0)
}

/// Opens one view of `table` keyed on `field`, counted as a query
/// against the table plus a cursor open.
pub(super) fn open_view(state: &RunState, table: TableId, field: usize) -> Arc<ColumnIndex> {
    let stats = &state.stats;
    // ord: Relaxed — statistics counters; the view itself is shared
    // through the `Arc` and the pool scope's join.
    stats.tables[table.index()]
        .queries
        .fetch_add(1, Ordering::Relaxed);
    stats.join_cursor_opens.fetch_add(1, Ordering::Relaxed);
    state.gamma.open_cursor(table, field)
}

/// Opens every stage's view on the column it seeks.
pub(super) fn open_stage_views(state: &RunState, stages: &[JoinStage]) -> Vec<Arc<ColumnIndex>> {
    (stages.iter().enumerate())
        .map(|(s, st)| open_view(state, st.probe_table, st.keys[seek_index(s, st)].1))
        .collect()
}

/// Adds a walk's counted gallops to the engine's `join_seeks`.
pub(super) fn record_seeks(state: &RunState, seeks: u64) {
    // ord: Relaxed — statistics counter, read after the walk.
    state.stats.join_seeks.fetch_add(seeks, Ordering::Relaxed);
}

/// Runs `task` on the pool over ranges of the driver positions
/// `0..keys`, four per thread, and returns the results in range order —
/// or `None`, meaning walk inline, when there is no pool, it has one
/// thread, or there is a single key. The ranges depend on the key and
/// thread counts alone, so a walk's counted seeks are the same on every
/// run.
pub(super) fn split<R: Send>(
    pool: Option<&ThreadPool>,
    keys: usize,
    task: impl Fn(Range<usize>) -> R + Sync,
) -> Option<Vec<R>> {
    let pool = pool.filter(|p| keys > 1 && p.num_threads() > 1)?;
    let chunk = keys.div_ceil(4 * pool.num_threads());
    let task = &task;
    let ranges = (0..keys).step_by(chunk).map(|lo| lo..keys.min(lo + chunk));
    let tasks: Vec<_> = ranges.map(|range| move || task(range)).collect();
    Some(jstar_pool::parallel_tasks(pool, tasks))
}

/// Walks the driver key positions `keys` against the stages' `views`
/// (from [`open_stage_views`]), calling `emit` with each matched row
/// combination `[row 0, row 1, ...]` in ascending driver-key order.
/// Returns the counted gallops of the driver's and the views' cursors.
pub(super) fn walk<'a>(
    driver: &'a Arc<ColumnIndex>,
    views: &'a [Arc<ColumnIndex>],
    stages: &[JoinStage],
    keys: Range<usize>,
    emit: &mut dyn FnMut(&[&'a Tuple]),
) -> u64 {
    let (steps, sort_field) = lower(stages);
    let mut w = Walker {
        steps,
        views,
        cursors: views.iter().map(|v| v.cursor()).collect(),
        group: &[],
        sorted: Vec::new(),
        rows: Vec::new(),
        emit,
    };
    let mut cd = driver.cursor_at(keys.start);
    while cd.position() < keys.end {
        let (Some(kd), Some(k0)) = (cd.key(), w.cursors[0].key()) else {
            break;
        };
        match kd.cmp(k0) {
            CmpOrdering::Less => cd.seek(k0),
            CmpOrdering::Greater => w.cursors[0].seek(kd),
            CmpOrdering::Equal => {
                let group = driver.group_at(cd.position());
                w.group = group;
                if let Some(f) = sort_field {
                    w.sorted.clear();
                    w.sorted
                        .extend(group.iter().map(|t| t.get(f).clone()).zip(0..));
                    w.sorted.sort_unstable();
                }
                // Any group member stands in for row 0 until it is
                // bound: all share the key, so stage 0's seek from it
                // finds the leapfrogged position at no cost.
                w.rows.clear();
                w.rows.resize(stages.len() + 1, &group[0]);
                w.step(0);
                cd.next();
                w.cursors[0].next();
            }
        }
    }
    cd.seeks() + w.cursors.iter().map(ColumnCursor::seeks).sum::<u64>()
}

/// Where a step's candidates come from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    /// Stage `s`'s view, sought to `rows[row].get(field)`.
    Seek { s: usize, row: usize, field: usize },
    /// The key's whole driver group.
    Group,
    /// The driver rows whose sorted field equals `rows[row].get(field)`.
    Intersect { row: usize, field: usize },
}

/// One step of a walk: binds a row to each candidate from a source that
/// passes every check `(bound row, its field, candidate field)`.
type Step = (usize, Source, Vec<(usize, usize, usize)>);

/// Lowers `stages` to the walk's steps by the module-level rule, plus
/// the driver field an intersect step sorts each key's group by.
fn lower(stages: &[JoinStage]) -> (Vec<Step>, Option<usize>) {
    let n = stages.len();
    let seek: Vec<usize> = (0..n).map(|s| seek_index(s, &stages[s])).collect();
    let row0_first = (1..n).any(|s| stages[s].keys[seek[s]].0 .0 == 0);
    let row0_pair = |s: usize| stages[s].keys.iter().position(|k| k.0 .0 == 0);
    let intersect = (1..n)
        .find_map(|s| row0_pair(s).map(|i| (s, i)))
        .filter(|_| !row0_first);
    let mut steps: Vec<Step> = Vec::new();
    if row0_first {
        steps.push((0, Source::Group, Vec::new()));
    }
    for (s, stage) in stages.iter().enumerate() {
        let ((row, field), _) = stage.keys[seek[s]];
        steps.push((s + 1, Source::Seek { s, row, field }, Vec::new()));
        if let Some((_, i)) = intersect.filter(|&(is, _)| is == s) {
            let field = stage.keys[i].1;
            steps.push((0, Source::Intersect { row: s + 1, field }, Vec::new()));
        }
    }
    if !row0_first && intersect.is_none() {
        steps.push((0, Source::Group, Vec::new()));
    }
    let mut at = vec![0; n + 1];
    for (i, step) in steps.iter().enumerate() {
        at[step.0] = i;
    }
    for (s, stage) in stages.iter().enumerate() {
        for (i, &((row, f), pf)) in stage.keys.iter().enumerate() {
            if i == seek[s] || intersect == Some((s, i)) {
                continue;
            }
            match at[row] > at[s + 1] {
                true => steps[at[row]].2.push((s + 1, pf, f)),
                false => steps[at[s + 1]].2.push((row, f, pf)),
            }
        }
    }
    (steps, intersect.map(|(s, i)| stages[s].keys[i].0 .1))
}

/// One worker's walk over one range of driver keys.
struct Walker<'a, 'e> {
    steps: Vec<Step>,
    views: &'a [Arc<ColumnIndex>],
    /// One cursor per stage; stage 0's leapfrogs the driver.
    cursors: Vec<ColumnCursor>,
    /// The current key's driver group.
    group: &'a [Tuple],
    /// The group's sorted intersect-field values with their positions;
    /// inline values keep each search step off the tuples.
    sorted: Vec<(Value, usize)>,
    /// `rows[k]` is row `k`; unbound rows hold a placeholder.
    rows: Vec<&'a Tuple>,
    emit: &'e mut dyn FnMut(&[&'a Tuple]),
}

impl<'a> Walker<'a, '_> {
    /// Runs step `i` and the steps after it; past the last, emits.
    fn step(&mut self, i: usize) {
        let Some(&(_, source, _)) = self.steps.get(i) else {
            (self.emit)(&self.rows);
            return;
        };
        let group = self.group;
        match source {
            Source::Group => group.iter().for_each(|c| self.bind(i, c)),
            Source::Seek { s, row, field } => {
                let target = self.rows[row].get(field);
                let cursor = &mut self.cursors[s];
                cursor.seek(target);
                if cursor.key() == Some(target) {
                    let found = self.views[s].group_at(cursor.position());
                    found.iter().for_each(|c| self.bind(i, c));
                }
            }
            Source::Intersect { row, field } => {
                let v = self.rows[row].get(field);
                let lo = self.sorted.partition_point(|(x, _)| x < v);
                for k in lo..self.sorted.len() {
                    if self.sorted[k].0 != *v {
                        break;
                    }
                    self.bind(i, &group[self.sorted[k].1]);
                }
            }
        }
    }

    /// Binds step `i`'s row to `c` if it passes the step's checks.
    fn bind(&mut self, i: usize, c: &'a Tuple) {
        let (row, _, checks) = &self.steps[i];
        let rows = &self.rows;
        if checks.iter().all(|&(r, f, cf)| rows[r].get(f) == c.get(cf)) {
            self.rows[*row] = c;
            self.step(i + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(keys: &[((usize, usize), usize)]) -> JoinStage {
        JoinStage {
            probe_table: TableId(0),
            keys: keys.to_vec(),
        }
    }

    fn step(row: usize, source: Source, checks: &[(usize, usize, usize)]) -> Step {
        (row, source, checks.to_vec())
    }

    /// A backlog of queued jobs leaves the ranges as an idle pool's:
    /// four per thread.
    #[test]
    fn split_ignores_the_pool_backlog() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let pool = ThreadPool::new(2);
        let ranges = |pool: &ThreadPool| split(Some(pool), 100, |r| r).unwrap();
        let idle = ranges(&pool);
        assert_eq!(idle.len(), 8);
        assert_eq!(idle[0], 0..13);

        // Block both workers (for at most 5 s), then queue two jobs
        // behind them; the calling thread runs the split's tasks itself
        // while it waits. ord: Acquire/Release — the flag only ends the
        // blockers' spin; no data is published through it.
        let release = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        for _ in 0..2 {
            let release = Arc::clone(&release);
            pool.execute(move || {
                while !release.load(Ordering::Acquire) && start.elapsed() < Duration::from_secs(5) {
                    std::thread::yield_now();
                }
            });
        }
        while pool.pending_jobs() > 0 {
            std::thread::yield_now();
        }
        (0..2).for_each(|_| pool.execute(|| {}));
        assert!(pool.pending_jobs() >= pool.num_threads());
        let busy = ranges(&pool);
        release.store(true, Ordering::Release);
        assert_eq!(busy, idle);
    }

    /// The steps each stage-2 form of a two-stage plan lowers to; stage
    /// 0 carries a second trigger pair, a residual on row 0.
    #[test]
    fn lowering_follows_the_seek_intersect_residual_rule() {
        let first = stage(&[((0, 1), 0), ((0, 0), 1)]);
        let seek0 = Source::Seek {
            s: 0,
            row: 0,
            field: 1,
        };
        let seek1 = |row, field| Source::Seek { s: 1, row, field };

        // The closing pair (the triangles shape): seek from row 1 even
        // though the row-0 pair is declared first, intersect the row-0
        // pair, and check stage 0's residual once row 0 is bound.
        let closing = stage(&[((0, 0), 1), ((1, 1), 0)]);
        assert_eq!(
            lower(&[first.clone(), closing]),
            (
                vec![
                    step(1, seek0, &[]),
                    step(2, seek1(1, 1), &[]),
                    step(0, Source::Intersect { row: 2, field: 1 }, &[(1, 1, 0)]),
                ],
                Some(0)
            )
        );

        // Keyed from the trigger only: row 0 is bound first, at the key.
        let trigger = stage(&[((0, 0), 1), ((0, 1), 2)]);
        assert_eq!(
            lower(&[first.clone(), trigger]),
            (
                vec![
                    step(0, Source::Group, &[]),
                    step(1, seek0, &[(0, 0, 1)]),
                    step(2, seek1(0, 0), &[(0, 1, 2)]),
                ],
                None
            )
        );

        // Keyed from row 1 only: row 0 is bound after the last stage.
        let prev = stage(&[((1, 0), 0), ((1, 1), 1)]);
        assert_eq!(
            lower(&[first, prev]),
            (
                vec![
                    step(1, seek0, &[]),
                    step(2, seek1(1, 0), &[(1, 1, 1)]),
                    step(0, Source::Group, &[(1, 1, 0)]),
                ],
                None
            )
        );
    }
}
