//! Sorted per-column cursors — the seek/next walk surface of the
//! worst-case-optimal join lowering.
//!
//! A [`ColumnIndex`] is an immutable sorted view of one column of a
//! Gamma store: every distinct value of that column in ascending order,
//! each paired with the tuples carrying it. It is built once per join
//! walk by [`super::TableStore::open_cursor`] and shared (it is handed
//! out in an `Arc`) by every worker participating in the walk; each
//! worker positions its own lightweight [`ColumnCursor`] over it.
//!
//! The cursor distinguishes the two leapfrog-triejoin motions:
//!
//! * [`ColumnCursor::next`] — advance one distinct value. Constant
//!   time, *not* counted as a seek.
//! * [`ColumnCursor::seek`] — position at the first value `>=` a
//!   target. When a single `next` step is not enough, the cursor
//!   gallops (exponential probe, then binary search), and **that** is
//!   what the seek counter counts: the number of logarithmic search
//!   operations, the cursor-walk analogue of a hash probe. A dense
//!   intersection that mostly steps forward therefore reports far
//!   fewer seeks than it visits keys — which is exactly the economy
//!   the leapfrog walk is chosen for.

use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

/// A store-iteration callback: invoked with a sink that must be fed
/// every live tuple of the table. How [`ColumnIndex::build`] borrows a
/// store's `for_each` without naming the store type.
pub type TupleVisit<'a> = dyn FnMut(&mut dyn FnMut(&Tuple)) + 'a;

/// An immutable sorted view of one column of a table store: distinct
/// values ascending, each with its group of tuples, itself sorted — an
/// order fixed by the tuples alone, not by the order concurrent puts
/// landed in, so a walk over the view seeks the same way on every run.
/// Shared across the workers of one join walk.
pub struct ColumnIndex {
    groups: Vec<(Value, Vec<Tuple>)>,
}

impl ColumnIndex {
    /// Builds the index by grouping `tuples`-producing iteration on
    /// `field`. Used by the default [`super::TableStore::open_cursor`];
    /// stores with an ordered representation can construct the groups
    /// directly from their sorted iteration instead.
    pub fn build(field: usize, visit: &mut TupleVisit<'_>) -> ColumnIndex {
        let mut rows = Vec::new();
        visit(&mut |t| rows.push(t.clone()));
        ColumnIndex {
            groups: group_rows(field, rows),
        }
    }

    /// Builds the index from groups already sorted ascending by value —
    /// the ordered-store fast path. Callers must uphold the sort order;
    /// it is debug-asserted.
    pub fn from_sorted(groups: Vec<(Value, Vec<Tuple>)>) -> ColumnIndex {
        debug_assert!(
            groups.windows(2).all(|w| w[0].0 < w[1].0),
            "ColumnIndex groups must be strictly ascending by value"
        );
        ColumnIndex { groups }
    }

    /// Like [`ColumnIndex::from_sorted`], but the strictly-ascending
    /// contract is verified in release builds too (one linear pass of
    /// value comparisons — cheap next to the sort that produced the
    /// groups) and a violation comes back as a typed error instead of
    /// silently corrupting every later seek. The ordered-store fast
    /// paths use this so a mis-sorted producer is caught at build time.
    pub fn try_from_sorted(groups: Vec<(Value, Vec<Tuple>)>) -> crate::error::Result<ColumnIndex> {
        if let Some(i) = (1..groups.len()).find(|&i| groups[i - 1].0 >= groups[i].0) {
            return Err(crate::error::JStarError::Other(format!(
                "ColumnIndex::try_from_sorted: groups not strictly ascending \
                 at position {i} ({:?} !< {:?})",
                groups[i - 1].0,
                groups[i].0
            )));
        }
        Ok(ColumnIndex { groups })
    }

    /// The sorted `(value, group)` pairs — read-only view for tests
    /// asserting caught-up and cold-built indexes are identical.
    #[cfg(test)]
    pub(crate) fn groups(&self) -> &[(Value, Vec<Tuple>)] {
        &self.groups
    }

    /// Two-way merges a sorted batch of *new* groups into this index,
    /// producing the caught-up index: values interleave in ascending
    /// order, and where a value exists on both sides the two sorted
    /// groups are merged — exactly what a cold rebuild over the longer
    /// journal would emit. `new` must be strictly ascending (like
    /// `from_sorted`'s input).
    pub(crate) fn merge_suffix(&self, new: Vec<(Value, Vec<Tuple>)>) -> ColumnIndex {
        let old = &self.groups;
        let mut merged: Vec<(Value, Vec<Tuple>)> = Vec::with_capacity(old.len() + new.len());
        let mut oi = 0;
        for (v, g) in new {
            while oi < old.len() && old[oi].0 < v {
                merged.push(old[oi].clone());
                oi += 1;
            }
            if oi < old.len() && old[oi].0 == v {
                let mut both = old[oi].1.clone();
                both.extend(g);
                // Two sorted runs: the stable sort merges them in
                // linear time.
                both.sort();
                merged.push((v, both));
                oi += 1;
            } else {
                merged.push((v, g));
            }
        }
        merged.extend_from_slice(&old[oi..]);
        ColumnIndex { groups: merged }
    }

    /// Rough heap footprint for the cache's byte-bounded LRU: exact
    /// accounting of refcounted tuple internals is not worth the
    /// bookkeeping, so every tuple is charged a flat estimate.
    pub(crate) fn approx_bytes(&self) -> usize {
        const PER_TUPLE: usize = std::mem::size_of::<Tuple>() + 48;
        let per_group = std::mem::size_of::<(Value, Vec<Tuple>)>();
        self.groups
            .iter()
            .map(|(_, g)| per_group + g.len() * PER_TUPLE)
            .sum()
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group at position `pos`, borrowed from the index itself.
    pub(crate) fn group_at(&self, pos: usize) -> &[Tuple] {
        &self.groups[pos].1
    }

    /// A fresh cursor positioned at the first (smallest) value.
    pub fn cursor(self: &Arc<Self>) -> ColumnCursor {
        self.cursor_at(0)
    }

    /// A fresh cursor positioned at the `pos`-th distinct value (clamped
    /// to the end) — how a walk split by key position starts each
    /// worker at its own range without a counted seek.
    pub fn cursor_at(self: &Arc<Self>, pos: usize) -> ColumnCursor {
        ColumnCursor {
            index: Arc::clone(self),
            pos: pos.min(self.groups.len()),
            seeks: 0,
        }
    }
}

/// One worker's position over a shared [`ColumnIndex`] — the seek/next
/// cursor of the leapfrog walk. Cheap to create (an `Arc` clone and two
/// integers), so parallel walks give every worker its own.
pub struct ColumnCursor {
    index: Arc<ColumnIndex>,
    pos: usize,
    /// Galloping repositioning searches performed (see module docs —
    /// single-step advances are not seeks).
    seeks: u64,
}

impl ColumnCursor {
    /// The value at the cursor, or `None` once exhausted.
    pub fn key(&self) -> Option<&Value> {
        self.index.groups.get(self.pos).map(|(v, _)| v)
    }

    /// The tuples carrying the current value, or `None` once exhausted.
    pub fn group(&self) -> Option<&[Tuple]> {
        self.index.groups.get(self.pos).map(|(_, g)| g.as_slice())
    }

    /// The cursor's position: how many distinct values lie before it.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when the cursor has moved past the last value.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.index.groups.len()
    }

    /// Advances one distinct value (constant time; not a seek).
    pub fn next(&mut self) {
        if self.pos < self.index.groups.len() {
            self.pos += 1;
        }
    }

    /// Positions the cursor at the first value `>= target` and returns
    /// the group when that value equals `target` exactly.
    ///
    /// Already at-or-past the target: free. One `next` step away: one
    /// constant-time advance. Anything further — forward *or* backward
    /// (later join stages seek in data order, not sorted order) — is a
    /// counted galloping search.
    pub fn seek_exact(&mut self, target: &Value) -> Option<&[Tuple]> {
        self.seek(target);
        match self.index.groups.get(self.pos) {
            Some((v, g)) if v == target => Some(g.as_slice()),
            _ => None,
        }
    }

    /// Positions the cursor at the first value `>= target` (see
    /// [`ColumnCursor::seek_exact`] for the cost/counting contract).
    pub fn seek(&mut self, target: &Value) {
        let groups = &self.index.groups;
        // Backward target: restart with one binary search.
        if self.pos > 0 {
            if let Some((prev, _)) = groups.get(self.pos - 1) {
                if target <= prev {
                    self.seeks += 1;
                    self.pos = groups.partition_point(|(v, _)| v < target);
                    return;
                }
            }
        }
        match groups.get(self.pos) {
            None => {}
            Some((v, _)) if v >= target => {}
            _ => {
                // One step forward covers the common dense-walk case.
                self.pos += 1;
                if matches!(groups.get(self.pos), Some((v, _)) if v < target) {
                    // Gallop: exponential probe from here, then binary
                    // search inside the bracketing window. At loop exit
                    // `hi` is either the end or the first value that may
                    // be >= target, so the partition point of [lo, hi)
                    // is the global first-geq position.
                    self.seeks += 1;
                    let lo = self.pos;
                    let mut step = 1usize;
                    let mut hi = lo;
                    while hi < groups.len() && groups[hi].0 < *target {
                        step *= 2;
                        hi = (hi + step).min(groups.len());
                    }
                    self.pos = lo + groups[lo..hi].partition_point(|(v, _)| v < target);
                }
            }
        }
    }

    /// Counted galloping seeks so far (see module docs).
    pub fn seeks(&self) -> u64 {
        self.seeks
    }
}

/// Groups `rows` on `field` into strictly ascending `(value, group)`
/// pairs, each group sorted. The stable sort by value keeps each group
/// in arrival order, so a group that arrives mostly sorted costs little
/// more than one pass to sort.
pub(crate) fn group_rows(field: usize, rows: Vec<Tuple>) -> Vec<(Value, Vec<Tuple>)> {
    let mut pairs: Vec<(Value, Tuple)> = rows
        .into_iter()
        .map(|t| (t.get(field).clone(), t))
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut groups: Vec<(Value, Vec<Tuple>)> = Vec::new();
    for (v, t) in pairs {
        match groups.last_mut() {
            Some((last, g)) if *last == v => g.push(t),
            _ => groups.push((v, vec![t])),
        }
    }
    groups.iter_mut().for_each(|(_, g)| g.sort());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn index(vals: &[i64]) -> Arc<ColumnIndex> {
        let mut map: BTreeMap<Value, Vec<Tuple>> = BTreeMap::new();
        for &v in vals {
            map.entry(Value::Int(v)).or_default().push(Tuple::new(
                crate::schema::TableId(0),
                vec![Value::Int(v), Value::Int(v * 10)],
            ));
        }
        Arc::new(ColumnIndex::from_sorted(map.into_iter().collect()))
    }

    #[test]
    fn empty_index_cursor_is_exhausted() {
        let idx = index(&[]);
        assert!(idx.is_empty());
        let mut c = idx.cursor();
        assert!(c.is_exhausted());
        assert_eq!(c.key(), None);
        assert_eq!(c.group(), None);
        assert_eq!(c.seek_exact(&Value::Int(5)), None);
        c.next();
        assert!(c.is_exhausted());
    }

    #[test]
    fn degenerate_single_value_index() {
        let idx = index(&[7]);
        let mut c = idx.cursor();
        assert_eq!(c.key(), Some(&Value::Int(7)));
        assert_eq!(c.seek_exact(&Value::Int(7)).map(|g| g.len()), Some(1));
        // Seeking below the only value lands on it without matching.
        assert_eq!(c.seek_exact(&Value::Int(6)), None);
        assert_eq!(c.key(), Some(&Value::Int(7)));
        assert_eq!(c.seek_exact(&Value::Int(8)), None);
        assert!(c.is_exhausted());
    }

    #[test]
    fn duplicate_keys_group_together() {
        let idx = index(&[3, 3, 3, 9, 9]);
        assert_eq!(idx.len(), 2, "two distinct values");
        let mut c = idx.cursor();
        assert_eq!(c.group().map(|g| g.len()), Some(3));
        c.next();
        assert_eq!(c.key(), Some(&Value::Int(9)));
        assert_eq!(c.group().map(|g| g.len()), Some(2));
        c.next();
        assert!(c.is_exhausted());
    }

    #[test]
    fn groups_do_not_depend_on_visit_or_merge_order() {
        let rows: Vec<Tuple> = [(1, 9), (2, 5), (1, 3), (2, 7), (1, 6)]
            .iter()
            .map(|&(k, v)| {
                Tuple::new(
                    crate::schema::TableId(0),
                    vec![Value::Int(k), Value::Int(v)],
                )
            })
            .collect();
        let build = |rows: &[Tuple]| ColumnIndex::build(0, &mut |sink| rows.iter().for_each(sink));
        let forward = build(&rows);
        let reversed: Vec<Tuple> = rows.iter().rev().cloned().collect();
        assert_eq!(forward.groups(), build(&reversed).groups());
        let key1: Vec<i64> = forward.groups()[0].1.iter().map(|t| t.int(1)).collect();
        assert_eq!(key1, [3, 6, 9], "the group is sorted");
        // A catch-up merge of the last rows lands on the cold build.
        let cold_prefix = build(&rows[..3]);
        let suffix = build(&rows[3..]).groups().to_vec();
        assert_eq!(cold_prefix.merge_suffix(suffix).groups(), forward.groups());
    }

    #[test]
    fn cursor_at_starts_mid_index_without_a_seek() {
        let idx = index(&[10, 20, 30]);
        let c = idx.cursor_at(1);
        assert_eq!((c.position(), c.key()), (1, Some(&Value::Int(20))));
        assert_eq!(c.seeks(), 0);
        let end = idx.cursor_at(7);
        assert_eq!(end.position(), 3, "clamped to the end");
        assert!(end.is_exhausted());
    }

    #[test]
    fn dense_forward_walk_counts_no_seeks() {
        let idx = index(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut c = idx.cursor();
        for v in 1..=8 {
            assert!(c.seek_exact(&Value::Int(v)).is_some(), "v={v}");
        }
        assert_eq!(c.seeks(), 0, "adjacent advances are next()s, not seeks");
    }

    #[test]
    fn long_jumps_gallop_and_count() {
        let vals: Vec<i64> = (0..1000).collect();
        let idx = index(&vals);
        let mut c = idx.cursor();
        assert!(c.seek_exact(&Value::Int(0)).is_some());
        assert!(c.seek_exact(&Value::Int(900)).is_some());
        assert_eq!(c.seeks(), 1, "one gallop for the long jump");
        // Backward seek restarts with a counted binary search.
        assert!(c.seek_exact(&Value::Int(17)).is_some());
        assert_eq!(c.seeks(), 2);
        assert_eq!(c.key(), Some(&Value::Int(17)));
    }

    #[test]
    fn seek_to_missing_value_lands_on_successor() {
        let idx = index(&[10, 20, 30, 40, 50, 60, 70]);
        let mut c = idx.cursor();
        assert_eq!(c.seek_exact(&Value::Int(35)), None);
        assert_eq!(c.key(), Some(&Value::Int(40)), "first value >= target");
        assert_eq!(c.seek_exact(&Value::Int(71)), None);
        assert!(c.is_exhausted());
    }

    #[test]
    fn seek_positions_match_linear_scan_reference() {
        // Randomised-ish sweep: every (index contents, target) pair must
        // land exactly where a linear scan would.
        let vals: Vec<i64> = vec![2, 3, 5, 8, 13, 21, 34, 55, 89];
        let idx = index(&vals);
        for start in 0..vals.len() {
            for target in 0..100i64 {
                let mut c = idx.cursor();
                c.seek(&Value::Int(vals[start]));
                c.seek(&Value::Int(target));
                let want = vals.iter().position(|&v| v >= target);
                assert_eq!(
                    c.key(),
                    want.map(|i| &idx.groups[i].0),
                    "start={start} target={target}"
                );
            }
        }
    }
}
