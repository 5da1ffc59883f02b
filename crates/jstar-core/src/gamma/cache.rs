//! Generation-stamped cache of [`ColumnIndex`] column views — the
//! incremental-maintenance layer under the leapfrog join lowering.
//!
//! PR 9's join walk rebuilt each probe table's sorted column view from a
//! full scan-and-sort of live Gamma on every open, so iterative programs
//! re-sorted largely-unchanged tables step after step. This cache keeps
//! each built view and stamps it with an [`IndexStamp`]:
//!
//! * **generation** — the reservation table's claim-journal length at
//!   build time, clamped to the *stable prefix* (the longest prefix with
//!   no append still in flight — see
//!   [`super::reservation::ReservationTable::journal_stable_prefix`]).
//!   The journal is append-only, so a later open catches up by sorting
//!   only the suffix `[stamp.generation, now)` and two-way merging it
//!   into the cached groups — O(new·log new + merged) instead of
//!   O(live·log live).
//! * **epoch** — bumped by every quiescent table replacement
//!   (compaction, snapshot import). Journal positions do not survive a
//!   rebuild, so an epoch mismatch invalidates wholesale.
//! * **tombstones** — lifetime-hint `retain` kills tuples without
//!   touching the journal; a changed tombstone count also invalidates
//!   wholesale (hints run a handful of times per run).
//!
//! Catch-up preserves the cold-build contract exactly: a cold build
//! walks the journal in order, so group-internal tuple order is journal
//! order; suffix tuples carry later journal positions than every cached
//! tuple, so appending them after the cached group
//! ([`ColumnIndex::merge_suffix`]) reproduces the order a cold rebuild
//! over the longer journal would emit. Stores without a claim journal
//! ([`super::BTreeStore`], custom stores) report no stamp and stay on
//! the cold path.
//!
//! Caching is unconditional, and catch-up runs lazily, on the opening
//! walk.
//!
//! Concurrency: one mutex per table guards that table's `field → entry`
//! map, and the build/catch-up runs *under* the lock — racing openers of
//! the same table serialize, and the loser gets a pure hit instead of
//! duplicating the sort. The happens-before edge that makes the suffix
//! walk sound is the claim journal's own publish protocol (see
//! CONCURRENCY.md protocol 6).

use super::cursor::ColumnIndex;
use super::TableStore;
use crate::tuple::Tuple;
use crate::value::Value;
// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicU64, Mutex, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

/// The validity stamp of a cached column view — see the module docs for
/// what each component invalidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStamp {
    /// Quiescent-replacement count of the backing table.
    pub epoch: u64,
    /// Claim-journal length (an entry *count*; in-flight appends make
    /// the usable bound smaller — the cache clamps via the suffix walk).
    pub generation: usize,
    /// Tombstoned-slot count of the backing table.
    pub tombstones: usize,
}

/// Point-in-time counter snapshot — the source of
/// `RunReport::{index_cache_hits, index_cache_misses,
/// index_catchup_tuples, index_build_tuples}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Opens served from a cached entry (including after a catch-up).
    pub hits: u64,
    /// Opens that built from scratch (uncacheable store, empty slot, or
    /// wholesale invalidation).
    pub misses: u64,
    /// Tuples sorted+merged by journal-suffix catch-ups.
    pub catchup_tuples: u64,
    /// Tuples sorted by full cold builds.
    pub build_tuples: u64,
}

struct CacheEntry {
    index: Arc<ColumnIndex>,
    stamp: IndexStamp,
    last_used: u64,
    bytes: usize,
}

/// Per-[`super::Gamma`] cache: one `field → entry` map per table store.
pub struct IndexCache {
    max_bytes_per_table: usize,
    tables: Vec<Mutex<HashMap<usize, CacheEntry>>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    catchup_tuples: AtomicU64,
    build_tuples: AtomicU64,
}

/// Per-table byte bound on cached column views; least-recently-used
/// entries are evicted past it (the most recently built view always
/// survives).
pub const DEFAULT_INDEX_CACHE_MAX_BYTES: usize = 64 << 20;

impl IndexCache {
    pub(super) fn new(n_tables: usize, max_bytes: usize) -> IndexCache {
        IndexCache {
            max_bytes_per_table: max_bytes,
            tables: (0..n_tables).map(|_| Mutex::new(HashMap::new())).collect(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            catchup_tuples: AtomicU64::new(0),
            build_tuples: AtomicU64::new(0),
        }
    }

    /// Counter snapshot (monotone over the cache's lifetime).
    pub fn stats(&self) -> IndexCacheStats {
        // ord: Relaxed ×4 — statistics only.
        IndexCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            catchup_tuples: self.catchup_tuples.load(Ordering::Relaxed),
            build_tuples: self.build_tuples.load(Ordering::Relaxed),
        }
    }

    /// The open path behind [`super::Gamma::open_cursor`].
    pub(super) fn open(
        &self,
        table: usize,
        field: usize,
        store: &dyn TableStore,
    ) -> Arc<ColumnIndex> {
        let Some(stamp) = store.index_stamp() else {
            // Cold path — a store without a claim journal.
            // ord: Relaxed ×2 — statistics only.
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.build_tuples
                .fetch_add(store.len() as u64, Ordering::Relaxed);
            return store.open_cursor(field);
        };
        let mut map = self.tables[table].lock();
        // ord: Relaxed — the LRU tick is advisory; the map mutex orders
        // every entry mutation.
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(e) = map.get_mut(&field) {
            let valid = e.stamp.epoch == stamp.epoch
                && e.stamp.tombstones == stamp.tombstones
                && stamp.generation >= e.stamp.generation;
            if valid {
                if stamp.generation > e.stamp.generation {
                    // Warm but stale: sort only the journal suffix and
                    // merge it under the cached groups.
                    let (new_groups, covered, n) =
                        suffix_groups(store, field, e.stamp.generation, stamp.generation);
                    if n > 0 {
                        e.index = Arc::new(e.index.merge_suffix(new_groups));
                        e.bytes = e.index.approx_bytes();
                    }
                    e.stamp.generation = covered;
                    // ord: Relaxed — statistic only.
                    self.catchup_tuples.fetch_add(n as u64, Ordering::Relaxed);
                }
                e.last_used = tick;
                // ord: Relaxed — statistic only.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&e.index);
            }
        }
        // Miss (no entry, or wholesale invalidation): full build off the
        // journal — the same walk a catch-up from generation 0 runs.
        let (groups, covered, n) = suffix_groups(store, field, 0, stamp.generation);
        let index = match ColumnIndex::try_from_sorted(groups) {
            Ok(idx) => Arc::new(idx),
            // Unreachable by construction (suffix_groups sorts), but a
            // correctness bug here must degrade to the store's own cold
            // build, not corrupt seeks.
            Err(_) => store.open_cursor(field),
        };
        // ord: Relaxed ×2 — statistics only.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.build_tuples.fetch_add(n as u64, Ordering::Relaxed);
        let bytes = index.approx_bytes();
        map.insert(
            field,
            CacheEntry {
                index: Arc::clone(&index),
                stamp: IndexStamp {
                    generation: covered,
                    ..stamp
                },
                last_used: tick,
                bytes,
            },
        );
        evict_over_budget(&mut map, self.max_bytes_per_table);
        index
    }
}

/// Sorts the live tuples at journal positions `[lo, hi)` of `store` into
/// strictly-ascending `(value, group)` pairs on `field`. Returns the
/// groups, the stable bound actually covered (`<= hi` — in-flight
/// appends clamp it), and the tuple count. The sort is stable, so
/// group-internal order stays journal order.
fn suffix_groups(
    store: &dyn TableStore,
    field: usize,
    lo: usize,
    hi: usize,
) -> (Vec<(Value, Vec<Tuple>)>, usize, usize) {
    let mut pairs: Vec<(Value, Tuple)> = Vec::new();
    let covered = store.for_each_journal_suffix(lo, hi, &mut |t| {
        pairs.push((t.get(field).clone(), t.clone()));
    });
    let n = pairs.len();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut groups: Vec<(Value, Vec<Tuple>)> = Vec::new();
    for (v, t) in pairs {
        match groups.last_mut() {
            Some((last, g)) if *last == v => g.push(t),
            _ => groups.push((v, vec![t])),
        }
    }
    (groups, covered, n)
}

/// Evicts least-recently-used entries until the table's total is within
/// `max_bytes` (always keeping at least one entry — evicting the view
/// that was just built would turn every open into a rebuild).
fn evict_over_budget(map: &mut HashMap<usize, CacheEntry>, max_bytes: usize) {
    loop {
        if map.len() <= 1 {
            return;
        }
        let total: usize = map.values().map(|e| e.bytes).sum();
        if total <= max_bytes {
            return;
        }
        let Some(&victim) = map.iter().min_by_key(|(_, e)| e.last_used).map(|(f, _)| f) else {
            return;
        };
        map.remove(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::testutil::{keyed_def, kt};
    use crate::gamma::HashStore;

    fn store() -> HashStore {
        HashStore::new(keyed_def(), vec![0], 4)
    }

    #[test]
    fn second_open_is_a_pure_hit() {
        let s = store();
        for i in 0..100 {
            s.insert(kt(i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let a = cache.open(0, 0, &s);
        let b = cache.open(0, 0, &s);
        assert!(Arc::ptr_eq(&a, &b), "warm open returns the cached Arc");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(st.build_tuples, 100);
        assert_eq!(st.catchup_tuples, 0);
    }

    #[test]
    fn catch_up_sorts_only_the_suffix_and_matches_cold() {
        let s = store();
        // Descending keys: the suffix sort and the merge both have real
        // work to do (new values interleave *below* the cached ones).
        for i in 0..80 {
            s.insert(kt(1000 - i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let _ = cache.open(0, 0, &s);
        for i in 80..100 {
            s.insert(kt(1000 - i, i, "v"));
        }
        let warm = cache.open(0, 0, &s);
        let st = cache.stats();
        assert_eq!(st.catchup_tuples, 20, "only the suffix was sorted");
        assert_eq!(st.build_tuples, 80);
        let cold = s.open_cursor(0);
        assert_eq!(warm.groups(), cold.groups(), "caught-up == cold rebuild");
    }

    #[test]
    fn retain_invalidates_wholesale() {
        let s = store();
        for i in 0..50 {
            s.insert(kt(i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let _ = cache.open(0, 0, &s);
        s.retain(&|t| t.int(0) % 2 == 0);
        let warm = cache.open(0, 0, &s);
        let st = cache.stats();
        assert_eq!(st.misses, 2, "tombstones changed — full rebuild");
        assert_eq!(warm.groups(), s.open_cursor(0).groups());
    }

    #[test]
    fn compaction_epoch_invalidates_wholesale() {
        let s = store();
        for i in 0..50 {
            s.insert(kt(i, i, "v"));
        }
        let cache = IndexCache::new(1, usize::MAX);
        let _ = cache.open(0, 0, &s);
        s.retain(&|t| t.int(0) < 10);
        assert!(s.maybe_compact(0.1), "compaction must run");
        let warm = cache.open(0, 0, &s);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(warm.groups(), s.open_cursor(0).groups());
    }

    #[test]
    fn lru_evicts_down_to_budget_but_keeps_the_newest() {
        let s = store();
        for i in 0..200 {
            s.insert(kt(i, i, "v"));
        }
        // Budget of one byte: every insert evicts the other entry.
        let cache = IndexCache::new(1, 1);
        let _ = cache.open(0, 0, &s);
        let _ = cache.open(0, 1, &s);
        let m = cache.tables[0].lock();
        assert_eq!(m.len(), 1, "over budget — LRU evicted");
        assert!(m.contains_key(&1), "newest entry survives");
    }
}
