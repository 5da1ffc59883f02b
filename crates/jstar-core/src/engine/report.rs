//! The result of one engine run: counters, phase timers, and the
//! derived pipeline metrics.

use std::time::Duration;

/// The result of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of Delta extraction steps.
    pub steps: u64,
    /// Tuples processed out of the Delta set.
    pub tuples_processed: u64,
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Coordinator time spent draining staged tuples into the Delta queue
    /// *serially* — i.e. while execution waited (the sum of
    /// `partition_time` and `merge_time`). Drain work the pipelined
    /// coordinator performed during class execution is counted in
    /// [`RunReport::overlap_time`] instead. Zero unless
    /// [`super::EngineConfig::record_steps`] is set — the per-step
    /// timers are profiling instrumentation, not free.
    pub drain_time: Duration,
    /// Drain phase 1: swapping the per-worker staging bins out into
    /// per-partition runs. Zero unless
    /// [`super::EngineConfig::record_steps`] is set.
    pub partition_time: Duration,
    /// Drain phase 2: merging the partition runs into the Delta queue
    /// (parallel subtree builds + the coordinator's graft, or the
    /// sequential fallback). Zero unless
    /// [`super::EngineConfig::record_steps`] is set.
    pub merge_time: Duration,
    /// Drain work (epoch swaps + merges) performed by the pipelined
    /// coordinator **while a class was executing** — time hidden under
    /// [`RunReport::execute_time`]'s wall clock instead of stalling the
    /// step loop. Zero when [`super::EngineConfig::pipelined`] is off,
    /// and zero unless [`super::EngineConfig::record_steps`] is set.
    pub overlap_time: Duration,
    /// Time spent executing equivalence classes (Gamma inserts + rules).
    /// Zero unless [`super::EngineConfig::record_steps`] is set.
    pub execute_time: Duration,
    /// Classes executed inline on the coordinator.
    pub inline_classes: u64,
    /// Classes fanned out to the fork/join pool.
    pub forked_classes: u64,
    /// Checkpoints written during the run (see
    /// [`super::EngineConfig::checkpoint`]).
    pub checkpoints: u64,
    /// Coordinator time spent writing checkpoints (quiescing the Delta
    /// queue, serializing, fsync-free atomic rename, rotation). Always
    /// recorded when checkpointing is on — unlike the per-step phase
    /// timers it does not require
    /// [`super::EngineConfig::record_steps`], because checkpoints are
    /// rare enough that the two clock reads per checkpoint are free.
    pub checkpoint_time: Duration,
    /// Classes executed in batched **delta-join** mode: the class
    /// cleared [`super::EngineConfig::delta_join_threshold`] and its
    /// trigger table had at least one join-plan rule, so its keyed plans
    /// ran as one leapfrog walk instead of one probe per tuple.
    pub delta_join_classes: u64,
    /// Always 0: delta-join execution issues no per-key probes (its
    /// store work is [`RunReport::join_cursor_opens`] plus
    /// [`RunReport::join_seeks`]). Kept only because the `perfbench`
    /// harness reads it.
    pub delta_join_probes: u64,
    /// Trigger tuples folded into delta-join build tables (the
    /// "delta" side of the semi-naive join).
    pub delta_join_build_tuples: u64,
    /// Total Gamma queries issued by rule bodies across all tables —
    /// per-tuple probes and leapfrog cursor opens alike, so an A/B run
    /// against [`super::EngineConfig::delta_join_from`]`(usize::MAX)`
    /// shows the probe-count reduction directly.
    pub gamma_probes: u64,
    /// Galloping cursor repositionings performed by leapfrog join
    /// walks (`join::<..>()` reads and delta-join classes). Single-step
    /// `next` advances are free and not counted, so
    /// `gamma_probes + join_seeks` is the walk's total store-search
    /// cost — the number to compare against the per-tuple run's
    /// `gamma_probes`.
    pub join_seeks: u64,
    /// Sorted column views opened for leapfrog join walks — one per
    /// (walk × relation), each also counted in
    /// [`RunReport::gamma_probes`].
    pub join_cursor_opens: u64,
    /// Cursor opens served from the generation-stamped index cache
    /// (including after a journal-suffix catch-up) — see
    /// [`crate::gamma::IndexCache`].
    pub index_cache_hits: u64,
    /// Cursor opens that built a column view from scratch: store
    /// without a claim journal, first open of a column, or wholesale
    /// invalidation (compaction epoch / tombstone change).
    pub index_cache_misses: u64,
    /// Tuples sorted and merged by incremental journal-suffix catch-ups
    /// on warm opens. The cache's point is that this grows with the
    /// *new* tuples per step, while…
    pub index_catchup_tuples: u64,
    /// …tuples sorted by full cold builds. A throwaway build per walk
    /// would re-count every live tuple on every walk; on warm triangles
    /// the cache measured about half that count (strictly fewer is all
    /// any gate ever required).
    pub index_build_tuples: u64,
    /// Collected `println` output (order not significant).
    pub output: Vec<String>,
}

impl RunReport {
    /// Delta-set throughput: tuples processed per second of wall time.
    pub fn tuples_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.tuples_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of accounted step time the coordinator spent draining
    /// serially (vs. executing). A high value means the drain, not the
    /// hardware, sets the speed limit; the pipeline's job is to move
    /// drain work out of this number and into
    /// [`RunReport::overlap_fraction`].
    pub fn drain_fraction(&self) -> f64 {
        let total = self.drain_time.as_secs_f64() + self.execute_time.as_secs_f64();
        if total > 0.0 {
            self.drain_time.as_secs_f64() / total
        } else {
            0.0
        }
    }

    /// Fraction of the run's total drain work that was overlapped with
    /// class execution: `overlap / (overlap + serial drain)`. 0.0 with
    /// pipelining off (or nothing drained); approaching 1.0 means the
    /// merge is fully hidden behind execution.
    pub fn overlap_fraction(&self) -> f64 {
        let total = self.overlap_time.as_secs_f64() + self.drain_time.as_secs_f64();
        if total > 0.0 {
            self.overlap_time.as_secs_f64() / total
        } else {
            0.0
        }
    }

    /// Mean serial-drain and execute time per step.
    pub fn per_step(&self) -> (Duration, Duration) {
        let steps = self.steps.max(1) as u32;
        (self.drain_time / steps, self.execute_time / steps)
    }

    /// Fraction of cursor opens served from the index cache:
    /// `hits / (hits + misses)`. 0.0 when no join walk opened a cursor.
    pub fn index_cache_hit_rate(&self) -> f64 {
        let total = self.index_cache_hits + self.index_cache_misses;
        if total > 0 {
            self.index_cache_hits as f64 / total as f64
        } else {
            0.0
        }
    }
}
