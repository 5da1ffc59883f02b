//! The three workloads. Each iteration builds the program, configures
//! and creates an engine, runs it to quiescence and reads the result
//! back, under spans; every result is compared with the app's
//! independent hand-written reference.

use crate::trace::Tracer;
use jstar_apps::pvwatts::{self, data, InputOrder, MonthlyMeans, PvWatts, SumMonth, Variant};
use jstar_apps::{shortest_path, triangles};
use jstar_core::engine::{Engine, EngineConfig, RunReport};
use jstar_core::program::Program;
use jstar_core::relation::Relation;
use jstar_pool::ThreadPool;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// What every workload shares: one pool for the whole process, sized to
/// the machine.
pub struct Env {
    pub pool: Arc<ThreadPool>,
}

impl Env {
    /// `EngineConfig::parallel` at the pool's size, on the shared pool;
    /// traced runs add the engine's own phase timers and step log.
    fn config(&self, traced: bool) -> EngineConfig {
        let mut c = EngineConfig::parallel(self.pool.num_threads());
        c.pool = Some(Arc::clone(&self.pool));
        if traced {
            c = c.record_steps();
        }
        c
    }
}

/// One iteration's timings, checks and (when traced) layer values.
#[derive(Default)]
pub struct Outcome {
    /// Runs, queries and recoveries attempted.
    pub attempted: u64,
    /// One line per attempt that erred or disagreed with the reference.
    pub failures: Vec<String>,
    pub build_s: f64,
    pub new_s: f64,
    pub run_s: f64,
    pub query_s: f64,
    pub recover_s: f64,
    /// The iteration's root span.
    pub root: usize,
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// `setup_s`: program build with its proofs, app config and
    /// `Engine::new`.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.new_s
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

pub trait Workload {
    /// Input sizes, for the report.
    fn describe(&self) -> String;
    fn iterate(&self, env: &Env, tr: &mut Tracer, run: u32, traced: bool) -> Outcome;
}

/// splitmix64 of the seed and a per-generator salt: the generators see
/// only derived values, never the command-line seed itself.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the program and runs its causality proofs (`program.build`),
/// then the app config and `Engine::new` (`engine.new`).
fn setup<A>(
    o: &mut Outcome,
    tr: &mut Tracer,
    run: u32,
    build: impl FnOnce() -> A,
    program: impl Fn(&A) -> Arc<Program>,
    strict: bool,
    config: impl FnOnce(&A) -> EngineConfig,
) -> (A, Engine, EngineConfig) {
    let ((app, unproved), build_s) = tr.time("program.build", run, Some(o.root), || {
        let app = build();
        let unproved = program(&app)
            .check_causality()
            .iter()
            .filter(|r| !r.proved)
            .count();
        (app, unproved)
    });
    if strict {
        o.check("build: causality obligations unproved", unproved == 0);
    }
    let ((engine, cfg), new_s) = tr.time("engine.new", run, Some(o.root), || {
        let cfg = config(&app);
        (Engine::new(program(&app), cfg.clone()), cfg)
    });
    (o.build_s, o.new_s) = (build_s, new_s);
    (app, engine, cfg)
}

/// `Engine::run` under an `engine.run` span with the report's phases
/// as aggregate children.
fn run_engine(
    o: &mut Outcome,
    tr: &mut Tracer,
    run: u32,
    engine: &mut Engine,
) -> Option<RunReport> {
    let span = tr.open("engine.run", run, Some(o.root));
    let res = engine.run();
    let secs = tr.close(span);
    match res {
        Ok(report) => {
            tr.phases(span, &report);
            o.run_s = secs;
            Some(report)
        }
        Err(e) => {
            o.check(&format!("run: {e}"), false);
            None
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Layer values the engine exposes after a traced run: the step
/// machine and pool from the `RunReport` and step log, Delta and Gamma
/// from the per-table counters (taken before any post-run read), and
/// the join rule counters.
fn engine_layers(o: &mut Outcome, r: &RunReport, engine: &Engine, cfg: &EngineConfig) {
    let stats = engine.stats();
    let tables: Vec<_> = stats.tables.iter().map(|t| t.snapshot()).collect();
    let sum = |f: &dyn Fn(&jstar_core::stats::TableStatsSnapshot) -> u64| -> u64 {
        tables.iter().map(f).sum()
    };
    let delta_tables = |f: &dyn Fn(&jstar_core::stats::TableStatsSnapshot) -> u64| -> u64 {
        tables
            .iter()
            .enumerate()
            .filter(|(i, _)| !cfg.no_delta.iter().any(|t| t.index() == *i))
            .map(|(_, t)| f(t))
            .sum()
    };
    let step_us: Vec<f64> = stats
        .step_log
        .lock()
        .iter()
        .map(|s| s.micros as f64)
        .collect();
    let attributed = r.drain_time + r.execute_time + r.checkpoint_time;
    let (fresh, dups) = (sum(&|t| t.gamma_fresh), sum(&|t| t.gamma_dups));
    let (queries, indexed) = (sum(&|t| t.queries), sum(&|t| t.queries_indexed));

    o.set("engine.steps", r.steps as f64);
    o.set("engine.step_us_p50", crate::median(&step_us));
    o.set(
        "engine.step_us_max",
        step_us.iter().copied().fold(0.0, f64::max),
    );
    o.set(
        "engine.unattributed_s",
        r.elapsed.as_secs_f64() - attributed.as_secs_f64(),
    );
    o.set("engine.absorb_s", r.drain_time.as_secs_f64());
    o.set("engine.absorb.partition_s", r.partition_time.as_secs_f64());
    o.set("engine.absorb.merge_s", r.merge_time.as_secs_f64());
    o.set("engine.overlap_s", r.overlap_time.as_secs_f64());
    o.set("engine.overlap_frac", r.overlap_fraction());
    o.set("engine.execute_s", r.execute_time.as_secs_f64());
    o.set("engine.inline_classes", r.inline_classes as f64);
    o.set("engine.forked_classes", r.forked_classes as f64);
    o.set("engine.mean_class_size", stats.mean_class_size());
    o.set("delta.tuples_processed", r.tuples_processed as f64);
    o.set(
        "delta.dedup_ratio",
        ratio(
            delta_tables(&|t| t.delta_inserts),
            delta_tables(&|t| t.puts),
        ),
    );
    o.set("gamma.fresh", fresh as f64);
    o.set("gamma.dups", dups as f64);
    o.set("gamma.fresh_ratio", ratio(fresh, fresh + dups));
    o.set("gamma.queries", queries as f64);
    o.set("gamma.indexed_ratio", ratio(indexed, queries));
    o.set("gamma.probes", indexed as f64);
    o.set("rule.delta_join_classes", r.delta_join_classes as f64);
    o.set("rule.delta_join_probes", r.delta_join_probes as f64);
    o.set(
        "rule.delta_join_build_tuples",
        r.delta_join_build_tuples as f64,
    );
    o.set("persist.checkpoint_s", r.checkpoint_time.as_secs_f64());
    o.set("persist.checkpoints", r.checkpoints as f64);
}

/// Join-cursor and index-cache counters, read after the post-run query
/// so the read-side walk is included.
fn index_layers(o: &mut Outcome, engine: &Engine) {
    let stats = engine.stats();
    let cache = engine.gamma().index_cache().stats();
    o.set(
        "index.cursor_opens",
        stats.join_cursor_opens.load(Relaxed) as f64,
    );
    o.set("index.seeks", stats.join_seeks.load(Relaxed) as f64);
    o.set("index.cache_hits", cache.hits as f64);
    o.set("index.cache_misses", cache.misses as f64);
    o.set(
        "index.hit_rate",
        ratio(cache.hits, cache.hits + cache.misses),
    );
    o.set("index.build_tuples", cache.build_tuples as f64);
    o.set("index.catchup_tuples", cache.catchup_tuples as f64);
}

/// Zeros for layers a workload bypasses, so every run reports every
/// name and the bypass is on record.
fn bypassed(o: &mut Outcome, names: &[&'static str]) {
    for &n in names {
        o.set(n, 0.0);
    }
}

const PERSIST_RECOVERY: &[&str] = &[
    "persist.snapshot_bytes",
    "persist.restore_s",
    "persist.resume_run_s",
];
const CSV: &[&str] = &["csv.parse_s", "csv.mb_per_s"];

// ── dijkstra ──────────────────────────────────────────────────────────

/// Fig. 12 SSSP: about a hundred causal steps of mid-width classes, so
/// the step machine (absorb, extract, execute, maintain) and the Delta
/// priority queue do most of the work, and Gamma is read-heavy
/// (negative `Done` probes). No join cursor, no checkpoint.
pub struct Dijkstra {
    spec: shortest_path::GraphSpec,
    edges: usize,
    want: Vec<i64>,
}

impl Dijkstra {
    pub fn new(seed: u64) -> Self {
        let spec = shortest_path::GraphSpec::new(100_000, 100_000, 24, derive(seed, 1));
        let adj = shortest_path::adjacency(&spec);
        Dijkstra {
            spec,
            edges: adj.iter().map(Vec::len).sum(),
            want: shortest_path::dijkstra_baseline(&adj, 0),
        }
    }
}

impl Workload for Dijkstra {
    fn describe(&self) -> String {
        format!(
            "vertices={} edges={} gen_tasks={}",
            self.spec.n, self.edges, self.spec.tasks
        )
    }

    fn iterate(&self, env: &Env, tr: &mut Tracer, run: u32, traced: bool) -> Outcome {
        let mut o = Outcome {
            root: tr.open("iteration", run, None),
            ..Outcome::default()
        };
        let (_app, mut engine, cfg) = setup(
            &mut o,
            tr,
            run,
            || shortest_path::build_program(self.spec),
            |a| Arc::clone(&a.program),
            true,
            |a| shortest_path::optimised_config(a, env.config(traced)),
        );
        let Some(report) = run_engine(&mut o, tr, run, &mut engine) else {
            return o;
        };
        o.check("run", true);
        let (dist, query_s) = tr.time("relation.query", run, Some(o.root), || {
            let mut dist = vec![i64::MAX; self.spec.n as usize];
            engine.for_each_rel_gamma(shortest_path::Done::query(), |d| {
                dist[d.vertex as usize] = d.distance;
                true
            });
            dist
        });
        tr.close(o.root);
        o.query_s = query_s;
        // Without a checkpoint, recovery is a restart from scratch.
        o.recover_s = o.new_s + o.run_s;
        o.check(
            "query: distances differ from dijkstra_baseline",
            dist == self.want,
        );
        if traced {
            engine_layers(&mut o, &report, &engine, &cfg);
            index_layers(&mut o, &engine);
            bypassed(&mut o, PERSIST_RECOVERY);
            bypassed(&mut o, CSV);
        }
        o
    }
}

// ── triangles ─────────────────────────────────────────────────────────

/// The join exhibit: one wide leapfrog delta-join class, then the
/// read-side `join3` query, so the rule, index and relation layers do
/// nearly all the work and the step machine almost none.
pub struct Triangles {
    spec: triangles::TriSpec,
    edges: usize,
    want: u64,
}

impl Triangles {
    pub fn new(seed: u64) -> Self {
        let spec = triangles::TriSpec::new(20_000, 80_000, 24, derive(seed, 2));
        Triangles {
            spec,
            edges: triangles::edge_list(&spec).len(),
            want: triangles::triangles_baseline(&spec),
        }
    }
}

impl Workload for Triangles {
    fn describe(&self) -> String {
        format!(
            "vertices={} undirected_edges={} load_tasks={} triangles={}",
            self.spec.n, self.edges, self.spec.tasks, self.want
        )
    }

    fn iterate(&self, env: &Env, tr: &mut Tracer, run: u32, traced: bool) -> Outcome {
        let mut o = Outcome {
            root: tr.open("iteration", run, None),
            ..Outcome::default()
        };
        let (_app, mut engine, cfg) = setup(
            &mut o,
            tr,
            run,
            || triangles::build_program(self.spec),
            |a| Arc::clone(&a.program),
            false,
            |a| triangles::optimised_config(a, env.config(traced)),
        );
        let Some(report) = run_engine(&mut o, tr, run, &mut engine) else {
            return o;
        };
        let ((listed, joined), query_s) = tr.time("relation.query", run, Some(o.root), || {
            let mut listed = 0u64;
            engine.for_each_rel_gamma(triangles::Triangle::query(), |_| {
                listed += 1;
                true
            });
            (listed, triangles::count_via_join3(&engine))
        });
        tr.close(o.root);
        o.query_s = query_s;
        o.recover_s = o.new_s + o.run_s;
        o.check(
            "run: Triangle rows differ from triangles_baseline",
            listed == self.want,
        );
        o.check(
            "query: join3 count differs from triangles_baseline",
            joined == self.want,
        );
        if traced {
            engine_layers(&mut o, &report, &engine, &cfg);
            index_layers(&mut o, &engine);
            bypassed(&mut o, PERSIST_RECOVERY);
            bypassed(&mut o, CSV);
        }
        o
    }
}

// ── pvwatts_durable ───────────────────────────────────────────────────

/// Fig. 8 PvWatts with the `HashStore` variant and a checkpoint: Gamma
/// the other way round (many fresh writes, a few hundred indexed
/// reads), the CSV reader, and a full-Gamma checkpoint followed by a
/// recovery into a fresh engine.
pub struct PvWattsDurable {
    rows: usize,
    csv: Arc<Vec<u8>>,
    want: MonthlyMeans,
    ckpt: PathBuf,
}

const PV_ROWS: usize = 350_000;
const PV_READERS: usize = 2;
/// The run pops two classes (read requests, month summaries), so an
/// interval of 2 writes exactly one checkpoint, after the aggregation.
const PV_CHECKPOINT_EVERY: u64 = 2;

impl PvWattsDurable {
    pub fn new(seed: u64, ckpt: PathBuf) -> Self {
        let mut records = data::generate_records(PV_ROWS, InputOrder::Chronological);
        // Fisher–Yates with a splitmix64 stream: the seed decides the
        // row order in the file, and so each reader's share of months.
        let mut state = derive(seed, 3);
        for i in (1..records.len()).rev() {
            state = derive(state, i as u64);
            records.swap(i, (state % (i as u64 + 1)) as usize);
        }
        PvWattsDurable {
            rows: records.len(),
            csv: Arc::new(data::render_csv(&records)),
            want: data::expected_means(&records),
            ckpt,
        }
    }

    fn config(&self, env: &Env, app: &pvwatts::PvWattsApp, traced: bool) -> EngineConfig {
        pvwatts::apply_variant(app, Variant::HashStore, env.config(traced))
            .checkpoint(&self.ckpt, PV_CHECKPOINT_EVERY)
    }

    /// Reads the monthly means back out of Gamma: one indexed
    /// `(year, month)` scan of `PvWatts` per `SumMonth` row.
    fn read_means(engine: &Engine) -> MonthlyMeans {
        let mut out: MonthlyMeans = engine
            .collect_rel(SumMonth::query())
            .into_iter()
            .map(|s| {
                let (mut n, mut sum) = (0u64, 0i64);
                engine.for_each_rel_gamma(
                    PvWatts::query()
                        .eq(PvWatts::year, s.year)
                        .eq(PvWatts::month, s.month),
                    |p| {
                        n += 1;
                        sum += p.power;
                        true
                    },
                );
                (s.year, s.month, sum as f64 / n as f64)
            })
            .collect();
        out.sort_by_key(|m| (m.0, m.1));
        out
    }
}

impl Workload for PvWattsDurable {
    fn describe(&self) -> String {
        format!(
            "csv_rows={} csv_bytes={} readers={PV_READERS} months={}",
            self.rows,
            self.csv.len(),
            self.want.len()
        )
    }

    fn iterate(&self, env: &Env, tr: &mut Tracer, run: u32, traced: bool) -> Outcome {
        if let Err(e) = std::fs::remove_dir_all(&self.ckpt) {
            assert!(
                e.kind() == std::io::ErrorKind::NotFound,
                "clearing {}: {e}",
                self.ckpt.display()
            );
        }
        let mut o = Outcome {
            root: tr.open("iteration", run, None),
            ..Outcome::default()
        };
        let (app, mut engine, cfg) = setup(
            &mut o,
            tr,
            run,
            || pvwatts::build_program(Arc::clone(&self.csv), PV_READERS),
            |a| Arc::clone(&a.program),
            true,
            |a| self.config(env, a, traced),
        );
        let Some(report) = run_engine(&mut o, tr, run, &mut engine) else {
            return o;
        };
        let (read, query_s) = tr.time("relation.query", run, Some(o.root), || {
            Self::read_means(&engine)
        });

        // Recovery: a fresh engine restores the newest checkpoint and
        // resumes the run to the result.
        let rec = tr.open("recovery", run, Some(o.root));
        let (mut fresh, _) = tr.time("engine.new", run, Some(rec), || {
            Engine::new(Arc::clone(&app.program), self.config(env, &app, traced))
        });
        let (restored, restore_s) = tr.time("persist.restore", run, Some(rec), || {
            fresh.restore_latest(&self.ckpt)
        });
        let (resumed, resume_s) = tr.time("persist.resume_run", run, Some(rec), || {
            restored.is_ok().then(|| fresh.run())
        });
        let (recovered, _) = tr.time("relation.query", run, Some(rec), || {
            Self::read_means(&fresh)
        });
        o.recover_s = tr.close(rec);
        tr.close(o.root);
        o.query_s = query_s;

        let ran = pvwatts::means_from_output(&report.output);
        o.check(
            "run: printed means differ from expected_means, or no checkpoint",
            ran == self.want && report.checkpoints >= 1,
        );
        o.check(
            "query: Gamma means differ from expected_means",
            read == self.want,
        );
        o.check(
            "recovery: restore or resumed run failed, or recovered means differ",
            matches!(resumed, Some(Ok(_))) && recovered == self.want,
        );
        if traced {
            let bytes: u64 = std::fs::read_dir(&self.ckpt)
                .map(|d| {
                    d.flatten()
                        .filter_map(|e| e.metadata().ok())
                        .map(|m| m.len())
                        .sum()
                })
                .unwrap_or(0);
            engine_layers(&mut o, &report, &engine, &cfg);
            index_layers(&mut o, &engine);
            o.set("persist.snapshot_bytes", bytes as f64);
            o.set("persist.restore_s", restore_s);
            o.set("persist.resume_run_s", resume_s);
            // The read rule's parse, replayed alone over the same bytes.
            let ((parsed, ok), parse_s) = tr.time("csv.replay", run, None, || {
                let (mut parsed, mut ok) = (0usize, 0usize);
                for rec in jstar_csv::records(&self.csv) {
                    parsed += 1;
                    ok += usize::from(black_box(data::parse_record(&rec)).is_some());
                }
                (parsed, ok)
            });
            o.check(
                "csv replay: rows lost",
                parsed == self.rows && ok == self.rows,
            );
            o.set("csv.parse_s", parse_s);
            o.set("csv.mb_per_s", self.csv.len() as f64 / 1e6 / parse_s);
        }
        o
    }
}
