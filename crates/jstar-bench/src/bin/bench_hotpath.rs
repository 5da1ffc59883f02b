//! Machine-readable hot-path benchmark: `BENCH_hotpath.json`.
//!
//! ```text
//! cargo run --release -p jstar-bench --bin bench_hotpath
//! cargo run --release -p jstar-bench --bin bench_hotpath -- \
//!     --out BENCH_hotpath.json --runs 5 --check-drain 0.5
//! ```
//!
//! Measures the three scaling exhibits the hot-path work targets —
//! fig8 (PvWatts, hash store), fig11 (MatrixMult) and fig12 (Dijkstra)
//! — at 1/4/8 threads, **interleaved**: each timing round runs every
//! (workload, threads) cell once before any cell repeats, so ambient
//! machine noise lands on all cells evenly and cross-run medians are
//! comparable. One instrumented Dijkstra run per thread count also
//! records the coordinator's drain/partition/merge split.
//!
//! The JSON output is the repo's perf trajectory: CI uploads it as an
//! artifact per commit, and `--check-drain <ceiling>` turns the run
//! into a regression gate: non-zero exit when the fig12 drain fraction
//! exceeds the ceiling (the coordinator has become the bottleneck
//! again) **or** when the pipelined arm of the `depth_sweep` section
//! (fig12 at 1 thread, alternating vs pipelined, interleaved) regresses
//! beyond a noise allowance vs. the alternating loop — at one thread
//! there is nothing to overlap with, so the pipeline must not cost when
//! it cannot pay. The instrumented rows also report `overlap_fraction`
//! (the share of drain work hidden behind class execution).
//!
//! The `checkpoint_overhead` section times fig8 (PvWatts) with one
//! real full-Gamma checkpoint per run vs. off, interleaved; under
//! `--check-drain` the checkpointed median must stay within 1.10x of
//! the plain run — durability is sold as cheap, so the quiesce +
//! serialize + rename cycle failing that bound is a regression, not a
//! tuning choice.
//!
//! The `delta_join` and `wco_join` sections share one three-arm
//! triangle-counting measurement, interleaved per round at 1/4/8
//! threads: per-tuple nested-loop firing, batched delta-join with hash
//! probes (the PR 8 path), and batched delta-join lowered onto the
//! leapfrog merged-cursor walk (the default). `delta_join` keeps its
//! v3 shape from the per-tuple and hash arms; `wco_join` reports all
//! three arms with the Gamma probe / join seek / cursor-open counters,
//! so the "coordinated walk searches less than per-key probing" claim
//! is measured, not asserted — under `--check-drain` the leapfrog
//! arm's `gamma_probes + join_seeks` must stay strictly below the hash
//! arm's `gamma_probes` at every thread count. The `delta_join_parity`
//! section runs pairwise per-tuple vs. delta-join A/B on
//! fig8/fig11/fig12 — programs with *no* join rules, where mode
//! selection must be free; `wco_join_parity` does the same for the
//! join-strategy knob (hash vs. leapfrog on join-free programs); under
//! `--check-drain`, any parity median beyond 1.10x fails the run.
//!
//! The `index_cache` section A/Bs the cached column indexes on the two
//! join exhibits: cold (`IndexCachePolicy::Off`, every cursor open
//! rebuilds) vs warm (`EagerRefresh`, generation-stamped entries
//! caught up from the claim-journal suffix), interleaved per round at
//! 1/4/8 threads, with the hit/miss/catch-up/build counters of one
//! instrumented run per cell in the JSON. Triangles re-opens the
//! `Edge` index across strata, so warm must hit and build strictly
//! fewer tuples; basket opens each dimension index exactly once, so
//! warm must merely never build more. `index_cache_parity` runs the
//! same cold/warm pairs on the join-free exhibits, where no cursor is
//! ever opened and the cache must be free: under `--check-drain` any
//! warm pair-ratio median beyond 1.05x cold fails the run.

use jstar_apps::matmul;
use jstar_apps::pvwatts::{InputOrder, Variant};
use jstar_apps::shortest_path;
use jstar_apps::triangles;
use jstar_bench::scale;
use jstar_bench::workloads::*;
use jstar_core::prelude::*;
use jstar_pool::ThreadPool;
use std::sync::Arc;
use std::time::Duration;

const THREADS: [usize; 3] = [1, 4, 8];
const WORKLOADS: [&str; 3] = ["fig8_pvwatts", "fig11_matmul", "fig12_dijkstra"];

struct Args {
    out: String,
    runs: usize,
    check_drain: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_hotpath.json".into(),
        runs: 5,
        check_drain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = it.next().expect("--out <path>"),
            "--runs" => args.runs = it.next().and_then(|v| v.parse().ok()).expect("--runs <n>"),
            "--check-drain" => {
                args.check_drain = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--check-drain <frac>"),
                )
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args.runs = args.runs.max(5); // the trajectory promises ≥5-run medians
    args
}

fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2]
}

fn json_f(v: f64) -> String {
    // JSON has no NaN/Inf; clamp degenerate timer output to 0.
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".into()
    }
}

fn main() {
    let args = parse_args();
    let runs = args.runs;

    // Shared inputs, generated once.
    let csv = pvwatts_csv(InputOrder::Chronological);
    let n = matmul_n();
    let a = Arc::new(matmul::gen_matrix(n, 11));
    let b = Arc::new(matmul::gen_matrix(n, 22));
    let spec = dijkstra_spec();
    // One pool per thread count, reused across every run so pool
    // spin-up never pollutes a sample.
    let pools: Vec<Arc<ThreadPool>> = THREADS.iter().map(|&t| pool_of(t)).collect();
    let config = |ti: usize| {
        let mut c = EngineConfig::parallel(THREADS[ti]);
        c.pool = Some(Arc::clone(&pools[ti]));
        c
    };

    // Warm-up round (discarded): page the inputs in, warm allocators.
    for (ti, &threads) in THREADS.iter().enumerate() {
        run_pvwatts(&csv, threads.max(2), Variant::HashStore, config(ti));
        run_matmul(n, &a, &b, config(ti));
        run_dijkstra(spec, config(ti));
    }

    // Interleaved timing rounds: cells[workload][threads] collects one
    // sample per round.
    let mut cells: Vec<Vec<Vec<Duration>>> =
        vec![vec![Vec::with_capacity(runs); THREADS.len()]; WORKLOADS.len()];
    for _round in 0..runs {
        for ti in 0..THREADS.len() {
            cells[0][ti].push(run_pvwatts(
                &csv,
                THREADS[ti].max(2),
                Variant::HashStore,
                config(ti),
            ));
            cells[1][ti].push(run_matmul(n, &a, &b, config(ti)));
            cells[2][ti].push(run_dijkstra(spec, config(ti)));
        }
    }

    // Instrumented Dijkstra runs: the coordinator's drain split and the
    // pipeline's overlap share.
    struct DrainRow {
        threads: usize,
        drain_fraction: f64,
        overlap_fraction: f64,
        partition_secs: f64,
        merge_secs: f64,
        overlap_secs: f64,
        execute_secs: f64,
        steps: u64,
    }
    let drain_rows: Vec<DrainRow> = (0..THREADS.len())
        .map(|ti| {
            let (_, report) = shortest_path::run_jstar_report(spec, config(ti).record_steps())
                .expect("dijkstra runs");
            DrainRow {
                threads: THREADS[ti],
                drain_fraction: report.drain_fraction(),
                overlap_fraction: report.overlap_fraction(),
                partition_secs: report.partition_time.as_secs_f64(),
                merge_secs: report.merge_time.as_secs_f64(),
                overlap_secs: report.overlap_time.as_secs_f64(),
                execute_secs: report.execute_time.as_secs_f64(),
                steps: report.steps,
            }
        })
        .collect();

    // Depth sweep: fig12 at 1 thread, alternating vs pipelined,
    // interleaved so noise lands on both arms evenly. At one thread
    // there is nothing to overlap with, so the pipelined arm must be
    // ≥ parity with the alternating loop — this is the gate that
    // catches the overlap machinery itself becoming overhead.
    const SWEEP_ARMS: [bool; 2] = [false, true];
    let sweep_config = |pipelined: bool| {
        let mut c = EngineConfig::parallel(1).pipelined(pipelined);
        c.pool = Some(Arc::clone(&pools[0]));
        c
    };
    let mut sweep_cells: Vec<Vec<Duration>> = vec![Vec::with_capacity(runs); SWEEP_ARMS.len()];
    for &pipelined in &SWEEP_ARMS {
        run_dijkstra(spec, sweep_config(pipelined)); // warm-up, discarded
    }
    for _round in 0..runs {
        for (ai, &pipelined) in SWEEP_ARMS.iter().enumerate() {
            sweep_cells[ai].push(run_dijkstra(spec, sweep_config(pipelined)));
        }
    }
    struct SweepRow {
        pipelined: bool,
        median: Duration,
        ratio_vs_alternating: f64,
    }
    let sweep_base = median(&sweep_cells[0]).as_secs_f64();
    let sweep_rows: Vec<SweepRow> = SWEEP_ARMS
        .iter()
        .zip(&sweep_cells)
        .map(|(&pipelined, samples)| {
            let med = median(samples);
            SweepRow {
                pipelined,
                median: med,
                ratio_vs_alternating: if sweep_base > 0.0 {
                    med.as_secs_f64() / sweep_base
                } else {
                    1.0
                },
            }
        })
        .collect();

    // Three-arm triangle A/B: the app's Probe stratum pops as one wide
    // class over a two-stage join rule, so the arms differ only in how
    // that class meets Gamma — per-tuple nested-loop firing (one
    // indexed probe per tuple per stage), batched delta-join with one
    // hash probe per distinct key (the PR 8 path), and the batched
    // class lowered onto the leapfrog merged-cursor walk (one
    // coordinated index walk per class, the default). Arms are
    // interleaved within each round so all three see the same ambient
    // noise; the `delta_join` section keeps its v3 shape from the
    // first two arms, `wco_join` reports all three.
    #[derive(Clone, Copy, PartialEq)]
    enum TriArm {
        PerTuple,
        HashDj,
        LeapfrogDj,
    }
    const TRI_ARMS: [TriArm; 3] = [TriArm::PerTuple, TriArm::HashDj, TriArm::LeapfrogDj];
    let tri_spec = triangles_spec();
    let tri_config = |ti: usize, arm: TriArm| {
        let mut c = config(ti);
        match arm {
            TriArm::PerTuple => c = c.delta_join_from(usize::MAX),
            TriArm::HashDj => c = c.join_strategy(JoinStrategy::HashProbe),
            TriArm::LeapfrogDj => {} // delta-join + leapfrog are the defaults
        }
        c
    };
    for &arm in &TRI_ARMS {
        run_triangles(tri_spec, tri_config(0, arm)); // warm-up, discarded
    }
    // tri_cells[threads][arm]: the arm loop is innermost so each
    // cell's three arms run back-to-back under the same ambient
    // conditions.
    let mut tri_cells: Vec<Vec<Vec<Duration>>> =
        vec![vec![Vec::with_capacity(runs); TRI_ARMS.len()]; THREADS.len()];
    for _round in 0..runs {
        for (ti, row) in tri_cells.iter_mut().enumerate() {
            for (cell, &arm) in row.iter_mut().zip(&TRI_ARMS) {
                cell.push(run_triangles(tri_spec, tri_config(ti, arm)));
            }
        }
    }
    // One counter run per (threads, arm): the probe/seek counters are
    // plain stats, always collected, so these runs are cheap and stay
    // outside the timing cells.
    struct DjRow {
        threads: usize,
        median_per_tuple: Duration,
        median_delta_join: Duration,
        ratio_dj_vs_pt: f64,
        pt_gamma_probes: u64,
        dj_gamma_probes: u64,
        dj_probes: u64,
        dj_classes: u64,
        dj_build_tuples: u64,
    }
    struct WcoRow {
        threads: usize,
        median_per_tuple: Duration,
        median_hash: Duration,
        median_leapfrog: Duration,
        ratio_lf_vs_pt: f64,
        ratio_lf_vs_hash: f64,
        pt_gamma_probes: u64,
        hash_gamma_probes: u64,
        hash_dj_probes: u64,
        lf_gamma_probes: u64,
        lf_join_seeks: u64,
        lf_cursor_opens: u64,
    }
    let mut dj_rows: Vec<DjRow> = Vec::with_capacity(THREADS.len());
    let mut wco_rows: Vec<WcoRow> = Vec::with_capacity(THREADS.len());
    for (ti, &tri_threads) in THREADS.iter().enumerate() {
        let (_, pt_report) =
            triangles::run_jstar_report(tri_spec, tri_config(ti, TriArm::PerTuple))
                .expect("triangles");
        let (_, hash_report) =
            triangles::run_jstar_report(tri_spec, tri_config(ti, TriArm::HashDj))
                .expect("triangles");
        let (_, lf_report) =
            triangles::run_jstar_report(tri_spec, tri_config(ti, TriArm::LeapfrogDj))
                .expect("triangles");
        assert_eq!(
            pt_report.delta_join_classes, 0,
            "per-tuple arm must not batch"
        );
        assert!(
            hash_report.delta_join_classes > 0 && lf_report.delta_join_classes > 0,
            "delta-join arms must batch"
        );
        assert_eq!(
            lf_report.delta_join_probes, 0,
            "the leapfrog walk must not hash-probe"
        );
        let med_pt = median(&tri_cells[ti][0]);
        let med_hash = median(&tri_cells[ti][1]);
        let med_lf = median(&tri_cells[ti][2]);
        let ratio = |num: Duration, den: Duration| {
            if den.as_secs_f64() > 0.0 {
                num.as_secs_f64() / den.as_secs_f64()
            } else {
                1.0
            }
        };
        dj_rows.push(DjRow {
            threads: tri_threads,
            median_per_tuple: med_pt,
            median_delta_join: med_hash,
            ratio_dj_vs_pt: ratio(med_hash, med_pt),
            pt_gamma_probes: pt_report.gamma_probes,
            dj_gamma_probes: hash_report.gamma_probes,
            dj_probes: hash_report.delta_join_probes,
            dj_classes: hash_report.delta_join_classes,
            dj_build_tuples: hash_report.delta_join_build_tuples,
        });
        wco_rows.push(WcoRow {
            threads: tri_threads,
            median_per_tuple: med_pt,
            median_hash: med_hash,
            median_leapfrog: med_lf,
            ratio_lf_vs_pt: ratio(med_lf, med_pt),
            ratio_lf_vs_hash: ratio(med_lf, med_hash),
            pt_gamma_probes: pt_report.gamma_probes,
            hash_gamma_probes: hash_report.gamma_probes,
            hash_dj_probes: hash_report.delta_join_probes,
            lf_gamma_probes: lf_report.gamma_probes,
            lf_join_seeks: lf_report.join_seeks,
            lf_cursor_opens: lf_report.join_cursor_opens,
        });
    }

    // Delta-join parity on the join-free exhibits: fig8/fig11/fig12
    // have no join-plan rules, so enabling delta-join must cost nothing
    // beyond the scheduler's per-class eligibility check. Matched
    // interleaved pairs at the mid thread count, gated on the median
    // pair ratio like the checkpoint section.
    struct ParityRow {
        workload: &'static str,
        median_per_tuple: Duration,
        median_delta_join: Duration,
        ratio: f64,
    }
    let parity_ti = 1; // 4 threads — the mid cell
    let mut parity_rows: Vec<ParityRow> = Vec::new();
    {
        let parity_config = |dj: bool| {
            let mut c = config(parity_ti);
            if !dj {
                c = c.delta_join_from(usize::MAX);
            }
            c
        };
        let mut measure = |workload: &'static str, f: &mut dyn FnMut(EngineConfig) -> Duration| {
            let mut pt: Vec<Duration> = Vec::with_capacity(runs);
            let mut dj: Vec<Duration> = Vec::with_capacity(runs);
            for _round in 0..runs {
                pt.push(f(parity_config(false)));
                dj.push(f(parity_config(true)));
            }
            let mut ratios: Vec<f64> = pt
                .iter()
                .zip(&dj)
                .filter(|(p, _)| p.as_secs_f64() > 0.0)
                .map(|(p, d)| d.as_secs_f64() / p.as_secs_f64())
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            parity_rows.push(ParityRow {
                workload,
                median_per_tuple: median(&pt),
                median_delta_join: median(&dj),
                ratio: ratios.get(ratios.len() / 2).copied().unwrap_or(1.0),
            });
        };
        measure("fig8_pvwatts", &mut |c| {
            run_pvwatts(&csv, THREADS[parity_ti].max(2), Variant::HashStore, c)
        });
        measure("fig11_matmul", &mut |c| run_matmul(n, &a, &b, c));
        measure("fig12_dijkstra", &mut |c| run_dijkstra(spec, c));
    }

    // Join-strategy parity on the same join-free exhibits: the
    // leapfrog default only changes how *join-plan* classes execute,
    // so on programs with no join rules the strategy knob must be
    // invisible. Matched interleaved pairs (hash then leapfrog within
    // each round), gated on the median pair ratio like the delta-join
    // section above.
    struct WcoParityRow {
        workload: &'static str,
        median_hash: Duration,
        median_leapfrog: Duration,
        ratio: f64,
    }
    let mut wco_parity_rows: Vec<WcoParityRow> = Vec::new();
    {
        let strategy_config = |lf: bool| {
            config(parity_ti).join_strategy(if lf {
                JoinStrategy::Leapfrog
            } else {
                JoinStrategy::HashProbe
            })
        };
        let mut measure = |workload: &'static str, f: &mut dyn FnMut(EngineConfig) -> Duration| {
            let mut hash: Vec<Duration> = Vec::with_capacity(runs);
            let mut lf: Vec<Duration> = Vec::with_capacity(runs);
            for _round in 0..runs {
                hash.push(f(strategy_config(false)));
                lf.push(f(strategy_config(true)));
            }
            let mut ratios: Vec<f64> = hash
                .iter()
                .zip(&lf)
                .filter(|(h, _)| h.as_secs_f64() > 0.0)
                .map(|(h, l)| l.as_secs_f64() / h.as_secs_f64())
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            wco_parity_rows.push(WcoParityRow {
                workload,
                median_hash: median(&hash),
                median_leapfrog: median(&lf),
                ratio: ratios.get(ratios.len() / 2).copied().unwrap_or(1.0),
            });
        };
        measure("fig8_pvwatts", &mut |c| {
            run_pvwatts(&csv, THREADS[parity_ti].max(2), Variant::HashStore, c)
        });
        measure("fig11_matmul", &mut |c| run_matmul(n, &a, &b, c));
        measure("fig12_dijkstra", &mut |c| run_dijkstra(spec, c));
    }

    // Index-cache A/B on the join exhibits: cold (`Off`) rebuilds every
    // column index at every cursor open; warm (`EagerRefresh`) reuses
    // generation-stamped entries and catches up from the claim-journal
    // suffix, with refresh jobs overlapping the maintain phase. Arms
    // interleave within each round; one instrumented run per cell
    // (outside the timing cells) records the hit/catch-up counters the
    // claim rests on.
    #[derive(Clone, Copy)]
    enum CacheArm {
        Cold,
        Warm,
    }
    const CACHE_ARMS: [CacheArm; 2] = [CacheArm::Cold, CacheArm::Warm];
    const CACHE_WORKLOADS: [&str; 2] = ["triangles", "basket"];
    let basket = basket_spec();
    let cache_config = |ti: usize, arm: CacheArm| {
        config(ti).index_cache(match arm {
            CacheArm::Cold => IndexCachePolicy::Off,
            CacheArm::Warm => IndexCachePolicy::EagerRefresh,
        })
    };
    let cache_run = |wi: usize, ti: usize, arm: CacheArm| match wi {
        0 => run_triangles(tri_spec, cache_config(ti, arm)),
        _ => run_basket(basket, cache_config(ti, arm)),
    };
    for wi in 0..CACHE_WORKLOADS.len() {
        for &arm in &CACHE_ARMS {
            cache_run(wi, 0, arm); // warm-up, discarded
        }
    }
    // cache_cells[workload][threads][arm], arms innermost so each pair
    // runs back-to-back under the same ambient conditions.
    let mut cache_cells: Vec<Vec<Vec<Vec<Duration>>>> =
        vec![vec![vec![Vec::with_capacity(runs); CACHE_ARMS.len()]; THREADS.len()]; 2];
    for _round in 0..runs {
        for (wi, table) in cache_cells.iter_mut().enumerate() {
            for (ti, row) in table.iter_mut().enumerate() {
                for (cell, &arm) in row.iter_mut().zip(&CACHE_ARMS) {
                    cell.push(cache_run(wi, ti, arm));
                }
            }
        }
    }
    struct CacheRow {
        workload: &'static str,
        threads: usize,
        median_cold: Duration,
        median_warm: Duration,
        ratio_warm_vs_cold: f64,
        cold_build_tuples: u64,
        warm_hits: u64,
        warm_misses: u64,
        warm_catchup_tuples: u64,
        warm_build_tuples: u64,
        warm_hit_rate: f64,
    }
    let mut cache_rows: Vec<CacheRow> = Vec::with_capacity(CACHE_WORKLOADS.len() * THREADS.len());
    for (wi, &workload) in CACHE_WORKLOADS.iter().enumerate() {
        for (ti, &threads) in THREADS.iter().enumerate() {
            let report_of = |arm: CacheArm| match wi {
                0 => {
                    triangles::run_jstar_report(tri_spec, cache_config(ti, arm))
                        .expect("triangles")
                        .1
                }
                _ => {
                    jstar_apps::basket::run_report(basket, cache_config(ti, arm))
                        .expect("basket")
                        .1
                }
            };
            let cold_report = report_of(CacheArm::Cold);
            let warm_report = report_of(CacheArm::Warm);
            assert_eq!(
                cold_report.index_cache_hits, 0,
                "the Off policy must never hit"
            );
            let med_cold = median(&cache_cells[wi][ti][0]);
            let med_warm = median(&cache_cells[wi][ti][1]);
            cache_rows.push(CacheRow {
                workload,
                threads,
                median_cold: med_cold,
                median_warm: med_warm,
                ratio_warm_vs_cold: if med_cold.as_secs_f64() > 0.0 {
                    med_warm.as_secs_f64() / med_cold.as_secs_f64()
                } else {
                    1.0
                },
                cold_build_tuples: cold_report.index_build_tuples,
                warm_hits: warm_report.index_cache_hits,
                warm_misses: warm_report.index_cache_misses,
                warm_catchup_tuples: warm_report.index_catchup_tuples,
                warm_build_tuples: warm_report.index_build_tuples,
                warm_hit_rate: warm_report.index_cache_hit_rate(),
            });
        }
    }

    // Index-cache parity on the join-free exhibits: fig8/fig11/fig12
    // never open a column cursor, so the cache — stamping, the
    // maintain-phase refresh hook, the eager policy's empty job batches
    // — must cost nothing. Matched interleaved pairs at the mid thread
    // count, gated on the median pair ratio like the delta-join
    // section.
    struct CacheParityRow {
        workload: &'static str,
        median_cold: Duration,
        median_warm: Duration,
        ratio: f64,
    }
    let mut cache_parity_rows: Vec<CacheParityRow> = Vec::new();
    {
        let parity_cache_config = |warm: bool| {
            config(parity_ti).index_cache(if warm {
                IndexCachePolicy::EagerRefresh
            } else {
                IndexCachePolicy::Off
            })
        };
        let mut measure = |workload: &'static str, f: &mut dyn FnMut(EngineConfig) -> Duration| {
            let mut cold: Vec<Duration> = Vec::with_capacity(runs);
            let mut warm: Vec<Duration> = Vec::with_capacity(runs);
            for _round in 0..runs {
                cold.push(f(parity_cache_config(false)));
                warm.push(f(parity_cache_config(true)));
            }
            let mut ratios: Vec<f64> = cold
                .iter()
                .zip(&warm)
                .filter(|(c, _)| c.as_secs_f64() > 0.0)
                .map(|(c, w)| w.as_secs_f64() / c.as_secs_f64())
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            cache_parity_rows.push(CacheParityRow {
                workload,
                median_cold: median(&cold),
                median_warm: median(&warm),
                ratio: ratios.get(ratios.len() / 2).copied().unwrap_or(1.0),
            });
        };
        measure("fig8_pvwatts", &mut |c| {
            run_pvwatts(&csv, THREADS[parity_ti].max(2), Variant::HashStore, c)
        });
        measure("fig11_matmul", &mut |c| run_matmul(n, &a, &b, c));
        measure("fig12_dijkstra", &mut |c| run_dijkstra(spec, c));
    }

    // Checkpoint overhead: fig8 with periodic checkpointing on vs. off,
    // interleaved. The checkpoint path quiesces the Delta queue,
    // serializes every Gamma store and publishes via temp + rename —
    // all on the coordinator — so this ratio is the full durability
    // cost as the user experiences it. fig8 pops exactly two very wide
    // classes, so the interval is 2: one real checkpoint per run (the
    // full-Gamma post-aggregation one) — anything coarser would never
    // fire here and the gate would be vacuous. The section's CSV is a
    // fixed size, deliberately exempt from `JSTAR_BENCH_SCALE`: the
    // true overhead ratio is scale-invariant (checkpoint and run cost
    // both grow with rows), but the *measurement* is not — a scaled-
    // down sub-40ms run is commensurate with one scheduler timeslice,
    // so a single preemption swings a pair ratio by more than the
    // tolerance margin. A multi-hundred-ms run keeps scheduler and
    // pipeline-shape noise well inside the 10% budget and adds only a
    // few seconds to the whole bench.
    const CHECKPOINT_EVERY: u64 = 2;
    let ckpt_rows = 175_200;
    let ckpt_csv = Arc::new(jstar_apps::pvwatts::generate_csv(
        ckpt_rows,
        InputOrder::Chronological,
    ));
    let ckpt_runs = runs.max(9);
    // Checkpoints land on tmpfs when the host has one: the gate
    // guards the engine-side serialization cost, and ext4/overlay
    // commit latency for the same 400 KB image varies ~3x across CI
    // hosts — exactly the noise a regression gate must not inherit.
    let ckpt_base = if std::path::Path::new("/dev/shm").is_dir() {
        std::path::PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let ckpt_dir = ckpt_base.join(format!("jstar-bench-ckpt-{}", std::process::id()));
    let ckpt_threads_idx = 1; // 4 threads — the mid cell
    let ckpt_config = |on: bool| {
        let mut c = EngineConfig::parallel(THREADS[ckpt_threads_idx]);
        c.pool = Some(Arc::clone(&pools[ckpt_threads_idx]));
        if on {
            c = c.checkpoint(&ckpt_dir, CHECKPOINT_EVERY).checkpoint_keep(2);
        }
        c
    };
    let ckpt_run = |on: bool| {
        run_pvwatts(
            &ckpt_csv,
            THREADS[ckpt_threads_idx].max(2),
            Variant::HashStore,
            ckpt_config(on),
        )
    };
    ckpt_run(false); // warm-up, discarded
    ckpt_run(true);
    let mut ckpt_off: Vec<Duration> = Vec::with_capacity(ckpt_runs);
    let mut ckpt_on: Vec<Duration> = Vec::with_capacity(ckpt_runs);
    for _round in 0..ckpt_runs {
        ckpt_off.push(ckpt_run(false));
        ckpt_on.push(ckpt_run(true));
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let ckpt_off_median = median(&ckpt_off);
    let ckpt_on_median = median(&ckpt_on);
    // The gated ratio is the median of the per-round on/off ratios.
    // The arms interleave, so each round is a matched pair taken under
    // the same machine conditions — the pairwise ratio cancels drift
    // (thermal, cache, background load) that a cross-arm median
    // inherits, and the median over rounds discards the occasional
    // lucky-scheduler outlier that makes per-arm minima fragile: one
    // anomalously fast `off` sample shifts a min-based ratio by
    // several points but moves one pair's ratio, not the middle one.
    let mut pair_ratios: Vec<f64> = ckpt_off
        .iter()
        .zip(&ckpt_on)
        .filter(|(off, _)| off.as_secs_f64() > 0.0)
        .map(|(off, on)| on.as_secs_f64() / off.as_secs_f64())
        .collect();
    pair_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let ckpt_ratio = pair_ratios
        .get(pair_ratios.len() / 2)
        .copied()
        .unwrap_or(1.0);

    // Hand-rolled JSON (the workspace deliberately vendors no serde).
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"jstar-hotpath/v6\",\n");
    out.push_str(&format!("  \"scale\": {},\n", json_f(scale())));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    ));
    out.push_str(&format!("  \"runs_per_cell\": {runs},\n"));
    out.push_str("  \"results\": [\n");
    let mut first = true;
    for (wi, workload) in WORKLOADS.iter().enumerate() {
        for (ti, &threads) in THREADS.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let samples = &cells[wi][ti];
            let runs_json: Vec<String> = samples.iter().map(|d| json_f(d.as_secs_f64())).collect();
            out.push_str(&format!(
                "    {{\"workload\": \"{workload}\", \"threads\": {threads}, \
                 \"median_secs\": {}, \"runs_secs\": [{}]}}",
                json_f(median(samples).as_secs_f64()),
                runs_json.join(", ")
            ));
        }
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"dijkstra_drain\": [\n");
    for (i, row) in drain_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"drain_fraction\": {}, \"overlap_fraction\": {}, \
             \"partition_secs\": {}, \"merge_secs\": {}, \"overlap_secs\": {}, \
             \"execute_secs\": {}, \"steps\": {}}}{}\n",
            row.threads,
            json_f(row.drain_fraction),
            json_f(row.overlap_fraction),
            json_f(row.partition_secs),
            json_f(row.merge_secs),
            json_f(row.overlap_secs),
            json_f(row.execute_secs),
            row.steps,
            if i + 1 < drain_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"depth_sweep\": [\n");
    for (i, row) in sweep_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"fig12_dijkstra\", \"threads\": 1, \"pipelined\": {}, \
             \"median_secs\": {}, \"ratio_vs_alternating\": {}}}{}\n",
            row.pipelined,
            json_f(row.median.as_secs_f64()),
            json_f(row.ratio_vs_alternating),
            if i + 1 < sweep_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"delta_join\": [\n");
    for (i, row) in dj_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"triangles\", \"threads\": {}, \
             \"median_per_tuple_secs\": {}, \"median_delta_join_secs\": {}, \
             \"ratio_dj_vs_pt\": {}, \"per_tuple_gamma_probes\": {}, \
             \"delta_join_gamma_probes\": {}, \"delta_join_probes\": {}, \
             \"delta_join_classes\": {}, \"delta_join_build_tuples\": {}}}{}\n",
            row.threads,
            json_f(row.median_per_tuple.as_secs_f64()),
            json_f(row.median_delta_join.as_secs_f64()),
            json_f(row.ratio_dj_vs_pt),
            row.pt_gamma_probes,
            row.dj_gamma_probes,
            row.dj_probes,
            row.dj_classes,
            row.dj_build_tuples,
            if i + 1 < dj_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"wco_join\": [\n");
    for (i, row) in wco_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"triangles\", \"threads\": {}, \
             \"median_per_tuple_secs\": {}, \"median_hash_secs\": {}, \
             \"median_leapfrog_secs\": {}, \"ratio_lf_vs_pt\": {}, \
             \"ratio_lf_vs_hash\": {}, \"per_tuple_gamma_probes\": {}, \
             \"hash_gamma_probes\": {}, \"hash_delta_join_probes\": {}, \
             \"leapfrog_gamma_probes\": {}, \"leapfrog_join_seeks\": {}, \
             \"leapfrog_cursor_opens\": {}}}{}\n",
            row.threads,
            json_f(row.median_per_tuple.as_secs_f64()),
            json_f(row.median_hash.as_secs_f64()),
            json_f(row.median_leapfrog.as_secs_f64()),
            json_f(row.ratio_lf_vs_pt),
            json_f(row.ratio_lf_vs_hash),
            row.pt_gamma_probes,
            row.hash_gamma_probes,
            row.hash_dj_probes,
            row.lf_gamma_probes,
            row.lf_join_seeks,
            row.lf_cursor_opens,
            if i + 1 < wco_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"wco_join_parity\": [\n");
    for (i, row) in wco_parity_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"median_hash_secs\": {}, \
             \"median_leapfrog_secs\": {}, \"ratio_lf_vs_hash\": {}}}{}\n",
            row.workload,
            THREADS[parity_ti],
            json_f(row.median_hash.as_secs_f64()),
            json_f(row.median_leapfrog.as_secs_f64()),
            json_f(row.ratio),
            if i + 1 < wco_parity_rows.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"delta_join_parity\": [\n");
    for (i, row) in parity_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"median_per_tuple_secs\": {}, \
             \"median_delta_join_secs\": {}, \"ratio_dj_vs_pt\": {}}}{}\n",
            row.workload,
            THREADS[parity_ti],
            json_f(row.median_per_tuple.as_secs_f64()),
            json_f(row.median_delta_join.as_secs_f64()),
            json_f(row.ratio),
            if i + 1 < parity_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"index_cache\": [\n");
    for (i, row) in cache_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"median_cold_secs\": {}, \
             \"median_warm_secs\": {}, \"ratio_warm_vs_cold\": {}, \
             \"cold_index_build_tuples\": {}, \"warm_index_cache_hits\": {}, \
             \"warm_index_cache_misses\": {}, \"warm_index_catchup_tuples\": {}, \
             \"warm_index_build_tuples\": {}, \"warm_hit_rate\": {}}}{}\n",
            row.workload,
            row.threads,
            json_f(row.median_cold.as_secs_f64()),
            json_f(row.median_warm.as_secs_f64()),
            json_f(row.ratio_warm_vs_cold),
            row.cold_build_tuples,
            row.warm_hits,
            row.warm_misses,
            row.warm_catchup_tuples,
            row.warm_build_tuples,
            json_f(row.warm_hit_rate),
            if i + 1 < cache_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"index_cache_parity\": [\n");
    for (i, row) in cache_parity_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"median_cold_secs\": {}, \
             \"median_warm_secs\": {}, \"ratio_warm_vs_cold\": {}}}{}\n",
            row.workload,
            THREADS[parity_ti],
            json_f(row.median_cold.as_secs_f64()),
            json_f(row.median_warm.as_secs_f64()),
            json_f(row.ratio),
            if i + 1 < cache_parity_rows.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"checkpoint_overhead\": {{\"workload\": \"fig8_pvwatts\", \"threads\": {}, \
         \"checkpoint_every\": {CHECKPOINT_EVERY}, \"csv_rows\": {ckpt_rows}, \
         \"runs_per_arm\": {ckpt_runs}, \"median_off_secs\": {}, \
         \"median_on_secs\": {}, \"pair_ratios\": [{}], \
         \"ratio_on_vs_off\": {}}}\n",
        THREADS[ckpt_threads_idx],
        json_f(ckpt_off_median.as_secs_f64()),
        json_f(ckpt_on_median.as_secs_f64()),
        pair_ratios
            .iter()
            .map(|r| json_f(*r))
            .collect::<Vec<_>>()
            .join(", "),
        json_f(ckpt_ratio)
    ));
    out.push_str("}\n");

    std::fs::write(&args.out, &out).expect("write BENCH_hotpath.json");
    println!(
        "wrote {} ({} workloads x {} thread counts, {} runs each)",
        args.out,
        WORKLOADS.len(),
        THREADS.len(),
        runs
    );

    if let Some(ceiling) = args.check_drain {
        let worst = drain_rows
            .iter()
            .map(|r| r.drain_fraction)
            .fold(0.0f64, f64::max);
        if worst > ceiling {
            eprintln!(
                "FAIL: fig12 drain fraction {worst:.3} exceeds the {ceiling:.3} ceiling \
                 — the coordinator drain is the bottleneck again"
            );
            std::process::exit(1);
        }
        println!("drain check ok: worst fig12 drain fraction {worst:.3} <= {ceiling:.3}");

        // Depth-sweep parity gate: at 1 thread the pipelined
        // coordinator has no idle workers to exploit, so anything beyond
        // a noise allowance over the alternating loop is pure pipeline
        // overhead. Fail before it ships.
        const SWEEP_TOLERANCE: f64 = 1.30;
        let piped = &sweep_rows[1];
        if piped.ratio_vs_alternating > SWEEP_TOLERANCE {
            eprintln!(
                "FAIL: fig12 single-thread pipelined median {:.4}s is {:.2}x the \
                 alternating loop's {sweep_base:.4}s (tolerance {SWEEP_TOLERANCE:.2}x) — \
                 the pipeline regressed the no-overlap case",
                piped.median.as_secs_f64(),
                piped.ratio_vs_alternating,
            );
            std::process::exit(1);
        }
        println!(
            "depth sweep ok: fig12 1-thread pipelined median is {:.3}x the alternating loop's",
            piped.ratio_vs_alternating
        );

        // Delta-join parity gate: on programs with no join rules, the
        // batched mode must be indistinguishable from per-tuple firing
        // — the scheduler's eligibility check is the only code the mode
        // adds to their hot path, and it must stay free.
        const DJ_TOLERANCE: f64 = 1.10;
        for row in &parity_rows {
            if row.ratio > DJ_TOLERANCE {
                eprintln!(
                    "FAIL: {} in delta-join mode is {:.3}x per-tuple mode (medians {:.4}s vs \
                     {:.4}s, tolerance {DJ_TOLERANCE:.2}x) — mode selection is no longer free \
                     on join-free programs",
                    row.workload,
                    row.ratio,
                    row.median_delta_join.as_secs_f64(),
                    row.median_per_tuple.as_secs_f64(),
                );
                std::process::exit(1);
            }
        }
        let parity: Vec<String> = parity_rows
            .iter()
            .map(|r| format!("{} {:.3}", r.workload, r.ratio))
            .collect();
        println!(
            "delta-join parity ok (pair-ratio medians vs per-tuple): {}",
            parity.join(", ")
        );

        // WCO-join search gate: the leapfrog walk's whole claim is
        // that one coordinated index walk per class searches less than
        // one hash probe per distinct key. The counters are
        // deterministic, so this is exact: at every thread count the
        // leapfrog arm's probes + counted seeks must stay strictly
        // below the hash arm's probes.
        for row in &wco_rows {
            if row.lf_gamma_probes + row.lf_join_seeks >= row.hash_gamma_probes {
                eprintln!(
                    "FAIL: triangles at {} threads — leapfrog gamma_probes {} + join_seeks {} \
                     is not below the hash arm's gamma_probes {} — the merged-cursor walk no \
                     longer searches less than per-key probing",
                    row.threads, row.lf_gamma_probes, row.lf_join_seeks, row.hash_gamma_probes,
                );
                std::process::exit(1);
            }
        }
        let searches: Vec<String> = wco_rows
            .iter()
            .map(|r| {
                format!(
                    "{}t {}+{} < {}",
                    r.threads, r.lf_gamma_probes, r.lf_join_seeks, r.hash_gamma_probes
                )
            })
            .collect();
        println!(
            "wco-join search ok (leapfrog probes+seeks vs hash probes): {}",
            searches.join(", ")
        );

        // Join-strategy parity gate: on programs with no join rules
        // the leapfrog default must be indistinguishable from hash
        // probing — the strategy only selects how join-plan classes
        // execute, and these programs have none.
        for row in &wco_parity_rows {
            if row.ratio > DJ_TOLERANCE {
                eprintln!(
                    "FAIL: {} under the leapfrog strategy is {:.3}x the hash strategy (medians \
                     {:.4}s vs {:.4}s, tolerance {DJ_TOLERANCE:.2}x) — strategy selection is no \
                     longer free on join-free programs",
                    row.workload,
                    row.ratio,
                    row.median_leapfrog.as_secs_f64(),
                    row.median_hash.as_secs_f64(),
                );
                std::process::exit(1);
            }
        }
        let wco_parity: Vec<String> = wco_parity_rows
            .iter()
            .map(|r| format!("{} {:.3}", r.workload, r.ratio))
            .collect();
        println!(
            "wco-join strategy parity ok (pair-ratio medians vs hash): {}",
            wco_parity.join(", ")
        );

        // Index-cache parity gate: on programs that never open a column
        // cursor the cache must be free — generation stamping, the
        // maintain-phase refresh hook and the eager policy's empty job
        // batches are the only code it adds to their hot path.
        const CACHE_TOLERANCE: f64 = 1.05;
        for row in &cache_parity_rows {
            if row.ratio > CACHE_TOLERANCE {
                eprintln!(
                    "FAIL: {} with the warm index cache is {:.3}x the cold run (medians {:.4}s \
                     vs {:.4}s, tolerance {CACHE_TOLERANCE:.2}x) — the index cache is no longer \
                     free on join-free programs",
                    row.workload,
                    row.ratio,
                    row.median_warm.as_secs_f64(),
                    row.median_cold.as_secs_f64(),
                );
                std::process::exit(1);
            }
        }
        let cache_parity: Vec<String> = cache_parity_rows
            .iter()
            .map(|r| format!("{} {:.3}", r.workload, r.ratio))
            .collect();
        println!(
            "index-cache parity ok (pair-ratio medians warm vs cold): {}",
            cache_parity.join(", ")
        );

        // Index-cache effectiveness: the warm arm's whole claim is that
        // cached entries replace rebuilds. Triangles re-opens the Edge
        // index across the Wedge and Probe strata, so its warm run must
        // hit and sort strictly fewer tuples from scratch than cold at
        // every thread count; basket's single wide Order class opens
        // each dimension index exactly once, so the exact bound there
        // is parity — warm must never build *more*. Counters, not
        // wall-clock — deterministic, so the bounds are exact.
        for row in &cache_rows {
            let reopens = row.workload == "triangles";
            let ok = if reopens {
                row.warm_hits > 0 && row.warm_build_tuples < row.cold_build_tuples
            } else {
                row.warm_build_tuples <= row.cold_build_tuples
            };
            if !ok {
                eprintln!(
                    "FAIL: {} at {} threads — warm cache built {} tuples (hits {}) vs the cold \
                     arm's {} — the cache is not replacing index rebuilds",
                    row.workload,
                    row.threads,
                    row.warm_build_tuples,
                    row.warm_hits,
                    row.cold_build_tuples,
                );
                std::process::exit(1);
            }
        }
        let cache_effect: Vec<String> = cache_rows
            .iter()
            .map(|r| {
                format!(
                    "{} {}t {}b vs {}b hit {:.0}%",
                    r.workload,
                    r.threads,
                    r.warm_build_tuples,
                    r.cold_build_tuples,
                    100.0 * r.warm_hit_rate
                )
            })
            .collect();
        println!(
            "index-cache effectiveness ok (warm vs cold build tuples): {}",
            cache_effect.join(", ")
        );

        // Checkpoint-overhead gate: periodic durability must stay a
        // rounding error on the run it protects.
        const CHECKPOINT_TOLERANCE: f64 = 1.10;
        if ckpt_ratio > CHECKPOINT_TOLERANCE {
            eprintln!(
                "FAIL: fig8 with checkpointing every {CHECKPOINT_EVERY} steps is \
                 {ckpt_ratio:.3}x the plain run (medians {:.4}s vs {:.4}s, tolerance \
                 {CHECKPOINT_TOLERANCE:.2}x) — the checkpoint path got expensive",
                ckpt_on_median.as_secs_f64(),
                ckpt_off_median.as_secs_f64(),
            );
            std::process::exit(1);
        }
        println!(
            "checkpoint overhead ok: fig8 on/off ratio {ckpt_ratio:.3} <= {CHECKPOINT_TOLERANCE:.2}"
        );
    }
}
