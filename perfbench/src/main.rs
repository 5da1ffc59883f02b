//! The JStar engine benchmark: one workload per process, run on the
//! default parallel engine with a pool of one worker per hardware
//! thread.
//!
//! ```text
//! perfbench --workload <dijkstra|triangles|pvwatts_durable> --seed <n>
//!           --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! `--trace 0` times untraced iterations for `--seconds` and reports the
//! end-to-end metrics. `--trace 1` alternates untraced and traced
//! iterations (the engine's `record_steps` timers on) and reports the
//! per-layer metrics, marks each count `exact` or `varying` across the
//! traced passes, and writes the spans to `<dir>` as a Chrome trace.
//! Every iteration checks its results against the app's reference; the
//! last stdout line is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, and the exit code is non-zero on any failure.

mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workloads::{Dijkstra, Env, Outcome, PvWattsDurable, Triangles, Workload};

/// Per-layer metrics, their units, and whether the value derives from
/// program counters only (and so can repeat exactly) or from clocks.
const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("program.build_s", "s", Kind::Time),
    ("engine.new_s", "s", Kind::Time),
    ("pool.spawn_s", "s", Kind::Time),
    ("engine.steps", "count", Kind::Count),
    ("engine.step_us_p50", "us", Kind::Time),
    ("engine.step_us_max", "us", Kind::Time),
    ("engine.unattributed_s", "s", Kind::Time),
    ("engine.absorb_s", "s", Kind::Time),
    ("engine.absorb.partition_s", "s", Kind::Time),
    ("engine.absorb.merge_s", "s", Kind::Time),
    ("engine.overlap_s", "s", Kind::Time),
    ("engine.overlap_frac", "ratio", Kind::Time),
    ("engine.execute_s", "s", Kind::Time),
    ("engine.inline_classes", "count", Kind::Count),
    ("engine.forked_classes", "count", Kind::Count),
    ("engine.mean_class_size", "tuples", Kind::Count),
    ("delta.tuples_processed", "count", Kind::Count),
    ("delta.dedup_ratio", "ratio", Kind::Count),
    ("gamma.fresh", "count", Kind::Count),
    ("gamma.dups", "count", Kind::Count),
    ("gamma.fresh_ratio", "ratio", Kind::Count),
    ("gamma.queries", "count", Kind::Count),
    ("gamma.indexed_ratio", "ratio", Kind::Count),
    ("gamma.probes", "count", Kind::Count),
    ("index.cursor_opens", "count", Kind::Count),
    ("index.seeks", "count", Kind::Count),
    ("index.cache_hits", "count", Kind::Count),
    ("index.cache_misses", "count", Kind::Count),
    ("index.hit_rate", "ratio", Kind::Count),
    ("index.build_tuples", "count", Kind::Count),
    ("index.catchup_tuples", "count", Kind::Count),
    ("rule.delta_join_classes", "count", Kind::Count),
    ("rule.delta_join_probes", "count", Kind::Count),
    ("rule.delta_join_build_tuples", "count", Kind::Count),
    ("relation.query_s", "s", Kind::Time),
    ("persist.checkpoint_s", "s", Kind::Time),
    ("persist.checkpoints", "count", Kind::Count),
    ("persist.snapshot_bytes", "B", Kind::Count),
    ("persist.restore_s", "s", Kind::Time),
    ("persist.resume_run_s", "s", Kind::Time),
    ("csv.parse_s", "s", Kind::Time),
    ("csv.mb_per_s", "MB/s", Kind::Time),
    ("trace.e2e_s", "s", Kind::Time),
    ("trace.overhead_frac", "ratio", Kind::Time),
    ("trace.residual_frac", "ratio", Kind::Time),
];

/// Builds the workload for one input index.
type Make<'a> = dyn Fn(u64) -> Box<dyn Workload> + 'a;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Time,
    Count,
}

/// Untimed iterations before measuring: caches, allocator and pool warm.
const WARM_UP: usize = 1;
/// `run_s_tail` needs ten samples beyond it, plus the one it reads.
const MIN_SAMPLES: usize = 11;
/// Traced passes compared for count stability.
const MIN_TRACED: usize = 2;
/// Largest share of the traced end-to-end time the spans may leave
/// unaccounted.
const MAX_RESIDUAL: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace, mut out) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--out" => out = Some(PathBuf::from(&value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            out: out.ok_or("--out is required")?,
        })
    }
}

/// Attempts and failures over every iteration of the process.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, run: u32, o: &Outcome) {
        self.attempted += o.attempted;
        self.failures
            .extend(o.failures.iter().map(|f| format!("iteration {run}: {f}")));
    }
}

/// The median; 0 for no samples (a run that took no steps).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it, and
/// the percentile it sits at.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = v.len() - 11;
    (v[i], 100.0 * (i + 1) as f64 / v.len() as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or(format!("unreadable {line}"))?;
    Ok(kib / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the machine, from the
/// `cpu` line of `/proc/stat`; `None` where that is unreadable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Timed iterations for `seconds`, each on inputs of its own: the
/// end-to-end metrics are medians over many inputs drawn from the seed,
/// so they do not hinge on one random graph.
fn timed(
    make: &Make,
    env: &Env,
    args: &Args,
    tally: &mut Tally,
) -> Vec<(String, f64, &'static str)> {
    let mut tr = Tracer::new();
    let mut samples: Vec<Outcome> = Vec::new();
    let start = Instant::now();
    let mut run = WARM_UP as u32;
    while start.elapsed().as_secs_f64() < args.seconds || samples.len() < MIN_SAMPLES {
        let o = make(u64::from(run)).iterate(env, &mut tr, run, false);
        tally.add(run, &o);
        samples.push(o);
        run += 1;
    }
    let col = |f: fn(&Outcome) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let runs = col(|o| o.run_s);
    let (tail_s, pct) = tail(&runs);
    println!(
        "samples: {} iterations in {:.1} s; run_s_tail is p{pct:.1} of {} runs, 10 beyond it",
        samples.len(),
        start.elapsed().as_secs_f64(),
        runs.len()
    );
    let listed: Vec<String> = runs.iter().map(|r| format!("{r:.4}")).collect();
    println!("run_s samples: {}", listed.join(" "));
    vec![
        ("run_s".into(), median(&runs), "s"),
        ("run_s_tail".into(), tail_s, "s"),
        ("query_s".into(), median(&col(|o| o.query_s)), "s"),
        ("recover_s".into(), median(&col(|o| o.recover_s)), "s"),
        ("setup_s".into(), median(&col(Outcome::setup_s)), "s"),
    ]
}

/// Untraced and traced iterations alternating for `seconds`, all on the
/// same inputs: the per-layer metrics, with count stability and span
/// reconciliation.
fn traced(
    wl: &dyn Workload,
    env: &Env,
    args: &Args,
    spawn_s: f64,
    tally: &mut Tally,
) -> Vec<(String, f64, &'static str)> {
    let mut tr = Tracer::new();
    let (mut untraced_runs, mut passes) = (Vec::new(), Vec::<Outcome>::new());
    let start = Instant::now();
    let mut run = WARM_UP as u32;
    while start.elapsed().as_secs_f64() < args.seconds || passes.len() < MIN_TRACED {
        let u = wl.iterate(env, &mut tr, run, false);
        tally.add(run, &u);
        untraced_runs.push(u.run_s);
        run += 1;

        let mut t = wl.iterate(env, &mut tr, run, true);
        let e2e = tr.spans[t.root].secs();
        let residual = (e2e - tr.leaf_sum(t.root)) / e2e;
        t.attempted += 1;
        if residual.abs() > MAX_RESIDUAL {
            t.failures.push(format!(
                "spans leave {residual:.4} of the traced time unaccounted"
            ));
        }
        let (build_s, new_s, query_s) = (t.build_s, t.new_s, t.query_s);
        t.layers.extend([
            ("program.build_s", build_s),
            ("engine.new_s", new_s),
            ("relation.query_s", query_s),
            ("pool.spawn_s", spawn_s),
            ("trace.e2e_s", e2e),
            ("trace.residual_frac", residual),
        ]);
        tally.add(run, &t);
        passes.push(t);
        run += 1;
    }
    let traced_run = median(&passes.iter().map(|o| o.run_s).collect::<Vec<_>>());
    let overhead = traced_run / median(&untraced_runs) - 1.0;

    let path = args
        .out
        .join(format!("trace_{}_seed{}.json", args.workload, args.seed));
    match std::fs::write(&path, tr.to_chrome_json()) {
        Ok(()) => println!("trace: {} spans in {}", tr.spans.len(), path.display()),
        Err(e) => tally
            .failures
            .push(format!("writing {}: {e}", path.display())),
    }
    println!(
        "traced passes: {} (traced run {traced_run:.4} s vs untraced {:.4} s)",
        passes.len(),
        median(&untraced_runs)
    );

    let mut out = Vec::new();
    for &(name, unit, kind) in PER_LAYER {
        let values: Vec<f64> = if name == "trace.overhead_frac" {
            vec![overhead]
        } else {
            passes
                .iter()
                .map(|o| {
                    let found: Vec<f64> = o
                        .layers
                        .iter()
                        .filter(|l| l.0 == name)
                        .map(|l| l.1)
                        .collect();
                    assert_eq!(
                        found.len(),
                        1,
                        "layer metric {name} set {} times",
                        found.len()
                    );
                    found[0]
                })
                .collect()
        };
        if kind == Kind::Count {
            let exact = values.iter().all(|v| *v == values[0]);
            println!(
                "count {name}: {} over {} traced passes",
                if exact { "exact" } else { "varying" },
                values.len()
            );
        }
        out.push((name.to_string(), median(&values), unit));
    }
    for o in &passes {
        for (name, _) in &o.layers {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == *name),
                "layer metric {name} is not in the metric table"
            );
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: creating {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let ckpt = args.out.join(format!("ckpt-{}", std::process::id()));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spawn = Instant::now();
    let pool = Arc::new(jstar_pool::ThreadPool::new(threads));
    let spawn_s = spawn.elapsed().as_secs_f64();
    let env = Env { pool };

    // Iteration `i` runs on inputs generated from (seed, i), with the
    // reference computed from the same inputs.
    let make = |input: u64| -> Box<dyn Workload> {
        let seed = workloads::derive(args.seed, input);
        match args.workload.as_str() {
            "dijkstra" => Box::new(Dijkstra::new(seed)),
            "triangles" => Box::new(Triangles::new(seed)),
            _ => Box::new(PvWattsDurable::new(seed, ckpt.clone())),
        }
    };
    if !["dijkstra", "triangles", "pvwatts_durable"].contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    }
    let prep = Instant::now();
    let first = make(0);
    println!(
        "perfbench workload={} seed={} trace={} nproc={threads} pool_workers={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        env.pool.num_threads()
    );
    println!(
        "inputs of iteration 0: {} (generated with reference in {:.2} s)",
        first.describe(),
        prep.elapsed().as_secs_f64()
    );

    let ticks_at_start = cpu_ticks();
    let mut tally = Tally::default();
    let mut warm = Tracer::new();
    for run in 0..WARM_UP as u32 {
        let o = first.iterate(&env, &mut warm, run, false);
        tally.add(run, &o);
    }
    // Peak memory of one process that generated the inputs, computed
    // the reference and ran the workload once. Later iterations would
    // only add allocator retention, which grows with the sample count.
    let rss = peak_rss_mib();
    let metrics = if args.trace {
        traced(&*first, &env, &args, spawn_s, &mut tally)
    } else {
        let mut m = timed(&make, &env, &args, &mut tally);
        m.push((
            "peak_rss_mb".into(),
            rss.unwrap_or_else(|e| {
                tally.failures.push(format!("peak_rss_mb: {e}"));
                f64::NAN
            }),
            "MiB",
        ));
        m
    };
    let _ = std::fs::remove_dir_all(&ckpt);

    // Time the hypervisor gave to other guests: on a shared host it
    // explains a slow run that the engine did not cause.
    if let (Some(a), Some(b)) = (ticks_at_start, cpu_ticks()) {
        let share = (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64;
        println!(
            "cpu steal during the run: {:.1}% of machine CPU time",
            100.0 * share
        );
    }
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            tally
                .failures
                .push(format!("{name} is not a finite number"));
        }
        println!("{name:<30} {value:>16.6} {unit}");
    }
    let failed = tally.failures.len() as u64;
    let attempted = tally.attempted.max(failed).max(1);
    println!(
        "failed_frac {} ratio ({failed} of {attempted} runs, queries and recoveries)",
        failed as f64 / attempted as f64
    );
    for f in &tally.failures {
        println!("FAILED {f}");
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    json.push_str("}}");
    println!("{json}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
