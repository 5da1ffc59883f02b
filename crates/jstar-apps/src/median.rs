//! Median finding — §6.6, Fig. 13.
//!
//! "Unlike most JStar programs ... this program uses a more explicitly
//! parallel algorithm. It chooses a global pivot value, divides the array
//! into N consecutive regions, partitions each of those regions using the
//! pivot value (similar to a Quicksort) and reports the size of those
//! partitions back to a central controller. The controller then repeats
//! this process (each time focusing on the partitions that must contain
//! the median value) until only one value is left in the partition, which
//! is the median."
//!
//! The `Data` table (`table Data(int iter, int index -> double value)
//! orderby (Int, seq iter, Data, seq index)`) uses the paper's custom
//! store: "we wrote a custom subclass that stored all the values in a 2D
//! array: `double[2][100000000]`, and used iter modulo 2 as the index for
//! the outer dimension" — the combination of the native-arrays
//! optimisation and a two-generation garbage-collection optimisation.
//!
//! Control flow is pure JStar: per iteration, a `Ctl` tuple fans out
//! `PartReq` region tasks (one `par` equivalence class — the parallel
//! phase), each task three-way-partitions its segment into the next row
//! and reports a `Res` tuple, and a `Collect` tuple aggregates the counts
//! to decide which side holds the k-th element. Stage strata
//! (`Seg < Ctl < Req < Res < Col`) order the phases within an iteration;
//! the `iter` timestamp orders iterations.

use jstar_core::gamma::{InsertOutcome, TableStore};
use jstar_core::jstar_table;
use jstar_core::prelude::*;
use std::any::Any;
use std::cell::UnsafeCell;
use std::sync::Arc;

/// When the active element count drops to this, the controller gathers and
/// sorts directly ("until only one value is left", loosely).
const DIRECT_THRESHOLD: usize = 64;

jstar_table! {
    /// §6.6's `table Data(int iter, int index -> double value)`, held in
    /// the two-row native array store. The paper orders it
    /// `(Int, seq iter, Data, seq index)`; here the trailing `seq index`
    /// is dropped — Data tuples never trigger rules (the store absorbs
    /// them directly), so only the `iter` generation matters for
    /// causality.
    #[derive(Copy)]
    pub Data(int iter, int index -> double value)
        orderby (Int, seq iter, DataS)
}

jstar_table! {
    /// One active segment `[lo, hi)` of a region in generation `iter`.
    #[derive(Copy, Eq)]
    pub Seg(int iter, int region -> int lo, int hi)
        orderby (Int, seq iter, SegS)
}

jstar_table! {
    /// The per-iteration controller state: which rank is sought.
    #[derive(Copy, Eq)]
    pub Ctl(int iter -> int k)
        orderby (Int, seq iter, CtlS)
}

jstar_table! {
    /// One partition task — the parallel phase (`par region`).
    #[derive(Copy)]
    pub PartReq(int iter, int region -> int lo, int hi, double pivot)
        orderby (Int, seq iter, ReqS, par region)
}

jstar_table! {
    /// One region's partition-size report.
    #[derive(Copy, Eq)]
    pub Res(int iter, int region -> int less, int eq)
        orderby (Int, seq iter, ResS)
}

jstar_table! {
    /// The per-iteration collection trigger (set semantics dedups the
    /// one-per-task copies).
    #[derive(Copy, Eq)]
    pub Collect(int iter)
        orderby (Int, seq iter, ColS)
}

jstar_table! {
    /// The answer.
    #[derive(Copy)]
    pub MedianResult(double value) orderby (Ans)
}

/// The two-row native array store for the `Data` table.
///
/// Row `iter % 2` holds generation `iter`; partition tasks write disjoint
/// segments of row `(iter+1) % 2`, which is what makes the unsynchronised
/// interior mutability sound (and is exactly the paper's
/// `double[2][100000000]` design).
pub struct MedianArrayStore {
    def: Arc<TableDef>,
    rows: [Box<[UnsafeCell<f64>]>; 2],
}

// SAFETY: within one engine step, tasks write disjoint [lo, hi) segments
// of the inactive row; reads of the active row happen in later steps,
// ordered by the causality barrier between Req and the next iteration.
unsafe impl Send for MedianArrayStore {}
unsafe impl Sync for MedianArrayStore {}

impl MedianArrayStore {
    pub fn new(def: Arc<TableDef>, data: &[f64]) -> Self {
        let row0: Box<[UnsafeCell<f64>]> = data.iter().map(|&v| UnsafeCell::new(v)).collect();
        let row1: Box<[UnsafeCell<f64>]> = data.iter().map(|_| UnsafeCell::new(0.0)).collect();
        MedianArrayStore {
            def,
            rows: [row0, row1],
        }
    }

    /// Store factory capturing the input array.
    pub fn factory(data: Arc<Vec<f64>>) -> StoreKind {
        StoreKind::Custom(Arc::new(move |def| {
            Arc::new(MedianArrayStore::new(def, &data)) as Arc<dyn TableStore>
        }))
    }

    /// Number of elements per row.
    pub fn len_row(&self) -> usize {
        self.rows[0].len()
    }

    /// Reads one element of generation `iter`.
    pub fn read(&self, iter: i64, index: usize) -> f64 {
        let row = &self.rows[(iter % 2) as usize];
        // SAFETY: reads target the stable generation row (see type docs).
        unsafe { *row[index].get() }
    }

    /// Three-way partition of `[lo, hi)` from generation `iter` into
    /// generation `iter + 1`, laid out as `[less | equal | greater]` within
    /// the same span. Returns `(less, equal)` counts.
    pub fn partition3(&self, iter: i64, lo: usize, hi: usize, pivot: f64) -> (usize, usize) {
        let src_row = &self.rows[(iter % 2) as usize];
        let dst_row = &self.rows[((iter + 1) % 2) as usize];
        let mut less = 0usize;
        let mut greater_end = hi - lo; // fill greaters from the back
        let mut equal = 0usize;
        // First pass: write less-than values forward and greater values
        // backward into a scratch layout, counting equals.
        // SAFETY: [lo, hi) of dst is owned exclusively by this task.
        unsafe {
            for i in lo..hi {
                let v = *src_row[i].get();
                if v < pivot {
                    *dst_row[lo + less].get() = v;
                    less += 1;
                } else if v > pivot {
                    greater_end -= 1;
                    *dst_row[lo + greater_end].get() = v;
                } else {
                    equal += 1;
                }
            }
            // Middle block: `equal` copies of the pivot.
            for i in 0..equal {
                *dst_row[lo + less + i].get() = pivot;
            }
            // The backward-written greater block is reversed relative to
            // input order; order within a partition is irrelevant to the
            // algorithm.
        }
        (less, equal)
    }

    /// Gathers the live elements of generation `iter` across segments.
    pub fn gather(&self, iter: i64, segments: &[(usize, usize)]) -> Vec<f64> {
        let mut out = Vec::new();
        for &(lo, hi) in segments {
            for i in lo..hi {
                out.push(self.read(iter, i));
            }
        }
        out
    }

    /// The first element of the first non-empty segment — the pivot choice.
    pub fn first_of(&self, iter: i64, segments: &[(usize, usize)]) -> Option<f64> {
        segments
            .iter()
            .find(|&&(lo, hi)| hi > lo)
            .map(|&(lo, _)| self.read(iter, lo))
    }
}

impl TableStore for MedianArrayStore {
    fn insert(&self, t: Tuple) -> InsertOutcome {
        // table Data(int iter, int index -> double value) — decoded
        // through the typed relation so the layout lives in one place.
        let d = Data::from_tuple(&t);
        let row = &self.rows[(d.iter % 2) as usize];
        // SAFETY: inserts for generation `iter` come from tasks that own
        // disjoint [lo, hi) index spans (see the Send/Sync rationale on
        // the type), so no two writers alias this element.
        unsafe { *row[d.index as usize].get() = d.value };
        InsertOutcome::Fresh
    }

    fn contains(&self, t: &Tuple) -> bool {
        let d = Data::from_tuple(t);
        self.read(d.iter, d.index as usize) == d.value
    }

    fn len(&self) -> usize {
        2 * self.rows[0].len()
    }

    fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
        for iter in 0..2i64 {
            for index in 0..self.rows[0].len() {
                let t = Tuple::new(
                    self.def.id,
                    Data {
                        iter,
                        index: index as i64,
                        value: self.read(iter, index),
                    }
                    .into_values(),
                );
                if !f(&t) {
                    return;
                }
            }
        }
    }

    fn retain(&self, _keep: &dyn Fn(&Tuple) -> bool) {
        // The two-generation scheme *is* the lifetime policy: only rows
        // iter%2 and (iter+1)%2 ever exist.
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The built program plus handles.
pub struct MedianApp {
    pub program: Arc<Program>,
    pub data: TableId,
    pub result: TableId,
}

/// Builds the median program over `data`, with `regions` parallel
/// partition tasks per iteration.
pub fn build_program(data_len: usize, regions: usize) -> MedianApp {
    assert!(data_len >= 1);
    let regions = regions.clamp(1, data_len);
    let mut p = ProgramBuilder::new();

    // The typed declarations above carry the schemas; the Data relation
    // is held in the custom two-row array store.
    let data_t = p.relation::<Data>().id();
    let _seg = p.relation::<Seg>().id();
    let _ctl = p.relation::<Ctl>().id();
    let _part_req = p.relation::<PartReq>().id();
    let _res = p.relation::<Res>().id();
    let _collect = p.relation::<Collect>().id();
    let result = p.relation::<MedianResult>().id();
    // Stage ordering within an iteration, and the final answer last.
    p.order(&["SegS", "CtlS", "ReqS", "ResS", "ColS"]);
    p.order(&["DataS", "CtlS"]);
    p.order(&["Int", "Ans"]);

    // Controller: fan out one PartReq per active segment, or finish
    // directly when few elements remain.
    let ctl_model = {
        let mut cx = ModelCtx::new();
        let same_iter = cx.out("iter").eq_(&cx.trig("iter"));
        let seg_q = cx.q("iter").eq_(&cx.trig("iter"));
        CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![
                PutModel {
                    out_table: "PartReq".into(),
                    guard: vec![],
                    bindings: same_iter.clone(),
                    label: "fan out partition tasks".into(),
                },
                PutModel {
                    out_table: "MedianResult".into(),
                    guard: vec![],
                    bindings: vec![],
                    label: "direct answer".into(),
                },
            ],
            queries: vec![QueryModel {
                q_table: "Seg".into(),
                guard: vec![],
                bindings: seg_q,
                label: "read segments".into(),
            }],
        }
    };
    p.rule_rel("control", move |ctx, t: Ctl| {
        let (iter, k) = (t.iter, t.k as usize);
        let mut segments: Vec<(usize, usize)> = Vec::new();
        ctx.for_each_rel(Seg::query().eq(Seg::iter, iter), |s: Seg| {
            segments.push((s.lo as usize, s.hi as usize));
            true
        });
        segments.sort();
        let store = ctx.store(ctx.rel::<Data>().id());
        let arr = store
            .as_any()
            .downcast_ref::<MedianArrayStore>()
            .expect("Data uses MedianArrayStore");
        let total: usize = segments.iter().map(|&(lo, hi)| hi - lo).sum();
        if total <= DIRECT_THRESHOLD {
            // Gather, sort, answer.
            let mut vals = arr.gather(iter, &segments);
            vals.sort_by(f64::total_cmp);
            ctx.put_rel(MedianResult { value: vals[k] });
            return;
        }
        let pivot = arr.first_of(iter, &segments).expect("non-empty");
        for (region, &(lo, hi)) in segments.iter().enumerate() {
            ctx.put_rel(PartReq {
                iter,
                region: region as i64,
                lo: lo as i64,
                hi: hi as i64,
                pivot,
            });
        }
    })
    .model(ctl_model);

    // Partition task: the parallel phase.
    let part_model = {
        let mut cx = ModelCtx::new();
        let same_iter = cx.out("iter").eq_(&cx.trig("iter"));
        CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![
                PutModel {
                    out_table: "Res".into(),
                    guard: vec![],
                    bindings: same_iter.clone(),
                    label: "report partition sizes".into(),
                },
                PutModel {
                    out_table: "Collect".into(),
                    guard: vec![],
                    bindings: same_iter,
                    label: "schedule collection".into(),
                },
            ],
            queries: vec![],
        }
    };
    p.rule_rel("partition", move |ctx, t: PartReq| {
        let (lo, hi) = (t.lo as usize, t.hi as usize);
        let store = ctx.store(ctx.rel::<Data>().id());
        let arr = store
            .as_any()
            .downcast_ref::<MedianArrayStore>()
            .expect("Data uses MedianArrayStore");
        let (less, eq) = if hi > lo {
            arr.partition3(t.iter, lo, hi, t.pivot)
        } else {
            (0, 0)
        };
        ctx.put_rel(Res {
            iter: t.iter,
            region: t.region,
            less: less as i64,
            eq: eq as i64,
        });
        // One Collect per iteration (set semantics dedups the copies).
        ctx.put_rel(Collect { iter: t.iter });
    })
    .model(part_model);

    // Collector: aggregate the region reports and recurse on the side
    // containing the k-th element.
    let col_model = {
        let mut cx = ModelCtx::new();
        let next_iter = cx.out("iter").eq_(&(cx.trig("iter") + 1));
        let same_iter_q = |cx: &mut ModelCtx| cx.q("iter").eq_(&cx.trig("iter"));
        let q_res = same_iter_q(&mut cx);
        let q_seg = same_iter_q(&mut cx);
        let q_ctl = same_iter_q(&mut cx);
        let q_req = same_iter_q(&mut cx);
        CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![
                PutModel {
                    out_table: "Seg".into(),
                    guard: vec![],
                    bindings: next_iter.clone(),
                    label: "next generation segments".into(),
                },
                PutModel {
                    out_table: "Ctl".into(),
                    guard: vec![],
                    bindings: next_iter,
                    label: "next controller".into(),
                },
                PutModel {
                    out_table: "MedianResult".into(),
                    guard: vec![],
                    bindings: vec![],
                    label: "answer is the pivot".into(),
                },
            ],
            queries: vec![
                QueryModel {
                    q_table: "Res".into(),
                    guard: vec![],
                    bindings: q_res,
                    label: "aggregate partition sizes".into(),
                },
                QueryModel {
                    q_table: "Seg".into(),
                    guard: vec![],
                    bindings: q_seg,
                    label: "segment bounds".into(),
                },
                QueryModel {
                    q_table: "Ctl".into(),
                    guard: vec![],
                    bindings: q_ctl,
                    label: "current k".into(),
                },
                QueryModel {
                    q_table: "PartReq".into(),
                    guard: vec![],
                    bindings: q_req,
                    label: "current pivot".into(),
                },
            ],
        }
    };
    p.rule_rel("collect", move |ctx, t: Collect| {
        let iter = t.iter;
        // Aggregate the per-region reports, in region order.
        let mut rows: Vec<(i64, usize, usize, usize, usize)> = Vec::new(); // region, lo, hi, less, eq
        ctx.for_each_rel(Seg::query().eq(Seg::iter, iter), |s: Seg| {
            rows.push((s.region, s.lo as usize, s.hi as usize, 0, 0));
            true
        });
        rows.sort();
        ctx.for_each_rel(Res::query().eq(Res::iter, iter), |r: Res| {
            if let Some(row) = rows.iter_mut().find(|row| row.0 == r.region) {
                row.3 = r.less as usize;
                row.4 = r.eq as usize;
            }
            true
        });
        let k = ctx
            .get_uniq_rel(Ctl::query().eq(Ctl::iter, iter))
            .expect("controller exists")
            .k as usize;
        let pivot = ctx
            .get_uniq_rel(PartReq::query().eq(PartReq::iter, iter))
            .expect("partition request exists")
            .pivot;
        let total_less: usize = rows.iter().map(|r| r.3).sum();
        let total_eq: usize = rows.iter().map(|r| r.4).sum();

        if k >= total_less && k < total_less + total_eq {
            // The k-th element equals the pivot.
            ctx.put_rel(MedianResult { value: pivot });
            return;
        }
        let (next_k, pick_less) = if k < total_less {
            (k, true)
        } else {
            (k - total_less - total_eq, false)
        };
        for &(region, lo, hi, less, eq) in &rows {
            let (nlo, nhi) = if pick_less {
                (lo, lo + less)
            } else {
                (lo + less + eq, hi)
            };
            ctx.put_rel(Seg {
                iter: iter + 1,
                region,
                lo: nlo as i64,
                hi: nhi as i64,
            });
        }
        ctx.put_rel(Ctl {
            iter: iter + 1,
            k: next_k as i64,
        });
    })
    .model(col_model);

    // Initial segments (N consecutive regions) and the first controller.
    let k = (data_len - 1) / 2; // lower median
    let per = data_len.div_ceil(regions);
    for region in 0..regions {
        let lo = region * per;
        let hi = ((region + 1) * per).min(data_len);
        p.put_rel(Seg {
            iter: 0,
            region: region as i64,
            lo: lo.min(data_len) as i64,
            hi: hi as i64,
        });
    }
    p.put_rel(Ctl {
        iter: 0,
        k: k as i64,
    });

    MedianApp {
        program: Arc::new(p.build().expect("median program builds")),
        data: data_t,
        result,
    }
}

/// Runs the JStar median program. Returns the lower median.
pub fn run_jstar(data: Arc<Vec<f64>>, regions: usize, config: EngineConfig) -> Result<f64> {
    run_jstar_report(data, regions, config).map(|(m, _)| m)
}

/// Like [`run_jstar`], but also returns the engine's [`RunReport`] so
/// the benches can read pipeline and scheduling counters.
pub fn run_jstar_report(
    data: Arc<Vec<f64>>,
    regions: usize,
    config: EngineConfig,
) -> Result<(f64, RunReport)> {
    let app = build_program(data.len(), regions);
    let config = config.store(app.data, MedianArrayStore::factory(data));
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    let report = engine.run()?;
    let results = engine.collect_rel(MedianResult::query());
    match results.first() {
        Some(r) => Ok((r.value, report)),
        None => Err(JStarError::Other(
            "median program produced no result".into(),
        )),
    }
}

/// Baseline 1 — full sort (the paper's Java version "uses `Arrays.sort` (a
/// double-pivot quicksort) to find the median").
pub fn median_by_sort(data: &[f64]) -> f64 {
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Baseline 2 — quickselect (the paper's JStar-side idea: "a
/// median-specific variant of quicksort that partitions the whole array,
/// but then recurses only into the half of the array that contains the
/// median").
pub fn median_by_quickselect(data: &[f64]) -> f64 {
    let mut v = data.to_vec();
    let mut k = (v.len() - 1) / 2;
    let mut len = v.len();
    loop {
        let active = &mut v[..len];
        if active.len() <= 8 {
            active.sort_by(f64::total_cmp);
            return active[k];
        }
        let pivot = active[active.len() / 2];
        let less = active.iter().filter(|&&x| x < pivot).count();
        let eq = active.iter().filter(|&&x| x == pivot).count();
        if k >= less && k < less + eq {
            return pivot;
        }
        // Keep only the half containing the k-th element, compacted to the
        // front of the working buffer ("recurses only into the half of the
        // array that contains the median").
        let keep: Vec<f64> = if k < less {
            active.iter().copied().filter(|&x| x < pivot).collect()
        } else {
            k -= less + eq;
            active.iter().copied().filter(|&x| x > pivot).collect()
        };
        len = keep.len();
        v[..len].copy_from_slice(&keep);
    }
}

/// Deterministic random data.
pub fn gen_data(n: usize, seed: u64) -> Vec<f64> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_passes_strict_validation() {
        let app = build_program(1000, 4);
        app.program.validate_strict().unwrap();
    }

    #[test]
    fn baselines_agree() {
        for n in [1, 2, 5, 64, 65, 1001, 5000] {
            let data = gen_data(n, n as u64);
            assert_eq!(
                median_by_sort(&data),
                median_by_quickselect(&data),
                "n = {n}"
            );
        }
    }

    #[test]
    fn jstar_matches_sort_sequential() {
        for (n, regions) in [(100, 1), (1000, 4), (4097, 7)] {
            let data = Arc::new(gen_data(n, 99 + n as u64));
            let want = median_by_sort(&data);
            let got = run_jstar(Arc::clone(&data), regions, EngineConfig::sequential()).unwrap();
            assert_eq!(got, want, "n={n} regions={regions}");
        }
    }

    #[test]
    fn jstar_matches_sort_parallel() {
        let data = Arc::new(gen_data(10_000, 7));
        let want = median_by_sort(&data);
        for threads in [2, 4] {
            let got = run_jstar(Arc::clone(&data), 8, EngineConfig::parallel(threads)).unwrap();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn duplicate_heavy_data() {
        // Many equal values: the eq-block termination path must fire.
        let mut data = vec![5.0f64; 500];
        data.extend(gen_data(500, 3));
        let data = Arc::new(data);
        let want = median_by_sort(&data);
        let got = run_jstar(Arc::clone(&data), 4, EngineConfig::sequential()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn tiny_inputs_direct_path() {
        for n in [1usize, 2, 3, 63, 64] {
            let data = Arc::new(gen_data(n, n as u64 * 13));
            let want = median_by_sort(&data);
            let got = run_jstar(Arc::clone(&data), 4, EngineConfig::sequential()).unwrap();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn already_sorted_data() {
        let data: Arc<Vec<f64>> = Arc::new((0..2000).map(|i| i as f64).collect());
        let got = run_jstar(Arc::clone(&data), 4, EngineConfig::sequential()).unwrap();
        assert_eq!(got, 999.5_f64.floor());
    }

    #[test]
    fn partition3_is_a_correct_three_way_partition() {
        let def = Arc::new(
            jstar_core::schema::TableDefBuilder::standalone("Data")
                .col_int("iter")
                .col_int("index")
                .col_double("value")
                .key(2)
                .orderby(&[strat("Int"), seq("iter"), strat("DataS")])
                .build_def(TableId(0)),
        );
        let data = gen_data(100, 5);
        let store = MedianArrayStore::new(def, &data);
        let pivot = data[50];
        let (less, eq) = store.partition3(0, 10, 90, pivot);
        let expect_less = data[10..90].iter().filter(|&&x| x < pivot).count();
        let expect_eq = data[10..90].iter().filter(|&&x| x == pivot).count();
        assert_eq!((less, eq), (expect_less, expect_eq));
        // Row 1 layout: [less | eq | greater] within [10, 90).
        for i in 10..10 + less {
            assert!(store.read(1, i) < pivot);
        }
        for i in 10 + less..10 + less + eq {
            assert_eq!(store.read(1, i), pivot);
        }
        for i in 10 + less + eq..90 {
            assert!(store.read(1, i) > pivot);
        }
    }

    #[test]
    fn gather_and_first_of() {
        let def = Arc::new(
            jstar_core::schema::TableDefBuilder::standalone("Data")
                .col_int("iter")
                .col_int("index")
                .col_double("value")
                .key(2)
                .orderby(&[strat("Int")])
                .build_def(TableId(0)),
        );
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let store = MedianArrayStore::new(def, &data);
        assert_eq!(store.gather(0, &[(0, 2), (3, 5)]), vec![1.0, 2.0, 4.0, 5.0]);
        assert_eq!(store.first_of(0, &[(2, 2), (3, 4)]), Some(4.0));
        assert_eq!(store.first_of(0, &[(2, 2)]), None);
    }
}
