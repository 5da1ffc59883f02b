//! Basket scoring — a three-relation analytics pipeline exercising the
//! multi-stage join path on *asymmetric* relations (unlike
//! [`crate::triangles`], whose three legs all probe `Edge`).
//!
//! Synthetic retail data: `Order(user, item)` facts join through the
//! `Catalog(item, cat)` dimension to the `Weight(cat, w)` table, and
//! each matched chain emits one `Score(user, item, w)` — the weighted
//! basket entry. The whole chain is **one two-stage join rule**
//! ([`ProgramBuilder::rule_rel_join2`]): stage 1 resolves the item's
//! category, stage 2 resolves the category's weight, and the leading
//! key of stage 2 comes from stage 1's tuple — the shape the engine's
//! leapfrog walk seeks on. A hand-rolled nested-loop baseline
//! ([`baseline_total`]) pins down the expected aggregate.

use jstar_core::jstar_table;
use jstar_core::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

jstar_table! {
    /// One data-loading task (parallel class).
    #[derive(Copy, Eq)]
    pub Load(int id) orderby (Load, par id)
}

jstar_table! {
    /// A purchase fact: user bought item. The join trigger.
    #[derive(Copy, Eq)]
    pub Order(int user, int item) orderby (Ord)
}

jstar_table! {
    /// Dimension: item → category. Joined by stage 1.
    #[derive(Copy, Eq)]
    pub Catalog(int item, int cat) orderby (Cat)
}

jstar_table! {
    /// Dimension: category → weight. Joined by stage 2.
    #[derive(Copy, Eq)]
    pub Weight(int cat, int w) orderby (Wt)
}

jstar_table! {
    /// One weighted basket entry per matched Order chain.
    #[derive(Copy, Eq)]
    pub Score(int user, int item, int w) orderby (Score)
}

/// Synthetic-data parameters.
#[derive(Debug, Clone, Copy)]
pub struct BasketSpec {
    /// Number of order facts.
    pub orders: u32,
    /// Number of catalogued items (item ids are drawn from `0..items`,
    /// but only even ids are catalogued — so roughly half the orders
    /// join through, keeping the anti-join case exercised).
    pub items: u32,
    /// Number of categories; only categories `0..cats/2` carry weights.
    pub cats: u32,
    /// Loading tasks.
    pub tasks: u32,
    /// RNG seed.
    pub seed: u64,
}

impl BasketSpec {
    pub fn new(orders: u32, items: u32, cats: u32, tasks: u32, seed: u64) -> Self {
        assert!(items >= 1 && cats >= 1);
        BasketSpec {
            orders,
            items,
            cats: cats.max(2),
            tasks: tasks.max(1),
            seed,
        }
    }
}

/// The order facts as `(user, item)` pairs — a deterministic function
/// of the spec, shared by the rules and the baseline.
pub fn order_list(spec: &BasketSpec) -> Vec<(i64, i64)> {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..spec.orders)
        .map(|_| {
            let user = rng.gen_range(0..spec.orders.max(1) / 4 + 1) as i64;
            let item = rng.gen_range(0..spec.items) as i64;
            (user, item)
        })
        .collect()
}

/// Category of a catalogued item (even ids only).
fn item_cat(item: i64, cats: u32) -> Option<i64> {
    (item % 2 == 0).then_some(item % cats as i64)
}

/// Weight of a weighted category (the lower half only).
fn cat_weight(cat: i64, cats: u32) -> Option<i64> {
    (cat < (cats / 2) as i64).then_some(cat * 10 + 1)
}

/// Nested-loop baseline: the sum of weights over all orders whose item
/// is catalogued into a weighted category.
pub fn baseline_total(spec: &BasketSpec) -> i64 {
    order_list(spec)
        .iter()
        .filter_map(|&(_, item)| item_cat(item, spec.cats))
        .filter_map(|cat| cat_weight(cat, spec.cats))
        .sum()
}

/// The built program plus handles.
pub struct BasketApp {
    pub program: Arc<Program>,
    pub order: TableId,
    pub catalog: TableId,
    pub weight: TableId,
    pub score: TableId,
}

/// Builds the basket-scoring program.
pub fn build_program(spec: BasketSpec) -> BasketApp {
    let mut p = ProgramBuilder::new();
    let load = p.relation::<Load>().id();
    let order = p.relation::<Order>().id();
    let catalog = p.relation::<Catalog>().id();
    let weight = p.relation::<Weight>().id();
    let score = p.relation::<Score>().id();
    p.order(&["Load", "Cat", "Wt", "Ord", "Score"]);

    // Loading: task 0 owns the dimensions, every task owns a slice of
    // the order facts. Dimension tables land in earlier strata than the
    // Order trigger, so every probe sees the complete build side.
    let orders = Arc::new(order_list(&spec));
    let (tasks, items, cats) = (spec.tasks, spec.items, spec.cats);
    let load_orders = Arc::clone(&orders);
    p.rule_rel("load-data", move |ctx, t: Load| {
        if t.id == 0 {
            for item in 0..items as i64 {
                if let Some(cat) = item_cat(item, cats) {
                    ctx.put_rel(Catalog { item, cat });
                }
            }
            for cat in 0..cats as i64 {
                if let Some(w) = cat_weight(cat, cats) {
                    ctx.put_rel(Weight { cat, w });
                }
            }
        }
        let per = load_orders.len().div_ceil(tasks as usize).max(1);
        let lo = (t.id as usize * per).min(load_orders.len());
        let hi = ((t.id as usize + 1) * per).min(load_orders.len());
        for &(user, item) in &load_orders[lo..hi] {
            ctx.put_rel(Order { user, item });
        }
    });

    // The whole chain in one rule: Order → Catalog (by item) → Weight
    // (by the category stage 1 produced).
    p.rule_rel_join2(
        "score-baskets",
        JoinOn::new().eq(Order::item, Catalog::item),
        JoinOn2::new().eq_p(Catalog::cat, Weight::cat),
        |_o: &Order, _c: &Catalog, _w: &Weight| true,
        |ctx, o: &Order, _c: &Catalog, w: &Weight| {
            ctx.put_rel(Score {
                user: o.user,
                item: o.item,
                w: w.w,
            });
        },
    );

    for task in 0..spec.tasks {
        p.put_rel(Load { id: task as i64 });
    }
    let _ = load;

    BasketApp {
        program: Arc::new(p.build().expect("basket program builds")),
        order,
        catalog,
        weight,
        score,
    }
}

/// Runs the program and returns the total score weight (each Score
/// tuple counted once — `Score` is a set, so duplicate orders collapse;
/// the baseline to compare against is [`baseline_distinct_total`],
/// which applies the same dedup).
pub fn run_report(spec: BasketSpec, config: EngineConfig) -> Result<(i64, RunReport)> {
    let app = build_program(spec);
    let mut engine = Engine::new(Arc::clone(&app.program), config);
    let report = engine.run()?;
    let mut total = 0i64;
    engine.for_each_rel_gamma(Score::query(), |s: Score| {
        total += s.w;
        true
    });
    Ok((total, report))
}

/// Deduplicated baseline matching [`run_report`]'s set semantics: the
/// sum of weights over **distinct** `(user, item)` orders that join
/// through (the `Score` table is a set, so duplicate facts collapse).
pub fn baseline_distinct_total(spec: &BasketSpec) -> i64 {
    let mut seen = std::collections::BTreeSet::new();
    order_list(spec)
        .iter()
        .filter(|&&pair| seen.insert(pair))
        .filter_map(|&(_, item)| item_cat(item, spec.cats))
        .filter_map(|cat| cat_weight(cat, spec.cats))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> BasketSpec {
        BasketSpec::new(400, 50, 12, 4, 7)
    }

    #[test]
    fn order_list_is_deterministic() {
        let spec = small_spec();
        assert_eq!(order_list(&spec), order_list(&spec));
        assert_eq!(order_list(&spec).len(), spec.orders as usize);
    }

    #[test]
    fn rules_match_baseline_sequential_and_parallel() {
        let spec = small_spec();
        let want = baseline_distinct_total(&spec);
        assert!(want > 0, "spec should score something");
        let (seq, _) = run_report(spec, EngineConfig::sequential()).unwrap();
        assert_eq!(seq, want);
        for threads in [2, 4] {
            let (par, _) = run_report(spec, EngineConfig::parallel(threads)).unwrap();
            assert_eq!(par, want, "{threads} threads");
        }
    }

    #[test]
    fn leapfrog_matches_per_tuple_and_searches_less() {
        let spec = small_spec();
        let want = baseline_distinct_total(&spec);
        let (lf, lf_r) = run_report(spec, EngineConfig::sequential().delta_join_from(4)).unwrap();
        let (pt, pt_r) =
            run_report(spec, EngineConfig::sequential().delta_join_from(usize::MAX)).unwrap();
        assert_eq!(lf, want);
        assert_eq!(pt, want);
        assert!(lf_r.delta_join_classes > 0, "walk engaged: {lf_r:?}");
        assert_eq!(pt_r.delta_join_classes, 0, "per-tuple engaged: {pt_r:?}");
        assert!(
            lf_r.gamma_probes + lf_r.join_seeks < pt_r.gamma_probes,
            "lf probes={} seeks={} vs pt probes={}",
            lf_r.gamma_probes,
            lf_r.join_seeks,
            pt_r.gamma_probes
        );
    }

    #[test]
    fn plan_carries_two_asymmetric_stages() {
        let app = build_program(small_spec());
        let rules = app.program.rules();
        let plan = rules[1].plan.as_ref().expect("score-baskets has a plan");
        assert_eq!(plan.stages.len(), 2);
        assert_eq!(plan.stages[0].probe_table, app.catalog);
        assert_eq!(plan.stages[1].probe_table, app.weight);
        assert_eq!(
            plan.stages[0].keys,
            vec![((0, 1), 0)],
            "Order.item = Catalog.item"
        );
        assert_eq!(
            plan.stages[1].keys,
            vec![((1, 1), 0)],
            "Catalog.cat = Weight.cat"
        );
    }

    #[test]
    fn empty_edges_of_the_data() {
        // No orders at all, and specs where nothing joins through.
        let none = BasketSpec::new(0, 10, 4, 2, 1);
        assert_eq!(run_report(none, EngineConfig::sequential()).unwrap().0, 0);
        // items=1 means only item 0 exists (catalogued, cat 0, weighted).
        let tiny = BasketSpec::new(5, 1, 2, 1, 3);
        let want = baseline_distinct_total(&tiny);
        assert_eq!(
            run_report(tiny, EngineConfig::sequential()).unwrap().0,
            want
        );
    }
}
