//! Workspace-level property-based tests: randomised end-to-end invariants
//! spanning the runtime and the case-study programs.

use jstar::apps::{matmul, median, shortest_path};
use jstar::core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// JStar median == sort median for arbitrary data/region/thread
    /// combinations (§6.6's program is correct, not just fast).
    #[test]
    fn median_matches_sort(
        data in prop::collection::vec(-1e6f64..1e6, 1..400),
        regions in 1usize..9,
        parallel in any::<bool>(),
    ) {
        let data = Arc::new(data);
        let want = median::median_by_sort(&data);
        let config = if parallel { EngineConfig::parallel(4) } else { EngineConfig::sequential() };
        let got = median::run_jstar(Arc::clone(&data), regions, config).unwrap();
        prop_assert_eq!(got, want);
    }

    /// JStar Dijkstra == heap Dijkstra on random graph shapes.
    #[test]
    fn dijkstra_matches_heap(
        n in 2u32..120,
        extra in 0u32..200,
        tasks in 1u32..6,
        seed in any::<u64>(),
    ) {
        let spec = shortest_path::GraphSpec::new(n, extra, tasks, seed);
        let want = shortest_path::dijkstra_baseline(&shortest_path::adjacency(&spec), 0);
        let got = shortest_path::run_jstar(spec, EngineConfig::parallel(3)).unwrap();
        prop_assert_eq!(got, want);
    }

    /// JStar matmul == naive multiply for arbitrary small matrices.
    #[test]
    fn matmul_matches_naive(
        n in 1usize..12,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let a = Arc::new(matmul::gen_matrix(n, seed_a));
        let b = Arc::new(matmul::gen_matrix(n, seed_b));
        let want = matmul::multiply_naive(&a, &b, n);
        let got = matmul::run_jstar(n, a, b, EngineConfig::parallel(2)).unwrap();
        prop_assert_eq!(got, want);
    }

    /// A random single-table counter program produces exactly the set
    /// {start..=limit} regardless of strategy — pseudo-naive evaluation
    /// reaches a unique fixpoint.
    #[test]
    fn counter_program_fixpoint(
        start in 0i64..20,
        limit in 20i64..60,
        threads in 1usize..5,
    ) {
        let mut p = ProgramBuilder::new();
        let t = p.table("T", |b| b.col_int("t").orderby(&[seq("t")]));
        p.rule("inc", t, move |ctx, tr| {
            if tr.int(0) < limit {
                ctx.put(Tuple::new(t, vec![Value::Int(tr.int(0) + 1)]));
            }
        });
        p.put(Tuple::new(t, vec![Value::Int(start)]));
        let prog = Arc::new(p.build().unwrap());
        let mut engine = Engine::new(Arc::clone(&prog), EngineConfig::parallel(threads));
        engine.run().unwrap();
        let mut got: Vec<i64> = engine
            .gamma()
            .collect(&Query::on(t))
            .iter()
            .map(|x| x.int(0))
            .collect();
        got.sort();
        let want: Vec<i64> = (start..=limit).collect();
        prop_assert_eq!(got, want);
    }

    /// Static checking is sound w.r.t. runtime enforcement: for a rule
    /// that advances its timestamp by a constant `c`, the checker proves
    /// the obligation iff `c >= 0`, and the runtime errors iff `c < 0`
    /// (provided the rule actually fires).
    #[test]
    fn static_and_runtime_causality_agree(c in -5i64..=5, start in 0i64..10) {
        let mut p = ProgramBuilder::new();
        let t = p.table("T", |b| b.col_int("t").orderby(&[seq("t")]));
        let mut cx = ModelCtx::new();
        let bindings = cx.out("t").eq_(&(cx.trig("t") + c));
        let model = CausalityModel {
            ctx: cx,
            invariants: vec![],
            puts: vec![PutModel {
                out_table: "T".into(),
                guard: vec![],
                bindings,
                label: "advance".into(),
            }],
            queries: vec![],
        };
        let limit = start + 20;
        p.rule("advance", t, move |ctx, tr| {
            if tr.int(0) < limit && tr.int(0) > start - 20 {
                ctx.put(Tuple::new(t, vec![Value::Int(tr.int(0) + c)]));
            }
        }).model(model);
        p.put(Tuple::new(t, vec![Value::Int(start)]));
        let prog = Arc::new(p.build().unwrap());

        let proved = prog.validate_strict().is_ok();
        prop_assert_eq!(proved, c >= 0, "checker verdict for c = {}", c);

        let mut engine = Engine::new(prog, EngineConfig::sequential().max_steps(100));
        let result = engine.run();
        if c > 0 {
            prop_assert!(result.is_ok());
        } else if c < 0 {
            let err = result.unwrap_err();
            prop_assert!(
                matches!(err, JStarError::CausalityViolation { .. }),
                "{err}"
            );
        } else {
            // c == 0: the rule re-puts the identical tuple, which dedups —
            // legal (present-time put) and terminating.
            prop_assert!(result.is_ok());
        }
    }

    /// Fan-out/fan-in with duplicates: N sources over K buckets trigger
    /// each bucket's rule exactly once (set semantics), for any N, K.
    #[test]
    fn set_semantics_dedup(
        n in 1i64..200,
        k in 1i64..20,
        threads in 1usize..5,
    ) {
        let mut p = ProgramBuilder::new();
        let src = p.table("Src", |b| b.col_int("i").orderby(&[strat("A"), seq("i")]));
        let bucket = p.table("Bucket", |b| b.col_int("b").orderby(&[strat("B")]));
        p.order(&["A", "B"]);
        p.rule("bucketise", src, move |ctx, t| {
            ctx.put(Tuple::new(bucket, vec![Value::Int(t.int(0) % k)]));
        });
        p.rule("count", bucket, move |ctx, t| {
            ctx.println(format!("bucket {}", t.int(0)));
        });
        for i in 0..n {
            p.put(Tuple::new(src, vec![Value::Int(i)]));
        }
        let prog = Arc::new(p.build().unwrap());
        let mut engine = Engine::new(prog, EngineConfig::parallel(threads));
        let report = engine.run().unwrap();
        prop_assert_eq!(report.output.len() as i64, n.min(k));
    }
}
