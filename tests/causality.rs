//! Cross-crate integration: the Law of Causality (§4) — static proof
//! obligations via the Fourier–Motzkin engine, runtime enforcement, and
//! the Fig. 4 stratification-error scenario.

use jstar::core::prelude::*;
use std::sync::Arc;

/// Builds the Fig. 4 skeleton with or without the `order` declaration.
fn pvwatts_skeleton(with_order: bool) -> Program {
    let mut p = ProgramBuilder::new();
    let pv = p.table("PvWatts", |b| {
        b.col_int("year")
            .col_int("month")
            .col_int("power")
            .orderby(&[strat("PvWatts")])
    });
    let sm = p.table("SumMonth", |b| {
        b.col_int("year")
            .col_int("month")
            .orderby(&[strat("SumMonth")])
    });
    if with_order {
        p.order(&["Req", "PvWatts", "SumMonth"]);
    }
    // foreach (PvWatts pv) put SumMonth(...)
    let model = CausalityModel {
        ctx: ModelCtx::new(),
        invariants: vec![],
        puts: vec![PutModel {
            out_table: "SumMonth".into(),
            guard: vec![],
            bindings: vec![],
            label: "request summary".into(),
        }],
        queries: vec![],
    };
    p.rule("request-month", pv, move |ctx, t| {
        ctx.put(Tuple::new(
            ctx.table("SumMonth"),
            vec![t.get(0).clone(), t.get(1).clone()],
        ));
    })
    .model(model);
    // foreach (SumMonth s) aggregate PvWatts(...)
    let model = CausalityModel {
        ctx: ModelCtx::new(),
        invariants: vec![],
        puts: vec![],
        queries: vec![QueryModel {
            q_table: "PvWatts".into(),
            guard: vec![],
            bindings: vec![],
            label: "aggregate month".into(),
        }],
    };
    p.rule("summarise", sm, move |ctx, s| {
        let stats = ctx.reduce(
            &Query::on(ctx.table("PvWatts"))
                .eq(0, s.int(0))
                .eq(1, s.int(1)),
            &Statistics { field: 2 },
        );
        ctx.println(format!("{}/{}: {}", s.int(0), s.int(1), stats.mean()));
    })
    .model(model);
    p.build().unwrap()
}

#[test]
fn fig4_stratification_error_without_order_declaration() {
    // "if this order declaration was omitted then the SMT solvers would
    // not be able to prove that that rule was stratified, so a
    // Stratification error would be displayed."
    let bad = pvwatts_skeleton(false);
    let failures: Vec<_> = bad
        .check_causality()
        .into_iter()
        .filter(|r| !r.proved)
        .collect();
    assert!(!failures.is_empty());
    assert!(
        failures.iter().any(|r| r.message.contains("order")),
        "{failures:?}"
    );

    let good = pvwatts_skeleton(true);
    assert!(good.validate_strict().is_ok());
}

#[test]
fn runtime_catches_put_into_the_past() {
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("time").orderby(&[seq("time")]));
    p.rule("rewind", t, move |ctx, tr| {
        if tr.int(0) > 0 {
            ctx.put(Tuple::new(t, vec![Value::Int(tr.int(0) - 1)]));
        }
    });
    p.put(Tuple::new(t, vec![Value::Int(5)]));
    let prog = Arc::new(p.build().unwrap());
    let err = Engine::new(prog, EngineConfig::sequential())
        .run()
        .unwrap_err();
    match err {
        JStarError::CausalityViolation { rule, .. } => assert_eq!(rule, "rewind"),
        other => panic!("expected causality violation, got {other}"),
    }
}

#[test]
fn runtime_allows_put_into_the_present() {
    // A put at the same timestamp (different table, later stratum) is
    // legal: positive queries may see timestamps <= T.
    let mut p = ProgramBuilder::new();
    let a = p.table("A", |b| b.col_int("t").orderby(&[seq("t"), strat("A")]));
    let bt = p.table("B", |b| b.col_int("t").orderby(&[seq("t"), strat("B")]));
    p.order(&["A", "B"]);
    p.rule("mirror", a, move |ctx, tr| {
        ctx.put(Tuple::new(bt, vec![Value::Int(tr.int(0))]));
    });
    p.put(Tuple::new(a, vec![Value::Int(3)]));
    let prog = Arc::new(p.build().unwrap());
    let mut engine = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
    engine.run().unwrap();
    assert_eq!(engine.gamma().collect(&Query::on(bt)).len(), 1);
}

#[test]
fn solver_handles_guarded_obligations() {
    // A rule that would violate causality, except its guard makes the
    // offending branch unreachable: trig.t < 10 ∧ out.t == trig.t + 1 is
    // provable; out.t == trig.t - 1 under guard trig.t < 0 ∧ trig.t >= 0
    // (contradictory guard) is vacuously provable.
    let mut cx = ModelCtx::new();
    let guard = vec![cx.trig("t").lt(&cx.k(0)), cx.trig("t").ge(&cx.k(0))];
    let bindings = cx.out("t").eq_(&(cx.trig("t") - 1));
    let mut p = ProgramBuilder::new();
    let t = p.table("T", |b| b.col_int("t").orderby(&[seq("t")]));
    let model = CausalityModel {
        ctx: cx,
        invariants: vec![],
        puts: vec![PutModel {
            out_table: "T".into(),
            guard,
            bindings,
            label: "dead branch".into(),
        }],
        queries: vec![],
    };
    p.rule("dead", t, |_, _| {}).model(model);
    let prog = p.build().unwrap();
    assert!(
        prog.validate_strict().is_ok(),
        "contradictory guards make the obligation vacuous"
    );
}

#[test]
fn cyclic_order_declarations_rejected_at_build() {
    let mut p = ProgramBuilder::new();
    let _ = p.table("T", |b| b.col_int("x").orderby(&[strat("P")]));
    p.order(&["P", "Q"]);
    p.order(&["Q", "P"]);
    match p.build() {
        Err(JStarError::Stratification(msg)) => assert!(msg.contains("cycle")),
        other => panic!("expected stratification error, got {other:?}"),
    }
}

#[test]
fn all_shipped_programs_validate_strictly() {
    use jstar::apps::*;
    ship::program(7).validate_strict().unwrap();
    let csv = Arc::new(pvwatts::generate_csv(
        100,
        pvwatts::InputOrder::Chronological,
    ));
    pvwatts::build_program(csv, 2)
        .program
        .validate_strict()
        .unwrap();
    let a = Arc::new(matmul::gen_matrix(4, 1));
    let b = Arc::new(matmul::gen_matrix(4, 2));
    matmul::build_program(4, a, b)
        .program
        .validate_strict()
        .unwrap();
    shortest_path::build_program(shortest_path::GraphSpec::new(50, 50, 2, 1))
        .program
        .validate_strict()
        .unwrap();
    median::build_program(100, 4)
        .program
        .validate_strict()
        .unwrap();
    triangles::build_program(triangles::TriSpec::new(20, 40, 2, 1))
        .program
        .validate_strict()
        .unwrap();
    basket::build_program(basket::BasketSpec::new(20, 10, 4, 2, 1))
        .program
        .validate_strict()
        .unwrap();
}
