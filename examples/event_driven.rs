//! Event-driven programming with external input tuples (§3).
//!
//! "Event-driven programming with external input tuples fits elegantly
//! into this framework — the input tuples are added to the Delta Set, and
//! can then trigger various rules before being stored into a table."
//!
//! A tiny monitoring pipeline: injected `Reading(sensor, t, value)` events
//! trigger a threshold rule that raises `Alert` tuples; an alert rule
//! aggregates the readings of the offending sensor so far (an aggregate
//! query over the strictly-earlier past, stratified by
//! `order Reading < Alert`). Tables are declared through the typed
//! `jstar_table!` item form, so rule bodies receive `Reading` / `Alert`
//! structs and queries use compile-checked field tokens.
//!
//! ```text
//! cargo run --example event_driven
//! ```

use jstar::core::jstar_table;
use jstar::core::prelude::*;
use std::sync::Arc;

jstar_table! {
    /// One sensor measurement at tick `t`.
    #[derive(Copy, Eq)]
    pub Reading(int sensor, int t, int value)
        orderby (Reading, seq t)
}

jstar_table! {
    /// An alert raised one tick after a threshold crossing.
    #[derive(Copy, Eq)]
    pub Alert(int sensor, int t)
        orderby (Alert, seq t)
}

fn main() -> Result<()> {
    let mut p = ProgramBuilder::new();
    p.relation::<Reading>();
    p.relation::<Alert>();
    p.order(&["Reading", "Alert"]);

    // Threshold rule: readings above 90 raise an alert one tick later.
    let mut cx = ModelCtx::new();
    let guard = vec![cx.trig("value").gt(&cx.k(90))];
    let bindings = cx.out("t").eq_(&(cx.trig("t") + 1));
    let model = CausalityModel {
        ctx: cx,
        invariants: vec![],
        puts: vec![PutModel {
            out_table: "Alert".into(),
            guard,
            bindings,
            label: "raise alert".into(),
        }],
        queries: vec![],
    };
    p.rule_rel("threshold", move |ctx, r: Reading| {
        if r.value > 90 {
            ctx.put_rel(Alert {
                sensor: r.sensor,
                t: r.t + 1,
            });
        }
    })
    .model(model);

    // Alert rule: summarise the sensor's history (aggregate over the
    // strictly-earlier Reading stratum).
    let mut cx = ModelCtx::new();
    let q_bind = cx.q("t").lt(&cx.trig("t"));
    let model = CausalityModel {
        ctx: cx,
        invariants: vec![],
        puts: vec![],
        queries: vec![QueryModel {
            q_table: "Reading".into(),
            guard: vec![],
            bindings: vec![q_bind],
            label: "sensor history".into(),
        }],
    };
    p.rule_rel("report", move |ctx, a: Alert| {
        let stats = ctx.reduce_rel(
            Reading::query().eq(Reading::sensor, a.sensor),
            &Statistics {
                field: Reading::value.index(),
            },
        );
        ctx.println(format!(
            "ALERT sensor {} at t={}: {} readings so far, mean {:.1}, max {}",
            a.sensor,
            a.t,
            stats.count,
            stats.mean(),
            stats.max
        ));
    })
    .model(model);

    let program = Arc::new(p.build()?);
    program.validate_strict()?;

    let mut engine = Engine::new(Arc::clone(&program), EngineConfig::parallel(4));
    // External events arrive before the run (a long-running system would
    // alternate inject/run phases).
    let feed = [
        (1, 0, 42),
        (2, 0, 97),
        (1, 1, 88),
        (2, 1, 99),
        (1, 2, 95),
        (3, 2, 10),
    ];
    for (sensor, t, value) in feed {
        engine.inject_rel(Reading { sensor, t, value });
    }
    let report = engine.run()?;
    let mut out = report.output;
    out.sort();
    println!(
        "processed {} tuples in {} steps:",
        report.tuples_processed, report.steps
    );
    for line in out {
        println!("  {line}");
    }
    Ok(())
}
