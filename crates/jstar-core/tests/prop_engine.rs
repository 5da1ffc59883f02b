//! Determinism property tests for the engine's sharded hot path.
//!
//! The engine rewrite (sharded staging inbox, bulk drain, borrowed
//! trigger keys, adaptive scheduling) must not be observable in results:
//! for random rule programs, the parallel engine's final Gamma contents
//! must equal the sequential engine's, whatever the thread count, chunk
//! decisions, or shard interleavings. This is the paper's core promise —
//! "parallel execution is deterministic" (§4–5) — restated as a property.

use jstar_core::delta::DeltaKind;
use jstar_core::jstar_table;
use jstar_core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

jstar_table! {
    /// Probe-side dimension table for the join-program generator.
    #[derive(Copy, Eq)]
    pub Dim(int k, int w) orderby (Dim)
}

jstar_table! {
    /// Trigger of the first join stage; one wide equivalence class.
    #[derive(Copy, Eq)]
    pub Src(int k, int v) orderby (Src)
}

jstar_table! {
    /// Output of stage 1, trigger of stage 2.
    #[derive(Copy, Eq)]
    pub Mid(int k2, int s) orderby (Mid)
}

jstar_table! {
    /// Final join output.
    #[derive(Copy, Eq)]
    pub Out(int a, int b) orderby (Out)
}

/// A randomly shaped layered rule program:
///
/// * `layers` tables `T0 < T1 < ... < T{layers-1}` (strat-ordered), each
///   with a `seq t` time column and a value column;
/// * per layer, a rule that maps each `(t, v)` tuple of layer `i` to
///   `fanout` tuples of layer `i + 1` with value `(v * mul + add) % modp`
///   and time `t + dt` — dt ≥ 0 keeps the program causal;
/// * a same-layer advance rule on layer 0 bounded by `horizon`, so one
///   table also feeds itself through the Delta set;
/// * `seeds` initial tuples at layer 0.
///
/// Duplicate tuples arise naturally from the modulus, exercising the
/// set-semantics dedup paths in both the inbox drain and Gamma.
#[allow(clippy::too_many_arguments)]
fn build_program(
    layers: usize,
    fanout: i64,
    mul: i64,
    add: i64,
    modp: i64,
    dt: i64,
    horizon: i64,
    seeds: i64,
) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    let names: Vec<String> = (0..layers).map(|i| format!("T{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let ids: Vec<TableId> = names
        .iter()
        .map(|n| {
            p.table(n, |b| {
                b.col_int("t").col_int("v").orderby(&[strat(n), seq("t")])
            })
        })
        .collect();
    p.order(&name_refs);

    for i in 0..layers.saturating_sub(1) {
        let next = ids[i + 1];
        p.rule(&format!("fan{i}"), ids[i], move |ctx, tr| {
            for k in 0..fanout {
                let v = (tr.int(1) * mul + add + k).rem_euclid(modp);
                ctx.put(Tuple::new(
                    next,
                    vec![Value::Int(tr.int(0) + dt), Value::Int(v)],
                ));
            }
        });
    }
    let t0 = ids[0];
    p.rule("advance", t0, move |ctx, tr| {
        if tr.int(0) < horizon {
            ctx.put(Tuple::new(
                t0,
                vec![
                    Value::Int(tr.int(0) + 1),
                    Value::Int((tr.int(1) + 1) % modp),
                ],
            ));
        }
    });
    for s in 0..seeds {
        p.put(Tuple::new(t0, vec![Value::Int(0), Value::Int(s % modp)]));
    }
    Arc::new(p.build().unwrap())
}

/// A fig12 (Dijkstra)-shaped relaxation program on a deterministic
/// pseudo-random graph: `Estimate(vertex, distance)` self-feeds through
/// the Delta tree (which acts as the priority queue, ordered by
/// distance) and finalises into keyed `Done(vertex -> distance)`
/// tuples. Edges are a pure function of `(vertex, j)`, so every engine
/// configuration explores the same graph.
fn relaxation_program(n: i64, degree: i64, weight_mod: i64) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    let estimate = p.table("Estimate", |b| {
        b.col_int("vertex").col_int("distance").orderby(&[
            strat("Int"),
            seq("distance"),
            strat("Estimate"),
        ])
    });
    let done = p.table("Done", |b| {
        b.col_int("vertex").col_int("distance").key(1).orderby(&[
            strat("Int"),
            seq("distance"),
            strat("Done"),
        ])
    });
    p.order(&["Estimate", "Done"]);
    p.rule("relax", estimate, move |ctx, tr| {
        let (v, d) = (tr.int(0), tr.int(1));
        if ctx.none(&Query::on(done).eq(0, v).le(1, d)) {
            ctx.put(Tuple::new(done, vec![Value::Int(v), Value::Int(d)]));
            for j in 0..degree {
                let to = (v * 7919 + j * 104_729 + 13).rem_euclid(n);
                let w = 1 + (v + j * 31).rem_euclid(weight_mod);
                if ctx.none(&Query::on(done).eq(0, to)) {
                    ctx.put(Tuple::new(
                        estimate,
                        vec![Value::Int(to), Value::Int(d + w)],
                    ));
                }
            }
        }
    });
    p.put(Tuple::new(estimate, vec![Value::Int(0), Value::Int(0)]));
    Arc::new(p.build().unwrap())
}

/// A two-stage join program whose trigger classes are wide (no `seq`
/// columns), so the batched delta-join pass has something to batch:
///
/// * `Dim` is the probe-side table (popped first, no rules);
/// * `Src ⋈ Dim` on `k` with a residual filter feeds `Mid`;
/// * `Mid ⋈ Dim` on the derived key feeds `Out`;
/// * an *opaque* rule also triggers on `Src`, so delta-join classes mix
///   planned and per-tuple rule execution in one pop.
fn join_program(dims: i64, srcs: i64, key_mod: i64, filt: i64) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.relation::<Dim>();
    p.relation::<Src>();
    p.relation::<Mid>();
    p.relation::<Out>();
    p.order(&["Dim", "Src", "Mid", "Out"]);
    p.rule_rel_join(
        "stage1",
        JoinOn::new().eq(Src::k, Dim::k),
        move |s: &Src, d: &Dim| (s.v + d.w).rem_euclid(filt) != 0,
        move |ctx, s: &Src, d: &Dim| {
            ctx.put_rel(Mid {
                k2: (s.v * 3 + d.w).rem_euclid(key_mod),
                s: s.v + d.w,
            });
        },
    );
    p.rule_rel_join(
        "stage2",
        JoinOn::new().eq(Mid::k2, Dim::k),
        |_m: &Mid, _d: &Dim| true,
        |ctx, m: &Mid, d: &Dim| {
            ctx.put_rel(Out { a: m.s, b: d.w });
        },
    );
    p.rule_rel("mirror", |ctx, s: Src| {
        ctx.put_rel(Out { a: s.v, b: -1 });
    });
    for i in 0..dims {
        p.put_rel(Dim {
            k: i.rem_euclid(key_mod),
            w: i,
        });
    }
    for i in 0..srcs {
        p.put_rel(Src {
            k: (i * 7).rem_euclid(key_mod),
            v: i,
        });
    }
    Arc::new(p.build().unwrap())
}

/// A two-**stage** join program built in one of two lowerings that must
/// be observationally identical:
///
/// * `nested_loop = false` — one [`ProgramBuilder::rule_rel_join2`]
///   rule carrying the full two-stage [`jstar_core::rule::JoinPlan`]
///   (`Src ⋈ Dim` on `k`, then `⋈ Dim` again on the first match's `w`),
///   eligible for batched delta-join execution and the leapfrog walk;
/// * `nested_loop = true` — a hand-written opaque rule performing the
///   same join as two nested `ctx.query_rel` loops, invisible to every
///   join optimisation.
///
/// Tables, orderings, seeds and the filter are identical, so the two
/// programs must reach the same fixpoint with the same pop schedule.
fn join2_program(dims: i64, srcs: i64, key_mod: i64, filt: i64, nested_loop: bool) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.relation::<Dim>();
    p.relation::<Src>();
    p.relation::<Out>();
    p.order(&["Dim", "Src", "Out"]);
    let filter = move |s: &Src, d1: &Dim, d2: &Dim| (s.v + d1.w + d2.w).rem_euclid(filt) != 0;
    let emit = move |s: &Src, d1: &Dim, d2: &Dim| Out {
        a: s.v + d1.w,
        b: d2.w,
    };
    if nested_loop {
        p.rule_rel("chain-nested", move |ctx, s: Src| {
            for d1 in ctx.query_rel(Dim::query().eq(Dim::k, s.k)) {
                for d2 in ctx.query_rel(Dim::query().eq(Dim::k, d1.w)) {
                    if filter(&s, &d1, &d2) {
                        ctx.put_rel(emit(&s, &d1, &d2));
                    }
                }
            }
        });
    } else {
        p.rule_rel_join2(
            "chain-join",
            JoinOn::new().eq(Src::k, Dim::k),
            JoinOn2::new().eq_p(Dim::w, Dim::k),
            filter,
            move |ctx, s: &Src, d1: &Dim, d2: &Dim| {
                ctx.put_rel(emit(s, d1, d2));
            },
        );
    }
    // `w` values overlap the key range so stage 2 matches regularly
    // (but not always — missing keys exercise the empty-descent path).
    for i in 0..dims {
        p.put_rel(Dim {
            k: i.rem_euclid(key_mod),
            w: (i * 5 + 1).rem_euclid(key_mod + 3),
        });
    }
    for i in 0..srcs {
        p.put_rel(Src {
            k: (i * 7).rem_euclid(key_mod),
            v: i,
        });
    }
    Arc::new(p.build().unwrap())
}

/// A one-stage **cross join**: `Src × Dim` through a
/// [`ProgramBuilder::rule_rel_join`] whose `on` has no key pair, with a
/// residual filter. `Src` pops as one wide class, so the class clears
/// any small delta-join threshold.
fn cross_program(dims: i64, srcs: i64, filt: i64) -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.relation::<Dim>();
    p.relation::<Src>();
    p.relation::<Out>();
    p.order(&["Dim", "Src", "Out"]);
    p.rule_rel_join(
        "cross",
        JoinOn::new(),
        move |s: &Src, d: &Dim| (s.v + d.w).rem_euclid(filt) != 0,
        |ctx, s: &Src, d: &Dim| {
            ctx.put_rel(Out { a: s.v, b: d.w });
        },
    );
    for i in 0..dims {
        p.put_rel(Dim { k: i, w: i * 3 });
    }
    for i in 0..srcs {
        p.put_rel(Src { k: i, v: i });
    }
    Arc::new(p.build().unwrap())
}

/// Collects every Gamma tuple of every table, sorted — the canonical form
/// compared across engine configurations.
fn canonical_gamma(engine: &Engine) -> Vec<Tuple> {
    let mut all = Vec::new();
    for i in 0..engine.program().defs().len() {
        all.extend(engine.gamma().collect(&Query::on(TableId(i as u32))));
    }
    all.sort();
    all
}

/// Walks a field-0 cursor over every table and collects the visible
/// `(value, group)` pairs — through the index cache (what a join walk
/// would actually see) or, with `cold`, from a fresh build straight off
/// the store. Group-internal order is journal (insertion) order, which
/// differs across runs at different thread counts, so groups are sorted
/// before comparison; the *set* of values and each value's tuple
/// multiset must be identical either way.
fn cursor_groups(engine: &Engine, cold: bool) -> Vec<(Value, Vec<Tuple>)> {
    let mut all = Vec::new();
    for i in 0..engine.program().defs().len() {
        let t = TableId(i as u32);
        let idx = if cold {
            engine.gamma().store(t).open_cursor(0)
        } else {
            engine.gamma().open_cursor(t, 0)
        };
        let mut c = idx.cursor();
        while let (Some(k), Some(g)) = (c.key(), c.group()) {
            let mut g = g.to_vec();
            g.sort();
            all.push((k.clone(), g));
            c.next();
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded-inbox parallel engine produces exactly the sequential
    /// engine's fixpoint for random programs, thread counts, and inline
    /// thresholds.
    #[test]
    fn sharded_parallel_matches_sequential(
        layers in 1usize..4,
        fanout in 1i64..4,
        mul in 1i64..7,
        add in 0i64..5,
        modp in 2i64..40,
        dt in 0i64..3,
        horizon in 0i64..12,
        seeds in 1i64..6,
        threads in 1usize..5,
        inline_threshold in 0usize..8,
    ) {
        let prog = build_program(layers, fanout, mul, add, modp, dt, horizon, seeds);

        let mut seq_eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
        let seq_report = seq_eng.run().unwrap();
        let want = canonical_gamma(&seq_eng);

        let par_config = EngineConfig::parallel(threads).inline_classes_up_to(inline_threshold);
        let mut par_eng = Engine::new(Arc::clone(&prog), par_config);
        let par_report = par_eng.run().unwrap();
        let got = canonical_gamma(&par_eng);

        prop_assert_eq!(&got, &want, "gamma contents diverged");
        prop_assert_eq!(
            par_report.tuples_processed,
            seq_report.tuples_processed,
            "tuple counts diverged"
        );
    }

    /// The pipelined coordinator (epoch swaps and merges overlapped with
    /// class execution) reaches exactly the fixpoint of the alternating
    /// loop, with **bit-identical pop schedules**: identical Gamma
    /// contents, tuple counts and step counts, for random layered
    /// fan-out programs and thread counts. The generator covers fig8's
    /// request→fan→summarise shape and fig11's wide single-key classes;
    /// its `dt = 0` arms stage tuples at the executing class's
    /// successor keys, and the same-layer advance rule stages keys that
    /// order below later layers' classes. The merge threshold is
    /// dropped to 1 so even small epochs take the parallel subtree
    /// path, and the inline threshold varies so wide classes actually
    /// open the overlap window.
    #[test]
    fn pipelined_matches_alternating(
        layers in 1usize..4,
        fanout in 1i64..5,
        mul in 1i64..7,
        add in 0i64..5,
        modp in 2i64..40,
        dt in 0i64..3,
        horizon in 0i64..12,
        seeds in 1i64..6,
        threads in 2usize..6,
        inline_threshold in 0usize..4,
    ) {
        let prog = build_program(layers, fanout, mul, add, modp, dt, horizon, seeds);

        let mut off = Engine::new(
            Arc::clone(&prog),
            EngineConfig::parallel(threads)
                .pipelined(false)
                .inline_classes_up_to(inline_threshold),
        );
        let off_report = off.run().unwrap();
        let want = canonical_gamma(&off);

        let mut on = Engine::new(
            Arc::clone(&prog),
            EngineConfig::parallel(threads)
                .pipelined(true)
                .inline_classes_up_to(inline_threshold)
                .parallel_merge_from(1),
        );
        let on_report = on.run().unwrap();
        let got = canonical_gamma(&on);

        prop_assert_eq!(&got, &want, "gamma contents diverged with pipelining on");
        prop_assert_eq!(
            on_report.tuples_processed,
            off_report.tuples_processed,
            "tuple counts diverged with pipelining on"
        );
        prop_assert_eq!(
            on_report.steps,
            off_report.steps,
            "pop schedules diverged with pipelining on"
        );
    }

    /// Pipeline determinism on the fig12 (Dijkstra) shape under
    /// adversarial merges: a self-feeding relaxation whose orderby makes
    /// the Delta tree the priority queue, with `-noDelta`/hash-indexed
    /// Done and `-noGamma` Estimate exactly like the real app. Popping
    /// distance `d` stages Estimates at `d + w` — keys that routinely
    /// order below or at the next class while the current one runs. The
    /// final Done set must be identical with pipelining on and off and
    /// equal to the sequential run's.
    ///
    /// Step counts are not compared here: the relax rule *queries* Done
    /// mid-class, so which Estimates get staged is timing-dependent in
    /// every parallel configuration (the fixpoint is not). The
    /// bit-identical pop schedule proof lives in
    /// `pipelined_matches_alternating`, whose programs stage
    /// deterministically.
    #[test]
    fn pipelined_dijkstra_shape_is_deterministic(
        n in 20i64..120,
        degree in 1i64..4,
        weight_mod in 1i64..9,
        threads in 2usize..6,
    ) {
        let prog = relaxation_program(n, degree, weight_mod);
        let done = prog.table_id("Done").unwrap();
        let estimate = prog.table_id("Estimate").unwrap();
        let configure = |c: EngineConfig| {
            c.no_delta(done).no_gamma(estimate).store(
                done,
                StoreKind::Hash {
                    index_fields: vec!["vertex".into()],
                    shards: 8,
                },
            )
        };

        let mut seq_eng = Engine::new(
            Arc::clone(&prog),
            configure(EngineConfig::sequential()),
        );
        seq_eng.run().unwrap();
        let mut want = seq_eng.gamma().collect(&Query::on(done));
        want.sort();

        for pipelined in [false, true] {
            let mut eng = Engine::new(
                Arc::clone(&prog),
                configure(
                    EngineConfig::parallel(threads)
                        .pipelined(pipelined)
                        .inline_classes_up_to(0)
                        .parallel_merge_from(1),
                ),
            );
            eng.run().unwrap();
            let mut got = eng.gamma().collect(&Query::on(done));
            got.sort();
            prop_assert_eq!(&got, &want, "Done set diverged (pipelined {})", pipelined);
        }
    }

    /// The persisted Gamma digest is a pure function of the logical
    /// fixpoint: for random programs, `Engine::content_hash()` — the
    /// hash a snapshot stores per table and recovery compares against —
    /// is bit-identical across the sequential engine and every
    /// (threads × pipelining on/off) parallel configuration. This
    /// is what makes crash-recovery checkable: restore + resume must
    /// land on this exact hash whatever configuration resumes the run.
    #[test]
    fn content_hash_is_identical_across_configurations(
        layers in 1usize..4,
        fanout in 1i64..4,
        mul in 1i64..7,
        add in 0i64..5,
        modp in 2i64..40,
        dt in 0i64..3,
        horizon in 0i64..12,
        seeds in 1i64..6,
        threads in 2usize..6,
    ) {
        let prog = build_program(layers, fanout, mul, add, modp, dt, horizon, seeds);

        let mut seq_eng = Engine::new(Arc::clone(&prog), EngineConfig::sequential());
        seq_eng.run().unwrap();
        let want = seq_eng.content_hash();

        for pipelined in [false, true] {
            let mut eng = Engine::new(
                Arc::clone(&prog),
                EngineConfig::parallel(threads)
                    .pipelined(pipelined)
                    .inline_classes_up_to(0)
                    .parallel_merge_from(1),
            );
            eng.run().unwrap();
            prop_assert_eq!(
                eng.content_hash(),
                want,
                "content hash diverged at {} threads, pipelined {}",
                threads,
                pipelined
            );
        }
    }

    /// Semi-naive delta-join execution is a pure execution-strategy
    /// change: for random two-stage join programs, the batched mode
    /// (one leapfrog walk per class) produces **bit-identical pop
    /// schedules** to per-tuple firing — same step count, same tuple
    /// count, same Gamma fixpoint, same content hash — sequentially and
    /// at every thread count, with the opaque `mirror` rule riding in
    /// the same trigger classes.
    #[test]
    fn delta_join_matches_per_tuple(
        dims in 1i64..30,
        srcs in 1i64..40,
        key_mod in 1i64..12,
        filt in 1i64..6,
        threads in 2usize..6,
        threshold in 1usize..8,
    ) {
        let prog = join_program(dims, srcs, key_mod, filt);

        let mut base = Engine::new(
            Arc::clone(&prog),
            EngineConfig::sequential().delta_join_from(usize::MAX),
        );
        let base_report = base.run().unwrap();
        prop_assert_eq!(base_report.delta_join_classes, 0, "per-tuple baseline");
        let want = canonical_gamma(&base);
        let want_hash = base.content_hash();

        let configs = [
            EngineConfig::sequential().delta_join_from(threshold),
            EngineConfig::parallel(threads).delta_join_from(threshold),
            EngineConfig::parallel(threads)
                .pipelined(true)
                .parallel_merge_from(1)
                .delta_join_from(threshold),
        ];
        for (i, config) in configs.into_iter().enumerate() {
            let mut eng = Engine::new(Arc::clone(&prog), config);
            let report = eng.run().unwrap();
            let got = canonical_gamma(&eng);
            prop_assert_eq!(&got, &want, "gamma contents diverged (config {})", i);
            prop_assert_eq!(
                report.steps,
                base_report.steps,
                "pop schedules diverged (config {})",
                i
            );
            prop_assert_eq!(
                report.tuples_processed,
                base_report.tuples_processed,
                "tuple counts diverged (config {})",
                i
            );
            prop_assert_eq!(
                eng.content_hash(),
                want_hash,
                "content hash diverged (config {})",
                i
            );
            // The Src class is one wide equivalence class of `srcs`
            // distinct tuples, so batching must engage whenever it
            // clears the threshold.
            if srcs as usize >= threshold {
                prop_assert!(
                    report.delta_join_classes > 0,
                    "delta-join never engaged (config {}): {:?}",
                    i,
                    report
                );
                prop_assert!(report.delta_join_build_tuples >= srcs as u64);
            }
        }
    }

    /// `join()` lowering equivalence: for random two-stage join
    /// programs, the typed join-rule lowering (two-stage plan, batched
    /// delta-join eligible, lowered onto the leapfrog walk) produces exactly
    /// the hand-written nested-loop lowering's results — same Gamma
    /// fixpoint, same content hash, and **bit-identical pop schedules**
    /// — sequentially, in parallel, and under the pipelined coordinator
    /// with every epoch merged in parallel.
    #[test]
    fn typed_join_matches_nested_loop_lowering(
        dims in 1i64..25,
        srcs in 1i64..30,
        key_mod in 1i64..10,
        filt in 1i64..6,
        threads in 2usize..6,
        threshold in 1usize..8,
    ) {
        let nested = join2_program(dims, srcs, key_mod, filt, true);
        let joined = join2_program(dims, srcs, key_mod, filt, false);

        let mut reference = Engine::new(Arc::clone(&nested), EngineConfig::sequential());
        let ref_report = reference.run().unwrap();
        let want = canonical_gamma(&reference);
        let want_hash = reference.content_hash();

        let configs = [
            EngineConfig::sequential().delta_join_from(threshold),
            EngineConfig::parallel(threads).delta_join_from(threshold),
            EngineConfig::parallel(threads)
                .pipelined(true)
                .parallel_merge_from(1)
                .delta_join_from(threshold),
        ];
        for (i, config) in configs.into_iter().enumerate() {
            let mut eng = Engine::new(Arc::clone(&joined), config);
            let report = eng.run().unwrap();
            let got = canonical_gamma(&eng);
            prop_assert_eq!(&got, &want, "lowerings diverged (config {})", i);
            prop_assert_eq!(
                eng.content_hash(),
                want_hash,
                "content hash diverged from nested-loop lowering (config {})",
                i
            );
            prop_assert_eq!(
                report.steps,
                ref_report.steps,
                "pop schedules diverged from nested-loop lowering (config {})",
                i
            );
            prop_assert_eq!(
                report.tuples_processed,
                ref_report.tuples_processed,
                "tuple counts diverged from nested-loop lowering (config {})",
                i
            );
        }
    }

    /// The generation-stamped index cache is a pure execution-strategy
    /// change: for random two-stage join programs — with a lifetime hint
    /// on the probe table so retain/compaction interleaves with the join
    /// walks mid-run — the cached leapfrog walk produces **bit-identical
    /// pop schedules** (same step count, same tuple count), the same
    /// Gamma fixpoint and the same content hash as sequential per-tuple
    /// firing, which opens no cursor at all, at 1/4/8 threads ×
    /// pipelining off/on. In each engine the cursor groups served by
    /// the cache must equal a cold build straight from the store. The
    /// hint tombstones (and, past the compaction threshold,
    /// epoch-bumps) the very table whose cached views the join keeps
    /// reopening, so wholesale invalidation and journal-suffix catch-up
    /// both run under live traffic.
    #[test]
    fn cached_index_matches_cold_build(
        dims in 4i64..30,
        srcs in 1i64..40,
        key_mod in 1i64..12,
        filt in 1i64..6,
        threshold in 1usize..8,
        threads_idx in 0usize..3,
        hint_keep_mod in 2i64..5,
    ) {
        let threads = [1usize, 4, 8][threads_idx];
        let prog = join_program(dims, srcs, key_mod, filt);
        let dim = prog.table_id("Dim").unwrap();
        // Dim has no producing rules, so retaining away some of its
        // tuples mid-run is deterministic (nothing re-derives them) and
        // directly invalidates the cached views the join walks reopen.
        let configure = move |c: EngineConfig, threshold: usize| {
            c.delta_join_from(threshold)
                .lifetime_hint(dim, 2, move |t| t.int(1).rem_euclid(hint_keep_mod) != 0)
                .compact_tombstones_above(0.2)
        };

        let mut base = Engine::new(
            Arc::clone(&prog),
            configure(EngineConfig::sequential(), usize::MAX),
        );
        let base_report = base.run().unwrap();
        prop_assert_eq!(base_report.join_cursor_opens, 0, "per-tuple reference");
        let want = canonical_gamma(&base);
        let want_hash = base.content_hash();

        for pipelined in [false, true] {
            let config = if threads == 1 && !pipelined {
                EngineConfig::sequential()
            } else {
                EngineConfig::parallel(threads)
                    .pipelined(pipelined)
                    .parallel_merge_from(1)
            };
            let mut eng = Engine::new(Arc::clone(&prog), configure(config, threshold));
            let report = eng.run().unwrap();
            let got = canonical_gamma(&eng);
            prop_assert_eq!(
                &got, &want,
                "gamma diverged ({} threads, pipelined {})",
                threads, pipelined
            );
            prop_assert_eq!(
                eng.content_hash(),
                want_hash,
                "content hash diverged ({} threads, pipelined {})",
                threads, pipelined
            );
            prop_assert_eq!(
                (report.steps, report.tuples_processed),
                (base_report.steps, base_report.tuples_processed),
                "pop schedule diverged ({} threads, pipelined {})",
                threads, pipelined
            );
            prop_assert_eq!(
                cursor_groups(&eng, false),
                cursor_groups(&eng, true),
                "cached cursor groups diverged from a cold build ({} threads, pipelined {})",
                threads, pipelined
            );
        }
    }

    /// A join plan with a keyless stage is a cross join: there is no
    /// column for a cursor to walk, so even a class at or above the
    /// delta-join threshold fires it per tuple through the plan's
    /// synthesized body. Results, content hash and pop schedule must
    /// equal the per-tuple run's, and no cursor may be opened.
    #[test]
    fn keyless_join_fires_per_tuple(
        dims in 1i64..12,
        srcs in 1i64..20,
        filt in 1i64..6,
        threads in 2usize..5,
        threshold in 1usize..6,
    ) {
        let prog = cross_program(dims, srcs, filt);

        let mut base = Engine::new(
            Arc::clone(&prog),
            EngineConfig::sequential().delta_join_from(usize::MAX),
        );
        let base_report = base.run().unwrap();
        let want = canonical_gamma(&base);
        let want_hash = base.content_hash();

        let configs = [
            EngineConfig::sequential().delta_join_from(threshold),
            EngineConfig::parallel(threads).delta_join_from(threshold),
        ];
        for (i, config) in configs.into_iter().enumerate() {
            let mut eng = Engine::new(Arc::clone(&prog), config);
            let report = eng.run().unwrap();
            prop_assert_eq!(&canonical_gamma(&eng), &want, "gamma diverged (config {})", i);
            prop_assert_eq!(eng.content_hash(), want_hash, "content hash diverged (config {})", i);
            prop_assert_eq!(
                (report.steps, report.tuples_processed),
                (base_report.steps, base_report.tuples_processed),
                "pop schedule diverged (config {})",
                i
            );
            prop_assert_eq!(report.join_cursor_opens, 0, "a cross join opens no cursor");
            if srcs as usize >= threshold {
                prop_assert!(
                    report.delta_join_classes > 0,
                    "the class took the delta-join path (config {}): {:?}",
                    i,
                    report
                );
            }
        }
    }

    /// Both Delta structures reach the same fixpoint under the batched
    /// drain (the flat map is the ablation of the tree).
    #[test]
    fn delta_kinds_agree_under_parallel_drain(
        layers in 1usize..3,
        fanout in 1i64..4,
        modp in 2i64..25,
        horizon in 0i64..10,
        threads in 1usize..4,
    ) {
        let prog = build_program(layers, fanout, 3, 1, modp, 1, horizon, 2);
        let mut tree_eng = Engine::new(
            Arc::clone(&prog),
            EngineConfig::parallel(threads).delta_kind(DeltaKind::Tree),
        );
        tree_eng.run().unwrap();
        let mut flat_eng = Engine::new(
            Arc::clone(&prog),
            EngineConfig::parallel(threads).delta_kind(DeltaKind::Flat),
        );
        flat_eng.run().unwrap();
        prop_assert_eq!(canonical_gamma(&tree_eng), canonical_gamma(&flat_eng));
    }
}
