//! Read-side joins against a nested-loop oracle.
//!
//! `Engine::join_rel` / `join3_rel` walk sorted column views, split
//! across the pool by key range, and intersect the closing relation of
//! a three-way join instead of filtering it. None of that may be
//! observable: for random small relations (skewed key domains so groups
//! repeat, empty relations included) every join shape must emit exactly
//! the rows a nested loop over `collect_rel` finds, and a pooled engine
//! must deliver the sequential engine's row sequence in the same order —
//! ascending by the leading `A`/`B` join key.

use jstar_core::jstar_table;
use jstar_core::prelude::*;
use jstar_core::relation::{Join, Join3};
use jstar_core::value::Value;
use proptest::prelude::*;
use std::sync::Arc;

// Every column is a `seq` level, so each row is a class of its own and
// every engine inserts the rows in the same (key) order. A column
// view's groups keep insertion order, so the sequential and pooled
// engines then hold identical views and must deliver identical rows.

jstar_table! {
    /// Three columns, the usual `A` side.
    pub R(int k, String s, int v) orderby (R, seq k, seq s, seq v)
}

jstar_table! {
    /// Two columns, the usual `B` side.
    pub S(int k, String s) orderby (S, seq k, seq s)
}

jstar_table! {
    /// Three columns with the string first, the usual `C` side.
    pub T(String s, int v, int w) orderby (T, seq s, seq v, seq w)
}

/// A skewed small integer: `isqrt` of a uniform draw, so larger values
/// repeat more often and key groups hold several rows.
fn skewed(x: usize) -> i64 {
    (x as f64).sqrt() as i64
}

fn name(x: usize) -> Arc<str> {
    Arc::from(["a", "b", "c", "d"][skewed(x) as usize])
}

type Rows = (Vec<R>, Vec<S>, Vec<T>);

fn rows() -> impl Strategy<Value = Rows> {
    let r = prop::collection::vec((0usize..25, 0usize..16, 0usize..25), 0..=12).prop_map(|v| {
        v.into_iter()
            .map(|(k, s, x)| R {
                k: skewed(k),
                s: name(s),
                v: skewed(x),
            })
            .collect::<Vec<_>>()
    });
    let s = prop::collection::vec((0usize..25, 0usize..16), 0..=12).prop_map(|v| {
        v.into_iter()
            .map(|(k, s)| S {
                k: skewed(k),
                s: name(s),
            })
            .collect::<Vec<_>>()
    });
    let t = prop::collection::vec((0usize..16, 0usize..25, 0usize..25), 0..=12).prop_map(|v| {
        v.into_iter()
            .map(|(s, x, w)| T {
                s: name(s),
                v: skewed(x),
                w: skewed(w),
            })
            .collect::<Vec<_>>()
    });
    (r, s, t)
}

/// Runs the rows into an engine whose every table uses `store` (the
/// sequential and pooled engines share one, so their views match).
fn engine(rows: &Rows, config: EngineConfig, store: &StoreKind) -> Engine {
    let mut p = ProgramBuilder::new();
    let ids = [
        p.relation::<R>().id(),
        p.relation::<S>().id(),
        p.relation::<T>().id(),
    ];
    let config = ids
        .into_iter()
        .fold(config, |c, id| c.store(id, store.clone()));
    p.order(&["R", "S", "T"]);
    for r in &rows.0 {
        p.put_rel(r.clone());
    }
    for s in &rows.1 {
        p.put_rel(s.clone());
    }
    for t in &rows.2 {
        p.put_rel(t.clone());
    }
    let mut engine = Engine::new(Arc::new(p.build().unwrap()), config);
    engine.run().unwrap();
    engine
}

/// One emitted row, flattened: `A`'s values, then `B`'s, then `C`'s.
type Row = Vec<Value>;

fn emitted2<A: Relation, B: Relation>(e: &Engine, j: Join<A, B>) -> Vec<Row> {
    let mut out = Vec::new();
    e.join_rel(j, |a, b| {
        out.push([a.into_values(), b.into_values()].concat())
    });
    out
}

fn emitted3<A: Relation, B: Relation, C: Relation>(e: &Engine, j: Join3<A, B, C>) -> Vec<Row> {
    let mut out = Vec::new();
    e.join3_rel(j, |a, b, c| {
        out.push([a.into_values(), b.into_values(), c.into_values()].concat())
    });
    out
}

fn oracle2<A: Relation + Clone, B: Relation + Clone>(
    e: &Engine,
    on: impl Fn(&A, &B) -> bool,
) -> Vec<Row> {
    let (xs, ys) = (e.collect_rel(A::query()), e.collect_rel(B::query()));
    let mut out = Vec::new();
    for a in &xs {
        for b in &ys {
            if on(a, b) {
                out.push([a.clone().into_values(), b.clone().into_values()].concat());
            }
        }
    }
    out
}

fn oracle3<A: Relation + Clone, B: Relation + Clone, C: Relation + Clone>(
    e: &Engine,
    on: impl Fn(&A, &B, &C) -> bool,
) -> Vec<Row> {
    let xs = e.collect_rel(A::query());
    let ys = e.collect_rel(B::query());
    let zs = e.collect_rel(C::query());
    let mut out = Vec::new();
    for a in &xs {
        for b in &ys {
            for c in &zs {
                if on(a, b, c) {
                    out.push(
                        [
                            a.clone().into_values(),
                            b.clone().into_values(),
                            c.clone().into_values(),
                        ]
                        .concat(),
                    );
                }
            }
        }
    }
    out
}

/// The three checks every shape gets: the sequential walk emits the
/// oracle's rows (as a multiset), in ascending order of the leading
/// `A` join field `a_key`, and the pooled walk emits the identical
/// sequence.
fn check(
    shape: &str,
    seq: Vec<Row>,
    par: Vec<Row>,
    mut want: Vec<Row>,
    a_key: usize,
) -> std::result::Result<(), TestCaseError> {
    prop_assert!(
        seq.windows(2).all(|w| w[0][a_key] <= w[1][a_key]),
        "{shape}: rows not in ascending key order: {seq:?}"
    );
    prop_assert_eq!(&par, &seq, "{}: pooled order differs", shape);
    let mut got = seq;
    got.sort();
    want.sort();
    prop_assert_eq!(got, want, "{}: rows differ from the nested loop", shape);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every read-side join shape agrees with the nested loop, and the
    /// pooled walk with the sequential one, row for row.
    #[test]
    fn read_side_joins_match_nested_loop(
        rows in rows(),
        threads in 2usize..=4,
        concurrent in any::<bool>(),
    ) {
        let store = StoreKind::default_for(concurrent);
        let seq = engine(&rows, EngineConfig::sequential(), &store);
        let par = engine(&rows, EngineConfig::parallel(threads), &store);

        // join, one on() pair.
        let j = || join::<R, S>().on(R::k, S::k);
        check(
            "join on k",
            emitted2(&seq, j()),
            emitted2(&par, j()),
            oracle2(&seq, |a: &R, b: &S| a.k == b.k),
            R::k.index(),
        )?;

        // join, two on() pairs (string leapfrog key, int residual).
        let j = || join::<R, S>().on(R::s, S::s).on(R::k, S::k);
        check(
            "join on s, k",
            emitted2(&seq, j()),
            emitted2(&par, j()),
            oracle2(&seq, |a: &R, b: &S| a.s == b.s && a.k == b.k),
            R::s.index(),
        )?;

        // join3, C keyed from B plus an a→c pair: the intersect path.
        let j = || {
            join3::<R, S, T>()
                .on_ab(R::k, S::k)
                .on_bc(S::s, T::s)
                .on_ac(R::v, T::v)
        };
        check(
            "join3 intersect",
            emitted3(&seq, j()),
            emitted3(&par, j()),
            oracle3(&seq, |a: &R, b: &S, c: &T| a.k == b.k && b.s == c.s && a.v == c.v),
            R::k.index(),
        )?;

        // The intersect path with a residual pair on every side, none
        // implied by the others (so dropping any one changes the rows).
        let j = || {
            join3::<R, S, T>()
                .on_ab(R::k, S::k)
                .on_ab(R::s, S::s)
                .on_bc(S::s, T::s)
                .on_bc(S::k, T::v)
                .on_ac(R::v, T::v)
                .on_ac(R::k, T::w)
        };
        check(
            "join3 intersect + residuals",
            emitted3(&seq, j()),
            emitted3(&par, j()),
            oracle3(&seq, |a: &R, b: &S, c: &T| {
                a.k == b.k && a.s == b.s && b.s == c.s && b.k == c.v && a.v == c.v && a.k == c.w
            }),
            R::k.index(),
        )?;

        // join3 keyed only by on_ac (C seeked once per a row).
        let j = || join3::<R, S, T>().on_ab(R::k, S::k).on_ac(R::v, T::v);
        check(
            "join3 on_ac only",
            emitted3(&seq, j()),
            emitted3(&par, j()),
            oracle3(&seq, |a: &R, b: &S, c: &T| a.k == b.k && a.v == c.v),
            R::k.index(),
        )?;

        // on_ac only, with residual a–b and a–c pairs.
        let j = || {
            join3::<R, S, T>()
                .on_ab(R::s, S::s)
                .on_ab(R::k, S::k)
                .on_ac(R::s, T::s)
                .on_ac(R::v, T::w)
        };
        check(
            "join3 on_ac only + residuals",
            emitted3(&seq, j()),
            emitted3(&par, j()),
            oracle3(&seq, |a: &R, b: &S, c: &T| {
                a.s == b.s && a.k == b.k && a.s == c.s && a.v == c.w
            }),
            R::s.index(),
        )?;

        // C keyed from B with no a→c pair: nothing to intersect.
        let j = || join3::<R, S, T>().on_ab(R::k, S::k).on_bc(S::s, T::s);
        check(
            "join3 on_bc only",
            emitted3(&seq, j()),
            emitted3(&par, j()),
            oracle3(&seq, |a: &R, b: &S, c: &T| a.k == b.k && b.s == c.s),
            R::k.index(),
        )?;

        // The triangle shape as a self-join over one relation.
        let j = || {
            join3::<R, R, R>()
                .on_ab(R::v, R::k)
                .on_bc(R::v, R::k)
                .on_ac(R::k, R::v)
        };
        check(
            "join3 self-join triangle",
            emitted3(&seq, j()),
            emitted3(&par, j()),
            oracle3(&seq, |a: &R, b: &R, c: &R| a.v == b.k && b.v == c.k && a.k == c.v),
            R::v.index(),
        )?;
    }
}
