//! Queries over the Gamma database.
//!
//! JStar rules query tables positively (`get Edge(dist.vertex)`), negatively
//! (`get uniq? Done(vertex) == null`), with predicates written as boolean
//! lambdas (`[distance < dist.distance]`), and with aggregates (§4). A
//! [`Query`] is the runtime representation the paper's compiler would
//! extract by static analysis of those expressions — conjunctive equality
//! constraints, range constraints and a residual predicate — which is what
//! lets the Gamma stores pick indexes.
//!
//! # Multi-relation joins
//!
//! A [`crate::relation::TypedQuery`] binds one table; joins across
//! tables have two typed forms sharing one execution contract:
//!
//! * **read-side**: [`crate::relation::join`]`::<A, B>()` /
//!   [`crate::relation::join3`] over shared [`crate::relation::Field`]
//!   tokens, evaluated by [`crate::engine::Engine::join_rel`] /
//!   `join3_rel` as one leapfrog sorted-merge walk over per-column
//!   ordered views of Gamma;
//! * **rule-side**: [`crate::program::ProgramBuilder::rule_rel_join`]
//!   and `rule_rel_join2`, whose inspectable plans the engine lowers
//!   onto the same merged-cursor walk when a wide class executes as a
//!   batched delta-join
//!   (see [`crate::engine::EngineConfig::delta_join_threshold`]); a
//!   plan with a keyless stage is a cross join and fires per tuple.
//!
//! **The variable order is fixed, never optimized.** Relations
//! intersect in the order the builder declares them, each keyed on the
//! column its *first* equality pair names; every further pair is a
//! residual filter inside matched groups. There are no statistics and
//! no planner — order the relations yourself (most selective first),
//! and read the cost directly off `RunReport::join_seeks` /
//! `join_cursor_opens` instead of guessing what a planner chose.
//!
//! Migrating a hand-written nested loop onto `join()`:
//!
//! ```
//! use jstar_core::jstar_table;
//! use jstar_core::prelude::*;
//! use std::sync::Arc;
//!
//! jstar_table! {
//!     #[derive(Copy, Eq)]
//!     pub Emp(int id, int dept) orderby (Emp)
//! }
//! jstar_table! {
//!     #[derive(Copy, Eq)]
//!     pub Dept(int dept, int floor) orderby (Dep)
//! }
//!
//! let mut p = ProgramBuilder::new();
//! p.relation::<Emp>();
//! p.relation::<Dept>();
//! p.order(&["Emp", "Dep"]);
//! p.put_rel(Emp { id: 1, dept: 7 });
//! p.put_rel(Emp { id: 2, dept: 9 });
//! p.put_rel(Dept { dept: 7, floor: 3 });
//! let mut engine = Engine::new(Arc::new(p.build()?), EngineConfig::sequential());
//! engine.run()?;
//!
//! // Before: a nested loop of single-table queries — one indexed
//! // probe per outer row.
//! let mut nested = Vec::new();
//! engine.for_each_rel_gamma(Emp::query(), |e: Emp| {
//!     engine.for_each_rel_gamma(Dept::query().eq(Dept::dept, e.dept), |d: Dept| {
//!         nested.push((e.id, d.floor));
//!         true
//!     });
//!     true
//! });
//!
//! // After: one typed join — both column views walked together.
//! let mut joined = Vec::new();
//! engine.join_rel(join::<Emp, Dept>().on(Emp::dept, Dept::dept), |e, d| {
//!     joined.push((e.id, d.floor));
//! });
//! assert_eq!(joined, vec![(1, 3)]);
//! assert_eq!(nested, joined);
//! # Result::Ok(())
//! ```

use crate::schema::TableId;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// A residual boolean predicate over a tuple (the `[...]` lambdas).
pub type Predicate = Arc<dyn Fn(&Tuple) -> bool + Send + Sync>;

/// A range constraint on one field.
#[derive(Clone)]
pub struct FieldRange {
    pub field: usize,
    pub lo: Bound<Value>,
    pub hi: Bound<Value>,
}

impl FieldRange {
    fn matches(&self, v: &Value) -> bool {
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(b) => v >= b,
            Bound::Excluded(b) => v > b,
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(b) => v <= b,
            Bound::Excluded(b) => v < b,
        };
        lo_ok && hi_ok
    }
}

/// A conjunctive query against one table.
#[derive(Clone)]
pub struct Query {
    pub table: TableId,
    /// Equality constraints `field == value`.
    pub eq: Vec<(usize, Value)>,
    /// Range constraints.
    pub ranges: Vec<FieldRange>,
    /// Residual boolean lambda (the `[...]` expressions of the paper).
    pub pred: Option<Predicate>,
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Query")
            .field("table", &self.table)
            .field("eq", &self.eq)
            .field("ranges", &self.ranges.len())
            .field("pred", &self.pred.is_some())
            .finish()
    }
}

impl Query {
    /// Starts an unconstrained query over `table`.
    pub fn on(table: TableId) -> Query {
        Query {
            table,
            eq: Vec::new(),
            ranges: Vec::new(),
            pred: None,
        }
    }

    /// Adds `field == value`.
    pub fn eq(mut self, field: usize, value: impl Into<Value>) -> Query {
        self.eq.push((field, value.into()));
        self
    }

    /// Adds `field == value` in place — the non-consuming twin of
    /// [`Query::eq`] for callers assembling a query inside a loop, such
    /// as a join rule's per-tuple body building one probe per stage.
    pub fn add_eq(&mut self, field: usize, value: Value) {
        self.eq.push((field, value));
    }

    /// Adds `field < value`.
    pub fn lt(mut self, field: usize, value: impl Into<Value>) -> Query {
        self.ranges.push(FieldRange {
            field,
            lo: Bound::Unbounded,
            hi: Bound::Excluded(value.into()),
        });
        self
    }

    /// Adds `field <= value`.
    pub fn le(mut self, field: usize, value: impl Into<Value>) -> Query {
        self.ranges.push(FieldRange {
            field,
            lo: Bound::Unbounded,
            hi: Bound::Included(value.into()),
        });
        self
    }

    /// Adds `field > value`.
    pub fn gt(mut self, field: usize, value: impl Into<Value>) -> Query {
        self.ranges.push(FieldRange {
            field,
            lo: Bound::Excluded(value.into()),
            hi: Bound::Unbounded,
        });
        self
    }

    /// Adds `field >= value`.
    pub fn ge(mut self, field: usize, value: impl Into<Value>) -> Query {
        self.ranges.push(FieldRange {
            field,
            lo: Bound::Included(value.into()),
            hi: Bound::Unbounded,
        });
        self
    }

    /// Adds a residual predicate (boolean lambda).
    pub fn filter(mut self, pred: impl Fn(&Tuple) -> bool + Send + Sync + 'static) -> Query {
        self.pred = Some(Arc::new(pred));
        self
    }

    /// True if `t` satisfies every constraint. Used by stores as the
    /// post-filter after any index narrowing.
    pub fn matches(&self, t: &Tuple) -> bool {
        debug_assert_eq!(t.table(), self.table);
        for (f, v) in &self.eq {
            if t.get(*f) != v {
                return false;
            }
        }
        for r in &self.ranges {
            if !r.matches(t.get(r.field)) {
                return false;
            }
        }
        match &self.pred {
            Some(p) => p(t),
            None => true,
        }
    }

    /// The equality value constraining `field`, if any — used by indexed
    /// stores to decide whether their index applies.
    pub fn eq_value(&self, field: usize) -> Option<&Value> {
        self.eq.iter().find(|(f, _)| *f == field).map(|(_, v)| v)
    }

    /// True if all of `fields` are equality-constrained (index usable).
    pub fn covers_fields(&self, fields: &[usize]) -> bool {
        fields.iter().all(|f| self.eq_value(*f).is_some())
    }

    /// Checks every constrained field index against `def`'s arity.
    ///
    /// Positional queries are built without schema access
    /// ([`Query::on`] only has a [`TableId`]), so this runs when the
    /// query first reaches the engine; an out-of-bounds index used to
    /// panic deep in a store or silently match nothing depending on the
    /// access path. Typed [`crate::relation::TypedQuery`] constraints
    /// cannot express an invalid field, so they skip straight through.
    pub fn validate(&self, def: &crate::schema::TableDef) -> crate::error::Result<()> {
        let arity = def.arity();
        let bad_field = self
            .eq
            .iter()
            .map(|(f, _)| *f)
            .chain(self.ranges.iter().map(|r| r.field))
            .find(|f| *f >= arity);
        match bad_field {
            Some(f) => Err(crate::error::JStarError::NoSuchField {
                table: def.name.clone(),
                field: format!("#{f}"),
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(fields: Vec<Value>) -> Tuple {
        Tuple::new(TableId(0), fields)
    }

    #[test]
    fn eq_constraint_matches() {
        let q = Query::on(TableId(0)).eq(0, 5i64);
        assert!(q.matches(&t(vec![Value::Int(5), Value::Int(9)])));
        assert!(!q.matches(&t(vec![Value::Int(4), Value::Int(9)])));
    }

    #[test]
    fn range_constraints() {
        let q = Query::on(TableId(0)).ge(1, 10i64).lt(1, 20i64);
        assert!(q.matches(&t(vec![Value::Int(0), Value::Int(10)])));
        assert!(q.matches(&t(vec![Value::Int(0), Value::Int(19)])));
        assert!(!q.matches(&t(vec![Value::Int(0), Value::Int(20)])));
        assert!(!q.matches(&t(vec![Value::Int(0), Value::Int(9)])));
    }

    #[test]
    fn gt_and_le() {
        let q = Query::on(TableId(0)).gt(0, 1i64).le(0, 3i64);
        assert!(!q.matches(&t(vec![Value::Int(1)])));
        assert!(q.matches(&t(vec![Value::Int(2)])));
        assert!(q.matches(&t(vec![Value::Int(3)])));
        assert!(!q.matches(&t(vec![Value::Int(4)])));
    }

    #[test]
    fn predicate_lambda() {
        // The paper's Done(dist.vertex, [distance < dist.distance]) shape.
        let q = Query::on(TableId(0)).eq(0, 3i64).filter(|t| t.int(1) < 100);
        assert!(q.matches(&t(vec![Value::Int(3), Value::Int(50)])));
        assert!(!q.matches(&t(vec![Value::Int(3), Value::Int(100)])));
    }

    #[test]
    fn covers_fields_for_indexes() {
        let q = Query::on(TableId(0)).eq(0, 1i64).eq(2, 2i64);
        assert!(q.covers_fields(&[0]));
        assert!(q.covers_fields(&[0, 2]));
        assert!(!q.covers_fields(&[0, 1]));
        assert_eq!(q.eq_value(2), Some(&Value::Int(2)));
        assert_eq!(q.eq_value(1), None);
    }

    #[test]
    fn conjunction_of_everything() {
        let q = Query::on(TableId(0))
            .eq(0, 1i64)
            .ge(1, 0i64)
            .filter(|t| t.int(1) % 2 == 0);
        assert!(q.matches(&t(vec![Value::Int(1), Value::Int(4)])));
        assert!(!q.matches(&t(vec![Value::Int(1), Value::Int(3)])));
        assert!(!q.matches(&t(vec![Value::Int(1), Value::Int(-2)])));
    }
}
