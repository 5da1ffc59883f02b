//! Rules — the computation of a JStar program (§3).
//!
//! "Each rule inspects the existing database, makes calculations and
//! decisions, and can then add tuples to one or more tables." A rule is
//! triggered by tuples of one table (the `foreach (Ship s)` header); its
//! body receives the trigger tuple and a [`crate::engine::RuleCtx`] through
//! which it queries Gamma and `put`s new tuples.

use crate::causality::CausalityModel;
use crate::engine::RuleCtx;
use crate::schema::TableId;
use crate::tuple::Tuple;
use std::sync::Arc;

/// The executable body of a rule. Bodies must be deterministic functions of
/// the trigger tuple and the database for JStar's deterministic-parallelism
/// guarantee (§1.3) to hold; they are called concurrently by the parallel
/// engine, hence `Send + Sync`.
pub type RuleBody = Arc<dyn Fn(&RuleCtx<'_>, &Tuple) + Send + Sync>;

/// Emission step of a [`JoinPlan`]: called once per matched row
/// combination `[trigger, stage1_probed, stage2_probed, ...]` (one
/// tuple per relation of the join, in stage order). Any residual
/// condition is tested here, before `put`ting result tuples through
/// the context.
pub type JoinEmit = Arc<dyn Fn(&RuleCtx<'_>, &[&Tuple]) + Send + Sync>;

/// One probe stage of a [`JoinPlan`] or of a read-side join: a table
/// to probe and the equi-join keys binding it to rows already matched.
/// Stages are lowered from a typed [`crate::relation::join`] or
/// [`crate::relation::join3`] key set, for rules and queries alike.
#[derive(Debug, Clone)]
pub struct JoinStage {
    /// The Gamma table this stage probes.
    pub probe_table: TableId,
    /// Equi-join pairs `((row, field), probe_field)`: field `field` of
    /// row `row` equates to `probe_field` of this stage's candidate.
    /// Row 0 is the trigger tuple and row `s + 1` is `stages[s]`'s
    /// probed tuple, so `stages[s]` may reference rows `0..=s`. Which
    /// pair a walk seeks on, which it intersects and which it checks
    /// is decided by one rule over these pairs (the engine's `join`
    /// module).
    pub keys: Vec<((usize, usize), usize)>,
}

/// An inspectable (join → emit) plan for a rule body.
///
/// Rules registered through
/// [`crate::program::ProgramBuilder::rule_rel_join`] (one probe stage,
/// keyed by a [`crate::relation::join`]) or
/// [`crate::program::ProgramBuilder::rule_rel_join2`] (two stages,
/// keyed by a [`crate::relation::join3`]) expose their constraint
/// structure instead of hiding it inside an opaque closure: for each
/// trigger tuple, probe the stages in order — each stage's candidates
/// constrained by equi-join keys against rows already matched — and
/// run `emit` on each full row combination. The variable order is
/// fixed by stage declaration order (no cost-based optimizer). The
/// stages are the ones the same key set gives a read-side query.
///
/// The engine uses the shape to switch a whole extracted class to
/// **delta-join execution** when the class clears
/// [`crate::engine::EngineConfig::delta_join_threshold`]: the class is
/// indexed on stage 0's first trigger field and driven through the
/// same leapfrog walk that evaluates [`crate::relation::join`] and
/// [`crate::relation::join3`] queries — one walk per class instead of
/// one indexed probe per tuple. The synthesized per-tuple body remains
/// the below-threshold fallback, and it is also the only execution of
/// a plan with a keyless stage: such a stage is a cross join with no
/// column for a cursor to seek on, so the class fires per tuple at any
/// size. Every mode produces the same emissions.
pub struct JoinPlan {
    /// The probe stages, in fixed variable order.
    pub stages: Vec<JoinStage>,
    /// Emission per matched row combination.
    pub emit: JoinEmit,
}

impl JoinPlan {
    /// True when every stage has at least one equi-join key — the plans
    /// delta-join execution can walk with column cursors. A keyless
    /// stage makes the plan a cross join, which always fires per tuple.
    pub(crate) fn is_keyed(&self) -> bool {
        self.stages.iter().all(|s| !s.keys.is_empty())
    }
}

impl std::fmt::Debug for JoinPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinPlan")
            .field("stages", &self.stages)
            .finish()
    }
}

/// A JStar rule.
pub struct Rule {
    /// Diagnostic name.
    pub name: String,
    /// The table whose tuples trigger this rule.
    pub trigger: TableId,
    /// The rule body.
    pub body: RuleBody,
    /// Optional causality model for static checking (§4). Rules without a
    /// model are reported as unproved by strict validation, mirroring the
    /// compiler warning the paper describes.
    pub model: Option<CausalityModel>,
    /// Inspectable (join → emit) shape, when the rule was
    /// registered through a join-aware path. `None` marks an opaque
    /// closure body, which the engine always executes per tuple.
    pub plan: Option<Arc<JoinPlan>>,
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("trigger", &self.trigger)
            .field("has_model", &self.model.is_some())
            .field("plan", &self.plan)
            .finish()
    }
}
