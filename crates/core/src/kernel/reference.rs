//! The single-cut search without the frontier bound, kept as a baseline.
//!
//! [`identify_single_cut_reference`] walks the paper's binary tree over the same
//! [`IncrementalCutState`] as the production search, but sequentially and with the
//! bound disabled, so it prunes only by the original categories (output ports,
//! convexity, node budget). It exists for two reasons:
//!
//! * **specification** — the property suite (`tests/cut_state.rs`) checks that the
//!   bounded search returns the same selection and `best_updates` as this walk while
//!   never considering more cuts;
//! * **baseline** — it is the "reference" row of the scaling bench, so the cost of the
//!   frontier bound and the search hook is measured against the walk without them.

use ise_hw::CostModel;
use ise_ir::Dfg;

use super::{BlockContext, BoundCheck, IncrementalCutState, Incumbent, SearchKernel, SearchPolicy};
use crate::constraints::Constraints;
use crate::search::{IdentifiedCut, SearchOutcome, SearchStats};

/// The original single-cut policy: binary decisions, no frontier bound.
struct ReferenceSingleCutPolicy<'a> {
    ctx: &'a BlockContext<'a>,
}

impl SearchPolicy for ReferenceSingleCutPolicy<'_> {
    type Sink = Incumbent<IdentifiedCut>;
    type State = IncrementalCutState;

    fn depth(&self) -> usize {
        self.ctx.depth()
    }

    fn max_arity(&self) -> usize {
        2
    }

    fn initial_state(&self) -> IncrementalCutState {
        IncrementalCutState::new(self.ctx)
    }

    fn choice_count(&self, _state: &IncrementalCutState, _level: usize) -> usize {
        2
    }

    fn apply(
        &self,
        state: &mut IncrementalCutState,
        level: usize,
        choice: usize,
        stats: &mut SearchStats,
        incumbent: &mut Incumbent<IdentifiedCut>,
    ) -> bool {
        let ctx = self.ctx;
        let node = ctx.node_at(level);
        if choice == 1 {
            state.mark_outside(ctx, node);
            return true;
        }
        if ctx.is_blocked(node) {
            return false;
        }
        if !state.try_add(ctx, node, BoundCheck::disabled(), stats) {
            return false;
        }
        if state.is_candidate(ctx) {
            incumbent.offer(state.merit(), || state.identified(ctx));
        }
        true
    }

    fn undo(&self, state: &mut IncrementalCutState, _level: usize, _choice: usize) {
        state.undo_last(self.ctx);
    }
}

/// Runs the single-cut search with no frontier bound: sequential walk, the original
/// pruning categories only — the selection of the bounded search, with the full
/// effort counts of the unbounded tree.
///
/// This is the "before" measurement of the scaling bench and the search-level anchor of
/// the property suite; production callers should use
/// [`identify_single_cut`](crate::search::identify_single_cut).
#[must_use]
pub fn identify_single_cut_reference(
    dfg: &Dfg,
    constraints: Constraints,
    model: &dyn CostModel,
) -> SearchOutcome {
    let ctx = BlockContext::new(dfg, constraints, model);
    let policy = ReferenceSingleCutPolicy { ctx: &ctx };
    let (best, stats) = SearchKernel::sequential().run(&policy);
    SearchOutcome::from_best(best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    fn fig4() -> Dfg {
        let mut b = DfgBuilder::new("fig4");
        let x = b.input("x");
        let y = b.input("y");
        let mul = b.mul(x, y);
        let shr = b.lshr(mul, b.imm(2));
        let add1 = b.add(mul, y);
        let add0 = b.add(shr, add1);
        b.output("out", add0);
        b.finish()
    }

    /// The reference search still reproduces the paper's Fig. 4 optimum, with the
    /// original four-category stats identity (no bound category).
    #[test]
    fn reference_search_matches_the_paper_example() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let outcome = identify_single_cut_reference(&g, Constraints::new(2, 1), &model);
        let best = outcome.best.expect("a profitable cut exists");
        assert_eq!(best.cut.len(), 4);
        assert_eq!(best.evaluation.merit, 3.0);
        let stats = outcome.stats;
        assert_eq!(stats.pruned_bound, 0, "the reference search has no bound");
        assert_eq!(stats.bound_subtree_prunes, 0);
        assert_eq!(
            stats.cuts_considered,
            stats.feasible_cuts
                + stats.pruned_output
                + stats.pruned_convexity
                + stats.pruned_node_budget
        );
    }
}
