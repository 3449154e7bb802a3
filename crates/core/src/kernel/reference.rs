//! The single-cut search as a second, hook-free walk, kept as a cross-check.
//!
//! [`identify_single_cut_reference`] walks the paper's binary tree over the same
//! [`IncrementalCutState`] as the production search, sequentially and without the
//! `SearchHook` layer, pruning by the paper's categories (output ports, convexity,
//! node budget) and the input floor on both branches. The default search prunes by
//! exactly these rules, so the two agree field for field. It exists for two reasons:
//!
//! * **specification** — the property suite (`tests/cut_state.rs`) checks that the
//!   default search, sequential and split, returns this walk's cut and every one of
//!   its [`SearchStats`] fields;
//! * **cross-check** — the `scaling` bench gates every row on it (`matches_reference`,
//!   untimed), and perfbench's `search-exact` workload checks its smallest blocks
//!   against it.

use ise_hw::CostModel;
use ise_ir::Dfg;

use super::{BlockContext, BoundCheck, IncrementalCutState, Incumbent, SearchKernel, SearchPolicy};
use crate::constraints::Constraints;
use crate::search::{IdentifiedCut, SearchOutcome, SearchStats};

/// The original single-cut policy: binary decisions, the paper's pruning rules plus
/// the input floor against `input_limit`, compiled in when `FLOOR` is set (exactly
/// when `Nin` can bind).
struct ReferenceSingleCutPolicy<'a, const FLOOR: bool> {
    ctx: &'a BlockContext<'a>,
    input_limit: usize,
}

impl<const FLOOR: bool> SearchPolicy for ReferenceSingleCutPolicy<'_, FLOOR> {
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

    #[inline(always)]
    fn choice_count(&self, _state: &IncrementalCutState, _level: usize) -> usize {
        2
    }

    #[inline(always)]
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
            state.mark_outside(ctx, node, FLOOR);
            if FLOOR && state.input_floor() > self.input_limit {
                state.undo_last(ctx);
                return false;
            }
            return true;
        }
        if ctx.is_blocked(node) {
            return false;
        }
        let input_limit = FLOOR.then_some(self.input_limit);
        if !state.try_add(ctx, node, input_limit, BoundCheck::disabled(), stats) {
            return false;
        }
        if state.is_candidate(ctx) {
            incumbent.offer(state.merit(), || state.identified(ctx));
        }
        true
    }

    #[inline(always)]
    fn undo(&self, state: &mut IncrementalCutState, _level: usize, _choice: usize) {
        state.undo(self.ctx, FLOOR);
    }
}

/// Runs the single-cut search over the hook-free policy: sequential walk, the paper's
/// pruning categories plus the input floor — the cut and every [`SearchStats`] field of
/// the default search.
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
    let kernel = SearchKernel::sequential();
    let (best, stats) = match ctx.input_limit() {
        Some(input_limit) => kernel.run(&ReferenceSingleCutPolicy::<true> {
            ctx: &ctx,
            input_limit,
        }),
        None => kernel.run(&ReferenceSingleCutPolicy::<false> {
            ctx: &ctx,
            input_limit: 0,
        }),
    };
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

    /// The reference search reproduces the paper's Fig. 4 optimum, with the
    /// five-category stats identity (no bound category).
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
                + stats.pruned_inputs
        );
    }
}
