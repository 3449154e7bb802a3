//! Brute-force enumeration oracle.
//!
//! This module enumerates *all* `2^|V|` cuts of a basic block and evaluates each one with
//! the reference (non-incremental) implementations of [`crate::cut`]. It exists purely as
//! a correctness oracle for the pruned branch-and-bound search and for the property-based
//! tests; it is exponential with no pruning and must only be used on small graphs.
//!
//! The enumeration is driven by the same [`SearchKernel`] as
//! the exact searches — a binary decision tree over the plain node-index order, with a
//! policy that never prunes — so the oracle benefits from the kernel's subtree
//! parallelism while staying independent of the *incremental* bookkeeping it checks:
//! every enumerated cut is still evaluated from scratch with the reference functions.

use ise_hw::CostModel;
use ise_ir::{Dfg, NodeId};

use crate::constraints::Constraints;
use crate::cut::{self, CutSet};
use crate::kernel::{Incumbent, SearchKernel, SearchPolicy};
use crate::search::{IdentifiedCut, SearchStats};

/// Statistics of an exhaustive enumeration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExhaustiveStats {
    /// Total number of non-empty cuts enumerated (`2^|V| - 1`).
    pub cuts_enumerated: u64,
    /// Cuts satisfying all constraints (ports, convexity, legality, budgets).
    pub feasible_cuts: u64,
}

/// Result of an exhaustive enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveOutcome {
    /// The best feasible cut with strictly positive merit, if any.
    pub best: Option<IdentifiedCut>,
    /// Enumeration statistics.
    pub stats: ExhaustiveStats,
}

/// Enumerates every cut of `dfg` and returns the best feasible one.
///
/// # Panics
///
/// Panics if the graph has more than 24 nodes; the oracle is meant for tests only and
/// larger graphs would enumerate hundreds of millions of cuts.
#[must_use]
pub fn best_cut_exhaustive(
    dfg: &Dfg,
    constraints: Constraints,
    model: &dyn CostModel,
) -> ExhaustiveOutcome {
    best_cut_exhaustive_excluding(dfg, None, constraints, model)
}

/// Enumerates every cut of `dfg` avoiding the `excluded` nodes and returns the best
/// feasible one. This is the exclusion-aware variant used when the oracle is driven
/// through the [`crate::engine::Identifier`] trait by the iterative selection driver.
///
/// # Panics
///
/// Panics if the graph has more than 24 nodes (see [`best_cut_exhaustive`]).
#[must_use]
pub fn best_cut_exhaustive_excluding(
    dfg: &Dfg,
    excluded: Option<&CutSet>,
    constraints: Constraints,
    model: &dyn CostModel,
) -> ExhaustiveOutcome {
    best_cut_exhaustive_split(dfg, excluded, constraints, model, 0)
}

/// The oracle's policy over the shared kernel: a binary tree over the plain node-index
/// order, with no pruning — every branch is taken, so every non-empty subset is
/// enumerated exactly once (at the decision that adds its highest-index node). Each
/// enumerated cut is checked and scored from scratch with the reference implementations
/// of [`crate::cut`].
struct ExhaustivePolicy<'a> {
    dfg: &'a Dfg,
    model: &'a dyn CostModel,
    constraints: Constraints,
    excluded: Option<&'a CutSet>,
}

impl SearchPolicy for ExhaustivePolicy<'_> {
    type Sink = Incumbent<IdentifiedCut>;
    /// The members chosen so far, in index order.
    type State = Vec<NodeId>;

    fn depth(&self) -> usize {
        self.dfg.node_count()
    }

    fn max_arity(&self) -> usize {
        2
    }

    fn initial_state(&self) -> Vec<NodeId> {
        Vec::new()
    }

    fn choice_count(&self, _state: &Vec<NodeId>, _level: usize) -> usize {
        2
    }

    fn apply(
        &self,
        state: &mut Vec<NodeId>,
        level: usize,
        choice: usize,
        stats: &mut SearchStats,
        incumbent: &mut Incumbent<IdentifiedCut>,
    ) -> bool {
        if choice == 1 {
            return true; // leave the node out: nothing to track
        }
        state.push(NodeId::new(level));
        stats.cuts_considered += 1;
        let cut = CutSet::from_nodes(self.dfg, state.iter().copied());
        if self.excluded.is_some_and(|banned| cut.intersects(banned)) {
            return true;
        }
        if !cut::is_afu_legal(self.dfg, &cut) {
            return true;
        }
        let evaluation = cut::evaluate(self.dfg, &cut, self.model);
        if !evaluation.convex
            || !self
                .constraints
                .ports_ok(evaluation.inputs, evaluation.outputs)
            || !self
                .constraints
                .budget_ok(evaluation.area, evaluation.nodes)
        {
            return true;
        }
        stats.feasible_cuts += 1;
        incumbent.offer(evaluation.merit, || IdentifiedCut { cut, evaluation });
        true
    }

    fn undo(&self, state: &mut Vec<NodeId>, _level: usize, choice: usize) {
        if choice == 0 {
            state.pop();
        }
    }
}

/// [`best_cut_exhaustive_excluding`] with the kernel's subtree parallelism: the top
/// `split_levels` decision levels fan out as independent tasks. The outcome is
/// byte-identical to the sequential enumeration.
///
/// # Panics
///
/// Panics if the graph has more than 24 nodes (see [`best_cut_exhaustive`]).
#[must_use]
pub fn best_cut_exhaustive_split(
    dfg: &Dfg,
    excluded: Option<&CutSet>,
    constraints: Constraints,
    model: &dyn CostModel,
    split_levels: usize,
) -> ExhaustiveOutcome {
    let n = dfg.node_count();
    assert!(
        n <= 24,
        "exhaustive enumeration is a test oracle; {n} nodes is too large"
    );
    let policy = ExhaustivePolicy {
        dfg,
        model,
        constraints,
        excluded,
    };
    let kernel = SearchKernel::sequential().with_split_levels(split_levels);
    let (best, stats) = kernel.run(&policy);
    ExhaustiveOutcome {
        best,
        stats: ExhaustiveStats {
            cuts_enumerated: stats.cuts_considered,
            feasible_cuts: stats.feasible_cuts,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::identify_single_cut;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    fn sample() -> Dfg {
        let mut b = DfgBuilder::new("sample");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let m = b.mul(x, y);
        let s = b.add(m, z);
        let c = b.gt(s, b.imm(255));
        let sat = b.select(c, b.imm(255), s);
        let t = b.xor(sat, y);
        b.output("o", t);
        b.finish()
    }

    #[test]
    fn oracle_and_search_agree_on_the_best_merit() {
        let g = sample();
        let model = DefaultCostModel::new();
        for constraints in Constraints::paper_sweep() {
            let oracle = best_cut_exhaustive(&g, constraints, &model);
            let fast = identify_single_cut(&g, constraints, &model);
            let oracle_merit = oracle.best.as_ref().map_or(0.0, |b| b.evaluation.merit);
            let fast_merit = fast.best.as_ref().map_or(0.0, |b| b.evaluation.merit);
            assert_eq!(oracle_merit, fast_merit, "constraints {constraints}");
        }
    }

    #[test]
    fn enumeration_counts_all_cuts() {
        let g = sample();
        let model = DefaultCostModel::new();
        let outcome = best_cut_exhaustive(&g, Constraints::new(4, 2), &model);
        assert_eq!(outcome.stats.cuts_enumerated, (1 << g.node_count()) - 1);
        assert!(outcome.stats.feasible_cuts > 0);
        assert!(outcome.stats.feasible_cuts < outcome.stats.cuts_enumerated);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oracle_refuses_large_graphs() {
        let mut b = DfgBuilder::new("big");
        let x = b.input("x");
        let mut v = x;
        for _ in 0..30 {
            v = b.add(v, b.imm(1));
        }
        b.output("o", v);
        let g = b.finish();
        let model = DefaultCostModel::new();
        let _ = best_cut_exhaustive(&g, Constraints::new(2, 1), &model);
    }
}
