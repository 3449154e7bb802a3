//! Single-cut identification: the exact branch-and-bound search of Section 6.1.
//!
//! The algorithm explores the `2^|V|` possible cuts of a basic block with a binary
//! search tree built over a topological ordering in which every node appears *after*
//! its consumers. At each tree node it checks the register-file output-port constraint
//! and the convexity constraint; when either fails, the whole subtree can be
//! eliminated, because nodes added later in the ordering are always (transitive)
//! producers of the already-decided nodes and can therefore neither remove an external
//! consumer nor re-establish convexity. The paper does not prune on the input-port
//! constraint, because adding a producer may *reduce* the number of inputs; it checks
//! `IN(S)` only when a candidate is evaluated. This search also prunes on the part of
//! `IN(S)` that cannot shrink — the block inputs members read plus the member-read nodes
//! decided outside, the kernel's [input floor](crate::kernel#the-input-floor) — on both
//! branches, whenever `Nin` can bind. The selection is the paper's; the effort counters
//! are smaller (at an unbounded `Nin`, as in Fig. 8, they are the paper's).
//!
//! All bookkeeping — `IN(S)`, `OUT(S)`, convexity reachability, software cost, hardware
//! critical path and area — is maintained incrementally in `O(fan-in + fan-out)` per
//! step by a [`IncrementalCutState`], giving the `O(1)`-per-step behaviour (for
//! bounded-degree graphs) claimed in the paper. The tree walk itself lives in the shared
//! [`SearchKernel`](crate::kernel::SearchKernel): this module only supplies the
//! single-cut *policy* — a binary tree (include the node / leave it in software) with
//! the paper's pruning rules — and the same kernel also drives the multiple-cut search
//! and the exhaustive oracle, sequentially or with intra-block subtree parallelism.
//! The policy is generic over its [`SearchHook`] sink: a direct search records into an
//! [`Incumbent`], and a pool fill ([`crate::pool`]) runs the very same policy with a
//! recording sink.

use ise_hw::CostModel;
use ise_ir::Dfg;

use crate::constraints::Constraints;
use crate::cut::{CutEvaluation, CutSet};
use std::marker::PhantomData;

use crate::kernel::{
    Attempt, BlockContext, BoundCheck, IncrementalCutState, Incumbent, SearchHook, SearchKernel,
    SearchPolicy,
};

/// Counters describing one run of the identification algorithm.
///
/// `cuts_considered` is the quantity plotted against graph size in Fig. 8 of the paper:
/// the number of distinct non-empty cuts for which the feasibility checks were evaluated
/// (the pruned subtrees below failing cuts are never counted). Every considered cut
/// lands in exactly one category:
/// `considered = feasible + output + convexity + node_budget + inputs + bound`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchStats {
    /// Distinct non-empty cuts whose feasibility checks were evaluated.
    pub cuts_considered: u64,
    /// Cuts that passed every pruning check.
    pub feasible_cuts: u64,
    /// Cuts rejected (with their subtree) by the output-port check.
    pub pruned_output: u64,
    /// Cuts rejected (with their subtree) by the convexity check.
    pub pruned_convexity: u64,
    /// Cuts rejected (with their subtree) by the optional node-count budget.
    pub pruned_node_budget: u64,
    /// Cuts rejected (with their subtree) because their input floor passes `Nin`
    /// (single-cut searches only; see the kernel's
    /// [input floor](crate::kernel#the-input-floor)). Zero at an unbounded `Nin`.
    pub pruned_inputs: u64,
    /// Cuts rejected (with their subtree) by the opt-in incumbent bound (for the
    /// multiple-cut search, also by a slot's block-input floor). Zero in the default
    /// search.
    pub pruned_bound: u64,
    /// Software branches whose whole subtree the opt-in incumbent bound skipped
    /// *before* any cut was attempted; not part of the `cuts_considered` identity,
    /// since no cut was counted. Zero in the default search.
    pub bound_subtree_prunes: u64,
    /// Number of times the incumbent best cut was improved.
    pub best_updates: u64,
    /// True when the optional exploration budget stopped the search early; the result is
    /// then a lower bound rather than the proven optimum.
    pub budget_exhausted: bool,
}

/// A cut returned by an identification algorithm, together with its evaluation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IdentifiedCut {
    /// The selected nodes.
    pub cut: CutSet,
    /// The cut's microarchitectural and cost evaluation.
    pub evaluation: CutEvaluation,
}

/// Result of one identification run, shared by every [`crate::engine::Identifier`].
///
/// Algorithms that return a single best cut (the exact single-cut search, the exhaustive
/// oracle) report it both in `best` and as the only element of `candidates`; algorithms
/// that enumerate several disjoint candidates per block (the multiple-cut search, the
/// Clubbing/MaxMISO/single-node baselines) report them all in `candidates`, with `best`
/// set to the maximal-merit one.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SearchOutcome {
    /// The maximal-merit cut satisfying all constraints, if any cut with positive merit
    /// exists.
    pub best: Option<IdentifiedCut>,
    /// All candidate cuts reported by the algorithm, sorted by decreasing merit.
    /// Candidates from one invocation are pairwise disjoint.
    pub candidates: Vec<IdentifiedCut>,
    /// Search statistics.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// An outcome holding at most one cut.
    #[must_use]
    pub fn from_best(best: Option<IdentifiedCut>, stats: SearchStats) -> Self {
        SearchOutcome {
            candidates: best.iter().cloned().collect(),
            best,
            stats,
        }
    }

    /// An outcome holding a set of disjoint candidates; `best` becomes the maximal-merit
    /// one and the candidates are sorted by decreasing merit (ties keep their original
    /// relative order, so the result is deterministic).
    #[must_use]
    pub fn from_candidates(mut candidates: Vec<IdentifiedCut>, stats: SearchStats) -> Self {
        candidates.sort_by(|a, b| {
            b.evaluation
                .merit
                .partial_cmp(&a.evaluation.merit)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        SearchOutcome {
            best: candidates.first().cloned(),
            candidates,
            stats,
        }
    }

    /// Merit of the best cut, or zero when no profitable cut was found.
    #[must_use]
    pub fn best_merit(&self) -> f64 {
        self.best.as_ref().map_or(0.0, |c| c.evaluation.merit)
    }

    /// Sum of the merits of all reported candidates.
    #[must_use]
    pub fn total_merit(&self) -> f64 {
        self.candidates.iter().map(|c| c.evaluation.merit).sum()
    }
}

/// The single-cut policy over the shared kernel: a binary decision per node.
///
/// Choice `0` tries to add the node to the cut (the 1-branch of Fig. 6, with the
/// output-port / convexity / node-budget / input-floor pruning); choice `1` leaves it in
/// software, unless that pushes the input floor past `input_limit`.
///
/// `incumbent_bound` (off by default) adds the incumbent bound of the kernel: both
/// branches also prune a subtree whose optimistic merit cannot beat the incumbent's
/// score. It reads visit-order-dependent state and therefore forces the sequential
/// walk.
///
/// The sink `H` sees every attempt and every candidate: an [`Incumbent`] for a direct
/// search, the recorder of `crate::pool` for a pool fill — one walk serves both.
///
/// `FLOOR` compiles the input-floor steps in: set when the walk prunes on the floor
/// (`input_limit` is `Some`) or its sink records it (a pool fill, whatever its `Nin`).
/// A direct search at an unbounded `Nin` runs without them, as the paper's walk.
struct SingleCutPolicy<'a, H, const FLOOR: bool> {
    ctx: &'a BlockContext<'a>,
    /// [`BlockContext::input_limit`], read once per walk.
    input_limit: Option<usize>,
    incumbent_bound: bool,
    sink: PhantomData<fn() -> H>,
}

impl<H: SearchHook<IdentifiedCut>, const FLOOR: bool> SearchPolicy
    for SingleCutPolicy<'_, H, FLOOR>
{
    type Sink = H;
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
        sink: &mut H,
    ) -> bool {
        let ctx = self.ctx;
        let node = ctx.node_at(level);
        if choice == 1 {
            // 0-branch: leave `node` out of the cut — unless, in incumbent mode, even
            // the optimistic merit of the remaining frontier cannot beat the incumbent,
            // or that pushes the input floor past `Nin`: then the whole subtree is
            // skipped before any cut is attempted.
            if self.incumbent_bound
                && state.optimistic_without(ctx, level) <= sink.bound_threshold()
            {
                stats.bound_subtree_prunes += 1;
                return false;
            }
            state.mark_outside(ctx, node, FLOOR);
            // A node a member reads joins the floor; past `Nin`, nothing below is
            // feasible.
            if FLOOR
                && self
                    .input_limit
                    .is_some_and(|limit| state.input_floor() > limit)
            {
                state.undo_last(ctx);
                return false;
            }
            return true;
        }
        // 1-branch: try adding `node` to the cut (shared probe/prune/count logic).
        if ctx.is_blocked(node) {
            return false;
        }
        let bound = if self.incumbent_bound {
            BoundCheck {
                optimistic: state.optimistic_with(ctx, level),
                threshold: sink.bound_threshold(),
            }
        } else {
            BoundCheck::disabled()
        };
        let probe = state.probe_add(ctx, node);
        let (prefix, within_budget) = (state.outputs(), state.within_node_budget(ctx));
        if FLOOR {
            let floor = state.input_floor();
            let attempt = state.try_add_probed(ctx, node, probe, self.input_limit, bound, stats);
            let attempt_floor = match attempt {
                Attempt::Added => state.input_floor(),
                Attempt::OverFloor(over) => over,
                Attempt::Pruned => floor,
            };
            sink.attempt(prefix, probe, within_budget, (floor, attempt_floor));
            if attempt != Attempt::Added {
                return false;
            }
        } else {
            sink.attempt(prefix, probe, within_budget, (0, 0));
            if state.try_add_probed(ctx, node, probe, None, bound, stats) != Attempt::Added {
                return false;
            }
        }
        if state.is_candidate(ctx) {
            sink.offer(state.inputs(), state.outputs(), state.merit(), || {
                state.identified(ctx)
            });
        }
        true
    }

    #[inline(always)]
    fn undo(&self, state: &mut IncrementalCutState, _level: usize, _choice: usize) {
        state.undo(self.ctx, FLOOR);
    }

    fn requires_sequential(&self) -> bool {
        self.incumbent_bound
    }
}

/// The exact single-cut identification algorithm (Fig. 6 of the paper), as a
/// configured front over the shared [`SearchKernel`].
pub struct SingleCutSearch<'a> {
    ctx: BlockContext<'a>,
    kernel: SearchKernel,
    incumbent_bound: bool,
}

impl<'a> SingleCutSearch<'a> {
    /// Prepares a search over `dfg` under `constraints`, using `model` for the merit
    /// function.
    #[must_use]
    pub fn new(dfg: &'a Dfg, constraints: Constraints, model: &'a dyn CostModel) -> Self {
        SingleCutSearch {
            ctx: BlockContext::new(dfg, constraints, model),
            kernel: SearchKernel::sequential(),
            incumbent_bound: false,
        }
    }

    /// Enables the incumbent bound: subtrees whose optimistic merit cannot beat the
    /// incumbent's score are pruned too.
    ///
    /// The selection (and even `best_updates`) provably stays identical — a pruned
    /// subtree only holds cuts that cannot strictly beat the incumbent — but the effort
    /// counters shrink and become visit-order-dependent, so this mode forces the
    /// sequential walk and is kept out of the deterministic engine/pool paths; it is
    /// the fastest way to answer "best single cut" when reproducible effort accounting
    /// and parallelism don't matter.
    #[must_use]
    pub fn with_incumbent_bound(mut self) -> Self {
        self.incumbent_bound = true;
        self
    }

    /// Additionally forbids the given nodes from entering any cut.
    ///
    /// The iterative selection algorithm (Section 6.3) uses this to exclude nodes already
    /// absorbed by previously chosen instructions.
    #[must_use]
    pub fn with_excluded(mut self, excluded: &CutSet) -> Self {
        self.ctx.block_nodes(excluded);
        self
    }

    /// Limits the number of cuts considered; when the budget is exhausted the incumbent
    /// best cut is returned and [`SearchStats::budget_exhausted`] is set.
    ///
    /// A budget is a global sequential cap, so it disables subtree parallelism.
    #[must_use]
    pub fn with_exploration_budget(mut self, budget: u64) -> Self {
        self.kernel.exploration_budget = Some(budget);
        self
    }

    /// Splits the top `levels` decision-tree levels into parallel subtree tasks.
    ///
    /// The outcome — cuts and [`SearchStats`] alike — is byte-identical to the
    /// sequential search; only wall-clock time changes. `0` (the default) keeps the
    /// search sequential.
    #[must_use]
    pub fn with_subtree_parallelism(mut self, levels: usize) -> Self {
        self.kernel.split_levels = levels;
        self
    }

    /// Runs the search and returns the best cut found together with statistics.
    #[must_use]
    pub fn run(self) -> SearchOutcome {
        type Direct = Incumbent<IdentifiedCut>;
        let (best, stats) = if self.ctx.input_limit().is_some() {
            self.kernel.run(&self.policy::<Direct, true>())
        } else {
            self.kernel.run(&self.policy::<Direct, false>())
        };
        SearchOutcome::from_best(best, stats)
    }

    /// Runs the search recording into `sink` (split like a direct search) and hands
    /// the sink back. The walk keeps the input floor whatever `Nin`: the pool's
    /// recorder files every attempt under it.
    pub(crate) fn run_into<H: SearchHook<IdentifiedCut>>(self, sink: H) -> (H, SearchStats) {
        self.kernel.run_into(&self.policy::<H, true>(), sink)
    }

    fn policy<H, const FLOOR: bool>(&self) -> SingleCutPolicy<'_, H, FLOOR> {
        SingleCutPolicy {
            ctx: &self.ctx,
            input_limit: self.ctx.input_limit(),
            incumbent_bound: self.incumbent_bound,
            sink: PhantomData,
        }
    }
}

/// Convenience wrapper: runs a [`SingleCutSearch`] with no exclusions.
#[must_use]
pub fn identify_single_cut(
    dfg: &Dfg,
    constraints: Constraints,
    model: &dyn CostModel,
) -> SearchOutcome {
    SingleCutSearch::new(dfg, constraints, model).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut;
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

    #[test]
    fn finds_the_whole_graph_when_ports_allow_it() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let outcome = identify_single_cut(&g, Constraints::new(2, 1), &model);
        let best = outcome.best.expect("a profitable cut exists");
        assert_eq!(best.cut.len(), 4);
        assert_eq!(best.evaluation.inputs, 2);
        assert_eq!(best.evaluation.outputs, 1);
        assert_eq!(best.evaluation.merit, 3.0);
        assert!(best.evaluation.convex);
    }

    #[test]
    fn incremental_evaluation_matches_reference_evaluation() {
        let g = fig4();
        let model = DefaultCostModel::new();
        for constraints in Constraints::paper_sweep() {
            let outcome = identify_single_cut(&g, constraints, &model);
            if let Some(best) = outcome.best {
                let reference = cut::evaluate(&g, &best.cut, &model);
                assert_eq!(best.evaluation.inputs, reference.inputs);
                assert_eq!(best.evaluation.outputs, reference.outputs);
                assert_eq!(best.evaluation.software_cycles, reference.software_cycles);
                assert!(
                    (best.evaluation.hardware_critical_path - reference.hardware_critical_path)
                        .abs()
                        < 1e-9
                );
                assert_eq!(best.evaluation.merit, reference.merit);
            }
        }
    }

    #[test]
    fn search_tree_is_pruned() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let outcome = identify_single_cut(&g, Constraints::new(8, 1), &model);
        let stats = outcome.stats;
        // 15 non-empty cuts exist; pruning must remove at least one of them.
        assert!(stats.cuts_considered < 15);
        assert_eq!(
            stats.cuts_considered,
            stats.feasible_cuts
                + stats.pruned_output
                + stats.pruned_convexity
                + stats.pruned_node_budget
                + stats.pruned_inputs
                + stats.pruned_bound
        );
        assert!(stats.pruned_output > 0);
        assert!(!stats.budget_exhausted);
    }

    /// The opt-in incumbent-score bound keeps the selection (and `best_updates`)
    /// identical while never exploring more than the default search.
    #[test]
    fn incumbent_bound_preserves_the_selection() {
        let graphs = [fig4(), {
            let mut b = DfgBuilder::new("wide");
            let x = b.input("x");
            let y = b.input("y");
            for i in 0..6 {
                let s = b.add(x, b.imm(i));
                let t = b.mul(s, y);
                b.output(format!("o{i}"), t);
            }
            b.finish()
        }];
        let model = DefaultCostModel::new();
        for g in &graphs {
            for constraints in [
                Constraints::new(2, 1),
                Constraints::new(4, 2),
                Constraints::new(8, 4),
            ] {
                let default = SingleCutSearch::new(g, constraints, &model).run();
                let bounded = SingleCutSearch::new(g, constraints, &model)
                    .with_incumbent_bound()
                    .run();
                assert_eq!(default.best, bounded.best, "{}: selection", g.name());
                assert_eq!(
                    default.stats.best_updates,
                    bounded.stats.best_updates,
                    "{}: update log",
                    g.name()
                );
                assert!(
                    bounded.stats.cuts_considered <= default.stats.cuts_considered,
                    "{}: the sharper threshold must not explore more",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn memory_nodes_never_enter_a_cut() {
        let mut b = DfgBuilder::new("mem");
        let base = b.input("base");
        let idx = b.input("idx");
        let addr = b.add(base, idx);
        let v = b.load(addr);
        let w = b.mul(v, v);
        let s = b.add(w, idx);
        b.output("o", s);
        let g = b.finish();
        let model = DefaultCostModel::new();
        let outcome = identify_single_cut(&g, Constraints::new(4, 4), &model);
        let best = outcome.best.expect("mul/add cluster is profitable");
        assert!(cut::is_afu_legal(&g, &best.cut));
        for id in best.cut.iter() {
            assert!(!g.node(id).opcode.is_memory());
        }
    }

    #[test]
    fn excluded_nodes_are_respected() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let all = identify_single_cut(&g, Constraints::new(4, 2), &model)
            .best
            .unwrap();
        let excluded = all.cut.clone();
        let outcome = SingleCutSearch::new(&g, Constraints::new(4, 2), &model)
            .with_excluded(&excluded)
            .run();
        assert!(outcome.best.is_none(), "all profitable nodes were excluded");
    }

    #[test]
    fn exploration_budget_terminates_early() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let outcome = SingleCutSearch::new(&g, Constraints::new(4, 2), &model)
            .with_exploration_budget(2)
            .run();
        assert!(outcome.stats.budget_exhausted);
        assert!(outcome.stats.cuts_considered <= 3);
    }

    #[test]
    fn single_logic_op_is_not_profitable() {
        let mut b = DfgBuilder::new("xor");
        let x = b.input("x");
        let y = b.input("y");
        let v = b.xor(x, y);
        b.output("o", v);
        let g = b.finish();
        let model = DefaultCostModel::new();
        let outcome = identify_single_cut(&g, Constraints::new(2, 1), &model);
        // One 1-cycle instruction replaced by one 1-cycle instruction: no gain.
        assert!(outcome.best.is_none());
        assert_eq!(outcome.best_merit(), 0.0);
    }

    #[test]
    fn empty_graph_yields_no_cut() {
        let g = Dfg::new("empty");
        let model = DefaultCostModel::new();
        let outcome = identify_single_cut(&g, Constraints::new(2, 1), &model);
        assert!(outcome.best.is_none());
        assert_eq!(outcome.stats.cuts_considered, 0);
    }

    #[test]
    fn tighter_output_constraint_prunes_more() {
        let mut b = DfgBuilder::new("wide");
        let x = b.input("x");
        let y = b.input("y");
        let mut leaves = Vec::new();
        for i in 0..6 {
            let s = b.add(x, b.imm(i));
            let t = b.mul(s, y);
            leaves.push(t);
            b.output(format!("o{i}"), t);
        }
        let g = b.finish();
        let model = DefaultCostModel::new();
        let tight = identify_single_cut(&g, Constraints::new(8, 1), &model).stats;
        let loose = identify_single_cut(&g, Constraints::new(8, 4), &model).stats;
        assert!(tight.cuts_considered < loose.cuts_considered);
    }
}
