//! Multiple-cut identification: the (M+1)-ary search tree of Section 6.2.
//!
//! To select several instructions from the *same* basic block optimally, the paper
//! generalises the binary search tree of the single-cut algorithm to a tree in which
//! every level makes `M + 1` branches: node `i` is either left in software or assigned to
//! one of the `M` cuts under construction (Fig. 9). Each cut must individually satisfy
//! the output-port, convexity and input-port constraints; the objective is the sum of the
//! cuts' merits. The same subtree-elimination arguments apply per cut.
//!
//! The search is exponential in `M·|V|` and is only practical for moderate blocks; the
//! optimal selection algorithm (Section 6.2 of the paper, [`crate::selection`]) invokes it
//! with growing `M`, and the iterative heuristic (Section 6.3) avoids it altogether.
//!
//! The tree walk is the shared [`SearchKernel`]; this module
//! supplies the `(M+1)`-ary *policy*, in which each of the `M` cuts under construction is
//! its own [`IncrementalCutState`] — the same per-cut bookkeeping the single-cut search
//! uses, instantiated `M` times. Like the single-cut policy it is generic over its
//! `SearchHook` sink, so the pool's tuple fills ([`crate::pool::fill_multicut`]) run
//! this very policy with a recording sink.

use ise_hw::{cut_merit, CostModel};
use ise_ir::Dfg;

use crate::constraints::Constraints;
use crate::cut::CutSet;
use std::marker::PhantomData;

use crate::kernel::{
    BlockContext, BoundCheck, IncrementalCutState, Incumbent, SearchHook, SearchKernel,
    SearchPolicy,
};
use crate::search::{IdentifiedCut, SearchStats};

/// Result of a multiple-cut identification run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MultiCutOutcome {
    /// The selected cuts (only non-empty, positive-merit cuts are reported), sorted by
    /// decreasing merit.
    pub cuts: Vec<IdentifiedCut>,
    /// Sum of the merits of the reported cuts.
    pub total_merit: f64,
    /// Search statistics (cut counters aggregate all cuts of the tuple).
    pub stats: SearchStats,
}

impl MultiCutOutcome {
    /// Assembles the outcome from a raw incumbent payload: sorts the tuple by
    /// decreasing merit (stable, so ties keep their enumeration order) and sums the
    /// merits *in sorted order*.
    ///
    /// Shared by [`MultiCutSearch::run`] and the pool-backed sweep answers
    /// ([`crate::pool`]), which are required to be byte-identical — building the
    /// outcome in one place means the two paths cannot drift apart.
    #[must_use]
    pub fn from_payload(payload: Option<Vec<IdentifiedCut>>, stats: SearchStats) -> Self {
        let mut cuts = payload.unwrap_or_default();
        cuts.sort_by(|a, b| {
            b.evaluation
                .merit
                .partial_cmp(&a.evaluation.merit)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let total_merit = cuts.iter().map(|c| c.evaluation.merit).sum();
        MultiCutOutcome {
            cuts,
            total_merit,
            stats,
        }
    }
}

/// The state of the multiple-cut policy: one [`IncrementalCutState`] per cut slot.
///
/// A node belongs to at most one cut, and with respect to every *other* cut it is just
/// an outside node — so assigning it updates one slot's membership and every other
/// slot's convexity frontier, through exactly the two mutations the single-cut policy
/// uses.
#[derive(Debug, Clone)]
struct MultiCutState {
    cuts: Vec<IncrementalCutState>,
}

/// The `(M+1)`-ary multiple-cut policy over the shared kernel.
///
/// Choices `0..assignable` assign the node to that cut slot (with symmetry breaking: a
/// node may start slot `k` only when slots `0..k` are in use); the last choice leaves
/// the node in software. As in the single-cut policy, the sink `H` sees every attempt,
/// subtree prune and candidate, so a direct search and a pool fill walk one policy.
struct MultiCutPolicy<'a, H> {
    ctx: &'a BlockContext<'a>,
    num_cuts: usize,
    incumbent_bound: bool,
    sink: PhantomData<fn() -> H>,
}

impl<H: SearchHook<Vec<IdentifiedCut>>> MultiCutPolicy<'_, H> {
    /// Number of cut slots the node at the current state may be assigned to.
    fn assignable(&self, state: &MultiCutState) -> usize {
        let used = state.cuts.iter().take_while(|cut| !cut.is_empty()).count();
        (used + 1).min(self.num_cuts)
    }

    /// The summed merit of the tuple as it stands (empty slots contribute zero): the
    /// base of the frontier bound. Each remaining software cycle can join at most one
    /// slot and raise that slot's merit by at most one per cycle, so
    /// `base + remaining_mass` bounds every objective reachable in the subtree.
    fn base_merit(state: &MultiCutState) -> f64 {
        state.cuts.iter().map(IncrementalCutState::merit).sum()
    }

    /// The largest slot `OUT`: the sink's tree-path prefix.
    fn prefix(state: &MultiCutState) -> usize {
        state
            .cuts
            .iter()
            .map(IncrementalCutState::outputs)
            .max()
            .unwrap_or(0)
    }

    /// Offers the current assignment: every non-empty cut must be a candidate, the
    /// objective is the summed merit and the signature is `(max IN, max OUT)` over
    /// the non-empty cuts.
    fn consider_candidate(&self, state: &MultiCutState, sink: &mut H) {
        let mut total = 0.0;
        let mut max_in = 0;
        let mut max_out = 0;
        for cut in state.cuts.iter().filter(|cut| !cut.is_empty()) {
            if !cut.is_candidate(self.ctx) {
                return;
            }
            total += cut.merit();
            max_in = max_in.max(cut.inputs());
            max_out = max_out.max(cut.outputs());
        }
        sink.offer(max_in, max_out, total, || {
            state
                .cuts
                .iter()
                .filter(|cut| !cut.is_empty())
                .map(|cut| cut.identified(self.ctx))
                .filter(|c| c.evaluation.merit > 0.0)
                .collect()
        });
    }
}

impl<H: SearchHook<Vec<IdentifiedCut>>> SearchPolicy for MultiCutPolicy<'_, H> {
    type Sink = H;
    type State = MultiCutState;

    fn depth(&self) -> usize {
        self.ctx.depth()
    }

    fn max_arity(&self) -> usize {
        self.num_cuts + 1
    }

    fn initial_state(&self) -> MultiCutState {
        MultiCutState {
            cuts: vec![IncrementalCutState::new(self.ctx); self.num_cuts],
        }
    }

    fn choice_count(&self, state: &MultiCutState, level: usize) -> usize {
        if self.ctx.is_blocked(self.ctx.node_at(level)) {
            1 // software only
        } else {
            self.assignable(state) + 1
        }
    }

    fn apply(
        &self,
        state: &mut MultiCutState,
        level: usize,
        choice: usize,
        stats: &mut SearchStats,
        sink: &mut H,
    ) -> bool {
        let ctx = self.ctx;
        let node = ctx.node_at(level);
        let blocked = ctx.is_blocked(node);
        let software_choice = if blocked { 0 } else { self.assignable(state) };
        let threshold = if self.incumbent_bound {
            sink.bound_threshold()
        } else {
            0.0
        };
        if choice == software_choice {
            // Software branch: the node is outside every cut — unless even the whole
            // remaining frontier cannot lift the tuple's summed merit past the
            // threshold, in which case the subtree is skipped outright.
            let optimistic = Self::base_merit(state) + ctx.remaining_mass(level + 1) as f64;
            if optimistic <= threshold {
                stats.bound_subtree_prunes += 1;
                sink.subtree_prune(Self::prefix(state));
                return false;
            }
            for cut in &mut state.cuts {
                cut.mark_outside(ctx, node);
            }
            return true;
        }
        // Assign the node to cut slot `choice` (shared probe/prune/count logic). The
        // bound replaces the slot's merit by its optimistic post-add value (current
        // critical path, since adding can only lengthen it) and grants the remaining
        // frontier mass on top.
        let slot = &state.cuts[choice];
        let optimistic = Self::base_merit(state) - slot.merit()
            + cut_merit(
                slot.software() + u64::from(ctx.node_software_cost(node)),
                slot.critical_path(),
            )
            + ctx.remaining_mass(level + 1) as f64;
        let bound = BoundCheck {
            optimistic,
            threshold,
            input_floor: self.incumbent_bound.then_some(ctx.constraints.max_inputs),
        };
        let prefix = Self::prefix(state);
        if !sink.try_add(ctx, &mut state.cuts[choice], node, prefix, bound, stats) {
            return false;
        }
        // The node is *outside* every other cut, so record whether it forwards a path
        // towards them — exactly as the software branch does. Without this, cut `k`
        // could later absorb a producer whose path to the rest of `k` runs through this
        // node of cut `j`, leaving `k` non-convex (and the pair unschedulable).
        for (slot, cut) in state.cuts.iter_mut().enumerate() {
            if slot != choice {
                cut.mark_outside(ctx, node);
            }
        }
        self.consider_candidate(state, sink);
        true
    }

    fn undo(&self, state: &mut MultiCutState, _level: usize, _choice: usize) {
        // Both branch kinds leave exactly one journal entry per cut slot.
        for cut in state.cuts.iter_mut().rev() {
            cut.undo_last(self.ctx);
        }
    }

    fn requires_sequential(&self) -> bool {
        self.incumbent_bound
    }
}

/// The exact multiple-cut identification algorithm, as a configured front over the
/// shared [`SearchKernel`].
pub struct MultiCutSearch<'a> {
    ctx: BlockContext<'a>,
    num_cuts: usize,
    kernel: SearchKernel,
    incumbent_bound: bool,
}

impl<'a> MultiCutSearch<'a> {
    /// Prepares a search for up to `num_cuts` simultaneous cuts.
    ///
    /// # Panics
    ///
    /// Panics if `num_cuts` is zero or greater than 255.
    #[must_use]
    pub fn new(
        dfg: &'a Dfg,
        constraints: Constraints,
        model: &'a dyn CostModel,
        num_cuts: usize,
    ) -> Self {
        assert!(num_cuts >= 1, "at least one cut must be requested");
        assert!(
            num_cuts <= 255,
            "more than 255 simultaneous cuts is not supported"
        );
        MultiCutSearch {
            ctx: BlockContext::new(dfg, constraints, model),
            num_cuts,
            kernel: SearchKernel::sequential(),
            incumbent_bound: false,
        }
    }

    /// Sharpens the frontier bound's threshold from zero to the incumbent's summed
    /// merit (and enables the per-slot monotone block-input floor). The selected tuple
    /// stays identical; the effort counters shrink and become visit-order-dependent, so
    /// this forces the sequential walk. See
    /// [`SingleCutSearch::with_incumbent_bound`](crate::search::SingleCutSearch::with_incumbent_bound).
    #[must_use]
    pub fn with_incumbent_bound(mut self) -> Self {
        self.incumbent_bound = true;
        self
    }

    /// Additionally forbids the given nodes from entering any cut.
    #[must_use]
    pub fn with_excluded(mut self, excluded: &CutSet) -> Self {
        self.ctx.block_nodes(excluded);
        self
    }

    /// Limits the number of assignments considered before giving up on optimality.
    ///
    /// A budget is a global sequential cap, so it disables subtree parallelism.
    #[must_use]
    pub fn with_exploration_budget(mut self, budget: u64) -> Self {
        self.kernel.exploration_budget = Some(budget);
        self
    }

    /// Splits the top `levels` decision-tree levels into parallel subtree tasks; the
    /// outcome stays byte-identical to the sequential search.
    #[must_use]
    pub fn with_subtree_parallelism(mut self, levels: usize) -> Self {
        self.kernel.split_levels = levels;
        self
    }

    /// Runs the search.
    #[must_use]
    pub fn run(self) -> MultiCutOutcome {
        let (best, stats) = self
            .kernel
            .run(&self.policy::<Incumbent<Vec<IdentifiedCut>>>());
        MultiCutOutcome::from_payload(best, stats)
    }

    /// Runs the search recording into `sink` (split like a direct search) and hands
    /// the sink back.
    pub(crate) fn run_into<H: SearchHook<Vec<IdentifiedCut>>>(self, sink: H) -> (H, SearchStats) {
        self.kernel.run_into(&self.policy(), sink)
    }

    fn policy<H>(&self) -> MultiCutPolicy<'_, H> {
        MultiCutPolicy {
            ctx: &self.ctx,
            num_cuts: self.num_cuts,
            incumbent_bound: self.incumbent_bound,
            sink: PhantomData,
        }
    }
}

/// Convenience wrapper: runs a [`MultiCutSearch`] with no exclusions.
#[must_use]
pub fn identify_multiple_cuts(
    dfg: &Dfg,
    constraints: Constraints,
    model: &dyn CostModel,
    num_cuts: usize,
) -> MultiCutOutcome {
    MultiCutSearch::new(dfg, constraints, model, num_cuts).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::identify_single_cut;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    /// Two independent multiply-accumulate chains feeding two block outputs.
    fn two_chains() -> Dfg {
        let mut b = DfgBuilder::new("two_chains");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let e = b.input("e");
        let m1 = b.mul(a, c);
        let s1 = b.add(m1, d);
        let m2 = b.mul(d, e);
        let s2 = b.add(m2, a);
        b.output("o1", s1);
        b.output("o2", s2);
        b.finish()
    }

    #[test]
    fn one_cut_matches_single_cut_search() {
        let g = two_chains();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(2, 1);
        let single = identify_single_cut(&g, constraints, &model);
        let multi = identify_multiple_cuts(&g, constraints, &model, 1);
        assert!((multi.total_merit - single.best_merit()).abs() < 1e-9);
        assert_eq!(multi.cuts.len(), 1);
    }

    #[test]
    fn two_cuts_capture_both_chains() {
        let g = two_chains();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(2, 1);
        let one = identify_multiple_cuts(&g, constraints, &model, 1);
        let two = identify_multiple_cuts(&g, constraints, &model, 2);
        assert_eq!(two.cuts.len(), 2);
        assert!(two.total_merit > one.total_merit);
        // The two chains do not overlap.
        assert!(!two.cuts[0].cut.intersects(&two.cuts[1].cut));
        for cut in &two.cuts {
            assert!(cut.evaluation.inputs <= 2);
            assert_eq!(cut.evaluation.outputs, 1);
        }
    }

    #[test]
    fn extra_cut_slots_do_not_hurt() {
        let g = two_chains();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(2, 1);
        let two = identify_multiple_cuts(&g, constraints, &model, 2);
        let four = identify_multiple_cuts(&g, constraints, &model, 4);
        assert!((four.total_merit - two.total_merit).abs() < 1e-9);
    }

    #[test]
    fn excluded_nodes_stay_in_software() {
        let g = two_chains();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(2, 1);
        let excluded = CutSet::from_nodes(&g, [ise_ir::NodeId::new(0), ise_ir::NodeId::new(1)]);
        let outcome = MultiCutSearch::new(&g, constraints, &model, 2)
            .with_excluded(&excluded)
            .run();
        for cut in &outcome.cuts {
            assert!(!cut.cut.intersects(&excluded));
        }
    }

    #[test]
    fn stats_accounting_is_consistent() {
        let g = two_chains();
        let model = DefaultCostModel::new();
        let outcome = identify_multiple_cuts(&g, Constraints::new(2, 1), &model, 2);
        let stats = outcome.stats;
        assert_eq!(
            stats.cuts_considered,
            stats.feasible_cuts
                + stats.pruned_output
                + stats.pruned_convexity
                + stats.pruned_node_budget
                + stats.pruned_bound
        );
    }

    /// The opt-in incumbent-score bound returns the identical tuple while never
    /// exploring more assignments than the default zero-threshold bound.
    #[test]
    fn incumbent_bound_preserves_the_tuple() {
        let g = two_chains();
        let model = DefaultCostModel::new();
        for num_cuts in [1usize, 2, 3] {
            for constraints in [Constraints::new(2, 1), Constraints::new(4, 2)] {
                let default = MultiCutSearch::new(&g, constraints, &model, num_cuts).run();
                let bounded = MultiCutSearch::new(&g, constraints, &model, num_cuts)
                    .with_incumbent_bound()
                    .run();
                assert_eq!(default.cuts, bounded.cuts, "{num_cuts} slots");
                assert_eq!(default.stats.best_updates, bounded.stats.best_updates);
                assert!(bounded.stats.cuts_considered <= default.stats.cuts_considered);
            }
        }
    }

    /// Regression test: a cut must stay convex with respect to nodes assigned to *other*
    /// cuts, not only to nodes left in software. In `m1 → s → m2`, putting `m1` and `m2`
    /// in one cut with `s` in another creates a cyclic dependency between the two
    /// instructions and must be rejected.
    #[test]
    fn cuts_are_convex_with_respect_to_other_cuts() {
        let mut b = DfgBuilder::new("interleaved");
        let x = b.input("x");
        let y = b.input("y");
        let m1 = b.mul(x, y);
        let s = b.add(m1, x);
        let m2 = b.mul(s, y);
        b.output("o", m2);
        b.output("mid", s);
        let g = b.finish();
        let model = DefaultCostModel::new();
        for num_cuts in [2usize, 3] {
            let outcome = identify_multiple_cuts(&g, Constraints::new(4, 2), &model, num_cuts);
            for cut in &outcome.cuts {
                assert!(
                    crate::cut::is_convex(&g, &cut.cut),
                    "non-convex cut {:?} with {num_cuts} slots",
                    cut.cut
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one cut")]
    fn zero_cuts_is_rejected() {
        let g = two_chains();
        let model = DefaultCostModel::new();
        let _ = MultiCutSearch::new(&g, Constraints::new(2, 1), &model, 0);
    }
}
