//! The unified identification engine.
//!
//! The paper's algorithm and its baselines historically lived behind five disjoint APIs
//! (`SingleCutSearch`, `MultiCutSearch`, `exhaustive`, and the two baseline types in
//! `ise-baselines`). This module unifies them behind one pluggable abstraction:
//!
//! * [`Identifier`] — a per-basic-block identification algorithm: given a dataflow
//!   graph, the microarchitectural [`Constraints`] and a [`CostModel`], produce a
//!   [`SearchOutcome`] (candidate cuts plus shared [`SearchStats`]);
//! * [`SingleCut`], [`MultiCut`], [`Exhaustive`] — the engine adapters for this crate's
//!   three algorithms (the baselines implement [`Identifier`] in `ise-baselines`);
//! * [`IdentifierConfig`] — the construction parameters every algorithm is built from
//!   (`ise_baselines::Algorithm` lists all six and builds any of them by name);
//! * [`driver`] — the program-level driver that fans identification out across basic
//!   blocks with `rayon` and merges per-block results into a deterministic
//!   [`SelectionResult`](crate::selection::SelectionResult).
//!
//! [`SearchStats`]: crate::search::SearchStats

pub mod corpus;
pub mod driver;
pub mod registry;
pub mod sweep;
pub mod templates;
pub mod warm;

use ise_hw::CostModel;
use ise_ir::Dfg;

use crate::constraints::Constraints;
use crate::cut::CutSet;
use crate::multicut::MultiCutSearch;
use crate::search::{SearchOutcome, SearchStats, SingleCutSearch};

pub use corpus::{
    run_corpus, run_corpus_streaming_warm, run_corpus_warm, CorpusOptions, CorpusOutcome,
    CorpusPool, CorpusStats,
};
pub use driver::{select_program, DriverOptions};
pub use registry::IdentifierConfig;
pub use sweep::{sweep_program, SweepPlanner, SweepStats};
pub use templates::{
    extract_templates, run_template_selection, select_templates, select_templates_budgeted,
    select_templates_exhaustive, SiteRef, Template, TemplateBudget, TemplateReport,
    TemplateSelectPolicy, TemplateSelection,
};
pub use warm::{
    BudgetGroup, ProgramOutcome, WarmCacheConfig, WarmCacheStats, WarmPoolCache, SNAPSHOT_FILE,
};

/// A pluggable per-basic-block identification algorithm.
///
/// Implementors must be `Sync + Send`: the program driver shares one instance across
/// the threads of its per-block fan-out, and the batch front-end moves boxed
/// identifiers into worker tasks. All bundled identifiers are stateless apart from
/// their configuration, so this is free. `Debug` is required so that sessions and
/// error reports can show which algorithm they hold.
pub trait Identifier: Sync + Send + std::fmt::Debug {
    /// Stable name of the algorithm (lower-case, e.g. `"single-cut"`).
    fn name(&self) -> &'static str;

    /// Identifies candidate instructions in one basic block.
    fn identify(
        &self,
        dfg: &Dfg,
        constraints: &Constraints,
        model: &dyn CostModel,
    ) -> SearchOutcome {
        self.identify_excluding(dfg, None, constraints, model)
    }

    /// Identifies candidate instructions while keeping the `excluded` nodes in software.
    ///
    /// The iterative selection driver uses this to re-run an algorithm after committing
    /// a cut, with the committed nodes off limits.
    fn identify_excluding(
        &self,
        dfg: &Dfg,
        excluded: Option<&CutSet>,
        constraints: &Constraints,
        model: &dyn CostModel,
    ) -> SearchOutcome {
        self.identify_split(dfg, excluded, constraints, model, 0)
    }

    /// [`identify_excluding`](Self::identify_excluding) with an intra-block parallelism
    /// hint: split the top `split_levels` levels of the algorithm's decision tree into
    /// parallel subtree tasks (see [`crate::kernel::SearchKernel`]).
    ///
    /// Implementations must stay byte-identical to the sequential path (`0`) — the hint
    /// only trades wall-clock for cores. Algorithms without a decision tree to split
    /// (the linear-time baselines) ignore it.
    fn identify_split(
        &self,
        dfg: &Dfg,
        excluded: Option<&CutSet>,
        constraints: &Constraints,
        model: &dyn CostModel,
        split_levels: usize,
    ) -> SearchOutcome;

    /// Whether re-running the algorithm with a grown exclusion set can discover cuts
    /// that were not in the first outcome's candidate list.
    ///
    /// `true` for the exact searches (they return only the single best tuple, so a
    /// second run can find the second-best cut); `false` for the one-shot baselines,
    /// which enumerate all their disjoint candidates up front. The driver uses this to
    /// pick between the iterative and the one-shot selection strategy.
    fn refines_under_exclusion(&self) -> bool {
        true
    }
}

/// Engine adapter for the exact single-cut search of Section 6.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleCut {
    /// Optional limit on the number of cuts considered per invocation.
    pub exploration_budget: Option<u64>,
}

impl SingleCut {
    /// Creates the adapter with no exploration budget.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or clears) the per-invocation exploration budget.
    #[must_use]
    pub fn with_exploration_budget(mut self, budget: Option<u64>) -> Self {
        self.exploration_budget = budget;
        self
    }
}

impl Identifier for SingleCut {
    fn name(&self) -> &'static str {
        "single-cut"
    }

    fn identify_split(
        &self,
        dfg: &Dfg,
        excluded: Option<&CutSet>,
        constraints: &Constraints,
        model: &dyn CostModel,
        split_levels: usize,
    ) -> SearchOutcome {
        let mut search =
            SingleCutSearch::new(dfg, *constraints, model).with_subtree_parallelism(split_levels);
        if let Some(excluded) = excluded {
            search = search.with_excluded(excluded);
        }
        if let Some(budget) = self.exploration_budget {
            search = search.with_exploration_budget(budget);
        }
        search.run()
    }
}

/// Engine adapter for the exact multiple-cut search of Section 6.2.
///
/// One invocation returns up to `slots` simultaneous disjoint cuts whose summed merit is
/// maximal; they all appear in [`SearchOutcome::candidates`].
#[derive(Debug, Clone, Copy)]
pub struct MultiCut {
    /// Number of simultaneous cuts searched for (`M`).
    pub slots: usize,
    /// Optional limit on the number of assignments considered per invocation.
    pub exploration_budget: Option<u64>,
}

impl MultiCut {
    /// Creates the adapter for `slots` simultaneous cuts.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or greater than 255 (the limits of the underlying
    /// search).
    #[must_use]
    pub fn new(slots: usize) -> Self {
        assert!((1..=255).contains(&slots), "slots must be in 1..=255");
        MultiCut {
            slots,
            exploration_budget: None,
        }
    }

    /// Sets (or clears) the per-invocation exploration budget.
    #[must_use]
    pub fn with_exploration_budget(mut self, budget: Option<u64>) -> Self {
        self.exploration_budget = budget;
        self
    }
}

impl Default for MultiCut {
    fn default() -> Self {
        MultiCut::new(2)
    }
}

impl Identifier for MultiCut {
    fn name(&self) -> &'static str {
        "multicut"
    }

    fn identify_split(
        &self,
        dfg: &Dfg,
        excluded: Option<&CutSet>,
        constraints: &Constraints,
        model: &dyn CostModel,
        split_levels: usize,
    ) -> SearchOutcome {
        let mut search = MultiCutSearch::new(dfg, *constraints, model, self.slots)
            .with_subtree_parallelism(split_levels);
        if let Some(excluded) = excluded {
            search = search.with_excluded(excluded);
        }
        if let Some(budget) = self.exploration_budget {
            search = search.with_exploration_budget(budget);
        }
        let outcome = search.run();
        SearchOutcome::from_candidates(outcome.cuts, outcome.stats)
    }
}

/// Engine adapter for the brute-force enumeration oracle.
///
/// The oracle is exponential with no pruning; blocks larger than `node_limit` are not
/// enumerated and yield an empty outcome with
/// [`SearchStats::budget_exhausted`](crate::search::SearchStats::budget_exhausted) set,
/// so that driving the oracle over a whole program cannot hang on one big block.
#[derive(Debug, Clone, Copy)]
pub struct Exhaustive {
    /// Largest block (in operation nodes) the oracle will enumerate.
    pub node_limit: usize,
}

impl Exhaustive {
    /// Creates the adapter with the default 20-node limit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the enumeration limit (clamped to the oracle's hard 24-node maximum).
    #[must_use]
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit.min(24);
        self
    }
}

impl Default for Exhaustive {
    fn default() -> Self {
        Exhaustive { node_limit: 20 }
    }
}

impl Identifier for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn identify_split(
        &self,
        dfg: &Dfg,
        excluded: Option<&CutSet>,
        constraints: &Constraints,
        model: &dyn CostModel,
        split_levels: usize,
    ) -> SearchOutcome {
        // Re-clamp here: `node_limit` is a public field, so it can be set above the
        // oracle's hard 24-node maximum without going through `with_node_limit`, and an
        // oversized block must be skipped rather than reach the panicking assert.
        if dfg.node_count() > self.node_limit.min(24) {
            let stats = SearchStats {
                budget_exhausted: true,
                ..SearchStats::default()
            };
            return SearchOutcome::from_best(None, stats);
        }
        let outcome = crate::exhaustive::best_cut_exhaustive_split(
            dfg,
            excluded,
            *constraints,
            model,
            split_levels,
        );
        let stats = SearchStats {
            cuts_considered: outcome.stats.cuts_enumerated,
            feasible_cuts: outcome.stats.feasible_cuts,
            best_updates: u64::from(outcome.best.is_some()),
            ..SearchStats::default()
        };
        SearchOutcome::from_best(outcome.best, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    fn mac_block() -> Dfg {
        let mut b = DfgBuilder::new("mac");
        let x = b.input("x");
        let y = b.input("y");
        let acc = b.input("acc");
        let prod = b.mul(x, y);
        let sum = b.add(prod, acc);
        let scaled = b.shl(sum, b.imm(1));
        b.output("acc", scaled);
        b.finish()
    }

    #[test]
    fn single_cut_adapter_matches_the_direct_search() {
        let g = mac_block();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(3, 1);
        let direct = crate::search::identify_single_cut(&g, constraints, &model);
        let engine = SingleCut::new().identify(&g, &constraints, &model);
        assert_eq!(direct, engine);
        assert_eq!(engine.candidates.len(), usize::from(engine.best.is_some()));
    }

    #[test]
    fn multicut_adapter_reports_all_cuts_as_candidates() {
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
        let g = b.finish();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(2, 1);
        let outcome = MultiCut::new(2).identify(&g, &constraints, &model);
        assert_eq!(outcome.candidates.len(), 2);
        assert!(!outcome.candidates[0]
            .cut
            .intersects(&outcome.candidates[1].cut));
        assert_eq!(outcome.best_merit(), outcome.candidates[0].evaluation.merit);
        assert!(outcome.total_merit() > outcome.best_merit());
    }

    #[test]
    fn exhaustive_adapter_agrees_with_single_cut_and_respects_its_limit() {
        let g = mac_block();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(3, 1);
        let oracle = Exhaustive::new().identify(&g, &constraints, &model);
        let fast = SingleCut::new().identify(&g, &constraints, &model);
        assert!((oracle.best_merit() - fast.best_merit()).abs() < 1e-9);

        let tiny_limit = Exhaustive::new().with_node_limit(2);
        let skipped = tiny_limit.identify(&g, &constraints, &model);
        assert!(skipped.best.is_none());
        assert!(skipped.stats.budget_exhausted);
    }

    /// Setting the public field above the oracle's hard 24-node maximum must skip
    /// oversized blocks rather than reach the panicking enumeration.
    #[test]
    fn exhaustive_field_above_hard_cap_skips_instead_of_panicking() {
        let mut b = DfgBuilder::new("big");
        let x = b.input("x");
        let mut v = x;
        for _ in 0..30 {
            v = b.add(v, b.imm(1));
        }
        b.output("o", v);
        let g = b.finish();
        let model = DefaultCostModel::new();
        let oracle = Exhaustive { node_limit: 64 };
        let outcome = oracle.identify(&g, &Constraints::new(4, 2), &model);
        assert!(outcome.best.is_none());
        assert!(outcome.stats.budget_exhausted);
    }

    #[test]
    fn exclusion_is_honoured_through_the_trait() {
        let g = mac_block();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(4, 2);
        for identifier in [
            &SingleCut::new() as &dyn Identifier,
            &MultiCut::new(2),
            &Exhaustive::new(),
        ] {
            let first = identifier.identify(&g, &constraints, &model);
            let best = first.best.expect("profitable cut exists");
            let second = identifier.identify_excluding(&g, Some(&best.cut), &constraints, &model);
            for candidate in &second.candidates {
                assert!(
                    !candidate.cut.intersects(&best.cut),
                    "{}: excluded nodes re-appeared",
                    identifier.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "slots")]
    fn zero_multicut_slots_are_rejected() {
        let _ = MultiCut::new(0);
    }
}
