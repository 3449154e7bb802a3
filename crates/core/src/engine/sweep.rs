//! The sweep planner: answer a whole `Vec<Constraints>` request from memoised cut
//! pools.
//!
//! A *sweep* runs the same selection over many `(Nin, Nout)` pairs — the paper's
//! Fig. 11 experiment, capacity-planning batch jobs, design-space exploration traffic.
//! Run directly, every pair re-walks the exponential search tree of every basic block
//! in every iterative round, although the tight walks are strict subtrees of the loose
//! ones. The [`SweepPlanner`] exploits that containment with the [`crate::pool`]
//! subsystem:
//!
//! * the queried pairs are grouped by their (area, node-count) budgets, and each group
//!   gets **fill constraints** — the component-wise loosest ports of the group — under
//!   which each `(block shape, exclusion-state)` is enumerated exactly once
//!   ([`fill_single_cut`](crate::pool::fill_single_cut), memoised by the planner's
//!   [`CorpusPool`], so structurally isomorphic blocks share one fill) and each
//!   `(block, M)` tuple search exactly once ([`fill_multicut`]);
//! * every covered pair is then answered per round by *filtering* the memoised pool —
//!   byte-identical to the direct per-pair search, including the `identifier_calls`
//!   and `cuts_considered` accounting (see the module documentation of [`crate::pool`]
//!   for the exactness argument, and `tests/sweep_differential.rs` for the proof);
//! * a pair the fill does not cover, a fill that exhausts its exploration budget, or a
//!   planner with [`DriverOptions::cut_pool`] switched off falls back to the direct
//!   search path — the same code the non-sweep front-ends run.
//!
//! The savings are reported in [`SweepStats`]: the *logical* identifier-call count
//! (what the per-pair results claim, identical in both modes) versus the *physical*
//! enumerations actually performed (fills + fallbacks), which is strictly smaller for
//! any sweep of at least two covered pairs.

use std::collections::BTreeMap;

use ise_hw::CostModel;
use ise_ir::Program;

use crate::constraints::Constraints;
use crate::multicut::{MultiCutOutcome, MultiCutSearch};
use crate::pool::{covers, fill_multicut, FillOutcome, FilledPool};
use crate::search::IdentifiedCut;
use crate::selection::{select_optimal, select_optimal_core, SelectionResult};
use crate::structural::StructuralForm;

use super::corpus::{fill_split_levels, CorpusPool};
use super::driver::DriverOptions;
use super::{Identifier, SingleCut};

/// Effort accounting of one planner, across every pair it answered.
///
/// `logical_identifier_calls` is what the emitted [`SelectionResult`]s report — by
/// construction identical between the pool-backed and the direct mode. The physical
/// counters measure the enumerations actually performed; their sum is the quantity the
/// pool exists to shrink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct SweepStats {
    /// Identifier calls reported by the produced results (identical in both modes).
    pub logical_identifier_calls: u64,
    /// Pool-fill enumerations performed (including ones that ended exhausted).
    pub pool_fills: u64,
    /// Fill enumerations rejected because they hit the exploration budget.
    pub exhausted_fills: u64,
    /// Cuts considered by the fill enumerations (the physical fill cost).
    pub fill_cuts_considered: u64,
    /// Queries answered from a memoised pool without touching the search tree.
    pub pool_answers: u64,
    /// Direct identifier invocations (uncovered pairs, exhausted fills, disabled pool).
    pub direct_calls: u64,
}

impl SweepStats {
    /// Search-tree enumerations actually performed: fills plus direct fallbacks.
    #[must_use]
    pub fn physical_identifier_calls(&self) -> u64 {
        self.pool_fills + self.direct_calls
    }

    /// Sums every counter of `other` into `self`.
    ///
    /// Lives next to the struct so that adding a counter cannot silently skip an
    /// aggregation site (the benchmarks fold per-planner stats through this).
    pub fn merge(&mut self, other: &SweepStats) {
        let SweepStats {
            logical_identifier_calls,
            pool_fills,
            exhausted_fills,
            fill_cuts_considered,
            pool_answers,
            direct_calls,
        } = other;
        self.logical_identifier_calls += logical_identifier_calls;
        self.pool_fills += pool_fills;
        self.exhausted_fills += exhausted_fills;
        self.fill_cuts_considered += fill_cuts_considered;
        self.pool_answers += pool_answers;
        self.direct_calls += direct_calls;
    }
}

/// Memo entry for one multiple-cut fill.
type TupleFill = FillOutcome<FilledPool<Vec<IdentifiedCut>>>;

/// Answers an entire constraint sweep from memoised cut pools (see the module
/// documentation).
///
/// A planner is constructed for one program and one list of pairs; the memo lives for
/// the planner's lifetime, so the iterative and the optimal strategy (and repeated
/// `run_*` calls) share whatever fills they have in common.
pub struct SweepPlanner<'a> {
    program: &'a Program,
    model: &'a dyn CostModel,
    options: DriverOptions,
    exploration_budget: Option<u64>,
    /// One fill-constraint entry per (area, node-budget) group of the sweep pairs.
    fills: Vec<Constraints>,
    /// The single-cut memo (one budget group per fill group) over a private cache.
    single_pool: CorpusPool<'a>,
    /// The blocks' structural forms, computed on the first pool-backed single-cut pair.
    forms: Option<Vec<StructuralForm>>,
    /// Memoised multiple-cut pools, keyed by (fill group, block, cut count); an
    /// exhausted fill makes its pairs fall back to direct searches.
    tuple_pools: BTreeMap<(usize, usize, usize), TupleFill>,
    stats: SweepStats,
}

/// The component-wise loosest fill constraints per (area, node-budget) group, in group
/// discovery order.
fn fill_groups(pairs: &[Constraints]) -> Vec<Constraints> {
    let mut groups: Vec<Constraints> = Vec::new();
    for pair in pairs {
        match groups
            .iter_mut()
            .find(|g| g.max_area == pair.max_area && g.max_nodes == pair.max_nodes)
        {
            Some(group) => {
                group.max_inputs = group.max_inputs.max(pair.max_inputs);
                group.max_outputs = group.max_outputs.max(pair.max_outputs);
            }
            None => groups.push(*pair),
        }
    }
    groups
}

impl<'a> SweepPlanner<'a> {
    /// Creates a planner for `program` answering the given `pairs`.
    ///
    /// The fill constraints are derived from the pairs (loosest ports per budget
    /// group), so every one of them is covered and only exploration-budget exhaustion
    /// can force a fallback; a pair queried later that none covers runs directly.
    #[must_use]
    pub fn new(
        program: &'a Program,
        model: &'a dyn CostModel,
        options: DriverOptions,
        pairs: &[Constraints],
    ) -> Self {
        SweepPlanner {
            program,
            model,
            options,
            exploration_budget: None,
            fills: fill_groups(pairs),
            single_pool: CorpusPool::new(model, None),
            forms: None,
            tuple_pools: BTreeMap::new(),
            stats: SweepStats::default(),
        }
    }

    /// Sets the per-invocation exploration budget the direct searches run under; fills
    /// run under the same budget and are rejected if they exhaust it.
    #[must_use]
    pub fn with_exploration_budget(mut self, budget: Option<u64>) -> Self {
        self.exploration_budget = budget;
        self.single_pool = CorpusPool::new(self.model, budget);
        self
    }

    /// The planner's effort accounting so far.
    #[must_use]
    pub fn stats(&self) -> SweepStats {
        let mut stats = self.single_pool.sweep_stats();
        stats.merge(&self.stats);
        stats
    }

    /// The fill group covering `pair`, if any.
    fn group_for(&self, pair: &Constraints) -> Option<usize> {
        self.fills.iter().position(|fill| covers(fill, pair))
    }

    /// Runs the iterative single-cut selection for every pair, pool-backed where
    /// covered. Results are byte-identical to per-pair
    /// [`select_program`](super::select_program) runs with the `"single-cut"`
    /// identifier.
    pub fn run_single_cut(&mut self, pairs: &[Constraints]) -> Vec<SelectionResult> {
        pairs
            .iter()
            .map(|pair| self.single_cut_selection(pair))
            .collect()
    }

    /// Runs the optimal (multiple-cut) selection for every pair, pool-backed where
    /// covered. Results are byte-identical to per-pair
    /// [`select_optimal`] runs.
    pub fn run_optimal(&mut self, pairs: &[Constraints]) -> Vec<SelectionResult> {
        pairs
            .iter()
            .map(|pair| self.optimal_selection(pair))
            .collect()
    }

    /// Runs an arbitrary identifier per pair through the direct program driver (no
    /// pooling — used for the linear-time baselines, whose sweeps are cheap), keeping
    /// the planner's accounting complete.
    pub fn run_direct(
        &mut self,
        identifier: &dyn Identifier,
        pairs: &[Constraints],
    ) -> Vec<SelectionResult> {
        pairs
            .iter()
            .map(|pair| {
                let result = super::select_program(
                    self.program,
                    identifier,
                    *pair,
                    self.model,
                    self.options,
                );
                self.stats.logical_identifier_calls += result.identifier_calls;
                self.stats.direct_calls += result.identifier_calls;
                result
            })
            .collect()
    }

    /// One pair of the iterative strategy.
    fn single_cut_selection(&mut self, pair: &Constraints) -> SelectionResult {
        let group = if self.options.cut_pool {
            self.group_for(pair)
        } else {
            None
        };
        let result = match group {
            Some(group) => {
                let program = self.program;
                let forms = self.forms.get_or_insert_with(|| {
                    program.blocks().iter().map(StructuralForm::of).collect()
                });
                self.single_pool.select_program(
                    program,
                    forms,
                    self.fills[group],
                    pair,
                    self.options,
                )
            }
            None => {
                let identifier = SingleCut::new().with_exploration_budget(self.exploration_budget);
                let result = super::select_program(
                    self.program,
                    &identifier,
                    *pair,
                    self.model,
                    self.options,
                );
                self.stats.direct_calls += result.identifier_calls;
                result
            }
        };
        self.stats.logical_identifier_calls += result.identifier_calls;
        result
    }

    /// One pair of the optimal strategy.
    fn optimal_selection(&mut self, pair: &Constraints) -> SelectionResult {
        let group = if self.options.cut_pool {
            self.group_for(pair)
        } else {
            None
        };
        let result = match group {
            Some(group) => {
                select_optimal_core(self.program, self.options.max_instructions, |block, m| {
                    self.answer_tuple(group, pair, block, m)
                })
            }
            None => {
                let result = select_optimal(
                    self.program,
                    *pair,
                    self.model,
                    self.options.max_instructions,
                    self.exploration_budget,
                );
                self.stats.direct_calls += result.identifier_calls;
                result
            }
        };
        self.stats.logical_identifier_calls += result.identifier_calls;
        result
    }

    /// Answers one `(block, M)` multiple-cut query, filling its pool on first use.
    fn answer_tuple(
        &mut self,
        group: usize,
        pair: &Constraints,
        block: usize,
        m: usize,
    ) -> MultiCutOutcome {
        let key = (group, block, m);
        if !self.tuple_pools.contains_key(&key) {
            self.stats.pool_fills += 1;
            let dfg = self.program.block(block);
            let outcome = fill_multicut(
                dfg,
                None,
                self.fills[group],
                self.model,
                m,
                self.exploration_budget,
                fill_split_levels(dfg, self.options.parallel, self.exploration_budget),
            );
            match &outcome {
                FillOutcome::Complete(pool) => {
                    self.stats.fill_cuts_considered += pool.fill_cuts_considered;
                }
                FillOutcome::Exhausted {
                    fill_cuts_considered,
                } => {
                    self.stats.exhausted_fills += 1;
                    self.stats.fill_cuts_considered += fill_cuts_considered;
                }
            }
            self.tuple_pools.insert(key, outcome);
        }
        let stats = &mut self.stats;
        match self.tuple_pools.get(&key).expect("inserted above") {
            FillOutcome::Complete(pool) => {
                stats.pool_answers += 1;
                let answer = pool.answer(pair);
                MultiCutOutcome::from_payload(answer.best, answer.stats)
            }
            FillOutcome::Exhausted { .. } => {
                stats.direct_calls += 1;
                let mut search =
                    MultiCutSearch::new(self.program.block(block), *pair, self.model, m);
                if let Some(budget) = self.exploration_budget {
                    search = search.with_exploration_budget(budget);
                }
                search.run()
            }
        }
    }
}

/// Answers a sweep for an arbitrary identifier: pool-backed for `"single-cut"`,
/// direct per-pair for everything else. This is the entry point the `ise-api`
/// session and the CLI use.
pub fn sweep_program(
    program: &Program,
    identifier: &dyn Identifier,
    exploration_budget: Option<u64>,
    pairs: &[Constraints],
    model: &dyn CostModel,
    options: DriverOptions,
) -> (Vec<SelectionResult>, SweepStats) {
    let mut planner = SweepPlanner::new(program, model, options, pairs)
        .with_exploration_budget(exploration_budget);
    let results = if identifier.name() == "single-cut" {
        planner.run_single_cut(pairs)
    } else {
        planner.run_direct(identifier, pairs)
    };
    (results, planner.stats())
}

// The dedicated differential suites live in `tests/sweep_differential.rs` and
// `tests/cut_pool.rs` at the workspace root; the unit tests here pin the planner's
// bookkeeping itself.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::select_program;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    fn toy_program() -> Program {
        let mut p = Program::new("toy");
        let mut b = DfgBuilder::new("hot");
        b.exec_count(1000);
        let x = b.input("x");
        let y = b.input("y");
        let acc = b.input("acc");
        let m = b.mul(x, y);
        let s = b.add(m, acc);
        let n = b.mul(s, y);
        let t = b.add(n, x);
        b.output("acc", t);
        p.add_block(b.finish());
        let mut b = DfgBuilder::new("warm");
        b.exec_count(50);
        let v = b.input("v");
        let lo = b.input("lo");
        let clipped = b.max(v, lo);
        let scaled = b.shl(clipped, b.imm(1));
        b.output("o", scaled);
        p.add_block(b.finish());
        p
    }

    fn pairs() -> Vec<Constraints> {
        Constraints::paper_sweep()
    }

    #[test]
    fn pool_backed_iterative_matches_direct_per_pair_runs() {
        let p = toy_program();
        let model = DefaultCostModel::new();
        let options = DriverOptions::new(8);
        let mut planner = SweepPlanner::new(&p, &model, options, &pairs());
        let pooled = planner.run_single_cut(&pairs());
        for (pair, pooled) in pairs().iter().zip(&pooled) {
            let direct = select_program(&p, &SingleCut::new(), *pair, &model, options);
            assert_eq!(pooled, &direct, "{pair}");
        }
        let stats = planner.stats();
        assert!(stats.physical_identifier_calls() < stats.logical_identifier_calls);
        assert_eq!(stats.exhausted_fills, 0);
        assert!(stats.pool_answers > 0);
    }

    #[test]
    fn pool_backed_optimal_matches_direct_per_pair_runs() {
        let p = toy_program();
        let model = DefaultCostModel::new();
        let options = DriverOptions::new(4);
        let mut planner = SweepPlanner::new(&p, &model, options, &pairs());
        let pooled = planner.run_optimal(&pairs());
        for (pair, pooled) in pairs().iter().zip(&pooled) {
            let direct = select_optimal(&p, *pair, &model, 4, None);
            assert_eq!(pooled, &direct, "{pair}");
        }
        assert!(
            planner.stats().physical_identifier_calls() < planner.stats().logical_identifier_calls
        );
    }

    #[test]
    fn disabled_pool_and_uncovered_pairs_fall_back_to_direct() {
        let p = toy_program();
        let model = DefaultCostModel::new();
        let options = DriverOptions::new(8).with_cut_pool(false);
        let mut planner = SweepPlanner::new(&p, &model, options, &pairs());
        let results = planner.run_single_cut(&pairs());
        assert_eq!(
            planner.stats().physical_identifier_calls(),
            planner.stats().logical_identifier_calls
        );
        assert_eq!(planner.stats().pool_fills, 0);
        for (pair, result) in pairs().iter().zip(&results) {
            let direct =
                select_program(&p, &SingleCut::new(), *pair, &model, DriverOptions::new(8));
            assert_eq!(result, &direct, "{pair}");
        }

        // A planner built for a tighter pair than it is queried for: the uncovered
        // pairs must be answered directly, and still byte-identically.
        let options = DriverOptions::new(8);
        let mut planner = SweepPlanner::new(&p, &model, options, &[Constraints::new(2, 1)]);
        let results = planner.run_single_cut(&pairs());
        for (pair, result) in pairs().iter().zip(&results) {
            let direct = select_program(&p, &SingleCut::new(), *pair, &model, options);
            assert_eq!(result, &direct, "{pair}");
        }
        assert!(planner.stats().direct_calls > 0);
    }

    #[test]
    fn fill_groups_are_loosest_per_budget() {
        let groups = fill_groups(&[
            Constraints::new(2, 1),
            Constraints::new(4, 2),
            Constraints::new(3, 4),
            Constraints::new(2, 1).with_max_nodes(4),
            Constraints::new(6, 1).with_max_nodes(4),
        ]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].max_inputs, 4);
        assert_eq!(groups[0].max_outputs, 4);
        assert_eq!(groups[1].max_inputs, 6);
        assert_eq!(groups[1].max_outputs, 1);
        assert_eq!(groups[1].max_nodes, Some(4));
    }
}
