//! Selection of up to `Ninstr` instructions across all basic blocks (Problem 2).
//!
//! The paper gives two strategies, Sections 6.2 and 6.3:
//!
//! * [`select_optimal`] — drives the multiple-cut identification algorithm with a growing
//!   per-block cut count, choosing at each step the block whose next cut yields the
//!   largest improvement. It provably reaches the optimum with at most
//!   `Ninstr + Nbb − 1` identifier invocations (Fig. 10 of the paper), but each
//!   invocation is itself exponential and becomes impractical on large blocks.
//! * Iterative — the practical heuristic: repeatedly run the *single*-cut
//!   identification on every block, commit the globally best cut, exclude its nodes, and
//!   repeat until `Ninstr` cuts are chosen or no profitable cut remains. It is
//!   [`engine::select_program`](crate::engine::select_program) with the `"single-cut"`
//!   identifier.
//!
//! Both return a [`SelectionResult`] which can be turned into the application-level
//! speed-up report used by the Fig. 11 experiments.

use ise_hw::speedup::{SelectedInstruction, SpeedupReport};
use ise_hw::{CostModel, SoftwareLatencyModel};
use ise_ir::Program;

use crate::constraints::Constraints;
use crate::multicut::{MultiCutOutcome, MultiCutSearch};
use crate::search::IdentifiedCut;

/// One instruction chosen by a selection algorithm.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChosenCut {
    /// Index of the basic block the cut belongs to.
    pub block_index: usize,
    /// The cut and its evaluation.
    pub identified: IdentifiedCut,
}

impl ChosenCut {
    /// Dynamic cycle saving contributed by this instruction (merit × block frequency).
    #[must_use]
    pub fn weighted_saving(&self, program: &Program) -> f64 {
        self.identified.evaluation.merit * program.block(self.block_index).exec_count() as f64
    }
}

/// Result of a selection run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SelectionResult {
    /// The chosen instructions, in the order they were committed.
    pub chosen: Vec<ChosenCut>,
    /// Total dynamic cycles saved (sum of merit × block frequency).
    pub total_weighted_saving: f64,
    /// Number of identification-algorithm invocations performed.
    pub identifier_calls: u64,
    /// Total number of cuts considered across all identifier invocations.
    pub cuts_considered: u64,
}

impl SelectionResult {
    /// Number of chosen instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chosen.len()
    }

    /// Returns `true` if no instruction was selected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chosen.is_empty()
    }

    /// Total normalised datapath area of the selected instructions.
    #[must_use]
    pub fn total_area(&self) -> f64 {
        self.chosen
            .iter()
            .map(|c| c.identified.evaluation.area)
            .sum()
    }

    /// Builds the application-level speed-up report for this selection.
    #[must_use]
    pub fn speedup_report(
        &self,
        program: &Program,
        software: &SoftwareLatencyModel,
    ) -> SpeedupReport {
        let instructions = self
            .chosen
            .iter()
            .map(|c| SelectedInstruction {
                block_index: c.block_index,
                saving_per_execution: c.identified.evaluation.merit,
                exec_count: program.block(c.block_index).exec_count(),
                area: c.identified.evaluation.area,
                inputs: c.identified.evaluation.inputs,
                outputs: c.identified.evaluation.outputs,
                nodes: c.identified.evaluation.nodes,
            })
            .collect();
        SpeedupReport::for_program(program, software, instructions)
    }
}

/// Optimal selection (Section 6.2): grow the per-block cut count greedily on marginal
/// improvements, using the multiple-cut identification algorithm.
///
/// `exploration_budget` caps the cuts each identifier invocation considers; an
/// invocation that reaches it returns its incumbent instead of the proven optimum.
#[must_use]
pub fn select_optimal(
    program: &Program,
    constraints: Constraints,
    model: &dyn CostModel,
    max_instructions: usize,
    exploration_budget: Option<u64>,
) -> SelectionResult {
    select_optimal_core(program, max_instructions, |block_index, m| {
        let mut search = MultiCutSearch::new(program.block(block_index), constraints, model, m);
        if let Some(budget) = exploration_budget {
            search = search.with_exploration_budget(budget);
        }
        search.run()
    })
}

/// The optimal strategy loop, generic over how one `(block, M)` multiple-cut
/// identification is performed.
///
/// `run_identifier` answers the `M`-cut search of one block. The direct
/// [`select_optimal`] and the pool-backed sweep planner (`ise_core::engine::sweep`)
/// share this loop, so the growth order, tie-breaks and `identifier_calls` /
/// `cuts_considered` accounting cannot drift between the two paths.
pub(crate) fn select_optimal_core(
    program: &Program,
    max_instructions: usize,
    mut run_identifier: impl FnMut(usize, usize) -> MultiCutOutcome,
) -> SelectionResult {
    let block_count = program.block_count();
    let mut result = SelectionResult {
        chosen: Vec::new(),
        total_weighted_saving: 0.0,
        identifier_calls: 0,
        cuts_considered: 0,
    };
    if block_count == 0 || max_instructions == 0 {
        return result;
    }
    // One identifier call: the block's weighted total merit and its tuple.
    let mut identify = |result: &mut SelectionResult, block_index: usize, m: usize| {
        let outcome = run_identifier(block_index, m);
        result.identifier_calls += 1;
        result.cuts_considered += outcome.stats.cuts_considered;
        let weight = program.block(block_index).exec_count() as f64;
        (outcome.total_merit * weight, outcome.cuts)
    };

    // best_total[b][m] = weighted total merit of the best m simultaneous cuts in block b.
    let mut best_total: Vec<Vec<f64>> = vec![vec![0.0]; block_count];
    let mut best_cuts: Vec<Vec<Vec<IdentifiedCut>>> = vec![vec![Vec::new()]; block_count];
    let mut committed: Vec<usize> = vec![0; block_count];

    // Initial improvements: one cut per block.
    for block_index in 0..block_count {
        let (total, cuts) = identify(&mut result, block_index, 1);
        best_total[block_index].push(total);
        best_cuts[block_index].push(cuts);
    }

    while result.chosen.len() < max_instructions {
        // The improvement of adding the (committed+1)-th cut to each block.
        let best_block = (0..block_count).max_by(|&a, &b| {
            let ia = best_total[a][committed[a] + 1] - best_total[a][committed[a]];
            let ib = best_total[b][committed[b] + 1] - best_total[b][committed[b]];
            ia.partial_cmp(&ib).unwrap_or(std::cmp::Ordering::Equal)
        });
        let Some(block_index) = best_block else { break };
        let improvement = best_total[block_index][committed[block_index] + 1]
            - best_total[block_index][committed[block_index]];
        if improvement <= 0.0 {
            break;
        }
        committed[block_index] += 1;
        result.total_weighted_saving += improvement;
        result.chosen.push(ChosenCut {
            block_index,
            // The concrete cut attributed to this step is refined below once the final
            // per-block counts are known; store the best current solution's extra cut.
            identified: best_cuts[block_index][committed[block_index]]
                .last()
                .cloned()
                .unwrap_or_else(|| best_cuts[block_index][committed[block_index]][0].clone()),
        });

        if result.chosen.len() >= max_instructions {
            break;
        }
        // Refresh the improvement of the chosen block by solving it with one more cut.
        let next_m = committed[block_index] + 1;
        if best_total[block_index].len() <= next_m {
            let (total, cuts) = identify(&mut result, block_index, next_m);
            best_total[block_index].push(total);
            best_cuts[block_index].push(cuts);
        }
    }

    // Replace the per-step attributions by the final optimal per-block solutions, which
    // is what the total saving corresponds to.
    let mut chosen = Vec::new();
    let mut total = 0.0;
    for block_index in 0..block_count {
        let m = committed[block_index];
        if m == 0 {
            continue;
        }
        total += best_total[block_index][m];
        for identified in &best_cuts[block_index][m] {
            chosen.push(ChosenCut {
                block_index,
                identified: identified.clone(),
            });
        }
    }
    result.chosen = chosen;
    result.total_weighted_saving = total;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{select_program, DriverOptions, SingleCut};
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    /// The iterative strategy: the program driver with the single-cut identifier.
    fn iterative(
        program: &Program,
        constraints: Constraints,
        model: &dyn CostModel,
        max_instructions: usize,
    ) -> SelectionResult {
        let options = DriverOptions::new(max_instructions);
        select_program(program, &SingleCut::new(), constraints, model, options)
    }

    /// Three blocks with different profiles: a hot MAC block, a lukewarm saturation
    /// block, and a cold bitwise block.
    fn program() -> Program {
        let mut p = Program::new("toy");

        let mut b = DfgBuilder::new("hot_mac");
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

        let mut b = DfgBuilder::new("warm_sat");
        b.exec_count(100);
        let v = b.input("v");
        let lo = b.input("lo");
        let hi = b.input("hi");
        let clipped_hi = b.min(v, hi);
        let clipped = b.max(clipped_hi, lo);
        let scaled = b.shl(clipped, b.imm(1));
        b.output("o", scaled);
        p.add_block(b.finish());

        let mut b = DfgBuilder::new("cold_bits");
        b.exec_count(1);
        let a = b.input("a");
        let c = b.input("c");
        let x1 = b.xor(a, c);
        let x2 = b.and(x1, b.imm(0xff));
        b.output("o", x2);
        p.add_block(b.finish());

        p
    }

    #[test]
    fn iterative_selection_prefers_hot_blocks() {
        let p = program();
        let model = DefaultCostModel::new();
        let result = iterative(&p, Constraints::new(4, 2), &model, 1);
        assert_eq!(result.len(), 1);
        assert_eq!(result.chosen[0].block_index, 0);
        assert!(result.total_weighted_saving > 0.0);
    }

    #[test]
    fn iterative_selection_does_not_overlap_cuts() {
        let p = program();
        let model = DefaultCostModel::new();
        let result = iterative(&p, Constraints::new(4, 2), &model, 16);
        // Cuts within the same block must be disjoint.
        for i in 0..result.chosen.len() {
            for j in i + 1..result.chosen.len() {
                if result.chosen[i].block_index == result.chosen[j].block_index {
                    assert!(!result.chosen[i]
                        .identified
                        .cut
                        .intersects(&result.chosen[j].identified.cut));
                }
            }
        }
        // Savings accumulate monotonically with the number of instructions allowed.
        let fewer = iterative(&p, Constraints::new(4, 2), &model, 1);
        assert!(result.total_weighted_saving >= fewer.total_weighted_saving);
    }

    #[test]
    fn optimal_matches_or_beats_iterative_on_small_programs() {
        let p = program();
        let model = DefaultCostModel::new();
        for constraints in [Constraints::new(2, 1), Constraints::new(4, 2)] {
            for ninstr in [1, 2, 4] {
                let iterative = iterative(&p, constraints, &model, ninstr);
                let optimal = select_optimal(&p, constraints, &model, ninstr, None);
                assert!(
                    optimal.total_weighted_saving >= iterative.total_weighted_saving - 1e-9,
                    "optimal {} < iterative {} under {constraints}, Ninstr={ninstr}",
                    optimal.total_weighted_saving,
                    iterative.total_weighted_saving
                );
            }
        }
    }

    #[test]
    fn optimal_respects_the_identifier_call_bound() {
        let p = program();
        let model = DefaultCostModel::new();
        let ninstr = 4;
        let result = select_optimal(&p, Constraints::new(4, 2), &model, ninstr, None);
        assert!(
            result.identifier_calls <= (ninstr + p.block_count() - 1) as u64,
            "used {} identifier calls",
            result.identifier_calls
        );
    }

    #[test]
    fn speedup_report_reflects_the_selection() {
        let p = program();
        let model = DefaultCostModel::new();
        let software = SoftwareLatencyModel::new();
        let result = iterative(&p, Constraints::new(4, 2), &model, 8);
        let report = result.speedup_report(&p, &software);
        assert!(report.speedup > 1.0);
        assert!((report.saved_cycles - result.total_weighted_saving).abs() < 1e-9);
        assert_eq!(report.instructions.len(), result.len());
    }

    #[test]
    fn zero_instruction_budget_selects_nothing() {
        let p = program();
        let model = DefaultCostModel::new();
        let result = iterative(&p, Constraints::new(4, 2), &model, 0);
        assert!(result.is_empty());
        let result = select_optimal(&p, Constraints::new(4, 2), &model, 0, None);
        assert!(result.is_empty());
    }
}
