//! A trivial per-node baseline, used as a sanity floor in the comparisons.

use ise_core::cut::{self, CutSet};
use ise_core::{Constraints, IdentifiedCut};
use ise_hw::CostModel;
use ise_ir::Dfg;

/// Proposes every individual operation as its own candidate instruction.
///
/// With a realistic cost model a single primitive operation almost never saves cycles
/// (it already executes in one cycle), so this baseline typically selects nothing; it
/// exists to anchor the comparison plots and to catch cost-model regressions where a
/// lone operation suddenly appears profitable.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleNode;

impl SingleNode {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        SingleNode
    }

    /// Every profitable single operation of `dfg` within the port constraints, as a
    /// candidate cut of its own.
    #[must_use]
    pub fn candidates(
        &self,
        dfg: &Dfg,
        constraints: Constraints,
        model: &dyn CostModel,
    ) -> Vec<IdentifiedCut> {
        dfg.node_ids()
            .filter(|&id| !dfg.node(id).is_forbidden_in_afu())
            .map(|id| {
                let set = CutSet::from_nodes(dfg, [id]);
                let evaluation = cut::evaluate(dfg, &set, model);
                IdentifiedCut {
                    cut: set,
                    evaluation,
                }
            })
            .filter(|candidate| {
                candidate.evaluation.merit > 0.0
                    && constraints
                        .ports_ok(candidate.evaluation.inputs, candidate.evaluation.outputs)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    #[test]
    fn only_multi_cycle_operations_are_ever_profitable() {
        let mut b = DfgBuilder::new("mix");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.add(x, y);
        let m = b.mul(a, y);
        let s = b.xor(m, x);
        b.output("o", s);
        let g = b.finish();
        let model = DefaultCostModel::new();
        let algo = SingleNode::new();
        let candidates = algo.candidates(&g, Constraints::new(2, 1), &model);
        // Only the 2-cycle multiply gains anything when turned into a 1-cycle instruction.
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].evaluation.nodes, 1);
        assert!(candidates[0]
            .cut
            .contains(m.as_node().expect("mul is a node")));
    }

    #[test]
    fn memory_operations_are_never_proposed() {
        let mut b = DfgBuilder::new("mem");
        let base = b.input("base");
        let v = b.load(base);
        let w = b.div(v, b.imm(3));
        b.output("o", w);
        let g = b.finish();
        let model = DefaultCostModel::new();
        let algo = SingleNode::new();
        for candidate in algo.candidates(&g, Constraints::new(2, 1), &model) {
            assert!(cut::is_afu_legal(&g, &candidate.cut));
        }
    }
}
