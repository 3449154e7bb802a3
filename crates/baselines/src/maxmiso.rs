//! The MaxMISO baseline (Alippi et al., DATE 1999).

use ise_core::cut::{self, CutSet};
use ise_core::{Constraints, IdentifiedCut};
use ise_hw::CostModel;
use ise_ir::{Dfg, NodeId};

/// Maximal single-output, unbounded-input subgraph identification.
///
/// The dataflow graph is partitioned into *MaxMISOs*: every node is absorbed into the
/// subgraph of its consumer when it has exactly one use and that use is a legal
/// operation; nodes with multiple uses, with a live-out value, or whose only consumer is
/// a memory operation become the single output of their own MaxMISO. The decomposition is
/// linear in the size of the graph and unique.
///
/// Two properties noted in the paper follow directly from the construction and are
/// verified by the tests:
///
/// * every MaxMISO has exactly one output, so the algorithm can never exploit more than
///   one register-file write port;
/// * the number of inputs is unbounded, so under a tight read-port constraint a MaxMISO
///   is often rejected wholesale, even when a profitable *sub*graph of it would fit (the
///   `M1 ⊂ M2` situation of Fig. 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxMiso;

impl MaxMiso {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        MaxMiso
    }

    /// Partitions `dfg` into MaxMISOs, returning each subgraph as a cut. Memory
    /// operations and other AFU-illegal nodes are left out of every subgraph.
    #[must_use]
    pub fn partition(dfg: &Dfg) -> Vec<CutSet> {
        let n = dfg.node_count();
        let mut root: Vec<Option<usize>> = vec![None; n];
        // Process consumers before producers: nodes are stored def-before-use, so a
        // reverse scan visits every consumer before the nodes it consumes.
        for index in (0..n).rev() {
            let id = NodeId::new(index);
            let node = dfg.node(id);
            if node.is_forbidden_in_afu() {
                continue;
            }
            let consumers = dfg.consumers(id);
            let single_absorbing_consumer = if !dfg.is_output_source(id) && consumers.len() == 1 {
                let consumer = consumers[0];
                root[consumer.index()].map(|_| consumer)
            } else {
                None
            };
            root[index] = match single_absorbing_consumer {
                Some(consumer) => root[consumer.index()],
                None => Some(index),
            };
        }
        let mut groups: Vec<(usize, CutSet)> = Vec::new();
        for (index, slot) in root.iter().enumerate() {
            let Some(group_root) = *slot else {
                continue;
            };
            match groups.iter_mut().find(|(r, _)| *r == group_root) {
                Some((_, cut)) => {
                    cut.insert(NodeId::new(index));
                }
                None => {
                    let mut cut = CutSet::for_dfg(dfg);
                    cut.insert(NodeId::new(index));
                    groups.push((group_root, cut));
                }
            }
        }
        groups.into_iter().map(|(_, cut)| cut).collect()
    }

    /// The profitable MaxMISOs of `dfg` that satisfy `constraints`, as candidate cuts:
    /// pairwise disjoint, convex and free of memory operations.
    #[must_use]
    pub fn candidates(
        &self,
        dfg: &Dfg,
        constraints: Constraints,
        model: &dyn CostModel,
    ) -> Vec<IdentifiedCut> {
        Self::partition(dfg)
            .into_iter()
            .map(|set| {
                let evaluation = cut::evaluate(dfg, &set, model);
                IdentifiedCut {
                    cut: set,
                    evaluation,
                }
            })
            .filter(|candidate| {
                candidate.evaluation.merit > 0.0
                    && candidate.evaluation.convex
                    && constraints
                        .ports_ok(candidate.evaluation.inputs, candidate.evaluation.outputs)
                    && constraints.budget_ok(candidate.evaluation.area, candidate.evaluation.nodes)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    /// x*y feeds both an add and a sub (two uses), so the multiply is its own MaxMISO;
    /// each of the two dependent chains forms another MaxMISO.
    fn shared_product() -> Dfg {
        let mut b = DfgBuilder::new("shared");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let m = b.mul(x, y);
        let a = b.add(m, z);
        let s = b.sub(m, z);
        let a2 = b.shl(a, b.imm(1));
        b.output("o1", a2);
        b.output("o2", s);
        b.finish()
    }

    #[test]
    fn partition_covers_all_legal_nodes_exactly_once() {
        let g = shared_product();
        let groups = MaxMiso::partition(&g);
        let mut seen = vec![false; g.node_count()];
        for group in &groups {
            for id in group.iter() {
                assert!(!seen[id.index()], "node {id} assigned twice");
                seen[id.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every legal node must be covered");
    }

    #[test]
    fn every_miso_has_a_single_output_and_is_convex() {
        let g = shared_product();
        for group in MaxMiso::partition(&g) {
            assert_eq!(cut::output_count(&g, &group), 1);
            assert!(cut::is_convex(&g, &group));
        }
    }

    #[test]
    fn shared_values_split_the_partition() {
        let g = shared_product();
        let groups = MaxMiso::partition(&g);
        // mul (2 uses) alone; {add, shl}; {sub}.
        assert_eq!(groups.len(), 3);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = groups.iter().map(CutSet::len).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 1, 2]);
    }

    #[test]
    fn memory_nodes_are_excluded_and_split_chains() {
        let mut b = DfgBuilder::new("mem");
        let base = b.input("base");
        let x = b.input("x");
        let addr = b.add(base, x);
        let v = b.load(addr);
        let w = b.mul(v, x);
        let u = b.add(w, b.imm(3));
        b.output("o", u);
        let g = b.finish();
        let groups = MaxMiso::partition(&g);
        for group in &groups {
            assert!(cut::is_afu_legal(&g, group));
        }
        // The load both terminates the address MaxMISO and starts a fresh one above it.
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn unbounded_inputs_are_rejected_under_tight_read_port_constraints() {
        // A 5-input reduction tree: a single MaxMISO with 5 inputs.
        let mut b = DfgBuilder::new("tree");
        let inputs: Vec<_> = (0..5).map(|i| b.input(format!("x{i}"))).collect();
        let s1 = b.add(inputs[0], inputs[1]);
        let s2 = b.add(inputs[2], inputs[3]);
        let s3 = b.add(s1, s2);
        let s4 = b.mul(s3, inputs[4]);
        b.output("o", s4);
        let g = b.finish();
        let model = DefaultCostModel::new();
        let algo = MaxMiso::new();
        assert_eq!(MaxMiso::partition(&g).len(), 1);
        // With 2 read ports the single MaxMISO does not fit and nothing is proposed,
        // even though a profitable 2-input subgraph exists (found by the exact search).
        assert!(algo
            .candidates(&g, Constraints::new(2, 1), &model)
            .is_empty());
        assert_eq!(algo.candidates(&g, Constraints::new(8, 1), &model).len(), 1);
        let exact = ise_core::identify_single_cut(&g, Constraints::new(2, 1), &model);
        assert!(exact.best.is_some());
    }
}
