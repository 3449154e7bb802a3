//! The Clubbing baseline (Baleani et al., CODES 2002).

use ise_core::cut::{self, CutSet};
use ise_core::{Constraints, IdentifiedCut};
use ise_hw::CostModel;
use ise_ir::Dfg;

/// Greedy linear clustering ("clubbing") of dataflow operations.
///
/// Operations are visited once, in dataflow (def-before-use) order. Each operation is
/// *clubbed* with the cluster of one of its producers whenever the merged cluster still
/// satisfies the input/output port constraints, remains convex and stays legal (no memory
/// operations); otherwise the operation opens a new cluster of its own. The first
/// feasible producer cluster is taken — the hallmark greediness of the original
/// technique, which the paper contrasts with its exhaustive search: clusters stay small
/// and local, and never span disconnected pieces of the graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct Clubbing;

impl Clubbing {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        Clubbing
    }

    /// Clusters `dfg` under the port constraints and returns the clusters.
    #[must_use]
    pub fn cluster(dfg: &Dfg, constraints: Constraints) -> Vec<CutSet> {
        let mut clusters: Vec<CutSet> = Vec::new();
        // Index of the cluster each node currently belongs to.
        let mut cluster_of: Vec<Option<usize>> = vec![None; dfg.node_count()];
        for (id, node) in dfg.iter_nodes() {
            if node.is_forbidden_in_afu() {
                continue;
            }
            let mut placed = false;
            // Try to join the cluster of each producer, in operand order.
            for producer in node.node_operands() {
                let Some(cluster_index) = cluster_of[producer.index()] else {
                    continue;
                };
                let mut merged = clusters[cluster_index].clone();
                merged.insert(id);
                let inputs = cut::input_count(dfg, &merged);
                let outputs = cut::output_count(dfg, &merged);
                if constraints.ports_ok(inputs, outputs)
                    && constraints.budget_ok(0.0, merged.len())
                    && cut::is_convex(dfg, &merged)
                {
                    clusters[cluster_index] = merged;
                    cluster_of[id.index()] = Some(cluster_index);
                    placed = true;
                    break;
                }
            }
            if !placed {
                let mut cluster = CutSet::for_dfg(dfg);
                cluster.insert(id);
                let inputs = cut::input_count(dfg, &cluster);
                let outputs = cut::output_count(dfg, &cluster);
                if constraints.ports_ok(inputs, outputs) {
                    cluster_of[id.index()] = Some(clusters.len());
                    clusters.push(cluster);
                }
            }
        }
        clusters
    }

    /// The profitable clusters of `dfg` that satisfy `constraints`, as candidate cuts:
    /// pairwise disjoint, convex and free of memory operations.
    #[must_use]
    pub fn candidates(
        &self,
        dfg: &Dfg,
        constraints: Constraints,
        model: &dyn CostModel,
    ) -> Vec<IdentifiedCut> {
        Self::cluster(dfg, constraints)
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

    fn chain() -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.mul(x, y);
        let a = b.add(m, y);
        let s = b.shl(a, b.imm(3));
        let t = b.xor(s, x);
        b.output("o", t);
        b.finish()
    }

    #[test]
    fn clusters_are_disjoint_and_feasible() {
        let g = chain();
        let constraints = Constraints::new(2, 1);
        let clusters = Clubbing::cluster(&g, constraints);
        let mut seen = vec![false; g.node_count()];
        for cluster in &clusters {
            assert!(!cluster.is_empty());
            assert!(cut::is_convex(&g, cluster));
            assert!(constraints.ports_ok(
                cut::input_count(&g, cluster),
                cut::output_count(&g, cluster)
            ));
            for id in cluster.iter() {
                assert!(!seen[id.index()]);
                seen[id.index()] = true;
            }
        }
    }

    #[test]
    fn a_pure_chain_is_clubbed_into_one_cluster() {
        let g = chain();
        // The whole chain has 2 inputs and 1 output, so generous ports keep it together.
        let clusters = Clubbing::cluster(&g, Constraints::new(4, 2));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 4);
    }

    #[test]
    fn tight_ports_split_the_chain() {
        let mut b = DfgBuilder::new("wide");
        let inputs: Vec<_> = (0..6).map(|i| b.input(format!("x{i}"))).collect();
        let a = b.add(inputs[0], inputs[1]);
        let c = b.add(a, inputs[2]);
        let d = b.add(c, inputs[3]);
        let e = b.add(d, inputs[4]);
        let f = b.add(e, inputs[5]);
        b.output("o", f);
        let g = b.finish();
        let tight = Clubbing::cluster(&g, Constraints::new(2, 1));
        let loose = Clubbing::cluster(&g, Constraints::new(8, 1));
        assert!(tight.len() > loose.len());
        assert_eq!(loose.len(), 1);
    }

    #[test]
    fn memory_operations_break_clusters() {
        let mut b = DfgBuilder::new("mem");
        let base = b.input("base");
        let x = b.input("x");
        let addr = b.add(base, x);
        let v = b.load(addr);
        let w = b.mul(v, x);
        b.output("o", w);
        let g = b.finish();
        let clusters = Clubbing::cluster(&g, Constraints::new(4, 2));
        for cluster in &clusters {
            assert!(cut::is_afu_legal(&g, cluster));
        }
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn candidates_only_report_profitable_clusters() {
        let g = chain();
        let model = DefaultCostModel::new();
        let algo = Clubbing::new();
        for candidate in algo.candidates(&g, Constraints::new(4, 2), &model) {
            assert!(candidate.evaluation.merit > 0.0);
        }
    }
}
