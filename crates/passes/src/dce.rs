//! Dead-code elimination on dataflow graphs.

use std::collections::BTreeMap;

use ise_ir::{Dfg, Node, NodeId, Operand};

/// Removes every operation whose result is transitively unused by any block output or
/// side-effecting node. Returns the number of nodes removed.
///
/// The relative order of the remaining nodes is preserved, so the graph stays in
/// def-before-use order.
pub fn eliminate_dead_code(dfg: &mut Dfg) -> usize {
    let n = dfg.node_count();
    let mut live = vec![false; n];
    let mut worklist: Vec<NodeId> = Vec::new();
    for (id, node) in dfg.iter_nodes() {
        if node.opcode.has_side_effect() || dfg.is_output_source(id) {
            live[id.index()] = true;
            worklist.push(id);
        }
    }
    while let Some(id) = worklist.pop() {
        for pred in dfg.node(id).node_operands() {
            if !live[pred.index()] {
                live[pred.index()] = true;
                worklist.push(pred);
            }
        }
    }

    let removed = live.iter().filter(|&&l| !l).count();
    if removed == 0 {
        return 0;
    }

    // Rebuild the graph with only the live nodes.
    let mut rebuilt = Dfg::new(dfg.name().to_string());
    rebuilt.set_exec_count(dfg.exec_count());
    for (_, input) in dfg.iter_inputs() {
        rebuilt.add_input(input.name.clone());
    }
    let mut remap: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for (id, node) in dfg.iter_nodes() {
        if !live[id.index()] {
            continue;
        }
        let operands = node
            .operands
            .iter()
            .map(|operand| match *operand {
                Operand::Node(m) => Operand::Node(remap[&m]),
                other => other,
            })
            .collect();
        let new_id = rebuilt.add_node(Node {
            opcode: node.opcode,
            operands,
            name: node.name.clone(),
        });
        remap.insert(id, new_id);
    }
    for output in dfg.iter_outputs() {
        let source = match output.source {
            Operand::Node(m) => Operand::Node(remap[&m]),
            other => other,
        };
        rebuilt.add_output(output.name.clone(), source);
    }
    *dfg = rebuilt;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_ir::DfgBuilder;

    #[test]
    fn removes_transitively_dead_chains() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let live = b.add(x, b.imm(1));
        let dead1 = b.mul(x, x);
        let _dead2 = b.shl(dead1, b.imm(2));
        b.output("o", live);
        let mut g = b.finish();
        assert_eq!(eliminate_dead_code(&mut g), 2);
        assert_eq!(g.node_count(), 1);
        assert!(g.validate().is_ok());
        // A second run is a no-op.
        assert_eq!(eliminate_dead_code(&mut g), 0);
    }

    #[test]
    fn stores_and_their_operands_are_kept() {
        let mut b = DfgBuilder::new("t");
        let addr = b.input("addr");
        let x = b.input("x");
        let doubled = b.shl(x, b.imm(1));
        b.store(addr, doubled);
        let mut g = b.finish();
        assert_eq!(eliminate_dead_code(&mut g), 0);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn outputs_referencing_inputs_are_preserved() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let _dead = b.not(x);
        b.output("same", x);
        let mut g = b.finish();
        assert_eq!(eliminate_dead_code(&mut g), 1);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.output_count(), 1);
    }
}
