//! Topological orderings of dataflow graphs.
//!
//! The identification algorithm of the paper (Section 6.1) requires an ordering in which
//! a node appears *after* all of its consumers ("if G contains an edge (u, v) then u
//! appears after v in the ordering"), so that, once the output-port or convexity
//! constraint is violated, no later insertion can repair it. This module provides both
//! that ordering ([`consumers_first`]) and the conventional def-before-use ordering
//! ([`producers_first`]), together with validity checks used by the property tests.

use crate::dfg::{Dfg, NodeId};
use crate::error::IrError;

/// Fallible form of [`producers_first`].
///
/// # Errors
///
/// Returns [`IrError::Cyclic`] if the graph contains a dependency cycle (possible only
/// for graphs assembled from untrusted serialised data; [`Dfg::add_node`] cannot build
/// one).
pub fn try_producers_first(dfg: &Dfg) -> Result<Vec<NodeId>, IrError> {
    let n = dfg.node_count();
    let mut remaining_preds = vec![0usize; n];
    for (id, node) in dfg.iter_nodes() {
        remaining_preds[id.index()] = node.node_operands().count();
    }
    let mut ready: Vec<NodeId> = (0..n)
        .map(NodeId::new)
        .filter(|id| remaining_preds[id.index()] == 0)
        .collect();
    // Pop from the back for O(1); order among ready nodes is irrelevant for correctness.
    let mut order = Vec::with_capacity(n);
    while let Some(id) = ready.pop() {
        order.push(id);
        for &consumer in dfg.consumers(id) {
            let slot = &mut remaining_preds[consumer.index()];
            *slot -= 1;
            if *slot == 0 {
                ready.push(consumer);
            }
        }
    }
    if order.len() != n {
        return Err(IrError::Cyclic {
            block: dfg.name().to_string(),
        });
    }
    Ok(order)
}

/// Returns a topological order in which every producer appears before its consumers.
///
/// Because [`Dfg`] is constructed in def-before-use order, the insertion order already
/// has this property; this function nevertheless recomputes an order with Kahn's
/// algorithm so that passes that permute nodes can rely on it.
///
/// # Panics
///
/// Panics if the graph is cyclic, which cannot happen for graphs built through
/// [`Dfg::add_node`]. Callers holding graphs from untrusted serialised data should run
/// [`Dfg::validate`] first (as the engine drivers do) or use [`try_producers_first`].
#[must_use]
pub fn producers_first(dfg: &Dfg) -> Vec<NodeId> {
    try_producers_first(dfg).expect("dataflow graph must be acyclic")
}

/// Returns the ordering used by the single-cut search: every node appears *after* all of
/// its consumers (the ordering of Fig. 4 in the paper).
///
/// # Panics
///
/// Panics if the graph is cyclic; see [`producers_first`].
#[must_use]
pub fn consumers_first(dfg: &Dfg) -> Vec<NodeId> {
    let mut order = producers_first(dfg);
    order.reverse();
    order
}

/// Checks that `order` is a permutation of the graph's nodes in which every producer
/// appears before all of its consumers.
#[must_use]
pub fn is_producers_first(dfg: &Dfg, order: &[NodeId]) -> bool {
    if order.len() != dfg.node_count() {
        return false;
    }
    let mut position = vec![usize::MAX; dfg.node_count()];
    for (pos, id) in order.iter().enumerate() {
        if id.index() >= dfg.node_count() || position[id.index()] != usize::MAX {
            return false;
        }
        position[id.index()] = pos;
    }
    for (id, node) in dfg.iter_nodes() {
        for pred in node.node_operands() {
            if position[pred.index()] >= position[id.index()] {
                return false;
            }
        }
    }
    true
}

/// Checks that `order` is a permutation of the graph's nodes in which every consumer
/// appears before its producers (the property required by the search algorithm).
#[must_use]
pub fn is_consumers_first(dfg: &Dfg, order: &[NodeId]) -> bool {
    let mut reversed: Vec<NodeId> = order.to_vec();
    reversed.reverse();
    is_producers_first(dfg, &reversed)
}

/// Length (in nodes) of the longest dependency chain of the graph.
///
/// This is the unweighted critical path, used by the workload statistics and by tests.
#[must_use]
pub fn depth(dfg: &Dfg) -> usize {
    let order = producers_first(dfg);
    let mut level = vec![0usize; dfg.node_count()];
    let mut max_level = 0;
    for id in order {
        let node_level = dfg
            .node(id)
            .node_operands()
            .map(|p| level[p.index()] + 1)
            .max()
            .unwrap_or(1)
            .max(1);
        level[id.index()] = node_level;
        max_level = max_level.max(node_level);
    }
    max_level
}

/// Returns `true` if `descendant` is reachable from `ancestor` through one or more
/// dataflow edges.
#[must_use]
pub fn reaches(dfg: &Dfg, ancestor: NodeId, descendant: NodeId) -> bool {
    if ancestor == descendant {
        return false;
    }
    let mut visited = vec![false; dfg.node_count()];
    let mut stack = vec![ancestor];
    while let Some(id) = stack.pop() {
        for &consumer in dfg.consumers(id) {
            if consumer == descendant {
                return true;
            }
            if !visited[consumer.index()] {
                visited[consumer.index()] = true;
                stack.push(consumer);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    fn chain(len: usize) -> Dfg {
        let mut b = DfgBuilder::new("chain");
        let mut v = b.input("x");
        for _ in 0..len {
            v = b.add(v, b.imm(1));
        }
        b.output("out", v);
        b.finish()
    }

    #[test]
    fn producers_first_is_valid() {
        let g = chain(10);
        let order = producers_first(&g);
        assert!(is_producers_first(&g, &order));
        assert!(!is_consumers_first(&g, &order));
    }

    #[test]
    fn consumers_first_is_valid() {
        let g = chain(10);
        let order = consumers_first(&g);
        assert!(is_consumers_first(&g, &order));
        assert!(!is_producers_first(&g, &order));
    }

    #[test]
    fn depth_of_chain_equals_length() {
        assert_eq!(depth(&chain(7)), 7);
        assert_eq!(depth(&chain(1)), 1);
    }

    #[test]
    fn reachability() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let a = b.not(x);
        let c = b.add(a, x);
        let d = b.neg(x);
        b.output("o1", c);
        b.output("o2", d);
        let g = b.finish();
        let a = a.as_node().unwrap();
        let c = c.as_node().unwrap();
        let d = d.as_node().unwrap();
        assert!(reaches(&g, a, c));
        assert!(!reaches(&g, c, a));
        assert!(!reaches(&g, a, d));
        assert!(!reaches(&g, a, a));
    }

    #[test]
    fn rejects_wrong_length_or_duplicates() {
        let g = chain(3);
        assert!(!is_producers_first(&g, &[NodeId::new(0)]));
        assert!(!is_producers_first(
            &g,
            &[NodeId::new(0), NodeId::new(0), NodeId::new(1)]
        ));
    }
}
