//! Cuts (node subsets) of a dataflow graph and their microarchitectural properties.
//!
//! A *cut* `S ⊆ G` is any subset of the operation nodes of a basic block (Section 5 of
//! the paper). This module provides a compact bitset representation ([`CutSet`]) and the
//! reference implementations of the three quantities that the paper's constraints are
//! expressed on:
//!
//! * `IN(S)` — the number of distinct values entering the cut from outside (register-file
//!   read ports used by the special instruction);
//! * `OUT(S)` — the number of nodes of `S` whose value is used outside the cut
//!   (register-file write ports used);
//! * convexity — there must be no path between two nodes of `S` passing through a node
//!   outside `S`, otherwise no schedule exists once `S` is collapsed into one instruction.
//!
//! These functions recompute their result from scratch; the search algorithm maintains
//! the same quantities incrementally (see [`SingleCutSearch`](crate::SingleCutSearch)) and the property tests check
//! that both agree on random graphs and random cuts.

use std::fmt;

use ise_hw::{cut_merit, CostModel};
use ise_ir::{Dfg, NodeId, Operand};

/// A set of operation nodes of one basic block, stored as a bitset.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub struct CutSet {
    words: Vec<u64>,
    len: usize,
}

impl CutSet {
    /// Creates an empty cut for a graph with `capacity` nodes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        CutSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Creates an empty cut sized for the given graph.
    #[must_use]
    pub fn for_dfg(dfg: &Dfg) -> Self {
        Self::with_capacity(dfg.node_count())
    }

    /// Creates a cut from an iterator of node identifiers.
    #[must_use]
    pub fn from_nodes(dfg: &Dfg, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut set = Self::for_dfg(dfg);
        for node in nodes {
            set.insert(node);
        }
        set
    }

    /// Number of nodes in the cut.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of 64-bit words in the bitset (its heap footprint over eight).
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if the cut is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if the cut contains `node`.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        let index = node.index();
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1 << (index % 64)) != 0)
    }

    /// Inserts `node`; returns `true` if it was not already present.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let index = node.index();
        if index / 64 >= self.words.len() {
            self.words.resize(index / 64 + 1, 0);
        }
        let word = &mut self.words[index / 64];
        let mask = 1 << (index % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `node`; returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let index = node.index();
        if let Some(word) = self.words.get_mut(index / 64) {
            let mask = 1 << (index % 64);
            if *word & mask != 0 {
                *word &= !mask;
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Iterates over the node identifiers in the cut, in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1 << b) != 0)
                .map(move |b| NodeId::new(w * 64 + b))
        })
    }

    /// Returns `true` if the two cuts share at least one node.
    #[must_use]
    pub fn intersects(&self, other: &CutSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Adds every node of `other` to this cut.
    pub fn union_with(&mut self, other: &CutSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, &w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Returns the node identifiers as a vector (useful for reporting).
    #[must_use]
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl FromIterator<NodeId> for CutSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut set = CutSet::default();
        for node in iter {
            set.insert(node);
        }
        set
    }
}

impl Extend<NodeId> for CutSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for node in iter {
            self.insert(node);
        }
    }
}

impl fmt::Display for CutSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, node) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{node}")?;
        }
        write!(f, "}}")
    }
}

/// The distinct external value sources feeding a cut: nodes outside the cut and block
/// input variables (immediates never count).
#[must_use]
pub fn input_sources(dfg: &Dfg, cut: &CutSet) -> Vec<Operand> {
    let mut sources = Vec::new();
    let mut seen_nodes = vec![false; dfg.node_count()];
    let mut seen_inputs = vec![false; dfg.input_count()];
    for id in cut.iter() {
        for operand in &dfg.node(id).operands {
            match *operand {
                Operand::Node(n) if !cut.contains(n) && !seen_nodes[n.index()] => {
                    seen_nodes[n.index()] = true;
                    sources.push(Operand::Node(n));
                }
                Operand::Input(p) if !seen_inputs[p.index()] => {
                    seen_inputs[p.index()] = true;
                    sources.push(Operand::Input(p));
                }
                _ => {}
            }
        }
    }
    sources
}

/// `IN(S)`: the number of register-file read ports needed by the cut.
#[must_use]
pub fn input_count(dfg: &Dfg, cut: &CutSet) -> usize {
    input_sources(dfg, cut).len()
}

/// The nodes of the cut whose value is consumed outside the cut (by another operation of
/// the block or by a block output variable).
#[must_use]
pub fn output_nodes(dfg: &Dfg, cut: &CutSet) -> Vec<NodeId> {
    cut.iter()
        .filter(|&id| {
            dfg.node(id).opcode.has_result()
                && (dfg.is_output_source(id) || dfg.consumers(id).iter().any(|c| !cut.contains(*c)))
        })
        .collect()
}

/// `OUT(S)`: the number of register-file write ports needed by the cut.
#[must_use]
pub fn output_count(dfg: &Dfg, cut: &CutSet) -> usize {
    output_nodes(dfg, cut).len()
}

/// Returns `true` if the cut is convex: no path from a node of `S` to another node of `S`
/// passes through a node outside `S`.
#[must_use]
pub fn is_convex(dfg: &Dfg, cut: &CutSet) -> bool {
    // Depth-first search downstream from each external consumer of a cut node, moving
    // only through nodes outside the cut; reaching the cut again disproves convexity.
    let mut visited = vec![false; dfg.node_count()];
    let mut stack: Vec<NodeId> = Vec::new();
    for id in cut.iter() {
        for &consumer in dfg.consumers(id) {
            if !cut.contains(consumer) && !visited[consumer.index()] {
                visited[consumer.index()] = true;
                stack.push(consumer);
            }
        }
    }
    while let Some(id) = stack.pop() {
        for &consumer in dfg.consumers(id) {
            if cut.contains(consumer) {
                return false;
            }
            if !visited[consumer.index()] {
                visited[consumer.index()] = true;
                stack.push(consumer);
            }
        }
    }
    true
}

/// Returns `true` if the cut stays convex once each of `groups` is contracted into a
/// single vertex.
///
/// Selecting several instructions in one block later collapses each chosen cut into one
/// AFU node, in selection order. Collapsing a cut `A` merges its nodes, so a later cut
/// `B` that has both an ancestor *and* a descendant inside `A` — two unrelated paths in
/// the original graph — gains a `B → A → B` path in the rewritten graph and stops being
/// convex, even though `A` and `B` are disjoint and each convex on its own. The
/// selection drivers therefore validate every new candidate against the cuts already
/// committed in its block with this check: a depth-first search downstream from the
/// cut's external consumers that, on entering any node of a contracted group, may leave
/// from *every* node of that group. Reaching the cut again disproves convexity in the
/// contracted graph.
///
/// `groups` must be disjoint from `cut` (the drivers guarantee this: committed nodes
/// are excluded from later searches).
#[must_use]
pub fn is_convex_under_contractions(dfg: &Dfg, cut: &CutSet, groups: &[CutSet]) -> bool {
    if groups.is_empty() {
        return is_convex(dfg, cut);
    }
    let mut group_of = vec![usize::MAX; dfg.node_count()];
    for (g, group) in groups.iter().enumerate() {
        for id in group.iter() {
            debug_assert!(!cut.contains(id), "groups must be disjoint from the cut");
            group_of[id.index()] = g;
        }
    }
    let mut visited = vec![false; dfg.node_count()];
    let mut expanded = vec![false; groups.len()];
    let mut stack: Vec<NodeId> = Vec::new();
    let enqueue = |id: NodeId, visited: &mut Vec<bool>, stack: &mut Vec<NodeId>| {
        if !visited[id.index()] {
            visited[id.index()] = true;
            stack.push(id);
        }
    };
    for id in cut.iter() {
        for &consumer in dfg.consumers(id) {
            if !cut.contains(consumer) {
                enqueue(consumer, &mut visited, &mut stack);
            }
        }
    }
    while let Some(id) = stack.pop() {
        // Entering a contracted group means every member's consumers become reachable.
        let g = group_of[id.index()];
        if g != usize::MAX && !expanded[g] {
            expanded[g] = true;
            for member in groups[g].iter() {
                enqueue(member, &mut visited, &mut stack);
            }
        }
        for &consumer in dfg.consumers(id) {
            if cut.contains(consumer) {
                return false;
            }
            enqueue(consumer, &mut visited, &mut stack);
        }
    }
    true
}

/// The set of nodes reachable downstream from any node of `groups` (excluding the
/// group nodes themselves unless they are reachable from another group node).
///
/// Used by the iterative selection driver to resolve interlock rejections: a candidate
/// that straddles a committed cut is split along this frontier, and only its downstream
/// side is excluded before the block is re-identified — keeping the upstream side
/// available to later candidates.
#[must_use]
pub fn downstream_of(dfg: &Dfg, groups: &[CutSet]) -> CutSet {
    let mut visited = vec![false; dfg.node_count()];
    let mut stack: Vec<NodeId> = Vec::new();
    for group in groups {
        for id in group.iter() {
            for &consumer in dfg.consumers(id) {
                if !visited[consumer.index()] {
                    visited[consumer.index()] = true;
                    stack.push(consumer);
                }
            }
        }
    }
    let mut result = CutSet::for_dfg(dfg);
    while let Some(id) = stack.pop() {
        result.insert(id);
        for &consumer in dfg.consumers(id) {
            if !visited[consumer.index()] {
                visited[consumer.index()] = true;
                stack.push(consumer);
            }
        }
    }
    result
}

/// Returns `true` if every node of the cut may legally be implemented inside an AFU
/// (i.e. the cut contains no memory operation and no already-collapsed AFU node).
#[must_use]
pub fn is_afu_legal(dfg: &Dfg, cut: &CutSet) -> bool {
    cut.iter().all(|id| !dfg.node(id).is_forbidden_in_afu())
}

/// Full evaluation of one cut under a cost model.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CutEvaluation {
    /// Number of operation nodes in the cut.
    pub nodes: usize,
    /// `IN(S)` — register-file read ports used.
    pub inputs: usize,
    /// `OUT(S)` — register-file write ports used.
    pub outputs: usize,
    /// Whether the cut is convex.
    pub convex: bool,
    /// Accumulated software cycles of the cut's operations.
    pub software_cycles: u64,
    /// Critical-path delay of the cut's datapath, in normalised MAC delays.
    pub hardware_critical_path: f64,
    /// Latency of the cut as a single instruction, in cycles.
    pub hardware_cycles: u32,
    /// Normalised datapath area.
    pub area: f64,
    /// Merit `M(S)` — estimated cycles saved per execution.
    pub merit: f64,
}

/// Evaluates a cut from scratch (non-incrementally) under the given cost model.
#[must_use]
pub fn evaluate(dfg: &Dfg, cut: &CutSet, model: &dyn CostModel) -> CutEvaluation {
    let software_cycles: u64 = cut
        .iter()
        .map(|id| u64::from(model.software_cycles(dfg.node(id))))
        .sum();
    // Critical path restricted to the cut.
    let mut finish = vec![0.0f64; dfg.node_count()];
    let mut critical_path = 0.0f64;
    for (id, node) in dfg.iter_nodes() {
        if !cut.contains(id) {
            continue;
        }
        let ready = node
            .node_operands()
            .filter(|p| cut.contains(*p))
            .map(|p| finish[p.index()])
            .fold(0.0f64, f64::max);
        let done = ready + model.hardware_delay(node);
        finish[id.index()] = done;
        critical_path = critical_path.max(done);
    }
    let area: f64 = cut.iter().map(|id| model.hardware_area(dfg.node(id))).sum();
    let hardware_cycles = model.cycles_for_delay(critical_path);
    CutEvaluation {
        nodes: cut.len(),
        inputs: input_count(dfg, cut),
        outputs: output_count(dfg, cut),
        convex: is_convex(dfg, cut),
        software_cycles,
        hardware_critical_path: critical_path,
        hardware_cycles,
        area,
        merit: cut_merit(software_cycles, critical_path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    /// The example graph of Fig. 4: node 3 (`*`) feeds nodes 1 (`>>`) and 2 (`+`), which
    /// both feed node 0 (`+`). Node indices here are in def-before-use order (the
    /// opposite of the paper's numbering): 0 = `*`, 1 = `>>`, 2 = `+`, 3 = final `+`.
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
    fn bitset_basics() {
        let g = fig4();
        let mut cut = CutSet::for_dfg(&g);
        assert!(cut.is_empty());
        assert!(cut.insert(NodeId::new(1)));
        assert!(!cut.insert(NodeId::new(1)));
        assert!(cut.insert(NodeId::new(3)));
        assert_eq!(cut.len(), 2);
        assert!(cut.contains(NodeId::new(3)));
        assert!(!cut.contains(NodeId::new(0)));
        assert_eq!(cut.to_vec(), vec![NodeId::new(1), NodeId::new(3)]);
        assert!(cut.remove(NodeId::new(1)));
        assert!(!cut.remove(NodeId::new(1)));
        assert_eq!(cut.len(), 1);
        assert_eq!(cut.to_string(), "{%3}");
    }

    #[test]
    fn union_and_intersection() {
        let g = fig4();
        let a = CutSet::from_nodes(&g, [NodeId::new(0), NodeId::new(1)]);
        let b = CutSet::from_nodes(&g, [NodeId::new(1), NodeId::new(2)]);
        let c = CutSet::from_nodes(&g, [NodeId::new(3)]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 3);
        assert!(u.contains(NodeId::new(2)));
    }

    #[test]
    fn in_out_counts_match_hand_computation() {
        let g = fig4();
        // Cut = {mul, shr}: inputs are x, y (mul) — shr's other operand is an immediate;
        // outputs are mul (feeds add1 outside) and shr (feeds add0 outside).
        let cut = CutSet::from_nodes(&g, [NodeId::new(0), NodeId::new(1)]);
        assert_eq!(input_count(&g, &cut), 2);
        assert_eq!(output_count(&g, &cut), 2);
        // Whole graph: inputs x, y; single output node (the final add).
        let all = CutSet::from_nodes(&g, g.node_ids());
        assert_eq!(input_count(&g, &all), 2);
        assert_eq!(output_count(&g, &all), 1);
    }

    #[test]
    fn convexity_matches_fig4_example() {
        let g = fig4();
        // {mul, final add} is non-convex: the path through shr (or add1) leaves the cut.
        let bad = CutSet::from_nodes(&g, [NodeId::new(0), NodeId::new(3)]);
        assert!(!is_convex(&g, &bad));
        // Adding both intermediate nodes restores convexity.
        let good = CutSet::from_nodes(&g, g.node_ids());
        assert!(is_convex(&g, &good));
        // Any single node is trivially convex.
        for id in g.node_ids() {
            assert!(is_convex(&g, &CutSet::from_nodes(&g, [id])));
        }
    }

    #[test]
    fn legality_excludes_memory_ops() {
        let mut b = DfgBuilder::new("mem");
        let base = b.input("base");
        let v = b.load(base);
        let w = b.add(v, b.imm(1));
        b.output("o", w);
        let g = b.finish();
        let with_load = CutSet::from_nodes(&g, g.node_ids());
        assert!(!is_afu_legal(&g, &with_load));
        let only_add = CutSet::from_nodes(&g, [NodeId::new(1)]);
        assert!(is_afu_legal(&g, &only_add));
    }

    #[test]
    fn evaluation_combines_software_and_hardware_costs() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let all = CutSet::from_nodes(&g, g.node_ids());
        let eval = evaluate(&g, &all, &model);
        assert_eq!(eval.nodes, 4);
        assert_eq!(eval.inputs, 2);
        assert_eq!(eval.outputs, 1);
        assert!(eval.convex);
        // software: mul(2) + shr(1) + add(1) + add(1) = 5
        assert_eq!(eval.software_cycles, 5);
        // hardware: mul -> add1 -> add0 = 0.87 + 0.30 + 0.30 = 1.47 -> 2 cycles
        assert!((eval.hardware_critical_path - 1.47).abs() < 1e-9);
        assert_eq!(eval.hardware_cycles, 2);
        assert_eq!(eval.merit, 3.0);
        assert!(eval.area > 0.0);
    }

    #[test]
    fn empty_cut_evaluation_is_neutral() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let eval = evaluate(&g, &CutSet::for_dfg(&g), &model);
        assert_eq!(eval.merit, 0.0);
        assert_eq!(eval.inputs, 0);
        assert_eq!(eval.outputs, 0);
        assert!(eval.convex);
    }
}
