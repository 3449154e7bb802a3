//! The per-basic-block dataflow graph `G⁺`.

use std::fmt;

use crate::error::IrError;
use crate::node::{Node, Operand};
use crate::opcode::Opcode;

/// Index of an operation node (`V`) within a [`Dfg`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a raw index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }

    /// Raw index of the node within its graph.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Index of a block input variable (an element of `V⁺`) within a [`Dfg`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct PortId(u32);

impl PortId {
    /// Creates a port identifier from a raw index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        PortId(u32::try_from(index).expect("port index fits in u32"))
    }

    /// Raw index of the input variable within its graph.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in{}", self.0)
    }
}

/// A block input variable: a value produced outside the basic block and read from the
/// register file by the operations that use it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct InputVar {
    /// Symbolic name of the variable.
    pub name: String,
}

/// A block output variable: a value produced inside the basic block that is live after
/// it (used by other basic blocks) and therefore written back to the register file.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct OutputVar {
    /// Symbolic name of the variable.
    pub name: String,
    /// The value written to the output variable.
    pub source: Operand,
}

/// The dataflow graph `G⁺(V ∪ V⁺, E ∪ E⁺)` of one basic block.
///
/// Operation nodes (`V`) are stored in insertion order and referenced by [`NodeId`];
/// input variables (`V⁺`) by [`PortId`]. Because operands may only reference already
/// inserted nodes, the node vector is always in a producers-before-consumers
/// (def-before-use) order and the graph is acyclic by construction.
///
/// The graph also records the basic block's profiled execution count, which the
/// selection algorithms use to weight per-execution cycle savings (Section 7).
///
/// The use-lists are rebuilt on decode, never read from the wire, so a graph read from
/// untrusted JSON cannot carry stale or inconsistent consumer data.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(post_decode = "Dfg::rebuild_uses")]
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<InputVar>,
    outputs: Vec<OutputVar>,
    /// consumers[i] lists the operation nodes that use node i as an operand.
    #[serde(skip)]
    consumers: Vec<Vec<NodeId>>,
    /// input_consumers[p] lists the operation nodes that read input variable p.
    #[serde(skip)]
    input_consumers: Vec<Vec<NodeId>>,
    exec_count: u64,
}

impl Dfg {
    /// Creates an empty graph with the given name and an execution count of one.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Dfg {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            consumers: Vec::new(),
            input_consumers: Vec::new(),
            exec_count: 1,
        }
    }

    /// Name of the basic block.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Profiled execution count of the basic block.
    #[must_use]
    pub fn exec_count(&self) -> u64 {
        self.exec_count
    }

    /// Sets the profiled execution count of the basic block.
    pub fn set_exec_count(&mut self, count: u64) {
        self.exec_count = count;
    }

    /// Renames the basic block.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of operation nodes `|V|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of block input variables.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of block output variables.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Returns the node with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the input variable with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this graph.
    #[must_use]
    pub fn input(&self, id: PortId) -> &InputVar {
        &self.inputs[id.index()]
    }

    /// Iterates over `(NodeId, &Node)` pairs in insertion (def-before-use) order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i), n))
    }

    /// Iterates over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterates over all input variable identifiers.
    pub fn input_ids(&self) -> impl Iterator<Item = PortId> + 'static {
        (0..self.inputs.len()).map(PortId::new)
    }

    /// Iterates over the block input variables.
    pub fn iter_inputs(&self) -> impl Iterator<Item = (PortId, &InputVar)> + '_ {
        self.inputs
            .iter()
            .enumerate()
            .map(|(i, v)| (PortId::new(i), v))
    }

    /// Iterates over the block output variables.
    pub fn iter_outputs(&self) -> impl Iterator<Item = &OutputVar> + '_ {
        self.outputs.iter()
    }

    /// Operation nodes that consume the result of `id`.
    #[must_use]
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.consumers[id.index()]
    }

    /// Operation nodes that read input variable `id`.
    #[must_use]
    pub fn input_consumers(&self, id: PortId) -> &[NodeId] {
        &self.input_consumers[id.index()]
    }

    /// Returns `true` if the result of `id` is written to a block output variable.
    #[must_use]
    pub fn is_output_source(&self, id: NodeId) -> bool {
        self.outputs.iter().any(|o| o.source == Operand::Node(id))
    }

    /// Adds a block input variable and returns its identifier.
    pub fn add_input(&mut self, name: impl Into<String>) -> PortId {
        let id = PortId::new(self.inputs.len());
        self.inputs.push(InputVar { name: name.into() });
        self.input_consumers.push(Vec::new());
        id
    }

    /// Adds an operation node and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if an operand references a node or input variable that does not exist yet
    /// (the graph is built in def-before-use order and must stay acyclic). Trusted
    /// hand-built construction sites (the builder, the workload crate) rely on this;
    /// code inserting nodes derived from *external* text — the LLVM front-end in
    /// particular — must use [`Dfg::try_add_node`] so malformed input surfaces as an
    /// error instead of a panic.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        match self.try_add_node(node) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds an operation node, reporting invalid operands as an error.
    ///
    /// The dataflow graph maintains two intertwined invariants that all of `topo`
    /// depends on: node identifiers are dense indices in insertion order, and every
    /// operand references a *previously inserted* node (def-before-use), which makes
    /// the graph acyclic by construction and the insertion order a valid
    /// producers-first topological order. A front-end lowering SSA instructions in
    /// program order preserves both automatically for *valid* SSA (a definition
    /// dominates its uses, and φ-nodes — the only legal intra-block forward
    /// references — are lowered to block inputs, never to nodes); malformed input is
    /// caught here and reported as [`IrError::ForwardReference`] /
    /// [`IrError::UnknownInput`] without panicking.
    ///
    /// # Errors
    ///
    /// Returns an error if an operand references a node or input variable that does
    /// not exist yet. The graph is left unchanged on failure.
    pub fn try_add_node(&mut self, node: Node) -> Result<NodeId, IrError> {
        let id = NodeId::new(self.nodes.len());
        for operand in &node.operands {
            match *operand {
                Operand::Node(n) => {
                    if n.index() >= self.nodes.len() {
                        return Err(IrError::ForwardReference {
                            block: self.name.clone(),
                            node: id,
                            operand: n,
                        });
                    }
                }
                Operand::Input(p) => {
                    if p.index() >= self.inputs.len() {
                        return Err(IrError::UnknownInput {
                            block: self.name.clone(),
                            node: id,
                            port: p,
                        });
                    }
                }
                Operand::Imm(_) => {}
            }
        }
        for operand in &node.operands {
            match *operand {
                Operand::Node(n) => self.consumers[n.index()].push(id),
                Operand::Input(p) => self.input_consumers[p.index()].push(id),
                Operand::Imm(_) => {}
            }
        }
        self.nodes.push(node);
        self.consumers.push(Vec::new());
        Ok(id)
    }

    /// Declares a block output variable fed by `source`.
    pub fn add_output(&mut self, name: impl Into<String>, source: Operand) {
        self.outputs.push(OutputVar {
            name: name.into(),
            source,
        });
    }

    /// Replaces the node stored at `id` and recomputes the use lists.
    ///
    /// This is intended for transformation passes; identification algorithms never
    /// mutate graphs.
    pub fn replace_node(&mut self, id: NodeId, node: Node) {
        self.nodes[id.index()] = node;
        self.rebuild_uses();
    }

    /// Rebuilds the consumer lists after a bulk mutation performed by a pass (or
    /// after deserialisation, which never trusts wire-carried use-lists).
    ///
    /// Operands referencing non-existent nodes or inputs — possible only in a
    /// graph assembled from hostile serialised data — are skipped here; they are
    /// reported precisely by [`Dfg::validate`].
    pub fn rebuild_uses(&mut self) {
        for list in &mut self.consumers {
            list.clear();
        }
        for list in &mut self.input_consumers {
            list.clear();
        }
        self.consumers.resize(self.nodes.len(), Vec::new());
        self.input_consumers.resize(self.inputs.len(), Vec::new());
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId::new(i);
            for operand in &node.operands {
                match *operand {
                    Operand::Node(n) => {
                        if let Some(list) = self.consumers.get_mut(n.index()) {
                            list.push(id);
                        }
                    }
                    Operand::Input(p) => {
                        if let Some(list) = self.input_consumers.get_mut(p.index()) {
                            list.push(id);
                        }
                    }
                    Operand::Imm(_) => {}
                }
            }
        }
    }

    /// Checks the structural invariants of the graph.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] when an operand references a later node (which would make
    /// the graph cyclic), when an operand references a non-existent node or input, when
    /// a node's operand count does not match its opcode arity, or when an output
    /// variable references a missing value.
    pub fn validate(&self) -> Result<(), IrError> {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(arity) = node.opcode.arity() {
                if node.operands.len() != arity {
                    return Err(IrError::ArityMismatch {
                        block: self.name.clone(),
                        node: NodeId::new(i),
                        opcode: node.opcode,
                        expected: arity,
                        found: node.operands.len(),
                    });
                }
            }
            for operand in &node.operands {
                match *operand {
                    Operand::Node(n) => {
                        if n.index() >= i {
                            return Err(IrError::ForwardReference {
                                block: self.name.clone(),
                                node: NodeId::new(i),
                                operand: n,
                            });
                        }
                        let producer = &self.nodes[n.index()];
                        if !producer.opcode.has_result() {
                            return Err(IrError::UseOfVoidValue {
                                block: self.name.clone(),
                                node: NodeId::new(i),
                                operand: n,
                            });
                        }
                    }
                    Operand::Input(p) => {
                        if p.index() >= self.inputs.len() {
                            return Err(IrError::UnknownInput {
                                block: self.name.clone(),
                                node: NodeId::new(i),
                                port: p,
                            });
                        }
                    }
                    Operand::Imm(_) => {}
                }
            }
        }
        for output in &self.outputs {
            match output.source {
                Operand::Node(n) if n.index() >= self.nodes.len() => {
                    return Err(IrError::UnknownOutputSource {
                        block: self.name.clone(),
                        output: output.name.clone(),
                    });
                }
                Operand::Input(p) if p.index() >= self.inputs.len() => {
                    return Err(IrError::UnknownOutputSource {
                        block: self.name.clone(),
                        output: output.name.clone(),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Returns the nodes whose result is used by no operation node and no output.
    ///
    /// These are the candidates removed by dead-code elimination (side-effecting nodes
    /// are never reported).
    #[must_use]
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| {
                !self.node(id).opcode.has_side_effect()
                    && self.consumers(id).is_empty()
                    && !self.is_output_source(id)
            })
            .collect()
    }

    /// Number of operation nodes with a given opcode, useful for workload statistics.
    #[must_use]
    pub fn count_opcode(&self, opcode: Opcode) -> usize {
        self.nodes.iter().filter(|n| n.opcode == opcode).count()
    }

    /// Returns `true` if the graph contains any memory operation.
    #[must_use]
    pub fn has_memory_ops(&self) -> bool {
        self.nodes.iter().any(|n| n.opcode.is_memory())
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "block {} (x{}):", self.name, self.exec_count)?;
        for (id, input) in self.iter_inputs() {
            writeln!(f, "  {id} = input {}", input.name)?;
        }
        for (id, node) in self.iter_nodes() {
            writeln!(f, "  {id} = {node}")?;
        }
        for output in self.iter_outputs() {
            writeln!(f, "  output {} = {}", output.name, output.source)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dfg {
        // out = (a + b) * (a - b)
        let mut g = Dfg::new("diamond");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let sum = g.add_node(Node::new(Opcode::Add, vec![a.into(), b.into()]));
        let diff = g.add_node(Node::new(Opcode::Sub, vec![a.into(), b.into()]));
        let prod = g.add_node(Node::new(Opcode::Mul, vec![sum.into(), diff.into()]));
        g.add_output("out", prod.into());
        g
    }

    #[test]
    fn construction_and_queries() {
        let g = diamond();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.input_count(), 2);
        assert_eq!(g.output_count(), 1);
        assert!(g.validate().is_ok());
        let prod = NodeId::new(2);
        assert!(g.is_output_source(prod));
        assert_eq!(g.consumers(NodeId::new(0)), &[prod]);
        assert_eq!(g.consumers(NodeId::new(1)), &[prod]);
        assert!(g.consumers(prod).is_empty());
        assert_eq!(g.input_consumers(PortId::new(0)).len(), 2);
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut g = Dfg::new("bad");
        let a = g.add_input("a");
        // Manually build a malformed node: Add with one operand.
        let id = g.add_node(Node::new(Opcode::Abs, vec![a.into()]));
        g.nodes[id.index()].operands.clear();
        assert!(matches!(g.validate(), Err(IrError::ArityMismatch { .. })));
    }

    #[test]
    fn dead_node_detection() {
        let mut g = diamond();
        let a = PortId::new(0);
        let dead = g.add_node(Node::new(Opcode::Not, vec![a.into()]));
        assert_eq!(g.dead_nodes(), vec![dead]);
    }

    #[test]
    fn exec_count_roundtrip() {
        let mut g = diamond();
        assert_eq!(g.exec_count(), 1);
        g.set_exec_count(1000);
        assert_eq!(g.exec_count(), 1000);
    }

    #[test]
    fn display_lists_all_entities() {
        let text = diamond().to_string();
        assert!(text.contains("block diamond"));
        assert!(text.contains("in0 = input a"));
        assert!(text.contains("%2 = mul %0, %1"));
        assert!(text.contains("output out = %2"));
    }

    #[test]
    fn rebuild_uses_after_replace() {
        let mut g = diamond();
        // Rewrite the multiply into an add of the same operands.
        let prod = NodeId::new(2);
        let node = Node::new(
            Opcode::Add,
            vec![NodeId::new(0).into(), NodeId::new(1).into()],
        );
        g.replace_node(prod, node);
        assert_eq!(g.node(prod).opcode, Opcode::Add);
        assert_eq!(g.consumers(NodeId::new(0)), &[prod]);
    }

    #[test]
    fn wire_use_lists_are_ignored_and_rebuilt() {
        let g = diamond();
        let text = serde::json::to_string(&g);
        assert!(!text.contains("consumers"), "{text}");
        let bogus = text.replacen(
            '{',
            r#"{"consumers":[[9],[],[0]],"input_consumers":[[],[5,5]],"#,
            1,
        );
        let tree = serde::json::parse(&bogus).expect("valid JSON");
        let from_text: Dfg = serde::json::from_str(&bogus).expect("stream decode");
        let from_tree: Dfg = serde::json::from_value(&tree).expect("tree decode");
        let plain: Dfg = serde::json::from_str(&text).expect("plain decode");
        assert_eq!(from_text, plain);
        assert_eq!(from_tree, plain);
        assert_eq!(plain, g);
    }

    #[test]
    #[should_panic(expected = "references later node")]
    fn forward_reference_panics_on_insert() {
        let mut g = Dfg::new("forward");
        let _ = g.add_node(Node::new(Opcode::Not, vec![Operand::Node(NodeId::new(5))]));
    }

    #[test]
    fn try_add_node_reports_errors_and_leaves_graph_unchanged() {
        let mut g = diamond();
        let before = g.node_count();
        // A forward node reference fails without mutating the graph — even when a
        // valid operand precedes the bad one (no partially recorded use lists).
        let err = g
            .try_add_node(Node::new(
                Opcode::Add,
                vec![NodeId::new(0).into(), Operand::Node(NodeId::new(9))],
            ))
            .unwrap_err();
        assert!(matches!(err, IrError::ForwardReference { .. }));
        assert_eq!(g.node_count(), before);
        assert_eq!(g.consumers(NodeId::new(0)), &[NodeId::new(2)]);
        // Same for an undeclared input port.
        let err = g
            .try_add_node(Node::new(Opcode::Not, vec![Operand::Input(PortId::new(7))]))
            .unwrap_err();
        assert!(matches!(err, IrError::UnknownInput { .. }));
        assert_eq!(g.node_count(), before);
        assert!(g.validate().is_ok());
    }
}
