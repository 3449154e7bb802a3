//! Dataflow nodes and operands.

use std::fmt;

use crate::dfg::{NodeId, PortId};
use crate::opcode::Opcode;

/// A use of a value by an operation node.
///
/// Operands are the edges `E ∪ E⁺` of the paper's graph `G⁺`: they either reference
/// another operation node (`V`), a basic-block input variable (`V⁺`), or an immediate
/// constant that is encoded in the instruction word and therefore never consumes a
/// register-file read port.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Operand {
    /// The result of another operation node in the same basic block.
    Node(NodeId),
    /// A basic-block input variable (a value produced outside the block and read from
    /// the register file).
    Input(PortId),
    /// An immediate constant. Immediates do not contribute to `IN(S)`.
    Imm(i64),
}

impl Operand {
    /// Returns the referenced node, if the operand is a node result.
    #[must_use]
    pub fn as_node(self) -> Option<NodeId> {
        match self {
            Operand::Node(n) => Some(n),
            _ => None,
        }
    }

    /// Returns the referenced input variable, if any.
    #[must_use]
    pub fn as_input(self) -> Option<PortId> {
        match self {
            Operand::Input(p) => Some(p),
            _ => None,
        }
    }
}

impl From<NodeId> for Operand {
    fn from(n: NodeId) -> Self {
        Operand::Node(n)
    }
}

impl From<PortId> for Operand {
    fn from(p: PortId) -> Self {
        Operand::Input(p)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Node(n) => write!(f, "%{}", n.index()),
            Operand::Input(p) => write!(f, "in{}", p.index()),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// An operation node of the dataflow graph (an element of `V`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Node {
    /// The operation performed by the node.
    pub opcode: Opcode,
    /// The value operands, in positional order.
    pub operands: Vec<Operand>,
    /// Optional symbolic name, used for debugging and Graphviz output.
    pub name: Option<String>,
}

impl Node {
    /// Creates a node with the given opcode and operands.
    #[must_use]
    pub fn new(opcode: Opcode, operands: Vec<Operand>) -> Self {
        Node {
            opcode,
            operands,
            name: None,
        }
    }

    /// Creates a named node.
    #[must_use]
    pub fn named(opcode: Opcode, operands: Vec<Operand>, name: impl Into<String>) -> Self {
        Node {
            opcode,
            operands,
            name: Some(name.into()),
        }
    }

    /// Iterates over the operands that reference other operation nodes.
    pub fn node_operands(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.operands.iter().filter_map(|o| o.as_node())
    }

    /// Returns `true` if this node may not be included in an AFU cut.
    #[must_use]
    pub fn is_forbidden_in_afu(&self) -> bool {
        self.opcode.is_forbidden_in_afu()
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        for (i, operand) in self.operands.iter().enumerate() {
            if i == 0 {
                write!(f, " {operand}")?;
            } else {
                write!(f, ", {operand}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_accessors() {
        let n = Operand::Node(NodeId::new(3));
        let i = Operand::Input(PortId::new(1));
        let c = Operand::Imm(-7);
        assert_eq!(n.as_node(), Some(NodeId::new(3)));
        assert_eq!(n.as_input(), None);
        assert_eq!(i.as_input(), Some(PortId::new(1)));
        assert_eq!(c.as_input(), None);
    }

    #[test]
    fn node_operand_iterators() {
        let node = Node::new(
            Opcode::Select,
            vec![
                Operand::Input(PortId::new(0)),
                Operand::Node(NodeId::new(4)),
                Operand::Imm(0),
            ],
        );
        assert_eq!(
            node.node_operands().collect::<Vec<_>>(),
            vec![NodeId::new(4)]
        );
    }

    #[test]
    fn display_is_readable() {
        let node = Node::new(
            Opcode::Add,
            vec![Operand::Input(PortId::new(0)), Operand::Imm(4)],
        );
        assert_eq!(node.to_string(), "add in0, #4");
    }
}
