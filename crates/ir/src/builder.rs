//! Fluent construction of dataflow graphs.

use crate::dfg::Dfg;
use crate::node::{Node, Operand};
use crate::opcode::Opcode;

/// Fluent builder for [`Dfg`] basic blocks.
///
/// The builder is the main entry point used by the workload crate to express embedded
/// kernels as dataflow graphs. All helper methods return [`Operand`] values so that the
/// results can be fed directly into further operations.
///
/// # Example
///
/// ```
/// use ise_ir::{DfgBuilder, Opcode};
///
/// // Saturating accumulate: clamp(acc + x, -32768, 32767)
/// let mut b = DfgBuilder::new("sat_acc");
/// let acc = b.input("acc");
/// let x = b.input("x");
/// let sum = b.add(acc, x);
/// let clamped_hi = b.min(sum, b.imm(32767));
/// let clamped = b.max(clamped_hi, b.imm(-32768));
/// b.output("acc", clamped);
/// let dfg = b.finish();
/// assert_eq!(dfg.node_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DfgBuilder {
    dfg: Dfg,
}

impl DfgBuilder {
    /// Creates a builder for a basic block with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        DfgBuilder {
            dfg: Dfg::new(name),
        }
    }

    /// Sets the profiled execution count of the block being built.
    pub fn exec_count(&mut self, count: u64) -> &mut Self {
        self.dfg.set_exec_count(count);
        self
    }

    /// Declares a block input variable.
    pub fn input(&mut self, name: impl Into<String>) -> Operand {
        Operand::Input(self.dfg.add_input(name))
    }

    /// Returns an immediate operand.
    #[must_use]
    pub fn imm(&self, value: i64) -> Operand {
        Operand::Imm(value)
    }

    /// Adds a generic operation node.
    ///
    /// # Panics
    ///
    /// Panics if an operand references a node that has not been created yet.
    pub fn op(&mut self, opcode: Opcode, operands: &[Operand]) -> Operand {
        let id = self.dfg.add_node(Node::new(opcode, operands.to_vec()));
        Operand::Node(id)
    }

    /// Declares a block output variable fed by `value`.
    pub fn output(&mut self, name: impl Into<String>, value: Operand) -> &mut Self {
        self.dfg.add_output(name, value);
        self
    }

    /// Finalises the builder and returns the constructed graph.
    #[must_use]
    pub fn finish(self) -> Dfg {
        self.dfg
    }

    // --- arithmetic -----------------------------------------------------------------

    /// `a + b`
    pub fn add(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Add, &[a, b])
    }

    /// `a - b`
    pub fn sub(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Sub, &[a, b])
    }

    /// `a * b` (low 32 bits)
    pub fn mul(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Mul, &[a, b])
    }

    /// High half of the 64-bit product `a * b`.
    pub fn mulhi(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::MulHi, &[a, b])
    }

    /// `a * b + c`
    pub fn mac(&mut self, a: Operand, b: Operand, c: Operand) -> Operand {
        self.op(Opcode::Mac, &[a, b, c])
    }

    /// `a / b` (signed)
    pub fn div(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Div, &[a, b])
    }

    /// `a % b` (signed)
    pub fn rem(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Rem, &[a, b])
    }

    /// `-a`
    pub fn neg(&mut self, a: Operand) -> Operand {
        self.op(Opcode::Neg, &[a])
    }

    /// `|a|`
    pub fn abs(&mut self, a: Operand) -> Operand {
        self.op(Opcode::Abs, &[a])
    }

    /// `min(a, b)` (signed)
    pub fn min(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Min, &[a, b])
    }

    /// `max(a, b)` (signed)
    pub fn max(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Max, &[a, b])
    }

    // --- logic and shifts -----------------------------------------------------------

    /// `a & b`
    pub fn and(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::And, &[a, b])
    }

    /// `a | b`
    pub fn or(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Or, &[a, b])
    }

    /// `a ^ b`
    pub fn xor(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Xor, &[a, b])
    }

    /// `!a` (bitwise)
    pub fn not(&mut self, a: Operand) -> Operand {
        self.op(Opcode::Not, &[a])
    }

    /// `a << b`
    pub fn shl(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Shl, &[a, b])
    }

    /// `a >> b` (logical)
    pub fn lshr(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Lshr, &[a, b])
    }

    /// `a >> b` (arithmetic)
    pub fn ashr(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Ashr, &[a, b])
    }

    // --- comparisons and selection ----------------------------------------------------

    /// `a == b`
    pub fn eq(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Eq, &[a, b])
    }

    /// `a != b`
    pub fn ne(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Ne, &[a, b])
    }

    /// `a < b` (signed)
    pub fn lt(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Lt, &[a, b])
    }

    /// `a <= b` (signed)
    pub fn le(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Le, &[a, b])
    }

    /// `a > b` (signed)
    pub fn gt(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Gt, &[a, b])
    }

    /// `a >= b` (signed)
    pub fn ge(&mut self, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Ge, &[a, b])
    }

    /// `cond != 0 ? a : b` — the `SEL` node of the paper's Fig. 3.
    pub fn select(&mut self, cond: Operand, a: Operand, b: Operand) -> Operand {
        self.op(Opcode::Select, &[cond, a, b])
    }

    // --- data movement and memory -------------------------------------------------------

    /// Register-to-register copy.
    pub fn copy(&mut self, a: Operand) -> Operand {
        self.op(Opcode::Copy, &[a])
    }

    /// Materialise a constant as a node (rarely needed; prefer [`DfgBuilder::imm`]).
    pub fn constant(&mut self, value: i64) -> Operand {
        self.op(Opcode::Const, &[Operand::Imm(value)])
    }

    /// Memory load from `addr`.
    pub fn load(&mut self, addr: Operand) -> Operand {
        self.op(Opcode::Load, &[addr])
    }

    /// Memory store of `value` to `addr`.
    pub fn store(&mut self, addr: Operand, value: Operand) -> Operand {
        self.op(Opcode::Store, &[addr, value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::NodeId;

    #[test]
    fn builder_constructs_valid_graphs() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        let d = b.sub(x, y);
        let m = b.mul(s, d);
        let clipped = b.min(m, b.imm(255));
        b.output("r", clipped);
        b.exec_count(42);
        let g = b.finish();
        assert!(g.validate().is_ok());
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.exec_count(), 42);
    }

    #[test]
    fn const_node_has_imm_operand() {
        let mut b = DfgBuilder::new("c");
        let c = b.constant(88);
        b.output("o", c);
        let g = b.finish();
        assert_eq!(g.node(NodeId::new(0)).opcode, Opcode::Const);
        assert_eq!(g.node(NodeId::new(0)).operands[0], Operand::Imm(88));
    }

    #[test]
    fn memory_helpers_emit_memory_ops() {
        let mut b = DfgBuilder::new("mem");
        let base = b.input("base");
        let addr = b.add(base, b.imm(4));
        let v = b.load(addr);
        let v2 = b.shl(v, b.imm(1));
        b.store(addr, v2);
        let g = b.finish();
        assert_eq!(g.count_opcode(Opcode::Load), 1);
        assert_eq!(g.count_opcode(Opcode::Store), 1);
    }

    #[test]
    fn all_helper_methods_produce_expected_opcodes() {
        let mut b = DfgBuilder::new("ops");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let checks = [
            (b.add(x, y), Opcode::Add),
            (b.sub(x, y), Opcode::Sub),
            (b.mul(x, y), Opcode::Mul),
            (b.mulhi(x, y), Opcode::MulHi),
            (b.mac(x, y, z), Opcode::Mac),
            (b.div(x, y), Opcode::Div),
            (b.rem(x, y), Opcode::Rem),
            (b.neg(x), Opcode::Neg),
            (b.abs(x), Opcode::Abs),
            (b.min(x, y), Opcode::Min),
            (b.max(x, y), Opcode::Max),
            (b.and(x, y), Opcode::And),
            (b.or(x, y), Opcode::Or),
            (b.xor(x, y), Opcode::Xor),
            (b.not(x), Opcode::Not),
            (b.shl(x, y), Opcode::Shl),
            (b.lshr(x, y), Opcode::Lshr),
            (b.ashr(x, y), Opcode::Ashr),
            (b.eq(x, y), Opcode::Eq),
            (b.ne(x, y), Opcode::Ne),
            (b.lt(x, y), Opcode::Lt),
            (b.le(x, y), Opcode::Le),
            (b.gt(x, y), Opcode::Gt),
            (b.ge(x, y), Opcode::Ge),
            (b.select(x, y, z), Opcode::Select),
            (b.copy(x), Opcode::Copy),
        ];
        let g = b.finish();
        for (operand, opcode) in checks {
            let id = operand.as_node().expect("helpers return node operands");
            assert_eq!(g.node(id).opcode, opcode);
        }
        assert!(g.validate().is_ok());
    }
}
