//! Operation vocabulary of the dataflow IR.

use std::fmt;

/// The category of an operation that is opaque to the AFU model.
///
/// Compiler front-ends (the `ise-frontend` LLVM-IR parser) encounter operations the
/// paper's dataflow vocabulary cannot absorb into an AFU — function calls, address
/// computations over unknown type layouts, stack allocations. Dropping them would
/// falsify the `IN(S)`/`OUT(S)` accounting of every cut around them, so they are
/// materialised as [`Opcode::Opaque`] nodes: present in the graph, consuming and
/// producing values like any node, but forbidden inside cuts.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum OpaqueOp {
    /// A call producing a value. Operands are the call arguments.
    Call,
    /// A call producing no value (`void`). Operands are the call arguments.
    CallVoid,
    /// An address computation over a type layout the IR does not model
    /// (LLVM `getelementptr`). Operands are the base pointer and the indices.
    Gep,
    /// A stack allocation producing an address (LLVM `alloca`).
    Alloca,
    /// Any other value-producing operation outside the vocabulary.
    Unknown,
}

impl OpaqueOp {
    /// Short lower-case mnemonic of the opaque category.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpaqueOp::Call => "call",
            OpaqueOp::CallVoid => "call.void",
            OpaqueOp::Gep => "gep",
            OpaqueOp::Alloca => "alloca",
            OpaqueOp::Unknown => "opaque",
        }
    }
}

/// A primitive operation of the dataflow graph.
///
/// The vocabulary follows the MachSUIF-level operations used by the paper's experimental
/// setup: 32-bit integer arithmetic, logic, shifts, comparisons, the `SEL` selector node
/// of if-converted sources, sub-word extensions/truncations, and memory accesses.
///
/// Memory accesses ([`Opcode::Load`], [`Opcode::Store`]) are *forbidden* inside
/// application-specific functional units (the AFU of the paper has no architecturally
/// visible state and no memory port), which is reported by [`Opcode::is_forbidden_in_afu`].
/// [`Opcode::Opaque`] nodes — calls, address computations and other operations carried
/// through from a compiler front-end — are forbidden for the same reason.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Opcode {
    /// 32-bit integer addition.
    Add,
    /// 32-bit integer subtraction.
    Sub,
    /// 32-bit integer multiplication (low half).
    Mul,
    /// 32-bit multiply returning the high half of the 64-bit product.
    MulHi,
    /// Multiply-accumulate: `a * b + c`.
    Mac,
    /// Signed integer division.
    Div,
    /// Signed integer remainder.
    Rem,
    /// Two's-complement negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT.
    Not,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Lshr,
    /// Arithmetic shift right.
    Ashr,
    /// Equality comparison, producing 0 or 1.
    Eq,
    /// Inequality comparison, producing 0 or 1.
    Ne,
    /// Signed less-than comparison, producing 0 or 1.
    Lt,
    /// Signed less-or-equal comparison, producing 0 or 1.
    Le,
    /// Signed greater-than comparison, producing 0 or 1.
    Gt,
    /// Signed greater-or-equal comparison, producing 0 or 1.
    Ge,
    /// Unsigned less-than comparison, producing 0 or 1.
    Ltu,
    /// Unsigned greater-or-equal comparison, producing 0 or 1.
    Geu,
    /// Selector node (`SEL`): `cond != 0 ? a : b`.
    ///
    /// Selectors come from if-converted sources (an LLVM `select`, or a hand-built
    /// workload written after if-conversion), as in the motivational example of
    /// Fig. 3 of the paper.
    Select,
    /// Sign extension of the low 8 bits.
    SextB,
    /// Sign extension of the low 16 bits.
    SextH,
    /// Zero extension of the low 8 bits.
    ZextB,
    /// Zero extension of the low 16 bits.
    ZextH,
    /// Truncation to the low 8 bits.
    TruncB,
    /// Truncation to the low 16 bits.
    TruncH,
    /// Register-to-register move.
    Copy,
    /// Materialisation of a constant (the value is the node's immediate operand).
    Const,
    /// Memory load (word). Operand 0 is the address.
    Load,
    /// Memory store (word). Operand 0 is the address, operand 1 the stored value.
    Store,
    /// A collapsed application-specific instruction.
    ///
    /// `id` identifies the [`crate::AfuSpec`] describing the collapsed subgraph and
    /// `out` selects which of its outputs this node produces. These nodes are created
    /// by the selection algorithms when rewriting a graph after a cut has been chosen.
    Afu {
        /// Identifier of the AFU specification within the owning [`crate::Program`].
        id: u16,
        /// Index of the produced output among the AFU outputs.
        out: u16,
    },
    /// An operation carried through from a compiler front-end that the AFU model
    /// cannot absorb (calls, address computations, stack allocations).
    ///
    /// Opaque nodes take a variable number of operands, are forbidden inside cuts,
    /// and cannot be interpreted. See [`OpaqueOp`] for the categories.
    Opaque(OpaqueOp),
}

impl Opcode {
    /// Returns `true` for operations that may not be part of an AFU cut.
    ///
    /// The paper's AFU "does not contain any architecturally visible state … and cannot
    /// include memory access operations" (Section 2); already-collapsed AFU nodes are
    /// likewise excluded from further identification (Section 6.3).
    #[must_use]
    pub fn is_forbidden_in_afu(self) -> bool {
        matches!(
            self,
            Opcode::Load | Opcode::Store | Opcode::Afu { .. } | Opcode::Opaque(_)
        )
    }

    /// Returns `true` if the operation accesses memory.
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// Returns `true` if the operation produces a value consumed through dataflow edges.
    ///
    /// Only [`Opcode::Store`] and `void` calls produce no value.
    #[must_use]
    pub fn has_result(self) -> bool {
        !matches!(self, Opcode::Store | Opcode::Opaque(OpaqueOp::CallVoid))
    }

    /// Returns `true` if the node has a side effect and must be preserved by dead-code
    /// elimination even when its result is unused.
    ///
    /// Calls and unknown opaque operations may touch memory or observable state, so they
    /// are conservatively treated as effectful; `gep`/`alloca` are pure address
    /// computations.
    #[must_use]
    pub fn has_side_effect(self) -> bool {
        matches!(
            self,
            Opcode::Store | Opcode::Opaque(OpaqueOp::Call | OpaqueOp::CallVoid | OpaqueOp::Unknown)
        )
    }

    /// Number of value operands expected by the operation, if fixed.
    ///
    /// [`Opcode::Afu`] and [`Opcode::Opaque`] nodes take a variable number of operands
    /// and return `None`.
    #[must_use]
    pub fn arity(self) -> Option<usize> {
        use Opcode::*;
        Some(match self {
            Const => 0,
            Neg | Abs | Not | SextB | SextH | ZextB | ZextH | TruncB | TruncH | Copy | Load => 1,
            Add | Sub | Mul | MulHi | Div | Rem | Min | Max | And | Or | Xor | Shl | Lshr
            | Ashr | Eq | Ne | Lt | Le | Gt | Ge | Ltu | Geu | Store => 2,
            Mac | Select => 3,
            Afu { .. } | Opaque(_) => return None,
        })
    }

    /// Short lower-case mnemonic used by the textual and Graphviz printers.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            MulHi => "mulhi",
            Mac => "mac",
            Div => "div",
            Rem => "rem",
            Neg => "neg",
            Abs => "abs",
            Min => "min",
            Max => "max",
            And => "and",
            Or => "or",
            Xor => "xor",
            Not => "not",
            Shl => "shl",
            Lshr => "lshr",
            Ashr => "ashr",
            Eq => "eq",
            Ne => "ne",
            Lt => "lt",
            Le => "le",
            Gt => "gt",
            Ge => "ge",
            Ltu => "ltu",
            Geu => "geu",
            Select => "sel",
            SextB => "sext.b",
            SextH => "sext.h",
            ZextB => "zext.b",
            ZextH => "zext.h",
            TruncB => "trunc.b",
            TruncH => "trunc.h",
            Copy => "copy",
            Const => "const",
            Load => "load",
            Store => "store",
            Afu { .. } => "afu",
            Opaque(op) => op.mnemonic(),
        }
    }

    /// All opcodes except [`Opcode::Afu`] and [`Opcode::Opaque`], useful for exhaustive
    /// model tables and for randomised workload generation.
    #[must_use]
    pub fn all_primitive() -> &'static [Opcode] {
        use Opcode::*;
        &[
            Add, Sub, Mul, MulHi, Mac, Div, Rem, Neg, Abs, Min, Max, And, Or, Xor, Not, Shl, Lshr,
            Ashr, Eq, Ne, Lt, Le, Gt, Ge, Ltu, Geu, Select, SextB, SextH, ZextB, ZextH, TruncB,
            TruncH, Copy, Const, Load, Store,
        ]
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Opcode::Afu { id, out } => write!(f, "afu{id}.{out}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_ops_are_forbidden() {
        assert!(Opcode::Load.is_forbidden_in_afu());
        assert!(Opcode::Store.is_forbidden_in_afu());
        assert!(Opcode::Afu { id: 0, out: 0 }.is_forbidden_in_afu());
        assert!(!Opcode::Add.is_forbidden_in_afu());
        assert!(!Opcode::Select.is_forbidden_in_afu());
    }

    #[test]
    fn opaque_ops_are_forbidden_and_variadic() {
        for op in [
            OpaqueOp::Call,
            OpaqueOp::CallVoid,
            OpaqueOp::Gep,
            OpaqueOp::Alloca,
            OpaqueOp::Unknown,
        ] {
            assert!(Opcode::Opaque(op).is_forbidden_in_afu());
            assert_eq!(Opcode::Opaque(op).arity(), None);
            assert!(!Opcode::Opaque(op).is_memory());
        }
        assert!(!Opcode::Opaque(OpaqueOp::CallVoid).has_result());
        assert!(Opcode::Opaque(OpaqueOp::Call).has_result());
        assert!(Opcode::Opaque(OpaqueOp::Call).has_side_effect());
        assert!(Opcode::Opaque(OpaqueOp::CallVoid).has_side_effect());
        assert!(!Opcode::Opaque(OpaqueOp::Gep).has_side_effect());
        assert!(!Opcode::Opaque(OpaqueOp::Alloca).has_side_effect());
        assert_eq!(Opcode::Opaque(OpaqueOp::Gep).to_string(), "gep");
        assert_eq!(Opcode::Opaque(OpaqueOp::CallVoid).to_string(), "call.void");
    }

    #[test]
    fn store_has_no_result_and_a_side_effect() {
        assert!(!Opcode::Store.has_result());
        assert!(Opcode::Store.has_side_effect());
        assert!(Opcode::Load.has_result());
        assert!(!Opcode::Load.has_side_effect());
    }

    #[test]
    fn arities_are_consistent_with_primitives() {
        for &op in Opcode::all_primitive() {
            let arity = op.arity().expect("primitive opcodes have a fixed arity");
            assert!(arity <= 3, "{op} has unexpected arity {arity}");
        }
        assert_eq!(Opcode::Afu { id: 1, out: 0 }.arity(), None);
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(Opcode::Add.to_string(), "add");
        assert_eq!(Opcode::Select.to_string(), "sel");
        assert_eq!(Opcode::Afu { id: 3, out: 1 }.to_string(), "afu3.1");
    }

    #[test]
    fn all_primitive_contains_no_duplicates() {
        let ops = Opcode::all_primitive();
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
