//! Software (single-issue processor) latency table.

use ise_ir::{Dfg, Opcode, Program};

/// Per-operation latency, in cycles, of the execution stage of a single-issue embedded
/// processor.
///
/// These values model a typical 32-bit RISC pipeline of the paper's era (MIPS-like or
/// ARM9-like): single-cycle ALU, two-cycle multiplier, long iterative divider, two-cycle
/// load-use latency. The accumulated values of a cut estimate its execution time in
/// software (Section 7 of the paper).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SoftwareLatencyModel {
    alu: u32,
    shift: u32,
    compare: u32,
    select: u32,
    multiply: u32,
    mac: u32,
    divide: u32,
    load: u32,
    store: u32,
    subword: u32,
    copy: u32,
}

impl Default for SoftwareLatencyModel {
    fn default() -> Self {
        SoftwareLatencyModel {
            alu: 1,
            shift: 1,
            compare: 1,
            select: 1,
            multiply: 2,
            mac: 3,
            divide: 18,
            load: 2,
            store: 1,
            subword: 1,
            copy: 1,
        }
    }
}

impl SoftwareLatencyModel {
    /// Creates the default single-issue latency model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a model where every operation costs exactly one cycle, useful for
    /// analytical tests where the merit must equal `|S| - ceil(critical path)`.
    #[must_use]
    pub fn unit() -> Self {
        SoftwareLatencyModel {
            alu: 1,
            shift: 1,
            compare: 1,
            select: 1,
            multiply: 1,
            mac: 1,
            divide: 1,
            load: 1,
            store: 1,
            subword: 1,
            copy: 1,
        }
    }

    /// Latency of `opcode` in cycles.
    #[must_use]
    pub fn cycles(&self, opcode: Opcode) -> u32 {
        use Opcode::*;
        match opcode {
            Add | Sub | Neg | Abs | Min | Max | And | Or | Xor | Not => self.alu,
            Shl | Lshr | Ashr => self.shift,
            Eq | Ne | Lt | Le | Gt | Ge | Ltu | Geu => self.compare,
            Select => self.select,
            Mul | MulHi => self.multiply,
            Mac => self.mac,
            Div | Rem => self.divide,
            Load => self.load,
            Store => self.store,
            SextB | SextH | ZextB | ZextH | TruncB | TruncH => self.subword,
            Copy | Const => self.copy,
            // A collapsed AFU executes in the cycles recorded by its specification; the
            // software model conservatively charges a single issue slot.
            Afu { .. } => 1,
            // Calls dominate their surroundings; other opaque operations (address
            // arithmetic, allocas) cost one ALU slot. The exact charge never affects
            // cut selection because opaque nodes sit outside every candidate cut and
            // contribute identically to baseline and extended schedules.
            Opaque(op) => match op {
                ise_ir::OpaqueOp::Call | ise_ir::OpaqueOp::CallVoid => self.divide,
                ise_ir::OpaqueOp::Gep | ise_ir::OpaqueOp::Alloca | ise_ir::OpaqueOp::Unknown => {
                    self.alu
                }
            },
        }
    }

    /// Total software cycles of one execution of a basic block (sum over all nodes).
    #[must_use]
    pub fn block_cycles(&self, dfg: &Dfg) -> u64 {
        dfg.iter_nodes()
            .map(|(_, n)| u64::from(self.cycles(n.opcode)))
            .sum()
    }

    /// Dynamic software cycles of a basic block: per-execution cost times the profiled
    /// execution count.
    #[must_use]
    pub fn block_dynamic_cycles(&self, dfg: &Dfg) -> u64 {
        self.block_cycles(dfg) * dfg.exec_count()
    }

    /// Dynamic software cycles of a whole program (baseline, without any ISE).
    #[must_use]
    pub fn program_dynamic_cycles(&self, program: &Program) -> u64 {
        program
            .blocks()
            .iter()
            .map(|b| self.block_dynamic_cycles(b))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_ir::DfgBuilder;

    #[test]
    fn default_table_orders_costs_sensibly() {
        let m = SoftwareLatencyModel::new();
        assert!(m.cycles(Opcode::Add) <= m.cycles(Opcode::Mul));
        assert!(m.cycles(Opcode::Mul) < m.cycles(Opcode::Div));
        assert_eq!(m.cycles(Opcode::And), 1);
        assert_eq!(m.cycles(Opcode::Load), 2);
    }

    #[test]
    fn unit_model_charges_one_cycle_everywhere() {
        let m = SoftwareLatencyModel::unit();
        // One opcode of every latency class.
        use Opcode::*;
        for op in [
            Add, Shl, Lt, Select, Mul, Mac, Div, Load, Store, SextB, Copy,
        ] {
            assert_eq!(m.cycles(op), 1, "{op}");
        }
    }

    #[test]
    fn block_cycles_accumulate_and_scale_with_frequency() {
        let mut b = DfgBuilder::new("t");
        b.exec_count(10);
        let x = b.input("x");
        let y = b.input("y");
        let p = b.mul(x, y);
        let s = b.add(p, y);
        b.output("o", s);
        let g = b.finish();
        let m = SoftwareLatencyModel::new();
        assert_eq!(m.block_cycles(&g), 3);
        assert_eq!(m.block_dynamic_cycles(&g), 30);
    }

    #[test]
    fn program_cycles_sum_blocks() {
        let mut p = Program::new("app");
        let mut b = DfgBuilder::new("a");
        b.exec_count(5);
        let x = b.input("x");
        let v = b.add(x, b.imm(1));
        b.output("o", v);
        p.add_block(b.finish());
        let mut b = DfgBuilder::new("b");
        b.exec_count(2);
        let x = b.input("x");
        let v = b.div(x, b.imm(3));
        b.output("o", v);
        p.add_block(b.finish());
        let m = SoftwareLatencyModel::new();
        assert_eq!(m.program_dynamic_cycles(&p), 5 + 2 * 18);
    }
}
