//! Hardware area table.

use ise_ir::{Dfg, NodeId, Opcode};

/// Per-operation silicon area, normalised to the area of a 32-bit multiply-accumulate.
///
/// The paper closes its result section by noting that "the area investment needed to
/// implement the special datapaths … was within the area of a couple of
/// multiply-accumulators" (Section 8). This model lets the experiment harness report the
/// same metric for the cuts selected by each algorithm, and powers the area-constrained
/// selection extension.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AreaModel {
    wiring: f64,
    logic: f64,
    select: f64,
    compare: f64,
    add: f64,
    minmax: f64,
    shift: f64,
    multiply: f64,
    mac: f64,
    divide: f64,
    memory: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            wiring: 0.001,
            logic: 0.010,
            select: 0.015,
            compare: 0.025,
            add: 0.040,
            minmax: 0.055,
            shift: 0.080,
            multiply: 0.800,
            mac: 1.000,
            divide: 1.400,
            memory: 0.500,
        }
    }
}

impl AreaModel {
    /// Creates the default normalised area model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalised area of one instance of `opcode`.
    #[must_use]
    pub fn area(&self, opcode: Opcode) -> f64 {
        use Opcode::*;
        match opcode {
            And | Or | Xor | Not => self.logic,
            SextB | SextH | ZextB | ZextH | TruncB | TruncH | Copy | Const => self.wiring,
            Select => self.select,
            Eq | Ne | Lt | Le | Gt | Ge | Ltu | Geu => self.compare,
            Add | Sub | Neg | Abs => self.add,
            Min | Max => self.minmax,
            Shl | Lshr | Ashr => self.shift,
            Mul | MulHi => self.multiply,
            Mac => self.mac,
            Div | Rem => self.divide,
            Load | Store => self.memory,
            Afu { .. } => self.mac,
            // Opaque nodes never enter a cut, so this figure is never summed into an
            // AFU's area; charge the memory-port figure for completeness.
            Opaque(_) => self.memory,
        }
    }

    /// Total area of the subgraph induced by the nodes for which `in_subgraph` is true.
    #[must_use]
    pub fn area_of(&self, dfg: &Dfg, in_subgraph: impl Fn(NodeId) -> bool) -> f64 {
        dfg.iter_nodes()
            .filter(|(id, _)| in_subgraph(*id))
            .map(|(_, n)| self.area(n.opcode))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_ir::DfgBuilder;

    #[test]
    fn area_ordering() {
        let m = AreaModel::new();
        assert!(m.area(Opcode::And) < m.area(Opcode::Add));
        assert!(m.area(Opcode::Add) < m.area(Opcode::Mul));
        assert!((m.area(Opcode::Mac) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subgraph_area_sums_member_nodes() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let p = b.mul(x, x);
        let s = b.add(p, x);
        b.output("o", s);
        let g = b.finish();
        let m = AreaModel::new();
        let all = m.area_of(&g, |_| true);
        assert!((all - 0.84).abs() < 1e-9);
        let only_add = m.area_of(&g, |id| id.index() == 1);
        assert!((only_add - 0.04).abs() < 1e-9);
    }
}
