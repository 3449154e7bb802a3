//! Whole-application containers: profiled basic blocks and AFU specifications.

use crate::dfg::Dfg;

/// Specification of an application-specific functional unit extracted from a cut.
///
/// The `graph` field is a self-contained dataflow graph whose input variables correspond
/// positionally to the operands of the [`crate::Opcode::Afu`] nodes that invoke it, and
/// whose output variables correspond to the AFU's result ports.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AfuSpec {
    /// Identifier referenced by [`crate::Opcode::Afu`] nodes.
    pub id: u16,
    /// Human-readable name of the special instruction.
    pub name: String,
    /// The collapsed subgraph implemented by the functional unit.
    pub graph: Dfg,
}

impl AfuSpec {
    /// Number of register-file read ports used by the AFU.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.graph.input_count()
    }

    /// Number of register-file write ports used by the AFU.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.graph.output_count()
    }
}

/// A profiled application: a collection of basic blocks (each a [`Dfg`] with an execution
/// count) plus the library of AFUs selected so far.
///
/// This is the object on which the *selection* algorithms of the paper (Problem 2)
/// operate: they pick up to `Ninstr` cuts across all blocks, weighting each cut's merit
/// by its block's execution count.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Program {
    name: String,
    blocks: Vec<Dfg>,
    afus: Vec<AfuSpec>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            blocks: Vec::new(),
            afus: Vec::new(),
        }
    }

    /// Name of the application.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a basic block and returns its index.
    pub fn add_block(&mut self, block: Dfg) -> usize {
        self.blocks.push(block);
        self.blocks.len() - 1
    }

    /// The program's basic blocks.
    #[must_use]
    pub fn blocks(&self) -> &[Dfg] {
        &self.blocks
    }

    /// Mutable access to the program's basic blocks (used by transformation passes).
    pub fn blocks_mut(&mut self) -> &mut [Dfg] {
        &mut self.blocks
    }

    /// Returns the block at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn block(&self, index: usize) -> &Dfg {
        &self.blocks[index]
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Registers an AFU specification, assigning it the next free identifier.
    pub fn add_afu(&mut self, name: impl Into<String>, graph: Dfg) -> u16 {
        let id = u16::try_from(self.afus.len()).expect("fewer than 65536 AFUs");
        self.afus.push(AfuSpec {
            id,
            name: name.into(),
            graph,
        });
        id
    }

    /// The AFU library selected so far.
    #[must_use]
    pub fn afus(&self) -> &[AfuSpec] {
        &self.afus
    }

    /// Validates every basic block.
    ///
    /// # Errors
    ///
    /// Propagates the first [`crate::IrError`] found.
    pub fn validate(&self) -> Result<(), crate::IrError> {
        for block in &self.blocks {
            block.validate()?;
        }
        for afu in &self.afus {
            afu.graph.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    fn simple_block(name: &str, count: u64) -> Dfg {
        let mut b = DfgBuilder::new(name);
        let x = b.input("x");
        let y = b.add(x, b.imm(1));
        b.output("y", y);
        b.exec_count(count);
        b.finish()
    }

    #[test]
    fn program_accounting() {
        let mut p = Program::new("app");
        p.add_block(simple_block("bb0", 10));
        p.add_block(simple_block("bb1", 5));
        assert_eq!(p.block_count(), 2);
        assert!(p.validate().is_ok());
        assert_eq!(p.name(), "app");
        assert_eq!(p.block(1).name(), "bb1");
    }

    #[test]
    fn afu_registration_assigns_sequential_ids() {
        let mut p = Program::new("app");
        let id0 = p.add_afu("afu_a", simple_block("a", 1));
        let id1 = p.add_afu("afu_b", simple_block("b", 1));
        assert_eq!(id0, 0);
        assert_eq!(id1, 1);
        assert_eq!(p.afus()[1].name, "afu_b");
        assert_eq!(p.afus()[0].input_count(), 1);
        assert_eq!(p.afus()[0].output_count(), 1);
    }
}
