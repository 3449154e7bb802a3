//! Reference interpreter for dataflow graphs.
//!
//! The interpreter gives the IR an executable semantics so that the test suite can check
//! that transformation passes (constant folding, dead-code elimination) and cut collapsing
//! (replacing a convex subgraph by a single AFU instruction) preserve program behaviour.
//! All arithmetic is performed on 32-bit two's-complement values, matching the embedded
//! processors targeted by the paper.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::dfg::Dfg;
use crate::error::IrError;
use crate::node::Operand;
use crate::opcode::Opcode;
use crate::program::AfuSpec;

/// A word-addressed data memory used by `load`/`store` nodes.
///
/// Addresses and values are 32-bit integers; unwritten locations read as zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Memory {
    cells: HashMap<i32, i32>,
}

impl Memory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        Memory::default()
    }

    /// Reads the word at `addr` (0 if never written).
    #[must_use]
    pub fn read(&self, addr: i32) -> i32 {
        self.cells.get(&addr).copied().unwrap_or(0)
    }

    /// Writes `value` at `addr`.
    pub fn write(&mut self, addr: i32, value: i32) {
        self.cells.insert(addr, value);
    }

    /// Number of written locations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if no location has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Initialises a contiguous table starting at `base`, one word per element.
    ///
    /// This is how the workload crate materialises the `stepsizeTable`/`indexTable`
    /// lookup tables of the ADPCM kernels.
    pub fn load_table(&mut self, base: i32, values: &[i32]) {
        for (i, &v) in values.iter().enumerate() {
            self.write(base + i as i32, v);
        }
    }
}

/// Result of evaluating one basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockResult {
    /// Values of the block output variables, keyed by output name.
    pub outputs: BTreeMap<String, i32>,
    /// Values of every operation node, indexed by node position (stores yield 0).
    pub node_values: Vec<i32>,
}

/// Evaluator holding the machine state (data memory and AFU library).
#[derive(Debug, Clone, Default)]
pub struct Evaluator {
    /// Data memory shared across block evaluations.
    pub memory: Memory,
    afus: Vec<AfuSpec>,
    /// AFU specifications already structurally validated, so a block that invokes
    /// the same AFU many times (or is evaluated in a loop) validates each
    /// specification once instead of once per invocation.
    validated_afus: HashSet<u16>,
}

impl Evaluator {
    /// Creates an evaluator with an empty memory and no AFU library.
    #[must_use]
    pub fn new() -> Self {
        Evaluator::default()
    }

    /// Creates an evaluator with the given AFU library (needed to execute graphs that
    /// contain collapsed [`Opcode::Afu`] nodes).
    #[must_use]
    pub fn with_afus(afus: Vec<AfuSpec>) -> Self {
        Evaluator {
            memory: Memory::new(),
            afus,
            validated_afus: HashSet::new(),
        }
    }

    /// Evaluates one basic block with the given input bindings.
    ///
    /// The block is structurally validated first, so a malformed graph (bad arity,
    /// dangling or forward operand references) is reported as an error instead of
    /// causing an out-of-bounds panic mid-evaluation.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph fails [`Dfg::validate`], if an input variable is
    /// unbound, on division by zero, or when an AFU node references an unknown
    /// specification.
    pub fn eval_block(
        &mut self,
        dfg: &Dfg,
        inputs: &BTreeMap<String, i32>,
    ) -> Result<BlockResult, IrError> {
        dfg.validate()?;
        self.eval_block_prevalidated(dfg, inputs)
    }

    /// [`Evaluator::eval_block`] without the upfront structural validation, for
    /// graphs this evaluator has already validated (AFU specification re-entry).
    fn eval_block_prevalidated(
        &mut self,
        dfg: &Dfg,
        inputs: &BTreeMap<String, i32>,
    ) -> Result<BlockResult, IrError> {
        let mut input_values = Vec::with_capacity(dfg.input_count());
        for (_, var) in dfg.iter_inputs() {
            let value =
                inputs
                    .get(&var.name)
                    .copied()
                    .ok_or_else(|| IrError::MissingInputValue {
                        block: dfg.name().to_string(),
                        input: var.name.clone(),
                    })?;
            input_values.push(value);
        }
        let node_values = self.eval_nodes(dfg, &input_values)?;
        let mut outputs = BTreeMap::new();
        for output in dfg.iter_outputs() {
            let value = match output.source {
                Operand::Node(n) => node_values[n.index()],
                Operand::Input(p) => input_values[p.index()],
                Operand::Imm(v) => v as i32,
            };
            outputs.insert(output.name.clone(), value);
        }
        Ok(BlockResult {
            outputs,
            node_values,
        })
    }

    fn eval_nodes(&mut self, dfg: &Dfg, input_values: &[i32]) -> Result<Vec<i32>, IrError> {
        let mut values = vec![0i32; dfg.node_count()];
        for (id, node) in dfg.iter_nodes() {
            let operand = |k: usize| -> i32 {
                match node.operands[k] {
                    Operand::Node(n) => values[n.index()],
                    Operand::Input(p) => input_values[p.index()],
                    Operand::Imm(v) => v as i32,
                }
            };
            let value = match node.opcode {
                Opcode::Add => operand(0).wrapping_add(operand(1)),
                Opcode::Sub => operand(0).wrapping_sub(operand(1)),
                Opcode::Mul => operand(0).wrapping_mul(operand(1)),
                Opcode::MulHi => ((i64::from(operand(0)) * i64::from(operand(1))) >> 32) as i32,
                Opcode::Mac => operand(0).wrapping_mul(operand(1)).wrapping_add(operand(2)),
                Opcode::Div => {
                    let d = operand(1);
                    if d == 0 {
                        return Err(IrError::DivisionByZero {
                            block: dfg.name().to_string(),
                            node: id,
                        });
                    }
                    operand(0).wrapping_div(d)
                }
                Opcode::Rem => {
                    let d = operand(1);
                    if d == 0 {
                        return Err(IrError::DivisionByZero {
                            block: dfg.name().to_string(),
                            node: id,
                        });
                    }
                    operand(0).wrapping_rem(d)
                }
                Opcode::Neg => operand(0).wrapping_neg(),
                Opcode::Abs => operand(0).wrapping_abs(),
                Opcode::Min => operand(0).min(operand(1)),
                Opcode::Max => operand(0).max(operand(1)),
                Opcode::And => operand(0) & operand(1),
                Opcode::Or => operand(0) | operand(1),
                Opcode::Xor => operand(0) ^ operand(1),
                Opcode::Not => !operand(0),
                Opcode::Shl => operand(0).wrapping_shl(operand(1) as u32 & 31),
                Opcode::Lshr => ((operand(0) as u32).wrapping_shr(operand(1) as u32 & 31)) as i32,
                Opcode::Ashr => operand(0).wrapping_shr(operand(1) as u32 & 31),
                Opcode::Eq => i32::from(operand(0) == operand(1)),
                Opcode::Ne => i32::from(operand(0) != operand(1)),
                Opcode::Lt => i32::from(operand(0) < operand(1)),
                Opcode::Le => i32::from(operand(0) <= operand(1)),
                Opcode::Gt => i32::from(operand(0) > operand(1)),
                Opcode::Ge => i32::from(operand(0) >= operand(1)),
                Opcode::Ltu => i32::from((operand(0) as u32) < operand(1) as u32),
                Opcode::Geu => i32::from(operand(0) as u32 >= operand(1) as u32),
                Opcode::Select => {
                    if operand(0) != 0 {
                        operand(1)
                    } else {
                        operand(2)
                    }
                }
                Opcode::SextB => operand(0) as i8 as i32,
                Opcode::SextH => operand(0) as i16 as i32,
                Opcode::ZextB => i32::from(operand(0) as u8),
                Opcode::ZextH => i32::from(operand(0) as u16),
                Opcode::TruncB => operand(0) & 0xff,
                Opcode::TruncH => operand(0) & 0xffff,
                Opcode::Copy => operand(0),
                Opcode::Const => operand(0),
                Opcode::Load => self.memory.read(operand(0)),
                Opcode::Store => {
                    let addr = operand(0);
                    let value = operand(1);
                    self.memory.write(addr, value);
                    0
                }
                Opcode::Afu { id: afu_id, out } => {
                    let operands: Vec<i32> = (0..node.operands.len()).map(operand).collect();
                    self.eval_afu(dfg, afu_id, out, &operands)?
                }
                Opcode::Opaque(_) => {
                    return Err(IrError::CannotInterpret {
                        block: dfg.name().to_string(),
                        node: id,
                        opcode: node.opcode,
                    });
                }
            };
            values[id.index()] = value;
        }
        Ok(values)
    }

    fn eval_afu(
        &mut self,
        caller: &Dfg,
        afu_id: u16,
        out: u16,
        operands: &[i32],
    ) -> Result<i32, IrError> {
        let spec = self
            .afus
            .iter()
            .find(|s| s.id == afu_id)
            .cloned()
            .ok_or_else(|| IrError::UnknownAfu {
                block: caller.name().to_string(),
                afu: afu_id,
            })?;
        if !self.validated_afus.contains(&afu_id) {
            spec.graph.validate()?;
            self.validated_afus.insert(afu_id);
        }
        let mut bindings = BTreeMap::new();
        for ((_, var), value) in spec.graph.iter_inputs().zip(operands) {
            bindings.insert(var.name.clone(), *value);
        }
        let result = self.eval_block_prevalidated(&spec.graph, &bindings)?;
        let output = spec
            .graph
            .iter_outputs()
            .nth(out as usize)
            .map(|o| o.name.clone())
            .ok_or(IrError::UnknownAfu {
                block: caller.name().to_string(),
                afu: afu_id,
            })?;
        Ok(result.outputs[&output])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    fn eval(dfg: &Dfg, bindings: &[(&str, i32)]) -> BTreeMap<String, i32> {
        let mut evaluator = Evaluator::new();
        let inputs: BTreeMap<String, i32> =
            bindings.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        evaluator
            .eval_block(dfg, &inputs)
            .expect("evaluation")
            .outputs
    }

    #[test]
    fn arithmetic_and_selection() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let sum = b.add(x, y);
        let cond = b.gt(sum, b.imm(10));
        let clipped = b.select(cond, b.imm(10), sum);
        b.output("r", clipped);
        let g = b.finish();
        assert_eq!(eval(&g, &[("x", 3), ("y", 4)])["r"], 7);
        assert_eq!(eval(&g, &[("x", 30), ("y", 4)])["r"], 10);
    }

    #[test]
    fn shifts_and_subword() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let a = b.ashr(x, b.imm(4));
        let l = b.lshr(x, b.imm(4));
        let sb = b.sext_b(x);
        let zb = b.zext_b(x);
        b.output("ashr", a);
        b.output("lshr", l);
        b.output("sext", sb);
        b.output("zext", zb);
        let g = b.finish();
        let out = eval(&g, &[("x", -16)]);
        assert_eq!(out["ashr"], -1);
        assert_eq!(out["lshr"], 0x0fff_ffff);
        assert_eq!(out["sext"], -16);
        assert_eq!(out["zext"], 0xf0);
    }

    #[test]
    fn division_by_zero_is_reported() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let d = b.div(x, b.imm(0));
        b.output("r", d);
        let g = b.finish();
        let mut evaluator = Evaluator::new();
        let inputs: BTreeMap<String, i32> = [("x".to_string(), 5)].into();
        assert!(matches!(
            evaluator.eval_block(&g, &inputs),
            Err(IrError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn missing_input_is_reported() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        b.output("r", x);
        let g = b.finish();
        let mut evaluator = Evaluator::new();
        assert!(matches!(
            evaluator.eval_block(&g, &BTreeMap::new()),
            Err(IrError::MissingInputValue { .. })
        ));
    }

    #[test]
    fn memory_roundtrip_through_load_store() {
        let mut b = DfgBuilder::new("t");
        let base = b.input("base");
        let x = b.input("x");
        let doubled = b.shl(x, b.imm(1));
        b.store(base, doubled);
        let reloaded = b.load(base);
        let plus_one = b.add(reloaded, b.imm(1));
        b.output("r", plus_one);
        let g = b.finish();
        let mut evaluator = Evaluator::new();
        let inputs: BTreeMap<String, i32> =
            [("base".to_string(), 100), ("x".to_string(), 21)].into();
        let result = evaluator.eval_block(&g, &inputs).unwrap();
        assert_eq!(result.outputs["r"], 43);
        assert_eq!(evaluator.memory.read(100), 42);
    }

    #[test]
    fn table_lookup_via_memory() {
        let mut b = DfgBuilder::new("t");
        let base = b.input("base");
        let idx = b.input("idx");
        let addr = b.add(base, idx);
        let v = b.load(addr);
        b.output("r", v);
        let g = b.finish();
        let mut evaluator = Evaluator::new();
        evaluator.memory.load_table(200, &[7, 8, 9, 10]);
        let inputs: BTreeMap<String, i32> =
            [("base".to_string(), 200), ("idx".to_string(), 2)].into();
        assert_eq!(evaluator.eval_block(&g, &inputs).unwrap().outputs["r"], 9);
    }

    #[test]
    fn afu_nodes_execute_their_specification() {
        use crate::node::Node;
        use crate::program::AfuSpec;

        // AFU 7 computes (a + b, a - b).
        let mut b = DfgBuilder::new("afu7");
        let a = b.input("a");
        let bb = b.input("b");
        let s = b.add(a, bb);
        let d = b.sub(a, bb);
        b.output("sum", s);
        b.output("diff", d);
        let spec = AfuSpec {
            id: 7,
            name: "sumdiff".into(),
            graph: b.finish(),
        };

        let mut g = Dfg::new("caller");
        let x = g.add_input("x");
        let y = g.add_input("y");
        let sum = g.add_node(Node::new(
            Opcode::Afu { id: 7, out: 0 },
            vec![x.into(), y.into()],
        ));
        let diff = g.add_node(Node::new(
            Opcode::Afu { id: 7, out: 1 },
            vec![x.into(), y.into()],
        ));
        let prod = g.add_node(Node::new(Opcode::Mul, vec![sum.into(), diff.into()]));
        g.add_output("r", prod.into());

        let mut evaluator = Evaluator::with_afus(vec![spec]);
        let inputs: BTreeMap<String, i32> = [("x".to_string(), 9), ("y".to_string(), 4)].into();
        assert_eq!(evaluator.eval_block(&g, &inputs).unwrap().outputs["r"], 65);
    }

    #[test]
    fn unknown_afu_is_reported() {
        use crate::node::Node;
        let mut g = Dfg::new("caller");
        let x = g.add_input("x");
        let n = g.add_node(Node::new(Opcode::Afu { id: 9, out: 0 }, vec![x.into()]));
        g.add_output("r", n.into());
        let mut evaluator = Evaluator::new();
        let inputs: BTreeMap<String, i32> = [("x".to_string(), 1)].into();
        assert!(matches!(
            evaluator.eval_block(&g, &inputs),
            Err(IrError::UnknownAfu { .. })
        ));
    }
}
