//! # ise-ir — dataflow IR for instruction-set extension identification
//!
//! This crate provides the program representation consumed by the identification and
//! selection algorithms of the Atasu/Pozzi/Ienne (2003) methodology:
//!
//! * [`Dfg`] — the per-basic-block dataflow DAG `G⁺(V ∪ V⁺, E ∪ E⁺)` of the paper:
//!   operation nodes `V`, plus input/output variable nodes `V⁺` modelling values read
//!   from and written to the register file.
//! * [`DfgBuilder`] — an ergonomic builder used by the workload crate to express
//!   embedded kernels (ADPCM, GSM, G.721, …) directly as dataflow graphs.
//! * [`Opcode`] / [`Node`] / [`Operand`] — the operation vocabulary, including the
//!   `SEL` selector nodes of if-converted sources and the memory operations that are
//!   illegal inside an application-specific functional unit.
//! * [`Program`] — a set of profiled basic blocks (the unit on which the selection
//!   algorithms of the paper operate).
//! * [`topo`] — the topological orderings required by the search algorithm
//!   (consumers-before-producers, Section 6.1 of the paper).
//! * [`interp`] — a reference interpreter used to validate that cut collapsing and the
//!   transformation passes preserve program semantics.
//! * [`dot`] — Graphviz export for inspecting graphs such as the motivational example
//!   of Fig. 3.
//!
//! # Example
//!
//! ```
//! use ise_ir::{DfgBuilder, Opcode};
//!
//! // out = (a + b) * (a - b)
//! let mut b = DfgBuilder::new("sum_diff_product");
//! let a = b.input("a");
//! let bb = b.input("b");
//! let sum = b.op(Opcode::Add, &[a, bb]);
//! let diff = b.op(Opcode::Sub, &[a, bb]);
//! let prod = b.op(Opcode::Mul, &[sum, diff]);
//! b.output("out", prod);
//! let dfg = b.finish();
//! assert_eq!(dfg.node_count(), 3);
//! assert_eq!(dfg.input_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod canon;
mod dfg;
pub mod dot;
mod error;
pub mod interp;
mod node;
mod opcode;
mod program;
pub mod topo;

pub use builder::DfgBuilder;
pub use dfg::{Dfg, InputVar, NodeId, OutputVar, PortId};
pub use error::IrError;
pub use node::{Node, Operand};
pub use opcode::{OpaqueOp, Opcode};
pub use program::{AfuSpec, Program};
