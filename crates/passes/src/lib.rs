//! # ise-passes — IR clean-up passes
//!
//! The paper extracts one dataflow graph per basic block from if-converted code. The
//! graphs that reach this crate are already in that form: the `.ll` front-end lowers
//! `select` instructions to [`ise_ir::Opcode::Select`] nodes, and the hand-built
//! workloads are written post-if-conversion. This crate provides the two clean-up
//! passes a session can run on them before identification:
//!
//! * [`dce`] — dead-code elimination on dataflow graphs;
//! * [`const_fold`] — constant folding on dataflow graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod const_fold;
pub mod dce;

pub use const_fold::fold_constants;
pub use dce::eliminate_dead_code;
