//! # ise-core — automatic instruction-set extension identification and selection
//!
//! This crate implements the algorithms of *Atasu, Pozzi and Ienne, "Automatic
//! Application-Specific Instruction-Set Extensions under Microarchitectural
//! Constraints"* (DAC 2003 / IJPP 31(6), 2003):
//!
//! * [`cut`] — cuts (subgraphs) of a basic-block dataflow graph and the reference
//!   implementations of `IN(S)`, `OUT(S)` and convexity;
//! * [`Constraints`] — the microarchitectural constraints `Nin`/`Nout` (plus optional
//!   area and size budgets);
//! * [`kernel`] — the shared branch-and-bound [`SearchKernel`](kernel::SearchKernel):
//!   one explicit-stack walk of the pruned decision tree, with the incremental
//!   bookkeeping factored into a snapshot-and-restorable
//!   [`IncrementalCutState`](kernel::IncrementalCutState) (per-edge updates,
//!   `O(fan-in + fan-out)` per decision and `O(n)` memory per cut) and optional
//!   deterministic intra-block subtree parallelism;
//! * [`SingleCutSearch`] — the exact single-cut identification algorithm of Section 6.1
//!   with incremental constraint checking and subtree pruning, as a kernel policy;
//! * [`MultiCutSearch`] — the multiple-cut generalisation of Section 6.2, as a kernel
//!   policy;
//! * [`selection`] — the optimal selection strategy across all basic blocks
//!   (Section 6.2) and the selection result types; the iterative strategy
//!   (Section 6.3) is [`select_program`] with the single-cut identifier;
//! * [`collapse`] — rewriting blocks so that selected cuts become
//!   [`ise_ir::Opcode::Afu`] instructions, with extraction of the AFU datapath;
//! * [`exhaustive`] — a brute-force oracle used by the test-suite;
//! * [`engine`] — the unified identification engine: the [`Identifier`] trait shared by
//!   every algorithm (including the `ise-baselines` ones, whose `Algorithm` enum
//!   names all six), and a `rayon`-parallel program driver ([`select_program`]) with
//!   deterministic merging.
//!
//! # Example
//!
//! ```
//! use ise_core::{identify_single_cut, Constraints};
//! use ise_hw::DefaultCostModel;
//! use ise_ir::DfgBuilder;
//!
//! // A multiply-accumulate with saturation: a classic ISE candidate.
//! let mut b = DfgBuilder::new("sat_mac");
//! let x = b.input("x");
//! let y = b.input("y");
//! let acc = b.input("acc");
//! let prod = b.mul(x, y);
//! let sum = b.add(prod, acc);
//! let hi = b.gt(sum, b.imm(32767));
//! let sat = b.select(hi, b.imm(32767), sum);
//! b.output("acc", sat);
//! let block = b.finish();
//!
//! let model = DefaultCostModel::new();
//! let outcome = identify_single_cut(&block, Constraints::new(3, 1), &model);
//! let best = outcome.best.expect("profitable instruction found");
//! assert_eq!(best.cut.len(), 4);        // the whole saturating MAC
//! assert!(best.evaluation.merit > 0.0); // cycles saved per execution
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collapse;
mod constraints;
pub mod cut;
pub mod engine;
mod error;
pub mod exhaustive;
pub mod kernel;
pub mod multicut;
pub mod pool;
mod search;
pub mod selection;
pub mod structural;

pub use constraints::Constraints;
pub use cut::{CutEvaluation, CutSet};
pub use engine::{
    extract_templates, run_corpus, run_corpus_streaming_warm, run_corpus_warm,
    run_template_selection, select_program, select_templates, select_templates_budgeted,
    select_templates_exhaustive, sweep_program, BudgetGroup, CorpusOptions, CorpusOutcome,
    CorpusPool, CorpusStats, DriverOptions, Identifier, IdentifierConfig, ProgramOutcome, SiteRef,
    SweepPlanner, SweepStats, Template, TemplateBudget, TemplateReport, TemplateSelectPolicy,
    TemplateSelection, WarmCacheConfig, WarmCacheStats, WarmPoolCache, SNAPSHOT_FILE,
};
pub use error::IseError;
pub use kernel::reference::identify_single_cut_reference;
pub use multicut::{identify_multiple_cuts, MultiCutOutcome, MultiCutSearch};
pub use search::{identify_single_cut, IdentifiedCut, SearchOutcome, SearchStats, SingleCutSearch};
pub use selection::{select_optimal, ChosenCut, SelectionResult};
pub use structural::{StructuralForm, StructuralKey};
