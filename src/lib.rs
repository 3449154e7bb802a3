//! # ise — automatic application-specific instruction-set extensions
//!
//! A faithful, self-contained reproduction of *Atasu, Pozzi and Ienne, "Automatic
//! Application-Specific Instruction-Set Extensions under Microarchitectural Constraints"*
//! (DAC 2003 / International Journal of Parallel Programming 31(6), 2003), grown into a
//! service-shaped stack.
//!
//! The public surface is the **job API** of the [`api`] layer: configure a [`Session`]
//! once, run it against any number of programs, and get back fallible, serialisable
//! responses. Everything a session does can also be expressed as data — an
//! [`IseRequest`] — executed from a JSON file by the `ise-cli` binary or fanned out in
//! parallel by the [`BatchService`].
//!
//! The underlying layers remain available for direct use:
//!
//! * [`ir`] — dataflow IR, builder, interpreter, Graphviz export;
//! * [`passes`] — dead-code elimination, constant folding;
//! * [`hw`] — software latency, hardware delay and area models, merit functions;
//! * [`core`] — cut identification/selection, the engine's `Identifier` trait and
//!   program driver, and the [`IseError`] hierarchy;
//! * [`baselines`] — the Clubbing and MaxMISO comparison algorithms, and [`Algorithm`],
//!   the one list of all six bundled algorithms;
//! * [`workloads`] — MediaBench-like kernels and random graph generation;
//! * [`frontend`] — the dependency-free textual LLVM IR (`.ll`) parser and lowering.
//!
//! # Quickstart
//!
//! ```
//! use ise::{Algorithm, SessionBuilder};
//! use ise::core::Constraints;
//! use ise::workloads::adpcm;
//!
//! // Identify up to four special instructions for the ADPCM decoder with a register
//! // file offering 4 read ports and 2 write ports.
//! let session = SessionBuilder::new()
//!     .algorithm(Algorithm::SingleCut)
//!     .constraints(Constraints::new(4, 2))
//!     .max_instructions(4)
//!     .build()?;
//! let response = session.run(&adpcm::decode_program())?;
//! assert!(!response.selection.is_empty());
//! assert!(response.report.speedup > 1.0);
//!
//! // Every payload crosses a process boundary as JSON, deterministically.
//! let wire = ise::api::to_json(&response);
//! assert_eq!(ise::api::to_json::<ise::IseResponse>(
//!     &ise::api::from_json(&wire)?), wire);
//! # Ok::<(), ise::IseError>(())
//! ```
//!
//! Algorithms can equally be addressed by name (`.algorithm_name("MaxMISO")`: case
//! does not matter, and `_` equals `-`), and an unknown name degrades into an
//! [`IseError::UnknownAlgorithm`] that lists the bundled algorithms — nothing in the
//! request path panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The typed job API: sessions, requests, batches, JSON serialisation.
pub use ise_api as api;
/// Baseline identification algorithms (Clubbing, MaxMISO, single-node) and the
/// [`Algorithm`] catalogue.
pub use ise_baselines as baselines;
/// Identification and selection algorithms — the paper's contribution.
pub use ise_core as core;
/// Textual LLVM IR (`.ll`) front-end: lexer, parser, printer, lowering.
pub use ise_frontend as frontend;
/// Cost models: software latency, hardware delay, area, speed-up accounting.
pub use ise_hw as hw;
/// Dataflow intermediate representation.
pub use ise_ir as ir;
/// IR clean-up passes (DCE, constant folding).
pub use ise_passes as passes;
/// Benchmark kernels and random graph generators.
pub use ise_workloads as workloads;

pub use ise_api::{
    Algorithm, BatchService, IseError, IseRequest, IseResponse, Pass, ProgramSource, Session,
    SessionBuilder,
};
