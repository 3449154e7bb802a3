//! # ise-api — the fallible, serialisable front-end of the ISE stack
//!
//! The lower layers (`ise-ir`, `ise-core`, `ise-baselines`) expose the paper's
//! algorithms as a library of precise building blocks. This crate is the *service
//! surface* on top of them: a typed job API in which every request is data, every
//! failure is an [`IseError`] value instead of a panic, and every payload crosses a
//! process boundary as JSON.
//!
//! * [`SessionBuilder`] → [`Session`] — configure an identification job once
//!   (algorithm by [`Algorithm`] enum or by name, [`Constraints`], pass pipeline,
//!   [`DriverOptions`], exploration budget), then run it against any number of
//!   programs: `session.run(&program)` returns an
//!   [`IseResponse`] with the [`SelectionResult`] and its [`SpeedupReport`];
//! * [`IseRequest`]/[`IseResponse`] — the serialisable job description and result;
//!   [`Session::execute`] runs one request end-to-end (resolving its
//!   [`ProgramSource`]);
//! * [`BatchService`] — fans a slice of requests out across `rayon` workers and
//!   returns responses in request order, deterministically (each response is
//!   byte-identical to what a sequential [`Session::run`] produces);
//! * [`ServeService`]/[`Server`] — the persistent serve mode: a long-running JSONL
//!   TCP server whose [`WarmPoolCache`] of canonical Pareto fills outlives
//!   individual requests (and, via disk snapshots, the process), answering repeat
//!   structures without re-enumeration while staying byte-identical to the
//!   one-shot paths;
//! * [`json`] — the serialisation entry points (`to_string`, `to_string_pretty`,
//!   `from_str`) shared by the `ise-cli` binary and in-process callers.
//!
//! # Example
//!
//! ```
//! use ise_api::{Algorithm, SessionBuilder};
//! use ise_core::Constraints;
//!
//! let session = SessionBuilder::new()
//!     .algorithm(Algorithm::SingleCut)
//!     .constraints(Constraints::new(4, 2))
//!     .max_instructions(4)
//!     .build()?;
//! let response = session.run(&ise_workloads::adpcm::decode_program())?;
//! assert!(response.report.speedup > 1.0);
//! # Ok::<(), ise_api::IseError>(())
//! ```
//!
//! [`Constraints`]: ise_core::Constraints
//! [`SelectionResult`]: ise_core::SelectionResult
//! [`SpeedupReport`]: ise_hw::speedup::SpeedupReport
//! [`DriverOptions`]: ise_core::DriverOptions

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod request;
mod serve;
mod session;

pub use batch::{BaselineRow, BatchService, CorpusBaselines};
pub use ise_baselines::Algorithm;
pub use ise_core::{
    CorpusStats, IseError, SweepStats, WarmCacheConfig, WarmCacheStats, WarmPoolCache,
    SNAPSHOT_FILE,
};
pub use request::{
    CorpusProgramOutcome, CorpusRequest, CorpusResponse, IseRequest, IseResponse, Pass,
    ProgramSource, SweepPairOutcome, SweepRequest, SweepResponse,
};
pub use serve::{ServeConfig, ServeService, Server, MAX_REQUEST_LINE_BYTES};
pub use session::{Session, SessionBuilder};

use serde::{DeserializeOwned, Serialize};

/// JSON serialisation entry points shared by the CLI and in-process callers.
///
/// Re-exported from the workspace serde shim; output is deterministic (object keys
/// keep declaration order), so serialising the same data twice is byte-identical.
pub mod json {
    pub use serde::json::{parse, to_string, to_string_pretty, to_value};
    pub use serde::Value;
}

/// Serialises any API payload (requests, responses, programs, selections, reports)
/// as compact JSON.
#[must_use]
pub fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
    serde::json::to_string(value)
}

/// Serialises any API payload as human-readable, indented JSON.
#[must_use]
pub fn to_json_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    serde::json::to_string_pretty(value)
}

/// Parses any API payload from JSON.
///
/// # Errors
///
/// Returns [`IseError::Serialization`] when the text is not valid JSON or does not
/// match the target type.
pub fn from_json<T: DeserializeOwned>(text: &str) -> Result<T, IseError> {
    serde::json::from_str(text).map_err(|e| IseError::Serialization(e.to_string()))
}

/// Parses a [`Program`](ise_ir::Program) from JSON and validates it, so the
/// result is safe to hand to any identification algorithm. (The derived
/// use-lists never come off the wire: graph deserialisation rebuilds them from
/// the operands.)
///
/// # Errors
///
/// Returns [`IseError::Serialization`] for malformed JSON and
/// [`IseError::InvalidProgram`] for a structurally invalid graph (bad arity,
/// dangling or forward references, cycles).
pub fn program_from_json(text: &str) -> Result<ise_ir::Program, IseError> {
    let program: ise_ir::Program = from_json(text)?;
    program.validate()?;
    Ok(program)
}

/// The names of all bundled identification algorithms, in [`Algorithm::all`] order.
#[must_use]
pub fn algorithm_names() -> Vec<&'static str> {
    Algorithm::all().map(Algorithm::name).to_vec()
}
