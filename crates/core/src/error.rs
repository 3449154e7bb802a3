//! The workspace-wide error hierarchy.
//!
//! Every fallible surface of the identification/selection stack — algorithm lookup,
//! request validation, program validation, serialisation, the CLI's file handling —
//! reports an [`IseError`], so that a malformed request degrades into an error
//! response instead of killing the process. Structural IR problems are wrapped
//! ([`IseError::InvalidProgram`]) rather than flattened, preserving the precise
//! [`IrError`] diagnosis.

use std::fmt;

use ise_ir::IrError;

/// Error reported by the identification/selection stack and its front-ends.
#[derive(Debug, Clone, PartialEq)]
pub enum IseError {
    /// An algorithm name did not resolve to one of the bundled algorithms
    /// (`ise_baselines::Algorithm`).
    ///
    /// The message lists the bundled names so that a typo in a request or CLI
    /// flag is self-diagnosing.
    UnknownAlgorithm {
        /// The name that failed to resolve.
        requested: String,
        /// The names of every bundled algorithm, in `Algorithm::all()` order.
        available: Vec<String>,
    },
    /// A program (or one of its blocks/AFUs) failed structural validation.
    InvalidProgram(IrError),
    /// A request carried parameters outside the domain an algorithm accepts
    /// (zero port budgets, out-of-range multicut slots, unknown workload, …).
    InvalidRequest(String),
    /// A payload could not be serialised or deserialised.
    Serialization(String),
    /// A file or stream operation failed (used by the CLI front-end).
    Io(String),
    /// A textual LLVM IR source failed to parse or lower.
    ///
    /// Carries the originating file (or synthetic source name) and the 1-based
    /// source position so corpus runs can report `file:line:column` per input
    /// instead of aborting the whole batch.
    Frontend {
        /// The file path or source label the text came from.
        file: String,
        /// 1-based source line of the offending construct.
        line: u32,
        /// 1-based source column (1 when only the line is known).
        column: u32,
        /// Human-readable description of the failure.
        message: String,
    },
}

impl fmt::Display for IseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IseError::UnknownAlgorithm {
                requested,
                available,
            } => {
                write!(
                    f,
                    "unknown identification algorithm `{requested}`; registered algorithms: {}",
                    available.join(", ")
                )
            }
            IseError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            IseError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            IseError::Serialization(msg) => write!(f, "serialisation error: {msg}"),
            IseError::Io(msg) => write!(f, "i/o error: {msg}"),
            IseError::Frontend {
                file,
                line,
                column,
                message,
            } => write!(f, "{file}:{line}:{column}: {message}"),
        }
    }
}

impl std::error::Error for IseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IseError::InvalidProgram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for IseError {
    fn from(e: IrError) -> Self {
        IseError::InvalidProgram(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_algorithm_lists_the_registered_names() {
        let e = IseError::UnknownAlgorithm {
            requested: "does-not-exist".into(),
            available: vec!["single-cut".into(), "multicut".into()],
        };
        let text = e.to_string();
        assert!(text.contains("does-not-exist"));
        assert!(text.contains("single-cut"));
        assert!(text.contains("multicut"));
    }

    #[test]
    fn ir_errors_convert_and_chain() {
        use std::error::Error as _;
        let ir = IrError::Cyclic {
            block: "bb0".into(),
        };
        let e = IseError::from(ir.clone());
        assert_eq!(e, IseError::InvalidProgram(ir));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("bb0"));
    }
}
