//! The serialisable job vocabulary: algorithms, program sources, requests and
//! responses.

use std::fmt;
use std::str::FromStr;

use ise_core::{Constraints, DriverOptions, IdentifierConfig, IseError, SelectionResult};
use ise_hw::speedup::SpeedupReport;
use ise_ir::Program;

/// The bundled identification algorithms, as a closed enum.
///
/// The registry remains open (any crate can register more identifiers under new
/// names); this enum covers the six algorithms shipped with the workspace and
/// converts to/from their stable registry names, so callers can choose between
/// compile-time safety ([`crate::SessionBuilder::algorithm`]) and data-driven
/// dispatch ([`crate::SessionBuilder::algorithm_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// The exact single-cut branch-and-bound search (paper Section 6.1).
    SingleCut,
    /// The exact multiple-cut search (paper Section 6.2).
    MultiCut,
    /// The brute-force enumeration oracle (tests and small blocks only).
    Exhaustive,
    /// The Clubbing baseline (Baleani et al., CODES 2002).
    Clubbing,
    /// The MaxMISO baseline (Alippi et al., DATE 1999).
    MaxMiso,
    /// The trivial one-node-per-instruction sanity floor.
    SingleNode,
}

impl Algorithm {
    /// All bundled algorithms, in registry order.
    #[must_use]
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::SingleCut,
            Algorithm::MultiCut,
            Algorithm::Exhaustive,
            Algorithm::Clubbing,
            Algorithm::MaxMiso,
            Algorithm::SingleNode,
        ]
    }

    /// The stable registry name of the algorithm.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::SingleCut => "single-cut",
            Algorithm::MultiCut => "multicut",
            Algorithm::Exhaustive => "exhaustive",
            Algorithm::Clubbing => "clubbing",
            Algorithm::MaxMiso => "maxmiso",
            Algorithm::SingleNode => "single-node",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Algorithm {
    type Err = IseError;

    /// Parses a registry name, with the registry's lookup rules (case-insensitive,
    /// `_` and `-` interchangeable).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canonical = ise_core::IdentifierRegistry::canonical_name(s);
        Algorithm::all()
            .into_iter()
            .find(|a| a.name() == canonical)
            .ok_or_else(|| IseError::UnknownAlgorithm {
                requested: s.to_string(),
                available: Algorithm::all().iter().map(|a| a.name().into()).collect(),
            })
    }
}

/// A whole-program transformation applied by a [`crate::Session`] before
/// identification.
///
/// The pipeline operates on the per-block dataflow graphs (if-conversion happens
/// upstream, when a control-flow function is lowered to a [`Program`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Pass {
    /// Constant folding on every basic block.
    ConstFold,
    /// Dead-code elimination on every basic block.
    Dce,
}

/// Where a request's program comes from.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ProgramSource {
    /// A bundled benchmark, referenced by its suite name (e.g. `"adpcmdecode"`).
    ///
    /// Keeps request files small and lets remote callers name workloads they do
    /// not hold locally.
    Workload(String),
    /// A full program carried inline in the request.
    Inline(Program),
    /// Textual LLVM IR (`.ll`) carried inline, lowered on resolution by the
    /// dependency-free [`ise_frontend`] parser.
    ///
    /// `name` labels the resulting program (and error messages); it is usually
    /// the source file path.
    LlvmIr {
        /// Program name / source label, usually the `.ll` file path.
        name: String,
        /// The full textual LLVM IR module.
        text: String,
    },
}

impl ProgramSource {
    /// Resolves the source into a validated program.
    ///
    /// Inline programs are treated as untrusted data and validated before any
    /// algorithm sees them. Their derived use-lists are already trustworthy:
    /// graph deserialisation rebuilds them from the operands instead of reading
    /// them off the wire.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::InvalidRequest`] for an unknown workload name (the
    /// message lists the bundled names), [`IseError::InvalidProgram`] for a
    /// structurally invalid inline program, and [`IseError::Frontend`] (with
    /// source position) for textual LLVM IR that fails to parse or lower.
    pub fn resolve(&self) -> Result<Program, IseError> {
        match self {
            ProgramSource::Workload(name) => ise_workloads::suite::by_name(name).ok_or_else(|| {
                IseError::InvalidRequest(format!(
                    "unknown workload `{name}`; bundled workloads: {}",
                    ise_workloads::suite::names().join(", ")
                ))
            }),
            ProgramSource::Inline(program) => {
                program.validate()?;
                Ok(program.clone())
            }
            ProgramSource::LlvmIr { name, text } => {
                let program =
                    ise_frontend::parse_and_lower(name, text).map_err(|e| IseError::Frontend {
                        file: name.clone(),
                        line: e.line,
                        column: e.column,
                        message: e.message,
                    })?;
                program.validate()?;
                Ok(program)
            }
        }
    }

    /// Resolves the source for a corpus, where an LLVM IR module with several
    /// `define`s contributes one program **per function** (named
    /// `<name>.<function>`, in source order) instead of an accidental merge of
    /// every function's blocks into one program. Single-function modules,
    /// workloads and inline programs resolve exactly as [`resolve`](Self::resolve),
    /// so corpora without multi-function `.ll` sources are byte-identical to
    /// before.
    ///
    /// # Errors
    ///
    /// Exactly as [`resolve`](Self::resolve).
    pub fn resolve_corpus(&self) -> Result<Vec<Program>, IseError> {
        match self {
            ProgramSource::LlvmIr { name, text } => {
                let programs =
                    ise_frontend::parse_and_lower_functions(name, text).map_err(|e| {
                        IseError::Frontend {
                            file: name.clone(),
                            line: e.line,
                            column: e.column,
                            message: e.message,
                        }
                    })?;
                for program in &programs {
                    program.validate()?;
                }
                Ok(programs)
            }
            other => other.resolve().map(|program| vec![program]),
        }
    }

    /// The program name this source refers to, without resolving it.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            ProgramSource::Workload(name) => name,
            ProgramSource::Inline(program) => program.name(),
            ProgramSource::LlvmIr { name, .. } => name,
        }
    }
}

/// One serialisable identification job: program, algorithm and all knobs.
///
/// A request is pure data — it can be built in-process, read from a JSON file by
/// `ise-cli`, or received over a wire — and is executed by
/// [`Session::execute`](crate::Session::execute) or fanned out with
/// [`BatchService`](crate::BatchService).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IseRequest {
    /// Registry name of the identification algorithm.
    pub algorithm: String,
    /// The program to optimise.
    pub program: ProgramSource,
    /// Microarchitectural constraints (`Nin`, `Nout`, optional budgets).
    pub constraints: Constraints,
    /// Algorithm construction parameters (exploration budget, multicut slots, …).
    pub config: IdentifierConfig,
    /// Program-driver options (`Ninstr`, parallel fan-out).
    pub options: DriverOptions,
    /// Pass pipeline applied before identification, in order.
    pub passes: Vec<Pass>,
}

impl IseRequest {
    /// Creates a request with default constraints, config, options and no passes.
    #[must_use]
    pub fn new(algorithm: Algorithm, program: ProgramSource) -> Self {
        IseRequest::named(algorithm.name(), program)
    }

    /// Creates a request for an algorithm addressed by registry name.
    #[must_use]
    pub fn named(algorithm: impl Into<String>, program: ProgramSource) -> Self {
        IseRequest {
            algorithm: algorithm.into(),
            program,
            constraints: Constraints::default(),
            config: IdentifierConfig::default(),
            options: DriverOptions::default(),
            passes: Vec::new(),
        }
    }

    /// Sets the microarchitectural constraints.
    #[must_use]
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the algorithm construction parameters.
    #[must_use]
    pub fn with_config(mut self, config: IdentifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the program-driver options.
    #[must_use]
    pub fn with_options(mut self, options: DriverOptions) -> Self {
        self.options = options;
        self
    }

    /// Appends a pass to the pre-identification pipeline.
    #[must_use]
    pub fn with_pass(mut self, pass: Pass) -> Self {
        self.passes.push(pass);
        self
    }
}

/// One serialisable *sweep* job: a base request plus the `(Nin, Nout)` pairs to
/// answer it under.
///
/// The base request's own `constraints` field is ignored — the sweep list is the
/// authoritative set of pairs. Executed by
/// [`Session::sweep`](crate::Session::sweep) /
/// [`Session::execute_sweep`](crate::Session::execute_sweep), which answer every
/// pair from a memoised [cut pool](ise_core::pool) when
/// [`DriverOptions::cut_pool`] is on (the default) and per-pair directly
/// otherwise; the response is byte-identical either way.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepRequest {
    /// The job description: program, algorithm and all knobs except the pair list.
    pub request: IseRequest,
    /// The constraint pairs to answer, in response order.
    pub sweep: Vec<Constraints>,
}

impl SweepRequest {
    /// Creates a sweep over the given pairs.
    #[must_use]
    pub fn new(request: IseRequest, sweep: Vec<Constraints>) -> Self {
        SweepRequest { request, sweep }
    }

    /// Creates a sweep over the paper's published Fig. 11 pairs.
    #[must_use]
    pub fn paper_sweep(request: IseRequest) -> Self {
        SweepRequest::new(request, Constraints::paper_sweep())
    }
}

/// The result of one pair of a sweep: exactly the selection and report a single-pair
/// [`Session::run`](crate::Session::run) under these constraints would produce.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepPairOutcome {
    /// The constraint pair this outcome was computed under.
    pub constraints: Constraints,
    /// The selected instructions and the (direct-search-identical) effort accounting.
    pub selection: SelectionResult,
    /// Whole-application speed-up accounting for the selection.
    pub report: SpeedupReport,
}

/// The result of one sweep job: one [`SweepPairOutcome`] per requested pair, in
/// request order.
///
/// Deliberately free of any pool/memoisation metadata, so the payload is
/// byte-identical between the pool-backed and the direct execution mode (the planner's
/// [`SweepStats`](ise_core::SweepStats) are reported out of band).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepResponse {
    /// Name of the program that was optimised.
    pub program: String,
    /// Registry name of the algorithm that ran.
    pub algorithm: String,
    /// One outcome per requested constraint pair, in request order.
    pub pairs: Vec<SweepPairOutcome>,
}

/// One serialisable *corpus* job: many programs analysed together under one
/// constraint set by the exact single-cut search, sharing enumeration work between
/// structurally isomorphic basic blocks when `dedup` is on (the default).
///
/// Executed by [`BatchService::run_corpus`](crate::BatchService::run_corpus), which
/// shards the programs across the work-stealing scheduler; the response is
/// byte-identical whatever the thread count and whether dedup is on or off (the
/// [`CorpusStats`](ise_core::CorpusStats) are reported out of band).
///
/// On the wire only `programs` is required, and an unset `templates` is omitted, so
/// template-free requests keep the bytes of the format that predates templates.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CorpusRequest {
    /// The programs to analyse, in response order.
    pub programs: Vec<ProgramSource>,
    /// Microarchitectural constraints shared by the whole corpus.
    #[serde(default)]
    pub constraints: Constraints,
    /// Algorithm construction parameters (only `exploration_budget` applies).
    #[serde(default)]
    pub config: IdentifierConfig,
    /// Program-driver options (`Ninstr`, parallel fan-out).
    #[serde(default)]
    pub options: DriverOptions,
    /// Share Pareto fills between isomorphic blocks (`true`, the default) or run the
    /// reference per-program searches. Both modes produce byte-identical responses.
    #[serde(default = "enabled")]
    pub dedup: bool,
    /// Optional cross-site template selection: the area budget to select instruction
    /// templates under, across the whole corpus (see
    /// [`TemplateReport`](ise_core::TemplateReport)). Absent on the wire when unset.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub templates: Option<f64>,
}

/// The wire default of `dedup`.
fn enabled() -> bool {
    true
}

impl CorpusRequest {
    /// Creates a corpus request with default constraints, config and options.
    #[must_use]
    pub fn new(programs: Vec<ProgramSource>) -> Self {
        CorpusRequest {
            programs,
            constraints: Constraints::default(),
            config: IdentifierConfig::default(),
            options: DriverOptions::default(),
            dedup: true,
            templates: None,
        }
    }

    /// Sets the microarchitectural constraints.
    #[must_use]
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the algorithm construction parameters.
    #[must_use]
    pub fn with_config(mut self, config: IdentifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the program-driver options.
    #[must_use]
    pub fn with_options(mut self, options: DriverOptions) -> Self {
        self.options = options;
        self
    }

    /// Enables or disables cross-program structural deduplication.
    #[must_use]
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Sets (or clears) the cross-site template-selection area budget.
    #[must_use]
    pub fn with_templates(mut self, area_budget: Option<f64>) -> Self {
        self.templates = area_budget;
        self
    }
}

/// The result for one program of a corpus: exactly the selection and report a
/// standalone single-cut [`Session::run`](crate::Session::run) on that program (same
/// constraints, same knobs) would produce.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CorpusProgramOutcome {
    /// Name of the analysed program.
    pub program: String,
    /// The selected instructions and the (dedup-independent) effort accounting.
    pub selection: SelectionResult,
    /// Whole-application speed-up accounting for the selection.
    pub report: SpeedupReport,
}

/// The result of one corpus job: one [`CorpusProgramOutcome`] per program, in request
/// order.
///
/// Deliberately free of any dedup/sharding metadata, so the payload is byte-identical
/// between the deduplicated and the reference execution mode (the
/// [`CorpusStats`](ise_core::CorpusStats) and per-shard progress are reported out of
/// band).
///
/// On the wire an absent `templates` report is omitted, so responses to template-free
/// requests keep the bytes of the format that predates templates.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CorpusResponse {
    /// The constraints the corpus ran under.
    pub constraints: Constraints,
    /// One outcome per program, in request order.
    pub programs: Vec<CorpusProgramOutcome>,
    /// The cross-site template selection, present iff the request set `templates`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub templates: Option<ise_core::TemplateReport>,
}

/// The result of one identification job.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IseResponse {
    /// Name of the program that was optimised.
    pub program: String,
    /// Registry name of the algorithm that ran.
    pub algorithm: String,
    /// The constraints the job ran under.
    pub constraints: Constraints,
    /// The selected instructions and the search-effort statistics.
    pub selection: SelectionResult,
    /// Whole-application speed-up accounting for the selection.
    pub report: SpeedupReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_round_trip_through_from_str() {
        for algorithm in Algorithm::all() {
            assert_eq!(algorithm.name().parse::<Algorithm>(), Ok(algorithm));
            assert_eq!(algorithm.to_string(), algorithm.name());
        }
        assert_eq!("Single_Cut".parse::<Algorithm>(), Ok(Algorithm::SingleCut));
        let err = "nope".parse::<Algorithm>().unwrap_err();
        assert!(err.to_string().contains("single-cut"), "{err}");
    }

    #[test]
    fn enum_names_match_the_live_registry() {
        let registered = crate::algorithm_names();
        for algorithm in Algorithm::all() {
            assert!(registered.contains(&algorithm.name()), "{algorithm}");
        }
        assert_eq!(registered.len(), Algorithm::all().len());
    }

    #[test]
    fn unknown_workloads_list_the_bundled_names() {
        let err = ProgramSource::Workload("nope".into())
            .resolve()
            .unwrap_err();
        assert!(matches!(&err, IseError::InvalidRequest(m) if m.contains("adpcmdecode")));
    }

    #[test]
    fn corpus_wire_format_omits_templates_when_unset() {
        let request = CorpusRequest::new(vec![ProgramSource::Workload("gsm".into())]);
        let text = crate::to_json(&request);
        assert!(
            !text.contains("templates"),
            "no budget, no key on the wire: {text}"
        );
        let back: CorpusRequest = crate::from_json(&text).expect("round trip");
        assert_eq!(back, request);

        let budgeted = request.with_templates(Some(40.0));
        let text = crate::to_json(&budgeted);
        assert!(text.contains("\"templates\""), "{text}");
        let back: CorpusRequest = crate::from_json(&text).expect("round trip");
        assert_eq!(back, budgeted);

        let response = CorpusResponse {
            constraints: Constraints::default(),
            programs: Vec::new(),
            templates: None,
        };
        let text = crate::to_json(&response);
        assert!(
            !text.contains("templates"),
            "no report, no key on the wire: {text}"
        );
        let back: CorpusResponse = crate::from_json(&text).expect("round trip");
        assert_eq!(back, response);

        // Everything but `programs` is optional, and a null `templates` is unset.
        let bare: CorpusRequest =
            crate::from_json(r#"{"programs":[{"Workload":"gsm"}]}"#).expect("programs only");
        assert_eq!(
            bare,
            CorpusRequest::new(vec![ProgramSource::Workload("gsm".into())])
        );
        let null: CorpusRequest =
            crate::from_json(r#"{"programs":[],"templates":null}"#).expect("null templates");
        assert_eq!(null.templates, None);
        let error = |text: &str| {
            crate::from_json::<CorpusRequest>(text)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            error(r#"{"programs":[],"dedup":3}"#),
            "serialisation error: field `dedup` of `CorpusRequest`: expected a boolean, found an integer"
        );
        assert_eq!(
            error(r#"{"dedup":false}"#),
            "serialisation error: missing field `programs` for `CorpusRequest`"
        );
    }

    #[test]
    fn requests_round_trip_through_json() {
        let request = IseRequest::new(Algorithm::MultiCut, ProgramSource::Workload("gsm".into()))
            .with_constraints(Constraints::new(4, 2).with_max_area(1.5))
            .with_config(IdentifierConfig {
                multicut_slots: 3,
                ..IdentifierConfig::default()
            })
            .with_pass(Pass::ConstFold)
            .with_pass(Pass::Dce);
        let text = crate::to_json(&request);
        let back: IseRequest = crate::from_json(&text).expect("round trip");
        assert_eq!(back, request);
        assert_eq!(crate::to_json(&back), text);
    }
}
