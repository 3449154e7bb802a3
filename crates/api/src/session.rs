//! Sessions: a configured identification job, built once and run many times.

use std::borrow::Cow;

use ise_baselines::{full_registry, Algorithm};
use ise_core::engine::{select_program, Identifier};
use ise_core::{Constraints, DriverOptions, IdentifierConfig, IseError, SweepStats};
use ise_hw::{DefaultCostModel, SoftwareLatencyModel};
use ise_ir::Program;

use crate::request::{
    IseRequest, IseResponse, Pass, SweepPairOutcome, SweepRequest, SweepResponse,
};

/// Builder for a [`Session`].
///
/// Defaults: the exact `"single-cut"` algorithm, `Nin=4`/`Nout=2` constraints, no
/// passes, unbounded instruction count and a parallel per-block fan-out. Every session
/// scores cuts with the [`DefaultCostModel`] and reports speed-ups against the default
/// [`SoftwareLatencyModel`].
#[derive(Clone)]
pub struct SessionBuilder {
    algorithm: String,
    constraints: Constraints,
    config: IdentifierConfig,
    options: DriverOptions,
    passes: Vec<Pass>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            algorithm: Algorithm::SingleCut.name().to_string(),
            constraints: Constraints::default(),
            config: IdentifierConfig::default(),
            options: DriverOptions::default(),
            passes: Vec::new(),
        }
    }
}

impl SessionBuilder {
    /// Creates a builder with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder carrying all the knobs of a request (everything except
    /// its program source).
    #[must_use]
    pub fn from_request(request: &IseRequest) -> Self {
        SessionBuilder::new()
            .algorithm_name(request.algorithm.clone())
            .constraints(request.constraints)
            .config(request.config)
            .options(request.options)
            .passes(request.passes.clone())
    }

    /// Selects one of the bundled algorithms.
    #[must_use]
    pub fn algorithm(self, algorithm: Algorithm) -> Self {
        self.algorithm_name(algorithm.name())
    }

    /// Selects an algorithm by name, resolved at [`build`](Self::build) time with the
    /// lookup rule of [`Algorithm`]'s `FromStr` (case-insensitive, `_` equals `-`).
    #[must_use]
    pub fn algorithm_name(mut self, name: impl Into<String>) -> Self {
        self.algorithm = name.into();
        self
    }

    /// Sets the microarchitectural constraints.
    #[must_use]
    pub fn constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the algorithm construction parameters wholesale.
    #[must_use]
    pub fn config(mut self, config: IdentifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Limits the number of cuts an exact search may consider per invocation.
    #[must_use]
    pub fn exploration_budget(mut self, budget: u64) -> Self {
        self.config.exploration_budget = Some(budget);
        self
    }

    /// Sets the number of simultaneous cuts for the `"multicut"` algorithm.
    #[must_use]
    pub fn multicut_slots(mut self, slots: usize) -> Self {
        self.config.multicut_slots = slots;
        self
    }

    /// Sets the program-driver options wholesale.
    #[must_use]
    pub fn options(mut self, options: DriverOptions) -> Self {
        self.options = options;
        self
    }

    /// Bounds the number of selected instructions (`Ninstr`).
    #[must_use]
    pub fn max_instructions(mut self, max_instructions: usize) -> Self {
        self.options.max_instructions = max_instructions;
        self
    }

    /// Appends one pass to the pre-identification pipeline.
    #[must_use]
    pub fn pass(mut self, pass: Pass) -> Self {
        self.passes.push(pass);
        self
    }

    /// Replaces the whole pass pipeline.
    #[must_use]
    pub fn passes(mut self, passes: Vec<Pass>) -> Self {
        self.passes = passes;
        self
    }

    /// Validates the configuration and instantiates the session.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::InvalidRequest`] when the constraints or algorithm
    /// parameters are out of domain (checked in that order), and otherwise
    /// [`IseError::UnknownAlgorithm`] when the algorithm name does not resolve (the
    /// message lists the bundled names).
    pub fn build(self) -> Result<Session, IseError> {
        self.constraints.validate()?;
        let identifier = full_registry().create_configured(&self.algorithm, &self.config)?;
        Ok(Session {
            algorithm: identifier.name().to_string(),
            identifier,
            constraints: self.constraints,
            config: self.config,
            options: self.options,
            passes: self.passes,
        })
    }
}

/// A configured identification job.
///
/// A session owns its instantiated [`Identifier`] and is immutable once built, so
/// it can be shared across threads and run against any number of programs; every
/// run is deterministic for a given input.
pub struct Session {
    algorithm: String,
    identifier: Box<dyn Identifier>,
    constraints: Constraints,
    config: IdentifierConfig,
    options: DriverOptions,
    passes: Vec<Pass>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("algorithm", &self.algorithm)
            .field("constraints", &self.constraints)
            .field("options", &self.options)
            .field("passes", &self.passes)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// The name of the algorithm this session runs.
    #[must_use]
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// The constraints this session runs under.
    #[must_use]
    pub fn constraints(&self) -> Constraints {
        self.constraints
    }

    /// Runs the session against one program.
    ///
    /// The program is validated first, so a malformed graph (including one
    /// assembled from untrusted serialised data) degrades into an error response
    /// instead of a panic. The pass pipeline, if any, runs on a private copy — the
    /// caller's program is never mutated.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::InvalidProgram`] when the program fails structural
    /// validation (before or after the pass pipeline).
    pub fn run(&self, program: &Program) -> Result<IseResponse, IseError> {
        let prepared = self.prepare(program)?;
        let selection = select_program(
            &prepared,
            self.identifier.as_ref(),
            self.constraints,
            &DefaultCostModel::new(),
            self.options,
        );
        let report = selection.speedup_report(&prepared, &SoftwareLatencyModel::new());
        Ok(IseResponse {
            program: prepared.name().to_string(),
            algorithm: self.algorithm.clone(),
            constraints: self.constraints,
            selection,
            report,
        })
    }

    /// Executes one self-contained request end-to-end: builds the session the
    /// request describes, resolves its program source, and runs it.
    ///
    /// # Errors
    ///
    /// Propagates every validation error a request can carry: unknown algorithm or
    /// workload, out-of-domain parameters, or an invalid inline program.
    pub fn execute(request: &IseRequest) -> Result<IseResponse, IseError> {
        let session = SessionBuilder::from_request(request).build()?;
        let program = request.program.resolve()?;
        session.run(&program)
    }

    /// Runs the session against one program under a whole sweep of constraint
    /// pairs, answering from a memoised [cut pool](ise_core::pool) where the
    /// session's options allow it ([`DriverOptions::cut_pool`], on by default, and
    /// the `"single-cut"` algorithm) and per-pair directly otherwise.
    ///
    /// Every [`SweepPairOutcome`] is **byte-identical** (once serialised) to what
    /// [`run`](Self::run) would produce for a session with that single pair — the
    /// pool only removes redundant enumeration work, never changes results. The
    /// second return value reports how much work was saved.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::InvalidProgram`] when the program fails structural
    /// validation and [`IseError::InvalidRequest`] when `pairs` is empty or a pair
    /// is out of domain.
    pub fn sweep(
        &self,
        program: &Program,
        pairs: &[Constraints],
    ) -> Result<(SweepResponse, SweepStats), IseError> {
        if pairs.is_empty() {
            return Err(IseError::InvalidRequest(
                "a sweep needs at least one constraint pair".to_string(),
            ));
        }
        pairs.iter().try_for_each(Constraints::validate)?;
        let prepared = self.prepare(program)?;
        let (selections, stats) = ise_core::sweep_program(
            &prepared,
            self.identifier.as_ref(),
            self.config.exploration_budget,
            pairs,
            &DefaultCostModel::new(),
            self.options,
        );
        let software = SoftwareLatencyModel::new();
        let outcomes = pairs
            .iter()
            .zip(selections)
            .map(|(&constraints, selection)| {
                let report = selection.speedup_report(&prepared, &software);
                SweepPairOutcome {
                    constraints,
                    selection,
                    report,
                }
            })
            .collect();
        Ok((
            SweepResponse {
                program: prepared.name().to_string(),
                algorithm: self.algorithm.clone(),
                pairs: outcomes,
            },
            stats,
        ))
    }

    /// Executes one self-contained sweep request end-to-end (see [`sweep`](Self::sweep)).
    ///
    /// # Errors
    ///
    /// Propagates every validation error the base request or the pair list can carry.
    pub fn execute_sweep(request: &SweepRequest) -> Result<(SweepResponse, SweepStats), IseError> {
        let session = SessionBuilder::from_request(&request.request).build()?;
        let program = request.request.program.resolve()?;
        session.sweep(&program, &request.sweep)
    }

    /// Validates `program` and applies the pass pipeline to a private copy of it;
    /// with no passes the caller's program is borrowed as it is.
    fn prepare<'a>(&self, program: &'a Program) -> Result<Cow<'a, Program>, IseError> {
        program.validate()?;
        if self.passes.is_empty() {
            return Ok(Cow::Borrowed(program));
        }
        let mut transformed = program.clone();
        for pass in &self.passes {
            for block in transformed.blocks_mut() {
                match pass {
                    Pass::ConstFold => {
                        ise_passes::fold_constants(block);
                    }
                    Pass::Dce => {
                        ise_passes::eliminate_dead_code(block);
                    }
                }
            }
        }
        transformed.validate()?;
        Ok(Cow::Owned(transformed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ProgramSource;
    use ise_ir::DfgBuilder;

    fn mac_program() -> Program {
        let mut p = Program::new("mac");
        let mut b = DfgBuilder::new("bb0");
        b.exec_count(500);
        let x = b.input("x");
        let y = b.input("y");
        let acc = b.input("acc");
        let prod = b.mul(x, y);
        let sum = b.add(prod, acc);
        let scaled = b.shl(sum, b.imm(1));
        b.output("acc", scaled);
        p.add_block(b.finish());
        p
    }

    #[test]
    fn sessions_run_and_report_speedup() {
        let session = SessionBuilder::new()
            .algorithm(Algorithm::SingleCut)
            .constraints(Constraints::new(4, 2))
            .max_instructions(4)
            .build()
            .expect("valid configuration");
        let response = session.run(&mac_program()).expect("valid program");
        assert_eq!(response.algorithm, "single-cut");
        assert_eq!(response.program, "mac");
        assert!(!response.selection.is_empty());
        assert!(response.report.speedup > 1.0);
    }

    #[test]
    fn unknown_algorithms_fail_at_build_time() {
        let err = SessionBuilder::new()
            .algorithm_name("made-up")
            .build()
            .unwrap_err();
        assert!(matches!(err, IseError::UnknownAlgorithm { .. }), "{err}");
    }

    #[test]
    fn out_of_domain_parameters_fail_at_build_time() {
        let err = SessionBuilder::new().multicut_slots(0).build().unwrap_err();
        assert!(matches!(err, IseError::InvalidRequest(_)), "{err}");

        let bad = Constraints {
            max_inputs: 0,
            max_outputs: 1,
            max_area: None,
            max_nodes: None,
        };
        let err = SessionBuilder::new().constraints(bad).build().unwrap_err();
        assert!(matches!(err, IseError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn passes_run_on_a_private_copy() {
        let mut p = Program::new("foldable");
        let mut b = DfgBuilder::new("bb0");
        b.exec_count(10);
        let x = b.input("x");
        let c = b.add(b.imm(2), b.imm(3));
        let s = b.mul(x, c);
        let t = b.add(s, x);
        b.output("o", t);
        p.add_block(b.finish());
        let before = p.clone();

        let session = SessionBuilder::new()
            .pass(Pass::ConstFold)
            .pass(Pass::Dce)
            .build()
            .expect("valid configuration");
        let response = session.run(&p).expect("valid program");
        assert_eq!(p, before, "caller's program must not be mutated");
        assert!(response.report.speedup >= 1.0);
    }

    #[test]
    fn sweep_pairs_match_single_pair_sessions_byte_for_byte() {
        let program = mac_program();
        let pairs = vec![
            Constraints::new(2, 1),
            Constraints::new(4, 2),
            Constraints::new(8, 4),
        ];
        let session = SessionBuilder::new()
            .algorithm(Algorithm::SingleCut)
            .max_instructions(4)
            .build()
            .expect("valid configuration");
        let (sweep, stats) = session.sweep(&program, &pairs).expect("valid sweep");
        assert_eq!(sweep.pairs.len(), pairs.len());
        assert_eq!(sweep.algorithm, "single-cut");
        for (pair, outcome) in pairs.iter().zip(&sweep.pairs) {
            let single = SessionBuilder::new()
                .algorithm(Algorithm::SingleCut)
                .constraints(*pair)
                .max_instructions(4)
                .build()
                .expect("valid configuration")
                .run(&program)
                .expect("valid program");
            assert_eq!(
                crate::to_json(&outcome.selection),
                crate::to_json(&single.selection),
                "{pair}"
            );
            assert_eq!(
                crate::to_json(&outcome.report),
                crate::to_json(&single.report)
            );
        }
        // One block, three pairs: the pool must have saved enumerations.
        assert!(stats.physical_identifier_calls() < stats.logical_identifier_calls);
    }

    #[test]
    fn sweep_rejects_empty_and_out_of_domain_pair_lists() {
        let session = SessionBuilder::new().build().expect("valid configuration");
        let err = session.sweep(&mac_program(), &[]).unwrap_err();
        assert!(matches!(err, IseError::InvalidRequest(_)), "{err}");
        let bad = Constraints {
            max_inputs: 0,
            max_outputs: 1,
            max_area: None,
            max_nodes: None,
        };
        let err = session.sweep(&mac_program(), &[bad]).unwrap_err();
        assert!(matches!(err, IseError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn execute_resolves_workload_requests() {
        let request = IseRequest::new(
            Algorithm::MaxMiso,
            ProgramSource::Workload("adpcmdecode".into()),
        );
        let response = Session::execute(&request).expect("bundled workload");
        assert_eq!(response.program, "adpcmdecode");
        assert_eq!(response.algorithm, "maxmiso");
    }
}
