//! The request path, twice: as a user calls it (`plain_*`), and decomposed into
//! its layers' public functions with a span around each call (`traced_*`).
//!
//! The traced path makes the same calls, in the same order, as the one-shot
//! entry points it mirrors (`Session::execute`, `Session::execute_sweep`,
//! `BatchService::run_corpus_cached`, `ServeService::handle`), so its response
//! bytes are the plain path's; the workloads check both against the same
//! reference. Where one public call bundles several layers (`run_corpus_warm`,
//! `sweep_program`), it is one span carrying the counters it returns.

use std::sync::Arc;

use ise_api::{
    json, BatchService, CorpusProgramOutcome, CorpusRequest, CorpusResponse, IseError, IseRequest,
    IseResponse, Pass, ProgramSource, Session, SweepPairOutcome, SweepRequest, SweepResponse,
};
use ise_core::cut::CutSet;
use ise_core::engine::templates::report_selection;
use ise_core::engine::Identifier;
use ise_core::{
    extract_templates, run_corpus_warm, select_program, select_templates_budgeted, sweep_program,
    Constraints, CorpusOptions, SearchOutcome, TemplateBudget, WarmCacheConfig, WarmPoolCache,
};
use ise_hw::{CostModel, DefaultCostModel, SoftwareLatencyModel};
use ise_ir::{Dfg, Program};

use crate::trace::{Ctx, Recorder};

/// The request kinds a one-shot op can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Run,
    Sweep,
    Corpus,
}

fn serialization(error: serde::Error) -> IseError {
    IseError::Serialization(error.to_string())
}

/// Executes one request line the way the one-shot CLI does: decode, run on a
/// fresh cache, encode.
pub fn plain(kind: Kind, line: &str) -> Result<String, IseError> {
    match kind {
        Kind::Run => {
            let request: IseRequest = ise_api::from_json(line)?;
            Session::execute(&request).map(|response| json::to_string(&response))
        }
        Kind::Sweep => {
            let request: SweepRequest = ise_api::from_json(line)?;
            Session::execute_sweep(&request).map(|(response, _)| json::to_string(&response))
        }
        Kind::Corpus => {
            let request: CorpusRequest = ise_api::from_json(line)?;
            BatchService::new()
                .run_corpus(&request)
                .map(|(response, _, _)| json::to_string(&response))
        }
    }
}

/// Executes one request line through the traced decomposition.
pub fn traced(rec: &Recorder, ctx: Ctx, kind: Kind, line: &str) -> Result<String, IseError> {
    match kind {
        Kind::Run => {
            let request: IseRequest = rec.span("api.decode", ctx, |_| ise_api::from_json(line))?;
            let response = traced_run(rec, ctx, &request)?;
            Ok(rec.span("api.encode", ctx, |_| json::to_string(&response)))
        }
        Kind::Sweep => {
            let request: SweepRequest =
                rec.span("api.decode", ctx, |_| ise_api::from_json(line))?;
            let response = traced_sweep(rec, ctx, &request)?;
            Ok(rec.span("api.encode", ctx, |_| json::to_string(&response)))
        }
        Kind::Corpus => {
            let request: CorpusRequest =
                rec.span("api.decode", ctx, |_| ise_api::from_json(line))?;
            let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
            let response = traced_corpus(rec, ctx, &request, &cache)?;
            rec.add("warm.bytes", cache.stats().bytes_used as f64);
            Ok(rec.span("api.encode", ctx, |_| json::to_string(&response)))
        }
    }
}

/// The serve envelope of a successful response, as `ServeService` writes it.
pub fn envelope(id: &json::Value, response: json::Value) -> String {
    json::to_string(&json::Value::Object(vec![
        ("id".to_string(), id.clone()),
        ("response".to_string(), response),
    ]))
}

/// The serve envelope of a failed request.
pub fn error_envelope(id: &json::Value, error: &IseError) -> String {
    json::to_string(&json::Value::Object(vec![
        ("id".to_string(), id.clone()),
        ("error".to_string(), json::Value::Str(error.to_string())),
    ]))
}

/// `ServeService::handle` decomposed: decode the envelope, dispatch by kind
/// against the server's warm `cache`, encode the envelope. The whole call is
/// one `serve.handle.<kind>` span. Returns the kind and the response line.
pub fn traced_serve(
    rec: &Recorder,
    ctx: Ctx,
    line: &str,
    cache: &Arc<WarmPoolCache>,
) -> (&'static str, String) {
    let handle = rec.reserve();
    let start = rec.now();
    let inner = Ctx {
        op: ctx.op,
        parent: handle,
    };
    let decoded = rec.span("api.decode", inner, |_| -> Result<_, IseError> {
        let envelope = json::parse(line).map_err(serialization)?;
        let id = envelope.get("id").cloned().unwrap_or(json::Value::Null);
        let payload = match (
            envelope.get("kind").and_then(json::Value::as_str),
            envelope.get("request"),
        ) {
            (Some("run"), Some(p)) => {
                Payload::Run(serde::json::from_value(p).map_err(serialization)?)
            }
            (Some("sweep"), Some(p)) => {
                Payload::Sweep(serde::json::from_value(p).map_err(serialization)?)
            }
            (Some("corpus"), Some(p)) => {
                Payload::Corpus(serde::json::from_value(p).map_err(serialization)?)
            }
            (Some("stats"), _) => Payload::Stats,
            _ => {
                return Err(IseError::InvalidRequest(
                    "unsupported serve line".to_string(),
                ))
            }
        };
        Ok((id, payload))
    });
    let (kind, name, text) = match decoded {
        Err(error) => (
            "error",
            "serve.handle.error",
            error_envelope(&json::Value::Null, &error),
        ),
        Ok((id, payload)) => {
            let (kind, name, outcome) = match &payload {
                Payload::Run(request) => (
                    "run",
                    "serve.handle.run",
                    traced_run(rec, inner, request).map(|r| json::to_value(&r)),
                ),
                Payload::Sweep(request) => (
                    "sweep",
                    "serve.handle.sweep",
                    traced_sweep(rec, inner, request).map(|r| json::to_value(&r)),
                ),
                Payload::Corpus(request) => (
                    "corpus",
                    "serve.handle.corpus",
                    traced_corpus(rec, inner, request, cache).map(|r| json::to_value(&r)),
                ),
                Payload::Stats => (
                    "stats",
                    "serve.handle.stats",
                    Ok(json::to_value(&cache.stats())),
                ),
            };
            let text = rec.span("api.encode", inner, |_| match outcome {
                Ok(value) => envelope(&id, value),
                Err(error) => error_envelope(&id, &error),
            });
            (kind, name, text)
        }
    };
    rec.record(name, ctx, handle, start, rec.now());
    (kind, text)
}

enum Payload {
    Run(IseRequest),
    Sweep(SweepRequest),
    Corpus(CorpusRequest),
    Stats,
}

fn frontend_error(name: &str, error: ise_frontend::FrontendError) -> IseError {
    IseError::Frontend {
        file: name.to_string(),
        line: error.line,
        column: error.column,
        message: error.message,
    }
}

/// `ProgramSource::resolve_corpus` with spans around parse, lower and validate.
fn resolve(rec: &Recorder, ctx: Ctx, source: &ProgramSource) -> Result<Vec<Program>, IseError> {
    match source {
        ProgramSource::LlvmIr { name, text } => {
            rec.add("frontend.lines", text.lines().count() as f64);
            let module = rec
                .span("frontend.parse", ctx, |_| ise_frontend::parse_module(text))
                .map_err(|e| frontend_error(name, e.into()))?;
            let programs = rec
                .span("frontend.lower", ctx, |_| {
                    if module.functions.len() <= 1 {
                        ise_frontend::lower_module(&module, name).map(|p| vec![p])
                    } else {
                        ise_frontend::lower_module_functions(&module, name)
                    }
                })
                .map_err(|e| frontend_error(name, e))?;
            for program in &programs {
                rec.span("ir.validate", ctx, |_| program.validate())?;
            }
            Ok(programs)
        }
        ProgramSource::Inline(program) => {
            rec.span("ir.validate", ctx, |_| program.validate())?;
            Ok(vec![program.clone()])
        }
        ProgramSource::Workload(_) => Ok(vec![source.resolve()?]),
    }
}

/// `Session::apply_passes` with a span, counting the nodes the passes remove.
fn apply_passes(rec: &Recorder, ctx: Ctx, program: &Program, passes: &[Pass]) -> Program {
    rec.span("passes.run", ctx, |_| {
        let mut transformed = program.clone();
        let before: usize = transformed.blocks().iter().map(Dfg::node_count).sum();
        for pass in passes {
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
        let after: usize = transformed.blocks().iter().map(Dfg::node_count).sum();
        rec.add("passes.nodes_removed", before.saturating_sub(after) as f64);
        transformed
    })
}

/// Resolves, validates and prepares the program of a run or sweep request.
fn prepare(rec: &Recorder, ctx: Ctx, request: &IseRequest) -> Result<Program, IseError> {
    let program = match &request.program {
        ProgramSource::Inline(program) => {
            rec.span("ir.validate", ctx, |_| program.validate())?;
            program.clone()
        }
        other => other.resolve()?,
    };
    // `Session::run` validates again, whatever the source.
    rec.span("ir.validate", ctx, |_| program.validate())?;
    if request.passes.is_empty() {
        return Ok(program);
    }
    let transformed = apply_passes(rec, ctx, &program, &request.passes);
    rec.span("ir.validate", ctx, |_| transformed.validate())?;
    Ok(transformed)
}

/// Builds the request's identifier from the registry, as `SessionBuilder::build`.
fn identifier(
    rec: &Recorder,
    ctx: Ctx,
    request: &IseRequest,
) -> Result<Box<dyn Identifier>, IseError> {
    rec.span("api.session", ctx, |_| {
        ise_baselines::full_registry().create_configured(&request.algorithm, &request.config)
    })
}

/// `Session::execute`, traced.
pub fn traced_run(rec: &Recorder, ctx: Ctx, request: &IseRequest) -> Result<IseResponse, IseError> {
    let inner = identifier(rec, ctx, request)?;
    let prepared = prepare(rec, ctx, request)?;
    let model = DefaultCostModel::new();
    let selection = rec.span("selection.run", ctx, |ctx| {
        let traced = TracedIdentifier {
            inner: inner.as_ref(),
            rec,
            ctx,
        };
        select_program(
            &prepared,
            &traced,
            request.constraints,
            &model,
            request.options,
        )
    });
    let report = rec.span("hwmodel.report", ctx, |_| {
        selection.speedup_report(&prepared, &SoftwareLatencyModel::new())
    });
    Ok(IseResponse {
        program: prepared.name().to_string(),
        algorithm: inner.name().to_string(),
        constraints: request.constraints,
        selection,
        report,
    })
}

/// `Session::execute_sweep`, traced.
pub fn traced_sweep(
    rec: &Recorder,
    ctx: Ctx,
    request: &SweepRequest,
) -> Result<SweepResponse, IseError> {
    let inner = identifier(rec, ctx, &request.request)?;
    let prepared = prepare(rec, ctx, &request.request)?;
    let model = DefaultCostModel::new();
    let (selections, stats) = rec.span("sweep.run", ctx, |ctx| {
        let traced = TracedIdentifier {
            inner: inner.as_ref(),
            rec,
            ctx,
        };
        sweep_program(
            &prepared,
            &traced,
            request.request.config.exploration_budget,
            &request.sweep,
            &model,
            request.request.options,
        )
    });
    rec.add("sweep.pool_fills", stats.pool_fills as f64);
    rec.add("sweep.pool_answers", stats.pool_answers as f64);
    rec.add("sweep.fill_cuts", stats.fill_cuts_considered as f64);
    let software = SoftwareLatencyModel::new();
    let pairs = request
        .sweep
        .iter()
        .zip(selections)
        .map(|(&constraints, selection)| {
            let report = rec.span("hwmodel.report", ctx, |_| {
                selection.speedup_report(&prepared, &software)
            });
            SweepPairOutcome {
                constraints,
                selection,
                report,
            }
        })
        .collect();
    Ok(SweepResponse {
        program: prepared.name().to_string(),
        algorithm: inner.name().to_string(),
        pairs,
    })
}

/// `BatchService::run_corpus_cached`, traced; template selection is split out
/// of `run_corpus_warm` into its three public steps.
pub fn traced_corpus(
    rec: &Recorder,
    ctx: Ctx,
    request: &CorpusRequest,
    cache: &Arc<WarmPoolCache>,
) -> Result<CorpusResponse, IseError> {
    let mut programs = Vec::new();
    for source in &request.programs {
        programs.extend(resolve(rec, ctx, source)?);
    }
    let options = CorpusOptions::new(request.constraints)
        .with_driver(request.options)
        .with_exploration_budget(request.config.exploration_budget)
        .with_dedup(request.dedup);
    let model = DefaultCostModel::new();
    let before = cache.stats();
    let outcome = rec.span("corpus.run", ctx, |_| {
        run_corpus_warm(&programs, &model, &options, cache)
    });
    let after = cache.stats();
    let stats = outcome.stats;
    rec.add("corpus.pool_fills", stats.pool_fills as f64);
    rec.add("corpus.pool_answers", stats.pool_answers as f64);
    rec.add(
        "corpus.logical_calls",
        stats.logical_identifier_calls as f64,
    );
    rec.add("corpus.logical_cuts", stats.logical_cuts_considered as f64);
    rec.add(
        "corpus.physical_cuts",
        stats.physical_cuts_considered as f64,
    );
    rec.add("structural.blocks", stats.blocks_seen as f64);
    rec.add("structural.unique_keys", stats.unique_keys as f64);
    rec.add("structural.key_collisions", stats.key_collisions as f64);
    rec.add("warm.hits", after.hits.saturating_sub(before.hits) as f64);
    rec.add(
        "warm.misses",
        after.misses.saturating_sub(before.misses) as f64,
    );
    rec.add(
        "warm.fills",
        after.fills.saturating_sub(before.fills) as f64,
    );
    rec.add(
        "warm.evictions",
        after.evictions.saturating_sub(before.evictions) as f64,
    );
    let templates = request.templates.map(|area| {
        traced_templates(
            rec,
            ctx,
            &programs,
            &model,
            &options,
            TemplateBudget::new(area),
        )
    });
    let software = SoftwareLatencyModel::new();
    let outcomes = programs
        .iter()
        .zip(outcome.selections)
        .map(|(program, selection)| {
            let report = rec.span("hwmodel.report", ctx, |_| {
                selection.speedup_report(program, &software)
            });
            CorpusProgramOutcome {
                program: program.name().to_string(),
                selection,
                report,
            }
        })
        .collect();
    Ok(CorpusResponse {
        constraints: request.constraints,
        programs: outcomes,
        templates,
    })
}

/// `run_template_selection`, one span per step.
fn traced_templates(
    rec: &Recorder,
    ctx: Ctx,
    programs: &[Program],
    model: &dyn CostModel,
    options: &CorpusOptions,
    budget: TemplateBudget,
) -> ise_core::TemplateReport {
    let templates = rec.span("templates.extract", ctx, |_| {
        extract_templates(
            programs,
            model,
            options.constraints,
            options.exploration_budget,
        )
    });
    let (selection, stats) = rec.span("templates.select", ctx, |_| {
        select_templates_budgeted(&templates, budget, options.exploration_budget)
    });
    rec.add("templates.extracted", templates.len() as f64);
    rec.add(
        "templates.sites",
        templates.iter().map(|t| t.sites.len()).sum::<usize>() as f64,
    );
    rec.add("templates.select_nodes", stats.cuts_considered as f64);
    rec.add(
        "templates.budget_exhausted",
        f64::from(u8::from(stats.budget_exhausted)),
    );
    rec.span("templates.report", ctx, |_| {
        report_selection(programs, model, &templates, &selection, budget)
    })
}

/// Delegates to the session's identifier, with a `kernel.search` span and the
/// search statistics of every call the driver makes into the kernel.
#[derive(Debug)]
struct TracedIdentifier<'a> {
    inner: &'a dyn Identifier,
    rec: &'a Recorder,
    ctx: Ctx,
}

impl Identifier for TracedIdentifier<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn identify_excluding(
        &self,
        dfg: &Dfg,
        excluded: Option<&CutSet>,
        constraints: &Constraints,
        model: &dyn CostModel,
    ) -> SearchOutcome {
        self.identify_split(dfg, excluded, constraints, model, 0)
    }

    fn identify_split(
        &self,
        dfg: &Dfg,
        excluded: Option<&CutSet>,
        constraints: &Constraints,
        model: &dyn CostModel,
        split_levels: usize,
    ) -> SearchOutcome {
        let outcome = self.rec.span("kernel.search", self.ctx, |_| {
            self.inner
                .identify_split(dfg, excluded, constraints, model, split_levels)
        });
        let stats = &outcome.stats;
        self.rec
            .add("kernel.cuts_considered", stats.cuts_considered as f64);
        self.rec
            .add("kernel.feasible_cuts", stats.feasible_cuts as f64);
        self.rec
            .add("kernel.pruned_output", stats.pruned_output as f64);
        self.rec
            .add("kernel.pruned_convexity", stats.pruned_convexity as f64);
        self.rec
            .add("kernel.pruned_bound", stats.pruned_bound as f64);
        self.rec.add(
            "kernel.bound_subtree_prunes",
            stats.bound_subtree_prunes as f64,
        );
        outcome
    }

    fn refines_under_exclusion(&self) -> bool {
        self.inner.refines_under_exclusion()
    }
}

/// Side probe for `structural.canon`: canonicalises every block of `programs`.
/// `run_corpus_warm` does this inside one bundled call, so the benchmark
/// re-runs it on the same blocks, outside any op's wall time.
pub fn probe_canon(rec: &Recorder, ctx: Ctx, programs: &[Program]) {
    for block in programs.iter().flat_map(Program::blocks) {
        rec.span("structural.canon", ctx, |_| {
            std::hint::black_box(ise_core::StructuralForm::of(block));
        });
    }
}

/// Side probe for `pool.fill` and `pool.answer`: the first-round fill of every
/// block of a sweep under the loosest pair, then one answer per pair.
/// `sweep_program` bundles both, so the benchmark re-runs them outside any
/// op's wall time.
pub fn probe_pool(
    rec: &Recorder,
    ctx: Ctx,
    program: &Program,
    pairs: &[Constraints],
    budget: Option<u64>,
) {
    let fill = Constraints::new(
        pairs.iter().map(|p| p.max_inputs).max().unwrap_or(1),
        pairs.iter().map(|p| p.max_outputs).max().unwrap_or(1),
    );
    let model = DefaultCostModel::new();
    for block in program.blocks() {
        let filled = rec.span("pool.fill", ctx, |_| {
            ise_core::pool::fill_single_cut(block, None, fill, &model, budget)
        });
        if let ise_core::pool::FillOutcome::Complete(pool) = filled {
            for pair in pairs {
                rec.span("pool.answer", ctx, |_| {
                    std::hint::black_box(pool.answer(pair));
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{corpus_request, LL_FIXTURES};
    use crate::trace::ROOT;
    use ise_api::{Algorithm, ServeConfig, ServeService};

    #[test]
    fn traced_paths_answer_byte_identically_to_the_plain_paths() {
        let rec = Recorder::new();
        let ctx = Ctx {
            op: 1,
            parent: ROOT,
        };
        let ll = |(name, text): (&str, &str)| ProgramSource::LlvmIr {
            name: name.to_string(),
            text: text.to_string(),
        };
        let corpus = corpus_request(vec![
            ProgramSource::Workload("adpcmdecode".into()),
            ProgramSource::Inline(ise_workloads::crypto::crc_program()),
            ll(LL_FIXTURES[2]),
            ll(LL_FIXTURES[5]),
        ])
        .with_templates(Some(40.0));
        let run = IseRequest::new(Algorithm::SingleCut, ProgramSource::Workload("gsm".into()))
            .with_pass(Pass::ConstFold)
            .with_pass(Pass::Dce);
        let sweep = SweepRequest::paper_sweep(IseRequest::new(
            Algorithm::SingleCut,
            ProgramSource::Workload("adpcmdecode".into()),
        ));
        let requests = [
            (Kind::Corpus, "corpus", json::to_value(&corpus)),
            (Kind::Run, "run", json::to_value(&run)),
            (Kind::Sweep, "sweep", json::to_value(&sweep)),
        ];
        let service = ServeService::new(&ServeConfig::default());
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
        for (id, (kind, name, request)) in requests.into_iter().enumerate() {
            let line = json::to_string(&request);
            assert_eq!(
                plain(kind, &line).expect("valid request"),
                traced(&rec, ctx, kind, &line).expect("valid request"),
                "{name}"
            );
            let served = json::to_string(&json::Value::Object(vec![
                ("id".to_string(), json::Value::Uint(id as u64)),
                ("kind".to_string(), json::Value::Str(name.to_string())),
                ("request".to_string(), request),
            ]));
            assert_eq!(
                service.handle(&served),
                traced_serve(&rec, ctx, &served, &cache).1,
                "served {name}"
            );
        }
        let spans = rec.spans();
        for layer in [
            "api.decode",
            "frontend.parse",
            "corpus.run",
            "templates.select",
            "kernel.search",
            "sweep.run",
            "passes.run",
            "serve.handle.corpus",
        ] {
            assert!(spans.iter().any(|s| s.name == layer), "{layer}");
        }
    }
}
