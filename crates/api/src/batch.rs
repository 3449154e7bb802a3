//! The batch front-end: fan a slice of requests out across `rayon` workers.

use std::sync::Arc;

use rayon::prelude::*;
use rayon::ShardProgress;

use ise_core::{
    CorpusOptions, CorpusStats, IseError, TemplateBudget, WarmCacheConfig, WarmPoolCache,
};
use ise_hw::SoftwareLatencyModel;
use ise_ir::Program;

use crate::request::{
    CorpusProgramOutcome, CorpusRequest, CorpusResponse, IseRequest, IseResponse,
};
use crate::session::Session;

/// Executes many [`IseRequest`]s concurrently with deterministic, ordered results.
///
/// Each request is independent — its own program, algorithm and knobs — so the
/// service fans them out across the `rayon` thread pool and collects the outcomes
/// *in request order*. Every outcome is byte-identical (once serialised) to what a
/// sequential [`Session::execute`] of the same request produces: parallelism only
/// trades wall-clock for cores, never determinism. A failing request yields its
/// [`IseError`] in place; it never aborts the rest of the batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchService;

impl BatchService {
    /// Creates the service.
    #[must_use]
    pub fn new() -> Self {
        BatchService
    }

    /// Executes every request and returns one outcome per request, in order.
    #[must_use]
    pub fn run(&self, requests: &[IseRequest]) -> Vec<Result<IseResponse, IseError>> {
        requests.par_iter().map(Session::execute).collect()
    }

    /// Executes one corpus request: every program analysed by the exact single-cut
    /// search under the request's constraints, sharing enumeration work between
    /// structurally isomorphic blocks when the request's `dedup` flag is on.
    ///
    /// Programs are sharded across the work-stealing scheduler (unless the request's
    /// driver options force the sequential path); the response lists outcomes in
    /// request order and is byte-identical whatever the thread count and whether
    /// dedup is on or off. The [`CorpusStats`] report how much enumeration the
    /// structural sharing saved, and the [`ShardProgress`] list how the work-stealing
    /// scheduler distributed the programs (empty on the sequential path; purely
    /// telemetry — never part of the deterministic payload).
    ///
    /// # Errors
    ///
    /// Returns [`IseError::InvalidRequest`] when the program list is empty, the
    /// constraints are out of domain or a `templates` budget is not a finite,
    /// positive area, and propagates any program-source resolution failure
    /// ([`IseError::InvalidProgram`], unknown workload names).
    pub fn run_corpus(
        &self,
        request: &CorpusRequest,
    ) -> Result<(CorpusResponse, CorpusStats, Vec<ShardProgress>), IseError> {
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
        self.run_corpus_cached(request, &cache)
    }

    /// Executes one corpus request against a caller-owned [`WarmPoolCache`], so
    /// Pareto fills survive the request and warm every later one that sees the
    /// same `(structural key, exclusion state, budget group)`.
    ///
    /// The response is **byte-identical** to [`run_corpus`](Self::run_corpus) on
    /// a fresh cache: canonical-coordinate fills are schedule-independent, so a
    /// warm answer is the same answer, effort accounting included. Serve mode
    /// ([`ServeService`](crate::ServeService)), where the cache lives for the
    /// whole process, runs the sources its outcome slots miss through the same
    /// body.
    ///
    /// # Errors
    ///
    /// Exactly as [`run_corpus`](Self::run_corpus).
    pub fn run_corpus_cached(
        &self,
        request: &CorpusRequest,
        cache: &Arc<WarmPoolCache>,
    ) -> Result<(CorpusResponse, CorpusStats, Vec<ShardProgress>), IseError> {
        self.execute_corpus(request, cache, None, &mut Vec::new())
    }

    /// Executes one corpus request in streaming mode: program sources resolve
    /// lazily and at most `max_in_flight` resolved programs are alive at once,
    /// so an arbitrarily long corpus runs under a bounded memory ceiling.
    ///
    /// The response is **byte-identical** to [`run_corpus`](Self::run_corpus) on
    /// the same request — streaming only bounds residency, never changes answers
    /// (fills are shared across the whole stream exactly as in the batch path).
    ///
    /// # Errors
    ///
    /// As [`run_corpus`](Self::run_corpus), plus `max_in_flight == 0` is an
    /// [`IseError::InvalidRequest`], and so is a `templates` budget: template
    /// selection needs every program's candidate sites at once, which is exactly
    /// the unbounded residency streaming exists to avoid. A program source that
    /// fails to resolve mid-stream stops the stream and returns its error
    /// (earlier programs have already been analysed at that point; the work is
    /// discarded).
    pub fn run_corpus_streaming(
        &self,
        request: &CorpusRequest,
        max_in_flight: usize,
    ) -> Result<(CorpusResponse, CorpusStats, Vec<ShardProgress>), IseError> {
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
        self.execute_corpus(request, &cache, Some(max_in_flight), &mut Vec::new())
    }

    /// The one corpus body: validates, resolves, selects and reports.
    ///
    /// Without `max_in_flight` every source resolves before any analysis (a bad
    /// source fails fast) and the corpus runs as one chunk; with it, sources resolve
    /// lazily and at most that many programs are alive at once. `per_source`
    /// receives how many programs each source resolved to, in request order, so
    /// serve mode can group the outcomes by source.
    pub(crate) fn execute_corpus(
        &self,
        request: &CorpusRequest,
        cache: &Arc<WarmPoolCache>,
        max_in_flight: Option<usize>,
        per_source: &mut Vec<usize>,
    ) -> Result<(CorpusResponse, CorpusStats, Vec<ShardProgress>), IseError> {
        validate_corpus(request)?;
        if max_in_flight == Some(0) {
            return Err(IseError::InvalidRequest(
                "streaming needs at least one in-flight program".to_string(),
            ));
        }
        if max_in_flight.is_some() && request.templates.is_some() {
            return Err(IseError::InvalidRequest(
                "template selection is corpus-global and unavailable in streaming mode".to_string(),
            ));
        }
        // `resolve_corpus`: a multi-function `.ll` source contributes one program
        // per function, so the response may list more programs than the request.
        let mut failure: Option<IseError> = None;
        let sources = request
            .programs
            .iter()
            .map_while(|source| match source.resolve_corpus() {
                Ok(programs) => {
                    per_source.push(programs.len());
                    Some(programs)
                }
                Err(error) => {
                    failure = Some(error);
                    None
                }
            })
            .flatten();
        let programs: Box<dyn Iterator<Item = Program> + '_> = match max_in_flight {
            Some(_) => Box::new(sources),
            None => {
                let resolved: Vec<Program> = sources.collect();
                if let Some(error) = failure {
                    return Err(error);
                }
                Box::new(resolved.into_iter())
            }
        };
        let options = self.corpus_options(request);
        let model = ise_hw::DefaultCostModel::new();
        let software = SoftwareLatencyModel::new();
        let mut outcomes = Vec::with_capacity(request.programs.len());
        // Template selection is corpus-global: keep the programs it needs.
        let mut kept = Vec::new();
        let (stats, shards) = ise_core::run_corpus_streaming_warm(
            programs,
            &model,
            &options,
            max_in_flight.unwrap_or(usize::MAX),
            cache,
            &mut |program, selection| {
                let report = selection.speedup_report(&program, &software);
                outcomes.push(CorpusProgramOutcome {
                    program: program.name().to_string(),
                    selection,
                    report,
                });
                if options.templates.is_some() {
                    kept.push(program);
                }
            },
        );
        if let Some(error) = failure {
            return Err(error);
        }
        let templates = options.templates.map(|budget| {
            ise_core::run_template_selection(
                &kept,
                &model,
                options.constraints,
                options.exploration_budget,
                budget,
                cache,
            )
        });
        Ok((
            CorpusResponse {
                constraints: request.constraints,
                programs: outcomes,
                templates,
            },
            stats,
            shards,
        ))
    }

    /// Folds the request's knobs into [`CorpusOptions`].
    fn corpus_options(&self, request: &CorpusRequest) -> CorpusOptions {
        CorpusOptions::new(request.constraints)
            .with_driver(request.options)
            .with_exploration_budget(request.config.exploration_budget)
            .with_dedup(request.dedup)
            .with_templates(request.templates.map(TemplateBudget::new))
    }
}

/// The checks every corpus request passes before any source resolves: at least
/// one program, in-domain constraints and, when set, a positive finite template
/// area budget.
pub(crate) fn validate_corpus(request: &CorpusRequest) -> Result<(), IseError> {
    if request.programs.is_empty() {
        return Err(IseError::InvalidRequest(
            "a corpus needs at least one program".to_string(),
        ));
    }
    request.constraints.validate()?;
    if let Some(area) = request.templates {
        if !area.is_finite() || area <= 0.0 {
            return Err(IseError::InvalidRequest(format!(
                "templates must be a finite, positive area budget, got {area}"
            )));
        }
    }
    Ok(())
}

/// Per-program speed-up comparison between the exact single-cut search and the
/// two bundled heuristic baselines.
///
/// Kept out of [`CorpusStats`] on purpose: that struct is exact-integer telemetry
/// (`Eq`), while speed-ups are floating point. Baselines are diagnostics — they
/// are reported out of band (the CLI prints them on stderr under `--stats`) and
/// never become part of the deterministic corpus payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BaselineRow {
    /// Name of the analysed program.
    pub program: String,
    /// Whole-application speed-up of the exact single-cut selection.
    pub single_cut: f64,
    /// Whole-application speed-up of the MaxMISO baseline (Alippi et al.).
    pub maxmiso: f64,
    /// Whole-application speed-up of the Clubbing baseline (Baleani et al.).
    pub clubbing: f64,
}

/// The baseline comparison for one corpus: one [`BaselineRow`] per program plus
/// geometric-mean speed-ups across the corpus.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CorpusBaselines {
    /// One row per program, in request order.
    pub rows: Vec<BaselineRow>,
    /// Geometric mean of the single-cut speed-ups.
    pub geomean_single_cut: f64,
    /// Geometric mean of the MaxMISO speed-ups.
    pub geomean_maxmiso: f64,
    /// Geometric mean of the Clubbing speed-ups.
    pub geomean_clubbing: f64,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0f64, 0usize), |(s, n), v| {
        (s + v.max(1e-300).ln(), n + 1)
    });
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

impl BatchService {
    /// Runs the MaxMISO and Clubbing baselines next to the exact single-cut search
    /// on every program of a corpus request and tabulates the speed-ups.
    ///
    /// Shares the corpus request's constraints, exploration budget and driver
    /// options, so each row compares like for like. The three per-program jobs are
    /// fanned out through [`BatchService::run`].
    ///
    /// # Errors
    ///
    /// Propagates the first program-source resolution or execution failure.
    pub fn corpus_baselines(&self, request: &CorpusRequest) -> Result<CorpusBaselines, IseError> {
        use crate::Algorithm;
        const ALGORITHMS: [Algorithm; 3] = [
            Algorithm::SingleCut,
            Algorithm::MaxMiso,
            Algorithm::Clubbing,
        ];
        let jobs: Vec<IseRequest> = request
            .programs
            .iter()
            .flat_map(|source| {
                ALGORITHMS.map(|algorithm| {
                    IseRequest::new(algorithm, source.clone())
                        .with_constraints(request.constraints)
                        .with_config(request.config)
                        .with_options(request.options)
                })
            })
            .collect();
        let outcomes = self.run(&jobs);
        let mut rows = Vec::with_capacity(request.programs.len());
        for (source, chunk) in request.programs.iter().zip(outcomes.chunks(3)) {
            let mut speedups = [0.0f64; 3];
            for (slot, outcome) in speedups.iter_mut().zip(chunk) {
                match outcome {
                    Ok(response) => *slot = response.report.speedup,
                    Err(e) => return Err(e.clone()),
                }
            }
            rows.push(BaselineRow {
                program: source.name().to_string(),
                single_cut: speedups[0],
                maxmiso: speedups[1],
                clubbing: speedups[2],
            });
        }
        Ok(CorpusBaselines {
            geomean_single_cut: geomean(rows.iter().map(|r| r.single_cut)),
            geomean_maxmiso: geomean(rows.iter().map(|r| r.maxmiso)),
            geomean_clubbing: geomean(rows.iter().map(|r| r.clubbing)),
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ProgramSource;
    use crate::Algorithm;

    fn sample_requests() -> Vec<IseRequest> {
        let mut requests = Vec::new();
        for workload in ["adpcmdecode", "gsm"] {
            for algorithm in [Algorithm::SingleCut, Algorithm::MaxMiso] {
                requests.push(IseRequest::new(
                    algorithm,
                    ProgramSource::Workload(workload.into()),
                ));
            }
        }
        // One failing request in the middle of the batch.
        requests.insert(
            2,
            IseRequest::named("no-such", ProgramSource::Workload("gsm".into())),
        );
        requests
    }

    #[test]
    fn batches_are_ordered_and_error_isolating() {
        let requests = sample_requests();
        let outcomes = BatchService::new().run(&requests);
        assert_eq!(outcomes.len(), requests.len());
        assert!(outcomes[2].is_err(), "the bad request fails in place");
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                continue;
            }
            let response = outcome.as_ref().expect("good requests succeed");
            assert_eq!(response.program, requests[i].program.name());
            assert_eq!(response.algorithm, requests[i].algorithm);
        }
    }

    #[test]
    fn cached_and_streaming_corpus_runs_match_the_batch_run() {
        let request = CorpusRequest::new(vec![
            ProgramSource::Workload("adpcmdecode".into()),
            ProgramSource::Workload("gsm".into()),
            ProgramSource::Workload("adpcmdecode".into()),
        ]);
        let service = BatchService::new();
        let (batch, _, _) = service.run_corpus(&request).expect("valid corpus");
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
        let (cold, _, _) = service
            .run_corpus_cached(&request, &cache)
            .expect("valid corpus");
        let (warm, warm_stats, _) = service
            .run_corpus_cached(&request, &cache)
            .expect("valid corpus");
        assert_eq!(crate::to_json(&batch), crate::to_json(&cold));
        assert_eq!(crate::to_json(&batch), crate::to_json(&warm));
        assert_eq!(
            warm_stats.pool_fills, 0,
            "the second run answers every block from the warm cache"
        );
        for max_in_flight in [1, 2, 8] {
            let (streamed, _, _) = service
                .run_corpus_streaming(&request, max_in_flight)
                .expect("valid corpus");
            assert_eq!(
                crate::to_json(&batch),
                crate::to_json(&streamed),
                "max_in_flight {max_in_flight}"
            );
        }
    }

    /// An output-port limit far beyond any block's size is a valid request: the fills
    /// size their tables by the block, not by `Nout`, and the deduplicated run stays
    /// byte-identical to the dedup-off reference.
    #[test]
    fn huge_output_port_corpus_matches_the_dedup_off_run() {
        let request = CorpusRequest::new(vec![
            ProgramSource::Workload("gsm".into()),
            ProgramSource::Workload("adpcmencode".into()),
            ProgramSource::Workload("gsm".into()),
        ])
        .with_constraints(ise_core::Constraints::new(4, 100_000))
        .with_config(ise_core::IdentifierConfig::default().with_exploration_budget(Some(200_000)));
        let service = BatchService::new();
        let (deduped, _, _) = service.run_corpus(&request).expect("valid corpus");
        let (reference, _, _) = service
            .run_corpus(&request.clone().with_dedup(false))
            .expect("valid corpus");
        assert_eq!(crate::to_json(&deduped), crate::to_json(&reference));
    }

    /// Two functions in one `.ll` module; the corpus paths must analyse them as
    /// two programs, exactly as if each had been lowered from its own file.
    const PAIR_LL: &str = r#"
define i32 @mac3(i32 %a, i32 %b, i32 %c) {
entry:
  %mul = mul i32 %a, %b
  %add = add i32 %mul, %c
  %shl = shl i32 %add, 2
  %sum = add i32 %shl, %mul
  ret i32 %sum
}

define i32 @mixbits(i32 %x, i32 %y) {
entry:
  %xor = xor i32 %x, %y
  %shr = lshr i32 %xor, 3
  %and = and i32 %shr, 151
  %or = or i32 %and, %x
  %not = xor i32 %or, -1
  ret i32 %not
}
"#;

    #[test]
    fn multi_function_ll_slices_match_functions_lowered_alone() {
        let split = PAIR_LL.find("define i32 @mixbits").expect("two defines");
        let merged = CorpusRequest::new(vec![ProgramSource::LlvmIr {
            name: "pair".into(),
            text: PAIR_LL.into(),
        }]);
        let service = BatchService::new();
        let (sliced, _, _) = service.run_corpus(&merged).expect("valid corpus");
        assert_eq!(
            sliced.programs.len(),
            2,
            "one outcome per function, not one merged program"
        );
        assert_eq!(sliced.programs[0].program, "pair.mac3");
        assert_eq!(sliced.programs[1].program, "pair.mixbits");
        let alone = CorpusRequest::new(vec![
            ProgramSource::LlvmIr {
                name: "pair.mac3".into(),
                text: PAIR_LL[..split].to_string(),
            },
            ProgramSource::LlvmIr {
                name: "pair.mixbits".into(),
                text: PAIR_LL[split..].to_string(),
            },
        ]);
        let (separate, _, _) = service.run_corpus(&alone).expect("valid corpus");
        assert_eq!(
            crate::to_json(&sliced),
            crate::to_json(&separate),
            "per-function selections are byte-identical to lowering each function alone"
        );
        let (streamed, _, _) = service
            .run_corpus_streaming(&merged, 1)
            .expect("valid corpus");
        assert_eq!(crate::to_json(&sliced), crate::to_json(&streamed));
    }

    #[test]
    fn template_budget_reports_without_changing_selections() {
        let request = CorpusRequest::new(vec![
            ProgramSource::Workload("adpcmdecode".into()),
            ProgramSource::Workload("adpcmdecode".into()),
        ]);
        let service = BatchService::new();
        let (plain, plain_stats, _) = service.run_corpus(&request).expect("valid corpus");
        assert!(plain.templates.is_none());

        let budgeted = request.clone().with_templates(Some(1.0e9));
        let (with, stats, _) = service.run_corpus(&budgeted).expect("valid corpus");
        let report = with.templates.as_ref().expect("report present");
        assert!(report.speedup >= 1.0);
        assert_eq!(
            with.programs, plain.programs,
            "template reporting is additive; per-program selections are untouched"
        );
        assert_eq!(stats, plain_stats);

        let text = crate::to_json(&with);
        let back: CorpusResponse = crate::from_json(&text).expect("round trip");
        assert_eq!(back, with);

        let err = service.run_corpus_streaming(&budgeted, 2).unwrap_err();
        assert!(matches!(&err, IseError::InvalidRequest(m) if m.contains("streaming")));
    }
}
