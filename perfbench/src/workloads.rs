//! The four workloads: set-up, independent references, the timed closed loop
//! and the traced run.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ise_api::{
    json, BatchService, CorpusProgramOutcome, CorpusRequest, CorpusResponse, ProgramSource,
    ServeConfig, ServeService, Server, Session, SessionBuilder, SweepRequest, SNAPSHOT_FILE,
};
use ise_core::{
    extract_templates, identify_single_cut, identify_single_cut_reference, select_templates,
    select_templates_exhaustive, TemplateBudget, WarmCacheConfig, WarmPoolCache,
};
use ise_hw::DefaultCostModel;
use ise_ir::Program;
use serde::Value;

use crate::env;
use crate::inputs::{self, SearchOp, ServeLine, ServePayload, Size};
use crate::pipeline::{self, Kind};
use crate::stats::{geomean, median, LatencySample};
use crate::trace::{Ctx, Ledger, Recorder, OP, ROOT};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["corpus-cold", "serve-warm", "search-exact", "templates"];

/// What one run of a workload reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Environment stamp and per-run detail, printed before the result line.
    pub detail: Vec<(String, Value)>,
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Runs one workload end to end.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "corpus-cold" => Ok(corpus_cold(args)),
        "templates" => Ok(templates(args)),
        "search-exact" => Ok(search_exact(args)),
        "serve-warm" => serve_warm(args),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// One distinct op of a one-shot workload: its request line and the bytes
/// the independent reference produced for it.
struct Op {
    kind: Kind,
    line: String,
    reference: String,
    size: Size,
}

/// The outcome of one timed (or traced) closed-loop phase.
#[derive(Default)]
struct Phase {
    sample: LatencySample,
    cpu_ms: f64,
    /// Completion time of every op, seconds since the phase started.
    done_at: Vec<f64>,
    /// Ops per throughput window (see [`Phase::ops_per_s`]).
    window: usize,
    /// The first response to each distinct input, for the quality figure.
    firsts: Vec<Option<String>>,
}

impl Phase {
    /// Median throughput over consecutive windows of `window` completed ops.
    /// A median over windows keeps a host stall during one window (the
    /// benchmark shares its machine) from moving the whole figure.
    fn ops_per_s(&self) -> f64 {
        let mut done = self.done_at.clone();
        done.sort_by(f64::total_cmp);
        let mut rates = Vec::new();
        let mut previous = 0.0;
        for end in done
            .chunks_exact(self.window.max(1))
            .map(|w| w[w.len() - 1])
        {
            rates.push(self.window as f64 / (end - previous));
            previous = end;
        }
        match done.last() {
            // A phase too short for one whole window: its plain rate.
            Some(&last) if rates.is_empty() => done.len() as f64 / last,
            _ => median(&rates),
        }
    }
}

/// Closed loop, one client: runs `ops` in order, pass after pass, until
/// `seconds` have passed at a pass boundary. Whole passes keep the op mix
/// exact whatever the speed; one pass is one throughput window. `at_pass`
/// runs before every pass, outside any op's time.
fn closed_loop(
    ops: &[Op],
    seconds: f64,
    mut at_pass: impl FnMut(),
    mut execute: impl FnMut(u64, &Op) -> Result<String, ise_api::IseError>,
) -> Phase {
    let mut phase = Phase {
        window: ops.len(),
        firsts: vec![None; ops.len()],
        ..Phase::default()
    };
    let cpu = env::process_cpu_ms();
    let start = Instant::now();
    let mut i = 0usize;
    while !i.is_multiple_of(ops.len()) || start.elapsed().as_secs_f64() < seconds {
        if i.is_multiple_of(ops.len()) {
            at_pass();
        }
        let op = &ops[i % ops.len()];
        let t0 = Instant::now();
        let result = execute(i as u64 + 1, op);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        phase.done_at.push(start.elapsed().as_secs_f64());
        let ok = matches!(&result, Ok(text) if *text == op.reference);
        phase.sample.record(ms, ok);
        if phase.firsts[i % ops.len()].is_none() {
            phase.firsts[i % ops.len()] = result.ok();
        }
        i += 1;
    }
    phase.cpu_ms = env::process_cpu_ms() - cpu;
    phase
}

/// Seconds one call of `setup` takes.
fn time_once(setup: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    setup();
    t0.elapsed().as_secs_f64()
}

/// The one-shot paths' program-side set-up: the identifier registry, a
/// session and the batch service.
fn one_shot_setup() {
    let registry = ise_baselines::full_registry();
    std::hint::black_box(registry.names());
    let session = SessionBuilder::new()
        .constraints(inputs::constraints())
        .max_instructions(inputs::MAX_INSTRUCTIONS)
        .build()
        .expect("the benchmark's session configuration is valid");
    std::hint::black_box(session);
    std::hint::black_box(BatchService::new());
}

/// Collects every speed-up report in a response, keyed by program: per
/// program, per sweep pair and the template report.
fn speedups(value: &Value, program: &str, out: &mut BTreeSet<(String, u64)>) {
    match value {
        Value::Object(fields) => {
            let program = value
                .get("program")
                .and_then(Value::as_str)
                .unwrap_or(program);
            for (key, field) in fields {
                let speedup = match field.get("speedup") {
                    Some(Value::Float(s)) => Some(*s),
                    _ => None,
                };
                match (key.as_str(), speedup) {
                    ("report", Some(s)) => {
                        out.insert((program.to_string(), s.to_bits()));
                    }
                    ("templates", Some(s)) => {
                        out.insert(("templates".to_string(), s.to_bits()));
                    }
                    _ => speedups(field, program, out),
                }
            }
        }
        Value::Array(items) => items.iter().for_each(|item| speedups(item, program, out)),
        _ => {}
    }
}

/// Geometric mean of the distinct `(program, speed-up)` pairs in the
/// responses, so a program repeated across requests counts once whatever the
/// seed's mix.
fn speedup_geomean(responses: &[Option<String>]) -> f64 {
    let mut distinct = BTreeSet::new();
    for text in responses.iter().flatten() {
        if let Ok(value) = json::parse(text) {
            speedups(&value, "", &mut distinct);
        }
    }
    let all: Vec<f64> = distinct
        .iter()
        .map(|&(_, bits)| f64::from_bits(bits))
        .collect();
    geomean(&all)
}

fn mean_size(sizes: impl Iterator<Item = Size>) -> (f64, f64, f64) {
    let (mut programs, mut blocks, mut bytes, mut n) = (0.0, 0.0, 0.0, 0.0);
    for size in sizes {
        programs += size.programs as f64;
        blocks += size.blocks as f64;
        bytes += size.bytes as f64;
        n += 1.0;
    }
    (programs / n, blocks / n, bytes / n)
}

fn float(value: f64) -> Value {
    Value::Float(value)
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(
    phase: &Phase,
    setup_s: f64,
    speedup: f64,
    detail: &mut Vec<(String, Value)>,
) -> Vec<(&'static str, f64, &'static str)> {
    let attempted = phase.sample.attempted() as f64;
    let tail = phase.sample.tail();
    let tail_ms = tail.map_or(f64::NAN, |t| t.ms);
    detail.push((
        "latency_tail".to_string(),
        Value::Object(vec![
            (
                "percentile".to_string(),
                float(tail.map_or(f64::NAN, |t| t.percentile)),
            ),
            (
                "samples_beyond".to_string(),
                Value::Uint(tail.map_or(0, |t| t.beyond as u64)),
            ),
            ("samples".to_string(), Value::Uint(attempted as u64)),
        ]),
    ));
    vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", phase.ops_per_s(), "1/s"),
        (
            "latency_p50_ms",
            phase.sample.percentile(50.0).unwrap_or(f64::NAN),
            "ms",
        ),
        ("latency_tail_ms", tail_ms, "ms"),
        ("cpu_ms_per_op", phase.cpu_ms / attempted, "ms"),
        ("peak_rss_mb", env::peak_rss_mb(), "MB"),
        (
            "ok_frac",
            1.0 - phase.sample.failed() as f64 / attempted,
            "ratio",
        ),
        ("speedup_geomean", speedup, "x"),
    ]
}

/// Extra per-layer inputs that only some workloads have.
#[derive(Default)]
struct LayerExtras {
    /// Client round trips minus handle time (serve-warm), total ms.
    transport_ms: f64,
    busy_rejections: f64,
    snapshot_load_ms: f64,
    snapshot_save_ms: f64,
    /// Bytes of the process-lifetime cache at the end (serve-warm); the
    /// one-shot workloads report their per-op caches' mean instead.
    warm_bytes: Option<f64>,
    /// Distinct inputs the side probes ran on.
    probed: f64,
}

/// Every per-layer metric, from the traced phase's ledger and counters.
fn layer_metrics(
    rec: &Recorder,
    ledger: &Ledger,
    untraced: &Phase,
    traced: &Phase,
    extras: &LayerExtras,
) -> Vec<(&'static str, f64, &'static str)> {
    let per_op = |counter: &str| ledger.per_op(rec.counter(counter));
    let per_probe = |name: &str| {
        if extras.probed > 0.0 {
            ledger.inclusive_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / extras.probed
        } else {
            0.0
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let frontend_s = ledger.total_s("frontend.parse") + ledger.total_s("frontend.lower");
    let kernel_s = ledger.total_s("kernel.search");
    let hits = rec.counter("warm.hits");
    let misses = rec.counter("warm.misses");
    vec![
        ("api.decode_ms", ledger.ms_per_op("api.decode"), "ms"),
        ("api.encode_ms", ledger.ms_per_op("api.encode"), "ms"),
        ("api.request_bytes", per_op("api.request_bytes"), "bytes"),
        ("api.response_bytes", per_op("api.response_bytes"), "bytes"),
        (
            "serve.handle_ms.run",
            ledger.ms_per_span("serve.handle.run"),
            "ms",
        ),
        (
            "serve.handle_ms.sweep",
            ledger.ms_per_span("serve.handle.sweep"),
            "ms",
        ),
        (
            "serve.handle_ms.corpus",
            ledger.ms_per_span("serve.handle.corpus"),
            "ms",
        ),
        (
            "serve.transport_ms",
            ledger.per_op(extras.transport_ms),
            "ms",
        ),
        (
            "serve.busy_rejections",
            ratio(extras.busy_rejections, untraced.sample.attempted() as f64),
            "count",
        ),
        (
            "frontend.parse_ms",
            ledger.ms_per_op("frontend.parse"),
            "ms",
        ),
        (
            "frontend.lower_ms",
            ledger.ms_per_op("frontend.lower"),
            "ms",
        ),
        ("frontend.lines", per_op("frontend.lines"), "count"),
        (
            "frontend.lines_per_s",
            ratio(rec.counter("frontend.lines"), frontend_s),
            "1/s",
        ),
        ("ir.validate_ms", ledger.ms_per_op("ir.validate"), "ms"),
        ("passes.ms", ledger.ms_per_op("passes.run"), "ms"),
        (
            "passes.nodes_removed",
            per_op("passes.nodes_removed"),
            "count",
        ),
        ("structural.canon_ms", per_probe("structural.canon"), "ms"),
        ("structural.blocks", per_op("structural.blocks"), "count"),
        (
            "structural.unique_keys",
            per_op("structural.unique_keys"),
            "count",
        ),
        (
            "structural.key_collisions",
            per_op("structural.key_collisions"),
            "count",
        ),
        ("warm.hits", per_op("warm.hits"), "count"),
        ("warm.misses", per_op("warm.misses"), "count"),
        ("warm.fills", per_op("warm.fills"), "count"),
        ("warm.evictions", per_op("warm.evictions"), "count"),
        ("warm.hit_rate", ratio(hits, hits + misses), "ratio"),
        (
            "warm.bytes",
            extras.warm_bytes.unwrap_or_else(|| per_op("warm.bytes")),
            "bytes",
        ),
        ("warm.snapshot_load_ms", extras.snapshot_load_ms, "ms"),
        ("warm.snapshot_save_ms", extras.snapshot_save_ms, "ms"),
        ("corpus.select_ms", ledger.ms_per_op("corpus.run"), "ms"),
        ("corpus.pool_fills", per_op("corpus.pool_fills"), "count"),
        (
            "corpus.pool_answers",
            per_op("corpus.pool_answers"),
            "count",
        ),
        (
            "corpus.dedup_hit_rate",
            ratio(
                rec.counter("corpus.pool_answers"),
                rec.counter("corpus.logical_calls"),
            ),
            "ratio",
        ),
        (
            "corpus.logical_cuts",
            per_op("corpus.logical_cuts"),
            "count",
        ),
        (
            "corpus.physical_cuts",
            per_op("corpus.physical_cuts"),
            "count",
        ),
        ("sweep.ms", ledger.ms_per_op("sweep.run"), "ms"),
        ("sweep.pool_fills", per_op("sweep.pool_fills"), "count"),
        ("sweep.pool_answers", per_op("sweep.pool_answers"), "count"),
        ("sweep.fill_cuts", per_op("sweep.fill_cuts"), "count"),
        ("kernel.search_ms", ledger.ms_per_op("kernel.search"), "ms"),
        (
            "kernel.cuts_considered",
            per_op("kernel.cuts_considered"),
            "count",
        ),
        (
            "kernel.cuts_per_s",
            ratio(rec.counter("kernel.cuts_considered"), kernel_s),
            "1/s",
        ),
        (
            "kernel.feasible_ratio",
            ratio(
                rec.counter("kernel.feasible_cuts"),
                rec.counter("kernel.cuts_considered"),
            ),
            "ratio",
        ),
        (
            "kernel.pruned_output",
            per_op("kernel.pruned_output"),
            "count",
        ),
        (
            "kernel.pruned_convexity",
            per_op("kernel.pruned_convexity"),
            "count",
        ),
        (
            "kernel.pruned_bound",
            per_op("kernel.pruned_bound"),
            "count",
        ),
        (
            "kernel.bound_subtree_prunes",
            per_op("kernel.bound_subtree_prunes"),
            "count",
        ),
        ("pool.fill_ms", per_probe("pool.fill"), "ms"),
        ("pool.answer_ms", per_probe("pool.answer"), "ms"),
        ("selection.ms", ledger.self_ms_per_op("selection.run"), "ms"),
        (
            "templates.extract_ms",
            ledger.ms_per_op("templates.extract"),
            "ms",
        ),
        (
            "templates.select_ms",
            ledger.ms_per_op("templates.select"),
            "ms",
        ),
        (
            "templates.extracted",
            per_op("templates.extracted"),
            "count",
        ),
        ("templates.sites", per_op("templates.sites"), "count"),
        (
            "templates.select_nodes",
            per_op("templates.select_nodes"),
            "count",
        ),
        (
            "templates.budget_exhausted",
            per_op("templates.budget_exhausted"),
            "count",
        ),
        (
            "hwmodel.report_ms",
            ledger.ms_per_op("hwmodel.report"),
            "ms",
        ),
        ("trace.coverage", ledger.coverage(), "ratio"),
        (
            "trace.overhead",
            1.0 - ratio(traced.ops_per_s(), untraced.ops_per_s()),
            "ratio",
        ),
    ]
}

/// First op id of the side probes, which run after the traced phase: no root
/// span owns these ids, so probes count toward their layer but not toward
/// coverage.
const PROBE_BASE: u64 = 1 << 40;

/// Writes the spans where a later look can find them; the path is reported.
fn write_spans(rec: &Recorder, workload: &str) -> Value {
    let path = PathBuf::from(".perfbench-out").join(format!("spans-{workload}.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => Value::Str(path.display().to_string()),
        Err(error) => Value::Str(format!("not written: {error}")),
    }
}

/// Runs a one-shot workload: untraced, or half untraced and half traced.
fn one_shot(
    args: &Args,
    ops: &[Op],
    references_ok: bool,
    mut detail: Vec<(String, Value)>,
    probe: impl Fn(&Recorder, &Op, Ctx),
) -> Outcome {
    let (programs, blocks, bytes) = mean_size(ops.iter().map(|op| op.size));
    detail.push((
        "input_per_op".to_string(),
        Value::Object(vec![
            ("programs".to_string(), float(programs)),
            ("blocks".to_string(), float(blocks)),
            ("bytes".to_string(), float(bytes)),
        ]),
    ));
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // The one-shot set-up is a few microseconds: it is timed before every
    // pass of the untraced loop, so its median samples the whole run rather
    // than the moment before the first op.
    let mut setups = Vec::new();
    let untraced = closed_loop(
        ops,
        seconds,
        || setups.push(time_once(one_shot_setup)),
        |_, op| pipeline::plain(op.kind, &op.line),
    );
    let mut sample = untraced.sample.clone();
    let metrics = if args.trace {
        let rec = Recorder::new();
        let traced = closed_loop(
            ops,
            seconds,
            || {},
            |id, op| {
                let ctx = Ctx {
                    op: id,
                    parent: ROOT,
                };
                let result = rec.span(OP, ctx, |ctx| {
                    pipeline::traced(&rec, ctx, op.kind, &op.line)
                });
                rec.add("api.request_bytes", op.line.len() as f64);
                if let Ok(text) = &result {
                    rec.add("api.response_bytes", text.len() as f64);
                }
                result
            },
        );
        sample.extend(&traced.sample);
        for (k, op) in ops.iter().enumerate() {
            let ctx = Ctx {
                op: PROBE_BASE + k as u64,
                parent: ROOT,
            };
            probe(&rec, op, ctx);
        }
        let ledger = Ledger::from_spans(&rec.spans());
        let extras = LayerExtras {
            probed: ops.len() as f64,
            ..LayerExtras::default()
        };
        detail.push(("spans".to_string(), write_spans(&rec, &args.workload)));
        detail.push(trace_detail(&ledger));
        layer_metrics(&rec, &ledger, &untraced, &traced, &extras)
    } else {
        end_to_end(
            &untraced,
            median(&setups),
            speedup_geomean(&untraced.firsts),
            &mut detail,
        )
    };
    let mut failed = sample.failed();
    if !references_ok {
        failed = sample.attempted();
    }
    Outcome {
        correct: failed == 0,
        attempted: sample.attempted(),
        failed,
        metrics,
        detail,
    }
}

fn trace_detail(ledger: &Ledger) -> (String, Value) {
    let outside: Vec<Value> = ledger
        .outside
        .iter()
        .map(|name| Value::Str((*name).to_string()))
        .collect();
    let self_ms: Vec<(String, Value)> = ledger
        .self_ns
        .iter()
        .map(|(name, ns)| ((*name).to_string(), float(ledger.per_op(*ns as f64) / 1e6)))
        .collect();
    (
        "trace".to_string(),
        Value::Object(vec![
            ("ops".to_string(), Value::Uint(ledger.ops)),
            ("coverage".to_string(), float(ledger.coverage())),
            ("layers_outside_op_wall".to_string(), Value::Array(outside)),
            ("self_ms_per_op".to_string(), Value::Object(self_ms)),
        ]),
    )
}

/// Corpus lines executed on a fresh cache, checked against the dedup-off path.
fn corpus_ops(lines: Vec<(String, Size)>) -> Vec<Op> {
    lines
        .into_iter()
        .map(|(line, size)| {
            let request: CorpusRequest =
                ise_api::from_json(&line).expect("generated corpus lines parse");
            let reference = BatchService::new()
                .run_corpus(&request.with_dedup(false))
                .map(|(response, _, _)| json::to_string(&response))
                .unwrap_or_default();
            Op {
                kind: Kind::Corpus,
                line,
                reference,
                size,
            }
        })
        .collect()
}

fn probe_corpus(rec: &Recorder, op: &Op, ctx: Ctx) {
    let request: CorpusRequest =
        ise_api::from_json(&op.line).expect("generated corpus lines parse");
    let programs: Vec<Program> = request
        .programs
        .iter()
        .flat_map(|source| source.resolve_corpus().expect("generated sources resolve"))
        .collect();
    pipeline::probe_canon(rec, ctx, &programs);
}

/// Distinct orderings of the corpus per pass.
const CORPUS_LINES: usize = 4;

fn corpus_cold(args: &Args) -> Outcome {
    let ops = corpus_ops(inputs::corpus_lines(args.seed, CORPUS_LINES));
    one_shot(args, &ops, true, stamp(args), probe_corpus)
}

fn templates(args: &Args) -> Outcome {
    // The budget: a quarter of the area the per-block selections spend.
    let (plain, _) = inputs::templates_lines(args.seed, 1, None).remove(0);
    let request: CorpusRequest = ise_api::from_json(&plain).expect("generated lines parse");
    let (response, _, _) = BatchService::new()
        .run_corpus(&request)
        .expect("the generated corpus is valid");
    let area: f64 = response
        .programs
        .iter()
        .map(|outcome| outcome.selection.total_area())
        .sum::<f64>()
        / 4.0;
    let ops = corpus_ops(inputs::templates_lines(
        args.seed,
        TEMPLATE_LINES,
        Some(area),
    ));
    let oracle_ok = template_oracle_agrees(&request, area);
    let mut detail = stamp(args);
    detail.push(("template_budget_area".to_string(), float(area)));
    detail.push((
        "template_oracle_identical".to_string(),
        Value::Bool(oracle_ok),
    ));
    one_shot(args, &ops, oracle_ok, detail, probe_corpus)
}

/// Relabellings of the corpus per `templates` pass.
const TEMPLATE_LINES: usize = 3;

/// Templates an exhaustive oracle can still check.
const ORACLE_TEMPLATES: usize = 12;

/// The branch-and-bound selector against the brute-force oracle on the
/// density-leading head of the corpus's templates, at the workload's budget.
fn template_oracle_agrees(request: &CorpusRequest, area: f64) -> bool {
    let programs: Vec<Program> = request
        .programs
        .iter()
        .flat_map(|source| source.resolve_corpus().expect("generated sources resolve"))
        .collect();
    let all = extract_templates(
        &programs,
        &DefaultCostModel::new(),
        request.constraints,
        request.config.exploration_budget,
    );
    let head = &all[..all.len().min(ORACLE_TEMPLATES)];
    let budget = TemplateBudget::new(area);
    select_templates(head, budget).0 == select_templates_exhaustive(head, budget)
}

fn search_exact(args: &Args) -> Outcome {
    let model = DefaultCostModel::new();
    let mut references_ok = true;
    let mut ops = Vec::new();
    for op in inputs::search_ops(args.seed) {
        let (kind, line, reference, program) = match op {
            SearchOp::Run(request) => {
                // Reference: the fully sequential driver without block dedup.
                let mut direct = request.clone();
                direct.options = direct.options.sequential().with_block_dedup(false);
                let reference = Session::execute(&direct)
                    .map(|response| json::to_string(&response))
                    .unwrap_or_default();
                let program = request
                    .program
                    .resolve()
                    .expect("generated programs resolve");
                // Reference kernel on the smallest block.
                if let Some(block) = program.blocks().iter().min_by_key(|b| b.node_count()) {
                    let packed = identify_single_cut(block, request.constraints, &model);
                    let reference =
                        identify_single_cut_reference(block, request.constraints, &model);
                    references_ok &= packed.best.as_ref().map(|c| (&c.cut, c.evaluation.merit))
                        == reference
                            .best
                            .as_ref()
                            .map(|c| (&c.cut, c.evaluation.merit))
                        && packed.stats.cuts_considered == reference.stats.cuts_considered;
                }
                (Kind::Run, json::to_string(&request), reference, program)
            }
            SearchOp::Sweep(request) => {
                // Reference: the per-pair direct path without the cut pool.
                let mut direct = request.clone();
                direct.request.options = direct.request.options.with_cut_pool(false);
                let reference = Session::execute_sweep(&direct)
                    .map(|(response, _)| json::to_string(&response))
                    .unwrap_or_default();
                let program = request
                    .request
                    .program
                    .resolve()
                    .expect("generated programs resolve");
                (Kind::Sweep, json::to_string(&request), reference, program)
            }
        };
        let size = Size {
            programs: 1,
            blocks: program.block_count() as u64,
            bytes: line.len() as u64,
        };
        ops.push(Op {
            kind,
            line,
            reference,
            size,
        });
    }
    let mut detail = stamp(args);
    detail.push((
        "reference_kernel_identical".to_string(),
        Value::Bool(references_ok),
    ));
    one_shot(args, &ops, references_ok, detail, |rec, op, ctx| {
        if op.kind == Kind::Sweep {
            let request: SweepRequest =
                ise_api::from_json(&op.line).expect("generated lines parse");
            let program = request
                .request
                .program
                .resolve()
                .expect("generated programs resolve");
            pipeline::probe_pool(
                rec,
                ctx,
                &program,
                &request.sweep,
                request.request.config.exploration_budget,
            );
        }
    })
}

/// The workload half of the environment stamp.
fn stamp(args: &Args) -> Vec<(String, Value)> {
    let mut fields = env::machine_stamp();
    fields.push(("workload".to_string(), Value::Str(args.workload.clone())));
    fields.push(("seed".to_string(), Value::Uint(args.seed)));
    fields.push(("trace".to_string(), Value::Bool(args.trace)));
    fields.push(("seconds".to_string(), float(args.seconds)));
    fields
}

// ---------------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------------

/// Request lines per connection; the list repeats if a run outlasts it.
const SERVE_LINES: usize = 1500;

/// Completed requests per throughput window, across all connections.
const SERVE_WINDOW: usize = 20;

/// Corpus lines the serve-warm canonicalisation probe runs on.
const SERVE_PROBES: usize = 40;

/// Set-ups per run; the median is reported and the last one serves the load.
const SERVE_SETUPS: usize = 3;

/// The expected response line of each serve line, from the one-shot paths on a
/// fresh cache (`None`: a `stats` line, checked by shape).
struct ServeReferences {
    known: Vec<Vec<CorpusProgramOutcome>>,
    memo: HashMap<String, String>,
}

impl ServeReferences {
    fn new(known: &[ProgramSource]) -> ServeReferences {
        let known = known
            .iter()
            .map(|source| {
                let (response, _, _) = BatchService::new()
                    .run_corpus(&inputs::corpus_request(vec![source.clone()]))
                    .expect("known sources are valid");
                response.programs
            })
            .collect();
        ServeReferences {
            known,
            memo: HashMap::new(),
        }
    }

    fn expected(&mut self, line: &ServeLine) -> Option<String> {
        let id = Value::Uint(line.id);
        let response = match &line.payload {
            ServePayload::Stats => return None,
            ServePayload::Run(request) => self.memoised(json::to_string(request), || {
                json::to_string(&Session::execute(request).expect("valid run request"))
            }),
            ServePayload::Sweep(request) => self.memoised(json::to_string(request), || {
                json::to_string(&Session::execute_sweep(request).expect("valid sweep").0)
            }),
            ServePayload::Corpus(picks, fresh) => {
                let mut programs: Vec<CorpusProgramOutcome> =
                    picks.iter().flat_map(|&k| self.known[k].clone()).collect();
                if let Some(program) = fresh {
                    let request =
                        inputs::corpus_request(vec![ProgramSource::Inline(program.clone())]);
                    let (response, _, _) = BatchService::new()
                        .run_corpus(&request)
                        .expect("valid corpus");
                    programs.extend(response.programs);
                }
                json::to_string(&CorpusResponse {
                    constraints: inputs::constraints(),
                    programs,
                    templates: None,
                })
            }
        };
        let value = json::parse(&response).expect("references are valid JSON");
        Some(pipeline::envelope(&id, value))
    }

    fn memoised(&mut self, key: String, compute: impl FnOnce() -> String) -> String {
        self.memo.entry(key).or_insert_with(compute).clone()
    }
}

/// Whether a served line is correct: byte-identical to its reference, or for
/// `stats`, a response carrying the cache counters.
fn served_ok(expected: &Option<String>, got: &str) -> bool {
    match expected {
        Some(expected) => got == expected,
        None => got.contains("\"response\"") && got.contains("\"hits\""),
    }
}

/// One client connection's closed loop over its lines. Returns the phase and
/// busy rejections; `trace` records one root span per op.
fn client_loop(
    addr: std::net::SocketAddr,
    conn: usize,
    lines: &[ServeLine],
    expected: &[Option<String>],
    seconds: f64,
    start: Instant,
    trace: Option<&Recorder>,
) -> (Phase, u64) {
    let mut phase = Phase {
        firsts: vec![None; lines.len()],
        ..Phase::default()
    };
    let mut busy = 0u64;
    let Ok(stream) = TcpStream::connect(addr) else {
        phase.sample.record(0.0, false);
        return (phase, busy);
    };
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("socket clones");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let k = i % lines.len();
        let line = &lines[k];
        let op = (conn as u64) << 32 | i as u64;
        let span = trace.map(|rec| (rec.reserve(), rec.now()));
        let t0 = Instant::now();
        response.clear();
        let sent = writer
            .write_all(line.text.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .is_ok();
        let received = sent && reader.read_line(&mut response).is_ok_and(|n| n > 0);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(rec), Some((id, begin))) = (trace, span) {
            rec.record(OP, Ctx { op, parent: ROOT }, id, begin, rec.now());
            rec.add("api.request_bytes", line.text.len() as f64 + 1.0);
            rec.add("api.response_bytes", response.len() as f64);
        }
        phase.done_at.push(start.elapsed().as_secs_f64());
        let got = response.trim_end();
        if got.contains("server busy") {
            busy += 1;
        }
        phase
            .sample
            .record(ms, received && served_ok(&expected[k], got));
        if phase.firsts[k].is_none() && line.kind != "stats" {
            phase.firsts[k] = Some(got.to_string());
        }
        i += 1;
        if !received {
            break;
        }
    }
    (phase, busy)
}

/// Runs every connection's closed loop against `addr` and merges them.
fn serve_load(
    addr: std::net::SocketAddr,
    lines: &[Vec<ServeLine>],
    expected: &[Vec<Option<String>>],
    seconds: f64,
    trace: Option<&Recorder>,
) -> (Phase, u64) {
    let cpu = env::process_cpu_ms();
    let start = Instant::now();
    let results: Vec<(Phase, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lines.len())
            .map(|conn| {
                scope.spawn(move || {
                    client_loop(
                        addr,
                        conn,
                        &lines[conn],
                        &expected[conn],
                        seconds,
                        start,
                        trace,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Phase {
        window: SERVE_WINDOW,
        ..Phase::default()
    };
    let mut busy = 0;
    for (phase, rejected) in results {
        merged.sample.extend(&phase.sample);
        merged.done_at.extend(phase.done_at);
        merged.firsts.extend(phase.firsts);
        busy += rejected;
    }
    merged.cpu_ms = env::process_cpu_ms() - cpu;
    (merged, busy)
}

/// A running `ise_api::Server` on a background thread.
struct Running {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}

/// Serve-warm set-up: bind (which warm-starts the cache from the snapshot),
/// start the server, and prime every connection with one request.
fn start_server(config: &ServeConfig, conns: usize) -> Result<Running, String> {
    let server = Server::bind("127.0.0.1:0", config.clone()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if server.service().warm_loaded().is_none() {
        return Err("the server did not warm-start from the snapshot".to_string());
    }
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || server.run(&flag));
    let running = Running { addr, stop, thread };
    for conn in 0..conns {
        let primed = TcpStream::connect(addr).and_then(|stream| {
            let mut writer = stream.try_clone()?;
            writeln!(writer, "{{\"id\":\"prime-{conn}\",\"kind\":\"stats\"}}")?;
            let mut response = String::new();
            BufReader::new(stream).read_line(&mut response)?;
            Ok(response)
        });
        if !primed.is_ok_and(|r| r.contains("\"hits\"")) {
            running.stop();
            return Err("priming request failed".to_string());
        }
    }
    Ok(running)
}

fn serve_warm(args: &Args) -> Result<Outcome, String> {
    let conns = env::nproc();
    let known = inputs::serve_known(args.seed);
    let lines: Vec<Vec<ServeLine>> = (0..conns)
        .map(|conn| inputs::serve_lines(args.seed, conn, SERVE_LINES, &known))
        .collect();
    let mut references = ServeReferences::new(&known);
    let expected: Vec<Vec<Option<String>>> = lines
        .iter()
        .map(|list| list.iter().map(|line| references.expected(line)).collect())
        .collect();

    // Untimed pre-phase: fill every known shape once and write the snapshot
    // into `pristine`. Each server starts from a copy in `serving`, since a
    // server writes its grown cache back at shutdown.
    let dir = PathBuf::from(".perfbench-tmp").join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pristine = dir.join("pristine");
    let config = ServeConfig {
        workers: conns,
        cache_dir: Some(dir.join("serving")),
        ..ServeConfig::default()
    };
    let all: Vec<usize> = (0..known.len()).collect();
    let seeded = ServeService::new(&ServeConfig {
        cache_dir: Some(pristine.clone()),
        ..config.clone()
    });
    let everything = json::to_string(&Value::Object(vec![
        ("id".to_string(), Value::Uint(0)),
        ("kind".to_string(), Value::Str("corpus".to_string())),
        (
            "request".to_string(),
            json::to_value(&inputs::corpus_request(inputs::corpus_sources(
                &all, &None, &known,
            ))),
        ),
    ]));
    let mut pre_ok = seeded.handle(&everything).contains("\"response\"");
    let t0 = Instant::now();
    pre_ok &= seeded.save_snapshot().is_ok_and(|saved| saved.is_some());
    let snapshot_save_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(seeded);

    let result = serve_phases(
        args,
        &config,
        &pristine.join(SNAPSHOT_FILE),
        &known,
        &lines,
        &expected,
        snapshot_save_ms,
    );
    let _ = std::fs::remove_dir_all(&dir);
    // Removed only when empty: another run may be using it.
    let _ = std::fs::remove_dir(".perfbench-tmp");
    let mut outcome = result?;
    if !pre_ok {
        outcome.failed = outcome.attempted;
        outcome.correct = false;
    }
    Ok(outcome)
}

fn serve_phases(
    args: &Args,
    config: &ServeConfig,
    snapshot: &Path,
    known: &[ProgramSource],
    lines: &[Vec<ServeLine>],
    expected: &[Vec<Option<String>>],
    snapshot_save_ms: f64,
) -> Result<Outcome, String> {
    let conns = lines.len();
    let mut setups = Vec::with_capacity(SERVE_SETUPS);
    let mut running = None;
    for _ in 0..SERVE_SETUPS {
        if let Some(previous) = running.take() {
            Running::stop(previous);
        }
        let serving = config
            .cache_dir
            .as_deref()
            .expect("serve-warm persists its cache");
        std::fs::create_dir_all(serving)
            .and_then(|()| std::fs::copy(snapshot, serving.join(SNAPSHOT_FILE)))
            .map_err(|e| format!("cannot stage the snapshot: {e}"))?;
        let t0 = Instant::now();
        running = Some(start_server(config, conns)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let running = running.expect("at least one set-up ran");
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, busy) = serve_load(running.addr, lines, expected, seconds, None);
    running.stop();

    let mut detail = stamp(args);
    let (programs, blocks, bytes) = mean_size(lines.iter().flatten().map(|line| line.size));
    detail.push((
        "input_per_op".to_string(),
        Value::Object(vec![
            ("programs".to_string(), float(programs)),
            ("blocks".to_string(), float(blocks)),
            ("bytes".to_string(), float(bytes)),
        ]),
    ));
    let corpus_lines = lines
        .iter()
        .flatten()
        .filter(|l| l.kind == "corpus")
        .count();
    let novel_lines = lines.iter().flatten().filter(|l| l.novel).count();
    detail.push((
        "never_seen_share_of_corpus_lines".to_string(),
        float(novel_lines as f64 / corpus_lines as f64),
    ));
    detail.push(("connections".to_string(), Value::Uint(conns as u64)));
    detail.push((
        "setup_samples_s".to_string(),
        Value::Array(setups.iter().map(|&s| float(s)).collect()),
    ));
    detail.push(("busy_rejections".to_string(), Value::Uint(busy)));

    let mut sample = untraced.sample.clone();
    let metrics = if args.trace {
        let rec = Recorder::new();
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig {
            segments: config.segments,
            byte_budget: config.cache_bytes,
            ..WarmCacheConfig::default()
        }));
        let t0 = Instant::now();
        let loaded = cache.load_snapshot(snapshot);
        let snapshot_load_ms = t0.elapsed().as_secs_f64() * 1e3;
        if loaded.is_none() {
            return Err("the traced front could not load the snapshot".to_string());
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        // The benchmark's traced front: one thread per connection runs the
        // decomposed `ServeService::handle` on a cache warm-started from the
        // same snapshot; a connection ends when its client hangs up.
        let (traced, _) = std::thread::scope(|scope| {
            let (rec, cache, listener) = (&rec, &cache, &listener);
            scope.spawn(move || {
                std::thread::scope(|inner| {
                    for _ in 0..conns {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                inner.spawn(move || serve_connection(stream, rec, cache));
                            }
                            Err(_) => break,
                        }
                    }
                });
            });
            serve_load(addr, lines, expected, seconds, Some(rec))
        });
        sample.extend(&traced.sample);
        // Side probe: canonicalise the programs of connection 0's first
        // corpus lines, outside every op's wall time.
        let probed: Vec<&ServeLine> = lines[0]
            .iter()
            .filter(|line| line.kind == "corpus")
            .take(SERVE_PROBES)
            .collect();
        for (k, line) in probed.iter().enumerate() {
            if let ServePayload::Corpus(picks, fresh) = &line.payload {
                let programs: Vec<Program> = inputs::corpus_sources(picks, fresh, known)
                    .iter()
                    .flat_map(|source| source.resolve_corpus().expect("generated sources resolve"))
                    .collect();
                let ctx = Ctx {
                    op: PROBE_BASE + k as u64,
                    parent: ROOT,
                };
                pipeline::probe_canon(&rec, ctx, &programs);
            }
        }
        let ledger = Ledger::from_spans(&rec.spans());
        let handled_ns: u64 = ledger
            .inclusive_ns
            .iter()
            .filter(|(name, _)| name.starts_with("serve.handle."))
            .map(|(_, ns)| *ns)
            .sum();
        let extras = LayerExtras {
            transport_ms: ledger.op_wall_ns.saturating_sub(handled_ns) as f64 / 1e6,
            snapshot_load_ms,
            snapshot_save_ms,
            busy_rejections: busy as f64,
            warm_bytes: Some(cache.stats().bytes_used as f64),
            probed: probed.len() as f64,
        };
        detail.push(("spans".to_string(), write_spans(&rec, &args.workload)));
        detail.push(trace_detail(&ledger));
        layer_metrics(&rec, &ledger, &untraced, &traced, &extras)
    } else {
        end_to_end(
            &untraced,
            median(&setups),
            speedup_geomean(&untraced.firsts),
            &mut detail,
        )
    };
    let failed = sample.failed();
    Ok(Outcome {
        correct: failed == 0,
        attempted: sample.attempted(),
        failed,
        metrics,
        detail,
    })
}

/// One connection of the traced serve front.
fn serve_connection(stream: TcpStream, rec: &Recorder, cache: &Arc<WarmPoolCache>) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut served = 0u64;
    let mut conn = None;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let text = line.trim_end();
        // The client numbers op `i` of connection `c` as `c << 32 | i`; the
        // connection index is the first line's id divided by 1_000_000.
        let c = *conn.get_or_insert_with(|| {
            json::parse(text)
                .ok()
                .and_then(|v| match v.get("id") {
                    Some(Value::Uint(id)) => Some(*id / 1_000_000),
                    Some(Value::Int(id)) => Some(*id as u64 / 1_000_000),
                    _ => None,
                })
                .unwrap_or(0)
        });
        let ctx = Ctx {
            op: c << 32 | served,
            parent: ROOT,
        };
        let (_, response) = pipeline::traced_serve(rec, ctx, text, cache);
        // Written exactly as the server's connection writer does (socket
        // options included), so the transport share is the server's.
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        served += 1;
    }
}
