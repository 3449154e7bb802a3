//! The corpus dedup gate: structural sharing versus reference per-program searches.
//!
//! The corpus driver ([`ise_core::run_corpus`]) promises that cross-program structural
//! deduplication is **byte-identical** to the per-program reference runs while
//! enumerating far fewer cuts on duplicate-heavy corpora. This experiment runs the
//! same corpus twice — once with dedup, once without — asserts selection-for-selection
//! identity (effort accounting included), and reports blocks seen, unique structural
//! keys, the dedup hit-rate, cuts/second and the wall-clock of both modes as the
//! machine-readable `BENCH_corpus.json`. The two modes alternate for [`REPEATS`]
//! passes, each wall-clock is the median over the passes, and every pass must be
//! identical. The `corpus_gate` binary exits non-zero when the modes diverge or the
//! enumeration reduction falls below 2x, making the exactness-and-payoff claim a CI
//! gate (like `sweep_gate`).
//!
//! The report's `api` row times the request layer on the same corpus sent as one
//! inline-program [`CorpusRequest`]: encoding it, the streaming decode
//! ([`ise_api::from_json`]) and the reference tree decode, and the gate also fails
//! when the two decodes disagree.

use std::time::Instant;

use ise_api::{CorpusRequest, ProgramSource};
use ise_core::{run_corpus, Constraints, CorpusOptions, CorpusStats, DriverOptions};
use ise_hw::DefaultCostModel;
use ise_ir::Program;
use ise_workloads::corpus::{duplicate_heavy, CorpusConfig};
use ise_workloads::suite;

/// Alternating dedup/direct passes per run; each mode reports its median wall-clock.
pub const REPEATS: usize = 5;

/// Configuration of the gate experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusBenchConfig {
    /// Shape of the duplicate-heavy synthetic corpus.
    pub corpus: CorpusConfig,
    /// Seed of the synthetic corpus.
    pub seed: u64,
    /// Also append the bundled MediaBench-like kernels to the corpus.
    pub include_kernels: bool,
    /// The constraint set shared by the whole corpus.
    pub constraints: Constraints,
    /// Per-program instruction budget (`Ninstr`).
    pub max_instructions: usize,
    /// Optional exploration budget forwarded to the exact search.
    pub exploration_budget: Option<u64>,
}

impl Default for CorpusBenchConfig {
    fn default() -> Self {
        CorpusBenchConfig {
            corpus: CorpusConfig {
                programs: 12,
                blocks_per_program: 6,
                templates: 3,
                template_nodes: 16,
                unique_per_program: 1,
            },
            seed: 0x5EED,
            include_kernels: true,
            constraints: Constraints::new(4, 2),
            max_instructions: 4,
            exploration_budget: Some(500_000),
        }
    }
}

impl CorpusBenchConfig {
    /// A reduced configuration for CI smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        CorpusBenchConfig {
            corpus: CorpusConfig {
                programs: 6,
                blocks_per_program: 4,
                templates: 2,
                template_nodes: 13,
                unique_per_program: 1,
            },
            include_kernels: false,
            ..CorpusBenchConfig::default()
        }
    }

    fn programs(&self) -> Vec<Program> {
        let mut programs = duplicate_heavy(&self.corpus, self.seed);
        if self.include_kernels {
            programs.extend(suite::mediabench_like());
        }
        programs
    }

    fn options(&self) -> CorpusOptions {
        CorpusOptions::new(self.constraints)
            .with_driver(DriverOptions::new(self.max_instructions))
            .with_exploration_budget(self.exploration_budget)
    }
}

/// The effort and wall-clock of one execution mode.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ModeReport {
    /// Wall-clock of the whole corpus run, milliseconds: the median over the passes.
    pub wall_ms: f64,
    /// Search-tree cut enumerations actually performed.
    pub cuts_enumerated: u64,
    /// Enumeration throughput (physical cuts per second of wall-clock).
    pub cuts_per_sec: f64,
}

impl ModeReport {
    fn new(wall_ms: f64, stats: &CorpusStats) -> Self {
        ModeReport {
            wall_ms,
            cuts_enumerated: stats.physical_cuts_considered,
            cuts_per_sec: if wall_ms > 0.0 {
                stats.physical_cuts_considered as f64 / (wall_ms / 1_000.0)
            } else {
                0.0
            },
        }
    }
}

/// The JSON cost of the corpus as one request, each time the median over
/// [`REPEATS`] passes.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ApiReport {
    /// Size of the compact request text, bytes.
    pub request_bytes: u64,
    /// `ise_api::from_json`: the streaming decode every entry point uses, ms.
    pub decode_ms: f64,
    /// `from_value(&parse(..))`: the reference tree decode, ms.
    pub decode_tree_ms: f64,
    /// `ise_api::to_json` of the request, ms.
    pub encode_ms: f64,
    /// Whether both decodes returned the encoded request in every pass.
    pub identical: bool,
}

/// Runs `f` and returns its result with its wall-clock in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1_000.0)
}

/// Times encoding and both decodes of `request`, alternating the decodes' order.
fn time_api(request: &CorpusRequest) -> ApiReport {
    let stream = |text: &str| timed(|| ise_api::from_json::<CorpusRequest>(text).ok());
    let tree = |text: &str| {
        timed(|| {
            serde::json::parse(text)
                .and_then(|value| serde::json::from_value::<CorpusRequest>(&value))
                .ok()
        })
    };
    let mut encode_ms = Vec::with_capacity(REPEATS);
    let mut decode_ms = Vec::with_capacity(REPEATS);
    let mut decode_tree_ms = Vec::with_capacity(REPEATS);
    let mut request_bytes = 0;
    let mut identical = true;
    for pass in 0..REPEATS {
        let (text, ms) = timed(|| ise_api::to_json(request));
        encode_ms.push(ms);
        let ((streamed, stream_ms), (reference, tree_ms)) = if pass % 2 == 0 {
            let streamed = stream(&text);
            (streamed, tree(&text))
        } else {
            let reference = tree(&text);
            (stream(&text), reference)
        };
        decode_ms.push(stream_ms);
        decode_tree_ms.push(tree_ms);
        identical &= streamed.as_ref() == Some(request) && reference.as_ref() == Some(request);
        request_bytes = text.len() as u64;
    }
    ApiReport {
        request_bytes,
        decode_ms: crate::median(&decode_ms),
        decode_tree_ms: crate::median(&decode_tree_ms),
        encode_ms: crate::median(&encode_ms),
        identical,
    }
}

/// The full gate result, as serialised into `BENCH_corpus.json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CorpusBenchReport {
    /// Logical CPUs of the machine the gate ran on.
    pub nproc: u64,
    /// The git revision the gate ran from.
    pub git_revision: String,
    /// Alternating passes of each mode measured (the gate's verdict is
    /// deterministic: identity and enumeration counts, never wall-clock).
    pub repeats: u64,
    /// Number of programs in the corpus.
    pub programs: u64,
    /// Total basic blocks across the corpus.
    pub blocks_seen: u64,
    /// Distinct `(structural key, exclusion state)` slots the deduplicator filled.
    pub unique_keys: u64,
    /// Fraction of logical identification calls answered from shared fills.
    pub dedup_hit_rate: f64,
    /// Diagnostic count of 64-bit hash collisions (byte comparison kept them apart).
    pub key_collisions: u64,
    /// Whether the deduplicated selections were byte-identical to the reference in
    /// every pass.
    pub identical: bool,
    /// `direct.cuts_enumerated / dedup.cuts_enumerated` (the gate requires >= 2).
    pub cuts_reduction: f64,
    /// Deduplicated execution.
    pub dedup: ModeReport,
    /// Reference (per-program) execution.
    pub direct: ModeReport,
    /// The corpus as one inline-program request through the API's JSON layer.
    pub api: ApiReport,
}

/// Runs the gate: both modes alternating for [`REPEATS`] passes, identity check,
/// effort accounting.
#[must_use]
pub fn run(config: &CorpusBenchConfig) -> CorpusBenchReport {
    let programs = config.programs();
    let model = DefaultCostModel::new();
    let options = config.options();
    let direct_options = options.with_dedup(false);
    let request = CorpusRequest::new(
        programs
            .iter()
            .cloned()
            .map(ProgramSource::Inline)
            .collect(),
    )
    .with_constraints(config.constraints);

    let run_mode = |options: &CorpusOptions| timed(|| run_corpus(&programs, &model, options));
    let mut dedup_ms = Vec::with_capacity(REPEATS);
    let mut direct_ms = Vec::with_capacity(REPEATS);
    let mut identical = true;
    let mut outcomes = None;
    for _ in 0..REPEATS {
        let (deduped, ms) = run_mode(&options);
        dedup_ms.push(ms);
        let (reference, ms) = run_mode(&direct_options);
        direct_ms.push(ms);
        identical &= serde::json::to_string(&deduped.selections)
            == serde::json::to_string(&reference.selections);
        outcomes = Some((deduped, reference));
    }
    let (deduped, reference) = outcomes.expect("REPEATS >= 1");
    // After the mode passes, so the decode timings cannot disturb their wall-clocks.
    let api = time_api(&request);
    let dedup = ModeReport::new(crate::median(&dedup_ms), &deduped.stats);
    let direct = ModeReport::new(crate::median(&direct_ms), &reference.stats);
    let cuts_reduction = if dedup.cuts_enumerated > 0 {
        direct.cuts_enumerated as f64 / dedup.cuts_enumerated as f64
    } else {
        f64::INFINITY
    };
    CorpusBenchReport {
        nproc: crate::nproc(),
        git_revision: crate::git_revision(),
        repeats: REPEATS as u64,
        programs: deduped.stats.programs,
        blocks_seen: deduped.stats.blocks_seen,
        unique_keys: deduped.stats.unique_keys,
        dedup_hit_rate: deduped.stats.dedup_hit_rate(),
        key_collisions: deduped.stats.key_collisions,
        identical,
        cuts_reduction,
        dedup,
        direct,
        api,
    }
}

/// Renders the report as the `BENCH_corpus.json` payload.
#[must_use]
pub fn to_json(report: &CorpusBenchReport) -> String {
    serde::json::to_string_pretty(report)
}

/// Renders the report as a small Markdown table.
#[must_use]
pub fn markdown(report: &CorpusBenchReport) -> String {
    format!(
        "| mode | wall ms (median of {}) | cuts enumerated | cuts/sec |\n\
         |---|---:|---:|---:|\n\
         | dedup | {:.1} | {} | {:.0} |\n\
         | direct | {:.1} | {} | {:.0} |\n\
         \n\
         {} blocks, {} unique shapes, hit-rate {:.1}%, identical: {}, \
         enumeration reduction: {:.2}x\n\
         \n\
         request JSON: {} bytes, encode {:.3} ms, decode {:.3} ms \
         (tree decode {:.3} ms), decodes identical: {}\n",
        report.repeats,
        report.dedup.wall_ms,
        report.dedup.cuts_enumerated,
        report.dedup.cuts_per_sec,
        report.direct.wall_ms,
        report.direct.cuts_enumerated,
        report.direct.cuts_per_sec,
        report.blocks_seen,
        report.unique_keys,
        100.0 * report.dedup_hit_rate,
        report.identical,
        report.cuts_reduction,
        report.api.request_bytes,
        report.api.encode_ms,
        report.api.decode_ms,
        report.api.decode_tree_ms,
        report.api.identical,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_reports_identity_and_reduction() {
        let report = run(&CorpusBenchConfig::quick());
        assert!(report.identical, "{report:?}");
        assert!(report.api.identical, "{report:?}");
        assert!(report.cuts_reduction >= 2.0, "{report:?}");
        assert_eq!(report.key_collisions, 0);
        assert_eq!(report.repeats, REPEATS as u64, "{report:?}");
        let json = to_json(&report);
        for field in [
            "\"identical\"",
            "\"cuts_reduction\"",
            "\"dedup_hit_rate\"",
            "\"unique_keys\"",
            "\"cuts_per_sec\"",
            "\"wall_ms\"",
            "\"nproc\"",
            "\"git_revision\"",
            "\"repeats\"",
            "\"api\"",
            "\"request_bytes\"",
            "\"decode_ms\"",
            "\"decode_tree_ms\"",
            "\"encode_ms\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(markdown(&report).contains("identical: true"));
    }
}
