//! The sweep determinism gate: pool-backed versus direct Fig. 11 sweeps.
//!
//! The cut pool ([`ise_core::pool`]) promises that a memoised sweep is **byte-identical**
//! to the direct per-pair searches while performing strictly fewer search-tree
//! enumerations. This experiment runs the same Fig. 11 comparison twice — once
//! pool-backed, once direct — asserts row-for-row identity, and reports the logical
//! versus physical identifier-call counts and the wall-clock of both modes as the
//! machine-readable `BENCH_sweep.json`. The two modes alternate for [`REPEATS`] passes,
//! each wall-clock is the median over the passes, and every pass must be identical.
//! The `sweep_gate` binary exits non-zero when the two modes ever diverge, making the
//! exactness guarantee a CI gate (like the sequential/parallel gate of `scaling`).

use std::time::Instant;

use ise_core::SweepStats;
use ise_ir::Program;
use ise_workloads::suite;

use crate::fig11::{run_algorithms_with_stats, Algorithm, Fig11Config};

/// Alternating pool/direct passes per run; each mode reports its median wall-clock.
pub const REPEATS: usize = 5;

/// Configuration of the gate experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepBenchConfig {
    /// The underlying Fig. 11 configuration (constraint pairs, instruction budget,
    /// exploration budget; the `direct` flag is driven by the experiment itself).
    pub fig11: Fig11Config,
    /// Restrict the benchmark suite to these programs (`None` = the Fig. 11 trio).
    pub benchmarks: Option<Vec<String>>,
}

impl SweepBenchConfig {
    /// A reduced configuration for CI smoke runs: the quick Fig. 11 pairs on the GSM
    /// and G.721 benchmarks.
    #[must_use]
    pub fn quick() -> Self {
        SweepBenchConfig {
            fig11: Fig11Config::quick(),
            benchmarks: Some(vec!["gsm".to_string(), "g721".to_string()]),
        }
    }

    fn programs(&self) -> Vec<Program> {
        match &self.benchmarks {
            Some(names) => names
                .iter()
                .map(|name| {
                    suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"))
                })
                .collect(),
            None => suite::fig11_benchmarks(),
        }
    }
}

/// The effort and wall-clock of one execution mode.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ModeReport {
    /// Wall-clock of the whole comparison, milliseconds: the median over the passes.
    pub wall_ms: f64,
    /// Identifier calls the emitted results report (identical in both modes).
    pub logical_identifier_calls: u64,
    /// Search-tree enumerations actually performed (fills + direct calls).
    pub physical_identifier_calls: u64,
    /// Pool-fill enumerations (0 in direct mode).
    pub pool_fills: u64,
    /// Queries answered from a memoised pool (0 in direct mode).
    pub pool_answers: u64,
    /// Fills rejected for exhausting the exploration budget.
    pub exhausted_fills: u64,
}

impl ModeReport {
    fn new(wall_ms: f64, stats: SweepStats) -> Self {
        ModeReport {
            wall_ms,
            logical_identifier_calls: stats.logical_identifier_calls,
            physical_identifier_calls: stats.physical_identifier_calls(),
            pool_fills: stats.pool_fills,
            pool_answers: stats.pool_answers,
            exhausted_fills: stats.exhausted_fills,
        }
    }
}

/// The full gate result, as serialised into `BENCH_sweep.json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SweepBenchReport {
    /// Logical CPUs of the machine the gate ran on.
    pub nproc: u64,
    /// The git revision the gate ran from.
    pub git_revision: String,
    /// Alternating passes of each mode measured (the gate's verdict is
    /// deterministic: identity and enumeration counts, never wall-clock).
    pub repeats: u64,
    /// The benchmarks compared.
    pub benchmarks: Vec<String>,
    /// Number of `(Nin, Nout)` pairs swept per benchmark and algorithm.
    pub pairs: usize,
    /// Whether the pool-backed rows were byte-identical to the direct rows in every
    /// pass.
    pub identical: bool,
    /// Whether the pool performed strictly fewer enumerations than direct mode.
    pub fewer_invocations: bool,
    /// Relative reduction of physical identifier calls, percent.
    pub invocation_reduction_percent: f64,
    /// Pool-backed execution.
    pub pool: ModeReport,
    /// Direct (reference) execution.
    pub direct: ModeReport,
}

/// Runs the gate: both modes alternating for [`REPEATS`] passes, identity check,
/// effort accounting.
#[must_use]
pub fn run(config: &SweepBenchConfig) -> SweepBenchReport {
    let programs = config.programs();
    let algorithms = Algorithm::all();
    let pooled_config = Fig11Config {
        direct: false,
        ..config.fig11.clone()
    };
    let direct_config = Fig11Config {
        direct: true,
        ..config.fig11.clone()
    };

    let timed = |config: &Fig11Config| {
        let start = Instant::now();
        let (rows, stats) = run_algorithms_with_stats(&programs, &algorithms, config);
        let ms = start.elapsed().as_secs_f64() * 1_000.0;
        (serde::json::to_string(&rows), stats, ms)
    };
    let mut pool_ms = Vec::with_capacity(REPEATS);
    let mut direct_ms = Vec::with_capacity(REPEATS);
    let mut identical = true;
    let mut stats = (SweepStats::default(), SweepStats::default());
    for _ in 0..REPEATS {
        let (pooled_rows, pooled_stats, ms) = timed(&pooled_config);
        pool_ms.push(ms);
        let (direct_rows, direct_stats, ms) = timed(&direct_config);
        direct_ms.push(ms);
        identical &= pooled_rows == direct_rows;
        stats = (pooled_stats, direct_stats);
    }
    let pool = ModeReport::new(crate::median(&pool_ms), stats.0);
    let direct = ModeReport::new(crate::median(&direct_ms), stats.1);
    let fewer_invocations = pool.physical_identifier_calls < direct.physical_identifier_calls;
    let invocation_reduction_percent = if direct.physical_identifier_calls > 0 {
        100.0
            * (direct.physical_identifier_calls
                - pool
                    .physical_identifier_calls
                    .min(direct.physical_identifier_calls)) as f64
            / direct.physical_identifier_calls as f64
    } else {
        0.0
    };
    SweepBenchReport {
        nproc: crate::nproc(),
        git_revision: crate::git_revision(),
        repeats: REPEATS as u64,
        benchmarks: programs.iter().map(|p| p.name().to_string()).collect(),
        pairs: config.fig11.constraints.len(),
        identical,
        fewer_invocations,
        invocation_reduction_percent,
        pool,
        direct,
    }
}

/// Renders the report as the `BENCH_sweep.json` payload.
#[must_use]
pub fn to_json(report: &SweepBenchReport) -> String {
    serde::json::to_string_pretty(report)
}

/// Renders the report as a small Markdown table.
#[must_use]
pub fn markdown(report: &SweepBenchReport) -> String {
    format!(
        "| mode | wall ms (median of {}) | logical calls | physical calls |\n\
         |---|---:|---:|---:|\n\
         | pool | {:.1} | {} | {} |\n\
         | direct | {:.1} | {} | {} |\n\
         \n\
         identical: {}, physical-call reduction: {:.1}%\n",
        report.repeats,
        report.pool.wall_ms,
        report.pool.logical_identifier_calls,
        report.pool.physical_identifier_calls,
        report.direct.wall_ms,
        report.direct.logical_identifier_calls,
        report.direct.physical_identifier_calls,
        report.identical,
        report.invocation_reduction_percent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny configuration so the debug-mode test stays fast: three pairs, the two
    /// smallest benchmarks, exact algorithms only via the standard entry point.
    fn tiny() -> SweepBenchConfig {
        SweepBenchConfig {
            fig11: Fig11Config {
                constraints: vec![
                    ise_core::Constraints::new(2, 1),
                    ise_core::Constraints::new(4, 2),
                ],
                max_instructions: 4,
                ..Fig11Config::default()
            },
            benchmarks: Some(vec!["crc32".to_string(), "g721".to_string()]),
        }
    }

    #[test]
    fn gate_reports_identity_and_reduction() {
        let report = run(&tiny());
        assert!(report.identical, "{report:?}");
        assert_eq!(report.repeats, REPEATS as u64, "{report:?}");
        assert!(report.fewer_invocations, "{report:?}");
        assert_eq!(
            report.pool.logical_identifier_calls,
            report.direct.logical_identifier_calls
        );
        let json = to_json(&report);
        for field in [
            "\"identical\"",
            "\"fewer_invocations\"",
            "\"invocation_reduction_percent\"",
            "\"wall_ms\"",
            "\"logical_identifier_calls\"",
            "\"physical_identifier_calls\"",
            "\"nproc\"",
            "\"git_revision\"",
            "\"repeats\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(markdown(&report).contains("identical: true"));
    }
}
