//! Fig. 11 — estimated speed-up of Optimal, Iterative, Clubbing and MaxMISO.
//!
//! Every sweep runs through one [`SweepPlanner`] per benchmark, whose per-block
//! identification goes through the engine registry and the `rayon`-parallel program
//! driver of `ise-core`: an algorithm is a *name*, and adding a new one to the
//! comparison means registering it (one file in its home crate) and appending
//! [`Algorithm::Named`] to the compared list — no new dispatch code here. Only the
//! Optimal strategy keeps a bespoke driver ([`SweepPlanner::run_optimal`]): it
//! re-invokes the multiple-cut identifier with a growing cut count, which is a selection
//! *strategy* on top of an identifier rather than a per-block identifier itself.

use ise_baselines::full_registry;
use ise_core::engine::{DriverOptions, Identifier, IdentifierConfig};
use ise_core::{Constraints, SelectionResult};
use ise_core::{SweepPlanner, SweepStats};
use ise_hw::{DefaultCostModel, SoftwareLatencyModel};
use ise_ir::Program;

/// The algorithms compared in Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Algorithm {
    /// The optimal selection driver over the multiple-cut identification (Section 6.2).
    Optimal,
    /// The iterative single-cut heuristic (Section 6.3), via the `"single-cut"`
    /// registry entry and the parallel program driver.
    Iterative,
    /// The Clubbing baseline (Baleani et al.), via the `"clubbing"` registry entry.
    Clubbing,
    /// The MaxMISO baseline (Alippi et al.), via the `"maxmiso"` registry entry.
    MaxMiso,
    /// Any other registered identifier, addressed by its registry name.
    Named(&'static str),
}

impl Algorithm {
    /// All compared algorithms, in the order used by the published figure.
    #[must_use]
    pub fn all() -> [Algorithm; 4] {
        [
            Algorithm::Optimal,
            Algorithm::Iterative,
            Algorithm::Clubbing,
            Algorithm::MaxMiso,
        ]
    }

    /// Display name used in tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Optimal => "Optimal",
            Algorithm::Iterative => "Iterative",
            Algorithm::Clubbing => "Clubbing",
            Algorithm::MaxMiso => "MaxMISO",
            Algorithm::Named(name) => name,
        }
    }

    /// The registry name of the per-block identifier this algorithm drives, or `None`
    /// for the bespoke Optimal strategy.
    #[must_use]
    pub fn identifier_name(self) -> Option<&'static str> {
        match self {
            Algorithm::Optimal => None,
            Algorithm::Iterative => Some("single-cut"),
            Algorithm::Clubbing => Some("clubbing"),
            Algorithm::MaxMiso => Some("maxmiso"),
            Algorithm::Named(name) => Some(name),
        }
    }
}

/// One bar of the Fig. 11 comparison.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Fig11Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Register-file read-port constraint.
    pub max_inputs: usize,
    /// Register-file write-port constraint.
    pub max_outputs: usize,
    /// Algorithm that produced this row.
    pub algorithm: String,
    /// Estimated whole-application speed-up.
    pub speedup: f64,
    /// Percentage improvement over the baseline processor.
    pub improvement_percent: f64,
    /// Number of special instructions selected (≤ 16 in the paper's experiments).
    pub instructions: usize,
    /// Total normalised datapath area of the selected instructions (in multiples of a
    /// 32-bit MAC).
    pub area: f64,
    /// Largest single instruction selected, in operation nodes.
    pub largest_instruction: usize,
}

/// Configuration of the Fig. 11 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Config {
    /// Constraint pairs to sweep.
    pub constraints: Vec<Constraints>,
    /// Maximum number of special instructions (the paper uses 16).
    pub max_instructions: usize,
    /// Exploration budget per identifier invocation for the exact algorithms.
    pub exploration_budget: Option<u64>,
    /// Skip the Optimal algorithm on blocks larger than this many nodes (the paper could
    /// not run Optimal on adpcmdecode's largest blocks); `None` disables the guard.
    pub optimal_block_limit: Option<usize>,
    /// Fan the per-block identification out across threads. The rows are identical
    /// either way; this only trades wall-clock for cores.
    pub parallel: bool,
    /// Force the reference per-pair searches instead of the memoised cut-pool sweep
    /// (the planner runs with [`DriverOptions::cut_pool`] off). The rows are
    /// **byte-identical** either way (`sweep_gate` asserts it in CI); direct mode
    /// exists as the trusted baseline and for effort comparisons.
    pub direct: bool,
}

impl Default for Fig11Config {
    fn default() -> Self {
        Fig11Config {
            constraints: Constraints::paper_sweep(),
            max_instructions: 16,
            exploration_budget: Some(crate::DEFAULT_EXPLORATION_BUDGET),
            optimal_block_limit: Some(24),
            parallel: true,
            direct: false,
        }
    }
}

impl Fig11Config {
    /// A reduced configuration for smoke runs: two constraint pairs, 8 instructions.
    #[must_use]
    pub fn quick() -> Self {
        Fig11Config {
            constraints: vec![Constraints::new(2, 1), Constraints::new(4, 2)],
            max_instructions: 8,
            ..Fig11Config::default()
        }
    }

    /// The engine configuration handed to registry factories.
    #[must_use]
    fn engine_config(&self) -> IdentifierConfig {
        IdentifierConfig::default().with_exploration_budget(self.exploration_budget)
    }
}

/// Builds the figure row for one computed selection.
fn row(
    program: &Program,
    algorithm: Algorithm,
    constraints: Constraints,
    selection: &SelectionResult,
) -> Fig11Row {
    let software = SoftwareLatencyModel::new();
    let report = selection.speedup_report(program, &software);
    Fig11Row {
        benchmark: program.name().to_string(),
        max_inputs: constraints.max_inputs,
        max_outputs: constraints.max_outputs,
        algorithm: algorithm.name().to_string(),
        speedup: report.speedup,
        improvement_percent: report.improvement_percent(),
        instructions: selection.len(),
        area: report.total_area,
        largest_instruction: selection
            .chosen
            .iter()
            .map(|c| c.identified.evaluation.nodes)
            .max()
            .unwrap_or(0),
    }
}

/// Runs one algorithm's whole constraint sweep on one benchmark through a shared
/// [`SweepPlanner`]. With the cut pool on, every `(block, exclusion-state)` is
/// enumerated once under the loosest constraints and every pair is answered from the
/// memoised pool; with it off, every pair runs its own search.
///
/// The results are byte-identical in both modes; only the enumeration work differs
/// (the planner's [`SweepStats`] report it).
fn sweep_select(
    program: &Program,
    planner: &mut SweepPlanner<'_>,
    algorithm: Algorithm,
    config: &Fig11Config,
) -> Vec<SelectionResult> {
    let registry = full_registry();
    match algorithm {
        Algorithm::Iterative => planner.run_single_cut(&config.constraints),
        Algorithm::Optimal => {
            let too_large = config
                .optimal_block_limit
                .is_some_and(|limit| program.blocks().iter().any(|b| b.node_count() > limit));
            if too_large {
                // The paper's fallback for its largest blocks: the iterative
                // heuristic, reported under the Optimal label. Sharing the planner
                // also shares the single-cut pools the Iterative series filled.
                planner.run_single_cut(&config.constraints)
            } else {
                planner.run_optimal(&config.constraints)
            }
        }
        other => {
            let name = other
                .identifier_name()
                .expect("only Optimal has no identifier name");
            let identifier: Box<dyn Identifier> = registry
                .create_configured(name, &config.engine_config())
                .unwrap_or_else(|e| panic!("{e}"));
            planner.run_direct(identifier.as_ref(), &config.constraints)
        }
    }
}

/// Runs the full comparison over a set of benchmarks.
#[must_use]
pub fn run(benchmarks: &[Program], config: &Fig11Config) -> Vec<Fig11Row> {
    run_algorithms(benchmarks, &Algorithm::all(), config)
}

/// Runs the comparison for an explicit list of algorithms.
#[must_use]
pub fn run_algorithms(
    benchmarks: &[Program],
    algorithms: &[Algorithm],
    config: &Fig11Config,
) -> Vec<Fig11Row> {
    run_algorithms_with_stats(benchmarks, algorithms, config).0
}

/// [`run_algorithms`], additionally returning the aggregated effort accounting
/// (logical versus physical identifier invocations) across the whole comparison.
///
/// In direct mode every logical call is performed physically; in pool mode (the
/// default) the physical count is strictly smaller on any multi-pair sweep. The row
/// payload is byte-identical in both modes.
#[must_use]
pub fn run_algorithms_with_stats(
    benchmarks: &[Program],
    algorithms: &[Algorithm],
    config: &Fig11Config,
) -> (Vec<Fig11Row>, SweepStats) {
    let model = DefaultCostModel::new();
    let mut driver_options =
        DriverOptions::new(config.max_instructions).with_cut_pool(!config.direct);
    if !config.parallel {
        driver_options = driver_options.sequential();
    }
    let mut rows = Vec::new();
    let mut stats = SweepStats::default();
    for program in benchmarks {
        // One planner per benchmark: the Iterative series and the Optimal fallback
        // share whatever single-cut pools they have in common.
        let mut planner = SweepPlanner::new(program, &model, driver_options, &config.constraints)
            .with_exploration_budget(config.exploration_budget);
        let selections: Vec<Vec<SelectionResult>> = algorithms
            .iter()
            .map(|&algorithm| sweep_select(program, &mut planner, algorithm, config))
            .collect();
        stats.merge(&planner.stats());
        for (pair_index, &constraints) in config.constraints.iter().enumerate() {
            for (algorithm_index, &algorithm) in algorithms.iter().enumerate() {
                rows.push(row(
                    program,
                    algorithm,
                    constraints,
                    &selections[algorithm_index][pair_index],
                ));
            }
        }
    }
    (rows, stats)
}

/// Qualitative checks corresponding to the observations of Section 8 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeChecks {
    /// Iterative (and Optimal) never lose to Clubbing or MaxMISO on any configuration.
    pub exact_dominates_baselines: bool,
    /// The advantage of the exact algorithms grows (or at least does not shrink) when
    /// moving from the tightest to the loosest constraint pair.
    pub gap_grows_with_ports: bool,
    /// Optimal and Iterative agree within a small tolerance.
    pub optimal_close_to_iterative: bool,
}

/// Evaluates the qualitative shape checks on a set of rows.
#[must_use]
pub fn shape_checks(rows: &[Fig11Row]) -> ShapeChecks {
    let speedup_of = |benchmark: &str, nin: usize, nout: usize, algo: &str| -> Option<f64> {
        rows.iter()
            .find(|r| {
                r.benchmark == benchmark
                    && r.max_inputs == nin
                    && r.max_outputs == nout
                    && r.algorithm == algo
            })
            .map(|r| r.speedup)
    };
    let mut benchmarks: Vec<&str> = rows.iter().map(|r| r.benchmark.as_str()).collect();
    benchmarks.sort_unstable();
    benchmarks.dedup();
    let mut pairs: Vec<(usize, usize)> =
        rows.iter().map(|r| (r.max_inputs, r.max_outputs)).collect();
    pairs.sort_unstable();
    pairs.dedup();

    let mut exact_dominates = true;
    let mut optimal_close = true;
    for &benchmark in &benchmarks {
        for &(nin, nout) in &pairs {
            let iterative = speedup_of(benchmark, nin, nout, "Iterative").unwrap_or(1.0);
            let optimal = speedup_of(benchmark, nin, nout, "Optimal").unwrap_or(1.0);
            let clubbing = speedup_of(benchmark, nin, nout, "Clubbing").unwrap_or(1.0);
            let maxmiso = speedup_of(benchmark, nin, nout, "MaxMISO").unwrap_or(1.0);
            if iterative + 1e-9 < clubbing || iterative + 1e-9 < maxmiso {
                exact_dominates = false;
            }
            if (optimal - iterative).abs() > 0.25 * iterative.max(1.0) {
                optimal_close = false;
            }
        }
    }

    // Compare the exact-vs-baseline gap under the tightest and loosest constraints.
    let mut gap_grows = true;
    if let (Some(&tight), Some(&loose)) = (pairs.first(), pairs.last()) {
        for &benchmark in &benchmarks {
            let gap = |pair: (usize, usize)| -> f64 {
                let iterative = speedup_of(benchmark, pair.0, pair.1, "Iterative").unwrap_or(1.0);
                let best_baseline = speedup_of(benchmark, pair.0, pair.1, "Clubbing")
                    .unwrap_or(1.0)
                    .max(speedup_of(benchmark, pair.0, pair.1, "MaxMISO").unwrap_or(1.0));
                iterative - best_baseline
            };
            if gap(loose) + 1e-9 < gap(tight) {
                gap_grows = false;
            }
        }
    }

    ShapeChecks {
        exact_dominates_baselines: exact_dominates,
        gap_grows_with_ports: gap_grows,
        optimal_close_to_iterative: optimal_close,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_workloads::{g721, gsm};

    #[test]
    fn single_benchmark_comparison_has_the_expected_shape() {
        let config = Fig11Config::quick();
        let programs = vec![gsm::program(), g721::program()];
        let rows = run(&programs, &config);
        assert_eq!(rows.len(), 2 * 2 * 4);
        for row in &rows {
            assert!(row.speedup >= 1.0, "{row:?}");
            assert!(row.instructions <= 8);
        }
        let checks = shape_checks(&rows);
        assert!(checks.exact_dominates_baselines);
        assert!(checks.optimal_close_to_iterative);
    }

    #[test]
    fn looser_constraints_never_reduce_the_iterative_speedup() {
        let config = Fig11Config {
            constraints: vec![
                Constraints::new(2, 1),
                Constraints::new(4, 2),
                Constraints::new(8, 4),
            ],
            max_instructions: 8,
            ..Fig11Config::default()
        };
        let rows = run_algorithms(&[gsm::program()], &[Algorithm::Iterative], &config);
        assert_eq!(rows.len(), 3);
        let mut last = 0.0;
        for row in &rows {
            assert!(row.speedup + 1e-9 >= last);
            last = row.speedup;
        }
    }

    #[test]
    fn parallel_and_sequential_rows_are_identical() {
        let parallel = Fig11Config {
            constraints: vec![Constraints::new(4, 2)],
            ..Fig11Config::quick()
        };
        let sequential = Fig11Config {
            parallel: false,
            ..parallel.clone()
        };
        let programs = [gsm::program()];
        assert_eq!(run(&programs, &parallel), run(&programs, &sequential));
    }

    #[test]
    fn pool_backed_rows_are_byte_identical_to_direct_rows() {
        let pooled_config = Fig11Config::quick();
        let direct_config = Fig11Config {
            direct: true,
            ..Fig11Config::quick()
        };
        let programs = vec![gsm::program(), g721::program()];
        let (pooled, pooled_stats) =
            run_algorithms_with_stats(&programs, &Algorithm::all(), &pooled_config);
        let (direct, direct_stats) =
            run_algorithms_with_stats(&programs, &Algorithm::all(), &direct_config);
        assert_eq!(pooled, direct);
        assert_eq!(
            serde::json::to_string(&pooled),
            serde::json::to_string(&direct)
        );
        // Identical logical accounting, strictly fewer physical enumerations.
        assert_eq!(
            pooled_stats.logical_identifier_calls,
            direct_stats.logical_identifier_calls
        );
        assert!(
            pooled_stats.physical_identifier_calls() < direct_stats.physical_identifier_calls()
        );
    }

    #[test]
    fn named_algorithms_run_through_the_registry() {
        let config = Fig11Config {
            constraints: vec![Constraints::new(4, 2)],
            ..Fig11Config::quick()
        };
        let rows = run_algorithms(
            &[gsm::program()],
            &[Algorithm::Named("single-node"), Algorithm::Iterative],
            &config,
        );
        let [row, exact] = &rows[..] else {
            panic!("one row per algorithm: {rows:?}")
        };
        assert_eq!(row.algorithm, "single-node");
        // The trivial per-node baseline never beats the exact search.
        assert!(exact.speedup + 1e-9 >= row.speedup);
    }
}
