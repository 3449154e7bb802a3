//! Fig. 8 — cuts considered by the identification algorithm versus block size.
//!
//! The experiment is driven through `full_registry`: any bundled
//! [`Identifier`] can be measured by name (the paper's
//! figure uses the exact `"single-cut"` search), and the per-block measurements are
//! fanned out in parallel with `rayon`.

use ise_baselines::full_registry;
use ise_core::engine::{Identifier, IdentifierConfig};
use ise_core::Constraints;
use ise_hw::DefaultCostModel;
use ise_ir::Dfg;
use ise_workloads::{random, suite};
use rayon::prelude::*;

/// One point of the Fig. 8 scatter plot.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Fig8Row {
    /// Name of the basic block.
    pub block: String,
    /// Origin of the block (`"kernel"` for bundled benchmarks, `"random"` for synthetic).
    pub origin: String,
    /// Number of operation nodes in the block.
    pub nodes: usize,
    /// Cuts considered by the search.
    pub cuts_considered: u64,
    /// Reference values `N²`, `N³` and `N⁴` for the guide lines of the figure.
    pub n2: u64,
    /// `N³` guide line.
    pub n3: u64,
    /// `N⁴` guide line.
    pub n4: u64,
}

/// Configuration of the Fig. 8 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Config {
    /// Name of the identification algorithm to measure.
    pub identifier: String,
    /// Output-port constraint (the paper uses `Nout = 2`).
    pub max_outputs: usize,
    /// Sizes of the synthetic random blocks added to the kernel blocks.
    pub random_sizes: Vec<usize>,
    /// Seed of the random-graph generator.
    pub seed: u64,
    /// Optional exploration budget guarding the largest blocks.
    pub exploration_budget: Option<u64>,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            identifier: "single-cut".to_string(),
            max_outputs: 2,
            random_sizes: vec![2, 4, 6, 8, 12, 16, 20, 25, 30, 40, 50, 60, 80, 100],
            seed: 20030610,
            exploration_budget: Some(crate::DEFAULT_EXPLORATION_BUDGET),
        }
    }
}

impl Fig8Config {
    /// A reduced configuration for smoke runs: fewer and smaller random blocks.
    #[must_use]
    pub fn quick() -> Self {
        Fig8Config {
            random_sizes: vec![4, 8, 16, 24],
            ..Fig8Config::default()
        }
    }
}

/// Instantiates the measured identifier from the registry.
///
/// # Panics
///
/// Panics if `config.identifier` is not a registered algorithm name.
#[must_use]
fn identifier_for(config: &Fig8Config) -> Box<dyn Identifier> {
    let engine_config =
        IdentifierConfig::default().with_exploration_budget(config.exploration_budget);
    full_registry()
        .create_configured(&config.identifier, &engine_config)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Counts the cuts considered by the exact single-cut search on one block with
/// `Nout = max_outputs` and an effectively unbounded `Nin` (the configuration of
/// Fig. 8). For other algorithms, run the full experiment with
/// [`Fig8Config::identifier`] set to the registry name.
#[must_use]
pub fn cuts_considered(dfg: &Dfg, max_outputs: usize, budget: Option<u64>) -> u64 {
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(usize::MAX >> 1, max_outputs);
    ise_core::engine::SingleCut::new()
        .with_exploration_budget(budget)
        .identify(dfg, &constraints, &model)
        .stats
        .cuts_considered
}

/// Runs the full experiment: every basic block of the bundled suite plus a random-graph
/// size sweep, with the per-block searches fanned out in parallel.
#[must_use]
pub fn run(config: &Fig8Config) -> Vec<Fig8Row> {
    let identifier = identifier_for(config);
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(usize::MAX >> 1, config.max_outputs);

    let mut blocks: Vec<(Dfg, &'static str)> = Vec::new();
    for program in suite::mediabench_like() {
        for block in program.blocks() {
            if block.node_count() >= 2 {
                blocks.push((block.clone(), "kernel"));
            }
        }
    }
    for dfg in random::size_sweep(&config.random_sizes, config.seed) {
        blocks.push((dfg, "random"));
    }

    let mut rows: Vec<Fig8Row> = blocks
        .par_iter()
        .map(|(dfg, origin)| {
            let n = dfg.node_count() as u64;
            let outcome = identifier.identify(dfg, &constraints, &model);
            Fig8Row {
                block: dfg.name().to_string(),
                origin: (*origin).to_string(),
                nodes: dfg.node_count(),
                cuts_considered: outcome.stats.cuts_considered,
                n2: n.saturating_pow(2),
                n3: n.saturating_pow(3),
                n4: n.saturating_pow(4),
            }
        })
        .collect();
    rows.sort_by_key(|r| r.nodes);
    rows
}

/// Checks the qualitative claim of Fig. 8 on a set of rows: the number of cuts considered
/// stays at or below the `N⁴` guide line for every practical block (it may exceed `N²`).
#[must_use]
pub fn within_polynomial_envelope(rows: &[Fig8Row]) -> bool {
    rows.iter()
        .filter(|r| r.nodes >= 4)
        .all(|r| r.cuts_considered <= r.n4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_workloads::adpcm;

    #[test]
    fn kernel_blocks_stay_within_the_polynomial_envelope() {
        let config = Fig8Config::quick();
        let rows = run(&config);
        assert!(rows.len() >= 10);
        assert!(within_polynomial_envelope(&rows));
        // Rows are sorted by block size for plotting.
        assert!(rows.windows(2).all(|w| w[0].nodes <= w[1].nodes));
    }

    #[test]
    fn pruning_beats_exhaustive_enumeration() {
        let block = adpcm::decode_kernel();
        let considered = cuts_considered(&block, 2, None);
        let exhaustive = 1u64 << block.node_count().min(63);
        assert!(
            considered < exhaustive / 4,
            "considered {considered} of {exhaustive}"
        );
        assert!(considered > block.node_count() as u64);
    }

    #[test]
    fn tighter_output_ports_consider_fewer_cuts() {
        let block = adpcm::decode_kernel();
        let one = cuts_considered(&block, 1, None);
        let three = cuts_considered(&block, 3, None);
        assert!(one <= three);
    }

    #[test]
    fn the_experiment_is_identifier_agnostic() {
        // Measuring a baseline through the same harness works and considers far fewer
        // candidates than the exact search.
        let exact = run(&Fig8Config::quick());
        let clubbing = run(&Fig8Config {
            identifier: "clubbing".to_string(),
            ..Fig8Config::quick()
        });
        assert_eq!(exact.len(), clubbing.len());
        let total_exact: u64 = exact.iter().map(|r| r.cuts_considered).sum();
        let total_clubbing: u64 = clubbing.iter().map(|r| r.cuts_considered).sum();
        assert!(total_clubbing < total_exact);
    }

    #[test]
    #[should_panic(expected = "unknown identification algorithm")]
    fn unknown_identifier_names_are_rejected() {
        let config = Fig8Config {
            identifier: "no-such-algorithm".to_string(),
            random_sizes: vec![4],
            ..Fig8Config::default()
        };
        let _ = run(&config);
    }
}
