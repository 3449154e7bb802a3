//! Intra-block scaling experiment: wall-clock of the exact search, sequential versus
//! subtree-parallel, on wide single blocks — against the hook-free reference walk.
//!
//! The paper's Fig. 8 axis — one large basic block — is exactly the case the program
//! driver's per-block fan-out cannot parallelise, and the case the
//! [`SearchKernel`](ise_core::kernel::SearchKernel)'s subtree decomposition exists for.
//! This experiment measures it: for a sweep of wide synthetic blocks (including the
//! `widedag` shape of the program-level benches) each repetition alternates four runs —
//! the reference search (the same cut state and kernel walk with the search hook off,
//! see `ise_core::kernel::reference`), the production search sequentially, the
//! production search with the top decision-tree levels fanned out, and the sequential
//! opt-in incumbent-bound search. It checks that all of them return the **same
//! selection** (the parallel twin and the reference must match the sequential search
//! on cuts *and* statistics; the incumbent variant on the selected cut), and reports
//! the median wall-clock over the repetitions, raw throughput (cuts considered per
//! second), *equivalent* throughput (the reference walk's cut count over each
//! variant's wall-clock — the honest apples-to-apples rate when the incumbent variant
//! prunes the tree smaller), and the machine-readable `pruning_breakdown` of the
//! default walk. The report also records the CPU count, the repeat count
//! and the git revision. The rows serialise to `BENCH_search.json`; the `scaling`
//! binary fails loudly if any equality gate breaks.
//!
//! Every row runs at an unbounded `Nin`, as Fig. 8 does, where the input floor cannot
//! prune and the counts are the paper's — except the last: the `widedag` block again
//! under a finite `Nin` ([`FINITE_INPUTS`]), the served setting, where the
//! floor's share of the pruning shows in its breakdown.

use std::time::Instant;

use ise_core::engine::Identifier;
use ise_core::{
    identify_single_cut_reference, Constraints, SearchOutcome, SearchStats, SingleCutSearch,
};
use ise_hw::DefaultCostModel;
use ise_workloads::random;

/// The `Nin` of the unbounded rows: no cut of any block reaches it.
const UNBOUNDED: usize = usize::MAX >> 1;

/// The `Nin` of the last row, which measures the `widedag` block again under finite
/// input ports (the served requests' `Nin`).
pub const FINITE_INPUTS: usize = 4;

/// Configuration of the scaling experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingConfig {
    /// Node counts of the wide synthetic blocks measured.
    pub block_sizes: Vec<usize>,
    /// Seed of the block generator.
    pub seed: u64,
    /// Output-port constraint (`Nin` stays unbounded, as in Fig. 8).
    pub max_outputs: usize,
    /// Decision-tree levels fanned out in the parallel runs.
    pub split_levels: usize,
    /// Timed repetitions per block; the reported wall-clock is their median.
    /// All variants alternate within each repetition, so warm-up bias cannot be
    /// credited to whichever variant happens to run later.
    pub repeats: usize,
    /// Node count of the dedicated `widedag` row (the single-block version of the
    /// program-level `widedag` workload shape).
    pub widedag_nodes: usize,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            block_sizes: vec![32, 36, 40],
            seed: 0x5CA11,
            max_outputs: 2,
            split_levels: 5,
            repeats: 3,
            widedag_nodes: 48,
        }
    }
}

impl ScalingConfig {
    /// A reduced configuration for CI smoke runs: smaller blocks, shallower split.
    #[must_use]
    pub fn quick() -> Self {
        ScalingConfig {
            block_sizes: vec![20, 26],
            split_levels: 4,
            repeats: 2,
            widedag_nodes: 22,
            ..ScalingConfig::default()
        }
    }
}

/// Machine-readable classification of every 1-branch attempt of the sequential
/// search by its pruning rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct PruningBreakdown {
    /// Attempts that passed every check and grew the cut.
    pub feasible: u64,
    /// Attempts pruned by the output-port constraint.
    pub pruned_output: u64,
    /// Attempts pruned by the convexity check.
    pub pruned_convexity: u64,
    /// Attempts pruned by the node budget.
    pub pruned_node_budget: u64,
    /// Attempts pruned by the input floor (zero at an unbounded `Nin`).
    pub pruned_inputs: u64,
}

impl PruningBreakdown {
    fn from_stats(stats: &SearchStats) -> Self {
        PruningBreakdown {
            feasible: stats.feasible_cuts,
            pruned_output: stats.pruned_output,
            pruned_convexity: stats.pruned_convexity,
            pruned_node_budget: stats.pruned_node_budget,
            pruned_inputs: stats.pruned_inputs,
        }
    }
}

/// One measured block of the scaling experiment.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ScalingRow {
    /// Name of the measured block.
    pub block: String,
    /// Number of operation nodes (the graph size axis).
    pub nodes: usize,
    /// `Nin` of the row, or `None` when unbounded.
    pub max_inputs: Option<usize>,
    /// Worker threads available to the parallel run.
    pub threads: usize,
    /// Decision-tree levels fanned out in the parallel run.
    pub split_levels: usize,
    /// Cuts considered by the production search (identical in the sequential and
    /// parallel runs by construction).
    pub cuts_considered: u64,
    /// Cuts considered by the reference search (equal to `cuts_considered`) — the
    /// denominator of the equivalent-throughput figures.
    pub reference_cuts_considered: u64,
    /// Median wall-clock of the reference search over the repetitions, milliseconds.
    pub reference_ms: f64,
    /// Median wall-clock of the sequential search over the repetitions, milliseconds.
    pub sequential_ms: f64,
    /// Median wall-clock of the subtree-parallel search over the repetitions,
    /// milliseconds.
    pub parallel_ms: f64,
    /// Median wall-clock of the sequential incumbent-bound search, milliseconds.
    pub incumbent_ms: f64,
    /// Cuts considered by the incumbent-bound search (order-dependent, typically far
    /// fewer than the default walk).
    pub incumbent_cuts_considered: u64,
    /// Throughput of the reference search, cuts considered per second.
    pub reference_cuts_per_sec: f64,
    /// Throughput of the sequential search, cuts considered per second.
    pub sequential_cuts_per_sec: f64,
    /// Throughput of the parallel search, cuts considered per second.
    pub parallel_cuts_per_sec: f64,
    /// *Equivalent* throughput of the sequential search: the reference walk's cut
    /// count over the sequential wall-clock (equal to the raw rate: both walks count
    /// the same tree).
    pub equivalent_cuts_per_sec: f64,
    /// Equivalent throughput of the incumbent-bound search (reference cut count over
    /// incumbent wall-clock).
    pub incumbent_equivalent_cuts_per_sec: f64,
    /// Reference over sequential wall-clock: below 1 when the search hook costs
    /// time.
    pub speedup_vs_reference: f64,
    /// Reference over incumbent-bound wall-clock.
    pub incumbent_speedup_vs_reference: f64,
    /// Classification of every attempt of the sequential walk.
    pub pruning_breakdown: PruningBreakdown,
    /// Sequential over parallel wall-clock.
    pub speedup: f64,
    /// Whether the sequential and parallel outcomes (best cut **and** statistics)
    /// were identical.
    pub identical: bool,
    /// Whether the reference search returned the sequential search's cut and
    /// statistics, and the incumbent-bound search its cut.
    pub matches_reference: bool,
}

/// The full experiment result, as serialised into `BENCH_search.json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ScalingReport {
    /// Worker threads the parallel runs could use.
    pub threads: usize,
    /// Logical CPUs of the machine the experiment ran on.
    pub nproc: u64,
    /// Timed repetitions behind every median.
    pub repeats: u64,
    /// Git revision of the measured tree.
    pub git_revision: String,
    /// Per-block measurements of the single-cut search.
    pub rows: Vec<ScalingRow>,
    /// Whether multicut and the exhaustive oracle also matched their sequential runs
    /// on the cross-client check blocks.
    pub cross_client_identical: bool,
    /// Conjunction of every per-row and cross-client identity check.
    pub all_identical: bool,
}

fn timed_identify(
    identifier: &dyn Identifier,
    dfg: &ise_ir::Dfg,
    constraints: &Constraints,
    model: &DefaultCostModel,
    split_levels: usize,
) -> (SearchOutcome, f64) {
    let start = Instant::now();
    let outcome = identifier.identify_split(dfg, None, constraints, model, split_levels);
    (outcome, start.elapsed().as_secs_f64() * 1_000.0)
}

fn cuts_per_sec(cuts: u64, millis: f64) -> f64 {
    if millis <= 0.0 {
        0.0
    } else {
        cuts as f64 * 1_000.0 / millis
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Measures one block: the reference baseline, the sequential and parallel searches,
/// and the incumbent-bound search, alternating within each repetition so first-run
/// warm-up (allocator, caches) is not credited to any one variant, and reporting the
/// median wall-clock of each.
fn measure_block(
    dfg: &ise_ir::Dfg,
    row_name: &str,
    constraints: Constraints,
    model: &DefaultCostModel,
    config: &ScalingConfig,
) -> ScalingRow {
    let single_cut = ise_core::engine::SingleCut::new();
    let mut reference_ms = Vec::new();
    let mut sequential_ms = Vec::new();
    let mut parallel_ms = Vec::new();
    let mut incumbent_ms = Vec::new();
    let mut reference = None;
    let mut sequential = None;
    let mut parallel = None;
    let mut incumbent = None;
    for _ in 0..config.repeats.max(1) {
        let start = Instant::now();
        let outcome = identify_single_cut_reference(dfg, constraints, model);
        reference_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        reference = Some(outcome);
        let (outcome, ms) = timed_identify(&single_cut, dfg, &constraints, model, 0);
        sequential_ms.push(ms);
        sequential = Some(outcome);
        let (outcome, ms) =
            timed_identify(&single_cut, dfg, &constraints, model, config.split_levels);
        parallel_ms.push(ms);
        parallel = Some(outcome);
        let start = Instant::now();
        let outcome = SingleCutSearch::new(dfg, constraints, model)
            .with_incumbent_bound()
            .run();
        incumbent_ms.push(start.elapsed().as_secs_f64() * 1_000.0);
        incumbent = Some(outcome);
    }
    let reference = reference.expect("repeats >= 1");
    let sequential = sequential.expect("repeats >= 1");
    let parallel = parallel.expect("repeats >= 1");
    let incumbent = incumbent.expect("repeats >= 1");
    let reference_ms = crate::median(&reference_ms);
    let sequential_ms = crate::median(&sequential_ms);
    let parallel_ms = crate::median(&parallel_ms);
    let incumbent_ms = crate::median(&incumbent_ms);
    let identical = sequential == parallel;
    let matches_reference = sequential.best == reference.best
        && sequential.stats == reference.stats
        && incumbent.best == sequential.best;
    let cuts = sequential.stats.cuts_considered;
    let reference_cuts = reference.stats.cuts_considered;
    ScalingRow {
        block: row_name.to_string(),
        nodes: dfg.node_count(),
        max_inputs: (constraints.max_inputs < UNBOUNDED).then_some(constraints.max_inputs),
        threads: rayon::current_num_threads(),
        split_levels: config.split_levels,
        cuts_considered: cuts,
        reference_cuts_considered: reference_cuts,
        reference_ms,
        sequential_ms,
        parallel_ms,
        incumbent_ms,
        incumbent_cuts_considered: incumbent.stats.cuts_considered,
        reference_cuts_per_sec: cuts_per_sec(reference_cuts, reference_ms),
        sequential_cuts_per_sec: cuts_per_sec(cuts, sequential_ms),
        parallel_cuts_per_sec: cuts_per_sec(parallel.stats.cuts_considered, parallel_ms),
        equivalent_cuts_per_sec: cuts_per_sec(reference_cuts, sequential_ms),
        incumbent_equivalent_cuts_per_sec: cuts_per_sec(reference_cuts, incumbent_ms),
        speedup_vs_reference: ratio(reference_ms, sequential_ms),
        incumbent_speedup_vs_reference: ratio(reference_ms, incumbent_ms),
        pruning_breakdown: PruningBreakdown::from_stats(&sequential.stats),
        speedup: ratio(sequential_ms, parallel_ms),
        identical,
        matches_reference,
    }
}

/// Runs the experiment: one wide block per configured size plus the dedicated
/// `widedag` row, each measured against the reference baseline (see `measure_block`),
/// plus a cross-client identity check driving multicut and the exhaustive oracle
/// through the same kernel split.
#[must_use]
pub fn run(config: &ScalingConfig) -> ScalingReport {
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(UNBOUNDED, config.max_outputs);

    let mut rows = Vec::new();
    for (index, &nodes) in config.block_sizes.iter().enumerate() {
        let dfg = random::wide_dfg(nodes, config.seed + index as u64);
        let name = dfg.name().to_string();
        rows.push(measure_block(&dfg, &name, constraints, &model, config));
    }
    // The single-block version of the program-level `widedag` workload (same generator
    // and seed offset as `wide_dag_program`'s first block).
    let widedag = random::wide_dfg(config.widedag_nodes, 0x81DA6);
    rows.push(measure_block(
        &widedag,
        "widedag",
        constraints,
        &model,
        config,
    ));
    let finite = Constraints::new(FINITE_INPUTS, config.max_outputs);
    rows.push(measure_block(&widedag, "widedag", finite, &model, config));

    let cross_client_identical = cross_client_check(config, &model);
    let all_identical =
        cross_client_identical && rows.iter().all(|r| r.identical && r.matches_reference);
    ScalingReport {
        threads: rayon::current_num_threads(),
        nproc: crate::nproc(),
        repeats: config.repeats.max(1) as u64,
        git_revision: crate::git_revision(),
        rows,
        cross_client_identical,
        all_identical,
    }
}

/// Drives the other two kernel clients — multicut and the exhaustive oracle — through
/// the same split on small wide blocks and checks the parallel outcome (cuts and
/// statistics) equals the sequential one.
fn cross_client_check(config: &ScalingConfig, model: &DefaultCostModel) -> bool {
    let constraints = Constraints::new(4, 2);
    let multicut = ise_core::engine::MultiCut::new(2);
    let oracle = ise_core::engine::Exhaustive::new();
    let mut identical = true;
    for (identifier, nodes) in [(&multicut as &dyn Identifier, 12usize), (&oracle, 12)] {
        let dfg = random::wide_dfg(nodes, config.seed ^ 0xC7055);
        let sequential = identifier.identify_split(&dfg, None, &constraints, model, 0);
        let parallel =
            identifier.identify_split(&dfg, None, &constraints, model, config.split_levels);
        identical &= sequential == parallel;
    }
    identical
}

/// Renders the report as the `BENCH_search.json` payload.
#[must_use]
pub fn to_json(report: &ScalingReport) -> String {
    serde::json::to_string_pretty(report)
}

/// Renders the rows as a Markdown table.
#[must_use]
pub fn markdown(report: &ScalingReport) -> String {
    let mut out = String::from(
        "| block | nodes | Nin | cuts | ref ms | seq ms | par ms | inc ms | vs ref \
         | inc vs ref | speedup | ok |\n\
         |---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|\n",
    );
    for r in &report.rows {
        let nin = r.max_inputs.map_or("∞".to_string(), |n| n.to_string());
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.2}x | {:.2}x | {:.2}x | {} |\n",
            r.block,
            r.nodes,
            nin,
            r.cuts_considered,
            r.reference_ms,
            r.sequential_ms,
            r.parallel_ms,
            r.incumbent_ms,
            r.speedup_vs_reference,
            r.incumbent_speedup_vs_reference,
            r.speedup,
            r.identical && r.matches_reference
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny configuration so the debug-mode test stays fast.
    fn tiny() -> ScalingConfig {
        ScalingConfig {
            block_sizes: vec![12, 14],
            split_levels: 3,
            widedag_nodes: 12,
            ..ScalingConfig::default()
        }
    }

    #[test]
    fn parallel_and_sequential_outputs_are_identical() {
        let report = run(&tiny());
        // The configured sizes plus the widedag row, unbounded and under `Nin = 4`.
        assert_eq!(report.rows.len(), 4);
        assert!(report.all_identical, "{report:?}");
        assert!(report.cross_client_identical);
        let inputs: Vec<_> = report.rows.iter().map(|r| r.max_inputs).collect();
        assert_eq!(inputs, [None, None, None, Some(FINITE_INPUTS)]);
        assert!(report.rows[2..].iter().all(|r| r.block == "widedag"));
        for row in &report.rows {
            assert!(row.identical, "{row:?}");
            assert!(row.matches_reference, "{row:?}");
            assert!(row.cuts_considered > 0);
            assert_eq!(row.reference_cuts_considered, row.cuts_considered);
            assert!(row.sequential_ms >= 0.0);
            // The breakdown partitions the attempts of the sequential walk.
            let b = &row.pruning_breakdown;
            assert_eq!(
                row.cuts_considered,
                b.feasible
                    + b.pruned_output
                    + b.pruned_convexity
                    + b.pruned_node_budget
                    + b.pruned_inputs
            );
            // The floor prunes only where `Nin` is finite.
            assert_eq!(row.max_inputs.is_some(), b.pruned_inputs > 0, "{row:?}");
        }
    }

    #[test]
    fn json_payload_carries_the_required_fields() {
        let report = run(&tiny());
        let json = to_json(&report);
        for field in [
            "\"nodes\"",
            "\"threads\"",
            "\"nproc\"",
            "\"repeats\"",
            "\"git_revision\"",
            "\"cuts_considered\"",
            "\"reference_cuts_considered\"",
            "\"reference_ms\"",
            "\"sequential_ms\"",
            "\"parallel_ms\"",
            "\"incumbent_ms\"",
            "\"sequential_cuts_per_sec\"",
            "\"parallel_cuts_per_sec\"",
            "\"equivalent_cuts_per_sec\"",
            "\"incumbent_equivalent_cuts_per_sec\"",
            "\"speedup_vs_reference\"",
            "\"pruning_breakdown\"",
            "\"matches_reference\"",
            "\"speedup\"",
            "\"all_identical\"",
            "\"widedag\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let md = markdown(&report);
        assert!(md.lines().count() >= 5);
    }
}
