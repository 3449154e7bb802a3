//! The template gate: cross-site instruction templates versus per-block selection.
//!
//! The template subsystem ([`ise_core::extract_templates`] /
//! [`ise_core::select_templates`]) claims that grouping isomorphic cuts across
//! blocks *and* programs lets a global area budget buy more dynamic cycle savings
//! than spending the same area on per-block cut selections — each template pays
//! its area once and covers every non-conflicting site. This experiment runs both
//! policies over a duplicate-heavy corpus at a ladder of area budgets, checks the
//! branch-and-bound selector against the brute-force oracle, and emits the
//! speedup-at-budget Pareto rows as the machine-readable `BENCH_templates.json`.
//! The `template_gate` binary exits non-zero when the selector diverges from the
//! oracle or cross-site selection loses to the per-block baseline at equal area,
//! making the claim a CI gate (like `corpus_gate`).

use std::time::Instant;

use ise_core::{
    extract_templates, run_corpus, select_templates, select_templates_budgeted,
    select_templates_exhaustive, Constraints, CorpusOptions, DriverOptions, Template,
    TemplateBudget,
};
use ise_hw::speedup::clamped_speedup;
use ise_hw::{CostModel, DefaultCostModel};
use ise_ir::Program;
use ise_workloads::corpus::{duplicate_heavy, CorpusConfig};
use ise_workloads::suite;

/// Area slack shared with the selector: a budget comparison never fails on the
/// last representable bit of an area sum.
const AREA_EPS: f64 = 1e-9;

/// Timed repeats of extraction and of the selection ladder; the report carries
/// the median of each.
pub const REPEATS: usize = 5;

/// Configuration of the gate experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateBenchConfig {
    /// Shape of the duplicate-heavy synthetic corpus.
    pub corpus: CorpusConfig,
    /// Seed of the synthetic corpus.
    pub seed: u64,
    /// Also append the bundled MediaBench-like kernels to the corpus.
    pub include_kernels: bool,
    /// The constraint set shared by the whole corpus.
    pub constraints: Constraints,
    /// Per-program instruction budget (`Ninstr`) of the per-block baseline.
    pub max_instructions: usize,
    /// Optional exploration budget forwarded to the exact search and to the
    /// template-selection branch-and-bound (the ladder rows use the budgeted
    /// selector; the oracle cross-check stays exact on a small head slice).
    pub exploration_budget: Option<u64>,
    /// Area budgets, as fractions of the per-block baseline's total area.
    pub budget_fractions: Vec<f64>,
    /// How many (density-leading) templates the oracle cross-check covers.
    pub oracle_templates: usize,
}

impl Default for TemplateBenchConfig {
    fn default() -> Self {
        TemplateBenchConfig {
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
            budget_fractions: vec![0.25, 0.5, 0.75, 1.0],
            oracle_templates: 12,
        }
    }
}

impl TemplateBenchConfig {
    /// A reduced configuration for CI smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        TemplateBenchConfig {
            corpus: CorpusConfig {
                programs: 6,
                blocks_per_program: 4,
                templates: 2,
                template_nodes: 13,
                unique_per_program: 1,
            },
            include_kernels: false,
            budget_fractions: vec![0.5, 1.0],
            oracle_templates: 10,
            ..TemplateBenchConfig::default()
        }
    }

    fn programs(&self) -> Vec<Program> {
        let mut programs = duplicate_heavy(&self.corpus, self.seed);
        if self.include_kernels {
            programs.extend(suite::mediabench_like());
        }
        programs
    }
}

/// One area-budget row of the Pareto comparison.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct BudgetRow {
    /// Budget as a fraction of the per-block baseline's total area.
    pub fraction: f64,
    /// The absolute area budget both policies spend under.
    pub area_budget: f64,
    /// Dynamic cycles saved by the cross-site template selection.
    pub template_savings: f64,
    /// Area the template selection actually spent.
    pub template_area: f64,
    /// Number of templates chosen.
    pub templates_chosen: u64,
    /// Sites (block-local cut instances) the chosen templates cover.
    pub sites_covered: u64,
    /// Whole-corpus speed-up of the template selection.
    pub template_speedup: f64,
    /// Dynamic cycles saved by the per-block baseline under the same budget.
    pub baseline_savings: f64,
    /// Area the per-block baseline actually spent.
    pub baseline_area: f64,
    /// Per-block cuts the baseline affords (each paying its own area).
    pub baseline_cuts: u64,
    /// Whole-corpus speed-up of the per-block baseline.
    pub baseline_speedup: f64,
}

/// The full gate result, as serialised into `BENCH_templates.json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TemplateBenchReport {
    /// Number of programs in the corpus.
    pub programs: u64,
    /// Logical CPUs available to the run.
    pub nproc: u64,
    /// Git revision the gate ran from.
    pub git_revision: String,
    /// Timed repeats behind `extract_ms` and `select_ms`.
    pub repeats: u64,
    /// Total basic blocks across the corpus.
    pub blocks: u64,
    /// Templates extracted (isomorphism classes with positive savings).
    pub templates_extracted: u64,
    /// Total sites across all templates.
    pub sites_total: u64,
    /// Whether the branch-and-bound selector matched the brute-force oracle.
    pub oracle_identical: bool,
    /// Whether every row's template savings matched or beat the baseline.
    pub cross_site_wins: bool,
    /// Wall-clock of template extraction, milliseconds (median of the repeats).
    pub extract_ms: f64,
    /// Wall-clock of all budget selections together, milliseconds (median of the
    /// repeats).
    pub select_ms: f64,
    /// Wall-clock of the brute-force oracle cross-check, milliseconds (one run).
    pub oracle_ms: f64,
    /// One row per budget fraction, ascending.
    pub rows: Vec<BudgetRow>,
}

/// The per-block baseline: every corpus-selected cut as an independent
/// instruction paying its own area, ordered best-first deterministically.
fn baseline_cuts(programs: &[Program], config: &TemplateBenchConfig) -> Vec<(f64, f64)> {
    let model = DefaultCostModel::new();
    let options = CorpusOptions::new(config.constraints)
        .with_driver(DriverOptions::new(config.max_instructions))
        .with_exploration_budget(config.exploration_budget);
    let outcome = run_corpus(programs, &model, &options);
    let mut cuts: Vec<(f64, f64)> = Vec::new();
    for (program, selection) in programs.iter().zip(&outcome.selections) {
        for chosen in &selection.chosen {
            cuts.push((
                chosen.weighted_saving(program),
                chosen.identified.evaluation.area,
            ));
        }
    }
    // Best saving first; ties by smaller area, then by discovery order (the sort
    // is stable), so the greedy spend below is deterministic.
    cuts.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.total_cmp(&b.1)));
    cuts
}

/// Greedy baseline spend: walk the best-first cut list, take whatever still fits.
fn spend_baseline(cuts: &[(f64, f64)], budget: f64) -> (f64, f64, u64) {
    let (mut savings, mut area, mut taken) = (0.0f64, 0.0f64, 0u64);
    for &(saving, cut_area) in cuts {
        if area + cut_area <= budget + AREA_EPS {
            savings += saving;
            area += cut_area;
            taken += 1;
        }
    }
    (savings, area, taken)
}

/// Whole-corpus software baseline cycles (exec-count-weighted).
fn corpus_cycles(programs: &[Program], model: &DefaultCostModel) -> f64 {
    programs
        .iter()
        .flat_map(|program| program.blocks().iter())
        .map(|dfg| {
            let per_execution: u64 = dfg
                .iter_nodes()
                .map(|(_, node)| u64::from(model.software_cycles(node)))
                .sum();
            dfg.exec_count() as f64 * per_execution as f64
        })
        .sum()
}

/// The selector-vs-oracle cross-check over the density-leading templates.
fn oracle_agrees(templates: &[Template], budgets: &[f64], cap: usize) -> bool {
    let head = &templates[..templates.len().min(cap)];
    budgets.iter().all(|&area| {
        let budget = TemplateBudget::new(area);
        let (selection, _) = select_templates(head, budget);
        selection == select_templates_exhaustive(head, budget)
    })
}

/// Runs the gate: both policies at every budget, oracle cross-check, Pareto rows.
#[must_use]
pub fn run(config: &TemplateBenchConfig) -> TemplateBenchReport {
    let programs = config.programs();
    let model = DefaultCostModel::new();
    let cuts = baseline_cuts(&programs, config);
    let full_area: f64 = cuts.iter().map(|&(_, area)| area).sum();
    let baseline_cycles = corpus_cycles(&programs, &model);

    let mut extract_times = Vec::with_capacity(REPEATS);
    let mut select_times = Vec::with_capacity(REPEATS);
    let mut templates = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        templates = extract_templates(
            &programs,
            &model,
            config.constraints,
            config.exploration_budget,
        );
        extract_times.push(start.elapsed().as_secs_f64() * 1_000.0);
        let start = Instant::now();
        rows = select_ladder(&templates, &cuts, full_area, baseline_cycles, config);
        select_times.push(start.elapsed().as_secs_f64() * 1_000.0);
    }
    let sites_total: u64 = templates.iter().map(|t| t.sites.len() as u64).sum();

    let start = Instant::now();
    let budgets: Vec<f64> = rows.iter().map(|row| row.area_budget).collect();
    let oracle_identical = oracle_agrees(&templates, &budgets, config.oracle_templates);
    let oracle_ms = start.elapsed().as_secs_f64() * 1_000.0;

    let cross_site_wins = rows
        .iter()
        .all(|row| row.template_savings >= row.baseline_savings - 1e-6);
    TemplateBenchReport {
        programs: programs.len() as u64,
        nproc: crate::nproc(),
        git_revision: crate::git_revision(),
        repeats: REPEATS as u64,
        blocks: programs.iter().map(|p| p.blocks().len() as u64).sum(),
        templates_extracted: templates.len() as u64,
        sites_total,
        oracle_identical,
        cross_site_wins,
        extract_ms: crate::median(&extract_times),
        select_ms: crate::median(&select_times),
        oracle_ms,
        rows,
    }
}

/// The budgeted selection at every budget fraction, next to the per-block baseline
/// spending the same area.
fn select_ladder(
    templates: &[Template],
    cuts: &[(f64, f64)],
    full_area: f64,
    baseline_cycles: f64,
    config: &TemplateBenchConfig,
) -> Vec<BudgetRow> {
    config
        .budget_fractions
        .iter()
        .map(|&fraction| {
            let area_budget = fraction * full_area;
            let (selection, _) = select_templates_budgeted(
                templates,
                TemplateBudget::new(area_budget),
                config.exploration_budget,
            );
            let sites_covered: u64 = selection
                .chosen
                .iter()
                .map(|c| c.sites_taken.len() as u64)
                .sum();
            let (baseline_savings, baseline_area, baseline_taken) =
                spend_baseline(cuts, area_budget);
            BudgetRow {
                fraction,
                area_budget,
                template_savings: selection.total_savings,
                template_area: selection.total_area,
                templates_chosen: selection.chosen.len() as u64,
                sites_covered,
                template_speedup: clamped_speedup(baseline_cycles, selection.total_savings),
                baseline_savings,
                baseline_area,
                baseline_cuts: baseline_taken,
                baseline_speedup: clamped_speedup(baseline_cycles, baseline_savings),
            }
        })
        .collect()
}

/// Coverage-regression check on the report: savings must grow (weakly) with the
/// budget, and the full-area row must cover at least one site. Site *count* is not
/// required to be monotone — a larger budget can legitimately trade many cheap sites
/// for fewer, richer ones, as long as savings never drop.
#[must_use]
pub fn coverage_is_monotonic(report: &TemplateBenchReport) -> bool {
    let monotonic = report
        .rows
        .windows(2)
        .all(|pair| pair[1].template_savings >= pair[0].template_savings - 1e-6);
    monotonic && report.rows.last().is_some_and(|row| row.sites_covered > 0)
}

/// Renders the report as the `BENCH_templates.json` payload.
#[must_use]
pub fn to_json(report: &TemplateBenchReport) -> String {
    serde::json::to_string_pretty(report)
}

/// Renders the report as a small Markdown table.
#[must_use]
pub fn markdown(report: &TemplateBenchReport) -> String {
    let mut text = String::from(
        "| budget | templates | sites | template savings | speedup | \
         baseline cuts | baseline savings | speedup |\n\
         |---:|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for row in &report.rows {
        text.push_str(&format!(
            "| {:.2} | {} | {} | {:.1} | {:.4} | {} | {:.1} | {:.4} |\n",
            row.fraction,
            row.templates_chosen,
            row.sites_covered,
            row.template_savings,
            row.template_speedup,
            row.baseline_cuts,
            row.baseline_savings,
            row.baseline_speedup,
        ));
    }
    text.push_str(&format!(
        "\n{} templates over {} sites ({} blocks), oracle identical: {}, \
         cross-site wins: {}\n",
        report.templates_extracted,
        report.sites_total,
        report.blocks,
        report.oracle_identical,
        report.cross_site_wins,
    ));
    text.push_str(&format!(
        "extract {:.1} ms, select {:.1} ms (medians of {} repeats), oracle {:.1} ms\n",
        report.extract_ms, report.select_ms, report.repeats, report.oracle_ms,
    ));
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_reports_oracle_identity_and_cross_site_wins() {
        let report = run(&TemplateBenchConfig::quick());
        assert!(report.oracle_identical, "{report:?}");
        assert!(report.cross_site_wins, "{report:?}");
        assert!(coverage_is_monotonic(&report), "{report:?}");
        assert!(report.templates_extracted > 0);
        assert!(report.sites_total >= report.templates_extracted);
        assert_eq!(report.repeats, REPEATS as u64);
        let json = to_json(&report);
        for field in [
            "\"oracle_identical\"",
            "\"cross_site_wins\"",
            "\"template_savings\"",
            "\"baseline_savings\"",
            "\"sites_covered\"",
            "\"area_budget\"",
            "\"oracle_ms\"",
            "\"nproc\"",
            "\"repeats\"",
            "\"git_revision\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(markdown(&report).contains("oracle identical: true"));
    }
}
