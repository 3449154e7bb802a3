//! The program-level identification driver.
//!
//! One [`Identifier`] works on a single basic block; real applications have many blocks,
//! and the per-block searches are completely independent. The driver fans them out with
//! `rayon` and merges the results into a [`SelectionResult`] whose content is
//! **deterministic and identical whether the fan-out runs parallel or sequential**:
//! per-block outcomes are collected in block order before any cross-block decision is
//! made, statistics are summed in block order, and every tie-break is index-based.
//!
//! Two merge strategies cover all bundled algorithms, chosen automatically through
//! [`Identifier::refines_under_exclusion`]:
//!
//! * **iterative** (exact algorithms): repeatedly identify on every block whose
//!   exclusion set changed, commit the globally best candidate, exclude its nodes and
//!   re-identify that block — the Section 6.3 strategy, generalised to any identifier;
//! * **one-shot** (baselines): identify every block once, pool all disjoint candidates
//!   and commit them greedily by dynamic saving — the cross-block strategy the paper
//!   applies to the prior-art techniques.

use ise_hw::CostModel;
use ise_ir::Program;
use rayon::prelude::*;

use crate::constraints::Constraints;
use crate::cut::CutSet;
use crate::search::{IdentifiedCut, SearchOutcome};
use crate::selection::{ChosenCut, SelectionResult};

use super::Identifier;

/// Options for the program-level driver.
///
/// Construction goes through one builder path: start from [`DriverOptions::new`] (or
/// [`DriverOptions::default`], which places no bound on the instruction count) and
/// refine with the `with_*`/[`sequential`](DriverOptions::sequential) methods. The
/// fields stay public for pattern matching and serialisation, but every front-end in
/// the workspace constructs options through the builder.
///
/// # Parallelism
///
/// Every basic block's search is an independent `rayon` task when
/// [`parallel`](Self::parallel) is set (the default). The result is byte-identical to
/// the fully sequential run, whatever the thread count, so the field is purely a
/// wall-clock knob: it has no snapshot overhead and scales as long as the program has
/// more (comparably sized) blocks than cores.
///
/// Pool fills split on their own. Under [`parallel`](Self::parallel), a pool-backed
/// sweep fills every block of at least 28 nodes with the top 4 levels of its walk
/// split into subtree tasks, when no exploration budget applies; a refresh round that
/// runs such a fill does not also fan its blocks out, so block fan-out and fill splits
/// never nest. No option controls this, and the fills are byte-identical either way.
/// Corpus runs and template extraction keep sequential fills: their parallelism is
/// across programs.
///
/// On the wire, the fields added after the first format are optional and default to
/// the behaviour older request files were written against. Retired keys
/// (`intra_block_levels`, `block_dedup`) are skipped like any unknown key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DriverOptions {
    /// Maximum number of special instructions to select (`Ninstr`).
    pub max_instructions: usize,
    /// Fan identification out across basic blocks with `rayon`. The result is
    /// byte-identical to the sequential path; this only trades wall-clock for cores.
    pub parallel: bool,
    /// Allow sweep front-ends (the [`SweepPlanner`](super::sweep::SweepPlanner),
    /// `Session::sweep`, the `fig11`/`sweep` benchmarks) to answer covered constraint
    /// pairs from a memoised [cut pool](crate::pool) instead of re-running the
    /// exponential identification per pair. Pool-backed answers are byte-identical to
    /// the direct per-pair searches — including the `identifier_calls` and
    /// `cuts_considered` accounting — so this knob only trades enumeration work for
    /// memory. It has no effect on single-pair runs. On by default; switch off to force
    /// the reference per-pair path (the CLI and benchmarks expose this as `--direct`).
    #[serde(default = "enabled")]
    pub cut_pool: bool,
}

/// The wire default of `cut_pool`.
fn enabled() -> bool {
    true
}

impl Default for DriverOptions {
    /// Parallel selection with no bound on the instruction count: the driver keeps
    /// committing instructions until no profitable cut remains.
    fn default() -> Self {
        DriverOptions::new(usize::MAX)
    }
}

impl DriverOptions {
    /// Parallel driver options selecting up to `max_instructions` instructions.
    #[must_use]
    pub fn new(max_instructions: usize) -> Self {
        DriverOptions {
            max_instructions,
            parallel: true,
            cut_pool: true,
        }
    }

    /// Enables or disables the memoised cut pool for sweep front-ends (see the field
    /// documentation; single-pair runs are unaffected either way).
    #[must_use]
    pub fn with_cut_pool(mut self, cut_pool: bool) -> Self {
        self.cut_pool = cut_pool;
        self
    }

    /// Does nothing: the identical-block memo this switched is gone. Blocks repeated
    /// within one program are isomorphic rather than byte-identical, and the corpus
    /// driver already shares isomorphic blocks. Kept so that existing callers build;
    /// the retired `block_dedup` wire key is skipped like any unknown key.
    pub fn with_block_dedup(self, _block_dedup: bool) -> Self {
        self
    }

    /// Switches the per-block fan-out to the sequential path.
    #[must_use]
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }
}

/// Runs `identifier` once on each listed block (`(block_index, exclusions)` pairs) and
/// returns the outcomes in the same order, fanned out with `rayon` when
/// `options.parallel` is set.
fn identify_blocks(
    program: &Program,
    identifier: &dyn Identifier,
    work: &[(usize, Option<&CutSet>)],
    constraints: Constraints,
    model: &dyn CostModel,
    options: DriverOptions,
) -> Vec<SearchOutcome> {
    let run = |&(block_index, excluded): &(usize, Option<&CutSet>)| {
        identifier.identify_excluding(program.block(block_index), excluded, &constraints, model)
    };
    if options.parallel && work.len() > 1 {
        work.par_iter().map(run).collect()
    } else {
        work.iter().map(run).collect()
    }
}

/// Identifies candidate instructions on every block of `program` (no exclusions) and
/// returns one outcome per block, in block order.
fn identify_program(
    program: &Program,
    identifier: &dyn Identifier,
    constraints: Constraints,
    model: &dyn CostModel,
    options: DriverOptions,
) -> Vec<SearchOutcome> {
    let work: Vec<(usize, Option<&CutSet>)> =
        (0..program.block_count()).map(|b| (b, None)).collect();
    identify_blocks(program, identifier, &work, constraints, model, options)
}

/// Selects up to `options.max_instructions` instructions across the whole program using
/// `identifier`, with the per-block identification fanned out in parallel.
///
/// The merge strategy follows [`Identifier::refines_under_exclusion`]; see the module
/// documentation. The result is deterministic for a given input and identical for the
/// parallel and sequential paths.
#[must_use]
pub fn select_program(
    program: &Program,
    identifier: &dyn Identifier,
    constraints: Constraints,
    model: &dyn CostModel,
    options: DriverOptions,
) -> SelectionResult {
    if identifier.refines_under_exclusion() {
        iterative_selection(program, identifier, constraints, model, options)
    } else {
        select_one_shot(program, identifier, constraints, model, options)
    }
}

/// One per-block answer of a refresh round of the iterative strategy: what the
/// strategy consumes from an identifier invocation (or from a pool answer standing in
/// for one — see [`super::CorpusPool`]).
pub(crate) struct BlockAnswer {
    /// The best candidate cut of the block under the current exclusions.
    pub best: Option<IdentifiedCut>,
    /// `cuts_considered` of the (actual or reconstructed) invocation.
    pub cuts_considered: u64,
}

/// Picks the block whose cached candidate saves the most dynamic cycles (merit ×
/// block execution count); ties resolve to the highest block index.
fn best_weighted_block(
    program: &Program,
    candidate: &[Option<IdentifiedCut>],
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (block_index, identified) in candidate.iter().enumerate() {
        let Some(identified) = identified.as_ref() else {
            continue;
        };
        let weighted = identified.evaluation.merit * program.block(block_index).exec_count() as f64;
        if best.is_none_or(|(_, best_weighted)| weighted >= best_weighted) {
            best = Some((block_index, weighted));
        }
    }
    best
}

/// The iterative strategy loop, generic over how a round's stale blocks are refreshed.
///
/// `refresh` receives the `(block_index, exclusions)` pairs whose exclusion set changed
/// and returns one [`BlockAnswer`] per pair, in order. Every caller — the direct driver
/// below and the pool-backed [`super::CorpusPool`] behind the corpus driver and the
/// [`super::sweep::SweepPlanner`] — shares this loop, so the
/// commit order, tie-breaks and `identifier_calls` accounting cannot drift between the
/// direct and the memoised path (the differential test-suite asserts they are
/// byte-identical).
pub(crate) fn iterative_selection_core(
    program: &Program,
    max_instructions: usize,
    mut refresh: impl FnMut(&[(usize, &CutSet)]) -> Vec<BlockAnswer>,
) -> SelectionResult {
    let block_count = program.block_count();
    let mut excluded: Vec<CutSet> = program.blocks().iter().map(CutSet::for_dfg).collect();
    let mut candidate: Vec<Option<IdentifiedCut>> = vec![None; block_count];
    let mut stale: Vec<bool> = vec![true; block_count];
    // Cuts already committed per block, in commit order: a new candidate must stay
    // convex once these are contracted (see `cut::is_convex_under_contractions`),
    // otherwise the selection could not be collapsed into AFU instructions.
    let mut committed: Vec<Vec<CutSet>> = vec![Vec::new(); block_count];
    let mut result = SelectionResult {
        chosen: Vec::new(),
        total_weighted_saving: 0.0,
        identifier_calls: 0,
        cuts_considered: 0,
    };

    while result.chosen.len() < max_instructions {
        let stale_blocks: Vec<usize> = (0..block_count).filter(|&b| stale[b]).collect();
        let work: Vec<(usize, &CutSet)> = stale_blocks.iter().map(|&b| (b, &excluded[b])).collect();
        let answers = refresh(&work);
        let mut any_rejected = false;
        for (&block_index, answer) in stale_blocks.iter().zip(answers) {
            result.identifier_calls += 1;
            result.cuts_considered += answer.cuts_considered;
            let mut rejected = false;
            candidate[block_index] = answer.best.filter(|identified| {
                let dfg = program.block(block_index);
                let convex = crate::cut::is_convex_under_contractions(
                    dfg,
                    &identified.cut,
                    &committed[block_index],
                );
                if !convex {
                    // The candidate interlocks with an earlier instruction of this
                    // block (it has both ancestors and descendants inside one).
                    // Exclude only its downstream side — the nodes fed by a committed
                    // instruction — and re-identify: the upstream side remains
                    // available, so the retry can still salvage a smaller cut there.
                    // The block stays stale and no commit happens until every stale
                    // block has a valid answer.
                    let downstream = crate::cut::downstream_of(dfg, &committed[block_index]);
                    let mut blocked = CutSet::for_dfg(dfg);
                    for id in identified.cut.iter().filter(|&id| downstream.contains(id)) {
                        blocked.insert(id);
                    }
                    if blocked.is_empty() || blocked.len() == identified.cut.len() {
                        // Degenerate split: fall back to excluding the whole cut so
                        // the retry loop always makes progress.
                        blocked = identified.cut.clone();
                    }
                    excluded[block_index].union_with(&blocked);
                    rejected = true;
                }
                convex
            });
            stale[block_index] = rejected;
            any_rejected |= rejected;
        }
        if any_rejected {
            continue;
        }
        // Commit the candidate saving the most dynamic cycles.
        let Some((block_index, weighted)) = best_weighted_block(program, &candidate) else {
            break;
        };
        let Some(identified) = candidate[block_index].take() else {
            break;
        };
        if weighted <= 0.0 {
            break;
        }
        excluded[block_index].union_with(&identified.cut);
        committed[block_index].push(identified.cut.clone());
        stale[block_index] = true;
        result.total_weighted_saving += weighted;
        result.chosen.push(ChosenCut {
            block_index,
            identified,
        });
    }
    result
}

/// Iterative strategy: re-identify blocks whose exclusion set changed, commit the best.
fn iterative_selection(
    program: &Program,
    identifier: &dyn Identifier,
    constraints: Constraints,
    model: &dyn CostModel,
    options: DriverOptions,
) -> SelectionResult {
    iterative_selection_core(program, options.max_instructions, |work| {
        let work: Vec<(usize, Option<&CutSet>)> =
            work.iter().map(|&(b, excl)| (b, Some(excl))).collect();
        identify_blocks(program, identifier, &work, constraints, model, options)
            .into_iter()
            .map(|outcome| BlockAnswer {
                best: outcome.best,
                cuts_considered: outcome.stats.cuts_considered,
            })
            .collect()
    })
}

/// One-shot strategy: pool all per-block candidates, commit greedily by dynamic saving.
fn select_one_shot(
    program: &Program,
    identifier: &dyn Identifier,
    constraints: Constraints,
    model: &dyn CostModel,
    options: DriverOptions,
) -> SelectionResult {
    let outcomes = identify_program(program, identifier, constraints, model, options);
    let mut result = SelectionResult {
        chosen: Vec::new(),
        total_weighted_saving: 0.0,
        identifier_calls: program.block_count() as u64,
        cuts_considered: outcomes.iter().map(|o| o.stats.cuts_considered).sum(),
    };

    let mut pool: Vec<(usize, IdentifiedCut, f64)> = Vec::new();
    for (block_index, outcome) in outcomes.into_iter().enumerate() {
        let weight = program.block(block_index).exec_count() as f64;
        for candidate in outcome.candidates {
            let weighted = candidate.evaluation.merit * weight;
            if weighted > 0.0 {
                pool.push((block_index, candidate, weighted));
            }
        }
    }
    // Stable sort: equal savings keep block order, making the commit order deterministic.
    pool.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));

    for (block_index, candidate, weighted) in pool {
        if result.chosen.len() >= options.max_instructions {
            break;
        }
        let overlaps = result.chosen.iter().any(|chosen| {
            chosen.block_index == block_index && chosen.identified.cut.intersects(&candidate.cut)
        });
        if overlaps {
            continue;
        }
        // Skip candidates that would interlock with an already-accepted instruction of
        // the same block: collapsing the accepted cut would leave this one non-convex.
        let accepted: Vec<CutSet> = result
            .chosen
            .iter()
            .filter(|chosen| chosen.block_index == block_index)
            .map(|chosen| chosen.identified.cut.clone())
            .collect();
        if !crate::cut::is_convex_under_contractions(
            program.block(block_index),
            &candidate.cut,
            &accepted,
        ) {
            continue;
        }
        result.total_weighted_saving += weighted;
        result.chosen.push(ChosenCut {
            block_index,
            identified: candidate,
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MultiCut, SingleCut};
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    fn toy_program() -> Program {
        let mut p = Program::new("toy");

        let mut b = DfgBuilder::new("hot_mac");
        b.exec_count(1000);
        let x = b.input("x");
        let y = b.input("y");
        let acc = b.input("acc");
        let m = b.mul(x, y);
        let s = b.add(m, acc);
        let n = b.mul(s, y);
        let t = b.add(n, x);
        b.output("acc", t);
        p.add_block(b.finish());

        let mut b = DfgBuilder::new("warm_sat");
        b.exec_count(100);
        let v = b.input("v");
        let lo = b.input("lo");
        let hi = b.input("hi");
        let clipped_hi = b.min(v, hi);
        let clipped = b.max(clipped_hi, lo);
        let scaled = b.shl(clipped, b.imm(1));
        b.output("o", scaled);
        p.add_block(b.finish());

        // A single one-cycle operation: replacing it with a one-cycle instruction saves
        // nothing, so no identifier ever proposes a cut here.
        let mut b = DfgBuilder::new("cold_bits");
        b.exec_count(1);
        let a = b.input("a");
        let c = b.input("c");
        let x1 = b.xor(a, c);
        b.output("o", x1);
        p.add_block(b.finish());

        p
    }

    #[test]
    fn parallel_and_sequential_paths_are_identical() {
        let p = toy_program();
        let model = DefaultCostModel::new();
        for identifier in [&SingleCut::new() as &dyn Identifier, &MultiCut::new(2)] {
            for constraints in [Constraints::new(2, 1), Constraints::new(4, 2)] {
                let parallel =
                    select_program(&p, identifier, constraints, &model, DriverOptions::new(8));
                let sequential = select_program(
                    &p,
                    identifier,
                    constraints,
                    &model,
                    DriverOptions::new(8).sequential(),
                );
                assert_eq!(parallel, sequential, "{}", identifier.name());
            }
        }
    }

    #[test]
    fn driver_respects_the_instruction_budget_and_block_disjointness() {
        let p = toy_program();
        let model = DefaultCostModel::new();
        let result = select_program(
            &p,
            &SingleCut::new(),
            Constraints::new(4, 2),
            &model,
            DriverOptions::new(2),
        );
        assert!(result.len() <= 2);
        for i in 0..result.chosen.len() {
            for j in i + 1..result.chosen.len() {
                if result.chosen[i].block_index == result.chosen[j].block_index {
                    assert!(!result.chosen[i]
                        .identified
                        .cut
                        .intersects(&result.chosen[j].identified.cut));
                }
            }
        }
    }

    #[test]
    fn identify_program_returns_one_outcome_per_block() {
        let p = toy_program();
        let model = DefaultCostModel::new();
        let outcomes = identify_program(
            &p,
            &SingleCut::new(),
            Constraints::new(4, 2),
            &model,
            DriverOptions::default(),
        );
        assert_eq!(outcomes.len(), p.block_count());
        // The hot MAC block has a profitable cut; the cold logic block does not.
        assert!(outcomes[0].best.is_some());
        assert!(outcomes[2].best.is_none());

        // Four copies of one block (an unrolled loop) get four equal outcomes, and
        // selection across them commits one cut in each.
        let mut p = Program::new("unrolled");
        for i in 0..4 {
            let mut b = DfgBuilder::new(format!("body_{i}"));
            b.exec_count(500);
            let x = b.input("x");
            let y = b.input("y");
            let acc = b.input("acc");
            let m = b.mul(x, y);
            let s = b.add(m, acc);
            b.output("acc", s);
            p.add_block(b.finish());
        }
        let constraints = Constraints::new(4, 2);
        let options = DriverOptions::new(4).sequential();
        let outcomes = identify_program(&p, &SingleCut::new(), constraints, &model, options);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| o == &outcomes[0]));
        let result = select_program(&p, &SingleCut::new(), constraints, &model, options);
        assert_eq!(result.chosen.len(), 4);
    }

    #[test]
    fn options_deserialise_from_the_pre_split_wire_format() {
        // The first wire format (no `cut_pool`) keeps parsing, defaulting to the
        // pool-backed sweep (which changes no result).
        let old = r#"{"max_instructions": 4, "parallel": true}"#;
        let options: DriverOptions = serde::json::from_str(old).expect("old wire format");
        assert_eq!(options, DriverOptions::new(4));

        // Formats that carried the retired `intra_block_levels` split or the retired
        // `block_dedup` memo keep parsing: those keys are ignored like any unknown key.
        let split = r#"{"max_instructions": 4, "parallel": true, "intra_block_levels": 3}"#;
        let options: DriverOptions = serde::json::from_str(split).expect("split wire format");
        assert_eq!(options, DriverOptions::new(4));
        let split = r#"{"max_instructions": 4, "parallel": true, "intra_block_levels": 3, "cut_pool": false}"#;
        let options: DriverOptions = serde::json::from_str(split).expect("split wire format");
        assert_eq!(options, DriverOptions::new(4).with_cut_pool(false));
        for dedup in ["true", "false"] {
            let memo = format!(
                r#"{{"max_instructions": 4, "parallel": true, "cut_pool": false, "block_dedup": {dedup}}}"#
            );
            let options: DriverOptions = serde::json::from_str(&memo).expect("memo wire format");
            assert_eq!(options, DriverOptions::new(4).with_cut_pool(false));
        }

        let new = r#"{"max_instructions": 4, "parallel": true, "cut_pool": false}"#;
        let options: DriverOptions = serde::json::from_str(new).expect("current wire format");
        assert_eq!(options, DriverOptions::new(4).with_cut_pool(false));
        // The current format round-trips byte-identically.
        assert_eq!(
            serde::json::to_string(&options),
            new.replace(": ", ":").replace(", ", ",")
        );

        let bad = r#"{"max_instructions": 4, "parallel": true, "cut_pool": 3}"#;
        assert_eq!(
            serde::json::from_str::<DriverOptions>(bad)
                .unwrap_err()
                .to_string(),
            "field `cut_pool` of `DriverOptions`: expected a boolean, found an integer"
        );
    }

    #[test]
    fn empty_program_selects_nothing() {
        let p = Program::new("empty");
        let model = DefaultCostModel::new();
        let result = select_program(
            &p,
            &SingleCut::new(),
            Constraints::new(4, 2),
            &model,
            DriverOptions::new(4),
        );
        assert!(result.is_empty());
        assert_eq!(result.identifier_calls, 0);
    }
}
