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

use std::collections::HashMap;

use ise_hw::CostModel;
use ise_ir::{NodeId, Program};
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
/// # Two-level parallelism
///
/// The driver exposes two independent, composable parallelism axes; both are
/// deterministic (byte-identical to the fully sequential run, whatever the thread
/// count), so they are purely wall-clock knobs:
///
/// * **across blocks** ([`parallel`](Self::parallel)) — every basic block's search is
///   an independent `rayon` task. This is the cheap, always-worthwhile level: it has no
///   snapshot overhead and scales as long as the program has more (comparably sized)
///   blocks than cores. It is on by default.
/// * **inside a block** ([`intra_block_levels`](Self::intra_block_levels)) — the top
///   `k` levels of a block's branch-and-bound decision tree are split into up to
///   `arity^k` independent subtree tasks (see [`crate::kernel::SearchKernel`]). This is
///   the only level that helps when the work is concentrated in one large block — the
///   paper's Fig. 8 worst case, where block fan-out leaves all but one core idle. It
///   costs one state snapshot per subtree, so it only pays off when a block's search is
///   much more expensive than `O(nodes)` — as a rule of thumb, blocks of ≳30 nodes
///   under loose port constraints. `3`–`6` levels saturate typical core counts; `0`
///   (the default) disables the level. Exact searches running under an exploration
///   budget ignore the knob (a global cut budget is inherently sequential), as do the
///   linear-time baselines (no decision tree to split).
///
/// Pool fills split on their own. Under [`parallel`](Self::parallel), a pool-backed
/// sweep fills every block of at least 28 nodes with the top 4 levels of its walk
/// split into subtree tasks, when no exploration budget applies; a refresh round that
/// runs such a fill does not also fan its blocks out, so the two levels never nest. No
/// option controls this, and the fills are byte-identical either way. Corpus runs and
/// template extraction keep sequential fills: their parallelism is across programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct DriverOptions {
    /// Maximum number of special instructions to select (`Ninstr`).
    pub max_instructions: usize,
    /// Fan identification out across basic blocks with `rayon`. The result is
    /// byte-identical to the sequential path; this only trades wall-clock for cores.
    pub parallel: bool,
    /// Number of top decision-tree levels split into parallel subtree tasks *inside*
    /// each block (`0` = sequential within a block). Byte-identical to the sequential
    /// path; see the type-level documentation for when this level pays off.
    pub intra_block_levels: usize,
    /// Allow sweep front-ends (the [`SweepPlanner`](super::sweep::SweepPlanner),
    /// `Session::sweep`, the `fig11`/`sweep` benchmarks) to answer covered constraint
    /// pairs from a memoised [cut pool](crate::pool) instead of re-running the
    /// exponential identification per pair. Pool-backed answers are byte-identical to
    /// the direct per-pair searches — including the `identifier_calls` and
    /// `cuts_considered` accounting — so this knob only trades enumeration work for
    /// memory. It has no effect on single-pair runs. On by default; switch off to force
    /// the reference per-pair path (the CLI and benchmarks expose this as `--direct`).
    pub cut_pool: bool,
    /// Identify identical blocks once per round: blocks of one program whose stored
    /// representation and exclusion state are byte-equal (unrolled loop bodies,
    /// copy-pasted kernels) provably get byte-equal outcomes from any deterministic
    /// identifier, so [`identify_blocks`] runs the search on the first of each group
    /// and copies the outcome to the rest. Reported results and statistics are
    /// unchanged; only wall-clock drops. On by default.
    pub block_dedup: bool,
}

/// Hand-rolled (not derived) so that `intra_block_levels`, `cut_pool` and
/// `block_dedup` are *optional* on the wire: request files written before these fields
/// existed keep deserialising, defaulting to the behaviour they were written against
/// (sequential within a block, pool-backed sweeps, deduplicated identical blocks —
/// neither default changes any result).
impl<'de> serde::Deserialize<'de> for DriverOptions {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        fn optional<T: serde::DeserializeOwned>(
            fields: &[(String, serde::Value)],
            name: &str,
            fallback: serde::Value,
        ) -> Result<T, serde::Error> {
            let value = fields
                .iter()
                .find(|(key, _)| key == name)
                .map_or(&fallback, |(_, field)| field);
            serde::Deserialize::from_value(value).map_err(|e| {
                serde::Error::custom(format!("field `{name}` of `DriverOptions`: {e}"))
            })
        }
        let fields = serde::expect_object(value, "DriverOptions")?;
        Ok(DriverOptions {
            max_instructions: serde::expect_field(fields, "max_instructions", "DriverOptions")?,
            parallel: serde::expect_field(fields, "parallel", "DriverOptions")?,
            intra_block_levels: optional(fields, "intra_block_levels", serde::Value::Uint(0))?,
            cut_pool: optional(fields, "cut_pool", serde::Value::Bool(true))?,
            block_dedup: optional(fields, "block_dedup", serde::Value::Bool(true))?,
        })
    }
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
            intra_block_levels: 0,
            cut_pool: true,
            block_dedup: true,
        }
    }

    /// Sets the instruction budget (`Ninstr`).
    #[must_use]
    pub fn with_max_instructions(mut self, max_instructions: usize) -> Self {
        self.max_instructions = max_instructions;
        self
    }

    /// Chooses between the `rayon`-parallel and the sequential per-block fan-out.
    #[must_use]
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Sets the number of top decision-tree levels split into parallel subtree tasks
    /// inside each block (see the type-level documentation).
    #[must_use]
    pub fn with_intra_block_levels(mut self, levels: usize) -> Self {
        self.intra_block_levels = levels;
        self
    }

    /// Enables or disables the memoised cut pool for sweep front-ends (see the field
    /// documentation; single-pair runs are unaffected either way).
    #[must_use]
    pub fn with_cut_pool(mut self, cut_pool: bool) -> Self {
        self.cut_pool = cut_pool;
        self
    }

    /// Enables or disables identical-block deduplication inside [`identify_blocks`]
    /// (see the field documentation; results are identical either way).
    #[must_use]
    pub fn with_block_dedup(mut self, block_dedup: bool) -> Self {
        self.block_dedup = block_dedup;
        self
    }

    /// Switches the per-block fan-out to the sequential path.
    #[must_use]
    pub fn sequential(self) -> Self {
        self.with_parallel(false)
    }
}

/// Runs `identifier` once on each listed block (`(block_index, exclusions)` pairs) and
/// returns the outcomes in the same order. With `options.parallel` set the per-block
/// runs are fanned out with `rayon`, and `options.intra_block_levels` additionally
/// splits each block's own decision tree; with `options.block_dedup` set, work items
/// whose block structure (in stored node order) and exclusion state are byte-equal run
/// the search once and share the outcome. The returned outcomes are unaffected by all
/// three knobs.
#[must_use]
pub fn identify_blocks(
    program: &Program,
    identifier: &dyn Identifier,
    work: &[(usize, Option<&CutSet>)],
    constraints: Constraints,
    model: &dyn CostModel,
    options: DriverOptions,
) -> Vec<SearchOutcome> {
    let run = |&(block_index, excluded): &(usize, Option<&CutSet>)| {
        identifier.identify_split(
            program.block(block_index),
            excluded,
            &constraints,
            model,
            options.intra_block_levels,
        )
    };
    if options.block_dedup && work.len() > 1 {
        // Group work items by the identity serialisation of their block plus the
        // exclusion set. Equal keys mean the blocks are node-for-node identical (same
        // opcodes, operands, flags, in the same stored order), so any deterministic
        // identifier provably returns byte-equal outcomes — run the first of each
        // group and copy its outcome to the rest.
        let mut first_of: HashMap<(Vec<u8>, Vec<NodeId>), usize> = HashMap::new();
        let mut source: Vec<usize> = Vec::with_capacity(work.len());
        for (slot, &(block_index, excluded)) in work.iter().enumerate() {
            let key = (
                crate::structural::raw_key(program.block(block_index)),
                excluded.map(|cut| cut.iter().collect()).unwrap_or_default(),
            );
            source.push(*first_of.entry(key).or_insert(slot));
        }
        let rep_slots: Vec<usize> = (0..work.len())
            .filter(|&slot| source[slot] == slot)
            .collect();
        if rep_slots.len() < work.len() {
            let rep_work: Vec<(usize, Option<&CutSet>)> =
                rep_slots.iter().map(|&slot| work[slot]).collect();
            let rep_outcomes: Vec<SearchOutcome> = if options.parallel && rep_work.len() > 1 {
                rep_work.par_iter().map(run).collect()
            } else {
                rep_work.iter().map(run).collect()
            };
            let outcome_of: HashMap<usize, &SearchOutcome> = rep_slots
                .iter()
                .zip(rep_outcomes.iter())
                .map(|(&slot, outcome)| (slot, outcome))
                .collect();
            return source.iter().map(|rep| outcome_of[rep].clone()).collect();
        }
    }
    if options.parallel && work.len() > 1 {
        work.par_iter().map(run).collect()
    } else {
        work.iter().map(run).collect()
    }
}

/// Identifies candidate instructions on every block of `program` (no exclusions) and
/// returns one outcome per block, in block order.
#[must_use]
pub fn identify_program(
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
        select_iteratively(program, identifier, constraints, model, options)
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

/// The iterative strategy loop, generic over how a round's stale blocks are refreshed.
///
/// `refresh` receives the `(block_index, exclusions)` pairs whose exclusion set changed
/// and returns one [`BlockAnswer`] per pair, in order. Every caller — the direct driver
/// below and the pool-backed [`super::CorpusPool`] behind the corpus driver and the
/// [`super::sweep::SweepPlanner`] — shares this loop, so the
/// commit order, tie-breaks and `identifier_calls` accounting cannot drift between the
/// direct and the memoised path (the differential test-suite asserts they are
/// byte-identical).
pub(crate) fn select_iteratively_core(
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
        // Commit the candidate saving the most dynamic cycles (merit × block frequency);
        // ties resolve to the highest block index, exactly as in `select_iterative`
        // (the two merges share the helper, so they cannot drift apart).
        let Some((block_index, weighted)) =
            crate::selection::best_weighted_block(program, &candidate)
        else {
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
fn select_iteratively(
    program: &Program,
    identifier: &dyn Identifier,
    constraints: Constraints,
    model: &dyn CostModel,
    options: DriverOptions,
) -> SelectionResult {
    select_iteratively_core(program, options.max_instructions, |work| {
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
    use crate::selection::{select_iterative, SelectionOptions};
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
    fn single_cut_driver_reproduces_select_iterative() {
        let p = toy_program();
        let model = DefaultCostModel::new();
        for constraints in [Constraints::new(2, 1), Constraints::new(4, 2)] {
            for ninstr in [1usize, 2, 8] {
                let legacy =
                    select_iterative(&p, constraints, &model, SelectionOptions::new(ninstr));
                let engine = select_program(
                    &p,
                    &SingleCut::new(),
                    constraints,
                    &model,
                    DriverOptions::new(ninstr),
                );
                assert_eq!(legacy, engine, "{constraints}, Ninstr={ninstr}");
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
    }

    #[test]
    fn identical_blocks_share_one_search_without_changing_results() {
        // A program of repeated copies of the same block (an unrolled loop): the
        // deduplicated driver must return outcomes byte-identical to the reference
        // per-block path, statistics included.
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
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(4, 2);
        let deduped = identify_program(
            &p,
            &SingleCut::new(),
            constraints,
            &model,
            DriverOptions::default().sequential(),
        );
        let reference = identify_program(
            &p,
            &SingleCut::new(),
            constraints,
            &model,
            DriverOptions::default()
                .sequential()
                .with_block_dedup(false),
        );
        assert_eq!(deduped, reference);
        assert!(deduped.iter().all(|o| o == &deduped[0]));

        // Selection across the duplicates also matches the reference end to end.
        let fast = select_program(
            &p,
            &SingleCut::new(),
            constraints,
            &model,
            DriverOptions::new(4).sequential(),
        );
        let slow = select_program(
            &p,
            &SingleCut::new(),
            constraints,
            &model,
            DriverOptions::new(4).sequential().with_block_dedup(false),
        );
        assert_eq!(fast, slow);
        assert_eq!(fast.chosen.len(), 4);
    }

    #[test]
    fn options_deserialise_from_the_pre_split_wire_format() {
        // Request files written before `intra_block_levels` existed must keep parsing,
        // defaulting to the sequential-within-a-block behaviour.
        let old = r#"{"max_instructions": 4, "parallel": true}"#;
        let options: DriverOptions = serde::json::from_str(old).expect("old wire format");
        assert_eq!(options, DriverOptions::new(4));

        // The PR 3 wire format (no `cut_pool`) keeps parsing, defaulting to the
        // pool-backed sweep behaviour (which changes no single-pair result).
        let pr3 = r#"{"max_instructions": 4, "parallel": true, "intra_block_levels": 3}"#;
        let options: DriverOptions = serde::json::from_str(pr3).expect("PR 3 wire format");
        assert_eq!(options, DriverOptions::new(4).with_intra_block_levels(3));

        // The PR 6 wire format (no `block_dedup`) keeps parsing, defaulting to
        // deduplicated identical blocks (which changes no result).
        let pr6 = r#"{"max_instructions": 4, "parallel": true, "intra_block_levels": 3, "cut_pool": false}"#;
        let options: DriverOptions = serde::json::from_str(pr6).expect("PR 6 wire format");
        assert_eq!(
            options,
            DriverOptions::new(4)
                .with_intra_block_levels(3)
                .with_cut_pool(false)
        );

        let new = r#"{"max_instructions": 4, "parallel": true, "intra_block_levels": 3, "cut_pool": false, "block_dedup": false}"#;
        let options: DriverOptions = serde::json::from_str(new).expect("current wire format");
        assert_eq!(
            options,
            DriverOptions::new(4)
                .with_intra_block_levels(3)
                .with_cut_pool(false)
                .with_block_dedup(false)
        );
        // The current format round-trips byte-identically.
        assert_eq!(
            serde::json::to_string(&options),
            new.replace(": ", ":").replace(", ", ",")
        );

        let bad = r#"{"max_instructions": 4, "parallel": true, "intra_block_levels": -1}"#;
        assert!(serde::json::from_str::<DriverOptions>(bad).is_err());
        let bad = r#"{"max_instructions": 4, "parallel": true, "cut_pool": 3}"#;
        assert!(serde::json::from_str::<DriverOptions>(bad).is_err());
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
