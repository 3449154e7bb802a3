//! Corpus-scale identification: structural dedup and cross-program pool sharing.
//!
//! A corpus — many programs analysed under one constraint set and one cost model — is
//! full of repeated structure: unrolled loop bodies, template-instantiated filters,
//! blocks copy-pasted between programs with nothing but node numbering changed. Run
//! naively, every one of those blocks pays for its own exponential enumeration.
//!
//! The [`CorpusPool`] removes that redundancy *exactly*, and it is the crate's only
//! single-cut fill memo: the corpus driver below and the
//! [`SweepPlanner`](super::SweepPlanner) both answer through it. Every block is
//! reduced to its [`StructuralForm`]: an isomorphism-invariant
//! [`StructuralKey`](crate::structural::StructuralKey) plus the permutation between
//! original node ids and canonical positions. Blocks whose keys are byte-equal walk
//! identical search trees in the canonical order (see [`crate::structural`]), so the
//! first block to query a `(key, exclusion-state, budget group)` pays for one
//! recording enumeration ([`fill_single_cut`](crate::pool::fill_single_cut)) and the
//! fill is stored **in canonical coordinates** — making it independent of *which*
//! isomorphic block happened to fill it, and therefore independent of thread
//! scheduling. Every later query translates the canonical answer onto its own node
//! ids, filtered to the queried `(Nin, Nout)` pair, and reconstructs the effort
//! counters from the recorded attempt histogram: byte-identical to what its own
//! direct search would have produced, `identifier_calls` and `cuts_considered`
//! included (`tests/corpus_differential.rs` and `tests/sweep_differential.rs` hold
//! the proof).
//!
//! Storage lives in a [`WarmPoolCache`] (see [`super::warm`]): a run-local pool
//! creates a private cache, while serve mode shares one process-lifetime cache
//! across every request via [`run_corpus_warm`] — because fills are canonical and
//! keyed by `(structure, exclusion, budget group)`, a pre-warmed cache changes
//! nothing but the work saved.
//!
//! The corpus driver has one loop, [`run_corpus_streaming_warm`]: it pulls programs
//! in bounded chunks, shards each chunk across the work-stealing scheduler of the
//! `rayon` shim ([`rayon::sharded_map`]) — workers pull the next unanalysed program
//! from an atomic cursor, results are reassembled in input order, and per-shard
//! progress comes back as telemetry — and hands every selection to a callback.
//! [`run_corpus_warm`] and [`run_corpus`] are that loop over a borrowed slice as one
//! chunk, plus the optional template report. With [`CorpusOptions::dedup`] off the
//! same loop runs the plain per-program driver — the reference the differential
//! tests compare against, and the baseline the `corpus` benchmark measures speedups
//! from.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ise_hw::CostModel;
use ise_ir::{Dfg, Program};
use rayon::prelude::*;
use rayon::ShardProgress;

use crate::constraints::Constraints;
use crate::cut::CutSet;
use crate::pool::{fill_single_cut_split, FillOutcome};
use crate::search::IdentifiedCut;
use crate::selection::SelectionResult;
use crate::structural::StructuralForm;

use super::driver::{select_iteratively_core, BlockAnswer, DriverOptions};
use super::sweep::SweepStats;
use super::templates::{TemplateBudget, TemplateReport};
use super::warm::{
    BudgetGroup, CacheKey, CanonicalCandidate, CanonicalFill, FillEntry, WarmCacheConfig,
    WarmPoolCache,
};
use super::{Identifier, SingleCut};

/// Blocks of at least this many nodes split their pool fills across cores (see
/// [`fill_split_levels`]). Smaller fills finish in well under a millisecond, where the
/// subtree snapshots and thread spawns would cost more than they save.
const SPLIT_FILL_MIN_NODES: usize = 28;

/// Top decision-tree levels a split fill fans out: up to 16 single-cut or 81 two-cut
/// subtree tasks, enough to balance a few cores while keeping one recording sink per
/// task small.
const SPLIT_FILL_LEVELS: usize = 4;

/// How many top levels a pool fill of `dfg` splits into parallel subtree tasks:
/// [`SPLIT_FILL_LEVELS`] when the driver is parallel, no exploration budget applies (a
/// budget truncates the walk in visit order, which only the sequential walk
/// reproduces) and the block has at least [`SPLIT_FILL_MIN_NODES`] nodes; otherwise
/// `0`. The fill is byte-identical either way.
pub(crate) fn fill_split_levels(dfg: &Dfg, parallel: bool, budget: Option<u64>) -> usize {
    if parallel && budget.is_none() && dfg.node_count() >= SPLIT_FILL_MIN_NODES {
        SPLIT_FILL_LEVELS
    } else {
        0
    }
}

/// Options of one corpus run.
#[derive(Debug, Clone, Copy)]
pub struct CorpusOptions {
    /// The microarchitectural constraints every program is analysed under.
    pub constraints: Constraints,
    /// Program-driver options (instruction budget, parallelism knobs).
    pub driver: DriverOptions,
    /// Optional exploration budget per identifier invocation; pool fills run under the
    /// same budget and fall back to direct searches when they exhaust it.
    pub exploration_budget: Option<u64>,
    /// Share enumerations between structurally isomorphic blocks. Off, every program
    /// runs the plain per-program driver — the reference path, byte-identical in its
    /// results but repeating every enumeration.
    pub dedup: bool,
    /// Optional cross-site template selection: when set, the run additionally
    /// extracts instruction templates across the whole corpus and selects them under
    /// this area budget (see [`super::templates`]). Purely additive — the per-program
    /// selections are byte-identical with or without it.
    pub templates: Option<TemplateBudget>,
}

impl CorpusOptions {
    /// Dedup-enabled corpus options with default driver settings.
    #[must_use]
    pub fn new(constraints: Constraints) -> Self {
        CorpusOptions {
            constraints,
            driver: DriverOptions::default(),
            exploration_budget: None,
            dedup: true,
            templates: None,
        }
    }

    /// Sets the program-driver options.
    #[must_use]
    pub fn with_driver(mut self, driver: DriverOptions) -> Self {
        self.driver = driver;
        self
    }

    /// Sets (or clears) the per-invocation exploration budget.
    #[must_use]
    pub fn with_exploration_budget(mut self, budget: Option<u64>) -> Self {
        self.exploration_budget = budget;
        self
    }

    /// Enables or disables structural dedup.
    #[must_use]
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Sets (or clears) the cross-site template-selection budget.
    #[must_use]
    pub fn with_templates(mut self, templates: Option<TemplateBudget>) -> Self {
        self.templates = templates;
        self
    }
}

/// Effort accounting of one corpus run.
///
/// The logical counters are what the emitted [`SelectionResult`]s report — identical
/// with dedup on or off. The physical counters measure enumerations actually paid;
/// their ratio is the quantity the pool exists to improve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CorpusStats {
    /// Programs analysed.
    pub programs: u64,
    /// Basic blocks across the whole corpus.
    pub blocks_seen: u64,
    /// Distinct `(structural key, exclusion state)` slots this run touched.
    pub unique_keys: u64,
    /// Identifier invocations the results report (identical in both modes).
    pub logical_identifier_calls: u64,
    /// Cuts considered according to the results (identical in both modes).
    pub logical_cuts_considered: u64,
    /// Recording enumerations performed (pool misses, including exhausted ones).
    pub pool_fills: u64,
    /// Queries answered by translating a memoised fill — enumerations *not* paid.
    pub pool_answers: u64,
    /// Direct searches run because a fill exhausted its exploration budget.
    pub direct_calls: u64,
    /// Fills rejected for exhausting the exploration budget.
    pub exhausted_fills: u64,
    /// Cuts physically enumerated (fill walks plus direct fallbacks). With dedup off
    /// this equals `logical_cuts_considered`.
    pub physical_cuts_considered: u64,
    /// Structural-key hash collisions observed (distinct serializations, equal hash).
    /// Purely diagnostic: equality is byte-based, so collisions cost nothing but a
    /// bucket scan.
    pub key_collisions: u64,
    /// Whether the run had dedup enabled.
    pub dedup: bool,
}

impl CorpusStats {
    /// Fraction of identifier invocations answered without enumerating, in `[0, 1]`.
    #[must_use]
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.logical_identifier_calls == 0 {
            0.0
        } else {
            self.pool_answers as f64 / self.logical_identifier_calls as f64
        }
    }
}

/// Everything one corpus run produces: per-program selections in input order, the
/// effort accounting, and the scheduler's per-shard telemetry.
#[derive(Debug, Clone)]
pub struct CorpusOutcome {
    /// One selection per input program, in input order (independent of scheduling).
    pub selections: Vec<SelectionResult>,
    /// The run's effort accounting.
    pub stats: CorpusStats,
    /// How many programs each worker shard processed (telemetry; varies with
    /// scheduling, never affects `selections` or the deterministic stats).
    pub shards: Vec<ShardProgress>,
    /// The cross-site template selection, present iff [`CorpusOptions::templates`]
    /// was set.
    pub templates: Option<TemplateReport>,
}

/// Per-run bookkeeping the pool maintains under one small lock (the heavy slot
/// storage lives in the striped [`WarmPoolCache`]).
#[derive(Default)]
struct RunBook {
    /// Distinct cache slots this run touched.
    seen: HashSet<CacheKey>,
    /// First-seen canonical serialization per 64-bit hash, to surface collisions.
    hash_census: HashMap<u64, Vec<u8>>,
    collisions: u64,
}

/// The single-cut fill memo: one [`fill_single_cut`](crate::pool::fill_single_cut)
/// enumeration per distinct `(structural key, exclusion state, budget group)`,
/// answered by node-relabelling translation out of a [`WarmPoolCache`].
///
/// The fill constraints (the budget group of the cache key) and the pair a query
/// is answered under may differ, as long as the fill [covers](crate::pool::covers)
/// the pair: the corpus driver fills and answers under one constraint set, while
/// the [`SweepPlanner`](super::SweepPlanner) fills each budget group once under its
/// loosest ports and answers every pair of the group from that fill.
pub struct CorpusPool<'m> {
    model: &'m dyn CostModel,
    exploration_budget: Option<u64>,
    cache: Arc<WarmPoolCache>,
    run: Mutex<RunBook>,
    queries: AtomicU64,
    pool_fills: AtomicU64,
    exhausted_fills: AtomicU64,
    fill_cuts: AtomicU64,
    direct_calls: AtomicU64,
    direct_cuts: AtomicU64,
}

impl<'m> CorpusPool<'m> {
    /// Creates an empty pool for one cost model, backed by a private run-lifetime
    /// cache.
    #[must_use]
    pub fn new(model: &'m dyn CostModel, exploration_budget: Option<u64>) -> Self {
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
        CorpusPool::with_cache(model, exploration_budget, cache)
    }

    /// Creates a pool backed by a shared, possibly pre-warmed cache.
    ///
    /// Because fills are canonical, deterministic and keyed by budget group, a
    /// warm cache changes which queries pay for enumerations — never what any
    /// query answers. The caller is responsible for pairing the cache with the
    /// cost model its fills were computed under.
    #[must_use]
    pub fn with_cache(
        model: &'m dyn CostModel,
        exploration_budget: Option<u64>,
        cache: Arc<WarmPoolCache>,
    ) -> Self {
        CorpusPool {
            model,
            exploration_budget,
            cache,
            run: Mutex::new(RunBook::default()),
            queries: AtomicU64::new(0),
            pool_fills: AtomicU64::new(0),
            exhausted_fills: AtomicU64::new(0),
            fill_cuts: AtomicU64::new(0),
            direct_calls: AtomicU64::new(0),
            direct_cuts: AtomicU64::new(0),
        }
    }

    /// Runs the iterative selection for one program under `pair`, answering every
    /// per-block identification from fills run under the `fill` constraints, which
    /// must [cover](crate::pool::covers) the pair. `forms` holds the structural
    /// form of each block of the program, in block order.
    ///
    /// Byte-identical — selection, statistics, `identifier_calls` — to
    /// [`select_program`](super::select_program) with the `"single-cut"` identifier
    /// under `pair`, whatever mixture of fills and translations serves the queries.
    /// With `options.parallel` set and no exploration budget, a fill of a block with
    /// at least 28 nodes splits its own walk across cores, and a round that has to
    /// fill more than one slot, none of them split, answers its stale blocks in
    /// parallel instead — never both, so fan-outs do not nest. The result is the same
    /// either way.
    #[must_use]
    pub fn select_program(
        &self,
        program: &Program,
        forms: &[StructuralForm],
        fill: Constraints,
        pair: &Constraints,
        options: DriverOptions,
    ) -> SelectionResult {
        select_iteratively_core(program, options.max_instructions, |work| {
            let answer = |&(block, excluded): &(usize, &CutSet)| {
                self.answer(
                    program.block(block),
                    &forms[block],
                    excluded,
                    fill,
                    pair,
                    options,
                )
            };
            // Answering from a landed fill is too cheap to pay for spawning threads,
            // and a split fill already keeps every core busy.
            let fan_out = || {
                let mut fills = 0;
                for &(block, excluded) in work {
                    if self
                        .cache
                        .is_filled(&self.key(&forms[block], excluded, fill))
                    {
                        continue;
                    }
                    if self.split_levels(program.block(block), options) > 0 {
                        return false;
                    }
                    fills += 1;
                }
                fills > 1
            };
            if options.parallel && work.len() > 1 && fan_out() {
                work.par_iter().map(answer).collect()
            } else {
                work.iter().map(answer).collect()
            }
        })
    }

    /// How many top levels a fill of `dfg` splits under the driver `options`.
    fn split_levels(&self, dfg: &Dfg, options: DriverOptions) -> usize {
        fill_split_levels(dfg, options.parallel, self.exploration_budget)
    }

    /// Answers one `(block, exclusion)` identification query under `pair` from the
    /// fill under `fill`, filling its slot on first use. The driver `options` decide
    /// whether that fill, or the direct fallback search, splits across cores.
    fn answer(
        &self,
        dfg: &Dfg,
        form: &StructuralForm,
        excluded: &CutSet,
        fill: Constraints,
        pair: &Constraints,
        options: DriverOptions,
    ) -> BlockAnswer {
        let split_levels = self.split_levels(dfg, options);
        let cell = self.fill_slot(dfg, form, excluded, fill, split_levels);
        match cell.get().expect("fill_slot returns a filled cell") {
            FillEntry::Complete(canonical) => {
                let stats = canonical.histogram.reconstruct(pair.max_outputs);
                let best = canonical
                    .store
                    .answer(pair.max_inputs, pair.max_outputs)
                    .map(|entry| IdentifiedCut {
                        cut: form.cut_from_canonical(dfg, &entry.payload.positions),
                        evaluation: entry.payload.evaluation.clone(),
                    });
                BlockAnswer {
                    best,
                    cuts_considered: stats.cuts_considered,
                }
            }
            FillEntry::Exhausted => {
                // A truncated walk is visit-order-dependent and cannot be translated
                // or filtered; fall back to the direct search under the queried pair.
                self.direct_calls.fetch_add(1, Ordering::Relaxed);
                let identifier = SingleCut::new().with_exploration_budget(self.exploration_budget);
                let outcome = identifier.identify_split(
                    dfg,
                    Some(excluded),
                    pair,
                    self.model,
                    options.intra_block_levels,
                );
                self.direct_cuts
                    .fetch_add(outcome.stats.cuts_considered, Ordering::Relaxed);
                BlockAnswer {
                    best: outcome.best,
                    cuts_considered: outcome.stats.cuts_considered,
                }
            }
        }
    }

    /// Every Pareto candidate of one `(block, exclusion)` fill under `constraints`,
    /// in enumeration order — or, when the fill exhausted its exploration budget,
    /// the direct search's best cut.
    pub(crate) fn candidates(
        &self,
        dfg: &Dfg,
        form: &StructuralForm,
        excluded: &CutSet,
        constraints: Constraints,
    ) -> Vec<IdentifiedCut> {
        let cell = self.fill_slot(dfg, form, excluded, constraints, 0);
        match cell.get().expect("fill_slot returns a filled cell") {
            FillEntry::Complete(fill) => {
                let (entries, _) = fill.store.parts();
                entries
                    .iter()
                    .map(|entry| IdentifiedCut {
                        cut: form.cut_from_canonical(dfg, &entry.payload.positions),
                        evaluation: entry.payload.evaluation.clone(),
                    })
                    .collect()
            }
            FillEntry::Exhausted => {
                let sequential = DriverOptions::default().sequential();
                let answer =
                    self.answer(dfg, form, excluded, constraints, &constraints, sequential);
                answer.best.into_iter().collect()
            }
        }
    }

    /// The memoised fill of one `(block, exclusion)` query under the `fill`
    /// constraints, filling its slot on first use (splitting the top `split_levels`
    /// levels of that walk); the returned cell is filled.
    fn fill_slot(
        &self,
        dfg: &Dfg,
        form: &StructuralForm,
        excluded: &CutSet,
        fill: Constraints,
        split_levels: usize,
    ) -> Arc<OnceLock<FillEntry>> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let key = self.key(form, excluded, fill);
        let hash = form.key().hash();
        {
            let mut run = self.run.lock().expect("corpus pool lock poisoned");
            let newly_seen = run.seen.insert(key.clone());
            if newly_seen {
                match run.hash_census.entry(hash) {
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(form.key().bytes().to_vec());
                    }
                    std::collections::hash_map::Entry::Occupied(seen) => {
                        if seen.get() != form.key().bytes() {
                            run.collisions += 1;
                        }
                    }
                }
            }
        }
        let cell = self.cache.lookup(&key);
        let mut filled_now = false;
        let entry = cell.get_or_init(|| {
            filled_now = true;
            self.fill(dfg, form, excluded, fill, split_levels)
        });
        if filled_now {
            self.cache.record_fill(&key, entry);
        }
        cell
    }

    /// The cache key of one query: structure, canonical exclusion state and the
    /// budget group of the fill.
    fn key(&self, form: &StructuralForm, excluded: &CutSet, fill: Constraints) -> CacheKey {
        CacheKey {
            structural: form.key().clone(),
            excluded: form.to_canonical(excluded),
            group: BudgetGroup::new(&fill, self.exploration_budget),
        }
    }

    /// Performs one recording enumeration under `fill` and re-expresses it in
    /// canonical coordinates.
    fn fill(
        &self,
        dfg: &Dfg,
        form: &StructuralForm,
        excluded: &CutSet,
        fill: Constraints,
        split_levels: usize,
    ) -> FillEntry {
        self.pool_fills.fetch_add(1, Ordering::Relaxed);
        match fill_single_cut_split(
            dfg,
            Some(excluded),
            fill,
            self.model,
            self.exploration_budget,
            split_levels,
        ) {
            FillOutcome::Complete(pool) => {
                self.fill_cuts
                    .fetch_add(pool.fill_cuts_considered, Ordering::Relaxed);
                FillEntry::Complete(CanonicalFill {
                    store: pool.store.map(|identified| CanonicalCandidate {
                        positions: form.to_canonical(&identified.cut),
                        evaluation: identified.evaluation,
                    }),
                    histogram: pool.histogram,
                })
            }
            FillOutcome::Exhausted {
                fill_cuts_considered,
            } => {
                self.exhausted_fills.fetch_add(1, Ordering::Relaxed);
                self.fill_cuts
                    .fetch_add(fill_cuts_considered, Ordering::Relaxed);
                FillEntry::Exhausted
            }
        }
    }

    /// Writes the pool's physical accounting into `stats` in corpus terms: every
    /// query that did not fill counts as an answer.
    fn record_physical(&self, stats: &mut CorpusStats) {
        let run = self.run.lock().expect("corpus pool lock poisoned");
        stats.unique_keys = run.seen.len() as u64;
        stats.key_collisions = run.collisions;
        stats.pool_fills = self.pool_fills.load(Ordering::Relaxed);
        stats.pool_answers = self.queries.load(Ordering::Relaxed) - stats.pool_fills;
        stats.direct_calls = self.direct_calls.load(Ordering::Relaxed);
        stats.exhausted_fills = self.exhausted_fills.load(Ordering::Relaxed);
        stats.physical_cuts_considered =
            self.fill_cuts.load(Ordering::Relaxed) + self.direct_cuts.load(Ordering::Relaxed);
        stats.dedup = true;
    }

    /// The pool's physical accounting in sweep terms: every query answered from a
    /// complete fill counts as an answer (the logical calls are the planner's).
    pub(crate) fn sweep_stats(&self) -> SweepStats {
        let direct_calls = self.direct_calls.load(Ordering::Relaxed);
        SweepStats {
            logical_identifier_calls: 0,
            pool_fills: self.pool_fills.load(Ordering::Relaxed),
            exhausted_fills: self.exhausted_fills.load(Ordering::Relaxed),
            fill_cuts_considered: self.fill_cuts.load(Ordering::Relaxed),
            pool_answers: self.queries.load(Ordering::Relaxed) - direct_calls,
            direct_calls,
        }
    }
}

/// Analyses every program of the corpus under one constraint set, sharing
/// enumerations between structurally isomorphic blocks when
/// [`CorpusOptions::dedup`] is on.
///
/// Programs are sharded across the work-stealing scheduler (one program per task,
/// dynamic assignment); the returned selections are in input order either way, and
/// with dedup on they are byte-identical to the dedup-off reference run.
#[must_use]
pub fn run_corpus(
    programs: &[Program],
    model: &dyn CostModel,
    options: &CorpusOptions,
) -> CorpusOutcome {
    let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
    run_corpus_warm(programs, model, options, &cache)
}

/// [`run_corpus`] against a shared (possibly pre-warmed, process-lifetime) cache.
///
/// This is [`run_corpus_streaming_warm`] over the borrowed slice as one chunk, plus
/// the template report. With a warm cache the selections are still byte-identical —
/// pre-existing fills only turn this run's fills into answers (`pool_fills` drops,
/// `pool_answers` rises) — which is the property serve mode's differential soak
/// test asserts.
#[must_use]
pub fn run_corpus_warm(
    programs: &[Program],
    model: &dyn CostModel,
    options: &CorpusOptions,
    cache: &Arc<WarmPoolCache>,
) -> CorpusOutcome {
    let mut selections = Vec::with_capacity(programs.len());
    let (stats, shards) = run_corpus_streaming_warm(
        programs,
        model,
        options,
        programs.len(),
        cache,
        &mut |_, selection| selections.push(selection),
    );
    let templates = options.templates.map(|budget| {
        super::templates::run_template_selection(
            programs,
            model,
            options.constraints,
            options.exploration_budget,
            budget,
            cache,
        )
    });
    CorpusOutcome {
        selections,
        stats,
        shards,
        templates,
    }
}

/// The corpus driver: streams programs through the pool with at most
/// `max_in_flight` of them materialised at a time, and returns the run's effort
/// accounting plus the per-shard telemetry.
///
/// Programs are pulled in chunks of `max_in_flight` (at least 1), sharded across the
/// work-stealing scheduler when the driver is parallel, and handed to `emit` in
/// input order before the next chunk is pulled. Items may be owned or borrowed
/// programs; nothing is cloned. The pool is shared across chunks, and canonical
/// fills are schedule-independent, so selections are byte-identical to a
/// [`run_corpus`] over the same programs. Each program's own driver runs
/// sequentially (the programs are what is sharded). Shard telemetry sums the items
/// of each shard index over all chunks and is empty on the sequential path.
/// [`CorpusOptions::templates`] is the caller's business: template selection needs
/// every program at once.
pub fn run_corpus_streaming_warm<P: Borrow<Program> + Sync>(
    programs: impl IntoIterator<Item = P>,
    model: &dyn CostModel,
    options: &CorpusOptions,
    max_in_flight: usize,
    cache: &Arc<WarmPoolCache>,
    emit: &mut dyn FnMut(P, SelectionResult),
) -> (CorpusStats, Vec<ShardProgress>) {
    let chunk_size = max_in_flight.max(1);
    let pool = options
        .dedup
        .then(|| CorpusPool::with_cache(model, options.exploration_budget, Arc::clone(cache)));
    let identifier = SingleCut::new().with_exploration_budget(options.exploration_budget);
    let driver = options.driver.sequential();
    let run = |_, program: &P| {
        let program = program.borrow();
        match &pool {
            Some(pool) => {
                let forms: Vec<StructuralForm> =
                    program.blocks().iter().map(StructuralForm::of).collect();
                let constraints = options.constraints;
                pool.select_program(program, &forms, constraints, &constraints, driver)
            }
            None => super::select_program(program, &identifier, options.constraints, model, driver),
        }
    };

    let mut iterator = programs.into_iter();
    let mut shards: Vec<ShardProgress> = Vec::new();
    let mut stats = CorpusStats::default();
    loop {
        let chunk: Vec<P> = iterator.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        let selections = if options.driver.parallel {
            let (selections, chunk_shards) = rayon::sharded_map(&chunk, run);
            for progress in chunk_shards {
                match shards.iter_mut().find(|s| s.shard == progress.shard) {
                    Some(shard) => shard.items += progress.items,
                    None => shards.push(progress),
                }
            }
            selections
        } else {
            chunk.iter().map(|p| run(0, p)).collect()
        };
        for (program, selection) in chunk.into_iter().zip(selections) {
            stats.programs += 1;
            stats.blocks_seen += program.borrow().block_count() as u64;
            stats.logical_identifier_calls += selection.identifier_calls;
            stats.logical_cuts_considered += selection.cuts_considered;
            emit(program, selection);
        }
    }

    match &pool {
        Some(pool) => pool.record_physical(&mut stats),
        None => {
            stats.direct_calls = stats.logical_identifier_calls;
            stats.physical_cuts_considered = stats.logical_cuts_considered;
        }
    }
    (stats, shards)
}

#[cfg(test)]
mod tests {
    use super::super::templates::{extract_templates, report_selection, select_templates_budgeted};
    use super::*;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;
    use std::cell::Cell;
    use std::rc::Rc;

    fn mac_program(name: &str, swap: bool) -> Program {
        let mut p = Program::new(name);
        let mut b = DfgBuilder::new("body");
        b.exec_count(100);
        let x = b.input("x");
        let y = b.input("y");
        let acc = b.input("acc");
        let (prod, shifted) = if swap {
            let s = b.shl(y, b.imm(2));
            let m = b.mul(x, y);
            (m, s)
        } else {
            let m = b.mul(x, y);
            let s = b.shl(y, b.imm(2));
            (m, s)
        };
        let sum = b.add(prod, acc);
        let out = b.xor(sum, shifted);
        b.output("acc", out);
        p.add_block(b.finish());
        p
    }

    #[test]
    fn dedup_matches_reference_and_shares_fills() {
        let corpus: Vec<Program> = (0..6)
            .map(|i| mac_program(&format!("p{i}"), i % 2 == 1))
            .collect();
        let model = DefaultCostModel::new();
        let options = CorpusOptions::new(Constraints::new(4, 2)).with_driver(DriverOptions::new(4));
        let deduped = run_corpus(&corpus, &model, &options);
        let reference = run_corpus(&corpus, &model, &options.with_dedup(false));
        assert_eq!(deduped.selections, reference.selections);
        assert_eq!(
            deduped.stats.logical_identifier_calls,
            reference.stats.logical_identifier_calls
        );
        assert_eq!(
            deduped.stats.logical_cuts_considered,
            reference.stats.logical_cuts_considered
        );
        // Six isomorphic one-block programs: every exclusion state is enumerated once.
        assert!(deduped.stats.pool_answers > 0);
        assert!(deduped.stats.physical_cuts_considered < reference.stats.physical_cuts_considered);
        assert_eq!(deduped.stats.key_collisions, 0);
        assert_eq!(deduped.stats.blocks_seen, 6);
        // Every slot is created by the query that fills it, so the two counts agree;
        // sharing shows up as fills staying far below the logical call count.
        assert_eq!(deduped.stats.unique_keys, deduped.stats.pool_fills);
        assert!(deduped.stats.pool_fills < deduped.stats.logical_identifier_calls);
    }

    #[test]
    fn exhausted_fills_fall_back_to_direct_searches() {
        let corpus = vec![mac_program("p0", false), mac_program("p1", true)];
        let model = DefaultCostModel::new();
        let options = CorpusOptions::new(Constraints::new(4, 2))
            .with_driver(DriverOptions::new(4))
            .with_exploration_budget(Some(3));
        let deduped = run_corpus(&corpus, &model, &options);
        let reference = run_corpus(&corpus, &model, &options.with_dedup(false));
        assert_eq!(deduped.selections, reference.selections);
        assert!(deduped.stats.exhausted_fills > 0);
        assert!(deduped.stats.direct_calls > 0);
    }

    #[test]
    fn template_reporting_is_additive_and_leaves_selections_unchanged() {
        let corpus: Vec<Program> = (0..4)
            .map(|i| mac_program(&format!("p{i}"), i % 2 == 1))
            .collect();
        let model = DefaultCostModel::new();
        let options = CorpusOptions::new(Constraints::new(4, 2)).with_driver(DriverOptions::new(4));
        let plain = run_corpus(&corpus, &model, &options);
        assert!(plain.templates.is_none());
        let with_templates = run_corpus(
            &corpus,
            &model,
            &options.with_templates(Some(TemplateBudget::new(1e9))),
        );
        assert_eq!(plain.selections, with_templates.selections);
        assert_eq!(plain.stats, with_templates.stats);
        let report = with_templates
            .templates
            .expect("budget set → report present");
        assert!(report.templates_considered > 0);
        assert!(report.speedup >= 1.0);
    }

    /// A one-block program whose shape differs from [`mac_program`]'s.
    fn chain_program(name: &str) -> Program {
        let mut p = Program::new(name);
        let mut b = DfgBuilder::new("chain");
        b.exec_count(40);
        let a = b.input("a");
        let c = b.input("c");
        let x = b.xor(a, c);
        let s = b.shl(x, b.imm(3));
        let o = b.add(s, a);
        b.output("o", o);
        p.add_block(b.finish());
        p
    }

    #[test]
    fn template_extraction_reads_the_corpus_runs_cache() {
        let mut corpus: Vec<Program> = (0..4)
            .map(|i| mac_program(&format!("p{i}"), i % 2 == 1))
            .collect();
        corpus.push(chain_program("q0"));
        corpus.push(chain_program("q1"));
        let model = DefaultCostModel::new();
        // Sequential, so every cache lookup is counted the same way on every run.
        let options = CorpusOptions::new(Constraints::new(4, 2))
            .with_driver(DriverOptions::new(4).sequential())
            .with_exploration_budget(Some(100_000));
        let budget = TemplateBudget::new(1e9);
        let run = |options: &CorpusOptions| {
            let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
            let outcome = run_corpus_warm(&corpus, &model, options, &cache);
            (outcome, cache.stats().hits)
        };
        let (_, corpus_hits) = run(&options);
        let (outcome, total_hits) = run(&options.with_templates(Some(budget)));

        let templates = extract_templates(
            &corpus,
            &model,
            options.constraints,
            options.exploration_budget,
        );
        let (selection, _) =
            select_templates_budgeted(&templates, budget, options.exploration_budget);
        let private = report_selection(&corpus, &model, &templates, &selection, budget);
        assert_eq!(outcome.templates, Some(private));

        let shapes: HashSet<_> = corpus
            .iter()
            .flat_map(Program::blocks)
            .map(|dfg| StructuralForm::of(dfg).key().clone())
            .collect();
        assert_eq!(shapes.len(), 2);
        assert!(
            total_hits - corpus_hits >= shapes.len() as u64,
            "the template pass hit the corpus run's fills {} times, want at least one per shape",
            total_hits - corpus_hits
        );
    }

    #[test]
    fn empty_corpus_degrades_gracefully() {
        let model = DefaultCostModel::new();
        let options = CorpusOptions::new(Constraints::new(4, 2));
        let outcome = run_corpus(&[], &model, &options);
        assert!(outcome.selections.is_empty());
        assert_eq!(outcome.stats.blocks_seen, 0);
        assert_eq!(outcome.stats.dedup_hit_rate(), 0.0);
    }

    #[test]
    fn warm_cache_reuses_fills_across_runs_byte_identically() {
        let corpus: Vec<Program> = (0..4)
            .map(|i| mac_program(&format!("p{i}"), i % 2 == 1))
            .collect();
        let model = DefaultCostModel::new();
        let options = CorpusOptions::new(Constraints::new(4, 2)).with_driver(DriverOptions::new(4));
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
        let cold = run_corpus_warm(&corpus, &model, &options, &cache);
        let warm = run_corpus_warm(&corpus, &model, &options, &cache);
        assert_eq!(cold.selections, warm.selections);
        assert_eq!(
            cold.stats.logical_cuts_considered,
            warm.stats.logical_cuts_considered
        );
        assert!(cold.stats.pool_fills > 0);
        assert_eq!(warm.stats.pool_fills, 0, "warm run refills nothing");
        assert_eq!(
            warm.stats.pool_answers, warm.stats.logical_identifier_calls,
            "every warm query is answered from the shared cache"
        );
    }

    #[test]
    fn streaming_is_byte_identical_and_bounds_in_flight_programs() {
        let corpus: Vec<Program> = (0..7)
            .map(|i| mac_program(&format!("p{i}"), i % 2 == 1))
            .collect();
        let model = DefaultCostModel::new();
        let options = CorpusOptions::new(Constraints::new(4, 2)).with_driver(DriverOptions::new(4));
        let batch = run_corpus(&corpus, &model, &options);

        for max_in_flight in [1usize, 2, 3, 16] {
            let yielded = Rc::new(Cell::new(0usize));
            let emitted = Rc::new(Cell::new(0usize));
            let peak = Rc::new(Cell::new(0usize));
            let source = {
                let yielded = Rc::clone(&yielded);
                let emitted = Rc::clone(&emitted);
                let peak = Rc::clone(&peak);
                corpus.clone().into_iter().inspect(move |_| {
                    yielded.set(yielded.get() + 1);
                    peak.set(peak.get().max(yielded.get() - emitted.get()));
                })
            };
            let mut selections = Vec::new();
            let (stats, shards) = {
                let emitted = Rc::clone(&emitted);
                let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
                run_corpus_streaming_warm(
                    source,
                    &model,
                    &options,
                    max_in_flight,
                    &cache,
                    &mut |program, selection| {
                        assert_eq!(program.name(), format!("p{}", emitted.get()));
                        emitted.set(emitted.get() + 1);
                        selections.push(selection);
                    },
                )
            };
            assert_eq!(
                selections, batch.selections,
                "max_in_flight {max_in_flight}"
            );
            assert_eq!(stats.programs, 7);
            assert_eq!(stats.blocks_seen, 7);
            assert_eq!(
                stats.logical_cuts_considered,
                batch.stats.logical_cuts_considered
            );
            // Shard telemetry is per shard over the whole stream, not per chunk.
            for (i, shard) in shards.iter().enumerate() {
                assert!(
                    shards[..i].iter().all(|s| s.shard != shard.shard),
                    "shard {} listed twice with max_in_flight {max_in_flight}: {shards:?}",
                    shard.shard
                );
            }
            assert_eq!(shards.iter().map(|s| s.items).sum::<usize>(), 7);
            // The memory ceiling: never more than one chunk of programs alive
            // between the source and the emit callback.
            assert!(
                peak.get() <= max_in_flight,
                "peak {} exceeds ceiling {max_in_flight}",
                peak.get()
            );
        }

        // The reference (dedup-off) streaming path agrees too.
        let mut selections = Vec::new();
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
        run_corpus_streaming_warm(
            corpus.clone(),
            &model,
            &options.with_dedup(false),
            2,
            &cache,
            &mut |_, selection| selections.push(selection),
        );
        assert_eq!(selections, batch.selections);
    }
}
