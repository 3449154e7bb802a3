//! CutPool: enumerate once, answer every `(Nin, Nout)` constraint pair.
//!
//! The paper's Fig. 11 experiment sweeps the port constraints and re-runs the
//! exponential identification for every pair, yet the searches are nested: any cut
//! feasible under `(2, 1)` is feasible under every looser pair, and the branch-and-bound
//! tree walked under tight constraints is exactly a pruned subtree of the walk under
//! loose ones. This module exploits that monotonicity with a memoised *cut pool*:
//!
//! * [`fill_single_cut`] / [`fill_multicut`] run the exact search **once** under the
//!   loosest constraints of a sweep. They walk the very policies of
//!   [`SingleCutSearch`] and [`MultiCutSearch`], recording into a fill sink in place
//!   of the direct search's [`Incumbent`](crate::kernel::Incumbent): the sink
//!   histograms every attempt and keeps every non-dominated candidate instead of a
//!   single incumbent. Like a direct search, a fill may split its top decision levels
//!   into parallel subtree tasks, byte-identically (fact 4 below);
//! * [`FilledPool`] answers any *covered* query pair — same area and node budgets,
//!   ports no looser than the fill — with the **byte-identical** result a direct
//!   search under that pair would return, including the `cuts_considered`
//!   accounting, without walking the tree again.
//!
//! # Why the answers are exact
//!
//! Four facts make the reconstruction exact rather than approximate:
//!
//! 1. **`OUT(S)` is monotone along the search order.** Nodes are decided
//!    consumers-first, so a node added later can never be a consumer of an earlier
//!    member: growing a cut never removes a write port. Hence a cut is reachable in the
//!    walk under `Nout = q` exactly when its own output count is `≤ q`, and a pruned
//!    1-branch is attempted under `q` exactly when the largest output count applied on
//!    its tree path — the attempt's *prefix* — is `≤ q`. By the same monotonicity the
//!    prefix is simply the current cut's `OUT` (for tuples, the largest slot `OUT`), so
//!    the hook reads it off the search state instead of tracking the path.
//! 2. **The incumbent is order-determined.** A search returns the depth-first-earliest
//!    cut of maximal merit among the qualifying candidates. Keeping, per `(IN, OUT)`
//!    signature, the earliest maximal-merit candidate — and dropping any candidate that
//!    is port-dominated by an earlier one of no lesser merit — preserves the exact
//!    answer of *every* covered query ([`ParetoStore`]).
//! 3. **The effort counters are histogram-reconstructible.** Every 1-branch attempt of
//!    the loose walk is recorded as `(prefix max OUT, probed OUT, convex, node-budget,
//!    frontier-bound)`; a query aggregates the attempts its own walk would have made and
//!    classifies them in the canonical pruning order (output → convexity → node budget →
//!    frontier bound), reproducing [`SearchStats`] exactly — except `best_updates`,
//!    which would require the full offer log and is reported as zero by pool answers
//!    (see [`AttemptHistogram`]). The frontier bound is *query-independent*: its zero
//!    threshold and its optimistic value depend only on the tree path, never on the
//!    ports or the incumbent, so the fill observes the exact bound outcome every covered
//!    query would. Software-branch subtree prunes (which attempt no cut) are tallied per
//!    prefix in a side vector and summed the same way.
//! 4. **A split fill folds exactly.** The kernel gives every inline segment and subtree
//!    task of a split walk its own sink and folds them in depth-first order. Histogram
//!    counts add. The store keeps exactly the offers that no other offer *beats* — no
//!    wider ports and a higher score, or an equal score and an earlier enumeration
//!    index — and that relation is a strict, transitive order, so the survivors of the
//!    whole walk are the survivors among each unit's survivors. Re-offering a later
//!    unit's entries with every `seq` shifted by the earlier units' `offered` count
//!    therefore leaves byte for byte the store of the sequential fill
//!    (`ParetoStore::absorb`).
//!
//! Exploration budgets truncate the walk by *visit order* and therefore cannot be
//! reconstructed from a differently-constrained enumeration: a fill that exhausts its
//! budget is reported as [`FillOutcome::Exhausted`] and the caller must fall back to
//! direct per-pair searches. A fill that completes strictly *within* the budget is
//! valid for every covered query, because the tighter walks consider no more cuts than
//! the fill did and so never hit the budget either.

use ise_hw::CostModel;
use ise_ir::Dfg;

use crate::constraints::Constraints;
use crate::cut::CutSet;
use crate::kernel::{AddProbe, SearchHook, WalkSink};
use crate::multicut::MultiCutSearch;
use crate::search::{IdentifiedCut, SearchStats, SingleCutSearch};

/// One candidate kept by a [`ParetoStore`]: the payload plus its query signature.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolEntry<P> {
    /// `IN` of the candidate (for tuples: the maximum over the member cuts).
    pub inputs: usize,
    /// `OUT` of the candidate (for tuples: the maximum over the member cuts).
    pub outputs: usize,
    /// The candidate's objective (merit, or summed merit for tuples).
    pub score: f64,
    /// Depth-first enumeration index, used to break score ties the way the
    /// sequential incumbent does (first visitor wins).
    pub seq: u64,
    /// The recorded candidate.
    pub payload: P,
}

/// The Pareto-pruned candidate store of one pool fill.
///
/// An entry is kept only while no earlier-or-better entry dominates it on
/// `(inputs, outputs, score)`; conversely a new entry evicts every stored entry it
/// strictly beats. The store therefore holds at most one entry per `(IN, OUT)`
/// signature and answers a query by a linear scan in enumeration order.
#[derive(Debug, Clone)]
pub struct ParetoStore<P> {
    entries: Vec<PoolEntry<P>>,
    offered: u64,
}

impl<P> Default for ParetoStore<P> {
    fn default() -> Self {
        ParetoStore {
            entries: Vec::new(),
            offered: 0,
        }
    }
}

impl<P> ParetoStore<P> {
    /// Offers a candidate; `make` is only invoked when the candidate survives the
    /// domination check (so payloads are built lazily).
    ///
    /// Candidates with non-positive score are discarded outright: the incumbent of a
    /// direct search starts at score zero and only strictly greater offers win, so such
    /// a candidate can never be any query's answer.
    pub fn offer(&mut self, inputs: usize, outputs: usize, score: f64, make: impl FnOnce() -> P) {
        let seq = self.offered;
        self.offered += 1;
        if score <= 0.0 {
            return;
        }
        self.insert(inputs, outputs, score, seq, make);
    }

    /// Folds in `later`, the store of offers made after every offer recorded here —
    /// leaving exactly the store one fill offering both sequences in order would hold.
    ///
    /// Each stored entry of `later` is re-offered with its `seq` shifted by this
    /// store's `offered`. That is exact because a store holds precisely the offers no
    /// other offer beats (see the module documentation), so an offer `later` dropped
    /// is beaten by one of `later`'s survivors and would be dropped here as well.
    pub(crate) fn absorb(&mut self, later: ParetoStore<P>) {
        let shift = self.offered;
        for entry in later.entries {
            let PoolEntry {
                inputs,
                outputs,
                score,
                seq,
                payload,
            } = entry;
            self.insert(inputs, outputs, score, seq + shift, || payload);
        }
        self.offered += later.offered;
    }

    /// Stores a positive-score candidate with enumeration index `seq`, which must
    /// exceed every stored index, unless an earlier entry dominates it.
    fn insert(
        &mut self,
        inputs: usize,
        outputs: usize,
        score: f64,
        seq: u64,
        make: impl FnOnce() -> P,
    ) {
        // An earlier entry with no wider ports and no lesser score makes this candidate
        // unreachable as an answer: any query admitting it admits the earlier entry,
        // which either scores higher or — on an exact tie — was visited first.
        if self
            .entries
            .iter()
            .any(|e| e.inputs <= inputs && e.outputs <= outputs && e.score >= score)
        {
            return;
        }
        // Conversely, evict entries this candidate strictly beats on every axis.
        self.entries
            .retain(|e| !(inputs <= e.inputs && outputs <= e.outputs && score > e.score));
        self.entries.push(PoolEntry {
            inputs,
            outputs,
            score,
            seq,
            payload: make(),
        });
    }

    /// The answer a direct search under `(max_inputs, max_outputs)` would return: the
    /// earliest-enumerated candidate of maximal score among those within the ports.
    #[must_use]
    pub fn answer(&self, max_inputs: usize, max_outputs: usize) -> Option<&PoolEntry<P>> {
        let mut best: Option<&PoolEntry<P>> = None;
        for entry in &self.entries {
            if entry.inputs > max_inputs || entry.outputs > max_outputs {
                continue;
            }
            // Ties go to the smallest enumeration index — exactly the sequential
            // incumbent rule (a later equal-score candidate never replaces the first).
            if best.is_none_or(|b| {
                entry.score > b.score || (entry.score == b.score && entry.seq < b.seq)
            }) {
                best = Some(entry);
            }
        }
        best
    }

    /// Maps every stored payload through `f`, preserving the signatures, scores and
    /// enumeration indices that drive [`answer`](Self::answer).
    ///
    /// The corpus engine uses this to re-express recorded cuts in canonical node
    /// coordinates, so one fill can be translated onto any structurally isomorphic
    /// block (see `crate::structural`).
    #[must_use]
    pub fn map<Q>(self, mut f: impl FnMut(P) -> Q) -> ParetoStore<Q> {
        ParetoStore {
            entries: self
                .entries
                .into_iter()
                .map(|e| PoolEntry {
                    inputs: e.inputs,
                    outputs: e.outputs,
                    score: e.score,
                    seq: e.seq,
                    payload: f(e.payload),
                })
                .collect(),
            offered: self.offered,
        }
    }

    /// Number of stored (non-dominated) candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no candidate survived.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw `(entries, offered)` state, for snapshot serialization.
    pub(crate) fn parts(&self) -> (&[PoolEntry<P>], u64) {
        (&self.entries, self.offered)
    }

    /// Rebuilds a store from snapshot state without re-running domination checks.
    ///
    /// Only valid for entry lists previously produced by [`parts`](Self::parts) —
    /// the invariants (non-dominated, positive scores, `seq < offered`) are the
    /// loader's responsibility to preserve by round-tripping bytes faithfully.
    pub(crate) fn from_parts(entries: Vec<PoolEntry<P>>, offered: u64) -> Self {
        ParetoStore { entries, offered }
    }
}

/// Histogram of every 1-branch attempt of a pool fill, sufficient to reconstruct the
/// [`SearchStats`] of a direct search under any covered output-port constraint.
///
/// Each attempt is keyed by the largest `OUT` applied on its tree path (`prefix`), the
/// probed `OUT` of the attempt itself, and its convexity / node-budget / frontier-bound
/// flags. The table covers prefixes up to `fill_outputs`: the fill's `Nout`, capped at
/// the block's node count since `OUT(S)` never exceeds it, so a huge requested `Nout`
/// costs no more than the block's own size. A walk under `Nout = q` makes exactly the
/// attempts with `prefix ≤ q` and classifies each in the canonical order: output ports
/// first, then convexity, the node budget, and last the frontier bound. The bound flag
/// is query-independent (zero threshold, path-determined optimistic value), so
/// recording it once at fill time is exact for every covered query. Software-branch
/// subtree prunes — the bound firing at a 0-branch, where no cut is attempted — are
/// tallied per prefix in `subtree_prunes` and reconstructed by the same prefix cutoff.
///
/// `best_updates` is *not* reconstructible from a histogram (it depends on the full
/// offer order) and is reported as zero by [`reconstruct`](Self::reconstruct); pool
/// consumers only aggregate `cuts_considered`, which is exact.
#[derive(Debug, Clone)]
pub struct AttemptHistogram {
    fill_outputs: usize,
    counts: Vec<u64>,
    subtree_prunes: Vec<u64>,
}

impl AttemptHistogram {
    fn new(fill_outputs: usize) -> Self {
        AttemptHistogram {
            fill_outputs,
            counts: vec![0; (fill_outputs + 1) * (fill_outputs + 2) * 8],
            subtree_prunes: vec![0; fill_outputs + 1],
        }
    }

    /// Adds the attempts and subtree prunes of `other`, a histogram of equal geometry.
    fn absorb(&mut self, other: &AttemptHistogram) {
        debug_assert_eq!(self.fill_outputs, other.fill_outputs);
        for (count, more) in self.counts.iter_mut().zip(&other.counts) {
            *count += more;
        }
        for (prunes, more) in self.subtree_prunes.iter_mut().zip(&other.subtree_prunes) {
            *prunes += more;
        }
    }

    fn index(
        &self,
        prefix: usize,
        probed: usize,
        convex: bool,
        within_budget: bool,
        bound_ok: bool,
    ) -> usize {
        (((prefix * (self.fill_outputs + 2) + probed) * 2 + usize::from(convex)) * 2
            + usize::from(within_budget))
            * 2
            + usize::from(bound_ok)
    }

    /// Reconstructs the statistics of a direct search under `Nout = max_outputs`.
    #[must_use]
    pub fn reconstruct(&self, max_outputs: usize) -> SearchStats {
        let mut stats = SearchStats::default();
        let query = max_outputs.min(self.fill_outputs);
        for prefix in 0..=query {
            stats.bound_subtree_prunes += self.subtree_prunes[prefix];
            for probed in 0..=self.fill_outputs + 1 {
                for convex in [false, true] {
                    for within_budget in [false, true] {
                        for bound_ok in [false, true] {
                            let n = self.counts
                                [self.index(prefix, probed, convex, within_budget, bound_ok)];
                            if n == 0 {
                                continue;
                            }
                            stats.cuts_considered += n;
                            if probed > max_outputs {
                                stats.pruned_output += n;
                            } else if !convex {
                                stats.pruned_convexity += n;
                            } else if !within_budget {
                                stats.pruned_node_budget += n;
                            } else if !bound_ok {
                                stats.pruned_bound += n;
                            } else {
                                stats.feasible_cuts += n;
                            }
                        }
                    }
                }
            }
        }
        stats
    }

    /// The raw `(fill_outputs, counts, subtree_prunes)` state, for snapshots.
    pub(crate) fn parts(&self) -> (usize, &[u64], &[u64]) {
        (self.fill_outputs, &self.counts, &self.subtree_prunes)
    }

    /// Rebuilds a histogram from snapshot state, validating the table geometry.
    ///
    /// Returns `None` when the vector lengths do not match `fill_outputs` — the
    /// snapshot loader treats that as corruption and falls back to a cold start.
    pub(crate) fn from_parts(
        fill_outputs: usize,
        counts: Vec<u64>,
        subtree_prunes: Vec<u64>,
    ) -> Option<Self> {
        if counts.len() != (fill_outputs + 1) * (fill_outputs + 2) * 8
            || subtree_prunes.len() != fill_outputs + 1
        {
            return None;
        }
        Some(AttemptHistogram {
            fill_outputs,
            counts,
            subtree_prunes,
        })
    }
}

/// A completed pool fill for one basic block and one exclusion set: payload `P` is
/// one [`IdentifiedCut`] for single-cut fills, a cut tuple for multiple-cut fills
/// (per block and per simultaneous-cut count `M`).
#[derive(Debug, Clone)]
pub struct FilledPool<P> {
    /// The constraints the enumeration ran under.
    pub fill: Constraints,
    /// The non-dominated candidates.
    pub store: ParetoStore<P>,
    /// The attempt histogram for effort reconstruction.
    pub histogram: AttemptHistogram,
    /// Cuts (or assignments) considered by the fill enumeration itself — the
    /// physical cost of the fill.
    pub fill_cuts_considered: u64,
}

/// Result of attempting a pool fill.
#[derive(Debug, Clone)]
pub enum FillOutcome<T> {
    /// The enumeration completed; the pool answers every covered query exactly.
    Complete(T),
    /// The enumeration hit its exploration budget; callers must fall back to direct
    /// per-pair searches (a truncated walk is visit-order-dependent and cannot be
    /// reconstructed under different constraints).
    Exhausted {
        /// Cuts considered before the budget stopped the fill.
        fill_cuts_considered: u64,
    },
}

/// Returns `true` when a pool filled under `fill` can answer queries under `query`:
/// ports no looser than the fill, and byte-identical area / node budgets (both budgets
/// participate in pruning or candidate qualification and must match exactly).
#[must_use]
pub fn covers(fill: &Constraints, query: &Constraints) -> bool {
    query.max_inputs <= fill.max_inputs
        && query.max_outputs <= fill.max_outputs
        && query.max_area == fill.max_area
        && query.max_nodes == fill.max_nodes
}

/// Answer of one pool query, standing in for a direct search's outcome.
#[derive(Debug, Clone)]
pub struct PoolAnswer<P> {
    /// The payload the direct search would have returned.
    pub best: Option<P>,
    /// The reconstructed statistics (`best_updates` is reported as zero; see
    /// [`AttemptHistogram`]).
    pub stats: SearchStats,
}

impl<P: Clone> FilledPool<P> {
    /// Answers a covered query pair with the byte-identical result of a direct
    /// [`SingleCutSearch`] under `query` — for tuples, the unsorted payload of a direct
    /// [`MultiCutSearch`], which [`crate::MultiCutOutcome::from_payload`] sorts.
    ///
    /// # Panics
    ///
    /// Panics if `query` is not covered by the fill constraints (callers check
    /// [`covers`] and fall back to a direct search instead).
    #[must_use]
    pub fn answer(&self, query: &Constraints) -> PoolAnswer<P> {
        assert!(covers(&self.fill, query), "query not covered by the fill");
        let best = self
            .store
            .answer(query.max_inputs, query.max_outputs)
            .map(|entry| entry.payload.clone());
        PoolAnswer {
            best,
            stats: self.histogram.reconstruct(query.max_outputs),
        }
    }
}

/// The pool fill's walk sink and [`SearchHook`]: every attempt goes into the
/// histogram and every qualifying candidate into the Pareto store. A split fill gives
/// each subtree task a fresh recorder and folds them in depth-first order (fact 4 of
/// the module documentation).
#[derive(Debug, Clone)]
struct FillRecorder<P> {
    store: ParetoStore<P>,
    histogram: AttemptHistogram,
}

impl<P: Send + Sync> WalkSink for FillRecorder<P> {
    fn fresh(&self) -> Self {
        FillRecorder {
            store: ParetoStore::default(),
            histogram: AttemptHistogram::new(self.histogram.fill_outputs),
        }
    }

    fn absorb(&mut self, later: Self) {
        self.store.absorb(later.store);
        self.histogram.absorb(&later.histogram);
    }
}

impl<P: Send + Sync> SearchHook<P> for FillRecorder<P> {
    fn attempt(&mut self, prefix: usize, probe: AddProbe, within_budget: bool, bound_ok: bool) {
        let histogram = &mut self.histogram;
        let index = histogram.index(prefix, probe.outputs, probe.convex, within_budget, bound_ok);
        histogram.counts[index] += 1;
    }

    fn subtree_prune(&mut self, prefix: usize) {
        self.histogram.subtree_prunes[prefix] += 1;
    }

    fn offer(&mut self, inputs: usize, outputs: usize, score: f64, make: impl FnOnce() -> P) {
        self.store.offer(inputs, outputs, score, make);
    }

    fn bound_threshold(&self) -> f64 {
        0.0
    }
}

/// The one fill body: hands `walk` a fresh recorder — its histogram sized by the
/// fill's `Nout`, capped at the block's node count since `OUT(S)` never exceeds it —
/// and packages what it recorded, unless the walk did not complete within `budget`.
fn fill_with<P: Send + Sync>(
    dfg: &Dfg,
    fill: Constraints,
    budget: Option<u64>,
    walk: impl FnOnce(FillRecorder<P>) -> (FillRecorder<P>, SearchStats),
) -> FillOutcome<FilledPool<P>> {
    let recorder = FillRecorder {
        store: ParetoStore::default(),
        histogram: AttemptHistogram::new(fill.max_outputs.min(dfg.node_count())),
    };
    let (recorder, stats) = walk(recorder);
    // A fill that completes strictly within its budget is valid for every covered
    // (hence no-larger) query walk, which is then guaranteed untruncated too.
    if stats.budget_exhausted || budget.is_some_and(|limit| stats.cuts_considered >= limit) {
        return FillOutcome::Exhausted {
            fill_cuts_considered: stats.cuts_considered,
        };
    }
    FillOutcome::Complete(FilledPool {
        fill,
        store: recorder.store,
        histogram: recorder.histogram,
        fill_cuts_considered: stats.cuts_considered,
    })
}

/// Enumerates every candidate cut of `dfg` under the (loose) `fill` constraints and
/// returns the memoisable pool, honouring `excluded` exactly as a direct search would.
///
/// The walk is sequential; the pool-backed sweep splits large fills across cores
/// through the crate's `fill_single_cut_split`, which records byte for byte the same
/// pool.
#[must_use]
pub fn fill_single_cut(
    dfg: &Dfg,
    excluded: Option<&CutSet>,
    fill: Constraints,
    model: &dyn CostModel,
    budget: Option<u64>,
) -> FillOutcome<FilledPool<IdentifiedCut>> {
    fill_single_cut_split(dfg, excluded, fill, model, budget, 0)
}

/// [`fill_single_cut`] with the top `split_levels` decision levels split into
/// parallel subtree tasks, exactly like
/// [`SingleCutSearch::with_subtree_parallelism`]: each task records into its own sink
/// and the sinks fold in depth-first order, so the pool — every entry, `seq`, count and
/// `fill_cuts_considered` — is byte-identical to the sequential fill. An exploration
/// budget forces the sequential walk, as it does for a direct search.
#[must_use]
pub(crate) fn fill_single_cut_split(
    dfg: &Dfg,
    excluded: Option<&CutSet>,
    fill: Constraints,
    model: &dyn CostModel,
    budget: Option<u64>,
    split_levels: usize,
) -> FillOutcome<FilledPool<IdentifiedCut>> {
    fill_with(dfg, fill, budget, |recorder| {
        let mut search =
            SingleCutSearch::new(dfg, fill, model).with_subtree_parallelism(split_levels);
        if let Some(excluded) = excluded {
            search = search.with_excluded(excluded);
        }
        if let Some(budget) = budget {
            search = search.with_exploration_budget(budget);
        }
        search.run_into(recorder)
    })
}

/// Enumerates every candidate `num_cuts`-tuple of `dfg` under the (loose) `fill`
/// constraints and returns the memoisable tuple pool. `split_levels` splits the top
/// levels of the walk into parallel subtree tasks, byte-identically (`0` keeps it
/// sequential).
///
/// # Panics
///
/// Panics if `num_cuts` is zero or greater than 255, as [`MultiCutSearch::new`] does.
#[must_use]
pub fn fill_multicut(
    dfg: &Dfg,
    excluded: Option<&CutSet>,
    fill: Constraints,
    model: &dyn CostModel,
    num_cuts: usize,
    budget: Option<u64>,
    split_levels: usize,
) -> FillOutcome<FilledPool<Vec<IdentifiedCut>>> {
    fill_with(dfg, fill, budget, |recorder| {
        let mut search =
            MultiCutSearch::new(dfg, fill, model, num_cuts).with_subtree_parallelism(split_levels);
        if let Some(excluded) = excluded {
            search = search.with_excluded(excluded);
        }
        if let Some(budget) = budget {
            search = search.with_exploration_budget(budget);
        }
        search.run_into(recorder)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiCutOutcome;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    fn fig4() -> Dfg {
        let mut b = DfgBuilder::new("fig4");
        let x = b.input("x");
        let y = b.input("y");
        let mul = b.mul(x, y);
        let shr = b.lshr(mul, b.imm(2));
        let add1 = b.add(mul, y);
        let add0 = b.add(shr, add1);
        b.output("out", add0);
        b.finish()
    }

    /// Unwraps a complete fill and checks that its histogram accounts for the fill's
    /// own walk: reconstructed at the fill's `Nout`, it counts exactly the cuts the
    /// fill considered.
    fn expect_complete<P>(outcome: FillOutcome<FilledPool<P>>) -> FilledPool<P> {
        match outcome {
            FillOutcome::Complete(pool) => {
                assert_eq!(
                    pool.histogram
                        .reconstruct(pool.fill.max_outputs)
                        .cuts_considered,
                    pool.fill_cuts_considered
                );
                pool
            }
            FillOutcome::Exhausted { .. } => panic!("fill unexpectedly exhausted"),
        }
    }

    /// The pool answer equals the direct search — cut identity *and* every reconstructed
    /// counter — for all paper pairs covered by an `(8, 4)` fill, on the Fig. 4 block
    /// and on seeded random DAGs, without and with a node budget.
    #[test]
    fn pool_answers_match_direct_single_cut_searches() {
        let model = DefaultCostModel::new();
        let mut graphs = vec![fig4()];
        for seed in 0..12u64 {
            graphs.push(ise_ir_random(seed));
        }
        for max_nodes in [None, Some(3)] {
            let with_budget = |c: Constraints| max_nodes.map_or(c, |n| c.with_max_nodes(n));
            let fill = with_budget(Constraints::new(8, 4));
            let mut budget_prunes = 0;
            for dfg in &graphs {
                let pool = expect_complete(fill_single_cut(dfg, None, fill, &model, None));
                for query in Constraints::paper_sweep().into_iter().map(with_budget) {
                    assert!(covers(&fill, &query));
                    let direct = SingleCutSearch::new(dfg, query, &model).run();
                    let answer = pool.answer(&query);
                    assert_eq!(answer.best, direct.best, "{} under {query}", dfg.name());
                    let stats = answer.stats;
                    assert_eq!(stats.cuts_considered, direct.stats.cuts_considered);
                    assert_eq!(stats.feasible_cuts, direct.stats.feasible_cuts);
                    assert_eq!(stats.pruned_output, direct.stats.pruned_output);
                    assert_eq!(stats.pruned_convexity, direct.stats.pruned_convexity);
                    assert_eq!(stats.pruned_node_budget, direct.stats.pruned_node_budget);
                    assert_eq!(stats.pruned_bound, direct.stats.pruned_bound);
                    assert_eq!(
                        stats.bound_subtree_prunes,
                        direct.stats.bound_subtree_prunes
                    );
                    assert!(!stats.budget_exhausted);
                    budget_prunes += stats.pruned_node_budget;
                }
            }
            assert_eq!(max_nodes.is_some(), budget_prunes > 0, "node-budget path");
        }
    }

    /// Every reconstructed counter equals the direct search's, except `best_updates`,
    /// which pool answers report as zero.
    fn assert_same_effort(answer: SearchStats, direct: SearchStats, label: &str) {
        let expected = SearchStats {
            best_updates: 0,
            ..direct
        };
        assert_eq!(answer, expected, "{label}");
    }

    /// An `Nout` far beyond any block's size sizes the histogram by the block, not by
    /// `Nout`, and still answers exactly like the direct search.
    #[test]
    fn huge_output_port_fills_match_direct_searches() {
        let model = DefaultCostModel::new();
        let fill = Constraints::new(8, 100_000);
        for dfg in [fig4(), ise_ir_random(3)] {
            let pool = expect_complete(fill_single_cut(&dfg, None, fill, &model, None));
            for query in [fill, Constraints::new(4, 2)] {
                let direct = SingleCutSearch::new(&dfg, query, &model).run();
                let answer = pool.answer(&query);
                assert_eq!(answer.best, direct.best, "{} under {query}", dfg.name());
                assert_same_effort(answer.stats, direct.stats, dfg.name());
            }
            let tuples = expect_complete(fill_multicut(&dfg, None, fill, &model, 2, None, 0));
            let direct = MultiCutSearch::new(&dfg, fill, &model, 2).run();
            let answer = tuples.answer(&fill);
            assert_eq!(
                MultiCutOutcome::from_payload(answer.best, answer.stats).cuts,
                direct.cuts
            );
            assert_same_effort(answer.stats, direct.stats, dfg.name());
        }
    }

    /// A deterministic little random DAG without depending on `ise-workloads`
    /// (which would be a dependency cycle).
    fn ise_ir_random(seed: u64) -> Dfg {
        random_dag(seed, 12, usize::MAX)
    }

    /// A seeded xorshift stream for the property tests.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A seeded random DAG of `ops` operation nodes over three block inputs.
    /// A seeded random DAG of `ops` operation nodes over three block inputs, each
    /// operand drawn from the `window` most recent values.
    fn random_dag(seed: u64, ops: usize, window: usize) -> Dfg {
        let mut b = DfgBuilder::new(format!("rand{seed}"));
        let mut values = vec![b.input("a"), b.input("c"), b.input("d")];
        let mut next = xorshift(seed);
        let pick = |r: u64, len: usize| {
            if window >= len {
                r as usize % len
            } else {
                len - 1 - r as usize % window
            }
        };
        for i in 0..ops {
            let lhs = values[pick(next(), values.len())];
            let rhs = values[pick(next(), values.len())];
            let v = match next() % 4 {
                0 => b.mul(lhs, rhs),
                1 => b.add(lhs, rhs),
                2 => b.xor(lhs, rhs),
                _ => b.sub(lhs, rhs),
            };
            values.push(v);
            if i % 5 == 4 {
                b.output(format!("o{i}"), v);
            }
        }
        let last = *values.last().expect("at least one value");
        b.output("out", last);
        b.finish()
    }

    /// Exclusions are honoured exactly as a direct `with_excluded` search.
    #[test]
    fn pool_honours_exclusions() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let fill = Constraints::new(8, 4);
        let query = Constraints::new(4, 2);
        let full = SingleCutSearch::new(&g, query, &model).run();
        let excluded = full.best.expect("profitable cut").cut;
        let pool = expect_complete(fill_single_cut(&g, Some(&excluded), fill, &model, None));
        let direct = SingleCutSearch::new(&g, query, &model)
            .with_excluded(&excluded)
            .run();
        let answer = pool.answer(&query);
        assert_eq!(answer.best, direct.best);
        assert_eq!(answer.stats.cuts_considered, direct.stats.cuts_considered);
    }

    /// Multicut tuple answers equal the direct `(M+1)`-ary search, every counter
    /// included, without and with a node budget.
    #[test]
    fn tuple_pool_answers_match_direct_multicut_searches() {
        let model = DefaultCostModel::new();
        for max_nodes in [None, Some(2)] {
            let with_budget = |c: Constraints| max_nodes.map_or(c, |n| c.with_max_nodes(n));
            let fill = with_budget(Constraints::new(8, 4));
            let mut budget_prunes = 0;
            for seed in 0..8u64 {
                let dfg = ise_ir_random(seed);
                for m in [1usize, 2, 3] {
                    let pool = expect_complete(fill_multicut(&dfg, None, fill, &model, m, None, 0));
                    for query in [
                        Constraints::new(2, 1),
                        Constraints::new(4, 2),
                        Constraints::new(8, 4),
                    ]
                    .map(with_budget)
                    {
                        let direct = MultiCutSearch::new(&dfg, query, &model, m).run();
                        let answer = pool.answer(&query);
                        let direct_payload = if direct.cuts.is_empty() {
                            None
                        } else {
                            Some(direct.cuts.clone())
                        };
                        // The store keeps the *unsorted* payload; sort like the search does.
                        let answered = answer.best.map(|mut cuts| {
                            cuts.sort_by(|a, b| {
                                b.evaluation
                                    .merit
                                    .partial_cmp(&a.evaluation.merit)
                                    .unwrap_or(std::cmp::Ordering::Equal)
                            });
                            cuts
                        });
                        let label = format!("seed {seed}, M={m}, {query}");
                        assert_eq!(answered, direct_payload, "{label}");
                        assert_same_effort(answer.stats, direct.stats, &label);
                        budget_prunes += answer.stats.pruned_node_budget;
                    }
                }
            }
            assert_eq!(max_nodes.is_some(), budget_prunes > 0, "node-budget path");
        }
    }

    /// A fill that hits its exploration budget reports `Exhausted` instead of serving
    /// wrong answers; a fill that completes within the budget stays valid.
    #[test]
    fn budget_exhausted_fills_are_rejected() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let fill = Constraints::new(8, 4);
        match fill_single_cut(&g, None, fill, &model, Some(2)) {
            FillOutcome::Exhausted {
                fill_cuts_considered,
            } => assert!(fill_cuts_considered >= 2),
            FillOutcome::Complete(_) => panic!("a 2-cut budget must exhaust on fig4"),
        }
        let generous = expect_complete(fill_single_cut(&g, None, fill, &model, Some(1_000)));
        let unbudgeted = expect_complete(fill_single_cut(&g, None, fill, &model, None));
        assert_eq!(
            generous.fill_cuts_considered,
            unbudgeted.fill_cuts_considered
        );
    }

    /// The Pareto store keeps at most one entry per `(IN, OUT)` signature and breaks
    /// score ties in favour of the earliest candidate.
    #[test]
    fn pareto_store_prunes_and_tie_breaks() {
        let mut store: ParetoStore<&'static str> = ParetoStore::default();
        store.offer(2, 1, 3.0, || "first");
        store.offer(2, 1, 3.0, || "tied-later"); // dropped: same signature, tie
        store.offer(3, 2, 2.0, || "dominated"); // dropped: wider ports, lower score
        store.offer(2, 1, 5.0, || "better"); // evicts "first"
        store.offer(1, 1, 1.0, || "narrow"); // kept: narrower ports
        assert_eq!(store.len(), 2);
        assert_eq!(store.answer(2, 1).map(|e| e.payload), Some("better"));
        assert_eq!(store.answer(1, 1).map(|e| e.payload), Some("narrow"));
        assert_eq!(store.answer(0, 1), None);
        store.offer(1, 1, -1.0, || "non-positive"); // never an answer
        assert_eq!(store.len(), 2);
    }

    /// Covered pairs require equal budgets and no-looser ports.
    #[test]
    fn coverage_rules() {
        let fill = Constraints::new(8, 4);
        assert!(covers(&fill, &Constraints::new(2, 1)));
        assert!(covers(&fill, &Constraints::new(8, 4)));
        assert!(!covers(&fill, &Constraints::new(9, 4)));
        assert!(!covers(&fill, &Constraints::new(8, 5)));
        assert!(!covers(&fill, &Constraints::new(2, 1).with_max_nodes(4)));
        assert!(!covers(&fill, &Constraints::new(2, 1).with_max_area(1.0)));
        let budgeted_fill = Constraints::new(8, 4).with_max_nodes(6);
        assert!(covers(
            &budgeted_fill,
            &Constraints::new(4, 2).with_max_nodes(6)
        ));
    }

    /// Empty and single-node blocks degrade gracefully.
    #[test]
    fn degenerate_blocks() {
        let model = DefaultCostModel::new();
        let empty = Dfg::new("empty");
        let pool = expect_complete(fill_single_cut(
            &empty,
            None,
            Constraints::new(8, 4),
            &model,
            None,
        ));
        let answer = pool.answer(&Constraints::new(2, 1));
        assert!(answer.best.is_none());
        assert_eq!(answer.stats.cuts_considered, 0);

        let mut b = DfgBuilder::new("one");
        let x = b.input("x");
        let y = b.input("y");
        let v = b.mul(x, y);
        b.output("o", v);
        let single = b.finish();
        let pool = expect_complete(fill_single_cut(
            &single,
            None,
            Constraints::new(8, 4),
            &model,
            None,
        ));
        for query in [Constraints::new(2, 1), Constraints::new(8, 4)] {
            let direct = SingleCutSearch::new(&single, query, &model).run();
            let answer = pool.answer(&query);
            assert_eq!(answer.best, direct.best);
            assert_eq!(answer.stats.cuts_considered, direct.stats.cuts_considered);
        }
    }

    /// Asserts two pools agree in every recorded field: each entry's ports, score
    /// bits, `seq` and payload, `offered`, the histogram counts and subtree prunes,
    /// and `fill_cuts_considered`.
    fn assert_same_pool<P: PartialEq + std::fmt::Debug>(
        split: &FilledPool<P>,
        sequential: &FilledPool<P>,
        label: &str,
    ) {
        let (entries, offered) = split.store.parts();
        let (expected, expected_offered) = sequential.store.parts();
        assert_eq!(offered, expected_offered, "{label}: offered");
        assert_eq!(entries.len(), expected.len(), "{label}: entries");
        for (entry, want) in entries.iter().zip(expected) {
            assert_eq!(
                (
                    entry.inputs,
                    entry.outputs,
                    entry.score.to_bits(),
                    entry.seq
                ),
                (want.inputs, want.outputs, want.score.to_bits(), want.seq),
                "{label}: entry signature"
            );
            assert_eq!(entry.payload, want.payload, "{label}: payload");
        }
        assert_eq!(
            split.histogram.parts(),
            sequential.histogram.parts(),
            "{label}: histogram"
        );
        assert_eq!(
            split.fill_cuts_considered, sequential.fill_cuts_considered,
            "{label}: fill_cuts_considered"
        );
    }

    /// Roughly a fifth of the nodes of `dfg`, seeded.
    fn random_exclusion(dfg: &Dfg, seed: u64) -> CutSet {
        let mut next = xorshift(seed ^ 0x5eed);
        let nodes: Vec<_> = dfg.iter_nodes().map(|(id, _)| id).collect();
        CutSet::from_nodes(dfg, nodes.into_iter().filter(|_| next().is_multiple_of(5)))
    }

    /// Splits of every depth from 1 to 10 of fills of random DAGs with `sizes` nodes,
    /// with and without exclusions, under three fill pairs, each compared with the
    /// sequential fill in every field. `fill` runs one fill at a split depth.
    fn check_split_fills<P: PartialEq + std::fmt::Debug>(
        sizes: &[usize],
        window: impl Fn(usize) -> usize,
        fill: impl Fn(&Dfg, Option<&CutSet>, Constraints, usize) -> FillOutcome<FilledPool<P>>,
    ) {
        for (seed, &ops) in sizes.iter().enumerate() {
            let dfg = random_dag(seed as u64, ops, window(seed));
            let exclusion = random_exclusion(&dfg, seed as u64);
            for excluded in [None, Some(&exclusion)] {
                for pair in [
                    Constraints::new(8, 4),
                    Constraints::new(4, 2),
                    Constraints::new(3, 1),
                ] {
                    let sequential = expect_complete(fill(&dfg, excluded, pair, 0));
                    for split in 1..=10 {
                        let label = format!(
                            "{ops} nodes, excluded {}, {pair}, split {split}",
                            excluded.is_some()
                        );
                        let pool = expect_complete(fill(&dfg, excluded, pair, split));
                        assert_same_pool(&pool, &sequential, &label);
                    }
                }
            }
        }
    }

    /// A split single-cut fill equals the sequential fill in every field, on random
    /// DAGs of 14–25 nodes.
    #[test]
    fn split_single_cut_fills_equal_sequential_fills_in_every_field() {
        let model = DefaultCostModel::new();
        let sizes: Vec<usize> = (14..=25).collect();
        check_split_fills(
            &sizes,
            |seed| 4 + 2 * (seed % 2),
            |dfg, excluded, pair, split| {
                fill_single_cut_split(dfg, excluded, pair, &model, None, split)
            },
        );
    }

    /// The same for two-cut tuple fills. Tuple walks grow much faster with the block,
    /// so the debug build samples the small end of the range; the release run, which
    /// CI makes for this crate's unit tests, covers 14–25 nodes.
    #[test]
    fn split_tuple_fills_equal_sequential_fills_in_every_field() {
        let model = DefaultCostModel::new();
        let sizes: &[usize] = if cfg!(debug_assertions) {
            &[14, 16]
        } else {
            &[14, 16, 18, 20, 22, 25]
        };
        check_split_fills(
            sizes,
            |_| 2,
            |dfg, excluded, pair, split| fill_multicut(dfg, excluded, pair, &model, 2, None, split),
        );
    }

    /// A budgeted fill asked to split runs the sequential walk: the same pool when it
    /// completes, the same `Exhausted` count when it does not.
    #[test]
    fn budgeted_fills_ignore_the_split() {
        let model = DefaultCostModel::new();
        let dfg = random_dag(7, 20, usize::MAX);
        let fill = Constraints::new(8, 4);
        let total =
            expect_complete(fill_single_cut(&dfg, None, fill, &model, None)).fill_cuts_considered;
        for budget in [total / 3, total - 1, total, total + 1] {
            let sequential = fill_single_cut(&dfg, None, fill, &model, Some(budget));
            let split = fill_single_cut_split(&dfg, None, fill, &model, Some(budget), 4);
            match (split, sequential) {
                (
                    FillOutcome::Exhausted {
                        fill_cuts_considered: split,
                    },
                    FillOutcome::Exhausted {
                        fill_cuts_considered: sequential,
                    },
                ) => {
                    assert!(budget <= total, "budget {budget} of {total}");
                    assert_eq!(split, sequential, "budget {budget}");
                }
                (FillOutcome::Complete(split), FillOutcome::Complete(sequential)) => {
                    assert!(budget > total, "budget {budget} of {total}");
                    assert_same_pool(&split, &sequential, &format!("budget {budget}"));
                }
                _ => panic!("split and sequential outcomes differ under budget {budget}"),
            }
        }
    }

    /// Cutting any offer sequence into consecutive units, storing each unit on its own
    /// and folding the stores in order leaves exactly the store of offering everything
    /// to one store — entries, enumeration indices and `offered` alike.
    #[test]
    fn pareto_store_folds_consecutive_units_exactly() {
        for seed in 0..300u64 {
            let mut next = xorshift(seed);
            let offers: Vec<(usize, usize, f64)> = (0..(next() % 40) as usize)
                .map(|_| {
                    let score = (next() % 9) as f64 - 2.0;
                    ((next() % 5) as usize, (next() % 4) as usize, score)
                })
                .collect();
            let mut whole = ParetoStore::default();
            for (index, &(inputs, outputs, score)) in offers.iter().enumerate() {
                whole.offer(inputs, outputs, score, || index);
            }
            let mut folded = ParetoStore::default();
            let mut start = 0;
            while start < offers.len() {
                let end = (start + 1 + (next() % 6) as usize).min(offers.len());
                let mut unit = ParetoStore::default();
                for (index, &(inputs, outputs, score)) in
                    offers.iter().enumerate().take(end).skip(start)
                {
                    unit.offer(inputs, outputs, score, || index);
                }
                folded.absorb(unit);
                start = end;
            }
            assert_eq!(folded.parts(), whole.parts(), "seed {seed}");
        }
    }
}
