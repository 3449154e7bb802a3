//! The shared branch-and-bound search kernel.
//!
//! The paper's central data structure — the pruned binary search tree over a
//! reverse-topological ordering of one basic block (Section 6.1) — used to be
//! reimplemented three times: by the single-cut search, by the `(M+1)`-ary multiple-cut
//! generalisation and by the exhaustive oracle. This module factors the tree walk out
//! into one explicit-stack kernel with pluggable decision hooks, so each algorithm is a
//! thin [`SearchPolicy`] over the same machinery:
//!
//! * [`BlockContext`] — the immutable per-block data every search precomputes once: the
//!   consumers-before-producers ordering, deduplicated operand sources, per-node cost
//!   model evaluations, the blocked-node mask, and the remaining software-cycle mass per
//!   level that feeds the opt-in incumbent bound — all `O(n + e)` memory for `n` nodes
//!   and `e` operand edges;
//! * [`IncrementalCutState`] — the snapshot-and-restorable incremental bookkeeping for
//!   *one* cut under construction (`IN(S)`, `OUT(S)`, convexity reachability, software
//!   cost, hardware critical path, area), kept per node and updated along the decided
//!   node's edges, undone through an internal LIFO journal;
//! * [`SearchPolicy`] — the per-algorithm hooks: how many branches a decision level has,
//!   how to apply/undo one branch, and what to record into the walk's sink;
//! * [`WalkSink`] — what one walk records: the policy's associated sink type, created
//!   fresh for every inline segment and subtree task of a split walk and folded back in
//!   depth-first order;
//! * [`Incumbent`] — the direct searches' sink: the incumbent solution plus the
//!   ascending log of its improvements, which makes deterministic subtree merging
//!   possible (see below);
//! * `SearchHook` — what the single-cut and multiple-cut policies report into their
//!   sink besides walking: the [`Incumbent`] ignores attempts and keeps the best
//!   candidate, a pool fill's recorder (`crate::pool`) histograms every attempt and
//!   keeps every non-dominated candidate, so each algorithm has one policy;
//! * [`SearchKernel`] — the driver: a sequential explicit-stack depth-first walk, or a
//!   two-phase parallel walk that splits the decision tree at its top `split_levels`
//!   levels into independent subtree tasks, fans them out with `rayon`, and folds their
//!   sinks and [`SearchStats`] in subtree-index order.
//!
//! The [`mod@reference`] submodule keeps a second single-cut walk over the same state,
//! written without the `SearchHook` layer: the property suite checks the default search
//! equals it field for field, and the scaling bench uses it as its baseline row.
//!
//! # The per-edge state
//!
//! Per node the state keeps a one-byte mark — member, decided outside with a downstream
//! path into the cut ("reaches"), or clear — and a use count: how many members read the
//! node's value (block inputs carry the same count). Every check and update walks only
//! the decided node's operand and consumer edges, so one decision costs
//! `O(fan-in + fan-out)` and the state is `O(n)` memory:
//!
//! * *external consumer* (for `OUT(S)`): `v` feeds a block output, or some consumer of
//!   `v` is not a member;
//! * *convexity probe*: no consumer of `v` reaches the cut — such a consumer would sit
//!   on a path between two members. Probing both is one scan of `v`'s consumers;
//! * *reach maintenance* (on deciding `v` outside): some consumer of `v` is a member or
//!   reaches the cut. Nodes are decided consumers-first, so every descendant of `v` is
//!   decided before `v` and later cut growth only adds ancestors — the flag, once
//!   computed, stays correct without propagation;
//! * *`IN(S)`*: a counter. Adding `v` drops `v` itself when a member already reads it,
//!   and counts each source of `v` that no member read before;
//! * *input floor*: the part of `IN(S)` no later decision can absorb — the block inputs
//!   members read, plus the member-read nodes decided outside (on deciding `v` outside,
//!   `v` counts when a member reads it). Both only grow down a subtree: a block input is
//!   never a member, and a node decided outside stays outside. So every cut below a
//!   tree node has at least the floor's inputs (see [The input floor](#the-input-floor)).
//!
//! # The input floor
//!
//! The paper prunes by output ports and convexity only, because `IN(S)` is not monotone
//! as the cut grows (adding a producer may absorb an input). Its floor is monotone,
//! though, and depends only on the tree path and the constraints — never on an
//! incumbent or the visit order. The single-cut walks prune on it whenever `Nin` can
//! bind ([`BlockContext::input_limit`]):
//!
//! * *1-branch:* after the output-port, convexity and node-budget checks, an attempt
//!   whose floor (the attempt's own fresh block inputs included) passes `Nin` is
//!   pruned with its subtree and counted in [`SearchStats::pruned_inputs`], a category
//!   inside the `cuts_considered` identity. The check reads the grown cut's
//!   [`IncrementalCutState::input_floor`], so a passing attempt pays one comparison,
//!   and a pruned one is added and undone;
//! * *0-branch:* leaving a member-read node outside when that passes `Nin` skips the
//!   subtree (the node is marked, checked and unmarked). No cut is attempted, so no
//!   counter moves; the cuts below are simply never considered.
//!
//! A pruned subtree holds only cuts with more than `Nin` inputs, which are never
//! offered, so the selection and `best_updates` equal the paper's walk; only the effort
//! counters shrink. Being path-only, the floor is safe for split walks and pool fills.
//! Keeping it costs a step on every software branch, so a walk that neither prunes on
//! it (an unbounded `Nin`) nor records it (a direct search, not a pool fill) is
//! compiled without it: the single-cut policies take a `FLOOR` const parameter, and
//! [`IncrementalCutState::mark_outside`] a `floor` flag. The multiple-cut search does
//! not keep the floor.
//!
//! # The incumbent bound
//!
//! The default searches prune by the rules above only: output ports, convexity, the
//! optional node budget and (single-cut) the input floor. A policy may opt into
//! [`BoundCheck`], an optimistic upper
//! bound on the merit reachable in the subtree below a decision: the merit the cut would
//! reach if every not-yet-decided, non-blocked node (the *remaining frontier*, whose
//! software-cycle mass is precomputed per level) joined it for free — software mass is
//! additive while the hardware critical path can only grow, so
//! `cut_merit(software + mass, critical_path)` can only overestimate. When even that
//! bound cannot strictly beat the incumbent's score the subtree is pruned: at a 1-branch
//! this is counted as [`SearchStats::pruned_bound`] (a category inside the
//! `cuts_considered` identity), at a software branch as
//! [`SearchStats::bound_subtree_prunes`] (no cut is attempted, so `cuts_considered` is
//! not bumped). The incumbent's score depends on the visit order, so a policy that
//! enables the bound must declare [`SearchPolicy::requires_sequential`].
//!
//! # Determinism of the parallel walk
//!
//! In a splittable walk the incumbent never influences pruning (the tree is cut by the
//! *constraints* and the input floor, not by the evolving objective), so the set of
//! visited tree nodes — and therefore every counter in [`SearchStats`] except
//! `best_updates` — is identical
//! however the tree is partitioned. `best_updates` and the identity of the returned cut
//! *do* depend on visit order: a sequential search only improves its incumbent when a
//! candidate beats the best seen anywhere so far. To reproduce that exactly, each
//! subtree records the ascending merit sequence of its local improvements; the merge
//! replays those sequences in subtree-index (= depth-first) order against the running
//! global best. The result — incumbent, `best_updates` and all — is byte-identical to
//! the sequential walk, for any thread count. The same holds for any [`WalkSink`]
//! whose [`absorb`](WalkSink::absorb) reproduces "record `earlier`, then record
//! `later`": the pool's recorder is one.
//!
//! An [exploration budget](SearchKernel::exploration_budget) is a *global* cap on the
//! cuts considered and is inherently sequential; when one is set the kernel always runs
//! the sequential walk, whatever `split_levels` says.
//!
//! # Hot path
//!
//! A search costs the cuts it considers times the cost of one attempt, so an attempt
//! makes no call outside its cold paths (a growing journal, a new best cut to
//! package). `walk_range` is monomorphised per policy, and every step it reaches per
//! attempt is `#[inline(always)]`: the policy's `choice_count`, `apply` and `undo`;
//! the `SearchHook` and [`WalkSink`] methods of the sinks ([`Incumbent`] and the
//! pool's recorder); the [`IncrementalCutState`] steps (`probe_add`, `try_add`,
//! `try_add_probed`, `add`, `mark_outside`, `undo_last`, `within_node_budget`,
//! `input_floor`, `is_candidate`, `merit`); the [`BlockContext`] accessors and
//! [`BoundCheck::disabled`]. Plain `#[inline]` hints leave some of these out of line,
//! and then `ctx` and the probe go through memory on every attempt. The walk's stack
//! frames are three `u32`s, and its stack is allocated once per walk. Steps a walk
//! does not need are compiled out rather than skipped at run time (the input floor's
//! `FLOOR` parameter): an unread load or counter on every decision costs the
//! unbounded-`Nin` walk several percent. A method added
//! to the per-attempt path must be `#[inline(always)]` too, and the change that adds
//! it records an in-process A/B of the kernel time in `CHANGES.md`.

pub mod reference;

use ise_hw::{cut_merit, CostModel, HardwareDelayModel};
use ise_ir::{Dfg, NodeId, Operand};
use rayon::prelude::*;

use crate::constraints::Constraints;
use crate::cut::{CutEvaluation, CutSet};
use crate::search::{IdentifiedCut, SearchStats};

/// Upper bound on the number of subtree tasks one parallel search may create.
///
/// The split depth is clamped so that `arity ^ split_levels` never exceeds this; the
/// decomposition stays deterministic (it depends only on the clamped depth, never on the
/// thread count) and the snapshot memory stays bounded.
const MAX_SUBTREE_TASKS: u64 = 4096;

/// Deduplicated external value source of a node, precomputed for the incremental
/// `IN(S)` bookkeeping.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The result of another operation node (by node index).
    Node(usize),
    /// A block input variable (by input index).
    Input(usize),
}

/// Immutable per-block search context shared by every policy.
///
/// Holds the search ordering and all per-node precomputations so that constructing a
/// policy is cheap and the hot loop touches only dense per-node arrays. Everything here
/// is `O(n + e)` memory for `n` nodes and `e` operand edges, so a budgeted search over a
/// huge block costs memory in proportion to the block, not its square.
pub struct BlockContext<'a> {
    /// The basic block under search.
    pub dfg: &'a Dfg,
    /// The cost model scoring candidate cuts.
    pub model: &'a dyn CostModel,
    /// The microarchitectural constraints pruning the tree.
    pub constraints: Constraints,
    /// Search order: every node appears after all of its consumers.
    order: Vec<NodeId>,
    /// Deduplicated operand sources per node.
    sources: Vec<Vec<Source>>,
    /// Nodes that may never enter a cut (memory operations, collapsed AFU nodes, nodes
    /// excluded by the caller).
    blocked: Vec<bool>,
    is_output_source: Vec<bool>,
    software_cost: Vec<u32>,
    hardware_delay: Vec<f64>,
    area_cost: Vec<f64>,
    /// `suffix_mass[ℓ]` = total software cycles of the non-blocked nodes decided at
    /// levels `ℓ..` — the most the remaining frontier can still add to any cut.
    suffix_mass: Vec<u64>,
    /// Block inputs plus operation nodes: no input floor can exceed it.
    floor_ceiling: usize,
}

impl<'a> BlockContext<'a> {
    /// Precomputes the search context for one block.
    #[must_use]
    pub fn new(dfg: &'a Dfg, constraints: Constraints, model: &'a dyn CostModel) -> Self {
        let n = dfg.node_count();
        let mut sources = Vec::with_capacity(n);
        let mut blocked = Vec::with_capacity(n);
        let mut is_output_source = Vec::with_capacity(n);
        let mut software_cost = Vec::with_capacity(n);
        let mut hardware_delay = Vec::with_capacity(n);
        let mut area_cost = Vec::with_capacity(n);
        for (id, node) in dfg.iter_nodes() {
            let mut node_sources: Vec<Source> = Vec::new();
            for operand in &node.operands {
                let source = match *operand {
                    Operand::Node(m) => Source::Node(m.index()),
                    Operand::Input(p) => Source::Input(p.index()),
                    Operand::Imm(_) => continue,
                };
                let duplicate = node_sources.iter().any(|s| match (s, &source) {
                    (Source::Node(a), Source::Node(b)) => a == b,
                    (Source::Input(a), Source::Input(b)) => a == b,
                    _ => false,
                });
                if !duplicate {
                    node_sources.push(source);
                }
            }
            sources.push(node_sources);
            blocked.push(node.is_forbidden_in_afu());
            is_output_source.push(dfg.is_output_source(id));
            software_cost.push(model.software_cycles(node));
            hardware_delay.push(model.hardware_delay(node));
            area_cost.push(model.hardware_area(node));
        }
        // Canonical consumers-first order: structurally determined (certificate
        // tie-breaks), so isomorphic blocks walk isomorphic search trees — the
        // invariant the corpus-level pool sharing in `engine::corpus` relies on.
        let order = ise_ir::canon::canonical_consumers_first(dfg);
        let mut ctx = BlockContext {
            dfg,
            model,
            constraints,
            order,
            sources,
            blocked,
            is_output_source,
            software_cost,
            hardware_delay,
            area_cost,
            suffix_mass: Vec::new(),
            floor_ceiling: dfg.input_count() + n,
        };
        ctx.recompute_suffix_mass();
        ctx
    }

    /// Additionally forbids the given nodes from entering any cut.
    pub fn block_nodes(&mut self, excluded: &CutSet) {
        for id in excluded.iter() {
            if id.index() < self.blocked.len() {
                self.blocked[id.index()] = true;
            }
        }
        // Blocked nodes can never contribute software mass to a cut.
        self.recompute_suffix_mass();
    }

    fn recompute_suffix_mass(&mut self) {
        let depth = self.order.len();
        let mut mass = vec![0u64; depth + 1];
        for level in (0..depth).rev() {
            let index = self.order[level].index();
            let cost = if self.blocked[index] {
                0
            } else {
                u64::from(self.software_cost[index])
            };
            mass[level] = mass[level + 1] + cost;
        }
        self.suffix_mass = mass;
    }

    /// Number of decision levels (= operation nodes of the block).
    #[must_use]
    #[inline(always)]
    pub fn depth(&self) -> usize {
        self.order.len()
    }

    /// The node decided at `level` of the search tree.
    #[must_use]
    #[inline(always)]
    pub fn node_at(&self, level: usize) -> NodeId {
        self.order[level]
    }

    /// Returns `true` if `node` may never enter a cut.
    #[must_use]
    #[inline(always)]
    pub fn is_blocked(&self, node: NodeId) -> bool {
        self.blocked[node.index()]
    }

    /// Software cycles the cost model assigns to `node`.
    #[must_use]
    #[inline(always)]
    pub fn node_software_cost(&self, node: NodeId) -> u32 {
        self.software_cost[node.index()]
    }

    /// `Nin`, when the input floor can pass it on this block: the limit the single-cut
    /// walks prune the floor against. `None` when `Nin` is at least the block's inputs
    /// plus its nodes (an unbounded `Nin`, say), where no floor can pass it and the
    /// walks skip the check altogether.
    #[must_use]
    #[inline(always)]
    pub fn input_limit(&self) -> Option<usize> {
        let limit = self.constraints.max_inputs;
        (limit < self.floor_ceiling).then_some(limit)
    }

    /// Total software cycles of the non-blocked nodes still undecided at levels
    /// `level..` — the frontier mass feeding the optimistic bound.
    #[must_use]
    #[inline(always)]
    pub fn remaining_mass(&self, level: usize) -> u64 {
        self.suffix_mass[level.min(self.suffix_mass.len() - 1)]
    }
}

/// One reversible mutation of an [`IncrementalCutState`], kept on its LIFO journal.
#[derive(Debug, Clone)]
enum UndoEntry {
    /// `add` was applied to `node`; the scalar accumulators held these values before.
    Added {
        node: NodeId,
        inputs: usize,
        block_inputs: usize,
        outputs: usize,
        software: u64,
        critical_path: f64,
        hardware_cycles: u32,
        area: f64,
    },
    /// `mark_outside` was applied to `node`, whose mark was `previous`; `read` when
    /// `node` joined the input floor.
    MarkedOutside {
        node: NodeId,
        previous: Mark,
        read: bool,
    },
}

/// Where one node stands relative to the cut under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Undecided, or decided outside with no downstream path into the cut.
    Clear,
    /// A member of the cut.
    Member,
    /// Decided outside, with a downstream path into the cut.
    Reaches,
}

/// Result of probing whether a node can join a cut, before mutating anything.
#[derive(Debug, Clone, Copy)]
pub struct AddProbe {
    /// `OUT(S ∪ {node})` — the output-port count after the addition.
    pub outputs: usize,
    /// Whether the grown cut remains convex.
    pub convex: bool,
}

/// The opt-in incumbent bound evaluated by [`IncrementalCutState::try_add_probed`] after
/// the paper's structural checks (output ports → convexity → node budget).
///
/// `optimistic` is an upper bound on the objective reachable anywhere in the subtree
/// below the attempt; when it cannot *strictly* beat `threshold` (the incumbent's
/// score), the subtree is pruned and counted as [`SearchStats::pruned_bound`]. The
/// threshold is visit-order-dependent, hence sequential-only: only the single-cut
/// search's incumbent mode sets it. The default searches pass [`BoundCheck::disabled`].
#[derive(Debug, Clone, Copy)]
pub struct BoundCheck {
    /// Upper bound on the objective reachable in the subtree below the attempt.
    pub optimistic: f64,
    /// The score the subtree must strictly beat to be worth exploring.
    pub threshold: f64,
}

impl BoundCheck {
    /// A check that never prunes: the paper's rules alone.
    #[must_use]
    #[inline(always)]
    pub fn disabled() -> Self {
        BoundCheck {
            optimistic: f64::INFINITY,
            threshold: 0.0,
        }
    }
}

/// How one 1-branch attempt ended ([`IncrementalCutState::try_add_probed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// Pruned before the cut grew: by the output ports, convexity, the node budget or
    /// the incumbent bound.
    Pruned,
    /// The grown cut's input floor, carried here, passed `Nin`; the cut is back as it
    /// was.
    OverFloor(usize),
    /// The node joined the cut.
    Added,
}

/// Snapshot-and-restorable incremental bookkeeping for one cut under construction.
///
/// Maintains `IN(S)`, `OUT(S)`, the convexity reachability frontier, and the software /
/// critical-path / area accumulators exactly as Section 6.1 of the paper prescribes:
/// a per-node mark and use counts updated along the decided node's edges, so each
/// decision costs `O(fan-in + fan-out)` and the state is `O(n)` memory (see the module
/// docs for the per-edge rules). Every mutation pushes an entry onto an internal
/// journal, so a search can unwind decisions in LIFO order with
/// [`undo_last`](Self::undo_last) — and because the whole state is `Clone`, a parallel
/// search can snapshot it at any tree node and hand the copy to a subtree task.
///
/// The per-edge rules assume the walk discipline every kernel policy follows: nodes
/// are decided (added via `try_add*` or marked outside) in the consumers-first order of
/// the [`BlockContext`] and undone in LIFO order. The property suite checks the state
/// against `crate::cut`'s from-scratch `evaluate` and `is_convex` after every decision.
#[derive(Debug, Clone)]
pub struct IncrementalCutState {
    /// Per node: membership, or for decided-outside nodes whether a downstream path
    /// leads into the cut.
    marks: Vec<Mark>,
    /// For nodes in the cut: longest downstream delay path within the cut, including
    /// the node's own delay. Entries of nodes outside the cut are kept at `0.0`
    /// (restored on undo, and debug-asserted on add).
    longest_path: Vec<f64>,
    /// Per node: how many members read its value.
    node_uses: Vec<u32>,
    /// Per block input: how many members read it.
    input_uses: Vec<u32>,
    /// Members of the cut, in insertion order.
    members: Vec<NodeId>,
    /// `IN(S)`.
    inputs: usize,
    /// The block inputs among `IN(S)`: they only grow down a subtree.
    block_inputs: usize,
    /// Member-read nodes decided outside: the rest of the input floor, which only
    /// grows down a subtree too. Kept by the walks that mark nodes outside with
    /// `floor` set.
    outside_reads: usize,
    outputs: usize,
    software: u64,
    critical_path: f64,
    /// `cycles_for_delay(critical_path)`, maintained incrementally so the merit never
    /// re-derives the ceiling on the hot path.
    hardware_cycles: u32,
    area: f64,
    journal: Vec<UndoEntry>,
}

impl IncrementalCutState {
    /// Fresh (empty-cut) state for a block.
    #[must_use]
    pub fn new(ctx: &BlockContext<'_>) -> Self {
        let n = ctx.dfg.node_count();
        IncrementalCutState {
            marks: vec![Mark::Clear; n],
            longest_path: vec![0.0; n],
            node_uses: vec![0; n],
            input_uses: vec![0; ctx.dfg.input_count()],
            members: Vec::new(),
            inputs: 0,
            block_inputs: 0,
            outside_reads: 0,
            outputs: 0,
            software: 0,
            critical_path: 0.0,
            hardware_cycles: 0,
            area: 0.0,
            journal: Vec::new(),
        }
    }

    /// Number of members.
    #[must_use]
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cut has no members.
    #[must_use]
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `IN(S)` of the current cut.
    #[must_use]
    #[inline(always)]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// `OUT(S)` of the current cut.
    #[must_use]
    #[inline(always)]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The input floor of the current tree path: the block inputs members read plus
    /// the member-read nodes decided outside. Every cut below has at least this many
    /// inputs (see the module docs).
    #[must_use]
    #[inline(always)]
    pub fn input_floor(&self) -> usize {
        self.block_inputs + self.outside_reads
    }

    /// Accumulated software cycles of the members.
    #[must_use]
    #[inline(always)]
    pub fn software(&self) -> u64 {
        self.software
    }

    /// Critical-path delay of the cut's datapath.
    #[must_use]
    #[inline(always)]
    pub fn critical_path(&self) -> f64 {
        self.critical_path
    }

    /// Accumulated normalised datapath area.
    #[must_use]
    #[inline(always)]
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Merit `M(S)` of the current cut.
    ///
    /// Bit-identical to [`cut_merit`] on the accumulated quantities: `hardware_cycles`
    /// caches `cycles_for_delay(critical_path)` exactly (both are maintained in the
    /// same journalled add/undo), and `u32 → f64` is lossless.
    #[must_use]
    #[inline(always)]
    pub fn merit(&self) -> f64 {
        debug_assert_eq!(
            self.hardware_cycles,
            HardwareDelayModel::cycles_for_delay(self.critical_path)
        );
        self.software as f64 - f64::from(self.hardware_cycles)
    }

    /// Returns `true` if `node` is a member of the cut.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.marks[node.index()] == Mark::Member
    }

    /// Upper bound on the merit reachable in the subtree below adding the node at
    /// `level`: the whole remaining frontier (this node included) joins the cut for
    /// free, while the critical path keeps its current value — software mass is
    /// additive and the critical path can only grow, so this only overestimates.
    #[must_use]
    #[inline(always)]
    pub fn optimistic_with(&self, ctx: &BlockContext<'_>, level: usize) -> f64 {
        let node = ctx.node_at(level);
        cut_merit(
            self.software + u64::from(ctx.node_software_cost(node)) + ctx.remaining_mass(level + 1),
            self.critical_path,
        )
    }

    /// Upper bound on the merit reachable in the subtree below leaving the node at
    /// `level` in software (the node's own cycles are excluded from the frontier mass).
    #[must_use]
    #[inline(always)]
    pub fn optimistic_without(&self, ctx: &BlockContext<'_>, level: usize) -> f64 {
        cut_merit(
            self.software + ctx.remaining_mass(level + 1),
            self.critical_path,
        )
    }

    /// Checks the output-port count and convexity of the cut grown by `node`, without
    /// mutating anything: one scan of the node's consumer edges.
    #[must_use]
    #[inline(always)]
    pub fn probe_add(&self, ctx: &BlockContext<'_>, node: NodeId) -> AddProbe {
        let mut external = ctx.is_output_source[node.index()];
        for c in ctx.dfg.consumers(node) {
            match self.marks[c.index()] {
                Mark::Member => {}
                Mark::Clear => external = true,
                // An outside consumer on a path back into the cut: not convex (and
                // that consumer is external).
                Mark::Reaches => {
                    return AddProbe {
                        outputs: self.outputs + 1,
                        convex: false,
                    }
                }
            }
        }
        AddProbe {
            outputs: self.outputs + usize::from(external),
            convex: true,
        }
    }

    /// The shared 1-branch attempt used by every pruning policy: counts the cut,
    /// probes it, applies the pruning rules in their canonical order (output ports →
    /// convexity → node budget → `bound`, which prunes only in incumbent mode → the
    /// input floor against `input_limit`), and on success leaves `node` added.
    ///
    /// `input_limit` is [`BlockContext::input_limit`] for the single-cut walks and
    /// `None` for the multiple-cut walk, which does not prune on the floor.
    ///
    /// Returns `false` — with the matching `pruned_*` counter bumped and the state
    /// untouched — when the branch (and its whole subtree) is eliminated. Living here
    /// once, this block cannot drift apart between the single-cut and multiple-cut
    /// policies, whose per-cut counting and pruning are required to be identical.
    #[inline(always)]
    pub fn try_add(
        &mut self,
        ctx: &BlockContext<'_>,
        node: NodeId,
        input_limit: Option<usize>,
        bound: BoundCheck,
        stats: &mut SearchStats,
    ) -> bool {
        let probe = self.probe_add(ctx, node);
        self.try_add_probed(ctx, node, probe, input_limit, bound, stats) == Attempt::Added
    }

    /// The counting-and-pruning half of [`try_add`](Self::try_add), for callers that
    /// already hold the [`AddProbe`] (the policies report it to their sink). The probe
    /// **must** come from [`probe_add`](Self::probe_add) on the current state.
    ///
    /// The input floor is checked on the grown cut, so an attempt that passes costs
    /// one comparison more than the paper's, and one it prunes is added and undone.
    /// Either way the grown cut's floor is known without a scan: the cut's, once added,
    /// or the one [`Attempt::OverFloor`] carries.
    #[inline(always)]
    pub fn try_add_probed(
        &mut self,
        ctx: &BlockContext<'_>,
        node: NodeId,
        probe: AddProbe,
        input_limit: Option<usize>,
        bound: BoundCheck,
        stats: &mut SearchStats,
    ) -> Attempt {
        stats.cuts_considered += 1;
        if probe.outputs > ctx.constraints.max_outputs {
            stats.pruned_output += 1;
            return Attempt::Pruned;
        }
        if !probe.convex {
            stats.pruned_convexity += 1;
            return Attempt::Pruned;
        }
        if !self.within_node_budget(ctx) {
            stats.pruned_node_budget += 1;
            return Attempt::Pruned;
        }
        if bound.optimistic <= bound.threshold {
            stats.pruned_bound += 1;
            return Attempt::Pruned;
        }
        self.add(ctx, node, probe.outputs);
        let floor = self.input_floor();
        if input_limit.is_some_and(|limit| floor > limit) {
            self.undo_last(ctx);
            stats.pruned_inputs += 1;
            return Attempt::OverFloor(floor);
        }
        stats.feasible_cuts += 1;
        Attempt::Added
    }

    /// Adds `node` to the cut, maintaining every quantity incrementally along the
    /// node's edges.
    ///
    /// `new_outputs` is the output count probed by [`probe_add`](Self::probe_add); it is
    /// passed back in so the fan-out scan is not repeated.
    #[inline(always)]
    pub fn add(&mut self, ctx: &BlockContext<'_>, node: NodeId, new_outputs: usize) {
        let index = node.index();
        self.journal.push(UndoEntry::Added {
            node,
            inputs: self.inputs,
            block_inputs: self.block_inputs,
            outputs: self.outputs,
            software: self.software,
            critical_path: self.critical_path,
            hardware_cycles: self.hardware_cycles,
            area: self.area,
        });
        // Incremental IN(S): `node` stops being an external source, and its own sources
        // start counting (once each; consumers-first order keeps them outside the cut).
        if self.node_uses[index] > 0 {
            self.inputs -= 1;
        }
        for source in &ctx.sources[index] {
            match *source {
                Source::Node(m) => {
                    self.node_uses[m] += 1;
                    if self.node_uses[m] == 1 {
                        self.inputs += 1;
                    }
                }
                Source::Input(p) => {
                    self.input_uses[p] += 1;
                    if self.input_uses[p] == 1 {
                        self.inputs += 1;
                        self.block_inputs += 1;
                    }
                }
            }
        }
        // Incremental critical path: consumers inside the cut are already final.
        let downstream = ctx
            .dfg
            .consumers(node)
            .iter()
            .filter(|c| self.marks[c.index()] == Mark::Member)
            .map(|c| self.longest_path[c.index()])
            .fold(0.0f64, f64::max);
        let path_through_node = downstream + ctx.hardware_delay[index];
        debug_assert_eq!(
            self.longest_path[index], 0.0,
            "stale longest_path entry: undo must reset entries of removed members"
        );
        self.longest_path[index] = path_through_node;
        if path_through_node > self.critical_path {
            self.critical_path = path_through_node;
            self.hardware_cycles = HardwareDelayModel::cycles_for_delay(path_through_node);
        }
        self.software += u64::from(ctx.software_cost[index]);
        self.area += ctx.area_cost[index];
        self.outputs = new_outputs;
        self.marks[index] = Mark::Member;
        self.members.push(node);
    }

    /// Records the decision to keep `node` outside the cut: it reaches the cut when one
    /// of its consumers is a member or reaches it (see the module docs for why the flag
    /// stays correct as the cut grows). With `floor` set, `node` joins the input floor
    /// when a member reads it; a walk that neither prunes on the floor nor records it
    /// passes `false` and skips that step, and must do so for its whole path.
    #[inline(always)]
    pub fn mark_outside(&mut self, ctx: &BlockContext<'_>, node: NodeId, floor: bool) {
        let index = node.index();
        let reaches = ctx
            .dfg
            .consumers(node)
            .iter()
            .any(|c| self.marks[c.index()] != Mark::Clear);
        let previous = self.marks[index];
        // Every member reading `node` was decided before it, so this stays exact.
        let read = floor && self.node_uses[index] > 0;
        if read {
            self.outside_reads += 1;
        }
        self.journal.push(UndoEntry::MarkedOutside {
            node,
            previous,
            read,
        });
        self.marks[index] = if reaches { Mark::Reaches } else { Mark::Clear };
    }

    /// Reverses the most recent [`add`](Self::add) or
    /// [`mark_outside`](Self::mark_outside).
    ///
    /// # Panics
    ///
    /// Panics if the journal is empty (an undo without a matching mutation is a policy
    /// bug, not a recoverable condition).
    #[inline(always)]
    pub fn undo_last(&mut self, ctx: &BlockContext<'_>) {
        self.undo(ctx, true);
    }

    /// [`undo_last`](Self::undo_last) for a walk that marks nodes outside with `floor`
    /// set exactly when this one is: without it, the compiled undo is the paper's.
    #[inline(always)]
    pub(crate) fn undo(&mut self, ctx: &BlockContext<'_>, floor: bool) {
        match self.journal.pop().expect("undo without a prior mutation") {
            UndoEntry::Added {
                node,
                inputs,
                block_inputs,
                outputs,
                software,
                critical_path,
                hardware_cycles,
                area,
            } => {
                let index = node.index();
                self.members.pop();
                self.marks[index] = Mark::Clear;
                // Reset so the next occupant of this entry starts clean (the add
                // debug-asserts this invariant).
                self.longest_path[index] = 0.0;
                for source in &ctx.sources[index] {
                    match *source {
                        Source::Node(m) => self.node_uses[m] -= 1,
                        Source::Input(p) => self.input_uses[p] -= 1,
                    }
                }
                self.inputs = inputs;
                self.block_inputs = block_inputs;
                self.outputs = outputs;
                self.software = software;
                self.critical_path = critical_path;
                self.hardware_cycles = hardware_cycles;
                self.area = area;
            }
            UndoEntry::MarkedOutside {
                node,
                previous,
                read,
            } => {
                self.marks[node.index()] = previous;
                if floor && read {
                    self.outside_reads -= 1;
                }
            }
        }
    }

    /// Whether the optional node budget still admits one more member.
    #[must_use]
    #[inline(always)]
    pub(crate) fn within_node_budget(&self, ctx: &BlockContext<'_>) -> bool {
        ctx.constraints
            .max_nodes
            .is_none_or(|limit| self.len() < limit)
    }

    /// Whether the cut may be offered as a candidate: the input-port constraint and the
    /// area / node budgets, which never prune (adding a producer may reduce `IN(S)`)
    /// and are therefore checked only here.
    #[must_use]
    #[inline(always)]
    pub(crate) fn is_candidate(&self, ctx: &BlockContext<'_>) -> bool {
        self.inputs() <= ctx.constraints.max_inputs
            && ctx.constraints.budget_ok(self.area(), self.len())
    }

    /// Packages the current cut and its incrementally maintained evaluation.
    #[must_use]
    pub fn identified(&self, ctx: &BlockContext<'_>) -> IdentifiedCut {
        IdentifiedCut {
            cut: CutSet::from_nodes(ctx.dfg, self.members.iter().copied()),
            evaluation: CutEvaluation {
                nodes: self.members.len(),
                inputs: self.inputs(),
                outputs: self.outputs,
                convex: true,
                software_cycles: self.software,
                hardware_critical_path: self.critical_path,
                hardware_cycles: ctx.model.cycles_for_delay(self.critical_path),
                area: self.area,
                merit: self.merit(),
            },
        }
    }
}

/// The incumbent solution of one (sub)tree walk, plus the ascending score log of its
/// improvements.
///
/// The log is what makes parallel subtree results mergeable without losing the
/// sequential semantics: replaying a later subtree's improvements against the running
/// global best reproduces exactly the updates the sequential walk would have made (see
/// the module documentation).
#[derive(Debug, Clone)]
pub struct Incumbent<T> {
    score: f64,
    improvements: Vec<f64>,
    payload: Option<T>,
}

impl<T> Default for Incumbent<T> {
    fn default() -> Self {
        Incumbent {
            score: 0.0,
            improvements: Vec::new(),
            payload: None,
        }
    }
}

impl<T> Incumbent<T> {
    /// An empty incumbent with score zero (candidates must strictly beat it).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// The best score offered so far (zero when none).
    #[must_use]
    #[inline(always)]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Offers a candidate; the payload is only built when `score` strictly improves on
    /// the incumbent.
    #[inline(always)]
    pub fn offer(&mut self, score: f64, make: impl FnOnce() -> T) {
        if score > self.score {
            self.score = score;
            self.improvements.push(score);
            self.payload = Some(make());
        }
    }

    /// Number of times the incumbent improved.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.improvements.len() as u64
    }

    /// The best payload, consuming the incumbent.
    #[must_use]
    pub fn into_payload(self) -> Option<T> {
        self.payload
    }
}

/// What one kernel walk records: the associated sink of a [`SearchPolicy`].
///
/// The sequential walk records into one sink. The split walk gives every inline
/// segment and every subtree task a [`fresh`](Self::fresh) sink and folds them with
/// [`absorb`](Self::absorb) in depth-first order, so a sink type is only correct if
/// absorbing `later` leaves exactly what recording `later`'s visits after `self`'s
/// would have left. [`Incumbent`] replays its improvement log; the pool fill's
/// recorder adds its histograms and re-offers its store entries with shifted
/// enumeration indices (see `crate::pool`).
pub trait WalkSink: Send + Sync + Sized {
    /// An empty sink configured like `self` (for a subtree task or inline segment).
    #[must_use]
    fn fresh(&self) -> Self;

    /// Folds in `later`, the sink of a unit the sequential walk visits after
    /// everything absorbed so far.
    fn absorb(&mut self, later: Self);
}

impl<T: Send + Sync> WalkSink for Incumbent<T> {
    #[inline(always)]
    fn fresh(&self) -> Self {
        Incumbent::empty()
    }

    /// Replays `later`'s improvements against this incumbent.
    ///
    /// Within one subtree the improvement log is strictly ascending, so the
    /// sequentially surviving improvements are exactly the suffix strictly above the
    /// current global score, and the subtree's final payload is the payload of the last
    /// survivor. This operation is associative, which is what lets the kernel fold
    /// segments and subtree results left-to-right in subtree-index order.
    #[inline(always)]
    fn absorb(&mut self, later: Self) {
        let first_surviving = later.improvements.partition_point(|&m| m <= self.score);
        if first_surviving < later.improvements.len() {
            self.improvements
                .extend_from_slice(&later.improvements[first_surviving..]);
            self.score = later.score;
            self.payload = later.payload;
        }
    }
}

/// What the single-cut and multiple-cut policies report into their sink about the
/// walk, besides the kernel's own counters: every 1-branch attempt and every
/// qualifying candidate.
///
/// A direct search records into an [`Incumbent`], which ignores attempts and keeps the
/// best candidate; the calls monomorphise away and leave the plain search walk. A pool
/// fill (`crate::pool`) records into a sink that histograms the attempts and keeps
/// every non-dominated candidate instead — so both run one policy per algorithm, and
/// both split across subtree tasks the same way.
///
/// `prefix` is the largest `OUT` applied on the current tree path. `OUT` only grows
/// along the consumers-first order, so that is the current cut's `OUT` (for
/// multicut, the largest slot `OUT`). Likewise the input floor only grows, so the
/// current floor is the largest on the path.
pub(crate) trait SearchHook<P>: WalkSink {
    /// One 1-branch attempt with its query-independent flags. `floors` holds the
    /// path's input floor and the attempt's own (fresh block inputs included) when the
    /// attempt grew the cut, if only to be pruned on the floor; an attempt pruned
    /// before reports the path's floor twice, since no query reaches its floor check.
    /// A walk that does not keep the floor — the multiple-cut walk, a direct search at
    /// an unbounded `Nin` — reports `(0, 0)`.
    fn attempt(
        &mut self,
        prefix: usize,
        probe: AddProbe,
        within_budget: bool,
        floors: (usize, usize),
    );

    /// A candidate that passed [`IncrementalCutState::is_candidate`] (every slot, for
    /// tuples), with its signature `(IN, OUT)` and score; `make` builds the payload.
    fn offer(&mut self, inputs: usize, outputs: usize, score: f64, make: impl FnOnce() -> P);

    /// The threshold the opt-in incumbent bound must strictly beat: the incumbent's
    /// score. Pool fills never enable the bound; their recorder answers zero.
    fn bound_threshold(&self) -> f64;
}

/// The direct search's [`SearchHook`]: records nothing, keeps the best candidate.
impl<P: Send + Sync> SearchHook<P> for Incumbent<P> {
    #[inline(always)]
    fn attempt(
        &mut self,
        _prefix: usize,
        _probe: AddProbe,
        _within: bool,
        _floors: (usize, usize),
    ) {
    }

    #[inline(always)]
    fn offer(&mut self, _inputs: usize, _outputs: usize, score: f64, make: impl FnOnce() -> P) {
        Incumbent::offer(self, score, make);
    }

    #[inline(always)]
    fn bound_threshold(&self) -> f64 {
        self.score
    }
}

/// The per-algorithm hooks of the shared kernel.
///
/// A policy describes one decision tree: `depth()` levels, up to
/// [`choice_count`](Self::choice_count) branches per level (tried in increasing index
/// order), and an [`apply`](Self::apply)/[`undo`](Self::undo) pair that mutates the
/// reusable search state. Returning `false` from `apply` eliminates the whole subtree
/// below that branch — the paper's subtree-elimination pruning.
pub trait SearchPolicy: Sync {
    /// What a walk records (an [`Incumbent`] of one [`IdentifiedCut`] or a tuple of
    /// cuts for a direct search, the recorder for a pool fill).
    type Sink: WalkSink;
    /// The snapshot-and-restorable search state.
    type State: Clone + Send + Sync;

    /// Number of decision levels.
    fn depth(&self) -> usize;

    /// The maximal branching factor of any level (used to bound the parallel split).
    fn max_arity(&self) -> usize;

    /// Fresh state for the root of the tree.
    fn initial_state(&self) -> Self::State;

    /// Number of branches available at `level` in `state`. Must be identical every time
    /// the walk returns to the same tree node with the same state.
    fn choice_count(&self, state: &Self::State, level: usize) -> usize;

    /// Tries to apply branch `choice` at `level`.
    ///
    /// On success the policy must leave exactly one reversible mutation per involved
    /// cut state, may update `stats`, may record into `sink`, and returns
    /// `true` so the kernel descends. Returning `false` means the branch (and its whole
    /// subtree) is pruned and **no** state mutation may remain.
    fn apply(
        &self,
        state: &mut Self::State,
        level: usize,
        choice: usize,
        stats: &mut SearchStats,
        sink: &mut Self::Sink,
    ) -> bool;

    /// Reverses a successful [`apply`](Self::apply) of `choice` at `level`.
    fn undo(&self, state: &mut Self::State, level: usize, choice: usize);

    /// Returns `true` when the policy's pruning reads visit-order-dependent state (the
    /// incumbent-score bound threshold): the kernel then ignores any split hint, since
    /// a partitioned walk would see different incumbents and prune a different tree.
    fn requires_sequential(&self) -> bool {
        false
    }
}

/// One explicit-stack frame of the kernel's depth-first walk: the decision level, the
/// next branch to try, and the branch currently applied (awaiting its undo), or
/// [`Frame::NOTHING_APPLIED`]. `u32` fields keep a frame at 12 bytes: a walk checks on
/// entry that its levels fit, and a branch index is at most a policy's arity.
#[derive(Debug, Clone, Copy)]
struct Frame {
    level: u32,
    next_choice: u32,
    applied: u32,
}

impl Frame {
    /// The `applied` sentinel of a frame with no branch awaiting its undo.
    const NOTHING_APPLIED: u32 = u32::MAX;

    #[inline(always)]
    fn enter(level: u32) -> Self {
        Frame {
            level,
            next_choice: 0,
            applied: Self::NOTHING_APPLIED,
        }
    }
}

/// The levels and budget of one [`walk_range`]: it descends from `start` down to (but
/// never into) `frontier`, and stops once `budget` cuts have been considered.
#[derive(Debug, Clone, Copy)]
struct WalkRange {
    start: usize,
    frontier: usize,
    budget: Option<u64>,
}

/// One ordered merge unit of the parallel walk: either the sink and stats accumulated
/// inline while enumerating tree-top prefixes, or the result of subtree task `n`.
enum MergeUnit<S> {
    Inline(S, SearchStats),
    Task(usize),
}

/// The shared branch-and-bound driver. See the module documentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchKernel {
    /// Number of top decision-tree levels split into independent parallel subtree
    /// tasks; `0` runs the classic sequential walk.
    pub split_levels: usize,
    /// Optional global cap on [`SearchStats::cuts_considered`], after which the walk
    /// stops and reports its incumbent. Forces the sequential walk.
    pub exploration_budget: Option<u64>,
}

impl SearchKernel {
    /// A sequential kernel with no budget.
    #[must_use]
    pub fn sequential() -> Self {
        SearchKernel::default()
    }

    /// Sets the number of top levels fanned out as parallel subtree tasks.
    #[must_use]
    pub fn with_split_levels(mut self, levels: usize) -> Self {
        self.split_levels = levels;
        self
    }

    /// Sets (or clears) the exploration budget.
    #[must_use]
    pub fn with_exploration_budget(mut self, budget: Option<u64>) -> Self {
        self.exploration_budget = budget;
        self
    }

    /// Runs the policy's search tree to completion and returns the best payload plus
    /// the search statistics. Parallel and sequential walks return identical results.
    #[must_use]
    pub fn run<P, T>(&self, policy: &P) -> (Option<T>, SearchStats)
    where
        P: SearchPolicy<Sink = Incumbent<T>>,
        T: Send + Sync,
    {
        let (incumbent, mut stats) = self.run_into(policy, Incumbent::empty());
        stats.best_updates = incumbent.updates();
        (incumbent.into_payload(), stats)
    }

    /// Runs the policy's search tree to completion, recording into `sink`, and returns
    /// the sink plus the search statistics (`best_updates` stays zero: only an
    /// [`Incumbent`] knows it). Parallel and sequential walks return identical results.
    #[must_use]
    pub(crate) fn run_into<P: SearchPolicy>(
        &self,
        policy: &P,
        mut sink: P::Sink,
    ) -> (P::Sink, SearchStats) {
        let mut stats = SearchStats::default();
        let split = self.effective_split(policy);
        if split == 0 {
            let mut state = policy.initial_state();
            walk(
                policy,
                &mut state,
                0,
                self.exploration_budget,
                &mut stats,
                &mut sink,
            );
        } else {
            self.run_split(policy, split, &mut stats, &mut sink);
        }
        (sink, stats)
    }

    /// The split depth actually used: clamped below the tree depth, disabled entirely
    /// under an exploration budget or a sequential-only policy, and bounded so the task
    /// count stays reasonable.
    fn effective_split<P: SearchPolicy>(&self, policy: &P) -> usize {
        if self.exploration_budget.is_some() || policy.requires_sequential() {
            return 0;
        }
        let depth = policy.depth();
        let mut split = self.split_levels.min(depth.saturating_sub(1));
        let arity = policy.max_arity().max(2) as u64;
        while split > 0
            && arity
                .checked_pow(split as u32)
                .is_none_or(|tasks| tasks > MAX_SUBTREE_TASKS)
        {
            split -= 1;
        }
        split
    }

    /// The two-phase parallel walk: enumerate tree-top prefixes sequentially (recording
    /// inline evaluations and state snapshots in depth-first order), solve the subtrees
    /// in parallel, and fold everything back together in subtree-index order.
    fn run_split<P: SearchPolicy>(
        &self,
        policy: &P,
        split: usize,
        stats: &mut SearchStats,
        sink: &mut P::Sink,
    ) {
        let mut units: Vec<MergeUnit<P::Sink>> = Vec::new();
        let mut tasks: Vec<P::State> = Vec::new();
        let mut segment_sink = sink.fresh();
        let mut segment_stats = SearchStats::default();

        // Enumerate the tree-top prefixes with the same walk as everything else, the
        // frontier stopping at `split`: each surviving prefix closes the inline segment
        // accumulated since the previous snapshot and hands its subtree to a task.
        let mut state = policy.initial_state();
        let prefixes = WalkRange {
            start: 0,
            frontier: split,
            budget: None,
        };
        walk_range(
            policy,
            &mut state,
            prefixes,
            &mut segment_stats,
            &mut segment_sink,
            |state, stats, segment| {
                let closed = std::mem::replace(segment, segment.fresh());
                units.push(MergeUnit::Inline(closed, std::mem::take(stats)));
                units.push(MergeUnit::Task(tasks.len()));
                tasks.push(state.clone());
            },
        );
        units.push(MergeUnit::Inline(segment_sink, segment_stats));

        let root: &P::Sink = sink;
        let mut results: Vec<Option<(P::Sink, SearchStats)>> = tasks
            .par_iter()
            .map(|snapshot| {
                let mut state = snapshot.clone();
                let mut stats = SearchStats::default();
                let mut task_sink = root.fresh();
                walk(policy, &mut state, split, None, &mut stats, &mut task_sink);
                Some((task_sink, stats))
            })
            .collect();

        for unit in units {
            let (unit_sink, unit_stats) = match unit {
                MergeUnit::Inline(sink, stats) => (sink, stats),
                MergeUnit::Task(index) => results[index].take().expect("each task used once"),
            };
            sink.absorb(unit_sink);
            merge_stats(stats, &unit_stats);
        }
    }
}

/// Sums the effort counters of `other` into `stats` (everything except `best_updates`,
/// which [`SearchKernel::run`] recomputes from the merged incumbent).
fn merge_stats(stats: &mut SearchStats, other: &SearchStats) {
    stats.cuts_considered += other.cuts_considered;
    stats.feasible_cuts += other.feasible_cuts;
    stats.pruned_output += other.pruned_output;
    stats.pruned_convexity += other.pruned_convexity;
    stats.pruned_node_budget += other.pruned_node_budget;
    stats.pruned_inputs += other.pruned_inputs;
    stats.pruned_bound += other.pruned_bound;
    stats.bound_subtree_prunes += other.bound_subtree_prunes;
    stats.budget_exhausted |= other.budget_exhausted;
}

fn budget_left(stats: &SearchStats, budget: Option<u64>) -> bool {
    budget.is_none_or(|limit| stats.cuts_considered < limit)
}

/// The sequential explicit-stack depth-first walk from `start_level` to the leaves.
///
/// Replicates the recursion of the original per-algorithm searches exactly: the budget
/// is checked once on entering a level (covering all of its branches), candidates are
/// evaluated inside `apply` — i.e. before descending — and branches are tried in
/// increasing choice order.
fn walk<P: SearchPolicy>(
    policy: &P,
    state: &mut P::State,
    start_level: usize,
    budget: Option<u64>,
    stats: &mut SearchStats,
    sink: &mut P::Sink,
) {
    let range = WalkRange {
        start: start_level,
        frontier: policy.depth(),
        budget,
    };
    walk_range(policy, state, range, stats, sink, |_, _, _| {});
}

/// The one explicit-stack depth-first walk every kernel mode runs on: descends from
/// `range.start` down to (but never into) `range.frontier`, calling `on_frontier` for
/// each successfully applied choice whose child level *is* the frontier. The full
/// sequential walk is `frontier == depth` with a no-op frontier hook; the parallel
/// prefix enumeration is `frontier == split` with a snapshot hook. Keeping a single
/// loop is what guarantees the two modes can never diverge in traversal order.
///
/// This loop is the hot path (see the module docs): every policy, hook and cut-state
/// step it reaches per attempt is `#[inline(always)]`.
fn walk_range<P: SearchPolicy>(
    policy: &P,
    state: &mut P::State,
    range: WalkRange,
    stats: &mut SearchStats,
    sink: &mut P::Sink,
    mut on_frontier: impl FnMut(&mut P::State, &mut SearchStats, &mut P::Sink),
) {
    let WalkRange {
        start,
        frontier,
        budget,
    } = range;
    if start >= frontier {
        return;
    }
    if !budget_left(stats, budget) {
        stats.budget_exhausted = true;
        return;
    }
    let frontier = u32::try_from(frontier).expect("tree depth fits in u32");
    let start = u32::try_from(start).expect("tree depth fits in u32");
    // The stack never holds more than one frame per level in `start..frontier`, plus
    // the one being popped.
    let mut stack = Vec::with_capacity((frontier - start) as usize + 1);
    stack.push(Frame::enter(start));
    while let Some(frame) = stack.last_mut() {
        let level = frame.level as usize;
        if frame.applied != Frame::NOTHING_APPLIED {
            policy.undo(state, level, frame.applied as usize);
            frame.applied = Frame::NOTHING_APPLIED;
        }
        let choice = frame.next_choice;
        if choice as usize >= policy.choice_count(state, level) {
            stack.pop();
            continue;
        }
        frame.next_choice = choice + 1;
        if !policy.apply(state, level, choice as usize, stats, sink) {
            continue;
        }
        frame.applied = choice;
        let child = frame.level + 1;
        if child == frontier {
            on_frontier(state, stats, sink);
            continue;
        }
        if !budget_left(stats, budget) {
            stats.budget_exhausted = true;
            continue;
        }
        stack.push(Frame::enter(child));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The incremental state agrees with the reference implementations of `crate::cut`
    /// after every add along a growing cut, and the journal restores it exactly.
    #[test]
    fn incremental_state_matches_reference_and_undoes_exactly() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let ctx = BlockContext::new(&g, Constraints::new(8, 4), &model);
        let mut state = IncrementalCutState::new(&ctx);
        for level in 0..ctx.depth() {
            let node = ctx.node_at(level);
            let probe = state.probe_add(&ctx, node);
            state.add(&ctx, node, probe.outputs);
            let cut = CutSet::from_nodes(&g, state.members.iter().copied());
            let reference = crate::cut::evaluate(&g, &cut, &model);
            assert_eq!(state.inputs(), reference.inputs, "level {level}");
            assert_eq!(state.outputs(), reference.outputs, "level {level}");
            assert_eq!(state.software(), reference.software_cycles);
            assert!((state.critical_path() - reference.hardware_critical_path).abs() < 1e-9);
            assert!((state.merit() - reference.merit).abs() < 1e-9);
        }
        // Unwind completely; the state must return to empty.
        for _ in 0..ctx.depth() {
            state.undo_last(&ctx);
        }
        assert!(state.is_empty());
        assert_eq!(state.inputs(), 0);
        assert_eq!(state.outputs(), 0);
        assert_eq!(state.software(), 0);
        assert!(state.journal.is_empty());
        assert!(state.marks.iter().all(|&mark| mark == Mark::Clear));
        assert!(state.node_uses.iter().all(|&uses| uses == 0));
        assert!(state.input_uses.iter().all(|&uses| uses == 0));
        assert_eq!(state.block_inputs, 0);
        assert_eq!(state.outside_reads, 0);
        assert!(state.longest_path.iter().all(|&d| d == 0.0));
    }

    /// Snapshot/restore across a deep subtree leaves no stale `longest_path` entries:
    /// the all-in path is descended, unwound and descended again, and the debug
    /// assertion in `add` fails if any entry survived the restore.
    #[test]
    fn longest_path_entries_are_reset_across_deep_restores() {
        let mut b = DfgBuilder::new("chain");
        let x = b.input("x");
        let mut v = x;
        for _ in 0..12 {
            v = b.mul(v, x);
        }
        b.output("o", v);
        let g = b.finish();
        let model = DefaultCostModel::new();
        let ctx = BlockContext::new(&g, Constraints::new(8, 4), &model);
        let mut state = IncrementalCutState::new(&ctx);
        for round in 0..2 {
            for level in 0..ctx.depth() {
                let node = ctx.node_at(level);
                let probe = state.probe_add(&ctx, node);
                state.add(&ctx, node, probe.outputs);
            }
            assert_eq!(state.len(), ctx.depth(), "round {round}");
            for _ in 0..ctx.depth() {
                state.undo_last(&ctx);
            }
            assert!(state.is_empty());
            assert!(
                state.longest_path.iter().all(|&d| d == 0.0),
                "round {round}"
            );
        }
    }

    /// `mark_outside` tracks the reference convexity check: after marking a node
    /// outside, probing a producer whose path runs through it reports non-convexity.
    #[test]
    fn probe_detects_nonconvexity_through_marked_nodes() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let ctx = BlockContext::new(&g, Constraints::new(8, 4), &model);
        // Search order is consumers-first: level 0 = final add, then shr/add1, then mul.
        let mut state = IncrementalCutState::new(&ctx);
        let final_add = ctx.node_at(0);
        let probe = state.probe_add(&ctx, final_add);
        state.add(&ctx, final_add, probe.outputs);
        // Leave both intermediate nodes out: paths from mul now leave the cut.
        state.mark_outside(&ctx, ctx.node_at(1), true);
        state.mark_outside(&ctx, ctx.node_at(2), true);
        let mul = ctx.node_at(3);
        assert!(!state.probe_add(&ctx, mul).convex);
        // Undo one mark: the other still breaks convexity.
        state.undo_last(&ctx);
        assert!(!state.probe_add(&ctx, mul).convex);
    }

    /// The bound prunes exactly the attempts whose optimistic merit cannot beat the
    /// threshold, and `try_add_probed` counts them in their own category.
    #[test]
    fn bound_check_prunes_and_counts() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let ctx = BlockContext::new(&g, Constraints::new(8, 4), &model);
        let mut state = IncrementalCutState::new(&ctx);
        let mut stats = SearchStats::default();
        let node = ctx.node_at(0);
        // A hopeless bound prunes (and leaves the state untouched) …
        let hopeless = BoundCheck {
            optimistic: 0.0,
            threshold: 0.0,
        };
        assert!(!state.try_add(&ctx, node, None, hopeless, &mut stats));
        assert_eq!(stats.pruned_bound, 1);
        assert_eq!(stats.cuts_considered, 1);
        assert!(state.is_empty());
        // … a disabled one never does.
        assert!(state.try_add(&ctx, node, None, BoundCheck::disabled(), &mut stats));
        assert_eq!(stats.feasible_cuts, 1);
        // The input floor prunes under `Nin = 1`, in its own category, once the bound
        // lets the attempt pass: it grows the cut, reports the grown floor (both block
        // inputs) and undoes the growth.
        state.undo_last(&ctx);
        let mul = ctx.node_at(3); // reads both block inputs
        let probe = state.probe_add(&ctx, mul);
        let attempt = state.try_add_probed(
            &ctx,
            mul,
            probe,
            Some(1),
            BoundCheck::disabled(),
            &mut stats,
        );
        assert_eq!(attempt, Attempt::OverFloor(2));
        assert_eq!((stats.pruned_inputs, stats.pruned_bound), (1, 1));
        assert!(state.is_empty());
        assert_eq!(state.input_floor(), 0);
    }

    /// The input floor counts block inputs and member-read nodes decided outside, and
    /// the journal restores it; `input_limit` switches the check off where `Nin` cannot
    /// bind, and so does `mark_outside` without `floor`.
    #[test]
    fn input_floor_tracks_reads_decided_outside() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let ctx = BlockContext::new(&g, Constraints::new(2, 1), &model);
        assert_eq!(ctx.input_limit(), Some(2));
        let unbounded = BlockContext::new(&g, Constraints::new(usize::MAX >> 1, 1), &model);
        assert_eq!(unbounded.input_limit(), None);
        let mut state = IncrementalCutState::new(&ctx);
        // Level 0 is the final add: it reads two nodes and no block input.
        let add0 = ctx.node_at(0);
        assert!(state.try_add(
            &ctx,
            add0,
            ctx.input_limit(),
            BoundCheck::disabled(),
            &mut SearchStats::default()
        ));
        assert_eq!(state.input_floor(), 0);
        // Leaving both of its operands outside puts each on the floor for good.
        for (level, floor) in [(1, 1), (2, 2)] {
            state.mark_outside(&ctx, ctx.node_at(level), true);
            assert_eq!(state.input_floor(), floor);
        }
        // Nobody reads `mul` now: leaving it outside adds nothing.
        state.mark_outside(&ctx, ctx.node_at(3), true);
        assert_eq!(state.input_floor(), 2);
        state.undo_last(&ctx);
        state.undo_last(&ctx);
        assert_eq!(state.input_floor(), 1);
        state.undo_last(&ctx);
        state.undo_last(&ctx);
        assert_eq!(state.input_floor(), 0);
        assert_eq!(state.outside_reads, 0);
        // A walk that keeps no floor marks the same node without counting it.
        assert!(state.try_add(
            &ctx,
            add0,
            None,
            BoundCheck::disabled(),
            &mut SearchStats::default()
        ));
        state.mark_outside(&ctx, ctx.node_at(1), false);
        assert_eq!(state.input_floor(), 0);
    }

    /// The optimistic merit helpers combine the current cut with the remaining
    /// frontier mass: at the root the whole block is reachable, at the last level
    /// nothing is.
    #[test]
    fn optimistic_merits_track_the_frontier_mass() {
        let g = fig4();
        let model = DefaultCostModel::new();
        let ctx = BlockContext::new(&g, Constraints::new(8, 4), &model);
        let state = IncrementalCutState::new(&ctx);
        let total: u64 = (0..ctx.depth())
            .map(|l| u64::from(ctx.node_software_cost(ctx.node_at(l))))
            .sum();
        assert_eq!(ctx.remaining_mass(0), total);
        assert_eq!(ctx.remaining_mass(ctx.depth()), 0);
        // Empty cut, zero critical path: the bound is just the reachable mass.
        assert_eq!(state.optimistic_with(&ctx, 0), total as f64);
        let last = ctx.depth() - 1;
        assert_eq!(state.optimistic_without(&ctx, last), 0.0);
        // Blocking a node removes its cycles from every prefix mass.
        let mut ctx2 = BlockContext::new(&g, Constraints::new(8, 4), &model);
        let mul = ctx2.node_at(3);
        ctx2.block_nodes(&CutSet::from_nodes(&g, [mul]));
        assert_eq!(
            ctx2.remaining_mass(0),
            total - u64::from(ctx2.node_software_cost(mul))
        );
    }

    /// The replay merge reproduces the sequential update log: improvements of a later
    /// subtree only survive when they beat the running best.
    #[test]
    fn incumbent_absorb_replays_sequential_semantics() {
        let mut first: Incumbent<&'static str> = Incumbent::empty();
        first.offer(3.0, || "a3");
        first.offer(5.0, || "a5");

        let mut second: Incumbent<&'static str> = Incumbent::empty();
        second.offer(4.0, || "b4");
        second.offer(5.0, || "b5");
        second.offer(7.0, || "b7");

        let mut third: Incumbent<&'static str> = Incumbent::empty();
        third.offer(6.0, || "c6");

        let mut merged = Incumbent::empty();
        merged.absorb(first);
        merged.absorb(second);
        merged.absorb(third);
        // Sequentially: 3, 5 (first), then 7 (second; 4 and the tied 5 lose), then
        // nothing from the third.
        assert_eq!(merged.improvements, vec![3.0, 5.0, 7.0]);
        assert_eq!(merged.score(), 7.0);
        assert_eq!(merged.updates(), 3);
        assert_eq!(merged.into_payload(), Some("b7"));
    }

    #[test]
    fn split_depth_is_clamped_by_arity_and_tree_depth() {
        struct Dummy {
            sequential_only: bool,
        }
        impl SearchPolicy for Dummy {
            type Sink = Incumbent<()>;
            type State = ();
            fn depth(&self) -> usize {
                5
            }
            fn max_arity(&self) -> usize {
                4
            }
            fn initial_state(&self) -> Self::State {}
            fn choice_count(&self, (): &Self::State, _level: usize) -> usize {
                0
            }
            fn apply(
                &self,
                (): &mut Self::State,
                _level: usize,
                _choice: usize,
                _stats: &mut SearchStats,
                _sink: &mut Incumbent<()>,
            ) -> bool {
                false
            }
            fn undo(&self, (): &mut Self::State, _level: usize, _choice: usize) {}
            fn requires_sequential(&self) -> bool {
                self.sequential_only
            }
        }
        let parallel_ok = Dummy {
            sequential_only: false,
        };
        let kernel = SearchKernel::sequential().with_split_levels(64);
        // 4^k <= 4096 limits k to 6; the 5-level tree limits it further to 4.
        assert_eq!(kernel.effective_split(&parallel_ok), 4);
        let budgeted = kernel.with_exploration_budget(Some(10));
        assert_eq!(budgeted.effective_split(&parallel_ok), 0);
        // A sequential-only policy (incumbent-bound mode) disables the split entirely.
        let sequential_only = Dummy {
            sequential_only: true,
        };
        assert_eq!(kernel.effective_split(&sequential_only), 0);
    }
}
