//! An independent walk oracle for the single-cut and multiple-cut searches.
//!
//! `kernel::reference` shares the kernel's walk loop and cut state, so a bug in either
//! moves both. This oracle is written from the kernel module documentation alone: a
//! plain recursion over the paper's `(M+1)`-ary tree (each cut slot in turn, a new slot
//! only once the slots before it are in use, then the software branch) in
//! `canonical_consumers_first` order, with `IN`, `OUT`, convexity and the critical path
//! of every slot recomputed from the `Dfg` and the cost model at every step, and no
//! `kernel` type in sight. It prunes by the paper's rules — output ports, convexity and
//! the node budget — and, with one slot, by the input floor recounted from scratch at
//! every step: the block inputs members read plus the member-read nodes decided
//! outside. With one slot it is the binary tree of the single-cut search. Sequential
//! and split `SingleCutSearch` and `MultiCutSearch` runs must equal it in every
//! `SearchStats` field, `best_updates` included, and in the chosen cuts, under the
//! default cost model and under unit software latencies. With the floor switched off
//! it is the paper's walk, and the floor walk must choose what it chooses.

use ise::core::{Constraints, CutSet, MultiCutSearch, SearchStats, SingleCutSearch};
use ise::hw::{cut_merit, CostModel, DefaultCostModel};
use ise::ir::{canon, Dfg, DfgBuilder, NodeId, Operand};
use ise::workloads::random::{random_dfg, wide_dfg, RandomDfgConfig};

struct Oracle<'a> {
    dfg: &'a Dfg,
    model: &'a dyn CostModel,
    limits: Constraints,
    budget: Option<u64>,
    /// Whether a single-slot walk prunes on the input floor.
    floor: bool,
    /// Software branches the floor skipped (no `SearchStats` field counts them).
    floor_skips: u64,
    order: Vec<NodeId>,
    blocked: Vec<bool>,
    /// Number of cut slots (`M`).
    slots: usize,
    /// Per node: the slot it joined, if any.
    slot: Vec<Option<usize>>,
    stats: SearchStats,
    /// The best summed merit and its cuts with positive merit, in slot order.
    best: (f64, Vec<(f64, CutSet)>),
}

impl Oracle<'_> {
    fn members(&self, k: usize) -> Vec<NodeId> {
        self.order
            .iter()
            .copied()
            .filter(|v| self.slot[v.index()] == Some(k))
            .collect()
    }

    /// `OUT(S_k)`: members feeding a block output or a non-member.
    fn outputs(&self, k: usize) -> usize {
        let outside = |c: &NodeId| self.slot[c.index()] != Some(k);
        let external = |v: &NodeId| {
            self.dfg.is_output_source(*v) || self.dfg.consumers(*v).iter().any(outside)
        };
        self.members(k).iter().filter(|v| external(v)).count()
    }

    /// `IN(S_k)`: distinct non-member and block-input operands of the members.
    fn inputs(&self, k: usize) -> usize {
        let mut sources: Vec<Operand> = Vec::new();
        for v in self.members(k) {
            for &op in &self.dfg.node(v).operands {
                let outside = match op {
                    Operand::Node(m) => self.slot[m.index()] != Some(k),
                    Operand::Input(_) => true,
                    Operand::Imm(_) => false,
                };
                if outside && !sources.contains(&op) {
                    sources.push(op);
                }
            }
        }
        sources.len()
    }

    /// The input floor of slot 0 once the nodes `order[..decided]` are decided: the
    /// distinct block inputs its members read, plus the distinct decided non-members
    /// they read.
    fn input_floor(&self, decided: usize) -> usize {
        let outside =
            |m: NodeId| self.slot[m.index()].is_none() && self.order[..decided].contains(&m);
        let mut fixed: Vec<Operand> = Vec::new();
        for v in self.members(0) {
            for &op in &self.dfg.node(v).operands {
                let counts = match op {
                    Operand::Input(_) => true,
                    Operand::Node(m) => outside(m),
                    Operand::Imm(_) => false,
                };
                if counts && !fixed.contains(&op) {
                    fixed.push(op);
                }
            }
        }
        fixed.len()
    }

    /// Whether the input floor prunes the current path: single-slot walks only.
    fn over_floor(&self, decided: usize) -> bool {
        self.floor && self.slots == 1 && self.input_floor(decided) > self.limits.max_inputs
    }

    /// Whether a path leaves `v` through a non-member of slot `k` and comes back into
    /// it. Consumers precede their producers in `order`, so one pass over the levels
    /// before `level` settles every consumer's reach flag.
    fn leaks(&self, v: NodeId, level: usize, k: usize) -> bool {
        let member = |c: &NodeId| self.slot[c.index()] == Some(k);
        let mut reaches = vec![false; self.dfg.node_count()];
        for &w in &self.order[..level] {
            let into = |c: &NodeId| member(c) || reaches[c.index()];
            reaches[w.index()] = self.dfg.consumers(w).iter().any(into);
        }
        let outside_reaching = |c: &NodeId| !member(c) && reaches[c.index()];
        self.dfg.consumers(v).iter().any(outside_reaching)
    }

    /// `(merit, area)` of slot `k`, its critical path accumulated in level order.
    fn cost(&self, k: usize) -> (f64, f64) {
        let mut path = vec![0.0f64; self.dfg.node_count()];
        let (mut software, mut critical, mut area) = (0u64, 0.0f64, 0.0f64);
        for v in self.members(k) {
            let node = self.dfg.node(v);
            let inside = self
                .dfg
                .consumers(v)
                .iter()
                .filter(|c| self.slot[c.index()] == Some(k));
            let downstream = inside.map(|c| path[c.index()]).fold(0.0f64, f64::max);
            path[v.index()] = downstream + self.model.hardware_delay(node);
            critical = critical.max(path[v.index()]);
            software += u64::from(self.model.software_cycles(node));
            area += self.model.hardware_area(node);
        }
        (cut_merit(software, critical), area)
    }

    /// Offers the current assignment: every non-empty slot must meet the input ports
    /// and the budgets, and the summed merit must strictly beat the best so far.
    fn offer(&mut self) {
        let mut total = 0.0;
        let mut cuts = Vec::new();
        for k in 0..self.slots {
            let members = self.members(k);
            if members.is_empty() {
                continue;
            }
            let (merit, area) = self.cost(k);
            if self.inputs(k) > self.limits.max_inputs
                || !self.limits.budget_ok(area, members.len())
            {
                return;
            }
            total += merit;
            if merit > 0.0 {
                cuts.push((merit, CutSet::from_nodes(self.dfg, members)));
            }
        }
        if total > self.best.0 {
            self.best = (total, cuts);
            self.stats.best_updates += 1;
        }
    }

    fn visit(&mut self, level: usize) {
        if level == self.order.len() {
            return;
        }
        if self.budget.is_some_and(|b| self.stats.cuts_considered >= b) {
            self.stats.budget_exhausted = true;
            return;
        }
        let v = self.order[level];
        if !self.blocked[v.index()] {
            let used = (0..self.slots)
                .take_while(|&k| !self.members(k).is_empty())
                .count();
            for k in 0..(used + 1).min(self.slots) {
                let convex = !self.leaks(v, level, k);
                let room = self
                    .limits
                    .max_nodes
                    .is_none_or(|m| self.members(k).len() < m);
                self.slot[v.index()] = Some(k);
                let outputs = self.outputs(k);
                let over_floor = self.over_floor(level + 1);
                let s = &mut self.stats;
                s.cuts_considered += 1;
                let pruned = if outputs > self.limits.max_outputs {
                    Some(&mut s.pruned_output)
                } else if !convex {
                    Some(&mut s.pruned_convexity)
                } else if !room {
                    Some(&mut s.pruned_node_budget)
                } else if over_floor {
                    Some(&mut s.pruned_inputs)
                } else {
                    None
                };
                if let Some(counter) = pruned {
                    *counter += 1;
                } else {
                    s.feasible_cuts += 1;
                    self.offer();
                    self.visit(level + 1);
                }
                self.slot[v.index()] = None;
            }
        }
        // The software branch: `v` is decided outside every slot.
        if self.over_floor(level + 1) {
            self.floor_skips += 1;
            return;
        }
        self.visit(level + 1);
    }
}

/// Runs the oracle with `slots` cut slots: the best cuts (positive merit only, sorted
/// by decreasing merit, ties in slot order), the search statistics and the software
/// branches the input floor skipped.
fn oracle(
    dfg: &Dfg,
    limits: Constraints,
    excluded: &CutSet,
    slots: usize,
    budget: Option<u64>,
    model: &dyn CostModel,
) -> (Vec<CutSet>, SearchStats, u64) {
    walk_oracle(dfg, limits, excluded, slots, budget, true, model)
}

/// [`oracle`], with the input floor on or off.
fn walk_oracle(
    dfg: &Dfg,
    limits: Constraints,
    excluded: &CutSet,
    slots: usize,
    budget: Option<u64>,
    floor: bool,
    model: &dyn CostModel,
) -> (Vec<CutSet>, SearchStats, u64) {
    let order = canon::canonical_consumers_first(dfg);
    let blocked: Vec<bool> = dfg
        .node_ids()
        .map(|v| dfg.node(v).is_forbidden_in_afu() || excluded.contains(v))
        .collect();
    let mut walk = Oracle {
        dfg,
        model,
        limits,
        budget,
        floor,
        floor_skips: 0,
        order,
        blocked,
        slots,
        slot: vec![None; dfg.node_count()],
        stats: SearchStats::default(),
        best: (0.0, Vec::new()),
    };
    walk.visit(0);
    let mut cuts = walk.best.1;
    cuts.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite merits"));
    let cuts = cuts.into_iter().map(|(_, cut)| cut).collect();
    (cuts, walk.stats, walk.floor_skips)
}

/// A tiny deterministic generator for exclusion masks and opcodes.
fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// A seeded block of `nodes` operations drawn from `add`, `mul`, `div` and `xor`, each
/// operand one of the three most recent values.
fn arith_dfg(nodes: usize, mut seed: u64) -> Dfg {
    let mut b = DfgBuilder::new(format!("arith_{nodes}_{seed}"));
    let mut values = vec![b.input("x"), b.input("y"), b.input("z")];
    for i in 0..nodes {
        let operand = |seed: &mut u64| values[values.len() - 1 - next(seed) as usize % 3];
        let (lhs, rhs) = (operand(&mut seed), operand(&mut seed));
        let v = match next(&mut seed) % 4 {
            0 => b.add(lhs, rhs),
            1 => b.mul(lhs, rhs),
            2 => b.div(lhs, rhs),
            _ => b.xor(lhs, rhs),
        };
        values.push(v);
        if i % 4 == 3 {
            b.output(format!("o{i}"), v);
        }
    }
    b.output("out", *values.last().expect("at least one value"));
    b.finish()
}

/// `x + y`, then alternately `/ y` and `+ y`: five operations in one chain.
fn add_div_chain() -> Dfg {
    let mut b = DfgBuilder::new("add_div_chain");
    let x = b.input("x");
    let y = b.input("y");
    let mut v = b.add(x, y);
    for i in 0..4 {
        v = if i % 2 == 0 { b.div(v, y) } else { b.add(v, y) };
    }
    b.output("out", v);
    b.finish()
}

/// Checks the single-cut search (sequential, split and budgeted) against the oracle on
/// one block and constraint set; returns the oracle's statistics, with
/// `budget_exhausted` taken from the budgeted walk for the coverage tally, and the
/// software branches the floor skipped.
fn check_single_cut(
    dfg: &Dfg,
    limits: Constraints,
    excluded: &CutSet,
    model: &dyn CostModel,
    case: &str,
) -> (SearchStats, u64) {
    let (best, stats, skips) = oracle(dfg, limits, excluded, 1, None, model);
    for split in [0, 1, 3, 6] {
        let search = SingleCutSearch::new(dfg, limits, model)
            .with_excluded(excluded)
            .with_subtree_parallelism(split);
        let outcome = search.run();
        assert_eq!(outcome.stats, stats, "{case}, split {split}: stats");
        let cut: Vec<CutSet> = outcome.best.into_iter().map(|c| c.cut).collect();
        assert_eq!(cut, best, "{case}, split {split}: chosen cut");
    }
    // An exploration budget stops both walks at the same attempt.
    let budget = stats.cuts_considered / 2;
    let (best, budgeted, _) = oracle(dfg, limits, excluded, 1, Some(budget), model);
    let search = SingleCutSearch::new(dfg, limits, model)
        .with_excluded(excluded)
        .with_exploration_budget(budget);
    let outcome = search.run();
    assert_eq!(outcome.stats, budgeted, "{case}, budget {budget}: stats");
    let cut: Vec<CutSet> = outcome.best.into_iter().map(|c| c.cut).collect();
    assert_eq!(cut, best, "{case}, budget {budget}");
    let stats = SearchStats {
        budget_exhausted: budgeted.budget_exhausted,
        ..stats
    };
    (stats, skips)
}

/// Checks the `slots`-cut search (sequential and split) against the oracle; returns
/// the oracle's statistics.
fn check_multicut(
    dfg: &Dfg,
    limits: Constraints,
    excluded: &CutSet,
    slots: usize,
    model: &dyn CostModel,
    case: &str,
) -> SearchStats {
    let (best, stats, _) = oracle(dfg, limits, excluded, slots, None, model);
    for split in [0, 2] {
        let outcome = MultiCutSearch::new(dfg, limits, model, slots)
            .with_excluded(excluded)
            .with_subtree_parallelism(split)
            .run();
        let case = format!("{case}, M={slots}, split {split}");
        assert_eq!(outcome.stats, stats, "{case}: stats");
        let cuts: Vec<CutSet> = outcome.cuts.into_iter().map(|c| c.cut).collect();
        assert_eq!(cuts, best, "{case}: chosen cuts");
    }
    stats
}

/// Sums the coverage-relevant counters of `stats` into `seen`.
fn tally(seen: &mut SearchStats, stats: &SearchStats) {
    seen.pruned_output += stats.pruned_output;
    seen.pruned_convexity += stats.pruned_convexity;
    seen.pruned_node_budget += stats.pruned_node_budget;
    seen.pruned_inputs += stats.pruned_inputs;
    seen.best_updates += stats.best_updates;
    seen.budget_exhausted |= stats.budget_exhausted;
}

#[test]
fn single_cut_search_equals_the_independent_walk_oracle() {
    let model = DefaultCostModel::new();
    // Debug builds run the smaller half of the node range; release runs all of it.
    let largest = if cfg!(debug_assertions) { 16 } else { 22 };
    let mut seen = SearchStats::default();
    let mut floor_skips = 0;
    for nodes in (8..=largest).step_by(2) {
        let mut seed = 0x0_4AC1E ^ nodes as u64;
        let dfg = wide_dfg(nodes, seed);
        let mask = dfg.node_ids().filter(|_| next(&mut seed).is_multiple_of(4));
        let mask = CutSet::from_nodes(&dfg, mask.collect::<Vec<_>>());
        for (excluded, max_nodes) in [(CutSet::for_dfg(&dfg), None), (mask, Some(nodes / 3))] {
            for (nin, nout) in [(2, 1), (4, 2), (8, 4)] {
                let mut limits = Constraints::new(nin, nout);
                if let Some(m) = max_nodes {
                    limits = limits.with_max_nodes(m);
                }
                let case = format!("{nodes} nodes, {limits}, max_nodes {max_nodes:?}");
                let (stats, skips) = check_single_cut(&dfg, limits, &excluded, &model, &case);
                tally(&mut seen, &stats);
                floor_skips += skips;
            }
        }
    }
    // Every pruning rule and the budget stop fired somewhere, so each was compared.
    assert!(
        seen.pruned_output > 0 && seen.pruned_convexity > 0 && seen.pruned_node_budget > 0,
        "{seen:?}"
    );
    assert!(seen.pruned_inputs > 0 && floor_skips > 0, "{seen:?}");
    assert!(seen.best_updates > 0 && seen.budget_exhausted, "{seen:?}");
}

/// Under unit software latencies a `div` saves one cycle in software but costs six
/// in hardware, so cuts with non-positive merit are common. The searches must still
/// count the paper's tree — every cut the output-port, convexity and node-budget rules
/// leave — single-cut and multicut alike, on blocks of `add`, `mul`, `div` and `xor`.
#[test]
fn searches_count_the_papers_tree_under_unit_software_latencies() {
    let models = [
        ("default", DefaultCostModel::new()),
        ("unit software", DefaultCostModel::unit_software()),
    ];
    let largest = if cfg!(debug_assertions) { 12 } else { 16 };
    for (name, model) in &models {
        // The five-node chain: one `add`/`div` path, counted in full at (4, 2).
        let chain = add_div_chain();
        let none = CutSet::for_dfg(&chain);
        let limits = Constraints::new(4, 2);
        let case = format!("add/div chain, {limits}, {name} model");
        let (single, _) = check_single_cut(&chain, limits, &none, model, &case);
        let pair = check_multicut(&chain, limits, &none, 2, model, &case);
        // Every one of the chain's 15 convex cuts fits the ports; the search counts
        // each, plus the attempts the convexity rule turns away.
        assert_eq!(
            (single.cuts_considered, single.feasible_cuts),
            (25, 15),
            "{case}"
        );
        assert_eq!(pair.cuts_considered, 87, "{case}");

        let mut seen = SearchStats::default();
        for nodes in (6..=largest).step_by(2) {
            let mut seed = 0xD1F ^ nodes as u64;
            let dfg = arith_dfg(nodes, seed);
            let mask = dfg.node_ids().filter(|_| next(&mut seed).is_multiple_of(5));
            let mask = CutSet::from_nodes(&dfg, mask.collect::<Vec<_>>());
            for (excluded, max_nodes) in [(CutSet::for_dfg(&dfg), None), (mask, Some(3))] {
                for (nin, nout) in [(2, 1), (4, 2)] {
                    let mut limits = Constraints::new(nin, nout);
                    if let Some(m) = max_nodes {
                        limits = limits.with_max_nodes(m);
                    }
                    let case = format!("{nodes} nodes, {limits}, {name} model");
                    let (stats, _) = check_single_cut(&dfg, limits, &excluded, model, &case);
                    tally(&mut seen, &stats);
                    if nodes <= 10 {
                        let stats = check_multicut(&dfg, limits, &excluded, 2, model, &case);
                        tally(&mut seen, &stats);
                    }
                }
            }
        }
        assert!(
            seen.pruned_output > 0 && seen.pruned_convexity > 0 && seen.pruned_node_budget > 0,
            "{name}: {seen:?}"
        );
        assert!(
            seen.best_updates > 0 && seen.budget_exhausted,
            "{name}: {seen:?}"
        );
    }
}

/// Soundness of the input floor: on seeded `random_dfg` and `wide_dfg` blocks of 8–24
/// nodes under every pair from (1, 1) to (5, 3), the single-cut search (which prunes on
/// the floor) chooses the cut the paper's walk without the floor chooses, after the
/// same number of incumbent improvements, and never considers more cuts.
#[test]
fn the_input_floor_keeps_the_papers_selection() {
    let model = DefaultCostModel::new();
    let pairs: Vec<(usize, usize)> = (1..=5)
        .flat_map(|nin| (1..=3).map(move |nout| (nin, nout)))
        .collect();
    // Debug builds sample the small blocks; release runs every size.
    let (cases, sizes): (u64, u64) = if cfg!(debug_assertions) {
        (14, 7)
    } else {
        (102, 17)
    };
    let mut pruned = 0;
    for case in 0..cases {
        let nodes = 8 + (case % sizes) as usize;
        let dfg = if case % 2 == 0 {
            wide_dfg(nodes, 0x5EED ^ case)
        } else {
            random_dfg(&RandomDfgConfig::with_nodes(nodes), 0xF1 ^ case)
        };
        let none = CutSet::for_dfg(&dfg);
        for (index, &(nin, nout)) in pairs.iter().enumerate() {
            // Each case takes five of the fifteen pairs, rotating with the case.
            if !(index as u64 + case).is_multiple_of(3) {
                continue;
            }
            let limits = Constraints::new(nin, nout);
            let label = format!("{}, {limits}", dfg.name());
            let (best, paper, _) = walk_oracle(&dfg, limits, &none, 1, None, false, &model);
            let outcome = SingleCutSearch::new(&dfg, limits, &model).run();
            let cut: Vec<CutSet> = outcome.best.into_iter().map(|c| c.cut).collect();
            assert_eq!(cut, best, "{label}: chosen cut");
            assert_eq!(
                outcome.stats.best_updates, paper.best_updates,
                "{label}: best_updates"
            );
            assert!(
                outcome.stats.cuts_considered <= paper.cuts_considered,
                "{label}"
            );
            assert_eq!(paper.pruned_inputs, 0);
            pruned += outcome.stats.pruned_inputs;
        }
    }
    assert!(pruned > 0, "the floor never pruned");
}
