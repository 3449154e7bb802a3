//! An independent walk oracle for the single-cut search.
//!
//! `kernel::reference` shares the kernel's walk loop and cut state, so a bug in either
//! moves both. This oracle is written from the kernel module documentation alone: a
//! plain recursion over the paper's binary tree (1-branch first, then the software
//! branch) in `canonical_consumers_first` order, with `IN`, `OUT`, convexity, the
//! critical path and the zero-threshold frontier bound recomputed from the `Dfg` and
//! the cost model at every step, and no `kernel` type in sight. Sequential and split
//! `SingleCutSearch` runs must equal it in every `SearchStats` field, `best_updates`
//! included, and in the chosen cut.

use ise::core::{Constraints, CutSet, SearchStats, SingleCutSearch};
use ise::hw::{cut_merit, CostModel, DefaultCostModel, HardwareDelayModel};
use ise::ir::{canon, Dfg, NodeId, Operand};
use ise::workloads::random::wide_dfg;

struct Oracle<'a> {
    dfg: &'a Dfg,
    model: &'a dyn CostModel,
    limits: Constraints,
    budget: Option<u64>,
    order: Vec<NodeId>,
    blocked: Vec<bool>,
    /// `mass[ℓ]`: software cycles of the non-blocked nodes decided at levels `ℓ..`.
    mass: Vec<u64>,
    member: Vec<bool>,
    stats: SearchStats,
    best: (f64, Option<CutSet>),
}

impl Oracle<'_> {
    fn members(&self) -> Vec<NodeId> {
        self.order
            .iter()
            .copied()
            .filter(|v| self.member[v.index()])
            .collect()
    }

    /// `OUT(S)`: members feeding a block output or a non-member.
    fn outputs(&self) -> usize {
        let consumers = |v: NodeId| self.dfg.consumers(v).iter();
        let external = |v: &NodeId| {
            self.dfg.is_output_source(*v) || consumers(*v).any(|c| !self.member[c.index()])
        };
        self.members().iter().filter(|v| external(v)).count()
    }

    /// `IN(S)`: distinct non-member and block-input operands of the members.
    fn inputs(&self) -> usize {
        let mut sources: Vec<Operand> = Vec::new();
        for v in self.members() {
            for &op in &self.dfg.node(v).operands {
                let outside = match op {
                    Operand::Node(m) => !self.member[m.index()],
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

    /// Whether a path leaves `v` through a non-member and comes back into the cut.
    /// Consumers precede their producers in `order`, so one pass over the levels
    /// before `level` settles every consumer's reach flag.
    fn leaks(&self, v: NodeId, level: usize) -> bool {
        let mut reaches = vec![false; self.dfg.node_count()];
        for &w in &self.order[..level] {
            let into = |c: &NodeId| self.member[c.index()] || reaches[c.index()];
            reaches[w.index()] = self.dfg.consumers(w).iter().any(into);
        }
        let outside_reaching = |c: &NodeId| !self.member[c.index()] && reaches[c.index()];
        self.dfg.consumers(v).iter().any(outside_reaching)
    }

    /// `(software cycles, critical path, area)` of the cut, accumulated in level order.
    fn cost(&self) -> (u64, f64, f64) {
        let mut path = vec![0.0f64; self.dfg.node_count()];
        let (mut software, mut critical, mut area) = (0u64, 0.0f64, 0.0f64);
        for v in self.members() {
            let node = self.dfg.node(v);
            let inside = self
                .dfg
                .consumers(v)
                .iter()
                .filter(|c| self.member[c.index()]);
            let downstream = inside.map(|c| path[c.index()]).fold(0.0f64, f64::max);
            path[v.index()] = downstream + self.model.hardware_delay(node);
            critical = critical.max(path[v.index()]);
            software += u64::from(self.model.software_cycles(node));
            area += self.model.hardware_area(node);
        }
        (software, critical, area)
    }

    /// The zero-threshold bound: even with `extra` cycles and the whole frontier below
    /// `level` for free, the merit cannot rise above zero.
    fn dead(&self, extra: u64, level: usize) -> bool {
        let (software, critical, _) = self.cost();
        let hardware = u64::from(HardwareDelayModel::cycles_for_delay(critical));
        software + extra + self.mass[level + 1] <= hardware
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
            let cycles = u64::from(self.model.software_cycles(self.dfg.node(v)));
            let dead = self.dead(cycles, level);
            let convex = !self.leaks(v, level);
            let room = self
                .limits
                .max_nodes
                .is_none_or(|m| self.members().len() < m);
            self.member[v.index()] = true;
            let outputs = self.outputs();
            let s = &mut self.stats;
            s.cuts_considered += 1;
            let pruned = if outputs > self.limits.max_outputs {
                Some(&mut s.pruned_output)
            } else if !convex {
                Some(&mut s.pruned_convexity)
            } else if !room {
                Some(&mut s.pruned_node_budget)
            } else if dead {
                Some(&mut s.pruned_bound)
            } else {
                None
            };
            if let Some(counter) = pruned {
                *counter += 1;
            } else {
                s.feasible_cuts += 1;
                let (software, critical, area) = self.cost();
                let merit = cut_merit(software, critical);
                let members = self.members();
                if self.inputs() <= self.limits.max_inputs
                    && self.limits.budget_ok(area, members.len())
                    && merit > self.best.0
                {
                    self.best = (merit, Some(CutSet::from_nodes(self.dfg, members)));
                    self.stats.best_updates += 1;
                }
                self.visit(level + 1);
            }
            self.member[v.index()] = false;
        }
        if self.dead(0, level) {
            self.stats.bound_subtree_prunes += 1;
        } else {
            self.visit(level + 1);
        }
    }
}

/// Runs the oracle: the best cut and the search statistics.
fn oracle(
    dfg: &Dfg,
    limits: Constraints,
    excluded: &CutSet,
    budget: Option<u64>,
    model: &dyn CostModel,
) -> (Option<CutSet>, SearchStats) {
    let order = canon::canonical_consumers_first(dfg);
    let blocked: Vec<bool> = dfg
        .node_ids()
        .map(|v| dfg.node(v).is_forbidden_in_afu() || excluded.contains(v))
        .collect();
    let mut mass = vec![0u64; order.len() + 1];
    for (level, v) in order.iter().enumerate().rev() {
        let cycles = u64::from(model.software_cycles(dfg.node(*v)));
        mass[level] = mass[level + 1] + if blocked[v.index()] { 0 } else { cycles };
    }
    let member = vec![false; dfg.node_count()];
    let (stats, best) = (SearchStats::default(), (0.0, None));
    let mut walk = Oracle {
        dfg,
        model,
        limits,
        budget,
        order,
        blocked,
        mass,
        member,
        stats,
        best,
    };
    walk.visit(0);
    (walk.best.1, walk.stats)
}

/// A tiny deterministic generator for exclusion masks.
fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

#[test]
fn single_cut_search_equals_the_independent_walk_oracle() {
    let model = DefaultCostModel::new();
    // Debug builds run the smaller half of the node range; release runs all of it.
    let largest = if cfg!(debug_assertions) { 16 } else { 22 };
    let mut seen = SearchStats::default();
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
                let (best, stats) = oracle(&dfg, limits, &excluded, None, &model);
                seen.pruned_output += stats.pruned_output;
                seen.pruned_convexity += stats.pruned_convexity;
                seen.pruned_node_budget += stats.pruned_node_budget;
                seen.bound_subtree_prunes += stats.bound_subtree_prunes;
                seen.best_updates += stats.best_updates;
                for split in [0, 1, 3, 6] {
                    let search = SingleCutSearch::new(&dfg, limits, &model)
                        .with_excluded(&excluded)
                        .with_subtree_parallelism(split);
                    let outcome = search.run();
                    assert_eq!(outcome.stats, stats, "{case}, split {split}: stats");
                    let cut = outcome.best.map(|c| c.cut);
                    assert_eq!(cut, best, "{case}, split {split}: chosen cut");
                }
                // An exploration budget stops both walks at the same attempt.
                let budget = stats.cuts_considered / 2;
                let (best, stats) = oracle(&dfg, limits, &excluded, Some(budget), &model);
                let search = SingleCutSearch::new(&dfg, limits, &model)
                    .with_excluded(&excluded)
                    .with_exploration_budget(budget);
                let outcome = search.run();
                assert_eq!(outcome.stats, stats, "{case}, budget {budget}: stats");
                assert_eq!(outcome.best.map(|c| c.cut), best, "{case}, budget {budget}");
                seen.budget_exhausted |= stats.budget_exhausted;
            }
        }
    }
    // Every pruning rule and the budget stop fired somewhere, so each was compared.
    assert!(
        seen.pruned_output > 0 && seen.pruned_convexity > 0,
        "{seen:?}"
    );
    assert!(
        seen.pruned_node_budget > 0 && seen.bound_subtree_prunes > 0,
        "{seen:?}"
    );
    assert!(seen.best_updates > 0 && seen.budget_exhausted, "{seen:?}");
}
