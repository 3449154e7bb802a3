//! Seeded property suite checking the kernel's [`IncrementalCutState`] against the
//! paper's definitions: after **every** decision and every undo, the state's `IN(S)`,
//! `OUT(S)`, software cycles, critical path, area and merit must equal the from-scratch
//! `ise::core::cut::evaluate` of the member set, the member set must be convex by
//! `cut::is_convex`, and each probe must predict the `OUT` and convexity of the grown
//! cut.
//!
//! The walks below follow the kernel's decision discipline — nodes decided in the
//! consumers-first order of the [`BlockContext`], undone in LIFO order — on random wide
//! DAGs up to 200 nodes, with exclusion masks and multicut slot interleavings. Like
//! `tests/properties.rs`, the cases are deterministic seeded loops (the offline
//! environment has no `proptest`); any failure reproduces exactly from the printed
//! case parameters.

use ise::core::cut::{self, CutSet};
use ise::core::kernel::{BlockContext, BoundCheck, IncrementalCutState};
use ise::core::{
    identify_single_cut_reference, Constraints, MultiCutSearch, SearchStats, SingleCutSearch,
};
use ise::hw::DefaultCostModel;
use ise::ir::{Dfg, NodeId, Operand};
use ise::workloads::random::wide_dfg;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random subset of the block's nodes, used as an exclusion mask.
fn random_exclusions(dfg: &Dfg, rng: &mut u64) -> CutSet {
    let picked = dfg
        .node_ids()
        .filter(|_| xorshift(rng).is_multiple_of(5))
        .collect::<Vec<_>>();
    CutSet::from_nodes(dfg, picked)
}

/// Checks every observable quantity of `state` against the from-scratch evaluation of
/// `members`.
fn assert_matches_spec(
    ctx: &BlockContext<'_>,
    state: &IncrementalCutState,
    members: &[NodeId],
    context: &str,
) {
    let dfg = ctx.dfg;
    let cut_set = CutSet::from_nodes(dfg, members.iter().copied());
    assert_eq!(state.len(), members.len(), "{context}: len");
    assert!(
        members.iter().all(|&m| state.contains(m)),
        "{context}: membership"
    );
    assert!(cut::is_convex(dfg, &cut_set), "{context}: convexity");
    let eval = cut::evaluate(dfg, &cut_set, ctx.model);
    assert_eq!(state.inputs(), eval.inputs, "{context}: IN");
    assert_eq!(state.outputs(), eval.outputs, "{context}: OUT");
    assert_eq!(
        state.software(),
        eval.software_cycles,
        "{context}: software"
    );
    assert!(
        (state.critical_path() - eval.hardware_critical_path).abs() < 1e-9,
        "{context}: critical path"
    );
    assert!((state.area() - eval.area).abs() < 1e-9, "{context}: area");
    assert!(
        (state.merit() - eval.merit).abs() < 1e-9,
        "{context}: merit"
    );
}

/// Checks a probe of `node` against the from-scratch `OUT` and convexity of the grown
/// member set.
fn assert_probe_matches_spec(
    ctx: &BlockContext<'_>,
    state: &IncrementalCutState,
    members: &[NodeId],
    node: NodeId,
    context: &str,
) {
    let grown = CutSet::from_nodes(ctx.dfg, members.iter().copied().chain([node]));
    let probe = state.probe_add(ctx, node);
    assert_eq!(
        probe.outputs,
        cut::output_count(ctx.dfg, &grown),
        "{context}: probed OUT"
    );
    assert_eq!(
        probe.convex,
        cut::is_convex(ctx.dfg, &grown),
        "{context}: probed convexity"
    );
}

/// Distinct block inputs read by `members ∪ {node}`, counted from scratch.
fn block_inputs_with(dfg: &Dfg, members: &[NodeId], node: NodeId) -> usize {
    let grown = CutSet::from_nodes(dfg, members.iter().copied().chain([node]));
    cut::input_sources(dfg, &grown)
        .iter()
        .filter(|source| matches!(source, Operand::Input(_)))
        .count()
}

/// One decision of the randomized walk, so the unwind can replay it in LIFO order.
enum Decision {
    Added,
    Outside,
}

/// Drives the state through a randomized, walk-disciplined decision/undo sequence and
/// checks it against the from-scratch evaluators after every mutation; every add is
/// preceded by a probe check, and every `try_add` outcome and counter by the spec's
/// classification (output ports → convexity).
#[test]
fn cut_state_matches_the_spec_on_random_wide_dags() {
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(8, 4);
    for (case, &nodes) in [16usize, 48, 96, 200].iter().enumerate() {
        for seed in 0..3u64 {
            let dfg = wide_dfg(nodes, 0xB17 ^ (seed << 8) ^ case as u64);
            let mut rng = 0x9E3779B97F4A7C15u64 ^ (seed << 4) ^ nodes as u64;
            let mut ctx = BlockContext::new(&dfg, constraints, &model);
            // Odd cases run under a random exclusion mask.
            if case % 2 == 1 {
                ctx.block_nodes(&random_exclusions(&dfg, &mut rng));
            }
            let mut state = IncrementalCutState::new(&ctx);
            let mut decisions: Vec<Decision> = Vec::new();
            let mut members: Vec<NodeId> = Vec::new();
            for step in 0..4 * ctx.depth() {
                let level = decisions.len();
                let backtrack =
                    level == ctx.depth() || (level > 0 && xorshift(&mut rng).is_multiple_of(4));
                let context = format!("nodes {nodes}, seed {seed}, step {step}");
                if backtrack {
                    if let Decision::Added = decisions.pop().expect("level > 0") {
                        members.pop();
                    }
                    state.undo_last(&ctx);
                    assert_matches_spec(&ctx, &state, &members, &context);
                    continue;
                }
                let node = ctx.node_at(level);
                let want_add = !ctx.is_blocked(node) && !xorshift(&mut rng).is_multiple_of(3);
                let mut added = false;
                if want_add {
                    assert_probe_matches_spec(&ctx, &state, &members, node, &context);
                    let grown = CutSet::from_nodes(&dfg, members.iter().copied().chain([node]));
                    let over_ports = cut::output_count(&dfg, &grown) > constraints.max_outputs;
                    let convex = cut::is_convex(&dfg, &grown);
                    let mut stats = SearchStats::default();
                    added = state.try_add(&ctx, node, BoundCheck::disabled(), &mut stats);
                    assert_eq!(added, !over_ports && convex, "{context}: try_add outcome");
                    let expected = SearchStats {
                        cuts_considered: 1,
                        feasible_cuts: u64::from(added),
                        pruned_output: u64::from(over_ports),
                        pruned_convexity: u64::from(!over_ports && !convex),
                        ..SearchStats::default()
                    };
                    assert_eq!(stats, expected, "{context}: try_add stats");
                }
                if added {
                    decisions.push(Decision::Added);
                    members.push(node);
                } else {
                    // Blocked, declined or pruned: the node is decided outside.
                    state.mark_outside(&ctx, node);
                    decisions.push(Decision::Outside);
                }
                assert_eq!(state.contains(node), added, "{context}: contains");
                assert_matches_spec(&ctx, &state, &members, &context);
            }
            // Unwind completely: the state must return to empty.
            while let Some(decision) = decisions.pop() {
                if let Decision::Added = decision {
                    members.pop();
                }
                state.undo_last(&ctx);
                assert_matches_spec(&ctx, &state, &members, "unwind");
            }
            assert!(state.is_empty());
            assert_eq!(state.inputs(), 0);
            assert_eq!(state.outputs(), 0);
        }
    }
}

/// The incumbent-mode input floor prunes an attempt exactly when the from-scratch count
/// of distinct block inputs of `members ∪ {node}` exceeds the floor, for floors 1..=4,
/// along random walks — and a floor prune leaves the state untouched.
#[test]
fn input_floor_prunes_exactly_when_block_inputs_exceed_it() {
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(8, 4);
    let mut floor_prunes = 0u64;
    for (case, &nodes) in [16usize, 48, 96].iter().enumerate() {
        for seed in 0..3u64 {
            let dfg = wide_dfg(nodes, 0xF100 ^ (seed << 8) ^ case as u64);
            let mut rng = 0xC0FFEEu64 ^ (seed << 4) ^ nodes as u64;
            let ctx = BlockContext::new(&dfg, constraints, &model);
            let mut state = IncrementalCutState::new(&ctx);
            let mut members: Vec<NodeId> = Vec::new();
            for level in 0..ctx.depth() {
                let node = ctx.node_at(level);
                let context = format!("nodes {nodes}, seed {seed}, level {level}");
                if ctx.is_blocked(node) {
                    state.mark_outside(&ctx, node);
                    continue;
                }
                let probe = state.probe_add(&ctx, node);
                let structurally_ok = probe.outputs <= constraints.max_outputs && probe.convex;
                let distinct = block_inputs_with(&dfg, &members, node);
                for k in 1..=4usize {
                    let floored = BoundCheck {
                        optimistic: f64::INFINITY,
                        threshold: 0.0,
                        input_floor: Some(k),
                    };
                    let mut trial = state.clone();
                    let mut stats = SearchStats::default();
                    let added = trial.try_add(&ctx, node, floored, &mut stats);
                    let expect_prune = structurally_ok && distinct > k;
                    assert_eq!(
                        stats.pruned_bound,
                        u64::from(expect_prune),
                        "{context}, floor {k}: {distinct} distinct block inputs"
                    );
                    assert_eq!(
                        added,
                        structurally_ok && !expect_prune,
                        "{context}, floor {k}"
                    );
                    if !added {
                        assert_matches_spec(&ctx, &trial, &members, &context);
                    }
                    floor_prunes += stats.pruned_bound;
                }
                // Advance the walk: add on two thirds of the feasible attempts.
                let mut sink = SearchStats::default();
                if xorshift(&mut rng).is_multiple_of(3)
                    || !state.try_add(&ctx, node, BoundCheck::disabled(), &mut sink)
                {
                    state.mark_outside(&ctx, node);
                } else {
                    members.push(node);
                }
            }
        }
    }
    assert!(floor_prunes > 0, "the walks never exercised the floor");
}

/// Deep snapshot/restore across the whole 200-node tree, twice, checked against the
/// spec at every level on the way down and on the way up: the second descent also
/// trips the `longest_path` stale-entry debug assertion if the first unwind left any
/// entry behind.
#[test]
fn deep_restores_leave_no_stale_state_behind() {
    let model = DefaultCostModel::new();
    let dfg = wide_dfg(200, 0xDEE9);
    let ctx = BlockContext::new(&dfg, Constraints::new(8, 4), &model);
    let mut state = IncrementalCutState::new(&ctx);
    for round in 0..2 {
        let mut decisions: Vec<bool> = Vec::new();
        let mut members: Vec<NodeId> = Vec::new();
        for level in 0..ctx.depth() {
            let node = ctx.node_at(level);
            let mut sink = SearchStats::default();
            let added = !ctx.is_blocked(node)
                && state.try_add(&ctx, node, BoundCheck::disabled(), &mut sink);
            if added {
                members.push(node);
            } else {
                state.mark_outside(&ctx, node);
            }
            decisions.push(added);
            assert_matches_spec(
                &ctx,
                &state,
                &members,
                &format!("round {round}, level {level}"),
            );
        }
        while let Some(added) = decisions.pop() {
            if added {
                members.pop();
            }
            state.undo_last(&ctx);
            assert_matches_spec(
                &ctx,
                &state,
                &members,
                &format!("round {round}, unwind to {}", decisions.len()),
            );
        }
        assert!(state.is_empty());
    }
}

/// The default search, sequential and parallel, equals the reference search in its
/// selection and in every `SearchStats` field: both prune by the paper's rules only.
/// The opt-in incumbent-bound mode returns the same selection while never considering
/// more cuts.
#[test]
fn search_selections_match_the_reference_search() {
    let model = DefaultCostModel::new();
    for seed in 0..6u64 {
        let nodes = 10 + (seed as usize) * 3;
        let dfg = wide_dfg(nodes, 0x5EA ^ seed);
        for constraints in [
            Constraints::new(2, 1),
            Constraints::new(4, 2),
            Constraints::new(8, 4),
        ] {
            let reference = identify_single_cut_reference(&dfg, constraints, &model);
            let default = SingleCutSearch::new(&dfg, constraints, &model).run();
            assert_eq!(
                default.best, reference.best,
                "selection, seed {seed}, {constraints}"
            );
            assert_eq!(
                default.stats, reference.stats,
                "stats, seed {seed}, {constraints}"
            );
            let parallel = SingleCutSearch::new(&dfg, constraints, &model)
                .with_subtree_parallelism(3)
                .run();
            assert_eq!(parallel, default, "parallel, seed {seed}, {constraints}");
            let incumbent = SingleCutSearch::new(&dfg, constraints, &model)
                .with_incumbent_bound()
                .run();
            assert_eq!(
                incumbent.best, default.best,
                "incumbent bound, seed {seed}, {constraints}"
            );
            assert!(incumbent.stats.cuts_considered <= default.stats.cuts_considered);
        }
    }
}

/// Multicut slot interleavings: two states driven side by side through the `(M+1)`-ary
/// discipline (assign to one slot, mark outside the other), each slot checked against
/// the spec at every level, plus the incumbent-bound tuple equality on random DAGs.
#[test]
fn multicut_interleavings_match_the_spec_in_every_slot() {
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(8, 4);
    for seed in 0..4u64 {
        let dfg = wide_dfg(32, 0x3C ^ (seed << 3));
        let ctx = BlockContext::new(&dfg, constraints, &model);
        let mut rng = 0xABCD ^ seed;
        let mut slots = [
            IncrementalCutState::new(&ctx),
            IncrementalCutState::new(&ctx),
        ];
        let mut members: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
        let mut assignments: Vec<Option<usize>> = Vec::new();
        for level in 0..ctx.depth() {
            let node = ctx.node_at(level);
            let slot = (xorshift(&mut rng) % 3) as usize; // 2 = software branch
            let mut assigned = None;
            if slot < 2 && !ctx.is_blocked(node) {
                let context = format!("seed {seed}, level {level}, slot {slot}");
                assert_probe_matches_spec(&ctx, &slots[slot], &members[slot], node, &context);
                let mut stats = SearchStats::default();
                if slots[slot].try_add(&ctx, node, BoundCheck::disabled(), &mut stats) {
                    assigned = Some(slot);
                    members[slot].push(node);
                }
            }
            for (s, state) in slots.iter_mut().enumerate() {
                if Some(s) != assigned {
                    state.mark_outside(&ctx, node);
                }
            }
            assignments.push(assigned);
            for s in 0..2 {
                assert_matches_spec(
                    &ctx,
                    &slots[s],
                    &members[s],
                    &format!("seed {seed}, level {level}, slot {s}"),
                );
            }
        }
        while let Some(assigned) = assignments.pop() {
            if let Some(s) = assigned {
                members[s].pop();
            }
            for s in (0..2).rev() {
                slots[s].undo_last(&ctx);
                assert_matches_spec(
                    &ctx,
                    &slots[s],
                    &members[s],
                    &format!("seed {seed}, unwind to {}, slot {s}", assignments.len()),
                );
            }
        }
        assert!(slots.iter().all(IncrementalCutState::is_empty));
    }
    // The incumbent-bound multicut returns the same tuple as the default mode.
    for seed in 0..3u64 {
        let dfg = wide_dfg(14, 0x77 ^ seed);
        for m in [2usize, 3] {
            let default = MultiCutSearch::new(&dfg, Constraints::new(4, 2), &model, m).run();
            let bounded = MultiCutSearch::new(&dfg, Constraints::new(4, 2), &model, m)
                .with_incumbent_bound()
                .run();
            assert_eq!(default.cuts, bounded.cuts, "seed {seed}, M={m}");
            assert!(bounded.stats.cuts_considered <= default.stats.cuts_considered);
        }
    }
}
