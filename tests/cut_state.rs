//! Seeded property suite checking the kernel's [`IncrementalCutState`] against the
//! paper's definitions: after **every** decision and every undo, the state's `IN(S)`,
//! `OUT(S)`, software cycles, critical path, area and merit must equal the from-scratch
//! `ise::core::cut::evaluate` of the member set, its input floor must equal the block
//! inputs the members read plus the member-read nodes decided outside, counted from
//! scratch, the member set must be convex by `cut::is_convex`, and each probe must
//! predict the `OUT` and convexity of the grown cut.
//!
//! The walks below follow the kernel's decision discipline — nodes decided in the
//! consumers-first order of the [`BlockContext`], undone in LIFO order — on random wide
//! DAGs up to 200 nodes, with exclusion masks and multicut slot interleavings. Like
//! `tests/properties.rs`, the cases are deterministic seeded loops (the offline
//! environment has no `proptest`); any failure reproduces exactly from the printed
//! case parameters.

use ise::core::cut::{self, CutSet};
use ise::core::kernel::{Attempt, BlockContext, BoundCheck, IncrementalCutState};
use ise::core::{identify_single_cut_reference, Constraints, SearchStats, SingleCutSearch};
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

/// The input floor counted from scratch: the distinct block inputs `members` read,
/// plus the distinct nodes in `outside` that `members` read.
fn floor_from_scratch(dfg: &Dfg, members: &[NodeId], outside: &[NodeId]) -> usize {
    let mut floor: Vec<Operand> = Vec::new();
    for &member in members {
        for &operand in &dfg.node(member).operands {
            let fixed = match operand {
                Operand::Input(_) => true,
                Operand::Node(source) => outside.contains(&source),
                Operand::Imm(_) => false,
            };
            if fixed && !floor.contains(&operand) {
                floor.push(operand);
            }
        }
    }
    floor.len()
}

/// Checks every observable quantity of `state` against the from-scratch evaluation of
/// `members`, and its input floor against `outside`, the nodes decided outside it.
fn assert_matches_spec(
    ctx: &BlockContext<'_>,
    state: &IncrementalCutState,
    members: &[NodeId],
    outside: &[NodeId],
    context: &str,
) {
    let dfg = ctx.dfg;
    assert_eq!(
        state.input_floor(),
        floor_from_scratch(dfg, members, outside),
        "{context}: input floor"
    );
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

/// The input floor after adding `node` to `members`, counted from scratch (the
/// node's own operands are undecided, so only its block inputs can count).
fn floor_with(dfg: &Dfg, members: &[NodeId], outside: &[NodeId], node: NodeId) -> usize {
    let grown: Vec<NodeId> = members.iter().copied().chain([node]).collect();
    floor_from_scratch(dfg, &grown, outside)
}

/// One decision of the randomized walk, so the unwind can replay it in LIFO order.
enum Decision {
    Added,
    Outside,
}

/// Drives the state through a randomized, walk-disciplined decision/undo sequence and
/// checks it against the from-scratch evaluators after every mutation; every add is
/// preceded by a probe check, and every `try_add` outcome and counter by the spec's
/// classification (output ports → convexity → input floor, under an `Nin` of 6).
#[test]
fn cut_state_matches_the_spec_on_random_wide_dags() {
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(6, 4);
    let mut floor_prunes = 0;
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
            let mut outside: Vec<NodeId> = Vec::new();
            for step in 0..4 * ctx.depth() {
                let level = decisions.len();
                let backtrack =
                    level == ctx.depth() || (level > 0 && xorshift(&mut rng).is_multiple_of(4));
                let context = format!("nodes {nodes}, seed {seed}, step {step}");
                if backtrack {
                    match decisions.pop().expect("level > 0") {
                        Decision::Added => members.pop(),
                        Decision::Outside => outside.pop(),
                    };
                    state.undo_last(&ctx);
                    assert_matches_spec(&ctx, &state, &members, &outside, &context);
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
                    let floor = floor_with(&dfg, &members, &outside, node);
                    let over_floor = !over_ports && convex && floor > constraints.max_inputs;
                    let mut stats = SearchStats::default();
                    added = state.try_add(
                        &ctx,
                        node,
                        ctx.input_limit(),
                        BoundCheck::disabled(),
                        &mut stats,
                    );
                    assert_eq!(
                        added,
                        !over_ports && convex && !over_floor,
                        "{context}: try_add outcome"
                    );
                    let expected = SearchStats {
                        cuts_considered: 1,
                        feasible_cuts: u64::from(added),
                        pruned_output: u64::from(over_ports),
                        pruned_convexity: u64::from(!over_ports && !convex),
                        pruned_inputs: u64::from(over_floor),
                        ..SearchStats::default()
                    };
                    assert_eq!(stats, expected, "{context}: try_add stats");
                    floor_prunes += stats.pruned_inputs;
                }
                if added {
                    decisions.push(Decision::Added);
                    members.push(node);
                } else {
                    // Blocked, declined or pruned: the node is decided outside (and
                    // `assert_matches_spec` checks the floor it joins).
                    state.mark_outside(&ctx, node, true);
                    decisions.push(Decision::Outside);
                    outside.push(node);
                }
                assert_eq!(state.contains(node), added, "{context}: contains");
                assert_matches_spec(&ctx, &state, &members, &outside, &context);
            }
            // Unwind completely: the state must return to empty.
            while let Some(decision) = decisions.pop() {
                match decision {
                    Decision::Added => members.pop(),
                    Decision::Outside => outside.pop(),
                };
                state.undo_last(&ctx);
                assert_matches_spec(&ctx, &state, &members, &outside, "unwind");
            }
            assert!(state.is_empty());
            assert_eq!(state.inputs(), 0);
            assert_eq!(state.outputs(), 0);
            assert_eq!(state.input_floor(), 0);
        }
    }
    assert!(
        floor_prunes > 0,
        "the walks never exercised the input floor"
    );
}

/// The input floor prunes an attempt exactly when the from-scratch floor of
/// `members ∪ {node}` — the block inputs they read plus the nodes decided outside that
/// they read — exceeds `Nin`, for `Nin` 1..=4, along random walks; a floor prune is
/// counted in `pruned_inputs` and leaves the state untouched. A 0-branch raises the
/// floor exactly when a member reads the node left outside.
#[test]
fn input_floor_prunes_exactly_when_block_inputs_exceed_it() {
    let model = DefaultCostModel::new();
    let mut floor_prunes = 0u64;
    let mut outside_raises = 0u64;
    for (case, &nodes) in [16usize, 48, 96].iter().enumerate() {
        for seed in 0..3u64 {
            let dfg = wide_dfg(nodes, 0xF100 ^ (seed << 8) ^ case as u64);
            let mut rng = 0xC0FFEEu64 ^ (seed << 4) ^ nodes as u64;
            let contexts: Vec<BlockContext<'_>> = (1..=4usize)
                .map(|k| BlockContext::new(&dfg, Constraints::new(k, 4), &model))
                .collect();
            let ctx = &contexts[0];
            let mut state = IncrementalCutState::new(ctx);
            let mut members: Vec<NodeId> = Vec::new();
            let mut outside: Vec<NodeId> = Vec::new();
            for level in 0..ctx.depth() {
                let node = ctx.node_at(level);
                let context = format!("nodes {nodes}, seed {seed}, level {level}");
                let leave_outside = |state: &mut IncrementalCutState,
                                     outside: &mut Vec<NodeId>,
                                     raises: &mut u64| {
                    let before = state.input_floor();
                    state.mark_outside(ctx, node, true);
                    outside.push(node);
                    let read = members
                        .iter()
                        .any(|m| dfg.node(*m).operands.contains(&Operand::Node(node)));
                    assert_eq!(
                        state.input_floor(),
                        before + usize::from(read),
                        "{context}: 0-branch"
                    );
                    *raises += u64::from(read);
                };
                if ctx.is_blocked(node) {
                    leave_outside(&mut state, &mut outside, &mut outside_raises);
                    continue;
                }
                let probe = state.probe_add(ctx, node);
                let structurally_ok = probe.outputs <= 4 && probe.convex;
                let floor = floor_with(&dfg, &members, &outside, node);
                for (k, limited) in (1..=4usize).zip(&contexts) {
                    assert_eq!(limited.input_limit(), Some(k));
                    let mut trial = state.clone();
                    let mut stats = SearchStats::default();
                    let attempt = trial.try_add_probed(
                        limited,
                        node,
                        probe,
                        limited.input_limit(),
                        BoundCheck::disabled(),
                        &mut stats,
                    );
                    let added = attempt == Attempt::Added;
                    let expect_prune = structurally_ok && floor > k;
                    if expect_prune {
                        assert_eq!(attempt, Attempt::OverFloor(floor), "{context}, Nin {k}");
                    }
                    assert_eq!(
                        stats.pruned_inputs,
                        u64::from(expect_prune),
                        "{context}, Nin {k}: input floor {floor}"
                    );
                    assert_eq!(
                        added,
                        structurally_ok && !expect_prune,
                        "{context}, Nin {k}"
                    );
                    if !added {
                        assert_matches_spec(limited, &trial, &members, &outside, &context);
                    }
                    floor_prunes += stats.pruned_inputs;
                }
                // Advance the walk: add on two thirds of the attempts the ports admit.
                let mut sink = SearchStats::default();
                if xorshift(&mut rng).is_multiple_of(3)
                    || !state.try_add(ctx, node, None, BoundCheck::disabled(), &mut sink)
                {
                    leave_outside(&mut state, &mut outside, &mut outside_raises);
                } else {
                    members.push(node);
                }
            }
        }
    }
    assert!(floor_prunes > 0, "the walks never exercised the floor");
    assert!(outside_raises > 0, "no 0-branch ever raised the floor");
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
        let mut outside: Vec<NodeId> = Vec::new();
        for level in 0..ctx.depth() {
            let node = ctx.node_at(level);
            let mut sink = SearchStats::default();
            let added = !ctx.is_blocked(node)
                && state.try_add(&ctx, node, None, BoundCheck::disabled(), &mut sink);
            if added {
                members.push(node);
            } else {
                state.mark_outside(&ctx, node, true);
                outside.push(node);
            }
            decisions.push(added);
            assert_matches_spec(
                &ctx,
                &state,
                &members,
                &outside,
                &format!("round {round}, level {level}"),
            );
        }
        while let Some(added) = decisions.pop() {
            if added {
                members.pop();
            } else {
                outside.pop();
            }
            state.undo_last(&ctx);
            assert_matches_spec(
                &ctx,
                &state,
                &members,
                &outside,
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
/// the spec at every level.
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
        // Per slot, the nodes decided outside it: the software branch and the other slot.
        let mut outside: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
        let mut assignments: Vec<Option<usize>> = Vec::new();
        for level in 0..ctx.depth() {
            let node = ctx.node_at(level);
            let slot = (xorshift(&mut rng) % 3) as usize; // 2 = software branch
            let mut assigned = None;
            if slot < 2 && !ctx.is_blocked(node) {
                let context = format!("seed {seed}, level {level}, slot {slot}");
                assert_probe_matches_spec(&ctx, &slots[slot], &members[slot], node, &context);
                let mut stats = SearchStats::default();
                if slots[slot].try_add(&ctx, node, None, BoundCheck::disabled(), &mut stats) {
                    assigned = Some(slot);
                    members[slot].push(node);
                }
            }
            for (s, state) in slots.iter_mut().enumerate() {
                if Some(s) != assigned {
                    state.mark_outside(&ctx, node, true);
                    outside[s].push(node);
                }
            }
            assignments.push(assigned);
            for s in 0..2 {
                assert_matches_spec(
                    &ctx,
                    &slots[s],
                    &members[s],
                    &outside[s],
                    &format!("seed {seed}, level {level}, slot {s}"),
                );
            }
        }
        while let Some(assigned) = assignments.pop() {
            for s in 0..2 {
                if assigned == Some(s) {
                    members[s].pop();
                } else {
                    outside[s].pop();
                }
            }
            for s in (0..2).rev() {
                slots[s].undo_last(&ctx);
            }
            for s in 0..2 {
                assert_matches_spec(
                    &ctx,
                    &slots[s],
                    &members[s],
                    &outside[s],
                    &format!("seed {seed}, unwind to {}, slot {s}", assignments.len()),
                );
            }
        }
        assert!(slots.iter().all(IncrementalCutState::is_empty));
    }
}
