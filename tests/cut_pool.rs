//! Seeded edge-case tests for the CutPool / SweepPlanner subsystem: degenerate blocks,
//! uncovered query pairs, exploration-budget interaction, determinism across every
//! parallelism knob, and exact answers for every port pair a fill covers.

use std::sync::Arc;

use ise_core::engine::SingleCut;
use ise_core::pool::{fill_single_cut, FillOutcome};
use ise_core::{
    select_program, Constraints, CorpusPool, CutSet, DriverOptions, SearchStats, SingleCutSearch,
    StructuralForm, SweepPlanner, WarmCacheConfig, WarmPoolCache,
};
use ise_hw::DefaultCostModel;
use ise_ir::{Dfg, DfgBuilder, Program};
use ise_workloads::{random, suite};

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde::json::to_string(value)
}

/// A program holding a completely empty block, a single-node block and a normal block.
fn degenerate_program() -> Program {
    let mut p = Program::new("degenerate");
    p.add_block(Dfg::new("empty"));

    let mut b = DfgBuilder::new("single");
    b.exec_count(10);
    let x = b.input("x");
    let y = b.input("y");
    let v = b.mul(x, y);
    b.output("o", v);
    p.add_block(b.finish());

    let mut b = DfgBuilder::new("normal");
    b.exec_count(500);
    let x = b.input("x");
    let y = b.input("y");
    let acc = b.input("acc");
    let m = b.mul(x, y);
    let s = b.add(m, acc);
    let n = b.mul(s, y);
    b.output("acc", n);
    p.add_block(b.finish());
    p
}

#[test]
fn empty_and_single_node_blocks_sweep_exactly() {
    let p = degenerate_program();
    let model = DefaultCostModel::new();
    let pairs = Constraints::paper_sweep();
    let options = DriverOptions::new(8);
    let mut planner = SweepPlanner::new(&p, &model, options, &pairs);
    let pooled = planner.run_single_cut(&pairs);
    for (pair, pooled) in pairs.iter().zip(&pooled) {
        let direct = select_program(&p, &SingleCut::new(), *pair, &model, options);
        assert_eq!(to_json(pooled), to_json(&direct), "{pair}");
    }
    assert_eq!(planner.stats().exhausted_fills, 0);
}

/// Fill constraints *tighter* than a queried pair (a planner built for fewer pairs
/// than it answers): the pair is not covered and must be answered by the direct
/// fallback — still byte-identically.
#[test]
fn tighter_fill_constraints_fall_back_to_direct() {
    let p = degenerate_program();
    let model = DefaultCostModel::new();
    let pairs = vec![Constraints::new(2, 1), Constraints::new(8, 4)];
    let options = DriverOptions::new(8);
    let mut planner = SweepPlanner::new(&p, &model, options, &pairs[..1]);
    let pooled = planner.run_single_cut(&pairs);
    for (pair, pooled) in pairs.iter().zip(&pooled) {
        let direct = select_program(&p, &SingleCut::new(), *pair, &model, options);
        assert_eq!(to_json(pooled), to_json(&direct), "{pair}");
    }
    // The covered (2, 1) pair used pools; the uncovered (8, 4) pair went direct.
    let stats = planner.stats();
    assert!(stats.pool_answers > 0);
    assert!(stats.direct_calls > 0);
}

/// Budget-group mixing: pairs with a node-count budget must never be answered from a
/// pool filled without one (and vice versa), yet both groups pool within themselves.
#[test]
fn budgeted_and_unbudgeted_pairs_use_separate_pools() {
    let p = degenerate_program();
    let model = DefaultCostModel::new();
    let pairs = vec![
        Constraints::new(4, 2),
        Constraints::new(8, 4),
        Constraints::new(4, 2).with_max_nodes(2),
        Constraints::new(8, 4).with_max_nodes(2),
    ];
    let options = DriverOptions::new(8);
    let mut planner = SweepPlanner::new(&p, &model, options, &pairs);
    let pooled = planner.run_single_cut(&pairs);
    for (pair, pooled) in pairs.iter().zip(&pooled) {
        let direct = select_program(&p, &SingleCut::new(), *pair, &model, options);
        assert_eq!(to_json(pooled), to_json(&direct), "{pair}");
    }
    assert_eq!(planner.stats().direct_calls, 0, "all pairs covered");
}

/// Exploration-budget interaction: a budget small enough to exhaust the fills forces
/// the direct fallback, whose truncated results the planner must reproduce exactly; a
/// generous budget pools as usual.
#[test]
fn exploration_budget_interaction() {
    let model = DefaultCostModel::new();
    let mut program = Program::new("budgeted");
    let mut dfg = random::wide_dfg(18, 0xBEEF);
    dfg.set_exec_count(100);
    program.add_block(dfg);
    let pairs = Constraints::paper_sweep();
    let options = DriverOptions::new(4);

    for budget in [Some(5u64), Some(200), Some(1_000_000), None] {
        let mut planner =
            SweepPlanner::new(&program, &model, options, &pairs).with_exploration_budget(budget);
        let pooled = planner.run_single_cut(&pairs);
        let identifier = SingleCut::new().with_exploration_budget(budget);
        for (pair, pooled) in pairs.iter().zip(&pooled) {
            let direct = select_program(&program, &identifier, *pair, &model, options);
            assert_eq!(
                to_json(pooled),
                to_json(&direct),
                "budget {budget:?}, {pair}"
            );
        }
        if budget == Some(5) {
            // Everything exhausts: the planner must not have served a single pool answer.
            assert_eq!(planner.stats().pool_answers, 0, "budget {budget:?}");
            assert!(planner.stats().exhausted_fills > 0);
        }
    }
}

/// Pool determinism across every parallelism knob: block-level fan-out on/off and
/// intra-block subtree splitting produce byte-identical sweep results.
#[test]
fn pool_determinism_across_parallelism_knobs() {
    let model = DefaultCostModel::new();
    let mut program = Program::new("knobs");
    for (i, nodes) in [14usize, 12, 16].into_iter().enumerate() {
        let config = random::RandomDfgConfig {
            nodes,
            ..random::RandomDfgConfig::default()
        };
        let mut dfg = random::random_dfg(&config, 0x5EED + i as u64);
        dfg.set_exec_count(1000 / (i as u64 + 1));
        program.add_block(dfg);
    }
    let pairs = Constraints::paper_sweep();

    let reference_options = DriverOptions::new(8).sequential();
    let mut reference_planner = SweepPlanner::new(&program, &model, reference_options, &pairs);
    let reference = reference_planner.run_single_cut(&pairs);

    for parallel in [false, true] {
        let options = DriverOptions {
            parallel,
            ..DriverOptions::new(8)
        };
        let mut planner = SweepPlanner::new(&program, &model, options, &pairs);
        let results = planner.run_single_cut(&pairs);
        assert_eq!(
            to_json(&results),
            to_json(&reference),
            "parallel={parallel}"
        );
    }
}

/// A cache filled by split fills — a parallel driver, no exploration budget, blocks
/// of at least 28 nodes — answers the same selections and writes the same snapshot
/// bytes as a cache filled sequentially.
#[test]
fn split_fills_write_the_same_snapshot_bytes_as_sequential_fills() {
    let model = DefaultCostModel::new();
    let mut program = Program::new("large_blocks");
    for source in suite::fig11_benchmarks() {
        for block in source.blocks().iter().filter(|b| b.node_count() >= 28) {
            program.add_block(block.clone());
        }
    }
    let forms: Vec<StructuralForm> = program.blocks().iter().map(StructuralForm::of).collect();
    let fill = Constraints::new(8, 4);
    let dir = std::env::temp_dir().join(format!("ise-cut-pool-split-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut runs = Vec::new();
    for options in [DriverOptions::new(4), DriverOptions::new(4).sequential()] {
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig::default()));
        let pool = CorpusPool::with_cache(&model, None, Arc::clone(&cache));
        let selections: Vec<String> = [Constraints::new(8, 4), Constraints::new(4, 2)]
            .iter()
            .map(|pair| to_json(&pool.select_program(&program, &forms, fill, pair, options)))
            .collect();
        let path = dir.join(format!("parallel-{}.snapshot", options.parallel));
        let entries = cache.save_snapshot(&path).expect("write snapshot");
        assert!(entries > 3, "{entries} fills");
        runs.push((selections, std::fs::read(&path).expect("read snapshot")));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(runs[0].0, runs[1].0, "selections");
    assert!(runs[0].1 == runs[1].1, "snapshot bytes differ");
}

/// Every covered pair answers exactly: a single-cut fill under `(Nin, Nout)` answers
/// each `(Nin', Nout')` with `1 <= Nin' <= Nin` and `1 <= Nout' <= Nout` with the
/// direct search's cut and every `SearchStats` field (`best_updates` aside, which pool
/// answers report as zero), the input-floor counters included — on seeded wide and
/// random blocks, with and without exclusions, unbudgeted and under exploration
/// budgets the fill completes within.
#[test]
fn every_covered_pair_rebuilds_the_direct_search_exactly() {
    let model = DefaultCostModel::new();
    let mut floor_prunes = 0;
    let largest = if cfg!(debug_assertions) { 14 } else { 20 };
    for nodes in (8..=largest).step_by(3) {
        for seed in 0..2u64 {
            let dfg = if seed == 0 {
                random::wide_dfg(nodes, 0xF1_00 ^ nodes as u64)
            } else {
                random::random_dfg(&random::RandomDfgConfig::with_nodes(nodes), nodes as u64)
            };
            let every_fourth: Vec<_> = dfg.node_ids().filter(|v| v.index() % 4 == 1).collect();
            let masked = CutSet::from_nodes(&dfg, every_fourth);
            for excluded in [None, Some(&masked)] {
                for fill in [
                    Constraints::new(8, 4),
                    Constraints::new(4, 2),
                    Constraints::new(5, 3),
                ] {
                    let unbudgeted = match fill_single_cut(&dfg, excluded, fill, &model, None) {
                        FillOutcome::Complete(pool) => pool.fill_cuts_considered,
                        FillOutcome::Exhausted { .. } => unreachable!("no budget"),
                    };
                    for budget in [None, Some(unbudgeted + 1), Some(2 * unbudgeted + 7)] {
                        let pool = match fill_single_cut(&dfg, excluded, fill, &model, budget) {
                            FillOutcome::Complete(pool) => pool,
                            FillOutcome::Exhausted { .. } => panic!("budget {budget:?} exhausted"),
                        };
                        for nin in 1..=fill.max_inputs {
                            for nout in 1..=fill.max_outputs {
                                let query = Constraints::new(nin, nout);
                                let mut direct = SingleCutSearch::new(&dfg, query, &model);
                                if let Some(excluded) = excluded {
                                    direct = direct.with_excluded(excluded);
                                }
                                if let Some(budget) = budget {
                                    direct = direct.with_exploration_budget(budget);
                                }
                                let direct = direct.run();
                                let answer = pool.answer(&query);
                                let label = format!(
                                    "{}, excluded {}, fill {fill}, budget {budget:?}, {query}",
                                    dfg.name(),
                                    excluded.is_some()
                                );
                                assert_eq!(answer.best, direct.best, "{label}");
                                let expected = SearchStats {
                                    best_updates: 0,
                                    ..direct.stats
                                };
                                assert_eq!(answer.stats, expected, "{label}");
                                floor_prunes += answer.stats.pruned_inputs;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(floor_prunes > 0, "the floor never pruned");
}
