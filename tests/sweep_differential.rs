//! The CutPool exactness harness: pool-backed sweeps must be **byte-identical** —
//! serialised [`SelectionResult`] and [`SpeedupReport`], including the
//! `identifier_calls` / `cuts_considered` accounting — to direct per-pair runs, across
//! every bundled kernel and seeded random DAGs, with exclusion-heavy iterative rounds.
//!
//! This is the test the whole subsystem is built against: the pool is a pure
//! memoisation layer, and any observable divergence is a bug by definition.

use ise_core::engine::SingleCut;
use ise_core::{
    select_optimal, select_program, Constraints, DriverOptions, SelectionResult, SweepPlanner,
};
use ise_hw::{DefaultCostModel, SoftwareLatencyModel};
use ise_ir::Program;
use ise_workloads::{adpcm, corpus, random, suite};

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde::json::to_string(value)
}

/// Asserts one pool-backed selection equals its direct reference, bytes and all.
fn assert_identical(
    program: &Program,
    pair: &Constraints,
    pooled: &SelectionResult,
    direct: &SelectionResult,
) {
    assert_eq!(
        pooled.identifier_calls,
        direct.identifier_calls,
        "{}: identifier_calls accounting diverged under {pair}",
        program.name()
    );
    assert_eq!(
        to_json(pooled),
        to_json(direct),
        "{}: serialised SelectionResult diverged under {pair}",
        program.name()
    );
    let software = SoftwareLatencyModel::new();
    assert_eq!(
        to_json(&pooled.speedup_report(program, &software)),
        to_json(&direct.speedup_report(program, &software)),
        "{}: serialised SpeedupReport diverged under {pair}",
        program.name()
    );
}

/// Every bundled kernel, the full paper sweep, iterative selection with the default
/// figure exploration budget (so the largest blocks exercise the exhausted-fill
/// fallback while small blocks are genuinely pooled).
#[test]
fn bundled_kernels_pool_vs_direct_iterative() {
    let model = DefaultCostModel::new();
    let pairs = Constraints::paper_sweep();
    let budget = Some(20_000);
    let options = DriverOptions::new(8);
    let mut pooled_physical = 0;
    let mut pooled_logical = 0;
    for program in suite::mediabench_like() {
        let mut planner =
            SweepPlanner::new(&program, &model, options, &pairs).with_exploration_budget(budget);
        let pooled = planner.run_single_cut(&pairs);
        let identifier = SingleCut::new().with_exploration_budget(budget);
        for (pair, pooled) in pairs.iter().zip(&pooled) {
            let direct = select_program(&program, &identifier, *pair, &model, options);
            assert_identical(&program, pair, pooled, &direct);
        }
        let stats = planner.stats();
        pooled_physical += stats.physical_identifier_calls();
        pooled_logical += stats.logical_identifier_calls;
    }
    // Across the suite, memoisation must have saved real enumeration work.
    assert!(
        pooled_physical < pooled_logical,
        "pool saved nothing: {pooled_physical} physical vs {pooled_logical} logical calls"
    );
}

/// Seeded random DAG programs, unbudgeted, with an exclusion-heavy instruction budget
/// (16 instructions force many iterative rounds, i.e. many distinct exclusion states).
#[test]
fn random_dags_pool_vs_direct_with_heavy_exclusions() {
    let model = DefaultCostModel::new();
    let pairs = Constraints::paper_sweep();
    let options = DriverOptions::new(16);
    for seed in 0..6u64 {
        let mut program = Program::new(format!("rand{seed}"));
        for block in 0..3u64 {
            let config = random::RandomDfgConfig {
                nodes: 12 + (seed as usize % 3) * 2,
                ..random::RandomDfgConfig::default()
            };
            let mut dfg = random::random_dfg(&config, seed * 101 + block);
            dfg.set_exec_count(100 * (block + 1));
            program.add_block(dfg);
        }
        let mut planner = SweepPlanner::new(&program, &model, options, &pairs);
        let pooled = planner.run_single_cut(&pairs);
        for (pair, pooled) in pairs.iter().zip(&pooled) {
            let direct = select_program(&program, &SingleCut::new(), *pair, &model, options);
            assert_identical(&program, pair, pooled, &direct);
        }
        assert_eq!(planner.stats().exhausted_fills, 0, "seed {seed}");
        assert!(
            planner.stats().physical_identifier_calls() < planner.stats().logical_identifier_calls,
            "seed {seed}"
        );
    }
}

/// One program of the Fig. 11 blocks with at least 28 nodes (`adpcmdecode.inner`,
/// `g721.fmult`, `gsm.autocorrelation`): under a parallel driver and no exploration
/// budget, the pool splits every one of their fills across cores. Sixteen
/// instructions force many iterative rounds, so most fills run under heavy
/// exclusions. The split-fill sweep equals the direct per-pair runs byte for byte,
/// and the sequential-driver sweep equals both.
#[test]
fn large_blocks_split_fills_pool_vs_direct_with_heavy_exclusions() {
    let model = DefaultCostModel::new();
    let pairs = Constraints::paper_sweep();
    let options = DriverOptions::new(16);
    let mut program = Program::new("large_blocks");
    for source in suite::fig11_benchmarks() {
        for block in source.blocks().iter().filter(|b| b.node_count() >= 28) {
            program.add_block(block.clone());
        }
    }
    assert_eq!(program.block_count(), 3);
    let mut planner = SweepPlanner::new(&program, &model, options, &pairs);
    let pooled = planner.run_single_cut(&pairs);
    let mut sequential = SweepPlanner::new(&program, &model, options.sequential(), &pairs);
    let sequential = sequential.run_single_cut(&pairs);
    for ((pair, pooled), sequential) in pairs.iter().zip(&pooled).zip(&sequential) {
        let direct = select_program(&program, &SingleCut::new(), *pair, &model, options);
        assert_identical(&program, pair, pooled, &direct);
        assert_identical(&program, pair, sequential, &direct);
    }
    let stats = planner.stats();
    assert_eq!(stats.exhausted_fills, 0);
    assert!(stats.pool_fills > 3, "exclusion states refill: {stats:?}");
}

/// Seeded isomorphic relabellings of one Fig. 11 kernel block: the sweep stays
/// byte-identical to direct per-pair runs, and the blocks share one fill per shape, so
/// the copies pay no more fills than a program holding a single copy of the block.
#[test]
fn isomorphic_blocks_share_fills_across_a_sweep() {
    let model = DefaultCostModel::new();
    let pairs = Constraints::paper_sweep();
    let options = DriverOptions::new(4);
    let kernel = adpcm::decode_program();
    let block = kernel
        .blocks()
        .iter()
        .max_by_key(|block| block.exec_count())
        .expect("the kernel has blocks");
    let mut single = Program::new("single");
    single.add_block(block.clone());
    let mut copies = Program::new("copies");
    for seed in 0..4u64 {
        let mut copy = corpus::shuffled_isomorph(block, format!("copy{seed}"), seed);
        copy.set_exec_count(block.exec_count() * (seed + 1));
        copies.add_block(copy);
    }
    let sweep_fills = |program: &Program| {
        let mut planner = SweepPlanner::new(program, &model, options, &pairs);
        let pooled = planner.run_single_cut(&pairs);
        for (pair, pooled) in pairs.iter().zip(&pooled) {
            let direct = select_program(program, &SingleCut::new(), *pair, &model, options);
            assert_identical(program, pair, pooled, &direct);
        }
        planner.stats().pool_fills
    };
    let single_fills = sweep_fills(&single);
    let copies_fills = sweep_fills(&copies);
    assert!(
        copies_fills <= single_fills,
        "four isomorphic copies paid {copies_fills} fills, one copy {single_fills}"
    );
}

/// The optimal (multiple-cut) strategy: pool-backed tuples versus direct
/// `select_optimal` under the same exploration budget, on small random programs. A
/// tuple fill that exhausts its budget sends its queries to direct searches; without a
/// budget every search completes exactly and every tuple is answered from its pool.
#[test]
fn random_dags_pool_vs_direct_optimal() {
    let model = DefaultCostModel::new();
    let pairs = vec![
        Constraints::new(2, 1),
        Constraints::new(4, 2),
        Constraints::new(4, 3),
        Constraints::new(8, 4),
    ];
    let options = DriverOptions::new(4);
    let budgets = [Some(50), Some(1_000), None];
    let mut exhausted_fills = [0; 3];
    let mut pool_answers = [0; 3];
    for seed in 0..4u64 {
        let mut program = Program::new(format!("opt{seed}"));
        let config = random::RandomDfgConfig {
            nodes: 10,
            ..random::RandomDfgConfig::default()
        };
        let mut dfg = random::random_dfg(&config, 900 + seed);
        dfg.set_exec_count(500);
        program.add_block(dfg);
        let mut dfg = random::random_dfg(&config, 1900 + seed);
        dfg.set_exec_count(50);
        program.add_block(dfg);

        for (b, budget) in budgets.into_iter().enumerate() {
            let mut planner = SweepPlanner::new(&program, &model, options, &pairs)
                .with_exploration_budget(budget);
            let pooled = planner.run_optimal(&pairs);
            for (pair, pooled) in pairs.iter().zip(&pooled) {
                let direct = select_optimal(&program, *pair, &model, 4, budget);
                assert_identical(&program, pair, pooled, &direct);
            }
            let stats = planner.stats();
            exhausted_fills[b] += stats.exhausted_fills;
            pool_answers[b] += stats.pool_answers;
            if budget.is_none() {
                assert_eq!(stats.exhausted_fills, 0, "seed {seed}");
                assert!(
                    stats.physical_identifier_calls() < stats.logical_identifier_calls,
                    "seed {seed}"
                );
            }
        }
    }
    // Budget 50 exhausts every tuple fill, 1,000 some of them, and no budget none.
    assert_eq!(exhausted_fills.map(|n| n > 0), [true, true, false]);
    assert_eq!(pool_answers.map(|n| n > 0), [false, true, true]);
}

/// The API-level sweep (what the CLI serves) equals per-pair sessions for a workload
/// with both a tight and the loosest paper pair, in both pool and direct mode.
#[test]
fn api_sweep_is_mode_independent() {
    use ise_api::{Algorithm, IseRequest, ProgramSource, Session, SweepRequest};
    let base = IseRequest::new(
        Algorithm::SingleCut,
        ProgramSource::Workload("crc32".into()),
    );
    let sweep = SweepRequest::new(base.clone(), Constraints::paper_sweep());
    let (pooled, stats) = Session::execute_sweep(&sweep).expect("pool-backed sweep");
    let mut direct_request = base;
    direct_request.options.cut_pool = false;
    let direct = SweepRequest::new(direct_request, Constraints::paper_sweep());
    let (direct, direct_stats) = Session::execute_sweep(&direct).expect("direct sweep");
    assert_eq!(ise_api::to_json(&pooled), ise_api::to_json(&direct));
    assert!(stats.physical_identifier_calls() < stats.logical_identifier_calls);
    assert_eq!(
        direct_stats.physical_identifier_calls(),
        direct_stats.logical_identifier_calls
    );
}
