//! Seeded determinism property tests for the shared search kernel's intra-block
//! parallelism: splitting the decision tree into parallel subtree tasks must return
//! **byte-identical** results — the same cuts *and* the same `SearchStats`, including
//! `best_updates` — as the sequential walk, for all three kernel clients (single-cut,
//! multicut, exhaustive), with and without exclusions, at every split depth. The
//! `select_program` driver's block fan-out is held to the same standard.
//!
//! Like `tests/properties.rs`, the cases are deterministic seeded loops (the offline
//! environment has no `proptest`); any failure reproduces exactly from the printed
//! case number.

use ise::core::engine::{Exhaustive, Identifier, MultiCut, SingleCut};
use ise::core::{Constraints, DriverOptions};
use ise::hw::DefaultCostModel;
use ise::ir::Program;
use ise::workloads::random::{random_dfg, wide_dfg, RandomDfgConfig};

/// Splits worth exercising: shallower and deeper than the typical tree, including a
/// depth the kernel must clamp.
const SPLITS: [usize; 3] = [1, 3, 6];

#[test]
fn single_cut_split_search_is_byte_identical_to_sequential() {
    let model = DefaultCostModel::new();
    let identifier = SingleCut::new();
    for case in 0..14u64 {
        // Alternate the default operation mix with the wide worst-case shape.
        let nodes = 8 + (case as usize % 11);
        let dfg = if case % 2 == 0 {
            random_dfg(&RandomDfgConfig::with_nodes(nodes), 0xDE ^ case)
        } else {
            wide_dfg(nodes, 0xA11 ^ case)
        };
        for constraints in [
            Constraints::new(2, 1),
            Constraints::new(4, 2),
            Constraints::new(8, 4),
        ] {
            let sequential = identifier.identify_split(&dfg, None, &constraints, &model, 0);
            for split in SPLITS {
                let parallel = identifier.identify_split(&dfg, None, &constraints, &model, split);
                assert_eq!(
                    sequential.stats, parallel.stats,
                    "case {case}, split {split}, {constraints}: stats diverged"
                );
                assert_eq!(
                    sequential, parallel,
                    "case {case}, split {split}, {constraints}: outcome diverged"
                );
            }
            // Exclusion-aware path: exclude the best cut, re-identify at every split.
            let Some(best) = &sequential.best else {
                continue;
            };
            let seq_excluded =
                identifier.identify_split(&dfg, Some(&best.cut), &constraints, &model, 0);
            for split in SPLITS {
                let par_excluded =
                    identifier.identify_split(&dfg, Some(&best.cut), &constraints, &model, split);
                assert_eq!(
                    seq_excluded, par_excluded,
                    "case {case}, split {split}, {constraints}: excluded outcome diverged"
                );
            }
        }
    }
}

#[test]
fn multicut_and_exhaustive_split_searches_are_byte_identical() {
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(4, 2);
    for case in 0..12u64 {
        let nodes = 6 + (case as usize % 6);
        let dfg = if case % 2 == 0 {
            random_dfg(&RandomDfgConfig::with_nodes(nodes), 0xBEEF ^ case)
        } else {
            wide_dfg(nodes, 0xF00 ^ case)
        };
        let clients: [Box<dyn Identifier>; 3] = [
            Box::new(MultiCut::new(2)),
            Box::new(MultiCut::new(3)),
            Box::new(Exhaustive::new()),
        ];
        for identifier in &clients {
            let sequential = identifier.identify_split(&dfg, None, &constraints, &model, 0);
            for split in SPLITS {
                let parallel = identifier.identify_split(&dfg, None, &constraints, &model, split);
                assert_eq!(
                    sequential.stats,
                    parallel.stats,
                    "case {case}, split {split}, {}: stats diverged",
                    identifier.name()
                );
                assert_eq!(
                    sequential,
                    parallel,
                    "case {case}, split {split}, {}: outcome diverged",
                    identifier.name()
                );
            }
        }
    }
}

/// Builds a few-large-blocks program: the shape where only intra-block parallelism can
/// spread the work.
fn wide_program(blocks: usize, nodes: usize, seed: u64) -> Program {
    ise::workloads::random::wide_dag_program(blocks, nodes, seed)
}

#[test]
fn select_program_is_byte_identical_across_both_parallelism_levels() {
    let model = DefaultCostModel::new();
    for (case, (blocks, nodes)) in [(2usize, 13usize), (3, 11)].into_iter().enumerate() {
        let program = wide_program(blocks, nodes, 0x5EED + case as u64);
        for identifier in [
            &SingleCut::new() as &dyn Identifier,
            &MultiCut::new(2),
            &Exhaustive::new(),
        ] {
            let constraints = Constraints::new(4, 2);
            // The block fan-out must agree with the sequential driver, byte for byte
            // once serialised.
            let reference = ise::core::engine::select_program(
                &program,
                identifier,
                constraints,
                &model,
                DriverOptions::new(4).sequential(),
            );
            let result = ise::core::engine::select_program(
                &program,
                identifier,
                constraints,
                &model,
                DriverOptions::new(4),
            );
            assert_eq!(
                ise::api::to_json(&result),
                ise::api::to_json(&reference),
                "case {case}, {}: the block fan-out diverged",
                identifier.name()
            );
        }
    }
}

/// An exploration budget is a global sequential cap: the kernel must ignore the split
/// hint and return exactly the sequential budgeted outcome.
#[test]
fn exploration_budget_forces_the_sequential_path() {
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(4, 2);
    let dfg = wide_dfg(16, 0xB5D6E7);
    let identifier = SingleCut::new().with_exploration_budget(Some(50));
    let sequential = identifier.identify_split(&dfg, None, &constraints, &model, 0);
    assert!(sequential.stats.budget_exhausted);
    for split in SPLITS {
        let hinted = identifier.identify_split(&dfg, None, &constraints, &model, split);
        assert_eq!(
            sequential, hinted,
            "split {split} must not change a budgeted run"
        );
    }
}
