//! Property-based tests over randomly generated dataflow graphs.
//!
//! These tests tie the fast, incremental implementations used by the search algorithm to
//! the straightforward reference implementations, and check the structural invariants of
//! the identification, selection, collapsing and clean-up components on hundreds of
//! machine-generated graphs.
//!
//! The cases are generated with the deterministic seeded generator from
//! `ise_workloads::random` and plain loops instead of the `proptest` crate (unavailable
//! in the offline build environment); every failure therefore reproduces exactly from
//! the seed printed in the assertion message.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ise::baselines::{Clubbing, MaxMiso};
use ise::core::cut::{self, CutSet};
use ise::core::{exhaustive, identify_single_cut, Constraints};
use ise::hw::DefaultCostModel;
use ise::ir::interp::Evaluator;
use ise::ir::{topo, Dfg, NodeId};
use ise::passes::{eliminate_dead_code, fold_constants};
use ise::workloads::random::{random_dfg, RandomDfgConfig};

/// A small random graph (2–9 nodes), optionally memory-free, derived from `case`.
fn small_graph(case: u64) -> Dfg {
    let mut rng = SmallRng::seed_from_u64(0x51A1 ^ case);
    let config = RandomDfgConfig {
        nodes: rng.gen_range(2usize..10),
        inputs: 3,
        outputs: 2,
        memory_fraction: if rng.gen_bool(0.5) { 0.0 } else { 0.15 },
        ..RandomDfgConfig::default()
    };
    random_dfg(&config, rng.gen())
}

/// A medium random graph (5–39 nodes) derived from `case`.
fn medium_graph(case: u64) -> Dfg {
    let mut rng = SmallRng::seed_from_u64(0xced1 ^ case.rotate_left(17));
    random_dfg(
        &RandomDfgConfig::with_nodes(rng.gen_range(5usize..40)),
        rng.gen(),
    )
}

/// The pruned branch-and-bound search finds exactly the same best merit as brute-force
/// enumeration of all 2^N cuts, under several port configurations.
#[test]
fn search_matches_exhaustive_oracle() {
    let model = DefaultCostModel::new();
    for case in 0..48 {
        let dfg = small_graph(case);
        for constraints in [
            Constraints::new(2, 1),
            Constraints::new(3, 2),
            Constraints::new(8, 4),
        ] {
            let fast = identify_single_cut(&dfg, constraints, &model);
            let oracle = exhaustive::best_cut_exhaustive(&dfg, constraints, &model);
            let oracle_merit = oracle.best.as_ref().map_or(0.0, |b| b.evaluation.merit);
            assert!(
                (fast.best_merit() - oracle_merit).abs() < 1e-9,
                "case {case}, constraints {constraints}: fast {} vs oracle {}",
                fast.best_merit(),
                oracle_merit
            );
        }
    }
}

/// The incremental evaluation carried along the search equals the from-scratch reference
/// evaluation of the returned cut.
#[test]
fn incremental_evaluation_matches_reference() {
    let model = DefaultCostModel::new();
    for case in 0..48 {
        let dfg = medium_graph(case);
        let outcome = identify_single_cut(&dfg, Constraints::new(4, 2), &model);
        if let Some(best) = outcome.best {
            let reference = cut::evaluate(&dfg, &best.cut, &model);
            assert_eq!(best.evaluation.inputs, reference.inputs, "case {case}");
            assert_eq!(best.evaluation.outputs, reference.outputs, "case {case}");
            assert_eq!(
                best.evaluation.software_cycles, reference.software_cycles,
                "case {case}"
            );
            assert!(
                (best.evaluation.hardware_critical_path - reference.hardware_critical_path).abs()
                    < 1e-9,
                "case {case}"
            );
            assert!(
                (best.evaluation.merit - reference.merit).abs() < 1e-9,
                "case {case}"
            );
            assert!(reference.convex, "case {case}");
            assert!(cut::is_afu_legal(&dfg, &best.cut), "case {case}");
            assert!(best.evaluation.inputs <= 4, "case {case}");
            assert!(best.evaluation.outputs <= 2, "case {case}");
        }
    }
}

/// IN/OUT counts and convexity of arbitrary subsets are internally consistent with their
/// definitions.
#[test]
fn cut_measures_are_consistent() {
    for case in 0..48 {
        let dfg = medium_graph(case);
        let n = dfg.node_count();
        let mut rng = SmallRng::seed_from_u64(0x5e7 ^ case);
        let subset_len = rng.gen_range(0..n.max(1));
        let subset: Vec<usize> = (0..subset_len).map(|_| rng.gen_range(0..n)).collect();
        let cut_set = CutSet::from_nodes(&dfg, subset.iter().map(|&i| NodeId::new(i)));
        let inputs = cut::input_count(&dfg, &cut_set);
        let outputs = cut::output_count(&dfg, &cut_set);
        // Sources are distinct, so they can never exceed the total operand count.
        let operand_count: usize = cut_set.iter().map(|id| dfg.node(id).operands.len()).sum();
        assert!(inputs <= operand_count.max(1), "case {case}");
        assert!(outputs <= cut_set.len(), "case {case}");
        // A singleton (or empty) cut is always convex.
        if cut_set.len() <= 1 {
            assert!(cut::is_convex(&dfg, &cut_set), "case {case}");
        }
        // Convexity is monotone under taking the "downstream closure": adding every node
        // reachable between two members must restore convexity.
        if !cut::is_convex(&dfg, &cut_set) {
            let mut closure = cut_set.clone();
            for a in cut_set.iter() {
                for b in cut_set.iter() {
                    for mid in dfg.node_ids() {
                        if topo::reaches(&dfg, a, mid) && topo::reaches(&dfg, mid, b) {
                            closure.insert(mid);
                        }
                    }
                }
            }
            assert!(cut::is_convex(&dfg, &closure), "case {case}");
        }
    }
}

/// The consumers-first ordering used by the search is a valid reverse topological order
/// for every generated graph.
#[test]
fn consumers_first_order_is_valid() {
    for case in 0..48 {
        let dfg = medium_graph(case);
        let order = topo::consumers_first(&dfg);
        assert!(topo::is_consumers_first(&dfg, &order), "case {case}");
        let forward = topo::producers_first(&dfg);
        assert!(topo::is_producers_first(&dfg, &forward), "case {case}");
    }
}

/// MaxMISO produces a partition of the legal nodes into convex single-output subgraphs.
#[test]
fn maxmiso_partitions_legal_nodes() {
    for case in 0..48 {
        let dfg = medium_graph(case);
        let groups = MaxMiso::partition(&dfg);
        let mut covered = vec![false; dfg.node_count()];
        for group in &groups {
            assert!(!group.is_empty(), "case {case}");
            assert!(cut::is_convex(&dfg, group), "case {case}");
            assert!(cut::is_afu_legal(&dfg, group), "case {case}");
            // Every MaxMISO has a single output; groups rooted at dead code (a value that
            // is never consumed, which real compilers would have removed) have none.
            assert!(cut::output_count(&dfg, group) <= 1, "case {case}");
            for id in group.iter() {
                assert!(!covered[id.index()], "case {case}");
                covered[id.index()] = true;
            }
        }
        for (id, node) in dfg.iter_nodes() {
            let should_be_covered = !node.is_forbidden_in_afu()
                && (node.opcode.has_result()
                    && (dfg.is_output_source(id) || !dfg.consumers(id).is_empty())
                    || node.opcode.has_side_effect());
            if !node.is_forbidden_in_afu() && should_be_covered {
                assert!(covered[id.index()], "case {case}: node {id} not covered");
            }
        }
    }
}

/// Clubbing clusters always satisfy the port constraints they were built under.
#[test]
fn clubbing_clusters_respect_their_constraints() {
    let model = DefaultCostModel::new();
    for case in 0..48 {
        let dfg = medium_graph(case);
        let constraints = Constraints::new(3, 2);
        for cluster in Clubbing::cluster(&dfg, constraints) {
            assert!(cut::is_convex(&dfg, &cluster), "case {case}");
            assert!(cut::is_afu_legal(&dfg, &cluster), "case {case}");
            assert!(
                constraints.ports_ok(
                    cut::input_count(&dfg, &cluster),
                    cut::output_count(&dfg, &cluster)
                ),
                "case {case}"
            );
        }
        for candidate in Clubbing::new().candidates(&dfg, constraints, &model) {
            assert!(candidate.evaluation.merit > 0.0, "case {case}");
        }
    }
}

/// Collapsing the best identified cut into an AFU preserves the observable behaviour of
/// memory-free graphs under random input values.
#[test]
fn collapsing_preserves_semantics() {
    let model = DefaultCostModel::new();
    for case in 0..48 {
        let mut rng = SmallRng::seed_from_u64(0xc0 ^ case);
        let config = RandomDfgConfig {
            nodes: rng.gen_range(3usize..16),
            inputs: 3,
            outputs: 2,
            memory_fraction: 0.0,
            ..RandomDfgConfig::default()
        };
        let dfg = random_dfg(&config, rng.gen());
        let values: Vec<i32> = (0..3).map(|_| rng.gen_range(-1000i32..1000)).collect();
        let outcome = identify_single_cut(&dfg, Constraints::new(4, 2), &model);
        let Some(best) = outcome.best else { continue };
        let result = ise::core::collapse::collapse_cut(&dfg, &best.cut, 0, "prop_afu");
        assert!(result.rewritten.validate().is_ok(), "case {case}");
        assert!(result.afu_graph.validate().is_ok(), "case {case}");
        let spec = ise::ir::AfuSpec {
            id: 0,
            name: "prop_afu".into(),
            graph: result.afu_graph.clone(),
        };
        let bindings: BTreeMap<String, i32> = dfg
            .iter_inputs()
            .enumerate()
            .map(|(i, (_, var))| (var.name.clone(), values[i % values.len()]))
            .collect();
        let before = Evaluator::new().eval_block(&dfg, &bindings);
        let after = Evaluator::with_afus(vec![spec]).eval_block(&result.rewritten, &bindings);
        match (before, after) {
            (Ok(before), Ok(after)) => assert_eq!(before.outputs, after.outputs, "case {case}"),
            (Err(_), Err(_)) => {}
            (before, after) => {
                panic!("case {case}: one execution failed: before={before:?} after={after:?}")
            }
        }
    }
}

/// Constant folding followed by dead-code elimination preserves the observable behaviour
/// of memory-free graphs.
#[test]
fn cleanup_passes_preserve_semantics() {
    for case in 0..48 {
        let mut rng = SmallRng::seed_from_u64(0xd5e ^ case);
        let config = RandomDfgConfig {
            nodes: rng.gen_range(3usize..25),
            inputs: 3,
            outputs: 2,
            memory_fraction: 0.0,
            ..RandomDfgConfig::default()
        };
        let original = random_dfg(&config, rng.gen());
        let values: Vec<i32> = (0..3).map(|_| rng.gen_range(-500i32..500)).collect();
        let mut transformed = original.clone();
        fold_constants(&mut transformed);
        eliminate_dead_code(&mut transformed);
        assert!(transformed.validate().is_ok(), "case {case}");
        assert!(
            transformed.node_count() <= original.node_count(),
            "case {case}"
        );

        let bindings: BTreeMap<String, i32> = original
            .iter_inputs()
            .enumerate()
            .map(|(i, (_, var))| (var.name.clone(), values[i % values.len()]))
            .collect();
        let before = Evaluator::new().eval_block(&original, &bindings);
        let after = Evaluator::new().eval_block(&transformed, &bindings);
        match (before, after) {
            (Ok(before), Ok(after)) => assert_eq!(before.outputs, after.outputs, "case {case}"),
            (Err(_), Err(_)) => {}
            (before, after) => {
                panic!("case {case}: one execution failed: before={before:?} after={after:?}")
            }
        }
    }
}

/// Tightening a constraint can never increase the achievable merit.
#[test]
fn merit_is_monotone_in_the_constraints() {
    let model = DefaultCostModel::new();
    for case in 0..48 {
        let dfg = medium_graph(case);
        let tight = identify_single_cut(&dfg, Constraints::new(2, 1), &model).best_merit();
        let medium = identify_single_cut(&dfg, Constraints::new(4, 2), &model).best_merit();
        let loose = identify_single_cut(&dfg, Constraints::new(8, 4), &model).best_merit();
        assert!(tight <= medium + 1e-9, "case {case}");
        assert!(medium <= loose + 1e-9, "case {case}");
    }
}
