//! Integration test reproducing the behaviour of Fig. 10: optimal selection of several
//! cuts across several basic blocks, with the bounded number of identifier invocations.

use ise::core::engine::{select_program, DriverOptions, SingleCut};
use ise::core::{identify_multiple_cuts, select_optimal, Constraints};
use ise::hw::{DefaultCostModel, SoftwareLatencyModel};
use ise::ir::{DfgBuilder, Program};

/// Three basic blocks with clearly different amounts of extractable parallelism, in the
/// spirit of the BB1/BB2/BB3 example of Fig. 10.
fn three_block_program() -> Program {
    let mut p = Program::new("fig10");

    // BB1: two independent MAC chains — two good cuts.
    let mut b = DfgBuilder::new("bb1");
    b.exec_count(100);
    let a = b.input("a");
    let c = b.input("c");
    let d = b.input("d");
    let m1 = b.mul(a, c);
    let s1 = b.add(m1, d);
    let m2 = b.mul(c, d);
    let s2 = b.add(m2, a);
    b.output("o1", s1);
    b.output("o2", s2);
    p.add_block(b.finish());

    // BB2: one deep saturation chain — one good cut.
    let mut b = DfgBuilder::new("bb2");
    b.exec_count(100);
    let v = b.input("v");
    let w = b.input("w");
    let m = b.mul(v, w);
    let s = b.add(m, v);
    let g = b.gt(s, b.imm(255));
    let sat = b.select(g, b.imm(255), s);
    b.output("o", sat);
    p.add_block(b.finish());

    // BB3: a single one-cycle operation — nothing worth extracting (a one-cycle
    // instruction replaced by another one-cycle instruction saves nothing).
    let mut b = DfgBuilder::new("bb3");
    b.exec_count(100);
    let x = b.input("x");
    let y = b.input("y");
    let t = b.xor(x, y);
    b.output("o", t);
    p.add_block(b.finish());

    p
}

#[test]
fn optimal_selection_uses_at_most_ninstr_plus_nbb_minus_one_identifier_calls() {
    let p = three_block_program();
    let model = DefaultCostModel::new();
    for ninstr in [1usize, 2, 3, 4] {
        let result = select_optimal(&p, Constraints::new(3, 1), &model, ninstr, None);
        assert!(
            result.identifier_calls <= (ninstr + p.block_count() - 1) as u64,
            "Ninstr={ninstr}: {} calls",
            result.identifier_calls
        );
        assert!(result.len() <= ninstr);
    }
}

#[test]
fn optimal_selection_distributes_cuts_by_marginal_improvement() {
    let p = three_block_program();
    let model = DefaultCostModel::new();
    let result = select_optimal(&p, Constraints::new(3, 1), &model, 3, None);
    // The logic-only block must never receive an instruction; the two MAC-like blocks
    // share the three slots.
    assert!(result.chosen.iter().all(|c| c.block_index != 2));
    assert!(result.chosen.iter().any(|c| c.block_index == 0));
    assert!(result.chosen.iter().any(|c| c.block_index == 1));
    // The multi-cut identifier on BB1 with two cuts must be at least as good as its best
    // single cut (the monotonicity the selection relies on).
    let one = identify_multiple_cuts(p.block(0), Constraints::new(3, 1), &model, 1);
    let two = identify_multiple_cuts(p.block(0), Constraints::new(3, 1), &model, 2);
    assert!(two.total_merit >= one.total_merit);
}

#[test]
fn optimal_never_loses_to_iterative_and_both_report_consistent_speedups() {
    let p = three_block_program();
    let model = DefaultCostModel::new();
    let software = SoftwareLatencyModel::new();
    for constraints in [
        Constraints::new(2, 1),
        Constraints::new(3, 1),
        Constraints::new(4, 2),
    ] {
        for ninstr in [1usize, 2, 4] {
            let optimal = select_optimal(&p, constraints, &model, ninstr, None);
            let options = DriverOptions::new(ninstr);
            let iterative = select_program(&p, &SingleCut::new(), constraints, &model, options);
            assert!(
                optimal.total_weighted_saving >= iterative.total_weighted_saving - 1e-9,
                "{constraints}, Ninstr={ninstr}"
            );
            let report = optimal.speedup_report(&p, &software);
            assert!(report.speedup >= 1.0);
            assert!(report.saved_cycles <= report.baseline_cycles);
        }
    }
}

#[test]
fn selections_are_disjoint_within_each_block() {
    let p = three_block_program();
    let model = DefaultCostModel::new();
    let result = select_optimal(&p, Constraints::new(2, 1), &model, 4, None);
    for i in 0..result.chosen.len() {
        for j in i + 1..result.chosen.len() {
            if result.chosen[i].block_index == result.chosen[j].block_index {
                assert!(!result.chosen[i]
                    .identified
                    .cut
                    .intersects(&result.chosen[j].identified.cut));
            }
        }
    }
}
