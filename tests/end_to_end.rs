//! End-to-end integration tests: benchmark kernels through identification, selection,
//! collapsing and interpretation, across all workspace crates.

use std::collections::BTreeMap;

use ise::baselines::{Clubbing, MaxMiso};
use ise::core::collapse::collapse_into_program;
use ise::core::engine::SingleCut;
use ise::core::{identify_single_cut, select_program, Constraints, DriverOptions, SelectionResult};
use ise::hw::{CostModel, DefaultCostModel, SoftwareLatencyModel};
use ise::ir::interp::Evaluator;
use ise::ir::Program;
use ise::passes::{eliminate_dead_code, fold_constants};
use ise::workloads::{adpcm, suite};

/// The iterative strategy (Section 6.3): the program driver with the single-cut
/// identifier, under an optional per-invocation exploration budget.
fn iterative(
    program: &Program,
    constraints: Constraints,
    model: &dyn CostModel,
    max_instructions: usize,
    budget: Option<u64>,
) -> SelectionResult {
    let identifier = SingleCut::new().with_exploration_budget(budget);
    let options = DriverOptions::new(max_instructions);
    select_program(program, &identifier, constraints, model, options)
}

#[test]
fn the_motivational_example_behaves_as_described_in_the_paper() {
    let block = adpcm::decode_kernel();
    let model = DefaultCostModel::new();

    // With 2 read / 1 write port the exact algorithm already finds a multi-operation
    // instruction (the approximate 16x4-bit multiply M1 of Fig. 3).
    let m1 = identify_single_cut(&block, Constraints::new(2, 1), &model)
        .best
        .expect("a 2-input instruction exists");
    assert!(m1.evaluation.nodes >= 4);
    assert!(m1.evaluation.inputs <= 2);
    assert_eq!(m1.evaluation.outputs, 1);

    // With 3 read ports the instruction grows (it can absorb the accumulation as in M2).
    let m2 = identify_single_cut(&block, Constraints::new(3, 1), &model)
        .best
        .expect("a 3-input instruction exists");
    assert!(m2.evaluation.merit >= m1.evaluation.merit);
    assert!(m2.evaluation.inputs <= 3);

    // More write ports never hurt and eventually enable disconnected instructions.
    let wide = identify_single_cut(&block, Constraints::new(4, 3), &model)
        .best
        .expect("a multi-output instruction exists");
    assert!(wide.evaluation.merit >= m2.evaluation.merit);

    // MaxMISO with 2 read ports cannot find M1: it is buried inside a larger MaxMISO.
    let program = adpcm::decode_program();
    let maxmiso = select_program(
        &program,
        &MaxMiso::new(),
        Constraints::new(2, 1),
        &model,
        DriverOptions::new(16).sequential(),
    );
    let single_cut = iterative(&program, Constraints::new(2, 1), &model, 16, None);
    assert!(single_cut.total_weighted_saving > maxmiso.total_weighted_saving);
}

#[test]
fn every_bundled_benchmark_gains_from_instruction_set_extension() {
    let model = DefaultCostModel::new();
    let software = SoftwareLatencyModel::new();
    for program in suite::mediabench_like() {
        let selection = iterative(&program, Constraints::new(4, 2), &model, 16, Some(500_000));
        let report = selection.speedup_report(&program, &software);
        assert!(
            report.speedup > 1.0,
            "{} should speed up, got {:.3}",
            program.name(),
            report.speedup
        );
        // Every selected instruction respects the constraints and legality.
        for chosen in &selection.chosen {
            let block = program.block(chosen.block_index);
            assert!(chosen.identified.evaluation.inputs <= 4);
            assert!(chosen.identified.evaluation.outputs <= 2);
            assert!(ise::core::cut::is_convex(block, &chosen.identified.cut));
            assert!(ise::core::cut::is_afu_legal(block, &chosen.identified.cut));
        }
    }
}

#[test]
fn looser_port_constraints_never_reduce_the_estimated_speedup() {
    let model = DefaultCostModel::new();
    let software = SoftwareLatencyModel::new();
    let sweep = [
        Constraints::new(2, 1),
        Constraints::new(3, 1),
        Constraints::new(4, 1),
        Constraints::new(4, 2),
        Constraints::new(4, 3),
        Constraints::new(6, 3),
        Constraints::new(8, 4),
    ];
    for program in suite::fig11_benchmarks() {
        let mut last = 0.0;
        for constraints in sweep {
            let report = iterative(&program, constraints, &model, 16, Some(500_000))
                .speedup_report(&program, &software);
            assert!(
                report.speedup + 1e-9 >= last,
                "{}: speed-up dropped from {last:.3} to {:.3} at {constraints}",
                program.name(),
                report.speedup
            );
            last = report.speedup;
        }
    }
}

#[test]
fn exact_algorithms_dominate_both_baselines_on_the_fig11_trio() {
    let model = DefaultCostModel::new();
    let software = SoftwareLatencyModel::new();
    for program in suite::fig11_benchmarks() {
        for constraints in [
            Constraints::new(2, 1),
            Constraints::new(4, 2),
            Constraints::new(8, 4),
        ] {
            let single_cut = iterative(&program, constraints, &model, 16, Some(500_000))
                .speedup_report(&program, &software)
                .speedup;
            let greedy = DriverOptions::new(16).sequential();
            let clubbing = select_program(&program, &Clubbing::new(), constraints, &model, greedy)
                .speedup_report(&program, &software)
                .speedup;
            let maxmiso = select_program(&program, &MaxMiso::new(), constraints, &model, greedy)
                .speedup_report(&program, &software)
                .speedup;
            assert!(
                single_cut + 1e-9 >= clubbing && single_cut + 1e-9 >= maxmiso,
                "{} under {constraints}: iterative {single_cut:.3} vs clubbing {clubbing:.3} / maxmiso {maxmiso:.3}",
                program.name()
            );
        }
    }
}

#[test]
fn collapsing_selected_instructions_preserves_adpcm_decoder_behaviour() {
    let mut program = adpcm::decode_program();
    let model = DefaultCostModel::new();
    let selection = iterative(&program, Constraints::new(4, 2), &model, 4, None);
    assert!(!selection.is_empty());

    // Decode a short stream of 4-bit codes with the original program.
    let decode = |program: &ise::ir::Program, afus: Vec<ise::ir::AfuSpec>| -> Vec<i32> {
        let kernel_index = 1; // block 0 is the unpack block, block 1 the decoder kernel
        let mut evaluator = Evaluator::with_afus(afus);
        evaluator
            .memory
            .load_table(adpcm::STEP_TABLE_BASE as i32, &adpcm::STEP_SIZE_TABLE);
        evaluator
            .memory
            .load_table(adpcm::INDEX_TABLE_BASE as i32, &adpcm::INDEX_TABLE);
        let mut index = 0;
        let mut valpred = 0;
        let mut step = 7;
        let mut samples = Vec::new();
        for (i, delta) in [7, 3, 12, 0, 15, 8, 1, 6, 9, 4].into_iter().enumerate() {
            let inputs: BTreeMap<String, i32> = [
                ("delta".to_string(), delta),
                ("index".to_string(), index),
                ("valpred".to_string(), valpred),
                ("step".to_string(), step),
                ("outp".to_string(), 0x600 + i as i32),
            ]
            .into();
            let out = evaluator
                .eval_block(program.block(kernel_index), &inputs)
                .expect("kernel execution")
                .outputs;
            index = out["index"];
            valpred = out["valpred"];
            step = out["step"];
            samples.push(valpred);
        }
        samples
    };

    let before = decode(&program, Vec::new());
    // Collapse only the cuts of the decoder kernel (block index 1).
    for (i, chosen) in selection.chosen.iter().enumerate() {
        if chosen.block_index == 1 {
            collapse_into_program(&mut program, 1, &chosen.identified.cut, &format!("ise{i}"));
            break; // collapse the first (largest-saving) cut; node ids shift afterwards
        }
    }
    assert!(!program.afus().is_empty());
    let after = decode(&program, program.afus().to_vec());
    assert_eq!(before, after, "ISE rewriting changed the decoded samples");
}

#[test]
fn cleanup_passes_preserve_kernel_semantics() {
    // Constant folding plus DCE on a kernel with foldable address arithmetic must not
    // change its outputs.
    let mut block = adpcm::decode_kernel();
    let folded = fold_constants(&mut block);
    let removed = eliminate_dead_code(&mut block);
    let reference = adpcm::decode_kernel();
    assert!(block.validate().is_ok());
    let _ = (folded, removed);

    let run = |dfg: &ise::ir::Dfg| -> BTreeMap<String, i32> {
        let mut evaluator = Evaluator::new();
        evaluator
            .memory
            .load_table(adpcm::STEP_TABLE_BASE as i32, &adpcm::STEP_SIZE_TABLE);
        evaluator
            .memory
            .load_table(adpcm::INDEX_TABLE_BASE as i32, &adpcm::INDEX_TABLE);
        let inputs: BTreeMap<String, i32> = [
            ("delta".to_string(), 11),
            ("index".to_string(), 30),
            ("valpred".to_string(), -1200),
            ("step".to_string(), 130),
            ("outp".to_string(), 0x700),
        ]
        .into();
        evaluator
            .eval_block(dfg, &inputs)
            .expect("execution")
            .outputs
    };
    assert_eq!(run(&reference), run(&block));
}
