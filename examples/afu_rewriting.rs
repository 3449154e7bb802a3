//! End-to-end ISE flow: select instructions, collapse them into AFU nodes, and validate
//! the rewritten program with the reference interpreter.
//!
//! Run with `cargo run --release --example afu_rewriting`.
//!
//! This is the flow a retargetable tool-chain would follow after the identification step
//! of the paper: each selected cut is extracted into an AFU specification (the datapath
//! to be synthesised) and the basic block is rewritten to invoke the new instruction.
//! Selection goes through `full_registry()` and the parallel program driver.

use std::collections::BTreeMap;

use ise::core::collapse::collapse_into_program;
use ise::core::engine::{select_program, DriverOptions};
use ise::core::Constraints;
use ise::hw::{DefaultCostModel, SoftwareLatencyModel};
use ise::ir::interp::Evaluator;
use ise::workloads::gsm;

fn main() {
    let mut program = gsm::program();
    let identifier = ise::baselines::full_registry()
        .create("single-cut")
        .expect("bundled algorithm");
    let model = DefaultCostModel::new();
    let software = SoftwareLatencyModel::new();
    let constraints = Constraints::new(4, 2);

    let baseline_cycles = software.program_dynamic_cycles(&program);
    let selection = select_program(
        &program,
        identifier.as_ref(),
        constraints,
        &model,
        DriverOptions::new(4),
    );
    let report = selection.speedup_report(&program, &software);
    println!(
        "gsm: baseline {baseline_cycles} cycles, {} instructions selected, estimated speed-up x{:.2}\n",
        selection.len(),
        report.speedup
    );

    // Reference execution of the short-term filter block before rewriting.
    let inputs: BTreeMap<String, i32> = [
        ("d".to_string(), 1200),
        ("u".to_string(), -300),
        ("rp".to_string(), 9000),
    ]
    .into();
    let before = Evaluator::new()
        .eval_block(program.block(0), &inputs)
        .expect("reference execution")
        .outputs;

    // Collapse selected cuts into AFU instructions, rewriting the blocks in place.
    // Collapsing renumbers the nodes of the rewritten block, so cuts identified on the
    // original graph are only valid for the first rewrite of each block; collapse one
    // instruction per block here (re-running identification on the rewritten block would
    // pick up the remaining ones).
    let mut rewritten_blocks = std::collections::BTreeSet::new();
    for (i, chosen) in selection.chosen.iter().enumerate() {
        if !rewritten_blocks.insert(chosen.block_index) {
            continue;
        }
        let name = format!("ise{i}");
        let afu_id = collapse_into_program(
            &mut program,
            chosen.block_index,
            &chosen.identified.cut,
            &name,
        );
        let spec = &program.afus()[afu_id as usize];
        println!(
            "instruction {name}: block `{}`, {} operations collapsed, {} read ports, {} write ports",
            program.block(chosen.block_index).name(),
            spec.graph.node_count(),
            spec.input_count(),
            spec.output_count()
        );
    }

    // The rewritten program must behave identically; the interpreter executes the AFU
    // nodes through their extracted specifications.
    let after = Evaluator::with_afus(program.afus().to_vec())
        .eval_block(program.block(0), &inputs)
        .expect("rewritten execution")
        .outputs;
    assert_eq!(before, after, "collapsing must preserve semantics");
    println!(
        "\nrewritten filter block now has {} operations (was {}), outputs identical: {:?}",
        program.block(0).node_count(),
        gsm::short_term_filter_kernel().node_count(),
        after
    );
}
