//! The paper's motivational example (Fig. 3): the adpcmdecode hot basic block.
//!
//! Run with `cargo run --release --example adpcm_motivation`.
//!
//! The example shows how the best instruction found by the exact identification
//! algorithm changes with the microarchitectural constraints, reproducing the discussion
//! of Sections 4 and 8. Both the exact algorithm and the MaxMISO baseline are fetched
//! from `full_registry()` and driven through the same `Identifier` interface:
//!
//! * with 2 read ports / 1 write port the algorithm finds the small approximate
//!   16×4-bit multiplication (M1 in the figure);
//! * with 3 read ports it also absorbs the following accumulate/saturate logic (M2);
//! * with more write ports the iterative selection additionally picks the *disconnected*
//!   step-size update (M3), something single-output methods cannot do;
//! * MaxMISO with 2 read ports finds nothing useful because M1 is buried inside the
//!   larger 3-input MaxMISO.

use ise::core::engine::{select_program, DriverOptions};
use ise::core::Constraints;
use ise::hw::{DefaultCostModel, SoftwareLatencyModel};
use ise::workloads::adpcm;

fn main() {
    let block = adpcm::decode_kernel();
    let program = adpcm::decode_program();
    let registry = ise::baselines::full_registry();
    let exact = registry.create("single-cut").expect("bundled algorithm");
    let maxmiso = registry.create("maxmiso").expect("bundled algorithm");
    let model = DefaultCostModel::new();
    let software = SoftwareLatencyModel::new();

    println!(
        "adpcmdecode inner loop: {} operations, {} live-in values, {} live-out values\n",
        block.node_count(),
        block.input_count(),
        block.output_count()
    );

    println!("== Best single instruction vs. port constraints (exact search) ==");
    for (nin, nout) in [(2, 1), (3, 1), (4, 1), (4, 2), (6, 3)] {
        let constraints = Constraints::new(nin, nout);
        let outcome = exact.identify(&block, &constraints, &model);
        match outcome.best {
            Some(best) => println!(
                "  {constraints:<18} -> {:>2} ops, {} in / {} out, {:>4.0} cycles saved per sample",
                best.evaluation.nodes,
                best.evaluation.inputs,
                best.evaluation.outputs,
                best.evaluation.merit
            ),
            None => println!("  {constraints:<18} -> nothing profitable"),
        }
    }

    println!("\n== MaxMISO on the same block ==");
    for (nin, nout) in [(2, 1), (3, 1), (4, 1)] {
        let constraints = Constraints::new(nin, nout);
        let outcome = maxmiso.identify(&block, &constraints, &model);
        let best_nodes = outcome
            .candidates
            .iter()
            .map(|c| c.evaluation.nodes)
            .max()
            .unwrap_or(0);
        println!(
            "  {constraints:<18} -> {} feasible MaxMISOs (largest: {} ops)",
            outcome.candidates.len(),
            best_nodes
        );
    }

    println!("\n== Whole-application selection, up to 16 instructions ==");
    for (nin, nout) in [(2, 1), (4, 2), (8, 4)] {
        let constraints = Constraints::new(nin, nout);
        let iterative = select_program(
            &program,
            exact.as_ref(),
            constraints,
            &model,
            DriverOptions::new(16),
        );
        let report = iterative.speedup_report(&program, &software);
        let greedy = select_program(
            &program,
            maxmiso.as_ref(),
            constraints,
            &model,
            DriverOptions::new(16),
        );
        let greedy_report = greedy.speedup_report(&program, &software);
        println!(
            "  {constraints:<18} -> Iterative: x{:.2} with {} instructions ({} ops max, area {:.2} MACs); MaxMISO: x{:.2}",
            report.speedup,
            iterative.len(),
            iterative
                .chosen
                .iter()
                .map(|c| c.identified.evaluation.nodes)
                .max()
                .unwrap_or(0),
            report.total_area,
            greedy_report.speedup,
        );
    }
}
