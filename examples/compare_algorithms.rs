//! Algorithm comparison across the bundled benchmark suite (a console version of the
//! Fig. 11 experiment).
//!
//! Run with `cargo run --release --example compare_algorithms`.
//!
//! For every bundled application and a small sweep of register-file port constraints,
//! the example prints the estimated application speed-up of the paper's exact
//! single-cut algorithm and of the two prior-art baselines, with up to 16 special
//! instructions each. Every algorithm is fetched by name from `full_registry()` and
//! driven by the same parallel program driver — comparing another bundled algorithm
//! means adding its name to `ALGORITHMS`.

use ise::core::engine::{select_program, DriverOptions, IdentifierConfig};
use ise::core::Constraints;
use ise::hw::{DefaultCostModel, SoftwareLatencyModel};
use ise::workloads::suite;

/// Names of the compared algorithms, in column order.
const ALGORITHMS: [&str; 3] = ["single-cut", "clubbing", "maxmiso"];

fn main() {
    let registry = ise::baselines::full_registry();
    let config = IdentifierConfig::default().with_exploration_budget(Some(2_000_000));
    let model = DefaultCostModel::new();
    let software = SoftwareLatencyModel::new();
    let constraints_sweep = [
        Constraints::new(2, 1),
        Constraints::new(4, 2),
        Constraints::new(8, 4),
    ];

    print!("{:<14} {:>10}", "benchmark", "Nin/Nout");
    for name in ALGORITHMS {
        print!(" {name:>12}");
    }
    println!();
    for program in suite::mediabench_like() {
        for constraints in constraints_sweep {
            print!(
                "{:<14} {:>7}/{:<2}",
                program.name(),
                constraints.max_inputs,
                constraints.max_outputs
            );
            for name in ALGORITHMS {
                let identifier = registry
                    .create_configured(name, &config)
                    .expect("bundled algorithm");
                let speedup = select_program(
                    &program,
                    identifier.as_ref(),
                    constraints,
                    &model,
                    DriverOptions::new(16),
                )
                .speedup_report(&program, &software)
                .speedup;
                print!(" {speedup:>11.3}x");
            }
            println!();
        }
    }
    println!("\n(larger is better; the single-cut column is the paper's contribution)");
}
