//! Full experiment sweep: runs the Fig. 11 comparison over *every* bundled application
//! (not only the trio of the figure) and a finer constraint grid, in parallel, writing
//! one CSV per application.
//!
//! The applications are fanned out with `rayon`; the per-block driver inside each
//! application run is kept sequential so the machine is not oversubscribed.
//!
//! Usage: `cargo run --release -p ise-bench --bin sweep [--direct] [output-dir]`
//!
//! The per-application sweeps are answered from memoised cut pools by default;
//! `--direct` forces the reference per-pair searches (byte-identical CSVs either way).

use ise_bench::fig11::{self, Fig11Config};
use ise_bench::{report, write_artifact, BenchArgs};
use ise_core::Constraints;
use ise_workloads::suite;
use rayon::prelude::*;

fn main() {
    let args = BenchArgs::parse("sweep", &["--direct"]);
    let config = Fig11Config {
        constraints: vec![
            Constraints::new(2, 1),
            Constraints::new(3, 1),
            Constraints::new(4, 1),
            Constraints::new(4, 2),
            Constraints::new(4, 3),
            Constraints::new(6, 3),
            Constraints::new(8, 4),
        ],
        max_instructions: 16,
        parallel: false,
        direct: args.direct,
        ..Fig11Config::default()
    };
    let benchmarks = suite::mediabench_like();

    // One parallel task per application; each application's sweep is independent.
    let results: Vec<(String, Vec<fig11::Fig11Row>)> = benchmarks
        .par_iter()
        .map(|program| {
            let rows = fig11::run(std::slice::from_ref(program), &config);
            (program.name().to_string(), rows)
        })
        .collect();

    let mut all_rows = Vec::new();
    for (name, rows) in results {
        println!("## {name}");
        print!("{}", report::fig11_markdown(&rows));
        write_artifact(
            &args.output_dir,
            &format!("sweep_{name}.csv"),
            &report::fig11_csv(&rows),
        );
        println!();
        all_rows.extend(rows);
    }
    let checks = fig11::shape_checks(&all_rows);
    println!(
        "exact algorithms dominate baselines: {}",
        checks.exact_dominates_baselines
    );
    write_artifact(
        &args.output_dir,
        "sweep_all.csv",
        &report::fig11_csv(&all_rows),
    );
}
