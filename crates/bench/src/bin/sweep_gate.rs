//! The sweep determinism gate: asserts that the pool-backed Fig. 11 sweep is
//! byte-identical to the direct per-pair searches while performing strictly fewer
//! search-tree enumerations, and writes the machine-readable `BENCH_sweep.json`.
//!
//! Usage: `cargo run --release -p ise-bench --bin sweep_gate [--quick] [output-dir]`
//!
//! Exit codes: `0` identical and fewer invocations, `3` the two modes diverged (or the
//! pool failed to save work) — CI runs this like the `scaling` sequential/parallel gate.
use std::process::ExitCode;

use ise_bench::sweep_bench::{self, SweepBenchConfig};
use ise_bench::{write_artifact, BenchArgs};

fn main() -> ExitCode {
    let args = BenchArgs::parse("sweep_gate", &["--quick"]);
    let config = if args.quick {
        SweepBenchConfig::quick()
    } else {
        SweepBenchConfig::default()
    };
    let report = sweep_bench::run(&config);

    println!("# Sweep gate — pool-backed vs direct Fig. 11 sweep");
    println!();
    print!("{}", sweep_bench::markdown(&report));
    write_artifact(
        &args.output_dir,
        "BENCH_sweep.json",
        &(sweep_bench::to_json(&report) + "\n"),
    );

    if !report.identical {
        eprintln!("error: pool-backed sweep diverged from the direct per-pair runs");
        return ExitCode::from(3);
    }
    if !report.fewer_invocations {
        eprintln!("error: the cut pool performed no fewer enumerations than direct mode");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
