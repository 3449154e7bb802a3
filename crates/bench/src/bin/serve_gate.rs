//! The serve-mode gate: asserts that every served response is byte-identical to
//! the one-shot path, that the warm cross-request cache answers a
//! duplicate-heavy corpus at least 2x faster than cold dispatch (median over
//! alternating cold/warm repeats) without paying
//! a single fill, and that a snapshot round trip warm-starts identically; then
//! writes the machine-readable `BENCH_serve.json`.
//!
//! Usage: `cargo run --release -p ise-bench --bin serve_gate [--quick] [output-dir]`
//!
//! Exit codes: `0` all gates hold, `3` identity, the warm pay-off or persistence
//! failed — CI runs this like `corpus_gate`.
use std::process::ExitCode;

use ise_bench::serve_bench::{self, ServeBenchConfig};
use ise_bench::{write_artifact, BenchArgs};

fn main() -> ExitCode {
    let args = BenchArgs::parse("serve_gate", &["--quick"]);
    let config = if args.quick {
        ServeBenchConfig::quick()
    } else {
        ServeBenchConfig::default()
    };
    let report = serve_bench::run(&config);

    println!("# Serve gate — warm cross-request cache vs cold dispatch");
    println!();
    print!("{}", serve_bench::markdown(&report));
    write_artifact(
        &args.output_dir,
        "BENCH_serve.json",
        &(serve_bench::to_json(&report) + "\n"),
    );

    if !report.identical {
        eprintln!("error: a served response diverged from the one-shot reference");
        return ExitCode::from(3);
    }
    if !report.snapshot_roundtrip_identical {
        eprintln!("error: the snapshot round trip did not warm-start byte-identically");
        return ExitCode::from(3);
    }
    if report.warm_fills > 0 || report.snapshot_warm_fills > 0 {
        eprintln!(
            "error: the warm phases paid {} + {} fills (the gate requires 0)",
            report.warm_fills, report.snapshot_warm_fills
        );
        return ExitCode::from(3);
    }
    if report.warm_speedup < 2.0 {
        eprintln!(
            "error: the warm cache served only {:.2}x the cold throughput, median of \
             {} repeats (the gate requires >= 2x)",
            report.warm_speedup, report.repeats
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
