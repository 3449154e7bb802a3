//! The LLVM front-end benchmark: parsing throughput (lines/sec) over the bundled
//! fixtures and the end-to-end text-to-selection wall-clock, emitted as the
//! machine-readable `BENCH_frontend.json`.
//!
//! Usage: `cargo run --release -p ise-bench --bin frontend_bench [--quick] [output-dir]`
//!
//! Exit codes: `0` success (report written), `3` fixtures failed to load or the
//! differential check failed.

use std::process::ExitCode;

use ise_bench::frontend_bench;
use ise_bench::{write_artifact, BenchArgs};

fn main() -> ExitCode {
    let args = BenchArgs::parse("frontend_bench", &["--quick"]);
    let iterations = if args.quick { 2 } else { 40 };
    let report = match frontend_bench::run(iterations) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::from(3);
        }
    };

    println!("# Front-end benchmark — parse throughput and end-to-end wall-clock");
    println!();
    println!(
        "{} fixtures, {} source lines; {:.0} lines/sec (median of {} passes of {} iterations)",
        report.fixtures,
        report.total_lines,
        report.parse_lines_per_sec,
        report.repeats,
        report.parse_iterations
    );
    println!(
        "parse+lower pass: {:.3} ms; text → selection: {:.3} ms",
        report.parse_wall_ms, report.end_to_end_wall_ms
    );
    write_artifact(
        &args.output_dir,
        "BENCH_frontend.json",
        &(frontend_bench::to_json(&report) + "\n"),
    );

    if !report.differential_ok {
        eprintln!("error: crc32-flat.ll selection diverged from the hand-built kernel");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
