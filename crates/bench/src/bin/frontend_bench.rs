//! The LLVM front-end benchmark: parsing throughput (lines/sec) over the bundled
//! fixtures and the end-to-end text-to-selection wall-clock, emitted as the
//! machine-readable `BENCH_frontend.json`.
//!
//! Usage: `cargo run --release -p ise-bench --bin frontend_bench [--quick] [output-dir]`
//!
//! Exit codes: `0` success (report written), `3` fixtures failed to load or the
//! differential check failed.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use ise_bench::frontend_bench;

fn main() -> ExitCode {
    let mut iterations = 40u64;
    let mut output_dir = PathBuf::from("results");
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            iterations = 2;
        } else if arg.starts_with('-') {
            eprintln!("error: unknown flag {arg:?}\nusage: frontend_bench [--quick] [output-dir]");
            return ExitCode::from(2);
        } else {
            output_dir = PathBuf::from(arg);
        }
    }
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

    if let Err(error) = fs::create_dir_all(&output_dir) {
        eprintln!("warning: cannot create {}: {error}", output_dir.display());
    }
    let path = output_dir.join("BENCH_frontend.json");
    match fs::write(&path, frontend_bench::to_json(&report) + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("warning: cannot write {}: {error}", path.display()),
    }

    if !report.differential_ok {
        eprintln!("error: crc32-flat.ll selection diverged from the hand-built kernel");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
