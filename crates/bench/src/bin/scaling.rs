//! Intra-block scaling experiment: sequential versus subtree-parallel exact search on
//! wide single blocks, with a hard determinism gate.
//!
//! Usage: `cargo run --release -p ise-bench --bin scaling [--quick] [output-dir]`
//!
//! `--quick` runs the reduced smoke configuration (smaller blocks). Prints a Markdown
//! table to stdout and writes the machine-readable `BENCH_search.json` into the output
//! directory (default `results/`). Exits with code **3** when any parallel search
//! output diverges from its sequential twin — CI runs this as the determinism gate.

use ise_bench::scaling::{self, ScalingConfig};
use ise_bench::{write_artifact, BenchArgs};

fn main() {
    let args = BenchArgs::parse("scaling", &["--quick"]);
    let config = if args.quick {
        ScalingConfig::quick()
    } else {
        ScalingConfig::default()
    };
    let report = scaling::run(&config);

    println!(
        "# Intra-block scaling — single-cut search, {} threads, split depth {}, median of {} repeats",
        report.threads, config.split_levels, report.repeats
    );
    println!();
    print!("{}", scaling::markdown(&report));
    println!();
    println!(
        "sequential == parallel for every client: {}",
        report.all_identical
    );
    write_artifact(
        &args.output_dir,
        "BENCH_search.json",
        &(scaling::to_json(&report) + "\n"),
    );

    if !report.all_identical {
        eprintln!("error: parallel search output diverged from the sequential search");
        std::process::exit(3);
    }
}
