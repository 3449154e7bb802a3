//! Intra-block scaling experiment: sequential versus subtree-parallel exact search on
//! wide single blocks, with a hard determinism gate.
//!
//! Usage: `cargo run --release -p ise-bench --bin scaling [--quick] [output-dir]`
//!
//! `--quick` runs the reduced smoke configuration (smaller blocks). Prints a Markdown
//! table to stdout and writes the machine-readable `BENCH_search.json` into the output
//! directory (default `results/`). Exits with code **3** when any parallel search
//! output diverges from its sequential twin — CI runs this as the determinism gate.

use std::fs;
use std::path::PathBuf;

use ise_bench::scaling::{self, ScalingConfig};

fn main() {
    let mut quick = false;
    let mut output_dir = PathBuf::from("results");
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if arg.starts_with('-') {
            eprintln!("error: unknown flag {arg:?}\nusage: scaling [--quick] [output-dir]");
            std::process::exit(2);
        } else {
            output_dir = PathBuf::from(arg);
        }
    }
    let config = if quick {
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

    if let Err(error) = fs::create_dir_all(&output_dir) {
        eprintln!("warning: cannot create {}: {error}", output_dir.display());
    } else {
        let json_path = output_dir.join("BENCH_search.json");
        match fs::write(&json_path, scaling::to_json(&report) + "\n") {
            Ok(()) => println!("wrote {}", json_path.display()),
            Err(error) => eprintln!("warning: cannot write {}: {error}", json_path.display()),
        }
    }

    if !report.all_identical {
        eprintln!("error: parallel search output diverged from the sequential search");
        std::process::exit(3);
    }
}
