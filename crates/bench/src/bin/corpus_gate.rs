//! The corpus dedup gate: asserts that structural cross-program deduplication is
//! byte-identical to the per-program reference runs while enumerating at least 2x
//! fewer cuts on a duplicate-heavy corpus, and writes the machine-readable
//! `BENCH_corpus.json`.
//!
//! Usage: `cargo run --release -p ise-bench --bin corpus_gate [--quick] [output-dir]`
//!
//! Exit codes: `0` identical and >= 2x enumeration reduction, `3` the modes diverged,
//! dedup failed to pay, or the streaming and tree JSON decodes of the corpus request
//! disagreed — CI runs this like `sweep_gate`.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use ise_bench::corpus_bench::{self, CorpusBenchConfig};

fn main() -> ExitCode {
    let mut quick = false;
    let mut output_dir = PathBuf::from("results");
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if arg.starts_with('-') {
            eprintln!("error: unknown flag {arg:?}\nusage: corpus_gate [--quick] [output-dir]");
            return ExitCode::from(2);
        } else {
            output_dir = PathBuf::from(arg);
        }
    }
    let config = if quick {
        CorpusBenchConfig::quick()
    } else {
        CorpusBenchConfig::default()
    };
    let report = corpus_bench::run(&config);

    println!("# Corpus gate — structural dedup vs per-program reference runs");
    println!();
    print!("{}", corpus_bench::markdown(&report));

    if let Err(error) = fs::create_dir_all(&output_dir) {
        eprintln!("warning: cannot create {}: {error}", output_dir.display());
    }
    let path = output_dir.join("BENCH_corpus.json");
    match fs::write(&path, corpus_bench::to_json(&report) + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("warning: cannot write {}: {error}", path.display()),
    }

    if !report.identical {
        eprintln!("error: deduplicated corpus run diverged from the per-program reference");
        return ExitCode::from(3);
    }
    if !report.api.identical {
        eprintln!("error: the streaming JSON decode diverged from the tree decode");
        return ExitCode::from(3);
    }
    if report.cuts_reduction < 2.0 {
        eprintln!(
            "error: dedup reduced enumeration only {:.2}x on the duplicate-heavy corpus \
             (the gate requires >= 2x)",
            report.cuts_reduction
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
