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
use std::process::ExitCode;

use ise_bench::corpus_bench::{self, CorpusBenchConfig};
use ise_bench::{write_artifact, BenchArgs};

fn main() -> ExitCode {
    let args = BenchArgs::parse("corpus_gate", &["--quick"]);
    let config = if args.quick {
        CorpusBenchConfig::quick()
    } else {
        CorpusBenchConfig::default()
    };
    let report = corpus_bench::run(&config);

    println!("# Corpus gate — structural dedup vs per-program reference runs");
    println!();
    print!("{}", corpus_bench::markdown(&report));
    write_artifact(
        &args.output_dir,
        "BENCH_corpus.json",
        &(corpus_bench::to_json(&report) + "\n"),
    );

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
