//! The template gate: asserts that the cross-site template selector matches the
//! brute-force oracle and that cross-site selection matches or beats the per-block
//! baseline at equal area on a duplicate-heavy corpus, and writes the
//! machine-readable `BENCH_templates.json`.
//!
//! Usage: `cargo run --release -p ise-bench --bin template_gate [--quick] [output-dir]`
//!
//! Exit codes: `0` oracle-identical, cross-site wins and monotone coverage, `3` the
//! selector diverged from the oracle, lost to the baseline at some budget, or site
//! coverage regressed — CI runs this like `corpus_gate`.
use std::process::ExitCode;

use ise_bench::template_bench::{self, TemplateBenchConfig};
use ise_bench::{write_artifact, BenchArgs};

fn main() -> ExitCode {
    let args = BenchArgs::parse("template_gate", &["--quick"]);
    let config = if args.quick {
        TemplateBenchConfig::quick()
    } else {
        TemplateBenchConfig::default()
    };
    let report = template_bench::run(&config);

    println!("# Template gate — cross-site templates vs per-block selection at equal area");
    println!();
    print!("{}", template_bench::markdown(&report));
    write_artifact(
        &args.output_dir,
        "BENCH_templates.json",
        &(template_bench::to_json(&report) + "\n"),
    );

    if !report.oracle_identical {
        eprintln!("error: the branch-and-bound selector diverged from the brute-force oracle");
        return ExitCode::from(3);
    }
    if !report.cross_site_wins {
        eprintln!(
            "error: cross-site template selection lost to the per-block baseline at equal \
             area on the duplicate-heavy corpus"
        );
        return ExitCode::from(3);
    }
    if !template_bench::coverage_is_monotonic(&report) {
        eprintln!("error: site coverage regressed across the budget ladder");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
