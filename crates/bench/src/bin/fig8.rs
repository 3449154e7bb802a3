//! Regenerates Fig. 8 of the paper: cuts considered by the identification algorithm
//! versus basic-block size, with `Nout = 2` and unbounded `Nin`.
//!
//! Usage: `cargo run --release -p ise-bench --bin fig8 [--quick] [output-dir]`
//!
//! `--quick` runs the reduced smoke configuration (fewer, smaller random blocks).
//! Prints a Markdown table to stdout and writes `fig8.csv` into the output directory
//! (default `results/`).

use ise_bench::fig8::{self, Fig8Config};
use ise_bench::{report, write_artifact, BenchArgs};

fn main() {
    let args = BenchArgs::parse("fig8", &["--quick"]);
    let config = if args.quick {
        Fig8Config::quick()
    } else {
        Fig8Config::default()
    };
    let rows = fig8::run(&config);

    println!(
        "# Fig. 8 — search-space size (identifier = {}, Nout = {})",
        config.identifier, config.max_outputs
    );
    println!();
    print!("{}", report::fig8_markdown(&rows));
    println!();
    println!(
        "within polynomial (N^4) envelope: {}",
        fig8::within_polynomial_envelope(&rows)
    );
    write_artifact(&args.output_dir, "fig8.csv", &report::fig8_csv(&rows));
}
