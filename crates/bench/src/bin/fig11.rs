//! Regenerates Fig. 11 of the paper: estimated speed-up of Optimal, Iterative, Clubbing
//! and MaxMISO on the MediaBench-like trio for a sweep of port constraints, with up to 16
//! special instructions. All algorithms are driven through the engine registry.
//!
//! Usage: `cargo run --release -p ise-bench --bin fig11 [--quick] [--direct] [output-dir]`
//!
//! `--quick` runs the reduced smoke configuration (two constraint pairs, the GSM and
//! G.721 benchmarks only). The sweep is answered from a memoised cut pool by default;
//! `--direct` forces the reference per-pair searches (the rows — and the CSV — are
//! byte-identical in both modes, which `sweep_gate` asserts in CI).

use ise_bench::fig11::{self, Fig11Config};
use ise_bench::{report, write_artifact, BenchArgs};
use ise_workloads::suite;

fn main() {
    let args = BenchArgs::parse("fig11", &["--quick", "--direct"]);
    let config = Fig11Config {
        direct: args.direct,
        ..if args.quick {
            Fig11Config::quick()
        } else {
            Fig11Config::default()
        }
    };
    let benchmarks: Vec<_> = if args.quick {
        suite::fig11_benchmarks()
            .into_iter()
            .filter(|p| p.name() != "adpcmdecode")
            .collect()
    } else {
        suite::fig11_benchmarks()
    };
    let rows = fig11::run(&benchmarks, &config);

    println!(
        "# Fig. 11 — estimated speed-up, up to {} special instructions",
        config.max_instructions
    );
    println!();
    print!("{}", report::fig11_markdown(&rows));
    println!();
    let checks = fig11::shape_checks(&rows);
    println!(
        "exact algorithms dominate baselines: {}",
        checks.exact_dominates_baselines
    );
    println!(
        "gap grows with port budget:          {}",
        checks.gap_grows_with_ports
    );
    println!(
        "Optimal ≈ Iterative:                 {}",
        checks.optimal_close_to_iterative
    );
    let max_area = rows.iter().map(|r| r.area).fold(0.0f64, f64::max);
    println!("largest total datapath area:         {max_area:.2} MAC-equivalents");
    write_artifact(&args.output_dir, "fig11.csv", &report::fig11_csv(&rows));
}
