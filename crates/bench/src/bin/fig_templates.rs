//! Prints the cross-site template Pareto table: speed-up at a ladder of area
//! budgets, cross-site templates versus the per-block baseline, and writes
//! `fig_templates.csv` into the output directory.
//!
//! Usage: `cargo run --release -p ise-bench --bin fig_templates [--quick] [output-dir]`

use ise_bench::template_bench::{self, TemplateBenchConfig};
use ise_bench::{write_artifact, BenchArgs};

fn main() {
    let args = BenchArgs::parse("fig_templates", &["--quick"]);
    let config = if args.quick {
        TemplateBenchConfig::quick()
    } else {
        TemplateBenchConfig::default()
    };
    let report = template_bench::run(&config);

    println!("# Cross-site templates — speed-up at equal area budgets");
    println!();
    print!("{}", template_bench::markdown(&report));

    let mut csv = String::from(
        "fraction,area_budget,templates_chosen,sites_covered,template_savings,\
         template_speedup,baseline_cuts,baseline_savings,baseline_speedup\n",
    );
    for row in &report.rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            row.fraction,
            row.area_budget,
            row.templates_chosen,
            row.sites_covered,
            row.template_savings,
            row.template_speedup,
            row.baseline_cuts,
            row.baseline_savings,
            row.baseline_speedup,
        ));
    }
    write_artifact(&args.output_dir, "fig_templates.csv", &csv);
}
