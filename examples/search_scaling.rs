//! Search-space scaling (a console version of the Fig. 8 experiment).
//!
//! Run with `cargo run --release --example search_scaling`.
//!
//! Prints, for basic blocks of growing size (bundled kernels and synthetic random
//! blocks), the number of cuts considered by the exact identification algorithm with
//! `Nout = 2` and unbounded `Nin`, next to the N², N³ and N⁴ guide lines of the paper's
//! figure. The algorithm is fetched from `full_registry()` with a per-invocation
//! exploration budget. The pruned search stays within a polynomial envelope on every
//! practical block even though the worst case is exponential.

use ise::core::engine::IdentifierConfig;
use ise::core::Constraints;
use ise::hw::DefaultCostModel;
use ise::workloads::random::{random_dfg, RandomDfgConfig};
use ise::workloads::suite;

fn main() {
    let identifier = ise::baselines::full_registry()
        .create_configured(
            "single-cut",
            &IdentifierConfig::default().with_exploration_budget(Some(5_000_000)),
        )
        .expect("bundled algorithm");
    let model = DefaultCostModel::new();
    let mut blocks = Vec::new();
    for program in suite::mediabench_like() {
        for block in program.blocks() {
            if block.node_count() >= 4 {
                blocks.push((block.clone(), "kernel"));
            }
        }
    }
    for nodes in [10usize, 20, 30, 40, 60, 80, 100] {
        blocks.push((random_dfg(&RandomDfgConfig::with_nodes(nodes), 7), "random"));
    }
    blocks.sort_by_key(|(b, _)| b.node_count());

    println!(
        "{:<28} {:>6} {:>8} {:>14} {:>12} {:>14} {:>16}",
        "block", "origin", "nodes", "cuts considered", "N^2", "N^3", "N^4"
    );
    for (block, origin) in &blocks {
        let constraints = Constraints::new(usize::MAX >> 1, 2);
        let stats = identifier.identify(block, &constraints, &model).stats;
        let n = block.node_count() as u64;
        println!(
            "{:<28} {:>6} {:>8} {:>14} {:>12} {:>14} {:>16}{}",
            block.name(),
            origin,
            n,
            stats.cuts_considered,
            n.pow(2),
            n.pow(3),
            n.saturating_pow(4),
            if stats.budget_exhausted {
                "  (budget hit)"
            } else {
                ""
            }
        );
    }
}
