//! Memory of a budgeted search grows linearly with the block.
//!
//! A budgeted exact search over a huge block must cost memory in proportion to the
//! block, so an exploration budget really bounds a request. This test builds the
//! single-cut and the `M = 2` multiple-cut search on a 20,000-node wide block, runs
//! each under a 1,000-cut budget, and reads the process's peak resident set
//! (`VmHWM` in `/proc/self/status`). Per-node state is a few dozen bytes, so the whole
//! process stays far below the 64 MiB ceiling; a per-node mask of the whole block
//! (`O(n²)` bits) would need hundreds of MiB.
//!
//! It lives in its own test binary so no other test shares the process's peak.
#![cfg(target_os = "linux")]

use ise::core::{Constraints, MultiCutSearch, SingleCutSearch};
use ise::hw::DefaultCostModel;
use ise::workloads::random::wide_dfg;

/// Peak resident set of this process, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

#[test]
fn budgeted_searches_on_a_huge_block_stay_below_64_mib() {
    let dfg = wide_dfg(20_000, 0x11EA);
    let model = DefaultCostModel::new();
    let constraints = Constraints::new(4, 2);

    let single = SingleCutSearch::new(&dfg, constraints, &model)
        .with_exploration_budget(1_000)
        .run();
    assert!(single.stats.budget_exhausted);
    assert!(single.stats.cuts_considered <= 1_000);

    let multi = MultiCutSearch::new(&dfg, constraints, &model, 2)
        .with_exploration_budget(1_000)
        .run();
    assert!(multi.stats.budget_exhausted);

    let peak_mib = peak_rss_kib() as f64 / 1024.0;
    assert!(
        peak_mib < 64.0,
        "peak RSS {peak_mib:.1} MiB for budgeted searches on a 20,000-node block"
    );
}
