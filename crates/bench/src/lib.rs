//! # ise-bench — experiment harness for the paper's figures
//!
//! This crate regenerates the evaluation artefacts of the paper:
//!
//! * [`fig8`] — the search-space scaling experiment: number of cuts considered by the
//!   single-cut identification algorithm versus basic-block size, with `Nout = 2` and
//!   unbounded `Nin`, over the bundled kernels and a random-graph size sweep (Fig. 8);
//! * [`fig11`] — the algorithm comparison: estimated application speed-up of *Optimal*,
//!   *Iterative*, *Clubbing* and *MaxMISO* for a sweep of `(Nin, Nout)` constraints and up
//!   to 16 special instructions on the MediaBench-like trio (Fig. 11), together with the
//!   per-benchmark area report quoted in Section 8;
//! * [`scaling`] — the intra-block scaling experiment: sequential versus
//!   subtree-parallel exact search on wide single blocks, emitting the machine-readable
//!   `BENCH_search.json` (graph size, cuts considered, cuts/sec, wall-clock, thread
//!   count) and gating CI on sequential/parallel identity;
//! * [`sweep_bench`] — the sweep determinism gate: the Fig. 11 comparison run
//!   pool-backed and direct, asserted byte-identical, with the logical-vs-physical
//!   identifier-call accounting emitted as `BENCH_sweep.json`;
//! * [`corpus_bench`] — the corpus dedup gate: a duplicate-heavy corpus analysed with
//!   structural cross-program sharing on and off, asserted byte-identical with a
//!   >= 2x enumeration reduction, emitted as `BENCH_corpus.json`;
//! * [`frontend_bench`] — the LLVM front-end gate and benchmark: every bundled `.ll`
//!   fixture parsed, lowered and identified, the hand-written `crc32-flat.ll`
//!   differentially checked against the hand-built `crc32_kernel`, and the parsing
//!   throughput emitted as `BENCH_frontend.json`;
//! * [`serve_bench`] — the serve-mode gate: warm cross-request cache throughput
//!   versus cold dispatch on a duplicate-heavy corpus (>= 2x required), byte
//!   identity against the one-shot path, the striped-lock concurrency row and a
//!   snapshot persistence round trip, emitted as `BENCH_serve.json`;
//! * [`template_bench`] — the template gate: cross-site template selection versus
//!   the per-block baseline at a ladder of equal area budgets, with the selector
//!   cross-checked against the brute-force oracle, emitted as
//!   `BENCH_templates.json`;
//! * [`report`] — CSV and Markdown rendering of the experiment rows.
//!
//! The binaries `fig8`, `fig11` and `sweep` print the tables and write CSV files (all
//! binaries share [`BenchArgs`] and [`write_artifact`]); the
//! Criterion benchmarks under `benches/` measure the *run time* of the identification and
//! selection algorithms themselves (the paper's "seconds in all but extreme cases"
//! claim).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus_bench;
pub mod fig11;
pub mod fig8;
pub mod frontend_bench;
pub mod report;
pub mod scaling;
pub mod serve_bench;
pub mod sweep_bench;
pub mod template_bench;

use std::fs;
use std::path::{Path, PathBuf};

/// The command line the experiment binaries share: `[--quick] [--direct] [output-dir]`,
/// in any order, with the output directory defaulting to `results/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--quick`: run the reduced smoke configuration.
    pub quick: bool,
    /// `--direct`: force the reference per-pair searches instead of the cut pool.
    pub direct: bool,
    /// Where the binary writes its artifacts.
    pub output_dir: PathBuf,
}

impl BenchArgs {
    /// Parses the process arguments for the binary `name`, which accepts the listed
    /// `flags` (a subset of `--quick` and `--direct`). Any other argument starting with
    /// `-` prints the binary's usage line and exits with code 2.
    #[must_use]
    pub fn parse(name: &str, flags: &[&str]) -> BenchArgs {
        BenchArgs::from_args(std::env::args().skip(1), flags).unwrap_or_else(|flag| {
            let usage: String = flags.iter().map(|flag| format!("[{flag}] ")).collect();
            eprintln!("error: unknown flag {flag:?}\nusage: {name} {usage}[output-dir]");
            std::process::exit(2);
        })
    }

    /// [`parse`](Self::parse) over explicit arguments: returns the first unknown flag
    /// as the error.
    fn from_args(
        args: impl IntoIterator<Item = String>,
        flags: &[&str],
    ) -> Result<BenchArgs, String> {
        let mut parsed = BenchArgs {
            quick: false,
            direct: false,
            output_dir: PathBuf::from("results"),
        };
        for arg in args {
            if !arg.starts_with('-') {
                parsed.output_dir = PathBuf::from(arg);
                continue;
            }
            match arg.as_str() {
                "--quick" if flags.contains(&"--quick") => parsed.quick = true,
                "--direct" if flags.contains(&"--direct") => parsed.direct = true,
                _ => return Err(arg),
            }
        }
        Ok(parsed)
    }
}

/// Writes the artifact `name` into `dir` (created first) and prints `wrote <path>`.
/// An unwritable directory is a warning, never a failure: the binaries' exit codes
/// report their gates, not the file system.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) {
    if let Err(error) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {error}", dir.display());
        return;
    }
    let path = dir.join(name);
    match fs::write(&path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("warning: cannot write {}: {error}", path.display()),
    }
}

/// Logical CPUs available to this process (the thread count the parallel paths use).
#[must_use]
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The git revision of the working tree the gate ran from, or `"unknown"` outside a
/// git checkout; `-dirty` marks a tree whose tracked files outside `results/` differ
/// from it.
#[must_use]
pub fn git_revision() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|output| output.status.success())
            .and_then(|output| String::from_utf8(output.stdout).ok())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) if !head.trim().is_empty() => revision_stamp(
            head.trim(),
            &git(&["diff", "--name-only", "HEAD"]).unwrap_or_default(),
        ),
        _ => "unknown".to_string(),
    }
}

/// `head`, with `-dirty` appended when one of the `changed` tracked paths (one per
/// line, as `git diff --name-only` prints them) lies outside `results/`. The gates
/// write their reports there, so a gate run after another is not stamped dirty by the
/// first one's output.
fn revision_stamp(head: &str, changed: &str) -> String {
    if changed.lines().any(|path| !path.starts_with("results/")) {
        format!("{head}-dirty")
    } else {
        head.to_string()
    }
}

/// Median of a non-empty list (mean of the middle two for an even length): the
/// value the gates report over their timed repeats.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Default exploration budget (cuts considered per identifier invocation) applied to the
/// exact algorithms when they are driven over the largest blocks; the paper similarly
/// notes that the Optimal algorithm could not be run on the largest adpcmdecode blocks.
pub const DEFAULT_EXPLORATION_BUDGET: u64 = 2_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str], flags: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::from_args(list.iter().map(|arg| (*arg).to_string()), flags)
    }

    #[test]
    fn only_changes_outside_results_mark_the_revision_dirty() {
        assert_eq!(revision_stamp("abc", ""), "abc");
        let reports = "results/BENCH_serve.json\nresults/BENCH_sweep.json\n";
        assert_eq!(revision_stamp("abc", reports), "abc");
        assert_eq!(revision_stamp("abc", "README.md\n"), "abc-dirty");
        let mixed = "crates/core/src/lib.rs\nresults/BENCH_serve.json\n";
        assert_eq!(revision_stamp("abc", mixed), "abc-dirty");
        // A file that only starts like the directory is outside it.
        assert_eq!(revision_stamp("abc", "results.md\n"), "abc-dirty");
    }

    #[test]
    fn flags_and_the_output_dir_parse_in_either_order() {
        let both = ["--quick", "--direct"];
        let expected = BenchArgs {
            quick: true,
            direct: true,
            output_dir: PathBuf::from("/tmp/out"),
        };
        assert_eq!(
            args(&["--quick", "--direct", "/tmp/out"], &both),
            Ok(expected.clone())
        );
        assert_eq!(
            args(&["/tmp/out", "--direct", "--quick"], &both),
            Ok(expected)
        );
        let defaults = args(&[], &both).unwrap();
        assert!(!defaults.quick && !defaults.direct);
        assert_eq!(defaults.output_dir, PathBuf::from("results"));
    }

    #[test]
    fn a_flag_the_binary_does_not_list_is_unknown() {
        assert_eq!(
            args(&["--direct"], &["--quick"]),
            Err("--direct".to_string())
        );
        assert_eq!(
            args(&["--quick"], &["--direct"]),
            Err("--quick".to_string())
        );
        assert_eq!(args(&["-x"], &["--quick"]), Err("-x".to_string()));
    }
}
