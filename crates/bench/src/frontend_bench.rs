//! The LLVM front-end gate and benchmark.
//!
//! The gate parses every bundled `.ll` fixture with [`ise_frontend`], lowers it,
//! runs the exact single-cut identification over the resulting corpus, and
//! differentially checks that the hand-written `crc32-flat.ll` — a textual
//! transliteration of the hand-built `crc32_kernel` of `ise-workloads` — selects
//! exactly the same instructions as the in-memory original. The benchmark times
//! parsing throughput (lines/sec over the fixture set) and the end-to-end
//! text-to-selection wall-clock over [`REPEATS`] passes, reports the median pass,
//! and emits the machine-readable `BENCH_frontend.json`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ise_core::{run_corpus, CorpusOptions};
use ise_hw::DefaultCostModel;
use ise_ir::Program;

/// Timed passes per run; each wall-clock is the median over the passes.
pub const REPEATS: usize = 5;

/// The `crc32_kernel` execution frequency (`crates/workloads`), applied to the
/// lowered `crc32-flat.ll` so the differential comparison is like for like.
pub const CRC_EXEC_COUNT: u64 = 80_000;

/// The bundled fixture directory, resolved relative to this crate's manifest.
#[must_use]
pub fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../frontend/fixtures")
}

/// One parsed fixture: its file name, raw text and lowered program.
pub struct Fixture {
    /// File name (`crc32-O0.ll`, …).
    pub name: String,
    /// The raw `.ll` text.
    pub text: String,
    /// The lowered, validated program.
    pub program: Program,
}

/// Parses and lowers every bundled fixture, in name order.
///
/// # Errors
///
/// Returns a rendered `file:line:column` message for the first fixture that
/// fails to read, parse, lower or validate.
pub fn load_fixtures() -> Result<Vec<Fixture>, String> {
    let dir = fixtures_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".ll"))
        .collect();
    names.sort();
    let mut fixtures = Vec::with_capacity(names.len());
    for name in names {
        let text = std::fs::read_to_string(dir.join(&name))
            .map_err(|e| format!("cannot read {name}: {e}"))?;
        let program = ise_frontend::parse_and_lower(name.trim_end_matches(".ll"), &text)
            .map_err(|e| format!("{name}:{}:{}: {}", e.line, e.column, e.message))?;
        program
            .validate()
            .map_err(|e| format!("{name}: lowered program is invalid: {e}"))?;
        fixtures.push(Fixture {
            name,
            text,
            program,
        });
    }
    Ok(fixtures)
}

/// Runs the exact single-cut identification over a program list and returns the
/// serialised *selections proper* — the chosen cuts and their weighted savings,
/// without the `identifier_calls`/`cuts_considered` effort counters.
///
/// Effort is excluded deliberately: the search visits nodes in the canonical
/// certificate order of `ise_ir::canon`, whose tie-break mixes immediate
/// *values*. The fixture carries LLVM's signed rendering of the CRC polynomial
/// (`-306674912`) while the hand-built kernel holds the unsigned `3988292384`;
/// the two are the same 32-bit constant but different `i64`s, so the four
/// identical unrolled steps tie-break differently and the enumeration explores
/// the same cut space in a different order. The chosen instructions, their
/// merits and the savings are provably identical — and that is what the gate
/// compares.
#[must_use]
pub fn selections_json(programs: &[Program]) -> String {
    let model = DefaultCostModel::new();
    let options = CorpusOptions::new(ise_core::Constraints::default());
    let outcome = run_corpus(programs, &model, &options);
    let comparable: Vec<serde::Value> = outcome
        .selections
        .iter()
        .map(|s| {
            serde::Value::Object(vec![
                ("chosen".to_string(), serde::json::to_value(&s.chosen)),
                (
                    "total_weighted_saving".to_string(),
                    serde::json::to_value(&s.total_weighted_saving),
                ),
            ])
        })
        .collect();
    serde::json::to_string(&comparable)
}

/// The differential check: `crc32-flat.ll`, lowered and pinned to the original's
/// execution frequency, must select exactly what the hand-built `crc32_kernel`
/// selects.
///
/// # Errors
///
/// Returns a message describing the divergence (or the missing fixture).
pub fn differential_check(fixtures: &[Fixture]) -> Result<(), String> {
    let flat = fixtures
        .iter()
        .find(|f| f.name == "crc32-flat.ll")
        .ok_or("fixture crc32-flat.ll is missing")?;
    let mut lowered = flat.program.clone();
    assert_eq!(lowered.blocks().len(), 1, "crc32-flat is a single block");
    lowered.blocks_mut()[0].set_exec_count(CRC_EXEC_COUNT);
    let reference = ise_workloads::crypto::crc_program();
    let lowered_json = selections_json(std::slice::from_ref(&lowered));
    let reference_json = selections_json(std::slice::from_ref(&reference));
    if lowered_json != reference_json {
        return Err(format!(
            "crc32-flat.ll selection diverged from the hand-built crc32_kernel\n\
             lowered:   {lowered_json}\n\
             reference: {reference_json}"
        ));
    }
    Ok(())
}

/// The benchmark result, as serialised into `BENCH_frontend.json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FrontendBenchReport {
    /// Logical CPUs of the machine the benchmark ran on.
    pub nproc: u64,
    /// The git revision the benchmark ran from.
    pub git_revision: String,
    /// Timed passes; every wall-clock below is the median over them.
    pub repeats: u64,
    /// Number of bundled fixtures parsed.
    pub fixtures: u64,
    /// Total source lines across the fixture set (one parse pass).
    pub total_lines: u64,
    /// Parse+lower repetitions over the fixture set in each timed pass.
    pub parse_iterations: u64,
    /// Parsing+lowering throughput in source lines per second.
    pub parse_lines_per_sec: f64,
    /// Wall-clock of one parse+lower pass over the whole fixture set, in ms.
    pub parse_wall_ms: f64,
    /// Wall-clock of text → parse → lower → identify → select, in ms.
    pub end_to_end_wall_ms: f64,
    /// Whether the crc32-flat differential check passed.
    pub differential_ok: bool,
}

/// Times the front-end over [`REPEATS`] passes of `iterations` parse+lower rounds
/// each: parsing throughput and end-to-end wall-clock.
///
/// # Errors
///
/// Propagates fixture loading failures.
pub fn run(iterations: u64) -> Result<FrontendBenchReport, String> {
    let fixtures = load_fixtures()?;
    let total_lines: u64 = fixtures.iter().map(|f| f.text.lines().count() as u64).sum();
    let iterations = iterations.max(1);

    let mut parse_ms = Vec::with_capacity(REPEATS);
    let mut end_to_end_ms = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let start = Instant::now();
        for _ in 0..iterations {
            for fixture in &fixtures {
                let name = fixture.name.trim_end_matches(".ll");
                ise_frontend::parse_and_lower(name, &fixture.text)
                    .map_err(|e| format!("{}: {e}", fixture.name))?;
            }
        }
        let pass_ms = start.elapsed().as_secs_f64() * 1_000.0 / iterations as f64;
        parse_ms.push(pass_ms);

        let start = Instant::now();
        let programs: Vec<Program> = fixtures.iter().map(|f| f.program.clone()).collect();
        let _ = selections_json(&programs);
        end_to_end_ms.push(start.elapsed().as_secs_f64() * 1_000.0 + pass_ms);
    }
    let parse_wall_ms = crate::median(&parse_ms);
    let parse_lines_per_sec = if parse_wall_ms > 0.0 {
        total_lines as f64 / (parse_wall_ms / 1_000.0)
    } else {
        0.0
    };

    let differential_ok = differential_check(&fixtures).is_ok();
    Ok(FrontendBenchReport {
        nproc: crate::nproc(),
        git_revision: crate::git_revision(),
        repeats: REPEATS as u64,
        fixtures: fixtures.len() as u64,
        total_lines,
        parse_iterations: iterations,
        parse_lines_per_sec,
        parse_wall_ms,
        end_to_end_wall_ms: crate::median(&end_to_end_ms),
        differential_ok,
    })
}

/// Serialises a report as JSON.
#[must_use]
pub fn to_json(report: &FrontendBenchReport) -> String {
    serde::json::to_string_pretty(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_load_and_pass_the_differential_check() {
        let fixtures = load_fixtures().expect("bundled fixtures load");
        assert!(fixtures.len() >= 6);
        differential_check(&fixtures).expect("crc32-flat matches the hand-built kernel");
    }

    #[test]
    fn report_records_the_machine_and_the_repeats() {
        let report = run(1).expect("bundled fixtures load");
        assert!(report.differential_ok, "{report:?}");
        assert_eq!(report.repeats, REPEATS as u64, "{report:?}");
        let json = to_json(&report);
        for field in [
            "\"nproc\"",
            "\"git_revision\"",
            "\"repeats\"",
            "\"parse_iterations\"",
            "\"parse_lines_per_sec\"",
            "\"parse_wall_ms\"",
            "\"end_to_end_wall_ms\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }
}
