//! Golden-file regression corpus: byte-for-byte comparison of checked-in experiment
//! artefacts, so any drift in the search, the selection, the pool or the serialisation
//! layer is caught at once.
//!
//! * `results/golden/fig11_quick.csv` — the CSV the `fig11 --quick` binary writes
//!   (pool-backed, the default mode);
//! * `results/golden/sweep_cli.json` — the envelope `ise-cli sweep requests/sweep_gsm.json`
//!   prints (proven byte-identical to the in-process API by `crates/cli/tests/cli_smoke.rs`);
//! * `results/golden/corpus_cli.json` — the envelope `ise-cli corpus requests/corpus_media.json`
//!   prints (same cross-process proof, and byte-identical with `--no-dedup`);
//! * `results/golden/corpus_templates_cli.json` — the envelope
//!   `ise-cli corpus requests/corpus_media.json --templates 50` prints, which pins the
//!   cross-site template report (extraction and the budgeted knapsack) byte for byte.
//! * `results/golden/adpcm_batch_cli.json` — the envelope array
//!   `ise-cli batch requests/adpcm.json` prints (single-cut, multicut with passes and an
//!   exploration budget, MaxMISO on one program).
//! * `results/golden/algorithms_cli.json` — the name list `ise-cli algorithms` prints.
//! * `results/golden/algorithm_names_batch_cli.json` — the envelope array
//!   `ise-cli batch requests/algorithm_names.json` prints: three names spelled with other
//!   case and separators, an unknown name, and an unknown name with an out-of-domain
//!   config (the config error wins).
//! * `results/golden/serve_example_responses.jsonl` — the responses `ise-cli serve` gives
//!   `requests/serve_example.jsonl`, without the `stats` line and sorted (CI `cmp`s the
//!   same filtered output of a real server).
//!
//! Regeneration: when a change *intentionally* alters the artefacts, run
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_corpus
//! ```
//!
//! and commit the rewritten files together with the change that explains them.

use std::path::PathBuf;

use ise_api::{json, Session, SweepRequest};
use ise_bench::fig11::{self, Fig11Config};
use ise_bench::report;
use ise_workloads::suite;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Compares `actual` against the checked-in golden file, or rewrites the file when
/// `UPDATE_GOLDEN=1` is set.
fn assert_golden(relative: &str, actual: &str) {
    let path = repo_root().join(relative);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden files live in a directory"))
            .expect("create golden directory");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {relative}: {e}\n\
             (regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_corpus`)"
        )
    });
    assert_eq!(
        expected, actual,
        "{relative} drifted from the computed artefact \
         (regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_corpus` if intended)"
    );
}

/// The `fig11 --quick` CSV, computed exactly as the binary computes it (pool-backed
/// default mode, adpcmdecode excluded from the quick run).
#[test]
fn fig11_quick_csv_matches_golden() {
    let config = Fig11Config::quick();
    let benchmarks: Vec<_> = suite::fig11_benchmarks()
        .into_iter()
        .filter(|p| p.name() != "adpcmdecode")
        .collect();
    let rows = fig11::run(&benchmarks, &config);
    assert_golden("results/golden/fig11_quick.csv", &report::fig11_csv(&rows));
}

/// The `ise-cli corpus requests/corpus_media.json` envelope, computed in-process —
/// with structural dedup on (the default CLI mode). The differential suite proves the
/// dedup-off bytes are identical, so this single golden pins both modes.
#[test]
fn corpus_cli_json_matches_golden() {
    let text = std::fs::read_to_string(repo_root().join("requests/corpus_media.json"))
        .expect("checked-in corpus request");
    let request: ise_api::CorpusRequest = ise_api::from_json(&text).expect("valid corpus request");
    let (response, _, _) = ise_api::BatchService::new()
        .run_corpus(&request)
        .expect("corpus executes");
    let envelope = json::Value::Object(vec![("response".to_string(), json::to_value(&response))]);
    let payload = format!("{}\n", json::to_string(&envelope));
    assert_golden("results/golden/corpus_cli.json", &payload);
}

/// The `ise-cli corpus requests/corpus_media.json --templates 50` envelope, computed
/// in-process: the per-program selections plus the cross-site template report.
#[test]
fn corpus_templates_cli_json_matches_golden() {
    let text = std::fs::read_to_string(repo_root().join("requests/corpus_media.json"))
        .expect("checked-in corpus request");
    let mut request: ise_api::CorpusRequest =
        ise_api::from_json(&text).expect("valid corpus request");
    request.templates = Some(50.0);
    let (response, _, _) = ise_api::BatchService::new()
        .run_corpus(&request)
        .expect("corpus executes");
    assert!(
        response.templates.is_some(),
        "a template budget yields a report"
    );
    let envelope = json::Value::Object(vec![("response".to_string(), json::to_value(&response))]);
    let payload = format!("{}\n", json::to_string(&envelope));
    assert_golden("results/golden/corpus_templates_cli.json", &payload);
}

/// The `ise-cli sweep requests/sweep_gsm.json` envelope, computed in-process.
#[test]
fn sweep_cli_json_matches_golden() {
    let text = std::fs::read_to_string(repo_root().join("requests/sweep_gsm.json"))
        .expect("checked-in sweep request");
    let request: SweepRequest = ise_api::from_json(&text).expect("valid sweep request");
    let (response, _) = Session::execute_sweep(&request).expect("sweep executes");
    let envelope = json::Value::Object(vec![("response".to_string(), json::to_value(&response))]);
    let payload = format!("{}\n", json::to_string(&envelope));
    assert_golden("results/golden/sweep_cli.json", &payload);
}

/// The `ise-cli batch requests/adpcm.json` envelope array, computed in-process.
#[test]
fn adpcm_batch_cli_json_matches_golden() {
    let text = std::fs::read_to_string(repo_root().join("requests/adpcm.json"))
        .expect("checked-in batch request");
    let requests: Vec<ise_api::IseRequest> =
        ise_api::from_json(&text).expect("valid batch requests");
    let items = ise_api::BatchService::new()
        .run(&requests)
        .into_iter()
        .map(|outcome| {
            let response = outcome.expect("every example request executes");
            json::Value::Object(vec![("response".to_string(), json::to_value(&response))])
        })
        .collect();
    let payload = format!("{}\n", json::to_string(&json::Value::Array(items)));
    assert_golden("results/golden/adpcm_batch_cli.json", &payload);
}

/// The `ise-cli algorithms` name list, computed in-process.
#[test]
fn algorithms_cli_json_matches_golden() {
    let names = ise_api::algorithm_names()
        .into_iter()
        .map(|name| json::Value::Str(name.to_string()))
        .collect();
    let payload = format!("{}\n", json::to_string(&json::Value::Array(names)));
    assert_golden("results/golden/algorithms_cli.json", &payload);
}

/// The `ise-cli batch requests/algorithm_names.json` envelope array, computed
/// in-process: the lookup rule, the unknown-name text and the check order.
#[test]
fn algorithm_names_batch_cli_json_matches_golden() {
    let text = std::fs::read_to_string(repo_root().join("requests/algorithm_names.json"))
        .expect("checked-in batch request");
    let requests: Vec<ise_api::IseRequest> =
        ise_api::from_json(&text).expect("valid batch requests");
    let items = ise_api::BatchService::new()
        .run(&requests)
        .into_iter()
        .map(|outcome| match outcome {
            Ok(response) => {
                json::Value::Object(vec![("response".to_string(), json::to_value(&response))])
            }
            Err(error) => json::Value::Object(vec![(
                "error".to_string(),
                json::Value::Str(error.to_string()),
            )]),
        })
        .collect();
    let payload = format!("{}\n", json::to_string(&json::Value::Array(items)));
    assert_golden("results/golden/algorithm_names_batch_cli.json", &payload);
}

/// The responses one server gives `requests/serve_example.jsonl`, computed in-process
/// through one `ServeService` in file order: the `stats` line is dropped, since its
/// counters are not a one-shot answer, and the rest are sorted, since a client may
/// receive pipelined responses in any order. The repeated `run` and `sweep` lines
/// are answered from outcome slots.
#[test]
fn serve_example_responses_match_golden() {
    let text = std::fs::read_to_string(repo_root().join("requests/serve_example.jsonl"))
        .expect("checked-in serve example");
    let service = ise_api::ServeService::new(&ise_api::ServeConfig::default());
    let mut responses: Vec<String> = text
        .lines()
        .filter(|line| {
            let envelope = json::parse(line).expect("example lines are JSON");
            envelope.get("kind").and_then(json::Value::as_str) != Some("stats")
        })
        .map(|line| format!("{}\n", service.handle(line)))
        .collect();
    responses.sort();
    assert_golden(
        "results/golden/serve_example_responses.jsonl",
        &responses.concat(),
    );
}
