//! End-to-end smoke tests for the `ise-cli` binary: run the checked-in request
//! file through a real child process and check the output against the in-process
//! API, byte for byte.

use std::path::PathBuf;
use std::process::Command;

use ise_api::{json, IseRequest, Session};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/cli sits two levels below the repository root")
        .to_path_buf()
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ise-cli"))
}

#[test]
fn batch_output_is_byte_identical_to_in_process_sessions() {
    let requests_path = repo_root().join("requests/adpcm.json");
    let output = cli()
        .arg("batch")
        .arg(&requests_path)
        .output()
        .expect("ise-cli runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");

    let text = std::fs::read_to_string(&requests_path).expect("request file");
    let requests: Vec<IseRequest> = ise_api::from_json(&text).expect("valid request file");
    assert!(
        requests.len() >= 2,
        "the smoke file exercises several requests"
    );

    let parsed = json::parse(stdout.trim()).expect("CLI emits valid JSON");
    let outcomes = parsed.as_array().expect("an array of outcomes");
    assert_eq!(outcomes.len(), requests.len());

    for (request, outcome) in requests.iter().zip(outcomes) {
        let response = outcome
            .get("response")
            .unwrap_or_else(|| panic!("{}: expected a response", request.algorithm));
        let in_process = Session::execute(request).expect("in-process run succeeds");
        // The whole response — and in particular its selection — must be
        // byte-identical across the process boundary.
        assert_eq!(
            json::to_string(response),
            ise_api::to_json(&in_process),
            "{}: CLI and in-process responses diverge",
            request.algorithm
        );
        assert_eq!(
            json::to_string(response.get("selection").expect("selection present")),
            ise_api::to_json(&in_process.selection),
        );
    }
}

#[test]
fn sweep_output_is_byte_identical_in_pool_and_direct_mode_and_to_in_process_runs() {
    let request_path = repo_root().join("requests/sweep_gsm.json");
    let pooled = cli()
        .arg("sweep")
        .arg(&request_path)
        .output()
        .expect("ise-cli runs");
    assert!(
        pooled.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&pooled.stderr)
    );
    let direct = cli()
        .arg("sweep")
        .arg(&request_path)
        .arg("--direct")
        .arg("--stats")
        .output()
        .expect("ise-cli runs");
    assert!(direct.status.success());
    // The emitted envelope is byte-identical between the memoised and the reference
    // mode; only the --stats line on stderr differs.
    assert_eq!(pooled.stdout, direct.stdout);
    // --stats emits the SweepStats as one JSON line on stderr.
    let stderr = String::from_utf8(direct.stderr).expect("utf-8 stderr");
    let stats_line = json::parse(stderr.trim()).expect("--stats emits valid JSON");
    assert!(
        stats_line.get("logical_identifier_calls").is_some(),
        "{stderr}"
    );

    // And byte-identical to the in-process execution of the same file.
    let text = std::fs::read_to_string(&request_path).expect("request file");
    let request: ise_api::SweepRequest = ise_api::from_json(&text).expect("valid sweep file");
    let (response, stats) = Session::execute_sweep(&request).expect("in-process sweep");
    let stdout = String::from_utf8(pooled.stdout).expect("utf-8 output");
    let parsed = json::parse(stdout.trim()).expect("CLI emits valid JSON");
    assert_eq!(
        json::to_string(parsed.get("response").expect("a response envelope")),
        ise_api::to_json(&response),
    );
    // The pool must have saved enumeration work on a 7-pair sweep.
    assert!(stats.physical_identifier_calls() < stats.logical_identifier_calls);
}

#[test]
fn mode_flags_are_rejected_on_commands_they_do_not_apply_to() {
    let requests_path = repo_root().join("requests/adpcm.json");
    for (flag, expected) in [
        ("--direct", "sweep command"),
        ("--no-dedup", "corpus command"),
        ("--stats", "sweep and corpus commands"),
    ] {
        let output = cli()
            .arg("batch")
            .arg(&requests_path)
            .arg(flag)
            .output()
            .expect("ise-cli runs");
        assert_eq!(output.status.code(), Some(1), "{flag} must be rejected");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains(expected),
            "{flag}"
        );
    }
}

#[test]
fn corpus_output_is_byte_identical_in_dedup_and_reference_mode_and_to_in_process_runs() {
    let request_path = repo_root().join("requests/corpus_media.json");
    let deduped = cli()
        .arg("corpus")
        .arg(&request_path)
        .arg("--stats")
        .output()
        .expect("ise-cli runs");
    assert!(
        deduped.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&deduped.stderr)
    );
    let reference = cli()
        .arg("corpus")
        .arg(&request_path)
        .arg("--no-dedup")
        .output()
        .expect("ise-cli runs");
    assert!(reference.status.success());
    // The emitted envelope is byte-identical between the deduplicated and the
    // reference mode; only the --stats lines on stderr differ.
    assert_eq!(deduped.stdout, reference.stdout);
    let stderr = String::from_utf8(deduped.stderr).expect("utf-8 stderr");
    let stats_line = stderr.lines().next().expect("--stats emits a stats line");
    let stats = json::parse(stats_line).expect("--stats emits valid JSON");
    assert!(stats.get("pool_answers").is_some(), "{stderr}");

    // And byte-identical to the in-process execution of the same file.
    let text = std::fs::read_to_string(&request_path).expect("request file");
    let request: ise_api::CorpusRequest = ise_api::from_json(&text).expect("valid corpus file");
    let (response, stats, _) = ise_api::BatchService::new()
        .run_corpus(&request)
        .expect("in-process corpus");
    let stdout = String::from_utf8(deduped.stdout).expect("utf-8 output");
    let parsed = json::parse(stdout.trim()).expect("CLI emits valid JSON");
    assert_eq!(
        json::to_string(parsed.get("response").expect("a response envelope")),
        ise_api::to_json(&response),
    );
    // The checked-in corpus repeats workloads, so the pool must have shared fills.
    assert!(stats.pool_answers > 0);
}

#[test]
fn corpus_directory_mode_reads_program_files_in_name_order() {
    let dir = std::env::temp_dir().join("ise-cli-corpus-dir");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Two copies of the same program under different names: directory mode must
    // load both (sorted) and the deduplicator must treat them as one shape.
    let program = ise_workloads::suite::by_name("gsm").expect("bundled workload");
    let text = ise_api::to_json(&program);
    std::fs::write(dir.join("a_first.json"), &text).expect("write program");
    std::fs::write(dir.join("b_second.json"), &text).expect("write program");
    std::fs::write(dir.join("ignored.txt"), "not json").expect("write decoy");
    let output = cli()
        .arg("corpus")
        .arg(&dir)
        .output()
        .expect("ise-cli runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let parsed = json::parse(stdout.trim()).expect("CLI emits valid JSON");
    let programs = parsed
        .get("response")
        .and_then(|r| r.get("programs"))
        .and_then(|p| p.as_array())
        .expect("a programs array");
    assert_eq!(programs.len(), 2);
    // Identical programs get identical outcomes (only the name could differ, and
    // here even the names match).
    assert_eq!(json::to_string(&programs[0]), json::to_string(&programs[1]));
}

#[test]
fn algorithms_subcommand_lists_all_six() {
    let output = cli().arg("algorithms").output().expect("ise-cli runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    for name in ise_api::algorithm_names() {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn bad_requests_produce_error_envelopes_and_exit_code_2() {
    let dir = std::env::temp_dir().join("ise-cli-smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.json");
    std::fs::write(
        &path,
        r#"[{"algorithm": "no-such", "program": {"Workload": "gsm"},
            "constraints": {"max_inputs": 4, "max_outputs": 2, "max_area": null, "max_nodes": null},
            "config": {"exploration_budget": null, "multicut_slots": 2, "exhaustive_node_limit": 20},
            "options": {"max_instructions": 4, "parallel": true},
            "passes": []}]"#,
    )
    .expect("write request");
    let output = cli()
        .arg("batch")
        .arg(&path)
        .output()
        .expect("ise-cli runs");
    assert_eq!(output.status.code(), Some(2));
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(stdout.contains("\"error\""), "{stdout}");
    assert!(stdout.contains("no-such"), "{stdout}");

    let missing = cli()
        .arg("batch")
        .arg(dir.join("does-not-exist.json"))
        .output()
        .expect("ise-cli runs");
    assert_eq!(missing.status.code(), Some(1));
}
