//! Request files written for earlier wire formats keep working: a key the current
//! format no longer has is skipped like any unknown key, and the request answers
//! byte-identically to the same request without it.
//!
//! The retired keys checked here are `options.intra_block_levels`, a per-request split
//! of each block's decision tree, with an in-range and a formerly out-of-range value,
//! and `options.block_dedup`, the switch of a memo over byte-identical blocks, with
//! both of its values.

use std::path::PathBuf;

use ise::api::CorpusRequest;
use ise::{BatchService, IseRequest, Session};

fn request_text(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("requests")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// `text` with `"<key>": <value>` as the first key of every `options` object.
fn with_retired_key(text: &str, key: &str, value: &str) -> String {
    let carried = text.replace(
        "\"options\": {",
        &format!("\"options\": {{\"{key}\": {value}, "),
    );
    assert_ne!(carried, text, "the request has an `options` object");
    carried
}

/// The answers of the `run` requests in `text`, one JSON text each.
fn run_answers(text: &str) -> (Vec<IseRequest>, Vec<String>) {
    let requests: Vec<IseRequest> = ise::api::from_json(text).expect("request decodes");
    let answers = requests
        .iter()
        .map(|request| ise::api::to_json(&Session::execute(request).expect("request executes")))
        .collect();
    (requests, answers)
}

/// The answer of the `corpus` request `text`, as JSON text.
fn corpus_answer(text: &str) -> String {
    let request: CorpusRequest = ise::api::from_json(text).expect("request decodes");
    let (response, _, _) = BatchService::new()
        .run_corpus(&request)
        .expect("corpus executes");
    ise::api::to_json(&response)
}

#[test]
fn run_requests_carrying_intra_block_levels_answer_byte_identically() {
    let text = request_text("adpcm.json");
    let (current, expected) = run_answers(&text);
    for levels in ["3", "-1"] {
        let (old, answers) = run_answers(&with_retired_key(&text, "intra_block_levels", levels));
        assert_eq!(old, current, "levels {levels}");
        assert_eq!(answers, expected, "levels {levels}");
    }
}

#[test]
fn corpus_requests_carrying_intra_block_levels_answer_byte_identically() {
    let text = request_text("corpus_media.json");
    let expected = corpus_answer(&text);
    for levels in ["3", "-1"] {
        let old = with_retired_key(&text, "intra_block_levels", levels);
        assert_eq!(corpus_answer(&old), expected, "levels {levels}");
    }
}

#[test]
fn run_requests_carrying_block_dedup_answer_byte_identically() {
    let text = request_text("adpcm.json");
    let (current, expected) = run_answers(&text);
    for dedup in ["true", "false"] {
        let (old, answers) = run_answers(&with_retired_key(&text, "block_dedup", dedup));
        assert_eq!(old, current, "block_dedup {dedup}");
        assert_eq!(answers, expected, "block_dedup {dedup}");
    }
}

#[test]
fn corpus_requests_carrying_block_dedup_answer_byte_identically() {
    let carried = request_text("corpus_media.json");
    let text = carried.replace(", \"block_dedup\": true", "");
    assert_ne!(text, carried, "the checked-in request carries the key");
    let expected = corpus_answer(&text);
    assert_eq!(corpus_answer(&carried), expected);
    for dedup in ["true", "false"] {
        let old = with_retired_key(&text, "block_dedup", dedup);
        assert_eq!(corpus_answer(&old), expected, "block_dedup {dedup}");
    }
}
