//! Request files written for earlier wire formats keep working: a key the current
//! format no longer has is skipped like any unknown key, and the request answers
//! byte-identically to the same request without it.
//!
//! The retired key checked here is `options.intra_block_levels`, a per-request split
//! of each block's decision tree, with an in-range and a formerly out-of-range value.

use std::path::PathBuf;

use ise::api::CorpusRequest;
use ise::{BatchService, IseRequest, Session};

fn request_text(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("requests")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// `text` with `"intra_block_levels": <levels>` as the first key of every
/// `options` object.
fn with_retired_key(text: &str, levels: i64) -> String {
    let carried = text.replace(
        "\"options\": {",
        &format!("\"options\": {{\"intra_block_levels\": {levels}, "),
    );
    assert_ne!(carried, text, "the request has an `options` object");
    carried
}

#[test]
fn run_requests_carrying_intra_block_levels_answer_byte_identically() {
    let text = request_text("adpcm.json");
    let current: Vec<IseRequest> = ise::api::from_json(&text).expect("current wire format");
    let expected: Vec<String> = current
        .iter()
        .map(|request| ise::api::to_json(&Session::execute(request).expect("request executes")))
        .collect();
    for levels in [3, -1] {
        let old: Vec<IseRequest> = ise::api::from_json(&with_retired_key(&text, levels))
            .unwrap_or_else(|e| panic!("levels {levels}: {e}"));
        assert_eq!(old, current, "levels {levels}");
        let answers: Vec<String> = old
            .iter()
            .map(|request| ise::api::to_json(&Session::execute(request).expect("request executes")))
            .collect();
        assert_eq!(answers, expected, "levels {levels}");
    }
}

#[test]
fn corpus_requests_carrying_intra_block_levels_answer_byte_identically() {
    let text = request_text("corpus_media.json");
    let current: CorpusRequest = ise::api::from_json(&text).expect("current wire format");
    let (response, _, _) = BatchService::new()
        .run_corpus(&current)
        .expect("corpus executes");
    let expected = ise::api::to_json(&response);
    for levels in [3, -1] {
        let old: CorpusRequest = ise::api::from_json(&with_retired_key(&text, levels))
            .unwrap_or_else(|e| panic!("levels {levels}: {e}"));
        let (response, _, _) = BatchService::new()
            .run_corpus(&old)
            .expect("corpus executes");
        assert_eq!(ise::api::to_json(&response), expected, "levels {levels}");
    }
}
