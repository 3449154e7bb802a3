//! Every request kind rejects out-of-domain constraints with the same error as `run`.
//!
//! A wire `max_area` of `-1.0`, `"NaN"` or `"Infinity"` decodes (the JSON layer spells
//! non-finite floats as strings), so the check has to live past the decode: a corpus
//! request and a sweep pair must fail before any search, exactly as a single run does.
//! A corpus `templates` area budget is checked the same way.

use ise_api::{
    from_json, json, to_json, Algorithm, BatchService, CorpusRequest, IseError, IseRequest,
    ProgramSource, ServeConfig, ServeService, Session, SweepRequest,
};

const BAD_AREAS: [&str; 3] = ["-1.0", "\"NaN\"", "\"Infinity\""];

fn constraints(max_area: &str) -> String {
    format!(r#"{{"max_inputs": 4, "max_outputs": 2, "max_area": {max_area}, "max_nodes": null}}"#)
}

/// A valid single-cut request on a bundled workload, as wire JSON.
fn base_request() -> String {
    to_json(&IseRequest::new(
        Algorithm::SingleCut,
        ProgramSource::Workload("crc32".to_string()),
    ))
}

/// The error a single run reports for these constraints.
fn run_error(max_area: &str) -> IseError {
    let base = base_request();
    let text = base.replace(r#""max_area":null"#, &format!(r#""max_area":{max_area}"#));
    assert_ne!(text, base, "the area lands in the run request");
    let request: IseRequest = from_json(&text).expect("the run request decodes");
    let error = Session::execute(&request).expect_err("run rejects the area");
    assert!(
        matches!(&error, IseError::InvalidRequest(text) if text.starts_with("max_area must be finite and non-negative")),
        "{error}"
    );
    error
}

#[test]
fn corpus_requests_reject_out_of_domain_areas_like_run() {
    for area in BAD_AREAS {
        let request: CorpusRequest = from_json(&format!(
            r#"{{"programs": [{{"Workload": "crc32"}}], "constraints": {}}}"#,
            constraints(area)
        ))
        .expect("the corpus request decodes");
        let error = BatchService::new()
            .run_corpus(&request)
            .expect_err("corpus rejects the area");
        assert_eq!(error, run_error(area), "max_area {area}");
    }
}

#[test]
fn sweep_pairs_reject_out_of_domain_areas_like_run() {
    for area in BAD_AREAS {
        let request: SweepRequest = from_json(&format!(
            r#"{{"request": {}, "sweep": [{}, {}]}}"#,
            base_request(),
            constraints("null"),
            constraints(area)
        ))
        .expect("the sweep request decodes");
        let error = Session::execute_sweep(&request).expect_err("sweep rejects the pair");
        assert_eq!(error, run_error(area), "max_area {area}");
    }
}

/// A corpus `templates` budget that is not a finite, positive area is an invalid
/// request on the one-shot path and in serve mode alike, with one error text.
#[test]
fn corpus_requests_reject_out_of_domain_template_budgets() {
    let service = ServeService::new(&ServeConfig::default());
    for (budget, shown) in [
        ("-1", "-1"),
        ("0", "0"),
        ("-0.0", "-0"),
        ("\"NaN\"", "NaN"),
        ("\"Infinity\"", "inf"),
        ("\"-Infinity\"", "-inf"),
    ] {
        let text = format!(r#"{{"programs": [{{"Workload": "crc32"}}], "templates": {budget}}}"#);
        let request: CorpusRequest = from_json(&text).expect("the corpus request decodes");
        let expected = IseError::InvalidRequest(format!(
            "templates must be a finite, positive area budget, got {shown}"
        ));
        let error = BatchService::new()
            .run_corpus(&request)
            .expect_err("corpus rejects the budget");
        assert_eq!(error, expected, "templates {budget}");
        let served = service.handle(&format!(r#"{{"id":1,"kind":"corpus","request":{text}}}"#));
        let envelope = json::Value::Object(vec![
            ("id".to_string(), json::Value::Uint(1)),
            ("error".to_string(), json::Value::Str(expected.to_string())),
        ]);
        assert_eq!(served, json::to_string(&envelope), "templates {budget}");
    }
}
