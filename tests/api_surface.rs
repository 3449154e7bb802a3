//! Acceptance tests for the Session/BatchService front-end: JSON round-trips are
//! byte-identical, batches are deterministic and ordered, and every malformed
//! input degrades into an `IseError` instead of a panic.

use ise::core::{Constraints, DriverOptions, IdentifierConfig};
use ise::hw::speedup::SpeedupReport;
use ise::ir::Program;
use ise::workloads::{adpcm, gsm, suite};
use ise::{Algorithm, BatchService, IseError, IseRequest, ProgramSource, Session, SessionBuilder};

/// A program serialised to JSON and read back must drive the identification stack
/// to a byte-identical selection (and itself re-serialise byte-identically).
#[test]
fn program_json_round_trip_yields_byte_identical_selection() {
    let program = adpcm::decode_program();
    let wire = ise::api::to_json(&program);
    let reloaded = ise::api::program_from_json(&wire).expect("bundled program is valid");
    assert_eq!(ise::api::to_json(&reloaded), wire, "program JSON is stable");

    let session = SessionBuilder::new()
        .algorithm(Algorithm::SingleCut)
        .constraints(Constraints::new(4, 2))
        .exploration_budget(200_000)
        .max_instructions(4)
        .build()
        .expect("valid configuration");
    let original = session.run(&program).expect("valid program");
    let roundtripped = session.run(&reloaded).expect("reloaded program is valid");
    assert_eq!(
        ise::api::to_json(&original.selection),
        ise::api::to_json(&roundtripped.selection),
        "selections must be byte-identical across the serialisation boundary"
    );
    assert_eq!(original, roundtripped);
}

/// Requests, responses and speed-up reports all round-trip through JSON.
#[test]
fn request_and_report_round_trip_through_json() {
    let request = IseRequest::new(Algorithm::MultiCut, ProgramSource::Workload("gsm".into()))
        .with_constraints(Constraints::new(3, 1).with_max_nodes(6))
        .with_config(IdentifierConfig::default().with_exploration_budget(Some(50_000)))
        .with_options(DriverOptions::new(2).sequential());
    let wire = ise::api::to_json(&request);
    let back: IseRequest = ise::api::from_json(&wire).expect("request round trip");
    assert_eq!(back, request);

    let response = Session::execute(&request).expect("bundled workload");
    let report_wire = ise::api::to_json(&response.report);
    let report: SpeedupReport = ise::api::from_json(&report_wire).expect("report round trip");
    assert_eq!(report, response.report);
    assert_eq!(ise::api::to_json(&report), report_wire);
}

/// The parallel batch service returns outcomes in request order, each identical to
/// a direct sequential `Session::run` of the same request.
#[test]
fn batch_service_is_ordered_and_deterministic_versus_session_run() {
    let mut requests = Vec::new();
    for workload in ["adpcmdecode", "gsm", "g721"] {
        for algorithm in [
            Algorithm::SingleCut,
            Algorithm::Clubbing,
            Algorithm::MaxMiso,
        ] {
            requests.push(
                IseRequest::new(algorithm, ProgramSource::Workload(workload.into()))
                    .with_constraints(Constraints::new(4, 2))
                    .with_config(IdentifierConfig::default().with_exploration_budget(Some(100_000)))
                    .with_options(DriverOptions::new(4)),
            );
        }
    }
    let outcomes = BatchService::new().run(&requests);
    assert_eq!(outcomes.len(), requests.len());
    for (request, outcome) in requests.iter().zip(&outcomes) {
        let batched = outcome.as_ref().expect("all requests are valid");
        // Ordered: each response matches its request's program and algorithm.
        assert_eq!(batched.program, request.program.name());
        assert_eq!(batched.algorithm, request.algorithm);
        // Deterministic: byte-identical to an in-process sequential run.
        let session = SessionBuilder::from_request(request)
            .options(request.options.sequential())
            .build()
            .expect("valid configuration");
        let program = request.program.resolve().expect("bundled workload");
        let direct = session.run(&program).expect("valid program");
        assert_eq!(ise::api::to_json(batched), ise::api::to_json(&direct));
    }
}

/// Unknown algorithm names fail with a self-diagnosing error listing the registry.
#[test]
fn unknown_algorithm_is_an_error_listing_the_registered_names() {
    let err = SessionBuilder::new()
        .algorithm_name("does-not-exist")
        .build()
        .expect_err("unknown algorithm must fail");
    let IseError::UnknownAlgorithm {
        requested,
        available,
    } = &err
    else {
        panic!("wrong error kind: {err}");
    };
    assert_eq!(requested, "does-not-exist");
    assert_eq!(available.len(), 6);
    for name in [
        "single-cut",
        "multicut",
        "exhaustive",
        "clubbing",
        "maxmiso",
        "single-node",
    ] {
        assert!(err.to_string().contains(name), "{err}");
    }
}

/// A structurally malformed program — here a forward (cyclic) operand reference
/// smuggled in through JSON — returns `Err`, it does not panic or hang.
#[test]
fn malformed_dfg_from_json_is_an_error_not_a_panic() {
    // A one-block program whose single node consumes the result of node 1 — which
    // does not exist — making the operand list forward-referencing.
    let bad_block = r#"{
        "name": "bb0",
        "nodes": [{"opcode": "Add", "operands": [{"Node": 1}, {"Imm": 2}], "name": null}],
        "inputs": [],
        "outputs": [{"name": "o", "source": {"Node": 0}}],
        "consumers": [[]],
        "input_consumers": [],
        "exec_count": 1
    }"#;
    let bad_program = format!(r#"{{"name": "bad", "blocks": [{bad_block}], "afus": []}}"#);

    let err = ise::api::program_from_json(&bad_program).expect_err("forward reference");
    assert!(matches!(err, IseError::InvalidProgram(_)), "{err}");

    // The same program carried inline in a request degrades into an error response.
    let parsed: Program = ise::api::from_json(&bad_program).expect("shape is valid JSON");
    let request = IseRequest::new(Algorithm::SingleCut, ProgramSource::Inline(parsed));
    let err = Session::execute(&request).expect_err("invalid inline program");
    assert!(matches!(err, IseError::InvalidProgram(_)), "{err}");

    // And a batch containing it keeps serving the other requests.
    let requests = vec![
        IseRequest::new(Algorithm::SingleCut, ProgramSource::Workload("gsm".into())),
        request,
    ];
    let outcomes = BatchService::new().run(&requests);
    assert!(outcomes[0].is_ok());
    assert!(outcomes[1].is_err());
}

/// Inline programs arriving over the wire are normalised (use-lists rebuilt,
/// structure validated) before any algorithm sees them, so an inline program and
/// the equivalent bundled workload select identically.
#[test]
fn inline_programs_are_normalised_before_identification() {
    let program = gsm::program();
    let wire = ise::api::to_json(&program);
    let reloaded: Program = ise::api::from_json(&wire).expect("valid JSON");
    let request = IseRequest::new(Algorithm::MaxMiso, ProgramSource::Inline(reloaded));
    let via_inline = Session::execute(&request).expect("normalised program runs");
    let via_workload = Session::execute(&IseRequest::new(
        Algorithm::MaxMiso,
        ProgramSource::Workload("gsm".into()),
    ))
    .expect("bundled workload runs");
    assert_eq!(
        ise::api::to_json(&via_inline.selection),
        ise::api::to_json(&via_workload.selection)
    );
}

/// Out-of-domain request parameters fail fast with `InvalidRequest`.
#[test]
fn out_of_domain_parameters_degrade_to_errors() {
    // Zero multicut slots would panic in `MultiCut::new` if it reached the factory.
    let err = SessionBuilder::new()
        .algorithm(Algorithm::MultiCut)
        .multicut_slots(0)
        .build()
        .expect_err("zero slots");
    assert!(matches!(err, IseError::InvalidRequest(_)), "{err}");

    // Unknown workloads list the bundled names.
    let err = ProgramSource::Workload("definitely-not-bundled".into())
        .resolve()
        .expect_err("unknown workload");
    let message = err.to_string();
    for name in suite::names() {
        assert!(message.contains(&name), "{message}");
    }
}
