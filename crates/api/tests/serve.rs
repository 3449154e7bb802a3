//! Serve-mode integration suite: cache persistence round-trips, corruption
//! fallbacks, eviction identity, and the TCP JSONL server end-to-end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ise_api::{
    json, Algorithm, BatchService, CorpusRequest, IseError, IseRequest, ProgramSource, ServeConfig,
    ServeService, Server, Session, SweepRequest, MAX_REQUEST_LINE_BYTES, SNAPSHOT_FILE,
};
use ise_core::Constraints;

/// A fresh per-test scratch directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ise-api-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn envelope(id: u64, kind: &str, request: Option<json::Value>) -> String {
    let mut fields = vec![
        ("id".to_string(), json::to_value(&id)),
        ("kind".to_string(), json::Value::Str(kind.to_string())),
    ];
    if let Some(request) = request {
        fields.push(("request".to_string(), request));
    }
    json::to_string(&json::Value::Object(fields))
}

fn corpus_request(programs: &[&str], constraints: Constraints) -> CorpusRequest {
    CorpusRequest::new(
        programs
            .iter()
            .map(|name| ProgramSource::Workload((*name).to_string()))
            .collect(),
    )
    .with_constraints(constraints)
}

fn corpus_line(id: u64, programs: &[&str], constraints: Constraints) -> String {
    envelope(
        id,
        "corpus",
        Some(json::to_value(&corpus_request(programs, constraints))),
    )
}

/// Extracts the number of pool fills from a `stats` response line.
fn fills(service: &ServeService) -> u64 {
    service.cache_stats().fills
}

#[test]
fn snapshot_roundtrip_restart_is_byte_identical_to_cold() {
    let dir = temp_dir("roundtrip");
    let config = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let line = corpus_line(
        1,
        &["adpcmdecode", "gsm", "adpcmdecode"],
        Constraints::new(4, 2),
    );

    let first = ServeService::new(&config);
    assert_eq!(first.warm_loaded(), None, "no snapshot yet: cold start");
    let cold = first.handle(&line);
    let cold_fills = fills(&first);
    assert!(cold_fills > 0);
    let saved = first
        .save_snapshot()
        .expect("snapshot write succeeds")
        .expect("cache dir configured");
    assert!(saved > 0, "the cold run left fills to persist");
    assert!(dir.join(SNAPSHOT_FILE).is_file());

    // "Restart": a brand-new service over the same cache directory.
    let second = ServeService::new(&config);
    assert_eq!(
        second.warm_loaded(),
        Some(saved),
        "warm start loads every persisted fill"
    );
    let warm = second.handle(&line);
    assert_eq!(cold, warm, "warm-started answers must be byte-identical");
    assert_eq!(
        fills(&second),
        0,
        "nothing left to enumerate after warm start"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_snapshots_fall_back_to_cold_start() {
    let dir = temp_dir("damaged");
    let config = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let line = corpus_line(1, &["adpcmdecode", "adpcmencode"], Constraints::new(4, 2));
    let reference = ServeService::new(&config);
    let cold = reference.handle(&line);
    reference
        .save_snapshot()
        .expect("snapshot write succeeds")
        .expect("cache dir configured");
    let path = dir.join(SNAPSHOT_FILE);
    let pristine = std::fs::read(&path).expect("snapshot readable");

    type Damage<'a> = (&'a str, Box<dyn Fn(&Path)>);
    let damage: [Damage; 4] = [
        (
            "truncated",
            Box::new(|p| {
                let bytes = std::fs::read(p).unwrap();
                std::fs::write(p, &bytes[..bytes.len() / 2]).unwrap();
            }),
        ),
        (
            "bit-flipped checksum trailer",
            Box::new(|p| {
                let mut bytes = std::fs::read(p).unwrap();
                let last = bytes.len() - 1;
                bytes[last] ^= 0x55;
                std::fs::write(p, &bytes).unwrap();
            }),
        ),
        (
            "version bumped",
            Box::new(|p| {
                let mut bytes = std::fs::read(p).unwrap();
                // The u32 format version sits right after the 8-byte magic.
                bytes[8] = bytes[8].wrapping_add(1);
                std::fs::write(p, &bytes).unwrap();
            }),
        ),
        (
            "garbage",
            Box::new(|p| std::fs::write(p, b"not a snapshot at all").unwrap()),
        ),
    ];
    for (label, damage) in damage {
        std::fs::write(&path, &pristine).unwrap();
        damage(&path);
        let service = ServeService::new(&config);
        assert_eq!(
            service.warm_loaded(),
            None,
            "{label}: a damaged snapshot must cold-start, not error"
        );
        let answer = service.handle(&line);
        assert_eq!(
            answer, cold,
            "{label}: cold fallback still answers correctly"
        );
        assert!(fills(&service) > 0, "{label}: the fallback re-enumerates");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_under_a_tiny_byte_budget_never_changes_answers() {
    let unbounded = ServeService::new(&ServeConfig {
        cache_bytes: None,
        ..ServeConfig::default()
    });
    let squeezed = ServeService::new(&ServeConfig {
        cache_bytes: Some(2_000),
        ..ServeConfig::default()
    });
    // Distinct budget groups (constraint pairs) create distinct cache entries, so
    // the tiny budget keeps evicting while the unbounded cache keeps everything.
    let pairs = [
        Constraints::new(2, 1),
        Constraints::new(3, 2),
        Constraints::new(4, 2),
        Constraints::new(2, 2),
    ];
    for round in 0..2 {
        for (i, constraints) in pairs.iter().enumerate() {
            let line = corpus_line(
                (round * pairs.len() + i) as u64,
                &["adpcmdecode", "adpcmdecode", "gsm"],
                *constraints,
            );
            assert_eq!(
                unbounded.handle(&line),
                squeezed.handle(&line),
                "round {round}, constraints {constraints}"
            );
        }
    }
    let stats = squeezed.cache_stats();
    assert!(
        stats.evictions > 0,
        "the 2 kB budget must actually evict: {stats:?}"
    );
    assert!(
        squeezed.cache_stats().bytes_used <= 2_000,
        "eviction keeps the cache under budget"
    );
}

#[test]
fn tcp_server_serves_mixed_requests_and_shuts_down_gracefully() {
    let run_request = IseRequest::new(
        Algorithm::SingleCut,
        ProgramSource::Workload("adpcmdecode".into()),
    );
    let sweep_request = SweepRequest::paper_sweep(IseRequest::new(
        Algorithm::SingleCut,
        ProgramSource::Workload("gsm".into()),
    ));
    let corpus = corpus_request(&["adpcmdecode", "gsm"], Constraints::new(4, 2));

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let result = server.run(&stop);
            assert!(result.is_ok(), "{result:?}");
        })
    };

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let lines = [
        envelope(1, "run", Some(json::to_value(&run_request))),
        envelope(2, "sweep", Some(json::to_value(&sweep_request))),
        envelope(3, "corpus", Some(json::to_value(&corpus))),
        envelope(4, "stats", None),
    ];
    for line in &lines {
        writeln!(writer, "{line}").expect("send");
    }
    writer.flush().expect("flush");

    let mut responses = Vec::new();
    for _ in 0..lines.len() {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => panic!("server closed early; got {responses:?}"),
            Ok(_) => {}
            Err(e) => panic!("read failed: {e}"),
        }
        responses.push(line.trim().to_string());
    }
    // Responses may arrive out of order; correlate by id.
    let by_id = |id: &str| {
        responses
            .iter()
            .find(|r| r.starts_with(&format!("{{\"id\":{id},")))
            .unwrap_or_else(|| panic!("no response for id {id}: {responses:?}"))
    };
    let oneshot_run = Session::execute(&run_request).expect("valid request");
    assert_eq!(
        by_id("1"),
        &json::to_string(&json::Value::Object(vec![
            ("id".to_string(), json::to_value(&1u64)),
            ("response".to_string(), json::to_value(&oneshot_run)),
        ]))
    );
    let (oneshot_sweep, _) = Session::execute_sweep(&sweep_request).expect("valid sweep");
    assert_eq!(
        by_id("2"),
        &json::to_string(&json::Value::Object(vec![
            ("id".to_string(), json::to_value(&2u64)),
            ("response".to_string(), json::to_value(&oneshot_sweep)),
        ]))
    );
    assert!(by_id("3").contains("\"response\""), "{responses:?}");
    assert!(by_id("4").contains("\"hits\""), "{responses:?}");

    writeln!(writer, "{}", envelope(9, "shutdown", None)).expect("send shutdown");
    writer.flush().expect("flush");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("shutdown response");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn full_queues_answer_busy_instead_of_buffering() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let _ = server.run(&stop);
        })
    };

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    // A burst far larger than 1 worker + 1 queue slot can hold: with corpus
    // requests costing milliseconds and enqueueing costing microseconds, some
    // of these must bounce with the backpressure error.
    let total = 32;
    let line = corpus_line(0, &["adpcmdecode", "adpcmdecode"], Constraints::new(4, 2));
    for _ in 0..total {
        writeln!(writer, "{line}").expect("send");
    }
    writer.flush().expect("flush");

    let mut ok = 0;
    let mut busy = 0;
    for _ in 0..total {
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        if response.contains("server busy") {
            busy += 1;
        } else {
            assert!(response.contains("\"response\""), "{response}");
            ok += 1;
        }
    }
    assert_eq!(ok + busy, total);
    assert!(ok >= 1, "at least the first request is served");
    assert!(busy >= 1, "the burst must overflow the 1-slot queue");

    writeln!(writer, "{}", envelope(9, "shutdown", None)).expect("send shutdown");
    writer.flush().expect("flush");
    handle.join().expect("server thread exits");
}

#[test]
fn an_overlong_line_gets_one_error_and_the_connection_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let result = server.run(&stop);
            assert!(result.is_ok(), "{result:?}");
        })
    };

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    // One byte over the cap, then a `stats` line on the same connection. The
    // oversized line is written from another thread: the server answers it as soon
    // as it crosses the cap, long before the client has finished sending.
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 20];
        let mut left = MAX_REQUEST_LINE_BYTES + 1;
        while left > 0 {
            let n = left.min(chunk.len());
            writer.write_all(&chunk[..n]).expect("send");
            left -= n;
        }
        writeln!(writer).expect("send newline");
        writeln!(writer, "{}", envelope(2, "stats", None)).expect("send stats");
        writer.flush().expect("flush");
        writer
    });
    let mut first = String::new();
    reader.read_line(&mut first).expect("error response");
    assert!(first.starts_with("{\"id\":null,\"error\":"), "{first}");
    assert!(first.contains("exceeds"), "{first}");
    let mut second = String::new();
    reader.read_line(&mut second).expect("stats response");
    assert!(second.starts_with("{\"id\":2,\"response\":"), "{second}");
    assert!(second.contains("\"hits\""), "{second}");

    let mut writer = sender.join().expect("sender thread");
    writeln!(writer, "{}", envelope(9, "shutdown", None)).expect("send shutdown");
    writer.flush().expect("flush");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("shutdown response");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread exits cleanly");
}

/// Sends `stats` on a connection and reads one line back.
fn stats_round_trip(stream: &TcpStream, id: u64) -> std::io::Result<String> {
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{}", envelope(id, "stats", None))?;
    writer.flush()?;
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response)?;
    Ok(response)
}

#[test]
fn connections_past_the_cap_get_one_busy_line_then_eof() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let cap = config.max_connections();
    assert_eq!(cap, 3);
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let result = server.run(&stop);
            assert!(result.is_ok(), "{result:?}");
        })
    };

    // Hold the cap's worth of connections open; a round trip on each proves its
    // reader is running and holding a slot.
    let held: Vec<TcpStream> = (0..cap)
        .map(|k| {
            let stream = TcpStream::connect(addr).expect("connect");
            let response = stats_round_trip(&stream, k as u64).expect("stats");
            assert!(response.contains("\"hits\""), "{response}");
            stream
        })
        .collect();

    // One more: the busy line, then EOF.
    let extra = TcpStream::connect(addr).expect("connect");
    let timeout = Some(std::time::Duration::from_secs(10));
    extra.set_read_timeout(timeout).expect("read timeout");
    let mut reader = BufReader::new(extra);
    let mut busy = String::new();
    reader.read_line(&mut busy).expect("busy line");
    assert!(busy.starts_with("{\"id\":null,\"error\":"), "{busy}");
    assert!(busy.contains("server busy"), "{busy}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("EOF"), 0, "{rest}");

    // The held connections still answer.
    let response = stats_round_trip(&held[0], 10).expect("stats");
    assert!(
        response.starts_with("{\"id\":10,\"response\":"),
        "{response}"
    );

    // Closing one frees its slot once its reader notices EOF. Until then a new
    // connection is refused (its request may meet a reset socket), so retry.
    let mut held = held;
    drop(held.pop());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let reopened = loop {
        let stream = TcpStream::connect(addr).expect("connect");
        match stats_round_trip(&stream, 11) {
            Ok(response) if response.starts_with("{\"id\":11,\"response\":") => break stream,
            Ok(response) => assert!(response.contains("server busy"), "{response}"),
            Err(_) => {}
        }
        assert!(std::time::Instant::now() < deadline, "the slot never freed");
        std::thread::sleep(std::time::Duration::from_millis(20));
    };

    let mut writer = reopened.try_clone().expect("clone stream");
    writeln!(writer, "{}", envelope(9, "shutdown", None)).expect("send shutdown");
    writer.flush().expect("flush");
    drop(held);
    drop(reopened);
    handle.join().expect("server thread exits cleanly");
}

/// A round trip costs its work, not a delayed ACK: 40 sequential `stats` round
/// trips on one connection, each request sent in one write, take under 20 ms at
/// the median. A response written in two parts on a Nagle socket has its second
/// part held until the client's delayed ACK, about 40 ms on every round trip.
#[test]
fn sequential_round_trips_are_not_held_by_delayed_acks() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let result = server.run(&stop);
            assert!(result.is_ok(), "{result:?}");
        })
    };
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut round_trips = Vec::new();
    for id in 0..40 {
        let request = format!("{}\n", envelope(id, "stats", None));
        let start = Instant::now();
        writer.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        round_trips.push(start.elapsed());
        let prefix = format!("{{\"id\":{id},\"response\":");
        assert!(response.starts_with(&prefix), "{response}");
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median stats round trip {median:?}; all: {round_trips:?}"
    );

    let response = round_trip(&mut writer, &mut reader, &envelope(99, "shutdown", None));
    assert!(response.contains("shutting down"), "{response}");
    handle.join().expect("server thread exits cleanly");
}

/// A new connection is read as soon as it arrives: the first `stats` round trip
/// on each of 16 fresh connections takes under 5 ms at the median. An accept loop
/// that sleeps between polls makes each new connection wait out the sleep.
#[test]
fn first_round_trips_on_fresh_connections_do_not_wait_for_an_accept_poll() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let result = server.run(&stop);
            assert!(result.is_ok(), "{result:?}");
        })
    };
    let mut round_trips = Vec::new();
    let held: Vec<TcpStream> = (0..16)
        .map(|id| {
            let stream = TcpStream::connect(addr).expect("connect");
            let start = Instant::now();
            let response = stats_round_trip(&stream, id).expect("stats");
            round_trips.push(start.elapsed());
            let prefix = format!("{{\"id\":{id},\"response\":");
            assert!(response.starts_with(&prefix), "{response}");
            stream
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median first stats round trip {median:?}; all: {round_trips:?}"
    );

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    drop(held);
    handle.join().expect("server thread exits cleanly");
}

/// Sends one line and reads its response.
fn round_trip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(writer, "{line}").expect("send");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("response");
    response.trim_end().to_string()
}

fn answer(id: u64, outcome: Result<json::Value, IseError>) -> String {
    let (key, value) = match outcome {
        Ok(response) => ("response", response),
        Err(error) => ("error", json::Value::Str(error.to_string())),
    };
    json::to_string(&json::Value::Object(vec![
        ("id".to_string(), json::to_value(&id)),
        (key.to_string(), value),
    ]))
}

/// Envelopes whose keys come in an unusual order, repeat, or carry a payload the
/// kind does not use are answered by the first occurrence of each key, exactly as
/// the tree decode of the whole line answers them.
#[test]
fn envelope_keys_are_read_in_any_order_and_the_first_occurrence_wins() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let service = Arc::clone(server.service());
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let result = server.run(&stop);
            assert!(result.is_ok(), "{result:?}");
        })
    };
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let stats = || Ok(json::to_value(&service.cache_stats()));

    let run = IseRequest::new(
        Algorithm::SingleCut,
        ProgramSource::Workload("adpcmdecode".into()),
    );
    let run_json = json::to_string(&run);
    let oneshot = Session::execute(&run).map(|response| json::to_value(&response));

    // `request` before `kind`.
    let line = format!("{{\"request\":{run_json},\"id\":1,\"kind\":\"run\"}}");
    let response = round_trip(&mut writer, &mut reader, &line);
    assert_eq!(response, answer(1, oneshot.clone()));

    // Duplicate `kind` keys: the first is the kind, whatever its type.
    let line = format!("{{\"id\":2,\"kind\":\"stats\",\"kind\":\"run\",\"request\":{run_json}}}");
    let response = round_trip(&mut writer, &mut reader, &line);
    assert_eq!(response, answer(2, stats()));
    let line = "{\"id\":3,\"kind\":1,\"kind\":\"stats\"}";
    let response = round_trip(&mut writer, &mut reader, line);
    let no_kind = IseError::InvalidRequest(
        "a request line needs a string `kind` (run | sweep | corpus | stats | shutdown)".into(),
    );
    assert_eq!(response, answer(3, Err(no_kind)));
    let line = format!("{{\"id\":4,\"kind\":\"run\",\"request\":{run_json},\"kind\":\"stats\"}}");
    let response = round_trip(&mut writer, &mut reader, &line);
    assert_eq!(response, answer(4, oneshot.clone()));

    // A `stats` line carrying a large `request` value it does not use.
    let programs: Vec<ProgramSource> = ise_workloads::suite::mediabench_like()
        .into_iter()
        .map(ProgramSource::Inline)
        .collect();
    let large = json::to_string(&CorpusRequest::new(programs));
    assert!(large.len() > 20_000, "{}", large.len());
    let line = format!("{{\"id\":5,\"request\":{large},\"kind\":\"stats\"}}");
    let response = round_trip(&mut writer, &mut reader, &line);
    assert_eq!(response, answer(5, stats()));

    // A duplicate `id` and a duplicate `request`: the first of each is used, and
    // a payload the kind cannot decode is reported with the tree decode's words.
    let line = format!(
        "{{\"id\":6,\"kind\":\"run\",\"request\":{{\"bad\":true}},\"request\":{run_json},\"id\":7}}"
    );
    let response = round_trip(&mut writer, &mut reader, &line);
    let payload_error =
        IseError::Serialization("`run` payload: missing field `algorithm` for `IseRequest`".into());
    assert_eq!(response, answer(6, Err(payload_error)));
    let line = format!("{{\"id\":8,\"kind\":\"run\",\"request\":{run_json},\"request\":{{}}}}");
    let response = round_trip(&mut writer, &mut reader, &line);
    assert_eq!(response, answer(8, oneshot));

    let response = round_trip(&mut writer, &mut reader, &envelope(9, "shutdown", None));
    assert!(response.contains("shutting down"), "{response}");
    handle.join().expect("server thread exits cleanly");
}

/// The envelope one-shot [`BatchService::run_corpus`] gives a corpus request.
fn one_shot_corpus(id: u64, request: &CorpusRequest) -> String {
    let outcome = BatchService::new()
        .run_corpus(request)
        .map(|(response, _, _)| json::to_value(&response));
    answer(id, outcome)
}

fn corpus_envelope(id: u64, request: &CorpusRequest) -> String {
    envelope(id, "corpus", Some(json::to_value(request)))
}

fn workloads(names: &[&str]) -> CorpusRequest {
    corpus_request(names, Constraints::new(4, 2))
}

/// Two functions in one `.ll` module: one source, two programs.
const PAIR_LL: &str = "define i32 @mac3(i32 %a, i32 %b, i32 %c) {
entry:
  %mul = mul i32 %a, %b
  %add = add i32 %mul, %c
  %shl = shl i32 %add, 2
  %sum = add i32 %shl, %mul
  ret i32 %sum
}

define i32 @mixbits(i32 %x, i32 %y) {
entry:
  %xor = xor i32 %x, %y
  %shr = lshr i32 %xor, 3
  %and = and i32 %shr, 151
  %or = or i32 %and, %x
  %not = xor i32 %or, -1
  ret i32 %not
}
";

fn pair_ll() -> ProgramSource {
    ProgramSource::LlvmIr {
        name: "pair".into(),
        text: PAIR_LL.into(),
    }
}

/// Answers every request in order through one service and checks each against
/// one-shot `run_corpus` on the same request.
fn assert_served_like_one_shot(service: &ServeService, requests: &[CorpusRequest]) {
    for (id, request) in requests.iter().enumerate() {
        let id = id as u64;
        assert_eq!(
            service.handle(&corpus_envelope(id, request)),
            one_shot_corpus(id, request),
            "request {id}: {}",
            json::to_string(request)
        );
    }
}

/// Repeats, reorderings and in-request duplicates of known sources are answered
/// from outcome slots with the one-shot bytes, and a repeat enumerates nothing.
#[test]
fn outcome_slots_answer_repeated_reordered_and_duplicated_sources_like_one_shot() {
    let service = ServeService::new(&ServeConfig::default());
    let first = workloads(&["adpcmdecode", "gsm", "crc32"]);
    assert_served_like_one_shot(&service, std::slice::from_ref(&first));
    let primed = service.cache_stats();
    assert_served_like_one_shot(
        &service,
        &[
            first.clone(),
            workloads(&["crc32", "adpcmdecode", "gsm"]),
            workloads(&["gsm", "adpcmdecode", "gsm", "gsm"]),
        ],
    );
    let warm = service.cache_stats();
    assert_eq!(warm.fills, primed.fills, "known sources fill nothing");
    assert_eq!(
        warm.hits - primed.hits,
        10,
        "one outcome-slot hit per source"
    );
    assert_eq!(warm.misses, primed.misses);
    // The same sources under other constraints are other keys.
    assert_served_like_one_shot(
        &service,
        &[corpus_request(&["gsm", "crc32"], Constraints::new(2, 1))],
    );
    assert!(service.cache_stats().misses >= warm.misses + 2);
}

/// A known source beside a never-seen one runs only the new one; a multi-function
/// `.ll` source answers all its programs from one slot.
#[test]
fn outcome_slots_mix_hits_with_misses_and_hold_every_program_of_a_source() {
    let service = ServeService::new(&ServeConfig::default());
    let ll = CorpusRequest::new(vec![pair_ll()]);
    assert_served_like_one_shot(
        &service,
        &[
            workloads(&["adpcmdecode"]),
            workloads(&["adpcmdecode", "gsm"]),
            workloads(&["gsm", "adpcmencode", "adpcmdecode"]),
            ll.clone(),
            ll.clone(),
            CorpusRequest::new(vec![
                ProgramSource::Workload("gsm".into()),
                pair_ll(),
                ProgramSource::Workload("crc32".into()),
                pair_ll(),
            ]),
        ],
    );
    let (one_shot, _, _) = BatchService::new().run_corpus(&ll).expect("valid corpus");
    assert_eq!(one_shot.programs.len(), 2, "one outcome per function");
    let before = service.cache_stats();
    assert_served_like_one_shot(&service, std::slice::from_ref(&ll));
    let after = service.cache_stats();
    assert_eq!((after.hits - before.hits, after.misses), (1, before.misses));
}

/// A whitespace-different copy of a known source is another key: it misses,
/// records a slot of its own and answers the same bytes.
#[test]
fn a_byte_different_copy_of_a_known_source_misses_and_answers_the_same() {
    let service = ServeService::new(&ServeConfig::default());
    let request = workloads(&["adpcmdecode", "gsm"]);
    let line = corpus_envelope(1, &request);
    let expected = one_shot_corpus(1, &request);
    assert_eq!(service.handle(&line), expected);
    let primed = service.cache_stats();
    let spaced = line.replace("{\"Workload\":\"gsm\"}", "{\"Workload\": \"gsm\"}");
    assert_ne!(spaced, line);
    assert_eq!(service.handle(&spaced), expected);
    let after = service.cache_stats();
    assert_eq!(
        after.fills, primed.fills,
        "the refill comes from the fill slots"
    );
    assert_eq!(after.entries, primed.entries + 1, "one new outcome slot");
    assert_eq!(service.handle(&spaced), expected);
    assert_eq!(service.cache_stats().entries, after.entries);
}

/// A known source followed by one that does not resolve fails with the one-shot
/// error, and records nothing for the failing source.
#[test]
fn an_unresolvable_source_after_a_known_one_keeps_the_one_shot_error() {
    let service = ServeService::new(&ServeConfig::default());
    let known = ProgramSource::Workload("adpcmdecode".into());
    let broken_ll = ProgramSource::LlvmIr {
        name: "broken.ll".into(),
        text: "define i32 @f(i32 %a) {\nentry:\n  %x = frob i32 %a\n  ret i32 %x\n}\n".into(),
    };
    let requests = [
        CorpusRequest::new(vec![known.clone()]),
        CorpusRequest::new(vec![known.clone(), ProgramSource::Workload("nope".into())]),
        CorpusRequest::new(vec![known.clone(), broken_ll.clone(), known.clone()]),
        CorpusRequest::new(vec![known.clone()])
            .with_constraints(Constraints::new(4, 2).with_max_area(-1.0)),
        CorpusRequest::new(Vec::new()),
    ];
    for request in &requests[1..] {
        assert!(one_shot_corpus(0, request).contains("\"error\""));
    }
    assert_served_like_one_shot(&service, &requests);
    assert_served_like_one_shot(&service, &requests);
}

/// A `templates` request runs whole, bypassing the slots, and out-of-range budgets
/// fail as on the one-shot path.
#[test]
fn template_requests_bypass_outcome_slots() {
    let service = ServeService::new(&ServeConfig::default());
    let plain = workloads(&["adpcmdecode", "adpcmdecode"]);
    let budgeted = plain.clone().with_templates(Some(1.0e9));
    assert_served_like_one_shot(&service, &[plain.clone(), budgeted.clone()]);
    let before = service.cache_stats();
    assert_served_like_one_shot(&service, std::slice::from_ref(&budgeted));
    let after = service.cache_stats();
    assert_eq!(after.entries, before.entries, "no outcome slot recorded");
    assert_eq!(after.fills, before.fills);
}

/// Under a byte budget far smaller than the answers, outcome slots and fills keep
/// evicting each other, the budget holds, and every answer stays the one-shot one.
#[test]
fn outcome_slots_obey_a_tiny_byte_budget() {
    for budget in [600, 2_000, 20_000] {
        let service = ServeService::new(&ServeConfig {
            cache_bytes: Some(budget),
            ..ServeConfig::default()
        });
        for _ in 0..2 {
            assert_served_like_one_shot(
                &service,
                &[
                    workloads(&["adpcmdecode", "gsm", "adpcmdecode"]),
                    workloads(&["crc32", "gsm"]),
                    CorpusRequest::new(vec![pair_ll()]),
                    corpus_request(&["crc32", "adpcmencode"], Constraints::new(2, 1)),
                ],
            );
            let stats = service.cache_stats();
            assert!(stats.bytes_used <= budget, "budget {budget}: {stats:?}");
            assert!(stats.evictions > 0, "budget {budget}: {stats:?}");
        }
    }
}

/// A line of `kind` carrying `text` verbatim as its `request` payload.
fn raw_envelope(id: u64, kind: &str, text: &str) -> String {
    format!(r#"{{"id":{id},"kind":"{kind}","request":{text}}}"#)
}

/// The envelope one-shot [`Session::execute`] gives a `run` payload text.
fn one_shot_run(id: u64, text: &str) -> String {
    let request: IseRequest = ise_api::from_json(text).expect("a run payload");
    answer(
        id,
        Session::execute(&request).map(|response| json::to_value(&response)),
    )
}

/// The envelope one-shot [`Session::execute_sweep`] gives a `sweep` payload text.
fn one_shot_sweep(id: u64, text: &str) -> String {
    let request: SweepRequest = ise_api::from_json(text).expect("a sweep payload");
    answer(
        id,
        Session::execute_sweep(&request).map(|(response, _)| json::to_value(&response)),
    )
}

fn run_text(program: ProgramSource) -> String {
    json::to_string(&IseRequest::new(Algorithm::SingleCut, program))
}

fn sweep_text(workload: &str, pairs: Vec<Constraints>) -> String {
    let request = IseRequest::new(
        Algorithm::SingleCut,
        ProgramSource::Workload(workload.into()),
    );
    json::to_string(&SweepRequest::new(request, pairs))
}

/// Repeated `run` and `sweep` payloads are answered from their outcome slots with
/// the one-shot bytes: one hit per repeat, no fill and no new slot. A
/// whitespace-different copy misses, records a slot of its own and answers the
/// same bytes.
#[test]
fn run_and_sweep_repeats_hit_outcome_slots_like_one_shot() {
    let service = ServeService::new(&ServeConfig::default());
    let run = json::to_string(
        &IseRequest::new(
            Algorithm::SingleCut,
            ProgramSource::Workload("adpcmdecode".into()),
        )
        .with_pass(ise_api::Pass::ConstFold),
    );
    let sweep = sweep_text("gsm", vec![Constraints::new(2, 1), Constraints::new(4, 2)]);
    for (kind, text, expected) in [
        ("run", &run, one_shot_run(1, &run)),
        ("sweep", &sweep, one_shot_sweep(1, &sweep)),
    ] {
        let line = raw_envelope(1, kind, text);
        assert_eq!(service.handle(&line), expected, "{kind}");
        for _ in 0..2 {
            let before = service.cache_stats();
            assert_eq!(service.handle(&line), expected, "{kind}");
            let after = service.cache_stats();
            assert_eq!(after.hits, before.hits + 1, "{kind}");
            assert_eq!(
                (after.misses, after.fills, after.entries),
                (before.misses, before.fills, before.entries),
                "{kind}"
            );
        }
        let spaced = text.replacen(':', ": ", 1);
        assert_ne!(&spaced, text);
        let before = service.cache_stats();
        assert_eq!(service.handle(&raw_envelope(1, kind, &spaced)), expected);
        let after = service.cache_stats();
        assert_eq!(after.misses, before.misses + 1, "{kind}");
        assert_eq!(after.entries, before.entries + 1, "{kind}");
    }
}

/// A one-block program whose only node reads node 1, which does not exist: it
/// decodes, then fails validation.
const FORWARD_REFERENCE_PROGRAM: &str = r#"{"name":"bad","blocks":[{"name":"bb0","nodes":[{"opcode":"Add","operands":[{"Node":1},{"Imm":2}],"name":null}],"inputs":[],"outputs":[{"name":"o","source":{"Node":0}}],"consumers":[[]],"input_consumers":[],"exec_count":1}],"afus":[]}"#;

/// A failing `run` or `sweep` request records nothing, and its repeat fails with
/// the identical one-shot error.
#[test]
fn failing_run_and_sweep_requests_record_nothing_and_repeat_their_error() {
    let service = ServeService::new(&ServeConfig::default());
    let invalid_inline = run_text(ProgramSource::Workload("gsm".into())).replace(
        r#"{"Workload":"gsm"}"#,
        &format!(r#"{{"Inline":{FORWARD_REFERENCE_PROGRAM}}}"#),
    );
    let zero_ports = Constraints {
        max_inputs: 0,
        ..Constraints::new(4, 2)
    };
    let cases = [
        ("run", run_text(ProgramSource::Workload("nope".into()))),
        ("run", invalid_inline),
        (
            "sweep",
            sweep_text("gsm", vec![Constraints::new(4, 2), zero_ports]),
        ),
        ("sweep", sweep_text("gsm", Vec::new())),
    ];
    for (kind, text) in &cases {
        let expected = match *kind {
            "run" => one_shot_run(2, text),
            _ => one_shot_sweep(2, text),
        };
        assert!(expected.contains("\"error\""), "{expected}");
        for _ in 0..2 {
            assert_eq!(service.handle(&raw_envelope(2, kind, text)), expected);
            assert_eq!(service.cache_stats().entries, 0, "{kind}: {text}");
        }
    }
}

/// One payload text that decodes as a `run` and as a `sweep` (each kind skips the
/// other's keys) is answered as the kind its line names, each from its own slot.
#[test]
fn a_payload_of_both_kinds_is_answered_as_the_kind_its_line_names() {
    let run = run_text(ProgramSource::Workload("adpcmdecode".into()));
    let sweep = sweep_text("gsm", vec![Constraints::new(3, 1)]);
    let both = format!("{},{}", &run[..run.len() - 1], &sweep[1..]);
    let as_run = one_shot_run(3, &both);
    let as_sweep = one_shot_sweep(3, &both);
    assert_eq!(as_run, one_shot_run(3, &run));
    assert_eq!(as_sweep, one_shot_sweep(3, &sweep));
    let service = ServeService::new(&ServeConfig::default());
    for _ in 0..2 {
        assert_eq!(service.handle(&raw_envelope(3, "run", &both)), as_run);
        assert_eq!(service.handle(&raw_envelope(3, "sweep", &both)), as_sweep);
    }
    let stats = service.cache_stats();
    assert_eq!((stats.entries, stats.hits, stats.misses), (2, 2, 2));
}

/// A `run` and a `corpus` request over the same source keep separate slots.
#[test]
fn a_run_and_a_corpus_request_over_one_source_do_not_share_a_slot() {
    let service = ServeService::new(&ServeConfig::default());
    let corpus = workloads(&["gsm"]);
    let run = run_text(ProgramSource::Workload("gsm".into()));
    assert_eq!(
        service.handle(&corpus_envelope(4, &corpus)),
        one_shot_corpus(4, &corpus)
    );
    let before = service.cache_stats();
    assert_eq!(
        service.handle(&raw_envelope(4, "run", &run)),
        one_shot_run(4, &run)
    );
    let after = service.cache_stats();
    assert_eq!(after.misses, before.misses + 1, "the run misses");
    assert_eq!(
        after.entries,
        before.entries + 1,
        "the run records its own slot"
    );
    assert_eq!(
        service.handle(&corpus_envelope(4, &corpus)),
        one_shot_corpus(4, &corpus)
    );
    assert_eq!(
        service.handle(&raw_envelope(4, "run", &run)),
        one_shot_run(4, &run)
    );
    let last = service.cache_stats();
    assert_eq!((last.hits, last.entries), (after.hits + 2, after.entries));
}

/// A stream of distinct inline `run` payloads keeps evicting the oldest slots:
/// memory stays within the budget and every answer stays the one-shot one.
#[test]
fn distinct_run_payloads_stay_within_the_cache_budget() {
    let base = ise_workloads::suite::by_name("crc32").expect("a bundled workload");
    let text = |index: usize| {
        let mut program = ise_ir::Program::new(format!("crc32_{index}"));
        for block in base.blocks() {
            program.add_block(block.clone());
        }
        run_text(ProgramSource::Inline(program))
    };
    let unbounded = ServeService::new(&ServeConfig {
        cache_bytes: None,
        ..ServeConfig::default()
    });
    unbounded.handle(&raw_envelope(0, "run", &text(0)));
    let slot = unbounded.cache_stats().bytes_used;
    assert!(slot > 0);
    let budget = 3 * slot + slot / 2;
    let service = ServeService::new(&ServeConfig {
        cache_bytes: Some(budget),
        ..ServeConfig::default()
    });
    for index in 0..12 {
        let text = text(index);
        let id = index as u64;
        assert_eq!(
            service.handle(&raw_envelope(id, "run", &text)),
            one_shot_run(id, &text)
        );
        let stats = service.cache_stats();
        assert!(stats.bytes_used <= budget, "budget {budget}: {stats:?}");
    }
    let stats = service.cache_stats();
    assert!(stats.evictions > 0, "{stats:?}");
    assert!(stats.entries >= 2, "{stats:?}");
}
