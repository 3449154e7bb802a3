//! Serve-mode integration suite: cache persistence round-trips, corruption
//! fallbacks, eviction identity, and the TCP JSONL server end-to-end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ise_api::{
    json, Algorithm, CorpusRequest, IseRequest, ProgramSource, ServeConfig, ServeService, Server,
    Session, SweepRequest, MAX_REQUEST_LINE_BYTES, SNAPSHOT_FILE,
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
    let unbounded = ServeService::new(&ServeConfig::default());
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
