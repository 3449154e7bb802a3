//! The serve-mode gate: warm cross-request cache versus cold one-shot dispatch.
//!
//! Serve mode ([`ise_api::ServeService`]) promises two things: every served
//! response is **byte-identical** to the one-shot execution paths, and a warm
//! cache answers duplicate-heavy corpus requests at least 2x faster than cold
//! dispatch (the enumeration is paid once per structure, not once per request,
//! and a repeated request's known sources come from their outcome slots).
//! This experiment measures both, plus the striped-lock concurrency row
//! (1 segment versus 16 under concurrent hits) and a snapshot persistence
//! round-trip, and emits the machine-readable `BENCH_serve.json`. Cold and warm
//! phases alternate for several repeats and the pay-off is the median of the
//! per-repeat warm/cold throughput ratios, so one noisy phase cannot flip the
//! verdict. The `serve_gate` binary exits non-zero when identity,
//! the warm pay-off, or persistence fail — CI runs it like `corpus_gate`.
//!
//! Dispatch is measured through [`ServeService::handle`] directly (no TCP), so
//! the cold/warm numbers isolate cache behaviour from socket noise. A separate TCP
//! phase then times sequential round trips against a real [`Server`] on loopback:
//! `stats` requests, whose work is a counter read, give the transport cost, and
//! the warm corpus request gives a served request's whole cost (its responses
//! count towards byte identity too). No gate reads the TCP rows.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ise_api::{
    json, BatchService, CorpusRequest, ProgramSource, ServeConfig, ServeService, Server,
};
use ise_core::{Constraints, DriverOptions, IdentifierConfig};
use ise_workloads::corpus::{duplicate_heavy, CorpusConfig};

/// Alternating cold/warm repeats per run; the gate reads the median warm/cold
/// ratio over them.
pub const REPEATS: usize = 5;

/// Configuration of the serve-mode experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchConfig {
    /// Shape of the duplicate-heavy synthetic corpus behind every request.
    pub corpus: CorpusConfig,
    /// Seed of the synthetic corpus.
    pub seed: u64,
    /// The constraint set shared by the whole corpus.
    pub constraints: Constraints,
    /// Per-program instruction budget (`Ninstr`).
    pub max_instructions: usize,
    /// Optional exploration budget forwarded to the exact search.
    pub exploration_budget: Option<u64>,
    /// Cold-phase requests (each against a fresh service: every one pays fills).
    pub cold_requests: usize,
    /// Warm-phase requests (against one primed service: none pays fills).
    pub warm_requests: usize,
    /// Threads hammering the warm cache in the striped-lock row.
    pub concurrent_clients: usize,
    /// Warm requests per thread in the striped-lock row.
    pub concurrent_requests: usize,
    /// Sequential round trips of each kind per repeat in the TCP phase.
    pub tcp_requests: usize,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            corpus: CorpusConfig {
                programs: 12,
                blocks_per_program: 6,
                templates: 3,
                template_nodes: 16,
                unique_per_program: 1,
            },
            seed: 0x5EED,
            constraints: Constraints::new(4, 2),
            max_instructions: 4,
            exploration_budget: Some(500_000),
            cold_requests: 3,
            warm_requests: 20,
            concurrent_clients: 4,
            concurrent_requests: 8,
            tcp_requests: 20,
        }
    }
}

impl ServeBenchConfig {
    /// A reduced configuration for CI smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        ServeBenchConfig {
            corpus: CorpusConfig {
                programs: 6,
                blocks_per_program: 4,
                templates: 2,
                template_nodes: 13,
                unique_per_program: 1,
            },
            cold_requests: 2,
            warm_requests: 8,
            concurrent_clients: 2,
            concurrent_requests: 4,
            tcp_requests: 8,
            ..ServeBenchConfig::default()
        }
    }

    /// The corpus request behind every line of the experiment.
    fn request(&self) -> CorpusRequest {
        let programs = duplicate_heavy(&self.corpus, self.seed)
            .into_iter()
            .map(ProgramSource::Inline)
            .collect();
        CorpusRequest::new(programs)
            .with_constraints(self.constraints)
            .with_config(IdentifierConfig {
                exploration_budget: self.exploration_budget,
                ..IdentifierConfig::default()
            })
            .with_options(DriverOptions::new(self.max_instructions))
    }

    fn serve_config(&self, segments: usize) -> ServeConfig {
        ServeConfig {
            segments,
            ..ServeConfig::default()
        }
    }
}

/// Latency/throughput figures of one phase.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct LatencyReport {
    /// Requests measured.
    pub requests: u64,
    /// Wall-clock of the whole phase, milliseconds.
    pub wall_ms: f64,
    /// Requests per second of wall-clock.
    pub requests_per_sec: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

impl LatencyReport {
    fn new(mut latencies_ms: Vec<f64>) -> Self {
        let requests = latencies_ms.len() as u64;
        let wall_ms: f64 = latencies_ms.iter().sum();
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let percentile = |q: f64| -> f64 {
            if latencies_ms.is_empty() {
                return 0.0;
            }
            let index =
                ((q * latencies_ms.len() as f64).ceil() as usize).clamp(1, latencies_ms.len()) - 1;
            latencies_ms[index]
        };
        LatencyReport {
            requests,
            wall_ms,
            requests_per_sec: if wall_ms > 0.0 {
                requests as f64 / (wall_ms / 1_000.0)
            } else {
                0.0
            },
            p50_ms: percentile(0.50),
            p99_ms: percentile(0.99),
        }
    }
}

/// The full gate result, as serialised into `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ServeBenchReport {
    /// Programs in the corpus behind every request.
    pub programs: u64,
    /// Logical CPUs of the machine the gate ran on.
    pub nproc: u64,
    /// The git revision the gate ran from.
    pub git_revision: String,
    /// Alternating cold/warm repeats measured.
    pub repeats: u64,
    /// Whether every served response was byte-identical to the one-shot path
    /// (cold, warm, concurrent and post-snapshot alike).
    pub identical: bool,
    /// Median over the repeats of the warm/cold throughput ratio (the gate
    /// requires >= 2).
    pub warm_speedup: f64,
    /// The warm/cold throughput ratio of each repeat, in run order.
    pub speedups: Vec<f64>,
    /// Cold dispatch, over every repeat: every request against a fresh cache.
    pub cold: LatencyReport,
    /// Warm dispatch, over every repeat: every request against a primed cache.
    pub warm: LatencyReport,
    /// Fills paid by one cold request.
    pub cold_fills: u64,
    /// Fills paid across every warm phase (the gate requires 0).
    pub warm_fills: u64,
    /// Share of the warm phases' cache lookups that hit, outcome-slot and fill-slot
    /// lookups alike.
    pub warm_hit_rate: f64,
    /// Wall-clock of the concurrent warm-hit row on a single-segment cache
    /// (the pre-satellite global-lock layout), milliseconds.
    pub concurrent_single_lock_ms: f64,
    /// Wall-clock of the same row on the 16-segment striped cache, milliseconds.
    pub concurrent_striped_ms: f64,
    /// Sequential `stats` round trips over loopback TCP, over every repeat: the
    /// transport cost of one request and its response.
    pub tcp_transport: LatencyReport,
    /// Sequential round trips of the warm corpus request over the same
    /// connections: a served request's whole cost.
    pub tcp_warm: LatencyReport,
    /// Whether a snapshot → restart → warm-start round trip answered
    /// byte-identically to cold.
    pub snapshot_roundtrip_identical: bool,
    /// Fills paid after the warm start (the gate requires 0).
    pub snapshot_warm_fills: u64,
}

/// Runs the gate: cold/warm phases, concurrency row, snapshot round trip.
#[must_use]
pub fn run(config: &ServeBenchConfig) -> ServeBenchReport {
    let request = config.request();
    let line = json::to_string(&json::Value::Object(vec![
        ("id".to_string(), json::to_value(&0u64)),
        ("kind".to_string(), json::Value::Str("corpus".to_string())),
        ("request".to_string(), json::to_value(&request)),
    ]));
    // The one-shot reference every served response must match byte-for-byte.
    let (reference, _, _) = BatchService::new()
        .run_corpus(&request)
        .expect("the synthetic corpus is a valid request");
    let expected = json::to_string(&json::Value::Object(vec![
        ("id".to_string(), json::to_value(&0u64)),
        ("response".to_string(), json::to_value(&reference)),
    ]));
    let mut identical = true;

    // Cold and warm phases alternate; each repeat contributes one throughput ratio.
    let mut cold_latencies = Vec::new();
    let mut warm_latencies = Vec::new();
    let mut speedups = Vec::with_capacity(REPEATS);
    let mut cold_fills = 0;
    let mut warm_fills = 0;
    let mut warm_hits = 0;
    let mut warm_misses = 0;
    for _ in 0..REPEATS {
        // Cold: a fresh cache per request — every request pays the full enumeration.
        let mut cold = Vec::with_capacity(config.cold_requests);
        for _ in 0..config.cold_requests.max(1) {
            let service = ServeService::new(&config.serve_config(16));
            let start = Instant::now();
            let response = service.handle(&line);
            cold.push(start.elapsed().as_secs_f64() * 1_000.0);
            identical &= response == expected;
            cold_fills = service.cache_stats().fills;
        }

        // Warm: one process-lifetime cache, primed by its first request.
        let service = ServeService::new(&config.serve_config(16));
        identical &= service.handle(&line) == expected;
        let primed = service.cache_stats();
        let mut warm = Vec::with_capacity(config.warm_requests);
        for _ in 0..config.warm_requests.max(1) {
            let start = Instant::now();
            let response = service.handle(&line);
            warm.push(start.elapsed().as_secs_f64() * 1_000.0);
            identical &= response == expected;
        }
        let after = service.cache_stats();
        warm_fills += after.fills - primed.fills;
        warm_hits += after.hits - primed.hits;
        warm_misses += after.misses - primed.misses;
        speedups.push(mean(&cold) / mean(&warm));
        cold_latencies.extend(cold);
        warm_latencies.extend(warm);
    }
    let warm_lookups = warm_hits + warm_misses;
    let warm_hit_rate = if warm_lookups > 0 {
        warm_hits as f64 / warm_lookups as f64
    } else {
        0.0
    };

    // Concurrency row: the same warm load under 1 lock stripe vs 16.
    let mut concurrent = [0.0f64; 2];
    for (slot, segments) in concurrent.iter_mut().zip([1usize, 16]) {
        let service = ServeService::new(&config.serve_config(segments));
        identical &= service.handle(&line) == expected;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..config.concurrent_clients.max(1) {
                scope.spawn(|| {
                    for _ in 0..config.concurrent_requests.max(1) {
                        if service.handle(&line) != expected {
                            // Propagated through the shared stats check below:
                            // a diverging response also breaks byte identity.
                            panic!("concurrent warm response diverged");
                        }
                    }
                });
            }
        });
        *slot = start.elapsed().as_secs_f64() * 1_000.0;
    }

    let (tcp_transport, tcp_warm, tcp_identical) = tcp_phase(config, &line, &expected);
    identical &= tcp_identical;

    // Snapshot round trip: prime, persist, restart, answer without refilling.
    let dir = std::env::temp_dir().join(format!("ise-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist_config = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let first = ServeService::new(&persist_config);
    identical &= first.handle(&line) == expected;
    let snapshot_ok = first.save_snapshot().is_ok_and(|saved| saved.is_some());
    let restarted = ServeService::new(&persist_config);
    let snapshot_roundtrip_identical =
        snapshot_ok && restarted.warm_loaded().is_some() && restarted.handle(&line) == expected;
    let snapshot_warm_fills = restarted.cache_stats().fills;
    let _ = std::fs::remove_dir_all(&dir);

    ServeBenchReport {
        programs: config.corpus.programs as u64,
        nproc: crate::nproc(),
        git_revision: crate::git_revision(),
        repeats: speedups.len() as u64,
        identical,
        warm_speedup: crate::median(&speedups),
        speedups,
        cold: LatencyReport::new(cold_latencies),
        warm: LatencyReport::new(warm_latencies),
        cold_fills,
        warm_fills,
        warm_hit_rate,
        concurrent_single_lock_ms: concurrent[0],
        concurrent_striped_ms: concurrent[1],
        tcp_transport,
        tcp_warm,
        snapshot_roundtrip_identical,
        snapshot_warm_fills,
    }
}

/// The TCP phase: a real [`Server`] on a loopback port, primed with `line`, then
/// per repeat one fresh connection carrying `tcp_requests` sequential round trips
/// of a `stats` request and as many of `line`. Returns the `stats` and the `line`
/// latencies and whether every `line` response equalled `expected`.
fn tcp_phase(
    config: &ServeBenchConfig,
    line: &str,
    expected: &str,
) -> (LatencyReport, LatencyReport, bool) {
    let server = Server::bind("127.0.0.1:0", config.serve_config(16))
        .expect("bind a loopback port for the TCP phase");
    let addr = server.local_addr().expect("bound address");
    let stop = AtomicBool::new(false);
    let stats_line = "{\"id\":1,\"kind\":\"stats\"}\n";
    let corpus_line = format!("{line}\n");
    let mut transport = Vec::new();
    let mut warm = Vec::new();
    let mut identical = true;
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&stop));
        let connect = || {
            let stream = TcpStream::connect(addr).expect("connect to the TCP phase's server");
            let writer = stream.try_clone().expect("clone the client stream");
            (writer, BufReader::new(stream))
        };
        {
            let (mut writer, mut reader) = connect();
            identical &= round_trip(&mut writer, &mut reader, &corpus_line).1 == expected;
        }
        for _ in 0..REPEATS {
            let (mut writer, mut reader) = connect();
            for _ in 0..config.tcp_requests.max(1) {
                transport.push(round_trip(&mut writer, &mut reader, stats_line).0);
                let (ms, response) = round_trip(&mut writer, &mut reader, &corpus_line);
                warm.push(ms);
                identical &= response == expected;
            }
        }
        stop.store(true, Ordering::SeqCst);
        serving
            .join()
            .expect("the TCP phase's server exits")
            .expect("the TCP phase's server serves until stopped");
    });
    (
        LatencyReport::new(transport),
        LatencyReport::new(warm),
        identical,
    )
}

/// Sends one newline-terminated request in one write and reads its response
/// line: the round trip's milliseconds and the response without its newline.
fn round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> (f64, String) {
    let start = Instant::now();
    writer
        .write_all(request.as_bytes())
        .expect("send a request to the TCP phase's server");
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .expect("read a response from the TCP phase's server");
    let ms = start.elapsed().as_secs_f64() * 1_000.0;
    response.pop();
    (ms, response)
}

/// Mean of a non-empty latency list, milliseconds (a phase's throughput ratio is
/// the inverse ratio of its mean latencies).
fn mean(latencies_ms: &[f64]) -> f64 {
    latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
}

/// Renders the report as the `BENCH_serve.json` payload.
#[must_use]
pub fn to_json(report: &ServeBenchReport) -> String {
    serde::json::to_string_pretty(report)
}

/// Renders the report as a small Markdown table.
#[must_use]
pub fn markdown(report: &ServeBenchReport) -> String {
    format!(
        "| phase | requests | req/s | p50 ms | p99 ms |\n\
         |---|---:|---:|---:|---:|\n\
         | cold | {} | {:.2} | {:.1} | {:.1} |\n\
         | warm | {} | {:.2} | {:.1} | {:.1} |\n\
         | tcp stats | {} | {:.2} | {:.2} | {:.2} |\n\
         | tcp warm | {} | {:.2} | {:.1} | {:.1} |\n\
         \n\
         warm speed-up: {:.2}x (median of {} repeats), fills cold/warm: {}/{}, \
         warm hit-rate {:.1}%, identical: {}\n\
         concurrent warm hits: {:.1} ms (1 segment) vs {:.1} ms (16 segments)\n\
         snapshot round-trip identical: {} ({} post-restart fills)\n",
        report.cold.requests,
        report.cold.requests_per_sec,
        report.cold.p50_ms,
        report.cold.p99_ms,
        report.warm.requests,
        report.warm.requests_per_sec,
        report.warm.p50_ms,
        report.warm.p99_ms,
        report.tcp_transport.requests,
        report.tcp_transport.requests_per_sec,
        report.tcp_transport.p50_ms,
        report.tcp_transport.p99_ms,
        report.tcp_warm.requests,
        report.tcp_warm.requests_per_sec,
        report.tcp_warm.p50_ms,
        report.tcp_warm.p99_ms,
        report.warm_speedup,
        report.repeats,
        report.cold_fills,
        report.warm_fills,
        100.0 * report.warm_hit_rate,
        report.identical,
        report.concurrent_single_lock_ms,
        report.concurrent_striped_ms,
        report.snapshot_roundtrip_identical,
        report.snapshot_warm_fills,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_reports_identity_warm_payoff_and_persistence() {
        let report = run(&ServeBenchConfig::quick());
        assert!(report.identical, "{report:?}");
        assert_eq!(report.repeats, REPEATS as u64, "{report:?}");
        assert!(report.warm_speedup >= 2.0, "{report:?}");
        assert_eq!(report.warm_fills, 0, "{report:?}");
        assert_eq!(report.warm_hit_rate, 1.0, "{report:?}");
        assert!(report.snapshot_roundtrip_identical, "{report:?}");
        assert_eq!(report.snapshot_warm_fills, 0, "{report:?}");
        let tcp_requests = (REPEATS * ServeBenchConfig::quick().tcp_requests) as u64;
        assert_eq!(report.tcp_transport.requests, tcp_requests, "{report:?}");
        assert_eq!(report.tcp_warm.requests, tcp_requests, "{report:?}");
        let json = to_json(&report);
        for field in [
            "\"identical\"",
            "\"warm_speedup\"",
            "\"speedups\"",
            "\"repeats\"",
            "\"nproc\"",
            "\"git_revision\"",
            "\"requests_per_sec\"",
            "\"p50_ms\"",
            "\"p99_ms\"",
            "\"warm_hit_rate\"",
            "\"concurrent_single_lock_ms\"",
            "\"concurrent_striped_ms\"",
            "\"tcp_transport\"",
            "\"tcp_warm\"",
            "\"snapshot_roundtrip_identical\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(markdown(&report).contains("identical: true"));
    }
}
