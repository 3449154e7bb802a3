//! Persistent serve mode: a long-running JSONL request server with a warm,
//! process-lifetime cut-pool cache and on-disk snapshots.
//!
//! The one-shot CLI pays the full enumeration cost on every invocation even when
//! consecutive invocations analyse structurally identical code. Serve mode keeps
//! the process — and with it the [`WarmPoolCache`] of canonical Pareto fills —
//! alive across requests, so the second request that sees a known
//! `(structural key, exclusion state, budget group)` answers from memory.
//! Because canonical fills are schedule-independent, every served response is
//! **byte-identical** to what the one-shot [`BatchService`]/[`Session`] paths
//! produce, cold or warm.
//!
//! # Protocol
//!
//! One JSON object per line (JSONL), both directions. Requests:
//!
//! ```text
//! {"id": 1, "kind": "run",      "request": <IseRequest>}
//! {"id": 2, "kind": "sweep",    "request": <SweepRequest>}
//! {"id": 3, "kind": "corpus",   "request": <CorpusRequest>}
//! {"id": 4, "kind": "stats"}      cache counters (hits/misses/fills/evictions)
//! {"id": 5, "kind": "shutdown"}   drain in-flight work, snapshot, exit
//! ```
//!
//! Responses echo the `id` (verbatim, any JSON value) and carry either a
//! `"response"` — the exact payload the one-shot envelope would carry — or an
//! `"error"` string: `{"id": 1, "response": …}` / `{"id": 1, "error": "…"}`.
//! Responses to pipelined requests may arrive out of order; the `id` is the
//! correlation key.
//!
//! A request line may hold at most [`MAX_REQUEST_LINE_BYTES`] bytes before its
//! newline. A longer line is answered once, as soon as it crosses the cap, with an
//! `"error"` envelope (id `null`); the rest of it is skipped up to its newline
//! without being buffered, and the connection keeps serving the lines after it.
//!
//! # Backpressure and shutdown
//!
//! Work is executed by a fixed pool of [`ServeConfig::workers`] threads fed from
//! a queue bounded at [`ServeConfig::queue_capacity`] jobs. A request that finds
//! the queue full is answered immediately with a `"server busy"` error instead
//! of buffering without bound — clients retry; memory stays flat. `stats` and
//! `shutdown` bypass the queue so they get through even under overload. On a
//! `shutdown` request (or an external stop flag, e.g. SIGTERM in the CLI) the
//! server stops accepting, drains every queued and in-flight job, snapshots the
//! cache and returns; cache statistics go to stderr, never into response bytes.
//!
//! # Persistence
//!
//! With a cache directory configured, the cache warm-starts on boot from
//! `<dir>/`[`SNAPSHOT_FILE`] and is written back on shutdown (and every
//! [`ServeConfig::snapshot_interval`], if set). Snapshots are versioned and
//! checksummed; a corrupt, truncated or mismatched file falls back to a cold
//! start rather than erroring.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ise_core::{IseError, WarmCacheConfig, WarmCacheStats, WarmPoolCache, SNAPSHOT_FILE};

use crate::batch::BatchService;
use crate::json;
use crate::request::{CorpusRequest, IseRequest, SweepRequest};
use crate::session::Session;

/// The longest request line the server reads, in bytes, not counting its newline:
/// 16 MiB, over a hundred times the largest corpus request line the benchmarks send.
/// Past it a line is answered with an error and skipped (see the module
/// documentation), so a client that never sends `\n` cannot grow server memory.
pub const MAX_REQUEST_LINE_BYTES: usize = 16 << 20;

/// Configuration of a serve-mode instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads executing requests (at least 1).
    pub workers: usize,
    /// Upper bound on queued (accepted but not yet executing) requests; a
    /// request beyond it is answered with a `"server busy"` error immediately.
    pub queue_capacity: usize,
    /// Lock stripes of the warm cache (rounded up to a power of two).
    pub segments: usize,
    /// Byte budget of the warm cache; least-recently-used fills are evicted
    /// beyond it. `None` means unbounded.
    pub cache_bytes: Option<u64>,
    /// Directory for the on-disk cache snapshot; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Also snapshot the cache periodically while serving, not only on shutdown.
    pub snapshot_interval: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            segments: 16,
            cache_bytes: None,
            cache_dir: None,
            snapshot_interval: None,
        }
    }
}

/// The request dispatcher of serve mode: parses one JSONL request line, routes
/// it to the one-shot execution paths, and serialises the enveloped response.
///
/// Owns the process-lifetime [`WarmPoolCache`]; `corpus` requests run through
/// [`BatchService::run_corpus_cached`] against it, so fills accumulated by one
/// request warm every later one. `run` and `sweep` requests execute exactly as
/// their one-shot counterparts. The service is [`Server`]'s brain but has no
/// I/O of its own — benchmarks call [`handle`](Self::handle) directly to
/// measure dispatch without TCP.
pub struct ServeService {
    batch: BatchService,
    cache: Arc<WarmPoolCache>,
    cache_dir: Option<PathBuf>,
    warm_loaded: Option<u64>,
    shutdown: AtomicBool,
    handled: AtomicU64,
}

impl std::fmt::Debug for ServeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeService")
            .field("cache_dir", &self.cache_dir)
            .field("warm_loaded", &self.warm_loaded)
            .field("handled", &self.handled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServeService {
    /// Builds the service: a fresh warm cache, warm-started from the snapshot in
    /// [`ServeConfig::cache_dir`] when one exists and validates (an unreadable or
    /// mismatched snapshot silently cold-starts instead).
    #[must_use]
    pub fn new(config: &ServeConfig) -> ServeService {
        let cache = Arc::new(WarmPoolCache::new(WarmCacheConfig {
            segments: config.segments,
            byte_budget: config.cache_bytes,
            ..WarmCacheConfig::default()
        }));
        let warm_loaded = config
            .cache_dir
            .as_deref()
            .and_then(|dir| cache.load_snapshot(&dir.join(SNAPSHOT_FILE)));
        ServeService {
            batch: BatchService::new(),
            cache,
            cache_dir: config.cache_dir.clone(),
            warm_loaded,
            shutdown: AtomicBool::new(false),
            handled: AtomicU64::new(0),
        }
    }

    /// Entries warm-started from the snapshot at boot (`None`: cold start).
    #[must_use]
    pub fn warm_loaded(&self) -> Option<u64> {
        self.warm_loaded
    }

    /// Counters of the warm cache (hits, misses, fills, evictions, bytes).
    #[must_use]
    pub fn cache_stats(&self) -> WarmCacheStats {
        self.cache.stats()
    }

    /// Requests handled so far (including failed and `stats`/`shutdown` ones).
    #[must_use]
    pub fn handled(&self) -> u64 {
        self.handled.load(Ordering::Relaxed)
    }

    /// Whether a `shutdown` request has been handled.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Writes the cache snapshot into the configured directory (created on
    /// demand) and returns the number of persisted fills; `Ok(None)` when no
    /// cache directory is configured.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the snapshot is written to a temporary file
    /// and renamed, so a failed write never corrupts an existing snapshot).
    pub fn save_snapshot(&self) -> std::io::Result<Option<u64>> {
        let Some(dir) = &self.cache_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        self.cache.save_snapshot(&dir.join(SNAPSHOT_FILE)).map(Some)
    }

    /// Handles one request line end-to-end and returns the response line
    /// (without trailing newline). Never panics on malformed input: parse and
    /// validation failures become `"error"` envelopes.
    pub fn handle(&self, line: &str) -> String {
        self.handled.fetch_add(1, Ordering::Relaxed);
        let envelope = match json::parse(line) {
            Ok(value) => value,
            Err(error) => {
                return respond(
                    &json::Value::Null,
                    Err(IseError::Serialization(format!(
                        "cannot parse request line: {error}"
                    ))),
                )
            }
        };
        let (id, outcome) = self.dispatch(&envelope);
        respond(&id, outcome)
    }

    /// Routes one parsed request envelope; returns its echoed id and outcome.
    fn dispatch(&self, envelope: &json::Value) -> (json::Value, Result<json::Value, IseError>) {
        let json::Value::Object(fields) = envelope else {
            return (
                json::Value::Null,
                Err(IseError::InvalidRequest(
                    "a request line must be a JSON object".to_string(),
                )),
            );
        };
        let field = |name: &str| fields.iter().find(|(key, _)| key == name).map(|(_, v)| v);
        let id = field("id").cloned().unwrap_or(json::Value::Null);
        let Some(json::Value::Str(kind)) = field("kind") else {
            return (
                id,
                Err(IseError::InvalidRequest(
                    "a request line needs a string `kind` \
                     (run | sweep | corpus | stats | shutdown)"
                        .to_string(),
                )),
            );
        };
        let request = field("request");
        let outcome = match kind.as_str() {
            "run" => payload::<IseRequest>(request, "run")
                .and_then(|request| Session::execute(&request))
                .map(|response| json::to_value(&response)),
            // The sweep planner statistics and the corpus dedup/shard telemetry
            // are one-shot stderr diagnostics; the served envelope carries only
            // the deterministic response, exactly like the one-shot CLI.
            "sweep" => payload::<SweepRequest>(request, "sweep")
                .and_then(|request| Session::execute_sweep(&request))
                .map(|(response, _stats)| json::to_value(&response)),
            "corpus" => payload::<CorpusRequest>(request, "corpus")
                .and_then(|request| self.batch.run_corpus_cached(&request, &self.cache))
                .map(|(response, _stats, _shards)| json::to_value(&response)),
            "stats" => Ok(json::to_value(&self.cache.stats())),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok(json::Value::Str("shutting down".to_string()))
            }
            other => Err(IseError::InvalidRequest(format!(
                "unknown request kind `{other}` \
                 (expected run | sweep | corpus | stats | shutdown)"
            ))),
        };
        (id, outcome)
    }
}

/// Deserialises the `request` payload of one envelope.
fn payload<T: serde::DeserializeOwned>(
    field: Option<&json::Value>,
    kind: &str,
) -> Result<T, IseError> {
    let Some(value) = field else {
        return Err(IseError::InvalidRequest(format!(
            "a `{kind}` request needs a `request` payload"
        )));
    };
    serde::json::from_value(value)
        .map_err(|error| IseError::Serialization(format!("`{kind}` payload: {error}")))
}

/// Serialises one response line: the echoed id plus either the `"response"`
/// payload (byte-identical to the one-shot envelope's) or the `"error"` string.
fn respond(id: &json::Value, outcome: Result<json::Value, IseError>) -> String {
    let (key, value) = match outcome {
        Ok(response) => ("response", response),
        Err(error) => ("error", json::Value::Str(error.to_string())),
    };
    json::to_string(&json::Value::Object(vec![
        ("id".to_string(), id.clone()),
        (key.to_string(), value),
    ]))
}

/// The queue-full error response for one raw request line (best-effort id echo).
fn busy_response(line: &str) -> String {
    let id = match json::parse(line) {
        Ok(json::Value::Object(fields)) => fields
            .iter()
            .find(|(key, _)| key == "id")
            .map(|(_, value)| value.clone())
            .unwrap_or(json::Value::Null),
        _ => json::Value::Null,
    };
    respond(
        &id,
        Err(IseError::InvalidRequest(
            "server busy: the request queue is full, retry later".to_string(),
        )),
    )
}

/// The error response for a request line longer than [`MAX_REQUEST_LINE_BYTES`].
fn overlong_response() -> String {
    respond(
        &json::Value::Null,
        Err(IseError::InvalidRequest(format!(
            "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes; skipped up to its newline"
        ))),
    )
}

/// Returns the request kind of a raw line, when it parses to an object.
fn line_kind(line: &str) -> Option<String> {
    match json::parse(line) {
        Ok(json::Value::Object(fields)) => {
            fields
                .iter()
                .find_map(|(key, value)| match (key.as_str(), value) {
                    ("kind", json::Value::Str(kind)) => Some(kind.clone()),
                    _ => None,
                })
        }
        _ => None,
    }
}

/// One accepted request waiting for a worker: the raw line plus the (shared)
/// write half of the connection it arrived on.
struct Job {
    line: String,
    peer: Arc<Mutex<TcpStream>>,
}

/// The bounded job queue between connection readers and the worker pool.
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues unless the queue is at capacity; a rejected job comes back so
    /// the caller can answer it with the backpressure error.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.jobs.lock().expect("job queue poisoned");
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once `halt` is set *and* the queue is
    /// empty, so pending work always drains before the workers exit.
    fn pop(&self, halt: &AtomicBool) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if halt.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(jobs, Duration::from_millis(50))
                .expect("job queue poisoned");
            jobs = guard;
        }
    }
}

/// One item read off a connection by [`LineReader`].
#[derive(Debug, PartialEq, Eq)]
enum Line {
    /// A complete request line (or the unterminated tail before EOF), without its
    /// newline, at most the cap long.
    Request(Vec<u8>),
    /// The current line just crossed the cap; it is skipped up to its newline.
    Overlong,
}

/// Splits a byte stream into request lines of at most `cap` bytes.
///
/// Unlike `BufRead::read_line`, memory stays bounded by the cap: once a line crosses
/// it, [`next_line`](Self::next_line) reports [`Line::Overlong`] once and then drops
/// the line's bytes until its newline. A read error (such as the poll timeout of a
/// connection) leaves any partial line in place for the next call.
struct LineReader<R> {
    inner: R,
    cap: usize,
    line: Vec<u8>,
    skipping: bool,
}

impl<R: BufRead> LineReader<R> {
    fn new(inner: R, cap: usize) -> Self {
        LineReader {
            inner,
            cap,
            line: Vec::new(),
            skipping: false,
        }
    }

    /// The next line, `Ok(None)` at end of stream.
    fn next_line(&mut self) -> std::io::Result<Option<Line>> {
        loop {
            let chunk = self.inner.fill_buf()?;
            if chunk.is_empty() {
                let tail = std::mem::take(&mut self.line);
                return Ok((!tail.is_empty()).then_some(Line::Request(tail)));
            }
            let newline = chunk.iter().position(|&byte| byte == b'\n');
            let taken = newline.unwrap_or(chunk.len());
            let crossed = !self.skipping && self.line.len() + taken > self.cap;
            if crossed {
                self.line = Vec::new();
            } else if !self.skipping {
                self.line.extend_from_slice(&chunk[..taken]);
            }
            self.inner.consume(taken + usize::from(newline.is_some()));
            let skipped = self.skipping || crossed;
            // A skipped line that goes on past this chunk stays skipped.
            self.skipping = skipped && newline.is_none();
            if crossed {
                return Ok(Some(Line::Overlong));
            }
            if newline.is_some() && !skipped {
                return Ok(Some(Line::Request(std::mem::take(&mut self.line))));
            }
        }
    }
}

/// Writes one response line to a connection (errors are ignored: a client that
/// hung up forfeits its response, the server keeps serving).
fn write_line(peer: &Mutex<TcpStream>, response: &str) {
    let mut stream = peer.lock().expect("connection writer poisoned");
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

/// The TCP front of serve mode: accept loop, per-connection readers, the
/// bounded queue and the fixed worker pool around one [`ServeService`].
pub struct Server {
    listener: TcpListener,
    service: Arc<ServeService>,
    config: ServeConfig,
}

impl Server {
    /// Binds the listening socket (use port 0 for an ephemeral port) and builds
    /// the service, warm-starting its cache when a snapshot is available.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind, non-blocking mode).
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let service = Arc::new(ServeService::new(&config));
        Ok(Server {
            listener,
            service,
            config,
        })
    }

    /// The bound address (the actual port when 0 was requested).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The dispatcher behind this server (cache statistics, snapshots).
    #[must_use]
    pub fn service(&self) -> &Arc<ServeService> {
        &self.service
    }

    /// Serves until `stop` is set externally (e.g. by a signal handler) or a
    /// `shutdown` request arrives, then drains queued and in-flight work,
    /// snapshots the cache and prints its counters to stderr.
    ///
    /// # Errors
    ///
    /// Returns the first fatal `accept` error; per-connection I/O errors only
    /// end that connection.
    pub fn run(&self, stop: &AtomicBool) -> std::io::Result<()> {
        let queue = Arc::new(JobQueue::new(self.config.queue_capacity));
        let halt = Arc::new(AtomicBool::new(false));
        let mut accept_error: Option<std::io::Error> = None;
        let mut last_snapshot = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.max(1) {
                let queue = Arc::clone(&queue);
                let halt = Arc::clone(&halt);
                let service = Arc::clone(&self.service);
                scope.spawn(move || {
                    while let Some(job) = queue.pop(&halt) {
                        write_line(&job.peer, &service.handle(&job.line));
                    }
                });
            }
            loop {
                if stop.load(Ordering::SeqCst) || self.service.shutdown_requested() {
                    break;
                }
                if let Some(interval) = self.config.snapshot_interval {
                    if last_snapshot.elapsed() >= interval {
                        if let Err(error) = self.service.save_snapshot() {
                            eprintln!("serve: periodic snapshot failed: {error}");
                        }
                        last_snapshot = Instant::now();
                    }
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let queue = Arc::clone(&queue);
                        let halt = Arc::clone(&halt);
                        let service = Arc::clone(&self.service);
                        scope.spawn(move || read_connection(stream, &service, &queue, &halt));
                    }
                    Err(error) if error.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(error) => {
                        accept_error = Some(error);
                        break;
                    }
                }
            }
            halt.store(true, Ordering::SeqCst);
        });
        match self.service.save_snapshot() {
            Ok(Some(entries)) => eprintln!("serve: snapshot saved ({entries} fills)"),
            Ok(None) => {}
            Err(error) => eprintln!("serve: shutdown snapshot failed: {error}"),
        }
        eprintln!(
            "serve: cache stats {}",
            crate::to_json(&self.service.cache_stats())
        );
        match accept_error {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }
}

/// Reads request lines off one connection until EOF, a read error, or server
/// halt. `stats`/`shutdown` are answered inline (they must get through even
/// when the queue is full); everything else takes a bounded queue slot or is
/// answered with the backpressure error.
fn read_connection(stream: TcpStream, service: &ServeService, queue: &JobQueue, halt: &AtomicBool) {
    // The 50ms read timeout is the poll granularity for noticing `halt` while a
    // client keeps the connection open without sending.
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let peer = Arc::new(Mutex::new(writer));
    let mut lines = LineReader::new(BufReader::new(stream), MAX_REQUEST_LINE_BYTES);
    loop {
        if halt.load(Ordering::SeqCst) {
            break;
        }
        match lines.next_line() {
            Ok(None) => break,
            Ok(Some(Line::Overlong)) => write_line(&peer, &overlong_response()),
            Ok(Some(Line::Request(bytes))) => {
                let Ok(line) = String::from_utf8(bytes) else {
                    let error = IseError::Serialization("request line is not valid UTF-8".into());
                    write_line(&peer, &respond(&json::Value::Null, Err(error)));
                    continue;
                };
                let text = line.trim();
                if text.is_empty() {
                    continue;
                }
                match line_kind(text).as_deref() {
                    Some("stats" | "shutdown") => write_line(&peer, &service.handle(text)),
                    _ => {
                        let job = Job {
                            line: text.to_string(),
                            peer: Arc::clone(&peer),
                        };
                        if let Err(job) = queue.try_push(job) {
                            write_line(&job.peer, &busy_response(&job.line));
                        }
                    }
                }
            }
            // A timeout may leave a partial line in the reader; the next iteration
            // completes it.
            Err(error)
                if error.kind() == ErrorKind::WouldBlock || error.kind() == ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Algorithm, ProgramSource};

    fn run_line(id: u64) -> String {
        let request = IseRequest::new(
            Algorithm::SingleCut,
            ProgramSource::Workload("adpcmdecode".into()),
        );
        json::to_string(&json::Value::Object(vec![
            ("id".to_string(), json::to_value(&id)),
            ("kind".to_string(), json::Value::Str("run".to_string())),
            ("request".to_string(), json::to_value(&request)),
        ]))
    }

    #[test]
    fn handle_matches_the_one_shot_envelope_byte_for_byte() {
        let service = ServeService::new(&ServeConfig::default());
        let served = service.handle(&run_line(7));
        let request = IseRequest::new(
            Algorithm::SingleCut,
            ProgramSource::Workload("adpcmdecode".into()),
        );
        let oneshot = Session::execute(&request).expect("bundled workload");
        let expected = json::to_string(&json::Value::Object(vec![
            ("id".to_string(), json::to_value(&7u64)),
            ("response".to_string(), json::to_value(&oneshot)),
        ]));
        assert_eq!(served, expected);
    }

    /// Lines up to the cap come through whole; a longer one is reported once and
    /// skipped to its newline, whether the newline shares its chunk or comes later,
    /// and the lines after it are read normally. The unterminated tail before EOF is
    /// a line too.
    #[test]
    fn line_reader_caps_lines_and_skips_the_rest_of_an_overlong_one() {
        let input = b"abcd\nabcde\nok\nabcdefghijklmnop\nlast";
        for capacity in [1, 3, 64] {
            let reader = std::io::BufReader::with_capacity(capacity, &input[..]);
            let mut lines = LineReader::new(reader, 4);
            let mut seen = Vec::new();
            while let Some(line) = lines.next_line().expect("in-memory reads succeed") {
                seen.push(line);
            }
            assert_eq!(
                seen,
                vec![
                    Line::Request(b"abcd".to_vec()),
                    Line::Overlong,
                    Line::Request(b"ok".to_vec()),
                    Line::Overlong,
                    Line::Request(b"last".to_vec()),
                ],
                "buffer capacity {capacity}"
            );
        }
    }

    #[test]
    fn malformed_lines_become_error_envelopes() {
        let service = ServeService::new(&ServeConfig::default());
        for line in [
            "not json",
            "[1,2]",
            "{\"id\":1}",
            "{\"id\":1,\"kind\":\"nope\"}",
            "{\"id\":1,\"kind\":\"run\"}",
            "{\"id\":1,\"kind\":\"run\",\"request\":{\"bad\":true}}",
        ] {
            let response = service.handle(line);
            assert!(response.contains("\"error\""), "{line} -> {response}");
        }
    }

    #[test]
    fn stats_and_shutdown_requests_are_served_inline() {
        let service = ServeService::new(&ServeConfig::default());
        let stats = service.handle("{\"id\":\"s\",\"kind\":\"stats\"}");
        assert!(stats.contains("\"hits\""), "{stats}");
        assert!(!service.shutdown_requested());
        let bye = service.handle("{\"id\":\"q\",\"kind\":\"shutdown\"}");
        assert!(bye.contains("shutting down"), "{bye}");
        assert!(service.shutdown_requested());
    }

    #[test]
    fn corpus_requests_warm_the_cache_across_handle_calls() {
        let request = CorpusRequest::new(vec![
            ProgramSource::Workload("adpcmdecode".into()),
            ProgramSource::Workload("adpcmdecode".into()),
        ]);
        let line = json::to_string(&json::Value::Object(vec![
            ("id".to_string(), json::to_value(&1u64)),
            ("kind".to_string(), json::Value::Str("corpus".to_string())),
            ("request".to_string(), json::to_value(&request)),
        ]));
        let service = ServeService::new(&ServeConfig::default());
        let cold = service.handle(&line);
        let fills_after_cold = service.cache_stats().fills;
        assert!(fills_after_cold > 0);
        let warm = service.handle(&line);
        assert_eq!(cold, warm, "warm answers must be byte-identical");
        assert_eq!(
            service.cache_stats().fills,
            fills_after_cold,
            "the warm request must not enumerate again"
        );
    }
}
