//! Persistent serve mode: a long-running JSONL request server with a warm,
//! process-lifetime cut-pool cache and on-disk snapshots.
//!
//! The one-shot CLI pays the full enumeration cost on every invocation even when
//! consecutive invocations analyse structurally identical code. Serve mode keeps
//! the process — and with it the [`WarmPoolCache`] of canonical Pareto fills —
//! alive across requests, so the second request that sees a known
//! `(structural key, exclusion state, budget group)` answers from memory, and a
//! repeated `run` or `sweep` payload or `corpus` source answers from an outcome
//! slot without searching at all (see [`ServeService`]). Because canonical fills
//! are schedule-independent and outcome slots are keyed by the exact request
//! bytes, every served response is **byte-identical** to what the one-shot
//! [`BatchService`]/[`Session`](crate::Session) paths produce, cold or warm.
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
//! Each open connection holds one reader thread, so live connections are capped
//! at [`ServeConfig::max_connections`]: `workers + queue_capacity`, the most
//! requests the server can hold at once, so that every live connection can have
//! one request queued or executing. A connection accepted past the cap gets one
//! `"server busy"` error line (id `null`) and is closed; a slot frees when its
//! reader exits.
//!
//! # Transport
//!
//! Every response line, newline included, leaves in one `write_all` of one
//! buffer, and every accepted socket has `TCP_NODELAY` set. A line written in two
//! parts on a Nagle socket holds its second part back until the client
//! acknowledges the first, and clients delay that acknowledgement by up to
//! ~40 ms: a warm request whose work takes 2 ms would cost 44. With one write and
//! no Nagle delay, a round trip costs its work plus the loopback hop.
//!
//! The listener blocks in `accept`, so a new connection is read as soon as it
//! arrives. A watcher thread polls the stop flags and the snapshot interval every
//! 20 ms; on stop it wakes the blocked `accept` with one loopback connection,
//! which the accept loop drops.
//!
//! # Persistence
//!
//! With a cache directory configured, the cache warm-starts on boot from
//! `<dir>/`[`SNAPSHOT_FILE`] and is written back on shutdown (and every
//! [`ServeConfig::snapshot_interval`], if set). Snapshots are versioned and
//! checksummed; a corrupt, truncated or mismatched file falls back to a cold
//! start rather than erroring.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ise_core::{
    IseError, ProgramOutcome, WarmCacheConfig, WarmCacheStats, WarmPoolCache, SNAPSHOT_FILE,
};

use crate::batch::{validate_corpus, BatchService};
use crate::json;
use crate::request::{
    CorpusProgramOutcome, CorpusRequest, CorpusResponse, IseRequest, IseResponse, SweepPairOutcome,
    SweepRequest, SweepResponse,
};
use crate::session::SessionBuilder;

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
    /// Byte budget of the warm cache; least-recently-used slots are evicted
    /// beyond it. `None` means unbounded. 256 MiB by default, so a long-lived
    /// server fed ever new requests keeps its memory bounded.
    pub cache_bytes: Option<u64>,
    /// Directory for the on-disk cache snapshot; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Also snapshot the cache periodically while serving, not only on shutdown.
    pub snapshot_interval: Option<Duration>,
}

impl ServeConfig {
    /// The most connections served at once: one per request the server can hold
    /// (`workers` executing plus `queue_capacity` queued). See the module
    /// documentation.
    #[must_use]
    pub fn max_connections(&self) -> usize {
        self.workers.max(1) + self.queue_capacity
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            segments: 16,
            cache_bytes: Some(256 << 20),
            cache_dir: None,
            snapshot_interval: None,
        }
    }
}

/// The request dispatcher of serve mode: parses one JSONL request line, routes
/// it to the one-shot execution paths, and serialises the enveloped response.
///
/// Owns the process-lifetime [`WarmPoolCache`]; `corpus` requests run through
/// the one-shot corpus body against it, so fills accumulated by one request warm
/// every later one, and `run` and `sweep` requests run through
/// [`Session`](crate::Session) as their one-shot counterparts do. The service is
/// [`Server`]'s brain but has no I/O of its own — benchmarks call
/// [`handle`](Self::handle) directly to measure dispatch without TCP.
///
/// # Outcome hits
///
/// Answers seen before come from the cache's outcome slots
/// ([`WarmPoolCache::lookup_outcome`]) without resolving, searching or reporting
/// again (see the [`WarmPoolCache`] module docs for why byte equality is exact).
/// The typed decode and the request checks run first either way, so every error
/// reads as on the one-shot path, and a failed request records nothing.
///
/// * A `run` or `sweep` payload's slot key is its kind plus the raw text of its
///   `request` value. A `run` slot holds the one program's outcome and a `sweep`
///   slot one outcome per pair, in request order; the response is rebuilt from
///   the slot, the session's algorithm name and the request's constraints.
/// * A `corpus` source's slot key is the raw text of its element of `programs`
///   plus the raw text of every other top-level field of the request. A request
///   whose every source hits is assembled from the slots; otherwise only the
///   missed sources run, in request order, and their outcomes are recorded for the
///   next request. A request with a `templates` budget bypasses the slots, since
///   template selection is corpus-global.
///
/// The response bytes are the one-shot bytes either way.
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
        self.answer(line, Envelope::scan(line))
    }

    /// Handles a line whose envelope was already scanned; a line that did not
    /// scan gets the error [`line_error`] words.
    fn answer(&self, line: &str, envelope: Option<Envelope>) -> String {
        self.handled.fetch_add(1, Ordering::Relaxed);
        let Some(envelope) = envelope else {
            return respond(&json::Value::Null, Err(line_error(line)));
        };
        respond(&envelope.id, self.dispatch(line, &envelope))
    }

    /// Routes one request by its `kind`.
    fn dispatch(&self, line: &str, envelope: &Envelope) -> Result<json::Value, IseError> {
        let request = envelope.request.clone().map(|range| &line[range]);
        let Some(kind) = envelope.kind.as_deref() else {
            return Err(IseError::InvalidRequest(
                "a request line needs a string `kind` \
                 (run | sweep | corpus | stats | shutdown)"
                    .to_string(),
            ));
        };
        match kind {
            "run" => self.run(request),
            "sweep" => self.sweep(request),
            "corpus" => self.corpus(request, line, envelope.fields.as_deref()),
            "stats" => Ok(json::to_value(&self.cache.stats())),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok(json::Value::Str("shutting down".to_string()))
            }
            other => Err(IseError::InvalidRequest(format!(
                "unknown request kind `{other}` \
                 (expected run | sweep | corpus | stats | shutdown)"
            ))),
        }
    }

    /// Answers one `run` request, a repeat of a known payload from its outcome slot
    /// (see the type documentation).
    fn run(&self, text: Option<&str>) -> Result<json::Value, IseError> {
        let request = payload::<IseRequest>(text, "run")?;
        let session = SessionBuilder::from_request(&request).build()?;
        let programs = self.outcome_or_else(payload_key("run", text), || {
            let response = session.run(&request.program.resolve()?)?;
            Ok(vec![(
                response.program,
                response.selection,
                response.report,
            )])
        })?;
        // A `run` slot holds the one program the request ran.
        let (program, selection, report) = programs[0].clone();
        Ok(json::to_value(&IseResponse {
            program,
            algorithm: session.algorithm().to_string(),
            constraints: request.constraints,
            selection,
            report,
        }))
    }

    /// Answers one `sweep` request, a repeat of a known payload from its outcome
    /// slot (see the type documentation). The sweep planner statistics are one-shot
    /// stderr diagnostics; the served envelope carries only the deterministic
    /// response, exactly like the one-shot CLI.
    fn sweep(&self, text: Option<&str>) -> Result<json::Value, IseError> {
        let request = payload::<SweepRequest>(text, "sweep")?;
        let session = SessionBuilder::from_request(&request.request).build()?;
        let programs = self.outcome_or_else(payload_key("sweep", text), || {
            let program = request.request.program.resolve()?;
            let (response, _stats) = session.sweep(&program, &request.sweep)?;
            let name = response.program;
            let pairs = response.pairs.into_iter();
            Ok(pairs
                .map(|pair| (name.clone(), pair.selection, pair.report))
                .collect())
        })?;
        let pairs = request.sweep.iter().zip(programs.iter());
        let pairs = pairs.map(|(&constraints, (_, selection, report))| SweepPairOutcome {
            constraints,
            selection: selection.clone(),
            report: report.clone(),
        });
        // A `sweep` slot holds one outcome per pair, and a sweep has at least one.
        Ok(json::to_value(&SweepResponse {
            program: programs[0].0.clone(),
            algorithm: session.algorithm().to_string(),
            pairs: pairs.collect(),
        }))
    }

    /// The outcomes recorded under `key`, or else `compute`'s, recorded for the
    /// next request. A failed computation records nothing.
    fn outcome_or_else(
        &self,
        key: Vec<u8>,
        compute: impl FnOnce() -> Result<Vec<ProgramOutcome>, IseError>,
    ) -> Result<Arc<[ProgramOutcome]>, IseError> {
        if let Some(programs) = self.cache.lookup_outcome(&key) {
            return Ok(programs);
        }
        let programs: Arc<[ProgramOutcome]> = compute()?.into();
        self.cache.record_outcome(key, Arc::clone(&programs));
        Ok(programs)
    }

    /// Answers one `corpus` request, each known source from its outcome slot (see
    /// the type documentation).
    ///
    /// The typed decode and the corpus checks run first, so every error reads as
    /// on the one-shot path. A request with a `templates` budget, or whose payload
    /// `fields` give no keys, runs whole through [`BatchService::run_corpus_cached`].
    /// Otherwise the sources whose slots miss run, once per distinct key and in
    /// request order, through the one-shot corpus body, and their outcomes are
    /// recorded. A miss that fails to resolve fails the request with the error the
    /// one-shot path gives, since every source before it resolved when it was
    /// recorded.
    fn corpus(
        &self,
        text: Option<&str>,
        line: &str,
        fields: Option<&PayloadFields>,
    ) -> Result<json::Value, IseError> {
        let mut request = payload::<CorpusRequest>(text, "corpus")?;
        validate_corpus(&request)?;
        // A payload the typed decode accepted yields one key per source; the whole
        // run stays the answer should the two ever disagree.
        let keys = fields
            .filter(|_| request.templates.is_none())
            .and_then(|fields| outcome_keys(line, fields))
            .filter(|keys| keys.len() == request.programs.len());
        let Some(keys) = keys else {
            return self
                .batch
                .run_corpus_cached(&request, &self.cache)
                .map(|(response, _stats, _shards)| json::to_value(&response));
        };
        let mut answers: Vec<Option<Arc<[ProgramOutcome]>>> = keys
            .iter()
            .map(|key| self.cache.lookup_outcome(key))
            .collect();
        // The first missed source under each key: later copies share its answer.
        let mut first: HashMap<&[u8], usize> = HashMap::new();
        for (index, key) in keys.iter().enumerate() {
            if answers[index].is_none() {
                first.entry(key.as_slice()).or_insert(index);
            }
        }
        let mut missed: Vec<usize> = first.values().copied().collect();
        missed.sort_unstable();
        if !missed.is_empty() {
            let sources = std::mem::take(&mut request.programs)
                .into_iter()
                .enumerate();
            request.programs = sources
                .filter(|(index, _)| missed.binary_search(index).is_ok())
                .map(|(_, source)| source)
                .collect();
            let mut per_source = Vec::with_capacity(missed.len());
            let (response, _stats, _shards) =
                self.batch
                    .execute_corpus(&request, &self.cache, None, &mut per_source)?;
            let mut computed = response.programs.into_iter();
            for (&index, count) in missed.iter().zip(per_source) {
                let programs: Arc<[ProgramOutcome]> = computed
                    .by_ref()
                    .take(count)
                    .map(|outcome| (outcome.program, outcome.selection, outcome.report))
                    .collect();
                self.cache
                    .record_outcome(keys[index].clone(), Arc::clone(&programs));
                answers[index] = Some(programs);
            }
        }
        let mut programs = Vec::new();
        for (index, key) in keys.iter().enumerate() {
            let answer = answers[index].as_ref().or_else(|| {
                let first = first[key.as_slice()];
                answers[first].as_ref()
            });
            let answer = answer.expect("every missed source is answered");
            programs.extend(answer.iter().map(|(program, selection, report)| {
                CorpusProgramOutcome {
                    program: program.clone(),
                    selection: selection.clone(),
                    report: report.clone(),
                }
            }));
        }
        Ok(json::to_value(&CorpusResponse {
            constraints: request.constraints,
            programs,
            templates: None,
        }))
    }
}

/// The outcome-slot key of every source of a `corpus` payload, in request order,
/// or `None` when the payload has no `programs` array.
///
/// A key joins the raw text of every top-level field but the first `programs` —
/// each key name and value, in line order, unknown keys included — with the raw
/// text of the source's own element. Equal bytes decode to equal values, and a
/// program's outcome depends only on its source and those fields, so equal keys
/// have equal outcomes; a byte-different but equal payload simply misses.
fn outcome_keys(line: &str, fields: &PayloadFields) -> Option<Vec<Vec<u8>>> {
    let mut shared = Vec::new();
    for (key, value) in &fields.others {
        push_part(&mut shared, key.as_bytes());
        push_part(&mut shared, line[value.clone()].as_bytes());
    }
    let keys = fields.programs.as_ref()?.iter().map(|element| {
        let mut key = Vec::with_capacity(8 + shared.len() + element.len());
        push_part(&mut key, &shared);
        key.extend_from_slice(line[element.clone()].as_bytes());
        key
    });
    Some(keys.collect())
}

/// The outcome-slot key of a `run` or `sweep` payload: the kind, then the raw text
/// of the payload. Equal bytes decode to equal requests, and a run or a sweep is a
/// pure function of its request, so equal keys have equal answers. The kind is
/// needed because unknown keys are skipped, so one payload text can decode as
/// either kind; its length prefix (3 or 5) also keeps these keys apart from every
/// corpus key, whose first eight bytes read 0 or at least 16.
fn payload_key(kind: &str, text: Option<&str>) -> Vec<u8> {
    let text = text.unwrap_or_default();
    let mut key = Vec::with_capacity(8 + kind.len() + text.len());
    push_part(&mut key, kind.as_bytes());
    key.extend_from_slice(text.as_bytes());
    key
}

/// Skips the next value and returns where it lies in the text.
fn value_span(reader: &mut serde::json::Reader<'_>) -> Result<Range<usize>, serde::Error> {
    reader.peek();
    let start = reader.position();
    reader.skip()?;
    Ok(start..reader.position())
}

/// Appends `bytes` with a length prefix, so the parts of a key never run together.
fn push_part(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// The top-level fields of one request line, found in one pass that skips every
/// value but `id` and `kind`. As in the tree decode, the first occurrence of each
/// key is the one that counts.
struct Envelope {
    /// The `id` to echo (`null` when absent).
    id: json::Value,
    /// The `kind`, when it is a string.
    kind: Option<String>,
    /// Where the `request` value lies in the line; it is decoded once `kind` is
    /// known, wherever `kind` comes in the line.
    request: Option<Range<usize>>,
    /// The top-level fields of the `request` value, when it is an object (boxed,
    /// so a queued job stays small).
    fields: Option<Box<PayloadFields>>,
}

/// Where the top-level fields of a request payload lie in its line, in line order:
/// the elements of the first `programs` when it is an array, and every other
/// field's key and value. A `corpus` request builds its outcome-slot keys from them.
#[derive(Default)]
struct PayloadFields {
    programs: Option<Vec<Range<usize>>>,
    others: Vec<(String, Range<usize>)>,
}

impl PayloadFields {
    /// Scans the object at the reader, checking its syntax exactly as `skip` does.
    fn scan(reader: &mut serde::json::Reader<'_>) -> Result<PayloadFields, serde::Error> {
        let mut fields = PayloadFields::default();
        let mut first_programs = true;
        reader.object(|reader, key| {
            if key == "programs" && std::mem::take(&mut first_programs) {
                if reader.peek() != Some(b'[') {
                    return reader.skip();
                }
                let mut elements = Vec::new();
                reader.array(|reader| {
                    elements.push(value_span(reader)?);
                    Ok(())
                })?;
                fields.programs = Some(elements);
            } else {
                fields.others.push((key.into_owned(), value_span(reader)?));
            }
            Ok(())
        })?;
        Ok(fields)
    }
}

impl Envelope {
    /// Scans one line; `None` exactly when the line is not valid JSON or not an
    /// object, since the scan applies the tree parser's syntax rules and depth limit
    /// and reading `id` or `kind` as a [`json::Value`] can only fail on syntax.
    fn scan(line: &str) -> Option<Envelope> {
        let mut reader = serde::json::Reader::new(line);
        if reader.peek() != Some(b'{') {
            return None;
        }
        let (mut id, mut kind, mut request, mut fields) = (None, None, None, None);
        reader
            .object(|reader, key| match &*key {
                "id" => reader.field(&mut id),
                "kind" => reader.field(&mut kind),
                "request" if request.is_none() => {
                    let first = reader.peek();
                    let start = reader.position();
                    if first == Some(b'{') {
                        fields = Some(Box::new(PayloadFields::scan(reader)?));
                    } else {
                        reader.skip()?;
                    }
                    request = Some(start..reader.position());
                    Ok(())
                }
                _ => reader.skip(),
            })
            .ok()?;
        reader.finish().ok()?;
        Some(Envelope {
            id: id.unwrap_or(json::Value::Null),
            kind: match kind {
                Some(json::Value::Str(kind)) => Some(kind),
                _ => None,
            },
            request,
            fields,
        })
    }
}

/// Words the error of a line that did not scan as an envelope: the tree parser's
/// syntax error, or the object rule when the line is JSON of another shape.
fn line_error(line: &str) -> IseError {
    match json::parse(line) {
        Err(error) => IseError::Serialization(format!("cannot parse request line: {error}")),
        Ok(_) => IseError::InvalidRequest("a request line must be a JSON object".to_string()),
    }
}

/// Deserialises the `request` payload of one envelope, with the tree decode's
/// result and error text.
fn payload<T: serde::DeserializeOwned>(field: Option<&str>, kind: &str) -> Result<T, IseError> {
    let Some(text) = field else {
        return Err(IseError::InvalidRequest(format!(
            "a `{kind}` request needs a `request` payload"
        )));
    };
    serde::json::from_str(text)
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

/// The queue-full error response for one request line (best-effort id echo).
fn busy_response(envelope: Option<&Envelope>) -> String {
    let id = envelope.map_or(json::Value::Null, |e| e.id.clone());
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

/// The error response for a request line that is not valid UTF-8.
fn invalid_utf8_response() -> String {
    let error = IseError::Serialization("request line is not valid UTF-8".into());
    respond(&json::Value::Null, Err(error))
}

/// The error line of a connection accepted past [`ServeConfig::max_connections`].
fn too_many_connections_response(cap: usize) -> String {
    respond(
        &json::Value::Null,
        Err(IseError::InvalidRequest(format!(
            "server busy: {cap} connections are open, retry later"
        ))),
    )
}

/// One accepted request waiting for a worker: the raw line, its scanned envelope
/// and the (shared) write half of the connection it arrived on.
struct Job {
    line: String,
    envelope: Option<Envelope>,
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

/// Writes one response line to a connection as one buffer, newline included, so
/// that it normally costs one `write` call (see the module documentation's
/// transport section). Errors are ignored: a client that hung up forfeits its
/// response, the server keeps serving.
fn write_line<W: Write>(peer: &Mutex<W>, mut response: String) {
    response.push('\n');
    let mut stream = peer.lock().expect("connection writer poisoned");
    let _ = stream.write_all(response.as_bytes());
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
    /// Propagates the bind error.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
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
    /// Returns the listener's address error or the first fatal `accept` error;
    /// per-connection I/O errors only end that connection.
    pub fn run(&self, stop: &AtomicBool) -> std::io::Result<()> {
        let wake = loopback(self.listener.local_addr()?);
        let queue = Arc::new(JobQueue::new(self.config.queue_capacity));
        let halt = Arc::new(AtomicBool::new(false));
        let accepting = AtomicBool::new(true);
        let cap = self.config.max_connections();
        let live = Arc::new(AtomicUsize::new(0));
        let mut accept_error: Option<std::io::Error> = None;
        std::thread::scope(|scope| {
            scope.spawn(|| self.watch(stop, &halt, &accepting, wake));
            for _ in 0..self.config.workers.max(1) {
                let queue = Arc::clone(&queue);
                let halt = Arc::clone(&halt);
                let service = Arc::clone(&self.service);
                scope.spawn(move || {
                    while let Some(job) = queue.pop(&halt) {
                        write_line(&job.peer, service.answer(&job.line, job.envelope));
                    }
                });
            }
            loop {
                match self.listener.accept() {
                    // The watcher's wake-up, or a client that raced it: either way
                    // the server has stopped accepting.
                    Ok(_) if halt.load(Ordering::SeqCst) => break,
                    Ok((stream, _)) if live.load(Ordering::SeqCst) >= cap => {
                        refuse_connection(stream, cap);
                    }
                    Ok((stream, _)) => {
                        live.fetch_add(1, Ordering::SeqCst);
                        let slot = ConnectionSlot(Arc::clone(&live));
                        let queue = Arc::clone(&queue);
                        let halt = Arc::clone(&halt);
                        let service = Arc::clone(&self.service);
                        scope.spawn(move || {
                            read_connection(stream, &service, &queue, &halt);
                            // Moved into the reader, so the slot frees as it exits.
                            drop(slot);
                        });
                    }
                    Err(error) => {
                        accept_error = Some(error);
                        break;
                    }
                }
            }
            halt.store(true, Ordering::SeqCst);
            accepting.store(false, Ordering::SeqCst);
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

    /// The watcher thread of [`run`](Self::run): every [`WATCH_POLL`] it checks
    /// `stop` and the `shutdown` request and takes the periodic snapshot. On stop it
    /// sets `halt` and wakes the blocked `accept` with one connection to `wake`,
    /// retried while the accept loop runs and the connect fails. A fatal `accept`
    /// error sets `halt` itself and ends the watcher at its next poll.
    fn watch(
        &self,
        stop: &AtomicBool,
        halt: &AtomicBool,
        accepting: &AtomicBool,
        wake: SocketAddr,
    ) {
        let mut last_snapshot = Instant::now();
        while !halt.load(Ordering::SeqCst) {
            if stop.load(Ordering::SeqCst) || self.service.shutdown_requested() {
                halt.store(true, Ordering::SeqCst);
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
            std::thread::sleep(WATCH_POLL);
        }
        while accepting.load(Ordering::SeqCst)
            && TcpStream::connect_timeout(&wake, WATCH_POLL).is_err()
        {
            std::thread::sleep(WATCH_POLL);
        }
    }
}

/// How often the watcher thread checks the stop flags and the snapshot interval.
const WATCH_POLL: Duration = Duration::from_millis(20);

/// The address a local client reaches `bound` at: the loopback address of the
/// same family when the listener is bound to the unspecified address.
fn loopback(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// One live connection's share of [`ServeConfig::max_connections`], released when
/// its reader exits (panics included).
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers a connection accepted past the cap with one error line and closes it.
/// The write half is shut first, so the client reads the line, then EOF.
fn refuse_connection(mut stream: TcpStream, cap: usize) {
    let _ = stream.write_all(format!("{}\n", too_many_connections_response(cap)).as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
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
        .and_then(|()| stream.set_nodelay(true))
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
            Ok(Some(Line::Overlong)) => write_line(&peer, overlong_response()),
            Ok(Some(Line::Request(bytes))) => {
                let Ok(line) = String::from_utf8(bytes) else {
                    write_line(&peer, invalid_utf8_response());
                    continue;
                };
                let text = line.trim();
                if text.is_empty() {
                    continue;
                }
                // Classified by the first `kind` key, the one `dispatch` answers.
                let envelope = Envelope::scan(text);
                match envelope.as_ref().and_then(|e| e.kind.as_deref()) {
                    Some("stats" | "shutdown") => {
                        write_line(&peer, service.answer(text, envelope));
                    }
                    _ => {
                        let job = Job {
                            line: text.to_string(),
                            envelope,
                            peer: Arc::clone(&peer),
                        };
                        if let Err(job) = queue.try_push(job) {
                            write_line(&job.peer, busy_response(job.envelope.as_ref()));
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
    use crate::session::Session;

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

    /// A [`Write`] that records each `write` call it receives.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every kind of response line the server writes, answered, busy, overlong or
    /// not UTF-8, leaves in exactly one `write` call carrying the line and its
    /// newline: a second, small write would wait on the client's delayed ACK.
    #[test]
    fn every_response_line_is_one_write() {
        let service = ServeService::new(&ServeConfig::default());
        let stats = "{\"id\":\"s\",\"kind\":\"stats\"}";
        let run = run_line(3);
        for response in [
            service.answer(stats, Envelope::scan(stats)),
            service.answer(&run, Envelope::scan(&run)),
            service.answer("not json", Envelope::scan("not json")),
            busy_response(Envelope::scan(&run).as_ref()),
            busy_response(None),
            overlong_response(),
            invalid_utf8_response(),
        ] {
            let peer = Mutex::new(RecordingWriter::default());
            write_line(&peer, response.clone());
            let writes = peer.into_inner().expect("unpoisoned").writes;
            assert_eq!(writes, vec![format!("{response}\n").into_bytes()]);
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

    /// A line scans as an envelope exactly when the tree parser reads it as an
    /// object, so the line-level errors are the only ones left to the tree.
    #[test]
    fn a_line_scans_exactly_when_it_parses_to_an_object() {
        let nested = |depth: usize| {
            format!(
                "{{\"id\":1,\"x\":{}0{},\"kind\":\"stats\"}}",
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        let mut lines: Vec<String> = [
            "",
            "   ",
            "not json",
            "[1,2]",
            "7",
            "\"kind\"",
            "{}",
            " {\"id\":1} ",
            "{\"id\":1}{}",
            "{\"id\":1,}",
            "{\"id\":01,\"kind\":\"stats\"}",
            "{\"id\":1,\"kind\":\"stats\",\"x\":1e}",
            "{\"id\":1,\"kind\":\"stats\",\"x\":\"\\q\"}",
            "{\"id\":\"\\ud800\",\"kind\":\"stats\"}",
            "{\"id\":[1,{\"a\":null}],\"kind\":7,\"kind\":\"stats\"}",
            "{\"request\":{\"bad\":tru},\"kind\":\"run\"}",
            "{\"request\":{},\"request\":[,],\"kind\":\"run\"}",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        lines.extend((126..=129).map(nested));
        for line in &lines {
            let parses_to_object = matches!(json::parse(line), Ok(json::Value::Object(_)));
            assert_eq!(Envelope::scan(line).is_some(), parses_to_object, "{line}");
        }
    }

    /// A source's outcome key holds its own element and every other top-level field
    /// of the payload, byte for byte, and nothing else: not the other sources, not
    /// where `programs` sits, not the whitespace between fields.
    #[test]
    fn outcome_keys_hold_the_source_and_every_other_field() {
        let keys = |payload: &str| {
            let line = format!("{{\"kind\":\"corpus\",\"request\":{payload}}}");
            let envelope = Envelope::scan(&line).expect("an object line");
            envelope
                .fields
                .and_then(|fields| outcome_keys(&line, &fields))
        };
        let gsm = r#"{"Workload":"gsm"}"#;
        let crc = r#"{"Workload":"crc32"}"#;
        let base = keys(&format!(r#"{{"programs":[{gsm},{crc}],"dedup":true}}"#))
            .expect("a programs array");
        assert_ne!(base[0], base[1]);
        let moved = format!(r#"{{ "dedup" : true , "programs" : [ {crc} , {gsm} , {gsm} ] }}"#);
        let moved = keys(&moved).expect("a programs array");
        assert_eq!(moved, [base[1].clone(), base[0].clone(), base[0].clone()]);
        for other in [
            format!(r#"{{"programs":[{gsm}],"dedup":false}}"#),
            format!(r#"{{"programs":[{gsm}],"dedup":true,"x":1}}"#),
            format!(r#"{{"programs":[{gsm}],"dedup":true,"programs":[]}}"#),
            r#"{"programs":[{"Workload": "gsm"}],"dedup":true}"#.to_string(),
        ] {
            let key = keys(&other).expect("a programs array");
            assert_ne!(key[0], base[0], "{other}");
        }
        assert_eq!(keys("[1]"), None, "a payload that is not an object");
        assert_eq!(
            keys(r#"{"programs":7,"programs":[{"Workload":"gsm"}]}"#),
            None
        );
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
