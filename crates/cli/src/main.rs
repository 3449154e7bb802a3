//! `ise-cli` — the process-boundary entry point of the ISE stack.
//!
//! Request files are JSON (see `requests/adpcm.json` in the repository root for a
//! checked-in example); everything the in-process [`ise_api`] surface accepts is
//! expressible in a file, and the emitted responses are byte-identical to what
//! [`ise_api::Session::run`] produces in-process.
//!
//! ```text
//! ise-cli run <request.json>    execute one request, print one response
//! ise-cli batch <requests.json> execute an array of requests, print an array of
//!                               outcomes ({"response": …} | {"error": …}), ordered
//! ise-cli sweep <sweep.json>    execute one sweep request (a base request plus a
//!                               list of (Nin, Nout) pairs), print one response
//! ise-cli corpus <dir|list>     analyse a whole corpus of programs together (a
//!                               directory of program `.json`/`.ll` files, or a
//!                               corpus request file), print one response
//! ise-cli serve                 long-running JSONL TCP server with a warm
//!                               cross-request cut-pool cache and disk snapshots
//! ise-cli client <addr> <file>  send a JSONL request file to a running server
//!                               and print its responses
//! ise-cli algorithms            list the registered identification algorithms
//! ```
//!
//! `run --ll kernel.ll` / `sweep --ll kernel.ll` take the program from a textual
//! LLVM IR file (lowered by the dependency-free [`ise_frontend`](ise_api) parser)
//! instead of a JSON request; combined with a request file, `--ll` replaces the
//! request's program and keeps every other knob. In corpus directory mode `.ll`
//! files participate next to `.json` programs (lexicographic name order); a file
//! that fails to parse is reported on stderr with its `file:line:column` and the
//! rest of the corpus still runs (exit code `2`).
//!
//! Flags: `--pretty` for indented output, `-o FILE` to write the output to a file,
//! `--threads N` to run `run`/`batch`/`sweep`/`corpus` inside a scoped `rayon` pool
//! of `N` workers (results are byte-identical for every thread count — the flag only
//! trades wall-clock for cores, across requests, across basic blocks, and inside the
//! split pool fills of a sweep's large blocks).
//!
//! `sweep` answers covered pairs from a memoised cut pool by default; `--direct`
//! forces the reference per-pair searches (the emitted response is byte-identical in
//! both modes). `corpus` shares enumeration work between structurally isomorphic
//! basic blocks across the whole corpus by default; `--no-dedup` forces the
//! reference per-program searches (again byte-identical), and `--stream N` runs the
//! corpus with at most `N` programs resident at once (bounded memory, identical
//! response). For both commands
//! `--stats` prints the effort accounting ([`SweepStats`](ise_api::SweepStats) /
//! [`CorpusStats`](ise_api::CorpusStats)) as one JSON line to stderr — stdout stays
//! byte-identical with and without the flag; `corpus --stats` also reports how the
//! work-stealing scheduler distributed the programs across shards.
//! `serve` keeps the process — and its warm cut-pool cache — alive across requests:
//! one JSON object per line over TCP (`{"id": …, "kind": "run" | "sweep" | "corpus" |
//! "stats" | "shutdown", "request": …}`), answered with `{"id": …, "response": …}`
//! envelopes whose payloads are byte-identical to the one-shot commands, cold or
//! warm. `--addr HOST:PORT` picks the socket (port `0` for an ephemeral port; the
//! bound address is printed as one JSON line on stdout), `--workers`/`--queue` size
//! the worker pool and the bounded backpressure queue, and `--cache-dir` enables
//! warm-start snapshots (written on shutdown and every `--snapshot-secs`, loaded on
//! boot, falling back to a cold start when damaged). SIGTERM/SIGINT drain in-flight
//! work before exiting. `client` is the matching sender for scripts and soak tests.
//!
//! Exit codes: `0` success, `1` usage or file error, `2` at least one request in a
//! batch (or the single `run`/`sweep`/`corpus` request) failed — for `client`, at
//! least one response line carried an `"error"` envelope, or the server closed the
//! connection before answering every request (a truncated final line counts as
//! unanswered, never as a response).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ise_api::{json, BatchService, IseError, IseRequest, Session};

/// Parsed command-line options.
struct Options {
    pretty: bool,
    output: Option<String>,
    threads: Option<usize>,
    direct: bool,
    no_dedup: bool,
    stats: bool,
    ll: Option<String>,
    stream: Option<usize>,
    templates: Option<f64>,
    addr: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    segments: Option<usize>,
    cache_bytes: Option<u64>,
    cache_dir: Option<String>,
    snapshot_secs: Option<u64>,
    positional: Vec<String>,
}

fn usage() -> &'static str {
    "usage: ise-cli <command> [options]\n\
     \n\
     commands:\n\
     \x20 run <request.json>     execute one identification request\n\
     \x20 batch <requests.json>  execute an array of requests (ordered, parallel)\n\
     \x20 sweep <sweep.json>     execute one sweep request (one result per (Nin, Nout)\n\
     \x20                        pair, answered from a memoised cut pool)\n\
     \x20 corpus <dir|list>      analyse a corpus of programs together (a directory\n\
     \x20                        of program .json/.ll files, or a corpus request\n\
     \x20                        file), sharing work between isomorphic blocks\n\
     \x20 serve                  long-running JSONL TCP server with a warm\n\
     \x20                        cross-request cut-pool cache and disk snapshots\n\
     \x20 client <addr> <file>   send a JSONL request file to a running server and\n\
     \x20                        print its responses (one per request line)\n\
     \x20 algorithms             list the registered identification algorithms\n\
     \n\
     options:\n\
     \x20 --pretty               indent the JSON output\n\
     \x20 -o, --output FILE      write the output to FILE instead of stdout\n\
     \x20 --threads N            size of the rayon worker pool for run/batch/sweep/\n\
     \x20                        corpus (N >= 1; output is identical for every N)\n\
     \x20 --direct               sweep only: force the reference per-pair searches\n\
     \x20                        (the response is byte-identical to the pool mode)\n\
     \x20 --no-dedup             corpus only: force the reference per-program\n\
     \x20                        searches (the response is byte-identical to the\n\
     \x20                        deduplicated mode)\n\
     \x20 --stats                sweep/corpus: print the effort accounting as one\n\
     \x20                        JSON line to stderr (stdout is unchanged); corpus\n\
     \x20                        also prints MaxMISO/Clubbing baseline comparison\n\
     \x20                        rows\n\
     \x20 --ll FILE              run/sweep: take the program from a textual LLVM IR\n\
     \x20                        (.ll) file; without a request file, runs the\n\
     \x20                        single-cut search under default constraints (run)\n\
     \x20                        or the paper (Nin, Nout) sweep (sweep)\n\
     \x20 --stream N             corpus only: keep at most N programs resident at\n\
     \x20                        once (bounded memory; the response is byte-\n\
     \x20                        identical to the batch run)\n\
     \x20 --templates AREA       corpus only: also select cross-site instruction\n\
     \x20                        templates (isomorphic cuts grouped across blocks\n\
     \x20                        and programs) under a global area budget, reported\n\
     \x20                        in a `templates` section of the response; needs\n\
     \x20                        the whole corpus at once, so it conflicts with\n\
     \x20                        --stream\n\
     \x20 --addr HOST:PORT       serve: listening address (default 127.0.0.1:9167;\n\
     \x20                        port 0 picks an ephemeral port, printed on stdout)\n\
     \x20 --workers N            serve: worker threads executing requests (default 2)\n\
     \x20 --queue N              serve: bounded request queue; beyond it requests\n\
     \x20                        are answered `server busy` immediately (default 64)\n\
     \x20 --segments N           serve: lock stripes of the warm cache (default 16)\n\
     \x20 --cache-bytes N        serve: byte budget of the warm cache (LRU eviction\n\
     \x20                        beyond it; default unbounded)\n\
     \x20 --cache-dir DIR        serve: persist the cache to DIR on shutdown and\n\
     \x20                        warm-start from it on boot\n\
     \x20 --snapshot-secs N      serve: also snapshot the cache every N seconds\n"
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        pretty: false,
        output: None,
        threads: None,
        direct: false,
        no_dedup: false,
        stats: false,
        ll: None,
        stream: None,
        templates: None,
        addr: None,
        workers: None,
        queue: None,
        segments: None,
        cache_bytes: None,
        cache_dir: None,
        snapshot_secs: None,
        positional: Vec::new(),
    };
    fn parsed<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
        let Some(value) = value else {
            return Err(format!("{flag} requires a value"));
        };
        value
            .parse()
            .map_err(|_| format!("{flag} expects a number, got `{value}`"))
    }
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--pretty" => options.pretty = true,
            "--direct" => options.direct = true,
            "--no-dedup" => options.no_dedup = true,
            "--stats" => options.stats = true,
            "--ll" => {
                let Some(path) = iter.next() else {
                    return Err(format!("{arg} requires a .ll file path"));
                };
                options.ll = Some(path.clone());
            }
            "-o" | "--output" => {
                let Some(path) = iter.next() else {
                    return Err(format!("{arg} requires a file path"));
                };
                options.output = Some(path.clone());
            }
            "--threads" => {
                let count: usize = parsed(arg, iter.next())?;
                if count == 0 {
                    return Err("--threads requires at least one thread".to_string());
                }
                options.threads = Some(count);
            }
            "--stream" => {
                let count: usize = parsed(arg, iter.next())?;
                if count == 0 {
                    return Err("--stream requires at least one in-flight program".to_string());
                }
                options.stream = Some(count);
            }
            "--templates" => {
                let area: f64 = parsed(arg, iter.next())?;
                if !area.is_finite() || area <= 0.0 {
                    return Err("--templates requires a positive area budget".to_string());
                }
                options.templates = Some(area);
            }
            "--addr" => {
                let Some(addr) = iter.next() else {
                    return Err(format!("{arg} requires a host:port address"));
                };
                options.addr = Some(addr.clone());
            }
            "--workers" => {
                let count: usize = parsed(arg, iter.next())?;
                if count == 0 {
                    return Err("--workers requires at least one worker".to_string());
                }
                options.workers = Some(count);
            }
            "--queue" => {
                let count: usize = parsed(arg, iter.next())?;
                if count == 0 {
                    return Err("--queue requires capacity for at least one request".to_string());
                }
                options.queue = Some(count);
            }
            "--segments" => {
                let count: usize = parsed(arg, iter.next())?;
                if count == 0 {
                    return Err("--segments requires at least one lock stripe".to_string());
                }
                options.segments = Some(count);
            }
            "--cache-bytes" => options.cache_bytes = Some(parsed(arg, iter.next())?),
            "--snapshot-secs" => {
                let secs: u64 = parsed(arg, iter.next())?;
                if secs == 0 {
                    return Err("--snapshot-secs requires a non-zero interval".to_string());
                }
                options.snapshot_secs = Some(secs);
            }
            "--cache-dir" => {
                let Some(dir) = iter.next() else {
                    return Err(format!("{arg} requires a directory path"));
                };
                options.cache_dir = Some(dir.clone());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            other => options.positional.push(other.to_string()),
        }
    }
    Ok(options)
}

fn read_file(path: &str) -> Result<String, IseError> {
    std::fs::read_to_string(path).map_err(|e| IseError::Io(format!("cannot read `{path}`: {e}")))
}

fn emit(options: &Options, payload: &json::Value) -> Result<(), IseError> {
    let text = if options.pretty {
        json::to_string_pretty(payload)
    } else {
        json::to_string(payload)
    };
    match &options.output {
        Some(path) => std::fs::write(path, text + "\n")
            .map_err(|e| IseError::Io(format!("cannot write `{path}`: {e}"))),
        None => {
            println!("{text}");
            Ok(())
        }
    }
}

/// Wraps one outcome in the `{"response": …} | {"error": …}` envelope.
fn envelope<T: serde::Serialize>(outcome: &Result<T, IseError>) -> json::Value {
    match outcome {
        Ok(response) => {
            json::Value::Object(vec![("response".to_string(), json::to_value(response))])
        }
        Err(error) => json::Value::Object(vec![(
            "error".to_string(),
            json::Value::Str(error.to_string()),
        )]),
    }
}

/// Loads a `.ll` file as a program source (the file path doubles as the program
/// name, so errors and responses point back at the input).
fn ll_source(path: &str) -> Result<ise_api::ProgramSource, IseError> {
    Ok(ise_api::ProgramSource::LlvmIr {
        name: path.to_string(),
        text: read_file(path)?,
    })
}

fn cmd_run(options: &Options, path: Option<&str>) -> Result<bool, IseError> {
    let mut request: IseRequest = match path {
        Some(path) => ise_api::from_json(&read_file(path)?)?,
        // `run --ll kernel.ll` with no request file: the exact single-cut search
        // under default constraints.
        None => IseRequest::new(
            ise_api::Algorithm::SingleCut,
            ll_source(options.ll.as_deref().expect("dispatch guarantees --ll"))?,
        ),
    };
    if path.is_some() {
        if let Some(ll) = &options.ll {
            request.program = ll_source(ll)?;
        }
    }
    let outcome = Session::execute(&request);
    let failed = outcome.is_err();
    emit(options, &envelope(&outcome))?;
    Ok(failed)
}

fn cmd_sweep(options: &Options, path: Option<&str>) -> Result<bool, IseError> {
    let mut request: ise_api::SweepRequest = match path {
        Some(path) => ise_api::from_json(&read_file(path)?)?,
        // `sweep --ll kernel.ll` with no request file: the paper's published
        // (Nin, Nout) pairs on the single-cut search.
        None => ise_api::SweepRequest::paper_sweep(IseRequest::new(
            ise_api::Algorithm::SingleCut,
            ll_source(options.ll.as_deref().expect("dispatch guarantees --ll"))?,
        )),
    };
    if path.is_some() {
        if let Some(ll) = &options.ll {
            request.request.program = ll_source(ll)?;
        }
    }
    if options.direct {
        request.request.options.cut_pool = false;
    }
    let outcome = Session::execute_sweep(&request);
    let failed = outcome.is_err();
    let response = match outcome {
        Ok((response, stats)) => {
            if options.stats {
                eprintln!("{}", ise_api::to_json(&stats));
            }
            Ok(response)
        }
        Err(error) => Err(error),
    };
    // The emitted envelope carries only the (mode-independent) response; the planner
    // statistics go to stderr so pool and --direct outputs stay byte-identical.
    emit(options, &envelope(&response))?;
    Ok(failed)
}

/// Loads one corpus program file: `.json` programs deserialise, `.ll` files go
/// through the LLVM IR front-end — a module with several `define`s contributes
/// one program per function. Parse/lower failures carry `file:line:column`.
fn load_corpus_program(file: &std::path::Path) -> Result<Vec<ise_api::ProgramSource>, IseError> {
    let name = file.display().to_string();
    let text = read_file(&name)?;
    if file.extension().is_some_and(|ext| ext == "ll") {
        // Parse eagerly (rather than deferring to resolve-time) so a broken file
        // is diagnosed here, with its position, and the rest of the corpus runs.
        let source = ise_api::ProgramSource::LlvmIr { name, text };
        let programs = source.resolve_corpus()?;
        Ok(programs
            .into_iter()
            .map(ise_api::ProgramSource::Inline)
            .collect())
    } else {
        let program = ise_api::program_from_json(&text)
            .map_err(|e| IseError::Io(format!("`{name}`: {e}")))?;
        Ok(vec![ise_api::ProgramSource::Inline(program)])
    }
}

/// Loads a corpus request: either a directory of program files (`*.json` and
/// `*.ll`, lexicographic name order, so the corpus is reproducible) or a single
/// `CorpusRequest` file.
///
/// In directory mode a file that fails to load does not abort the corpus: its
/// error is returned alongside the request and the remaining programs run.
fn load_corpus_request(path: &str) -> Result<(ise_api::CorpusRequest, Vec<IseError>), IseError> {
    if std::fs::metadata(path).is_ok_and(|m| m.is_dir()) {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
            .map_err(|e| IseError::Io(format!("cannot read directory `{path}`: {e}")))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| {
                p.extension()
                    .is_some_and(|ext| ext == "json" || ext == "ll")
            })
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(IseError::InvalidRequest(format!(
                "directory `{path}` contains no .json or .ll program files"
            )));
        }
        let mut programs = Vec::new();
        let mut failures = Vec::new();
        for file in &files {
            match load_corpus_program(file) {
                Ok(sources) => programs.extend(sources),
                Err(error) => failures.push(error),
            }
        }
        if programs.is_empty() {
            return Err(failures.into_iter().next().expect("files is non-empty"));
        }
        Ok((ise_api::CorpusRequest::new(programs), failures))
    } else {
        Ok((ise_api::from_json(&read_file(path)?)?, Vec::new()))
    }
}

fn cmd_corpus(options: &Options, path: &str) -> Result<bool, IseError> {
    let (mut request, load_failures) = load_corpus_request(path)?;
    for failure in &load_failures {
        eprintln!("error: {failure}");
    }
    if options.no_dedup {
        request.dedup = false;
    }
    if let Some(area) = options.templates {
        request.templates = Some(area);
    }
    let service = BatchService::new();
    let outcome = match options.stream {
        // Bounded residency: at most N resolved programs alive at once, same bytes.
        Some(max_in_flight) => service.run_corpus_streaming(&request, max_in_flight),
        None => service.run_corpus(&request),
    };
    let failed = outcome.is_err() || !load_failures.is_empty();
    let response = match outcome {
        Ok((response, stats, shards)) => {
            if options.stats {
                eprintln!("{}", ise_api::to_json(&stats));
                for shard in &shards {
                    eprintln!("shard {}: {} programs", shard.shard, shard.items);
                }
                match service.corpus_baselines(&request) {
                    Ok(baselines) => print_baselines(&baselines),
                    Err(error) => eprintln!("error: baseline comparison failed: {error}"),
                }
            }
            Ok(response)
        }
        Err(error) => Err(error),
    };
    // The envelope carries only the (mode- and schedule-independent) response; the
    // dedup statistics and the work-stealing telemetry go to stderr so deduplicated
    // and --no-dedup outputs stay byte-identical.
    emit(options, &envelope(&response))?;
    Ok(failed)
}

/// Prints the `--stats` baseline comparison table (single-cut vs MaxMISO vs
/// Clubbing speed-ups) to stderr, one row per program plus the geometric means.
fn print_baselines(baselines: &ise_api::CorpusBaselines) {
    eprintln!("baseline comparison (speed-up): program single-cut maxmiso clubbing");
    for row in &baselines.rows {
        eprintln!(
            "  {} {:.4} {:.4} {:.4}",
            row.program, row.single_cut, row.maxmiso, row.clubbing
        );
    }
    eprintln!(
        "  geomean {:.4} {:.4} {:.4}",
        baselines.geomean_single_cut, baselines.geomean_maxmiso, baselines.geomean_clubbing
    );
}

fn cmd_batch(options: &Options, path: &str) -> Result<bool, IseError> {
    let requests: Vec<IseRequest> = ise_api::from_json(&read_file(path)?)?;
    let outcomes = BatchService::new().run(&requests);
    let failed = outcomes.iter().any(Result::is_err);
    let items: Vec<json::Value> = outcomes.iter().map(envelope).collect();
    emit(options, &json::Value::Array(items))?;
    Ok(failed)
}

fn cmd_algorithms(options: &Options) -> Result<bool, IseError> {
    let names: Vec<json::Value> = ise_api::algorithm_names()
        .into_iter()
        .map(|n| json::Value::Str(n.to_string()))
        .collect();
    emit(options, &json::Value::Array(names))?;
    Ok(false)
}

/// SIGTERM/SIGINT bridge for the serve command: the handler only flips an
/// atomic flag; the server's accept loop polls it and drains gracefully. This
/// is the one place in the workspace that needs `unsafe` (registering the
/// handler through libc's `signal`), so it lives here rather than in the
/// `#![forbid(unsafe_code)]` library crates.
mod signals {
    use std::sync::atomic::AtomicBool;

    /// Set by SIGTERM/SIGINT; observed by [`ise_api::Server::run`].
    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    pub fn install() {
        use std::sync::atomic::Ordering;
        extern "C" fn on_signal(_signum: i32) {
            // Only an atomic store: async-signal-safe.
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

fn cmd_serve(options: &Options) -> Result<bool, IseError> {
    let config = ise_api::ServeConfig {
        workers: options.workers.unwrap_or(2),
        queue_capacity: options.queue.unwrap_or(64),
        segments: options.segments.unwrap_or(16),
        cache_bytes: options.cache_bytes,
        cache_dir: options.cache_dir.clone().map(PathBuf::from),
        snapshot_interval: options.snapshot_secs.map(Duration::from_secs),
    };
    let addr = options.addr.as_deref().unwrap_or("127.0.0.1:9167");
    let server = ise_api::Server::bind(addr, config)
        .map_err(|e| IseError::Io(format!("cannot bind `{addr}`: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| IseError::Io(format!("cannot resolve the bound address: {e}")))?;
    if let Some(loaded) = server.service().warm_loaded() {
        eprintln!("serve: warm start ({loaded} fills loaded from snapshot)");
    }
    // The one stdout line of serve mode, so scripts discover the actual port
    // when 0 was requested; everything else (stats, snapshots) goes to stderr.
    println!(
        "{}",
        json::to_string(&json::Value::Object(vec![(
            "serving".to_string(),
            json::Value::Str(local.to_string()),
        )]))
    );
    std::io::stdout()
        .flush()
        .map_err(|e| IseError::Io(e.to_string()))?;
    signals::install();
    server
        .run(&signals::SHUTDOWN)
        .map_err(|e| IseError::Io(format!("serve failed: {e}")))?;
    Ok(false)
}

fn cmd_client(options: &Options, addr: &str, path: &str) -> Result<bool, IseError> {
    let text = read_file(path)?;
    let requests: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .collect();
    if requests.is_empty() {
        return Err(IseError::InvalidRequest(format!(
            "`{path}` contains no request lines"
        )));
    }
    let stream = TcpStream::connect(addr)
        .map_err(|e| IseError::Io(format!("cannot connect to `{addr}`: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| IseError::Io(e.to_string()))?;
    let writer = stream
        .try_clone()
        .map_err(|e| IseError::Io(e.to_string()))?;
    let mut reader = BufReader::new(stream);
    // The whole batch goes through one buffer and one flush: no line is split
    // across writes, and nothing waits on a delayed ACK.
    let mut writer = BufWriter::new(writer);
    for line in &requests {
        writeln!(writer, "{line}").map_err(|e| IseError::Io(format!("send failed: {e}")))?;
    }
    writer
        .flush()
        .map_err(|e| IseError::Io(format!("send failed: {e}")))?;
    // The server answers every request line exactly once (possibly out of
    // order across a pipelined batch; the `id` is the correlation key).
    let mut failed = false;
    let mut truncated = false;
    let mut out = String::new();
    for _ in 0..requests.len() {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| IseError::Io(format!("receive failed: {e}")))?;
        // EOF before every answer arrived, or a final line the server never
        // finished (no trailing newline): either way the stream is truncated.
        // The cut-off fragment is dropped — it must never pass as a response.
        if n == 0 || !line.ends_with('\n') {
            truncated = true;
            break;
        }
        let response = line.trim_end();
        if let Ok(json::Value::Object(fields)) = json::parse(response) {
            failed |= fields.iter().any(|(key, _)| key == "error");
        }
        out.push_str(response);
        out.push('\n');
    }
    match &options.output {
        Some(path) => std::fs::write(path, &out)
            .map_err(|e| IseError::Io(format!("cannot write `{path}`: {e}")))?,
        None => print!("{out}"),
    }
    if truncated {
        eprintln!("error: the server closed the connection before answering every request");
    }
    Ok(failed || truncated)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::from(1);
        }
    };
    let first = options.positional.first().map(String::as_str);
    if options.direct && first != Some("sweep") {
        eprintln!(
            "error: --direct applies only to the sweep command\n\n{}",
            usage()
        );
        return ExitCode::from(1);
    }
    if options.no_dedup && first != Some("corpus") {
        eprintln!(
            "error: --no-dedup applies only to the corpus command\n\n{}",
            usage()
        );
        return ExitCode::from(1);
    }
    if options.stats && first != Some("sweep") && first != Some("corpus") {
        eprintln!(
            "error: --stats applies only to the sweep and corpus commands\n\n{}",
            usage()
        );
        return ExitCode::from(1);
    }
    if options.ll.is_some() && first != Some("run") && first != Some("sweep") {
        eprintln!(
            "error: --ll applies only to the run and sweep commands\n\n{}",
            usage()
        );
        return ExitCode::from(1);
    }
    if options.stream.is_some() && first != Some("corpus") {
        eprintln!(
            "error: --stream applies only to the corpus command\n\n{}",
            usage()
        );
        return ExitCode::from(1);
    }
    if options.templates.is_some() && first != Some("corpus") {
        eprintln!(
            "error: --templates applies only to the corpus command\n\n{}",
            usage()
        );
        return ExitCode::from(1);
    }
    if options.templates.is_some() && options.stream.is_some() {
        eprintln!(
            "error: --templates needs the whole corpus at once and conflicts with --stream\n\n{}",
            usage()
        );
        return ExitCode::from(1);
    }
    let serve_only = options.addr.is_some()
        || options.workers.is_some()
        || options.queue.is_some()
        || options.segments.is_some()
        || options.cache_bytes.is_some()
        || options.cache_dir.is_some()
        || options.snapshot_secs.is_some();
    if serve_only && first != Some("serve") {
        eprintln!(
            "error: --addr/--workers/--queue/--segments/--cache-bytes/--cache-dir/\
             --snapshot-secs apply only to the serve command\n\n{}",
            usage()
        );
        return ExitCode::from(1);
    }
    let command = || match options.positional.first().map(String::as_str) {
        Some("run") if options.positional.len() == 2 => {
            Some(cmd_run(&options, Some(&options.positional[1])))
        }
        Some("run") if options.positional.len() == 1 && options.ll.is_some() => {
            Some(cmd_run(&options, None))
        }
        Some("batch") if options.positional.len() == 2 => {
            Some(cmd_batch(&options, &options.positional[1]))
        }
        Some("sweep") if options.positional.len() == 2 => {
            Some(cmd_sweep(&options, Some(&options.positional[1])))
        }
        Some("sweep") if options.positional.len() == 1 && options.ll.is_some() => {
            Some(cmd_sweep(&options, None))
        }
        Some("corpus") if options.positional.len() == 2 => {
            Some(cmd_corpus(&options, &options.positional[1]))
        }
        Some("serve") if options.positional.len() == 1 => Some(cmd_serve(&options)),
        Some("client") if options.positional.len() == 3 => Some(cmd_client(
            &options,
            &options.positional[1],
            &options.positional[2],
        )),
        Some("algorithms") if options.positional.len() == 1 => Some(cmd_algorithms(&options)),
        _ => None,
    };
    // `--threads` builds a scoped pool governing every rayon fan-out under this
    // command — batch requests, per-block identification, split pool fills. (With
    // the offline shim each individual fan-out is capped at N threads rather than all
    // of them sharing one N-worker pool; the output is identical either way.)
    let outcome = match options.threads {
        Some(threads) => match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
            Ok(pool) => pool.install(command),
            Err(error) => {
                eprintln!("error: cannot build a {threads}-thread pool: {error}");
                return ExitCode::from(1);
            }
        },
        None => command(),
    };
    let result = match outcome {
        Some(result) => result,
        None => {
            if matches!(options.positional.first().map(String::as_str), Some("help"))
                || options.positional.is_empty()
            {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: bad command line\n\n{}", usage());
            return ExitCode::from(1);
        }
    };
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(2),
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(1)
        }
    }
}
