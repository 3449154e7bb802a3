//! Differential and mutation suite for the streaming JSON decode.
//!
//! `serde::json::from_str` reads JSON text straight into the target type; the tree
//! decode `from_value(&parse(text)?)` is the reference. For every checked-in request,
//! every JSON golden and seeded requests built from the bundled workloads and `.ll`
//! fixtures, this suite decodes the text and a fixed set of seeded mutations of it
//! both ways and requires the same outcome: both `Ok` with byte-equal re-serialised
//! values, or both `Err` with the same message. The mutations aim at the places a
//! streaming reader can drift from the tree: truncations and byte flips, duplicate
//! keys with conflicting values (the first occurrence must win), unknown keys whose
//! values are malformed (skipping must still check syntax), and nesting at the depth
//! limit inside an unknown key.

use std::path::{Path, PathBuf};

use ise_api::{
    json, Algorithm, CorpusRequest, CorpusResponse, IseRequest, ProgramSource, SweepRequest,
    SweepResponse,
};
use ise_core::{Constraints, DriverOptions, IdentifierConfig};
use serde::json::Reader;
use serde::{DeserializeOwned, Serialize, Value};

/// The `{"response": …}` envelope of the corpus goldens.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct CorpusEnvelope {
    response: CorpusResponse,
}

/// The `{"response": …}` envelope of the sweep golden.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct SweepEnvelope {
    response: SweepResponse,
}

/// The decode target of one input.
#[derive(Debug, Clone, Copy)]
enum Target {
    Run,
    RunList,
    Sweep,
    Corpus,
    CorpusGolden,
    SweepGolden,
}

/// Malformed values hidden under unknown keys: each is rejected by the tree parser.
const MALFORMED: [&str; 10] = [
    "1e",
    "-",
    "1.2.3",
    "\"\\q\"",
    "\"\\ud800\"",
    "\"\\udc00\"",
    "\"\\ud800\\u0041\"",
    "\"\\u12g4\"",
    "tru",
    "[1,]",
];

/// Values the tree parser accepts but a hand-rolled lexer might not.
const ODD_BUT_VALID: [&str; 6] = [
    "01",
    "-0",
    "18446744073709551616",
    "-9223372036854775809",
    "\"\\ud83d\\ude00\\/\"",
    "1E+2",
];

/// A splitmix64 stream: the seeded choices of the mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Decodes `text` both ways and requires the same outcome. Returns whether the
/// streaming read succeeded on its own, without falling back to the tree.
fn agree<T: DeserializeOwned + Serialize>(label: &str, text: &str) -> bool {
    let tree = json::parse(text).and_then(|value| serde::json::from_value::<T>(&value));
    let stream = serde::json::from_str::<T>(text);
    match (&tree, &stream) {
        (Ok(a), Ok(b)) => assert_eq!(
            serde::json::to_string(a),
            serde::json::to_string(b),
            "{label}: both decodes succeed with different values"
        ),
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: the error messages differ"),
        _ => panic!(
            "{label}: tree {:?} but stream {:?}",
            tree.as_ref().err(),
            stream.as_ref().err()
        ),
    }
    let mut reader = Reader::new(text);
    T::read(&mut reader).and_then(|_| reader.finish()).is_ok()
}

fn agree_as(target: Target, label: &str, text: &str) -> bool {
    match target {
        Target::Run => agree::<IseRequest>(label, text),
        Target::RunList => agree::<Vec<IseRequest>>(label, text),
        Target::Sweep => agree::<SweepRequest>(label, text),
        Target::Corpus => agree::<CorpusRequest>(label, text),
        Target::CorpusGolden => agree::<CorpusEnvelope>(label, text),
        Target::SweepGolden => agree::<SweepEnvelope>(label, text),
    }
}

/// Every object in the tree, as a path of child indices from the root, with its
/// entry count.
fn object_paths(value: &Value, path: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, usize)>) {
    match value {
        Value::Object(entries) => {
            out.push((path.clone(), entries.len()));
            for (i, (_, child)) in entries.iter().enumerate() {
                path.push(i);
                object_paths(child, path, out);
                path.pop();
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                path.push(i);
                object_paths(child, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn at_path<'v>(value: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(value, |node, &i| match node {
        Value::Object(entries) => &mut entries[i].1,
        Value::Array(items) => &mut items[i],
        _ => unreachable!("paths only lead through containers"),
    })
}

/// A value of the same kind that differs from `value`.
fn conflicting(value: &Value) -> Value {
    match value {
        Value::Bool(b) => Value::Bool(!b),
        Value::Uint(v) => Value::Uint(v.wrapping_add(1)),
        Value::Int(v) => Value::Int(v.wrapping_add(1)),
        Value::Float(f) => Value::Float(f + 1.0),
        Value::Str(s) => Value::Str(format!("{s}x")),
        Value::Null => Value::Uint(0),
        Value::Array(items) => Value::Array(items.iter().skip(1).cloned().collect()),
        Value::Object(entries) => Value::Object(entries.iter().skip(1).cloned().collect()),
    }
}

/// A marker string replaced by raw text after serialisation.
const MARK: &str = "\u{1}raw\u{1}";

/// Inserts `(key, MARK)` into a random object and splices `raw` in for the marker.
fn with_raw_entry(
    tree: &Value,
    objects: &[(Vec<usize>, usize)],
    rng: &mut Rng,
    key: &str,
    raw: &str,
) -> String {
    let mut tree = tree.clone();
    let (path, _) = &objects[rng.below(objects.len())];
    if let Value::Object(entries) = at_path(&mut tree, path) {
        let at = rng.below(entries.len() + 1);
        entries.insert(at, (key.to_string(), Value::Str(MARK.to_string())));
    }
    json::to_string(&tree).replacen(&json::to_string(&MARK), raw, 1)
}

/// The seeded mutations of one input (a fixed count per input).
fn mutations(text: &str, seed: u64) -> Vec<(String, String)> {
    let mut rng = Rng(seed);
    let mut out = Vec::new();
    let tree = json::parse(text).expect("inputs are valid JSON");
    let mut objects = Vec::new();
    object_paths(&tree, &mut Vec::new(), &mut objects);
    assert!(!objects.is_empty(), "every input holds an object");

    for i in 0..4 {
        let mut cut = rng.below(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        out.push((format!("truncation {i} at {cut}"), text[..cut].to_string()));
    }
    let ascii: Vec<usize> = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii())
        .map(|(i, _)| i)
        .collect();
    for i in 0..8 {
        let at = ascii[rng.below(ascii.len())];
        let replacement = b"\"\\{}[],:0-e.n x\x01"[rng.below(16)];
        let mut bytes = text.as_bytes().to_vec();
        bytes[at] = replacement;
        let flipped = String::from_utf8(bytes).expect("an ASCII byte replaced by ASCII");
        out.push((
            format!("flip {i} at {at} to {:?}", replacement as char),
            flipped,
        ));
    }
    let keyed: Vec<&Vec<usize>> = objects
        .iter()
        .filter(|(_, len)| *len > 0)
        .map(|(path, _)| path)
        .collect();
    for i in 0..4 {
        let mut mutated = tree.clone();
        let path = keyed[rng.below(keyed.len())];
        if let Value::Object(entries) = at_path(&mut mutated, path) {
            let pick = rng.below(entries.len());
            let (key, value) = entries[pick].clone();
            // Half the time the conflicting duplicate comes first and must win.
            let at = if i % 2 == 0 { entries.len() } else { pick };
            entries.insert(at, (key, conflicting(&value)));
        }
        out.push((format!("duplicate key {i}"), json::to_string(&mutated)));
    }
    for (i, raw) in MALFORMED.iter().chain(&ODD_BUT_VALID).enumerate() {
        let mutated = with_raw_entry(&tree, &objects, &mut rng, "unknown_key", raw);
        out.push((format!("unknown key {i} holding {raw}"), mutated));
    }
    // The top-level object's values sit at depth 1, so `n - 1` containers around a
    // scalar put it at depth `n`: 128 is the deepest value the parser accepts.
    if matches!(tree, Value::Object(_)) {
        for depth in [127, 128, 129] {
            for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
                let raw = format!("{}0{}", open.repeat(depth - 1), close.repeat(depth - 1));
                let mutated = with_raw_entry(&tree, &[(Vec::new(), 0)], &mut rng, "deep", &raw);
                out.push((
                    format!("unknown key nested {depth} deep in {open}"),
                    mutated,
                ));
            }
        }
    }
    out
}

/// Checks one input and all of its mutations; the input itself must take the
/// streaming path without falling back.
fn check(target: Target, label: &str, text: &str, seed: u64) {
    assert!(
        agree_as(target, label, text),
        "{label}: the streaming read fell back on a valid input"
    );
    for (what, mutated) in mutations(text, seed) {
        agree_as(target, &format!("{label}, {what}"), &mutated);
    }
}

fn workload(name: &str) -> ise_ir::Program {
    ise_workloads::suite::by_name(name).expect("bundled workload")
}

fn fixture(name: &str) -> ProgramSource {
    let path = repo_root().join("crates/frontend/fixtures").join(name);
    ProgramSource::LlvmIr {
        name: name.to_string(),
        text: read(&path),
    }
}

#[test]
fn checked_in_requests_decode_the_same_both_ways() {
    let requests = repo_root().join("requests");
    let files = [
        ("adpcm.json", Target::RunList),
        ("sweep_gsm.json", Target::Sweep),
        ("corpus_media.json", Target::Corpus),
    ];
    for (seed, (name, target)) in (1..).zip(files) {
        check(target, name, &read(&requests.join(name)), seed);
    }
    let serve = read(&requests.join("serve_example.jsonl"));
    for (seed, line) in (100..).zip(serve.lines()) {
        let envelope = json::parse(line).expect("example lines are JSON");
        let target = match envelope.get("kind").and_then(Value::as_str) {
            Some("run") => Target::Run,
            Some("sweep") => Target::Sweep,
            Some("corpus") => Target::Corpus,
            _ => continue,
        };
        let payload = json::to_string(envelope.get("request").expect("a payload"));
        check(
            target,
            &format!("serve_example line {seed}"),
            &payload,
            seed,
        );
    }
}

#[test]
fn json_goldens_decode_the_same_both_ways() {
    let golden = repo_root().join("results/golden");
    let files = [
        ("corpus_cli.json", Target::CorpusGolden),
        ("corpus_templates_cli.json", Target::CorpusGolden),
        ("sweep_cli.json", Target::SweepGolden),
    ];
    for (seed, (name, target)) in (200..).zip(files) {
        check(target, name, &read(&golden.join(name)), seed);
    }
}

#[test]
fn seeded_requests_decode_the_same_both_ways() {
    let constraints = Constraints::new(3, 1).with_max_area(12.5).with_max_nodes(9);
    let run = IseRequest::new(
        Algorithm::MultiCut,
        ProgramSource::Inline(workload("crc32")),
    )
    .with_constraints(constraints)
    .with_config(IdentifierConfig::default().with_exploration_budget(Some(5_000)))
    .with_options(DriverOptions::new(3).sequential())
    .with_pass(ise_api::Pass::ConstFold)
    .with_pass(ise_api::Pass::Dce);
    let ll = IseRequest::named("single-cut", fixture("sum-prof.ll"));
    let sweep = SweepRequest::paper_sweep(IseRequest::new(
        Algorithm::SingleCut,
        ProgramSource::Inline(workload("sha1")),
    ));
    let corpus = CorpusRequest::new(vec![
        ProgramSource::Inline(workload("viterbi")),
        ProgramSource::Workload("gsm".to_string()),
        fixture("crc32-O1.ll"),
        ProgramSource::Inline(workload("des")),
    ])
    .with_constraints(Constraints::new(4, 2))
    .with_templates(Some(40.0));
    let plain_corpus = CorpusRequest::new(vec![fixture("pair-mixed.ll")]).with_dedup(false);

    check(Target::Run, "inline run", &json::to_string(&run), 300);
    check(Target::Run, ".ll run", &json::to_string(&ll), 301);
    check(Target::Sweep, "inline sweep", &json::to_string(&sweep), 302);
    check(
        Target::Corpus,
        "mixed corpus",
        &json::to_string(&corpus),
        303,
    );
    check(
        Target::Corpus,
        ".ll corpus",
        &json::to_string(&plain_corpus),
        304,
    );
    // Optional corpus fields may be absent, or present and null where allowed.
    for (seed, text) in (305..).zip([
        "{\"programs\":[{\"Workload\":\"gsm\"}]}",
        "{\"templates\":null,\"programs\":[],\"dedup\":false}",
        "{\"programs\":[],\"options\":{\"parallel\":false,\"max_instructions\":2}}",
    ]) {
        check(Target::Corpus, text, text, seed);
    }
}

/// Every shape the derive emits `read` for.
mod shapes {
    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    pub struct Unit;

    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    pub struct Empty();

    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    pub struct Pair(pub u8, pub Option<String>);

    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    pub enum Tags {
        A,
        B,
    }

    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    pub enum Data {
        New(i32),
        Tuple(u8, u8),
        Named { x: Vec<Tags>, y: Unit },
    }

    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    pub enum Mixed {
        Plain,
        Wrapped(Pair),
    }

    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    pub struct All {
        pub empty: Empty,
        pub data: Vec<Data>,
        pub mixed: Vec<Mixed>,
    }

    /// Every attribute the derive accepts. The hook writes into a field that is
    /// serialised, so a decode that skips it re-serialises differently.
    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    #[serde(post_decode = "Knobs::seal")]
    pub struct Knobs {
        pub id: u8,
        #[serde(default)]
        pub level: u32,
        #[serde(default = "on")]
        pub flag: bool,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        pub budget: Option<f64>,
        #[serde(skip)]
        pub derived: u32,
    }

    impl Knobs {
        fn seal(&mut self) {
            self.derived = u32::from(self.id) + 1;
            self.level += self.derived;
        }
    }

    fn on() -> bool {
        true
    }
}

/// `Knobs` texts: every attributed field omitted, then each one present, `null`
/// and of the wrong type on its own.
fn knob_texts() -> Vec<String> {
    let mut texts = vec!["{\"id\":1}".to_string()];
    for (field, value) in [
        ("level", "5"),
        ("flag", "false"),
        ("budget", "2.5"),
        ("derived", "9"),
    ] {
        for value in [value, "null", "\"x\""] {
            texts.push(format!("{{\"{field}\":{value},\"id\":1}}"));
        }
    }
    texts
}

#[test]
fn every_derived_shape_decodes_the_same_both_ways() {
    use shapes::{All, Data, Empty, Knobs, Mixed, Pair, Tags, Unit};
    type Check = fn(&str, &str) -> bool;
    let cases: [(&str, Check); 8] = [
        ("unit", agree::<Unit>),
        ("empty tuple", agree::<Empty>),
        ("pair", agree::<Pair>),
        ("unit enum", agree::<Tags>),
        ("data enum", agree::<Data>),
        ("mixed enum", agree::<Mixed>),
        ("struct", agree::<All>),
        ("attributed struct", agree::<Knobs>),
    ];
    let texts = [
        "null",
        "{\"anything\":[1,{}]}",
        "[]",
        "[1]",
        "[7,null]",
        "[7,\"s\"]",
        "[7,\"s\",3]",
        "[300,null]",
        "\"A\"",
        "\"B\"",
        "\"C\"",
        "{\"A\":null}",
        "\"New\"",
        "{\"New\":-4}",
        "{\"Tuple\":[1,2]}",
        "{\"Tuple\":[1]}",
        "{\"Named\":{\"y\":null,\"x\":[\"A\",\"B\"],\"x\":[]}}",
        "{\"Named\":{\"x\":[\"A\"]}}",
        "{\"New\":1,\"Tuple\":[1,2]}",
        "{}",
        "\"Plain\"",
        "{\"Wrapped\":[0,null]}",
        "{\"Plain\":null}",
        "{\"empty\":[],\"data\":[{\"New\":1}],\"mixed\":[\"Plain\"],\"data\":7}",
        "{\"empty\":[],\"data\":[],\"mixed\":[{\"Wrapped\":[1,\"w\"]}],\"extra\":{\"deep\":[1e5]}}",
        "{\"empty\":[1],\"data\":[],\"mixed\":[]}",
    ];
    let knobs = knob_texts();
    for (name, agree_as) in cases {
        for text in texts
            .iter()
            .copied()
            .chain(knobs.iter().map(String::as_str))
        {
            agree_as(&format!("{name} from {text}"), text);
        }
    }
    // The streaming read takes every valid `Knobs` text on its own.
    for text in &knobs {
        let valid = json::parse(text)
            .and_then(|value| serde::json::from_value::<Knobs>(&value))
            .is_ok();
        assert_eq!(agree::<Knobs>(text, text), valid, "{text}");
    }
    let omitted: Knobs = serde::json::from_str(&knobs[0]).expect("defaults apply");
    assert_eq!(
        (omitted.level, omitted.flag, omitted.budget, omitted.derived),
        (2, true, None, 2)
    );
    assert_eq!(
        serde::json::to_string(&omitted),
        "{\"id\":1,\"level\":2,\"flag\":true}"
    );
}
