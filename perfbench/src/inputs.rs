//! Seeded input generation. The same seed gives byte-identical request lines;
//! the program under test sees only these generated lines.
//!
//! Block *shapes* come from fixed families, and the seed draws node numbering
//! (isomorphic relabelling), program order, subsets and the request mix. Exact
//! search cost is exponential in block shape, so drawing fresh shapes per seed
//! would make op cost swing by multiples between seeds; relabelling keeps every
//! input new to the program while the work per op stays comparable. The one
//! place fresh shapes are drawn is the serve-warm cache-write share, whose
//! purpose is to be unseen.

use ise_api::{json, Algorithm, CorpusRequest, IseRequest, Pass, ProgramSource, SweepRequest};
use ise_core::{Constraints, DriverOptions, IdentifierConfig};
use ise_ir::{Dfg, Node, Operand, Program};
use ise_workloads::corpus::{duplicate_heavy, shuffled_isomorph, CorpusConfig};
use ise_workloads::random::{random_dfg, wide_dag_program, RandomDfgConfig};
use ise_workloads::suite;

/// `Nin`/`Nout` of every generated request.
pub fn constraints() -> Constraints {
    Constraints::new(4, 2)
}

/// `Ninstr` of every generated request.
pub const MAX_INSTRUCTIONS: usize = 4;

/// Exploration budget of corpus and serve requests (the gates' setting).
pub const EXPLORATION_BUDGET: u64 = 500_000;

macro_rules! fixture {
    ($name:literal) => {
        (
            $name,
            include_str!(concat!("../../crates/frontend/fixtures/", $name)),
        )
    };
}

/// The bundled `.ll` fixtures, carried as `LlvmIr` sources.
pub const LL_FIXTURES: [(&str, &str); 10] = [
    fixture!("adpcm-O1.ll"),
    fixture!("crc32-O0.ll"),
    fixture!("crc32-O1.ll"),
    fixture!("crc32-O2.ll"),
    fixture!("crc32-flat.ll"),
    fixture!("pair-mixed.ll"),
    fixture!("sha1round-O0.ll"),
    fixture!("sha1round-O1.ll"),
    fixture!("sha1round-O2.ll"),
    fixture!("sum-prof.ll"),
];

/// SplitMix64: a small, dependency-free generator whose stream is fixed by
/// this file, so inputs never change when a library's generator does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `program`, renamed, with every block replaced by a seeded isomorphic
/// relabelling.
pub fn relabel(program: &Program, name: &str, rng: &mut Rng) -> Program {
    let mut relabelled = Program::new(name);
    for block in program.blocks() {
        relabelled.add_block(shuffled_isomorph(block, block.name(), rng.next_u64()));
    }
    relabelled
}

/// Input size of one op: programs, blocks and request bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Size {
    pub programs: u64,
    pub blocks: u64,
    pub bytes: u64,
}

impl Size {
    pub fn of_sources(sources: &[ProgramSource], bytes: usize) -> Size {
        let mut size = Size {
            bytes: bytes as u64,
            ..Size::default()
        };
        for source in sources {
            for program in source.resolve_corpus().expect("generated sources resolve") {
                size.programs += 1;
                size.blocks += program.block_count() as u64;
            }
        }
        size
    }
}

/// Shape of the duplicate-heavy synthetic part of every corpus.
pub fn synthetic_config() -> CorpusConfig {
    CorpusConfig {
        programs: 12,
        blocks_per_program: 6,
        templates: 3,
        template_nodes: 16,
        unique_per_program: 1,
    }
}

/// Fixed seed of the synthetic shape family (the run seed only relabels it).
const SHAPE_SEED: u64 = 0x5EED;

/// The mixed corpus of the corpus workloads, relabelled by `rng`: the
/// duplicate-heavy synthetic programs and the ten bundled kernels as inline
/// JSON programs, plus the `.ll` fixtures as `LlvmIr` sources.
pub fn mixed_corpus(config: &CorpusConfig, rng: &mut Rng) -> Vec<ProgramSource> {
    let mut sources: Vec<ProgramSource> = duplicate_heavy(config, SHAPE_SEED)
        .iter()
        .chain(suite::mediabench_like().iter())
        .map(|program| ProgramSource::Inline(relabel(program, program.name(), rng)))
        .collect();
    sources.extend(
        LL_FIXTURES
            .iter()
            .map(|(name, text)| ProgramSource::LlvmIr {
                name: (*name).to_string(),
                text: (*text).to_string(),
            }),
    );
    sources
}

/// A corpus request over `sources` with the shared knobs.
pub fn corpus_request(sources: Vec<ProgramSource>) -> CorpusRequest {
    CorpusRequest::new(sources)
        .with_constraints(constraints())
        .with_config(IdentifierConfig {
            exploration_budget: Some(EXPLORATION_BUDGET),
            ..IdentifierConfig::default()
        })
        .with_options(DriverOptions::new(MAX_INSTRUCTIONS))
}

/// Exploration budget of `templates` requests. It bounds the template
/// knapsack, whose walk exhausts any budget on this corpus, so it sets the
/// op's cost: a fifth of a second keeps enough samples per run for a tail.
pub const TEMPLATE_EXPLORATION_BUDGET: u64 = 200_000;

/// The `corpus-cold` request lines: `count` seeded orderings of one
/// relabelled mixed corpus.
pub fn corpus_lines(seed: u64, count: usize) -> Vec<(String, Size)> {
    let mut rng = Rng::new(seed);
    let sources = mixed_corpus(&synthetic_config(), &mut rng);
    (0..count)
        .map(|_| {
            let mut order = sources.clone();
            rng.shuffle(&mut order);
            corpus_line(&corpus_request(order))
        })
        .collect()
}

/// The `templates` request lines: `count` relabellings of the mixed corpus,
/// each in generated order, with a template area budget. Site order steers
/// the budgeted knapsack walk and so its cost; the order stays fixed and the
/// several relabellings per pass average what is left of that effect.
pub fn templates_lines(seed: u64, count: usize, area: Option<f64>) -> Vec<(String, Size)> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let sources = mixed_corpus(&synthetic_config(), &mut rng);
            let request = corpus_request(sources)
                .with_config(IdentifierConfig {
                    exploration_budget: Some(TEMPLATE_EXPLORATION_BUDGET),
                    ..IdentifierConfig::default()
                })
                .with_templates(area);
            corpus_line(&request)
        })
        .collect()
}

fn corpus_line(request: &CorpusRequest) -> (String, Size) {
    let line = json::to_string(request);
    let size = Size::of_sources(&request.programs, line.len());
    (line, size)
}

/// One `search-exact` op.
#[derive(Debug, Clone)]
pub enum SearchOp {
    /// A single-cut Iterative run on a wide random DAG program.
    Run(IseRequest),
    /// A pool-backed paper sweep of one Fig. 11 kernel.
    Sweep(SweepRequest),
}

/// Fixed wide-DAG family of `search-exact`: blocks of this many nodes.
pub const DAG_NODES: usize = 22;

/// Generator seeds of the `search-exact` wide-DAG programs. Chosen for equal
/// cost (about 39 ms each on 2 vCPUs, against 32 to 51 ms for the three
/// sweeps), so the five runs form the middle of every pass's latency order and
/// the median op latency falls inside one cluster, not in a gap between two.
const DAG_SEEDS: [u64; 5] = [0xDA6, 0xDAD, 0xDBB, 0xDEC, 0xE47];

/// The `search-exact` ops of one pass, in seeded order: relabelled wide-DAG
/// runs and relabelled Fig. 11 kernel sweeps.
pub fn search_ops(seed: u64) -> Vec<SearchOp> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    for (k, &dag_seed) in DAG_SEEDS.iter().enumerate() {
        let base = wide_dag_program(2, DAG_NODES, dag_seed);
        let program = relabel(&base, &format!("widedag{k}"), &mut rng);
        ops.push(SearchOp::Run(
            IseRequest::new(Algorithm::SingleCut, ProgramSource::Inline(program))
                .with_constraints(constraints())
                .with_options(DriverOptions::new(MAX_INSTRUCTIONS)),
        ));
    }
    for base in suite::fig11_benchmarks() {
        let program = relabel(&base, base.name(), &mut rng);
        let request = IseRequest::new(Algorithm::SingleCut, ProgramSource::Inline(program))
            .with_options(DriverOptions::new(MAX_INSTRUCTIONS));
        ops.push(SearchOp::Sweep(SweepRequest::paper_sweep(request)));
    }
    rng.shuffle(&mut ops);
    ops
}

/// One `serve-warm` request line.
#[derive(Debug, Clone)]
pub struct ServeLine {
    /// Request kind: `run`, `sweep`, `corpus` or `stats`.
    pub kind: &'static str,
    /// The envelope's id.
    pub id: u64,
    /// The line as sent, without the trailing newline.
    pub text: String,
    /// The typed payload, kept for computing the one-shot reference.
    pub payload: ServePayload,
    /// Whether the line carries never-seen block shapes.
    pub novel: bool,
    /// Programs, blocks and bytes of the line.
    pub size: Size,
}

/// The typed payload of a [`ServeLine`].
#[derive(Debug, Clone)]
pub enum ServePayload {
    Run(IseRequest),
    Sweep(SweepRequest),
    /// Source indices into the known set, plus the never-seen program if any.
    Corpus(Vec<usize>, Option<Program>),
    Stats,
}

/// Shape of the synthetic part of the serve-warm known set.
pub fn serve_known_config() -> CorpusConfig {
    CorpusConfig {
        programs: 12,
        blocks_per_program: 4,
        templates: 3,
        template_nodes: 12,
        unique_per_program: 1,
    }
}

/// The known-shape sources of `serve-warm`, relabelled by the seed.
pub fn serve_known(seed: u64) -> Vec<ProgramSource> {
    mixed_corpus(&serve_known_config(), &mut Rng::new(seed ^ 0x0005_EA7E))
}

/// One stratum of the serve mix: the kinds of 50 consecutive lines, shuffled
/// within the stratum. Fixed counts per stratum keep the mix, and so the work
/// per op, from drifting with the seed: 39 corpus requests over 3 to 6 known
/// sources, 5 corpus requests that add a never-seen program (the cache-write
/// share: 5 of 44 corpus lines), 4 `run` requests on bundled workloads (every
/// other one with the ConstFold+Dce pipeline), 1 paper sweep, 1 `stats`.
const SERVE_STRATUM: [(Slot, usize); 5] = [
    (Slot::Known, 39),
    (Slot::Novel, 5),
    (Slot::Run, 4),
    (Slot::Sweep, 1),
    (Slot::Stats, 1),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Known,
    Novel,
    Run,
    Sweep,
    Stats,
}

/// Builds connection `conn`'s list of `count` serve lines (see
/// [`SERVE_STRATUM`] for the mix).
pub fn serve_lines(
    seed: u64,
    conn: usize,
    count: usize,
    known: &[ProgramSource],
) -> Vec<ServeLine> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(conn as u64 + 1));
    let run_workloads = ["adpcmdecode", "adpcmencode", "gsm", "g721", "epic", "crc32"];
    let sweep_workloads = ["adpcmdecode", "gsm", "g721"];
    let novel_bases = novel_bases();
    let mut slots = Vec::with_capacity(count);
    while slots.len() < count {
        let mut stratum: Vec<Slot> = SERVE_STRATUM
            .iter()
            .flat_map(|&(slot, n)| std::iter::repeat_n(slot, n))
            .collect();
        rng.shuffle(&mut stratum);
        slots.extend(stratum);
    }
    slots.truncate(count);
    let (mut corpora, mut runs, mut sweeps) = (0usize, 0usize, 0usize);
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let id = (conn as u64) * 1_000_000 + i as u64;
            let novel = slot == Slot::Novel;
            let (kind, payload) = match slot {
                Slot::Known | Slot::Novel => {
                    let take = 3 + corpora % 4 - usize::from(novel);
                    corpora += 1;
                    let mut picks: Vec<usize> = (0..known.len()).collect();
                    rng.shuffle(&mut picks);
                    picks.truncate(take);
                    let fresh = novel.then(|| {
                        let mut program = Program::new(format!("novel_{conn}_{i}"));
                        let shift = NOVEL_SHIFT * (id as i64 + 1);
                        for (b, base) in novel_bases.iter().enumerate() {
                            let name = format!("novel_{conn}_{i}_b{b}");
                            let fresh = shift_immediates(base, &name, shift);
                            program.add_block(shuffled_isomorph(&fresh, name, rng.next_u64()));
                        }
                        program
                    });
                    ("corpus", ServePayload::Corpus(picks, fresh))
                }
                Slot::Run => {
                    let name = run_workloads[runs % run_workloads.len()];
                    let mut request =
                        IseRequest::new(Algorithm::SingleCut, ProgramSource::Workload(name.into()))
                            .with_constraints(constraints())
                            .with_options(DriverOptions::new(MAX_INSTRUCTIONS));
                    if (runs / run_workloads.len()) % 2 == 1 {
                        request = request.with_pass(Pass::ConstFold).with_pass(Pass::Dce);
                    }
                    runs += 1;
                    ("run", ServePayload::Run(request))
                }
                Slot::Sweep => {
                    let name = sweep_workloads[sweeps % sweep_workloads.len()];
                    sweeps += 1;
                    let request =
                        IseRequest::new(Algorithm::SingleCut, ProgramSource::Workload(name.into()))
                            .with_options(DriverOptions::new(MAX_INSTRUCTIONS));
                    let pairs = [(2, 1), (3, 1), (4, 1), (4, 2)]
                        .map(|(nin, nout)| Constraints::new(nin, nout))
                        .to_vec();
                    (
                        "sweep",
                        ServePayload::Sweep(SweepRequest::new(request, pairs)),
                    )
                }
                Slot::Stats => ("stats", ServePayload::Stats),
            };
            let (request, sources) = match &payload {
                ServePayload::Run(request) => {
                    (Some(json::to_value(request)), vec![request.program.clone()])
                }
                ServePayload::Sweep(request) => (
                    Some(json::to_value(request)),
                    vec![request.request.program.clone()],
                ),
                ServePayload::Corpus(picks, fresh) => {
                    let sources = corpus_sources(picks, fresh, known);
                    (
                        Some(json::to_value(&corpus_request(sources.clone()))),
                        sources,
                    )
                }
                ServePayload::Stats => (None, Vec::new()),
            };
            let mut fields = vec![
                ("id".to_string(), json::Value::Uint(id)),
                ("kind".to_string(), json::Value::Str(kind.to_string())),
            ];
            if let Some(request) = request {
                fields.push(("request".to_string(), request));
            }
            let text = json::to_string(&json::Value::Object(fields));
            ServeLine {
                kind,
                id,
                size: Size::of_sources(&sources, text.len()),
                text,
                payload,
                novel,
            }
        })
        .collect()
}

/// Spacing of the immediates of never-seen blocks: above every immediate the
/// generators emit, so a shifted block never meets a known shape.
const NOVEL_SHIFT: i64 = 256;

/// The fixed shapes never-seen programs are made from: two random blocks
/// with at least one immediate each. Shifting their immediates gives a new
/// structural key at the same search cost, so the cache-write share costs the
/// same under every seed.
fn novel_bases() -> Vec<Dfg> {
    let config = RandomDfgConfig {
        nodes: 12,
        memory_fraction: 0.0,
        ..RandomDfgConfig::default()
    };
    (0..)
        .map(|k| random_dfg(&config, 0x0000_0E57 + k))
        .filter(|dfg| {
            dfg.node_ids().any(|id| {
                dfg.node(id)
                    .operands
                    .iter()
                    .any(|o| matches!(o, Operand::Imm(_)))
            })
        })
        .take(2)
        .enumerate()
        .map(|(b, mut dfg)| {
            dfg.set_exec_count(500 / (1 + b as u64));
            dfg
        })
        .collect()
}

/// `dfg` with every immediate moved by `shift`; same nodes in the same order.
fn shift_immediates(dfg: &Dfg, name: &str, shift: i64) -> Dfg {
    let mut out = Dfg::new(name);
    out.set_exec_count(dfg.exec_count());
    for port in dfg.input_ids() {
        out.add_input(dfg.input(port).name.clone());
    }
    let moved = |operand: &Operand| match *operand {
        Operand::Imm(value) => Operand::Imm(value + shift),
        other => other,
    };
    for id in dfg.node_ids() {
        let original = dfg.node(id);
        let mut node = Node::new(
            original.opcode,
            original.operands.iter().map(moved).collect(),
        );
        node.name = original.name.clone();
        out.add_node(node);
    }
    for output in dfg.iter_outputs() {
        out.add_output(output.name.clone(), moved(&output.source));
    }
    out
}

/// The sources of one serve corpus line.
pub fn corpus_sources(
    picks: &[usize],
    fresh: &Option<Program>,
    known: &[ProgramSource],
) -> Vec<ProgramSource> {
    picks
        .iter()
        .map(|&k| known[k].clone())
        .chain(fresh.iter().cloned().map(ProgramSource::Inline))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_texts(seed: u64) -> Vec<String> {
        let known = serve_known(seed);
        serve_lines(seed, 0, 60, &known)
            .into_iter()
            .map(|line| line.text)
            .collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_lines() {
        assert_eq!(corpus_lines(7, 2), corpus_lines(7, 2));
        assert_eq!(
            templates_lines(7, 2, Some(1.0)),
            templates_lines(7, 2, Some(1.0))
        );
        assert_eq!(serve_texts(7), serve_texts(7));
        let search = |seed| {
            search_ops(seed)
                .iter()
                .map(|op| match op {
                    SearchOp::Run(r) => json::to_string(r),
                    SearchOp::Sweep(s) => json::to_string(s),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(search(7), search(7));
        assert_ne!(search(7), search(8));
    }

    #[test]
    fn a_different_seed_gives_different_lines() {
        assert_ne!(corpus_lines(7, 1), corpus_lines(8, 1));
        assert_ne!(templates_lines(7, 1, None), templates_lines(8, 1, None));
        assert_ne!(serve_texts(7), serve_texts(8));
    }

    #[test]
    fn serve_lines_mix_every_kind_and_never_seen_shapes() {
        let known = serve_known(3);
        let lines = serve_lines(3, 1, 400, &known);
        for kind in ["run", "sweep", "corpus", "stats"] {
            assert!(lines.iter().any(|l| l.kind == kind), "{kind}");
        }
        // Eight whole strata of 50 lines, five never-seen lines each.
        assert_eq!(lines.iter().filter(|l| l.novel).count(), 40);
    }
}
