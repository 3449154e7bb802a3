//! Cross-site instruction templates: select instructions, not per-block cuts.
//!
//! The paper's selection drivers pick the best cut *per basic block*, paying the cut's
//! area once per block. A real ISA extension does the opposite: one instruction
//! *template* is implemented once and amortised across every site that matches it. This
//! module closes that gap exactly, reusing the corpus layer's structural machinery:
//!
//! 1. **Extraction** ([`extract_templates`]). Every Pareto candidate cut emitted by a
//!    [`fill_single_cut`](crate::pool::fill_single_cut) enumeration (read through a
//!    [`CorpusPool`]) per distinct block shape — the whole-block fill plus residual
//!    re-fill rounds that exclude each round's best cut, so the disjoint secondary
//!    cuts the iterative driver reaches become candidates too — is re-expressed as a
//!    standalone sub-DFG and canonicalised through [`StructuralForm`]. Two candidate
//!    cuts — in different blocks, different programs, different parent shapes — belong
//!    to the same [`Template`] iff the canonical serializations of their sub-DFGs are
//!    **byte-equal** ([`StructuralKey`] equality; the 64-bit hash is only a map index).
//!    Each match becomes a [`SiteRef`] whose savings weight the template's merit by the
//!    site's block execution count. Inside a corpus run ([`run_template_selection`])
//!    the pool reads the run's own [`WarmPoolCache`]: fill keys are canonical
//!    (structure, canonical exclusion, budget group), so every whole-block fill and
//!    most residual fills are the ones the corpus pass has just made.
//! 2. **Selection** ([`select_templates`]). A global area-budget knapsack: each chosen
//!    template pays its datapath area *once* and earns the savings of all of its
//!    non-conflicting sites. The branch-and-bound walks the shared [`SearchKernel`]
//!    tree (two branches per template: take, then skip) with a [`TemplateSelectPolicy`]
//!    that decides templates in descending conflict-free-savings order (so the
//!    take-first dive is a sensible greedy even when an exploration budget cuts the
//!    walk short), bounds both branches by the fractional-knapsack relaxation poured
//!    over the remaining templates in *density* order (the relaxation is only an
//!    upper bound when poured densest-first), and dominance-prunes any take that
//!    claims no site — paying area for zero savings is never better than skipping.
//!    Site conflicts (overlapping node sets within one block) are resolved greedily
//!    in decision order with the sequential incumbent's first-visitor-wins
//!    tie-break. Claims are bitsets: each `(program, block)` owns a word range of one
//!    flat arena and each site is a precomputed `(word, bits)` list, so a take tests
//!    its sites with word ANDs, sets their bits, and clears them again on undo
//!    without allocating. The relaxation pours from a doubly linked list of the
//!    still-undecided templates, unlinked and relinked in stack order as the walk
//!    moves between levels; it pours the same entries in the same order as a scan of
//!    the whole density order would, so every bound and every visit is the same,
//!    and it stops pouring once the bound already clears the incumbent.
//!    [`select_templates_exhaustive`] brute-forces every subset in the
//!    identical visit order with the identical dominance rule — the oracle the tests
//!    and the `template_gate` bench pit the policy against.
//! 3. **Reporting** ([`TemplateReport`]). Coverage, area, savings and the cumulative
//!    area-vs-speedup Pareto rows surfaced through `run_corpus`, serve mode and
//!    `ise-cli corpus --templates`.

use std::collections::HashMap;
use std::sync::Arc;

use ise_hw::speedup::clamped_speedup;
use ise_hw::CostModel;
use ise_ir::{Dfg, DfgBuilder, Operand, Program};

use crate::constraints::Constraints;
use crate::cut::{CutEvaluation, CutSet};
use crate::kernel::{Incumbent, SearchKernel, SearchPolicy};
use crate::search::{IdentifiedCut, SearchStats};
use crate::structural::{StructuralForm, StructuralKey};

use super::{CorpusPool, WarmPoolCache};

/// Absolute slack applied to every area-budget feasibility test, so that a budget set
/// to the exact sum of table areas is never rejected by float rounding. Shared by the
/// branch-and-bound and the oracle — both must cut the same tree.
const AREA_EPS: f64 = 1e-9;

/// The global area budget of one template selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateBudget {
    /// Total normalised datapath area the chosen templates may occupy.
    pub area: f64,
    /// Optional cap on the number of templates chosen (`None` = unlimited).
    pub max_templates: Option<usize>,
}

impl TemplateBudget {
    /// A budget limited by area only.
    #[must_use]
    pub fn new(area: f64) -> Self {
        TemplateBudget {
            area,
            max_templates: None,
        }
    }

    /// Additionally caps the number of templates chosen.
    #[must_use]
    pub fn with_max_templates(mut self, limit: Option<usize>) -> Self {
        self.max_templates = limit;
        self
    }
}

/// One matched site of a template: a concrete cut in a concrete block.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRef {
    /// Index of the program within the corpus.
    pub program: usize,
    /// Index of the block within the program.
    pub block: usize,
    /// The cut's node indices within the block, ascending.
    pub nodes: Vec<u32>,
    /// Cycles saved by covering this site: the template's merit weighted by the
    /// block's execution count.
    pub savings: f64,
}

/// One instruction template: an equivalence class of byte-equal canonical cut
/// sub-DFGs, with every site it matches across the corpus.
#[derive(Debug, Clone)]
pub struct Template {
    /// The canonical serialization of the cut's standalone sub-DFG. Byte equality of
    /// this key is the grouping ground truth.
    pub key: StructuralKey,
    /// The structure-determined evaluation shared by all sites (same sub-structure ⇒
    /// same ports, cycles, critical path; the area is recomputed as an
    /// order-independent sum so parent-block node ordering cannot leak in).
    pub evaluation: CutEvaluation,
    /// Every matched site, sorted by `(program, block, nodes)`.
    pub sites: Vec<SiteRef>,
}

impl Template {
    /// Datapath area the template pays once when chosen.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.evaluation.area
    }

    /// Upper bound on the template's savings: every site covered, conflicts ignored.
    #[must_use]
    pub fn total_savings(&self) -> f64 {
        self.sites.iter().map(|s| s.savings).sum()
    }
}

/// One candidate cut of a block shape, in canonical coordinates, with its template key.
struct CandidateCut {
    positions: Vec<u32>,
    evaluation: CutEvaluation,
    template_key: StructuralKey,
}

/// Rebuilds the cut as a standalone DFG: external value sources become fresh inputs
/// (deduplicated per source), members keep their operand structure, and members with
/// external consumers or output uses become outputs. Node insertion order follows the
/// member order of `cut` (ascending ids — producers precede consumers in a valid DFG),
/// which [`StructuralForm`] then canonicalises away.
fn cut_subgraph(dfg: &Dfg, cut: &CutSet) -> Dfg {
    let mut b = DfgBuilder::new("template");
    let mut mapped: HashMap<usize, Operand> = HashMap::new();
    let mut external_nodes: HashMap<usize, Operand> = HashMap::new();
    let mut external_inputs: HashMap<usize, Operand> = HashMap::new();
    let mut fresh = 0usize;
    for id in cut.iter() {
        let node = dfg.node(id);
        let mut operands = Vec::with_capacity(node.operands.len());
        for operand in &node.operands {
            let rebuilt = match *operand {
                Operand::Node(m) if cut.contains(m) => mapped[&m.index()],
                Operand::Node(m) => match external_nodes.get(&m.index()) {
                    Some(&port) => port,
                    None => {
                        let port = b.input(format!("v{fresh}"));
                        fresh += 1;
                        external_nodes.insert(m.index(), port);
                        port
                    }
                },
                Operand::Input(p) => match external_inputs.get(&p.index()) {
                    Some(&port) => port,
                    None => {
                        let port = b.input(format!("v{fresh}"));
                        fresh += 1;
                        external_inputs.insert(p.index(), port);
                        port
                    }
                },
                Operand::Imm(v) => Operand::Imm(v),
            };
            operands.push(rebuilt);
        }
        let opcode = node.opcode;
        mapped.insert(id.index(), b.op(opcode, &operands));
    }
    let mut outputs = 0usize;
    for id in cut.iter() {
        let node = dfg.node(id);
        let used_outside =
            dfg.is_output_source(id) || dfg.consumers(id).iter().any(|c| !cut.contains(*c));
        if node.opcode.has_result() && used_outside {
            b.output(format!("o{outputs}"), mapped[&id.index()]);
            outputs += 1;
        }
    }
    b.finish()
}

/// Residual-exclusion rounds per block shape during candidate enumeration. The pool's
/// Pareto pruning keeps only the best cut per port signature, so a disjoint secondary
/// cut elsewhere in the block (exactly what the iterative per-block driver finds after
/// committing its first cut) is invisible to a single fill. Each round excludes the
/// previous round's best cut and re-fills the residual, mirroring the iterative
/// driver; the cap bounds the work per distinct shape.
const ENUMERATION_ROUNDS: usize = 8;

/// Enumerates the candidate cuts of one block shape — the Pareto pool of the whole
/// block plus up to [`ENUMERATION_ROUNDS`] residual re-fills, each excluding the best
/// cut found so far (so disjoint secondary cuts become templates too, matching the
/// coverage the iterative per-block driver reaches) — and stamps each distinct cut
/// with its canonical template key.
fn enumerate_candidates(
    pool: &CorpusPool<'_>,
    dfg: &Dfg,
    form: &StructuralForm,
    constraints: Constraints,
    model: &dyn CostModel,
) -> Vec<CandidateCut> {
    let mut identified: Vec<IdentifiedCut> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    let mut excluded = CutSet::for_dfg(dfg);
    for _ in 0..ENUMERATION_ROUNDS {
        let entries = pool.candidates(dfg, form, &excluded, constraints);
        // The round's best cut (highest merit, first-enumerated on ties) seeds the
        // next residual, exactly like the iterative driver committing its choice.
        let best = entries
            .iter()
            .map(|entry| &entry.evaluation)
            .enumerate()
            .filter(|(_, evaluation)| evaluation.merit > 0.0)
            .max_by(|(ai, a), (bi, b)| a.merit.total_cmp(&b.merit).then(bi.cmp(ai)))
            .map(|(index, _)| index);
        let mut grew = false;
        for entry in &entries {
            let nodes: Vec<usize> = entry.cut.iter().map(|id| id.index()).collect();
            if seen.insert(nodes) {
                identified.push(entry.clone());
                grew = true;
            }
        }
        match best {
            Some(index) if grew => excluded.union_with(&entries[index].cut),
            _ => break,
        }
    }
    identified
        .into_iter()
        .map(|identified| {
            let IdentifiedCut {
                cut,
                mut evaluation,
            } = identified;
            // The fill's area accumulates in the parent block's walk order; re-sum it
            // order-independently so byte-equal template keys always carry bit-equal
            // evaluations, whichever parent shape produced them first.
            let mut areas: Vec<f64> = cut
                .iter()
                .map(|id| model.hardware_area(dfg.node(id)))
                .collect();
            areas.sort_by(f64::total_cmp);
            evaluation.area = areas.iter().sum();
            let template_key = StructuralForm::of(&cut_subgraph(dfg, &cut)).key().clone();
            CandidateCut {
                positions: form.to_canonical(&cut),
                evaluation,
                template_key,
            }
        })
        .collect()
}

/// Extracts every instruction template of the corpus: one enumeration (a Pareto fill
/// plus residual re-fill rounds) per distinct block shape, candidates grouped across
/// blocks *and* programs by byte-equal canonical sub-DFG serialization. Sites with non-positive savings are dropped; templates are
/// returned in descending savings-density order with ties broken by total savings and
/// then by key bytes (the selection derives its own decision order — this order is
/// for presentation and for density-leading head slices).
///
/// The fills go through a private cache; [`run_template_selection`] reads them from
/// the corpus run's cache instead.
#[must_use]
pub fn extract_templates(
    programs: &[Program],
    model: &dyn CostModel,
    constraints: Constraints,
    exploration_budget: Option<u64>,
) -> Vec<Template> {
    extract_with(
        &CorpusPool::new(model, exploration_budget),
        programs,
        model,
        constraints,
    )
}

/// [`extract_templates`] reading its fills through `pool`.
fn extract_with(
    pool: &CorpusPool<'_>,
    programs: &[Program],
    model: &dyn CostModel,
    constraints: Constraints,
) -> Vec<Template> {
    let mut candidates: HashMap<StructuralKey, Vec<CandidateCut>> = HashMap::new();
    let mut drafts: HashMap<StructuralKey, Template> = HashMap::new();
    for (program_index, program) in programs.iter().enumerate() {
        for (block_index, dfg) in program.blocks().iter().enumerate() {
            let form = StructuralForm::of(dfg);
            let shape_candidates = candidates
                .entry(form.key().clone())
                .or_insert_with(|| enumerate_candidates(pool, dfg, &form, constraints, model));
            for candidate in shape_candidates.iter() {
                let savings = candidate.evaluation.merit * dfg.exec_count() as f64;
                if savings <= 0.0 {
                    continue;
                }
                let cut = form.cut_from_canonical(dfg, &candidate.positions);
                let nodes: Vec<u32> = cut.iter().map(|id| id.index() as u32).collect();
                let draft = drafts
                    .entry(candidate.template_key.clone())
                    .or_insert_with(|| Template {
                        key: candidate.template_key.clone(),
                        evaluation: candidate.evaluation.clone(),
                        sites: Vec::new(),
                    });
                draft.sites.push(SiteRef {
                    program: program_index,
                    block: block_index,
                    nodes,
                    savings,
                });
            }
        }
    }
    let mut templates: Vec<Template> = drafts.into_values().collect();
    for template in &mut templates {
        template
            .sites
            .sort_by(|a, b| (a.program, a.block, &a.nodes).cmp(&(b.program, b.block, &b.nodes)));
    }
    sort_by_density(&mut templates);
    templates
}

/// Sorts templates by descending savings density (`total_savings / area`, compared by
/// cross-multiplication so zero areas need no special case), tie-broken by descending
/// total savings and then ascending key bytes — a total, deterministic order.
fn sort_by_density(templates: &mut [Template]) {
    templates.sort_by(|a, b| {
        let (ua, ub) = (a.total_savings(), b.total_savings());
        let lhs = ua * b.evaluation.area;
        let rhs = ub * a.evaluation.area;
        rhs.total_cmp(&lhs)
            .then_with(|| ub.total_cmp(&ua))
            .then_with(|| a.key.bytes().cmp(b.key.bytes()))
    });
}

/// Returns `true` when `area` fits the budget, with the shared float slack.
fn fits(area: f64, budget: f64) -> bool {
    area <= budget + AREA_EPS
}

/// One chosen template of a [`TemplateSelection`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChosenTemplate {
    /// Index into the template slice the selection ran over.
    pub template: usize,
    /// Indices of the sites actually covered (non-conflicting, claimed greedily in
    /// site order), into [`Template::sites`].
    pub sites_taken: Vec<usize>,
    /// Savings of the covered sites.
    pub savings: f64,
}

/// The outcome of one global template selection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TemplateSelection {
    /// Chosen templates, in decision (density) order.
    pub chosen: Vec<ChosenTemplate>,
    /// Total savings of all covered sites.
    pub total_savings: f64,
    /// Total area paid (one instance per chosen template).
    pub total_area: f64,
}

/// Every site of a template slice as a claim mask over one flat `u64` arena.
///
/// Each `(program, block)` some site lives in owns a word range wide enough for the
/// largest node index any site names there, and each site becomes the `(word, bits)`
/// pairs its nodes set. Claimed nodes are a bitset over the arena, so testing a site
/// against every earlier claim is a handful of word ANDs, and claiming or releasing it
/// sets or clears its bits. Clearing is exact because claimed sites never overlap.
struct SiteMasks {
    /// Per template: its first global site index (`first[t]..first[t + 1]`).
    first: Vec<usize>,
    /// Per global site: its `(word, bits)` pairs are `masks[spans[g]..spans[g + 1]]`.
    spans: Vec<usize>,
    masks: Vec<(usize, u64)>,
    /// Per global site: its savings.
    savings: Vec<f64>,
    /// Words in the arena.
    words: usize,
}

impl SiteMasks {
    fn new(templates: &[Template]) -> Self {
        let mut width: HashMap<(usize, usize), usize> = HashMap::new();
        for site in templates.iter().flat_map(|t| &t.sites) {
            let needed = site
                .nodes
                .iter()
                .map(|&n| n as usize + 1)
                .max()
                .unwrap_or(0);
            let entry = width.entry((site.program, site.block)).or_default();
            *entry = (*entry).max(needed);
        }
        let mut blocks: Vec<((usize, usize), usize)> = width.into_iter().collect();
        blocks.sort_unstable();
        let mut base: HashMap<(usize, usize), usize> = HashMap::with_capacity(blocks.len());
        let mut words = 0;
        for (block, nodes) in blocks {
            base.insert(block, words);
            words += nodes.div_ceil(64);
        }
        let mut first = Vec::with_capacity(templates.len() + 1);
        let mut spans = vec![0];
        let mut masks: Vec<(usize, u64)> = Vec::new();
        let mut savings = Vec::new();
        for template in templates {
            first.push(savings.len());
            for site in &template.sites {
                let offset = base[&(site.program, site.block)];
                let start = masks.len();
                for &node in &site.nodes {
                    let word = offset + node as usize / 64;
                    let bit = 1u64 << (node % 64);
                    match masks[start..].iter_mut().find(|(w, _)| *w == word) {
                        Some((_, bits)) => *bits |= bit,
                        None => masks.push((word, bit)),
                    }
                }
                spans.push(masks.len());
                savings.push(site.savings);
            }
        }
        first.push(savings.len());
        SiteMasks {
            first,
            spans,
            masks,
            savings,
            words,
        }
    }

    /// An arena with nothing claimed.
    fn arena(&self) -> Vec<u64> {
        vec![0; self.words]
    }

    fn site(&self, g: usize) -> &[(usize, u64)] {
        &self.masks[self.spans[g]..self.spans[g + 1]]
    }

    /// Claims the sites of template `t` that overlap nothing in `claimed`, greedily in
    /// site order (each claim blocks the template's later sites too), pushing their
    /// global indices onto `taken`. Returns the running savings continued from
    /// `savings` — continued, not summed separately, so the float accumulation order
    /// is identical wherever a take is replayed (policy, oracle, final commit).
    fn claim(&self, t: usize, claimed: &mut [u64], mut savings: f64, taken: &mut Vec<u32>) -> f64 {
        for g in self.first[t]..self.first[t + 1] {
            let site = self.site(g);
            if site.iter().any(|&(word, bits)| claimed[word] & bits != 0) {
                continue;
            }
            for &(word, bits) in site {
                claimed[word] |= bits;
            }
            savings += self.savings[g];
            taken.push(g as u32);
        }
        savings
    }

    /// Clears the bits of the given claimed sites.
    fn release(&self, sites: &[u32], claimed: &mut [u64]) {
        for &g in sites {
            for &(word, bits) in self.site(g as usize) {
                claimed[word] &= !bits;
            }
        }
    }

    /// The index of global site `g` within template `t`'s [`Template::sites`].
    fn local(&self, t: usize, g: u32) -> usize {
        g as usize - self.first[t]
    }
}

/// One level's reversible decision on the [`TemplateSelectPolicy`] state.
#[derive(Debug, Clone)]
enum Step {
    Skipped,
    Taken {
        /// Where the take's claimed sites start on [`SelectState::sites`].
        sites_from: usize,
        savings_before: f64,
        area_before: f64,
    },
}

/// The still-undecided entries of the relaxation's pour list, as a doubly linked
/// list in pour order. Entries are unlinked as their decision level is passed and
/// relinked, in reverse, as the walk backs up — always in stack order, so each relink
/// restores exactly the neighbours its unlink saw.
#[derive(Debug, Clone)]
struct Undecided {
    /// Per pour entry, plus a sentinel head at the end: the previous and next entry.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Decision positions below this are decided (their entries unlinked).
    decided: usize,
}

impl Undecided {
    fn new(entries: usize) -> Self {
        // A circular list through the sentinel `entries`.
        let ring = entries as u32 + 1;
        Undecided {
            prev: (0..ring).map(|i| (i + ring - 1) % ring).collect(),
            next: (0..ring).map(|i| (i + 1) % ring).collect(),
            decided: 0,
        }
    }

    fn sentinel(&self) -> u32 {
        self.next.len() as u32 - 1
    }

    /// Unlinks or relinks entries until exactly the positions `next..` are linked.
    /// `entry_at` maps a decision position to its pour entry, if it has one.
    fn sync(&mut self, entry_at: &[u32], next: usize) {
        while self.decided < next {
            let i = entry_at[self.decided];
            if i != NO_ENTRY {
                let (p, n) = (self.prev[i as usize], self.next[i as usize]);
                self.next[p as usize] = n;
                self.prev[n as usize] = p;
            }
            self.decided += 1;
        }
        while self.decided > next {
            self.decided -= 1;
            let i = entry_at[self.decided];
            if i != NO_ENTRY {
                let (p, n) = (self.prev[i as usize], self.next[i as usize]);
                self.next[p as usize] = i;
                self.prev[n as usize] = i;
            }
        }
    }
}

/// [`TemplateSelectPolicy::entry_at`] of a template that pours nothing.
const NO_ENTRY: u32 = u32::MAX;

/// The mutable walk state of one template selection.
#[derive(Debug, Clone)]
pub struct SelectState {
    /// Claimed nodes over the [`SiteMasks`] arena.
    claimed: Vec<u64>,
    /// Global indices of the claimed sites, one segment per take on the journal.
    sites: Vec<u32>,
    savings: f64,
    area: f64,
    taken: Vec<usize>,
    journal: Vec<Step>,
    undecided: Undecided,
}

/// The knapsack-style [`SearchPolicy`] of the global template selection.
///
/// Level `ℓ` decides the template at position `ℓ` of the decision order — descending
/// conflict-free savings, so the take-first dive is the savings-greedy solution and a
/// budget-truncated walk still returns something sensible. Branch 0 takes the
/// template, branch 1 skips it; a take that claims no site is dominance-pruned (the
/// skip branch reaches the same savings with more area room). Both branches are
/// guarded by the fractional-knapsack relaxation against the incumbent score —
/// visit-order-dependent pruning, so the policy declares
/// [`requires_sequential`](SearchPolicy::requires_sequential) and the kernel never
/// splits the walk.
pub struct TemplateSelectPolicy<'t> {
    templates: &'t [Template],
    /// Decision order: template indices sorted by descending conflict-free savings.
    order: Vec<usize>,
    /// Every site's claim mask.
    masks: SiteMasks,
    /// The relaxation's pour list: `(value, area)` of every template with positive
    /// conflict-free savings, in descending savings density — the pour order in
    /// which the fractional-knapsack relaxation is actually an upper bound.
    pour: Vec<(f64, f64)>,
    /// Per decision position: the index of its template's entry in `pour`, or
    /// [`NO_ENTRY`].
    entry_at: Vec<u32>,
    budget: TemplateBudget,
}

impl<'t> TemplateSelectPolicy<'t> {
    /// Builds the policy, deriving the savings decision order, the density pour
    /// order and the site claim masks from the templates.
    #[must_use]
    pub fn new(templates: &'t [Template], budget: TemplateBudget) -> Self {
        let upper: Vec<f64> = templates.iter().map(Template::total_savings).collect();
        let mut order: Vec<usize> = (0..templates.len()).collect();
        order.sort_by(|&a, &b| {
            upper[b]
                .total_cmp(&upper[a])
                .then_with(|| {
                    templates[a]
                        .evaluation
                        .area
                        .total_cmp(&templates[b].evaluation.area)
                })
                .then_with(|| templates[a].key.bytes().cmp(templates[b].key.bytes()))
        });
        let mut position = vec![0usize; templates.len()];
        for (level, &t) in order.iter().enumerate() {
            position[t] = level;
        }
        let mut bound_order = order.clone();
        bound_order.sort_by(|&a, &b| {
            let lhs = upper[a] * templates[b].evaluation.area;
            let rhs = upper[b] * templates[a].evaluation.area;
            rhs.total_cmp(&lhs)
                .then_with(|| upper[b].total_cmp(&upper[a]))
                .then_with(|| templates[a].key.bytes().cmp(templates[b].key.bytes()))
        });
        let mut pour = Vec::new();
        let mut entry_at = vec![NO_ENTRY; templates.len()];
        for t in bound_order.into_iter().filter(|&t| upper[t] > 0.0) {
            entry_at[position[t]] = pour.len() as u32;
            pour.push((upper[t], templates[t].evaluation.area));
        }
        TemplateSelectPolicy {
            templates,
            order,
            masks: SiteMasks::new(templates),
            pour,
            entry_at,
            budget,
        }
    }

    /// Whether the fractional-knapsack relaxation proves the subtree cannot beat
    /// `score`. The relaxation is `savings` plus the value of greedily pouring the
    /// still-undecided templates (decision positions `next..`) into `room` area in
    /// descending *density* order, the last one fractionally. It is an upper bound on
    /// every completion — each template's value is itself the conflict-ignoring
    /// site-savings sum, and the densest-first pour maximises the fractional
    /// relaxation whatever order the levels decide in.
    ///
    /// The pour walks the [`Undecided`] list after syncing it to `next`, so it never
    /// visits a decided template, and it stops as soon as the running bound exceeds
    /// `score`: every poured amount is non-negative, so the full pour would exceed
    /// it too.
    fn bound_prunes(
        &self,
        undecided: &mut Undecided,
        next: usize,
        savings: f64,
        room: f64,
        score: f64,
    ) -> bool {
        undecided.sync(&self.entry_at, next);
        let mut bound = savings;
        let mut room = room.max(0.0);
        let sentinel = undecided.sentinel();
        let mut i = undecided.next[sentinel as usize];
        while i != sentinel && bound <= score {
            let (value, area) = self.pour[i as usize];
            if area <= room {
                bound += value;
                room -= area;
            } else {
                if area > 0.0 {
                    bound += value * (room / area);
                }
                break;
            }
            i = undecided.next[i as usize];
        }
        bound <= score
    }
}

/// The incumbent payload: the template indices taken so far, in decision order.
#[derive(Debug, Clone)]
pub struct SelectDraft {
    taken: Vec<usize>,
}

impl SearchPolicy for TemplateSelectPolicy<'_> {
    type Sink = Incumbent<SelectDraft>;
    type State = SelectState;

    fn depth(&self) -> usize {
        self.order.len()
    }

    fn max_arity(&self) -> usize {
        2
    }

    fn initial_state(&self) -> SelectState {
        SelectState {
            claimed: self.masks.arena(),
            sites: Vec::new(),
            savings: 0.0,
            area: 0.0,
            taken: Vec::new(),
            journal: Vec::new(),
            undecided: Undecided::new(self.pour.len()),
        }
    }

    fn choice_count(&self, _state: &SelectState, _level: usize) -> usize {
        2
    }

    fn apply(
        &self,
        state: &mut SelectState,
        level: usize,
        choice: usize,
        stats: &mut SearchStats,
        incumbent: &mut Incumbent<SelectDraft>,
    ) -> bool {
        let t = self.order[level];
        if choice == 0 {
            stats.cuts_considered += 1;
            if self
                .budget
                .max_templates
                .is_some_and(|limit| state.taken.len() >= limit)
            {
                stats.pruned_node_budget += 1;
                return false;
            }
            let area = state.area + self.templates[t].evaluation.area;
            if !fits(area, self.budget.area) {
                stats.pruned_output += 1;
                return false;
            }
            let sites_from = state.sites.len();
            let savings = self
                .masks
                .claim(t, &mut state.claimed, state.savings, &mut state.sites);
            if state.sites.len() == sites_from {
                // Dominated: paying the area without claiming a site can never beat
                // the skip branch, which reaches the same savings with more room.
                stats.pruned_bound += 1;
                return false;
            }
            let room = self.budget.area - area;
            if self.bound_prunes(
                &mut state.undecided,
                level + 1,
                savings,
                room,
                incumbent.score(),
            ) {
                self.masks
                    .release(&state.sites[sites_from..], &mut state.claimed);
                state.sites.truncate(sites_from);
                stats.pruned_bound += 1;
                return false;
            }
            state.journal.push(Step::Taken {
                sites_from,
                savings_before: state.savings,
                area_before: state.area,
            });
            state.savings = savings;
            state.area = area;
            state.taken.push(t);
            stats.feasible_cuts += 1;
            incumbent.offer(state.savings, || SelectDraft {
                taken: state.taken.clone(),
            });
            true
        } else {
            let room = self.budget.area - state.area;
            if self.bound_prunes(
                &mut state.undecided,
                level + 1,
                state.savings,
                room,
                incumbent.score(),
            ) {
                stats.bound_subtree_prunes += 1;
                return false;
            }
            state.journal.push(Step::Skipped);
            true
        }
    }

    fn undo(&self, state: &mut SelectState, _level: usize, _choice: usize) {
        match state.journal.pop().expect("journal entry per applied step") {
            Step::Skipped => {}
            Step::Taken {
                sites_from,
                savings_before,
                area_before,
            } => {
                self.masks
                    .release(&state.sites[sites_from..], &mut state.claimed);
                state.sites.truncate(sites_from);
                state.savings = savings_before;
                state.area = area_before;
                state.taken.pop();
            }
        }
    }

    fn requires_sequential(&self) -> bool {
        true
    }
}

/// Replays a decision-order take sequence into the final [`TemplateSelection`], using
/// the exact accumulation order of the walk (so the totals are bit-equal to the
/// incumbent score that won).
fn commit_selection(
    templates: &[Template],
    masks: &SiteMasks,
    taken: &[usize],
) -> TemplateSelection {
    let mut claimed = masks.arena();
    let mut sites = Vec::new();
    let mut selection = TemplateSelection::default();
    for &t in taken {
        sites.clear();
        let savings = masks.claim(t, &mut claimed, selection.total_savings, &mut sites);
        selection.chosen.push(ChosenTemplate {
            template: t,
            savings: savings - selection.total_savings,
            sites_taken: sites.iter().map(|&g| masks.local(t, g)).collect(),
        });
        selection.total_savings = savings;
        selection.total_area += templates[t].evaluation.area;
    }
    selection
}

/// Selects the best template subset under `budget` by exact branch-and-bound on the
/// shared [`SearchKernel`]. Returns the selection and the walk's statistics.
///
/// The walk is unbounded: the fractional-knapsack bound is admissible but can stay
/// loose when many templates fight over the same sites, so on large corpora (dozens of
/// templates) the tree may grow exponentially. Callers with real corpora should use
/// [`select_templates_budgeted`] instead.
#[must_use]
pub fn select_templates(
    templates: &[Template],
    budget: TemplateBudget,
) -> (TemplateSelection, SearchStats) {
    select_templates_budgeted(templates, budget, None)
}

/// [`select_templates`] with a kernel exploration budget: the walk stops descending
/// after `exploration_budget` take-branch attempts and returns the best selection
/// visited so far (the take-first walk visits the density-greedy solution first, so
/// any budget of at least the template count yields a result no worse than greedy).
/// When the budget trips,
/// [`SearchStats::budget_exhausted`] is set and the selection is a lower bound
/// rather than a proven optimum; `None` means unbounded (exact).
#[must_use]
pub fn select_templates_budgeted(
    templates: &[Template],
    budget: TemplateBudget,
    exploration_budget: Option<u64>,
) -> (TemplateSelection, SearchStats) {
    if templates.is_empty() {
        return (TemplateSelection::default(), SearchStats::default());
    }
    let policy = TemplateSelectPolicy::new(templates, budget);
    let (draft, stats) = SearchKernel::sequential()
        .with_exploration_budget(exploration_budget)
        .run(&policy);
    let selection = draft
        .map(|draft| commit_selection(templates, &policy.masks, &draft.taken))
        .unwrap_or_default();
    (selection, stats)
}

/// Brute-force oracle: enumerates every feasible subset in the branch-and-bound's
/// exact visit order (take before skip, strict-improvement incumbent), without any
/// bound. Intended for small fixtures; panics above 20 templates.
#[must_use]
pub fn select_templates_exhaustive(
    templates: &[Template],
    budget: TemplateBudget,
) -> TemplateSelection {
    assert!(
        templates.len() <= 20,
        "the exhaustive oracle is for small fixtures"
    );
    let policy = TemplateSelectPolicy::new(templates, budget);
    let mut state = policy.initial_state();
    let mut best_savings = 0.0f64;
    let mut best_taken: Option<Vec<usize>> = None;
    walk_exhaustive(&policy, &mut state, 0, &mut best_savings, &mut best_taken);
    best_taken
        .map(|taken| commit_selection(templates, &policy.masks, &taken))
        .unwrap_or_default()
}

/// One chosen template row of a [`TemplateReport`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TemplateChoice {
    /// The template's canonical-form hash (an identifier for cross-referencing; the
    /// byte-exact key stays internal).
    pub key_hash: u64,
    /// Operation nodes in the template datapath.
    pub nodes: usize,
    /// Register-file read ports used.
    pub inputs: usize,
    /// Register-file write ports used.
    pub outputs: usize,
    /// Normalised datapath area, paid once.
    pub area: f64,
    /// Cycles saved per execution of one site.
    pub merit: f64,
    /// Sites the template matched across the corpus.
    pub sites_matched: u64,
    /// Sites actually covered (after conflict resolution).
    pub sites_taken: u64,
    /// Total cycles saved by the covered sites.
    pub savings: f64,
}

/// One cumulative area-vs-speedup Pareto row of a [`TemplateReport`]: the state after
/// committing the first `templates` chosen templates in decision order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TemplateParetoRow {
    /// Templates committed so far.
    pub templates: u64,
    /// Cumulative area paid.
    pub area: f64,
    /// Cumulative cycles saved.
    pub savings: f64,
    /// Corpus speed-up at this point (clamped ratio against the baseline cycles).
    pub speedup: f64,
}

/// The template-selection summary surfaced through `run_corpus`, serve mode and the
/// CLI's `--templates` flag.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TemplateReport {
    /// The area budget the selection ran under.
    pub budget_area: f64,
    /// Distinct templates extracted from the corpus.
    pub templates_considered: u64,
    /// Total matched sites across all templates.
    pub sites_total: u64,
    /// The chosen templates, in decision order.
    pub chosen: Vec<TemplateChoice>,
    /// Total area paid by the chosen templates.
    pub total_area: f64,
    /// Total cycles saved by all covered sites.
    pub total_savings: f64,
    /// Sites covered by the chosen templates.
    pub sites_covered: u64,
    /// Baseline dynamic cycles of the whole corpus.
    pub baseline_cycles: f64,
    /// Corpus speed-up of the full selection.
    pub speedup: f64,
    /// Cumulative area-vs-speedup Pareto rows, one per chosen template.
    pub pareto: Vec<TemplateParetoRow>,
}

/// Baseline dynamic cycles of the corpus: every block in software, weighted by its
/// execution count.
fn corpus_baseline_cycles(programs: &[Program], model: &dyn CostModel) -> f64 {
    programs
        .iter()
        .flat_map(Program::blocks)
        .map(|dfg| {
            let per_execution: u64 = dfg
                .iter_nodes()
                .map(|(_, node)| u64::from(model.software_cycles(node)))
                .sum();
            dfg.exec_count() as f64 * per_execution as f64
        })
        .sum()
}

/// Builds the surface report for a finished selection.
#[must_use]
pub fn report_selection(
    programs: &[Program],
    model: &dyn CostModel,
    templates: &[Template],
    selection: &TemplateSelection,
    budget: TemplateBudget,
) -> TemplateReport {
    let baseline_cycles = corpus_baseline_cycles(programs, model);
    let mut chosen = Vec::with_capacity(selection.chosen.len());
    let mut pareto = Vec::with_capacity(selection.chosen.len());
    let (mut cum_area, mut cum_savings) = (0.0f64, 0.0f64);
    for choice in &selection.chosen {
        let template = &templates[choice.template];
        chosen.push(TemplateChoice {
            key_hash: template.key.hash(),
            nodes: template.evaluation.nodes,
            inputs: template.evaluation.inputs,
            outputs: template.evaluation.outputs,
            area: template.evaluation.area,
            merit: template.evaluation.merit,
            sites_matched: template.sites.len() as u64,
            sites_taken: choice.sites_taken.len() as u64,
            savings: choice.savings,
        });
        cum_area += template.evaluation.area;
        cum_savings += choice.savings;
        pareto.push(TemplateParetoRow {
            templates: pareto.len() as u64 + 1,
            area: cum_area,
            savings: cum_savings,
            speedup: clamped_speedup(baseline_cycles, cum_savings),
        });
    }
    TemplateReport {
        budget_area: budget.area,
        templates_considered: templates.len() as u64,
        sites_total: templates.iter().map(|t| t.sites.len() as u64).sum(),
        chosen,
        total_area: selection.total_area,
        total_savings: selection.total_savings,
        sites_covered: selection
            .chosen
            .iter()
            .map(|c| c.sites_taken.len() as u64)
            .sum(),
        baseline_cycles,
        speedup: clamped_speedup(baseline_cycles, selection.total_savings),
        pareto,
    }
}

/// End-to-end template pass over a corpus: extract, select under `budget`, report.
/// The exploration budget bounds both the per-shape candidate enumeration and the
/// selection branch-and-bound (see [`select_templates_budgeted`]).
///
/// Extraction reads its fills through `cache`, normally the one the corpus run just
/// filled: fill keys are canonical, so the whole-block fills and most residual fills
/// are hits, and a cold or unrelated cache changes only which fills are paid for,
/// never the report.
#[must_use]
pub fn run_template_selection(
    programs: &[Program],
    model: &dyn CostModel,
    constraints: Constraints,
    exploration_budget: Option<u64>,
    budget: TemplateBudget,
    cache: &Arc<WarmPoolCache>,
) -> TemplateReport {
    let pool = CorpusPool::with_cache(model, exploration_budget, Arc::clone(cache));
    let templates = extract_with(&pool, programs, model, constraints);
    let (selection, _) = select_templates_budgeted(&templates, budget, exploration_budget);
    report_selection(programs, model, &templates, &selection, budget)
}

fn walk_exhaustive(
    policy: &TemplateSelectPolicy<'_>,
    state: &mut SelectState,
    level: usize,
    best_savings: &mut f64,
    best_taken: &mut Option<Vec<usize>>,
) {
    if level == policy.order.len() {
        return;
    }
    let t = policy.order[level];
    let area = state.area + policy.templates[t].evaluation.area;
    let within_count = policy
        .budget
        .max_templates
        .is_none_or(|limit| state.taken.len() < limit);
    if within_count && fits(area, policy.budget.area) {
        let sites_from = state.sites.len();
        let savings = policy
            .masks
            .claim(t, &mut state.claimed, state.savings, &mut state.sites);
        // The same dominance rule as the branch-and-bound: a take that claims no
        // site is skipped, so both walks visit the same solutions.
        if state.sites.len() > sites_from {
            let (savings_before, area_before) = (state.savings, state.area);
            state.savings = savings;
            state.area = area;
            state.taken.push(t);
            if state.savings > *best_savings {
                *best_savings = state.savings;
                *best_taken = Some(state.taken.clone());
            }
            walk_exhaustive(policy, state, level + 1, best_savings, best_taken);
            policy
                .masks
                .release(&state.sites[sites_from..], &mut state.claimed);
            state.sites.truncate(sites_from);
            state.savings = savings_before;
            state.area = area_before;
            state.taken.pop();
        }
    }
    walk_exhaustive(policy, state, level + 1, best_savings, best_taken);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WarmCacheConfig;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    /// The selection policy as first written: per-block `Vec<u32>` claims in a
    /// `HashMap`, and a relaxation bound that scans the whole density order on every
    /// call. The differential below pins [`TemplateSelectPolicy`] to it, counters and
    /// all.
    mod reference {
        use super::super::*;

        type Claims = HashMap<(usize, usize), Vec<u32>>;

        fn claimable_sites(
            template: &Template,
            claims: &Claims,
            mut savings: f64,
        ) -> (Vec<usize>, f64) {
            let mut pending: Claims = HashMap::new();
            let mut taken = Vec::new();
            for (index, site) in template.sites.iter().enumerate() {
                let key = (site.program, site.block);
                let blocked = |set: Option<&Vec<u32>>| {
                    set.is_some_and(|nodes| site.nodes.iter().any(|n| nodes.contains(n)))
                };
                if blocked(claims.get(&key)) || blocked(pending.get(&key)) {
                    continue;
                }
                pending.entry(key).or_default().extend(&site.nodes);
                savings += site.savings;
                taken.push(index);
            }
            (taken, savings)
        }

        fn commit_sites(template: &Template, sites: &[usize], claims: &mut Claims) {
            for &index in sites {
                let site = &template.sites[index];
                claims
                    .entry((site.program, site.block))
                    .or_default()
                    .extend(&site.nodes);
            }
        }

        fn release_sites(template: &Template, sites: &[usize], claims: &mut Claims) {
            for &index in sites {
                let site = &template.sites[index];
                if let Some(nodes) = claims.get_mut(&(site.program, site.block)) {
                    nodes.retain(|n| !site.nodes.contains(n));
                }
            }
        }

        #[derive(Clone)]
        enum Step {
            Skipped,
            Taken {
                sites: Vec<usize>,
                savings_before: f64,
                area_before: f64,
            },
        }

        #[derive(Clone, Default)]
        pub struct State {
            claims: Claims,
            savings: f64,
            area: f64,
            taken: Vec<usize>,
            journal: Vec<Step>,
        }

        pub struct Policy<'t> {
            templates: &'t [Template],
            order: Vec<usize>,
            bound_order: Vec<usize>,
            position: Vec<usize>,
            upper: Vec<f64>,
            budget: TemplateBudget,
        }

        impl<'t> Policy<'t> {
            fn new(templates: &'t [Template], budget: TemplateBudget) -> Self {
                let upper: Vec<f64> = templates.iter().map(Template::total_savings).collect();
                let mut order: Vec<usize> = (0..templates.len()).collect();
                order.sort_by(|&a, &b| {
                    upper[b]
                        .total_cmp(&upper[a])
                        .then_with(|| {
                            templates[a]
                                .evaluation
                                .area
                                .total_cmp(&templates[b].evaluation.area)
                        })
                        .then_with(|| templates[a].key.bytes().cmp(templates[b].key.bytes()))
                });
                let mut position = vec![0usize; templates.len()];
                for (level, &t) in order.iter().enumerate() {
                    position[t] = level;
                }
                let mut bound_order = order.clone();
                bound_order.sort_by(|&a, &b| {
                    let lhs = upper[a] * templates[b].evaluation.area;
                    let rhs = upper[b] * templates[a].evaluation.area;
                    rhs.total_cmp(&lhs)
                        .then_with(|| upper[b].total_cmp(&upper[a]))
                        .then_with(|| templates[a].key.bytes().cmp(templates[b].key.bytes()))
                });
                Policy {
                    templates,
                    order,
                    bound_order,
                    position,
                    upper,
                    budget,
                }
            }

            fn optimistic(&self, next: usize, savings: f64, room: f64) -> f64 {
                let mut bound = savings;
                let mut room = room.max(0.0);
                for &t in &self.bound_order {
                    if self.position[t] < next {
                        continue;
                    }
                    let value = self.upper[t];
                    if value <= 0.0 {
                        continue;
                    }
                    let area = self.templates[t].evaluation.area;
                    if area <= room {
                        bound += value;
                        room -= area;
                    } else {
                        if area > 0.0 {
                            bound += value * (room / area);
                        }
                        break;
                    }
                }
                bound
            }
        }

        impl SearchPolicy for Policy<'_> {
            type Sink = Incumbent<Vec<usize>>;
            type State = State;

            fn depth(&self) -> usize {
                self.order.len()
            }

            fn max_arity(&self) -> usize {
                2
            }

            fn initial_state(&self) -> State {
                State::default()
            }

            fn choice_count(&self, _state: &State, _level: usize) -> usize {
                2
            }

            fn apply(
                &self,
                state: &mut State,
                level: usize,
                choice: usize,
                stats: &mut SearchStats,
                incumbent: &mut Incumbent<Vec<usize>>,
            ) -> bool {
                let t = self.order[level];
                if choice == 0 {
                    stats.cuts_considered += 1;
                    if self
                        .budget
                        .max_templates
                        .is_some_and(|limit| state.taken.len() >= limit)
                    {
                        stats.pruned_node_budget += 1;
                        return false;
                    }
                    let template = &self.templates[t];
                    let area = state.area + template.evaluation.area;
                    if !fits(area, self.budget.area) {
                        stats.pruned_output += 1;
                        return false;
                    }
                    let (sites, savings) = claimable_sites(template, &state.claims, state.savings);
                    if sites.is_empty() {
                        stats.pruned_bound += 1;
                        return false;
                    }
                    if self.optimistic(level + 1, savings, self.budget.area - area)
                        <= incumbent.score()
                    {
                        stats.pruned_bound += 1;
                        return false;
                    }
                    commit_sites(template, &sites, &mut state.claims);
                    state.journal.push(Step::Taken {
                        sites,
                        savings_before: state.savings,
                        area_before: state.area,
                    });
                    state.savings = savings;
                    state.area = area;
                    state.taken.push(t);
                    stats.feasible_cuts += 1;
                    incumbent.offer(state.savings, || state.taken.clone());
                    true
                } else {
                    if self.optimistic(level + 1, state.savings, self.budget.area - state.area)
                        <= incumbent.score()
                    {
                        stats.bound_subtree_prunes += 1;
                        return false;
                    }
                    state.journal.push(Step::Skipped);
                    true
                }
            }

            fn undo(&self, state: &mut State, level: usize, _choice: usize) {
                match state.journal.pop().expect("journal entry per applied step") {
                    Step::Skipped => {}
                    Step::Taken {
                        sites,
                        savings_before,
                        area_before,
                    } => {
                        let t = self.order[level];
                        release_sites(&self.templates[t], &sites, &mut state.claims);
                        state.savings = savings_before;
                        state.area = area_before;
                        state.taken.pop();
                    }
                }
            }

            fn requires_sequential(&self) -> bool {
                true
            }
        }

        fn commit_selection(templates: &[Template], taken: &[usize]) -> TemplateSelection {
            let mut claims = Claims::new();
            let mut selection = TemplateSelection::default();
            for &t in taken {
                let template = &templates[t];
                let (sites, savings) = claimable_sites(template, &claims, selection.total_savings);
                commit_sites(template, &sites, &mut claims);
                selection.chosen.push(ChosenTemplate {
                    template: t,
                    savings: savings - selection.total_savings,
                    sites_taken: sites,
                });
                selection.total_savings = savings;
                selection.total_area += template.evaluation.area;
            }
            selection
        }

        /// The reference [`select_templates_budgeted`].
        pub fn select_budgeted(
            templates: &[Template],
            budget: TemplateBudget,
            exploration_budget: Option<u64>,
        ) -> (TemplateSelection, SearchStats) {
            if templates.is_empty() {
                return (TemplateSelection::default(), SearchStats::default());
            }
            let policy = Policy::new(templates, budget);
            let (taken, stats) = SearchKernel::sequential()
                .with_exploration_budget(exploration_budget)
                .run(&policy);
            let selection = taken
                .map(|taken| commit_selection(templates, &taken))
                .unwrap_or_default();
            (selection, stats)
        }
    }

    fn mac_block(name: &str, exec: u64) -> Dfg {
        let mut b = DfgBuilder::new(name);
        b.exec_count(exec);
        let x = b.input("x");
        let y = b.input("y");
        let acc = b.input("acc");
        let prod = b.mul(x, y);
        let sum = b.add(prod, acc);
        b.output("out", sum);
        b.finish()
    }

    fn chain_block(name: &str, exec: u64) -> Dfg {
        let mut b = DfgBuilder::new(name);
        b.exec_count(exec);
        let a = b.input("a");
        let c = b.input("c");
        let x = b.xor(a, c);
        let s = b.shl(x, b.imm(3));
        let o = b.add(s, a);
        b.output("o", o);
        b.finish()
    }

    fn site(program: usize, block: usize, nodes: &[u32], savings: f64) -> SiteRef {
        SiteRef {
            program,
            block,
            nodes: nodes.to_vec(),
            savings,
        }
    }

    fn template(tag: u8, area: f64, sites: Vec<SiteRef>) -> Template {
        Template {
            key: StructuralKey::from_bytes(vec![tag; 8]),
            evaluation: CutEvaluation {
                nodes: 2,
                inputs: 2,
                outputs: 1,
                convex: true,
                software_cycles: 3,
                hardware_critical_path: 1.0,
                hardware_cycles: 1,
                area,
                merit: 2.0,
            },
            sites,
        }
    }

    /// A deterministic Fisher–Yates driven by a splitmix-style LCG, so the shuffle
    /// property tests are seeded and reproducible.
    fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut state = seed | 1;
        for i in (1..items.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % (i + 1);
            items.swap(i, j);
        }
    }

    fn program(name: &str, blocks: Vec<Dfg>) -> Program {
        let mut p = Program::new(name);
        for block in blocks {
            p.add_block(block);
        }
        p
    }

    #[test]
    fn isomorphic_cuts_group_across_blocks_and_programs() {
        let programs = vec![
            program("p0", vec![mac_block("m0", 100), chain_block("c0", 7)]),
            program("p1", vec![mac_block("different_names_same_shape", 25)]),
        ];
        let model = DefaultCostModel::new();
        let templates = extract_templates(&programs, &model, Constraints::new(3, 1), Some(100_000));
        assert!(!templates.is_empty());
        let cross = templates
            .iter()
            .find(|t| {
                let programs: std::collections::HashSet<usize> =
                    t.sites.iter().map(|s| s.program).collect();
                programs.len() == 2
            })
            .expect("the shared MAC shape must group into one cross-program template");
        // Both sites carry the same per-execution merit; savings scale with exec count.
        let m0 = cross.sites.iter().find(|s| s.program == 0).unwrap();
        let m1 = cross.sites.iter().find(|s| s.program == 1).unwrap();
        assert!((m0.savings / 100.0 - m1.savings / 25.0).abs() < 1e-12);
    }

    #[test]
    fn grouping_is_invariant_under_program_and_block_shuffling() {
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(4, 2);
        let summary = |programs: &[Program]| -> Vec<(Vec<u8>, u64, Vec<u64>)> {
            let mut rows: Vec<(Vec<u8>, u64, Vec<u64>)> =
                extract_templates(programs, &model, constraints, Some(100_000))
                    .into_iter()
                    .map(|t| {
                        let mut savings: Vec<u64> =
                            t.sites.iter().map(|s| s.savings.to_bits()).collect();
                        savings.sort_unstable();
                        (t.key.bytes().to_vec(), t.evaluation.area.to_bits(), savings)
                    })
                    .collect();
            rows.sort();
            rows
        };
        let make = |program_order: u64, block_order: u64| -> Vec<Program> {
            let mut specs: Vec<(String, Vec<Dfg>)> = (0..4)
                .map(|p| {
                    let mut blocks = vec![
                        mac_block(&format!("m{p}"), 10 + p),
                        chain_block(&format!("c{p}"), 3 + p),
                        mac_block(&format!("m{p}b"), 50 + p),
                    ];
                    shuffle(&mut blocks, block_order.wrapping_add(p));
                    (format!("prog{p}"), blocks)
                })
                .collect();
            shuffle(&mut specs, program_order);
            specs
                .into_iter()
                .map(|(name, blocks)| program(&name, blocks))
                .collect()
        };
        let reference = summary(&make(0, 0));
        for seed in [1u64, 7, 42, 1234] {
            let shuffled = summary(&make(seed, seed.wrapping_mul(31)));
            assert_eq!(
                reference, shuffled,
                "template grouping changed under corpus shuffling (seed {seed})"
            );
        }
    }

    #[test]
    fn overlapping_sites_resolve_greedily_in_site_order() {
        let t = template(
            1,
            1.0,
            vec![
                site(0, 0, &[0, 1], 10.0),
                site(0, 0, &[1, 2], 50.0), // overlaps site 0 → skipped despite more savings
                site(0, 0, &[3, 4], 5.0),
                site(0, 1, &[0, 1], 2.0), // other block: no conflict
            ],
        );
        let masks = SiteMasks::new(std::slice::from_ref(&t));
        let mut claimed = masks.arena();
        let mut taken = Vec::new();
        let savings = masks.claim(0, &mut claimed, 0.0, &mut taken);
        assert_eq!(taken, vec![0, 2, 3]);
        assert!((savings - 17.0).abs() < 1e-12);
        // Releasing the claims restores the empty arena.
        masks.release(&taken, &mut claimed);
        assert_eq!(claimed, masks.arena());
    }

    /// A seeded random template set: sites crowd a few blocks (so they overlap, within
    /// one template and across templates), some blocks span several mask words, and
    /// areas and savings repeat often enough to exercise every tie-break.
    fn random_templates(seed: u64) -> Vec<Template> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |bound: u64| -> u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        // Nodes per block: `(program, block)` indexes this table.
        const WIDTHS: [[u32; 3]; 3] = [[8, 150, 12], [70, 6, 200], [10, 130, 64]];
        let count = 8 + next(17) as usize;
        (0..count)
            .map(|tag| {
                let sites = (0..1 + next(5))
                    .map(|_| {
                        let (program, block) = (next(3) as usize, next(3) as usize);
                        let width = u64::from(WIDTHS[program][block]);
                        let first = next(width);
                        let mut nodes: Vec<u32> = (0..1 + next(5))
                            .map(|_| ((first + next(6)) % width) as u32)
                            .collect();
                        nodes.sort_unstable();
                        nodes.dedup();
                        site(program, block, &nodes, (1 + next(40)) as f64 * 0.5)
                    })
                    .collect();
                let area = [0.0, 0.25, 0.5, 1.0, 1.5, 2.75][next(6) as usize];
                template(tag as u8, area, sites)
            })
            .collect()
    }

    #[test]
    fn policy_matches_the_reference_policy_visit_for_visit() {
        let (mut exhausted, mut multi_word) = (0, false);
        for seed in 0..60u64 {
            let templates = random_templates(seed);
            multi_word |= SiteMasks::new(&templates)
                .masks
                .iter()
                .any(|&(word, _)| word > 0);
            let total_area: f64 = templates.iter().map(Template::area).sum();
            for fraction in [0.1, 0.3, 0.6, 1.0, 1e9] {
                for limit in [None, Some(2), Some(5)] {
                    for exploration in [None, Some(3), Some(25), Some(200)] {
                        let budget =
                            TemplateBudget::new(total_area * fraction).with_max_templates(limit);
                        let fast = select_templates_budgeted(&templates, budget, exploration);
                        let reference = reference::select_budgeted(&templates, budget, exploration);
                        assert_eq!(
                            fast, reference,
                            "seed {seed}, fraction {fraction}, limit {limit:?}, \
                             exploration {exploration:?}"
                        );
                        exhausted += u32::from(fast.1.budget_exhausted);
                    }
                }
            }
        }
        assert!(multi_word, "some block spans more than one mask word");
        assert!(exhausted > 0, "some exploration budget trips");
    }

    fn conflict_corpus() -> Vec<Template> {
        vec![
            template(
                1,
                2.0,
                vec![site(0, 0, &[0, 1], 30.0), site(0, 1, &[2, 3], 12.0)],
            ),
            template(2, 1.5, vec![site(0, 0, &[1, 2], 25.0)]),
            template(
                3,
                1.0,
                vec![site(1, 0, &[0, 1], 10.0), site(1, 0, &[4, 5], 9.0)],
            ),
            template(4, 0.5, vec![site(2, 0, &[0], 4.0)]),
            template(5, 3.0, vec![site(0, 2, &[0, 1, 2], 40.0)]),
            template(
                6,
                2.5,
                vec![site(1, 1, &[0, 1], 18.0), site(2, 1, &[0, 1], 17.0)],
            ),
        ]
    }

    #[test]
    fn branch_and_bound_matches_the_exhaustive_oracle() {
        let templates = conflict_corpus();
        for budget_area in [0.0, 0.5, 1.0, 2.0, 2.5, 3.5, 4.0, 5.5, 7.0, 100.0] {
            for limit in [None, Some(1), Some(2), Some(3)] {
                let budget = TemplateBudget::new(budget_area).with_max_templates(limit);
                let (fast, _) = select_templates(&templates, budget);
                let oracle = select_templates_exhaustive(&templates, budget);
                assert_eq!(
                    fast, oracle,
                    "divergence at area {budget_area}, limit {limit:?}"
                );
            }
        }
    }

    #[test]
    fn extracted_corpus_selection_matches_the_oracle() {
        let programs = vec![
            program("p0", vec![mac_block("m0", 100), chain_block("c0", 40)]),
            program("p1", vec![mac_block("m1", 30), chain_block("c1", 5)]),
            program("p2", vec![mac_block("m2", 8)]),
        ];
        let model = DefaultCostModel::new();
        let templates = extract_templates(&programs, &model, Constraints::new(3, 1), Some(100_000));
        assert!(templates.len() <= 20, "fixture stays oracle-sized");
        let total_area: f64 = templates.iter().map(Template::area).sum();
        for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let budget = TemplateBudget::new(total_area * fraction);
            let (fast, stats) = select_templates(&templates, budget);
            let oracle = select_templates_exhaustive(&templates, budget);
            assert_eq!(fast, oracle, "divergence at fraction {fraction}");
            assert!(stats.cuts_considered > 0 || templates.is_empty());
        }
    }

    #[test]
    fn report_rows_are_cumulative_and_consistent() {
        let programs = vec![
            program("p0", vec![mac_block("hot", 1000)]),
            program("p1", vec![mac_block("warm", 400)]),
        ];
        let model = DefaultCostModel::new();
        let report = run_template_selection(
            &programs,
            &model,
            Constraints::new(3, 1),
            Some(100_000),
            TemplateBudget::new(1e9),
            &Arc::new(WarmPoolCache::new(WarmCacheConfig::default())),
        );
        assert!(report.templates_considered > 0);
        assert!(!report.chosen.is_empty());
        assert!(report.speedup > 1.0, "duplicated hot MACs must pay off");
        let last = report.pareto.last().expect("one row per chosen template");
        assert_eq!(report.pareto.len(), report.chosen.len());
        assert!((last.area - report.total_area).abs() < 1e-9);
        assert!((last.savings - report.total_savings).abs() < 1e-9);
        assert_eq!(last.speedup.to_bits(), report.speedup.to_bits());
        let covered: u64 = report.chosen.iter().map(|c| c.sites_taken).sum();
        assert_eq!(covered, report.sites_covered);
        assert!(report.sites_covered <= report.sites_total);
    }

    #[test]
    fn empty_inputs_give_empty_outcomes() {
        let (selection, stats) = select_templates(&[], TemplateBudget::new(10.0));
        assert_eq!(selection, TemplateSelection::default());
        assert_eq!(stats.cuts_considered, 0);
        let oracle = select_templates_exhaustive(&[], TemplateBudget::new(10.0));
        assert_eq!(oracle, TemplateSelection::default());
    }
}
