//! # ise-baselines — prior-art identification algorithms, and the algorithm catalogue
//!
//! The paper compares its identification/selection framework against two representative
//! state-of-the-art techniques (Section 8):
//!
//! * **Clubbing** (Baleani et al., CODES 2002) — a greedy, linear-complexity clustering
//!   that grows n-input/m-output clusters while the port constraints remain satisfied;
//! * **MaxMISO** (Alippi et al., DATE 1999) — a linear-complexity decomposition of the
//!   dataflow graph into *maximal single-output, unbounded-input* subgraphs.
//!
//! Both are reimplemented here over the same IR, cost model and constraint definitions as
//! the exact algorithms of `ise-core`, so that the Fig. 11 comparison exercises identical
//! substrates and differs only in the identification strategy. A trivial
//! [`SingleNode`] baseline is also provided as a sanity floor.
//!
//! Each baseline enumerates the disjoint candidate cuts of one basic block with its
//! `candidates` method and implements the engine's [`Identifier`] trait on top of it, so
//! the same `rayon`-parallel program driver runs the baselines and the exact algorithms.
//!
//! [`Algorithm`] is the one list of the six bundled algorithms (the three of `ise-core`
//! and the three baselines): it parses a name, and builds any of them from one
//! [`IdentifierConfig`]. [`full_registry`] looks them up by name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clubbing;
mod maxmiso;
mod single_node;

use std::fmt;
use std::str::FromStr;

use ise_core::cut::CutSet;
use ise_core::engine::{Exhaustive, Identifier, MultiCut, SingleCut};
use ise_core::{
    Constraints, IdentifiedCut, IdentifierConfig, IseError, SearchOutcome, SearchStats,
};
use ise_hw::CostModel;
use ise_ir::Dfg;

pub use clubbing::Clubbing;
pub use maxmiso::MaxMiso;
pub use single_node::SingleNode;

/// The bundled identification algorithms: the only list of all six.
///
/// Each converts to and from its stable name, and [`create`](Self::create) builds it.
/// Callers choose between compile-time safety (`SessionBuilder::algorithm` in
/// `ise-api`) and names taken from data (`SessionBuilder::algorithm_name`, request
/// files, CLI flags), which resolve through [`FromStr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// The exact single-cut branch-and-bound search (paper Section 6.1).
    SingleCut,
    /// The exact multiple-cut search (paper Section 6.2).
    MultiCut,
    /// The brute-force enumeration oracle (tests and small blocks only).
    Exhaustive,
    /// The Clubbing baseline (Baleani et al., CODES 2002).
    Clubbing,
    /// The MaxMISO baseline (Alippi et al., DATE 1999).
    MaxMiso,
    /// The trivial one-node-per-instruction sanity floor.
    SingleNode,
}

impl Algorithm {
    /// All bundled algorithms, in the order names are listed.
    #[must_use]
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::SingleCut,
            Algorithm::MultiCut,
            Algorithm::Exhaustive,
            Algorithm::Clubbing,
            Algorithm::MaxMiso,
            Algorithm::SingleNode,
        ]
    }

    /// The stable name of the algorithm, as its [`Identifier::name`] reports it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::SingleCut => "single-cut",
            Algorithm::MultiCut => "multicut",
            Algorithm::Exhaustive => "exhaustive",
            Algorithm::Clubbing => "clubbing",
            Algorithm::MaxMiso => "maxmiso",
            Algorithm::SingleNode => "single-node",
        }
    }

    /// Builds the algorithm; each picks out the `config` fields it understands.
    ///
    /// # Panics
    ///
    /// Panics on a config that [`IdentifierConfig::validate`] rejects (multicut slots
    /// outside `1..=255`); [`Catalogue::create_configured`] validates first.
    #[must_use]
    pub fn create(self, config: &IdentifierConfig) -> Box<dyn Identifier> {
        match self {
            Algorithm::SingleCut => {
                Box::new(SingleCut::new().with_exploration_budget(config.exploration_budget))
            }
            Algorithm::MultiCut => Box::new(
                MultiCut::new(config.multicut_slots)
                    .with_exploration_budget(config.exploration_budget),
            ),
            Algorithm::Exhaustive => {
                Box::new(Exhaustive::new().with_node_limit(config.exhaustive_node_limit))
            }
            Algorithm::Clubbing => Box::new(Clubbing),
            Algorithm::MaxMiso => Box::new(MaxMiso),
            Algorithm::SingleNode => Box::new(SingleNode),
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Algorithm {
    type Err = IseError;

    /// Parses a name case-insensitively, with `_` and `-` interchangeable.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fold = |c: char| {
            if c == '_' {
                '-'
            } else {
                c.to_ascii_lowercase()
            }
        };
        Algorithm::all()
            .into_iter()
            .find(|a| s.chars().map(fold).eq(a.name().chars()))
            .ok_or_else(|| IseError::UnknownAlgorithm {
                requested: s.to_string(),
                available: Algorithm::all().iter().map(|a| a.name().into()).collect(),
            })
    }
}

/// Name-based access to the six [`Algorithm`]s, as returned by [`full_registry`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Catalogue;

impl Catalogue {
    /// The names of all bundled algorithms, in [`Algorithm::all`] order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        Algorithm::all().map(Algorithm::name).to_vec()
    }

    /// Builds the named algorithm with the default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::UnknownAlgorithm`], whose message lists every bundled name,
    /// when `name` does not resolve.
    pub fn create(&self, name: &str) -> Result<Box<dyn Identifier>, IseError> {
        self.create_configured(name, &IdentifierConfig::default())
    }

    /// Builds the named algorithm with an explicit configuration.
    ///
    /// The configuration is validated before the name is resolved, so parameters
    /// taken from an untrusted request surface as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::InvalidRequest`] when the configuration is out of domain,
    /// or [`IseError::UnknownAlgorithm`] when `name` does not resolve.
    pub fn create_configured(
        &self,
        name: &str,
        config: &IdentifierConfig,
    ) -> Result<Box<dyn Identifier>, IseError> {
        config.validate()?;
        Ok(name.parse::<Algorithm>()?.create(config))
    }
}

/// Returns the catalogue of all six bundled identification algorithms:
/// `"single-cut"`, `"multicut"`, `"exhaustive"`, `"clubbing"`, `"maxmiso"` and
/// `"single-node"`.
#[must_use]
pub fn full_registry() -> Catalogue {
    Catalogue
}

/// Shared [`Identifier`] body of the one-shot baselines: report all disjoint
/// `candidates` in [`SearchOutcome::candidates`], implementing exclusion by dropping the
/// candidates that touch excluded nodes.
fn baseline_outcome(
    mut candidates: Vec<IdentifiedCut>,
    excluded: Option<&CutSet>,
) -> SearchOutcome {
    // The effort statistic reflects the enumeration, which is identical with or without
    // exclusions — count before dropping excluded candidates.
    let enumerated = candidates.len() as u64;
    if let Some(excluded) = excluded {
        candidates.retain(|candidate| !candidate.cut.intersects(excluded));
    }
    let stats = SearchStats {
        cuts_considered: enumerated,
        feasible_cuts: candidates.len() as u64,
        ..SearchStats::default()
    };
    SearchOutcome::from_candidates(candidates, stats)
}

/// Implements the engine [`Identifier`] trait for a baseline type over its inherent
/// `candidates` method. Baselines enumerate all their candidates up front, so they are
/// non-refining (the program driver merges them with its one-shot greedy strategy) and
/// have no decision tree to split.
macro_rules! impl_identifier_for_baseline {
    ($type:ty, $algorithm:expr) => {
        impl Identifier for $type {
            fn name(&self) -> &'static str {
                $algorithm.name()
            }

            fn identify_split(
                &self,
                dfg: &Dfg,
                excluded: Option<&CutSet>,
                constraints: &Constraints,
                model: &dyn CostModel,
                _split_levels: usize,
            ) -> SearchOutcome {
                baseline_outcome(self.candidates(dfg, *constraints, model), excluded)
            }

            fn refines_under_exclusion(&self) -> bool {
                false
            }
        }
    };
}

impl_identifier_for_baseline!(Clubbing, Algorithm::Clubbing);
impl_identifier_for_baseline!(MaxMiso, Algorithm::MaxMiso);
impl_identifier_for_baseline!(SingleNode, Algorithm::SingleNode);

#[cfg(test)]
mod tests {
    use super::*;
    use ise_core::engine::{select_program, DriverOptions};
    use ise_core::selection::SelectionResult;
    use ise_hw::DefaultCostModel;
    use ise_ir::{DfgBuilder, Program};

    fn sample_program() -> Program {
        let mut p = Program::new("sample");
        let mut b = DfgBuilder::new("bb0");
        b.exec_count(100);
        let x = b.input("x");
        let y = b.input("y");
        let m = b.mul(x, y);
        let s = b.add(m, y);
        let t = b.shl(s, b.imm(2));
        b.output("o", t);
        p.add_block(b.finish());
        let mut b = DfgBuilder::new("bb1");
        b.exec_count(10);
        let a = b.input("a");
        let c = b.input("c");
        let d = b.sub(a, c);
        let e = b.abs(d);
        b.output("o", e);
        p.add_block(b.finish());
        p
    }

    /// The one-shot greedy merge on one thread: every candidate by dynamic saving,
    /// keeping the best `max_instructions` non-overlapping ones.
    fn select_sequential(
        program: &Program,
        identifier: &dyn Identifier,
        constraints: Constraints,
        max_instructions: usize,
    ) -> SelectionResult {
        select_program(
            program,
            identifier,
            constraints,
            &DefaultCostModel::new(),
            DriverOptions::new(max_instructions).sequential(),
        )
    }

    #[test]
    fn greedy_selection_respects_the_instruction_budget() {
        let p = sample_program();
        for algo in [
            &MaxMiso::new() as &dyn Identifier,
            &Clubbing::new(),
            &SingleNode::new(),
        ] {
            let all = select_sequential(&p, algo, Constraints::new(4, 2), 16);
            let one = select_sequential(&p, algo, Constraints::new(4, 2), 1);
            assert!(one.len() <= 1, "{}", algo.name());
            assert!(all.len() >= one.len(), "{}", algo.name());
            assert!(
                all.total_weighted_saving >= one.total_weighted_saving,
                "{}",
                algo.name()
            );
        }
    }

    #[test]
    fn full_registry_resolves_all_six_algorithms() {
        let registry = full_registry();
        let names = registry.names();
        for expected in [
            "single-cut",
            "multicut",
            "exhaustive",
            "clubbing",
            "maxmiso",
            "single-node",
        ] {
            assert!(names.contains(&expected), "{expected} missing: {names:?}");
            let identifier = registry.create(expected).expect("resolvable");
            assert_eq!(identifier.name(), expected);
        }
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn every_algorithm_round_trips_through_its_name_and_builds_itself() {
        let config = IdentifierConfig::default();
        for algorithm in Algorithm::all() {
            assert_eq!(algorithm.name().parse::<Algorithm>(), Ok(algorithm));
            assert_eq!(algorithm.to_string(), algorithm.name());
            assert_eq!(algorithm.create(&config).name(), algorithm.name());
        }
    }

    #[test]
    fn lookup_is_case_and_separator_insensitive() {
        assert_eq!("Single_Cut".parse::<Algorithm>(), Ok(Algorithm::SingleCut));
        assert_eq!("MaxMISO".parse::<Algorithm>(), Ok(Algorithm::MaxMiso));
        assert_eq!(
            "SINGLE-node".parse::<Algorithm>(),
            Ok(Algorithm::SingleNode)
        );
        assert!(full_registry().create("SINGLE_CUT").is_ok());
        assert!("single cut".parse::<Algorithm>().is_err());
        assert!("max_miso".parse::<Algorithm>().is_err());
    }

    #[test]
    fn unknown_names_list_every_algorithm_and_config_errors_come_first() {
        let registry = full_registry();
        let err = registry.create("no-such-algorithm").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown identification algorithm `no-such-algorithm`; registered algorithms: \
             single-cut, multicut, exhaustive, clubbing, maxmiso, single-node"
        );
        let zero_slots = IdentifierConfig {
            multicut_slots: 0,
            ..IdentifierConfig::default()
        };
        for name in ["multicut", "single-cut", "no-such-algorithm"] {
            let err = registry.create_configured(name, &zero_slots).unwrap_err();
            assert!(matches!(err, IseError::InvalidRequest(_)), "{name}: {err}");
        }
    }

    #[test]
    fn config_reaches_the_created_identifier() {
        let config = IdentifierConfig::default().with_exploration_budget(Some(2));
        let identifier = Algorithm::SingleCut.create(&config);

        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.mul(x, y);
        let s = b.add(m, x);
        b.output("o", s);
        let g = b.finish();
        let model = DefaultCostModel::new();
        let outcome = identifier.identify(&g, &Constraints::new(4, 2), &model);
        assert!(outcome.stats.budget_exhausted);
    }

    #[test]
    fn parallel_driver_agrees_with_the_sequential_greedy_merge() {
        let p = sample_program();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(4, 2);
        let registry = full_registry();
        for name in ["clubbing", "maxmiso", "single-node"] {
            let identifier = registry.create(name).expect("bundled");
            assert!(!identifier.refines_under_exclusion(), "{name}");
            let parallel = select_program(
                &p,
                identifier.as_ref(),
                constraints,
                &model,
                DriverOptions::new(16),
            );
            let sequential = select_sequential(&p, identifier.as_ref(), constraints, 16);
            assert_eq!(parallel, sequential, "{name}");
        }
    }

    #[test]
    fn exclusion_through_the_engine_drops_touching_candidates() {
        let p = sample_program();
        let model = DefaultCostModel::new();
        let constraints = Constraints::new(4, 2);
        let block = p.block(0);
        let identifier = Clubbing::new();
        let all = Identifier::identify(&identifier, block, &constraints, &model);
        let best = all.best.clone().expect("profitable cluster");
        let filtered = identifier.identify_excluding(block, Some(&best.cut), &constraints, &model);
        for candidate in &filtered.candidates {
            assert!(!candidate.cut.intersects(&best.cut));
        }
        assert!(filtered.candidates.len() < all.candidates.len().max(1));
    }

    #[test]
    fn greedy_selection_never_overlaps() {
        let p = sample_program();
        let result = select_sequential(&p, &MaxMiso::new(), Constraints::new(8, 4), 16);
        for i in 0..result.chosen.len() {
            for j in i + 1..result.chosen.len() {
                if result.chosen[i].block_index == result.chosen[j].block_index {
                    assert!(!result.chosen[i]
                        .identified
                        .cut
                        .intersects(&result.chosen[j].identified.cut));
                }
            }
        }
    }
}
