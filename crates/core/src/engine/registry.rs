//! Name-based lookup of identification algorithms.
//!
//! The registry maps stable name strings to factories producing boxed
//! [`super::Identifier`] implementations, so that benchmarks, examples, tests and future
//! front-ends (CLI flags, config files, service requests) select an algorithm by data
//! instead of by hand-written dispatch. [`IdentifierRegistry::core_algorithms`] registers
//! this crate's three algorithms; `ise_baselines::register_baselines` adds the three
//! prior-art baselines, and `ise_baselines::full_registry` returns all six.

use super::{Exhaustive, Identifier, MultiCut, SingleCut};
use crate::error::IseError;

/// Construction parameters shared by all registry factories.
///
/// One config is passed to every factory; each algorithm picks out the fields it
/// understands and ignores the rest, so a single config can drive a whole comparison
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IdentifierConfig {
    /// Per-invocation exploration budget for the exact searches (`None` = unbounded).
    pub exploration_budget: Option<u64>,
    /// Number of simultaneous cuts the `"multicut"` identifier searches for.
    pub multicut_slots: usize,
    /// Largest block the `"exhaustive"` oracle will enumerate.
    pub exhaustive_node_limit: usize,
}

impl Default for IdentifierConfig {
    fn default() -> Self {
        IdentifierConfig {
            exploration_budget: None,
            multicut_slots: 2,
            exhaustive_node_limit: 20,
        }
    }
}

impl IdentifierConfig {
    /// Sets the exploration budget for the exact searches.
    #[must_use]
    pub fn with_exploration_budget(mut self, budget: Option<u64>) -> Self {
        self.exploration_budget = budget;
        self
    }

    /// Checks that every field is inside the domain the bundled algorithms accept, so
    /// that factories never panic on request-supplied parameters.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::InvalidRequest`] when `multicut_slots` is outside `1..=255`
    /// (the limits of the underlying search).
    pub fn validate(&self) -> Result<(), IseError> {
        if !(1..=255).contains(&self.multicut_slots) {
            return Err(IseError::InvalidRequest(format!(
                "multicut_slots must be in 1..=255, got {}",
                self.multicut_slots
            )));
        }
        Ok(())
    }
}

/// A factory producing one configured identifier.
pub type IdentifierFactory = fn(&IdentifierConfig) -> Box<dyn Identifier>;

/// A registry of identification algorithms addressable by name.
///
/// Lookup is case-insensitive and treats `-` and `_` as equal, so `"MaxMISO"`,
/// `"maxmiso"` and `"max_miso"` can all resolve to the same entry as long as their
/// canonical forms match. Registering a name that canonicalises to an existing entry
/// replaces it.
#[derive(Default)]
pub struct IdentifierRegistry {
    entries: Vec<(&'static str, IdentifierFactory)>,
}

/// Canonical form used for lookup: lower-case with `_` folded to `-`.
fn canonical(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == '_' {
                '-'
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

impl IdentifierRegistry {
    /// The canonical form every lookup is performed in: lower-case with `_`
    /// folded to `-`.
    ///
    /// Exposed so that front-ends matching algorithm names outside the registry
    /// (e.g. parsing an enum from a request string) follow exactly the same
    /// rules and can never diverge from registry resolution.
    #[must_use]
    pub fn canonical_name(name: &str) -> String {
        canonical(name)
    }

    /// Creates an empty registry.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Creates a registry holding this crate's algorithms: `"single-cut"`,
    /// `"multicut"` and `"exhaustive"`.
    #[must_use]
    pub fn core_algorithms() -> Self {
        let mut registry = Self::empty();
        registry.register("single-cut", |config| {
            Box::new(SingleCut::new().with_exploration_budget(config.exploration_budget))
        });
        registry.register("multicut", |config| {
            Box::new(
                MultiCut::new(config.multicut_slots)
                    .with_exploration_budget(config.exploration_budget),
            )
        });
        registry.register("exhaustive", |config| {
            Box::new(Exhaustive::new().with_node_limit(config.exhaustive_node_limit))
        });
        registry
    }

    /// Registers (or replaces) an algorithm under `name`.
    pub fn register(&mut self, name: &'static str, factory: IdentifierFactory) {
        let key = canonical(name);
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|(existing, _)| canonical(existing) == key)
        {
            *entry = (name, factory);
        } else {
            self.entries.push((name, factory));
        }
    }

    /// Instantiates the named algorithm with the default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::UnknownAlgorithm`] — whose message lists the registered
    /// names — when `name` does not resolve.
    pub fn create(&self, name: &str) -> Result<Box<dyn Identifier>, IseError> {
        self.create_configured(name, &IdentifierConfig::default())
    }

    /// Instantiates the named algorithm with an explicit configuration.
    ///
    /// The configuration is validated before it reaches any factory, so parameters
    /// taken from an untrusted request surface as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::UnknownAlgorithm`] when `name` does not resolve, or
    /// [`IseError::InvalidRequest`] when the configuration is out of domain.
    pub fn create_configured(
        &self,
        name: &str,
        config: &IdentifierConfig,
    ) -> Result<Box<dyn Identifier>, IseError> {
        config.validate()?;
        let key = canonical(name);
        self.entries
            .iter()
            .find(|(registered, _)| canonical(registered) == key)
            .map(|(_, factory)| factory(config))
            .ok_or_else(|| IseError::UnknownAlgorithm {
                requested: name.to_string(),
                available: self.names().iter().map(ToString::to_string).collect(),
            })
    }

    /// Returns `true` if `name` resolves to a registered algorithm.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        let key = canonical(name);
        self.entries
            .iter()
            .any(|(registered, _)| canonical(registered) == key)
    }

    /// The registered names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(name, _)| *name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Constraints;
    use ise_hw::DefaultCostModel;
    use ise_ir::DfgBuilder;

    #[test]
    fn core_registry_resolves_its_three_algorithms() {
        let registry = IdentifierRegistry::core_algorithms();
        assert_eq!(
            registry.names(),
            vec!["single-cut", "multicut", "exhaustive"]
        );
        for name in registry.names() {
            let identifier = registry.create(name).expect("registered");
            assert_eq!(identifier.name(), name);
        }
        let err = registry.create("no-such-algorithm").unwrap_err();
        assert!(matches!(
            &err,
            crate::IseError::UnknownAlgorithm { requested, available }
                if requested == "no-such-algorithm" && available.len() == 3
        ));
        // The error message is self-diagnosing: it lists every registered name.
        let message = err.to_string();
        for name in registry.names() {
            assert!(message.contains(name), "{message}");
        }
    }

    #[test]
    fn lookup_is_case_and_separator_insensitive() {
        let registry = IdentifierRegistry::core_algorithms();
        assert!(registry.contains("Single-Cut"));
        assert!(registry.contains("single_cut"));
        assert!(registry.create("SINGLE_CUT").is_ok());
        assert!(!registry.contains("single cut"));
    }

    #[test]
    fn out_of_domain_config_is_an_error_not_a_panic() {
        let registry = IdentifierRegistry::core_algorithms();
        for slots in [0usize, 256] {
            let config = IdentifierConfig {
                multicut_slots: slots,
                ..IdentifierConfig::default()
            };
            let err = registry.create_configured("multicut", &config).unwrap_err();
            assert!(matches!(err, crate::IseError::InvalidRequest(_)), "{err}");
        }
    }

    #[test]
    fn registering_an_existing_name_replaces_it() {
        let mut registry = IdentifierRegistry::core_algorithms();
        let before = registry.names().len();
        registry.register("single_cut", |_| Box::new(SingleCut::new()));
        assert_eq!(registry.names().len(), before);
    }

    #[test]
    fn config_reaches_the_created_identifier() {
        let registry = IdentifierRegistry::core_algorithms();
        let config = IdentifierConfig::default().with_exploration_budget(Some(2));
        let identifier = registry.create_configured("single-cut", &config).unwrap();

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
}
