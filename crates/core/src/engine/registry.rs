//! The construction parameters of the bundled identification algorithms.
//!
//! The algorithms themselves are listed once, by the `ise_baselines::Algorithm` enum,
//! which builds any of the six from one [`IdentifierConfig`].

use crate::error::IseError;

/// Construction parameters shared by all bundled algorithms.
///
/// One config is passed to every algorithm; each picks out the fields it understands
/// and ignores the rest, so a single config can drive a whole comparison sweep.
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
    /// that building an algorithm never panics on request-supplied parameters.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_domain_config_is_an_error_not_a_panic() {
        for slots in [0usize, 256] {
            let config = IdentifierConfig {
                multicut_slots: slots,
                ..IdentifierConfig::default()
            };
            let err = config.validate().unwrap_err();
            assert!(matches!(err, IseError::InvalidRequest(_)), "{err}");
        }
        assert!(IdentifierConfig::default().validate().is_ok());
    }
}
