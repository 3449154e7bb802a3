//! Microarchitectural constraints on candidate instructions.

use std::fmt;

use crate::IseError;

/// The user-visible microarchitectural constraints of Problem 1 in the paper.
///
/// * `max_inputs` (`Nin`) — register-file read ports usable by a special instruction;
/// * `max_outputs` (`Nout`) — register-file write ports usable by a special instruction;
/// * `max_area` — optional limit on the normalised datapath area of one instruction
///   (an extension anticipated in Section 9 of the paper);
/// * `max_nodes` — optional limit on the number of operations in one instruction
///   (used by some related works and handy for bounding experiments).
///
/// Convexity and the exclusion of memory operations are *legality* requirements and are
/// always enforced; they are not part of this struct.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Constraints {
    /// Maximum number of register-file read ports (`Nin`).
    pub max_inputs: usize,
    /// Maximum number of register-file write ports (`Nout`).
    pub max_outputs: usize,
    /// Optional maximum normalised datapath area per instruction.
    pub max_area: Option<f64>,
    /// Optional maximum number of operation nodes per instruction.
    pub max_nodes: Option<usize>,
}

impl Constraints {
    /// Creates constraints with the given read- and write-port budgets and no area or
    /// size limit.
    ///
    /// # Panics
    ///
    /// Panics if either budget is zero: an instruction must be able to read at least one
    /// operand and write at least one result.
    #[must_use]
    pub fn new(max_inputs: usize, max_outputs: usize) -> Self {
        assert!(max_inputs > 0, "Nin must be at least one");
        assert!(max_outputs > 0, "Nout must be at least one");
        Constraints {
            max_inputs,
            max_outputs,
            max_area: None,
            max_nodes: None,
        }
    }

    /// Adds a normalised area budget.
    #[must_use]
    pub fn with_max_area(mut self, area: f64) -> Self {
        self.max_area = Some(area);
        self
    }

    /// Adds a node-count budget.
    #[must_use]
    pub fn with_max_nodes(mut self, nodes: usize) -> Self {
        self.max_nodes = Some(nodes);
        self
    }

    /// The (Nin, Nout) pairs swept by the paper's Fig. 11 experiments.
    #[must_use]
    pub fn paper_sweep() -> Vec<Constraints> {
        [(2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (6, 3), (8, 4)]
            .into_iter()
            .map(|(i, o)| Constraints::new(i, o))
            .collect()
    }

    /// Checks that the constraints are in domain: at least one read and one write
    /// port, and an area budget (if any) that is finite and non-negative. Every request
    /// path runs this before any search, since a wire value is not built by [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns [`IseError::InvalidRequest`] naming the out-of-domain value.
    pub fn validate(&self) -> Result<(), IseError> {
        if self.max_inputs == 0 || self.max_outputs == 0 {
            return Err(IseError::InvalidRequest(format!(
                "constraints must allow at least one read and one write port, got {self}"
            )));
        }
        if let Some(area) = self.max_area {
            if !area.is_finite() || area < 0.0 {
                return Err(IseError::InvalidRequest(format!(
                    "max_area must be finite and non-negative, got {area}"
                )));
            }
        }
        Ok(())
    }

    /// Checks the port part of the constraints against measured values.
    #[must_use]
    pub fn ports_ok(&self, inputs: usize, outputs: usize) -> bool {
        inputs <= self.max_inputs && outputs <= self.max_outputs
    }

    /// Checks the optional area and node-count budgets.
    #[must_use]
    pub fn budget_ok(&self, area: f64, nodes: usize) -> bool {
        self.max_area.is_none_or(|limit| area <= limit)
            && self.max_nodes.is_none_or(|limit| nodes <= limit)
    }
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints::new(4, 2)
    }
}

impl fmt::Display for Constraints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nin={}, Nout={}", self.max_inputs, self.max_outputs)?;
        if let Some(area) = self.max_area {
            write!(f, ", area<={area}")?;
        }
        if let Some(nodes) = self.max_nodes {
            write!(f, ", nodes<={nodes}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_checks() {
        let c = Constraints::new(4, 2);
        assert!(c.ports_ok(4, 2));
        assert!(!c.ports_ok(5, 2));
        assert!(!c.ports_ok(4, 3));
        assert!(c.budget_ok(123.0, 10_000));
        let c = c.with_max_area(2.0).with_max_nodes(8);
        assert!(c.budget_ok(1.9, 8));
        assert!(!c.budget_ok(2.1, 8));
        assert!(!c.budget_ok(1.0, 9));
    }

    #[test]
    fn paper_sweep_covers_the_published_configurations() {
        let sweep = Constraints::paper_sweep();
        assert_eq!(sweep.len(), 7);
        assert_eq!(sweep[0], Constraints::new(2, 1));
        assert_eq!(sweep.last().copied(), Some(Constraints::new(8, 4)));
    }

    #[test]
    fn display_shows_ports_and_budgets() {
        let c = Constraints::new(4, 2).with_max_area(1.5);
        let text = c.to_string();
        assert!(text.contains("Nin=4"));
        assert!(text.contains("Nout=2"));
        assert!(text.contains("area<=1.5"));
    }

    #[test]
    #[should_panic(expected = "Nout")]
    fn zero_outputs_rejected() {
        let _ = Constraints::new(2, 0);
    }

    #[test]
    #[should_panic(expected = "Nin")]
    fn zero_inputs_rejected() {
        let _ = Constraints::new(0, 1);
    }
}
