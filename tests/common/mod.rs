//! The safety check shared by the fault-injection regression tests and the
//! chaos property suite.

use saguaro::sim::{safety_violations, RunArtifacts};

/// Asserts that the run upholds every invariant of
/// [`saguaro::sim::safety_violations`].
pub fn check_safety(artifacts: &RunArtifacts, label: &str) {
    let violations = safety_violations(artifacts);
    assert!(violations.is_empty(), "{label}: {violations:#?}");
}
