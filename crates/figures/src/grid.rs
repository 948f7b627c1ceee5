//! The one grid runner behind every parallel row.
//!
//! A row lists its cells — each cell's typed parameters beside the spec
//! they produce — and [`run_grid`] runs every spec as an independent,
//! single-seeded run across the host's cores.  Results come back in cell
//! order with each cell's parameters beside what the row read of its
//! [`RunArtifacts`], so a row works from what it scheduled instead of
//! recomputing it or parsing it back out of a label.  [`group_by`] regroups
//! them into a row's series.

use saguaro_sim::{parallel_map, ExperimentSpec, RunArtifacts};
use saguaro_types::{Duration, SimTime};

/// Runs every cell's spec in parallel and returns each cell's parameters
/// beside what `read` takes from its artifacts, in cell order —
/// bit-identical to running them one after another.  `read` runs on the
/// worker that ran the cell, so a run's artifacts (every completion and
/// every replica's ledger) are dropped there, not held until the whole
/// grid is done.
pub fn run_grid<C: Sync, R: Send>(
    cells: Vec<(C, ExperimentSpec)>,
    read: impl Fn(&C, RunArtifacts) -> R + Sync,
) -> Vec<(C, R)> {
    let results = parallel_map(&cells, |(cell, spec)| read(cell, spec.run_collecting()));
    cells
        .into_iter()
        .zip(results)
        .map(|((cell, _), result)| (cell, result))
        .collect()
}

/// Groups `items` by key: keys in order of first appearance, each group's
/// values in input order.
pub fn group_by<K: PartialEq, T>(items: impl IntoIterator<Item = (K, T)>) -> Vec<(K, Vec<T>)> {
    let mut groups: Vec<(K, Vec<T>)> = Vec::new();
    for (key, value) in items {
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, values)) => values.push(value),
            None => groups.push((key, vec![value])),
        }
    }
    groups
}

/// A quarter into `spec`'s measurement window: when the fault rows script
/// their crash.
pub fn quarter_in(spec: &ExperimentSpec) -> SimTime {
    SimTime::ZERO + spec.warmup + Duration::from_micros(spec.measure.as_micros() / 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_keep_first_appearance_and_input_order() {
        let grouped = group_by([("b", 1), ("a", 2), ("b", 3), ("a", 4)]);
        assert_eq!(grouped, [("b", vec![1, 3]), ("a", vec![2, 4])]);
    }
}
