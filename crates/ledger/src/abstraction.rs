//! The abstraction function λ and aggregate views.
//!
//! Section 5: the `block` message a domain sends to its parent includes "an
//! application-dependent abstract version of the blockchain state updates in
//! that round, i.e. λ(D_rn − D_rn−1) where ... the abstraction function λ is
//! deterministic, predefined, and known by all nodes."  Higher-level domains
//! apply these deltas to maintain an aggregate view of their subtree — e.g.
//! only the working-hour attribute in the ridesharing application.

use saguaro_types::hash::FxHashMap;
use saguaro_types::DomainId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The abstracted state updates of one round: `(key, new value)` pairs after
/// applying the abstraction function.  Keys are shared handles: the replica
/// that executed a write allocates its key once, and every delta, block and
/// aggregate view the key travels through on the way up holds that
/// allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateDelta {
    entries: Vec<(Arc<str>, u64)>,
}

impl StateDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a delta from `(key, value)` pairs.
    pub fn from_entries(entries: Vec<(Arc<str>, u64)>) -> Self {
        Self { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the delta carries no updates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(k, v)| (&**k, *v))
    }
}

/// Deterministic, predefined abstraction functions applied to raw state
/// updates before they are sent up the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbstractionFn {
    /// Ship every updated key and its new value (no abstraction).
    Full,
    /// Ship only keys with a given prefix — e.g. only the `hours/` attribute
    /// of ridesharing records, improving privacy and shrinking messages.
    KeyPrefix(&'static str),
}

impl AbstractionFn {
    /// Applies the abstraction to the raw `(key, new value)` updates of one
    /// round.  The delta shares the keys it keeps.
    pub fn apply(&self, raw_updates: &[(Arc<str>, u64)]) -> StateDelta {
        match self {
            AbstractionFn::Full => StateDelta::from_entries(raw_updates.to_vec()),
            AbstractionFn::KeyPrefix(prefix) => StateDelta::from_entries(
                raw_updates
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .cloned()
                    .collect(),
            ),
        }
    }
}

/// The summarized view a height-2+ domain keeps of its child domains' states.
///
/// The view remembers, per child domain, the latest value of every abstracted
/// key and can answer aggregation queries over the whole subtree ("the total
/// amount of exchanged assets in a micropayment application", "the total work
/// hours of a driver").
#[derive(Clone, Debug, Default)]
pub struct AggregateView {
    /// child domain -> key -> latest value.  The inner maps only answer
    /// point look-ups and sums.
    per_child: BTreeMap<DomainId, FxHashMap<Arc<str>, u64>>,
}

impl AggregateView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the abstracted delta received from `child` in one round.
    pub fn apply_delta(&mut self, child: DomainId, delta: &StateDelta) {
        let entry = self.per_child.entry(child).or_default();
        for (k, v) in &delta.entries {
            entry.insert(k.clone(), *v);
        }
    }

    /// Latest value of `key` reported by `child`.
    pub fn child_value(&self, child: DomainId, key: &str) -> Option<u64> {
        self.per_child.get(&child)?.get(key).copied()
    }

    /// Sum of `key` across every child domain (e.g. total working hours of a
    /// driver who worked in several spatial domains).
    pub fn sum(&self, key: &str) -> u64 {
        self.per_child.values().filter_map(|m| m.get(key)).sum()
    }

    /// Sum of every key with `prefix` across every child domain.
    pub fn sum_by_prefix(&self, prefix: &str) -> u64 {
        self.per_child
            .values()
            .flat_map(|m| m.iter())
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Maximum of `key` across child domains (e.g. the busiest domain).
    pub fn max(&self, key: &str) -> Option<(DomainId, u64)> {
        self.per_child
            .iter()
            .filter_map(|(d, m)| m.get(key).map(|v| (*d, *v)))
            .max_by_key(|(_, v)| *v)
    }

    /// Child domains that have reported at least one delta.
    pub fn children(&self) -> impl Iterator<Item = DomainId> + '_ {
        self.per_child.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u16) -> DomainId {
        DomainId::new(1, i)
    }

    fn raw() -> Vec<(Arc<str>, u64)> {
        vec![
            ("alice".into(), 70),
            ("bob".into(), 30),
            ("hours/driver-1".into(), 100),
        ]
    }

    #[test]
    fn full_abstraction_keeps_everything() {
        let delta = AbstractionFn::Full.apply(&raw());
        assert_eq!(delta.len(), 3);
    }

    #[test]
    fn prefix_abstraction_filters_keys() {
        let delta = AbstractionFn::KeyPrefix("hours/").apply(&raw());
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.iter().next(), Some(("hours/driver-1", 100)));
    }

    #[test]
    fn aggregate_view_sums_across_children() {
        let mut view = AggregateView::new();
        view.apply_delta(
            d(0),
            &StateDelta::from_entries(vec![("hours/x".into(), 10)]),
        );
        view.apply_delta(
            d(1),
            &StateDelta::from_entries(vec![("hours/x".into(), 25)]),
        );
        view.apply_delta(d(1), &StateDelta::from_entries(vec![("hours/y".into(), 5)]));
        assert_eq!(view.sum("hours/x"), 35);
        assert_eq!(view.sum_by_prefix("hours/"), 40);
        assert_eq!(view.child_value(d(1), "hours/x"), Some(25));
        assert_eq!(view.child_value(d(0), "hours/y"), None);
        assert_eq!(view.max("hours/x"), Some((d(1), 25)));
        assert_eq!(view.children().count(), 2);
    }

    #[test]
    fn later_deltas_overwrite_earlier_values() {
        let mut view = AggregateView::new();
        view.apply_delta(d(0), &StateDelta::from_entries(vec![("k".into(), 1)]));
        view.apply_delta(d(0), &StateDelta::from_entries(vec![("k".into(), 9)]));
        assert_eq!(view.sum("k"), 9);
    }

    /// A key is allocated by whoever wrote it and shared from there on: the
    /// delta an abstraction produces and the view that applies it hold the
    /// same handle.
    #[test]
    fn a_key_travels_from_the_raw_updates_to_the_view_without_a_copy() {
        let raw = raw();
        let (key, _) = &raw[2];
        for abstraction in [AbstractionFn::Full, AbstractionFn::KeyPrefix("hours/")] {
            let delta = abstraction.apply(&raw);
            assert!(Arc::ptr_eq(&delta.entries.last().unwrap().0, key));
            let mut view = AggregateView::new();
            view.apply_delta(d(0), &delta);
            let (held, _) = view.per_child[&d(0)].get_key_value(&**key).unwrap();
            assert!(Arc::ptr_eq(held, key), "{abstraction:?}");
        }
    }

    #[test]
    fn state_delta_builders() {
        assert!(StateDelta::new().is_empty());
        assert_eq!(StateDelta::from_entries(vec![("a".into(), 1)]).len(), 1);
    }
}
