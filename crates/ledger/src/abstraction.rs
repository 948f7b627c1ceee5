//! The abstraction function λ and aggregate views.
//!
//! Section 5: the `block` message a domain sends to its parent includes "an
//! application-dependent abstract version of the blockchain state updates in
//! that round, i.e. λ(D_rn − D_rn−1) where ... the abstraction function λ is
//! deterministic, predefined, and known by all nodes."  Higher-level domains
//! apply these deltas to maintain an aggregate view of their subtree — e.g.
//! only the working-hour attribute in the ridesharing application.

use saguaro_types::hash::FxHashMap;
use saguaro_types::{DomainId, Key};
use std::collections::BTreeMap;

/// The key of one state-delta entry: the height-1 domain that wrote it and
/// the writer's own handle of its text.  A domain above height 1 reports its
/// children's entries as they are, so the path a key took up the tree is
/// implied by `origin` and the tree and is never spelled out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaKey {
    /// The height-1 domain whose execution wrote the key.
    pub origin: DomainId,
    /// The key, sharing the writer's allocation of its text.
    pub key: Key,
}

impl DeltaKey {
    /// A key made from text rather than taken from a state map.
    pub fn new(origin: DomainId, key: &str) -> Self {
        Self {
            origin,
            key: Key::from(key),
        }
    }
}

/// The abstracted state updates of one round: `(key, new value)` pairs after
/// applying the abstraction function.  Keys are shared handles: the replica
/// that executed a write holds its key in its state map, and every delta,
/// block and aggregate view the key travels through on the way up holds that
/// allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateDelta {
    entries: Vec<(DeltaKey, u64)>,
}

impl StateDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a delta from `(key, value)` pairs.
    pub fn from_entries(entries: Vec<(DeltaKey, u64)>) -> Self {
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

    /// The entries, in the order the round produced them.
    pub fn entries(&self) -> &[(DeltaKey, u64)] {
        &self.entries
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
    pub fn apply(&self, raw_updates: &[(DeltaKey, u64)]) -> StateDelta {
        match self {
            AbstractionFn::Full => StateDelta::from_entries(raw_updates.to_vec()),
            AbstractionFn::KeyPrefix(prefix) => StateDelta::from_entries(
                raw_updates
                    .iter()
                    .filter(|(k, _)| k.key.starts_with(prefix))
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
    /// child domain -> origin -> key -> latest value: a delta key's two
    /// parts, one map level each, so a look-up by text needs no probe key.
    /// The inner maps only answer point look-ups and sums.
    per_child: BTreeMap<DomainId, FxHashMap<DomainId, FxHashMap<Key, u64>>>,
}

impl AggregateView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the abstracted delta received from `child` in one round.
    pub fn apply_delta(&mut self, child: DomainId, delta: &StateDelta) {
        let origins = self.per_child.entry(child).or_default();
        for (k, v) in &delta.entries {
            // In place by text: only a key not seen yet clones its handle.
            let keys = origins.entry(k.origin).or_default();
            if let Some(value) = keys.get_mut(&*k.key) {
                *value = *v;
            } else {
                keys.insert(k.key.clone(), *v);
            }
        }
    }

    /// The view's entry for `key`, written at `origin` and reported by
    /// `child`: the key handle it holds and the latest value.
    pub fn get(&self, child: DomainId, origin: DomainId, key: &str) -> Option<(&Key, u64)> {
        let keys = self.per_child.get(&child)?.get(&origin)?;
        keys.get_key_value(key).map(|(held, value)| (held, *value))
    }

    /// Latest value of `key`, written at `origin`, reported by `child`.
    pub fn child_value(&self, child: DomainId, origin: DomainId, key: &str) -> Option<u64> {
        self.get(child, origin, key).map(|(_, value)| value)
    }

    /// Every `(child, origin's keys)` the view holds.
    fn key_maps(&self) -> impl Iterator<Item = (DomainId, &FxHashMap<Key, u64>)> {
        self.per_child
            .iter()
            .flat_map(|(child, origins)| origins.values().map(move |keys| (*child, keys)))
    }

    /// Sum of `key` across every child domain and every domain that wrote
    /// it (e.g. total working hours of a driver who worked in several
    /// spatial domains).
    pub fn sum(&self, key: &str) -> u64 {
        self.key_maps().filter_map(|(_, keys)| keys.get(key)).sum()
    }

    /// Sum of every key with `prefix` across every child domain.
    pub fn sum_by_prefix(&self, prefix: &str) -> u64 {
        self.key_maps()
            .flat_map(|(_, keys)| keys.iter())
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// The child domain that reported the largest value of `key`, wherever
    /// it was written, and that value (e.g. the busiest domain).
    pub fn max(&self, key: &str) -> Option<(DomainId, u64)> {
        let values = self
            .key_maps()
            .filter_map(|(child, keys)| Some((child, *keys.get(key)?)));
        values.max_by_key(|(_, v)| *v)
    }

    /// Child domains that have reported at least one delta.
    pub fn children(&self) -> impl Iterator<Item = DomainId> + '_ {
        self.per_child.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::CowMap;

    fn d(i: u16) -> DomainId {
        DomainId::new(1, i)
    }

    fn delta(origin: DomainId, entries: &[(&str, u64)]) -> StateDelta {
        let entries = entries.iter().map(|&(k, v)| (DeltaKey::new(origin, k), v));
        StateDelta::from_entries(entries.collect())
    }

    fn raw() -> Vec<(DeltaKey, u64)> {
        let entries = [("alice", 70), ("bob", 30), ("hours/driver-1", 100)];
        delta(d(0), &entries).entries().to_vec()
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
        let (key, value) = &delta.entries()[0];
        assert_eq!(
            (key.origin, &*key.key, *value),
            (d(0), "hours/driver-1", 100)
        );
    }

    #[test]
    fn aggregate_view_sums_across_children() {
        let mut view = AggregateView::new();
        view.apply_delta(d(0), &delta(d(0), &[("hours/x", 10)]));
        view.apply_delta(d(1), &delta(d(1), &[("hours/x", 25)]));
        view.apply_delta(d(1), &delta(d(1), &[("hours/y", 5)]));
        assert_eq!(view.sum("hours/x"), 35);
        assert_eq!(view.sum_by_prefix("hours/"), 40);
        assert_eq!(view.child_value(d(1), d(1), "hours/x"), Some(25));
        assert_eq!(view.child_value(d(0), d(0), "hours/y"), None);
        assert_eq!(view.max("hours/x"), Some((d(1), 25)));
        assert_eq!(view.children().count(), 2);
    }

    /// One child (a fog domain) reports the same key text written at two
    /// height-1 domains: the view keeps both, told apart by their origin.
    #[test]
    fn a_child_reports_one_key_per_origin() {
        let fog = DomainId::new(2, 0);
        let mut view = AggregateView::new();
        let mut entries = delta(d(0), &[("usage/x", 4)]).entries().to_vec();
        entries.extend_from_slice(delta(d(1), &[("usage/x", 6)]).entries());
        view.apply_delta(fog, &StateDelta::from_entries(entries));
        assert_eq!(view.child_value(fog, d(0), "usage/x"), Some(4));
        assert_eq!(view.child_value(fog, d(1), "usage/x"), Some(6));
        assert_eq!(view.child_value(fog, d(2), "usage/x"), None);
        assert_eq!(view.sum("usage/x"), 10);
        assert_eq!(view.max("usage/x"), Some((fog, 6)));
    }

    #[test]
    fn later_deltas_overwrite_earlier_values() {
        let mut view = AggregateView::new();
        view.apply_delta(d(0), &delta(d(0), &[("k", 1)]));
        view.apply_delta(d(0), &delta(d(0), &[("k", 9)]));
        assert_eq!(view.sum("k"), 9);
    }

    /// A key is allocated by the state map that stored it and shared from
    /// there on: the delta an abstraction produces and the view that applies
    /// it hold the map's own handle.
    #[test]
    fn a_key_travels_from_the_state_map_to_the_view_without_a_copy() {
        let mut state: CowMap = [("alice", 1), ("hours/driver-1", 2)].into_iter().collect();
        let (key, _, value) = state.update("hours/driver-1", |v| v.unwrap_or(0) + 98);
        let written = DeltaKey { origin: d(0), key };
        let raw = vec![(written.clone(), value)];
        for abstraction in [AbstractionFn::Full, AbstractionFn::KeyPrefix("hours/")] {
            let delta = abstraction.apply(&raw);
            assert_eq!(delta.entries()[0].0.key.as_ptr(), written.key.as_ptr());
            let mut view = AggregateView::new();
            view.apply_delta(d(0), &delta);
            let (held, value) = view.get(d(0), d(0), "hours/driver-1").unwrap();
            assert_eq!(held.as_ptr(), written.key.as_ptr(), "{abstraction:?}");
            assert_eq!(value, 100);
        }
    }

    #[test]
    fn state_delta_builders() {
        assert!(StateDelta::new().is_empty());
        assert_eq!(delta(d(0), &[("a", 1)]).len(), 1);
        assert_eq!(DeltaKey::new(d(0), "a"), DeltaKey::new(d(0), "a"));
        assert_ne!(DeltaKey::new(d(0), "a"), DeltaKey::new(d(1), "a"));
    }
}
