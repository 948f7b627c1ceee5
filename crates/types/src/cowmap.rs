//! A persistent sorted map from string keys to `u64` values.
//!
//! A domain's account state exists many times over: once per replica, and
//! once more in every stable-checkpoint [`crate::StateSnapshot`].  Most of
//! those copies are identical for most of their keys, so [`CowMap`] shares
//! structure instead of copying it: the map is a vector of leaves of at most
//! `LEAF_MAX` entries whose parts are reference-counted, cloning it copies
//! the pointers only, and a write copies the part it lands in — and that only
//! while the part is still shared with another clone.
//!
//! Within a leaf, keys and values are split.  Almost every write changes a
//! value under an existing key, so the copy it triggers is one small slice of
//! integers; the keys stay shared for as long as the leaf holds the same
//! ones.  They are packed back to back into one string rather than allocated
//! one by one: with hundreds of replicas of ten thousand accounts each, a
//! look-up finds nothing in the cache, and what it costs is the number of
//! distinct places it reads.  A packed leaf is two (the text and its offsets),
//! as is the index of first keys that finds the leaf.
//!
//! Iteration is in byte-wise key order (the order `String`'s `Ord` gives) and
//! equality is by content, so the map is a drop-in for the
//! `BTreeMap<String, u64>` it replaces.  The shared parts are `Arc`s, though
//! `Rc` would now do: a map never leaves the simulation that built it, and
//! the only threads left (`sim::par::parallel_map`) each run whole
//! simulations and hand back results that hold no map.  The index is flat, rebuilt whenever a leaf appears
//! or disappears: right for the 10⁴–10⁵ keys a domain holds, not for 10⁷.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::convert::Infallible;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter;
use std::ops::Deref;
use std::sync::Arc;

/// Most entries a leaf may hold; one more and it splits in two.
const LEAF_MAX: usize = 64;

/// A sorted run of distinct strings, packed: `text` is their concatenation
/// and string `i` ends at byte `ends[i]`.
#[derive(Default)]
struct Keys {
    text: Box<str>,
    ends: Box<[u32]>,
}

impl Keys {
    /// Packs strings that arrive in ascending order.  A first pass over the
    /// (cloned) iterator sizes both parts exactly, so each is allocated once.
    fn pack<'a>(keys: impl Iterator<Item = &'a str> + Clone) -> Self {
        let (count, bytes) = keys.clone().fold((0, 0), |(n, b), k| (n + 1, b + k.len()));
        let mut text = String::with_capacity(bytes);
        let mut ends = Vec::with_capacity(count);
        for key in keys {
            text.push_str(key);
            ends.push(u32::try_from(text.len()).expect("a leaf's keys fit in 4 GiB"));
        }
        Self {
            text: text.into(),
            ends: ends.into(),
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start as usize..self.ends[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// `Ok(index)` of `key`, or `Err(index)` where it would be inserted.
    fn search(&self, key: &str) -> Result<usize, usize> {
        let (mut low, mut high) = (0, self.len());
        while low < high {
            let mid = low + (high - low) / 2;
            match self.get(mid).cmp(key) {
                Ordering::Less => low = mid + 1,
                Ordering::Greater => high = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(low)
    }
}

/// A key as the map holds it: a cheap handle that keeps the key's text alive
/// without copying it (an undo record names the keys it restores this way,
/// and a state delta carries the keys it reports up the hierarchy so).
/// Equality and hashing are by text.
#[derive(Clone)]
pub struct Key {
    keys: Arc<Keys>,
    at: usize,
}

/// A key that no map holds: its text packed on its own.
impl From<&str> for Key {
    fn from(text: &str) -> Self {
        Self {
            keys: Arc::new(Keys::pack(std::iter::once(text))),
            at: 0,
        }
    }
}

impl Deref for Key {
    type Target = str;

    fn deref(&self) -> &str {
        self.keys.get(self.at)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

/// Hashed and compared as its text, so a map keyed by handles answers
/// look-ups by `&str`.
impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        self
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One run of consecutive entries: `values[i]` belongs to key `i` of `keys`.
#[derive(Clone)]
struct Leaf {
    keys: Arc<Keys>,
    values: Arc<[u64]>,
}

impl Leaf {
    /// A leaf of pairs that arrive in ascending key order.
    fn pack<'a>(entries: impl Iterator<Item = (&'a str, u64)> + Clone) -> Self {
        Self {
            keys: Arc::new(Keys::pack(entries.clone().map(|(key, _)| key))),
            values: entries.map(|(_, value)| value).collect(),
        }
    }

    fn entries(&self) -> impl Iterator<Item = (&str, u64)> {
        self.keys.iter().zip(self.values.iter().copied())
    }
}

/// A sorted `key → u64` map whose clones share their leaves (see the module
/// documentation).
#[derive(Clone, Default)]
pub struct CowMap {
    /// Non-empty leaves, keys strictly ascending within and across them.
    leaves: Vec<Leaf>,
    /// The first key of every leaf.
    firsts: Arc<Keys>,
    /// Entries over all leaves.
    len: usize,
}

impl CowMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// `value` under each of `keys`, cut into leaves as a collect cuts them.
    /// `push` appends a key's text, which must ascend strictly, straight to
    /// its leaf's packed text; every full leaf shares one slice of values (a
    /// short last leaf has its own) until a write unshares its leaf's.
    pub(crate) fn uniform<K>(
        keys: impl IntoIterator<Item = K>,
        push: impl Fn(&mut String, K),
        value: u64,
    ) -> Self {
        let mut keys = keys.into_iter().peekable();
        let mut map = CowMap::default();
        let full: Arc<[u64]> = iter::repeat_n(value, LEAF_MAX).collect();
        let (mut text, mut ends) = (String::new(), Vec::with_capacity(LEAF_MAX));
        while keys.peek().is_some() {
            text.clear();
            ends.clear();
            for key in keys.by_ref().take(LEAF_MAX) {
                push(&mut text, key);
                ends.push(u32::try_from(text.len()).expect("a leaf's keys fit in 4 GiB"));
            }
            let values = match ends.len() {
                LEAF_MAX => full.clone(),
                tail => iter::repeat_n(value, tail).collect(),
            };
            let (text, ends) = (text.as_str().into(), ends.as_slice().into());
            map.len += values.len();
            map.leaves.push(Leaf {
                keys: Arc::new(Keys { text, ends }),
                values,
            });
        }
        map.reindex();
        map
    }

    /// Number of keys in the map.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where `key` is or would go: the only leaf that may hold it — the last
    /// one that starts at or before it, leaf 0 for keys before every leaf —
    /// and its place there (`Err(0)` in leaf 0 while the map has no leaf).
    fn locate(&self, key: &str) -> (usize, Result<usize, usize>) {
        let at = match self.firsts.search(key) {
            Ok(at) => return (at, Ok(0)),
            Err(after) => after.saturating_sub(1),
        };
        let place = self.leaves.get(at).map_or(Err(0), |l| l.keys.search(key));
        (at, place)
    }

    /// To be called whenever a leaf appeared, disappeared or changed its
    /// first key.
    fn reindex(&mut self) {
        self.firsts = Arc::new(Keys::pack(self.leaves.iter().map(|l| l.keys.get(0))));
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<u64> {
        let (at, place) = self.locate(key);
        let i = place.ok()?;
        Some(self.leaves[at].values[i])
    }

    /// One read-modify-write probe: `f` sees the key's current value (`None`
    /// if absent) and the `Ok` it returns is stored under the key, creating
    /// it if necessary; on `Err` the map is untouched and nothing is copied.
    /// Returns the map's own handle of the key, the previous value and the
    /// value stored.
    pub fn try_update<E>(
        &mut self,
        key: &str,
        f: impl FnOnce(Option<u64>) -> Result<u64, E>,
    ) -> Result<(Key, Option<u64>, u64), E> {
        let (at, place) = self.locate(key);
        let (at, i, previous, value) = match place {
            Ok(i) => {
                let previous = self.leaves[at].values[i];
                let value = f(Some(previous))?;
                Arc::make_mut(&mut self.leaves[at].values)[i] = value;
                (at, i, Some(previous), value)
            }
            Err(i) => {
                let value = f(None)?;
                let old = self.leaves.get(at).map(Leaf::entries);
                let mut entries: Vec<_> = old.into_iter().flatten().collect();
                entries.insert(i, (key, value));
                let size = entries.len();
                let mid = if size > LEAF_MAX { size / 2 } else { size };
                let lower = Leaf::pack(entries[..mid].iter().copied());
                let upper = (mid < size).then(|| Leaf::pack(entries[mid..].iter().copied()));
                let replaced = at..self.leaves.len().min(at + 1);
                let packed = [lower].into_iter().chain(upper);
                self.leaves.splice(replaced, packed);
                self.len += 1;
                if i == 0 || mid < size {
                    self.reindex();
                }
                if i < mid {
                    (at, i, None, value)
                } else {
                    (at + 1, i - mid, None, value)
                }
            }
        };
        let keys = self.leaves[at].keys.clone();
        Ok((Key { keys, at: i }, previous, value))
    }

    /// [`CowMap::try_update`] for an update that cannot fail.
    pub fn update(
        &mut self,
        key: &str,
        f: impl FnOnce(Option<u64>) -> u64,
    ) -> (Key, Option<u64>, u64) {
        match self.try_update(key, |current| Ok::<_, Infallible>(f(current))) {
            Ok(updated) => updated,
            Err(never) => match never {},
        }
    }

    /// Sets a key, returning its previous value.
    pub fn insert(&mut self, key: &str, value: u64) -> Option<u64> {
        self.update(key, |_| value).1
    }

    /// Removes a key, returning its value.  A leaf left empty disappears.
    pub fn remove(&mut self, key: &str) -> Option<u64> {
        let (at, place) = self.locate(key);
        let i = place.ok()?;
        let mut entries: Vec<_> = self.leaves[at].entries().collect();
        let (_, removed) = entries.remove(i);
        if entries.is_empty() {
            self.leaves.remove(at);
        } else {
            self.leaves[at] = Leaf::pack(entries.iter().copied());
        }
        self.len -= 1;
        if i == 0 {
            self.reindex();
        }
        Some(removed)
    }

    /// Iterates over all `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.leaves.iter().flat_map(Leaf::entries)
    }

    /// Iterates, in key order, over the pairs whose key is at or after
    /// `start`.
    pub fn range_from<'a>(&'a self, start: &str) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        let (at, place) = self.locate(start);
        let skip = place.unwrap_or_else(|i| i);
        self.leaves[at..].iter().flat_map(Leaf::entries).skip(skip)
    }
}

/// Collects pairs in any order; of several pairs with one key the last wins,
/// as it would in a loop of [`CowMap::insert`].
impl<K: AsRef<str>> FromIterator<(K, u64)> for CowMap {
    fn from_iter<I: IntoIterator<Item = (K, u64)>>(iter: I) -> Self {
        let mut pairs: Vec<(K, u64)> = iter.into_iter().collect();
        // Stable, so pairs with equal keys stay in arrival order ...
        pairs.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        // ... and the last of each run of equal keys is the one to keep.
        pairs.reverse();
        pairs.dedup_by(|later, kept| later.0.as_ref() == kept.0.as_ref());
        pairs.reverse();
        let mut map = CowMap {
            len: pairs.len(),
            ..CowMap::default()
        };
        for chunk in pairs.chunks(LEAF_MAX) {
            let entries = chunk.iter().map(|(key, value)| (key.as_ref(), *value));
            map.leaves.push(Leaf::pack(entries));
        }
        map.reindex();
        map
    }
}

/// Equality is by content: two maps holding the same pairs are equal however
/// their leaves are cut.
impl PartialEq for CowMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for CowMap {}

impl fmt::Debug for CowMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DomainId;
    use crate::transaction::{
        account_key, account_universe, accounts_in_key_order, ACCOUNTS_PER_DOMAIN, INITIAL_BALANCE,
    };
    use std::collections::BTreeMap;

    /// Every structural condition the map relies on.
    fn check_shape(map: &CowMap) {
        let mut total = 0;
        let mut last: Option<&str> = None;
        for leaf in &map.leaves {
            assert!(!leaf.values.is_empty(), "an empty leaf survived");
            assert!(leaf.values.len() <= LEAF_MAX, "a leaf outgrew the bound");
            assert_eq!(leaf.keys.len(), leaf.values.len());
            for key in leaf.keys.iter() {
                assert!(last < Some(key), "keys out of order at {key}");
                last = Some(key);
            }
            total += leaf.values.len();
        }
        let firsts: Vec<&str> = map.leaves.iter().map(|l| l.keys.get(0)).collect();
        assert_eq!(map.firsts.iter().collect::<Vec<_>>(), firsts);
        assert_eq!(map.len(), total, "len() is exact");
        assert_eq!(map.is_empty(), total == 0);
    }

    /// True if the two leaves are one: the same keys and the same values in
    /// memory, not merely equal ones.
    fn same(a: &Leaf, b: &Leaf) -> bool {
        Arc::ptr_eq(&a.keys, &b.keys) && Arc::ptr_eq(&a.values, &b.values)
    }

    fn assert_matches_model(map: &CowMap, model: &BTreeMap<String, u64>) {
        check_shape(map);
        let got: Vec<(&str, u64)> = map.iter().collect();
        let want: Vec<(&str, u64)> = model.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(got, want);
    }

    /// Random inserts, overwrites, read-modify-writes, removals and kept
    /// clones against a `BTreeMap<String, u64>`: the map and every clone ever
    /// taken of it equal their model copies, so a later write never shows
    /// through an earlier share.
    #[test]
    fn behaves_like_the_btreemap_it_replaces() {
        for seed in 1..=12u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            // Odd seeds work a small key space (overwrites, leaves that empty
            // out), even ones a large one (leaves that split).
            let key_space = if seed % 2 == 1 { 90 } else { 1_500 };
            let mut map = CowMap::new();
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            let mut kept: Vec<(CowMap, BTreeMap<String, u64>)> = Vec::new();
            let mut most_leaves = 0;
            for step in 0..4_000 {
                // Keys of mixed length, so byte order differs from numeric.
                let key = format!("k{}", next() % key_space);
                let value = next() % 1_000;
                // The second half of a run removes more than it inserts.
                let kind = next() % if step < 2_000 { 10 } else { 16 };
                match kind {
                    0..=2 => {
                        assert_eq!(map.insert(&key, value), model.insert(key.clone(), value));
                    }
                    3..=4 => {
                        let previous = model.get(&key).copied();
                        let (handle, seen, stored) = map.update(&key, |v| v.unwrap_or(0) + value);
                        model.insert(key.clone(), previous.unwrap_or(0) + value);
                        assert_eq!((&*handle, seen), (key.as_str(), previous));
                        assert_eq!(Some(stored), model.get(&key).copied());
                        assert_eq!(map.get(&handle), model.get(&key).copied());
                    }
                    5 => {
                        // A refused update changes nothing and copies nothing.
                        let before = map.leaves.clone();
                        let refused = map.try_update(&key, Err::<u64, _>);
                        assert_eq!(refused, Err(model.get(&key).copied()));
                        assert!(before.iter().zip(&map.leaves).all(|(a, b)| same(a, b)));
                    }
                    6 => kept.push((map.clone(), model.clone())),
                    7 => assert_eq!(map.get(&key), model.get(&key).copied()),
                    _ => assert_eq!(map.remove(&key), model.remove(&key)),
                }
                most_leaves = most_leaves.max(map.leaves.len());
                if step % 97 == 0 {
                    assert_matches_model(&map, &model);
                    let prefix = format!("k{}", next() % 10);
                    let got: Vec<_> = map
                        .range_from(&prefix)
                        .take_while(|(k, _)| k.starts_with(&prefix))
                        .collect();
                    let want: Vec<_> = model
                        .range(prefix.clone()..)
                        .take_while(|(k, _)| k.starts_with(&prefix))
                        .map(|(k, v)| (k.as_str(), *v))
                        .collect();
                    assert_eq!(got, want, "prefix range {prefix}");
                }
            }
            assert_matches_model(&map, &model);
            if key_space > LEAF_MAX as u64 * 4 {
                assert!(most_leaves > 4, "leaves split above the bound");
            }
            assert!(kept.len() > 100);
            for (clone, clone_model) in &kept {
                assert_matches_model(clone, clone_model);
            }
            for key in model.keys() {
                map.remove(key);
            }
            assert!(map.leaves.is_empty() && map.is_empty());
        }
    }

    /// Appending splits a full leaf at its very end, prepending moves leaf
    /// 0's first key: the corners random keys rarely reach.
    #[test]
    fn ascending_and_descending_inserts_split_at_the_edges() {
        let ascending = (0..500).map(|n| format!("{n:04}"));
        let descending = ascending.clone().rev();
        for keys in [ascending.collect::<Vec<_>>(), descending.collect()] {
            let mut map = CowMap::new();
            let mut model = BTreeMap::new();
            for (n, key) in keys.iter().enumerate() {
                let (handle, previous, stored) = map.update(key, |_| n as u64);
                assert_eq!((&*handle, previous, stored), (key.as_str(), None, n as u64));
                model.insert(key.clone(), n as u64);
                assert_eq!(map.get(key), Some(n as u64));
            }
            assert_matches_model(&map, &model);
            assert!(map.leaves.len() >= 500 / LEAF_MAX);
        }
    }

    #[test]
    fn collecting_equals_inserting_in_order_and_the_last_duplicate_wins() {
        // 700 pairs over 300 keys, far from sorted.
        let pairs: Vec<(String, u64)> = (0..700u64)
            .map(|i| (format!("a{}", (i * 7_919) % 300), i))
            .collect();
        let collected: CowMap = pairs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let mut inserted = CowMap::new();
        for (key, value) in &pairs {
            inserted.insert(key, *value);
        }
        check_shape(&collected);
        assert_eq!(collected.len(), 300);
        assert_eq!(collected, inserted, "equal by content");
        assert_ne!(
            collected.leaves.len(),
            inserted.leaves.len(),
            "... though their leaves are cut differently"
        );
        assert_eq!(collected.leaves.len(), 300usize.div_ceil(LEAF_MAX));
        // Pairs that arrive strictly ascending make the same map.
        let ascending: CowMap = collected.iter().collect();
        check_shape(&ascending);
        assert_eq!(ascending, collected);
        assert_eq!(CowMap::from_iter([("k", 1), ("k", 2)]).get("k"), Some(2));
        assert!(CowMap::from_iter::<[(&str, u64); 0]>([]).leaves.is_empty());
    }

    /// The seed list a domain's universe was once collected from: one
    /// `String` per account, in key order.
    fn seed_accounts(domain: DomainId) -> Vec<(String, u64)> {
        accounts_in_key_order(ACCOUNTS_PER_DOMAIN)
            .map(|n| (account_key(domain.index, n), INITIAL_BALANCE))
            .collect()
    }

    /// A domain's universe is the map its seed list collects to, cut into
    /// the same leaves; its full leaves share one slice of values, and a
    /// write to one domain's map unshares the values of the leaf it lands
    /// in and no others, so no other domain or leaf sees it.
    #[test]
    fn an_account_universe_equals_its_collected_seed_list() {
        let cut = |map: &CowMap| -> Vec<(String, usize)> {
            let firsts = map.leaves.iter().map(|l| l.keys.get(0).to_string());
            firsts
                .zip(map.leaves.iter().map(|l| l.values.len()))
                .collect()
        };
        let domains = [0, 7, 127].map(|index| DomainId::new(1, index));
        let mut opened = domains.map(account_universe);
        for (map, domain) in opened.iter().zip(domains) {
            let collected: CowMap = seed_accounts(domain).into_iter().collect();
            check_shape(map);
            check_shape(&collected);
            assert_eq!(*map, collected, "{domain:?}");
            assert_eq!(cut(map), cut(&collected), "{domain:?}: the same leaves");
            let (full, tail) = map.leaves.split_at(map.leaves.len() - 1);
            assert!(full.iter().all(|l| Arc::ptr_eq(&l.values, &full[0].values)));
            assert_eq!(
                tail[0].values.len(),
                ACCOUNTS_PER_DOMAIN as usize % LEAF_MAX
            );
        }

        let replica = opened[1].clone();
        opened[1].insert("a7_4242", 1);
        opened[1].update("a7_9999", |v| v.unwrap() + 5);
        let pairs = opened[1].leaves.iter().zip(&replica.leaves);
        assert_eq!(
            pairs.filter(|(a, b)| !same(a, b)).count(),
            2,
            "two leaves unshared"
        );
        assert_eq!(opened[1].get("a7_4242"), Some(1));
        assert_eq!(opened[1].get("a7_9999"), Some(INITIAL_BALANCE + 5));
        let written = ["a7_4242", "a7_9999"];
        let others: Vec<_> = opened[1]
            .iter()
            .filter(|(k, _)| !written.contains(k))
            .collect();
        assert_eq!(others.len() + 2, ACCOUNTS_PER_DOMAIN as usize);
        assert!(others.iter().all(|&(_, v)| v == INITIAL_BALANCE));
        for untouched in [&opened[0], &replica, &opened[2]] {
            assert_eq!(untouched.len(), ACCOUNTS_PER_DOMAIN as usize);
            assert!(untouched.iter().all(|(_, v)| v == INITIAL_BALANCE));
        }

        assert!(CowMap::uniform(iter::empty(), String::push_str, 1)
            .leaves
            .is_empty());
    }

    /// Cloning costs one pointer per leaf, whatever the number of keys, and a
    /// write unshares only the values of the leaf it lands in.
    #[test]
    fn a_clone_shares_every_leaf_and_a_write_unshares_one() {
        let original: CowMap = (0..10_000u64).map(|i| (format!("a0_{i}"), 1_000)).collect();
        assert_eq!(original.len(), 10_000);
        assert_eq!(original.leaves.len(), 10_000usize.div_ceil(LEAF_MAX));

        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&original.firsts, &clone.firsts));
        let pairs = original.leaves.iter().zip(&clone.leaves);
        assert!(pairs.clone().all(|(a, b)| same(a, b)));

        assert_eq!(clone.update("a0_4242", |v| v.unwrap() - 1).1, Some(1_000));
        clone.insert("a0_4242", 7);
        let pairs = original.leaves.iter().zip(&clone.leaves);
        let unshared: Vec<_> = pairs.filter(|(a, b)| !same(a, b)).collect();
        assert_eq!(unshared.len(), 1, "one leaf copied, once");
        assert!(
            Arc::ptr_eq(&unshared[0].0.keys, &unshared[0].1.keys),
            "its keys are still shared"
        );
        assert_eq!(original.get("a0_4242"), Some(1_000));
        assert_eq!(clone.get("a0_4242"), Some(7));
        assert_ne!(original, clone);
    }
}
