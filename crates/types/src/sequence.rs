//! Sequence numbers.
//!
//! Internal transactions of a height-1 domain carry a single-part sequence
//! number assigned by that domain's internal consensus.  Cross-domain
//! transactions carry a *multi-part* sequence number with one part per
//! involved domain (the paper's `12-22-31` notation in Figure 3): each part
//! records the order of the transaction in the ledger of one involved domain.

use crate::ids::DomainId;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// A single-domain sequence number (position in one domain's ledger).
pub type SeqNo = u64;

/// Folds one consensus delivery — its sequence number plus a fingerprint per
/// member command — into a rolling delivery-stream hash (FNV-1a over
/// little-endian words).  `prev` is the previous snapshot, `None` for the
/// first delivery.  Both the Saguaro node and the baseline node record one
/// snapshot per delivered block with this exact function, so the
/// fault-injection suites can compare delivery prefixes across replicas of
/// any stack.
pub fn delivery_hash(prev: Option<u64>, seq: SeqNo, members: impl Iterator<Item = u64>) -> u64 {
    let mut h = prev.unwrap_or(0xcbf2_9ce4_8422_2325);
    let mut fold = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    };
    fold(seq);
    for m in members {
        fold(m);
    }
    h
}

/// A bounded window over a replica's delivery-stream hash chain.
///
/// Each delivered block appends one [`delivery_hash`] snapshot; because the
/// hash chains, equality of two replicas' snapshots at *any* shared index
/// implies their whole delivery prefixes up to that index agree.  That lets
/// the window drop old snapshots without losing the agreement check: only
/// the last [`DeliveryLog::CAPACITY`] snapshots are retained (plus the
/// absolute offset of the first one), so endurance runs hold O(1) memory
/// per replica where the historical `Vec<u64>` grew with history.
///
/// Installing an application snapshot *splices* the chain: the log restarts
/// at the snapshot's length and hash, and subsequent deliveries chain from
/// there exactly as the responder's did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeliveryLog {
    start: u64,
    window: VecDeque<u64>,
}

impl DeliveryLog {
    /// Retained hash snapshots per replica — matches the commit-time ring
    /// used by the node statistics, and is far longer than any retention
    /// window the agreement checks need to overlap.
    pub const CAPACITY: usize = 4096;

    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total deliveries recorded over the life of the chain (including
    /// evicted and spliced-over ones).
    pub fn len(&self) -> u64 {
        self.start + self.window.len() as u64
    }

    /// True if nothing was ever recorded (or a zero-length splice reset it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absolute index of the oldest retained snapshot.
    #[cfg(test)]
    pub(crate) fn first_retained(&self) -> u64 {
        self.start
    }

    /// The newest hash snapshot — the `prev` input of the next
    /// [`delivery_hash`] fold.
    pub fn last(&self) -> Option<u64> {
        self.window.back().copied()
    }

    /// The snapshot at absolute index `idx`, if still retained.
    pub fn get(&self, idx: u64) -> Option<u64> {
        idx.checked_sub(self.start)
            .and_then(|off| self.window.get(off as usize))
            .copied()
    }

    /// Appends the hash snapshot of the next delivery, evicting the oldest
    /// retained one beyond [`DeliveryLog::CAPACITY`].
    pub fn push(&mut self, hash: u64) {
        if self.window.len() == Self::CAPACITY {
            self.window.pop_front();
            self.start += 1;
        }
        self.window.push_back(hash);
    }

    /// Resets the chain to an installed snapshot: `len` deliveries long,
    /// ending in `hash` (none retained below it).  `hash = None` (snapshot
    /// taken with recording off) leaves an empty window at offset `len`.
    pub fn splice(&mut self, len: u64, hash: Option<u64>) {
        self.window.clear();
        match hash {
            Some(h) if len > 0 => {
                self.start = len - 1;
                self.window.push_back(h);
            }
            _ => self.start = len,
        }
    }

    /// True if the two chains agree at their newest shared index (vacuously
    /// true when their retained windows do not overlap — chaining makes any
    /// shared-index equality a whole-prefix statement).
    pub fn agrees_with(&self, other: &Self) -> bool {
        let shared = self.len().min(other.len());
        let Some(idx) = shared.checked_sub(1) else {
            return true;
        };
        match (self.get(idx), other.get(idx)) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        }
    }
}

/// A multi-part sequence number for a cross-domain transaction.
///
/// Each entry maps an involved domain to the sequence number the transaction
/// received in that domain's ledger.  Entries are kept sorted by domain so
/// that equality and hashing are canonical.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct MultiSeq {
    parts: Parts,
}

/// One part sits inline — an internal transaction's number has only one, and
/// every ledger, block and DAG record holds a copy of it.  A cross-domain
/// number's parts are shared, so the copies its records hold cost a count,
/// not an allocation.  Each value has one representation, so the derived
/// equality is canonical, and a shared slice hashes as the slice does.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
enum Parts {
    #[default]
    Empty,
    One((DomainId, SeqNo)),
    /// Two or more, ascending by domain.
    Many(Arc<[(DomainId, SeqNo)]>),
}

impl MultiSeq {
    /// Creates an empty multi-part sequence number.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a multi-part sequence number from `(domain, seq)` pairs in
    /// any order; of two parts for one domain, the first is kept.
    pub fn from_parts(mut parts: Vec<(DomainId, SeqNo)>) -> Self {
        parts.sort_by_key(|(d, _)| *d);
        parts.dedup_by_key(|(d, _)| *d);
        Self::from_sorted(parts)
    }

    /// Creates a multi-part sequence number from parts already ascending by
    /// domain, one per domain, in at most one allocation.
    pub fn from_sorted<I>(parts: I) -> Self
    where
        I: IntoIterator<Item = (DomainId, SeqNo)>,
        I::IntoIter: ExactSizeIterator,
    {
        // A counted range lets `Arc` size its one allocation up front, where
        // collecting `parts` itself would stage them in a `Vec` first.
        let mut parts = parts.into_iter();
        let len = parts.len();
        let mut next = || parts.next().expect("`len` parts");
        let parts = match len {
            0 => Parts::Empty,
            1 => Parts::One(next()),
            _ => Parts::Many((0..len).map(|_| next()).collect()),
        };
        let seq = Self { parts };
        assert!(
            seq.as_slice().windows(2).all(|w| w[0].0 < w[1].0),
            "parts must ascend by domain, one per domain"
        );
        seq
    }

    /// The parts in domain order.
    fn as_slice(&self) -> &[(DomainId, SeqNo)] {
        match &self.parts {
            Parts::Empty => &[],
            Parts::One(only) => std::slice::from_ref(only),
            Parts::Many(sorted) => sorted,
        }
    }

    /// Records (or overwrites) the sequence number assigned by `domain`.
    pub fn set(&mut self, domain: DomainId, seq: SeqNo) {
        if self.is_empty() {
            self.parts = Parts::One((domain, seq));
            return;
        }
        // Only a cross-domain number gets here: rebuilt, not edited in place.
        let mut parts = self.as_slice().to_vec();
        parts.retain(|(d, _)| *d != domain);
        parts.push((domain, seq));
        *self = Self::from_parts(parts);
    }

    /// The sequence number assigned by `domain`, if any.
    pub fn get(&self, domain: DomainId) -> Option<SeqNo> {
        self.iter().find(|(d, _)| *d == domain).map(|(_, s)| s)
    }

    /// Number of domains that have assigned a part.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if no domain has assigned a part yet.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Iterates over `(domain, seq)` pairs in domain order.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, SeqNo)> + '_ {
        self.as_slice().iter().copied()
    }

    /// The domains that have contributed a part.
    pub fn domains(&self) -> impl Iterator<Item = DomainId> + '_ {
        self.iter().map(|(d, _)| d)
    }
}

impl fmt::Debug for MultiSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Mirrors the paper's `ni-nj-...-nk` concatenated notation.
        let mut first = true;
        for (d, s) in self.iter() {
            if !first {
                write!(f, "-")?;
            }
            write!(f, "{s}@{d:?}")?;
            first = false;
        }
        if first {
            write!(f, "<empty>")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u16) -> DomainId {
        DomainId::new(1, i)
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut m = MultiSeq::new();
        assert!(m.is_empty());
        m.set(d(2), 22);
        m.set(d(0), 12);
        m.set(d(3), 31);
        assert_eq!(m.get(d(0)), Some(12));
        assert_eq!(m.get(d(2)), Some(22));
        assert_eq!(m.get(d(3)), Some(31));
        assert_eq!(m.get(d(1)), None);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn set_overwrites_existing_part() {
        let mut m = MultiSeq::new();
        m.set(d(0), 1);
        m.set(d(0), 7);
        assert_eq!(m.get(d(0)), Some(7));
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ascend by domain")]
    fn from_sorted_rejects_unsorted_parts() {
        MultiSeq::from_sorted([(d(2), 2), (d(0), 0)]);
    }

    #[test]
    fn parts_are_canonically_ordered() {
        let a = MultiSeq::from_parts(vec![(d(2), 5), (d(0), 3)]);
        let mut b = MultiSeq::new();
        b.set(d(0), 3);
        b.set(d(2), 5);
        assert_eq!(a, b);
        // Set in the other order: the first part is displaced, then a later
        // one overwritten.
        let mut c = MultiSeq::new();
        for (domain, seq) in [(d(2), 9), (d(0), 3), (d(2), 5)] {
            c.set(domain, seq);
        }
        assert_eq!(a, c);
        let order: Vec<_> = a.domains().collect();
        assert_eq!(order, vec![d(0), d(2)]);
    }

    #[test]
    fn from_parts_deduplicates_domains() {
        let a = MultiSeq::from_parts(vec![(d(1), 5), (d(1), 9)]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn delivery_hash_chains_and_separates() {
        let h1 = delivery_hash(None, 1, [7u64].into_iter());
        assert_eq!(h1, delivery_hash(None, 1, [7u64].into_iter()));
        assert_ne!(h1, delivery_hash(None, 1, [8u64].into_iter()));
        assert_ne!(h1, delivery_hash(None, 2, [7u64].into_iter()));
        // Chained snapshots depend on the whole prefix.
        let h2 = delivery_hash(Some(h1), 2, [9u64].into_iter());
        assert_ne!(h2, delivery_hash(None, 2, [9u64].into_iter()));
    }

    #[test]
    fn delivery_log_windows_evict_and_still_agree() {
        let mut a = DeliveryLog::new();
        let mut b = DeliveryLog::new();
        let mut h = None;
        for seq in 1..=(DeliveryLog::CAPACITY as u64 + 10) {
            h = Some(delivery_hash(h, seq, [seq].into_iter()));
            a.push(h.unwrap());
            b.push(h.unwrap());
        }
        assert_eq!(a.len(), DeliveryLog::CAPACITY as u64 + 10);
        assert_eq!(a.first_retained(), 10);
        assert_eq!(a.get(9), None, "evicted below the window");
        assert_eq!(a.get(10), b.get(10));
        assert!(a.agrees_with(&b) && b.agrees_with(&a));
        // A diverging tail is caught at the newest shared index.
        b.push(1);
        a.push(2);
        assert!(!a.agrees_with(&b));
        // Disjoint windows are vacuously in agreement.
        let stale = DeliveryLog::new();
        assert!(a.agrees_with(&stale));
        let mut short = DeliveryLog::new();
        short.push(7);
        assert!(a.agrees_with(&short), "index 0 left a's window long ago");
    }

    #[test]
    fn delivery_log_splice_resumes_the_chain() {
        // The responder records 5 deliveries and snapshots at seq 4.
        let mut responder = DeliveryLog::new();
        let mut h = None;
        let mut at4 = None;
        for seq in 1..=5 {
            h = Some(delivery_hash(h, seq, [seq * 11].into_iter()));
            responder.push(h.unwrap());
            if seq == 4 {
                at4 = h;
            }
        }
        // The receiver splices in the snapshot and replays the tail.
        let mut receiver = DeliveryLog::new();
        receiver.splice(4, at4);
        assert_eq!(receiver.len(), 4);
        assert_eq!(receiver.first_retained(), 3);
        assert_eq!(receiver.last(), at4);
        receiver.push(delivery_hash(receiver.last(), 5, [55].into_iter()));
        assert_eq!(receiver.last(), responder.last());
        assert!(receiver.agrees_with(&responder));
        // A hash-less splice (recording off) just advances the offset.
        let mut blind = DeliveryLog::new();
        blind.splice(4, None);
        assert_eq!(blind.len(), 4);
        assert_eq!(blind.last(), None);
    }

    #[test]
    fn debug_matches_paper_notation_shape() {
        let m = MultiSeq::from_parts(vec![(d(0), 12), (d(1), 22)]);
        let s = format!("{m:?}");
        assert!(s.contains("12@D10") && s.contains("22@D11") && s.contains('-'));
        assert_eq!(format!("{:?}", MultiSeq::new()), "<empty>");
    }
}
