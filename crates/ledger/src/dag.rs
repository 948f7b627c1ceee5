//! The DAG-structured summarized ledger of height-2 and above domains.
//!
//! A parent domain receives `block` messages from possibly multiple child
//! domains each round and appends their transactions to its own ledger.
//! Internal transactions of different children are independent and may be
//! ordered arbitrarily, but a cross-domain transaction appears in the blocks
//! of *several* children and "must be appended to the ledger of the parent
//! domain only once"; the edges of the DAG capture the per-child order
//! dependencies so the parent's ledger is consistent with every child ledger.

use crate::block::{Block, CommittedTx, TxStatus};
use saguaro_types::hash::FxHashMap;
use saguaro_types::{DomainId, Result, SaguaroError, TxId};
use std::collections::{BTreeMap, BTreeSet};

/// A set whose first element sits inline.  An internal transaction has one
/// reporter and at most one parent, so its vertex allocates for neither; only
/// a cross-domain transaction reported by a second child spills to `rest`.
#[derive(Clone, Debug, Default)]
struct SmallSet<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T: Ord + Copy> SmallSet<T> {
    fn of(first: Option<T>) -> Self {
        let rest = Vec::new();
        Self { first, rest }
    }

    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.first.iter().chain(&self.rest).copied()
    }

    fn contains(&self, item: T) -> bool {
        self.iter().any(|held| held == item)
    }

    fn insert(&mut self, item: T) {
        match self.first {
            _ if self.contains(item) => {}
            None => self.first = Some(item),
            Some(_) => self.rest.push(item),
        }
    }

    fn retain(&mut self, keep: impl Fn(&T) -> bool) {
        self.first = self.first.filter(&keep);
        self.rest.retain(keep);
    }

    /// The elements also in `other`, ascending.
    #[cfg(test)]
    fn intersection(&self, other: &Self) -> Vec<T> {
        let mut both: Vec<T> = self.iter().filter(|item| other.contains(*item)).collect();
        both.sort();
        both
    }
}

/// One vertex of the DAG ledger.
#[derive(Clone, Debug)]
pub struct DagEntry {
    /// The recorded transaction.
    pub record: CommittedTx,
    /// Child domains whose blocks contained this transaction so far.
    reported_by: SmallSet<DomainId>,
    /// Direct predecessors in the DAG (the previous transaction of each child
    /// ledger in which this transaction appears).
    parents: SmallSet<TxId>,
}

/// The DAG-structured, summarized ledger of a height-2+ domain.
#[derive(Clone, Debug, Default)]
pub struct DagLedger {
    entries: FxHashMap<TxId, DagEntry>,
    /// Insertion order, for deterministic iteration and audit.
    order: Vec<TxId>,
    /// Last transaction seen per child domain (tail of that child's chain as
    /// known here), used to create dependency edges.
    child_tails: BTreeMap<DomainId, TxId>,
    /// Highest round incorporated per child domain.
    last_round: BTreeMap<DomainId, u64>,
}

impl DagLedger {
    /// Creates an empty DAG ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct transactions in the DAG.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the DAG holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest round incorporated from `child`.
    pub fn last_round_of(&self, child: DomainId) -> u64 {
        self.last_round.get(&child).copied().unwrap_or(0)
    }

    /// Looks up a transaction.
    pub fn get(&self, id: TxId) -> Option<&DagEntry> {
        self.entries.get(&id)
    }

    /// True if the DAG contains a transaction.
    pub fn contains(&self, id: TxId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Transactions in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &DagEntry> {
        self.order.iter().filter_map(|id| self.entries.get(id))
    }

    /// Incorporates a verified block received from `child`.
    ///
    /// Cross-domain transactions already present (reported by another child)
    /// are not duplicated; instead the reporting child is recorded and new
    /// dependency edges are added.  Returns the records appended for the
    /// first time, in block order.
    ///
    /// Fails if the block round is not the next expected round from that
    /// child (parents process child rounds in order; the caller buffers
    /// out-of-order blocks).
    pub fn apply_block(&mut self, child: DomainId, block: &Block) -> Result<Vec<CommittedTx>> {
        if !block.verify_content() {
            return Err(SaguaroError::InvalidBlock(format!(
                "Merkle root mismatch in {:?}",
                block.header.id
            )));
        }
        let expected = self.last_round_of(child) + 1;
        if block.header.id.round != expected {
            return Err(SaguaroError::InvalidBlock(format!(
                "block {:?} from {:?} arrived out of order (expected round {expected})",
                block.header.id, child
            )));
        }

        let mut appended = Vec::new();
        for record in &block.txs {
            let id = record.tx.id;
            let prev_tail = self.child_tails.get(&child).copied();
            match self.entries.get_mut(&id) {
                Some(entry) => {
                    // Cross-domain transaction already appended via another
                    // child: record the extra reporter and the edge from this
                    // child's previous transaction.
                    entry.reported_by.insert(child);
                    if let Some(p) = prev_tail {
                        if p != id {
                            entry.parents.insert(p);
                        }
                    }
                    // An abort reported by any child wins over a speculative
                    // commit (deterministic: aborts are sticky).
                    if record.status == TxStatus::Aborted {
                        entry.record.status = TxStatus::Aborted;
                    }
                }
                None => {
                    let entry = DagEntry {
                        record: record.clone(),
                        reported_by: SmallSet::of(Some(child)),
                        parents: SmallSet::of(prev_tail),
                    };
                    self.entries.insert(id, entry);
                    self.order.push(id);
                    appended.push(record.clone());
                }
            }
            self.child_tails.insert(child, id);
        }

        self.last_round.insert(child, block.header.id.round);
        Ok(appended)
    }

    /// Discards the oldest entries beyond `keep_last`.  Round bookkeeping
    /// (`last_round`, `child_tails`) survives, so in-order incorporation
    /// continues unaffected; edges into pruned vertices are dropped.  Only
    /// runs with a finite checkpoint retention window call this — they
    /// accept window-local cross-domain dedup in exchange for a resident
    /// set bounded by the window rather than the run length.
    pub fn prune_front(&mut self, keep_last: usize) {
        let excess = self.order.len().saturating_sub(keep_last);
        if excess == 0 {
            return;
        }
        let removed: BTreeSet<TxId> = self.order.drain(..excess).collect();
        for id in &removed {
            self.entries.remove(id);
        }
        for e in self.entries.values_mut() {
            e.parents.retain(|p| !removed.contains(p));
        }
        self.child_tails.retain(|_, id| !removed.contains(id));
    }

    /// Marks a transaction aborted (e.g. after the LCA detected an ordering
    /// inconsistency).  Returns true if the status changed.
    pub fn mark_aborted(&mut self, id: TxId) -> bool {
        if let Some(e) = self.entries.get_mut(&id) {
            if e.record.status != TxStatus::Aborted {
                e.record.status = TxStatus::Aborted;
                return true;
            }
        }
        false
    }

    /// Cross-domain transactions that have been reported by every domain in
    /// their involved set (the LCA uses this to decide a transaction is fully
    /// committed).
    pub fn fully_reported(&self) -> Vec<TxId> {
        self.iter()
            .filter(|e| {
                let involved = e.record.tx.involved_domains();
                involved.iter().all(|d| e.reported_by.contains(*d))
            })
            .map(|e| e.record.tx.id)
            .collect()
    }

    /// Verifies the DAG is acyclic (it is by construction — edges always point
    /// from later to earlier insertions — but tests exercise this invariant).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over the parent edges.
        let mut indegree: FxHashMap<TxId, usize> = self.entries.keys().map(|k| (*k, 0)).collect();
        for e in self.entries.values() {
            for p in e.parents.iter() {
                if self.entries.contains_key(&p) {
                    *indegree.get_mut(&e.record.tx.id).expect("present") += 1;
                }
            }
        }
        let mut queue: Vec<TxId> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(k, _)| *k)
            .collect();
        let mut visited = 0;
        // children index: parent -> list of children
        let mut children: FxHashMap<TxId, Vec<TxId>> = FxHashMap::default();
        for e in self.entries.values() {
            for p in e.parents.iter() {
                children.entry(p).or_default().push(e.record.tx.id);
            }
        }
        while let Some(n) = queue.pop() {
            visited += 1;
            for c in children.get(&n).into_iter().flatten() {
                let d = indegree.get_mut(c).expect("present");
                *d -= 1;
                if *d == 0 {
                    queue.push(*c);
                }
            }
        }
        visited == self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::StateDelta;
    use crate::linear::LinearLedger;
    use saguaro_types::{ClientId, MultiSeq, Operation, Transaction};

    fn d(i: u16) -> DomainId {
        DomainId::new(1, i)
    }

    fn internal(ledger: &mut LinearLedger, id: u64) {
        let tx = Transaction::internal(TxId(id), ClientId(0), ledger.domain(), Operation::Noop);
        ledger.append_internal(tx, TxStatus::Committed);
    }

    fn cross(ledger: &mut LinearLedger, id: u64, involved: &[DomainId], status: TxStatus) {
        let tx =
            Transaction::cross_domain(TxId(id), ClientId(0), involved.to_vec(), Operation::Noop);
        let mut seq = MultiSeq::new();
        seq.set(ledger.domain(), ledger.reserve_seq());
        ledger.append_cross_domain(tx, seq, status);
    }

    #[test]
    fn internal_transactions_from_two_children_all_appear() {
        let mut l0 = LinearLedger::new(d(0));
        let mut l1 = LinearLedger::new(d(1));
        internal(&mut l0, 1);
        internal(&mut l0, 2);
        internal(&mut l1, 10);
        let b0 = l0.cut_block(StateDelta::new());
        let b1 = l1.cut_block(StateDelta::new());

        let mut dag = DagLedger::new();
        dag.apply_block(d(0), &b0).unwrap();
        dag.apply_block(d(1), &b1).unwrap();
        assert_eq!(dag.len(), 3);
        assert!(dag.is_acyclic());
        assert_eq!(dag.last_round_of(d(0)), 1);
    }

    #[test]
    fn cross_domain_transaction_appears_once() {
        let mut l0 = LinearLedger::new(d(0));
        let mut l1 = LinearLedger::new(d(1));
        internal(&mut l0, 1);
        cross(&mut l0, 100, &[d(0), d(1)], TxStatus::Committed);
        cross(&mut l1, 100, &[d(0), d(1)], TxStatus::Committed);
        internal(&mut l1, 2);

        let mut dag = DagLedger::new();
        let new0 = dag
            .apply_block(d(0), &l0.cut_block(StateDelta::new()))
            .unwrap();
        let new1 = dag
            .apply_block(d(1), &l1.cut_block(StateDelta::new()))
            .unwrap();
        assert_eq!(new0.len(), 2);
        // The cross-domain tx was already present; only tx 2 is new.
        assert_eq!(new1.len(), 1);
        assert_eq!(new1[0].tx.id, TxId(2));
        assert_eq!(dag.len(), 3);
        let entry = dag.get(TxId(100)).unwrap();
        assert_eq!(entry.reported_by.iter().count(), 2);
        assert!(dag.is_acyclic());
        // Dependency edges: tx100 depends on tx1 (order in d0's ledger).
        assert!(entry.parents.contains(TxId(1)));
        assert_eq!(dag.fully_reported(), vec![TxId(1), TxId(100), TxId(2)]);
    }

    #[test]
    fn partially_reported_cross_domain_is_not_fully_reported() {
        let mut l0 = LinearLedger::new(d(0));
        cross(
            &mut l0,
            100,
            &[d(0), d(1)],
            TxStatus::SpeculativelyCommitted,
        );
        let mut dag = DagLedger::new();
        dag.apply_block(d(0), &l0.cut_block(StateDelta::new()))
            .unwrap();
        assert!(dag.fully_reported().is_empty());
    }

    #[test]
    fn out_of_order_blocks_are_rejected() {
        let mut l0 = LinearLedger::new(d(0));
        internal(&mut l0, 1);
        let _b1 = l0.cut_block(StateDelta::new());
        internal(&mut l0, 2);
        let b2 = l0.cut_block(StateDelta::new());

        let mut dag = DagLedger::new();
        let err = dag.apply_block(d(0), &b2);
        assert!(matches!(err, Err(SaguaroError::InvalidBlock(_))));
    }

    #[test]
    fn tampered_blocks_are_rejected() {
        let mut l0 = LinearLedger::new(d(0));
        internal(&mut l0, 1);
        let b = l0.cut_block(StateDelta::new());
        // A twin whose first record's status was flipped in transit: same
        // header, different body — it has no verdict to inherit.
        let mut txs = b.txs.clone();
        txs[0].status = TxStatus::Aborted;
        let twin = Block::from_parts(b.header.clone(), txs, StateDelta::new());
        let mut dag = DagLedger::new();
        assert!(matches!(
            dag.apply_block(d(0), &twin),
            Err(SaguaroError::InvalidBlock(_))
        ));
        // The genuine block still goes through.
        dag.apply_block(d(0), &b).unwrap();
    }

    #[test]
    fn abort_reported_by_any_child_is_sticky() {
        let mut l0 = LinearLedger::new(d(0));
        let mut l1 = LinearLedger::new(d(1));
        cross(
            &mut l0,
            100,
            &[d(0), d(1)],
            TxStatus::SpeculativelyCommitted,
        );
        cross(&mut l1, 100, &[d(0), d(1)], TxStatus::Aborted);
        let mut dag = DagLedger::new();
        dag.apply_block(d(0), &l0.cut_block(StateDelta::new()))
            .unwrap();
        dag.apply_block(d(1), &l1.cut_block(StateDelta::new()))
            .unwrap();
        assert_eq!(dag.get(TxId(100)).unwrap().record.status, TxStatus::Aborted);
        // And explicit aborts work too.
        assert!(!dag.mark_aborted(TxId(100)), "already aborted");
    }

    #[test]
    fn multi_round_chains_build_parent_edges_per_child() {
        let mut l0 = LinearLedger::new(d(0));
        internal(&mut l0, 1);
        let b1 = l0.cut_block(StateDelta::new());
        internal(&mut l0, 2);
        let b2 = l0.cut_block(StateDelta::new());

        let mut dag = DagLedger::new();
        dag.apply_block(d(0), &b1).unwrap();
        dag.apply_block(d(0), &b2).unwrap();
        assert_eq!(dag.last_round_of(d(0)), 2);
        // tx2 depends on tx1 even though they were in different blocks.
        assert!(dag.get(TxId(2)).unwrap().parents.contains(TxId(1)));
        assert!(dag.is_acyclic());
    }

    proptest::proptest! {
        /// `SmallSet` is a `BTreeSet` that keeps its first element inline.
        #[test]
        fn a_small_set_behaves_like_a_btree_set(
            inserted in proptest::collection::vec(0u16..12, 0..10),
            other in proptest::collection::vec(0u16..12, 0..10),
            dropped in proptest::collection::vec(0u16..12, 0..6),
        ) {
            let sorted = |set: &SmallSet<u16>| set.intersection(set);
            let (mut small, mut model) = (SmallSet::default(), BTreeSet::new());
            for item in inserted {
                small.insert(item);
                model.insert(item);
                proptest::prop_assert_eq!(sorted(&small), Vec::from_iter(model.clone()));
                proptest::prop_assert_eq!(small.iter().count(), model.len());
            }
            for probe in 0..12 {
                proptest::prop_assert_eq!(small.contains(probe), model.contains(&probe));
            }
            let mut other_small = SmallSet::default();
            other.iter().for_each(|item| other_small.insert(*item));
            let other_model = BTreeSet::from_iter(other);
            let both = Vec::from_iter(model.intersection(&other_model).copied());
            proptest::prop_assert_eq!(small.intersection(&other_small), both);
            small.retain(|item| !dropped.contains(item));
            model.retain(|item| !dropped.contains(item));
            proptest::prop_assert_eq!(sorted(&small), Vec::from_iter(model));
        }
    }

    /// The vertex of an internal transaction allocates for neither of its
    /// sets, and its record is the block's, not a copy.
    #[test]
    fn an_internal_vertex_is_inline_and_shares_the_blocks_record() {
        let mut l0 = LinearLedger::new(d(0));
        internal(&mut l0, 1);
        internal(&mut l0, 2);
        let block = l0.cut_block(StateDelta::new());
        let mut dag = DagLedger::new();
        let appended = dag.apply_block(d(0), &block).unwrap();
        let parents = [None, Some(TxId(1))];
        for ((record, held), parent) in block.txs.iter().zip(&appended).zip(parents) {
            let vertex = dag.get(record.tx.id).unwrap();
            assert!(Transaction::ptr_eq(&record.tx, &held.tx));
            assert!(Transaction::ptr_eq(&record.tx, &vertex.record.tx));
            assert_eq!(*record, vertex.record);
            assert_eq!(vertex.reported_by.first, Some(d(0)));
            assert_eq!(vertex.parents.first, parent);
            let spilled = vertex.reported_by.rest.capacity() + vertex.parents.rest.capacity();
            assert_eq!(spilled, 0);
        }
    }

    #[test]
    fn empty_dag_properties() {
        let dag = DagLedger::new();
        assert!(dag.is_empty());
        assert!(dag.is_acyclic());
        assert!(dag.fully_reported().is_empty());
        assert!(!dag.contains(TxId(1)));
    }
}
