//! The DAG-structured summarized ledger of height-2 and above domains.
//!
//! A parent domain receives `block` messages from possibly multiple child
//! domains each round and appends their transactions to its own ledger.
//! Internal transactions of different children are independent and may be
//! ordered arbitrarily, but a cross-domain transaction appears in the blocks
//! of *several* children and "must be appended to the ledger of the parent
//! domain only once"; the edges of the DAG capture the per-child order
//! dependencies so the parent's ledger is consistent with every child ledger.
//!
//! That ledger is the DAG's own chain, the one its domain forwards: a
//! [`LinearLedger`] of each record as first reported, with the edges beside
//! it in 32 bytes a record.  A parent is a chain position, so pruning the
//! chain rewrites no edge.

use crate::abstraction::StateDelta;
use crate::block::{Block, CommittedTx, TxStatus};
use crate::linear::LinearLedger;
use saguaro_types::{DomainId, Result, SaguaroError, TxId};
use std::collections::BTreeMap;

/// What a DAG vertex holds beside its record in the chain.  An internal
/// transaction has one reporter and at most one parent, so it allocates
/// nothing; a cross-domain transaction reported by a second child spills.
#[derive(Clone, Debug)]
struct Edges {
    /// The first parent's chain position.
    parent: Option<usize>,
    /// Reporters and parents beyond the first of each.
    spill: Option<Box<Spill>>,
    /// The child whose block held the transaction first.
    reporter: DomainId,
    /// Sticky: some child reported an abort, or [`DagLedger::mark_aborted`].
    aborted: bool,
}

#[derive(Clone, Debug, Default)]
struct Spill {
    reporters: Vec<DomainId>,
    parents: Vec<usize>,
}

impl Edges {
    fn reporters(&self) -> impl Iterator<Item = DomainId> + '_ {
        let spilled = self.spill.iter().flat_map(|s| &s.reporters);
        std::iter::once(self.reporter).chain(spilled.copied())
    }

    /// The parents not pruned, as indexes from the chain position `first`
    /// of the first retained record.
    fn parents(&self, first: usize) -> impl Iterator<Item = usize> + '_ {
        let spilled = self.spill.iter().flat_map(|s| &s.parents);
        let parents = self.parent.into_iter().chain(spilled.copied());
        parents.filter_map(move |p| p.checked_sub(first))
    }

    fn spill(&mut self) -> &mut Spill {
        self.spill.get_or_insert_with(Box::default)
    }

    /// Records a further report by `child`, whose previous record is the
    /// one at `parent`.
    fn report(&mut self, child: DomainId, parent: Option<usize>) {
        if !self.reporters().any(|r| r == child) {
            self.spill().reporters.push(child);
        }
        match parent.filter(|p| !self.parents(0).any(|q| q == *p)) {
            None => {}
            Some(p) if self.parent.is_none() => self.parent = Some(p),
            Some(p) => self.spill().parents.push(p),
        }
    }
}

/// One vertex of the DAG ledger: the chain's record and the edges beside it.
#[derive(Clone, Copy, Debug)]
pub struct DagEntry<'a> {
    /// The transaction as first reported, as the chain holds it.
    pub record: &'a CommittedTx,
    edges: &'a Edges,
}

impl DagEntry<'_> {
    /// The DAG's verdict: the first report's status, or `Aborted` once any
    /// child reported an abort or the transaction was marked aborted.
    pub fn status(&self) -> TxStatus {
        match self.edges.aborted {
            true => TxStatus::Aborted,
            false => self.record.status,
        }
    }
}

/// The DAG-structured, summarized ledger of a height-2+ domain.
#[derive(Clone, Debug)]
pub struct DagLedger {
    /// Every transaction once, as first reported: the chain this domain
    /// cuts its blocks from, and whose index dedups.
    chain: LinearLedger,
    /// `edges[i]` belongs to the chain's `i`-th retained record.
    edges: Vec<Edges>,
    /// Chain position of the last transaction seen per child domain (tail
    /// of that child's chain as known here), used to create edges.
    child_tails: BTreeMap<DomainId, usize>,
    /// Highest round incorporated per child domain.
    last_round: BTreeMap<DomainId, u64>,
}

impl Default for DagLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl DagLedger {
    /// An empty DAG that cuts its blocks as height-2 domain 0's: for a
    /// caller that only incorporates blocks.
    pub fn new() -> Self {
        Self::for_domain(DomainId::new(2, 0))
    }

    /// An empty DAG of `domain`, the domain its cut blocks come from.
    pub fn for_domain(domain: DomainId) -> Self {
        Self {
            chain: LinearLedger::new(domain),
            edges: Vec::new(),
            child_tails: BTreeMap::new(),
            last_round: BTreeMap::new(),
        }
    }

    /// Every transaction once, each record as its first reporter sent it,
    /// in the order first seen: the chain the next block is cut from.
    pub fn chain(&self) -> &LinearLedger {
        &self.chain
    }

    /// Highest round incorporated from `child`.
    pub fn last_round_of(&self, child: DomainId) -> u64 {
        self.last_round.get(&child).copied().unwrap_or(0)
    }

    /// Looks up a transaction.
    pub fn get(&self, id: TxId) -> Option<DagEntry<'_>> {
        let i = self.index(id)?;
        let (record, edges) = (&self.chain.entries()[i], &self.edges[i]);
        Some(DagEntry { record, edges })
    }

    /// True if the DAG contains a transaction.
    pub fn contains(&self, id: TxId) -> bool {
        self.chain.contains(id)
    }

    /// Incorporates a verified block received from `child`.
    ///
    /// Cross-domain transactions already present (reported by another child)
    /// are not duplicated; instead the reporting child is recorded and new
    /// dependency edges are added.  Returns the number of records appended
    /// to the chain.
    ///
    /// Fails if the block round is not the next expected round from that
    /// child (parents process child rounds in order; the caller buffers
    /// out-of-order blocks).
    pub fn apply_block(&mut self, child: DomainId, block: &Block) -> Result<usize> {
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

        let (before, first) = (self.chain.len(), self.first());
        for record in &block.txs {
            let tail = self.child_tails.get(&child).copied();
            let position = match self.chain.position(record.tx.id) {
                // Already appended via another child: record the extra
                // reporter and the edge from this child's previous
                // transaction.  An abort reported by any child wins over a
                // speculative commit (deterministic: aborts are sticky).
                Some(position) => {
                    let edges = &mut self.edges[position - first];
                    edges.report(child, tail.filter(|p| *p != position));
                    edges.aborted |= record.status == TxStatus::Aborted;
                    position
                }
                None => {
                    self.edges.push(Edges {
                        parent: tail,
                        spill: None,
                        reporter: child,
                        aborted: false,
                    });
                    self.chain.push(record.clone())
                }
            };
            self.child_tails.insert(child, position);
        }

        self.last_round.insert(child, block.header.id.round);
        Ok(self.chain.len() - before)
    }

    /// Ends the round: cuts the chain's records appended since the last cut
    /// into this domain's next block ([`LinearLedger::cut_block`]).
    pub fn cut_block(&mut self, state_delta: StateDelta) -> Block {
        self.chain.cut_block(state_delta)
    }

    /// Marks a round boundary without cutting a block, for a replica that
    /// sends none ([`LinearLedger::note_round_boundary`]).
    pub fn note_round_boundary(&mut self) {
        self.chain.note_round_boundary();
    }

    /// Discards the oldest records beyond `keep_last` and their edges by the
    /// chain's rule ([`LinearLedger::prune_front`]), never the uncut round.
    /// Round bookkeeping survives, so in-order incorporation continues; edges
    /// into pruned records stop resolving, and dedup becomes window-local —
    /// the price of a resident set bounded by the window, not the run.
    pub fn prune_front(&mut self, keep_last: usize) {
        let dropped = self.chain.prune_front(keep_last, |_| {});
        self.edges.drain(..dropped);
    }

    /// Marks a transaction aborted (e.g. after the LCA detected an ordering
    /// inconsistency).  Returns true if the DAG's verdict changed.
    pub fn mark_aborted(&mut self, id: TxId) -> bool {
        let changed = self
            .get(id)
            .is_some_and(|v| v.status() != TxStatus::Aborted);
        if let Some(i) = self.index(id) {
            self.edges[i].aborted = true;
        }
        changed
    }

    /// Verifies the DAG is acyclic.  Children whose ledgers order two
    /// cross-domain transactions differently would close a cycle; the
    /// optimistic validator aborts such transactions, and tests check this.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over the edges between retained records.
        let parents = self.edges.iter().map(|e| e.parents(self.first()));
        let mut indegree: Vec<usize> = parents.clone().map(Iterator::count).collect();
        let mut children = vec![Vec::new(); self.edges.len()];
        for (child, parents) in parents.enumerate() {
            parents.for_each(|p| children[p].push(child));
        }
        let mut ready: Vec<usize> = (0..indegree.len()).filter(|v| indegree[*v] == 0).collect();
        let mut visited = 0;
        while let Some(v) = ready.pop() {
            visited += 1;
            for &c in &children[v] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(c);
                }
            }
        }
        visited == self.edges.len()
    }

    /// The chain position of the first retained record.
    fn first(&self) -> usize {
        self.chain.pruned_entries() as usize
    }

    /// The index of `id`'s record among the retained ones.
    fn index(&self, id: TxId) -> Option<usize> {
        Some(self.chain.position(id)? - self.first())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::hash::FxHashMap;
    use saguaro_types::{ClientId, MultiSeq, Operation, Transaction};
    use std::collections::BTreeSet;

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
        report(ledger, tx, status);
    }

    fn report(ledger: &mut LinearLedger, tx: Transaction, status: TxStatus) {
        let mut seq = MultiSeq::new();
        seq.set(ledger.domain(), ledger.reserve_seq());
        ledger.append_cross_domain(tx, seq, status);
    }

    fn reporters(dag: &DagLedger, id: u64) -> Vec<DomainId> {
        dag.get(TxId(id)).unwrap().edges.reporters().collect()
    }

    fn parents(dag: &DagLedger, id: u64) -> Vec<TxId> {
        let retained = dag.chain().entries();
        let parents = dag.get(TxId(id)).unwrap().edges.parents(dag.first());
        parents.map(|i| retained[i].tx.id).collect()
    }

    fn has_parent(dag: &DagLedger, id: u64, parent: u64) -> bool {
        parents(dag, id).contains(&TxId(parent))
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
        assert_eq!(dag.chain().len(), 3);
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
        assert_eq!(new0, 2);
        // The cross-domain tx was already present; only tx 2 is new.
        assert_eq!(new1, 1);
        assert_eq!(dag.chain().entries()[2].tx.id, TxId(2));
        assert_eq!(dag.chain().len(), 3);
        // Every domain the transaction involves has reported it.
        assert_eq!(reporters(&dag, 100), vec![d(0), d(1)]);
        assert!(dag.is_acyclic());
        // Dependency edges: tx100 depends on tx1 (order in d0's ledger).
        assert!(has_parent(&dag, 100, 1));
        assert!(has_parent(&dag, 2, 100));
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
        assert_eq!(reporters(&dag, 100), vec![d(0)], "d(1) has not reported");
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
        let vertex = dag.get(TxId(100)).unwrap();
        assert_eq!(vertex.status(), TxStatus::Aborted);
        // The chain keeps the record as first reported.
        assert_eq!(vertex.record.status, TxStatus::SpeculativelyCommitted);
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
        assert!(has_parent(&dag, 2, 1));
        assert!(dag.is_acyclic());
    }

    /// Edges pointing below the prune floor stop resolving, and the chain
    /// keeps the uncut round whatever `keep_last` asks.
    #[test]
    fn pruning_drops_edges_into_pruned_records_and_keeps_the_uncut_round() {
        let mut l0 = LinearLedger::new(d(0));
        let mut dag = DagLedger::for_domain(DomainId::new(2, 0));
        for id in 1..=3 {
            internal(&mut l0, id);
            dag.apply_block(d(0), &l0.cut_block(StateDelta::new()))
                .unwrap();
        }
        dag.prune_front(0);
        assert_eq!(
            dag.chain().len(),
            3,
            "a block-cutting DAG never prunes its uncut round"
        );
        dag.cut_block(StateDelta::new());
        dag.prune_front(1);
        assert_eq!(dag.chain().len(), 1);
        assert!(!dag.contains(TxId(2)));
        assert!(parents(&dag, 3).is_empty());
        assert!(dag.is_acyclic());
    }

    /// A vertex's side record is at most 32 bytes beside the chain's record.
    #[test]
    fn the_edges_beside_a_record_fit_in_32_bytes() {
        assert!(std::mem::size_of::<Edges>() <= 32);
    }

    /// The vertex of an internal transaction allocates nothing beside the
    /// chain, and its record is the block's, not a copy.
    #[test]
    fn an_internal_vertex_is_inline_and_shares_the_blocks_record() {
        let mut l0 = LinearLedger::new(d(0));
        internal(&mut l0, 1);
        internal(&mut l0, 2);
        let block = l0.cut_block(StateDelta::new());
        let mut dag = DagLedger::new();
        assert_eq!(dag.apply_block(d(0), &block).unwrap(), 2);
        let firsts = [None, Some(TxId(1))];
        for (record, parent) in block.txs.iter().zip(firsts) {
            let vertex = dag.get(record.tx.id).unwrap();
            assert!(Transaction::ptr_eq(&record.tx, &vertex.record.tx));
            assert_eq!(*record, *vertex.record);
            assert_eq!(reporters(&dag, record.tx.id.0), vec![d(0)]);
            assert_eq!(parents(&dag, record.tx.id.0).first().copied(), parent);
            assert!(vertex.edges.spill.is_none());
        }
    }

    #[test]
    fn empty_dag_properties() {
        let dag = DagLedger::new();
        assert!(dag.chain().is_empty());
        assert!(dag.is_acyclic());
        assert!(!dag.contains(TxId(1)));
    }

    proptest::proptest! {
        /// The DAG's chain is a linear ledger fed each record the first time
        /// a child reports it: random child blocks — internal transactions,
        /// cross-domain ones reported by one to three children, sticky
        /// aborts, explicit aborts and prunes — cut the same blocks from
        /// both, and the verdicts and reporters follow a plain model.
        #[test]
        fn the_dags_chain_is_a_ledger_of_first_reports(
            steps in proptest::collection::vec((0u8..10, 0u16..3, 0u16..8, 0u64..1000), 0..120),
        ) {
            let me = DomainId::new(2, 0);
            let (mut dag, mut oracle) = (DagLedger::for_domain(me), LinearLedger::new(me));
            let mut children: Vec<LinearLedger> = (0..3).map(|i| LinearLedger::new(d(i))).collect();
            // id -> (reporters since first report, DAG verdict is an abort)
            let mut model: FxHashMap<TxId, (BTreeSet<DomainId>, bool)> = FxHashMap::default();
            let mut next_id = 0u64;
            for (kind, child, arg, pick) in steps {
                let at = usize::from(child);
                match kind {
                    0..=2 => {
                        next_id += 1;
                        internal(&mut children[at], next_id);
                    }
                    3 | 4 => {
                        next_id += 1;
                        let involved: Vec<DomainId> =
                            (0..3).filter(|i| (arg % 7 + 1) >> i & 1 == 1).map(d).collect();
                        let tx = Transaction::cross_domain(
                            TxId(next_id), ClientId(0), involved.clone(), Operation::Noop,
                        );
                        for domain in involved {
                            let status = match (pick + u64::from(domain.index)) % 4 {
                                0 => TxStatus::Aborted,
                                1 => TxStatus::Committed,
                                _ => TxStatus::SpeculativelyCommitted,
                            };
                            report(&mut children[usize::from(domain.index)], tx.clone(), status);
                        }
                    }
                    5 | 6 => {
                        let block = children[at].cut_block(StateDelta::new());
                        dag.apply_block(d(child), &block).unwrap();
                        for record in block.txs.iter() {
                            let aborted = record.status == TxStatus::Aborted;
                            let id = record.tx.id;
                            if !oracle.contains(id) {
                                oracle.append_cross_domain(record.tx.clone(), record.seq.clone(), record.status);
                                model.insert(id, (BTreeSet::new(), false));
                            }
                            let (reporters, verdict) = model.get_mut(&id).unwrap();
                            reporters.insert(d(child));
                            *verdict |= aborted;
                        }
                    }
                    7 => {
                        let (cut, expected) = (dag.cut_block(StateDelta::new()), oracle.cut_block(StateDelta::new()));
                        proptest::prop_assert_eq!(cut.header.digest(), expected.header.digest());
                        proptest::prop_assert_eq!(&cut.txs, &expected.txs);
                    }
                    8 => {
                        let id = TxId(pick % (next_id + 1));
                        dag.mark_aborted(id);
                        if let (true, Some(entry)) = (oracle.contains(id), model.get_mut(&id)) {
                            entry.1 = true;
                        }
                    }
                    _ => {
                        if pick % 2 == 0 {
                            dag.note_round_boundary();
                            oracle.note_round_boundary();
                        }
                        dag.prune_front(usize::from(arg) * 3);
                        oracle.prune_front(usize::from(arg) * 3, |_| {});
                    }
                }
                proptest::prop_assert!(dag.is_acyclic());
                proptest::prop_assert_eq!(dag.chain().entries(), oracle.entries());
                proptest::prop_assert_eq!(dag.chain().pruned_entries(), oracle.pruned_entries());
            }
            for record in oracle.entries() {
                let vertex = dag.get(record.tx.id).unwrap();
                let (reporters, aborted) = &model[&record.tx.id];
                proptest::prop_assert_eq!(&vertex.edges.reporters().collect::<BTreeSet<_>>(), reporters);
                let verdict = if *aborted { TxStatus::Aborted } else { record.status };
                proptest::prop_assert_eq!(vertex.status(), verdict);
            }
        }
    }
}
