//! The DAG-structured summarized ledger of height-2 and above domains.
//!
//! A parent domain receives `block` messages from possibly multiple child
//! domains each round and appends their transactions to its own ledger.
//! Internal transactions of different children are independent and may be
//! ordered arbitrarily, but a cross-domain transaction appears in the blocks
//! of *several* children and "must be appended to the ledger of the parent
//! domain only once".  Whether the children ordered such transactions
//! consistently is checked as each block arrives, from the records'
//! multi-part sequence numbers, by the optimistic validator in
//! `saguaro-core`; it aborts a transaction that closes a cycle.
//!
//! What the domain keeps and forwards is a [`LinearLedger`] of each record
//! as first reported.  The record's status is the verdict: it turns
//! `Aborted` once any child reports an abort or the domain marks it aborted,
//! and never turns back.

use crate::abstraction::StateDelta;
use crate::block::{Block, TxStatus};
use crate::linear::LinearLedger;
use saguaro_types::{DomainId, Result, SaguaroError, TxId};
use std::collections::BTreeMap;

/// The DAG-structured, summarized ledger of a height-2+ domain.
#[derive(Clone, Debug)]
pub struct DagLedger {
    /// Every transaction once, as first reported: the chain this domain
    /// cuts its blocks from, and whose index dedups.
    chain: LinearLedger,
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
            last_round: BTreeMap::new(),
        }
    }

    /// Every transaction once, each record as its first reporter sent it
    /// (turned `Aborted` if the transaction was aborted since), in the order
    /// first seen: the chain the next block is cut from.
    pub fn chain(&self) -> &LinearLedger {
        &self.chain
    }

    /// Highest round incorporated from `child`.
    pub fn last_round_of(&self, child: DomainId) -> u64 {
        self.last_round.get(&child).copied().unwrap_or(0)
    }

    /// True if the DAG contains a transaction.
    pub fn contains(&self, id: TxId) -> bool {
        self.chain.contains(id)
    }

    /// Incorporates a verified block received from `child`.
    ///
    /// A cross-domain transaction already present (reported by another
    /// child) is not duplicated; a report of its abort turns the record
    /// `Aborted`.  Returns the number of records appended to the chain.
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

        let before = self.chain.len();
        for record in &block.txs {
            if !self.chain.contains(record.tx.id) {
                self.chain.push(record.clone());
            } else if record.status == TxStatus::Aborted {
                self.chain.mark_aborted(record.tx.id);
            }
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

    /// Discards the oldest records beyond `keep_last` by the chain's rule
    /// ([`LinearLedger::prune_front`]), never the uncut round.  Round
    /// bookkeeping survives, so in-order incorporation continues; dedup
    /// becomes window-local — the price of a resident set bounded by the
    /// window, not the run.
    pub fn prune_front(&mut self, keep_last: usize) {
        self.chain.prune_front(keep_last, |_| {});
    }

    /// Marks a transaction's record aborted (e.g. after the LCA detected an
    /// ordering inconsistency): the chain, and any block cut from it later,
    /// carry the verdict.  Returns true if the record was not aborted yet.
    pub fn mark_aborted(&mut self, id: TxId) -> bool {
        self.chain.mark_aborted(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::CommittedTx;
    use saguaro_types::hash::FxHashMap;
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
        report(ledger, tx, status);
    }

    fn report(ledger: &mut LinearLedger, tx: Transaction, status: TxStatus) {
        let mut seq = MultiSeq::new();
        seq.set(ledger.domain(), ledger.reserve_seq());
        ledger.append_cross_domain(tx, seq, status);
    }

    fn record(dag: &DagLedger, id: u64) -> &CommittedTx {
        dag.chain().get(TxId(id)).expect("in the chain")
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
        // The record is d(0)'s, the first report.
        assert_eq!(record(&dag, 100).seq.get(d(0)), Some(2));
        assert_eq!(record(&dag, 100).seq.get(d(1)), None);
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
        // header, different body.
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

    /// A first-reported speculative commit turns `Aborted` in the chain on
    /// a second child's aborted report or on `mark_aborted`, once, and no
    /// later report turns it back; the next block cut carries the verdict.
    #[test]
    fn abort_reported_by_any_child_is_sticky() {
        let involved = [d(0), d(1), d(2)];
        let spec = TxStatus::SpeculativelyCommitted;
        let mut children: Vec<LinearLedger> = (0..3).map(|i| LinearLedger::new(d(i))).collect();
        cross(&mut children[0], 100, &involved, spec);
        cross(&mut children[0], 101, &involved, spec);
        cross(&mut children[1], 100, &involved, TxStatus::Aborted);
        cross(&mut children[2], 100, &involved, TxStatus::Committed);
        cross(&mut children[2], 101, &involved, spec);
        let mut dag = DagLedger::new();
        let mut apply = |dag: &mut DagLedger, i: usize| {
            let block = children[i].cut_block(StateDelta::new());
            dag.apply_block(d(i as u16), &block).unwrap()
        };

        assert_eq!(apply(&mut dag, 0), 2);
        assert_eq!(record(&dag, 100).status, spec);
        assert_eq!(apply(&mut dag, 1), 0);
        assert_eq!(record(&dag, 100).status, TxStatus::Aborted);
        assert!(!dag.mark_aborted(TxId(100)), "already aborted");
        assert_eq!(apply(&mut dag, 2), 0);
        assert_eq!(record(&dag, 100).status, TxStatus::Aborted, "turned back");

        assert_eq!(record(&dag, 101).status, spec);
        assert!(dag.mark_aborted(TxId(101)));
        assert!(!dag.mark_aborted(TxId(101)), "turns once");
        assert!(!dag.mark_aborted(TxId(7)), "unknown");
        let block = dag.cut_block(StateDelta::new());
        assert!(block.txs.iter().all(|r| r.status == TxStatus::Aborted));
        // The record stays the first report's in everything but its status.
        assert_eq!(record(&dag, 101).seq.get(d(0)), Some(2));
    }

    /// The chain keeps the uncut round whatever `keep_last` asks.
    #[test]
    fn pruning_keeps_the_uncut_round() {
        let mut l0 = LinearLedger::new(d(0));
        let mut dag = DagLedger::for_domain(DomainId::new(2, 0));
        for id in 1..=3 {
            internal(&mut l0, id);
            dag.apply_block(d(0), &l0.cut_block(StateDelta::new()))
                .unwrap();
        }
        assert_eq!(dag.last_round_of(d(0)), 3);
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
    }

    /// The chain's record is the block's, not a copy.
    #[test]
    fn the_chain_shares_the_blocks_records() {
        let mut l0 = LinearLedger::new(d(0));
        internal(&mut l0, 1);
        internal(&mut l0, 2);
        let block = l0.cut_block(StateDelta::new());
        let mut dag = DagLedger::new();
        assert_eq!(dag.apply_block(d(0), &block).unwrap(), 2);
        for sent in &block.txs {
            let kept = record(&dag, sent.tx.id.0);
            assert!(Transaction::ptr_eq(&sent.tx, &kept.tx));
            assert_eq!(sent, kept);
        }
    }

    #[test]
    fn empty_dag_properties() {
        let dag = DagLedger::new();
        assert!(dag.chain().is_empty());
        assert!(!dag.contains(TxId(1)));
    }

    proptest::proptest! {
        /// The DAG's chain is a linear ledger fed each record the first time
        /// a child reports it and turned `Aborted` by any aborted report or
        /// `mark_aborted`: random child blocks — internal transactions,
        /// cross-domain ones reported by one to three children, aborted
        /// reports, explicit aborts and prunes — cut the same blocks from
        /// both, and every record's status follows a plain model.
        #[test]
        fn the_dags_chain_is_a_ledger_of_first_reports(
            steps in proptest::collection::vec((0u8..10, 0u16..3, 0u16..8, 0u64..1000), 0..120),
        ) {
            let me = DomainId::new(2, 0);
            let (mut dag, mut oracle) = (DagLedger::for_domain(me), LinearLedger::new(me));
            let mut children: Vec<LinearLedger> = (0..3).map(|i| LinearLedger::new(d(i))).collect();
            // id -> the status its chain record must show
            let mut model: FxHashMap<TxId, TxStatus> = FxHashMap::default();
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
                            let id = record.tx.id;
                            if !oracle.contains(id) {
                                oracle.append_cross_domain(record.tx.clone(), record.seq.clone(), record.status);
                                model.insert(id, record.status);
                            } else if record.status == TxStatus::Aborted {
                                oracle.mark_aborted(id);
                                model.insert(id, TxStatus::Aborted);
                            }
                        }
                    }
                    7 => {
                        let (cut, expected) = (dag.cut_block(StateDelta::new()), oracle.cut_block(StateDelta::new()));
                        proptest::prop_assert_eq!(cut.header.digest(), expected.header.digest());
                        proptest::prop_assert_eq!(&cut.txs, &expected.txs);
                    }
                    8 => {
                        let id = TxId(pick % (next_id + 1));
                        let turned = model.get(&id) != Some(&TxStatus::Aborted) && oracle.contains(id);
                        proptest::prop_assert_eq!(dag.mark_aborted(id), turned);
                        oracle.mark_aborted(id);
                        if oracle.contains(id) {
                            model.insert(id, TxStatus::Aborted);
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
                proptest::prop_assert_eq!(dag.chain().entries(), oracle.entries());
                proptest::prop_assert_eq!(dag.chain().pruned_entries(), oracle.pruned_entries());
                for record in dag.chain().entries() {
                    proptest::prop_assert_eq!(record.status, model[&record.tx.id]);
                }
            }
        }
    }
}
