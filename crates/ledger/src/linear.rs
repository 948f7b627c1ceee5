//! The linear ledger of a height-1 (edge-server) domain.
//!
//! "While height-1 domains maintain transactions in linear ledgers,
//! summarized ledgers at higher-level domains are structured as directed
//! acyclic graphs."  The linear ledger is an append-only, totally ordered
//! list of committed transactions; blocks are cut at round boundaries and
//! chained by hash for propagation up the tree.  Above height 1, the
//! [`crate::DagLedger`] keeps one of the records its children reported.

use crate::abstraction::StateDelta;
use crate::block::{Block, CommittedTx, TxStatus};
use saguaro_crypto::Digest;
use saguaro_types::hash::FxHashMap;
use saguaro_types::{DomainId, MultiSeq, SeqNo, Transaction, TxId};

/// The linear, totally ordered ledger of one height-1 domain.
#[derive(Clone, Debug)]
pub struct LinearLedger {
    domain: DomainId,
    /// All entries in commit order.
    entries: Vec<CommittedTx>,
    /// Index from transaction id to position, counted from the first entry
    /// ever appended: `entries[position - pruned]`.
    index: FxHashMap<TxId, usize>,
    /// Sequence number that will be assigned to the next appended transaction.
    next_seq: SeqNo,
    /// Index in `entries` of the first transaction of the current (uncut) round.
    round_start: usize,
    /// Number of blocks already cut.
    rounds_cut: u64,
    /// Digest of the header of the last cut block.
    last_block_digest: Digest,
    /// Entries discarded from the front by [`LinearLedger::prune_front`].
    pruned: usize,
}

impl LinearLedger {
    /// Creates an empty ledger for `domain`.
    pub fn new(domain: DomainId) -> Self {
        Self {
            domain,
            entries: Vec::new(),
            index: FxHashMap::default(),
            next_seq: 1,
            round_start: 0,
            rounds_cut: 0,
            last_block_digest: Digest::ZERO,
            pruned: 0,
        }
    }

    /// The owning domain.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// Number of entries appended so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an internal transaction with the next sequence number and the
    /// given status.  Returns the assigned sequence number.
    pub fn append_internal(&mut self, tx: Transaction, status: TxStatus) -> SeqNo {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut mseq = MultiSeq::new();
        mseq.set(self.domain, seq);
        self.push(CommittedTx {
            tx,
            seq: mseq,
            status,
        });
        seq
    }

    /// Appends a cross-domain transaction carrying its multi-part sequence
    /// number.  The local part must match the next local sequence number; the
    /// caller (the consensus layer) is responsible for having reserved it.
    pub fn append_cross_domain(&mut self, tx: Transaction, seq: MultiSeq, status: TxStatus) {
        if let Some(local) = seq.get(self.domain) {
            self.next_seq = self.next_seq.max(local + 1);
        }
        self.push(CommittedTx { tx, seq, status });
    }

    /// Appends a record as it is.
    pub(crate) fn push(&mut self, entry: CommittedTx) {
        let position = self.pruned + self.entries.len();
        self.index.insert(entry.tx.id, position);
        self.entries.push(entry);
    }

    /// Reserves and returns the next local sequence number without appending
    /// (used when a domain orders a cross-domain transaction before the
    /// commit message arrives).
    pub fn reserve_seq(&mut self) -> SeqNo {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Looks up an entry by transaction id.
    pub fn get(&self, id: TxId) -> Option<&CommittedTx> {
        self.index.get(&id).map(|p| &self.entries[p - self.pruned])
    }

    /// True if the ledger contains the transaction.
    pub fn contains(&self, id: TxId) -> bool {
        self.index.contains_key(&id)
    }

    /// Marks an entry as aborted (optimistic protocol rollback).  Returns
    /// `true` if the entry existed and was not already aborted.
    pub fn mark_aborted(&mut self, id: TxId) -> bool {
        let entry = self.entry_mut(id).filter(|e| e.status != TxStatus::Aborted);
        entry.map(|e| e.status = TxStatus::Aborted).is_some()
    }

    /// Marks a speculatively committed entry as (finally) committed.
    pub fn mark_committed(&mut self, id: TxId) -> bool {
        let entry = self.entry_mut(id);
        let entry = entry.filter(|e| e.status == TxStatus::SpeculativelyCommitted);
        entry.map(|e| e.status = TxStatus::Committed).is_some()
    }

    fn entry_mut(&mut self, id: TxId) -> Option<&mut CommittedTx> {
        let position = self.index.get(&id)?;
        self.entries.get_mut(position - self.pruned)
    }

    /// All entries in ledger order.
    pub fn entries(&self) -> &[CommittedTx] {
        &self.entries
    }

    /// Ends the current round: packs every entry appended since the previous
    /// cut into a [`Block`] chained to the previous block and returns it.  An
    /// empty round produces an empty block ("if a domain has not received any
    /// transaction in that round, it sends an empty block message").
    pub fn cut_block(&mut self, state_delta: StateDelta) -> Block {
        let round = self.rounds_cut + 1;
        let txs = self.entries[self.round_start..].to_vec();
        let block = Block::build(self.domain, round, self.last_block_digest, txs, state_delta);
        self.rounds_cut = round;
        self.round_start = self.entries.len();
        self.last_block_digest = block.header.digest();
        block
    }

    /// Marks a round boundary without building a block: everything appended
    /// so far becomes prunable.  Replicas that never cut blocks — backups,
    /// and root-domain nodes with no parent to send blocks to — call this
    /// before [`LinearLedger::prune_front`]; without it `round_start` never
    /// advances on them and pruning would be a permanent no-op.
    pub fn note_round_boundary(&mut self) {
        self.round_start = self.entries.len();
    }

    /// Discards the oldest entries beyond `keep_last`, never cutting into
    /// the current (uncut) round, passes each discarded entry's id to
    /// `dropped` so the caller can drop any per-transaction side state (undo
    /// records), and returns how many were discarded.  Pruned ids no longer
    /// resolve through `get` / `contains`; only runs with a finite checkpoint
    /// retention window call this, and those accept window-local duplicate
    /// detection in exchange for flat memory.  Positions are counted from the
    /// first entry ever appended, so only the dropped entries' index slots
    /// are touched.
    pub fn prune_front(&mut self, keep_last: usize, mut dropped: impl FnMut(TxId)) -> usize {
        let removable = self
            .round_start
            .min(self.entries.len().saturating_sub(keep_last));
        for entry in self.entries.drain(..removable) {
            self.index.remove(&entry.tx.id);
            dropped(entry.tx.id);
        }
        self.round_start -= removable;
        self.pruned += removable;
        removable
    }

    /// Entries discarded so far by [`LinearLedger::prune_front`].
    pub fn pruned_entries(&self) -> u64 {
        self.pruned as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::{ClientId, Operation};

    fn domain() -> DomainId {
        DomainId::new(1, 0)
    }

    fn tx(id: u64) -> Transaction {
        Transaction::internal(TxId(id), ClientId(0), domain(), Operation::Noop)
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let mut l = LinearLedger::new(domain());
        assert_eq!(l.append_internal(tx(1), TxStatus::Committed), 1);
        assert_eq!(l.append_internal(tx(2), TxStatus::Committed), 2);
        assert_eq!(l.next_seq, 3);
        assert_eq!(l.len(), 2);
        assert!(l.contains(TxId(1)));
        assert!(!l.contains(TxId(9)));
    }

    #[test]
    fn cross_domain_append_advances_sequence() {
        let mut l = LinearLedger::new(domain());
        l.append_internal(tx(1), TxStatus::Committed); // seq 1
        let other = DomainId::new(1, 1);
        let mut seq = MultiSeq::new();
        seq.set(domain(), 2);
        seq.set(other, 7);
        let ctx =
            Transaction::cross_domain(TxId(2), ClientId(0), vec![domain(), other], Operation::Noop);
        l.append_cross_domain(ctx, seq, TxStatus::Committed);
        assert_eq!(l.next_seq, 3);
        assert_eq!(l.get(TxId(2)).unwrap().seq.get(other), Some(7));
    }

    #[test]
    fn reserve_seq_skips_numbers() {
        let mut l = LinearLedger::new(domain());
        assert_eq!(l.reserve_seq(), 1);
        assert_eq!(l.reserve_seq(), 2);
        assert_eq!(l.append_internal(tx(1), TxStatus::Committed), 3);
    }

    #[test]
    fn blocks_chain_and_cover_rounds() {
        let mut l = LinearLedger::new(domain());
        l.append_internal(tx(1), TxStatus::Committed);
        l.append_internal(tx(2), TxStatus::Committed);
        let b1 = l.cut_block(StateDelta::new());
        assert_eq!(b1.header.id.round, 1);
        assert_eq!(b1.txs.len(), 2);
        assert_eq!(b1.header.prev, Digest::ZERO);

        l.append_internal(tx(3), TxStatus::Committed);
        let b2 = l.cut_block(StateDelta::new());
        assert_eq!(b2.header.id.round, 2);
        assert_eq!(b2.txs.len(), 1);
        assert_eq!(b2.header.prev, b1.header.digest());
        assert_eq!(l.rounds_cut, 2);
        assert!(l.entries[l.round_start..].is_empty());
    }

    #[test]
    fn empty_rounds_produce_empty_blocks() {
        let mut l = LinearLedger::new(domain());
        let b = l.cut_block(StateDelta::new());
        assert!(b.is_empty());
        assert!(b.verify_content());
        let b2 = l.cut_block(StateDelta::new());
        assert_eq!(b2.header.prev, b.header.digest());
    }

    #[test]
    fn abort_and_commit_transitions() {
        let mut l = LinearLedger::new(domain());
        l.append_internal(tx(1), TxStatus::SpeculativelyCommitted);
        l.append_internal(tx(2), TxStatus::SpeculativelyCommitted);
        assert!(l.mark_committed(TxId(1)));
        assert!(!l.mark_committed(TxId(1)), "already committed");
        assert!(l.mark_aborted(TxId(2)));
        assert!(!l.mark_aborted(TxId(2)), "already aborted");
        assert!(!l.mark_aborted(TxId(9)), "unknown");
        assert_eq!(l.get(TxId(1)).unwrap().status, TxStatus::Committed);
        assert_eq!(l.get(TxId(2)).unwrap().status, TxStatus::Aborted);
    }

    #[test]
    fn prune_front_bounds_retained_entries_and_preserves_lookups() {
        let mut l = LinearLedger::new(domain());
        for i in 0..20 {
            l.append_internal(tx(i), TxStatus::Committed);
        }
        l.cut_block(StateDelta::new()); // round boundary: all 20 prunable
        let mut pruned = Vec::new();
        assert_eq!(l.prune_front(5, |id| pruned.push(id)), 15);
        assert_eq!(pruned.len(), 15);
        assert_eq!(l.len(), 5);
        assert_eq!(l.pruned_entries(), 15);
        // Retained entries still resolve at their shifted positions.
        assert!(!l.contains(TxId(0)));
        assert!(l.contains(TxId(19)));
        assert_eq!(
            l.get(TxId(19)).unwrap().seq.get(domain()),
            Some(20),
            "sequence numbers survive pruning"
        );
        // Sequence assignment continues unbroken.
        assert_eq!(l.append_internal(tx(99), TxStatus::Committed), 21);
    }

    #[test]
    fn prune_front_never_cuts_into_the_current_round() {
        let mut l = LinearLedger::new(domain());
        l.append_internal(tx(1), TxStatus::Committed);
        l.cut_block(StateDelta::new());
        l.append_internal(tx(2), TxStatus::Committed);
        // Entry 2 belongs to the uncut round: only entry 1 is removable.
        let mut pruned = Vec::new();
        assert_eq!(l.prune_front(0, |id| pruned.push(id)), 1);
        assert_eq!(pruned, vec![TxId(1)]);
        assert_eq!(l.entries[l.round_start..].len(), 1);
        let b = l.cut_block(StateDelta::new());
        assert_eq!(b.txs.len(), 1, "pruning must not eat the pending round");
    }

    #[test]
    fn ledger_is_append_only_in_order() {
        let mut l = LinearLedger::new(domain());
        for i in 0..10 {
            l.append_internal(tx(i), TxStatus::Committed);
        }
        let seqs: Vec<_> = l
            .entries()
            .iter()
            .map(|e| e.seq.get(domain()).unwrap())
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort();
        assert_eq!(seqs, sorted);
    }
}
