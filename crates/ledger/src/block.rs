//! Blocks and committed-transaction records.
//!
//! At the end of each round a height-1 domain packs the transactions it
//! committed in that round into a [`Block`]: the transactions themselves, the
//! Merkle root over them (so a parent can check the content against the
//! header), and the
//! abstracted state delta λ(D_rn − D_rn-1).  Blocks are chained through the
//! `prev` digest, which is what makes the per-domain ledger tamper-evident.

use crate::abstraction::StateDelta;
use saguaro_crypto::sha256::{sha256_parts, Sha256};
use saguaro_crypto::{Digest, MerkleTree};
use saguaro_types::{DomainId, MultiSeq, Operation, Transaction};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Identifier of a block: the producing domain and its round number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Producing domain.
    pub domain: DomainId,
    /// Round number within that domain (1-based; round 0 is the genesis).
    pub round: u64,
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Mirrors the paper's `B13-05` notation.
        write!(
            f,
            "B{}{}-{:02}",
            self.domain.height, self.domain.index, self.round
        )
    }
}

/// Commit status of a transaction in a ledger.
///
/// Under the coordinator-based protocol every appended transaction is
/// `Committed`; under the optimistic protocol transactions are first appended
/// `SpeculativelyCommitted` and may later transition to `Aborted` when an
/// ancestor domain detects an ordering inconsistency.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxStatus {
    /// Final: the transaction is committed.
    Committed,
    /// The transaction was executed optimistically and awaits confirmation by
    /// the LCA of its involved domains.
    SpeculativelyCommitted,
    /// The transaction was aborted (and rolled back).
    Aborted,
}

/// A transaction as recorded in a ledger, together with the sequence
/// number(s) it received.
#[derive(Clone, Debug, PartialEq)]
pub struct CommittedTx {
    /// The transaction.
    pub tx: Transaction,
    /// Its (possibly multi-part) sequence number.
    pub seq: MultiSeq,
    /// Commit status.
    pub status: TxStatus,
}

/// Feeds the canonical encoding of a multi-part sequence number into `h`:
/// the part count, then `(height, index, seq)` per part in domain order.
pub fn absorb_seq(h: &mut Sha256, seq: &MultiSeq) {
    h.update(&(seq.len() as u64).to_be_bytes());
    for (d, s) in seq.iter() {
        let mut part = [0u8; 11];
        part[0] = d.height;
        part[1..3].copy_from_slice(&d.index.to_be_bytes());
        part[3..].copy_from_slice(&s.to_be_bytes());
        h.update(&part);
    }
}

/// Feeds the canonical encoding of an operation into `h`: a variant tag,
/// then the variant's fields — keys length-prefixed, numbers big-endian.
fn absorb_op(h: &mut Sha256, op: &Operation) {
    fn key(h: &mut Sha256, key: &str) {
        h.update(&(key.len() as u64).to_be_bytes());
        h.update(key.as_bytes());
    }
    match op {
        Operation::Transfer { from, to, amount } => {
            h.update(&[1]);
            key(h, from);
            key(h, to);
            h.update(&amount.to_be_bytes());
        }
        Operation::Mint { account, amount } => {
            h.update(&[2]);
            key(h, account);
            h.update(&amount.to_be_bytes());
        }
        Operation::RideTask {
            driver,
            minutes,
            fare,
        } => {
            h.update(&[3]);
            key(h, driver);
            h.update(&minutes.to_be_bytes());
            h.update(&fare.to_be_bytes());
        }
        Operation::Put { key: k, value } => {
            h.update(&[4]);
            key(h, k);
            h.update(&value.to_be_bytes());
        }
        Operation::Get { key: k } => {
            h.update(&[5]);
            key(h, k);
        }
        Operation::Noop => h.update(&[6]),
    }
}

impl CommittedTx {
    /// The record's Merkle leaf: SHA-256 over a tagged binary encoding of
    /// every field, streamed into the hasher without building the encoding
    /// on the heap.
    pub fn leaf_digest(&self) -> Digest {
        let mut h = Sha256::new();
        let mut head = [0u8; 27];
        head[..10].copy_from_slice(b"saguaro-tx");
        head[10..18].copy_from_slice(&self.tx.id.0.to_be_bytes());
        head[18..26].copy_from_slice(&self.tx.client.0.to_be_bytes());
        head[26] = match self.status {
            TxStatus::Committed => 1,
            TxStatus::SpeculativelyCommitted => 2,
            TxStatus::Aborted => 3,
        };
        h.update(&head);
        absorb_seq(&mut h, &self.seq);
        absorb_op(&mut h, &self.tx.op);
        h.finalize()
    }
}

/// Merkle root over the leaf digests of `txs`.
fn tx_root(txs: &[CommittedTx]) -> Digest {
    MerkleTree::from_leaf_digests(txs.iter().map(CommittedTx::leaf_digest).collect()).root()
}

/// Header of a block (what gets signed/certified).
#[derive(Clone, Debug, PartialEq)]
pub struct BlockHeader {
    /// Block identity (producing domain + round).
    pub id: BlockId,
    /// Digest of the previous block of the same domain (`Digest::ZERO` for
    /// the first block).
    pub prev: Digest,
    /// Merkle root over the transactions' leaf digests.
    pub tx_root: Digest,
    /// Number of transactions in the block.
    pub tx_count: usize,
}

impl BlockHeader {
    /// Digest of the header (what signatures and the next block's `prev`
    /// cover).
    pub fn digest(&self) -> Digest {
        sha256_parts(&[
            b"saguaro-block-header",
            &[self.id.domain.height],
            &self.id.domain.index.to_be_bytes(),
            &self.id.round.to_be_bytes(),
            self.prev.as_ref(),
            self.tx_root.as_ref(),
            &(self.tx_count as u64).to_be_bytes(),
        ])
    }
}

/// The contents of a [`Block`].  Reachable only through a shared reference
/// (a `Block` derefs to it), so nothing can change once the block exists.
#[derive(Debug)]
pub struct BlockBody {
    /// The header.
    pub header: BlockHeader,
    /// Transactions committed (or speculatively committed / aborted) in this
    /// round, in ledger order.
    pub txs: Vec<CommittedTx>,
    /// The abstracted state updates of the round (λ applied to the raw
    /// updates).
    pub state_delta: StateDelta,
    /// Memoized [`Block::verify_content`] verdict, shared by every clone.
    verdict: OnceLock<bool>,
}

/// A block produced by a domain at the end of a round.
///
/// The body is immutable and shared: cloning a block (one clone per
/// recipient of a `block` message, per consensus hop, per level of the
/// hierarchy) bumps a reference count, and the content verdict computed by
/// the first holder is read by all the others.  A copy that differs in any
/// member can only come from [`Block::from_parts`], which allocates a new
/// body with no verdict — a tampered twin never inherits one.
#[derive(Clone, Debug)]
pub struct Block {
    body: Arc<BlockBody>,
}

impl Deref for Block {
    type Target = BlockBody;

    fn deref(&self) -> &BlockBody {
        &self.body
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
            || (self.header == other.header
                && self.txs == other.txs
                && self.state_delta == other.state_delta)
    }
}

impl Block {
    /// Builds a block for `domain`'s round `round` from the given transaction
    /// records, chaining it to `prev`.  This is the one place a block's
    /// Merkle tree is built; the block is born verified.
    pub fn build(
        domain: DomainId,
        round: u64,
        prev: Digest,
        txs: Vec<CommittedTx>,
        state_delta: StateDelta,
    ) -> Self {
        let header = BlockHeader {
            id: BlockId { domain, round },
            prev,
            tx_root: tx_root(&txs),
            tx_count: txs.len(),
        };
        Self::with_verdict(header, txs, state_delta, OnceLock::from(true))
    }

    /// Assembles a block from parts that did not come out of
    /// [`Block::build`] — a header and a transaction list received
    /// separately, or a deliberately inconsistent pair in a test.  Nothing
    /// is trusted: the first [`Block::verify_content`] recomputes the root.
    pub fn from_parts(header: BlockHeader, txs: Vec<CommittedTx>, state_delta: StateDelta) -> Self {
        Self::with_verdict(header, txs, state_delta, OnceLock::new())
    }

    fn with_verdict(
        header: BlockHeader,
        txs: Vec<CommittedTx>,
        state_delta: StateDelta,
        verdict: OnceLock<bool>,
    ) -> Self {
        Self {
            body: Arc::new(BlockBody {
                header,
                txs,
                state_delta,
                verdict,
            }),
        }
    }

    /// True if the block carries no transactions (domains still send empty
    /// block messages every round so parents can make progress).
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// True if the transactions hash to the header's Merkle root and the
    /// advertised count matches.  Computed at most once per body.
    pub fn verify_content(&self) -> bool {
        *self.verdict.get_or_init(|| {
            self.txs.len() == self.header.tx_count && tx_root(&self.txs) == self.header.tx_root
        })
    }

    /// Approximate wire size of the block message in bytes.
    pub fn wire_bytes(&self) -> usize {
        // Header ≈ 120 B, each transaction ≈ its payload + 40 B of sequencing
        // metadata, each state-delta entry ≈ 48 B.
        120 + self
            .txs
            .iter()
            .map(|t| t.tx.payload_bytes() + 40)
            .sum::<usize>()
            + self.state_delta.len() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::{ClientId, Operation, TxId};

    fn domain() -> DomainId {
        DomainId::new(1, 0)
    }

    fn committed(id: u64) -> CommittedTx {
        let tx = Transaction::internal(
            TxId(id),
            ClientId(1),
            domain(),
            Operation::Transfer {
                from: format!("a{id}"),
                to: format!("b{id}"),
                amount: 1,
            },
        );
        let mut seq = MultiSeq::new();
        seq.set(domain(), id);
        CommittedTx {
            tx,
            seq,
            status: TxStatus::Committed,
        }
    }

    #[test]
    fn block_id_debug_matches_paper_notation() {
        let id = BlockId {
            domain: DomainId::new(1, 3),
            round: 5,
        };
        assert_eq!(format!("{id:?}"), "B13-05");
    }

    #[test]
    fn build_and_verify_round_trip() {
        let txs = vec![committed(1), committed(2), committed(3)];
        let b = Block::build(domain(), 1, Digest::ZERO, txs, StateDelta::default());
        assert!(!b.is_empty());
        assert_eq!(b.header.tx_count, 3);
        assert!(b.verify_content());
    }

    #[test]
    fn tampering_with_a_transaction_breaks_verification() {
        let txs = vec![committed(1), committed(2)];
        let b = Block::build(domain(), 1, Digest::ZERO, txs, StateDelta::default());
        let mut tampered = b.txs.clone();
        tampered[1].status = TxStatus::Aborted;
        let twin = Block::from_parts(b.header.clone(), tampered, StateDelta::default());
        assert!(!twin.verify_content());
        assert!(b.verify_content(), "the original is untouched");
    }

    #[test]
    fn dropping_a_transaction_breaks_verification() {
        let txs = vec![committed(1), committed(2)];
        let b = Block::build(domain(), 1, Digest::ZERO, txs, StateDelta::default());
        let twin = Block::from_parts(b.header.clone(), b.txs[..1].to_vec(), StateDelta::default());
        assert!(!twin.verify_content());
    }

    #[test]
    fn empty_blocks_are_valid() {
        let b = Block::build(domain(), 4, Digest::ZERO, vec![], StateDelta::default());
        assert!(b.is_empty());
        assert!(b.verify_content());
        assert!(b.wire_bytes() >= 120);
    }

    #[test]
    fn header_digest_changes_with_round_and_prev() {
        let b1 = Block::build(
            domain(),
            1,
            Digest::ZERO,
            vec![committed(1)],
            StateDelta::default(),
        );
        let b2 = Block::build(
            domain(),
            2,
            Digest::ZERO,
            vec![committed(1)],
            StateDelta::default(),
        );
        let b3 = Block::build(
            domain(),
            1,
            b1.header.digest(),
            vec![committed(1)],
            StateDelta::default(),
        );
        assert_ne!(b1.header.digest(), b2.header.digest());
        assert_ne!(b1.header.digest(), b3.header.digest());
    }

    #[test]
    fn wire_size_grows_with_contents() {
        let small = Block::build(
            domain(),
            1,
            Digest::ZERO,
            vec![committed(1)],
            StateDelta::default(),
        );
        let big = Block::build(
            domain(),
            1,
            Digest::ZERO,
            (0..50).map(committed).collect(),
            StateDelta::default(),
        );
        assert!(big.wire_bytes() > small.wire_bytes());
    }
}
