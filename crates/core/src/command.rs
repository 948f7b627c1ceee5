//! Commands ordered by a domain's internal consensus.
//!
//! Every decision a domain takes — committing an internal transaction,
//! agreeing to participate in a cross-domain transaction, accepting a child
//! block, extracting a mobile device's state — goes through the domain's
//! internal consensus protocol.  This enum is the command type those
//! protocols order.

use saguaro_crypto::sha256::Sha256;
use saguaro_crypto::Digest;
use saguaro_ledger::block::absorb_seq;
use saguaro_ledger::Block;
use saguaro_types::{ClientId, DomainId, MultiSeq, SeqNo, Transaction, TxId};

/// A command ordered by the internal consensus of one domain.
#[derive(Clone, Debug, PartialEq)]
pub enum Cmd {
    /// Commit an internal client transaction (height-1 domains).
    Internal(Transaction),
    /// Coordinator (LCA) domain: agree to coordinate cross-domain transaction
    /// `tx`, assigning it coordinator sequence number `coord_seq`.
    CoordPrepare {
        /// The cross-domain transaction.
        tx: Transaction,
        /// Sequence number assigned by the coordinator primary.
        coord_seq: SeqNo,
    },
    /// Participant domain: agree to order cross-domain transaction `tx`
    /// locally (the *prepared* phase of Algorithm 1).
    CrossPrepare {
        /// The cross-domain transaction.
        tx: Transaction,
        /// The coordinator's sequence number (nc).
        coord_seq: SeqNo,
    },
    /// Coordinator domain: agree that `tx` is committed with the final
    /// multi-part sequence number.
    CoordCommit {
        /// The transaction being committed.
        tx_id: TxId,
        /// Concatenated sequence numbers from every involved domain.
        seqs: MultiSeq,
        /// False when the coordinator decided to abort instead.
        commit: bool,
    },
    /// Participant domain: optimistically order and execute a cross-domain
    /// transaction without coordination (Section 6).
    OptimisticCross(Transaction),
    /// Height-2+ domain: incorporate a block received from a child domain.
    ChildBlock {
        /// The child domain that produced the block.
        child: DomainId,
        /// The block itself.
        block: Block,
    },
    /// Local domain of a mobile device: extract and lock the device's state
    /// (Algorithm 2, `GenerateState`).
    MobileExtract {
        /// The roaming device.
        device: ClientId,
        /// The remote domain that asked for the state.
        remote: DomainId,
        /// The request that triggered the state query (for reply routing).
        trigger: TxId,
    },
    /// Remote domain of a mobile device: install the received state and
    /// commit the triggering transaction.
    MobileInstall {
        /// The roaming device.
        device: ClientId,
        /// The device's state entries as extracted by its local domain.
        entries: Vec<(String, u64)>,
        /// The transaction to execute once the state is installed.
        tx: Transaction,
    },
}

impl Cmd {
    /// The client transaction this command carries, if any.
    pub fn transaction(&self) -> Option<&Transaction> {
        match self {
            Cmd::Internal(tx)
            | Cmd::CoordPrepare { tx, .. }
            | Cmd::CrossPrepare { tx, .. }
            | Cmd::OptimisticCross(tx)
            | Cmd::MobileInstall { tx, .. } => Some(tx),
            _ => None,
        }
    }

    /// The variant's tag byte in the digest encoding.
    fn tag(&self) -> u8 {
        match self {
            Cmd::Internal(_) => 1,
            Cmd::CoordPrepare { .. } => 2,
            Cmd::CrossPrepare { .. } => 3,
            Cmd::CoordCommit { .. } => 4,
            Cmd::OptimisticCross(_) => 5,
            Cmd::ChildBlock { .. } => 6,
            Cmd::MobileExtract { .. } => 7,
            Cmd::MobileInstall { .. } => 8,
        }
    }
}

impl saguaro_consensus::Command for Cmd {
    /// SHA-256 over a tagged binary encoding of the identifying fields —
    /// fixed-width per variant, so it is written into a stack buffer; only
    /// `CoordCommit`'s sequence parts are streamed.
    fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        let mut buf = [0u8; 48];
        buf[..11].copy_from_slice(b"saguaro-cmd");
        buf[11] = self.tag();
        let mut len = 12;
        let mut put = |bytes: &[u8]| {
            buf[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        match self {
            Cmd::Internal(tx) | Cmd::OptimisticCross(tx) => put(&tx.id.0.to_be_bytes()),
            Cmd::CoordPrepare { tx, coord_seq } | Cmd::CrossPrepare { tx, coord_seq } => {
                put(&tx.id.0.to_be_bytes());
                put(&coord_seq.to_be_bytes());
            }
            Cmd::CoordCommit { tx_id, commit, .. } => {
                put(&tx_id.0.to_be_bytes());
                put(&[*commit as u8]);
            }
            Cmd::ChildBlock { child, block } => {
                put(&[child.height]);
                put(&child.index.to_be_bytes());
                put(block.header.digest().as_ref());
            }
            Cmd::MobileExtract {
                device,
                remote,
                trigger,
            } => {
                put(&device.0.to_be_bytes());
                put(&[remote.height]);
                put(&remote.index.to_be_bytes());
                put(&trigger.0.to_be_bytes());
            }
            Cmd::MobileInstall { device, tx, .. } => {
                put(&device.0.to_be_bytes());
                put(&tx.id.0.to_be_bytes());
            }
        }
        h.update(&buf[..len]);
        if let Cmd::CoordCommit { seqs, .. } = self {
            absorb_seq(&mut h, seqs);
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_consensus::Command;
    use saguaro_types::Operation;

    fn tx(id: u64) -> Transaction {
        Transaction::internal(TxId(id), ClientId(0), DomainId::new(1, 0), Operation::Noop)
    }

    #[test]
    fn different_commands_have_different_digests() {
        let a = Cmd::Internal(tx(1));
        let b = Cmd::Internal(tx(2));
        let c = Cmd::OptimisticCross(tx(1));
        let d = Cmd::CoordPrepare {
            tx: tx(1),
            coord_seq: 3,
        };
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), d.digest());
        assert_eq!(a.digest(), Cmd::Internal(tx(1)).digest());
    }

    #[test]
    fn coord_commit_digest_covers_decision() {
        let seqs = MultiSeq::from_parts(vec![(DomainId::new(1, 0), 4)]);
        let commit = Cmd::CoordCommit {
            tx_id: TxId(1),
            seqs: seqs.clone(),
            commit: true,
        };
        let abort = Cmd::CoordCommit {
            tx_id: TxId(1),
            seqs,
            commit: false,
        };
        assert_ne!(commit.digest(), abort.digest());
    }

    #[test]
    fn transaction_accessor() {
        assert!(Cmd::Internal(tx(1)).transaction().is_some());
        assert!(Cmd::CoordCommit {
            tx_id: TxId(1),
            seqs: MultiSeq::new(),
            commit: true
        }
        .transaction()
        .is_none());
    }
}
