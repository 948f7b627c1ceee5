//! Wire messages of the baseline deployments.

use saguaro_consensus::ConsensusMsg;
use saguaro_net::MessageMeta;
use saguaro_types::{DomainId, SeqNo, Transaction, TxId};

/// Which protocol a baseline deployment runs and which role a node plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineRole {
    /// An AHL shard replica.
    AhlShard,
    /// An AHL reference-committee replica.
    AhlCommittee,
    /// A SharPer shard replica (flattened cross-shard consensus).
    SharperShard,
}

/// Commands ordered by a baseline domain's internal consensus.
#[derive(Clone, Debug, PartialEq)]
pub enum BCmd {
    /// Commit an internal transaction.
    Internal(Transaction),
    /// Reference committee: order a cross-shard transaction (AHL).
    CommitteeOrder(Transaction),
    /// Shard: prepare/lock a cross-shard transaction (AHL 2PC phase 1).
    ShardPrepare(Transaction),
    /// Shard: commit a cross-shard transaction after the decision (AHL 2PC
    /// phase 2) or after flattened consensus (SharPer).
    ShardCommit(Transaction),
}

impl saguaro_consensus::Command for BCmd {
    fn digest(&self) -> saguaro_crypto::Digest {
        let (tag, tx): (&[u8], &Transaction) = match self {
            BCmd::Internal(t) => (b"internal", t),
            BCmd::CommitteeOrder(t) => (b"committee", t),
            BCmd::ShardPrepare(t) => (b"prepare", t),
            BCmd::ShardCommit(t) => (b"commit", t),
        };
        saguaro_crypto::sha256::sha256_parts(&[b"baseline-cmd", tag, &tx.id.0.to_be_bytes()])
    }
}

/// Messages exchanged in a baseline deployment.
#[derive(Clone, Debug)]
pub enum BaselineMsg {
    /// Client → shard primary.
    ClientRequest(Transaction),
    /// Shard/committee → client.
    Reply {
        /// The transaction the reply concerns.
        tx_id: TxId,
        /// Whether it committed.
        committed: bool,
    },
    /// Intra-domain consensus traffic.
    Consensus(ConsensusMsg<BCmd>),

    // ---------------- AHL (reference committee + 2PC) ----------------
    /// Shard primary → committee nodes: coordinate this cross-shard
    /// transaction.
    CrossSubmit {
        /// The cross-shard transaction.
        tx: Transaction,
    },
    /// Committee primary → shard nodes: phase-1 prepare.
    TwoPcPrepare {
        /// The cross-shard transaction.
        tx: Transaction,
        /// Signatures in the attached certificate.
        cert_sigs: usize,
    },
    /// Shard primary → committee nodes: phase-1 vote.
    TwoPcVote {
        /// The transaction voted on.
        tx_id: TxId,
        /// The voting shard.
        domain: DomainId,
        /// Whether the shard can commit.
        ok: bool,
        /// Signatures in the attached certificate.
        cert_sigs: usize,
    },
    /// Committee primary → shard nodes: phase-2 decision.
    TwoPcDecision {
        /// The transaction decided.
        tx_id: TxId,
        /// Commit or abort.
        commit: bool,
        /// Signatures in the attached certificate.
        cert_sigs: usize,
    },

    // ---------------- SharPer (flattened consensus) ----------------
    /// Leader (initiator shard primary) → every node of every involved
    /// shard: accept this cross-shard transaction at this cross-shard
    /// sequence number.
    FlatAccept {
        /// The cross-shard transaction.
        tx: Transaction,
        /// Cross-shard sequence number assigned by the leader.
        seq: SeqNo,
        /// The leader's shard.
        leader_domain: DomainId,
    },
    /// BFT only: every node of every involved shard echoes the accept to
    /// every other node (the all-to-all phase that makes flattened BFT heavy
    /// over wide-area links).
    FlatEcho {
        /// The transaction echoed.
        tx_id: TxId,
        /// The echoing node's shard.
        domain: DomainId,
    },
    /// Node → leader: vote for the accept.
    FlatVote {
        /// The transaction voted for.
        tx_id: TxId,
        /// The voter's shard.
        domain: DomainId,
    },
    /// Leader → every node of every involved shard: the transaction is
    /// committed.
    FlatCommit {
        /// The committed transaction.
        tx_id: TxId,
        /// Signatures in the attached certificate.
        cert_sigs: usize,
    },

    /// Internal progress timer (primary failure handling).
    ProgressTimer,
    /// Flush timer for an under-full consensus batch (leader only).
    BatchTimer,
}

impl MessageMeta for BaselineMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            BaselineMsg::ClientRequest(tx) => tx.payload_bytes(),
            BaselineMsg::Reply { .. } => 96,
            // Flat per-message consensus cost plus a per-member increment for
            // batched blocks (one-command blocks cost the legacy flat size).
            // State-transfer replies are charged per carried command: their
            // size is what scales with the outage being repaired.
            BaselineMsg::Consensus(m) => consensus_wire_bytes(m),
            BaselineMsg::CrossSubmit { tx } => tx.payload_bytes() + 48,
            BaselineMsg::TwoPcPrepare { tx, cert_sigs } => tx.payload_bytes() + 64 + 40 * cert_sigs,
            BaselineMsg::TwoPcVote { cert_sigs, .. } => 112 + 40 * cert_sigs,
            BaselineMsg::TwoPcDecision { cert_sigs, .. } => 96 + 40 * cert_sigs,
            BaselineMsg::FlatAccept { tx, .. } => tx.payload_bytes() + 72,
            BaselineMsg::FlatEcho { .. } | BaselineMsg::FlatVote { .. } => 112,
            BaselineMsg::FlatCommit { cert_sigs, .. } => 96 + 40 * cert_sigs,
            BaselineMsg::ProgressTimer | BaselineMsg::BatchTimer => 0,
        }
    }

    fn signatures(&self) -> usize {
        match self {
            BaselineMsg::Consensus(m) => m.signature_count(),
            BaselineMsg::TwoPcPrepare { cert_sigs, .. }
            | BaselineMsg::TwoPcVote { cert_sigs, .. }
            | BaselineMsg::TwoPcDecision { cert_sigs, .. }
            | BaselineMsg::FlatCommit { cert_sigs, .. } => 1 + cert_sigs,
            BaselineMsg::ProgressTimer | BaselineMsg::BatchTimer => 0,
            _ => 1,
        }
    }

    fn is_state_transfer(&self) -> bool {
        matches!(self, BaselineMsg::Consensus(m) if m.is_state_transfer())
    }

    /// The equivocating twin of PBFT traffic — see
    /// [`ConsensusMsg::tampered`]; nothing else has a meaningful one.
    fn tampered(&self) -> Option<Self> {
        match self {
            BaselineMsg::Consensus(m) => m.tampered().map(BaselineMsg::Consensus),
            _ => None,
        }
    }
}

/// Wire size of intra-shard consensus traffic (also used by the node layer
/// to account state-transfer volume without re-wrapping the message): 240
/// bytes per message, 200 per command beyond one per block and per command
/// of a state reply, the snapshot if one is shipped — and 40 bytes of
/// authentication on every message of a Byzantine shard.
pub(crate) fn consensus_wire_bytes(m: &ConsensusMsg<BCmd>) -> usize {
    let commands = 200 * (m.extra_commands() + m.state_reply_commands());
    let snapshot = m.snapshot_payload().map_or(0, |s| s.wire_bytes() as usize);
    let authentication = if m.is_byzantine() { 40 } else { 0 };
    240 + commands + snapshot + authentication
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_consensus::Command;
    use saguaro_types::{ClientId, Operation};

    fn tx(id: u64) -> Transaction {
        Transaction::internal(TxId(id), ClientId(0), DomainId::new(1, 0), Operation::Noop)
    }

    #[test]
    fn command_digests_distinguish_phases() {
        let a = BCmd::ShardPrepare(tx(1));
        let b = BCmd::ShardCommit(tx(1));
        let c = BCmd::ShardCommit(tx(2));
        assert_ne!(a.digest(), b.digest());
        assert_ne!(b.digest(), c.digest());
    }

    #[test]
    fn message_sizes_are_sane() {
        assert!(BaselineMsg::ClientRequest(tx(1)).wire_bytes() > 100);
        assert!(
            BaselineMsg::TwoPcPrepare {
                tx: tx(1),
                cert_sigs: 3
            }
            .wire_bytes()
                > BaselineMsg::TwoPcPrepare {
                    tx: tx(1),
                    cert_sigs: 1
                }
                .wire_bytes()
        );
        assert_eq!(BaselineMsg::ProgressTimer.wire_bytes(), 0);
    }

    #[test]
    fn batched_consensus_messages_grow_per_extra_member() {
        use saguaro_consensus::{Batch, MsgBody};
        let accept = |members: Vec<BCmd>| {
            BaselineMsg::Consensus(ConsensusMsg {
                model: saguaro_types::FailureModel::Crash,
                body: MsgBody::Accept {
                    view: 0,
                    seq: 1,
                    batch: Batch::new(members),
                },
            })
        };
        let one = accept(vec![BCmd::Internal(tx(1))]);
        let three = accept(vec![
            BCmd::Internal(tx(1)),
            BCmd::Internal(tx(2)),
            BCmd::Internal(tx(3)),
        ]);
        assert_eq!(one.wire_bytes(), 240);
        assert_eq!(three.wire_bytes(), 240 + 2 * 200);
        assert!(three.wire_bytes() < 3 * one.wire_bytes());
    }
    /// Every intra-domain consensus message class of one failure model, in
    /// the payload shapes the wire model distinguishes: a 1-command and a
    /// 3-command block, two-entry votes / logs / replies over those two
    /// blocks, and a snapshot reply (2 accounts, 1 hosted device) with the
    /// same two-entry tail.
    fn consensus_classes(byzantine: bool) -> Vec<(&'static str, ConsensusMsg<BCmd>)> {
        use saguaro_consensus::{Batch, MsgBody};
        use saguaro_types::FailureModel;
        let one = Batch::single(BCmd::Internal(tx(1)));
        let three = Batch::new(vec![BCmd::Internal(tx(1)); 3]);
        let digest = saguaro_crypto::Digest::ZERO;
        let entries = vec![(1, one.clone()), (2, three.clone())];
        let voted = vec![(1, 0, one.clone()), (2, 0, three.clone())];
        let snapshot = std::sync::Arc::new(saguaro_types::StateSnapshot {
            seq: 8,
            accounts: [("a", 1), ("b", 2)].into_iter().collect(),
            hosted: vec![ClientId(7)],
            ..Default::default()
        });
        let (view, seq, committed_to) = (0, 1, 2);
        let (model, mut classes) = if byzantine {
            let classes = vec![
                (
                    "proposal/1",
                    MsgBody::PrePrepare {
                        view,
                        seq,
                        batch: one,
                    },
                ),
                (
                    "proposal/3",
                    MsgBody::PrePrepare {
                        view,
                        seq,
                        batch: three,
                    },
                ),
                ("prepare", MsgBody::Prepare { view, seq, digest }),
                ("commit", MsgBody::Commit { view, seq, digest }),
            ];
            (FailureModel::Byzantine, classes)
        } else {
            let classes = vec![
                (
                    "proposal/1",
                    MsgBody::Accept {
                        view,
                        seq,
                        batch: one,
                    },
                ),
                (
                    "proposal/3",
                    MsgBody::Accept {
                        view,
                        seq,
                        batch: three,
                    },
                ),
                ("accepted", MsgBody::Accepted { view, seq, digest }),
                ("learn", MsgBody::Learn { view, seq }),
            ];
            (FailureModel::Crash, classes)
        };
        classes.extend([
            (
                "view-change/2",
                MsgBody::ViewChange {
                    new_view: 1,
                    entries: voted,
                    last_delivered: 0,
                    checkpoint: 0,
                },
            ),
            (
                "new-view/2",
                MsgBody::NewView {
                    view: 1,
                    log: entries.clone(),
                    frontier: 0,
                },
            ),
            ("checkpoint", MsgBody::Checkpoint { seq, digest }),
            ("state-request", MsgBody::StateRequest { above: 0 }),
            (
                "state-reply/2",
                MsgBody::StateReply {
                    entries: entries.clone(),
                    committed_to,
                },
            ),
            (
                "snapshot-reply/2",
                MsgBody::SnapshotReply {
                    snapshot,
                    tail: entries,
                    committed_to,
                },
            ),
        ]);
        classes
            .into_iter()
            .map(|(class, body)| (class, ConsensusMsg { model, body }))
            .collect()
    }

    #[test]
    fn consensus_wire_model_is_pinned_per_class_and_failure_model() {
        // (class, wire bytes, signatures).  Every command beyond one per
        // block and every command of a state reply costs 200 B; the snapshot
        // 96 + 2 * 24 + 8 = 152 B.
        let crash = [
            ("proposal/1", 240, 0),
            ("proposal/3", 640, 0),
            ("accepted", 240, 0),
            ("learn", 240, 0),
            ("view-change/2", 640, 0),
            ("new-view/2", 640, 0),
            ("checkpoint", 240, 0),
            ("state-request", 240, 0),
            ("state-reply/2", 1440, 0),
            ("snapshot-reply/2", 1592, 0),
        ];
        let byzantine = [
            ("proposal/1", 280, 1),
            ("proposal/3", 680, 1),
            ("prepare", 280, 1),
            ("commit", 280, 1),
            ("view-change/2", 680, 3),
            ("new-view/2", 680, 3),
            ("checkpoint", 280, 1),
            ("state-request", 280, 1),
            ("state-reply/2", 1480, 3),
            ("snapshot-reply/2", 1632, 3),
        ];
        for (is_byzantine, expected) in [(false, crash), (true, byzantine)] {
            let measured: Vec<(&str, usize, usize)> = consensus_classes(is_byzantine)
                .into_iter()
                .map(|(class, m)| {
                    let m = BaselineMsg::Consensus(m);
                    (class, m.wire_bytes(), m.signatures())
                })
                .collect();
            assert_eq!(measured, expected, "byzantine = {is_byzantine}");
        }
    }
}
