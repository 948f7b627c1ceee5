//! The wire messages of a Saguaro deployment.
//!
//! Everything that travels between simulated participants — client requests,
//! internal consensus traffic, the cross-domain prepare / prepared / commit
//! exchange, block propagation, mobile state transfer and the various timers
//! — is a [`SaguaroMsg`].  The [`MessageMeta`] implementation gives the
//! network simulator the wire size and signature count of each message so
//! serialization and verification cost are charged realistically (the paper
//! reports an average message size of 0.2 KB, with much larger block
//! messages).

use crate::command::Cmd;
use saguaro_consensus::ConsensusMsg;
use saguaro_ledger::Block;
use saguaro_net::MessageMeta;
use saguaro_types::{ClientId, DomainId, MultiSeq, SeqNo, Transaction, TxId};

/// A message exchanged between Saguaro participants (or a timer payload).
#[derive(Clone, Debug)]
pub enum SaguaroMsg {
    // ------------------------------------------------------------------
    // Client path
    // ------------------------------------------------------------------
    /// Edge device → primary of a height-1 domain: process this transaction.
    ClientRequest(Transaction),
    /// Height-1 domain → edge device: the transaction was committed (or
    /// aborted).  BFT domains send one reply per node; the client matches
    /// `reply_quorum` of them.
    Reply {
        /// The transaction this reply is for.
        tx_id: TxId,
        /// True if committed, false if aborted.
        committed: bool,
    },

    // ------------------------------------------------------------------
    // Internal consensus
    // ------------------------------------------------------------------
    /// Intra-domain consensus traffic (Paxos or PBFT), wrapped.
    Consensus(ConsensusMsg<Cmd>),

    // ------------------------------------------------------------------
    // Coordinator-based cross-domain protocol (Algorithm 1)
    // ------------------------------------------------------------------
    /// Participant primary → every node of the LCA domain: please coordinate
    /// this cross-domain transaction.
    CrossForward {
        /// The cross-domain transaction.
        tx: Transaction,
    },
    /// LCA primary → every node of each involved domain: prepare `tx` with
    /// coordinator sequence number `coord_seq`.  Carries a certificate of
    /// `cert_sigs` signatures when the LCA domain is Byzantine.
    Prepare {
        /// The cross-domain transaction.
        tx: Transaction,
        /// Coordinator sequence number (nc).
        coord_seq: SeqNo,
        /// Number of signatures in the attached certificate.
        cert_sigs: usize,
    },
    /// Participant primary → every node of the LCA domain: this domain
    /// ordered `tx` locally at `local_seq`.
    PreparedMsg {
        /// The transaction.
        tx_id: TxId,
        /// Coordinator sequence number (nc).
        coord_seq: SeqNo,
        /// Sequence number assigned by the participant (ni).
        local_seq: SeqNo,
        /// The participant domain.
        domain: DomainId,
        /// Number of signatures in the attached certificate.
        cert_sigs: usize,
    },
    /// LCA primary → every node of each involved domain: the verdict on
    /// the current attempt.
    CommitCross {
        /// The transaction.
        tx_id: TxId,
        /// Concatenated per-domain sequence numbers.
        seqs: MultiSeq,
        /// Commit, discard the attempt, or abort for good.
        verdict: Verdict,
        /// Number of signatures in the attached certificate.
        cert_sigs: usize,
    },
    /// Involved domain's primary → LCA replica 0: acknowledgement of the
    /// commit (Algorithm 1, line 21).  It goes to `NodeId::new(lca, 0)`
    /// whatever the LCA's view, so after a view change it reaches a backup
    /// rather than the primary.  Modeled traffic: it is charged to the network
    /// and the receiving CPU, and nothing waits for it (the receiver's
    /// handler is a no-op).
    AckCross {
        /// The transaction.
        tx_id: TxId,
        /// The acknowledging domain.
        domain: DomainId,
    },
    /// Participant node → LCA nodes: where is the commit for this prepared
    /// transaction? (failure handling)
    CommitQuery {
        /// The transaction.
        tx_id: TxId,
        /// The querying domain.
        domain: DomainId,
    },

    // ------------------------------------------------------------------
    // Lazy propagation (Section 5)
    // ------------------------------------------------------------------
    /// Child primary → every node of the parent domain: the block of the
    /// round that just ended (certified by the child domain).
    BlockMsg {
        /// The producing child domain.
        child: DomainId,
        /// The block.
        block: Block,
        /// Number of signatures in the certificate (1 for CFT, 2f+1 for BFT).
        cert_sigs: usize,
    },

    // ------------------------------------------------------------------
    // Optimistic protocol (Section 6)
    // ------------------------------------------------------------------
    /// Initiator primary → every node of every involved domain: process this
    /// cross-domain transaction optimistically.
    OptForward {
        /// The cross-domain transaction.
        tx: Transaction,
    },
    /// Ancestor domain → involved domains: the transaction was found
    /// inconsistent (or missing) and must be aborted, together with its
    /// data-dependent transactions.
    OptAbort {
        /// The aborted transaction.
        tx_id: TxId,
    },
    /// LCA → involved domains: the transaction was committed by every
    /// involved domain.
    OptCommit {
        /// The committed transaction.
        tx_id: TxId,
    },

    // ------------------------------------------------------------------
    // Mobile consensus (Section 7, Algorithm 2)
    // ------------------------------------------------------------------
    /// Remote primary → nodes of the mobile device's local domain (and its
    /// own domain): request the device's state.
    StateQuery {
        /// The roaming device.
        device: ClientId,
        /// The transaction that triggered the query.
        tx: Transaction,
        /// The remote domain asking.
        remote: DomainId,
    },
    /// Local primary → nodes of the remote domain: the device's state.
    StateMsg {
        /// The roaming device.
        device: ClientId,
        /// Extracted state entries.
        entries: Vec<(String, u64)>,
        /// The transaction that triggered the query.
        tx: Transaction,
        /// Number of signatures in the certificate.
        cert_sigs: usize,
    },

    // ------------------------------------------------------------------
    // Timers (delivered back to the node that set them)
    // ------------------------------------------------------------------
    /// End-of-round timer: cut a block and send it to the parent.
    RoundTimer,
    /// Progress timer for the internal consensus (primary suspicion).
    ProgressTimer,
    /// Flush timer for an under-full consensus batch (leader only).
    BatchTimer,
    /// Deadlock/retry timer for a coordinated cross-domain transaction.
    CrossTimeout {
        /// The transaction being coordinated.
        tx_id: TxId,
    },
    /// Client-side timer payload: issue the next request (used by the
    /// workload driver actors in `saguaro-sim`).
    ClientTick,
    /// Participant-side timer: query the coordinator if no commit arrived.
    CommitQueryTimer {
        /// The prepared transaction still missing its commit.
        tx_id: TxId,
    },
    /// Mobile-consensus retry timer: a primary still waiting for a device's
    /// state (queued requests in `pending_mobile`) re-issues the
    /// `StateQuery` — the query or its `StateMsg` answer may have died with
    /// a crashed primary on either side of the hand-off.
    MobileRetryTimer {
        /// The device whose state is still in flight.
        device: ClientId,
    },
}

/// The LCA's word on one attempt at a coordinated cross-domain transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Commit at the carried sequence numbers.
    Commit,
    /// Discard this attempt: a deadlock timeout broke it and a retry prepare
    /// follows.
    Discard,
    /// The coordinator gave up after its retries: the transaction is
    /// aborted for good and its client is told so.
    Abort,
}

impl Verdict {
    /// The verdict an ordered decision announces: commit, or abort for good
    /// (a discard is never ordered).
    pub(crate) fn ordered(commit: bool) -> Self {
        if commit {
            Verdict::Commit
        } else {
            Verdict::Abort
        }
    }
}

impl MessageMeta for SaguaroMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            SaguaroMsg::ClientRequest(tx) => tx.payload_bytes(),
            SaguaroMsg::Reply { .. } => 96,
            SaguaroMsg::Consensus(m) => consensus_bytes(m),
            SaguaroMsg::CrossForward { tx } => tx.payload_bytes() + 48,
            SaguaroMsg::Prepare { tx, cert_sigs, .. } => tx.payload_bytes() + 64 + 40 * cert_sigs,
            SaguaroMsg::PreparedMsg { cert_sigs, .. } => 120 + 40 * cert_sigs,
            SaguaroMsg::CommitCross {
                seqs, cert_sigs, ..
            } => 96 + 16 * seqs.len() + 40 * cert_sigs,
            SaguaroMsg::AckCross { .. } => 96,
            SaguaroMsg::CommitQuery { .. } => 96,
            SaguaroMsg::BlockMsg {
                block, cert_sigs, ..
            } => block.wire_bytes() + 40 * cert_sigs,
            SaguaroMsg::OptForward { tx } => tx.payload_bytes() + 48,
            SaguaroMsg::OptAbort { .. } | SaguaroMsg::OptCommit { .. } => 96,
            SaguaroMsg::StateQuery { tx, .. } => tx.payload_bytes() + 64,
            SaguaroMsg::StateMsg {
                entries, cert_sigs, ..
            } => 128 + entries.len() * 48 + 40 * cert_sigs,
            // Timers never cross the network; size is irrelevant but must be
            // defined.
            SaguaroMsg::RoundTimer
            | SaguaroMsg::ProgressTimer
            | SaguaroMsg::BatchTimer
            | SaguaroMsg::CrossTimeout { .. }
            | SaguaroMsg::ClientTick
            | SaguaroMsg::CommitQueryTimer { .. }
            | SaguaroMsg::MobileRetryTimer { .. } => 0,
        }
    }

    fn signatures(&self) -> usize {
        match self {
            SaguaroMsg::ClientRequest(_) => 1,
            SaguaroMsg::Reply { .. } => 1,
            SaguaroMsg::Consensus(m) => m.signature_count(),
            SaguaroMsg::CrossForward { .. } => 1,
            SaguaroMsg::Prepare { cert_sigs, .. }
            | SaguaroMsg::PreparedMsg { cert_sigs, .. }
            | SaguaroMsg::CommitCross { cert_sigs, .. }
            | SaguaroMsg::BlockMsg { cert_sigs, .. }
            | SaguaroMsg::StateMsg { cert_sigs, .. } => 1 + cert_sigs,
            SaguaroMsg::AckCross { .. }
            | SaguaroMsg::CommitQuery { .. }
            | SaguaroMsg::OptForward { .. }
            | SaguaroMsg::OptAbort { .. }
            | SaguaroMsg::OptCommit { .. }
            | SaguaroMsg::StateQuery { .. } => 1,
            SaguaroMsg::RoundTimer
            | SaguaroMsg::ProgressTimer
            | SaguaroMsg::BatchTimer
            | SaguaroMsg::CrossTimeout { .. }
            | SaguaroMsg::ClientTick
            | SaguaroMsg::CommitQueryTimer { .. }
            | SaguaroMsg::MobileRetryTimer { .. } => 0,
        }
    }

    fn is_state_transfer(&self) -> bool {
        matches!(self, SaguaroMsg::Consensus(m) if m.is_state_transfer())
    }

    /// The equivocating twin of PBFT traffic — see
    /// [`ConsensusMsg::tampered`]; nothing else has a meaningful one.
    fn tampered(&self) -> Option<Self> {
        match self {
            SaguaroMsg::Consensus(m) => m.tampered().map(SaguaroMsg::Consensus),
            _ => None,
        }
    }
}

/// Wire size of intra-domain consensus traffic: a header per message class,
/// the blocks carried, 16 bytes of `(seq, block)` framing per state-reply
/// entry, the snapshot if one is shipped — and 32 bytes of authentication
/// on every message of a Byzantine domain.
pub(crate) fn consensus_bytes(m: &ConsensusMsg<Cmd>) -> usize {
    use saguaro_consensus::{Batch, MsgBody};
    let cmd_bytes = |c: &Cmd| -> usize {
        match c {
            Cmd::ChildBlock { block, .. } => block.wire_bytes(),
            Cmd::MobileInstall { entries, .. } => 200 + entries.len() * 48,
            _ => c
                .transaction()
                .map(|t| t.payload_bytes() + 48)
                .unwrap_or(120),
        }
    };
    // A block costs the sum of its members plus 24 bytes of framing per
    // member beyond the first, so a one-command block (the unbatched
    // configuration) costs exactly what the single-command message did.
    let batch_bytes = |b: &Batch<Cmd>| -> usize {
        b.iter().map(cmd_bytes).sum::<usize>() + 24 * b.len().saturating_sub(1)
    };
    let header = match &m.body {
        MsgBody::Accept { .. } | MsgBody::PrePrepare { .. } => 64,
        MsgBody::Accepted { .. }
        | MsgBody::Learn { .. }
        | MsgBody::Prepare { .. }
        | MsgBody::Commit { .. }
        | MsgBody::Checkpoint { .. }
        | MsgBody::StateRequest { .. } => 80,
        MsgBody::ViewChange { .. } | MsgBody::NewView { .. } => 96,
        MsgBody::StateReply { .. } | MsgBody::SnapshotReply { .. } => 96 + 16 * m.blocks().count(),
    };
    let snapshot = m.snapshot_payload().map_or(0, |s| s.wire_bytes() as usize);
    let authentication = if m.is_byzantine() { 32 } else { 0 };
    header + m.blocks().map(batch_bytes).sum::<usize>() + snapshot + authentication
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_ledger::StateDelta;
    use saguaro_types::Operation;

    fn tx() -> Transaction {
        Transaction::internal(
            TxId(1),
            ClientId(1),
            DomainId::new(1, 0),
            Operation::Transfer {
                from: "acct-0001".into(),
                to: "acct-0002".into(),
                amount: 5,
            },
        )
    }

    #[test]
    fn request_is_about_point_two_kilobytes() {
        let m = SaguaroMsg::ClientRequest(tx());
        let b = m.wire_bytes();
        assert!((150..300).contains(&b), "request size {b}");
        assert_eq!(m.signatures(), 1);
    }

    #[test]
    fn certified_messages_grow_with_signature_count() {
        let small = SaguaroMsg::Prepare {
            tx: tx(),
            coord_seq: 1,
            cert_sigs: 1,
        };
        let big = SaguaroMsg::Prepare {
            tx: tx(),
            coord_seq: 1,
            cert_sigs: 3,
        };
        assert!(big.wire_bytes() > small.wire_bytes());
        assert_eq!(big.signatures(), 4);
    }

    #[test]
    fn block_messages_are_much_larger_than_requests() {
        let block = Block::build(
            DomainId::new(1, 0),
            1,
            saguaro_crypto::Digest::ZERO,
            (0..100)
                .map(|i| saguaro_ledger::CommittedTx {
                    tx: Transaction::internal(
                        TxId(i),
                        ClientId(0),
                        DomainId::new(1, 0),
                        Operation::Noop,
                    ),
                    seq: MultiSeq::from_parts(vec![(DomainId::new(1, 0), i)]),
                    status: saguaro_ledger::TxStatus::Committed,
                })
                .collect(),
            StateDelta::new(),
        );
        let m = SaguaroMsg::BlockMsg {
            child: DomainId::new(1, 0),
            block,
            cert_sigs: 3,
        };
        assert!(m.wire_bytes() > 10 * SaguaroMsg::ClientRequest(tx()).wire_bytes());
    }

    #[test]
    fn timers_are_free() {
        assert_eq!(SaguaroMsg::RoundTimer.wire_bytes(), 0);
        assert_eq!(SaguaroMsg::ProgressTimer.signatures(), 0);
        assert_eq!(SaguaroMsg::ClientTick.wire_bytes(), 0);
    }

    #[test]
    fn consensus_messages_sized_by_protocol() {
        use saguaro_consensus::{Batch, MsgBody};
        use saguaro_types::FailureModel;
        let batch = Batch::single(Cmd::Internal(tx()));
        let paxos = SaguaroMsg::Consensus(ConsensusMsg {
            model: FailureModel::Crash,
            body: MsgBody::Accept {
                view: 0,
                seq: 1,
                batch: batch.clone(),
            },
        });
        let pbft = SaguaroMsg::Consensus(ConsensusMsg {
            model: FailureModel::Byzantine,
            body: MsgBody::PrePrepare {
                view: 0,
                seq: 1,
                batch,
            },
        });
        assert!(paxos.wire_bytes() > 200);
        assert!(pbft.wire_bytes() > paxos.wire_bytes());
        assert_eq!(paxos.signatures(), 0);
        assert_eq!(pbft.signatures(), 1);
    }

    #[test]
    fn batched_accepts_grow_with_members_but_singles_match_legacy_size() {
        use saguaro_consensus::{Batch, MsgBody};
        let accept = |members: Vec<Cmd>| {
            SaguaroMsg::Consensus(ConsensusMsg {
                model: saguaro_types::FailureModel::Crash,
                body: MsgBody::Accept {
                    view: 0,
                    seq: 1,
                    batch: Batch::new(members),
                },
            })
        };
        let one = accept(vec![Cmd::Internal(tx())]);
        let two = accept(vec![Cmd::Internal(tx()), Cmd::Internal(tx())]);
        // One-command blocks cost exactly the member (64 header + member).
        let member_cost = tx().payload_bytes() + 48;
        assert_eq!(one.wire_bytes(), 64 + member_cost);
        assert_eq!(two.wire_bytes(), 64 + 2 * member_cost + 24);
        // Batching amortises: two commands in one block cost less than two
        // separate accepts.
        assert!(two.wire_bytes() < 2 * one.wire_bytes());
    }
    /// Every intra-domain consensus message class of one failure model, in
    /// the payload shapes the wire model distinguishes: a 1-command and a
    /// 3-command block, two-entry votes / logs / replies over those two
    /// blocks, and a snapshot reply (2 accounts, 1 hosted device) with the
    /// same two-entry tail.
    fn consensus_classes(byzantine: bool) -> Vec<(&'static str, ConsensusMsg<Cmd>)> {
        use saguaro_consensus::{Batch, MsgBody};
        use saguaro_types::FailureModel;
        let one = Batch::single(Cmd::Internal(tx()));
        let three = Batch::new(vec![Cmd::Internal(tx()); 3]);
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
        // (class, wire bytes, signatures).  One member command costs
        // 186 + 48 = 234 B; the snapshot 96 + 2 * 24 + 8 = 152 B.
        let crash = [
            ("proposal/1", 298, 0),
            ("proposal/3", 814, 0),
            ("accepted", 80, 0),
            ("learn", 80, 0),
            ("view-change/2", 1080, 0),
            ("new-view/2", 1080, 0),
            ("checkpoint", 80, 0),
            ("state-request", 80, 0),
            ("state-reply/2", 1112, 0),
            ("snapshot-reply/2", 1264, 0),
        ];
        let byzantine = [
            ("proposal/1", 330, 1),
            ("proposal/3", 846, 1),
            ("prepare", 112, 1),
            ("commit", 112, 1),
            ("view-change/2", 1112, 3),
            ("new-view/2", 1112, 3),
            ("checkpoint", 112, 1),
            ("state-request", 112, 1),
            ("state-reply/2", 1144, 3),
            ("snapshot-reply/2", 1296, 3),
        ];
        for (is_byzantine, expected) in [(false, crash), (true, byzantine)] {
            let measured: Vec<(&str, usize, usize)> = consensus_classes(is_byzantine)
                .into_iter()
                .map(|(class, m)| {
                    let m = SaguaroMsg::Consensus(m);
                    (class, m.wire_bytes(), m.signatures())
                })
                .collect();
            assert_eq!(measured, expected, "byzantine = {is_byzantine}");
        }
    }
}
