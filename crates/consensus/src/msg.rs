//! The wire type of intra-domain consensus.
//!
//! One [`ConsensusMsg`] travels inside a domain whichever protocol the
//! domain runs: it names the domain's failure model and carries a
//! [`MsgBody`].  The normal-case bodies are the protocols' own (Paxos
//! `Accept` / `Accepted` / `Learn`, PBFT `PrePrepare` / `Prepare` /
//! `Commit`); view change, checkpointing and state transfer are declared
//! once and used by both.
//!
//! The message also answers, once, what the wire-size and CPU models of the
//! node layers need to know about it — which blocks it carries, whether it
//! ships a snapshot, how many signatures a receiver verifies — so those
//! models are a table over the body plus a constant for the failure model.

use crate::batch::Batch;
use saguaro_crypto::Digest;
use saguaro_types::{FailureModel, SeqNo, StateSnapshot};
use std::sync::Arc;

/// A message exchanged by the replicas of one domain.
#[derive(Clone, Debug, PartialEq)]
pub struct ConsensusMsg<C> {
    /// Failure model of the sending domain, i.e. the protocol the message
    /// belongs to.  A replica ignores messages of the other model (which a
    /// Byzantine peer could fabricate).
    pub model: FailureModel,
    /// What the message says.
    pub body: MsgBody<C>,
}

/// The protocol step a [`ConsensusMsg`] performs.
#[derive(Clone, Debug, PartialEq)]
pub enum MsgBody<C> {
    /// Paxos leader → replicas: accept this block at this sequence number.
    Accept {
        /// Leader's view.
        view: u64,
        /// Sequence number assigned by the leader.
        seq: SeqNo,
        /// The proposed block.
        batch: Batch<C>,
    },
    /// Paxos replica → leader: the block was accepted.
    Accepted {
        /// View in which the block was accepted.
        view: u64,
        /// Sequence number.
        seq: SeqNo,
        /// Digest of the accepted block (sanity check).
        digest: Digest,
    },
    /// Paxos leader → replicas: the block at `seq` is committed.
    Learn {
        /// View.
        view: u64,
        /// Sequence number now committed.
        seq: SeqNo,
    },
    /// PBFT primary → replicas: order `batch` at `seq` in `view`.
    PrePrepare {
        /// View number.
        view: u64,
        /// Assigned sequence number.
        seq: SeqNo,
        /// The proposed block.
        batch: Batch<C>,
    },
    /// PBFT replica → all: I received a matching pre-prepare.
    Prepare {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: SeqNo,
        /// Digest of the block.
        digest: Digest,
    },
    /// PBFT replica → all: I am prepared; commit once 2f + 1 of these are held.
    Commit {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: SeqNo,
        /// Digest of the block.
        digest: Digest,
    },
    /// Replica → all: the primary is suspected; move to `new_view`.
    ViewChange {
        /// The proposed new view.
        new_view: u64,
        /// `(seq, view, block)` for every entry above the sender's stable
        /// checkpoint that the new primary must not lose: every accepted
        /// entry (Paxos), every prepared certificate (PBFT).
        entries: Vec<(SeqNo, u64, Batch<C>)>,
        /// The sender's last executed sequence number (Paxos; PBFT votes
        /// state none and send 0).
        last_delivered: SeqNo,
        /// The sender's stable checkpoint (0 when checkpointing is off):
        /// everything at or below it is quorum-executed and omitted from the
        /// vote, which is what keeps vote payloads bounded.
        checkpoint: SeqNo,
    },
    /// New primary → all: the new view is active with this log suffix.
    NewView {
        /// The new view number.
        view: u64,
        /// Entries the new primary re-proposes.
        log: Vec<(SeqNo, Batch<C>)>,
        /// What the view-change quorum proved executed: the commit frontier
        /// the new leader knows about (Paxos), the checkpoint the log starts
        /// from (PBFT).
        frontier: SeqNo,
    },
    /// Replica → all: this replica has executed through `seq` (periodic
    /// checkpoint announcement; only sent when checkpointing is active).
    Checkpoint {
        /// Executed sequence number.
        seq: SeqNo,
        /// Digest of the block executed at `seq` (modelled, not verified).
        digest: Digest,
    },
    /// Gap-stalled replica → an up-to-date peer: send me every committed
    /// entry above `above` (VR-style state transfer; the
    /// below-low-water-mark catch-up of PBFT).
    StateRequest {
        /// The requester's delivery frontier.
        above: SeqNo,
    },
    /// Up-to-date peer → gap-stalled replica: the missing committed entries
    /// (under PBFT certified as a unit, modelled as one certificate each).
    StateReply {
        /// Committed `(seq, block)` entries, contiguous from `above + 1`.
        entries: Vec<(SeqNo, Batch<C>)>,
        /// The sender's delivery frontier (further evidence for the hint).
        committed_to: SeqNo,
    },
    /// Up-to-date peer → deeply stalled replica whose requested frontier
    /// was pruned away: a materialized (under PBFT checkpoint-certified)
    /// application snapshot plus the short retained tail above it.
    /// Catch-up cost is O(retention) regardless of how far behind the
    /// requester is.
    SnapshotReply {
        /// The responder's snapshot at its snapshot point.
        snapshot: Arc<StateSnapshot>,
        /// Committed `(seq, block)` entries retained above the snapshot,
        /// contiguous from `snapshot.seq + 1`.
        tail: Vec<(SeqNo, Batch<C>)>,
        /// The sender's delivery frontier (further evidence for the hint).
        committed_to: SeqNo,
    },
}

impl<C> ConsensusMsg<C> {
    /// True if the message belongs to a Byzantine domain (PBFT traffic).
    pub fn is_byzantine(&self) -> bool {
        self.model == FailureModel::Byzantine
    }

    /// Every block the message carries: the proposed one, or those of the
    /// vote / log / reply entries.
    pub fn blocks(&self) -> impl Iterator<Item = &Batch<C>> {
        type Carried<'a, C> = (
            Option<&'a Batch<C>>,
            &'a [(SeqNo, u64, Batch<C>)],
            &'a [(SeqNo, Batch<C>)],
        );
        let (proposed, voted, logged): Carried<'_, C> = match &self.body {
            MsgBody::Accept { batch, .. } | MsgBody::PrePrepare { batch, .. } => {
                (Some(batch), &[], &[])
            }
            MsgBody::ViewChange { entries, .. } => (None, entries, &[]),
            MsgBody::NewView { log: entries, .. }
            | MsgBody::StateReply { entries, .. }
            | MsgBody::SnapshotReply { tail: entries, .. } => (None, &[], entries),
            _ => (None, &[], &[]),
        };
        let voted = voted.iter().map(|(_, _, block)| block);
        let logged = logged.iter().map(|(_, block)| block);
        proposed.into_iter().chain(voted).chain(logged)
    }

    /// Number of signatures a receiver has to verify for this message.
    ///
    /// Crash-only domains exchange unsigned messages inside the domain; BFT
    /// messages carry one signature each, plus one certificate per entry of
    /// a view-change vote, a new-view log, a state reply or a snapshot
    /// reply's tail.  Batching does not change the count: a block is
    /// certified as one unit, which is exactly why it amortises the
    /// per-command verification cost.
    pub fn signature_count(&self) -> usize {
        let certificates = match self.body {
            MsgBody::Accept { .. } | MsgBody::PrePrepare { .. } => 0,
            _ => self.blocks().count(),
        };
        match self.model {
            FailureModel::Crash => 0,
            FailureModel::Byzantine => 1 + certificates,
        }
    }

    /// True for the VR-style state-transfer messages (used by the network
    /// statistics to account transfer traffic separately).
    pub fn is_state_transfer(&self) -> bool {
        matches!(self.body, MsgBody::StateRequest { .. }) || self.is_state_reply()
    }

    /// True for a state *reply* — the message whose application is how a
    /// gap-stalled replica catches up (node layers watch for it to record
    /// recovery instants).
    pub fn is_state_reply(&self) -> bool {
        matches!(
            self.body,
            MsgBody::StateReply { .. } | MsgBody::SnapshotReply { .. }
        )
    }

    /// The view campaigned for by a view-change vote (`None` for every other
    /// message) — node layers watch outgoing broadcasts for it to trace the
    /// start of a view change.
    pub fn view_change_view(&self) -> Option<u64> {
        match self.body {
            MsgBody::ViewChange { new_view, .. } => Some(new_view),
            _ => None,
        }
    }

    /// The application snapshot carried by a snapshot-based catch-up reply
    /// (`None` for every other message) — wire-size models charge its
    /// modeled size on top of the per-command terms.
    pub fn snapshot_payload(&self) -> Option<&StateSnapshot> {
        match &self.body {
            MsgBody::SnapshotReply { snapshot, .. } => Some(snapshot),
            _ => None,
        }
    }

    /// Total member commands carried by a state reply (0 for any other
    /// message) — wire-size models charge transfers per carried command.
    pub fn state_reply_commands(&self) -> usize {
        if self.is_state_reply() {
            self.blocks().map(Batch::len).sum()
        } else {
            0
        }
    }

    /// Member commands carried beyond one per block.
    ///
    /// Wire-size models charge a per-member increment on top of the legacy
    /// single-command message size, so an unbatched deployment
    /// (`max_batch = 1`, every block a single command) costs exactly what it
    /// did before batching existed.
    pub fn extra_commands(&self) -> usize {
        self.blocks().map(|b| b.len().saturating_sub(1)).sum()
    }

    /// A Byzantine-equivocating replica's conflicting twin of this message
    /// (`None` where equivocation is meaningless, which includes every
    /// crash-model message):
    ///
    /// * pre-prepare: same `(view, seq)`, different (empty) block, so
    ///   different backups may accept different digests for one slot.
    /// * view-change vote: same view, but the prepared certificates are
    ///   stripped — two recipients see incompatible votes from one replica.
    /// * new-view: same view and checkpoint, but every re-proposed block is
    ///   emptied, so the twin conflicts with any prepared slot.
    pub fn tampered(&self) -> Option<Self> {
        if !self.is_byzantine() {
            return None;
        }
        let body = match &self.body {
            MsgBody::PrePrepare { view, seq, .. } => MsgBody::PrePrepare {
                view: *view,
                seq: *seq,
                batch: Batch::new(Vec::new()),
            },
            MsgBody::ViewChange { new_view, .. } => MsgBody::ViewChange {
                new_view: *new_view,
                entries: Vec::new(),
                last_delivered: 0,
                checkpoint: 0,
            },
            MsgBody::NewView {
                view,
                log,
                frontier,
            } => MsgBody::NewView {
                view: *view,
                log: log
                    .iter()
                    .map(|(seq, _)| (*seq, Batch::new(Vec::new())))
                    .collect(),
                frontier: *frontier,
            },
            _ => return None,
        };
        Some(Self {
            model: self.model,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Msg = ConsensusMsg<Vec<u8>>;

    fn msg(model: FailureModel, body: MsgBody<Vec<u8>>) -> Msg {
        ConsensusMsg { model, body }
    }

    #[test]
    fn signature_counts_differ_between_models() {
        let learn = msg(FailureModel::Crash, MsgBody::Learn { view: 0, seq: 1 });
        let commit = msg(
            FailureModel::Byzantine,
            MsgBody::Commit {
                view: 0,
                seq: 1,
                digest: saguaro_crypto::sha256(b"x"),
            },
        );
        assert_eq!(learn.signature_count(), 0);
        assert_eq!(commit.signature_count(), 1);
        let vote = |model| {
            msg(
                model,
                MsgBody::ViewChange {
                    new_view: 1,
                    entries: vec![
                        (1, 0, Batch::single(b"c".to_vec())),
                        (2, 0, Batch::single(b"d".to_vec())),
                    ],
                    last_delivered: 0,
                    checkpoint: 0,
                },
            )
        };
        assert_eq!(vote(FailureModel::Byzantine).signature_count(), 3);
        assert_eq!(vote(FailureModel::Crash).signature_count(), 0);
    }

    #[test]
    fn extra_commands_counts_members_beyond_one_per_block() {
        let single = msg(
            FailureModel::Crash,
            MsgBody::Accept {
                view: 0,
                seq: 1,
                batch: Batch::single(b"a".to_vec()),
            },
        );
        assert_eq!(single.extra_commands(), 0);
        let triple = msg(
            FailureModel::Byzantine,
            MsgBody::PrePrepare {
                view: 0,
                seq: 1,
                batch: Batch::new(vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]),
            },
        );
        assert_eq!(triple.extra_commands(), 2);
        let learn = msg(FailureModel::Crash, MsgBody::Learn { view: 0, seq: 1 });
        assert_eq!(learn.extra_commands(), 0);
    }

    #[test]
    fn only_byzantine_proposals_votes_and_new_views_have_a_twin() {
        let pre_prepare = |model| {
            msg(
                model,
                MsgBody::PrePrepare {
                    view: 2,
                    seq: 7,
                    batch: Batch::single(b"a".to_vec()),
                },
            )
        };
        assert_eq!(pre_prepare(FailureModel::Crash).tampered(), None);
        let twin = pre_prepare(FailureModel::Byzantine).tampered();
        assert_eq!(
            twin.map(|t| t.body),
            Some(MsgBody::PrePrepare {
                view: 2,
                seq: 7,
                batch: Batch::new(Vec::new()),
            })
        );
        let checkpoint = msg(FailureModel::Byzantine, MsgBody::StateRequest { above: 0 });
        assert_eq!(checkpoint.tampered(), None);
    }
}
