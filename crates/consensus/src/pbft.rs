//! PBFT: the agreement rule of Byzantine domains.
//!
//! Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI'99) with the
//! standard three normal-case phases:
//!
//! 1. the primary assigns a sequence number and broadcasts `pre-prepare`;
//! 2. replicas broadcast `prepare`; a replica is *prepared* once it holds the
//!    pre-prepare and `2f` matching prepares;
//! 3. prepared replicas broadcast `commit`; once `2f + 1` matching commits
//!    are held the request is committed and executed in sequence order.
//!
//! Primary failure is handled by the view change of [`crate::replica`]:
//! replicas that suspect the primary broadcast `view-change` carrying their
//! prepared certificates; the new primary (round-robin) collects `2f + 1` of
//! them and broadcasts `new-view`, re-proposing every prepared request so
//! nothing committed is lost.  Periodic checkpoints garbage-collect the
//! message log.
//!
//! Signatures are modelled at the message-count level (the CPU model charges
//! verification per signature); the state machine itself trusts the adapter
//! to have authenticated senders, mirroring how PBFT uses MACs/signatures.
//!
//! This module holds only the three-phase handlers and the guards a
//! `NewView` must pass.  They fill the replica's one slot table, whose slots
//! may collect votes before their pre-prepare; everything else a replica
//! does is written once in [`crate::replica`].

use crate::batch::Batch;
use crate::interface::{primary_for_view, Command, Step};
use crate::msg::MsgBody;
use crate::replica::{ConsensusReplica, Slot, Steps};
use saguaro_crypto::Digest;
use saguaro_types::{NodeId, SeqNo};

impl<C: Command> ConsensusReplica<C> {
    /// The primary's normal case for the block it just numbered `seq`.
    pub(crate) fn propose_pre_prepare(&mut self, seq: SeqNo, batch: Batch<C>, out: &mut Steps<C>) {
        let view = self.view;
        // The primary's pre-prepare counts as its prepare.
        let slot = self.slots.entry(seq).or_default().hold(batch.clone(), view);
        slot.votes.insert(&self.replicas, self.me);
        out.push(Step::Broadcast {
            msg: self.msg(MsgBody::PrePrepare { view, seq, batch }),
        });
        self.check_prepared(seq, out);
    }

    pub(crate) fn on_pre_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        batch: Batch<C>,
        out: &mut Steps<C>,
    ) {
        if view != self.view
            || self.in_view_change
            || from != primary_for_view(view, &self.replicas)
            || seq <= self.checkpoint.stable()
        {
            return;
        }
        let digest = batch.digest();
        // A Byzantine primary might equivocate: if we already accepted a
        // different digest at this (view, seq), ignore the second one.
        let held = self.slots.get(&seq);
        if held.is_some_and(|s| s.view == view && s.digest().is_some_and(|d| d != digest)) {
            return;
        }
        let slot = self.slots.entry(seq).or_default().hold(batch, view);
        slot.votes.insert(&self.replicas, self.me);
        out.push(Step::Broadcast {
            msg: self.msg(MsgBody::Prepare { view, seq, digest }),
        });
        self.check_prepared(seq, out);
    }

    /// The slot a digest vote for `seq` in `view` counts towards — unless the
    /// vote is stale or names a different block than the slot holds — and the
    /// members whose votes count.
    fn voted_slot(
        &mut self,
        view: u64,
        seq: SeqNo,
        digest: Digest,
    ) -> Option<(&mut Slot<C>, &[NodeId])> {
        if view != self.view || self.in_view_change || seq <= self.checkpoint.stable() {
            return None;
        }
        let slot = self.slots.entry(seq).or_default();
        let names_it = slot.digest().is_none_or(|d| d == digest);
        names_it.then_some((slot, &self.replicas[..]))
    }

    pub(crate) fn on_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        digest: Digest,
        out: &mut Steps<C>,
    ) {
        if let Some((slot, members)) = self.voted_slot(view, seq, digest) {
            slot.votes.insert(members, from);
            self.check_prepared(seq, out);
        }
    }

    /// If the slot just became prepared, cast and broadcast our commit.
    fn check_prepared(&mut self, seq: SeqNo, out: &mut Steps<C>) {
        // The pre-prepare from the primary + 2f prepares; we count distinct
        // prepare senders (including ourselves), so 2f are needed.
        let needed = (2 * self.quorum.f).max(1);
        let (members, me) = (&self.replicas[..], self.me);
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        // Need the pre-prepare (block present) and 2f prepares besides it.
        if slot.commits.contains(members, me) || slot.batch.is_none() || slot.votes.len() < needed {
            return;
        }
        slot.commits.insert(members, me);
        let digest = slot.digest().expect("the slot holds its block");
        let view = self.view;
        out.push(Step::Broadcast {
            msg: self.msg(MsgBody::Commit { view, seq, digest }),
        });
        self.check_committed(seq, out);
    }

    pub(crate) fn on_commit(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        digest: Digest,
        out: &mut Steps<C>,
    ) {
        if let Some((slot, members)) = self.voted_slot(view, seq, digest) {
            slot.commits.insert(members, from);
            self.check_committed(seq, out);
        }
    }

    fn check_committed(&mut self, seq: SeqNo, out: &mut Steps<C>) {
        let needed = self.quorum.commit_quorum();
        let (members, me) = (&self.replicas[..], self.me);
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        // Prepared here (our own commit, cast only on a held block) and 2f + 1.
        if slot.committed || !slot.commits.contains(members, me) || slot.commits.len() < needed {
            return;
        }
        slot.committed = true;
        self.drain_deliveries(out);
    }

    /// The conditions a `NewView` must meet beyond coming from the view's
    /// primary (Paxos has none): a view above the replica's own (entered by
    /// forming it or admitting its `NewView`), none from an equivocating
    /// primary; an admitted one's checkpoint `frontier` is adopted.
    pub(crate) fn admit_new_view(
        &mut self,
        view: u64,
        log: &[(SeqNo, Batch<C>)],
        frontier: SeqNo,
    ) -> bool {
        if view <= self.view {
            return false;
        }
        // Defence against an equivocating new primary: reject a `NewView`
        // that re-proposes a *different* block for a sequence number this
        // replica committed or holds a prepared certificate for — a twin
        // certificate cannot overwrite either.
        let conflicts = log.iter().any(|(seq, batch)| {
            let slot = self.slots.get(seq);
            let slot = slot.filter(|slot| slot.committed || self.prepared(slot));
            slot.is_some_and(|slot| slot.digest().is_some_and(|d| d != batch.digest()))
        });
        if conflicts {
            self.certificate_conflicts += 1;
            return false;
        }
        // The new primary certified this floor with 2f + 1 view-change
        // votes; adopt it.  A replica whose frontier is below the adopted
        // floor is now formally gap-stalled (its missing slots may be
        // garbage-collected everywhere) — the state-transfer request that
        // ends `on_new_view` is what un-sticks it.
        self.checkpoint.adopt_stable(frontier);
        true
    }

    /// A follower's answer to an admitted `NewView`: re-run the prepare
    /// phase for every entry the new primary re-proposed.
    pub(crate) fn prepare_new_view(
        &mut self,
        view: u64,
        log: Vec<(SeqNo, Batch<C>)>,
        out: &mut Steps<C>,
    ) {
        for (seq, batch) in log {
            let digest = batch.digest();
            self.reinstall(seq, batch, view);
            out.push(Step::Broadcast {
                msg: self.msg(MsgBody::Prepare { view, seq, digest }),
            });
            self.check_prepared(seq, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ConsensusMsg;
    use crate::replica::testkit::{block, commit_bytes, domain, route, steps_of, Cmd};
    use saguaro_types::FailureModel::Byzantine;

    fn msg(body: MsgBody<Cmd>) -> ConsensusMsg<Cmd> {
        crate::replica::testkit::msg(Byzantine, body)
    }

    fn pre_prepare(seq: SeqNo, cmd: &[u8]) -> ConsensusMsg<Cmd> {
        let (view, batch) = (0, block(cmd));
        msg(MsgBody::PrePrepare { view, seq, batch })
    }

    fn prepare(seq: SeqNo, cmd: &[u8]) -> ConsensusMsg<Cmd> {
        let (view, digest) = (0, block(cmd).digest());
        msg(MsgBody::Prepare { view, seq, digest })
    }

    #[test]
    fn equivocating_pre_prepare_is_ignored() {
        let (nodes, mut reps) = domain(Byzantine, 4);
        // Deliver a legitimate pre-prepare to replica 1 ...
        reps[1].on_message_into(nodes[0], pre_prepare(1, b"first"), &mut Vec::new());
        // ... then an equivocating one for the same (view, seq).
        let steps = steps_of(|o| reps[1].on_message_into(nodes[0], pre_prepare(1, b"second"), o));
        assert!(steps.is_empty());
    }

    #[test]
    fn equivocating_new_view_cannot_overwrite_prepared_state() {
        let (nodes, mut reps) = domain(Byzantine, 4);
        // Prepare (view 0, seq 1, "good") at replica 2: the pre-prepare from
        // the primary plus prepares from two peers form the certificate.
        reps[2].on_message_into(nodes[0], pre_prepare(1, b"good"), &mut Vec::new());
        for j in [1usize, 3] {
            reps[2].on_message_into(nodes[j], prepare(1, b"good"), &mut Vec::new());
        }
        // The view-1 primary equivocates: its NewView re-proposes a
        // different command for the prepared slot.  The twin is rejected.
        let new_view = |cmd: &[u8]| {
            msg(MsgBody::NewView {
                view: 1,
                log: vec![(1, block(cmd))],
                frontier: 0,
            })
        };
        let steps = steps_of(|o| reps[2].on_message_into(nodes[1], new_view(b"evil"), o));
        assert!(steps.is_empty());
        assert_eq!(reps[2].certificate_conflicts(), 1);
        assert_eq!(reps[2].view(), 0);
        // A NewView consistent with the prepared state is still accepted:
        // rejecting the twin does not burn the view.
        reps[2].on_message_into(nodes[1], new_view(b"good"), &mut Vec::new());
        assert_eq!(reps[2].view(), 1);
        // Only one NewView is ever applied per view.
        assert!(steps_of(|o| reps[2].on_message_into(nodes[1], new_view(b"good"), o)).is_empty());
    }

    #[test]
    fn pre_prepare_from_non_primary_is_rejected() {
        let (nodes, mut reps) = domain(Byzantine, 4);
        let steps = steps_of(|o| reps[2].on_message_into(nodes[1], pre_prepare(1, b"evil"), o));
        assert!(steps.is_empty());
    }

    #[test]
    // Index-based loops mirror the replica-numbering of the scenario.
    #[allow(clippy::needless_range_loop)]
    fn view_change_elects_new_primary_and_preserves_prepared_requests() {
        let (nodes, mut reps) = domain(Byzantine, 4);
        // Commit one request, then let the primary go silent with another
        // request only partially processed.
        let s0 = steps_of(|o| reps[0].propose_into(b"committed".to_vec(), o));
        route(&nodes, &mut reps, vec![(0, s0)], &[]);

        // Prepare (but do not commit) a second request at replicas 1..3 by
        // delivering the pre-prepare and the prepares by hand, discarding the
        // resulting commit broadcasts so the request stays uncommitted.
        for i in 1..4 {
            reps[i].on_message_into(nodes[0], pre_prepare(2, b"prepared-only"), &mut Vec::new());
        }
        for i in 1..4usize {
            for j in 1..4usize {
                if i != j {
                    reps[i].on_message_into(
                        nodes[j],
                        prepare(2, b"prepared-only"),
                        &mut Vec::new(),
                    );
                }
            }
        }

        // Now the primary is suspected; replicas 1-3 time out.
        let vc: Vec<_> = (1..4)
            .map(|i| (i, steps_of(|o| reps[i].on_progress_timeout(o))))
            .collect();
        let delivered = route(&nodes, &mut reps, vc, &[0]);

        // View 1 with primary node 1.
        assert_eq!(reps[1].view(), 1);
        assert!(reps[1].is_primary());
        // The prepared request survives the view change and commits.
        for i in 1..4 {
            assert!(
                delivered[i].iter().any(|(_, c)| c == b"prepared-only"),
                "replica {i} lost the prepared request"
            );
        }

        // The new primary keeps making progress.
        let s1 = steps_of(|o| reps[1].propose_into(b"after-vc".to_vec(), o));
        let delivered = route(&nodes, &mut reps, vec![(1, s1)], &[0]);
        for i in 1..4 {
            assert!(delivered[i].iter().any(|(_, c)| c == b"after-vc"));
        }
    }

    #[test]
    fn bigger_domains_commit_too() {
        // |p| = 7 and 13 are the Figure 13 settings.
        for n in [7, 13] {
            let (nodes, mut reps) = domain(Byzantine, n);
            let delivered = commit_bytes(&nodes, &mut reps, 1, &[]);
            assert!(delivered.iter().all(|d| d.len() == 1), "n={n}");
        }
    }
}
