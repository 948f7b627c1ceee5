//! Leader-based Multi-Paxos: the agreement rule of crash-only domains.
//!
//! The rule follows the viewstamped-replication formulation that production
//! Multi-Paxos deployments use: a stable leader (the *primary* of the
//! current view) assigns consecutive sequence numbers to blocks and drives a
//! single accept round per block; a majority of `f + 1` out of `2f + 1`
//! acceptances commits the block.  When the leader is suspected (progress
//! timeout), the replicas run the view change of [`crate::replica`], which
//! elects the next replica round-robin and carries over every
//! possibly-committed entry.
//!
//! Crash-only nodes never lie, so no signatures are exchanged inside the
//! domain; authentication and certification only matter on the cross-domain
//! paths handled by `saguaro-core`.
//!
//! This module holds only the `Accept` / `Accepted` / `Learn` handlers and
//! the follower's answer to a `NewView`.  They fill the replica's one slot
//! table (an accepted slot is prepared, so it goes into view-change votes)
//! and its buffer of early Learns; everything else a replica does is
//! written once in [`crate::replica`].

use crate::batch::Batch;
use crate::interface::{primary_for_view, Command, Step};
use crate::msg::MsgBody;
use crate::replica::{ConsensusReplica, Slot, Steps};
use saguaro_crypto::Digest;
use saguaro_types::{NodeId, SeqNo};

impl<C: Command> ConsensusReplica<C> {
    /// The leader's normal case for the block it just numbered `seq`.
    pub(crate) fn propose_accept(&mut self, seq: SeqNo, batch: Batch<C>, out: &mut Steps<C>) {
        let view = self.view;
        let mut slot = Slot {
            batch: Some(batch.clone()),
            view,
            prepared: true,
            ..Slot::default()
        };
        slot.votes.insert(&self.replicas, self.me);
        self.slots.insert(seq, slot);
        out.push(Step::Broadcast {
            msg: self.msg(MsgBody::Accept { view, seq, batch }),
        });
        // A domain of a single replica (f = 0) commits immediately.
        self.maybe_commit(seq, out);
    }

    pub(crate) fn on_accept(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        batch: Batch<C>,
        out: &mut Steps<C>,
    ) {
        if view < self.view
            || self.in_view_change
            || from != primary_for_view(view, &self.replicas)
            || seq <= self.checkpoint.stable()
        {
            return;
        }
        // A newer view means we missed a view change; adopt it.
        self.view = view;
        let digest = batch.digest();
        let slot = self.slots.entry(seq).or_default().hold(batch, view);
        slot.prepared = true;
        slot.votes.insert(&self.replicas, self.me);
        out.push(Step::Send {
            to: from,
            msg: self.msg(MsgBody::Accepted { view, seq, digest }),
        });
        // Only an Accept from a buffered Learn's view (or newer) carries the
        // block that view actually chose; an older-view Accept must not be
        // committed under a newer view's Learn.
        if self.pending_learns.get(&seq).is_some_and(|l| view >= *l) {
            self.pending_learns.remove(&seq);
            self.slots.get_mut(&seq).expect("accepted above").committed = true;
            self.drain_deliveries(out);
        }
    }

    pub(crate) fn on_accepted(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        digest: Digest,
        out: &mut Steps<C>,
    ) {
        if view != self.view || !self.is_primary() || self.in_view_change {
            return;
        }
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.digest() != Some(digest) || slot.committed {
            return;
        }
        slot.votes.insert(&self.replicas, from);
        self.maybe_commit(seq, out);
    }

    /// Commits `seq` if a majority accepted it, emitting Learn + deliveries.
    pub(crate) fn maybe_commit(&mut self, seq: SeqNo, out: &mut Steps<C>) {
        let majority = self.quorum.commit_quorum();
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.committed || slot.votes.len() < majority {
            return;
        }
        slot.committed = true;
        let view = self.view;
        out.push(Step::Broadcast {
            msg: self.msg(MsgBody::Learn { view, seq }),
        });
        self.drain_deliveries(out);
    }

    pub(crate) fn on_learn(&mut self, from: NodeId, view: u64, seq: SeqNo, out: &mut Steps<C>) {
        if view < self.view || seq <= self.checkpoint.stable() {
            return;
        }
        // A Learn certifies `seq` is committed at the leader: frontier
        // evidence for the state-transfer gap detector.
        self.checkpoint.note_hint(seq, from);
        match self.slots.get_mut(&seq) {
            // A Learn issued in view v certifies the value *accepted in v*
            // (or re-proposed into a later view).  A slot filled in an older
            // view may hold a deposed leader's divergent proposal — e.g. one
            // it made while partitioned away — so committing it here would
            // fork the log.
            Some(slot) if slot.view >= view => slot.committed = true,
            // Slot missing (Learn overtook its Accept) or stale: remember
            // the commit and apply it when an Accept from the Learn's view
            // (or newer) supplies the certified value.
            _ => {
                let entry = self.pending_learns.entry(seq).or_insert(view);
                *entry = (*entry).max(view);
            }
        }
        self.drain_deliveries(out);
        self.maybe_request_state(out);
    }

    /// A follower's answer to an admitted `NewView`: accept every entry the
    /// new leader re-proposed and catch up to the frontier it advertised.
    pub(crate) fn accept_new_view(
        &mut self,
        from: NodeId,
        view: u64,
        log: Vec<(SeqNo, Batch<C>)>,
        frontier: SeqNo,
        out: &mut Steps<C>,
    ) {
        for (seq, batch) in log {
            let digest = batch.digest();
            self.slots
                .entry(seq)
                .or_default()
                .hold(batch, view)
                .prepared = true;
            out.push(Step::Send {
                to: from,
                msg: self.msg(MsgBody::Accepted { view, seq, digest }),
            });
        }
        // Catch up the commit frontier the leader advertised — but only
        // through entries re-accepted in this very view (the log installed
        // just above).  A slot still holding an *older* view's value may be
        // a deposed leader's divergent proposal; blindly committing it here
        // once forked a recovered replica's log.
        for seq in (self.last_delivered + 1)..=frontier {
            if let Some(slot) = self.slots.get_mut(&seq) {
                if slot.view >= view {
                    slot.committed = true;
                }
            }
        }
        self.drain_deliveries(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ConsensusMsg;
    use crate::replica::testkit::{block, commit_bytes, domain, route, steps_of, Cmd};
    use saguaro_types::FailureModel::Crash;

    fn msg(body: MsgBody<Cmd>) -> ConsensusMsg<Cmd> {
        crate::replica::testkit::msg(Crash, body)
    }

    fn accept(view: u64, seq: SeqNo, cmd: &[u8]) -> ConsensusMsg<Cmd> {
        let batch = block(cmd);
        msg(MsgBody::Accept { view, seq, batch })
    }

    fn delivers(steps: &Steps<Cmd>) -> bool {
        steps.iter().any(|s| matches!(s, Step::Deliver { .. }))
    }

    /// True if `steps` ask `peer` for everything above `above`.
    fn requests_state(steps: &Steps<Cmd>, peer: NodeId, above: SeqNo) -> bool {
        steps.iter().any(|s| match s {
            Step::Send { to, msg } => {
                *to == peer && matches!(msg.body, MsgBody::StateRequest { above: a } if a == above)
            }
            _ => false,
        })
    }

    /// The sequence numbers `steps` broadcast a Learn for.
    fn learned(steps: &Steps<Cmd>) -> Vec<SeqNo> {
        let learn = |s: &Step<Batch<Cmd>, ConsensusMsg<Cmd>>| match s {
            Step::Broadcast { msg } => match msg.body {
                MsgBody::Learn { seq, .. } => Some(seq),
                _ => None,
            },
            _ => None,
        };
        steps.iter().filter_map(learn).collect()
    }

    #[test]
    fn learn_arriving_before_accept_still_commits() {
        let (nodes, mut reps) = domain(Crash, 3);
        // Replica 1 sees the leader's Learn before the Accept it refers to
        // (reordered network).  The commit must be buffered, not dropped.
        let steps = steps_of(|o| {
            reps[1].on_message_into(nodes[0], msg(MsgBody::Learn { view: 0, seq: 1 }), o)
        });
        assert!(!delivers(&steps), "nothing deliverable yet: {steps:?}");
        // The Learn proves seq 1 committed at the leader: the gap asks it
        // for the entry.
        assert!(requests_state(&steps, nodes[0], 0), "{steps:?}");
        let steps = steps_of(|o| reps[1].on_message_into(nodes[0], accept(0, 1, b"ooo"), o));
        assert!(
            steps
                .iter()
                .any(|s| matches!(s, Step::Deliver { seq: 1, .. })),
            "buffered learn was not applied: {steps:?}"
        );
        assert_eq!(reps[1].last_delivered(), 1);
    }

    #[test]
    fn learn_does_not_commit_a_value_accepted_in_an_older_view() {
        // Replica 1 accepted a value from the view-0 leader, then missed the
        // view change.  When the view-1 leader's Learn for the same slot
        // arrives, the locally stored view-0 value may differ from what view
        // 1 chose — committing it would fork the log.  The commit must be
        // buffered until the view-1 Accept supplies the certified value.
        let (nodes, mut reps) = domain(Crash, 3);
        reps[1].on_message_into(nodes[0], accept(0, 1, b"deposed"), &mut Vec::new());
        let steps = steps_of(|o| {
            reps[1].on_message_into(nodes[1], msg(MsgBody::Learn { view: 1, seq: 1 }), o)
        });
        assert!(
            !delivers(&steps),
            "stale slot must not commit under a newer view's Learn: {steps:?}"
        );
        assert_eq!(reps[1].last_delivered(), 0);
        // The view-1 Accept carries what view 1 actually chose; only then
        // does the buffered commit apply — to the certified value.
        let steps = steps_of(|o| reps[1].on_message_into(nodes[1], accept(1, 1, b"chosen"), o));
        let delivered: Vec<&Batch<Cmd>> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Deliver { command, .. } => Some(command),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![&block(b"chosen")]);
    }

    #[test]
    fn buffered_learn_from_newer_view_does_not_commit_an_old_view_accept() {
        let (nodes, mut reps) = domain(Crash, 3);
        // A Learn issued in view 1 overtakes everything else.
        let steps = steps_of(|o| {
            reps[1].on_message_into(nodes[0], msg(MsgBody::Learn { view: 1, seq: 1 }), o)
        });
        assert!(!delivers(&steps), "{steps:?}");
        assert!(requests_state(&steps, nodes[0], 0), "{steps:?}");
        // A stale view-0 Accept for the same seq must not be committed under
        // the newer view's Learn: view 1 may have chosen a different command.
        let steps = steps_of(|o| reps[1].on_message_into(nodes[0], accept(0, 1, b"stale"), o));
        assert!(
            !delivers(&steps),
            "stale accept must not deliver: {steps:?}"
        );
        assert_eq!(reps[1].last_delivered(), 0);
    }

    #[test]
    fn view_change_elects_next_leader_and_preserves_committed_entries() {
        let (nodes, mut reps) = domain(Crash, 3);
        // Commit one command normally.
        let steps = steps_of(|o| reps[0].propose_into(b"committed".to_vec(), o));
        route(&nodes, &mut reps, vec![(0, steps)], &[]);

        // Primary (index 0) goes silent.  Backups time out.
        let vc1 = steps_of(|o| reps[1].on_progress_timeout(o));
        let vc2 = steps_of(|o| reps[2].on_progress_timeout(o));
        let _ = route(&nodes, &mut reps, vec![(1, vc1), (2, vc2)], &[0]);

        // Node 1 is the new primary of view 1.
        assert_eq!(reps[1].view(), 1);
        assert!(reps[1].is_primary());
        assert_eq!(reps[2].view(), 1);
        assert_eq!(reps[1].last_delivered(), 1);

        // New proposals still commit among the live replicas.
        let steps = steps_of(|o| reps[1].propose_into(b"after-vc".to_vec(), o));
        let delivered = route(&nodes, &mut reps, vec![(1, steps)], &[0]);
        assert!(delivered[1].iter().any(|(_, c)| c == b"after-vc"));
        assert!(delivered[2].iter().any(|(_, c)| c == b"after-vc"));
    }

    #[test]
    fn view_change_recovers_uncommitted_accepted_entry() {
        let (nodes, mut reps) = domain(Crash, 3);
        // The primary proposes but only replica 1 receives the Accept (we
        // simulate by delivering manually), then the primary crashes.
        let steps = steps_of(|o| reps[0].propose_into(b"maybe".to_vec(), o));
        // Extract the broadcast Accept and deliver it to replica 1 only.
        let accept = steps
            .iter()
            .find_map(|s| match s {
                Step::Broadcast { msg } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        reps[1].on_message_into(nodes[0], accept, &mut Vec::new());

        // View change without the old primary.
        let vc1 = steps_of(|o| reps[1].on_progress_timeout(o));
        let vc2 = steps_of(|o| reps[2].on_progress_timeout(o));
        let delivered = route(&nodes, &mut reps, vec![(1, vc1), (2, vc2)], &[0]);
        // The possibly-committed entry is re-proposed and commits in view 1.
        assert!(delivered[1].iter().any(|(_, c)| c == b"maybe"));
        assert!(delivered[2].iter().any(|(_, c)| c == b"maybe"));
        assert_eq!(reps[1].view(), 1);
    }

    #[test]
    fn stale_messages_are_ignored() {
        let (nodes, mut reps) = domain(Crash, 3);
        // Move everyone to view 1.
        let vc1 = steps_of(|o| reps[1].on_progress_timeout(o));
        let vc2 = steps_of(|o| reps[2].on_progress_timeout(o));
        route(&nodes, &mut reps, vec![(1, vc1), (2, vc2)], &[0]);
        // A stale Accept from the deposed primary in view 0 is ignored.
        let steps = steps_of(|o| reps[1].on_message_into(nodes[0], accept(0, 9, b"stale"), o));
        assert!(steps.is_empty());
    }

    #[test]
    fn a_proposal_waits_uncommitted_for_its_majority() {
        let (_nodes, mut reps) = domain(Crash, 3);
        reps[0].propose_into(b"a".to_vec(), &mut Vec::new());
        assert_eq!(reps[0].slots.values().filter(|s| !s.committed).count(), 1);
    }

    #[test]
    fn votes_carry_the_full_history_before_the_first_checkpoint() {
        let (nodes, mut reps) = domain(Crash, 3);
        commit_bytes(&nodes, &mut reps, 10, &[]);
        assert_eq!(reps[1].stable_checkpoint(), 0);
        assert_eq!(reps[1].vote_entries(), 10, "no checkpoint below 128");
    }

    #[test]
    fn view_change_reinstall_discards_acks_given_for_a_different_value() {
        // n = 5, majority 3.  The view-0 leader holds acks {r0, r1} for X at
        // seq 1 (uncommitted).  A view change to view 5 (primary r0 again)
        // merges a *different* value Y for seq 1 — prepared in view 3 by a
        // voter — so the reinstall must not count r1's stale ack for X
        // towards committing Y: two fresh acceptances are still required.
        let (nodes, mut reps) = domain(Crash, 5);
        reps[0].propose_into(b"X".to_vec(), &mut Vec::new());
        let accepted = |view, cmd: &[u8]| {
            let digest = block(cmd).digest();
            msg(MsgBody::Accepted {
                view,
                seq: 1,
                digest,
            })
        };
        reps[0].on_message_into(nodes[1], accepted(0, b"X"), &mut Vec::new());
        // Two peers escalate to view 5 carrying Y accepted in view 3; with
        // r0's own echoed vote that is the 3-vote quorum making r0 leader.
        let vote = |entries: Vec<(SeqNo, u64, Batch<Cmd>)>| {
            msg(MsgBody::ViewChange {
                new_view: 5,
                entries,
                last_delivered: 0,
                checkpoint: 0,
            })
        };
        reps[0].on_message_into(nodes[1], vote(vec![(1, 3, block(b"Y"))]), &mut Vec::new());
        let steps = steps_of(|o| reps[0].on_message_into(nodes[2], vote(vec![]), o));
        assert!(steps
            .iter()
            .any(|s| matches!(s, Step::ViewChanged { view: 5, .. })));
        assert_eq!(reps[0].view(), 5);

        // One fresh acceptance of Y: with r1's stale X-ack wrongly retained
        // this would be the "third" ack and commit Y — it must not.
        let steps = steps_of(|o| reps[0].on_message_into(nodes[3], accepted(5, b"Y"), o));
        assert!(
            learned(&steps).is_empty(),
            "Y must not commit on one fresh ack plus a stale ack for X"
        );
        // The second fresh acceptance completes a genuine majority.
        let steps = steps_of(|o| reps[0].on_message_into(nodes[4], accepted(5, b"Y"), o));
        assert_eq!(learned(&steps), [1]);
    }
}
