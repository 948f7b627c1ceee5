//! Leader-based Multi-Paxos for crash-only domains.
//!
//! The implementation follows the viewstamped-replication formulation that
//! production Multi-Paxos deployments use: a stable leader (the *primary* of
//! the current view) assigns consecutive sequence numbers to commands and
//! drives a single accept round per command; a majority of `f + 1` out of
//! `2f + 1` acceptances commits the command.  When the leader is suspected
//! (progress timeout), replicas run a view change that elects the next
//! replica round-robin and carries over every possibly-committed entry.
//!
//! Crash-only nodes never lie, so no signatures are exchanged inside the
//! domain; authentication and certification only matter on the cross-domain
//! paths handled by `saguaro-core`.

use crate::checkpoint::CheckpointKeeper;
use crate::interface::{primary_for_view, Command, Step};
use saguaro_crypto::Digest;
use saguaro_types::{CheckpointConfig, NodeId, QuorumSpec, SeqNo, StateSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Messages exchanged by Paxos replicas within one domain.
#[derive(Clone, Debug, PartialEq)]
pub enum PaxosMsg<C> {
    /// Leader → replicas: accept this command at this sequence number.
    Accept {
        /// Leader's view.
        view: u64,
        /// Sequence number assigned by the leader.
        seq: SeqNo,
        /// The command.
        cmd: C,
    },
    /// Replica → leader: the command was accepted.
    Accepted {
        /// View in which the command was accepted.
        view: u64,
        /// Sequence number.
        seq: SeqNo,
        /// Digest of the accepted command (sanity check).
        digest: Digest,
    },
    /// Leader → replicas: the command at `seq` is committed.
    Learn {
        /// View.
        view: u64,
        /// Sequence number now committed.
        seq: SeqNo,
    },
    /// Replica → all: start a view change towards `new_view`, carrying every
    /// accepted entry above the sender's stable checkpoint.
    ViewChange {
        /// The proposed new view.
        new_view: u64,
        /// `(seq, view accepted in, command)` for every accepted entry above
        /// the sender's stable checkpoint.
        accepted: Vec<(SeqNo, u64, C)>,
        /// The sender's last executed sequence number.
        last_committed: SeqNo,
        /// The sender's stable checkpoint (0 when checkpointing is off):
        /// everything at or below it is quorum-executed and omitted from the
        /// vote, which is what keeps vote payloads bounded.
        checkpoint: SeqNo,
    },
    /// New leader → replicas: the new view is active with this log suffix.
    NewView {
        /// The new view number.
        view: u64,
        /// Entries (seq, command) the new leader re-proposes.
        log: Vec<(SeqNo, C)>,
        /// Commit frontier the new leader knows about.
        last_committed: SeqNo,
    },
    /// Replica → all: this replica has executed through `seq` (periodic
    /// checkpoint announcement; only sent when checkpointing is active).
    Checkpoint {
        /// Executed sequence number.
        seq: SeqNo,
        /// Digest of the command executed at `seq` (modelled, not verified).
        digest: Digest,
    },
    /// Gap-stalled replica → an up-to-date peer: send me every committed
    /// entry above `above` (VR-style state transfer).
    StateRequest {
        /// The requester's delivery frontier.
        above: SeqNo,
    },
    /// Up-to-date peer → gap-stalled replica: the missing committed entries.
    StateReply {
        /// Committed `(seq, command)` entries, contiguous from `above + 1`.
        entries: Vec<(SeqNo, C)>,
        /// The sender's delivery frontier (further evidence for the hint).
        committed_to: SeqNo,
    },
    /// Up-to-date peer → deeply stalled replica whose requested frontier
    /// was pruned away: a materialized application snapshot plus the short
    /// retained command tail above it.  Catch-up cost is O(retention)
    /// regardless of how far behind the requester is.
    SnapshotReply {
        /// The responder's snapshot at its snapshot point.
        snapshot: Arc<StateSnapshot>,
        /// Committed `(seq, command)` entries retained above the snapshot,
        /// contiguous from `snapshot.seq + 1`.
        tail: Vec<(SeqNo, C)>,
        /// The sender's delivery frontier (further evidence for the hint).
        committed_to: SeqNo,
    },
}

/// Per-sequence bookkeeping at the leader and replicas.
#[derive(Clone, Debug)]
struct Slot<C> {
    cmd: C,
    accepted_in_view: u64,
    /// Replicas (including self) known to have accepted.
    acks: BTreeSet<NodeId>,
    committed: bool,
}

/// One replica's view-change vote: its accepted `(seq, view, command)`
/// entries, its last delivered sequence number and its stable checkpoint.
type ViewChangeVote<C> = (Vec<(SeqNo, u64, C)>, SeqNo, SeqNo);

/// A Multi-Paxos replica.
#[derive(Clone, Debug)]
pub struct PaxosReplica<C> {
    me: NodeId,
    replicas: Vec<NodeId>,
    quorum: QuorumSpec,
    view: u64,
    /// Next sequence number the leader will assign.
    next_seq: SeqNo,
    /// Last sequence delivered to the application (no gaps).
    last_delivered: SeqNo,
    slots: BTreeMap<SeqNo, Slot<C>>,
    /// Learns that arrived before their Accept (out-of-order delivery),
    /// keyed by sequence number, holding the view the Learn was issued in;
    /// applied once an Accept from that view (or newer) creates the slot.
    pending_learns: BTreeMap<SeqNo, u64>,
    /// View-change votes collected per proposed view.
    view_change_votes: BTreeMap<u64, BTreeMap<NodeId, ViewChangeVote<C>>>,
    /// Replicas caught sending two *conflicting* view-change votes for the
    /// same view.  Paxos assumes crash faults, but the defence is shared
    /// with PBFT so a misbehaving (or misconfigured) replica cannot poison
    /// the new leader's merge: both votes are discarded and the sender is
    /// ignored for that view.
    vc_tainted: BTreeMap<u64, BTreeSet<NodeId>>,
    /// Conflicting view-change certificates detected and discarded.
    certificate_conflicts: u64,
    /// True while a view change is in progress (stop accepting in old view).
    in_view_change: bool,
    /// Highest view this replica has voted a view change towards.  Repeated
    /// progress timeouts escalate past it, so a view whose would-be leader
    /// is itself crashed cannot wedge the domain.
    highest_vc: u64,
    /// Checkpoint agreement, state-transfer pacing and the durable chain.
    /// Under the legacy configuration (the default) Paxos keeps no
    /// checkpoints, votes carry the full slot history, and the pipeline is
    /// bit-identical to the pre-subsystem engine.
    checkpoint: CheckpointKeeper<C>,
}

impl<C: Command> PaxosReplica<C> {
    /// Creates a replica.  `replicas` must be the same (sorted) list on every
    /// member of the domain.
    pub fn new(me: NodeId, mut replicas: Vec<NodeId>, quorum: QuorumSpec) -> Self {
        replicas.sort();
        Self {
            me,
            replicas,
            quorum,
            view: 0,
            next_seq: 1,
            last_delivered: 0,
            slots: BTreeMap::new(),
            pending_learns: BTreeMap::new(),
            view_change_votes: BTreeMap::new(),
            vc_tainted: BTreeMap::new(),
            certificate_conflicts: 0,
            in_view_change: false,
            highest_vc: 0,
            checkpoint: CheckpointKeeper::new(CheckpointConfig::legacy(), None),
        }
    }

    /// Replaces the checkpoint / state-transfer configuration (builder
    /// style; Paxos has no legacy interval, so `legacy` keeps it off).
    pub fn with_checkpointing(mut self, config: CheckpointConfig) -> Self {
        self.checkpoint = CheckpointKeeper::new(config, None);
        self
    }

    /// The current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The primary (leader) of the current view.
    pub fn primary(&self) -> NodeId {
        primary_for_view(self.view, &self.replicas)
    }

    /// True if this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.primary() == self.me
    }

    /// Last sequence number delivered to the application.
    pub fn last_delivered(&self) -> SeqNo {
        self.last_delivered
    }

    /// Number of commands accepted but not yet delivered.
    pub fn backlog(&self) -> usize {
        self.slots.values().filter(|s| !s.committed).count()
    }

    /// The last stable (quorum-certified executed) checkpoint; 0 when
    /// checkpointing is off.
    pub fn stable_checkpoint(&self) -> SeqNo {
        self.checkpoint.stable()
    }

    /// Number of slots currently retained (bounded by checkpoint GC).
    pub fn log_len(&self) -> usize {
        self.slots.len()
    }

    /// Number of entries a view-change vote sent right now would carry —
    /// the slots above the stable checkpoint.
    pub fn vote_entries(&self) -> usize {
        let stable = self.checkpoint.stable();
        self.slots.keys().filter(|seq| **seq > stable).count()
    }

    /// Number of delivered entries retained in the durable chain.
    pub fn chain_len(&self) -> u64 {
        self.checkpoint.chain_len()
    }

    /// First sequence number still retained in the durable chain
    /// (`last_delivered + 1` when nothing is retained).
    pub fn chain_start(&self) -> SeqNo {
        self.checkpoint.chain_start(self.last_delivered)
    }

    /// The snapshot point currently held, if any.
    pub fn snapshot_seq(&self) -> Option<SeqNo> {
        self.checkpoint.snapshot_seq()
    }

    /// Hands the keeper the application snapshot the adapter materialized
    /// in response to a [`Step::TakeSnapshot`] (or obtained out of band).
    pub fn store_snapshot(&mut self, snapshot: Arc<StateSnapshot>) {
        self.checkpoint
            .store_snapshot(snapshot, self.replicas.len());
    }

    fn majority(&self) -> usize {
        self.quorum.commit_quorum()
    }

    /// Proposes a command.  Only the primary drives consensus; a backup
    /// returns a `Send` step forwarding the command is the caller's job (the
    /// adapter forwards client requests to the primary).
    pub fn propose(&mut self, cmd: C) -> Vec<Step<C, PaxosMsg<C>>> {
        if !self.is_primary() || self.in_view_change {
            return Vec::new();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut slot = Slot {
            cmd: cmd.clone(),
            accepted_in_view: self.view,
            acks: BTreeSet::new(),
            committed: false,
        };
        slot.acks.insert(self.me);
        self.slots.insert(seq, slot);
        let mut steps = vec![Step::Broadcast {
            msg: PaxosMsg::Accept {
                view: self.view,
                seq,
                cmd,
            },
        }];
        // A domain of a single replica (f = 0) commits immediately.
        steps.extend(self.maybe_commit(seq));
        steps
    }

    /// Handles a protocol message from a peer replica.
    pub fn on_message(&mut self, from: NodeId, msg: PaxosMsg<C>) -> Vec<Step<C, PaxosMsg<C>>> {
        match msg {
            PaxosMsg::Accept { view, seq, cmd } => self.on_accept(from, view, seq, cmd),
            PaxosMsg::Accepted { view, seq, digest } => self.on_accepted(from, view, seq, digest),
            PaxosMsg::Learn { view, seq } => self.on_learn(from, view, seq),
            PaxosMsg::ViewChange {
                new_view,
                accepted,
                last_committed,
                checkpoint,
            } => self.on_view_change(from, new_view, accepted, last_committed, checkpoint),
            PaxosMsg::NewView {
                view,
                log,
                last_committed,
            } => self.on_new_view(from, view, log, last_committed),
            PaxosMsg::Checkpoint { seq, digest } => self.on_checkpoint(from, seq, digest),
            PaxosMsg::StateRequest { above } => self.on_state_request(from, above),
            PaxosMsg::StateReply {
                entries,
                committed_to,
            } => self.on_state_transfer(from, None, entries, committed_to),
            PaxosMsg::SnapshotReply {
                snapshot,
                tail,
                committed_to,
            } => self.on_state_transfer(from, Some(snapshot), tail, committed_to),
        }
    }

    fn on_accept(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        cmd: C,
    ) -> Vec<Step<C, PaxosMsg<C>>> {
        if view < self.view
            || self.in_view_change
            || from != primary_for_view(view, &self.replicas)
            || seq <= self.checkpoint.stable()
        {
            return Vec::new();
        }
        if view > self.view {
            // We missed a view change; adopt the newer view.
            self.view = view;
            self.in_view_change = false;
        }
        let digest = cmd.digest();
        let slot = self.slots.entry(seq).or_insert_with(|| Slot {
            cmd: cmd.clone(),
            accepted_in_view: view,
            acks: BTreeSet::new(),
            committed: false,
        });
        slot.cmd = cmd;
        slot.accepted_in_view = view;
        slot.acks.insert(self.me);
        let mut steps = vec![Step::Send {
            to: from,
            msg: PaxosMsg::Accepted { view, seq, digest },
        }];
        if let Some(&learn_view) = self.pending_learns.get(&seq) {
            // Only an Accept from the Learn's view (or newer) carries the
            // command that view actually chose; an older-view Accept must
            // not be committed under a newer view's Learn.
            if view >= learn_view {
                self.pending_learns.remove(&seq);
                if let Some(slot) = self.slots.get_mut(&seq) {
                    slot.committed = true;
                }
                steps.extend(self.drain_deliveries());
            }
        }
        steps
    }

    fn on_accepted(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        digest: Digest,
    ) -> Vec<Step<C, PaxosMsg<C>>> {
        if view != self.view || !self.is_primary() || self.in_view_change {
            return Vec::new();
        }
        let Some(slot) = self.slots.get_mut(&seq) else {
            return Vec::new();
        };
        if slot.cmd.digest() != digest || slot.committed {
            return Vec::new();
        }
        slot.acks.insert(from);
        self.maybe_commit(seq)
    }

    /// Commits `seq` if a majority accepted it, emitting Learn + deliveries.
    fn maybe_commit(&mut self, seq: SeqNo) -> Vec<Step<C, PaxosMsg<C>>> {
        let majority = self.majority();
        let view = self.view;
        let Some(slot) = self.slots.get_mut(&seq) else {
            return Vec::new();
        };
        if slot.committed || slot.acks.len() < majority {
            return Vec::new();
        }
        slot.committed = true;
        let mut steps = vec![Step::Broadcast {
            msg: PaxosMsg::Learn { view, seq },
        }];
        steps.extend(self.drain_deliveries());
        steps
    }

    fn on_learn(&mut self, from: NodeId, view: u64, seq: SeqNo) -> Vec<Step<C, PaxosMsg<C>>> {
        if view < self.view || seq <= self.checkpoint.stable() {
            return Vec::new();
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
            Some(slot) if slot.accepted_in_view >= view => slot.committed = true,
            // Slot missing (Learn overtook its Accept) or stale: remember
            // the commit and apply it when an Accept from the Learn's view
            // (or newer) supplies the certified value.
            _ => {
                let entry = self.pending_learns.entry(seq).or_insert(view);
                *entry = (*entry).max(view);
            }
        }
        let mut steps = self.drain_deliveries();
        steps.extend(self.maybe_request_state());
        steps
    }

    /// Emits `Deliver` steps for every committed command that directly follows
    /// the last delivered sequence number, retaining each in the durable
    /// chain and announcing periodic checkpoints when configured.
    fn drain_deliveries(&mut self) -> Vec<Step<C, PaxosMsg<C>>> {
        let mut steps = Vec::new();
        loop {
            let next = self.last_delivered + 1;
            match self.slots.get(&next) {
                Some(slot) if slot.committed => {
                    let command = slot.cmd.clone();
                    self.deliver(next, command, &mut steps);
                }
                _ => break,
            }
        }
        steps
    }

    /// Delivers the entry at `seq` (the next one in order): emits the step,
    /// retains the entry for state transfer and announces a checkpoint at
    /// interval boundaries.
    fn deliver(&mut self, seq: SeqNo, command: C, steps: &mut Vec<Step<C, PaxosMsg<C>>>) {
        steps.push(Step::Deliver {
            seq,
            command: command.clone(),
        });
        self.last_delivered = seq;
        let announce = self.checkpoint.announces_at(seq).then(|| command.digest());
        self.checkpoint.retain(seq, command);
        if let Some(digest) = announce {
            steps.push(Step::Broadcast {
                msg: PaxosMsg::Checkpoint { seq, digest },
            });
            if self.checkpoint.prunes() {
                // The adapter materializes its state as of this point in
                // the stream and hands it back via `store_snapshot`.
                steps.push(Step::TakeSnapshot { seq });
            }
            let majority = self.majority();
            if self
                .checkpoint
                .record_vote(self.me, seq, majority, self.last_delivered)
            {
                self.gc_below_stable();
            }
        }
    }

    /// Garbage-collects every slot at or below the stable checkpoint.  Safe
    /// because stabilisation requires this replica to have executed the
    /// floor: everything dropped has already been delivered locally.
    fn gc_below_stable(&mut self) {
        let stable = self.checkpoint.stable();
        self.slots.retain(|seq, _| *seq > stable);
        self.pending_learns.retain(|seq, _| *seq > stable);
        self.checkpoint.prune_entry_state(self.replicas.len());
    }

    fn on_checkpoint(
        &mut self,
        from: NodeId,
        seq: SeqNo,
        _digest: Digest,
    ) -> Vec<Step<C, PaxosMsg<C>>> {
        // An announced floor proves `seq` is committed at the announcer.
        self.checkpoint.note_hint(seq, from);
        let majority = self.majority();
        if self
            .checkpoint
            .record_vote(from, seq, majority, self.last_delivered)
        {
            self.gc_below_stable();
        }
        // Even a non-stabilising announcement can raise the prune floor
        // (the announcer's executed floor is new evidence).
        self.checkpoint.prune_entry_state(self.replicas.len());
        self.maybe_request_state()
    }

    /// Fetches missing committed entries when the commit-frontier evidence
    /// runs ahead of a gap this replica cannot fill locally.
    fn maybe_request_state(&mut self) -> Vec<Step<C, PaxosMsg<C>>> {
        let next_commits = self
            .slots
            .get(&(self.last_delivered + 1))
            .is_some_and(|slot| slot.committed);
        match self
            .checkpoint
            .should_request(self.last_delivered, next_commits)
        {
            Some(peer) if peer != self.me => vec![Step::Send {
                to: peer,
                msg: PaxosMsg::StateRequest {
                    above: self.last_delivered,
                },
            }],
            _ => Vec::new(),
        }
    }

    fn on_state_request(&mut self, from: NodeId, above: SeqNo) -> Vec<Step<C, PaxosMsg<C>>> {
        let committed_to = self.last_delivered;
        let msg = match self.checkpoint.answer_state_request(above, committed_to) {
            Some((None, entries)) => PaxosMsg::StateReply {
                entries,
                committed_to,
            },
            Some((Some(snapshot), tail)) => PaxosMsg::SnapshotReply {
                snapshot,
                tail,
                committed_to,
            },
            None => return Vec::new(),
        };
        vec![Step::Send { to: from, msg }]
    }

    /// Applies a state-transfer reply: installs `snapshot` when it is ahead
    /// of the execution frontier, then replays the contiguous part of
    /// `entries` through the normal delivery path.
    fn on_state_transfer(
        &mut self,
        from: NodeId,
        snapshot: Option<Arc<StateSnapshot>>,
        entries: Vec<(SeqNo, C)>,
        committed_to: SeqNo,
    ) -> Vec<Step<C, PaxosMsg<C>>> {
        if !self.checkpoint.state_transfer_enabled() {
            return Vec::new();
        }
        self.checkpoint.note_hint(committed_to, from);
        let mut steps = Vec::new();
        let mut applied = false;
        if let Some(snapshot) = snapshot.filter(|s| s.seq > self.last_delivered) {
            // Jump the execution frontier to the snapshot point: everything
            // at or below it is superseded by the snapshot's state.
            self.last_delivered = snapshot.seq;
            self.next_seq = self.next_seq.max(snapshot.seq + 1);
            self.slots.retain(|seq, _| *seq > snapshot.seq);
            self.pending_learns.retain(|seq, _| *seq > snapshot.seq);
            self.checkpoint.adopt_snapshot(snapshot.clone());
            steps.push(Step::InstallSnapshot { snapshot });
            applied = true;
        }
        for (seq, command) in entries {
            if seq != self.last_delivered + 1 {
                continue; // already executed, or non-contiguous garbage
            }
            self.slots.remove(&seq);
            self.pending_learns.remove(&seq);
            self.deliver(seq, command, &mut steps);
            applied = true;
        }
        if applied {
            self.checkpoint.transfer_applied();
            // Committed slots stranded above the gap drain now.
            steps.extend(self.drain_deliveries());
        }
        steps.extend(self.maybe_request_state());
        steps
    }

    /// Called by the adapter when the progress timer fires while requests are
    /// outstanding: suspect the primary and start a view change.
    pub fn on_progress_timeout(&mut self) -> Vec<Step<C, PaxosMsg<C>>> {
        if self.is_primary() && !self.in_view_change {
            // The primary itself does not suspect itself.
            return Vec::new();
        }
        // Escalate past any view change already attempted: if the candidate
        // leader of the last attempt is itself dead, the next timeout must
        // move on to the following replica rather than retry forever.
        self.start_view_change(self.view.max(self.highest_vc) + 1)
    }

    fn start_view_change(&mut self, new_view: u64) -> Vec<Step<C, PaxosMsg<C>>> {
        if new_view <= self.view {
            return Vec::new();
        }
        self.in_view_change = true;
        self.highest_vc = self.highest_vc.max(new_view);
        // The vote carries every slot above the stable checkpoint, delivered
        // ones included: quorum intersection then guarantees the new
        // leader's merge sees each chosen value even when the only voter
        // still holding it has already executed it (a delivered-entries
        // filter here once let a new leader re-assign an executed sequence
        // number to a fresh command, forking stragglers).  Entries at or
        // below the checkpoint are quorum-executed and immutable; laggards
        // that still need them catch up through state transfer, so omitting
        // them is what bounds the vote by `history − checkpoint`.
        let stable = self.checkpoint.stable();
        let accepted: Vec<(SeqNo, u64, C)> = self
            .slots
            .iter()
            .filter(|(seq, _)| **seq > stable)
            .map(|(seq, slot)| (*seq, slot.accepted_in_view, slot.cmd.clone()))
            .collect();
        let msg = PaxosMsg::ViewChange {
            new_view,
            accepted: accepted.clone(),
            last_committed: self.last_delivered,
            checkpoint: stable,
        };
        // Record our own vote.
        let mut steps =
            self.record_view_change_vote(self.me, new_view, accepted, self.last_delivered, stable);
        steps.insert(0, Step::Broadcast { msg });
        steps
    }

    fn on_view_change(
        &mut self,
        from: NodeId,
        new_view: u64,
        accepted: Vec<(SeqNo, u64, C)>,
        last_committed: SeqNo,
        checkpoint: SeqNo,
    ) -> Vec<Step<C, PaxosMsg<C>>> {
        if new_view <= self.view {
            return Vec::new();
        }
        let mut steps = Vec::new();
        // Join the view change ourselves (echo) the first time we hear of
        // it, and again whenever a peer escalates beyond our last attempt.
        if !self.in_view_change || new_view > self.highest_vc {
            steps.extend(self.start_view_change(new_view));
        }
        steps.extend(self.record_view_change_vote(
            from,
            new_view,
            accepted,
            last_committed,
            checkpoint,
        ));
        steps
    }

    /// True if two view-change votes carry different certificates (compared
    /// by digest, so only genuine payload conflicts count).
    fn votes_conflict(a: &ViewChangeVote<C>, b: &ViewChangeVote<C>) -> bool {
        a.1 != b.1
            || a.2 != b.2
            || a.0.len() != b.0.len()
            || a.0
                .iter()
                .zip(b.0.iter())
                .any(|((s1, v1, c1), (s2, v2, c2))| {
                    s1 != s2 || v1 != v2 || c1.digest() != c2.digest()
                })
    }

    /// Conflicting view-change certificates this replica has detected and
    /// discarded.
    pub fn certificate_conflicts(&self) -> u64 {
        self.certificate_conflicts
    }

    fn record_view_change_vote(
        &mut self,
        from: NodeId,
        new_view: u64,
        accepted: Vec<(SeqNo, u64, C)>,
        last_committed: SeqNo,
        checkpoint: SeqNo,
    ) -> Vec<Step<C, PaxosMsg<C>>> {
        // Defence against conflicting view-change certificates — see
        // `vc_tainted`.  Identical re-deliveries are harmless overwrites,
        // and a replica always trusts its own vote.
        if self
            .vc_tainted
            .get(&new_view)
            .is_some_and(|t| t.contains(&from))
        {
            return Vec::new();
        }
        let vote = (accepted, last_committed, checkpoint);
        let votes = self.view_change_votes.entry(new_view).or_default();
        if from != self.me {
            if let Some(existing) = votes.get(&from) {
                if Self::votes_conflict(existing, &vote) {
                    votes.remove(&from);
                    self.vc_tainted.entry(new_view).or_default().insert(from);
                    self.certificate_conflicts += 1;
                    return Vec::new();
                }
            }
        }
        votes.insert(from, vote);
        let votes = &self.view_change_votes[&new_view];
        let i_am_new_primary = primary_for_view(new_view, &self.replicas) == self.me;
        if !i_am_new_primary || votes.len() < self.majority() {
            return Vec::new();
        }
        // Become the leader of the new view: merge the accepted entries,
        // preferring the value accepted in the highest view per slot.
        let mut merged: BTreeMap<SeqNo, (u64, C)> = BTreeMap::new();
        let mut frontier = 0;
        let mut floor = SeqNo::MAX;
        let mut best_voter: Option<(SeqNo, NodeId)> = None;
        for (voter, (acc, lc, cp)) in votes.iter() {
            // A voter's checkpoint certifies quorum execution through it, so
            // the new view's frontier must clear it even when no vote
            // carries the entries themselves.
            frontier = frontier.max(*lc).max(*cp);
            floor = floor.min(*lc);
            if best_voter.is_none() || best_voter.is_some_and(|(best, _)| *lc > best) {
                best_voter = Some((*lc, *voter));
            }
            for (seq, v, cmd) in acc {
                match merged.get(seq) {
                    Some((existing_view, _)) if existing_view >= v => {}
                    _ => {
                        merged.insert(*seq, (*v, cmd.clone()));
                    }
                }
            }
        }
        // If a voter is ahead of this new leader's own frontier, remember it
        // as a state-transfer source: the leader itself may be the straggler.
        if let Some((lc, voter)) = best_voter {
            if voter != self.me {
                self.checkpoint.note_hint(lc, voter);
            }
        }
        self.view = new_view;
        self.in_view_change = false;
        self.view_change_votes.remove(&new_view);
        // Taint records for completed views are no longer consulted.
        self.vc_tainted.retain(|v, _| *v > new_view);

        // Re-install the merged log locally and recompute next_seq.  The log
        // starts at the *lowest* voter frontier, not the highest: a voter
        // that has not yet executed an already-chosen entry needs its value
        // re-proposed (re-accepting an executed entry elsewhere is a cheap
        // no-op), and followers only treat re-accepted entries as
        // committed — never whatever stale value an old view left in a slot.
        let log: Vec<(SeqNo, C)> = merged
            .iter()
            .filter(|(seq, _)| **seq > floor)
            .map(|(seq, (_, cmd))| (*seq, cmd.clone()))
            .collect();
        for (seq, cmd) in &log {
            let slot = self.slots.entry(*seq).or_insert_with(|| Slot {
                cmd: cmd.clone(),
                accepted_in_view: new_view,
                acks: BTreeSet::new(),
                committed: false,
            });
            slot.cmd = cmd.clone();
            slot.accepted_in_view = new_view;
            // Acknowledgements collected in earlier views were given for
            // whatever value the slot held *then*; counting them towards the
            // re-proposed value could commit it with acceptors that never
            // saw it (the PBFT reinstall clears its vote sets for the same
            // reason).  Committed slots keep their flag — commitment is
            // value-stable — only the ack set restarts for the new view.
            slot.acks.clear();
            slot.acks.insert(self.me);
        }
        self.next_seq = self
            .slots
            .keys()
            .max()
            .copied()
            .unwrap_or(frontier)
            .max(frontier)
            + 1;

        let mut steps = vec![
            Step::ViewChanged {
                view: new_view,
                primary: self.me,
            },
            Step::Broadcast {
                msg: PaxosMsg::NewView {
                    view: new_view,
                    log: log.clone(),
                    last_committed: frontier,
                },
            },
        ];
        // Single-replica domains (or f=0) may be able to commit immediately.
        let seqs: Vec<SeqNo> = log.iter().map(|(s, _)| *s).collect();
        for s in seqs {
            steps.extend(self.maybe_commit(s));
        }
        // A new leader elected while itself gap-stalled (its voters executed
        // past it) fetches the missing prefix rather than waiting forever.
        steps.extend(self.maybe_request_state());
        steps
    }

    fn on_new_view(
        &mut self,
        from: NodeId,
        view: u64,
        log: Vec<(SeqNo, C)>,
        last_committed: SeqNo,
    ) -> Vec<Step<C, PaxosMsg<C>>> {
        if view < self.view || from != primary_for_view(view, &self.replicas) {
            return Vec::new();
        }
        self.view = view;
        self.in_view_change = false;
        // The advertised frontier is commit evidence from the new leader.
        self.checkpoint.note_hint(last_committed, from);
        let mut steps = vec![Step::ViewChanged {
            view,
            primary: from,
        }];
        // Accept every entry the new leader re-proposed.
        for (seq, cmd) in log {
            let digest = cmd.digest();
            let slot = self.slots.entry(seq).or_insert_with(|| Slot {
                cmd: cmd.clone(),
                accepted_in_view: view,
                acks: BTreeSet::new(),
                committed: false,
            });
            slot.cmd = cmd;
            slot.accepted_in_view = view;
            steps.push(Step::Send {
                to: from,
                msg: PaxosMsg::Accepted { view, seq, digest },
            });
        }
        // Catch up the commit frontier the leader advertised — but only
        // through entries re-accepted in this very view (the log installed
        // just above).  A slot still holding an *older* view's value may be
        // a deposed leader's divergent proposal; blindly committing it here
        // once forked a recovered replica's log.
        for seq in (self.last_delivered + 1)..=last_committed {
            if let Some(slot) = self.slots.get_mut(&seq) {
                if slot.accepted_in_view >= view {
                    slot.committed = true;
                }
            }
        }
        steps.extend(self.drain_deliveries());
        // Entries below the new leader's log start may be gone from every
        // slot map (garbage-collected below the checkpoint): a follower
        // still gapped after the catch-up above fetches them instead.
        steps.extend(self.maybe_request_state());
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::{DomainId, FailureModel};
    use std::collections::VecDeque;

    type Cmd = Vec<u8>;

    fn make_domain(n: u16) -> (Vec<NodeId>, Vec<PaxosReplica<Cmd>>) {
        let d = DomainId::new(1, 0);
        let nodes: Vec<NodeId> = (0..n).map(|i| NodeId::new(d, i)).collect();
        let quorum = QuorumSpec::for_size(FailureModel::Crash, n as usize);
        let reps = nodes
            .iter()
            .map(|id| PaxosReplica::new(*id, nodes.clone(), quorum))
            .collect();
        (nodes, reps)
    }

    /// Per-origin initial protocol steps fed into the test network.
    type InitialSteps = Vec<(usize, Vec<Step<Cmd, PaxosMsg<Cmd>>>)>;

    #[test]
    fn learn_arriving_before_accept_still_commits() {
        let (nodes, mut reps) = make_domain(3);
        // Replica 1 sees the leader's Learn before the Accept it refers to
        // (reordered network).  The commit must be buffered, not dropped.
        let steps = reps[1].on_message(nodes[0], PaxosMsg::Learn { view: 0, seq: 1 });
        assert!(steps.is_empty(), "nothing deliverable yet");
        let steps = reps[1].on_message(
            nodes[0],
            PaxosMsg::Accept {
                view: 0,
                seq: 1,
                cmd: b"ooo".to_vec(),
            },
        );
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
        let (nodes, mut reps) = make_domain(3);
        let _ = reps[1].on_message(
            nodes[0],
            PaxosMsg::Accept {
                view: 0,
                seq: 1,
                cmd: b"deposed".to_vec(),
            },
        );
        let steps = reps[1].on_message(nodes[1], PaxosMsg::Learn { view: 1, seq: 1 });
        assert!(
            !steps.iter().any(|s| matches!(s, Step::Deliver { .. })),
            "stale slot must not commit under a newer view's Learn: {steps:?}"
        );
        assert_eq!(reps[1].last_delivered(), 0);
        // The view-1 Accept carries what view 1 actually chose; only then
        // does the buffered commit apply — to the certified value.
        let steps = reps[1].on_message(
            nodes[1],
            PaxosMsg::Accept {
                view: 1,
                seq: 1,
                cmd: b"chosen".to_vec(),
            },
        );
        let delivered: Vec<&Cmd> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Deliver { command, .. } => Some(command),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![&b"chosen".to_vec()]);
    }

    #[test]
    fn buffered_learn_from_newer_view_does_not_commit_an_old_view_accept() {
        let (nodes, mut reps) = make_domain(3);
        // A Learn issued in view 1 overtakes everything else.
        let steps = reps[1].on_message(nodes[0], PaxosMsg::Learn { view: 1, seq: 1 });
        assert!(steps.is_empty());
        // A stale view-0 Accept for the same seq must not be committed under
        // the newer view's Learn: view 1 may have chosen a different command.
        let steps = reps[1].on_message(
            nodes[0],
            PaxosMsg::Accept {
                view: 0,
                seq: 1,
                cmd: b"stale".to_vec(),
            },
        );
        assert!(
            !steps.iter().any(|s| matches!(s, Step::Deliver { .. })),
            "stale accept must not deliver: {steps:?}"
        );
        assert_eq!(reps[1].last_delivered(), 0);
    }

    /// Routes every Send/Broadcast step until quiescence; returns delivered
    /// (seq, cmd) per replica index.  `down` replicas neither send nor receive.
    fn run_network(
        nodes: &[NodeId],
        reps: &mut [PaxosReplica<Cmd>],
        initial: InitialSteps,
        down: &[usize],
    ) -> Vec<Vec<(SeqNo, Cmd)>> {
        let mut delivered = vec![Vec::new(); reps.len()];
        let mut queue: VecDeque<(usize, NodeId, PaxosMsg<Cmd>)> = VecDeque::new();
        let index_of = |id: NodeId| nodes.iter().position(|n| *n == id).unwrap();

        let handle_steps = |origin: usize,
                            steps: Vec<Step<Cmd, PaxosMsg<Cmd>>>,
                            queue: &mut VecDeque<(usize, NodeId, PaxosMsg<Cmd>)>,
                            delivered: &mut Vec<Vec<(SeqNo, Cmd)>>| {
            for step in steps {
                match step {
                    Step::Send { to, msg } => queue.push_back((index_of(to), nodes[origin], msg)),
                    Step::Broadcast { msg } => {
                        for (i, n) in nodes.iter().enumerate() {
                            if i != origin {
                                queue.push_back((index_of(*n), nodes[origin], msg.clone()));
                            }
                        }
                    }
                    Step::Deliver { seq, command } => delivered[origin].push((seq, command)),
                    Step::ViewChanged { .. } | Step::InstallSnapshot { .. } => {}
                    Step::TakeSnapshot { .. } => {} // materialized by the driver below
                }
            }
        };

        // Stand-in for the adapter layer: materialize a (contents-free)
        // snapshot whenever the engine asks for one.
        let absorb_snapshots = |rep: &mut PaxosReplica<Cmd>, steps: &[Step<Cmd, PaxosMsg<Cmd>>]| {
            for step in steps {
                if let Step::TakeSnapshot { seq } = step {
                    rep.store_snapshot(Arc::new(StateSnapshot {
                        seq: *seq,
                        ..StateSnapshot::default()
                    }));
                }
            }
        };

        for (origin, steps) in initial {
            absorb_snapshots(&mut reps[origin], &steps);
            handle_steps(origin, steps, &mut queue, &mut delivered);
        }
        let mut budget = 100_000;
        while let Some((to, from, msg)) = queue.pop_front() {
            budget -= 1;
            assert!(budget > 0, "message storm");
            if down.contains(&to) {
                continue;
            }
            let steps = reps[to].on_message(from, msg);
            absorb_snapshots(&mut reps[to], &steps);
            handle_steps(to, steps, &mut queue, &mut delivered);
        }
        delivered
    }

    #[test]
    fn single_command_commits_on_all_replicas() {
        let (nodes, mut reps) = make_domain(3);
        let steps = reps[0].propose(b"tx1".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[]);
        for d in &delivered {
            assert_eq!(d, &vec![(1, b"tx1".to_vec())]);
        }
    }

    #[test]
    fn non_primary_propose_is_a_noop() {
        let (_nodes, mut reps) = make_domain(3);
        assert!(reps[1].propose(b"x".to_vec()).is_empty());
        assert!(!reps[1].is_primary());
        assert!(reps[0].is_primary());
    }

    #[test]
    fn commands_deliver_in_order_across_replicas() {
        let (nodes, mut reps) = make_domain(5);
        let mut initial = Vec::new();
        for i in 0..10u8 {
            initial.push((0, reps[0].propose(vec![i])));
        }
        let delivered = run_network(&nodes, &mut reps, initial, &[]);
        let expected: Vec<(SeqNo, Cmd)> = (0..10u8).map(|i| (i as u64 + 1, vec![i])).collect();
        for d in &delivered {
            assert_eq!(d, &expected);
        }
    }

    #[test]
    fn commits_with_f_backups_down() {
        // 5 replicas tolerate 2 crash failures; with 2 backups down the
        // command still commits everywhere alive.
        let (nodes, mut reps) = make_domain(5);
        let steps = reps[0].propose(b"tx".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[3, 4]);
        for (i, d) in delivered.iter().enumerate() {
            if i == 3 || i == 4 {
                assert!(d.is_empty());
            } else {
                assert_eq!(d.len(), 1);
            }
        }
    }

    #[test]
    fn no_commit_without_majority() {
        let (nodes, mut reps) = make_domain(5);
        let steps = reps[0].propose(b"tx".to_vec());
        // 3 of 5 down: only the primary and one backup remain -> no majority.
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[2, 3, 4]);
        assert!(delivered.iter().all(|d| d.is_empty()));
    }

    #[test]
    fn view_change_elects_next_leader_and_preserves_committed_entries() {
        let (nodes, mut reps) = make_domain(3);
        // Commit one command normally.
        let steps = reps[0].propose(b"committed".to_vec());
        run_network(&nodes, &mut reps, vec![(0, steps)], &[]);

        // Primary (index 0) goes silent.  Backups time out.
        let vc1 = reps[1].on_progress_timeout();
        let vc2 = reps[2].on_progress_timeout();
        let _ = run_network(&nodes, &mut reps, vec![(1, vc1), (2, vc2)], &[0]);

        // Node 1 is the new primary of view 1.
        assert_eq!(reps[1].view(), 1);
        assert!(reps[1].is_primary());
        assert_eq!(reps[2].view(), 1);
        assert_eq!(reps[1].last_delivered(), 1);

        // New proposals still commit among the live replicas.
        let steps = reps[1].propose(b"after-vc".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(1, steps)], &[0]);
        assert!(delivered[1].iter().any(|(_, c)| c == b"after-vc"));
        assert!(delivered[2].iter().any(|(_, c)| c == b"after-vc"));
    }

    #[test]
    fn view_change_recovers_uncommitted_accepted_entry() {
        let (nodes, mut reps) = make_domain(3);
        // The primary proposes but only replica 1 receives the Accept (we
        // simulate by delivering manually), then the primary crashes.
        let steps = reps[0].propose(b"maybe".to_vec());
        // Extract the broadcast Accept and deliver it to replica 1 only.
        let accept = steps
            .iter()
            .find_map(|s| match s {
                Step::Broadcast { msg } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let _ = reps[1].on_message(nodes[0], accept);

        // View change without the old primary.
        let vc1 = reps[1].on_progress_timeout();
        let vc2 = reps[2].on_progress_timeout();
        let delivered = run_network(&nodes, &mut reps, vec![(1, vc1), (2, vc2)], &[0]);
        // The possibly-committed entry is re-proposed and commits in view 1.
        assert!(delivered[1].iter().any(|(_, c)| c == b"maybe"));
        assert!(delivered[2].iter().any(|(_, c)| c == b"maybe"));
        assert_eq!(reps[1].view(), 1);
    }

    #[test]
    fn primary_does_not_suspect_itself() {
        let (_nodes, mut reps) = make_domain(3);
        assert!(reps[0].on_progress_timeout().is_empty());
    }

    #[test]
    fn repeated_timeouts_escalate_past_a_crashed_candidate() {
        // 5 replicas tolerate f = 2.  Both the leader (0) and the next
        // round-robin candidate (1) crash: the first timeout round targets
        // view 1 and stalls (its candidate is dead); the second must
        // escalate to view 2 instead of retrying view 1 forever.
        let (nodes, mut reps) = make_domain(5);
        let steps = reps[0].propose(b"committed".to_vec());
        run_network(&nodes, &mut reps, vec![(0, steps)], &[]);

        let vc: InitialSteps = (2..5).map(|i| (i, reps[i].on_progress_timeout())).collect();
        run_network(&nodes, &mut reps, vc, &[0, 1]);
        assert_eq!(reps[2].view(), 0, "view 1 must not form without node 1");

        let vc: InitialSteps = (2..5).map(|i| (i, reps[i].on_progress_timeout())).collect();
        run_network(&nodes, &mut reps, vc, &[0, 1]);
        assert_eq!(reps[2].view(), 2);
        assert!(reps[2].is_primary());
        assert_eq!(reps[3].view(), 2);

        // Progress resumes under the view-2 leader with 3 of 5 alive.
        let steps = reps[2].propose(b"after".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(2, steps)], &[0, 1]);
        assert!(delivered[3].iter().any(|(_, c)| c == b"after"));
        assert!(delivered[4].iter().any(|(_, c)| c == b"after"));
        // The entry committed in view 0 survived both rounds.
        assert!(reps[2].last_delivered() >= 2);
    }

    #[test]
    fn stale_messages_are_ignored() {
        let (nodes, mut reps) = make_domain(3);
        // Move everyone to view 1.
        let vc1 = reps[1].on_progress_timeout();
        let vc2 = reps[2].on_progress_timeout();
        run_network(&nodes, &mut reps, vec![(1, vc1), (2, vc2)], &[0]);
        // A stale Accept from the deposed primary in view 0 is ignored.
        let steps = reps[1].on_message(
            nodes[0],
            PaxosMsg::Accept {
                view: 0,
                seq: 9,
                cmd: b"stale".to_vec(),
            },
        );
        assert!(steps.is_empty());
    }

    #[test]
    fn backlog_counts_uncommitted_slots() {
        let (_nodes, mut reps) = make_domain(3);
        let _ = reps[0].propose(b"a".to_vec());
        assert_eq!(reps[0].backlog(), 1);
    }

    fn make_checkpointed_domain(n: u16, interval: u64) -> (Vec<NodeId>, Vec<PaxosReplica<Cmd>>) {
        let (nodes, reps) = make_domain(n);
        let reps = reps
            .into_iter()
            .map(|r| r.with_checkpointing(CheckpointConfig::every(interval)))
            .collect();
        (nodes, reps)
    }

    #[test]
    fn checkpointing_garbage_collects_slots_and_bounds_view_change_votes() {
        let (nodes, mut reps) = make_checkpointed_domain(3, 4);
        let initial: InitialSteps = (0..10u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[]);
        for r in &reps {
            assert_eq!(r.last_delivered(), 10);
            assert_eq!(r.stable_checkpoint(), 8, "floor 8 must have stabilised");
            assert!(
                r.log_len() <= 2,
                "slots below the checkpoint must be collected (len {})",
                r.log_len()
            );
            assert!(r.vote_entries() <= 2);
        }
        // The actual view-change vote payload is bounded by the stable
        // checkpoint: `history − checkpoint` entries, not O(history).
        let steps = reps[1].on_progress_timeout();
        let vote = steps
            .iter()
            .find_map(|s| match s {
                Step::Broadcast {
                    msg:
                        PaxosMsg::ViewChange {
                            accepted,
                            checkpoint,
                            ..
                        },
                } => Some((accepted.len(), *checkpoint)),
                _ => None,
            })
            .expect("timeout broadcasts a view-change vote");
        assert_eq!(vote.1, 8);
        assert!(
            vote.0 <= 2,
            "vote carried {} entries for a history of 10 with checkpoint 8",
            vote.0
        );
    }

    #[test]
    fn unbounded_checkpointing_retains_full_history_in_votes() {
        let (nodes, mut reps) = make_domain(3);
        let initial: InitialSteps = (0..10u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[]);
        assert_eq!(reps[1].stable_checkpoint(), 0);
        assert_eq!(reps[1].vote_entries(), 10, "legacy votes carry everything");
    }

    #[test]
    fn gap_stalled_replica_catches_up_via_state_transfer() {
        let (nodes, mut reps) = make_checkpointed_domain(3, 2);
        // Replica 2 misses six committed entries; the survivors stabilise
        // checkpoint 6 and garbage-collect the slots below it, so the gap
        // can never be filled by re-accepts.
        let initial: InitialSteps = (0..6u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[2]);
        assert_eq!(reps[0].stable_checkpoint(), 6);
        assert_eq!(reps[2].last_delivered(), 0);

        // On recovery the replica hears a checkpoint announcement (frontier
        // evidence), requests state, and replays the whole missed prefix.
        let steps = reps[2].on_message(
            nodes[0],
            PaxosMsg::Checkpoint {
                seq: 6,
                digest: saguaro_crypto::sha256(b"modelled"),
            },
        );
        assert!(
            steps.iter().any(|s| matches!(
                s,
                Step::Send {
                    msg: PaxosMsg::StateRequest { above: 0 },
                    ..
                }
            )),
            "gap-stalled replica must fetch state: {steps:?}"
        );
        let delivered = run_network(&nodes, &mut reps, vec![(2, steps)], &[]);
        assert_eq!(
            delivered[2],
            (0..6u8)
                .map(|i| (i as u64 + 1, vec![i]))
                .collect::<Vec<_>>(),
            "the transferred entries must replay in order"
        );
        assert_eq!(reps[2].last_delivered(), 6);

        // Execution resumes: the next proposal commits on all three.
        let steps = reps[0].propose(b"after".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[]);
        assert!(delivered[2]
            .iter()
            .any(|(seq, c)| *seq == 7 && c == b"after"));
    }

    fn make_pruned_domain(
        n: u16,
        interval: u64,
        retention: u64,
    ) -> (Vec<NodeId>, Vec<PaxosReplica<Cmd>>) {
        let (nodes, reps) = make_domain(n);
        let reps = reps
            .into_iter()
            .map(|r| {
                r.with_checkpointing(CheckpointConfig::every(interval).with_retention(retention))
            })
            .collect();
        (nodes, reps)
    }

    #[test]
    fn finite_retention_bounds_the_delivered_chain() {
        let (nodes, mut reps) = make_pruned_domain(3, 2, 2);
        let initial: InitialSteps = (0..20u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[]);
        for r in &reps {
            assert_eq!(r.last_delivered(), 20);
            assert!(
                r.chain_len() <= 4,
                "retention 2 (interval 2) must bound the chain, got {}",
                r.chain_len()
            );
            assert!(
                r.chain_start() > 1,
                "the chain prefix must have been pruned"
            );
            assert!(r.snapshot_seq().is_some(), "a snapshot must be held");
        }
    }

    #[test]
    fn pruned_responder_serves_snapshot_catch_up() {
        let (nodes, mut reps) = make_pruned_domain(3, 2, 2);
        // Replica 2 misses twelve committed entries; the survivors stabilise
        // checkpoints, materialize snapshots, and prune the chain prefix —
        // a plain entry replay can no longer answer `above = 0`.
        let initial: InitialSteps = (0..12u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[2]);
        assert_eq!(reps[0].last_delivered(), 12);
        assert!(reps[0].chain_start() > 1, "responder's log must be pruned");
        assert_eq!(reps[2].last_delivered(), 0);

        // On recovery the laggard hears a checkpoint announcement, requests
        // state, and is answered with a snapshot plus the retained tail.
        let steps = reps[2].on_message(
            nodes[0],
            PaxosMsg::Checkpoint {
                seq: 12,
                digest: saguaro_crypto::sha256(b"modelled"),
            },
        );
        assert!(
            steps.iter().any(|s| matches!(
                s,
                Step::Send {
                    msg: PaxosMsg::StateRequest { above: 0 },
                    ..
                }
            )),
            "gap-stalled replica must fetch state: {steps:?}"
        );
        let delivered = run_network(&nodes, &mut reps, vec![(2, steps)], &[]);
        assert_eq!(reps[2].last_delivered(), 12);
        assert_eq!(
            reps[2].snapshot_seq().unwrap_or(0) + delivered[2].len() as u64,
            12,
            "snapshot + replayed tail must cover the whole gap"
        );

        // Execution resumes: the next proposal commits on all three.
        let steps = reps[0].propose(b"after".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[]);
        assert!(delivered[2]
            .iter()
            .any(|(seq, c)| *seq == 13 && c == b"after"));
    }

    #[test]
    fn stale_snapshot_reply_is_ignored() {
        let (nodes, mut reps) = make_pruned_domain(3, 2, 2);
        let initial: InitialSteps = (0..6u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[]);
        assert_eq!(reps[1].last_delivered(), 6);
        // A snapshot below the receiver's frontier must change nothing.
        let steps = reps[1].on_message(
            nodes[0],
            PaxosMsg::SnapshotReply {
                snapshot: Arc::new(StateSnapshot {
                    seq: 2,
                    ..StateSnapshot::default()
                }),
                tail: Vec::new(),
                committed_to: 2,
            },
        );
        assert!(
            !steps
                .iter()
                .any(|s| matches!(s, Step::InstallSnapshot { .. } | Step::Deliver { .. })),
            "stale snapshot must not install or deliver: {steps:?}"
        );
        assert_eq!(reps[1].last_delivered(), 6);
    }

    #[test]
    fn view_change_reinstall_discards_acks_given_for_a_different_value() {
        // n = 5, majority 3.  The view-0 leader holds acks {r0, r1} for X at
        // seq 1 (uncommitted).  A view change to view 5 (primary r0 again)
        // merges a *different* value Y for seq 1 — prepared in view 3 by a
        // voter — so the reinstall must not count r1's stale ack for X
        // towards committing Y: two fresh acceptances are still required.
        let (nodes, mut reps) = make_domain(5);
        let _ = reps[0].propose(b"X".to_vec());
        let _ = reps[0].on_message(
            nodes[1],
            PaxosMsg::Accepted {
                view: 0,
                seq: 1,
                digest: b"X".to_vec().digest(),
            },
        );
        // Two peers escalate to view 5 carrying Y accepted in view 3; with
        // r0's own echoed vote that is the 3-vote quorum making r0 leader.
        let vote = |accepted: Vec<(SeqNo, u64, Cmd)>| PaxosMsg::ViewChange {
            new_view: 5,
            accepted,
            last_committed: 0,
            checkpoint: 0,
        };
        let _ = reps[0].on_message(nodes[1], vote(vec![(1, 3, b"Y".to_vec())]));
        let steps = reps[0].on_message(nodes[2], vote(vec![]));
        assert!(steps
            .iter()
            .any(|s| matches!(s, Step::ViewChanged { view: 5, .. })));
        assert_eq!(reps[0].view(), 5);

        // One fresh acceptance of Y: with r1's stale X-ack wrongly retained
        // this would be the "third" ack and commit Y — it must not.
        let y_digest = b"Y".to_vec().digest();
        let steps = reps[0].on_message(
            nodes[3],
            PaxosMsg::Accepted {
                view: 5,
                seq: 1,
                digest: y_digest,
            },
        );
        assert!(
            !steps.iter().any(|s| matches!(
                s,
                Step::Broadcast {
                    msg: PaxosMsg::Learn { .. }
                }
            )),
            "Y must not commit on one fresh ack plus a stale ack for X"
        );
        // The second fresh acceptance completes a genuine majority.
        let steps = reps[0].on_message(
            nodes[4],
            PaxosMsg::Accepted {
                view: 5,
                seq: 1,
                digest: y_digest,
            },
        );
        assert!(steps.iter().any(|s| matches!(
            s,
            Step::Broadcast {
                msg: PaxosMsg::Learn { seq: 1, .. }
            }
        )));
    }

    #[test]
    fn twin_view_change_votes_are_discarded_and_sender_ignored() {
        // n = 5, majority 3, view-5 leader is r0.  A voter that sends two
        // conflicting votes for the same view is a provable equivocator:
        // both its votes are discarded and it is ignored for that view,
        // but the remaining honest majority still elects the leader.
        let (nodes, mut reps) = make_domain(5);
        let vote = |accepted: Vec<(SeqNo, u64, Cmd)>| PaxosMsg::ViewChange {
            new_view: 5,
            accepted,
            last_committed: 0,
            checkpoint: 0,
        };
        let _ = reps[0].on_message(nodes[1], vote(vec![(1, 3, b"X".to_vec())]));
        let _ = reps[0].on_message(nodes[1], vote(vec![(1, 3, b"Y".to_vec())]));
        assert_eq!(reps[0].certificate_conflicts(), 1);
        // Re-deliveries from the tainted voter no longer count.
        let _ = reps[0].on_message(nodes[1], vote(vec![(1, 3, b"X".to_vec())]));
        assert_eq!(reps[0].view(), 0, "own + tainted vote must not elect");
        // Two honest votes plus r0's own echoed vote reach the majority.
        let _ = reps[0].on_message(nodes[2], vote(Vec::new()));
        let steps = reps[0].on_message(nodes[3], vote(Vec::new()));
        assert!(steps
            .iter()
            .any(|s| matches!(s, Step::ViewChanged { view: 5, .. })));
        assert_eq!(reps[0].view(), 5);
    }

    #[test]
    fn state_requests_are_ignored_when_transfer_is_disabled() {
        let (nodes, mut reps) = make_domain(3);
        let initial: InitialSteps = (0..3u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[]);
        assert!(reps[0]
            .on_message(nodes[2], PaxosMsg::StateRequest { above: 0 })
            .is_empty());
    }
}
