//! PBFT for Byzantine domains.
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
//! Primary failure is handled by a view change: replicas that suspect the
//! primary broadcast `view-change` carrying their prepared certificates; the
//! new primary (round-robin) collects `2f + 1` of them and broadcasts
//! `new-view`, re-proposing every prepared request so nothing committed is
//! lost.  Periodic checkpoints garbage-collect the message log.
//!
//! Signatures are modelled at the message-count level (the CPU model charges
//! verification per signature); the state machine itself trusts the adapter
//! to have authenticated senders, mirroring how PBFT uses MACs/signatures.

use crate::checkpoint::CheckpointKeeper;
use crate::interface::{primary_for_view, Command, Step};
use saguaro_crypto::Digest;
use saguaro_types::{CheckpointConfig, NodeId, QuorumSpec, SeqNo, StateSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Messages exchanged by PBFT replicas within one domain.
#[derive(Clone, Debug, PartialEq)]
pub enum PbftMsg<C> {
    /// Primary → replicas: order `cmd` at `seq` in `view`.
    PrePrepare {
        /// View number.
        view: u64,
        /// Assigned sequence number.
        seq: SeqNo,
        /// The command.
        cmd: C,
    },
    /// Replica → all: I received a matching pre-prepare.
    Prepare {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: SeqNo,
        /// Digest of the command.
        digest: Digest,
    },
    /// Replica → all: I am prepared; commit once 2f + 1 of these are held.
    Commit {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: SeqNo,
        /// Digest of the command.
        digest: Digest,
    },
    /// Replica → all: the primary of `view` is suspected; move to `new_view`.
    ViewChange {
        /// The proposed new view.
        new_view: u64,
        /// Prepared certificates `(seq, view, command)` above the checkpoint.
        prepared: Vec<(SeqNo, u64, C)>,
        /// The sender's stable checkpoint sequence number.
        checkpoint: SeqNo,
    },
    /// New primary → all: the new view starts with this log suffix.
    NewView {
        /// The new view number.
        view: u64,
        /// Requests re-proposed by the new primary.
        log: Vec<(SeqNo, C)>,
        /// Checkpoint the log starts from.
        checkpoint: SeqNo,
    },
    /// Replica → all: I have executed up to `seq` with state digest `digest`.
    Checkpoint {
        /// Executed sequence number.
        seq: SeqNo,
        /// Digest of the replica state at `seq` (modelled, not verified here).
        digest: Digest,
    },
    /// Gap-stalled replica → an up-to-date peer: send me every committed
    /// entry above `above` (the below-low-water-mark catch-up PBFT describes
    /// as state transfer).
    StateRequest {
        /// The requester's delivery frontier.
        above: SeqNo,
    },
    /// Up-to-date peer → gap-stalled replica: the missing committed entries,
    /// certified as a unit (modelled as one certificate per entry).
    StateReply {
        /// Committed `(seq, command)` entries, contiguous from `above + 1`.
        entries: Vec<(SeqNo, C)>,
        /// The sender's delivery frontier.
        committed_to: SeqNo,
    },
    /// Up-to-date peer → deeply stalled replica whose requested frontier
    /// was pruned away: a checkpoint-certified application snapshot plus
    /// the short retained command tail above it (the catch-up commit of
    /// production PBFT implementations).
    SnapshotReply {
        /// The responder's snapshot at its snapshot point.
        snapshot: Arc<StateSnapshot>,
        /// Committed `(seq, command)` entries retained above the snapshot,
        /// contiguous from `snapshot.seq + 1`.
        tail: Vec<(SeqNo, C)>,
        /// The sender's delivery frontier.
        committed_to: SeqNo,
    },
}

#[derive(Clone, Debug)]
struct SlotState<C> {
    cmd: Option<C>,
    digest: Option<Digest>,
    pre_prepared_view: u64,
    prepares: BTreeSet<NodeId>,
    commits: BTreeSet<NodeId>,
    prepared: bool,
    committed: bool,
}

impl<C> Default for SlotState<C> {
    fn default() -> Self {
        Self {
            cmd: None,
            digest: None,
            pre_prepared_view: 0,
            prepares: BTreeSet::new(),
            commits: BTreeSet::new(),
            prepared: false,
            committed: false,
        }
    }
}

/// One replica's view-change vote: its prepared `(seq, view, command)`
/// entries plus its last delivered sequence number.
type ViewChangeVote<C> = (Vec<(SeqNo, u64, C)>, SeqNo);

/// A PBFT replica.
#[derive(Clone, Debug)]
pub struct PbftReplica<C> {
    me: NodeId,
    replicas: Vec<NodeId>,
    quorum: QuorumSpec,
    view: u64,
    next_seq: SeqNo,
    last_delivered: SeqNo,
    slots: BTreeMap<SeqNo, SlotState<C>>,
    view_change_votes: BTreeMap<u64, BTreeMap<NodeId, ViewChangeVote<C>>>,
    /// Replicas caught sending two *conflicting* view-change votes for the
    /// same view (a Byzantine twin certificate).  Both votes are discarded
    /// and further votes from the pair's sender are ignored for that view;
    /// the next view change starts from a clean slate.
    vc_tainted: BTreeMap<u64, BTreeSet<NodeId>>,
    /// Conflicting certificates detected so far (twin view-change votes and
    /// rejected twin new-view messages).
    certificate_conflicts: u64,
    /// Highest view whose `NewView` certificate this replica has accepted;
    /// a second (possibly conflicting) certificate for the same view is
    /// never applied.
    last_new_view: u64,
    in_view_change: bool,
    /// Highest view this replica has voted a view change towards; repeated
    /// timeouts escalate past it so a crashed candidate primary cannot wedge
    /// the domain.
    highest_vc: u64,
    /// Checkpoint agreement (the classic PBFT low-water mark), state-transfer
    /// pacing and the durable chain.  The legacy configuration keeps the
    /// built-in interval of 128 with no state transfer.
    checkpoint: CheckpointKeeper<C>,
}

impl<C: Command> PbftReplica<C> {
    /// Creates a replica.  `replicas` must be identical (and sorted) on all
    /// members of the domain.
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
            view_change_votes: BTreeMap::new(),
            vc_tainted: BTreeMap::new(),
            certificate_conflicts: 0,
            last_new_view: 0,
            in_view_change: false,
            highest_vc: 0,
            checkpoint: CheckpointKeeper::new(
                CheckpointConfig::legacy(),
                Some(CheckpointConfig::LEGACY_PBFT_INTERVAL),
            ),
        }
    }

    /// Overrides the checkpoint interval without enabling state transfer
    /// (mainly for tests).
    pub fn with_checkpoint_interval(mut self, interval: SeqNo) -> Self {
        self.checkpoint = CheckpointKeeper::new(
            CheckpointConfig {
                interval: interval.max(1),
                state_transfer: false,
                retention: u64::MAX,
            },
            None,
        );
        self
    }

    /// Replaces the checkpoint / state-transfer configuration (builder
    /// style; `legacy` keeps the built-in interval of 128).
    pub fn with_checkpointing(mut self, config: CheckpointConfig) -> Self {
        self.checkpoint =
            CheckpointKeeper::new(config, Some(CheckpointConfig::LEGACY_PBFT_INTERVAL));
        self
    }

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The primary of the current view.
    pub fn primary(&self) -> NodeId {
        primary_for_view(self.view, &self.replicas)
    }

    /// True if this replica is the primary.
    pub fn is_primary(&self) -> bool {
        self.primary() == self.me
    }

    /// Last delivered sequence number.
    pub fn last_delivered(&self) -> SeqNo {
        self.last_delivered
    }

    /// The last stable checkpoint.
    pub fn stable_checkpoint(&self) -> SeqNo {
        self.checkpoint.stable()
    }

    /// Number of log entries retained (bounded by checkpointing).
    pub fn log_len(&self) -> usize {
        self.slots.len()
    }

    /// Number of prepared certificates a view-change vote sent right now
    /// would carry — bounded by the stable checkpoint.
    pub fn vote_entries(&self) -> usize {
        self.prepared_certificates().len()
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

    fn quorum_2f_plus_1(&self) -> usize {
        self.quorum.commit_quorum()
    }

    fn prepared_quorum(&self) -> usize {
        // Pre-prepare from the primary + 2f prepares; we count distinct
        // prepare senders (including ourselves), so 2f are needed.
        2 * self.quorum.f
    }

    /// Proposes a command (primary only).
    pub fn propose(&mut self, cmd: C) -> Vec<Step<C, PbftMsg<C>>> {
        if !self.is_primary() || self.in_view_change {
            return Vec::new();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let digest = cmd.digest();
        {
            let slot = self.slots.entry(seq).or_default();
            slot.cmd = Some(cmd.clone());
            slot.digest = Some(digest);
            slot.pre_prepared_view = self.view;
            // The primary's pre-prepare counts as its prepare.
            slot.prepares.insert(self.me);
        }
        let mut steps = vec![Step::Broadcast {
            msg: PbftMsg::PrePrepare {
                view: self.view,
                seq,
                cmd,
            },
        }];
        steps.extend(self.check_prepared(seq));
        steps
    }

    /// Handles a protocol message from a peer replica.
    pub fn on_message(&mut self, from: NodeId, msg: PbftMsg<C>) -> Vec<Step<C, PbftMsg<C>>> {
        match msg {
            PbftMsg::PrePrepare { view, seq, cmd } => self.on_pre_prepare(from, view, seq, cmd),
            PbftMsg::Prepare { view, seq, digest } => self.on_prepare(from, view, seq, digest),
            PbftMsg::Commit { view, seq, digest } => self.on_commit(from, view, seq, digest),
            PbftMsg::ViewChange {
                new_view,
                prepared,
                checkpoint,
            } => self.on_view_change(from, new_view, prepared, checkpoint),
            PbftMsg::NewView {
                view,
                log,
                checkpoint,
            } => self.on_new_view(from, view, log, checkpoint),
            PbftMsg::Checkpoint { seq, digest } => self.on_checkpoint(from, seq, digest),
            PbftMsg::StateRequest { above } => self.on_state_request(from, above),
            PbftMsg::StateReply {
                entries,
                committed_to,
            } => self.on_state_transfer(from, None, entries, committed_to),
            PbftMsg::SnapshotReply {
                snapshot,
                tail,
                committed_to,
            } => self.on_state_transfer(from, Some(snapshot), tail, committed_to),
        }
    }

    fn on_pre_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        cmd: C,
    ) -> Vec<Step<C, PbftMsg<C>>> {
        if view != self.view
            || self.in_view_change
            || from != primary_for_view(view, &self.replicas)
            || seq <= self.checkpoint.stable()
        {
            return Vec::new();
        }
        let digest = cmd.digest();
        {
            let slot = self.slots.entry(seq).or_default();
            // A Byzantine primary might equivocate: if we already accepted a
            // different digest at this (view, seq), ignore the second one.
            if let Some(existing) = slot.digest {
                if existing != digest && slot.pre_prepared_view == view {
                    return Vec::new();
                }
            }
            slot.cmd = Some(cmd);
            slot.digest = Some(digest);
            slot.pre_prepared_view = view;
            slot.prepares.insert(self.me);
        }
        let mut steps = vec![Step::Broadcast {
            msg: PbftMsg::Prepare { view, seq, digest },
        }];
        steps.extend(self.check_prepared(seq));
        steps
    }

    fn on_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        digest: Digest,
    ) -> Vec<Step<C, PbftMsg<C>>> {
        if view != self.view || self.in_view_change || seq <= self.checkpoint.stable() {
            return Vec::new();
        }
        {
            let slot = self.slots.entry(seq).or_default();
            if slot.digest.is_some_and(|d| d != digest) {
                return Vec::new();
            }
            slot.prepares.insert(from);
        }
        self.check_prepared(seq)
    }

    /// If the slot just became prepared, broadcast our commit.
    fn check_prepared(&mut self, seq: SeqNo) -> Vec<Step<C, PbftMsg<C>>> {
        let view = self.view;
        let needed = self.prepared_quorum();
        let me = self.me;
        let Some(slot) = self.slots.get_mut(&seq) else {
            return Vec::new();
        };
        // Need the pre-prepare (command present) and 2f prepares besides it.
        if slot.prepared || slot.cmd.is_none() || slot.prepares.len() < needed.max(1) {
            return Vec::new();
        }
        slot.prepared = true;
        slot.commits.insert(me);
        let digest = slot.digest.expect("digest set with cmd");
        let mut steps = vec![Step::Broadcast {
            msg: PbftMsg::Commit { view, seq, digest },
        }];
        steps.extend(self.check_committed(seq));
        steps
    }

    fn on_commit(
        &mut self,
        from: NodeId,
        view: u64,
        seq: SeqNo,
        digest: Digest,
    ) -> Vec<Step<C, PbftMsg<C>>> {
        if view != self.view || self.in_view_change || seq <= self.checkpoint.stable() {
            return Vec::new();
        }
        {
            let slot = self.slots.entry(seq).or_default();
            if slot.digest.is_some_and(|d| d != digest) {
                return Vec::new();
            }
            slot.commits.insert(from);
        }
        self.check_committed(seq)
    }

    fn check_committed(&mut self, seq: SeqNo) -> Vec<Step<C, PbftMsg<C>>> {
        let needed = self.quorum_2f_plus_1();
        let Some(slot) = self.slots.get_mut(&seq) else {
            return Vec::new();
        };
        if slot.committed || !slot.prepared || slot.cmd.is_none() || slot.commits.len() < needed {
            return Vec::new();
        }
        slot.committed = true;
        self.drain_deliveries()
    }

    fn drain_deliveries(&mut self) -> Vec<Step<C, PbftMsg<C>>> {
        let mut steps = Vec::new();
        loop {
            let next = self.last_delivered + 1;
            let Some(slot) = self.slots.get(&next) else {
                break;
            };
            if !slot.committed {
                break;
            }
            let command = slot.cmd.clone().expect("committed slot has a command");
            self.deliver(next, command, &mut steps);
        }
        steps
    }

    /// Delivers the entry at `seq` (the next one in order): emits the step,
    /// retains the entry for state transfer and announces a periodic
    /// checkpoint.
    fn deliver(&mut self, seq: SeqNo, command: C, steps: &mut Vec<Step<C, PbftMsg<C>>>) {
        steps.push(Step::Deliver {
            seq,
            command: command.clone(),
        });
        self.last_delivered = seq;
        let announce = self.checkpoint.announces_at(seq).then(|| command.digest());
        self.checkpoint.retain(seq, command);
        if let Some(digest) = announce {
            steps.push(Step::Broadcast {
                msg: PbftMsg::Checkpoint { seq, digest },
            });
            if self.checkpoint.prunes() {
                // The adapter materializes its state as of this point in
                // the stream and hands it back via `store_snapshot`.
                steps.push(Step::TakeSnapshot { seq });
            }
            steps.extend(self.on_checkpoint(self.me, seq, digest));
        }
    }

    /// Garbage-collects every slot at or below the stable checkpoint.
    fn gc_below_stable(&mut self) {
        let stable = self.checkpoint.stable();
        self.slots.retain(|s, _| *s > stable);
        self.checkpoint.prune_entry_state(self.replicas.len());
    }

    fn on_checkpoint(
        &mut self,
        from: NodeId,
        seq: SeqNo,
        _digest: Digest,
    ) -> Vec<Step<C, PbftMsg<C>>> {
        if from != self.me {
            // A peer's announced floor proves `seq` committed there.
            self.checkpoint.note_hint(seq, from);
        }
        let quorum = self.quorum_2f_plus_1();
        if self
            .checkpoint
            .record_vote(from, seq, quorum, self.last_delivered)
        {
            self.gc_below_stable();
        }
        // Even a non-stabilising announcement can raise the prune floor
        // (the announcer's executed floor is new evidence).
        self.checkpoint.prune_entry_state(self.replicas.len());
        self.maybe_request_state()
    }

    /// Fetches missing committed entries when commit-frontier evidence runs
    /// ahead of a gap this replica cannot fill from its own slots (e.g.
    /// after a `NewView` jumped the stable checkpoint past its frontier).
    fn maybe_request_state(&mut self) -> Vec<Step<C, PbftMsg<C>>> {
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
                msg: PbftMsg::StateRequest {
                    above: self.last_delivered,
                },
            }],
            _ => Vec::new(),
        }
    }

    fn on_state_request(&mut self, from: NodeId, above: SeqNo) -> Vec<Step<C, PbftMsg<C>>> {
        let committed_to = self.last_delivered;
        let msg = match self.checkpoint.answer_state_request(above, committed_to) {
            Some((None, entries)) => PbftMsg::StateReply {
                entries,
                committed_to,
            },
            Some((Some(snapshot), tail)) => PbftMsg::SnapshotReply {
                snapshot,
                tail,
                committed_to,
            },
            None => return Vec::new(),
        };
        vec![Step::Send { to: from, msg }]
    }

    /// Applies a state-transfer reply: installs `snapshot` when it is ahead
    /// of the execution frontier (it was certified by a `2f + 1` checkpoint
    /// quorum), then replays the contiguous part of `entries` through the
    /// normal delivery path.
    fn on_state_transfer(
        &mut self,
        from: NodeId,
        snapshot: Option<Arc<StateSnapshot>>,
        entries: Vec<(SeqNo, C)>,
        committed_to: SeqNo,
    ) -> Vec<Step<C, PbftMsg<C>>> {
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
            self.checkpoint.adopt_snapshot(snapshot.clone());
            steps.push(Step::InstallSnapshot { snapshot });
            applied = true;
        }
        for (seq, command) in entries {
            if seq != self.last_delivered + 1 {
                continue; // already executed, or non-contiguous garbage
            }
            self.slots.remove(&seq);
            self.deliver(seq, command, &mut steps);
            applied = true;
        }
        if applied {
            self.checkpoint.transfer_applied();
            steps.extend(self.drain_deliveries());
        }
        steps.extend(self.maybe_request_state());
        steps
    }

    /// Called by the adapter when the progress timer fires while requests are
    /// outstanding: suspect the primary and start a view change.
    pub fn on_progress_timeout(&mut self) -> Vec<Step<C, PbftMsg<C>>> {
        if self.is_primary() && !self.in_view_change {
            return Vec::new();
        }
        // Escalate past the last attempted view so a crashed candidate
        // primary is skipped on the next timeout instead of retried forever.
        self.start_view_change(self.view.max(self.highest_vc) + 1)
    }

    fn prepared_certificates(&self) -> Vec<(SeqNo, u64, C)> {
        // Every prepared entry above the stable checkpoint is included,
        // executed ones too: quorum intersection then guarantees the new
        // primary's merge sees each committed value, so an executed sequence
        // number can never be re-assigned to a different command while some
        // straggler still waits for it.
        self.slots
            .iter()
            .filter(|(seq, slot)| {
                **seq > self.checkpoint.stable() && slot.prepared && slot.cmd.is_some()
            })
            .map(|(seq, slot)| {
                (
                    *seq,
                    slot.pre_prepared_view,
                    slot.cmd.clone().expect("prepared slot has a command"),
                )
            })
            .collect()
    }

    fn start_view_change(&mut self, new_view: u64) -> Vec<Step<C, PbftMsg<C>>> {
        if new_view <= self.view {
            return Vec::new();
        }
        self.in_view_change = true;
        self.highest_vc = self.highest_vc.max(new_view);
        let prepared = self.prepared_certificates();
        let stable = self.checkpoint.stable();
        let msg = PbftMsg::ViewChange {
            new_view,
            prepared: prepared.clone(),
            checkpoint: stable,
        };
        let mut steps = self.record_view_change_vote(self.me, new_view, prepared, stable);
        steps.insert(0, Step::Broadcast { msg });
        steps
    }

    fn on_view_change(
        &mut self,
        from: NodeId,
        new_view: u64,
        prepared: Vec<(SeqNo, u64, C)>,
        checkpoint: SeqNo,
    ) -> Vec<Step<C, PbftMsg<C>>> {
        if new_view <= self.view {
            return Vec::new();
        }
        let mut steps = Vec::new();
        // Join the view change once f + 1 distinct replicas (or a timeout)
        // suggest it; for simplicity we join on first receipt, which is safe
        // (liveness is driven by timeouts either way).  Re-join whenever a
        // peer escalates beyond our last attempt.
        if !self.in_view_change || new_view > self.highest_vc {
            steps.extend(self.start_view_change(new_view));
        }
        steps.extend(self.record_view_change_vote(from, new_view, prepared, checkpoint));
        steps
    }

    /// True if two view-change votes carry different certificates (compared
    /// by digest, so only genuine payload conflicts count).
    fn votes_conflict(a: &ViewChangeVote<C>, b: &ViewChangeVote<C>) -> bool {
        a.1 != b.1
            || a.0.len() != b.0.len()
            || a.0
                .iter()
                .zip(b.0.iter())
                .any(|((s1, v1, c1), (s2, v2, c2))| {
                    s1 != s2 || v1 != v2 || c1.digest() != c2.digest()
                })
    }

    /// Conflicting certificates (twin view-change votes, rejected twin
    /// new-view messages) this replica has detected and discarded.
    pub fn certificate_conflicts(&self) -> u64 {
        self.certificate_conflicts
    }

    fn record_view_change_vote(
        &mut self,
        from: NodeId,
        new_view: u64,
        prepared: Vec<(SeqNo, u64, C)>,
        checkpoint: SeqNo,
    ) -> Vec<Step<C, PbftMsg<C>>> {
        // Defence against equivocating view-change certificates: a sender
        // whose earlier vote for this view conflicts with the new one is a
        // provable equivocator — discard both votes and ignore the sender
        // for this view.  Identical re-deliveries are harmless overwrites,
        // and a replica always trusts its own vote.
        if self
            .vc_tainted
            .get(&new_view)
            .is_some_and(|t| t.contains(&from))
        {
            return Vec::new();
        }
        let vote = (prepared, checkpoint);
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
        if !i_am_new_primary || votes.len() < self.quorum_2f_plus_1() {
            return Vec::new();
        }
        // Merge prepared certificates, preferring the highest view per slot.
        let mut merged: BTreeMap<SeqNo, (u64, C)> = BTreeMap::new();
        let mut checkpoint_frontier = self.checkpoint.stable();
        let mut checkpoint_floor = self.checkpoint.stable();
        let mut best_voter: Option<(SeqNo, NodeId)> = None;
        for (voter, (prep, cp)) in votes.iter() {
            checkpoint_frontier = checkpoint_frontier.max(*cp);
            checkpoint_floor = checkpoint_floor.min(*cp);
            if best_voter.is_none() || best_voter.is_some_and(|(best, _)| *cp > best) {
                best_voter = Some((*cp, *voter));
            }
            for (seq, v, cmd) in prep {
                match merged.get(seq) {
                    Some((existing, _)) if existing >= v => {}
                    _ => {
                        merged.insert(*seq, (*v, cmd.clone()));
                    }
                }
            }
        }
        // A voter checkpointed past this new primary's own frontier: the
        // primary itself may need state transfer to resume execution.
        if let Some((cp, voter)) = best_voter {
            if voter != self.me {
                self.checkpoint.note_hint(cp, voter);
            }
        }
        self.view = new_view;
        self.in_view_change = false;
        self.view_change_votes.remove(&new_view);
        // Taint records for completed views are no longer consulted.
        self.vc_tainted.retain(|v, _| *v > new_view);

        // The re-proposed log starts at the *lowest* voter checkpoint (not
        // the highest): a straggling voter above the low checkpoint but
        // behind the high one still needs those entries re-run, and
        // re-preparing an entry a peer already checkpointed is ignored by
        // that peer's `seq <= stable_checkpoint` guards.
        let log: Vec<(SeqNo, C)> = merged
            .iter()
            .filter(|(seq, _)| **seq > checkpoint_floor)
            .map(|(seq, (_, cmd))| (*seq, cmd.clone()))
            .collect();
        // Re-install the entries locally as pre-prepared in the new view.
        for (seq, cmd) in &log {
            let digest = cmd.digest();
            let slot = self.slots.entry(*seq).or_default();
            slot.cmd = Some(cmd.clone());
            slot.digest = Some(digest);
            slot.pre_prepared_view = new_view;
            // Committed entries keep their `committed` flag; only the vote
            // sets restart for the new view.
            slot.prepares.clear();
            slot.commits.clear();
            slot.prepared = false;
            slot.prepares.insert(self.me);
        }
        self.next_seq = self
            .slots
            .keys()
            .max()
            .copied()
            .unwrap_or(checkpoint_frontier)
            .max(checkpoint_frontier)
            + 1;

        let mut steps = vec![
            Step::ViewChanged {
                view: new_view,
                primary: self.me,
            },
            Step::Broadcast {
                msg: PbftMsg::NewView {
                    view: new_view,
                    log,
                    checkpoint: checkpoint_frontier,
                },
            },
        ];
        // A new primary elected while itself below the checkpoint frontier
        // fetches the missing prefix instead of stalling its execution.
        steps.extend(self.maybe_request_state());
        steps
    }

    fn on_new_view(
        &mut self,
        from: NodeId,
        view: u64,
        log: Vec<(SeqNo, C)>,
        checkpoint: SeqNo,
    ) -> Vec<Step<C, PbftMsg<C>>> {
        if view < self.view
            || view <= self.last_new_view
            || from != primary_for_view(view, &self.replicas)
        {
            return Vec::new();
        }
        // Defence against an equivocating new primary: reject a `NewView`
        // that re-proposes a *different* command for a sequence number this
        // replica holds a prepared certificate for — a twin certificate
        // cannot overwrite prepared state.  (Only one `NewView` per view is
        // ever applied; see the `last_new_view` guard above.)
        let conflicts = log.iter().any(|(seq, cmd)| {
            self.slots
                .get(seq)
                .is_some_and(|slot| slot.prepared && slot.digest.is_some_and(|d| d != cmd.digest()))
        });
        if conflicts {
            self.certificate_conflicts += 1;
            return Vec::new();
        }
        self.last_new_view = view;
        self.view = view;
        self.in_view_change = false;
        // The new primary certified this floor with 2f + 1 view-change
        // votes; adopt it.  A replica whose frontier is below the adopted
        // floor is now formally gap-stalled (its missing slots may be
        // garbage-collected everywhere) — the state-transfer request at the
        // end of this handler is what un-sticks it.
        self.checkpoint.adopt_stable(checkpoint);
        self.checkpoint.note_hint(checkpoint, from);
        let mut steps = vec![Step::ViewChanged {
            view,
            primary: from,
        }];
        for (seq, cmd) in log {
            let digest = cmd.digest();
            {
                let slot = self.slots.entry(seq).or_default();
                slot.cmd = Some(cmd);
                slot.digest = Some(digest);
                slot.pre_prepared_view = view;
                slot.prepared = false;
                slot.prepares.clear();
                slot.commits.clear();
                slot.prepares.insert(self.me);
            }
            steps.push(Step::Broadcast {
                msg: PbftMsg::Prepare { view, seq, digest },
            });
            steps.extend(self.check_prepared(seq));
        }
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

    fn make_domain(n: u16) -> (Vec<NodeId>, Vec<PbftReplica<Cmd>>) {
        let d = DomainId::new(1, 0);
        let nodes: Vec<NodeId> = (0..n).map(|i| NodeId::new(d, i)).collect();
        let quorum = QuorumSpec::for_size(FailureModel::Byzantine, n as usize);
        let reps = nodes
            .iter()
            .map(|id| PbftReplica::new(*id, nodes.clone(), quorum).with_checkpoint_interval(4))
            .collect();
        (nodes, reps)
    }

    /// Per-origin initial protocol steps fed into the test network.
    type InitialSteps = Vec<(usize, Vec<Step<Cmd, PbftMsg<Cmd>>>)>;

    fn run_network(
        nodes: &[NodeId],
        reps: &mut [PbftReplica<Cmd>],
        initial: InitialSteps,
        down: &[usize],
    ) -> Vec<Vec<(SeqNo, Cmd)>> {
        let mut delivered = vec![Vec::new(); reps.len()];
        let mut queue: VecDeque<(usize, NodeId, PbftMsg<Cmd>)> = VecDeque::new();
        let index_of = |id: NodeId| nodes.iter().position(|n| *n == id).unwrap();
        let handle = |origin: usize,
                      steps: Vec<Step<Cmd, PbftMsg<Cmd>>>,
                      queue: &mut VecDeque<(usize, NodeId, PbftMsg<Cmd>)>,
                      delivered: &mut Vec<Vec<(SeqNo, Cmd)>>| {
            for step in steps {
                match step {
                    Step::Send { to, msg } => queue.push_back((index_of(to), nodes[origin], msg)),
                    Step::Broadcast { msg } => {
                        for (i, _) in nodes.iter().enumerate() {
                            if i != origin {
                                queue.push_back((i, nodes[origin], msg.clone()));
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
        let absorb_snapshots = |rep: &mut PbftReplica<Cmd>, steps: &[Step<Cmd, PbftMsg<Cmd>>]| {
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
            handle(origin, steps, &mut queue, &mut delivered);
        }
        let mut budget = 200_000;
        while let Some((to, from, msg)) = queue.pop_front() {
            budget -= 1;
            assert!(budget > 0, "message storm");
            if down.contains(&to) {
                continue;
            }
            let steps = reps[to].on_message(from, msg);
            absorb_snapshots(&mut reps[to], &steps);
            handle(to, steps, &mut queue, &mut delivered);
        }
        delivered
    }

    #[test]
    fn normal_case_commits_on_all_replicas() {
        let (nodes, mut reps) = make_domain(4);
        let steps = reps[0].propose(b"tx1".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[]);
        for d in &delivered {
            assert_eq!(d, &vec![(1, b"tx1".to_vec())]);
        }
    }

    #[test]
    fn delivers_many_commands_in_order() {
        let (nodes, mut reps) = make_domain(4);
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
    fn tolerates_f_silent_backups() {
        let (nodes, mut reps) = make_domain(4);
        let steps = reps[0].propose(b"tx".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[3]);
        for (i, d) in delivered.iter().enumerate() {
            if i == 3 {
                assert!(d.is_empty());
            } else {
                assert_eq!(d.len(), 1, "replica {i}");
            }
        }
    }

    #[test]
    fn does_not_commit_with_more_than_f_faulty() {
        let (nodes, mut reps) = make_domain(4);
        let steps = reps[0].propose(b"tx".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[2, 3]);
        assert!(delivered.iter().all(|d| d.is_empty()));
    }

    #[test]
    fn equivocating_pre_prepare_is_ignored() {
        let (nodes, mut reps) = make_domain(4);
        // Deliver a legitimate pre-prepare to replica 1 ...
        let _ = reps[1].on_message(
            nodes[0],
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                cmd: b"first".to_vec(),
            },
        );
        // ... then an equivocating one for the same (view, seq).
        let steps = reps[1].on_message(
            nodes[0],
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                cmd: b"second".to_vec(),
            },
        );
        assert!(steps.is_empty());
    }

    #[test]
    fn twin_view_change_votes_taint_the_sender_for_that_view_only() {
        let (nodes, mut reps) = make_domain(4);
        // Node 1 is the new primary for view 1.  The first vote joins
        // replica 1 into the view change (its own vote is recorded too).
        let vote = |prepared: Vec<(SeqNo, u64, Cmd)>| PbftMsg::ViewChange {
            new_view: 1,
            prepared,
            checkpoint: 0,
        };
        let _ = reps[1].on_message(nodes[3], vote(vec![(1, 0, b"a".to_vec())]));
        // A conflicting twin from the same sender: both votes are discarded
        // and the sender is ignored for this view.
        let _ = reps[1].on_message(nodes[3], vote(vec![(1, 0, b"b".to_vec())]));
        assert_eq!(reps[1].certificate_conflicts(), 1);
        // Further deliveries from the tainted sender are dropped outright —
        // they must not count towards the quorum.
        let _ = reps[1].on_message(nodes[3], vote(vec![(1, 0, b"a".to_vec())]));
        assert_eq!(reps[1].view(), 0, "own + tainted vote must not elect");
        // Honest votes from the remaining replicas still complete the view
        // change: the defence does not cost liveness.
        let _ = reps[1].on_message(nodes[0], vote(Vec::new()));
        let steps = reps[1].on_message(nodes[2], vote(Vec::new()));
        assert!(steps
            .iter()
            .any(|s| matches!(s, Step::ViewChanged { view: 1, .. })));
        assert!(reps[1].is_primary());
        assert_eq!(reps[1].view(), 1);
    }

    #[test]
    fn equivocating_new_view_cannot_overwrite_prepared_state() {
        let (nodes, mut reps) = make_domain(4);
        // Prepare (view 0, seq 1, "good") at replica 2: the pre-prepare from
        // the primary plus prepares from two peers form the certificate.
        let _ = reps[2].on_message(
            nodes[0],
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                cmd: b"good".to_vec(),
            },
        );
        let digest = b"good".to_vec().digest();
        for j in [1usize, 3] {
            let _ = reps[2].on_message(
                nodes[j],
                PbftMsg::Prepare {
                    view: 0,
                    seq: 1,
                    digest,
                },
            );
        }
        // The view-1 primary equivocates: its NewView re-proposes a
        // different command for the prepared slot.  The twin is rejected.
        let steps = reps[2].on_message(
            nodes[1],
            PbftMsg::NewView {
                view: 1,
                log: vec![(1, b"evil".to_vec())],
                checkpoint: 0,
            },
        );
        assert!(steps.is_empty());
        assert_eq!(reps[2].certificate_conflicts(), 1);
        assert_eq!(reps[2].view(), 0);
        // A NewView consistent with the prepared state is still accepted:
        // rejecting the twin does not burn the view.
        let _ = reps[2].on_message(
            nodes[1],
            PbftMsg::NewView {
                view: 1,
                log: vec![(1, b"good".to_vec())],
                checkpoint: 0,
            },
        );
        assert_eq!(reps[2].view(), 1);
    }

    #[test]
    fn pre_prepare_from_non_primary_is_rejected() {
        let (nodes, mut reps) = make_domain(4);
        let steps = reps[2].on_message(
            nodes[1],
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                cmd: b"evil".to_vec(),
            },
        );
        assert!(steps.is_empty());
    }

    #[test]
    // Index-based loops mirror the replica-numbering of the scenario.
    #[allow(clippy::needless_range_loop)]
    fn view_change_elects_new_primary_and_preserves_prepared_requests() {
        let (nodes, mut reps) = make_domain(4);
        // Commit one request, then let the primary go silent with another
        // request only partially processed.
        let s0 = reps[0].propose(b"committed".to_vec());
        run_network(&nodes, &mut reps, vec![(0, s0)], &[]);

        // Prepare (but do not commit) a second request at replicas 1..3 by
        // delivering the pre-prepare and the prepares by hand, discarding the
        // resulting commit broadcasts so the request stays uncommitted.
        let pp = PbftMsg::PrePrepare {
            view: 0,
            seq: 2,
            cmd: b"prepared-only".to_vec(),
        };
        let digest = b"prepared-only".to_vec().digest();
        for i in 1..4 {
            let _ = reps[i].on_message(nodes[0], pp.clone());
        }
        for i in 1..4usize {
            for j in 1..4usize {
                if i != j {
                    let _ = reps[i].on_message(
                        nodes[j],
                        PbftMsg::Prepare {
                            view: 0,
                            seq: 2,
                            digest,
                        },
                    );
                }
            }
        }

        // Now the primary is suspected; replicas 1-3 time out.
        let vc: Vec<_> = (1..4).map(|i| (i, reps[i].on_progress_timeout())).collect();
        let delivered = run_network(&nodes, &mut reps, vc, &[0]);

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
        let s1 = reps[1].propose(b"after-vc".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(1, s1)], &[0]);
        for i in 1..4 {
            assert!(delivered[i].iter().any(|(_, c)| c == b"after-vc"));
        }
    }

    #[test]
    fn checkpointing_garbage_collects_the_log() {
        let (nodes, mut reps) = make_domain(4);
        let mut initial = Vec::new();
        for i in 0..8u8 {
            initial.push((0, reps[0].propose(vec![i])));
        }
        run_network(&nodes, &mut reps, initial, &[]);
        // Interval is 4: after 8 commits the stable checkpoint is 8 and the
        // log holds nothing below it.
        for r in &reps {
            assert_eq!(r.last_delivered(), 8);
            assert_eq!(r.stable_checkpoint(), 8);
            assert_eq!(r.log_len(), 0, "log not garbage collected");
        }
    }

    #[test]
    fn primary_does_not_suspect_itself() {
        let (_nodes, mut reps) = make_domain(4);
        assert!(reps[0].on_progress_timeout().is_empty());
        assert!(!reps[1].on_progress_timeout().is_empty());
    }

    #[test]
    fn repeated_timeouts_escalate_past_a_crashed_candidate() {
        // |p| = 7 tolerates f = 2.  The primary (0) and the view-1 candidate
        // (1) both crash: the five live replicas' first timeout targets view
        // 1 and stalls; the second escalates to view 2, which forms with
        // exactly the 2f + 1 = 5 live replicas.
        let (nodes, mut reps) = make_domain(7);
        let steps = reps[0].propose(b"committed".to_vec());
        run_network(&nodes, &mut reps, vec![(0, steps)], &[]);

        let vc: InitialSteps = (2..7).map(|i| (i, reps[i].on_progress_timeout())).collect();
        run_network(&nodes, &mut reps, vc, &[0, 1]);
        assert_eq!(reps[2].view(), 0, "view 1 must not form without node 1");

        let vc: InitialSteps = (2..7).map(|i| (i, reps[i].on_progress_timeout())).collect();
        run_network(&nodes, &mut reps, vc, &[0, 1]);
        assert_eq!(reps[2].view(), 2);
        assert!(reps[2].is_primary());

        let steps = reps[2].propose(b"after".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(2, steps)], &[0, 1]);
        for (i, d) in delivered.iter().enumerate().skip(3) {
            assert!(
                d.iter().any(|(_, c)| c == b"after"),
                "replica {i} missed the post-escalation commit"
            );
        }
    }

    #[test]
    fn gap_stalled_replica_catches_up_via_state_transfer() {
        let (nodes, mut reps) = make_domain(4);
        let mut reps: Vec<PbftReplica<Cmd>> = reps
            .drain(..)
            .map(|r| r.with_checkpointing(saguaro_types::CheckpointConfig::every(2)))
            .collect();
        // Replica 3 misses six commits; the three survivors stabilise
        // checkpoint 6 (2f + 1 = 3 announcements) and collect their slots.
        let initial: InitialSteps = (0..6u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[3]);
        assert_eq!(reps[0].stable_checkpoint(), 6);
        assert_eq!(reps[0].log_len(), 0);
        assert_eq!(reps[3].last_delivered(), 0);

        // A checkpoint announcement reaches the laggard: it fetches the
        // missed prefix and replays it in order.
        let steps = reps[3].on_message(
            nodes[0],
            PbftMsg::Checkpoint {
                seq: 6,
                digest: saguaro_crypto::sha256(b"modelled"),
            },
        );
        assert!(
            steps.iter().any(|s| matches!(
                s,
                Step::Send {
                    msg: PbftMsg::StateRequest { above: 0 },
                    ..
                }
            )),
            "gap-stalled replica must fetch state: {steps:?}"
        );
        let delivered = run_network(&nodes, &mut reps, vec![(3, steps)], &[]);
        assert_eq!(
            delivered[3],
            (0..6u8)
                .map(|i| (i as u64 + 1, vec![i]))
                .collect::<Vec<_>>()
        );
        assert_eq!(reps[3].last_delivered(), 6);

        // Execution resumes on all four replicas.
        let steps = reps[0].propose(b"after".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[]);
        assert!(delivered[3]
            .iter()
            .any(|(seq, c)| *seq == 7 && c == b"after"));
    }

    #[test]
    fn pruned_responder_serves_snapshot_catch_up() {
        let (nodes, mut reps) = make_domain(4);
        let mut reps: Vec<PbftReplica<Cmd>> = reps
            .drain(..)
            .map(|r| {
                r.with_checkpointing(saguaro_types::CheckpointConfig::every(2).with_retention(2))
            })
            .collect();
        // Replica 3 misses twelve commits; the survivors stabilise
        // checkpoints, snapshot, and prune the chain prefix — the missed
        // prefix can no longer be replayed entry by entry.
        let initial: InitialSteps = (0..12u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[3]);
        assert_eq!(reps[0].last_delivered(), 12);
        assert!(reps[0].chain_start() > 1, "responder's log must be pruned");
        assert!(reps[0].snapshot_seq().is_some());
        assert_eq!(reps[3].last_delivered(), 0);

        // A checkpoint announcement reaches the laggard: the pruned
        // responder answers with a snapshot plus the retained tail.
        let steps = reps[3].on_message(
            nodes[0],
            PbftMsg::Checkpoint {
                seq: 12,
                digest: saguaro_crypto::sha256(b"modelled"),
            },
        );
        assert!(
            steps.iter().any(|s| matches!(
                s,
                Step::Send {
                    msg: PbftMsg::StateRequest { above: 0 },
                    ..
                }
            )),
            "gap-stalled replica must fetch state: {steps:?}"
        );
        let delivered = run_network(&nodes, &mut reps, vec![(3, steps)], &[]);
        assert_eq!(reps[3].last_delivered(), 12);
        assert_eq!(
            reps[3].snapshot_seq().unwrap_or(0) + delivered[3].len() as u64,
            12,
            "snapshot + replayed tail must cover the whole gap"
        );

        // Execution resumes on all four replicas.
        let steps = reps[0].propose(b"after".to_vec());
        let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[]);
        assert!(delivered[3]
            .iter()
            .any(|(seq, c)| *seq == 13 && c == b"after"));
    }

    #[test]
    fn finite_retention_bounds_the_delivered_chain() {
        let (nodes, mut reps) = make_domain(4);
        let mut reps: Vec<PbftReplica<Cmd>> = reps
            .drain(..)
            .map(|r| {
                r.with_checkpointing(saguaro_types::CheckpointConfig::every(2).with_retention(2))
            })
            .collect();
        let initial: InitialSteps = (0..20u8).map(|i| (0, reps[0].propose(vec![i]))).collect();
        run_network(&nodes, &mut reps, initial, &[]);
        for r in &reps {
            assert_eq!(r.last_delivered(), 20);
            assert!(
                r.chain_len() <= 4,
                "retention 2 (interval 2) must bound the chain, got {}",
                r.chain_len()
            );
            assert!(r.chain_start() > 1, "the chain prefix must be pruned");
        }
    }

    #[test]
    fn bigger_domains_commit_too() {
        // |p| = 7 and 13 are the Figure 13 settings.
        for n in [7u16, 13] {
            let (nodes, mut reps) = make_domain(n);
            let steps = reps[0].propose(b"tx".to_vec());
            let delivered = run_network(&nodes, &mut reps, vec![(0, steps)], &[]);
            assert!(delivered.iter().all(|d| d.len() == 1), "n={n}");
        }
    }
}
