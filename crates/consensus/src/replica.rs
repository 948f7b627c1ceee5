//! The replica of one domain: one slot table under either agreement rule.
//!
//! Higher layers (the Saguaro node, the baselines, the experiment harness)
//! hold one [`ConsensusReplica`] per domain member and do not care whether
//! the domain is crash-only or Byzantine.  The replica owns the slots — one
//! `Slot` per sequence number, the same type under both rules — and
//! everything the two protocols have in common: membership and views, the
//! delivery frontier, checkpoint agreement and garbage collection, state
//! transfer, timeout escalation and the view-change vote table with its
//! defence against conflicting votes.  Only the normal-case message
//! handlers live apart ([`crate::paxos`], [`crate::pbft`]); the few places
//! the rules differ beyond them are named branches on the domain's failure
//! model.
//!
//! The replica is also where request batching lives: it orders [`Batch`]es
//! of commands (digest = Merkle root over the member digests), and the
//! leader-side [`Batcher`] accumulates commands handed to
//! [`ConsensusReplica::propose_into`] until a block is cut by size or — via the
//! adapter's flush timer calling [`ConsensusReplica::flush`] — by age.
//! Every [`Step::Deliver`] therefore hands back a whole batch; consumers
//! unpack it into per-command execution.

use crate::batch::{Batch, BatchConfig, Batcher};
use crate::checkpoint::CheckpointKeeper;
use crate::interface::{primary_for_view, Command, Step};
use crate::msg::{ConsensusMsg, MsgBody};
use saguaro_crypto::Digest;
use saguaro_types::{CheckpointConfig, FailureModel, NodeId, QuorumSpec, SeqNo, StateSnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a replica asks of its adapter in response to one input.  Every entry
/// point appends to a buffer the adapter owns and drains, so a step list is
/// never allocated per input.
pub type Steps<C> = Vec<Step<Batch<C>, ConsensusMsg<C>>>;

/// The members of a domain that voted for one slot in one phase: bit `i` is
/// the replica at position `i` of the domain's sorted replica list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct VoteMask(u64);

impl VoteMask {
    /// The largest domain a mask can count.
    pub(crate) const CAPACITY: usize = u64::BITS as usize;

    /// Records the vote of `voter`.  A node outside `replicas` (sorted) has
    /// no bit, so its vote counts for nothing.
    pub(crate) fn insert(&mut self, replicas: &[NodeId], voter: NodeId) {
        if let Ok(position) = replicas.binary_search(&voter) {
            self.0 |= 1 << position;
        }
    }

    /// True if `voter` (a member of the sorted `replicas`) has voted.
    pub(crate) fn contains(self, replicas: &[NodeId], voter: NodeId) -> bool {
        matches!(replicas.binary_search(&voter), Ok(p) if self.0 & 1 << p != 0)
    }

    /// Distinct members that voted.
    pub(crate) fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// One sequence number's state, whichever rule fills it.  A Paxos slot
/// exists once it holds an accepted block; a PBFT slot can collect votes
/// before its pre-prepare arrives.  Whether a slot is prepared is not
/// stored but read from what it holds ([`ConsensusReplica::prepared`]).
#[derive(Clone, Debug)]
pub(crate) struct Slot<C> {
    /// The block proposed (PBFT) or accepted (Paxos) here.
    pub(crate) batch: Option<Batch<C>>,
    /// The view `batch` was proposed or accepted in.
    pub(crate) view: u64,
    /// First-phase votes, this replica's included: Paxos `Accepted`s, PBFT
    /// `Prepare`s.
    pub(crate) votes: VoteMask,
    /// PBFT `Commit`s, this replica's own once prepared (empty under Paxos).
    pub(crate) commits: VoteMask,
    /// The slot is chosen; it is delivered once every slot below it is.
    pub(crate) committed: bool,
}

impl<C> Default for Slot<C> {
    fn default() -> Self {
        Self {
            batch: None,
            view: 0,
            votes: VoteMask::default(),
            commits: VoteMask::default(),
            committed: false,
        }
    }
}

impl<C: Command> Slot<C> {
    /// Stores `batch` as proposed or accepted in `view`, keeping the slot's
    /// votes and flags.  A committed slot never takes a different block.
    pub(crate) fn hold(&mut self, batch: Batch<C>, view: u64) -> &mut Self {
        debug_assert!(
            !self.committed || self.digest() == Some(batch.digest()),
            "a slot committed in view {} was handed a different block in view {view}",
            self.view
        );
        self.batch = Some(batch);
        self.view = view;
        self
    }

    /// Digest of the block the slot holds, if any.
    pub(crate) fn digest(&self) -> Option<Digest> {
        self.batch.as_ref().map(Batch::digest)
    }
}

/// One replica's view-change vote.
#[derive(Clone, Debug)]
struct ViewChangeVote<C> {
    /// The `(seq, view, block)` entries the voter holds above its checkpoint.
    entries: Vec<(SeqNo, u64, Batch<C>)>,
    /// The delivery frontier the vote states
    /// (see [`ConsensusReplica::vote_frontier`]).
    last_delivered: SeqNo,
    /// The voter's stable checkpoint.
    checkpoint: SeqNo,
}

/// A replica of one domain running whichever protocol the domain's failure
/// model requires, plus the leader-side request batcher.
#[derive(Clone, Debug)]
pub struct ConsensusReplica<C> {
    pub(crate) me: NodeId,
    pub(crate) replicas: Vec<NodeId>,
    pub(crate) quorum: QuorumSpec,
    pub(crate) view: u64,
    /// Next sequence number the primary will assign.
    next_seq: SeqNo,
    /// Last sequence delivered to the application (no gaps).
    pub(crate) last_delivered: SeqNo,
    /// The slot table: every sequence number above the stable checkpoint
    /// that holds a block or a vote.
    pub(crate) slots: BTreeMap<SeqNo, Slot<C>>,
    /// Paxos: Learns that arrived before their Accept (out-of-order
    /// delivery), keyed by sequence number, holding the view the Learn was
    /// issued in; applied once an Accept from that view (or newer) fills
    /// the slot.
    pub(crate) pending_learns: BTreeMap<SeqNo, u64>,
    /// View-change ballots per proposed view above the current one.  A
    /// `None` ballot marks a sender caught sending two *conflicting* votes
    /// for that view (a Byzantine twin; Paxos assumes crash faults, but a
    /// misbehaving replica must not poison the merge either): it counts for
    /// nothing in that view, and the next view change starts clean.
    view_change_votes: BTreeMap<u64, BTreeMap<NodeId, Option<ViewChangeVote<C>>>>,
    /// Conflicting certificates detected and discarded (twin view-change
    /// votes and, under PBFT, rejected twin new-view messages).
    pub(crate) certificate_conflicts: u64,
    /// True while a view change is in progress (stop accepting in old view).
    pub(crate) in_view_change: bool,
    /// Highest view this replica has voted a view change towards.  Repeated
    /// progress timeouts escalate past it, so a view whose would-be primary
    /// is itself crashed cannot wedge the domain.
    highest_vc: u64,
    /// Checkpoint agreement (the classic PBFT low-water mark), state-transfer
    /// pacing and the durable chain.  Both rules announce every
    /// [`CheckpointConfig::DEFAULT_INTERVAL`] deliveries unless
    /// [`ConsensusReplica::with_checkpointing`] sets another interval.
    pub(crate) checkpoint: CheckpointKeeper<Batch<C>>,
    batcher: Batcher<C>,
}

impl<C: Command> ConsensusReplica<C> {
    /// Creates the appropriate replica for a domain with the given quorum
    /// specification, with batching disabled (`max_batch = 1`).
    pub fn new(me: NodeId, replicas: Vec<NodeId>, quorum: QuorumSpec) -> Self {
        Self::with_batching(me, replicas, quorum, BatchConfig::unbatched())
    }

    /// Creates a replica whose leader cuts blocks according to `batch`.
    /// `replicas` must be the same list on every member of the domain.
    ///
    /// # Panics
    ///
    /// If `me` is not one of `replicas` (which includes an empty list): such
    /// a replica could never lead or commit.  If the domain has more than 64
    /// members: a slot's votes are counted in a 64-bit mask.
    pub fn with_batching(
        me: NodeId,
        mut replicas: Vec<NodeId>,
        quorum: QuorumSpec,
        batch: BatchConfig,
    ) -> Self {
        assert!(
            replicas.contains(&me),
            "consensus replica {me:?} is not in its domain's replica list {replicas:?}"
        );
        assert!(
            replicas.len() <= VoteMask::CAPACITY,
            "a domain of {} replicas exceeds the {} a vote mask can count",
            replicas.len(),
            VoteMask::CAPACITY
        );
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
            certificate_conflicts: 0,
            in_view_change: false,
            highest_vc: 0,
            checkpoint: CheckpointKeeper::new(CheckpointConfig::default()),
            batcher: Batcher::new(batch),
        }
    }

    /// Replaces the checkpoint / state-transfer configuration (builder
    /// style): the announcement interval and the retention window.
    pub fn with_checkpointing(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = CheckpointKeeper::new(checkpoint);
        self
    }

    /// The last stable (quorum-certified executed) checkpoint; 0 before the
    /// first one.
    pub fn stable_checkpoint(&self) -> SeqNo {
        self.checkpoint.stable()
    }

    /// Number of entries a view-change vote sent right now would carry —
    /// bounded by `history − stable checkpoint`.
    pub fn vote_entries(&self) -> usize {
        self.vote_entries_above(self.checkpoint.stable()).count()
    }

    /// The quorum rules of this replica's domain.
    pub fn quorum(&self) -> QuorumSpec {
        self.quorum
    }

    /// True if the domain runs PBFT (Byzantine failure model).
    pub fn is_byzantine(&self) -> bool {
        self.quorum.model == FailureModel::Byzantine
    }

    /// Conflicting view-change / new-view certificates this replica has
    /// detected and discarded (twin certificates from an equivocating peer).
    pub fn certificate_conflicts(&self) -> u64 {
        self.certificate_conflicts
    }

    /// Commands accumulated by the leader but not yet cut into a block.
    /// Non-zero only between a `propose` that left a block filling and the
    /// next cut (by size) or [`ConsensusReplica::flush`] (by the adapter's
    /// delay timer).
    pub fn pending_commands(&self) -> usize {
        self.batcher.pending()
    }

    /// The current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The primary of the current view.
    pub fn primary(&self) -> NodeId {
        primary_for_view(self.view, &self.replicas)
    }

    /// True if this replica is the primary of the current view.
    pub fn is_primary(&self) -> bool {
        self.primary() == self.me
    }

    /// Last delivered sequence number (counts blocks, not member commands).
    pub fn last_delivered(&self) -> SeqNo {
        self.last_delivered
    }

    /// Hands the keeper the application snapshot the adapter materialized in
    /// response to a [`Step::TakeSnapshot`] (or obtained out of band).
    /// Stale snapshots (at or below the one already held) are ignored.
    pub fn store_snapshot(&mut self, snapshot: Arc<StateSnapshot>) {
        self.checkpoint
            .store_snapshot(snapshot, self.replicas.len());
    }

    /// Number of delivered entries retained in the durable chain (the whole
    /// history under `retention = ∞`, a bounded suffix otherwise).
    pub fn chain_len(&self) -> u64 {
        self.checkpoint.chain_len()
    }

    /// First sequence number still retained in the durable chain
    /// (`last_delivered + 1` when nothing is retained).
    pub fn chain_start(&self) -> SeqNo {
        self.checkpoint.chain_start(self.last_delivered)
    }

    /// A message of this domain's protocol.
    pub(crate) fn msg(&self, body: MsgBody<C>) -> ConsensusMsg<C> {
        ConsensusMsg {
            model: self.quorum.model,
            body,
        }
    }

    /// Hands a command to the leader-side batcher (no-op on non-primaries)
    /// and drives consensus on the cut block, if the push completed one,
    /// appending the resulting steps to `out`.
    ///
    /// When this appends no steps but [`ConsensusReplica::pending_commands`]
    /// is non-zero, the adapter must arrange for
    /// [`ConsensusReplica::flush`] to run within its flush delay.
    pub fn propose_into(&mut self, cmd: C, out: &mut Steps<C>) {
        if !self.is_primary() {
            return;
        }
        if let Some(batch) = self.batcher.push(cmd) {
            self.propose_batch(batch, out);
        }
    }

    /// Cuts and proposes whatever the batcher holds (the flush-timer path),
    /// appending the resulting steps to `out`.
    ///
    /// If the proposal is refused — the flush timer raced a view change that
    /// deposed (or is deposing) this leader — the commands are put back into
    /// the batcher rather than destroyed: they are retried by the next cut,
    /// and commit if this replica leads again.  (The `propose_into` path
    /// deliberately keeps the legacy semantics instead — a command handed to
    /// a mid-view-change leader is dropped, exactly as the unbatched
    /// pipeline dropped it.)
    pub fn flush(&mut self, out: &mut Steps<C>) {
        let Some(batch) = self.batcher.flush() else {
            return;
        };
        let retry = batch.clone();
        let before = out.len();
        self.propose_batch(batch, out);
        if out.len() == before {
            // Any accepted proposal is at least broadcast; no steps means
            // it was refused.
            self.batcher.restore(retry);
        }
    }

    /// Assigns the next sequence number to `batch` and starts the rule's
    /// normal case on it.  Only the primary drives consensus (the adapter
    /// forwards client requests to it), and not while a view change runs.
    fn propose_batch(&mut self, batch: Batch<C>, out: &mut Steps<C>) {
        if !self.is_primary() || self.in_view_change {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.quorum.model {
            FailureModel::Crash => self.propose_accept(seq, batch, out),
            FailureModel::Byzantine => self.propose_pre_prepare(seq, batch, out),
        }
    }

    /// Handles a wire message from a peer replica, appending the resulting
    /// steps to `out`.  Messages of the wrong protocol (which a Byzantine
    /// peer could fabricate), and the other rule's normal-case bodies under
    /// this one's name, are ignored.
    pub fn on_message_into(&mut self, from: NodeId, msg: ConsensusMsg<C>, out: &mut Steps<C>) {
        // A node outside the domain has no say in it: no vote, no view
        // change, no checkpoint, no state transfer.
        if msg.model != self.quorum.model || self.replicas.binary_search(&from).is_err() {
            return;
        }
        let paxos = self.quorum.model == FailureModel::Crash;
        match msg.body {
            MsgBody::Accept { view, seq, batch } if paxos => {
                self.on_accept(from, view, seq, batch, out)
            }
            MsgBody::Accepted { view, seq, digest } if paxos => {
                self.on_accepted(from, view, seq, digest, out)
            }
            MsgBody::Learn { view, seq } if paxos => self.on_learn(from, view, seq, out),
            MsgBody::PrePrepare { view, seq, batch } if !paxos => {
                self.on_pre_prepare(from, view, seq, batch, out)
            }
            MsgBody::Prepare { view, seq, digest } if !paxos => {
                self.on_prepare(from, view, seq, digest, out)
            }
            MsgBody::Commit { view, seq, digest } if !paxos => {
                self.on_commit(from, view, seq, digest, out)
            }
            MsgBody::Accept { .. }
            | MsgBody::Accepted { .. }
            | MsgBody::Learn { .. }
            | MsgBody::PrePrepare { .. }
            | MsgBody::Prepare { .. }
            | MsgBody::Commit { .. } => {}
            MsgBody::ViewChange {
                new_view,
                entries,
                last_delivered,
                checkpoint,
            } => {
                let vote = ViewChangeVote {
                    entries,
                    last_delivered: self.vote_frontier(last_delivered),
                    checkpoint,
                };
                self.on_view_change(from, new_view, vote, out)
            }
            MsgBody::NewView {
                view,
                log,
                frontier,
            } => self.on_new_view(from, view, log, frontier, out),
            MsgBody::Checkpoint { seq, .. } => self.on_checkpoint(from, seq, out),
            MsgBody::StateRequest { above } => self.on_state_request(from, above, out),
            MsgBody::StateReply {
                entries,
                committed_to,
            } => self.on_state_transfer(from, None, entries, committed_to, out),
            MsgBody::SnapshotReply {
                snapshot,
                tail,
                committed_to,
            } => self.on_state_transfer(from, Some(snapshot), tail, committed_to, out),
        }
    }

    /// Emits `Deliver` steps for every committed block that directly follows
    /// the last delivered sequence number, retaining each in the durable
    /// chain and announcing periodic checkpoints when configured.
    pub(crate) fn drain_deliveries(&mut self, out: &mut Steps<C>) {
        while let Some(batch) = self.committed(self.last_delivered + 1).cloned() {
            self.deliver(self.last_delivered + 1, batch, out);
        }
    }

    /// The block at `seq`, if that slot is committed.
    fn committed(&self, seq: SeqNo) -> Option<&Batch<C>> {
        let slot = self.slots.get(&seq).filter(|slot| slot.committed)?;
        Some(
            slot.batch
                .as_ref()
                .expect("a committed slot holds its block"),
        )
    }

    /// True if `slot` is prepared here: under Paxos, it holds its accepted
    /// block; under PBFT, its commits hold this replica's own vote, which
    /// `check_prepared` casts and a re-install clears.
    pub(crate) fn prepared(&self, slot: &Slot<C>) -> bool {
        match self.quorum.model {
            FailureModel::Crash => slot.batch.is_some(),
            FailureModel::Byzantine => slot.commits.contains(&self.replicas, self.me),
        }
    }

    /// The `(seq, view, block)` entries above `stable` a view-change vote
    /// carries: every committed or prepared slot, delivered ones included (a
    /// PBFT re-install leaves a committed slot unprepared until it prepares
    /// again).  Quorum intersection then guarantees the new primary's merge
    /// sees each chosen value even when the only voter still holding it has
    /// executed it; leaving executed or committed slots out once let a new
    /// leader re-number them with a fresh block, forking stragglers.
    /// Entries at or below the checkpoint are quorum-executed and immutable;
    /// laggards that still need them catch up through state transfer, so
    /// omitting them is what bounds the vote by `history − checkpoint`.
    fn vote_entries_above(&self, stable: SeqNo) -> impl Iterator<Item = (SeqNo, u64, &Batch<C>)> {
        let voted = self.slots.range(stable + 1..);
        let voted = voted.filter(|(_, slot)| slot.committed || self.prepared(slot));
        voted.filter_map(|(seq, slot)| Some((*seq, slot.view, slot.batch.as_ref()?)))
    }

    /// Drops every slot, and every buffered Learn, at or below `floor`.
    fn purge_through(&mut self, floor: SeqNo) {
        self.slots.retain(|seq, _| *seq > floor);
        self.pending_learns.retain(|seq, _| *seq > floor);
    }

    /// Delivers the entry at `seq` (the next one in order): emits the step,
    /// retains the entry for state transfer and announces a checkpoint at
    /// interval boundaries.
    fn deliver(&mut self, seq: SeqNo, batch: Batch<C>, out: &mut Steps<C>) {
        out.push(Step::Deliver {
            seq,
            command: batch.clone(),
        });
        self.last_delivered = seq;
        let announce = self.checkpoint.announces_at(seq).then(|| batch.digest());
        self.checkpoint.retain(seq, batch);
        let Some(digest) = announce else {
            return;
        };
        out.push(Step::Broadcast {
            msg: self.msg(MsgBody::Checkpoint { seq, digest }),
        });
        if self.checkpoint.prunes() {
            // The adapter materializes its state as of this point in the
            // stream and hands it back via `store_snapshot`.
            out.push(Step::TakeSnapshot { seq });
        }
        match self.quorum.model {
            // Paxos records its own announcement as a plain vote.
            FailureModel::Crash => {
                let quorum = self.quorum.commit_quorum();
                if self
                    .checkpoint
                    .record_vote(self.me, seq, quorum, self.last_delivered)
                {
                    self.gc_below_stable();
                }
            }
            // PBFT handles it like a peer's: the prune floor is re-evaluated
            // and a state request may go out.  That request's pacing is
            // stateful, so the extra evaluation is observable.
            FailureModel::Byzantine => self.on_checkpoint(self.me, seq, out),
        }
    }

    /// Garbage-collects every slot at or below the stable checkpoint.  Safe
    /// because stabilisation requires this replica to have executed the
    /// floor: everything dropped has already been delivered locally.
    fn gc_below_stable(&mut self) {
        self.purge_through(self.checkpoint.stable());
        self.checkpoint.prune_entry_state(self.replicas.len());
    }

    fn on_checkpoint(&mut self, from: NodeId, seq: SeqNo, out: &mut Steps<C>) {
        if from != self.me {
            // A peer's announced floor proves `seq` committed there.
            self.checkpoint.note_hint(seq, from);
        }
        let quorum = self.quorum.commit_quorum();
        if self
            .checkpoint
            .record_vote(from, seq, quorum, self.last_delivered)
        {
            self.gc_below_stable();
        }
        // Even a non-stabilising announcement can raise the prune floor
        // (the announcer's executed floor is new evidence).
        self.checkpoint.prune_entry_state(self.replicas.len());
        self.maybe_request_state(out);
    }

    /// Fetches missing committed entries when the commit-frontier evidence
    /// runs ahead of a gap this replica cannot fill from its own slots (e.g.
    /// after a `NewView` jumped the stable checkpoint past its frontier).
    pub(crate) fn maybe_request_state(&mut self, out: &mut Steps<C>) {
        let next_commits = self.committed(self.last_delivered + 1).is_some();
        match self
            .checkpoint
            .should_request(self.last_delivered, next_commits)
        {
            Some(peer) if peer != self.me => out.push(Step::Send {
                to: peer,
                msg: self.msg(MsgBody::StateRequest {
                    above: self.last_delivered,
                }),
            }),
            _ => {}
        }
    }

    fn on_state_request(&mut self, from: NodeId, above: SeqNo, out: &mut Steps<C>) {
        let committed_to = self.last_delivered;
        let body = match self.checkpoint.answer_state_request(above, committed_to) {
            Some((None, entries)) => MsgBody::StateReply {
                entries,
                committed_to,
            },
            Some((Some(snapshot), tail)) => MsgBody::SnapshotReply {
                snapshot,
                tail,
                committed_to,
            },
            None => return,
        };
        out.push(Step::Send {
            to: from,
            msg: self.msg(body),
        });
    }

    /// Applies a state-transfer reply: installs `snapshot` when it is ahead
    /// of the execution frontier (under PBFT it was certified by a `2f + 1`
    /// checkpoint quorum), then replays the contiguous part of `entries`
    /// through the normal delivery path.
    fn on_state_transfer(
        &mut self,
        from: NodeId,
        snapshot: Option<Arc<StateSnapshot>>,
        entries: Vec<(SeqNo, Batch<C>)>,
        committed_to: SeqNo,
        out: &mut Steps<C>,
    ) {
        self.checkpoint.note_hint(committed_to, from);
        let mut applied = false;
        if let Some(snapshot) = snapshot.filter(|s| s.seq > self.last_delivered) {
            // Jump the execution frontier to the snapshot point: everything
            // at or below it is superseded by the snapshot's state.
            self.last_delivered = snapshot.seq;
            self.next_seq = self.next_seq.max(snapshot.seq + 1);
            self.purge_through(snapshot.seq);
            self.checkpoint.adopt_snapshot(snapshot.clone());
            out.push(Step::InstallSnapshot { snapshot });
            applied = true;
        }
        for (seq, batch) in entries {
            if seq != self.last_delivered + 1 {
                continue; // already executed, or non-contiguous garbage
            }
            self.slots.remove(&seq);
            self.pending_learns.remove(&seq);
            self.deliver(seq, batch, out);
            applied = true;
        }
        if applied {
            self.checkpoint.transfer_applied();
            // Committed slots stranded above the gap drain now.
            self.drain_deliveries(out);
        }
        self.maybe_request_state(out);
    }

    /// Called by the adapter when the progress timer fires while requests are
    /// outstanding: suspect the primary and start a view change, appending
    /// the resulting steps to `out`.
    pub fn on_progress_timeout(&mut self, out: &mut Steps<C>) {
        // The primary itself does not suspect itself.
        if !self.is_primary() || self.in_view_change {
            // Escalate past any view change already attempted: if the
            // candidate primary of the last attempt is itself dead, the next
            // timeout must move on to the following replica rather than
            // retry forever.
            self.start_view_change(self.view.max(self.highest_vc) + 1, out);
        }
    }

    /// The delivery frontier a view-change vote states.  A Paxos vote carries
    /// the sender's `last_delivered` — crash-only replicas do not lie, and
    /// the new leader re-proposes from the lowest one.  A PBFT vote states
    /// none: a Byzantine voter's word about its own execution proves
    /// nothing, only its quorum-certified checkpoint does.
    fn vote_frontier(&self, last_delivered: SeqNo) -> SeqNo {
        match self.quorum.model {
            FailureModel::Crash => last_delivered,
            FailureModel::Byzantine => 0,
        }
    }

    fn start_view_change(&mut self, new_view: u64, out: &mut Steps<C>) {
        if new_view <= self.view {
            return;
        }
        self.in_view_change = true;
        self.highest_vc = self.highest_vc.max(new_view);
        let stable = self.checkpoint.stable();
        let vote = ViewChangeVote {
            entries: self
                .vote_entries_above(stable)
                .map(|(seq, view, batch)| (seq, view, batch.clone()))
                .collect(),
            last_delivered: self.vote_frontier(self.last_delivered),
            checkpoint: stable,
        };
        out.push(Step::Broadcast {
            msg: self.msg(MsgBody::ViewChange {
                new_view,
                entries: vote.entries.clone(),
                last_delivered: vote.last_delivered,
                checkpoint: vote.checkpoint,
            }),
        });
        // Record our own vote.
        self.record_view_change_vote(self.me, new_view, vote, out);
    }

    fn on_view_change(
        &mut self,
        from: NodeId,
        new_view: u64,
        vote: ViewChangeVote<C>,
        out: &mut Steps<C>,
    ) {
        if new_view <= self.view {
            return;
        }
        // Join the view change ourselves (echo) the first time we hear of
        // it — safe, since liveness is driven by timeouts either way — and
        // again whenever a peer escalates beyond our last attempt.
        if !self.in_view_change || new_view > self.highest_vc {
            self.start_view_change(new_view, out);
        }
        self.record_view_change_vote(from, new_view, vote, out);
    }

    /// True if two view-change votes carry different certificates (compared
    /// by digest, so only genuine payload conflicts count).
    fn votes_conflict(a: &ViewChangeVote<C>, b: &ViewChangeVote<C>) -> bool {
        a.last_delivered != b.last_delivered
            || a.checkpoint != b.checkpoint
            || a.entries.len() != b.entries.len()
            || a.entries
                .iter()
                .zip(b.entries.iter())
                .any(|((s1, v1, c1), (s2, v2, c2))| {
                    s1 != s2 || v1 != v2 || c1.digest() != c2.digest()
                })
    }

    /// Records `from`'s ballot for `new_view` (a conflicting second vote
    /// turns it `None`; a replica trusts its own), forming the view at its
    /// primary once a commit quorum of votes is in.
    fn record_view_change_vote(
        &mut self,
        from: NodeId,
        new_view: u64,
        vote: ViewChangeVote<C>,
        out: &mut Steps<C>,
    ) {
        let ballots = self.view_change_votes.entry(new_view).or_default();
        match ballots.get(&from) {
            Some(None) => return,
            Some(Some(existing)) if from != self.me && Self::votes_conflict(existing, &vote) => {
                ballots.insert(from, None);
                self.certificate_conflicts += 1;
                return;
            }
            _ => {}
        }
        ballots.insert(from, Some(vote));
        let i_am_new_primary = primary_for_view(new_view, &self.replicas) == self.me;
        if !i_am_new_primary || ballots.values().flatten().count() < self.quorum.commit_quorum() {
            return;
        }
        // Become the primary of the new view: merge the voted entries,
        // preferring the value of the highest view per slot.
        let votes = self.view_change_votes.remove(&new_view);
        let votes = votes.expect("the quorum of votes counted just above");
        // Paxos merges from the voters' delivery frontiers alone; PBFT from
        // checkpoints, its own included.
        let (model, own) = (self.quorum.model, self.checkpoint.stable());
        let (mut frontier, mut floor) = match model {
            FailureModel::Crash => (0, SeqNo::MAX),
            FailureModel::Byzantine => (own, own),
        };
        let mut merged: BTreeMap<SeqNo, (u64, Batch<C>)> = BTreeMap::new();
        let mut best_voter: Option<(SeqNo, NodeId)> = None;
        for (voter, vote) in votes {
            let Some(vote) = vote else { continue };
            let progress = match model {
                FailureModel::Crash => vote.last_delivered,
                FailureModel::Byzantine => vote.checkpoint,
            };
            // A voter's checkpoint certifies quorum execution through it, so
            // the new view's frontier must clear it even when no vote
            // carries the entries themselves.
            frontier = frontier.max(progress).max(vote.checkpoint);
            floor = floor.min(progress);
            if best_voter.is_none_or(|(best, _)| progress > best) {
                best_voter = Some((progress, voter));
            }
            for (seq, view, batch) in vote.entries {
                if merged
                    .get(&seq)
                    .is_none_or(|(existing, _)| *existing < view)
                {
                    merged.insert(seq, (view, batch));
                }
            }
        }
        // If a voter is ahead of this new primary's own frontier, remember
        // it as a state-transfer source: the primary itself may be the
        // straggler.
        if let Some((progress, voter)) = best_voter {
            if voter != self.me {
                self.checkpoint.note_hint(progress, voter);
            }
        }
        self.enter_view(new_view);

        // The re-proposed log starts at the *lowest* voter floor, not the
        // highest: a voter that has not yet executed an already-chosen entry
        // needs its value re-proposed.  Re-running an entry a peer already
        // executed is cheap (Paxos) or ignored by that peer's
        // `seq <= stable checkpoint` guards (PBFT), and followers only treat
        // re-accepted entries as committed — never whatever stale value an
        // old view left in a slot.
        let log: Vec<(SeqNo, Batch<C>)> = merged
            .into_iter()
            .filter(|(seq, _)| *seq > floor)
            .map(|(seq, (_, batch))| (seq, batch))
            .collect();
        for (seq, batch) in &log {
            self.reinstall(*seq, batch.clone(), new_view);
        }
        let last_slot = self.slots.keys().next_back().copied().unwrap_or(0);
        self.next_seq = last_slot.max(frontier) + 1;

        let reproposed: Vec<SeqNo> = log.iter().map(|(seq, _)| *seq).collect();
        out.push(Step::ViewChanged {
            view: new_view,
            primary: self.me,
        });
        out.push(Step::Broadcast {
            msg: self.msg(MsgBody::NewView {
                view: new_view,
                log,
                frontier,
            }),
        });
        if model == FailureModel::Crash {
            // Single-replica domains (f = 0) may be able to commit on their
            // own acceptance; a PBFT primary always waits for prepares.
            for seq in reproposed {
                self.maybe_commit(seq, out);
            }
        }
        // A new primary elected while itself gap-stalled (its voters
        // executed past it) fetches the missing prefix rather than waiting
        // forever.
        self.maybe_request_state(out);
    }

    /// Installs `batch` at `seq` as proposed in the new view `view`,
    /// restarting the slot's vote sets.  Votes collected in earlier views
    /// were given for whatever value the slot held *then*; counting them
    /// towards the re-proposed value could commit it with replicas that
    /// never saw it.  Committed slots keep their flag — commitment is
    /// value-stable.  A Paxos slot stays prepared (it holds its block); a
    /// PBFT one re-runs its prepare round.  (A Paxos follower does not come
    /// here: it keeps no acknowledgements worth restarting.)
    pub(crate) fn reinstall(&mut self, seq: SeqNo, batch: Batch<C>, view: u64) {
        let slot = self.slots.entry(seq).or_default().hold(batch, view);
        slot.votes = VoteMask::default();
        slot.votes.insert(&self.replicas, self.me);
        slot.commits = VoteMask::default();
    }

    /// Moves to `view`, ending any view change; no ballot up to it is read again.
    fn enter_view(&mut self, view: u64) {
        self.view = view;
        self.in_view_change = false;
        self.view_change_votes.retain(|v, _| *v > view);
    }

    fn on_new_view(
        &mut self,
        from: NodeId,
        view: u64,
        log: Vec<(SeqNo, Batch<C>)>,
        frontier: SeqNo,
        out: &mut Steps<C>,
    ) {
        if view < self.view
            || from != primary_for_view(view, &self.replicas)
            || (self.is_byzantine() && !self.admit_new_view(view, &log, frontier))
        {
            return;
        }
        self.enter_view(view);
        // The advertised frontier is commit evidence from the new primary.
        self.checkpoint.note_hint(frontier, from);
        out.push(Step::ViewChanged {
            view,
            primary: from,
        });
        match self.quorum.model {
            FailureModel::Crash => self.accept_new_view(from, view, log, frontier, out),
            FailureModel::Byzantine => self.prepare_new_view(view, log, out),
        }
        // Entries below the new primary's log start may be gone from every
        // slot map (garbage-collected below the checkpoint): a follower
        // still gapped after the catch-up above fetches them instead.
        self.maybe_request_state(out);
    }
}

/// The returning forms of [`ConsensusReplica::propose_into`] and
/// [`ConsensusReplica::on_message_into`].  Nothing in the workspace calls
/// them: they exist because `benchmark/src/layers.rs`, which is frozen,
/// drives a loop-back replica group through them.
impl<C: Command> ConsensusReplica<C> {
    #[doc(hidden)]
    pub fn propose(&mut self, cmd: C) -> Steps<C> {
        let mut out = Vec::new();
        self.propose_into(cmd, &mut out);
        out
    }

    #[doc(hidden)]
    pub fn on_message(&mut self, from: NodeId, msg: ConsensusMsg<C>) -> Steps<C> {
        let mut out = Vec::new();
        self.on_message_into(from, msg, &mut out);
        out
    }
}

/// Total member commands delivered by a slice of consensus output steps.
/// Node layers use it to account how many commands a state-transfer reply
/// actually applied (zero means the reply was stale).
pub fn delivered_commands<C, M>(steps: &[Step<Batch<C>, M>]) -> u64 {
    steps
        .iter()
        .filter_map(|s| match s {
            Step::Deliver { command, .. } => Some(command.len() as u64),
            _ => None,
        })
        .sum()
}

/// The in-process router every test of this crate drives replicas through.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use saguaro_types::DomainId;
    use std::collections::VecDeque;

    pub(crate) type Cmd = Vec<u8>;
    /// Per-origin initial protocol steps fed into the router.
    pub(crate) type InitialSteps = Vec<(usize, Steps<Cmd>)>;
    /// The `(seq, command)` pairs one replica delivered.
    pub(crate) type Delivered = Vec<(SeqNo, Cmd)>;

    /// The steps one entry point appends to a fresh buffer.
    pub(crate) fn steps_of(input: impl FnOnce(&mut Steps<Cmd>)) -> Steps<Cmd> {
        let mut out = Vec::new();
        input(&mut out);
        out
    }

    pub(crate) fn msg(model: FailureModel, body: MsgBody<Cmd>) -> ConsensusMsg<Cmd> {
        ConsensusMsg { model, body }
    }

    /// A block of the one command `cmd`.
    pub(crate) fn block(cmd: &[u8]) -> Batch<Cmd> {
        Batch::single(cmd.to_vec())
    }

    /// A domain of `n` replicas under `model`.
    pub(crate) fn domain_with(
        model: FailureModel,
        n: usize,
        batch: BatchConfig,
        checkpoint: CheckpointConfig,
    ) -> (Vec<NodeId>, Vec<ConsensusReplica<Cmd>>) {
        let d = DomainId::new(1, 0);
        let nodes: Vec<NodeId> = (0..n as u16).map(|i| NodeId::new(d, i)).collect();
        let quorum = QuorumSpec::for_size(model, n);
        let replica = |id: &NodeId| {
            ConsensusReplica::with_batching(*id, nodes.clone(), quorum, batch)
                .with_checkpointing(checkpoint)
        };
        let reps = nodes.iter().map(replica).collect();
        (nodes, reps)
    }

    /// An unbatched domain of `n` replicas under the default checkpoint
    /// configuration.
    pub(crate) fn domain(
        model: FailureModel,
        n: usize,
    ) -> (Vec<NodeId>, Vec<ConsensusReplica<Cmd>>) {
        let (batch, checkpoint) = (BatchConfig::unbatched(), CheckpointConfig::default());
        domain_with(model, n, batch, checkpoint)
    }

    /// Routes every Send/Broadcast step until quiescence and returns what
    /// each replica delivered.  `down` replicas receive nothing.  Stands in
    /// for the adapter layer: materializes a (contents-free) snapshot
    /// whenever a replica asks for one.
    pub(crate) fn route(
        nodes: &[NodeId],
        reps: &mut [ConsensusReplica<Cmd>],
        initial: InitialSteps,
        down: &[usize],
    ) -> Vec<Delivered> {
        let mut delivered = vec![Vec::new(); reps.len()];
        let mut queue: VecDeque<(usize, NodeId, ConsensusMsg<Cmd>)> = VecDeque::new();
        let mut absorb = |origin: usize,
                          rep: &mut ConsensusReplica<Cmd>,
                          steps: Steps<Cmd>,
                          queue: &mut VecDeque<_>| {
            for step in steps {
                match step {
                    Step::Send { to, msg } => {
                        let to = nodes.iter().position(|n| *n == to).expect("a member");
                        queue.push_back((to, nodes[origin], msg));
                    }
                    Step::Broadcast { msg } => {
                        for to in (0..nodes.len()).filter(|to| *to != origin) {
                            queue.push_back((to, nodes[origin], msg.clone()));
                        }
                    }
                    Step::Deliver { seq, command } => {
                        delivered[origin].extend(command.iter().map(|c| (seq, c.clone())));
                    }
                    Step::TakeSnapshot { seq } => rep.store_snapshot(Arc::new(StateSnapshot {
                        seq,
                        ..StateSnapshot::default()
                    })),
                    Step::ViewChanged { .. } | Step::InstallSnapshot { .. } => {}
                }
            }
        };
        for (origin, steps) in initial {
            absorb(origin, &mut reps[origin], steps, &mut queue);
        }
        let mut budget = 200_000;
        while let Some((to, from, msg)) = queue.pop_front() {
            budget -= 1;
            assert!(budget > 0, "message storm");
            if down.contains(&to) {
                continue;
            }
            let steps = steps_of(|o| reps[to].on_message_into(from, msg, o));
            absorb(to, &mut reps[to], steps, &mut queue);
        }
        delivered
    }

    /// Proposes `commands` one-byte commands `[0], [1], …` at replica 0 and
    /// routes them with `down` replicas silent.
    pub(crate) fn commit_bytes(
        nodes: &[NodeId],
        reps: &mut [ConsensusReplica<Cmd>],
        commands: u8,
        down: &[usize],
    ) -> Vec<Delivered> {
        let initial = (0..commands).map(|i| (0, steps_of(|o| reps[0].propose_into(vec![i], o))));
        let initial: InitialSteps = initial.collect();
        route(nodes, reps, initial, down)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use saguaro_types::DomainId;
    use std::collections::{BTreeSet, VecDeque};
    use FailureModel::{Byzantine, Crash};

    /// True if `steps` ask some peer for the state above `above`.
    fn requests_state_above(steps: &Steps<Cmd>, above: SeqNo) -> bool {
        steps.iter().any(
            |s| matches!(s, Step::Send { msg, .. } if msg.body == MsgBody::StateRequest { above }),
        )
    }

    /// A checkpoint announcement for `seq`, as a recovering replica hears it.
    fn announcement(model: FailureModel, seq: SeqNo) -> ConsensusMsg<Cmd> {
        let digest = saguaro_crypto::sha256(b"modelled");
        msg(model, MsgBody::Checkpoint { seq, digest })
    }

    // ------------------------------------------------------------------
    // The conformance suite: what a replica does whichever rule it holds,
    // run once per failure model.  The smallest domains tolerating f = 1
    // are 3 (crash) and 4 (Byzantine) replicas; f = 2 needs 5 and 7.
    // ------------------------------------------------------------------

    #[test]
    fn a_command_commits_on_all_replicas() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let (nodes, mut reps) = domain(model, n);
            assert!(reps[0].is_primary());
            assert_eq!(reps[0].primary(), nodes[0]);
            let steps = steps_of(|o| reps[0].propose_into(b"tx1".to_vec(), o));
            let delivered = route(&nodes, &mut reps, vec![(0, steps)], &[]);
            for d in &delivered {
                assert_eq!(d, &vec![(1, b"tx1".to_vec())], "{model:?}");
            }
            assert!(reps.iter().all(|r| r.last_delivered() == 1));
            assert_eq!(reps[0].view(), 0);
        }
    }

    #[test]
    fn non_primary_propose_is_dropped_without_batching() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let batch = BatchConfig::with_max_batch(4);
            let (_nodes, mut reps) = domain_with(model, n, batch, CheckpointConfig::default());
            assert!(
                steps_of(|o| reps[1].propose_into(b"x".to_vec(), o)).is_empty(),
                "{model:?}"
            );
            assert_eq!(reps[1].pending_commands(), 0);
            assert!(!reps[1].is_primary());
            assert!(reps[0].is_primary());
        }
    }

    #[test]
    fn commands_deliver_in_order_across_replicas() {
        for (model, n) in [(Crash, 5), (Byzantine, 4)] {
            let (nodes, mut reps) = domain(model, n);
            let delivered = commit_bytes(&nodes, &mut reps, 10, &[]);
            let expected: Delivered = (0..10u8).map(|i| (i as u64 + 1, vec![i])).collect();
            for d in &delivered {
                assert_eq!(d, &expected, "{model:?}");
            }
        }
    }

    #[test]
    fn commits_with_f_backups_down_but_not_with_more() {
        // 5 crash-only replicas tolerate 2 silent backups, 4 Byzantine ones 1.
        for (model, n, f) in [(Crash, 5, 2), (Byzantine, 4, 1)] {
            let (nodes, mut reps) = domain(model, n);
            let down: Vec<usize> = (n - f..n).collect();
            let delivered = commit_bytes(&nodes, &mut reps, 1, &down);
            for (i, d) in delivered.iter().enumerate() {
                let expected = if down.contains(&i) { 0 } else { 1 };
                assert_eq!(d.len(), expected, "{model:?} replica {i}");
            }
            // One more silent replica and no quorum remains.
            let (nodes, mut reps) = domain(model, n);
            let down: Vec<usize> = (n - f - 1..n).collect();
            let delivered = commit_bytes(&nodes, &mut reps, 1, &down);
            assert!(delivered.iter().all(|d| d.is_empty()), "{model:?}");
        }
    }

    #[test]
    fn only_backups_suspect_the_primary() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let (_nodes, mut reps) = domain(model, n);
            assert!(
                steps_of(|o| reps[0].on_progress_timeout(o)).is_empty(),
                "{model:?}"
            );
            assert!(
                !steps_of(|o| reps[1].on_progress_timeout(o)).is_empty(),
                "{model:?}"
            );
        }
    }

    #[test]
    fn repeated_timeouts_escalate_past_a_crashed_candidate() {
        // f = 2.  Both the primary (0) and the next round-robin candidate (1)
        // crash: the first timeout round targets view 1 and stalls (its
        // candidate is dead); the second must escalate to view 2 instead of
        // retrying view 1 forever.  Under PBFT view 2 forms with exactly the
        // 2f + 1 = 5 live replicas.
        for (model, n) in [(Crash, 5), (Byzantine, 7)] {
            let (nodes, mut reps) = domain(model, n);
            commit_bytes(&nodes, &mut reps, 1, &[]);
            let live_time_out = |reps: &mut [ConsensusReplica<Cmd>]| {
                let vc = (2..n).map(|i| (i, steps_of(|o| reps[i].on_progress_timeout(o))));
                let vc: InitialSteps = vc.collect();
                route(&nodes, reps, vc, &[0, 1]);
            };
            live_time_out(&mut reps);
            assert_eq!(reps[2].view(), 0, "view 1 must not form without node 1");
            live_time_out(&mut reps);
            assert_eq!(reps[2].view(), 2, "{model:?}");
            assert!(reps[2].is_primary());
            assert_eq!(reps[3].view(), 2);

            // Progress resumes under the view-2 primary.
            let steps = steps_of(|o| reps[2].propose_into(b"after".to_vec(), o));
            let delivered = route(&nodes, &mut reps, vec![(2, steps)], &[0, 1]);
            for (i, d) in delivered.iter().enumerate().skip(3) {
                assert!(
                    d.iter().any(|(_, c)| c == b"after"),
                    "{model:?} replica {i} missed the post-escalation commit"
                );
            }
            // The entry committed in view 0 survived both rounds.
            assert!(reps[2].last_delivered() >= 2);
        }
    }

    #[test]
    fn checkpointing_garbage_collects_slots_and_bounds_view_change_votes() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let (batch, every_4) = (BatchConfig::unbatched(), CheckpointConfig::every(4));
            let (nodes, mut reps) = domain_with(model, n, batch, every_4);
            // After 8 commits the stable checkpoint is 8 and no slot is left.
            commit_bytes(&nodes, &mut reps, 8, &[]);
            for r in &reps {
                assert_eq!(r.last_delivered(), 8);
                assert_eq!(r.stable_checkpoint(), 8, "floor 8 must have stabilised");
                assert_eq!(r.slots.len(), 0, "{model:?} log not garbage collected");
            }
            // Two more stay above it.
            let initial = (8..10u8).map(|i| (0, steps_of(|o| reps[0].propose_into(vec![i], o))));
            let initial: InitialSteps = initial.collect();
            route(&nodes, &mut reps, initial, &[]);
            for r in &reps {
                assert_eq!(r.last_delivered(), 10);
                assert_eq!(r.stable_checkpoint(), 8);
                assert!(
                    r.slots.len() <= 2,
                    "{model:?} holds {} slots",
                    r.slots.len()
                );
                assert!(r.vote_entries() <= 2);
            }
            // The actual view-change vote payload is bounded by the stable
            // checkpoint: `history − checkpoint` entries, not O(history).
            let steps = steps_of(|o| reps[1].on_progress_timeout(o));
            let vote = steps.iter().find_map(|s| match s {
                Step::Broadcast { msg } => match &msg.body {
                    MsgBody::ViewChange {
                        entries,
                        checkpoint,
                        ..
                    } => Some((entries.len(), *checkpoint)),
                    _ => None,
                },
                _ => None,
            });
            let (entries, checkpoint) = vote.expect("timeout broadcasts a view-change vote");
            assert_eq!(checkpoint, 8);
            assert!(
                entries <= 2,
                "{model:?} vote carried {entries} entries for a history of 10 with checkpoint 8"
            );
        }
    }

    #[test]
    fn gap_stalled_replica_catches_up_via_state_transfer() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let (batch, every_2) = (BatchConfig::unbatched(), CheckpointConfig::every(2));
            let (nodes, mut reps) = domain_with(model, n, batch, every_2);
            // The last replica misses six committed entries; the survivors (a
            // commit quorum) stabilise checkpoint 6 and garbage-collect the
            // slots below it, so the gap can never be filled by re-accepts.
            let victim = n - 1;
            commit_bytes(&nodes, &mut reps, 6, &[victim]);
            assert_eq!(reps[0].stable_checkpoint(), 6);
            assert_eq!(reps[0].slots.len(), 0);
            assert_eq!(reps[victim].last_delivered(), 0);

            // On recovery the replica hears a checkpoint announcement
            // (frontier evidence), requests state, and replays the whole
            // missed prefix in order.
            let steps =
                steps_of(|o| reps[victim].on_message_into(nodes[0], announcement(model, 6), o));
            assert!(
                requests_state_above(&steps, 0),
                "{model:?} gap-stalled replica must fetch state: {steps:?}"
            );
            let delivered = route(&nodes, &mut reps, vec![(victim, steps)], &[]);
            let missed: Delivered = (0..6u8).map(|i| (i as u64 + 1, vec![i])).collect();
            assert_eq!(delivered[victim], missed, "{model:?}");
            assert_eq!(reps[victim].last_delivered(), 6);

            // Execution resumes: the next proposal commits on all replicas.
            let steps = steps_of(|o| reps[0].propose_into(b"after".to_vec(), o));
            let delivered = route(&nodes, &mut reps, vec![(0, steps)], &[]);
            assert!(delivered[victim].contains(&(7, b"after".to_vec())));
        }
    }

    /// A domain announcing every 2 deliveries and retaining 2 below the
    /// stable checkpoint.
    fn pruned_domain(model: FailureModel, n: usize) -> (Vec<NodeId>, Vec<ConsensusReplica<Cmd>>) {
        let checkpoint = CheckpointConfig::every(2).with_retention(2);
        domain_with(model, n, BatchConfig::unbatched(), checkpoint)
    }

    #[test]
    fn finite_retention_bounds_the_delivered_chain() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let (nodes, mut reps) = pruned_domain(model, n);
            commit_bytes(&nodes, &mut reps, 20, &[]);
            for r in &reps {
                assert_eq!(r.last_delivered(), 20);
                assert!(
                    r.chain_len() <= 4,
                    "{model:?} retention 2 (interval 2) must bound the chain, got {}",
                    r.chain_len()
                );
                assert!(r.chain_start() > 1, "the chain prefix must be pruned");
                assert!(
                    r.checkpoint.snapshot_seq().is_some(),
                    "a snapshot must be held"
                );
            }
        }
    }

    #[test]
    fn pruned_responder_serves_snapshot_catch_up() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let (nodes, mut reps) = pruned_domain(model, n);
            // The last replica misses twelve committed entries; the survivors
            // stabilise checkpoints, materialize snapshots, and prune the
            // chain prefix — a plain entry replay can no longer answer
            // `above = 0`.
            let victim = n - 1;
            commit_bytes(&nodes, &mut reps, 12, &[victim]);
            assert_eq!(reps[0].last_delivered(), 12);
            assert!(reps[0].chain_start() > 1, "responder's log must be pruned");
            assert!(reps[0].checkpoint.snapshot_seq().is_some());
            assert_eq!(reps[victim].last_delivered(), 0);

            // On recovery the laggard hears a checkpoint announcement,
            // requests state, and is answered with a snapshot plus the
            // retained tail.
            let steps =
                steps_of(|o| reps[victim].on_message_into(nodes[0], announcement(model, 12), o));
            assert!(
                requests_state_above(&steps, 0),
                "{model:?} gap-stalled replica must fetch state: {steps:?}"
            );
            let delivered = route(&nodes, &mut reps, vec![(victim, steps)], &[]);
            assert_eq!(reps[victim].last_delivered(), 12);
            assert_eq!(
                reps[victim].checkpoint.snapshot_seq().unwrap_or(0)
                    + delivered[victim].len() as u64,
                12,
                "{model:?} snapshot + replayed tail must cover the whole gap"
            );

            // Execution resumes: the next proposal commits on all replicas.
            let steps = steps_of(|o| reps[0].propose_into(b"after".to_vec(), o));
            let delivered = route(&nodes, &mut reps, vec![(0, steps)], &[]);
            assert!(delivered[victim].contains(&(13, b"after".to_vec())));
        }
    }

    #[test]
    fn stale_snapshot_reply_is_ignored() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let (nodes, mut reps) = pruned_domain(model, n);
            commit_bytes(&nodes, &mut reps, 6, &[]);
            assert_eq!(reps[1].last_delivered(), 6);
            // A snapshot below the receiver's frontier must change nothing.
            let snapshot = StateSnapshot {
                seq: 2,
                ..StateSnapshot::default()
            };
            let reply = MsgBody::SnapshotReply {
                snapshot: Arc::new(snapshot),
                tail: Vec::new(),
                committed_to: 2,
            };
            let steps = steps_of(|o| reps[1].on_message_into(nodes[0], msg(model, reply), o));
            assert!(
                !steps
                    .iter()
                    .any(|s| matches!(s, Step::InstallSnapshot { .. } | Step::Deliver { .. })),
                "{model:?} stale snapshot must not install or deliver: {steps:?}"
            );
            assert_eq!(reps[1].last_delivered(), 6);
        }
    }

    #[test]
    fn twin_view_change_votes_are_discarded_and_sender_ignored() {
        // A voter that sends two conflicting votes for the same view is a
        // provable equivocator: both its votes are discarded and it is
        // ignored for that view only, but the remaining honest quorum still
        // elects the primary — the defence does not cost liveness.
        //
        // Crash: n = 5, majority 3, replica 0 leads the escalated view 5 and
        // replica 1 equivocates.  Byzantine: n = 4, quorum 3, replica 1
        // leads view 1 and replica 3 equivocates.
        for (model, n, view, leader, twin, honest) in
            [(Crash, 5, 5, 0, 1, [2, 3]), (Byzantine, 4, 1, 1, 3, [0, 2])]
        {
            let (nodes, mut reps) = domain(model, n);
            let vote = |entries: Vec<(SeqNo, u64, Batch<Cmd>)>| {
                let body = MsgBody::ViewChange {
                    new_view: view,
                    entries,
                    last_delivered: 0,
                    checkpoint: 0,
                };
                msg(model, body)
            };
            // The first vote joins the leader into the view change (its own
            // vote is recorded too).
            reps[leader].on_message_into(
                nodes[twin],
                vote(vec![(1, 0, block(b"X"))]),
                &mut Vec::new(),
            );
            reps[leader].on_message_into(
                nodes[twin],
                vote(vec![(1, 0, block(b"Y"))]),
                &mut Vec::new(),
            );
            assert_eq!(reps[leader].certificate_conflicts(), 1, "{model:?}");
            // Re-deliveries from the tainted voter no longer count.
            reps[leader].on_message_into(
                nodes[twin],
                vote(vec![(1, 0, block(b"X"))]),
                &mut Vec::new(),
            );
            assert_eq!(reps[leader].view(), 0, "own + tainted vote must not elect");
            // Two honest votes plus the leader's own echoed vote are a quorum.
            reps[leader].on_message_into(nodes[honest[0]], vote(Vec::new()), &mut Vec::new());
            let steps =
                steps_of(|o| reps[leader].on_message_into(nodes[honest[1]], vote(Vec::new()), o));
            assert!(steps
                .iter()
                .any(|s| matches!(s, Step::ViewChanged { view: v, .. } if *v == view)));
            assert!(reps[leader].is_primary());
            assert_eq!(reps[leader].view(), view);
        }
    }

    #[test]
    fn flush_racing_a_view_change_retains_buffered_commands() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let batch = BatchConfig::with_max_batch(8);
            let (nodes, mut reps) = domain_with(model, n, batch, CheckpointConfig::default());
            // The view-0 leader buffers two commands without cutting a block.
            assert!(steps_of(|o| reps[0].propose_into(b"a".to_vec(), o)).is_empty());
            assert!(steps_of(|o| reps[0].propose_into(b"b".to_vec(), o)).is_empty());
            assert_eq!(reps[0].pending_commands(), 2);
            // The backups suspect it and elect replica 1; the deposed leader
            // learns of the new view before its flush timer fires.
            let vc = (1..n).map(|i| (i, steps_of(|o| reps[i].on_progress_timeout(o))));
            let vc: InitialSteps = vc.collect();
            route(&nodes, &mut reps, vc, &[]);
            assert!(!reps[0].is_primary(), "{model:?}");
            // The late flush must not destroy the buffered commands: the
            // proposal is refused and the batcher keeps them for a retry.
            assert!(steps_of(|o| reps[0].flush(o)).is_empty());
            assert_eq!(reps[0].pending_commands(), 2);
        }
    }

    #[test]
    fn entering_a_view_drops_every_ballot_table_up_to_it() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let (nodes, mut reps) = domain(model, n);
            for view in 1..=3 {
                // Every backup of the current view suspects its primary.
                let backups = (0..n).filter(|i| *i != (view - 1) % n);
                let vc = backups.map(|i| (i, steps_of(|o| reps[i].on_progress_timeout(o))));
                let vc: InitialSteps = vc.collect();
                route(&nodes, &mut reps, vc, &[]);
                for (i, rep) in reps.iter().enumerate() {
                    assert_eq!(rep.view(), view as u64, "{model:?} replica {i}");
                    let kept: Vec<u64> = rep.view_change_votes.keys().copied().collect();
                    assert!(
                        kept.iter().all(|v| *v > view as u64),
                        "{model:?} replica {i} in view {view} keeps the ballots of views {kept:?}"
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Schedules driven message by message.
    // ------------------------------------------------------------------

    /// A hand-driven network: the messages in flight, as `(to, from, msg)`
    /// by member index, and what each replica delivered.  Unlike `route`,
    /// it loses every message a test's keep predicate refuses.
    struct Pool {
        in_flight: VecDeque<(usize, usize, ConsensusMsg<Cmd>)>,
        delivered: Vec<Delivered>,
    }

    impl Pool {
        fn new(n: usize) -> Self {
            let delivered = vec![Vec::new(); n];
            Self {
                in_flight: VecDeque::new(),
                delivered,
            }
        }

        /// Puts what replica `from` sent in flight and records what it
        /// delivered.
        fn absorb(&mut self, from: usize, steps: Steps<Cmd>) {
            for step in steps {
                match step {
                    Step::Send { to, msg } => {
                        self.in_flight.push_back((to.index.into(), from, msg));
                    }
                    Step::Broadcast { msg } => {
                        for to in (0..self.delivered.len()).filter(|to| *to != from) {
                            self.in_flight.push_back((to, from, msg.clone()));
                        }
                    }
                    Step::Deliver { seq, command } => {
                        let delivered = command.iter().map(|c| (seq, c.clone()));
                        self.delivered[from].extend(delivered);
                    }
                    _ => {}
                }
            }
        }

        /// Delivers, in order, every in-flight message `keep(to, body)`
        /// accepts, and what those deliveries send in turn; loses the rest.
        fn run(
            &mut self,
            nodes: &[NodeId],
            reps: &mut [ConsensusReplica<Cmd>],
            keep: impl Fn(usize, &MsgBody<Cmd>) -> bool,
        ) {
            while let Some((to, from, msg)) = self.in_flight.pop_front() {
                if keep(to, &msg.body) {
                    let steps = steps_of(|o| reps[to].on_message_into(nodes[from], msg, o));
                    self.absorb(to, steps);
                }
            }
        }
    }

    /// Finding 14: a PBFT re-install restarts a committed slot's prepare
    /// round.  Were the slot left out of view-change votes meanwhile, a
    /// later primary would number a fresh block at a sequence number its
    /// peers delivered.  n = 4, f = 1.
    #[test]
    fn a_reinstalled_committed_slot_stays_in_view_change_votes() {
        let (nodes, mut reps) = domain(Byzantine, 4);
        let mut pool = Pool::new(4);
        // 1. View 0: replicas 0, 1 and 3 deliver A at seq 1; 2 hears nothing.
        pool.absorb(0, steps_of(|o| reps[0].propose_into(b"A".to_vec(), o)));
        pool.run(&nodes, &mut reps, |to, _| to != 2);
        // 2. Replica 0 crashes.  Replicas 1, 2 and 3 vote for view 1, and 1
        //    forms it from the others' votes, re-installing A at seq 1.
        // 3. Only replica 3 hears view 1's `NewView`, and every re-run
        //    `Prepare` is lost.
        for i in [1, 2, 3] {
            pool.absorb(i, steps_of(|o| reps[i].on_progress_timeout(o)));
        }
        pool.run(&nodes, &mut reps, |to, body| match body {
            MsgBody::ViewChange { .. } => to == 1,
            MsgBody::NewView { .. } => to == 3,
            _ => false,
        });
        let views: Vec<u64> = reps.iter().map(|r| r.view()).collect();
        assert_eq!(views, [0, 1, 0, 1]);
        // 4. Replicas 2 and 3 time out to view 2, replica 1 echoes, and
        //    replica 2 forms view 2.
        // 5. Its primary proposes B.
        for i in [2, 3] {
            pool.absorb(i, steps_of(|o| reps[i].on_progress_timeout(o)));
        }
        let live = |to: usize, _: &MsgBody<Cmd>| to != 0;
        pool.run(&nodes, &mut reps, live);
        assert!(reps[2].is_primary() && reps[2].view() == 2);
        pool.absorb(2, steps_of(|o| reps[2].propose_into(b"B".to_vec(), o)));
        pool.run(&nodes, &mut reps, live);

        // Agreement: a sequence number holds one block wherever delivered.
        let mut chosen = BTreeMap::new();
        for (i, delivered) in pool.delivered.iter().enumerate() {
            for (seq, cmd) in delivered {
                let (first, block) = *chosen.entry(*seq).or_insert((i, cmd));
                assert_eq!(
                    cmd, block,
                    "replica {i} delivered {cmd:?} at seq {seq}, replica {first} {block:?}"
                );
            }
        }
        // And the domain goes on: B follows A on every live replica.
        for i in [1, 2, 3] {
            let last = pool.delivered[i].last();
            assert_eq!(last, Some(&(2, b"B".to_vec())), "replica {i}");
        }
    }

    // ------------------------------------------------------------------
    // The replica's own surface.
    // ------------------------------------------------------------------

    #[test]
    fn selects_protocol_from_failure_model() {
        let (_n, reps) = domain(Crash, 3);
        assert!(!reps[0].is_byzantine());
        let (_n, reps) = domain(Byzantine, 4);
        assert!(reps[0].is_byzantine());
    }

    #[test]
    #[should_panic(expected = "is not in its domain's replica list []")]
    fn an_empty_replica_list_is_rejected() {
        let me = NodeId::new(DomainId::new(1, 0), 0);
        let quorum = QuorumSpec::for_size(Crash, 0);
        let _ = ConsensusReplica::<Cmd>::new(me, Vec::new(), quorum);
    }

    #[test]
    #[should_panic(
        expected = "D10/n9 is not in its domain's replica list [D10/n0, D10/n1, D10/n2]"
    )]
    fn a_replica_outside_its_own_list_is_rejected() {
        let d = DomainId::new(1, 0);
        let members: Vec<NodeId> = (0..3).map(|i| NodeId::new(d, i)).collect();
        let quorum = QuorumSpec::for_size(Crash, 3);
        let _ = ConsensusReplica::<Cmd>::new(NodeId::new(d, 9), members, quorum);
    }

    #[test]
    #[should_panic(expected = "a domain of 65 replicas exceeds the 64 a vote mask can count")]
    fn a_domain_wider_than_the_vote_mask_is_rejected() {
        let d = DomainId::new(1, 0);
        let members: Vec<NodeId> = (0..65).map(|i| NodeId::new(d, i)).collect();
        let quorum = QuorumSpec::for_size(Byzantine, 65);
        let _ = ConsensusReplica::<Cmd>::new(members[0], members, quorum);
    }

    /// Nodes of another domain have no say: a slot that holds only its
    /// proposal stays where it is however many strangers vote for it, and so
    /// do the view and the stable checkpoint.
    #[test]
    fn votes_from_outside_the_domain_are_ignored() {
        let elsewhere = DomainId::new(1, 7);
        let strangers: Vec<NodeId> = (0..4).map(|i| NodeId::new(elsewhere, i)).collect();
        let (view, seq, digest) = (0, 1, block(b"tx").digest());
        for model in [Crash, Byzantine] {
            let (nodes, mut reps) = domain(model, 4);
            // The replica the votes are sent to, holding the proposal alone:
            // the Paxos leader, or a PBFT backup that was sent the block.
            let (voter, votes) = match model {
                Crash => {
                    reps[0].propose_into(b"tx".to_vec(), &mut Vec::new());
                    (0, vec![MsgBody::Accepted { view, seq, digest }])
                }
                Byzantine => {
                    let batch = block(b"tx");
                    let proposal = msg(model, MsgBody::PrePrepare { view, seq, batch });
                    reps[1].on_message_into(nodes[0], proposal, &mut Vec::new());
                    let prepare = MsgBody::Prepare { view, seq, digest };
                    (1, vec![prepare, MsgBody::Commit { view, seq, digest }])
                }
            };
            let view_change = MsgBody::ViewChange {
                new_view: 1,
                entries: Vec::new(),
                last_delivered: 0,
                checkpoint: 0,
            };
            let checkpoint = MsgBody::Checkpoint { seq: 5, digest };
            for vote in votes.into_iter().chain([view_change, checkpoint]) {
                for stranger in &strangers {
                    let steps = steps_of(|o| {
                        reps[voter].on_message_into(*stranger, msg(model, vote.clone()), o)
                    });
                    assert!(steps.is_empty(), "{model:?}: {stranger:?} moved {steps:?}");
                }
            }
            let rep = &reps[voter];
            let moved = (rep.last_delivered(), rep.view(), rep.stable_checkpoint());
            assert_eq!((moved, rep.in_view_change), ((0, 0, 0), false), "{model:?}");
        }
    }

    proptest::proptest! {
        /// A vote mask counts what a set of the voting members would: each
        /// member once, a stranger never.
        #[test]
        fn a_vote_mask_counts_members_once_and_strangers_never(
            members in 1u16..65,
            votes in proptest::collection::vec((0u16..2, 0u16..70), 0..120),
        ) {
            let home = DomainId::new(1, 0);
            let replicas: Vec<NodeId> = (0..members).map(|i| NodeId::new(home, i)).collect();
            let (mut mask, mut model) = (VoteMask::default(), BTreeSet::new());
            for (domain, index) in votes {
                let from = NodeId::new(DomainId::new(1, domain), index);
                mask.insert(&replicas, from);
                if replicas.contains(&from) {
                    model.insert(from);
                }
                proptest::prop_assert_eq!(mask.len(), model.len());
            }
        }
    }

    #[test]
    fn full_batch_commits_as_one_block() {
        for (model, n) in [(Crash, 3), (Byzantine, 4)] {
            let batch = BatchConfig::with_max_batch(3);
            let (nodes, mut reps) = domain_with(model, n, batch, CheckpointConfig::default());
            assert!(steps_of(|o| reps[0].propose_into(b"a".to_vec(), o)).is_empty());
            assert!(steps_of(|o| reps[0].propose_into(b"b".to_vec(), o)).is_empty());
            assert_eq!(reps[0].pending_commands(), 2);
            let steps = steps_of(|o| reps[0].propose_into(b"c".to_vec(), o));
            assert_eq!(reps[0].pending_commands(), 0);
            let delivered = route(&nodes, &mut reps, vec![(0, steps)], &[]);
            // Three commands, one consensus instance.
            let block: Delivered = [b"a", b"b", b"c"].map(|c| (1, c.to_vec())).into();
            for d in &delivered {
                assert_eq!(d, &block);
            }
            assert!(reps.iter().all(|r| r.last_delivered() == 1));
        }
    }

    #[test]
    fn flush_proposes_the_underfull_block() {
        let batch = BatchConfig::with_max_batch(8);
        let (nodes, mut reps) = domain_with(Crash, 3, batch, CheckpointConfig::default());
        assert!(steps_of(|o| reps[0].propose_into(b"only".to_vec(), o)).is_empty());
        assert_eq!(reps[0].pending_commands(), 1);
        let steps = steps_of(|o| reps[0].flush(o));
        assert!(!steps.is_empty());
        let delivered = route(&nodes, &mut reps, vec![(0, steps)], &[]);
        for d in &delivered {
            assert_eq!(d, &vec![(1, b"only".to_vec())]);
        }
        assert!(
            steps_of(|o| reps[0].flush(o)).is_empty(),
            "nothing left to flush"
        );
    }

    #[test]
    fn cross_protocol_messages_are_ignored() {
        let (nodes, mut reps) = domain(Crash, 3);
        let prepare = MsgBody::Prepare {
            view: 0,
            seq: 1,
            digest: saguaro_crypto::sha256(b"x"),
        };
        assert!(steps_of(|o| reps[1].on_message_into(
            nodes[0],
            msg(Byzantine, prepare.clone()),
            o
        ))
        .is_empty());
        // Neither does a body of the other protocol under this one's name.
        assert!(steps_of(|o| reps[1].on_message_into(nodes[0], msg(Crash, prepare), o)).is_empty());
    }
}
