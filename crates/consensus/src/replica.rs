//! A dispatch wrapper over the two internal consensus protocols.
//!
//! Higher layers (the Saguaro node, the baselines, the experiment harness)
//! hold one [`ConsensusReplica`] per domain member and do not care whether
//! the domain is crash-only or Byzantine: proposing, message handling and
//! timeouts are forwarded to the protocol selected by the domain's failure
//! model, and wire messages travel as [`ConsensusMsg`].
//!
//! The wrapper is also where request batching lives: the underlying Paxos /
//! PBFT state machines order [`Batch`]es of commands (digest = Merkle root
//! over the member digests), and the leader-side [`Batcher`] accumulates
//! commands handed to [`ConsensusReplica::propose`] until a block is cut by
//! size or — via the adapter's flush timer calling
//! [`ConsensusReplica::flush`] — by age.  Every [`Step::Deliver`] therefore
//! hands back a whole batch; consumers unpack it into per-command execution.

use crate::batch::{Batch, BatchConfig, Batcher};
use crate::interface::{Command, Step};
use crate::paxos::{PaxosMsg, PaxosReplica};
use crate::pbft::{PbftMsg, PbftReplica};
use saguaro_types::{CheckpointConfig, FailureModel, NodeId, QuorumSpec, SeqNo, StateSnapshot};
use std::sync::Arc;

/// Wire message of either protocol, carrying batches of commands.
#[derive(Clone, Debug, PartialEq)]
pub enum ConsensusMsg<C> {
    /// A Multi-Paxos message (crash-only domains).
    Paxos(PaxosMsg<Batch<C>>),
    /// A PBFT message (Byzantine domains).
    Pbft(PbftMsg<Batch<C>>),
}

impl<C> ConsensusMsg<C> {
    /// Number of signatures a receiver has to verify for this message.
    ///
    /// Crash-only domains exchange unsigned messages inside the domain; BFT
    /// messages carry one signature each (view changes carry certificates,
    /// approximated as `1 + prepared entries`).  Batching does not change
    /// the count: a block is certified as one unit, which is exactly why it
    /// amortises the per-command verification cost.
    pub fn signature_count(&self) -> usize {
        match self {
            ConsensusMsg::Paxos(_) => 0,
            ConsensusMsg::Pbft(m) => match m {
                PbftMsg::ViewChange { prepared, .. } => 1 + prepared.len(),
                PbftMsg::NewView { log, .. } => 1 + log.len(),
                // A state reply ships one checkpoint-style certificate per
                // transferred entry.
                PbftMsg::StateReply { entries, .. } => 1 + entries.len(),
                // A snapshot reply ships the snapshot's checkpoint
                // certificate plus one certificate per tail entry.
                PbftMsg::SnapshotReply { tail, .. } => 1 + tail.len(),
                _ => 1,
            },
        }
    }

    /// True for the VR-style state-transfer messages (used by the network
    /// statistics to account transfer traffic separately).
    pub fn is_state_transfer(&self) -> bool {
        matches!(
            self,
            ConsensusMsg::Paxos(PaxosMsg::StateRequest { .. })
                | ConsensusMsg::Paxos(PaxosMsg::StateReply { .. })
                | ConsensusMsg::Paxos(PaxosMsg::SnapshotReply { .. })
                | ConsensusMsg::Pbft(PbftMsg::StateRequest { .. })
                | ConsensusMsg::Pbft(PbftMsg::StateReply { .. })
                | ConsensusMsg::Pbft(PbftMsg::SnapshotReply { .. })
        )
    }

    /// True for a state *reply* — the message whose application is how a
    /// gap-stalled replica catches up (node layers watch for it to record
    /// recovery instants).
    pub fn is_state_reply(&self) -> bool {
        matches!(
            self,
            ConsensusMsg::Paxos(PaxosMsg::StateReply { .. })
                | ConsensusMsg::Paxos(PaxosMsg::SnapshotReply { .. })
                | ConsensusMsg::Pbft(PbftMsg::StateReply { .. })
                | ConsensusMsg::Pbft(PbftMsg::SnapshotReply { .. })
        )
    }

    /// The view campaigned for by a view-change vote (`None` for every other
    /// message) — node layers watch outgoing broadcasts for it to trace the
    /// start of a view change.
    pub fn view_change_view(&self) -> Option<u64> {
        match self {
            ConsensusMsg::Paxos(PaxosMsg::ViewChange { new_view, .. })
            | ConsensusMsg::Pbft(PbftMsg::ViewChange { new_view, .. }) => Some(*new_view),
            _ => None,
        }
    }

    /// The application snapshot carried by a snapshot-based catch-up reply
    /// (`None` for every other message) — wire-size models charge its
    /// modeled size on top of the per-command terms.
    pub fn snapshot_payload(&self) -> Option<&StateSnapshot> {
        match self {
            ConsensusMsg::Paxos(PaxosMsg::SnapshotReply { snapshot, .. }) => Some(snapshot),
            ConsensusMsg::Pbft(PbftMsg::SnapshotReply { snapshot, .. }) => Some(snapshot),
            _ => None,
        }
    }

    /// Total member commands carried by a state reply (0 for any other
    /// message) — wire-size models charge transfers per carried command.
    pub fn state_reply_commands(&self) -> usize {
        match self {
            ConsensusMsg::Paxos(PaxosMsg::StateReply { entries, .. }) => {
                entries.iter().map(|(_, b)| b.len()).sum()
            }
            ConsensusMsg::Pbft(PbftMsg::StateReply { entries, .. }) => {
                entries.iter().map(|(_, b)| b.len()).sum()
            }
            ConsensusMsg::Paxos(PaxosMsg::SnapshotReply { tail, .. }) => {
                tail.iter().map(|(_, b)| b.len()).sum()
            }
            ConsensusMsg::Pbft(PbftMsg::SnapshotReply { tail, .. }) => {
                tail.iter().map(|(_, b)| b.len()).sum()
            }
            _ => 0,
        }
    }

    /// A Byzantine-equivocating replica's conflicting twin of this message
    /// (`None` where equivocation is meaningless, which includes every
    /// crash-model message):
    ///
    /// * PBFT pre-prepare: same `(view, seq)`, different (empty) block, so
    ///   different backups may accept different digests for one slot.
    /// * PBFT view-change vote: same view, but the prepared certificates are
    ///   stripped — two recipients see incompatible votes from one replica.
    /// * PBFT new-view: same view and checkpoint, but every re-proposed
    ///   block is emptied, so the twin conflicts with any prepared slot.
    pub fn tampered(&self) -> Option<Self> {
        let ConsensusMsg::Pbft(msg) = self else {
            return None;
        };
        let twin = match msg {
            PbftMsg::PrePrepare { view, seq, .. } => PbftMsg::PrePrepare {
                view: *view,
                seq: *seq,
                cmd: Batch::new(Vec::new()),
            },
            PbftMsg::ViewChange { new_view, .. } => PbftMsg::ViewChange {
                new_view: *new_view,
                prepared: Vec::new(),
                checkpoint: 0,
            },
            PbftMsg::NewView {
                view,
                log,
                checkpoint,
            } => PbftMsg::NewView {
                view: *view,
                log: log
                    .iter()
                    .map(|(seq, _)| (*seq, Batch::new(Vec::new())))
                    .collect(),
                checkpoint: *checkpoint,
            },
            _ => return None,
        };
        Some(ConsensusMsg::Pbft(twin))
    }

    /// Member commands carried beyond one per block.
    ///
    /// Wire-size models charge a per-member increment on top of the legacy
    /// single-command message size, so an unbatched deployment
    /// (`max_batch = 1`, every block a single command) costs exactly what it
    /// did before batching existed.
    pub fn extra_commands(&self) -> usize {
        let batch_extra = |b: &Batch<C>| b.len().saturating_sub(1);
        match self {
            ConsensusMsg::Paxos(m) => match m {
                PaxosMsg::Accept { cmd, .. } => batch_extra(cmd),
                PaxosMsg::ViewChange { accepted, .. } => {
                    accepted.iter().map(|(_, _, b)| batch_extra(b)).sum()
                }
                PaxosMsg::NewView { log, .. } => log.iter().map(|(_, b)| batch_extra(b)).sum(),
                PaxosMsg::StateReply { entries, .. } => {
                    entries.iter().map(|(_, b)| batch_extra(b)).sum()
                }
                PaxosMsg::SnapshotReply { tail, .. } => {
                    tail.iter().map(|(_, b)| batch_extra(b)).sum()
                }
                PaxosMsg::Accepted { .. }
                | PaxosMsg::Learn { .. }
                | PaxosMsg::Checkpoint { .. }
                | PaxosMsg::StateRequest { .. } => 0,
            },
            ConsensusMsg::Pbft(m) => match m {
                PbftMsg::PrePrepare { cmd, .. } => batch_extra(cmd),
                PbftMsg::ViewChange { prepared, .. } => {
                    prepared.iter().map(|(_, _, b)| batch_extra(b)).sum()
                }
                PbftMsg::NewView { log, .. } => log.iter().map(|(_, b)| batch_extra(b)).sum(),
                PbftMsg::StateReply { entries, .. } => {
                    entries.iter().map(|(_, b)| batch_extra(b)).sum()
                }
                PbftMsg::SnapshotReply { tail, .. } => {
                    tail.iter().map(|(_, b)| batch_extra(b)).sum()
                }
                PbftMsg::Prepare { .. }
                | PbftMsg::Commit { .. }
                | PbftMsg::Checkpoint { .. }
                | PbftMsg::StateRequest { .. } => 0,
            },
        }
    }
}

/// The protocol state machine a replica runs, ordering whole batches.
#[derive(Clone, Debug)]
enum Engine<C> {
    Paxos(PaxosReplica<Batch<C>>),
    Pbft(PbftReplica<Batch<C>>),
}

/// A replica of one domain running whichever protocol the domain's failure
/// model requires, plus the leader-side request batcher.
#[derive(Clone, Debug)]
pub struct ConsensusReplica<C> {
    engine: Engine<C>,
    batcher: Batcher<C>,
}

impl<C: Command> ConsensusReplica<C> {
    /// Creates the appropriate replica for a domain with the given quorum
    /// specification, with batching disabled (`max_batch = 1`).
    pub fn new(me: NodeId, replicas: Vec<NodeId>, quorum: QuorumSpec) -> Self {
        Self::with_batching(me, replicas, quorum, BatchConfig::unbatched())
    }

    /// Creates a replica whose leader cuts blocks according to `batch`.
    pub fn with_batching(
        me: NodeId,
        replicas: Vec<NodeId>,
        quorum: QuorumSpec,
        batch: BatchConfig,
    ) -> Self {
        let engine = match quorum.model {
            FailureModel::Crash => Engine::Paxos(PaxosReplica::new(me, replicas, quorum)),
            FailureModel::Byzantine => Engine::Pbft(PbftReplica::new(me, replicas, quorum)),
        };
        Self {
            engine,
            batcher: Batcher::new(batch),
        }
    }

    /// Replaces the checkpoint / state-transfer configuration of the
    /// underlying engine (builder style).
    pub fn with_checkpointing(mut self, checkpoint: CheckpointConfig) -> Self {
        self.engine = match self.engine {
            Engine::Paxos(r) => Engine::Paxos(r.with_checkpointing(checkpoint)),
            Engine::Pbft(r) => Engine::Pbft(r.with_checkpointing(checkpoint)),
        };
        self
    }

    /// The last stable (quorum-certified executed) checkpoint.
    pub fn stable_checkpoint(&self) -> SeqNo {
        match &self.engine {
            Engine::Paxos(r) => r.stable_checkpoint(),
            Engine::Pbft(r) => r.stable_checkpoint(),
        }
    }

    /// Number of entries a view-change vote sent right now would carry —
    /// bounded by `history − stable checkpoint`.
    pub fn vote_entries(&self) -> usize {
        match &self.engine {
            Engine::Paxos(r) => r.vote_entries(),
            Engine::Pbft(r) => r.vote_entries(),
        }
    }

    /// True if the domain runs PBFT (Byzantine failure model).
    pub fn is_byzantine(&self) -> bool {
        matches!(self.engine, Engine::Pbft(_))
    }

    /// Conflicting view-change / new-view certificates this replica has
    /// detected and discarded (twin certificates from an equivocating peer).
    pub fn certificate_conflicts(&self) -> u64 {
        match &self.engine {
            Engine::Paxos(r) => r.certificate_conflicts(),
            Engine::Pbft(r) => r.certificate_conflicts(),
        }
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
        match &self.engine {
            Engine::Paxos(r) => r.view(),
            Engine::Pbft(r) => r.view(),
        }
    }

    /// The primary of the current view.
    pub fn primary(&self) -> NodeId {
        match &self.engine {
            Engine::Paxos(r) => r.primary(),
            Engine::Pbft(r) => r.primary(),
        }
    }

    /// True if this replica is the primary of the current view.
    pub fn is_primary(&self) -> bool {
        match &self.engine {
            Engine::Paxos(r) => r.is_primary(),
            Engine::Pbft(r) => r.is_primary(),
        }
    }

    /// Last delivered sequence number (counts blocks, not member commands).
    pub fn last_delivered(&self) -> SeqNo {
        match &self.engine {
            Engine::Paxos(r) => r.last_delivered(),
            Engine::Pbft(r) => r.last_delivered(),
        }
    }

    /// Hands the engine the application snapshot the adapter materialized in
    /// response to a [`Step::TakeSnapshot`].  Stale snapshots (at or below
    /// the one already held) are ignored.
    pub fn store_snapshot(&mut self, snapshot: Arc<StateSnapshot>) {
        match &mut self.engine {
            Engine::Paxos(r) => r.store_snapshot(snapshot),
            Engine::Pbft(r) => r.store_snapshot(snapshot),
        }
    }

    /// Number of delivered-command chain entries the engine still retains
    /// (the whole history under `retention = ∞`, a bounded suffix otherwise).
    pub fn chain_len(&self) -> u64 {
        match &self.engine {
            Engine::Paxos(r) => r.chain_len(),
            Engine::Pbft(r) => r.chain_len(),
        }
    }

    /// First sequence number still retained in the delivered-command chain.
    pub fn chain_start(&self) -> SeqNo {
        match &self.engine {
            Engine::Paxos(r) => r.chain_start(),
            Engine::Pbft(r) => r.chain_start(),
        }
    }

    /// Sequence number of the application snapshot the engine currently
    /// holds, if any.
    pub fn snapshot_seq(&self) -> Option<SeqNo> {
        match &self.engine {
            Engine::Paxos(r) => r.snapshot_seq(),
            Engine::Pbft(r) => r.snapshot_seq(),
        }
    }

    /// Hands a command to the leader-side batcher (no-op on non-primaries)
    /// and drives consensus on the cut block, if the push completed one.
    ///
    /// When this returns no steps but [`ConsensusReplica::pending_commands`]
    /// is non-zero, the adapter must arrange for
    /// [`ConsensusReplica::flush`] to run within
    /// [`BatchConfig::max_delay`].
    pub fn propose(&mut self, cmd: C) -> Vec<Step<Batch<C>, ConsensusMsg<C>>> {
        if !self.is_primary() {
            return Vec::new();
        }
        match self.batcher.push(cmd) {
            Some(batch) => self.propose_batch(batch),
            None => Vec::new(),
        }
    }

    /// Cuts and proposes whatever the batcher holds (the `max_delay` path).
    ///
    /// If the engine refuses the proposal — the flush timer raced a view
    /// change that deposed (or is deposing) this leader — the commands are
    /// put back into the batcher rather than destroyed: they are retried by
    /// the next cut, and commit if this replica leads again.  (The
    /// `propose` path deliberately keeps the legacy semantics instead — a
    /// command handed to a mid-view-change leader is dropped, exactly as
    /// the unbatched pipeline dropped it.)
    pub fn flush(&mut self) -> Vec<Step<Batch<C>, ConsensusMsg<C>>> {
        let Some(batch) = self.batcher.flush() else {
            return Vec::new();
        };
        let retry = batch.clone();
        let steps = self.propose_batch(batch);
        if steps.is_empty() {
            // The engine emits at least one Send/Broadcast for any accepted
            // proposal; no steps means it refused the batch.
            self.batcher.restore(retry);
        }
        steps
    }

    fn propose_batch(&mut self, batch: Batch<C>) -> Vec<Step<Batch<C>, ConsensusMsg<C>>> {
        match &mut self.engine {
            Engine::Paxos(r) => wrap(r.propose(batch), ConsensusMsg::Paxos),
            Engine::Pbft(r) => wrap(r.propose(batch), ConsensusMsg::Pbft),
        }
    }

    /// Handles a wire message from a peer replica.  Messages of the wrong
    /// protocol (which a Byzantine peer could fabricate) are ignored.
    pub fn on_message(
        &mut self,
        from: NodeId,
        msg: ConsensusMsg<C>,
    ) -> Vec<Step<Batch<C>, ConsensusMsg<C>>> {
        match (&mut self.engine, msg) {
            (Engine::Paxos(r), ConsensusMsg::Paxos(m)) => {
                wrap(r.on_message(from, m), ConsensusMsg::Paxos)
            }
            (Engine::Pbft(r), ConsensusMsg::Pbft(m)) => {
                wrap(r.on_message(from, m), ConsensusMsg::Pbft)
            }
            _ => Vec::new(),
        }
    }

    /// Progress timeout: suspect the primary if this replica is a backup.
    pub fn on_progress_timeout(&mut self) -> Vec<Step<Batch<C>, ConsensusMsg<C>>> {
        match &mut self.engine {
            Engine::Paxos(r) => wrap(r.on_progress_timeout(), ConsensusMsg::Paxos),
            Engine::Pbft(r) => wrap(r.on_progress_timeout(), ConsensusMsg::Pbft),
        }
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

fn wrap<C, M, W>(steps: Vec<Step<Batch<C>, M>>, f: impl Fn(M) -> W) -> Vec<Step<Batch<C>, W>> {
    steps
        .into_iter()
        .map(|s| match s {
            Step::Send { to, msg } => Step::Send { to, msg: f(msg) },
            Step::Broadcast { msg } => Step::Broadcast { msg: f(msg) },
            Step::Deliver { seq, command } => Step::Deliver { seq, command },
            Step::ViewChanged { view, primary } => Step::ViewChanged { view, primary },
            Step::TakeSnapshot { seq } => Step::TakeSnapshot { seq },
            Step::InstallSnapshot { snapshot } => Step::InstallSnapshot { snapshot },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::{DomainId, Duration};
    use std::collections::VecDeque;

    type Cmd = Vec<u8>;

    fn domain_with(
        model: FailureModel,
        n: u16,
        batch: BatchConfig,
    ) -> (Vec<NodeId>, Vec<ConsensusReplica<Cmd>>) {
        let d = DomainId::new(1, 0);
        let nodes: Vec<NodeId> = (0..n).map(|i| NodeId::new(d, i)).collect();
        let quorum = QuorumSpec::for_size(model, n as usize);
        let reps = nodes
            .iter()
            .map(|id| ConsensusReplica::with_batching(*id, nodes.clone(), quorum, batch))
            .collect();
        (nodes, reps)
    }

    fn domain(model: FailureModel, n: u16) -> (Vec<NodeId>, Vec<ConsensusReplica<Cmd>>) {
        domain_with(model, n, BatchConfig::unbatched())
    }

    /// Per-origin initial protocol steps fed into the test network.
    type InitialSteps = Vec<(usize, Vec<Step<Batch<Cmd>, ConsensusMsg<Cmd>>>)>;

    fn drive(
        nodes: &[NodeId],
        reps: &mut [ConsensusReplica<Cmd>],
        initial: InitialSteps,
    ) -> Vec<Vec<Cmd>> {
        let mut delivered = vec![Vec::new(); reps.len()];
        let mut queue: VecDeque<(usize, NodeId, ConsensusMsg<Cmd>)> = VecDeque::new();
        let idx = |id: NodeId| nodes.iter().position(|n| *n == id).unwrap();
        let handle = |o: usize,
                      steps: Vec<Step<Batch<Cmd>, ConsensusMsg<Cmd>>>,
                      q: &mut VecDeque<(usize, NodeId, ConsensusMsg<Cmd>)>,
                      del: &mut Vec<Vec<Cmd>>| {
            for s in steps {
                match s {
                    Step::Send { to, msg } => q.push_back((idx(to), nodes[o], msg)),
                    Step::Broadcast { msg } => {
                        for i in 0..nodes.len() {
                            if i != o {
                                q.push_back((i, nodes[o], msg.clone()));
                            }
                        }
                    }
                    Step::Deliver { command, .. } => del[o].extend(command.into_commands()),
                    Step::ViewChanged { .. }
                    | Step::TakeSnapshot { .. }
                    | Step::InstallSnapshot { .. } => {}
                }
            }
        };
        for (o, s) in initial {
            handle(o, s, &mut queue, &mut delivered);
        }
        while let Some((to, from, msg)) = queue.pop_front() {
            let steps = reps[to].on_message(from, msg);
            handle(to, steps, &mut queue, &mut delivered);
        }
        delivered
    }

    #[test]
    fn selects_protocol_from_failure_model() {
        let (_n, reps) = domain(FailureModel::Crash, 3);
        assert!(!reps[0].is_byzantine());
        let (_n, reps) = domain(FailureModel::Byzantine, 4);
        assert!(reps[0].is_byzantine());
    }

    #[test]
    fn both_protocols_commit_through_the_wrapper() {
        for (model, n) in [(FailureModel::Crash, 3u16), (FailureModel::Byzantine, 4)] {
            let (nodes, mut reps) = domain(model, n);
            assert!(reps[0].is_primary());
            assert_eq!(reps[0].primary(), nodes[0]);
            let steps = reps[0].propose(b"hello".to_vec());
            let delivered = drive(&nodes, &mut reps, vec![(0, steps)]);
            for d in &delivered {
                assert_eq!(d, &vec![b"hello".to_vec()]);
            }
            assert!(reps.iter().all(|r| r.last_delivered() == 1));
            assert_eq!(reps[0].view(), 0);
        }
    }

    #[test]
    fn full_batch_commits_as_one_block() {
        for (model, n) in [(FailureModel::Crash, 3u16), (FailureModel::Byzantine, 4)] {
            let (nodes, mut reps) = domain_with(model, n, BatchConfig::with_max_batch(3));
            let mut initial = Vec::new();
            assert!(reps[0].propose(b"a".to_vec()).is_empty());
            assert!(reps[0].propose(b"b".to_vec()).is_empty());
            assert_eq!(reps[0].pending_commands(), 2);
            initial.push((0, reps[0].propose(b"c".to_vec())));
            assert_eq!(reps[0].pending_commands(), 0);
            let delivered = drive(&nodes, &mut reps, initial);
            for d in &delivered {
                assert_eq!(d, &vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
            }
            // Three commands, one consensus instance.
            assert!(reps.iter().all(|r| r.last_delivered() == 1));
        }
    }

    #[test]
    fn flush_proposes_the_underfull_block() {
        let (nodes, mut reps) = domain_with(
            FailureModel::Crash,
            3,
            BatchConfig::with_max_batch(8).with_max_delay(Duration::from_millis(2)),
        );
        assert!(reps[0].propose(b"only".to_vec()).is_empty());
        assert_eq!(reps[0].pending_commands(), 1);
        let steps = reps[0].flush();
        assert!(!steps.is_empty());
        let delivered = drive(&nodes, &mut reps, vec![(0, steps)]);
        for d in &delivered {
            assert_eq!(d, &vec![b"only".to_vec()]);
        }
        assert!(reps[0].flush().is_empty(), "nothing left to flush");
    }

    #[test]
    fn flush_racing_a_view_change_retains_buffered_commands() {
        let (nodes, mut reps) = domain_with(FailureModel::Crash, 3, BatchConfig::with_max_batch(8));
        // The view-0 leader buffers two commands without cutting a block.
        assert!(reps[0].propose(b"a".to_vec()).is_empty());
        assert!(reps[0].propose(b"b".to_vec()).is_empty());
        assert_eq!(reps[0].pending_commands(), 2);
        // The backups suspect it and elect replica 1; the deposed leader
        // learns of the new view before its flush timer fires.
        let vc1 = reps[1].on_progress_timeout();
        let vc2 = reps[2].on_progress_timeout();
        drive(&nodes, &mut reps, vec![(1, vc1), (2, vc2)]);
        assert!(!reps[0].is_primary());
        // The late flush must not destroy the buffered commands: the engine
        // refuses the proposal and the batcher keeps them for a retry.
        assert!(reps[0].flush().is_empty());
        assert_eq!(reps[0].pending_commands(), 2);
    }

    #[test]
    fn non_primary_propose_is_dropped_without_batching() {
        let (_nodes, mut reps) =
            domain_with(FailureModel::Crash, 3, BatchConfig::with_max_batch(4));
        assert!(reps[1].propose(b"x".to_vec()).is_empty());
        assert_eq!(reps[1].pending_commands(), 0);
    }

    #[test]
    fn cross_protocol_messages_are_ignored() {
        let (_nodes, mut reps) = domain(FailureModel::Crash, 3);
        let bogus = ConsensusMsg::Pbft(PbftMsg::Prepare {
            view: 0,
            seq: 1,
            digest: saguaro_crypto::sha256(b"x"),
        });
        assert!(reps[1]
            .on_message(NodeId::new(DomainId::new(1, 0), 0), bogus)
            .is_empty());
    }

    #[test]
    fn signature_counts_differ_between_models() {
        let paxos: ConsensusMsg<Cmd> = ConsensusMsg::Paxos(PaxosMsg::Learn { view: 0, seq: 1 });
        let pbft: ConsensusMsg<Cmd> = ConsensusMsg::Pbft(PbftMsg::Commit {
            view: 0,
            seq: 1,
            digest: saguaro_crypto::sha256(b"x"),
        });
        assert_eq!(paxos.signature_count(), 0);
        assert_eq!(pbft.signature_count(), 1);
        let vc: ConsensusMsg<Cmd> = ConsensusMsg::Pbft(PbftMsg::ViewChange {
            new_view: 1,
            prepared: vec![
                (1, 0, Batch::single(b"c".to_vec())),
                (2, 0, Batch::single(b"d".to_vec())),
            ],
            checkpoint: 0,
        });
        assert_eq!(vc.signature_count(), 3);
    }

    #[test]
    fn extra_commands_counts_members_beyond_one_per_block() {
        let single: ConsensusMsg<Cmd> = ConsensusMsg::Paxos(PaxosMsg::Accept {
            view: 0,
            seq: 1,
            cmd: Batch::single(b"a".to_vec()),
        });
        assert_eq!(single.extra_commands(), 0);
        let triple: ConsensusMsg<Cmd> = ConsensusMsg::Pbft(PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            cmd: Batch::new(vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]),
        });
        assert_eq!(triple.extra_commands(), 2);
        let learn: ConsensusMsg<Cmd> = ConsensusMsg::Paxos(PaxosMsg::Learn { view: 0, seq: 1 });
        assert_eq!(learn.extra_commands(), 0);
    }

    #[test]
    fn timeout_dispatches_to_active_protocol() {
        let (_nodes, mut reps) = domain(FailureModel::Byzantine, 4);
        assert!(reps[0].on_progress_timeout().is_empty());
        assert!(!reps[1].on_progress_timeout().is_empty());
    }
}
