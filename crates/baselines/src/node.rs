//! The baseline replica node (AHL shard / AHL committee / SharPer shard).

use crate::messages::{BCmd, BaselineMsg, BaselineRole};
use saguaro_consensus::{Batch, ConsensusMsg, ConsensusReplica, Step, SuspicionTimer};
use saguaro_core::exec::execute_in_domain;
use saguaro_hierarchy::HierarchyTree;
use saguaro_ledger::{BlockchainState, LinearLedger, TxStatus};
use saguaro_net::{Actor, Addr, Context, TimerId};
use saguaro_trace::{TraceActor, TraceConfig, TraceEvent, TraceEventKind, Tracer};
use saguaro_types::{
    BatchConfig, CheckpointConfig, DeliveryLog, DomainId, FailureModel, LivenessConfig, MultiSeq,
    NodeId, QuorumSpec, SeqNo, SimTime, StateSnapshot, Transaction, TxId,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Counters the experiment harness reads after a baseline run.
#[derive(Clone, Debug, Default)]
pub struct BaselineStats {
    /// Internal transactions committed by this node.
    pub internal_committed: u64,
    /// Cross-shard transactions committed by this node.
    pub cross_committed: u64,
    /// Cross-shard transactions aborted.
    pub cross_aborted: u64,
    /// View changes observed by this node's internal consensus.
    pub view_changes: u64,
    /// Rolling hash of the internal consensus delivery stream, one snapshot
    /// per delivered block (same bounded-window scheme as
    /// `saguaro_core::NodeStats`): the fault suites check that replicas of a
    /// shard agree on their common delivery prefix.
    pub consensus_log: DeliveryLog,
    /// Application snapshots this node materialized at checkpoint points.
    pub snapshots_taken: u64,
    /// Application snapshots this node installed through snapshot-based
    /// catch-up.
    pub snapshots_installed: u64,
    /// Member commands applied through state-transfer replies (recovery
    /// catch-up) instead of the normal ordering pipeline.
    pub state_transfer_commands: u64,
    /// Wire bytes of the state-transfer replies applied.
    pub state_transfer_bytes: u64,
    /// When the last state-transfer reply was applied.
    pub caught_up_at: Option<SimTime>,
}

impl BaselineStats {
    /// Folds one delivered block into the rolling delivery-stream hash —
    /// see [`saguaro_types::delivery_hash`].
    fn note_delivery(&mut self, seq: SeqNo, members: impl Iterator<Item = u64>) {
        let prev = self.consensus_log.last();
        self.consensus_log
            .push(saguaro_types::delivery_hash(prev, seq, members));
    }
}

/// Per-command fingerprint for the delivery-stream hash: the transaction id
/// tagged with the command variant (the same transaction may legitimately be
/// ordered twice under different variants, e.g. 2PC prepare then commit).
fn bcmd_fingerprint(cmd: &BCmd) -> u64 {
    let (tag, tx) = match cmd {
        BCmd::Internal(tx) => (0u64, tx),
        BCmd::CommitteeOrder(tx) => (1, tx),
        BCmd::ShardPrepare(tx) => (2, tx),
        BCmd::ShardCommit(tx) => (3, tx),
    };
    tx.id.0 ^ (tag << 60)
}

/// The transaction a baseline command carries (every variant carries one).
fn bcmd_tx(cmd: &BCmd) -> &Transaction {
    match cmd {
        BCmd::Internal(tx)
        | BCmd::CommitteeOrder(tx)
        | BCmd::ShardPrepare(tx)
        | BCmd::ShardCommit(tx) => tx,
    }
}

#[derive(Debug)]
struct AhlCoordEntry {
    tx: Transaction,
    votes: BTreeSet<DomainId>,
    decided: bool,
}

#[derive(Debug, Default)]
struct FlatEntry {
    /// Votes per shard (CFT) or post-echo votes per shard (BFT).
    votes: BTreeMap<DomainId, BTreeSet<NodeId>>,
    /// Echoes per shard (BFT pre-commit phase).
    echoes: BTreeMap<DomainId, BTreeSet<NodeId>>,
    committed: bool,
}

/// A replica of a baseline (AHL or SharPer) deployment.
pub struct BaselineNode {
    id: NodeId,
    role: BaselineRole,
    tree: Arc<HierarchyTree>,
    quorum: QuorumSpec,
    /// The other replicas of this node's domain: the recipients of every
    /// consensus broadcast.
    other_peers: Vec<NodeId>,
    consensus: ConsensusReplica<BCmd>,
    /// The committee domain used by AHL deployments.
    committee: DomainId,
    ledger: LinearLedger,
    state: BlockchainState,
    reply_to: HashMap<TxId, saguaro_types::ClientId>,
    // AHL committee bookkeeping.
    coordinating: HashMap<TxId, AhlCoordEntry>,
    // SharPer leader bookkeeping.
    flattened: HashMap<TxId, FlatEntry>,
    flat_seq: SeqNo,
    /// Cross-shard transactions seen in a prepare/accept, kept so later
    /// phases can re-propose them locally.
    prepared_cache: HashMap<TxId, Transaction>,
    /// Batching knobs of the internal consensus.
    batch: BatchConfig,
    /// Pending flush timer for an under-full consensus batch (leader only).
    batch_timer: Option<TimerId>,
    /// Progress-timer (primary suspicion) knobs.
    liveness: LivenessConfig,
    /// Record the consensus delivery stream for post-run agreement checks.
    record_deliveries: bool,
    /// The pending progress timer, when liveness is enabled.
    progress_timer: Option<TimerId>,
    /// Last delivered sequence number seen by the progress check.
    last_progress_check: SeqNo,
    /// Adaptive suspicion-window state (fixed under non-adaptive knobs).
    suspicion: SuspicionTimer,
    /// Statistics for the harness.
    pub stats: BaselineStats,
    /// Structured-event recorder (disabled unless the experiment opts in
    /// via [`BaselineNode::with_trace`]).
    tracer: Tracer,
}

impl BaselineNode {
    /// Creates a baseline replica with batching disabled.  `committee` names
    /// the AHL reference committee domain (ignored for SharPer shards).
    pub fn new(
        id: NodeId,
        role: BaselineRole,
        tree: Arc<HierarchyTree>,
        committee: DomainId,
    ) -> Self {
        Self::with_batching(id, role, tree, committee, BatchConfig::unbatched())
    }

    /// Creates a baseline replica whose internal consensus cuts blocks
    /// according to `batch` (so batched Saguaro is compared against equally
    /// batched baselines).
    pub fn with_batching(
        id: NodeId,
        role: BaselineRole,
        tree: Arc<HierarchyTree>,
        committee: DomainId,
        batch: BatchConfig,
    ) -> Self {
        let cfg = tree.config(id.domain).expect("domain exists");
        let quorum = cfg.quorum;
        let peers = tree.nodes_of(id.domain).expect("domain has nodes");
        let other_peers = peers.iter().copied().filter(|p| *p != id).collect();
        let consensus = ConsensusReplica::with_batching(id, peers, quorum, batch);
        Self {
            id,
            role,
            tree,
            quorum,
            other_peers,
            consensus,
            committee,
            ledger: LinearLedger::new(id.domain),
            state: BlockchainState::new(),
            reply_to: HashMap::new(),
            coordinating: HashMap::new(),
            flattened: HashMap::new(),
            flat_seq: 0,
            prepared_cache: HashMap::new(),
            batch,
            batch_timer: None,
            liveness: LivenessConfig::disabled(),
            record_deliveries: false,
            progress_timer: None,
            last_progress_check: 0,
            suspicion: SuspicionTimer::new(LivenessConfig::disabled()),
            stats: BaselineStats::default(),
            tracer: Tracer::new(TraceConfig::off(), TraceActor::Node(id)),
        }
    }

    /// Replaces the structured-tracing knobs (builder style).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.tracer = Tracer::new(trace, TraceActor::Node(self.id));
        self
    }

    /// Drains the node's trace ring buffer (harvest): the buffered events
    /// plus the count of events dropped under buffer pressure.
    pub fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        self.tracer.take()
    }

    /// Enables delivery-stream recording for post-run agreement checks.
    pub fn with_delivery_recording(mut self, record: bool) -> Self {
        self.record_deliveries = record;
        self
    }

    /// Replaces the checkpoint / state-transfer configuration of the
    /// internal consensus (builder style).
    pub fn with_checkpointing(mut self, checkpoint: CheckpointConfig) -> Self {
        self.consensus = self.consensus.with_checkpointing(checkpoint);
        self
    }

    /// The internal consensus delivery frontier of this replica.
    pub fn consensus_frontier(&self) -> SeqNo {
        self.consensus.last_delivered()
    }

    /// The internal consensus stable checkpoint of this replica.
    pub fn consensus_checkpoint(&self) -> SeqNo {
        self.consensus.stable_checkpoint()
    }

    /// Entries a view-change vote from this replica would carry right now.
    pub fn consensus_vote_entries(&self) -> usize {
        self.consensus.vote_entries()
    }

    /// Delivered-command chain entries the internal consensus still retains.
    pub fn consensus_chain_len(&self) -> u64 {
        self.consensus.chain_len()
    }

    /// First sequence number still retained in the consensus chain.
    pub fn consensus_chain_start(&self) -> SeqNo {
        self.consensus.chain_start()
    }

    /// Sequence number of the application snapshot the consensus holds.
    pub fn consensus_snapshot_seq(&self) -> Option<SeqNo> {
        self.consensus.snapshot_seq()
    }

    /// Conflicting view-change / new-view certificates this replica's
    /// consensus detected and discarded.
    pub fn consensus_certificate_conflicts(&self) -> u64 {
        self.consensus.certificate_conflicts()
    }

    /// Enables (or replaces) the liveness-timer knobs.  The timer loop is
    /// armed by the first `ProgressTimer` *message* the node receives — the
    /// deployment injects one at start-up, and again when a crashed replica
    /// recovers.
    pub fn with_liveness(mut self, liveness: LivenessConfig) -> Self {
        self.liveness = liveness;
        self.suspicion = SuspicionTimer::new(liveness);
        self
    }

    /// Seeds an account balance before the run.
    pub fn seed_account(&mut self, key: impl Into<String>, balance: u64) {
        self.state.put(key, balance);
    }

    /// The node's role in the deployment.
    pub fn role(&self) -> BaselineRole {
        self.role
    }

    /// Counters for the harness.
    pub fn stats(&self) -> &BaselineStats {
        &self.stats
    }

    /// Read-only ledger access (tests).
    pub fn ledger(&self) -> &LinearLedger {
        &self.ledger
    }

    /// Read-only state access (tests).
    pub fn blockchain_state(&self) -> &BlockchainState {
        &self.state
    }

    fn is_primary(&self) -> bool {
        self.consensus.is_primary()
    }

    fn domain(&self) -> DomainId {
        self.id.domain
    }

    fn cert_sigs(&self) -> usize {
        self.quorum.certificate_size()
    }

    fn propose(&mut self, cmd: BCmd, ctx: &mut Context<'_, BaselineMsg>) {
        let pooled = self.tracer.enabled().then(|| {
            let tx = bcmd_tx(&cmd);
            if self.tracer.samples(tx.id.0) {
                self.tracer
                    .record(ctx.now(), TraceEventKind::TxBatched { tx: tx.id });
            }
            self.consensus.pending_commands()
        });
        let steps = self.consensus.propose(cmd);
        if let Some(before) = pooled {
            self.note_batch_cut(before + 1, ctx);
        }
        self.drive(steps, ctx);
        self.sync_batch_timer(ctx);
    }

    /// Keeps the batch flush timer consistent with the batcher (see
    /// [`saguaro_core::batching::sync_flush_timer`]).
    fn sync_batch_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        saguaro_core::batching::sync_flush_timer(
            &self.consensus,
            &mut self.batch_timer,
            self.batch.max_delay,
            BaselineMsg::BatchTimer,
            ctx,
        );
    }

    fn on_batch_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        self.batch_timer = None;
        let pooled = self
            .tracer
            .enabled()
            .then(|| self.consensus.pending_commands());
        let steps = self.consensus.flush();
        if let Some(before) = pooled {
            self.note_batch_cut(before, ctx);
        }
        self.drive(steps, ctx);
    }

    /// Traces a batch cut: `before` commands were pooled going in; whatever
    /// no longer pools after the propose/flush was cut into a proposal.
    fn note_batch_cut(&mut self, before: usize, ctx: &mut Context<'_, BaselineMsg>) {
        let after = self.consensus.pending_commands();
        if before > after {
            self.tracer.record(
                ctx.now(),
                TraceEventKind::BatchCut {
                    commands: (before - after) as u64,
                },
            );
        }
    }

    fn drive(
        &mut self,
        steps: Vec<Step<Batch<BCmd>, ConsensusMsg<BCmd>>>,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        for step in steps {
            match step {
                Step::Send { to, msg } => ctx.send(to, BaselineMsg::Consensus(msg)),
                Step::Broadcast { msg } => {
                    if self.tracer.enabled() {
                        if let Some(view) = msg.view_change_view() {
                            self.tracer
                                .record(ctx.now(), TraceEventKind::ViewChangeStart { view });
                        }
                    }
                    ctx.multicast(
                        self.other_peers.iter().copied(),
                        BaselineMsg::Consensus(msg),
                    );
                }
                Step::Deliver { seq, command } => {
                    // Recorded only for fault-injection runs (the suites'
                    // cross-replica agreement checks); failure-free sweeps
                    // skip the bookkeeping.
                    if self.record_deliveries {
                        self.stats
                            .note_delivery(seq, command.iter().map(bcmd_fingerprint));
                    }
                    for cmd in command {
                        if self.tracer.enabled() {
                            let tx = bcmd_tx(&cmd);
                            if self.tracer.samples(tx.id.0) {
                                self.tracer.record(
                                    ctx.now(),
                                    TraceEventKind::TxOrdered { tx: tx.id, seq },
                                );
                            }
                        }
                        self.apply(cmd, ctx);
                    }
                }
                Step::ViewChanged { view, primary } => {
                    self.stats.view_changes += 1;
                    self.tracer.record(
                        ctx.now(),
                        TraceEventKind::ViewChangeComplete { view, primary },
                    );
                }
                Step::TakeSnapshot { seq } => {
                    self.tracer
                        .record(ctx.now(), TraceEventKind::SnapshotTaken { seq });
                    self.take_snapshot(seq)
                }
                Step::InstallSnapshot { snapshot } => {
                    self.tracer.record(
                        ctx.now(),
                        TraceEventKind::SnapshotInstalled { seq: snapshot.seq },
                    );
                    self.install_snapshot(&snapshot)
                }
            }
        }
    }

    /// Materializes an application snapshot as of the checkpoint `seq`
    /// (emitted in-stream, right after the delivery of `seq` executed) and
    /// hands it to the engine.  Only fires under a finite retention window,
    /// where it also bounds the ledger and the cross-shard caches.
    fn take_snapshot(&mut self, seq: SeqNo) {
        let snapshot = StateSnapshot {
            seq,
            delivery_hash: self.stats.consensus_log.last(),
            accounts: self.state.iter().map(|(k, v)| (k.to_string(), v)).collect(),
            mobile: Vec::new(),
            hosted: Vec::new(),
        };
        self.consensus.store_snapshot(Arc::new(snapshot));
        self.stats.snapshots_taken += 1;
        // Baseline deployments never cut propagation blocks, so the
        // pending-round cursor would pin the whole ledger as unprunable.
        self.ledger.note_round_boundary();
        for id in self.ledger.prune_front(DeliveryLog::CAPACITY) {
            self.prepared_cache.remove(&id);
            self.flattened.remove(&id);
            self.coordinating.remove(&id);
        }
    }

    /// Replaces the executed state with a catch-up snapshot's; the retained
    /// command tail follows as ordinary deliveries.
    fn install_snapshot(&mut self, snapshot: &StateSnapshot) {
        self.state = BlockchainState::new();
        for (k, v) in &snapshot.accounts {
            self.state.put(k.clone(), *v);
        }
        if self.record_deliveries {
            self.stats
                .consensus_log
                .splice(snapshot.seq, snapshot.delivery_hash);
        }
        self.stats.snapshots_installed += 1;
    }

    /// BFT shards reply from every replica; a backup that never saw the
    /// original request learns the target from the committed transaction.
    fn note_reply_target(&mut self, tx: &Transaction) {
        if self.quorum.model == FailureModel::Byzantine {
            self.reply_to.entry(tx.id).or_insert(tx.client);
        }
    }

    /// Progress-timer loop (armed by a `ProgressTimer` message): suspect the
    /// primary when no sequence number was delivered over the last window
    /// while client work is pending, then re-arm.
    fn on_progress_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        let delivered = self.consensus.last_delivered();
        let progressed = delivered != self.last_progress_check;
        let stuck = !progressed && (!self.reply_to.is_empty() || !self.coordinating.is_empty());
        self.last_progress_check = delivered;
        if stuck {
            self.suspicion.on_suspect();
            self.tracer.record(
                ctx.now(),
                TraceEventKind::SuspicionFired {
                    view: self.consensus.view(),
                },
            );
            let steps = self.consensus.on_progress_timeout();
            self.drive(steps, ctx);
        } else if progressed {
            self.suspicion.on_progress();
        }
        self.progress_timer =
            Some(ctx.set_timer(self.suspicion.window(), BaselineMsg::ProgressTimer));
    }

    /// A `ProgressTimer` *message* (deployment kick-off or post-recovery
    /// re-kick): restart the timer loop from scratch.  Cancelling the
    /// tracked id first keeps a kick from doubling a live loop.
    fn on_progress_kick(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        if !self.liveness.enabled {
            return;
        }
        if let Some(id) = self.progress_timer.take() {
            ctx.cancel_timer(id);
        }
        self.progress_timer =
            Some(ctx.set_timer(self.suspicion.window(), BaselineMsg::ProgressTimer));
    }

    fn reply(&mut self, tx_id: TxId, committed: bool, ctx: &mut Context<'_, BaselineMsg>) {
        let Some(client) = self.reply_to.remove(&tx_id) else {
            return;
        };
        let should_send = match self.quorum.model {
            FailureModel::Crash => self.is_primary(),
            FailureModel::Byzantine => true,
        };
        if should_send {
            ctx.send(
                Addr::Client(client),
                BaselineMsg::Reply { tx_id, committed },
            );
            if self.tracer.samples(tx_id.0) {
                self.tracer.record(
                    ctx.now(),
                    TraceEventKind::TxReplied {
                        tx: tx_id,
                        committed,
                    },
                );
            }
        }
    }

    fn execute_and_commit(
        &mut self,
        tx: &Transaction,
        cross: bool,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        if self.ledger.contains(tx.id) {
            return;
        }
        self.note_reply_target(tx);
        let domain = self.domain();
        let _ = execute_in_domain(&mut self.state, &tx.op, domain);
        if cross {
            let mut seq = MultiSeq::new();
            seq.set(domain, self.ledger.reserve_seq());
            self.ledger
                .append_cross_domain(tx.clone(), seq, TxStatus::Committed);
            self.stats.cross_committed += 1;
        } else {
            self.ledger.append_internal(tx.clone(), TxStatus::Committed);
            self.stats.internal_committed += 1;
        }
        if self.tracer.samples(tx.id.0) {
            self.tracer
                .record(ctx.now(), TraceEventKind::TxExecuted { tx: tx.id });
        }
        self.reply(tx.id, true, ctx);
    }

    fn apply(&mut self, cmd: BCmd, ctx: &mut Context<'_, BaselineMsg>) {
        match cmd {
            BCmd::Internal(tx) => self.execute_and_commit(&tx, false, ctx),
            BCmd::CommitteeOrder(tx) => self.apply_committee_order(tx, ctx),
            BCmd::ShardPrepare(tx) => self.apply_shard_prepare(tx, ctx),
            BCmd::ShardCommit(tx) => self.execute_and_commit(&tx, true, ctx),
        }
    }

    // ------------------------------------------------------------------
    // Client request handling
    // ------------------------------------------------------------------

    fn handle_request(&mut self, tx: Transaction, ctx: &mut Context<'_, BaselineMsg>) {
        self.reply_to.insert(tx.id, tx.client);
        if !self.is_primary() {
            ctx.send(self.consensus.primary(), BaselineMsg::ClientRequest(tx));
            return;
        }
        if !tx.kind.is_cross_domain() {
            self.propose(BCmd::Internal(tx), ctx);
            return;
        }
        match self.role {
            BaselineRole::AhlShard | BaselineRole::AhlCommittee => {
                // Forward to the reference committee for 2PC coordination.
                ctx.multicast(
                    self.tree.replicas_of(self.committee),
                    BaselineMsg::CrossSubmit { tx },
                );
            }
            BaselineRole::SharperShard => self.start_flattened(tx, ctx),
        }
    }

    // ------------------------------------------------------------------
    // AHL: reference committee + 2PC
    // ------------------------------------------------------------------

    fn on_cross_submit(&mut self, tx: Transaction, ctx: &mut Context<'_, BaselineMsg>) {
        if self.role != BaselineRole::AhlCommittee || !self.is_primary() {
            return;
        }
        if self.coordinating.contains_key(&tx.id) {
            return;
        }
        self.propose(BCmd::CommitteeOrder(tx), ctx);
    }

    fn apply_committee_order(&mut self, tx: Transaction, ctx: &mut Context<'_, BaselineMsg>) {
        self.coordinating.entry(tx.id).or_insert(AhlCoordEntry {
            tx: tx.clone(),
            votes: BTreeSet::new(),
            decided: false,
        });
        if self.is_primary() {
            let cert_sigs = self.cert_sigs();
            for d in tx.involved_domains() {
                ctx.multicast(
                    self.tree.replicas_of(d),
                    BaselineMsg::TwoPcPrepare {
                        tx: tx.clone(),
                        cert_sigs,
                    },
                );
            }
        }
    }

    fn on_two_pc_prepare(&mut self, tx: Transaction, ctx: &mut Context<'_, BaselineMsg>) {
        if !self.is_primary() || self.role == BaselineRole::AhlCommittee {
            return;
        }
        if self.ledger.contains(tx.id) {
            return;
        }
        self.propose(BCmd::ShardPrepare(tx), ctx);
    }

    fn apply_shard_prepare(&mut self, tx: Transaction, ctx: &mut Context<'_, BaselineMsg>) {
        // The shard ordered (locked) the transaction; its primary votes.
        self.prepared_cache.insert(tx.id, tx.clone());
        if self.is_primary() {
            let cert_sigs = self.cert_sigs();
            ctx.multicast(
                self.tree.replicas_of(self.committee),
                BaselineMsg::TwoPcVote {
                    tx_id: tx.id,
                    domain: self.domain(),
                    ok: true,
                    cert_sigs,
                },
            );
        }
    }

    fn on_two_pc_vote(
        &mut self,
        tx_id: TxId,
        domain: DomainId,
        ok: bool,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        if self.role != BaselineRole::AhlCommittee {
            return;
        }
        let (ready, tx) = {
            let Some(entry) = self.coordinating.get_mut(&tx_id) else {
                return;
            };
            if entry.decided || !ok {
                return;
            }
            entry.votes.insert(domain);
            let ready = entry
                .tx
                .involved_domains()
                .iter()
                .all(|d| entry.votes.contains(d));
            if ready {
                entry.decided = true;
            }
            (ready, entry.tx.clone())
        };
        if ready && self.is_primary() {
            let cert_sigs = self.cert_sigs();
            for d in tx.involved_domains() {
                ctx.multicast(
                    self.tree.replicas_of(d),
                    BaselineMsg::TwoPcDecision {
                        tx_id,
                        commit: true,
                        cert_sigs,
                    },
                );
            }
        }
    }

    fn on_two_pc_decision(
        &mut self,
        tx_id: TxId,
        commit: bool,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        if self.role == BaselineRole::AhlCommittee {
            return;
        }
        if !commit {
            if let Some(tx) = self.prepared_cache.get(&tx_id).cloned() {
                self.note_reply_target(&tx);
            }
            self.stats.cross_aborted += 1;
            self.reply(tx_id, false, ctx);
            return;
        }
        // The shard already ordered the transaction in phase 1; the primary
        // now orders the commit so every replica executes it.
        if self.is_primary() {
            if let Some(entry) = self.ledger.get(tx_id) {
                let tx = entry.tx.clone();
                self.propose(BCmd::ShardCommit(tx), ctx);
            } else if let Some(tx) = self.pending_prepared(tx_id) {
                self.propose(BCmd::ShardCommit(tx), ctx);
            }
        }
    }

    /// Finds the transaction of a prepared-but-not-committed cross-shard
    /// transaction (cached when the shard ordered the phase-1 prepare).
    fn pending_prepared(&self, tx_id: TxId) -> Option<Transaction> {
        self.prepared_cache.get(&tx_id).cloned()
    }

    // ------------------------------------------------------------------
    // SharPer: flattened cross-shard consensus
    // ------------------------------------------------------------------

    fn start_flattened(&mut self, tx: Transaction, ctx: &mut Context<'_, BaselineMsg>) {
        self.flat_seq += 1;
        let seq = self.flat_seq;
        self.flattened.entry(tx.id).or_default();
        let leader_domain = self.domain();
        for d in tx.involved_domains() {
            ctx.multicast(
                self.tree.replicas_of(d),
                BaselineMsg::FlatAccept {
                    tx: tx.clone(),
                    seq,
                    leader_domain,
                },
            );
        }
    }

    fn on_flat_accept(
        &mut self,
        tx: Transaction,
        _seq: SeqNo,
        leader_domain: DomainId,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        self.prepared_cache.insert(tx.id, tx.clone());
        let leader_primary = NodeId::new(leader_domain, 0);
        match self.quorum.model {
            FailureModel::Crash => {
                // CFT: vote straight back to the leader.
                ctx.send(
                    leader_primary,
                    BaselineMsg::FlatVote {
                        tx_id: tx.id,
                        domain: self.domain(),
                    },
                );
            }
            FailureModel::Byzantine => {
                // BFT: all-to-all echo across every involved shard first.
                for d in tx.involved_domains() {
                    ctx.multicast(
                        self.tree.replicas_of(d),
                        BaselineMsg::FlatEcho {
                            tx_id: tx.id,
                            domain: self.domain(),
                        },
                    );
                }
            }
        }
    }

    fn on_flat_echo(
        &mut self,
        tx_id: TxId,
        domain: DomainId,
        from: Addr,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        let Some(node) = from.as_node() else { return };
        let Some(tx) = self.prepared_cache.get(&tx_id).cloned() else {
            return;
        };
        let quorum = self.quorum.commit_quorum();
        let entry = self.flattened.entry(tx_id).or_default();
        entry.echoes.entry(domain).or_default().insert(node);
        let all_quorate = tx
            .involved_domains()
            .iter()
            .all(|d| entry.echoes.get(d).map(BTreeSet::len).unwrap_or(0) >= quorum);
        if all_quorate && !entry.committed {
            // Vote to the leader (the primary of the first involved domain in
            // SharPer's deterministic leader assignment — here the initiator,
            // recorded as the lowest involved domain's primary).
            let leader = NodeId::new(tx.involved_domains()[0], 0);
            ctx.send(
                leader,
                BaselineMsg::FlatVote {
                    tx_id,
                    domain: self.domain(),
                },
            );
        }
    }

    fn on_flat_vote(
        &mut self,
        tx_id: TxId,
        domain: DomainId,
        from: Addr,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        let Some(node) = from.as_node() else { return };
        let Some(tx) = self.prepared_cache.get(&tx_id).cloned() else {
            return;
        };
        let needed_per_shard = match self.quorum.model {
            FailureModel::Crash => self.quorum.commit_quorum(),
            // After the echo phase each shard only needs one quorate reporter.
            FailureModel::Byzantine => 1,
        };
        let (ready, involved) = {
            let entry = self.flattened.entry(tx_id).or_default();
            if entry.committed {
                return;
            }
            entry.votes.entry(domain).or_default().insert(node);
            let involved = tx.involved_domains();
            let ready = involved
                .iter()
                .all(|d| entry.votes.get(d).map(BTreeSet::len).unwrap_or(0) >= needed_per_shard);
            if ready {
                entry.committed = true;
            }
            (ready, involved)
        };
        if ready {
            let cert_sigs = self.cert_sigs();
            for d in involved {
                ctx.multicast(
                    self.tree.replicas_of(d),
                    BaselineMsg::FlatCommit { tx_id, cert_sigs },
                );
            }
        }
    }

    fn on_flat_commit(&mut self, tx_id: TxId, ctx: &mut Context<'_, BaselineMsg>) {
        if !self.is_primary() {
            return;
        }
        if let Some(tx) = self.prepared_cache.get(&tx_id).cloned() {
            self.propose(BCmd::ShardCommit(tx), ctx);
        }
    }
}

impl Actor<BaselineMsg> for BaselineNode {
    fn on_message(&mut self, from: Addr, msg: BaselineMsg, ctx: &mut Context<'_, BaselineMsg>) {
        match msg {
            BaselineMsg::ClientRequest(tx) => self.handle_request(tx, ctx),
            BaselineMsg::Consensus(m) => {
                if let Some(node) = from.as_node() {
                    let transfer_bytes = m
                        .is_state_reply()
                        .then(|| crate::messages::consensus_wire_bytes(&m));
                    // Delta probes around the consensus call: checkpoint
                    // advancement and fresh certificate conflicts surface as
                    // trace events without touching the engine itself.
                    let probe = self.tracer.enabled().then(|| {
                        if m.is_state_transfer() && !m.is_state_reply() {
                            self.tracer
                                .record(ctx.now(), TraceEventKind::StateTransferRequest);
                        }
                        (
                            self.consensus.stable_checkpoint(),
                            self.consensus.certificate_conflicts(),
                        )
                    });
                    let steps = self.consensus.on_message(node, m);
                    if let Some((checkpoint, conflicts)) = probe {
                        if self.consensus.stable_checkpoint() > checkpoint {
                            self.tracer.record(
                                ctx.now(),
                                TraceEventKind::CheckpointStable {
                                    seq: self.consensus.stable_checkpoint(),
                                },
                            );
                        }
                        if self.consensus.certificate_conflicts() > conflicts {
                            self.tracer.record(
                                ctx.now(),
                                TraceEventKind::EquivocationDetected {
                                    conflicts: self.consensus.certificate_conflicts(),
                                },
                            );
                        }
                    }
                    if let Some(bytes) = transfer_bytes {
                        let commands = saguaro_consensus::delivered_commands(&steps);
                        let installed = steps
                            .iter()
                            .any(|s| matches!(s, Step::InstallSnapshot { .. }));
                        if commands > 0 || installed {
                            self.stats.state_transfer_commands += commands;
                            self.stats.state_transfer_bytes += bytes as u64;
                            self.stats.caught_up_at = Some(ctx.now());
                            self.tracer.record(
                                ctx.now(),
                                TraceEventKind::StateTransferReply {
                                    commands,
                                    bytes: bytes as u64,
                                },
                            );
                        }
                    }
                    self.drive(steps, ctx);
                }
            }
            BaselineMsg::CrossSubmit { tx } => self.on_cross_submit(tx, ctx),
            BaselineMsg::TwoPcPrepare { tx, .. } => self.on_two_pc_prepare(tx, ctx),
            BaselineMsg::TwoPcVote {
                tx_id, domain, ok, ..
            } => self.on_two_pc_vote(tx_id, domain, ok, ctx),
            BaselineMsg::TwoPcDecision { tx_id, commit, .. } => {
                self.on_two_pc_decision(tx_id, commit, ctx)
            }
            BaselineMsg::FlatAccept {
                tx,
                seq,
                leader_domain,
            } => self.on_flat_accept(tx, seq, leader_domain, ctx),
            BaselineMsg::FlatEcho { tx_id, domain } => self.on_flat_echo(tx_id, domain, from, ctx),
            BaselineMsg::FlatVote { tx_id, domain } => self.on_flat_vote(tx_id, domain, from, ctx),
            BaselineMsg::FlatCommit { tx_id, .. } => self.on_flat_commit(tx_id, ctx),
            BaselineMsg::BatchTimer => self.on_batch_timer(ctx),
            BaselineMsg::ProgressTimer => self.on_progress_kick(ctx),
            BaselineMsg::Reply { .. } => {}
        }
    }

    fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn on_timer(&mut self, _id: TimerId, msg: BaselineMsg, ctx: &mut Context<'_, BaselineMsg>) {
        match msg {
            BaselineMsg::ProgressTimer => self.on_progress_timer(ctx),
            BaselineMsg::BatchTimer => self.on_batch_timer(ctx),
            _ => {}
        }
    }
}
