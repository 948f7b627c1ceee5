//! The Saguaro replica node.
//!
//! One [`SaguaroNode`] is instantiated per replica of every height-1 and
//! above domain.  It wires together:
//!
//! * the domain's internal consensus ([`saguaro_consensus::ConsensusReplica`]),
//! * the execution layer of height-1 domains (linear ledger + blockchain
//!   state),
//! * the summarized layer of height-2+ domains (DAG ledger + aggregate view),
//! * the coordinator-based cross-domain protocol (`coordinator` module),
//! * the optimistic cross-domain protocol (`optimistic` module),
//! * lazy block propagation (`propagation` module), and
//! * the mobile consensus protocol (`mobile` module).
//!
//! The node is a [`saguaro_net::Actor`]: all interaction happens through
//! `on_message` / `on_timer` callbacks of the discrete-event simulator.

use crate::command::Cmd;
use crate::config::{CrossDomainMode, ProtocolConfig};
use crate::coordinator::{CoordEntry, ParticipantEntry};
use crate::messages::SaguaroMsg;
use crate::optimistic::{OptTracker, OptimisticValidator};
use crate::stats::NodeStats;
use saguaro_consensus::{Batch, ConsensusMsg, ConsensusReplica, Step, SuspicionTimer};
use saguaro_hierarchy::HierarchyTree;
use saguaro_ledger::{
    AggregateView, Block, BlockchainState, DagLedger, LinearLedger, TxStatus, UndoRecord,
};
use saguaro_net::{Actor, Addr, Context, TimerId};
use saguaro_trace::{TraceActor, TraceEvent, TraceEventKind, Tracer};
use saguaro_types::{
    ClientId, DomainId, FailureModel, MobileOwnership, NodeId, Operation, QuorumSpec, SeqNo,
    StateSnapshot, Transaction, TxId,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// State kept for a mobile device registered in (or hosted by) this domain.
#[derive(Clone, Debug)]
pub(crate) struct MobileRecord {
    /// `true` when this domain's copy of the device state is current.
    pub lock: bool,
    /// The remote domain holding the most recent records when `lock == false`.
    pub remote: Option<DomainId>,
}

/// A Saguaro replica node (one per VM of the paper's testbed).
pub struct SaguaroNode {
    pub(crate) id: NodeId,
    pub(crate) tree: Arc<HierarchyTree>,
    pub(crate) config: ProtocolConfig,
    pub(crate) quorum: QuorumSpec,
    /// The other replicas of this node's domain (sorted): the recipients of
    /// every consensus broadcast.
    pub(crate) other_peers: Vec<NodeId>,
    pub(crate) consensus: ConsensusReplica<Cmd>,

    // ---------------- execution layer (height-1 domains) ----------------
    pub(crate) ledger: LinearLedger,
    pub(crate) state: BlockchainState,
    /// Raw state updates of the current round (input to the abstraction fn).
    pub(crate) round_updates: Vec<(String, u64)>,
    /// Undo records of executed transactions (needed for optimistic aborts).
    pub(crate) undo_log: HashMap<TxId, UndoRecord>,
    /// Clients whose request this domain received directly (reply targets).
    pub(crate) reply_to: HashMap<TxId, ClientId>,

    // ---------------- summarized layer (height-2+ domains) ----------------
    pub(crate) dag: DagLedger,
    pub(crate) agg: AggregateView,
    /// Child blocks that arrived out of order, buffered until their turn.
    pub(crate) pending_child_blocks: BTreeMap<(DomainId, u64), Block>,
    /// Transactions newly added to the DAG since the last round (contents of
    /// the next block this domain sends to its own parent).
    pub(crate) dag_new_since_round: Vec<TxId>,

    // ---------------- coordinator-based cross-domain state ----------------
    /// Transactions this domain currently coordinates (it is their LCA).
    pub(crate) coordinated: HashMap<TxId, CoordEntry>,
    /// Cross-domain transactions queued at the coordinator because they
    /// intersect an in-flight transaction in two or more domains.
    pub(crate) coord_queue: VecDeque<Transaction>,
    /// Next coordinator sequence number.
    pub(crate) next_coord_seq: SeqNo,
    /// Cross-domain transactions this domain participates in.
    pub(crate) participating: HashMap<TxId, ParticipantEntry>,
    /// Prepares queued at a participant because of conflict blocking.
    pub(crate) participant_queue: VecDeque<(Transaction, SeqNo, usize)>,

    // ---------------- optimistic cross-domain state ----------------
    pub(crate) opt: OptTracker,
    pub(crate) validator: OptimisticValidator,

    // ---------------- mobile consensus state ----------------
    /// Lock bit / remote pointer for devices whose home is this domain.
    pub(crate) mobile: HashMap<ClientId, MobileRecord>,
    /// Devices whose state this (remote) domain currently hosts.
    pub(crate) hosted_devices: HashSet<ClientId>,
    /// Requests waiting for a device state to arrive, keyed by device.
    pub(crate) pending_mobile: HashMap<ClientId, Vec<Transaction>>,
    /// Devices with a live state-query retry loop (at most one per device),
    /// so a crashed primary on either side of a hand-off cannot strand the
    /// queued requests forever.
    pub(crate) mobile_retry_armed: HashSet<ClientId>,

    // ---------------- timers & misc ----------------
    pub(crate) round: u64,
    /// The pending round timer (tracked so a post-recovery kick can restart
    /// the loop without doubling it).
    pub(crate) round_timer: Option<TimerId>,
    pub(crate) progress_timer: Option<TimerId>,
    pub(crate) last_progress_check: SeqNo,
    /// Adaptive suspicion-window state: how long the next progress window
    /// should be (fixed under a non-adaptive [`saguaro_types::LivenessConfig`]).
    pub(crate) suspicion: SuspicionTimer,
    /// Pending flush timer for an under-full consensus batch (leader only;
    /// never scheduled when `config.batch.max_batch == 1`).
    pub(crate) batch_timer: Option<TimerId>,
    /// Measurement counters read by the experiment harness.
    pub stats: NodeStats,
    /// Structured-event recorder (a disabled no-op unless the experiment
    /// opts in via [`ProtocolConfig::trace`]).
    pub(crate) tracer: Tracer,
}

impl SaguaroNode {
    /// Creates the replica `id` for a deployment described by `tree`.
    pub fn new(id: NodeId, tree: Arc<HierarchyTree>, config: ProtocolConfig) -> Self {
        let cfg = tree
            .config(id.domain)
            .expect("node's domain is in the tree");
        let quorum = cfg.quorum;
        let peers = tree.nodes_of(id.domain).expect("domain has nodes");
        let other_peers = peers.iter().copied().filter(|p| *p != id).collect();
        let consensus = ConsensusReplica::with_batching(id, peers, quorum, config.batch)
            .with_checkpointing(config.checkpoint);
        let suspicion = SuspicionTimer::new(config.liveness);
        let tracer = Tracer::new(config.trace, TraceActor::Node(id));
        Self {
            id,
            tree,
            config,
            quorum,
            other_peers,
            consensus,
            ledger: LinearLedger::new(id.domain),
            state: BlockchainState::new(),
            round_updates: Vec::new(),
            undo_log: HashMap::new(),
            reply_to: HashMap::new(),
            dag: DagLedger::new(),
            agg: AggregateView::new(),
            pending_child_blocks: BTreeMap::new(),
            dag_new_since_round: Vec::new(),
            coordinated: HashMap::new(),
            coord_queue: VecDeque::new(),
            next_coord_seq: 1,
            participating: HashMap::new(),
            participant_queue: VecDeque::new(),
            opt: OptTracker::default(),
            validator: OptimisticValidator::default(),
            mobile: HashMap::new(),
            hosted_devices: HashSet::new(),
            pending_mobile: HashMap::new(),
            mobile_retry_armed: HashSet::new(),
            round: 0,
            round_timer: None,
            progress_timer: None,
            last_progress_check: 0,
            suspicion,
            batch_timer: None,
            stats: NodeStats::default(),
            tracer,
        }
    }

    /// Drains the node's trace ring buffer (harvest): the buffered events
    /// plus the count of events dropped under buffer pressure.
    pub fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        self.tracer.take()
    }

    /// Seeds an account balance directly (experiment setup, before the run).
    pub fn seed_account(&mut self, key: impl Into<String>, balance: u64) {
        self.state.put(key, balance);
    }

    /// The node identifier.
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// The domain this node belongs to.
    pub fn domain(&self) -> DomainId {
        self.id.domain
    }

    /// Read-only access to the node's blockchain state.
    pub fn blockchain_state(&self) -> &BlockchainState {
        &self.state
    }

    /// Read-only access to the node's linear ledger (height-1 domains).
    pub fn ledger(&self) -> &LinearLedger {
        &self.ledger
    }

    /// Read-only access to the node's DAG ledger (height-2+ domains).
    pub fn dag_ledger(&self) -> &DagLedger {
        &self.dag
    }

    /// Read-only access to the aggregate view (height-2+ domains).
    pub fn aggregate_view(&self) -> &AggregateView {
        &self.agg
    }

    /// Measurement counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
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

    /// True if this node is currently the primary of its domain.
    pub fn is_primary(&self) -> bool {
        self.consensus.is_primary()
    }

    // ------------------------------------------------------------------
    // Helpers shared by the protocol modules
    // ------------------------------------------------------------------

    /// The number of certificate signatures this domain attaches to messages
    /// it sends to other domains (1 for CFT, 2f + 1 for BFT).
    pub(crate) fn cert_sigs(&self) -> usize {
        self.quorum.certificate_size()
    }

    /// Sends a message to every node of `domain`.
    pub(crate) fn send_to_domain(
        &self,
        domain: DomainId,
        msg: SaguaroMsg,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        ctx.multicast(self.tree.replicas_of(domain), msg);
    }

    /// Proposes a command through the internal consensus (primary only) and
    /// drives the resulting steps.  The command may be held back by the
    /// leader-side batcher until the block fills; a flush timer guarantees an
    /// under-full block is still cut within `config.batch.max_delay`.
    pub(crate) fn propose(&mut self, cmd: Cmd, ctx: &mut Context<'_, SaguaroMsg>) {
        let pooled = self.tracer.enabled().then(|| {
            if let Some(tx) = cmd.transaction().filter(|t| self.tracer.samples(t.id.0)) {
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
    /// [`crate::batching::sync_flush_timer`]).
    fn sync_batch_timer(&mut self, ctx: &mut Context<'_, SaguaroMsg>) {
        crate::batching::sync_flush_timer(
            &self.consensus,
            &mut self.batch_timer,
            self.config.batch.max_delay,
            SaguaroMsg::BatchTimer,
            ctx,
        );
    }

    /// The batch flush timer fired: cut and propose whatever is pending.
    fn on_batch_timer(&mut self, ctx: &mut Context<'_, SaguaroMsg>) {
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
    fn note_batch_cut(&mut self, before: usize, ctx: &mut Context<'_, SaguaroMsg>) {
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

    /// Records the application of a state-transfer reply: how many member
    /// commands it delivered, its wire volume, and when the catch-up landed
    /// (the recovery experiments read these off the victim replica).
    fn note_state_transfer(
        &mut self,
        steps: &[Step<Batch<Cmd>, ConsensusMsg<Cmd>>],
        bytes: usize,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let commands = saguaro_consensus::delivered_commands(steps);
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

    /// Applies consensus output steps: routes messages and executes delivered
    /// batches, unpacking each into per-command execution.
    pub(crate) fn drive(
        &mut self,
        steps: Vec<Step<Batch<Cmd>, ConsensusMsg<Cmd>>>,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        for step in steps {
            match step {
                Step::Send { to, msg } => ctx.send(to, SaguaroMsg::Consensus(msg)),
                Step::Broadcast { msg } => {
                    if self.tracer.enabled() {
                        if let Some(view) = msg.view_change_view() {
                            self.tracer
                                .record(ctx.now(), TraceEventKind::ViewChangeStart { view });
                        }
                    }
                    ctx.multicast(self.other_peers.iter().copied(), SaguaroMsg::Consensus(msg));
                }
                Step::Deliver { seq, command } => {
                    // The delivery-stream hash only serves the fault suites'
                    // cross-replica agreement checks; failure-free
                    // performance sweeps skip the bookkeeping entirely.
                    if self.config.record_deliveries {
                        self.stats
                            .note_delivery(seq, command.iter().map(cmd_fingerprint));
                    }
                    for cmd in command {
                        if self.tracer.enabled() {
                            if let Some(tx) =
                                cmd.transaction().filter(|t| self.tracer.samples(t.id.0))
                            {
                                self.tracer.record(
                                    ctx.now(),
                                    TraceEventKind::TxOrdered { tx: tx.id, seq },
                                );
                            }
                        }
                        self.apply_command(seq, cmd, ctx);
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

    /// Materializes an application snapshot as of the checkpoint `seq` the
    /// engine just announced (the step arrives in-stream, immediately after
    /// the delivery of `seq` executed) and hands it back to the engine.
    /// Only emitted under a finite retention window, where it also bounds
    /// the per-transaction side state the snapshot makes redundant.
    fn take_snapshot(&mut self, seq: SeqNo) {
        let mut mobile: Vec<MobileOwnership> = self
            .mobile
            .iter()
            .map(|(device, rec)| MobileOwnership {
                device: *device,
                locked: rec.lock,
                remote: rec.remote,
            })
            .collect();
        mobile.sort_by_key(|m| m.device.0);
        let mut hosted: Vec<ClientId> = self.hosted_devices.iter().copied().collect();
        hosted.sort_by_key(|c| c.0);
        let snapshot = StateSnapshot {
            seq,
            delivery_hash: self.stats.consensus_log.last(),
            accounts: self.state.iter().map(|(k, v)| (k.to_string(), v)).collect(),
            mobile,
            hosted,
        };
        self.consensus.store_snapshot(Arc::new(snapshot));
        self.stats.snapshots_taken += 1;
        // Replicas that never cut blocks — backups, and nodes of the root
        // domain, which has no parent to send blocks to — accumulate round
        // state nobody will ever read: the pending-round cursor pins the
        // whole ledger as unprunable and `round_updates` grows per write.
        // End their round here so the prune below actually bounds memory.
        let cuts_blocks = self.is_primary() && self.tree.parent(self.domain()).is_some();
        if !cuts_blocks {
            self.round_updates.clear();
            self.ledger.note_round_boundary();
        }
        let pruned = self.ledger.prune_front(crate::stats::CommitTimes::CAPACITY);
        for id in pruned {
            self.undo_log.remove(&id);
        }
        // Parent domains also bound the DAG of incorporated child blocks:
        // its history below the window is superseded by the snapshot.
        self.dag.prune_front(crate::stats::CommitTimes::CAPACITY);
    }

    /// Replaces the executed application state with a catch-up snapshot's
    /// (the retained command tail follows as ordinary deliveries).  Undo
    /// records and reply targets of the superseded history are dropped: the
    /// transactions they belong to are quorum-executed behind a stable
    /// checkpoint and can no longer abort.
    fn install_snapshot(&mut self, snapshot: &StateSnapshot) {
        self.state = BlockchainState::new();
        for (k, v) in &snapshot.accounts {
            self.state.put(k.clone(), *v);
        }
        self.mobile = snapshot
            .mobile
            .iter()
            .map(|m| {
                (
                    m.device,
                    MobileRecord {
                        lock: m.locked,
                        remote: m.remote,
                    },
                )
            })
            .collect();
        self.hosted_devices = snapshot.hosted.iter().copied().collect();
        self.undo_log.clear();
        if self.config.record_deliveries {
            self.stats
                .consensus_log
                .splice(snapshot.seq, snapshot.delivery_hash);
        }
        self.stats.snapshots_installed += 1;
    }

    /// Executes a command the domain's internal consensus has committed.
    fn apply_command(&mut self, _seq: SeqNo, cmd: Cmd, ctx: &mut Context<'_, SaguaroMsg>) {
        match cmd {
            Cmd::Internal(tx) => self.apply_internal(tx, ctx),
            Cmd::CoordPrepare { tx, coord_seq } => self.apply_coord_prepare(tx, coord_seq, ctx),
            Cmd::CrossPrepare { tx, coord_seq } => self.apply_cross_prepare(tx, coord_seq, ctx),
            Cmd::CoordCommit {
                tx_id,
                seqs,
                commit,
            } => self.apply_coord_commit(tx_id, seqs, commit, ctx),
            Cmd::OptimisticCross(tx) => self.apply_optimistic(tx, ctx),
            Cmd::ChildBlock { child, block } => self.apply_child_block(child, block, ctx),
            Cmd::MobileExtract {
                device,
                remote,
                trigger,
            } => self.apply_mobile_extract(device, remote, trigger, ctx),
            Cmd::MobileInstall {
                device,
                entries,
                tx,
            } => self.apply_mobile_install(device, entries, tx, ctx),
        }
    }

    // ------------------------------------------------------------------
    // Internal transactions
    // ------------------------------------------------------------------

    fn handle_client_request(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        // Remember who to reply to: the domain that receives the request
        // replies after commit.
        self.reply_to.insert(tx.id, tx.client);
        match &tx.kind {
            saguaro_types::TxKind::Internal { .. } => {
                // A device that roamed away must have its state pulled back
                // before its internal transactions can execute (Section 7).
                if self
                    .mobile
                    .get(&tx.client)
                    .is_some_and(|m| !m.lock && m.remote.is_some())
                {
                    self.request_state_return(tx, ctx);
                    return;
                }
                if self.is_primary() {
                    self.propose(Cmd::Internal(tx), ctx);
                } else {
                    // Relay to the primary (the paper's client retry path).
                    ctx.send(self.consensus.primary(), SaguaroMsg::ClientRequest(tx));
                }
            }
            saguaro_types::TxKind::CrossDomain { .. } => match self.config.cross_mode {
                CrossDomainMode::Coordinator => self.start_coordinated(tx, ctx),
                CrossDomainMode::Optimistic => self.start_optimistic(tx, ctx),
            },
            saguaro_types::TxKind::Mobile { local, remote } => {
                let (local, remote) = (*local, *remote);
                if remote == self.domain() && local != self.domain() {
                    self.handle_remote_mobile_request(tx, local, ctx);
                } else {
                    // Device back home (or a degenerate mobile tx): internal path.
                    if self
                        .mobile
                        .get(&tx.client)
                        .is_some_and(|m| !m.lock && m.remote.is_some())
                    {
                        self.request_state_return(tx, ctx);
                    } else if self.is_primary() {
                        self.propose(Cmd::Internal(tx), ctx);
                    } else {
                        ctx.send(self.consensus.primary(), SaguaroMsg::ClientRequest(tx));
                    }
                }
            }
        }
    }

    /// Executes and commits an internal transaction delivered by consensus.
    fn apply_internal(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        if self.ledger.contains(tx.id) {
            // A view change may re-propose an already-committed batch (the
            // new primary cannot tell commitment from preparation for every
            // slot); executing it twice would double-spend.
            return;
        }
        self.note_reply_target(&tx);
        let undo = self.execute_owned(&tx.op);
        if let Some(u) = undo {
            self.undo_log.insert(tx.id, u);
        }
        self.ledger.append_internal(tx.clone(), TxStatus::Committed);
        self.stats.internal_committed += 1;
        self.stats.commit_times.record(tx.id, ctx.now());
        if self.tracer.samples(tx.id.0) {
            self.tracer
                .record(ctx.now(), TraceEventKind::TxExecuted { tx: tx.id });
        }
        self.reply(tx.id, true, ctx);
    }

    /// Executes the parts of an operation owned by (or hosted in) this domain
    /// and records the updates for the next block's state delta.
    pub(crate) fn execute_owned(&mut self, op: &Operation) -> Option<UndoRecord> {
        let domain = self.id.domain;
        let undo = crate::exec::execute_in_domain(&mut self.state, op, domain);
        match undo {
            Ok(u) => {
                for key in op.write_set() {
                    if let Some(v) = self.state.get(key) {
                        self.round_updates.push((key.to_string(), v));
                    }
                }
                Some(u)
            }
            Err(_) => None,
        }
    }

    /// Records the reply target for a transaction this replica is about to
    /// commit.  BFT domains reply from *every* replica (the client matches
    /// `f + 1` identical verdicts), so backups that never saw the original
    /// request — it went to a peer — must learn the target from the
    /// committed transaction itself.  CFT domains keep the receipt-only
    /// bookkeeping: the primary alone replies.
    pub(crate) fn note_reply_target(&mut self, tx: &Transaction) {
        if self.quorum.model == FailureModel::Byzantine {
            self.reply_to.entry(tx.id).or_insert(tx.client);
        }
    }

    /// Sends the commit/abort reply for `tx_id` if this domain received the
    /// original request.  CFT domains reply only from the primary; BFT
    /// domains reply from every replica and the client matches f + 1.
    pub(crate) fn reply(
        &mut self,
        tx_id: TxId,
        committed: bool,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let Some(client) = self.reply_to.remove(&tx_id) else {
            return;
        };
        let should_send = match self.quorum.model {
            FailureModel::Crash => self.is_primary(),
            FailureModel::Byzantine => true,
        };
        if should_send {
            ctx.send(Addr::Client(client), SaguaroMsg::Reply { tx_id, committed });
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

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    pub(crate) fn schedule_progress_timer(&mut self, ctx: &mut Context<'_, SaguaroMsg>) {
        let id = ctx.set_timer(self.suspicion.window(), SaguaroMsg::ProgressTimer);
        self.progress_timer = Some(id);
    }

    fn on_progress_timer(&mut self, ctx: &mut Context<'_, SaguaroMsg>) {
        // Suspect the primary only if nothing was delivered since the last
        // check while work is demonstrably pending: an unanswered client
        // request this replica received or relayed (`reply_to`), or an
        // in-flight cross-domain transaction.
        let delivered = self.consensus.last_delivered();
        let progressed = delivered != self.last_progress_check;
        let stuck = !progressed
            && (!self.participating.is_empty()
                || !self.coordinated.is_empty()
                || !self.reply_to.is_empty());
        self.last_progress_check = delivered;
        if stuck {
            // The window backs off before the next check: if the suspicion
            // is wrong (or the elected primary is also dead) the next view
            // change gets proportionally more room.
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
        self.schedule_progress_timer(ctx);
    }

    /// A round-timer *message* (deployment kick-off, or re-kick after a
    /// crashed replica recovers): restart both self-perpetuating timer loops
    /// from scratch.  While a replica is crashed its pending timers are
    /// silently retired, so the loops must be re-armed; cancelling the
    /// tracked ids first keeps a kick from ever doubling a live loop.
    fn on_round_timer_kick(&mut self, ctx: &mut Context<'_, SaguaroMsg>) {
        if let Some(id) = self.round_timer.take() {
            ctx.cancel_timer(id);
        }
        if let Some(id) = self.progress_timer.take() {
            ctx.cancel_timer(id);
        }
        // Mobile retry loops also died with the crash: devices still waiting
        // for their state when this replica went down must be re-queried.
        self.mobile_retry_armed.clear();
        let waiting: Vec<ClientId> = self.pending_mobile.keys().copied().collect();
        for device in waiting {
            self.arm_mobile_retry(device, ctx);
        }
        self.on_round_timer(ctx);
    }
}

impl Actor<SaguaroMsg> for SaguaroNode {
    fn on_message(&mut self, from: Addr, msg: SaguaroMsg, ctx: &mut Context<'_, SaguaroMsg>) {
        match msg {
            SaguaroMsg::ClientRequest(tx) => self.handle_client_request(tx, ctx),
            SaguaroMsg::Consensus(m) => {
                if let Some(node) = from.as_node() {
                    let transfer_bytes = m
                        .is_state_reply()
                        .then(|| crate::messages::consensus_bytes(&m));
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
                        self.note_state_transfer(&steps, bytes, ctx);
                    }
                    self.drive(steps, ctx);
                }
            }
            // Coordinator-based protocol.
            SaguaroMsg::CrossForward { tx } => self.on_cross_forward(tx, ctx),
            SaguaroMsg::Prepare {
                tx,
                coord_seq,
                cert_sigs,
            } => self.on_prepare(tx, coord_seq, cert_sigs, ctx),
            SaguaroMsg::PreparedMsg {
                tx_id,
                coord_seq,
                local_seq,
                domain,
                ..
            } => self.on_prepared(tx_id, coord_seq, local_seq, domain, ctx),
            SaguaroMsg::CommitCross {
                tx_id,
                seqs,
                commit,
                ..
            } => self.on_commit_cross(tx_id, seqs, commit, ctx),
            SaguaroMsg::AckCross { tx_id, domain } => self.on_ack_cross(tx_id, domain),
            SaguaroMsg::CommitQuery { tx_id, domain } => self.on_commit_query(tx_id, domain, ctx),
            SaguaroMsg::PreparedQuery { tx_id } => self.on_prepared_query(tx_id, ctx),
            // Propagation.
            SaguaroMsg::BlockMsg { child, block, .. } => self.on_block_msg(child, block, ctx),
            // Optimistic protocol.
            SaguaroMsg::OptForward { tx } => self.on_opt_forward(tx, ctx),
            SaguaroMsg::OptAbort { tx_id } => self.on_opt_abort(tx_id, ctx),
            SaguaroMsg::OptCommit { tx_id } => self.on_opt_commit(tx_id, ctx),
            // Mobile consensus.
            SaguaroMsg::StateQuery { device, tx, remote } => {
                self.on_state_query(device, tx, remote, ctx)
            }
            SaguaroMsg::StateMsg {
                device,
                entries,
                tx,
                ..
            } => self.on_state_msg(device, entries, tx, ctx),
            // Kick-off messages from the harness (deployment start and
            // post-recovery re-kicks) restart the timer loops.
            SaguaroMsg::RoundTimer => self.on_round_timer_kick(ctx),
            SaguaroMsg::ProgressTimer => self.on_progress_timer(ctx),
            SaguaroMsg::BatchTimer => self.on_batch_timer(ctx),
            SaguaroMsg::CrossTimeout { tx_id } => self.on_cross_timeout(tx_id, ctx),
            SaguaroMsg::CommitQueryTimer { tx_id } => self.on_commit_query_timer(tx_id, ctx),
            SaguaroMsg::MobileRetryTimer { device } => self.on_mobile_retry(device, ctx),
            SaguaroMsg::Reply { .. } | SaguaroMsg::ClientTick => {}
        }
    }

    fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn on_timer(&mut self, _id: TimerId, msg: SaguaroMsg, ctx: &mut Context<'_, SaguaroMsg>) {
        match msg {
            SaguaroMsg::RoundTimer => self.on_round_timer(ctx),
            SaguaroMsg::ProgressTimer => self.on_progress_timer(ctx),
            SaguaroMsg::BatchTimer => self.on_batch_timer(ctx),
            SaguaroMsg::CrossTimeout { tx_id } => self.on_cross_timeout(tx_id, ctx),
            SaguaroMsg::CommitQueryTimer { tx_id } => self.on_commit_query_timer(tx_id, ctx),
            SaguaroMsg::MobileRetryTimer { device } => self.on_mobile_retry(device, ctx),
            other => {
                // Any other payload used as a timer is treated as a message to
                // self (not used today, kept for forward compatibility).
                let self_addr = ctx.self_addr();
                self.on_message(self_addr, other, ctx);
            }
        }
    }
}

/// Cheap per-command fingerprint folded into the consensus delivery-stream
/// hash (`NodeStats::note_delivery`): the transaction id where there is one,
/// otherwise enough variant-specific data to distinguish deliveries.
fn cmd_fingerprint(cmd: &Cmd) -> u64 {
    match cmd {
        Cmd::CoordCommit { tx_id, commit, .. } => tx_id.0 ^ ((*commit as u64) << 63),
        Cmd::ChildBlock { child, block } => {
            (child.index as u64) << 32 | (child.height as u64) << 48 | block.header.id.round
        }
        Cmd::MobileExtract { device, .. } => device.0 ^ (1 << 62),
        other => other.transaction().map(|t| t.id.0).unwrap_or(0),
    }
}

// The protocol modules add further `impl SaguaroNode` blocks:
//  - crate::coordinator  (Algorithm 1)
//  - crate::optimistic   (Section 6)
//  - crate::propagation  (Section 5)
//  - crate::mobile       (Section 7 / Algorithm 2)
