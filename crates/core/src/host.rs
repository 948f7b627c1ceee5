//! The replica host: everything a domain replica does that is not its
//! cross-domain protocol.
//!
//! In the paper every domain at every height — and every AHL / SharPer shard
//! Saguaro is compared against — is the same object: a replica group that
//! orders commands through internal consensus and applies what is delivered.
//! [`ReplicaHost`] is that object's plumbing, written once: it owns the
//! [`ConsensusReplica`], the batch flush timer, the progress timer with its
//! [`SuspicionTimer`], the reply targets, the [`Tracer`] and the
//! [`HostStats`].  A node ([`crate::SaguaroNode`], the baselines'
//! `BaselineNode`) embeds one host and implements [`HostedReplica`]: how a
//! delivered command is applied, the application part of a snapshot, whether
//! work is pending, a command's transaction and fingerprint, and the four
//! message constructors plus the consensus wire-size function of its message
//! enum.  The trait's provided methods are the drive layer.
//!
//! Consensus steps are applied strictly in step order, interleaved with the
//! node's own sends: every `ctx.send` draws its latency from the run's RNG,
//! so applying a delivery (which replies and forwards) before or after a
//! neighbouring consensus send would change the schedule.  That is why
//! [`HostedReplica::drive`] calls back into the node per step instead of
//! returning a list to apply afterwards.

use saguaro_consensus::replica::Steps;
use saguaro_consensus::{
    delivered_commands, Command, ConsensusMsg, ConsensusReplica, Step, SuspicionTimer,
};
use saguaro_net::{Addr, Context, MessageMeta, TimerId};
use saguaro_trace::{TraceActor, TraceEvent, TraceEventKind, Tracer};
use saguaro_types::hash::FxHashMap;
use saguaro_types::{
    ClientId, DeliveryLog, Duration, FailureModel, NodeId, QuorumSpec, SeqNo, SimTime, StackConfig,
    StateSnapshot, Transaction, TxId,
};
use std::sync::Arc;

/// How long an under-full consensus batch may pool at the leader before the
/// flush timer cuts it anyway, bounding the latency a lightly loaded domain
/// pays for batching.
pub const BATCH_FLUSH_DELAY: Duration = Duration::from_millis(5);

/// Counters the host keeps about its replica's internal consensus.
#[derive(Clone, Debug, Default)]
pub struct HostStats {
    /// View changes observed by this replica.
    pub view_changes: u64,
    /// Rolling hash of the internal consensus delivery stream, one snapshot
    /// per delivered block, kept as a bounded window ([`DeliveryLog`]) so
    /// endurance runs do not grow it per delivery.  Two replicas of a domain
    /// agree on their common delivery prefix iff their windows agree at the
    /// deepest shared index — the fault-injection suites assert exactly that.
    pub consensus_log: DeliveryLog,
    /// Application snapshots this replica materialized at checkpoint points.
    pub snapshots_taken: u64,
    /// Application snapshots this replica installed through snapshot-based
    /// catch-up (each replaces a full missed-prefix replay).
    pub snapshots_installed: u64,
    /// Member commands this replica applied through state-transfer replies
    /// (recovery catch-up) instead of the normal ordering pipeline.
    pub state_transfer_commands: u64,
    /// Wire bytes of the state-transfer replies this replica applied.
    pub state_transfer_bytes: u64,
    /// The instant the last state-transfer reply was applied — for a
    /// crashed-and-recovered replica, when its catch-up completed.
    pub caught_up_at: Option<SimTime>,
}

/// One replica's consensus engine plus the timers, reply targets, tracer
/// and counters around it.  See the module docs.
pub struct ReplicaHost<C> {
    /// The other replicas of this node's domain (sorted): the recipients of
    /// every consensus broadcast.
    other_peers: Vec<NodeId>,
    consensus: ConsensusReplica<C>,
    stack: StackConfig,
    /// Pending flush timer for an under-full consensus batch (leader only;
    /// never scheduled when `stack.batch.max_batch == 1`).
    batch_timer: Option<TimerId>,
    /// The pending progress timer (tracked so a post-recovery kick can
    /// restart the loop without doubling it).
    progress_timer: Option<TimerId>,
    /// Last delivered sequence number seen by the progress check.
    last_progress_check: SeqNo,
    /// How long the next progress window should be.
    suspicion: SuspicionTimer,
    /// Clients whose request this domain received directly (reply targets).
    reply_to: FxHashMap<TxId, ClientId>,
    /// The buffer the consensus engine appends its steps to.  Each engine
    /// call takes it, [`HostedReplica::drive`] drains it and hands it back,
    /// so its capacity outlives the input that filled it.
    steps: Steps<C>,
    tracer: Tracer,
    stats: HostStats,
}

impl<C: Command> ReplicaHost<C> {
    /// The host of replica `id` in a domain of `peers` (itself included),
    /// with its consensus pipeline configured per `stack`.
    pub fn new(id: NodeId, peers: Vec<NodeId>, quorum: QuorumSpec, stack: StackConfig) -> Self {
        let other_peers = peers.iter().copied().filter(|p| *p != id).collect();
        let consensus = ConsensusReplica::with_batching(id, peers, quorum, stack.batch)
            .with_checkpointing(stack.checkpoint);
        Self {
            other_peers,
            consensus,
            stack,
            batch_timer: None,
            progress_timer: None,
            last_progress_check: 0,
            suspicion: SuspicionTimer::new(stack.liveness),
            reply_to: FxHashMap::default(),
            steps: Vec::new(),
            tracer: Tracer::new(stack.trace, TraceActor::Node(id)),
            stats: HostStats::default(),
        }
    }

    /// The replica's internal consensus engine (read-only).
    pub fn consensus(&self) -> &ConsensusReplica<C> {
        &self.consensus
    }

    /// The host's counters.
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// The quorum rules of this replica's domain.
    pub fn quorum(&self) -> QuorumSpec {
        self.consensus.quorum()
    }

    /// The current primary of this replica's domain (where backups relay
    /// client requests).
    pub fn primary(&self) -> NodeId {
        self.consensus.primary()
    }

    /// Drains the trace ring buffer (harvest): the buffered events plus the
    /// count of events dropped under buffer pressure.
    pub fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        self.tracer.take()
    }

    /// Remembers who to reply to: the replica that receives (or relays) a
    /// client request answers it after commit.
    pub fn note_request(&mut self, tx: &Transaction) {
        self.reply_to.insert(tx.id, tx.client);
    }

    /// Traces the execution of `tx` (a sampled lifecycle span event).
    pub fn trace_executed(&mut self, tx: TxId, now: SimTime) {
        if self.tracer.samples(tx.0) {
            self.tracer.record(now, TraceEventKind::TxExecuted { tx });
        }
    }

    /// The step buffer, to be filled by one engine call and passed to
    /// [`HostedReplica::drive`].  A nested call — a command applied inside
    /// `drive` that proposes again — finds the buffer already taken and
    /// gets a fresh one.
    fn take_steps(&mut self) -> Steps<C> {
        std::mem::take(&mut self.steps)
    }

    /// Traces a batch cut: `before` commands were pooled going in; whatever
    /// no longer pools after the propose/flush was cut into a proposal.
    fn note_batch_cut(&mut self, before: usize, now: SimTime) {
        let after = self.consensus.pending_commands();
        if before > after {
            let commands = (before - after) as u64;
            self.tracer
                .record(now, TraceEventKind::BatchCut { commands });
        }
    }
}

/// A node that embeds a [`ReplicaHost`].  The required items are what
/// differs between protocol stacks; the provided methods are the replica
/// drive layer every stack shares.
pub trait HostedReplica: Sized {
    /// The commands this node's domain orders.
    type Cmd: Command;
    /// The deployment's wire message enum.
    type Msg: MessageMeta + Clone;

    /// The embedded host.
    fn host_mut(&mut self) -> &mut ReplicaHost<Self::Cmd>;

    /// Wraps intra-domain consensus traffic.
    fn consensus_msg(msg: ConsensusMsg<Self::Cmd>) -> Self::Msg;
    /// The commit/abort reply to a client.
    fn reply_msg(tx_id: TxId, committed: bool) -> Self::Msg;
    /// The batch flush timer payload.
    const BATCH_TIMER: Self::Msg;
    /// The progress timer payload.
    const PROGRESS_TIMER: Self::Msg;
    /// Modeled wire size of a consensus message (state-transfer volume is
    /// accounted with it).
    fn consensus_wire_bytes(msg: &ConsensusMsg<Self::Cmd>) -> usize;

    /// The transaction a command carries, if any (lifecycle span events).
    fn command_tx(cmd: &Self::Cmd) -> Option<&Transaction>;
    /// Cheap per-command fingerprint folded into the consensus
    /// delivery-stream hash ([`HostStats::consensus_log`]).
    fn command_fingerprint(cmd: &Self::Cmd) -> u64;

    /// Executes a command the domain's internal consensus has committed.
    fn apply_command(&mut self, cmd: &Self::Cmd, ctx: &mut Context<'_, Self::Msg>);
    /// Captures the application state as of checkpoint `seq` — the step
    /// arrives in-stream, immediately after the delivery of `seq` executed —
    /// stamped with `delivery_hash`.  Only requested under a finite
    /// retention window, where the node also bounds the per-transaction side
    /// state the snapshot makes redundant.
    fn snapshot_app_state(&mut self, seq: SeqNo, delivery_hash: Option<u64>) -> StateSnapshot;
    /// Replaces the executed application state with a catch-up snapshot's
    /// (the retained command tail follows as ordinary deliveries).
    fn install_app_state(&mut self, snapshot: &StateSnapshot);
    /// True while protocol work beyond unanswered client requests is in
    /// flight (e.g. a cross-domain transaction): a stalled replica with
    /// pending work suspects its primary.
    fn work_pending(&self) -> bool;

    /// Proposes a command through the internal consensus (primary only) and
    /// drives the resulting steps.  The command may be held back by the
    /// leader-side batcher until the block fills; the flush timer guarantees
    /// an under-full block is still cut within [`BATCH_FLUSH_DELAY`].
    fn propose(&mut self, cmd: Self::Cmd, ctx: &mut Context<'_, Self::Msg>) {
        let host = self.host_mut();
        let pooled = host.tracer.enabled().then(|| {
            if let Some(tx) = Self::command_tx(&cmd).filter(|t| host.tracer.samples(t.id.0)) {
                host.tracer
                    .record(ctx.now(), TraceEventKind::TxBatched { tx: tx.id });
            }
            host.consensus.pending_commands()
        });
        let mut steps = host.take_steps();
        host.consensus.propose_into(cmd, &mut steps);
        if let Some(before) = pooled {
            host.note_batch_cut(before + 1, ctx.now());
        }
        self.drive(steps, ctx);
        // Keep the flush timer consistent with the batcher: armed while
        // commands pool, cancelled once a block was cut by size.  Never
        // armed unbatched (`max_batch = 1`: nothing is ever pending).
        let host = self.host_mut();
        if host.consensus.pending_commands() > 0 {
            if host.batch_timer.is_none() {
                host.batch_timer = Some(ctx.set_timer(BATCH_FLUSH_DELAY, Self::BATCH_TIMER));
            }
        } else if let Some(timer) = host.batch_timer.take() {
            ctx.cancel_timer(timer);
        }
    }

    /// The batch flush timer fired: cut and propose whatever is pending.
    fn on_batch_timer(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let host = self.host_mut();
        host.batch_timer = None;
        let pooled = host
            .tracer
            .enabled()
            .then(|| host.consensus.pending_commands());
        let mut steps = host.take_steps();
        host.consensus.flush(&mut steps);
        if let Some(before) = pooled {
            host.note_batch_cut(before, ctx.now());
        }
        self.drive(steps, ctx);
    }

    /// Applies consensus output steps in order: routes messages, executes
    /// delivered batches command by command, and serves the engine's
    /// snapshot requests.  `steps` is drained and becomes the host's step
    /// buffer again.
    fn drive(&mut self, mut steps: Steps<Self::Cmd>, ctx: &mut Context<'_, Self::Msg>) {
        for step in steps.drain(..) {
            match step {
                Step::Send { to, msg } => ctx.send(to, Self::consensus_msg(msg)),
                Step::Broadcast { msg } => {
                    let host = self.host_mut();
                    if host.tracer.enabled() {
                        if let Some(view) = msg.view_change_view() {
                            host.tracer
                                .record(ctx.now(), TraceEventKind::ViewChangeStart { view });
                        }
                    }
                    ctx.multicast(host.other_peers.iter().copied(), Self::consensus_msg(msg));
                }
                Step::Deliver { seq, command } => {
                    // The delivery-stream hash only serves the fault suites'
                    // cross-replica agreement checks, so it is kept exactly
                    // when liveness timers run; failure-free performance
                    // sweeps skip the bookkeeping entirely.
                    let host = self.host_mut();
                    if host.stack.liveness.enabled {
                        let members = command.iter().map(Self::command_fingerprint);
                        let prev = host.stats.consensus_log.last();
                        let hash = saguaro_types::delivery_hash(prev, seq, members);
                        host.stats.consensus_log.push(hash);
                    }
                    for cmd in &command {
                        let host = self.host_mut();
                        if host.tracer.enabled() {
                            let tx = Self::command_tx(cmd);
                            if let Some(tx) = tx.filter(|t| host.tracer.samples(t.id.0)) {
                                let kind = TraceEventKind::TxOrdered { tx: tx.id, seq };
                                host.tracer.record(ctx.now(), kind);
                            }
                        }
                        self.apply_command(cmd, ctx);
                    }
                }
                Step::ViewChanged { view, primary } => {
                    let host = self.host_mut();
                    host.stats.view_changes += 1;
                    let kind = TraceEventKind::ViewChangeComplete { view, primary };
                    host.tracer.record(ctx.now(), kind);
                }
                Step::TakeSnapshot { seq } => {
                    let host = self.host_mut();
                    host.tracer
                        .record(ctx.now(), TraceEventKind::SnapshotTaken { seq });
                    let delivery_hash = host.stats.consensus_log.last();
                    let snapshot = self.snapshot_app_state(seq, delivery_hash);
                    let host = self.host_mut();
                    host.consensus.store_snapshot(Arc::new(snapshot));
                    host.stats.snapshots_taken += 1;
                }
                Step::InstallSnapshot { snapshot } => {
                    let kind = TraceEventKind::SnapshotInstalled { seq: snapshot.seq };
                    self.host_mut().tracer.record(ctx.now(), kind);
                    self.install_app_state(&snapshot);
                    let host = self.host_mut();
                    if host.stack.liveness.enabled {
                        let log = &mut host.stats.consensus_log;
                        log.splice(snapshot.seq, snapshot.delivery_hash);
                    }
                    host.stats.snapshots_installed += 1;
                }
            }
        }
        self.host_mut().steps = steps;
    }

    /// Handles intra-domain consensus traffic from `from`.  Delta probes
    /// around the engine call surface checkpoint advancement and fresh
    /// certificate conflicts as trace events without touching the engine,
    /// and an applied state-transfer reply is accounted: how many member
    /// commands it delivered, its wire volume, and when the catch-up landed
    /// (the recovery experiments read these off the victim replica).
    fn on_consensus_message(
        &mut self,
        from: Addr,
        msg: ConsensusMsg<Self::Cmd>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        let Some(from) = from.as_node() else {
            return;
        };
        let host = self.host_mut();
        let transfer_bytes = msg
            .is_state_reply()
            .then(|| Self::consensus_wire_bytes(&msg) as u64);
        let probe = host.tracer.enabled().then(|| {
            if msg.is_state_transfer() && !msg.is_state_reply() {
                host.tracer
                    .record(ctx.now(), TraceEventKind::StateTransferRequest);
            }
            (
                host.consensus.stable_checkpoint(),
                host.consensus.certificate_conflicts(),
            )
        });
        let mut steps = host.take_steps();
        host.consensus.on_message_into(from, msg, &mut steps);
        if let Some((checkpoint, conflicts)) = probe {
            let seq = host.consensus.stable_checkpoint();
            if seq > checkpoint {
                host.tracer
                    .record(ctx.now(), TraceEventKind::CheckpointStable { seq });
            }
            let now_conflicts = host.consensus.certificate_conflicts();
            if now_conflicts > conflicts {
                let kind = TraceEventKind::EquivocationDetected {
                    conflicts: now_conflicts,
                };
                host.tracer.record(ctx.now(), kind);
            }
        }
        if let Some(bytes) = transfer_bytes {
            let commands = delivered_commands(&steps);
            let installed = steps
                .iter()
                .any(|s| matches!(s, Step::InstallSnapshot { .. }));
            // A reply that delivers nothing was stale: no catch-up happened.
            if commands > 0 || installed {
                host.stats.state_transfer_commands += commands;
                host.stats.state_transfer_bytes += bytes;
                host.stats.caught_up_at = Some(ctx.now());
                let kind = TraceEventKind::StateTransferReply { commands, bytes };
                host.tracer.record(ctx.now(), kind);
            }
        }
        self.drive(steps, ctx);
    }

    /// The progress timer fired: suspect the primary only if nothing was
    /// delivered since the last check while work is demonstrably pending —
    /// an unanswered client request this replica received or relayed, or
    /// whatever [`HostedReplica::work_pending`] reports — then re-arm.
    fn on_progress_timer(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let work_pending = self.work_pending();
        let host = self.host_mut();
        let delivered = host.consensus.last_delivered();
        let progressed = delivered != host.last_progress_check;
        let stuck = !progressed && (work_pending || !host.reply_to.is_empty());
        host.last_progress_check = delivered;
        if stuck {
            // The window backs off before the next check: if the suspicion
            // is wrong (or the elected primary is also dead) the next view
            // change gets proportionally more room.
            host.suspicion.on_suspect();
            let view = host.consensus.view();
            host.tracer
                .record(ctx.now(), TraceEventKind::SuspicionFired { view });
            let mut steps = host.take_steps();
            host.consensus.on_progress_timeout(&mut steps);
            self.drive(steps, ctx);
        } else if progressed {
            host.suspicion.on_progress();
        }
        let host = self.host_mut();
        let window = host.suspicion.window();
        host.progress_timer = Some(ctx.set_timer(window, Self::PROGRESS_TIMER));
    }

    /// A kick (deployment kick-off, or re-kick after a crashed replica
    /// recovers): restarts the progress-timer loop from scratch.  While a
    /// replica is crashed its pending timers are silently retired, so the
    /// loop must be re-armed; cancelling the tracked id first keeps a kick
    /// from ever doubling a live one.  Only fault-injection runs enable
    /// liveness, so failure-free deployments schedule no progress timers.
    fn kick_progress_timer(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let host = self.host_mut();
        if let Some(timer) = host.progress_timer.take() {
            ctx.cancel_timer(timer);
        }
        if host.stack.liveness.enabled {
            let window = host.suspicion.window();
            host.progress_timer = Some(ctx.set_timer(window, Self::PROGRESS_TIMER));
        }
    }

    /// Records the reply target for a transaction this replica is about to
    /// commit.  BFT domains reply from *every* replica (the client matches
    /// `f + 1` identical verdicts), so backups that never saw the original
    /// request — it went to a peer — must learn the target from the
    /// committed transaction itself.  CFT domains keep the receipt-only
    /// bookkeeping: the primary alone replies.
    fn note_reply_target(&mut self, tx: &Transaction) {
        let host = self.host_mut();
        if host.consensus.quorum().model == FailureModel::Byzantine {
            host.reply_to.entry(tx.id).or_insert(tx.client);
        }
    }

    /// Sends the commit/abort reply for `tx_id` if this domain received the
    /// original request.  CFT domains reply only from the primary; BFT
    /// domains reply from every replica and the client matches f + 1.
    fn reply(&mut self, tx_id: TxId, committed: bool, ctx: &mut Context<'_, Self::Msg>) {
        let host = self.host_mut();
        let Some(client) = host.reply_to.remove(&tx_id) else {
            return;
        };
        let should_send = match host.consensus.quorum().model {
            FailureModel::Crash => host.consensus.is_primary(),
            FailureModel::Byzantine => true,
        };
        if should_send {
            ctx.send(Addr::Client(client), Self::reply_msg(tx_id, committed));
            if host.tracer.samples(tx_id.0) {
                let kind = TraceEventKind::TxReplied {
                    tx: tx_id,
                    committed,
                };
                host.tracer.record(ctx.now(), kind);
            }
        }
    }
}
