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
use crate::host::{HostedReplica, ReplicaHost};
use crate::messages::SaguaroMsg;
use crate::optimistic::{OptTracker, OptimisticValidator};
use saguaro_consensus::ConsensusMsg;
use saguaro_hierarchy::HierarchyTree;
use saguaro_ledger::{
    AggregateView, Block, BlockchainState, DagLedger, DeltaKey, LinearLedger, TxStatus, UndoRecord,
};
use saguaro_net::{Actor, Addr, Context, TimerId};
use saguaro_types::hash::{FxHashMap, FxHashSet};
use saguaro_types::{
    ClientId, Custody, DeliveryLog, DomainId, Key, MultiSeq, NodeId, Operation, SeqNo,
    StateSnapshot, Transaction, TxId, TxKind,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How the commit step ([`SaguaroNode::commit`]) records a transaction in the
/// ledger.
pub(crate) enum Commit {
    /// Ordered by this domain's consensus as `Cmd::Internal`, or executed
    /// when a mobile device's state arrived (Algorithm 2).
    Internal,
    /// Decided by the LCA (Algorithm 1) under the agreed sequence numbers.
    Coordinated(MultiSeq),
    /// Ordered here alone and executed speculatively (Section 6); an
    /// ancestor's verdict finalises or reverts it.
    Speculative,
}

/// A Saguaro replica node (one per VM of the paper's testbed).
pub struct SaguaroNode {
    pub(crate) id: NodeId,
    pub(crate) tree: Arc<HierarchyTree>,
    pub(crate) config: ProtocolConfig,
    /// The domain's internal consensus and the drive layer around it.
    pub(crate) host: ReplicaHost<Cmd>,

    // ---------------- execution layer (height-1 domains) ----------------
    /// The domain's linear ledger; empty above height 1, where the DAG
    /// holds the chain a domain forwards.
    pub(crate) ledger: LinearLedger,
    pub(crate) state: BlockchainState,
    /// This domain's own writes of the current round, as the state map's
    /// key handles and the values stored: the round's raw state updates
    /// (input to the abstraction fn) at a height-1 domain.  The primary
    /// tags them with this domain when it cuts a block.
    pub(crate) round_writes: Vec<(Key, u64)>,
    /// The children's updates a domain above height 1 folds into its next
    /// block, copied as the child reported them: each names the height-1
    /// domain that wrote it and holds the writer's key handle.  The root
    /// domain, which has no parent to report to, folds none.
    pub(crate) round_updates: Vec<(DeltaKey, u64)>,
    /// Undo records of executed transactions, kept in optimistic mode only:
    /// nothing but an optimistic abort ever reverts an execution.
    pub(crate) undo_log: FxHashMap<TxId, UndoRecord>,

    // ---------------- summarized layer (height-2+ domains) ----------------
    pub(crate) dag: DagLedger,
    pub(crate) agg: AggregateView,
    /// Child blocks that arrived out of order, buffered until their turn.
    pub(crate) pending_child_blocks: BTreeMap<(DomainId, u64), Block>,

    // ---------------- coordinator-based cross-domain state ----------------
    /// Transactions this domain currently coordinates (it is their LCA).
    pub(crate) coordinated: FxHashMap<TxId, CoordEntry>,
    /// Cross-domain transactions queued at the coordinator because they
    /// intersect an in-flight transaction in two or more domains.
    pub(crate) coord_queue: VecDeque<Transaction>,
    /// Next coordinator sequence number.
    pub(crate) next_coord_seq: SeqNo,
    /// Cross-domain transactions this domain participates in.
    pub(crate) participating: FxHashMap<TxId, ParticipantEntry>,
    /// Prepares queued at a participant because of conflict blocking.
    pub(crate) participant_queue: VecDeque<(Transaction, SeqNo)>,

    // ---------------- optimistic cross-domain state ----------------
    pub(crate) opt: OptTracker,
    pub(crate) validator: OptimisticValidator,

    // ---------------- mobile consensus state ----------------
    /// Where the freshest state of each device whose home is this domain
    /// lives; a device with no entry has never been asked for.
    pub(crate) mobile: FxHashMap<ClientId, Custody>,
    /// Devices whose state this (remote) domain currently hosts.
    pub(crate) hosted_devices: FxHashSet<ClientId>,
    /// Requests waiting for a device state to arrive, keyed by device.
    pub(crate) pending_mobile: FxHashMap<ClientId, Vec<Transaction>>,
    /// Devices with a live state-query retry loop (at most one per device),
    /// so a crashed primary on either side of a hand-off cannot strand the
    /// queued requests forever.
    pub(crate) mobile_retry_armed: FxHashSet<ClientId>,

    // ---------------- timers & misc ----------------
    pub(crate) round: u64,
    /// The pending round timer (tracked so a post-recovery kick can restart
    /// the loop without doubling it).
    pub(crate) round_timer: Option<TimerId>,
}

impl SaguaroNode {
    /// Creates the replica `id` for a deployment described by `tree`.
    pub fn new(id: NodeId, tree: Arc<HierarchyTree>, config: ProtocolConfig) -> Self {
        let cfg = tree
            .config(id.domain)
            .expect("node's domain is in the tree");
        let peers = tree.nodes_of(id.domain).expect("domain has nodes");
        let host = ReplicaHost::new(id, peers, cfg.quorum, config.stack);
        Self {
            id,
            tree,
            config,
            host,
            ledger: LinearLedger::new(id.domain),
            state: BlockchainState::new(),
            round_writes: Vec::new(),
            round_updates: Vec::new(),
            undo_log: FxHashMap::default(),
            dag: DagLedger::for_domain(id.domain),
            agg: AggregateView::new(),
            pending_child_blocks: BTreeMap::new(),
            coordinated: FxHashMap::default(),
            coord_queue: VecDeque::new(),
            next_coord_seq: 1,
            participating: FxHashMap::default(),
            participant_queue: VecDeque::new(),
            opt: OptTracker::default(),
            validator: OptimisticValidator::default(),
            mobile: FxHashMap::default(),
            hosted_devices: FxHashSet::default(),
            pending_mobile: FxHashMap::default(),
            mobile_retry_armed: FxHashSet::default(),
            round: 0,
            round_timer: None,
        }
    }

    /// Seeds an account balance directly (experiment setup, before the run).
    pub fn seed_account(&mut self, key: &str, balance: u64) {
        self.state.put(key, balance);
    }

    /// Starts the replica from a share of `state` — a whole domain's initial
    /// balances, built once and handed to each of its replicas.
    pub fn seed_state(&mut self, state: &BlockchainState) {
        self.state = state.clone();
    }

    /// The domain this node belongs to.
    pub fn domain(&self) -> DomainId {
        self.id.domain
    }

    /// Read-only access to the node's blockchain state.
    pub fn blockchain_state(&self) -> &BlockchainState {
        &self.state
    }

    /// Read-only access to the node's linear ledger: at height 1 the
    /// executed transactions, above it the DAG's chain of first reports,
    /// each turned `Aborted` once a child or this domain aborted it.
    pub fn ledger(&self) -> &LinearLedger {
        match self.domain().height {
            1 => &self.ledger,
            _ => self.dag.chain(),
        }
    }

    /// Read-only access to the node's DAG ledger (height-2+ domains).
    pub fn dag_ledger(&self) -> &DagLedger {
        &self.dag
    }

    /// Read-only access to the aggregate view (height-2+ domains).
    pub fn aggregate_view(&self) -> &AggregateView {
        &self.agg
    }

    /// True if this node is currently the primary of its domain.
    pub fn is_primary(&self) -> bool {
        self.host.consensus().is_primary()
    }

    // ------------------------------------------------------------------
    // Helpers shared by the protocol modules
    // ------------------------------------------------------------------

    /// The number of certificate signatures this domain attaches to messages
    /// it sends to other domains (1 for CFT, 2f + 1 for BFT).
    pub(crate) fn cert_sigs(&self) -> usize {
        self.host.quorum().certificate_size()
    }

    /// The one fan-out: sends `msg` to every node of every domain in
    /// `domains`, domain by domain in the order given.
    pub(crate) fn send_to_domains(
        &self,
        domains: impl IntoIterator<Item = DomainId>,
        msg: SaguaroMsg,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let tree = &self.tree;
        let nodes = domains.into_iter().flat_map(|d| tree.replicas_of(d));
        ctx.multicast(nodes, msg);
    }

    /// Sends a message to every node of `domain`.
    pub(crate) fn send_to_domain(
        &self,
        domain: DomainId,
        msg: SaguaroMsg,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        self.send_to_domains([domain], msg, ctx);
    }

    /// The LCA of the domains `tx` involves: its coordinator.
    pub(crate) fn lca_of(&self, tx: &Transaction) -> Option<DomainId> {
        self.tree.lca(&tx.involved_domains()).ok()
    }

    // ------------------------------------------------------------------
    // Client requests and the commit step
    // ------------------------------------------------------------------

    fn handle_client_request(&mut self, tx: Transaction, ctx: &mut Context<'_, SaguaroMsg>) {
        // The domain that receives the request replies after commit.
        self.host.note_request(&tx);
        if !self.is_primary() {
            // Relay to the primary (the paper's client retry path).
            ctx.send(self.host.primary(), SaguaroMsg::ClientRequest(tx));
            return;
        }
        match tx.kind {
            TxKind::CrossDomain { .. } => match self.config.cross_mode {
                CrossDomainMode::Coordinator => self.start_coordinated(tx, ctx),
                CrossDomainMode::Optimistic => self.start_optimistic(tx, ctx),
            },
            TxKind::Mobile { local, remote } if remote == self.domain() && local != remote => {
                self.handle_remote_mobile_request(tx, local, ctx)
            }
            // An internal transaction, or a device back home (or a
            // degenerate mobile transaction): the internal path — once the
            // state of a device that roamed away has been pulled back
            // (Section 7).
            TxKind::Internal { .. } | TxKind::Mobile { .. } => match self.roamed_to(tx.client) {
                Some(remote) => self.queue_and_query(remote, tx, false, ctx),
                None => self.propose(Cmd::Internal(tx), ctx),
            },
        }
    }

    /// The commit step, shared by every path that commits a transaction at a
    /// height-1 domain: execute what this domain owns, append to the ledger
    /// as `how` says, trace `TxExecuted` (whatever the kind) and answer the
    /// client.  Does nothing for a transaction already in the ledger: a view
    /// change may re-propose an already-committed batch (the new primary
    /// cannot tell commitment from preparation for every slot), and executing
    /// it twice would double-spend.
    pub(crate) fn commit(
        &mut self,
        tx: Transaction,
        how: Commit,
        ctx: &mut Context<'_, SaguaroMsg>,
    ) {
        let id = tx.id;
        if self.ledger.contains(id) {
            return;
        }
        self.note_reply_target(&tx);
        let undo = self.execute_owned(&tx.op);
        if let (Some(undo), CrossDomainMode::Optimistic) = (undo, self.config.cross_mode) {
            self.undo_log.insert(id, undo);
        }
        match how {
            Commit::Internal => {
                self.ledger.append_internal(tx, TxStatus::Committed);
            }
            Commit::Coordinated(seqs) => {
                self.ledger
                    .append_cross_domain(tx, seqs, TxStatus::Committed);
            }
            Commit::Speculative => {
                let mut seqs = MultiSeq::new();
                seqs.set(self.id.domain, self.ledger.reserve_seq());
                self.opt.track(&tx);
                self.opt.record_execution(&tx);
                self.ledger
                    .append_cross_domain(tx, seqs, TxStatus::SpeculativelyCommitted);
            }
        }
        self.host.trace_executed(id, ctx.now());
        self.reply(id, true, ctx);
    }

    /// Executes the parts of an operation owned by (or hosted in) this domain
    /// and records the updates for the next block's state delta: for each key
    /// of the write set, the last value the execution stored under it, taken
    /// from the undo record (a key this domain does not own is not written).
    fn execute_owned(&mut self, op: &Operation) -> Option<UndoRecord> {
        let domain = self.id.domain;
        let undo = crate::exec::execute_in_domain(&mut self.state, op, domain).ok()?;
        for key in op.write_set() {
            if let Some((key, value)) = undo.stored(key) {
                self.round_writes.push((key.clone(), value));
            }
        }
        Some(undo)
    }

    /// A round-timer *message* (deployment kick-off, or re-kick after a
    /// crashed replica recovers): restart both self-perpetuating timer loops
    /// from scratch.  While a replica is crashed its pending timers are
    /// silently retired, so the loops must be re-armed; cancelling the
    /// tracked ids first keeps a kick from ever doubling a live loop.
    /// Fault-injection runs arm the progress loop here so a crashed primary
    /// is actually suspected.
    fn on_round_timer_kick(&mut self, ctx: &mut Context<'_, SaguaroMsg>) {
        if let Some(id) = self.round_timer.take() {
            ctx.cancel_timer(id);
        }
        // Mobile retry loops also died with the crash: devices still waiting
        // for their state when this replica went down must be re-queried —
        // in device order: each retry timer is an event, so hash order must
        // not decide which fires first.
        self.mobile_retry_armed.clear();
        let mut waiting: Vec<ClientId> = self.pending_mobile.keys().copied().collect();
        waiting.sort_unstable();
        for device in waiting {
            self.arm_mobile_retry(device, ctx);
        }
        self.on_round_timer(ctx);
        self.kick_progress_timer(ctx);
    }
}

impl Actor<SaguaroMsg> for SaguaroNode {
    fn on_message(&mut self, from: Addr, msg: SaguaroMsg, ctx: &mut Context<'_, SaguaroMsg>) {
        match msg {
            SaguaroMsg::ClientRequest(tx) => self.handle_client_request(tx, ctx),
            SaguaroMsg::Consensus(m) => self.on_consensus_message(from, m, ctx),
            // Coordinator-based protocol.
            SaguaroMsg::CrossForward { tx } => self.on_cross_forward(tx, ctx),
            SaguaroMsg::Prepare { tx, coord_seq, .. } => self.on_prepare(tx, coord_seq, ctx),
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
                verdict,
                ..
            } => self.on_commit_cross(tx_id, seqs, verdict, ctx),
            SaguaroMsg::CommitQuery { tx_id, .. } => self.on_commit_query(tx_id, ctx),
            // Propagation.
            SaguaroMsg::BlockMsg { child, block, .. } => self.on_block_msg(child, block, ctx),
            // Optimistic protocol.
            SaguaroMsg::OptForward { tx } => self.on_opt_forward(tx, ctx),
            SaguaroMsg::OptAbort { tx_id } => self.on_opt_abort(tx_id, ctx),
            SaguaroMsg::OptCommit { tx_id } => self.on_opt_commit(tx_id),
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
            SaguaroMsg::ProgressTimer => self.kick_progress_timer(ctx),
            SaguaroMsg::BatchTimer => self.on_batch_timer(ctx),
            SaguaroMsg::CrossTimeout { tx_id } => self.on_cross_timeout(tx_id, ctx),
            SaguaroMsg::CommitQueryTimer { tx_id } => self.on_commit_query_timer(tx_id, ctx),
            SaguaroMsg::MobileRetryTimer { device } => self.on_mobile_retry(device, ctx),
            // `AckCross` is modeled traffic: nothing waits for it.
            SaguaroMsg::AckCross { .. } | SaguaroMsg::Reply { .. } | SaguaroMsg::ClientTick => {}
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
            _ => {}
        }
    }
}

impl HostedReplica for SaguaroNode {
    type Cmd = Cmd;
    type Msg = SaguaroMsg;
    const BATCH_TIMER: SaguaroMsg = SaguaroMsg::BatchTimer;
    const PROGRESS_TIMER: SaguaroMsg = SaguaroMsg::ProgressTimer;

    fn host_mut(&mut self) -> &mut ReplicaHost<Cmd> {
        &mut self.host
    }

    fn consensus_msg(msg: ConsensusMsg<Cmd>) -> SaguaroMsg {
        SaguaroMsg::Consensus(msg)
    }

    fn reply_msg(tx_id: TxId, committed: bool) -> SaguaroMsg {
        SaguaroMsg::Reply { tx_id, committed }
    }

    fn consensus_wire_bytes(msg: &ConsensusMsg<Cmd>) -> usize {
        crate::messages::consensus_bytes(msg)
    }

    fn command_tx(cmd: &Cmd) -> Option<&Transaction> {
        cmd.transaction()
    }

    /// The transaction id where there is one, otherwise enough
    /// variant-specific data to distinguish deliveries.
    fn command_fingerprint(cmd: &Cmd) -> u64 {
        match cmd {
            Cmd::CoordCommit { tx_id, commit, .. } => tx_id.0 ^ ((*commit as u64) << 63),
            Cmd::ChildBlock { child, block } => {
                (child.index as u64) << 32 | (child.height as u64) << 48 | block.header.id.round
            }
            Cmd::MobileExtract { device, .. } => device.0 ^ (1 << 62),
            other => other.transaction().map(|t| t.id.0).unwrap_or(0),
        }
    }

    fn apply_command(&mut self, cmd: &Cmd, ctx: &mut Context<'_, SaguaroMsg>) {
        match cmd {
            Cmd::Internal(tx) => self.commit(tx.clone(), Commit::Internal, ctx),
            Cmd::CoordPrepare { tx, coord_seq } => {
                self.apply_coord_prepare(tx.clone(), *coord_seq, ctx)
            }
            Cmd::CrossPrepare { tx, coord_seq } => {
                self.apply_cross_prepare(tx.clone(), *coord_seq, ctx)
            }
            Cmd::CoordCommit {
                tx_id,
                seqs,
                commit,
            } => self.apply_coord_commit(*tx_id, seqs.clone(), *commit, ctx),
            Cmd::OptimisticCross(tx) => self.commit(tx.clone(), Commit::Speculative, ctx),
            Cmd::ChildBlock { child, block } => self.apply_child_block(*child, block.clone(), ctx),
            Cmd::MobileExtract { device, remote, .. } => {
                self.apply_mobile_extract(*device, *remote, ctx)
            }
            Cmd::MobileInstall {
                device,
                entries,
                tx,
            } => self.apply_mobile_install(*device, entries, tx.clone(), ctx),
        }
    }

    fn snapshot_app_state(&mut self, seq: SeqNo, delivery_hash: Option<u64>) -> StateSnapshot {
        let mut mobile: Vec<(ClientId, Custody)> = self
            .mobile
            .iter()
            .map(|(device, c)| (*device, *c))
            .collect();
        mobile.sort_by_key(|(device, _)| device.0);
        let mut hosted: Vec<ClientId> = self.hosted_devices.iter().copied().collect();
        hosted.sort_by_key(|c| c.0);
        let snapshot = StateSnapshot {
            seq,
            delivery_hash,
            accounts: self.state.share(),
            mobile,
            hosted,
        };
        // Replicas that never cut blocks — backups, and nodes of the root
        // domain, which has no parent to send blocks to — accumulate round
        // state nobody will ever read: the pending-round cursor pins the
        // whole ledger as unprunable and a backup's `round_updates` grows per
        // write.
        // End their round here so the prune below actually bounds memory.
        let cuts_blocks = self.is_primary() && self.tree.parent(self.domain()).is_some();
        if !cuts_blocks {
            self.round_writes.clear();
            self.round_updates.clear();
            self.ledger.note_round_boundary();
            self.dag.note_round_boundary();
        }
        self.ledger.prune_front(DeliveryLog::CAPACITY, |id| {
            self.undo_log.remove(&id);
        });
        // Parent domains bound their DAG, whose chain prunes by the same
        // rule: its history below the window is superseded by the snapshot.
        self.dag.prune_front(DeliveryLog::CAPACITY);
        snapshot
    }

    /// Undo records of the superseded history are dropped with it: the
    /// transactions they belong to are quorum-executed behind a stable
    /// checkpoint and can no longer abort.
    fn install_app_state(&mut self, snapshot: &StateSnapshot) {
        self.state = BlockchainState::adopt(snapshot.accounts.clone());
        self.mobile = snapshot.mobile.iter().copied().collect();
        self.hosted_devices = snapshot.hosted.iter().copied().collect();
        self.undo_log.clear();
    }

    /// An undecided cross-domain transaction, coordinated or participated
    /// in.  Decided `coordinated` entries are never retired, so they must not
    /// count: an idle LCA replica would suspect a healthy primary forever.
    fn work_pending(&self) -> bool {
        !self.participating.is_empty() || self.coordinated.values().any(|e| e.decision.is_none())
    }
}

// The protocol modules add further `impl SaguaroNode` blocks:
//  - crate::coordinator  (Algorithm 1)
//  - crate::optimistic   (Section 6)
//  - crate::propagation  (Section 5)
//  - crate::mobile       (Section 7 / Algorithm 2)

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_hierarchy::{Placement, TopologyBuilder};
    use saguaro_net::{CpuProfile, LatencyMatrix, Simulation};
    use saguaro_types::transaction::account_key;
    use saguaro_types::{FailureModel, SimTime};

    const HARNESS: ClientId = ClientId(u64::MAX);

    /// The paper's tree of crash-only domains with every replica registered,
    /// accounts `a<d>_0..4` seeded with 1 000 at each height-1 domain `d`.
    fn deployment(config: ProtocolConfig) -> (Simulation<SaguaroMsg>, Arc<HierarchyTree>) {
        let topology = TopologyBuilder::paper_binary_tree()
            .failure_model(FailureModel::Crash)
            .placement(Placement::NearbyRegions);
        let tree = Arc::new(topology.build().expect("valid topology"));
        let mut sim = Simulation::new(LatencyMatrix::nearby_regions().with_jitter(0.0), 7);
        for domain in tree.domains().filter(|d| d.id.height > 0) {
            for id in tree.nodes_of(domain.id).expect("nodes") {
                let mut node = SaguaroNode::new(id, tree.clone(), config.clone());
                for n in 0..4 {
                    node.seed_account(&account_key(domain.id.index, n), 1_000);
                }
                sim.register(id, domain.region, CpuProfile::server(), Box::new(node));
                sim.inject(HARNESS, id, SaguaroMsg::RoundTimer);
            }
        }
        (sim, tree)
    }

    fn with_node<R>(
        sim: &mut Simulation<SaguaroMsg>,
        node: NodeId,
        f: impl FnOnce(&mut SaguaroNode) -> R,
    ) -> R {
        let read = sim.with_actor(node, |a| {
            f(a.as_any()
                .and_then(|any| any.downcast_mut::<SaguaroNode>())
                .expect("a Saguaro node"))
        });
        read.expect("registered")
    }

    /// A recovery kick re-queries every device still waiting for its state
    /// in ascending device order, whatever order the map holds them in; the
    /// hand-overs, and so the commits, follow the queries.
    #[test]
    fn a_recovery_kick_requeries_waiting_devices_in_device_order() {
        let (mut sim, _) = deployment(ProtocolConfig::coordinator());
        sim.run_until(SimTime::from_millis(50));
        let (home, remote) = (DomainId::new(1, 0), DomainId::new(1, 2));
        let visited = NodeId::new(remote, 0);
        sim.with_actor(visited, |a| {
            let node = a.as_any().and_then(|any| any.downcast_mut::<SaguaroNode>());
            let node = node.expect("a Saguaro node");
            for device in [ClientId(4), ClientId(8)] {
                let tx = Transaction::mobile(TxId(device.0), device, home, remote, Operation::Noop);
                node.pending_mobile.insert(device, vec![tx]);
            }
        });
        sim.inject(HARNESS, visited, SaguaroMsg::RoundTimer);
        sim.run_until(SimTime::from_millis(1_200));
        let clients =
            |n: &mut SaguaroNode| n.ledger.entries().iter().map(|e| e.tx.client).collect();
        let committed: Vec<ClientId> = with_node(&mut sim, visited, clients);
        assert_eq!(committed, [ClientId(4), ClientId(8)]);
    }

    /// A checkpoint snapshot carries the mobile tables whole: a fresh replica
    /// of the domain that installs it answers every custody question as the
    /// replica that took it, and a device never asked for stays distinct
    /// from one whose state is held at home.
    #[test]
    fn a_snapshot_carries_the_custody_and_hosting_tables() {
        let topology = TopologyBuilder::paper_binary_tree().failure_model(FailureModel::Crash);
        let tree = Arc::new(topology.build().expect("valid topology"));
        let (domain, remote) = (DomainId::new(1, 0), DomainId::new(1, 2));
        let config = ProtocolConfig::coordinator();
        let replica = |i| SaguaroNode::new(NodeId::new(domain, i), tree.clone(), config.clone());
        let (held, handed, visiting) = (ClientId(1), ClientId(2), ClientId(3));
        let mut original = replica(0);
        original.mobile.insert(held, Custody::Held);
        original.mobile.insert(handed, Custody::HandedTo(remote));
        original.hosted_devices.insert(visiting);
        let snapshot = original.snapshot_app_state(8, None);
        let mut fresh = replica(1);
        fresh.install_app_state(&snapshot);
        let roamed = |n: &SaguaroNode| [held, handed, visiting].map(|d| n.roamed_to(d));
        assert_eq!(roamed(&fresh), [None, Some(remote), None]);
        assert_eq!(roamed(&fresh), roamed(&original));
        assert_eq!(fresh.mobile, original.mobile);
        assert_eq!(fresh.mobile.get(&visiting), None);
        assert_eq!(fresh.hosted_devices, original.hosted_devices);
        let retaken = fresh.snapshot_app_state(8, None);
        assert_eq!(retaken.wire_bytes(), snapshot.wire_bytes());
        // Two records and one hosted device; no account was seeded.
        assert_eq!(snapshot.wire_bytes(), 96 + 16 * 2 + 8);
        assert_eq!(retaken, snapshot);
    }

    fn put(id: u64, domains: [DomainId; 2], key: &str, value: u64) -> Transaction {
        let key = key.to_string();
        Transaction::cross_domain(
            TxId(id),
            ClientId(1),
            domains.to_vec(),
            Operation::Put { key, value },
        )
    }

    /// Nothing but an optimistic abort reverts an execution, so a
    /// coordinator-mode replica keeps no undo record however it commits.
    #[test]
    fn coordinator_mode_keeps_no_undo_records() {
        let (mut sim, tree) = deployment(ProtocolConfig::coordinator());
        let d = |i| DomainId::new(1, i);
        let pay = |from: u16, to: u16| Operation::Transfer {
            from: account_key(from, 1),
            to: account_key(to, 2),
            amount: 10,
        };
        let requests = [
            (
                d(0),
                Transaction::internal(TxId(1), ClientId(1), d(0), pay(0, 0)),
            ),
            (
                d(0),
                Transaction::cross_domain(TxId(2), ClientId(1), vec![d(0), d(3)], pay(0, 3)),
            ),
            (
                d(2),
                Transaction::mobile(TxId(3), ClientId(1), d(0), d(2), pay(0, 2)),
            ),
        ];
        for (at, tx) in requests {
            sim.inject(
                ClientId(1),
                NodeId::new(at, 0),
                SaguaroMsg::ClientRequest(tx),
            );
        }
        sim.run_until(SimTime::from_millis(600));
        let committed = |n: &mut SaguaroNode| {
            let entries = n.ledger.entries().iter();
            entries.filter(|e| e.status == TxStatus::Committed).count()
        };
        assert_eq!(with_node(&mut sim, NodeId::new(d(0), 0), committed), 2);
        assert_eq!(with_node(&mut sim, NodeId::new(d(2), 0), committed), 1);
        for domain in tree.domains().filter(|d| d.id.height > 0) {
            for node in tree.nodes_of(domain.id).expect("nodes") {
                let records = with_node(&mut sim, node, |n| n.undo_log.len());
                assert_eq!(records, 0, "{node:?} kept undo records");
            }
        }
    }

    /// A child's abstracted updates are folded into the next block only where
    /// a next block exists: a fog domain's block carries them as the child
    /// reported them, and the root — which cuts no block — keeps no list of
    /// them.  Nobody re-keys them on the way: every replica of the fog and of
    /// the root holds the key the writer's block carried, one allocation.
    #[test]
    fn only_a_domain_with_a_parent_folds_its_childrens_keys() {
        let (mut sim, tree) = deployment(ProtocolConfig::coordinator());
        let d0 = DomainId::new(1, 0);
        let key = account_key(0, 1);
        let pay = Operation::Transfer {
            from: key.clone(),
            to: account_key(0, 2),
            amount: 10,
        };
        let tx = Transaction::internal(TxId(1), ClientId(1), d0, pay);
        let request = SaguaroMsg::ClientRequest(tx);
        sim.inject(ClientId(1), NodeId::new(d0, 0), request);
        sim.run_until(SimTime::from_millis(1_500));
        let fog = tree.parent(d0).expect("a fog parent");
        let mut held: Vec<Key> = Vec::new();
        for (domain, child) in [(fog, d0), (tree.root(), fog)] {
            for node in tree.nodes_of(domain).expect("nodes") {
                with_node(&mut sim, node, |n| {
                    let (handle, value) = n.agg.get(child, d0, &key).expect("reported");
                    assert_eq!(value, 990, "{node:?}");
                    held.push(handle.clone());
                    // The DAG's chain is the one record of the transaction.
                    assert!(n.dag.contains(TxId(1)) && n.ledger.is_empty(), "{node:?}");
                    if domain == tree.root() {
                        assert!(n.round_updates.is_empty(), "{node:?} folds for nobody");
                    }
                });
            }
        }
        assert!(held.len() > 2);
        let text = held[0].as_ptr();
        assert!(held.iter().all(|k| k.as_ptr() == text), "one key block");
    }

    /// An abort reverts the victim and the later executions that depend on
    /// it, newest first: two writes to one key only restore the seeded value
    /// if the second is undone before the first.
    #[test]
    fn an_optimistic_abort_reverts_the_victim_and_its_dependents_newest_first() {
        let (mut sim, tree) = deployment(ProtocolConfig::optimistic());
        let (d0, d1) = (DomainId::new(1, 0), DomainId::new(1, 1));
        let key = account_key(0, 1);
        let primary = NodeId::new(d0, 0);
        for tx in [put(1, [d0, d1], &key, 5), put(2, [d0, d1], &key, 7)] {
            sim.inject(ClientId(1), primary, SaguaroMsg::ClientRequest(tx));
        }
        // Both executed speculatively; no ancestor has a verdict yet.
        sim.run_until(SimTime::from_millis(10));
        let replicas = tree.nodes_of(d0).expect("nodes");
        for node in &replicas {
            let (value, records) =
                with_node(&mut sim, *node, |n| (n.state.get(&key), n.undo_log.len()));
            assert_eq!((value, records), (Some(7), 2), "{node:?} before the abort");
            sim.inject(HARNESS, *node, SaguaroMsg::OptAbort { tx_id: TxId(1) });
        }
        sim.run_until(SimTime::from_millis(15));
        for node in replicas {
            with_node(&mut sim, node, |n| {
                assert_eq!(n.state.get(&key), Some(1_000), "{node:?}: wrong undo order");
                assert!(n.undo_log.is_empty(), "{node:?} kept undo records");
                for id in [TxId(1), TxId(2)] {
                    let status = n.ledger.get(id).map(|e| e.status);
                    assert_eq!(status, Some(TxStatus::Aborted), "{node:?} {id:?}");
                }
            });
        }
    }

    /// The LCA answers a participant's query with the decision it recorded:
    /// a query about a transaction decided *abort* clears the participant's
    /// entry without committing it.
    #[test]
    fn a_query_about_a_decided_abort_is_answered_with_abort() {
        let (mut sim, _) = deployment(ProtocolConfig::coordinator());
        let (d0, d1) = (DomainId::new(1, 0), DomainId::new(1, 1));
        let (participant, lca) = (NodeId::new(d1, 0), NodeId::new(DomainId::new(2, 0), 0));
        let tx = put(7, [d0, d1], "k", 1);
        let tx_id = tx.id;
        let decided = CoordEntry {
            tx: tx.clone(),
            coord_seq: 1,
            prepared: BTreeMap::new(),
            decision: Some(false),
            retries: 0,
            timer: None,
        };
        with_node(&mut sim, lca, |n| n.coordinated.insert(tx_id, decided));
        let waiting = ParticipantEntry {
            tx,
            local_seq: 1,
            timer: None,
        };
        with_node(&mut sim, participant, |n| {
            n.participating.insert(tx_id, waiting)
        });
        let query = SaguaroMsg::CommitQuery { tx_id, domain: d1 };
        sim.inject(participant, lca, query);
        sim.run_until(SimTime::from_millis(50));
        let state = |n: &mut SaguaroNode| (n.participating.len(), n.ledger.contains(tx_id));
        let (open, committed) = with_node(&mut sim, participant, state);
        assert_eq!((open, committed), (0, false), "cleared, not committed");
    }
}
