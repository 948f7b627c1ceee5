//! The baseline replica node (AHL shard / AHL committee / SharPer shard).

use crate::messages::{BCmd, BaselineMsg, BaselineRole};
use saguaro_consensus::ConsensusMsg;
use saguaro_core::exec::execute_in_domain;
use saguaro_core::host::{HostedReplica, ReplicaHost};
use saguaro_hierarchy::HierarchyTree;
use saguaro_ledger::{BlockchainState, LinearLedger, TxStatus};
use saguaro_net::{Actor, Addr, Context, TimerId};
use saguaro_types::hash::FxHashMap;
use saguaro_types::{
    DeliveryLog, DomainId, FailureModel, MultiSeq, NodeId, SeqNo, StackConfig, StateSnapshot,
    Transaction, TxId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
    /// The domain's internal consensus and the drive layer around it.
    host: ReplicaHost<BCmd>,
    /// The committee domain used by AHL deployments.
    committee: DomainId,
    ledger: LinearLedger,
    state: BlockchainState,
    // AHL committee bookkeeping.
    coordinating: FxHashMap<TxId, AhlCoordEntry>,
    // SharPer leader bookkeeping.
    flattened: FxHashMap<TxId, FlatEntry>,
    flat_seq: SeqNo,
    /// Cross-shard transactions seen in a prepare/accept, kept so later
    /// phases can re-propose them locally.
    prepared_cache: FxHashMap<TxId, Transaction>,
}

impl BaselineNode {
    /// Creates a baseline replica whose internal consensus pipeline is
    /// configured per `stack` (so batched Saguaro is compared against equally
    /// batched baselines).  `committee` names the AHL reference committee
    /// domain (ignored for SharPer shards).  With liveness enabled the
    /// progress-timer loop is armed by the first `ProgressTimer` *message*
    /// the node receives — the deployment injects one at start-up, and again
    /// when a crashed replica recovers.
    pub fn new(
        id: NodeId,
        role: BaselineRole,
        tree: Arc<HierarchyTree>,
        committee: DomainId,
        stack: StackConfig,
    ) -> Self {
        let cfg = tree.config(id.domain).expect("domain exists");
        let peers = tree.nodes_of(id.domain).expect("domain has nodes");
        let host = ReplicaHost::new(id, peers, cfg.quorum, stack);
        Self {
            id,
            role,
            tree,
            host,
            committee,
            ledger: LinearLedger::new(id.domain),
            state: BlockchainState::new(),
            coordinating: FxHashMap::default(),
            flattened: FxHashMap::default(),
            flat_seq: 0,
            prepared_cache: FxHashMap::default(),
        }
    }

    /// Seeds an account balance before the run.
    pub fn seed_account(&mut self, key: &str, balance: u64) {
        self.state.put(key, balance);
    }

    /// Starts the replica from a share of `state` — a whole shard's initial
    /// balances, built once and handed to each of its replicas.
    pub fn seed_state(&mut self, state: &BlockchainState) {
        self.state = state.clone();
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
        self.host.consensus().is_primary()
    }

    fn domain(&self) -> DomainId {
        self.id.domain
    }

    fn cert_sigs(&self) -> usize {
        self.host.quorum().certificate_size()
    }

    /// The one fan-out: sends `msg` to every node of every domain in
    /// `domains`, domain by domain in the order given.
    fn send_to_domains(
        &self,
        domains: impl IntoIterator<Item = DomainId>,
        msg: BaselineMsg,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        let tree = &self.tree;
        let nodes = domains.into_iter().flat_map(|d| tree.replicas_of(d));
        ctx.multicast(nodes, msg);
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
        } else {
            self.ledger.append_internal(tx.clone(), TxStatus::Committed);
        }
        self.host.trace_executed(tx.id, ctx.now());
        self.reply(tx.id, true, ctx);
    }

    // ------------------------------------------------------------------
    // Client request handling
    // ------------------------------------------------------------------

    fn handle_request(&mut self, tx: Transaction, ctx: &mut Context<'_, BaselineMsg>) {
        self.host.note_request(&tx);
        if !self.is_primary() {
            ctx.send(self.host.primary(), BaselineMsg::ClientRequest(tx));
            return;
        }
        if !tx.kind.is_cross_domain() {
            self.propose(BCmd::Internal(tx), ctx);
            return;
        }
        match self.role {
            BaselineRole::AhlShard | BaselineRole::AhlCommittee => {
                // Forward to the reference committee for 2PC coordination.
                self.send_to_domains([self.committee], BaselineMsg::CrossSubmit { tx }, ctx);
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
            let involved = tx.involved_domains();
            let prepare = BaselineMsg::TwoPcPrepare {
                tx: tx.clone(),
                cert_sigs,
            };
            self.send_to_domains(involved.iter().copied(), prepare, ctx);
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
            let vote = BaselineMsg::TwoPcVote {
                tx_id: tx.id,
                domain: self.domain(),
                ok: true,
                cert_sigs: self.cert_sigs(),
            };
            self.send_to_domains([self.committee], vote, ctx);
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
        let Some(entry) = self.coordinating.get_mut(&tx_id) else {
            return;
        };
        if entry.decided || !ok {
            return;
        }
        entry.votes.insert(domain);
        let tx = entry.tx.clone();
        let involved = tx.involved_domains();
        entry.decided = involved.iter().all(|d| entry.votes.contains(d));
        if entry.decided && self.is_primary() {
            let decision = BaselineMsg::TwoPcDecision {
                tx_id,
                commit: true,
                cert_sigs: self.cert_sigs(),
            };
            self.send_to_domains(involved.iter().copied(), decision, ctx);
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
            self.reply(tx_id, false, ctx);
            return;
        }
        // The shard already ordered the transaction in phase 1; the primary
        // now orders the commit so every replica executes it.
        if self.is_primary() {
            if let Some(entry) = self.ledger.get(tx_id) {
                let tx = entry.tx.clone();
                self.propose(BCmd::ShardCommit(tx), ctx);
            } else if let Some(tx) = self.prepared_cache.get(&tx_id).cloned() {
                // Prepared but not yet committed: cached when the shard
                // ordered the phase-1 prepare.
                self.propose(BCmd::ShardCommit(tx), ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // SharPer: flattened cross-shard consensus
    // ------------------------------------------------------------------

    fn start_flattened(&mut self, tx: Transaction, ctx: &mut Context<'_, BaselineMsg>) {
        self.flat_seq += 1;
        let seq = self.flat_seq;
        self.flattened.entry(tx.id).or_default();
        let involved = tx.involved_domains();
        let accept = BaselineMsg::FlatAccept {
            tx: tx.clone(),
            seq,
            leader_domain: self.domain(),
        };
        self.send_to_domains(involved.iter().copied(), accept, ctx);
    }

    fn on_flat_accept(
        &mut self,
        tx: Transaction,
        leader_domain: DomainId,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        let (tx_id, domain) = (tx.id, self.domain());
        match self.host.quorum().model {
            // CFT: vote straight back to the leader.
            FailureModel::Crash => ctx.send(
                NodeId::new(leader_domain, 0),
                BaselineMsg::FlatVote { tx_id, domain },
            ),
            // BFT: all-to-all echo across every involved shard first.
            FailureModel::Byzantine => {
                let echo = BaselineMsg::FlatEcho { tx_id, domain };
                self.send_to_domains(tx.involved_domains().iter().copied(), echo, ctx)
            }
        }
        self.prepared_cache.insert(tx_id, tx);
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
        let quorum = self.host.quorum().commit_quorum();
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
        let needed_per_shard = match self.host.quorum().model {
            FailureModel::Crash => self.host.quorum().commit_quorum(),
            // After the echo phase each shard only needs one quorate reporter.
            FailureModel::Byzantine => 1,
        };
        let entry = self.flattened.entry(tx_id).or_default();
        if entry.committed {
            return;
        }
        entry.votes.entry(domain).or_default().insert(node);
        let involved = tx.involved_domains();
        entry.committed = involved
            .iter()
            .all(|d| entry.votes.get(d).map(BTreeSet::len).unwrap_or(0) >= needed_per_shard);
        if entry.committed {
            let cert_sigs = self.cert_sigs();
            let commit = BaselineMsg::FlatCommit { tx_id, cert_sigs };
            self.send_to_domains(involved.iter().copied(), commit, ctx);
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

impl HostedReplica for BaselineNode {
    type Cmd = BCmd;
    type Msg = BaselineMsg;
    const BATCH_TIMER: BaselineMsg = BaselineMsg::BatchTimer;
    const PROGRESS_TIMER: BaselineMsg = BaselineMsg::ProgressTimer;

    fn host_mut(&mut self) -> &mut ReplicaHost<BCmd> {
        &mut self.host
    }

    fn consensus_msg(msg: ConsensusMsg<BCmd>) -> BaselineMsg {
        BaselineMsg::Consensus(msg)
    }

    fn reply_msg(tx_id: TxId, committed: bool) -> BaselineMsg {
        BaselineMsg::Reply { tx_id, committed }
    }

    fn consensus_wire_bytes(msg: &ConsensusMsg<BCmd>) -> usize {
        crate::messages::consensus_wire_bytes(msg)
    }

    /// Every baseline command carries a transaction.
    fn command_tx(cmd: &BCmd) -> Option<&Transaction> {
        match cmd {
            BCmd::Internal(tx)
            | BCmd::CommitteeOrder(tx)
            | BCmd::ShardPrepare(tx)
            | BCmd::ShardCommit(tx) => Some(tx),
        }
    }

    /// The transaction id tagged with the command variant (the same
    /// transaction may legitimately be ordered twice under different
    /// variants, e.g. 2PC prepare then commit).
    fn command_fingerprint(cmd: &BCmd) -> u64 {
        let (tag, tx) = match cmd {
            BCmd::Internal(tx) => (0u64, tx),
            BCmd::CommitteeOrder(tx) => (1, tx),
            BCmd::ShardPrepare(tx) => (2, tx),
            BCmd::ShardCommit(tx) => (3, tx),
        };
        tx.id.0 ^ (tag << 60)
    }

    fn apply_command(&mut self, cmd: &BCmd, ctx: &mut Context<'_, BaselineMsg>) {
        match cmd {
            BCmd::Internal(tx) => self.execute_and_commit(tx, false, ctx),
            BCmd::CommitteeOrder(tx) => self.apply_committee_order(tx.clone(), ctx),
            BCmd::ShardPrepare(tx) => self.apply_shard_prepare(tx.clone(), ctx),
            BCmd::ShardCommit(tx) => self.execute_and_commit(tx, true, ctx),
        }
    }

    fn snapshot_app_state(&mut self, seq: SeqNo, delivery_hash: Option<u64>) -> StateSnapshot {
        let snapshot = StateSnapshot {
            seq,
            delivery_hash,
            accounts: self.state.share(),
            mobile: Vec::new(),
            hosted: Vec::new(),
        };
        // Baseline deployments never cut propagation blocks, so the
        // pending-round cursor would pin the whole ledger as unprunable.
        self.ledger.note_round_boundary();
        self.ledger.prune_front(DeliveryLog::CAPACITY, |id| {
            self.prepared_cache.remove(&id);
            self.flattened.remove(&id);
            self.coordinating.remove(&id);
        });
        snapshot
    }

    fn install_app_state(&mut self, snapshot: &StateSnapshot) {
        self.state = BlockchainState::adopt(snapshot.accounts.clone());
    }

    /// A cross-shard transaction the committee has not decided yet.  Decided
    /// entries stay until their ledger prefix is pruned (never, on the
    /// committee) and must not count: an idle committee replica would
    /// suspect a healthy primary forever.
    fn work_pending(&self) -> bool {
        self.coordinating.values().any(|e| !e.decided)
    }
}

impl Actor<BaselineMsg> for BaselineNode {
    fn on_message(&mut self, from: Addr, msg: BaselineMsg, ctx: &mut Context<'_, BaselineMsg>) {
        match msg {
            BaselineMsg::ClientRequest(tx) => self.handle_request(tx, ctx),
            BaselineMsg::Consensus(m) => self.on_consensus_message(from, m, ctx),
            BaselineMsg::CrossSubmit { tx } => self.on_cross_submit(tx, ctx),
            BaselineMsg::TwoPcPrepare { tx, .. } => self.on_two_pc_prepare(tx, ctx),
            BaselineMsg::TwoPcVote {
                tx_id, domain, ok, ..
            } => self.on_two_pc_vote(tx_id, domain, ok, ctx),
            BaselineMsg::TwoPcDecision { tx_id, commit, .. } => {
                self.on_two_pc_decision(tx_id, commit, ctx)
            }
            BaselineMsg::FlatAccept {
                tx, leader_domain, ..
            } => self.on_flat_accept(tx, leader_domain, ctx),
            BaselineMsg::FlatEcho { tx_id, domain } => self.on_flat_echo(tx_id, domain, from, ctx),
            BaselineMsg::FlatVote { tx_id, domain } => self.on_flat_vote(tx_id, domain, from, ctx),
            BaselineMsg::FlatCommit { tx_id, .. } => self.on_flat_commit(tx_id, ctx),
            BaselineMsg::BatchTimer => self.on_batch_timer(ctx),
            BaselineMsg::ProgressTimer => self.kick_progress_timer(ctx),
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
