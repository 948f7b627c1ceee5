//! The [`ProtocolStack`] abstraction: everything the experiment engine needs
//! to know about a protocol under test.
//!
//! The paper's evaluation compares four stacks — coordinator-based Saguaro,
//! optimistic Saguaro, and the AHL and SharPer baselines — over the same
//! topology, workload and client model.  Each stack differs only in its
//! message type, how a client request is framed, how replies are recognised,
//! and how nodes are deployed — and the two Saguaro stacks, like the two
//! baselines, only in what they deploy, so there is one implementation per
//! message type.  `ProtocolStack` captures exactly those differences so [`crate::experiment::run_experiment`] can drive any stack
//! generically, and a fifth protocol plugs in without touching the engine
//! (see the module docs of [`crate::experiment`] for the recipe).

use crate::deploy;
use saguaro_baselines::BaselineMsg;
use saguaro_core::{ProtocolConfig, SaguaroMsg};
use saguaro_hierarchy::HierarchyTree;
use saguaro_ledger::TxStatus;
use saguaro_net::{MessageMeta, Simulation};
use saguaro_types::{DeliveryLog, DomainId, FailureModel, NodeId, StackConfig, Transaction, TxId};
use std::borrow::Borrow;
use std::sync::Arc;

/// Which protocol stack an experiment runs (the dynamic counterpart of the
/// [`ProtocolStack`] implementations, carried by `ExperimentSpec` so specs
/// stay plain data).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Saguaro with the coordinator-based cross-domain protocol.
    SaguaroCoordinator,
    /// Saguaro with the optimistic cross-domain protocol.
    SaguaroOptimistic,
    /// The AHL baseline (reference committee + 2PC).
    Ahl,
    /// The SharPer baseline (flattened cross-shard consensus).
    Sharper,
}

impl ProtocolKind {
    /// Short label used in printed figure series.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::SaguaroCoordinator => "Coordinator",
            ProtocolKind::SaguaroOptimistic => "Optimistic",
            ProtocolKind::Ahl => "AHL",
            ProtocolKind::Sharper => "SharPer",
        }
    }

    /// All four stacks of the paper's evaluation.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::SaguaroCoordinator,
        ProtocolKind::SaguaroOptimistic,
        ProtocolKind::Ahl,
        ProtocolKind::Sharper,
    ];
}

/// A height-1 domain and the `(account key, balance)` pairs it holds beyond
/// its account universe.
pub type SeedList = (DomainId, Vec<(String, u64)>);

/// Post-run evidence extracted from one replica: its ledger contents in
/// append (= consensus) order and the view changes it observed.  The fault
/// regression and chaos suites use this to check that no committed
/// transaction is lost, duplicated or divergently ordered across a domain's
/// replicas, and that leader crashes really produced view changes.
#[derive(Clone, Debug)]
pub struct NodeHarvest {
    /// The replica.
    pub node: NodeId,
    /// Ledger entries in append order: `(transaction id, final status)`.
    /// Append order interleaves consensus deliveries with directly-applied
    /// cross-domain commits, so it is replica-local; cross-replica agreement
    /// is checked on [`NodeHarvest::consensus_log`] instead.  Bounded to the
    /// most recent [`DeliveryLog::CAPACITY`] entries (the window replicas
    /// prune their ledgers to at snapshot time) so harvesting an endurance
    /// run stays O(window); [`NodeHarvest::total_entries`] keeps the full
    /// count.
    pub entries: Vec<(TxId, TxStatus)>,
    /// Total ledger entries this replica ever appended, including any that
    /// fell out of the bounded [`NodeHarvest::entries`] window or were
    /// pruned node-side under a finite retention configuration.
    pub total_entries: u64,
    /// Rolling-hash snapshots of the internal consensus delivery stream,
    /// one per delivered block, as a bounded window: replicas of a domain
    /// agree on their common delivery prefix iff their windows agree at the
    /// deepest shared index.
    pub consensus_log: DeliveryLog,
    /// Delivered-command chain entries the internal consensus still retains
    /// (the whole history with pruning off, a bounded suffix otherwise).
    pub chain_len: u64,
    /// First sequence number still retained in the engine's chain.
    pub chain_start: u64,
    /// Application snapshots this replica materialized at checkpoints.
    pub snapshots_taken: u64,
    /// Application snapshots this replica installed via snapshot catch-up.
    pub snapshots_installed: u64,
    /// View changes this replica's internal consensus went through.
    pub view_changes: u64,
    /// The internal consensus delivery frontier at harvest time.
    pub last_delivered: u64,
    /// The internal consensus stable checkpoint at harvest time (0 when
    /// checkpointing is off).
    pub stable_checkpoint: u64,
    /// Entries a view-change vote from this replica would carry right now —
    /// bounded by `history − stable checkpoint` when checkpointing is on.
    pub vote_entries: usize,
    /// Conflicting view-change / new-view certificates this replica's
    /// consensus detected and discarded (twin certificates from an
    /// equivocating peer).
    pub certificate_conflicts: u64,
    /// Member commands this replica applied through state-transfer replies
    /// (recovery catch-up).
    pub state_transfer_commands: u64,
    /// Wire bytes of the state-transfer replies this replica applied.
    pub state_transfer_bytes: u64,
    /// When this replica's last state-transfer reply applied (the catch-up
    /// completion instant of a recovered replica).
    pub caught_up_at: Option<saguaro_types::SimTime>,
    /// Structured trace events this replica recorded (empty with tracing
    /// off).  Drained at harvest; the experiment engine merges every
    /// replica's buffer into one deterministic [`saguaro_trace::RunTrace`].
    pub trace: Vec<saguaro_trace::TraceEvent>,
    /// Trace events this replica dropped because its ring buffer was full.
    pub trace_dropped: u64,
}

impl NodeHarvest {
    /// True if this replica's consensus delivery stream is a prefix of the
    /// other's (or vice versa) — the agreement property internal consensus
    /// guarantees even across crashes and view changes.
    pub fn agrees_with(&self, other: &NodeHarvest) -> bool {
        self.consensus_log.agrees_with(&other.consensus_log)
    }
}

/// Post-run evidence for a whole deployment.
#[derive(Clone, Debug, Default)]
pub struct RunHarvest {
    /// One entry per registered replica node, in deployment order.
    pub nodes: Vec<NodeHarvest>,
}

impl RunHarvest {
    /// Total view changes observed across every replica.
    pub fn view_changes(&self) -> u64 {
        self.nodes.iter().map(|n| n.view_changes).sum()
    }

    /// Total twin certificates detected and discarded across every replica.
    pub fn certificate_conflicts(&self) -> u64 {
        self.nodes.iter().map(|n| n.certificate_conflicts).sum()
    }

    /// The harvest of one specific replica, if present.
    pub fn node(&self, id: NodeId) -> Option<&NodeHarvest> {
        self.nodes.iter().find(|n| n.node == id)
    }

    /// The harvested replicas of one domain.
    pub fn replicas_of(&self, domain: DomainId) -> Vec<&NodeHarvest> {
        self.nodes
            .iter()
            .filter(|n| n.node.domain == domain)
            .collect()
    }

    /// Every domain with at least one harvested replica.
    pub fn domains(&self) -> Vec<DomainId> {
        let mut out: Vec<DomainId> = Vec::new();
        for n in &self.nodes {
            if !out.contains(&n.node.domain) {
                out.push(n.node.domain);
            }
        }
        out
    }

    /// True if `tx` appears in some replica's ledger, whatever its final
    /// status.  Status is deliberately ignored: the optimistic protocol
    /// replies "committed" at speculative execution and may abort later, so
    /// presence is the strongest cross-stack "not lost" check.
    pub fn seen_somewhere(&self, tx: TxId) -> bool {
        self.nodes
            .iter()
            .any(|n| n.entries.iter().any(|(id, _)| *id == tx))
    }
}

/// A protocol stack the experiment engine can deploy and drive.
///
/// Implementations are zero-sized marker types: every method is an associated
/// function, so the engine is monomorphised per stack and the message type
/// never crosses a trait-object boundary (the simulator is generic over it).
pub trait ProtocolStack {
    /// The wire message type of the deployment.
    type Msg: MessageMeta + Clone + 'static;

    /// The dynamic tag for this stack.
    fn kind() -> ProtocolKind;

    /// Short label used in printed figure series.
    fn label() -> &'static str {
        Self::kind().label()
    }

    /// Frames a workload transaction as the stack's client request message.
    fn wrap_request(tx: Transaction) -> Self::Msg;

    /// The message a client schedules to itself to pace its open loop.  Must
    /// be a message the stack's nodes never send to clients.
    fn client_tick() -> Self::Msg;

    /// Extracts `(tx id, committed)` from a reply message, or `None` if the
    /// message is not a reply.
    fn parse_reply(msg: &Self::Msg) -> Option<(TxId, bool)>;

    /// Matching replies a client needs before a transaction counts as
    /// complete: 1 under crash faults, `f + 1` under Byzantine faults (one
    /// honest replica is then guaranteed among the repliers).
    fn reply_quorum(model: FailureModel, faults: usize) -> usize {
        match model {
            FailureModel::Crash => 1,
            FailureModel::Byzantine => faults + 1,
        }
    }

    /// Registers every node of the deployment on the simulator, seeds the
    /// height-1 domains with `seed_accounts`, configures every domain's
    /// internal consensus per `stack` (request batching and liveness
    /// timers), and schedules whatever kick-off events the stack needs
    /// (round timers etc.).
    ///
    /// `seed_accounts` is a stream of per-domain lists, owned or borrowed (a
    /// slice, or a lazy iterator: each list is applied and dropped before
    /// the next is pulled).  A domain it names opens with its account
    /// universe plus its pairs, in order (a repeated key keeps its last
    /// balance); one it does not name opens empty; one that is not a
    /// height-1 domain of `tree` panics.
    fn deploy(
        sim: &mut Simulation<Self::Msg>,
        tree: &Arc<HierarchyTree>,
        seed_accounts: impl IntoIterator<Item = impl Borrow<SeedList>>,
        stack: &StackConfig,
    );

    /// The message the harness injects at a replica that just recovered from
    /// a scripted crash, re-arming its self-perpetuating timer loops (which
    /// died while it was down).
    fn recovery_kick() -> Self::Msg;

    /// Extracts post-run evidence (ledgers, view-change counts) from every
    /// replica of the deployment.  Purely observational: called after the
    /// run, it does not influence the simulation.
    fn harvest(sim: &mut Simulation<Self::Msg>, tree: &Arc<HierarchyTree>) -> RunHarvest;
}

/// A Saguaro deployment; `OPTIMISTIC` picks the cross-domain protocol.  Named
/// through [`CoordinatorStack`] and [`OptimisticStack`].
pub struct SaguaroStack<const OPTIMISTIC: bool>;

/// Saguaro with the coordinator-based cross-domain protocol.
pub type CoordinatorStack = SaguaroStack<false>;

/// Saguaro with the optimistic cross-domain protocol.
pub type OptimisticStack = SaguaroStack<true>;

impl<const OPTIMISTIC: bool> ProtocolStack for SaguaroStack<OPTIMISTIC> {
    type Msg = SaguaroMsg;

    fn kind() -> ProtocolKind {
        if OPTIMISTIC {
            ProtocolKind::SaguaroOptimistic
        } else {
            ProtocolKind::SaguaroCoordinator
        }
    }

    fn wrap_request(tx: Transaction) -> SaguaroMsg {
        SaguaroMsg::ClientRequest(tx)
    }

    fn client_tick() -> SaguaroMsg {
        SaguaroMsg::ClientTick
    }

    fn parse_reply(msg: &SaguaroMsg) -> Option<(TxId, bool)> {
        match msg {
            SaguaroMsg::Reply { tx_id, committed } => Some((*tx_id, *committed)),
            _ => None,
        }
    }

    fn deploy(
        sim: &mut Simulation<SaguaroMsg>,
        tree: &Arc<HierarchyTree>,
        seed_accounts: impl IntoIterator<Item = impl Borrow<SeedList>>,
        stack: &StackConfig,
    ) {
        let preset = if OPTIMISTIC {
            ProtocolConfig::optimistic()
        } else {
            ProtocolConfig::coordinator()
        };
        let config = ProtocolConfig {
            stack: *stack,
            ..preset
        };
        deploy::deploy_saguaro(sim, tree, &config, seed_accounts);
    }

    fn recovery_kick() -> SaguaroMsg {
        SaguaroMsg::RoundTimer
    }

    fn harvest(sim: &mut Simulation<SaguaroMsg>, tree: &Arc<HierarchyTree>) -> RunHarvest {
        deploy::harvest_saguaro(sim, tree)
    }
}

/// A baseline deployment over the same shards; `SHARPER` picks the
/// cross-shard protocol.  Named through [`AhlStack`] and [`SharperStack`].
pub struct BaselineStack<const SHARPER: bool>;

/// The AHL baseline: per-shard consensus plus a reference committee running
/// 2PC for cross-shard transactions.
pub type AhlStack = BaselineStack<false>;

/// The SharPer baseline: flattened cross-shard consensus, no committee.
pub type SharperStack = BaselineStack<true>;

impl<const SHARPER: bool> ProtocolStack for BaselineStack<SHARPER> {
    type Msg = BaselineMsg;

    fn kind() -> ProtocolKind {
        if SHARPER {
            ProtocolKind::Sharper
        } else {
            ProtocolKind::Ahl
        }
    }

    fn wrap_request(tx: Transaction) -> BaselineMsg {
        BaselineMsg::ClientRequest(tx)
    }

    fn client_tick() -> BaselineMsg {
        BaselineMsg::ProgressTimer
    }

    fn parse_reply(msg: &BaselineMsg) -> Option<(TxId, bool)> {
        match msg {
            BaselineMsg::Reply { tx_id, committed } => Some((*tx_id, *committed)),
            _ => None,
        }
    }

    fn deploy(
        sim: &mut Simulation<BaselineMsg>,
        tree: &Arc<HierarchyTree>,
        seed_accounts: impl IntoIterator<Item = impl Borrow<SeedList>>,
        stack: &StackConfig,
    ) {
        deploy::deploy_baseline(sim, tree, SHARPER, seed_accounts, stack);
    }

    fn recovery_kick() -> BaselineMsg {
        BaselineMsg::ProgressTimer
    }

    fn harvest(sim: &mut Simulation<BaselineMsg>, tree: &Arc<HierarchyTree>) -> RunHarvest {
        deploy::harvest_baseline(sim, tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::{ClientId, DomainId, Operation};

    #[test]
    fn kinds_and_labels_line_up() {
        assert_eq!(CoordinatorStack::kind(), ProtocolKind::SaguaroCoordinator);
        assert_eq!(OptimisticStack::kind(), ProtocolKind::SaguaroOptimistic);
        assert_eq!(AhlStack::kind(), ProtocolKind::Ahl);
        assert_eq!(SharperStack::kind(), ProtocolKind::Sharper);
        assert_eq!(CoordinatorStack::label(), "Coordinator");
        assert_eq!(SharperStack::label(), "SharPer");
        // Two implementations, four stacks: the aliases are the four kinds.
        let kinds = [
            CoordinatorStack::kind(),
            OptimisticStack::kind(),
            AhlStack::kind(),
            SharperStack::kind(),
        ];
        assert_eq!(kinds, ProtocolKind::ALL);
        // `deploy` under the optimistic alias yields optimistic nodes: only
        // they execute a cross-domain transaction speculatively, before any
        // ancestor has heard of it.
        let placement = saguaro_hierarchy::Placement::NearbyRegions;
        let tree = deploy::build_tree(FailureModel::Crash, 1, placement).unwrap();
        let mut sim = Simulation::new(deploy::latency_for(placement), 1);
        OptimisticStack::deploy(&mut sim, &tree, &[], &StackConfig::default());
        let (d0, d1) = (DomainId::new(1, 0), DomainId::new(1, 1));
        let tx = Transaction::cross_domain(TxId(1), ClientId(1), vec![d0, d1], Operation::Noop);
        let primary = NodeId::new(d0, 0);
        sim.inject(ClientId(1), primary, OptimisticStack::wrap_request(tx));
        sim.run_until(saguaro_types::SimTime::from_millis(10));
        let status = sim.with_actor(primary, |actor| {
            let node = actor
                .as_any()?
                .downcast_mut::<saguaro_core::SaguaroNode>()?;
            Some(node.ledger().get(TxId(1))?.status)
        });
        assert_eq!(status.flatten(), Some(TxStatus::SpeculativelyCommitted));
    }

    #[test]
    fn wrap_and_parse_round_trip() {
        let tx = Transaction::internal(TxId(7), ClientId(1), DomainId::new(1, 0), Operation::Noop);
        // A wrapped request is not a reply.
        assert_eq!(
            CoordinatorStack::parse_reply(&CoordinatorStack::wrap_request(tx.clone())),
            None
        );
        assert_eq!(AhlStack::parse_reply(&AhlStack::wrap_request(tx)), None);
        // Replies parse.
        let reply = SaguaroMsg::Reply {
            tx_id: TxId(9),
            committed: true,
        };
        assert_eq!(OptimisticStack::parse_reply(&reply), Some((TxId(9), true)));
        let reply = BaselineMsg::Reply {
            tx_id: TxId(4),
            committed: false,
        };
        assert_eq!(SharperStack::parse_reply(&reply), Some((TxId(4), false)));
    }

    #[test]
    fn reply_quorum_depends_on_failure_model() {
        assert_eq!(CoordinatorStack::reply_quorum(FailureModel::Crash, 2), 1);
        assert_eq!(
            CoordinatorStack::reply_quorum(FailureModel::Byzantine, 2),
            3
        );
        assert_eq!(AhlStack::reply_quorum(FailureModel::Byzantine, 1), 2);
    }

    #[test]
    fn client_ticks_are_never_replies() {
        assert_eq!(
            CoordinatorStack::parse_reply(&CoordinatorStack::client_tick()),
            None
        );
        assert_eq!(AhlStack::parse_reply(&AhlStack::client_tick()), None);
    }
}
