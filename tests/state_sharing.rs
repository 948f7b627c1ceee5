//! A domain's account state is shared between its replicas and its
//! checkpoint snapshots, never copied — and must still behave as if every
//! holder had a private copy.  Checked at node level, for both replica types:
//! snapshot ≡ replay, a snapshot keeps the values it was taken at, and
//! replicas seeded from one shared state never see each other's writes.

use saguaro::baselines::{BaselineMsg, BaselineNode, BaselineRole};
use saguaro::core::{HostedReplica, ProtocolConfig, SaguaroMsg, SaguaroNode};
use saguaro::hierarchy::{HierarchyTree, Placement, TopologyBuilder};
use saguaro::ledger::BlockchainState;
use saguaro::net::{Actor, CpuProfile, LatencyMatrix, Simulation};
use saguaro::types::transaction::account_key;
use saguaro::types::{
    ClientId, DomainId, FailureModel, NodeId, Operation, SimTime, StackConfig, Transaction, TxId,
};
use std::sync::Arc;

/// Accounts seeded per domain: enough for the state to span several leaves.
const ACCOUNTS: u64 = 200;

/// What this file needs of a replica type, under one name per stack.
trait Replica: HostedReplica + Actor<Self::Msg> + Send + 'static {
    /// The replica `id`, or `None` where the stack deploys nothing.
    fn build(id: NodeId, tree: &Arc<HierarchyTree>) -> Option<Self>;
    fn request(tx: Transaction) -> Self::Msg;
    fn balances(&self) -> &BlockchainState;
    fn seed_shared(&mut self, state: &BlockchainState);
    fn seed_one(&mut self, key: &str, balance: u64);
}

impl Replica for SaguaroNode {
    fn build(id: NodeId, tree: &Arc<HierarchyTree>) -> Option<Self> {
        Some(SaguaroNode::new(
            id,
            tree.clone(),
            ProtocolConfig::coordinator(),
        ))
    }
    fn request(tx: Transaction) -> SaguaroMsg {
        SaguaroMsg::ClientRequest(tx)
    }
    fn balances(&self) -> &BlockchainState {
        self.blockchain_state()
    }
    fn seed_shared(&mut self, state: &BlockchainState) {
        self.seed_state(state);
    }
    fn seed_one(&mut self, key: &str, balance: u64) {
        self.seed_account(key, balance);
    }
}

impl Replica for BaselineNode {
    fn build(id: NodeId, tree: &Arc<HierarchyTree>) -> Option<Self> {
        let (role, stack) = (BaselineRole::SharperShard, StackConfig::default());
        (id.domain.height == 1)
            .then(|| BaselineNode::new(id, role, tree.clone(), tree.root(), stack))
    }
    fn request(tx: Transaction) -> BaselineMsg {
        BaselineMsg::ClientRequest(tx)
    }
    fn balances(&self) -> &BlockchainState {
        self.blockchain_state()
    }
    fn seed_shared(&mut self, state: &BlockchainState) {
        self.seed_state(state);
    }
    fn seed_one(&mut self, key: &str, balance: u64) {
        self.seed_account(key, balance);
    }
}

fn tree() -> Arc<HierarchyTree> {
    Arc::new(
        TopologyBuilder::paper_binary_tree()
            .failure_model(FailureModel::Crash)
            .faults(1)
            .placement(Placement::NearbyRegions)
            .build()
            .expect("valid topology"),
    )
}

/// `ACCOUNTS` accounts of domain `index`, 1 000 each.
fn seeded(index: u16) -> BlockchainState {
    let mut state = BlockchainState::new();
    for n in 0..ACCOUNTS {
        state.put(&account_key(index, n), 1_000);
    }
    state
}

/// A full deployment of `R`; `seed` prepares each replica before it starts.
fn stand_up<R: Replica>(
    tree: &Arc<HierarchyTree>,
    seed: impl Fn(NodeId, &mut R),
) -> Simulation<R::Msg> {
    let mut sim = Simulation::new(LatencyMatrix::nearby_regions().with_jitter(0.0), 5);
    for domain in tree.domains().filter(|d| d.id.height > 0) {
        for node in tree.nodes_of(domain.id).expect("nodes") {
            if let Some(mut replica) = R::build(node, tree) {
                seed(node, &mut replica);
                sim.register(node, domain.region, CpuProfile::server(), Box::new(replica));
            }
        }
    }
    sim
}

fn with<R: Replica, T>(
    sim: &mut Simulation<R::Msg>,
    node: NodeId,
    f: impl FnOnce(&mut R) -> T,
) -> T {
    sim.with_actor(node, |a| {
        f(a.as_any().unwrap().downcast_mut::<R>().unwrap())
    })
    .expect("registered")
}

/// Internal transfers `ids` of `domain`, each between two of its accounts.
fn transfers(domain: DomainId, ids: std::ops::Range<u64>) -> Vec<Transaction> {
    ids.map(|i| {
        let op = Operation::Transfer {
            from: account_key(domain.index, (i * 37) % ACCOUNTS),
            to: account_key(domain.index, (i * 101 + 7) % ACCOUNTS),
            amount: 1 + i % 9,
        };
        Transaction::internal(TxId(i), ClientId(i % 4), domain, op)
    })
    .collect()
}

/// Submits `txs` to the primary of their domain and runs until `until_ms`.
fn execute<R: Replica>(sim: &mut Simulation<R::Msg>, txs: &[Transaction], until_ms: u64) {
    for tx in txs {
        let primary = NodeId::new(tx.involved_domains()[0], 0);
        sim.inject(tx.client, primary, R::request(tx.clone()));
    }
    sim.run_until(SimTime::from_millis(until_ms));
}

fn snapshot_then_tail_equals_the_donor<R: Replica>() {
    let tree = tree();
    let domain = DomainId::new(1, 0);
    let replicas = tree.nodes_of(domain).expect("nodes");
    let (head, tail) = (transfers(domain, 1..41), transfers(domain, 41..81));

    // The donor group executes the head, one replica captures a snapshot,
    // and the group moves on through the tail.
    let initial = seeded(domain.index);
    let mut donors = stand_up::<R>(&tree, |node, r| {
        if node.domain == domain {
            r.seed_shared(&initial);
        }
    });
    execute::<R>(&mut donors, &head, 500);
    let (snapshot, at_snapshot) = with::<R, _>(&mut donors, replicas[1], |r| {
        (r.snapshot_app_state(40, Some(7)), r.balances().clone())
    });
    let wire_bytes = snapshot.wire_bytes();
    assert_eq!(wire_bytes, 96 + 24 * ACCOUNTS);
    assert_ne!(at_snapshot, initial, "the head moved money");
    execute::<R>(&mut donors, &tail, 1_000);
    let donor = with::<R, _>(&mut donors, replicas[1], |r| r.balances().clone());
    assert_ne!(donor, at_snapshot, "the tail moved money");
    assert_eq!(donor.total_supply(), initial.total_supply());
    for node in &replicas {
        let state = with::<R, _>(&mut donors, *node, |r| r.balances().clone());
        assert_eq!(state, donor, "{node:?} agrees with its group");
    }

    // A fresh group installs the snapshot and replays the tail.
    let mut fresh = stand_up::<R>(&tree, |_, _| {});
    for node in &replicas {
        with::<R, _>(&mut fresh, *node, |r| {
            r.install_app_state(&snapshot);
            assert_eq!(*r.balances(), at_snapshot);
        });
    }
    execute::<R>(&mut fresh, &tail, 500);
    for node in &replicas {
        let state = with::<R, _>(&mut fresh, *node, |r| r.balances().clone());
        assert_eq!(state, donor, "{node:?}: snapshot + tail ≡ replay");
    }

    // Neither the donor's nor the installers' later writes reached it.
    assert_eq!(snapshot.accounts, at_snapshot.share());
    assert_eq!(snapshot.wire_bytes(), wire_bytes);
    assert_eq!(
        initial,
        seeded(domain.index),
        "nor the state they were seeded from"
    );
}

#[test]
fn saguaro_snapshot_then_tail_equals_the_donor() {
    snapshot_then_tail_equals_the_donor::<SaguaroNode>();
}

#[test]
fn baseline_snapshot_then_tail_equals_the_donor() {
    snapshot_then_tail_equals_the_donor::<BaselineNode>();
}

/// Every replica of every edge domain starts from a share of *one* state
/// object; only domain 0 then executes transfers.
fn replicas_sharing_a_seed_keep_their_writes_apart<R: Replica>() {
    let tree = tree();
    let (busy, idle) = (DomainId::new(1, 0), DomainId::new(1, 1));
    let shared = seeded(busy.index);
    let mut sim = stand_up::<R>(&tree, |_, r| r.seed_shared(&shared));
    execute::<R>(&mut sim, &transfers(busy, 1..41), 500);

    let executed = with::<R, _>(&mut sim, NodeId::new(busy, 0), |r| r.balances().clone());
    assert_ne!(executed, shared);
    for node in tree.nodes_of(idle).expect("nodes") {
        let state = with::<R, _>(&mut sim, node, |r| r.balances().clone());
        assert_eq!(state, shared, "{node:?} saw a write of {busy:?}");
    }
    assert_eq!(shared, seeded(busy.index));
}

#[test]
fn saguaro_replicas_sharing_a_seed_keep_their_writes_apart() {
    replicas_sharing_a_seed_keep_their_writes_apart::<SaguaroNode>();
}

#[test]
fn baseline_replicas_sharing_a_seed_keep_their_writes_apart() {
    replicas_sharing_a_seed_keep_their_writes_apart::<BaselineNode>();
}

fn seeding_a_state_equals_seeding_its_accounts<R: Replica>() {
    let tree = tree();
    let node = NodeId::new(DomainId::new(1, 2), 1);
    let mut by_state = R::build(node, &tree).expect("an edge replica");
    by_state.seed_shared(&seeded(2));
    let mut by_account = R::build(node, &tree).expect("an edge replica");
    // Key by key in another order, one key twice: the last balance stays.
    by_account.seed_one(&account_key(2, 5), 1);
    for n in (0..ACCOUNTS).rev() {
        by_account.seed_one(&account_key(2, n), 1_000);
    }
    assert_eq!(by_state.balances(), by_account.balances());
    assert_eq!(by_state.balances().len(), ACCOUNTS as usize);
}

#[test]
fn seeding_a_state_equals_seeding_its_accounts_on_both_replica_types() {
    seeding_a_state_equals_seeding_its_accounts::<SaguaroNode>();
    seeding_a_state_equals_seeding_its_accounts::<BaselineNode>();
}
