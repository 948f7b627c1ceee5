//! Cross-domain micropayments, end to end and by hand.
//!
//! This example drives the public API directly rather than through the
//! experiment harness: it builds the hierarchy, deploys Saguaro nodes,
//! submits a handful of payments (including a cross-domain one: "Alice in the
//! West pays Bob in the East"), then inspects the ledgers, the DAG at the fog
//! layer and the aggregate view at the cloud.
//!
//! ```text
//! cargo run --release --example micropayment
//! ```

use saguaro::core::{ProtocolConfig, SaguaroMsg, SaguaroNode};
use saguaro::hierarchy::{Placement, TopologyBuilder};
use saguaro::ledger::TxStatus;
use saguaro::net::{Addr, CpuProfile, LatencyMatrix, Simulation};
use saguaro::types::transaction::account_key;
use saguaro::types::{
    ClientId, DomainId, FailureModel, NodeId, Operation, SimTime, Transaction, TxId,
};
use std::sync::Arc;

/// Runs `f` on the primary replica of `domain`: actors are trait objects in
/// the simulator, so the node is reached through `as_any`.
fn with_primary<R>(
    sim: &mut Simulation<SaguaroMsg>,
    domain: DomainId,
    f: impl FnOnce(&SaguaroNode) -> R,
) -> R {
    let node = sim.with_actor(NodeId::new(domain, 0), |actor| {
        f(actor
            .as_any()
            .and_then(|any| any.downcast_mut::<SaguaroNode>())
            .expect("a Saguaro node"))
    });
    node.expect("the primary is registered")
}

fn committed(node: &SaguaroNode, id: u64) -> bool {
    node.ledger().get(TxId(id)).map(|e| e.status) == Some(TxStatus::Committed)
}

fn main() {
    // 1. The hierarchy: the paper's binary tree over 4 nearby regions.
    let tree = Arc::new(
        TopologyBuilder::paper_binary_tree()
            .failure_model(FailureModel::Crash)
            .faults(1)
            .placement(Placement::NearbyRegions)
            .build()
            .expect("valid topology"),
    );

    // 2. The simulator and one SaguaroNode per replica.
    let mut sim: Simulation<SaguaroMsg> = Simulation::new(LatencyMatrix::nearby_regions(), 7);
    let config = ProtocolConfig::coordinator();
    for domain in tree.domains() {
        if domain.id.height == 0 {
            continue;
        }
        for node in tree.nodes_of(domain.id).expect("nodes") {
            let mut actor = SaguaroNode::new(node, tree.clone(), config.clone());
            // Seed a couple of accounts per domain: alice lives in D1-0 ("the
            // West"), bob in D1-3 ("the East").
            if domain.id.height == 1 {
                actor.seed_account(&account_key(domain.id.index, 1), 1_000);
                actor.seed_account(&account_key(domain.id.index, 2), 1_000);
            }
            sim.register(node, domain.region, CpuProfile::server(), Box::new(actor));
        }
    }
    // Start the round timers so blocks propagate up the tree.
    for domain in tree.domains() {
        if domain.id.height == 0 {
            continue;
        }
        for node in tree.nodes_of(domain.id).expect("nodes") {
            sim.inject(
                Addr::Client(ClientId(u64::MAX)),
                node,
                SaguaroMsg::RoundTimer,
            );
        }
    }

    let west = DomainId::new(1, 0);
    let east = DomainId::new(1, 3);
    let alice = account_key(west.index, 1);
    let bob = account_key(east.index, 2);
    let client = ClientId(1);
    let west_primary = NodeId::new(west, 0);

    // 3. An internal payment inside the West, then a cross-domain payment
    //    from Alice (West) to Bob (East): the LCA of D1-0 and D1-3 is the
    //    cloud root, which coordinates prepare/prepared/commit.
    let internal = Transaction::internal(
        TxId(1),
        client,
        west,
        Operation::Transfer {
            from: alice.clone(),
            to: account_key(west.index, 2),
            amount: 50,
        },
    );
    let cross = Transaction::cross_domain(
        TxId(2),
        client,
        vec![west, east],
        Operation::Transfer {
            from: alice.clone(),
            to: bob.clone(),
            amount: 200,
        },
    );
    sim.inject(client, west_primary, SaguaroMsg::ClientRequest(internal));
    sim.inject(client, west_primary, SaguaroMsg::ClientRequest(cross));

    // 4. Let a few propagation rounds elapse so the fog and cloud domains see
    //    the blocks.
    sim.run_until(SimTime::from_millis(800));

    // 5. Inspect the replicas: both payments debited alice in the West, the
    //    cross-domain one credited bob in the East, and every ancestor's DAG
    //    holds it.
    with_primary(&mut sim, west, |n| {
        assert_eq!(n.blockchain_state().balance(&alice), 750);
        assert!(committed(n, 1) && committed(n, 2), "West ledger");
    });
    with_primary(&mut sim, east, |n| {
        assert_eq!(n.blockchain_state().balance(&bob), 1_200);
        assert!(committed(n, 2), "East ledger");
    });
    println!("alice = 750 in {west:?}, bob = 1200 in {east:?}: both payments committed");
    let fogs = [west, east].map(|d| tree.parent(d).expect("a fog parent"));
    for domain in fogs.into_iter().chain([tree.root()]) {
        let in_dag = with_primary(&mut sim, domain, |n| n.dag_ledger().contains(TxId(2)));
        assert!(in_dag, "{domain:?}'s DAG misses the cross-domain payment");
        println!("{domain:?}: the cross-domain payment is in the DAG");
    }
    // 6. The cloud's aggregate view holds alice's balance as the West's fog
    //    parent folded it, keyed by the domain that wrote it.
    let root = tree.root();
    let view = with_primary(&mut sim, root, |n| {
        n.aggregate_view().child_value(fogs[0], west, &alice)
    });
    assert_eq!(view, Some(750), "{root:?}'s aggregate view of {alice}");
    println!(
        "{root:?}'s aggregate view: {alice} = 750, written in {west:?}, reported by {:?}",
        fogs[0]
    );

    println!("simulated {} messages", sim.stats().messages_delivered);
    println!("run `cargo run --release --example quickstart` for measured numbers,");
    println!(
        "or `cargo run --release -p saguaro-figures --bin figures -- 7 --quick` for a figure."
    );
}
