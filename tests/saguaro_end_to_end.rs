//! Cross-crate integration tests: a full Saguaro deployment on the
//! discrete-event simulator, driven by hand-crafted requests, with the
//! resulting replica state inspected directly.

use saguaro::core::{ProtocolConfig, SaguaroMsg, SaguaroNode};
use saguaro::hierarchy::{HierarchyTree, Placement, TopologyBuilder};
use saguaro::ledger::TxStatus;
use saguaro::net::{
    Actor, Addr, Context, CpuProfile, FaultSchedule, LatencyMatrix, Simulation, TimerId,
};
use saguaro::types::transaction::account_key;
use saguaro::types::{
    ClientId, DomainId, FailureModel, NodeId, Operation, SimTime, Transaction, TxId,
};
use std::sync::Arc;

fn build(
    model: FailureModel,
    config: ProtocolConfig,
) -> (Simulation<SaguaroMsg>, Arc<HierarchyTree>) {
    let tree = Arc::new(
        TopologyBuilder::paper_binary_tree()
            .failure_model(model)
            .faults(1)
            .placement(Placement::NearbyRegions)
            .build()
            .expect("valid topology"),
    );
    let mut sim: Simulation<SaguaroMsg> =
        Simulation::new(LatencyMatrix::nearby_regions().with_jitter(0.0), 99);
    for domain in tree.domains() {
        if domain.id.height == 0 {
            continue;
        }
        for node in tree.nodes_of(domain.id).expect("nodes") {
            let mut actor = SaguaroNode::new(node, tree.clone(), config.clone());
            if domain.id.height == 1 {
                for n in 0..8u64 {
                    actor.seed_account(&account_key(domain.id.index, n), 1_000);
                }
            }
            sim.register(node, domain.region, CpuProfile::server(), Box::new(actor));
        }
    }
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
    (sim, tree)
}

fn primary(domain: DomainId) -> NodeId {
    NodeId::new(domain, 0)
}

fn with_node<R>(
    sim: &mut Simulation<SaguaroMsg>,
    node: NodeId,
    f: impl FnOnce(&SaguaroNode) -> R,
) -> R {
    sim.with_actor(node, |a| {
        let any = a.as_any().expect("saguaro node is inspectable");
        let node = any.downcast_mut::<SaguaroNode>().expect("type");
        f(node)
    })
    .expect("node registered")
}

#[test]
fn internal_transactions_commit_on_every_replica_and_preserve_balances() {
    let (mut sim, tree) = build(FailureModel::Crash, ProtocolConfig::coordinator());
    let d0 = DomainId::new(1, 0);
    let client = ClientId(5);
    for i in 0..10u64 {
        let tx = Transaction::internal(
            TxId(100 + i),
            client,
            d0,
            Operation::Transfer {
                from: account_key(0, i % 4),
                to: account_key(0, (i + 1) % 4),
                amount: 10,
            },
        );
        sim.inject(client, primary(d0), SaguaroMsg::ClientRequest(tx));
    }
    sim.run_until(SimTime::from_millis(400));

    // Every replica of D1-0 committed all ten transactions in the same order
    // and conserves the seeded supply.
    let mut orders = Vec::new();
    for node in tree.nodes_of(d0).unwrap() {
        let (len, supply, order) = with_node(&mut sim, node, |n| {
            (
                n.ledger().len(),
                n.blockchain_state().sum_by_prefix("a0_"),
                n.ledger()
                    .entries()
                    .iter()
                    .map(|e| e.tx.id)
                    .collect::<Vec<_>>(),
            )
        });
        assert_eq!(len, 10, "replica {node:?} missing transactions");
        assert_eq!(supply, 8_000, "supply not conserved on {node:?}");
        orders.push(order);
    }
    assert!(
        orders.windows(2).all(|w| w[0] == w[1]),
        "replicas disagree on order"
    );
}

#[test]
fn coordinator_cross_domain_transaction_commits_in_both_domains() {
    let (mut sim, tree) = build(FailureModel::Crash, ProtocolConfig::coordinator());
    let (d0, d3) = (DomainId::new(1, 0), DomainId::new(1, 3));
    let client = ClientId(9);
    let tx = Transaction::cross_domain(
        TxId(500),
        client,
        vec![d0, d3],
        Operation::Transfer {
            from: account_key(0, 1),
            to: account_key(3, 2),
            amount: 250,
        },
    );
    sim.inject(client, primary(d0), SaguaroMsg::ClientRequest(tx));
    sim.run_until(SimTime::from_millis(600));

    for node in tree.nodes_of(d0).unwrap() {
        with_node(&mut sim, node, |n| {
            assert!(n.ledger().contains(TxId(500)), "{node:?} missing cross tx");
            assert_eq!(n.blockchain_state().balance(&account_key(0, 1)), 750);
            assert_eq!(n.blockchain_state().get(&account_key(3, 2)), None);
        });
    }
    for node in tree.nodes_of(d3).unwrap() {
        with_node(&mut sim, node, |n| {
            assert!(n.ledger().contains(TxId(500)), "{node:?} missing cross tx");
            assert_eq!(n.blockchain_state().balance(&account_key(3, 2)), 1_250);
        });
    }
    // Both multi-part sequence numbers are present on both sides.
    with_node(&mut sim, primary(d0), |n| {
        let entry = n.ledger().get(TxId(500)).expect("entry");
        assert!(entry.seq.get(d0).is_some() && entry.seq.get(d3).is_some());
    });
}

/// A participant primary that misses the decision and then its own first
/// query keeps querying until the LCA answers, and the entry it held stops
/// blocking later transactions.
#[test]
fn a_participant_that_missed_the_decision_queries_until_it_is_answered() {
    let (mut sim, tree) = build(FailureModel::Crash, ProtocolConfig::coordinator());
    let (d0, d1, lca) = (
        DomainId::new(1, 0),
        DomainId::new(1, 1),
        DomainId::new(2, 0),
    );
    let client = ClientId(9);
    let pay = |id| {
        let op = Operation::Transfer {
            from: account_key(0, 1),
            to: account_key(1, 2),
            amount: 10,
        };
        Transaction::cross_domain(TxId(id), client, vec![d0, d1], op)
    };
    // D1-1's primary sends its prepared message at ~7 ms and the LCA sends
    // its decision at ~13 ms: a cut from 10 ms drops the decision to that
    // primary, and its first query (at ~607 ms) too.  Healed at 650 ms,
    // only a second query can clear the entry.
    let lca_nodes = tree.nodes_of(lca).unwrap();
    let cut = FaultSchedule::none()
        .split_at(SimTime::from_millis(10), [primary(d1)], lca_nodes.clone())
        .heal_split_at(SimTime::from_millis(650), [primary(d1)], lca_nodes);
    sim.set_fault_schedule(cut);
    sim.inject(client, primary(d0), SaguaroMsg::ClientRequest(pay(500)));
    sim.run_until(SimTime::from_millis(640));
    for node in tree.nodes_of(d1).unwrap() {
        let held = with_node(&mut sim, node, |n| n.ledger().contains(TxId(500)));
        assert_eq!(held, node != primary(d1), "{node:?} before the heal");
    }
    sim.run_until(SimTime::from_millis(1_300));
    let held = with_node(&mut sim, primary(d1), |n| n.ledger().contains(TxId(500)));
    assert!(held, "the primary never learned the decision");
    // A later transaction intersecting it in both domains is not blocked.
    sim.inject(client, primary(d0), SaguaroMsg::ClientRequest(pay(501)));
    sim.run_until(SimTime::from_millis(2_000));
    for node in tree
        .nodes_of(d0)
        .unwrap()
        .into_iter()
        .chain(tree.nodes_of(d1).unwrap())
    {
        let held = with_node(&mut sim, node, |n| n.ledger().contains(TxId(501)));
        assert!(held, "{node:?} never committed the later transaction");
    }
}

/// Runs one cross-domain transaction whose coordinator gives up on it — D1-1
/// never hears from the LCA, so every attempt stalls until the LCA's 400 ms
/// deadlock timer discards it and the fourth timeout gives up — and returns
/// the replies its client received.  No involved replica holds it after.
fn replies_to_a_given_up_transaction(model: FailureModel) -> Vec<(TxId, bool)> {
    let (mut sim, tree) = build(model, ProtocolConfig::coordinator());
    let (d0, d1, lca) = (
        DomainId::new(1, 0),
        DomainId::new(1, 1),
        DomainId::new(2, 0),
    );
    let client = ClientId(9);
    let region = tree.region_of(d0).expect("region");
    let sink = Box::new(ReplySink::default());
    sim.register(client, region, CpuProfile::client(), sink);
    let cut = FaultSchedule::none().split_at(
        SimTime::ZERO,
        tree.nodes_of(d1).unwrap(),
        tree.nodes_of(lca).unwrap(),
    );
    sim.set_fault_schedule(cut);
    let op = Operation::Transfer {
        from: account_key(0, 1),
        to: account_key(1, 2),
        amount: 10,
    };
    let tx = Transaction::cross_domain(TxId(500), client, vec![d0, d1], op);
    sim.inject(client, primary(d0), SaguaroMsg::ClientRequest(tx));
    sim.run_until(SimTime::from_millis(2_500));
    for node in tree.nodes_of(d0).unwrap() {
        let held = with_node(&mut sim, node, |n| n.ledger().contains(TxId(500)));
        assert!(!held, "{node:?} holds the aborted transaction");
    }
    let replies = sim.with_actor(client, |a| {
        let sink = a.as_any().and_then(|any| any.downcast_mut::<ReplySink>());
        sink.expect("the reply sink").0.clone()
    });
    replies.expect("the client is registered")
}

/// A coordinator that gives up after its deadlock retries aborts the
/// transaction for good, and the client hears so exactly once.
#[test]
fn a_transaction_the_coordinator_gives_up_on_is_answered_with_an_abort() {
    let replies = replies_to_a_given_up_transaction(FailureModel::Crash);
    assert_eq!(replies, vec![(TxId(500), false)], "replies");
}

/// On PBFT domains a client needs f + 1 matching verdicts, and the replica
/// that took the request is the only participant that knows the client.
/// The LCA's replicas, which all ordered the abort, answer it too.
#[test]
fn a_transaction_the_coordinator_gives_up_on_is_answered_with_an_abort_on_pbft() {
    let replies = replies_to_a_given_up_transaction(FailureModel::Byzantine);
    let aborts = replies.iter().filter(|r| **r == (TxId(500), false)).count();
    assert!(
        aborts >= 2,
        "f + 1 = 2 abort replies needed, got {replies:?}"
    );
    assert!(
        replies.iter().all(|(_, committed)| !committed),
        "{replies:?}"
    );
}

#[test]
fn blocks_propagate_to_fog_and_cloud_with_aggregation() {
    let (mut sim, tree) = build(FailureModel::Crash, ProtocolConfig::coordinator());
    let d0 = DomainId::new(1, 0);
    let client = ClientId(2);
    for i in 0..6u64 {
        let tx = Transaction::internal(
            TxId(700 + i),
            client,
            d0,
            Operation::Transfer {
                from: account_key(0, 0),
                to: account_key(0, 1),
                amount: 1,
            },
        );
        sim.inject(client, primary(d0), SaguaroMsg::ClientRequest(tx));
    }
    // Several propagation rounds (height-1 rounds are 50 ms, fog 100 ms,
    // cloud 200 ms).
    sim.run_until(SimTime::from_millis(1_500));

    let fog = tree.parent(d0).expect("fog parent");
    let root = tree.root();
    with_node(&mut sim, primary(fog), |n| {
        assert!(
            n.dag_ledger().last_round_of(d0) > 0,
            "fog received no blocks"
        );
        assert!(n.dag_ledger().contains(TxId(700)), "fog DAG missing tx");
        assert!(n.aggregate_view().children().count() >= 1);
    });
    with_node(&mut sim, primary(root), |n| {
        assert!(
            n.dag_ledger().last_round_of(fog) > 0,
            "root received no blocks from fog domains"
        );
        assert!(n.dag_ledger().contains(TxId(700)), "root DAG missing tx");
    });
}

/// A committed transaction is one allocation wherever it is recorded: its
/// domain's four ledgers and the DAG of every ancestor replica all hold the
/// body the client's request carried, and an ancestor records it once — the
/// ledger it shows is the DAG's chain.
#[test]
fn one_transaction_is_one_allocation_from_the_request_to_the_roots_dag() {
    let (mut sim, tree) = build(FailureModel::Byzantine, ProtocolConfig::coordinator());
    let d0 = DomainId::new(1, 0);
    let transfer = |i: u64| Operation::Transfer {
        from: account_key(0, i % 8),
        to: account_key(0, (i + 3) % 8),
        amount: 1,
    };
    let requests: Vec<Transaction> = (0..300)
        .map(|i| Transaction::internal(TxId(2_000 + i), ClientId(i % 5), d0, transfer(i)))
        .collect();
    for tx in &requests {
        let request = SaguaroMsg::ClientRequest(tx.clone());
        sim.inject(tx.client, primary(d0), request);
    }
    sim.run_until(SimTime::from_millis(1_500));

    let sent = &requests[123];
    let twin = Transaction::internal(sent.id, sent.client, d0, transfer(123));
    assert!(!Transaction::ptr_eq(sent, &twin));
    let edge = tree.nodes_of(d0).unwrap();
    assert_eq!(edge.len(), 4);
    for node in edge {
        with_node(&mut sim, node, |n| {
            assert_eq!(n.ledger().len(), requests.len(), "{node:?}");
            let entry = n.ledger().get(sent.id).expect("committed");
            assert!(Transaction::ptr_eq(&entry.tx, sent), "{node:?} copied it");
            assert_eq!(entry.tx, twin);
        });
    }
    let fog = tree.parent(d0).expect("fog parent");
    for ancestor in [fog, tree.root()] {
        for node in tree.nodes_of(ancestor).unwrap() {
            with_node(&mut sim, node, |n| {
                let vertex = n.dag_ledger().chain().get(sent.id).expect("propagated");
                assert!(Transaction::ptr_eq(&vertex.tx, sent), "{node:?} DAG");
                assert!(std::ptr::eq(n.ledger(), n.dag_ledger().chain()));
                let summary = n.ledger().get(sent.id).expect("summarised");
                assert!(std::ptr::eq(summary, vertex), "{node:?} two records");
                assert_eq!(summary.tx, twin);
                assert_eq!(summary.tx.payload_bytes(), twin.payload_bytes());
            });
        }
    }
}

#[test]
fn optimistic_cross_domain_commits_without_coordinator_round_trips() {
    let (mut sim, tree) = build(FailureModel::Crash, ProtocolConfig::optimistic());
    let (d1, d2) = (DomainId::new(1, 1), DomainId::new(1, 2));
    let client = ClientId(3);
    let tx = Transaction::cross_domain(
        TxId(900),
        client,
        vec![d1, d2],
        Operation::Transfer {
            from: account_key(1, 0),
            to: account_key(2, 0),
            amount: 100,
        },
    );
    sim.inject(client, primary(d1), SaguaroMsg::ClientRequest(tx));
    sim.run_until(SimTime::from_millis(1_500));

    for d in [d1, d2] {
        for node in tree.nodes_of(d).unwrap() {
            with_node(&mut sim, node, |n| {
                let entry = n.ledger().get(TxId(900)).expect("speculative entry");
                assert_ne!(
                    entry.status,
                    saguaro::ledger::TxStatus::Aborted,
                    "optimistic tx wrongly aborted on {node:?}"
                );
            });
        }
    }
    // The root (LCA of d1, d2 is the cloud) observed the transaction from
    // both domains via block propagation.
    with_node(&mut sim, primary(tree.root()), |n| {
        assert!(n.dag_ledger().contains(TxId(900)));
    });
}

/// Two sibling domains order two cross-domain transactions oppositely —
/// each its own request first — so their fog LCA aborts the higher id, and
/// the record every LCA replica shows for it carries that verdict.
#[test]
fn the_lcas_abort_lands_in_its_chain_record() {
    let (mut sim, tree) = build(FailureModel::Crash, ProtocolConfig::optimistic());
    let (d0, d1) = (DomainId::new(1, 0), DomainId::new(1, 1));
    let lca = tree.parent(d0).expect("fog parent");
    assert_eq!(tree.parent(d1), Some(lca));
    for (id, at) in [(910, d0), (911, d1)] {
        let client = ClientId(id);
        let transfer = Operation::Transfer {
            from: account_key(at.index, 0),
            to: account_key(1 - at.index, 1),
            amount: 1,
        };
        let tx = Transaction::cross_domain(TxId(id), client, vec![d0, d1], transfer);
        sim.inject(client, primary(at), SaguaroMsg::ClientRequest(tx));
    }
    sim.run_until(SimTime::from_millis(1_500));

    let order = |n: &SaguaroNode| {
        let ids = n.ledger().entries().iter().map(|e| e.tx.id);
        ids.filter(|id| id.0 >= 910).collect::<Vec<_>>()
    };
    let d0_order = with_node(&mut sim, primary(d0), order);
    let d1_order = with_node(&mut sim, primary(d1), order);
    assert_eq!(d0_order, vec![TxId(910), TxId(911)]);
    assert_eq!(d1_order, vec![TxId(911), TxId(910)]);
    for node in tree.nodes_of(lca).unwrap() {
        with_node(&mut sim, node, |n| {
            let status = |id| n.ledger().get(TxId(id)).expect("reported").status;
            assert_eq!(status(911), TxStatus::Aborted, "{node:?}");
            assert_ne!(status(910), TxStatus::Aborted, "{node:?}");
        });
    }
}

#[test]
fn byzantine_domains_commit_internal_transactions() {
    let (mut sim, tree) = build(FailureModel::Byzantine, ProtocolConfig::coordinator());
    let d0 = DomainId::new(1, 0);
    let client = ClientId(4);
    for i in 0..5u64 {
        let tx = Transaction::internal(
            TxId(300 + i),
            client,
            d0,
            Operation::Transfer {
                from: account_key(0, 0),
                to: account_key(0, 1),
                amount: 2,
            },
        );
        sim.inject(client, primary(d0), SaguaroMsg::ClientRequest(tx));
    }
    sim.run_until(SimTime::from_millis(500));
    // 3f + 1 = 4 replicas all committed.
    for node in tree.nodes_of(d0).unwrap() {
        with_node(&mut sim, node, |n| {
            assert_eq!(n.ledger().len(), 5, "{node:?} missing commits");
            assert_eq!(n.blockchain_state().balance(&account_key(0, 1)), 1_010);
        });
    }
}

#[test]
fn message_loss_does_not_violate_replica_agreement() {
    let (mut sim, tree) = build(FailureModel::Crash, ProtocolConfig::coordinator());
    sim.faults_mut().set_drop_probability(0.05);
    let d0 = DomainId::new(1, 0);
    let client = ClientId(6);
    for i in 0..20u64 {
        let tx = Transaction::internal(
            TxId(1_000 + i),
            client,
            d0,
            Operation::Transfer {
                from: account_key(0, i % 4),
                to: account_key(0, (i + 2) % 4),
                amount: 1,
            },
        );
        sim.inject(client, primary(d0), SaguaroMsg::ClientRequest(tx));
    }
    sim.run_until(SimTime::from_millis(800));

    // Agreement: no two replicas commit different transactions at the same
    // sequence number (prefix consistency).
    let ledgers: Vec<Vec<TxId>> = tree
        .nodes_of(d0)
        .unwrap()
        .into_iter()
        .map(|node| {
            with_node(&mut sim, node, |n| {
                n.ledger().entries().iter().map(|e| e.tx.id).collect()
            })
        })
        .collect();
    let shortest = ledgers.iter().map(Vec::len).min().unwrap_or(0);
    for i in 0..shortest {
        let first = ledgers[0][i];
        assert!(
            ledgers.iter().all(|l| l[i] == first),
            "replicas disagree at position {i}"
        );
    }
}

/// A client that records the replies it receives.
#[derive(Default)]
struct ReplySink(Vec<(TxId, bool)>);

impl Actor<SaguaroMsg> for ReplySink {
    fn on_message(&mut self, _from: Addr, msg: SaguaroMsg, _ctx: &mut Context<'_, SaguaroMsg>) {
        if let SaguaroMsg::Reply { tx_id, committed } = msg {
            self.0.push((tx_id, committed));
        }
    }

    fn on_timer(&mut self, _id: TimerId, _msg: SaguaroMsg, _ctx: &mut Context<'_, SaguaroMsg>) {}

    fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The commit step has four callers — a delivered internal transaction, the
/// LCA's decision on a coordinated cross-domain one, a delivered optimistic
/// one, and the transactions a mobile hand-over releases.  Each must leave
/// the same things behind on every replica of the committing domain: one
/// ledger entry with its status and sequence number parts, one counter
/// bumped, the balances moved — and one reply at the client.
#[test]
fn the_commit_step_is_the_same_through_each_of_its_callers() {
    let d = |i| DomainId::new(1, i);
    let client = ClientId(3);
    let pay = |from: DomainId, to: DomainId| Operation::Transfer {
        from: account_key(from.index, client.0),
        to: account_key(to.index, 1),
        amount: 10,
    };
    struct Case {
        caller: &'static str,
        config: ProtocolConfig,
        tx: Transaction,
        /// The domain that receives the request and whose replicas are read.
        at: DomainId,
        /// Read this early for the optimistic path: before any verdict.
        read_at_ms: u64,
        status: TxStatus,
        seq: Vec<(DomainId, u64)>,
    }
    let cases = [
        Case {
            caller: "Cmd::Internal",
            config: ProtocolConfig::coordinator(),
            tx: Transaction::internal(TxId(1), client, d(0), pay(d(0), d(0))),
            at: d(0),
            read_at_ms: 600,
            status: TxStatus::Committed,
            seq: vec![(d(0), 1)],
        },
        Case {
            caller: "CommitCross",
            config: ProtocolConfig::coordinator(),
            tx: Transaction::cross_domain(TxId(2), client, vec![d(0), d(3)], pay(d(0), d(3))),
            at: d(0),
            read_at_ms: 600,
            status: TxStatus::Committed,
            seq: vec![(d(0), 1), (d(3), 1)],
        },
        Case {
            caller: "Cmd::OptimisticCross",
            config: ProtocolConfig::optimistic(),
            tx: Transaction::cross_domain(TxId(3), client, vec![d(0), d(3)], pay(d(0), d(3))),
            at: d(0),
            read_at_ms: 15,
            status: TxStatus::SpeculativelyCommitted,
            seq: vec![(d(0), 1)],
        },
        Case {
            caller: "Cmd::MobileInstall",
            config: ProtocolConfig::coordinator(),
            tx: Transaction::mobile(TxId(4), client, d(0), d(2), pay(d(0), d(2))),
            at: d(2),
            read_at_ms: 600,
            status: TxStatus::Committed,
            seq: vec![(d(2), 1)],
        },
    ];
    for case in cases {
        let Case { caller, at, .. } = case;
        let (mut sim, tree) = build(FailureModel::Crash, case.config);
        let region = tree.region_of(at).expect("region");
        let sink = Box::new(ReplySink::default());
        sim.register(client, region, CpuProfile::client(), sink);
        let id = case.tx.id;
        sim.inject(client, primary(at), SaguaroMsg::ClientRequest(case.tx));
        sim.run_until(SimTime::from_millis(case.read_at_ms));

        for node in tree.nodes_of(at).unwrap() {
            with_node(&mut sim, node, |n| {
                assert_eq!(n.ledger().len(), 1, "{caller}: entries on {node:?}");
                let entry = n.ledger().get(id).expect("the committed entry");
                assert_eq!(entry.status, case.status, "{caller}: status on {node:?}");
                let seq: Vec<_> = entry.seq.iter().collect();
                assert_eq!(seq, case.seq, "{caller}: sequence parts on {node:?}");
                // The payer's account lives in domain 0: it is debited where
                // that state is (at home, or where the device carried it).
                let payer = n.blockchain_state().balance(&account_key(0, client.0));
                assert_eq!(payer, 990, "{caller}: payer's balance on {node:?}");
            });
        }
        let replies = sim.with_actor(client, |a| {
            let sink = a.as_any().and_then(|any| any.downcast_mut::<ReplySink>());
            sink.expect("the reply sink").0.clone()
        });
        assert_eq!(replies, Some(vec![(id, true)]), "{caller}: replies");
    }
}
