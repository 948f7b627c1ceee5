//! Integration tests for the mobile consensus protocol and the AHL / SharPer
//! baselines.

use saguaro::baselines::{BaselineMsg, BaselineNode, BaselineRole};
use saguaro::core::{HostedReplica, ProtocolConfig, SaguaroMsg, SaguaroNode};
use saguaro::hierarchy::{HierarchyTree, Placement, TopologyBuilder};
use saguaro::ledger::TxStatus;
use saguaro::net::{CpuProfile, LatencyMatrix, Simulation};
use saguaro::types::transaction::account_key;
use saguaro::types::{
    ClientId, DomainId, FailureModel, LivenessConfig, NodeId, Operation, SimTime, StackConfig,
    Transaction, TxId,
};
use std::sync::Arc;

fn tree(model: FailureModel) -> Arc<HierarchyTree> {
    Arc::new(
        TopologyBuilder::paper_binary_tree()
            .failure_model(model)
            .faults(1)
            .placement(Placement::NearbyRegions)
            .build()
            .expect("valid topology"),
    )
}

fn primary(domain: DomainId) -> NodeId {
    NodeId::new(domain, 0)
}

// ---------------------------------------------------------------------
// Mobile consensus
// ---------------------------------------------------------------------

fn saguaro_sim(tree: &Arc<HierarchyTree>) -> Simulation<SaguaroMsg> {
    saguaro_sim_with(tree, StackConfig::default())
}

fn saguaro_sim_with(tree: &Arc<HierarchyTree>, stack: StackConfig) -> Simulation<SaguaroMsg> {
    let mut sim: Simulation<SaguaroMsg> =
        Simulation::new(LatencyMatrix::nearby_regions().with_jitter(0.0), 5);
    let config = ProtocolConfig {
        stack,
        ..ProtocolConfig::coordinator()
    };
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
    sim
}

fn with_saguaro<R>(
    sim: &mut Simulation<SaguaroMsg>,
    node: NodeId,
    f: impl FnOnce(&SaguaroNode) -> R,
) -> R {
    sim.with_actor(node, |a| {
        f(a.as_any().unwrap().downcast_mut::<SaguaroNode>().unwrap())
    })
    .expect("registered")
}

#[test]
fn mobile_device_transacts_in_remote_domain_after_one_state_transfer() {
    let t = tree(FailureModel::Crash);
    let mut sim = saguaro_sim(&t);
    let home = DomainId::new(1, 0);
    let remote = DomainId::new(1, 2);
    // The roaming device's own account lives in its home domain.
    let device = ClientId(3);
    // (account a0_3 was seeded with 1000 in the home domain.)

    // Three transactions issued while visiting the remote domain.
    for i in 0..3u64 {
        let tx = Transaction::mobile(
            TxId(2_000 + i),
            device,
            home,
            remote,
            Operation::Transfer {
                from: account_key(home.index, device.0),
                to: account_key(remote.index, 1),
                amount: 50,
            },
        );
        sim.inject(device, primary(remote), SaguaroMsg::ClientRequest(tx));
    }
    sim.run_until(SimTime::from_millis(800));

    // The remote domain hosts the device state and committed all three
    // transactions locally.
    with_saguaro(&mut sim, primary(remote), |n| {
        for id in 2_000..2_003 {
            let status = n.ledger().get(TxId(id)).map(|e| e.status);
            assert_eq!(status, Some(TxStatus::Committed), "tx {id}");
        }
        assert_eq!(
            n.blockchain_state()
                .balance(&account_key(home.index, device.0)),
            1_000 - 150,
            "device balance not debited remotely"
        );
        assert_eq!(
            n.blockchain_state().balance(&account_key(remote.index, 1)),
            1_000 + 150
        );
    });
    // The home domain flipped the lock bit and recorded where the state went
    // (observable through the absence of a local copy being authoritative:
    // an internal transaction for the device would now require a state
    // return; we check the home ledger did not execute the remote ones).
    with_saguaro(&mut sim, primary(home), |n| {
        assert!(!n.ledger().contains(TxId(2_000)));
    });
}

/// Drives one roaming transaction through a crash of the *home* (local)
/// primary landing mid-`StateQuery`: the query (or the extract consensus, or
/// the `StateMsg` answer — whichever the timing hits) dies with the crash.
/// The remote primary's retry loop re-queries after the home primary
/// recovers, and the device's balance is neither lost nor duplicated: the
/// transfer debits the authoritative copy exactly once, and a later
/// internal transaction back home executes on the pulled-back (debited)
/// state, not on the stale pre-excursion copy.
#[test]
fn mobile_handoff_survives_a_local_primary_crash_without_losing_balance() {
    use saguaro::net::FaultSchedule;
    let t = tree(FailureModel::Crash);
    let mut sim = saguaro_sim(&t);
    let home = DomainId::new(1, 0);
    let remote = DomainId::new(1, 2);
    let device = ClientId(3); // account a0_3, seeded with 1000

    // The home primary is dark from just after the roaming request reaches
    // the remote domain until well into the retry window.
    sim.set_fault_schedule(
        FaultSchedule::none()
            .crash_at(SimTime::from_millis(12), primary(home))
            .recover_at(SimTime::from_millis(150), primary(home)),
    );
    // The harness pairs every scripted recovery with a kick that re-arms the
    // recovered replica's timer loops; mirror it.
    sim.inject_at(
        SimTime::from_millis(150),
        ClientId(999),
        primary(home),
        SaguaroMsg::RoundTimer,
    );

    let roam = Transaction::mobile(
        TxId(3_000),
        device,
        home,
        remote,
        Operation::Transfer {
            from: account_key(home.index, device.0),
            to: account_key(remote.index, 1),
            amount: 50,
        },
    );
    sim.inject(device, primary(remote), SaguaroMsg::ClientRequest(roam));
    // The retry timer is 600 ms; leave room for two rounds.
    sim.run_until(SimTime::from_millis(1_500));

    // Committed exactly once, at the remote domain, debiting the
    // authoritative copy.
    with_saguaro(&mut sim, primary(remote), |n| {
        assert!(
            n.ledger().contains(TxId(3_000)),
            "the roaming tx must commit after the retry"
        );
        assert_eq!(
            n.blockchain_state()
                .balance(&account_key(home.index, device.0)),
            950,
            "remote copy must be debited exactly once"
        );
        assert_eq!(
            n.blockchain_state().balance(&account_key(remote.index, 1)),
            1_050
        );
    });
    with_saguaro(&mut sim, primary(home), |n| {
        assert!(
            !n.ledger().contains(TxId(3_000)),
            "the roaming tx must not also execute at home"
        );
    });

    // The acid test for "neither lost nor duplicated": an internal
    // transaction back home pulls the state back and executes on the
    // *debited* balance.  If the crash had resurrected the stale home copy,
    // the final balance would read 975 (duplicated funds); if the transfer
    // had been lost in transit, the pull-back would never complete.
    let back_home = Transaction::internal(
        TxId(3_001),
        device,
        home,
        Operation::Transfer {
            from: account_key(home.index, device.0),
            to: account_key(home.index, 5),
            amount: 25,
        },
    );
    sim.inject(device, primary(home), SaguaroMsg::ClientRequest(back_home));
    sim.run_until(SimTime::from_millis(3_000));
    with_saguaro(&mut sim, primary(home), |n| {
        assert!(n.ledger().contains(TxId(3_001)));
        assert_eq!(
            n.blockchain_state()
                .balance(&account_key(home.index, device.0)),
            925,
            "pull-back must carry the remote debit: 1000 - 50 - 25"
        );
        assert_eq!(
            n.blockchain_state().balance(&account_key(home.index, 5)),
            1_025
        );
    });
}

/// The mirror scenario: the *remote* primary crashes while the `StateMsg`
/// is in flight towards it.  On recovery its re-armed retry loop re-queries;
/// the home domain — whose records already point at the requester — answers
/// directly instead of bouncing the query, and the transaction commits once.
#[test]
fn mobile_handoff_survives_a_remote_primary_crash() {
    use saguaro::net::FaultSchedule;
    let t = tree(FailureModel::Crash);
    let mut sim = saguaro_sim(&t);
    let home = DomainId::new(1, 0);
    let remote = DomainId::new(1, 2);
    let device = ClientId(3);

    // Crash the remote primary right after it forwarded the StateQuery, so
    // the certified StateMsg arrives while it is dark.
    sim.set_fault_schedule(
        FaultSchedule::none()
            .crash_at(SimTime::from_millis(14), primary(remote))
            .recover_at(SimTime::from_millis(150), primary(remote)),
    );
    sim.inject_at(
        SimTime::from_millis(150),
        ClientId(999),
        primary(remote),
        SaguaroMsg::RoundTimer,
    );

    let roam = Transaction::mobile(
        TxId(3_100),
        device,
        home,
        remote,
        Operation::Transfer {
            from: account_key(home.index, device.0),
            to: account_key(remote.index, 2),
            amount: 40,
        },
    );
    sim.inject(device, primary(remote), SaguaroMsg::ClientRequest(roam));
    sim.run_until(SimTime::from_millis(1_500));

    with_saguaro(&mut sim, primary(remote), |n| {
        assert!(
            n.ledger().contains(TxId(3_100)),
            "the roaming tx must commit after the remote primary recovers"
        );
        assert_eq!(
            n.blockchain_state()
                .balance(&account_key(home.index, device.0)),
            960,
            "debited exactly once despite the re-sent state"
        );
        assert_eq!(
            n.blockchain_state().balance(&account_key(remote.index, 2)),
            1_040
        );
    });
    with_saguaro(&mut sim, primary(home), |n| {
        assert!(!n.ledger().contains(TxId(3_100)));
    });
}

// ---------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------

fn baseline_sim(tree: &Arc<HierarchyTree>, sharper: bool) -> Simulation<BaselineMsg> {
    baseline_sim_with(tree, sharper, StackConfig::default())
}

fn baseline_sim_with(
    tree: &Arc<HierarchyTree>,
    sharper: bool,
    stack: StackConfig,
) -> Simulation<BaselineMsg> {
    let mut sim: Simulation<BaselineMsg> =
        Simulation::new(LatencyMatrix::nearby_regions().with_jitter(0.0), 6);
    let committee = tree.root();
    for domain in tree.domains() {
        let role = if domain.id.height == 1 {
            if sharper {
                BaselineRole::SharperShard
            } else {
                BaselineRole::AhlShard
            }
        } else if domain.id == committee && !sharper {
            BaselineRole::AhlCommittee
        } else {
            continue;
        };
        for node in tree.nodes_of(domain.id).expect("nodes") {
            let mut actor = BaselineNode::new(node, role, tree.clone(), committee, stack);
            if domain.id.height == 1 {
                for n in 0..8u64 {
                    actor.seed_account(&account_key(domain.id.index, n), 1_000);
                }
            }
            sim.register(node, domain.region, CpuProfile::server(), Box::new(actor));
        }
    }
    sim
}

fn with_baseline<R>(
    sim: &mut Simulation<BaselineMsg>,
    node: NodeId,
    f: impl FnOnce(&BaselineNode) -> R,
) -> R {
    sim.with_actor(node, |a| {
        f(a.as_any().unwrap().downcast_mut::<BaselineNode>().unwrap())
    })
    .expect("registered")
}

#[test]
fn ahl_commits_internal_and_cross_shard_transactions() {
    let t = tree(FailureModel::Crash);
    let mut sim = baseline_sim(&t, false);
    let (d0, d1) = (DomainId::new(1, 0), DomainId::new(1, 1));
    let client = ClientId(7);
    let internal = Transaction::internal(
        TxId(1),
        client,
        d0,
        Operation::Transfer {
            from: account_key(0, 0),
            to: account_key(0, 1),
            amount: 5,
        },
    );
    let cross = Transaction::cross_domain(
        TxId(2),
        client,
        vec![d0, d1],
        Operation::Transfer {
            from: account_key(0, 2),
            to: account_key(1, 3),
            amount: 40,
        },
    );
    sim.inject(client, primary(d0), BaselineMsg::ClientRequest(internal));
    sim.inject(client, primary(d0), BaselineMsg::ClientRequest(cross));
    sim.run_until(SimTime::from_millis(800));

    with_baseline(&mut sim, primary(d0), |n| {
        for (id, what) in [(1, "internal tx"), (2, "AHL cross-shard tx")] {
            let status = n.ledger().get(TxId(id)).map(|e| e.status);
            assert_eq!(status, Some(TxStatus::Committed), "{what} at d0");
        }
        assert_eq!(n.ledger().len(), 2);
        assert_eq!(n.blockchain_state().balance(&account_key(0, 2)), 960);
    });
    with_baseline(&mut sim, primary(d1), |n| {
        assert!(
            n.ledger().contains(TxId(2)),
            "AHL cross-shard tx missing at d1"
        );
        assert_eq!(n.blockchain_state().balance(&account_key(1, 3)), 1_040);
    });
}

#[test]
fn sharper_flattened_consensus_commits_cross_shard_transactions() {
    for model in [FailureModel::Crash, FailureModel::Byzantine] {
        let t = tree(model);
        let mut sim = baseline_sim(&t, true);
        let (d2, d3) = (DomainId::new(1, 2), DomainId::new(1, 3));
        let client = ClientId(8);
        let cross = Transaction::cross_domain(
            TxId(10),
            client,
            vec![d2, d3],
            Operation::Transfer {
                from: account_key(2, 0),
                to: account_key(3, 0),
                amount: 15,
            },
        );
        sim.inject(client, primary(d2), BaselineMsg::ClientRequest(cross));
        sim.run_until(SimTime::from_millis(800));

        for d in [d2, d3] {
            with_baseline(&mut sim, primary(d), |n| {
                assert!(
                    n.ledger().contains(TxId(10)),
                    "SharPer ({model:?}) cross tx missing at {d:?}"
                );
            });
        }
        with_baseline(&mut sim, primary(d2), |n| {
            assert_eq!(n.blockchain_state().balance(&account_key(2, 0)), 985);
        });
        with_baseline(&mut sim, primary(d3), |n| {
            assert_eq!(n.blockchain_state().balance(&account_key(3, 0)), 1_015);
        });
    }
}

#[test]
fn sharper_internal_transactions_do_not_touch_other_shards() {
    let t = tree(FailureModel::Crash);
    let mut sim = baseline_sim(&t, true);
    let d0 = DomainId::new(1, 0);
    let client = ClientId(1);
    let internal = Transaction::internal(
        TxId(20),
        client,
        d0,
        Operation::Transfer {
            from: account_key(0, 0),
            to: account_key(0, 1),
            amount: 1,
        },
    );
    sim.inject(client, primary(d0), BaselineMsg::ClientRequest(internal));
    sim.run_until(SimTime::from_millis(300));
    with_baseline(&mut sim, primary(d0), |n| {
        assert!(n.ledger().contains(TxId(20)));
    });
    with_baseline(&mut sim, primary(DomainId::new(1, 1)), |n| {
        assert!(n.ledger().is_empty());
    });
}

// ---------------------------------------------------------------------
// Both: a coordinator with nothing left to decide is idle
// ---------------------------------------------------------------------

/// `(view, view changes seen)` of a replica's internal consensus.
fn views<N: HostedReplica>(node: &mut N) -> (u64, u64) {
    let host = node.host_mut();
    (host.consensus().view(), host.stats().view_changes)
}

/// Once its first cross-domain transaction is decided, a coordinator —
/// Saguaro's LCA, AHL's reference committee — has no work pending, so left
/// idle its replicas must not suspect their healthy primary.  The decided
/// entry stays in the coordinator's table (nothing retires it) and used to
/// count as pending work forever.  No round timers run here: block
/// propagation delivers something to an LCA every round, which is what hid
/// this from every other suite.
#[test]
fn an_idle_coordinator_does_not_suspect_its_healthy_primary() {
    let t = tree(FailureModel::Crash);
    let stack = StackConfig {
        liveness: LivenessConfig::standard(),
        ..StackConfig::default()
    };
    let (d0, d1) = (DomainId::new(1, 0), DomainId::new(1, 1));
    let client = ClientId(7);
    let cross = Transaction::cross_domain(
        TxId(1),
        client,
        vec![d0, d1],
        Operation::Transfer {
            from: account_key(0, 2),
            to: account_key(1, 3),
            amount: 40,
        },
    );
    let idle_until = SimTime::from_millis(400);

    let lca = t.lca(&[d0, d1]).expect("lca");
    let mut sim = saguaro_sim_with(&t, stack);
    for node in t.nodes_of(lca).unwrap() {
        sim.inject(client, node, SaguaroMsg::ProgressTimer);
    }
    sim.inject(
        client,
        primary(d0),
        SaguaroMsg::ClientRequest(cross.clone()),
    );
    sim.run_until(SimTime::from_millis(100));
    with_saguaro(&mut sim, primary(d1), |n| {
        assert!(n.ledger().contains(TxId(1)), "decided well before the idle");
    });
    sim.run_until(idle_until);
    for node in t.nodes_of(lca).unwrap() {
        let seen = sim.with_actor(node, |a| {
            views(a.as_any().unwrap().downcast_mut::<SaguaroNode>().unwrap())
        });
        assert_eq!(seen, Some((0, 0)), "LCA replica {node:?} suspected");
    }

    let committee = t.root();
    let mut sim = baseline_sim_with(&t, false, stack);
    for node in t.nodes_of(committee).unwrap() {
        sim.inject(client, node, BaselineMsg::ProgressTimer);
    }
    sim.inject(client, primary(d0), BaselineMsg::ClientRequest(cross));
    sim.run_until(SimTime::from_millis(100));
    with_baseline(&mut sim, primary(d1), |n| {
        assert!(n.ledger().contains(TxId(1)), "decided well before the idle");
    });
    sim.run_until(idle_until);
    for node in t.nodes_of(committee).unwrap() {
        let seen = sim.with_actor(node, |a| {
            views(a.as_any().unwrap().downcast_mut::<BaselineNode>().unwrap())
        });
        assert_eq!(seen, Some((0, 0)), "committee replica {node:?} suspected");
    }
}
