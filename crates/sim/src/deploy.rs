//! Deployment of protocol stacks onto the simulator.
//!
//! These helpers are the building blocks the [`crate::protocol::ProtocolStack`]
//! implementations call from their `deploy` methods; a new stack can reuse
//! [`build_tree`] / [`latency_for`] and register its own actors.

use crate::protocol::{NodeHarvest, RunHarvest, SeedList};
use saguaro_baselines::{BaselineMsg, BaselineNode, BaselineRole};
use saguaro_core::{HostedReplica, ProtocolConfig, SaguaroMsg, SaguaroNode};
use saguaro_hierarchy::{HierarchyTree, Placement, TopologyBuilder};
use saguaro_ledger::{BlockchainState, LinearLedger, TxStatus};
use saguaro_net::{Addr, CpuProfile, LatencyMatrix, MessageMeta, Simulation};
use saguaro_types::transaction::account_universe;
use saguaro_types::{ClientId, DomainId, FailureModel, Result, SimTime, StackConfig};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds the paper's 4-level perfect binary tree with the given failure
/// model, per-domain fault tolerance and region placement.
pub fn build_tree(
    model: FailureModel,
    faults: usize,
    placement: Placement,
) -> Result<Arc<HierarchyTree>> {
    Ok(Arc::new(
        TopologyBuilder::paper_binary_tree()
            .failure_model(model)
            .faults(faults)
            .placement(placement)
            .build()?,
    ))
}

/// Builds a k-ary tree of the given shape (`levels` levels above the edge
/// devices, `fanout` children per domain) — the paper's binary tree is
/// `(3, 2)`; population-scale sweeps use flat wide shapes like `(2, 128)`
/// for hundreds of height-1 domains.
pub fn build_tree_shaped(
    levels: u8,
    fanout: usize,
    model: FailureModel,
    faults: usize,
    placement: Placement,
) -> Result<Arc<HierarchyTree>> {
    Ok(Arc::new(
        TopologyBuilder::new(levels, fanout)
            .failure_model(model)
            .faults(faults)
            .placement(placement)
            .build()?,
    ))
}

/// The latency matrix corresponding to a placement.
pub fn latency_for(placement: Placement) -> LatencyMatrix {
    match placement {
        Placement::SingleRegion => LatencyMatrix::single_region(),
        Placement::NearbyRegions => LatencyMatrix::nearby_regions(),
        Placement::WideArea => LatencyMatrix::wide_area_regions(),
    }
}

/// Address used by the harness when injecting kick-off messages.
pub fn harness_addr() -> Addr {
    Addr::Client(ClientId(u64::MAX))
}

/// The initial state of every height-1 domain the stream names, built once
/// per domain; the deployments hand each replica a share of it.  A named
/// domain opens with its account universe, then takes its listed pairs in
/// order, so a repeated key keeps its last balance.  The lists are taken one
/// at a time and each is dropped before the next is pulled.
///
/// # Panics
///
/// If an entry names a domain that is not a height-1 domain of `tree`: no
/// replica would ever hold those balances, and every transfer of the run
/// would fail for want of funds.
fn seeded_states(
    tree: &HierarchyTree,
    seed_accounts: impl IntoIterator<Item = impl Borrow<SeedList>>,
) -> BTreeMap<DomainId, BlockchainState> {
    let edge_domains = tree.edge_server_domains();
    let mut states = BTreeMap::new();
    for entry in seed_accounts {
        let (domain, accounts) = entry.borrow();
        assert!(
            edge_domains.contains(domain),
            "seed accounts given for {domain:?}, which is not an edge-server (height-1) domain \
             of this tree; its edge-server domains are {edge_domains:?}"
        );
        let state = states
            .entry(*domain)
            .or_insert_with(|| BlockchainState::adopt(account_universe(*domain)));
        for (key, balance) in accounts {
            state.put(key, *balance);
        }
    }
    states
}

/// Registers a full Saguaro deployment (every replica of every height ≥ 1
/// domain) and starts its round timers.  `seed_accounts` names the height-1
/// domains that open with their account universe, each with the pairs its
/// replicas hold on top of it; a domain it does not name opens empty.
pub fn deploy_saguaro(
    sim: &mut Simulation<SaguaroMsg>,
    tree: &Arc<HierarchyTree>,
    config: &ProtocolConfig,
    seed_accounts: impl IntoIterator<Item = impl Borrow<SeedList>>,
) {
    let seeded = seeded_states(tree, seed_accounts);
    for domain_cfg in tree.domains() {
        let domain = domain_cfg.id;
        if domain.height == 0 {
            continue;
        }
        let region = domain_cfg.region;
        for node in tree.nodes_of(domain).expect("domain nodes") {
            let mut actor = SaguaroNode::new(node, tree.clone(), config.clone());
            if let Some(state) = seeded.get(&domain) {
                actor.seed_state(state);
            }
            sim.register(node, region, CpuProfile::server(), Box::new(actor));
        }
    }
    // Start the per-domain round timers (lazy propagation).
    for domain_cfg in tree.domains() {
        if domain_cfg.id.height == 0 {
            continue;
        }
        for node in tree.nodes_of(domain_cfg.id).expect("domain nodes") {
            sim.inject(harness_addr(), node, SaguaroMsg::RoundTimer);
        }
    }
}

/// Registers an AHL or SharPer deployment over the height-1 domains of the
/// same tree, configuring each shard's internal consensus per `stack`.  For
/// AHL the tree's root domain doubles as the reference committee.  Returns
/// the committee domain used.
pub fn deploy_baseline(
    sim: &mut Simulation<BaselineMsg>,
    tree: &Arc<HierarchyTree>,
    sharper: bool,
    seed_accounts: impl IntoIterator<Item = impl Borrow<SeedList>>,
    stack: &StackConfig,
) -> DomainId {
    let committee = tree.root();
    let seeded = seeded_states(tree, seed_accounts);
    let mut registered = Vec::new();
    for domain_cfg in tree.domains() {
        let domain = domain_cfg.id;
        let role = if domain.height == 1 {
            if sharper {
                BaselineRole::SharperShard
            } else {
                BaselineRole::AhlShard
            }
        } else if domain == committee && !sharper {
            BaselineRole::AhlCommittee
        } else {
            continue;
        };
        let region = domain_cfg.region;
        for node in tree.nodes_of(domain).expect("domain nodes") {
            let mut actor = BaselineNode::new(node, role, tree.clone(), committee, *stack);
            if let Some(state) = seeded.get(&domain) {
                actor.seed_state(state);
            }
            sim.register(node, region, CpuProfile::server(), Box::new(actor));
            registered.push(node);
        }
    }
    // Arm the per-replica progress timers.  Only fault-injection runs enable
    // liveness, so failure-free deployments schedule no extra events and
    // stay bit-identical to the historical pipeline.
    if stack.liveness.enabled {
        for node in registered {
            sim.inject_at(
                SimTime::ZERO,
                harness_addr(),
                node,
                BaselineMsg::ProgressTimer,
            );
        }
    }
    committee
}

/// Shared harvest loop: walks every replica of every height ≥ 1 domain,
/// downcasts the registered actor to the stack's node type `A` (domains the
/// stack registered none for are skipped) and reads one [`NodeHarvest`] off
/// its replica host and its ledger.
fn harvest_with<A>(
    sim: &mut Simulation<A::Msg>,
    tree: &Arc<HierarchyTree>,
    ledger: impl Fn(&A) -> &LinearLedger,
) -> RunHarvest
where
    A: HostedReplica + 'static,
    A::Msg: MessageMeta + Clone + 'static,
{
    let mut nodes = Vec::new();
    for domain_cfg in tree.domains().filter(|d| d.id.height > 0) {
        for node in tree.nodes_of(domain_cfg.id).expect("domain nodes") {
            let harvested = sim.with_actor(node, |actor| {
                let replica = actor.as_any()?.downcast_mut::<A>()?;
                let ledger = ledger(replica);
                let entries = ledger_entries(ledger);
                let total_entries = ledger.len() as u64 + ledger.pruned_entries();
                let host = replica.host_mut();
                let (trace, trace_dropped) = host.take_trace();
                let (consensus, stats) = (host.consensus(), host.stats());
                Some(NodeHarvest {
                    node,
                    trace,
                    trace_dropped,
                    entries,
                    total_entries,
                    consensus_log: stats.consensus_log.clone(),
                    view_changes: stats.view_changes,
                    last_delivered: consensus.last_delivered(),
                    stable_checkpoint: consensus.stable_checkpoint(),
                    vote_entries: consensus.vote_entries(),
                    certificate_conflicts: consensus.certificate_conflicts(),
                    state_transfer_commands: stats.state_transfer_commands,
                    state_transfer_bytes: stats.state_transfer_bytes,
                    caught_up_at: stats.caught_up_at,
                    chain_len: consensus.chain_len(),
                    chain_start: consensus.chain_start(),
                    snapshots_taken: stats.snapshots_taken,
                    snapshots_installed: stats.snapshots_installed,
                })
            });
            nodes.extend(harvested.flatten());
        }
    }
    RunHarvest { nodes }
}

/// Extracts post-run evidence from every replica of a Saguaro deployment;
/// above height 1 the ledger read is the DAG's chain of first reports.
pub fn harvest_saguaro(sim: &mut Simulation<SaguaroMsg>, tree: &Arc<HierarchyTree>) -> RunHarvest {
    harvest_with(sim, tree, SaguaroNode::ledger)
}

/// Extracts post-run evidence from every replica of a baseline deployment.
pub fn harvest_baseline(
    sim: &mut Simulation<BaselineMsg>,
    tree: &Arc<HierarchyTree>,
) -> RunHarvest {
    harvest_with(sim, tree, BaselineNode::ledger)
}

/// Ledger entries as `(tx id, final status)` pairs in append order, bounded
/// to the most recent [`saguaro_types::DeliveryLog::CAPACITY`] entries (older
/// ones may already have been pruned under finite checkpoint retention; the
/// bound keeps harvests from growing with run length either way).
fn ledger_entries(ledger: &LinearLedger) -> Vec<(saguaro_types::TxId, TxStatus)> {
    let entries = ledger.entries();
    let skip = entries
        .len()
        .saturating_sub(saguaro_types::DeliveryLog::CAPACITY);
    entries[skip..]
        .iter()
        .map(|e| (e.tx.id, e.status))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_net::Simulation;
    use saguaro_types::transaction::{account_key, ACCOUNTS_PER_DOMAIN};
    use std::cell::Cell;

    #[test]
    fn tree_and_latency_builders_cover_all_placements() {
        for placement in [
            Placement::SingleRegion,
            Placement::NearbyRegions,
            Placement::WideArea,
        ] {
            let tree = build_tree(FailureModel::Crash, 1, placement).unwrap();
            assert_eq!(tree.edge_server_domains().len(), 4);
            let lat = latency_for(placement);
            assert!(lat.region_count() >= 1);
        }
    }

    #[test]
    fn saguaro_deployment_registers_every_replica() {
        let tree = build_tree(FailureModel::Crash, 1, Placement::NearbyRegions).unwrap();
        let mut sim: Simulation<SaguaroMsg> =
            Simulation::new(latency_for(Placement::NearbyRegions), 1);
        deploy_saguaro(&mut sim, &tree, &ProtocolConfig::coordinator(), &[]);
        // 7 domains x 3 replicas (f = 1, CFT).
        assert_eq!(sim.actor_count(), 21);
        // Round-timer kick-offs are queued.
        assert_eq!(sim.pending_events(), 21);
    }

    /// Seed lists for two edge domains, the first given in two entries that
    /// both name `a0_1`, and one key past the universe.
    fn seeds() -> Vec<(DomainId, Vec<(String, u64)>)> {
        let account = |key: &str, balance| (key.to_string(), balance);
        vec![
            (
                DomainId::new(1, 0),
                vec![account("a0_2", 20), account("a0_1", 10)],
            ),
            (DomainId::new(1, 3), vec![account("a3_10000", 30)]),
            (DomainId::new(1, 0), vec![account("a0_1", 11)]),
        ]
    }

    /// What every replica of `domain` holds, having checked they all agree.
    fn state_of<A: HostedReplica + 'static>(
        sim: &mut Simulation<A::Msg>,
        tree: &HierarchyTree,
        domain: DomainId,
        state: impl Fn(&A) -> &BlockchainState,
    ) -> BlockchainState {
        let nodes = tree.nodes_of(domain).unwrap();
        let mut held = nodes.into_iter().map(|node| {
            sim.with_actor(node, |actor| {
                state(actor.as_any().unwrap().downcast_mut::<A>().unwrap()).clone()
            })
            .expect("registered")
        });
        let first = held.next().expect("a domain has replicas");
        assert!(held.all(|other| other == first));
        first
    }

    #[test]
    fn both_deployments_seed_every_replica_and_a_repeated_key_keeps_its_last_balance() {
        let tree = build_tree(FailureModel::Crash, 1, Placement::NearbyRegions).unwrap();
        let latency = || latency_for(Placement::NearbyRegions);
        let domains = tree.edge_server_domains();
        // A named domain opens with its universe, then takes its pairs in
        // order; an unnamed one opens empty.
        let opened = |domain: DomainId, pairs: &[(&str, u64)]| {
            let mut state = BlockchainState::adopt(account_universe(domain));
            pairs
                .iter()
                .for_each(|(key, balance)| state.put(key, *balance));
            state
        };
        let expected = [
            opened(domains[0], &[("a0_1", 11), ("a0_2", 20)]),
            BlockchainState::new(),
            BlockchainState::new(),
            opened(domains[3], &[("a3_10000", 30)]),
        ];
        assert_eq!(expected[0].len(), ACCOUNTS_PER_DOMAIN as usize);
        assert_eq!(expected[3].len(), ACCOUNTS_PER_DOMAIN as usize + 1);
        assert_eq!(expected[0].get("a0_1"), Some(11), "the last balance wins");

        let mut sim: Simulation<SaguaroMsg> = Simulation::new(latency(), 1);
        deploy_saguaro(&mut sim, &tree, &ProtocolConfig::coordinator(), seeds());
        for (domain, want) in domains.iter().zip(&expected) {
            let got = state_of(&mut sim, &tree, *domain, SaguaroNode::blockchain_state);
            assert_eq!(&got, want, "{domain:?}");
        }

        let mut sim: Simulation<BaselineMsg> = Simulation::new(latency(), 1);
        deploy_baseline(&mut sim, &tree, true, seeds(), &StackConfig::default());
        for (domain, want) in domains.iter().zip(&expected) {
            let got = state_of(&mut sim, &tree, *domain, BaselineNode::blockchain_state);
            assert_eq!(&got, want, "{domain:?}");
        }
    }

    /// A one-shot iterator that makes each list as deploy pulls it seeds
    /// every replica of both deployments as the same lists in a slice do.
    #[test]
    fn a_stream_of_lists_seeds_every_replica_as_the_slice_does() {
        let tree = build_tree(FailureModel::Crash, 1, Placement::NearbyRegions).unwrap();
        let latency = || latency_for(Placement::NearbyRegions);
        let domains = tree.edge_server_domains();
        let past_universe = |d: DomainId| vec![(account_key(d.index, ACCOUNTS_PER_DOMAIN), 7)];
        let stream = || domains.iter().map(|d| (*d, past_universe(*d)));
        let lists: Vec<SeedList> = stream().collect();
        let config = ProtocolConfig::coordinator();

        let (mut sliced, mut streamed): (Simulation<SaguaroMsg>, Simulation<SaguaroMsg>) =
            (Simulation::new(latency(), 1), Simulation::new(latency(), 1));
        deploy_saguaro(&mut sliced, &tree, &config, &lists);
        deploy_saguaro(&mut streamed, &tree, &config, stream());
        for domain in &domains {
            let want = state_of(&mut sliced, &tree, *domain, SaguaroNode::blockchain_state);
            assert_eq!(want.len(), ACCOUNTS_PER_DOMAIN as usize + 1, "{domain:?}");
            let got = state_of(&mut streamed, &tree, *domain, SaguaroNode::blockchain_state);
            assert_eq!(got, want, "{domain:?}");
        }

        let (mut sliced, mut streamed): (Simulation<BaselineMsg>, Simulation<BaselineMsg>) =
            (Simulation::new(latency(), 1), Simulation::new(latency(), 1));
        let stack = StackConfig::default();
        deploy_baseline(&mut sliced, &tree, false, &lists, &stack);
        deploy_baseline(&mut streamed, &tree, false, stream(), &stack);
        for domain in &domains {
            let want = state_of(&mut sliced, &tree, *domain, BaselineNode::blockchain_state);
            let got = state_of(
                &mut streamed,
                &tree,
                *domain,
                BaselineNode::blockchain_state,
            );
            assert_eq!(got, want, "{domain:?}");
        }
    }

    /// A seed list that keeps `alive` at 1 while it exists.
    struct Counted<'a>(SeedList, &'a Cell<usize>);

    impl Borrow<SeedList> for Counted<'_> {
        fn borrow(&self) -> &SeedList {
            &self.0
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.1.set(self.1.get() - 1);
        }
    }

    /// Deploy holds at most one list: each is dropped before the next is
    /// pulled, and the last before deploy returns.
    #[test]
    fn deploy_drops_each_list_before_pulling_the_next() {
        let tree = build_tree(FailureModel::Crash, 1, Placement::NearbyRegions).unwrap();
        let mut sim: Simulation<SaguaroMsg> =
            Simulation::new(latency_for(Placement::NearbyRegions), 1);
        let alive = Cell::new(0);
        let stream = tree.edge_server_domains().into_iter().map(|d| {
            assert_eq!(alive.get(), 0, "{d:?} pulled while a list was still held");
            alive.set(1);
            Counted((d, vec![(account_key(d.index, 1), 1)]), &alive)
        });
        deploy_saguaro(&mut sim, &tree, &ProtocolConfig::coordinator(), stream);
        assert_eq!(alive.get(), 0);
    }

    /// A seed list for a domain no replica will ever serve used to be dropped
    /// without a word, leaving a run in which every transfer lacks funds.
    #[test]
    #[should_panic(
        expected = "seed accounts given for D14, which is not an edge-server (height-1) domain \
                    of this tree; its edge-server domains are [D10, D11, D12, D13]"
    )]
    fn seeds_for_a_domain_the_tree_does_not_have_are_refused() {
        let tree = build_tree(FailureModel::Crash, 1, Placement::NearbyRegions).unwrap();
        let mut sim: Simulation<SaguaroMsg> =
            Simulation::new(latency_for(Placement::NearbyRegions), 1);
        let mut seeds = seeds();
        seeds.push((DomainId::new(1, 4), vec![("a4_1".to_string(), 1)]));
        deploy_saguaro(&mut sim, &tree, &ProtocolConfig::coordinator(), &seeds);
    }

    #[test]
    fn ahl_deployment_includes_the_committee() {
        let tree = build_tree(FailureModel::Byzantine, 1, Placement::NearbyRegions).unwrap();
        let mut sim: Simulation<BaselineMsg> =
            Simulation::new(latency_for(Placement::NearbyRegions), 1);
        let committee = deploy_baseline(&mut sim, &tree, false, &[], &StackConfig::default());
        assert_eq!(committee, tree.root());
        // 4 shards + 1 committee, 4 replicas each (BFT f = 1).
        assert_eq!(sim.actor_count(), 20);
    }

    #[test]
    fn sharper_deployment_has_no_committee() {
        let tree = build_tree(FailureModel::Crash, 1, Placement::NearbyRegions).unwrap();
        let mut sim: Simulation<BaselineMsg> =
            Simulation::new(latency_for(Placement::NearbyRegions), 1);
        deploy_baseline(&mut sim, &tree, true, &[], &StackConfig::default());
        // Only the 4 height-1 shards, 3 replicas each.
        assert_eq!(sim.actor_count(), 12);
    }
}
