//! Checkpointing & state transfer end to end: a replica that crashes and
//! misses committed entries can no longer be caught up by re-accepts once
//! the domain's checkpoint garbage-collects the slots below the floor — it
//! must fetch the missing entries from an up-to-date peer (`StateRequest` /
//! `StateReply`) and then resume normal execution.

use saguaro::net::FaultSchedule;
use saguaro::sim::{ExperimentSpec, ProtocolKind};
use saguaro::types::{DomainId, NodeId, SimTime};

mod common;
use common::check_safety;

const CRASH_MS: u64 = 150;
const RECOVER_MS: u64 = 300;

/// The scripted victim: a *backup* of the first height-1 domain, so the
/// domain keeps committing under its primary while the victim falls behind.
fn victim() -> NodeId {
    NodeId::new(DomainId::new(1, 0), 1)
}

fn healthy_peer() -> NodeId {
    NodeId::new(DomainId::new(1, 0), 2)
}

fn recovery_spec(protocol: ProtocolKind, byzantine: bool) -> ExperimentSpec {
    let plan = FaultSchedule::none()
        .crash_at(SimTime::from_millis(CRASH_MS), victim())
        .recover_at(SimTime::from_millis(RECOVER_MS), victim());
    let spec = ExperimentSpec::new(protocol)
        .quick()
        .load(1_200.0)
        .tune(|t| t.checkpoint_every(8))
        .fault_plan(plan);
    if byzantine {
        spec.byzantine()
    } else {
        spec
    }
}

#[test]
fn recovered_paxos_backup_catches_up_via_state_transfer_and_commits_new_work() {
    let artifacts = recovery_spec(ProtocolKind::SaguaroCoordinator, false).run_collecting();
    check_safety(&artifacts, "paxos-state-transfer");

    let v = artifacts.harvest.node(victim()).expect("victim harvested");
    let healthy = artifacts
        .harvest
        .node(healthy_peer())
        .expect("peer harvested");
    // The victim really missed a pile of committed entries and fetched them.
    assert!(
        v.state_transfer_commands >= 10,
        "only {} commands were transferred — the outage should cost dozens",
        v.state_transfer_commands
    );
    assert!(v.state_transfer_bytes > 0);
    let caught_up_at = v.caught_up_at.expect("victim recorded its catch-up");
    assert!(
        caught_up_at >= SimTime::from_millis(RECOVER_MS),
        "catch-up cannot complete before the replica is back"
    );
    // It converged to its peers' frontier and kept executing from there.
    assert_eq!(
        v.last_delivered, healthy.last_delivered,
        "victim frontier must reach its healthy peer's"
    );
    assert!(
        v.last_delivered > v.state_transfer_commands,
        "post-recovery entries must come through the normal pipeline too"
    );
    // The network statistics saw the transfer traffic.
    assert!(artifacts.state_transfer_messages > 0);
    assert!(artifacts.state_transfer_bytes > 0);

    // Every transaction the victim's domain committed while it was down is
    // present in the victim's own ledger (replayed through state transfer).
    let outage = SimTime::from_millis(CRASH_MS)..SimTime::from_millis(RECOVER_MS);
    let during_outage: Vec<_> = artifacts
        .completions
        .iter()
        .filter(|c| c.committed && c.client.0 % 4 == 0 && outage.contains(&c.submitted_at))
        .map(|c| c.tx_id)
        .collect();
    assert!(
        during_outage.len() >= 10,
        "the domain should have committed plenty during the outage (got {})",
        during_outage.len()
    );
    for tx in &during_outage {
        assert!(
            v.entries.iter().any(|(id, _)| id == tx),
            "tx {tx:?} committed during the outage is missing from the recovered ledger"
        );
    }
    // Liveness: work submitted well after the recovery still commits.
    let post_recovery = artifacts
        .completions
        .iter()
        .filter(|c| {
            c.committed
                && c.client.0 % 4 == 0
                && c.submitted_at > SimTime::from_millis(RECOVER_MS + 50)
        })
        .count();
    assert!(
        post_recovery > 5,
        "only {post_recovery} commits after recovery"
    );
    // And the checkpoint bounds the healthy replica's view-change votes.
    assert!(healthy.stable_checkpoint > 0, "no checkpoint stabilised");
    assert!(
        (healthy.vote_entries as u64) < healthy.last_delivered,
        "votes must be bounded by the checkpoint, not O(history)"
    );
}

#[test]
fn recovered_pbft_backup_catches_up_via_state_transfer() {
    let artifacts = recovery_spec(ProtocolKind::SaguaroCoordinator, true).run_collecting();
    check_safety(&artifacts, "pbft-state-transfer");
    let v = artifacts.harvest.node(victim()).expect("victim harvested");
    let healthy = artifacts
        .harvest
        .node(healthy_peer())
        .expect("peer harvested");
    assert!(
        v.state_transfer_commands > 0,
        "the PBFT victim must catch up through state transfer"
    );
    assert_eq!(v.last_delivered, healthy.last_delivered);
    assert!(healthy.stable_checkpoint > 0);
}

#[test]
fn baseline_shards_recover_via_state_transfer_too() {
    for protocol in [ProtocolKind::Ahl, ProtocolKind::Sharper] {
        let artifacts = recovery_spec(protocol, false).run_collecting();
        check_safety(&artifacts, protocol.label());
        let v = artifacts.harvest.node(victim()).expect("victim harvested");
        assert!(
            v.state_transfer_commands > 0,
            "{protocol:?}: shard victim never transferred state"
        );
        let healthy = artifacts
            .harvest
            .node(healthy_peer())
            .expect("peer harvested");
        assert_eq!(
            v.last_delivered, healthy.last_delivered,
            "{protocol:?}: victim frontier lags"
        );
    }
}

/// The default configuration (checkpoints every 128 deliveries, infinite
/// retention) repairs the same outage: the recovered backup fetches the
/// entries it missed by state transfer too.
#[test]
fn the_default_configuration_repairs_the_same_outage_by_state_transfer() {
    let plan = FaultSchedule::none()
        .crash_at(SimTime::from_millis(CRASH_MS), victim())
        .recover_at(SimTime::from_millis(RECOVER_MS), victim());
    let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .quick()
        .load(1_200.0)
        .fault_plan(plan);
    let artifacts = spec.run_collecting();
    check_safety(&artifacts, "default-crash-recover");
    assert!(artifacts.metrics.committed > 50);
    assert!(artifacts.state_transfer_messages > 0);
    let v = artifacts.harvest.node(victim()).expect("victim harvested");
    let healthy = artifacts
        .harvest
        .node(healthy_peer())
        .expect("peer harvested");
    assert!(
        v.state_transfer_commands > 0,
        "the victim never transferred state"
    );
    assert_eq!(v.last_delivered, healthy.last_delivered);
}
