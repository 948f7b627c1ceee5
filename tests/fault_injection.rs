//! Fault injection end to end: a scripted leader crash must drive a real
//! view change through the discrete-event simulator — in Paxos (crash-model)
//! and PBFT (Byzantine-model) domains alike — and the run must stay safe (no
//! committed transaction lost, duplicated, or divergently ordered across a
//! domain's replicas) and live (progress resumes after the view change and
//! after recovery).

use saguaro::net::FaultSchedule;
use saguaro::sim::{ExperimentSpec, ProtocolKind};
use saguaro::types::{LivenessConfig, SimTime};
use saguaro_sim::scenarios::fault_victim;

mod common;
use common::check_safety;

const CRASH_MS: u64 = 150;
const RECOVER_MS: u64 = 320;

fn crash_spec(protocol: ProtocolKind, byzantine: bool, recover: bool) -> ExperimentSpec {
    let mut plan = FaultSchedule::none().crash_at(SimTime::from_millis(CRASH_MS), fault_victim());
    if recover {
        plan = plan.recover_at(SimTime::from_millis(RECOVER_MS), fault_victim());
    }
    let spec = ExperimentSpec::new(protocol).quick().load(800.0);
    let spec = if byzantine { spec.byzantine() } else { spec };
    spec.fault_plan(plan)
}

#[test]
fn paxos_leader_crash_triggers_view_change_and_preserves_safety() {
    let artifacts = crash_spec(ProtocolKind::SaguaroCoordinator, false, false).run_collecting();
    assert!(
        artifacts.harvest.view_changes() > 0,
        "a crashed Paxos leader must be voted out"
    );
    assert!(
        artifacts.metrics.committed > 50,
        "progress must resume after the view change (committed {})",
        artifacts.metrics.committed
    );
    // Liveness after the crash: transactions submitted well past the crash
    // instant (leader never recovers) still commit under the new leader.
    let late = artifacts
        .completions
        .iter()
        .filter(|c| c.committed && c.submitted_at > SimTime::from_millis(CRASH_MS + 100))
        .count();
    assert!(late > 20, "only {late} commits after the crash settled");
    check_safety(&artifacts, "paxos-crash");
}

#[test]
fn pbft_leader_crash_triggers_view_change_and_preserves_safety() {
    let artifacts = crash_spec(ProtocolKind::SaguaroCoordinator, true, false).run_collecting();
    assert!(
        artifacts.harvest.view_changes() > 0,
        "a crashed PBFT primary must be voted out"
    );
    assert!(
        artifacts.metrics.committed > 50,
        "progress must resume after the PBFT view change (committed {})",
        artifacts.metrics.committed
    );
    let late = artifacts
        .completions
        .iter()
        .filter(|c| c.committed && c.submitted_at > SimTime::from_millis(CRASH_MS + 100))
        .count();
    assert!(late > 20, "only {late} commits after the crash settled");
    check_safety(&artifacts, "pbft-crash");
}

#[test]
fn recovered_leader_rejoins_without_breaking_safety() {
    let artifacts = crash_spec(ProtocolKind::SaguaroCoordinator, false, true).run_collecting();
    assert!(artifacts.harvest.view_changes() > 0);
    // Work submitted after the recovery instant commits too.
    let post_recovery = artifacts
        .completions
        .iter()
        .filter(|c| c.committed && c.submitted_at > SimTime::from_millis(RECOVER_MS + 20))
        .count();
    assert!(
        post_recovery > 20,
        "only {post_recovery} commits after recovery"
    );
    check_safety(&artifacts, "paxos-crash-recover");
}

#[test]
fn baseline_stacks_survive_a_shard_leader_crash() {
    for protocol in [ProtocolKind::Ahl, ProtocolKind::Sharper] {
        let artifacts = crash_spec(protocol, false, true).run_collecting();
        assert!(
            artifacts.harvest.view_changes() > 0,
            "{protocol:?}: shard leader crash must drive a view change"
        );
        assert!(
            artifacts.metrics.committed > 50,
            "{protocol:?}: committed {}",
            artifacts.metrics.committed
        );
        check_safety(&artifacts, protocol.label());
    }
}

#[test]
fn optimistic_stack_survives_a_leader_crash() {
    let artifacts = crash_spec(ProtocolKind::SaguaroOptimistic, false, true).run_collecting();
    assert!(artifacts.harvest.view_changes() > 0);
    assert!(artifacts.metrics.committed > 50);
    check_safety(&artifacts, "optimistic-crash-recover");
}

/// Regression for the Byzantine reply path: BFT domains must reply from
/// every replica so the client can assemble its `f + 1` matching verdicts.
/// Before this fix only the request-receiving replica replied, and Byzantine
/// runs committed exactly zero transactions end to end.
#[test]
fn byzantine_failure_free_runs_commit_transactions() {
    for protocol in ProtocolKind::ALL {
        let spec = ExperimentSpec::new(protocol)
            .byzantine()
            .quick()
            .cross_domain(0.2)
            .load(600.0);
        let metrics = spec.run();
        assert!(
            metrics.committed > 30,
            "{protocol:?} (BFT) committed only {}",
            metrics.committed
        );
    }
}

/// Byzantine equivocation driven through the engine: the PBFT primary of one
/// domain emits a conflicting (empty) pre-prepare twin for every block it
/// proposes.  Each backup keeps whichever digest reached it first and
/// ignores the conflicting one (the duplicate-pre-prepare defence), so no
/// two replicas can ever commit different values for one sequence number —
/// at worst a slot fails to gather a quorum and a view change deposes the
/// equivocator.  Safety must hold throughout and the run must keep
/// committing.
#[test]
fn equivocating_pbft_primary_cannot_fork_its_domain() {
    let plan = FaultSchedule::none().equivocate_at(SimTime::from_millis(120), fault_victim());
    let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .byzantine()
        .quick()
        .load(800.0)
        .fault_plan(plan);
    let artifacts = spec.run_collecting();
    // The defence is a *safety* property: whatever the interleaving of
    // original and twin pre-prepares, the domain's replicas never diverge.
    check_safety(&artifacts, "pbft-equivocation");
    assert!(
        artifacts.metrics.committed > 30,
        "equivocation must not wedge the deployment (committed {})",
        artifacts.metrics.committed
    );
    // Work submitted long after the equivocation started still commits:
    // either honest slots keep flowing or a view change removed the
    // equivocator — both are acceptable, silence is not.
    let late = artifacts
        .completions
        .iter()
        .filter(|c| c.committed && c.submitted_at > SimTime::from_millis(300))
        .count();
    assert!(late > 10, "only {late} commits after equivocation onset");
}

/// The same equivocation aimed at a crash-only (Paxos) domain is a no-op:
/// no message of a CFT domain has a meaningful twin, so the run is simply a
/// normal chaos run.
#[test]
fn equivocation_events_are_harmless_in_cft_domains() {
    let plan = FaultSchedule::none().equivocate_at(SimTime::from_millis(120), fault_victim());
    let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .quick()
        .load(800.0)
        .fault_plan(plan);
    let artifacts = spec.run_collecting();
    check_safety(&artifacts, "cft-equivocation");
    assert!(artifacts.metrics.committed > 50);
}

/// A partition that isolates the leader behaves like a crash: the majority
/// side elects a new leader and keeps committing; healing reunifies.
#[test]
fn leader_partition_heals_cleanly() {
    let victim = fault_victim();
    let peers: Vec<saguaro::types::NodeId> = (1..3)
        .map(|r| saguaro::types::NodeId::new(victim.domain, r))
        .collect();
    let plan = FaultSchedule::none()
        .split_at(SimTime::from_millis(CRASH_MS), [victim], peers.clone())
        .heal_split_at(SimTime::from_millis(RECOVER_MS), [victim], peers);
    let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .quick()
        .load(800.0)
        .fault_plan(plan)
        .tune(|t| t.liveness(LivenessConfig::standard()));
    let artifacts = spec.run_collecting();
    assert!(
        artifacts.harvest.view_changes() > 0,
        "an isolated leader must be voted out"
    );
    assert!(artifacts.metrics.committed > 50);
    check_safety(&artifacts, "leader-partition");
}
