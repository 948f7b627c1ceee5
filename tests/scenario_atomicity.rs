//! Cross-domain 2PC atomicity under whole-domain partitions: transactions
//! blocked mid-`CommitQuery` while a participant domain is severed must
//! either abort everywhere or commit everywhere once the domain heals —
//! never commit in one domain and abort in the other.  Checked for all four
//! stacks via the per-replica delivery-stream hashes (`check_safety`) plus per-domain final-verdict agreement for every
//! transaction a client saw commit.

use saguaro::ledger::TxStatus;
use saguaro::sim::scenarios::Scenario;
use saguaro::sim::{ExperimentSpec, ProtocolKind, RunArtifacts};
use saguaro::types::{Duration, SimTime, TxId};
use std::collections::{HashMap, HashSet};

mod common;
use common::check_safety;

fn outage_spec(protocol: ProtocolKind) -> ExperimentSpec {
    let spec = ExperimentSpec::new(protocol)
        .quick()
        .cross_domain(0.5)
        .load(800.0);
    Scenario::DomainOutage.apply(spec)
}

/// The heal instant of [`Scenario::DomainOutage`] under `spec`'s horizon.
fn heal_at(spec: &ExperimentSpec) -> SimTime {
    SimTime::ZERO + spec.warmup + Duration::from_micros(spec.measure.as_micros() / 2)
}

/// No transaction may be `Committed` in one domain and `Aborted` in another
/// — that is the 2PC atomicity invariant every stack promises.  On top of
/// that, the pessimistic stacks (coordinator, AHL, SHARPER) only reply
/// `commit` to the client after the decision is final, so for them a settled
/// client-observed commit must never be `Aborted` in any participant.  The
/// optimistic stack replies speculatively and is allowed to revoke (abort)
/// after the client saw an optimistic commit, so that stricter check is
/// skipped there; `SpeculativelyCommitted` is its limbo state (awaiting LCA
/// confirmation) and may coexist with either final verdict.
fn check_cross_domain_atomicity(artifacts: &RunArtifacts, spec: &ExperimentSpec, label: &str) {
    // Allow for decisions still propagating to participants at harvest time:
    // only transactions whose client reply landed this margin before the end
    // of the run are required to have settled everywhere.
    let settle_margin = Duration::from_millis(60);
    let horizon = SimTime::ZERO + spec.warmup + spec.measure;
    let settled: HashSet<TxId> = artifacts
        .completions
        .iter()
        .filter(|c| c.committed && (c.submitted_at + c.latency) + settle_margin < horizon)
        .map(|c| c.tx_id)
        .collect();
    // Final per-domain verdict: any replica's ledger entry for the tx (the
    // replicas of a domain agree — check_safety asserts that separately).
    let mut verdicts: HashMap<TxId, HashMap<saguaro::types::DomainId, TxStatus>> = HashMap::new();
    for node in &artifacts.harvest.nodes {
        for (tx, status) in &node.entries {
            verdicts
                .entry(*tx)
                .or_default()
                .insert(node.node.domain, *status);
        }
    }
    for (tx, domains) in verdicts {
        let committed_somewhere = domains.values().any(|s| *s == TxStatus::Committed);
        let aborted_somewhere = domains.values().any(|s| *s == TxStatus::Aborted);
        assert!(
            !(committed_somewhere && aborted_somewhere),
            "{label}: tx {tx:?} committed in one domain and aborted in another: {domains:?}"
        );
        if spec.protocol != ProtocolKind::SaguaroOptimistic && settled.contains(&tx) {
            assert!(
                !aborted_somewhere,
                "{label}: client-committed tx {tx:?} aborted in a participant: {domains:?}"
            );
        }
    }
}

fn assert_outage_run_atomic(protocol: ProtocolKind) {
    let spec = outage_spec(protocol);
    let artifacts = spec.run_collecting();
    let label = format!("{protocol:?}");
    check_safety(&artifacts, &label);
    check_cross_domain_atomicity(&artifacts, &spec, &label);
    // Post-heal liveness: the severed domain serves its clients again (the
    // outage domain is (1, 1); clients are assigned round-robin over the
    // four edge domains).
    let heal = heal_at(&spec);
    let healed_commits = artifacts
        .completions
        .iter()
        .filter(|c| c.committed && c.client.0 % 4 == 1 && c.submitted_at >= heal)
        .count();
    assert!(
        healed_commits > 0,
        "{label}: no commits from the severed domain's clients after the heal"
    );
}

#[test]
fn coordinator_outage_is_atomic_sequential() {
    assert_outage_run_atomic(ProtocolKind::SaguaroCoordinator);
}

#[test]
fn optimistic_outage_is_atomic_sequential() {
    assert_outage_run_atomic(ProtocolKind::SaguaroOptimistic);
}

#[test]
fn ahl_outage_is_atomic_sequential() {
    assert_outage_run_atomic(ProtocolKind::Ahl);
}

#[test]
fn sharper_outage_is_atomic_sequential() {
    assert_outage_run_atomic(ProtocolKind::Sharper);
}

#[test]
fn correlated_outage_stays_safe() {
    let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .quick()
        .cross_domain(0.5)
        .load(800.0);
    let spec = Scenario::CorrelatedOutage.apply(spec);
    let artifacts = spec.run_collecting();
    check_safety(&artifacts, "correlated");
    check_cross_domain_atomicity(&artifacts, &spec, "correlated");
}
