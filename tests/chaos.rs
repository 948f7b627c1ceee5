//! Chaos suite: randomly sampled fault plans within the deployment's
//! tolerance bounds (at most `f` crashed replicas per domain, partitions
//! that leave a quorum connected, bounded delay spikes) must never lose,
//! duplicate, or divergently order a committed transaction — whatever the
//! protocol stack.
//!
//! The sampled plans rotate in CI: the vendored proptest stand-in mixes the
//! `PROPTEST_RNG_SEED` environment variable (date-derived in the nightly
//! job) into each test's RNG, and `PROPTEST_CASES` scales the case count, so
//! fault coverage grows over time instead of re-running one seed forever.

use proptest::prelude::*;
use saguaro::net::FaultSchedule;
use saguaro::sim::{ExperimentSpec, ProtocolKind};
use saguaro::types::{DomainId, Duration, NodeId, SimTime};

mod common;
use common::check_safety;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// One random replica of one random height-1 domain crashes at a random
    /// instant (within the `f = 1` tolerance of every domain) and may
    /// recover later; a second domain may suffer a bounded delay spike.
    /// Whatever the stack, the run must stay safe — and committed work must
    /// exist (the other domains never stop).
    #[test]
    fn random_crash_plans_never_lose_or_duplicate_commits(
        (stack, domain, victim, crash_ms, outage_ms, recovers, spike) in (
            0u8..4,         // protocol stack index
            0u8..4,         // height-1 domain index
            0u8..3,         // replica index within the domain (CFT: n = 3)
            120u64..260,    // crash instant (ms)
            50u64..200,     // outage length (ms)
            any::<bool>(),  // whether the replica recovers
            any::<bool>(),  // whether a delay spike hits as well
        ),
    ) {
        let protocol = ProtocolKind::ALL[stack as usize];
        let node = NodeId::new(DomainId::new(1, domain as u16), victim as u16);
        let crash_at = SimTime::from_millis(crash_ms);
        let mut plan = FaultSchedule::none().crash_at(crash_at, node);
        if recovers {
            plan = plan.recover_at(SimTime::from_millis(crash_ms + outage_ms), node);
        }
        if spike {
            let spiked = SimTime::from_millis(crash_ms / 2);
            plan = plan
                .delay_spike_at(spiked, Duration::from_millis(2))
                .delay_spike_at(SimTime::from_millis(crash_ms), Duration::ZERO);
        }
        let spec = ExperimentSpec::new(protocol)
            .quick()
            .cross_domain(0.2)
            .load(700.0)
            .fault_plan(plan);
        let artifacts = spec.run_collecting();
        check_safety(&artifacts, protocol.label());
        prop_assert!(
            artifacts.metrics.committed > 0,
            "{protocol:?}: nothing committed under {crash_ms}ms crash of {node:?}"
        );
    }

    /// Byzantine domains (PBFT, n = 4, f = 1) under the same random crash
    /// plans: safety and progress hold there too.
    #[test]
    fn random_bft_crash_plans_stay_safe(
        (domain, victim, crash_ms, outage_ms, recovers) in (
            0u8..4, 0u8..4, 120u64..260, 50u64..200, any::<bool>(),
        ),
    ) {
        let node = NodeId::new(DomainId::new(1, domain as u16), victim as u16);
        let mut plan = FaultSchedule::none().crash_at(SimTime::from_millis(crash_ms), node);
        if recovers {
            plan = plan.recover_at(SimTime::from_millis(crash_ms + outage_ms), node);
        }
        let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .byzantine()
            .quick()
            .load(700.0)
            .fault_plan(plan);
        let artifacts = spec.run_collecting();
        check_safety(&artifacts, "bft-chaos");
        prop_assert!(artifacts.metrics.committed > 0);
    }

    /// Checkpointing + garbage collection + random crash/recover plans:
    /// bounding the consensus logs must never lose or duplicate a committed
    /// transaction, whatever the stack, interval or outage.  When the
    /// victim recovers, state transfer must reconverge it with its domain.
    #[test]
    fn checkpointed_crash_recover_plans_never_lose_or_duplicate_commits(
        (stack, domain, victim, crash_ms, outage_ms, interval_idx) in (
            0u8..4,         // protocol stack index
            0u8..4,         // height-1 domain index
            0u8..3,         // replica index within the domain (CFT: n = 3)
            120u64..260,    // crash instant (ms)
            50u64..200,     // outage length (ms)
            0u8..3,         // checkpoint interval choice
        ),
    ) {
        let protocol = ProtocolKind::ALL[stack as usize];
        let interval = [4u64, 8, 16][interval_idx as usize];
        let node = NodeId::new(DomainId::new(1, domain as u16), victim as u16);
        let plan = FaultSchedule::none()
            .crash_at(SimTime::from_millis(crash_ms), node)
            .recover_at(SimTime::from_millis(crash_ms + outage_ms), node);
        let spec = ExperimentSpec::new(protocol)
            .quick()
            .cross_domain(0.2)
            .load(700.0)
            .tune(move |t| t.checkpoint_every(interval))
            .fault_plan(plan);
        let artifacts = spec.run_collecting();
        check_safety(&artifacts, protocol.label());
        prop_assert!(
            artifacts.metrics.committed > 0,
            "{protocol:?}: nothing committed under checkpointed crash of {node:?}"
        );
        // The recovered replica reconverges with its domain: its frontier
        // matches the most advanced replica of the domain by run end.
        let replicas = artifacts.harvest.replicas_of(node.domain);
        let frontier = replicas.iter().map(|n| n.last_delivered).max().unwrap_or(0);
        let victim_harvest = artifacts.harvest.node(node).expect("victim harvested");
        prop_assert!(
            victim_harvest.last_delivered + 5 >= frontier,
            "{protocol:?}: recovered {node:?} stuck at {} while the domain reached {frontier}",
            victim_harvest.last_delivered
        );
    }

    /// Random crash/recover plans composed with *small* retention windows:
    /// checkpoint-driven log pruning under fire must keep every domain's
    /// retained delivery streams prefix-compatible, keep every consensus
    /// chain inside the retention window, and still reconverge the
    /// recovered victim — by snapshot catch-up when its frontier has been
    /// pruned out of every peer's tail.
    #[test]
    fn pruned_crash_recover_plans_stay_safe_and_bounded(
        (stack, domain, victim, crash_ms, outage_ms, retention_idx) in (
            0u8..4,         // protocol stack index
            0u8..4,         // height-1 domain index
            0u8..3,         // replica index within the domain (CFT: n = 3)
            120u64..260,    // crash instant (ms)
            50u64..200,     // outage length (ms)
            0u8..3,         // retention window choice
        ),
    ) {
        let protocol = ProtocolKind::ALL[stack as usize];
        let interval = 4u64;
        let retention = [8u64, 16, 32][retention_idx as usize];
        let node = NodeId::new(DomainId::new(1, domain as u16), victim as u16);
        let plan = FaultSchedule::none()
            .crash_at(SimTime::from_millis(crash_ms), node)
            .recover_at(SimTime::from_millis(crash_ms + outage_ms), node);
        let spec = ExperimentSpec::new(protocol)
            .quick()
            .cross_domain(0.2)
            .load(700.0)
            .tune(move |t| t.checkpoint_every(interval).retained(retention))
            .fault_plan(plan);
        let artifacts = spec.run_collecting();
        check_safety(&artifacts, protocol.label());
        prop_assert!(
            artifacts.metrics.committed > 0,
            "{protocol:?}: nothing committed under pruned crash of {node:?}"
        );
        // Pruning keeps every consensus chain inside the retention window:
        // at most `retention` retained below the stable checkpoint, plus the
        // unstable tail that accrues between checkpoints and slack for the
        // victim's own catch-up backlog.
        let ceiling = retention + 4 * interval + 64;
        for n in &artifacts.harvest.nodes {
            prop_assert!(
                n.chain_len <= ceiling,
                "{protocol:?}: {:?} retains {} chain entries under a \
                 retention window of {retention} (ceiling {ceiling})",
                n.node,
                n.chain_len
            );
        }
        // The recovered replica reconverges despite peers having pruned the
        // log entries it missed: the snapshot path covers the gap.
        let replicas = artifacts.harvest.replicas_of(node.domain);
        let frontier = replicas.iter().map(|n| n.last_delivered).max().unwrap_or(0);
        let victim_harvest = artifacts.harvest.node(node).expect("victim harvested");
        prop_assert!(
            victim_harvest.last_delivered + 5 >= frontier,
            "{protocol:?}: recovered {node:?} stuck at {} while the domain \
             reached {frontier} (retention {retention})",
            victim_harvest.last_delivered
        );
    }

    /// Random intra-domain partitions that isolate a single replica (the
    /// quorum side keeps at least 2 of 3) and then heal: safe and live.
    #[test]
    fn random_partition_plans_stay_safe(
        (domain, isolated, cut_ms, heal_after_ms) in (
            0u8..4, 0u8..3, 120u64..260, 60u64..200,
        ),
    ) {
        let d = DomainId::new(1, domain as u16);
        let lonely = NodeId::new(d, isolated as u16);
        let peers: Vec<NodeId> = (0..3u16)
            .filter(|r| *r != isolated as u16)
            .map(|r| NodeId::new(d, r))
            .collect();
        let cut = SimTime::from_millis(cut_ms);
        let heal = SimTime::from_millis(cut_ms + heal_after_ms);
        let plan = FaultSchedule::none()
            .split_at(cut, [lonely], peers.clone())
            .heal_split_at(heal, [lonely], peers);
        let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .quick()
            .cross_domain(0.2)
            .load(700.0)
            .fault_plan(plan);
        let artifacts = spec.run_collecting();
        check_safety(&artifacts, "partition-chaos");
        prop_assert!(artifacts.metrics.committed > 0);
    }
}
