//! Chaos lane for the composite scenario matrix: randomly sampled
//! compositions of production-shaped scenarios (whole-domain outages,
//! correlated outages, scoped WAN spikes, view-change storms, flash crowds)
//! with extra bounded faults layered on top — a crash in an uninvolved
//! domain, a transient network-wide delay spike — under either suspicion
//! floor.  Every composition stays within the
//! deployment's tolerance (at most `f` faulty replicas per surviving
//! domain), so safety must hold and commits must keep flowing.
//!
//! Like `chaos.rs`, the sampled compositions rotate in CI via
//! `PROPTEST_RNG_SEED`, so coverage grows over time.

use proptest::prelude::*;
use saguaro::sim::scenarios::{Scenario, LOW_SUSPICION_FLOOR};
use saguaro::sim::{ExperimentSpec, ProtocolKind};
use saguaro::types::{DomainId, Duration, LivenessConfig, NodeId, SimTime};

/// The suspicion timers a coin picks: the low floor or the default one.
fn liveness(low_floor: bool) -> LivenessConfig {
    if low_floor {
        LivenessConfig::with_timeout(LOW_SUSPICION_FLOOR)
    } else {
        LivenessConfig::standard()
    }
}

mod common;
use common::check_safety;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A random scenario, a random stack, a random suspicion floor, and a
    /// random garnish of extra in-tolerance faults: never unsafe, never
    /// fully stalled.
    #[test]
    fn random_scenario_compositions_stay_safe(
        (scenario_idx, stack, low_floor, extra_crash, extra_spike) in (
            0u8..5,         // composite scenario index
            0u8..4,         // protocol stack index
            any::<bool>(),  // 30 ms vs 60 ms suspicion floor
            any::<bool>(),  // layer a crash in an uninvolved domain
            any::<bool>(),  // layer a transient network-wide delay spike
        ),
    ) {
        let scenario = Scenario::all()[scenario_idx as usize];
        let protocol = ProtocolKind::ALL[stack as usize];
        let liveness = liveness(low_floor);

        let spec = ExperimentSpec::new(protocol)
            .byzantine()
            .quick()
            .cross_domain(0.3)
            .load(800.0)
            .tune(|t| t.liveness(liveness));
        // Install the scenario (fault plan plus, for the flash crowd, its
        // shaped population), then layer the extra faults on a recompiled
        // plan — `Scenario::schedule` only reads the horizon fields, which
        // the garnish does not change.
        let spec = scenario.apply(spec);
        let mut plan = scenario.schedule(&spec);
        if extra_crash {
            // Domain (1, 3) is uninvolved in every scenario; one crashed
            // replica stays within its f = 1 tolerance.
            let bystander = NodeId::new(DomainId::new(1, 3), 2);
            plan = plan
                .crash_at(SimTime::from_millis(140), bystander)
                .recover_at(SimTime::from_millis(260), bystander);
        }
        if extra_spike {
            plan = plan
                .delay_spike_at(SimTime::from_millis(120), Duration::from_millis(2))
                .delay_spike_at(SimTime::from_millis(220), Duration::ZERO);
        }
        let spec = spec.fault_plan(plan);

        let artifacts = spec.run_collecting();
        let floor_ms = liveness.progress_timeout.as_micros() / 1_000;
        let label = format!("{}+{}+{floor_ms}ms", scenario.label(), protocol.label());
        check_safety(&artifacts, &label);
        prop_assert!(
            artifacts.metrics.committed > 0,
            "{label}: nothing committed under the composed scenario"
        );
    }

    /// Two scenarios at once: a whole-domain outage composed with the scoped
    /// WAN delay spike of `WanSpike`, under a random stack and floor.  The
    /// healthy domains keep committing through both.
    #[test]
    fn outage_composed_with_wan_spike_stays_safe(
        (stack, low_floor, correlated) in (
            0u8..4, any::<bool>(), any::<bool>(),
        ),
    ) {
        let protocol = ProtocolKind::ALL[stack as usize];
        let outage = if correlated { Scenario::CorrelatedOutage } else { Scenario::DomainOutage };

        let spec = ExperimentSpec::new(protocol)
            .byzantine()
            .quick()
            .cross_domain(0.3)
            .load(800.0)
            .tune(|t| t.liveness(liveness(low_floor)));
        // Compose by chaining WanSpike's primitives onto the outage plan.
        let plan = outage
            .schedule(&spec)
            .domain_spike_at(
                SimTime::from_millis(130),
                [DomainId::new(2, 0)],
                Duration::from_millis(20),
            )
            .domain_spike_at(SimTime::from_millis(230), [DomainId::new(2, 0)], Duration::ZERO);
        let spec = spec.fault_plan(plan);

        let artifacts = spec.run_collecting();
        let label = format!("{}+wan-spike+{}", outage.label(), protocol.label());
        check_safety(&artifacts, &label);
        prop_assert!(
            artifacts.metrics.committed > 0,
            "{label}: nothing committed under outage + WAN spike"
        );
    }
}
