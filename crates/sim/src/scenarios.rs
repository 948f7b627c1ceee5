//! Production-shaped adversarial scenarios, the low suspicion floor they
//! are also run under, and the safety invariants every run must uphold.
//!
//! A [`Scenario`] is a first-class *composite* fault story compiled down to
//! the primitive [`FaultSchedule`] events the network interpreters
//! understand: whole-domain partitions ([`Scenario::DomainOutage`]),
//! correlated multi-domain outages, scoped WAN delay spikes, a primary crash
//! with an equivocating co-conspirator tampering view-change certificates,
//! and a flash crowd arriving exactly while a domain is dark.  Timings are
//! derived from the spec's own `warmup`/`measure` horizon so the same
//! scenario scales from quick CI runs to full experiments.
//!
//! The `figures` driver's `scenarios` row runs every scenario against all
//! four stacks under the default suspicion floor and [`LOW_SUSPICION_FLOOR`]
//! and gates on [`safety_violations`] — the invariants the fault-injection
//! suites assert too; its `timeout_sweep` row measures recovery time and
//! false suspicions across floors.

use crate::experiment::{ExperimentSpec, RunArtifacts};
use saguaro_net::FaultSchedule;
use saguaro_types::{DomainId, Duration, NodeId, PopulationConfig, RateEnvelope, SimTime};

/// A composite adversarial scenario, compiled to primitive fault events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// One height-1 domain is severed from the rest of the hierarchy for a
    /// quarter of the measurement window, then healed.  Cross-domain
    /// transactions through it must block and resolve consistently; the
    /// matrix runs at the workload's default of no cross-domain traffic, so
    /// `tests/scenario_atomicity.rs` checks that claim at 50 % cross-domain.
    DomainOutage,
    /// Two height-1 domains go dark *together* (a shared-uplink failure),
    /// then heal together.
    CorrelatedOutage,
    /// A scoped WAN delay spike: every message into or out of one height-2
    /// domain gains 20 ms for half the window — no losses, just lag.
    WanSpike,
    /// The victim domain's primary crashes while the replica next in line
    /// for the primariship equivocates, sending twin view-change and
    /// new-view certificates during the resulting view change.
    ViewChangeStorm,
    /// [`Scenario::DomainOutage`] with a flash crowd layered on top: the
    /// aggregate population's offered rate triples exactly while the domain
    /// is dark, so the backlog lands on the healed domain all at once.
    FlashCrowdOutage,
}

/// The domain severed by the single-outage scenarios.
pub fn outage_domain() -> DomainId {
    DomainId::new(1, 1)
}

/// The replica [`Scenario::ViewChangeStorm`] and the `figures` driver's
/// crash rows script down: the view-0 primary of the first height-1 domain.
pub fn fault_victim() -> NodeId {
    NodeId::new(DomainId::new(1, 0), 0)
}

impl Scenario {
    /// Every scenario, in matrix order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::DomainOutage,
            Scenario::CorrelatedOutage,
            Scenario::WanSpike,
            Scenario::ViewChangeStorm,
            Scenario::FlashCrowdOutage,
        ]
    }

    /// Short name used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::DomainOutage => "domain-outage",
            Scenario::CorrelatedOutage => "correlated-outage",
            Scenario::WanSpike => "wan-spike",
            Scenario::ViewChangeStorm => "view-change-storm",
            Scenario::FlashCrowdOutage => "flash-crowd-outage",
        }
    }

    /// When the scenario's disruption starts, given the spec's horizon.
    fn onset(spec: &ExperimentSpec) -> SimTime {
        SimTime::ZERO + spec.warmup + Duration::from_micros(spec.measure.as_micros() / 4)
    }

    /// When the disruption ends (outages heal, spikes clear).
    fn relief(spec: &ExperimentSpec) -> SimTime {
        SimTime::ZERO + spec.warmup + Duration::from_micros(spec.measure.as_micros() / 2)
    }

    /// The primitive fault events this scenario compiles to for `spec`.
    pub fn schedule(&self, spec: &ExperimentSpec) -> FaultSchedule {
        let onset = Self::onset(spec);
        let relief = Self::relief(spec);
        match self {
            Scenario::DomainOutage | Scenario::FlashCrowdOutage => FaultSchedule::none()
                .partition_domain_at(onset, outage_domain())
                .heal_domain_at(relief, outage_domain()),
            Scenario::CorrelatedOutage => {
                let pair = [DomainId::new(1, 1), DomainId::new(1, 2)];
                FaultSchedule::none()
                    .partition_domains_at(onset, pair)
                    .heal_domains_at(relief, pair)
            }
            Scenario::WanSpike => FaultSchedule::none()
                .domain_spike_at(onset, [DomainId::new(2, 0)], Duration::from_millis(20))
                .domain_spike_at(relief, [DomainId::new(2, 0)], Duration::ZERO),
            Scenario::ViewChangeStorm => {
                // The equivocator is the replica the view change elects next,
                // so its twin view-change votes *and* twin new-view
                // certificates are both in play.
                let accomplice = NodeId::new(fault_victim().domain, 1);
                FaultSchedule::none()
                    .crash_at(onset, fault_victim())
                    .equivocate_at(onset, accomplice)
                    .stop_equivocate_at(relief, accomplice)
                    .recover_at(relief, fault_victim())
            }
        }
    }

    /// Installs this scenario on `spec`: the compiled fault plan, plus the
    /// flash-crowd population for [`Scenario::FlashCrowdOutage`].
    pub fn apply(&self, mut spec: ExperimentSpec) -> ExperimentSpec {
        let plan = self.schedule(&spec);
        if let Scenario::FlashCrowdOutage = self {
            let start = spec.warmup + Duration::from_micros(spec.measure.as_micros() / 4);
            let duration = Duration::from_micros(spec.measure.as_micros() / 4);
            let users = if spec.warmup < Duration::from_millis(200) {
                2_000
            } else {
                8_000
            };
            let population = PopulationConfig::with_users(users).per_user(0.4).shaped(
                RateEnvelope::FlashCrowd {
                    start,
                    duration,
                    multiplier: 3.0,
                },
            );
            spec = spec.aggregate(population);
        }
        spec.fault_plan(plan)
    }
}

/// A suspicion floor half the conservative
/// [`saguaro_types::LivenessConfig::DEFAULT_TIMEOUT`]: low enough to
/// roughly halve crash recovery but high enough to stay
/// false-suspicion-free, with the window backing off ×2 on failed view
/// changes up to 240 ms and decaying ×½ on progress.  A column of the `figures` driver's scenario matrix, a point
/// of its timeout sweep, and one side of the chaos lane's coin.
pub const LOW_SUSPICION_FLOOR: Duration = Duration::from_millis(30);

/// Checks the safety invariants every run must uphold, returning one
/// description per violation:
///
/// 1. no transaction completes twice at a client;
/// 2. no replica's ledger holds a transaction twice;
/// 3. within each domain, every pair of replicas' internal consensus
///    delivery streams are prefix compatible (the raw ledger append order is
///    replica-local — it interleaves consensus deliveries with directly
///    applied cross-domain commits — so agreement is checked on the
///    consensus delivery hash);
/// 4. no replica retains more ledger entries than it ever appended;
/// 5. every transaction a client saw commit appears in some replica ledger
///    — checked only when no replica's harvest dropped entries, since
///    pruning legitimately removes old ones.
pub fn safety_violations(artifacts: &RunArtifacts) -> Vec<String> {
    let mut violations = Vec::new();
    let mut seen = saguaro_types::hash::FxHashSet::default();
    for c in &artifacts.completions {
        if !seen.insert(c.tx_id) {
            violations.push(format!("tx {:?} completed twice at a client", c.tx_id));
        }
    }
    for node in &artifacts.harvest.nodes {
        let mut ids = saguaro_types::hash::FxHashSet::default();
        for (id, _) in &node.entries {
            if !ids.insert(*id) {
                violations.push(format!("replica {:?} committed {id:?} twice", node.node));
            }
        }
    }
    for domain in artifacts.harvest.domains() {
        let replicas = artifacts.harvest.replicas_of(domain);
        for (i, a) in replicas.iter().enumerate() {
            for b in &replicas[i + 1..] {
                if !a.agrees_with(b) {
                    violations.push(format!(
                        "divergent consensus delivery streams in {domain:?} between {:?} and {:?}",
                        a.node, b.node
                    ));
                }
            }
        }
    }
    let mut pruned = false;
    for node in &artifacts.harvest.nodes {
        let retained = node.entries.len() as u64;
        pruned |= node.total_entries > retained;
        if node.total_entries < retained {
            violations.push(format!(
                "replica {:?} reports {} lifetime entries but retains {retained}",
                node.node, node.total_entries
            ));
        }
    }
    if pruned {
        return violations;
    }
    for c in artifacts.completions.iter().filter(|c| c.committed) {
        if !artifacts.harvest.seen_somewhere(c.tx_id) {
            violations.push(format!(
                "client-committed tx {:?} missing from every ledger",
                c.tx_id
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolKind;

    #[test]
    fn every_scenario_compiles_to_a_nonempty_schedule() {
        let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).quick();
        for scenario in Scenario::all() {
            let plan = scenario.schedule(&spec);
            assert!(!plan.is_empty(), "{} compiled to nothing", scenario.label());
            // Events are scripted inside the run horizon.
            let horizon = SimTime::ZERO + spec.warmup + spec.measure;
            for (at, _) in plan.events() {
                assert!(*at < horizon, "{} event after horizon", scenario.label());
            }
        }
    }

    #[test]
    fn flash_crowd_outage_layers_population_on_the_fault_plan() {
        let spec = Scenario::FlashCrowdOutage
            .apply(ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).quick());
        assert!(!spec.fault_plan.is_empty());
        match spec.client_model {
            saguaro_types::ClientModel::Aggregate(p) => {
                assert!(matches!(p.envelope, RateEnvelope::FlashCrowd { .. }));
            }
            _ => panic!("flash crowd scenario must use the aggregate population"),
        }
    }

    #[test]
    fn safety_checker_flags_duplicate_completions() {
        let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).quick();
        let mut art = spec.run_collecting();
        assert!(safety_violations(&art).is_empty());
        let dup = art.completions[0].clone();
        art.completions.push(dup);
        assert_eq!(safety_violations(&art).len(), 1);
        // A replica retaining more entries than it ever appended.
        let node = art.harvest.nodes.iter_mut().find(|n| !n.entries.is_empty());
        node.expect("a replica with ledger entries").total_entries = 0;
        let violations = safety_violations(&art);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[1].contains("lifetime entries"), "{violations:?}");
    }
}
