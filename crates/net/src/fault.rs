//! Fault injection.
//!
//! Two layers cooperate here:
//!
//! * [`FaultPlan`] is the *live* failure state the runtime consults on every
//!   send and delivery: which actors are currently crashed, which links are
//!   severed, and the uniform message-drop probability.
//! * [`FaultSchedule`] is a *script* of [`FaultEvent`]s keyed by virtual
//!   time.  The simulator interprets it as the clock advances, mutating the
//!   live plan — crash and recover actors, cut and heal links, spike the
//!   network delay — so a single seeded run can deterministically replay an
//!   arbitrary failure scenario.  An empty schedule leaves the runtime's
//!   behaviour (and its event stream) bit-identical to a failure-free run.
//!
//! Crash semantics model a node with stable storage: a crashed actor's
//! in-memory protocol state survives, but every message to or from it is
//! dropped and its timers are silently retired while it is down.

use crate::addr::Addr;
use rand::Rng;
use saguaro_types::hash::{FxHashMap, FxHashSet};
use saguaro_types::{DomainId, Duration, SimTime};

/// Which traffic a [`FaultEvent::DelaySpike`] slows down.
///
/// Scoped spikes are *pure state flips* like every other fault event: the
/// interpreter keeps a per-scope table of active extra delays and consults it
/// on each send, so sequential and per-partition parallel interpreters stay
/// in agreement without communication.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpikeScope {
    /// Every message in the deployment (the historical single-knob form).
    Global,
    /// Only messages with at least one endpoint inside one of these domains
    /// (a congested or brown-out region; intra-domain traffic included).
    Domains(Vec<DomainId>),
}

/// One scripted failure (or repair) applied at a scheduled virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The actor stops: deliveries and timers are dropped from this instant
    /// until a matching [`FaultEvent::RecoverActor`].
    CrashActor(Addr),
    /// The actor restarts (with its state intact — stable-storage model).
    RecoverActor(Addr),
    /// The (bidirectional) link between two actors starts dropping every
    /// message.
    PartitionLink(Addr, Addr),
    /// The link between two actors is repaired.
    HealLink(Addr, Addr),
    /// The whole domain is severed from the rest of the deployment: every
    /// message with exactly one endpoint among the domain's replicas — its
    /// LCA, its committee peers, its clients — is dropped, while intra-domain
    /// traffic keeps flowing.  Two concurrently severed domains cannot talk
    /// to each other either.
    PartitionDomain(DomainId),
    /// The domain rejoins the network (undoes
    /// [`FaultEvent::PartitionDomain`]).
    HealDomain(DomainId),
    /// Messages matching `scope` scheduled from this instant on suffer
    /// `extra` added one-way delay.  `Duration::ZERO` ends the spike for
    /// that scope.
    DelaySpike {
        /// Which traffic is slowed.
        scope: SpikeScope,
        /// Additional one-way latency while the spike is active.
        extra: Duration,
    },
    /// The actor turns Byzantine-equivocating: every outbound message that
    /// has a meaningful equivocation (see
    /// [`crate::MessageMeta::tampered`]) is duplicated with a conflicting
    /// payload, modelling a malicious primary sending different proposals
    /// for the same sequence number.
    Equivocate(Addr),
    /// The actor stops equivocating.
    StopEquivocate(Addr),
}

/// The live extra-delay state a [`FaultSchedule`]'s `DelaySpike` events flip.
///
/// Consulted by the interpreters on every send.  With no spikes active every
/// lookup table is empty and [`SpikeState::extra_for`] returns the global
/// knob untouched, so the scoped machinery is bit-identical to the historical
/// single `extra_delay` field for global (and absent) spikes.
#[derive(Clone, Debug, Default)]
pub struct SpikeState {
    global: Duration,
    domains: FxHashMap<DomainId, Duration>,
}

impl SpikeState {
    /// No spikes active.
    pub fn none() -> Self {
        Self::default()
    }

    /// Applies a `DelaySpike` event: sets (or, at `Duration::ZERO`, clears)
    /// the extra delay for the scope.
    pub fn apply(&mut self, scope: &SpikeScope, extra: Duration) {
        match scope {
            SpikeScope::Global => self.global = extra,
            SpikeScope::Domains(domains) => {
                for d in domains {
                    if extra == Duration::ZERO {
                        self.domains.remove(d);
                    } else {
                        self.domains.insert(*d, extra);
                    }
                }
            }
        }
    }

    /// The extra one-way delay a message from `from` to `to` pays right now:
    /// the global spike plus the largest per-domain spike covering either
    /// endpoint (crossing two slowed domains does not pay twice).
    pub fn extra_for(&self, from: Addr, to: Addr) -> Duration {
        let mut extra = self.global;
        if !self.domains.is_empty() {
            let of = |a: Addr| {
                a.as_node()
                    .and_then(|n| self.domains.get(&n.domain))
                    .copied()
                    .unwrap_or(Duration::ZERO)
            };
            extra = extra + of(from).max(of(to));
        }
        extra
    }
}

/// A deterministic script of [`FaultEvent`]s keyed by virtual time.
///
/// Events are kept sorted by time (ties preserve insertion order, so a
/// crash-then-recover written at the same instant applies in that order).
/// At any simulated instant `t`, every event with time `≤ t` has been
/// applied before the event queue entry at `t` is processed — a crash
/// scheduled at the same time as a delivery wins.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<(SimTime, FaultEvent)>,
}

impl FaultSchedule {
    /// An empty schedule (the failure-free default).
    pub fn none() -> Self {
        Self::default()
    }

    /// True if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events in application order.
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    /// Adds an event, keeping the schedule sorted by time (stable for ties).
    pub fn push(&mut self, at: SimTime, event: FaultEvent) {
        let pos = self.events.partition_point(|(t, _)| *t <= at);
        self.events.insert(pos, (at, event));
    }

    /// Builder: crash `actor` at `at`.
    pub fn crash_at(mut self, at: SimTime, actor: impl Into<Addr>) -> Self {
        self.push(at, FaultEvent::CrashActor(actor.into()));
        self
    }

    /// Builder: recover `actor` at `at`.
    pub fn recover_at(mut self, at: SimTime, actor: impl Into<Addr>) -> Self {
        self.push(at, FaultEvent::RecoverActor(actor.into()));
        self
    }

    /// Builder: sever the link between `a` and `b` at `at`.
    #[cfg(test)]
    pub(crate) fn partition_at(
        mut self,
        at: SimTime,
        a: impl Into<Addr>,
        b: impl Into<Addr>,
    ) -> Self {
        self.push(at, FaultEvent::PartitionLink(a.into(), b.into()));
        self
    }

    /// Builder: heal the link between `a` and `b` at `at`.
    #[cfg(test)]
    pub(crate) fn heal_at(mut self, at: SimTime, a: impl Into<Addr>, b: impl Into<Addr>) -> Self {
        self.push(at, FaultEvent::HealLink(a.into(), b.into()));
        self
    }

    /// Builder: add `extra` one-way delay to every message from `at` on
    /// (`Duration::ZERO` ends a previous spike).  The global convenience
    /// form of the scoped [`FaultEvent::DelaySpike`].
    pub fn delay_spike_at(mut self, at: SimTime, extra: Duration) -> Self {
        self.push(
            at,
            FaultEvent::DelaySpike {
                scope: SpikeScope::Global,
                extra,
            },
        );
        self
    }

    /// Builder: add `extra` one-way delay to every message touching a
    /// replica of one of `domains` from `at` on (`Duration::ZERO` ends it).
    pub fn domain_spike_at<I>(mut self, at: SimTime, domains: I, extra: Duration) -> Self
    where
        I: IntoIterator<Item = DomainId>,
    {
        self.push(
            at,
            FaultEvent::DelaySpike {
                scope: SpikeScope::Domains(domains.into_iter().collect()),
                extra,
            },
        );
        self
    }

    /// Builder: sever the whole domain from the rest of the deployment at
    /// `at` (intra-domain traffic keeps flowing).
    pub fn partition_domain_at(mut self, at: SimTime, domain: DomainId) -> Self {
        self.push(at, FaultEvent::PartitionDomain(domain));
        self
    }

    /// Builder: rejoin the domain at `at`.
    pub fn heal_domain_at(mut self, at: SimTime, domain: DomainId) -> Self {
        self.push(at, FaultEvent::HealDomain(domain));
        self
    }

    /// Builder: sever several domains at once at `at` (a correlated
    /// multi-domain outage; the severed domains cannot talk to each other
    /// either).
    pub fn partition_domains_at<I>(mut self, at: SimTime, domains: I) -> Self
    where
        I: IntoIterator<Item = DomainId>,
    {
        for d in domains {
            self.push(at, FaultEvent::PartitionDomain(d));
        }
        self
    }

    /// Builder: rejoin several domains at once at `at`.
    pub fn heal_domains_at<I>(mut self, at: SimTime, domains: I) -> Self
    where
        I: IntoIterator<Item = DomainId>,
    {
        for d in domains {
            self.push(at, FaultEvent::HealDomain(d));
        }
        self
    }

    /// Builder: make `actor` equivocate from `at` on (duplicate-and-mutate
    /// its outbound consensus messages).
    pub fn equivocate_at(mut self, at: SimTime, actor: impl Into<Addr>) -> Self {
        self.push(at, FaultEvent::Equivocate(actor.into()));
        self
    }

    /// Builder: stop `actor` equivocating at `at`.
    pub fn stop_equivocate_at(mut self, at: SimTime, actor: impl Into<Addr>) -> Self {
        self.push(at, FaultEvent::StopEquivocate(actor.into()));
        self
    }

    /// Builder: partition every pair across the two groups at `at` (a clean
    /// two-sided network split — pairs inside a group keep communicating).
    pub fn split_at<A, B>(mut self, at: SimTime, side_a: A, side_b: B) -> Self
    where
        A: IntoIterator,
        A::Item: Into<Addr>,
        B: IntoIterator,
        B::Item: Into<Addr>,
    {
        let right: Vec<Addr> = side_b.into_iter().map(Into::into).collect();
        for a in side_a {
            let a = a.into();
            for b in &right {
                self.push(at, FaultEvent::PartitionLink(a, *b));
            }
        }
        self
    }

    /// Builder: heal every pair across the two groups at `at` (undoes
    /// [`FaultSchedule::split_at`]).
    pub fn heal_split_at<A, B>(mut self, at: SimTime, side_a: A, side_b: B) -> Self
    where
        A: IntoIterator,
        A::Item: Into<Addr>,
        B: IntoIterator,
        B::Item: Into<Addr>,
    {
        let right: Vec<Addr> = side_b.into_iter().map(Into::into).collect();
        for a in side_a {
            let a = a.into();
            for b in &right {
                self.push(at, FaultEvent::HealLink(a, *b));
            }
        }
        self
    }
}

/// Dynamic description of which failures are currently active.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    crashed: FxHashSet<Addr>,
    /// Unordered pairs of addresses that cannot exchange messages.
    partitions: FxHashSet<(Addr, Addr)>,
    /// Domains currently severed from the rest of the deployment: only
    /// intra-domain traffic flows for their replicas.
    severed: FxHashSet<DomainId>,
    /// Actors currently equivocating (duplicating/mutating their outbound
    /// consensus messages).
    equivocating: FxHashSet<Addr>,
    /// Probability in `[0, 1]` that any given message is silently dropped.
    drop_probability: f64,
}

impl FaultPlan {
    /// A plan with no failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Marks a participant as crashed.
    pub fn crash(&mut self, a: impl Into<Addr>) {
        self.crashed.insert(a.into());
    }

    /// Restarts a previously crashed participant.
    pub fn restart(&mut self, a: impl Into<Addr>) {
        self.crashed.remove(&a.into());
    }

    /// True if the participant is currently crashed.
    pub fn is_crashed(&self, a: Addr) -> bool {
        self.crashed.contains(&a)
    }

    /// Severs the link between two participants (both directions).
    pub fn partition(&mut self, a: impl Into<Addr>, b: impl Into<Addr>) {
        let (a, b) = Self::ordered(a.into(), b.into());
        self.partitions.insert((a, b));
    }

    /// Heals the link between two participants.
    pub fn heal(&mut self, a: impl Into<Addr>, b: impl Into<Addr>) {
        let (a, b) = Self::ordered(a.into(), b.into());
        self.partitions.remove(&(a, b));
    }

    /// Severs the whole domain from the rest of the deployment.
    pub fn sever_domain(&mut self, d: DomainId) {
        self.severed.insert(d);
    }

    /// Rejoins a previously severed domain.
    pub fn rejoin_domain(&mut self, d: DomainId) {
        self.severed.remove(&d);
    }

    /// True if a message between `a` and `b` crosses the boundary of a
    /// severed domain: exactly one endpoint inside one, or the endpoints
    /// inside two *different* severed domains.  Intra-domain traffic of a
    /// severed domain keeps flowing.
    fn crosses_severed_boundary(&self, a: Addr, b: Addr) -> bool {
        let inside = |x: Addr| {
            x.as_node()
                .map(|n| n.domain)
                .filter(|d| self.severed.contains(d))
        };
        match (inside(a), inside(b)) {
            (None, None) => false,
            (Some(da), Some(db)) => da != db,
            _ => true,
        }
    }

    /// Starts Byzantine equivocation at `a`.
    pub fn equivocate(&mut self, a: impl Into<Addr>) {
        self.equivocating.insert(a.into());
    }

    /// Stops Byzantine equivocation at `a`.
    pub fn stop_equivocate(&mut self, a: impl Into<Addr>) {
        self.equivocating.remove(&a.into());
    }

    /// True if the actor is currently equivocating.
    pub fn is_equivocating(&self, a: Addr) -> bool {
        self.equivocating.contains(&a)
    }

    /// Sets the uniform message-drop probability.  Panics on a probability
    /// outside `[0, 1]`, NaN included.
    pub fn set_drop_probability(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "FaultPlan::set_drop_probability({p}): a probability must lie in [0, 1]"
        );
        self.drop_probability = p;
    }

    /// The current uniform message-drop probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_probability
    }

    /// Decides whether a message from `from` to `to` should be dropped.
    pub fn should_drop<R: Rng + ?Sized>(&self, from: Addr, to: Addr, rng: &mut R) -> bool {
        if self.crashed.contains(&from) || self.crashed.contains(&to) {
            return true;
        }
        let key = Self::ordered(from, to);
        if self.partitions.contains(&key) {
            return true;
        }
        if !self.severed.is_empty() && self.crosses_severed_boundary(from, to) {
            return true;
        }
        self.drop_probability > 0.0 && rng.gen_bool(self.drop_probability)
    }

    fn ordered(a: Addr, b: Addr) -> (Addr, Addr) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saguaro_types::ClientId;

    fn c(i: u64) -> Addr {
        Addr::Client(ClientId(i))
    }

    #[test]
    fn crashed_nodes_drop_everything() {
        let mut plan = FaultPlan::none();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(!plan.should_drop(c(0), c(1), &mut rng));
        plan.crash(ClientId(1));
        assert!(plan.is_crashed(c(1)));
        assert!(plan.should_drop(c(0), c(1), &mut rng));
        assert!(plan.should_drop(c(1), c(0), &mut rng));
        plan.restart(ClientId(1));
        assert!(!plan.should_drop(c(0), c(1), &mut rng));
    }

    #[test]
    fn partitions_are_symmetric_and_healable() {
        let mut plan = FaultPlan::none();
        let mut rng = StdRng::seed_from_u64(0);
        plan.partition(ClientId(0), ClientId(1));
        assert!(plan.should_drop(c(0), c(1), &mut rng));
        assert!(plan.should_drop(c(1), c(0), &mut rng));
        assert!(!plan.should_drop(c(0), c(2), &mut rng));
        plan.heal(ClientId(1), ClientId(0));
        assert!(!plan.should_drop(c(0), c(1), &mut rng));
    }

    #[test]
    #[should_panic(
        expected = "FaultPlan::set_drop_probability(2): a probability must lie in [0, 1]"
    )]
    fn drop_probability_above_one_panics() {
        FaultPlan::none().set_drop_probability(2.0);
    }

    #[test]
    fn drop_probability_is_statistical() {
        let mut plan = FaultPlan::none();
        plan.set_drop_probability(0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let drops = (0..1000)
            .filter(|_| plan.should_drop(c(0), c(1), &mut rng))
            .count();
        assert!((350..650).contains(&drops), "drops={drops}");
    }

    #[test]
    fn zero_probability_never_drops() {
        let plan = FaultPlan::none();
        let mut rng = StdRng::seed_from_u64(7);
        assert!((0..100).all(|_| !plan.should_drop(c(0), c(1), &mut rng)));
    }

    #[test]
    fn schedule_keeps_events_sorted_and_stable() {
        let t = SimTime::from_millis;
        let s = FaultSchedule::none()
            .recover_at(t(30), ClientId(1))
            .crash_at(t(10), ClientId(1))
            .delay_spike_at(t(10), Duration::from_millis(5));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let times: Vec<u64> = s.events().iter().map(|(at, _)| at.as_micros()).collect();
        assert_eq!(times, vec![10_000, 10_000, 30_000]);
        // Ties preserve insertion order: the crash was pushed before the
        // spike, both at t=10ms.
        assert_eq!(s.events()[0].1, FaultEvent::CrashActor(c(1)));
        assert_eq!(
            s.events()[1].1,
            FaultEvent::DelaySpike {
                scope: SpikeScope::Global,
                extra: Duration::from_millis(5)
            }
        );
    }

    #[test]
    fn severed_domains_block_only_boundary_traffic() {
        use saguaro_types::{DomainId, NodeId};
        let d0 = DomainId::new(1, 0);
        let d1 = DomainId::new(1, 1);
        let n = |d: DomainId, i: u16| Addr::Node(NodeId::new(d, i));
        let mut plan = FaultPlan::none();
        let mut rng = StdRng::seed_from_u64(0);
        plan.sever_domain(d0);
        // Intra-domain traffic keeps flowing.
        assert!(!plan.should_drop(n(d0, 0), n(d0, 1), &mut rng));
        // Boundary traffic is cut in both directions: peers and clients.
        assert!(plan.should_drop(n(d0, 0), n(d1, 0), &mut rng));
        assert!(plan.should_drop(n(d1, 0), n(d0, 0), &mut rng));
        assert!(plan.should_drop(c(3), n(d0, 2), &mut rng));
        // Unrelated traffic is untouched.
        assert!(!plan.should_drop(c(3), n(d1, 0), &mut rng));
        // Two severed domains cannot talk to each other.
        plan.sever_domain(d1);
        assert!(plan.should_drop(n(d0, 0), n(d1, 0), &mut rng));
        assert!(!plan.should_drop(n(d1, 0), n(d1, 2), &mut rng));
        plan.rejoin_domain(d0);
        assert!(!plan.should_drop(c(3), n(d0, 2), &mut rng));
        assert!(plan.should_drop(c(3), n(d1, 2), &mut rng));
    }

    #[test]
    fn spike_state_scopes_compose_and_clear() {
        use saguaro_types::{DomainId, NodeId};
        let d0 = DomainId::new(1, 0);
        let d1 = DomainId::new(1, 1);
        let n = |d: DomainId, i: u16| Addr::Node(NodeId::new(d, i));
        let ms = Duration::from_millis;
        let mut spikes = SpikeState::none();
        // Empty state adds nothing (the bit-identical failure-free path).
        assert_eq!(spikes.extra_for(n(d0, 0), n(d1, 0)), Duration::ZERO);
        // A global spike hits everything; a domain scope stacks on it.
        spikes.apply(&SpikeScope::Global, ms(1));
        spikes.apply(&SpikeScope::Domains(vec![d1]), ms(4));
        assert_eq!(spikes.extra_for(n(d1, 0), n(d0, 0)), ms(1) + ms(4));
        assert_eq!(spikes.extra_for(n(d0, 1), n(d0, 2)), ms(1));
        // Crossing a slowed domain pays its spike once, not per endpoint.
        assert_eq!(spikes.extra_for(n(d1, 0), n(d1, 1)), ms(1) + ms(4));
        // ZERO clears each scope independently.
        spikes.apply(&SpikeScope::Global, Duration::ZERO);
        assert_eq!(spikes.extra_for(n(d0, 0), n(d1, 0)), ms(4));
        spikes.apply(&SpikeScope::Domains(vec![d1]), Duration::ZERO);
        assert_eq!(spikes.extra_for(n(d0, 0), n(d1, 0)), Duration::ZERO);
    }

    #[test]
    fn domain_partition_builders_script_sever_and_heal() {
        let t = SimTime::from_millis;
        use saguaro_types::DomainId;
        let d0 = DomainId::new(1, 0);
        let d1 = DomainId::new(1, 1);
        let s = FaultSchedule::none()
            .partition_domains_at(t(10), [d0, d1])
            .heal_domain_at(t(30), d0)
            .heal_domain_at(t(40), d1)
            .domain_spike_at(t(10), [d1], Duration::from_millis(3));
        assert_eq!(s.len(), 5);
        assert_eq!(s.events()[0].1, FaultEvent::PartitionDomain(d0));
        assert_eq!(s.events()[1].1, FaultEvent::PartitionDomain(d1));
        assert_eq!(
            s.events()[2].1,
            FaultEvent::DelaySpike {
                scope: SpikeScope::Domains(vec![d1]),
                extra: Duration::from_millis(3)
            }
        );
        assert_eq!(s.events()[3].1, FaultEvent::HealDomain(d0));
        assert_eq!(s.events()[4].1, FaultEvent::HealDomain(d1));
    }

    #[test]
    fn split_builders_cover_the_cross_product() {
        let t = SimTime::from_millis(1);
        let left = [ClientId(0), ClientId(1)];
        let right = [ClientId(2), ClientId(3)];
        let s = FaultSchedule::none().split_at(t, left, right);
        assert_eq!(s.len(), 4);
        assert!(s
            .events()
            .iter()
            .all(|(_, e)| matches!(e, FaultEvent::PartitionLink(_, _))));
        let healed = s.heal_split_at(t, left, right);
        assert_eq!(healed.len(), 8);
    }

    #[test]
    fn empty_schedule_is_the_default() {
        assert!(FaultSchedule::none().is_empty());
        assert_eq!(FaultSchedule::default(), FaultSchedule::none());
    }
}
