//! The actor interface and the sequential engine.
//!
//! [`Actor`]s communicate exclusively by sending messages and setting timers
//! through the [`Context`] handed to their callbacks, which keeps the whole
//! system deterministic: a simulation with the same seed and the same actor
//! logic always produces the same history.
//!
//! [`Simulation`] is the sequential engine: **one** partition of the event
//! core (`partition.rs`, which owns the actors, the event queue ordered by
//! virtual time, the [`LatencyMatrix`], the per-actor [`CpuProfile`]s and the
//! [`FaultPlan`]) drained with no window, no lock and no thread-safety bound
//! on the message type.  [`SimRuntime`] is the surface it shares with the
//! many-partition [`ParallelSimulation`](crate::psim::ParallelSimulation).

use crate::addr::Addr;
use crate::cpu::{CpuProfile, MessageMeta};
use crate::envelope::Envelope;
use crate::event::TimerId;
use crate::fault::{FaultPlan, FaultSchedule};
use crate::latency::LatencyMatrix;
use crate::partition::{Partition, RouteEntry, FOREVER};
use crate::stats::NetStats;
use crate::timer::TimerSlab;
use rand::rngs::StdRng;
use saguaro_types::{Duration, Region, SimTime};
use std::sync::Arc;

/// A simulated participant.
///
/// Implementations must be deterministic: all randomness should come from
/// [`Context::rng`], all time from [`Context::now`].
pub trait Actor<M> {
    /// Called when a network message from `from` has been received *and*
    /// processed (the CPU service time has already elapsed).
    fn on_message(&mut self, from: Addr, msg: M, ctx: &mut Context<'_, M>);

    /// Called when a timer set through [`Context::set_timer`] fires.  Timers
    /// that were cancelled are never delivered.
    fn on_timer(&mut self, id: TimerId, msg: M, ctx: &mut Context<'_, M>);

    /// Optional downcasting hook so test harnesses can inspect concrete actor
    /// state after a run (ledgers, balances, statistics).  Actors that want
    /// to be inspectable return `Some(self)`.
    fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// The owned actor handle the runtimes store.  `Send` so a deployment can
/// be driven by the parallel engine's worker threads; every actor in the
/// workspace is a plain struct (possibly holding `Arc`s), so the bound is
/// free.
pub type BoxedActor<M> = Box<dyn Actor<M> + Send>;

/// What an actor asked the runtime to do during a callback.
pub(crate) enum Action<M> {
    Send {
        to: Addr,
        env: Envelope<M>,
    },
    SetTimer {
        id: TimerId,
        delay: Duration,
        msg: M,
    },
    CancelTimer {
        id: TimerId,
    },
}

/// Execution context handed to actor callbacks.
pub struct Context<'a, M> {
    now: SimTime,
    self_addr: Addr,
    rng: &'a mut StdRng,
    timers: &'a mut TimerSlab,
    actions: Vec<Action<M>>,
}

impl<'a, M> Context<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The address of the actor being called.
    pub fn self_addr(&self) -> Addr {
        self.self_addr
    }

    /// Deterministic random number generator: the stream of the partition
    /// hosting this actor (the whole simulation's, on the sequential engine).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `msg` to `to`.  Delivery time is computed from the latency
    /// matrix and the receiver's CPU model; the message may be dropped by the
    /// fault plan.
    pub fn send(&mut self, to: impl Into<Addr>, msg: M)
    where
        M: MessageMeta,
    {
        self.actions.push(Action::Send {
            to: to.into(),
            env: Envelope::new(msg),
        });
    }

    /// Sends `msg` to every address in `to`.
    ///
    /// The payload is wrapped in one shared [`Envelope`], so no copy is made
    /// here however many recipients there are; deliveries share the
    /// allocation and only clone when a recipient needs an owned payload
    /// before the last reference is consumed.
    pub fn multicast<I>(&mut self, to: I, msg: M)
    where
        M: MessageMeta + Clone,
        I: IntoIterator,
        I::Item: Into<Addr>,
    {
        let env = Envelope::new(msg);
        for t in to {
            self.actions.push(Action::Send {
                to: t.into(),
                env: env.clone(),
            });
        }
    }

    /// Schedules `msg` to be delivered back to this actor after `delay`.
    /// Returns a [`TimerId`] that can be passed to [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: Duration, msg: M) -> TimerId {
        let id = self.timers.alloc();
        self.actions.push(Action::SetTimer { id, delay, msg });
        id
    }

    /// Cancels a previously set timer.  Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Builds a callback context (the partition core's entry point; not part
    /// of the public API).
    pub(crate) fn enter(
        now: SimTime,
        self_addr: Addr,
        rng: &'a mut StdRng,
        timers: &'a mut TimerSlab,
    ) -> Self {
        Self {
            now,
            self_addr,
            rng,
            timers,
            actions: Vec::new(),
        }
    }

    /// Consumes the context, yielding the actions the actor queued.
    pub(crate) fn into_actions(self) -> Vec<Action<M>> {
        self.actions
    }
}

/// The sequential simulation runtime: one partition, drained in order.
pub struct Simulation<M> {
    part: Partition<M>,
}

impl<M: MessageMeta + Clone + 'static> Simulation<M> {
    /// Creates a simulation with the given latency model and RNG seed.
    pub fn new(latency: LatencyMatrix, seed: u64) -> Self {
        Self {
            part: Partition::new(0, seed, Arc::new(latency)),
        }
    }

    /// Registers an actor at `addr`, placed in `region`, with CPU profile
    /// `cpu`.  Re-registering an address replaces the previous actor (the
    /// address keeps its interned index and accumulated statistics).
    pub fn register(
        &mut self,
        addr: impl Into<Addr>,
        region: Region,
        cpu: CpuProfile,
        actor: BoxedActor<M>,
    ) {
        let addr = addr.into();
        let known = self.part.routing.get(&addr).map(|e| e.local);
        let local = self.part.install(known, addr, region, cpu, actor);
        let entry = RouteEntry {
            part: 0,
            local,
            region,
        };
        // Sole owner of the table: `make_mut` edits it in place.
        Arc::make_mut(&mut self.part.routing).insert(addr, entry);
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.part.routing.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.part.now
    }

    /// Immutable access to the collected statistics.
    pub fn stats(&self) -> &NetStats {
        &self.part.stats
    }

    /// Mutable access to the fault plan (crash nodes, partition links, set
    /// drop probability).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.part.faults
    }

    /// Read access to the current fault state.
    pub fn faults(&self) -> &FaultPlan {
        &self.part.faults
    }

    /// Installs a scripted fault schedule.  Events are applied in time order
    /// as the simulation clock reaches them; at any instant `t`, every event
    /// scheduled at or before `t` is applied *before* the queue entry at `t`
    /// is processed (a crash at the same instant as a delivery wins).  An
    /// empty schedule leaves the run bit-identical to a failure-free one.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.part.set_fault_schedule(schedule);
    }

    /// The latency matrix in use.
    pub fn latency(&self) -> &LatencyMatrix {
        &self.part.latency
    }

    /// Number of timers currently pending (set but neither fired nor
    /// cancelled).
    pub fn live_timers(&self) -> usize {
        self.part.timers.live()
    }

    /// Injects a message from the outside world (the experiment harness) as
    /// if `from` had sent it; it is delivered to `to` after normal network
    /// latency and CPU service time.
    pub fn inject(&mut self, from: impl Into<Addr>, to: impl Into<Addr>, msg: M) {
        self.part.inject(self.part.now, from.into(), to.into(), msg);
    }

    /// Injects a message that is delivered at an absolute virtual time
    /// (used by the harness to start clients at staggered offsets).
    pub fn inject_at(&mut self, at: SimTime, from: impl Into<Addr>, to: impl Into<Addr>, msg: M) {
        let at = at.max(self.part.now);
        self.part.inject_at(at, from.into(), to.into(), msg);
    }

    /// Runs until the event queue is empty or `deadline` is reached,
    /// whichever comes first.  Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let processed = self.part.drain(deadline, u64::MAX);
        self.part.advance_to(deadline);
        processed
    }

    /// Runs until no events remain.  Returns the number of events processed.
    /// `max_events` guards against protocol bugs that generate unbounded
    /// message storms.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        self.part.drain(FOREVER, max_events)
    }

    /// Processes a single event, if any.
    pub fn step(&mut self) -> bool {
        self.part.drain(FOREVER, 1) == 1
    }

    /// Gives the harness temporary access to a registered actor, e.g. to read
    /// measurement counters after the run.  Returns `None` for unknown
    /// addresses.
    pub fn with_actor<R>(
        &mut self,
        addr: impl Into<Addr>,
        f: impl FnOnce(&mut dyn Actor<M>) -> R,
    ) -> Option<R> {
        let local = self.part.routing.get(&addr.into())?.local;
        let actor = self.part.actor_slot(local).as_mut()?;
        Some(f(actor.as_mut()))
    }

    /// Removes an actor and returns it (used by harnesses that downcast to a
    /// concrete type to extract results).
    pub fn take_actor(&mut self, addr: impl Into<Addr>) -> Option<BoxedActor<M>> {
        let local = self.part.routing.get(&addr.into())?.local;
        self.part.actor_slot(local).take()
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.part.pending()
    }
}

/// The runtime surface shared by the two façades over the partition core:
/// the sequential [`Simulation`] and the conservative-parallel
/// [`crate::psim::ParallelSimulation`].
///
/// Deployment and harness code written against this trait (statically
/// dispatched — the trait is deliberately not object-safe) runs unchanged on
/// either engine; an `EngineMode` switch picks the concrete type.
pub trait SimRuntime<M: MessageMeta + Clone + 'static> {
    /// Registers an actor at `addr`, placed in `region`, with CPU profile
    /// `cpu`.  Re-registering an address replaces the previous actor.
    fn register(
        &mut self,
        addr: impl Into<Addr>,
        region: Region,
        cpu: CpuProfile,
        actor: BoxedActor<M>,
    );

    /// Injects a message from the outside world as if `from` had sent it.
    fn inject(&mut self, from: impl Into<Addr>, to: impl Into<Addr>, msg: M);

    /// Injects a message delivered at an absolute virtual time.
    fn inject_at(&mut self, at: SimTime, from: impl Into<Addr>, to: impl Into<Addr>, msg: M);

    /// Installs a scripted fault schedule.
    fn set_fault_schedule(&mut self, schedule: FaultSchedule);

    /// Runs until the queue drains or `deadline` is reached; returns the
    /// number of events processed.
    fn run_until(&mut self, deadline: SimTime) -> u64;

    /// The collected network-wide statistics.
    fn stats(&self) -> &NetStats;

    /// Temporary access to a registered actor (post-run harvesting).
    fn with_actor<R>(
        &mut self,
        addr: impl Into<Addr>,
        f: impl FnOnce(&mut dyn Actor<M>) -> R,
    ) -> Option<R>;

    /// Number of registered actors.
    fn actor_count(&self) -> usize;

    /// Number of events still pending.
    fn pending_events(&self) -> usize;
}

impl<M: MessageMeta + Clone + 'static> SimRuntime<M> for Simulation<M> {
    fn register(
        &mut self,
        addr: impl Into<Addr>,
        region: Region,
        cpu: CpuProfile,
        actor: BoxedActor<M>,
    ) {
        Simulation::register(self, addr, region, cpu, actor);
    }

    fn inject(&mut self, from: impl Into<Addr>, to: impl Into<Addr>, msg: M) {
        Simulation::inject(self, from, to, msg);
    }

    fn inject_at(&mut self, at: SimTime, from: impl Into<Addr>, to: impl Into<Addr>, msg: M) {
        Simulation::inject_at(self, at, from, to, msg);
    }

    fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        Simulation::set_fault_schedule(self, schedule);
    }

    fn run_until(&mut self, deadline: SimTime) -> u64 {
        Simulation::run_until(self, deadline)
    }

    fn stats(&self) -> &NetStats {
        Simulation::stats(self)
    }

    fn with_actor<R>(
        &mut self,
        addr: impl Into<Addr>,
        f: impl FnOnce(&mut dyn Actor<M>) -> R,
    ) -> Option<R> {
        Simulation::with_actor(self, addr, f)
    }

    fn actor_count(&self) -> usize {
        Simulation::actor_count(self)
    }

    fn pending_events(&self) -> usize {
        Simulation::pending_events(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psim::ParallelSimulation;
    use saguaro_types::ClientId;

    /// Minimal ping-pong message for runtime tests.
    #[derive(Clone, Debug)]
    enum TestMsg {
        Ping(u32),
        Pong(#[allow(dead_code)] u32),
        Tick,
    }

    impl MessageMeta for TestMsg {
        fn wire_bytes(&self) -> usize {
            100
        }
        fn signatures(&self) -> usize {
            1
        }
        fn tampered(&self) -> Option<Self> {
            match self {
                // Pings have a meaningful equivocation (a conflicting twin);
                // everything else does not.
                TestMsg::Ping(n) => Some(TestMsg::Ping(n | 0x8000_0000)),
                _ => None,
            }
        }
    }

    /// Replies to pings; records when each message arrived.
    #[derive(Default)]
    struct PingPong {
        deliveries: Vec<SimTime>,
    }

    impl Actor<TestMsg> for PingPong {
        fn on_message(&mut self, from: Addr, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            self.deliveries.push(ctx.now());
            if let TestMsg::Ping(n) = msg {
                ctx.send(from, TestMsg::Pong(n));
            }
        }
        fn on_timer(&mut self, _id: TimerId, _msg: TestMsg, _ctx: &mut Context<'_, TestMsg>) {}
        fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    fn addr(i: u64) -> Addr {
        Addr::Client(ClientId(i))
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// Past the last event of every test below.
    const END: SimTime = SimTime::from_millis(1_000);

    /// Jitter-free, so arrival times do not depend on which partition's
    /// stream a send drew from and one set of assertions fits every engine.
    fn quiet() -> LatencyMatrix {
        LatencyMatrix::nearby_regions().with_jitter(0.0)
    }

    fn local() -> LatencyMatrix {
        LatencyMatrix::single_region().with_jitter(0.0)
    }

    fn sim() -> Simulation<TestMsg> {
        Simulation::new(quiet(), 1)
    }

    /// One millisecond per message, nothing else.
    fn slow() -> CpuProfile {
        CpuProfile {
            base_us: 1000.0,
            per_signature_us: 0.0,
            per_byte_us: 0.0,
            send_us: 0.0,
        }
    }

    fn ping_pong(s: &mut impl SimRuntime<TestMsg>, i: u64, region: u8) {
        let actor = Box::new(PingPong::default());
        s.register(addr(i), Region(region), CpuProfile::client(), actor);
    }

    /// When each message reached the `PingPong` at `addr(i)`.
    fn arrivals(s: &mut impl SimRuntime<TestMsg>, i: u64) -> Vec<SimTime> {
        s.with_actor(addr(i), |a| {
            let any = a.as_any().expect("inspectable");
            any.downcast_mut::<PingPong>()
                .expect("a PingPong")
                .deliveries
                .clone()
        })
        .expect("registered")
    }

    /// The conformance harness: runs `case(engine, partitions)` on the
    /// parallel engine with one partition and with two (clients split by
    /// parity) on 1 and 4 workers, then on the sequential engine, which it
    /// evaluates to so a test can go on to check what only that one exposes.
    macro_rules! on_every_engine {
        ($latency:expr, $seed:expr, $case:path) => {{
            for (partitions, workers) in [(1u64, 1), (2, 1), (2, 4)] {
                let route = move |a| match a {
                    Addr::Client(c) => (c.0 % partitions) as u32,
                    Addr::Node(_) => 0,
                };
                let mut par =
                    ParallelSimulation::new($latency, $seed, partitions as usize, workers, route);
                $case(&mut par, partitions);
            }
            let mut seq = Simulation::new($latency, $seed);
            $case(&mut seq, 1);
            seq
        }};
    }

    #[test]
    fn ping_pong_round_trip_takes_one_rtt_plus_service() {
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            ping_pong(s, 0, 0);
            ping_pong(s, 1, 2);
            s.inject(addr(0), addr(1), TestMsg::Ping(7));
            s.run_until(END);
            assert_eq!(s.stats().messages_delivered, 2);
            // FR -> LDN one-way is 8.5 ms; the pong is back after ≥ 17 ms.
            let back = arrivals(s, 0)[0];
            assert!(back >= SimTime::from_micros(17_000), "{back:?}");
            assert!(back < SimTime::from_micros(19_000), "{back:?}");
        }
        on_every_engine!(quiet(), 1, case);
    }

    #[test]
    fn timers_fire_and_cancelled_timers_do_not() {
        struct TimerSetter;
        impl Actor<TestMsg> for TimerSetter {
            fn on_message(&mut self, _from: Addr, _msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                ctx.set_timer(Duration::from_millis(5), TestMsg::Tick);
                let cancel = ctx.set_timer(Duration::from_millis(1), TestMsg::Ping(0));
                ctx.cancel_timer(cancel);
            }
            fn on_timer(&mut self, _id: TimerId, msg: TestMsg, _ctx: &mut Context<'_, TestMsg>) {
                assert!(matches!(msg, TestMsg::Tick), "cancelled timer fired");
            }
        }
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            let actor = Box::new(TimerSetter);
            s.register(addr(0), Region(0), CpuProfile::client(), actor);
            s.inject(addr(1), addr(0), TestMsg::Tick);
            s.run_until(END);
            assert_eq!(s.stats().timers_fired, 1);
        }
        let seq = on_every_engine!(quiet(), 1, case);
        assert_eq!(seq.live_timers(), 0, "fired + cancelled timers both retire");
    }

    #[test]
    fn crashed_actor_receives_nothing() {
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        ping_pong(&mut s, 1, 0);
        s.faults_mut().crash(ClientId(1));
        s.inject(addr(0), addr(1), TestMsg::Ping(1));
        s.run_to_completion(100);
        assert_eq!(s.stats().messages_delivered, 0);
        assert!(s.stats().messages_dropped >= 1);
    }

    #[test]
    fn unknown_recipient_counts_as_drop() {
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            ping_pong(s, 0, 0);
            s.inject(addr(0), addr(9), TestMsg::Ping(1));
            s.run_until(END);
            assert_eq!(s.stats().messages_delivered, 0);
            assert_eq!(s.stats().messages_dropped, 1);
        }
        on_every_engine!(quiet(), 1, case);
    }

    #[test]
    fn recipient_registered_after_send_still_receives() {
        fn case(s: &mut impl SimRuntime<TestMsg>, partitions: u64) {
            // The cached index is a hint, not a requirement: an actor
            // registered between schedule and delivery is resolved the cold
            // way.
            ping_pong(s, 0, 0);
            s.inject(addr(0), addr(4), TestMsg::Ping(1));
            ping_pong(s, 4, 0);
            s.run_until(END);
            assert_eq!(s.stats().messages_delivered, 2, "ping + pong");
            // Unless the latecomer routes to *another* partition: a send to
            // an unknown address is queued where the sender lives, and an
            // event cannot change partitions inside a planned window, so the
            // window protocol defines this one as a drop.
            s.inject(addr(0), addr(5), TestMsg::Ping(2));
            ping_pong(s, 5, 0);
            s.run_until(ms(2_000));
            let (delivered, dropped) = if partitions == 1 { (4, 0) } else { (2, 1) };
            assert_eq!(s.stats().messages_delivered, delivered);
            assert_eq!(s.stats().messages_dropped, dropped);
        }
        on_every_engine!(quiet(), 1, case);
    }

    #[test]
    fn re_registration_replaces_the_actor_and_keeps_the_index() {
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            ping_pong(s, 0, 0);
            ping_pong(s, 1, 0);
            s.inject(addr(1), addr(0), TestMsg::Tick);
            s.run_until(ms(10));
            assert_eq!(s.stats().messages_delivered, 1);
            // Replace the actor behind addr(0); the address keeps its
            // interned slot and its accumulated statistics.
            ping_pong(s, 0, 0);
            assert_eq!(s.actor_count(), 2, "re-registration must not grow tables");
            s.inject(addr(1), addr(0), TestMsg::Tick);
            s.run_until(ms(20));
            assert_eq!(s.stats().messages_delivered, 2);
            assert_eq!(arrivals(s, 0).len(), 1, "the replacement saw one");
        }
        on_every_engine!(quiet(), 1, case);
    }

    #[test]
    fn fifo_queueing_serialises_busy_node() {
        // A server with a large per-message cost receives 10 messages at the
        // same instant; the last delivery must observe 10x the service time.
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            let sink = Box::new(PingPong::default());
            s.register(addr(0), Region(0), slow(), sink);
            for i in 0..10 {
                s.inject_at(SimTime::ZERO, addr(1), addr(0), TestMsg::Pong(i));
            }
            s.run_until(END);
            // All ten were delivered and the node accumulated 10 x 1 ms of
            // work; the last callback observed the queueing delay.
            assert_eq!(s.stats().messages_delivered, 10);
            assert_eq!(s.stats().busy_time(addr(0)), Duration::from_millis(10));
            assert_eq!(arrivals(s, 0).last(), Some(&ms(10)));
        }
        on_every_engine!(local(), 3, case);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        ping_pong(&mut s, 1, 1);
        // MI is 11 ms RTT from FR: one-way 5.5 ms > 1 ms deadline.
        s.inject(addr(0), addr(1), TestMsg::Ping(1));
        let processed = s.run_until(SimTime::from_millis(1));
        assert_eq!(processed, 0);
        assert_eq!(s.now(), SimTime::from_millis(1));
        assert_eq!(s.pending_events(), 1);
        let processed = s.run_until(SimTime::from_millis(100));
        assert!(processed >= 1);
    }

    #[test]
    fn drop_probability_loses_messages() {
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        ping_pong(&mut s, 1, 0);
        s.faults_mut().set_drop_probability(1.0);
        for i in 0..5 {
            s.inject(addr(0), addr(1), TestMsg::Ping(i));
        }
        s.run_to_completion(100);
        assert_eq!(s.stats().messages_delivered, 0);
        assert_eq!(s.stats().messages_dropped, 5);
    }

    #[test]
    fn take_actor_removes_it() {
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        assert_eq!(s.actor_count(), 1);
        assert!(s.take_actor(addr(0)).is_some());
        assert!(s.take_actor(addr(0)).is_none());
    }

    #[test]
    fn run_to_completion_tracks_peak_pending_events() {
        // Regression: the high-water mark used to be tracked only by
        // `run_until`, so completion-driven runs reported 0.  Ten messages
        // queued at the same instant must surface as a peak of 10 through
        // either driver.
        let queue_ten = |s: &mut Simulation<TestMsg>| {
            ping_pong(s, 0, 0);
            for i in 0..10 {
                s.inject_at(SimTime::ZERO, addr(1), addr(0), TestMsg::Pong(i));
            }
        };
        let mut completion = sim();
        queue_ten(&mut completion);
        completion.run_to_completion(100);
        assert_eq!(completion.stats().peak_pending_events, 10);

        let mut until = sim();
        queue_ten(&mut until);
        until.run_until(SimTime::from_millis(100));
        assert_eq!(
            until.stats().peak_pending_events,
            10,
            "both drivers report the same high-water mark"
        );
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed| {
            let mut s: Simulation<TestMsg> = Simulation::new(LatencyMatrix::nearby_regions(), seed);
            for (i, region) in [(0, 0), (1, 3)] {
                let actor = Box::new(PingPong::default());
                s.register(addr(i), Region(region), CpuProfile::server(), actor);
            }
            for i in 0..20 {
                s.inject(addr(0), addr(1), TestMsg::Ping(i));
            }
            s.run_to_completion(1000);
            s.now()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn messages_need_not_be_send() {
        // The sequential engine puts no thread-safety bound on `M`.
        #[derive(Clone)]
        struct Local(std::rc::Rc<u32>);
        impl MessageMeta for Local {
            fn wire_bytes(&self) -> usize {
                8
            }
        }
        struct Sum(u32);
        impl Actor<Local> for Sum {
            fn on_message(&mut self, _from: Addr, msg: Local, _ctx: &mut Context<'_, Local>) {
                self.0 += *msg.0;
            }
            fn on_timer(&mut self, _id: TimerId, _msg: Local, _ctx: &mut Context<'_, Local>) {}
        }
        let mut s = Simulation::new(quiet(), 1);
        s.register(addr(0), Region(0), CpuProfile::client(), Box::new(Sum(0)));
        s.inject(addr(1), addr(0), Local(std::rc::Rc::new(5)));
        assert_eq!(s.run_to_completion(10), 1);
    }

    #[test]
    fn cancel_after_fire_does_not_kill_a_recycled_timer() {
        // An actor that (1) sets timer A, lets it fire, (2) sets timer B
        // (which recycles A's slab slot), then (3) cancels through the stale
        // A handle.  B must still fire.
        struct Reuser {
            first: Option<TimerId>,
            fired: u32,
        }
        impl Actor<TestMsg> for Reuser {
            fn on_message(&mut self, _f: Addr, _m: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                self.first = Some(ctx.set_timer(Duration::from_millis(1), TestMsg::Tick));
            }
            fn on_timer(&mut self, _id: TimerId, _m: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                self.fired += 1;
                if self.fired == 1 {
                    ctx.set_timer(Duration::from_millis(1), TestMsg::Tick);
                    // Cancelling the already-fired first id must not cancel
                    // the second timer, even though it reuses the slot.
                    ctx.cancel_timer(self.first.expect("first timer was set"));
                    // Cancel-twice on the stale handle is equally harmless.
                    ctx.cancel_timer(self.first.expect("first timer was set"));
                }
            }
        }
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            let actor = Box::new(Reuser {
                first: None,
                fired: 0,
            });
            s.register(addr(0), Region(0), CpuProfile::client(), actor);
            s.inject(addr(1), addr(0), TestMsg::Tick);
            s.run_until(END);
            assert_eq!(s.stats().timers_fired, 2, "recycled timer must still fire");
        }
        let seq = on_every_engine!(quiet(), 1, case);
        assert_eq!(seq.live_timers(), 0);
    }

    #[test]
    fn scheduled_crash_and_recovery_gate_deliveries() {
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            ping_pong(s, 0, 0);
            ping_pong(s, 1, 0);
            // Crash the receiver at 5 ms, recover it at 15 ms.
            s.set_fault_schedule(
                FaultSchedule::none()
                    .crash_at(ms(5), ClientId(1))
                    .recover_at(ms(15), ClientId(1)),
            );
            // Delivered at ~0: before the crash — goes through (plus its
            // pong).  At 10 ms: while crashed — dropped.  At 20 ms: after
            // recovery — goes through again.
            for (i, at) in [0, 10, 20].into_iter().enumerate() {
                s.inject_at(ms(at), addr(0), addr(1), TestMsg::Ping(i as u32));
            }
            s.run_until(END);
            // Pings 0 and 2 delivered and answered; ping 1 dropped.
            assert_eq!(s.stats().messages_delivered, 4);
            assert_eq!(s.stats().messages_dropped, 1);
        }
        let seq = on_every_engine!(quiet(), 1, case);
        assert!(!seq.faults().is_crashed(addr(1)));
    }

    #[test]
    fn crash_freezes_the_busy_window() {
        // A slow server (1 ms per message) receives 10 messages at t=0 and
        // crashes at 3.5 ms: only the work actually performed before the
        // crash may count as busy time, and post-recovery deliveries must
        // not queue behind the abandoned backlog.
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            let sink = Box::new(PingPong::default());
            s.register(addr(0), Region(0), slow(), sink);
            for i in 0..10 {
                s.inject_at(SimTime::ZERO, addr(1), addr(0), TestMsg::Pong(i));
            }
            let crash_at = SimTime::from_micros(3_500);
            s.set_fault_schedule(FaultSchedule::none().crash_at(crash_at, ClientId(0)));
            s.run_until(ms(50));
            // All ten were "delivered" at t=0 (service charged up front), but
            // the crash at 3.5 ms hands back the 6.5 ms of unperformed work.
            assert_eq!(s.stats().busy_time(addr(0)), Duration::from_micros(3_500));
        }
        on_every_engine!(local(), 3, case);
    }

    #[test]
    fn scheduled_partition_and_heal_gate_links() {
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            ping_pong(s, 0, 0);
            ping_pong(s, 1, 0);
            s.set_fault_schedule(
                FaultSchedule::none()
                    .partition_at(SimTime::ZERO, ClientId(0), ClientId(1))
                    .heal_at(ms(10), ClientId(0), ClientId(1)),
            );
            // A ping delivered at 2 ms (inject_at bypasses the link filter,
            // the actor's pong does not): the pong is dropped by the live
            // partition.
            s.inject_at(ms(2), addr(0), addr(1), TestMsg::Ping(0));
            s.run_until(ms(11));
            assert_eq!(s.stats().messages_delivered, 1, "pong dropped");
            assert_eq!(s.stats().messages_dropped, 1);
            // After healing, a ping round-trips again.
            s.inject_at(ms(12), addr(0), addr(1), TestMsg::Ping(1));
            s.run_until(END);
            assert_eq!(s.stats().messages_delivered, 3, "ping + pong after heal");
        }
        on_every_engine!(quiet(), 1, case);
    }

    #[test]
    fn delay_spike_slows_messages_then_ends() {
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            ping_pong(s, 0, 0);
            ping_pong(s, 1, 0);
            // Spike of +20 ms between 1 ms and 30 ms of virtual time.
            s.set_fault_schedule(
                FaultSchedule::none()
                    .delay_spike_at(ms(1), Duration::from_millis(20))
                    .delay_spike_at(ms(30), Duration::ZERO),
            );
            // The pings are delivered at 2 and 40 ms (inject_at bypasses the
            // network); the pongs are sent by the actor then.  The first
            // suffers the spike, the second leaves after it ended.
            s.inject_at(ms(2), addr(0), addr(1), TestMsg::Ping(0));
            s.inject_at(ms(40), addr(0), addr(1), TestMsg::Ping(1));
            s.run_until(END);
            let back = arrivals(s, 0);
            assert!(back[0] >= ms(22), "back={back:?}");
            assert!(back[1] < ms(41), "back={back:?}");
        }
        on_every_engine!(local(), 1, case);
    }

    #[test]
    fn timers_of_crashed_actors_are_silently_retired() {
        struct TimerLoop;
        impl Actor<TestMsg> for TimerLoop {
            fn on_message(&mut self, _f: Addr, _m: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                ctx.set_timer(Duration::from_millis(2), TestMsg::Tick);
            }
            fn on_timer(&mut self, _i: TimerId, _m: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                ctx.set_timer(Duration::from_millis(2), TestMsg::Tick);
            }
        }
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            // Two self-perpetuating 2 ms timer loops (on different partitions
            // when there are two); the second dies at its 5 ms crash and the
            // first is none the wiser.
            for i in 0..2 {
                s.register(
                    addr(i),
                    Region(0),
                    CpuProfile::client(),
                    Box::new(TimerLoop),
                );
                s.inject_at(SimTime::ZERO, addr(9), addr(i), TestMsg::Tick);
            }
            s.set_fault_schedule(FaultSchedule::none().crash_at(ms(5), ClientId(1)));
            s.run_until(ms(9));
            assert_eq!(
                s.stats().timers_fired,
                4 + 2,
                "at 2, 4, 6, 8 and at 2, 4 ms"
            );
        }
        let seq = on_every_engine!(quiet(), 1, case);
        assert_eq!(
            seq.live_timers(),
            1,
            "the dead loop's 6 ms timer was retired"
        );
    }

    #[test]
    fn equivocating_sender_duplicates_tamperable_messages_only() {
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            ping_pong(s, 0, 0);
            ping_pong(s, 1, 0);
            s.set_fault_schedule(
                FaultSchedule::none()
                    .equivocate_at(SimTime::ZERO, ClientId(0))
                    .stop_equivocate_at(ms(50), ClientId(0)),
            );
            // Reach t = 0 so the scheduled Equivocate applies before the send.
            s.run_until(SimTime::ZERO);
            // A ping from the equivocator gains a conflicting twin; both are
            // answered, but the pongs (sent by the honest addr(1)) are not
            // duplicated, and neither are post-stop pings.
            s.inject(addr(0), addr(1), TestMsg::Ping(1));
            s.run_until(ms(55));
            assert_eq!(s.stats().messages_delivered, 4, "2 pings + 2 pongs");
            s.inject(addr(0), addr(1), TestMsg::Ping(2));
            s.run_until(END);
            assert_eq!(s.stats().messages_delivered, 6, "no twin after stop");
        }
        let seq = on_every_engine!(quiet(), 1, case);
        assert!(!seq.faults().is_equivocating(addr(0)));
    }

    #[test]
    fn empty_schedule_leaves_runs_bit_identical() {
        let run = |with_empty_schedule: bool| {
            let mut s: Simulation<TestMsg> = Simulation::new(LatencyMatrix::nearby_regions(), 11);
            for i in 0..2 {
                let actor = Box::new(PingPong::default());
                s.register(addr(i), Region(i as u8), CpuProfile::server(), actor);
            }
            if with_empty_schedule {
                s.set_fault_schedule(FaultSchedule::none());
            }
            for i in 0..20 {
                s.inject(addr(0), addr(1), TestMsg::Ping(i));
            }
            s.run_to_completion(1000);
            (
                s.now(),
                s.stats().messages_delivered,
                s.stats().bytes_delivered,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn multicast_shares_one_payload_allocation() {
        // A fan-out actor multicasts one message to three sinks; the runtime
        // must deliver all three while the sender-side cost (send_time) is
        // charged per recipient exactly as before.
        struct FanOut;
        impl Actor<TestMsg> for FanOut {
            fn on_message(&mut self, _f: Addr, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                if matches!(msg, TestMsg::Tick) {
                    ctx.multicast([addr(1), addr(2), addr(3)], TestMsg::Ping(9));
                }
            }
            fn on_timer(&mut self, _i: TimerId, _m: TestMsg, _c: &mut Context<'_, TestMsg>) {}
        }
        fn case(s: &mut impl SimRuntime<TestMsg>, _partitions: u64) {
            s.register(addr(0), Region(0), CpuProfile::server(), Box::new(FanOut));
            for i in 1..=3 {
                ping_pong(s, i, 0);
            }
            s.inject(addr(9), addr(0), TestMsg::Tick);
            s.run_until(END);
            // Kick-off + 3 pings + 3 pongs back to the fan-out actor.
            assert_eq!(s.stats().messages_delivered, 7);
        }
        on_every_engine!(quiet(), 1, case);
    }
}
