//! The actor interface and the event engine.
//!
//! [`Actor`]s communicate exclusively by sending messages and setting timers
//! through the [`Context`] handed to their callbacks, which keeps the whole
//! system deterministic: a simulation with the same seed and the same actor
//! logic always produces the same history.
//!
//! [`Simulation`] is the one event loop, the shape of a single-`BinaryHeap`
//! discrete-event engine: it owns the actor slots, the event queue ordered by
//! `(virtual time, insertion order)`, one RNG stream seeded with the run
//! seed, the timer slab, the [`FaultPlan`] with its scripted schedule and
//! spike state, the [`LatencyMatrix`], the per-actor [`CpuProfile`]s and the
//! [`NetStats`].  Stepping, delivery, timers, sends and scripted faults are
//! written here and nowhere else.  Neither the message type nor the actors
//! need to be thread-safe.
//!
//! # Hot-path layout
//!
//! Addresses are interned at registration: every actor gets a dense `u32`
//! index, and the actor slots (trait object, region, CPU profile, busy-until)
//! live in a flat `Vec` indexed by it.  Events carry the resolved index, so
//! delivering a message or firing a timer costs an array access instead of a
//! hash-map probe; the only `Addr` hash left on the hot path is the single
//! recipient lookup when a send is scheduled.  Payloads travel by value in
//! [`Envelope`]s with memoized wire metadata (see [`crate::envelope`]), and
//! timer lifecycle is tracked by a generation-checked slab (see
//! [`crate::timer`]) so cancels are O(1) and nothing accumulates over long
//! runs.  The engine itself allocates nothing per callback: every
//! [`Context`] borrows the simulation's one action buffer, which is drained
//! in place after the callback returns, so its capacity is paid for once per
//! run rather than once per event.

use crate::addr::Addr;
use crate::cpu::{CpuProfile, MessageMeta};
use crate::envelope::Envelope;
use crate::event::{EventKind, EventQueue, TimerId};
use crate::fault::{FaultEvent, FaultPlan, FaultSchedule, SpikeState};
use crate::latency::LatencyMatrix;
use crate::stats::NetStats;
use crate::timer::TimerSlab;
use rand::rngs::StdRng;
use rand::SeedableRng;
use saguaro_types::hash::FxHashMap;
use saguaro_types::{Duration, Region, SimTime};

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

/// The owned actor handle the simulation stores.
pub type BoxedActor<M> = Box<dyn Actor<M>>;

/// What an actor asked the runtime to do during a callback.
enum Action<M> {
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
    rng: &'a mut StdRng,
    timers: &'a mut TimerSlab,
    /// The engine's action buffer, lent for the callback.
    actions: &'a mut Vec<Action<M>>,
}

impl<'a, M> Context<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic random number generator: the simulation's one stream,
    /// seeded with the run seed and shared by every actor and by the
    /// network model's loss and latency draws.
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
    /// The payload is wrapped once, so its metadata is computed once; every
    /// recipient but the last gets a clone and the last gets the original.
    pub fn multicast<I>(&mut self, to: I, msg: M)
    where
        M: MessageMeta + Clone,
        I: IntoIterator,
        I::Item: Into<Addr>,
    {
        let mut to = to.into_iter();
        let Some(mut next) = to.next() else {
            return;
        };
        let env = Envelope::new(msg);
        for after in to {
            self.actions.push(Action::Send {
                to: next.into(),
                env: env.clone(),
            });
            next = after;
        }
        self.actions.push(Action::Send {
            to: next.into(),
            env,
        });
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
}

/// A bound no event time exceeds: draining up to it drains everything.
const FOREVER: SimTime = SimTime::from_micros(u64::MAX);

/// Where an address lives: its dense slot index and its region (resolved at
/// send time without touching the slot).
#[derive(Clone, Copy)]
struct RouteEntry {
    local: u32,
    region: Region,
}

struct ActorSlot<M> {
    actor: Option<BoxedActor<M>>,
    region: Region,
    cpu: CpuProfile,
    /// The node is busy processing earlier messages until this instant.
    busy_until: SimTime,
}

/// The simulation runtime; see the module docs.
pub struct Simulation<M> {
    slots: Vec<ActorSlot<M>>,
    queue: EventQueue<M>,
    rng: StdRng,
    timers: TimerSlab,
    faults: FaultPlan,
    /// The scripted schedule, applied against the clock.
    schedule: FaultSchedule,
    /// Index of the next unapplied schedule entry.
    schedule_pos: usize,
    /// Live extra-delay state while [`FaultEvent::DelaySpike`]s are active.
    spikes: SpikeState,
    stats: NetStats,
    now: SimTime,
    routing: FxHashMap<Addr, RouteEntry>,
    latency: LatencyMatrix,
    /// What the running callback asked for: lent to each [`Context`] and
    /// drained by `apply_actions`, so its capacity outlives the callback.
    actions: Vec<Action<M>>,
}

impl<M> Simulation<M> {
    /// Creates a simulation with the given latency model and RNG seed.
    pub fn new(latency: LatencyMatrix, seed: u64) -> Self {
        Self {
            slots: Vec::new(),
            queue: EventQueue::default(),
            rng: StdRng::seed_from_u64(seed),
            timers: TimerSlab::default(),
            faults: FaultPlan::none(),
            schedule: FaultSchedule::none(),
            schedule_pos: 0,
            spikes: SpikeState::none(),
            stats: NetStats::default(),
            now: SimTime::ZERO,
            routing: FxHashMap::default(),
            latency,
            actions: Vec::new(),
        }
    }
}

impl<M: MessageMeta + Clone + 'static> Simulation<M> {
    /// Registers an actor at `addr`, placed in `region`, with CPU profile
    /// `cpu`.  Re-registering an address replaces the previous actor (the
    /// address keeps its interned index and accumulated statistics, so
    /// in-flight events still resolve).
    pub fn register(
        &mut self,
        addr: impl Into<Addr>,
        region: Region,
        cpu: CpuProfile,
        actor: BoxedActor<M>,
    ) {
        let addr = addr.into();
        let slot = ActorSlot {
            actor: Some(actor),
            region,
            cpu,
            busy_until: SimTime::ZERO,
        };
        let local = match self.routing.get(&addr).copied() {
            Some(known) => {
                self.slots[known.local as usize] = slot;
                known.local
            }
            None => {
                self.slots.push(slot);
                self.stats.register(addr);
                self.slots.len() as u32 - 1
            }
        };
        self.routing.insert(addr, RouteEntry { local, region });
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.routing.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the collected statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable access to the fault plan (crash nodes, partition links, set
    /// drop probability).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Read access to the current fault state.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Installs a scripted fault schedule.  Events are applied in time order
    /// as the simulation clock reaches them; at any instant `t`, every event
    /// scheduled at or before `t` is applied *before* the queue entry at `t`
    /// is processed (a crash at the same instant as a delivery wins).  An
    /// empty schedule leaves the run bit-identical to a failure-free one.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.schedule = schedule;
        self.schedule_pos = 0;
    }

    /// The latency matrix in use.
    pub fn latency(&self) -> &LatencyMatrix {
        &self.latency
    }

    /// Number of timers currently pending (set but neither fired nor
    /// cancelled).
    pub fn live_timers(&self) -> usize {
        self.timers.live()
    }

    /// Injects a message from the outside world (the experiment harness) as
    /// if `from` had sent it; it is delivered to `to` after normal network
    /// latency and CPU service time.  It takes the path an actor's send
    /// takes, so loss, spikes and equivocation apply too.
    pub fn inject(&mut self, from: impl Into<Addr>, to: impl Into<Addr>, msg: M) {
        let from = from.into();
        let from_region = self.routing.get(&from).map_or(Region::LOCAL, |e| e.region);
        self.schedule_send(from, from_region, self.now, to.into(), Envelope::new(msg));
    }

    /// Injects a message that is delivered at an absolute virtual time,
    /// past the network model and the fault plan (used by the harness to
    /// start clients at staggered offsets).
    pub fn inject_at(&mut self, at: SimTime, from: impl Into<Addr>, to: impl Into<Addr>, msg: M) {
        let to = to.into();
        self.stats.on_send();
        let kind = EventKind::Deliver {
            from: from.into(),
            to,
            to_idx: self.local_of(to),
            env: Envelope::new(msg),
        };
        self.queue.push(at.max(self.now), kind);
    }

    /// Runs until the event queue is empty or `deadline` is reached,
    /// whichever comes first.  Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let processed = self.drain(deadline, u64::MAX);
        // The clock has reached the deadline: scripted faults up to it have
        // happened even if no queue event was left to trigger them.
        self.now = self.now.max(deadline);
        if self.schedule_pos < self.schedule.len() {
            self.apply_faults_until(deadline);
        }
        processed
    }

    /// Runs until no events remain.  Returns the number of events processed.
    /// `max_events` guards against protocol bugs that generate unbounded
    /// message storms.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        self.drain(FOREVER, max_events)
    }

    /// Processes a single event, if any.
    pub fn step(&mut self) -> bool {
        self.drain(FOREVER, 1) == 1
    }

    /// Gives the harness temporary access to a registered actor, e.g. to read
    /// measurement counters after the run.  Returns `None` for unknown
    /// addresses.
    pub fn with_actor<R>(
        &mut self,
        addr: impl Into<Addr>,
        f: impl FnOnce(&mut dyn Actor<M>) -> R,
    ) -> Option<R> {
        let local = self.local_of(addr.into())?;
        let actor = self.slots[local as usize].actor.as_mut()?;
        Some(f(actor.as_mut()))
    }

    /// Removes an actor and returns it (used by harnesses that downcast to a
    /// concrete type to extract results).
    pub fn take_actor(&mut self, addr: impl Into<Addr>) -> Option<BoxedActor<M>> {
        let local = self.local_of(addr.into())?;
        self.slots[local as usize].actor.take()
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The event loop: processes events in `(time, seq)` order while the head
    /// is at or before `last` and fewer than `budget` have run.  Returns
    /// events processed.
    fn drain(&mut self, last: SimTime, budget: u64) -> u64 {
        let mut n = 0;
        while n < budget {
            let Some(t) = self.queue.peek_time().filter(|t| *t <= last) else {
                break;
            };
            // Scripted faults scheduled at or before the event's time apply
            // first (a single bounds check when no schedule is set).
            if self.schedule_pos < self.schedule.len() {
                self.apply_faults_until(t);
            }
            // High-water mark of the queue, tracked per event so every
            // driver reports it.
            let pending = self.queue.len() as u64;
            if pending > self.stats.peak_pending_events {
                self.stats.peak_pending_events = pending;
            }
            let (time, kind) = self.queue.pop().expect("peeked event present");
            self.now = time;
            match kind {
                EventKind::Deliver {
                    from,
                    to,
                    to_idx,
                    env,
                } => self.deliver(from, to, to_idx, env),
                EventKind::Timer {
                    owner,
                    owner_idx,
                    id,
                    msg,
                } => self.fire_timer(owner, owner_idx, id, msg),
            }
            n += 1;
        }
        n
    }

    /// The slot of `addr`, if registered.
    fn local_of(&self, addr: Addr) -> Option<u32> {
        self.routing.get(&addr).map(|e| e.local)
    }

    /// Applies every scheduled fault event with time `≤ t`.
    fn apply_faults_until(&mut self, t: SimTime) {
        while let Some((at, event)) = self.schedule.events().get(self.schedule_pos) {
            if *at > t {
                break;
            }
            let (at, event) = (*at, event.clone());
            self.schedule_pos += 1;
            match event {
                FaultEvent::CrashActor(a) => {
                    self.faults.crash(a);
                    // Freeze the crashed node's busy window: queued work it
                    // had not yet performed must neither delay
                    // post-recovery deliveries nor count as busy time.
                    if let Some(idx) = self.local_of(a) {
                        let slot = &mut self.slots[idx as usize];
                        if slot.busy_until > at {
                            self.stats.trim_busy(idx, slot.busy_until - at);
                            slot.busy_until = at;
                        }
                    }
                }
                FaultEvent::RecoverActor(a) => self.faults.restart(a),
                FaultEvent::PartitionLink(a, b) => self.faults.partition(a, b),
                FaultEvent::HealLink(a, b) => self.faults.heal(a, b),
                FaultEvent::PartitionDomain(d) => self.faults.sever_domain(d),
                FaultEvent::HealDomain(d) => self.faults.rejoin_domain(d),
                FaultEvent::DelaySpike { scope, extra } => self.spikes.apply(&scope, extra),
                FaultEvent::Equivocate(a) => self.faults.equivocate(a),
                FaultEvent::StopEquivocate(a) => self.faults.stop_equivocate(a),
            }
        }
    }

    fn deliver(&mut self, from: Addr, to: Addr, to_idx: Option<u32>, env: Envelope<M>) {
        if self.faults.is_crashed(to) {
            self.stats.on_drop();
            return;
        }
        // The index was resolved at schedule time; fall back to the routing
        // table only for recipients registered after the send.
        let Some(idx) = to_idx.or_else(|| self.local_of(to)) else {
            self.stats.on_drop();
            return;
        };
        let slot = &mut self.slots[idx as usize];
        // FIFO single-server queueing: processing starts when the node is
        // free, completes after the service time; the callback observes the
        // completion time.
        let service = slot.cpu.service_time(env.wire_bytes(), env.signatures());
        let done = slot.busy_until.max(self.now) + service;
        slot.busy_until = done;
        self.stats
            .on_deliver(idx, env.wire_bytes(), service, env.is_state_transfer());

        let mut actor = slot.actor.take().expect("actor present outside callback");
        let mut ctx = Context {
            now: done,
            rng: &mut self.rng,
            timers: &mut self.timers,
            actions: &mut self.actions,
        };
        actor.on_message(from, env.into_payload(), &mut ctx);
        self.slots[idx as usize].actor = Some(actor);
        self.apply_actions(to, idx, done);
    }

    fn fire_timer(&mut self, owner: Addr, owner_idx: u32, id: TimerId, msg: M) {
        if !self.timers.retire(id) {
            // Cancelled (or stale) — never delivered.
            return;
        }
        if self.faults.is_crashed(owner) {
            return;
        }
        let Some(mut actor) = self.slots[owner_idx as usize].actor.take() else {
            return;
        };
        self.stats.on_timer();
        let mut ctx = Context {
            now: self.now,
            rng: &mut self.rng,
            timers: &mut self.timers,
            actions: &mut self.actions,
        };
        actor.on_timer(id, msg, &mut ctx);
        self.slots[owner_idx as usize].actor = Some(actor);
        self.apply_actions(owner, owner_idx, self.now);
    }

    /// Carries out what `origin` asked for in a callback that completed at
    /// `at`, draining the action buffer.  The buffer is moved out while it
    /// drains (scheduling needs `&mut self`) and put back empty, keeping its
    /// capacity for the next callback.
    fn apply_actions(&mut self, origin: Addr, origin_idx: u32, at: SimTime) {
        let origin_region = self.slots[origin_idx as usize].region;
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, env } => {
                    // Sending also costs the origin a little CPU, folded into
                    // busy_until so a node multicast-storm shows up as load.
                    let slot = &mut self.slots[origin_idx as usize];
                    let t = slot.cpu.send_time();
                    slot.busy_until = slot.busy_until.max(at) + t;
                    self.schedule_send(origin, origin_region, at, to, env);
                }
                Action::SetTimer { id, delay, msg } => {
                    let kind = EventKind::Timer {
                        owner: origin,
                        owner_idx: origin_idx,
                        id,
                        msg,
                    };
                    self.queue.push(at + delay, kind);
                }
                Action::CancelTimer { id } => {
                    self.timers.retire(id);
                }
            }
        }
        self.actions = actions;
    }

    fn schedule_send(
        &mut self,
        from: Addr,
        from_region: Region,
        at: SimTime,
        to: Addr,
        env: Envelope<M>,
    ) {
        // A Byzantine-equivocating sender also emits a conflicting twin of
        // every message that has a meaningful equivocation (e.g. a PBFT
        // pre-prepare with a mutated block).  The twin goes through the
        // normal scheduling path, so it draws its own latency and can
        // overtake the original at some recipients.
        if self.faults.is_equivocating(from) {
            if let Some(twin) = env.payload().tampered() {
                self.schedule_send_inner(from, from_region, at, to, Envelope::new(twin));
            }
        }
        self.schedule_send_inner(from, from_region, at, to, env);
    }

    fn schedule_send_inner(
        &mut self,
        from: Addr,
        from_region: Region,
        at: SimTime,
        to: Addr,
        env: Envelope<M>,
    ) {
        self.stats.on_send();
        if self.faults.should_drop(from, to, &mut self.rng) {
            self.stats.on_drop();
            return;
        }
        // Unknown destinations count as a drop at delivery unless someone
        // registers there first.
        let (to_idx, to_region) = match self.routing.get(&to) {
            Some(e) => (Some(e.local), e.region),
            None => (None, Region::LOCAL),
        };
        let delay = self
            .latency
            .one_way(from_region, to_region, env.wire_bytes(), &mut self.rng)
            + self.spikes.extra_for(from, to);
        let kind = EventKind::Deliver {
            from,
            to,
            to_idx,
            env,
        };
        self.queue.push(at + delay, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Jitter-free, so arrival times can be asserted exactly.
    fn sim() -> Simulation<TestMsg> {
        Simulation::new(LatencyMatrix::nearby_regions().with_jitter(0.0), 1)
    }

    /// One region, jitter-free.
    fn local() -> Simulation<TestMsg> {
        Simulation::new(LatencyMatrix::single_region().with_jitter(0.0), 3)
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

    fn ping_pong(s: &mut Simulation<TestMsg>, i: u64, region: u8) {
        let actor = Box::new(PingPong::default());
        s.register(addr(i), Region(region), CpuProfile::client(), actor);
    }

    /// When each message reached the `PingPong` at `addr(i)`.
    fn arrivals(s: &mut Simulation<TestMsg>, i: u64) -> Vec<SimTime> {
        s.with_actor(addr(i), |a| {
            let any = a.as_any().expect("inspectable");
            any.downcast_mut::<PingPong>()
                .expect("a PingPong")
                .deliveries
                .clone()
        })
        .expect("registered")
    }

    #[test]
    fn ping_pong_round_trip_takes_one_rtt_plus_service() {
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        ping_pong(&mut s, 1, 2);
        s.inject(addr(0), addr(1), TestMsg::Ping(7));
        s.run_until(END);
        assert_eq!(s.stats().messages_delivered, 2);
        // FR -> LDN one-way is 8.5 ms; the pong is back after ≥ 17 ms.
        let back = arrivals(&mut s, 0)[0];
        assert!(back >= SimTime::from_micros(17_000), "{back:?}");
        assert!(back < SimTime::from_micros(19_000), "{back:?}");
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
        let mut s = sim();
        s.register(
            addr(0),
            Region(0),
            CpuProfile::client(),
            Box::new(TimerSetter),
        );
        s.inject(addr(1), addr(0), TestMsg::Tick);
        s.run_until(END);
        assert_eq!(s.stats().timers_fired, 1);
        assert_eq!(s.live_timers(), 0, "fired + cancelled timers both retire");
    }

    /// The action buffer is shared by every callback: a multicast to eight
    /// peers, then a callback of another actor that emits nothing, then the
    /// first actor's timer.  Each action is applied once, from the actor that
    /// asked for it, at the time its own callback completed.
    #[test]
    fn the_recycled_action_buffer_applies_each_action_once_from_its_origin() {
        /// Multicasts `Ping(1)` and arms a 50 ms timer; the timer sends
        /// `Ping(2)` to the first peer.
        struct Hub(Vec<Addr>);
        impl Actor<TestMsg> for Hub {
            fn on_message(&mut self, _f: Addr, _m: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                ctx.multicast(self.0.iter().copied(), TestMsg::Ping(1));
                ctx.set_timer(Duration::from_millis(50), TestMsg::Tick);
            }
            fn on_timer(&mut self, _i: TimerId, _m: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                ctx.send(self.0[0], TestMsg::Ping(2));
            }
        }
        /// Emits nothing; records `(from, ping number, arrival)`.
        #[derive(Default)]
        struct Sink(Vec<(Addr, u32, SimTime)>);
        impl Actor<TestMsg> for Sink {
            fn on_message(&mut self, from: Addr, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                let n = match msg {
                    TestMsg::Ping(n) => n,
                    _ => 0,
                };
                self.0.push((from, n, ctx.now()));
            }
            fn on_timer(&mut self, _i: TimerId, _m: TestMsg, _c: &mut Context<'_, TestMsg>) {}
            fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }
        let (hub, quiet) = (addr(100), addr(101));
        let peers: Vec<Addr> = (0..8).map(addr).collect();
        let mut s = local();
        for p in &peers {
            s.register(*p, Region(0), CpuProfile::client(), Box::<Sink>::default());
        }
        s.register(hub, Region(0), slow(), Box::new(Hub(peers.clone())));
        s.register(quiet, Region(0), slow(), Box::<Sink>::default());
        s.inject_at(ms(1), addr(200), hub, TestMsg::Tick);
        s.inject_at(ms(3), addr(200), quiet, TestMsg::Tick);
        s.run_until(END);

        let mut received = |a: Addr| {
            s.with_actor(a, |actor| {
                let any = actor.as_any().expect("inspectable");
                any.downcast_mut::<Sink>().expect("a Sink").0.clone()
            })
            .expect("registered")
        };
        let quiet_got = received(quiet);
        assert_eq!(quiet_got.len(), 1, "{quiet_got:?}");
        let first = received(peers[0]);
        assert_eq!(
            first.len(),
            2,
            "one multicast copy, one timer send: {first:?}"
        );
        let multicast_at = first[0].2;
        assert_eq!((first[0].0, first[0].1), (hub, 1));
        // The timer was armed when the hub's callback completed, so its send
        // arrives exactly 50 ms after the multicast copy.
        assert_eq!((first[1].0, first[1].1), (hub, 2));
        assert_eq!(first[1].2, multicast_at + Duration::from_millis(50));
        for p in &peers[1..] {
            assert_eq!(received(*p), vec![(hub, 1, multicast_at)], "{p:?}");
        }
        assert_eq!(s.stats().messages_delivered, 2 + 8 + 1);
        assert_eq!(s.stats().timers_fired, 1);
        assert_eq!(s.live_timers(), 0);
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
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        s.inject(addr(0), addr(9), TestMsg::Ping(1));
        s.run_until(END);
        assert_eq!(s.stats().messages_delivered, 0);
        assert_eq!(s.stats().messages_dropped, 1);
    }

    #[test]
    fn recipient_registered_after_send_still_receives() {
        // The cached index is a hint, not a requirement: an actor registered
        // between schedule and delivery is resolved the cold way.
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        s.inject(addr(0), addr(4), TestMsg::Ping(1));
        ping_pong(&mut s, 4, 0);
        s.run_until(END);
        assert_eq!(s.stats().messages_delivered, 2, "ping + pong");
        assert_eq!(s.stats().messages_dropped, 0);
    }

    #[test]
    fn re_registration_replaces_the_actor_and_keeps_the_index() {
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        ping_pong(&mut s, 1, 0);
        s.inject(addr(1), addr(0), TestMsg::Tick);
        s.run_until(ms(10));
        assert_eq!(s.stats().messages_delivered, 1);
        // Replace the actor behind addr(0); the address keeps its interned
        // slot and its accumulated statistics.
        ping_pong(&mut s, 0, 0);
        assert_eq!(s.actor_count(), 2, "re-registration must not grow tables");
        s.inject(addr(1), addr(0), TestMsg::Tick);
        s.run_until(ms(20));
        assert_eq!(s.stats().messages_delivered, 2);
        assert_eq!(arrivals(&mut s, 0).len(), 1, "the replacement saw one");
    }

    #[test]
    fn fifo_queueing_serialises_busy_node() {
        // A server with a large per-message cost receives 10 messages at the
        // same instant; the last delivery must observe 10x the service time.
        let mut s = local();
        s.register(addr(0), Region(0), slow(), Box::new(PingPong::default()));
        for i in 0..10 {
            s.inject_at(SimTime::ZERO, addr(1), addr(0), TestMsg::Pong(i));
        }
        s.run_until(END);
        // All ten were delivered and the node accumulated 10 x 1 ms of work;
        // the last callback observed the queueing delay.
        assert_eq!(s.stats().messages_delivered, 10);
        assert_eq!(s.stats().busy_time(addr(0)), Duration::from_millis(10));
        assert_eq!(arrivals(&mut s, 0).last(), Some(&ms(10)));
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
    fn messages_and_actors_need_not_be_send() {
        // The engine puts no thread-safety bound on `M` or on the actors.
        #[derive(Clone)]
        struct Local(std::rc::Rc<u32>);
        impl MessageMeta for Local {
            fn wire_bytes(&self) -> usize {
                8
            }
        }
        struct Sum(std::rc::Rc<std::cell::Cell<u32>>);
        impl Actor<Local> for Sum {
            fn on_message(&mut self, _from: Addr, msg: Local, _ctx: &mut Context<'_, Local>) {
                self.0.set(self.0.get() + *msg.0);
            }
            fn on_timer(&mut self, _id: TimerId, _msg: Local, _ctx: &mut Context<'_, Local>) {}
        }
        let total = std::rc::Rc::default();
        let mut s = Simulation::new(LatencyMatrix::single_region(), 1);
        let sum = Box::new(Sum(std::rc::Rc::clone(&total)));
        s.register(addr(0), Region(0), CpuProfile::client(), sum);
        s.inject(addr(1), addr(0), Local(std::rc::Rc::new(5)));
        assert_eq!(s.run_to_completion(10), 1);
        assert_eq!(total.get(), 5);
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
        let mut s = sim();
        let actor = Box::new(Reuser {
            first: None,
            fired: 0,
        });
        s.register(addr(0), Region(0), CpuProfile::client(), actor);
        s.inject(addr(1), addr(0), TestMsg::Tick);
        s.run_until(END);
        assert_eq!(s.stats().timers_fired, 2, "recycled timer must still fire");
        assert_eq!(s.live_timers(), 0);
    }

    #[test]
    fn scheduled_crash_and_recovery_gate_deliveries() {
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        ping_pong(&mut s, 1, 0);
        // Crash the receiver at 5 ms, recover it at 15 ms.
        s.set_fault_schedule(
            FaultSchedule::none()
                .crash_at(ms(5), ClientId(1))
                .recover_at(ms(15), ClientId(1)),
        );
        // Delivered at ~0: before the crash — goes through (plus its pong).
        // At 10 ms: while crashed — dropped.  At 20 ms: after recovery —
        // goes through again.
        for (i, at) in [0, 10, 20].into_iter().enumerate() {
            s.inject_at(ms(at), addr(0), addr(1), TestMsg::Ping(i as u32));
        }
        s.run_until(END);
        // Pings 0 and 2 delivered and answered; ping 1 dropped.
        assert_eq!(s.stats().messages_delivered, 4);
        assert_eq!(s.stats().messages_dropped, 1);
        assert!(!s.faults().is_crashed(addr(1)));
    }

    #[test]
    fn crash_freezes_the_busy_window() {
        // A slow server (1 ms per message) receives 10 messages at t=0 and
        // crashes at 3.5 ms: only the work actually performed before the
        // crash may count as busy time, and post-recovery deliveries must
        // not queue behind the abandoned backlog.
        let mut s = local();
        s.register(addr(0), Region(0), slow(), Box::new(PingPong::default()));
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

    #[test]
    fn scheduled_partition_and_heal_gate_links() {
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        ping_pong(&mut s, 1, 0);
        s.set_fault_schedule(
            FaultSchedule::none()
                .partition_at(SimTime::ZERO, ClientId(0), ClientId(1))
                .heal_at(ms(10), ClientId(0), ClientId(1)),
        );
        // A ping delivered at 2 ms (inject_at bypasses the link filter, the
        // actor's pong does not): the pong is dropped by the live partition.
        s.inject_at(ms(2), addr(0), addr(1), TestMsg::Ping(0));
        s.run_until(ms(11));
        assert_eq!(s.stats().messages_delivered, 1, "pong dropped");
        assert_eq!(s.stats().messages_dropped, 1);
        // After healing, a ping round-trips again.
        s.inject_at(ms(12), addr(0), addr(1), TestMsg::Ping(1));
        s.run_until(END);
        assert_eq!(s.stats().messages_delivered, 3, "ping + pong after heal");
    }

    #[test]
    fn delay_spike_slows_messages_then_ends() {
        let mut s = Simulation::new(LatencyMatrix::single_region().with_jitter(0.0), 1);
        ping_pong(&mut s, 0, 0);
        ping_pong(&mut s, 1, 0);
        // Spike of +20 ms between 1 ms and 30 ms of virtual time.
        s.set_fault_schedule(
            FaultSchedule::none()
                .delay_spike_at(ms(1), Duration::from_millis(20))
                .delay_spike_at(ms(30), Duration::ZERO),
        );
        // The pings are delivered at 2 and 40 ms (inject_at bypasses the
        // network); the pongs are sent by the actor then.  The first suffers
        // the spike, the second leaves after it ended.
        s.inject_at(ms(2), addr(0), addr(1), TestMsg::Ping(0));
        s.inject_at(ms(40), addr(0), addr(1), TestMsg::Ping(1));
        s.run_until(END);
        let back = arrivals(&mut s, 0);
        assert!(back[0] >= ms(22), "back={back:?}");
        assert!(back[1] < ms(41), "back={back:?}");
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
        // Two self-perpetuating 2 ms timer loops; the second dies at its
        // 5 ms crash and the first is none the wiser.
        let mut s = sim();
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
        assert_eq!(s.live_timers(), 1, "the dead loop's 6 ms timer was retired");
    }

    #[test]
    fn equivocating_sender_duplicates_tamperable_messages_only() {
        let mut s = sim();
        ping_pong(&mut s, 0, 0);
        ping_pong(&mut s, 1, 0);
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
        assert!(!s.faults().is_equivocating(addr(0)));
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

    /// A payload that counts its clones and knows whether it is one.
    #[derive(Debug)]
    struct Counted {
        original: bool,
        clones: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            Self {
                original: false,
                clones: self.clones.clone(),
            }
        }
    }

    impl MessageMeta for Counted {
        fn wire_bytes(&self) -> usize {
            100
        }
        fn signatures(&self) -> usize {
            1
        }
    }

    /// On its first message, passes that message on to `to`: one address is
    /// a unicast, several a multicast in the order given.
    struct Relay {
        to: Vec<Addr>,
    }

    impl Actor<Counted> for Relay {
        fn on_message(&mut self, _f: Addr, msg: Counted, ctx: &mut Context<'_, Counted>) {
            match std::mem::take(&mut self.to)[..] {
                [] => {}
                [one] => ctx.send(one, msg),
                ref many => ctx.multicast(many.iter().copied(), msg),
            }
        }
        fn on_timer(&mut self, _i: TimerId, _m: Counted, _c: &mut Context<'_, Counted>) {}
    }

    /// Records, per delivery, whether the payload was the original.
    #[derive(Default)]
    struct Keeper {
        got: Vec<bool>,
    }

    impl Actor<Counted> for Keeper {
        fn on_message(&mut self, _f: Addr, msg: Counted, _c: &mut Context<'_, Counted>) {
            self.got.push(msg.original);
        }
        fn on_timer(&mut self, _i: TimerId, _m: Counted, _c: &mut Context<'_, Counted>) {}
        fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    /// A multicast to `n` recipients clones the payload `n − 1` times and the
    /// last recipient receives the original; a unicast never clones.
    #[test]
    fn a_multicast_clones_for_all_but_the_last_recipient_and_a_unicast_never() {
        for n in [1u64, 2, 3] {
            let clones = std::rc::Rc::default();
            let mut s = Simulation::new(LatencyMatrix::nearby_regions().with_jitter(0.0), 1);
            let to: Vec<Addr> = (1..=n).map(addr).collect();
            s.register(
                addr(0),
                Region(0),
                CpuProfile::server(),
                Box::new(Relay { to }),
            );
            for i in 1..=n {
                s.register(
                    addr(i),
                    Region(0),
                    CpuProfile::server(),
                    Box::<Keeper>::default(),
                );
            }
            let msg = Counted {
                original: true,
                clones: std::rc::Rc::clone(&clones),
            };
            s.inject(addr(9), addr(0), msg);
            s.run_until(END);
            assert_eq!(s.stats().messages_delivered, 1 + n);
            assert_eq!(clones.get() as u64, n - 1, "{n} recipients");
            let got: Vec<Vec<bool>> = (1..=n)
                .map(|i| {
                    s.with_actor(addr(i), |a| {
                        let any = a.as_any().expect("inspectable");
                        any.downcast_mut::<Keeper>().expect("a Keeper").got.clone()
                    })
                    .expect("registered")
                })
                .collect();
            let last_only = (1..=n).map(|i| vec![i == n]).collect::<Vec<_>>();
            assert_eq!(got, last_only, "{n} recipients");
        }
    }

    /// A jittery, lossy, fault-scripted run whose every counter and every
    /// actor's history is pinned: a change to an RNG draw, a tie order or
    /// fault timing anywhere in the event loop moves one of them.
    mod stormy {
        use super::*;
        use saguaro_types::hash::FxHasher;
        use saguaro_types::{DomainId, NodeId};
        use std::hash::{Hash, Hasher};

        #[derive(Clone, Debug)]
        enum Msg {
            Ping(u32),
            Pong(u32),
        }

        impl MessageMeta for Msg {
            fn wire_bytes(&self) -> usize {
                128
            }
            fn signatures(&self) -> usize {
                1
            }
            fn tampered(&self) -> Option<Self> {
                match self {
                    Msg::Ping(hops) => Some(Msg::Pong(*hops)),
                    Msg::Pong(_) => None,
                }
            }
        }

        /// Replies to pings until a hop budget runs out; records everything.
        /// Every third message also sets two timers and cancels one of them;
        /// a timer that fires passes the baton on with one hop left.
        struct Bouncer {
            me: Addr,
            peer: Addr,
            history: Vec<(Addr, SimTime)>,
        }

        impl Actor<Msg> for Bouncer {
            fn on_message(&mut self, from: Addr, msg: Msg, ctx: &mut Context<'_, Msg>) {
                self.history.push((from, ctx.now()));
                if self.history.len().is_multiple_of(3) {
                    ctx.set_timer(Duration::from_millis(7), Msg::Ping(1));
                    let cancelled = ctx.set_timer(Duration::from_millis(3), Msg::Ping(1));
                    ctx.cancel_timer(cancelled);
                }
                match msg {
                    Msg::Ping(hops) if hops > 0 => ctx.send(self.peer, Msg::Pong(hops - 1)),
                    Msg::Pong(hops) if hops > 0 => ctx.send(self.peer, Msg::Ping(hops - 1)),
                    _ => {}
                }
            }
            fn on_timer(&mut self, _id: TimerId, msg: Msg, ctx: &mut Context<'_, Msg>) {
                self.history.push((self.me, ctx.now()));
                ctx.send(self.peer, msg);
            }
            fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }

        /// Events processed by the two run calls, the public counters, and
        /// a digest of what each of the 16 bouncers saw, when, and how long
        /// it was busy.
        fn fingerprint(sim: &mut Simulation<Msg>, events: [u64; 2]) -> ([u64; 10], u64) {
            let s = sim.stats();
            let counters = [
                events[0],
                events[1],
                s.messages_sent,
                s.messages_delivered,
                s.messages_dropped,
                s.bytes_delivered,
                s.state_messages_delivered,
                s.state_bytes_delivered,
                s.timers_fired,
                s.peak_pending_events,
            ];
            let mut digest = FxHasher::default();
            for i in 0..16 {
                let history = sim
                    .with_actor(addr(i), |actor| {
                        let any = actor.as_any().expect("inspectable");
                        any.downcast_mut::<Bouncer>()
                            .expect("a bouncer")
                            .history
                            .clone()
                    })
                    .expect("registered");
                (history, sim.stats().busy_time(addr(i))).hash(&mut digest);
            }
            (counters, digest.finish())
        }

        /// A 16-bouncer ring over the matrix's four regions (plus one
        /// replica they all write to) with 5 % loss, under a crash and
        /// recovery, a link partition and heal, a domain spike and an
        /// equivocation window, with one `inject` made between two
        /// `run_until` calls.
        fn stormy_run(seed: u64) -> ([u64; 10], u64) {
            let mut sim = Simulation::new(LatencyMatrix::nearby_regions(), seed);
            sim.faults_mut().set_drop_probability(0.05);
            for i in 0..16 {
                let bouncer = Bouncer {
                    me: addr(i),
                    peer: addr((i + 1) % 16),
                    history: Vec::new(),
                };
                let region = Region((i % 4) as u8);
                sim.register(addr(i), region, CpuProfile::default(), Box::new(bouncer));
            }
            let replica = NodeId::new(DomainId::new(1, 0), 0);
            let bouncer = Bouncer {
                me: replica.into(),
                peer: addr(0),
                history: Vec::new(),
            };
            sim.register(replica, Region(1), CpuProfile::server(), Box::new(bouncer));
            sim.set_fault_schedule(
                FaultSchedule::none()
                    .crash_at(ms(20), addr(3))
                    .recover_at(ms(60), addr(3))
                    .partition_at(ms(30), addr(5), addr(6))
                    .heal_at(ms(70), addr(5), addr(6))
                    .domain_spike_at(ms(10), [replica.domain], Duration::from_millis(4))
                    .domain_spike_at(ms(90), [replica.domain], Duration::ZERO)
                    .equivocate_at(ms(40), addr(8))
                    .stop_equivocate_at(ms(120), addr(8)),
            );
            for i in 0..16 {
                sim.inject(addr(i), addr((i + 5) % 16), Msg::Ping(60));
                sim.inject_at(ms(i), addr(i), Addr::Node(replica), Msg::Ping(3));
            }
            let first = sim.run_until(ms(100));
            sim.inject(addr(8), addr(9), Msg::Ping(30));
            let second = sim.run_until(ms(400));
            fingerprint(&mut sim, [first, second])
        }

        #[test]
        fn stormy_run_is_pinned() {
            let goldens: [(u64, [u64; 10], u64); 3] = [
                (
                    3,
                    [560, 1246, 1142, 1056, 80, 135_168, 0, 0, 374, 66],
                    14_819_991_721_707_834_921,
                ),
                (
                    17,
                    [450, 826, 767, 701, 59, 89_728, 0, 0, 286, 53],
                    739_968_856_868_163_183,
                ),
                (
                    4242,
                    [524, 742, 795, 711, 82, 91_008, 0, 0, 276, 65],
                    16_616_574_962_829_046_969,
                ),
            ];
            for (seed, counters, digest) in goldens {
                assert_eq!(stormy_run(seed), (counters, digest), "seed {seed}");
            }
        }
    }
}
