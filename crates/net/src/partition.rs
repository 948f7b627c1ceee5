//! The partition core: the one event loop both engines are made of.
//!
//! A [`Partition`] is a slice of the actor population plus everything needed
//! to advance it without looking anywhere else: the actor slots, the event
//! queue, an RNG stream, the timer slab, a fault plan with its scripted
//! schedule and spike state, its own [`NetStats`], a clock, a routing table
//! and an outbox for events bound for other partitions.  Stepping, delivery,
//! timers, sends and scripted faults are written here and nowhere else:
//! [`Simulation`](crate::sim::Simulation) owns one partition and drains it
//! with no window, [`ParallelSimulation`](crate::psim::ParallelSimulation)
//! owns several and adds only the window protocol that keeps them in step.
//!
//! # Hot-path layout
//!
//! Addresses are interned at registration: every actor gets a dense `u32`
//! index within its partition, and the actor slots (trait object, region,
//! CPU profile, busy-until) live in a flat `Vec` indexed by it.  Events
//! carry the resolved index, so delivering a message or firing a timer costs
//! an array access instead of a hash-map probe; the only `Addr` hash left on
//! the hot path is the single recipient lookup when a send is scheduled.
//! Payloads travel in reference-counted [`Envelope`]s with memoized wire
//! metadata (see [`crate::envelope`]), and timer lifecycle is tracked by a
//! generation-checked slab (see [`crate::timer`]) so cancels are O(1) and
//! nothing accumulates over long runs.

use crate::addr::Addr;
use crate::cpu::{CpuProfile, MessageMeta};
use crate::envelope::Envelope;
use crate::event::{EventKind, EventQueue, TimerId};
use crate::fault::{FaultEvent, FaultPlan, FaultSchedule, SpikeState};
use crate::latency::LatencyMatrix;
use crate::sim::{Action, BoxedActor, Context};
use crate::stats::NetStats;
use crate::timer::TimerSlab;
use rand::rngs::StdRng;
use rand::SeedableRng;
use saguaro_types::hash::{mix64, FxHashMap};
use saguaro_types::{Region, SimTime};
use std::sync::Arc;

/// A bound no event time exceeds: draining up to it drains everything.
pub(crate) const FOREVER: SimTime = SimTime::from_micros(u64::MAX);

/// Where an address lives: its partition, its dense index *within* that
/// partition, and its region (resolved at send time without touching the
/// destination partition).
#[derive(Clone, Copy)]
pub(crate) struct RouteEntry {
    pub(crate) part: u32,
    pub(crate) local: u32,
    pub(crate) region: Region,
}

/// The `Addr → RouteEntry` table every partition resolves recipients in.
pub(crate) type Routing = FxHashMap<Addr, RouteEntry>;

/// A cross-partition event buffered in the sender's outbox until the next
/// window barrier.  `(dest, time, src, seq)` is the deterministic merge key.
pub(crate) struct Remote<M> {
    pub(crate) dest: u32,
    pub(crate) time: SimTime,
    pub(crate) src: u32,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind<M>,
}

struct ActorSlot<M> {
    actor: Option<BoxedActor<M>>,
    region: Region,
    cpu: CpuProfile,
    /// The node is busy processing earlier messages until this instant.
    busy_until: SimTime,
}

/// The RNG recipe: partition 0 draws from the run seed itself (so a
/// one-partition engine reproduces the historical sequential stream), every
/// other partition from a seed *mixed* out of `(seed, part)`.  Mixing, not
/// adding: the generator's state steps by a fixed increment, so seeds that
/// differ by a multiple of it are one stream read at different offsets.
fn partition_rng(seed: u64, part: u32) -> StdRng {
    StdRng::seed_from_u64(match part {
        0 => seed,
        p => mix64(mix64(seed) ^ u64::from(p)),
    })
}

/// One event shard; see the module docs.
pub(crate) struct Partition<M> {
    id: u32,
    slots: Vec<ActorSlot<M>>,
    pub(crate) queue: EventQueue<M>,
    rng: StdRng,
    pub(crate) timers: TimerSlab,
    pub(crate) faults: FaultPlan,
    /// Every partition holds the full scripted schedule and applies it
    /// against its private clock; fault events are pure state flips, so the
    /// copies stay in agreement without communication.
    schedule: FaultSchedule,
    /// Index of the next unapplied schedule entry.
    schedule_pos: usize,
    /// Live extra-delay state while [`FaultEvent::DelaySpike`]s are active.
    spikes: SpikeState,
    pub(crate) stats: NetStats,
    pub(crate) now: SimTime,
    /// Events scheduled for other partitions since the last merge.
    pub(crate) outbox: Vec<Remote<M>>,
    out_seq: u64,
    /// Events processed over the partition's lifetime.
    pub(crate) events: u64,
    /// The sole owner of a lone partition edits this table in place; the
    /// parallel engine hands all its partitions one shared snapshot.
    pub(crate) routing: Arc<Routing>,
    pub(crate) latency: Arc<LatencyMatrix>,
}

impl<M: MessageMeta + Clone + 'static> Partition<M> {
    pub(crate) fn new(id: u32, seed: u64, latency: Arc<LatencyMatrix>) -> Self {
        Self {
            id,
            slots: Vec::new(),
            queue: EventQueue::default(),
            rng: partition_rng(seed, id),
            timers: TimerSlab::default(),
            faults: FaultPlan::none(),
            schedule: FaultSchedule::none(),
            schedule_pos: 0,
            spikes: SpikeState::none(),
            stats: NetStats::default(),
            now: SimTime::ZERO,
            outbox: Vec::new(),
            out_seq: 0,
            events: 0,
            routing: Arc::default(),
            latency,
        }
    }

    /// Places an actor in slot `at` — replacing its occupant, which keeps the
    /// index and the accumulated statistics so in-flight events still
    /// resolve — or in a fresh slot.  Returns the slot index; recording it in
    /// the routing table is the owner's job.
    pub(crate) fn install(
        &mut self,
        at: Option<u32>,
        addr: Addr,
        region: Region,
        cpu: CpuProfile,
        actor: BoxedActor<M>,
    ) -> u32 {
        let slot = ActorSlot {
            actor: Some(actor),
            region,
            cpu,
            busy_until: SimTime::ZERO,
        };
        match at {
            Some(local) => {
                self.slots[local as usize] = slot;
                local
            }
            None => {
                self.slots.push(slot);
                self.stats.register(addr);
                self.slots.len() as u32 - 1
            }
        }
    }

    /// The actor handle in slot `local` (`None` while taken).
    pub(crate) fn actor_slot(&mut self, local: u32) -> &mut Option<BoxedActor<M>> {
        &mut self.slots[local as usize].actor
    }

    /// Installs a scripted fault schedule, to be applied from its start.
    pub(crate) fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.schedule = schedule;
        self.schedule_pos = 0;
    }

    /// Events waiting here: queued, or buffered for another partition.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len() + self.outbox.len()
    }

    /// A send made at `at` on behalf of `from` by the outside world.  It
    /// takes the path an actor's send takes, so latency, loss, spikes and
    /// equivocation apply and the draws come from this partition's stream.
    pub(crate) fn inject(&mut self, at: SimTime, from: Addr, to: Addr, msg: M) {
        let from_region = self.routing.get(&from).map_or(Region::LOCAL, |e| e.region);
        self.schedule_send(from, from_region, at, to, Envelope::new(msg));
    }

    /// Queues a delivery at the absolute time `at`, past the network model
    /// and the fault plan (harness kick-offs at staggered offsets).
    pub(crate) fn inject_at(&mut self, at: SimTime, from: Addr, to: Addr, msg: M) {
        self.stats.on_send();
        let kind = EventKind::Deliver {
            from,
            to,
            to_idx: self.local_of(to),
            env: Envelope::new(msg),
        };
        self.queue.push(at, kind);
    }

    /// The event loop: processes events in `(time, seq)` order while the head
    /// is at or before `last` and fewer than `budget` have run.  Returns
    /// events processed.
    pub(crate) fn drain(&mut self, last: SimTime, budget: u64) -> u64 {
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
        self.events += n;
        n
    }

    /// The clock has reached `deadline`: scripted faults up to it have
    /// happened even if no queue event was left to trigger them.
    pub(crate) fn advance_to(&mut self, deadline: SimTime) {
        self.now = self.now.max(deadline);
        if self.schedule_pos < self.schedule.len() {
            self.apply_faults_until(deadline);
        }
    }

    /// The slot of `addr`, if this partition hosts it.
    fn local_of(&self, addr: Addr) -> Option<u32> {
        self.routing
            .get(&addr)
            .and_then(|e| (e.part == self.id).then_some(e.local))
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
                    // Freeze the crashed node's busy window (if it lives
                    // here): queued work it had not yet performed must
                    // neither delay post-recovery deliveries nor count as
                    // busy time.
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
        // table only for recipients registered after the send.  A recipient
        // that turns out to live elsewhere is a drop: the event may not
        // change partitions once its window has been planned.
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
        let mut ctx = Context::enter(done, to, &mut self.rng, &mut self.timers);
        actor.on_message(from, env.into_payload(), &mut ctx);
        let actions = ctx.into_actions();
        self.slots[idx as usize].actor = Some(actor);
        self.apply_actions(to, idx, done, actions);
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
        let mut ctx = Context::enter(self.now, owner, &mut self.rng, &mut self.timers);
        actor.on_timer(id, msg, &mut ctx);
        let actions = ctx.into_actions();
        self.slots[owner_idx as usize].actor = Some(actor);
        self.apply_actions(owner, owner_idx, self.now, actions);
    }

    /// Carries out what `origin` asked for in a callback that completed at
    /// `at`.
    fn apply_actions(
        &mut self,
        origin: Addr,
        origin_idx: u32,
        at: SimTime,
        actions: Vec<Action<M>>,
    ) {
        let origin_region = self.slots[origin_idx as usize].region;
        for action in actions {
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
                    // Timers are always owner-local, so a zero or short delay
                    // landing inside the current window is safe.
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
        // Loss and latency draw from the *sender* partition's stream, which
        // keeps them independent of what other partitions do concurrently.
        if self.faults.should_drop(from, to, &mut self.rng) {
            self.stats.on_drop();
            return;
        }
        // Unknown destinations stay local and count as a drop at delivery
        // unless someone registers there first.
        let (dest, to_idx, to_region) = match self.routing.get(&to) {
            Some(e) => (e.part, Some(e.local), e.region),
            None => (self.id, None, Region::LOCAL),
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
        if dest == self.id {
            self.queue.push(at + delay, kind);
        } else {
            self.outbox.push(Remote {
                dest,
                time: at + delay,
                src: self.id,
                seq: self.out_seq,
                kind,
            });
            self.out_seq += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn partition_streams_are_not_one_stream_read_at_offsets() {
        // Partition 0 is the run's own stream; no stream's opening run of
        // draws shows up anywhere near the start of another.
        for seed in [1u64, 42, 0x9E37_79B9_7F4A_7C15] {
            let draws = |part: u32, n: usize| -> Vec<u64> {
                let mut rng = partition_rng(seed, part);
                (0..n).map(|_| rng.next_u64()).collect()
            };
            let mut run_seed = StdRng::seed_from_u64(seed);
            assert!(draws(0, 64).iter().all(|d| *d == run_seed.next_u64()));
            let heads: Vec<Vec<u64>> = (0..129).map(|p| draws(p, 64)).collect();
            for q in 0..129u32 {
                let long = draws(q, 512);
                for (p, head) in heads.iter().enumerate() {
                    assert!(
                        p as u32 == q || !long.windows(64).any(|w| w == head.as_slice()),
                        "seed {seed}: stream {p} is stream {q} at an offset"
                    );
                }
            }
        }
    }
}
