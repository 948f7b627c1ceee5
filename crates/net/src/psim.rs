//! Conservative parallel discrete-event engine.
//!
//! [`ParallelSimulation`] shards the actor population over several
//! partitions of the event core (`partition.rs`) — the harness maps each
//! height-1 edge domain to its own partition and everything else (root/LCA
//! committees, clients) to partition 0 — and advances them on worker threads
//! under a conservative time-window protocol:
//!
//! 1. The coordinator merges every outbox into its destination queue in
//!    deterministic `(destination, time, source partition, sequence)` order,
//!    so arrival tie-breaks never depend on thread scheduling, then scans the
//!    queues for the global minimum event time `m` and announces the window
//!    `[m, m + lookahead)`, where `lookahead = LatencyMatrix::min_one_way()`
//!    (no message sent at `t` can arrive anywhere before `t + lookahead`, see
//!    [`crate::latency`]).
//! 2. Workers claim partitions and drain each local queue up to the window
//!    end.  Same-partition sends go straight into the local queue; sends to
//!    another partition are buffered in the sender's outbox.  Both are safe:
//!    every send lands at or beyond the window end, and timers are always
//!    owner-local.
//! 3. At the barrier the coordinator starts over at step 1.
//!
//! Everything an event does — delivery, timers, sends, scripted faults — is
//! the core's code, the same the sequential [`Simulation`] runs, and touches
//! only the partition's own queue, RNG stream, timer slab and statistics, so
//! the intra-window hot path shares no state at all.  The result is
//! bit-reproducible per seed and invariant to the worker-thread count.
//!
//! A one-partition engine has nobody to wait for: its window is the whole
//! run, its stream is the run seed's, and it is bit-for-bit [`Simulation`].
//! With more partitions each one draws latency and loss from its own stream
//! and same-instant arrivals from other partitions are ordered by the merge
//! key rather than by global send order, so a many-partition run is its own
//! deterministic mode: it agrees with the sequential engine exactly only
//! where no randomness and no cross-partition tie is involved.
//!
//! [`Simulation`]: crate::sim::Simulation

use crate::addr::Addr;
use crate::cpu::{CpuProfile, MessageMeta};
use crate::fault::FaultSchedule;
use crate::latency::LatencyMatrix;
use crate::partition::{Partition, Remote, RouteEntry, Routing, FOREVER};
use crate::sim::{Actor, BoxedActor, SimRuntime};
use crate::stats::{NetStats, PdesRunStats};
use parking_lot::Mutex;
use saguaro_types::{Duration, Region, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The many-partition counterpart of [`Simulation`](crate::sim::Simulation);
/// see the module docs for the protocol.  Construct with a partition-routing
/// function, then drive through the shared [`SimRuntime`] surface.
pub struct ParallelSimulation<M> {
    parts: Vec<Mutex<Partition<M>>>,
    route: Box<dyn Fn(Addr) -> u32 + Send + Sync>,
    /// The master routing table; partitions hold a shared snapshot, refreshed
    /// lazily when registrations dirty it.
    index: Routing,
    /// Registration order, so merged stats intern addresses deterministically.
    reg_order: Vec<Addr>,
    routing_dirty: bool,
    latency: Arc<LatencyMatrix>,
    lookahead: Duration,
    workers: usize,
    now: SimTime,
    /// Network-wide view, rebuilt from the per-partition blocks after each
    /// run call.
    merged: NetStats,
    pdes: PdesRunStats,
    /// High-water mark of events pending across *all* partitions, sampled
    /// when a window is planned.
    peak_pending: u64,
}

impl<M: MessageMeta + Clone + Send + Sync + 'static> ParallelSimulation<M> {
    /// Creates a parallel simulation with `partitions` shards and `workers`
    /// threads.  `route` maps an address to its partition; the mapping must
    /// be total, stable for the lifetime of the run and stay below
    /// `partitions`.  `workers` of `0` or `1` runs the identical window
    /// protocol inline on the calling thread.
    ///
    /// # Panics
    ///
    /// If `partitions` is zero.
    pub fn new(
        latency: LatencyMatrix,
        seed: u64,
        partitions: usize,
        workers: usize,
        route: impl Fn(Addr) -> u32 + Send + Sync + 'static,
    ) -> Self {
        assert!(partitions > 0, "a simulation needs at least one partition");
        // A zero lookahead would stall the window protocol; clamp to 1µs so
        // windows always advance (built-in matrices floor at 250µs anyway).
        let lookahead = Duration::from_micros(latency.min_one_way().as_micros().max(1));
        let latency = Arc::new(latency);
        let parts = (0..partitions as u32)
            .map(|p| Mutex::new(Partition::new(p, seed, Arc::clone(&latency))))
            .collect();
        Self {
            parts,
            route: Box::new(route),
            index: Routing::default(),
            reg_order: Vec::new(),
            routing_dirty: false,
            latency,
            lookahead,
            workers,
            now: SimTime::ZERO,
            merged: NetStats::default(),
            pdes: PdesRunStats {
                partitions,
                lookahead_us: lookahead.as_micros(),
                partition_events: vec![0; partitions],
                ..PdesRunStats::default()
            },
            peak_pending: 0,
        }
    }

    /// The lookahead bound windows advance by.
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Current virtual time (the maximum any partition has reached, or the
    /// deadline after a bounded run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The latency matrix in use.
    pub fn latency(&self) -> &LatencyMatrix {
        &self.latency
    }

    /// Registers an actor on the partition the routing function names; a
    /// replacement keeps the original partition and index, as in
    /// [`Simulation::register`](crate::sim::Simulation::register).
    ///
    /// # Panics
    ///
    /// If the routing function names a partition the engine does not have.
    pub fn register(
        &mut self,
        addr: impl Into<Addr>,
        region: Region,
        cpu: CpuProfile,
        actor: BoxedActor<M>,
    ) {
        let addr = addr.into();
        let (routed, n) = ((self.route)(addr), self.parts.len());
        assert!(
            (routed as usize) < n,
            "route returned partition {routed} for {addr:?}, but the engine has {n}"
        );
        let (part, known) = match self.index.get(&addr) {
            Some(e) => (e.part, Some(e.local)),
            None => (routed, None),
        };
        let local = self.parts[part as usize]
            .lock()
            .install(known, addr, region, cpu, actor);
        let entry = RouteEntry {
            part,
            local,
            region,
        };
        if self.index.insert(addr, entry).is_none() {
            self.reg_order.push(addr);
        }
        self.routing_dirty = true;
    }

    /// Removes an actor and returns it (post-run result extraction).
    pub fn take_actor(&mut self, addr: impl Into<Addr>) -> Option<BoxedActor<M>> {
        let e = *self.index.get(&addr.into())?;
        self.parts[e.part as usize]
            .lock()
            .actor_slot(e.local)
            .take()
    }

    /// Runs until no events remain or `max_events` have been processed.
    /// Each partition may spend what is left of the budget within a window,
    /// so a many-partition run can overshoot by up to one window's events —
    /// by the same amount whatever the worker count; a one-partition run
    /// stops exactly.  Returns events processed.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        self.run_windows(None, max_events)
    }

    /// Pushes the freshest routing snapshot into every partition.
    fn ensure_routing(&mut self) {
        if !self.routing_dirty {
            return;
        }
        let table = Arc::new(self.index.clone());
        for p in &mut self.parts {
            p.lock().routing = Arc::clone(&table);
        }
        self.routing_dirty = false;
    }

    /// Scans all partitions for the global minimum event time `m` and records
    /// the pending high-water mark.  Returns the last instant of the window
    /// `[m, m + lookahead)`, capped at `deadline`, or `None` when nothing is
    /// left to run by then.
    fn plan_window(
        parts: &[Mutex<Partition<M>>],
        deadline: SimTime,
        lookahead: Duration,
        peak: &mut u64,
    ) -> Option<SimTime> {
        let mut min_t: Option<SimTime> = None;
        let mut pending = 0u64;
        for p in parts {
            let part = p.lock();
            pending += part.queue.len() as u64;
            if let Some(t) = part.queue.peek_time() {
                min_t = Some(min_t.map_or(t, |m| m.min(t)));
            }
        }
        *peak = (*peak).max(pending);
        let min_t = min_t.filter(|t| *t <= deadline)?;
        if parts.len() == 1 {
            // Nothing can arrive from elsewhere: the window is the whole run.
            return Some(deadline);
        }
        let last = min_t.as_micros().saturating_add(lookahead.as_micros() - 1);
        Some(SimTime::from_micros(last).min(deadline))
    }

    /// Drains every outbox and pushes the buffered events into their
    /// destination queues in `(dest, time, src, seq)` order — the step that
    /// makes arrival tie-breaks independent of thread scheduling.
    fn merge_mailboxes(parts: &[Mutex<Partition<M>>], pdes: &mut PdesRunStats) {
        let mut all: Vec<Remote<M>> = Vec::new();
        for p in parts {
            all.append(&mut p.lock().outbox);
        }
        if all.is_empty() {
            return;
        }
        pdes.cross_messages += all.len() as u64;
        all.sort_by_key(|a| (a.dest, a.time, a.src, a.seq));
        let mut iter = all.into_iter().peekable();
        while let Some(r) = iter.next() {
            let dest = r.dest;
            let mut part = parts[dest as usize].lock();
            part.queue.push(r.time, r.kind);
            while let Some(nx) = iter.next_if(|nx| nx.dest == dest) {
                part.queue.push(nx.time, nx.kind);
            }
        }
    }

    /// The window loop behind `run_until` and `run_to_completion`.
    fn run_windows(&mut self, deadline: Option<SimTime>, max_events: u64) -> u64 {
        self.ensure_routing();
        let horizon = deadline.unwrap_or(FOREVER);
        let lookahead = self.lookahead;
        let parts = &self.parts;
        let pdes = &mut self.pdes;
        let peak = &mut self.peak_pending;
        let workers = self.workers.min(parts.len());

        // The protocol, written once.  `run_window(last, budget)` drains every
        // partition up to `last` — inline or on the worker pool — and returns
        // the events processed.  Merging comes first so that sends injected
        // between runs are in their queues before the first window is planned.
        let mut windows = |run_window: &mut dyn FnMut(SimTime, u64) -> u64| {
            let mut processed = 0u64;
            while processed < max_events {
                let serial_start = Instant::now();
                Self::merge_mailboxes(parts, pdes);
                let plan = Self::plan_window(parts, horizon, lookahead, peak);
                pdes.merge_wall_us += serial_start.elapsed().as_micros() as u64;
                let Some(last) = plan else { break };
                pdes.windows += 1;
                processed += run_window(last, max_events - processed);
            }
            processed
        };

        let processed = if workers <= 1 {
            windows(&mut |last, budget| parts.iter().map(|p| p.lock().drain(last, budget)).sum())
        } else {
            // The barrier orders the coordinator's stores before the workers'
            // loads and the workers' counts before the coordinator's swap.
            let barrier = Barrier::new(workers + 1);
            let window_last_us = AtomicU64::new(0);
            let window_budget = AtomicU64::new(0);
            let next_part = AtomicUsize::new(0);
            let window_events = AtomicU64::new(0);
            let finished = AtomicBool::new(false);
            let mut stalled_us = 0u64;
            let processed = std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        barrier.wait();
                        if finished.load(Ordering::Acquire) {
                            break;
                        }
                        let last = SimTime::from_micros(window_last_us.load(Ordering::Acquire));
                        let budget = window_budget.load(Ordering::Acquire);
                        let mut n = 0u64;
                        loop {
                            let i = next_part.fetch_add(1, Ordering::Relaxed);
                            if i >= parts.len() {
                                break;
                            }
                            n += parts[i].lock().drain(last, budget);
                        }
                        window_events.fetch_add(n, Ordering::Relaxed);
                        barrier.wait();
                    });
                }
                let processed = windows(&mut |last, budget| {
                    window_last_us.store(last.as_micros(), Ordering::Release);
                    window_budget.store(budget, Ordering::Release);
                    next_part.store(0, Ordering::Release);
                    let stall_start = Instant::now();
                    barrier.wait(); // release workers into the window
                    barrier.wait(); // wait for the slowest worker
                    stalled_us += stall_start.elapsed().as_micros() as u64;
                    window_events.swap(0, Ordering::Relaxed)
                });
                finished.store(true, Ordering::Release);
                barrier.wait(); // let workers observe the flag and exit
                processed
            });
            pdes.barrier_wall_us += stalled_us;
            processed
        };

        // Clock catch-up: a bounded run leaves every partition at the
        // deadline (trailing scripted faults included); an unbounded run
        // stops at the last event.
        let mut last_event = SimTime::ZERO;
        for p in &self.parts {
            let mut part = p.lock();
            if let Some(d) = deadline {
                part.advance_to(d);
            }
            last_event = last_event.max(part.now);
        }
        self.now = self.now.max(last_event);
        self.refresh_merged();
        processed
    }

    /// Rebuilds the network-wide stats view from the per-partition blocks.
    fn refresh_merged(&mut self) {
        let mut merged = NetStats::default();
        for addr in &self.reg_order {
            merged.register(*addr);
        }
        self.pdes.partition_events.clear();
        for p in &self.parts {
            let part = p.lock();
            merged.absorb(&part.stats);
            self.pdes.partition_events.push(part.events);
        }
        merged.peak_pending_events = merged.peak_pending_events.max(self.peak_pending);
        merged.pdes = Some(self.pdes.clone());
        self.merged = merged;
    }
}

impl<M: MessageMeta + Clone + Send + Sync + 'static> SimRuntime<M> for ParallelSimulation<M> {
    fn register(
        &mut self,
        addr: impl Into<Addr>,
        region: Region,
        cpu: CpuProfile,
        actor: BoxedActor<M>,
    ) {
        ParallelSimulation::register(self, addr, region, cpu, actor);
    }

    /// The send is made on the sender's partition (partition 0 for
    /// unregistered senders such as the harness) and, if it crosses, waits in
    /// that outbox for the next run call.  Injecting refreshes the routing
    /// snapshot, so register first and inject afterwards.
    fn inject(&mut self, from: impl Into<Addr>, to: impl Into<Addr>, msg: M) {
        self.ensure_routing();
        let from = from.into();
        let src = self.index.get(&from).map_or(0, |e| e.part);
        self.parts[src as usize]
            .lock()
            .inject(self.now, from, to.into(), msg);
    }

    fn inject_at(&mut self, at: SimTime, from: impl Into<Addr>, to: impl Into<Addr>, msg: M) {
        let to = to.into();
        let dest = self.index.get(&to).map_or(0, |e| e.part);
        self.parts[dest as usize]
            .lock()
            .inject_at(at.max(self.now), from.into(), to, msg);
    }

    fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        for p in &self.parts {
            p.lock().set_fault_schedule(schedule.clone());
        }
    }

    fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.run_windows(Some(deadline), u64::MAX)
    }

    fn stats(&self) -> &NetStats {
        &self.merged
    }

    fn with_actor<R>(
        &mut self,
        addr: impl Into<Addr>,
        f: impl FnOnce(&mut dyn Actor<M>) -> R,
    ) -> Option<R> {
        let e = *self.index.get(&addr.into())?;
        let mut part = self.parts[e.part as usize].lock();
        let actor = part.actor_slot(e.local).as_mut()?;
        Some(f(actor.as_mut()))
    }

    fn actor_count(&self) -> usize {
        self.index.len()
    }

    fn pending_events(&self) -> usize {
        self.parts.iter().map(|p| p.lock().pending()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Context, Simulation};
    use crate::timer::TimerId;
    use saguaro_types::{ClientId, DomainId, NodeId};

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
    /// Every third message also sets two timers and cancels one of them; a
    /// timer that fires passes the baton on with one hop left.
    struct Bouncer {
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
            self.history.push((ctx.self_addr(), ctx.now()));
            ctx.send(self.peer, msg);
        }
        fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    fn a(i: u64) -> Addr {
        Addr::Client(ClientId(i))
    }

    /// `n` bouncers in a ring over the matrix's four regions, each passing
    /// what it receives to the next.
    fn deploy(sim: &mut impl SimRuntime<Msg>, n: u64) {
        for i in 0..n {
            let bouncer = Bouncer {
                peer: a((i + 1) % n),
                history: Vec::new(),
            };
            let region = Region((i % 4) as u8);
            sim.register(a(i), region, CpuProfile::default(), Box::new(bouncer));
        }
    }

    /// Each bouncer's `(from, now)` history and accumulated busy time.
    type Harvest = Vec<(Vec<(Addr, SimTime)>, Duration)>;

    fn harvest(sim: &mut impl SimRuntime<Msg>, n: u64) -> Harvest {
        (0..n)
            .map(|i| {
                let history = sim
                    .with_actor(a(i), |actor| {
                        let any = actor.as_any().expect("inspectable");
                        any.downcast_mut::<Bouncer>()
                            .expect("a bouncer")
                            .history
                            .clone()
                    })
                    .expect("registered");
                (history, sim.stats().busy_time(a(i)))
            })
            .collect()
    }

    /// Two partitions, clients split by parity.
    fn par(workers: usize) -> ParallelSimulation<Msg> {
        let latency = LatencyMatrix::nearby_regions().with_jitter(0.0);
        ParallelSimulation::new(latency, 7, 2, workers, |addr| match addr {
            Addr::Client(c) => (c.0 % 2) as u32,
            Addr::Node(_) => 0,
        })
    }

    #[test]
    fn cross_partition_rally_matches_sequential_engine() {
        let mut seq = Simulation::new(LatencyMatrix::nearby_regions().with_jitter(0.0), 7);
        deploy(&mut seq, 2);
        seq.inject_at(SimTime::ZERO, a(1), a(0), Msg::Ping(40));
        let seq_events = seq.run_until(SimTime::from_millis(200));

        let mut par = par(4);
        deploy(&mut par, 2);
        par.inject_at(SimTime::ZERO, a(1), a(0), Msg::Ping(40));
        let par_events = par.run_until(SimTime::from_millis(200));

        // Jitter-free latency means both engines see identical arrival
        // times, so the whole history must line up.
        assert_eq!(seq_events, par_events);
        assert_eq!(harvest(&mut seq, 2), harvest(&mut par, 2));
        assert_eq!(
            seq.stats().messages_delivered,
            par.stats().messages_delivered
        );
        assert_eq!(seq.stats().bytes_delivered, par.stats().bytes_delivered);
        let p = par.stats().pdes.as_ref().expect("parallel stats present");
        assert_eq!(p.partitions, 2);
        assert!(p.cross_messages > 0, "rally must cross partitions");
        assert_eq!(p.partition_events.iter().sum::<u64>(), par_events);
    }

    #[test]
    fn parallel_runs_are_worker_count_invariant() {
        let mut reference = None;
        for workers in [1usize, 2, 4, 8] {
            let mut sim = par(workers);
            deploy(&mut sim, 2);
            sim.inject_at(SimTime::ZERO, a(1), a(0), Msg::Ping(64));
            let events = sim.run_until(SimTime::from_millis(500));
            let run = (events, harvest(&mut sim, 2), sim.stats().messages_delivered);
            let reference = reference.get_or_insert_with(|| run.clone());
            assert_eq!(*reference, run, "workers={workers}");
        }
    }

    /// Everything the equivalence test compares: events processed per run
    /// call, the public counters, and what every actor saw and when.
    fn fingerprint(sim: &mut impl SimRuntime<Msg>, events: [u64; 2]) -> ([u64; 10], Harvest) {
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
        (counters, harvest(sim, 16))
    }

    /// A 16-bouncer ring (plus one replica they all write to) under a crash
    /// and recovery, a link partition and heal, a domain spike and an
    /// equivocation window, with one `inject` made between two `run_until`
    /// calls.
    fn stormy_run(sim: &mut impl SimRuntime<Msg>) -> ([u64; 10], Harvest) {
        let ms = SimTime::from_millis;
        deploy(sim, 16);
        let replica = NodeId::new(DomainId::new(1, 0), 0);
        let bouncer = Bouncer {
            peer: a(0),
            history: Vec::new(),
        };
        sim.register(replica, Region(1), CpuProfile::server(), Box::new(bouncer));
        sim.set_fault_schedule(
            FaultSchedule::none()
                .crash_at(ms(20), a(3))
                .recover_at(ms(60), a(3))
                .partition_at(ms(30), a(5), a(6))
                .heal_at(ms(70), a(5), a(6))
                .domain_spike_at(ms(10), [replica.domain], Duration::from_millis(4))
                .domain_spike_at(ms(90), [replica.domain], Duration::ZERO)
                .equivocate_at(ms(40), a(8))
                .stop_equivocate_at(ms(120), a(8)),
        );
        for i in 0..16 {
            sim.inject(a(i), a((i + 5) % 16), Msg::Ping(60));
            sim.inject_at(ms(i), a(i), Addr::Node(replica), Msg::Ping(3));
        }
        let first = sim.run_until(ms(100));
        sim.inject(a(8), a(9), Msg::Ping(30));
        let second = sim.run_until(ms(400));
        fingerprint(sim, [first, second])
    }

    #[test]
    fn one_partition_is_the_sequential_engine_bit_for_bit() {
        for seed in [3u64, 17, 4242] {
            let mut seq = Simulation::new(LatencyMatrix::nearby_regions(), seed);
            seq.faults_mut().set_drop_probability(0.05);
            let expected = stormy_run(&mut seq);
            let (counters, _) = &expected;
            assert!(
                counters[4] > 0 && counters[8] > 0,
                "loss and timers: {counters:?}"
            );
            for workers in [1, 4] {
                let mut par = ParallelSimulation::new(
                    LatencyMatrix::nearby_regions(),
                    seed,
                    1,
                    workers,
                    |_| 0,
                );
                par.parts[0].lock().faults.set_drop_probability(0.05);
                assert_eq!(
                    expected,
                    stormy_run(&mut par),
                    "seed {seed} workers {workers}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "a simulation needs at least one partition")]
    fn zero_partitions_are_refused_at_construction() {
        ParallelSimulation::<Msg>::new(LatencyMatrix::single_region(), 1, 0, 1, |_| 0);
    }

    #[test]
    #[should_panic(expected = "route returned partition 2 for c0, but the engine has 2")]
    fn out_of_range_routes_are_refused_at_registration() {
        let latency = LatencyMatrix::single_region();
        let mut sim = ParallelSimulation::<Msg>::new(latency, 1, 2, 1, |_| 2);
        deploy(&mut sim, 8);
    }
}
