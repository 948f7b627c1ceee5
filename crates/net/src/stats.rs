//! Simulation statistics.

use crate::addr::Addr;
use saguaro_types::hash::FxHashMap;
use saguaro_types::Duration;

/// Counters collected by the simulation runtime.
///
/// Per-node busy time is stored densely, indexed by the runtime's interned
/// actor index, so the delivery hot path increments a `Vec` cell instead of
/// probing a hash map.  The `Addr`-keyed lookup table is only consulted by
/// the cold reporting accessors ([`NetStats::busy_time`],
/// [`NetStats::utilisation`]).
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    /// Total messages handed to the network (including later-dropped ones).
    pub messages_sent: u64,
    /// Messages actually delivered to an actor.
    pub messages_delivered: u64,
    /// Messages dropped by the fault plan.
    pub messages_dropped: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// State-transfer (recovery catch-up) messages delivered.
    pub state_messages_delivered: u64,
    /// Bytes delivered by state-transfer messages — the volume a recovery
    /// experiment reports as "transferred to catch the replica up".
    pub state_bytes_delivered: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// High-water mark of the event queue over the run — the simulator-side
    /// memory proxy population sweeps report (a per-client-actor load model
    /// keeps O(clients) events in flight; the aggregate model O(domains)).
    pub peak_pending_events: u64,
    /// Parallel-engine instrumentation (`None` for sequential runs): event
    /// counts per partition and window/barrier timings, so window size and
    /// partition balance are measurable.
    pub pdes: Option<PdesRunStats>,
    /// Per-node accumulated CPU busy time, indexed by interned actor index.
    busy: Vec<Duration>,
    /// Interned index → address (reporting).
    addrs: Vec<Addr>,
    /// Address → interned index (cold queries).
    index: FxHashMap<Addr, u32>,
}

/// Instrumentation of one conservative-parallel run: how the event load
/// spread over partitions and where the wall-clock went.
///
/// All virtual-time quantities are deterministic (identical per seed,
/// whatever the worker count); the two `*_wall_us` fields are wall-clock
/// measurements and vary run to run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PdesRunStats {
    /// Number of event partitions (1 root/client shard + one per edge
    /// domain).
    pub partitions: usize,
    /// Conservative windows executed.
    pub windows: u64,
    /// The lookahead bound (µs) the windows advanced by.
    pub lookahead_us: u64,
    /// Events processed by each partition (partition 0 is the root/LCA
    /// committee + client shard) — the partition-balance signal.
    pub partition_events: Vec<u64>,
    /// Cross-partition messages merged through the window mailboxes.
    pub cross_messages: u64,
    /// Wall-clock µs the coordinator spent in the serial section of each
    /// window barrier: draining mailboxes, merging them in deterministic
    /// order and computing the next window bound.
    pub merge_wall_us: u64,
    /// Wall-clock µs the coordinator spent stalled waiting for the slowest
    /// worker of each window — the imbalance/stall signal.
    pub barrier_wall_us: u64,
}

impl NetStats {
    /// Interns a newly registered address, allocating its busy counter.
    /// Must be called in the runtime's registration order so indices line up.
    pub(crate) fn register(&mut self, addr: Addr) {
        let idx = self.busy.len() as u32;
        self.busy.push(Duration::ZERO);
        self.addrs.push(addr);
        self.index.insert(addr, idx);
    }

    /// Records an attempted send.
    pub(crate) fn on_send(&mut self) {
        self.messages_sent += 1;
    }

    /// Records a drop.
    pub(crate) fn on_drop(&mut self) {
        self.messages_dropped += 1;
    }

    /// Records a delivery of `bytes` to the actor at interned index `idx`
    /// costing `service` CPU time.  `state_transfer` marks recovery
    /// catch-up traffic, accounted separately.
    pub(crate) fn on_deliver(
        &mut self,
        idx: u32,
        bytes: usize,
        service: Duration,
        state_transfer: bool,
    ) {
        self.messages_delivered += 1;
        self.bytes_delivered += bytes as u64;
        if state_transfer {
            self.state_messages_delivered += 1;
            self.state_bytes_delivered += bytes as u64;
        }
        let cell = &mut self.busy[idx as usize];
        *cell = *cell + service;
    }

    /// Records a fired timer.
    pub(crate) fn on_timer(&mut self) {
        self.timers_fired += 1;
    }

    /// Removes `unperformed` from an actor's accumulated busy time.  Called
    /// when the actor crashes with queued work: service time is charged in
    /// full at delivery, so the portion scheduled beyond the crash instant
    /// must be handed back — a crashed node performs no work.
    pub(crate) fn trim_busy(&mut self, idx: u32, unperformed: Duration) {
        let cell = &mut self.busy[idx as usize];
        *cell = cell.saturating_sub(unperformed);
    }

    /// Folds another stats block into this one: scalar counters add,
    /// `peak_pending_events` takes the max, and per-address busy time merges
    /// by address (registering addresses this block has not seen).  The
    /// parallel engine uses this to combine per-partition stats into the one
    /// network-wide view the harness reads.
    pub(crate) fn absorb(&mut self, other: &NetStats) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_dropped += other.messages_dropped;
        self.bytes_delivered += other.bytes_delivered;
        self.state_messages_delivered += other.state_messages_delivered;
        self.state_bytes_delivered += other.state_bytes_delivered;
        self.timers_fired += other.timers_fired;
        self.peak_pending_events = self.peak_pending_events.max(other.peak_pending_events);
        for (addr, busy) in other.addrs.iter().zip(other.busy.iter()) {
            match self.index.get(addr) {
                Some(&i) => {
                    let cell = &mut self.busy[i as usize];
                    *cell = *cell + *busy;
                }
                None => {
                    self.register(*addr);
                    *self.busy.last_mut().expect("just registered") = *busy;
                }
            }
        }
    }

    /// Accumulated CPU busy time of one participant.
    pub fn busy_time(&self, a: Addr) -> Duration {
        self.index
            .get(&a)
            .map(|&i| self.busy[i as usize])
            .unwrap_or(Duration::ZERO)
    }

    /// Utilisation of a participant over a window of `elapsed` virtual time.
    pub fn utilisation(&self, a: Addr, elapsed: Duration) -> f64 {
        if elapsed.as_micros() == 0 {
            return 0.0;
        }
        self.busy_time(a).as_micros() as f64 / elapsed.as_micros() as f64
    }

    /// The busiest participant and its accumulated busy time.  Ties are
    /// broken by the smaller [`Addr`], so repeated runs of the same
    /// deployment always report the same node.
    pub fn busiest(&self) -> Option<(Addr, Duration)> {
        let mut best: Option<(Addr, Duration)> = None;
        for (addr, busy) in self.addrs.iter().zip(self.busy.iter()) {
            let better = match best {
                None => true,
                Some((best_addr, best_busy)) => {
                    *busy > best_busy || (*busy == best_busy && *addr < best_addr)
                }
            };
            if better {
                best = Some((*addr, *busy));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::ClientId;

    fn c(i: u64) -> Addr {
        Addr::Client(ClientId(i))
    }

    /// Interns c(0..n) in order, mirroring runtime registration.
    fn stats_with(n: u64) -> NetStats {
        let mut s = NetStats::default();
        for i in 0..n {
            s.register(c(i));
        }
        s
    }

    #[test]
    fn counters_accumulate() {
        let mut s = stats_with(2);
        s.on_send();
        s.on_send();
        s.on_drop();
        s.on_deliver(0, 100, Duration::from_micros(10), false);
        s.on_deliver(0, 50, Duration::from_micros(5), true);
        s.on_deliver(1, 10, Duration::from_micros(1), false);
        s.on_timer();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.messages_dropped, 1);
        assert_eq!(s.messages_delivered, 3);
        assert_eq!(s.bytes_delivered, 160);
        assert_eq!(s.state_messages_delivered, 1);
        assert_eq!(s.state_bytes_delivered, 50);
        assert_eq!(s.timers_fired, 1);
        assert_eq!(s.busy_time(c(0)), Duration::from_micros(15));
        assert_eq!(s.busy_time(c(2)), Duration::ZERO);
    }

    #[test]
    fn utilisation_and_busiest() {
        let mut s = stats_with(2);
        s.on_deliver(0, 1, Duration::from_micros(500), false);
        s.on_deliver(1, 1, Duration::from_micros(100), false);
        assert_eq!(s.utilisation(c(0), Duration::from_millis(1)), 0.5);
        assert_eq!(s.utilisation(c(0), Duration::ZERO), 0.0);
        assert_eq!(s.busiest().map(|(a, _)| a), Some(c(0)));
    }

    #[test]
    fn busiest_breaks_ties_by_smaller_addr() {
        // Register in an order that would expose map-iteration nondeterminism
        // and give several nodes identical busy time: the smallest address
        // must win, every time.
        let mut s = NetStats::default();
        for i in [5u64, 2, 9, 3] {
            s.register(c(i));
        }
        for idx in 0..4 {
            s.on_deliver(idx, 1, Duration::from_micros(700), false);
        }
        assert_eq!(s.busiest(), Some((c(2), Duration::from_micros(700))));
        // A strictly busier node still wins regardless of address.
        s.on_deliver(2, 1, Duration::from_micros(1), false);
        assert_eq!(s.busiest().map(|(a, _)| a), Some(c(9)));
    }

    #[test]
    fn busiest_of_empty_stats_is_none() {
        assert!(NetStats::default().busiest().is_none());
    }

    #[test]
    fn absorb_merges_counters_and_busy_time_by_address() {
        let mut a = stats_with(2);
        a.on_send();
        a.on_deliver(0, 100, Duration::from_micros(10), false);
        a.peak_pending_events = 7;
        // The other block knows c(1) (shared) and c(5) (new to `a`).
        let mut b = NetStats::default();
        b.register(c(1));
        b.register(c(5));
        b.on_send();
        b.on_send();
        b.on_drop();
        b.on_deliver(0, 50, Duration::from_micros(20), true);
        b.on_deliver(1, 30, Duration::from_micros(5), false);
        b.on_timer();
        b.peak_pending_events = 3;
        a.absorb(&b);
        assert_eq!(a.messages_sent, 3);
        assert_eq!(a.messages_delivered, 3);
        assert_eq!(a.messages_dropped, 1);
        assert_eq!(a.bytes_delivered, 180);
        assert_eq!(a.state_messages_delivered, 1);
        assert_eq!(a.state_bytes_delivered, 50);
        assert_eq!(a.timers_fired, 1);
        assert_eq!(a.peak_pending_events, 7, "peak takes the max, not the sum");
        assert_eq!(a.busy_time(c(0)), Duration::from_micros(10));
        assert_eq!(a.busy_time(c(1)), Duration::from_micros(20));
        assert_eq!(a.busy_time(c(5)), Duration::from_micros(5));
    }

    #[test]
    fn trim_busy_hands_back_unperformed_work_and_saturates() {
        let mut s = stats_with(1);
        s.on_deliver(0, 10, Duration::from_micros(100), false);
        s.trim_busy(0, Duration::from_micros(30));
        assert_eq!(s.busy_time(c(0)), Duration::from_micros(70));
        // Trimming more than remains clamps to zero instead of wrapping.
        s.trim_busy(0, Duration::from_millis(1));
        assert_eq!(s.busy_time(c(0)), Duration::ZERO);
    }
}
