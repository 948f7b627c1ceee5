//! Simulation statistics.

use crate::addr::Addr;
use saguaro_types::hash::FxHashMap;
use saguaro_types::Duration;

/// Counters collected by the simulation runtime.
///
/// Per-node busy time is stored densely, indexed by the runtime's interned
/// actor index, so the delivery hot path increments a `Vec` cell instead of
/// probing a hash map.  The `Addr`-keyed lookup table is only consulted by
/// the cold reporting accessors.
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
    /// Per-node accumulated CPU busy time, indexed by interned actor index.
    busy: Vec<Duration>,
    /// Interned index → address (reporting).
    addrs: Vec<Addr>,
    /// Address → interned index (cold queries).
    index: FxHashMap<Addr, u32>,
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

    /// Accumulated CPU busy time of one participant.
    #[cfg(test)]
    pub(crate) fn busy_time(&self, a: Addr) -> Duration {
        self.index
            .get(&a)
            .map(|&i| self.busy[i as usize])
            .unwrap_or(Duration::ZERO)
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
    fn busiest_is_the_most_loaded_actor() {
        let mut s = stats_with(2);
        s.on_deliver(0, 1, Duration::from_micros(500), false);
        s.on_deliver(1, 1, Duration::from_micros(100), false);
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
