//! The virtual-time event queue.

use crate::addr::Addr;
use crate::envelope::Envelope;
pub use crate::timer::TimerId;
use saguaro_types::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event.
///
/// Deliveries carry the recipient's interned actor index (resolved once at
/// schedule time) so the hot path never hashes an [`Addr`]; timers carry the
/// owner's index for the same reason.  `None` means the recipient was
/// unknown when the message was scheduled — delivery re-resolves it the
/// cold way to preserve the register-after-send semantics.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver a network message to `to`.
    Deliver {
        /// Sender address.
        from: Addr,
        /// Recipient address.
        to: Addr,
        /// Interned recipient index, if registered at schedule time.
        to_idx: Option<u32>,
        /// The message payload with memoized wire metadata.
        env: Envelope<M>,
    },
    /// Fire a timer previously set by `owner`.
    Timer {
        /// The actor that set the timer.
        owner: Addr,
        /// Interned owner index.
        owner_idx: u32,
        /// The timer id returned at set time.
        id: TimerId,
        /// Payload stashed by the owner.
        msg: M,
    },
}

#[derive(Debug)]
pub(crate) struct Event<M> {
    pub time: SimTime,
    /// Monotonic sequence number breaking ties deterministically (FIFO).
    pub seq: u64,
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-heap of events keyed by (time, insertion order).
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<M> EventQueue<M> {
    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::MessageMeta;
    use saguaro_types::{ClientId, SimTime};

    impl MessageMeta for &'static str {
        fn wire_bytes(&self) -> usize {
            self.len()
        }
    }

    fn client(i: u64) -> Addr {
        Addr::Client(ClientId(i))
    }

    fn delivery(msg: &'static str) -> EventKind<&'static str> {
        EventKind::Deliver {
            from: client(0),
            to: client(1),
            to_idx: None,
            env: Envelope::new(msg),
        }
    }

    fn payload(e: Event<&'static str>) -> &'static str {
        match e.kind {
            EventKind::Deliver { env, .. } => env.into_payload(),
            EventKind::Timer { msg, .. } => msg,
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_micros(30), delivery("c"));
        q.push(SimTime::from_micros(10), delivery("a"));
        q.push(SimTime::from_micros(20), delivery("b"));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::default();
        let t = SimTime::from_micros(5);
        for (i, name) in ["first", "second", "third"].iter().enumerate() {
            q.push(
                t,
                EventKind::Timer {
                    owner: client(i as u64),
                    owner_idx: i as u32,
                    id: i as u64,
                    msg: *name,
                },
            );
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(payload).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q: EventQueue<&'static str> = EventQueue::default();
        assert!(q.peek_time().is_none());
        assert_eq!(q.len(), 0);
        q.push(SimTime::from_micros(9), delivery("x"));
        q.push(SimTime::from_micros(3), delivery("y"));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        assert_eq!(q.len(), 2);
    }
}
