//! The virtual-time event queue.

use crate::addr::Addr;
use crate::envelope::Envelope;
pub use crate::timer::TimerId;
use saguaro_types::SimTime;
use std::cmp::Reverse;
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

/// A deterministic min-heap of events keyed by (time, insertion order).
///
/// The heap orders 24-byte `(time, seq, slab slot)` keys — `seq` is unique, so
/// the slot never decides — and a sift moves three words per level whatever
/// `M` is; the payloads sit still in a slab whose freed slots are reused, so
/// the slab is as long as the queue's peak length.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slab: Vec<Option<EventKind<M>>>,
    /// Vacant slab slots.
    free: Vec<u32>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }
}

// `push`, `pop` and `Envelope::into_payload` run once per event inside
// `Simulation`'s loop.  Without the hint, release builds of the workspace
// have left them as out-of-line calls from the loop once it is inlined
// into `run_until` (visible as their own symbols in `nm`).
impl<M> EventQueue<M> {
    #[inline]
    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
        });
        self.slab[slot as usize] = Some(kind);
        self.heap.push(Reverse((time, seq, slot)));
    }

    /// The earliest event: its time and what happens then.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, EventKind<M>)> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        let kind = self.slab[slot as usize].take();
        self.free.push(slot);
        Some((time, kind.expect("a queued entry's slot is occupied")))
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, ..))| *time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use saguaro_types::ClientId;

    /// 10 000 random pushes and pops against a sorted reference: events
    /// leave in `(time, insertion)` order, ties first-in first-out, the head
    /// is what `peek_time` announced, and the slab reuses freed slots — it
    /// never outgrows the peak queue length.
    #[test]
    fn random_pushes_and_pops_match_a_sorted_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut q = EventQueue::default();
        assert_eq!((q.peek_time(), q.len()), (None, 0));
        // The reference: `(time, insertion number)`, kept sorted.
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let (mut pushed, mut peak) = (0u64, 0usize);
        for _ in 0..10_000 {
            if reference.is_empty() || rng.gen_range(0..100) < 55 {
                // Few distinct times, so ties are common.
                let time = rng.gen_range(0..40u64);
                let kind = EventKind::Timer {
                    owner: Addr::Client(ClientId(0)),
                    owner_idx: 0,
                    id: pushed,
                    msg: (),
                };
                q.push(SimTime::from_micros(time), kind);
                let at = reference.partition_point(|held| *held <= (time, pushed));
                reference.insert(at, (time, pushed));
                pushed += 1;
            } else {
                let (time, number) = reference.remove(0);
                assert_eq!(q.peek_time(), Some(SimTime::from_micros(time)));
                let Some((at, EventKind::Timer { id, .. })) = q.pop() else {
                    panic!("the reference holds a timer");
                };
                assert_eq!((at, id), (SimTime::from_micros(time), number));
            }
            assert_eq!(q.len(), reference.len());
            peak = peak.max(reference.len());
            assert!(q.slab.len() <= peak, "slab {} > peak {peak}", q.slab.len());
        }
        assert!(peak > 100, "the walk built a deep queue");
    }
}
