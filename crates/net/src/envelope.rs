//! Zero-copy message envelopes.
//!
//! Every payload travelling through the simulator is wrapped in an
//! [`Envelope`]: the payload itself sits behind an [`Arc`] so a multicast to
//! `n` recipients shares one allocation instead of deep-cloning the message
//! (and, for block messages, its whole command vector) per recipient, and
//! the [`MessageMeta`] quantities — wire size and signature count — are
//! computed once at wrap time instead of being re-derived by the latency
//! model, the CPU model and the statistics on every delivery.
//!
//! Delivery consumes the envelope with [`Envelope::into_payload`]: the last
//! live reference hands the payload back without copying, so a unicast send
//! never clones and an `n`-way multicast clones at most `n - 1` times.

use crate::cpu::MessageMeta;
use std::sync::Arc;

/// A reference-counted message with memoized wire-level metadata.
#[derive(Debug)]
pub struct Envelope<M> {
    payload: Arc<M>,
    wire_bytes: usize,
    signatures: usize,
    state_transfer: bool,
}

impl<M: MessageMeta> Envelope<M> {
    /// Wraps a payload, computing its wire metadata exactly once.
    pub fn new(payload: M) -> Self {
        let wire_bytes = payload.wire_bytes();
        let signatures = payload.signatures();
        let state_transfer = payload.is_state_transfer();
        Self {
            payload: Arc::new(payload),
            wire_bytes,
            signatures,
            state_transfer,
        }
    }
}

impl<M> Envelope<M> {
    /// Memoized [`MessageMeta::wire_bytes`] of the payload.
    pub fn wire_bytes(&self) -> usize {
        self.wire_bytes
    }

    /// Memoized [`MessageMeta::signatures`] of the payload.
    pub fn signatures(&self) -> usize {
        self.signatures
    }

    /// Memoized [`MessageMeta::is_state_transfer`] of the payload.
    pub fn is_state_transfer(&self) -> bool {
        self.state_transfer
    }

    /// Shared access to the payload.
    pub fn payload(&self) -> &M {
        &self.payload
    }
}

impl<M: Clone> Envelope<M> {
    /// Consumes the envelope, yielding an owned payload.  The final
    /// reference moves the payload out without cloning it.  Inlined into
    /// the event loop, as `EventQueue::pop` is (see `net::event`).
    #[inline]
    pub fn into_payload(self) -> M {
        Arc::try_unwrap(self.payload).unwrap_or_else(|shared| (*shared).clone())
    }
}

impl<M> Clone for Envelope<M> {
    fn clone(&self) -> Self {
        Self {
            payload: Arc::clone(&self.payload),
            wire_bytes: self.wire_bytes,
            signatures: self.signatures,
            state_transfer: self.state_transfer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CLONES: AtomicUsize = AtomicUsize::new(0);

    #[derive(Debug)]
    struct Counted(Vec<u8>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Ordering::SeqCst);
            Self(self.0.clone())
        }
    }

    impl MessageMeta for Counted {
        fn wire_bytes(&self) -> usize {
            self.0.len()
        }
        fn signatures(&self) -> usize {
            3
        }
    }

    #[test]
    fn metadata_is_memoized_at_wrap_time() {
        let env = Envelope::new(Counted(vec![0; 42]));
        assert_eq!(env.wire_bytes(), 42);
        assert_eq!(env.signatures(), 3);
        assert_eq!(env.payload().0.len(), 42);
    }

    #[test]
    fn last_reference_moves_without_cloning() {
        let before = CLONES.load(Ordering::SeqCst);
        let env = Envelope::new(Counted(vec![1, 2, 3]));
        let a = env.clone();
        let b = env.clone();
        drop(env);
        // Two live references: the first consumer must clone...
        let first = a.into_payload();
        assert_eq!(first.0, vec![1, 2, 3]);
        // ...the last one moves the payload out untouched.
        let last = b.into_payload();
        assert_eq!(last.0, vec![1, 2, 3]);
        assert_eq!(CLONES.load(Ordering::SeqCst) - before, 1);
    }
}
