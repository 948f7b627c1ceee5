//! Message envelopes.
//!
//! Every payload travelling through the simulator is wrapped in an
//! [`Envelope`] that holds the payload by value beside its [`MessageMeta`]
//! quantities — wire size, signature count, state-transfer class — computed
//! once at wrap time instead of being re-derived by the latency model, the
//! CPU model and the statistics on every delivery.
//!
//! Delivery consumes the envelope with [`Envelope::into_payload`], a move.  A
//! multicast to `n` recipients clones the envelope `n − 1` times and hands
//! the last recipient the original (see `Context::multicast`), so a unicast
//! send never clones.

use crate::cpu::MessageMeta;

/// A message with memoized wire-level metadata.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    payload: M,
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
            payload,
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

    /// Consumes the envelope, yielding the payload.
    #[inline]
    pub fn into_payload(self) -> M {
        self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Blob(Vec<u8>);

    impl MessageMeta for Blob {
        fn wire_bytes(&self) -> usize {
            self.0.len()
        }
        fn signatures(&self) -> usize {
            3
        }
    }

    #[test]
    fn metadata_is_memoized_at_wrap_time() {
        let env = Envelope::new(Blob(vec![0; 42]));
        assert_eq!(env.wire_bytes(), 42);
        assert_eq!(env.signatures(), 3);
        assert_eq!(env.payload().0.len(), 42);
        assert_eq!(env.into_payload().0.len(), 42);
    }
}
