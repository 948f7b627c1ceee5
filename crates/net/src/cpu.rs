//! Per-node CPU cost model.
//!
//! Every simulated node is a FIFO single server.  Handling a message occupies
//! the node for a *service time* derived from the message's wire size and the
//! number of signature verifications it triggers.  This is what limits the
//! saturation throughput of a domain and makes BFT domains slower than CFT
//! domains (PBFT messages carry and verify more signatures), reproducing the
//! qualitative gap between Figures 7 and 8 of the paper.

use saguaro_types::Duration;

/// Wire-level metadata the simulator needs about a protocol message.
///
/// Deployments implement this for their message enum; the simulator uses it
/// to charge serialization time on the link and verification time on the
/// receiving node.
pub trait MessageMeta {
    /// Approximate serialized size in bytes.
    fn wire_bytes(&self) -> usize;

    /// Number of signatures the receiver must verify to accept the message
    /// (0 for unsigned messages, 1 for a simple signed message, `2f + 1` for
    /// a certified message from a Byzantine domain).
    fn signatures(&self) -> usize {
        1
    }

    /// True if the message carries state-transfer traffic (recovery
    /// catch-up).  The network statistics account these bytes separately so
    /// recovery experiments can report transfer volume.
    fn is_state_transfer(&self) -> bool {
        false
    }

    /// An *equivocated* variant of this message, if one exists: a mutated
    /// copy with the same protocol coordinates but a conflicting payload,
    /// which a Byzantine sender under [`crate::FaultEvent::Equivocate`]
    /// emits alongside the original.  `None` (the default) means the
    /// message type has no meaningful equivocation and only the original is
    /// sent.
    fn tampered(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// CPU service-time parameters of one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuProfile {
    /// Fixed cost per handled message (dispatch, deserialization setup).
    pub base_us: f64,
    /// Cost per signature verification.
    pub per_signature_us: f64,
    /// Cost per payload byte (hashing / deserialization).
    pub per_byte_us: f64,
    /// Cost charged to the sender per message sent (marshalling).
    pub send_us: f64,
}

impl CpuProfile {
    /// Default profile for a replica on a server-class machine (calibrated so
    /// a 4-domain crash-only deployment saturates around the paper's reported
    /// 31 k tps for internal transactions).
    pub fn server() -> Self {
        Self {
            base_us: 4.0,
            per_signature_us: 12.0,
            per_byte_us: 0.004,
            send_us: 1.5,
        }
    }

    /// Clients merely match replies; modelled as free so that client-side
    /// processing never becomes the bottleneck (the paper measures server-side
    /// saturation).
    pub fn client() -> Self {
        Self {
            base_us: 0.0,
            per_signature_us: 0.0,
            per_byte_us: 0.0,
            send_us: 0.0,
        }
    }

    /// Service time to receive and process a message with the given metadata.
    pub fn service_time(&self, bytes: usize, signatures: usize) -> Duration {
        let us = self.base_us
            + self.per_signature_us * signatures as f64
            + self.per_byte_us * bytes as f64;
        Duration::from_micros(us.max(0.0) as u64)
    }

    /// Cost charged to the sender of one message.
    pub fn send_time(&self) -> Duration {
        Duration::from_micros(self.send_us.max(0.0) as u64)
    }
}

impl Default for CpuProfile {
    fn default() -> Self {
        Self::server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake(usize, usize);
    impl MessageMeta for Fake {
        fn wire_bytes(&self) -> usize {
            self.0
        }
        fn signatures(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn service_time_scales_with_signatures_and_bytes() {
        let p = CpuProfile::server();
        let small = p.service_time(200, 1);
        let many_sigs = p.service_time(200, 5);
        let big = p.service_time(20_000, 1);
        assert!(many_sigs > small);
        assert!(big > small);
    }

    #[test]
    fn server_profile_supports_tens_of_thousands_tps() {
        // A single replica handling a 200-byte, single-signature message
        // should take on the order of 10-20 us, i.e. 50k-100k msgs/s.
        let p = CpuProfile::server();
        let t = p.service_time(200, 1).as_micros();
        assert!((10..=30).contains(&t), "service time {t}us");
    }

    #[test]
    fn client_profile_is_free() {
        let p = CpuProfile::client();
        assert_eq!(p.service_time(10_000, 10), Duration::ZERO);
        assert_eq!(p.send_time(), Duration::ZERO);
    }

    #[test]
    fn message_meta_defaults() {
        let m = Fake(100, 1);
        assert_eq!(m.wire_bytes(), 100);
        assert_eq!(m.signatures(), 1);
    }
}
