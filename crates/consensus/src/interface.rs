//! Common vocabulary shared by the consensus state machines.

use saguaro_crypto::Digest;
use saguaro_types::{NodeId, SeqNo, StateSnapshot};
use std::sync::Arc;

/// A command (client request, cross-domain prepare, block message, ...) that a
/// domain orders through its internal consensus.
pub trait Command: Clone {
    /// Digest identifying the command (used in prepare/commit votes so
    /// replicas vote on a fixed-size value).
    fn digest(&self) -> Digest;
}

impl Command for Vec<u8> {
    fn digest(&self) -> Digest {
        saguaro_crypto::sha256(self)
    }
}

impl Command for String {
    fn digest(&self) -> Digest {
        saguaro_crypto::sha256(self.as_bytes())
    }
}

/// An action requested by a consensus state machine in response to an input.
///
/// The caller is responsible for actually sending the messages (over the
/// simulated network or an in-process router in tests) and for executing the
/// delivered commands in sequence order.
#[derive(Clone, Debug, PartialEq)]
pub enum Step<C, M> {
    /// Send `msg` to a single peer replica of the same domain.
    Send {
        /// Destination replica.
        to: NodeId,
        /// The protocol message.
        msg: M,
    },
    /// Send `msg` to every *other* replica of the domain.
    Broadcast {
        /// The protocol message.
        msg: M,
    },
    /// The command with this sequence number is now committed locally and
    /// must be executed.  Deliveries are emitted in strictly increasing
    /// sequence order with no gaps.
    Deliver {
        /// Agreed sequence number.
        seq: SeqNo,
        /// The committed command.
        command: C,
    },
    /// The replica moved to a new view; `primary` is the new primary.  The
    /// adapter uses this to re-route client requests and restart timers.
    ViewChanged {
        /// The new view number.
        view: u64,
        /// Primary of the new view.
        primary: NodeId,
    },
    /// The engine reached a snapshot point (a checkpoint announcement under
    /// a finite retention window): the adapter must materialize its
    /// application state *as of this step in the stream* — i.e. right after
    /// executing the delivery of `seq` and before executing any later one —
    /// and hand the snapshot back via the engine's `store_snapshot`.
    TakeSnapshot {
        /// The checkpoint sequence number the snapshot captures.
        seq: SeqNo,
    },
    /// A snapshot-based catch-up applied: the adapter must replace its
    /// executed application state with the snapshot's before executing the
    /// deliveries that follow this step (the retained command tail).
    InstallSnapshot {
        /// The snapshot to install.
        snapshot: Arc<StateSnapshot>,
    },
}

/// Round-robin primary for a view, given the (sorted) replica list of the
/// domain.  Both protocols use the same rule so failure handling is uniform.
pub fn primary_for_view(view: u64, replicas: &[NodeId]) -> NodeId {
    replicas[(view as usize) % replicas.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::DomainId;

    #[test]
    fn byte_and_string_commands_have_digests() {
        let a = vec![1u8, 2, 3];
        let b = vec![1u8, 2, 4];
        assert_ne!(a.digest(), b.digest());
        assert_ne!("x".to_string().digest(), "y".to_string().digest());
    }

    #[test]
    fn primary_rotates_round_robin() {
        let d = DomainId::new(1, 0);
        let nodes: Vec<NodeId> = (0..4).map(|i| NodeId::new(d, i)).collect();
        assert_eq!(primary_for_view(0, &nodes), nodes[0]);
        assert_eq!(primary_for_view(1, &nodes), nodes[1]);
        assert_eq!(primary_for_view(5, &nodes), nodes[1]);
    }
}
