//! Application-state snapshots used by snapshot-based state transfer.
//!
//! At every quorum-stable checkpoint a replica whose retention window is
//! finite takes a [`StateSnapshot`] of its executed application state
//! — balance map, delivery-stream hash and mobile custody table — keyed by
//! the checkpoint sequence number.  The balance map is a share of the
//! replica's own [`CowMap`], not a copy: the snapshot costs one pointer per
//! leaf, and the replica's later writes unshare the leaves they touch.  A
//! `StateRequest` whose frontier has
//! fallen below the responder's retained log tail is then answered with the
//! snapshot plus the short command tail above it, so catch-up cost is
//! O(retention) regardless of how long the requester was away (the
//! historical full-replay reply is O(outage)).

use crate::cowmap::CowMap;
use crate::ids::{ClientId, DomainId};
use crate::sequence::SeqNo;

/// Where the freshest state of a mobile device lives, as its home domain
/// records it: Algorithm 2's lock bit and remote pointer are this one fact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Custody {
    /// The home domain's copy is current (the lock bit is set).
    Held,
    /// The state was handed to this remote domain (the lock bit is clear).
    HandedTo(DomainId),
}

/// An application snapshot at a stable checkpoint.
///
/// Everything a fresh replica needs to resume execution at `seq + 1`:
/// the executed balance map, the delivery-stream hash pinning the executed
/// prefix, and the mobile custody/hosting tables (empty for stacks
/// without mobile hand-off).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct StateSnapshot {
    /// The stable checkpoint this snapshot captures (deliveries executed).
    pub seq: SeqNo,
    /// Rolling [`crate::sequence::delivery_hash`] over the executed delivery
    /// stream through `seq`; `None` when the run records no deliveries.
    pub delivery_hash: Option<u64>,
    /// Executed account balances, in key order.
    pub accounts: CowMap,
    /// Mobile custody table: where each known device's state lives.
    pub mobile: Vec<(ClientId, Custody)>,
    /// Devices whose state this domain currently hosts for a remote owner.
    pub hosted: Vec<ClientId>,
}

impl StateSnapshot {
    /// Modeled wire size of the snapshot: a fixed header plus per-account
    /// and per-device increments, mirroring the style of the per-message
    /// size models in the protocol crates.
    pub fn wire_bytes(&self) -> u64 {
        96 + 24 * self.accounts.len() as u64
            + 16 * self.mobile.len() as u64
            + 8 * self.hosted.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_scales_with_contents() {
        let empty = StateSnapshot::default();
        assert_eq!(empty.wire_bytes(), 96);
        let full = StateSnapshot {
            seq: 7,
            delivery_hash: Some(1),
            accounts: [("a", 1), ("b", 2)].into_iter().collect(),
            mobile: vec![(ClientId(3), Custody::HandedTo(DomainId::new(1, 0)))],
            hosted: vec![ClientId(9)],
        };
        assert_eq!(full.wire_bytes(), 96 + 48 + 16 + 8);
    }
}
