//! Simulation addresses.
//!
//! Replica nodes and edge-device clients share one address space so the
//! simulator can route any message with a single lookup.

use saguaro_types::{ClientId, NodeId};
use std::fmt;

/// The address of a simulated participant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    /// A replica node of some domain (height ≥ 1, or a leaf-domain device
    /// participating in leaf consensus).
    Node(NodeId),
    /// An edge device acting as a client.
    Client(ClientId),
}

impl Addr {
    /// Returns the node id if this address is a replica.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Addr::Node(n) => Some(*n),
            Addr::Client(_) => None,
        }
    }
}

impl From<NodeId> for Addr {
    fn from(n: NodeId) -> Self {
        Addr::Node(n)
    }
}

impl From<ClientId> for Addr {
    fn from(c: ClientId) -> Self {
        Addr::Client(c)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Node(n) => write!(f, "{n:?}"),
            Addr::Client(c) => write!(f, "{c:?}"),
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Node(n) => write!(f, "{n}"),
            Addr::Client(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::DomainId;

    #[test]
    fn conversions_and_accessors() {
        let n = NodeId::new(DomainId::new(1, 2), 3);
        let c = ClientId(7);
        let an: Addr = n.into();
        let ac: Addr = c.into();
        assert_eq!(an.as_node(), Some(n));
        assert_eq!(ac.as_node(), None);
    }

    #[test]
    fn addresses_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let n = NodeId::new(DomainId::new(1, 0), 0);
        let set: BTreeSet<Addr> = [Addr::Node(n), Addr::Client(ClientId(0))].into();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn debug_formats() {
        let n = NodeId::new(DomainId::new(1, 2), 3);
        assert_eq!(format!("{:?}", Addr::Node(n)), "D12/n3");
        assert_eq!(format!("{:?}", Addr::Client(ClientId(4))), "c4");
    }
}
