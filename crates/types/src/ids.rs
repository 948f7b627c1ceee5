//! Strongly typed identifiers.
//!
//! A Saguaro deployment is a tree of domains.  Domains are identified by a
//! [`DomainId`]; the individual replicas inside a domain by a [`NodeId`]
//! (domain + replica index); edge devices acting as clients by a [`ClientId`].
//! Every domain is placed in a geographic [`Region`] which the network
//! simulator uses to look up wide-area round-trip times.

use std::fmt;

/// Height of a domain in the hierarchy.
///
/// Height 0 are leaf domains of edge devices, height 1 are edge-server
/// domains (the only ones that execute transactions and keep full ledgers),
/// height 2 are fog-server domains and the root is the cloud.
pub type Height = u8;

/// Identifier of a domain (a logical vertex of the hierarchy tree).
///
/// The paper names domains `D21`, `D14`, ... — first digit the height, second
/// the index within that height.  We keep the two components explicit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId {
    /// Height of the domain in the tree (0 = edge devices).
    pub height: Height,
    /// Index of the domain among all domains at this height (0-based).
    pub index: u16,
}

impl DomainId {
    /// Creates a new domain identifier.
    pub const fn new(height: Height, index: u16) -> Self {
        Self { height, index }
    }
}

impl fmt::Debug for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}{}", self.height, self.index)
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}-{}", self.height, self.index)
    }
}

/// Identifier of a replica node inside a domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// The domain this node belongs to.
    pub domain: DomainId,
    /// Replica index within the domain (0-based; the initial primary is 0).
    pub index: u16,
}

impl NodeId {
    /// Creates a new node identifier.
    pub const fn new(domain: DomainId, index: u16) -> Self {
        Self { domain, index }
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/n{}", self.domain, self.index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/n{}", self.domain, self.index)
    }
}

/// Identifier of an edge device acting as a client.
///
/// Each client is registered with ("authenticated by") a *local* height-1
/// domain; mobile clients temporarily issue requests in a *remote* domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// A geographic region hosting one or more domains.
///
/// The nearby-region experiment of the paper uses Frankfurt, Milan, London and
/// Paris; the wide-area experiment uses seven regions around the world.  The
/// numeric value indexes the RTT matrix of the network simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Region(pub u8);

impl Region {
    /// Region used when the experiment places everything in one data centre.
    pub const LOCAL: Region = Region(0);
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn domain_id_ordering_is_by_height_then_index() {
        let a = DomainId::new(1, 3);
        let b = DomainId::new(2, 0);
        let c = DomainId::new(1, 4);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn node_ids_hash_distinctly() {
        let d = DomainId::new(1, 0);
        let set: HashSet<_> = (0..4).map(|i| NodeId::new(d, i)).collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", DomainId::new(2, 1)), "D21");
        assert_eq!(
            format!("{:?}", NodeId::new(DomainId::new(1, 4), 2)),
            "D14/n2"
        );
        assert_eq!(format!("{:?}", ClientId(7)), "c7");
        assert_eq!(format!("{:?}", Region(3)), "R3");
    }

    #[test]
    fn display_formats_are_verbose() {
        assert_eq!(DomainId::new(1, 4).to_string(), "D1-4");
        assert_eq!(ClientId(7).to_string(), "client-7");
        assert_eq!(Region(3).to_string(), "region-3");
    }
}
