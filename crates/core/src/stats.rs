//! Per-node measurement counters.

/// Protocol counters a Saguaro node keeps for the experiment harness (the
/// internal-consensus ones live in [`crate::host::HostStats`]).
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Internal transactions committed (and executed) by this node.
    pub internal_committed: u64,
    /// Cross-domain transactions committed by this node's domain.
    pub cross_committed: u64,
    /// Cross-domain transactions aborted (optimistic inconsistencies or
    /// coordinator aborts).
    pub cross_aborted: u64,
    /// Mobile transactions committed in this (remote) domain.
    pub mobile_committed: u64,
    /// Blocks received from child domains and incorporated into the DAG.
    pub child_blocks_applied: u64,
    /// Blocks this node's domain sent to its parent.
    pub blocks_sent: u64,
    /// Ordering inconsistencies detected (height-2+ domains, optimistic mode).
    pub inconsistencies_detected: u64,
}

impl NodeStats {
    /// Total committed transactions of every class.
    #[cfg(test)]
    pub(crate) fn total_committed(&self) -> u64 {
        self.internal_committed + self.cross_committed + self.mobile_committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_counts_every_class() {
        let s = NodeStats {
            internal_committed: 10,
            cross_committed: 6,
            mobile_committed: 4,
            cross_aborted: 2,
            ..NodeStats::default()
        };
        assert_eq!(s.total_committed(), 20);
    }
}
