//! Checkpoint agreement and state-transfer bookkeeping shared by both
//! consensus engines.
//!
//! A [`CheckpointKeeper`] tracks four things for one replica:
//!
//! 1. **Stable checkpoints.**  Every `interval` deliveries a replica
//!    announces its executed floor (a `Checkpoint` protocol message); once a
//!    commit quorum has announced the same floor *and* this replica has
//!    itself executed it, the floor becomes *stable* and the engine
//!    garbage-collects every slot at or below it.  View-change votes are
//!    bounded by the stable checkpoint, so vote payloads and slot maps grow
//!    with `history − checkpoint` instead of `O(history)`.
//! 2. **Commit-frontier hints.**  Checkpoint announcements, `Learn`s and
//!    `NewView`s all certify that sequence numbers beyond this replica's
//!    delivery frontier are committed somewhere.  The keeper remembers the
//!    highest such hint and which peer evidenced it.
//! 3. **State-transfer pacing.**  When the hint runs ahead of the local
//!    frontier and the next slot cannot commit locally (its entries may have
//!    been garbage-collected by every peer's slot map), the replica is
//!    *gap-stalled* and must fetch the missing committed entries from an
//!    up-to-date peer (`StateRequest` / `StateReply`, the viewstamped
//!    replication catch-up).  The keeper paces those requests so a stall
//!    produces one request per new piece of evidence, not a request storm.
//! 4. **The durable chain.**  Every delivered entry is retained for serving
//!    state transfer, together with the latest application snapshot; under a
//!    finite retention window the chain is pruned below the prune floor and
//!    a request below the retained tail is answered with the snapshot plus
//!    the tail instead of a full replay.
//!
//! Both engines run the same regime: announcements every
//! [`CheckpointConfig::interval`] deliveries (128 by default), state
//! transfer always served, and a retention window that is infinite unless
//! the configuration sets one.

use saguaro_types::{CheckpointConfig, NodeId, SeqNo, StateSnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The payload of a state-transfer reply: the snapshot to install first
/// (when the requester's frontier was pruned away) and the contiguous
/// committed `(seq, command)` entries to replay after it.
pub(crate) type StateTransfer<C> = (Option<Arc<StateSnapshot>>, Vec<(SeqNo, C)>);

/// Per-replica checkpoint, state-transfer and durable-chain bookkeeping.
#[derive(Clone, Debug)]
pub struct CheckpointKeeper<C> {
    /// Deliveries between announcements.
    interval: SeqNo,
    /// The last stable (quorum-certified, locally executed) checkpoint.
    stable: SeqNo,
    /// The distinct announcers of each floor, our own vote included.
    votes: BTreeMap<SeqNo, Vec<NodeId>>,
    /// Highest sequence number some peer evidenced as committed.
    hint: SeqNo,
    /// The peer that evidenced [`CheckpointKeeper::hint`].
    hint_from: Option<NodeId>,
    /// `(local frontier, hint)` at the time of the last state request, used
    /// to pace re-requests: a new request goes out only when the frontier
    /// moved (previous transfer applied) or the hint grew (new evidence).
    requested: Option<(SeqNo, SeqNo)>,
    /// Retention window below the stable checkpoint; `None` keeps full
    /// history (no snapshots, no pruning).
    retention: Option<u64>,
    /// Highest executed floor each member (including this replica) has ever
    /// announced — the evidence base for the prune floor.
    peer_floors: BTreeMap<NodeId, SeqNo>,
    /// Every delivered entry, retained for serving state transfer (pruned
    /// below the prune floor under a finite retention window).
    delivered_log: BTreeMap<SeqNo, C>,
    /// The latest materialized (or catch-up-installed) application
    /// snapshot, used to answer requests below the retained tail.
    snapshot: Option<Arc<StateSnapshot>>,
}

impl<C: Clone> CheckpointKeeper<C> {
    /// Builds the keeper for one replica.
    pub fn new(config: CheckpointConfig) -> Self {
        assert!(
            config.retention > 0,
            "CheckpointConfig::retention is 0: a snapshot responder keeps at least one delivery"
        );
        Self {
            interval: config.interval,
            stable: 0,
            votes: BTreeMap::new(),
            hint: 0,
            hint_from: None,
            requested: None,
            retention: config.prunes().then_some(config.retention),
            peer_floors: BTreeMap::new(),
            delivered_log: BTreeMap::new(),
            snapshot: None,
        }
    }

    /// The last stable checkpoint.
    pub fn stable(&self) -> SeqNo {
        self.stable
    }

    /// True if this configuration materializes snapshots and prunes
    /// entry-grained state (a finite retention window).
    pub fn prunes(&self) -> bool {
        self.retention.is_some()
    }

    /// The highest floor every member is known to have executed: the minimum
    /// over all announced floors once each of the domain's `members` has
    /// announced at least once, `0` before that (no evidence about the
    /// silent members).
    pub fn lowest_peer_floor(&self, members: usize) -> SeqNo {
        if self.peer_floors.len() >= members {
            self.peer_floors.values().copied().min().unwrap_or(0)
        } else {
            0
        }
    }

    /// The sequence number at or below which entry-grained state (delivered
    /// logs, chains, learn slots) may be discarded, for a domain of
    /// `members` replicas.
    ///
    /// Everything below the lowest announced peer floor is fetchable by no
    /// correct future `StateRequest` (a replica never requests below its own
    /// announced floor), and everything below `stable − retention` is
    /// covered by the snapshot taken at the stable checkpoint — so the floor
    /// is the *higher* of the two, clamped to the stable checkpoint.  The
    /// retention term keeps memory flat when a crashed peer's floor freezes;
    /// its eventual catch-up is served from the snapshot.  Always `0` when
    /// pruning is off.
    pub fn prune_floor(&self, members: usize) -> SeqNo {
        let Some(retention) = self.retention else {
            return 0;
        };
        self.lowest_peer_floor(members)
            .max(self.stable.saturating_sub(retention))
            .min(self.stable)
    }

    /// True if a checkpoint announcement is due after delivering `seq`.
    pub fn announces_at(&self, seq: SeqNo) -> bool {
        seq.is_multiple_of(self.interval)
    }

    /// Records one replica's announcement of executed floor `seq`.  Returns
    /// `true` if the floor just became stable — the caller must then
    /// garbage-collect its slots at or below [`CheckpointKeeper::stable`].
    /// `last_delivered` gates stabilisation on local execution: a floor this
    /// replica has not reached yet stays pending (the votes are kept).
    pub fn record_vote(
        &mut self,
        from: NodeId,
        seq: SeqNo,
        quorum: usize,
        last_delivered: SeqNo,
    ) -> bool {
        // Every announcement — even a stale one — evidences the announcer's
        // executed floor for prune-floor purposes.
        let floor = self.peer_floors.entry(from).or_insert(0);
        *floor = (*floor).max(seq);
        if seq <= self.stable {
            return false;
        }
        let votes = self.votes.entry(seq).or_default();
        if !votes.contains(&from) {
            votes.push(from);
        }
        if votes.len() >= quorum && last_delivered >= seq {
            self.stable = seq;
            self.votes.retain(|s, _| *s > seq);
            return true;
        }
        false
    }

    /// Adopts an externally certified floor (a `NewView`'s checkpoint): the
    /// new primary proved a quorum stabilised it.
    pub fn adopt_stable(&mut self, seq: SeqNo) {
        if seq > self.stable {
            self.stable = seq;
            self.votes.retain(|s, _| *s > seq);
        }
    }

    /// Notes evidence that `seq` is committed somewhere, remembering `from`
    /// as a peer worth fetching state from.
    pub fn note_hint(&mut self, seq: SeqNo, from: NodeId) {
        if seq > self.hint {
            self.hint = seq;
            self.hint_from = Some(from);
        }
    }

    /// Decides whether a gap-stalled replica should fetch state now.
    /// `frontier` is the local delivery frontier; `next_commits_locally`
    /// says whether the slot right above it is already committed locally
    /// (then normal draining will make progress and no transfer is needed).
    /// Returns the peer to ask; the caller must send
    /// `StateRequest { above: frontier }` to it.
    pub fn should_request(
        &mut self,
        frontier: SeqNo,
        next_commits_locally: bool,
    ) -> Option<NodeId> {
        if next_commits_locally || self.hint <= frontier {
            return None;
        }
        if let Some((at_frontier, at_hint)) = self.requested {
            if frontier <= at_frontier && self.hint <= at_hint {
                return None; // nothing changed since the last request
            }
        }
        let peer = self.hint_from?;
        self.requested = Some((frontier, self.hint));
        Some(peer)
    }

    /// Clears the pacing state after a transfer applied (so the next stall
    /// re-requests immediately).
    pub fn transfer_applied(&mut self) {
        self.requested = None;
    }

    /// Retains a delivered entry in the durable chain.
    pub(crate) fn retain(&mut self, seq: SeqNo, command: C) {
        self.delivered_log.insert(seq, command);
    }

    /// Number of delivered entries retained in the durable chain.
    pub(crate) fn chain_len(&self) -> u64 {
        self.delivered_log.len() as u64
    }

    /// First sequence number still retained in the durable chain
    /// (`frontier + 1` when nothing is retained).
    pub(crate) fn chain_start(&self, frontier: SeqNo) -> SeqNo {
        let first = self.delivered_log.keys().next();
        first.copied().unwrap_or(frontier + 1)
    }

    /// The snapshot point currently held, if any.
    pub(crate) fn snapshot_seq(&self) -> Option<SeqNo> {
        self.snapshot.as_ref().map(|s| s.seq)
    }

    /// Stores the application snapshot the adapter materialized in response
    /// to a `Step::TakeSnapshot`, then prunes the entry-grained state the
    /// snapshot makes redundant.  Stale snapshots (at or below the held one)
    /// are ignored.
    pub(crate) fn store_snapshot(&mut self, snapshot: Arc<StateSnapshot>, members: usize) {
        if self.snapshot_seq().is_none_or(|held| held < snapshot.seq) {
            self.snapshot = Some(snapshot);
            self.prune_entry_state(members);
        }
    }

    /// Discards durable-chain entries no future correct request can need:
    /// everything at or below the prune floor, capped at the held snapshot
    /// point so the tail above the snapshot stays servable.  A no-op unless
    /// a finite retention window is configured.
    pub(crate) fn prune_entry_state(&mut self, members: usize) {
        let Some(snapshot_seq) = self.snapshot_seq() else {
            return;
        };
        let floor = self.prune_floor(members).min(snapshot_seq);
        if floor > 0 {
            self.delivered_log = self.delivered_log.split_off(&(floor + 1));
        }
    }

    /// Adopts a snapshot received through catch-up: the chain at or below
    /// it is superseded, and because it was materialized at a quorum-stable
    /// checkpoint its point becomes this replica's stable floor.
    pub(crate) fn adopt_snapshot(&mut self, snapshot: Arc<StateSnapshot>) {
        self.delivered_log = self.delivered_log.split_off(&(snapshot.seq + 1));
        self.adopt_stable(snapshot.seq);
        self.snapshot = Some(snapshot);
    }

    /// What a replica at frontier `last_delivered` sends a peer that asked
    /// for everything above `above`: `None` when the peer misses nothing, or
    /// neither the chain nor the snapshot covers its frontier.
    pub(crate) fn answer_state_request(
        &self,
        above: SeqNo,
        last_delivered: SeqNo,
    ) -> Option<StateTransfer<C>> {
        if above >= last_delivered {
            return None;
        }
        let tail = |from: SeqNo| {
            let entries = self.delivered_log.range(from..);
            entries.map(|(seq, cmd)| (*seq, cmd.clone())).collect()
        };
        if self.delivered_log.contains_key(&(above + 1)) {
            // The full tail above the requester's frontier is retained:
            // a full-replay reply.
            return Some((None, tail(above + 1)));
        }
        // The requested frontier was pruned away: serve the snapshot plus
        // the retained tail above it instead of a full replay.
        let snapshot = self.snapshot.as_ref().filter(|s| s.seq > above)?;
        Some((Some(snapshot.clone()), tail(snapshot.seq + 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::DomainId;

    type CheckpointKeeper = super::CheckpointKeeper<Vec<u8>>;

    fn node(i: u16) -> NodeId {
        NodeId::new(DomainId::new(1, 0), i)
    }

    #[test]
    fn keeper_announces_on_the_configured_interval() {
        let k = CheckpointKeeper::new(CheckpointConfig::every(8));
        assert!(k.announces_at(8) && k.announces_at(16));
        assert!(!k.announces_at(9));
        let default = CheckpointKeeper::new(CheckpointConfig::default());
        assert!(default.announces_at(128) && !default.announces_at(127));
    }

    #[test]
    fn votes_stabilise_only_with_quorum_and_local_execution() {
        let mut k = CheckpointKeeper::new(CheckpointConfig::every(4));
        assert!(!k.record_vote(node(0), 4, 2, 4));
        // Quorum reached but this replica only delivered 3: stays pending.
        assert!(!k.record_vote(node(1), 4, 2, 3));
        // Re-announcing after catching up stabilises it.
        assert!(k.record_vote(node(2), 4, 2, 4));
        assert_eq!(k.stable(), 4);
        // Stale floors are ignored.
        assert!(!k.record_vote(node(1), 3, 1, 10));
        assert_eq!(k.stable(), 4);
    }

    #[test]
    fn request_pacing_fires_once_per_new_evidence() {
        let mut k = CheckpointKeeper::new(CheckpointConfig::every(4));
        k.note_hint(10, node(2));
        assert_eq!(k.should_request(4, false), Some(node(2)));
        // Same stall, same evidence: no storm.
        assert_eq!(k.should_request(4, false), None);
        // The hint grew: ask again.
        k.note_hint(12, node(1));
        assert_eq!(k.should_request(4, false), Some(node(1)));
        // The frontier moved (a transfer applied): ask again for the rest.
        k.transfer_applied();
        assert_eq!(k.should_request(11, false), Some(node(1)));
        // No gap, or the next slot commits locally: no request.
        assert_eq!(k.should_request(12, false), None);
        k.note_hint(20, node(3));
        assert_eq!(k.should_request(12, true), None);
    }

    #[test]
    fn prune_floor_tracks_lowest_announced_peer() {
        let mut k = CheckpointKeeper::new(CheckpointConfig::every(4).with_retention(100));
        assert!(k.prunes());
        // Nothing prunable before every member has announced once.
        k.record_vote(node(0), 4, 2, 4);
        k.record_vote(node(1), 4, 2, 4);
        assert_eq!(k.stable(), 4);
        assert_eq!(k.prune_floor(3), 0, "node 2 has never announced");
        // Once all three announced, the floor is the lowest of them.
        k.record_vote(node(2), 4, 2, 4);
        k.record_vote(node(0), 8, 2, 8);
        k.record_vote(node(1), 8, 2, 8);
        assert_eq!(k.stable(), 8);
        assert_eq!(k.lowest_peer_floor(3), 4);
        assert_eq!(k.prune_floor(3), 4);
        // Even a stale re-announcement updates the announcer's floor.
        assert!(!k.record_vote(node(2), 8, 2, 8), "already stable");
        assert_eq!(k.prune_floor(3), 8);
    }

    #[test]
    fn prune_floor_is_bounded_by_retention_when_a_peer_freezes() {
        let mut k = CheckpointKeeper::new(CheckpointConfig::every(4).with_retention(8));
        for seq in [4u64, 8, 12] {
            for n in 0..3 {
                k.record_vote(node(n), seq, 2, seq);
            }
        }
        // Node 2 crashes at floor 12; the others advance to 32.
        for seq in [16u64, 20, 24, 28, 32] {
            k.record_vote(node(0), seq, 2, seq);
            k.record_vote(node(1), seq, 2, seq);
        }
        assert_eq!(k.stable(), 32);
        assert_eq!(k.lowest_peer_floor(3), 12);
        // The retention term overrides the frozen floor: memory stays flat
        // and the crashed peer recovers from the snapshot instead.
        assert_eq!(k.prune_floor(3), 24);
    }

    #[test]
    fn infinite_retention_never_prunes() {
        let mut k = CheckpointKeeper::new(CheckpointConfig::every(4));
        for n in 0..3 {
            k.record_vote(node(n), 4, 2, 4);
        }
        assert!(!k.prunes());
        assert_eq!(k.prune_floor(3), 0);
    }

    /// A keeper over three members that delivered `1..=through`, storing a
    /// snapshot at every announced (and at once stable) floor.
    fn chain(config: CheckpointConfig, through: SeqNo) -> CheckpointKeeper {
        let mut k = CheckpointKeeper::new(config);
        for seq in 1..=through {
            k.retain(seq, vec![seq as u8]);
            if k.announces_at(seq) {
                for n in 0..3 {
                    k.record_vote(node(n), seq, 2, seq);
                }
                let snapshot = StateSnapshot {
                    seq,
                    ..StateSnapshot::default()
                };
                k.store_snapshot(Arc::new(snapshot), 3);
            }
        }
        k
    }

    #[test]
    fn state_requests_get_the_tail_the_snapshot_or_nothing() {
        // Retention 1: everything at or below the stable checkpoint (8) is
        // pruned; 9 and 10 are the retained tail above the snapshot.
        let k = chain(CheckpointConfig::every(4).with_retention(1), 10);
        assert_eq!((k.chain_start(0), k.chain_len()), (9, 2));
        let tail = vec![(9, vec![9]), (10, vec![10])];
        // Frontier inside the retained chain: the full tail, no snapshot.
        assert_eq!(k.answer_state_request(8, 10), Some((None, tail.clone())));
        // Frontier pruned away: the snapshot plus the tail above it.
        let (snapshot, entries) = k.answer_state_request(3, 10).expect("snapshot");
        assert_eq!((snapshot.map(|s| s.seq), entries), (Some(8), tail));
        // The requester misses nothing, or nothing held covers its
        // frontier: no answer.
        assert_eq!(k.answer_state_request(10, 10), None);
        let mut bare = CheckpointKeeper::new(CheckpointConfig::every(4));
        bare.retain(5, vec![5]);
        assert_eq!(bare.answer_state_request(2, 5), None);
    }

    #[test]
    #[should_panic(expected = "CheckpointConfig::retention is 0")]
    fn zero_retention_is_refused() {
        let _ = CheckpointKeeper::new(CheckpointConfig::every(4).with_retention(0));
    }

    #[test]
    fn adopt_stable_jumps_forward_only() {
        let mut k = CheckpointKeeper::new(CheckpointConfig::every(4));
        k.adopt_stable(8);
        assert_eq!(k.stable(), 8);
        k.adopt_stable(4);
        assert_eq!(k.stable(), 8);
    }
}
