//! Request batching for the ordering pipeline.
//!
//! Saguaro (like the systems it is compared against) orders *blocks* of
//! transactions through each domain's internal consensus rather than one
//! consensus instance per command.  [`Batch`] is the block: an ordered list
//! of member commands whose digest is the Merkle root over the member
//! digests, so replicas vote on a fixed-size value.  [`Batcher`] is the
//! leader-side accumulator
//! that cuts blocks by size ([`BatchConfig::max_batch`]) or age (the
//! adapter's flush timer).

use crate::interface::Command;
use saguaro_crypto::sha256::sha256_parts;
use saguaro_crypto::{Digest, MerkleTree};
pub use saguaro_types::BatchConfig;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An ordered block of commands ordered through consensus as one unit.
///
/// The members are immutable and shared: cloning a batch — into a slot, a
/// wire message, the delivered chain, a `Deliver` step — bumps a reference
/// count, and the digest is computed by whichever holder asks first and read
/// by every other.  A batch with different members is a different
/// allocation with its own (empty) digest cell.
pub struct Batch<C> {
    body: Arc<BatchBody<C>>,
}

struct BatchBody<C> {
    commands: Vec<C>,
    /// Memoized [`Command::digest`] of the batch.
    digest: OnceLock<Digest>,
}

impl<C> Clone for Batch<C> {
    fn clone(&self) -> Self {
        Self {
            body: Arc::clone(&self.body),
        }
    }
}

impl<C: fmt::Debug> fmt::Debug for Batch<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Batch")
            .field("commands", &self.body.commands)
            .finish()
    }
}

impl<C: PartialEq> PartialEq for Batch<C> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.body, &other.body) || self.body.commands == other.body.commands
    }
}

impl<C> Batch<C> {
    /// Builds a batch from its member commands (empty batches are legal but
    /// never produced by the [`Batcher`]).
    pub fn new(commands: Vec<C>) -> Self {
        Self {
            body: Arc::new(BatchBody {
                commands,
                digest: OnceLock::new(),
            }),
        }
    }

    /// A block of exactly one command (the unbatched configuration).
    pub fn single(cmd: C) -> Self {
        Self::new(vec![cmd])
    }

    /// Number of member commands.
    pub fn len(&self) -> usize {
        self.body.commands.len()
    }

    /// True if the batch carries no commands.
    pub fn is_empty(&self) -> bool {
        self.body.commands.is_empty()
    }

    /// Iterates over the member commands in block order.
    pub fn iter(&self) -> std::slice::Iter<'_, C> {
        self.body.commands.iter()
    }

    /// The member commands in block order.
    pub fn commands(&self) -> &[C] {
        &self.body.commands
    }
}

impl<'a, C> IntoIterator for &'a Batch<C> {
    type Item = &'a C;
    type IntoIter = std::slice::Iter<'a, C>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<C: Command> Command for Batch<C> {
    /// Digest of a batch: the Merkle root over the member digests
    /// (domain-separated from raw member digests so a one-command block
    /// never collides with its member).  Computed once per batch body.
    fn digest(&self) -> Digest {
        *self.body.digest.get_or_init(|| {
            let leaves: Vec<Digest> = self.iter().map(Command::digest).collect();
            let root = MerkleTree::from_leaf_digests(leaves).root();
            sha256_parts(&[b"saguaro-batch", root.as_ref()])
        })
    }
}

/// Leader-side accumulator that cuts [`Batch`]es from a stream of commands.
///
/// The owning adapter calls [`Batcher::push`] for every command routed to the
/// leader; a full block (`max_batch` members) is cut and returned
/// immediately.  When `push` leaves commands pending, the adapter is
/// responsible for scheduling a flush timer and calling
/// [`Batcher::flush`] when it fires, so under-full blocks still commit within
/// a bounded delay.  With `max_batch = 1` every push cuts a single-command
/// block and the batcher is never left non-empty — the pipeline is then
/// step-for-step identical to an unbatched deployment.
#[derive(Clone, Debug)]
pub struct Batcher<C> {
    config: BatchConfig,
    pending: Vec<C>,
}

impl<C: Clone> Batcher<C> {
    /// Creates a batcher with the given knobs.  Panics if `max_batch` is 0.
    pub fn new(config: BatchConfig) -> Self {
        assert!(
            config.max_batch > 0,
            "BatchConfig::max_batch is 0: a block holds at least one command"
        );
        Self {
            config,
            pending: Vec::new(),
        }
    }

    /// The knobs this batcher runs with.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Number of commands waiting for the next cut.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// True if no commands are waiting.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Adds a command; returns a full block once `max_batch` members are
    /// pending, `None` while the block is still filling.  A block's first
    /// command reserves room for exactly `max_batch`: the cut block keeps
    /// this buffer for as long as the consensus log keeps the batch.
    pub fn push(&mut self, cmd: C) -> Option<Batch<C>> {
        if self.pending.capacity() == 0 {
            self.pending.reserve_exact(self.config.max_batch);
        }
        self.pending.push(cmd);
        if self.pending.len() >= self.config.max_batch {
            self.cut()
        } else {
            None
        }
    }

    /// Cuts whatever is pending (the flush-timer path); `None` when empty.
    pub fn flush(&mut self) -> Option<Batch<C>> {
        self.cut()
    }

    /// Puts a cut batch back at the head of the pending queue (used when the
    /// consensus engine refused the proposal, e.g. mid-view-change, so the
    /// commands are retried instead of destroyed).
    pub fn restore(&mut self, batch: Batch<C>) {
        let behind = std::mem::replace(&mut self.pending, batch.commands().to_vec());
        self.pending.extend(behind);
    }

    fn cut(&mut self) -> Option<Batch<C>> {
        if self.pending.is_empty() {
            return None;
        }
        Some(Batch::new(std::mem::take(&mut self.pending)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Cmd = Vec<u8>;

    fn cmds(n: u8) -> Vec<Cmd> {
        (0..n).map(|i| vec![i]).collect()
    }

    #[test]
    fn digest_is_merkle_root_over_member_digests() {
        let batch = Batch::new(cmds(4));
        let leaves: Vec<Digest> = cmds(4).iter().map(Command::digest).collect();
        let root = MerkleTree::from_leaf_digests(leaves).root();
        assert_eq!(
            batch.digest(),
            sha256_parts(&[b"saguaro-batch", root.as_ref()])
        );
    }

    #[test]
    fn digest_depends_on_members_and_order() {
        let a = Batch::new(cmds(3));
        let mut rev = cmds(3);
        rev.reverse();
        assert_ne!(a.digest(), Batch::new(rev).digest());
        assert_ne!(a.digest(), Batch::new(cmds(4)).digest());
        assert_eq!(a.digest(), Batch::new(cmds(3)).digest());
    }

    #[test]
    fn single_command_batch_does_not_collide_with_member_digest() {
        let cmd: Cmd = b"tx".to_vec();
        assert_ne!(Batch::single(cmd.clone()).digest(), cmd.digest());
    }

    #[test]
    fn unbatched_push_cuts_immediately() {
        let mut b: Batcher<Cmd> = Batcher::new(BatchConfig::unbatched());
        let cut = b.push(b"a".to_vec()).expect("max_batch = 1 cuts per push");
        assert_eq!(cut.len(), 1);
        assert!(b.is_empty());
        assert!(b.flush().is_none());
    }

    #[test]
    fn push_cuts_at_max_batch_and_flush_cuts_early() {
        let mut b: Batcher<Cmd> = Batcher::new(BatchConfig::with_max_batch(3));
        assert!(b.push(vec![0]).is_none());
        assert!(b.push(vec![1]).is_none());
        assert_eq!(b.pending(), 2);
        let full = b.push(vec![2]).expect("third push fills the block");
        assert_eq!(full.commands(), &[vec![0], vec![1], vec![2]]);
        assert!(b.push(vec![3]).is_none());
        let partial = b.flush().expect("flush cuts the under-full block");
        assert_eq!(partial.commands(), &[vec![3]]);
        assert!(b.flush().is_none());
    }

    #[test]
    fn every_block_reserves_exactly_max_batch_slots() {
        for max_batch in [1, 3, 32] {
            let mut b: Batcher<Cmd> = Batcher::new(BatchConfig::with_max_batch(max_batch));
            let full = (0..max_batch as u8).find_map(|i| b.push(vec![i]));
            let full = full.expect("max_batch pushes fill a block");
            assert_eq!(full.body.commands.capacity(), max_batch);
            // An under-full block, cut by the flush timer, has the same room.
            let next = b.push(vec![0]).or_else(|| b.flush()).expect("one pending");
            assert_eq!(next.body.commands.capacity(), max_batch);
        }
    }

    #[test]
    fn restore_puts_commands_back_in_order() {
        let mut b: Batcher<Cmd> = Batcher::new(BatchConfig::with_max_batch(8));
        assert!(b.push(vec![0]).is_none());
        assert!(b.push(vec![1]).is_none());
        let cut = b.flush().expect("two pending");
        assert!(b.push(vec![2]).is_none());
        b.restore(cut);
        assert_eq!(b.pending(), 3);
        let all = b.flush().expect("restored + new");
        assert_eq!(all.commands(), &[vec![0], vec![1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "BatchConfig::max_batch is 0")]
    fn zero_max_batch_is_refused() {
        let _: Batcher<Cmd> = Batcher::new(BatchConfig::with_max_batch(0));
    }
}
