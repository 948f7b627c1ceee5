//! Merkle hash trees.
//!
//! `block` messages sent up the hierarchy include "the Merkle hash tree of
//! those transactions used to verify the content of the block" (Section 5).
//! The reproduction uses the tree for its root only: a block header and a
//! consensus batch each carry the root of their members, and a replica
//! verifies a block by recomputing it.

use crate::sha256::{sha256_parts, Digest};

/// A Merkle tree over an ordered list of leaf digests.
///
/// The tree duplicates the last node of an odd level (Bitcoin-style) so every
/// level has an even number of nodes; an empty tree has a well-defined
/// sentinel root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// levels[0] is the leaf level, last level has exactly one node (the root)
    /// unless the tree is empty.
    levels: Vec<Vec<Digest>>,
}

fn hash_leaf(data: &[u8]) -> Digest {
    sha256_parts(&[b"leaf", data])
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    sha256_parts(&[b"node", left.as_ref(), right.as_ref()])
}

/// Root of an empty tree (distinct from any real root).
pub fn empty_root() -> Digest {
    sha256_parts(&[b"empty-merkle-tree"])
}

impl MerkleTree {
    /// Builds a tree over the given leaf payloads.
    pub fn from_leaves<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        let leaf_digests: Vec<Digest> = leaves.iter().map(|l| hash_leaf(l.as_ref())).collect();
        Self::from_leaf_digests(leaf_digests)
    }

    /// Builds a tree from pre-hashed leaf digests.
    pub fn from_leaf_digests(leaf_digests: Vec<Digest>) -> Self {
        if leaf_digests.is_empty() {
            return Self { levels: vec![] };
        }
        let mut levels = vec![leaf_digests];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                let right = pair.get(1).unwrap_or(left);
                next.push(hash_node(left, right));
            }
            levels.push(next);
        }
        Self { levels }
    }

    /// The Merkle root (sentinel value for an empty tree).
    pub fn root(&self) -> Digest {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or_else(empty_root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_sentinel_root() {
        let t = MerkleTree::from_leaves::<Vec<u8>>(&[]);
        assert_eq!(t.root(), empty_root());
    }

    #[test]
    fn root_changes_when_any_leaf_changes() {
        let mut data = leaves(6);
        let r1 = MerkleTree::from_leaves(&data).root();
        data[4] = b"tampered".to_vec();
        let r2 = MerkleTree::from_leaves(&data).root();
        assert_ne!(r1, r2);
    }

    #[test]
    fn root_depends_on_leaf_order() {
        let data = leaves(4);
        let mut rev = data.clone();
        rev.reverse();
        assert_ne!(
            MerkleTree::from_leaves(&data).root(),
            MerkleTree::from_leaves(&rev).root()
        );
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A single leaf's root must not equal the node-hash of anything, and
        // leaf hashing must not equal plain sha256 of the data.
        let t = MerkleTree::from_leaves(&leaves(1));
        assert_ne!(t.root(), crate::sha256::sha256(b"tx-0"));
    }
}
