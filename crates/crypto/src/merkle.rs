//! Merkle hash trees.
//!
//! `block` messages sent up the hierarchy include "the Merkle hash tree of
//! those transactions used to verify the content of the block" (Section 5).
//! The reproduction uses the tree for its root only: a block header and a
//! consensus batch each carry the root of their members, and a replica
//! verifies a block by recomputing it.

use crate::sha256::{sha256_parts, Digest};

/// The root of a Merkle tree over an ordered list of leaf digests.
///
/// The tree duplicates the last node of an odd level (Bitcoin-style) so every
/// level has an even number of nodes; an empty tree has a well-defined
/// sentinel root.  Only the root is kept: nothing reads the inner levels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree(Digest);

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

    /// Builds a tree from pre-hashed leaf digests.  Each level overwrites
    /// the front of the one below it in `leaf_digests`: node `i` reads only
    /// nodes `2i` and `2i + 1`, which no earlier write has touched.
    pub fn from_leaf_digests(mut leaf_digests: Vec<Digest>) -> Self {
        let mut width = leaf_digests.len();
        if width == 0 {
            return Self(empty_root());
        }
        while width > 1 {
            let parents = width.div_ceil(2);
            for i in 0..parents {
                // The last node of an odd level pairs with itself.
                let right = leaf_digests[(2 * i + 1).min(width - 1)];
                leaf_digests[i] = hash_node(&leaf_digests[2 * i], &right);
            }
            width = parents;
        }
        Self(leaf_digests[0])
    }

    /// The Merkle root (sentinel value for an empty tree).
    pub fn root(&self) -> Digest {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    /// The reference construction: one `Vec` per level.
    fn root_level_by_level(leaf_digests: Vec<Digest>) -> Digest {
        if leaf_digests.is_empty() {
            return empty_root();
        }
        let mut level = leaf_digests;
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| hash_node(&pair[0], pair.get(1).unwrap_or(&pair[0])))
                .collect();
        }
        level[0]
    }

    #[test]
    fn in_place_root_equals_the_level_by_level_construction() {
        for n in 0..=17 {
            let digests: Vec<Digest> = leaves(n).iter().map(|l| hash_leaf(l)).collect();
            let want = root_level_by_level(digests.clone());
            assert_eq!(
                MerkleTree::from_leaf_digests(digests).root(),
                want,
                "{n} leaves"
            );
            assert_eq!(
                MerkleTree::from_leaves(&leaves(n)).root(),
                want,
                "{n} leaves"
            );
        }
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
