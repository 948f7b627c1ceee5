//! Simulated digital signatures.
//!
//! The protocols only require that (a) a signature over a digest can be
//! attributed to exactly one node, (b) signatures cannot be forged by other
//! nodes, and (c) verification has a non-trivial CPU cost (charged by the
//! simulator's service-time model, not here).  We implement an HMAC-style
//! construction keyed by a per-node secret derived from the node identity and
//! a deployment seed.  Within the simulation every participant derives keys
//! through [`KeyPair::for_node`], and verification recomputes the MAC — this
//! is *not* a real asymmetric scheme, but it is sound inside the simulator
//! because honest code never exposes another node's secret to protocol logic,
//! and the Byzantine fault injectors only mutate their *own* messages.

use crate::sha256::{sha256_parts, Digest};
use saguaro_types::NodeId;
use std::fmt;

/// A signature over a digest, attributable to one node.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The signing node.
    pub signer: NodeId,
    /// MAC tag.
    pub tag: Digest,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig({:?},{:?})", self.signer, self.tag)
    }
}

/// Signing/verification key material for one node.
#[derive(Clone)]
pub struct KeyPair {
    node: NodeId,
    secret: Digest,
}

/// Deployment-wide seed mixed into every key so that two simulations with
/// different seeds produce unrelated signatures.
pub const DEFAULT_DEPLOYMENT_SEED: u64 = 0x5a67_7561_726f_2121;

impl KeyPair {
    /// Derives the key pair for `node` under the default deployment seed.
    pub fn for_node(node: NodeId) -> Self {
        Self::for_node_seeded(node, DEFAULT_DEPLOYMENT_SEED)
    }

    /// Derives the key pair for `node` under an explicit deployment seed.
    pub fn for_node_seeded(node: NodeId, seed: u64) -> Self {
        let secret = sha256_parts(&[
            b"saguaro-node-key",
            &seed.to_be_bytes(),
            &(node.domain.height as u32).to_be_bytes(),
            &(node.domain.index as u32).to_be_bytes(),
            &(node.index as u32).to_be_bytes(),
        ]);
        Self { node, secret }
    }

    /// Signs a digest.
    pub fn sign(&self, digest: &Digest) -> Signature {
        Signature {
            signer: self.node,
            tag: sha256_parts(&[b"saguaro-sig", self.secret.as_ref(), digest.as_ref()]),
        }
    }
}

/// Verifies that `sig` is a valid signature by `sig.signer` over `digest`.
///
/// In the simulated PKI every participant can recompute the expected tag for
/// any node (this mirrors "nodes have access to the public keys of the
/// required nodes" in the paper's system model).
pub fn verify(sig: &Signature, digest: &Digest) -> bool {
    verify_seeded(sig, digest, DEFAULT_DEPLOYMENT_SEED)
}

/// Verifies a signature under an explicit deployment seed.
pub fn verify_seeded(sig: &Signature, digest: &Digest, seed: u64) -> bool {
    let expected = KeyPair::for_node_seeded(sig.signer, seed).sign(digest);
    expected.tag == sig.tag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use saguaro_types::DomainId;

    fn node(d: u16, i: u16) -> NodeId {
        NodeId::new(DomainId::new(1, d), i)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::for_node(node(0, 1));
        let d = sha256(b"hello");
        let sig = kp.sign(&d);
        assert!(verify(&sig, &d));
    }

    #[test]
    fn verification_fails_for_wrong_digest() {
        let kp = KeyPair::for_node(node(0, 1));
        let sig = kp.sign(&sha256(b"hello"));
        assert!(!verify(&sig, &sha256(b"tampered")));
    }

    #[test]
    fn verification_fails_for_forged_signer() {
        let kp = KeyPair::for_node(node(0, 1));
        let d = sha256(b"hello");
        let mut sig = kp.sign(&d);
        // Claim the signature came from another node.
        sig.signer = node(0, 2);
        assert!(!verify(&sig, &d));
    }

    #[test]
    fn different_nodes_produce_different_tags() {
        let d = sha256(b"payload");
        let s1 = KeyPair::for_node(node(0, 1)).sign(&d);
        let s2 = KeyPair::for_node(node(0, 2)).sign(&d);
        assert_ne!(s1.tag, s2.tag);
    }

    #[test]
    fn different_deployment_seeds_are_incompatible() {
        let d = sha256(b"payload");
        let sig = KeyPair::for_node_seeded(node(0, 1), 1).sign(&d);
        assert!(verify_seeded(&sig, &d, 1));
        assert!(!verify_seeded(&sig, &d, 2));
    }
}
