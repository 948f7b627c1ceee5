//! Cryptographic primitives for Saguaro.
//!
//! The paper assumes digital signatures, a public-key infrastructure and
//! message digests ("we denote a message m signed by node r as ⟨m⟩σr and the
//! digest of a message m by Δ(m)").  Because the reproduction runs inside a
//! deterministic simulator rather than over an adversarial network, we
//! implement:
//!
//! * [`sha256`] — a from-scratch SHA-256 used for digests, block hashes and
//!   Merkle trees (no external dependency, fully testable against the FIPS
//!   180-4 vectors), compressed on the CPU's SHA extensions where it has
//!   them.
//! * [`sign`] — *simulated* signatures: a keyed MAC over the message digest,
//!   where the "private key" is derived from the node identity.  Within the
//!   simulation's threat model (the adversary cannot subvert standard
//!   cryptographic assumptions) this gives exactly the unforgeability the
//!   protocols rely on, while letting the CPU cost model charge realistic
//!   verification time.
//! * [`merkle`] — Merkle hash trees over transaction batches, used by `block`
//!   messages so parents can verify the content of a child block.
//! * [`cert`] — quorum certificates: a set of signatures from distinct nodes
//!   of one domain over the same digest (`2f + 1` for Byzantine domains, the
//!   primary's signature for crash-only domains).

// `deny`, not `forbid`: `sha256` allows its one SHA-extension dispatch.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod merkle;
pub mod sha256;
pub mod sign;

pub use cert::QuorumCert;
pub use merkle::MerkleTree;
pub use sha256::{sha256, Digest};
pub use sign::{KeyPair, Signature};
