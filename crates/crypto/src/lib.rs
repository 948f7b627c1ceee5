//! Cryptographic primitives for Saguaro.
//!
//! The paper assumes digital signatures, a public-key infrastructure and
//! message digests ("we denote a message m signed by node r as ⟨m⟩σr and the
//! digest of a message m by Δ(m)").  Because the reproduction runs inside a
//! deterministic simulator rather than over an adversarial network, we
//! implement:
//!
//! * [`mod@sha256`] — a from-scratch SHA-256 used for digests, block hashes
//!   and Merkle roots (no external dependency, fully testable against the
//!   FIPS 180-4 vectors), compressed on the CPU's SHA extensions where it
//!   has them.
//! * [`sign`] — *simulated* signatures: a keyed MAC over the message digest,
//!   where the "private key" is derived from the node identity.  The
//!   protocols do not sign or verify anything: a message's signatures are
//!   modelled as a count (`MessageMeta::signatures`) that the simulator's
//!   CPU model charges verification time for.  This module is the cost that
//!   count stands for, and what the benchmark times it by.
//! * [`merkle`] — Merkle hash trees over transaction batches.  They provide
//!   block and batch roots only; nothing builds or checks inclusion proofs.

// `deny`, not `forbid`: `sha256` allows its one SHA-extension dispatch.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod merkle;
pub mod sha256;
pub mod sign;

pub use merkle::MerkleTree;
pub use sha256::{sha256, Digest};
pub use sign::{KeyPair, Signature};
