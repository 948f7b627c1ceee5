//! Common identifiers, transactions, messages and configuration shared by every
//! Saguaro crate.
//!
//! Saguaro (Amiri et al., ICDE 2023) organises an edge-computing network as a
//! tree of fault-tolerant *domains*: edge devices at height 0, edge servers at
//! height 1, fog servers at height 2 and cloud servers above.  This crate holds
//! the vocabulary types used by the consensus protocols, the ledgers and the
//! experiment harness:
//!
//! * [`ids`] — strongly typed identifiers for domains, nodes, clients and
//!   geographic regions.
//! * [`transaction`] — client transactions (internal, cross-domain and mobile)
//!   and the micropayment/ridesharing operations they carry.
//! * [`sequence`] — single- and multi-part sequence numbers (a cross-domain
//!   transaction carries one part per involved domain, e.g. `12-22-31`).
//! * [`config`] — failure models, quorum arithmetic and per-domain
//!   configuration.
//! * [`cowmap`] — the persistent `key → u64` map a domain's account state
//!   lives in, shared between its replicas and its checkpoint snapshots.
//! * [`time`] — virtual time used by the discrete-event substrate.
//! * [`hash`] — the one fixed, fast hasher behind every simulator map.
//! * [`error`] — the shared error type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cowmap;
pub mod error;
pub mod hash;
pub mod ids;
pub mod sequence;
pub mod snapshot;
pub mod time;
pub mod transaction;

pub use config::{
    BatchConfig, CheckpointConfig, ClientModel, ConsensusTuning, DomainConfig, FailureModel,
    LivenessConfig, PopulationConfig, QuorumSpec, RateEnvelope, StackConfig, TraceConfig,
};
pub use cowmap::{CowMap, Key};
pub use error::SaguaroError;
pub use ids::{ClientId, DomainId, Height, NodeId, Region};
pub use sequence::{delivery_hash, DeliveryLog, MultiSeq, SeqNo};
pub use snapshot::{Custody, StateSnapshot};
pub use time::{Duration, SimTime};
pub use transaction::{Involved, Operation, Transaction, TxBody, TxId, TxKind};

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, SaguaroError>;
