//! Saguaro core protocols.
//!
//! This crate implements the paper's primary contribution on top of the
//! substrate crates:
//!
//! * [`node::SaguaroNode`] — one replica of any domain of the hierarchy,
//!   combining the internal consensus, the execution/summarized ledgers and
//!   the four Saguaro mechanisms:
//!   * the **coordinator-based cross-domain protocol** ([`coordinator`],
//!     Algorithm 1 of the paper),
//!   * the **optimistic cross-domain protocol** ([`optimistic`], Section 6),
//!   * **lazy ledger propagation and aggregation** ([`propagation`],
//!     Section 5), and
//!   * **mobile consensus** ([`mobile`], Section 7 / Algorithm 2).
//! * [`host::ReplicaHost`] — the replica drive layer shared with the
//!   baselines: consensus engine, flush and progress timers, reply targets,
//!   tracer and harvest, written once behind [`host::HostedReplica`].
//! * [`messages::SaguaroMsg`] — every wire message of a deployment, with
//!   realistic sizes and signature counts for the network/CPU simulator.
//! * [`command::Cmd`] — the commands ordered by each domain's internal
//!   consensus.
//! * [`config::ProtocolConfig`] — what a deployment chooses: the
//!   cross-domain mode and the replica pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod config;
pub mod coordinator;
pub mod exec;
pub mod host;
pub mod messages;
pub mod mobile;
pub mod node;
pub mod optimistic;
pub mod propagation;

pub use command::Cmd;
pub use config::{CrossDomainMode, ProtocolConfig};
pub use host::{HostStats, HostedReplica, ReplicaHost};
pub use messages::{SaguaroMsg, Verdict};
pub use node::SaguaroNode;
pub use optimistic::{OptDecision, OptTracker, OptimisticValidator};
