//! Intra-domain consensus protocols.
//!
//! "Based on the failure model of nodes, Saguaro uses a CFT protocol, e.g.,
//! Paxos, or a BFT protocol, e.g., PBFT" for the internal consensus of each
//! domain.  This crate implements both as *pure message-driven state
//! machines*: feeding a message or a timeout into a replica returns a list of
//! [`interface::Step`]s (messages to send, commands to deliver in order, view
//! changes to announce) without performing any I/O itself.  The `saguaro-core`
//! crate adapts these state machines onto the discrete-event simulator; the
//! unit tests here drive them directly through an in-process router.
//!
//! * [`paxos`] — leader-based Multi-Paxos (viewstamped-replication style)
//!   for crash-only domains: 2f+1 replicas, majority quorums, view change on
//!   leader failure.
//! * [`pbft`] — PBFT for Byzantine domains: 3f+1 replicas, pre-prepare /
//!   prepare / commit phases with 2f+1 quorums, view change on primary
//!   failure, checkpointing.
//! * [`replica`] — a small dispatch wrapper ([`replica::ConsensusReplica`])
//!   that lets higher layers hold "whatever protocol this domain runs" as a
//!   single type.
//! * [`batch`] — request batching: the protocols order [`batch::Batch`]es
//!   (blocks) of commands; the leader-side [`batch::Batcher`] cuts blocks by
//!   size or age according to a [`batch::BatchConfig`].
//! * [`checkpoint`] — checkpoint agreement, state-transfer pacing and the
//!   durable chain shared by both engines: quorum-certified executed floors
//!   bound view-change votes and slot maps, and gap-stalled replicas fetch
//!   missing committed entries (or a snapshot plus the retained tail) from
//!   up-to-date peers (`StateRequest` / `StateReply` / `SnapshotReply`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
pub mod interface;
pub mod paxos;
pub mod pbft;
pub mod replica;
pub mod suspicion;

pub use batch::{Batch, BatchConfig, Batcher};
pub use checkpoint::CheckpointKeeper;
pub use interface::{Command, Step};
pub use paxos::{PaxosMsg, PaxosReplica};
pub use pbft::{PbftMsg, PbftReplica};
pub use replica::{delivered_commands, ConsensusMsg, ConsensusReplica};
pub use saguaro_types::CheckpointConfig;
pub use suspicion::SuspicionTimer;
