//! Intra-domain consensus: one replicated log, two agreement rules.
//!
//! "Based on the failure model of nodes, Saguaro uses a CFT protocol, e.g.,
//! Paxos, or a BFT protocol, e.g., PBFT" for the internal consensus of each
//! domain.  The protocol is a rule for *when a slot is chosen*; everything
//! else a domain member does — deliver in order, checkpoint, garbage-collect,
//! transfer state, change views — is the same replica.  This crate implements
//! it as a *pure message-driven state machine*: feeding a message or a
//! timeout into a replica returns a list of [`interface::Step`]s (messages to
//! send, commands to deliver in order, view changes to announce) without
//! performing any I/O itself.  The `saguaro-core` crate adapts the state
//! machine onto the discrete-event simulator; the unit tests here drive it
//! directly through an in-process router.
//!
//! * [`replica`] — [`replica::ConsensusReplica`], the one replica: views,
//!   the delivery frontier, checkpoint agreement and slot GC, state
//!   transfer, timeout escalation and the view change, written once over
//!   whichever rule the domain's failure model selects.
//! * [`paxos`] — the rule of crash-only domains: leader-based Multi-Paxos
//!   (viewstamped-replication style), 2f+1 replicas, majority quorums.
//! * [`pbft`] — the rule of Byzantine domains: 3f+1 replicas, pre-prepare /
//!   prepare / commit phases with 2f+1 quorums, and the guards a `NewView`
//!   must pass.
//! * [`msg`] — [`msg::ConsensusMsg`], the one wire type: the failure model
//!   plus a [`msg::MsgBody`] that declares view change, checkpointing and
//!   state transfer once, and what a message carries for the wire-size and
//!   CPU models of the node layers.
//! * [`batch`] — request batching: the replica orders [`batch::Batch`]es
//!   (blocks) of commands; the leader-side [`batch::Batcher`] cuts blocks by
//!   size or age according to a [`batch::BatchConfig`].
//! * [`checkpoint`] — [`checkpoint::CheckpointKeeper`], a callee of the
//!   replica: quorum-certified executed floors bound view-change votes and
//!   slot maps, and gap-stalled replicas fetch missing committed entries (or
//!   a snapshot plus the retained tail) from up-to-date peers
//!   (`StateRequest` / `StateReply` / `SnapshotReply`).
//! * [`suspicion`] — [`suspicion::SuspicionTimer`], the progress-timeout
//!   window the adapter arms: doubling on a failed view change, halving on
//!   progress.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
pub mod interface;
pub mod msg;
pub mod paxos;
pub mod pbft;
pub mod replica;
pub mod suspicion;

pub use batch::{Batch, BatchConfig, Batcher};
pub use checkpoint::CheckpointKeeper;
pub use interface::{Command, Step};
pub use msg::{ConsensusMsg, MsgBody};
pub use replica::{delivered_commands, ConsensusReplica};
pub use saguaro_types::CheckpointConfig;
pub use suspicion::SuspicionTimer;
