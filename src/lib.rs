//! Saguaro — an edge computing-enabled hierarchical permissioned blockchain.
//!
//! This facade crate re-exports the workspace crates under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! `saguaro` crate:
//!
//! * [`types`] — identifiers, transactions, configuration.
//! * [`crypto`] — digests, simulated signatures, Merkle trees.
//! * [`net`] — the discrete-event network/CPU simulator substrate.
//! * [`hierarchy`] — the domain tree, LCA queries, topologies and placements.
//! * [`ledger`] — linear and DAG ledgers, blockchain state, aggregation.
//! * [`consensus`] — Multi-Paxos and PBFT intra-domain consensus.
//! * [`core`] — the Saguaro protocols: coordinator-based and optimistic
//!   cross-domain consensus, lazy ledger propagation, mobile consensus.
//! * [`baselines`] — AHL and SharPer comparators.
//! * [`workload`] — micropayment / ridesharing workload generators.
//! * [`loadgen`] — population-scale load generation: aggregate client
//!   populations and streaming latency histograms.
//! * [`sim`] — the experiment engine the `figures` driver regenerates the
//!   paper's figures with.
//!
//! The experiment engine's entry points are additionally re-exported at the
//! crate root: describe a run with an [`ExperimentSpec`] (protocol ×
//! workload × placement × failure model), execute it with
//! [`ExperimentSpec::run`] or generically with [`run_experiment`], and plug
//! in new protocols/applications via [`ProtocolStack`] and
//! [`workload::Workload`].
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use saguaro_baselines as baselines;
pub use saguaro_consensus as consensus;
pub use saguaro_core as core;
pub use saguaro_crypto as crypto;
pub use saguaro_hierarchy as hierarchy;
pub use saguaro_ledger as ledger;
pub use saguaro_loadgen as loadgen;
pub use saguaro_net as net;
pub use saguaro_sim as sim;
pub use saguaro_trace as trace;
pub use saguaro_types as types;
pub use saguaro_workload as workload;

pub use saguaro_sim::{
    run_experiment, AhlStack, BatchConfig, CoordinatorStack, ExperimentSpec, LoadPoint,
    OptimisticStack, ProtocolKind, ProtocolStack, RidesharingConfig, RunMetrics, SharperStack,
    WorkloadKind,
};
