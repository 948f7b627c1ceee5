//! Experiment engine for the Saguaro reproduction.
//!
//! The engine deploys a protocol stack onto the discrete-event simulator,
//! drives it with open-loop clients generated by a `saguaro-workload`
//! generator, and measures end-to-end throughput and latency exactly as the
//! paper does: "the latency in Saguaro is measured from the initiation of a
//! transaction to when it gets committed to the blockchain of height-1
//! domain(s)", and "when reporting throughput measurements, we use an
//! increasing number of requests until the end-to-end throughput is
//! saturated".
//!
//! # Modules
//!
//! * [`protocol`] — the [`ProtocolStack`] trait and its four paper
//!   implementations ([`CoordinatorStack`], [`OptimisticStack`],
//!   [`AhlStack`], [`SharperStack`]).  This is the extension point for new
//!   protocols.
//! * [`experiment`] — the generic engine:
//!   [`experiment::run_experiment`]`::<P>` drives any stack through one run
//!   body whichever client model the spec picks;
//!   [`ExperimentSpec`] (with [`experiment::WorkloadKind`]) is the
//!   data-level description and [`ExperimentSpec::run`],
//!   [`ExperimentSpec::run_collecting`] and [`ExperimentSpec::sweep`] are
//!   its entry points.  The clients themselves are `saguaro_loadgen`'s one
//!   client actor, re-exported here as [`ClientActor`] with its
//!   [`Collector`] of [`CompletedTx`] records.
//! * [`deploy`] — topology building and the node-registration helpers the
//!   stacks' `deploy` impls use.
//! * [`scenarios`] — composite adversarial [`Scenario`]s compiled to fault
//!   schedules, [`scenarios::LOW_SUSPICION_FLOOR`] and
//!   [`safety_violations`], the invariants every run must uphold.
//! * [`par`] — [`parallel_map`], the deterministic fork-join behind
//!   [`ExperimentSpec::sweep`] and the `figures` driver's grid runner.
//! * [`json`] — a hand-rolled JSON value, renderer and parser for
//!   `benchmark/`'s result lines and reports (the workspace's one JSON
//!   writer; it builds offline with no serialization crate).
//! * [`timeline`] — the bucketed time-series metrics of a traced run
//!   (throughput, latency quantiles, queue depth, view changes per bucket),
//!   built from [`RunArtifacts::trace`] when the spec enables
//!   [`saguaro_types::TraceConfig`].
//!
//! The paper's figures, the ablations and every behaviour gate built on
//! them are rows of the `figures` driver (`crates/figures`), which owns
//! their grids, their tables and their gates.
//!
//! # Request batching
//!
//! Every [`ExperimentSpec`] carries a [`saguaro_types::BatchConfig`] that is
//! threaded into each domain's internal consensus when the stack deploys.
//! Its one knob, `batch.max_batch`, is the number of commands per consensus
//! block: the leader accumulates incoming commands and cuts a block as soon
//! as `max_batch` are pending; one consensus instance then orders the whole
//! block and every consumer unpacks it into per-transaction execution and
//! per-client replies.  An under-full block waits at most
//! [`saguaro_core::host::BATCH_FLUSH_DELAY`] (5 ms) before the leader's flush
//! timer cuts it anyway, bounding the latency a lightly loaded domain pays
//! for batching.  The default of `1` is the unbatched per-request pipeline
//! and is guaranteed (by `tests/determinism.rs`) to reproduce the
//! pre-batching event schedule bit-for-bit.
//!
//! Set it with `spec.tune(|t| t.batch_size(n))`.  Throughput only
//! improves once the offered load saturates the per-message cost that
//! batching amortises — see the `figures` driver's `ablation_batch` row,
//! which sweeps batch sizes at saturation on the figure-7 topology.
//!
//! # Extending
//!
//! New protocols implement [`ProtocolStack`]; new applications implement
//! [`saguaro_workload::Workload`].  Neither requires touching the engine —
//! see the module docs of [`experiment`] for the step-by-step recipe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod experiment;
pub mod json;
pub mod par;
pub mod protocol;
pub mod scenarios;
pub mod timeline;

pub use experiment::{
    run_experiment, ExperimentSpec, LoadPoint, PopulationTally, RidesharingConfig, RunArtifacts,
    RunMetrics, WorkloadKind,
};
pub use json::{JsonValue, ToJson};
pub use par::parallel_map;
pub use protocol::{
    AhlStack, CoordinatorStack, NodeHarvest, OptimisticStack, ProtocolKind, ProtocolStack,
    RunHarvest, SharperStack,
};
pub use saguaro_loadgen::{ClientActor, Collector, CompletedTx};
pub use saguaro_net::{FaultEvent, FaultSchedule};
pub use saguaro_trace::{RunTrace, TraceActor, TraceEvent, TraceEventKind, Tracer};
pub use saguaro_types::{
    BatchConfig, CheckpointConfig, ConsensusTuning, LivenessConfig, TraceConfig,
};
pub use scenarios::{safety_violations, Scenario};
pub use timeline::{RunTimeline, TimelinePoint};
