//! Clients and load generation.
//!
//! The paper pitches Saguaro at edge networks with *millions of mobile
//! devices*.  This crate is the layer between the workloads and the
//! simulator that submits their transactions and accounts for the replies:
//!
//! * [`Client`] is the one client actor: it submits open-loop, keeps one
//!   in-flight map, completes a transaction with the verdict its reply
//!   quorum agrees on and records the `TxSubmitted` / `TxCompleted` spans.
//!   It is generic over its [`ArrivalSource`], of which there are two:
//!   [`Schedule`] (one actor per device over a precomputed queue, exact
//!   [`CompletedTx`] records into a [`Collector`] — [`ClientActor`]) and
//!   [`Population`] (one actor per height-1 domain over a
//!   [`PopulationGenerator`], completions streamed into a [`PopulationTally`]
//!   — [`AggregateClientActor`]).
//! * [`PopulationGenerator`] models a whole per-domain client population as
//!   one open-loop arrival process: Poisson arrivals at `users ×
//!   per_user_tps` (a superposition of `users` independent Poisson clients
//!   is itself Poisson at the summed rate), Zipf-skewed account selection,
//!   and an optional flash-crowd rate envelope.  One generator costs
//!   O(1) memory however large `users` is.
//! * [`LatencyHistogram`] is the streaming accounting that replaces stored
//!   per-transaction latency vectors: HDR-style log-bucketed, mergeable,
//!   O(1) per record with zero allocation, and within a documented
//!   [`relative error bound`](LatencyHistogram::RELATIVE_ERROR_BOUND) of the
//!   exact percentiles.
//!
//! The experiment engine picks the source from `saguaro_types::ClientModel`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod hist;
pub mod population;

pub use client::{
    AggregateClientActor, ArrivalSource, Client, ClientActor, Collector, CompletedTx, Population,
    PopulationTally, Schedule, Tally,
};
pub use hist::{nearest_rank_index, LatencyHistogram};
pub use population::PopulationGenerator;
