//! Discrete-event network and CPU simulator substrate.
//!
//! The Saguaro paper evaluates its protocols on AWS EC2 VMs spread over
//! several regions.  This crate replaces that testbed with a deterministic
//! discrete-event simulation that preserves the three quantities the
//! evaluation figures actually depend on:
//!
//! 1. **Wide-area round trips** — message latency is looked up in a
//!    region-to-region RTT matrix ([`latency`]), with the paper's measured
//!    values for the nearby-region and wide-area experiments.
//! 2. **Message complexity** — every protocol message is an explicit
//!    simulated message with a wire size and a signature count
//!    ([`cpu::MessageMeta`]).
//! 3. **CPU saturation** — every node is a FIFO single server whose service
//!    time per message depends on its size and the number of signature
//!    verifications it triggers ([`cpu::CpuProfile`]); offered load beyond
//!    the service capacity shows up as queueing delay, which produces the
//!    latency-vs-throughput hockey-stick curves of Figures 7–13.
//!
//! The runtime hosts [`sim::Actor`]s addressed by [`Addr`] (replica nodes and
//! edge-device clients), delivers messages and timers in virtual-time order
//! and supports fault injection ([`fault::FaultPlan`],
//! [`fault::FaultSchedule`]): message loss, node crashes, network partitions,
//! delay spikes and equivocation.  There is one event engine,
//! [`sim::Simulation`]: it owns the actors, the event queue, the run's RNG
//! stream, timers, fault state and statistics, and is the only place an
//! event is processed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
#[doc(hidden)]
pub mod compat;
pub mod cpu;
pub mod envelope;
pub mod event;
pub mod fault;
pub mod latency;
pub mod sim;
pub mod stats;
pub mod timer;

pub use addr::Addr;
#[doc(hidden)]
pub use compat::*;
pub use cpu::{CpuProfile, MessageMeta};
pub use envelope::Envelope;
pub use fault::{FaultEvent, FaultPlan, FaultSchedule, SpikeScope, SpikeState};
pub use latency::LatencyMatrix;
pub use sim::{Actor, BoxedActor, Context, Simulation};
pub use stats::NetStats;
pub use timer::TimerId;
