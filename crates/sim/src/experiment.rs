//! The protocol-agnostic experiment engine: single runs and offered-load
//! sweeps.
//!
//! # Architecture
//!
//! One generic engine, [`run_experiment`], drives every protocol, every
//! workload and both client models through one run body:
//!
//! ```text
//! ExperimentSpec ──▶ clients           (PerActor: one ClientActor per workload
//!                                        client over its schedule; Aggregate: one
//!                                        AggregateClientActor per edge domain)
//!                 ──▶ P::deploy()      (ProtocolStack trait: nodes on the sim)
//!                 ──▶ fault plan, register, staggered kick-off, run
//!                 ──▶ harvest, trace
//!                 ──▶ sink summary     (Collector: exact percentiles; Tally:
//!                                        histogram percentiles — one RunMetrics)
//! ```
//!
//! Both client models are `saguaro_loadgen::Client` over a different arrival
//! source, so submission, reply-quorum counting and the transaction spans
//! are the same code whichever the spec picks.  A spec that offers no load
//! (no per-actor clients, a rate that is not finite and positive, a
//! population offering 0 tx/s) panics instead of reporting zeros.
//!
//! The two extension points are deliberately narrow:
//!
//! * [`ProtocolStack`] says how to frame a
//!   request, recognise a reply, and deploy nodes.  The four paper stacks
//!   (coordinator, optimistic, AHL, SharPer) live in [`crate::protocol`].
//! * [`Workload`] says where clients live and
//!   what they send.  Micropayments and ridesharing live in
//!   `saguaro-workload`; [`WorkloadKind`] names them on the spec.
//!
//! # Adding a fifth protocol
//!
//! 1. Define a zero-sized marker type and `impl ProtocolStack for It` — the
//!    message type, `wrap_request`, `client_tick`, `parse_reply` and
//!    `deploy` are the whole surface.
//! 2. Add a [`ProtocolKind`] variant and dispatch it in
//!    [`ExperimentSpec::run_collecting`].
//! 3. Every figure, sweep and bench now works with the new stack.
//!
//! Adding a new workload is symmetric: implement `Workload`, add a
//! [`WorkloadKind`] variant, and give `ExperimentSpec` a builder for it.

use crate::deploy;
use crate::protocol::RunHarvest;
use crate::protocol::{
    AhlStack, CoordinatorStack, OptimisticStack, ProtocolKind, ProtocolStack, SeedList,
    SharperStack,
};
use parking_lot::Mutex;
use saguaro_hierarchy::{HierarchyTree, Placement};
use saguaro_loadgen::{
    nearest_rank_index, AggregateClientActor, ArrivalSource, Client, ClientActor, Collector,
    CompletedTx, Population, PopulationGenerator, Schedule, Tally,
};
use saguaro_net::{Addr, CpuProfile, FaultEvent, FaultSchedule, Simulation};
use saguaro_trace::{RunTrace, TraceActor, TraceEvent, TraceEventKind, Tracer};
use saguaro_types::{
    ClientId, ClientModel, ConsensusTuning, DomainId, Duration, FailureModel, LivenessConfig,
    NodeId, PopulationConfig, Region, SimTime, StackConfig, TraceConfig, TxId,
};
use saguaro_workload::{MicropaymentWorkload, RidesharingWorkload, Workload, WorkloadConfig};
use std::sync::Arc;

pub use saguaro_loadgen::PopulationTally;

/// Which application the experiment's clients run.
#[derive(Clone, Debug)]
pub enum WorkloadKind {
    /// The paper's micropayment application (every quantitative figure).
    Micropayment(WorkloadConfig),
    /// The motivation section's ridesharing / gig-economy application.
    Ridesharing(RidesharingConfig),
}

/// Knobs of the ridesharing workload when driven by the engine.
#[derive(Clone, Debug)]
pub struct RidesharingConfig {
    /// Drivers registered per height-1 domain.
    pub drivers_per_domain: u64,
    /// Fraction of rides completed while roaming in a neighbouring domain
    /// (submitted as mobile transactions — only Saguaro commits those; the
    /// baselines have no mobile path, as in the paper).
    pub roaming_ratio: f64,
}

impl Default for RidesharingConfig {
    fn default() -> Self {
        Self {
            drivers_per_domain: 64,
            roaming_ratio: 0.0,
        }
    }
}

impl WorkloadKind {
    /// Short name used in printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Micropayment(_) => "micropayment",
            WorkloadKind::Ridesharing(_) => "ridesharing",
        }
    }

    /// Instantiates the generator for a deployment's edge domains.
    fn build(
        &self,
        edge_domains: Vec<DomainId>,
        num_clients: usize,
        seed: u64,
    ) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Micropayment(config) => {
                let mut config = config.clone();
                config.edge_domains = edge_domains;
                Box::new(MicropaymentWorkload::new(config, num_clients, seed))
            }
            WorkloadKind::Ridesharing(config) => Box::new(RidesharingWorkload::new(
                edge_domains,
                config.drivers_per_domain,
                config.roaming_ratio,
                seed,
            )),
        }
    }
}

/// Full description of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Protocol stack under test.
    pub protocol: ProtocolKind,
    /// Application the clients run.
    pub workload: WorkloadKind,
    /// Failure model of every domain.
    pub failure_model: FailureModel,
    /// Failures tolerated per domain.
    pub faults: usize,
    /// Geographic placement.
    pub placement: Placement,
    /// Number of client actors.
    pub num_clients: usize,
    /// Total offered load in transactions per second.
    pub offered_load_tps: f64,
    /// Warm-up period excluded from measurement.
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
    /// RNG seed (workload + network jitter).
    pub seed: u64,
    /// The consensus-pipeline knobs of every domain's internal consensus,
    /// grouped: request batching, liveness timers, and checkpointing /
    /// state transfer / log retention.  The default is unbatched, timers
    /// off, checkpoints every 128 deliveries with state transfer served,
    /// infinite retention.  Tune it with
    /// [`ExperimentSpec::tune`]:
    ///
    /// ```ignore
    /// spec.tune(|t| t.batch_size(8).checkpoint_every(16).retained(64))
    /// ```
    ///
    /// A non-empty `fault_plan` upgrades disabled liveness timers to
    /// [`LivenessConfig::standard`] — faults without suspicion timers would
    /// just wedge; timers set with `tune(|t| t.liveness(...))` deploy as
    /// set.
    pub consensus: ConsensusTuning,
    /// Scripted fault events (crashes, recoveries, partitions, delay
    /// spikes) applied as virtual time advances.  Empty by default: the run
    /// is bit-identical to the historical failure-free pipeline.
    pub fault_plan: FaultSchedule,
    /// How the client side is modeled.  The default, `PerActor`, is the
    /// historical one-simulator-actor-per-client open loop with exact
    /// per-transaction records (the bit-identical golden path).
    /// `Aggregate` models each height-1 domain's whole population as one
    /// arrival-process actor with streaming-histogram accounting; in that
    /// mode `num_clients` and `offered_load_tps` are ignored — the offered
    /// load is `users × per_user_tps` from the population config — and the
    /// spec's `workload` is replaced by the population's micropayment mix.
    pub client_model: ClientModel,
    /// Topology shape override as `(levels, fanout)` levels above the edge
    /// devices — `None` (the default) is the paper's `(3, 2)` binary tree;
    /// population sweeps use flat wide shapes like `(2, 128)` for hundreds
    /// of height-1 domains.
    pub topology: Option<(u8, usize)>,
    /// Structured-tracing knobs.  Off by default — the pinned golden path:
    /// no buffers, no events, bit-identical to a build without the
    /// subsystem.  When enabled, protocol events and sampled transaction
    /// lifecycle spans are harvested into [`RunArtifacts::trace`] and the
    /// bucketed time series of [`RunArtifacts::timeline`].
    pub trace: TraceConfig,
}

impl ExperimentSpec {
    /// A small but representative default: the paper's nearby-region
    /// placement, crash-only domains with f = 1, micropayments.
    pub fn new(protocol: ProtocolKind) -> Self {
        Self {
            protocol,
            workload: WorkloadKind::Micropayment(WorkloadConfig::default()),
            failure_model: FailureModel::Crash,
            faults: 1,
            placement: Placement::NearbyRegions,
            num_clients: 120,
            offered_load_tps: 4_000.0,
            warmup: Duration::from_millis(300),
            measure: Duration::from_millis(900),
            seed: 42,
            consensus: ConsensusTuning::new(),
            fault_plan: FaultSchedule::none(),
            client_model: ClientModel::PerActor,
            topology: None,
            trace: TraceConfig::off(),
        }
    }

    /// Replaces the structured-tracing knobs (`TraceConfig::on()` turns the
    /// observability layer on with the default sampling stride and buffer
    /// bounds).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Switches the client side to an aggregate population (one actor per
    /// height-1 domain, streaming-histogram latency accounting).
    pub fn aggregate(mut self, population: PopulationConfig) -> Self {
        self.client_model = ClientModel::Aggregate(population);
        self
    }

    /// Overrides the topology shape (`levels` levels above the edge devices,
    /// `fanout` children per domain).
    pub fn shaped(mut self, levels: u8, fanout: usize) -> Self {
        self.topology = Some((levels, fanout));
        self
    }

    /// Switches to Byzantine domains.
    pub fn byzantine(mut self) -> Self {
        self.failure_model = FailureModel::Byzantine;
        self
    }

    /// Switches the clients to the ridesharing application.  Panics on no
    /// drivers per domain and on a roaming ratio outside `[0, 1]` (NaN
    /// included).
    pub fn ridesharing(mut self, config: RidesharingConfig) -> Self {
        assert!(
            config.drivers_per_domain > 0,
            "ExperimentSpec::ridesharing: drivers_per_domain must be at least 1"
        );
        assert!(
            (0.0..=1.0).contains(&config.roaming_ratio),
            "ExperimentSpec::ridesharing: roaming_ratio {} must lie in [0, 1]",
            config.roaming_ratio
        );
        self.workload = WorkloadKind::Ridesharing(config);
        self
    }

    /// Sets one ratio of the micropayment mix.  Panics, naming `setter`, on
    /// a ratio outside `[0, 1]` (NaN included) and on a spec whose clients
    /// do not run micropayments, where the knob would do nothing.
    fn set_ratio(
        mut self,
        setter: &str,
        ratio: f64,
        field: impl FnOnce(&mut WorkloadConfig) -> &mut f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "ExperimentSpec::{setter}({ratio}): a ratio must lie in [0, 1]"
        );
        match &mut self.workload {
            WorkloadKind::Micropayment(config) => *field(config) = ratio,
            WorkloadKind::Ridesharing(_) => panic!(
                "ExperimentSpec::{setter}({ratio}): a ridesharing spec has no micropayment mix to set"
            ),
        }
        self
    }

    /// Sets the cross-domain transaction ratio.  Panics outside `[0, 1]`
    /// and on a ridesharing spec.
    pub fn cross_domain(self, ratio: f64) -> Self {
        self.set_ratio("cross_domain", ratio, |c| &mut c.cross_domain_ratio)
    }

    /// Sets the contention (hot-account) ratio.  Panics outside `[0, 1]`
    /// and on a ridesharing spec.
    pub fn contention(self, ratio: f64) -> Self {
        self.set_ratio("contention", ratio, |c| &mut c.contention_ratio)
    }

    /// Sets the mobile-client ratio.  Panics outside `[0, 1]` and on a
    /// ridesharing spec.
    pub fn mobile(self, ratio: f64) -> Self {
        self.set_ratio("mobile", ratio, |c| &mut c.mobile_ratio)
    }

    /// Sets the placement.
    pub fn placed(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the per-domain fault tolerance.
    pub fn with_faults(mut self, f: usize) -> Self {
        self.faults = f;
        self
    }

    /// Sets the offered load.
    pub fn load(mut self, tps: f64) -> Self {
        self.offered_load_tps = tps;
        self
    }

    /// Tunes the grouped consensus-pipeline knobs in place — the single
    /// setter of batching, liveness and checkpoint/retention:
    ///
    /// ```ignore
    /// spec.tune(|t| t.batch_size(8).checkpoint_every(16).retained(64))
    /// ```
    pub fn tune(mut self, f: impl FnOnce(ConsensusTuning) -> ConsensusTuning) -> Self {
        self.consensus = f(self.consensus);
        self
    }

    /// Installs a scripted fault plan (crash/recover/partition/heal/delay
    /// events keyed by virtual time).  A non-empty plan turns disabled
    /// liveness timers on at the standard window — set
    /// `tune(|t| t.liveness(...))` to tune the suspicion timeout.
    pub fn fault_plan(mut self, plan: FaultSchedule) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The liveness configuration the run actually deploys with: the tuned
    /// one, with disabled timers upgraded to [`LivenessConfig::standard`]
    /// under a non-empty fault plan.
    pub fn effective_liveness(&self) -> LivenessConfig {
        self.consensus
            .effective_liveness(!self.fault_plan.is_empty())
    }

    /// True if this run exercises the fault machinery (and therefore spreads
    /// client submissions over a domain's replicas instead of always
    /// targeting replica 0, so requests survive a crashed primary).
    pub fn is_chaos(&self) -> bool {
        self.effective_liveness().enabled
    }

    /// Shrinks the measurement window (quick CI/test runs).
    pub fn quick(mut self) -> Self {
        self.warmup = Duration::from_millis(100);
        self.measure = Duration::from_millis(300);
        self.num_clients = 40;
        self
    }

    /// Runs the experiment (dispatching to the stack named by
    /// `self.protocol`).
    pub fn run(&self) -> RunMetrics {
        self.run_collecting().metrics
    }

    /// Like [`ExperimentSpec::run`], but also returns the raw
    /// per-transaction and per-replica artifacts.
    pub fn run_collecting(&self) -> RunArtifacts {
        match self.protocol {
            ProtocolKind::SaguaroCoordinator => run_experiment_collecting::<CoordinatorStack>(self),
            ProtocolKind::SaguaroOptimistic => run_experiment_collecting::<OptimisticStack>(self),
            ProtocolKind::Ahl => run_experiment_collecting::<AhlStack>(self),
            ProtocolKind::Sharper => run_experiment_collecting::<SharperStack>(self),
        }
    }

    /// Sweeps offered load over this spec, returning one point per load
    /// value.
    ///
    /// Sweep points are independent single-seeded runs, so they execute in
    /// parallel across all cores (see [`crate::par`]); results are merged
    /// in load order, making the parallel sweep bit-identical to a
    /// sequential one.
    pub fn sweep(&self, loads: &[f64]) -> Vec<LoadPoint> {
        let specs: Vec<ExperimentSpec> = loads
            .iter()
            .map(|l| {
                let mut s = self.clone();
                s.offered_load_tps = *l;
                s
            })
            .collect();
        crate::par::parallel_map(&specs, |s| s.run())
            .into_iter()
            .zip(loads)
            .map(|(metrics, l)| LoadPoint {
                offered_tps: *l,
                metrics,
            })
            .collect()
    }

    /// The [`StackConfig`] this spec deploys every domain with: the grouped
    /// consensus knobs with liveness resolved per
    /// [`ExperimentSpec::effective_liveness`].
    pub fn stack_config(&self) -> StackConfig {
        StackConfig {
            batch: self.consensus.batch,
            liveness: self.effective_liveness(),
            checkpoint: self.consensus.checkpoint,
            trace: self.trace,
        }
    }
}

/// Metrics of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Offered load (tx/s).
    pub offered_tps: f64,
    /// Committed throughput within the measurement window (tx/s).
    pub throughput_tps: f64,
    /// Mean end-to-end latency (ms).
    pub avg_latency_ms: f64,
    /// Median latency (ms).
    pub p50_latency_ms: f64,
    /// 95th percentile latency (ms).
    pub p95_latency_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_latency_ms: f64,
    /// Transactions committed within the window.
    pub committed: u64,
    /// Transactions reported aborted within the window.
    pub aborted: u64,
}

/// One point of an offered-load sweep.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load (tx/s).
    pub offered_tps: f64,
    /// Measured metrics at that load.
    pub metrics: RunMetrics,
}

/// [`RunMetrics`] from a [`Collector`]'s exact records: the transactions
/// submitted in `[warmup, warmup + measure)`, percentiles over every commit
/// under the nearest-rank convention the histogram shares
/// ([`nearest_rank_index`]), so the two sinks report the same sample up to
/// the histogram's bucket error.
fn summarise(
    completions: &[CompletedTx],
    warmup: Duration,
    measure: Duration,
    offered: f64,
) -> RunMetrics {
    let window = SimTime::ZERO + warmup..SimTime::ZERO + warmup + measure;
    let in_window = || {
        completions
            .iter()
            .filter(|c| window.contains(&c.submitted_at))
    };
    let mut lat_ms: Vec<f64> = in_window()
        .filter(|c| c.committed)
        .map(|c| c.latency.as_millis_f64())
        .collect();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let committed = lat_ms.len() as u64;
    let percentile = |p: f64| match lat_ms.len() {
        0 => 0.0,
        n => lat_ms[nearest_rank_index(n, p)],
    };
    RunMetrics {
        offered_tps: offered,
        throughput_tps: committed as f64 / measure.as_secs_f64(),
        avg_latency_ms: match committed {
            0 => 0.0,
            n => lat_ms.iter().sum::<f64>() / n as f64,
        },
        p50_latency_ms: percentile(0.50),
        p95_latency_ms: percentile(0.95),
        p99_latency_ms: percentile(0.99),
        committed,
        aborted: in_window().count() as u64 - committed,
    }
}

/// [`RunMetrics`] from a [`Tally`]'s streaming counters: counts are exact
/// (the tally applies the same window as [`summarise`]); the mean and the
/// quantiles come from the latency histogram under the shared nearest-rank
/// convention.
fn summarise_population(tally: &PopulationTally, offered: f64, measure: Duration) -> RunMetrics {
    let us_to_ms = |us: u64| us as f64 / 1_000.0;
    RunMetrics {
        offered_tps: offered,
        throughput_tps: tally.committed as f64 / measure.as_secs_f64(),
        avg_latency_ms: tally.hist.mean() / 1_000.0,
        p50_latency_ms: us_to_ms(tally.hist.quantile(0.50)),
        p95_latency_ms: us_to_ms(tally.hist.quantile(0.95)),
        p99_latency_ms: us_to_ms(tally.hist.quantile(0.99)),
        committed: tally.committed,
        aborted: tally.aborted,
    }
}

/// Raw per-transaction evidence of one run, alongside the summary metrics:
/// what every client was scheduled to submit (in submission order) and every
/// completion the clients observed.  Used by the batch-equivalence property
/// tests to check that batching loses, duplicates and reorders nothing.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    /// The summary metrics (what [`ExperimentSpec::run`] returns).
    pub metrics: RunMetrics,
    /// Every completion observed by a client, in completion order.
    pub completions: Vec<CompletedTx>,
    /// Each client's precomputed open-loop schedule (transaction ids in
    /// submission order).  How much of the schedule is actually submitted
    /// depends on the drawn inter-arrival times and the run horizon.
    pub schedules: Vec<(ClientId, Vec<TxId>)>,
    /// Number of simulator events processed by the run (engine benchmarks
    /// divide this by wall-clock time to get events/sec).
    pub events_processed: u64,
    /// Post-run evidence from every replica: ledger contents in consensus
    /// order and observed view changes.  The fault-injection suites use it
    /// to assert safety (no lost/duplicated/divergent commits) and that
    /// leader crashes really drove view changes.
    pub harvest: RunHarvest,
    /// State-transfer (recovery catch-up) messages delivered network-wide.
    pub state_transfer_messages: u64,
    /// Bytes delivered by state-transfer messages network-wide.
    pub state_transfer_bytes: u64,
    /// High-water mark of the simulator's event queue over the run — the
    /// event-volume proxy population sweeps report.
    pub peak_pending_events: u64,
    /// The streaming tally of an aggregate-population run (`None` for the
    /// per-actor client model, whose exact records are in `completions`).
    pub population: Option<PopulationTally>,
    /// Always `None`; deleted with `net.calendar_event_ns`.
    #[doc(hidden)]
    pub pdes: Option<std::convert::Infallible>,
    /// The merged structured trace (`None` with tracing off): every
    /// replica's and client's protocol events and sampled transaction
    /// lifecycle spans in deterministic `(time, actor, seq)` order, plus
    /// the fault plan synthesized as harness events.
    pub trace: Option<RunTrace>,
    /// Bucketed time-series metrics over `warmup + measure` (`None` with
    /// tracing off, and for aggregate runs, which keep no per-transaction
    /// records to bucket).
    pub timeline: Option<crate::timeline::RunTimeline>,
}

/// Runs one experiment on a statically chosen protocol stack `P`.
///
/// This is the engine every run goes through, whatever the protocol,
/// workload and client model: build the tree and the clients, deploy `P`'s
/// nodes, register the clients, run the simulator past the measurement
/// window, and summarise what the clients' sink collected.
pub fn run_experiment<P: ProtocolStack>(spec: &ExperimentSpec) -> RunMetrics {
    run_experiment_collecting::<P>(spec).metrics
}

/// The spec's hierarchy tree: the paper's binary topology, or the explicit
/// `(levels, fanout)` shape when one is set.
fn build_spec_tree(spec: &ExperimentSpec) -> Arc<HierarchyTree> {
    match spec.topology {
        None => deploy::build_tree(spec.failure_model, spec.faults, spec.placement)
            .expect("valid paper topology"),
        Some((levels, fanout)) => deploy::build_tree_shaped(
            levels,
            fanout,
            spec.failure_model,
            spec.faults,
            spec.placement,
        )
        .expect("valid shaped topology"),
    }
}

/// Replicas per height-1 domain client requests are spread over (replica
/// `tx id % spread`).  Failure-free runs send everything to replica 0, the
/// view-0 primary; runs with liveness timers spread over the whole domain so
/// a crashed primary does not silently swallow every request — backups
/// relay to whichever primary the current view elected.
fn replica_spread(spec: &ExperimentSpec, tree: &HierarchyTree) -> u64 {
    if !spec.is_chaos() {
        return 1;
    }
    let edge = tree.edge_server_domains();
    tree.config(edge[0]).map(|c| c.quorum.n as u64).unwrap_or(1)
}

/// When a client's kick-off lands: clients start staggered over one mean
/// arrival gap (`1 / rate_tps`; 1 ms for a paused population) so they do
/// not begin in phase.
fn start_offset(client: ClientId, rate_tps: f64) -> SimTime {
    let mean_gap_us = if rate_tps > 0.0 {
        (1_000_000.0 / rate_tps) as u64
    } else {
        1_000
    };
    SimTime::from_micros((client.0 % 97) * (mean_gap_us / 97).max(1))
}

/// Installs the spec's scripted fault plan plus the recovery kicks that
/// re-arm a recovered replica's timer loops.  No-op for an empty plan.
fn install_fault_plan<P: ProtocolStack>(sim: &mut Simulation<P::Msg>, spec: &ExperimentSpec) {
    if spec.fault_plan.is_empty() {
        return;
    }
    // A replica's self-perpetuating timer loops die while it is crashed
    // (timers of crashed actors are silently retired), so every scripted
    // recovery is paired with a kick message that re-arms them.
    for (at, event) in spec.fault_plan.events() {
        if let FaultEvent::RecoverActor(addr) = event {
            if addr.as_node().is_some() {
                sim.inject_at(*at, deploy::harness_addr(), *addr, P::recovery_kick());
            }
        }
    }
    sim.set_fault_schedule(spec.fault_plan.clone());
}

/// Synthesizes the spec's fault plan as harness-actor trace events (one per
/// scripted event at or before `horizon`).  The plan is rendered from the
/// spec rather than hooked in the engine: `saguaro-net` knows nothing of
/// tracing, and the engine applies the schedule exactly as written (every
/// event at or before the horizon has taken effect when `run_until`
/// returns), so these records are the ones an engine hook would emit.
fn fault_trace_events(spec: &ExperimentSpec, horizon: Duration) -> Vec<TraceEvent> {
    let end = SimTime::ZERO + horizon;
    spec.fault_plan
        .events()
        .iter()
        .filter(|(at, _)| *at <= end)
        .enumerate()
        .map(|(seq, (at, event))| TraceEvent {
            time: *at,
            actor: TraceActor::Harness,
            seq: seq as u64,
            kind: TraceEventKind::Fault {
                label: format!("{event:?}"),
            },
        })
        .collect()
}

/// Merges the per-actor trace buffers of a finished run into one
/// deterministic [`RunTrace`]: every replica's harvested buffer, every
/// client's span buffer (drained via downcast, like the replica harvest;
/// a population records none) and the synthesized fault-plan events.
fn collect_trace<P: ProtocolStack, Src: 'static>(
    spec: &ExperimentSpec,
    sim: &mut Simulation<P::Msg>,
    harvest: &mut RunHarvest,
    clients: &[ClientId],
    horizon: Duration,
) -> RunTrace {
    let mut parts: Vec<Vec<TraceEvent>> = Vec::with_capacity(harvest.nodes.len() + clients.len());
    let mut dropped = 0u64;
    for node in &mut harvest.nodes {
        dropped += node.trace_dropped;
        parts.push(std::mem::take(&mut node.trace));
    }
    for client in clients {
        let drained = sim.with_actor(*client, |actor| {
            actor
                .as_any()
                .and_then(|any| any.downcast_mut::<Client<P::Msg, Src>>())
                .map(|c| c.take_trace())
        });
        if let Some(Some((events, d))) = drained {
            dropped += d;
            parts.push(events);
        }
    }
    parts.push(fault_trace_events(spec, horizon));
    RunTrace::merge(parts, dropped)
}

/// [`run_experiment`] plus the raw per-transaction artifacts.
pub fn run_experiment_collecting<P: ProtocolStack>(spec: &ExperimentSpec) -> RunArtifacts {
    debug_assert_eq!(
        P::kind(),
        spec.protocol,
        "stack {} does not match spec.protocol {:?}; results would be mislabeled",
        P::label(),
        spec.protocol
    );
    let tree = build_spec_tree(spec);
    let mut sim = Simulation::new(deploy::latency_for(spec.placement), spec.seed);
    let spread = replica_spread(spec, &tree);
    match spec.client_model {
        ClientModel::PerActor => {
            let clients = schedule_clients::<P>(spec, &tree, spread);
            run_clients::<P, _>(spec, &tree, &mut sim, clients)
        }
        ClientModel::Aggregate(population) => {
            let clients = population_clients::<P>(spec, &population, &tree, spread);
            run_clients::<P, _>(spec, &tree, &mut sim, clients)
        }
    }
}

/// Where a run's clients report to.
enum Sink {
    /// Per-actor clients: every completion, plus each client's schedule.
    Collector(Collector, Vec<(ClientId, Vec<TxId>)>),
    /// Aggregate populations: the streaming tally and the offered load.
    Tally(Tally, f64),
}

/// One run's clients, built for either client model before anything is
/// deployed.
struct Clients<M, Src> {
    /// The edge domains that open with their account universe, each with
    /// the pairs it holds beyond it, made as deploy pulls them.
    seeds: Box<dyn Iterator<Item = SeedList>>,
    /// Each client with its region and arrival rate (tx/s, for the start
    /// stagger), in registration order.
    actors: Vec<(ClientId, Region, Client<M, Src>, f64)>,
    sink: Sink,
}

/// One [`ClientActor`] per workload client over its precomputed schedule,
/// each transaction framed as a stack `P` request.
fn schedule_clients<P: ProtocolStack>(
    spec: &ExperimentSpec,
    tree: &HierarchyTree,
    spread: u64,
) -> Clients<P::Msg, Schedule<P::Msg>> {
    assert!(
        spec.num_clients > 0,
        "a per-actor spec needs num_clients > 0"
    );
    assert!(
        spec.offered_load_tps.is_finite() && spec.offered_load_tps > 0.0,
        "offered load must be finite and positive, got {} tx/s",
        spec.offered_load_tps
    );
    let edge_domains = tree.edge_server_domains();
    let mut generator = spec
        .workload
        .build(edge_domains.clone(), spec.num_clients, spec.seed);
    let horizon = spec.warmup + spec.measure + Duration::from_millis(200);
    let rate = spec.offered_load_tps / spec.num_clients as f64; // per client
    let txs_per_client = ((rate * horizon.as_secs_f64()).ceil() as usize + 2).max(4);
    let collector: Collector = Arc::new(Mutex::new(Vec::new()));
    let reply_quorum = P::reply_quorum(spec.failure_model, spec.faults);
    let mut actors = Vec::with_capacity(spec.num_clients);
    let mut schedules = Vec::with_capacity(spec.num_clients);
    for c in 0..spec.num_clients {
        let client = ClientId(c as u64);
        let home = generator.home_of(c);
        let schedule: Vec<(TxId, P::Msg, Addr)> = (0..txs_per_client)
            .map(|_| {
                let (tx, submit_to) = generator.next_for_client(c);
                let target = Addr::Node(NodeId::new(submit_to, (tx.id.0 % spread) as u16));
                (tx.id, P::wrap_request(tx), target)
            })
            .collect();
        schedules.push((client, schedule.iter().map(|(id, _, _)| *id).collect()));
        let actor = ClientActor::new(
            client,
            schedule,
            1_000_000.0 / rate,
            P::client_tick(),
            P::parse_reply,
            reply_quorum,
            collector.clone(),
            Tracer::new(spec.trace, TraceActor::Client(client)),
        );
        let region = tree.region_of(home).expect("home region");
        actors.push((client, region, actor, rate));
    }
    let domains = match spec.workload {
        WorkloadKind::Micropayment(_) => edge_domains,
        // Ride tasks accumulate working minutes from zero: no accounts to open.
        WorkloadKind::Ridesharing(_) => Vec::new(),
    };
    let seeds = domains
        .into_iter()
        .map(move |d| (d, generator.seed_accounts(d)));
    Clients {
        seeds: Box::new(seeds),
        actors,
        sink: Sink::Collector(collector, schedules),
    }
}

/// One [`AggregateClientActor`] per height-1 domain with users, standing in
/// for the domain's whole population.
fn population_clients<P: ProtocolStack>(
    spec: &ExperimentSpec,
    population: &PopulationConfig,
    tree: &HierarchyTree,
    spread: u64,
) -> Clients<P::Msg, Population<P::Msg>> {
    assert!(
        population.offered_tps() > 0.0,
        "an aggregate spec must offer load, got {} users x {} tx/s",
        population.users,
        population.per_user_tps
    );
    let edge_domains = tree.edge_server_domains();
    let tally: Tally = Arc::new(Mutex::new(PopulationTally::new()));
    let reply_quorum = P::reply_quorum(spec.failure_model, spec.faults);
    let mut actors = Vec::new();
    for (ordinal, domain) in edge_domains.iter().enumerate() {
        if population.users_in_domain(ordinal, edge_domains.len()) == 0 {
            continue;
        }
        // Each domain's actor draws from its own seeded stream so the run is
        // reproducible per (spec.seed, ordinal) and domains are independent.
        let domain_seed = spec
            .seed
            .wrapping_add((ordinal as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let generator =
            PopulationGenerator::new(*population, ordinal, edge_domains.clone(), domain_seed);
        let (client, rate) = (generator.client_id(), generator.rate_at(Duration::ZERO));
        let actor = AggregateClientActor::new(
            generator,
            P::wrap_request,
            P::client_tick(),
            P::parse_reply,
            reply_quorum,
            spread,
            spec.warmup,
            spec.measure,
            tally.clone(),
        );
        let region = tree.region_of(*domain).expect("edge domain region");
        actors.push((client, region, actor, rate));
    }
    let population = *population;
    let seeds = edge_domains
        .into_iter()
        .map(move |d| (d, population.seed_accounts_for(d)));
    Clients {
        seeds: Box::new(seeds),
        actors,
        sink: Sink::Tally(tally, population.offered_tps()),
    }
}

/// The one run body: deploy, fault plan, register with a staggered
/// kick-off, run past the window, harvest, collect the trace, summarise
/// through the clients' sink.
fn run_clients<P, Src>(
    spec: &ExperimentSpec,
    tree: &Arc<HierarchyTree>,
    sim: &mut Simulation<P::Msg>,
    clients: Clients<P::Msg, Src>,
) -> RunArtifacts
where
    P: ProtocolStack,
    Src: ArrivalSource<P::Msg> + 'static,
{
    let Clients {
        seeds,
        actors,
        sink,
    } = clients;
    P::deploy(sim, tree, seeds, &spec.stack_config());
    install_fault_plan::<P>(sim, spec);
    let mut traced = Vec::new();
    for (client, region, actor, rate) in actors {
        sim.register(client, region, CpuProfile::client(), Box::new(actor));
        let at = start_offset(client, rate);
        sim.inject_at(at, deploy::harness_addr(), client, P::client_tick());
        if spec.trace.enabled {
            traced.push(client);
        }
    }

    let horizon = spec.warmup + spec.measure + Duration::from_millis(300);
    let events_processed = sim.run_until(SimTime::ZERO + horizon);
    let state_transfer_messages = sim.stats().state_messages_delivered;
    let state_transfer_bytes = sim.stats().state_bytes_delivered;
    let peak_pending_events = sim.stats().peak_pending_events;
    let mut harvest = P::harvest(sim, tree);
    let trace = spec
        .trace
        .enabled
        .then(|| collect_trace::<P, Src>(spec, sim, &mut harvest, &traced, horizon));
    let (metrics, completions, schedules, population) = match sink {
        Sink::Collector(collector, schedules) => {
            let completions = std::mem::take(&mut *collector.lock());
            let metrics = summarise(
                &completions,
                spec.warmup,
                spec.measure,
                spec.offered_load_tps,
            );
            (metrics, completions, schedules, None)
        }
        Sink::Tally(tally, offered) => {
            let tally = tally.lock().clone();
            let metrics = summarise_population(&tally, offered, spec.measure);
            (metrics, Vec::new(), Vec::new(), Some(tally))
        }
    };
    let timeline = trace
        .as_ref()
        .filter(|_| population.is_none())
        .map(|trace| {
            crate::timeline::RunTimeline::build(
                spec.warmup,
                spec.measure,
                crate::timeline::RunTimeline::BUCKETS,
                &completions,
                trace,
            )
        });
    RunArtifacts {
        metrics,
        completions,
        schedules,
        events_processed,
        harvest,
        state_transfer_messages,
        state_transfer_bytes,
        peak_pending_events,
        population,
        pdes: None,
        trace,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_core::SaguaroNode;

    #[test]
    fn both_sinks_summarise_one_completion_stream_alike() {
        // Submissions every 2 ms over [0, 480) ms against the window
        // [100, 400) ms — so one lands exactly on each edge — with every
        // 37th request unanswered and every 11th aborted.
        let (warmup, measure) = (Duration::from_millis(100), Duration::from_millis(300));
        let window = SimTime::ZERO + warmup..SimTime::ZERO + warmup + measure;
        let mut completions = Vec::new();
        let mut tally = PopulationTally::new();
        for i in 0..240u64 {
            if i % 37 == 0 {
                continue;
            }
            let submitted_at = SimTime::from_millis(2 * i);
            let latency = Duration::from_micros(900 + i * 7_919 % 40_000);
            let committed = i % 11 != 0;
            tally.complete(submitted_at, latency, committed, true, &window);
            completions.push(CompletedTx {
                tx_id: TxId(i),
                client: ClientId(0),
                submitted_at,
                latency,
                committed,
            });
        }
        let exact = summarise(&completions, warmup, measure, 600.0);
        let streamed = summarise_population(&tally, 600.0, measure);
        assert_eq!((exact.committed, exact.aborted), (132, 14));
        assert_eq!(
            (streamed.committed, streamed.aborted, tally.hist.count()),
            (exact.committed, exact.aborted, exact.committed)
        );
        assert_eq!(streamed.throughput_tps, exact.throughput_tps);
        for (p, exact_ms, streamed_ms) in [
            (50, exact.p50_latency_ms, streamed.p50_latency_ms),
            (95, exact.p95_latency_ms, streamed.p95_latency_ms),
            (99, exact.p99_latency_ms, streamed.p99_latency_ms),
        ] {
            let tolerance =
                exact_ms * saguaro_loadgen::LatencyHistogram::RELATIVE_ERROR_BOUND + 1e-3;
            assert!(
                (streamed_ms - exact_ms).abs() <= tolerance,
                "p{p}: histogram {streamed_ms} ms vs exact {exact_ms} ms (tolerance {tolerance})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a per-actor spec needs num_clients > 0")]
    fn a_per_actor_spec_without_clients_fails_loudly() {
        let mut spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).quick();
        spec.num_clients = 0;
        spec.run();
    }

    #[test]
    #[should_panic(expected = "offered load must be finite and positive, got 0 tx/s")]
    fn a_per_actor_spec_without_load_fails_loudly() {
        ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .quick()
            .load(0.0)
            .run();
    }

    #[test]
    #[should_panic(expected = "an aggregate spec must offer load, got 1000 users x 0 tx/s")]
    fn an_aggregate_spec_without_load_fails_loudly() {
        ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .quick()
            .aggregate(PopulationConfig::with_users(1_000).per_user(0.0))
            .run();
    }

    #[test]
    fn internal_only_coordinator_run_commits_transactions() {
        let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .quick()
            .load(800.0);
        let metrics = spec.run();
        assert!(metrics.committed > 50, "committed {}", metrics.committed);
        assert!(metrics.throughput_tps > 100.0);
        assert!(metrics.avg_latency_ms > 0.0 && metrics.avg_latency_ms < 200.0);
    }

    #[test]
    fn mobile_workload_commits_under_saguaro() {
        let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .quick()
            .mobile(0.5)
            .load(500.0);
        let metrics = spec.run();
        assert!(metrics.committed > 20, "committed {}", metrics.committed);
    }

    #[test]
    fn sweep_produces_one_point_per_load() {
        let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).quick();
        let points = spec.sweep(&[300.0, 600.0]);
        assert_eq!(points.len(), 2);
        assert!(points[1].metrics.throughput_tps >= points[0].metrics.throughput_tps * 0.5);
    }

    #[test]
    fn generic_engine_matches_dynamic_dispatch() {
        let spec = ExperimentSpec::new(ProtocolKind::Sharper)
            .quick()
            .load(400.0);
        assert_eq!(run_experiment::<SharperStack>(&spec), spec.run());
    }

    #[test]
    fn fault_plan_upgrades_disabled_liveness_and_keeps_tuned_timers() {
        use saguaro_net::FaultSchedule;
        use saguaro_types::{LivenessConfig, SimTime};
        let plain = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator);
        assert!(!plain.is_chaos());
        assert!(!plain.effective_liveness().enabled);
        assert!(!plain.stack_config().liveness.enabled);

        let plan = FaultSchedule::none().crash_at(SimTime::from_millis(10), ClientId(0));
        let faulty = plain.clone().fault_plan(plan.clone());
        assert!(faulty.is_chaos());
        assert_eq!(faulty.effective_liveness(), LivenessConfig::standard());
        assert_eq!(faulty.stack_config().liveness, LivenessConfig::standard());

        let tuned = faulty
            .clone()
            .tune(|t| t.liveness(LivenessConfig::with_timeout(Duration::from_millis(25))));
        assert_eq!(
            tuned.effective_liveness().progress_timeout,
            Duration::from_millis(25)
        );

        // Liveness alone (no plan) also counts as a chaos run: timers are
        // armed and client targets spread.
        let timers_only = plain.tune(|t| t.liveness(LivenessConfig::standard()));
        assert!(timers_only.is_chaos());
    }

    #[test]
    #[should_panic(
        expected = "ExperimentSpec::mobile(0.2): a ridesharing spec has no micropayment mix"
    )]
    fn mobile_on_a_ridesharing_spec_fails_loudly() {
        let _ = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .ridesharing(RidesharingConfig::default())
            .mobile(0.2);
    }

    #[test]
    #[should_panic(expected = "ExperimentSpec::cross_domain(1.5): a ratio must lie in [0, 1]")]
    fn a_ratio_above_one_fails_in_its_setter() {
        let _ = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).cross_domain(1.5);
    }

    #[test]
    #[should_panic(expected = "ExperimentSpec::contention(NaN): a ratio must lie in [0, 1]")]
    fn a_nan_ratio_fails_in_its_setter() {
        let _ = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).contention(f64::NAN);
    }

    fn rides(drivers_per_domain: u64, roaming_ratio: f64) -> ExperimentSpec {
        ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).ridesharing(RidesharingConfig {
            drivers_per_domain,
            roaming_ratio,
        })
    }

    /// What every replica of every height-1 domain holds once `spec`'s
    /// clients are deployed, as each domain's key count.
    fn opening_sizes(spec: &ExperimentSpec) -> Vec<usize> {
        let tree = build_spec_tree(spec);
        let clients = schedule_clients::<CoordinatorStack>(spec, &tree, 1);
        let mut sim = Simulation::new(deploy::latency_for(spec.placement), spec.seed);
        CoordinatorStack::deploy(&mut sim, &tree, clients.seeds, &spec.stack_config());
        let mut sizes = Vec::new();
        for domain in tree.edge_server_domains() {
            for node in tree.nodes_of(domain).expect("domain nodes") {
                let held = sim.with_actor(node, |actor| {
                    let node = actor.as_any()?.downcast_mut::<SaguaroNode>()?;
                    Some(node.blockchain_state().len())
                });
                sizes.push(held.flatten().expect("a Saguaro replica"));
            }
        }
        sizes
    }

    /// Ridesharing opens its height-1 domains empty; micropayment opens each
    /// with its account universe.
    #[test]
    fn only_micropayment_domains_open_with_the_account_universe() {
        let sizes = opening_sizes(&rides(4, 0.0));
        assert!(
            !sizes.is_empty() && sizes.iter().all(|&n| n == 0),
            "{sizes:?}"
        );
        let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).quick();
        let universe = saguaro_types::transaction::ACCOUNTS_PER_DOMAIN as usize;
        let sizes = opening_sizes(&spec);
        assert!(
            !sizes.is_empty() && sizes.iter().all(|&n| n == universe),
            "{sizes:?}"
        );
    }

    #[test]
    #[should_panic(expected = "ExperimentSpec::ridesharing: drivers_per_domain must be at least 1")]
    fn a_ridesharing_spec_without_drivers_fails_in_its_setter() {
        rides(0, 0.0);
    }

    #[test]
    #[should_panic(expected = "ExperimentSpec::ridesharing: roaming_ratio NaN must lie in [0, 1]")]
    fn a_nan_roaming_ratio_fails_in_its_setter() {
        rides(64, f64::NAN);
    }
}
