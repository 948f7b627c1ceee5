//! The phased replay: one cell run through the public pieces
//! `ExperimentSpec::run_collecting` is made of, with a span around each.
//!
//! `run_collecting` is one opaque call, so the benchmark cannot time its
//! phases from outside.  This module repeats its sequence — build the tree,
//! generate the workload, deploy the stack, register the clients, run the
//! simulation, harvest, summarise — through the same public functions, and
//! `tests/replay.rs` pins that the result equals `run_collecting`'s for
//! every cell.  Because the replay owns the `Simulation`, it can also read
//! the network counters that `run_collecting` drops.

use crate::spans::Recorder;
use parking_lot::Mutex;
use saguaro_hierarchy::HierarchyTree;
use saguaro_loadgen::{
    nearest_rank_index, AggregateClientActor, PopulationGenerator, PopulationTally, Tally,
};
use saguaro_net::{Addr, CpuProfile, FaultEvent, NetStats, Simulation};
use saguaro_sim::{
    deploy, AhlStack, ClientActor, Collector, CompletedTx, CoordinatorStack, ExperimentSpec,
    OptimisticStack, ProtocolKind, ProtocolStack, RunArtifacts, RunMetrics, SharperStack, ToJson,
    TraceActor, Tracer, WorkloadKind,
};
use saguaro_types::{
    ClientId, ClientModel, DomainId, Duration, NodeId, PopulationConfig, SimTime, TxId,
};
use saguaro_workload::{MicropaymentWorkload, Workload, WorkloadConfig};
use std::sync::Arc;

/// What a replay yields: the same artifacts `run_collecting` returns, plus
/// the simulator's network counters.
pub struct Replayed {
    /// Metrics, completions, harvest and event count of the run.
    pub artifacts: RunArtifacts,
    /// The simulation's counters after the run.
    pub net: NetStats,
    /// The simulated time the run covered.
    pub horizon: Duration,
    /// Actors the deployment registered (replicas and clients).
    pub actors: usize,
}

/// Replays `spec` phase by phase, recording spans for `cell`.
pub fn replay(spec: &ExperimentSpec, cell: &'static str, rec: &mut Recorder) -> Replayed {
    match spec.protocol {
        ProtocolKind::SaguaroCoordinator => replay_on::<CoordinatorStack>(spec, cell, rec),
        ProtocolKind::SaguaroOptimistic => replay_on::<OptimisticStack>(spec, cell, rec),
        ProtocolKind::Ahl => replay_on::<AhlStack>(spec, cell, rec),
        ProtocolKind::Sharper => replay_on::<SharperStack>(spec, cell, rec),
    }
}

/// Where a stood-up cell's clients report to.
enum Sink {
    PerActor {
        collector: Collector,
        schedules: Vec<(ClientId, Vec<TxId>)>,
    },
    Aggregate {
        tally: Tally,
        population: PopulationConfig,
    },
}

/// A deployed cell, ready to run.
struct Stood<P: ProtocolStack> {
    sim: Simulation<P::Msg>,
    tree: Arc<HierarchyTree>,
    sink: Sink,
}

/// The spec's hierarchy tree: the paper's binary topology, or the explicit
/// `(levels, fanout)` shape when one is set.
pub fn build_tree(spec: &ExperimentSpec) -> Arc<HierarchyTree> {
    match spec.topology {
        None => deploy::build_tree(spec.failure_model, spec.faults, spec.placement),
        Some((levels, fanout)) => deploy::build_tree_shaped(
            levels,
            fanout,
            spec.failure_model,
            spec.faults,
            spec.placement,
        ),
    }
    .expect("the benchmark's topologies are valid")
}

/// The micropayment knobs of a cell (every benchmark cell runs that
/// workload).
pub fn micropayment_config(spec: &ExperimentSpec) -> &WorkloadConfig {
    match &spec.workload {
        WorkloadKind::Micropayment(config) => config,
        WorkloadKind::Ridesharing(_) => panic!("every benchmark cell runs micropayments"),
    }
}

/// Replicas per height-1 domain client requests are spread over: all of
/// them when liveness timers are armed, the view-0 primary otherwise.
fn replica_spread(spec: &ExperimentSpec, tree: &HierarchyTree) -> u64 {
    if !spec.effective_liveness().enabled {
        return 1;
    }
    let edge = tree.edge_server_domains();
    tree.config(edge[0]).map(|c| c.quorum.n as u64).unwrap_or(1)
}

fn install_fault_plan<P: ProtocolStack>(sim: &mut Simulation<P::Msg>, spec: &ExperimentSpec) {
    if spec.fault_plan.is_empty() {
        return;
    }
    for (at, event) in spec.fault_plan.events() {
        if let FaultEvent::RecoverActor(addr) = event {
            if addr.as_node().is_some() {
                sim.inject_at(*at, deploy::harness_addr(), *addr, P::recovery_kick());
            }
        }
    }
    sim.set_fault_schedule(spec.fault_plan.clone());
}

/// Transactions precomputed per client: enough to keep submitting for 200
/// sim ms past the measurement window.
fn schedule_len(spec: &ExperimentSpec) -> usize {
    let per_client_rate = spec.offered_load_tps / spec.num_clients as f64;
    let horizon = spec.warmup + spec.measure + Duration::from_millis(200);
    ((per_client_rate * horizon.as_secs_f64()).ceil() as usize + 2).max(4)
}

/// One client's open-loop schedule, framed for stack `P`.
type Schedule<M> = (ClientId, DomainId, Vec<(TxId, M, Addr)>);

fn stand_up_on<P: ProtocolStack>(
    spec: &ExperimentSpec,
    cell: &'static str,
    rec: &mut Recorder,
) -> Stood<P> {
    let tree = rec.span("hierarchy.build_tree", cell, |_| build_tree(spec));
    let mut sim: Simulation<P::Msg> =
        Simulation::new(deploy::latency_for(spec.placement), spec.seed);
    let spread = replica_spread(spec, &tree);
    let stack = spec.stack_config();
    let reply_quorum = P::reply_quorum(spec.failure_model, spec.faults);
    let edge_domains = tree.edge_server_domains();

    if let ClientModel::Aggregate(population) = spec.client_model {
        let seeds: Vec<(DomainId, Vec<(String, u64)>)> = rec.span("sim.prepare", cell, |_| {
            edge_domains
                .iter()
                .map(|d| (*d, population.seed_accounts_for(*d)))
                .collect()
        });
        let tally: Tally = Arc::new(Mutex::new(PopulationTally::new()));
        rec.span("sim.deploy", cell, |_| {
            P::deploy(&mut sim, &tree, &seeds, &stack);
            install_fault_plan::<P>(&mut sim, spec);
            for (ordinal, domain) in edge_domains.iter().enumerate() {
                if population.users_in_domain(ordinal, edge_domains.len()) == 0 {
                    continue;
                }
                let domain_seed = spec
                    .seed
                    .wrapping_add((ordinal as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let generator = PopulationGenerator::new(
                    population,
                    ordinal,
                    edge_domains.clone(),
                    domain_seed,
                );
                let client = generator.client_id();
                let domain_rate = generator.rate_at(Duration::ZERO);
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
                sim.register(client, region, CpuProfile::client(), Box::new(actor));
                let mean_us = if domain_rate > 0.0 {
                    (1_000_000.0 / domain_rate) as u64
                } else {
                    1_000
                };
                let offset = (ordinal as u64 % 97) * (mean_us / 97).max(1);
                sim.inject_at(
                    SimTime::from_micros(offset),
                    deploy::harness_addr(),
                    client,
                    P::client_tick(),
                );
            }
        });
        return Stood {
            sim,
            tree,
            sink: Sink::Aggregate { tally, population },
        };
    }

    let per_client_rate = spec.offered_load_tps / spec.num_clients as f64;
    let mean_interarrival_us = 1_000_000.0 / per_client_rate.max(0.001);
    let (schedules, seeds) = rec.span("sim.prepare", cell, |rec| {
        let mut config = micropayment_config(spec).clone();
        config.edge_domains = edge_domains.clone();
        let mut generator = MicropaymentWorkload::new(config, spec.num_clients, spec.seed);
        let txs_per_client = schedule_len(spec);
        let schedules: Vec<Schedule<P::Msg>> = rec.span("workload.generate", cell, |_| {
            (0..spec.num_clients)
                .map(|c| {
                    let home = Workload::home_of(&generator, c);
                    let schedule = (0..txs_per_client)
                        .map(|_| {
                            let (tx, submit_to) = generator.next_for_client(c);
                            let replica = (tx.id.0 % spread.max(1)) as u16;
                            let target = Addr::Node(NodeId::new(submit_to, replica));
                            (tx.id, P::wrap_request(tx), target)
                        })
                        .collect();
                    (ClientId(c as u64), home, schedule)
                })
                .collect()
        });
        let seeds: Vec<(DomainId, Vec<(String, u64)>)> = edge_domains
            .iter()
            .map(|d| (*d, Workload::seed_accounts(&generator, *d)))
            .collect();
        (schedules, seeds)
    });

    let collector: Collector = Arc::new(Mutex::new(Vec::new()));
    let ids: Vec<(ClientId, Vec<TxId>)> = schedules
        .iter()
        .map(|(client, _, schedule)| (*client, schedule.iter().map(|(id, _, _)| *id).collect()))
        .collect();
    rec.span("sim.deploy", cell, |_| {
        P::deploy(&mut sim, &tree, &seeds, &stack);
        install_fault_plan::<P>(&mut sim, spec);
        for (client_id, home, schedule) in schedules {
            let region = tree.region_of(home).expect("home region");
            let actor = ClientActor::new(
                client_id,
                schedule,
                mean_interarrival_us,
                P::client_tick(),
                P::parse_reply,
                reply_quorum,
                collector.clone(),
                Tracer::new(spec.trace, TraceActor::Client(client_id)),
            );
            sim.register(client_id, region, CpuProfile::client(), Box::new(actor));
            let offset = (client_id.0 % 97) * (mean_interarrival_us as u64 / 97).max(1);
            sim.inject_at(
                SimTime::from_micros(offset),
                deploy::harness_addr(),
                client_id,
                P::client_tick(),
            );
        }
    });
    Stood {
        sim,
        tree,
        sink: Sink::PerActor {
            collector,
            schedules: ids,
        },
    }
}

fn replay_on<P: ProtocolStack>(
    spec: &ExperimentSpec,
    cell: &'static str,
    rec: &mut Recorder,
) -> Replayed {
    assert!(
        !spec.trace.enabled,
        "the replay mirrors the untraced path; traced runs go through run_collecting"
    );
    let horizon = spec.warmup + spec.measure + Duration::from_millis(300);
    let (artifacts, net, actors) = rec.span("cell.replay", cell, |rec| {
        let Stood {
            mut sim,
            tree,
            sink,
        } = stand_up_on::<P>(spec, cell, rec);
        let events_processed = rec.span("net.run_until", cell, |_| {
            sim.run_until(SimTime::ZERO + horizon)
        });
        let net = sim.stats().clone();
        let actors = sim.actor_count();
        let harvest = rec.span("sim.harvest", cell, |_| P::harvest(&mut sim, &tree));
        let (metrics, completions, schedules, population) =
            rec.span("sim.summarise", cell, |_| match sink {
                Sink::PerActor {
                    collector,
                    schedules,
                } => {
                    let completions = std::mem::take(&mut *collector.lock());
                    let metrics = summarise(
                        &completions,
                        spec.warmup,
                        spec.measure,
                        spec.offered_load_tps,
                    );
                    (metrics, completions, schedules, None)
                }
                Sink::Aggregate { tally, population } => {
                    let tally = tally.lock().clone();
                    let metrics = summarise_population(&tally, &population, spec.measure);
                    (metrics, Vec::new(), Vec::new(), Some(tally))
                }
            });
        let artifacts = RunArtifacts {
            metrics,
            completions,
            schedules,
            events_processed,
            harvest,
            state_transfer_messages: net.state_messages_delivered,
            state_transfer_bytes: net.state_bytes_delivered,
            peak_pending_events: net.peak_pending_events,
            population,
            pdes: None,
            trace: None,
            timeline: None,
        };
        // The simulation, with every actor, is dropped inside the span, as
        // it is inside `run_collecting`.
        drop(sim);
        (artifacts, net, actors)
    });
    rec.span("sim.json", cell, |_| {
        std::hint::black_box(artifacts.metrics.to_json().render());
    });
    Replayed {
        artifacts,
        net,
        horizon,
        actors,
    }
}

/// `saguaro_sim::experiment`'s private summary of a per-actor run.
fn summarise(
    completions: &[CompletedTx],
    warmup: Duration,
    measure: Duration,
    offered: f64,
) -> RunMetrics {
    let start = SimTime::ZERO + warmup;
    let end = start + measure;
    let in_window = || {
        completions
            .iter()
            .filter(move |c| c.submitted_at >= start && c.submitted_at < end)
    };
    let mut lat_ms: Vec<f64> = in_window()
        .filter(|c| c.committed)
        .map(|c| c.latency.as_millis_f64())
        .collect();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let committed = lat_ms.len() as u64;
    let percentile = |p: f64| {
        if lat_ms.is_empty() {
            0.0
        } else {
            lat_ms[nearest_rank_index(lat_ms.len(), p)]
        }
    };
    RunMetrics {
        offered_tps: offered,
        throughput_tps: committed as f64 / measure.as_secs_f64(),
        avg_latency_ms: if lat_ms.is_empty() {
            0.0
        } else {
            lat_ms.iter().sum::<f64>() / lat_ms.len() as f64
        },
        p50_latency_ms: percentile(0.50),
        p95_latency_ms: percentile(0.95),
        p99_latency_ms: percentile(0.99),
        committed,
        aborted: in_window().count() as u64 - committed,
    }
}

/// `saguaro_sim::experiment`'s private summary of an aggregate run.
fn summarise_population(
    tally: &PopulationTally,
    population: &PopulationConfig,
    measure: Duration,
) -> RunMetrics {
    let us_to_ms = |us: u64| us as f64 / 1_000.0;
    RunMetrics {
        offered_tps: population.offered_tps(),
        throughput_tps: tally.committed as f64 / measure.as_secs_f64(),
        avg_latency_ms: tally.hist.mean() / 1_000.0,
        p50_latency_ms: us_to_ms(tally.hist.quantile(0.50)),
        p95_latency_ms: us_to_ms(tally.hist.quantile(0.95)),
        p99_latency_ms: us_to_ms(tally.hist.quantile(0.99)),
        committed: tally.committed,
        aborted: tally.aborted,
    }
}

/// How a transaction relates to the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxClass {
    /// One height-1 domain.
    Local,
    /// Two height-1 domains, through their lowest common ancestor.
    Cross,
    /// Issued by a device visiting a remote domain.
    Mobile,
}

/// The class of every transaction a per-actor cell schedules, and each
/// client's home domain, recovered by running the cell's workload generator
/// again (it is a pure function of the seed).  `None` for aggregate cells,
/// which keep no per-transaction records.
pub fn classify(
    spec: &ExperimentSpec,
) -> Option<(std::collections::HashMap<TxId, TxClass>, Vec<DomainId>)> {
    if spec.client_model.is_aggregate() {
        return None;
    }
    let mut config = micropayment_config(spec).clone();
    config.edge_domains = build_tree(spec).edge_server_domains();
    let mut generator = MicropaymentWorkload::new(config, spec.num_clients, spec.seed);
    let txs_per_client = schedule_len(spec);
    let mut classes = std::collections::HashMap::new();
    let mut homes = Vec::with_capacity(spec.num_clients);
    for c in 0..spec.num_clients {
        homes.push(Workload::home_of(&generator, c));
        for _ in 0..txs_per_client {
            let (tx, _) = generator.next_for_client(c);
            let class = if tx.kind.is_mobile() {
                TxClass::Mobile
            } else if tx.kind.is_cross_domain() {
                TxClass::Cross
            } else {
                TxClass::Local
            };
            classes.insert(tx.id, class);
        }
    }
    Some((classes, homes))
}
