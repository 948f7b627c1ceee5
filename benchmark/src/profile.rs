//! The profile pass: one per invocation, after the timed repetitions and
//! excluded from every end-to-end number.  It produces the per-layer
//! metrics from three sources, all outside the program under test:
//!
//! 1. the phased replay of every cell ([`crate::replay`]) — phase spans and
//!    the simulator's network counters;
//! 2. one run of every cell with `TraceConfig::on()` — sim-time stage
//!    latencies, and the tracing overhead;
//! 3. the micro drivers of [`crate::layers`].

use crate::host;
use crate::layers;
use crate::measure::{reduce, Measured};
use crate::replay::{self, Replayed, TxClass};
use crate::report::{Metric, CELL_METRICS, CELL_NAMES, PER_LAYER};
use crate::spans::Recorder;
use crate::workloads::{crash_victim, Cell, Workload, RECOVER_AT};
use saguaro_loadgen::nearest_rank_index;
use saguaro_sim::{deploy, TraceConfig, TraceEventKind};
use saguaro_types::{ClientModel, FailureModel, PopulationConfig, SimTime, TxId};
use std::collections::HashMap;
use std::time::Instant;

/// What the profile pass hands back.
pub struct Profile {
    /// Every per-layer metric, in registry order.
    pub metrics: Vec<Metric>,
    /// The replay's phase spans as Chrome trace JSON.
    pub spans_json: String,
    /// Correctness failures found while profiling.
    pub failures: Vec<String>,
}

/// Nearest-rank quantile of unsorted sim-µs samples, in sim ms.
fn quantile_ms(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    samples[nearest_rank_index(samples.len(), p)] as f64 / 1e3
}

/// Sim-time gaps between the stages of sampled transactions, pooled over
/// a workload's traced runs (sim µs).
#[derive(Default)]
struct Stages {
    batch_wait: Vec<u64>,
    order: Vec<u64>,
    exec: Vec<u64>,
    reply: Vec<u64>,
    batch_cuts: u64,
    batched_commands: u64,
    events: u64,
    dropped: u64,
}

/// First time each lifecycle stage of one transaction was recorded by any
/// actor.
#[derive(Default, Clone, Copy)]
struct Lifecycle {
    submitted: Option<SimTime>,
    batched: Option<SimTime>,
    ordered: Option<SimTime>,
    executed: Option<SimTime>,
    completed: Option<SimTime>,
}

impl Stages {
    fn absorb(&mut self, trace: &saguaro_sim::RunTrace) {
        self.events += trace.events.len() as u64;
        self.dropped += trace.dropped;
        let mut lifecycles: HashMap<TxId, Lifecycle> = HashMap::new();
        for event in &trace.events {
            // Events arrive in time order, so `get_or_insert` keeps the
            // first replica to reach each stage.
            let at = event.time;
            match &event.kind {
                TraceEventKind::BatchCut { commands } => {
                    self.batch_cuts += 1;
                    self.batched_commands += commands;
                }
                TraceEventKind::TxSubmitted { tx } => {
                    lifecycles
                        .entry(*tx)
                        .or_default()
                        .submitted
                        .get_or_insert(at);
                }
                TraceEventKind::TxBatched { tx } => {
                    lifecycles.entry(*tx).or_default().batched.get_or_insert(at);
                }
                TraceEventKind::TxOrdered { tx, .. } => {
                    lifecycles.entry(*tx).or_default().ordered.get_or_insert(at);
                }
                TraceEventKind::TxExecuted { tx } => {
                    lifecycles
                        .entry(*tx)
                        .or_default()
                        .executed
                        .get_or_insert(at);
                }
                TraceEventKind::TxCompleted { tx, .. } => {
                    lifecycles
                        .entry(*tx)
                        .or_default()
                        .completed
                        .get_or_insert(at);
                }
                _ => {}
            }
        }
        let gap = |from: Option<SimTime>, to: Option<SimTime>| match (from, to) {
            (Some(from), Some(to)) if to >= from => Some(to.since(from).as_micros()),
            _ => None,
        };
        for life in lifecycles.values() {
            self.batch_wait.extend(gap(life.submitted, life.batched));
            self.order.extend(gap(life.batched, life.ordered));
            self.exec.extend(gap(life.ordered, life.executed));
            self.reply.extend(gap(life.executed, life.completed));
        }
    }
}

/// Latencies by transaction class and the victim domain's longest commit
/// gap, from the exact records of the per-actor cells (sim µs).
#[derive(Default)]
struct Classes {
    local: Vec<u64>,
    cross: Vec<u64>,
    mobile: Vec<u64>,
    outage_us: u64,
}

impl Classes {
    fn absorb(&mut self, cell: &Cell, replayed: &Replayed) {
        let Some((classes, homes)) = replay::classify(&cell.spec) else {
            return;
        };
        let start = SimTime::ZERO + cell.spec.warmup;
        let end = start + cell.spec.measure;
        let victim_domain = crash_victim().domain;
        let mut victim_commits: Vec<SimTime> = vec![start, end];
        for c in replayed
            .artifacts
            .completions
            .iter()
            .filter(|c| c.committed)
        {
            if c.submitted_at >= start && c.submitted_at < end {
                match classes.get(&c.tx_id) {
                    Some(TxClass::Local) => self.local.push(c.latency.as_micros()),
                    Some(TxClass::Cross) => self.cross.push(c.latency.as_micros()),
                    Some(TxClass::Mobile) => self.mobile.push(c.latency.as_micros()),
                    None => {}
                }
            }
            let done = c.submitted_at + c.latency;
            if homes[c.client.0 as usize] == victim_domain && done > start && done < end {
                victim_commits.push(done);
            }
        }
        victim_commits.sort();
        let longest = victim_commits
            .windows(2)
            .map(|pair| pair[1].since(pair[0]).as_micros())
            .max()
            .unwrap_or(0);
        self.outage_us = self.outage_us.max(longest);
    }
}

/// Runs the profile pass for an invocation that measured `measured`.
pub fn profile(workload: Workload, measured: &Measured) -> Result<Profile, String> {
    let started = Instant::now();
    let cells = &measured.cells;
    let mut failures = Vec::new();
    let mut values: HashMap<String, f64> = HashMap::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    let calibration_s = measured.calibration_s();

    // 1. Phased replay.
    let mut rec = Recorder::new();
    let mut replays: Vec<Replayed> = Vec::with_capacity(cells.len());
    // The spans are on the wall clock; what is compared with the timed
    // repetitions is on theirs.
    let mut replayed_s = 0.0;
    for cell in cells {
        let began = host::cpu_seconds()?;
        replays.push(replay::replay(&cell.spec, cell.name, &mut rec));
        replayed_s += host::cpu_seconds()? - began;
    }
    let mut classes = Classes::default();
    for ((cell, replayed), outcome) in cells.iter().zip(&replays).zip(&measured.outcomes) {
        if replayed.artifacts.metrics != outcome.metrics
            || replayed.artifacts.events_processed != outcome.events
        {
            failures.push(format!(
                "{}/{} seed {}: the phased replay diverged from run_collecting",
                workload.name(),
                cell.name,
                cell.spec.seed
            ));
        }
        classes.absorb(cell, replayed);
    }
    let commits = measured.commits_total().max(1) as f64;
    let events: u64 = replays.iter().map(|r| r.artifacts.events_processed).sum();
    let net_sum = |get: fn(&saguaro_net::NetStats) -> u64| -> f64 {
        replays.iter().map(|r| get(&r.net)).sum::<u64>() as f64
    };
    let run_until_s = rec.total_s("net.run_until");
    set("net.events", events as f64);
    set("net.events_per_commit", events as f64 / commits);
    set(
        "net.msgs_per_commit",
        net_sum(|n| n.messages_delivered) / commits,
    );
    set(
        "net.bytes_per_commit",
        net_sum(|n| n.bytes_delivered) / commits,
    );
    set(
        "net.timers_per_commit",
        net_sum(|n| n.timers_fired) / commits,
    );
    set("net.dropped_msgs", net_sum(|n| n.messages_dropped));
    set(
        "net.peak_pending_events",
        replays
            .iter()
            .map(|r| r.net.peak_pending_events)
            .max()
            .unwrap_or(0) as f64,
    );
    set(
        "net.busiest_util",
        replays
            .iter()
            .map(|r| {
                let busy = r.net.busiest().map_or(0, |(_, busy)| busy.as_micros());
                busy as f64 / r.horizon.as_micros() as f64
            })
            .fold(0.0, f64::max),
    );
    set("net.run_until_ms", run_until_s * 1e3);
    set("net.host_ns_per_event", run_until_s * 1e9 / events as f64);

    // The bare-engine drivers are sized like the cell with the most events.
    let (dominant_cell, dominant) = cells
        .iter()
        .zip(&replays)
        .max_by_key(|(_, r)| r.artifacts.events_processed)
        .expect("a workload has at least one cell");
    let latency = deploy::latency_for(dominant_cell.spec.placement);
    let depth = dominant.net.peak_pending_events as usize;
    let seed = dominant_cell.spec.seed;
    let bare_ns = layers::bare_event_ns(dominant.actors, depth, latency.clone(), seed);
    set("net.bare_event_ns", bare_ns);
    set(
        "net.engine_share",
        bare_ns * events as f64 / (run_until_s * 1e9),
    );
    set("net.heap_push_pop_ns", layers::heap_push_pop_ns(depth));
    set(
        "net.calendar_event_ns",
        layers::calendar_event_ns(dominant.actors, depth, latency, seed),
    );

    for (name, span) in [
        ("hierarchy.build_tree_ms", "hierarchy.build_tree"),
        ("sim.prepare_ms", "sim.prepare"),
        ("sim.deploy_ms", "sim.deploy"),
        ("sim.harvest_ms", "sim.harvest"),
        ("sim.summarise_ms", "sim.summarise"),
        ("sim.json_ms", "sim.json"),
    ] {
        set(name, rec.total_s(span) * 1e3);
    }
    set(
        "sim.phased_delta",
        replayed_s / measured.median_rep_s() - 1.0,
    );

    for (((cell, replayed), outcome), best_s) in cells
        .iter()
        .zip(&replays)
        .zip(&measured.outcomes)
        .zip(&measured.cell_best_s)
    {
        let prefix = format!("cell.{}", cell.name);
        set(&format!("{prefix}.run_cal"), best_s / calibration_s);
        set(
            &format!("{prefix}.events"),
            replayed.artifacts.events_processed as f64,
        );
        set(
            &format!("{prefix}.commit_tps"),
            outcome.metrics.offered_tps * outcome.committed_share(),
        );
        set(
            &format!("{prefix}.commit_p50_ms"),
            outcome.quantile_ms(0.50),
        );
        set(
            &format!("{prefix}.commit_p99_ms"),
            outcome.quantile_ms(0.99),
        );
    }

    let harvested = || {
        replays
            .iter()
            .flat_map(|r| r.artifacts.harvest.nodes.iter())
    };
    set(
        "consensus.view_changes",
        harvested().map(|n| n.view_changes).sum::<u64>() as f64,
    );
    set("consensus.outage_ms", classes.outage_us as f64 / 1e3);
    set(
        "consensus.catchup_ms",
        harvested()
            .filter(|n| n.node == crash_victim())
            .filter_map(|n| n.caught_up_at)
            .filter(|at| *at >= SimTime::ZERO + RECOVER_AT)
            .map(|at| at.since(SimTime::ZERO + RECOVER_AT).as_millis_f64())
            .fold(0.0, f64::max),
    );
    set(
        "consensus.state_transfer_bytes",
        replays
            .iter()
            .map(|r| r.artifacts.state_transfer_bytes)
            .sum::<u64>() as f64,
    );
    set(
        "consensus.snapshots_taken",
        harvested().map(|n| n.snapshots_taken).sum::<u64>() as f64,
    );
    set(
        "consensus.snapshots_installed",
        harvested().map(|n| n.snapshots_installed).sum::<u64>() as f64,
    );
    set(
        "consensus.chain_len_max",
        harvested().map(|n| n.chain_len).max().unwrap_or(0) as f64,
    );
    set(
        "consensus.certificate_conflicts",
        harvested().map(|n| n.certificate_conflicts).sum::<u64>() as f64,
    );
    set("core.local_p50_ms", quantile_ms(&mut classes.local, 0.50));
    set("core.cross_p50_ms", quantile_ms(&mut classes.cross, 0.50));
    set("core.mobile_p50_ms", quantile_ms(&mut classes.mobile, 0.50));
    let aborted: u64 = measured.outcomes.iter().map(|o| o.aborted).sum();
    let decided: u64 = measured
        .outcomes
        .iter()
        .map(|o| o.committed + o.aborted)
        .sum();
    set("core.abort_share", aborted as f64 / decided.max(1) as f64);

    // 2. One traced run of every cell.
    let mut stages = Stages::default();
    let mut traced_s = 0.0;
    let mut traces = Vec::with_capacity(cells.len());
    for (cell, outcome) in cells.iter().zip(&measured.outcomes) {
        // Ring buffers large enough to keep every event: the stage
        // latencies must not come from a truncated trace.
        let traced_spec = cell
            .spec
            .clone()
            .trace(TraceConfig::on().with_buffer_capacity(u32::MAX));
        let began = host::cpu_seconds()?;
        let artifacts = traced_spec.run_collecting();
        traced_s += host::cpu_seconds()? - began;
        let traced = reduce(cell, &artifacts);
        if traced.metrics != outcome.metrics || traced.events != outcome.events {
            failures.push(format!(
                "{}/{} seed {}: tracing changed the run's results",
                workload.name(),
                cell.name,
                cell.spec.seed
            ));
        }
        let trace = artifacts.trace.expect("a traced run carries its trace");
        if trace.dropped > 0 {
            failures.push(format!(
                "{}/{} seed {}: the trace dropped {} events",
                workload.name(),
                cell.name,
                cell.spec.seed,
                trace.dropped
            ));
        }
        stages.absorb(&trace);
        traces.push(trace);
    }
    let began = Instant::now();
    for trace in &traces {
        std::hint::black_box(trace.chrome_json());
    }
    set("trace.chrome_json_ms", began.elapsed().as_secs_f64() * 1e3);
    set(
        "trace.overhead_share",
        traced_s / measured.median_rep_s() - 1.0,
    );
    set("trace.events", stages.events as f64);
    set("trace.dropped", stages.dropped as f64);
    set(
        "consensus.order_ms_p50",
        quantile_ms(&mut stages.order, 0.50),
    );
    set(
        "consensus.order_ms_p99",
        quantile_ms(&mut stages.order, 0.99),
    );
    set(
        "consensus.batch_fill",
        stages.batched_commands as f64 / stages.batch_cuts.max(1) as f64,
    );
    set(
        "core.batch_wait_ms_p50",
        quantile_ms(&mut stages.batch_wait, 0.50),
    );
    set("core.exec_ms_p50", quantile_ms(&mut stages.exec, 0.50));
    set("core.exec_ms_p99", quantile_ms(&mut stages.exec, 0.99));
    set("core.reply_ms_p50", quantile_ms(&mut stages.reply, 0.50));

    // 3. Micro drivers, at the first cell's sizes.
    let first = &cells[0].spec;
    let batch = first.consensus.batch.max_batch;
    let paxos = layers::consensus_group(FailureModel::Crash, batch);
    let pbft = layers::consensus_group(FailureModel::Byzantine, batch);
    set("consensus.paxos_commit_ns", paxos.ns_per_commit);
    set("consensus.pbft_commit_ns", pbft.ns_per_commit);
    set(
        "consensus.msgs_per_commit",
        match first.failure_model {
            FailureModel::Crash => paxos.msgs_per_commit,
            FailureModel::Byzantine => pbft.msgs_per_commit,
        },
    );
    set("crypto.sha256_ns_per_kib", layers::sha256_ns_per_kib());
    set("crypto.merkle8_ns", layers::merkle8_ns());
    set("crypto.sign_verify_ns", layers::sign_verify_ns());
    let (append_ns, cut_block_ns, dag_append_ns) = layers::ledger_ns();
    set("ledger.append_ns", append_ns);
    set("ledger.cut_block_ns", cut_block_ns);
    set("ledger.dag_append_ns", dag_append_ns);
    let tree = replay::build_tree(first);
    set("hierarchy.lca_ns", layers::lca_ns(&tree));
    let edge_domains = tree.edge_server_domains();
    let population = match first.client_model {
        ClientModel::Aggregate(population) => population,
        ClientModel::PerActor => PopulationConfig::with_users(200_000).per_user(0.05),
    };
    set(
        "loadgen.arrival_ns",
        layers::arrival_ns(population, edge_domains.clone(), first.seed),
    );
    set("loadgen.hist_record_ns", layers::hist_record_ns());
    set(
        "workload.gen_ns_per_tx",
        layers::workload_gen_ns(replay::micropayment_config(first), edge_domains, first.seed),
    );

    set(
        "alloc.bytes_per_commit",
        measured.alloc_bytes as f64 / commits,
    );
    set("alloc.peak_live_mib", measured.peak_live_mib);
    set("bench.run_s", measured.run_s());
    set("bench.setup_raw_s", measured.setup_s);
    set("bench.calib_s", calibration_s);
    set("bench.warmup_s", measured.warmup_s);
    let slowest = measured.rep_s.iter().copied().fold(0.0, f64::max);
    let fastest = measured.rep_s.iter().copied().fold(f64::INFINITY, f64::min);
    set("bench.rep_spread", (slowest - fastest) / fastest);
    set("bench.reps", measured.rep_s.len() as f64);
    set("bench.latency_samples", measured.sim.latency_samples as f64);
    set("bench.profile_s", started.elapsed().as_secs_f64());

    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = values
                .remove(*name)
                .unwrap_or_else(|| panic!("the profile pass did not produce {name}"));
            Metric::new(*name, unit, value)
        })
        .collect();
    for cell in CELL_NAMES {
        for (name, unit) in CELL_METRICS {
            let name = format!("cell.{cell}.{name}");
            // Zero on the workloads that do not have the cell.
            let value = values.remove(&name).unwrap_or(0.0);
            metrics.push(Metric::new(name, unit, value));
        }
    }
    assert!(
        values.is_empty(),
        "unregistered per-layer metrics: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    Ok(Profile {
        metrics,
        spans_json: rec.chrome_json(),
        failures,
    })
}
