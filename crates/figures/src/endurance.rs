//! The `endurance` row: snapshot catch-up and log pruning over a long run
//! with a mid-run replica outage.
//!
//! Three aggregate-population runs drive one Saguaro deployment with a
//! finite checkpoint-retention window:
//!
//! 1. **half** — half-length, failure-free: the memory-footprint baseline.
//! 2. **short-outage** — full-length with a brief mid-run backup crash.
//! 3. **long-outage** — full-length with an outage several times longer
//!    (the headline run: ≥ 10⁶ committed transactions in full mode).
//!
//! Four gates make the row self-checking so CI fails loudly instead of
//! silently shipping a regression:
//!
//! * **Flat RSS** — doubling the committed-transaction count (half → full
//!   length) and stretching the outage must not grow the resident set
//!   beyond a fixed ceiling: with pruning on, every per-replica structure
//!   is bounded by the retention window, not by run length.
//! * **Bounded chains** — no replica may retain more consensus-log entries
//!   than the retention window plus checkpoint slack.
//! * **Snapshot catch-up** — the recovered victim must have installed a
//!   snapshot, and its catch-up time must be flat in the outage length
//!   (a replay-based catch-up scales with the outage instead).
//! * **Volume** — the long-outage run must commit the target transaction
//!   count (10⁶ full, scaled down under `--quick`).
//!
//! The RSS cells read this process's resident set, which earlier rows of the
//! same invocation may already have raised: run the row on its own when the
//! memory gates are the point.

use crate::grid::quarter_in;
use crate::population::resident_kb;
use crate::recovery::recovery_victim;
use crate::table::{left, num, right, table, Column};
use crate::{Options, Outcome};
use saguaro_sim::{ExperimentSpec, FaultSchedule, ProtocolKind};
use saguaro_types::{Duration, PopulationConfig};

/// Consensus block size: amortises per-message cost so the full-mode run
/// reaches 10⁶ commits in reasonable wall time.
const BATCH: usize = 32;
/// Checkpoint announcement interval (sequence numbers).
const INTERVAL: u64 = 16;
/// Retention window (sequence numbers kept below the stable checkpoint).
/// Deliberately much shorter than either outage, so the recovered victim's
/// frontier is below every responder's retained tail and catch-up MUST go
/// through the snapshot path rather than full command replay.
const RETENTION: u64 = 64;
/// Height-1 domains of the shaped topology.
const FANOUT: usize = 8;

/// Upper bound on retained consensus-log entries per replica: the retention
/// window plus a few checkpoint intervals of not-yet-pruned slack.
const CHAIN_CEILING: u64 = RETENTION + 4 * INTERVAL + 256;

/// Resident-set growth ceiling between runs, in KiB (256 MiB).  Pruned
/// state is bounded by the retention window, so doubling the committed
/// count or stretching the outage must not move RSS by more than
/// allocator noise.
const RSS_GROWTH_CEILING_KB: u64 = 256 * 1024;

/// Absolute resident-set ceiling after the long-outage run, in KiB (3 GiB).
const RSS_ABS_CEILING_KB: u64 = 3 * 1024 * 1024;

/// Catch-up flatness: the long outage may cost at most this factor over the
/// short one (plus a small absolute slack for timer quantisation).
const CATCH_UP_FACTOR: f64 = 3.0;
const CATCH_UP_SLACK_MS: f64 = 100.0;

/// Shape of one endurance scenario.
struct Scenario {
    users: u64,
    warmup: Duration,
    measure: Duration,
    outage_short: Duration,
    outage_long: Duration,
    committed_target: u64,
}

impl Scenario {
    fn for_mode(quick: bool) -> Self {
        if quick {
            Self {
                users: 20_000,
                warmup: Duration::from_millis(200),
                measure: Duration::from_millis(2_400),
                outage_short: Duration::from_millis(600),
                outage_long: Duration::from_millis(1_500),
                committed_target: 30_000,
            }
        } else {
            Self {
                users: 250_000,
                warmup: Duration::from_millis(300),
                measure: Duration::from_millis(5_500),
                outage_short: Duration::from_millis(500),
                outage_long: Duration::from_millis(2_500),
                committed_target: 1_000_000,
            }
        }
    }
}

/// Measured outcome of one endurance run.
#[derive(Clone)]
struct RunOutcome {
    label: &'static str,
    outage_ms: f64,
    committed: u64,
    throughput_tps: f64,
    wall_ms: f64,
    rss_kb: u64,
    catch_up_ms: Option<f64>,
    max_chain_len: u64,
    snapshots_taken: u64,
    victim_installs: u64,
    peak_events: u64,
}

/// Builds the endurance spec: aggregate population, finite retention,
/// wide two-level topology, batched consensus.
fn endurance_spec(scenario: &Scenario, seed: u64) -> ExperimentSpec {
    let population = PopulationConfig::with_users(scenario.users).per_user(1.0);
    let mut spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .shaped(2, FANOUT)
        .aggregate(population)
        .tune(|t| {
            t.batch_size(BATCH)
                .checkpoint_every(INTERVAL)
                .retained(RETENTION)
        });
    spec.seed = seed;
    spec.warmup = scenario.warmup;
    spec.measure = scenario.measure;
    spec
}

/// Runs one endurance point; `outage = None` is the failure-free baseline.
fn run_point(
    label: &'static str,
    mut spec: ExperimentSpec,
    outage: Option<Duration>,
) -> RunOutcome {
    let mut recover_at = None;
    if let Some(outage) = outage {
        let crash_at = quarter_in(&spec);
        let back_at = crash_at + outage;
        recover_at = Some(back_at);
        // The victim is a backup, never the view-0 primary: the domain keeps
        // committing while it is down and no view change is needed.
        spec = spec.fault_plan(
            FaultSchedule::none()
                .crash_at(crash_at, recovery_victim())
                .recover_at(back_at, recovery_victim()),
        );
    }
    let started = std::time::Instant::now();
    let art = spec.run_collecting();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let catch_up_ms = recover_at.and_then(|back_at| {
        let caught = art.harvest.node(recovery_victim())?.caught_up_at?;
        Some((caught - back_at).as_millis_f64())
    });
    RunOutcome {
        label,
        outage_ms: outage.map_or(0.0, |o| o.as_millis_f64()),
        committed: art.metrics.committed,
        throughput_tps: art.metrics.throughput_tps,
        wall_ms,
        rss_kb: resident_kb(),
        catch_up_ms,
        max_chain_len: art
            .harvest
            .nodes
            .iter()
            .map(|n| n.chain_len)
            .max()
            .unwrap_or(0),
        snapshots_taken: art.harvest.nodes.iter().map(|n| n.snapshots_taken).sum(),
        victim_installs: art
            .harvest
            .node(recovery_victim())
            .map_or(0, |n| n.snapshots_installed),
        peak_events: art.peak_pending_events,
    }
}

/// The endurance gates; returns one error string per violated condition.
fn gates(
    scenario: &Scenario,
    half: &RunOutcome,
    short: &RunOutcome,
    long: &RunOutcome,
) -> Vec<String> {
    let mut errors = Vec::new();
    if long.committed < scenario.committed_target {
        errors.push(format!(
            "long-outage run committed {} < target {}",
            long.committed, scenario.committed_target
        ));
    }
    for run in [half, short, long] {
        if run.snapshots_taken == 0 {
            errors.push(format!("{}: no replica materialised a snapshot", run.label));
        }
        if run.max_chain_len > CHAIN_CEILING {
            errors.push(format!(
                "{}: max retained chain {} exceeds ceiling {} — pruning is not \
                 holding the retention window",
                run.label, run.max_chain_len, CHAIN_CEILING
            ));
        }
    }
    for run in [short, long] {
        if run.victim_installs == 0 {
            errors.push(format!(
                "{}: recovered victim installed no snapshot (caught up by \
                 replay or not at all)",
                run.label
            ));
        }
    }
    match (short.catch_up_ms, long.catch_up_ms) {
        (Some(s), Some(l)) => {
            let ceiling = CATCH_UP_FACTOR * s + CATCH_UP_SLACK_MS;
            if l > ceiling {
                errors.push(format!(
                    "catch-up scales with outage: {l:.1} ms after the long outage \
                     vs {s:.1} ms after the short one (ceiling {ceiling:.1} ms)"
                ));
            }
        }
        _ => errors.push("victim never caught up after recovery".to_string()),
    }
    // Flat RSS: doubling the committed count (half -> short) and stretching
    // the outage (short -> long) must stay within allocator noise.
    let growth = |a: u64, b: u64| b.saturating_sub(a);
    if growth(half.rss_kb, short.rss_kb) > RSS_GROWTH_CEILING_KB {
        errors.push(format!(
            "RSS grew {} KiB when the run length doubled (ceiling {} KiB): \
             per-replica state is scaling with committed transactions",
            growth(half.rss_kb, short.rss_kb),
            RSS_GROWTH_CEILING_KB
        ));
    }
    if growth(short.rss_kb, long.rss_kb) > RSS_GROWTH_CEILING_KB {
        errors.push(format!(
            "RSS grew {} KiB when the outage stretched (ceiling {} KiB)",
            growth(short.rss_kb, long.rss_kb),
            RSS_GROWTH_CEILING_KB
        ));
    }
    if long.rss_kb > RSS_ABS_CEILING_KB {
        errors.push(format!(
            "resident set {} KiB exceeds absolute ceiling {} KiB",
            long.rss_kb, RSS_ABS_CEILING_KB
        ));
    }
    errors
}

const COLUMNS: &[Column<RunOutcome>] = &[
    left("run", 14, |r| r.label.into()),
    right("outage_ms", 9, |r| num(r.outage_ms, 0)),
    right("committed", 10, |r| r.committed.into()),
    right("tput_tps", 10, |r| num(r.throughput_tps, 0)),
    right("wall_ms", 9, |r| num(r.wall_ms, 0)),
    right("rss_mb", 10, |r| num(r.rss_kb as f64 / 1024.0, 1)),
    right("catchup", 9, |r| {
        r.catch_up_ms.map_or("-".into(), |c| num(c, 1))
    }),
    right("chain", 8, |r| r.max_chain_len.into()),
    right("snaps", 9, |r| r.snapshots_taken.into()),
    right("installs", 8, |r| r.victim_installs.into()),
    right("peak_events", 11, |r| r.peak_events.into()),
];

/// Runs the three endurance points and checks the gates.
pub fn run(options: &Options) -> Outcome {
    let scenario = Scenario::for_mode(options.quick);
    let spec = endurance_spec(&scenario, options.seed);
    let mut half_spec = spec.clone();
    half_spec.measure = Duration::from_micros(scenario.measure.as_micros() / 2);
    let runs = [
        run_point("half", half_spec, None),
        run_point("short-outage", spec.clone(), Some(scenario.outage_short)),
        run_point("long-outage", spec, Some(scenario.outage_long)),
    ];
    let title = "Endurance: snapshot catch-up + log pruning (Saguaro coordinator)";
    Outcome {
        tables: vec![table(title, COLUMNS, &runs)],
        failures: gates(&scenario, &runs[0], &runs[1], &runs[2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outcome that passes every gate of the quick scenario.
    fn passing(label: &'static str, outage_ms: f64) -> RunOutcome {
        RunOutcome {
            label,
            outage_ms,
            committed: 40_000,
            throughput_tps: 20_000.0,
            wall_ms: 1_500.0,
            rss_kb: 300 * 1024,
            catch_up_ms: (outage_ms > 0.0).then_some(4.0),
            max_chain_len: 14,
            snapshots_taken: 700,
            victim_installs: 1,
            peak_events: 196,
        }
    }

    #[test]
    fn each_endurance_condition_fails_with_its_message() {
        let scenario = Scenario::for_mode(true);
        let good = [
            passing("half", 0.0),
            passing("short-outage", 600.0),
            passing("long-outage", 1_500.0),
        ];
        crate::assert_each_violation_reported(
            &good,
            |r| gates(&scenario, &r[0], &r[1], &r[2]),
            &[
                (
                    |r| r[2].committed = 29_999,
                    "committed 29999 < target 30000",
                ),
                (
                    |r| r[0].snapshots_taken = 0,
                    "half: no replica materialised a snapshot",
                ),
                (
                    |r| r[1].max_chain_len = CHAIN_CEILING + 1,
                    "short-outage: max retained chain 385 exceeds ceiling 384",
                ),
                (
                    |r| r[2].victim_installs = 0,
                    "long-outage: recovered victim installed no snapshot",
                ),
                (
                    |r| r[2].catch_up_ms = Some(400.0),
                    "catch-up scales with outage: 400.0 ms",
                ),
                (
                    |r| r[1].catch_up_ms = None,
                    "victim never caught up after recovery",
                ),
                (
                    |r| r[0].rss_kb -= RSS_GROWTH_CEILING_KB + 1,
                    "KiB when the run length doubled",
                ),
                (
                    |r| r[2].rss_kb += RSS_GROWTH_CEILING_KB + 1,
                    "KiB when the outage stretched",
                ),
                (
                    |r| r.iter_mut().for_each(|r| r.rss_kb = RSS_ABS_CEILING_KB + 1),
                    "exceeds absolute ceiling 3145728 KiB",
                ),
            ],
        );
    }
}
