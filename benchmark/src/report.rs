//! The metric registry — every name the benchmark reports, with its unit —
//! and the two output forms: a table for people, one JSON line for a driver.
//!
//! Units say which clock a number is on: `s`, `ms` and `ns` are host time;
//! `sim_ms` and `tx/sim_s` are the simulation's virtual clock and repeat
//! exactly for a given seed.

use crate::host;
use crate::measure::Measured;
use saguaro_sim::JsonValue;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Its value.
    pub value: f64,
}

impl Metric {
    /// A metric called `name`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// An end-to-end metric's registry entry.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("run_cal", "ratio", false, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.20),
    e2e("allocs_per_commit", "count", false, 0.25),
    e2e("commit_tps", "tx/sim_s", true, 0.02),
    e2e("commit_p50_ms", "sim_ms", false, 0.09),
    e2e("commit_tail_ms", "sim_ms", false, 0.10),
    e2e("committed_share", "ratio", true, 0.02),
    e2e("slo_tps", "tx/sim_s", true, 0.01),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// Every cell name of every workload (`mobile80` serves two of them).
pub const CELL_NAMES: [&str; 11] = [
    "coord", "opt", "ahl", "sharper", "mobile80", "r8k", "r32k", "r40k", "pop", "cft", "bft",
];

/// The per-cell metrics, reported as `cell.<cell>.<name>`; zero on the
/// workloads that do not have the cell.
pub const CELL_METRICS: [(&str, &str); 5] = [
    ("run_cal", "ratio"),
    ("events", "count"),
    ("commit_tps", "tx/sim_s"),
    ("commit_p50_ms", "sim_ms"),
    ("commit_p99_ms", "sim_ms"),
];

/// The per-layer metrics that are not per cell.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("net.events", "count"),
    ("net.events_per_commit", "count"),
    ("net.msgs_per_commit", "count"),
    ("net.bytes_per_commit", "B"),
    ("net.timers_per_commit", "count"),
    ("net.dropped_msgs", "count"),
    ("net.peak_pending_events", "count"),
    ("net.busiest_util", "ratio"),
    ("net.run_until_ms", "ms"),
    ("net.host_ns_per_event", "ns"),
    ("net.bare_event_ns", "ns"),
    ("net.engine_share", "ratio"),
    ("net.heap_push_pop_ns", "ns"),
    ("net.calendar_event_ns", "ns"),
    ("consensus.paxos_commit_ns", "ns"),
    ("consensus.pbft_commit_ns", "ns"),
    ("consensus.msgs_per_commit", "count"),
    ("consensus.order_ms_p50", "sim_ms"),
    ("consensus.order_ms_p99", "sim_ms"),
    ("consensus.batch_fill", "count"),
    ("consensus.view_changes", "count"),
    ("consensus.outage_ms", "sim_ms"),
    ("consensus.catchup_ms", "sim_ms"),
    ("consensus.state_transfer_bytes", "B"),
    ("consensus.snapshots_taken", "count"),
    ("consensus.snapshots_installed", "count"),
    ("consensus.chain_len_max", "count"),
    ("consensus.certificate_conflicts", "count"),
    ("core.batch_wait_ms_p50", "sim_ms"),
    ("core.exec_ms_p50", "sim_ms"),
    ("core.exec_ms_p99", "sim_ms"),
    ("core.reply_ms_p50", "sim_ms"),
    ("core.local_p50_ms", "sim_ms"),
    ("core.cross_p50_ms", "sim_ms"),
    ("core.mobile_p50_ms", "sim_ms"),
    ("core.abort_share", "ratio"),
    ("crypto.sha256_ns_per_kib", "ns"),
    ("crypto.merkle8_ns", "ns"),
    ("crypto.sign_verify_ns", "ns"),
    ("ledger.append_ns", "ns"),
    ("ledger.cut_block_ns", "ns"),
    ("ledger.dag_append_ns", "ns"),
    ("hierarchy.build_tree_ms", "ms"),
    ("hierarchy.lca_ns", "ns"),
    ("workload.gen_ns_per_tx", "ns"),
    ("loadgen.arrival_ns", "ns"),
    ("loadgen.hist_record_ns", "ns"),
    ("sim.prepare_ms", "ms"),
    ("sim.deploy_ms", "ms"),
    ("sim.harvest_ms", "ms"),
    ("sim.summarise_ms", "ms"),
    ("sim.json_ms", "ms"),
    ("sim.phased_delta", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.chrome_json_ms", "ms"),
    ("alloc.bytes_per_commit", "B"),
    ("alloc.peak_live_mib", "MiB"),
    ("bench.run_s", "s"),
    ("bench.setup_raw_s", "s"),
    ("bench.calib_s", "s"),
    ("bench.warmup_s", "s"),
    ("bench.rep_spread", "ratio"),
    ("bench.reps", "count"),
    ("bench.latency_samples", "count"),
    ("bench.profile_s", "s"),
];

/// Every per-layer metric name with its unit, in reporting order.
pub fn per_layer_registry() -> Vec<(String, &'static str)> {
    let mut registry: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(name, unit)| (name.to_string(), *unit))
        .collect();
    for cell in CELL_NAMES {
        for (name, unit) in CELL_METRICS {
            registry.push((format!("cell.{cell}.{name}"), unit));
        }
    }
    registry
}

/// The end-to-end metrics of one invocation, in registry order.
pub fn end_to_end(measured: &Measured) -> Vec<Metric> {
    let sim = &measured.sim;
    // The host's speed drifts by half within the hour.  A ratio to the
    // calibration kernel is immune to that; `setup_s` has to be in seconds,
    // so it is the measured time scaled to the host's undisturbed speed.
    let calibration_s = measured.calibration_s();
    let values = [
        measured.setup_s * host::CALIBRATION_REFERENCE_S / calibration_s,
        measured.run_s() / calibration_s,
        measured.peak_rss_mib,
        measured.allocs as f64 / measured.commits_total().max(1) as f64,
        sim.commit_tps,
        sim.commit_p50_ms,
        sim.commit_tail_ms,
        sim.committed_share,
        sim.slo_tps,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(entry, value)| Metric::new(entry.name, entry.unit, value))
        .collect()
}

/// Prints metrics as an aligned `name value unit` table.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("{:<width$}  {:>16.6}  {}", m.name, m.value, m.unit);
    }
}

/// The driver's result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                JsonValue::object([
                    ("value", JsonValue::Num(m.value)),
                    ("unit", JsonValue::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        ("attempted".to_string(), JsonValue::Num(attempted as f64)),
        ("failed".to_string(), JsonValue::Num(failed as f64)),
        ("metrics".to_string(), JsonValue::Object(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|e| e.name.to_string()).collect();
        names.extend(per_layer_registry().into_iter().map(|(name, _)| name));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
        assert!(per_layer_registry().len() <= 128);
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.higher_is_better),
            ("setup_s", "s", false)
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 1, &[Metric::new("setup_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\
             \"metrics\":{\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
    }
}
