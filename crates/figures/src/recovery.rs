//! The `recovery` row: state-transfer catch-up of a crashed-and-recovered
//! backup, per outage length.  Gates: the victim caught up through state
//! transfer, checkpoints bound the view-change vote, and the transferred
//! volume grows with the outage.

use crate::grid::{group_by, quarter_in, run_grid};
use crate::table::{num, right, Column, Table};
use crate::{Options, Outcome};
use saguaro_sim::{ExperimentSpec, FaultSchedule, ProtocolKind, RunArtifacts};
use saguaro_types::{DomainId, Duration, NodeId, SimTime};

/// Checkpoint announcement interval every recovery run uses.
const CHECKPOINT_INTERVAL: u64 = 16;

/// The replica whose outage the recovery row scripts: a *backup* of the
/// first height-1 domain, so the domain keeps committing under its primary
/// while the victim falls behind — pure catch-up, no view change needed.
pub fn recovery_victim() -> NodeId {
    NodeId::new(DomainId::new(1, 0), 1)
}

/// One run: its series and the outage it scripts.
struct Cell {
    label: &'static str,
    outage_ms: u64,
    recover_at: SimTime,
}

/// One outage length of a series.
#[derive(Clone, Debug)]
struct RecoveryPoint {
    /// How long the victim was down (virtual ms).
    outage_ms: u64,
    /// From the scripted recovery to the victim's last applied
    /// state-transfer reply (virtual ms); `-1` when it never caught up.
    recovery_ms: f64,
    /// Member commands the victim received through state transfer.
    transferred_commands: u64,
    /// Wire bytes of the state-transfer replies the victim applied.
    transferred_bytes: u64,
    /// Delivery frontier the victim reached by the end of the run.
    victim_frontier: u64,
    /// Delivery frontier of a healthy replica of the same domain.
    healthy_frontier: u64,
    /// Entries a view-change vote from the healthy replica carries (bounded
    /// by the stable checkpoint).
    vote_entries: u64,
    /// Entries the same vote would carry without checkpoints: the full
    /// history, i.e. the healthy frontier.
    vote_entries_unbounded: u64,
}

impl RecoveryPoint {
    fn new(cell: &Cell, art: RunArtifacts) -> Self {
        let victim = art
            .harvest
            .node(recovery_victim())
            .expect("victim harvested");
        let healthy = art
            .harvest
            .node(NodeId::new(recovery_victim().domain, 2))
            .expect("healthy peer harvested");
        Self {
            outage_ms: cell.outage_ms,
            recovery_ms: victim
                .caught_up_at
                .map_or(-1.0, |t| t.since(cell.recover_at).as_millis_f64()),
            transferred_commands: victim.state_transfer_commands,
            transferred_bytes: victim.state_transfer_bytes,
            victim_frontier: victim.last_delivered,
            healthy_frontier: healthy.last_delivered,
            vote_entries: healthy.vote_entries as u64,
            vote_entries_unbounded: healthy.last_delivered,
        }
    }
}

/// Modelled wire size of a view-change vote carrying `entries` entries: a
/// 96-byte header plus ~264 bytes per single-command entry (the Paxos wire
/// model).
fn vote_bytes(entries: u64) -> u64 {
    96 + 264 * entries
}

/// A backup of one height-1 domain crashes a quarter into the window and
/// recovers after each outage length.  With checkpointing on, its log gap
/// cannot be filled by re-accepts (the slots are garbage-collected
/// domain-wide), so the measured recovery is the state-transfer catch-up.
/// One series over Paxos domains, one over PBFT.
fn cells(options: &Options) -> Vec<(Cell, ExperimentSpec)> {
    let outages_ms: &[u64] = if options.quick {
        &[60, 150]
    } else {
        &[50, 100, 200, 300]
    };
    let load = if options.quick { 1_200.0 } else { 2_400.0 };
    [("Coordinator", false), ("Coordinator-BFT", true)]
        .into_iter()
        .flat_map(|(label, byzantine)| {
            outages_ms.iter().map(move |&outage_ms| {
                let mut spec = options
                    .spec(ProtocolKind::SaguaroCoordinator)
                    .load(load)
                    .tune(|t| t.checkpoint_every(CHECKPOINT_INTERVAL));
                if byzantine {
                    spec = spec.byzantine();
                }
                let crash_at = quarter_in(&spec);
                let recover_at = crash_at + Duration::from_millis(outage_ms);
                let plan = FaultSchedule::none()
                    .crash_at(crash_at, recovery_victim())
                    .recover_at(recover_at, recovery_victim());
                let cell = Cell {
                    label,
                    outage_ms,
                    recover_at,
                };
                (cell, spec.fault_plan(plan))
            })
        })
        .collect()
}

const COLUMNS: &[Column<RecoveryPoint>] = &[
    right("outage_ms", 10, |p| p.outage_ms.into()),
    right("recovery_ms", 12, |p| num(p.recovery_ms, 1)),
    right("xfer_commands", 14, |p| p.transferred_commands.into()),
    right("xfer_bytes", 14, |p| p.transferred_bytes.into()),
    right("vote_entries", 12, |p| p.vote_entries.into()),
    right("vote_bytes", 14, |p| vote_bytes(p.vote_entries).into()),
    right("unbounded_bytes", 16, |p| {
        vote_bytes(p.vote_entries_unbounded).into()
    }),
];

/// The series' table, with the vote-size bound the checkpoint buys
/// (bounded and unbounded bytes).
fn table(series: &[(&str, Vec<RecoveryPoint>)]) -> String {
    let title = "Recovery: state-transfer catch-up time vs outage length";
    let mut table = Table::new(title, COLUMNS);
    for (label, points) in series {
        table.line(&format!(
            "{label} — checkpoint interval {CHECKPOINT_INTERVAL}"
        ));
        table.header();
        table.rows(points);
    }
    table.finish()
}

/// The recovery gate: one message per violated condition.
fn gate(series: &[(&str, Vec<RecoveryPoint>)]) -> Vec<String> {
    let mut errors = Vec::new();
    for (label, points) in series {
        for p in points {
            if p.recovery_ms < 0.0 {
                errors.push(format!(
                    "{label}: victim never caught up after a {} ms outage",
                    p.outage_ms
                ));
            }
            if p.transferred_commands == 0 {
                errors.push(format!(
                    "{label}: no state was transferred for a {} ms outage",
                    p.outage_ms
                ));
            }
            if p.victim_frontier != p.healthy_frontier {
                errors.push(format!(
                    "{label}: victim frontier lags its healthy peer after recovery"
                ));
            }
            if p.vote_entries >= p.vote_entries_unbounded {
                errors.push(format!(
                    "{label}: view-change votes are not bounded by the checkpoint"
                ));
            }
        }
        // The transferred volume scales with the outage: the longest outage
        // must move at least as much state as the shortest.
        if let (Some(first), Some(last)) = (points.first(), points.last()) {
            if last.transferred_commands < first.transferred_commands {
                errors.push(format!(
                    "{label}: transfer volume did not grow with outage length"
                ));
            }
        }
    }
    errors
}

/// Runs every outage of both series, prints the table and checks the gate.
pub fn run(options: &Options) -> Outcome {
    let runs = run_grid(cells(options), RecoveryPoint::new);
    let series = group_by(runs.into_iter().map(|(cell, point)| (cell.label, point)));
    Outcome {
        tables: vec![table(&series)],
        failures: gate(&series),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(outage_ms: u64, transferred_commands: u64) -> RecoveryPoint {
        RecoveryPoint {
            outage_ms,
            recovery_ms: 12.0,
            transferred_commands,
            transferred_bytes: 4_096,
            victim_frontier: 900,
            healthy_frontier: 900,
            vote_entries: 20,
            vote_entries_unbounded: 900,
        }
    }

    #[test]
    fn each_recovery_condition_fails_with_its_message() {
        let good = [("Coordinator", vec![point(60, 40), point(150, 90)])];
        crate::assert_each_violation_reported(
            &good,
            |series| gate(series),
            &[
                (
                    |s| s[0].1[0].recovery_ms = -1.0,
                    "Coordinator: victim never caught up after a 60 ms outage",
                ),
                (
                    |s| s[0].1[0].transferred_commands = 0,
                    "no state was transferred for a 60 ms outage",
                ),
                (
                    |s| s[0].1[1].victim_frontier = 899,
                    "victim frontier lags its healthy peer",
                ),
                (
                    |s| s[0].1[1].vote_entries = 900,
                    "votes are not bounded by the checkpoint",
                ),
                (
                    |s| s[0].1[1].transferred_commands = 39,
                    "transfer volume did not grow with outage",
                ),
            ],
        );
    }
}
