//! The rows that are a `saguaro_sim::figures` / `scenarios` sweep plus a
//! table: the paper's figures and ablations (nothing gated), and the four
//! fault sweeps whose outcome is gated.

use crate::{Options, Outcome};
use saguaro_sim::figures::{
    self, ablation_contention, ablation_lca_vs_root, batch_throughput_delta, figure10, figure11,
    figure7, figure8, figure9, figure_ft, render_fault_table, render_recovery_table, render_table,
    render_timeout_table, workload_comparison, FigureOptions, FigureSeries, RecoverySeries,
};
use saguaro_sim::scenarios::{
    adaptive_comparison, render_adaptive_table, render_scenario_table, scenario_matrix,
};
use saguaro_types::FailureModel::{Byzantine, Crash};

/// One sub-figure: its table title and the sweep that produces its curves.
pub type Sweep = (&'static str, fn(&FigureOptions) -> Vec<FigureSeries>);

/// Runs each sub-figure's sweep and renders it under its title.
pub fn sweeps(options: &Options, subfigures: &[Sweep]) -> Outcome {
    Outcome {
        tables: subfigures
            .iter()
            .map(|(title, sweep)| render_table(title, &sweep(&options.figure)))
            .collect(),
        failures: Vec::new(),
    }
}

pub const FIGURE_7: &[Sweep] = &[
    (
        "Figure 7(a) 20% cross-domain, crash-only, nearby regions",
        |o| figure7(0.2, o),
    ),
    (
        "Figure 7(b) 80% cross-domain, crash-only, nearby regions",
        |o| figure7(0.8, o),
    ),
    (
        "Figure 7(c) 100% cross-domain, crash-only, nearby regions",
        |o| figure7(1.0, o),
    ),
];

pub const FIGURE_8: &[Sweep] = &[
    (
        "Figure 8(a) 20% cross-domain, Byzantine, nearby regions",
        |o| figure8(0.2, o),
    ),
    (
        "Figure 8(b) 80% cross-domain, Byzantine, nearby regions",
        |o| figure8(0.8, o),
    ),
    (
        "Figure 8(c) 100% cross-domain, Byzantine, nearby regions",
        |o| figure8(1.0, o),
    ),
];

pub const FIGURE_9: &[Sweep] = &[
    (
        "Figure 9(a) crash-only mobile devices, nearby regions",
        |o| figure9(Crash, o),
    ),
    (
        "Figure 9(b) Byzantine mobile devices, nearby regions",
        |o| figure9(Byzantine, o),
    ),
];

pub const FIGURE_10: &[Sweep] = &[
    ("Figure 10(a) crash-only wide area, 10% cross-domain", |o| {
        figure10(Crash, o)
    }),
    ("Figure 10(b) Byzantine wide area, 10% cross-domain", |o| {
        figure10(Byzantine, o)
    }),
];

pub const FIGURE_11: &[Sweep] = &[
    ("Figure 11(a) crash-only mobile devices, wide area", |o| {
        figure11(Crash, o)
    }),
    ("Figure 11(b) Byzantine mobile devices, wide area", |o| {
        figure11(Byzantine, o)
    }),
];

pub const FIGURE_12: &[Sweep] = &[
    (
        "Figure 12(a) |p| = 5 crash-only fault-tolerance scalability",
        |o| figure_ft(Crash, 2, o),
    ),
    (
        "Figure 12(b) |p| = 9 crash-only fault-tolerance scalability",
        |o| figure_ft(Crash, 4, o),
    ),
];

pub const FIGURE_13: &[Sweep] = &[
    (
        "Figure 13(a) |p| = 7 Byzantine fault-tolerance scalability",
        |o| figure_ft(Byzantine, 2, o),
    ),
    (
        "Figure 13(b) |p| = 13 Byzantine fault-tolerance scalability",
        |o| figure_ft(Byzantine, 4, o),
    ),
];

pub const ABLATION: &[Sweep] = &[
    (
        "Ablation: LCA coordinator vs fixed root coordinator (100% cross-domain)",
        ablation_lca_vs_root,
    ),
    (
        "Ablation: contention sensitivity of the optimistic protocol (80% cross-domain)",
        ablation_contention,
    ),
];

pub const WORKLOADS: &[Sweep] = &[(
    "Workload comparison: micropayment vs ridesharing, coordinator stack",
    workload_comparison,
)];

/// The batching ablation's series table, followed by the per-stack
/// batched-vs-unbatched throughput delta at the highest load.
pub fn ablation_batch(options: &Options) -> Outcome {
    let series = figures::ablation_batch(&options.figure);
    let mut table = render_table(
        "Ablation: consensus block size (request batching) at saturation, \
         figure-7 topology",
        &series,
    );
    // The summary rides in the same table (one banner), set off by a blank
    // line; the driver ends every table with the final newline.
    table.push_str("\n# Batched vs unbatched committed throughput (highest load)\n");
    table.push_str(&format!(
        "{:<22} {:>14} {:>14} {:>10}",
        "stack", "b=1 tps", "batched tps", "delta"
    ));
    for (stack, unbatched, batched, pct) in batch_throughput_delta(&series) {
        table.push_str(&format!(
            "\n{stack:<22} {unbatched:>14.0} {batched:>14.0} {pct:>+9.1}%"
        ));
    }
    Outcome {
        tables: vec![table],
        failures: Vec::new(),
    }
}

/// Every stack under the same scripted leader crash and recovery.
pub fn faults(options: &Options) -> Outcome {
    let series = figures::faults(&options.figure);
    Outcome {
        tables: vec![render_fault_table(
            "Fault injection: leader crash + recovery, figure-7 topology",
            &series,
        )],
        failures: series
            .iter()
            .filter(|s| s.view_changes == 0)
            .map(|s| {
                format!(
                    "{}: a scripted leader crash must drive at least one view change",
                    s.label
                )
            })
            .collect(),
    }
}

/// State-transfer catch-up of a crashed-and-recovered backup, per outage.
pub fn recovery(options: &Options) -> Outcome {
    let series = figures::recovery(&options.figure);
    Outcome {
        tables: vec![render_recovery_table(
            "Recovery: state-transfer catch-up time vs outage length",
            &series,
        )],
        failures: recovery_gate(&series),
    }
}

/// The recovery gate: every victim caught up, through state transfer, to
/// its healthy peer's frontier; checkpoints bound the view-change vote; and
/// the transferred volume grows with the outage.
fn recovery_gate(series: &[RecoverySeries]) -> Vec<String> {
    let mut errors = Vec::new();
    for s in series {
        for p in &s.points {
            if p.recovery_ms < 0.0 {
                errors.push(format!(
                    "{}: victim never caught up after a {} ms outage",
                    s.label, p.outage_ms
                ));
            }
            if p.transferred_commands == 0 {
                errors.push(format!(
                    "{}: no state was transferred for a {} ms outage",
                    s.label, p.outage_ms
                ));
            }
            if p.victim_frontier != p.healthy_frontier {
                errors.push(format!(
                    "{}: victim frontier lags its healthy peer after recovery",
                    s.label
                ));
            }
            if p.vote_entries as u64 >= p.vote_entries_unbounded {
                errors.push(format!(
                    "{}: view-change votes are not bounded by the checkpoint",
                    s.label
                ));
            }
        }
        // The transferred volume scales with the outage: the longest outage
        // must move at least as much state as the shortest.
        if let (Some(first), Some(last)) = (s.points.first(), s.points.last()) {
            if last.transferred_commands < first.transferred_commands {
                errors.push(format!(
                    "{}: transfer volume did not grow with outage length",
                    s.label
                ));
            }
        }
    }
    errors
}

/// False suspicions vs crash recovery per `(placement, suspicion window)`.
pub fn timeout_sweep(options: &Options) -> Outcome {
    let series = figures::timeout_sweep(&options.figure);
    let mut failures = Vec::new();
    for s in &series {
        for p in s.points.iter().filter(|p| p.recovery_ms < 0.0) {
            failures.push(format!(
                "{} @ {} ms: the crashed domain never recovered",
                s.label, p.timeout_ms
            ));
        }
    }
    Outcome {
        tables: vec![render_timeout_table(
            "Liveness-timeout sweep: false suspicions vs recovery time",
            &series,
        )],
        failures,
    }
}

/// Every composite scenario × stack × timeout policy with zero safety
/// violations, then the adaptive policy against the best fixed window on
/// the crashed-primary replay: recovery within 2× and no more false
/// suspicions.
pub fn scenarios(options: &Options) -> Outcome {
    let cells = scenario_matrix(&options.figure);
    let cmp = adaptive_comparison(&options.figure);
    let mut failures: Vec<String> = cells
        .iter()
        .filter(|c| !c.safety_violations.is_empty())
        .map(|c| {
            format!(
                "{} / {} / {}: safety violated: {:?}",
                c.scenario, c.stack, c.policy, c.safety_violations
            )
        })
        .collect();
    if !cmp.adaptive_within(2.0) {
        failures.push(format!(
            "adaptive policy out of bounds: recovered in {:.1} ms with {} false suspicions \
             vs best fixed {} ({:.1} ms, {} false suspicions)",
            cmp.adaptive.recovery_ms,
            cmp.adaptive.false_suspicions,
            cmp.best_fixed.label,
            cmp.best_fixed.recovery_ms,
            cmp.best_fixed.false_suspicions
        ));
    }
    Outcome {
        tables: vec![
            render_scenario_table("Adversarial scenario matrix", &cells),
            render_adaptive_table(
                "Adaptive vs fixed suspicion windows (crashed primary)",
                &cmp,
            ),
        ],
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_sim::figures::RecoveryPoint;

    fn point(outage_ms: f64, transferred_commands: u64) -> RecoveryPoint {
        RecoveryPoint {
            outage_ms,
            recovery_ms: 12.0,
            transferred_commands,
            transferred_bytes: 4_096,
            victim_frontier: 900,
            healthy_frontier: 900,
            vote_entries: 20,
            vote_entries_unbounded: 900,
            stable_checkpoint: 880,
            metrics: Default::default(),
        }
    }

    #[test]
    fn each_recovery_condition_fails_with_its_message() {
        let good = [RecoverySeries {
            label: "Coordinator".to_string(),
            checkpoint_interval: 16,
            points: vec![point(60.0, 40), point(150.0, 90)],
        }];
        crate::assert_each_violation_reported(
            &good,
            |series| recovery_gate(series),
            &[
                (
                    |s| s[0].points[0].recovery_ms = -1.0,
                    "Coordinator: victim never caught up after a 60 ms outage",
                ),
                (
                    |s| s[0].points[0].transferred_commands = 0,
                    "no state was transferred for a 60 ms outage",
                ),
                (
                    |s| s[0].points[1].victim_frontier = 899,
                    "victim frontier lags its healthy peer",
                ),
                (
                    |s| s[0].points[1].vote_entries = 900,
                    "votes are not bounded by the checkpoint",
                ),
                (
                    |s| s[0].points[1].transferred_commands = 39,
                    "transfer volume did not grow with outage",
                ),
            ],
        );
    }
}
