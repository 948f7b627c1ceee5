//! The rows that are a `saguaro_sim::figures` / `scenarios` sweep plus a
//! table: the paper's figures and ablations (nothing gated), and the four
//! fault sweeps whose outcome is gated.

use crate::{Options, Outcome};
use saguaro_sim::figures::{
    self, ablation_contention, ablation_lca_vs_root, batch_throughput_delta, figure10, figure11,
    figure7, figure8, figure9, figure_ft, render_fault_table, render_recovery_table, render_table,
    render_timeout_table, workload_comparison, FigureOptions, FigureSeries, RecoverySeries,
    TimeoutSeries,
};
use saguaro_sim::scenarios::{render_scenario_table, scenario_matrix};
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

/// False suspicions vs crash recovery per placement and suspicion policy.
pub fn timeout_sweep(options: &Options) -> Outcome {
    let series = figures::timeout_sweep(&options.figure);
    Outcome {
        tables: vec![render_timeout_table(
            "Liveness-timeout sweep: false suspicions vs recovery time",
            &series,
        )],
        failures: timeout_gate(&series),
    }
}

/// The timeout gate: every cell's crashed domain recovers, and on the
/// nearby-regions placement the adaptive policy recovers within 2× the
/// best fixed window while firing no more false suspicions.  The best
/// fixed window is the fastest to recover among the recovered windows with
/// the fewest false suspicions: an aggressive window that "recovers"
/// instantly by churning through needless view changes is not an operating
/// point anyone deploys, so it does not set the bar.
fn timeout_gate(series: &[TimeoutSeries]) -> Vec<String> {
    let mut errors = Vec::new();
    for s in series {
        for p in s.points.iter().filter(|p| p.recovery_ms < 0.0) {
            errors.push(format!(
                "{} @ {}: the crashed domain never recovered",
                s.label,
                p.policy()
            ));
        }
    }
    let nearby = series
        .iter()
        .find(|s| s.label == "nearby-regions")
        .expect("the sweep runs the nearby-regions placement");
    let adaptive = nearby
        .points
        .iter()
        .find(|p| p.liveness.adaptive)
        .expect("the sweep runs the adaptive policy");
    let best_fixed = nearby
        .points
        .iter()
        .filter(|p| !p.liveness.adaptive && p.recovery_ms >= 0.0)
        .min_by(|a, b| {
            (a.false_suspicions, a.recovery_ms)
                .partial_cmp(&(b.false_suspicions, b.recovery_ms))
                .expect("finite recovery")
        });
    if let Some(best) = best_fixed {
        if adaptive.recovery_ms < 0.0
            || adaptive.recovery_ms > best.recovery_ms * 2.0
            || adaptive.false_suspicions > best.false_suspicions
        {
            errors.push(format!(
                "adaptive policy out of bounds: recovered in {:.1} ms with {} false suspicions \
                 vs best fixed {} ({:.1} ms, {} false suspicions)",
                adaptive.recovery_ms,
                adaptive.false_suspicions,
                best.policy(),
                best.recovery_ms,
                best.false_suspicions
            ));
        }
    }
    errors
}

/// Every composite scenario × stack × timeout policy with zero safety
/// violations.
pub fn scenarios(options: &Options) -> Outcome {
    let cells = scenario_matrix(&options.figure);
    Outcome {
        tables: vec![render_scenario_table("Adversarial scenario matrix", &cells)],
        failures: cells
            .iter()
            .filter(|c| !c.safety_violations.is_empty())
            .map(|c| {
                format!(
                    "{} / {} / {}: safety violated: {:?}",
                    c.scenario, c.stack, c.policy, c.safety_violations
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_sim::figures::{RecoveryPoint, TimeoutPoint};
    use saguaro_sim::{LivenessConfig, TimeoutPolicy};
    use saguaro_types::Duration;

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

    fn cell(liveness: LivenessConfig, recovery_ms: f64, false_suspicions: u64) -> TimeoutPoint {
        TimeoutPoint {
            liveness,
            false_suspicions,
            false_suspicion_rate: false_suspicions as f64 / 0.3,
            recovery_ms,
            crash_run_tps: 700.0,
        }
    }

    fn policies(recovery_ms: [f64; 3], false_suspicions: [u64; 3]) -> Vec<TimeoutPoint> {
        let fixed = |ms| LivenessConfig::with_timeout(Duration::from_millis(ms));
        let timers = [fixed(10), fixed(60), TimeoutPolicy::Adaptive.liveness()];
        (0..3)
            .map(|i| cell(timers[i], recovery_ms[i], false_suspicions[i]))
            .collect()
    }

    #[test]
    fn each_timeout_condition_fails_with_its_message() {
        // The seed-42 quick numbers: the best fixed window is fixed-60ms
        // (fixed-10ms recovers faster only by suspecting falsely).
        let good = vec![
            TimeoutSeries {
                label: "single-region".to_string(),
                points: policies([49.9, 71.2, 60.2], [57, 0, 0]),
            },
            TimeoutSeries {
                label: "nearby-regions".to_string(),
                points: policies([17.2, 84.2, 49.2], [54, 0, 0]),
            },
        ];
        crate::assert_each_violation_reported(
            &good,
            |series| timeout_gate(series),
            &[
                (
                    |s| s[0].points[1].recovery_ms = -1.0,
                    "single-region @ fixed-60ms: the crashed domain never recovered",
                ),
                (
                    |s| s[1].points[2].recovery_ms = 168.5,
                    "adaptive policy out of bounds: recovered in 168.5 ms with 0 false \
                     suspicions vs best fixed fixed-60ms (84.2 ms, 0 false suspicions)",
                ),
                (
                    |s| s[1].points[2].false_suspicions = 1,
                    "adaptive policy out of bounds: recovered in 49.2 ms with 1 false \
                     suspicions vs best fixed fixed-60ms",
                ),
            ],
        );
    }
}
