//! The rows that are load sweeps: the paper's Figures 7–13, the ablations
//! and the workload comparison.  Each curve runs at every offered load of
//! the row's grid; nothing here is gated.

use crate::grid::run_grid;
use crate::table::{left, num, right, table, Cell, Column};
use crate::{Options, Outcome};
use saguaro_hierarchy::Placement;
use saguaro_sim::{ExperimentSpec, LoadPoint, ProtocolKind, RidesharingConfig};
use saguaro_types::FailureModel::{self, Byzantine, Crash};

/// One curve of a figure: its legend label and its spec, run at every load.
type Curve = (&'static str, ExperimentSpec);

/// Runs every `(curve, load)` cell as one flat parallel grid: a figure's
/// curves are independent runs just like its load points, so flattening
/// keeps every core busy even when the load grid is short.  Points come
/// back curve by curve, each curve's in load order, beside their curve's key
/// (a legend label, or typed parameters).
fn sweep<K: Clone + Sync>(curves: Vec<(K, ExperimentSpec)>, loads: &[f64]) -> Vec<(K, LoadPoint)> {
    let cells = curves
        .iter()
        .flat_map(|(key, spec)| {
            loads
                .iter()
                .map(|&load| ((key.clone(), load), spec.clone().load(load)))
        })
        .collect();
    let runs = run_grid(cells, |_, art| art.metrics);
    let point = |((key, offered_tps), metrics)| {
        (
            key,
            LoadPoint {
                offered_tps,
                metrics,
            },
        )
    };
    runs.into_iter().map(point).collect()
}

/// One line of a sweep's table: a curve's label and one of its points.
type Line = (String, LoadPoint);

const COLUMNS: &[Column<Line>] = &[
    left("series", 22, |(label, _)| label.as_str().into()),
    right("offered_tps", 12, |(_, p)| num(p.offered_tps, 0)),
    right("throughput_tps", 14, |(_, p)| {
        num(p.metrics.throughput_tps, 0)
    }),
    right("avg_lat_ms", 12, |(_, p)| num(p.metrics.avg_latency_ms, 2)),
    right("p95_lat_ms", 12, |(_, p)| num(p.metrics.p95_latency_ms, 2)),
    right("aborted", 10, |(_, p)| p.metrics.aborted.into()),
];

/// A sweep's table: one line per point, labelled by its curve's `label`.
fn sweep_table<K>(title: &str, points: Vec<(K, LoadPoint)>, label: impl Fn(K) -> String) -> String {
    let lines: Vec<Line> = points.into_iter().map(|(key, p)| (label(key), p)).collect();
    table(title, COLUMNS, &lines)
}

/// Renders each sub-figure — its title and its curves — swept over the
/// load grid.
fn sweeps(
    options: &Options,
    subfigures: impl IntoIterator<Item = (String, Vec<Curve>)>,
) -> Outcome {
    let render = |(title, curves): (String, Vec<Curve>)| {
        sweep_table(&title, sweep(curves, options.loads()), String::from)
    };
    Outcome {
        tables: subfigures.into_iter().map(render).collect(),
        failures: Vec::new(),
    }
}

/// The six curves every cross-domain figure plots: AHL, SharPer, the
/// coordinator-based protocol and the optimistic protocol at 10 / 50 / 90 %
/// contention, each spec passed through `configure`.
fn cross_domain_curves(
    options: &Options,
    configure: impl Fn(ExperimentSpec) -> ExperimentSpec,
) -> Vec<Curve> {
    [
        (ProtocolKind::Ahl, "AHL", None),
        (ProtocolKind::Sharper, "SharPer", None),
        (ProtocolKind::SaguaroCoordinator, "Coordinator", None),
        (ProtocolKind::SaguaroOptimistic, "Opt-10%C", Some(0.10)),
        (ProtocolKind::SaguaroOptimistic, "Opt-50%C", Some(0.50)),
        (ProtocolKind::SaguaroOptimistic, "Opt-90%C", Some(0.90)),
    ]
    .into_iter()
    .map(|(protocol, label, contention)| {
        let spec = configure(options.spec(protocol));
        match contention {
            Some(c) => (label, spec.contention(c)),
            None => (label, spec),
        }
    })
    .collect()
}

/// The curves of `curves` named in `labels`, in that order, each renamed.
fn relabel(curves: Vec<Curve>, labels: &[(&str, &'static str)]) -> Vec<Curve> {
    labels
        .iter()
        .map(|(from, to)| {
            let (_, spec) = curves
                .iter()
                .find(|(label, _)| label == from)
                .expect("the figure plots every relabelled curve");
            (*to, spec.clone())
        })
        .collect()
}

/// `spec` over `model`'s domains, and the model's name in figure titles.
fn with_model(spec: ExperimentSpec, model: FailureModel) -> ExperimentSpec {
    match model {
        Crash => spec,
        Byzantine => spec.byzantine(),
    }
}

fn model_name(model: FailureModel) -> &'static str {
    match model {
        Crash => "crash-only",
        Byzantine => "Byzantine",
    }
}

/// Figures 7 (crash-only) and 8 (Byzantine): 20, 80 and 100 % cross-domain
/// transactions over nearby regions.
pub fn cross_domain(options: &Options, figure: u8, model: FailureModel) -> Outcome {
    let subfigure = |(sub, pct): (char, u32)| {
        let name = model_name(model);
        let title = format!("Figure {figure}({sub}) {pct}% cross-domain, {name}, nearby regions");
        let ratio = f64::from(pct) / 100.0;
        (
            title,
            cross_domain_curves(options, |s| with_model(s, model).cross_domain(ratio)),
        )
    };
    sweeps(options, [('a', 20), ('b', 80), ('c', 100)].map(subfigure))
}

/// Transactions initiated by mobile devices, one curve per mobile
/// percentage.
fn mobile_curves(placement: Placement, model: FailureModel, options: &Options) -> Vec<Curve> {
    [
        ("0%Mobile", 0.0),
        ("20%Mobile", 0.2),
        ("80%Mobile", 0.8),
        ("100%Mobile", 1.0),
    ]
    .into_iter()
    .map(|(label, ratio)| {
        let spec = options
            .spec(ProtocolKind::SaguaroCoordinator)
            .placed(placement)
            .mobile(ratio);
        (label, with_model(spec, model))
    })
    .collect()
}

/// Figures 9 (nearby regions) and 11 (wide area): mobile devices over
/// crash-only, then Byzantine domains.
pub fn mobile(options: &Options, figure: u8, placement: Placement) -> Outcome {
    let place = match placement {
        Placement::SingleRegion => "single region",
        Placement::NearbyRegions => "nearby regions",
        Placement::WideArea => "wide area",
    };
    let subfigure = |(sub, model): (char, FailureModel)| {
        let title = format!(
            "Figure {figure}({sub}) {} mobile devices, {place}",
            model_name(model)
        );
        (title, mobile_curves(placement, model, options))
    };
    sweeps(options, [('a', Crash), ('b', Byzantine)].map(subfigure))
}

/// Figure 10: scalability over seven far-apart regions, 90 % internal /
/// 10 % cross-domain, crash-only then Byzantine domains.
pub fn wide_area(options: &Options) -> Outcome {
    let subfigure = |(sub, model): (char, FailureModel)| {
        let title = format!(
            "Figure 10({sub}) {} wide area, 10% cross-domain",
            model_name(model)
        );
        let configure = |s: ExperimentSpec| s.placed(Placement::WideArea).cross_domain(0.10);
        (
            title,
            cross_domain_curves(options, |s| with_model(configure(s), model)),
        )
    };
    sweeps(options, [('a', Crash), ('b', Byzantine)].map(subfigure))
}

/// Figures 12 (crash-only) and 13 (Byzantine): fault-tolerance scalability
/// — every stack, single region, 90/10 workload, domains tolerating `f` =
/// 2, then 4 faults.
pub fn fault_tolerance(options: &Options, figure: u8, model: FailureModel) -> Outcome {
    let subfigure = |(sub, f): (char, usize)| {
        let (replicas, name) = (model.replicas_for(f), model_name(model));
        let title =
            format!("Figure {figure}({sub}) |p| = {replicas} {name} fault-tolerance scalability");
        let configure = |s: ExperimentSpec| s.placed(Placement::SingleRegion).cross_domain(0.10);
        (
            title,
            cross_domain_curves(options, |s| with_model(configure(s), model).with_faults(f)),
        )
    };
    sweeps(options, [('a', 2), ('b', 4)].map(subfigure))
}

/// The ablations are curves of Figure 7 under their own names: the AHL
/// baseline *is* the fixed-root configuration over the same substrate, and
/// the optimistic curves sweep its contention knob.
pub fn ablation(options: &Options) -> Outcome {
    let figure7 = |cross: f64| cross_domain_curves(options, |s| s.cross_domain(cross));
    let lca = [
        ("Coordinator", "LCA coordinator"),
        ("AHL", "Fixed root coordinator"),
    ];
    let contention = [
        ("Opt-10%C", "contention 10%"),
        ("Opt-50%C", "contention 50%"),
        ("Opt-90%C", "contention 90%"),
    ];
    let lca_title = "Ablation: LCA coordinator vs fixed root coordinator (100% cross-domain)";
    let contention_title =
        "Ablation: contention sensitivity of the optimistic protocol (80% cross-domain)";
    sweeps(
        options,
        [
            (lca_title.to_string(), relabel(figure7(1.0), &lca)),
            (
                contention_title.to_string(),
                relabel(figure7(0.8), &contention),
            ),
        ],
    )
}

/// Not a paper figure: the micropayment and ridesharing applications under
/// one stack and engine, so application choice, not the engine, drives the
/// numbers.
pub fn workloads(options: &Options) -> Outcome {
    let base = options.spec(ProtocolKind::SaguaroCoordinator);
    let rides = base.clone().ridesharing(RidesharingConfig::default());
    let title = "Workload comparison: micropayment vs ridesharing, coordinator stack";
    let curves = vec![("micropayment", base), ("ridesharing", rides)];
    sweeps(options, [(title.to_string(), curves)])
}

/// Batch sizes and offered loads of the batching ablation: the loads sit at
/// and beyond the unbatched pipeline's saturation point (~180 k tx/s
/// committed on the figure-7 topology), where consensus message cost — the
/// thing batching amortises — is the binding constraint.
fn batch_grid(quick: bool) -> (&'static [f64], &'static [usize]) {
    if quick {
        (&[220_000.0], &[1, 8])
    } else {
        (&[160_000.0, 220_000.0], &[1, 8, 16])
    }
}

/// One stack's batched-vs-unbatched comparison: `(stack, b=1 tps,
/// largest-batch tps, delta %)`.
type Delta = (ProtocolKind, f64, f64, f64);

const DELTA_COLUMNS: &[Column<Delta>] = &[
    left("stack", 22, |d| d.0.label().into()),
    right("b=1 tps", 14, |d| num(d.1, 0)),
    right("batched tps", 14, |d| num(d.2, 0)),
    right("delta", 10, |d| Cell::Text(format!("{:+.1}%", d.3))),
];

/// Per-stack committed throughput of the largest batch size against `b=1`,
/// each at its highest load.
fn batch_throughput_delta(points: &[((ProtocolKind, usize), LoadPoint)]) -> Vec<Delta> {
    let top_tps = |key| {
        let at = points.iter().filter(|(k, _)| *k == key).map(|(_, p)| p);
        let top = at.max_by(|a, b| a.offered_tps.total_cmp(&b.offered_tps))?;
        Some(top.metrics.throughput_tps)
    };
    ProtocolKind::ALL
        .into_iter()
        .filter_map(|protocol| {
            let sizes = points.iter().filter(|((p, _), _)| *p == protocol);
            // No batched configuration: nothing to compare against.
            let largest = sizes.map(|((_, size), _)| *size).max().filter(|&s| s > 1)?;
            let (unbatched, batched) = (top_tps((protocol, 1))?, top_tps((protocol, largest))?);
            let delta_pct = if unbatched > 0.0 {
                100.0 * (batched - unbatched) / unbatched
            } else {
                0.0
            };
            Some((protocol, unbatched, batched, delta_pct))
        })
        .collect()
}

/// Consensus block size (request batching) on the figure-7 topology at
/// saturation, one curve per `(stack, batch size)`, followed by each
/// stack's batched-vs-unbatched delta at the highest load.  The row picks
/// its own loads: the figure grid sits far below saturation.
pub fn ablation_batch(options: &Options) -> Outcome {
    let (loads, sizes) = batch_grid(options.quick);
    let curves = ProtocolKind::ALL
        .into_iter()
        .flat_map(|protocol| {
            sizes.iter().map(move |&size| {
                let spec = options.spec(protocol).tune(|t| t.batch_size(size));
                ((protocol, size), spec)
            })
        })
        .collect();
    let points = sweep(curves, loads);
    let delta = table(
        "Batched vs unbatched committed throughput (highest load)",
        DELTA_COLUMNS,
        &batch_throughput_delta(&points),
    );
    let title = "Ablation: consensus block size (request batching) at saturation, \
                 figure-7 topology";
    let label = |(protocol, size): (ProtocolKind, usize)| format!("{} b={size}", protocol.label());
    // One banner for both tables, set off by a blank line; the driver ends
    // every table with the final newline.
    let both = sweep_table(title, points, label) + "\n" + delta.trim_end_matches('\n');
    Outcome {
        tables: vec![both],
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::group_by;
    use saguaro_sim::RunMetrics;

    #[test]
    fn smoke_figure7_has_six_series() {
        let options = crate::quick();
        let curves = cross_domain_curves(&options, |s| s.cross_domain(0.2));
        let points = sweep(curves, options.loads());
        let series = group_by(points.iter().cloned());
        assert_eq!(series.len(), 6);
        assert!(series.iter().all(|(_, points)| points.len() == 2));
        let table = sweep_table("fig7a", points, String::from);
        assert!(table.contains("Coordinator") && table.contains("AHL"));
    }

    #[test]
    fn smoke_mobile_figure_has_four_series() {
        let options = crate::quick();
        let curves = mobile_curves(Placement::NearbyRegions, Crash, &options);
        let series = group_by(sweep(curves, options.loads()));
        assert_eq!(series.len(), 4);
        assert!(series.iter().any(|(label, _)| *label == "100%Mobile"));
    }

    #[test]
    fn batch_delta_reads_the_highest_load_point() {
        // Synthetic points: no simulator runs needed to pin the arithmetic.
        let point = |offered_tps, throughput_tps| LoadPoint {
            offered_tps,
            metrics: RunMetrics {
                throughput_tps,
                ..Default::default()
            },
        };
        let mut points = Vec::new();
        for protocol in ProtocolKind::ALL {
            // The largest batch size wins the comparison even when a smaller
            // one happens to measure faster — the delta must describe the
            // documented configuration, not the best of N.
            for (size, tps) in [(1, 100.0), (8, 120.0), (16, 110.0)] {
                points.push(((protocol, size), point(200.0, tps)));
                points.push(((protocol, size), point(100.0, 1.0)));
            }
        }
        let deltas = batch_throughput_delta(&points);
        assert_eq!(deltas.len(), 4);
        for (_, unbatched, batched, pct) in deltas {
            assert_eq!(unbatched, 100.0);
            assert_eq!(batched, 110.0);
            assert!((pct - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn batch_ablation_grids_cover_both_modes() {
        let (loads, sizes) = batch_grid(true);
        assert_eq!(sizes, [1, 8]);
        assert_eq!(loads.len(), 1);
        let (loads, sizes) = batch_grid(false);
        assert!(sizes.contains(&1) && sizes.contains(&8));
        assert!(loads.len() >= 2);
    }
}
