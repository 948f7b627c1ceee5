//! Ready-made experiment grids reproducing every figure of the paper's
//! evaluation (Figures 7–13) plus the ablations called out in `DESIGN.md`.
//!
//! Each `figure*` function returns one [`FigureSeries`] per curve of the
//! corresponding figure; the `figures` driver (`crates/figures`) prints them
//! as tables, one row per figure (`figures list`).

use crate::experiment::{ExperimentSpec, LoadPoint, RidesharingConfig, RunMetrics};
use crate::par::parallel_map;
use crate::protocol::ProtocolKind;
use crate::scenarios::TimeoutPolicy;
use crate::timeline::RunTimeline;
use saguaro_hierarchy::Placement;
use saguaro_net::FaultSchedule;
use saguaro_types::{
    DomainId, Duration, FailureModel, LivenessConfig, NodeId, PopulationConfig, SimTime,
    TraceConfig,
};

/// One curve of a figure: a label plus its load sweep.
#[derive(Clone, Debug)]
pub struct FigureSeries {
    /// Curve label as it appears in the paper's legend.
    pub label: String,
    /// Measured points.
    pub points: Vec<LoadPoint>,
}

/// Options controlling how exhaustively the figures are regenerated.
#[derive(Clone, Debug)]
pub struct FigureOptions {
    /// Offered loads to sweep (tx/s).
    pub loads: Vec<f64>,
    /// Use the abbreviated measurement windows (CI / smoke runs).
    pub quick: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FigureOptions {
    fn default() -> Self {
        Self {
            loads: vec![1_000.0, 2_000.0, 4_000.0, 8_000.0, 12_000.0],
            quick: false,
            seed: 42,
        }
    }
}

impl FigureOptions {
    /// A fast configuration for tests and the `figures` driver's `--quick`.
    pub fn smoke() -> Self {
        Self {
            loads: vec![600.0, 1_200.0],
            quick: true,
            seed: 42,
        }
    }
}

fn spec(protocol: ProtocolKind, options: &FigureOptions) -> ExperimentSpec {
    let mut s = ExperimentSpec::new(protocol);
    s.seed = options.seed;
    if options.quick {
        s = s.quick();
    }
    s
}

/// Sweeps every `(series, load)` cell of a figure as one flat parallel grid.
///
/// A figure's curves are independent runs just like its load points, so
/// flattening `series × loads` before fanning out keeps all cores busy even
/// when the load grid is short (e.g. smoke mode's two loads).  Results are
/// regrouped in series order, each series' points in load order — the same
/// output a nested sequential sweep would produce.
fn sweep_series(entries: Vec<(String, ExperimentSpec)>, loads: &[f64]) -> Vec<FigureSeries> {
    let jobs: Vec<ExperimentSpec> = entries
        .iter()
        .flat_map(|(_, s)| {
            loads.iter().map(|l| {
                let mut cell = s.clone();
                cell.offered_load_tps = *l;
                cell
            })
        })
        .collect();
    let mut metrics = parallel_map(&jobs, |s| s.run()).into_iter();
    entries
        .into_iter()
        .map(|(label, _)| FigureSeries {
            label,
            points: loads
                .iter()
                .map(|l| LoadPoint {
                    offered_tps: *l,
                    metrics: metrics.next().expect("one result per grid cell"),
                })
                .collect(),
        })
        .collect()
}

/// The six curves every cross-domain figure plots: AHL, SharPer, the
/// coordinator-based protocol and the optimistic protocol at 10 / 50 / 90 %
/// contention.
fn cross_domain_curves(
    options: &FigureOptions,
    configure: impl Fn(ExperimentSpec) -> ExperimentSpec,
) -> Vec<FigureSeries> {
    let protos = [
        (ProtocolKind::Ahl, "AHL", None),
        (ProtocolKind::Sharper, "SharPer", None),
        (ProtocolKind::SaguaroCoordinator, "Coordinator", None),
        (ProtocolKind::SaguaroOptimistic, "Opt-10%C", Some(0.10)),
        (ProtocolKind::SaguaroOptimistic, "Opt-50%C", Some(0.50)),
        (ProtocolKind::SaguaroOptimistic, "Opt-90%C", Some(0.90)),
    ];
    let entries = protos
        .into_iter()
        .map(|(proto, label, contention)| {
            let mut s = configure(spec(proto, options));
            if let Some(c) = contention {
                s = s.contention(c);
            }
            (label.to_string(), s)
        })
        .collect();
    sweep_series(entries, &options.loads)
}

/// Figure 7: cross-domain transactions, crash-only domains, nearby regions.
/// `cross_pct` selects the sub-figure: 0.2 (a), 0.8 (b) or 1.0 (c).
pub fn figure7(cross_pct: f64, options: &FigureOptions) -> Vec<FigureSeries> {
    cross_domain_curves(options, |s| s.cross_domain(cross_pct))
}

/// Figure 8: cross-domain transactions, Byzantine domains, nearby regions.
pub fn figure8(cross_pct: f64, options: &FigureOptions) -> Vec<FigureSeries> {
    cross_domain_curves(options, |s| s.byzantine().cross_domain(cross_pct))
}

/// Figures 9 (nearby) and 11 (wide area): transactions initiated by mobile
/// devices, one curve per mobile percentage.
pub fn figure_mobile(
    placement: Placement,
    model: FailureModel,
    options: &FigureOptions,
) -> Vec<FigureSeries> {
    let entries = [0.0, 0.2, 0.8, 1.0]
        .iter()
        .map(|mobile| {
            let mut s = spec(ProtocolKind::SaguaroCoordinator, options)
                .placed(placement)
                .mobile(*mobile);
            if model == FailureModel::Byzantine {
                s = s.byzantine();
            }
            (format!("{}%Mobile", (mobile * 100.0) as u32), s)
        })
        .collect();
    sweep_series(entries, &options.loads)
}

/// Figure 9: mobile devices over nearby regions.
pub fn figure9(model: FailureModel, options: &FigureOptions) -> Vec<FigureSeries> {
    figure_mobile(Placement::NearbyRegions, model, options)
}

/// Figure 10: scalability over wide-area domains (90 % internal / 10 %
/// cross-domain, seven far-apart regions).
pub fn figure10(model: FailureModel, options: &FigureOptions) -> Vec<FigureSeries> {
    cross_domain_curves(options, |s| {
        let s = s.placed(Placement::WideArea).cross_domain(0.10);
        if model == FailureModel::Byzantine {
            s.byzantine()
        } else {
            s
        }
    })
}

/// Figure 11: mobile devices over the wide-area placement.
pub fn figure11(model: FailureModel, options: &FigureOptions) -> Vec<FigureSeries> {
    figure_mobile(Placement::WideArea, model, options)
}

/// Figures 12 and 13: fault-tolerance scalability — all protocols, single
/// region, 90/10 workload, larger domains (`f` = 2 or 4).
pub fn figure_ft(model: FailureModel, faults: usize, options: &FigureOptions) -> Vec<FigureSeries> {
    cross_domain_curves(options, |s| {
        let s = s
            .placed(Placement::SingleRegion)
            .cross_domain(0.10)
            .with_faults(faults);
        if model == FailureModel::Byzantine {
            s.byzantine()
        } else {
            s
        }
    })
}

/// Ablation: LCA coordinator versus a fixed root coordinator.  The AHL
/// baseline *is* the fixed-root configuration over the same substrate, so the
/// ablation compares `Coordinator` against `AHL` at 100 % cross-domain.
pub fn ablation_lca_vs_root(options: &FigureOptions) -> Vec<FigureSeries> {
    let entries = [
        (ProtocolKind::SaguaroCoordinator, "LCA coordinator"),
        (ProtocolKind::Ahl, "Fixed root coordinator"),
    ]
    .iter()
    .map(|(proto, label)| (label.to_string(), spec(*proto, options).cross_domain(1.0)))
    .collect();
    sweep_series(entries, &options.loads)
}

/// Ablation: how the contention knob affects the optimistic protocol's abort
/// behaviour (complement of the Opt-x%C curves).
pub fn ablation_contention(options: &FigureOptions) -> Vec<FigureSeries> {
    let entries = [0.1, 0.5, 0.9]
        .iter()
        .map(|c| {
            (
                format!("contention {}%", (c * 100.0) as u32),
                spec(ProtocolKind::SaguaroOptimistic, options)
                    .cross_domain(0.8)
                    .contention(*c),
            )
        })
        .collect();
    sweep_series(entries, &options.loads)
}

/// Batch sizes and offered loads exercised by [`ablation_batch`]: the loads
/// sit at and beyond the unbatched pipeline's saturation point (~180 k tx/s
/// committed on the figure-7 topology), where consensus message cost — the
/// thing batching amortises — is the binding constraint.
fn batch_ablation_grid(quick: bool) -> (Vec<f64>, Vec<usize>) {
    if quick {
        (vec![220_000.0], vec![1, 8])
    } else {
        (vec![160_000.0, 220_000.0], vec![1, 8, 16])
    }
}

/// Ablation: consensus block size (request batching) on the figure-7
/// topology (crash-only domains, nearby regions), internal transactions at
/// saturation offered load.  One series per `(stack, max_batch)` pair, all
/// four stacks, so the batched-vs-unbatched delta is apples-to-apples across
/// Saguaro and the baselines.  `options.loads` is ignored: the ablation
/// picks saturation loads itself: at and beyond the unbatched pipeline's
/// saturation point.
pub fn ablation_batch(options: &FigureOptions) -> Vec<FigureSeries> {
    let (loads, sizes) = batch_ablation_grid(options.quick);
    let mut entries = Vec::new();
    for proto in ProtocolKind::ALL {
        for &b in &sizes {
            entries.push((
                format!("{} b={b}", proto.label()),
                spec(proto, options).tune(|t| t.batch_size(b)),
            ));
        }
    }
    sweep_series(entries, &loads)
}

/// Per-stack committed-throughput delta of the largest batch size over
/// `b=1`, measured at the highest load of a [`ablation_batch`] result:
/// `(stack label, b=1 tput, largest-batch tput, delta %)`.
pub fn batch_throughput_delta(series: &[FigureSeries]) -> Vec<(String, f64, f64, f64)> {
    let mut out = Vec::new();
    for proto in ProtocolKind::ALL {
        let prefix = format!("{} b=", proto.label());
        // `(max_batch, throughput at the highest load)` per series of this
        // stack, keyed by the numeric suffix of the label.
        let mut sized: Vec<(usize, f64)> = series
            .iter()
            .filter_map(|s| {
                let size: usize = s.label.strip_prefix(&prefix)?.parse().ok()?;
                let tput = s.points.last()?.metrics.throughput_tps;
                Some((size, tput))
            })
            .collect();
        sized.sort_by_key(|(size, _)| *size);
        let Some(&(1, unbatched)) = sized.first() else {
            continue;
        };
        let Some(&(size, batched)) = sized.last() else {
            continue;
        };
        if size == 1 {
            continue; // no batched configuration to compare against
        }
        let delta_pct = if unbatched > 0.0 {
            100.0 * (batched - unbatched) / unbatched
        } else {
            0.0
        };
        out.push((proto.label().to_string(), unbatched, batched, delta_pct));
    }
    out
}

/// One protocol stack's behaviour across a crash-and-recover schedule.
#[derive(Clone, Debug)]
pub struct FaultSeries {
    /// Stack label (`-BFT` suffix marks the PBFT-domain variant).
    pub label: String,
    /// When the scripted crash hits (virtual ms).
    pub crash_ms: f64,
    /// When the crashed replica recovers (virtual ms).
    pub recover_ms: f64,
    /// The traced run's bucketed time series (throughput, latency
    /// quantiles, in-flight depth and view changes per bucket).
    pub timeline: RunTimeline,
    /// View changes observed across the deployment (leader crash ⇒ ≥ 1 in
    /// the victim domain).
    pub view_changes: u64,
    /// The run's standard summary metrics (the measurement window spans the
    /// outage, so the dip is folded into these).
    pub metrics: crate::experiment::RunMetrics,
}

/// The replica whose crash the fault figure scripts: the view-0 primary of
/// the first height-1 domain.
pub fn fault_victim() -> NodeId {
    NodeId::new(DomainId::new(1, 0), 0)
}

/// Fault-injection timeline on the figure-7 topology: every stack runs the
/// same crash-and-recover schedule — the view-0 primary of one height-1
/// domain crashes a quarter into the measurement window and recovers at 70 %
/// of it — and reports committed throughput over time.  Paxos domains are
/// exercised by the four crash-model stacks; a fifth series reruns the
/// coordinator stack over Byzantine domains so the PBFT view change is
/// driven too, and a sixth runs an 80 %-mobile workload so the crash lands
/// on a domain that is mid-`StateQuery`/`StateMsg` hand-offs.  Every run is
/// traced, which observes and moves nothing, so each series carries its
/// [`RunTimeline`].
pub fn faults(options: &FigureOptions) -> Vec<FaultSeries> {
    let load = if options.quick { 1_200.0 } else { 4_000.0 };
    let entries: Vec<(String, ExperimentSpec, Duration, Duration)> = ProtocolKind::ALL
        .iter()
        .map(|proto| (proto.label().to_string(), spec(*proto, options).load(load)))
        .chain(std::iter::once((
            "Coordinator-BFT".to_string(),
            spec(ProtocolKind::SaguaroCoordinator, options)
                .byzantine()
                .load(load),
        )))
        .chain(std::iter::once((
            "Coordinator-Mobile".to_string(),
            spec(ProtocolKind::SaguaroCoordinator, options)
                .mobile(0.8)
                .load(load),
        )))
        .map(|(label, s)| {
            // Computed once and carried with the entry so the scheduled
            // instants and the reported crash_ms/recover_ms can never drift
            // apart.
            let crash_at = s.warmup + Duration::from_micros(s.measure.as_micros() / 4);
            let recover_at = s.warmup + Duration::from_micros(s.measure.as_micros() * 7 / 10);
            let plan = FaultSchedule::none()
                .crash_at(SimTime::ZERO + crash_at, fault_victim())
                .recover_at(SimTime::ZERO + recover_at, fault_victim());
            let traced = s.fault_plan(plan).trace(TraceConfig::on());
            (label, traced, crash_at, recover_at)
        })
        .collect();
    let artifacts = parallel_map(&entries, |(_, s, _, _)| s.run_collecting());
    entries
        .into_iter()
        .zip(artifacts)
        .map(|((label, _, crash_at, recover_at), art)| FaultSeries {
            label,
            crash_ms: crash_at.as_millis_f64(),
            recover_ms: recover_at.as_millis_f64(),
            view_changes: art.harvest.view_changes(),
            timeline: art.timeline.expect("the fault specs are traced"),
            metrics: art.metrics,
        })
        .collect()
}

/// Renders fault-timeline series as plain text: the title, then one
/// [`RunTimeline::table`] per stack headed by its crash schedule.
pub fn render_fault_table(title: &str, series: &[FaultSeries]) -> String {
    let mut out = format!("# {title}\n");
    for s in series {
        out.push_str(&s.timeline.table(&format!(
            "{} — crash {:.0} ms, recover {:.0} ms, view changes {}, \
             window throughput {:.0} tx/s",
            s.label, s.crash_ms, s.recover_ms, s.view_changes, s.metrics.throughput_tps
        )));
    }
    out
}

// ---------------------------------------------------------------------------
// Recovery figure: catch-up time and transfer volume vs outage length
// ---------------------------------------------------------------------------

/// One outage length of the recovery figure.
#[derive(Clone, Debug)]
pub struct RecoveryPoint {
    /// How long the victim replica was down (virtual ms).
    pub outage_ms: f64,
    /// Catch-up time: from the scripted recovery instant to the victim's
    /// last applied state-transfer reply (virtual ms).  `-1` when the victim
    /// never caught up (a regression the `recovery` row gates against).
    pub recovery_ms: f64,
    /// Member commands the victim received through state transfer.
    pub transferred_commands: u64,
    /// Wire bytes of the state-transfer replies the victim applied.
    pub transferred_bytes: u64,
    /// Delivery frontier the victim reached by the end of the run.
    pub victim_frontier: u64,
    /// Delivery frontier of a healthy replica of the same domain.
    pub healthy_frontier: u64,
    /// Entries a view-change vote from the healthy replica would carry
    /// (bounded by the stable checkpoint).
    pub vote_entries: usize,
    /// Entries the same vote carried before this subsystem existed — the
    /// full history, i.e. the healthy frontier.
    pub vote_entries_unbounded: u64,
    /// The healthy replica's stable checkpoint at run end.
    pub stable_checkpoint: u64,
    /// Standard summary metrics of the run.
    pub metrics: RunMetrics,
}

impl RecoveryPoint {
    /// Modelled wire size of a bounded view-change vote (96-byte header plus
    /// ~264 bytes per carried single-command entry, the Paxos wire model).
    pub fn vote_bytes(&self) -> u64 {
        96 + 264 * self.vote_entries as u64
    }

    /// Modelled wire size the vote would have had without checkpointing.
    pub fn vote_bytes_unbounded(&self) -> u64 {
        96 + 264 * self.vote_entries_unbounded
    }
}

/// One protocol configuration swept over outage lengths.
#[derive(Clone, Debug)]
pub struct RecoverySeries {
    /// Series label.
    pub label: String,
    /// Checkpoint announcement interval the series ran with.
    pub checkpoint_interval: u64,
    /// One point per outage length.
    pub points: Vec<RecoveryPoint>,
}

/// The replica whose outage the recovery figure scripts: a *backup* of the
/// first height-1 domain, so the domain keeps committing under its primary
/// while the victim falls behind — pure catch-up, no view change needed.
pub fn recovery_victim() -> NodeId {
    NodeId::new(DomainId::new(1, 0), 1)
}

/// Recovery figure: a backup replica of one height-1 domain crashes and
/// recovers after an increasing outage; with checkpointing active its log
/// gap cannot be filled by re-accepts (the slots are garbage-collected
/// domain-wide), so the measured recovery time is the state-transfer
/// catch-up — and it should scale with the outage length, as should the
/// transferred volume.  One series over Paxos domains, one over PBFT.
pub fn recovery(options: &FigureOptions) -> Vec<RecoverySeries> {
    let outages_ms: Vec<u64> = if options.quick {
        vec![60, 150]
    } else {
        vec![50, 100, 200, 300]
    };
    let interval = 16;
    let load = if options.quick { 1_200.0 } else { 2_400.0 };
    let entries: Vec<(String, ExperimentSpec, u64)> =
        [("Coordinator", false), ("Coordinator-BFT", true)]
            .iter()
            .flat_map(|(label, byzantine)| {
                outages_ms.iter().map(move |outage| {
                    let mut s = spec(ProtocolKind::SaguaroCoordinator, options)
                        .load(load)
                        .tune(|t| t.checkpoint_every(interval));
                    if *byzantine {
                        s = s.byzantine();
                    }
                    let crash_at = s.warmup + Duration::from_micros(s.measure.as_micros() / 4);
                    let recover_at = crash_at + Duration::from_millis(*outage);
                    let plan = FaultSchedule::none()
                        .crash_at(SimTime::ZERO + crash_at, recovery_victim())
                        .recover_at(SimTime::ZERO + recover_at, recovery_victim());
                    (label.to_string(), s.fault_plan(plan), *outage)
                })
            })
            .collect();
    let artifacts = parallel_map(&entries, |(_, s, _)| s.run_collecting());
    let mut series: Vec<RecoverySeries> = Vec::new();
    for ((label, s, outage), art) in entries.into_iter().zip(artifacts) {
        let recover_at = s.warmup
            + Duration::from_micros(s.measure.as_micros() / 4)
            + Duration::from_millis(outage);
        let victim = art
            .harvest
            .node(recovery_victim())
            .expect("victim harvested");
        let healthy = art
            .harvest
            .node(NodeId::new(recovery_victim().domain, 2))
            .expect("healthy peer harvested");
        let recovery_ms = victim
            .caught_up_at
            .map(|t| t.since(SimTime::ZERO + recover_at).as_millis_f64())
            .unwrap_or(-1.0);
        let point = RecoveryPoint {
            outage_ms: outage as f64,
            recovery_ms,
            transferred_commands: victim.state_transfer_commands,
            transferred_bytes: victim.state_transfer_bytes,
            victim_frontier: victim.last_delivered,
            healthy_frontier: healthy.last_delivered,
            vote_entries: healthy.vote_entries,
            vote_entries_unbounded: healthy.last_delivered,
            stable_checkpoint: healthy.stable_checkpoint,
            metrics: art.metrics,
        };
        match series.iter_mut().find(|s| s.label == label) {
            Some(existing) => existing.points.push(point),
            None => series.push(RecoverySeries {
                label,
                checkpoint_interval: interval,
                points: vec![point],
            }),
        }
    }
    series
}

/// Renders recovery series as a plain-text table, including the vote-size
/// bound the checkpoint buys (before/after bytes).
pub fn render_recovery_table(title: &str, series: &[RecoverySeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    for s in series {
        out.push_str(&format!(
            "{} — checkpoint interval {}\n",
            s.label, s.checkpoint_interval
        ));
        out.push_str(&format!(
            "{:>10} {:>12} {:>14} {:>14} {:>12} {:>14} {:>16}\n",
            "outage_ms",
            "recovery_ms",
            "xfer_commands",
            "xfer_bytes",
            "vote_entries",
            "vote_bytes",
            "unbounded_bytes"
        ));
        for p in &s.points {
            out.push_str(&format!(
                "{:>10.0} {:>12.1} {:>14} {:>14} {:>12} {:>14} {:>16}\n",
                p.outage_ms,
                p.recovery_ms,
                p.transferred_commands,
                p.transferred_bytes,
                p.vote_entries,
                p.vote_bytes(),
                p.vote_bytes_unbounded()
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Liveness-timeout sweep: false suspicions vs recovery time
// ---------------------------------------------------------------------------

/// One `(suspicion timers, placement)` cell of the timeout sweep.
#[derive(Clone, Debug)]
pub struct TimeoutPoint {
    /// The swept suspicion timers: a fixed window, or the adaptive policy.
    pub liveness: LivenessConfig,
    /// View changes observed in a *failure-free* run with timers armed —
    /// every one of them is a false suspicion.
    pub false_suspicions: u64,
    /// False suspicions per second of measured run time.
    pub false_suspicion_rate: f64,
    /// In the companion *leader-crash* run: time from the crash to the
    /// first commit of a transaction submitted to the *crashed domain*
    /// after it (ms; `-1` when the domain never recovered within the run).
    pub recovery_ms: f64,
    /// Committed throughput of the crash run (the cost of over-suspicion
    /// shows up here too).
    pub crash_run_tps: f64,
}

impl TimeoutPoint {
    /// The row label: `fixed-<ms>ms`, or `adaptive`.
    pub fn policy(&self) -> String {
        if self.liveness.adaptive {
            return "adaptive".to_string();
        }
        let ms = self.liveness.progress_timeout.as_micros() / 1_000;
        format!("fixed-{ms}ms")
    }
}

/// One placement's sweep over suspicion timeouts.
#[derive(Clone, Debug)]
pub struct TimeoutSeries {
    /// Placement label (single-region / nearby / wide-area).
    pub label: String,
    /// One point per swept timeout.
    pub points: Vec<TimeoutPoint>,
}

/// Sweeps fixed suspicion windows ([`LivenessConfig::progress_timeout`]),
/// then [`TimeoutPolicy::Adaptive`], against the three placements' RTTs:
/// too small a window fires false suspicions (view changes with no fault
/// anywhere, paid as churn); too large a window slows crash recovery.  Each
/// cell runs twice — failure-free with timers armed (false-suspicion count)
/// and with a scripted leader crash (recovery time).
pub fn timeout_sweep(options: &FigureOptions) -> Vec<TimeoutSeries> {
    let timeouts_ms: &[u64] = if options.quick {
        &[10, 60]
    } else {
        &[5, 10, 20, 40, 60, 120]
    };
    let policies: Vec<LivenessConfig> = timeouts_ms
        .iter()
        .map(|ms| LivenessConfig::with_timeout(Duration::from_millis(*ms)))
        .chain([TimeoutPolicy::Adaptive.liveness()])
        .collect();
    let placements = [
        ("single-region", Placement::SingleRegion),
        ("nearby-regions", Placement::NearbyRegions),
        ("wide-area", Placement::WideArea),
    ];
    let load = if options.quick { 800.0 } else { 2_000.0 };
    // (placement label, timers, crash?) grid, flattened for the parallel map.
    let entries: Vec<(String, ExperimentSpec, LivenessConfig, bool)> = placements
        .iter()
        .flat_map(|(label, placement)| {
            policies.iter().flat_map(move |liveness| {
                [false, true].into_iter().map(move |crash| {
                    let mut s = spec(ProtocolKind::SaguaroCoordinator, options)
                        .placed(*placement)
                        .load(load)
                        .tune(|t| t.liveness(*liveness));
                    if crash {
                        let crash_at = s.warmup + Duration::from_micros(s.measure.as_micros() / 4);
                        s = s.fault_plan(
                            FaultSchedule::none()
                                .crash_at(SimTime::ZERO + crash_at, fault_victim()),
                        );
                    }
                    (label.to_string(), s, *liveness, crash)
                })
            })
        })
        .collect();
    let artifacts = parallel_map(&entries, |(_, s, _, _)| s.run_collecting());
    let mut series: Vec<TimeoutSeries> = placements
        .iter()
        .map(|(label, _)| TimeoutSeries {
            label: label.to_string(),
            points: Vec::new(),
        })
        .collect();
    // Entries come in (placement, timers, [free, crash]) order.
    for chunk in entries.iter().zip(artifacts).collect::<Vec<_>>().chunks(2) {
        let ((label, s, liveness, crash_a), free_art) = &chunk[0];
        let ((_, _, _, crash_b), crash_art) = &chunk[1];
        debug_assert!(!*crash_a && *crash_b);
        let crash_at = s.warmup + Duration::from_micros(s.measure.as_micros() / 4);
        // Only the crashed domain's own clients measure its recovery: the
        // three healthy domains answer throughout.  Clients are assigned
        // round-robin over the four edge domains, and the scripted victim is
        // the domain-0 primary.
        let victim_domain_client = |c: &saguaro_loadgen::CompletedTx| c.client.0.is_multiple_of(4);
        let recovery_ms = crash_art
            .completions
            .iter()
            .filter(|c| {
                c.committed && victim_domain_client(c) && c.submitted_at >= SimTime::ZERO + crash_at
            })
            .map(|c| (c.submitted_at + c.latency).since(SimTime::ZERO + crash_at))
            .min()
            .map(|d| d.as_millis_f64())
            .unwrap_or(-1.0);
        let point = TimeoutPoint {
            liveness: *liveness,
            false_suspicions: free_art.harvest.view_changes(),
            false_suspicion_rate: free_art.harvest.view_changes() as f64 / s.measure.as_secs_f64(),
            recovery_ms,
            crash_run_tps: crash_art.metrics.throughput_tps,
        };
        series
            .iter_mut()
            .find(|ts| ts.label == *label)
            .expect("placement series exists")
            .points
            .push(point);
    }
    series
}

/// Renders the timeout sweep as a plain-text table.
pub fn render_timeout_table(title: &str, series: &[TimeoutSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    for s in series {
        out.push_str(&format!("{}\n", s.label));
        out.push_str(&format!(
            "{:<14} {:>17} {:>20} {:>12} {:>14}\n",
            "policy", "false_suspicions", "false_susp_per_sec", "recovery_ms", "crash_tps"
        ));
        for p in &s.points {
            out.push_str(&format!(
                "{:<14} {:>17} {:>20.2} {:>12.1} {:>14.0}\n",
                p.policy(),
                p.false_suspicions,
                p.false_suspicion_rate,
                p.recovery_ms,
                p.crash_run_tps
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Population-scale load generation: aggregate clients over wide topologies
// ---------------------------------------------------------------------------

/// One modeled-population size of the population-scale sweep.
#[derive(Clone, Debug)]
pub struct PopulationPoint {
    /// Modeled users across the whole deployment.
    pub users: u64,
    /// Height-1 domains of the (2, fanout) topology the point ran on.
    pub domains: usize,
    /// Throughput / latency quantiles as reported by the streaming
    /// histograms (same [`crate::experiment::RunMetrics`] shape as every
    /// other figure).
    pub metrics: crate::experiment::RunMetrics,
    /// Transactions the aggregate clients submitted (open loop, so this can
    /// exceed `committed` when the system saturates).
    pub submitted: u64,
    /// Completed transactions whose latency was recorded in the histograms.
    pub sampled: u64,
    /// High-water mark of the client-side in-flight map — the only
    /// per-transaction state the aggregate model keeps.  O(1) in the
    /// transaction count by construction; the `population` row enforces it.
    pub peak_inflight: u64,
    /// High-water mark of the simulator's event queue.
    pub peak_pending_events: u64,
    /// Total events the simulator processed for this point.
    pub events_processed: u64,
    /// Events per committed transaction (engine cost per unit of work).
    pub events_per_tx: f64,
    /// Wall-clock time of the run (host milliseconds, not virtual time).
    pub wall_ms: f64,
    /// Resident set size after the run (`VmRSS`, KiB; 0 where unavailable).
    pub resident_kb: u64,
}

/// The `(users, fanout)` grid of the population sweep: modeled users grow
/// 10³ → 10⁵ (10⁶ in full mode) while the topology widens to 128 height-1
/// domains, so the largest points stress both the aggregate arrival
/// processes and wide fan-out deployment.
pub fn population_grid(quick: bool) -> Vec<(u64, usize)> {
    let mut grid = vec![(1_000, 16), (10_000, 64), (100_000, 128)];
    if !quick {
        grid.push((1_000_000, 128));
    }
    grid
}

/// Population-scale sweep: one aggregate-client run per
/// [`population_grid`] cell, reporting throughput, streaming-histogram
/// latency quantiles and engine cost.  Points run sequentially — unlike the
/// figure sweeps there is no parallel fan-out here, because each point's
/// wall-clock and resident-set measurements must not include neighbours.
pub fn population(options: &FigureOptions) -> Vec<PopulationPoint> {
    population_grid(options.quick)
        .into_iter()
        .map(|(users, fanout)| population_point(users, fanout, options))
        .collect()
}

fn population_point(users: u64, fanout: usize, options: &FigureOptions) -> PopulationPoint {
    let s = spec(ProtocolKind::SaguaroCoordinator, options)
        .shaped(2, fanout)
        .aggregate(PopulationConfig::with_users(users));
    let started = std::time::Instant::now();
    let art = s.run_collecting();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let tally = art
        .population
        .expect("aggregate runs always carry a population tally");
    let events_per_tx = if art.metrics.committed > 0 {
        art.events_processed as f64 / art.metrics.committed as f64
    } else {
        0.0
    };
    PopulationPoint {
        users,
        domains: fanout,
        metrics: art.metrics,
        submitted: tally.submitted,
        sampled: tally.sampled,
        peak_inflight: tally.peak_inflight as u64,
        peak_pending_events: art.peak_pending_events,
        events_processed: art.events_processed,
        events_per_tx,
        wall_ms,
        resident_kb: resident_kb(),
    }
}

/// Current resident set size in KiB (`VmRSS` from `/proc/self/status`);
/// 0 on platforms without procfs.
pub fn resident_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmRSS:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Renders the population sweep as a plain-text table.
pub fn render_population_table(title: &str, points: &[PopulationPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!(
        "{:>9} {:>8} {:>12} {:>14} {:>10} {:>10} {:>10} {:>13} {:>12} {:>10} {:>9}\n",
        "users",
        "domains",
        "offered_tps",
        "throughput_tps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "events_per_tx",
        "peak_inflight",
        "wall_ms",
        "rss_mb"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>9} {:>8} {:>12.0} {:>14.0} {:>10.3} {:>10.3} {:>10.3} {:>13.1} {:>12} {:>10.0} {:>9.0}\n",
            p.users,
            p.domains,
            p.metrics.offered_tps,
            p.metrics.throughput_tps,
            p.metrics.p50_latency_ms,
            p.metrics.p95_latency_ms,
            p.metrics.p99_latency_ms,
            p.events_per_tx,
            p.peak_inflight,
            p.wall_ms,
            p.resident_kb as f64 / 1024.0
        ));
    }
    out
}

/// Workload comparison: the micropayment and ridesharing applications under
/// the same protocol stack and engine.  Not a paper figure — it demonstrates
/// the `Workload` extension point and sanity-checks that application choice,
/// not the engine, drives the numbers.
pub fn workload_comparison(options: &FigureOptions) -> Vec<FigureSeries> {
    let base = spec(ProtocolKind::SaguaroCoordinator, options);
    let entries = vec![
        ("micropayment".to_string(), base.clone()),
        (
            "ridesharing".to_string(),
            base.ridesharing(RidesharingConfig::default()),
        ),
    ];
    sweep_series(entries, &options.loads)
}

/// Renders a set of series as a plain-text table (one row per load point).
pub fn render_table(title: &str, series: &[FigureSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!(
        "{:<22} {:>12} {:>14} {:>12} {:>12} {:>10}\n",
        "series", "offered_tps", "throughput_tps", "avg_lat_ms", "p95_lat_ms", "aborted"
    ));
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{:<22} {:>12.0} {:>14.0} {:>12.2} {:>12.2} {:>10}\n",
                s.label,
                p.offered_tps,
                p.metrics.throughput_tps,
                p.metrics.avg_latency_ms,
                p.metrics.p95_latency_ms,
                p.metrics.aborted
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_figure7_has_six_series() {
        let series = figure7(0.2, &FigureOptions::smoke());
        assert_eq!(series.len(), 6);
        assert!(series.iter().all(|s| s.points.len() == 2));
        let table = render_table("fig7a", &series);
        assert!(table.contains("Coordinator") && table.contains("AHL"));
    }

    #[test]
    fn smoke_mobile_figure_has_four_series() {
        let series = figure9(FailureModel::Crash, &FigureOptions::smoke());
        assert_eq!(series.len(), 4);
        assert!(series.iter().any(|s| s.label == "100%Mobile"));
    }

    #[test]
    fn batch_delta_reads_the_highest_load_point() {
        // Synthetic series: no simulator runs needed to pin the arithmetic.
        let series_for = |label: &str, tput: f64| FigureSeries {
            label: label.to_string(),
            points: vec![
                LoadPoint {
                    offered_tps: 100.0,
                    metrics: crate::experiment::RunMetrics {
                        throughput_tps: 1.0,
                        ..Default::default()
                    },
                },
                LoadPoint {
                    offered_tps: 200.0,
                    metrics: crate::experiment::RunMetrics {
                        throughput_tps: tput,
                        ..Default::default()
                    },
                },
            ],
        };
        let mut series = Vec::new();
        for proto in ProtocolKind::ALL {
            series.push(series_for(&format!("{} b=1", proto.label()), 100.0));
            series.push(series_for(&format!("{} b=8", proto.label()), 120.0));
            // The largest batch size wins the comparison even when a smaller
            // one happens to measure faster — the delta must describe the
            // documented configuration, not the best of N.
            series.push(series_for(&format!("{} b=16", proto.label()), 110.0));
        }
        let deltas = batch_throughput_delta(&series);
        assert_eq!(deltas.len(), 4);
        for (label, unbatched, batched, pct) in deltas {
            assert!(!label.is_empty());
            assert_eq!(unbatched, 100.0);
            assert_eq!(batched, 110.0);
            assert!((pct - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn population_grid_reaches_a_hundred_plus_domains() {
        let quick = population_grid(true);
        assert!(
            quick
                .iter()
                .any(|(users, domains)| *users == 100_000 && *domains >= 100),
            "quick mode must still cover the 10^5-user, 100+-domain point"
        );
        let full = population_grid(false);
        assert!(full.iter().any(|(users, _)| *users == 1_000_000));
        assert!(full.len() > quick.len());
    }

    #[test]
    fn population_smoke_point_reports_engine_cost() {
        let options = FigureOptions::smoke();
        let point = population_point(2_000, 8, &options);
        assert_eq!(point.users, 2_000);
        assert_eq!(point.domains, 8);
        assert!(point.metrics.committed > 0);
        assert!(point.events_per_tx > 0.0);
        assert!(point.peak_pending_events > 0);
        assert!(point.submitted >= point.metrics.committed);
        let table = render_population_table("population", &[point]);
        assert!(table.contains("events_per_tx"));
    }

    #[test]
    fn batch_ablation_grids_cover_both_modes() {
        let (loads, sizes) = batch_ablation_grid(true);
        assert_eq!(sizes, vec![1, 8]);
        assert_eq!(loads.len(), 1);
        let (loads, sizes) = batch_ablation_grid(false);
        assert!(sizes.contains(&1) && sizes.contains(&8));
        assert!(loads.len() >= 2);
    }
}
