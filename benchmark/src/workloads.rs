//! The four benchmark workloads: each a fixed list of cells, each cell one
//! [`ExperimentSpec`] built from the run's seed.
//!
//! Every cell runs on `EngineMode::Sequential` (the spec default), so one
//! repetition uses one thread; nothing here goes through `parallel_map`.
//! All cells are open loop on the virtual clock: a client submits when its
//! arrival timer fires, so the generator is never late and `submitted_at`
//! is the request's due time.

use saguaro_net::FaultSchedule;
use saguaro_sim::{ExperimentSpec, ProtocolKind};
use saguaro_types::{DomainId, Duration, NodeId, PopulationConfig, SimTime};

/// One of the four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure-7(a)/figure-9 points over crash-only domains.
    PaperCft,
    /// Coordinator over PBFT domains at three offered rates.
    BftLadder,
    /// 200 000 modeled users on a `(2, 128)` tree.
    Wide128Pop,
    /// Batched, checkpointed, pruned runs across a primary crash.
    CrashPruned,
}

/// One cell of a workload.
pub struct Cell {
    /// Name used in `cell.<name>.*` metrics and in failure messages.
    pub name: &'static str,
    /// The experiment the cell runs.
    pub spec: ExperimentSpec,
    /// Whether the cell's commits count towards `commit_tps`.
    pub throughput: bool,
    /// Whether the cell's latencies are pooled into `commit_p50_ms`.
    pub latency: bool,
    /// Whether the cell's latencies are pooled into `commit_tail_ms`: the
    /// latency cells, except on `crash_pruned`.
    pub tail: bool,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCft,
        Workload::BftLadder,
        Workload::Wide128Pop,
        Workload::CrashPruned,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCft => "paper_cft",
            Workload::BftLadder => "bft_ladder",
            Workload::Wide128Pop => "wide128_pop",
            Workload::CrashPruned => "crash_pruned",
        }
    }

    /// Parses a workload name; anything else is an error, never a default.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (known: {})", known.join(", "))
            })
    }

    /// The share of in-window requests that must commit for a run of this
    /// workload to count as correct.  `crash_pruned` loses the requests
    /// that were sent to the crashed primary while it was down; the other
    /// workloads lose only optimistic aborts.
    pub fn committed_share_floor(self) -> f64 {
        match self {
            Workload::PaperCft | Workload::BftLadder | Workload::Wide128Pop => 0.99,
            Workload::CrashPruned => 0.90,
        }
    }

    /// The p99 limit (sim ms) a rung of `bft_ladder` must keep, with its
    /// committed share above [`Self::committed_share_floor`], to count
    /// towards `slo_tps`: its requests are intra-domain (1.4 ms unloaded).
    /// `None` for the workloads that are not a ladder of offered rates.
    pub fn slo_p99_limit_ms(self) -> Option<f64> {
        (self == Workload::BftLadder).then_some(10.0)
    }

    /// The percentile `commit_tail_ms` reads off the tail cells: the 99th,
    /// except on `crash_pruned`.  There every percentile below the last is a
    /// rank on the sparse ramp of requests the outage stalled (11 to 197 of
    /// them, depending on which devices roam) and moves by a tenth or more
    /// from seed to seed; the top of the ramp — how long the slowest commit
    /// waited the outage out — stays within 644–682 ms over 100 seeds.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::PaperCft | Workload::BftLadder | Workload::Wide128Pop => 0.99,
            Workload::CrashPruned => 1.0,
        }
    }

    /// Builds the workload's cells for `seed`.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let cells = match self {
            Workload::PaperCft => paper_cft(),
            Workload::BftLadder => bft_ladder(),
            Workload::Wide128Pop => wide128_pop(),
            Workload::CrashPruned => crash_pruned(),
        };
        cells
            .into_iter()
            .map(|mut cell| {
                cell.spec.seed = seed;
                cell
            })
            .collect()
    }
}

fn cell(name: &'static str, spec: ExperimentSpec) -> Cell {
    Cell {
        name,
        spec,
        throughput: true,
        latency: true,
        tail: true,
    }
}

/// The paper's headline comparison: all four stacks at 20 % cross-domain
/// plus the coordinator under 80 % mobile clients, with the spec defaults
/// the figures use (crash-only f = 1, nearby regions, 120 per-actor clients,
/// 4 000 tps, unbatched, 300 + 900 ms).
fn paper_cft() -> Vec<Cell> {
    let base = |protocol| ExperimentSpec::new(protocol).cross_domain(0.2);
    vec![
        cell("coord", base(ProtocolKind::SaguaroCoordinator)),
        cell("opt", base(ProtocolKind::SaguaroOptimistic).contention(0.5)),
        cell("ahl", base(ProtocolKind::Ahl)),
        cell("sharper", base(ProtocolKind::Sharper)),
        cell(
            "mobile80",
            ExperimentSpec::new(ProtocolKind::SaguaroCoordinator).mobile(0.8),
        ),
    ]
}

/// The coordinator stack over Byzantine domains (PBFT, n = 4) at three
/// offered rates: well below, just below and just above the knee, which
/// sits between 32k and 40k tps.
///
/// The rungs carry no cross-domain transactions.  At 8k tps and above a 20 %
/// cross-domain mix leaves a few dozen cross-domain requests unanswered for
/// the whole run on about one seed in twenty (seeds 8 and 32 of 1..=40 at
/// 8k), which would make `failed` depend on the seed; PBFT's all-to-all
/// phases, which this workload exists to load, do not need them.
fn bft_ladder() -> Vec<Cell> {
    let rung = |name, tps: f64| {
        let mut spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
            .byzantine()
            .load(tps);
        spec.warmup = Duration::from_millis(100);
        spec.measure = Duration::from_millis(200);
        cell(name, spec)
    };
    let mut cells = vec![
        rung("r8k", 8_000.0),
        rung("r32k", 32_000.0),
        rung("r40k", 40_000.0),
    ];
    // Latency is read on the bottom rung, where queueing adds nothing and
    // the percentiles repeat within 1 % from seed to seed (on r32k the p99
    // ranges from 3.0 to 5.6 ms); throughput is read just below the knee.
    cells[0].throughput = false;
    cells[1].latency = false;
    cells[1].tail = false;
    cells[2].throughput = false;
    cells[2].latency = false;
    cells[2].tail = false;
    cells
}

/// 200 000 modeled users as aggregate Poisson/Zipf populations over 128
/// height-1 domains.
fn wide128_pop() -> Vec<Cell> {
    let mut population = PopulationConfig::with_users(200_000)
        .per_user(0.05)
        .sampled_every(16);
    population.cross_domain_ratio = 0.2;
    let spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .shaped(2, 128)
        .aggregate(population);
    vec![cell("pop", spec)]
}

/// The replica `crash_pruned` crashes: the view-0 primary of the first
/// height-1 domain.
pub fn crash_victim() -> NodeId {
    NodeId::new(DomainId::new(1, 0), 0)
}

/// When the victim crashes and recovers (sim time), both inside the
/// measurement window of the `crash_pruned` cells.
pub const CRASH_AT: Duration = Duration::from_millis(500);
/// See [`CRASH_AT`].
pub const RECOVER_AT: Duration = Duration::from_millis(700);

/// Batched (b = 8), checkpointed (every 16) and pruned (retention 64) runs
/// whose first domain loses its primary inside the window.  The fault plan
/// implies the standard liveness timers.
fn crash_pruned() -> Vec<Cell> {
    let plan = FaultSchedule::none()
        .crash_at(SimTime::ZERO + CRASH_AT, crash_victim())
        .recover_at(SimTime::ZERO + RECOVER_AT, crash_victim());
    let faulty = |spec: ExperimentSpec| {
        spec.tune(|t| t.batch_size(8).checkpoint_every(16).retained(64))
            .fault_plan(plan.clone())
    };
    let coordinator = || ExperimentSpec::new(ProtocolKind::SaguaroCoordinator);
    let mut cells = vec![
        cell("cft", faulty(coordinator().cross_domain(0.2))),
        cell("bft", faulty(coordinator().byzantine().cross_domain(0.2))),
        cell("mobile80", faulty(coordinator().mobile(0.8))),
    ];
    // The median is read on `cft` and `bft`: `mobile80`'s moves by a third
    // with which devices roam.  The tail is read on `mobile80` alone.  Its
    // stalled requests wait for one timer (the 600 ms commit query) and
    // complete together 655 ms after the crash, on every seed.  Those of
    // `cft` and `bft` wait for the coordinator's 400 ms abort-and-retry
    // timer, and on 6 of 101 seeds the retry is not answered either in one
    // of the two: the timer runs a second time, a third of that cell's
    // stalled requests complete 855 ms after the crash, not 455, and any
    // tail percentile of these cells reads one mode or the other.
    cells[0].tail = false;
    cells[1].tail = false;
    cells[2].latency = false;
    cells
}
