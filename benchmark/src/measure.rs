//! Running a workload: warm-up, timed repetitions with interleaved
//! calibration passes, correctness checks, and the end-to-end metrics.

use crate::host;
use crate::workloads::{Cell, Workload};
use saguaro_loadgen::{nearest_rank_index, LatencyHistogram};
use saguaro_sim::{ExperimentSpec, RunArtifacts, RunHarvest, RunMetrics};
use saguaro_types::{ClientModel, Duration, SimTime};
use std::collections::HashMap;
use std::time::Instant;

/// A committed request counts as stalled by an outage when it took longer
/// than this (sim ms) — well above every failure-free cell's p99.
pub const STALL_MS: f64 = 100.0;

/// Fewest timed repetitions an invocation makes, whatever its time box.
pub const MIN_REPETITIONS: usize = 3;
/// Fewest set-up passes timed for `setup_s`.
pub const MIN_SETUP_PASSES: usize = 5;
/// Most set-up passes timed for `setup_s`.
pub const MAX_SETUP_PASSES: usize = 15;
/// Set-up passes beyond the fewest stop once they have taken this long
/// (wall s).
pub const SETUP_BUDGET_S: f64 = 3.0;
/// What the profile pass is expected to take, in repetitions (the phased
/// replay and the traced run are one each) and in seconds on top (Perfetto
/// export, micro drivers).
pub const PROFILE_REPETITIONS: f64 = 2.3;
/// See [`PROFILE_REPETITIONS`].
pub const PROFILE_FIXED_S: f64 = 1.5;

/// The in-window committed latencies of one cell.
pub enum Latencies {
    /// Every latency in sim µs (per-actor clients keep exact records).
    Exact(Vec<u64>),
    /// The streaming histogram of an aggregate population.
    Histogram(LatencyHistogram),
}

impl Latencies {
    /// How many latencies the sample holds.
    pub fn samples(&self) -> u64 {
        match self {
            Latencies::Exact(us) => us.len() as u64,
            Latencies::Histogram(hist) => hist.count(),
        }
    }
}

/// What one `run_collecting` of one cell reduces to.
pub struct CellOutcome {
    /// The run's summary metrics.
    pub metrics: RunMetrics,
    /// Simulator events processed.
    pub events: u64,
    /// Requests submitted inside the measurement window.
    pub submitted: u64,
    /// Of those, committed.
    pub committed: u64,
    /// Of those, answered with an abort.
    pub aborted: u64,
    /// Of those, never answered.
    pub unanswered: u64,
    /// Of the committed, slower than [`STALL_MS`].
    pub stalled: u64,
    /// Commits over the whole run, inside the window or not.
    pub commits_total: u64,
    /// Latencies of the in-window commits.
    pub latencies: Latencies,
    /// Correctness violations found in this run.
    pub violations: Vec<String>,
}

impl CellOutcome {
    /// Committed ÷ submitted inside the window.
    pub fn committed_share(&self) -> f64 {
        self.committed as f64 / self.submitted.max(1) as f64
    }

    /// The `p`-quantile of the cell's own latencies, in sim ms.
    pub fn quantile_ms(&self, p: f64) -> f64 {
        pooled_quantile_ms(&[&self.latencies], p)
    }
}

/// Pairs of replicas of one domain whose delivery streams disagree.
fn agreement_violations(harvest: &RunHarvest) -> Vec<String> {
    let mut violations = Vec::new();
    for domain in harvest.domains() {
        let replicas = harvest.replicas_of(domain);
        for (i, a) in replicas.iter().enumerate() {
            for b in &replicas[i + 1..] {
                if !a.agrees_with(b) {
                    violations.push(format!(
                        "replicas {} and {} of {domain} delivered different streams",
                        a.node, b.node
                    ));
                }
            }
        }
    }
    violations
}

/// Reduces a run's artifacts to the numbers the benchmark reports, checking
/// on the way that each domain's replicas agree and that no client saw a
/// transaction complete twice.
pub fn reduce(cell: &Cell, artifacts: &RunArtifacts) -> CellOutcome {
    let mut violations = agreement_violations(&artifacts.harvest);
    let start = SimTime::ZERO + cell.spec.warmup;
    let end = start + cell.spec.measure;
    let in_window = |t: SimTime| t >= start && t < end;
    let metrics = artifacts.metrics.clone();

    if let Some(tally) = &artifacts.population {
        // Aggregate clients keep counters, not records: every request still
        // in flight when the run ends is charged to the window.
        let unanswered = tally.submitted - tally.completed;
        return CellOutcome {
            events: artifacts.events_processed,
            submitted: tally.committed + tally.aborted + unanswered,
            committed: tally.committed,
            aborted: tally.aborted,
            unanswered,
            stalled: 0,
            commits_total: tally.completed - tally.aborted,
            latencies: Latencies::Histogram(tally.hist.clone()),
            metrics,
            violations,
        };
    }

    let mut answered = HashMap::with_capacity(artifacts.completions.len());
    for c in &artifacts.completions {
        if answered.insert(c.tx_id, c.submitted_at).is_some() {
            violations.push(format!("{} completed twice at {}", c.tx_id, c.client));
        }
    }
    // A request with no reply left no record of when it was sent.  Clients
    // submit their schedule in order, so it was sent before the client's
    // next answered request; it is charged to the window when that one is.
    let mut unanswered = 0;
    for (_, schedule) in &artifacts.schedules {
        let mut next_answered = None;
        for id in schedule.iter().rev() {
            match answered.get(id) {
                Some(at) => next_answered = Some(*at),
                None => unanswered += u64::from(next_answered.is_some_and(in_window)),
            }
        }
    }
    let mut latencies = Vec::with_capacity(metrics.committed as usize);
    let (mut aborted, mut commits_total) = (0, 0);
    for c in &artifacts.completions {
        commits_total += u64::from(c.committed);
        if in_window(c.submitted_at) {
            if c.committed {
                latencies.push(c.latency.as_micros());
            } else {
                aborted += 1;
            }
        }
    }
    let committed = latencies.len() as u64;
    CellOutcome {
        events: artifacts.events_processed,
        submitted: committed + aborted + unanswered,
        committed,
        aborted,
        unanswered,
        stalled: latencies
            .iter()
            .filter(|us| **us as f64 / 1e3 > STALL_MS)
            .count() as u64,
        commits_total,
        latencies: Latencies::Exact(latencies),
        metrics,
        violations,
    }
}

/// The `p`-quantile, in sim ms, of the pooled latencies of `cells` under
/// the harness's nearest-rank convention.
///
/// Exact records pool by concatenation.  A histogram stands alone and is
/// interpolated: `LatencyHistogram::quantile` answers with a bucket
/// midpoint, which would make the metric move in 3 % steps, so the bucket's
/// rank range is recovered by probing `quantile` and the value is placed
/// linearly inside the bucket (HDR geometry, 32 sub-buckets per octave).
pub fn pooled_quantile_ms(cells: &[&Latencies], p: f64) -> f64 {
    if let [Latencies::Histogram(hist)] = cells {
        return histogram_quantile_us(hist, p) / 1e3;
    }
    let mut pooled: Vec<u64> = Vec::new();
    for cell in cells {
        match cell {
            Latencies::Exact(us) => pooled.extend_from_slice(us),
            Latencies::Histogram(_) => panic!("a histogram cell cannot be pooled with others"),
        }
    }
    if pooled.is_empty() {
        return 0.0;
    }
    pooled.sort_unstable();
    pooled[nearest_rank_index(pooled.len(), p)] as f64 / 1e3
}

fn histogram_quantile_us(hist: &LatencyHistogram, p: f64) -> f64 {
    let count = hist.count();
    if count == 0 {
        return 0.0;
    }
    if count == 1 {
        return hist.quantile(p) as f64;
    }
    let value_at = |rank: u64| hist.quantile(rank as f64 / (count - 1) as f64);
    let rank = nearest_rank_index(count as usize, p) as u64;
    let value = value_at(rank);
    // First and last rank that report `value`.
    let (mut lo, mut hi) = (0, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if value_at(mid) == value {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, count - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if value_at(mid) == value {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    let width = if value < 64 {
        1.0
    } else {
        (1u64 << (value.ilog2() - 5)) as f64
    };
    let inside = (rank - first) as f64 + 0.5;
    let placed = value as f64 - width / 2.0 + width * inside / (last - first + 1) as f64;
    placed.clamp(hist.min() as f64, hist.max() as f64)
}

/// The simulated end-to-end metrics of one repetition of a workload: exact
/// functions of the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    /// Σ over throughput cells of offered rate × committed ÷ submitted.
    pub commit_tps: f64,
    /// Median latency pooled over the latency cells (sim ms).
    pub commit_p50_ms: f64,
    /// The workload's tail percentile, pooled over the tail cells (sim ms).
    pub commit_tail_ms: f64,
    /// Size of the tail sample.
    pub latency_samples: u64,
    /// Committed ÷ submitted inside the window, all cells.
    pub committed_share: f64,
    /// `bft_ladder`: highest offered rate among the rungs that meet the
    /// objective.  The other workloads are no ladder and have no objective:
    /// they report their highest offered rate.
    pub slo_tps: f64,
    /// Unanswered or slower than [`STALL_MS`] ÷ submitted, all cells.
    pub stalled_share: f64,
}

/// Computes the simulated end-to-end metrics from one repetition.
pub fn sim_metrics(workload: Workload, cells: &[Cell], outcomes: &[CellOutcome]) -> SimMetrics {
    let pairs = || cells.iter().zip(outcomes);
    let pooled = |wanted: fn(&Cell) -> bool| -> Vec<&Latencies> {
        pairs()
            .filter(|(cell, _)| wanted(cell))
            .map(|(_, o)| &o.latencies)
            .collect()
    };
    let (latency_cells, tail_cells) = (pooled(|c| c.latency), pooled(|c| c.tail));
    let submitted: u64 = outcomes.iter().map(|o| o.submitted).sum();
    let committed: u64 = outcomes.iter().map(|o| o.committed).sum();
    let stalled: u64 = outcomes.iter().map(|o| o.stalled + o.unanswered).sum();
    let meets_objective = |o: &&CellOutcome| match workload.slo_p99_limit_ms() {
        Some(limit) => {
            o.quantile_ms(0.99) <= limit && o.committed_share() >= workload.committed_share_floor()
        }
        None => true,
    };
    SimMetrics {
        commit_tps: pairs()
            .filter(|(cell, _)| cell.throughput)
            .map(|(_, o)| o.metrics.offered_tps * o.committed_share())
            .sum(),
        commit_p50_ms: pooled_quantile_ms(&latency_cells, 0.50),
        commit_tail_ms: pooled_quantile_ms(&tail_cells, workload.tail_quantile()),
        latency_samples: tail_cells.iter().map(|l| l.samples()).sum(),
        committed_share: committed as f64 / submitted.max(1) as f64,
        slo_tps: outcomes
            .iter()
            .filter(meets_objective)
            .map(|o| o.metrics.offered_tps)
            .fold(0.0, f64::max),
        stalled_share: stalled as f64 / submitted.max(1) as f64,
    }
}

/// One pass over a workload's cells.
pub struct Repetition {
    /// CPU time of each cell's `run_collecting` call (s); reduction and
    /// checks are outside the clock.
    pub cell_s: Vec<f64>,
    /// Allocator calls made inside those calls.
    pub allocs: u64,
    /// Bytes they requested.
    pub alloc_bytes: u64,
    /// Each cell's outcome.
    pub outcomes: Vec<CellOutcome>,
}

impl Repetition {
    /// Summed CPU time of the repetition's `run_collecting` calls (s).
    pub fn seconds(&self) -> f64 {
        self.cell_s.iter().sum()
    }
}

/// Sees every run's artifacts before they are checked.  The binary passes
/// [`untouched`]; tests corrupt a harvest with it.
pub type Tamper<'a> = &'a dyn Fn(&Cell, &mut RunArtifacts);

/// Runs every cell once through `run_collecting`.
pub fn repetition(cells: &[Cell], tamper: Tamper) -> Result<Repetition, String> {
    let (mut cell_s, mut allocs, mut alloc_bytes) = (Vec::new(), 0, 0);
    let mut outcomes = Vec::with_capacity(cells.len());
    for cell in cells {
        let before = host::alloc_counts();
        let started = host::cpu_seconds()?;
        let mut artifacts = cell.spec.run_collecting();
        cell_s.push(host::cpu_seconds()? - started);
        let after = host::alloc_counts();
        allocs += after.allocs - before.allocs;
        alloc_bytes += after.bytes - before.bytes;
        tamper(cell, &mut artifacts);
        outcomes.push(reduce(cell, &artifacts));
    }
    Ok(Repetition {
        cell_s,
        allocs,
        alloc_bytes,
        outcomes,
    })
}

/// `spec` with nothing to simulate: no window and next to no load.  Its
/// `run_collecting` builds the tree, seeds the accounts, deploys the stack,
/// registers the clients, idles through the 300 sim ms every run drains for,
/// harvests and tears down — the fixed cost of a run, on the simulator's own
/// path.
fn idle(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut idle = spec.clone().load(1.0);
    idle.warmup = Duration::ZERO;
    idle.measure = Duration::ZERO;
    if let ClientModel::Aggregate(population) = idle.client_model {
        idle.client_model = ClientModel::Aggregate(population.per_user(1e-9));
    }
    idle
}

/// Everything one invocation measures before the profile pass.
pub struct Measured {
    /// The cells that ran.
    pub cells: Vec<Cell>,
    /// The outcomes of timed repetition 1.
    pub outcomes: Vec<CellOutcome>,
    /// The simulated metrics of timed repetition 1.
    pub sim: SimMetrics,
    /// CPU time of the fastest set-up pass: an idle run of every cell (s).
    pub setup_s: f64,
    /// The cold warm-up repetition (CPU s).
    pub warmup_s: f64,
    /// CPU time of each timed repetition (s).
    pub rep_s: Vec<f64>,
    /// Each cell's fastest timed run (s), in cell order.
    pub cell_best_s: Vec<f64>,
    /// CPU time of each calibration pass (s).
    pub calib_s: Vec<f64>,
    /// `VmHWM` after the last timed repetition (MiB).
    pub peak_rss_mib: f64,
    /// Allocator calls during timed repetition 1.
    pub allocs: u64,
    /// Bytes requested during timed repetition 1.
    pub alloc_bytes: u64,
    /// Peak live heap during timed repetition 1 (MiB).
    pub peak_live_mib: f64,
    /// Minor page faults during the warm-up and during the timed phase.
    pub minor_faults: (u64, u64),
    /// Correctness failures, each naming its cell and the seed.
    pub failures: Vec<String>,
}

impl Measured {
    /// Σ over cells of the cell's fastest timed run (s).  The host slows
    /// down in bursts shorter than a repetition, so the per-cell minima
    /// reach the undisturbed time sooner than the fastest whole repetition.
    pub fn run_s(&self) -> f64 {
        self.cell_best_s.iter().sum()
    }

    /// The median timed repetition (s): what a single extra pass, such as
    /// the replay or the traced run, is compared with.
    pub fn median_rep_s(&self) -> f64 {
        let mut sorted = self.rep_s.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }

    /// The fastest calibration pass (s).
    pub fn calibration_s(&self) -> f64 {
        self.calib_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Commits over all cells in one repetition, window or not.
    pub fn commits_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.commits_total).sum()
    }

    /// Requests submitted inside the windows of one repetition.
    pub fn attempted(&self) -> u64 {
        self.outcomes.iter().map(|o| o.submitted).sum()
    }

    /// Of those, not committed.
    pub fn failed(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.submitted - o.committed)
            .sum()
    }
}

/// The time box of one invocation.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// When the invocation began: process start, for the driver's form.
    pub started: Instant,
    /// Wall seconds it may take from there.  The warm-up, the set-up passes
    /// and [`MIN_REPETITIONS`] timed repetitions are made even when they do
    /// not fit.
    pub seconds: f64,
    /// Whether a profile pass follows and needs room inside the box.
    pub profile: bool,
}

/// Measures `workload` at `seed`.
pub fn measure(
    workload: Workload,
    seed: u64,
    budget: Budget,
    tamper: Tamper,
) -> Result<Measured, String> {
    let cells = workload.cells(seed);
    let mut failures = Vec::new();
    // The same violation recurs in every repetition; report it once.
    let mut note = |cell: &Cell, what: &str| {
        let failure = format!("{}/{} seed {seed}: {what}", workload.name(), cell.name);
        if !failures.contains(&failure) {
            failures.push(failure);
        }
    };

    let faults_start = host::minor_faults()?;
    let warmup = repetition(&cells, tamper)?;
    let (warmup_s, reference) = (warmup.seconds(), warmup.outcomes);
    let faults_warm = host::minor_faults()?;
    for (cell, outcome) in cells.iter().zip(&reference) {
        for violation in &outcome.violations {
            note(cell, violation);
        }
    }

    // The host only ever adds time to a pass, in bursts: with a neighbour
    // streaming through memory, fifteen 0.1 s passes read 0.095–0.152 s,
    // their median 0.105–0.128 s from one process to the next and their
    // fastest 0.095–0.100 s.  Hence the fastest, as for the repetitions and
    // the calibration kernel.  A pass of the small workloads takes a tenth
    // of a second; they get more passes for the time a large one spends on
    // five.
    let idle_specs: Vec<ExperimentSpec> = cells.iter().map(|cell| idle(&cell.spec)).collect();
    let setup_started = Instant::now();
    let mut setup_passes = Vec::new();
    while setup_passes.len() < MIN_SETUP_PASSES
        || (setup_passes.len() < MAX_SETUP_PASSES
            && setup_started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let started = host::cpu_seconds()?;
        for spec in &idle_specs {
            std::hint::black_box(spec.run_collecting());
        }
        setup_passes.push(host::cpu_seconds()? - started);
    }
    let setup_s = setup_passes.iter().copied().fold(f64::INFINITY, f64::min);

    let mut calib_s = vec![host::timed_calibration()?];
    let mut rep_s: Vec<f64> = Vec::new();
    let mut cell_best_s = vec![f64::INFINITY; cells.len()];
    let mut first: Option<(Repetition, u64)> = None;
    // One more repetition is made while the slowest one so far, with its
    // checks and calibration pass, would still fit — and, under a profile
    // pass, leave room for that.
    let mut slowest_round_s: f64 = 0.0;
    loop {
        let reserve_s = if budget.profile {
            PROFILE_REPETITIONS * slowest_round_s + PROFILE_FIXED_S
        } else {
            0.0
        };
        let fits =
            budget.started.elapsed().as_secs_f64() + slowest_round_s + reserve_s <= budget.seconds;
        if rep_s.len() >= MIN_REPETITIONS && !fits {
            break;
        }
        let round = Instant::now();
        host::reset_peak_live();
        let rep = repetition(&cells, tamper)?;
        let peak_live = host::alloc_counts().peak_live;
        rep_s.push(rep.seconds());
        for (best, seconds) in cell_best_s.iter_mut().zip(&rep.cell_s) {
            *best = best.min(*seconds);
        }
        calib_s.push(host::timed_calibration()?);
        for ((cell, outcome), expected) in cells.iter().zip(&rep.outcomes).zip(&reference) {
            for violation in &outcome.violations {
                note(cell, violation);
            }
            if outcome.metrics != expected.metrics || outcome.events != expected.events {
                note(cell, "a repetition differs from the first one");
            }
        }
        first.get_or_insert((rep, peak_live));
        slowest_round_s = slowest_round_s.max(round.elapsed().as_secs_f64());
    }
    let peak_rss_mib = host::vm_hwm_kib()? as f64 / 1024.0;
    let faults_end = host::minor_faults()?;
    let (first, peak_live) = first.expect("at least one timed repetition");
    let outcomes = first.outcomes;

    let sim = sim_metrics(workload, &cells, &outcomes);
    if sim.committed_share < workload.committed_share_floor() {
        failures.push(format!(
            "{} seed {seed}: committed_share {:.4} is below the floor {}",
            workload.name(),
            sim.committed_share,
            workload.committed_share_floor()
        ));
    }
    Ok(Measured {
        cells,
        outcomes,
        sim,
        setup_s,
        warmup_s,
        rep_s,
        cell_best_s,
        calib_s,
        peak_rss_mib,
        allocs: first.allocs,
        alloc_bytes: first.alloc_bytes,
        peak_live_mib: peak_live as f64 / (1024.0 * 1024.0),
        minor_faults: (faults_warm - faults_start, faults_end - faults_warm),
        failures,
    })
}

/// The tamper hook of an honest run.
pub fn untouched(_: &Cell, _: &mut RunArtifacts) {}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_sim::{CompletedTx, ExperimentSpec, ProtocolKind};
    use saguaro_types::{ClientId, Duration, TxId};

    fn cell() -> Cell {
        Cell {
            name: "test",
            spec: ExperimentSpec::new(ProtocolKind::SaguaroCoordinator),
            throughput: true,
            latency: true,
            tail: true,
        }
    }

    fn completion(id: u64, submitted_ms: u64, latency_ms: u64, committed: bool) -> CompletedTx {
        CompletedTx {
            tx_id: TxId(id),
            client: ClientId(0),
            submitted_at: SimTime::from_millis(submitted_ms),
            latency: Duration::from_millis(latency_ms),
            committed,
        }
    }

    fn artifacts(schedule: Vec<u64>, completions: Vec<CompletedTx>) -> RunArtifacts {
        RunArtifacts {
            metrics: RunMetrics::default(),
            completions,
            schedules: vec![(ClientId(0), schedule.into_iter().map(TxId).collect())],
            events_processed: 0,
            harvest: RunHarvest::default(),
            state_transfer_messages: 0,
            state_transfer_bytes: 0,
            peak_pending_events: 0,
            population: None,
            pdes: None,
            trace: None,
            timeline: None,
        }
    }

    #[test]
    fn unanswered_requests_are_charged_to_the_window_of_the_next_answered_one() {
        // The window is [300, 1200) ms.  Requests 2 and 3 got no reply and
        // precede request 4, sent inside the window; request 6 precedes one
        // sent after the window; request 8 is followed by nothing answered.
        let outcome = reduce(
            &cell(),
            &artifacts(
                vec![1, 2, 3, 4, 5, 6, 7, 8],
                vec![
                    completion(1, 100, 5, true),
                    completion(4, 400, 150, true),
                    completion(5, 500, 5, false),
                    completion(7, 1300, 5, true),
                ],
            ),
        );
        assert_eq!(outcome.unanswered, 2);
        assert_eq!((outcome.committed, outcome.aborted), (1, 1));
        assert_eq!(outcome.submitted, 4);
        assert_eq!(outcome.stalled, 1, "150 ms is past the stall threshold");
        assert_eq!(outcome.commits_total, 3);
        assert_eq!(outcome.committed_share(), 0.25);
        assert!(outcome.violations.is_empty());
    }

    #[test]
    fn a_transaction_completed_twice_is_a_violation() {
        let outcome = reduce(
            &cell(),
            &artifacts(
                vec![1],
                vec![completion(1, 400, 5, true), completion(1, 400, 6, true)],
            ),
        );
        assert_eq!(outcome.violations, ["tx-1 completed twice at client-0"]);
    }

    #[test]
    fn exact_cells_pool_by_concatenation() {
        let a = Latencies::Exact(vec![1_000, 3_000]);
        let b = Latencies::Exact(vec![2_000, 4_000, 5_000]);
        assert_eq!(pooled_quantile_ms(&[&a, &b], 0.5), 3.0);
        assert_eq!(pooled_quantile_ms(&[&a, &b], 1.0), 5.0);
        assert_eq!(pooled_quantile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantiles_are_placed_inside_their_bucket() {
        // Pins the geometry the interpolation assumes (32 sub-buckets per
        // octave): the estimate must stay within one bucket width of the
        // exact sample, and must move when the sample moves inside a bucket.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut exact: Vec<u64> = (0..5_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                900 + state % 40_000
            })
            .collect();
        let mut hist = LatencyHistogram::new();
        exact.iter().for_each(|v| hist.record(*v));
        exact.sort_unstable();
        for p in [0.1, 0.5, 0.9, 0.99] {
            let truth = exact[nearest_rank_index(exact.len(), p)];
            let width = (1u64 << (truth.ilog2() - 5)) as f64;
            let estimate = histogram_quantile_us(&hist, p);
            assert!(
                (estimate - truth as f64).abs() <= width,
                "p{p}: {estimate} against {truth} (bucket width {width})"
            );
        }
        // 100 samples spread over one bucket ([2048, 2112)): the raw
        // quantile answers with the midpoint for every rank, the
        // interpolation walks across the bucket.
        let mut one_bucket = LatencyHistogram::new();
        (0..100).for_each(|i| one_bucket.record(2_048 + i * 64 / 100));
        assert_eq!(one_bucket.quantile(0.1), one_bucket.quantile(0.9));
        let low = histogram_quantile_us(&one_bucket, 0.1);
        let high = histogram_quantile_us(&one_bucket, 0.9);
        assert!(high - low > 40.0, "{low} .. {high}");
    }
}
