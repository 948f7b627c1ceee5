//! Failure models, quorum arithmetic and per-domain configuration.

use crate::ids::{DomainId, Region};
use crate::time::Duration;

/// The failure model followed by the nodes of a domain.
///
/// Crash fault-tolerant (CFT) domains run Paxos and need `2f + 1` replicas to
/// tolerate `f` simultaneous crashes; Byzantine fault-tolerant (BFT) domains
/// run PBFT and need `3f + 1` replicas to tolerate `f` malicious replicas.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FailureModel {
    /// Nodes may only fail by stopping (and may restart).
    Crash,
    /// Nodes may behave arbitrarily, including maliciously.
    Byzantine,
}

impl FailureModel {
    /// Number of replicas required to tolerate `f` failures under this model.
    pub const fn replicas_for(self, f: usize) -> usize {
        match self {
            FailureModel::Crash => 2 * f + 1,
            FailureModel::Byzantine => 3 * f + 1,
        }
    }

    /// Maximum number of failures tolerated by a domain of `n` replicas.
    pub const fn max_faults(self, n: usize) -> usize {
        match self {
            FailureModel::Crash => n.saturating_sub(1) / 2,
            FailureModel::Byzantine => n.saturating_sub(1) / 3,
        }
    }
}

/// Quorum sizes for a domain of `n` replicas tolerating `f` failures.
///
/// * CFT (Paxos): majority quorums of `f + 1` out of `2f + 1`.
/// * BFT (PBFT): quorums of `2f + 1` out of `3f + 1`; certificates that must
///   be verifiable by other domains also carry `2f + 1` signatures (the paper
///   requires messages from a Byzantine domain to be certified by at least
///   `2f + 1` nodes because the primary may be malicious).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QuorumSpec {
    /// Total number of replicas in the domain.
    pub n: usize,
    /// Number of failures tolerated.
    pub f: usize,
    /// The failure model.
    pub model: FailureModel,
}

impl QuorumSpec {
    /// Builds the quorum spec for a domain tolerating `f` faults under `model`.
    pub const fn for_faults(model: FailureModel, f: usize) -> Self {
        Self {
            n: model.replicas_for(f),
            f,
            model,
        }
    }

    /// Builds the quorum spec for a domain of `n` replicas under `model`.
    pub const fn for_size(model: FailureModel, n: usize) -> Self {
        Self {
            n,
            f: model.max_faults(n),
            model,
        }
    }

    /// Size of the quorum needed to commit/accept a value inside the domain.
    pub const fn commit_quorum(&self) -> usize {
        match self.model {
            FailureModel::Crash => self.f + 1,
            FailureModel::Byzantine => 2 * self.f + 1,
        }
    }

    /// Number of signatures a certificate shown to *other* domains must carry.
    ///
    /// Crash-only domains are trusted not to lie, so the primary's signature
    /// suffices; Byzantine domains must present `2f + 1` matching signatures.
    pub const fn certificate_size(&self) -> usize {
        match self.model {
            FailureModel::Crash => 1,
            FailureModel::Byzantine => 2 * self.f + 1,
        }
    }

    /// Number of matching replies a client must collect before accepting a
    /// result (`1` for crash-only, `f + 1` for Byzantine domains).
    pub const fn reply_quorum(&self) -> usize {
        match self.model {
            FailureModel::Crash => 1,
            FailureModel::Byzantine => self.f + 1,
        }
    }
}

/// Request-batching knob of a domain's ordering pipeline.
///
/// The leader accumulates incoming commands and cuts a block when `max_batch`
/// commands are pending or the replica host's fixed flush delay (5 ms) has
/// elapsed since the first pending command, whichever comes first.
/// `max_batch = 1` disables batching: every command is proposed immediately
/// and the pipeline behaves exactly like an unbatched deployment (no flush
/// timers are ever scheduled).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchConfig {
    /// Maximum number of commands per consensus block (≥ 1).
    pub max_batch: usize,
}

impl BatchConfig {
    /// Batching disabled: one command per consensus instance (the paper's
    /// per-request configuration, and the determinism baseline).
    pub const fn unbatched() -> Self {
        Self::with_max_batch(1)
    }

    /// Blocks of up to `max_batch` commands.  `max_batch` must be at least
    /// 1: a batcher refuses 0.
    pub const fn with_max_batch(max_batch: usize) -> Self {
        Self { max_batch }
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self::unbatched()
    }
}

/// Liveness-timer knobs of a domain's ordering pipeline.
///
/// When enabled, every replica runs a progress timer: if no new sequence
/// number was delivered over one suspicion window while work is
/// demonstrably pending, the replica suspects the primary and votes for a
/// view change.  Disabled (the default), no progress timers are ever
/// scheduled and the event stream is bit-identical to the historical
/// failure-free pipeline.
///
/// The window starts at `progress_timeout`, its floor.  As in PBFT (Castro
/// & Liskov, OSDI'99, §4.5.2), it doubles on every suspicion fired while
/// the replica is still stuck (a failed view change) up to eight times the
/// floor, and halves back toward the floor on every observed delivery
/// progress; the arithmetic lives in `saguaro_consensus::SuspicionTimer`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LivenessConfig {
    /// Whether progress timers run at all.
    pub enabled: bool,
    /// The suspicion window's floor: its first length, and the length
    /// observed progress halves it back down to.
    pub progress_timeout: Duration,
}

impl LivenessConfig {
    /// Progress timers off — the failure-free determinism baseline.
    pub const fn disabled() -> Self {
        Self {
            enabled: false,
            progress_timeout: Self::DEFAULT_TIMEOUT,
        }
    }

    /// The default suspicion floor: comfortably above the per-request
    /// commit latency of every placement (tens of milliseconds at the
    /// simulated scale), well below an experiment's measurement window.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_millis(60);

    /// Progress timers on, with the default suspicion floor.
    pub const fn standard() -> Self {
        Self::with_timeout(Self::DEFAULT_TIMEOUT)
    }

    /// Progress timers on, with a suspicion window that never falls below
    /// `progress_timeout`: a floor comfortably above the placement's
    /// failure-free commit latency, or every slow commit is misread as a
    /// dead primary.  Panics on a zero floor: the progress timer would
    /// re-arm at the same instant forever.
    pub const fn with_timeout(progress_timeout: Duration) -> Self {
        assert!(
            progress_timeout.as_micros() > 0,
            "LivenessConfig::with_timeout(0): a zero suspicion window re-arms the progress timer at the same instant forever"
        );
        Self {
            enabled: true,
            progress_timeout,
        }
    }
}

impl Default for LivenessConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Checkpoint / state-transfer knobs of a domain's internal consensus.
///
/// Every domain, Paxos or PBFT, announces its executed floor every
/// `interval` deliveries; once a commit quorum announced the same floor it is
/// a *stable checkpoint* (Castro & Liskov, OSDI'99, §4.3): both consensus
/// engines then garbage-collect their per-slot voting state below it, so
/// view-change votes and slot maps are bounded by `history − checkpoint`
/// instead of `O(history)`.  A recovered (or otherwise gap-stalled) replica
/// fetches the committed entries it missed from an up-to-date peer
/// (`StateRequest` / `StateReply`, the viewstamped-replication catch-up)
/// instead of stalling at its log gap forever.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckpointConfig {
    /// Deliveries between checkpoint announcements (at least 1).
    pub interval: u64,
    /// Retention window for durable per-entry state (delivered logs, chains,
    /// ledger entries) counted in deliveries below the stable checkpoint.
    /// `u64::MAX` (the default, and the value every constructor sets) keeps
    /// full history.  A finite window turns on snapshot materialization at
    /// every stable checkpoint and prunes entry-grained state below
    /// `min(lowest peer frontier, stable − retention)`, so endurance runs
    /// hold O(retention) memory instead of O(history).  At least 1, so a
    /// snapshot responder always retains a non-empty servable tail: the
    /// checkpoint keeper refuses 0.
    pub retention: u64,
}

impl CheckpointConfig {
    /// The default announcement interval: PBFT's classic 128.
    pub const DEFAULT_INTERVAL: u64 = 128;

    /// Announcements every `interval` deliveries; retention stays infinite
    /// (no pruning).  Panics on 0.
    pub const fn every(interval: u64) -> Self {
        assert!(
            interval > 0,
            "CheckpointConfig::every(0): the checkpoint interval must be at least 1"
        );
        Self {
            interval,
            retention: u64::MAX,
        }
    }

    /// Replaces the retention window (builder style).  `u64::MAX` keeps full
    /// history; any finite value (at least 1) enables snapshotting +
    /// pruning.
    pub const fn with_retention(mut self, retention: u64) -> Self {
        self.retention = retention;
        self
    }

    /// True if entry-grained state is pruned (and snapshots materialized):
    /// a finite retention window.
    pub const fn prunes(&self) -> bool {
        self.retention < u64::MAX
    }
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self::every(Self::DEFAULT_INTERVAL)
    }
}

/// Structured-tracing knobs threaded from an experiment spec down to every
/// node, client and harvest pass.
///
/// Default is **off**: no buffers are allocated, every record call is a
/// single branch, and runs are bit-identical to a build without the
/// subsystem.  When enabled, protocol events and sampled transaction
/// lifecycle spans are recorded into bounded per-actor ring buffers and
/// merged deterministically at harvest, so the same seed yields the same
/// trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceConfig {
    /// Master switch; `false` makes every other knob inert.
    pub enabled: bool,
    /// Per-actor ring-buffer capacity in events; the oldest events are
    /// dropped (and counted) once an actor exceeds it.
    pub buffer_capacity: u32,
}

impl TraceConfig {
    /// Transaction-span sampling stride: spans are recorded for transactions
    /// whose id is divisible by this value.  Protocol events are never
    /// sampled.
    pub const SPAN_SAMPLE_EVERY: u64 = 8;

    /// Tracing disabled — the pinned default, bit-identical to goldens.
    pub const fn off() -> Self {
        Self {
            enabled: false,
            buffer_capacity: 4096,
        }
    }

    /// Tracing enabled with the default knobs: every
    /// [`TraceConfig::SPAN_SAMPLE_EVERY`]-th transaction spanned,
    /// 4096-event ring buffers.
    pub const fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// Replaces the per-actor ring-buffer capacity (builder style).  At
    /// least 1: a tracer refuses 0.
    pub const fn with_buffer_capacity(mut self, capacity: u32) -> Self {
        self.buffer_capacity = capacity;
        self
    }

    /// True if a lifecycle span should be recorded for transaction `id`.
    pub const fn samples(&self, id: u64) -> bool {
        self.enabled && id.is_multiple_of(Self::SPAN_SAMPLE_EVERY)
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Per-domain pipeline knobs threaded from an experiment spec into every
/// protocol stack's deployment: request batching, liveness timers and
/// checkpointing / state transfer.  Built as a struct literal over
/// `..StackConfig::default()`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StackConfig {
    /// Request batching of the internal consensus.
    pub batch: BatchConfig,
    /// Progress-timer (primary suspicion) knobs.
    pub liveness: LivenessConfig,
    /// Checkpointing / state-transfer knobs of the internal consensus.
    pub checkpoint: CheckpointConfig,
    /// Structured-tracing knobs (off by default).
    pub trace: TraceConfig,
}

/// The consensus-pipeline knobs of an experiment, grouped: request batching,
/// liveness timers and checkpointing / state transfer / retention.
///
/// This is the single sub-config an [`crate::config::StackConfig`] consumer
/// tunes — experiment specs hold one `ConsensusTuning` instead of three loose
/// fields, and every knob has exactly one setter here rather than a
/// value/struct setter pair per field on the spec itself.
///
/// Liveness timers are off by default; a fault-injection run deploys
/// [`LivenessConfig::standard`] in their place (see
/// [`ConsensusTuning::effective_liveness`]), since faults without suspicion
/// timers would just wedge.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConsensusTuning {
    /// Request batching of the internal consensus.
    pub batch: BatchConfig,
    /// Progress-timer knobs.
    pub liveness: LivenessConfig,
    /// Checkpointing / state-transfer / retention knobs.
    pub checkpoint: CheckpointConfig,
}

impl ConsensusTuning {
    /// The defaults: unbatched, timers off unless faults are scripted,
    /// checkpoints every [`CheckpointConfig::DEFAULT_INTERVAL`] deliveries,
    /// infinite retention.
    pub const fn new() -> Self {
        Self {
            batch: BatchConfig::unbatched(),
            liveness: LivenessConfig::disabled(),
            checkpoint: CheckpointConfig::every(CheckpointConfig::DEFAULT_INTERVAL),
        }
    }

    /// Blocks of up to `max_batch` commands (builder style).
    pub const fn batch_size(mut self, max_batch: usize) -> Self {
        self.batch = BatchConfig::with_max_batch(max_batch);
        self
    }

    /// Replaces the liveness knobs (builder style).
    pub const fn liveness(mut self, liveness: LivenessConfig) -> Self {
        self.liveness = liveness;
        self
    }

    /// Sets the checkpoint announcement interval (builder style).
    /// Preserves a previously set retention window.
    pub const fn checkpoint_every(mut self, interval: u64) -> Self {
        let retention = self.checkpoint.retention;
        self.checkpoint = CheckpointConfig::every(interval).with_retention(retention);
        self
    }

    /// Sets the retention window on the current checkpoint knobs (builder
    /// style); see [`CheckpointConfig::with_retention`].
    pub const fn retained(mut self, retention: u64) -> Self {
        self.checkpoint = self.checkpoint.with_retention(retention);
        self
    }

    /// The liveness knobs actually deployed: the configured ones, except
    /// that a fault-injection run (`chaos = true`) upgrades disabled timers
    /// to [`LivenessConfig::standard`].
    pub fn effective_liveness(&self, chaos: bool) -> LivenessConfig {
        if chaos && !self.liveness.enabled {
            LivenessConfig::standard()
        } else {
            self.liveness
        }
    }
}

/// Time-varying load envelope of an aggregate client population.
///
/// The per-user arrival rate is multiplied by the envelope's level at the
/// current virtual time, so one knob turns a steady open-loop population into
/// a flash crowd without changing the generator.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum RateEnvelope {
    /// Constant offered rate (the default).
    #[default]
    Constant,
    /// A flash crowd: the rate jumps to `multiplier × base` during
    /// `[start, start + duration)` and is the base rate elsewhere.
    FlashCrowd {
        /// When the crowd arrives.
        start: Duration,
        /// How long it stays.
        duration: Duration,
        /// Rate multiplier while it is there (≥ 0; > 1 for a spike).
        multiplier: f64,
    },
}

impl RateEnvelope {
    /// The rate multiplier at `elapsed` virtual time since experiment start.
    pub fn level(&self, elapsed: Duration) -> f64 {
        match *self {
            RateEnvelope::Constant => 1.0,
            RateEnvelope::FlashCrowd {
                start,
                duration,
                multiplier,
            } => {
                if elapsed >= start
                    && elapsed.as_micros() < start.as_micros() + duration.as_micros()
                {
                    multiplier.max(0.0)
                } else {
                    1.0
                }
            }
        }
    }
}

/// An aggregate client population: the load-generation model that replaces
/// per-client actors with one open-loop arrival process per height-1 domain.
///
/// `users` is the *modeled* population size — it scales the aggregate
/// Poisson arrival rate (`users × per_user_tps`, shaped by `envelope`) but
/// costs O(1) memory per domain regardless of magnitude.  Accounts are drawn
/// Zipf-skewed from the domain's fixed universe
/// ([`crate::transaction::ACCOUNTS_PER_DOMAIN`]).  Latency accounting is a
/// streaming log-bucketed histogram over every `sample_every`-th submission;
/// commit/abort counts stay exact.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PopulationConfig {
    /// Modeled users across the whole deployment (spread evenly over the
    /// edge domains, remainder to the lowest ordinals).
    pub users: u64,
    /// Mean transactions per second each modeled user issues (open loop).
    pub per_user_tps: f64,
    /// Fraction of transactions spanning two domains.
    pub cross_domain_ratio: f64,
    /// Latency-sample stride: every `sample_every`-th submission is traced
    /// into the histogram (1 = every transaction).  Counts are always exact.
    pub sample_every: u64,
    /// Time-varying load shape applied to the aggregate rate.
    pub envelope: RateEnvelope,
}

impl PopulationConfig {
    /// A population of `users` at the default per-user rate.  Panics on 0
    /// users.
    pub fn with_users(users: u64) -> Self {
        assert!(
            users > 0,
            "PopulationConfig::with_users(0): a population needs at least one user"
        );
        Self {
            users,
            ..Self::default()
        }
    }

    /// Sets the per-user rate (builder style).  Panics on a negative or
    /// non-finite rate; 0 is accepted here and refused when the run starts.
    pub fn per_user(mut self, tps: f64) -> Self {
        assert!(
            tps.is_finite() && tps >= 0.0,
            "PopulationConfig::per_user({tps}): the per-user rate must be finite and at least 0"
        );
        self.per_user_tps = tps;
        self
    }

    /// Sets the latency-sample stride (builder style).  Panics on 0.
    pub fn sampled_every(mut self, stride: u64) -> Self {
        assert!(
            stride > 0,
            "PopulationConfig::sampled_every(0): the sample stride must be at least 1"
        );
        self.sample_every = stride;
        self
    }

    /// Sets the load envelope (builder style).
    pub fn shaped(mut self, envelope: RateEnvelope) -> Self {
        self.envelope = envelope;
        self
    }

    /// Total offered load of the population at envelope level 1.0 (tx/s).
    pub fn offered_tps(&self) -> f64 {
        self.users as f64 * self.per_user_tps
    }

    /// Users modeled in the domain at `ordinal` of `domains` edge domains
    /// (even split, remainder to the lowest ordinals).
    pub fn users_in_domain(&self, ordinal: usize, domains: usize) -> u64 {
        let domains = domains.max(1) as u64;
        let ordinal = ordinal as u64 % domains;
        self.users / domains + u64::from(ordinal < self.users % domains)
    }

    /// Pairs a domain holds beyond its account universe: none.  Kept only
    /// for `benchmark/src/replay.rs`, which still calls it.
    pub fn seed_accounts_for(&self, _domain: DomainId) -> Vec<(String, u64)> {
        Vec::new()
    }
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            users: 1_000,
            per_user_tps: 0.1,
            cross_domain_ratio: 0.0,
            sample_every: 1,
            envelope: RateEnvelope::Constant,
        }
    }
}

/// How an experiment models its client side.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum ClientModel {
    /// One simulator actor per client with a precomputed schedule and exact
    /// per-transaction completion records — the historical (and
    /// bit-identical golden) path.
    #[default]
    PerActor,
    /// One actor per height-1 domain modeling the whole population as an
    /// aggregate open-loop arrival process with streaming-histogram latency
    /// accounting: memory is O(1) in both transaction and user count.
    Aggregate(PopulationConfig),
}

impl ClientModel {
    /// True for the aggregate-population model.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, ClientModel::Aggregate(_))
    }
}

/// Static configuration of one domain in a deployment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DomainConfig {
    /// The domain's identifier (height + index).
    pub id: DomainId,
    /// Quorum arithmetic for the domain.
    pub quorum: QuorumSpec,
    /// Geographic region hosting every replica of the domain.
    pub region: Region,
}

impl DomainConfig {
    /// Convenience constructor.
    pub fn new(id: DomainId, model: FailureModel, f: usize, region: Region) -> Self {
        Self {
            id,
            quorum: QuorumSpec::for_faults(model, f),
            region,
        }
    }

    /// Number of replicas in the domain.
    pub fn size(&self) -> usize {
        self.quorum.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_counts_match_the_paper() {
        // The paper: D21 has 4 Byzantine nodes (3f+1, f=1); D14 has 5 crash
        // nodes (2f+1, f=2).
        assert_eq!(FailureModel::Byzantine.replicas_for(1), 4);
        assert_eq!(FailureModel::Crash.replicas_for(2), 5);
    }

    #[test]
    fn max_faults_inverts_replica_count() {
        for f in 0..10 {
            let n_cft = FailureModel::Crash.replicas_for(f);
            let n_bft = FailureModel::Byzantine.replicas_for(f);
            assert_eq!(FailureModel::Crash.max_faults(n_cft), f);
            assert_eq!(FailureModel::Byzantine.max_faults(n_bft), f);
        }
    }

    #[test]
    fn quorum_sizes_cft() {
        let q = QuorumSpec::for_faults(FailureModel::Crash, 2);
        assert_eq!(q.n, 5);
        assert_eq!(q.commit_quorum(), 3);
        assert_eq!(q.certificate_size(), 1);
        assert_eq!(q.reply_quorum(), 1);
    }

    #[test]
    fn quorum_sizes_bft() {
        let q = QuorumSpec::for_faults(FailureModel::Byzantine, 1);
        assert_eq!(q.n, 4);
        assert_eq!(q.commit_quorum(), 3);
        assert_eq!(q.certificate_size(), 3);
        assert_eq!(q.reply_quorum(), 2);
    }

    #[test]
    fn for_size_round_trips() {
        let q = QuorumSpec::for_size(FailureModel::Byzantine, 7);
        assert_eq!(q.f, 2);
        assert_eq!(q.commit_quorum(), 5);
        let q = QuorumSpec::for_size(FailureModel::Crash, 9);
        assert_eq!(q.f, 4);
        assert_eq!(q.commit_quorum(), 5);
    }

    #[test]
    fn any_two_commit_quorums_intersect_in_a_correct_node() {
        // Safety argument of Lemma 4.1: two quorums intersect in at least one
        // non-faulty node.
        for f in 1..6 {
            for model in [FailureModel::Crash, FailureModel::Byzantine] {
                let q = QuorumSpec::for_faults(model, f);
                let overlap = 2 * q.commit_quorum() as isize - q.n as isize;
                assert!(
                    overlap > q.f as isize || model == FailureModel::Crash && overlap >= 1,
                    "quorum intersection too small for {model:?} f={f}"
                );
            }
        }
    }

    #[test]
    fn liveness_defaults_off_and_stack_config_composes() {
        assert!(!LivenessConfig::default().enabled);
        assert!(LivenessConfig::standard().enabled);
        let custom = LivenessConfig::with_timeout(Duration::from_millis(25));
        assert_eq!(custom.progress_timeout, Duration::from_millis(25));
        let stack = StackConfig {
            batch: BatchConfig::with_max_batch(4),
            liveness: custom,
            ..StackConfig::default()
        };
        assert_eq!(stack.batch.max_batch, 4);
        assert!(stack.liveness.enabled);
        let default = StackConfig::default();
        assert_eq!(default.batch, BatchConfig::unbatched());
        assert!(!default.liveness.enabled);
        assert_eq!(
            default.checkpoint,
            CheckpointConfig::every(CheckpointConfig::DEFAULT_INTERVAL)
        );
        assert_eq!(default.trace, TraceConfig::off());
    }

    #[test]
    #[should_panic(expected = "LivenessConfig::with_timeout(0)")]
    fn zero_suspicion_window_is_refused() {
        let _ = LivenessConfig::with_timeout(Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "CheckpointConfig::every(0)")]
    fn every_zero_is_refused() {
        let _ = CheckpointConfig::every(0);
    }

    #[test]
    fn retention_gates_pruning() {
        // Every constructor keeps full history and never prunes.
        for c in [CheckpointConfig::default(), CheckpointConfig::every(8)] {
            assert_eq!(c.retention, u64::MAX);
            assert!(!c.prunes());
        }
        assert!(CheckpointConfig::every(8).with_retention(64).prunes());
        // A window on the default interval prunes too.
        assert!(CheckpointConfig::default().with_retention(64).prunes());
    }

    #[test]
    fn consensus_tuning_groups_the_pipeline_knobs() {
        let t = ConsensusTuning::new();
        assert_eq!(t, ConsensusTuning::default());
        assert_eq!(t.batch, BatchConfig::unbatched());
        assert_eq!(t.liveness, LivenessConfig::disabled());
        assert_eq!(t.checkpoint, CheckpointConfig::default());
        // Faults upgrade disabled timers; configured ones deploy as set.
        assert!(!t.effective_liveness(false).enabled);
        assert_eq!(t.effective_liveness(true), LivenessConfig::standard());
        let low = t.liveness(LivenessConfig::with_timeout(Duration::from_millis(30)));
        assert_eq!(low.effective_liveness(true), low.liveness);
        assert_eq!(low.effective_liveness(false), low.liveness);

        let tuned = ConsensusTuning::new()
            .batch_size(8)
            .retained(64)
            .checkpoint_every(16);
        assert_eq!(tuned.batch.max_batch, 8);
        // checkpoint_every preserves a retention window set earlier.
        assert_eq!(tuned.checkpoint.interval, 16);
        assert_eq!(tuned.checkpoint.retention, 64);
        assert!(tuned.checkpoint.prunes());
    }

    #[test]
    fn domain_config_reports_size() {
        let c = DomainConfig::new(DomainId::new(1, 0), FailureModel::Byzantine, 1, Region(2));
        assert_eq!(c.size(), 4);
        assert_eq!(c.region, Region(2));
    }

    #[test]
    fn rate_envelopes_shape_the_offered_load() {
        let constant = RateEnvelope::Constant;
        assert_eq!(constant.level(Duration::from_millis(5)), 1.0);

        let crowd = RateEnvelope::FlashCrowd {
            start: Duration::from_millis(100),
            duration: Duration::from_millis(50),
            multiplier: 4.0,
        };
        assert_eq!(crowd.level(Duration::from_millis(99)), 1.0);
        assert_eq!(crowd.level(Duration::from_millis(100)), 4.0);
        assert_eq!(crowd.level(Duration::from_millis(149)), 4.0);
        assert_eq!(crowd.level(Duration::from_millis(150)), 1.0);
    }

    #[test]
    fn population_splits_users_evenly_with_remainder_low() {
        let pop = PopulationConfig::with_users(10);
        assert_eq!(pop.users_in_domain(0, 4), 3);
        assert_eq!(pop.users_in_domain(1, 4), 3);
        assert_eq!(pop.users_in_domain(2, 4), 2);
        assert_eq!(pop.users_in_domain(3, 4), 2);
        let total: u64 = (0..4).map(|d| pop.users_in_domain(d, 4)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn population_builders_compose() {
        let pop = PopulationConfig::with_users(3)
            .per_user(2.0)
            .sampled_every(4);
        assert_eq!(pop.users, 3);
        assert_eq!(pop.sample_every, 4);
        assert_eq!(pop.offered_tps(), 6.0);
        // A zero rate is legal here: the run refuses it when it starts.
        assert_eq!(pop.per_user(0.0).offered_tps(), 0.0);
        assert!(ClientModel::Aggregate(pop).is_aggregate());
        assert!(!ClientModel::PerActor.is_aggregate());
        assert_eq!(ClientModel::default(), ClientModel::PerActor);
    }

    #[test]
    #[should_panic(expected = "PopulationConfig::with_users(0)")]
    fn zero_users_are_refused() {
        let _ = PopulationConfig::with_users(0);
    }

    #[test]
    #[should_panic(expected = "PopulationConfig::per_user(-0.5)")]
    fn negative_per_user_rate_is_refused() {
        let _ = PopulationConfig::default().per_user(-0.5);
    }

    #[test]
    #[should_panic(expected = "PopulationConfig::per_user(inf)")]
    fn infinite_per_user_rate_is_refused() {
        let _ = PopulationConfig::default().per_user(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "PopulationConfig::sampled_every(0)")]
    fn zero_sample_stride_is_refused() {
        let _ = PopulationConfig::default().sampled_every(0);
    }
}
