//! The aggregate client actor: one simulator actor per height-1 domain
//! standing in for that domain's whole client population.
//!
//! Arrivals are drawn open-loop from a [`PopulationGenerator`] and submitted
//! immediately; sub-microsecond inter-arrival gaps are submitted in the same
//! virtual instant (exact under microsecond-granular time), so the actor
//! schedules one timer per *positive* gap, not one per modeled client.
//! Completion accounting streams into a shared [`PopulationTally`]: exact
//! commit/abort counters plus a [`LatencyHistogram`] over every
//! `sample_every`-th submission — no per-transaction record is ever stored,
//! so client-side memory is O(in-flight), not O(total transactions).

use crate::hist::LatencyHistogram;
use crate::population::PopulationGenerator;
use parking_lot::Mutex;
use saguaro_net::{Actor, Addr, Context, MessageMeta, TimerId};
use saguaro_types::hash::FxHashMap;
use saguaro_types::{Duration, NodeId, SimTime, Transaction, TxId};
use std::sync::Arc;

/// How long a fully-paused population (envelope level 0) waits before
/// re-checking its rate.
const PAUSE_POLL: Duration = Duration::from_millis(1);

/// Same-instant submissions per timer event before yielding with a 1 µs
/// timer — a safety valve against extreme configured rates, not a cap on
/// throughput (the loop resumes immediately).
const MAX_SAME_INSTANT_BATCH: u32 = 4_096;

/// Streaming run statistics shared by every aggregate actor of a deployment.
#[derive(Clone, Debug)]
pub struct PopulationTally {
    /// Latencies (virtual µs) of sampled committed transactions submitted
    /// inside the measurement window.
    pub hist: LatencyHistogram,
    /// Exact count of in-window submissions that committed.
    pub committed: u64,
    /// Exact count of in-window submissions that aborted.
    pub aborted: u64,
    /// Total arrivals submitted over the whole run (any window).
    pub submitted: u64,
    /// Total completions observed over the whole run (any window).
    pub completed: u64,
    /// Latency samples recorded into the histogram.
    pub sampled: u64,
    /// High-water mark of any single actor's in-flight transaction map —
    /// the client-side memory proxy (steady-state, not O(total txs)).
    pub peak_inflight: usize,
}

impl PopulationTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self {
            hist: LatencyHistogram::new(),
            committed: 0,
            aborted: 0,
            submitted: 0,
            completed: 0,
            sampled: 0,
            peak_inflight: 0,
        }
    }
}

impl Default for PopulationTally {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared handle to the run's [`PopulationTally`].
pub type Tally = Arc<Mutex<PopulationTally>>;

struct Pending {
    submitted_at: SimTime,
    sampled: bool,
}

/// One domain's aggregate client population as a simulator actor, generic
/// over the deployment's message type (mirroring the per-actor client).
///
/// Must be registered at `Addr::Client(generator.client_id())`: protocol
/// nodes reply to the client identity a transaction carries, not to the
/// message sender.
pub struct AggregateClientActor<M> {
    generator: PopulationGenerator,
    wrap: fn(Transaction) -> M,
    tick: M,
    parse_reply: fn(&M) -> Option<(TxId, bool)>,
    reply_quorum: usize,
    /// Replicas per domain submissions are spread over (1 in failure-free
    /// runs: everything goes to replica 0, the view-0 primary).
    replica_spread: u64,
    window_start: SimTime,
    window_end: SimTime,
    /// Submissions stop here (the run horizon minus drain margin).
    submit_until: SimTime,
    sample_stride: u64,
    pending: FxHashMap<TxId, Pending>,
    reply_counts: FxHashMap<TxId, (usize, usize)>,
    tally: Tally,
    peak_inflight: usize,
    started: bool,
    submitted: u64,
}

impl<M: MessageMeta + Clone + 'static> AggregateClientActor<M> {
    /// Creates the actor for one domain's population.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        generator: PopulationGenerator,
        wrap: fn(Transaction) -> M,
        tick: M,
        parse_reply: fn(&M) -> Option<(TxId, bool)>,
        reply_quorum: usize,
        replica_spread: u64,
        warmup: Duration,
        measure: Duration,
        tally: Tally,
    ) -> Self {
        let window_start = SimTime::ZERO + warmup;
        let window_end = window_start + measure;
        let sample_stride = generator.sample_stride();
        Self {
            generator,
            wrap,
            tick,
            parse_reply,
            reply_quorum: reply_quorum.max(1),
            replica_spread: replica_spread.max(1),
            window_start,
            window_end,
            submit_until: window_end + Duration::from_millis(200),
            sample_stride,
            pending: FxHashMap::default(),
            reply_counts: FxHashMap::default(),
            tally,
            peak_inflight: 0,
            started: false,
            submitted: 0,
        }
    }

    fn submit_one(&mut self, ctx: &mut Context<'_, M>) {
        let (tx, submit_to) = self.generator.next_tx();
        let replica = (tx.id.0 % self.replica_spread) as u16;
        let sampled = self.submitted.is_multiple_of(self.sample_stride);
        self.submitted += 1;
        self.pending.insert(
            tx.id,
            Pending {
                submitted_at: ctx.now(),
                sampled,
            },
        );
        if self.pending.len() > self.peak_inflight {
            self.peak_inflight = self.pending.len();
        }
        ctx.send(Addr::Node(NodeId::new(submit_to, replica)), (self.wrap)(tx));
    }

    /// Folds locally accumulated gauges into the shared tally.
    fn fold(&self, newly_submitted: u64) {
        let mut t = self.tally.lock();
        t.submitted += newly_submitted;
        if self.peak_inflight > t.peak_inflight {
            t.peak_inflight = self.peak_inflight;
        }
    }

    /// Submits the arrivals due now and schedules the next positive gap.
    fn pump(&mut self, ctx: &mut Context<'_, M>) {
        if ctx.now() >= self.submit_until {
            self.fold(0);
            return;
        }
        let elapsed = ctx.now().since(SimTime::ZERO);
        let mut submitted_now = 0;
        // `None` = batch cap hit; `Some(None)` = rate paused;
        // `Some(Some(gap))` = next arrival after a positive gap.
        let mut next: Option<Option<Duration>> = None;
        for _ in 0..MAX_SAME_INSTANT_BATCH {
            self.submit_one(ctx);
            submitted_now += 1;
            match self.generator.next_arrival_gap(elapsed) {
                None => {
                    next = Some(None);
                    break;
                }
                Some(gap) if gap > Duration::ZERO => {
                    next = Some(Some(gap));
                    break;
                }
                Some(_) => {} // sub-µs gap: same-instant arrival
            }
        }
        self.fold(submitted_now);
        match next {
            Some(Some(gap)) => ctx.set_timer(gap, self.tick.clone()),
            Some(None) => ctx.set_timer(PAUSE_POLL, self.tick.clone()),
            None => ctx.set_timer(Duration::from_micros(1), self.tick.clone()),
        };
    }

    fn handle_reply(&mut self, msg: &M, ctx: &mut Context<'_, M>) {
        let Some((tx_id, committed)) = (self.parse_reply)(msg) else {
            return;
        };
        let Some(pending) = self.pending.get(&tx_id) else {
            return;
        };
        let (submitted_at, sampled) = (pending.submitted_at, pending.sampled);
        let (commits, aborts) = self.reply_counts.entry(tx_id).or_insert((0, 0));
        if committed {
            *commits += 1;
        } else {
            *aborts += 1;
        }
        // Same verdict-quorum rule as the per-actor client: a transaction
        // completes with the verdict `reply_quorum` replicas agree on.
        if *commits < self.reply_quorum && *aborts < self.reply_quorum {
            return;
        }
        let committed = *commits >= self.reply_quorum;
        self.pending.remove(&tx_id);
        self.reply_counts.remove(&tx_id);

        let in_window = submitted_at >= self.window_start && submitted_at < self.window_end;
        let latency = ctx.now().since(submitted_at);
        let mut t = self.tally.lock();
        t.completed += 1;
        if self.peak_inflight > t.peak_inflight {
            t.peak_inflight = self.peak_inflight;
        }
        if in_window {
            if committed {
                t.committed += 1;
                if sampled {
                    t.hist.record(latency.as_micros());
                    t.sampled += 1;
                }
            } else {
                t.aborted += 1;
            }
        }
    }
}

impl<M: MessageMeta + Clone + 'static> Actor<M> for AggregateClientActor<M> {
    fn on_message(&mut self, _from: Addr, msg: M, ctx: &mut Context<'_, M>) {
        // The harness's kick-off message starts the arrival process; every
        // other message is a (potential) reply.
        if !self.started {
            self.started = true;
            self.pump(ctx);
            return;
        }
        self.handle_reply(&msg, ctx);
    }

    fn on_timer(&mut self, _id: TimerId, _msg: M, ctx: &mut Context<'_, M>) {
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_net::{CpuProfile, LatencyMatrix, Simulation};
    use saguaro_types::{ClientId, DomainId, PopulationConfig, Region};

    /// Minimal message type standing in for a protocol stack's.
    #[derive(Clone, Debug)]
    enum TestMsg {
        Request(Transaction),
        Reply { tx_id: TxId, committed: bool },
        Tick,
    }

    impl MessageMeta for TestMsg {
        fn wire_bytes(&self) -> usize {
            64
        }
    }

    fn parse(m: &TestMsg) -> Option<(TxId, bool)> {
        match m {
            TestMsg::Reply { tx_id, committed } => Some((*tx_id, *committed)),
            _ => None,
        }
    }

    /// Echo server standing in for a height-1 primary.
    struct Echo;
    impl Actor<TestMsg> for Echo {
        fn on_message(&mut self, _from: Addr, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            if let TestMsg::Request(tx) = msg {
                ctx.send(
                    Addr::Client(tx.client),
                    TestMsg::Reply {
                        tx_id: tx.id,
                        committed: true,
                    },
                );
            }
        }
        fn on_timer(&mut self, _i: TimerId, _m: TestMsg, _c: &mut Context<'_, TestMsg>) {}
    }

    fn run_population(users: u64, sample_every: u64) -> (PopulationTally, u64) {
        let domain = DomainId::new(1, 0);
        let mut sim: Simulation<TestMsg> =
            Simulation::new(LatencyMatrix::single_region().with_jitter(0.0), 11);
        sim.register(
            NodeId::new(domain, 0),
            Region(0),
            CpuProfile::server(),
            Box::new(Echo),
        );
        let config = PopulationConfig::with_users(users)
            .per_user(1.0)
            .sampled_every(sample_every);
        let generator = PopulationGenerator::new(config, 0, vec![domain], 5);
        let client = generator.client_id();
        let tally: Tally = Arc::new(Mutex::new(PopulationTally::new()));
        let actor = AggregateClientActor::new(
            generator,
            TestMsg::Request,
            TestMsg::Tick,
            parse,
            1,
            1,
            Duration::from_millis(20),
            Duration::from_millis(100),
            tally.clone(),
        );
        sim.register(client, Region(0), CpuProfile::client(), Box::new(actor));
        sim.inject(Addr::Client(ClientId(u64::MAX)), client, TestMsg::Tick);
        let events = sim.run_until(SimTime::from_millis(200));
        let snapshot = tally.lock().clone();
        (snapshot, events)
    }

    #[test]
    fn population_submits_at_the_aggregate_rate_and_tallies_commits() {
        // 1000 users × 1 tps = 1000 tx/s over a 100 ms window ≈ 100 commits.
        let (tally, _) = run_population(1_000, 1);
        assert!(
            (60..=150).contains(&tally.committed),
            "in-window commits {}",
            tally.committed
        );
        assert_eq!(tally.aborted, 0);
        assert_eq!(tally.sampled, tally.committed, "stride 1 samples all");
        assert_eq!(tally.hist.count(), tally.sampled);
        assert!(tally.submitted >= tally.completed);
        assert!(tally.peak_inflight >= 1);
        // Latencies are a fraction of a millisecond on an echo topology.
        assert!(tally.hist.quantile(0.5) < 5_000);
    }

    #[test]
    fn sampling_stride_thins_the_histogram_but_not_the_counts() {
        let (all, _) = run_population(1_000, 1);
        let (thinned, _) = run_population(1_000, 10);
        // Counts are exact regardless of the stride (same seed → same run).
        assert_eq!(all.committed, thinned.committed);
        assert_eq!(all.submitted, thinned.submitted);
        // The histogram holds ~1/10th the samples.
        assert!(thinned.sampled < all.sampled / 5);
        assert!(thinned.sampled > 0);
    }

    #[test]
    fn tally_memory_is_o1_in_transaction_count() {
        // 10× the population (and so ~10× the transactions) must not grow
        // the in-flight high-water mark proportionally: completions stream
        // out, they are not stored.
        let (small, _) = run_population(500, 1);
        let (large, _) = run_population(5_000, 1);
        assert!(large.submitted > small.submitted * 5);
        assert!(
            large.peak_inflight < small.peak_inflight * 5 + 50,
            "peak in-flight {} vs {} suggests per-tx storage",
            large.peak_inflight,
            small.peak_inflight
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let (a, events_a) = run_population(2_000, 4);
        let (b, events_b) = run_population(2_000, 4);
        assert_eq!(events_a, events_b);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.hist.count(), b.hist.count());
        assert_eq!(a.hist.mean(), b.hist.mean());
        assert_eq!(a.hist.quantile(0.99), b.hist.quantile(0.99));
    }
}
