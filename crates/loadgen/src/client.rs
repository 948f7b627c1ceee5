//! The client: one simulator actor that submits transactions open-loop and
//! completes each with the verdict its reply quorum agrees on, generic over
//! where its arrivals come from.
//!
//! Saguaro's transactions are initiated by edge devices.  The harness models
//! them in one of two ways, and both are [`Client`] over a different
//! [`ArrivalSource`]:
//!
//! * [`Schedule`] — one actor per device over a precomputed `(tx, request,
//!   replica)` queue, exponential gaps drawn from the simulator's RNG, every
//!   completion pushed to a [`Collector`] as an exact [`CompletedTx`].  This
//!   instantiation is [`ClientActor`].
//! * [`Population`] — one actor per height-1 domain standing in for the
//!   domain's whole population: arrivals from a [`PopulationGenerator`],
//!   sub-microsecond gaps submitted in the same virtual instant (exact under
//!   microsecond-granular time, so the actor arms one timer per *positive*
//!   gap, not one per modeled user), completions folded into a shared
//!   [`PopulationTally`] — client memory is O(in-flight), never
//!   O(transactions).  This instantiation is [`AggregateClientActor`].
//!
//! Written once, for both: the kick-off / tick dispatch, the in-flight map,
//! the verdict-quorum rule and the `TxSubmitted` / `TxCompleted` spans.

use crate::hist::LatencyHistogram;
use crate::population::PopulationGenerator;
use parking_lot::Mutex;
use rand::Rng;
use saguaro_net::{Actor, Addr, Context, MessageMeta, TimerId};
use saguaro_trace::{TraceEvent, TraceEventKind, Tracer};
use saguaro_types::hash::FxHashMap;
use saguaro_types::{ClientId, Duration, NodeId, SimTime, Transaction, TxId};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// How long a fully-paused population (envelope level 0) waits before
/// re-checking its rate.
const PAUSE_POLL: Duration = Duration::from_millis(1);

/// Same-instant submissions per timer event before yielding with a 1 µs
/// timer — a safety valve against extreme configured rates, not a cap on
/// throughput (the loop resumes immediately).
const MAX_SAME_INSTANT_BATCH: u64 = 4_096;

/// One completed (or aborted) transaction as observed by a client.
#[derive(Clone, Debug)]
pub struct CompletedTx {
    /// The transaction.
    pub tx_id: TxId,
    /// The client that submitted it.
    pub client: ClientId,
    /// When the client submitted it.
    pub submitted_at: SimTime,
    /// End-to-end latency (submission to reply quorum).
    pub latency: Duration,
    /// True if the reply quorum reported a commit.
    pub committed: bool,
}

/// Shared sink of a [`Schedule`]'s completions.
pub type Collector = Arc<Mutex<Vec<CompletedTx>>>;

/// Streaming run statistics shared by every [`Population`] of a deployment.
#[derive(Clone, Debug, Default)]
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
    /// High-water mark of any single actor's in-flight transaction map —
    /// the client-side memory proxy (steady-state, not O(total txs)).
    pub peak_inflight: usize,
}

impl PopulationTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latency samples recorded into the histogram.
    pub fn sampled(&self) -> u64 {
        self.hist.count()
    }

    /// Folds in one completion: it counts towards `completed`; if it was
    /// submitted inside `window` it also counts by verdict, and a sampled
    /// commit records its latency.
    pub fn complete(
        &mut self,
        submitted_at: SimTime,
        latency: Duration,
        committed: bool,
        sampled: bool,
        window: &Range<SimTime>,
    ) {
        self.completed += 1;
        if !window.contains(&submitted_at) {
            return;
        }
        if !committed {
            self.aborted += 1;
            return;
        }
        self.committed += 1;
        if sampled {
            self.hist.record(latency.as_micros());
        }
    }
}

/// Shared handle to the run's [`PopulationTally`].
pub type Tally = Arc<Mutex<PopulationTally>>;

/// One submitted transaction awaiting a verdict quorum.
#[derive(Clone, Copy, Debug)]
pub struct Flight {
    /// When it was submitted.
    pub(crate) submitted_at: SimTime,
    /// Whether its source records the completion's latency.
    pub(crate) sampled: bool,
    commits: u32,
    aborts: u32,
}

/// A client's in-flight transactions and its span tracer: what an
/// [`ArrivalSource`] submits through.
pub struct InFlight {
    map: FxHashMap<TxId, Flight>,
    tracer: Tracer,
}

impl InFlight {
    /// Records `tx` as in flight from now and sends `request` to `to`.
    pub(crate) fn submit<M: MessageMeta>(
        &mut self,
        tx: TxId,
        sampled: bool,
        request: M,
        to: Addr,
        ctx: &mut Context<'_, M>,
    ) {
        let flight = Flight {
            submitted_at: ctx.now(),
            sampled,
            commits: 0,
            aborts: 0,
        };
        self.map.insert(tx, flight);
        if self.tracer.samples(tx.0) {
            self.tracer
                .record(ctx.now(), TraceEventKind::TxSubmitted { tx });
        }
        ctx.send(to, request);
    }

    /// Transactions in flight.
    pub(crate) fn count(&self) -> usize {
        self.map.len()
    }
}

/// Where a [`Client`]'s arrivals come from and where its completions go:
/// [`Schedule`] or [`Population`].
pub trait ArrivalSource<M> {
    /// Submits every arrival due now through `flights`; returns the delay
    /// to the next tick, or `None` once nothing is left to submit.
    fn pump(&mut self, flights: &mut InFlight, ctx: &mut Context<'_, M>) -> Option<Duration>;

    /// Takes a transaction whose verdict reached the reply quorum at `now`.
    fn complete(&mut self, tx: TxId, flight: Flight, committed: bool, now: SimTime);
}

/// An open-loop client actor over arrival source `S`, generic over the
/// deployment's message type.
///
/// The harness's kick-off message starts the arrivals; every later message
/// is a potential reply.  Must be registered at the `ClientId` its
/// transactions carry: protocol nodes reply to that identity, not to the
/// message sender.
pub struct Client<M, S> {
    source: S,
    tick: M,
    parse_reply: fn(&M) -> Option<(TxId, bool)>,
    /// Matching replies a verdict needs (1 for CFT, f + 1 for BFT).
    reply_quorum: u32,
    flights: InFlight,
    started: bool,
}

impl<M, S> Client<M, S> {
    fn with_source(
        source: S,
        tick: M,
        parse_reply: fn(&M) -> Option<(TxId, bool)>,
        reply_quorum: usize,
        tracer: Tracer,
    ) -> Self {
        assert!(reply_quorum >= 1, "a client's reply quorum must be >= 1");
        Self {
            source,
            tick,
            parse_reply,
            reply_quorum: reply_quorum as u32,
            flights: InFlight {
                map: FxHashMap::default(),
                tracer,
            },
            started: false,
        }
    }

    /// Drains the span buffer: `(events, dropped count)`.
    pub fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        self.flights.tracer.take()
    }
}

impl<M: MessageMeta + Clone, S: ArrivalSource<M>> Client<M, S> {
    fn pump(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(wait) = self.source.pump(&mut self.flights, ctx) {
            ctx.set_timer(wait, self.tick.clone());
        }
    }

    /// Counts one reply's verdict.  Commits and aborts are counted apart:
    /// under BFT up to f faulty replicas may send a conflicting verdict, so
    /// a transaction completes with the verdict `reply_quorum` replicas
    /// agree on, not with whichever reply arrives at quorum position.
    fn on_reply(&mut self, msg: &M, ctx: &mut Context<'_, M>) {
        let Some((tx, committed)) = (self.parse_reply)(msg) else {
            return;
        };
        let Some(flight) = self.flights.map.get_mut(&tx) else {
            return;
        };
        if committed {
            flight.commits += 1;
        } else {
            flight.aborts += 1;
        }
        if flight.commits < self.reply_quorum && flight.aborts < self.reply_quorum {
            return;
        }
        let committed = flight.commits >= self.reply_quorum;
        let flight = *flight;
        self.flights.map.remove(&tx);
        if self.flights.tracer.samples(tx.0) {
            self.flights
                .tracer
                .record(ctx.now(), TraceEventKind::TxCompleted { tx, committed });
        }
        self.source.complete(tx, flight, committed, ctx.now());
    }
}

impl<M, S> Actor<M> for Client<M, S>
where
    M: MessageMeta + Clone + 'static,
    S: ArrivalSource<M> + 'static,
{
    fn on_message(&mut self, _from: Addr, msg: M, ctx: &mut Context<'_, M>) {
        if !self.started {
            self.started = true;
            self.pump(ctx);
            return;
        }
        self.on_reply(&msg, ctx);
    }

    fn on_timer(&mut self, _id: TimerId, _msg: M, ctx: &mut Context<'_, M>) {
        self.pump(ctx);
    }

    fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// One device's precomputed open-loop schedule: submitted one request per
/// exponential gap (drawn from the simulator's RNG, clamped to
/// `[1 µs, 10 × mean]`), every completion pushed to a [`Collector`].
pub struct Schedule<M> {
    client: ClientId,
    queue: VecDeque<(TxId, M, Addr)>,
    mean_gap_us: f64,
    collector: Collector,
}

impl<M: MessageMeta> ArrivalSource<M> for Schedule<M> {
    fn pump(&mut self, flights: &mut InFlight, ctx: &mut Context<'_, M>) -> Option<Duration> {
        if let Some((tx, request, to)) = self.queue.pop_front() {
            flights.submit(tx, true, request, to, ctx);
        }
        if self.queue.is_empty() {
            return None;
        }
        let u: f64 = ctx.rng().gen_range(1e-9..1.0f64);
        let wait = (-u.ln() * self.mean_gap_us).clamp(1.0, 10.0 * self.mean_gap_us);
        Some(Duration::from_micros(wait as u64))
    }

    fn complete(&mut self, tx: TxId, flight: Flight, committed: bool, now: SimTime) {
        self.collector.lock().push(CompletedTx {
            tx_id: tx,
            client: self.client,
            submitted_at: flight.submitted_at,
            latency: now.since(flight.submitted_at),
            committed,
        });
    }
}

/// The per-device client: one actor over a precomputed [`Schedule`].
pub type ClientActor<M> = Client<M, Schedule<M>>;

impl<M> ClientActor<M> {
    /// A device `id` submitting `schedule` at exponential gaps of mean
    /// `mean_interarrival_us` (at least 1 µs).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: ClientId,
        schedule: Vec<(TxId, M, Addr)>,
        mean_interarrival_us: f64,
        tick: M,
        parse_reply: fn(&M) -> Option<(TxId, bool)>,
        reply_quorum: usize,
        collector: Collector,
        tracer: Tracer,
    ) -> Self {
        assert!(
            mean_interarrival_us >= 1.0,
            "a client's mean inter-arrival must be >= 1 µs, got {mean_interarrival_us}"
        );
        let source = Schedule {
            client: id,
            queue: schedule.into(),
            mean_gap_us: mean_interarrival_us,
            collector,
        };
        Self::with_source(source, tick, parse_reply, reply_quorum, tracer)
    }
}

/// One domain's whole population: arrivals from a [`PopulationGenerator`]
/// until the submit horizon, sampled completions folded into a [`Tally`].
pub struct Population<M> {
    generator: PopulationGenerator,
    wrap: fn(Transaction) -> M,
    /// Replicas per domain submissions are spread over (1 in failure-free
    /// runs: everything goes to replica 0, the view-0 primary).
    replica_spread: u64,
    /// The measurement window a completion's submission must fall in.
    window: Range<SimTime>,
    /// Submissions stop here (the window's end plus a drain margin).
    submit_until: SimTime,
    sample_stride: u64,
    submitted: u64,
    tally: Tally,
}

impl<M: MessageMeta> ArrivalSource<M> for Population<M> {
    fn pump(&mut self, flights: &mut InFlight, ctx: &mut Context<'_, M>) -> Option<Duration> {
        if ctx.now() >= self.submit_until {
            return None;
        }
        let elapsed = ctx.now().since(SimTime::ZERO);
        let mut batch = 0;
        let next = loop {
            let (tx, submit_to) = self.generator.next_tx();
            let to = Addr::Node(NodeId::new(
                submit_to,
                (tx.id.0 % self.replica_spread) as u16,
            ));
            let sampled = self.submitted.is_multiple_of(self.sample_stride);
            self.submitted += 1;
            batch += 1;
            flights.submit(tx.id, sampled, (self.wrap)(tx), to, ctx);
            match self.generator.next_arrival_gap(elapsed) {
                None => break PAUSE_POLL,
                Some(gap) if gap > Duration::ZERO => break gap,
                Some(_) if batch == MAX_SAME_INSTANT_BATCH => break Duration::from_micros(1),
                Some(_) => {} // sub-µs gap: same-instant arrival
            }
        };
        let mut tally = self.tally.lock();
        tally.submitted += batch;
        tally.peak_inflight = tally.peak_inflight.max(flights.count());
        Some(next)
    }

    fn complete(&mut self, _tx: TxId, flight: Flight, committed: bool, now: SimTime) {
        self.tally.lock().complete(
            flight.submitted_at,
            now.since(flight.submitted_at),
            committed,
            flight.sampled,
            &self.window,
        );
    }
}

/// One domain's aggregate client population as a single actor; register it
/// at `generator.client_id()`.
pub type AggregateClientActor<M> = Client<M, Population<M>>;

impl<M> AggregateClientActor<M> {
    /// The actor for one domain's population, counting completions of
    /// transactions submitted in `[warmup, warmup + measure)`.  It records
    /// no spans.
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
        assert!(
            replica_spread >= 1,
            "a population's replica spread must be >= 1"
        );
        let start = SimTime::ZERO + warmup;
        let end = start + measure;
        let source = Population {
            sample_stride: generator.sample_stride(),
            generator,
            wrap,
            replica_spread,
            window: start..end,
            submit_until: end + Duration::from_millis(200),
            submitted: 0,
            tally,
        };
        Self::with_source(source, tick, parse_reply, reply_quorum, Tracer::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_net::{CpuProfile, LatencyMatrix, Simulation};
    use saguaro_types::{DomainId, Operation, PopulationConfig, Region};

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

    fn server(replica: u16) -> NodeId {
        NodeId::new(DomainId::new(1, 0), replica)
    }

    /// Echo server standing in for a height-1 primary: commits everything.
    struct Echo;
    impl Actor<TestMsg> for Echo {
        fn on_message(&mut self, _from: Addr, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            if let TestMsg::Request(tx) = msg {
                let reply = TestMsg::Reply {
                    tx_id: tx.id,
                    committed: true,
                };
                ctx.send(Addr::Client(tx.client), reply);
            }
        }
        fn on_timer(&mut self, _i: TimerId, _m: TestMsg, _c: &mut Context<'_, TestMsg>) {}
    }

    /// A simulator with a client over `txs` scheduled transactions at
    /// `ClientId(1)`, kicked off; with `echo`, replica 0 answers them.
    fn schedule_run(txs: u64, reply_quorum: usize, echo: bool) -> (Simulation<TestMsg>, Collector) {
        let mut sim: Simulation<TestMsg> =
            Simulation::new(LatencyMatrix::single_region().with_jitter(0.0), 1);
        if echo {
            sim.register(server(0), Region(0), CpuProfile::server(), Box::new(Echo));
        }
        let collector: Collector = Arc::new(Mutex::new(Vec::new()));
        let schedule = (0..txs)
            .map(|i| {
                let tx = Transaction::internal(
                    TxId(i),
                    ClientId(1),
                    DomainId::new(1, 0),
                    Operation::Noop,
                );
                (TxId(i), TestMsg::Request(tx), Addr::Node(server(0)))
            })
            .collect();
        let client = ClientActor::new(
            ClientId(1),
            schedule,
            500.0,
            TestMsg::Tick,
            parse,
            reply_quorum,
            collector.clone(),
            Tracer::disabled(),
        );
        sim.register(
            ClientId(1),
            Region(0),
            CpuProfile::client(),
            Box::new(client),
        );
        sim.inject(ClientId(99), ClientId(1), TestMsg::Tick);
        (sim, collector)
    }

    #[test]
    fn a_schedule_submits_every_transaction_and_collects_every_completion() {
        let (mut sim, collector) = schedule_run(5, 1, true);
        sim.run_to_completion(10_000);
        let done = collector.lock();
        assert_eq!(done.len(), 5);
        assert!(done
            .iter()
            .all(|c| c.committed && c.latency > Duration::ZERO));
    }

    #[test]
    fn conflicting_verdicts_do_not_count_toward_one_quorum() {
        // BFT with f = 1: reply_quorum = 2.  One faulty replica reports an
        // abort before two honest replicas report the commit.
        let (mut sim, collector) = schedule_run(1, 2, false);
        for (replica, committed, completes) in
            [(1, false, false), (2, true, false), (3, true, true)]
        {
            let reply = TestMsg::Reply {
                tx_id: TxId(0),
                committed,
            };
            sim.inject(server(replica), ClientId(1), reply);
            sim.run_to_completion(1_000);
            assert_eq!(
                collector.lock().len(),
                usize::from(completes),
                "after replica {replica}"
            );
        }
        let done = collector.lock();
        assert!(
            done[0].committed,
            "the verdict must be the one that reached quorum (commit), not the first reply's abort"
        );
        assert_eq!(done[0].client, ClientId(1));
    }

    fn run_population(users: u64, sample_every: u64) -> PopulationTally {
        let domain = DomainId::new(1, 0);
        let mut sim: Simulation<TestMsg> =
            Simulation::new(LatencyMatrix::single_region().with_jitter(0.0), 11);
        sim.register(server(0), Region(0), CpuProfile::server(), Box::new(Echo));
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
        sim.run_until(SimTime::from_millis(200));
        let snapshot = tally.lock().clone();
        snapshot
    }

    #[test]
    fn population_submits_at_the_aggregate_rate_and_tallies_commits() {
        // 1000 users × 1 tps = 1000 tx/s over a 100 ms window ≈ 100 commits.
        let tally = run_population(1_000, 1);
        assert!(
            (60..=150).contains(&tally.committed),
            "in-window commits {}",
            tally.committed
        );
        assert_eq!(tally.aborted, 0);
        assert_eq!(tally.sampled(), tally.committed, "stride 1 samples all");
        assert!(tally.submitted >= tally.completed);
        assert!(tally.peak_inflight >= 1);
        // Latencies are a fraction of a millisecond on an echo topology.
        assert!(tally.hist.quantile(0.5) < 5_000);
    }

    #[test]
    fn sampling_stride_thins_the_histogram_but_not_the_counts() {
        let all = run_population(1_000, 1);
        let thinned = run_population(1_000, 10);
        // Counts are exact regardless of the stride (same seed → same run).
        assert_eq!(all.committed, thinned.committed);
        assert_eq!(all.submitted, thinned.submitted);
        // The histogram holds ~1/10th the samples.
        assert!(thinned.sampled() < all.sampled() / 5);
        assert!(thinned.sampled() > 0);
    }
}
