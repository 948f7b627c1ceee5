//! The open-loop client (edge device) actor.
//!
//! Each client owns a precomputed schedule of transactions (produced by the
//! workload generator) and submits them at exponentially distributed
//! inter-arrival times, independent of whether earlier transactions have
//! completed (open loop).  Completion times are pushed into a shared
//! [`Collector`] the experiment harness reads after the run.

use parking_lot::Mutex;
use rand::Rng;
use saguaro_net::{Actor, Addr, Context, MessageMeta, TimerId};
use saguaro_trace::{TraceEvent, TraceEventKind, Tracer};
use saguaro_types::hash::FxHashMap;
use saguaro_types::{ClientId, Duration, SimTime, TxId};
use std::collections::VecDeque;
use std::sync::Arc;

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
    /// True if the reply reported a commit.
    pub committed: bool,
}

/// Shared sink for completed transactions.
pub type Collector = Arc<Mutex<Vec<CompletedTx>>>;

/// An open-loop client actor, generic over the deployment's message type.
pub struct ClientActor<M> {
    id: ClientId,
    /// Precomputed `(request message, destination)` schedule.
    schedule: VecDeque<(TxId, M, Addr)>,
    /// Mean inter-arrival time in microseconds (exponential distribution).
    mean_interarrival_us: f64,
    /// Message used as the self-timer payload.
    tick: M,
    /// Extracts `(tx id, committed)` from a reply message.
    parse_reply: fn(&M) -> Option<(TxId, bool)>,
    /// Number of matching replies needed before a transaction counts as
    /// complete (1 for CFT, f + 1 for BFT).
    reply_quorum: usize,
    pending: FxHashMap<TxId, SimTime>,
    /// Per-transaction `(commit replies, abort replies)` seen so far.  The
    /// two verdicts are counted separately: under BFT, up to f faulty
    /// replicas may send a conflicting verdict, and a transaction must only
    /// complete once `reply_quorum` replicas agree on the *same* outcome.
    reply_counts: FxHashMap<TxId, (usize, usize)>,
    collector: Collector,
    started: bool,
    /// Structured tracing for sampled transaction lifecycle spans.
    tracer: Tracer,
}

impl<M: MessageMeta + Clone + 'static> ClientActor<M> {
    /// Creates a client.
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
        Self {
            id,
            schedule: schedule.into(),
            mean_interarrival_us: mean_interarrival_us.max(1.0),
            tick,
            parse_reply,
            reply_quorum: reply_quorum.max(1),
            pending: FxHashMap::default(),
            reply_counts: FxHashMap::default(),
            collector,
            started: false,
            tracer,
        }
    }

    /// The client identifier.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Drains the trace buffer: `(events, dropped count)`.
    pub fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        self.tracer.take()
    }

    fn submit_next(&mut self, ctx: &mut Context<'_, M>) {
        if let Some((tx_id, msg, target)) = self.schedule.pop_front() {
            self.pending.insert(tx_id, ctx.now());
            if self.tracer.samples(tx_id.0) {
                self.tracer
                    .record(ctx.now(), TraceEventKind::TxSubmitted { tx: tx_id });
            }
            ctx.send(target, msg);
        }
        if !self.schedule.is_empty() {
            let u: f64 = ctx.rng().gen_range(1e-9..1.0f64);
            let wait =
                (-u.ln() * self.mean_interarrival_us).clamp(1.0, 10.0 * self.mean_interarrival_us);
            ctx.set_timer(Duration::from_micros(wait as u64), self.tick.clone());
        }
    }

    fn handle_reply(&mut self, msg: &M, ctx: &mut Context<'_, M>) {
        let Some((tx_id, committed)) = (self.parse_reply)(msg) else {
            return;
        };
        let Some(&submitted_at) = self.pending.get(&tx_id) else {
            return;
        };
        let (commits, aborts) = self.reply_counts.entry(tx_id).or_insert((0, 0));
        if committed {
            *commits += 1;
        } else {
            *aborts += 1;
        }
        // A transaction completes with the verdict that reached the quorum,
        // not with whichever reply happened to arrive at quorum position.
        if *commits < self.reply_quorum && *aborts < self.reply_quorum {
            return;
        }
        let committed = *commits >= self.reply_quorum;
        self.pending.remove(&tx_id);
        self.reply_counts.remove(&tx_id);
        if self.tracer.samples(tx_id.0) {
            self.tracer.record(
                ctx.now(),
                TraceEventKind::TxCompleted {
                    tx: tx_id,
                    committed,
                },
            );
        }
        self.collector.lock().push(CompletedTx {
            tx_id,
            client: self.id,
            submitted_at,
            latency: ctx.now().since(submitted_at),
            committed,
        });
    }
}

impl<M: MessageMeta + Clone + 'static> Actor<M> for ClientActor<M> {
    fn on_message(&mut self, _from: Addr, msg: M, ctx: &mut Context<'_, M>) {
        // The kick-off message injected by the harness starts the schedule;
        // every other message is treated as a (potential) reply.
        if !self.started {
            self.started = true;
            self.submit_next(ctx);
            return;
        }
        self.handle_reply(&msg, ctx);
    }

    fn on_timer(&mut self, _id: TimerId, _msg: M, ctx: &mut Context<'_, M>) {
        self.submit_next(ctx);
    }

    fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_core::SaguaroMsg;
    use saguaro_net::{CpuProfile, LatencyMatrix, Simulation};
    use saguaro_types::{DomainId, NodeId, Operation, Region, Transaction};

    fn parse(m: &SaguaroMsg) -> Option<(TxId, bool)> {
        match m {
            SaguaroMsg::Reply { tx_id, committed } => Some((*tx_id, *committed)),
            _ => None,
        }
    }

    /// Echo server standing in for a height-1 primary.
    struct Echo;
    impl Actor<SaguaroMsg> for Echo {
        fn on_message(&mut self, from: Addr, msg: SaguaroMsg, ctx: &mut Context<'_, SaguaroMsg>) {
            if let SaguaroMsg::ClientRequest(tx) = msg {
                ctx.send(
                    from,
                    SaguaroMsg::Reply {
                        tx_id: tx.id,
                        committed: true,
                    },
                );
            }
        }
        fn on_timer(&mut self, _i: TimerId, _m: SaguaroMsg, _c: &mut Context<'_, SaguaroMsg>) {}
    }

    #[test]
    fn client_submits_schedule_and_records_latencies() {
        let mut sim: Simulation<SaguaroMsg> =
            Simulation::new(LatencyMatrix::single_region().with_jitter(0.0), 1);
        let server = NodeId::new(DomainId::new(1, 0), 0);
        sim.register(server, Region(0), CpuProfile::server(), Box::new(Echo));

        let collector: Collector = Arc::new(Mutex::new(Vec::new()));
        let client_id = ClientId(1);
        let schedule: Vec<(TxId, SaguaroMsg, Addr)> = (0..5)
            .map(|i| {
                let tx =
                    Transaction::internal(TxId(i), client_id, DomainId::new(1, 0), Operation::Noop);
                (TxId(i), SaguaroMsg::ClientRequest(tx), Addr::Node(server))
            })
            .collect();
        let client = ClientActor::new(
            client_id,
            schedule,
            500.0,
            SaguaroMsg::ClientTick,
            parse,
            1,
            collector.clone(),
            Tracer::disabled(),
        );
        sim.register(client_id, Region(0), CpuProfile::client(), Box::new(client));
        // Kick off.
        sim.inject(
            Addr::Client(ClientId(999)),
            client_id,
            SaguaroMsg::ClientTick,
        );
        sim.run_to_completion(10_000);

        let done = collector.lock();
        assert_eq!(done.len(), 5);
        assert!(done.iter().all(|c| c.committed));
        assert!(done.iter().all(|c| c.latency > Duration::ZERO));
    }

    #[test]
    fn reply_quorum_requires_multiple_replies() {
        // A client with reply_quorum = 2 ignores a single reply.
        let collector: Collector = Arc::new(Mutex::new(Vec::new()));
        let tx = Transaction::internal(TxId(1), ClientId(1), DomainId::new(1, 0), Operation::Noop);
        let schedule = vec![(
            TxId(1),
            SaguaroMsg::ClientRequest(tx),
            Addr::Node(NodeId::new(DomainId::new(1, 0), 0)),
        )];
        let mut sim: Simulation<SaguaroMsg> = Simulation::new(LatencyMatrix::single_region(), 2);
        let client = ClientActor::new(
            ClientId(1),
            schedule,
            100.0,
            SaguaroMsg::ClientTick,
            parse,
            2,
            collector.clone(),
            Tracer::disabled(),
        );
        sim.register(
            ClientId(1),
            Region(0),
            CpuProfile::client(),
            Box::new(client),
        );
        sim.inject(ClientId(99), ClientId(1), SaguaroMsg::ClientTick);
        // One reply only.
        sim.inject(
            NodeId::new(DomainId::new(1, 0), 0),
            ClientId(1),
            SaguaroMsg::Reply {
                tx_id: TxId(1),
                committed: true,
            },
        );
        sim.run_to_completion(1_000);
        assert!(collector.lock().is_empty());
    }

    #[test]
    fn conflicting_verdicts_do_not_count_toward_one_quorum() {
        // BFT with f = 1: reply_quorum = 2.  One faulty replica reports an
        // abort before two honest replicas report the commit.  The old
        // counter lumped both verdicts together and completed the transaction
        // at the second reply — with whatever verdict that reply carried.
        let collector: Collector = Arc::new(Mutex::new(Vec::new()));
        let server = NodeId::new(DomainId::new(1, 0), 0);
        let tx = Transaction::internal(TxId(1), ClientId(1), DomainId::new(1, 0), Operation::Noop);
        let schedule = vec![(TxId(1), SaguaroMsg::ClientRequest(tx), Addr::Node(server))];
        let mut sim: Simulation<SaguaroMsg> =
            Simulation::new(LatencyMatrix::single_region().with_jitter(0.0), 2);
        let client = ClientActor::new(
            ClientId(1),
            schedule,
            100.0,
            SaguaroMsg::ClientTick,
            parse,
            2,
            collector.clone(),
            Tracer::disabled(),
        );
        sim.register(
            ClientId(1),
            Region(0),
            CpuProfile::client(),
            Box::new(client),
        );
        sim.inject(ClientId(99), ClientId(1), SaguaroMsg::ClientTick);
        let reply = |committed: bool| SaguaroMsg::Reply {
            tx_id: TxId(1),
            committed,
        };
        // f = 1 conflicting (abort) reply first, then two matching commits.
        sim.inject(
            NodeId::new(DomainId::new(1, 0), 1),
            ClientId(1),
            reply(false),
        );
        sim.run_to_completion(1_000);
        assert!(
            collector.lock().is_empty(),
            "one abort must not complete a quorum-2 transaction"
        );
        sim.inject(
            NodeId::new(DomainId::new(1, 0), 2),
            ClientId(1),
            reply(true),
        );
        sim.run_to_completion(1_000);
        assert!(
            collector.lock().is_empty(),
            "abort + commit is no quorum for either verdict"
        );
        sim.inject(
            NodeId::new(DomainId::new(1, 0), 3),
            ClientId(1),
            reply(true),
        );
        sim.run_to_completion(1_000);
        let done = collector.lock();
        assert_eq!(done.len(), 1);
        assert!(
            done[0].committed,
            "the verdict must be the one that reached quorum (commit), \
             not the first reply's abort"
        );
        assert_eq!(done[0].client, ClientId(1));
    }
}
