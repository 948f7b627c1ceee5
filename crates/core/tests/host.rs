//! The replica host driven by a toy application: no hierarchy tree, no
//! workload, one replica group on a bare simulator.

use saguaro_consensus::{Batch, Command, ConsensusMsg, MsgBody};
use saguaro_core::host::BATCH_FLUSH_DELAY;
use saguaro_core::{HostedReplica, ReplicaHost};
use saguaro_net::{
    Actor, Addr, Context, CpuProfile, LatencyMatrix, MessageMeta, Simulation, TimerId,
};
use saguaro_trace::TraceEventKind;
use saguaro_types::{
    BatchConfig, CheckpointConfig, ClientId, DomainId, Duration, FailureModel, LivenessConfig,
    NodeId, Operation, QuorumSpec, Region, SeqNo, SimTime, StackConfig, StateSnapshot, TraceConfig,
    Transaction, TxId,
};

/// The toy command: a transaction, ordered as is.
#[derive(Clone, Debug, PartialEq)]
struct ToyCmd(Transaction);

impl Command for ToyCmd {
    fn digest(&self) -> saguaro_crypto::Digest {
        saguaro_crypto::sha256(&self.0.id.0.to_be_bytes())
    }
}

#[derive(Clone, Debug)]
enum ToyMsg {
    Request(Transaction),
    Reply,
    Consensus(ConsensusMsg<ToyCmd>),
    BatchTimer,
    ProgressTimer,
}

impl MessageMeta for ToyMsg {
    fn wire_bytes(&self) -> usize {
        100
    }

    fn signatures(&self) -> usize {
        0
    }
}

/// What a toy replica did, in order.
#[derive(Debug, PartialEq)]
enum Event {
    Applied(u64),
    Snapshot(SeqNo),
}

/// Applies a command by counting it and answering its client; applying
/// transaction `n` below `follow_ups` proposes `n + 1`.
struct Toy {
    host: ReplicaHost<ToyCmd>,
    applied: u64,
    follow_ups: u64,
    events: Vec<Event>,
}

impl Toy {
    fn new(host: ReplicaHost<ToyCmd>) -> Self {
        Self {
            host,
            applied: 0,
            follow_ups: 0,
            events: Vec::new(),
        }
    }
}

impl HostedReplica for Toy {
    type Cmd = ToyCmd;
    type Msg = ToyMsg;
    const BATCH_TIMER: ToyMsg = ToyMsg::BatchTimer;
    const PROGRESS_TIMER: ToyMsg = ToyMsg::ProgressTimer;

    fn host_mut(&mut self) -> &mut ReplicaHost<ToyCmd> {
        &mut self.host
    }

    fn consensus_msg(msg: ConsensusMsg<ToyCmd>) -> ToyMsg {
        ToyMsg::Consensus(msg)
    }

    fn reply_msg(_tx_id: TxId, _committed: bool) -> ToyMsg {
        ToyMsg::Reply
    }

    fn consensus_wire_bytes(_msg: &ConsensusMsg<ToyCmd>) -> usize {
        100
    }

    fn command_tx(cmd: &ToyCmd) -> Option<&Transaction> {
        Some(&cmd.0)
    }

    fn command_fingerprint(cmd: &ToyCmd) -> u64 {
        cmd.0.id.0
    }

    fn apply_command(&mut self, cmd: &ToyCmd, ctx: &mut Context<'_, ToyMsg>) {
        self.applied += 1;
        self.events.push(Event::Applied(cmd.0.id.0));
        self.note_reply_target(&cmd.0);
        self.reply(cmd.0.id, true, ctx);
        let next = cmd.0.id.0 + 1;
        if next <= self.follow_ups {
            let tx = Transaction::internal(TxId(next), CLIENT, node(0).domain, Operation::Noop);
            self.propose(ToyCmd(tx), ctx);
        }
    }

    fn snapshot_app_state(&mut self, seq: SeqNo, delivery_hash: Option<u64>) -> StateSnapshot {
        self.events.push(Event::Snapshot(seq));
        StateSnapshot {
            seq,
            delivery_hash,
            ..StateSnapshot::default()
        }
    }

    fn install_app_state(&mut self, _snapshot: &StateSnapshot) {}

    fn work_pending(&self) -> bool {
        false
    }
}

impl Actor<ToyMsg> for Toy {
    fn on_message(&mut self, from: Addr, msg: ToyMsg, ctx: &mut Context<'_, ToyMsg>) {
        match msg {
            ToyMsg::Request(tx) => {
                self.host.note_request(&tx);
                self.propose(ToyCmd(tx), ctx);
            }
            ToyMsg::Consensus(m) => self.on_consensus_message(from, m, ctx),
            ToyMsg::ProgressTimer => self.kick_progress_timer(ctx),
            ToyMsg::Reply | ToyMsg::BatchTimer => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, msg: ToyMsg, ctx: &mut Context<'_, ToyMsg>) {
        match msg {
            ToyMsg::BatchTimer => self.on_batch_timer(ctx),
            ToyMsg::ProgressTimer => self.on_progress_timer(ctx),
            _ => {}
        }
    }

    fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The client: counts the replies it receives.
struct Sink(u64);

impl Actor<ToyMsg> for Sink {
    fn on_message(&mut self, _from: Addr, msg: ToyMsg, _ctx: &mut Context<'_, ToyMsg>) {
        if matches!(msg, ToyMsg::Reply) {
            self.0 += 1;
        }
    }

    fn on_timer(&mut self, _id: TimerId, _msg: ToyMsg, _ctx: &mut Context<'_, ToyMsg>) {}

    fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

const CLIENT: ClientId = ClientId(9);

fn node(i: u16) -> NodeId {
    NodeId::new(DomainId::new(1, 0), i)
}

fn ms(t: u64) -> SimTime {
    SimTime::from_micros(t * 1_000)
}

/// One replica group of the given failure model (f = 1) plus the client.
fn group(model: FailureModel, stack: StackConfig) -> Simulation<ToyMsg> {
    let quorum = QuorumSpec::for_faults(model, 1);
    let peers: Vec<NodeId> = (0..quorum.n as u16).map(node).collect();
    let mut sim = Simulation::new(LatencyMatrix::single_region(), 7);
    for id in &peers {
        let host = ReplicaHost::new(*id, peers.clone(), quorum, stack);
        let toy = Toy::new(host);
        sim.register(*id, Region::LOCAL, CpuProfile::server(), Box::new(toy));
    }
    sim.register(
        CLIENT,
        Region::LOCAL,
        CpuProfile::client(),
        Box::new(Sink(0)),
    );
    sim
}

/// A peer's state reply committing through sequence number 1, carrying
/// request `id` at sequence number `id` for each of `ids`.
fn state_reply(ids: &[u64]) -> ToyMsg {
    let noop = |id| Transaction::internal(TxId(id), CLIENT, node(0).domain, Operation::Noop);
    let entries = ids.iter().map(|&id| (id, Batch::single(ToyCmd(noop(id)))));
    let body = MsgBody::StateReply {
        entries: entries.collect(),
        committed_to: 1,
    };
    let model = FailureModel::Crash;
    ToyMsg::Consensus(ConsensusMsg { model, body })
}

fn request(sim: &mut Simulation<ToyMsg>, to: NodeId, id: u64, at: SimTime) {
    let tx = Transaction::internal(TxId(id), CLIENT, to.domain, Operation::Noop);
    sim.inject_at(at, CLIENT, to, ToyMsg::Request(tx));
}

fn toy<R>(sim: &mut Simulation<ToyMsg>, id: NodeId, f: impl FnOnce(&mut Toy) -> R) -> R {
    sim.with_actor(id, |a| f(a.as_any().unwrap().downcast_mut().unwrap()))
        .expect("registered")
}

fn replies(sim: &mut Simulation<ToyMsg>) -> u64 {
    sim.with_actor(CLIENT, |a| {
        a.as_any().unwrap().downcast_mut::<Sink>().unwrap().0
    })
    .expect("registered")
}

#[test]
fn flush_timer_is_armed_once_while_commands_pool_and_cancelled_by_a_size_cut() {
    let stack = StackConfig {
        batch: BatchConfig::with_max_batch(3),
        ..StackConfig::default()
    };
    let mut sim = group(FailureModel::Crash, stack);
    // Two commands pool at the leader: one flush timer, not two.
    request(&mut sim, node(0), 1, ms(0));
    request(&mut sim, node(0), 2, ms(1));
    sim.run_until(ms(2));
    assert_eq!(sim.live_timers(), 1);
    assert_eq!(toy(&mut sim, node(0), |t| t.applied), 0);
    // The third fills the block: cut by size, timer cancelled unfired.
    request(&mut sim, node(0), 3, ms(2));
    sim.run_until(ms(10));
    assert_eq!((sim.live_timers(), sim.stats().timers_fired), (0, 0));
    assert_eq!(toy(&mut sim, node(0), |t| t.applied), 3);
    // A lone straggler is cut by the timer instead, one flush delay later.
    request(&mut sim, node(0), 4, ms(10));
    sim.run_until(ms(10) + Duration::from_micros(BATCH_FLUSH_DELAY.as_micros() - 1));
    assert_eq!(toy(&mut sim, node(0), |t| t.applied), 3);
    sim.run_until(ms(100));
    assert_eq!((sim.live_timers(), sim.stats().timers_fired), (0, 1));
    assert_eq!(toy(&mut sim, node(0), |t| t.applied), 4);
}

#[test]
fn unbatched_hosts_never_arm_a_flush_timer() {
    let mut sim = group(FailureModel::Crash, StackConfig::default());
    request(&mut sim, node(0), 1, ms(0));
    while sim.step() {
        assert_eq!(sim.live_timers(), 0);
    }
    assert_eq!(sim.stats().timers_fired, 0);
    assert_eq!(toy(&mut sim, node(0), |t| t.applied), 1);
}

#[test]
fn a_kick_never_doubles_a_live_progress_loop() {
    let window = LivenessConfig::standard().progress_timeout;
    let stack = StackConfig {
        liveness: LivenessConfig::standard(),
        ..StackConfig::default()
    };
    let mut sim = group(FailureModel::Crash, stack);
    sim.inject_at(ms(0), CLIENT, node(1), ToyMsg::ProgressTimer);
    sim.inject_at(ms(1), CLIENT, node(1), ToyMsg::ProgressTimer);
    sim.run_until(ms(2));
    assert_eq!(
        sim.live_timers(),
        1,
        "the second kick replaced the first loop"
    );
    // One loop fires once per window; a doubled one would fire twice.
    sim.run_until(ms(2) + Duration::from_micros(3 * window.as_micros()));
    assert_eq!((sim.live_timers(), sim.stats().timers_fired), (1, 3));
    // With liveness off a kick arms nothing.
    let mut sim = group(FailureModel::Crash, StackConfig::default());
    sim.inject_at(ms(0), CLIENT, node(1), ToyMsg::ProgressTimer);
    sim.run_until(ms(2));
    assert_eq!(sim.live_timers(), 0);
}

#[test]
fn byzantine_backups_reply_without_having_seen_the_request_crash_backups_do_not() {
    // Only the primary receives the request in either model.
    for (model, expected) in [(FailureModel::Byzantine, 4), (FailureModel::Crash, 1)] {
        let mut sim = group(model, StackConfig::default());
        request(&mut sim, node(0), 1, ms(0));
        sim.run_until(ms(50));
        assert_eq!(toy(&mut sim, node(1), |t| t.applied), 1, "{model:?}");
        assert_eq!(replies(&mut sim), expected, "{model:?}");
    }
}

#[test]
fn a_state_reply_that_delivers_nothing_is_not_a_catch_up() {
    let stack = StackConfig {
        checkpoint: CheckpointConfig::every(4),
        ..StackConfig::default()
    };
    let mut sim = group(FailureModel::Crash, stack);
    sim.inject_at(ms(0), node(0), node(2), state_reply(&[]));
    sim.run_until(ms(1));
    let stats = toy(&mut sim, node(2), |t| t.host.stats().clone());
    assert_eq!((stats.caught_up_at, stats.state_transfer_bytes), (None, 0));
    // The same reply carrying the missing entry is one.
    sim.inject_at(ms(1), node(0), node(2), state_reply(&[1]));
    sim.run_until(ms(2));
    let stats = toy(&mut sim, node(2), |t| t.host.stats().clone());
    assert!(stats.caught_up_at.is_some());
    assert_eq!(
        (stats.state_transfer_commands, stats.state_transfer_bytes),
        (1, 100)
    );
    assert_eq!(toy(&mut sim, node(2), |t| t.applied), 1);
}

/// A command applied inside `drive` that proposes again runs a nested step
/// list at the point of its delivery; the outer list resumes after it.  A
/// one-replica domain (f = 0) orders its own proposal at once, so applying
/// transaction 1 proposes, orders and applies 2 inside the step that
/// delivered 1, and so on; a checkpoint at every delivery puts a snapshot
/// step after each delivery step.
#[test]
fn a_command_applied_inside_drive_that_proposes_again_runs_both_step_lists_in_order() {
    let stack = StackConfig {
        checkpoint: CheckpointConfig::every(1).with_retention(1),
        ..StackConfig::default()
    };
    let quorum = QuorumSpec::for_faults(FailureModel::Crash, 0);
    let mut sim = Simulation::new(LatencyMatrix::single_region(), 7);
    let mut chain = Toy::new(ReplicaHost::new(node(0), vec![node(0)], quorum, stack));
    chain.follow_ups = 3;
    sim.register(
        node(0),
        Region::LOCAL,
        CpuProfile::server(),
        Box::new(chain),
    );
    let sink = Box::new(Sink(0));
    sim.register(CLIENT, Region::LOCAL, CpuProfile::client(), sink);
    request(&mut sim, node(0), 1, ms(0));
    sim.run_until(ms(50));
    use Event::{Applied, Snapshot};
    let events = toy(&mut sim, node(0), |t| std::mem::take(&mut t.events));
    let expected = [
        Applied(1),
        Applied(2),
        Applied(3),
        Snapshot(3),
        Snapshot(2),
        Snapshot(1),
    ];
    assert_eq!(events, expected);
}

/// PBFT's suspicion rule through the host: a backup whose domain cannot
/// order its client's request suspects at windows doubling from the floor
/// to eight times it, and one check that sees a delivery halves the window.
#[test]
fn a_stuck_backup_doubles_its_suspicion_window_and_progress_halves_it() {
    let stack = StackConfig {
        liveness: LivenessConfig::standard(),
        checkpoint: CheckpointConfig::every(4),
        trace: TraceConfig::on(),
        ..StackConfig::default()
    };
    let mut sim = group(FailureModel::Crash, stack);
    // The primary and the other backup are down: no view change completes.
    sim.faults_mut().crash(node(0));
    sim.faults_mut().crash(node(2));
    request(&mut sim, node(1), 1, ms(0));
    sim.inject_at(ms(0), CLIENT, node(1), ToyMsg::ProgressTimer);
    // Deliveries resume at 1 500 ms (a peer's state reply carries request
    // 1); a second request arrives after the check that sees it.
    sim.inject_at(ms(1_500), node(0), node(1), state_reply(&[1]));
    request(&mut sim, node(1), 2, ms(1_900));
    sim.run_until(ms(2_200));
    assert_eq!(toy(&mut sim, node(1), |t| t.applied), 1);
    let (events, _) = toy(&mut sim, node(1), |t| t.host.take_trace());
    let fired: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::SuspicionFired { .. }))
        .map(|e| e.time.as_micros() / 1_000)
        .collect();
    // Gaps of 60, 120, 240, 480 and 480 ms; the check at 1 860 ms saw the
    // delivery, so the next window is 240 ms, not 480.
    assert_eq!(fired, [60, 180, 420, 900, 1_380, 2_100]);
}
