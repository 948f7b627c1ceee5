//! Micro drivers: each times one layer's public functions in isolation, at
//! the sizes the workload uses them at.  They feed the per-layer metrics;
//! none of them is part of an end-to-end number.

use saguaro_consensus::{Batch, BatchConfig, ConsensusMsg, ConsensusReplica, Step};
use saguaro_crypto::{sha256, KeyPair, MerkleTree};
use saguaro_hierarchy::HierarchyTree;
use saguaro_ledger::{DagLedger, LinearLedger, StateDelta, TxStatus};
use saguaro_loadgen::{LatencyHistogram, PopulationGenerator};
use saguaro_net::{
    Actor, Addr, Context, CpuProfile, LatencyMatrix, MessageMeta, ParallelSimulation, SimRuntime,
    Simulation, TimerId,
};
use saguaro_types::{
    ClientId, DomainId, Duration, FailureModel, NodeId, Operation, PopulationConfig, QuorumSpec,
    Region, Transaction, TxId,
};
use saguaro_workload::{MicropaymentWorkload, WorkloadConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Times `iterations` calls of `op` and returns nanoseconds per call.
fn ns_per(iterations: u64, mut op: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..iterations {
        op(i);
    }
    started.elapsed().as_secs_f64() * 1e9 / iterations as f64
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `crypto.sha256_ns_per_kib`: hashing a 4 KiB buffer.
pub fn sha256_ns_per_kib() -> f64 {
    let buffer = vec![0xa5u8; 4096];
    ns_per(2_000, |_| {
        black_box(sha256(black_box(&buffer)));
    }) / 4.0
}

/// `crypto.merkle8_ns`: the Merkle root over eight 64-byte leaves — the
/// digest of a b = 8 batch.
pub fn merkle8_ns() -> f64 {
    let leaves: Vec<[u8; 64]> = (0..8u8).map(|i| [i; 64]).collect();
    ns_per(5_000, |_| {
        black_box(MerkleTree::from_leaves(black_box(&leaves)).root());
    })
}

/// `crypto.sign_verify_ns`: one signature made and verified.
pub fn sign_verify_ns() -> f64 {
    let key = KeyPair::for_node(NodeId::new(DomainId::new(1, 0), 0));
    let digest = sha256(b"benchmark");
    ns_per(20_000, |_| {
        let signature = key.sign(black_box(&digest));
        black_box(saguaro_crypto::sign::verify(&signature, &digest));
    })
}

fn transfers(count: u64) -> Vec<Transaction> {
    let domain = DomainId::new(1, 0);
    (0..count)
        .map(|i| {
            Transaction::internal(
                TxId(i),
                ClientId(i % 120),
                domain,
                Operation::Transfer {
                    from: format!("acct-{}", i % 10_000),
                    to: format!("acct-{}", (i + 1) % 10_000),
                    amount: 5,
                },
            )
        })
        .collect()
}

/// Transactions per block in the ledger drivers.
const BLOCK_TXS: u64 = 32;

/// `ledger.append_ns`, `ledger.cut_block_ns` and `ledger.dag_append_ns`:
/// appending a committed transfer to a height-1 ledger, cutting a round's
/// block of 32 of them, and applying such a block to the parent's DAG
/// (per block).
pub fn ledger_ns() -> (f64, f64, f64) {
    let domain = DomainId::new(1, 0);
    let blocks = 400;
    let mut txs = transfers(blocks * BLOCK_TXS).into_iter();
    let mut ledger = LinearLedger::new(domain);
    let mut cut = Vec::with_capacity(blocks as usize);
    let (mut append_s, mut cut_s) = (0.0, 0.0);
    for _ in 0..blocks {
        let round: Vec<Transaction> = txs.by_ref().take(BLOCK_TXS as usize).collect();
        let started = Instant::now();
        for tx in round {
            black_box(ledger.append_internal(tx, TxStatus::Committed));
        }
        append_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        cut.push(ledger.cut_block(StateDelta::new()));
        cut_s += started.elapsed().as_secs_f64();
    }
    let mut dag = DagLedger::new();
    let started = Instant::now();
    for block in &cut {
        black_box(
            dag.apply_block(domain, block)
                .expect("blocks arrive in round order"),
        );
    }
    let dag_s = started.elapsed().as_secs_f64();
    (
        append_s * 1e9 / (blocks * BLOCK_TXS) as f64,
        cut_s * 1e9 / blocks as f64,
        dag_s * 1e9 / blocks as f64,
    )
}

/// `hierarchy.lca_ns`: the lowest common ancestor of two edge domains.
pub fn lca_ns(tree: &HierarchyTree) -> f64 {
    let edge = tree.edge_server_domains();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    ns_per(100_000, |_| {
        let a = edge[(xorshift(&mut state) % edge.len() as u64) as usize];
        let b = edge[(xorshift(&mut state) % edge.len() as u64) as usize];
        black_box(tree.lca(&[a, b]).expect("edge domains share the root"));
    })
}

/// `workload.gen_ns_per_tx`: drawing the next micropayment of a client.
pub fn workload_gen_ns(config: &WorkloadConfig, edge_domains: Vec<DomainId>, seed: u64) -> f64 {
    let mut config = config.clone();
    config.edge_domains = edge_domains;
    let mut generator = MicropaymentWorkload::new(config, 120, seed);
    ns_per(50_000, |i| {
        black_box(generator.next_for_client((i % 120) as usize));
    })
}

/// `loadgen.arrival_ns`: one arrival of an aggregate population — the gap
/// to it and the transaction it submits.
pub fn arrival_ns(population: PopulationConfig, edge_domains: Vec<DomainId>, seed: u64) -> f64 {
    let mut generator = PopulationGenerator::new(population, 0, edge_domains, seed);
    ns_per(100_000, |_| {
        black_box(generator.next_arrival_gap(Duration::ZERO));
        black_box(generator.next_tx());
    })
}

/// `loadgen.hist_record_ns`: one latency folded into the streaming
/// histogram.
pub fn hist_record_ns() -> f64 {
    let mut hist = LatencyHistogram::new();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let ns = ns_per(1_000_000, |_| hist.record(xorshift(&mut state) % 500_000));
    black_box(hist.count());
    ns
}

/// What a loop-back consensus group measured.
pub struct GroupRun {
    /// Host nanoseconds per committed command.
    pub ns_per_commit: f64,
    /// Protocol messages routed per committed command.
    pub msgs_per_commit: f64,
}

/// `consensus.paxos_commit_ns` / `consensus.pbft_commit_ns`: 1 000
/// commands through an f = 1 replica group whose messages are looped back
/// in process, in blocks of `batch`.
pub fn consensus_group(model: FailureModel, batch: usize) -> GroupRun {
    const COMMANDS: u64 = 1_000;
    let domain = DomainId::new(1, 0);
    let quorum = QuorumSpec::for_faults(model, 1);
    let ids: Vec<NodeId> = (0..quorum.n as u16)
        .map(|i| NodeId::new(domain, i))
        .collect();
    let mut replicas: Vec<ConsensusReplica<Vec<u8>>> = ids
        .iter()
        .map(|me| {
            ConsensusReplica::with_batching(
                *me,
                ids.clone(),
                quorum,
                BatchConfig::with_max_batch(batch),
            )
        })
        .collect();
    type Msg = ConsensusMsg<Vec<u8>>;
    type Steps = Vec<Step<Batch<Vec<u8>>, Msg>>;
    type Wire = VecDeque<(NodeId, NodeId, Msg)>;
    let mut wire = Wire::new();
    let (mut routed, mut delivered) = (0u64, 0u64);
    let absorb = |from: NodeId, steps: Steps, wire: &mut Wire, delivered: &mut u64| {
        for step in steps {
            match step {
                Step::Send { to, msg } => wire.push_back((from, to, msg)),
                Step::Broadcast { msg } => {
                    for to in ids.iter().filter(|to| **to != from) {
                        wire.push_back((from, *to, msg.clone()));
                    }
                }
                Step::Deliver { command, .. } if from == ids[0] => {
                    *delivered += command.len() as u64;
                }
                _ => {}
            }
        }
    };
    let started = Instant::now();
    for i in 0..COMMANDS {
        let steps = replicas[0].propose(i.to_be_bytes().to_vec());
        absorb(ids[0], steps, &mut wire, &mut delivered);
        while let Some((from, to, msg)) = wire.pop_front() {
            routed += 1;
            let steps = replicas[to.index as usize].on_message(from, msg);
            absorb(to, steps, &mut wire, &mut delivered);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    // A trailing partial block stays in the batcher; every full block must
    // have committed at the primary.
    let expected = COMMANDS - COMMANDS % batch as u64;
    assert_eq!(
        delivered, expected,
        "the {model:?} loop-back group committed {delivered} of {expected} commands"
    );
    GroupRun {
        ns_per_commit: elapsed * 1e9 / delivered as f64,
        msgs_per_commit: routed as f64 / delivered as f64,
    }
}

/// The payload of the bare-engine drivers: no protocol, a fixed wire size.
#[derive(Clone, Debug)]
struct Null;

impl MessageMeta for Null {
    fn wire_bytes(&self) -> usize {
        64
    }

    fn signatures(&self) -> usize {
        0
    }
}

/// Forwards every message it receives to one fixed peer.
struct Forwarder {
    next: Addr,
}

impl Actor<Null> for Forwarder {
    fn on_message(&mut self, _from: Addr, msg: Null, ctx: &mut Context<'_, Null>) {
        ctx.send(self.next, msg);
    }

    fn on_timer(&mut self, _id: TimerId, _msg: Null, _ctx: &mut Context<'_, Null>) {}
}

/// Events processed by each bare-engine driver.
const BARE_EVENTS: u64 = 300_000;

/// Registers `actors` forwarders on `sim`, spread over the matrix's regions,
/// and puts `in_flight` messages into circulation.
fn load_ring<S: SimRuntime<Null>>(
    sim: &mut S,
    actors: usize,
    in_flight: usize,
    latency: &LatencyMatrix,
) {
    let regions = latency.region_count().max(1);
    let addr = |i: usize| Addr::Client(ClientId((i % actors) as u64));
    for i in 0..actors {
        let actor = Forwarder {
            next: addr(i * 7 + 1),
        };
        let region = Region((i % regions) as u8);
        sim.register(addr(i), region, CpuProfile::client(), Box::new(actor));
    }
    for i in 0..in_flight {
        sim.inject(addr(i), addr(i), Null);
    }
}

/// `net.bare_event_ns`: host nanoseconds per event of the sequential engine
/// when the actors do nothing but forward — `actors` of them on `latency`,
/// with `in_flight` messages circulating (the cell's peak queue depth).
pub fn bare_event_ns(actors: usize, in_flight: usize, latency: LatencyMatrix, seed: u64) -> f64 {
    let mut sim: Simulation<Null> = Simulation::new(latency.clone(), seed);
    load_ring(&mut sim, actors, in_flight, &latency);
    let started = Instant::now();
    let processed = sim.run_to_completion(BARE_EVENTS);
    started.elapsed().as_secs_f64() * 1e9 / processed as f64
}

/// `net.calendar_event_ns`: the same ring on the one-partition,
/// one-worker parallel engine, whose scheduler is the calendar queue
/// (`net::event`'s queues are crate-private, so the engines that own them
/// are the only way in from outside).
pub fn calendar_event_ns(
    actors: usize,
    in_flight: usize,
    latency: LatencyMatrix,
    seed: u64,
) -> f64 {
    let mut sim: ParallelSimulation<Null> =
        ParallelSimulation::new(latency.clone(), seed, 1, 1, |_| 0);
    load_ring(&mut sim, actors, in_flight, &latency);
    let started = Instant::now();
    let processed = sim.run_to_completion(BARE_EVENTS);
    started.elapsed().as_secs_f64() * 1e9 / processed as f64
}

/// `net.heap_push_pop_ns`: one pop and one push on a `BinaryHeap` of
/// `depth` 80-byte events ordered by `(time, seq)` — what the sequential
/// engine's crate-private `EventQueue` wraps.
pub fn heap_push_pop_ns(depth: usize) -> f64 {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut heap: BinaryHeap<Reverse<(u64, u64, [u64; 8])>> = BinaryHeap::with_capacity(depth + 1);
    for seq in 0..depth as u64 {
        heap.push(Reverse((xorshift(&mut state) % 1_000_000, seq, [seq; 8])));
    }
    ns_per(1_000_000, |i| {
        let Reverse((time, _, payload)) = heap.pop().expect("the heap never drains");
        let later = time + xorshift(&mut state) % 50_000;
        heap.push(Reverse((later, depth as u64 + i, black_box(payload))));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_back_groups_commit_every_full_block() {
        for (model, batch) in [
            (FailureModel::Crash, 1),
            (FailureModel::Crash, 8),
            (FailureModel::Byzantine, 1),
            (FailureModel::Byzantine, 8),
        ] {
            let run = consensus_group(model, batch);
            assert!(run.ns_per_commit > 0.0);
            assert!(run.msgs_per_commit > 0.0);
        }
        // PBFT's all-to-all phases cost more messages than Paxos's.
        assert!(
            consensus_group(FailureModel::Byzantine, 1).msgs_per_commit
                > consensus_group(FailureModel::Crash, 1).msgs_per_commit
        );
    }

    #[test]
    fn bare_rings_keep_circulating() {
        let latency = LatencyMatrix::nearby_regions();
        assert!(bare_event_ns(21, 50, latency.clone(), 1) > 0.0);
        assert!(calendar_event_ns(21, 50, latency, 1) > 0.0);
        assert!(heap_push_pop_ns(100) > 0.0);
    }

    #[test]
    fn small_drivers_return_positive_times() {
        assert!(sha256_ns_per_kib() > 0.0);
        assert!(merkle8_ns() > 0.0);
        assert!(sign_verify_ns() > 0.0);
        let (append, cut, dag) = ledger_ns();
        assert!(append > 0.0 && cut > 0.0 && dag > 0.0);
        assert!(hist_record_ns() > 0.0);
    }
}
