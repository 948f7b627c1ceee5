//! Snapshot-based state transfer and log pruning regressions.
//!
//! Four properties pin the retention machinery:
//!
//! 1. under a finite retention window the consensus chains and ledgers
//!    never retain entries below the domain's prune floor — memory is
//!    bounded by the window, not the run length;
//! 2. a responder whose log has been pruned below a laggard's frontier
//!    answers with a `SnapshotReply` (application snapshot + command
//!    tail) instead of full replay, and the laggard reconverges — for
//!    all four protocol stacks;
//! 3. a retention window set on its own prunes at the default checkpoint
//!    interval;
//! 4. under the infinite-retention default the snapshot/pruning machinery
//!    is inert, and a finite-but-never-reached window changes nothing a
//!    client can observe.

use saguaro::net::FaultSchedule;
use saguaro::sim::{ExperimentSpec, ProtocolKind, RunArtifacts};
use saguaro::types::{DomainId, NodeId, SimTime};

mod common;
use common::check_safety;

const INTERVAL: u64 = 4;
const RETENTION: u64 = 4;

/// Slack above the retention window: the unstable tail between checkpoint
/// stabilisations plus in-flight deliveries.
const CHAIN_SLACK: u64 = 4 * INTERVAL + 64;

/// The scripted victim: a *backup* of the first height-1 domain, so the
/// domain keeps committing under its primary while the victim falls behind.
fn victim() -> NodeId {
    NodeId::new(DomainId::new(1, 0), 1)
}

fn healthy_peer() -> NodeId {
    NodeId::new(DomainId::new(1, 0), 2)
}

/// A failure-free run under a small retention window.
fn pruned_spec(protocol: ProtocolKind) -> ExperimentSpec {
    ExperimentSpec::new(protocol)
        .quick()
        .load(1_200.0)
        .tune(|t| t.checkpoint_every(INTERVAL).retained(RETENTION))
}

/// A crash/recover plan whose outage commits far more sequence numbers
/// than the retention window holds, so by the time the victim asks for
/// state its frontier lies below every responder's retained tail and only
/// the snapshot path can serve it.
fn outage_spec(protocol: ProtocolKind) -> ExperimentSpec {
    let plan = FaultSchedule::none()
        .crash_at(SimTime::from_millis(120), victim())
        .recover_at(SimTime::from_millis(320), victim());
    pruned_spec(protocol).fault_plan(plan)
}

#[test]
fn chains_never_retain_entries_below_the_prune_floor() {
    for protocol in ProtocolKind::ALL {
        let artifacts = pruned_spec(protocol).run_collecting();
        check_safety(&artifacts, protocol.label());
        assert!(artifacts.metrics.committed > 0);
        for domain in artifacts.harvest.domains() {
            let replicas = artifacts.harvest.replicas_of(domain);
            // The domain-wide floor: no replica may prune past the slowest
            // peer's window, so entries below it are gone everywhere while
            // entries above the fastest peer's floor may be retained.
            let lowest_floor = replicas
                .iter()
                .map(|n| n.stable_checkpoint.saturating_sub(RETENTION))
                .min()
                .unwrap_or(0);
            for n in &replicas {
                assert!(
                    n.chain_start >= lowest_floor,
                    "{protocol:?}: {:?} retains chain entries from {} — below \
                     the domain floor {lowest_floor}",
                    n.node,
                    n.chain_start
                );
                assert!(
                    n.chain_len <= RETENTION + CHAIN_SLACK,
                    "{protocol:?}: {:?} retains {} chain entries under a \
                     retention window of {RETENTION}",
                    n.node,
                    n.chain_len
                );
                // Replicas that checkpointed actually pruned and snapshotted.
                if n.stable_checkpoint > RETENTION + INTERVAL {
                    assert!(
                        n.chain_start > 0,
                        "{protocol:?}: {:?} stabilised {} but never pruned",
                        n.node,
                        n.stable_checkpoint
                    );
                    assert!(
                        n.snapshots_taken > 0,
                        "{protocol:?}: {:?} stabilised {} but took no snapshot",
                        n.node,
                        n.stable_checkpoint
                    );
                }
            }
        }
    }
}

/// A retention window on its own prunes too: the domain checkpoints at the
/// default interval, snapshots at every stable checkpoint and bounds its
/// chains by the window plus the unstable tail.
#[test]
fn a_retention_window_alone_snapshots_and_bounds_chains_at_the_default_interval() {
    let interval = saguaro::types::CheckpointConfig::DEFAULT_INTERVAL;
    for protocol in ProtocolKind::ALL {
        let mut spec = ExperimentSpec::new(protocol)
            .quick()
            .load(4_000.0)
            .tune(|t| t.retained(RETENTION));
        spec.measure = saguaro::types::Duration::from_millis(600);
        let artifacts = spec.run_collecting();
        check_safety(&artifacts, protocol.label());
        let nodes = &artifacts.harvest.nodes;
        assert!(
            nodes.iter().any(|n| n.snapshots_taken > 0),
            "{protocol:?}: no replica took a snapshot under retained({RETENTION})"
        );
        for n in nodes {
            assert!(
                n.chain_len <= RETENTION + interval + CHAIN_SLACK,
                "{protocol:?}: {:?} retains {} chain entries under a \
                 retention window of {RETENTION}",
                n.node,
                n.chain_len
            );
        }
    }
}

/// The bounded-harvest invariant: a replica's harvested ledger never holds
/// more than the `DeliveryLog` capacity, while `total_entries` keeps the
/// lifetime count.
#[test]
fn harvested_ledgers_stay_bounded_with_lifetime_totals() {
    for protocol in ProtocolKind::ALL {
        let artifacts = pruned_spec(protocol).run_collecting();
        for n in &artifacts.harvest.nodes {
            assert!(
                n.entries.len() <= saguaro::types::DeliveryLog::CAPACITY,
                "{protocol:?}: {:?} harvested {} ledger entries (cap {})",
                n.node,
                n.entries.len(),
                saguaro::types::DeliveryLog::CAPACITY
            );
            assert!(n.total_entries >= n.entries.len() as u64);
        }
    }
}

fn assert_snapshot_catch_up(artifacts: &RunArtifacts, label: &str) {
    check_safety(artifacts, label);
    let v = artifacts.harvest.node(victim()).expect("victim harvested");
    let healthy = artifacts
        .harvest
        .node(healthy_peer())
        .expect("peer harvested");
    // The outage outran the retention window, so catch-up must have gone
    // through the snapshot path: the responder materialised a snapshot and
    // the victim installed one.
    assert!(
        v.snapshots_installed >= 1,
        "{label}: recovered victim installed no snapshot \
         (frontier {}, peer stable {})",
        v.last_delivered,
        healthy.stable_checkpoint
    );
    assert!(
        healthy.snapshots_taken >= 1,
        "{label}: healthy peer took no snapshots"
    );
    assert!(v.state_transfer_bytes > 0, "{label}: no transfer traffic");
    assert!(
        v.caught_up_at.is_some(),
        "{label}: victim never recorded catch-up"
    );
    // Reconvergence: the victim reaches its healthy peer's frontier.
    assert!(
        v.last_delivered + 5 >= healthy.last_delivered,
        "{label}: victim stuck at {} while the peer reached {}",
        v.last_delivered,
        healthy.last_delivered
    );
    // The snapshot replaced bulk replay: the command tail shipped alongside
    // it is bounded by the retention window, not by the outage length.
    assert!(
        v.state_transfer_commands <= RETENTION + CHAIN_SLACK,
        "{label}: {} commands were replayed — the snapshot should bound the \
         tail to the retention window",
        v.state_transfer_commands
    );
    assert!(artifacts.state_transfer_messages > 0);
}

#[test]
fn pruned_responders_serve_snapshot_catch_up_on_every_stack() {
    for protocol in ProtocolKind::ALL {
        let artifacts = outage_spec(protocol).run_collecting();
        assert!(artifacts.metrics.committed > 0);
        assert_snapshot_catch_up(&artifacts, protocol.label());
    }
}

/// Project the client-visible record of a run for bit-identity checks.
fn observable(artifacts: &RunArtifacts) -> Vec<(saguaro::types::TxId, u64, u64, bool)> {
    artifacts
        .completions
        .iter()
        .map(|c| {
            (
                c.tx_id,
                c.submitted_at.as_micros(),
                c.latency.as_micros(),
                c.committed,
            )
        })
        .collect()
}

/// Under infinite retention (the default) the snapshot/pruning machinery
/// must be completely inert, so a checkpointed
/// run with the default window is bit-identical to one that spells
/// `u64::MAX` out, and neither ever takes a snapshot or prunes a chain.
#[test]
fn infinite_retention_is_bit_identical_to_the_unpruned_pipeline() {
    for protocol in ProtocolKind::ALL {
        let base = ExperimentSpec::new(protocol)
            .quick()
            .cross_domain(0.3)
            .load(600.0)
            .tune(|t| t.checkpoint_every(8));
        let default_run = base.clone().run_collecting();
        check_safety(&default_run, protocol.label());
        let explicit = base.clone().tune(|t| t.retained(u64::MAX)).run_collecting();
        assert_eq!(
            default_run.metrics, explicit.metrics,
            "{protocol:?}: spelling out retention = MAX changed the run"
        );
        assert_eq!(observable(&default_run), observable(&explicit));
        for n in &default_run.harvest.nodes {
            assert_eq!(
                n.snapshots_taken, 0,
                "{protocol:?}: {:?} took a snapshot with retention = MAX",
                n.node
            );
            // Unpruned: the chain still starts at the first sequence number
            // and retains the full delivered history.
            assert!(
                n.chain_start <= 1,
                "{protocol:?}: {:?} pruned its chain (starts at {}) with \
                 retention = MAX",
                n.node,
                n.chain_start
            );
            assert!(
                n.chain_len >= n.last_delivered,
                "{protocol:?}: {:?} dropped delivered entries ({} retained \
                 of {}) with retention = MAX",
                n.node,
                n.chain_len,
                n.last_delivered
            );
        }

        // A finite window the run never reaches activates the machinery
        // (snapshots are taken at stable checkpoints) without ever pruning
        // below a laggard — nothing a client can observe may change.
        let huge = base.clone().tune(|t| t.retained(1 << 40)).run_collecting();
        assert_eq!(
            default_run.metrics, huge.metrics,
            "{protocol:?}: a never-reached finite window changed the metrics"
        );
        assert_eq!(observable(&default_run), observable(&huge));
    }
}
