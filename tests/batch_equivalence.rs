//! Property: batching is a pure throughput optimisation — it must not change
//! *what* commits.  For every protocol stack and `max_batch ∈ {1, 4, 16}`:
//!
//! * no transaction ever completes twice (client-side reply dedup);
//! * batching introduces no aborts at uncontended low load;
//! * **no transaction is lost**: every client's committed set is a prefix of
//!   its open-loop schedule.  Clients submit their schedule in order, so a
//!   command dropped anywhere in the pipeline would leave an interior gap —
//!   later transactions of the same client commit while the dropped one
//!   never does.  (How *long* the prefix is varies across batch sizes:
//!   open-loop pacing draws from the shared simulation RNG, so submission
//!   timestamps shift and a different number of trailing requests lands
//!   before the fixed horizon.  Combined with the prefix property, the
//!   committed sets and per-client commit orders of the batched and
//!   unbatched runs agree on their common prefix — batching only moves the
//!   horizon tail.);
//! * a client's transactions complete in submission order whenever they were
//!   submitted far enough apart not to be concurrent — batching (bounded by
//!   the flush delay) must not reorder non-overlapping requests;
//! * `max_batch = 1` is not merely equivalent but *identical*: the exact
//!   same completions in the exact same order as the default configuration.
//!
//! The strict checks run on the internal-only workload.  With cross-domain
//! transactions in the mix the coordinator legally parks conflicting
//! transactions (and a parked transaction can be overtaken, or still be
//! waiting when the simulation horizon ends), so interior gaps and
//! inversions are possible even unbatched; that scenario keeps the
//! duplicate/abort/identity checks only.

use proptest::prelude::*;
use saguaro::sim::{ExperimentSpec, ProtocolKind, RunArtifacts};
use saguaro::types::{ClientId, Duration, TxId};
use std::collections::{BTreeMap, HashSet};

fn spec(protocol: ProtocolKind, seed: u64, cross: f64, max_batch: usize) -> ExperimentSpec {
    let mut s = ExperimentSpec::new(protocol)
        .quick()
        .cross_domain(cross)
        .load(500.0)
        .tune(|t| t.batch_size(max_batch));
    s.seed = seed;
    s
}

/// Committed completions per client, in completion order.
fn per_client_commits(artifacts: &RunArtifacts) -> BTreeMap<ClientId, Vec<TxId>> {
    let mut out: BTreeMap<ClientId, Vec<TxId>> = BTreeMap::new();
    for c in artifacts.completions.iter().filter(|c| c.committed) {
        out.entry(c.client).or_default().push(c.tx_id);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Batched runs lose nothing, duplicate nothing and keep submission
    /// order; `max_batch = 1` is bit-identical to the default pipeline.
    #[test]
    fn batching_loses_nothing_and_keeps_client_order(seed in 0u64..1_000) {
        // Strict prefix/order checks only hold without cross-domain conflict
        // parking (see module docs).
        for (cross, strict) in [(0.0, true), (0.2, false)] {
            for protocol in ProtocolKind::ALL {
                let reference = spec(protocol, seed, cross, 1).run_collecting();
                prop_assert!(
                    reference.metrics.committed > 50,
                    "{protocol:?} seed {seed}: unbatched run committed almost nothing"
                );

                for max_batch in [1usize, 4, 16] {
                    let batched = spec(protocol, seed, cross, max_batch).run_collecting();

                    // No transaction may ever complete twice, whatever the
                    // batch size (client-side reply dedup).
                    let mut seen = HashSet::new();
                    for c in &batched.completions {
                        prop_assert!(
                            seen.insert(c.tx_id),
                            "{protocol:?} b={max_batch} seed {seed}: {:?} completed twice",
                            c.tx_id
                        );
                    }
                    prop_assert!(
                        batched.completions.iter().all(|c| c.committed),
                        "{protocol:?} b={max_batch} seed {seed}: batching introduced an abort"
                    );

                    if max_batch == 1 {
                        // Same configuration: the runs must be bit-identical.
                        let same = batched.completions.len() == reference.completions.len()
                            && batched.completions.iter().zip(&reference.completions).all(
                                |(a, b)| {
                                    a.tx_id == b.tx_id
                                        && a.client == b.client
                                        && a.submitted_at == b.submitted_at
                                        && a.latency == b.latency
                                        && a.committed == b.committed
                                },
                            );
                        prop_assert!(
                            same,
                            "{protocol:?} seed {seed}: explicit b=1 diverged from default"
                        );
                    }

                    if !strict {
                        continue;
                    }

                    // No transaction lost: each client's committed set must
                    // be a prefix of its schedule — an interior gap means
                    // the pipeline dropped a command whose successors
                    // committed.
                    let commits = per_client_commits(&batched);
                    for (client, schedule) in &batched.schedules {
                        let empty = Vec::new();
                        let committed = commits.get(client).unwrap_or(&empty);
                        let committed_set: HashSet<TxId> = committed.iter().copied().collect();
                        prop_assert!(
                            committed_set.len() == committed.len(),
                            "{protocol:?} b={max_batch} seed {seed}: client {client:?} \
                             committed a transaction twice"
                        );
                        let prefix: HashSet<TxId> =
                            schedule.iter().take(committed.len()).copied().collect();
                        prop_assert!(
                            committed_set == prefix,
                            "{protocol:?} b={max_batch} seed {seed}: client {client:?} \
                             committed {committed:?} which is not a prefix of its \
                             schedule {:?} — a transaction was lost in the interior",
                            &schedule[..schedule.len().min(committed.len() + 2)]
                        );
                    }

                    // Submission order is completion order for requests
                    // separated by more than any batching delay.
                    let gap = Duration::from_millis(30);
                    let mut last_per_client: BTreeMap<ClientId, &saguaro::sim::CompletedTx> =
                        BTreeMap::new();
                    for c in batched.completions.iter().filter(|c| c.committed) {
                        if let Some(prev) = last_per_client.insert(c.client, c) {
                            prop_assert!(
                                c.submitted_at + gap > prev.submitted_at,
                                "{protocol:?} b={max_batch} seed {seed}: {:?} completed \
                                 before {:?} despite being submitted {}us later",
                                prev.tx_id,
                                c.tx_id,
                                prev.submitted_at.since(c.submitted_at).as_micros()
                            );
                        }
                    }
                }
            }
        }
    }
}
