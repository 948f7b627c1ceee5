//! Ridesharing / gig-economy aggregation over the hierarchy.
//!
//! The paper's motivating example: ride tasks are committed in the driver's
//! spatial domain, while fog and cloud domains only keep the abstracted
//! working-hour attribute (the λ abstraction) so they can enforce global
//! regulations ("the total work hours of a driver may not exceed 40 hours per
//! week") without holding the full ledgers.
//!
//! ```text
//! cargo run --release --example ridesharing_aggregation
//! ```

use saguaro::ledger::{AbstractionFn, AggregateView, DeltaKey, LinearLedger, StateDelta, TxStatus};
use saguaro::types::{DomainId, Operation};
use saguaro::workload::RidesharingWorkload;
use saguaro::{ExperimentSpec, ProtocolKind, RidesharingConfig};

fn main() {
    let domains: Vec<DomainId> = (0..4).map(|i| DomainId::new(1, i)).collect();
    let mut workload = RidesharingWorkload::new(domains.clone(), 8, 0.0, 11);

    // Each height-1 domain executes its rides and keeps its own full ledger;
    // only the `hours/...` keys are propagated upwards.
    let abstraction = AbstractionFn::KeyPrefix("hours/");
    let mut fog_view = AggregateView::new();

    for domain in &domains {
        let mut ledger = LinearLedger::new(*domain);
        let mut state = saguaro::ledger::BlockchainState::new();
        let mut raw_updates = Vec::new();
        for (tx, _submit_to) in workload.batch(200) {
            if *tx.involved_domains() != [*domain] {
                continue;
            }
            if let Operation::RideTask { driver, .. } = &tx.op {
                state.execute(&tx.op).expect("ride executes");
                let key = format!("hours/{driver}");
                let hours = state.get(&key).unwrap_or(0);
                raw_updates.push((DeltaKey::new(*domain, &key), hours));
            }
            ledger.append_internal(tx, TxStatus::Committed);
        }
        let delta: StateDelta = abstraction.apply(&raw_updates);
        println!(
            "{domain}: {} rides committed, {} abstracted working-hour updates sent upwards",
            ledger.len(),
            delta.len()
        );
        fog_view.apply_delta(*domain, &delta);
    }

    // The cloud-level view can answer the regulator's question without ever
    // seeing individual rides.
    let total_minutes = fog_view.sum_by_prefix("hours/");
    println!("\naggregate across all spatial domains:");
    println!("  total driver working minutes: {total_minutes}");
    if let Some((busiest, minutes)) = fog_view.max("hours/driver-0-0") {
        println!("  driver-0-0 worked {minutes} minutes, busiest record held by {busiest}");
    }
    let over_limit: Vec<String> = fog_view
        .children()
        .flat_map(|d| (0..8).map(move |n| format!("hours/driver-{}-{n}", d.index)))
        .filter(|k| fog_view.sum(k) > 40 * 60)
        .collect();
    println!(
        "  drivers over the 40-hour weekly limit: {}",
        if over_limit.is_empty() {
            "none".to_string()
        } else {
            over_limit.join(", ")
        }
    );

    // The same generator also runs end to end through the protocol-agnostic
    // experiment engine: every ride is submitted by an open-loop client,
    // ordered by intra-domain consensus and committed to the driver's
    // height-1 blockchain — the identical pipeline the micropayment figures
    // use.
    let metrics = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
        .ridesharing(RidesharingConfig {
            drivers_per_domain: 32,
            roaming_ratio: 0.2,
        })
        .quick()
        .load(1_000.0)
        .run();
    println!("\nridesharing through the experiment engine (coordinator stack):");
    println!(
        "  {:.0} rides/s committed at {:.2} ms average latency ({} total)",
        metrics.throughput_tps, metrics.avg_latency_ms, metrics.committed
    );
}
