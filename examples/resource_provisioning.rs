//! Resource management / network-slicing ledger (Section 2's third and
//! fourth scenarios): edge domains record per-tenant resource usage as
//! tamper-evident `Put` records; fog/cloud domains aggregate utilisation to
//! detect over-usage (a DoS-style anomaly) without holding the raw records.
//!
//! ```text
//! cargo run --release --example resource_provisioning
//! ```

use saguaro::crypto::MerkleTree;
use saguaro::ledger::{
    AbstractionFn, AggregateView, BlockchainState, DeltaKey, LinearLedger, TxStatus,
};
use saguaro::types::{ClientId, DomainId, Operation, Transaction, TxId};

fn main() {
    let domains: Vec<DomainId> = (0..4).map(|i| DomainId::new(1, i)).collect();
    let tenants = ["slice-emergency", "slice-video", "slice-iot"];
    let mut cloud_view = AggregateView::new();
    let mut tx_id = 0u64;

    for (di, domain) in domains.iter().enumerate() {
        let mut ledger = LinearLedger::new(*domain);
        let mut state = BlockchainState::new();
        let mut raw = Vec::new();
        for round in 0..5u64 {
            for (ti, tenant) in tenants.iter().enumerate() {
                tx_id += 1;
                // Usage pattern: the video slice in domain 2 misbehaves.
                let usage = 10 + round * (ti as u64 + 1) + if di == 2 && ti == 1 { 500 } else { 0 };
                let key = format!("usage/{tenant}");
                let tx = Transaction::internal(
                    TxId(tx_id),
                    ClientId(ti as u64),
                    *domain,
                    Operation::Put {
                        key: key.clone(),
                        value: usage,
                    },
                );
                state.execute(&tx.op).expect("puts always execute");
                raw.push((DeltaKey::new(*domain, &key), usage));
                ledger.append_internal(tx, TxStatus::Committed);
            }
        }
        // Blocks are Merkle-anchored so usage reports are tamper-evident.
        let block = ledger.cut_block(AbstractionFn::KeyPrefix("usage/").apply(&raw));
        assert!(block.verify_content());
        let proof_ok = MerkleTree::from_leaf_digests(
            block
                .txs
                .iter()
                .map(saguaro::ledger::CommittedTx::leaf_digest)
                .collect(),
        )
        .root()
            == block.header.tx_root;
        println!(
            "{domain}: {} usage records in block {:?} (merkle root verified: {proof_ok})",
            block.header.tx_count, block.header.id
        );
        cloud_view.apply_delta(*domain, &block.state_delta);
    }

    println!("\ncloud-level aggregate utilisation per slice:");
    for tenant in tenants {
        let key = format!("usage/{tenant}");
        let total = cloud_view.sum(&key);
        let worst = cloud_view.max(&key);
        let flag = if total > 600 {
            "  <-- over-usage detected"
        } else {
            ""
        };
        println!(
            "  {tenant:<16} total {total:>5}  (peak {:?}){flag}",
            worst.map(|(d, v)| format!("{v} in {d}"))
        );
    }
}
