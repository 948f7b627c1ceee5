//! Cross-crate property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use saguaro::consensus::{Batch, Command};
use saguaro::crypto::sha256::sha256_parts;
use saguaro::crypto::{Digest, MerkleTree};
use saguaro::hierarchy::TopologyBuilder;
use saguaro::ledger::{Block, BlockchainState, CommittedTx, LinearLedger, StateDelta, TxStatus};
use saguaro::types::transaction::{account_key, account_owner_index};
use saguaro::types::{ClientId, DomainId, MultiSeq, Operation, Transaction, TxId};

/// A ledger record over a small key space: `kind` picks the operation,
/// `a`/`b` its keys and `n` its number.
fn record(id: u64, (kind, a, b, n): (u8, u8, u8, u64)) -> CommittedTx {
    let domain = DomainId::new(1, 0);
    let key = |k: u8| account_key(0, k as u64);
    let op = match kind % 5 {
        0 => Operation::Transfer {
            from: key(a),
            to: key(b),
            amount: n,
        },
        1 => Operation::Mint {
            account: key(a),
            amount: n,
        },
        2 => Operation::RideTask {
            driver: key(a),
            minutes: n,
            fare: b as u64,
        },
        3 => Operation::Put {
            key: key(a),
            value: n,
        },
        _ => Operation::Noop,
    };
    let mut seq = MultiSeq::new();
    seq.set(domain, id + 1);
    CommittedTx {
        tx: Transaction::internal(TxId(id), ClientId(b as u64), domain, op),
        seq,
        status: if kind >= 128 {
            TxStatus::SpeculativelyCommitted
        } else {
            TxStatus::Committed
        },
    }
}

/// The batch digest recomputed from nothing but the member commands.
fn batch_digest_from_scratch(members: &[Vec<u8>]) -> Digest {
    let leaves = members.iter().map(Command::digest).collect();
    let root = MerkleTree::from_leaf_digests(leaves).root();
    sha256_parts(&[b"saguaro-batch", root.as_ref()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transfers can never create or destroy assets, whatever their order and
    /// whether or not they succeed.
    #[test]
    fn transfers_conserve_supply(ops in proptest::collection::vec((0u8..6, 0u8..6, 1u64..50), 1..200)) {
        let mut state = BlockchainState::new();
        for i in 0..6u64 {
            state.put(&account_key(0, i), 100);
        }
        let initial = state.total_supply();
        for (from, to, amount) in ops {
            let _ = state.execute(&Operation::Transfer {
                from: account_key(0, from as u64),
                to: account_key(0, to as u64),
                amount,
            });
        }
        prop_assert_eq!(state.total_supply(), initial);
    }

    /// Reverting undo records in reverse order restores the exact prior state.
    #[test]
    fn undo_records_restore_state(ops in proptest::collection::vec((0u8..5, 0u8..5, 1u64..30), 1..60)) {
        let mut state = BlockchainState::new();
        for i in 0..5u64 {
            state.put(&account_key(1, i), 500);
        }
        let snapshot = state.clone();
        let mut undos = Vec::new();
        for (from, to, amount) in ops {
            if let Ok(u) = state.execute(&Operation::Transfer {
                from: account_key(1, from as u64),
                to: account_key(1, to as u64),
                amount,
            }) {
                undos.push(u);
            }
        }
        for u in undos.iter().rev() {
            state.revert(u);
        }
        prop_assert_eq!(state, snapshot);
    }

    /// The LCA of any non-empty set of domains in a perfect k-ary tree is an
    /// ancestor of every involved domain, and is the deepest such domain.
    #[test]
    fn lca_is_the_deepest_common_ancestor(
        fanout in 2usize..4,
        levels in 2u8..4,
        picks in proptest::collection::vec(0usize..64, 1..5),
    ) {
        let tree = TopologyBuilder::new(levels, fanout).build().expect("valid");
        let edges = tree.edge_server_domains();
        let involved: Vec<DomainId> = picks.iter().map(|p| edges[p % edges.len()]).collect();
        let lca = tree.lca(&involved).expect("lca exists");
        for d in &involved {
            prop_assert!(tree.is_ancestor(lca, *d), "lca {lca:?} not ancestor of {d:?}");
        }
        // No child of the LCA is a common ancestor.
        for child in tree.children(lca) {
            let covers_all = involved.iter().all(|d| tree.is_ancestor(*child, *d));
            prop_assert!(!covers_all, "child {child:?} would be a deeper common ancestor");
        }
    }

    /// A linear ledger preserves append order and block cuts partition the
    /// entries exactly.
    #[test]
    fn ledger_blocks_partition_entries(batches in proptest::collection::vec(0usize..20, 1..10)) {
        let domain = DomainId::new(1, 0);
        let mut ledger = LinearLedger::new(domain);
        let mut id = 0u64;
        let mut blocks = Vec::new();
        for batch in &batches {
            for _ in 0..*batch {
                id += 1;
                let tx = Transaction::internal(TxId(id), ClientId(0), domain, Operation::Noop);
                ledger.append_internal(tx, TxStatus::Committed);
            }
            blocks.push(ledger.cut_block(StateDelta::new()));
        }
        let total: usize = batches.iter().sum();
        prop_assert_eq!(ledger.len(), total);
        prop_assert_eq!(blocks.iter().map(|b| b.txs.len()).sum::<usize>(), total);
        // Chain integrity: each block links to its predecessor's digest.
        for w in blocks.windows(2) {
            prop_assert_eq!(w[1].header.prev, w[0].header.digest());
        }
        for b in &blocks {
            prop_assert!(b.verify_content());
        }
    }

    /// A batch's memoized digest is the from-scratch digest, travels with
    /// clones, and is never inherited by a batch that differs in one member.
    #[test]
    fn batch_digest_memo_equals_recomputation(
        members in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..12),
        pick in 0usize..64,
    ) {
        let batch = Batch::new(members.clone());
        let expected = batch_digest_from_scratch(&members);
        prop_assert_eq!(batch.digest(), expected);
        prop_assert_eq!(batch.digest(), expected, "second read comes from the memo");
        let clone = batch.clone();
        prop_assert_eq!(clone.digest(), expected);
        prop_assert_eq!(clone.commands(), &members[..]);

        let at = pick % members.len();
        let mut changed = members.clone();
        changed[at].push(0xFF);
        let mut dropped = members.clone();
        dropped.remove(at);
        let mut appended = members.clone();
        appended.push(vec![at as u8]);
        for twin in [changed, dropped, appended] {
            let digest = Batch::new(twin.clone()).digest();
            prop_assert_eq!(digest, batch_digest_from_scratch(&twin));
            prop_assert!(digest != expected, "a different body has a different digest");
        }
    }

    /// A block's memoized content verdict equals a from-scratch
    /// verification, travels with clones, and a body that differs in one
    /// member — status flipped, record dropped, record appended — never
    /// inherits a `true`, whichever of the two is verified first.
    #[test]
    fn block_verdict_memo_equals_recomputation(
        specs in proptest::collection::vec((any::<u8>(), 0u8..6, 0u8..6, 1u64..50), 1..24),
        pick in 0usize..64,
        original_first in any::<bool>(),
    ) {
        let txs: Vec<CommittedTx> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| record(i as u64, *spec))
            .collect();
        let built = Block::build(DomainId::new(1, 0), 1, Digest::ZERO, txs.clone(), StateDelta::new());
        if original_first {
            prop_assert!(built.verify_content());
        }

        let at = pick % txs.len();
        let mut flipped = txs.clone();
        flipped[at].status = TxStatus::Aborted;
        let mut dropped = txs.clone();
        dropped.remove(at);
        let mut appended = txs.clone();
        appended.push(record(txs.len() as u64, specs[at]));
        for tampered in [flipped, dropped, appended] {
            let twin = Block::from_parts(built.header.clone(), tampered, StateDelta::new());
            prop_assert!(!twin.verify_content());
            prop_assert!(!twin.clone().verify_content(), "the verdict travels with clones");
        }

        // The same members reassembled from parts are verified from scratch
        // and agree with the verdict the built block was born with.
        let rebuilt = Block::from_parts(built.header.clone(), txs.clone(), StateDelta::new());
        prop_assert!(rebuilt.verify_content());
        prop_assert!(built.verify_content());
        prop_assert!(built.clone().verify_content());
        prop_assert_eq!(rebuilt, built);
    }

    /// Account-key ownership parsing is the inverse of construction.
    #[test]
    fn account_keys_round_trip(domain in 0u16..512, n in 0u64..1_000_000) {
        prop_assert_eq!(account_owner_index(&account_key(domain, n)), Some(domain));
    }
}
