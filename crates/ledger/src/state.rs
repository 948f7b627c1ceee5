//! The blockchain state: a replicated key/value datastore updated by
//! executing transactions.
//!
//! In the micropayment application the state maps account keys to balances.
//! Execution is deterministic, so every replica of a domain that executes the
//! same transactions in the same order reaches the same state (the SMR
//! argument).  Every successful execution returns an [`UndoRecord`] so the
//! optimistic cross-domain protocol can roll back an aborted transaction and
//! its data-dependent successors.

use saguaro_types::{CowMap, Key, Operation, Result, SaguaroError};

/// One write as the state map made it: the map's own handle of the key (not
/// a copy of the string), the value it replaced (`None`: the key did not
/// exist) and the value stored.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Write {
    key: Key,
    prior: Option<u64>,
    value: u64,
}

/// One reversible state mutation: its writes, in the order they were made.
///
/// The first two writes — a transfer's debit and credit, the usual record —
/// are held inline; only a record merged past two spills onto the heap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UndoRecord {
    /// Filled front to back: `inline[1]` only after `inline[0]`.
    inline: [Option<Write>; 2],
    /// The writes past the second, once both inline places are taken.
    spilled: Vec<Write>,
}

impl UndoRecord {
    /// An undo record that changes nothing (read-only operations).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The record of one write.
    fn of((key, prior, value): (Key, Option<u64>, u64)) -> Self {
        Self {
            inline: [Some(Write { key, prior, value }), None],
            spilled: Vec::new(),
        }
    }

    /// True if applying this undo record would change nothing.
    pub fn is_empty(&self) -> bool {
        self.inline[0].is_none()
    }

    /// The writes, oldest first.
    fn writes(&self) -> impl DoubleEndedIterator<Item = &Write> {
        self.inline.iter().flatten().chain(&self.spilled)
    }

    /// Keys touched by the recorded mutation.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.writes().map(|w| &*w.key)
    }

    /// The last value the recorded mutation stored under `key`, with the
    /// map's handle of the key — what a round's state delta reports for it
    /// without probing the map again.
    pub fn stored(&self, key: &str) -> Option<(&Key, u64)> {
        let write = self.writes().rev().find(|w| *w.key == *key)?;
        Some((&write.key, write.value))
    }

    fn push(&mut self, write: Write) {
        match &mut self.inline {
            [first @ None, _] => *first = Some(write),
            [_, second @ None] => *second = Some(write),
            _ => self.spilled.push(write),
        }
    }

    /// Chains another undo record after this one, in place.  Reverting the
    /// merged record undoes both mutations (later one first).
    pub fn merge(&mut self, later: UndoRecord) {
        if self.is_empty() {
            *self = later;
            return;
        }
        let [first, second] = later.inline;
        for write in first.into_iter().chain(second).chain(later.spilled) {
            self.push(write);
        }
    }
}

/// The key/value blockchain state of one domain.
///
/// The values live in a [`CowMap`], so a clone of the state — a replica
/// seeded from its domain's initial state, a checkpoint snapshot — shares
/// every leaf with the original until one of the two writes to it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockchainState {
    values: CowMap,
}

impl BlockchainState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// A state over `values`, sharing its leaves (snapshot install).
    pub fn adopt(values: CowMap) -> Self {
        Self { values }
    }

    /// The state's values as a map sharing its leaves (snapshot capture).
    pub fn share(&self) -> CowMap {
        self.values.clone()
    }

    /// Number of keys in the state.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the state holds no keys.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.values.get(key)
    }

    /// Reads an account balance, defaulting to zero for unknown accounts.
    pub fn balance(&self, account: &str) -> u64 {
        self.get(account).unwrap_or(0)
    }

    /// Directly sets a key (used to seed initial balances and to install
    /// state snapshots received through the mobile consensus protocol).
    pub fn put(&mut self, key: &str, value: u64) {
        self.values.insert(key, value);
    }

    /// Iterates over all `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter()
    }

    /// Sum of the values of all keys with the given prefix (e.g. the total
    /// amount of assets held by accounts of one application).
    pub fn sum_by_prefix(&self, prefix: &str) -> u64 {
        self.values
            .range_from(prefix)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Executes an operation, mutating the state.  Returns the undo record on
    /// success; on failure the state is unchanged.
    pub fn execute(&mut self, op: &Operation) -> Result<UndoRecord> {
        match op {
            Operation::Transfer { from, to, amount } => {
                let mut undo = self.debit(from, *amount)?;
                undo.merge(self.credit(to, *amount));
                Ok(undo)
            }
            Operation::Mint { account, amount } => Ok(self.credit(account, *amount)),
            Operation::RideTask {
                driver, minutes, ..
            } => Ok(self.credit(&format!("hours/{driver}"), *minutes)),
            Operation::Put { key, value } => {
                Ok(UndoRecord::of(self.values.update(key, |_| *value)))
            }
            Operation::Get { key } => match self.get(key) {
                Some(_) => Ok(UndoRecord::empty()),
                None => Err(SaguaroError::UnknownAccount(key.clone())),
            },
            Operation::Noop => Ok(UndoRecord::empty()),
        }
    }

    /// Debits `amount` from `account`, failing (without mutation) if the
    /// balance is insufficient.  Used by the cross-domain execution path
    /// where each involved domain applies only the side of a transfer it
    /// owns.
    pub fn debit(&mut self, account: &str, amount: u64) -> Result<UndoRecord> {
        let debited = self.values.try_update(account, |current| {
            let balance = current.unwrap_or(0);
            balance
                .checked_sub(amount)
                .ok_or_else(|| SaguaroError::InsufficientBalance {
                    account: account.to_string(),
                    balance,
                    requested: amount,
                })
        })?;
        Ok(UndoRecord::of(debited))
    }

    /// Credits `amount` to `account` (creating it if necessary).
    pub fn credit(&mut self, account: &str, amount: u64) -> UndoRecord {
        UndoRecord::of(self.values.update(account, |v| v.unwrap_or(0) + amount))
    }

    /// Reverts a previously returned undo record (rollback of an aborted
    /// optimistic transaction).  Undo records must be reverted in reverse
    /// order of application for correctness.
    pub fn revert(&mut self, undo: &UndoRecord) {
        for write in undo.writes().rev() {
            match write.prior {
                Some(v) => self.values.insert(&write.key, v),
                None => self.values.remove(&write.key),
            };
        }
    }

    /// Total of all values (conservation checks in tests: transfers preserve
    /// the total supply).
    pub fn total_supply(&self) -> u64 {
        self.iter().map(|(_, v)| v).sum()
    }

    /// Extracts the sub-state relevant to one account — the "state of the
    /// mobile node" shipped to a remote domain by the mobile consensus
    /// protocol (Algorithm 2's `GenerateState`): the account's balance and
    /// its `hours/{account}` ridesharing record, whichever exist, in key
    /// order.
    pub fn extract_account_state(&self, account: &str) -> Vec<(String, u64)> {
        let mut keys = [account.to_string(), format!("hours/{account}")];
        keys.sort();
        keys.into_iter()
            .filter_map(|k| self.get(&k).map(|v| (k, v)))
            .collect()
    }

    /// Installs a sub-state received from another domain (mobile consensus).
    pub fn install_account_state(&mut self, entries: &[(String, u64)]) {
        for (k, v) in entries {
            self.values.insert(k, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer(from: &str, to: &str, amount: u64) -> Operation {
        Operation::Transfer {
            from: from.into(),
            to: to.into(),
            amount,
        }
    }

    #[test]
    fn mint_and_transfer_update_balances() {
        let mut s = BlockchainState::new();
        s.execute(&Operation::Mint {
            account: "alice".into(),
            amount: 100,
        })
        .unwrap();
        s.execute(&transfer("alice", "bob", 30)).unwrap();
        assert_eq!(s.balance("alice"), 70);
        assert_eq!(s.balance("bob"), 30);
        assert_eq!(s.total_supply(), 100);
    }

    #[test]
    fn insufficient_balance_fails_and_leaves_state_untouched() {
        let mut s = BlockchainState::new();
        s.put("alice", 10);
        let before = s.clone();
        let err = s.execute(&transfer("alice", "bob", 25)).unwrap_err();
        assert!(matches!(err, SaguaroError::InsufficientBalance { .. }));
        assert_eq!(s, before);
    }

    #[test]
    fn revert_restores_previous_values() {
        let mut s = BlockchainState::new();
        s.put("alice", 50);
        let undo = s.execute(&transfer("alice", "bob", 20)).unwrap();
        assert_eq!(s.balance("bob"), 20);
        s.revert(&undo);
        assert_eq!(s.balance("alice"), 50);
        assert_eq!(s.get("bob"), None, "bob did not exist before");
    }

    #[test]
    fn revert_chain_in_reverse_order_restores_everything() {
        let mut s = BlockchainState::new();
        s.put("a", 100);
        let u1 = s.execute(&transfer("a", "b", 10)).unwrap();
        let u2 = s.execute(&transfer("b", "c", 5)).unwrap();
        let u3 = s.execute(&transfer("a", "c", 1)).unwrap();
        for u in [u3, u2, u1].iter() {
            s.revert(u);
        }
        assert_eq!(s.balance("a"), 100);
        assert_eq!(s.get("b"), None);
        assert_eq!(s.get("c"), None);
    }

    #[test]
    fn ride_tasks_accumulate_working_hours() {
        let mut s = BlockchainState::new();
        for minutes in [30, 45, 25] {
            s.execute(&Operation::RideTask {
                driver: "driver-1".into(),
                minutes,
                fare: 10,
            })
            .unwrap();
        }
        assert_eq!(s.get("hours/driver-1"), Some(100));
    }

    #[test]
    fn put_and_get_and_unknown_key() {
        let mut s = BlockchainState::new();
        s.execute(&Operation::Put {
            key: "slice/qos".into(),
            value: 7,
        })
        .unwrap();
        assert!(s
            .execute(&Operation::Get {
                key: "slice/qos".into()
            })
            .is_ok());
        assert!(matches!(
            s.execute(&Operation::Get {
                key: "missing".into()
            }),
            Err(SaguaroError::UnknownAccount(_))
        ));
        assert!(s.execute(&Operation::Noop).unwrap().is_empty());
    }

    #[test]
    fn sum_by_prefix_aggregates() {
        let mut s = BlockchainState::new();
        s.put("acct/1", 10);
        s.put("acct/2", 20);
        s.put("other", 99);
        assert_eq!(s.sum_by_prefix("acct/"), 30);
        assert_eq!(s.sum_by_prefix("zzz"), 0);
    }

    #[test]
    fn extract_and_install_account_state() {
        let mut s = BlockchainState::new();
        s.put("driver-7", 42);
        s.put("hours/driver-7", 120);
        s.put("unrelated", 5);
        let extracted = s.extract_account_state("driver-7");
        assert_eq!(extracted.len(), 2);

        let mut remote = BlockchainState::new();
        remote.install_account_state(&extracted);
        assert_eq!(remote.balance("driver-7"), 42);
        assert_eq!(remote.get("hours/driver-7"), Some(120));
        assert_eq!(remote.get("unrelated"), None);
    }

    /// `a1_1` roaming away must not take `a1_10`'s records with it: the
    /// `hours/` entry is matched exactly, not by prefix.
    #[test]
    fn extraction_leaves_accounts_sharing_a_prefix_alone() {
        let mut home = BlockchainState::new();
        for (account, balance, minutes) in [("a1_1", 40, 30), ("a1_10", 70, 55)] {
            home.put(account, balance);
            home.put(&format!("hours/{account}"), minutes);
        }
        let extracted = home.extract_account_state("a1_1");
        assert_eq!(
            extracted,
            vec![("a1_1".to_string(), 40), ("hours/a1_1".to_string(), 30)]
        );

        // The remote domain hosts its own `a1_10`-named records already.
        let mut remote = BlockchainState::new();
        remote.put("a1_10", 7);
        remote.put("hours/a1_10", 9);
        remote.install_account_state(&extracted);
        assert_eq!(remote.get("a1_1"), Some(40));
        assert_eq!(remote.get("hours/a1_1"), Some(30));
        assert_eq!(remote.get("a1_10"), Some(7), "neither gained ...");
        assert_eq!(remote.get("hours/a1_10"), Some(9), "... nor lost");
        assert_eq!(remote.len(), 4);
    }

    /// Five writes merged into one record, two of them inline and three
    /// spilled, with keys written twice: only a newest-first revert restores
    /// the exact prior state, including the keys the record created.
    #[test]
    fn a_record_merged_past_its_inline_writes_reverts_newest_first() {
        let mut s = BlockchainState::new();
        s.put("a", 50);
        s.put("z", 7);
        let before = s.clone();
        let mut undo = s.debit("a", 20).unwrap();
        undo.merge(s.credit("b", 20));
        assert!(s.debit("a", 1_000).is_err());
        assert_eq!((s.balance("a"), s.balance("b")), (30, 20));
        // A record that has spilled itself, merged after the inline pair.
        let mut later = s.debit("a", 10).unwrap();
        later.merge(s.credit("b", 5));
        later.merge(s.credit("c", 5));
        undo.merge(later);
        let keys: Vec<_> = undo.keys().collect();
        assert_eq!(keys, ["a", "b", "a", "b", "c"]);
        assert_eq!(undo.stored("a").map(|(k, v)| (&**k, v)), Some(("a", 20)));
        assert_eq!(undo.stored("b").map(|(_, v)| v), Some(25));
        assert_eq!(undo.stored("z"), None, "never written");
        s.revert(&undo);
        assert_eq!(s, before);
        assert_eq!((s.get("b"), s.get("c")), (None, None));
    }

    #[test]
    fn merging_an_empty_record_on_either_side_changes_nothing() {
        let mut s = BlockchainState::new();
        s.put("a", 50);
        let transfer = s.execute(&transfer("a", "b", 20)).unwrap();
        let mut left = UndoRecord::empty();
        left.merge(transfer.clone());
        assert_eq!(left, transfer);
        let mut right = transfer.clone();
        right.merge(UndoRecord::empty());
        assert_eq!(right, transfer);
        let mut none = UndoRecord::empty();
        none.merge(UndoRecord::empty());
        assert!(none.is_empty() && none.keys().next().is_none());
        s.revert(&right);
        assert_eq!((s.balance("a"), s.get("b")), (50, None));
    }

    /// Pinned corner cases of the read-modify-write paths: a zero debit of an
    /// unknown account creates it with 0 (and reverting removes it again), a
    /// refused debit creates nothing, and a transfer to oneself reverts to
    /// the balance it started from.
    #[test]
    fn zero_debits_refusals_and_self_transfers_keep_their_semantics() {
        let mut s = BlockchainState::new();
        let undo = s.debit("ghost", 0).unwrap();
        assert_eq!(s.get("ghost"), Some(0));
        assert_eq!(undo.keys().collect::<Vec<_>>(), vec!["ghost"]);
        s.revert(&undo);
        assert_eq!(s.get("ghost"), None);

        assert!(s.debit("ghost", 1).is_err());
        assert!(s.is_empty(), "a refused debit leaves no trace");

        s.put("a", 10);
        let undo = s.execute(&transfer("a", "a", 4)).unwrap();
        assert_eq!(s.balance("a"), 10);
        assert_eq!(undo.keys().collect::<Vec<_>>(), vec!["a", "a"]);
        // The value stored last is what a fresh read of the state returns.
        assert_eq!(undo.stored("a").map(|(_, v)| v), Some(10));
        s.revert(&undo);
        assert_eq!(s.balance("a"), 10);
    }

    #[test]
    fn a_shared_copy_never_sees_later_writes_of_either_side() {
        let mut donor = BlockchainState::new();
        for i in 0..200u64 {
            donor.put(&format!("a0_{i}"), 100);
        }
        let taken = donor.share();
        let at_share = donor.clone();
        donor.execute(&transfer("a0_3", "a0_150", 40)).unwrap();
        donor.put("new", 1);

        let mut adopter = BlockchainState::adopt(taken.clone());
        assert_eq!(adopter, at_share);
        adopter.execute(&transfer("a0_9", "a0_3", 5)).unwrap();

        assert_eq!(BlockchainState::adopt(taken), at_share);
        assert_eq!(donor.balance("a0_3"), 60);
        assert_eq!(adopter.balance("a0_3"), 105);
        assert_eq!(adopter.get("new"), None);
    }

    #[test]
    fn transfers_conserve_total_supply() {
        let mut s = BlockchainState::new();
        s.put("a", 100);
        s.put("b", 100);
        for i in 0..50u64 {
            let (from, to) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
            let _ = s.execute(&transfer(from, to, i % 7));
        }
        assert_eq!(s.total_supply(), 200);
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut s = BlockchainState::new();
        s.put("b", 2);
        s.put("a", 1);
        let keys: Vec<_> = s.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
