//! The blockchain state: a replicated key/value datastore updated by
//! executing transactions.
//!
//! In the micropayment application the state maps account keys to balances.
//! Execution is deterministic, so every replica of a domain that executes the
//! same transactions in the same order reaches the same state (the SMR
//! argument).  Every successful execution returns an [`UndoRecord`] so the
//! optimistic cross-domain protocol can roll back an aborted transaction and
//! its data-dependent successors.

use saguaro_types::{Operation, Result, SaguaroError};
use std::collections::BTreeMap;

/// One reversible state mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UndoRecord {
    /// `(key, previous value)` pairs; `None` means the key did not exist.
    prior: Vec<(String, Option<u64>)>,
}

impl UndoRecord {
    /// An undo record that changes nothing (read-only operations).
    pub fn empty() -> Self {
        Self { prior: Vec::new() }
    }

    /// True if applying this undo record would change nothing.
    pub fn is_empty(&self) -> bool {
        self.prior.is_empty()
    }

    /// Keys touched by the recorded mutation.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.prior.iter().map(|(k, _)| k.as_str())
    }

    /// Chains another undo record after this one.  Reverting the merged
    /// record undoes both mutations (later one first).
    pub fn merge(mut self, later: UndoRecord) -> UndoRecord {
        self.prior.extend(later.prior);
        self
    }
}

/// The key/value blockchain state of one domain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockchainState {
    values: BTreeMap<String, u64>,
}

impl BlockchainState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
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
        self.values.get(key).copied()
    }

    /// Reads an account balance, defaulting to zero for unknown accounts.
    pub fn balance(&self, account: &str) -> u64 {
        self.get(account).unwrap_or(0)
    }

    /// Directly sets a key (used to seed initial balances and to install
    /// state snapshots received through the mobile consensus protocol).
    pub fn put(&mut self, key: impl Into<String>, value: u64) {
        self.values.insert(key.into(), value);
    }

    /// Iterates over all `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Sum of the values of all keys with the given prefix (e.g. the total
    /// amount of assets held by accounts of one application).
    pub fn sum_by_prefix(&self, prefix: &str) -> u64 {
        self.values
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Executes an operation, mutating the state.  Returns the undo record on
    /// success; on failure the state is unchanged.
    pub fn execute(&mut self, op: &Operation) -> Result<UndoRecord> {
        match op {
            Operation::Transfer { from, to, amount } => {
                let from_balance = self.balance(from);
                if from_balance < *amount {
                    return Err(SaguaroError::InsufficientBalance {
                        account: from.clone(),
                        balance: from_balance,
                        requested: *amount,
                    });
                }
                let prior = vec![(from.clone(), self.get(from)), (to.clone(), self.get(to))];
                self.values.insert(from.clone(), from_balance - amount);
                let to_balance = self.balance(to);
                self.values.insert(to.clone(), to_balance + amount);
                Ok(UndoRecord { prior })
            }
            Operation::Mint { account, amount } => {
                let prior = vec![(account.clone(), self.get(account))];
                let balance = self.balance(account);
                self.values.insert(account.clone(), balance + amount);
                Ok(UndoRecord { prior })
            }
            Operation::RideTask {
                driver, minutes, ..
            } => {
                let key = format!("hours/{driver}");
                let prior = vec![(key.clone(), self.get(&key))];
                let total = self.get(&key).unwrap_or(0) + minutes;
                self.values.insert(key, total);
                Ok(UndoRecord { prior })
            }
            Operation::Put { key, value } => {
                let prior = vec![(key.clone(), self.get(key))];
                self.values.insert(key.clone(), *value);
                Ok(UndoRecord { prior })
            }
            Operation::Get { key } => {
                if self.values.contains_key(key) {
                    Ok(UndoRecord::empty())
                } else {
                    Err(SaguaroError::UnknownAccount(key.clone()))
                }
            }
            Operation::Noop => Ok(UndoRecord::empty()),
        }
    }

    /// Debits `amount` from `account`, failing (without mutation) if the
    /// balance is insufficient.  Used by the cross-domain execution path
    /// where each involved domain applies only the side of a transfer it
    /// owns.
    pub fn debit(&mut self, account: &str, amount: u64) -> Result<UndoRecord> {
        let balance = self.balance(account);
        if balance < amount {
            return Err(SaguaroError::InsufficientBalance {
                account: account.to_string(),
                balance,
                requested: amount,
            });
        }
        let prior = vec![(account.to_string(), self.get(account))];
        self.values.insert(account.to_string(), balance - amount);
        Ok(UndoRecord { prior })
    }

    /// Credits `amount` to `account` (creating it if necessary).
    pub fn credit(&mut self, account: &str, amount: u64) -> UndoRecord {
        let prior = vec![(account.to_string(), self.get(account))];
        let balance = self.balance(account);
        self.values.insert(account.to_string(), balance + amount);
        UndoRecord { prior }
    }

    /// Reverts a previously returned undo record (rollback of an aborted
    /// optimistic transaction).  Undo records must be reverted in reverse
    /// order of application for correctness.
    pub fn revert(&mut self, undo: &UndoRecord) {
        for (key, prior) in undo.prior.iter().rev() {
            match prior {
                Some(v) => {
                    self.values.insert(key.clone(), *v);
                }
                None => {
                    self.values.remove(key);
                }
            }
        }
    }

    /// Total of all values (conservation checks in tests: transfers preserve
    /// the total supply).
    pub fn total_supply(&self) -> u64 {
        self.values.values().sum()
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
            self.values.insert(k.clone(), *v);
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
            home.put(format!("hours/{account}"), minutes);
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

    #[test]
    fn debit_credit_and_merge_round_trip() {
        let mut s = BlockchainState::new();
        s.put("a", 50);
        let u1 = s.debit("a", 20).unwrap();
        let u2 = s.credit("b", 20);
        assert_eq!(s.balance("a"), 30);
        assert_eq!(s.balance("b"), 20);
        assert!(s.debit("a", 1000).is_err());
        let merged = u1.merge(u2);
        s.revert(&merged);
        assert_eq!(s.balance("a"), 50);
        assert_eq!(s.get("b"), None);
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
