//! Cross-domain execution helpers.
//!
//! A cross-domain transfer touches accounts owned by different height-1
//! domains: the sender's domain debits, the recipient's domain credits.  The
//! ownership convention is the account key built by
//! [`saguaro_types::transaction::account_key`] (`a<domain index>_<n>`); a
//! domain additionally "owns" any account whose state it currently hosts
//! (mobile devices roaming into the domain).

use saguaro_ledger::{BlockchainState, UndoRecord};
use saguaro_types::transaction::account_owner_index;
use saguaro_types::{ClientId, DomainId, Operation, Result, SaguaroError};

/// The canonical account key of an edge device registered in `home`.
pub fn device_account(home: DomainId, device: ClientId) -> String {
    saguaro_types::transaction::account_key(home.index, device.0)
}

/// True if `domain` is responsible for `key`: either the key follows the
/// ownership convention and names this domain, or the key is currently
/// present in the domain's state (hosted mobile account, seeded key).
fn responsible_for(state: &BlockchainState, domain: DomainId, key: &str) -> bool {
    match account_owner_index(key) {
        Some(idx) => idx == domain.index || state.get(key).is_some(),
        None => true, // non-account keys (hours/..., slices, ...) are local
    }
}

/// Executes the parts of `op` that `domain` is responsible for, returning an
/// undo record for rollback.  Parts owned by other domains are skipped (they
/// execute there).  A transfer whose debit side is owned here and lacks funds
/// fails without mutating the state.
pub fn execute_in_domain(
    state: &mut BlockchainState,
    op: &Operation,
    domain: DomainId,
) -> Result<UndoRecord> {
    match op {
        Operation::Transfer { from, to, amount } => {
            let owns_from = responsible_for(state, domain, from);
            let owns_to = responsible_for(state, domain, to);
            if !owns_from && !owns_to {
                return Err(SaguaroError::WrongDomain {
                    tx: saguaro_types::TxId(0),
                    domain,
                });
            }
            let mut undo = UndoRecord::empty();
            if owns_from {
                undo.merge(state.debit(from, *amount)?);
            }
            if owns_to {
                undo.merge(state.credit(to, *amount));
            }
            Ok(undo)
        }
        // Every other operation is single-domain; execute it whole.
        other => state.execute(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::transaction::account_key;

    fn d(i: u16) -> DomainId {
        DomainId::new(1, i)
    }

    #[test]
    fn local_transfer_executes_both_sides() {
        let mut s = BlockchainState::new();
        s.put(&account_key(0, 1), 100);
        let op = Operation::Transfer {
            from: account_key(0, 1),
            to: account_key(0, 2),
            amount: 40,
        };
        execute_in_domain(&mut s, &op, d(0)).unwrap();
        assert_eq!(s.balance(&account_key(0, 1)), 60);
        assert_eq!(s.balance(&account_key(0, 2)), 40);
    }

    #[test]
    fn cross_domain_transfer_splits_debit_and_credit() {
        // Sender owned by domain 0, recipient by domain 1.
        let op = Operation::Transfer {
            from: account_key(0, 1),
            to: account_key(1, 9),
            amount: 25,
        };

        let mut s0 = BlockchainState::new();
        s0.put(&account_key(0, 1), 100);
        execute_in_domain(&mut s0, &op, d(0)).unwrap();
        assert_eq!(s0.balance(&account_key(0, 1)), 75);
        assert_eq!(s0.get(&account_key(1, 9)), None, "domain 0 must not credit");

        let mut s1 = BlockchainState::new();
        execute_in_domain(&mut s1, &op, d(1)).unwrap();
        assert_eq!(s1.balance(&account_key(1, 9)), 25);
        assert_eq!(s1.get(&account_key(0, 1)), None, "domain 1 must not debit");
    }

    #[test]
    fn insufficient_funds_fail_only_on_the_owning_domain() {
        let op = Operation::Transfer {
            from: account_key(0, 1),
            to: account_key(1, 9),
            amount: 25,
        };
        let mut s0 = BlockchainState::new();
        s0.put(&account_key(0, 1), 10);
        assert!(execute_in_domain(&mut s0, &op, d(0)).is_err());
        // The recipient domain does not check the sender's funds.
        let mut s1 = BlockchainState::new();
        assert!(execute_in_domain(&mut s1, &op, d(1)).is_ok());
    }

    #[test]
    fn hosted_mobile_account_is_executable_remotely() {
        // Device from domain 0 roams into domain 2; its account was installed
        // into domain 2's state by the mobile consensus protocol.
        let mut s2 = BlockchainState::new();
        s2.put(&account_key(0, 7), 50);
        s2.put(&account_key(2, 1), 5);
        let op = Operation::Transfer {
            from: account_key(0, 7),
            to: account_key(2, 1),
            amount: 20,
        };
        execute_in_domain(&mut s2, &op, d(2)).unwrap();
        assert_eq!(s2.balance(&account_key(0, 7)), 30);
        assert_eq!(s2.balance(&account_key(2, 1)), 25);
    }

    #[test]
    fn uninvolved_domain_rejects() {
        let op = Operation::Transfer {
            from: account_key(0, 1),
            to: account_key(1, 2),
            amount: 1,
        };
        let mut s = BlockchainState::new();
        assert!(matches!(
            execute_in_domain(&mut s, &op, d(5)),
            Err(SaguaroError::WrongDomain { .. })
        ));
    }

    #[test]
    fn rollback_of_partial_execution() {
        let op = Operation::Transfer {
            from: account_key(0, 1),
            to: account_key(1, 9),
            amount: 25,
        };
        let mut s0 = BlockchainState::new();
        s0.put(&account_key(0, 1), 100);
        let undo = execute_in_domain(&mut s0, &op, d(0)).unwrap();
        s0.revert(&undo);
        assert_eq!(s0.balance(&account_key(0, 1)), 100);
    }

    #[test]
    fn non_account_operations_execute_locally() {
        let mut s = BlockchainState::new();
        execute_in_domain(
            &mut s,
            &Operation::RideTask {
                driver: "driver-1".into(),
                minutes: 30,
                fare: 9,
            },
            d(3),
        )
        .unwrap();
        assert_eq!(s.get("hours/driver-1"), Some(30));
    }

    #[test]
    fn device_account_follows_convention() {
        assert_eq!(device_account(d(2), ClientId(9)), account_key(2, 9));
    }
}
