//! The shared error type.

use crate::ids::DomainId;
use crate::transaction::TxId;
use std::fmt;

/// Errors surfaced by Saguaro components.
///
/// Protocol-internal retries (view changes, deadlock aborts, optimistic
/// rollbacks) are part of normal operation and are *not* errors; this type
/// covers genuine misuse or violated preconditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaguaroError {
    /// A domain identifier does not exist in the deployed hierarchy.
    UnknownDomain(DomainId),
    /// A transaction references a key/account that does not exist.
    UnknownAccount(String),
    /// A transfer exceeds the sender's balance.
    InsufficientBalance {
        /// Account whose balance was insufficient.
        account: String,
        /// Balance at execution time.
        balance: u64,
        /// Amount the transaction tried to move.
        requested: u64,
    },
    /// A transaction was submitted to a domain that is not involved in it.
    WrongDomain {
        /// The transaction in question.
        tx: TxId,
        /// The domain that received it.
        domain: DomainId,
    },
    /// A block failed Merkle-root or hash-chain verification.
    InvalidBlock(String),
    /// The hierarchy description passed to the topology builder is malformed.
    InvalidTopology(String),
}

impl fmt::Display for SaguaroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaguaroError::UnknownDomain(d) => write!(f, "unknown domain {d}"),
            SaguaroError::UnknownAccount(a) => write!(f, "unknown account {a}"),
            SaguaroError::InsufficientBalance {
                account,
                balance,
                requested,
            } => write!(
                f,
                "insufficient balance on {account}: have {balance}, need {requested}"
            ),
            SaguaroError::WrongDomain { tx, domain } => {
                write!(f, "transaction {tx:?} routed to uninvolved domain {domain}")
            }
            SaguaroError::InvalidBlock(why) => write!(f, "invalid block: {why}"),
            SaguaroError::InvalidTopology(why) => write!(f, "invalid topology: {why}"),
        }
    }
}

impl std::error::Error for SaguaroError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DomainId;

    #[test]
    fn display_mentions_the_relevant_identifiers() {
        let e = SaguaroError::UnknownDomain(DomainId::new(2, 1));
        assert!(e.to_string().contains("D2-1"));

        let e = SaguaroError::InsufficientBalance {
            account: "alice".into(),
            balance: 10,
            requested: 25,
        };
        let s = e.to_string();
        assert!(s.contains("alice") && s.contains("10") && s.contains("25"));
    }

    #[test]
    fn errors_are_comparable_for_tests() {
        assert_eq!(
            SaguaroError::InvalidTopology("x".into()),
            SaguaroError::InvalidTopology("x".into())
        );
        assert_ne!(
            SaguaroError::InvalidTopology("x".into()),
            SaguaroError::InvalidBlock("x".into())
        );
    }

    #[test]
    fn error_trait_object_is_usable() {
        let e: Box<dyn std::error::Error> = Box::new(SaguaroError::InvalidBlock("boom".into()));
        assert!(e.to_string().contains("boom"));
    }
}
