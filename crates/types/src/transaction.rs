//! Client transactions.
//!
//! Transactions are initiated by edge devices (height-0) and executed by the
//! edge servers of height-1 domains.  A transaction is *internal* if it only
//! touches records of a single height-1 domain, *cross-domain* if it touches
//! records owned by several height-1 domains, and *mobile* if it is issued by
//! an edge device currently roaming in a domain other than its home domain.

use crate::cowmap::CowMap;
use crate::ids::{ClientId, DomainId};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Globally unique transaction identifier (assigned by the issuing client).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u64);

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx-{}", self.0)
    }
}

/// The application-level operation carried by a transaction.
///
/// The evaluation workload of the paper is a micropayment application; we also
/// model the ridesharing/gig-economy records used as the motivating example
/// (working-hour aggregation) and a generic key-value write for the resource
/// provisioning scenario.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Operation {
    /// Transfer `amount` from `from` to `to` (micropayment).  Fails if the
    /// sender's balance is insufficient.
    Transfer {
        /// Sender account key.
        from: String,
        /// Recipient account key.
        to: String,
        /// Amount of asset units to move.
        amount: u64,
    },
    /// Credit `amount` to `account` (used to seed balances).
    Mint {
        /// Account to credit.
        account: String,
        /// Amount to credit.
        amount: u64,
    },
    /// Record a completed ridesharing task for `driver` lasting
    /// `minutes` minutes (the working-hour attribute is what higher-level
    /// domains aggregate).
    RideTask {
        /// Driver account key.
        driver: String,
        /// Ride duration in minutes.
        minutes: u64,
        /// Fare paid, in asset units.
        fare: u64,
    },
    /// Set a key to a value (resource provisioning / generic state update).
    Put {
        /// Record key.
        key: String,
        /// Record value.
        value: u64,
    },
    /// Read a key (no state mutation; still ordered for auditability).
    Get {
        /// Record key.
        key: String,
    },
    /// No-op used by benchmarks that only measure ordering cost.
    Noop,
}

impl Operation {
    /// Keys read by this operation (used for conflict/contention detection).
    /// At most two, yielded without allocating.
    pub fn read_set(&self) -> impl Iterator<Item = &str> + Clone {
        let keys = match self {
            Operation::Transfer { from, .. } => [Some(from), None],
            Operation::RideTask { driver, .. } => [Some(driver), None],
            Operation::Get { key } => [Some(key), None],
            Operation::Mint { .. } | Operation::Put { .. } | Operation::Noop => [None, None],
        };
        keys.into_iter().flatten().map(String::as_str)
    }

    /// Keys written by this operation.  At most two, yielded without
    /// allocating.
    pub fn write_set(&self) -> impl Iterator<Item = &str> + Clone {
        let keys = match self {
            Operation::Transfer { from, to, .. } => [Some(from), Some(to)],
            Operation::Mint { account, .. } => [Some(account), None],
            Operation::RideTask { driver, .. } => [Some(driver), None],
            Operation::Put { key, .. } => [Some(key), None],
            Operation::Get { .. } | Operation::Noop => [None, None],
        };
        keys.into_iter().flatten().map(String::as_str)
    }
}

/// Classification of a transaction with respect to the hierarchy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TxKind {
    /// Touches records of a single height-1 domain.
    Internal {
        /// The owning domain.
        domain: DomainId,
    },
    /// Touches records owned by two or more height-1 domains; processed by the
    /// coordinator-based or optimistic cross-domain protocol.
    CrossDomain {
        /// The involved height-1 domains (sorted, deduplicated).
        domains: Vec<DomainId>,
    },
    /// Issued by a mobile edge device in a remote domain; processed by the
    /// mobile consensus protocol between the device's local (home) domain and
    /// the remote domain it currently visits.
    Mobile {
        /// The device's home domain (where its state lives).
        local: DomainId,
        /// The domain the device is currently visiting.
        remote: DomainId,
    },
}

impl TxKind {
    /// Builds a cross-domain kind, normalising the domain list.
    pub fn cross_domain(mut domains: Vec<DomainId>) -> Self {
        domains.sort();
        domains.dedup();
        TxKind::CrossDomain { domains }
    }

    /// Every height-1 domain whose ledger will contain this transaction,
    /// sorted and deduplicated.
    pub fn involved_domains(&self) -> Involved<'_> {
        match self {
            TxKind::Internal { domain } => Involved::Stored(std::slice::from_ref(domain)),
            TxKind::CrossDomain { domains } => Involved::Stored(domains),
            TxKind::Mobile { local, remote } if local == remote => {
                Involved::Stored(std::slice::from_ref(local))
            }
            TxKind::Mobile { local, remote } => {
                Involved::Pair([*local.min(remote), *local.max(remote)])
            }
        }
    }

    /// True if more than one height-1 domain is involved.
    pub fn is_cross_domain(&self) -> bool {
        match self {
            TxKind::Internal { .. } => false,
            TxKind::CrossDomain { domains } => domains.len() > 1,
            TxKind::Mobile { local, remote } => local != remote,
        }
    }

    /// True if this is a mobile transaction.
    pub fn is_mobile(&self) -> bool {
        matches!(self, TxKind::Mobile { .. })
    }
}

/// The domains a [`TxKind`] involves, as a slice that needs no heap of its
/// own: the kind's stored list or domain, or a mobile kind's two domains in
/// order, inline.
#[derive(Clone, Copy)]
pub enum Involved<'a> {
    /// Borrowed from the kind.
    Stored(&'a [DomainId]),
    /// Two distinct domains, ascending.
    Pair([DomainId; 2]),
}

impl Deref for Involved<'_> {
    type Target = [DomainId];

    fn deref(&self) -> &[DomainId] {
        match self {
            Involved::Stored(domains) => domains,
            Involved::Pair(pair) => pair,
        }
    }
}

/// Builds the canonical account key for account number `n` owned by the
/// height-1 domain with the given index.  The Saguaro execution layer uses
/// this convention to decide which domain debits/credits which side of a
/// cross-domain transfer.
///
/// The key is `a{domain_index}_{n}`, written into a string of exactly its
/// length: one allocator call, where `format!` grows its guess and makes two.
pub fn account_key(domain_index: u16, n: u64) -> String {
    let digits = |n: u64| n.checked_ilog10().map_or(1, |log| log as usize + 1);
    let mut key = String::with_capacity(2 + digits(domain_index.into()) + digits(n));
    push_account_key(&mut key, domain_index, n);
    key
}

/// Appends [`account_key`]'s text for `(domain_index, n)` to `text`.
fn push_account_key(text: &mut String, domain_index: u16, n: u64) {
    text.push('a');
    push_decimal(text, domain_index.into());
    text.push('_');
    push_decimal(text, n);
}

/// Appends `n`'s decimal numeral to `text`: twice as fast as `write!`.
fn push_decimal(text: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    text.extend(digits[start..].iter().map(|&digit| char::from(digit)));
}

/// `0..count` in the byte order of the keys [`account_key`] builds for them
/// (the order a domain's state holds them in): 0, 1, 10, 100, …, 101, …, 11,
/// …, 2, ….  Keys of one domain differ only in `n`'s numeral, so this is a
/// walk of the decimal trie: after `n` come its children `10n…10n+9`, then
/// its next sibling, climbing while there is none below `count`.  Seeding in
/// this order means the state is built from a run that is already sorted.
pub fn accounts_in_key_order(count: u64) -> impl Iterator<Item = u64> + Clone {
    std::iter::successors((count > 0).then_some(0), move |&n| {
        key_order_successor(n, count)
    })
}

/// The account after `n < count` in [`accounts_in_key_order`], if any.
fn key_order_successor(mut n: u64, count: u64) -> Option<u64> {
    // 0 has no children: no numeral starts with "0" but "0" itself.
    let child = n.checked_mul(10).filter(|&child| n > 0 && child < count);
    if child.is_some() {
        return child;
    }
    loop {
        if n % 10 != 9 && n + 1 < count {
            return Some(n + 1);
        }
        n /= 10;
        if n == 0 {
            return None;
        }
    }
}

/// Accounts every height-1 domain holds in the micropayment application,
/// numbered `0..ACCOUNTS_PER_DOMAIN` under [`account_key`].
pub const ACCOUNTS_PER_DOMAIN: u64 = 10_000;

/// Opening balance of every seeded account.
pub const INITIAL_BALANCE: u64 = 1_000_000;

/// Amount every generated micropayment transfers.
pub const TRANSFER_AMOUNT: u64 = 5;

/// `domain`'s account universe: every account `0..ACCOUNTS_PER_DOMAIN` at
/// its opening balance, written straight into the map's packed leaves.
pub fn account_universe(domain: DomainId) -> CowMap {
    let push = |text: &mut String, n| push_account_key(text, domain.index, n);
    CowMap::uniform(
        accounts_in_key_order(ACCOUNTS_PER_DOMAIN),
        push,
        INITIAL_BALANCE,
    )
}

/// The owning height-1 domain index of an account key built by
/// [`account_key`], or `None` for keys that do not follow the convention.
pub fn account_owner_index(key: &str) -> Option<u16> {
    let rest = key.strip_prefix('a')?;
    let (idx, _) = rest.split_once('_')?;
    idx.parse().ok()
}

/// The contents of a [`Transaction`].  Reachable only through a shared
/// reference (a `Transaction` derefs to it), so nothing can change once the
/// transaction exists.
#[derive(PartialEq, Eq, Debug)]
pub struct TxBody {
    /// Unique transaction identifier.
    pub id: TxId,
    /// The issuing edge device.
    pub client: ClientId,
    /// Hierarchy classification (internal / cross-domain / mobile).
    pub kind: TxKind,
    /// Application payload.
    pub op: Operation,
}

/// A client transaction as submitted to a height-1 domain.
///
/// The body is immutable and shared: cloning a transaction — into a consensus
/// command, a ledger entry, a round's block, an ancestor's DAG — bumps a
/// reference count, so one request is one allocation from the client to the
/// root.  Equality is by content (`Arc` compares the bodies unless both
/// handles are one): a twin built from the same fields is the same transaction.
#[derive(Clone, PartialEq, Eq)]
pub struct Transaction {
    body: Arc<TxBody>,
}

impl Deref for Transaction {
    type Target = TxBody;

    fn deref(&self) -> &TxBody {
        &self.body
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("client", &self.client)
            .field("kind", &self.kind)
            .field("op", &self.op)
            .finish()
    }
}

impl Transaction {
    /// Creates a new transaction.
    pub fn new(id: TxId, client: ClientId, kind: TxKind, op: Operation) -> Self {
        let body = Arc::new(TxBody {
            id,
            client,
            kind,
            op,
        });
        Self { body }
    }

    /// True if both handles share one body (one allocation).
    pub fn ptr_eq(a: &Transaction, b: &Transaction) -> bool {
        Arc::ptr_eq(&a.body, &b.body)
    }

    /// Convenience constructor for an internal transaction.
    pub fn internal(id: TxId, client: ClientId, domain: DomainId, op: Operation) -> Self {
        Self::new(id, client, TxKind::Internal { domain }, op)
    }

    /// Convenience constructor for a cross-domain transaction.
    pub fn cross_domain(id: TxId, client: ClientId, domains: Vec<DomainId>, op: Operation) -> Self {
        Self::new(id, client, TxKind::cross_domain(domains), op)
    }

    /// Convenience constructor for a mobile transaction.
    pub fn mobile(
        id: TxId,
        client: ClientId,
        local: DomainId,
        remote: DomainId,
        op: Operation,
    ) -> Self {
        Self::new(id, client, TxKind::Mobile { local, remote }, op)
    }

    /// Every height-1 domain whose ledger will contain this transaction.
    pub fn involved_domains(&self) -> Involved<'_> {
        self.kind.involved_domains()
    }

    /// Approximate wire size of the transaction in bytes (the paper reports an
    /// average request message size of 0.2 KB; we model the payload size so
    /// the network simulator can charge serialization time).
    pub fn payload_bytes(&self) -> usize {
        let op_bytes = match &self.op {
            Operation::Transfer { from, to, .. } => from.len() + to.len() + 8,
            Operation::Mint { account, .. } => account.len() + 8,
            Operation::RideTask { driver, .. } => driver.len() + 16,
            Operation::Put { key, .. } => key.len() + 8,
            Operation::Get { key } => key.len(),
            Operation::Noop => 0,
        };
        // id + client + kind envelope + signature overhead ≈ 160 bytes keeps
        // the average request close to the paper's 0.2 KB.
        160 + op_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u16) -> DomainId {
        DomainId::new(1, i)
    }

    fn transfer(id: u64, from: &str, to: &str) -> Transaction {
        Transaction::internal(
            TxId(id),
            ClientId(1),
            d(0),
            Operation::Transfer {
                from: from.into(),
                to: to.into(),
                amount: 5,
            },
        )
    }

    #[test]
    fn internal_tx_involves_one_domain() {
        let tx = transfer(1, "a", "b");
        assert_eq!(*tx.involved_domains(), [d(0)]);
        assert!(!tx.kind.is_cross_domain());
        assert!(!tx.kind.is_mobile());
    }

    #[test]
    fn cross_domain_kind_sorts_and_dedups() {
        let k = TxKind::cross_domain(vec![d(2), d(0), d(2)]);
        assert_eq!(*k.involved_domains(), [d(0), d(2)]);
        assert!(k.is_cross_domain());
    }

    #[test]
    fn mobile_tx_involves_local_and_remote() {
        for (local, remote) in [(d(1), d(4)), (d(4), d(1))] {
            let tx = Transaction::mobile(TxId(9), ClientId(3), local, remote, Operation::Noop);
            assert_eq!(*tx.involved_domains(), [d(1), d(4)], "sorted");
            assert!(tx.kind.is_mobile());
            assert!(tx.kind.is_cross_domain());
        }
    }

    #[test]
    fn mobile_tx_back_home_is_not_cross_domain() {
        let tx = Transaction::mobile(TxId(9), ClientId(3), d(1), d(1), Operation::Noop);
        assert_eq!(*tx.involved_domains(), [d(1)]);
        assert!(!tx.kind.is_cross_domain());
    }

    #[test]
    fn read_write_sets_for_transfer() {
        let op = Operation::Transfer {
            from: "alice".into(),
            to: "bob".into(),
            amount: 3,
        };
        assert_eq!(op.read_set().collect::<Vec<_>>(), ["alice"]);
        assert_eq!(op.write_set().collect::<Vec<_>>(), ["alice", "bob"]);
    }

    #[test]
    fn account_key_ownership_round_trips() {
        let k = account_key(3, 17);
        assert_eq!(k, "a3_17");
        assert_eq!(account_owner_index(&k), Some(3));
        assert_eq!(account_owner_index("a12_400"), Some(12));
        assert_eq!(account_owner_index("hours/driver"), None);
        assert_eq!(account_owner_index("aX_1"), None);

        // The hand-written numerals are `format!`'s, down to the extremes.
        for d in [0, 9, 10, u16::MAX] {
            for n in [0, 9, 10, 99, 100, u64::MAX] {
                let key = account_key(d, n);
                assert_eq!(key, format!("a{d}_{n}"));
                assert_eq!(key.capacity(), key.len(), "{key} sized exactly");
            }
        }

        // The key-order walk is the sorted list of the keys it numbers.
        for count in [0, 1, 2, 9, 10, 11, 100, 101, 10_000, 12_345] {
            let walked: Vec<String> = accounts_in_key_order(count)
                .map(|n| account_key(7, n))
                .collect();
            let mut sorted: Vec<String> = (0..count).map(|n| format!("a7_{n}")).collect();
            sorted.sort();
            assert_eq!(walked, sorted, "count {count}");
        }
    }

    /// The handle changes what a clone costs and nothing else: equality is
    /// by content, `Debug` prints the fields and the modelled size is the
    /// body's.
    #[test]
    fn a_clone_shares_the_body_and_a_twin_is_still_equal() {
        let tx = transfer(1, "alice", "bob");
        let clone = tx.clone();
        assert!(Transaction::ptr_eq(&tx, &clone));
        let twin = transfer(1, "alice", "bob");
        assert!(!Transaction::ptr_eq(&tx, &twin));
        assert_eq!(tx, twin);
        assert_ne!(tx, transfer(2, "alice", "bob"));
        assert_ne!(tx, transfer(1, "alice", "carol"));
        assert_eq!(
            format!("{tx:?}"),
            "Transaction { id: tx1, client: c1, kind: Internal { domain: D10 }, \
             op: Transfer { from: \"alice\", to: \"bob\", amount: 5 } }"
        );
        assert_eq!(tx.payload_bytes(), 160 + 5 + 3 + 8);
        assert_eq!(clone.payload_bytes(), twin.payload_bytes());
    }

    #[test]
    fn payload_size_is_near_paper_average() {
        let tx = transfer(1, "acct-00001", "acct-00002");
        let b = tx.payload_bytes();
        assert!(
            (160..=260).contains(&b),
            "payload {b} outside 0.2 KB ballpark"
        );
    }
}
