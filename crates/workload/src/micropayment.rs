//! The micropayment workload used by every quantitative experiment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saguaro_types::transaction::{account_key, ACCOUNTS_PER_DOMAIN, TRANSFER_AMOUNT};
use saguaro_types::{ClientId, DomainId, Operation, Transaction, TxId};

/// Size of the hot (contended) account set per domain: accounts
/// `0..HOT_ACCOUNTS` of its universe.
const HOT_ACCOUNTS: u64 = 16;

/// Transactions a mobile client issues per remote excursion before
/// returning home (the paper uses 10).
const TXS_PER_EXCURSION: u32 = 10;

/// Knobs of the micropayment workload.  The account universe, the opening
/// balance and the transfer amount are the constants of
/// [`saguaro_types::transaction`].
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// The height-1 domains of the deployment (request targets).
    pub edge_domains: Vec<DomainId>,
    /// Fraction of transactions that involve two distinct domains.
    pub cross_domain_ratio: f64,
    /// Fraction of transactions drawn from the hot (contended) account set.
    pub contention_ratio: f64,
    /// Fraction of clients that are mobile (issue requests from a remote
    /// domain).
    pub mobile_ratio: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            edge_domains: (0..4).map(|i| DomainId::new(1, i)).collect(),
            cross_domain_ratio: 0.0,
            contention_ratio: 0.10,
            mobile_ratio: 0.0,
        }
    }
}

/// Per-client state of the mobility model.
#[derive(Clone, Debug)]
struct ClientState {
    home: DomainId,
    mobile: bool,
    /// Remote domain of the current excursion, if any.
    visiting: Option<DomainId>,
    /// Transactions left in the current excursion.
    remaining_in_excursion: u32,
}

/// Deterministic micropayment transaction generator.
///
/// One generator instance drives one logical client population; each call to
/// [`MicropaymentWorkload::next_for_client`] produces the next transaction a
/// given client issues (and tracks its mobility excursions).
#[derive(Clone, Debug)]
pub struct MicropaymentWorkload {
    config: WorkloadConfig,
    rng: StdRng,
    next_tx_id: u64,
    clients: Vec<ClientState>,
}

impl MicropaymentWorkload {
    /// Creates a generator for `num_clients` clients spread round-robin over
    /// the edge domains.
    pub fn new(config: WorkloadConfig, num_clients: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let clients = (0..num_clients)
            .map(|i| {
                let home = config.edge_domains[i % config.edge_domains.len()];
                let mobile = rng.gen_bool(config.mobile_ratio);
                ClientState {
                    home,
                    mobile,
                    visiting: None,
                    remaining_in_excursion: 0,
                }
            })
            .collect();
        Self {
            config,
            rng,
            next_tx_id: 1,
            clients,
        }
    }

    /// Number of clients in the population.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// The home domain of a client.
    pub fn home_of(&self, client: usize) -> DomainId {
        self.clients[client % self.clients.len()].home
    }

    fn pick_account(&mut self, domain: DomainId, hot: bool) -> String {
        let n = if hot {
            self.rng.gen_range(0..HOT_ACCOUNTS)
        } else {
            self.rng.gen_range(0..ACCOUNTS_PER_DOMAIN)
        };
        account_key(domain.index, n)
    }

    fn other_domain(&mut self, not: DomainId) -> DomainId {
        let candidates: Vec<DomainId> = self
            .config
            .edge_domains
            .iter()
            .copied()
            .filter(|d| *d != not)
            .collect();
        if candidates.is_empty() {
            not
        } else {
            candidates[self.rng.gen_range(0..candidates.len())]
        }
    }

    /// Generates the next transaction for client `client_index`.  Returns the
    /// transaction together with the domain it should be submitted to (the
    /// client's home domain, or the remote domain it is currently visiting).
    pub fn next_for_client(&mut self, client_index: usize) -> (Transaction, DomainId) {
        let idx = client_index % self.clients.len();
        let id = TxId(self.next_tx_id);
        self.next_tx_id += 1;
        let client_id = ClientId(client_index as u64);
        let home = self.clients[idx].home;

        // Mobility: mobile clients alternate excursions of
        // `TXS_PER_EXCURSION` remote transactions with a return home.
        let (submit_to, is_remote) = if self.clients[idx].mobile {
            if self.clients[idx].remaining_in_excursion == 0 {
                let remote = self.other_domain(home);
                self.clients[idx].visiting = Some(remote);
                self.clients[idx].remaining_in_excursion = TXS_PER_EXCURSION;
            }
            self.clients[idx].remaining_in_excursion -= 1;
            let visiting = self.clients[idx].visiting.unwrap_or(home);
            (visiting, visiting != home)
        } else {
            (home, false)
        };

        let hot = self.rng.gen_bool(self.config.contention_ratio);
        let cross = !is_remote && self.rng.gen_bool(self.config.cross_domain_ratio);

        let tx = if is_remote {
            // Mobile transaction: the device spends from its own (home)
            // account while visiting `submit_to`.
            let from = account_key(home.index, client_id.0);
            let to = self.pick_account(submit_to, hot);
            Transaction::mobile(
                id,
                client_id,
                home,
                submit_to,
                Operation::Transfer {
                    from,
                    to,
                    amount: TRANSFER_AMOUNT,
                },
            )
        } else if cross {
            let other = self.other_domain(home);
            let from = self.pick_account(home, hot);
            let to = self.pick_account(other, hot);
            Transaction::cross_domain(
                id,
                client_id,
                vec![home, other],
                Operation::Transfer {
                    from,
                    to,
                    amount: TRANSFER_AMOUNT,
                },
            )
        } else {
            let from = self.pick_account(home, hot);
            let mut to = self.pick_account(home, hot);
            if to == from {
                to = self.pick_account(home, false);
            }
            Transaction::internal(
                id,
                client_id,
                home,
                Operation::Transfer {
                    from,
                    to,
                    amount: TRANSFER_AMOUNT,
                },
            )
        };
        (tx, submit_to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domains(n: u16) -> Vec<DomainId> {
        (0..n).map(|i| DomainId::new(1, i)).collect()
    }

    fn workload(cross: f64, mobile: f64) -> MicropaymentWorkload {
        let config = WorkloadConfig {
            edge_domains: domains(4),
            cross_domain_ratio: cross,
            mobile_ratio: mobile,
            ..WorkloadConfig::default()
        };
        MicropaymentWorkload::new(config, 100, 42)
    }

    #[test]
    fn internal_only_workload_produces_internal_transactions() {
        let mut w = workload(0.0, 0.0);
        for i in 0..200 {
            let (tx, submit_to) = w.next_for_client(i % 100);
            assert!(!tx.kind.is_cross_domain(), "{tx:?}");
            assert_eq!(submit_to, w.home_of(i % 100));
        }
    }

    #[test]
    fn cross_domain_ratio_is_respected_statistically() {
        let mut w = workload(0.8, 0.0);
        let total = 2_000;
        let cross = (0..total)
            .filter(|i| w.next_for_client(i % 100).0.kind.is_cross_domain())
            .count();
        let ratio = cross as f64 / total as f64;
        assert!((0.72..0.88).contains(&ratio), "observed {ratio}");
    }

    #[test]
    fn cross_domain_transactions_involve_two_distinct_domains() {
        let mut w = workload(1.0, 0.0);
        for i in 0..200 {
            let (tx, _) = w.next_for_client(i % 100);
            let involved = tx.involved_domains();
            assert_eq!(involved.len(), 2);
            assert_ne!(involved[0], involved[1]);
        }
    }

    #[test]
    fn mobile_clients_issue_excursions_of_ten() {
        assert_eq!(TXS_PER_EXCURSION, 10);
        let mut w = workload(0.0, 1.0);
        // Client 3: the first ten transactions go to one remote domain.
        let first: Vec<DomainId> = (0..TXS_PER_EXCURSION)
            .map(|_| w.next_for_client(3).1)
            .collect();
        assert!(first.iter().all(|d| *d == first[0]));
        assert_ne!(first[0], w.home_of(3));
        // All of them are mobile transactions.
        let (tx, _) = w.next_for_client(3);
        assert!(tx.kind.is_mobile());
    }

    #[test]
    fn non_mobile_workload_has_no_mobile_transactions() {
        let mut w = workload(0.5, 0.0);
        assert!((0..500).all(|i| !w.next_for_client(i % 100).0.kind.is_mobile()));
    }

    #[test]
    fn contention_concentrates_accounts() {
        let config = WorkloadConfig {
            edge_domains: domains(1),
            contention_ratio: 0.9,
            ..WorkloadConfig::default()
        };
        let mut w = MicropaymentWorkload::new(config, 10, 3);
        let mut hot_hits = 0;
        let total = 1_000;
        for i in 0..total {
            let (tx, _) = w.next_for_client(i % 10);
            if let Operation::Transfer { from, .. } = &tx.op {
                let n: u64 = from.split('_').nth(1).unwrap().parse().unwrap();
                if n < HOT_ACCOUNTS {
                    hot_hits += 1;
                }
            }
        }
        assert!(hot_hits > total / 2, "hot hits {hot_hits}");
    }

    #[test]
    fn tx_ids_are_unique_and_increasing() {
        let mut w = workload(0.5, 0.2);
        let ids: Vec<u64> = (0..100).map(|i| w.next_for_client(i).0.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = workload(0.5, 0.3);
        let mut b = workload(0.5, 0.3);
        for i in 0..50 {
            assert_eq!(a.next_for_client(i).0, b.next_for_client(i).0);
        }
    }
}
