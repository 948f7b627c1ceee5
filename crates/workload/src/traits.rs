//! The [`Workload`] abstraction the experiment engine drives.
//!
//! The engine (`saguaro-sim`) does not know which application it is running:
//! it asks a `Workload` where each client lives, what transaction that client
//! issues next, and which accounts each height-1 domain must be seeded with
//! before the run.  Both generators in this crate implement the trait, so the
//! paper's micropayment evaluation and the motivation section's ridesharing
//! scenario run through the *same* engine (`run_experiment`).
//!
//! To add a new application: implement `Workload` for your generator and add
//! a `WorkloadKind` variant in `saguaro-sim` (or drive `prepare` directly
//! with your generator).

use crate::micropayment::MicropaymentWorkload;
use crate::ridesharing::RidesharingWorkload;
use saguaro_types::transaction::{account_key, ACCOUNTS_PER_DOMAIN, INITIAL_BALANCE};
use saguaro_types::{DomainId, Transaction};

/// An application driven by the experiment engine's open-loop clients.
///
/// Implementations must be deterministic for a given construction seed: the
/// engine relies on this for reproducible `RunMetrics`.
pub trait Workload {
    /// Short name used in printed tables and labels.
    fn label(&self) -> &'static str;

    /// The home (height-1) domain of client `client`.
    fn home_of(&self, client: usize) -> DomainId;

    /// The next transaction client `client` issues, together with the domain
    /// it submits the request to (normally the home domain; a remote domain
    /// while the client roams).
    fn next_for_client(&mut self, client: usize) -> (Transaction, DomainId);

    /// `(account key, initial balance)` pairs every replica of `domain` must
    /// be seeded with before the run starts, on top of the account universe
    /// ([`saguaro_types::transaction::account_universe`]) that deployment
    /// opens for every domain it is given.
    fn seed_accounts(&self, domain: DomainId) -> Vec<(String, u64)>;
}

impl Workload for MicropaymentWorkload {
    fn label(&self) -> &'static str {
        "micropayment"
    }

    fn home_of(&self, client: usize) -> DomainId {
        MicropaymentWorkload::home_of(self, client)
    }

    fn next_for_client(&mut self, client: usize) -> (Transaction, DomainId) {
        MicropaymentWorkload::next_for_client(self, client)
    }

    /// One account per client homed in the domain whose id lies past the
    /// universe (mobile transactions spend from the client's own account); a
    /// client whose id is inside the universe already has its account there.
    fn seed_accounts(&self, domain: DomainId) -> Vec<(String, u64)> {
        (ACCOUNTS_PER_DOMAIN..self.num_clients() as u64)
            .filter(|&client| MicropaymentWorkload::home_of(self, client as usize) == domain)
            .map(|client| (account_key(domain.index, client), INITIAL_BALANCE))
            .collect()
    }
}

impl Workload for RidesharingWorkload {
    fn label(&self) -> &'static str {
        "ridesharing"
    }

    fn home_of(&self, client: usize) -> DomainId {
        RidesharingWorkload::home_of(self, client)
    }

    fn next_for_client(&mut self, client: usize) -> (Transaction, DomainId) {
        RidesharingWorkload::next_for_driver(self, client)
    }

    /// Ride tasks accumulate working minutes from zero; no balances needed.
    fn seed_accounts(&self, _domain: DomainId) -> Vec<(String, u64)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micropayment::WorkloadConfig;
    use saguaro_types::transaction::account_universe;
    use saguaro_types::PopulationConfig;

    fn domains(n: u16) -> Vec<DomainId> {
        (0..n).map(|i| DomainId::new(1, i)).collect()
    }

    #[test]
    fn both_client_models_take_nothing_beyond_the_universe_with_few_clients() {
        let w = MicropaymentWorkload::new(WorkloadConfig::default(), 120, 1);
        let population = PopulationConfig::with_users(120);
        for d in domains(4) {
            assert!(population.seed_accounts_for(d).is_empty(), "{d:?}");
            assert!(Workload::seed_accounts(&w, d).is_empty(), "{d:?}");
        }
    }

    #[test]
    fn micropayment_seeds_cover_universe_and_homed_clients() {
        // Clients homed in d0 past its universe each get their own account
        // on top of the universe; the ones inside it already have theirs.
        let d0 = DomainId::new(1, 0);
        let clients = ACCOUNTS_PER_DOMAIN as usize + 8;
        let w = MicropaymentWorkload::new(WorkloadConfig::default(), clients, 1);
        let seeds = Workload::seed_accounts(&w, d0);
        let want = [ACCOUNTS_PER_DOMAIN, ACCOUNTS_PER_DOMAIN + 4]
            .map(|client| (account_key(0, client), INITIAL_BALANCE));
        assert_eq!(seeds, want);

        let mut opened = account_universe(d0);
        for (key, balance) in &seeds {
            opened.insert(key, *balance);
        }
        assert_eq!(opened.len() as u64, ACCOUNTS_PER_DOMAIN + 2);
        assert!(opened.iter().all(|(_, v)| v == INITIAL_BALANCE));
        for client in (0..clients as u64).filter(|&c| w.home_of(c as usize) == d0) {
            let key = account_key(0, client);
            assert_eq!(opened.get(&key), Some(INITIAL_BALANCE), "{key}");
        }
    }

    #[test]
    fn ridesharing_needs_no_seeds_and_maps_clients_round_robin() {
        let w = RidesharingWorkload::new(domains(4), 10, 0.0, 1);
        assert!(Workload::seed_accounts(&w, DomainId::new(1, 0)).is_empty());
        assert_eq!(Workload::home_of(&w, 0), DomainId::new(1, 0));
        assert_eq!(Workload::home_of(&w, 5), DomainId::new(1, 1));
    }

    #[test]
    fn both_workloads_are_usable_as_trait_objects() {
        let mut boxed: Vec<Box<dyn Workload>> = vec![
            Box::new(MicropaymentWorkload::new(
                WorkloadConfig {
                    edge_domains: domains(2),
                    ..WorkloadConfig::default()
                },
                4,
                2,
            )),
            Box::new(RidesharingWorkload::new(domains(2), 4, 0.0, 2)),
        ];
        for w in &mut boxed {
            let home = w.home_of(0);
            let (tx, submit_to) = w.next_for_client(0);
            assert_eq!(submit_to, home);
            assert!(tx.involved_domains().contains(&home));
        }
    }
}
