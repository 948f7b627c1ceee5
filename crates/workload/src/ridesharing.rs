//! The ridesharing / gig-economy workload of the motivation section.
//!
//! Drivers complete rides inside a spatial domain; each ride appends a
//! `RideTask` record whose working-minutes attribute is what higher-level
//! domains aggregate (Fair Labor Standards Act compliance in the paper's
//! example).  A fraction of drivers roam to neighbouring domains, exercising
//! mobile consensus.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saguaro_types::{ClientId, DomainId, Operation, Transaction, TxId};

/// Generator of ridesharing tasks.
#[derive(Clone, Debug)]
pub struct RidesharingWorkload {
    edge_domains: Vec<DomainId>,
    drivers_per_domain: u64,
    roaming_ratio: f64,
    rng: StdRng,
    next_tx_id: u64,
}

impl RidesharingWorkload {
    /// Creates a generator.
    pub fn new(
        edge_domains: Vec<DomainId>,
        drivers_per_domain: u64,
        roaming_ratio: f64,
        seed: u64,
    ) -> Self {
        Self {
            edge_domains,
            drivers_per_domain,
            roaming_ratio,
            rng: StdRng::seed_from_u64(seed),
            next_tx_id: 1,
        }
    }

    /// The canonical driver name for domain `home`, driver number `n`.
    pub fn driver_name(home: DomainId, n: u64) -> String {
        format!("driver-{}-{n}", home.index)
    }

    /// Builds one completed ride for `driver_no` of `home`, submitted by
    /// `client`: draws the minutes/fare, decides whether the driver was
    /// roaming, and frames the transaction accordingly.  Shared by
    /// [`Self::next_ride`] and [`Self::next_for_driver`].
    fn make_ride(
        &mut self,
        home: DomainId,
        driver_no: u64,
        client: ClientId,
    ) -> (Transaction, DomainId) {
        let driver = Self::driver_name(home, driver_no);
        let minutes = self.rng.gen_range(5..90);
        let fare = minutes / 2 + self.rng.gen_range(1u64..10);
        let id = TxId(self.next_tx_id);
        self.next_tx_id += 1;
        let op = Operation::RideTask {
            driver,
            minutes,
            fare,
        };
        let roaming = self.roaming_ratio > 0.0
            && self.edge_domains.len() > 1
            && self.rng.gen_bool(self.roaming_ratio);
        if roaming {
            let mut remote = home;
            while remote == home {
                remote = self.edge_domains[self.rng.gen_range(0..self.edge_domains.len())];
            }
            (Transaction::mobile(id, client, home, remote, op), remote)
        } else {
            (Transaction::internal(id, client, home, op), home)
        }
    }

    /// Generates the next completed ride of a random driver.  Returns the
    /// transaction and the domain it is submitted to.
    pub fn next_ride(&mut self) -> (Transaction, DomainId) {
        let home = self.edge_domains[self.rng.gen_range(0..self.edge_domains.len())];
        let driver_no = self.rng.gen_range(0..self.drivers_per_domain);
        let client = ClientId(home.index as u64 * self.drivers_per_domain + driver_no);
        self.make_ride(home, driver_no, client)
    }

    /// Generates a batch of rides.
    pub fn batch(&mut self, n: usize) -> Vec<(Transaction, DomainId)> {
        (0..n).map(|_| self.next_ride()).collect()
    }

    /// The home domain of driver `client` when the generator is driven by the
    /// experiment engine: drivers are spread round-robin over the edge
    /// domains, like micropayment clients.
    pub fn home_of(&self, client: usize) -> DomainId {
        self.edge_domains[client % self.edge_domains.len()]
    }

    /// Generates the next completed ride of a *specific* driver (used when
    /// each experiment client represents one driver).  Unlike [`Self::next_ride`],
    /// the transaction's client id equals `client`, so the engine's reply
    /// routing works.  With probability `roaming_ratio` the ride happens in a
    /// neighbouring domain and is recorded as a mobile transaction.
    pub fn next_for_driver(&mut self, client: usize) -> (Transaction, DomainId) {
        let home = self.home_of(client);
        let driver_no = (client / self.edge_domains.len()) as u64 % self.drivers_per_domain;
        self.make_ride(home, driver_no, ClientId(client as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domains(n: u16) -> Vec<DomainId> {
        (0..n).map(|i| DomainId::new(1, i)).collect()
    }

    #[test]
    fn rides_are_ride_tasks_with_positive_minutes() {
        let mut w = RidesharingWorkload::new(domains(4), 10, 0.0, 1);
        for (tx, submit_to) in w.batch(100) {
            match &tx.op {
                Operation::RideTask { minutes, .. } => assert!(*minutes > 0),
                other => panic!("unexpected op {other:?}"),
            }
            assert_eq!(*tx.involved_domains(), [submit_to]);
        }
    }

    #[test]
    fn roaming_rides_are_mobile_transactions() {
        let mut w = RidesharingWorkload::new(domains(4), 10, 1.0, 2);
        let batch = w.batch(50);
        assert!(batch.iter().all(|(tx, _)| tx.kind.is_mobile()));
        for (tx, submit_to) in batch {
            if let saguaro_types::TxKind::Mobile { local, remote } = tx.kind {
                assert_ne!(local, remote);
                assert_eq!(remote, submit_to);
            }
        }
    }

    #[test]
    fn driver_names_encode_home_domain() {
        assert_eq!(
            RidesharingWorkload::driver_name(DomainId::new(1, 3), 7),
            "driver-3-7"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = RidesharingWorkload::new(domains(3), 5, 0.3, 9);
        let mut b = RidesharingWorkload::new(domains(3), 5, 0.3, 9);
        assert_eq!(a.batch(20), b.batch(20));
    }

    #[test]
    fn ids_are_unique() {
        let mut w = RidesharingWorkload::new(domains(2), 5, 0.5, 4);
        let ids: Vec<u64> = w.batch(100).iter().map(|(t, _)| t.id.0).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }
}
