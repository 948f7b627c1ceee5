//! The aggregate population generator: one open-loop arrival process per
//! height-1 domain.
//!
//! A superposition of `users` independent Poisson processes at rate λ each
//! is itself a Poisson process at rate `users × λ`, so a domain's whole
//! client population collapses into a single exponential-gap generator whose
//! rate scales with the modeled population — O(1) state however many users
//! are modeled.  Account selection is Zipf-skewed (the classic web-workload
//! shape) via Hörmann's O(1) rejection-inversion-style approximation used by
//! YCSB, and the instantaneous rate is shaped by the spec's
//! [`RateEnvelope`](saguaro_types::RateEnvelope).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saguaro_types::transaction::{account_key, ACCOUNTS_PER_DOMAIN, TRANSFER_AMOUNT};
use saguaro_types::{ClientId, DomainId, Duration, Operation, PopulationConfig, Transaction, TxId};
use std::sync::LazyLock;

/// Bits reserved for the per-domain transaction counter: transaction ids are
/// `(domain ordinal << 40) | counter`, which keeps ids unique across domains
/// without any cross-actor coordination.
const TX_ORDINAL_SHIFT: u32 = 40;

/// Zipf skew of account selection within a domain: the classic "80/20"
/// web-workload shape.
const ZIPF_SKEW: f64 = 0.99;

/// O(1) Zipf-distributed sampler over a domain's account universe (YCSB's
/// approximation of Hörmann's rejection-inversion) at [`ZIPF_SKEW`].  Its
/// harmonic normaliser takes one value, so the sampler is built once per
/// process ([`ZIPF`]) and shared by every generator.
#[derive(Debug)]
struct ZipfSampler {
    alpha: f64,
    zetan: f64,
    eta: f64,
    threshold: f64,
}

/// The one sampler every [`PopulationGenerator`] draws accounts from.
static ZIPF: LazyLock<ZipfSampler> = LazyLock::new(ZipfSampler::new);

impl ZipfSampler {
    fn new() -> Self {
        let (n, theta) = (ACCOUNTS_PER_DOMAIN, ZIPF_SKEW);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            alpha,
            zetan,
            eta,
            threshold: 1.0 + 0.5f64.powf(theta),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let n = ACCOUNTS_PER_DOMAIN;
        let u: f64 = rng.gen_range(0.0..1.0f64);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.threshold {
            return 1;
        }
        let rank = (n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(n - 1)
    }
}

/// One domain's aggregate client population: arrival gaps, account picks and
/// framed transactions, all drawn from a dedicated per-domain RNG stream.
#[derive(Clone, Debug)]
pub struct PopulationGenerator {
    config: PopulationConfig,
    home: DomainId,
    ordinal: usize,
    edge_domains: Vec<DomainId>,
    users: u64,
    rng: StdRng,
    next_counter: u64,
}

impl PopulationGenerator {
    /// A generator for the population slice living in `edge_domains[ordinal]`.
    ///
    /// `seed` should mix the experiment seed with the ordinal so each
    /// domain's actor draws an independent (but reproducible) stream.
    pub fn new(
        config: PopulationConfig,
        ordinal: usize,
        edge_domains: Vec<DomainId>,
        seed: u64,
    ) -> Self {
        let home = edge_domains[ordinal % edge_domains.len().max(1)];
        let users = config.users_in_domain(ordinal, edge_domains.len());
        Self {
            config,
            home,
            ordinal,
            edge_domains,
            users,
            rng: StdRng::seed_from_u64(seed),
            next_counter: 0,
        }
    }

    /// The domain this population lives in.
    pub fn home(&self) -> DomainId {
        self.home
    }

    /// Users modeled by this generator.
    pub fn users(&self) -> u64 {
        self.users
    }

    /// The client identity every transaction of this population carries:
    /// replies route to `Addr::Client(tx.client)`, so the aggregate actor
    /// must register at exactly this id.
    pub fn client_id(&self) -> ClientId {
        ClientId(self.ordinal as u64)
    }

    /// Latency-sample stride configured for this population.
    pub fn sample_stride(&self) -> u64 {
        self.config.sample_every.max(1)
    }

    /// The aggregate arrival rate (tx/s) at `elapsed` virtual time since the
    /// experiment origin, envelope applied.
    pub fn rate_at(&self, elapsed: Duration) -> f64 {
        self.users as f64 * self.config.per_user_tps * self.config.envelope.level(elapsed)
    }

    /// Draws the exponential gap to the next arrival, in whole microseconds.
    /// Gaps round down, so sub-microsecond gaps return 0 — the actor submits
    /// those arrivals in the same instant (exact under microsecond-granular
    /// virtual time).  Returns `None` when the current rate is zero (the
    /// actor should poll the envelope again after a pause).
    pub fn next_arrival_gap(&mut self, elapsed: Duration) -> Option<Duration> {
        let rate = self.rate_at(elapsed);
        if rate <= 0.0 {
            return None;
        }
        let mean_us = 1_000_000.0 / rate;
        let u: f64 = self.rng.gen_range(1e-12..1.0f64);
        let gap = (-u.ln() * mean_us).min(10.0 * mean_us.max(1.0));
        Some(Duration::from_micros(gap as u64))
    }

    /// Generates the next arrival's transaction and the domain to submit it
    /// to.  Ids are `(ordinal << 40) | counter`; accounts are Zipf picks
    /// from the domain's universe; a `cross_domain_ratio` coin turns the
    /// transfer into a two-domain transaction.
    pub fn next_tx(&mut self) -> (Transaction, DomainId) {
        self.next_counter += 1;
        let id = TxId(((self.ordinal as u64) << TX_ORDINAL_SHIFT) | self.next_counter);
        let client = self.client_id();
        let from = self.pick_account(self.home);
        let cross =
            self.edge_domains.len() > 1 && self.rng.gen_bool(self.config.cross_domain_ratio);
        let tx = if cross {
            let other = self.other_domain();
            let to = self.pick_account(other);
            Transaction::cross_domain(
                id,
                client,
                vec![self.home, other],
                Operation::Transfer {
                    from,
                    to,
                    amount: TRANSFER_AMOUNT,
                },
            )
        } else {
            let mut to = self.pick_account(self.home);
            if to == from {
                // Self-transfers are legal but pointless; redraw uniformly.
                to = account_key(self.home.index, self.rng.gen_range(0..ACCOUNTS_PER_DOMAIN));
            }
            Transaction::internal(
                id,
                client,
                self.home,
                Operation::Transfer {
                    from,
                    to,
                    amount: TRANSFER_AMOUNT,
                },
            )
        };
        (tx, self.home)
    }

    fn pick_account(&mut self, domain: DomainId) -> String {
        account_key(domain.index, ZIPF.sample(&mut self.rng))
    }

    fn other_domain(&mut self) -> DomainId {
        let k = self.edge_domains.len();
        let offset = self.rng.gen_range(1..k);
        self.edge_domains[(self.ordinal + offset) % k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_types::RateEnvelope;

    fn domains(n: u16) -> Vec<DomainId> {
        (0..n).map(|i| DomainId::new(1, i)).collect()
    }

    fn generator(users: u64, cross: f64) -> PopulationGenerator {
        let config = PopulationConfig {
            users,
            cross_domain_ratio: cross,
            ..PopulationConfig::default()
        };
        PopulationGenerator::new(config, 1, domains(4), 42)
    }

    #[test]
    fn superposed_rate_scales_with_users_and_envelope() {
        let mut config = PopulationConfig::with_users(4_000).per_user(0.5);
        config.envelope = RateEnvelope::FlashCrowd {
            start: Duration::from_millis(100),
            duration: Duration::from_millis(50),
            multiplier: 3.0,
        };
        let g = PopulationGenerator::new(config, 0, domains(4), 1);
        assert_eq!(g.users(), 1_000);
        assert_eq!(g.rate_at(Duration::ZERO), 500.0);
        assert_eq!(g.rate_at(Duration::from_millis(120)), 1_500.0);
    }

    #[test]
    fn arrival_gaps_average_the_inverse_rate() {
        let mut g = generator(10_000, 0.0); // 2500 users here, 0.1 tps
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| g.next_arrival_gap(Duration::ZERO).unwrap().as_micros())
            .sum();
        let mean = total as f64 / n as f64;
        let expected = 1_000_000.0 / g.rate_at(Duration::ZERO);
        assert!(
            (mean - expected).abs() < expected * 0.05,
            "mean gap {mean} vs expected {expected}"
        );
    }

    #[test]
    fn zero_rate_pauses_the_generator() {
        let mut config = PopulationConfig::with_users(100);
        config.envelope = RateEnvelope::FlashCrowd {
            start: Duration::ZERO,
            duration: Duration::from_millis(10),
            multiplier: 0.0,
        };
        let mut g = PopulationGenerator::new(config, 0, domains(2), 9);
        assert!(g.next_arrival_gap(Duration::ZERO).is_none());
        assert!(g.next_arrival_gap(Duration::from_millis(20)).is_some());
    }

    #[test]
    fn zipf_picks_concentrate_on_low_ranks() {
        // The head is the first 1 % of the universe: a uniform pick lands
        // there 1 % of the time.
        let head = ACCOUNTS_PER_DOMAIN / 100;
        let uniform_share = head as f64 / ACCOUNTS_PER_DOMAIN as f64;
        let mut g = generator(100, 0.0);
        let draws = 2_000;
        let head_hits = (0..draws)
            .filter(|_| {
                let (tx, _) = g.next_tx();
                match &tx.op {
                    Operation::Transfer { from, .. } => {
                        let n: u64 = from.split('_').nth(1).unwrap().parse().unwrap();
                        n < head
                    }
                    _ => false,
                }
            })
            .count();
        let share = head_hits as f64 / draws as f64;
        assert!(
            share > 25.0 * uniform_share,
            "zipf({ZIPF_SKEW}) put only {head_hits}/{draws} on the head, \
             against a uniform share of {uniform_share}"
        );
    }

    #[test]
    fn tx_ids_are_unique_across_domain_ordinals() {
        let mut a = generator(100, 0.0);
        let config = a.config;
        let mut b = PopulationGenerator::new(config, 2, domains(4), 42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            assert!(seen.insert(a.next_tx().0.id));
            assert!(seen.insert(b.next_tx().0.id));
        }
    }

    #[test]
    fn transactions_carry_the_aggregate_client_identity() {
        let mut g = generator(100, 0.5);
        for _ in 0..100 {
            let (tx, submit_to) = g.next_tx();
            assert_eq!(tx.client, g.client_id());
            assert_eq!(submit_to, g.home());
            let involved = tx.involved_domains();
            assert!(involved.contains(&g.home()));
            assert!(involved.len() <= 2);
        }
    }

    #[test]
    fn cross_domain_ratio_is_respected_statistically() {
        let mut g = generator(100, 0.8);
        let cross = (0..2_000)
            .filter(|_| g.next_tx().0.kind.is_cross_domain())
            .count();
        let ratio = cross as f64 / 2_000.0;
        assert!((0.72..0.88).contains(&ratio), "observed {ratio}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = generator(100, 0.3);
        let mut b = generator(100, 0.3);
        for _ in 0..200 {
            assert_eq!(a.next_tx().0, b.next_tx().0);
            assert_eq!(
                a.next_arrival_gap(Duration::ZERO),
                b.next_arrival_gap(Duration::ZERO)
            );
        }
    }
}
