//! What a deployment chooses about the protocol, and the timing constants of
//! rounds and deadlock resolution.

use saguaro_types::{Duration, StackConfig};

/// How cross-domain transactions are processed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossDomainMode {
    /// Coordinator-based protocol (Algorithm 1): the LCA domain coordinates a
    /// prepare / prepared / commit exchange.
    Coordinator,
    /// Optimistic protocol (Section 6): each involved domain orders and
    /// executes independently; ancestors detect inconsistencies lazily.
    Optimistic,
}

/// Length of a height-1 round — the time between `block` messages to the
/// parent (Section 5).  Higher levels double it per level, as in Figure 4
/// where "the time interval of height-2 domains is twice the height-1
/// domains".
const ROUND_INTERVAL: Duration = Duration::from_millis(50);

/// The optimistic protocol's height-1 round: shorter, so inconsistencies are
/// detected earlier (Section 6, "the predefined time interval for completion
/// of rounds is smaller").
const OPTIMISTIC_ROUND_INTERVAL: Duration = Duration::from_millis(20);

/// How long a coordinator waits for every `prepared` message before it
/// aborts and retries the transaction (Algorithm 1's deadlock resolution).
const CROSS_DOMAIN_TIMEOUT: Duration = Duration::from_millis(400);

/// Added to `CROSS_DOMAIN_TIMEOUT` once per domain index so two deadlocked
/// coordinators do not retry in lockstep ("Saguaro assigns different timers
/// to different domains to prevent consecutive deadlock situations").
const DEADLOCK_STAGGER: Duration = Duration::from_millis(37);

/// What a deployment chooses about the protocol: the cross-domain mode and
/// the replica pipeline.  Every round interval and timeout is a constant of
/// the module that uses it, and blocks propagate the full state delta
/// ([`saguaro_ledger::AbstractionFn::Full`]).
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Cross-domain processing mode.
    pub cross_mode: CrossDomainMode,
    /// The per-domain pipeline knobs every replica host is built from:
    /// request batching, liveness timers, checkpointing / state transfer,
    /// delivery recording and tracing.  The default is unbatched, no
    /// progress timers, checkpoints every 128 deliveries with state
    /// transfer served, nothing recorded or traced.
    pub stack: StackConfig,
}

impl ProtocolConfig {
    /// Configuration matching the paper's coordinator-based evaluation runs.
    pub fn coordinator() -> Self {
        Self {
            cross_mode: CrossDomainMode::Coordinator,
            stack: StackConfig::default(),
        }
    }

    /// Configuration matching the paper's optimistic evaluation runs.
    pub fn optimistic() -> Self {
        Self {
            cross_mode: CrossDomainMode::Optimistic,
            ..Self::coordinator()
        }
    }

    /// Round interval for a domain at the given height (doubles per level
    /// above 1).
    pub fn round_interval_for_height(&self, height: u8) -> Duration {
        let base = match self.cross_mode {
            CrossDomainMode::Coordinator => ROUND_INTERVAL,
            CrossDomainMode::Optimistic => OPTIMISTIC_ROUND_INTERVAL,
        };
        let factor = 1u64 << (height.saturating_sub(1).min(6)) as u64;
        Duration::from_micros(base.as_micros() * factor)
    }

    /// Deadlock/retry timeout for a coordinator domain with the given index.
    pub fn deadlock_timeout_for(&self, domain_index: u16) -> Duration {
        Duration::from_micros(
            CROSS_DOMAIN_TIMEOUT.as_micros() + DEADLOCK_STAGGER.as_micros() * domain_index as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_select_mode() {
        assert_eq!(
            ProtocolConfig::coordinator().cross_mode,
            CrossDomainMode::Coordinator
        );
        assert_eq!(
            ProtocolConfig::optimistic().cross_mode,
            CrossDomainMode::Optimistic
        );
    }

    #[test]
    fn round_interval_doubles_per_height() {
        let c = ProtocolConfig::coordinator();
        let h1 = c.round_interval_for_height(1);
        let h2 = c.round_interval_for_height(2);
        let h3 = c.round_interval_for_height(3);
        assert_eq!(h2.as_micros(), 2 * h1.as_micros());
        assert_eq!(h3.as_micros(), 4 * h1.as_micros());
    }

    #[test]
    fn optimistic_rounds_are_shorter() {
        let c = ProtocolConfig::coordinator();
        let o = ProtocolConfig::optimistic();
        assert!(o.round_interval_for_height(1) < c.round_interval_for_height(1));
    }

    #[test]
    fn batching_defaults_off_and_is_overridable() {
        let c = ProtocolConfig::coordinator();
        assert_eq!(c.stack.batch.max_batch, 1);
        let stack = StackConfig {
            batch: saguaro_types::BatchConfig::with_max_batch(8),
            ..StackConfig::default()
        };
        let b = ProtocolConfig { stack, ..c };
        assert_eq!(b.stack.batch.max_batch, 8);
    }

    #[test]
    fn deadlock_timeouts_are_staggered_per_domain() {
        let c = ProtocolConfig::coordinator();
        assert!(c.deadlock_timeout_for(1) > c.deadlock_timeout_for(0));
        assert_ne!(c.deadlock_timeout_for(2), c.deadlock_timeout_for(3));
    }
}
