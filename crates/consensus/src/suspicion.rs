//! Suspicion-timeout state machine shared by both engines' adapters.
//!
//! Modelled on sawtooth-pbft's idle/commit timers: under an adaptive
//! [`LivenessConfig`] the suspicion window that decides "the primary is
//! dead" starts at the configured floor, **doubles** every time a suspicion
//! fires while the replica is still stuck (each firing is a *failed* view
//! change — the candidate primary elected by the previous one did not
//! restore progress within the window) up to [`SuspicionTimer::MAX_FLOOR_MULTIPLE`]
//! times the floor, and **halves** back toward the floor each time delivery
//! progress is observed.  Under a fixed config the window never moves,
//! which keeps fixed-timeout runs bit-identical to the historical pipeline.
//! All arithmetic is integer microseconds, so runs stay deterministic
//! across platforms.
//!
//! The state machine is deliberately tiny and engine-agnostic: the node
//! adapters own the actual timers and feed `on_suspect` / `on_progress`
//! observations in; the machine only answers "how long should the next
//! window be".

use saguaro_types::{Duration, LivenessConfig};

/// The per-replica suspicion-window state machine.
#[derive(Clone, Copy, Debug)]
pub struct SuspicionTimer {
    liveness: LivenessConfig,
    current: Duration,
}

impl SuspicionTimer {
    /// The adaptive window's cap, as a multiple of its floor.
    pub const MAX_FLOOR_MULTIPLE: u64 = 8;

    /// A timer for the given liveness knobs, armed at `progress_timeout`.
    pub fn new(liveness: LivenessConfig) -> Self {
        Self {
            liveness,
            current: liveness.progress_timeout,
        }
    }

    /// The window the adapter should arm for the next progress check.
    pub fn window(&self) -> Duration {
        self.current
    }

    /// A suspicion fired while work was pending and no progress had been
    /// made: the view change driven by the *previous* firing (if any)
    /// failed, so an adaptive window doubles, up to its cap.
    pub fn on_suspect(&mut self) {
        if self.liveness.adaptive {
            let floor = self.liveness.progress_timeout.as_micros();
            let doubled = self.current.as_micros().saturating_mul(2);
            self.current = Duration::from_micros(doubled.min(floor * Self::MAX_FLOOR_MULTIPLE));
        }
    }

    /// Delivery progress was observed at a progress check: the pipeline is
    /// healthy, so an adaptive window halves, down to its floor.
    pub fn on_progress(&mut self) {
        if self.liveness.adaptive {
            let floor = self.liveness.progress_timeout.as_micros();
            self.current = Duration::from_micros((self.current.as_micros() / 2).max(floor));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_config_never_moves_the_window() {
        let mut t = SuspicionTimer::new(LivenessConfig::standard());
        let w = t.window();
        assert_eq!(w, LivenessConfig::DEFAULT_TIMEOUT);
        t.on_suspect();
        t.on_suspect();
        assert_eq!(t.window(), w);
        t.on_progress();
        assert_eq!(t.window(), w);
    }

    #[test]
    fn adaptive_config_backs_off_and_decays() {
        let floor = Duration::from_millis(10);
        let mut t = SuspicionTimer::new(LivenessConfig::adaptive(floor));
        assert_eq!(t.window(), floor);
        t.on_suspect();
        assert_eq!(t.window(), Duration::from_millis(20));
        t.on_suspect();
        assert_eq!(t.window(), Duration::from_millis(40));
        // Repeated failures saturate at the cap.
        for _ in 0..8 {
            t.on_suspect();
        }
        assert_eq!(t.window(), Duration::from_millis(80));
        // Progress walks the window back down to the floor.
        t.on_progress();
        assert_eq!(t.window(), Duration::from_millis(40));
        for _ in 0..8 {
            t.on_progress();
        }
        assert_eq!(t.window(), floor);
    }
}
