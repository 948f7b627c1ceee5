//! Suspicion-timeout state machine shared by both engines' adapters.
//!
//! PBFT's view-change timer (Castro & Liskov, OSDI'99, §4.5.2), as in
//! sawtooth-pbft's idle/commit timers: the suspicion window that decides
//! "the primary is dead" starts at the [`LivenessConfig`]'s floor,
//! **doubles** every time a suspicion fires while the replica is still
//! stuck (each firing is a *failed* view change — the candidate primary
//! elected by the previous one did not restore progress within the window)
//! up to [`SuspicionTimer::MAX_FLOOR_MULTIPLE`] times the floor, and
//! **halves** back toward the floor each time delivery progress is
//! observed.  All arithmetic is integer microseconds, so runs stay
//! deterministic across platforms.
//!
//! The state machine is deliberately tiny and engine-agnostic: the node
//! adapters own the actual timers and feed `on_suspect` / `on_progress`
//! observations in; the machine only answers "how long should the next
//! window be".

use saguaro_types::{Duration, LivenessConfig};

/// The per-replica suspicion-window state machine.
#[derive(Clone, Copy, Debug)]
pub struct SuspicionTimer {
    floor: Duration,
    current: Duration,
}

impl SuspicionTimer {
    /// The window's cap, as a multiple of its floor.
    pub const MAX_FLOOR_MULTIPLE: u64 = 8;

    /// A timer armed at the floor, `liveness.progress_timeout`.
    pub fn new(liveness: LivenessConfig) -> Self {
        Self {
            floor: liveness.progress_timeout,
            current: liveness.progress_timeout,
        }
    }

    /// The window the adapter should arm for the next progress check.
    pub fn window(&self) -> Duration {
        self.current
    }

    /// A suspicion fired while work was pending and no progress had been
    /// made: the view change driven by the *previous* firing (if any)
    /// failed, so the window doubles, up to its cap.
    pub fn on_suspect(&mut self) {
        let cap = self.floor.as_micros() * Self::MAX_FLOOR_MULTIPLE;
        let doubled = self.current.as_micros().saturating_mul(2);
        self.current = Duration::from_micros(doubled.min(cap));
    }

    /// Delivery progress was observed at a progress check: the pipeline is
    /// healthy, so the window halves, down to its floor.
    pub fn on_progress(&mut self) {
        let halved = self.current.as_micros() / 2;
        self.current = Duration::from_micros(halved.max(self.floor.as_micros()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_window_backs_off_and_decays() {
        let floor = Duration::from_millis(10);
        let mut t = SuspicionTimer::new(LivenessConfig::with_timeout(floor));
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
