//! A tiny stopwatch for the runtime experiments (Figs 7–8, Table 4).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds elapsed since the first call in this process.
///
/// Every subsystem that stamps trace spans must share one monotonic
/// timebase, otherwise spans recorded in different crates cannot be
/// ordered against each other. The epoch is pinned lazily by whichever
/// caller gets here first, so the very first reading is `0`.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Wall-clock stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Timer { start: Instant::now() }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

impl Default for Timer {
    fn default() -> Self {
        Timer::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_is_monotone() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn elapsed_is_monotone() {
        let t = Timer::start();
        let a = t.elapsed();
        let b = t.elapsed();
        assert!(b >= a);
    }
}
