//! [`WallClock`]: real elapsed seconds for the OS-thread execution
//! backend.
//!
//! This module is the workspace's *only* sanctioned wall-clock time
//! source — the `cachegen-analyze` `no-wall-clock` rule exempts exactly
//! this file (and the bench crate), the same way `no-raw-spawn` exempts
//! the one executor module. Everything the simulator computes stays in
//! virtual time; the thread backend reads a [`WallClock`] and passes
//! its readings to the same [`Recorder`](crate::Recorder) calls, so it
//! measures how long the real backend *actually* took, in the same
//! span/metric taxonomy, without ever feeding wall time back into
//! scheduling decisions.
//!
//! Times are seconds since the clock's construction, so traces from
//! both backends start near zero and diff cleanly in Perfetto.

use std::time::Instant;

/// Monotonic wall-clock seconds since construction.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose zero is now.
    pub fn start() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// Seconds elapsed since [`start`](Self::start).
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_from_zero() {
        let clock = WallClock::start();
        let a = clock.now();
        let b = clock.now();
        assert!(a >= 0.0, "time since construction cannot be negative");
        assert!(b >= a, "monotonic clock went backwards: {a} -> {b}");
    }

    #[test]
    fn independent_clocks_have_independent_origins() {
        let first = WallClock::start();
        // Burn a little real time so the second origin is later.
        let mut sink = 0u64;
        for i in 0..50_000u64 {
            sink = sink.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(sink);
        let second = WallClock::start();
        assert!(
            first.now() >= second.now(),
            "the older clock must have accumulated at least as much elapsed time"
        );
    }
}
