//! The one place library code reads the host clock.
//!
//! Determinism discipline: simulation results must be a function of seeds
//! and message order, never of wall-clock readings, so raw
//! `Instant::now()` calls are banned from library crates (`clippy.toml`'s
//! `disallowed-methods`; the bench crate, whose whole job is timing, opts
//! out).  Code that legitimately needs real time — spawned-thread
//! deadline waits, CPU metering — routes through this module instead,
//! which keeps every clock read greppable and gives a future virtual
//! clock a single seam to patch.

use std::time::{Duration, Instant};

/// Reads the monotonic clock.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// A wall-clock deadline for bounded waits (spawned-broker tests, pump
/// loops).  Wraps the raw instant so call sites express intent — "give up
/// after `timeout`" — rather than clock arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Deadline { at: now() + timeout }
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        now() >= self.at
    }

    /// Time left until the deadline, `None` once it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.at.checked_duration_since(now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expires() {
        let deadline = Deadline::after(Duration::ZERO);
        assert!(deadline.expired());
        assert!(deadline.remaining().is_none());
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining().is_some());
    }
}
