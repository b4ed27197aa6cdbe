//! The durable store's circuit breaker (disk faults): [`TRIP`]
//! consecutive failures open it, the open interval doubles from
//! [`BASE_BACKOFF`] up to [`MAX_BACKOFF`], one half-open probe is
//! admitted per interval, and one success closes it entirely. While
//! open the store is skipped without I/O, so a full disk costs
//! durability — never availability or correctness.

use std::time::{Duration, Instant};

/// Consecutive failures that trip the breaker open.
pub(crate) const TRIP: u32 = 3;
/// First open interval after a trip; doubles per failed probe.
pub(crate) const BASE_BACKOFF: Duration = Duration::from_millis(250);
/// Backoff ceiling — a long-dead tier is re-probed at this cadence.
pub(crate) const MAX_BACKOFF: Duration = Duration::from_secs(30);

#[derive(Debug)]
pub(crate) struct Breaker {
    /// Consecutive failures since the last success.
    failures: u32,
    /// While set, attempts are refused until this instant.
    open_until: Option<Instant>,
    /// Open interval the *next* trip will use.
    backoff: Duration,
}

impl Breaker {
    pub(crate) fn new() -> Breaker {
        Breaker {
            failures: 0,
            open_until: None,
            backoff: BASE_BACKOFF,
        }
    }

    /// May an attempt proceed right now?
    pub(crate) fn admit(&self, now: Instant) -> bool {
        self.open_until.is_none_or(|until| now >= until)
    }

    pub(crate) fn on_success(&mut self) {
        *self = Breaker::new();
    }

    /// `count` attempts that failed as one (a batch commit): they all
    /// count toward [`TRIP`], the backoff takes one step.
    pub(crate) fn on_failures(&mut self, count: u32, now: Instant) {
        self.failures = self.failures.saturating_add(count);
        if self.failures >= TRIP {
            self.open_until = Some(now + self.backoff);
            self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
        }
    }

    pub(crate) fn is_open(&self) -> bool {
        self.open_until.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_consecutive_failures_and_backs_off() {
        let mut b = Breaker::new();
        let t0 = Instant::now();
        assert!(b.admit(t0));
        b.on_failures(1, t0);
        b.on_failures(1, t0);
        assert!(b.admit(t0), "two failures stay closed");
        b.on_failures(1, t0);
        assert!(b.is_open());
        assert!(!b.admit(t0));
        assert!(b.admit(t0 + BASE_BACKOFF), "reopens after backoff");
        // A further failure doubles the interval.
        b.on_failures(1, t0 + BASE_BACKOFF);
        assert!(!b.admit(t0 + BASE_BACKOFF + BASE_BACKOFF));
        assert!(b.admit(t0 + BASE_BACKOFF + BASE_BACKOFF * 2));
        b.on_success();
        assert!(!b.is_open());
        assert!(b.admit(t0));
    }
}
