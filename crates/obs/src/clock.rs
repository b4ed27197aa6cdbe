//! The process observability epoch: one `Instant` captured on first
//! use, from which every recorded timestamp is a monotonic nanosecond
//! offset. Offsets from one epoch are directly comparable across
//! threads, which is what lets spans opened on different threads (a
//! job's stages run on the reactor and on a worker) share one per-job
//! timeline.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The shared epoch (captured on first call).
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
