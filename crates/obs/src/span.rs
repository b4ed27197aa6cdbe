//! RAII stage timers: a [`Span`] notes the clock when it opens and
//! records its elapsed time into a latency [`Histogram`] (the one
//! `/v1/metrics` renders) when it is dropped.

use crate::clock::now_ns;
use crate::metrics::Histogram;

/// An open stage timer. Dropping it feeds the elapsed time to its
/// histogram.
#[derive(Debug)]
pub struct Span {
    start_ns: u64,
    histogram: Histogram,
}

/// Open a span whose duration lands in `histogram` on drop.
pub fn span_timed(histogram: &Histogram) -> Span {
    Span {
        start_ns: now_ns(),
        histogram: histogram.clone(),
    }
}

impl Span {
    /// Nanoseconds since the span opened.
    pub fn elapsed_ns(&self) -> u64 {
        now_ns().saturating_sub(self.start_ns)
    }

    /// The offset of the span's start from the process epoch.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.record(self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_feeds_its_histogram_once() {
        let hist = Histogram::detached();
        let before = now_ns();
        let start = {
            let span = span_timed(&hist);
            assert_eq!(hist.snapshot().count, 0, "nothing recorded while open");
            span.start_ns()
        };
        let after = now_ns();
        assert!(
            before <= start && start <= after,
            "start_ns is on now_ns's clock"
        );
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1);
        assert!(
            snap.sum <= after - start,
            "the recorded time is the span's own"
        );
    }
}
