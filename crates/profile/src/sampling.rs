//! The sampling clock both sampling tools share.
//!
//! A timer fires every `period = 1 / sampling_hz` seconds of a rank's
//! time. Every event of duration `d` advances the rank's phase (the
//! time since its last tick): the ticks inside the event are
//! `n = floor((phase + d) / period)` and the phase keeps the remainder,
//! `phase + d - n × period`. Each result feeds the rank's next event, so
//! on a division per event the divisions form one serial chain.
//!
//! [`SamplingClock::advance`] skips the division when the new total is
//! below one period, which at 200 Hz is nearly every event. That is
//! exact: for `0 ≤ t < p`, `fl(t / p) ≤ 1 − 2⁻⁵³ < 1`, so the formula
//! gives `n = 0` and `t − 0 × p = t`; a negative total saturates to
//! `n = 0` and keeps `t` on both paths. Only a positive, finite period
//! takes the shortcut: with `sampling_hz = 0` the period is infinite and
//! the formula's `0 × ∞` makes the phase NaN, which the clock keeps.

/// Per-rank sampling phases under one timer period.
#[derive(Debug, Clone)]
pub struct SamplingClock {
    /// `1 / sampling_hz`, computed once.
    period: f64,
    /// Totals below this take no tick: `period` when it is positive and
    /// finite, otherwise `-∞`, which no total is below.
    fast_below: f64,
    /// Per-rank time since the rank's last tick.
    phase: Vec<f64>,
}

impl SamplingClock {
    /// A clock ticking at `sampling_hz`, with no ranks yet.
    pub fn new(sampling_hz: f64) -> SamplingClock {
        let period = 1.0 / sampling_hz;
        SamplingClock {
            period,
            fast_below: if period > 0.0 && period.is_finite() {
                period
            } else {
                f64::NEG_INFINITY
            },
            phase: Vec::new(),
        }
    }

    /// The timer period in seconds.
    #[inline]
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Start a run of `nprocs` ranks, every phase at zero.
    pub fn start(&mut self, nprocs: usize) {
        self.phase = vec![0.0; nprocs];
    }

    /// Count the ticks inside an event of `duration` on `rank` and
    /// advance the rank's phase.
    #[inline]
    pub fn advance(&mut self, rank: usize, duration: f64) -> u64 {
        let phase = &mut self.phase[rank];
        let total = *phase + duration;
        if total < self.fast_below {
            *phase = total;
            return 0;
        }
        // No `floor`: the cast truncates, which is `floor` for every
        // non-negative quotient, and it saturates a negative quotient
        // and NaN to 0, as it does after `floor`.
        let n = (total / self.period) as u64;
        *phase = total - n as f64 * self.period;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The formula the clock replaces, as both tools computed it.
    fn reference(phase: f64, duration: f64, sampling_hz: f64) -> (u64, f64) {
        let period = 1.0 / sampling_hz;
        let total = phase + duration;
        let n = (total / period).floor() as u64;
        (n, total - n as f64 * period)
    }

    fn assert_matches(phase: f64, duration: f64, sampling_hz: f64) {
        let mut clock = SamplingClock::new(sampling_hz);
        clock.start(1);
        clock.phase[0] = phase;
        let n = clock.advance(0, duration);
        let (want_n, want_phase) = reference(phase, duration, sampling_hz);
        assert_eq!(
            (n, clock.phase[0].to_bits()),
            (want_n, want_phase.to_bits()),
            "phase {phase:e} + {duration:e} at {sampling_hz} Hz: \
             got ({n}, {:e}), want ({want_n}, {want_phase:e})",
            clock.phase[0]
        );
    }

    fn prev(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    fn next(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    const RATES: [f64; 4] = [0.0, 200.0, 2e4, 1e9];

    #[test]
    fn boundaries_match_the_reference() {
        for hz in RATES {
            let period = 1.0 / hz;
            let mut totals = vec![
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                1e300,
                f64::MAX,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -1.0,
                -1e300,
            ];
            if period.is_finite() {
                totals.extend([prev(period), period, next(period), 2.0 * period]);
                totals.extend([prev(2.0 * period), next(2.0 * period)]);
            }
            for total in totals {
                // The same total from a zero phase, from a phase that is
                // the whole total, and split in two.
                assert_matches(0.0, total, hz);
                assert_matches(total, 0.0, hz);
                if total.is_finite() {
                    assert_matches(total / 2.0, total - total / 2.0, hz);
                }
            }
        }
    }

    #[test]
    fn sweep_matches_the_reference() {
        let mut rng = SmallRng::seed_from_u64(0x5a3b_11e0);
        for hz in RATES {
            let period = 1.0 / hz;
            let scale = if period.is_finite() { period } else { 1.0 };
            for _ in 0..20_000 {
                let phase = rng.gen::<f64>() * scale;
                // Durations from far below a period to many periods.
                let duration = rng.gen::<f64>() * scale * 10f64.powi(rng.gen_range(-6..4));
                assert_matches(phase, duration, hz);
            }
        }
    }

    #[test]
    fn a_run_of_events_ticks_like_the_reference() {
        for hz in RATES {
            let mut clock = SamplingClock::new(hz);
            clock.start(2);
            let (mut phase, mut want_ticks, mut ticks) = (0.0, 0, 0);
            for i in 0..10_000 {
                let duration = 1e-6 * (1 + i % 97) as f64;
                ticks += clock.advance(1, duration);
                let (n, next_phase) = reference(phase, duration, hz);
                (phase, want_ticks) = (next_phase, want_ticks + n);
                assert_eq!(
                    clock.phase[1].to_bits(),
                    phase.to_bits(),
                    "{hz} Hz, event {i}"
                );
            }
            assert_eq!(ticks, want_ticks, "{hz} Hz");
            assert_eq!(clock.phase[0], 0.0, "another rank's phase is untouched");
        }
    }
}
