//! The benchmark's own seeded randomness: every input is a pure
//! function of `--seed`, and nothing here depends on the repository's
//! crates, so a refactor of the program cannot change the inputs.

/// SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, stream)`, so that op `i` of a
    /// job stream can be generated without generating ops `0..i`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut mix = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        Rng(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2^-40 for
    /// the small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_differs() {
        let mut r1 = Rng::new(1);
        let mut r2 = Rng::new(1);
        let mut r3 = Rng::new(2);
        let s1: Vec<u64> = (0..8).map(|_| r1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| r2.next_u64()).collect();
        let s3: Vec<u64> = (0..8).map(|_| r3.next_u64()).collect();
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(Rng::stream(1, 0).next_u64(), Rng::stream(1, 1).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..50).collect();
        Rng::new(7).shuffle(&mut items);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
    }

    /// Zipf(1.0) over 48 ranks: rank 0 gets 1/H(48) = 22.4 % of the
    /// draws, rank 1 half of that, and the histogram is non-increasing
    /// up to sampling noise.
    #[test]
    fn zipf_histogram_follows_one_over_rank() {
        let zipf = Zipf::new(48, 1.0);
        let mut rng = Rng::new(42);
        let mut hist = [0u32; 48];
        let draws = 200_000;
        for _ in 0..draws {
            hist[zipf.sample(&mut rng)] += 1;
        }
        let h48: f64 = (1..=48).map(|k| 1.0 / k as f64).sum();
        for (k, &count) in hist.iter().enumerate().take(8) {
            let expected = draws as f64 / ((k + 1) as f64 * h48);
            let got = count as f64;
            assert!(
                (got - expected).abs() < 0.05 * expected,
                "rank {k}: got {got}, expected {expected}"
            );
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[3] && hist[3] > hist[47]);
        assert!(hist.iter().all(|&c| c > 0));
    }
}
