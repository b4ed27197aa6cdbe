//! Platform model: CPU, memory penalty, network, collectives, noise.
//!
//! Loosely calibrated to the paper's Gorgon testbed (dual Xeon E5-2670v3,
//! 100 Gb/s 4xEDR InfiniBand): 2.3 GHz cores, ~1 µs latency, ~10 GB/s
//! effective point-to-point bandwidth. Collective costs use standard
//! binomial-tree / recursive-doubling models, so wait states scale as
//! `log2(p)` the way real MPI libraries behave.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-rank relative core speed.
#[derive(Debug, Clone)]
pub enum CoreSpeed {
    /// All ranks run at the nominal frequency.
    Uniform,
    /// Rank `r` runs at `factors[r % factors.len()]` times nominal.
    /// Used to reproduce the Nekbone case study, where memory access
    /// speed differs between the cores ranks are bound to.
    PerRank(Vec<f64>),
}

impl CoreSpeed {
    /// Speed factor of one rank (1.0 = nominal).
    #[inline]
    pub fn factor(&self, rank: usize) -> f64 {
        match self {
            CoreSpeed::Uniform => 1.0,
            CoreSpeed::PerRank(factors) => {
                if factors.is_empty() {
                    1.0
                } else {
                    factors[rank % factors.len()]
                }
            }
        }
    }
}

/// Multiplicative noise on computation times (OS jitter, turbo, etc.).
#[derive(Debug, Clone, Copy)]
pub struct NoiseConfig {
    /// Maximum relative perturbation (0.02 = ±2%). Zero disables noise.
    pub amplitude: f64,
    /// Seed; together with the rank it makes per-rank streams
    /// deterministic.
    pub seed: u64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            amplitude: 0.0,
            seed: 0x5ca1ab1e,
        }
    }
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Core frequency in Hz (cycles of `comp` per virtual second).
    pub freq_hz: f64,
    /// Per-rank speed heterogeneity.
    pub core_speed: CoreSpeed,
    /// One-way network latency in seconds.
    pub net_latency: f64,
    /// Point-to-point bandwidth in bytes/second.
    pub net_bandwidth: f64,
    /// CPU-side cost of posting/completing one MPI operation, seconds.
    pub mpi_overhead: f64,
    /// Messages at or below this size use the eager protocol (the sender
    /// does not block); larger messages rendezvous.
    pub eager_threshold: u64,
    /// Extra cycles charged per L2 miss (memory stall model).
    pub miss_penalty_cycles: f64,
    /// Computation-time noise.
    pub noise: NoiseConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            freq_hz: 2.3e9,
            core_speed: CoreSpeed::Uniform,
            net_latency: 1.0e-6,
            net_bandwidth: 10.0e9,
            mpi_overhead: 0.5e-6,
            eager_threshold: 64 * 1024,
            miss_penalty_cycles: 150.0,
            noise: NoiseConfig::default(),
        }
    }
}

impl MachineConfig {
    /// Seconds to execute `cycles` (plus miss stalls) on `rank`.
    #[inline]
    pub fn comp_seconds(&self, rank: usize, cycles: f64, l2_miss: f64) -> f64 {
        self.stalled_cycles(cycles, l2_miss) / self.rank_rate(rank)
    }

    /// Cycles a computation holds its core: its own plus the stalls of
    /// its L2 misses.
    #[inline]
    pub fn stalled_cycles(&self, cycles: f64, l2_miss: f64) -> f64 {
        cycles + l2_miss * self.miss_penalty_cycles
    }

    /// Cycles per second on `rank`: the core frequency times the rank's
    /// speed factor. `stalled_cycles / rank_rate` is
    /// [`comp_seconds`](MachineConfig::comp_seconds).
    #[inline]
    pub fn rank_rate(&self, rank: usize) -> f64 {
        self.freq_hz * self.core_speed.factor(rank)
    }

    /// Wire time of one message: latency plus serialization.
    #[inline]
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.net_latency + bytes as f64 / self.net_bandwidth
    }

    /// Whether a message is sent eagerly.
    #[inline]
    pub fn is_eager(&self, bytes: u64) -> bool {
        bytes <= self.eager_threshold
    }

    /// Collective completion delay beyond the last arrival, for a
    /// `p`-rank communicator moving `bytes` per rank.
    pub fn collective_seconds(&self, kind: CollectiveModel, p: usize, bytes: u64) -> f64 {
        let p = p.max(1);
        let stages = (p as f64).log2().ceil().max(1.0);
        let hop = self.transfer_seconds(bytes);
        match kind {
            CollectiveModel::Barrier => self.net_latency * stages,
            CollectiveModel::Bcast | CollectiveModel::Reduce => hop * stages,
            // Recursive doubling: reduce-scatter + allgather.
            CollectiveModel::Allreduce => 2.0 * hop * stages,
            // Pairwise exchange: p-1 rounds, each paying latency +
            // serialization — the small-message alltoall wall that makes
            // FT/IS communication-bound at scale.
            CollectiveModel::Alltoall => {
                (p as f64 - 1.0) * (self.net_latency + bytes as f64 / self.net_bandwidth)
            }
            CollectiveModel::Allgather => {
                hop * stages + (p as f64 - 1.0) * bytes as f64 / self.net_bandwidth
            }
        }
    }
}

/// Collective cost-model selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveModel {
    /// Barrier.
    Barrier,
    /// One-to-all tree.
    Bcast,
    /// All-to-one tree.
    Reduce,
    /// Recursive doubling.
    Allreduce,
    /// Pairwise exchange.
    Alltoall,
    /// Ring/tree gather.
    Allgather,
}

/// Deterministic per-rank noise stream.
#[derive(Debug)]
pub struct NoiseStream {
    rng: SmallRng,
    amplitude: f64,
}

impl NoiseStream {
    /// Stream for one rank.
    pub fn new(config: &NoiseConfig, rank: usize) -> NoiseStream {
        let seed = config
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(rank as u64);
        NoiseStream {
            rng: SmallRng::seed_from_u64(seed),
            amplitude: config.amplitude,
        }
    }

    /// Multiplicative factor for the next computation interval
    /// (1.0 when noise is disabled).
    #[inline]
    pub fn next_factor(&mut self) -> f64 {
        if self.amplitude == 0.0 {
            1.0
        } else {
            1.0 + self.rng.gen_range(-self.amplitude..=self.amplitude)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comp_time_scales_with_cycles_and_speed() {
        let m = MachineConfig::default();
        let t1 = m.comp_seconds(0, 2.3e9, 0.0);
        assert!((t1 - 1.0).abs() < 1e-9, "2.3G cycles at 2.3GHz = 1s");
        let slow = MachineConfig {
            core_speed: CoreSpeed::PerRank(vec![1.0, 0.5]),
            ..MachineConfig::default()
        };
        assert!(slow.comp_seconds(1, 1e9, 0.0) > slow.comp_seconds(0, 1e9, 0.0));
        assert_eq!(slow.core_speed.factor(3), 0.5); // wraps modulo
    }

    #[test]
    fn miss_penalty_adds_stall_cycles() {
        let m = MachineConfig::default();
        let base = m.comp_seconds(0, 1000.0, 0.0);
        let with_misses = m.comp_seconds(0, 1000.0, 10.0);
        assert!(with_misses > base);
        let expected = (1000.0 + 10.0 * m.miss_penalty_cycles) / m.freq_hz;
        assert!((with_misses - expected).abs() < 1e-15);
    }

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let m = MachineConfig::default();
        assert!(m.transfer_seconds(0) >= m.net_latency);
        let small = m.transfer_seconds(8);
        let big = m.transfer_seconds(1 << 20);
        assert!(big > small);
    }

    #[test]
    fn eager_threshold() {
        let m = MachineConfig::default();
        assert!(m.is_eager(1024));
        assert!(m.is_eager(64 * 1024));
        assert!(!m.is_eager(64 * 1024 + 1));
    }

    #[test]
    fn collective_costs_grow_with_scale() {
        let m = MachineConfig::default();
        for kind in [
            CollectiveModel::Barrier,
            CollectiveModel::Bcast,
            CollectiveModel::Allreduce,
            CollectiveModel::Alltoall,
            CollectiveModel::Allgather,
        ] {
            let t8 = m.collective_seconds(kind, 8, 1024);
            let t256 = m.collective_seconds(kind, 256, 1024);
            assert!(t256 > t8, "{kind:?} must cost more at larger scale");
        }
    }

    #[test]
    fn allreduce_costs_twice_bcast() {
        let m = MachineConfig::default();
        let b = m.collective_seconds(CollectiveModel::Bcast, 64, 4096);
        let a = m.collective_seconds(CollectiveModel::Allreduce, 64, 4096);
        assert!((a - 2.0 * b).abs() < 1e-12);
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_rank() {
        let cfg = NoiseConfig {
            amplitude: 0.05,
            seed: 42,
        };
        let mut a = NoiseStream::new(&cfg, 3);
        let mut b = NoiseStream::new(&cfg, 3);
        let mut c = NoiseStream::new(&cfg, 4);
        let xs: Vec<f64> = (0..8).map(|_| a.next_factor()).collect();
        let ys: Vec<f64> = (0..8).map(|_| b.next_factor()).collect();
        let zs: Vec<f64> = (0..8).map(|_| c.next_factor()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for x in xs {
            assert!((0.95..=1.05).contains(&x));
        }
    }

    #[test]
    fn zero_amplitude_noise_is_identity() {
        let mut s = NoiseStream::new(
            &NoiseConfig {
                amplitude: 0.0,
                seed: 1,
            },
            0,
        );
        assert_eq!(s.next_factor(), 1.0);
    }
}
