//! The profiling baseline (HPCToolkit-like).
//!
//! Call-path sampling without program structure: every timer tick
//! unwinds a call stack (expensive per sample) and increments a
//! per-call-path histogram. The output localizes *hot spots* but carries
//! no inter-process dependence and no program structure beyond call
//! paths — reproducing the paper's observation that HPCToolkit finds the
//! symptoms (`MPI_Waitall` is slow, this loop is hot) but needs
//! substantial human effort to connect them into a root cause.

use crate::record;
use crate::sampling::SamplingClock;
use scalana_graph::VertexId;
use scalana_mpisim::hook::{CompEvent, Hook, MpiExitEvent};
use std::collections::HashMap;

/// Flat-profiler cost model.
#[derive(Debug, Clone)]
pub struct FlatConfig {
    /// Timer frequency (default 200 Hz, the paper's setting).
    pub sampling_hz: f64,
    /// Cost of one sample: timer interrupt + full call-stack unwind.
    pub sample_cost: f64,
    /// Modeled call-path depth persisted per histogram entry.
    pub path_depth: u32,
    /// Fixed per-rank metadata bytes (binary structure analysis etc.).
    pub per_rank_metadata: u64,
}

impl Default for FlatConfig {
    fn default() -> Self {
        FlatConfig {
            sampling_hz: 200.0,
            sample_cost: 5.0e-6,
            path_depth: 12,
            per_rank_metadata: 48 * 1024,
        }
    }
}

/// One hot-spot entry of the flat profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSpot {
    /// The vertex (standing in for a call path).
    pub vertex: VertexId,
    /// Total seconds across ranks.
    pub time: f64,
    /// Samples across ranks.
    pub samples: u64,
}

/// The flat-profiling hook.
pub struct FlatProfilerHook {
    config: FlatConfig,
    nprocs: usize,
    /// The timer: its period and each rank's phase.
    clock: SamplingClock,
    /// (vertex, rank) → (samples, seconds).
    histogram: HashMap<(VertexId, usize), (u64, f64)>,
    rank_elapsed: Vec<f64>,
}

impl FlatProfilerHook {
    /// New flat profiler.
    pub fn new(config: FlatConfig) -> FlatProfilerHook {
        FlatProfilerHook {
            clock: SamplingClock::new(config.sampling_hz),
            config,
            nprocs: 0,
            histogram: HashMap::new(),
            rank_elapsed: Vec::new(),
        }
    }

    /// Default cost model.
    pub fn with_defaults() -> FlatProfilerHook {
        FlatProfilerHook::new(FlatConfig::default())
    }

    /// Storage the profile would occupy on disk: one histogram entry
    /// with `path_depth` frames per `(vertex, rank)`, plus the per-rank
    /// metadata.
    pub fn storage_bytes(&self) -> u64 {
        let entry = record::SAMPLE_ENTRY + record::SAMPLE_FRAME * u64::from(self.config.path_depth);
        self.histogram.len() as u64 * entry + self.nprocs as u64 * self.config.per_rank_metadata
    }

    /// The top-`n` hottest vertices by total time — the symptom list a
    /// user gets, without causal structure. Each vertex sums its ranks
    /// in rank order, so the times do not depend on the histogram's
    /// iteration order.
    pub fn hot_spots(&self, n: usize) -> Vec<HotSpot> {
        let mut entries: Vec<_> = self.histogram.iter().collect();
        entries.sort_unstable_by_key(|(key, _)| **key);
        let mut spots: Vec<HotSpot> = Vec::new();
        for (&(vertex, _), &(samples, time)) in entries {
            match spots.last_mut() {
                Some(spot) if spot.vertex == vertex => {
                    spot.samples += samples;
                    spot.time += time;
                }
                _ => spots.push(HotSpot {
                    vertex,
                    time,
                    samples,
                }),
            }
        }
        spots.sort_by(|a, b| {
            b.time
                .partial_cmp(&a.time)
                .unwrap()
                .then(a.vertex.cmp(&b.vertex))
        });
        spots.truncate(n);
        spots
    }

    /// Per-rank elapsed times of the profiled run.
    pub fn rank_elapsed(&self) -> &[f64] {
        &self.rank_elapsed
    }
}

impl Hook for FlatProfilerHook {
    fn on_run_start(&mut self, nprocs: usize) {
        self.nprocs = nprocs;
        self.clock.start(nprocs);
        self.histogram.clear();
    }

    fn on_comp(&mut self, ev: &CompEvent) -> f64 {
        let n = self.clock.advance(ev.rank, ev.duration);
        let e = self.histogram.entry((ev.vertex, ev.rank)).or_default();
        e.0 += n;
        e.1 += ev.duration;
        n as f64 * self.config.sample_cost
    }

    fn on_mpi_exit(&mut self, ev: &MpiExitEvent) -> f64 {
        // Timer keeps firing inside MPI; samples land on the MPI frame.
        // No virtual-time cost: the handler runs while the CPU is
        // idle-waiting on the network, so it does not delay completion
        // (charging it would compound exponentially through pipelined
        // waits — each rank's inflated wait inflating the next).
        let n = self.clock.advance(ev.rank, ev.elapsed);
        let e = self.histogram.entry((ev.vertex, ev.rank)).or_default();
        e.0 += n;
        e.1 += ev.elapsed;
        0.0
    }

    fn on_run_end(&mut self, rank_elapsed: &[f64]) {
        self.rank_elapsed = rank_elapsed.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_graph::{build_psg, PsgOptions, VertexKind};
    use scalana_lang::parse_program;
    use scalana_mpisim::{SimConfig, Simulation};

    fn profile(src: &str, nprocs: usize) -> (FlatProfilerHook, scalana_graph::Psg) {
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let mut flat = FlatProfilerHook::with_defaults();
        Simulation::new(&program, &psg, SimConfig::with_nprocs(nprocs))
            .with_hook(&mut flat)
            .run()
            .unwrap();
        (flat, psg)
    }

    #[test]
    fn finds_hot_vertex_without_causality() {
        let src = r#"
            fn main() {
                comp(cycles = 230_000_000); // hot: 100 ms
                comp(cycles = 230_000);     // cold
                barrier();
                comp(cycles = 2_300_000);   // warm: 1 ms (separate Comp after MPI)
            }
        "#;
        let (flat, psg) = profile(src, 2);
        let spots = flat.hot_spots(3);
        assert!(!spots.is_empty());
        // The hottest entry is the Comp vertex holding the 100 ms block.
        let hottest = &spots[0];
        assert_eq!(psg.vertex(hottest.vertex).kind, VertexKind::Comp);
        assert!(hottest.time >= 0.2, "2 ranks x 100ms: {}", hottest.time);
    }

    #[test]
    fn storage_includes_metadata_and_entries() {
        let (flat, _) = profile("fn main() { comp(cycles = 23_000_000); barrier(); }", 4);
        let config = FlatConfig::default();
        assert!(!flat.histogram.is_empty());
        // One 29 B entry plus 8 B per call-path frame for each histogram
        // entry, and the per-rank metadata.
        let entry = 29 + 8 * u64::from(config.path_depth);
        assert_eq!(
            flat.storage_bytes(),
            flat.histogram.len() as u64 * entry + 4 * config.per_rank_metadata
        );
    }

    #[test]
    fn hot_spots_are_identical_across_runs() {
        // Ranks wait different times at each MPI vertex, so a vertex's
        // total depends on the order its ranks are summed in.
        let src = r#"
            fn main() {
                for it in 0 .. 6 {
                    comp(cycles = 1_000_003 * (rank + 1) + 777 * it);
                    allreduce(bytes = 8);
                    comp(cycles = 333_331 * ((rank * 7 + it) % 5 + 1));
                    barrier();
                }
            }
        "#;
        let spots = |flat: &FlatProfilerHook| -> Vec<(VertexId, u64, u64)> {
            flat.hot_spots(usize::MAX)
                .iter()
                .map(|s| (s.vertex, s.time.to_bits(), s.samples))
                .collect()
        };
        let first = spots(&profile(src, 64).0);
        assert!(first.len() >= 4, "{first:?}");
        for _ in 0..4 {
            assert_eq!(spots(&profile(src, 64).0), first);
        }
    }

    #[test]
    fn mpi_wait_shows_up_as_hot_mpi_vertex() {
        let src = r#"
            fn main() {
                if rank == 0 { comp(cycles = 230_000_000); }
                barrier();
            }
        "#;
        let (flat, psg) = profile(src, 4);
        let spots = flat.hot_spots(4);
        // The barrier must appear hot on waiting ranks.
        assert!(
            spots.iter().any(|s| psg.vertex(s.vertex).is_mpi()),
            "waiting time should surface an MPI vertex: {spots:?}"
        );
    }
}
