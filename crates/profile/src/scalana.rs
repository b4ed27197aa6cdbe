//! The ScalAna profiler (paper §III-B): sampling-based performance data
//! collection plus graph-guided communication dependence recording.
//!
//! Per event the profiler does a lookup, not a hash of program data:
//! performance vectors sum into a dense per-rank table indexed by
//! vertex, and each dependence edge keeps its aggregate and the
//! `(tag, bytes)` keys it persisted in one [`FxHashMap`] entry. Most
//! messages repeat their edge's previous parameters, so the compression
//! check compares against the edge's last key first and searches the
//! edge's own persisted keys only when the parameters changed. At the
//! end of the run [`take_data`](ScalAnaProfiler::take_data) emits both
//! tables as the sorted lists [`ProfileData`] holds.

use crate::data::{comm_order, CommAgg, EdgeKey, ProfileData};
use crate::record;
use crate::sampling::SamplingClock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scalana_graph::{VertexId, VertexPerf};
use scalana_mpisim::fxhash::FxHashMap;
use scalana_mpisim::hook::{
    CommDepEvent, CompEvent, Hook, IndirectCallEvent, MpiEnterEvent, MpiExitEvent,
};
use std::collections::{BTreeSet, HashSet};

/// ScalAna profiler knobs (paper §V user parameters plus cost model).
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Timer sampling frequency (paper: 200 Hz, matching HPCToolkit).
    pub sampling_hz: f64,
    /// Virtual-time cost of one sample (PSG-vertex attribution is a map
    /// lookup — much cheaper than a full call-stack unwind).
    pub sample_cost: f64,
    /// Cost of one PMPI wrapper invocation (enter or exit).
    pub mpi_event_cost: f64,
    /// Cost of persisting one communication record.
    pub comm_record_cost: f64,
    /// Random-sampling instrumentation (paper §III-B2): probability that
    /// a communication's parameters are examined at all. 1.0 records
    /// every dependence; lower rates trade completeness for overhead.
    pub comm_check_probability: f64,
    /// Graph-guided communication compression (paper §III-B2): persist a
    /// communication's parameters only once per dependence-edge key.
    pub graph_compression: bool,
    /// `true`: attribute exact event durations (the engine knows them);
    /// `false`: quantize attribution to whole sampling periods, modeling
    /// real timer-interrupt attribution error.
    pub exact_attribution: bool,
    /// RNG seed for the random-sampling instrumentation.
    pub seed: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            sampling_hz: 200.0,
            sample_cost: 1.5e-6,
            mpi_event_cost: 0.15e-6,
            comm_record_cost: 0.4e-6,
            comm_check_probability: 1.0,
            graph_compression: true,
            exact_attribution: true,
            seed: 0xa11c,
        }
    }
}

/// One dependence edge as the profiler tracks it during the run.
///
/// The edge's persisted compression keys are its first one, inline,
/// and any later ones in an ordered set. Tags and sizes are values the
/// profiled program computes, so a submitted program could choose keys
/// that collide under a fixed hash and make every insert a scan; an
/// ordered set hashes nothing, and a search costs O(log k) for an edge
/// with k keys. An edge that only ever carries one key allocates
/// nothing.
#[derive(Debug, Default)]
struct EdgeState {
    agg: CommAgg,
    /// The `(tag, bytes)` of the edge's previous examined message, which
    /// is always one of its persisted keys.
    last: Option<(i64, u64)>,
    /// The edge's first persisted key.
    first: Option<(i64, u64)>,
    /// Every later persisted key.
    more: BTreeSet<(i64, u64)>,
}

impl EdgeState {
    /// Persist `key` unless the edge already did: `true` if it is new.
    #[inline]
    fn persist(&mut self, key: (i64, u64)) -> bool {
        if self.last == Some(key) {
            return false;
        }
        self.last = Some(key);
        match self.first {
            None => {
                self.first = Some(key);
                true
            }
            Some(first) => first != key && self.more.insert(key),
        }
    }
}

/// The ScalAna profiling hook. Attach with
/// [`Simulation::with_hook`](scalana_mpisim::Simulation::with_hook), run,
/// then [`take_data`](ScalAnaProfiler::take_data).
///
/// Attributing an event is a lookup, not a stack unwind (paper §III-B),
/// and the tables are laid out so it costs one: performance vectors
/// accumulate in a dense per-rank table indexed by vertex (`perf[rank]
/// [vertex]`, grown on first touch), and the dependence edges, whose
/// keys are ranks and vertices, sit behind [`FxHashMap`] rather than
/// SipHash. Each edge keeps the compression keys it persisted in its own
/// entry, first inline and the rest in an ordered set, so no tag or size
/// the program computes is ever hashed. Each `(vertex, rank)` vector and
/// each edge still sums its events in event order, so every float is the
/// one a per-event map entry would hold. [`ProfileData`]'s sorted lists
/// are built once, in [`take_data`](ScalAnaProfiler::take_data): perf by
/// walking the dense table vertex-major, the edges by one sort.
pub struct ScalAnaProfiler {
    config: ProfilerConfig,
    /// The timer: its period and each rank's phase.
    clock: SamplingClock,
    data: ProfileData,
    /// Per-rank, per-vertex performance vectors. Every recorded sample
    /// has `count == 1`, so `count > 0` marks the touched entries.
    perf: Vec<Vec<VertexPerf>>,
    /// Aggregated dependence edges, each with its compression keys.
    comm: FxHashMap<EdgeKey, EdgeState>,
    /// Per-rank RNG for the random-sampling instrumentation; empty when
    /// every message is examined.
    rngs: Vec<SmallRng>,
    /// Indirect calls already recorded.
    recorded_indirect: HashSet<(u32, u32, String)>,
}

impl ScalAnaProfiler {
    /// New profiler with the given configuration.
    pub fn new(config: ProfilerConfig) -> ScalAnaProfiler {
        ScalAnaProfiler {
            clock: SamplingClock::new(config.sampling_hz),
            config,
            data: ProfileData::default(),
            perf: Vec::new(),
            comm: FxHashMap::default(),
            rngs: Vec::new(),
            recorded_indirect: HashSet::new(),
        }
    }

    /// Paper-default configuration.
    pub fn with_defaults() -> ScalAnaProfiler {
        ScalAnaProfiler::new(ProfilerConfig::default())
    }

    /// Finish the run: persist the per-vertex performance table and
    /// return the collected data.
    pub fn take_data(mut self) -> ProfileData {
        // Post-mortem dump: one record per touched (vertex, rank), walked
        // vertex-major so the list comes out in `(vertex, rank)` order.
        // The list is sized once: growing it would hold two copies at
        // the peak.
        let touched = self.perf.iter().flatten().filter(|p| p.count > 0).count();
        let vertices = self.perf.iter().map(Vec::len).max().unwrap_or(0);
        let mut perf = Vec::with_capacity(touched);
        for vertex in 0..vertices {
            for (rank, row) in self.perf.iter().enumerate() {
                let Some(p) = row.get(vertex).filter(|p| p.count > 0) else {
                    continue;
                };
                perf.push(((vertex as VertexId, rank), *p));
            }
        }
        self.perf = Vec::new();
        self.data.storage_bytes += record::VERTEX_PERF * perf.len() as u64;
        self.data.perf = perf;
        let mut comm: Vec<_> = self.comm.drain().map(|(k, e)| (k, e.agg)).collect();
        comm.sort_unstable_by_key(|(key, _)| comm_order(key));
        self.data.comm = comm;
        self.data
    }

    /// Number of timer samples so far (tests/ablation).
    pub fn sample_count(&self) -> u64 {
        self.data.sample_count
    }

    /// Merge a sample into the `(vertex, rank)` vector.
    #[inline]
    fn add_perf(&mut self, vertex: VertexId, rank: usize, delta: &VertexPerf) {
        let row = &mut self.perf[rank];
        let v = vertex as usize;
        if v >= row.len() {
            row.resize(v + 1, VertexPerf::default());
        }
        row[v].merge(delta);
    }
}

impl Hook for ScalAnaProfiler {
    fn on_run_start(&mut self, nprocs: usize) {
        self.data = ProfileData::new(nprocs);
        self.perf = vec![Vec::new(); nprocs];
        self.comm.clear();
        self.clock.start(nprocs);
        self.rngs = if self.config.comm_check_probability < 1.0 {
            (0..nprocs)
                .map(|r| SmallRng::seed_from_u64(self.config.seed.wrapping_add(r as u64)))
                .collect()
        } else {
            Vec::new()
        };
    }

    #[inline]
    fn on_comp(&mut self, ev: &CompEvent) -> f64 {
        let n = self.clock.advance(ev.rank, ev.duration);
        self.data.sample_count += n;
        let delta = if self.config.exact_attribution {
            VertexPerf {
                time: ev.duration,
                count: 1,
                tot_ins: ev.tot_ins,
                tot_cyc: ev.tot_cyc,
                lst_ins: ev.lst_ins,
                l2_miss: ev.l2_miss,
                br_miss: ev.br_miss,
                ..Default::default()
            }
        } else {
            // Timer-quantized attribution: whole periods only.
            let seen = n as f64 * self.clock.period();
            let scale = if ev.duration > 0.0 {
                seen / ev.duration
            } else {
                0.0
            };
            VertexPerf {
                time: seen,
                count: 1,
                tot_ins: ev.tot_ins * scale,
                tot_cyc: ev.tot_cyc * scale,
                lst_ins: ev.lst_ins * scale,
                l2_miss: ev.l2_miss * scale,
                br_miss: ev.br_miss * scale,
                ..Default::default()
            }
        };
        self.add_perf(ev.vertex, ev.rank, &delta);
        n as f64 * self.config.sample_cost
    }

    #[inline]
    fn on_mpi_enter(&mut self, _ev: &MpiEnterEvent) -> f64 {
        self.config.mpi_event_cost
    }

    #[inline]
    fn on_mpi_exit(&mut self, ev: &MpiExitEvent) -> f64 {
        // PMPI wrappers time the operation exactly.
        self.data.sample_count += self.clock.advance(ev.rank, ev.elapsed);
        let delta = VertexPerf {
            time: ev.elapsed,
            count: 1,
            wait_time: ev.wait_time,
            ..Default::default()
        };
        self.add_perf(ev.vertex, ev.rank, &delta);
        self.config.mpi_event_cost
    }

    #[inline]
    fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
        // Random-sampling instrumentation: maybe skip this message.
        if self.config.comm_check_probability < 1.0 {
            let roll: f64 = self.rngs[ev.dst_rank].gen();
            if roll > self.config.comm_check_probability {
                return 0.0;
            }
        }
        let edge = (ev.src_rank, ev.src_vertex, ev.dst_rank, ev.dst_vertex);
        let state = self.comm.entry(edge).or_default();
        state.agg.add(ev.bytes, ev.wait_time);
        if self.config.graph_compression {
            // Same parameters already persisted: the PSG's structure
            // makes the repeat redundant (graph-guided compression).
            if !state.persist((ev.tag, ev.bytes)) {
                return 0.02e-6;
            }
        }
        self.data.storage_bytes += record::COMM_DEP;
        self.config.comm_record_cost
    }

    fn on_indirect_call(&mut self, ev: &IndirectCallEvent) -> f64 {
        let key = (ev.ctx, ev.stmt, ev.callee.clone());
        if self.recorded_indirect.insert(key) {
            self.data
                .indirect_calls
                .push((ev.ctx, ev.stmt, ev.callee.clone()));
            self.data.storage_bytes += record::INDIRECT_CALL + ev.callee.len() as u64;
            self.config.comm_record_cost
        } else {
            0.02e-6
        }
    }

    fn on_run_end(&mut self, rank_elapsed: &[f64]) {
        self.data.rank_elapsed = rank_elapsed.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_graph::{build_psg, PsgOptions};
    use scalana_lang::parse_program;
    use scalana_mpisim::{SimConfig, Simulation};

    fn profile(src: &str, nprocs: usize, config: ProfilerConfig) -> ProfileData {
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let mut profiler = ScalAnaProfiler::new(config);
        Simulation::new(&program, &psg, SimConfig::with_nprocs(nprocs))
            .with_hook(&mut profiler)
            .run()
            .unwrap();
        profiler.take_data()
    }

    const RING: &str = r#"
        fn main() {
            for it in 0 .. 10 {
                comp(cycles = 2_300_000); // 1 ms
                sendrecv(dst = (rank + 1) % nprocs,
                         src = (rank + nprocs - 1) % nprocs,
                         sendtag = 0, recvtag = 0, bytes = 4k);
            }
            allreduce(bytes = 8);
        }
    "#;

    #[test]
    fn collects_perf_and_comm() {
        let data = profile(RING, 4, ProfilerConfig::default());
        assert_eq!(data.nprocs, 4);
        assert!(!data.perf.is_empty());
        // Ring: each rank receives from its left neighbour, plus possible
        // collective straggler edges.
        assert!(data.comm_edge_count() >= 4);
        assert!(data.storage_bytes > 0);
        assert_eq!(data.rank_elapsed.len(), 4);
    }

    #[test]
    fn sampling_frequency_drives_sample_count() {
        let lo = profile(
            RING,
            2,
            ProfilerConfig {
                sampling_hz: 100.0,
                ..Default::default()
            },
        );
        let hi = profile(
            RING,
            2,
            ProfilerConfig {
                sampling_hz: 10_000.0,
                ..Default::default()
            },
        );
        assert!(hi.sample_count > lo.sample_count * 10);
    }

    #[test]
    fn compression_bounds_storage_under_iteration_growth() {
        let many_iters = RING.replace("0 .. 10", "0 .. 100");
        let compressed = profile(&many_iters, 4, ProfilerConfig::default());
        let raw = profile(
            &many_iters,
            4,
            ProfilerConfig {
                graph_compression: false,
                ..Default::default()
            },
        );
        // Without compression every matched message is persisted; with
        // compression repeats collapse onto the first record.
        assert!(
            raw.storage_bytes > compressed.storage_bytes * 2,
            "raw {} vs compressed {}",
            raw.storage_bytes,
            compressed.storage_bytes
        );
        // Aggregated dependence info is identical either way.
        assert_eq!(raw.comm_edge_count(), compressed.comm_edge_count());
    }

    /// A ring whose edges alternate two tags: no message repeats its
    /// edge's previous key, so every compression check falls back to the
    /// set of persisted keys.
    const TWO_TAG_RING: &str = r#"
        fn main() {
            for it in 0 .. 10 {
                comp(cycles = 2_300_000);
                sendrecv(dst = (rank + 1) % nprocs,
                         src = (rank + nprocs - 1) % nprocs,
                         sendtag = it % 2, recvtag = it % 2, bytes = 4k);
            }
        }
    "#;

    #[test]
    fn compression_persists_each_key_once_when_tags_alternate() {
        let single = profile(
            &TWO_TAG_RING.replace("it % 2", "0"),
            4,
            ProfilerConfig::default(),
        );
        let alternating = profile(TWO_TAG_RING, 4, ProfilerConfig::default());
        assert_eq!(alternating.comm_edge_count(), single.comm_edge_count());
        assert_eq!(alternating.comm_edge_count(), 4);
        // One perf record per vector, one dependence record per persisted
        // key: one key per edge with one tag, two with two.
        let storage = |d: &ProfileData, keys_per_edge: u64| {
            record::VERTEX_PERF * d.perf.len() as u64
                + record::COMM_DEP * keys_per_edge * d.comm_edge_count() as u64
        };
        assert_eq!(single.storage_bytes, storage(&single, 1));
        assert_eq!(alternating.storage_bytes, storage(&alternating, 2));
    }

    #[test]
    fn compression_persists_each_of_three_cycled_keys_once() {
        // Tags and sizes cycle through three keys, so the edge's last key
        // never matches and every repeat is found among its other keys.
        let cycling = TWO_TAG_RING
            .replace("0 .. 10", "0 .. 12")
            .replace("it % 2", "it % 3")
            .replace("bytes = 4k", "bytes = 1k * (it % 3 + 1)");
        let data = profile(&cycling, 4, ProfilerConfig::default());
        assert_eq!(data.comm_edge_count(), 4);
        assert!(data.comm.iter().all(|(_, agg)| agg.count == 12));
        assert_eq!(
            data.storage_bytes,
            record::VERTEX_PERF * data.perf.len() as u64
                + record::COMM_DEP * 3 * data.comm_edge_count() as u64
        );
    }

    #[test]
    fn an_edge_with_a_new_tag_per_message_persists_every_message() {
        // One edge, 10,000 messages, each with its own tag (LU's
        // `tag * 100 + k` taken to the limit): each key is new, and each
        // check is one search among the edge's keys, not a scan.
        let src = r#"
            fn main() {
                for it in 0 .. 10000 {
                    if rank == 0 {
                        send(dst = 1, tag = it, bytes = 8);
                    } else {
                        recv(src = 0, tag = it);
                    }
                }
            }
        "#;
        let start = std::time::Instant::now();
        let data = profile(src, 2, ProfilerConfig::default());
        let elapsed = start.elapsed();
        assert_eq!(data.comm_edge_count(), 1);
        assert_eq!(data.comm[0].1.count, 10_000);
        assert_eq!(
            data.storage_bytes,
            record::VERTEX_PERF * data.perf.len() as u64 + record::COMM_DEP * 10_000
        );
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn comm_sampling_rate_drops_edges() {
        let full = profile(RING, 4, ProfilerConfig::default());
        let sampled = profile(
            RING,
            4,
            ProfilerConfig {
                comm_check_probability: 0.1,
                ..Default::default()
            },
        );
        assert!(
            sampled.comm.iter().map(|(_, a)| a.count).sum::<u64>()
                < full.comm.iter().map(|(_, a)| a.count).sum::<u64>()
        );
    }

    #[test]
    fn quantized_attribution_loses_short_events() {
        let src = "fn main() { comp(cycles = 23_000); }"; // 10 µs << 5 ms period
        let exact = profile(src, 1, ProfilerConfig::default());
        let quantized = profile(
            src,
            1,
            ProfilerConfig {
                exact_attribution: false,
                ..Default::default()
            },
        );
        let sum_t = |d: &ProfileData| d.perf.iter().map(|(_, p)| p.time).sum::<f64>();
        assert!(sum_t(&exact) > 0.0);
        assert!(sum_t(&quantized) < sum_t(&exact));
    }

    #[test]
    fn mpi_wait_time_is_attributed() {
        let src = r#"
            fn main() {
                if rank == 0 { comp(cycles = 23_000_000); }
                allreduce(bytes = 8);
            }
        "#;
        let data = profile(src, 4, ProfilerConfig::default());
        let total_wait: f64 = data.perf.iter().map(|(_, p)| p.wait_time).sum();
        assert!(
            total_wait > 0.02,
            "three ranks wait ~10ms each: {total_wait}"
        );
    }

    #[test]
    fn indirect_calls_recorded_once() {
        let src = r#"
            fn main() {
                let f = &leaf;
                for i in 0 .. 5 { call f(); }
            }
            fn leaf() { comp(cycles = 100); }
        "#;
        let data = profile(src, 2, ProfilerConfig::default());
        assert_eq!(
            data.indirect_calls.len(),
            1,
            "deduplicated across iterations and ranks"
        );
        assert_eq!(data.indirect_calls[0].2, "leaf");
    }
}
