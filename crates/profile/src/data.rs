//! Collected profile data and PPG assembly.

use scalana_graph::{CommDep, CtxId, Ppg, Psg, VertexId, VertexPerf};
use scalana_lang::ast::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything one ScalAna profiling run produces: the per-vertex
/// performance vectors, aggregated communication dependences, and storage
/// accounting. `ScalAna-detect` turns one of these per process count into
/// a PPG.
#[derive(Debug, Clone, Default)]
pub struct ProfileData {
    /// Ranks in the run.
    pub nprocs: usize,
    /// Per-(vertex, rank) performance vectors.
    pub perf: HashMap<(VertexId, usize), VertexPerf>,
    /// Aggregated communication-dependence edges, keyed by
    /// (src_rank, src_vertex, dst_rank, dst_vertex).
    pub comm: HashMap<(usize, VertexId, usize, VertexId), CommAgg>,
    /// Per-rank end-to-end time.
    pub rank_elapsed: Vec<f64>,
    /// Bytes the tool would persist.
    pub storage_bytes: u64,
    /// Timer samples taken.
    pub sample_count: u64,
    /// Indirect calls observed (context, statement, callee).
    pub indirect_calls: Vec<(CtxId, NodeId, String)>,
}

/// Aggregate over one dependence edge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommAgg {
    /// Matched messages.
    pub count: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total receiver wait seconds.
    pub wait_time: f64,
}

impl CommAgg {
    /// Count one more matched message.
    pub fn add(&mut self, bytes: u64, wait_time: f64) {
        self.count += 1;
        self.bytes += bytes;
        self.wait_time += wait_time;
    }
}

impl ProfileData {
    /// New empty container for `nprocs` ranks.
    pub fn new(nprocs: usize) -> ProfileData {
        ProfileData {
            nprocs,
            rank_elapsed: vec![0.0; nprocs],
            ..ProfileData::default()
        }
    }

    /// Assemble the Program Performance Graph for this run.
    pub fn into_ppg(self, psg: Arc<Psg>) -> Ppg {
        let mut ppg = Ppg::new(psg, self.nprocs);
        ppg.rank_elapsed = self.rank_elapsed;
        for ((vertex, rank), perf) in self.perf {
            ppg.sync_with_psg();
            if (vertex as usize) < ppg.psg.vertex_count() {
                ppg.perf_mut(vertex, rank).merge(&perf);
            }
        }
        // Deterministic edge order for downstream analysis.
        let mut edges: Vec<_> = self.comm.into_iter().collect();
        edges.sort_by_key(|((sr, sv, dr, dv), _)| (*dr, *dv, *sr, *sv));
        for ((src_rank, src_vertex, dst_rank, dst_vertex), agg) in edges {
            ppg.add_comm(CommDep {
                src_rank,
                src_vertex,
                dst_rank,
                dst_vertex,
                count: agg.count,
                bytes: agg.bytes,
                wait_time: agg.wait_time,
            });
        }
        ppg
    }

    /// Total aggregated dependence edges.
    pub fn comm_edge_count(&self) -> usize {
        self.comm.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_graph::{build_psg, PsgOptions};
    use scalana_lang::parse_program;

    fn psg() -> Arc<Psg> {
        let src = "fn main() { comp(cycles = 10); send(dst = (rank + 1) % nprocs, tag = 0, \
                    bytes = 8); recv(src = (rank + nprocs - 1) % nprocs, tag = 0); }";
        let program = parse_program("t.mmpi", src).unwrap();
        Arc::new(build_psg(&program, &PsgOptions::default()))
    }

    #[test]
    fn perf_accumulates() {
        let mut data = ProfileData::new(2);
        let delta = VertexPerf {
            time: 0.5,
            count: 1,
            ..Default::default()
        };
        for _ in 0..2 {
            data.perf.entry((1, 0)).or_default().merge(&delta);
        }
        assert_eq!(data.perf[&(1, 0)].time, 1.0);
        assert_eq!(data.perf[&(1, 0)].count, 2);
    }

    #[test]
    fn comm_aggregates_by_edge() {
        let mut data = ProfileData::new(2);
        for (edge, wait) in [
            ((0, 2, 1, 3), 0.1),
            ((0, 2, 1, 3), 0.2),
            ((1, 2, 0, 3), 0.0),
        ] {
            data.comm.entry(edge).or_default().add(64, wait);
        }
        assert_eq!(data.comm_edge_count(), 2);
        let agg = data.comm[&(0, 2, 1, 3)];
        assert_eq!(agg.count, 2);
        assert_eq!(agg.bytes, 128);
        assert!((agg.wait_time - 0.3).abs() < 1e-12);
    }

    #[test]
    fn into_ppg_transfers_everything() {
        let psg = psg();
        let mut data = ProfileData::new(2);
        data.rank_elapsed = vec![1.0, 2.0];
        data.perf.insert(
            (1, 0),
            VertexPerf {
                time: 0.5,
                count: 3,
                ..Default::default()
            },
        );
        data.comm.entry((0, 1, 1, 2)).or_default().add(64, 0.25);
        let ppg = data.into_ppg(psg);
        assert_eq!(ppg.total_time(), 2.0);
        assert_eq!(ppg.perf(1, 0).count, 3);
        let deps = ppg.deps_into(1, 2);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].src_rank, 0);
        assert!((deps[0].wait_time - 0.25).abs() < 1e-12);
    }
}
