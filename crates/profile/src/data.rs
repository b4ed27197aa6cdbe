//! Collected profile data and PPG assembly.
//!
//! [`ProfileData`] holds its performance vectors and dependence edges as
//! sorted lists, in the order [`store::save`](crate::store::save) writes
//! them and [`Ppg`] reads them: perf by `(vertex, rank)`, which is the
//! PPG's vertex-major matrix order, and edges by [`comm_order`], which is
//! the order [`Ppg::deps_into`] answers from. The profiler produces them
//! sorted, `store::load` accepts only sorted images, and
//! [`into_ppg`](ProfileData::into_ppg) walks each list once, so nothing
//! between the hook and the PPG hashes a key or sorts again.

use scalana_graph::{CommDep, CtxId, Ppg, Psg, VertexId, VertexPerf};
use scalana_lang::ast::NodeId;
use std::sync::Arc;

/// A dependence edge: `(src_rank, src_vertex, dst_rank, dst_vertex)`.
pub type EdgeKey = (usize, VertexId, usize, VertexId);

/// The order [`ProfileData::comm`] keeps its edges in: by destination
/// `(dst_rank, dst_vertex)`, then by source.
#[inline]
pub fn comm_order(
    &(src_rank, src_vertex, dst_rank, dst_vertex): &EdgeKey,
) -> (usize, VertexId, usize, VertexId) {
    (dst_rank, dst_vertex, src_rank, src_vertex)
}

/// Everything one ScalAna profiling run produces: the per-vertex
/// performance vectors, aggregated communication dependences, and storage
/// accounting. `ScalAna-detect` turns one of these per process count into
/// a PPG.
#[derive(Debug, Clone, Default)]
pub struct ProfileData {
    /// Ranks in the run.
    pub nprocs: usize,
    /// Per-(vertex, rank) performance vectors, keys strictly increasing.
    pub perf: Vec<((VertexId, usize), VertexPerf)>,
    /// Aggregated communication-dependence edges, keys strictly
    /// increasing in [`comm_order`].
    pub comm: Vec<(EdgeKey, CommAgg)>,
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
    #[inline]
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

    /// Assemble the Program Performance Graph for this run. Both lists
    /// are already in the PPG's order: perf fills the vertex-major matrix
    /// front to back, and the edges are appended as they come.
    pub fn into_ppg(self, psg: Arc<Psg>) -> Ppg {
        let mut ppg = Ppg::new(psg, self.nprocs);
        ppg.rank_elapsed = self.rank_elapsed;
        ppg.sync_with_psg();
        let vertices = ppg.psg.vertex_count();
        for ((vertex, rank), perf) in self.perf {
            if (vertex as usize) < vertices {
                ppg.perf_mut(vertex, rank).merge(&perf);
            }
        }
        ppg.comm.reserve_exact(self.comm.len());
        for ((src_rank, src_vertex, dst_rank, dst_vertex), agg) in self.comm {
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
        // Sorted entries land at their (vertex, rank) in the PPG; an
        // entry for a vertex the PSG does not have is dropped.
        let psg = psg();
        let beyond = psg.vertex_count() as VertexId;
        let mut data = ProfileData::new(2);
        let sample = |time| VertexPerf {
            time,
            count: 1,
            ..Default::default()
        };
        data.perf = vec![
            ((1, 0), sample(0.5)),
            ((1, 1), sample(0.25)),
            ((2, 1), sample(2.0)),
            ((beyond, 0), sample(9.0)),
        ];
        let ppg = data.into_ppg(psg);
        assert_eq!(ppg.times_across_ranks(1), vec![0.5, 0.25]);
        assert_eq!(ppg.times_across_ranks(2), vec![0.0, 2.0]);
        assert_eq!(ppg.perf(1, 0).count, 1);
    }

    #[test]
    fn comm_aggregates_by_edge() {
        let mut agg = CommAgg::default();
        agg.add(64, 0.1);
        agg.add(64, 0.2);
        assert_eq!(agg.count, 2);
        assert_eq!(agg.bytes, 128);
        assert!((agg.wait_time - 0.3).abs() < 1e-12);
        // Edges sort by destination first, then source.
        let mut edges = [(0, 2, 1, 3), (1, 2, 0, 3), (0, 1, 1, 3)];
        edges.sort_unstable_by_key(comm_order);
        assert_eq!(edges, [(1, 2, 0, 3), (0, 1, 1, 3), (0, 2, 1, 3)]);
        let mut data = ProfileData::new(2);
        data.comm = edges.iter().map(|&e| (e, agg)).collect();
        assert_eq!(data.comm_edge_count(), 3);
    }

    #[test]
    fn into_ppg_transfers_everything() {
        let psg = psg();
        let mut data = ProfileData::new(2);
        data.rank_elapsed = vec![1.0, 2.0];
        data.perf.push((
            (1, 0),
            VertexPerf {
                time: 0.5,
                count: 3,
                ..Default::default()
            },
        ));
        let mut agg = CommAgg::default();
        agg.add(64, 0.25);
        data.comm.push(((0, 1, 1, 2), agg));
        let ppg = data.into_ppg(psg);
        assert_eq!(ppg.total_time(), 2.0);
        assert_eq!(ppg.perf(1, 0).count, 3);
        let deps = ppg.deps_into(1, 2);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].src_rank, 0);
        assert!((deps[0].wait_time - 0.25).abs() < 1e-12);
    }
}
