//! Program Performance Graph (paper §III-C).
//!
//! The PPG replicates the per-process PSG across all ranks, attributes a
//! performance vector to every `(vertex, rank)` pair, and adds the
//! inter-process communication-dependence edges collected at runtime.
//! Point-to-point edges connect matched send/receive vertices; collective
//! operations associate all participating ranks.
//!
//! The edges are kept sorted by destination `(dst_rank, dst_vertex)`, so
//! the edges into one vertex of one rank are a contiguous range that
//! [`Ppg::deps_into`] finds by binary search; there is no separate index.

use crate::psg::Psg;
use crate::vertex::VertexId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-`(vertex, rank)` performance vector: execution time plus the
/// simulated PMU counters the paper records via PAPI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct VertexPerf {
    /// Virtual seconds attributed to this vertex.
    pub time: f64,
    /// Number of executions observed.
    pub count: u64,
    /// Instructions retired (`PAPI_TOT_INS`).
    pub tot_ins: f64,
    /// Cycles (`PAPI_TOT_CYC`).
    pub tot_cyc: f64,
    /// Load/store instructions (`PAPI_LST_INS`).
    pub lst_ins: f64,
    /// L2 cache misses.
    pub l2_miss: f64,
    /// Branch mispredictions.
    pub br_miss: f64,
    /// Of `time`, seconds spent blocked waiting on other ranks
    /// (meaningful for MPI vertices).
    pub wait_time: f64,
    /// Bytes sent or received at this vertex.
    pub bytes: f64,
}

impl VertexPerf {
    /// Accumulate another sample into this vector.
    #[inline]
    pub fn merge(&mut self, other: &VertexPerf) {
        self.time += other.time;
        self.count += other.count;
        self.tot_ins += other.tot_ins;
        self.tot_cyc += other.tot_cyc;
        self.lst_ins += other.lst_ins;
        self.l2_miss += other.l2_miss;
        self.br_miss += other.br_miss;
        self.wait_time += other.wait_time;
        self.bytes += other.bytes;
    }
}

/// One aggregated inter-process communication-dependence edge:
/// messages from `(src_rank, src_vertex)` consumed at
/// `(dst_rank, dst_vertex)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommDep {
    /// Sending rank.
    pub src_rank: usize,
    /// Send-side vertex (e.g. `MPI_Send`, `MPI_Isend`, `MPI_Sendrecv`).
    pub src_vertex: VertexId,
    /// Receiving rank.
    pub dst_rank: usize,
    /// Receive-side vertex where the dependence completes (`MPI_Recv`,
    /// `MPI_Wait`, `MPI_Waitall`, `MPI_Sendrecv`).
    pub dst_vertex: VertexId,
    /// Matched messages aggregated into this edge.
    pub count: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Seconds the destination spent blocked on messages of this edge —
    /// the "waiting event" signal Algorithm 1 uses to prune edges.
    pub wait_time: f64,
}

/// The key [`Ppg::comm`] is sorted by.
fn destination(dep: &CommDep) -> (usize, VertexId) {
    (dep.dst_rank, dep.dst_vertex)
}

/// The Program Performance Graph for one run (one process count).
#[derive(Debug)]
pub struct Ppg {
    /// The shared per-process structure.
    pub psg: Arc<Psg>,
    /// Number of ranks in this run.
    pub nprocs: usize,
    /// Per-rank end-to-end runtime (virtual seconds).
    pub rank_elapsed: Vec<f64>,
    /// Vertex-major performance matrix: `perf[v * nprocs + rank]`.
    perf: Vec<VertexPerf>,
    /// Aggregated communication-dependence edges, sorted by
    /// `(dst_rank, dst_vertex)`; [`add_comm`](Ppg::add_comm) keeps the
    /// order, and edges with the same destination stay in the order they
    /// were added.
    pub comm: Vec<CommDep>,
}

impl Ppg {
    /// Create an empty PPG over `nprocs` replicas of `psg`.
    pub fn new(psg: Arc<Psg>, nprocs: usize) -> Ppg {
        let n = psg.vertex_count() * nprocs;
        Ppg {
            psg,
            nprocs,
            rank_elapsed: vec![0.0; nprocs],
            perf: vec![VertexPerf::default(); n],
            comm: Vec::new(),
        }
    }

    fn idx(&self, v: VertexId, rank: usize) -> usize {
        debug_assert!(rank < self.nprocs);
        v as usize * self.nprocs + rank
    }

    /// Performance vector of `(vertex, rank)`.
    pub fn perf(&self, v: VertexId, rank: usize) -> &VertexPerf {
        &self.perf[self.idx(v, rank)]
    }

    /// Mutable performance vector of `(vertex, rank)`.
    pub fn perf_mut(&mut self, v: VertexId, rank: usize) -> &mut VertexPerf {
        let i = self.idx(v, rank);
        &mut self.perf[i]
    }

    /// If the PSG grew after this PPG was allocated (late indirect-call
    /// resolution), extend the matrix so new vertices are addressable.
    pub fn sync_with_psg(&mut self) {
        let needed = self.psg.vertex_count() * self.nprocs;
        if needed > self.perf.len() {
            self.perf.resize(needed, VertexPerf::default());
        }
    }

    /// Record one aggregated communication-dependence edge, after every
    /// edge already recorded with the same destination. Edges that come
    /// sorted by destination are appended.
    pub fn add_comm(&mut self, dep: CommDep) {
        let key = destination(&dep);
        let at = match self.comm.last() {
            Some(last) if destination(last) > key => {
                self.comm.partition_point(|d| destination(d) <= key)
            }
            _ => self.comm.len(),
        };
        self.comm.insert(at, dep);
    }

    /// Dependence edges arriving at `(rank, vertex)` — the inter-process
    /// edges backtracking follows from an MPI vertex — in the order they
    /// were added.
    pub fn deps_into(&self, rank: usize, v: VertexId) -> &[CommDep] {
        let start = self.comm.partition_point(|d| destination(d) < (rank, v));
        let len = self.comm[start..].partition_point(|d| destination(d) == (rank, v));
        &self.comm[start..start + len]
    }

    /// Execution time of one vertex across all ranks.
    pub fn times_across_ranks(&self, v: VertexId) -> Vec<f64> {
        (0..self.nprocs).map(|r| self.perf(v, r).time).collect()
    }

    /// Mean execution time of a vertex across ranks.
    pub fn mean_time(&self, v: VertexId) -> f64 {
        if self.nprocs == 0 {
            return 0.0;
        }
        self.times_across_ranks(v).iter().sum::<f64>() / self.nprocs as f64
    }

    /// End-to-end runtime of the run: the slowest rank.
    pub fn total_time(&self) -> f64 {
        self.rank_elapsed.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of a vertex's time over ranks divided by total aggregate time
    /// — used to rank problematic vertices by impact.
    pub fn time_fraction(&self, v: VertexId) -> f64 {
        let total: f64 = self.rank_elapsed.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.times_across_ranks(v).iter().sum::<f64>() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psg::{build, PsgOptions};
    use scalana_lang::parse_program;

    fn test_ppg(nprocs: usize) -> Ppg {
        let src = "fn main() { comp(cycles = 100); send(dst = (rank + 1) % nprocs, \
                    tag = 0, bytes = 64); recv(src = (rank + nprocs - 1) % nprocs, tag = 0); }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = Arc::new(build(&program, &PsgOptions::default()));
        Ppg::new(psg, nprocs)
    }

    #[test]
    fn perf_matrix_addressing() {
        let mut ppg = test_ppg(4);
        ppg.perf_mut(1, 2).time = 3.5;
        ppg.perf_mut(1, 2).count = 2;
        assert_eq!(ppg.perf(1, 2).time, 3.5);
        assert_eq!(ppg.perf(1, 3).time, 0.0);
        assert_eq!(ppg.times_across_ranks(1), vec![0.0, 0.0, 3.5, 0.0]);
        assert!((ppg.mean_time(1) - 3.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn comm_edges_indexed_by_destination() {
        let mut ppg = test_ppg(4);
        ppg.add_comm(CommDep {
            src_rank: 0,
            src_vertex: 2,
            dst_rank: 1,
            dst_vertex: 3,
            count: 5,
            bytes: 320,
            wait_time: 0.25,
        });
        ppg.add_comm(CommDep {
            src_rank: 2,
            src_vertex: 2,
            dst_rank: 1,
            dst_vertex: 3,
            count: 1,
            bytes: 64,
            wait_time: 0.0,
        });
        // Added out of destination order: it still sorts before the
        // edges into rank 1.
        ppg.add_comm(CommDep {
            src_rank: 3,
            src_vertex: 2,
            dst_rank: 0,
            dst_vertex: 3,
            count: 1,
            bytes: 64,
            wait_time: 0.0,
        });
        let deps = ppg.deps_into(1, 3);
        assert_eq!(deps.len(), 2);
        assert_eq!(deps[0].src_rank, 0);
        assert_eq!(deps[1].src_rank, 2);
        assert_eq!(ppg.deps_into(0, 3).len(), 1);
        assert_eq!(ppg.comm[0].dst_rank, 0);
        assert!(ppg.deps_into(2, 3).is_empty());
        assert!(ppg.deps_into(1, 2).is_empty());
    }

    #[test]
    fn total_time_is_slowest_rank() {
        let mut ppg = test_ppg(3);
        ppg.rank_elapsed = vec![1.0, 4.0, 2.0];
        assert_eq!(ppg.total_time(), 4.0);
    }

    #[test]
    fn time_fraction_normalizes_by_aggregate() {
        let mut ppg = test_ppg(2);
        ppg.rank_elapsed = vec![2.0, 2.0];
        ppg.perf_mut(0, 0).time = 1.0;
        ppg.perf_mut(0, 1).time = 1.0;
        assert!((ppg.time_fraction(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = VertexPerf {
            time: 1.0,
            count: 1,
            tot_ins: 10.0,
            ..Default::default()
        };
        let b = VertexPerf {
            time: 0.5,
            count: 2,
            tot_ins: 5.0,
            wait_time: 0.25,
            bytes: 64.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.time, 1.5);
        assert_eq!(a.count, 3);
        assert_eq!(a.tot_ins, 15.0);
        assert_eq!(a.wait_time, 0.25);
        assert_eq!(a.bytes, 64.0);
    }

    #[test]
    fn sync_with_psg_grows_matrix() {
        let mut ppg = test_ppg(2);
        let before = ppg.psg.vertex_count();
        // Simulate PSG growth by checking resize is a no-op at same size
        ppg.sync_with_psg();
        assert_eq!(ppg.psg.vertex_count(), before);
    }
}
