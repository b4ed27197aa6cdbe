//! Backtracking root-cause detection (paper §IV-B, Algorithm 1).
//!
//! All PPG edges are traversed in reverse as dependence edges. From each
//! problematic vertex the walk proceeds backwards:
//!
//! - at an **MPI vertex**, follow the inter-process communication
//!   dependence edge with the largest wait time (edges without waiting
//!   are pruned — they carry no delay and following them only inflates
//!   the search space and false positives);
//! - at an **unscanned `Loop`/`Branch` vertex**, follow the control
//!   dependence edge into the structure (continue from the end vertex of
//!   the loop body / the hotter arm), not the data dependence edge;
//! - otherwise follow the **data dependence** edge: the previous vertex
//!   in execution order, or the enclosing structure when at a block
//!   head;
//!
//! until a root vertex or a collective vertex is reached. (The starting
//! vertex itself may be a collective — that is where scaling loss
//! usually *manifests* — and a collective entered through a straggler
//! edge is also traversed, because the delay propagated through it.)
//!
//! The deepest computation vertex (`Comp`/`Loop`) of each path is the
//! reported root cause; paths sharing one are merged and ranked.

use crate::problematic::{AbnormalVertex, NonScalableVertex};
use crate::DetectConfig;
use scalana_graph::{Children, Ppg, Vertex, VertexId, VertexKind};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;

/// One step of a root-cause path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathStep {
    /// Rank the step executes on.
    pub rank: usize,
    /// The vertex.
    pub vertex: VertexId,
    /// Vertex kind label (`MPI_Waitall`, `Loop`, ...).
    pub kind: String,
    /// `file:line`.
    pub location: String,
    /// Vertex time on this rank.
    pub time: f64,
    /// Vertex wait time on this rank.
    pub wait_time: f64,
    /// Whether this step was reached through an inter-process edge.
    pub via_comm: bool,
}

/// A backward causal path from a problematic vertex to its root cause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RootCausePath {
    /// Steps, starting at the problematic vertex.
    pub steps: Vec<PathStep>,
    /// Index into `steps` of the identified root cause.
    pub root_cause_idx: usize,
    /// Whether the path found genuinely imbalanced computation (a step
    /// whose time exceeds its vertex's cross-rank median). Unconfident
    /// paths fall back to their deepest structure and are down-weighted
    /// when ranking root causes.
    pub confident: bool,
}

impl RootCausePath {
    /// The root-cause step.
    pub fn root_cause(&self) -> &PathStep {
        &self.steps[self.root_cause_idx]
    }
}

/// A deduplicated, ranked root cause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RootCause {
    /// The vertex.
    pub vertex: VertexId,
    /// Vertex kind label.
    pub kind: String,
    /// `file:line` in the source.
    pub location: String,
    /// Function the vertex lives in.
    pub func: String,
    /// Number of causal paths terminating here.
    pub path_count: usize,
    /// Ranking score (impact × imbalance).
    pub score: f64,
    /// Cross-rank mean time of the vertex.
    pub mean_time: f64,
    /// Cross-rank max/mean time imbalance.
    pub time_imbalance: f64,
    /// Cross-rank max/mean `TOT_INS` imbalance (the PMU signal used in
    /// the paper's SST and Nekbone case studies).
    pub ins_imbalance: f64,
}

/// Run backtracking from every problematic vertex (Algorithm 1's two
/// loops: first non-scalable seeds, then not-yet-scanned abnormal
/// seeds). Returns the raw paths and the merged, ranked root causes.
pub fn backtrack_all(
    ppg: &Ppg,
    non_scalable: &[NonScalableVertex],
    abnormal: &[AbnormalVertex],
    config: &DetectConfig,
) -> (Vec<RootCausePath>, Vec<RootCause>) {
    let mut walk = Walk::new(ppg, config);
    let mut paths = Vec::new();

    // Non-scalable seeds: start on the rank where the delay manifests —
    // the one waiting longest, falling back to the slowest.
    for n in non_scalable {
        let waits: Vec<f64> = (0..ppg.nprocs)
            .map(|r| ppg.perf(n.vertex, r).wait_time)
            .collect();
        let rank = if waits.iter().any(|w| *w > 0.0) {
            argmax(&waits)
        } else {
            argmax(&ppg.times_across_ranks(n.vertex))
        };
        if let Some(path) = walk.backtrack_one(rank, n.vertex) {
            paths.push(path);
        }
    }
    // Abnormal seeds not already covered.
    for a in abnormal {
        for &rank in &a.ranks {
            if walk.scanned[walk.cell(rank, a.vertex)] {
                continue;
            }
            if let Some(path) = walk.backtrack_one(rank, a.vertex) {
                paths.push(path);
            }
        }
    }

    let causes = merge_root_causes(ppg, &paths);
    (paths, causes)
}

fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The state of one [`backtrack_all`] call, shared by every path it
/// walks.
///
/// - `scanned` and `in_path` are dense `vertex × nprocs` tables over
///   `(rank, vertex)`, laid out like the PPG's perf matrix. `scanned`
///   is Algorithm 1's scanned set and only grows; `in_path` holds the
///   path being walked and is cleared from that path's own steps when
///   the walk ends, so each path starts from an empty table without
///   touching the rest of it.
/// - `medians` caches each vertex's cross-rank median time, computed
///   the first time a root-cause pick asks for it.
/// - `labels` caches each vertex's `kind` and `location` strings,
///   formatted the first time a step visits the vertex and cloned into
///   every later step.
struct Walk<'a> {
    ppg: &'a Ppg,
    config: &'a DetectConfig,
    scanned: Vec<bool>,
    in_path: Vec<bool>,
    medians: Vec<Option<f64>>,
    labels: Vec<Option<(String, String)>>,
}

impl<'a> Walk<'a> {
    fn new(ppg: &'a Ppg, config: &'a DetectConfig) -> Walk<'a> {
        let vertices = ppg.psg.vertex_count();
        Walk {
            ppg,
            config,
            scanned: vec![false; vertices * ppg.nprocs],
            in_path: vec![false; vertices * ppg.nprocs],
            medians: vec![None; vertices],
            labels: vec![None; vertices],
        }
    }

    fn cell(&self, rank: usize, vertex: VertexId) -> usize {
        debug_assert!(rank < self.ppg.nprocs);
        vertex as usize * self.ppg.nprocs + rank
    }

    fn on_path(&self, rank: usize, vertex: VertexId) -> bool {
        self.in_path[self.cell(rank, vertex)]
    }

    /// The vertex's cross-rank median time.
    fn median(&mut self, vertex: VertexId) -> f64 {
        let ppg = self.ppg;
        *self.medians[vertex as usize]
            .get_or_insert_with(|| crate::fit::median(&ppg.times_across_ranks(vertex)))
    }

    /// The path step for `(rank, vertex)`.
    fn step(&mut self, rank: usize, vertex: VertexId, via_comm: bool) -> PathStep {
        let ppg = self.ppg;
        let (kind, location) = self.labels[vertex as usize].get_or_insert_with(|| {
            let v = ppg.psg.vertex(vertex);
            (v.kind.label(), v.location())
        });
        let perf = ppg.perf(vertex, rank);
        PathStep {
            rank,
            vertex,
            kind: kind.clone(),
            location: location.clone(),
            time: perf.time,
            wait_time: perf.wait_time,
            via_comm,
        }
    }

    /// Backtrack from one `(rank, vertex)` seed.
    fn backtrack_one(
        &mut self,
        start_rank: usize,
        start_vertex: VertexId,
    ) -> Option<RootCausePath> {
        let ppg = self.ppg;
        let psg = &*ppg.psg;
        let config = self.config;
        let mut steps: Vec<PathStep> = Vec::new();
        let mut rank = start_rank;
        let mut vertex = start_vertex;
        let mut via_comm = true; // the seed behaves like a fresh entry point

        while steps.len() < config.max_path_len {
            let cell = self.cell(rank, vertex);
            if self.in_path[cell] {
                break; // cycle guard
            }
            self.in_path[cell] = true;
            self.scanned[cell] = true;
            steps.push(self.step(rank, vertex, via_comm));
            let v = psg.vertex(vertex);

            if v.kind == VertexKind::Root {
                break;
            }

            // MPI vertex: prefer the inter-process dependence with real wait.
            if v.is_mpi() {
                // A collective reached intra-process is a full
                // synchronization point: causality does not extend further
                // back (Algorithm 1's stop condition). The seed and
                // straggler-entered collectives continue — the delay
                // flowed through them.
                if v.is_collective() && !via_comm && steps.len() > 1 {
                    break;
                }
                let best = ppg
                    .deps_into(rank, vertex)
                    .iter()
                    .filter(|d| d.wait_time >= config.wait_prune)
                    .max_by(|a, b| a.wait_time.partial_cmp(&b.wait_time).unwrap());
                if let Some(dep) = best {
                    if !self.on_path(dep.src_rank, dep.src_vertex) {
                        rank = dep.src_rank;
                        vertex = dep.src_vertex;
                        via_comm = true;
                        continue;
                    }
                }
            }

            // Unscanned Loop/Branch: control dependence into the structure.
            via_comm = false;
            let next = match v.kind {
                VertexKind::Loop if self.first_visit_structure(rank, v) => psg.loop_end(vertex),
                VertexKind::Branch if self.first_visit_structure(rank, v) => {
                    // Continue from the hotter arm's end on this rank.
                    psg.branch_arm_ends(vertex).into_iter().max_by(|a, b| {
                        ppg.perf(*a, rank)
                            .time
                            .partial_cmp(&ppg.perf(*b, rank).time)
                            .unwrap()
                    })
                }
                _ => None,
            };
            // Data dependence: previous statement in execution order. At a
            // loop-body head the previous *execution* is the end of the
            // previous iteration, so prefer wrapping to the loop end before
            // climbing to the header — this follows delay chains that
            // cross iteration boundaries (an isend delayed by last
            // iteration's waitall).
            let next = next.or_else(|| psg.seq_pred(vertex)).or_else(|| {
                let parent = psg.parent(vertex)?;
                if psg.vertex(parent).kind == VertexKind::Loop {
                    match psg.loop_end(parent) {
                        Some(end) if end != vertex && !self.on_path(rank, end) => Some(end),
                        _ => Some(parent),
                    }
                } else {
                    Some(parent)
                }
            });
            // Already-visited vertices are "scanned": pass through them by
            // following their data dependence (e.g. leaving a loop body we
            // descended into continues at the loop header's predecessor).
            let mut cand = next;
            let mut skips = 0;
            let resolved = loop {
                match cand {
                    None => break None,
                    Some(n) if !self.on_path(rank, n) => break Some(n),
                    Some(n) => {
                        skips += 1;
                        if skips > config.max_path_len {
                            break None;
                        }
                        cand = psg.seq_pred(n).or_else(|| psg.parent(n));
                    }
                }
            };
            match resolved {
                Some(n) => vertex = n,
                None => break,
            }
        }

        for s in &steps {
            let cell = self.cell(s.rank, s.vertex);
            self.in_path[cell] = false;
        }
        if steps.is_empty() {
            return None;
        }
        let (root_cause_idx, confident) = self.pick_root_cause(&steps);
        Some(RootCausePath {
            steps,
            root_cause_idx,
            confident,
        })
    }

    /// A structure counts as unscanned until its body has been entered —
    /// approximated by whether any of its children are scanned on this
    /// rank.
    fn first_visit_structure(&self, rank: usize, structure: &Vertex) -> bool {
        let scanned = |c: &VertexId| self.scanned[self.cell(rank, *c)];
        !match &structure.children {
            Children::Seq(kids) => kids.iter().any(scanned),
            Children::Arms { then_arm, else_arm } => then_arm.iter().chain(else_arm).any(scanned),
        }
    }

    /// Choose the path's root cause: the *computation* step (`Comp`/
    /// `Loop`) where the delay originates — the one whose time on the
    /// path's rank most exceeds the vertex's cross-rank median. The
    /// delayed rank's extra work, a boundary loop only some ranks
    /// execute, or a slow-core dgemm all maximize this excess;
    /// uniformly-executed structure scores zero. With no imbalanced
    /// computation on the path, fall back to the deepest computation
    /// step, then to the last step. When the winner is a loop body the
    /// walk descended into, the enclosing Loop is reported (the paper
    /// reports "the LOOP at bval3d.F:155").
    fn pick_root_cause(&mut self, steps: &[PathStep]) -> (usize, bool) {
        let psg = &*self.ppg.psg;
        // The last comp step, and the one of greatest excess (the last
        // of equals, as `max_by` picks).
        let mut last = None;
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in steps.iter().enumerate() {
            if !matches!(
                psg.vertex(s.vertex).kind,
                VertexKind::Comp | VertexKind::Loop
            ) {
                continue;
            }
            let excess = s.time - self.median(s.vertex);
            last = Some(i);
            match best {
                Some((_, b))
                    if b.partial_cmp(&excess).expect("profile times are finite")
                        == Ordering::Greater => {}
                _ => best = Some((i, excess)),
            }
        }
        let mut confident = false;
        let mut idx = match (best, last) {
            (Some((i, excess)), _) if excess > 0.0 => {
                confident = true;
                i
            }
            (_, Some(last)) => last,
            _ => steps.len() - 1,
        };
        // Prefer the enclosing Loop the walk just descended through.
        if idx > 0
            && matches!(psg.vertex(steps[idx].vertex).kind, VertexKind::Comp)
            && matches!(psg.vertex(steps[idx - 1].vertex).kind, VertexKind::Loop)
            && psg.parent(steps[idx].vertex) == Some(steps[idx - 1].vertex)
        {
            idx -= 1;
        }
        (idx, confident)
    }
}

/// Merge paths by root-cause vertex and rank by *explained symptom
/// time*: the waiting (or, failing that, execution) time of the
/// problematic vertices whose causal paths terminate at this cause.
fn merge_root_causes(ppg: &Ppg, paths: &[RootCausePath]) -> Vec<RootCause> {
    let mut groups: HashMap<VertexId, (usize, f64)> = HashMap::new();
    // Paths that located imbalanced computation take precedence; paths
    // that merely walked to their deepest structure only rank when no
    // confident evidence exists.
    let any_confident = paths.iter().any(|p| p.confident);
    for path in paths {
        if any_confident && !path.confident {
            continue;
        }
        let seed = &path.steps[0];
        let explained = if seed.wait_time > 0.0 {
            seed.wait_time
        } else {
            seed.time
        };
        let entry = groups.entry(path.root_cause().vertex).or_default();
        entry.0 += 1;
        entry.1 += explained;
    }
    let mut causes: Vec<RootCause> = groups
        .into_iter()
        .map(|(vertex, (path_count, explained))| {
            let v = ppg.psg.vertex(vertex);
            let times = ppg.times_across_ranks(vertex);
            let mean_time = times.iter().sum::<f64>() / times.len().max(1) as f64;
            let max_time = times.iter().copied().fold(0.0, f64::max);
            let time_imbalance = if mean_time > 0.0 {
                max_time / mean_time
            } else {
                1.0
            };
            let ins: Vec<f64> = (0..ppg.nprocs)
                .map(|r| ppg.perf(vertex, r).tot_ins)
                .collect();
            let mean_ins = ins.iter().sum::<f64>() / ins.len().max(1) as f64;
            let max_ins = ins.iter().copied().fold(0.0, f64::max);
            let ins_imbalance = if mean_ins > 0.0 {
                max_ins / mean_ins
            } else {
                1.0
            };
            RootCause {
                vertex,
                kind: v.kind.label(),
                location: v.location(),
                func: v.func.clone(),
                path_count,
                score: explained,
                mean_time,
                time_imbalance,
                ins_imbalance,
            }
        })
        .collect();
    // Ties broken by vertex id: `groups` is a HashMap, whose iteration
    // order differs between processes, and downstream consumers (the
    // service's content-addressed result cache) rely on identical inputs
    // producing byte-identical reports.
    causes.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.vertex.cmp(&b.vertex))
    });
    causes
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_graph::{build_psg, CommDep, MpiKind, PsgOptions};
    use scalana_lang::parse_program;
    use std::sync::Arc;

    /// A Zeus-MP-shaped program: an imbalanced boundary loop feeds a
    /// non-blocking exchange whose waits drain into an allreduce.
    ///
    /// Structure per rank:
    ///   Branch { Loop(busy ranks only) } ; Isend ; Irecv ; Waitall ; Allreduce
    fn zeus_shape() -> (Arc<scalana_graph::Psg>, Ppg) {
        let src = r#"
            fn main() {
                if rank % 2 == 0 {
                    for j in 0 .. 8 {
                        comp(cycles = 1000);
                    }
                }
                let s = isend(dst = (rank + 1) % nprocs, tag = 0, bytes = 1k);
                let q = irecv(src = (rank + nprocs - 1) % nprocs, tag = 0);
                waitall();
                allreduce(bytes = 8);
            }
        "#;
        let program = parse_program("nudt.F", src).unwrap();
        let psg = Arc::new(build_psg(&program, &PsgOptions::default()));
        let nprocs = 4;
        let mut ppg = Ppg::new(Arc::clone(&psg), nprocs);

        let find = |kind: VertexKind| {
            psg.vertices
                .iter()
                .find(|v| v.kind == kind)
                .map(|v| v.id)
                .unwrap()
        };
        let loop_v = find(VertexKind::Loop);
        let isend = find(VertexKind::Mpi(MpiKind::Isend));
        let waitall = find(VertexKind::Mpi(MpiKind::Waitall));
        let allreduce = find(VertexKind::Mpi(MpiKind::Allreduce));

        for r in 0..nprocs {
            let busy = r % 2 == 0;
            if busy {
                ppg.perf_mut(loop_v, r).time = 0.1;
                ppg.perf_mut(loop_v, r).tot_ins = 1e6;
            }
            ppg.perf_mut(isend, r).time = 1e-6;
            // Odd (idle) ranks wait for their even neighbour's late isend.
            ppg.perf_mut(waitall, r).time = if busy { 1e-6 } else { 0.1 };
            ppg.perf_mut(waitall, r).wait_time = if busy { 0.0 } else { 0.1 };
            ppg.perf_mut(allreduce, r).time = 0.02;
            ppg.perf_mut(allreduce, r).wait_time = if busy { 0.0 } else { 0.01 };
            ppg.rank_elapsed[r] = 0.15;
        }
        // Waitall on odd rank r depends on isend from even rank r-1.
        for r in [1usize, 3] {
            ppg.add_comm(CommDep {
                src_rank: r - 1,
                src_vertex: isend,
                dst_rank: r,
                dst_vertex: waitall,
                count: 1,
                bytes: 1024,
                wait_time: 0.1,
            });
        }
        (psg, ppg)
    }

    #[test]
    fn zeus_chain_backtracks_to_boundary_loop() {
        let (psg, ppg) = zeus_shape();
        let allreduce = psg
            .vertices
            .iter()
            .find(|v| v.kind == VertexKind::Mpi(MpiKind::Allreduce))
            .unwrap()
            .id;
        let seed = NonScalableVertex {
            vertex: allreduce,
            fit: crate::fit::Fit {
                slope: 0.3,
                intercept: 0.0,
                r2: 0.9,
            },
            times: vec![0.01, 0.02],
            time_fraction: 0.2,
            location: psg.vertex(allreduce).location(),
        };
        let (paths, causes) = backtrack_all(&ppg, &[seed], &[], &DetectConfig::default());
        assert!(!paths.is_empty());
        // The top root cause is the boundary loop.
        let top = &causes[0];
        assert_eq!(
            top.kind, "Loop",
            "root cause should be the loop: {causes:?}"
        );
        // The winning path crossed ranks through the waitall dependence.
        let loop_path = paths
            .iter()
            .find(|p| p.root_cause().kind == "Loop")
            .expect("a path reaches the loop");
        assert!(
            loop_path
                .steps
                .iter()
                .any(|s| s.via_comm && s.kind.contains("Isend")),
            "path crosses ranks at the isend: {:?}",
            loop_path.steps
        );
        assert!(
            loop_path.steps.iter().any(|s| s.kind.contains("Waitall")),
            "path passes the waitall"
        );
    }

    #[test]
    fn collective_reached_intraprocess_stops_the_walk() {
        // Program: allreduce ; comp ; barrier — backtracking from the
        // barrier must stop at the allreduce, not walk past it.
        let src = "fn main() { allreduce(bytes = 8); comp(cycles = 10); barrier(); }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = Arc::new(build_psg(&program, &PsgOptions::default()));
        let mut ppg = Ppg::new(Arc::clone(&psg), 2);
        for v in 0..psg.vertex_count() as VertexId {
            for r in 0..2 {
                ppg.perf_mut(v, r).time = 0.01;
            }
        }
        ppg.rank_elapsed = vec![0.04, 0.04];
        let barrier = psg
            .vertices
            .iter()
            .find(|v| v.kind == VertexKind::Mpi(MpiKind::Barrier))
            .unwrap()
            .id;
        let allreduce = psg
            .vertices
            .iter()
            .find(|v| v.kind == VertexKind::Mpi(MpiKind::Allreduce))
            .unwrap()
            .id;
        let seed = AbnormalVertex {
            vertex: barrier,
            ranks: vec![1],
            ratio: 2.0,
            median_time: 0.01,
            location: String::new(),
        };
        let (paths, _) = backtrack_all(&ppg, &[], &[seed], &DetectConfig::default());
        let path = &paths[0];
        assert_eq!(
            path.steps.last().unwrap().vertex,
            allreduce,
            "stops at collective"
        );
    }

    #[test]
    fn wait_prune_filters_no_wait_edges(// Algorithm 1 prunes dependence edges without waiting events.
    ) {
        let (psg, mut ppg) = zeus_shape();
        // Zero out all wait on the recorded edges.
        for dep in &mut ppg.comm {
            dep.wait_time = 0.0;
        }
        let waitall = psg
            .vertices
            .iter()
            .find(|v| v.kind == VertexKind::Mpi(MpiKind::Waitall))
            .unwrap()
            .id;
        let seed = AbnormalVertex {
            vertex: waitall,
            ranks: vec![1],
            ratio: 2.0,
            median_time: 0.01,
            location: String::new(),
        };
        let (paths, _) = backtrack_all(&ppg, &[], &[seed], &DetectConfig::default());
        // Without waits, the walk must not cross ranks.
        assert!(paths[0]
            .steps
            .iter()
            .all(|s| s.rank == 1 || !s.via_comm || s.vertex == waitall));
        assert!(paths[0].steps.iter().skip(1).all(|s| !s.via_comm));
    }

    #[test]
    fn abnormal_seeds_skip_already_scanned() {
        let (psg, ppg) = zeus_shape();
        let waitall = psg
            .vertices
            .iter()
            .find(|v| v.kind == VertexKind::Mpi(MpiKind::Waitall))
            .unwrap()
            .id;
        let seed = AbnormalVertex {
            vertex: waitall,
            ranks: vec![1, 3],
            ratio: 2.0,
            median_time: 0.01,
            location: String::new(),
        };
        // Same seed twice: second pass adds nothing new.
        let (paths_once, _) = backtrack_all(
            &ppg,
            &[],
            std::slice::from_ref(&seed),
            &DetectConfig::default(),
        );
        let (paths_twice, _) =
            backtrack_all(&ppg, &[], &[seed.clone(), seed], &DetectConfig::default());
        assert_eq!(paths_once.len(), paths_twice.len());
    }

    #[test]
    fn path_length_is_capped() {
        let (psg, ppg) = zeus_shape();
        let allreduce = psg
            .vertices
            .iter()
            .find(|v| v.kind == VertexKind::Mpi(MpiKind::Allreduce))
            .unwrap()
            .id;
        let seed = AbnormalVertex {
            vertex: allreduce,
            ranks: vec![0],
            ratio: 2.0,
            median_time: 0.01,
            location: String::new(),
        };
        let config = DetectConfig {
            max_path_len: 2,
            ..Default::default()
        };
        let (paths, _) = backtrack_all(&ppg, &[], &[seed], &config);
        assert!(paths[0].steps.len() <= 2);
    }
}
